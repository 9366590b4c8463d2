"""Oracle and statistical tests for the fading channel model."""

import numpy as np
import pytest

from risae.autoencoder import AttackApplication, adversary_cascade_set, cascade_set
from risae import channel
from risae.channel import (
    LINK_ENDS,
    SPACING,
    SPREAD,
    ArrayGeometry,
    ChannelBatch,
    ChannelModel,
    corr_uniform,
    crandn,
    steering_ula,
    steering_upa,
)
from risae.config import SystemConfig


def crand(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def tiny_config(**kwargs) -> SystemConfig:
    base = dict(n_t=2, n_r=2, a1_v=1, a1_h=2, a2_v=1, a2_h=2, m=4, block_len=2,
                num_scatterers=3, hidden_width=8)
    base.update(kwargs)
    return SystemConfig(**base)


# n_t (also the adversary's antenna count), n_r, a1 = 5, a2 = 6 and L all
# differ, so a transposed link or a swapped axis cannot pass the per-symbol
# oracles
NON_SQUARE = dict(n_t=2, n_r=3, a1_v=1, a1_h=5, a2_v=2, a2_h=3, block_len=7)


class TestSteering:
    def test_zero_angle_is_all_ones(self):
        assert np.allclose(steering_ula(5, 0.0), np.ones(5))

    def test_single_element(self):
        assert np.allclose(steering_ula(1, 1.2), [1.0])

    def test_half_wavelength_broadside(self):
        # at SPACING 0.5, exp(j pi n sin(pi/2)) alternates sign
        v = steering_ula(2, np.pi / 2)
        assert np.allclose(v, [1.0, -1.0], atol=1e-12)

    def test_unit_modulus(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = steering_ula(7, rng.uniform(-np.pi, np.pi))
            assert np.allclose(np.abs(v), 1.0, atol=1e-12)

    def test_upa_degenerate(self):
        geom = ArrayGeometry(1, 1)
        assert np.allclose(steering_upa(geom, 0.7, -0.2), [1.0])

    def test_upa_zero_angles(self):
        geom = ArrayGeometry(2, 3)
        assert np.allclose(steering_upa(geom, 0.0, 0.0), np.ones(6))

    def test_upa_matches_kron_expansion(self):
        rng = np.random.default_rng(1)
        geom = ArrayGeometry(2, 3)
        for _ in range(20):
            az = rng.uniform(-np.pi, np.pi)
            el = rng.uniform(-np.pi / 2, np.pi / 2)
            a_v = steering_ula(2, el)
            a_h = steering_ula(3, az)
            assert np.allclose(steering_upa(geom, az, el), np.kron(a_v, a_h), atol=1e-13)


def los_angles(n, rng):
    """One link's LoS azimuths and elevations for n blocks, drawn as
    sample_batch draws them."""
    return (rng.uniform(-np.pi, np.pi, size=(n, 2)),
            rng.uniform(-np.pi / 2, np.pi / 2, size=(n, 2)))


def fixed_angles(azimuths, elevations):
    """One block's (arrival, departure) azimuths and elevations."""
    return np.array([azimuths], dtype=float), np.array([elevations], dtype=float)


class TestLosMatrix:
    def test_all_ones(self):
        model = ChannelModel(tiny_config(n_t=2, a1_v=1, a1_h=3))
        los = model._los_batch("u1", *fixed_angles([0.0, 0.0], [0.0, 0.0]))
        assert np.allclose(los, np.ones((1, 3, 2)))

    def test_vector_case(self):
        # decoder ULA at broadside alternates sign; a one-element surface is [1]
        model = ChannelModel(tiny_config(n_r=2, a1_v=1, a1_h=1))
        los = model._los_batch("y1", *fixed_angles([np.pi / 2, 0.0], [0.0, 0.0]))
        assert np.allclose(los, [[[1.0], [-1.0]]], atol=1e-12)

    def test_rank_one(self):
        model = ChannelModel(tiny_config(n_r=6, a1_v=2, a1_h=2))
        los = model._los_batch("y1", *los_angles(20, np.random.default_rng(2)))
        sv = np.linalg.svd(los, compute_uv=False)
        assert np.all(sv[:, 1] < 1e-10)

    def test_uses_transpose_not_conjugate(self):
        # sin(pi/6) = 1/2 makes both two-element responses [1, j]
        model = ChannelModel(tiny_config(n_t=2, a1_v=1, a1_h=2))
        los = model._los_batch("u1", *fixed_angles([np.pi / 6, np.pi / 6], [0.0, 0.0]))
        assert np.allclose(los, [[[1.0, 1j], [1j, -1.0]]], atol=1e-12)


def corr_oracle(count, sc):
    """Direct double-loop summation of the correlation definition."""
    out = np.zeros((count, count), dtype=complex)
    a = 0.5 * (sc - 1)
    ks = [-a + i for i in range(sc)]
    for m in range(count):
        for n in range(count):
            q = m - n
            total = 0.0 + 0.0j
            for k in ks:
                beta = k * SPREAD / (1.0 - sc) if sc > 1 else 0.0
                total += np.exp(1j * 2.0 * np.pi * SPACING * q * np.sin(beta))
            out[m, n] = total / sc
    return out


class TestCorrUniform:
    def test_unit_diagonal(self):
        r = corr_uniform(5, 7)
        assert np.allclose(np.diagonal(r), 1.0)

    def test_single_scatterer_all_ones(self):
        assert np.allclose(corr_uniform(4, 1), np.ones((4, 4)))

    def test_matches_summation_oracle(self):
        assert np.allclose(corr_uniform(4, 3), corr_oracle(4, 3), atol=1e-12)

    def test_matches_oracle_on_every_small_count(self):
        for count in range(1, 6):
            for sc in range(1, 9):
                assert np.allclose(corr_uniform(count, sc), corr_oracle(count, sc), atol=1e-12)

    def test_grid_hermitian_psd_unit_diagonal(self):
        for count in (2, 4, 8):
            for sc in (2, 5, 9):
                r = corr_uniform(count, sc)
                assert np.allclose(r, r.conj().T, atol=1e-12)
                assert np.allclose(np.diagonal(r), 1.0, atol=1e-12)
                assert np.linalg.eigvalsh(r).min() >= -1e-9

    def test_even_scatterer_count_keeps_unit_diagonal(self):
        r = corr_uniform(3, 4)
        assert np.allclose(np.diagonal(r), 1.0)


class TestArrayCorrelation:
    def test_linear_array_is_its_axis_correlation(self):
        # a 1 x N array's vertical factor is [[1]], so the product is exact
        geom = ArrayGeometry(1, 5)
        assert np.array_equal(geom.correlation(7), corr_uniform(5, 7))

    def test_planar_array_matches_entrywise_oracle(self):
        # entry (v h, v' h') is r_v[v, v'] r_h[h, h'], element index v count_h + h
        geom = ArrayGeometry(2, 3)
        r_v, r_h = corr_oracle(2, 5), corr_oracle(3, 5)
        oracle = np.array([[r_v[i // 3, j // 3] * r_h[i % 3, j % 3] for j in range(6)]
                           for i in range(6)])
        assert np.allclose(geom.correlation(5), oracle, atol=1e-12)

    def test_model_factors_are_square_roots_of_the_array_correlations(self):
        cfg = tiny_config(**NON_SQUARE)
        model = ChannelModel(cfg)
        for name, geom in model._geom.items():
            f = model._f[name]
            assert np.allclose(f @ f, geom.correlation(cfg.num_scatterers), atol=1e-10)


class TestCrandn:
    @pytest.mark.parametrize("shape", [5, (3, 4), (2, 0, 3)])
    def test_matches_two_draws_combined(self, shape):
        # CN(0, 1): the real parts are drawn first, then the imaginary parts,
        # and the pair is scaled by 1/sqrt(2); bit for bit.
        rng = np.random.default_rng(31)
        re = rng.standard_normal(shape)
        im = rng.standard_normal(shape)
        z = crandn(np.random.default_rng(31), shape)
        assert z.dtype == np.complex128
        assert np.array_equal(z, (re + 1j * im) / np.sqrt(2.0))


class _StubRng:
    """Zero LoS angles and constant-filled standard normal draws, cycling
    through `values`."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def uniform(self, low, high, size):
        return np.zeros(size)

    def standard_normal(self, shape):
        value = self.values[self.calls % len(self.values)]
        self.calls += 1
        return np.full(shape, value, dtype=float)


@pytest.fixture
def pure_nlos(monkeypatch):
    """Pure-NLoS links: Rician factor 0, unit gain."""
    monkeypatch.setattr(channel, "KAPPA", 0.0)
    monkeypatch.setattr(channel, "OMEGA", 1.0)


@pytest.mark.usefixtures("pure_nlos")
class TestNlosSample:
    def test_single_scatterer_rank_one(self):
        model = ChannelModel(tiny_config(num_scatterers=1, n_t=3, a1_v=2, a1_h=2))
        u1 = model.sample_batch(20, np.random.default_rng(4)).u1
        sv = np.linalg.svd(u1, compute_uv=False)
        assert np.all(sv[:, 1] < 1e-10)

    def test_second_moment_identity_correlations(self):
        model = ChannelModel(tiny_config(n_t=4, a1_v=1, a1_h=3, num_scatterers=5))
        model._f = {key: np.eye(f.shape[0]) for key, f in model._f.items()}
        u1 = model.sample_batch(10_000, np.random.default_rng(5)).u1
        mean_sq = np.mean(np.sum(np.abs(u1) ** 2, axis=(1, 2)))
        assert mean_sq == pytest.approx(3 * 4, rel=0.05)

    def test_fixed_draws_match_hand_product(self):
        # every link draws Q re, Q im, P re, P im: Q filled with
        # (1 + 2j)/sqrt(2), P with (3 + 4j)/sqrt(2)
        model = ChannelModel(tiny_config(n_t=2, a1_v=1, a1_h=2, num_scatterers=2))
        model._f["ris1"] = np.diag([2.0, 1.0])
        model._f["sc"] = np.eye(2)
        model._f["enc"] = np.diag([3.0, 1.0])
        out = model.sample_batch(1, _StubRng([1.0, 2.0, 3.0, 4.0])).u1
        q = np.full((2, 2), (1.0 + 2.0j) / np.sqrt(2.0))
        p = np.full((2, 2), (3.0 + 4.0j) / np.sqrt(2.0))
        expected = np.diag([2.0, 1.0]) @ q @ np.eye(2) @ p @ np.diag([3.0, 1.0]) / np.sqrt(2.0)
        assert np.allclose(out[0], expected, atol=1e-13)


class TestLinkSample:
    def test_pure_los_limit(self, monkeypatch):
        # u1 is the first link, so a fresh generator replays its LoS angles
        monkeypatch.setattr(channel, "KAPPA", 1e12)
        model = ChannelModel(tiny_config())
        out = model.sample_batch(1, np.random.default_rng(6)).u1
        los = model._los_batch("u1", *los_angles(1, np.random.default_rng(6)))
        assert np.linalg.norm(out - los) / np.linalg.norm(los) < 1e-5

    @pytest.mark.usefixtures("pure_nlos")
    def test_pure_nlos_limit(self):
        model = ChannelModel(tiny_config())
        out = model.sample_batch(1, np.random.default_rng(7)).u1
        replay = np.random.default_rng(7)
        replay.uniform(size=4)  # the LoS azimuth and elevation pairs
        sc = model.cfg.num_scatterers
        q = crandn(replay, (model.cfg.a1, sc))
        p = crandn(replay, (sc, model.cfg.n_t))
        f_ris1, f_sc, f_enc = model._f["ris1"], model._f["sc"], model._f["enc"]
        expected = f_ris1 @ q @ f_sc @ p @ f_enc / np.sqrt(sc)  # SC^-0.5 R^0.5 Q R^0.5 P R^0.5
        assert np.allclose(out[0], expected, atol=1e-13)

    def test_second_moment(self):
        # unit-modulus LoS and unit-diagonal correlations: E||H||^2 = N1 N2
        cfg = tiny_config(n_t=4, a1_v=1, a1_h=3, num_scatterers=4)
        u1 = ChannelModel(cfg).sample_batch(10_000, np.random.default_rng(8)).u1
        mean_sq = np.mean(np.sum(np.abs(u1) ** 2, axis=(1, 2)))
        assert mean_sq == pytest.approx(cfg.a1 * cfg.n_t, rel=0.05)


class TestRealizationSample:
    def test_paper_scale_shapes(self):
        cfg = SystemConfig(n_t=16, n_r=16, a1_v=4, a1_h=8, a2_v=4, a2_h=8,
                           m=64, block_len=20, num_scatterers=3)
        real = ChannelModel(cfg).sample_batch(1, np.random.default_rng(9))
        assert real.u1.shape == (1, 32, 16)
        assert real.u2.shape == (1, 32, 16)
        assert real.y1.shape == (1, 16, 32)
        assert real.y2.shape == (1, 16, 32)
        assert real.e.shape == (1, 32, 32)
        assert real.u1p.shape == (1, 32, 16)
        assert real.ep.shape == (1, 32, 32)

    def test_primed_shapes_follow_adversary_antennas(self):
        # the adversary has as many antennas as the encoder
        cfg = tiny_config(n_t=3)
        real = ChannelModel(cfg).sample_batch(1, np.random.default_rng(10))
        assert real.u1p.shape == (1, 2, 3)
        assert real.u2p.shape == (1, 2, 3)
        assert real.y1p.shape == (1, 2, 2)
        assert real.ep.shape == (1, 2, 2)

    def test_deterministic_under_seed(self):
        model = ChannelModel(tiny_config())
        r1 = model.sample_batch(1, np.random.default_rng(11))
        r2 = model.sample_batch(1, np.random.default_rng(11))
        for name in LINK_ENDS:
            assert np.array_equal(getattr(r1, name), getattr(r2, name))

    def test_zero_large_scale_gain(self, monkeypatch):
        monkeypatch.setattr(channel, "OMEGA", 0.0)
        real = ChannelModel(tiny_config()).sample_batch(1, np.random.default_rng(12))
        assert np.allclose(real.u1, 0.0)
        assert np.allclose(real.ep, 0.0)

    def test_batch_indexing_matches_batch_arrays(self):
        batch = ChannelModel(tiny_config()).sample_batch(3, np.random.default_rng(13))
        assert len(batch) == 3
        assert all(getattr(batch, name).shape[0] == 3 for name in LINK_ENDS)


def eager_sample(model, n, rng):
    """Every link built as soon as it is drawn, in sample_batch's draw order:
    per link its LoS angles, then Q, then P."""
    sc = model.cfg.num_scatterers
    k = channel.KAPPA
    w_los = np.sqrt(channel.OMEGA) * np.sqrt(k / (k + 1.0))
    w_nlos = np.sqrt(channel.OMEGA) * np.sqrt(1.0 / (k + 1.0))
    links = {}
    for name, (rows, cols) in LINK_ENDS.items():
        az, el = los_angles(n, rng)
        los = (steering_upa(model._geom[rows], az[:, 0], el[:, 0])[:, :, None]
               * steering_upa(model._geom[cols], az[:, 1], el[:, 1])[:, None, :])
        f_rx, f_tx = model._f[rows], model._f[cols]
        q = (crandn(rng, (n * f_rx.shape[0], sc)) @ model._f["sc"]).reshape(n, -1, sc)
        p = (crandn(rng, (n * sc, f_tx.shape[0])) @ f_tx).reshape(n, sc, -1)
        links[name] = w_los * los + w_nlos * (f_rx @ q @ p / np.sqrt(sc))
    return links


LEGITIMATE = [name for name in LINK_ENDS if not name.endswith("p")]


class TestLinksBuiltOnRead:
    @pytest.mark.parametrize("dims", [{}, NON_SQUARE], ids=["square", "non_square"])
    def test_adversary_links_once_read_equal_eager_construction(self, dims):
        model = ChannelModel(tiny_config(**dims))
        batch = model.sample_batch(5, np.random.default_rng(30))
        want = eager_sample(model, 5, np.random.default_rng(30))
        # the adversary links first, in reverse, so no read order is assumed
        for name in reversed(LINK_ENDS):
            assert np.array_equal(getattr(batch, name), want[name]), name

    def test_reading_only_legitimate_links_leaves_the_same_generator_state(self):
        model = ChannelModel(tiny_config(**NON_SQUARE))
        rngs = [np.random.default_rng(31) for _ in range(3)]
        some = model.sample_batch(4, rngs[0])
        every = model.sample_batch(4, rngs[1])
        eager_sample(model, 4, rngs[2])
        assert all(np.array_equal(getattr(some, name), getattr(every, name))
                   for name in LEGITIMATE)
        assert all(getattr(every, name).shape[0] == 4 for name in LINK_ENDS)
        states = [rng.bit_generator.state for rng in rngs]
        assert states[0] == states[1] == states[2]

    def test_a_link_is_built_once(self):
        batch = ChannelModel(tiny_config()).sample_batch(2, np.random.default_rng(32))
        assert batch.ep is batch.ep

    def test_batch_takes_exactly_the_links(self):
        with pytest.raises(AttributeError):
            ChannelModel(tiny_config()).sample_batch(1, np.random.default_rng(33)).q


def cascade_oracle(y2, e, y1, u1, u2, d1, d2):
    return (y2 @ np.diag(d2) @ e @ np.diag(d1) @ u1
            + y1 @ np.diag(d1) @ u1
            + y2 @ np.diag(d2) @ u2)


def one_block(**links) -> ChannelBatch:
    """A batch of one block from 2-D link matrices; absent links are 1 x 1 zeros."""
    arrays = {name: np.asarray(links.get(name, np.zeros((1, 1))), dtype=np.complex128)[None]
              for name in LINK_ENDS}
    return ChannelBatch(**{name: lambda link=link: link for name, link in arrays.items()})


def legitimate(y2, e, y1, u1, u2, d1, d2):
    """K of a one-symbol block through cascade_set at B = 1."""
    chan = one_block(y2=y2, e=e, y1=y1, u1=u1, u2=u2)
    k, _ = cascade_set(chan, np.asarray(d1)[None, :, None], np.asarray(d2)[None, :, None])
    return k[0, 0]


def unit_phases(rng, *shape):
    return np.exp(1j * rng.uniform(-np.pi, np.pi, shape))


class TestCascadedMatrix:
    def test_single_path_reduction(self):
        rng = np.random.default_rng(15)
        y1 = crand(rng, 2, 3)
        u1 = crand(rng, 3, 2)
        k = legitimate(np.zeros((2, 4)), crand(rng, 4, 3), y1, u1,
                       np.zeros((4, 2)), np.ones(3), np.ones(4))
        assert np.allclose(k, y1 @ u1)

    def test_scalar_hand_evaluation(self):
        y2, e, y1, u1, u2 = 2.0 + 1j, 0.5 - 0.5j, 1.0 + 0j, 3.0 + 0j, 1.0 + 2j
        k = legitimate(*[np.array([[v]]) for v in (y2, e, y1, u1, u2)], np.ones(1), np.ones(1))
        assert np.allclose(k, y2 * e * u1 + y1 * u1 + y2 * u2)

    def test_matches_direct_formula(self):
        # per-symbol phases: each symbol of the block gets its own aggregate
        rng = np.random.default_rng(16)
        length = 3
        for _ in range(100):
            mats = {name: crand(rng, 2, 2) for name in ("y2", "e", "y1", "u1", "u2")}
            c1 = unit_phases(rng, 1, 2, length)
            c2 = unit_phases(rng, 1, 2, length)
            k, _ = cascade_set(one_block(**mats), c1, c2)
            assert k.shape == (1, length, 2, 2)
            for i in range(length):
                expected = cascade_oracle(*mats.values(), c1[0, :, i], c2[0, :, i])
                assert np.allclose(k[0, i], expected, atol=1e-12)

    def test_linear_in_each_link(self):
        # Superposition per operand: links absent from a term contribute a
        # constant offset, so compare against F(a) + F(b) - F(0).
        rng = np.random.default_rng(17)
        d1 = unit_phases(rng, 2)
        d2 = unit_phases(rng, 2)
        args_a = [crand(rng, 2, 2) for _ in range(5)]
        args_b = [crand(rng, 2, 2) for _ in range(5)]
        for idx in range(5):
            mixed = list(args_a)
            mixed[idx] = args_a[idx] + args_b[idx]
            swapped = list(args_a)
            swapped[idx] = args_b[idx]
            zeroed = list(args_a)
            zeroed[idx] = np.zeros((2, 2))
            lhs = legitimate(*mixed, d1, d2)
            rhs = (legitimate(*args_a, d1, d2)
                   + legitimate(*swapped, d1, d2)
                   - legitimate(*zeroed, d1, d2))
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_adversary_ordering(self):
        cfg = tiny_config(n_t=3)
        chan = ChannelModel(cfg).sample_batch(1, np.random.default_rng(20))
        rng = np.random.default_rng(21)
        d1 = unit_phases(rng, cfg.a1)
        d2 = unit_phases(rng, cfg.a2)
        g = adversary_cascade_set(chan, d1[None, :, None], d2[None, :, None])
        assert g.shape == (1, 1, cfg.n_r, 3)
        y1p, ep, u1p, y2p, u2p = (getattr(chan, n)[0] for n in ("y1p", "ep", "u1p", "y2p", "u2p"))
        expected = (y1p @ np.diag(d1) @ ep @ np.diag(d2) @ u2p
                    + y1p @ np.diag(d1) @ u1p
                    + y2p @ np.diag(d2) @ u2p)
        assert np.allclose(g[0, 0], expected, atol=1e-12)

    def test_legitimate_wrapper(self):
        cfg = tiny_config()
        chan = ChannelModel(cfg).sample_batch(1, np.random.default_rng(22))
        rng = np.random.default_rng(23)
        d1 = unit_phases(rng, cfg.a1)
        d2 = unit_phases(rng, cfg.a2)
        k, _ = cascade_set(chan, d1[None, :, None], d2[None, :, None])
        links = (getattr(chan, n)[0] for n in ("y2", "e", "y1", "u1", "u2"))
        assert np.allclose(k[0, 0], cascade_oracle(*links, d1, d2), atol=1e-12)


class TestNonSquareCascades:
    def setup_method(self):
        self.cfg = tiny_config(**NON_SQUARE)
        rng = np.random.default_rng(40)
        self.chan = ChannelModel(self.cfg).sample_batch(3, rng)
        self.c1 = unit_phases(rng, 3, self.cfg.a1, self.cfg.block_len)
        self.c2 = unit_phases(rng, 3, self.cfg.a2, self.cfg.block_len)

    def per_symbol(self):
        """(block, symbol, diag(psi1), diag(psi2), that block's link matrices)."""
        for b in range(len(self.chan)):
            links = {name: getattr(self.chan, name)[b] for name in LINK_ENDS}
            for i in range(self.cfg.block_len):
                yield b, i, np.diag(self.c1[b, :, i]), np.diag(self.c2[b, :, i]), links

    def test_legitimate_aggregate_per_symbol(self):
        cfg = self.cfg
        k, m = cascade_set(self.chan, self.c1, self.c2)
        assert k.shape == (3, cfg.block_len, cfg.n_r, cfg.n_t)
        assert m.shape == (3, cfg.a2, cfg.block_len, cfg.n_t)
        for b, i, d1, d2, c in self.per_symbol():
            expected = (c["y2"] @ d2 @ c["e"] @ d1 @ c["u1"]
                        + c["y1"] @ d1 @ c["u1"]
                        + c["y2"] @ d2 @ c["u2"])
            assert np.allclose(k[b, i], expected, atol=1e-12)
            assert np.allclose(m[b, :, i], c["e"] @ d1 @ c["u1"] + c["u2"], atol=1e-12)

    def test_adversary_aggregate_per_symbol(self):
        cfg = self.cfg
        g = adversary_cascade_set(self.chan, self.c1, self.c2)
        assert g.shape == (3, cfg.block_len, cfg.n_r, cfg.n_t)
        for b, i, d1, d2, c in self.per_symbol():
            expected = (c["y1p"] @ d1 @ c["ep"] @ d2 @ c["u2p"]
                        + c["y1p"] @ d1 @ c["u1p"]
                        + c["y2p"] @ d2 @ c["u2p"])
            assert np.allclose(g[b, i], expected, atol=1e-12)

    def test_double_channel_perturbation_per_symbol(self):
        cfg = self.cfg
        p_adv = crand(np.random.default_rng(41), cfg.n_t)
        attack = AttackApplication("double", p_adv=p_adv)
        got, applied = attack.received_perturbation(cfg, self.chan, self.c1, self.c2, None)
        assert got.shape == (3, cfg.n_r, cfg.block_len)
        g = adversary_cascade_set(self.chan, self.c1, self.c2)
        assert np.array_equal(applied, g)  # the aggregates it went through
        for b, i, *_ in self.per_symbol():
            assert np.allclose(got[b, :, i], g[b, i] @ p_adv, atol=1e-12)


class TestStatisticalInvariants:
    def test_steering_modulus_via_model(self):
        cfg = tiny_config()
        model = ChannelModel(cfg)
        los = model._los_batch("u1", *los_angles(50, np.random.default_rng(24)))
        assert np.allclose(np.abs(los), 1.0, atol=1e-12)

    @pytest.mark.usefixtures("pure_nlos")
    def test_nlos_second_moment_through_model(self):
        # KAPPA = 0 isolates the NLoS part; correlations give unit diagonal so
        # the Frobenius second moment stays N1 * N2.
        cfg = tiny_config()
        model = ChannelModel(cfg)
        batch = model.sample_batch(10_000, np.random.default_rng(25))
        mean_sq = np.mean(np.abs(batch.u1) ** 2 * batch.u1.shape[1] * batch.u1.shape[2],)
        assert mean_sq == pytest.approx(cfg.a1 * cfg.n_t, rel=0.05)
