"""Projection, mapping and search-contract tests for the attack module."""

from pathlib import Path

import numpy as np
import pytest

import risae.attack
import risae.autoencoder
import risae.neural
from risae.attack import (
    SEARCH_PROBES,
    AttackBudget,
    AttackResult,
    AttackSettings,
    PerturbationVector,
    enforce_power,
    export_perturbation,
    load_perturbation,
    pgd_minimal_perturbation,
    project_band,
    receiver_to_transmit,
    rmaef,
    rmaep,
)
from risae.autoencoder import (
    adversary_cascade_set,
    build_autoencoder,
    jamming,
    pipeline_forward,
    random_message_blocks,
)
from risae.channel import ChannelModel, crandn
from risae.config import SystemConfig
from risae.errors import AllTargetsFailed, InvariantViolation, NoProgress
from risae.harness import attack_vector, desk_preset, load_system, make_budget, snr_to_sigma2
from risae.neural import KERNEL_SIZE, BatchNorm, Conv1D, Network, PowerNorm, ReLU, Softmax

REFERENCE_CKPT = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "desk-seed7.ckpt"


def tiny_config(**kwargs) -> SystemConfig:
    base = dict(n_t=2, n_r=2, a1_v=1, a1_h=2, a2_v=1, a2_h=2, m=4, block_len=3,
                num_scatterers=3, hidden_width=8, sigma2=0.1)
    base.update(kwargs)
    return SystemConfig(**base)


def crand(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestAttackBudget:
    def test_linear_conversion(self):
        budget = AttackBudget(psr_db=-7.0, reference_power=1.0)
        assert budget.linear == pytest.approx(10 ** (-0.7))

    def test_reference_scaling(self):
        assert AttackBudget(-3.0, reference_power=4.0).linear == pytest.approx(4.0 * 10 ** (-0.3))

    def test_rejects_nonpositive_reference(self):
        with pytest.raises(ValueError):
            AttackBudget(-7.0, reference_power=0.0)

    def test_rejects_nan_reference(self):
        with pytest.raises(ValueError):
            AttackBudget(-7.0, reference_power=np.nan)


class TestPerturbationVector:
    def test_budget_invariant(self):
        PerturbationVector(np.array([0.1 + 0.1j, 0.0]), budget=0.1)
        with pytest.raises(InvariantViolation):
            PerturbationVector(np.array([1.0 + 0j, 1.0]), budget=0.1)

    def test_nan_value_breaks_the_budget(self):
        with pytest.raises(InvariantViolation):
            PerturbationVector(np.array([complex(np.nan, 0.0), 0.0]), budget=0.1)

    @pytest.mark.parametrize("budget", np.logspace(-12, 30, 22))
    def test_budget_checked_relative_to_its_size(self, budget):
        # an absolute tolerance of 1e-9 refused draws rescaled onto a budget
        # of 4e7 (psr_db = 45) by rounding, and accepted 100 times a budget
        # of 1e-12
        draws = jamming(budget, 64, 8, np.random.default_rng(3))
        for values in draws:
            PerturbationVector(values, budget=budget)
            with pytest.raises(InvariantViolation):
                PerturbationVector(values * np.sqrt(1.0 + 1e-6), budget=budget)

    @pytest.mark.parametrize("budget", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_budget(self, budget):
        with pytest.raises(ValueError, match="budget must be finite"):
            PerturbationVector(np.array([0.1 + 0j]), budget=budget)


def band_oracle(w_adv, w, beta):
    """One row of the band clamp by the three-branch definition."""
    low, up = w - beta, w + beta
    if np.linalg.norm(w_adv) < np.linalg.norm(low):
        return low
    if np.linalg.norm(w_adv) > np.linalg.norm(up):
        return up
    return w_adv


class TestProjectBall:
    def test_inside_band_unchanged(self):
        # beta aligned with w guarantees ||w - beta|| < ||w|| < ||w + beta||
        rng = np.random.default_rng(0)
        w = crand(rng, 1, 2, 3)
        beta = 0.01 * w
        w_adv = w.copy()
        assert np.array_equal(project_band(w_adv, w, beta), w_adv)

    def test_lower_clamp(self):
        rng = np.random.default_rng(1)
        w = crand(rng, 1, 2, 2)
        beta = 0.1 * crand(rng, 1, 2, 2)
        out = project_band(np.zeros_like(w), w, beta)
        assert np.array_equal(out, w - beta)

    def test_randomized_three_branch_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            w = crand(rng, 1, 3)
            beta = rng.uniform(0.01, 2.0) * crand(rng, 1, 3)
            w_adv = rng.uniform(0.0, 3.0) * crand(rng, 1, 3)
            expected = band_oracle(w_adv[0], w[0], beta[0])
            assert np.array_equal(project_band(w_adv, w, beta)[0], expected)

    def test_batch_rows_clamp_independently(self):
        # rows chosen to hit all three branches in one call
        rng = np.random.default_rng(3)
        w = crand(rng, 3, 2, 4)
        beta = 0.1 * w
        w_adv = np.stack([0.5 * w[0], w[1], 2.0 * w[2]])
        out = project_band(w_adv, w, beta)
        assert np.array_equal(out[0], w[0] - beta[0])
        assert np.array_equal(out[1], w_adv[1])
        assert np.array_equal(out[2], w[2] + beta[2])
        for b in range(3):
            assert np.array_equal(out[b], band_oracle(w_adv[b], w[b], beta[b]))


class TestEnforcePower:
    def test_in_budget_unchanged(self):
        p = np.array([0.1 + 0.0j, 0.2j])
        assert enforce_power(p, 1.0) is p

    def test_rescale_to_budget(self):
        rng = np.random.default_rng(3)
        p = 10.0 * crand(rng, 5)
        out = enforce_power(p, 0.3)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(0.3, abs=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        p = 10.0 * crand(rng, 5)
        once = enforce_power(p, 0.3)
        twice = enforce_power(once, 0.3)
        assert np.allclose(once, twice, atol=1e-12)


class TestJamming:
    def test_exact_budget_norm(self):
        rng = np.random.default_rng(5)
        for budget in (0.01, 0.2, 3.0):
            powers = np.sum(np.abs(jamming(budget, 4, 8, rng)) ** 2, axis=1)
            assert powers == pytest.approx(np.full(4, budget), rel=1e-12)

    def test_directions_are_isotropic(self):
        rng = np.random.default_rng(6)
        draws = jamming(1.0, 1000, 32, rng)
        gram = np.abs(draws @ draws.conj().T)
        off_diag = gram[~np.eye(1000, dtype=bool)]
        assert off_diag.mean() < 0.25


def trace_ridge(g):
    """ls_solve's ridge: 1e-8 tr(G^H G)/dim."""
    return 1e-8 * np.linalg.norm(g) ** 2 / g.shape[1]


class TestReceiverToTransmit:
    def test_identity_channel_returns_average(self):
        rng = np.random.default_rng(7)
        ptilde = crand(rng, 3, 5)
        out = receiver_to_transmit(None, ptilde)
        assert np.allclose(out, ptilde.mean(axis=1))

    def test_identity_matrices_shrink_the_average_by_the_ridge(self):
        # (I + lambda I) p = pbar
        rng = np.random.default_rng(8)
        ptilde = crand(rng, 3, 4)
        g_set = np.broadcast_to(np.eye(3), (4, 3, 3))
        out = receiver_to_transmit(g_set, ptilde)
        ridge = trace_ridge(np.eye(3))
        assert ridge > 0.0
        assert np.allclose(out, ptilde.mean(axis=1) / (1.0 + ridge), rtol=1e-12, atol=1e-12)

    @staticmethod
    def assert_ridge_normal_equation(g_set, ptilde, p):
        # the regularized normal equation G^H (G p - pbar) = -lambda p
        gbar = g_set.mean(axis=0)
        pbar = ptilde.mean(axis=1)
        residual = gbar.conj().T @ (gbar @ p - pbar) + trace_ridge(gbar) * p
        assert np.linalg.norm(residual) <= 1e-9

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            g_set = crand(rng, 4, 6, 3)
            ptilde = crand(rng, 6, 4)
            self.assert_ridge_normal_equation(g_set, ptilde, receiver_to_transmit(g_set, ptilde))

    def test_normal_equation_residual_on_adversary_cascade(self):
        # g_set as the attacks pass it: one block of adversary_cascade_set,
        # whose symbol mean is not C-contiguous
        cfg = tiny_config()
        rng = np.random.default_rng(12)
        nets = build_autoencoder(cfg, rng)
        chan = ChannelModel(cfg).sample_batch(8, rng)
        blocks, _ = random_message_blocks(cfg, 8, rng)
        rec = pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2, rng=rng)
        for g_set in adversary_cascade_set(chan, rec.c1, rec.c2):
            ptilde = crand(rng, cfg.n_r, cfg.block_len)
            p = receiver_to_transmit(g_set, ptilde)
            assert p.shape == (cfg.n_t,)
            self.assert_ridge_normal_equation(g_set, ptilde, p)

    def test_rank_deficient_with_the_ridge(self):
        rng = np.random.default_rng(10)
        col = crand(rng, 4, 1)
        gbar = np.hstack([col, col])
        out = receiver_to_transmit(gbar[None], crand(rng, 4)[:, None])
        assert np.all(np.isfinite(out))


def linear_toy_decoder(bias=0.0):
    """Two-class decoder that reads only Re(r): logits (2 Re r + bias,
    -2 Re r - bias), so the boundary lies at Re(r) = -bias / 2. Only the
    kernel's centre tap is nonzero, so each symbol is decoded alone."""
    conv = Conv1D(4, 2, np.random.default_rng(0))
    conv.weight = np.zeros((2, 4, KERNEL_SIZE))
    conv.weight[0, 0, KERNEL_SIZE // 2] = 2.0
    conv.weight[1, 0, KERNEL_SIZE // 2] = -2.0
    conv.bias = np.array([bias, -bias])
    return Network([conv, Softmax()])


def ray_flips_to_target(decoder, w, k_set, p_add, target):
    """Whether w - p_add decodes to a changed decision whose majority is
    target, on a one-symbol toy block."""
    def decide(r):
        d_in = np.array([r[0, 0].real, r[0, 0].imag,
                         k_set[0, 0, 0].real, k_set[0, 0, 0].imag]).reshape(1, 4, 1)
        return decoder.forward(d_in)[0][0].argmax(axis=0)

    flipped = decide(w - p_add)
    return (flipped == target).sum() * 2 > flipped.size and (flipped != decide(w)).any()


def counting_gradient_rows(monkeypatch) -> list[int]:
    """The row count of every decoder input gradient the attacks take from
    here on, in call order."""
    rows = []
    gradient = risae.attack.decoder_input_gradient
    monkeypatch.setattr(risae.attack, "decoder_input_gradient",
                        lambda decoder, cfg, d_input, targets:
                        rows.append(len(d_input)) or gradient(decoder, cfg, d_input, targets))
    return rows


def toy_cfg():
    return SystemConfig(n_t=1, n_r=1, a1_v=1, a1_h=1, a2_v=1, a2_h=1, m=2,
                        block_len=1, num_scatterers=1, hidden_width=4, sigma2=0.1)


class TestPgdMinimalPerturbation:
    def test_linear_toy_matches_analytic_margin(self):
        decoder = linear_toy_decoder()
        cfg = toy_cfg()
        w = np.array([[1.3 + 0.4j]])
        k_set = np.array([[[0.7 + 0.2j]]])
        pgd = AttackSettings(n_p=1, n_s=1)
        p_add = pgd_minimal_perturbation(decoder, cfg, w, k_set, pgd)
        # p_add is the flipping radius along a unit gradient
        assert p_add.shape == w.shape
        assert abs(np.linalg.norm(p_add) - 1.3) <= 2e-3
        assert ray_flips_to_target(decoder, w, k_set, p_add, target=1)

    def test_flip_contract_and_probe_count(self, monkeypatch):
        decoder = linear_toy_decoder()
        cfg = toy_cfg()
        w = np.array([[0.9 - 0.2j]])
        k_set = np.array([[[0.5 + 0.1j]]])
        pgd = AttackSettings(n_p=1, n_s=1)
        rows = counting_gradient_rows(monkeypatch)
        p_add = pgd_minimal_perturbation(decoder, cfg, w, k_set, pgd)
        assert rows == [cfg.m] * (1 + SEARCH_PROBES * pgd.n_s)
        assert np.linalg.norm(p_add) <= 2.0 * np.abs(w).item()
        # w - p_add flips the decision to the other class
        assert ray_flips_to_target(decoder, w, k_set, p_add, target=1)

    def test_all_targets_failed(self, monkeypatch):
        # the boundary Re(r) = -2.5 lies 3.8 from w, past the radius 2 ||w|| = 2.6
        decoder = linear_toy_decoder(bias=5.0)
        cfg = toy_cfg()
        w = np.array([[1.3 + 0.0j]])
        k_set = np.array([[[0.5 + 0.0j]]])
        pgd = AttackSettings(n_p=1, n_s=1)
        rows = counting_gradient_rows(monkeypatch)
        with pytest.raises(AllTargetsFailed):
            pgd_minimal_perturbation(decoder, cfg, w, k_set, pgd)
        # a failed search spends as much as one that flips
        assert sum(rows) == cfg.m * (1 + SEARCH_PROBES * pgd.n_s) == 22

    def test_gradient_evaluation_bound(self, monkeypatch):
        cfg = tiny_config()
        nets = build_autoencoder(cfg, np.random.default_rng(12))
        rng = np.random.default_rng(14)
        chan = ChannelModel(cfg).sample_batch(1, rng)
        blocks, _ = random_message_blocks(cfg, 1, rng)
        rec = pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2, rng=rng)
        w = rec.r[0]
        pgd = AttackSettings(n_p=1, n_s=2)
        rows = counting_gradient_rows(monkeypatch)
        try:
            pgd_minimal_perturbation(nets.decoder, cfg, w, rec.k[0], pgd)
        except AllTargetsFailed:
            pytest.skip("random system produced no flip for this seed")
        assert rows == [cfg.m] * (1 + SEARCH_PROBES * pgd.n_s)

    @pytest.mark.parametrize("n_s", [1, 3])
    @pytest.mark.parametrize("bias", [0.0, 5.0], ids=["flips", "fails"])
    def test_one_decoder_forward_per_gradient_batch(self, n_s, bias, monkeypatch):
        # The clean and per-probe decisions come from the forwards that
        # already compute the gradients: 1 + probes * n_s forwards per search.
        decoder = linear_toy_decoder(bias)
        forwards = []
        original = decoder.forward
        monkeypatch.setattr(decoder, "forward",
                            lambda x, record=False: forwards.append(len(x)) or original(x, record))
        cfg = toy_cfg()
        w = np.array([[1.3 + 0.4j]])
        k_set = np.array([[[0.7 + 0.2j]]])
        pgd = AttackSettings(n_p=1, n_s=n_s)
        try:
            p_add = pgd_minimal_perturbation(decoder, cfg, w, k_set, pgd)
        except AllTargetsFailed:
            p_add = None
        assert forwards == [cfg.m] * (1 + SEARCH_PROBES * n_s)
        assert (p_add is None) == (bias > 0.0)
        assert p_add is None or ray_flips_to_target(decoder, w, k_set, p_add, target=1)

    def test_binary_search_interval_width(self, monkeypatch):
        decoder = linear_toy_decoder()
        cfg = toy_cfg()
        w = np.array([[0.6 + 0.3j]])
        k_set = np.array([[[0.4 - 0.6j]]])
        pgd = AttackSettings(n_p=1, n_s=1)
        rows = counting_gradient_rows(monkeypatch)
        p_add = pgd_minimal_perturbation(decoder, cfg, w, k_set, pgd)
        assert rows == [cfg.m] * (1 + SEARCH_PROBES * pgd.n_s)
        # the interval left after the probes, radius / 2^probes, is at most
        # 1e-3 of the radius, and holds the 0.6 margin from above
        radius = 2.0 * np.abs(w).item()
        assert 2.0 ** -SEARCH_PROBES <= 1e-3
        assert 0.6 < np.linalg.norm(p_add) <= 0.6 + radius / 2 ** SEARCH_PROBES


class TestUniversalAttacks:
    def _system(self, seed=14):
        cfg = tiny_config()
        nets = build_autoencoder(cfg, np.random.default_rng(seed))
        return cfg, nets

    @pytest.mark.parametrize("mode", ["double", "ideal"])
    def test_rmaep_budget_and_bookkeeping(self, attackable_tiny, mode):
        cfg, nets = attackable_tiny[0].system, attackable_tiny[1]
        budget = AttackBudget(-7.0, reference_power=cfg.power)
        pgd = AttackSettings(n_p=4, n_s=2, channel_mode=mode)
        result = rmaep(nets, cfg, budget, pgd, np.random.default_rng(15), channel_mode=mode)
        assert result.flips_found >= 1
        assert 0.0 < result.perturbation.power <= budget.linear + 1e-9
        assert result.iterations == 4
        assert result.flips_found + result.already_broken <= result.iterations
        expected_dim = cfg.n_r if mode == "ideal" else cfg.n_t
        assert result.perturbation.values.shape == (expected_dim,)

    def test_rmaep_double_maps_flips_to_transmit_domain(self, attackable_tiny, monkeypatch):
        """On a briefly trained system the probes decode cleanly, so rmaep
        reaches the search and maps each flip back through the double-RIS
        adversary channel. Before as_matrix accepted non-contiguous matrices
        this raised ValueError in receiver_to_transmit; an untrained network
        breaks every probe and never gets that far. The mapping reads the
        aggregates the probe's forward applied, which must give the vector
        that aggregates built again for the mapping give."""
        cfg, nets = attackable_tiny[0].system, attackable_tiny[1]
        budget = AttackBudget(-7.0, reference_power=cfg.power)
        pgd = AttackSettings(n_p=8, n_s=2, channel_mode="double")
        result = rmaep(nets, cfg, budget, pgd, np.random.default_rng(32), channel_mode="double")
        assert result.flips_found >= 1
        assert result.perturbation.power <= budget.linear + 1e-9
        assert result.perturbation.values.shape == (cfg.n_t,)

        forward = risae.attack.pipeline_forward

        def rebuilding(*args, **kwargs):
            rec = forward(*args, **kwargs)
            rec.g = adversary_cascade_set(rec.chan, rec.c1, rec.c2)
            return rec

        monkeypatch.setattr(risae.attack, "pipeline_forward", rebuilding)
        again = rmaep(nets, cfg, budget, pgd, np.random.default_rng(32), channel_mode="double")
        assert np.array_equal(again.perturbation.values, result.perturbation.values)

    def test_rmaep_builds_one_adversary_aggregate_per_probe(self, monkeypatch):
        # The desk construction on the double channel (reference checkpoint,
        # master seed 7, 8 dB): 6 of its 50 probes reach the search, and
        # each used to build the aggregate its forward had built once more.
        # Every search fails there, so the vector is zero.
        cfg = desk_preset(7)
        cfg.attack.channel_mode = "double"
        nets = load_system(REFERENCE_CKPT, cfg)
        sys_cfg = cfg.system.replace(sigma2=snr_to_sigma2(cfg.system.power, 8.0))
        budget = make_budget(cfg, sys_cfg, nets, "double")
        calls = []
        build = risae.autoencoder.adversary_cascade_set
        monkeypatch.setattr(risae.autoencoder, "adversary_cascade_set",
                            lambda *args: calls.append(1) or build(*args))
        with pytest.warns(NoProgress):
            result = attack_vector(cfg, sys_cfg, nets, "rmaep", 8.0, budget)
        assert result.skipped == 6
        assert len(calls) == result.iterations == 50

    def test_rmaep_counts_gradients_of_failed_searches(self, monkeypatch):
        # an untrained m=2, block_len=1 system decodes about half the probes;
        # every search that runs fails, and counts as the m (1 + probes n_s)
        # decoder gradient rows a real one takes
        cfg = tiny_config(m=2, block_len=1)
        nets = build_autoencoder(cfg, np.random.default_rng(40))
        searches = []

        def failing(*args):
            searches.append(args)
            raise AllTargetsFailed("stub search")

        monkeypatch.setattr(risae.attack, "pgd_minimal_perturbation", failing)
        pgd = AttackSettings(n_p=8, n_s=2, channel_mode="ideal")
        result = rmaep(nets, cfg, AttackBudget(-7.0, reference_power=cfg.power), pgd,
                       np.random.default_rng(41), channel_mode="ideal")
        assert result.skipped == len(searches) >= 1 and result.flips_found == 0
        assert result.skipped + result.already_broken == pgd.n_p
        assert result.grad_evals == len(searches) * cfg.m * (1 + SEARCH_PROBES * pgd.n_s)
        assert not result.perturbation.values.any()

    def test_reported_gradients_are_the_rows_requested(self, monkeypatch):
        # The desk constructions on the ideal channel (reference checkpoint,
        # master seed 7, 8 dB): rmaep finds 1 flip, skips 2 probes and finds
        # 47 already broken, so its 3 searches take 3 * 16 * 201 = 9,648
        # rows; rmaef takes one gradient row per probe.
        cfg = desk_preset(7)
        nets = load_system(REFERENCE_CKPT, cfg)
        sys_cfg = cfg.system.replace(sigma2=snr_to_sigma2(cfg.system.power, 8.0))
        budget = make_budget(cfg, sys_cfg, nets, "ideal")
        rows = counting_gradient_rows(monkeypatch)
        results = {}
        for kind in ("rmaep", "rmaef"):
            start = len(rows)
            results[kind] = attack_vector(cfg, sys_cfg, nets, kind, 8.0, budget)
            assert results[kind].grad_evals == sum(rows[start:]), kind
        rmaep_result = results["rmaep"]
        assert (rmaep_result.flips_found, rmaep_result.skipped,
                rmaep_result.already_broken) == (1, 2, 47)
        assert (rmaep_result.grad_evals, results["rmaef"].grad_evals) == (9648, 50)

    def test_rmaep_vector_stays_zero_when_every_probe_is_already_broken(self):
        # an untrained system decodes no probe cleanly, so no search runs and
        # the vector stays zero
        cfg, nets = self._system()
        pgd = AttackSettings(n_p=4, n_s=1, channel_mode="ideal")
        result = rmaep(nets, cfg, AttackBudget(-7.0, reference_power=cfg.power), pgd,
                       np.random.default_rng(15), channel_mode="ideal")
        assert result.already_broken == pgd.n_p
        assert not result.perturbation.values.any()

    def test_result_accounts_for_every_probe(self):
        vector = PerturbationVector(np.zeros(2, dtype=complex), budget=1.0)
        result = AttackResult(vector, iterations=5, flips_found=2, already_broken=1,
                              skipped=2, grad_evals=0)
        assert result.flips_found + result.already_broken == 3
        with pytest.raises(InvariantViolation):
            AttackResult(vector, iterations=5, flips_found=2, already_broken=1,
                         skipped=1, grad_evals=0)

    def test_rmaep_grad_eval_bound(self, attackable_tiny):
        cfg, nets = attackable_tiny[0].system, attackable_tiny[1]
        budget = AttackBudget(-7.0, reference_power=cfg.power)
        pgd = AttackSettings(n_p=3, n_s=2, channel_mode="ideal")
        result = rmaep(nets, cfg, budget, pgd, np.random.default_rng(17), channel_mode="ideal")
        assert result.flips_found >= 1
        assert result.grad_evals <= pgd.n_p * cfg.m * (1 + SEARCH_PROBES * pgd.n_s)

    def test_rmaep_vanishing_budget(self):
        cfg, nets = self._system(seed=18)
        budget = AttackBudget(-200.0, reference_power=cfg.power)
        pgd = AttackSettings(n_p=2, n_s=1, channel_mode="ideal")
        result = rmaep(nets, cfg, budget, pgd, np.random.default_rng(19), channel_mode="ideal")
        assert result.perturbation.power <= budget.linear + 1e-9
        assert result.perturbation.power < 1e-19

    @pytest.mark.parametrize("mode", ["double", "ideal"])
    def test_rmaef_budget(self, mode):
        cfg, nets = self._system(seed=20)
        budget = AttackBudget(-7.0, reference_power=cfg.power)
        pgd = AttackSettings(n_p=5, n_s=1, channel_mode=mode)
        result = rmaef(nets, cfg, budget, pgd, np.random.default_rng(21), channel_mode=mode)
        assert result.perturbation.power <= budget.linear + 1e-9
        assert result.grad_evals == 5

    def test_rmaef_double_maps_steps_to_transmit_domain(self, attackable_tiny, monkeypatch):
        """rmaef maps each gradient step through the aggregates its forward
        applied, which must give the vector that aggregates built again for
        the mapping give; the identity mapping gives another vector of the
        same shape (the system has n_r = n_t)."""
        cfg, nets = attackable_tiny[0].system, attackable_tiny[1]
        budget = AttackBudget(-7.0, reference_power=cfg.power)
        pgd = AttackSettings(n_p=4, n_s=1, channel_mode="double")
        result = rmaef(nets, cfg, budget, pgd, np.random.default_rng(33), channel_mode="double")
        assert result.flips_found >= 1

        forward, mapping = risae.attack.pipeline_forward, risae.attack.receiver_to_transmit
        recs = []
        monkeypatch.setattr(risae.attack, "pipeline_forward",
                            lambda *args, **kwargs: recs.append(forward(*args, **kwargs))
                            or recs[-1])
        monkeypatch.setattr(risae.attack, "receiver_to_transmit", lambda g_set, ptilde: mapping(
            adversary_cascade_set(recs[-1].chan, recs[-1].c1, recs[-1].c2)[0], ptilde))
        again = rmaef(nets, cfg, budget, pgd, np.random.default_rng(33), channel_mode="double")
        assert np.array_equal(again.perturbation.values, result.perturbation.values)

    @pytest.mark.parametrize("construction", ["pgd_search", "rmaef"])
    def test_attack_gradients_compute_no_weight_gradients(self, construction, monkeypatch):
        # The attacks descend on the decoder's input gradient only: no layer
        # returns a parameter gradient, and Conv1D rebuilds no im2col matrix
        # for a weight gradient: every _im2col call is a forward's, or the
        # one of an input gradient.
        counts = {"backward": 0, "param_grads": 0, "im2col": 0, "conv_forward": 0,
                  "conv_backward": 0}
        for cls in (Conv1D, BatchNorm, ReLU, Softmax, PowerNorm):
            def counting(self, cache, gy, *args, _original=cls.backward, _cls=cls, **kwargs):
                gx, grads = _original(self, cache, gy, *args, **kwargs)
                counts["backward"] += 1
                counts["conv_backward"] += _cls is Conv1D
                counts["param_grads"] += len(grads)
                return gx, grads
            monkeypatch.setattr(cls, "backward", counting)
        im2col, conv_forward = risae.neural._im2col, Conv1D.forward

        def counting_im2col(cols):
            counts["im2col"] += 1
            return im2col(cols)

        def counting_conv_forward(self, x):
            counts["conv_forward"] += 1
            return conv_forward(self, x)

        monkeypatch.setattr(risae.neural, "_im2col", counting_im2col)
        monkeypatch.setattr(Conv1D, "forward", counting_conv_forward)
        cfg, nets = self._system(seed=24)
        rng = np.random.default_rng(25)
        if construction == "rmaef":
            rmaef(nets, cfg, AttackBudget(-7.0, reference_power=cfg.power),
                  AttackSettings(n_p=3, n_s=1), rng, channel_mode="ideal")
        else:
            chan = ChannelModel(cfg).sample_batch(1, rng)
            blocks, _ = random_message_blocks(cfg, 1, rng)
            rec = pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2, rng=rng)
            try:
                pgd_minimal_perturbation(nets.decoder, cfg, rec.r[0], rec.k[0],
                                         AttackSettings(n_s=2))
            except AllTargetsFailed:
                pass
        assert counts["backward"] > 0
        assert counts["param_grads"] == 0
        assert counts["conv_forward"] > 0 and counts["conv_backward"] > 0
        assert counts["im2col"] == counts["conv_forward"] + counts["conv_backward"]

    def test_export_round_trip(self, tmp_path):
        cfg, nets = self._system(seed=22)
        budget = AttackBudget(-7.0, reference_power=cfg.power)
        result = rmaef(nets, cfg, budget, AttackSettings(n_p=3, n_s=1, channel_mode="double"),
                       np.random.default_rng(23), channel_mode="double")
        path = tmp_path / "perturbation.csv"
        export_perturbation(path, result.perturbation, "double", psr_db=-7.0,
                            scatterers=cfg.num_scatterers)
        loaded, meta = load_perturbation(path)
        assert np.array_equal(loaded.values, result.perturbation.values)
        assert meta["psr_db"] == -7.0
        assert meta["channel_mode"] == "double"
        assert meta["scatterers"] == cfg.num_scatterers
        assert type(meta["scatterers"]) is int and type(meta["dimension"]) is int

    def test_export_round_trip_keeps_signed_zeros(self, tmp_path):
        vector = PerturbationVector(np.array([complex(-0.0, 0.5), complex(1.5, -0.0)]), 3.0)
        path = tmp_path / "perturbation.csv"
        export_perturbation(path, vector, "ideal", psr_db=-7.0, scatterers=9)
        loaded, _ = load_perturbation(path)
        for part in ("real", "imag"):
            assert np.array_equal(np.signbit(getattr(loaded.values, part)),
                                  np.signbit(getattr(vector.values, part))), part

    @pytest.mark.parametrize("text", [
        "",
        "# risae perturbation v1\n",
        "# risae perturbation v1\n# psr_db=-7 budget=1 channel_mode=ideal dimension=1\n",
        "# some other file\n# psr_db=-7\nre,im\n1,0\n",
        "# risae perturbation v1\n# psr_db=-7 channel_mode=ideal dimension=1\nre,im\n1,0\n",
        "# risae perturbation v1\n# psr_db=-7 budget=1 channel_mode=ideal dimension=2\n"
        "re,im\n1,0\n",
        "# risae perturbation v1\n# psr_db=-7 budget=nan channel_mode=ideal dimension=1\n"
        "re,im\n0,0\n",
        "# risae perturbation v1\n# psr_db=-7 budget=1 channel_mode=ideal dimension=2\n"
        "re,im\nnan,0\n0,0\n",
        "# risae perturbation v1\n# psr_db=-7 budget=1 channel_mode=ideal dimension=2\n"
        "re,im\n0,0\ninf,1\n",
        "# risae perturbation v1\n# psr_db=-7 budget=1 channel_mode=ideal dimension=1.0\n"
        "re,im\n0,0\n",
        "# risae perturbation v1\n# psr_db=-7 budget=1 channel_mode=ideal scatterers=3.5 "
        "dimension=1\nre,im\n0,0\n",
        "# risae perturbation v1\n# psr_db=-7 budget=1 channel_mode=ideal dimension\n"
        "re,im\n0,0\n",
    ], ids=["empty", "header-only", "no-column-line", "foreign", "no-budget", "rows-short",
            "nan-budget", "nan-value", "inf-value", "float-dimension", "float-scatterers",
            "token-without-value"])
    def test_load_rejects_truncated_or_foreign_file(self, tmp_path, text):
        path = tmp_path / "perturbation.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="not a perturbation file"):
            load_perturbation(path)
