"""End-to-end pipeline tests: composition, gradients, training, evaluation."""

import numpy as np
import pytest

from risae import autoencoder
from risae.autoencoder import (
    AttackApplication,
    build_autoencoder,
    cascade_set,
    channels_to_complex,
    complex_to_channels,
    decoder_input_gradient,
    estimate_received_power,
    evaluate_ser,
    one_hot_blocks,
    pack_decoder_input,
    pipeline_backward,
    pipeline_forward,
    pipeline_loss,
    random_message_blocks,
    train,
    transmit_forward,
    wilson_interval,
)
from risae.channel import ChannelModel, crandn
from risae.config import SystemConfig
from risae.errors import Diverged, InvariantViolation, MissingRecord, ShapeMismatch
from risae.neural import log_loss


def tiny_config(**kwargs) -> SystemConfig:
    base = dict(n_t=2, n_r=2, a1_v=1, a1_h=2, a2_v=1, a2_h=2, m=4, block_len=3,
                num_scatterers=3, hidden_width=4, sigma2=0.1)
    base.update(kwargs)
    return SystemConfig(**base)


# n_t, n_r, n_adv, a1 = 5, a2 = 6 and L all differ, so a transposed link or a
# swapped axis cannot pass
NON_SQUARE = dict(n_t=2, n_r=3, n_adv=4, a1_v=1, a1_h=5, a2_v=2, a2_h=3, block_len=7)


def make_system(seed=0, **kwargs):
    cfg = tiny_config(**kwargs)
    nets = build_autoencoder(cfg, np.random.default_rng(seed))
    return cfg, nets


def noise_draw(cfg, batch, seed):
    """The noise pipeline_forward draws first from default_rng(seed)."""
    return np.sqrt(cfg.sigma2) * crandn(np.random.default_rng(seed),
                                        (batch, cfg.n_r, cfg.block_len))


def one_block(cfg, nets, rng, blocks=None, **kwargs):
    """pipeline_forward on one block (B = 1) with a freshly sampled channel."""
    chan = ChannelModel(cfg).sample_batch(1, rng)
    if blocks is None:
        blocks, _ = random_message_blocks(cfg, 1, rng)
    kwargs.setdefault("sigma2", cfg.sigma2)
    return pipeline_forward(nets, cfg, blocks, chan, rng=rng, **kwargs)


class TestEncode:
    def test_output_shape(self):
        cfg, nets = make_system()
        blocks = one_hot_blocks(np.array([[0, 1, 2]]), cfg.m)
        rec = one_block(cfg, nets, np.random.default_rng(0), blocks)
        assert rec.o.shape == (1, cfg.n_t, cfg.block_len)
        assert rec.o.dtype == np.complex128

    def test_deterministic(self):
        cfg, nets = make_system()
        blocks = one_hot_blocks(np.array([[3, 1, 0]]), cfg.m)
        first = one_block(cfg, nets, np.random.default_rng(0), blocks)
        second = one_block(cfg, nets, np.random.default_rng(1), blocks)
        assert np.array_equal(first.o, second.o)

    def test_power_invariant(self):
        cfg, nets = make_system()
        rng = np.random.default_rng(1)
        for _ in range(10):
            rec = one_block(cfg, nets, rng)
            assert np.mean(np.abs(rec.o[0]) ** 2) == pytest.approx(cfg.power ** 2, abs=1e-10)


class TestRisController:
    def test_shape_and_unit_modulus(self):
        cfg, nets = make_system()
        rec = one_block(cfg, nets, np.random.default_rng(2))
        assert rec.c1.shape == (1, cfg.a1, cfg.block_len)
        assert rec.c2.shape == (1, cfg.a2, cfg.block_len)
        assert np.allclose(np.abs(rec.c1), 1.0, atol=1e-12)
        assert np.allclose(np.abs(rec.c2), 1.0, atol=1e-12)

    def test_ris2_incident_matches_direct_formula(self):
        # each controller's phases, recomputed from its incident field built
        # symbol by symbol: U1 o for surface 1, (U2 + E psi1 U1) o for surface 2
        cfg, nets = make_system()
        rec = one_block(cfg, nets, np.random.default_rng(3))
        u1, u2, e = rec.chan.u1[0], rec.chan.u2[0], rec.chan.e[0]
        o = rec.o[0]
        a1 = np.stack([u1 @ o[:, i] for i in range(cfg.block_len)], axis=1)[None]
        c1 = np.exp(1j * nets.ris1.forward(complex_to_channels(a1), False)[0])
        assert np.allclose(rec.c1, c1, atol=1e-12)
        b2 = np.stack([(u2 + e @ np.diag(rec.c1[0, :, i]) @ u1) @ o[:, i]
                       for i in range(cfg.block_len)], axis=1)[None]
        c2 = np.exp(1j * nets.ris2.forward(complex_to_channels(b2), False)[0])
        assert np.allclose(rec.c2, c2, atol=1e-12)


class TestTransmit:
    def test_noiseless_exact(self):
        cfg, nets = make_system()
        rng = np.random.default_rng(4)
        chan = ChannelModel(cfg).sample_batch(1, rng)
        blocks, _ = random_message_blocks(cfg, 1, rng)
        tx = transmit_forward(nets, cfg, blocks, chan, train=False)
        k, _ = cascade_set(chan, tx.c1, tx.c2)
        for i in range(cfg.block_len):
            assert np.allclose(tx.z[0][:, i], k[0, i] @ tx.o[0][:, i], atol=1e-12)

    def test_received_signal_and_incident_field_match_aggregates(self):
        # z and the surface-2 input b2 are built without K and M; per symbol
        # they must still equal K o and M o, at a non-square system
        cfg, nets = make_system(**NON_SQUARE)
        rng = np.random.default_rng(42)
        chan = ChannelModel(cfg).sample_batch(2, rng)
        blocks, _ = random_message_blocks(cfg, 2, rng)
        rec = pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2, rng=rng)
        for b in range(2):
            for i in range(cfg.block_len):
                assert np.allclose(rec.z[b, :, i], rec.k[b, i] @ rec.o[b, :, i], atol=1e-12)
                assert np.allclose(rec.b2[b, :, i], rec.m[b, :, i] @ rec.o[b, :, i], atol=1e-12)

    def test_noise_variance(self):
        cfg, nets = make_system()
        rng = np.random.default_rng(5)
        n_blocks = 10_000 // (cfg.n_r * cfg.block_len) + 1
        chan = ChannelModel(cfg).sample_batch(n_blocks, rng)
        blocks, _ = random_message_blocks(cfg, n_blocks, rng)
        sigma2 = 0.37
        rec = pipeline_forward(nets, cfg, blocks, chan, sigma2, rng=rng)
        assert np.mean(np.abs(rec.noise) ** 2) == pytest.approx(sigma2, rel=0.05)

    def test_superposition(self):
        # the decoder receives the noiseless block plus the noise draw
        cfg, nets = make_system()
        rng = np.random.default_rng(6)
        chan = ChannelModel(cfg).sample_batch(1, rng)
        blocks, _ = random_message_blocks(cfg, 1, rng)
        noise = noise_draw(cfg, 1, seed=60)
        clean = transmit_forward(nets, cfg, blocks, chan, train=False)
        noisy = pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2,
                                 rng=np.random.default_rng(60))
        assert np.array_equal(noisy.noise, noise)
        assert np.array_equal(noisy.z, clean.z)
        received = noisy.d_input[:, :cfg.n_r] + 1j * noisy.d_input[:, cfg.n_r:2 * cfg.n_r]
        assert np.allclose(received, clean.z + noise, atol=1e-12)


class TestDecode:
    def test_columns_sum_to_one_and_argmax(self):
        cfg, nets = make_system()
        rng = np.random.default_rng(7)
        r = rng.standard_normal((1, cfg.n_r, cfg.block_len)) * (1 + 0j)
        k = rng.standard_normal((1, cfg.block_len, cfg.n_r, cfg.n_t)) * (1 + 0j)
        probs, _ = nets.decoder.forward(pack_decoder_input(r, k), train=False)
        assert np.allclose(probs[0].sum(axis=0), 1.0, atol=1e-12)
        rec = one_block(cfg, nets, rng)
        assert np.allclose(rec.probs[0].sum(axis=0), 1.0, atol=1e-12)
        assert np.array_equal(rec.decisions[0], rec.probs[0].argmax(axis=0))

    def test_packing_layout_golden(self):
        r = np.array([[[1.0 + 2.0j], [3.0 + 4.0j]]])  # (1, 2, 1)
        k = np.array([[[[5.0 + 6.0j, 7.0 + 8.0j], [9.0 + 10.0j, 11.0 + 12.0j]]]])  # (1,1,2,2)
        packed = pack_decoder_input(r, k)
        expected = np.array([1.0, 3.0, 2.0, 4.0, 5.0, 7.0, 9.0, 11.0, 6.0, 8.0, 10.0, 12.0])
        assert packed.shape == (1, 12, 1)
        assert np.array_equal(packed[0, :, 0], expected)


class TestForwardPipeline:
    def test_matches_manual_composition_bit_exactly(self):
        # stage by stage with the same kernels: encoder, U1 o, controller 1,
        # U2 o + E psi1 U1 o, controller 2, cascade_set,
        # Y1 psi1 U1 o + Y2 psi2 (U2 + E psi1 U1) o + n, decoder
        cfg, nets = make_system(seed=8)
        rng = np.random.default_rng(9)
        chan = ChannelModel(cfg).sample_batch(1, rng)
        blocks, _ = random_message_blocks(cfg, 1, rng)
        noise = noise_draw(cfg, 1, seed=90)
        out = pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2,
                               rng=np.random.default_rng(90))

        o = channels_to_complex(nets.encoder.forward(blocks, False)[0])
        a1 = chan.u1 @ o
        c1 = np.exp(1j * nets.ris1.forward(complex_to_channels(a1), False)[0])
        b2 = chan.u2 @ o + chan.e @ (c1 * a1)
        c2 = np.exp(1j * nets.ris2.forward(complex_to_channels(b2), False)[0])
        k, _ = cascade_set(chan, c1, c2)
        r = chan.y1 @ (c1 * a1) + chan.y2 @ (c2 * b2) + noise
        probs, _ = nets.decoder.forward(pack_decoder_input(r, k), False)
        assert np.array_equal(out.probs, probs)
        assert np.array_equal(out.decisions, probs.argmax(axis=1))

    def test_zero_perturbation_equals_secured(self):
        cfg, nets = make_system(seed=10)
        rng = np.random.default_rng(11)
        chan = ChannelModel(cfg).sample_batch(1, rng)
        blocks, _ = random_message_blocks(cfg, 1, rng)
        secured = pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2,
                                   rng=np.random.default_rng(110))
        for mode, dim in (("double", cfg.adversary_antennas), ("ideal", cfg.n_r)):
            attack = AttackApplication(channel_mode=mode, p_adv=np.zeros(dim, dtype=complex))
            attacked = pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2,
                                        rng=np.random.default_rng(110), attack=attack)
            assert np.array_equal(attacked.probs, secured.probs)

    def test_tiny_stubbed_trace(self):
        # scalar everything: one antenna everywhere, identity-ish channels
        cfg = SystemConfig(n_t=1, n_r=1, a1_v=1, a1_h=1, a2_v=1, a2_h=1, m=2,
                           block_len=1, num_scatterers=1, hidden_width=8, sigma2=1.0)
        nets = build_autoencoder(cfg, np.random.default_rng(12))
        rng = np.random.default_rng(13)
        chan = ChannelModel(cfg).sample_batch(1, rng)
        blocks = one_hot_blocks(np.array([[1]]), cfg.m)
        noise = noise_draw(cfg, 1, seed=130)
        out = pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2,
                               rng=np.random.default_rng(130))

        u1, u2, e, y1, y2 = (getattr(chan, n)[0, 0, 0] for n in ("u1", "u2", "e", "y1", "y2"))
        enc, _ = nets.encoder.forward(blocks, False)
        o = enc[0, 0, 0] + 1j * enc[0, 1, 0]
        g1, _ = nets.ris1.forward(np.array([[[(u1 * o).real], [(u1 * o).imag]]]), False)
        c1 = np.exp(1j * g1[0, 0, 0])
        b2 = (u2 + e * c1 * u1) * o
        g2, _ = nets.ris2.forward(np.array([[[b2.real], [b2.imag]]]), False)
        c2 = np.exp(1j * g2[0, 0, 0])
        k = y2 * c2 * e * c1 * u1 + y1 * c1 * u1 + y2 * c2 * u2
        r = k * o + noise[0, 0, 0]
        d = np.array([r.real, r.imag, k.real, k.imag])
        probs, _ = nets.decoder.forward(d.reshape(1, 4, 1), False)
        assert np.allclose(out.probs, probs, atol=1e-12)


class TestPipelineGradients:
    @pytest.mark.parametrize("loss, dims", [("bce", {}), ("ce", {}),
                                            ("bce", NON_SQUARE), ("ce", NON_SQUARE)],
                             ids=["bce", "ce", "non_square-bce", "non_square-ce"])
    def test_full_pipeline_matches_finite_differences(self, loss, dims):
        cfg, nets = make_system(seed=14, loss=loss, **dims)
        rng = np.random.default_rng(15)
        model = ChannelModel(cfg)
        chan = model.sample_batch(2, rng)
        blocks, _ = random_message_blocks(cfg, 2, rng)

        def forward():
            # a fresh generator with one seed gives every pass the same noise
            return pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2,
                                    rng=np.random.default_rng(150), train=True)

        def loss_value():
            return pipeline_loss(forward())[0]

        rec = forward()
        _, grads = pipeline_backward(nets, rec)

        step = 1e-5
        worst = 0.0
        for net_name, net in nets.as_dict().items():
            for key in net.trainable_params():
                analytic = grads[net_name][key]
                param = net.params()[key]
                fd = np.zeros_like(param)
                flat = param.ravel()
                fd_flat = fd.ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + step
                    hi = loss_value()
                    flat[i] = orig - step
                    lo = loss_value()
                    flat[i] = orig
                    fd_flat[i] = (hi - lo) / (2.0 * step)
                denom = max(np.linalg.norm(analytic), np.linalg.norm(fd), 1e-6)
                rel = np.linalg.norm(analytic - fd) / denom
                worst = max(worst, rel)
                assert rel < 1e-3, f"{net_name}/{key}: rel err {rel:.2e}"
        assert worst < 1e-3

    @pytest.mark.parametrize("loss", ["bce", "ce"])
    def test_decoder_input_gradient_is_per_sample(self, loss):
        # every rmaep and rmaef gradient comes from this: row b must be the
        # received-signal gradient of sample b's own mean loss, which a
        # weighted sum of the per-sample losses checks, weights and all
        cfg, nets = make_system(seed=35, loss=loss)
        rng = np.random.default_rng(36)
        d_input = rng.standard_normal((3, cfg.decoder_channels, cfg.block_len))
        target, _ = random_message_blocks(cfg, 3, rng)
        weights = rng.uniform(0.5, 2.0, size=3)
        _, g_r = decoder_input_gradient(nets.decoder, cfg, d_input, target)
        assert g_r.shape == (3, cfg.n_r, cfg.block_len)

        def weighted_loss(x):
            terms = log_loss(nets.decoder.forward(x, train=False)[0], target, loss)[0]
            # a column's loss: BCE averages over the classes, CE sums them
            columns = terms.sum(axis=1) if loss == "ce" else terms.mean(axis=1)
            return float(weights @ columns.mean(axis=1))

        # Re r and Im r are the first 2 n_r decoder channels
        step = 1e-6
        fd = np.zeros((3, 2 * cfg.n_r, cfg.block_len))
        for i in np.ndindex(fd.shape):
            x = d_input.copy()
            x[i] += step
            hi = weighted_loss(x)
            x[i] -= 2.0 * step
            fd[i] = (hi - weighted_loss(x)) / (2.0 * step)
        analytic = weights[:, None, None] * g_r
        fd = channels_to_complex(fd)
        assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) < 1e-6

    def test_backward_refuses_attacked_record(self):
        cfg, nets = make_system(seed=16)
        rng = np.random.default_rng(17)
        chan = ChannelModel(cfg).sample_batch(1, rng)
        blocks, _ = random_message_blocks(cfg, 1, rng)
        attack = AttackApplication(channel_mode="ideal", p_adv=np.ones(cfg.n_r, dtype=complex))
        rec = pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2, rng=rng, attack=attack)
        with pytest.raises(ValueError):
            pipeline_backward(nets, rec)

    def test_shape_validation(self):
        cfg, nets = make_system(seed=18)
        rng = np.random.default_rng(19)
        chan = ChannelModel(cfg).sample_batch(1, rng)
        with pytest.raises(ShapeMismatch):
            pipeline_forward(nets, cfg, np.zeros((1, cfg.m + 1, cfg.block_len)), chan, 0.1, rng=rng)


class TestTrain:
    def test_fixed_seed_reproduces_loss_history(self):
        cfg, _ = make_system()
        histories = []
        for _ in range(2):
            nets = build_autoencoder(cfg, np.random.default_rng(20))
            result = train(nets, cfg, num_symbols=24, epochs=3, lr=1e-3,
                           rng=np.random.default_rng(21), batch_blocks=4)
            histories.append(result.loss_history)
        assert histories[0] == histories[1]

    def test_early_epochs_non_increasing_moving_average(self):
        cfg = SystemConfig(n_t=4, n_r=4, a1_v=2, a1_h=4, a2_v=2, a2_h=4, m=16,
                           block_len=8, num_scatterers=9, hidden_width=128,
                           sigma2=10 ** (-15 / 10))
        nets = build_autoencoder(cfg, np.random.default_rng(22))
        result = train(nets, cfg, num_symbols=4096, epochs=10, lr=1e-3,
                       rng=np.random.default_rng(23), batch_blocks=64)
        avg = np.convolve(result.loss_history, np.ones(3) / 3.0, mode="valid")
        assert all(avg[i + 1] <= avg[i] + 1e-9 for i in range(len(avg) - 1))

    def test_overfits_fixed_small_dataset(self):
        cfg, nets = make_system(seed=24, sigma2=1e-4, hidden_width=16)
        rng = np.random.default_rng(25)
        fixed = ChannelModel(cfg).sample_batch(16, rng)

        class FixedChannels:
            def sample_batch(self, n, _rng):
                assert n == len(fixed)
                return fixed

        result = train(nets, cfg, num_symbols=16 * cfg.block_len, epochs=1500, lr=1e-2,
                       rng=rng, batch_blocks=16, channel_model=FixedChannels())
        assert min(result.loss_history) < 1e-3

    def test_divergence_detection(self):
        cfg, nets = make_system(seed=26)
        key = next(iter(nets.encoder.trainable_params()))
        poisoned = nets.encoder.params()[key].copy()
        poisoned.flat[0] = np.nan
        nets.encoder.set_param(key, poisoned)
        with pytest.raises(Diverged):
            train(nets, cfg, num_symbols=8, epochs=2, lr=1e-3,
                  rng=np.random.default_rng(27), batch_blocks=4)


    def test_unit_modulus_violation_raises(self, monkeypatch):
        # a typed error rather than an assert, so the check survives python -O
        cfg, nets = make_system(seed=26)
        forward = autoencoder.pipeline_forward

        def stretched(*args, **kwargs):
            rec = forward(*args, **kwargs)
            rec.c2 = 1.5 * rec.c2
            return rec

        monkeypatch.setattr(autoencoder, "pipeline_forward", stretched)
        with pytest.raises(InvariantViolation, match="surface 2"):
            train(nets, cfg, num_symbols=8, epochs=1, lr=1e-3,
                  rng=np.random.default_rng(27), batch_blocks=4)


def replace_decisions(monkeypatch, decide):
    """Make evaluate_ser count decide(rec) in place of the decoder's decisions."""
    forward = autoencoder.pipeline_forward

    def deciding(*args, **kwargs):
        rec = forward(*args, **kwargs)
        rec.decisions = decide(rec)
        return rec

    monkeypatch.setattr(autoencoder, "pipeline_forward", deciding)


class TestEvaluate:
    def test_oracle_decoder_gives_zero_ser(self, monkeypatch):
        cfg, nets = make_system(seed=28)
        replace_decisions(monkeypatch, lambda rec: rec.blocks.argmax(axis=1))
        est = evaluate_ser(nets, cfg, None, num_blocks=50, rng=np.random.default_rng(29))
        assert est.ser == 0.0
        assert est.errors == 0

    def test_uniform_random_decider(self, monkeypatch):
        cfg, nets = make_system(seed=30)
        stub_rng = np.random.default_rng(31)
        replace_decisions(monkeypatch,
                          lambda rec: stub_rng.integers(0, cfg.m, size=rec.decisions.shape))
        est = evaluate_ser(nets, cfg, None, num_blocks=700, rng=np.random.default_rng(32))
        expected = (cfg.m - 1) / cfg.m
        assert abs(est.ser - expected) < 3 * est.ci_halfwidth

    def test_wilson_interval_basics(self):
        low, high = wilson_interval(0, 100)
        assert low == 0.0 and 0.0 < high < 0.05
        low, high = wilson_interval(50, 100)
        assert low < 0.5 < high
        with pytest.raises(ValueError):
            wilson_interval(0, 0)

    def test_received_power_positive_and_deterministic(self):
        cfg, nets = make_system(seed=33)
        p1 = estimate_received_power(nets, cfg, 20, np.random.default_rng(34))
        p2 = estimate_received_power(nets, cfg, 20, np.random.default_rng(34))
        assert p1 == p2
        assert p1 > 0.0

    def test_received_power_runs_no_decoder(self, monkeypatch):
        cfg, nets = make_system(seed=37)
        rng = np.random.default_rng(38)
        blocks, _ = random_message_blocks(cfg, 20, rng)
        chan = ChannelModel(cfg).sample_batch(20, rng)
        z = transmit_forward(nets, cfg, blocks, chan, train=False).z
        decoder_forwards = []
        monkeypatch.setattr(nets.decoder, "forward", lambda *a, **k: decoder_forwards.append(a))
        power = estimate_received_power(nets, cfg, 20, np.random.default_rng(38))
        assert decoder_forwards == []
        assert power == float(np.mean(np.sum(np.abs(z) ** 2, axis=1)))

    def test_only_a_training_pass_keeps_activation_records(self):
        cfg, nets = make_system(seed=39)
        rng = np.random.default_rng(40)
        chan = ChannelModel(cfg).sample_batch(2, rng)
        blocks, _ = random_message_blocks(cfg, 2, rng)
        names = ("enc_rec", "r1_rec", "r2_rec", "dec_rec")
        rec = pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2, rng=np.random.default_rng(41))
        assert all(getattr(rec, name) is None for name in names)
        with pytest.raises(MissingRecord):
            pipeline_backward(nets, rec)
        trained = pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2,
                                   rng=np.random.default_rng(41), train=True)
        assert all(len(getattr(trained, name)) == len(getattr(nets, net).layers)
                   for name, net in zip(names, ("encoder", "ris1", "ris2", "decoder")))
