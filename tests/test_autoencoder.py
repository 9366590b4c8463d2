"""End-to-end pipeline tests: composition, gradients, training, evaluation."""

import ctypes
import resource
import tracemalloc
import weakref
from pathlib import Path

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
    fresh_blocks,
    one_hot_blocks,
    pack_decoder_input,
    pipeline_backward,
    pipeline_forward,
    random_message_blocks,
    train,
    transmit_forward,
    wilson_interval,
)
from risae.attack import AttackBudget, AttackSettings, rmaef, rmaep
from risae.channel import ChannelModel, crandn
from risae.config import SystemConfig
from risae.errors import Diverged, InvariantViolation, MissingRecord, ShapeMismatch
from risae.harness import derive_rng, desk_preset, load_system, paper_preset, snr_to_sigma2
from risae.neural import (BN_EPS, INFERENCE_ROWS, AdamState, BatchNorm, Conv1D, Layer, Network,
                          Softmax, bce_loss, log_loss)

REFERENCE_CKPT = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "desk-seed7.ckpt"


def tiny_config(**kwargs) -> SystemConfig:
    base = dict(n_t=2, n_r=2, a1_v=1, a1_h=2, a2_v=1, a2_h=2, m=4, block_len=3,
                num_scatterers=3, hidden_width=4, sigma2=0.1)
    base.update(kwargs)
    return SystemConfig(**base)


# n_t (also the adversary's antenna count), n_r, a1 = 5, a2 = 6 and L all
# differ, so a transposed link or a swapped axis cannot pass
NON_SQUARE = dict(n_t=2, n_r=3, a1_v=1, a1_h=5, a2_v=2, a2_h=3, block_len=7)


def make_system(seed=0, **kwargs):
    cfg = tiny_config(**kwargs)
    nets = build_autoencoder(cfg, np.random.default_rng(seed))
    return cfg, nets


def noise_draw(cfg, batch, seed):
    """The noise pipeline_forward draws first from default_rng(seed)."""
    return np.sqrt(cfg.sigma2) * crandn(np.random.default_rng(seed),
                                        (batch, cfg.n_r, cfg.block_len))


def one_block(cfg, nets, rng, blocks=None, **kwargs):
    """pipeline_forward on one block (B = 1) with a freshly sampled channel,
    holding the adversary links when the pass's attack channel reads them."""
    attack = kwargs.get("attack")
    chan = ChannelModel(cfg).sample_batch(
        1, rng, adversary=attack is not None and attack.channel_mode == "double")
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
        c1 = np.exp(1j * nets.ris1.forward(complex_to_channels(a1))[0])
        assert np.allclose(rec.c1, c1, atol=1e-12)
        b2 = np.stack([(u2 + e @ np.diag(rec.c1[0, :, i]) @ u1) @ o[:, i]
                       for i in range(cfg.block_len)], axis=1)[None]
        c2 = np.exp(1j * nets.ris2.forward(complex_to_channels(b2))[0])
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
        assert np.mean(np.abs(rec.r - rec.z) ** 2) == pytest.approx(sigma2, rel=0.05)

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
        assert np.array_equal(noisy.z, clean.z)
        assert np.array_equal(noisy.r, clean.z + noise)

    @pytest.mark.parametrize("mode", ["ideal", "double"])
    def test_record_holds_the_signal_the_decoder_read(self, mode):
        # the attacks rebuild the decoder input of an attacked pass from r and K
        cfg, nets = make_system(seed=61)
        nets = nets.folded()
        rng = np.random.default_rng(62)
        chan = ChannelModel(cfg).sample_batch(3, rng, adversary=mode == "double")
        blocks, _ = random_message_blocks(cfg, 3, rng)
        p_adv = crandn(rng, (cfg.n_r if mode == "ideal" else cfg.n_t,))
        rec = pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2, rng=rng,
                               attack=AttackApplication(channel_mode=mode, p_adv=p_adv))
        probs, _ = nets.decoder.forward(pack_decoder_input(rec.r, rec.k))
        assert np.array_equal(probs, rec.probs)


class TestDecode:
    def test_columns_sum_to_one_and_argmax(self):
        cfg, nets = make_system()
        rng = np.random.default_rng(7)
        r = rng.standard_normal((1, cfg.n_r, cfg.block_len)) * (1 + 0j)
        k = rng.standard_normal((1, cfg.block_len, cfg.n_r, cfg.n_t)) * (1 + 0j)
        probs, _ = nets.decoder.forward(pack_decoder_input(r, k))
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

        o = channels_to_complex(nets.encoder.forward(blocks)[0])
        a1 = chan.u1 @ o
        c1 = np.exp(1j * nets.ris1.forward(complex_to_channels(a1))[0])
        b2 = chan.u2 @ o + chan.e @ (c1 * a1)
        c2 = np.exp(1j * nets.ris2.forward(complex_to_channels(b2))[0])
        k, _ = cascade_set(chan, c1, c2)
        r = chan.y1 @ (c1 * a1) + chan.y2 @ (c2 * b2) + noise
        probs, _ = nets.decoder.forward(pack_decoder_input(r, k))
        assert np.array_equal(out.probs, probs)
        assert np.array_equal(out.decisions, probs.argmax(axis=1))

    def test_zero_perturbation_equals_secured(self):
        cfg, nets = make_system(seed=10)
        rng = np.random.default_rng(11)
        chan = ChannelModel(cfg).sample_batch(1, rng, adversary=True)
        blocks, _ = random_message_blocks(cfg, 1, rng)
        secured = pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2,
                                   rng=np.random.default_rng(110))
        for mode, dim in (("double", cfg.n_t), ("ideal", cfg.n_r)):
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
        enc, _ = nets.encoder.forward(blocks)
        o = enc[0, 0, 0] + 1j * enc[0, 1, 0]
        g1, _ = nets.ris1.forward(np.array([[[(u1 * o).real], [(u1 * o).imag]]]))
        c1 = np.exp(1j * g1[0, 0, 0])
        b2 = (u2 + e * c1 * u1) * o
        g2, _ = nets.ris2.forward(np.array([[[b2.real], [b2.imag]]]))
        c2 = np.exp(1j * g2[0, 0, 0])
        k = y2 * c2 * e * c1 * u1 + y1 * c1 * u1 + y2 * c2 * u2
        r = k * o + noise[0, 0, 0]
        d = np.array([r.real, r.imag, k.real, k.imag])
        probs, _ = nets.decoder.forward(d.reshape(1, 4, 1))
        assert np.allclose(out.probs, probs, atol=1e-12)


class TestPipelineGradients:
    @pytest.mark.parametrize("dims", [{}, NON_SQUARE], ids=["bce", "non_square-bce"])
    def test_full_pipeline_matches_finite_differences(self, dims):
        cfg, nets = make_system(seed=14, **dims)
        rng = np.random.default_rng(15)
        model = ChannelModel(cfg)
        chan = model.sample_batch(2, rng)
        blocks, _ = random_message_blocks(cfg, 2, rng)

        def forward():
            # a fresh generator with one seed gives every pass the same noise
            return pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2,
                                    rng=np.random.default_rng(150), train=True)

        def loss_value():
            rec = forward()
            return bce_loss(rec.probs, rec.blocks)[0]

        rec = forward()
        _, grads = pipeline_backward(nets, rec)

        step = 1e-5
        worst = 0.0
        for net_name, net in nets.as_dict().items():
            for key in net.trainable_params():
                analytic = grads[net_name][key]
                param = net.params()[key]
                fd = np.zeros_like(param)
                for i in np.ndindex(param.shape):  # in place, whatever the layout
                    orig = param[i]
                    param[i] = orig + step
                    hi = loss_value()
                    param[i] = orig - step
                    lo = loss_value()
                    param[i] = orig
                    fd[i] = (hi - lo) / (2.0 * step)
                denom = max(np.linalg.norm(analytic), np.linalg.norm(fd), 1e-6)
                rel = np.linalg.norm(analytic - fd) / denom
                worst = max(worst, rel)
                assert rel < 1e-3, f"{net_name}/{key}: rel err {rel:.2e}"
        assert worst < 1e-3

    @pytest.mark.parametrize("dims", [{}, NON_SQUARE], ids=["bce", "non_square-bce"])
    def test_decoder_input_gradient_is_per_sample(self, dims):
        # every rmaep and rmaef gradient comes from this: row b must be the
        # received-signal gradient of sample b's own mean loss, which a
        # weighted sum of the per-sample losses checks, weights and all
        cfg, nets = make_system(seed=35, **dims)
        rng = np.random.default_rng(36)
        d_input = rng.standard_normal((3, cfg.decoder_channels, cfg.block_len))
        target, _ = random_message_blocks(cfg, 3, rng)
        weights = rng.uniform(0.5, 2.0, size=3)
        _, g_r = decoder_input_gradient(nets.decoder, cfg, d_input, target)
        assert g_r.shape == (3, cfg.n_r, cfg.block_len)

        def weighted_loss(x):
            terms = log_loss(nets.decoder.forward(x)[0], target, "bce")[0]
            return float(weights @ terms.mean(axis=(1, 2)))

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

    def test_backward_consumes_its_record(self):
        cfg, nets = make_system(seed=44)
        rng = np.random.default_rng(45)
        chan = ChannelModel(cfg).sample_batch(2, rng)
        blocks, _ = random_message_blocks(cfg, 2, rng)
        rec = pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2, rng=rng, train=True)
        pipeline_backward(nets, rec)
        for name in ("enc_rec", "r1_rec", "r2_rec", "dec_rec"):
            assert getattr(rec, name) == [], name
        assert rec.m is None
        with pytest.raises(MissingRecord):
            pipeline_backward(nets, rec)

    def test_backward_asks_the_encoder_for_no_input_gradient(self, monkeypatch):
        # the encoder's input is the one-hot message, whose gradient nothing
        # reads; every other Conv1D's input gradient feeds the layer before it
        # or the chain into another network
        cfg, nets = make_system(seed=46)
        rng = np.random.default_rng(47)
        chan = ChannelModel(cfg).sample_batch(2, rng)
        blocks, _ = random_message_blocks(cfg, 2, rng)
        rec = pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2, rng=rng, train=True)
        asked = {}
        backward = Conv1D.backward

        def spy(conv, cache, gy, inputs=None):
            asked[id(conv)] = inputs
            return backward(conv, cache, gy, inputs)

        monkeypatch.setattr(Conv1D, "backward", spy)
        pipeline_backward(nets, rec)
        convs = [layer for net in nets.as_dict().values() for layer in net.layers
                 if isinstance(layer, Conv1D)]
        assert asked == {id(conv): 0 if conv is nets.encoder.layers[0] else None
                         for conv in convs}

    def test_training_pass_refuses_an_attack(self):
        # the backward treats the received signal as z + noise; the pass
        # refuses before it draws or updates a BatchNorm statistic
        cfg, nets = make_system(seed=16)
        rng = np.random.default_rng(17)
        chan = ChannelModel(cfg).sample_batch(1, rng)
        blocks, _ = random_message_blocks(cfg, 1, rng)
        attack = AttackApplication(channel_mode="ideal", p_adv=np.ones(cfg.n_r, dtype=complex))
        state = rng.bit_generator.state
        before = {key: value.copy() for key, value in nets.encoder.params().items()}
        with pytest.raises(ValueError, match="training pass cannot be attacked"):
            pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2, rng=rng, attack=attack,
                             train=True)
        assert rng.bit_generator.state == state
        assert all(np.array_equal(value, before[key])
                   for key, value in nets.encoder.params().items())

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

    def test_no_earlier_batch_outlives_its_step(self, monkeypatch):
        # when a batch's forward starts, every array of the earlier batches'
        # decoder records must be freed: the softmax output among them is
        # also the record's probabilities, so a kept record keeps it alive
        cfg, nets = make_system(seed=46)
        forward = autoencoder.pipeline_forward
        earlier = []
        alive_at_forward = []

        def watched(*args, **kwargs):
            alive_at_forward.append(sum(ref() is not None for ref in earlier))
            rec = forward(*args, **kwargs)
            earlier.extend(weakref.ref(array) for cache in rec.dec_rec
                           for array in cache.values() if isinstance(array, np.ndarray))
            return rec

        monkeypatch.setattr(autoencoder, "pipeline_forward", watched)
        train(nets, cfg, num_symbols=3 * 4 * cfg.block_len, epochs=1, lr=1e-3,
              rng=np.random.default_rng(47), batch_blocks=4)
        assert len(earlier) > 0
        assert alive_at_forward == [0, 0, 0]

    def test_paper_step_frees_each_array_at_its_last_read(self):
        # a paper step's new allocations peak at 88.7 MiB when each layer's
        # cache is freed as its backward returns, K before the decoder runs
        # and M's conjugate is taken in place; every cache kept to the end of
        # the step, K kept or a conjugate copy of M peaks at 93.7 MiB or more
        cfg = paper_preset(7)
        sys_cfg = cfg.system.replace(sigma2=snr_to_sigma2(cfg.system.power, cfg.train.snr_db))
        nets = build_autoencoder(sys_cfg, derive_rng(cfg.seed, "init"))
        batch = cfg.train.batch_blocks
        tracemalloc.start()
        try:
            train(nets, sys_cfg, batch * sys_cfg.block_len, 1, cfg.train.learning_rate,
                  derive_rng(cfg.seed, "train"), batch_blocks=batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 91 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"

    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="libc has no mallopt")
    def test_warm_desk_step_faults_in_no_pages(self):
        # train keeps freed blocks in the heap, so once two steps have grown
        # it, a desk step reuses its pages; a step that maps its multi-MB
        # activations afresh takes about 1,000 minor faults
        cfg = desk_preset(7)
        sys_cfg = cfg.system.replace(sigma2=snr_to_sigma2(cfg.system.power, cfg.train.snr_db))
        nets = build_autoencoder(sys_cfg, derive_rng(cfg.seed, "init"))
        model = ChannelModel(sys_cfg)
        adam = AdamState(lr=cfg.train.learning_rate)
        rng = derive_rng(cfg.seed, "train")
        batch = cfg.train.batch_blocks

        def step():
            train(nets, sys_cfg, batch * sys_cfg.block_len, 1, cfg.train.learning_rate, rng,
                  batch_blocks=batch, channel_model=model, adam=adam)

        step()
        step()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            step()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / 5 < 100, f"{faults / 5:.0f} minor faults per warm step"


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
        assert est.ser == 0

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
        decoder_forwards = []  # the decoder is the one network that ends in a softmax
        monkeypatch.setattr(Softmax, "forward", lambda *a, **k: decoder_forwards.append(a))
        power = estimate_received_power(nets, cfg, 20, np.random.default_rng(38))
        assert decoder_forwards == []
        assert power == float(np.mean(np.sum(np.abs(z) ** 2, axis=1)))

    def test_fresh_blocks_draws_each_chunk_when_asked(self):
        # the caller draws between chunks, as the noise and jamming of a
        # pass do; each chunk must come from the stream at the point it is
        # asked for, messages first, then realizations
        cfg = tiny_config()
        rng = np.random.default_rng(44)
        oracle = np.random.default_rng(44)
        sizes = []
        for blocks, indices, chan in fresh_blocks(cfg, 5, 2, rng):
            n = len(blocks)
            sizes.append(n)
            want_blocks, want_indices = random_message_blocks(cfg, n, oracle)
            want_chan = ChannelModel(cfg).sample_batch(n, oracle)
            assert np.array_equal(blocks, want_blocks)
            assert np.array_equal(indices, want_indices)
            for link in ("u1", "u2", "y1", "y2", "e"):
                assert np.array_equal(getattr(chan, link), getattr(want_chan, link)), link
            rng.standard_normal(3)
            oracle.standard_normal(3)
        assert sizes == [2, 2, 1]

    def test_only_a_training_pass_keeps_activation_records(self):
        cfg, nets = make_system(seed=39)
        rng = np.random.default_rng(40)
        chan = ChannelModel(cfg).sample_batch(2, rng)
        blocks, _ = random_message_blocks(cfg, 2, rng)
        names = ("enc_rec", "r1_rec", "r2_rec", "dec_rec")
        rec = pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2, rng=np.random.default_rng(41))
        assert all(getattr(rec, name) is None for name in names)
        # the attacks read the aggregates of such a pass; no record keeps
        # the decoder input, which r and k rebuild
        assert rec.k is not None and not hasattr(rec, "d_input")
        with pytest.raises(MissingRecord):
            pipeline_backward(nets, rec)
        trained = pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2,
                                   rng=np.random.default_rng(41), train=True)
        assert all(len(getattr(trained, name)) == len(getattr(nets, net).layers)
                   for name, net in zip(names, ("encoder", "ris1", "ris2", "decoder")))
        # the backward does not read the aggregates
        assert trained.k is None and not hasattr(trained, "d_input")


@pytest.fixture(scope="module", params=["reference", "non_square"])
def system(request):
    """The reference checkpoint's networks, or a randomly initialised
    non-square system whose BatchNorms get random affine maps and running
    statistics, so that no fold is close to the identity."""
    if request.param == "reference":
        cfg = desk_preset(7)
        return cfg.system, load_system(REFERENCE_CKPT, cfg)
    cfg, nets = make_system(seed=42, **NON_SQUARE)
    rng = np.random.default_rng(43)
    for net in nets.as_dict().values():
        for layer in net.layers:
            if isinstance(layer, BatchNorm):
                layer.gamma = rng.uniform(0.5, 2.0, len(layer.gamma))
                layer.beta = rng.standard_normal(len(layer.gamma))
                layer.running_mean = rng.standard_normal(len(layer.gamma))
                layer.running_var = rng.uniform(0.1, 3.0, len(layer.gamma))
    return cfg, nets


class AffineBatchNorm(Layer):
    """A BatchNorm at inference, unfolded: γ(x − μ)/sqrt(σ² + eps) + β with
    the running estimates μ and σ², and its input gradient."""

    def __init__(self, bn):
        self.bn = bn

    def forward(self, x):
        bn = self.bn
        y = (bn.gamma[None, :, None] * (x - bn.running_mean[None, :, None])
             / np.sqrt(bn.running_var + BN_EPS)[None, :, None] + bn.beta[None, :, None])
        return y, None

    def backward(self, _cache, gy):
        bn = self.bn
        return gy * (bn.gamma / np.sqrt(bn.running_var + BN_EPS))[None, :, None], {}


def affine_reference(net):
    """net with each BatchNorm applied as its affine map after the Conv1D."""
    return Network([AffineBatchNorm(layer) if isinstance(layer, BatchNorm) else layer
                    for layer in net.layers])


class TestFolded:
    """The folded networks against the test-local affine reference. Folding
    changes the rounding, not the function: outputs agree to 1e-10 of their
    scale."""

    def test_forward_and_decisions_match_eval_mode(self, system):
        cfg, nets = system
        rng = np.random.default_rng(44)
        folded = nets.folded()
        for name, net in nets.as_dict().items():
            x = rng.standard_normal((16, net.layers[0].in_channels, cfg.block_len))
            want = affine_reference(net).forward(x)[0]
            got = folded.as_dict()[name].forward(x)[0]
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-10 * max(1.0, np.abs(want).max()), err_msg=name)
            if name == "decoder":
                assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))

    def test_decoder_input_gradient_matches_eval_mode(self, system):
        cfg, nets = system
        rng = np.random.default_rng(45)
        d_input = rng.standard_normal((16, cfg.decoder_channels, cfg.block_len))
        target, _ = random_message_blocks(cfg, 16, rng)
        probs, g_r = decoder_input_gradient(affine_reference(nets.decoder), cfg, d_input, target)
        folded_probs, folded_g_r = decoder_input_gradient(nets.folded().decoder, cfg, d_input,
                                                          target)
        np.testing.assert_allclose(folded_probs, probs, rtol=0, atol=1e-10)
        np.testing.assert_allclose(folded_g_r, g_r, rtol=0, atol=1e-10 * np.abs(g_r).max())
        # on the unfolded decoder the gradient runs the same folded network
        unfolded = decoder_input_gradient(nets.decoder, cfg, d_input, target)
        assert all(np.array_equal(a, b) for a, b in zip(unfolded, (folded_probs, folded_g_r)))

    def test_copy_drops_batchnorm_and_leaves_the_source_alone(self, system):
        _, nets = system
        before = {name: {k: v.copy() for k, v in net.params().items()}
                  for name, net in nets.as_dict().items()}
        folded = nets.folded()
        for name, net in nets.as_dict().items():
            layers = folded.as_dict()[name].layers
            assert not any(isinstance(layer, BatchNorm) for layer in layers)
            assert len(layers) == sum(not isinstance(layer, BatchNorm) for layer in net.layers)
            assert folded.as_dict()[name].folded() is folded.as_dict()[name]
            params = net.params()
            assert params.keys() == before[name].keys()
            assert all(np.array_equal(params[k], v) for k, v in before[name].items())
            for conv in (layer for layer in layers if isinstance(layer, Conv1D)):
                assert np.shares_memory(conv._weight_matrix(), conv.weight)
                assert not any(np.shares_memory(conv.weight, p) or np.shares_memory(conv.bias, p)
                               for p in params.values())


def one_pass(net, x):
    """The folded layers of net over the whole batch at once."""
    for layer in net.folded().layers:
        x, _ = layer.forward(x)
    return x


def layout(a):
    """Whether a is C-ordered, and whether it is channels-last: the transpose
    of a C-ordered (batch, length, channels) array."""
    return a.flags.c_contiguous, a.transpose(0, 2, 1).flags.c_contiguous


# batch sizes in blocks, as functions of the blocks in one inference slice
SLICED_BATCHES = {"one_block": lambda step: 1, "slice_minus_one": lambda step: step - 1,
                  "one_slice": lambda step: step, "slice_plus_one": lambda step: step + 1,
                  "two_and_a_half_slices": lambda step: 5 * step // 2}


class TestSlicedInference:
    """A forward without a record runs the folded layers slice by slice."""

    @pytest.mark.parametrize("batch", list(SLICED_BATCHES))
    def test_unrecorded_forward_equals_one_pass(self, system, batch):
        cfg, nets = system
        rng = np.random.default_rng(48)
        n = SLICED_BATCHES[batch](INFERENCE_ROWS // cfg.block_len)
        for name, net in nets.as_dict().items():
            x = rng.standard_normal((n, net.layers[0].in_channels, cfg.block_len))
            got, rec = net.forward(x)
            want = one_pass(net, x)
            assert rec is None
            assert np.array_equal(got, want), name
            assert layout(got) == layout(want), name

    @pytest.mark.parametrize("mode", ["none", "ideal", "double", "training"])
    def test_only_the_double_attack_channel_builds_adversary_links(self, built_links, mode):
        cfg, nets = make_system(seed=49)
        attack = None
        if mode in ("ideal", "double"):
            attack = AttackApplication(channel_mode=mode, jam_budget=1.0)
        one_block(cfg, nets, np.random.default_rng(50), attack=attack, train=mode == "training")
        legitimate = ["u1", "u2", "e", "y1", "y2"]
        adversary = ["u1p", "u2p", "ep", "y1p", "y2p"] if mode == "double" else []
        assert sorted(built_links) == sorted(legitimate + adversary)

    @pytest.mark.parametrize("entry, mode", [
        ("evaluate_ser", "none"), ("evaluate_ser", "ideal"), ("evaluate_ser", "double"),
        ("estimate_received_power", "none"), ("train", "none"),
        ("rmaep", "ideal"), ("rmaep", "double"), ("rmaef", "ideal"), ("rmaef", "double")])
    def test_monte_carlo_passes_build_adversary_links_only_for_double(self, built_links,
                                                                        entry, mode):
        cfg, nets = make_system(seed=51)
        rng = np.random.default_rng(52)
        if entry == "evaluate_ser":
            attack = None if mode == "none" else AttackApplication(mode, jam_budget=1.0)
            evaluate_ser(nets, cfg, attack, num_blocks=3, rng=rng)
        elif entry == "estimate_received_power":
            estimate_received_power(nets, cfg, 3, rng)
        elif entry == "train":
            train(nets, cfg, 6, 1, 1e-3, rng, batch_blocks=2)
        else:
            construction = {"rmaep": rmaep, "rmaef": rmaef}[entry]
            construction(nets, cfg, AttackBudget(-7.0, reference_power=cfg.power),
                         AttackSettings(n_p=2, n_s=1, channel_mode=mode), rng, channel_mode=mode)
        assert built_links
        assert any(name.endswith("p") for name in built_links) == (mode == "double")


@pytest.fixture
def built_links(monkeypatch) -> list[str]:
    """The names of the links ChannelModel builds, in build order."""
    built = []
    link = ChannelModel._link
    monkeypatch.setattr(ChannelModel, "_link",
                        lambda model, name, *draws: built.append(name) or link(model, name, *draws))
    return built


def batchnorm_arrays(nets):
    """A copy of every BatchNorm's γ, β and running estimates."""
    return [getattr(layer, name).copy() for net in nets.as_dict().values()
            for layer in net.layers if isinstance(layer, BatchNorm)
            for name in ("gamma", "beta", "running_mean", "running_var")]


class TestInferenceTrainsNoBatchNorm:
    """Inference on networks that still have their BatchNorms runs the
    folded networks, so it leaves every BatchNorm array bit for bit."""

    def run(self, entry, cfg, nets, rng):
        if entry == "network_forward":
            for net in nets.as_dict().values():
                net.forward(rng.standard_normal((4, net.layers[0].in_channels, cfg.block_len)))
        elif entry in ("pipeline_forward", "training_pass"):
            one_block(cfg, nets, rng, train=entry == "training_pass")
        elif entry == "evaluate_ser":
            evaluate_ser(nets, cfg, None, num_blocks=20, rng=rng)
        elif entry == "estimate_received_power":
            estimate_received_power(nets, cfg, 20, rng)
        else:
            d_input = rng.standard_normal((4, cfg.decoder_channels, cfg.block_len))
            decoder_input_gradient(nets.decoder, cfg, d_input,
                                   random_message_blocks(cfg, 4, rng)[0])

    @pytest.mark.parametrize("entry", ["network_forward", "pipeline_forward", "evaluate_ser",
                                       "estimate_received_power", "decoder_input_gradient"])
    def test_leaves_every_batchnorm_array_alone(self, system, entry):
        cfg, nets = system
        before = batchnorm_arrays(nets)
        self.run(entry, cfg, nets, np.random.default_rng(47))
        after = batchnorm_arrays(nets)
        assert len(after) == 4 * 2 * 4  # four arrays of two BatchNorms in each network
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_a_training_pass_updates_the_running_estimates(self):
        # the check above can see a change: a training pass makes one
        cfg, nets = make_system(seed=46)
        before = batchnorm_arrays(nets)
        self.run("training_pass", cfg, nets, np.random.default_rng(47))
        assert not all(np.array_equal(a, b) for a, b in zip(before, batchnorm_arrays(nets)))
