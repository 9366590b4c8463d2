"""Gradient-correctness and contract tests for the CNN engine."""

import copy
import json
import struct
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from risae import neural
from risae.autoencoder import build_autoencoder
from risae.config import SystemConfig
from risae.errors import CorruptCheckpoint, DegenerateInput, MissingRecord, ShapeMismatch
from risae.harness import paper_preset
from risae.neural import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    BN_EPS,
    BN_MOMENTUM,
    KERNEL_SIZE,
    AdamState,
    BatchNorm,
    Conv1D,
    Network,
    PowerNorm,
    ReLU,
    Softmax,
    adam_step,
    bce_loss,
    bce_loss_per_sample,
    conv_stack,
    cross_entropy_loss,
    load_checkpoint,
    save_checkpoint,
)

FD_STEP = 1e-5


def fd_gradient(f, x, step=FD_STEP):
    """Central finite differences of a scalar function of an ndarray."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x)
        flat[i] = orig - step
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2.0 * step)
    return g


def rel_err(a, b):
    # 1e-6 floor keeps structurally-zero gradients (e.g. a conv bias feeding
    # train-mode batchnorm) from dividing FD noise by itself.
    denom = max(np.linalg.norm(a.ravel()), np.linalg.norm(b.ravel()), 1e-6)
    return np.linalg.norm((a - b).ravel()) / denom


def check_layer_gradients(layer, x, tol=1e-4, seed=0):
    """Analytic vs central finite differences for inputs and every parameter."""
    rng = np.random.default_rng(seed)
    y, cache = layer.forward(x)
    upstream = rng.standard_normal(y.shape)

    def loss_of_input(xv):
        yy, _ = layer.forward(xv)
        return float((yy * upstream).sum())

    gx, grads = layer.backward(cache, upstream)
    assert rel_err(gx, fd_gradient(loss_of_input, x.copy())) < tol

    for name in layer.trainable:
        param = getattr(layer, name)

        def loss_of_param(pv, _name=name):
            old = getattr(layer, _name)
            setattr(layer, _name, pv)
            yy, _ = layer.forward(x)
            setattr(layer, _name, old)
            return float((yy * upstream).sum())

        assert rel_err(grads[name], fd_gradient(loss_of_param, param.copy())) < tol, name


# float64 rounding over sums of at most K·C products stays near 1e-14
# relative; 1e-12 leaves two orders of margin and no room for a wrong index.
ORACLE_RTOL = 1e-12


def assert_close(actual, expected, rtol=ORACLE_RTOL):
    assert actual.shape == expected.shape
    assert np.linalg.norm((actual - expected).ravel()) <= rtol * np.linalg.norm(expected.ravel())


def conv_oracle(x, weight, bias, gy=None):
    """Cross-correlation with zero same-padding by explicit loops over output
    positions and taps, and its exact gradients for upstream gradient gy
    (zero when gy is None)."""
    batch, _, length = x.shape
    out_channels, _, k_size = weight.shape
    pad = k_size // 2
    if gy is None:
        gy = np.zeros((batch, out_channels, length))
    y = np.tile(bias[None, :, None], (batch, 1, length))
    gx = np.zeros(x.shape)
    g_w = np.zeros(weight.shape)
    for l in range(length):
        for k in range(k_size):
            t = l + k - pad  # input position tap k reads for output position l
            if 0 <= t < length:
                y[:, :, l] += x[:, :, t] @ weight[:, :, k].T
                gx[:, :, t] += gy[:, :, l] @ weight[:, :, k]
                g_w[:, :, k] += gy[:, :, l].T @ x[:, :, t]
    return y, gx, g_w, gy.sum(axis=(0, 2))


class OracleConv:
    """Conv1D stand-in that computes through ``conv_oracle``."""

    def __init__(self, conv):
        self.conv = conv

    def params(self):
        return self.conv.params()

    def forward(self, x):
        return conv_oracle(x, self.conv.weight, self.conv.bias)[0], x

    def backward(self, x, gy):
        _, gx, g_w, g_b = conv_oracle(x, self.conv.weight, self.conv.bias, gy)
        return gx, {"weight": g_w, "bias": g_b}


def array_in_layout(rng, shape, channels_last):
    """Standard normal (B, C, L) array, C-ordered or as a transposed (B, L, C) one."""
    if channels_last:
        b, c, length = shape
        return rng.standard_normal((b, length, c)).transpose(0, 2, 1)
    return rng.standard_normal(shape)


# Kernels that share the one kernel size: every tap random, only the centre
# tap (a kernel-1 correlation), or only the side taps (pure one-step shifts).
TAPS = {"dense": [], "centre": [0, 2], "sides": [1]}


def zero_taps(conv, taps):
    """Zero the taps that TAPS[taps] names, in place, keeping the weight's layout."""
    conv.weight[:, :, TAPS[taps]] = 0.0


class TestConv1D:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        conv = Conv1D(2, 2, rng)
        conv.weight = np.zeros((2, 2, 3))
        conv.weight[0, 0, 1] = 1.0
        conv.weight[1, 1, 1] = 1.0
        conv.bias = np.zeros(2)
        x = rng.standard_normal((3, 2, 7))
        y, _ = conv.forward(x)
        assert np.allclose(y, x)

    def test_one_layer_adjoint_is_correlation(self):
        # For a single conv the input gradient is the upstream signal
        # correlated with the flipped kernel, summed over output channels.
        rng = np.random.default_rng(1)
        conv = Conv1D(1, 1, rng)
        x = rng.standard_normal((1, 1, 6))
        y, cache = conv.forward(x)
        gy = rng.standard_normal(y.shape)
        gx, _ = conv.backward(cache, gy)
        w = conv.weight[0, 0]
        expected = np.zeros(6)
        for t in range(6):
            for k in range(3):
                l = t - k + 1  # output position feeding xp[t], pad = 1
                if 0 <= l < 6:
                    expected[t] += gy[0, 0, l] * w[k]
        assert np.allclose(gx[0, 0], expected, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(2)
        conv = Conv1D(3, 4, rng)
        check_layer_gradients(conv, rng.standard_normal((2, 3, 5)))

    def test_gradients_with_bias(self):
        rng = np.random.default_rng(22)
        conv = Conv1D(3, 2, rng)
        conv.bias = rng.standard_normal(2)
        check_layer_gradients(conv, rng.standard_normal((2, 3, 4)))

    @pytest.mark.parametrize("taps", list(TAPS))
    @pytest.mark.parametrize("channels_last", [False, True], ids=["c_order", "channels_last"])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("length", [1, 2, 8])
    @pytest.mark.parametrize("channels, out_channels", [(3, 5), (6, 2)],
                             ids=["widening", "narrowing"])
    def test_matches_loop_oracle(self, channels, out_channels, length, batch, channels_last,
                                 taps):
        rng = np.random.default_rng(100 + 10 * KERNEL_SIZE + length)
        conv = Conv1D(channels, out_channels, rng)
        zero_taps(conv, taps)
        conv.bias = rng.standard_normal(out_channels)
        x = array_in_layout(rng, (batch, channels, length), channels_last)
        gy = array_in_layout(rng, (batch, out_channels, length), channels_last)
        y, cache = conv.forward(x)
        gx, grads = conv.backward(cache, gy)
        want_y, want_gx, want_gw, want_gb = conv_oracle(x, conv.weight, conv.bias, gy)
        assert_close(y, want_y)
        assert_close(gx, want_gx)
        assert_close(grads["weight"], want_gw)
        assert_close(grads["bias"], want_gb)

    def test_cache_spans_only_padded_input(self):
        # The cache may hold the padded input, never an im2col copy K times
        # its size; the window view must keep the (B, C, L, K) shape.
        batch, channels, length, k_size = 4, 6, 8, KERNEL_SIZE
        conv = Conv1D(channels, 5, np.random.default_rng(23))
        x = np.random.default_rng(24).standard_normal((batch, channels, length))
        _, cache = conv.forward(x)
        bounds = sorted(np.lib.array_utils.byte_bounds(v) for v in cache.values()
                        if isinstance(v, np.ndarray))
        spanned, reach = 0, -np.inf
        for low, high in bounds:
            spanned += max(high - max(low, reach), 0)
            reach = max(reach, high)
        assert spanned <= batch * (length + k_size - 1) * channels * 8
        assert cache["cols"].shape == (batch, channels, length, k_size)

    @pytest.mark.parametrize("taps", list(TAPS))
    @pytest.mark.parametrize("length", [1, 2, 3, 8])
    def test_input_gradient_equals_flipped_kernel_correlation(self, length, taps):
        # The input gradient is the same-padded correlation of the upstream
        # gradient with the flipped kernel, channels swapped: row j·O + o of
        # its (K·O, C) matrix holds weight[o, :, K-1-j]. Built here from K
        # shifted slices of a zeroed padded buffer, it must give the same bits.
        rng = np.random.default_rng(200 + 10 * KERNEL_SIZE + length)
        batch, channels, out_channels, k_size = 3, 4, 5, KERNEL_SIZE
        conv = Conv1D(channels, out_channels, rng)
        zero_taps(conv, taps)
        x = array_in_layout(rng, (batch, channels, length), channels_last=True)
        gy = array_in_layout(rng, (batch, out_channels, length), channels_last=True)
        _, cache = conv.forward(x)
        gx, grads = conv.backward(cache, gy)

        pad = k_size // 2
        gyp = np.zeros((batch, length + 2 * pad, out_channels))
        gyp[:, pad:pad + length] = gy.transpose(0, 2, 1)
        rows = np.concatenate([gyp[:, j:j + length] for j in range(k_size)], axis=2)
        flipped = np.empty((k_size * out_channels, channels))
        for j in range(k_size):
            for o in range(out_channels):
                flipped[j * out_channels + o] = conv.weight[o, :, k_size - 1 - j]
        want = rows.reshape(batch * length, -1) @ flipped
        assert np.array_equal(gx, want.reshape(batch, length, channels).transpose(0, 2, 1))
        assert grads["weight"].shape == conv.weight.shape
        assert grads["weight"].flags.f_contiguous  # the weight's layout

    def test_channel_mismatch(self):
        conv = Conv1D(3, 4, np.random.default_rng(3))
        with pytest.raises(ShapeMismatch):
            conv.forward(np.zeros((1, 2, 5)))


class TestBatchNorm:
    def test_train_mode_gradients(self):
        rng = np.random.default_rng(4)
        bn = BatchNorm(3)
        bn.gamma = rng.standard_normal(3)
        bn.beta = rng.standard_normal(3)
        check_layer_gradients(bn, rng.standard_normal((4, 3, 5)))

    # At inference a BatchNorm is folded into the Conv1D before it.

    def test_infer_mode_gradients(self):
        rng = np.random.default_rng(5)
        bn = BatchNorm(3)
        bn.gamma = rng.standard_normal(3)
        bn.beta = rng.standard_normal(3)
        bn.running_mean = rng.standard_normal(3)
        bn.running_var = rng.uniform(0.5, 2.0, 3)
        (conv,) = Network([Conv1D(2, 3, rng), bn]).folded().layers
        # the folded copy differentiates through its stored flipped kernel
        # and computes no parameter gradients
        x = rng.standard_normal((2, 2, 4))
        y, cache = conv.forward(x)
        upstream = rng.standard_normal(y.shape)
        gx, grads = conv.backward(cache, upstream)
        assert grads == {}
        loss = lambda v: float((conv.forward(v)[0] * upstream).sum())
        assert rel_err(gx, fd_gradient(loss, x.copy())) < 1e-4

    def test_infer_mode_is_affine(self):
        rng = np.random.default_rng(6)
        conv = Conv1D(2, 2, rng)
        conv.bias = rng.standard_normal(2)
        bn = BatchNorm(2)
        bn.running_mean = rng.standard_normal(2)
        bn.running_var = rng.uniform(0.5, 2.0, 2)
        bn.gamma = rng.standard_normal(2)
        bn.beta = rng.standard_normal(2)
        net = Network([conv, bn])
        x = rng.standard_normal((1, 2, 3))
        y = rng.standard_normal((1, 2, 3))
        f = lambda v: net.forward(v)[0]
        zero = f(np.zeros_like(x))
        assert np.allclose(f(x + y) - zero, (f(x) - zero) + (f(y) - zero), atol=1e-12)
        scale = bn.gamma / np.sqrt(bn.running_var + BN_EPS)
        want = ((conv.forward(x)[0] - bn.running_mean[:, None]) * scale[:, None]
                + bn.beta[:, None])
        assert np.allclose(f(x), want, atol=1e-12)

    def test_running_stats_update(self):
        rng = np.random.default_rng(7)
        bn = BatchNorm(2)
        x = rng.standard_normal((8, 2, 16))
        bn.forward(x)
        assert np.allclose(bn.running_mean, 0.1 * x.mean(axis=(0, 2)))
        assert np.allclose(bn.running_var, 0.9 * 1.0 + 0.1 * x.var(axis=(0, 2)))


    @pytest.mark.parametrize("channels_last", [False, True], ids=["c_order", "channels_last"])
    def test_train_mode_matches_two_pass_formula(self, channels_last):
        # Textbook batch statistics: x.mean and x.var over batch and length,
        # x̂ = (x - mean) / sqrt(var + eps), y = γ x̂ + β; bit for bit.
        rng = np.random.default_rng(8)
        bn = BatchNorm(6)
        bn.gamma = rng.standard_normal(6)
        bn.beta = rng.standard_normal(6)
        bn.running_mean = rng.standard_normal(6)
        bn.running_var = rng.uniform(0.5, 2.0, 6)
        running_mean, running_var = bn.running_mean.copy(), bn.running_var.copy()
        x = 3.0 * array_in_layout(rng, (16, 6, 24), channels_last) + 1.5
        y, cache = bn.forward(x)

        mean = x.mean(axis=(0, 2))
        var = x.var(axis=(0, 2))
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (x - mean[None, :, None]) * inv_std[None, :, None]
        assert np.array_equal(y, bn.gamma[None, :, None] * xhat + bn.beta[None, :, None])
        assert np.array_equal(cache["xhat"], xhat)
        m = BN_MOMENTUM
        assert np.array_equal(bn.running_mean, m * running_mean + (1.0 - m) * mean)
        assert np.array_equal(bn.running_var, m * running_var + (1.0 - m) * var)


class TestReLUSoftmax:
    def test_relu_definition(self):
        y, _ = ReLU().forward(np.array([[[-1.0, 0.0, 2.0]]]))
        assert np.allclose(y, [[[0.0, 0.0, 2.0]]])

    def test_relu_gradients(self):
        rng = np.random.default_rng(8)
        # keep inputs away from the kink
        x = rng.standard_normal((2, 3, 4))
        x[np.abs(x) < 0.1] += 0.2
        check_layer_gradients(ReLU(), x)

    def test_relu_backward_is_gy_where_the_input_is_positive(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 4, 5))
        x[0, 0, :3] = [0.0, -0.0, np.finfo(float).tiny]
        y, cache = ReLU().forward(x)
        gy = rng.standard_normal(x.shape)
        gx, grads = ReLU().backward(cache, gy)
        assert np.array_equal(gx, gy * (x > 0)) and grads == {}
        # a pass that keeps no record infers the same output without a mask
        assert np.array_equal(ReLU().infer(x), y)

    def test_softmax_uniform_on_zeros(self):
        y, _ = Softmax().forward(np.zeros((1, 5, 2)))
        assert np.allclose(y, 0.2)

    def test_softmax_columns_sum_to_one(self):
        rng = np.random.default_rng(9)
        y, _ = Softmax().forward(rng.standard_normal((3, 6, 4)) * 3.0)
        assert np.allclose(y.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(y >= 0.0) and np.all(y <= 1.0)

    def test_softmax_gradients(self):
        rng = np.random.default_rng(10)
        check_layer_gradients(Softmax(), rng.standard_normal((2, 4, 3)))


class TestPowerNorm:
    def test_fixed_point(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 4, 6))
        x *= np.sqrt((4 // 2) * 6 / (x ** 2).sum())  # unit mean complex power
        y, _ = PowerNorm(1.0).forward(x)
        assert np.allclose(y, x, atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 4, 5))
        pn = PowerNorm(1.5)
        y1, _ = pn.forward(x)
        y2, _ = pn.forward(3.7 * x)
        assert np.allclose(y1, y2, atol=1e-12)

    def test_output_power(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 8, 7))
        y, _ = PowerNorm(2.0).forward(x)
        n_complex = 4 * 7
        for b in range(3):
            power = (y[b] ** 2).sum() / n_complex
            assert power == pytest.approx(4.0, abs=1e-10)

    def test_gradients(self):
        rng = np.random.default_rng(14)
        check_layer_gradients(PowerNorm(1.3), rng.standard_normal((2, 4, 3)))

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInput):
            PowerNorm(1.0).forward(np.zeros((1, 2, 3)))

    def test_odd_channels_rejected(self):
        with pytest.raises(ShapeMismatch):
            PowerNorm(1.0).forward(np.zeros((1, 3, 3)))


class TestLosses:
    def test_bce_perfect_prediction(self):
        target = np.zeros((1, 4, 2))
        target[0, 1, :] = 1.0
        value, _ = bce_loss(target, target)
        assert value < 1e-10

    def test_bce_uniform_two_class(self):
        probs = np.full((1, 2, 3), 0.5)
        target = np.zeros((1, 2, 3))
        target[0, 0, :] = 1.0
        value, _ = bce_loss(probs, target)
        assert value == pytest.approx(np.log(2.0))

    def test_bce_gradient_fd(self):
        rng = np.random.default_rng(15)
        probs = rng.uniform(0.05, 0.95, (2, 3, 4))
        target = np.zeros_like(probs)
        target[:, 0, :] = 1.0
        _, grad = bce_loss(probs, target)
        fd = fd_gradient(lambda p: bce_loss(p, target)[0], probs.copy(), step=1e-7)
        assert rel_err(grad, fd) < 1e-6

    def test_bce_per_sample_matches_mean(self):
        rng = np.random.default_rng(16)
        probs = rng.uniform(0.05, 0.95, (3, 4, 2))
        target = np.zeros_like(probs)
        target[:, 1, :] = 1.0
        values, grads = bce_loss_per_sample(probs, target)
        for b in range(3):
            v, g = bce_loss(probs[b:b + 1], target[b:b + 1])
            assert values[b] == pytest.approx(v)
            assert np.allclose(grads[b], g[0])

    def test_ce_gradient_fd(self):
        rng = np.random.default_rng(17)
        probs = rng.uniform(0.05, 0.95, (2, 3, 4))
        target = np.zeros_like(probs)
        target[:, 2, :] = 1.0
        _, grad = cross_entropy_loss(probs, target)
        fd = fd_gradient(lambda p: cross_entropy_loss(p, target)[0], probs.copy(), step=1e-7)
        assert rel_err(grad, fd) < 1e-6


class TestNetwork:
    def test_three_layer_full_gradient_check(self):
        rng = np.random.default_rng(18)
        net = conv_stack([3, 6, 6, 2], rng)
        x = rng.standard_normal((2, 3, 5))
        y, rec = net.forward(x, record=True)
        upstream = rng.standard_normal(y.shape)
        grads, gx = net.backward(rec, upstream)

        def loss_of_input(xv):
            yy, _ = net.forward(xv, record=True)
            return float((yy * upstream).sum())

        assert rel_err(gx, fd_gradient(loss_of_input, x.copy())) < 1e-4

        for key in net.trainable_params():
            param = net.params()[key]

            def loss_of_param(pv, _key=key):
                old = net.params()[_key].copy()
                net.set_param(_key, pv)
                yy, _ = net.forward(x, record=True)
                net.set_param(_key, old)
                return float((yy * upstream).sum())

            assert rel_err(grads[key], fd_gradient(loss_of_param, param.copy())) < 1e-4, key

    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(19)
        net = conv_stack([2, 4, 2], rng)
        x = rng.standard_normal((1, 2, 4))
        y, rec = net.forward(x, record=True)
        grads, gx = net.backward(rec, np.zeros_like(y))
        assert np.allclose(gx, 0.0)
        assert all(np.allclose(g, 0.0) for g in grads.values())

    def test_missing_record(self):
        net = conv_stack([2, 2], np.random.default_rng(20))
        with pytest.raises(MissingRecord):
            net.backward(None, np.zeros((1, 2, 4)))

    def test_backward_consumes_its_record(self):
        # each cache is freed when its layer's backward returns, so a second
        # backward finds an empty record
        rng = np.random.default_rng(22)
        net = conv_stack([2, 4, 2], rng, final=Softmax())
        y, rec = net.forward(rng.standard_normal((3, 2, 5)), record=True)
        net.backward(rec, np.ones_like(y))
        assert rec == []
        with pytest.raises(MissingRecord):
            net.backward(rec, np.ones_like(y))

    def test_forward_without_record(self):
        rng = np.random.default_rng(21)
        net = conv_stack([2, 4, 2], rng, final=Softmax())
        x = rng.standard_normal((3, 2, 5))
        y, rec = net.forward(x)
        assert rec is None
        # the forward without a record runs the folded network
        assert np.array_equal(y, net.folded().forward(x, record=True)[0])
        with pytest.raises(MissingRecord):
            net.backward(rec, np.zeros_like(y))

    @pytest.mark.parametrize("name", ["encoder", "ris1", "ris2", "decoder"])
    def test_unrecorded_pass_fits_the_l2_cache(self, name):
        # the working set of a desk network's pass over a 512-block evaluation
        # chunk, beyond its output: about 1.6 MiB with 256-row slices, 3.13 MiB
        # with 512 and 6.25 MiB with 1,024
        cfg, rng = SystemConfig(), np.random.default_rng(24)
        net = getattr(build_autoencoder(cfg, rng).folded(), name)
        x = rng.standard_normal((512, net.layers[0].in_channels, cfg.block_len))
        tracemalloc.start()
        try:
            y, _ = net.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - y.nbytes < 2 * 2 ** 20, (name, peak - y.nbytes)


def one_layer_of_each_kind(rng):
    """Every layer kind on 4 input channels, parameters and running
    statistics away from their initial values."""
    conv = Conv1D(4, 6, rng)
    conv.bias = rng.standard_normal(6)
    bn = BatchNorm(4)
    bn.gamma = rng.standard_normal(4)
    bn.beta = rng.standard_normal(4)
    bn.running_mean = rng.standard_normal(4)
    bn.running_var = rng.uniform(0.5, 2.0, 4)
    return {"conv": conv, "batchnorm": bn, "relu": ReLU(), "softmax": Softmax(),
            "powernorm": PowerNorm(1.5)}


def stack_with_statistics(rng):
    """A conv stack whose BatchNorms have affine maps and running statistics
    away from the identity; folded, the kind of network the attacks
    differentiate."""
    net = conv_stack([4, 8, 8, 4], rng, final=Softmax())
    for bn in (layer for layer in net.layers if isinstance(layer, BatchNorm)):
        bn.gamma = rng.uniform(0.5, 2.0, bn.channels)
        bn.beta = rng.standard_normal(bn.channels)
        bn.running_mean = rng.standard_normal(bn.channels)
        bn.running_var = rng.uniform(0.5, 2.0, bn.channels)
    return net


def network_of_kind(rng, kind, train):
    """The network one layer kind is differentiated in: the layer alone (the
    stack unfolded) in training; at inference ("eval") the folded stack, or
    a Conv1D with a BatchNorm folded into it and then the layer, the pair
    alone for the BatchNorm kind."""
    if kind == "stack":
        net = stack_with_statistics(rng)
        return net if train else net.folded()
    layers = one_layer_of_each_kind(rng)
    if train:
        return Network([layers[kind]])
    lead = [Conv1D(4, 4, rng), layers["batchnorm"]]
    return Network(lead + ([] if kind == "batchnorm" else [layers[kind]])).folded()


def trainable_twin(net, rng):
    """A trainable network holding net's weights: each Conv1D rebuilt without
    a stored flipped kernel, the other layers shared."""
    twin = Network([Conv1D(layer.in_channels, layer.out_channels, rng)
                    if isinstance(layer, Conv1D) else layer for layer in net.layers])
    for key, value in net.params().items():
        twin.set_param(key, value)
    return twin


LAYER_KINDS = ["batchnorm", "conv", "powernorm", "relu", "softmax", "stack"]


class TestInputOnlyBackward:
    """The backward of a folded copy, the attacks' decoder gradient, computes
    the input gradient alone; a trainable network's computes every parameter
    gradient too."""

    @pytest.mark.parametrize("channels_last", [False, True], ids=["c_order", "channels_last"])
    @pytest.mark.parametrize("kind", LAYER_KINDS)
    def test_folded_network_computes_the_input_gradient_alone(self, kind, channels_last):
        rng = np.random.default_rng(27)
        net = network_of_kind(rng, kind, train=False)
        assert not any(isinstance(layer, BatchNorm) for layer in net.layers)
        twin = trainable_twin(net, rng)
        x = array_in_layout(rng, (3, 4, 5), channels_last)
        y, rec = net.forward(x, record=True)
        twin_y, twin_rec = twin.forward(x, record=True)
        assert np.array_equal(twin_y, y)
        gy = rng.standard_normal(y.shape)
        grads, gx = net.backward(rec, gy)
        twin_grads, twin_gx = twin.backward(twin_rec, gy)
        assert grads == {}
        assert np.array_equal(gx, twin_gx)
        assert sorted(twin_grads) == sorted(twin.trainable_params())

    @pytest.mark.parametrize("channels_last", [False, True], ids=["c_order", "channels_last"])
    @pytest.mark.parametrize("kind", LAYER_KINDS)
    def test_trainable_network_computes_every_parameter_gradient(self, kind, channels_last):
        rng = np.random.default_rng(27)
        net = network_of_kind(rng, kind, train=True)
        y, rec = net.forward(array_in_layout(rng, (3, 4, 5), channels_last), record=True)
        grads, _ = net.backward(rec, rng.standard_normal(y.shape))
        assert sorted(grads) == sorted(net.trainable_params())

    def test_network_without_batchnorm_is_its_own_folded_network_and_trains(self):
        rng = np.random.default_rng(28)
        net = Network([Conv1D(4, 6, rng)])
        assert net.folded() is net
        x = rng.standard_normal((2, 4, 5))
        y, rec = net.forward(x, record=True)
        gy = rng.standard_normal(y.shape)
        grads, _ = net.backward(rec, gy)
        _, _, g_w, g_b = conv_oracle(x, net.layers[0].weight, net.layers[0].bias, gy)
        assert sorted(grads) == ["layer0.bias", "layer0.weight"]
        assert_close(grads["layer0.weight"], g_w)
        assert_close(grads["layer0.bias"], g_b)

    def test_folding_leaves_the_network_trainable(self):
        rng = np.random.default_rng(29)
        net = stack_with_statistics(rng)
        net.folded()
        y, rec = net.forward(rng.standard_normal((3, 4, 5)), record=True)
        grads, _ = net.backward(rec, rng.standard_normal(y.shape))
        assert sorted(grads) == sorted(net.trainable_params())


# The decoders the attacks differentiate: 40 input channels on the desk
# preset, 544 on the paper preset, of which the first 2·n_r are the received signal
DECODER_CONFIGS = {"desk": SystemConfig(), "paper": paper_preset().system}
# (preset, batch): rmaef's one-block gradient and the minimal-flip search's
# m-target batch at each preset, and a 64-block batch at the desk
CUT_BATCHES = [("desk", 1), ("desk", 16), ("desk", 64), ("paper", 64)]


def decoder_with_statistics(cfg, rng):
    """The cfg decoder with BatchNorm maps and running statistics away from
    the identity."""
    net = build_autoencoder(cfg, rng).decoder
    for bn in (layer for layer in net.layers if isinstance(layer, BatchNorm)):
        bn.gamma = rng.uniform(0.5, 2.0, bn.channels)
        bn.beta = rng.standard_normal(bn.channels)
        bn.running_mean = rng.standard_normal(bn.channels)
        bn.running_var = rng.uniform(0.5, 2.0, bn.channels)
    return net


def flipped_kernel(weight):
    """The input gradient's (K·O, C) kernel by its definition: row j·O + o
    holds weight[o, :, K-1-j]."""
    out_channels, channels, k_size = weight.shape
    flipped = np.empty((k_size * out_channels, channels))
    for j in range(k_size):
        for o in range(out_channels):
            flipped[j * out_channels + o] = weight[o, :, k_size - 1 - j]
    return flipped


class TestInputChannelCut:
    """``backward(..., inputs=k)`` computes only the first k input channels,
    folded copies keep their flipped kernel, and the window view is the
    sliding-window view."""

    @pytest.mark.parametrize("stored", [False, True], ids=["built", "stored"])
    @pytest.mark.parametrize("preset, batch", CUT_BATCHES)
    def test_conv_cut_is_the_first_channels_bit_for_bit(self, preset, batch, stored):
        cfg = DECODER_CONFIGS[preset]
        rng = np.random.default_rng(60)
        conv = Conv1D(cfg.decoder_channels, cfg.hidden_width, rng)
        if stored:
            conv = Network([conv, BatchNorm(cfg.hidden_width)]).folded().layers[0]
        x = rng.standard_normal((batch, cfg.decoder_channels, cfg.block_len))
        gy = array_in_layout(rng, (batch, cfg.hidden_width, cfg.block_len), True)
        _, cache = conv.forward(x)
        full, _ = conv.backward(cache, gy)
        cut, _ = conv.backward(cache, gy, inputs=2 * cfg.n_r)
        assert cut.shape == (batch, 2 * cfg.n_r, cfg.block_len)
        assert np.array_equal(cut, full[:, :2 * cfg.n_r])

    def test_paper_one_block_cut_is_equal_to_rounding(self):
        # At one or two paper blocks (20 or 40 GEMM rows) the cut product is
        # small enough for OpenBLAS's small-matrix kernel, which sums the 768
        # products in another order than the full 544-column product does
        cfg = DECODER_CONFIGS["paper"]
        rng = np.random.default_rng(61)
        conv = Conv1D(cfg.decoder_channels, cfg.hidden_width, rng)
        _, cache = conv.forward(rng.standard_normal((1, cfg.decoder_channels, cfg.block_len)))
        gy = rng.standard_normal((1, cfg.hidden_width, cfg.block_len))
        full, _ = conv.backward(cache, gy)
        cut, _ = conv.backward(cache, gy, inputs=2 * cfg.n_r)
        assert_close(cut, full[:, :2 * cfg.n_r], rtol=1e-14)

    @pytest.mark.parametrize("train", [True, False], ids=["train", "folded"])
    @pytest.mark.parametrize("preset, batch", CUT_BATCHES)
    def test_network_cut_is_the_first_channels_bit_for_bit(self, preset, batch, train):
        cfg = DECODER_CONFIGS[preset]
        rng = np.random.default_rng(62)
        net = decoder_with_statistics(cfg, rng)
        net = net if train else net.folded()
        x = rng.standard_normal((batch, cfg.decoder_channels, cfg.block_len))
        y, rec = net.forward(x, record=True)
        gy = rng.standard_normal(y.shape)
        full_grads, full = net.backward(list(rec), gy)
        grads, cut = net.backward(rec, gy, inputs=2 * cfg.n_r)
        assert np.array_equal(cut, full[:, :2 * cfg.n_r])
        assert grads.keys() == full_grads.keys()
        assert all(np.array_equal(grads[key], full_grads[key]) for key in grads)

    def test_zero_inputs_runs_no_input_gradient_gemm(self, monkeypatch):
        # the input-gradient GEMM multiplies a window view of gy by the
        # flipped kernel; at inputs=0 the first Conv1D builds neither
        rng = np.random.default_rng(63)
        net = conv_stack([4, 8, 8, 4], rng)
        x = rng.standard_normal((3, 4, 5))
        y, rec = net.forward(x, record=True)
        gy = rng.standard_normal(y.shape)
        full_grads, _ = net.backward(list(rec), gy)
        built = {"windows": 0, "kernels": 0}
        windows, kernel = neural._windows, Conv1D._flipped_matrix

        def count_windows(a):
            built["windows"] += 1
            return windows(a)

        def count_kernels(conv):
            built["kernels"] += 1
            return kernel(conv)

        monkeypatch.setattr(neural, "_windows", count_windows)
        monkeypatch.setattr(Conv1D, "_flipped_matrix", count_kernels)
        grads, gx = net.backward(rec, gy, inputs=0)
        assert built == {"windows": 2, "kernels": 2}  # the second and third Conv1D only
        assert gx.shape == (3, 0, 5)
        assert all(np.array_equal(grads[key], full_grads[key]) for key in full_grads)

    def test_folded_copy_stores_the_kernel_of_its_folded_weight(self):
        net = decoder_with_statistics(DECODER_CONFIGS["desk"], np.random.default_rng(64))
        for conv in (layer for layer in net.folded().layers if isinstance(layer, Conv1D)):
            assert np.array_equal(conv.flipped, flipped_kernel(conv.weight))
        assert all(layer.flipped is None for layer in net.layers if isinstance(layer, Conv1D))

    def test_trainable_conv_gradient_follows_its_weight_after_a_step(self):
        rng = np.random.default_rng(65)
        net = Network([Conv1D(3, 4, rng)])
        conv = net.layers[0]
        x = rng.standard_normal((2, 3, 5))
        y, rec = net.forward(x, record=True)
        gy = rng.standard_normal(y.shape)
        grads, before = net.backward(list(rec), gy)
        adam_step(net.trainable_params(), grads, AdamState(lr=0.1))
        _, after = net.backward(rec, gy)
        assert_close(after, conv_oracle(x, conv.weight, conv.bias, gy)[1])
        assert not np.allclose(after, before)

    @pytest.mark.parametrize("channels_last", [False, True], ids=["c_order", "channels_last"])
    # lengths 1 and 2 are shorter than the kernel: every window reaches a pad
    @pytest.mark.parametrize("length", [1, 2, 6], ids=lambda n: f"length{n}")
    def test_window_view_is_the_sliding_window_view(self, length, channels_last):
        rng = np.random.default_rng(66)
        x = array_in_layout(rng, (3, 4, length), channels_last)
        pad = KERNEL_SIZE // 2
        xp = np.pad(x.transpose(0, 2, 1), ((0, 0), (pad, pad), (0, 0)))
        want = sliding_window_view(xp, KERNEL_SIZE, axis=1).transpose(0, 2, 1, 3)
        got = neural._windows(x)
        assert (got.shape, got.strides) == (want.shape, want.strides)
        assert np.array_equal(got, want)
        assert not got.flags.writeable and not want.flags.writeable


class TestChannelsLastNetwork:
    """The desk decoder stack, whose Conv1D activations are channels-last views."""

    def decoder(self, rng):
        return conv_stack([40, 128, 128, 16], rng, final=Softmax())

    def test_matches_loop_oracle_network(self):
        rng = np.random.default_rng(25)
        net = self.decoder(rng)
        oracle = copy.deepcopy(net)
        oracle.layers = [OracleConv(layer) if isinstance(layer, Conv1D) else layer
                         for layer in oracle.layers]
        x = rng.standard_normal((6, 40, 8))
        upstream = rng.standard_normal((6, 16, 8))
        y, rec = net.forward(x, record=True)
        want_y, want_rec = oracle.forward(x, record=True)
        assert y.strides[1] < y.strides[2]  # channels-last reached the softmax
        assert_close(y, want_y)
        grads, gx = net.backward(rec, upstream)
        want_grads, want_gx = oracle.backward(want_rec, upstream)
        assert_close(gx, want_gx)
        keys = sorted(net.trainable_params())
        assert sorted(grads) == sorted(want_grads) == keys
        # One vector: the conv biases feeding train-mode batchnorm have
        # gradients that are zero up to rounding, with no scale of their own.
        assert_close(np.concatenate([grads[k].ravel() for k in keys]),
                     np.concatenate([want_grads[k].ravel() for k in keys]))
        for key, value in net.params().items():
            assert_close(value, oracle.params()[key])

    def test_checkpoint_round_trip_after_step(self, tmp_path):
        rng = np.random.default_rng(26)
        net = self.decoder(rng)
        x = rng.standard_normal((6, 8, 40)).transpose(0, 2, 1)
        y, rec = net.forward(x, record=True)
        grads, _ = net.backward(rec, rng.standard_normal(y.shape))
        adam_step(net.trainable_params(), grads, AdamState(lr=1e-2))
        path = tmp_path / "decoder.ckpt"
        save_checkpoint(path, {"dec": net}, meta={})
        loaded, _ = load_checkpoint(path)
        assert sorted(loaded["dec"]) == sorted(net.params())
        rebuilt = self.decoder(np.random.default_rng(0))
        for key, value in loaded["dec"].items():
            assert np.array_equal(value, net.params()[key])
            rebuilt.set_param(key, value)
        assert np.array_equal(rebuilt.forward(x)[0], net.forward(x)[0])

    def test_weight_matrix_is_a_view_when_built_stepped_and_loaded(self, tmp_path):
        # Conv1D keeps its weight as the view of a C-ordered (K, C, O) array,
        # so every forward reshapes it to the matrix for free
        def views(net):
            return [np.shares_memory(layer._weight_matrix(), layer.weight)
                    for layer in net.layers if isinstance(layer, Conv1D)]

        rng = np.random.default_rng(29)
        net = self.decoder(rng)
        assert views(net) == [True] * 3
        x = rng.standard_normal((6, 40, 8))
        y, rec = net.forward(x, record=True)
        grads, _ = net.backward(rec, rng.standard_normal(y.shape))
        adam_step(net.trainable_params(), grads, AdamState(lr=1e-2))
        assert views(net) == [True] * 3
        save_checkpoint(tmp_path / "decoder.ckpt", {"dec": net}, meta={})
        loaded = self.decoder(np.random.default_rng(0))
        for key, value in load_checkpoint(tmp_path / "decoder.ckpt")[0]["dec"].items():
            loaded.set_param(key, value)
            assert np.array_equal(loaded.params()[key], value)
        assert views(loaded) == [True] * 3


class TestAdam:
    def test_zero_gradient_no_update(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState(lr=0.1)
        adam_step(params, {"w": np.zeros(2)}, state)
        assert np.allclose(params["w"], [1.0, -2.0])

    def test_first_step_approx_sign(self):
        params = {"w": np.array([0.0, 0.0])}
        g = np.array([0.3, -0.7])
        state = AdamState(lr=0.01)
        adam_step(params, {"w": g.copy()}, state)
        assert np.allclose(params["w"], -0.01 * np.sign(g), atol=1e-6)

    def test_converges_on_quadratic(self):
        params = {"x": np.array([1.0])}
        state = AdamState(lr=0.1)
        for _ in range(200):
            adam_step(params, {"x": 2.0 * params["x"]}, state)
        assert abs(params["x"][0]) < 0.05


    def test_matches_textbook_update_over_three_steps(self):
        # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2, bias-corrected step,
        # written out per parameter; the in-place update must give the same
        # bits, also for a strided gradient view.
        rng = np.random.default_rng(9)
        params = {"w": rng.standard_normal((5, 4, 3)), "b": rng.standard_normal(5)}
        want = {key: value.copy() for key, value in params.items()}
        m = {key: np.zeros_like(value) for key, value in params.items()}
        v = {key: np.zeros_like(value) for key, value in params.items()}
        state = AdamState(lr=1e-2)
        b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPS, state.lr
        for t in range(1, 4):
            grads = {"w": rng.standard_normal((5, 3, 4)).transpose(0, 2, 1),
                     "b": rng.standard_normal(5)}
            adam_step(params, grads, state)
            for key, g in grads.items():
                m[key] = b1 * m[key] + (1.0 - b1) * g
                v[key] = b2 * v[key] + (1.0 - b2) * g * g
                m_hat = m[key] / (1.0 - b1 ** t)
                v_hat = v[key] / (1.0 - b2 ** t)
                want[key] = want[key] - lr * m_hat / (np.sqrt(v_hat) + eps)
            for key in params:
                assert np.array_equal(params[key], want[key])
                assert np.array_equal(state.m[key], m[key])
                assert np.array_equal(state.v[key], v[key])


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        nets = {"enc": conv_stack([2, 4, 2], rng, final=PowerNorm(1.0)),
                "dec": conv_stack([2, 4, 3], rng, final=Softmax())}
        nets["enc"].layers[1].running_mean = rng.standard_normal(4)
        path = tmp_path / "weights.ckpt"
        save_checkpoint(path, nets, meta={"note": "test"})
        loaded, meta = load_checkpoint(path)
        assert meta == {"note": "test"}
        assert sorted(loaded) == sorted(nets)
        for name, net in nets.items():
            assert sorted(loaded[name]) == sorted(net.params())
            for key, value in net.params().items():
                assert np.array_equal(loaded[name][key], value)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("where", ["header_length", "header", "mid_array",
                                       "between_arrays", "last_element"])
    def test_rejects_truncated_file(self, tmp_path, where):
        rng = np.random.default_rng(22)
        path = tmp_path / "weights.ckpt"
        save_checkpoint(path, {"dec": conv_stack([2, 4, 3], rng, final=Softmax())}, meta={})
        data = path.read_bytes()
        (header_len,) = struct.unpack("<I", data[12:16])
        arrays_start = 16 + header_len
        first = json.loads(data[16:arrays_start])["arrays"][0]
        first_bytes = 8 * int(np.prod(first["shape"]))
        cut = {"header_length": 12,
               "header": 16 + header_len // 2,
               "mid_array": arrays_start + 8 + 3,
               "between_arrays": arrays_start + first_bytes,  # an 8-byte boundary
               "last_element": len(data) - 8}[where]
        path.write_bytes(data[:cut])
        with pytest.raises(CorruptCheckpoint, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda h: {},
        lambda h: [],
        lambda h: h.update(meta=[]),
    ], ids=["empty", "not-object", "meta-not-object"])
    def test_rejects_malformed_header(self, tmp_path, edit):
        # valid JSON of the wrong structure is a corrupt checkpoint, not a crash
        path = tmp_path / "weights.ckpt"
        save_checkpoint(path, {"dec": conv_stack([2, 4, 3], np.random.default_rng(27),
                                                 final=Softmax())}, meta={})
        data = path.read_bytes()
        (header_len,) = struct.unpack("<I", data[12:16])
        header = json.loads(data[16:16 + header_len])
        edited = edit(header)
        text = json.dumps(header if edited is None else edited).encode("utf-8")
        path.write_bytes(data[:12] + struct.pack("<I", len(text)) + text
                         + data[16 + header_len:])
        with pytest.raises(CorruptCheckpoint, match="malformed checkpoint header"):
            load_checkpoint(path)
