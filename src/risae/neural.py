"""Minimal differentiable 1-D CNN engine.

Forward and exact reverse-mode gradients (with respect to parameters and
inputs; on a folded copy, inputs alone) for the handful of layer kinds the
autoencoder needs: Conv1D with same padding, batch normalization, ReLU,
channel-axis softmax, and the non-trainable power normalization. All arrays
are float64 with shape (batch, channels, length); complex signals travel as
stacked real/imaginary channel halves. Layers accept any strides. Conv1D
returns its output and its input gradient as channels-last views, transposes
of C-ordered (batch, length, channels) arrays; the elementwise layers
downstream keep that layout.

Forward/backward on distinct activation records are independent; parameter
updates assume a single writer.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import CorruptCheckpoint, DegenerateInput, MissingRecord, ShapeMismatch

PROB_CLAMP = 1e-12
# The network settings no run varies: the convolution width of every
# conv_stack layer, and BatchNorm's variance offset and running-estimate decay
KERNEL_SIZE = 3
BN_EPS = 1e-5
BN_MOMENTUM = 0.9


def _check_input(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeMismatch(f"expected (batch, channels, length) input, got shape {x.shape}")
    return x


class Layer:
    """What a layer declares once: ``trainable`` the parameters Adam updates
    and ``state`` the further arrays a checkpoint keeps."""

    trainable: tuple[str, ...] = ()
    state: tuple[str, ...] = ()

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.trainable + self.state}

    def infer(self, x: np.ndarray) -> np.ndarray:
        """The output of forward, in a pass that keeps no cache."""
        return self.forward(x)[0]


class Conv1D(Layer):
    """Cross-correlation along the length axis with zero same-padding.

    Weight shape (out_channels, in_channels, kernel_size), the view of a
    C-ordered (K, C, O) array, so the weight matrix is a reshape; the odd
    kernel_size keeps the output length equal to the input length.
    """

    trainable = ("weight", "bias")
    kernel_size = KERNEL_SIZE
    flipped: np.ndarray | None = None  # set by Network.folded on copies nothing steps

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator):
        self.in_channels = in_channels
        self.out_channels = out_channels
        limit = np.sqrt(6.0 / (in_channels * KERNEL_SIZE + out_channels * KERNEL_SIZE))
        self.weight = np.asfortranarray(
            rng.uniform(-limit, limit, size=(out_channels, in_channels, KERNEL_SIZE)))
        self.bias = np.zeros(out_channels)

    def _weight_matrix(self) -> np.ndarray:
        """The weight as a (K·C, O) matrix, row k·C + c holding weight[:, c, k]."""
        return self.weight.transpose(2, 1, 0).reshape(-1, self.out_channels)

    def forward(self, x: np.ndarray):
        x = _check_input(x)
        if x.shape[1] != self.in_channels:
            raise ShapeMismatch(f"conv expects {self.in_channels} channels, got {x.shape[1]}")
        batch, _, length = x.shape
        cols = _windows(x)  # backward rebuilds the K-times larger im2col of it
        y = _im2col(cols) @ self._weight_matrix()
        y += self.bias
        # Channels-last (B, O, L) view: BatchNorm's reductions over axes
        # (0, 2) run much faster on this layout than on a C-ordered copy.
        return y.reshape(batch, length, -1).transpose(0, 2, 1), {"cols": cols}

    def backward(self, cache: dict, gy: np.ndarray, inputs: int | None = None):
        """Parameter gradients unless folded (``flipped`` set), and the gradient
        of the first ``inputs`` input channels (default all; at 0, no GEMM runs)."""
        batch, channels, length, k_size = cache["cols"].shape
        grads = {}
        if self.flipped is None:
            g2 = gy.transpose(0, 2, 1).reshape(batch * length, self.out_channels)
            g_w = (g2.T @ _im2col(cache["cols"])).reshape(self.out_channels, k_size, channels)
            g_w = np.asfortranarray(g_w.transpose(0, 2, 1))  # the weight's layout
            grads = {"weight": g_w, "bias": g2.sum(axis=0)}
        inputs = channels if inputs is None else inputs
        if inputs == 0:
            return np.empty((batch, 0, length)), grads
        gx = _im2col(_windows(gy)) @ self._flipped_matrix()[:, :inputs]
        return gx.reshape(batch, length, inputs).transpose(0, 2, 1), grads

    def _flipped_matrix(self) -> np.ndarray:
        """The (K·O, C) kernel of the input gradient, stored on folded copies.
        The adjoint of a same-padded correlation is the same correlation of
        the padded upstream gradient with the flipped kernel: window t, tap
        j reads output t + j - pad, so row j·O + o holds weight[o, :, K-1-j]."""
        if self.flipped is not None:
            return self.flipped
        return self.weight[:, :, ::-1].transpose(2, 0, 1).reshape(-1, self.in_channels)


def _windows(x: np.ndarray) -> np.ndarray:
    """(B, C, L, K) window view of a (B, C, L) array zero-padded by K // 2 at both
    ends, K = KERNEL_SIZE, built channels-last: window l holds what output l reads."""
    batch, channels, length = x.shape
    pad = KERNEL_SIZE // 2
    xp = np.empty((batch, length + 2 * pad, channels))
    xp[:, :pad] = 0.0
    xp[:, pad + length:] = 0.0
    xp[:, pad:pad + length] = x.transpose(0, 2, 1)
    sb, sl, sc = xp.strides
    return as_strided(xp, (batch, channels, length, KERNEL_SIZE), (sb, sc, sl, sl), writeable=False)


def _im2col(cols: np.ndarray) -> np.ndarray:
    """(B·L, K·C) matrix of a (B, C, L, K) window view: row b·L + l holds the
    K padded input columns that output position l reads, tap-major."""
    batch, channels, length, k_size = cols.shape
    return cols.transpose(0, 2, 3, 1).reshape(batch * length, k_size * channels)


class BatchNorm(Layer):
    """Per-channel normalization over the batch and length axes.

    The forward normalizes with batch statistics, offset by BN_EPS, and
    updates the running estimates as
    running = BN_MOMENTUM * running + (1 - BN_MOMENTUM) * batch.
    Inference folds the running estimates into the Conv1D before the layer
    (``Network.folded``).
    """

    trainable = ("gamma", "beta")
    state = ("running_mean", "running_var")

    def __init__(self, channels: int):
        self.channels = channels
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def forward(self, x: np.ndarray):
        x = _check_input(x)
        if x.shape[1] != self.channels:
            raise ShapeMismatch(f"batchnorm expects {self.channels} channels, got {x.shape[1]}")
        # One centring pass serves the variance and x̂, and x̂ and y are
        # written in place; the sums are those of x.var, so the statistics
        # and y match the textbook formula bit for bit.
        mean = x.mean(axis=(0, 2))
        xhat = x - mean[None, :, None]
        y = np.multiply(xhat, xhat)
        var = y.sum(axis=(0, 2)) / (x.shape[0] * x.shape[2])
        self.running_mean = BN_MOMENTUM * self.running_mean + (1.0 - BN_MOMENTUM) * mean
        self.running_var = BN_MOMENTUM * self.running_var + (1.0 - BN_MOMENTUM) * var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv_std[None, :, None]
        np.multiply(xhat, self.gamma[None, :, None], out=y)
        y += self.beta[None, :, None]
        return y, {"xhat": xhat, "inv_std": inv_std}

    def backward(self, cache: dict, gy: np.ndarray):
        xhat = cache["xhat"]
        inv_std = cache["inv_std"]
        g_gamma = np.einsum("bcl,bcl->c", gy, xhat)  # the input gradient needs both
        g_beta = gy.sum(axis=(0, 2))
        # (γ·inv_std/n)(n·gy − g_β − x̂·g_γ), as γ·inv_std·(gy − (g_β + x̂·g_γ)/n)
        n = xhat.shape[0] * xhat.shape[2]
        gx = xhat * (g_gamma / n)[None, :, None]
        gx += (g_beta / n)[None, :, None]
        np.subtract(gy, gx, out=gx)
        gx *= (self.gamma * inv_std)[None, :, None]
        return gx, {"gamma": g_gamma, "beta": g_beta}


class ReLU(Layer):
    def forward(self, x: np.ndarray):
        x = _check_input(x)
        return np.maximum(x, 0.0), {"mask": x > 0.0}

    def infer(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(_check_input(x), 0.0)  # no mask, which only a backward reads

    def backward(self, cache: dict, gy: np.ndarray):
        return gy * cache["mask"], {}


class Softmax(Layer):
    """Softmax over the channel axis; every output column sums to one."""

    def forward(self, x: np.ndarray):
        x = _check_input(x)
        z = x - x.max(axis=1, keepdims=True)
        ez = np.exp(z)
        y = ez / ez.sum(axis=1, keepdims=True)
        return y, {"y": y}

    def backward(self, cache: dict, gy: np.ndarray):
        y = cache["y"]
        inner = (gy * y).sum(axis=1, keepdims=True)
        return y * (gy - inner), {}


class PowerNorm(Layer):
    """Non-trainable rescaling so each block's mean complex-entry squared
    magnitude equals target_power**2.

    The first half of the channels holds real parts, the second half the
    matching imaginary parts; the mean runs over all complex entries of one
    batch element.
    """

    def __init__(self, target_power: float):
        if target_power <= 0.0:
            raise ValueError("target_power must be > 0")
        self.target_power = target_power

    def forward(self, x: np.ndarray):
        x = _check_input(x)
        if x.shape[1] % 2 != 0:
            raise ShapeMismatch("powernorm input needs an even channel count (re/im stacking)")
        n_complex = (x.shape[1] // 2) * x.shape[2]
        mean_power = np.einsum("bcl,bcl->b", x, x) / n_complex
        if np.any(mean_power < 1e-30):
            raise DegenerateInput("block power below 1e-30; cannot normalize")
        scale = self.target_power / np.sqrt(mean_power)
        y = x * scale[:, None, None]
        return y, {"x": x, "scale": scale, "mean_power": mean_power, "n_complex": n_complex}

    def backward(self, cache: dict, gy: np.ndarray):
        x = cache["x"]
        scale = cache["scale"]
        n_complex = cache["n_complex"]
        dot = np.einsum("bcl,bcl->b", gy, x)
        gx = gy * scale[:, None, None] - x * (
            scale / (cache["mean_power"] * n_complex) * dot)[:, None, None]
        return gx, {}


# Rows (blocks times block length) per slice of a forward without a record.
# Per row, the widest desk layer (a 128 -> 128 Conv1D of kernel 3) holds its
# input (128 floats), padded copy (160: 10 positions per 8-row block), im2col
# row (384) and output (128). A 256-row slice (32 desk blocks) thus takes
# 256 x 800 x 8 B, about 1.6 MiB, and stays in a 2 MiB L2 cache
INFERENCE_ROWS = 256


class Network:
    """Ordered layer stack with a recorded forward pass and exact backward."""

    def __init__(self, layers: list[Layer]):
        self.layers = layers

    def params(self) -> dict[str, np.ndarray]:
        return {f"layer{i}.{name}": value for i, layer in enumerate(self.layers)
                for name, value in layer.params().items()}

    def trainable_params(self) -> dict[str, np.ndarray]:
        return {f"layer{i}.{name}": getattr(layer, name) for i, layer in enumerate(self.layers)
                for name in layer.trainable}

    def set_param(self, key: str, value: np.ndarray) -> None:
        layer_tag, name = key.split(".", 1)
        layer = self.layers[int(layer_tag.removeprefix("layer"))]
        current = layer.params()[name]
        if current.shape != value.shape:
            raise ShapeMismatch(f"{key}: expected shape {current.shape}, got {value.shape}")
        current[...] = value  # in place, so a Conv1D weight keeps its layout

    def forward(self, x: np.ndarray, record: bool = False):
        """Output, and with record=True the activation record backward() needs.
        With a record, this network's own layers run: on a network that still
        has its BatchNorms, a recorded forward is a training step, which
        updates their running estimates. Without one, the folded layers infer
        over slices of at most INFERENCE_ROWS rows, written into one output in
        the layout of a single pass; they treat every block alone, so the
        output is that single pass's bit for bit."""
        if record:
            caches = []
            y = x
            for layer in self.layers:
                y, cache = layer.forward(y)
                caches.append(cache)
            return y, caches
        layers = self.folded().layers
        x = _check_input(x)
        step = max(1, INFERENCE_ROWS // max(1, x.shape[2]))
        out = None
        for start in range(0, max(1, len(x)), step):
            y = x[start:start + step]
            for layer in layers:
                y = layer.infer(y)
            if out is None:
                out = np.empty_like(y, shape=(len(x), *y.shape[1:]))
            out[start:start + step] = y
        return out, None

    def backward(self, record, gy: np.ndarray, inputs: int | None = None):
        """Gradients of the recorded forward pass.

        Returns (param gradients keyed like params(), input gradient): every
        trainable parameter's, but none, an empty dict, on a ``folded`` copy.
        The input gradient holds the first ``inputs`` input channels (default
        all), the ones the caller reads; the first layer must then be a Conv1D,
        which computes no other and at 0 runs no input-gradient GEMM. The
        attacks ask for the received signal's channels, training asks the
        encoder for none. Each layer's cache is popped from the record and
        freed when that layer's backward returns: the record ends empty, and a
        second backward on it raises MissingRecord.
        """
        if record is None:
            raise MissingRecord("forward() was not run with recording")
        if len(record) != len(self.layers):
            raise MissingRecord("activation record does not match the layer stack")
        grads: dict[str, np.ndarray] = {}
        g = gy
        for i in reversed(range(len(self.layers))):
            cut = () if i or inputs is None else (inputs,)  # a first Conv1D's argument
            g, layer_grads = self.layers[i].backward(record.pop(), g, *cut)
            for name, value in layer_grads.items():
                grads[f"layer{i}.{name}"] = value
        return grads, g

    def folded(self) -> Network:
        """An inference copy with every BatchNorm's running estimates folded
        into the Conv1D before it (``conv_stack`` puts one before each):
        weight W·s and bias (b − μ)·s + β, with s = γ / sqrt(σ² + eps). Nothing
        steps the copies, so each keeps its flipped input-gradient kernel and
        computes no parameter gradients. The other layers are shared and this
        network is left unchanged; one without BatchNorm is its own folded
        network and still trains."""
        if not any(isinstance(layer, BatchNorm) for layer in self.layers):
            return self
        layers: list[Layer] = []
        for layer in self.layers:
            if isinstance(layer, BatchNorm):
                conv = layers[-1]
                scale = layer.gamma / np.sqrt(layer.running_var + BN_EPS)
                conv.weight *= scale[:, None, None]
                conv.bias = (conv.bias - layer.running_mean) * scale + layer.beta
            elif isinstance(layer, Conv1D):
                conv = Conv1D.__new__(Conv1D)  # copy.copy would cache __slotnames__
                vars(conv).update(vars(layer), weight=np.array(layer.weight, order="F"),
                                  bias=layer.bias.copy())
                layers.append(conv)
            else:
                layers.append(layer)
        for conv in layers:
            if isinstance(conv, Conv1D):  # its weight is final: the fold has scaled it
                conv.flipped = conv._flipped_matrix()
        return Network(layers)


def conv_stack(channel_sizes: list[int], rng: np.random.Generator,
               final: Layer | None = None) -> Network:
    """KERNEL_SIZE-wide Conv1D stack with BatchNorm + ReLU after every hidden
    convolution.

    channel_sizes runs [in, hidden..., out]; the last convolution is left
    linear unless a final layer is given.
    """
    layers: list[Layer] = []
    n = len(channel_sizes) - 1
    for i in range(n):
        layers.append(Conv1D(channel_sizes[i], channel_sizes[i + 1], rng))
        if i < n - 1:
            layers.append(BatchNorm(channel_sizes[i + 1]))
            layers.append(ReLU())
    if final is not None:
        layers.append(final)
    return Network(layers)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def log_loss(probs: np.ndarray, target: np.ndarray, kind: str):
    """Element-wise log-loss terms of probs against a one-hot target, and
    their exact gradients with respect to probs.

    kind "bce" scores every entry as a binary event, "ce" only the target
    entries (categorical cross entropy). Probabilities are clamped to
    [PROB_CLAMP, 1 - PROB_CLAMP] before the logs.
    """
    probs = np.asarray(probs, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if probs.shape != target.shape:
        raise ShapeMismatch(f"probs shape {probs.shape} != target shape {target.shape}")
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    if kind == "ce":
        return -(target * np.log(p)), -(target / p)
    return (-(target * np.log(p) + (1.0 - target) * np.log(1.0 - p)),
            -(target / p - (1.0 - target) / (1.0 - p)))


def bce_loss(probs: np.ndarray, target: np.ndarray):
    """Binary cross entropy: the mean over all entries and its gradient."""
    terms, grad = log_loss(probs, target, "bce")
    return float(terms.sum() / terms.size), grad / terms.size


def bce_loss_per_sample(probs: np.ndarray, target: np.ndarray):
    """Per-sample BCE over a batch: loss vector plus per-sample-mean gradients."""
    terms, grad = log_loss(probs, target, "bce")
    count = terms.shape[1] * terms.shape[2]
    return terms.sum(axis=(1, 2)) / count, grad / count


def cross_entropy_loss(probs: np.ndarray, target: np.ndarray):
    """Categorical cross entropy: the mean over all columns and its gradient."""
    terms, grad = log_loss(probs, target, "ce")
    columns = terms.shape[0] * terms.shape[2]
    return float(terms.sum() / columns), grad / columns


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

# Adam's decay rates and denominator offset, at the values of Kingma & Ba
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates and step counter for one parameter set."""

    lr: float = 1e-3
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState) -> None:
    """Standard Adam update with bias correction; updates params and both
    moments in place."""
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for key, g in grads.items():
        p = params[key]
        if g.shape != p.shape:
            raise ShapeMismatch(f"{key}: grad shape {g.shape} != param shape {p.shape}")
        if key not in state.m:  # both moments start at zero
            state.m[key], state.v[key] = np.zeros_like(p), np.zeros_like(p)
        m, v = state.m[key], state.v[key]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= state.lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + ADAM_EPS)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"RISAECK1"
_CKPT_VERSION = 1


def save_checkpoint(path, networks: dict[str, Network], meta: dict) -> None:
    """Versioned binary checkpoint: JSON header then flat little-endian doubles.

    It holds each network's parameters by name, not its architecture: the
    reader builds the networks from the config. Arrays appear in network
    order, then sorted parameter name.
    """
    manifest = []
    blobs = []
    for net_name in sorted(networks):
        params = networks[net_name].params()
        for key in sorted(params):
            arr = np.ascontiguousarray(params[key], dtype="<f8")
            manifest.append({"net": net_name, "param": key, "shape": list(arr.shape)})
            blobs.append(arr.tobytes())
    header = json.dumps({"version": _CKPT_VERSION, "arrays": manifest, "meta": meta},
                        sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def _read_exact(fh, size: int, what: str) -> bytes:
    """The next size bytes, refused before reading when fewer remain."""
    remaining = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > remaining:
        raise CorruptCheckpoint(f"truncated checkpoint: {what} needs {size} bytes, "
                                f"{remaining} remain")
    return fh.read(size)


def load_checkpoint(path) -> tuple[dict[str, dict[str, np.ndarray]], dict]:
    """The arrays of a checkpoint as {network: {parameter: array}}, and its meta.

    Raises CorruptCheckpoint on a foreign, unsupported, truncated or
    malformed file: a header whose array entries or meta are of the wrong
    structure, that names one array twice or gives a dimension that is not a
    non-negative integer, an array larger than the rest of the file, or a
    non-finite value. A ``specs`` key, which older writers added, is ignored.
    """
    with open(path, "rb") as fh:
        if fh.read(8) != _CKPT_MAGIC:
            raise CorruptCheckpoint("not a checkpoint file")
        version, header_len = struct.unpack("<II", _read_exact(fh, 8, "the version and header length"))
        if version != _CKPT_VERSION:
            raise CorruptCheckpoint(f"unsupported checkpoint version {version}")
        try:
            header = json.loads(_read_exact(fh, header_len, "the header").decode("utf-8"))
        except ValueError as exc:  # also an integer literal past Python's digit limit
            raise CorruptCheckpoint(f"unreadable checkpoint header: {exc}") from exc
        try:
            arrays: dict[str, dict[str, np.ndarray]] = {}
            for entry in header["arrays"]:
                net, param, shape = entry["net"], entry["param"], tuple(entry["shape"])
                if not all(type(d) is int and d >= 0 for d in shape):
                    raise ValueError(f"{net}/{param} has shape {list(shape)}")
                blob = _read_exact(fh, math.prod(shape) * 8, f"{net}/{param}")
                params = arrays.setdefault(net, {})
                if param in params:
                    raise ValueError(f"{net}/{param} appears twice")
                params[param] = np.frombuffer(blob, dtype="<f8").reshape(shape)
                if not np.isfinite(params[param]).all():
                    raise CorruptCheckpoint(f"non-finite values in {net}/{param}")
            if not isinstance(header["meta"], dict):
                raise TypeError("meta is not an object")
        except CorruptCheckpoint:
            raise
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise CorruptCheckpoint(f"malformed checkpoint header: "
                                    f"{type(exc).__name__}: {exc}") from exc
    return arrays, header["meta"]
