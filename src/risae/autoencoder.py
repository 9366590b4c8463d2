"""End-to-end system: encoder, two surface controllers, channel, decoder.

One forward pass runs (per coherence block): one-hot messages -> encoder CNN
with power normalization -> surface-1 controller on the incident field
U1 o -> surface-2 controller on (U2 + E psi1 U1) o -> physical reception
r_i = K^i o_i + n_i with the cascaded aggregate K^i -> decoder CNN on the
stacked (received, flattened CSI) input. The training gradient flows through
every stage; channel matrices and noise draws are constants per sample.

Arrays are batched over blocks: complex tensors are (batch, dim, block_len)
and cascaded aggregates are (batch, block_len, n_r, n_t) views of the
(batch, n_r, block_len * n_t) arrays the cascade's GEMMs produce. The backward
pass uses the convention G_z = dL/dRe(z) + j dL/dIm(z), under which a linear
map w = A z pulls back as G_z = A^H G_w and a unit phase c = exp(j g)
contributes dL/dg = Im(conj(c) G_c).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .channel import ChannelBatch, ChannelModel, crandn
from .config import SystemConfig
from .errors import Diverged, InvariantViolation, ShapeMismatch
from .neural import (
    AdamState,
    Network,
    PowerNorm,
    Softmax,
    adam_step,
    bce_loss,
    bce_loss_per_sample,
    conv_stack,
)

Z_95 = 1.959963984540054
CHANNEL_MODES = ("ideal", "double")  # how a perturbation reaches the receiver


# ---------------------------------------------------------------------------
# network assembly
# ---------------------------------------------------------------------------

@dataclass
class AutoencoderNets:
    """The four jointly trained networks."""

    encoder: Network
    ris1: Network
    ris2: Network
    decoder: Network

    def as_dict(self) -> dict[str, Network]:
        return dict(vars(self))

    def folded(self) -> AutoencoderNets:
        """Inference copies of the four networks, BatchNorm folded (``Network.folded``)."""
        return AutoencoderNets(**{name: net.folded() for name, net in self.as_dict().items()})


def build_autoencoder(cfg: SystemConfig, rng: np.random.Generator) -> AutoencoderNets:
    """Three same-padded convolutions per network, hidden BatchNorm + ReLU.

    Encoder ends in power normalization, the controllers emit unconstrained
    phase angles, the decoder ends in a channel-axis softmax.
    """
    w = cfg.hidden_width
    encoder = conv_stack([cfg.m, w, w, 2 * cfg.n_t], rng, final=PowerNorm(cfg.power))
    ris1 = conv_stack([2 * cfg.a1, w, w, cfg.a1], rng)
    ris2 = conv_stack([2 * cfg.a2, w, w, cfg.a2], rng)
    decoder = conv_stack([cfg.decoder_channels, w, w, cfg.m], rng, final=Softmax())
    return AutoencoderNets(encoder, ris1, ris2, decoder)


# ---------------------------------------------------------------------------
# real/complex packing
# ---------------------------------------------------------------------------

def complex_to_channels(z: np.ndarray) -> np.ndarray:
    """(B, C, L) complex -> (B, 2C, L) real, real halves before imaginary."""
    return np.concatenate([z.real, z.imag], axis=1)


def channels_to_complex(x: np.ndarray) -> np.ndarray:
    half = x.shape[1] // 2
    return x[:, :half] + 1j * x[:, half:]


def pack_decoder_input(r: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Stack received signal and per-symbol CSI into decoder channels.

    Channel order: Re r (n_r), Im r (n_r), Re vec(K) (n_r n_t), Im vec(K),
    where vec(K) is row-major (receive index outer, transmit index inner).
    r is (B, n_r, L); k is (B, L, n_r, n_t).
    """
    b, n_r, length = r.shape
    kflat = k.transpose(0, 2, 3, 1).reshape(b, -1, length)
    return np.concatenate([r.real, r.imag, kflat.real, kflat.imag], axis=1)


def unpack_received_gradient(g_input: np.ndarray, n_r: int, n_t: int):
    """Split a decoder-input gradient into complex G_r (B, n_r, L) and G_K (B, n_r, L*n_t)."""
    b, _, length = g_input.shape
    g_r = channels_to_complex(g_input[:, :2 * n_r])
    flat = g_input[:, 2 * n_r:2 * n_r + n_r * n_t] + 1j * g_input[:, 2 * n_r + n_r * n_t:]
    g_k = flat.reshape(b, n_r, n_t, length).transpose(0, 1, 3, 2).reshape(b, n_r, length * n_t)
    return g_r, g_k


# ---------------------------------------------------------------------------
# cascaded aggregates (batched matmuls over the (B, a, L*n) layout)
# ---------------------------------------------------------------------------

def _cascade(y_f, c_f, u_f, e, y_s, c_s, u_s):
    """Aggregates Y_f X + Y_s (c_s o M) of a link whose double bounce meets
    surface f, then s: X = c_f o U_f and M = E X + U_s are laid out as
    (B, a, L*n), symbol outer, so each product is one batched GEMM. Returns
    the aggregates as a (B, L, n_r, n) view and M as (B, a_s, L, n)."""
    b, a_f, length = c_f.shape
    n = u_f.shape[2]
    x = (c_f[..., None] * u_f[:, :, None, :]).reshape(b, a_f, length * n)
    m = (e @ x).reshape(b, -1, length, n)
    m += u_s[:, :, None, :]
    k = y_f @ x
    del x
    k += y_s @ (c_s[..., None] * m).reshape(b, -1, length * n)
    return k.reshape(b, -1, length, n).transpose(0, 2, 1, 3), m


def cascade_set(chan: ChannelBatch, c1: np.ndarray, c2: np.ndarray):
    """Per-symbol legitimate aggregates K (B, L, n_r, n_t) plus the surface-2
    incident aggregate M = E psi1 U1 + U2 (B, a2, L, n_t) for the backward pass."""
    return _cascade(chan.y1, c1, chan.u1, chan.e, chan.y2, c2, chan.u2)


def adversary_cascade_set(chan: ChannelBatch, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Per-symbol adversary aggregates G (B, L, n_r, n_t); the double bounce
    enters surface 2 first, then surface 1."""
    return _cascade(chan.y2p, c2, chan.u2p, chan.ep, chan.y1p, c1, chan.u1p)[0]


# ---------------------------------------------------------------------------
# attack application (Eq.-10-style receiver-side addition)
# ---------------------------------------------------------------------------

def attack_dimension(cfg: SystemConfig, channel_mode: str) -> int:
    """Length of a perturbation vector: receive antennas for the identity
    attack channel, adversary transmit antennas (as many as the encoder's)
    for the double-scattering one."""
    return cfg.n_r if channel_mode == "ideal" else cfg.n_t


def jamming(budget: float, n: int, dimension: int, rng: np.random.Generator) -> np.ndarray:
    """n isotropic jamming vectors (n, dimension): CN(0, I) draws, each
    rescaled to exactly the squared-norm budget."""
    raw = crandn(rng, (n, dimension))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    return raw * (np.sqrt(budget) / norms)


@dataclass
class AttackApplication:
    """How a perturbation reaches the decoder during evaluation.

    channel_mode 'double' sends the transmit-domain vector through the
    adversary aggregate G of each symbol; 'ideal' adds the receiver-domain
    vector directly (identity attack channel). It holds either p_adv (a fixed
    universal vector) or jam_budget (a fresh ``jamming`` vector per block).
    """

    channel_mode: str
    p_adv: np.ndarray | None = None
    jam_budget: float | None = None

    def received_perturbation(self, cfg: SystemConfig, chan: ChannelBatch,
                              c1: np.ndarray, c2: np.ndarray, rng: np.random.Generator):
        """The perturbation (B, n_r, L) the receiver adds and the aggregates G it went through."""
        n = len(chan)
        if self.p_adv is not None:
            vectors = np.broadcast_to(self.p_adv, (n, self.p_adv.shape[0]))
        else:
            vectors = jamming(self.jam_budget, n, attack_dimension(cfg, self.channel_mode), rng)
        if self.channel_mode == "ideal":
            return np.repeat(vectors[:, :, None], cfg.block_len, axis=2), None
        g = adversary_cascade_set(chan, c1, c2)
        gt = g.transpose(0, 2, 1, 3)  # (B, n_r, L, n_t)
        return (gt.reshape(n, -1, gt.shape[3]) @ vectors[:, :, None]).reshape(gt.shape[:3]), g


# ---------------------------------------------------------------------------
# forward / backward over a batch of blocks
# ---------------------------------------------------------------------------

@dataclass
class TransmitRecord:
    """The pass up to the noiseless received signal z = K o. The activation
    records (``*_rec``) are kept for a training pass only and are None otherwise."""

    blocks: np.ndarray
    chan: ChannelBatch
    enc_rec: list | None
    o: np.ndarray
    r1_rec: list | None
    c1: np.ndarray
    m1_field: np.ndarray
    r2_rec: list | None
    b2: np.ndarray  # surface-2 incident field M o
    c2: np.ndarray
    z: np.ndarray


@dataclass
class PipelineRecord(TransmitRecord):
    """Everything the backward pass and the attacks need from one forward.

    ``r`` is the received signal the decoder read, z + noise plus any
    perturbation, and ``g`` the adversary aggregates G (B, L, n_r, n_t) that
    perturbation went through, None on 'ideal' or without an attack. A
    training record is consumed by its backward: it holds no ``k``, which the
    backward does not read, and ``pipeline_backward`` leaves its activation
    records empty and ``m`` None."""

    m: np.ndarray | None  # surface-2 incident aggregate M = E psi1 U1 + U2, (B, a2, L, n_t)
    k: np.ndarray | None
    r: np.ndarray
    g: np.ndarray | None
    dec_rec: list | None
    probs: np.ndarray
    decisions: np.ndarray


def transmit_forward(nets: AutoencoderNets, cfg: SystemConfig, blocks: np.ndarray,
                     chan: ChannelBatch, train: bool) -> TransmitRecord:
    """Encoder and both surface controllers up to z = K o: the first half of
    ``pipeline_forward``, which needs neither the aggregates, noise nor the
    decoder."""
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim != 3 or blocks.shape[1] != cfg.m or blocks.shape[2] != cfg.block_len:
        raise ShapeMismatch(f"blocks must be (batch, {cfg.m}, {cfg.block_len}), got {blocks.shape}")
    if len(chan) != blocks.shape[0]:
        raise ShapeMismatch("channel batch and message batch sizes differ")

    enc_out, enc_rec = nets.encoder.forward(blocks, record=train)
    o = channels_to_complex(enc_out)

    a1 = chan.u1 @ o
    g1, r1_rec = nets.ris1.forward(complex_to_channels(a1), record=train)
    c1 = np.exp(1j * g1)
    m1_field = c1 * a1

    b2 = chan.u2 @ o + chan.e @ m1_field
    g2, r2_rec = nets.ris2.forward(complex_to_channels(b2), record=train)
    c2 = np.exp(1j * g2)

    z = chan.y1 @ m1_field + chan.y2 @ (c2 * b2)  # K o, symbol by symbol
    return TransmitRecord(blocks=blocks, chan=chan, enc_rec=enc_rec, o=o, r1_rec=r1_rec, c1=c1,
                          m1_field=m1_field, r2_rec=r2_rec, b2=b2, c2=c2, z=z)


def pipeline_forward(nets: AutoencoderNets, cfg: SystemConfig, blocks: np.ndarray,
                     chan: ChannelBatch, sigma2: float, rng: np.random.Generator,
                     attack: AttackApplication | None = None,
                     train: bool = False) -> PipelineRecord:
    """Run the full system on a batch of one-hot blocks.

    Noise is drawn from rng as CN(0, sigma2 I), before anything else the
    pass draws. Only a training pass, the one pipeline_backward
    differentiates, keeps the networks' activation records, and it keeps no
    aggregates K; it cannot be attacked (ValueError). Any other pass runs the
    folded networks.
    """
    if train and attack is not None:
        raise ValueError("a training pass cannot be attacked")
    tx = transmit_forward(nets, cfg, blocks, chan, train)
    k, m = cascade_set(chan, tx.c1, tx.c2)
    r = tx.z + np.sqrt(sigma2) * crandn(rng, tx.z.shape)
    g = None
    if attack is not None:
        p, g = attack.received_perturbation(cfg, chan, tx.c1, tx.c2, rng)
        r = r + p

    d_input, k = pack_decoder_input(r, k), (None if train else k)  # no backward reads K
    probs, dec_rec = nets.decoder.forward(d_input, record=train)
    return PipelineRecord(**vars(tx), m=m, k=k, r=r, g=g, dec_rec=dec_rec,
                          probs=probs, decisions=probs.argmax(axis=1))


def pipeline_backward(nets: AutoencoderNets, rec: PipelineRecord):
    """Exact gradients of the block loss for all four networks.

    Channels and noise are constants. The received signal pulls back through
    the surface fields, the aggregates through one shared H = Y2^H G_K, and
    everything then back to the encoder output.

    The backward consumes the record: each network backward empties its
    activation record layer by layer, and ``m`` is conjugated in place at its
    last read and then set to None, so their memory is freed while the rest
    of the pass runs, and a second backward on the record raises MissingRecord.
    """
    chan = rec.chan
    loss, g_probs = bce_loss(rec.probs, rec.blocks)

    dec_grads, g_input = nets.decoder.backward(rec.dec_rec, g_probs)
    b, n_r, length = rec.z.shape
    n_t = rec.o.shape[1]
    g_r, g_k = unpack_received_gradient(g_input, n_r, n_t)
    u1h, u2h, y1h, y2h, eh = (np.conj(getattr(chan, name)).transpose(0, 2, 1)
                              for name in ("u1", "u2", "y1", "y2", "e"))

    # z = Y1 (psi1 U1 o) + Y2 (c2 o b2), the received signal without K
    h_r = y2h @ g_r
    g_c2 = np.conj(rec.b2) * h_r
    g_m1_field = y1h @ g_r

    # K = Y1 X1 + Y2 (c2 o M), X1 = c1 o U1, M = E X1 + U2: adjoint through H = Y2^H G_K
    h = (y2h @ g_k).reshape(rec.m.shape)
    g_c2 += np.einsum("bqln,bqln->bql", h, np.conj(rec.m, out=rec.m))
    rec.m = None
    h *= np.conj(rec.c2)[..., None]
    g_x1 = eh @ h.reshape(b, -1, length * n_t)
    del h
    g_x1 += y1h @ g_k
    g_c1 = (g_x1.reshape(b, -1, length, n_t) @ np.conj(chan.u1)[..., None])[..., 0]
    del g_x1
    g_gamma2 = np.imag(np.conj(rec.c2) * g_c2)

    r2_grads, gs2 = nets.ris2.backward(rec.r2_rec, g_gamma2)
    g_b2 = channels_to_complex(gs2) + np.conj(rec.c2) * h_r
    g_o = u2h @ g_b2
    g_m1_field += eh @ g_b2

    # surface 1: the aggregate term, then the incident field psi1 U1 o
    g_gamma1 = np.imag(np.conj(rec.c1) * g_c1) + np.imag(np.conj(rec.m1_field) * g_m1_field)

    r1_grads, gs1 = nets.ris1.backward(rec.r1_rec, g_gamma1)
    g_a1 = channels_to_complex(gs1) + np.conj(rec.c1) * g_m1_field
    g_o += u1h @ g_a1

    enc_grads, _ = nets.encoder.backward(rec.enc_rec, complex_to_channels(g_o), inputs=0)
    return loss, {"encoder": enc_grads, "ris1": r1_grads, "ris2": r2_grads,
                  "decoder": dec_grads}


def decoder_input_gradient(decoder: Network, cfg: SystemConfig, d_input: np.ndarray,
                           target: np.ndarray):
    """Probabilities of the folded decoder and the complex gradient G_r (B, n_r, L)
    of its BCE loss with respect to the received signal.

    Each batch element gets the gradient of its own mean loss, so a batch of
    candidate target classes can be processed in one pass.
    """
    decoder = decoder.folded()
    probs, rec = decoder.forward(d_input, record=True)
    g_probs = bce_loss_per_sample(probs, target)[1]
    _, g_input = decoder.backward(rec, g_probs, inputs=2 * cfg.n_r)
    return probs, channels_to_complex(g_input)


# ---------------------------------------------------------------------------
# one-hot message blocks
# ---------------------------------------------------------------------------

def one_hot_blocks(indices: np.ndarray, m: int) -> np.ndarray:
    indices = np.asarray(indices)
    blocks = np.zeros((indices.shape[0], m, indices.shape[1]))
    rows = np.arange(indices.shape[0])[:, None]
    cols = np.arange(indices.shape[1])[None, :]
    blocks[rows, indices, cols] = 1.0
    return blocks


def random_message_blocks(cfg: SystemConfig, n_blocks: int, rng: np.random.Generator):
    indices = rng.integers(0, cfg.m, size=(n_blocks, cfg.block_len))
    return one_hot_blocks(indices, cfg.m), indices


def fresh_blocks(cfg: SystemConfig, num_blocks: int, chunk: int, rng: np.random.Generator):
    """Draw num_blocks fresh blocks in chunks of at most chunk, yielding
    (blocks, indices, chan) per chunk. A chunk's messages, then its
    realizations, are drawn only when the caller asks for the chunk, so what
    the caller draws in between keeps its place in the stream."""
    model = ChannelModel(cfg)
    for start in range(0, num_blocks, chunk):
        blocks, indices = random_message_blocks(cfg, min(chunk, num_blocks - start), rng)
        yield blocks, indices, model.sample_batch(len(blocks), rng)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@functools.cache
def set_heap_policy() -> None:
    """Let the heap keep freed blocks, once per process.

    By default glibc serves each multi-MB activation from a fresh mmap, or
    trims it off the heap, and gives it back on free, so every step faults
    its pages in again. Here blocks up to 32 MiB (the ceiling of glibc's own
    dynamic mmap threshold on 64-bit) come from the heap, and the heap is
    trimmed only above 256 MiB free; setting the trim threshold alone would
    pin the mmap threshold at its 128 KiB default. Without glibc's mallopt
    nothing changes.
    """
    import ctypes  # imported here: only training and sweep workers need it

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
        mallopt.restype = ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


@dataclass
class TrainResult:
    loss_history: list[float]
    epoch_seconds: list[float]


def train(nets: AutoencoderNets, cfg: SystemConfig, num_symbols: int, epochs: int,
          lr: float, rng: np.random.Generator, *, batch_blocks: int,
          channel_model: ChannelModel | None = None,
          adam: AdamState | None = None) -> TrainResult:
    """Train all four networks end to end with Adam.

    A fixed message dataset of ceil(num_symbols / block_len) blocks is drawn
    once; channel realizations are resampled for every batch and noise is
    redrawn every forward pass. Raises Diverged when the loss leaves the
    finite range, and InvariantViolation when a predicted reflection of the
    epoch's last batch is not unit modulus. Sets the process's heap policy
    (``set_heap_policy``).
    """
    set_heap_policy()
    model = channel_model or ChannelModel(cfg)
    n_blocks = max(1, int(np.ceil(num_symbols / cfg.block_len)))
    dataset, _ = random_message_blocks(cfg, n_blocks, rng)
    params = {f"{net_name}/{key}": value for net_name, net in nets.as_dict().items()
              for key, value in net.trainable_params().items()}
    adam = adam or AdamState(lr=lr)
    adam.lr = lr

    history: list[float] = []
    seconds: list[float] = []
    for _epoch in range(epochs):
        started = time.perf_counter()
        order = rng.permutation(n_blocks)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n_blocks, batch_blocks):
            batch = dataset[order[start:start + batch_blocks]]
            chan = model.sample_batch(batch.shape[0], rng)
            rec = pipeline_forward(nets, cfg, batch, chan, cfg.sigma2, rng=rng, train=True)
            loss, grads = pipeline_backward(nets, rec)
            # the backward consumed the activation records; drop the rest, so
            # that no part of this batch but its reflections outlives the step
            c1, c2 = rec.c1, rec.c2
            del rec
            if not np.isfinite(loss):
                raise Diverged(f"loss became non-finite at epoch {_epoch}")
            adam_step(params, {f"{net_name}/{key}": g for net_name, net_grads in grads.items()
                               for key, g in net_grads.items()}, adam)
            epoch_loss += loss
            n_batches += 1
        for name, c in (("surface 1", c1), ("surface 2", c2)):
            deviation = float(np.max(np.abs(np.abs(c) - 1.0)))
            if not deviation < 1e-12:
                raise InvariantViolation(f"{name} reflection modulus deviates from 1 "
                                         f"by {deviation:.3e} at epoch {_epoch}")
        history.append(epoch_loss / n_batches)
        seconds.append(time.perf_counter() - started)
    return TrainResult(loss_history=history, epoch_seconds=seconds)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    z = Z_95
    p_hat = errors / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2.0 * trials)) / denom
    half = z * np.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials)) / denom
    low = 0.0 if errors == 0 else max(0.0, center - half)
    high = 1.0 if errors == trials else min(1.0, center + half)
    return low, high


@dataclass
class SerEstimate:
    """Symbol error rate with its Wilson 95% interval."""

    ser: float
    ci_halfwidth: float
    symbols: int


# blocks per evaluate_ser forward; fresh_blocks and the forward draw blocks,
# channels and noise chunk by chunk, so the draw order, and the SER, depend on it
EVAL_CHUNK_BLOCKS = 512


def evaluate_ser(nets: AutoencoderNets, cfg: SystemConfig,
                 attack: AttackApplication | None, num_blocks: int,
                 rng: np.random.Generator) -> SerEstimate:
    """Monte Carlo SER over fresh blocks, channels and noise, on the folded
    networks, folded once on entry."""
    nets = nets.folded()
    errors = 0
    total = 0
    for blocks, indices, chan in fresh_blocks(cfg, num_blocks, EVAL_CHUNK_BLOCKS, rng):
        # keep only the decisions: the chunk's record is freed before the next forward
        decisions = pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2, rng=rng,
                                     attack=attack).decisions
        errors += int((decisions != indices).sum())
        total += indices.size
    low, high = wilson_interval(errors, total)
    return SerEstimate(ser=errors / total, ci_halfwidth=(high - low) / 2.0, symbols=total)


def estimate_received_power(nets: AutoencoderNets, cfg: SystemConfig, num_blocks: int,
                            rng: np.random.Generator) -> float:
    """Mean noiseless received energy per symbol, E ||K o||^2 over blocks,
    on the folded networks."""
    blocks, _, chan = next(fresh_blocks(cfg, num_blocks, num_blocks, rng))
    z = transmit_forward(nets, cfg, blocks, chan, train=False).z
    return float(np.mean(np.sum(np.abs(z) ** 2, axis=1)))
