"""End-to-end system: encoder, two surface controllers, channel, decoder.

One forward pass runs (per coherence block): one-hot messages -> encoder CNN
with power normalization -> surface-1 controller on the incident field
U1 o -> surface-2 controller on (U2 + E psi1 U1) o -> physical reception
r_i = K^i o_i + n_i with the cascaded aggregate K^i -> decoder CNN on the
stacked (received, flattened CSI) input. The training gradient flows through
every stage; channel matrices and noise draws are constants per sample.

Arrays are batched over blocks: complex tensors are (batch, dim, block_len)
and cascaded aggregates are (batch, block_len, n_r, n_t). The backward pass
uses the convention G_z = dL/dRe(z) + j dL/dIm(z), under which a linear map
w = A z pulls back as G_z = A^H G_w and a unit phase c = exp(j g) contributes
dL/dg = Im(conj(c) G_c).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelBatch, ChannelModel, crandn
from .config import SystemConfig
from .errors import Diverged, InvariantViolation, ShapeMismatch
from .neural import (
    AdamState,
    Network,
    adam_step,
    bce_loss_per_sample,
    conv_stack,
    cross_entropy_loss,
    bce_loss,
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
        return {"encoder": self.encoder, "ris1": self.ris1, "ris2": self.ris2,
                "decoder": self.decoder}

    @classmethod
    def from_dict(cls, nets: dict[str, Network]) -> "AutoencoderNets":
        return cls(nets["encoder"], nets["ris1"], nets["ris2"], nets["decoder"])


def build_autoencoder(cfg: SystemConfig, rng: np.random.Generator) -> AutoencoderNets:
    """Three same-padded convolutions per network, hidden BatchNorm + ReLU.

    Encoder ends in power normalization, the controllers emit unconstrained
    phase angles, the decoder ends in a channel-axis softmax.
    """
    cfg.validate()
    w = cfg.hidden_width
    k = cfg.kernel_size
    kw = dict(bn_eps=cfg.bn_eps, bn_momentum=cfg.bn_momentum)
    encoder = conv_stack([cfg.m, w, w, 2 * cfg.n_t], k, rng, final="powernorm",
                         target_power=cfg.power, **kw)
    ris1 = conv_stack([2 * cfg.a1, w, w, cfg.a1], k, rng, **kw)
    ris2 = conv_stack([2 * cfg.a2, w, w, cfg.a2], k, rng, **kw)
    decoder = conv_stack([cfg.decoder_channels, w, w, cfg.m], k, rng, final="softmax", **kw)
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
    """Split a decoder-input gradient into complex gradients for r and K."""
    b, _, length = g_input.shape
    g_r = g_input[:, :n_r] + 1j * g_input[:, n_r:2 * n_r]
    flat = g_input[:, 2 * n_r:2 * n_r + n_r * n_t] + 1j * g_input[:, 2 * n_r + n_r * n_t:]
    g_k = flat.reshape(b, n_r, n_t, length).transpose(0, 3, 1, 2)
    return g_r, g_k


# ---------------------------------------------------------------------------
# cascaded aggregates (batched einsum cores)
# ---------------------------------------------------------------------------

def cascade_set(chan: ChannelBatch, c1: np.ndarray, c2: np.ndarray):
    """Per-symbol legitimate aggregates K (B, L, n_r, n_t) plus the E psi1 U1
    intermediate reused by the backward pass."""
    m1 = np.einsum("bqa,bal,ban->bqln", chan.e, c1, chan.u1, optimize=True)
    k = (np.einsum("brq,bql,bqln->blrn", chan.y2, c2, m1, optimize=True)
         + np.einsum("bra,bal,ban->blrn", chan.y1, c1, chan.u1, optimize=True)
         + np.einsum("brq,bql,bqn->blrn", chan.y2, c2, chan.u2, optimize=True))
    return k, m1


def adversary_cascade_set(chan: ChannelBatch, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Per-symbol adversary aggregates G (B, L, n_r, n_adv); the double bounce
    enters surface 2 first, then surface 1."""
    m1p = np.einsum("baq,bql,bqn->baln", chan.ep, c2, chan.u2p, optimize=True)
    return (np.einsum("bra,bal,baln->blrn", chan.y1p, c1, m1p, optimize=True)
            + np.einsum("bra,bal,ban->blrn", chan.y1p, c1, chan.u1p, optimize=True)
            + np.einsum("brq,bql,bqn->blrn", chan.y2p, c2, chan.u2p, optimize=True))


# ---------------------------------------------------------------------------
# attack application (Eq.-10-style receiver-side addition)
# ---------------------------------------------------------------------------

def attack_dimension(cfg: SystemConfig, channel_mode: str) -> int:
    """Length of a perturbation vector: receive antennas for the identity
    attack channel, adversary transmit antennas for the double-scattering one."""
    return cfg.n_r if channel_mode == "ideal" else cfg.adversary_antennas


@dataclass
class AttackApplication:
    """How a perturbation reaches the decoder during evaluation.

    channel_mode 'double' sends the transmit-domain vector through the
    adversary aggregate G of each symbol; 'ideal' adds the receiver-domain
    vector directly (identity attack channel). Exactly one of p_adv (a fixed
    universal vector) or jam_budget (fresh isotropic Gaussian per block, norm
    rescaled to the budget) must be set.
    """

    channel_mode: str
    p_adv: np.ndarray | None = None
    jam_budget: float | None = None

    def __post_init__(self):
        if self.channel_mode not in CHANNEL_MODES:
            raise ValueError(f"channel_mode must be one of {CHANNEL_MODES}, got {self.channel_mode!r}")
        if (self.p_adv is None) == (self.jam_budget is None):
            raise ValueError("set exactly one of p_adv or jam_budget")

    def received_perturbation(self, cfg: SystemConfig, chan: ChannelBatch,
                              c1: np.ndarray, c2: np.ndarray,
                              rng: np.random.Generator | None) -> np.ndarray:
        n = len(chan)
        if self.p_adv is not None:
            vectors = np.broadcast_to(self.p_adv, (n, self.p_adv.shape[0]))
        else:
            raw = crandn(rng, (n, attack_dimension(cfg, self.channel_mode)))
            norms = np.linalg.norm(raw, axis=1, keepdims=True)
            vectors = raw * (np.sqrt(self.jam_budget) / norms)
        if self.channel_mode == "ideal":
            return np.repeat(vectors[:, :, None], cfg.block_len, axis=2)
        g = adversary_cascade_set(chan, c1, c2)
        return np.einsum("blrn,bn->brl", g, vectors, optimize=True)


# ---------------------------------------------------------------------------
# forward / backward over a batch of blocks
# ---------------------------------------------------------------------------

@dataclass
class PipelineRecord:
    """Everything the backward pass and the attacks need from one forward."""

    blocks: np.ndarray
    chan: ChannelBatch
    sigma2: float
    enc_rec: list
    o: np.ndarray
    a1: np.ndarray
    r1_rec: list
    c1: np.ndarray
    m1_field: np.ndarray
    b2: np.ndarray
    r2_rec: list
    c2: np.ndarray
    m1: np.ndarray
    k: np.ndarray
    z: np.ndarray
    noise: np.ndarray
    ptilde: np.ndarray | None
    d_input: np.ndarray
    dec_rec: list
    probs: np.ndarray
    decisions: np.ndarray
    train: bool
    loss_kind: str


def pipeline_forward(nets: AutoencoderNets, cfg: SystemConfig, blocks: np.ndarray,
                     chan: ChannelBatch, sigma2: float,
                     rng: np.random.Generator | None = None,
                     noise: np.ndarray | None = None,
                     attack: AttackApplication | None = None,
                     train: bool = False) -> PipelineRecord:
    """Run the full system on a batch of one-hot blocks.

    Noise is drawn from rng as CN(0, sigma2 I) unless an explicit noise array
    is supplied (used by gradient checks and bit-exact composition tests).
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim != 3 or blocks.shape[1] != cfg.m or blocks.shape[2] != cfg.block_len:
        raise ShapeMismatch(f"blocks must be (batch, {cfg.m}, {cfg.block_len}), got {blocks.shape}")
    if len(chan) != blocks.shape[0]:
        raise ShapeMismatch("channel batch and message batch sizes differ")

    enc_out, enc_rec = nets.encoder.forward(blocks, train)
    o = channels_to_complex(enc_out)

    a1 = np.einsum("ban,bnl->bal", chan.u1, o, optimize=True)
    g1, r1_rec = nets.ris1.forward(complex_to_channels(a1), train)
    c1 = np.exp(1j * g1)
    m1_field = c1 * a1

    b2 = (np.einsum("bqn,bnl->bql", chan.u2, o, optimize=True)
          + np.einsum("bqa,bal->bql", chan.e, m1_field, optimize=True))
    g2, r2_rec = nets.ris2.forward(complex_to_channels(b2), train)
    c2 = np.exp(1j * g2)

    k, m1 = cascade_set(chan, c1, c2)
    z = np.einsum("blrn,bnl->brl", k, o, optimize=True)

    if noise is None:
        if sigma2 > 0.0:
            noise = np.sqrt(sigma2) * crandn(rng, z.shape)
        else:
            noise = np.zeros_like(z)
    r = z + noise

    ptilde = None
    if attack is not None:
        ptilde = attack.received_perturbation(cfg, chan, c1, c2, rng)
        r = r + ptilde

    d_input = pack_decoder_input(r, k)
    probs, dec_rec = nets.decoder.forward(d_input, train)
    decisions = probs.argmax(axis=1)

    return PipelineRecord(blocks=blocks, chan=chan, sigma2=sigma2, enc_rec=enc_rec, o=o,
                          a1=a1, r1_rec=r1_rec, c1=c1, m1_field=m1_field, b2=b2,
                          r2_rec=r2_rec, c2=c2, m1=m1, k=k, z=z, noise=noise,
                          ptilde=ptilde, d_input=d_input, dec_rec=dec_rec, probs=probs,
                          decisions=decisions, train=train, loss_kind=cfg.loss)


def pipeline_loss(rec: PipelineRecord, target: np.ndarray | None = None):
    target = rec.blocks if target is None else target
    if rec.loss_kind == "ce":
        return cross_entropy_loss(rec.probs, target)
    return bce_loss(rec.probs, target)


def pipeline_backward(nets: AutoencoderNets, rec: PipelineRecord,
                      target: np.ndarray | None = None):
    """Exact gradients of the block loss for all four networks.

    Channels and noise are constants; the pass accumulates the phase-angle
    gradients from all three aggregate terms plus the surface-2 incident
    field, then pulls everything back to the encoder output.
    """
    if rec.ptilde is not None:
        raise ValueError("cannot backpropagate through an attacked forward pass")
    chan = rec.chan
    loss, g_probs = pipeline_loss(rec, target)

    dec_grads, g_input = nets.decoder.backward(rec.dec_rec, g_probs)
    n_r = rec.z.shape[1]
    n_t = rec.o.shape[1]
    g_r, g_k = unpack_received_gradient(g_input, n_r, n_t)

    # r = K o + n: gradient into o directly and into K alongside the CSI copy
    g_k = g_k + np.einsum("brl,bnl->blrn", g_r, np.conj(rec.o), optimize=True)
    g_o = np.einsum("blrn,brl->bnl", np.conj(rec.k), g_r, optimize=True)

    # phase gradients of surface 2 (double-bounce and direct terms of K)
    g_c2 = (np.einsum("blrn,brq,bqln->bql", g_k, np.conj(chan.y2), np.conj(rec.m1), optimize=True)
            + np.einsum("blrn,brq,bqn->bql", g_k, np.conj(chan.y2), np.conj(chan.u2), optimize=True))
    g_gamma2 = np.imag(np.conj(rec.c2) * g_c2)

    r2_grads, gs2 = nets.ris2.backward(rec.r2_rec, g_gamma2)
    g_b2 = channels_to_complex(gs2)
    g_o += np.einsum("bqn,bql->bnl", np.conj(chan.u2), g_b2, optimize=True)
    g_m1_field = np.einsum("bqa,bql->bal", np.conj(chan.e), g_b2, optimize=True)

    # phase gradients of surface 1: double bounce, single bounce, incident field
    w1 = np.einsum("brq,bql,bqa->bral", chan.y2, rec.c2, chan.e, optimize=True)
    g_c1 = (np.einsum("blrn,bral,ban->bal", g_k, np.conj(w1), np.conj(chan.u1), optimize=True)
            + np.einsum("blrn,bra,ban->bal", g_k, np.conj(chan.y1), np.conj(chan.u1), optimize=True))
    g_gamma1 = np.imag(np.conj(rec.c1) * g_c1) + np.imag(np.conj(rec.m1_field) * g_m1_field)

    r1_grads, gs1 = nets.ris1.backward(rec.r1_rec, g_gamma1)
    g_a1 = channels_to_complex(gs1) + np.conj(rec.c1) * g_m1_field
    g_o += np.einsum("ban,bal->bnl", np.conj(chan.u1), g_a1, optimize=True)

    enc_grads, _ = nets.encoder.backward(rec.enc_rec, complex_to_channels(g_o))
    return loss, {"encoder": enc_grads, "ris1": r1_grads, "ris2": r2_grads,
                  "decoder": dec_grads}


def decoder_input_gradient(decoder: Network, d_input: np.ndarray, target: np.ndarray,
                           loss_kind: str = "bce"):
    """Per-sample loss values, probabilities and input gradients of the decoder.

    Each batch element gets the gradient of its own mean loss, so a batch of
    candidate target classes can be processed in one pass.
    """
    probs, rec = decoder.forward(d_input, train=False)
    if loss_kind == "ce":
        p = np.clip(probs, 1e-12, 1.0 - 1e-12)
        count = probs.shape[2]
        values = -(target * np.log(p)).sum(axis=(1, 2)) / count
        g_probs = -(target / p) / count
    else:
        values, g_probs = bce_loss_per_sample(probs, target)
    _, g_input = decoder.backward(rec, g_probs)
    return values, probs, g_input


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


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    loss_history: list[float]
    epoch_seconds: list[float]
    adam: AdamState = field(repr=False, default=None)


def _flat_trainable(nets: AutoencoderNets) -> dict[str, np.ndarray]:
    out = {}
    for net_name, net in nets.as_dict().items():
        for key, value in net.trainable_params().items():
            out[f"{net_name}/{key}"] = value
    return out


def train(nets: AutoencoderNets, cfg: SystemConfig, num_symbols: int, epochs: int,
          lr: float, rng: np.random.Generator, *, batch_blocks: int = 64,
          channel_model: ChannelModel | None = None,
          fixed_channels: ChannelBatch | None = None,
          fixed_noise: np.ndarray | None = None,
          adam: AdamState | None = None) -> TrainResult:
    """Train all four networks end to end with Adam.

    A fixed message dataset of ceil(num_symbols / block_len) blocks is drawn
    once; channel realizations are resampled for every batch (unless
    fixed_channels pins them, e.g. for overfitting checks) and noise is
    redrawn every forward pass. Raises Diverged when the loss leaves the
    finite range, and InvariantViolation when a predicted reflection of the
    epoch's last batch is not unit modulus.
    """
    cfg.validate()
    model = channel_model or ChannelModel(cfg)
    n_blocks = max(1, int(np.ceil(num_symbols / cfg.block_len)))
    dataset, _ = random_message_blocks(cfg, n_blocks, rng)
    params = _flat_trainable(nets)
    adam = adam or AdamState(lr=lr)
    adam.lr = lr

    history: list[float] = []
    seconds: list[float] = []
    for _epoch in range(epochs):
        started = time.perf_counter()
        order = rng.permutation(n_blocks)
        epoch_loss = 0.0
        n_batches = 0
        last_rec = None
        for start in range(0, n_blocks, batch_blocks):
            batch = dataset[order[start:start + batch_blocks]]
            if fixed_channels is not None:
                chan = fixed_channels
                if len(chan) != batch.shape[0]:
                    raise ShapeMismatch("fixed_channels batch size must match the batch")
            else:
                chan = model.sample_batch(batch.shape[0], rng)
            rec = pipeline_forward(nets, cfg, batch, chan, cfg.sigma2, rng=rng,
                                   noise=fixed_noise, train=True)
            loss, grads = pipeline_backward(nets, rec)
            if not np.isfinite(loss):
                raise Diverged(f"loss became non-finite at epoch {_epoch}")
            flat_grads = {f"{net_name}/{key}": g
                          for net_name, net_grads in grads.items()
                          for key, g in net_grads.items()
                          if f"{net_name}/{key}" in params}
            adam_step(params, flat_grads, adam)
            epoch_loss += loss
            n_batches += 1
            last_rec = rec
        for name, c in (("surface 1", last_rec.c1), ("surface 2", last_rec.c2)):
            deviation = float(np.max(np.abs(np.abs(c) - 1.0)))
            if not deviation < 1e-12:
                raise InvariantViolation(f"{name} reflection modulus deviates from 1 "
                                         f"by {deviation:.3e} at epoch {_epoch}")
        history.append(epoch_loss / n_batches)
        seconds.append(time.perf_counter() - started)
    return TrainResult(loss_history=history, epoch_seconds=seconds, adam=adam)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def wilson_interval(errors: int, trials: int, z: float = Z_95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
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
    ci_low: float
    ci_high: float
    errors: int
    symbols: int


def evaluate_ser(nets: AutoencoderNets, cfg: SystemConfig,
                 attack: AttackApplication | None, num_blocks: int,
                 rng: np.random.Generator, chunk: int = 512,
                 decide=None) -> SerEstimate:
    """Monte Carlo SER over fresh blocks, channels and noise.

    `decide` replaces the decoder's hard decision for oracle tests; it maps a
    PipelineRecord to an index array of shape (batch, block_len).
    """
    model = ChannelModel(cfg)
    errors = 0
    total = 0
    for start in range(0, num_blocks, chunk):
        n = min(chunk, num_blocks - start)
        blocks, indices = random_message_blocks(cfg, n, rng)
        chan = model.sample_batch(n, rng)
        rec = pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2, rng=rng,
                               attack=attack, train=False)
        decisions = rec.decisions if decide is None else decide(rec)
        errors += int((decisions != indices).sum())
        total += n * cfg.block_len
    low, high = wilson_interval(errors, total)
    return SerEstimate(ser=errors / total, ci_halfwidth=(high - low) / 2.0,
                       ci_low=low, ci_high=high, errors=errors, symbols=total)


def estimate_received_power(nets: AutoencoderNets, cfg: SystemConfig, num_blocks: int,
                            rng: np.random.Generator) -> float:
    """Mean noiseless received energy per symbol, E ||K o||^2 over blocks."""
    model = ChannelModel(cfg)
    blocks, _ = random_message_blocks(cfg, num_blocks, rng)
    chan = model.sample_batch(num_blocks, rng)
    rec = pipeline_forward(nets, cfg, blocks, chan, sigma2=0.0, train=False)
    return float(np.mean(np.sum(np.abs(rec.z) ** 2, axis=1)))
