"""Attack generation: universal adversarial perturbations and baselines.

The main algorithm builds a single transmit-domain vector that degrades
decoding across blocks: per probe it draws a random message block, a fresh
realization and noise, checks whether the system still decodes correctly
under the accumulated perturbation, and if so finds the smallest
receiver-domain perturbation that flips the decision (per-target binary
search with an inner projected-gradient walk), maps it back to the transmit
domain through the adversary aggregate by regularized least squares, and
accumulates under the power budget. Baselines: budget-matched isotropic
jamming (``autoencoder.jamming``) and a single-step fast-gradient
accumulation.

Per-class searches inside the minimal-perturbation routine are independent
and evaluated as one batch; the outer accumulation loop is sequential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autoencoder import (
    CHANNEL_MODES,
    AttackApplication,
    AutoencoderNets,
    attack_dimension,
    decoder_input_gradient,
    fresh_blocks,
    pack_decoder_input,
    pipeline_forward,
)
from .config import COUNT, DECIBELS, Section, SystemConfig, setting
from .errors import AllTargetsFailed, InvariantViolation
from .linalg import ls_solve
from .neural import Network

BUDGET_RTOL = 1e-12  # a rescale onto the budget sphere rounds past it by less
# Bisection probes of the minimal-flip search over the radius 2 ||w||: ten
# halvings narrow it to under 1e-3 of itself (ceil(log2 1000) = 10).
SEARCH_PROBES = 10


# ---------------------------------------------------------------------------
# budgets and perturbation containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttackBudget:
    """Power budget from a perturbation-to-signal ratio in dB.

    The squared-norm budget is reference_power * 10^(psr_db / 10); the
    harness picks the reference per attack channel (see
    ``harness.make_budget``).
    """

    psr_db: float
    reference_power: float

    def __post_init__(self):
        if not self.reference_power > 0.0:
            raise ValueError("reference_power must be > 0")

    @property
    def linear(self) -> float:
        return self.reference_power * 10.0 ** (self.psr_db / 10.0)


@dataclass
class PerturbationVector:
    """Transmit-domain universal perturbation tied to its squared-norm budget;
    every attack kind returns one, so this is the one budget check."""

    values: np.ndarray
    budget: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim != 1:
            raise ValueError("perturbation must be a vector")
        if not 0.0 < self.budget < np.inf:
            raise ValueError("budget must be finite and > 0")
        if not self.power <= self.budget * (1.0 + BUDGET_RTOL):
            raise InvariantViolation(f"perturbation power {self.power:.6e} exceeds "
                                     f"budget {self.budget:.6e}")

    @property
    def power(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))


@dataclass
class AttackResult:
    """Outcome of one universal-perturbation construction; every probe is
    counted once, as a flip found, already broken or skipped."""

    perturbation: PerturbationVector
    iterations: int
    flips_found: int
    already_broken: int
    skipped: int            # probes where no target class flipped in range
    grad_evals: int         # decoder input gradient rows, failed searches included

    def __post_init__(self):
        if self.flips_found + self.already_broken + self.skipped != self.iterations:
            raise InvariantViolation(
                f"{self.flips_found} flips + {self.already_broken} broken + "
                f"{self.skipped} skipped != {self.iterations} probes")


@dataclass
class AttackSettings(Section):
    """Budget, search shape and attack channel of the attack constructions:
    n_p outer probes, n_s inner descent steps per bisection probe."""

    section = "attack"

    psr_db: float = setting(-7.0, DECIBELS)
    n_p: int = setting(50, COUNT)
    n_s: int = setting(20, COUNT)
    channel_mode: str = setting("ideal", ((lambda v: v in CHANNEL_MODES),
                                          f"must be one of {CHANNEL_MODES}"))


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each batch row, over every axis but the first."""
    return np.sqrt(np.sum(np.abs(x) ** 2, axis=tuple(range(1, x.ndim))))


def project_band(w_adv: np.ndarray, w: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Batched whole-norm band clamp around w with half-width direction beta.

    Row b becomes w[b] - beta[b] when ||w_adv[b]|| falls below
    ||w[b] - beta[b]||, w[b] + beta[b] when it exceeds ||w[b] + beta[b]||, and
    stays w_adv[b] in between.
    """
    alpha_low = w - beta
    alpha_up = w + beta
    n_adv = _row_norms(w_adv)
    rows = (slice(None),) + (None,) * (w.ndim - 1)
    below = (n_adv < _row_norms(alpha_low))[rows]
    above = (n_adv > _row_norms(alpha_up))[rows]
    return np.where(below, alpha_low, np.where(above, alpha_up, w_adv))


def enforce_power(p: np.ndarray, budget: float) -> np.ndarray:
    """Scale back to the sphere when the squared norm exceeds the budget."""
    power = float(np.sum(np.abs(p) ** 2))
    if power <= budget:
        return p
    return p * np.sqrt(budget / power)


# ---------------------------------------------------------------------------
# receiver -> transmit mapping
# ---------------------------------------------------------------------------

def receiver_to_transmit(g_set: np.ndarray | None, ptilde: np.ndarray) -> np.ndarray:
    """Map per-symbol receiver-domain perturbations to one transmit vector.

    The columns of ptilde (n_r, L) are averaged across the block (one
    time-invariant vector must serve every symbol), then the block aggregate
    - the symbol mean of g_set (L, n_r, n_t) - is inverted by ``ls_solve``'s
    ridge-regularized least squares. g_set=None stands for the identity
    attack channel and returns the average directly.
    """
    pbar = np.asarray(ptilde, dtype=np.complex128).mean(axis=1)
    if g_set is None:
        return pbar
    gbar = np.asarray(g_set, dtype=np.complex128).mean(axis=0)
    return ls_solve(gbar, pbar)


# ---------------------------------------------------------------------------
# minimal flipping perturbation (per-target bisection + projected walk)
# ---------------------------------------------------------------------------

def pgd_minimal_perturbation(decoder: Network, cfg: SystemConfig, w: np.ndarray,
                             k_set: np.ndarray, pgd: AttackSettings) -> np.ndarray:
    """Smallest receiver-domain perturbation that flips the block decision.

    For every candidate target class a SEARCH_PROBES-step bisection of the
    radius eps over (0, 2 ||w||] runs an n_s-step walk: step along the
    normalized targeted-loss gradient, clamp to the norm band of the probe
    direction, refresh the gradient. A probe succeeds when the majority of
    symbol decisions equal the target and the decision vector actually
    changed (the constraint is a changed decision, so the clean block's own
    majority class cannot win at radius zero). All class searches advance in
    lockstep as one decoder batch. The walk moves the received signal only;
    the CSI channels of the decoder input stay fixed.

    Returns the (n_r, L) smallest flipping radius times the unit clean-signal
    gradient toward the class it flips to; subtracting it from w (the descent
    direction of the walk) realizes the flip. Every search, flipped or
    failed, takes 1 + SEARCH_PROBES * n_s decoder gradients of m rows each.
    Raises AllTargetsFailed when no class flips within the search radius.
    """
    w = np.asarray(w, dtype=np.complex128)
    n_r, length = w.shape
    m = cfg.m
    p_max = 2.0 * float(np.linalg.norm(w))

    targets = np.zeros((m, m, length))
    targets[np.arange(m), np.arange(m), :] = 1.0
    k_batch = np.broadcast_to(k_set[None], (m,) + k_set.shape)
    class_ids = np.arange(m)[:, None]

    def gradients(w_batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unit received-signal gradients and the decisions of the same forward."""
        d_input = pack_decoder_input(w_batch, k_batch)
        probs, g_r = decoder_input_gradient(decoder, cfg, d_input, targets)
        norms = _row_norms(g_r)
        live = norms > 0.0
        unit = np.zeros_like(g_r)
        unit[live] = g_r[live] / norms[live, None, None]
        deviation = np.abs(_row_norms(unit)[live] - 1.0)
        if not np.all(deviation < 1e-12):
            raise InvariantViolation(f"unit gradient norm deviates from 1 by {deviation.max():.3e}")
        return unit, probs.argmax(axis=1)

    w_tiled = np.broadcast_to(w, (m, n_r, length))
    g_clean, tiled_dec = gradients(w_tiled)
    clean_dec = tiled_dec[0]

    lo = np.zeros(m)
    hi = np.full(m, p_max)
    success = np.zeros(m, dtype=bool)
    p_norm = g_clean

    for _probe in range(SEARCH_PROBES):
        eps_ave = 0.5 * (lo + hi)
        step = (eps_ave / pgd.n_s)[:, None, None]
        beta = step * p_norm
        w_adv = w_tiled
        p_temp = p_norm
        for _j in range(pgd.n_s):
            w_adv = project_band(w_adv - step * p_temp, w_tiled, beta)
            p_temp, dec = gradients(w_adv)
        p_norm = p_temp
        changed = (dec != clean_dec[None, :]).any(axis=1)
        flipped = ((dec == class_ids).sum(axis=1) * 2 > length) & changed
        hi = np.where(flipped, eps_ave, hi)
        lo = np.where(flipped, lo, eps_ave)
        success |= flipped

    if not success.any():
        raise AllTargetsFailed(f"no target class flipped within radius {p_max:.3e}")

    per_class_eps = np.where(success, hi, np.inf)
    target = int(np.argmin(per_class_eps))
    return float(per_class_eps[target]) * g_clean[target]


# ---------------------------------------------------------------------------
# universal perturbation constructions
# ---------------------------------------------------------------------------

def rmaep(nets: AutoencoderNets, cfg: SystemConfig, budget: AttackBudget,
          pgd: AttackSettings, rng: np.random.Generator,
          channel_mode: str) -> AttackResult:
    """Accumulate minimal flipping perturbations into one universal vector.

    Each of the n_p probes draws a block, realization and noise, applies the
    perturbation built so far, and only refines on probes the system still
    decodes perfectly. The receiver-domain flip (the negated search output)
    is mapped to the transmit domain, through the probe's own adversary
    aggregates on 'double', and added under the power budget. Every forward
    and gradient runs on the folded networks.
    """
    nets = nets.folded()
    dim = attack_dimension(cfg, channel_mode)
    p_adv = np.zeros(dim, dtype=np.complex128)
    linear_budget = budget.linear
    flips = 0
    broken = 0
    skipped = 0

    for blocks, indices, chan in fresh_blocks(cfg, pgd.n_p, 1, rng, channel_mode == "double"):
        attack = AttackApplication(channel_mode=channel_mode, p_adv=p_adv)
        rec = pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2, rng=rng, attack=attack)
        if not np.array_equal(rec.decisions[0], indices[0]):
            broken += 1
            continue
        try:
            p_add = pgd_minimal_perturbation(nets.decoder, cfg, rec.r[0], rec.k[0], pgd)
        except AllTargetsFailed:
            skipped += 1
            continue
        # the walk descends along the gradient, so the additive flip is -p_add
        delta = receiver_to_transmit(None if rec.g is None else rec.g[0], -p_add)
        p_adv = enforce_power(p_adv + delta, linear_budget)
        flips += 1

    return AttackResult(perturbation=PerturbationVector(p_adv, linear_budget),
                        iterations=pgd.n_p, flips_found=flips, already_broken=broken,
                        skipped=skipped,
                        grad_evals=(flips + skipped) * cfg.m * (1 + SEARCH_PROBES * pgd.n_s))


def rmaef(nets: AutoencoderNets, cfg: SystemConfig, budget: AttackBudget,
          pgd: AttackSettings, rng: np.random.Generator,
          channel_mode: str) -> AttackResult:
    """Fast-gradient baseline: accumulate single-step true-label ascent
    directions, each mapped to the transmit domain through the aggregates of
    its forward (which applies a zero vector), normalized to the budget sphere
    and projected back under the budget. Every forward and gradient runs on
    the folded networks."""
    nets = nets.folded()
    dim = attack_dimension(cfg, channel_mode)
    p_adv = np.zeros(dim, dtype=np.complex128)
    zero_attack = AttackApplication(channel_mode, p_adv=np.zeros(dim, dtype=np.complex128))
    linear_budget = budget.linear
    steps = 0

    for blocks, _, chan in fresh_blocks(cfg, pgd.n_p, 1, rng, channel_mode == "double"):
        rec = pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2, rng=rng, attack=zero_attack)
        g_r = decoder_input_gradient(nets.decoder, cfg, pack_decoder_input(rec.r, rec.k),
                                     blocks)[1][0]
        norm = np.linalg.norm(g_r)
        if norm == 0.0:
            continue
        delta = receiver_to_transmit(None if rec.g is None else rec.g[0], g_r / norm)
        delta_norm = np.linalg.norm(delta)
        if delta_norm == 0.0:
            continue
        p_adv = enforce_power(p_adv + np.sqrt(linear_budget) * delta / delta_norm, linear_budget)
        steps += 1

    return AttackResult(perturbation=PerturbationVector(p_adv, linear_budget),
                        iterations=pgd.n_p, flips_found=steps, already_broken=0,
                        skipped=pgd.n_p - steps, grad_evals=pgd.n_p)


# ---------------------------------------------------------------------------
# perturbation replay files
# ---------------------------------------------------------------------------

def export_perturbation(path, p: PerturbationVector, channel_mode: str, psr_db: float,
                        scatterers: int) -> None:
    """CSV of interleaved real/imag components plus budget metadata, so an
    attack can be replayed against a checkpoint."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# risae perturbation v1\n")
        fh.write(f"# psr_db={psr_db:.17g} budget={p.budget:.17g} channel_mode={channel_mode} "
                 f"scatterers={scatterers} dimension={p.values.shape[0]}\n")
        fh.write("re,im\n")
        for v in p.values:
            fh.write(f"{v.real:.17g},{v.imag:.17g}\n")


def load_perturbation(path) -> tuple[PerturbationVector, dict]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 3 or lines[0] != "# risae perturbation v1" or lines[2] != "re,im":
        raise ValueError("not a perturbation file")
    meta: dict = {}
    for token in lines[1].removeprefix("# ").split():
        try:
            key, value = token.split("=", 1)
            meta[key] = {"channel_mode": str, "scatterers": int, "dimension": int}.get(
                key, float)(value)
        except ValueError:
            raise ValueError(f"not a perturbation file: cannot read {token!r}") from None
    rows = [line.split(",") for line in lines[3:] if line]
    if "budget" not in meta:
        raise ValueError("not a perturbation file: the header gives no budget")
    if meta.get("dimension") != len(rows):
        raise ValueError(f"not a perturbation file: {len(rows)} rows, "
                         f"the header gives dimension {meta.get('dimension')}")
    values = np.array([complex(float(r), float(i)) for r, i in rows])
    if not (np.isfinite(values).all() and np.isfinite(meta["budget"])):
        raise ValueError("not a perturbation file: a value or the budget is not finite")
    return PerturbationVector(values=values, budget=meta["budget"]), meta
