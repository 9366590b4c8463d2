"""Attack generation: universal adversarial perturbations and baselines.

The main algorithm builds a single transmit-domain vector that degrades
decoding across blocks: per probe it draws a random message block, a fresh
realization and noise, checks whether the system still decodes correctly
under the accumulated perturbation, and if so finds the smallest
receiver-domain perturbation that flips the decision (per-target binary
search with an inner projected-gradient walk), maps it back to the transmit
domain through the adversary aggregate by regularized least squares, and
accumulates under the power budget. Baselines: budget-matched isotropic
jamming and a single-step fast-gradient accumulation.

Per-class searches inside the minimal-perturbation routine are independent
and evaluated as one batch; the outer accumulation loop is sequential.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .autoencoder import (
    CHANNEL_MODES,
    AttackApplication,
    AutoencoderNets,
    adversary_cascade_set,
    attack_dimension,
    decoder_input_gradient,
    pack_decoder_input,
    pipeline_forward,
    random_message_blocks,
)
from .channel import ChannelModel, crandn
from .config import COUNT, POSITIVE, SystemConfig, at_least, one_of, setting
from .errors import AllTargetsFailed, InvariantViolation, NoProgress
from .linalg import default_ridge, ls_solve
from .neural import Network

BUDGET_TOL = 1e-9


# ---------------------------------------------------------------------------
# budgets and perturbation containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttackBudget:
    """Power budget from a perturbation-to-signal ratio in dB.

    The squared-norm budget is reference_power * 10^(psr_db / 10); the
    reference defaults to the encoder transmit power but is configurable
    (e.g. mean transmit symbol energy, or measured received energy for the
    identity attack channel).
    """

    psr_db: float
    reference_power: float = 1.0

    def __post_init__(self):
        if self.reference_power <= 0.0:
            raise ValueError("reference_power must be > 0")

    @property
    def linear(self) -> float:
        return self.reference_power * 10.0 ** (self.psr_db / 10.0)


def assert_within_budget(values: np.ndarray, budget: float) -> None:
    """Module-boundary budget check shared by every attack kind."""
    power = float(np.sum(np.abs(values) ** 2))
    if power > budget + BUDGET_TOL:
        raise AssertionError(f"perturbation power {power:.6e} exceeds budget {budget:.6e}")


@dataclass
class PerturbationVector:
    """Transmit-domain universal perturbation tied to its squared-norm budget."""

    values: np.ndarray
    budget: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim != 1:
            raise ValueError("perturbation must be a vector")
        if self.budget <= 0.0:
            raise ValueError("budget must be > 0")
        assert_within_budget(self.values, self.budget)

    @property
    def power(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))


@dataclass
class AttackResult:
    """Outcome of one universal-perturbation construction; every probe is
    counted once, as a flip found, already broken or skipped."""

    perturbation: PerturbationVector
    channel_mode: str
    iterations: int
    flips_found: int
    already_broken: int
    skipped: int            # probes where no target class flipped in range
    grad_evals: int         # decoder input gradients, failed searches included

    def __post_init__(self):
        if self.flips_found + self.already_broken + self.skipped != self.iterations:
            raise InvariantViolation(
                f"{self.flips_found} flips + {self.already_broken} broken + "
                f"{self.skipped} skipped != {self.iterations} probes")

    @property
    def success_count(self) -> int:
        return self.flips_found + self.already_broken


BUDGET_REFERENCES = ("auto", "power", "symbol", "received")


@dataclass
class AttackSettings:
    """Budget, search shape and attack channel of the attack constructions.

    n_p outer probes, n_s inner descent steps per bisection probe. p_max and
    eps_acc default per probe to 2 ||w|| and 1e-3 p_max when left unset.
    ridge=None applies the default trace-scaled regularizer to the
    receiver-to-transmit solve; ridge=0 disables regularization.
    """

    psr_db: float = -7.0
    n_p: int = setting(50, COUNT)
    n_s: int = setting(20, COUNT)
    eps_acc: float | None = setting(None, POSITIVE)
    p_max: float | None = setting(None, POSITIVE)
    ridge: float | None = setting(None, at_least(0))
    channel_mode: str = setting("ideal", one_of(CHANNEL_MODES))
    budget_reference: str = setting("auto", one_of(BUDGET_REFERENCES))
    reference_blocks: int = setting(256, COUNT)

    def search_radius(self, w_norm: float) -> tuple[float, float, int]:
        """(p_max, eps_acc, bisection probes); at least one probe, also when
        eps_acc is at or above a default p_max."""
        p_max = self.p_max if self.p_max is not None else 2.0 * w_norm
        eps_acc = self.eps_acc if self.eps_acc is not None else 1e-3 * p_max
        probes = max(1, int(np.ceil(np.log2(p_max / eps_acc))))
        return p_max, eps_acc, probes


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
    if w_adv.shape != w.shape or beta.shape != w.shape:
        raise ValueError("w_adv, w and beta must share a shape")
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
# baselines
# ---------------------------------------------------------------------------

def jamming(budget: float, dimension: int, rng: np.random.Generator) -> PerturbationVector:
    """Isotropic Gaussian direction rescaled to exactly the budget norm."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    raw = crandn(rng, dimension)
    values = raw * (np.sqrt(budget) / np.linalg.norm(raw))
    return PerturbationVector(values=values, budget=budget)


# ---------------------------------------------------------------------------
# receiver -> transmit mapping
# ---------------------------------------------------------------------------

def receiver_to_transmit(g_set: np.ndarray | None, ptilde: np.ndarray,
                         ridge: float | None = None) -> np.ndarray:
    """Map per-symbol receiver-domain perturbations to one transmit vector.

    Columns of ptilde are averaged across the block (one time-invariant
    vector must serve every symbol), then the block aggregate - the symbol
    mean of g_set - is inverted by regularized least squares. g_set=None
    stands for the identity attack channel and returns the average directly.
    """
    ptilde = np.asarray(ptilde, dtype=np.complex128)
    pbar = ptilde.mean(axis=1) if ptilde.ndim == 2 else ptilde
    if g_set is None:
        return pbar
    g_set = np.asarray(g_set, dtype=np.complex128)
    gbar = g_set.mean(axis=0) if g_set.ndim == 3 else g_set
    if ridge is None:
        ridge = default_ridge(gbar)
    return ls_solve(gbar, pbar, ridge=ridge)


# ---------------------------------------------------------------------------
# minimal flipping perturbation (per-target bisection + projected walk)
# ---------------------------------------------------------------------------

@dataclass
class PgdOutcome:
    """Result of the minimal-perturbation search on one decoder input.

    p_add is eps_star times the unit clean-signal gradient toward the chosen
    target; subtracting it from the received block (the descent direction of
    the walk) realizes the flip.
    """

    p_add: np.ndarray
    target: int
    eps_star: float
    per_class_eps: np.ndarray
    success: np.ndarray
    probes_per_class: int
    grad_evals: int
    ray_verified: bool


def pgd_minimal_perturbation(decoder: Network, cfg: SystemConfig, w: np.ndarray,
                             k_set: np.ndarray, pgd: AttackSettings,
                             loss_kind: str = "bce") -> PgdOutcome:
    """Smallest receiver-domain perturbation that flips the block decision.

    For every candidate target class a bisection over the radius eps runs an
    n_s-step walk: step along the normalized targeted-loss gradient, clamp to
    the norm band of the probe direction, refresh the gradient. A probe
    succeeds when the majority of symbol decisions equal the target and the
    decision vector actually changed (the constraint is a changed decision,
    so the clean block's own majority class cannot win at radius zero). All
    class searches advance in lockstep as one decoder batch. Gradients on
    the CSI portion of the input are masked to zero before normalization.

    Raises AllTargetsFailed when no class flips within the search radius.
    """
    w = np.asarray(w, dtype=np.complex128)
    n_r, length = w.shape
    m = cfg.m
    p_max, eps_acc, probes = pgd.search_radius(float(np.linalg.norm(w)))

    targets = np.zeros((m, m, length))
    targets[np.arange(m), np.arange(m), :] = 1.0
    k_batch = np.broadcast_to(k_set[None], (m,) + k_set.shape)
    class_ids = np.arange(m)[:, None]

    grad_evals = 0

    def gradients(w_batch: np.ndarray) -> np.ndarray:
        nonlocal grad_evals
        d_input = pack_decoder_input(w_batch, k_batch)
        _, _, g_input = decoder_input_gradient(decoder, d_input, targets, loss_kind)
        grad_evals += m
        g_r = g_input[:, :n_r] + 1j * g_input[:, n_r:2 * n_r]
        norms = _row_norms(g_r)
        live = norms > 0.0
        unit = np.zeros_like(g_r)
        unit[live] = g_r[live] / norms[live, None, None]
        deviation = np.abs(_row_norms(unit)[live] - 1.0)
        if not np.all(deviation < 1e-12):
            raise InvariantViolation(f"unit gradient norm deviates from 1 by {deviation.max():.3e}")
        return unit

    def decisions(w_batch: np.ndarray) -> np.ndarray:
        d_input = pack_decoder_input(w_batch, k_batch)
        probs, _ = decoder.forward(d_input, train=False)
        return probs.argmax(axis=1)

    w_tiled = np.broadcast_to(w, (m, n_r, length))
    g_clean = gradients(w_tiled)
    clean_dec = decisions(w_tiled)[0]

    lo = np.zeros(m)
    hi = np.full(m, p_max)
    success = np.zeros(m, dtype=bool)
    p_norm = g_clean.copy()

    for _probe in range(probes):
        eps_ave = 0.5 * (lo + hi)
        step = (eps_ave / pgd.n_s)[:, None, None]
        beta = step * p_norm
        w_adv = w_tiled
        p_temp = p_norm
        for _j in range(pgd.n_s):
            w_adv = project_band(w_adv - step * p_temp, w_tiled, beta)
            p_temp = gradients(w_adv)
        p_norm = p_temp
        dec = decisions(w_adv)
        changed = (dec != clean_dec[None, :]).any(axis=1)
        flipped = ((dec == class_ids).sum(axis=1) * 2 > length) & changed
        hi = np.where(flipped, eps_ave, hi)
        lo = np.where(flipped, lo, eps_ave)
        success |= flipped

    if not success.any():
        raise AllTargetsFailed(f"no target class flipped within radius {p_max:.3e}",
                               grad_evals=grad_evals)

    per_class_eps = np.where(success, hi, np.inf)
    target = int(np.argmin(per_class_eps))
    eps_star = float(per_class_eps[target])
    p_add = eps_star * g_clean[target]
    ray_dec = decisions(np.broadcast_to(w - p_add, (m, n_r, length)))[0]
    ray_verified = bool(((ray_dec == target).sum() * 2 > length)
                        and (ray_dec != clean_dec).any())
    return PgdOutcome(p_add=p_add, target=target, eps_star=eps_star,
                      per_class_eps=per_class_eps, success=success,
                      probes_per_class=probes, grad_evals=grad_evals,
                      ray_verified=ray_verified)


# ---------------------------------------------------------------------------
# universal perturbation constructions
# ---------------------------------------------------------------------------

def rmaep(nets: AutoencoderNets, cfg: SystemConfig, budget: AttackBudget,
          pgd: AttackSettings, rng: np.random.Generator,
          channel_mode: str = "double") -> AttackResult:
    """Accumulate minimal flipping perturbations into one universal vector.

    Each of the n_p probes draws a block, realization and noise, applies the
    perturbation built so far, and only refines on probes the system still
    decodes perfectly. The receiver-domain flip (the negated search output)
    is mapped to the transmit domain and added under the power budget.
    """
    dim = attack_dimension(cfg, channel_mode)
    p_adv = np.zeros(dim, dtype=np.complex128)
    model = ChannelModel(cfg)
    linear_budget = budget.linear
    flips = 0
    broken = 0
    skipped = 0
    grad_evals = 0

    for _it in range(pgd.n_p):
        blocks, indices = random_message_blocks(cfg, 1, rng)
        chan = model.sample_batch(1, rng)
        attack = AttackApplication(channel_mode=channel_mode, p_adv=p_adv)
        rec = pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2, rng=rng,
                               attack=attack, train=False)
        if not np.array_equal(rec.decisions[0], indices[0]):
            broken += 1
            continue
        w_adv = (rec.z + rec.noise + rec.ptilde)[0]
        g_set = None if channel_mode == "ideal" else adversary_cascade_set(chan, rec.c1, rec.c2)[0]
        try:
            outcome = pgd_minimal_perturbation(nets.decoder, cfg, w_adv, rec.k[0], pgd,
                                               loss_kind=cfg.loss)
        except AllTargetsFailed as exc:
            grad_evals += exc.grad_evals
            skipped += 1
            continue
        grad_evals += outcome.grad_evals
        # the walk descends along the gradient, so the additive flip is -p_add
        delta = receiver_to_transmit(g_set, -outcome.p_add, ridge=pgd.ridge)
        p_adv = enforce_power(p_adv + delta, linear_budget)
        flips += 1

    assert_within_budget(p_adv, linear_budget)
    if flips == 0 and broken == 0:
        warnings.warn(NoProgress("no probe produced a successful flip or break"))
    return AttackResult(perturbation=PerturbationVector(p_adv, linear_budget),
                        channel_mode=channel_mode, iterations=pgd.n_p, flips_found=flips,
                        already_broken=broken, skipped=skipped, grad_evals=grad_evals)


def rmaef(nets: AutoencoderNets, cfg: SystemConfig, budget: AttackBudget,
          pgd: AttackSettings, rng: np.random.Generator,
          channel_mode: str = "double") -> AttackResult:
    """Fast-gradient baseline: accumulate single-step true-label ascent
    directions, each mapped to the transmit domain, normalized to the budget
    sphere and projected back under the budget."""
    dim = attack_dimension(cfg, channel_mode)
    p_adv = np.zeros(dim, dtype=np.complex128)
    model = ChannelModel(cfg)
    linear_budget = budget.linear
    n_r = cfg.n_r
    grad_evals = 0
    steps = 0

    for _it in range(pgd.n_p):
        blocks, _ = random_message_blocks(cfg, 1, rng)
        chan = model.sample_batch(1, rng)
        rec = pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2, rng=rng, train=False)
        _, _, g_input = decoder_input_gradient(nets.decoder, rec.d_input, blocks, cfg.loss)
        grad_evals += 1
        g_r = g_input[0, :n_r] + 1j * g_input[0, n_r:2 * n_r]
        norm = np.linalg.norm(g_r)
        if norm == 0.0:
            continue
        g_set = None if channel_mode == "ideal" else adversary_cascade_set(chan, rec.c1, rec.c2)[0]
        delta = receiver_to_transmit(g_set, g_r / norm, ridge=pgd.ridge)
        delta_norm = np.linalg.norm(delta)
        if delta_norm == 0.0:
            continue
        p_adv = enforce_power(p_adv + np.sqrt(linear_budget) * delta / delta_norm, linear_budget)
        steps += 1

    assert_within_budget(p_adv, linear_budget)
    if steps == 0:
        warnings.warn(NoProgress("no probe produced a usable gradient step"))
    return AttackResult(perturbation=PerturbationVector(p_adv, linear_budget),
                        channel_mode=channel_mode, iterations=pgd.n_p,
                        flips_found=steps, already_broken=0,
                        skipped=pgd.n_p - steps, grad_evals=grad_evals)


# ---------------------------------------------------------------------------
# perturbation replay files
# ---------------------------------------------------------------------------

def export_perturbation(path, p: PerturbationVector, channel_mode: str, psr_db: float) -> None:
    """CSV of interleaved real/imag components plus budget metadata, so an
    attack can be replayed against a checkpoint."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# risae perturbation v1\n")
        fh.write(f"# psr_db={psr_db:.17g} budget={p.budget:.17g} "
                 f"channel_mode={channel_mode} dimension={p.values.shape[0]}\n")
        fh.write("re,im\n")
        for v in p.values:
            fh.write(f"{v.real:.17g},{v.imag:.17g}\n")


def load_perturbation(path) -> tuple[PerturbationVector, dict]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "# risae perturbation v1":
        raise ValueError("not a perturbation file")
    meta: dict = {}
    for token in lines[1].removeprefix("# ").split():
        key, value = token.split("=", 1)
        meta[key] = value if key == "channel_mode" else float(value)
    rows = [line.split(",") for line in lines[3:] if line]
    values = np.array([float(r) + 1j * float(i) for r, i in rows])
    return PerturbationVector(values=values, budget=meta["budget"]), meta
