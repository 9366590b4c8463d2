"""Reproducible experiment orchestration.

A single JSON-serializable ExperimentConfig drives training, attack
construction and the SER sweep over the SNR grid. Every sweep cell
(scatterer count x SNR x benchmark) derives its own generator from the
master seed, so cells are order-independent and run in parallel worker
processes, and a rerun from the written manifest reproduces the CSV byte for
byte on the same machine.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import zlib
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg

from .attack import AttackBudget, PgdConfig, rmaef, rmaep
from .autoencoder import (
    AttackApplication,
    AutoencoderNets,
    build_autoencoder,
    estimate_received_power,
    evaluate_ser,
    train,
)
from .config import SystemConfig
from .errors import ConfigInvalid, InvariantViolation, MissingCheckpoint
from .neural import load_checkpoint, save_checkpoint

ATTACK_KINDS = ("secured", "jamming", "rmaef", "rmaep")
BUDGET_REFERENCES = ("auto", "power", "symbol", "received")
CSV_HEADER = "snr_db,attack,ser,trials,ci_halfwidth,scatterers,attack_channel"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class TrainSettings:
    snr_db: float = 15.0
    epochs: int = 200
    learning_rate: float = 1e-3
    batch_blocks: int = 64
    train_symbols: int = 4096


@dataclass
class EvalSettings:
    snr_sweep_db: list[float] = field(default_factory=lambda: [-4.0, 0.0, 4.0, 8.0])
    test_blocks: int = 2000
    chunk_blocks: int = 512


@dataclass
class AttackSettings:
    psr_db: float = -7.0
    n_p: int = 50
    n_s: int = 20
    eps_acc: float | None = None
    p_max: float | None = None
    ridge: float | None = None
    channel_mode: str = "ideal"
    budget_reference: str = "auto"
    reference_blocks: int = 256

    def pgd_config(self) -> PgdConfig:
        return PgdConfig(n_p=self.n_p, n_s=self.n_s, eps_acc=self.eps_acc,
                         p_max=self.p_max, ridge=self.ridge)


@dataclass
class ExperimentConfig:
    system: SystemConfig = field(default_factory=SystemConfig)
    train: TrainSettings = field(default_factory=TrainSettings)
    eval: EvalSettings = field(default_factory=EvalSettings)
    attack: AttackSettings = field(default_factory=AttackSettings)
    attacks: list[str] = field(default_factory=lambda: list(ATTACK_KINDS))
    scatterers: list[int] = field(default_factory=lambda: [9])
    seed: int = 20240810
    preset: str = "custom"
    # geometry distances in meters; recorded metadata only (links are
    # normalized to unit large-scale gain and strength swept through SNR)
    distance_d1_m: float = 100.0
    distance_d2_m: float = 200.0
    distance_dh_m: float = 2.0

    def validate(self) -> None:
        try:
            self.system.validate()
        except ValueError as exc:
            raise ConfigInvalid("system", str(exc)) from exc
        if self.train.epochs < 1:
            raise ConfigInvalid("train.epochs", "must be >= 1")
        if self.train.learning_rate <= 0:
            raise ConfigInvalid("train.learning_rate", "must be > 0")
        if self.train.batch_blocks < 1:
            raise ConfigInvalid("train.batch_blocks", "must be >= 1")
        if self.train.train_symbols < 1:
            raise ConfigInvalid("train.train_symbols", "must be >= 1")
        sweep = self.eval.snr_sweep_db
        if not sweep:
            raise ConfigInvalid("eval.snr_sweep_db", "must be a non-empty list")
        if any(b <= a for a, b in zip(sweep, sweep[1:])):
            raise ConfigInvalid("eval.snr_sweep_db", "must be strictly increasing")
        if self.eval.test_blocks < 1:
            raise ConfigInvalid("eval.test_blocks", "must be >= 1")
        if self.eval.chunk_blocks < 1:
            raise ConfigInvalid("eval.chunk_blocks", "must be >= 1")
        if self.attack.n_p < 1:
            raise ConfigInvalid("attack.n_p", "must be >= 1")
        if self.attack.n_s < 1:
            raise ConfigInvalid("attack.n_s", "must be >= 1")
        if self.attack.eps_acc is not None and self.attack.eps_acc <= 0:
            raise ConfigInvalid("attack.eps_acc", "must be > 0 when set")
        if self.attack.p_max is not None and self.attack.p_max <= 0:
            raise ConfigInvalid("attack.p_max", "must be > 0 when set")
        if self.attack.p_max is not None and self.attack.eps_acc is not None \
                and self.attack.p_max <= self.attack.eps_acc:
            raise ConfigInvalid("attack.p_max", "must exceed attack.eps_acc")
        if self.attack.ridge is not None and self.attack.ridge < 0:
            raise ConfigInvalid("attack.ridge", "must be >= 0 when set")
        if self.attack.channel_mode not in ("ideal", "double"):
            raise ConfigInvalid("attack.channel_mode", "must be 'ideal' or 'double'")
        if self.attack.budget_reference not in BUDGET_REFERENCES:
            raise ConfigInvalid("attack.budget_reference",
                                f"must be one of {BUDGET_REFERENCES}")
        if self.attack.reference_blocks < 1:
            raise ConfigInvalid("attack.reference_blocks", "must be >= 1")
        for kind in self.attacks:
            if kind not in ATTACK_KINDS:
                raise ConfigInvalid("attacks", f"unknown attack kind {kind!r}")
        if not self.attacks:
            raise ConfigInvalid("attacks", "must name at least one benchmark")
        if not self.scatterers or any(s < 1 for s in self.scatterers):
            raise ConfigInvalid("scatterers", "must be a list of positive counts")
        if not isinstance(self.seed, int):
            raise ConfigInvalid("seed", "must be an integer")

    def to_dict(self) -> dict:
        return asdict(self)


def desk_preset(seed: int = 20240810) -> ExperimentConfig:
    """Uniformly scaled-down system that trains in minutes on a CPU."""
    cfg = ExperimentConfig(
        system=SystemConfig(n_t=4, n_r=4, a1_v=2, a1_h=4, a2_v=2, a2_h=4, m=16,
                            block_len=8, num_scatterers=9, hidden_width=128),
        train=TrainSettings(snr_db=15.0, epochs=200, learning_rate=1e-3,
                            batch_blocks=64, train_symbols=4096),
        eval=EvalSettings(snr_sweep_db=[-4.0, 0.0, 4.0, 8.0], test_blocks=2000),
        attack=AttackSettings(psr_db=-7.0, n_p=50, n_s=20, channel_mode="ideal"),
        scatterers=[9],
        seed=seed,
        preset="desk",
    )
    cfg.validate()
    return cfg


def paper_preset(seed: int = 20240810) -> ExperimentConfig:
    """Full-scale configuration; training runs for hours on a CPU."""
    cfg = ExperimentConfig(
        system=SystemConfig(n_t=16, n_r=16, a1_v=4, a1_h=8, a2_v=4, a2_h=8, m=64,
                            block_len=20, num_scatterers=9, hidden_width=256),
        train=TrainSettings(snr_db=15.0, epochs=1000, learning_rate=1e-3,
                            batch_blocks=64, train_symbols=100_000),
        eval=EvalSettings(snr_sweep_db=[-8.0, -4.0, 0.0, 4.0, 8.0], test_blocks=10_000),
        attack=AttackSettings(psr_db=-7.0, n_p=50, n_s=20, channel_mode="ideal"),
        scatterers=[9],
        seed=seed,
        preset="paper",
    )
    cfg.validate()
    return cfg


PRESETS = {"desk": desk_preset, "paper": paper_preset}


# -- JSON round trip --------------------------------------------------------

def _take(data: dict, path: str, key: str, kind, default):
    if key not in data:
        return default
    value = data.pop(key)
    where = f"{path}.{key}" if path else key
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ConfigInvalid(where, f"expected an integer, got {value!r}")
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigInvalid(where, f"expected {kind.__name__}, got {value!r}")
    return value


def _optional_float(data: dict, path: str, key: str, default):
    if key not in data:
        return default
    value = data.pop(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(f"{path}.{key}", f"expected a number or null, got {value!r}")
    return float(value)


def _reject_unknown(data: dict, path: str) -> None:
    if data:
        key = sorted(data)[0]
        where = f"{path}.{key}" if path else key
        raise ConfigInvalid(where, "unknown field")


def _section(data: dict, name: str) -> dict:
    section = data.pop(name, {})
    if not isinstance(section, dict):
        raise ConfigInvalid(name, "expected an object")
    return dict(section)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig, naming the offending field on
    any invalid entry (defaults fill only absent fields, never invalid ones)."""
    data = dict(data)
    cfg = ExperimentConfig()

    sys_data = _section(data, "system")
    sys_kwargs = {}
    for f in fields(SystemConfig):
        if f.name not in sys_data:
            continue
        value = sys_data.pop(f.name)
        where = f"system.{f.name}"
        if f.name == "n_adv" and value is None:
            sys_kwargs[f.name] = None
            continue
        if f.name == "loss":
            if not isinstance(value, str):
                raise ConfigInvalid(where, f"expected a string, got {value!r}")
        elif (f.name in ("power", "sigma2", "kappa", "omega", "bn_eps", "bn_momentum")
              or f.name.startswith(("spread", "spacing"))):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigInvalid(where, f"expected a number, got {value!r}")
            value = float(value)
        else:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigInvalid(where, f"expected an integer, got {value!r}")
        sys_kwargs[f.name] = value
    _reject_unknown(sys_data, "system")
    try:
        cfg.system = SystemConfig(**sys_kwargs) if sys_kwargs else SystemConfig()
        cfg.system.validate()
    except ValueError as exc:
        raise ConfigInvalid("system", str(exc)) from exc

    tr = _section(data, "train")
    cfg.train = TrainSettings(
        snr_db=_take(tr, "train", "snr_db", float, cfg.train.snr_db),
        epochs=_take(tr, "train", "epochs", int, cfg.train.epochs),
        learning_rate=_take(tr, "train", "learning_rate", float, cfg.train.learning_rate),
        batch_blocks=_take(tr, "train", "batch_blocks", int, cfg.train.batch_blocks),
        train_symbols=_take(tr, "train", "train_symbols", int, cfg.train.train_symbols),
    )
    _reject_unknown(tr, "train")

    ev = _section(data, "eval")
    sweep = ev.pop("snr_sweep_db", list(cfg.eval.snr_sweep_db))
    if (not isinstance(sweep, list) or
            any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in sweep)):
        raise ConfigInvalid("eval.snr_sweep_db", "expected a list of numbers")
    cfg.eval = EvalSettings(
        snr_sweep_db=[float(v) for v in sweep],
        test_blocks=_take(ev, "eval", "test_blocks", int, cfg.eval.test_blocks),
        chunk_blocks=_take(ev, "eval", "chunk_blocks", int, cfg.eval.chunk_blocks),
    )
    _reject_unknown(ev, "eval")

    at = _section(data, "attack")
    cfg.attack = AttackSettings(
        psr_db=_take(at, "attack", "psr_db", float, cfg.attack.psr_db),
        n_p=_take(at, "attack", "n_p", int, cfg.attack.n_p),
        n_s=_take(at, "attack", "n_s", int, cfg.attack.n_s),
        eps_acc=_optional_float(at, "attack", "eps_acc", cfg.attack.eps_acc),
        p_max=_optional_float(at, "attack", "p_max", cfg.attack.p_max),
        ridge=_optional_float(at, "attack", "ridge", cfg.attack.ridge),
        channel_mode=_take(at, "attack", "channel_mode", str, cfg.attack.channel_mode),
        budget_reference=_take(at, "attack", "budget_reference", str, cfg.attack.budget_reference),
        reference_blocks=_take(at, "attack", "reference_blocks", int, cfg.attack.reference_blocks),
    )
    _reject_unknown(at, "attack")

    attacks = data.pop("attacks", list(cfg.attacks))
    if not isinstance(attacks, list) or any(not isinstance(v, str) for v in attacks):
        raise ConfigInvalid("attacks", "expected a list of attack names")
    cfg.attacks = attacks

    scatterers = data.pop("scatterers", list(cfg.scatterers))
    if not isinstance(scatterers, list) or any(isinstance(v, bool) or not isinstance(v, int)
                                               for v in scatterers):
        raise ConfigInvalid("scatterers", "expected a list of integers")
    cfg.scatterers = scatterers

    cfg.seed = _take(data, "", "seed", int, cfg.seed)
    cfg.preset = _take(data, "", "preset", str, cfg.preset)
    cfg.distance_d1_m = _take(data, "", "distance_d1_m", float, cfg.distance_d1_m)
    cfg.distance_d2_m = _take(data, "", "distance_d2_m", float, cfg.distance_d2_m)
    cfg.distance_dh_m = _take(data, "", "distance_dh_m", float, cfg.distance_dh_m)
    _reject_unknown(data, "")
    cfg.validate()
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid("<file>", f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigInvalid("<file>", "top level must be an object")
    return config_from_dict(data)


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

def _tag_int(tag) -> int:
    if isinstance(tag, bool):
        raise TypeError("boolean seed tags are ambiguous")
    if isinstance(tag, int):
        return tag & 0xFFFFFFFF
    if isinstance(tag, float):
        return int(round(tag * 1000.0)) & 0xFFFFFFFF
    if isinstance(tag, str):
        return zlib.crc32(tag.encode("utf-8"))
    raise TypeError(f"unsupported seed tag {tag!r}")


def derive_rng(master_seed: int, *tags) -> np.random.Generator:
    """Independent generator for one labelled task under the master seed."""
    entropy = [master_seed & 0xFFFFFFFFFFFFFFFF] + [_tag_int(t) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def snr_to_sigma2(power: float, snr_db: float) -> float:
    return power * 10.0 ** (-snr_db / 10.0)


# ---------------------------------------------------------------------------
# training entry
# ---------------------------------------------------------------------------

def train_system(cfg: ExperimentConfig, out_dir) -> tuple[AutoencoderNets, Path]:
    """Train from scratch and persist checkpoint plus a per-epoch loss log."""
    cfg.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sys_cfg = cfg.system.replace(sigma2=snr_to_sigma2(cfg.system.power, cfg.train.snr_db))
    nets = build_autoencoder(sys_cfg, derive_rng(cfg.seed, "init"))
    result = train(nets, sys_cfg, cfg.train.train_symbols, cfg.train.epochs,
                   cfg.train.learning_rate, derive_rng(cfg.seed, "train"),
                   batch_blocks=cfg.train.batch_blocks)
    ckpt_path = out_dir / "weights.ckpt"
    save_checkpoint(ckpt_path, nets.as_dict(),
                    meta={"system": asdict(cfg.system), "seed": cfg.seed,
                          "train": asdict(cfg.train), "preset": cfg.preset})
    log_path = out_dir / "training_log.csv"
    with open(log_path, "w", encoding="utf-8") as fh:
        fh.write("epoch,loss,wall_seconds\n")
        for i, (loss, secs) in enumerate(zip(result.loss_history, result.epoch_seconds)):
            fh.write(f"{i},{loss:.17g},{secs:.17g}\n")
    return nets, ckpt_path


_NET_SHAPE_FIELDS = ("n_t", "n_r", "a1_v", "a1_h", "a2_v", "a2_h", "m", "block_len",
                     "hidden_width", "kernel_size")


def load_system(ckpt_path, cfg: ExperimentConfig) -> AutoencoderNets:
    """Load a checkpoint and verify it matches the experiment's dimensions."""
    ckpt_path = Path(ckpt_path)
    if not ckpt_path.exists():
        raise MissingCheckpoint(f"no checkpoint at {ckpt_path}")
    nets, meta = load_checkpoint(ckpt_path)
    saved = meta.get("system", {})
    for name in _NET_SHAPE_FIELDS:
        if name in saved and saved[name] != getattr(cfg.system, name):
            raise ConfigInvalid(f"system.{name}",
                                f"checkpoint was trained with {saved[name]}, "
                                f"config says {getattr(cfg.system, name)}")
    return AutoencoderNets.from_dict(nets)


def checkpoint_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------

def resolve_reference_power(cfg: ExperimentConfig, sys_cfg: SystemConfig,
                            nets: AutoencoderNets, mode: str) -> float:
    """Reference power for the perturbation-to-signal ratio.

    'power' is the plain transmit power P; 'symbol' the mean transmit symbol
    energy n_t P^2; 'received' a seeded Monte Carlo estimate of the mean
    received symbol energy E||K o||^2. 'auto' picks 'received' for the
    identity attack channel (the perturbation enters at the receiver) and
    'symbol' for the double-scattering one (budgeted at the adversary's
    antenna port, whose aggregate gain matches the legitimate link's).
    """
    ref = cfg.attack.budget_reference
    if ref == "auto":
        ref = "received" if mode == "ideal" else "symbol"
    if ref == "power":
        return sys_cfg.power
    if ref == "symbol":
        return sys_cfg.n_t * sys_cfg.power ** 2
    rng = derive_rng(cfg.seed, "refpower", sys_cfg.num_scatterers)
    return estimate_received_power(nets, sys_cfg, cfg.attack.reference_blocks, rng)


def make_budget(cfg: ExperimentConfig, sys_cfg: SystemConfig, nets: AutoencoderNets,
                mode: str) -> AttackBudget:
    return AttackBudget(psr_db=cfg.attack.psr_db,
                        reference_power=resolve_reference_power(cfg, sys_cfg, nets, mode))


def scatterer_budget(cfg: ExperimentConfig, nets: AutoencoderNets, scatterers: int,
                     kinds: list[str]) -> AttackBudget | None:
    """The budget shared by every SNR cell at one scatterer count.

    The reference power never depends on the SNR: its seed tag holds only the
    scatterer count and the received estimate runs noiseless. None when
    every kind is 'secured', which needs no budget.
    """
    if all(kind == "secured" for kind in kinds):
        return None
    return make_budget(cfg, cfg.system.replace(num_scatterers=scatterers), nets,
                       cfg.attack.channel_mode)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

@dataclass
class ResultRow:
    """One (scatterers, SNR, benchmark) cell of a sweep."""

    snr_db: float
    attack: str
    ser: float
    trials: int
    ci_halfwidth: float
    scatterers: int
    attack_channel: str

    def __post_init__(self):
        if not 0.0 <= self.ser <= 1.0:
            raise ValueError("ser must lie in [0, 1]")
        if self.trials <= 0:
            raise ValueError("trials must be positive")

    def sort_key(self):
        return (self.scatterers, self.snr_db, self.attack, self.attack_channel)


def build_attack_source(cfg: ExperimentConfig, sys_cfg: SystemConfig,
                        nets: AutoencoderNets, kind: str, snr_db: float,
                        budget: AttackBudget) -> AttackApplication | None:
    """Construct the perturbation (if any) one benchmark cell evaluates."""
    mode = cfg.attack.channel_mode
    if kind == "secured":
        return None
    if kind == "jamming":
        return AttackApplication(channel_mode=mode, jam_budget=budget.linear)
    rng = derive_rng(cfg.seed, "attack", kind, mode, sys_cfg.num_scatterers, snr_db)
    pgd = cfg.attack.pgd_config()
    builder = {"rmaep": rmaep, "rmaef": rmaef}[kind]
    result = builder(nets, sys_cfg, budget, pgd, rng, channel_mode=mode)
    return AttackApplication(channel_mode=mode, p_adv=result.perturbation.values)


def run_cell(cfg: ExperimentConfig, nets: AutoencoderNets, scatterers: int,
             snr_db: float, kind: str, budget: AttackBudget | None) -> ResultRow:
    """One sweep cell; ``budget`` comes from ``scatterer_budget`` (None for 'secured')."""
    sys_cfg = cfg.system.replace(num_scatterers=scatterers,
                                 sigma2=snr_to_sigma2(cfg.system.power, snr_db))
    source = build_attack_source(cfg, sys_cfg, nets, kind, snr_db, budget)
    rng = derive_rng(cfg.seed, "eval", kind, cfg.attack.channel_mode, scatterers, snr_db)
    est = evaluate_ser(nets, sys_cfg, source, cfg.eval.test_blocks, rng,
                       chunk=cfg.eval.chunk_blocks)
    return ResultRow(snr_db=snr_db, attack=kind, ser=est.ser, trials=est.symbols,
                     ci_halfwidth=est.ci_halfwidth, scatterers=scatterers,
                     attack_channel=cfg.attack.channel_mode)


# Submission order of the sweep's cells, slowest kind first, so that a worker
# is not left alone with an rmaep cell at the end of the sweep.
_KIND_RANK = {"rmaep": 0, "rmaef": 1, "jamming": 2, "secured": 3}

# (cfg, nets) of the sweep a worker process serves; set by _init_sweep_worker
# in the worker only, which inherits both from the parent through fork.
_sweep_state = None


def _init_sweep_worker(cfg: ExperimentConfig, nets: AutoencoderNets) -> None:
    """Give a sweep worker its state and one OpenBLAS thread.

    The workers already keep every core busy, so BLAS threads would only
    compete with them. The setter is looked up in the libraries numpy's
    linear algebra module was linked against; without OpenBLAS nothing changes.
    """
    import ctypes

    global _sweep_state
    _sweep_state = (cfg, nets)
    blas = ctypes.CDLL(_umath_linalg.__file__)
    for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                   "openblas_set_num_threads"):
        setter = getattr(blas, symbol, None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)
            return


def _sweep_cell(scatterers: int, snr_db: float, kind: str,
                budget: AttackBudget | None) -> tuple[ResultRow, float]:
    """One cell in a sweep worker, with its wall time in seconds."""
    cfg, nets = _sweep_state
    started = time.perf_counter()
    row = run_cell(cfg, nets, scatterers, snr_db, kind, budget)
    return row, time.perf_counter() - started


def run_sweep(cfg: ExperimentConfig, nets: AutoencoderNets,
              progress: bool = False) -> list[ResultRow]:
    """Evaluate every (scatterers, SNR, benchmark) cell of the grid.

    Cells derive independent generators from the master seed, so results do
    not depend on evaluation order; rows come back sorted. The budgets are
    computed here, once per scatterer count; the cells run in forked worker
    processes, one per available CPU (at most one per cell), with one BLAS
    thread each. Progress lines appear in completion order.
    """
    # imported here, not at the top: they add about 20 ms to every risae import
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    cfg.validate()
    budgets = {sc: scatterer_budget(cfg, nets, sc, cfg.attacks) for sc in cfg.scatterers}
    cells = [(sc, snr_db, kind) for sc in cfg.scatterers
             for snr_db in cfg.eval.snr_sweep_db for kind in cfg.attacks]
    cells.sort(key=lambda cell: _KIND_RANK[cell[2]])
    workers = min(len(os.sched_getaffinity(0)), len(cells))
    rows = []
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_sweep_worker, initargs=(cfg, nets)) as pool:
        futures = [pool.submit(_sweep_cell, sc, snr_db, kind, budgets[sc])
                   for sc, snr_db, kind in cells]
        try:
            for future in as_completed(futures):
                row, seconds = future.result()
                rows.append(row)
                if progress:
                    print(f"[sweep] sc={row.scatterers} snr={row.snr_db:+.1f} dB "
                          f"{row.attack:8s} ser={row.ser:.5f} ({seconds:.1f}s)", flush=True)
        finally:
            pool.shutdown(cancel_futures=True)
    rows.sort(key=ResultRow.sort_key)
    return rows


# ---------------------------------------------------------------------------
# persistence: CSV, plot script, manifest
# ---------------------------------------------------------------------------

def format_rows(rows: list[ResultRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(f"{row.snr_db:.17g},{row.attack},{row.ser:.17g},{row.trials},"
                     f"{row.ci_halfwidth:.17g},{row.scatterers},{row.attack_channel}")
    return "\n".join(lines) + "\n"


def parse_rows(text: str) -> list[ResultRow]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized results CSV header")
    rows = []
    for line in lines[1:]:
        snr, attack, ser, trials, hw, sc, mode = line.split(",")
        rows.append(ResultRow(snr_db=float(snr), attack=attack, ser=float(ser),
                              trials=int(trials), ci_halfwidth=float(hw),
                              scatterers=int(sc), attack_channel=mode))
    return rows


_PLOT_SCRIPT = '''"""Plot symbol error rate against SNR, one series per benchmark.

Reads {csv_name} from this directory and shows/saves a semilog-y figure.
"""

import csv
from collections import defaultdict
from pathlib import Path

import matplotlib.pyplot as plt

HERE = Path(__file__).resolve().parent
SERIES_ORDER = ["secured", "jamming", "rmaef", "rmaep"]
MARKERS = {{"secured": "o", "jamming": "s", "rmaef": "^", "rmaep": "v"}}

series = defaultdict(list)
with open(HERE / "{csv_name}", newline="") as fh:
    for row in csv.DictReader(fh):
        label = f"{{row['attack']}} (sc={{row['scatterers']}}, {{row['attack_channel']}})"
        series[(row["attack"], label)].append(
            (float(row["snr_db"]), float(row["ser"]), float(row["ci_halfwidth"])))

plt.figure(figsize=(6, 4.5))
floor = 1e-6
for (attack, label), points in sorted(
        series.items(), key=lambda kv: SERIES_ORDER.index(kv[0][0]) if kv[0][0] in SERIES_ORDER else 99):
    points.sort()
    snr = [p[0] for p in points]
    ser = [max(p[1], floor) for p in points]
    err = [p[2] for p in points]
    plt.errorbar(snr, ser, yerr=err, marker=MARKERS.get(attack, "x"), label=label)
plt.yscale("log")
plt.xlabel("SNR [dB]")
plt.ylabel("SER")
plt.grid(True, which="both", alpha=0.3)
plt.legend(fontsize=8)
plt.tight_layout()
plt.savefig(HERE / "{stem}.png", dpi=150)
print(f"wrote {{HERE / '{stem}.png'}}")
'''


def export_results(rows: list[ResultRow], csv_path) -> tuple[Path, Path]:
    """Write the results CSV plus a companion matplotlib script."""
    csv_path = Path(csv_path)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    text = format_rows(rows)
    if format_rows(parse_rows(text)) != text:  # 17-significant-digit fidelity
        raise InvariantViolation(f"results for {csv_path} do not survive a parse/format round trip")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    plot_path = csv_path.with_name(csv_path.stem + "_plot.py")
    with open(plot_path, "w", encoding="utf-8") as fh:
        fh.write(_PLOT_SCRIPT.format(csv_name=csv_path.name, stem=csv_path.stem))
    return csv_path, plot_path


MANIFEST_VERSION = 1


def write_manifest(path, cfg: ExperimentConfig, ckpt_path, csv_name: str) -> None:
    payload = {
        "manifest_version": MANIFEST_VERSION,
        "config": cfg.to_dict(),
        "checkpoint": str(Path(ckpt_path).name),
        "checkpoint_sha256": checkpoint_sha256(ckpt_path),
        "results_csv": csv_name,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def sweep_to_directory(cfg: ExperimentConfig, nets: AutoencoderNets, ckpt_path,
                       out_dir, progress: bool = False) -> Path:
    """Run the full grid and persist CSV, plot script, manifest and a copy of
    the checkpoint, making the output directory self-contained."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = Path(ckpt_path)
    local_ckpt = out_dir / ckpt_path.name
    if local_ckpt.resolve() != ckpt_path.resolve():
        shutil.copy2(ckpt_path, local_ckpt)
    rows = run_sweep(cfg, nets, progress=progress)
    csv_path, _ = export_results(rows, out_dir / "results.csv")
    write_manifest(out_dir / "manifest.json", cfg, local_ckpt, csv_path.name)
    return csv_path


def rerun_from_manifest(manifest_path, out_dir, progress: bool = False) -> Path:
    """Reproduce a sweep byte-for-byte from its manifest.

    The checkpoint is located next to the manifest (or at the recorded path)
    and verified against the stored content hash.
    """
    manifest_path = Path(manifest_path)
    with open(manifest_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("manifest_version") != MANIFEST_VERSION:
        raise ConfigInvalid("manifest_version", "unsupported manifest version")
    cfg = config_from_dict(payload["config"])
    ckpt_path = manifest_path.parent / payload["checkpoint"]
    if not ckpt_path.exists():
        raise MissingCheckpoint(f"checkpoint {ckpt_path} from manifest not found")
    if checkpoint_sha256(ckpt_path) != payload["checkpoint_sha256"]:
        raise ConfigInvalid("checkpoint_sha256", "checkpoint content differs from manifest")
    nets = load_system(ckpt_path, cfg)
    return sweep_to_directory(cfg, nets, ckpt_path, out_dir, progress=progress)
