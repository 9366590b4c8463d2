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
import warnings
import zlib
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg

from .attack import AttackBudget, AttackResult, AttackSettings, rmaef, rmaep
from .autoencoder import (
    AttackApplication,
    AutoencoderNets,
    build_autoencoder,
    estimate_received_power,
    evaluate_ser,
    set_heap_policy,
    train,
)
from .config import COUNT, DECIBELS, POSITIVE, Section, SystemConfig, from_json, setting
from .errors import (ConfigInvalid, CorruptCheckpoint, InvariantViolation, MissingCheckpoint,
                     NoProgress, ShapeMismatch)
from .neural import BN_EPS, BN_MOMENTUM, KERNEL_SIZE, load_checkpoint, save_checkpoint

ATTACK_KINDS = ("secured", "jamming", "rmaef", "rmaep")
CSV_HEADER = "snr_db,attack,ser,trials,ci_halfwidth,scatterers,attack_channel"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class TrainSettings(Section):
    section = "train"

    snr_db: float = setting(15.0, DECIBELS)
    epochs: int = setting(200, COUNT)
    learning_rate: float = setting(1e-3, POSITIVE)
    batch_blocks: int = setting(64, COUNT)
    train_symbols: int = setting(4096, COUNT)


@dataclass
class EvalSettings(Section):
    section = "eval"

    snr_sweep_db: tuple[float, ...] = setting(
        (-4.0, 0.0, 4.0, 8.0),
        ((lambda v: len(v) > 0 and all(a < b for a, b in zip(v, v[1:]))
          and all(DECIBELS[0](a) for a in v) and len({_tag_int(a) for a in v}) == len(v)),
         f"must be a non-empty, strictly increasing list whose entries each {DECIBELS[1]}"
         ", no two sharing a seed tag (the entry rounded to 0.001 dB)"))
    test_blocks: int = setting(2000, COUNT)


@dataclass
class ExperimentConfig(Section):
    system: SystemConfig = field(default_factory=SystemConfig)
    train: TrainSettings = field(default_factory=TrainSettings)
    eval: EvalSettings = field(default_factory=EvalSettings)
    attack: AttackSettings = field(default_factory=AttackSettings)
    attacks: tuple[str, ...] = setting(
        ATTACK_KINDS,
        ((lambda v: len(v) > 0 and set(v) <= set(ATTACK_KINDS) and len(set(v)) == len(v)),
         f"must be a non-empty list of {ATTACK_KINDS}, none repeated"))
    scatterers: tuple[int, ...] = setting(
        (9,), ((lambda v: len(v) > 0 and min(v) >= 1 and len(set(v)) == len(v)),
               "must be a non-empty list of positive counts, none repeated"))
    seed: int = setting(20240810, ((lambda v: 0 <= v < 2 ** 64), "must lie in [0, 2**64)"))


# -- presets and the JSON round trip ----------------------------------------

def config_from_dict(data: dict) -> ExperimentConfig:
    """Build an ExperimentConfig, naming the offending field on any invalid
    entry (defaults fill only absent fields, never invalid ones)."""
    return from_json(ExperimentConfig, data)


def desk_preset(seed: int = ExperimentConfig.seed) -> ExperimentConfig:
    """The declared defaults: a uniformly scaled-down system that trains in
    minutes on a CPU."""
    return config_from_dict({"seed": seed})


def paper_preset(seed: int = ExperimentConfig.seed) -> ExperimentConfig:
    """Full-scale configuration; training runs for hours on a CPU. Only the
    fields where it differs from the defaults are given."""
    return config_from_dict({
        "system": {"n_t": 16, "n_r": 16, "a1_v": 4, "a1_h": 8, "a2_v": 4, "a2_h": 8,
                   "m": 64, "block_len": 20, "hidden_width": 256},
        "train": {"epochs": 1000, "train_symbols": 100_000},
        "eval": {"snr_sweep_db": [-8.0, -4.0, 0.0, 4.0, 8.0], "test_blocks": 10_000},
        "seed": seed,
    })


PRESETS = {"desk": desk_preset, "paper": paper_preset}


def _read_json_object(path) -> dict:
    """The JSON object in a config or manifest file; ConfigInvalid when the
    file is not UTF-8 JSON or its top level is not an object."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ConfigInvalid("<file>", f"not valid UTF-8: {exc}") from exc
        except ValueError as exc:  # also an integer literal past Python's digit limit
            raise ConfigInvalid("<file>", f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigInvalid("<file>", "top level must be an object")
    return data


def load_config(path) -> ExperimentConfig:
    return config_from_dict(_read_json_object(path))


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(cfg), fh, indent=2, sort_keys=True)
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
    entropy = [master_seed] + [_tag_int(t) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def snr_to_sigma2(power: float, snr_db: float) -> float:
    """The noise variance at which snr_db is the per-antenna transmit SNR:
    PowerNorm gives each transmit antenna a mean symbol energy of P^2."""
    return power * power * 10.0 ** (-snr_db / 10.0)


# ---------------------------------------------------------------------------
# training entry
# ---------------------------------------------------------------------------

def train_system(cfg: ExperimentConfig, out_dir) -> tuple[AutoencoderNets, Path]:
    """Train from scratch and persist checkpoint plus a per-epoch loss log."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sys_cfg = cfg.system.replace(sigma2=snr_to_sigma2(cfg.system.power, cfg.train.snr_db))
    nets = build_autoencoder(sys_cfg, derive_rng(cfg.seed, "init"))
    result = train(nets, sys_cfg, cfg.train.train_symbols, cfg.train.epochs,
                   cfg.train.learning_rate, derive_rng(cfg.seed, "train"),
                   batch_blocks=cfg.train.batch_blocks)
    ckpt_path = out_dir / "weights.ckpt"
    save_checkpoint(ckpt_path, nets.as_dict(),
                    meta={"system": asdict(sys_cfg), "seed": cfg.seed, "train": asdict(cfg.train)})
    log_path = out_dir / "training_log.csv"
    with open(log_path, "w", encoding="utf-8") as fh:
        fh.write("epoch,loss,wall_seconds\n")
        for i, (loss, secs) in enumerate(zip(result.loss_history, result.epoch_seconds)):
            fh.write(f"{i},{loss:.17g},{secs:.17g}\n")
    return nets, ckpt_path


def load_system(ckpt_path, cfg: ExperimentConfig) -> AutoencoderNets:
    """The networks the config declares, with the parameters a checkpoint holds.

    ConfigInvalid when the checkpoint was trained with another value of a
    field the networks depend on, or of one of the network settings
    ``risae.neural`` fixes; CorruptCheckpoint when its arrays are not
    exactly the parameters of those networks, in their shapes.
    """
    ckpt_path = Path(ckpt_path)
    if not ckpt_path.exists():
        raise MissingCheckpoint(f"no checkpoint at {ckpt_path}")
    arrays, meta = load_checkpoint(ckpt_path)
    saved = meta.get("system", {})
    if not isinstance(saved, dict):
        raise CorruptCheckpoint(f"{ckpt_path}: the recorded system is not an object")
    configured = {f.name: getattr(cfg.system, f.name) for f in fields(SystemConfig)
                  if f.metadata.get("network")}
    fixed = {"kernel_size": KERNEL_SIZE, "bn_eps": BN_EPS, "bn_momentum": BN_MOMENTUM}
    for name, value in (configured | fixed).items():
        if name in saved and saved[name] != value:
            says = "risae fixes it at" if name in fixed else "config says"
            raise ConfigInvalid(f"system.{name}",
                                f"checkpoint was trained with {saved[name]}, {says} {value}")
    nets = build_autoencoder(cfg.system, derive_rng(cfg.seed, "init")).as_dict()
    want = {(name, key) for name, net in nets.items() for key in net.params()}
    have = {(name, key) for name, params in arrays.items() for key in params}
    if have != want:
        name, key = min(want ^ have, key=str)
        what = "missing" if (name, key) in want else "unknown to the configured networks"
        raise CorruptCheckpoint(f"{ckpt_path}: array {name}/{key} is {what}")
    for name, params in arrays.items():
        for key, value in params.items():
            try:
                nets[name].set_param(key, value)
            except ShapeMismatch as exc:
                raise CorruptCheckpoint(f"{ckpt_path}: {name}/{exc}") from exc
    return AutoencoderNets(**nets)


def checkpoint_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------

REFERENCE_BLOCKS = 256


def make_budget(cfg: ExperimentConfig, sys_cfg: SystemConfig, nets: AutoencoderNets,
                mode: str) -> AttackBudget:
    """The attack budget: psr_db relative to the signal where the
    perturbation enters.

    On the identity attack channel ('ideal') the perturbation is added at
    the receiver, so the reference is the mean received symbol energy
    E||K o||^2, estimated over REFERENCE_BLOCKS seeded noiseless blocks. On
    the double-scattering channel it is budgeted at the adversary's antenna
    port, whose aggregate gain matches the legitimate link's, so the
    reference is the mean transmit symbol energy n_t P^2.
    """
    if mode == "ideal":
        rng = derive_rng(cfg.seed, "refpower", sys_cfg.num_scatterers)
        reference_power = estimate_received_power(nets, sys_cfg, REFERENCE_BLOCKS, rng)
    else:
        reference_power = sys_cfg.n_t * sys_cfg.power ** 2
    return AttackBudget(psr_db=cfg.attack.psr_db, reference_power=reference_power)


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


def attack_vector(cfg: ExperimentConfig, sys_cfg: SystemConfig, nets: AutoencoderNets,
                  kind: str, snr_db: float, budget: AttackBudget) -> AttackResult:
    """The rmaef or rmaep construction of a cell, from its stream; ``risae
    attack`` exports its vector. A zero vector warns NoProgress naming the
    cell, which a sweep worker prints on its stderr."""
    mode = cfg.attack.channel_mode
    rng = derive_rng(cfg.seed, "attack", kind, mode, sys_cfg.num_scatterers, snr_db)
    builder = {"rmaep": rmaep, "rmaef": rmaef}[kind]
    result = builder(nets, sys_cfg, budget, cfg.attack, rng, channel_mode=mode)
    if result.flips_found == 0:
        warnings.warn(NoProgress(
            f"sc={sys_cfg.num_scatterers} snr={snr_db:+.1f} dB {kind} ({mode} attack channel): "
            f"{result.iterations} probes, none refined the vector ({result.already_broken} "
            f"already broken, {result.skipped} skipped), so the vector is zero"))
    return result


def build_attack_source(cfg: ExperimentConfig, sys_cfg: SystemConfig,
                        nets: AutoencoderNets, kind: str, snr_db: float,
                        budget: AttackBudget) -> AttackApplication | None:
    """Construct the perturbation (if any) one benchmark cell evaluates."""
    mode = cfg.attack.channel_mode
    if kind == "secured":
        return None
    if kind == "jamming":
        return AttackApplication(channel_mode=mode, jam_budget=budget.linear)
    result = attack_vector(cfg, sys_cfg, nets, kind, snr_db, budget)
    return AttackApplication(channel_mode=mode, p_adv=result.perturbation.values)


def run_cell(cfg: ExperimentConfig, nets: AutoencoderNets, scatterers: int,
             snr_db: float, kind: str, budget: AttackBudget) -> ResultRow:
    """One sweep cell; ``budget`` is ``make_budget``'s at this scatterer
    count, which the 'secured' cell ignores."""
    sys_cfg = cfg.system.replace(num_scatterers=scatterers,
                                 sigma2=snr_to_sigma2(cfg.system.power, snr_db))
    source = build_attack_source(cfg, sys_cfg, nets, kind, snr_db, budget)
    rng = derive_rng(cfg.seed, "eval", kind, cfg.attack.channel_mode, scatterers, snr_db)
    est = evaluate_ser(nets, sys_cfg, source, cfg.eval.test_blocks, rng)
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
    """Give a sweep worker its state, the heap policy of ``set_heap_policy``
    and one OpenBLAS thread: the workers already keep every core busy. The
    thread setter is looked up in the libraries numpy's linear algebra module
    was linked against; without OpenBLAS the thread count stays."""
    import ctypes

    global _sweep_state
    _sweep_state = (cfg, nets)
    set_heap_policy()
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
                budget: AttackBudget) -> tuple[ResultRow, float]:
    """One cell in a sweep worker, with its wall time in seconds."""
    started = time.perf_counter()
    row = run_cell(*_sweep_state, scatterers, snr_db, kind, budget)
    return row, time.perf_counter() - started


def run_sweep(cfg: ExperimentConfig, nets: AutoencoderNets,
              progress: bool = False) -> list[ResultRow]:
    """Evaluate every (scatterers, SNR, benchmark) cell of the grid.

    Cells derive independent generators from the master seed, so results do
    not depend on evaluation order; rows come back sorted. The budgets are
    computed here, once per scatterer count: the reference power never
    depends on the SNR, because its seed tag holds only the scatterer count
    and the received estimate runs noiseless. The cells run in forked worker
    processes, one per available CPU (at most one per cell), with one BLAS
    thread each. Progress lines appear in completion order.
    """
    # imported here, not at the top: they add about 20 ms to every risae import
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    budgets = {sc: make_budget(cfg, cfg.system.replace(num_scatterers=sc), nets,
                               cfg.attack.channel_mode) for sc in cfg.scatterers}
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
# persistence: CSV, manifest
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


def export_results(rows: list[ResultRow], csv_path) -> Path:
    """Write the results CSV."""
    csv_path = Path(csv_path)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    text = format_rows(rows)
    if format_rows(parse_rows(text)) != text:  # 17-significant-digit fidelity
        raise InvariantViolation(f"results for {csv_path} do not survive a parse/format round trip")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return csv_path


MANIFEST_VERSION = 1


def write_manifest(path, cfg: ExperimentConfig, ckpt_path, csv_name: str) -> None:
    payload = {
        "manifest_version": MANIFEST_VERSION,
        "config": asdict(cfg),
        "checkpoint": str(Path(ckpt_path).name),
        "checkpoint_sha256": checkpoint_sha256(ckpt_path),
        "results_csv": csv_name,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def sweep_to_directory(cfg: ExperimentConfig, nets: AutoencoderNets, ckpt_path,
                       out_dir, progress: bool) -> Path:
    """Run the full grid and persist CSV, manifest and a copy of the
    checkpoint, making the output directory self-contained."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = Path(ckpt_path)
    local_ckpt = out_dir / ckpt_path.name
    if local_ckpt.resolve() != ckpt_path.resolve():
        shutil.copy2(ckpt_path, local_ckpt)
    rows = run_sweep(cfg, nets, progress=progress)
    csv_path = export_results(rows, out_dir / "results.csv")
    write_manifest(out_dir / "manifest.json", cfg, local_ckpt, csv_path.name)
    return csv_path


def rerun_from_manifest(manifest_path, out_dir, progress: bool) -> Path:
    """Reproduce a sweep byte-for-byte from its manifest.

    The checkpoint is located next to the manifest (or at the recorded path)
    and verified against the stored content hash.
    """
    manifest_path = Path(manifest_path)
    payload = _read_json_object(manifest_path)
    if payload.get("manifest_version") != MANIFEST_VERSION:
        raise ConfigInvalid("manifest_version", "unsupported manifest version")
    for key, kind in (("config", dict), ("checkpoint", str), ("checkpoint_sha256", str)):
        if not isinstance(payload.get(key), kind):
            raise ConfigInvalid(key, "missing from the manifest or of the wrong type")
    cfg = config_from_dict(payload["config"])
    ckpt_path = manifest_path.parent / payload["checkpoint"]
    if not ckpt_path.exists():
        raise MissingCheckpoint(f"checkpoint {ckpt_path} from manifest not found")
    if checkpoint_sha256(ckpt_path) != payload["checkpoint_sha256"]:
        raise ConfigInvalid("checkpoint_sha256", "checkpoint content differs from manifest")
    nets = load_system(ckpt_path, cfg)
    return sweep_to_directory(cfg, nets, ckpt_path, out_dir, progress=progress)
