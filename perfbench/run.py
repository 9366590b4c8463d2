"""risae benchmark: desk training, desk sweep and paper-scale training steps.

    python3 perfbench/run.py --checkpoint-sha256 <SHA-256 from BENCHMARK.json> \
        --workload desk-train --seed 7 --seconds 25 --trace 0

Runs one workload as a closed loop (one caller; the next operation starts
when the previous one returns) until its operations have taken ``--seconds``
seconds, checks every output, and prints the end-to-end metrics
(``--trace 0``) or, from a run with spans recorded around every risae
module, the per-layer metrics (``--trace 1``). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
CHECKPOINT = REFERENCE / "desk-seed7.ckpt"
OUT = ROOT / ".bench_out"

# The checkpoint, the reference sweep and the reference losses were all made
# with this master seed; it is also the default run seed.
REFERENCE_SEED = 7
SETUP_REPEATS = 9
SWEEP_SNRS_DB = [8.0]
DOUBLE_PROBE_SNR_DB = 8.0
# Losses of the first steps after warm-up must match the reference to this
# relative tolerance; it allows for BLAS summation order on other machines.
LOSS_RTOL = 1e-6
REFERENCE_STEPS = {"desk-train": 20, "paper-train": 5}
ROOT_SPAN = "bench.op"
# Reference time of HostProbe.kernel: about its median on the host of the
# README.md baseline when other tenants leave it alone. End-to-end times are
# reported scaled to that host speed.
PROBE_REFERENCE_S = 0.015
PROBE_EVERY_S = 0.5
# OpenBLAS threads of the probe kernel: the workloads' default on the
# baseline host, set for the kernel alone so that a thread count the program
# under test sets does not move the probe.
PROBE_THREADS = 2

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))
try:
    import numpy as np
    import risae
    import risae.cli
except ImportError as exc:
    sys.exit(f"perfbench: cannot import risae from {ROOT / 'src'}: {exc}")
if not Path(risae.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"perfbench: risae was imported from {risae.__file__}, not from {ROOT / 'src'}")

from risae.autoencoder import build_autoencoder, evaluate_ser, train, wilson_interval  # noqa: E402
from risae.channel import ChannelModel  # noqa: E402
from risae.harness import (  # noqa: E402
    PRESETS,
    build_attack_source,
    checkpoint_sha256,
    derive_rng,
    desk_preset,
    load_system,
    make_budget,
    parse_rows,
    save_config,
    snr_to_sigma2,
)
from risae.neural import AdamState  # noqa: E402

import tracing  # noqa: E402


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What the operations of one run produced, and which checks failed."""

    attempted: int = 0
    failed: int = 0
    blocks: int = 0
    notes: list[str] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)


class TrainWorkload:
    """Optimizer steps of a preset: one ``autoencoder.train`` call per step,
    one batch of blocks each, sharing one ChannelModel and AdamState."""

    def __init__(self, name: str, preset: str, seed: int):
        self.name = name
        self.preset = preset
        self.seed = seed

    def setup(self) -> None:
        cfg = PRESETS[self.preset](self.seed)
        self.cfg = cfg
        self.sys_cfg = cfg.system.replace(sigma2=snr_to_sigma2(cfg.system.power,
                                                               cfg.train.snr_db))
        self.nets = build_autoencoder(self.sys_cfg, derive_rng(cfg.seed, "init"))
        self.model = ChannelModel(self.sys_cfg)
        self.adam = AdamState(lr=cfg.train.learning_rate)
        self.rng = derive_rng(cfg.seed, "train")
        self.step()  # warm-up; its loss is not checked

    def step(self) -> float:
        batch = self.cfg.train.batch_blocks
        result = train(self.nets, self.sys_cfg, batch * self.sys_cfg.block_len, 1,
                       self.cfg.train.learning_rate, self.rng, batch_blocks=batch,
                       channel_model=self.model, adam=self.adam)
        return result.loss_history[0]

    def op(self, out: Outcome) -> None:
        loss = self.step()
        out.attempted += 1
        out.blocks += self.cfg.train.batch_blocks
        out.losses.append(loss)
        if not np.isfinite(loss):
            out.fail(f"step {len(out.losses)}: non-finite loss {loss}")

    def finish(self, out: Outcome) -> list[str]:
        """Compare the default seed's losses with the reference."""
        reference = json.loads((REFERENCE / "losses.json").read_text())
        if self.seed == REFERENCE_SEED:
            for i, (got, want) in enumerate(zip(out.losses, reference[self.name]), 1):
                if not abs(got - want) <= LOSS_RTOL * abs(want):
                    out.fail(f"step {i}: loss {got!r} differs from reference {want!r}")
        return []


class SweepWorkload:
    """One in-process ``risae sweep`` per operation over the desk grid cut to
    SWEEP_SNRS_DB, all four attack kinds, ideal attack channel.

    The sweep always uses the reference master seed: rmaep's work is a
    binomial draw of how many probes reach the search, and across master
    seeds it moves the sweep time by more than any bound could absorb. The
    run seed reaches the program as ``cfg.seed`` of the double-channel probe.
    """

    def __init__(self, seed: int, checkpoint_sha: str):
        self.seed = seed
        self.checkpoint_sha = checkpoint_sha
        self.dir = OUT / "desk-sweep"
        self.reference = {(r.snr_db, r.attack): r
                          for r in parse_rows((REFERENCE / "results.csv").read_text())}

    def setup(self) -> None:
        sha = checkpoint_sha256(CHECKPOINT)
        if sha != self.checkpoint_sha:
            sys.exit(f"perfbench: {CHECKPOINT} has SHA-256 {sha}, expected {self.checkpoint_sha}")
        cfg = desk_preset(REFERENCE_SEED)
        cfg.eval.snr_sweep_db = list(SWEEP_SNRS_DB)
        self.cfg = cfg
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.dir / "config.json"
        save_config(cfg, self.config_path)
        self.nets = load_system(CHECKPOINT, cfg)
        sys_cfg = cfg.system.replace(sigma2=snr_to_sigma2(cfg.system.power, SWEEP_SNRS_DB[0]))
        ChannelModel(sys_cfg)
        evaluate_ser(self.nets, sys_cfg, None, 64, derive_rng(cfg.seed, "warm-up"))

    def op(self, out: Outcome) -> None:
        run_dir = self.dir / "out"
        shutil.rmtree(run_dir, ignore_errors=True)
        argv = ["sweep", "--config", str(self.config_path), "--checkpoint", str(CHECKPOINT),
                "--out", str(run_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = risae.cli.main(argv)
        cells = [(snr, kind) for snr in SWEEP_SNRS_DB for kind in self.cfg.attacks]
        out.attempted += len(cells)
        if code != 0:
            for cell in cells:
                out.fail(f"{cell}: risae sweep exited with {code}")
            return
        rows = {(r.snr_db, r.attack): r for r in parse_rows((run_dir / "results.csv").read_text())}
        trials = self.cfg.eval.test_blocks * self.cfg.system.block_len
        for cell in cells:
            row = rows.get(cell)
            if row is None:
                out.fail(f"{cell}: missing from results.csv")
                continue
            out.blocks += self.cfg.eval.test_blocks
            ref = self.reference[cell]
            low, high = wilson_interval(round(ref.ser * ref.trials), ref.trials)
            if not (0.0 <= row.ser <= 1.0 and row.trials == trials == ref.trials
                    and row.attack_channel == "ideal" and low <= row.ser <= high):
                out.fail(f"{cell}: ser={row.ser} trials={row.trials}; reference "
                         f"ser={ref.ser} trials={ref.trials}, interval [{low}, {high}]")

    def finish(self, out: Outcome) -> list[str]:
        """The double-channel probe: one rmaef and one rmaep construction.

        Counted apart from the sweep's cells, because the known
        ``linalg.as_matrix`` defect fails rmaef, and rmaep whenever its search
        finds a flip. Returns one line per failed construction.
        """
        cfg = desk_preset(self.seed)
        cfg.attack.channel_mode = "double"
        sys_cfg = cfg.system.replace(sigma2=snr_to_sigma2(cfg.system.power,
                                                          DOUBLE_PROBE_SNR_DB))
        failures = []
        for kind in ("rmaef", "rmaep"):
            try:
                budget = make_budget(cfg, sys_cfg, self.nets, "double")
                source = build_attack_source(cfg, sys_cfg, self.nets, kind,
                                             DOUBLE_PROBE_SNR_DB, budget)
            except Exception as exc:  # the probe reports any failure and goes on
                failures.append(f"{kind}: {type(exc).__name__}: {exc}")
                continue
            power = float(np.sum(np.abs(source.p_adv) ** 2))
            if power > budget.linear * (1.0 + 1e-9):
                failures.append(f"{kind}: power {power} exceeds budget {budget.linear}")
        return failures


def make_workload(name: str, seed: int, checkpoint_sha: str) -> TrainWorkload | SweepWorkload:
    if name == "desk-sweep":
        return SweepWorkload(seed, checkpoint_sha)
    return TrainWorkload(name, {"desk-train": "desk", "paper-train": "paper"}[name], seed)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class HostProbe:
    """Times a fixed numpy kernel that runs no risae code, between operations.

    The host's speed drifts by up to 2x over minutes (other tenants share its
    cores), and every workload drifts with it. ``probe_factor`` of a phase's
    samples is the reference probe time over their median; multiplying the
    times measured in that phase by it reports them at the reference host
    speed. The kernel runs in the benchmark's process, on the same warm
    OpenBLAS threads as the workload, with their count set to PROBE_THREADS
    while it runs.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((256, 256))
        self.b = rng.standard_normal((256, 256))
        self.x = rng.standard_normal((64, 40, 10))
        self.samples: list[float] = []
        self.last = -np.inf

    def kernel(self) -> None:
        for _ in range(20):
            self.a @ self.b
        for _ in range(200):
            np.einsum("bcl,bcl->bl", self.x, self.x)

    def sample(self, count: int = 3) -> None:
        threads = blas_threads()
        set_blas_threads(PROBE_THREADS)
        try:
            for _ in range(count):
                started = time.perf_counter()
                self.kernel()
                self.samples.append(time.perf_counter() - started)
        finally:
            set_blas_threads(threads)
        self.last = time.perf_counter()

    def between_operations(self) -> None:
        """Sample in proportion to the time since the last sample, so long
        operations weigh as much as many short ones."""
        elapsed = time.perf_counter() - self.last
        if elapsed >= PROBE_EVERY_S:
            self.sample(int(np.clip(elapsed / PROBE_EVERY_S, 3, 30)))

    def take(self) -> list[float]:
        """The samples of the phase that ends here; the next phase starts empty."""
        samples, self.samples = self.samples, []
        return samples


def probe_factor(samples: list[float]) -> float:
    return PROBE_REFERENCE_S / statistics.median(samples)


def closed_loop(op, seconds: float, out: Outcome, probe: HostProbe,
                tracer=None) -> list[float]:
    """Run ``op`` back to back until ``seconds`` of operations have passed (at
    least one); returns each operation's wall time. The probe runs between
    operations and is not counted."""
    times = []
    while not times or sum(times) < seconds:
        probe.between_operations()
        span = tracer.begin(ROOT_SPAN) if tracer else None
        started = time.perf_counter()
        op(out)
        times.append(time.perf_counter() - started)
        if span:
            tracer.end(span)
    return times


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p90 with at least ten samples beyond it."""
    for p in (99, 90):
        if len(values) * (100 - p) / 100 >= 10:
            return p, float(np.percentile(values, p))
    return None


def construction_power_failures(spans) -> list[str]:
    return [f"{s.name}: power {s.attrs['power']} exceeds budget {s.attrs['budget']}"
            for s in spans if "budget" in s.attrs
            and s.attrs["power"] > s.attrs["budget"] * (1.0 + 1e-9)]


def import_seconds() -> float:
    """Wall time of importing risae (with numpy) in a fresh interpreter."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import risae.cli; print(time.perf_counter() - t)")
    return float(subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                                capture_output=True, text=True, check=True,
                                timeout=120).stdout)


def git_state() -> tuple[str | None, bool | None]:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                                text=True, check=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.strip())


@functools.cache
def openblas(name: str):
    """The OpenBLAS C function ``name`` from the library numpy loaded, or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return fn
    return None


def blas_threads() -> int | None:
    fn = openblas("get_num_threads")
    if fn is None:
        return None
    fn.restype = ctypes.c_int
    return fn()


def set_blas_threads(count: int | None) -> None:
    fn = openblas("set_num_threads")
    if fn is not None and count is not None:
        fn(ctypes.c_int(count))


def environment(workload: str, seed: int) -> dict:
    sha, dirty = git_state()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": sha, "git_dirty": dirty, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "workload": workload, "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["desk-train", "desk-sweep", "paper-train"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--checkpoint-sha256", required=True,
                        help="expected SHA-256 of the desk-sweep checkpoint, as pinned "
                             "in the command of BENCHMARK.json")
    args = parser.parse_args(argv)

    env = environment(args.workload, args.seed)
    print(json.dumps({"env": env}))
    workload = make_workload(args.workload, args.seed, args.checkpoint_sha256)
    probe = HostProbe()
    imports, setups = [], []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        imports.append(import_seconds())
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
    probe.sample()
    setup_samples = probe.take()
    print(f"setup: imports {', '.join(f'{s:.4f}' for s in imports)} s; "
          f"workload {', '.join(f'{s:.4f}' for s in setups)} s")

    out = Outcome()
    if args.trace:
        untraced = closed_loop(workload.op, args.seconds / 2, out, probe)
        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        patches = tracing.install(tracer)
        try:
            traced = closed_loop(workload.op, args.seconds / 2, out, probe, tracer)
        finally:
            tracing.restore(patches)
        for note in construction_power_failures(tracer.spans):
            out.fail(note)
    else:
        times = closed_loop(workload.op, args.seconds, out, probe)
        probe.between_operations()
    # read before the double-channel probe, which is no part of the workload
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    double_failures = workload.finish(out)

    if args.trace:
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        values = tracing.layer_metrics(tracer.spans, ROOT_SPAN)
        values["trace.overhead_ratio"] = float(np.median(traced) / np.median(untraced))
        values["attack.double.failed"] = float(len(double_failures))
        print(f"spans: {spans_path} ({len(tracer.spans)} spans, "
              f"{len(traced)} traced and {len(untraced)} untraced operations)")
    else:
        op_samples = probe.samples
        raw = {
            "setup_s": statistics.median(imports) + statistics.median(setups),
            "op_ms_p50": float(np.median(times)) * 1e3,
            "blocks_per_s": out.blocks / sum(times),
            "peak_rss_mb": peak_rss_mb,
        }
        scale = {"setup_s": probe_factor(setup_samples),
                 "op_ms_p50": probe_factor(op_samples),
                 "blocks_per_s": 1.0 / probe_factor(op_samples),
                 "peak_rss_mb": 1.0}
        values = {name: value * scale[name] for name, value in raw.items()}
        samples = {"setup_s": SETUP_REPEATS, "op_ms_p50": len(times),
                   "blocks_per_s": len(times), "peak_rss_mb": 1}
        for phase, p in (("set-up", setup_samples), ("operations", op_samples)):
            print(f"host probe during {phase}: median {statistics.median(p):.6g} s "
                  f"over {len(p)} samples; factor {probe_factor(p):.4f}")
        for name, value in values.items():
            print(f"{name} = {value:.6g} {UNITS[name]} (n={samples[name]}; "
                  f"as measured {raw[name]:.6g})")
        tail = tail_percentile(times)
        if tail:
            print(f"op_ms_p{tail[0]} = {tail[1] * 1e3 * scale['op_ms_p50']:.6g} ms "
                  f"(n={len(times)}; as measured {tail[1] * 1e3:.6g})")
    print(f"blas_threads at the end: {blas_threads()}")

    for note in out.notes:
        print(f"check failed: {note}")
    for note in double_failures:
        print(f"double-channel probe failed (known defect, not counted): {note}")
    probe_tally = (f"; double-channel probe {len(double_failures)}/2 failed"
                   if isinstance(workload, SweepWorkload) else "")
    print(f"error_rate = {out.failed}/{out.attempted} failed/attempted{probe_tally}")
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
