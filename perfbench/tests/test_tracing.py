"""Tests of the benchmark's tracer and of the traced run's output.

    python3 -m pytest perfbench/tests -q

The last test runs every workload once, briefly, in a subprocess (about a
minute in all, most of it the desk sweep).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import risae.attack  # noqa: E402
import risae.cli  # noqa: E402
import tracing  # noqa: E402
from risae.autoencoder import build_autoencoder, pipeline_forward, random_message_blocks  # noqa: E402
from risae.channel import ChannelModel  # noqa: E402
from risae.config import SystemConfig  # noqa: E402
from risae.errors import AllTargetsFailed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def span(i, parent, name, start, end, **attrs):
    return tracing.Span(i, parent, name, start, end, attrs)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(0, None, "bench.op", 0.0, 10.0),
        span(1, 0, "autoencoder.pipeline_forward", 1.0, 4.0, blocks=8),
        span(2, 1, "neural.conv.fwd", 2.0, 3.0, flop=10**9),
        span(3, 0, "autoencoder.pipeline_forward", 3.5, 6.0, blocks=8),  # overlaps span 1
        span(4, 0, "neural.adam", 7.0, 12.0),  # runs past its parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 8.0, 2.0, 1.0, 2.5, 5.0])

    m = tracing.layer_metrics(spans + [span(5, None, "bench.op", 20.0, 30.0)], "bench.op")
    # per-operation averages over the two root spans
    assert m["autoencoder.pipeline_forward.calls"] == 1.0
    assert m["autoencoder.pipeline_forward.blocks"] == 8.0
    assert m["autoencoder.pipeline_forward.self_s"] == pytest.approx((2.0 + 2.5) / 2)
    assert m["neural.conv.gflop"] == pytest.approx(0.5)
    assert m["neural.conv.gflop_per_s"] == pytest.approx(1.0)
    assert m["trace.root_self_ratio"] == pytest.approx((2.0 + 10.0) / 20.0)
    assert m["trace.ops"] == 2.0


def _attributes():
    """Every function and class attribute of every loaded risae module."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name == "risae" or name.startswith("risae."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for key, member in vars(value).items():
                        out[(name, attr, key)] = member
    return out


def test_traced_run_restores_every_wrapper():
    cfg = SystemConfig(hidden_width=8)
    rng = np.random.default_rng(0)
    nets = build_autoencoder(cfg, rng)
    before = _attributes()
    original_forward = risae.neural.Conv1D.forward

    tracer = tracing.Tracer("test")
    patches = tracing.install(tracer)
    try:
        assert risae.neural.Conv1D.forward is not original_forward
        assert risae.harness.rmaep is risae.attack.rmaep is risae.cli.rmaep
        blocks, _ = random_message_blocks(cfg, 4, rng)
        chan = ChannelModel(cfg).sample_batch(4, rng)
        risae.attack.pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2, rng=rng)
        with pytest.raises(AllTargetsFailed):
            tracer.wrap("failing", _raise_all_targets_failed)()
    finally:
        tracing.restore(patches)

    assert risae.neural.Conv1D.forward is original_forward
    assert risae.attack.pipeline_forward is pipeline_forward
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    names = [s.name for s in tracer.spans]
    assert names.count("channel.model_init") == 1
    assert "autoencoder.cascade_set" in names and "neural.conv.fwd" in names
    forward = tracer.spans[names.index("autoencoder.pipeline_forward")]
    assert forward.attrs["blocks"] == 4
    assert tracer.spans[-1].attrs["error"] == "AllTargetsFailed"


def _raise_all_targets_failed():
    raise AllTargetsFailed("no flip")


def _run(workload: str, trace: int) -> dict:
    command = [sys.executable, *SPEC["command"][1:]]
    proc = subprocess.run(command + ["--workload", workload, "--seed", "3", "--seconds", "1",
                                     "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_workload_reports_its_metrics_and_trace_overhead(workload):
    traced = _run(workload, 1)
    assert traced["correct"] and traced["failed"] == 0 and traced["attempted"] >= 1
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert traced["metrics"]["trace.overhead_ratio"]["value"] > 0.0
    assert traced["metrics"]["trace.root_self_ratio"]["value"] < 0.1
    if workload == "desk-train":
        plain = _run(workload, 0)
        assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(v["value"] > 0 for v in plain["metrics"].values())
