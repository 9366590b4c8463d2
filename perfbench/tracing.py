"""In-memory span tracer installed around risae's public functions and layer methods.

The wrappers live here, not in ``src/``: ``install`` rebinds each traced
function in every ``risae`` module that imported it (``from .x import y``
copies the name) and patches layer and sampler methods on their classes.
``install`` returns the list of patches so ``restore`` can put every
original back. A wrapper records one span per call and re-raises whatever
the call raised, tagging the span with the exception's class name.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one run; spans stay in memory until ``write``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def begin(self, name: str, **attrs) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter(), attrs=attrs)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, attrs_fn=None):
        """``fn`` inside a span; ``attrs_fn(result, arguments)`` adds counts.

        ``arguments`` maps every parameter name of ``fn`` to its value.
        """
        signature = inspect.signature(fn) if attrs_fn is not None else None

        def traced(*args, **kwargs):
            span = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                self.end(span)
                if attrs_fn is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.attrs.update(attrs_fn(result, bound.arguments))

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": s.id, "parent": s.parent,
                                     "name": s.name, "start": s.start, "end": s.end,
                                     **s.attrs}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(s.id, [])):
            start, end = max(start, cursor, s.start), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(s.duration - covered)
    return out


# ---------------------------------------------------------------------------
# what gets traced
# ---------------------------------------------------------------------------

def _conv_fwd(_y, a):
    b, c, length = np.shape(a["x"])
    layer = a["self"]
    return {"flop": 2 * b * layer.out_channels * c * layer.kernel_size * length}


def _conv_bwd(_g, a):
    b, c, length, k = a["cache"]["cols"].shape
    return {"flop": 4 * b * a["self"].out_channels * c * k * length}


def _pipeline_blocks(_r, a):
    return {"blocks": int(np.shape(a["blocks"])[0])}


def _sample_blocks(_r, a):
    return {"blocks": int(a["n"])}


def _gradient_rows(_r, a):
    return {"rows": int(np.shape(a["d_input"])[0])}


def _eval_blocks(_r, a):
    return {"blocks": int(a["num_blocks"])}


def _refpower_key(_r, a):
    # The estimate runs the forward with sigma2=0, so the configured noise
    # level is not an input; the generator state at entry is.
    cfg = {f.name: getattr(a["cfg"], f.name) for f in fields(a["cfg"]) if f.name != "sigma2"}
    key = (id(a["nets"]), cfg, a["num_blocks"], a["rng"].bit_generator.state["state"])
    return {"key": repr(key)}


def _construction(result, a):
    attrs = {"probes": a["pgd"].n_p, "mode": a["channel_mode"]}
    if result is not None:
        attrs.update(power=result.perturbation.power, budget=a["budget"].linear)
    return attrs


# (module, attribute, span name, attrs_fn): functions rebound wherever imported
FUNCTIONS = [
    ("risae.linalg", "hermitian_sqrt", "linalg.hermitian_sqrt", None),
    ("risae.linalg", "ls_solve", "linalg.ls_solve", None),
    ("risae.neural", "bce_loss", "neural.loss", None),
    ("risae.neural", "bce_loss_per_sample", "neural.loss", None),
    ("risae.neural", "cross_entropy_loss", "neural.loss", None),
    ("risae.neural", "adam_step", "neural.adam", None),
    ("risae.neural", "load_checkpoint", "neural.load_checkpoint", None),
    ("risae.autoencoder", "pipeline_forward", "autoencoder.pipeline_forward",
     _pipeline_blocks),
    ("risae.autoencoder", "pipeline_backward", "autoencoder.pipeline_backward", None),
    ("risae.autoencoder", "cascade_set", "autoencoder.cascade_set", None),
    ("risae.autoencoder", "adversary_cascade_set", "autoencoder.adversary_cascade_set", None),
    ("risae.autoencoder", "decoder_input_gradient", "autoencoder.decoder_input_gradient",
     _gradient_rows),
    ("risae.autoencoder", "evaluate_ser", "autoencoder.evaluate_ser", _eval_blocks),
    ("risae.autoencoder", "estimate_received_power", "autoencoder.estimate_received_power",
     _refpower_key),
    ("risae.attack", "rmaep", "attack.rmaep", _construction),
    ("risae.attack", "rmaef", "attack.rmaef", _construction),
    ("risae.attack", "pgd_minimal_perturbation", "attack.pgd_search", None),
    ("risae.attack", "receiver_to_transmit", "attack.receiver_to_transmit", None),
    ("risae.harness", "run_cell", "harness.run_cell", None),
    ("risae.harness", "make_budget", "harness.make_budget", None),
    ("risae.harness", "export_results", "harness.export_results", None),
    ("risae.harness", "write_manifest", "harness.write_manifest", None),
    ("risae.harness", "checkpoint_sha256", "harness.checkpoint_sha256", None),
    ("risae.cli", "main", "cli.main", None),
]

# (module, class, method, span name, attrs_fn): patched on the class
METHODS = [
    ("risae.channel", "ChannelModel", "__init__", "channel.model_init", None),
    ("risae.channel", "ChannelModel", "sample_batch", "channel.sample_batch", _sample_blocks),
    ("risae.neural", "Conv1D", "forward", "neural.conv.fwd", _conv_fwd),
    ("risae.neural", "Conv1D", "backward", "neural.conv.bwd", _conv_bwd),
] + [("risae.neural", cls, method, f"neural.{cls.lower()}.{short}", None)
     for cls in ("BatchNorm", "ReLU", "Softmax", "PowerNorm")
     for method, short in (("forward", "fwd"), ("backward", "bwd"))]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every traced function and method; returns (owner, name, original)."""
    import risae.cli  # noqa: F401  (loads every risae module)

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "risae" or name.startswith("risae.")]
    patches = []
    for module_name, attr, span_name, attrs_fn in FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        wrapper = tracer.wrap(span_name, original, attrs_fn)
        for module in modules:
            if getattr(module, attr, None) is original:
                patches.append((module, attr, original))
                setattr(module, attr, wrapper)
    for module_name, cls_name, method, span_name, attrs_fn in METHODS:
        cls = getattr(sys.modules[module_name], cls_name)
        original = cls.__dict__[method]
        patches.append((cls, method, original))
        setattr(cls, method, tracer.wrap(span_name, original, attrs_fn))
    return patches


def restore(patches: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(spans: list[Span], root_name: str) -> dict[str, float]:
    """Per-operation layer metrics from the spans under each ``root_name`` span.

    Counts and ``_s`` sums are divided by the number of operations (root
    spans); ``run_cell`` percentiles are over all cells.
    """
    selfs = self_times(spans)
    roots = [s for s in spans if s.name == root_name and s.parent is None]
    ops = max(len(roots), 1)
    by_name: dict[str, list[int]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s.id)

    def calls(name):
        return len(by_name.get(name, ())) / ops

    def secs(name):
        return sum(spans[i].duration for i in by_name.get(name, ())) / ops

    def self_s(name):
        return sum(selfs[i] for i in by_name.get(name, ())) / ops

    def total(name, key):
        return sum(spans[i].attrs.get(key, 0) for i in by_name.get(name, ())) / ops

    def errors(name, kind):
        return sum(spans[i].attrs.get("error") == kind for i in by_name.get(name, ())) / ops

    m: dict[str, float] = {}
    m["channel.sample_batch.calls"] = calls("channel.sample_batch")
    m["channel.sample_batch.blocks"] = total("channel.sample_batch", "blocks")
    m["channel.sample_batch.s"] = secs("channel.sample_batch")
    m["channel.model_init.calls"] = calls("channel.model_init")
    m["channel.model_init.s"] = secs("channel.model_init")
    for name in ("hermitian_sqrt", "ls_solve"):
        m[f"linalg.{name}.calls"] = calls(f"linalg.{name}")
        m[f"linalg.{name}.s"] = secs(f"linalg.{name}")

    conv_s = secs("neural.conv.fwd") + secs("neural.conv.bwd")
    gflop = (total("neural.conv.fwd", "flop") + total("neural.conv.bwd", "flop")) / 1e9
    m["neural.conv.fwd_s"] = secs("neural.conv.fwd")
    m["neural.conv.bwd_s"] = secs("neural.conv.bwd")
    m["neural.conv.calls"] = calls("neural.conv.fwd")
    m["neural.conv.gflop"] = gflop
    m["neural.conv.gflop_per_s"] = gflop / conv_s if conv_s > 0 else 0.0
    for layer in ("batchnorm", "relu", "softmax", "powernorm"):
        m[f"neural.{layer}.fwd_s"] = secs(f"neural.{layer}.fwd")
        m[f"neural.{layer}.bwd_s"] = secs(f"neural.{layer}.bwd")
    m["neural.loss.s"] = secs("neural.loss")
    m["neural.adam.calls"] = calls("neural.adam")
    m["neural.adam.s"] = secs("neural.adam")
    m["neural.load_checkpoint.s"] = secs("neural.load_checkpoint")

    m["autoencoder.pipeline_forward.calls"] = calls("autoencoder.pipeline_forward")
    m["autoencoder.pipeline_forward.blocks"] = total("autoencoder.pipeline_forward", "blocks")
    m["autoencoder.pipeline_forward.self_s"] = self_s("autoencoder.pipeline_forward")
    m["autoencoder.cascade_set.s"] = secs("autoencoder.cascade_set")
    m["autoencoder.adversary_cascade_set.s"] = secs("autoencoder.adversary_cascade_set")
    m["autoencoder.pipeline_backward.self_s"] = self_s("autoencoder.pipeline_backward")
    m["autoencoder.decoder_input_gradient.calls"] = calls("autoencoder.decoder_input_gradient")
    m["autoencoder.decoder_input_gradient.rows"] = total("autoencoder.decoder_input_gradient",
                                                         "rows")
    m["autoencoder.decoder_input_gradient.s"] = secs("autoencoder.decoder_input_gradient")
    eval_s = secs("autoencoder.evaluate_ser")
    m["autoencoder.evaluate_ser.blocks"] = total("autoencoder.evaluate_ser", "blocks")
    m["autoencoder.evaluate_ser.blocks_per_s"] = (
        m["autoencoder.evaluate_ser.blocks"] / eval_s if eval_s > 0 else 0.0)
    m["autoencoder.estimate_received_power.calls"] = calls("autoencoder.estimate_received_power")
    m["autoencoder.estimate_received_power.s"] = secs("autoencoder.estimate_received_power")

    probes = total("attack.rmaep", "probes")
    searches = calls("attack.pgd_search")
    failed = errors("attack.pgd_search", "AllTargetsFailed")
    m["attack.rmaep.s"] = secs("attack.rmaep")
    m["attack.rmaef.s"] = secs("attack.rmaef")
    m["attack.pgd_search.calls"] = searches
    m["attack.pgd_search.s"] = secs("attack.pgd_search")
    m["attack.pgd_search.failed"] = failed
    m["attack.probes"] = probes
    m["attack.search_ratio"] = searches / probes if probes else 0.0
    m["attack.flip_ratio"] = (searches - failed) / searches if searches else 0.0
    m["attack.receiver_to_transmit.s"] = secs("attack.receiver_to_transmit")

    cells = [spans[i].duration for i in by_name.get("harness.run_cell", ())]
    m["harness.run_cell.calls"] = len(cells) / ops
    m["harness.run_cell.s_p50"] = float(np.median(cells)) if cells else 0.0
    m["harness.run_cell.s_max"] = max(cells, default=0.0)
    m["harness.make_budget.s"] = secs("harness.make_budget")
    m["harness.refpower.distinct_ratio"] = _distinct_ratio(spans, by_name, roots)
    for name in ("export_results", "write_manifest", "checkpoint_sha256"):
        m[f"harness.{name}.s"] = secs(f"harness.{name}")
    m["cli.main.s"] = secs("cli.main")

    root_s = sum(r.duration for r in roots)
    m["trace.root_self_ratio"] = sum(selfs[r.id] for r in roots) / root_s if root_s else 0.0
    m["trace.ops"] = float(len(roots))
    return m


def _distinct_ratio(spans, by_name, roots) -> float:
    """Distinct reference-power inputs over estimates, averaged over operations."""
    root_of = {}
    for s in spans:
        root_of[s.id] = s.id if s.parent is None else root_of[s.parent]
    keys: dict[int, list[str]] = {}
    for i in by_name.get("autoencoder.estimate_received_power", ()):
        keys.setdefault(root_of[i], []).append(spans[i].attrs["key"])
    ratios = [len(set(keys[r.id])) / len(keys[r.id]) for r in roots if r.id in keys]
    return float(np.mean(ratios)) if ratios else 0.0
