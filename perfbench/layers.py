"""Per-layer attribution for a traced run, recorded from outside the program.

:class:`LayerProbe` wraps each layer's public entry points at the name
their caller looks up (a module global or a class attribute), records one
wall-clock span per call with the existing :class:`repro.telemetry.Tracer`
(category = layer), and counts the work each call did.  A layer's self time
is the summed duration of its spans minus the part their child spans cover,
so the layers plus the root span's own remainder (``unattributed_s``) tile
the traced wall time exactly.  The one call too frequent for a span each
(``Monitor.record``) is timed in aggregate, its wrapper's own bookkeeping
included, and subtracted from the span enclosing it.

Nothing in the program changes: :meth:`LayerProbe.install` swaps the
attributes and :meth:`LayerProbe.uninstall` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.telemetry import Tracer
from repro.telemetry.spans import SIM_CLOCK, Span

#: Track every probe span lands on.
PID, TID = "perfbench", "main"

#: Category of the root span; its self time is ``unattributed_s``.
ROOT_CATEGORY = "run"

#: Span argument holding the time of aggregated leaf calls made inside it.
AGGREGATED = "aggregated_s"

Tally = Callable[[Tuple[Any, ...], Any], Dict[str, float]]


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    Attributes:
        module: module whose global (or class) the caller looks up.
        attr: ``"function"`` or ``"Class.method"`` inside ``module``.
        layer: span category, a key of :data:`LAYER_SELF_METRICS`.
        calls: counter incremented once per call, if any.
        tally: ``(args, result) -> {counter: amount}`` for work counts
            read off the call, if any.
        aggregate: time the call without a span of its own; only for
            leaf calls that reach no other target.
    """

    module: str
    attr: str
    layer: str
    calls: Optional[str] = None
    tally: Optional[Tally] = None
    aggregate: bool = False


def _dispatches(args, result) -> Dict[str, float]:
    return {"sched.dispatches": result.total_dispatches}


def _tokens(args, result) -> Dict[str, float]:
    return {"model.tokens": args[1].size}


def _batches(args, result) -> Dict[str, float]:
    return {"serving.batches": len(result)}


def _retries(args, result) -> Dict[str, float]:
    reliability = result.reliability
    return {"serving.retries": reliability.retries if reliability else 0}


def _reshards(args, result) -> Dict[str, float]:
    return {"fleet.reshards": result.reshards}


TARGETS: Tuple[Target, ...] = (
    Target("repro.dse.explorer", "DesignSpaceExplorer.sweep", "dse"),
    Target("repro.sched.orchestrator", "Orchestrator.run", "sched",
           calls="sched.calls", tally=_dispatches),
    Target("repro.sched.orchestrator", "time_dataflow", "arch.timing",
           calls="arch.timing.calls"),
    Target("repro.parallel.memo", "build_graph_for", "dataflow",
           calls="dataflow.builds"),
    Target("repro.parallel.cache", "content_hash", "cache"),
    *(Target(module, "power_report", "physical", calls="physical.calls")
      for module in ("repro.dse.explorer", "repro.system.serving",
                     "repro.system.multi", "repro.fleet.simulator")),
    Target("repro.model.bert", "ProteinBert.forward", "model",
           calls="model.forward_calls", tally=_tokens),
    Target("repro.model.bert", "gelu", "model"),
    Target("repro.model.attention", "softmax", "model"),
    Target("repro.model.layers", "layer_norm", "model"),
    Target("repro.proteins.tokenizer", "ProteinTokenizer.encode_batch",
           "proteins"),
    # The fault campaign builds its screening library inside the timed call.
    Target("repro.experiments.fault_campaign", "screening_campaign",
           "proteins.library"),
    Target("repro.binding.experiment", "run_binding_study", "binding"),
    Target("repro.system.serving", "CampaignSimulator.run_on_prose",
           "serving", tally=_retries),
    Target("repro.system.serving", "bucket_batches", "serving",
           tally=_batches),
    Target("repro.system.multi", "ProSESystem.simulate", "multi"),
    Target("repro.system.multi", "ProSESystem.simulate_with_faults",
           "multi"),
    Target("repro.fleet.simulator", "FleetSimulator.run", "fleet",
           calls="fleet.runs", tally=_reshards),
    # A fleet run records ~240k monitor samples: one span each would
    # double the traced wall time.
    Target("repro.monitor.engine", "Monitor.record", "monitor",
           calls="monitor.calls", aggregate=True),
    Target("repro.monitor.engine", "Monitor.slo_event", "monitor",
           calls="monitor.calls"),
    Target("repro.monitor.engine", "Monitor.evaluate", "monitor",
           calls="monitor.calls"),
)

#: Layer (span category) -> the metric reporting its self time.  Together
#: they tile ``traced_wall_s``.
LAYER_SELF_METRICS: Dict[str, str] = {
    ROOT_CATEGORY: "unattributed_s",
    "dse": "dse.self_s",
    "sched": "sched.self_s",
    "arch.timing": "arch.timing.self_s",
    "dataflow": "dataflow.self_s",
    "cache": "cache.key_s",
    "physical": "physical.self_s",
    "model": "model.self_s",
    "proteins": "proteins.tokenize_s",
    "proteins.library": "proteins.library_s",
    "binding": "binding.self_s",
    "serving": "serving.self_s",
    "multi": "multi.self_s",
    "fleet": "fleet.self_s",
    "monitor": "monitor.self_s",
}

#: Model kernels broken out of ``model.self_s`` (span name -> metric).
KERNEL_METRICS: Dict[str, str] = {
    "gelu": "model.gelu_s",
    "softmax": "model.softmax_s",
    "layer_norm": "model.layer_norm_s",
}


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and the end-to-end number it should move."""

    name: str
    unit: str
    better: str
    moves: str


_SCHED = "wall_s/items_per_s on dse_sweep, slightly on serving_fleet"
_GRAPH = "wall_s on dse_sweep (small share)"
_CACHE = "wall_s on serving_fleet; negligible on dse_sweep"
_MODEL = "wall_s and peak_rss_mb on binding_study; zero elsewhere"
_SERVE = "wall_s on serving_fleet only"
_BENCH = "none: benchmark bookkeeping"
_HOST = "none: untraced calls as measured, before scaling to nominal speed"

#: Medians of the untraced calls as measured; the end-to-end metrics divide
#: each call's time by its ``host.slowdown`` (``perfbench.worker``).
HOST_METRICS = ("host.wall_s", "host.items_per_s", "host.slowdown")

#: Every per-layer metric of a traced run, in ``BENCHMARK.json`` order.
PER_LAYER: Tuple[LayerMetric, ...] = (
    LayerMetric("sched.calls", "count", "lower", _SCHED),
    LayerMetric("sched.self_s", "s", "lower", _SCHED),
    LayerMetric("sched.dispatches", "count", "lower", _SCHED),
    LayerMetric("sched.dispatches_per_s", "1/s", "higher", _SCHED),
    LayerMetric("arch.timing.calls", "count", "lower", _SCHED),
    LayerMetric("arch.timing.self_s", "s", "lower", _SCHED),
    LayerMetric("dataflow.builds", "count", "lower", _GRAPH),
    LayerMetric("dataflow.self_s", "s", "lower", _GRAPH),
    LayerMetric("physical.calls", "count", "lower", _GRAPH),
    LayerMetric("physical.self_s", "s", "lower", _GRAPH),
    LayerMetric("dse.self_s", "s", "lower", _GRAPH),
    LayerMetric("cache.schedule.hits", "count", "higher", _CACHE),
    LayerMetric("cache.schedule.misses", "count", "lower", _CACHE),
    LayerMetric("cache.schedule.hit_ratio", "ratio", "higher", _CACHE),
    LayerMetric("cache.trace.hits", "count", "higher", _CACHE),
    LayerMetric("cache.trace.misses", "count", "lower", _CACHE),
    LayerMetric("cache.key_s", "s", "lower", _CACHE),
    LayerMetric("model.forward_calls", "count", "lower", _MODEL),
    LayerMetric("model.tokens", "count", "lower", _MODEL),
    LayerMetric("model.self_s", "s", "lower", _MODEL),
    LayerMetric("model.tokens_per_s", "1/s", "higher", _MODEL),
    LayerMetric("model.gelu_s", "s", "lower", _MODEL),
    LayerMetric("model.softmax_s", "s", "lower", _MODEL),
    LayerMetric("model.layer_norm_s", "s", "lower", _MODEL),
    LayerMetric("proteins.tokenize_s", "s", "lower", _MODEL),
    LayerMetric("proteins.library_s", "s", "lower", _SERVE),
    LayerMetric("binding.self_s", "s", "lower", _MODEL),
    LayerMetric("serving.batches", "count", "lower", _SERVE),
    LayerMetric("serving.retries", "count", "lower", _SERVE),
    LayerMetric("serving.self_s", "s", "lower", _SERVE),
    LayerMetric("multi.self_s", "s", "lower", _SERVE),
    LayerMetric("fleet.runs", "count", "lower", _SERVE),
    LayerMetric("fleet.reshards", "count", "lower", _SERVE),
    LayerMetric("fleet.self_s", "s", "lower", _SERVE),
    LayerMetric("monitor.calls", "count", "lower", _SERVE),
    LayerMetric("monitor.self_s", "s", "lower", _SERVE),
    LayerMetric("traced_wall_s", "s", "lower", _BENCH),
    LayerMetric("unattributed_s", "s", "lower", _BENCH),
    LayerMetric("trace_overhead_frac", "ratio", "lower", _BENCH),
    LayerMetric("host.wall_s", "s", "lower", _HOST),
    LayerMetric("host.items_per_s", "items/s", "higher", _HOST),
    LayerMetric("host.slowdown", "ratio", "lower", _HOST),
)


def _resolve(target: Target) -> Tuple[Any, str]:
    """The object holding the attribute, and the attribute's name."""
    owner: Any = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class LayerProbe:
    """Wraps :data:`TARGETS` with spans on one tracer, plus work counters.

    Targets marked ``aggregate`` are leaf calls too frequent for one span
    each: their time, from wrapper entry to after its counting, is summed
    per layer and stored on the enclosing span under :data:`AGGREGATED`,
    so the probe's cost lands on the probed layer and self times still
    tile the root span.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        """Start a fresh recording (the wrappers stay installed)."""
        self.tracer = Tracer()
        self.counts: Dict[str, float] = defaultdict(float)
        self.aggregated: Dict[str, float] = defaultdict(float)
        self._open: List[Span] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("probe already installed")
        for target in TARGETS:
            owner, name = _resolve(target)
            # Read the raw attribute so a class keeps its own descriptor.
            original = vars(owner)[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, target))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerProbe":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        with self.tracer.span(name, pid=PID, tid=TID,
                              category=layer) as span:
            self._open.append(span)
            try:
                yield span
            finally:
                self._open.pop()

    def root(self):
        """The root span of one traced iteration."""
        return self.span("iteration", ROOT_CATEGORY)

    def _count(self, target: Target, args: Tuple[Any, ...],
               result: Any) -> None:
        if target.calls is not None:
            self.counts[target.calls] += 1
        if target.tally is not None:
            for counter, amount in target.tally(args, result).items():
                self.counts[counter] += amount

    def _wrap(self, original: Callable, target: Target) -> Callable:
        if target.aggregate:
            @functools.wraps(original)
            def counted(*args, **kwargs):
                start = time.perf_counter()
                result = original(*args, **kwargs)
                self._count(target, args, result)
                enclosing = self._open[-1].args
                elapsed = time.perf_counter() - start
                self.aggregated[target.layer] += elapsed
                enclosing[AGGREGATED] = (enclosing.get(AGGREGATED, 0.0)
                                         + elapsed)
                return result
            return counted

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(target.attr, target.layer):
                result = original(*args, **kwargs)
                self._count(target, args, result)
            return result
        return traced

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, float],
                                  float]:
        """Self time summed per layer and per span name, and the root's wall.

        A span's self time is its duration minus its direct children's and
        its aggregated leaf calls'; the root (category
        :data:`ROOT_CATEGORY`) keeps what no layer claimed.
        """
        spans = [span for span in self.tracer.spans if span.end is not None]
        covered: Dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent_id is not None:
                covered[span.parent_id] += span.duration
        by_layer: Dict[str, float] = defaultdict(float, self.aggregated)
        by_name: Dict[str, float] = defaultdict(float)
        wall = 0.0
        for span in spans:
            own = (span.duration - covered[span.span_id]
                   - span.args.get(AGGREGATED, 0.0))
            by_layer[span.category] += own
            by_name[span.name] += own
            if span.category == ROOT_CATEGORY:
                wall += span.duration
        return dict(by_layer), dict(by_name), wall


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def iteration_metrics(probe: LayerProbe, cache_deltas: Dict[str, Any]
                      ) -> Dict[str, float]:
    """Every per-layer metric of one traced iteration, in :data:`PER_LAYER`
    order.

    ``trace_overhead_frac`` needs an untraced wall time: it is left at 0
    for the caller to fill in.
    """
    by_layer, by_name, wall = probe.self_times()
    metrics = {metric.name: 0.0 for metric in PER_LAYER}
    metrics.update(probe.counts)
    for layer, own in by_layer.items():
        metrics[LAYER_SELF_METRICS[layer]] = own
    metrics.update({metric: by_name.get(name, 0.0)
                    for name, metric in KERNEL_METRICS.items()})
    metrics["sched.dispatches_per_s"] = _ratio(metrics["sched.dispatches"],
                                               metrics["sched.self_s"])
    metrics["model.tokens_per_s"] = _ratio(metrics["model.tokens"],
                                           metrics["model.self_s"])
    schedule, trace = cache_deltas["schedule"], cache_deltas["trace"]
    metrics["cache.schedule.hits"] = schedule.hits
    metrics["cache.schedule.misses"] = schedule.misses
    metrics["cache.schedule.hit_ratio"] = _ratio(
        schedule.hits, schedule.hits + schedule.misses)
    metrics["cache.trace.hits"] = trace.hits
    metrics["cache.trace.misses"] = trace.misses
    metrics["traced_wall_s"] = wall
    unknown = set(metrics) - {metric.name for metric in PER_LAYER}
    if unknown:
        raise ValueError(f"counters of no declared metric: {sorted(unknown)}")
    return metrics


def analyzable_copy(tracer: Tracer) -> Tracer:
    """The probe's spans relabelled for ``python -m repro.cli analyze``.

    The analyzer reads only spans on the simulated clock; the probe's
    spans are host seconds, so the copy carries them under that label
    (the export's metadata says so) without touching the original.
    """
    copy = Tracer()
    copy.spans = [replace(span, clock=SIM_CLOCK, args=dict(span.args))
                  for span in tracer.spans if span.end is not None]
    return copy
