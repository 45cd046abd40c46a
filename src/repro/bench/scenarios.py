"""Curated, seeded performance scenarios for the benchmark observatory.

Each scenario is a named, module-level (therefore picklable) callable
exercising one hot path of the simulated stack: cold trace build, cold
cycle-level scheduling, systolic bf16 GEMM emulation, the functional
forward pass, a cold DSE point, and a cold serving campaign.  Scenarios
return a scalar *fingerprint* of their result so the recorder can detect
semantic drift (a perf delta with a changed fingerprint means the code
computes something different, not just slower/faster).

A scenario may declare a ``setup`` callable that runs once, untimed,
before the repeat loop — used to warm process-wide state (LUT caches,
model weights, the A100 reference latency) that would otherwise make the
first sample an outlier.  Scenarios tagged ``cold`` clear the in-memory
trace/schedule caches inside the timed body so every repeat measures the
same cold-path work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

#: Every scenario derives its randomness from this seed.
SEED = 2022

#: Workload shape shared by the workload-level scenarios.
BATCH = 8
SEQ_LEN = 128

#: Tag selecting the cheap subset CI smoke-checks on every push.
FAST_TAG = "fast"


@dataclass(frozen=True)
class Scenario:
    """One registered perf scenario.

    Attributes:
        name: registry key (also the key in BENCH records).
        description: one-line summary shown by ``bench --list``.
        fn: the timed body; returns a scalar result fingerprint.
        setup: optional untimed warm-up run once before the repeats.
        tags: free-form labels; ``fast`` marks the CI smoke subset.
        traced: optional variant taking a ``Tracer``; runs the same
            simulated work with sim-time spans recorded so the trace
            analytics engine (:mod:`repro.telemetry.analyze`) can
            attribute a regression to specific spans.  Only scenarios
            whose timed body is a simulation have one — array-kernel
            and datapath microbenchmarks have no sim-time structure.
    """

    name: str
    description: str
    fn: Callable[[], float]
    setup: Optional[Callable[[], None]] = None
    tags: Tuple[str, ...] = ()
    traced: Optional[Callable[..., float]] = None


_REGISTRY: Dict[str, Scenario] = {}

#: Per-scenario state populated by setup callables (model instances,
#: prebuilt workloads); forked workers inherit a warm copy.
_STATE: Dict[str, object] = {}


def register(name: str, description: str, *,
             setup: Optional[Callable[[], None]] = None,
             tags: Sequence[str] = (),
             traced: Union[bool, Callable[..., float], None] = None
             ) -> Callable[[Callable[..., float]], Callable[..., float]]:
    """Class-less decorator registering a module-level scenario callable.

    ``traced=True`` registers the body itself as the traced variant: it
    takes an optional tracer (``None`` on timed runs).
    """
    def decorate(fn: Callable[..., float]) -> Callable[..., float]:
        if name in _REGISTRY:
            raise ValueError(f"scenario '{name}' already registered")
        _REGISTRY[name] = Scenario(
            name=name, description=description, fn=fn, setup=setup,
            tags=tuple(tags),
            traced=fn if traced is True else traced)
        return fn
    return decorate


def traced_scenario_names() -> List[str]:
    """Scenarios with a traced variant, in registration order."""
    return [name for name, scenario in _REGISTRY.items()
            if scenario.traced is not None]


def trace_scenario(name: str):
    """Run a scenario's traced variant; returns ``(tracer, fingerprint)``.

    Runs the scenario's ``setup`` first (untimed state, as in a normal
    recording run) and then its traced body against a fresh tracer.
    Raises ``KeyError`` for unknown scenarios and ``ValueError`` for
    scenarios with no traced variant.
    """
    from ..telemetry import Tracer

    scenario = get_scenario(name)
    if scenario.traced is None:
        have = ", ".join(traced_scenario_names())
        raise ValueError(f"scenario '{name}' has no traced variant; "
                         f"traceable: {have}")
    if scenario.setup is not None:
        scenario.setup()
    tracer = Tracer()
    fingerprint = float(scenario.traced(tracer))
    return tracer, fingerprint


def scenarios() -> Dict[str, Scenario]:
    """The registry, in registration order (a copy; mutating is safe)."""
    return dict(_REGISTRY)


def get_scenario(name: str) -> Scenario:
    scenario = _REGISTRY.get(name)
    if scenario is None:
        known = ", ".join(_REGISTRY)
        raise KeyError(f"unknown scenario '{name}'; choose from: {known}")
    return scenario


def scenario_names(selector: Optional[str] = None) -> List[str]:
    """Resolve a ``--scenarios`` selector to registry names.

    ``None``/``"all"`` selects everything, a tag (e.g. ``"fast"``)
    selects every scenario carrying it, and otherwise the selector is a
    comma-separated list of scenario names.
    """
    if selector is None or selector == "all":
        return list(_REGISTRY)
    tagged = [name for name, scenario in _REGISTRY.items()
              if selector in scenario.tags]
    if tagged:
        return tagged
    names = [part.strip() for part in selector.split(",") if part.strip()]
    if not names:
        raise KeyError("empty scenario selector")
    for name in names:
        get_scenario(name)  # raises KeyError with the known list
    return names


# -- shared fixtures -----------------------------------------------------

def _base_config():
    from ..model.config import protein_bert_base

    return protein_bert_base()


def _tiny_config():
    from ..model.config import protein_bert_tiny

    return protein_bert_tiny(num_layers=2, hidden_size=64, num_heads=4,
                             intermediate_size=128)


def _hardware():
    from ..arch.config import table4_configs

    for config in table4_configs():
        if config.name == "BestPerf":
            return config
    return table4_configs()[0]  # pragma: no cover - table always has it


# -- scenarios -----------------------------------------------------------

@register("trace_build",
          "cold symbolic trace + dataflow-graph build "
          f"(batch {BATCH}, seq {SEQ_LEN})",
          tags=(FAST_TAG, "cold"))
def scenario_trace_build() -> float:
    from ..dataflow.builder import build_graph_for

    graph = build_graph_for(_base_config(), batch=BATCH, seq_len=SEQ_LEN)
    return float(len(graph))


def _setup_schedule() -> None:
    scenario_schedule()  # warms the trace cache; scheduling itself is cold


@register("schedule",
          "cold cycle-level schedule of one batched inference "
          "(warm trace cache)",
          setup=_setup_schedule, tags=(FAST_TAG, "cold"), traced=True)
def scenario_schedule(tracer=None) -> float:
    from ..sched.orchestrator import Orchestrator

    result = Orchestrator(_hardware()).run(_base_config(), batch=BATCH,
                                           seq_len=SEQ_LEN, tracer=tracer)
    return float(result.makespan_seconds)


def _setup_systolic_gemm() -> None:
    scenario_systolic_gemm()  # warms the shared GELU LUT


@register("systolic_gemm",
          "bf16 systolic GEMM + bias + GELU chain (256x256x256, G-Type)",
          setup=_setup_systolic_gemm, tags=(FAST_TAG,))
def scenario_systolic_gemm() -> float:
    from ..arch.systolic import (
        ExecutionStats,
        SimdOpcode,
        SimdStep,
        make_array,
    )
    from ..dataflow.patterns import ArrayType

    rng = np.random.default_rng(SEED)
    a = rng.standard_normal((256, 256)).astype(np.float32)
    b = rng.standard_normal((256, 256)).astype(np.float32)
    array = make_array(16, ArrayType.G)
    stats = ExecutionStats()
    out = array.execute_chain(
        a, b, (SimdStep(SimdOpcode.ADD, 0.5), SimdStep(SimdOpcode.GELU)),
        stats)
    return float(np.abs(out).sum())


def _setup_functional_forward() -> None:
    from ..arch.accelerated_model import AcceleratedProteinBert
    from ..model.bert import ProteinBert

    _STATE["functional_forward"] = AcceleratedProteinBert(
        ProteinBert(_tiny_config(), seed=SEED))


@register("functional_forward",
          "functional bf16/LUT forward pass (tiny model, 2x32 tokens)",
          setup=_setup_functional_forward, tags=(FAST_TAG,))
def scenario_functional_forward() -> float:
    model = _STATE.get("functional_forward")
    if model is None:
        _setup_functional_forward()
        model = _STATE["functional_forward"]
    rng = np.random.default_rng(SEED)
    tokens = rng.integers(0, _tiny_config().vocab_size, size=(2, 32))
    hidden = model.forward(tokens)
    return float(np.abs(hidden).sum())


def _setup_dse_point() -> None:
    from ..dse.explorer import DesignSpaceExplorer

    explorer = DesignSpaceExplorer(batch=BATCH, seq_len=SEQ_LEN)
    explorer.a100_runtime()  # memoize the reference latency untimed
    _STATE["dse_point"] = explorer


def _traced_dse_point(tracer) -> float:
    # The explorer's cached path has no tracer plumbing; the sim-time
    # content of a DSE point is its cold schedule, so trace that.
    from ..parallel.cache import clear_caches
    from ..sched.orchestrator import Orchestrator

    clear_caches()
    result = Orchestrator(_hardware()).run(_base_config(), batch=BATCH,
                                           seq_len=SEQ_LEN, tracer=tracer)
    return float(result.makespan_seconds)


@register("dse_point",
          "cold DSE point: trace + schedule + power/area for BestPerf",
          setup=_setup_dse_point, tags=("cold",),
          traced=_traced_dse_point)
def scenario_dse_point() -> float:
    from ..parallel.cache import clear_caches

    explorer = _STATE.get("dse_point")
    if explorer is None:
        _setup_dse_point()
        explorer = _STATE["dse_point"]
    clear_caches()  # in-memory only: every repeat re-traces + re-schedules
    point = explorer.evaluate(_hardware())
    return float(point.normalized_runtime)


def _setup_campaign_simulate() -> None:
    from ..proteins.workloads import uniprot_like_workload
    from ..system.serving import CampaignSimulator

    _STATE["campaign_simulate"] = (
        CampaignSimulator(model_config=_base_config(), max_batch=BATCH),
        uniprot_like_workload(count=16, seed=SEED))


@register("campaign_simulate",
          "cold serving campaign: bucket + schedule 16 UniProt-like "
          "sequences",
          setup=_setup_campaign_simulate, tags=("cold",), traced=True)
def scenario_campaign_simulate(tracer=None) -> float:
    from ..parallel.cache import clear_caches

    state = _STATE.get("campaign_simulate")
    if state is None:
        _setup_campaign_simulate()
        state = _STATE["campaign_simulate"]
    simulator, workload = state
    clear_caches()  # cold: per-bucket schedules are recomputed
    report = simulator.run_on_prose(workload, tracer=tracer)
    return float(report.total_seconds)


def _setup_fleet_simulate() -> None:
    from ..experiments.chaos_campaign import scenario_simulator
    from ..fleet import build_fleet
    from ..model.config import protein_bert_tiny
    from ..reliability import DegradationPolicy

    # No background transients: the rack loss is the only fault.
    simulator, scenario = scenario_simulator(
        build_fleet(racks=2, hosts_per_rack=2, instances_per_host=2),
        "rack_power_loss", SEED, config=protein_bert_tiny(),
        link_transient_rate=0.0,
        policy=DegradationPolicy(min_capacity_fraction=0.25),
        seq_len=64, reference_batch=4)
    simulator.nominal_makespan(64)  # warm the schedule cache
    _STATE["fleet_simulate"] = (simulator, scenario)


@register("fleet_simulate",
          "fleet chaos recovery: rack power loss over 2x2x2, detect + "
          "re-shard + drain",
          setup=_setup_fleet_simulate, tags=(FAST_TAG,), traced=True)
def scenario_fleet_simulate(tracer=None) -> float:
    state = _STATE.get("fleet_simulate")
    if state is None:
        _setup_fleet_simulate()
        state = _STATE["fleet_simulate"]
    simulator, scenario = state
    report = simulator.run(batch=64, scenario=scenario, tracer=tracer)
    return float(report.makespan_seconds)


def _setup_lut_lookup() -> None:
    from ..arch.lut import make_exp_lut, make_gelu_lut

    rng = np.random.default_rng(SEED)
    # Mix of magnitudes spanning in-window, below-window, and above-window
    # exponents for both LUTs, both signs.
    values = np.concatenate([
        rng.standard_normal(131072).astype(np.float32),          # in-window
        rng.standard_normal(65536).astype(np.float32) * 1e-4,    # below
        rng.standard_normal(65536).astype(np.float32) * 1e4,     # above
    ])
    rng.shuffle(values)
    _STATE["lut_lookup"] = (make_gelu_lut(), make_exp_lut(),
                            values.reshape(512, 512))


@register("lut_lookup",
          "dense bulk LUT gather: GELU + Exp over a 512x512 bf16 tensor "
          "spanning all exponent regions",
          setup=_setup_lut_lookup, tags=(FAST_TAG,))
def scenario_lut_lookup() -> float:
    state = _STATE.get("lut_lookup")
    if state is None:
        _setup_lut_lookup()
        state = _STATE["lut_lookup"]
    gelu, exp, values = state
    gelu_out = gelu.lookup(values)
    # exp over -|x| keeps every output finite (saturating positives would
    # swamp the fingerprint sum with BF16_MAX).
    exp_out = exp.lookup(-np.abs(values))
    return float(np.abs(gelu_out).sum() + exp_out.sum())


def _setup_timeline_reserve() -> None:
    rng = np.random.default_rng(SEED)
    ready = np.cumsum(rng.uniform(0.5, 1.5, size=10000))
    # ~5% of requests rewind: an earlier-ready thread backfilling a gap.
    rewind = rng.random(10000) < 0.05
    ready[rewind] *= rng.uniform(0.2, 0.8, size=int(rewind.sum()))
    durations = rng.uniform(0.1, 2.0, size=10000)
    _STATE["timeline_reserve"] = (ready.tolist(), durations.tolist())


@register("timeline_reserve",
          "10k gap-aware Timeline reservations (~5% out-of-order backfills)",
          setup=_setup_timeline_reserve, tags=(FAST_TAG,))
def scenario_timeline_reserve() -> float:
    from ..sched.events import Timeline

    state = _STATE.get("timeline_reserve")
    if state is None:
        _setup_timeline_reserve()
        state = _STATE["timeline_reserve"]
    ready, durations = state
    timeline = Timeline("bench")
    total = 0.0
    for earliest, duration in zip(ready, durations):
        start, _end = timeline.reserve(earliest, duration)
        total += start
    return total + timeline.busy_seconds


def _setup_trace_analyze() -> None:
    from ..telemetry import Tracer

    tracer = Tracer()
    scenario_schedule(tracer)
    _STATE["trace_analyze"] = tracer


@register("trace_analyze",
          "trace analytics over a warm schedule trace: critical path + "
          "utilization + self-diff",
          setup=_setup_trace_analyze, tags=(FAST_TAG,))
def scenario_trace_analyze() -> float:
    from ..telemetry import analyze_trace, build_rollup, diff_rollups

    tracer = _STATE.get("trace_analyze")
    if tracer is None:
        _setup_trace_analyze()
        tracer = _STATE["trace_analyze"]
    analysis = analyze_trace(tracer)
    rollup = build_rollup(tracer)
    diff = diff_rollups(rollup, rollup)
    # Folds in the path shape, idle gaps, resource concurrency, and the
    # (expected-zero) self-diff so any analytics drift moves the number.
    return (analysis.path.total_seconds
            + len(analysis.path.hops)
            + analysis.path.gap_seconds
            + analysis.utilization.mean_concurrency
            + abs(diff.delta_seconds))


@register("monitor_overhead",
          "fleet_simulate with a live SLO monitor attached: time-series "
          "sampling + burn-rate alerting on top of the same run",
          setup=_setup_fleet_simulate, tags=(FAST_TAG,))
def scenario_monitor_overhead() -> float:
    from ..monitor import fleet_monitor

    state = _STATE.get("fleet_simulate")
    if state is None:
        _setup_fleet_simulate()
        state = _STATE["fleet_simulate"]
    simulator, scenario = state
    # A Monitor arms once per run, so building it is part of the timed
    # body; the delta vs fleet_simulate is the monitoring overhead.
    report = simulator.run(batch=64, scenario=scenario,
                           monitor=fleet_monitor())
    # Fingerprint folds in the alert count: a run that stops paging (or
    # pages more) drifts the fingerprint even at identical makespan.
    return float(report.makespan_seconds) * (1.0 + report.slo.alerts)
