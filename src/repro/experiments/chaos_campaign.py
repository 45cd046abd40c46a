"""Chaos campaign: every correlated-failure scenario over a small fleet.

Runs the scripted scenarios of :mod:`repro.fleet.scenarios` — rack
power loss, link flap storms, a silently slow node, a rolling restart —
against one fleet and workload, next to a clean baseline run, and
reports what each failure mode costs in goodput, availability, shed
work, and recovery time.

Scenario runs are independent, so they fan out over the parallel sweep
executor; each task's :class:`~repro.reliability.FaultModel` seed is
derived from the *scenario name* (:func:`~repro.reliability.derive_task_seed`),
never from shared RNG state, so the campaign is bit-identical at
``workers=1`` and ``workers=N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..fleet import (
    ChaosScenario,
    FleetReport,
    FleetSimulator,
    FleetTopology,
    SCENARIO_BUILDERS,
    build_fleet,
    build_scenario,
)
from ..model.config import BertConfig, protein_bert_tiny
from ..monitor import fleet_monitor
from ..parallel.executor import SweepExecutor
from ..reliability import (
    DegradationPolicy,
    FaultModel,
    FaultRates,
    derive_task_seed,
)

#: Clean-run pseudo-scenario name (no chaos script, inert fault model).
BASELINE = "baseline"

#: The CLI's name for a clean run (no chaos script).
CLEAN = "none"

#: Background fault rate layered under every chaos script.
DEFAULT_LINK_TRANSIENT_RATE = 0.01


@dataclass(frozen=True)
class ChaosCampaignResult:
    """One report per scenario (baseline first), plus the fleet shape."""

    topology: str
    batch: int
    seed: int
    scenarios: Tuple[str, ...]
    reports: Tuple[FleetReport, ...]


def scenario_simulator(topology: FleetTopology, name: str, seed: int, *,
                       config: BertConfig, link_transient_rate: float,
                       seq_len: int,
                       policy: Optional[DegradationPolicy] = None,
                       reference_batch: int = 8
                       ) -> Tuple[FleetSimulator, Optional[ChaosScenario]]:
    """The simulator and chaos script for one named scenario run.

    The fault-model seed is a pure function of (root seed, scenario
    name), so a run's outcome does not depend on which worker runs it
    or in what order.  ``none`` and :data:`BASELINE` name a clean run:
    no chaos script, only the background link transients.
    """
    scenario = (None if name in (CLEAN, BASELINE)
                else build_scenario(name, topology))
    fault_model = FaultModel(FaultRates(link_transient=link_transient_rate),
                             seed=derive_task_seed(seed, name))
    simulator = FleetSimulator(
        topology, model_config=config, fault_model=fault_model,
        policy=policy, seq_len=seq_len, reference_batch=reference_batch)
    return simulator, scenario


def _scenario_report(payload: Tuple[str, int, int, BertConfig,
                                    FleetTopology]) -> FleetReport:
    """One scenario of the campaign (module-level for pickling).

    Every run carries a live fleet monitor: the monitor only observes
    (all simulated numbers stay bit-identical) and its
    :class:`~repro.monitor.SloOutcome` lands on the report, so the
    campaign table can show service impact next to raw goodput.
    """
    name, seed, batch, config, topology = payload
    simulator, scenario = scenario_simulator(
        topology, name, seed, config=config,
        link_transient_rate=(0.0 if name == BASELINE
                             else DEFAULT_LINK_TRANSIENT_RATE),
        policy=DegradationPolicy(min_capacity_fraction=0.25,
                                 circuit_breaker_failures=3),
        seq_len=64, reference_batch=4)
    return simulator.run(batch=batch, scenario=scenario,
                         monitor=fleet_monitor())


def run(batch: int = 128, seed: int = 2022,
        racks: int = 2, hosts_per_rack: int = 2,
        instances_per_host: int = 2, heterogeneous: bool = False,
        workers: Optional[int] = None) -> ChaosCampaignResult:
    """Run every chaos scenario (plus a clean baseline) on one fleet.

    Args:
        batch: inferences per campaign run.
        seed: root seed; per-scenario fault seeds derive from it.
        racks: fleet racks.
        hosts_per_rack: hosts per rack.
        instances_per_host: instances per host.
        heterogeneous: mix calibrated A100/TPU baselines into the fleet.
        workers: fan scenarios out over N processes; ``None`` reads
            ``REPRO_SWEEP_WORKERS`` (default 1, the serial path).
    """
    topology = build_fleet(racks=racks, hosts_per_rack=hosts_per_rack,
                           instances_per_host=instances_per_host,
                           heterogeneous=heterogeneous)
    config = protein_bert_tiny()
    names = (BASELINE,) + tuple(SCENARIO_BUILDERS)
    executor = SweepExecutor(SweepExecutor.resolve_workers(workers))
    reports = executor.map(
        _scenario_report,
        [(name, seed, batch, config, topology) for name in names],
        label="chaos-campaign")
    return ChaosCampaignResult(
        topology=topology.describe(), batch=batch, seed=seed,
        scenarios=names, reports=tuple(reports))


def format_result(result: ChaosCampaignResult) -> str:
    """Per-scenario goodput/availability/recovery/service-impact table."""
    lines = [f"fleet: {result.topology}, batch {result.batch}, "
             f"seed {result.seed}",
             f"{'scenario':>16s} {'goodput':>10s} {'avail':>7s} "
             f"{'done':>7s} {'shed':>6s} {'reshards':>8s} "
             f"{'recov ms':>9s} {'fails':>5s} {'alerts':>6s} "
             f"{'burn':>7s} {'budget':>7s}"]
    for name, report in zip(result.scenarios, result.reports):
        slo = report.slo
        alerts = f"{slo.alerts:6d}" if slo is not None else f"{'-':>6s}"
        burn = (f"{slo.worst_burn_rate:7.1f}" if slo is not None
                else f"{'-':>7s}")
        budget = (f"{slo.budget_remaining:6.1%}" if slo is not None
                  else f"{'-':>7s}")
        lines.append(
            f"{name:>16s} {report.goodput:10.1f} "
            f"{report.availability:7.4f} {report.completed:7.1f} "
            f"{report.shed:6.1f} {report.reshards:8d} "
            f"{report.recovery_seconds * 1e3:9.3f} "
            f"{report.failures:5d} {alerts} {burn} {budget}")
    return "\n".join(lines)
