"""Fault-injection campaign: availability and goodput vs fault rate.

The deployment story of Section 3.2 (four ProSE instances serving
drug-discovery campaigns) only holds up if the system tolerates faults.
This experiment sweeps a seeded fault rate across the serving layer —
each rate applied simultaneously to batch failures, stragglers, and
link transients — and reports the availability/goodput curve, then
exercises the multi-instance recovery path by killing one of the four
instances mid-batch and re-accounting the resharded completion.

Everything is deterministic for a given seed, so the emitted curve is a
regression artifact like any paper figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..model.config import BertConfig, protein_bert_tiny
from ..parallel.executor import SweepExecutor
from ..proteins.workloads import Workload, screening_campaign
from ..reliability import (
    DegradationPolicy,
    FaultModel,
    FaultRates,
    ReliabilityReport,
    RetryPolicy,
    derive_task_seed,
)
from ..system.multi import ProSESystem, ReliableSystemReport
from ..system.serving import CampaignSimulator
from ..telemetry import MetricsRegistry

#: Fault rates swept over the serving campaign.
DEFAULT_FAULT_RATES: Tuple[float, ...] = (0.0, 0.01, 0.05, 0.1, 0.2)

#: The campaign's encoder: a small model that still admits 2k-residue
#: sequences.
CAMPAIGN_CONFIG = protein_bert_tiny(num_layers=2, hidden_size=128,
                                    num_heads=4, intermediate_size=512,
                                    max_position=2048)

#: Backoff scaled to the simulated (milliseconds-long) batch makespans.
DEFAULT_RETRY_POLICY = RetryPolicy(backoff_base_seconds=0.002,
                                   backoff_cap_seconds=0.05)


@dataclass(frozen=True)
class FaultCampaignResult:
    """Availability/goodput curve plus the instance-failure scenario."""

    fault_rates: Tuple[float, ...]
    serving_reports: Tuple[ReliabilityReport, ...]
    failure_scenario: ReliableSystemReport
    seed: int


def _serving_report(payload: Tuple[float, int, BertConfig, Workload,
                                   RetryPolicy],
                    metrics: Optional[MetricsRegistry] = None
                    ) -> ReliabilityReport:
    """One fault-rate point of the sweep (module-level for pickling).

    Each point builds its own :class:`FaultModel` whose seed is derived
    from the *rate* itself, so the result for a point is a pure function
    of what the point is — deterministic, independent of sweep order,
    and bit-identical however the sweep is partitioned over workers.
    """
    rate, seed, config, workload, policy = payload
    fault_model = FaultModel(
        FaultRates(batch_failure=rate, straggler=rate,
                   link_transient=rate / 10.0),
        seed=derive_task_seed(seed, rate))
    simulator = CampaignSimulator(model_config=config, max_batch=8,
                                  fault_model=fault_model,
                                  retry_policy=policy)
    report = simulator.run_on_prose(workload, metrics=metrics)
    return (report.reliability
            or ReliabilityReport(goodput=report.throughput))


def run(fault_rates: Tuple[float, ...] = DEFAULT_FAULT_RATES,
        seed: int = 2022, library_size: int = 96,
        retry_policy: Optional[RetryPolicy] = None,
        workers: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None) -> FaultCampaignResult:
    """Sweep fault rates over a screening campaign; kill one instance.

    Args:
        fault_rates: per-event probabilities applied to batch failure,
            straggling, and link transients simultaneously.
        seed: root seed for every fault model in the sweep.
        library_size: antibody variants in the screening workload.
        retry_policy: serving retry/backoff knobs.
        workers: fan the rate points out over N processes; ``None`` reads
            ``REPRO_SWEEP_WORKERS`` (default 1, the serial path).
        metrics: optional registry; when given, every rate point runs
            instrumented (serially — the instrumented path does not fan
            out) and its serving counters/histograms merge in under a
            ``rate<rate>/`` prefix.
    """
    workload = screening_campaign(library_size=library_size, seed=seed)
    policy = retry_policy or DEFAULT_RETRY_POLICY
    payloads = [(rate, seed, CAMPAIGN_CONFIG, workload, policy)
                for rate in fault_rates]
    if metrics is not None:
        serving_reports = []
        for payload in payloads:
            child = MetricsRegistry(f"rate{payload[0]:g}")
            serving_reports.append(_serving_report(payload, metrics=child))
            metrics.merge(child, prefix=f"rate{payload[0]:g}")
    else:
        executor = SweepExecutor(SweepExecutor.resolve_workers(workers))
        serving_reports = executor.map(_serving_report, payloads,
                                       label="fault-campaign")

    # Deterministically kill instance 1 of 4 mid-batch: the recovery
    # path reshards its inferences across the three survivors.
    failure_model = FaultModel(seed=seed, targeted_instance_failures=(1,))
    scenario = ProSESystem(instances=4).simulate_with_faults(
        CAMPAIGN_CONFIG, batch=32, seq_len=128, fault_model=failure_model,
        policy=DegradationPolicy())
    return FaultCampaignResult(fault_rates=tuple(fault_rates),
                               serving_reports=tuple(serving_reports),
                               failure_scenario=scenario,
                               seed=seed)


def random_failure_scenario(rate: float, seed: int, instances: int = 4,
                            batch: int = 32, seq_len: int = 128
                            ) -> ReliableSystemReport:
    """One batch on a system whose instances fail at ``rate``.

    Links see transients at a tenth of that rate.
    """
    fault_model = FaultModel(
        FaultRates(instance_failure=rate, link_transient=rate / 10.0),
        seed=seed)
    return ProSESystem(instances=instances).simulate_with_faults(
        CAMPAIGN_CONFIG, batch=batch, seq_len=seq_len,
        fault_model=fault_model)


def format_result(result: FaultCampaignResult) -> str:
    """The availability/goodput curve and the failure-scenario account."""
    lines = [f"{'fault rate':>10s} {'avail':>7s} {'goodput':>9s} "
             f"{'retries':>7s} {'dropped':>7s} {'wasted ms':>9s}"]
    for rate, report in zip(result.fault_rates, result.serving_reports):
        lines.append(f"{rate:10.3f} {report.availability:7.4f} "
                     f"{report.goodput:9.1f} {report.retries:7d} "
                     f"{report.dropped:7d} "
                     f"{report.wasted_seconds * 1e3:9.2f}")
    scenario = result.failure_scenario
    reliability = scenario.reliability
    lines.append("")
    lines.append(
        f"instance-failure scenario (1 of {scenario.instances} killed): "
        f"batch {scenario.batch} completed on {scenario.survivors} "
        f"survivors via {len(scenario.recovery)} recovery shards")
    lines.append(
        f"  availability {reliability.availability:.4f}, "
        f"goodput {reliability.goodput:.1f} inf/s, "
        f"retries {reliability.retries}, "
        f"recovery energy {scenario.energy_joules:.2f} J vs "
        f"fault-free {scenario.fault_free_energy_joules:.2f} J "
        f"(+{scenario.energy_joules - scenario.fault_free_energy_joules:.2f} J)")
    return "\n".join(lines)
