"""The three benchmark workloads: seeded inputs, one timed call, a fingerprint.

Each workload is a closed loop of one serial batch job at a time. ``setup``
builds the seeded inputs outside the timed region, ``run`` is the timed
call, ``items`` counts the work units it completed, ``fingerprint``
reduces its output to one exact string (every float through ``repr``), and
``isolation`` checks the cache counts a cold run must produce.

Why these three: ``dse_sweep`` is the scheduler's compute/miss path (232
schedule misses, no model work); ``binding_study`` is pure functional-model
forward passes (no scheduler work); ``serving_fleet`` reaches the same
scheduler through shape-cache *reads* and around it exercises serving,
reliability, fleet and monitoring.  A gain on one path should show on its
workload and leave the others unchanged.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Tuple

from repro.binding import experiment as binding_experiment
from repro.dse.explorer import DesignSpaceExplorer
from repro.experiments import chaos_campaign, fault_campaign
from repro.monitor import serving_monitor
from repro.parallel.cache import CacheStats
from repro.proteins.datasets import make_binding_dataset
from repro.proteins.workloads import uniprot_like_workload
from repro.reliability import FaultModel, FaultRates
from repro.system.serving import CampaignSimulator

#: Figure 17 budget swept by ``dse_sweep``; its Table 3 space has 232 points.
DSE_PE_BUDGET = 16384
DSE_POINTS = 232

#: ``serving_fleet`` sizes are the program's own defaults times one factor:
#: ``uniprot_like_workload(count=256)``,
#: ``fault_campaign.run(library_size=96)`` and
#: ``chaos_campaign.run(batch=128)``.  8 is the power of two whose cold run
#: makes about 600 schedule-cache hits against about a dozen misses
#: (measured: 543 and 12), so shape-cache reads dominate the scheduler work.
SERVING_SCALE = 8
SERVING_LIBRARY = 256 * SERVING_SCALE
FAULT_LIBRARY = 96 * SERVING_SCALE
CHAOS_BATCH = 128 * SERVING_SCALE
#: The middle point of ``fault_campaign.DEFAULT_FAULT_RATES``.
SERVING_FAULT_RATE = fault_campaign.DEFAULT_FAULT_RATES[2]
#: The chaos campaign's fleet: 8 racks x 4 hosts x 4 instances, the last
#: host of each rack running the calibrated A100/TPU baselines, so work
#: reshards across unlike backends.
CHAOS_FLEET = {"racks": 8, "hosts_per_rack": 4, "instances_per_host": 4,
               "heterogeneous": True}


class IsolationError(AssertionError):
    """A run did not start cold, or did not do the work it should have."""


@dataclass(frozen=True)
class Workload:
    """One named workload of the benchmark.

    Attributes:
        name: the name ``BENCHMARK.json`` and ``--workload`` use.
        unit: the work unit ``items_per_s`` counts.
        inputs: how many input sets the workload has, each with a recorded
            reference fingerprint; ``--seed`` selects set ``seed % inputs``.
        setup: input seed -> inputs (untimed; part of ``setup_s``).
        run: inputs -> output (the timed call).
        items: output -> work units completed.
        fingerprint: output -> exact string compared to the reference.
        isolation: (output, cache deltas, cache sizes) -> None, raising
            :class:`IsolationError` when the counts a cold run must
            produce are off.
    """

    name: str
    unit: str
    inputs: int
    setup: Callable[[int], Any]
    run: Callable[[Any], Any]
    items: Callable[[Any], float]
    fingerprint: Callable[[Any], str]
    isolation: Callable[[Any, Dict[str, CacheStats], Dict[str, int]], None]

    def input_seed(self, seed: int) -> int:
        """The input set ``--seed`` selects: every set has a reference."""
        return seed % self.inputs


def _digest(lines: Iterable[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise IsolationError(message)


def _each_miss_distinct(deltas: Dict[str, CacheStats],
                        sizes: Dict[str, int]) -> None:
    """Every schedule miss was a distinct shape: nothing was computed twice."""
    schedule = deltas["schedule"]
    _require(schedule.evictions == 0, "schedule cache evicted entries")
    _require(schedule.misses == sizes["schedule"],
             f"{schedule.misses} schedule misses for "
             f"{sizes['schedule']} distinct shapes")
    _require(schedule.disk_hits == 0, "schedule cache read from disk")


# -- dse_sweep -------------------------------------------------------------


def _dse_setup(seed: int) -> None:
    # The Table 3 space is fixed: there is one input set, and no input.
    return None


def _dse_run(_inputs: None):
    return DesignSpaceExplorer(batch=32, seq_len=512).sweep(
        pe_budget=DSE_PE_BUDGET)


def _dse_fingerprint(result) -> str:
    lines = [f"{p.config.name} {p.runtime_seconds!r}" for p in result.points]
    lines += [result.best_perf.config.name,
              result.most_power_efficient.config.name,
              result.most_area_efficient.config.name]
    return _digest(lines)


def _dse_isolation(result, deltas, sizes) -> None:
    schedule = deltas["schedule"]
    _require(len(result.points) == DSE_POINTS,
             f"{len(result.points)} points, expected {DSE_POINTS}")
    _require(schedule.misses == DSE_POINTS and schedule.hits == 0,
             f"cold sweep made {schedule.misses} schedule misses and "
             f"{schedule.hits} hits, expected {DSE_POINTS} and 0")
    _each_miss_distinct(deltas, sizes)


# -- binding_study ---------------------------------------------------------


def _binding_run(dataset):
    # Looked up on the module so a traced run's wrapper is the one called.
    return binding_experiment.run_binding_study(dataset=dataset)


def _binding_fingerprint(result) -> str:
    return " ".join(repr(value) for value in (
        result.rank_correlation, result.pearson_correlation,
        result.train_rank_correlation))


def _binding_isolation(result, deltas, sizes) -> None:
    _require((result.num_train, result.num_test) == (39, 35),
             f"dataset is {result.num_train}/{result.num_test}, "
             "expected 39/35")
    _require(deltas["schedule"].misses == 0,
             "binding study ran the scheduler")


# -- serving_fleet ---------------------------------------------------------


@dataclass(frozen=True)
class ServingFleetResult:
    campaign: Any
    faults: Any
    chaos: Any


def _serving_setup(seed: int) -> Tuple[int, Any]:
    return seed, uniprot_like_workload(count=SERVING_LIBRARY, seed=seed)


def _serving_run(inputs: Tuple[int, Any]) -> ServingFleetResult:
    seed, library = inputs
    simulator = CampaignSimulator(
        retry_policy=fault_campaign.DEFAULT_RETRY_POLICY,
        fault_model=FaultModel(FaultRates(batch_failure=SERVING_FAULT_RATE,
                                          straggler=SERVING_FAULT_RATE),
                               seed=seed))
    campaign = simulator.run_on_prose(library, monitor=serving_monitor())
    faults = fault_campaign.run(seed=seed, library_size=FAULT_LIBRARY)
    chaos = chaos_campaign.run(batch=CHAOS_BATCH, seed=seed, **CHAOS_FLEET)
    return ServingFleetResult(campaign=campaign, faults=faults, chaos=chaos)


def _serving_items(result: ServingFleetResult) -> float:
    """Simulated inferences completed across the three campaigns."""
    completed = float(result.campaign.sequences)
    completed += sum(FAULT_LIBRARY - report.dropped
                     for report in result.faults.serving_reports)
    completed += result.faults.failure_scenario.batch
    completed += sum(report.completed for report in result.chaos.reports)
    return completed


def _reliability_line(report) -> str:
    return (f"{report.availability!r} {report.goodput!r} {report.retries} "
            f"{report.failures} {report.stragglers} {report.dropped} "
            f"{report.wasted_seconds!r} {report.wasted_joules!r}")


def _serving_fingerprint(result: ServingFleetResult) -> str:
    campaign = result.campaign
    lines = [f"campaign {campaign.sequences} {campaign.padded_tokens} "
             f"{campaign.useful_tokens} {campaign.total_seconds!r} "
             f"{campaign.total_energy_joules!r}",
             "campaign reliability " + _reliability_line(campaign.reliability),
             f"campaign alerts {campaign.slo.alerts}"]
    for rate, report in zip(result.faults.fault_rates,
                            result.faults.serving_reports):
        lines.append(f"rate {rate!r} " + _reliability_line(report))
    scenario = result.faults.failure_scenario
    lines.append(f"failure {scenario.makespan_seconds!r} "
                 f"{scenario.energy_joules!r} {scenario.survivors} "
                 + _reliability_line(scenario.reliability))
    for name, report in zip(result.chaos.scenarios, result.chaos.reports):
        lines.append(f"chaos {name} {report.goodput!r} "
                     f"{report.availability!r} {report.failures} "
                     f"{report.slo.alerts}")
    return _digest(lines)


def _serving_isolation(result: ServingFleetResult, deltas, sizes) -> None:
    _require(result.campaign.sequences + result.campaign.reliability.dropped
             == SERVING_LIBRARY, "campaign lost sequences")
    _each_miss_distinct(deltas, sizes)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(name="dse_sweep", unit="configurations", inputs=1,
                 setup=_dse_setup, run=_dse_run,
                 items=lambda result: float(len(result.points)),
                 fingerprint=_dse_fingerprint, isolation=_dse_isolation),
        Workload(name="binding_study", unit="sequences", inputs=64,
                 setup=lambda seed: make_binding_dataset(seed=seed),
                 run=_binding_run,
                 items=lambda result: float(result.num_train
                                            + result.num_test),
                 fingerprint=_binding_fingerprint,
                 isolation=_binding_isolation),
        Workload(name="serving_fleet", unit="inferences", inputs=128,
                 setup=_serving_setup, run=_serving_run,
                 items=_serving_items, fingerprint=_serving_fingerprint,
                 isolation=_serving_isolation),
    )
}
