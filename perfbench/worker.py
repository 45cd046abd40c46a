"""One benchmark run of one workload, in a fresh process.

``perfbench/run.py`` starts this module once per run (plus a few
``--setup-only`` probes that time set-up alone).  It builds the seeded
inputs of the input set ``--seed`` selects, then repeats the workload's
timed call until ``--seconds`` have passed, checking every output against
that set's recorded fingerprint and the cold-cache counts.  With
``--trace 1`` it alternates untraced calls and calls traced under
:class:`perfbench.layers.LayerProbe`, and exports the last traced call as
a Chrome trace under ``.perfbench/``.

The last line of standard output is one JSON record for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

import repro  # noqa: E402

if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
    raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                     f"not from {ROOT / 'src'}")

import numpy  # noqa: E402

from repro.parallel.cache import (  # noqa: E402
    clear_caches,
    schedule_cache,
    trace_cache,
)
from repro.parallel.executor import SweepExecutor  # noqa: E402
from repro.telemetry.export import write_chrome_trace  # noqa: E402

from perfbench import layers  # noqa: E402
from perfbench.run import PINNED_ENV  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
TRACE_DIR = ROOT / ".perfbench"

#: Units of the end-to-end metrics a timed run reports (``run.py`` adds
#: ``setup_s``, which it measures over several processes).
E2E_UNITS = {"wall_s": "s", "items_per_s": "items/s", "peak_rss_mb": "MB"}

#: Median time of :func:`reference_loop` on the 2-vCPU VM the benchmark
#: was defined on: the host speed reported times are scaled to.
REFERENCE_NOMINAL_S = 0.022

#: Runs of :func:`reference_loop` per reading; the median is kept.
REFERENCE_RUNS = 3


def peak_rss_mb() -> float:
    """This process's maximum resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def clock() -> float:
    """System-wide monotonic seconds, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_loop() -> None:
    """Fixed pure-Python integer arithmetic: the interpreter's speed."""
    total = 0
    for i in range(300_000):
        total += i * i


def slowdown() -> float:
    """How much slower than nominal the host runs :func:`reference_loop` now.

    A shared host's speed can drift by half over tens of seconds.  The
    loop's time drifts with it, so a time divided by the slowdown around
    it reads as the seconds the work would take at one fixed host speed.
    """
    times = []
    for _ in range(REFERENCE_RUNS):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / REFERENCE_NOMINAL_S


def setup_times(spawned_at: float) -> Dict[str, float]:
    """``setup_s`` since ``spawned_at``: at nominal host speed, and raw."""
    raw = clock() - spawned_at
    return {"setup_s": raw / slowdown(), "setup_raw_s": raw}


def load_reference(workload: str, input_seed: int) -> Optional[str]:
    """The recorded fingerprint of one input set of a workload, if any."""
    with open(REFERENCE_FILE, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {}).get(str(input_seed))


def check_environment() -> None:
    """Refuse to measure unless the run is serial, single-threaded and cold."""
    problems = [f"{name}={os.environ.get(name)!r}, expected {value!r}"
                for name, value in PINNED_ENV.items()
                if os.environ.get(name) != value]
    if SweepExecutor.resolve_workers(None) != 1:
        problems.append("sweeps would fan out over worker processes")
    for cache in (schedule_cache(), trace_cache()):
        if cache.disk_dir is not None or not cache.enabled:
            problems.append(f"{cache.name} cache is not memory-only")
    if problems:
        raise SystemExit("perfbench: " + "; ".join(problems))


def environment() -> Dict[str, Any]:
    """What produced a result: source revision, versions, CPUs, threads."""
    sha = "unknown (not a git checkout)"
    # Without its own .git, git would answer for an enclosing repository.
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = "unknown (git rev-parse failed)"
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "repro": repro.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {name: os.environ.get(name) for name in PINNED_ENV}}


@dataclass
class Outcome:
    """One timed call: its wall time, work and fingerprint, or why it failed.

    ``slowdown`` is the mean of the :func:`slowdown` readings just before
    and just after the call.
    """

    wall: Optional[float] = None
    slowdown: float = 1.0
    items: float = 0.0
    fingerprint: Optional[str] = None
    error: Optional[str] = None
    layer_metrics: Optional[Dict[str, float]] = None


def check(workload: Workload, outcome: Outcome, output: Any,
          deltas: Dict[str, Any], sizes: Dict[str, int],
          reference: Optional[str]) -> None:
    """Fingerprint the output; set ``outcome.error`` if it is wrong.

    ``reference=None`` only fingerprints (``record_reference.py``).
    """
    try:
        workload.isolation(output, deltas, sizes)
        outcome.fingerprint = workload.fingerprint(output)
    except Exception:
        # A check that cannot even run counts as a failed call.
        outcome.error = traceback.format_exc(limit=-3)
        return
    if reference is not None and outcome.fingerprint != reference:
        outcome.error = (f"fingerprint {outcome.fingerprint} differs from "
                         f"reference {reference}")


def timed_call(workload: Workload, inputs: Any, reference: Optional[str],
               probe: Optional[layers.LayerProbe] = None) -> Outcome:
    """Run the workload once from empty caches and check its output."""
    caches = {"schedule": schedule_cache(), "trace": trace_cache()}
    clear_caches()
    gc.collect()
    if probe is not None:
        probe.reset()
    slow_before = slowdown()
    start = time.perf_counter()
    try:
        if probe is None:
            output = workload.run(inputs)
        else:
            with probe.root():
                output = workload.run(inputs)
    except Exception:
        return Outcome(error=traceback.format_exc(limit=-3))
    wall = time.perf_counter() - start
    slow = (slow_before + slowdown()) / 2.0
    deltas = {name: cache.stats for name, cache in caches.items()}
    sizes = {name: len(cache) for name, cache in caches.items()}
    outcome = Outcome(wall=wall, slowdown=slow, items=workload.items(output))
    check(workload, outcome, output, deltas, sizes, reference)
    if probe is not None:
        outcome.layer_metrics = layers.iteration_metrics(probe, deltas)
    return outcome


def repeat(step: Callable[[], List[Outcome]], deadline: float
           ) -> List[Outcome]:
    """Rounds of timed calls while the next, as long as the last, ends by
    ``deadline``.

    At least one round is made, and a started call is never cut short.
    """
    outcomes = last = step()
    while (time.perf_counter() + sum(o.wall or 0.0 for o in last)
           <= deadline):
        last = step()
        outcomes = outcomes + last
    return outcomes


def end_to_end(outcomes: List[Outcome]) -> Dict[str, float]:
    """Medians over the completed calls, in reference-loop units and raw.

    ``wall_s`` and ``items_per_s`` are at nominal host speed: each call's
    wall time is divided by its ``slowdown``.  The ``host.`` values are as
    measured.
    """
    done = [outcome for outcome in outcomes if outcome.wall is not None]
    return {"wall_s": statistics.median(o.wall / o.slowdown for o in done),
            "items_per_s": statistics.median(o.items * o.slowdown / o.wall
                                             for o in done),
            "host.wall_s": statistics.median(o.wall for o in done),
            "host.items_per_s": statistics.median(o.items / o.wall
                                                  for o in done),
            "host.slowdown": statistics.median(o.slowdown for o in done)}


def with_units(values: Dict[str, float], units: Dict[str, str]
               ) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def per_layer(untraced: List[Outcome], traced: List[Outcome]
              ) -> Dict[str, float]:
    """Per-layer metrics averaged over the traced calls.

    Means, not medians, so the layer self times still add up to the mean
    traced wall time.  ``trace_overhead_frac`` compares that with the mean
    of the untraced calls made in turn with the traced ones, whose raw
    host-time medians are reported too.
    """
    recorded = [o.layer_metrics for o in traced]
    metrics = {name: statistics.fmean(m[name] for m in recorded)
               for name in recorded[0]}
    metrics.update({name: value
                    for name, value in end_to_end(untraced).items()
                    if name in layers.HOST_METRICS})
    metrics["trace_overhead_frac"] = (
        metrics["traced_wall_s"] / statistics.fmean(o.wall for o in untraced)
        - 1.0)
    return metrics


def export_trace(probe: layers.LayerProbe, workload: str, seed: int) -> Path:
    """Write the last traced call as Chrome-trace JSON for ``repro.cli``."""
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{workload}.trace.json"
    write_chrome_trace(layers.analyzable_copy(probe.tracer), str(path),
                       metadata={"tool": "perfbench", "workload": workload,
                                 "seed": seed, "clock": "host seconds"})
    return path


def prepare(workload: Workload, seed: int) -> Any:
    """The set-up ``setup_s`` times: seeded inputs, then empty caches."""
    inputs = workload.setup(seed)
    clear_caches()
    gc.collect()
    return inputs


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        spawned_at: Optional[float] = None,
        reference: Optional[str] = None) -> Dict[str, Any]:
    """One benchmark run; returns the record ``run.py`` aggregates.

    Args:
        workload_name: a key of :data:`WORKLOADS`.
        seed: selects the input set (see :meth:`Workload.input_seed`).
        seconds: how long to keep repeating the timed call.
        trace: make the per-layer traced run instead of the timed one.
        spawned_at: :func:`clock` reading taken just before this process
            was started; ``setup_s`` counts from it.
        reference: fingerprint to hold outputs to (default: the recorded
            one for the input set).
    """
    workload = WORKLOADS[workload_name]
    input_seed = workload.input_seed(seed)
    if reference is None:
        reference = load_reference(workload_name, input_seed)
    if reference is None:
        raise SystemExit(f"perfbench: {REFERENCE_FILE.name} has no "
                         f"{workload_name} fingerprint for input set "
                         f"{input_seed}; outputs could not be checked")
    inputs = prepare(workload, input_seed)
    record: Dict[str, Any] = {"workload": workload_name, "seed": seed,
                              "input_seed": input_seed}
    if spawned_at is not None:
        record.update(setup_times(spawned_at))
    deadline = time.perf_counter() + seconds
    if trace:
        probe = layers.LayerProbe()

        def untraced_then_traced() -> List[Outcome]:
            untraced = timed_call(workload, inputs, reference)
            with probe:
                return [untraced,
                        timed_call(workload, inputs, reference, probe)]

        outcomes = repeat(untraced_then_traced, deadline)
        untraced, traced = outcomes[0::2], outcomes[1::2]
        if all(o.wall is not None for o in outcomes):
            record["metrics"] = with_units(
                per_layer(untraced, traced),
                {metric.name: metric.unit for metric in layers.PER_LAYER})
            record["trace_file"] = str(export_trace(probe, workload_name,
                                                    seed))
            record["moves"] = {metric.name: metric.moves
                               for metric in layers.PER_LAYER}
    else:
        outcomes = repeat(
            lambda: [timed_call(workload, inputs, reference)], deadline)
        if any(o.wall is not None for o in outcomes):
            values = end_to_end(outcomes)
            values["peak_rss_mb"] = peak_rss_mb()
            record["metrics"] = with_units(values, E2E_UNITS)
            record["host"] = {name: values[name]
                              for name in layers.HOST_METRICS}
            record["walls"] = [o.wall / o.slowdown for o in outcomes
                               if o.wall is not None]
    record["attempted"] = len(outcomes)
    record["failed"] = sum(1 for o in outcomes if o.error is not None)
    record["errors"] = [o.error for o in outcomes if o.error][:3]
    record["fingerprint"] = reference
    record["unit"] = workload.unit
    record["env"] = environment()
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up, make no timed call")
    args = parser.parse_args(argv)
    check_environment()
    if args.setup_only:
        workload = WORKLOADS[args.workload]
        prepare(workload, workload.input_seed(args.seed))
        record = setup_times(args.spawned_at)
    else:
        record = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), spawned_at=args.spawned_at)
        if "metrics" not in record:
            for error in record["errors"]:
                print(error, file=sys.stderr)
            print("perfbench: no timed call completed", file=sys.stderr)
            return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
