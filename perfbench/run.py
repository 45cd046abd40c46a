"""End-to-end benchmark of the ProSE reproduction: one run of one workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload dse_sweep --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/workloads.py`` for why each was chosen):

* ``dse_sweep``: a cold Table 3 sweep at one Figure 17 budget; work unit:
  configurations evaluated.
* ``binding_study``: the Section 2.2 binding study on a seeded Fab
  dataset; work unit: variant sequences embedded.
* ``serving_fleet``: a seeded serving campaign under faults, the fault
  campaign and the fleet chaos campaign; work unit: simulated inferences.

Each run is a fresh process (``perfbench/worker.py``) with serial sweeps,
one BLAS thread and memory-only caches.  ``--trace 0`` times the workload
and reports ``wall_s``, ``items_per_s``, ``setup_s`` and ``peak_rss_mb``;
``--trace 1`` reports the per-layer metrics of ``perfbench/layers.py``.
The times are scaled to one nominal host speed: a shared host's speed can
drift by half within a minute, so each call (and each set-up) is divided
by how much slower than nominal a fixed pure-Python loop ran around it
(``perfbench.worker.slowdown``).  The times as measured are printed beside
them as ``host.*``, and ``--trace 1`` reports them for the calls.
``setup_s`` is the median over :data:`SETUP_PROBES`
set-up-only processes, half run before the measured one and half after
it, and the measured one.  ``--seed`` selects one of the workload's
recorded input sets (``seed % inputs``, see ``perfbench/workloads.py``),
and every output is checked against that set's fingerprint in
``perfbench/reference.json``.  Human-readable lines come first; the last
line of standard output is the JSON result.  Without the program's
sources (``src/repro``) next to this directory the run exits with status 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("dse_sweep", "binding_study", "serving_fleet")

#: Set-up-only processes per run, besides the measured one.  The host's
#: speed drifts over tens of seconds, so half run before the measured
#: process and half after it.
SETUP_PROBES = 8

#: A run, set-up probes included, ends within this many seconds.
RUN_LIMIT_SECONDS = 175.0

#: Environment of every child: serial sweeps, one BLAS thread (the binding
#: study's float32 results are bit-exact only then) and a fixed string-hash
#: seed.  ``REPRO_CACHE_DIR`` is removed, so caches stay in memory.
PINNED_ENV = {"REPRO_SWEEP_WORKERS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args: argparse.Namespace, deadline: float,
          setup_only: bool) -> Dict[str, Any]:
    """Run the worker once; its last output line is its JSON record."""
    command = [sys.executable, "-m", "perfbench.worker",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        command.append("--setup-only")
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    command += ["--spawned-at", repr(spawned_at)]
    # subprocess.run kills and reaps the child if the timeout expires.
    completed = subprocess.run(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        text=True, timeout=max(1.0, deadline - time.monotonic()))
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: worker exited with status "
                         f"{completed.returncode}")
    return json.loads(lines[-1])


def quartile_spread(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, IQR {q3 - q1:.4g}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_SECONDS

    def probe_setups(count: int) -> List[Dict[str, float]]:
        return [spawn(args, deadline, setup_only=True) for _ in range(count)]

    # A traced run reports no setup_s.
    probes = 0 if args.trace else SETUP_PROBES
    setups = probe_setups(probes // 2)
    record = spawn(args, deadline, setup_only=False)
    setups += [record]
    setups += probe_setups(probes - probes // 2)

    metrics = dict(record["metrics"])
    host = dict(record.get("host", {}))
    if not args.trace:
        metrics["setup_s"] = {
            "value": statistics.median(s["setup_s"] for s in setups),
            "unit": "s"}
        host["host.setup_s"] = statistics.median(s["setup_raw_s"]
                                                 for s in setups)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{record['attempted']} calls of {record['unit']}, "
          f"{record['failed']} failed (fail_frac "
          f"{record['failed'] / record['attempted']:.4g}) against reference "
          f"{record['fingerprint'][:24]} (input set {record['input_seed']})")
    for error in record["errors"]:
        print(error)
    spreads = {"wall_s": quartile_spread(record.get("walls", [])),
               "setup_s": quartile_spread([s["setup_s"] for s in setups])}
    notes = dict(record.get("moves", {}), **spreads)
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<26s} {metric['value']:>14.6g} {metric['unit']:<7s}"
              f"{note}")
    for name, value in host.items():
        print(f"  {name:<26s} {value:>14.6g} (as measured, not compared)")
    if "trace_file" in record:
        print(f"  chrome trace: {record['trace_file']}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
