"""Record reference fingerprints for ``perfbench/reference.json``.

Usage, from the repository root::

    PYTHONPATH=src REPRO_SWEEP_WORKERS=1 OPENBLAS_NUM_THREADS=1 \\
        OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 PYTHONHASHSEED=0 \\
        python3 -m perfbench.record_reference serving_fleet 0-127

The seeds name input sets, from 0 to the workload's ``inputs`` - 1; a
benchmark run with ``--seed n`` uses set ``n % inputs``, so every set a
run can use needs an entry.  Each set is run once from empty caches, in
the pinned environment and under the same cold-cache checks as a
benchmark run.  An entry already in the file must be reproduced exactly:
a differing fingerprint is reported and the file is left as it was,
because the program's results are meant to stay bit-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from perfbench.worker import REFERENCE_FILE, check_environment, timed_call
from perfbench.workloads import WORKLOADS


def parse_seeds(spec: str) -> List[int]:
    """``"3"``, ``"0-9"`` or ``"1,4,7"`` -> the seeds they name."""
    seeds: List[int] = []
    for part in spec.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seeds", type=parse_seeds)
    args = parser.parse_args(argv)
    check_environment()
    workload = WORKLOADS[args.workload]
    with open(REFERENCE_FILE, encoding="utf-8") as handle:
        table = json.load(handle)
    entries = table.setdefault(args.workload, {})
    outside = [seed for seed in args.seeds
               if workload.input_seed(seed) != seed]
    if outside:
        parser.error(f"{args.workload} has input sets 0-"
                     f"{workload.inputs - 1}, not {outside}")
    for seed in args.seeds:
        outcome = timed_call(workload, workload.setup(seed),
                             entries.get(str(seed)))
        if outcome.error is not None:
            print(f"seed {seed}: {outcome.error}", file=sys.stderr)
            return 1
        entries[str(seed)] = outcome.fingerprint
        print(f"{args.workload} seed {seed}: {outcome.fingerprint} "
              f"({outcome.wall:.2f} s)", flush=True)
    table[args.workload] = dict(sorted(
        entries.items(), key=lambda item: (len(item[0]), item[0])))
    with open(REFERENCE_FILE, "w", encoding="utf-8") as handle:
        json.dump({name: table[name] for name in sorted(table)}, handle,
                  indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
