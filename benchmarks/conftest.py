"""Shared helpers for the paper-artifact benchmarks.

Every benchmark regenerates one table or figure of the paper, prints the
rows/series it reports, and asserts the claim's *shape* (who wins, by
roughly what factor, where crossovers fall).  Benchmarks run each artifact
once (``rounds=1``) — the interesting number is the artifact's content,
not the harness's wall clock.

Setting ``REPRO_BENCH_APPEND=/path/to/BENCH_xxxx.json`` (off by default)
additionally appends each artifact's wall-clock time to that benchmark
-observatory record under its ``artifacts`` key, so paper-artifact
benchmarks and ``python -m repro.cli bench`` share one record format
(see ``repro.bench.recorder``).
"""

from __future__ import annotations

import os
import time

import pytest

#: Environment variable gating the observatory feed (a record path).
RECORD_ENV = "REPRO_BENCH_APPEND"


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "exhaustive: a multi-minute proof; runs only when "
        "selected with -m exhaustive")


def pytest_collection_modifyitems(config, items):
    """Skip ``exhaustive`` tests unless the ``-m`` expression names them."""
    if "exhaustive" in (config.getoption("markexpr") or ""):
        return
    skip = pytest.mark.skip(reason="exhaustive proof; select with "
                            "-m exhaustive")
    for item in items:
        if "exhaustive" in item.keywords:
            item.add_marker(skip)


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark and return its result.

    When :data:`RECORD_ENV` names a record file, the artifact's wall
    clock is appended there as well — measured around the benchmarked
    call, so the recorder sees the same single-round timing
    pytest-benchmark reports.
    """
    record_path = os.environ.get(RECORD_ENV, "").strip()
    start = time.perf_counter() if record_path else 0.0
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                rounds=1, iterations=1)
    if record_path:
        elapsed = time.perf_counter() - start
        from repro.bench.recorder import append_artifact_timing

        name = getattr(benchmark, "name", None) or getattr(
            fn, "__name__", "artifact")
        append_artifact_timing(record_path, name, elapsed)
    return result


def emit(title: str, body: str) -> None:
    """Print one labelled artifact block into the benchmark output."""
    print(f"\n===== {title} =====")
    print(body)
