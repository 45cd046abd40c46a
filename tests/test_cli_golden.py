"""Golden CLI outputs: SHA-256 of stdout and of every file a command writes.

Each case runs ``repro.cli.main`` in-process from an empty working
directory with cold in-memory caches, so a refactor of the CLI that
changes a single printed byte or written file shows up as a digest
mismatch.  ``sweep`` prints its wall time; that value is masked before
hashing.
"""

import contextlib
import hashlib
import io
import re

import pytest

from repro.cli import main
from repro.parallel import clear_caches

#: name -> argv.
CASES = {
    "simulate": ["simulate", "--batch", "8", "--seq-len", "64"],
    "compare": ["compare", "--batch", "8", "--seq-len", "64"],
    "dse": ["dse", "--limit", "4", "--batch", "8", "--seq-len", "64"],
    "sweep": ["sweep", "--limit", "4", "--batch", "8", "--seq-len", "64"],
    "zoo": ["zoo"],
    "reliability": ["reliability"],
    "reliability_sweep": ["reliability", "--sweep"],
    "reliability_metrics": ["reliability", "--metrics-out", "rel.csv"],
    "fleet": ["fleet", "--tiny", "--batch", "64", "--instances-per-host",
              "2", "--per-instance", "--trace-out", "f.json",
              "--metrics-out", "f.jsonl"],
    "fleet_list": ["fleet", "--list"],
    "fleet_all": ["fleet", "--scenario", "all", "--batch", "64"],
    "fleet_none": ["fleet", "--scenario", "none", "--tiny", "--batch", "32"],
    "monitor": ["monitor", "--tiny", "--batch", "64", "--instances-per-host",
                "2", "--dashboard-out", "d.txt", "--report-out", "r.txt",
                "--trace-out", "m.json"],
    "monitor_all": ["monitor", "--scenario", "all", "--tiny", "--batch", "64"],
    "trace": ["trace", "--workload", "schedule", "--batch", "2",
              "--seq-len", "64"],
    "analyze_json": ["analyze", "--scenario", "dse_point", "--format", "json"],
    "analyze_perfetto": ["analyze", "--scenario", "schedule", "--format",
                         "perfetto", "--out", "a.json"],
    "bench_list": ["bench", "--list"],
    "overview": [],
}

#: name -> {"stdout" or written file name: SHA-256}.  Recorded before the
#: CLI's subcommand table replaced its hand-written parsers; three outputs
#: changed on purpose then: ``dse`` became an alias of ``sweep`` (same
#: digest), ``monitor --scenario all`` prints the Monitoring experiment's
#: table, and the overview lists ``sweep (dse)`` on one row.
DIGESTS = {
    "simulate": {
        "stdout":
            "564f15a88b2e1892eef327555c43df6030d44d5e2d4dead1f272b602b61fe2c2",
    },
    "compare": {
        "stdout":
            "dd7db7eb6f0e036e0aab3f194e111ab35c35f56daf8f1733456568ac092307f5",
    },
    "dse": {
        "stdout":
            "2fe46ca8bf7dafa1589d98e04cb426107c1344ba733c83f9331b00d1ce52cd15",
    },
    "sweep": {
        "stdout":
            "2fe46ca8bf7dafa1589d98e04cb426107c1344ba733c83f9331b00d1ce52cd15",
    },
    "zoo": {
        "stdout":
            "9748a5bc89864d952ac7e7f75a12132caf62c7081f0d9e66223b4f0cd6da2a1d",
    },
    "reliability": {
        "stdout":
            "926a8022b428acf8b35af59ab17f887ed4b3a2613342ce01e1e630acf5148265",
    },
    "reliability_sweep": {
        "stdout":
            "4a096493cae440c577482ba39b6b72618667adb488b34e9227a5108c68d0fd68",
    },
    "reliability_metrics": {
        "stdout":
            "7f84826433c10086b2e6b803b4867017ba9f6a6f2c1d8d73a6e8773ff210968f",
        "rel.csv":
            "2728be46eafd530cb288de6fdf34c075e71f838ad04e4e2528527efb35ab1e11",
    },
    "fleet": {
        "stdout":
            "41be423e5be8e5f10b2761300dc969eea9b41326c2090ab66f81413d77738175",
        "f.json":
            "943a2178d93b8b543251afeb91e70867c672fc3c58d45b40cfb07d548a240e22",
        "f.jsonl":
            "f9881ae823d0a0391285fef1e45cb5352530f00b41af4a667b689729c18dbb3a",
    },
    "fleet_list": {
        "stdout":
            "c09d9a105566aed1bd8cc3f546b1115657b8eae82989c880f09f5012f0e43efb",
    },
    "fleet_all": {
        "stdout":
            "a2513f78586a47c56c5a9fdfee36bb4d1799db840b4642e27019f9b8a9f4fc48",
    },
    "fleet_none": {
        "stdout":
            "dfd52afbb5af37e8b1bab2e49aed20928039cfb7625c2923acc799fae32481cd",
    },
    "monitor": {
        "stdout":
            "9cae03b427ffb7f8d068ed491d35dae60d73261ea0e6da876ac4cabe20860222",
        "d.txt":
            "a764f711ddfc862abfd3bce8bb827329cf6a077eb76b86613f0c268861afd584",
        "m.json":
            "a66f86a430b5b65b3bb0d9e73158375c02875ece81a1b938814d96bed3be8455",
        "r.txt":
            "3e5e4c7c0a86a6a16fba7dfd2afbec043ff8788e7541809ceb39ad785bc0aac4",
    },
    "monitor_all": {
        "stdout":
            "f68f64c1b199960b132261a6117cf8e92787afbb3ba625b01523d98cbfa956a2",
    },
    "trace": {
        "stdout":
            "ebee31c7a2a9115547dfccc942d02efa62932d5fd7de1709642131dc12562051",
        "metrics.csv":
            "8ffd599285bd7a9b3673e08f0db6b7f12027763fae9bfb1fdfe23a111c2b348b",
        "metrics.jsonl":
            "e7967fbf8509bf9430e16474e87fe8bdcb56eeee3518f18323459df277a570be",
        "trace.json":
            "a40270bf28bf9bf7c7979b0df35fc18e0c0b5ad9f6741dd06e996ecf18fac1de",
    },
    "analyze_json": {
        "stdout":
            "8a676e31215ea490ae9003d93f6d1f26afe380f0ef7f1d22e20a638b6c81b839",
    },
    "analyze_perfetto": {
        "stdout":
            "63e017b08ca54bd1901e8ae7ccca8cdef550abb9ead56acb07c6956b4c084d03",
        "a.json":
            "2d05c9211db6429b2e84fc608741494f0eb1daa4211b6a5860ba170e453f91ed",
    },
    "bench_list": {
        "stdout":
            "718a6f4d090e67cd0434ee56a90bbaf1b32b6ce572513e65d127bdddae798f92",
    },
    "overview": {
        "stdout":
            "e97c990babb5902284e07f9d18434f75ab8324be619f5e2238b038fec8fcadfc",
    },
}

_WALL_TIME = re.compile(r"wall time: [0-9.]+s")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv, directory, monkeypatch):
    """Run one invocation in ``directory``; returns (stdout, digests)."""
    monkeypatch.chdir(directory)
    monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    clear_caches()
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(list(argv)) == 0
    stdout = _WALL_TIME.sub("wall time: <masked>s", buffer.getvalue())
    digests = {"stdout": _sha(stdout.encode("utf-8"))}
    for path in sorted(directory.iterdir()):
        digests[path.name] = _sha(path.read_bytes())
    return stdout, digests


@pytest.mark.parametrize("name", list(CASES))
def test_golden_digests(name, tmp_path, monkeypatch):
    _stdout, digests = run_cli(CASES[name], tmp_path, monkeypatch)
    assert digests == DIGESTS[name]


def test_dse_is_an_alias_of_sweep(tmp_path, monkeypatch):
    outputs = []
    for name in ("dse", "sweep"):
        (tmp_path / name).mkdir()
        stdout, _ = run_cli(CASES[name], tmp_path / name, monkeypatch)
        outputs.append(stdout)
    assert outputs[0] == outputs[1]


def test_monitor_all_prints_the_alert_timelines_experiment(tmp_path,
                                                           monkeypatch):
    from repro.experiments import alert_timelines

    stdout, _ = run_cli(CASES["monitor_all"], tmp_path, monkeypatch)
    expected = alert_timelines.run(batch=64, instances_per_host=4)
    assert stdout == alert_timelines.format_result(expected) + "\n"
