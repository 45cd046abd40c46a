"""Command-line interface for the ProSE reproduction.

    python -m repro.cli simulate --batch 128 --seq-len 512
    python -m repro.cli compare --baseline a100
    python -m repro.cli experiments --only "Figure 18"
    python -m repro.cli dse --limit 40
    python -m repro.cli binding
    python -m repro.cli embed MEYQKLVIV ACDEFGHIK
    python -m repro.cli zoo
    python -m repro.cli reliability --fault-rate 0.05 --seed 7
    python -m repro.cli fleet --scenario rack_power_loss --trace-out fleet.json
    python -m repro.cli monitor --scenario rack_power_loss
    python -m repro.cli trace --seq-len 128 --batch 8 --out trace.json
    python -m repro.cli bench --repeat 5 --compare BENCH_0001.json --check
    python -m repro.cli analyze --scenario dse_point --format ascii
    python -m repro.cli analyze --trace now.json --against before.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Tuple

from . import __version__
from .arch.config import HardwareConfig, table4_configs
from .core.engine import ProSEEngine
from .core.session import InferenceSession
from .model.zoo import describe, zoo_names

PROG = "repro"
DESCRIPTION = "ProSE (ASPLOS 2022) reproduction CLI"


def _hardware_by_name(name: str) -> HardwareConfig:
    for config in table4_configs():
        if config.name.lower() == name.lower():
            return config
    names = ", ".join(config.name for config in table4_configs())
    raise SystemExit(f"unknown hardware '{name}'; choose from: {names}")


def _write_trace(tracer, path: str, command: str,
                 metadata: Optional[Dict[str, object]] = None,
                 **tracks) -> Dict[str, int]:
    """Write ``tracer`` as a validated Perfetto trace; returns its counts.

    ``metadata`` follows the tool/version keys under ``otherData`` and
    ``tracks`` are :func:`~repro.telemetry.write_chrome_trace`'s extra
    tracks.  The counts are the validator's plus the ``events`` total.
    """
    from .telemetry import validate_chrome_trace, write_chrome_trace

    data = write_chrome_trace(
        tracer, path,
        metadata={"tool": f"repro.cli {command}", "version": __version__,
                  **(metadata or {})},
        **tracks)
    counts = validate_chrome_trace(data)
    counts["events"] = len(data["traceEvents"])
    return counts


def cmd_simulate(args: argparse.Namespace) -> int:
    engine = ProSEEngine(hardware=_hardware_by_name(args.hardware))
    report = engine.simulate(batch=args.batch, seq_len=args.seq_len,
                             threads=args.threads)
    print(f"configuration:    {report.config_name}")
    print(f"throughput:       {report.throughput:.1f} inferences/s")
    print(f"batch latency:    {report.latency_seconds * 1e3:.1f} ms")
    print(f"system power:     {report.system_power_watts:.1f} W")
    print(f"efficiency:       {report.efficiency:.2f} inf/s/W")
    print(f"bottleneck:       {report.schedule.bottleneck}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    engine = ProSEEngine(hardware=_hardware_by_name(args.hardware))
    devices = {"a100": engine.a100, "tpuv2": engine.tpu_v2,
               "tpuv3": engine.tpu_v3}
    names = [args.baseline] if args.baseline != "all" else list(devices)
    for name in names:
        comparison = engine.compare(devices[name], batch=args.batch,
                                    seq_len=args.seq_len)
        print(f"vs {comparison.baseline_name:6s}: "
              f"{comparison.speedup:5.2f}x speedup, "
              f"{comparison.efficiency_gain:7.1f}x power efficiency")
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments.runner import run_all

    run_all(only=args.only or None, workers=args.workers)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    import time

    from .dse.explorer import DesignSpaceExplorer
    from .dse.space import DEFAULT_PE_BUDGET
    from .parallel import (
        SweepExecutor,
        cache_stats,
        clear_caches,
        configure,
        record_cache_metrics,
    )
    from .telemetry import MetricsRegistry, Tracer

    if args.cache_dir:
        configure(disk_dir=args.cache_dir)
    if args.no_cache:
        configure(enabled=False)
    if args.clear_cache:
        clear_caches(disk=True)

    tracer = Tracer() if args.trace_out else None
    metrics = MetricsRegistry()
    executor = SweepExecutor(SweepExecutor.resolve_workers(args.workers))
    explorer = DesignSpaceExplorer(batch=args.batch, seq_len=args.seq_len)
    started = time.perf_counter()
    result = explorer.sweep(pe_budget=args.budget or DEFAULT_PE_BUDGET,
                            limit=args.limit, executor=executor,
                            tracer=tracer, metrics=metrics)
    elapsed = time.perf_counter() - started
    print(f"evaluated {len(result.points)} configurations")
    for label, point in (("BestPerf", result.best_perf),
                         ("MostPowerEfficient",
                          result.most_power_efficient),
                         ("MostAreaEfficient",
                          result.most_area_efficient)):
        print(f"{label:>20s}: {point.config.name} "
              f"runtime(norm)={point.normalized_runtime:.3f} "
              f"power={point.power_watts:.2f}W "
              f"area={point.area_mm2:.2f}mm2")
    print(f"wall time: {elapsed:.3f}s "
          f"({executor.workers} worker(s), mode={executor.last_mode})")
    worker_stats = executor.last_cache_stats
    parent_stats = cache_stats()
    for name in sorted(set(worker_stats) | set(parent_stats)):
        snap = worker_stats.get(name) or parent_stats.get(name)
        print(f"cache[{name}]: {snap.hits} hits, {snap.misses} misses, "
              f"{snap.disk_hits} disk hits")
    record_cache_metrics(metrics, worker_stats or None)
    if args.trace_out:
        counts = _write_trace(tracer, args.trace_out, "sweep",
                              {"workers": executor.workers,
                               "mode": executor.last_mode})
        print(f"trace: {counts['events']} events -> {args.trace_out}")
    return 0


def cmd_binding(args: argparse.Namespace) -> int:
    from .binding.experiment import run_binding_study
    from .experiments.binding_study import format_result

    print(format_result(run_binding_study(seed=args.seed)))
    return 0


def cmd_embed(args: argparse.Namespace) -> int:
    session = InferenceSession.small(functional=args.functional)
    result = session.embed(args.sequences)
    print(f"embedded {len(args.sequences)} sequences -> "
          f"{result.embeddings.shape[1]}-d features "
          f"({'functional datapath' if result.functional else 'reference'})")
    print(f"estimated ProSE latency: "
          f"{result.estimated_latency_seconds * 1e3:.3f} ms, energy: "
          f"{result.estimated_energy_joules * 1e3:.2f} mJ")
    for sequence, row in zip(args.sequences, result.embeddings):
        head = " ".join(f"{value:+.3f}" for value in row[:4])
        print(f"  {sequence[:20]:<22s} [{head} ...]")
    return 0


def _write_metrics_out(metrics, path: str) -> None:
    """Dump a registry to ``path``; the suffix picks CSV vs JSONL."""
    from .telemetry import write_metrics_csv, write_metrics_jsonl

    if path.endswith(".csv"):
        write_metrics_csv(metrics, path)
    else:
        write_metrics_jsonl(metrics, path)
    print(f"metrics:   {len(metrics)} series -> {path}")


def cmd_reliability(args: argparse.Namespace) -> int:
    from .experiments import fault_campaign
    from .telemetry import MetricsRegistry

    metrics = MetricsRegistry("reliability") if args.metrics_out else None
    if args.sweep:
        result = fault_campaign.run(seed=args.seed, workers=args.workers,
                                    metrics=metrics)
        print(fault_campaign.format_result(result))
    else:
        rate = args.fault_rate
        result = fault_campaign.run(fault_rates=(rate,), seed=args.seed,
                                    metrics=metrics)
        print(f"serving campaign @ fault rate {rate:g} (seed {args.seed}):")
        print(f"  {result.serving_reports[0].summary()}")
        scenario = fault_campaign.random_failure_scenario(
            rate, args.seed, instances=args.instances, batch=args.batch,
            seq_len=args.seq_len)
        print(f"{args.instances}-instance system @ instance-failure rate "
              f"{rate:g}:")
        print(f"  {scenario.reliability.summary()}")
        print(f"  survivors: {scenario.survivors}, energy "
              f"{scenario.energy_joules:.3f} J "
              f"(fault-free {scenario.fault_free_energy_joules:.3f} J)")
    if args.metrics_out:
        _write_metrics_out(metrics, args.metrics_out)
    return 0


def _reject_single_run_flags(args: argparse.Namespace,
                             dests: Tuple[str, ...]) -> None:
    """Exit naming each single-run flag a ``--scenario all`` run ignores."""
    defaults = build_parser().parse_args([args.command])
    ignored = [f"--{dest.replace('_', '-')}" for dest in dests
               if getattr(args, dest) != getattr(defaults, dest)]
    if ignored:
        raise SystemExit(f"{args.command} --scenario all runs the campaign "
                         f"and ignores: {', '.join(ignored)}")


def _fleet_shape(args: argparse.Namespace) -> Dict[str, object]:
    """The fleet-shape flags as ``build_fleet``/campaign keywords."""
    return {"racks": args.racks, "hosts_per_rack": args.hosts_per_rack,
            "instances_per_host": args.instances_per_host,
            "heterogeneous": args.heterogeneous}


def _fleet_model(args: argparse.Namespace):
    from .model.config import protein_bert_base, protein_bert_tiny

    return protein_bert_tiny() if args.tiny else protein_bert_base()


def cmd_fleet(args: argparse.Namespace) -> int:
    from .experiments import chaos_campaign
    from .fleet import SCENARIO_BUILDERS, build_fleet
    from .fleet.simulator import record_metrics
    from .reliability import DegradationPolicy
    from .telemetry import MetricsRegistry, Tracer

    if args.list:
        topology = build_fleet(**_fleet_shape(args))
        width = max(len(name) for name in SCENARIO_BUILDERS)
        for name, builder in SCENARIO_BUILDERS.items():
            print(f"{name:<{width}s}  {builder(topology).description}")
        return 0

    if args.scenario == "all":
        _reject_single_run_flags(args, (
            "hardware", "seq_len", "reference_batch", "link_transient_rate",
            "min_capacity", "breaker_failures", "per_instance", "trace_out",
            "metrics_out"))
        result = chaos_campaign.run(batch=args.batch, seed=args.seed,
                                    workers=args.workers,
                                    **_fleet_shape(args))
        print(chaos_campaign.format_result(result))
        return 0

    topology = build_fleet(hardware=_hardware_by_name(args.hardware),
                           **_fleet_shape(args))
    simulator, scenario = chaos_campaign.scenario_simulator(
        topology, args.scenario, args.seed, config=_fleet_model(args),
        link_transient_rate=args.link_transient_rate,
        policy=DegradationPolicy(
            min_capacity_fraction=args.min_capacity,
            circuit_breaker_failures=args.breaker_failures),
        seq_len=args.seq_len, reference_batch=args.reference_batch)
    tracer = Tracer() if args.trace_out else None
    report = simulator.run(batch=args.batch, scenario=scenario,
                           tracer=tracer)
    metrics = MetricsRegistry()
    record_metrics(report, metrics)

    print(f"fleet:     {report.topology}")
    if scenario is not None:
        print(f"scenario:  {scenario.name} — {scenario.description}")
    else:
        print("scenario:  none (clean run)")
    print(f"workload:  {report.batch} inferences, seq_len {args.seq_len}, "
          f"seed {args.seed}")
    print(f"makespan:  {report.makespan_seconds * 1e3:.3f} ms "
          f"(nominal {report.nominal_makespan_seconds * 1e3:.3f} ms, "
          f"availability {report.availability:.4f})")
    print(f"goodput:   {report.goodput:.1f} inf/s "
          f"({report.completed:.1f} done, {report.shed:.1f} shed)")
    print(f"recovery:  {report.failures} failure(s), "
          f"{report.detections} detection(s), {report.reshards} "
          f"re-shard(s) moving {report.resharded_inferences:.1f} inf "
          f"in {report.recovery_seconds * 1e3:.3f} ms")
    print(f"faults:    {report.link_retransmissions} link "
          f"retransmission(s), {report.brownouts} brownout(s)")
    print(f"energy:    {report.energy_joules:.3f} J")
    if args.per_instance:
        for outcome in report.per_instance:
            print(f"  {outcome.instance_id:<10s} {outcome.backend:<16s} "
                  f"alloc {outcome.allocated:7.2f}  "
                  f"done {outcome.completed:7.2f}  "
                  f"finish {outcome.finish_seconds * 1e3:8.3f} ms  "
                  f"{outcome.final_state}"
                  f"{'  [breaker open]' if outcome.breaker_open else ''}")
    if args.trace_out:
        counts = _write_trace(tracer, args.trace_out, "fleet",
                              {"scenario": report.scenario,
                               "batch": report.batch, "seed": args.seed},
                              metrics=metrics)
        print(f"trace:     {counts['spans']} spans, "
              f"{counts['instants']} instants, "
              f"{counts['counters']} counters, "
              f"{counts['processes']} processes -> {args.trace_out} "
              f"(open at https://ui.perfetto.dev)")
    if args.metrics_out:
        _write_metrics_out(metrics, args.metrics_out)
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    from .experiments import alert_timelines, chaos_campaign
    from .fleet import build_fleet
    from .monitor import fleet_monitor, format_alert_report, render_dashboard
    from .telemetry import Tracer

    if args.scenario == "all":
        _reject_single_run_flags(args, (
            "seq_len", "link_transient_rate", "samples", "width",
            "dashboard_out", "report_out", "trace_out"))
        result = alert_timelines.run(batch=args.batch, seed=args.seed,
                                     **_fleet_shape(args))
        print(alert_timelines.format_result(result))
        return 0

    simulator, scenario = chaos_campaign.scenario_simulator(
        build_fleet(**_fleet_shape(args)), args.scenario, args.seed,
        config=_fleet_model(args),
        link_transient_rate=args.link_transient_rate, seq_len=args.seq_len)
    monitor = fleet_monitor(samples=args.samples)
    tracer = Tracer() if args.trace_out else None
    report = simulator.run(batch=args.batch, scenario=scenario,
                           tracer=tracer, monitor=monitor)
    print(f"fleet:     {report.topology}")
    print(f"scenario:  {report.scenario}")
    print(f"workload:  {report.batch} inferences, seq_len {args.seq_len}, "
          f"seed {args.seed}")
    print(f"makespan:  {report.makespan_seconds * 1e3:.3f} ms "
          f"(availability {report.availability:.4f})")
    print(f"slo:       {report.slo.summary()}")
    print()
    dashboard = render_dashboard(
        monitor, width=args.width,
        series_names=[name for name in monitor.store.names()
                      if name.startswith("fleet/")])
    print(dashboard)
    if args.dashboard_out:
        with open(args.dashboard_out, "w", encoding="utf-8") as handle:
            handle.write(dashboard + "\n")
        print(f"dashboard -> {args.dashboard_out}")
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            handle.write(format_alert_report(monitor.report()) + "\n")
        print(f"alert report -> {args.report_out}")
    if args.trace_out:
        counts = _write_trace(tracer, args.trace_out, "monitor",
                              {"scenario": report.scenario,
                               "batch": report.batch, "seed": args.seed},
                              series=monitor.store)
        print(f"trace:     {counts['spans']} spans, "
              f"{counts['counters']} counter samples -> {args.trace_out} "
              f"(open at https://ui.perfetto.dev)")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from .telemetry import (
        analyze_trace,
        critical_path_spans,
        format_analysis,
        load_trace,
    )

    if bool(args.trace) == bool(args.scenario):
        raise SystemExit("analyze needs exactly one input: --trace "
                         "<exported.json> or --scenario <name>")
    if args.scenario:
        from .bench import trace_scenario

        try:
            tracer, _fingerprint = trace_scenario(args.scenario)
        except (KeyError, ValueError) as error:
            raise SystemExit(str(error)) from error
        source_label = f"scenario '{args.scenario}'"
    else:
        tracer = load_trace(args.trace)
        source_label = args.trace
    against = load_trace(args.against) if args.against else None

    try:
        analysis = analyze_trace(tracer, against=against, root=args.root)
    except ValueError as error:
        raise SystemExit(f"cannot analyze {source_label}: {error}") \
            from error

    if args.format == "json":
        text = analysis.to_json(top=args.top)
    elif args.format == "ascii":
        text = format_analysis(analysis, top=args.top)
    else:  # perfetto: re-export with the critical path as its own track
        out = args.out or "analysis.json"
        counts = _write_trace(
            tracer, out, "analyze",
            {"source": source_label,
             "critical_path_hops": len(analysis.path.hops)},
            extra_spans=critical_path_spans(analysis.path))
        print(f"{counts['spans']} spans on {counts['tracks']} tracks "
              f"(+1 critical-path track, {len(analysis.path.hops)} "
              f"hop(s)) -> {out} (open at https://ui.perfetto.dev)")
        print(format_analysis(analysis, top=args.top))
        return 0

    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"analysis -> {args.out}", file=sys.stderr)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .bench import (
        attribute_comparison,
        build_record,
        build_rollups,
        compare_records,
        format_attribution,
        format_comparison,
        load_records,
        next_bench_path,
        run_scenarios,
        scenario_names,
        scenarios,
        write_record,
    )
    from .parallel import SweepExecutor
    from .telemetry import MetricsRegistry, Tracer
    from .telemetry.profiling import format_hotspots, profile

    registry = scenarios()
    if args.list:
        width = max(len(name) for name in registry)
        for name, scenario in registry.items():
            tags = f" [{', '.join(scenario.tags)}]" if scenario.tags else ""
            print(f"{name:<{width}s}  {scenario.description}{tags}")
        return 0
    try:
        names = scenario_names(args.scenarios)
    except KeyError as error:
        raise SystemExit(str(error)) from error
    for flag in ("check", "attribute"):
        if getattr(args, flag) and not args.compare:
            raise SystemExit(f"--{flag} requires --compare BENCH_*.json "
                             "baseline(s)")

    executor = SweepExecutor(SweepExecutor.resolve_workers(args.workers))
    metrics = MetricsRegistry()
    timings = run_scenarios(names, repeat=args.repeat, executor=executor,
                            metrics=metrics)
    width = max(len(name) for name in names)
    for name in names:
        timing = timings[name]
        flag = "" if timing["stable"] else "  [unstable fingerprint]"
        print(f"{name:<{width}s}  median "
              f"{timing['median_seconds'] * 1e3:9.3f} ms  "
              f"[{timing['min_seconds'] * 1e3:9.3f}, "
              f"{timing['max_seconds'] * 1e3:9.3f}] ms  "
              f"x{timing['repeat']}{flag}")
    print(f"ran {len(names)} scenario(s) with {executor.workers} "
          f"worker(s), mode={executor.last_mode}")

    profiles = []
    if args.profile:
        tracer = Tracer()
        for name in names:
            scenario = registry[name]
            if scenario.setup is not None:
                scenario.setup()
            with profile(tracer, label=name) as report:
                with tracer.span(f"scenario:{name}", pid="bench"):
                    scenario.fn()
            profiles.append(report)
            print()
            print(format_hotspots(report, top=args.top))
        counts = _write_trace(tracer, args.profile_out, "bench",
                              {"scenarios": ",".join(names)},
                              profiles=profiles)
        print(f"profile trace: {counts['spans']} spans on "
              f"{counts['tracks']} tracks -> {args.profile_out} "
              f"(open at https://ui.perfetto.dev)")

    rollups = build_rollups(names) if args.rollups else None
    record = build_record(
        timings, repeat=args.repeat, metrics=metrics, rollups=rollups,
        extra={"executor": {"workers": executor.workers,
                            "mode": executor.last_mode}})
    out = args.out or next_bench_path(".")
    write_record(record, out)
    suffix = (f" (+{len(rollups)} span rollup(s))" if rollups else "")
    print(f"record -> {out}{suffix}")

    if args.compare:
        baselines = load_records(args.compare)
        comparison = compare_records(record, baselines,
                                     band_pct=args.band,
                                     min_delta_seconds=args.min_delta)
        print()
        print(format_comparison(comparison))
        if args.attribute:
            attributions = attribute_comparison(comparison, baselines)
            print()
            print(format_attribution(attributions, top=args.top))
        if args.check and not comparison.ok:
            return 1
    return 0


def cmd_zoo(args: argparse.Namespace) -> int:
    for name in zoo_names():
        print(describe(name))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from .model.config import protein_bert_base, protein_bert_tiny
    from .telemetry import (
        MetricsRegistry,
        Tracer,
        render_tracer,
        write_metrics_csv,
        write_metrics_jsonl,
    )

    tracer = Tracer()
    metrics = MetricsRegistry()
    hardware = _hardware_by_name(args.hardware)
    config = protein_bert_base()
    workloads = (("schedule", "system", "serving", "functional")
                 if args.workload == "all" else (args.workload,))

    if "schedule" in workloads:
        from .sched.orchestrator import Orchestrator

        result = Orchestrator(hardware).run(
            config, batch=args.batch, seq_len=args.seq_len,
            threads=args.threads, tracer=tracer, metrics=metrics,
            trace_pid="schedule")
        print(f"schedule: makespan {result.makespan_seconds * 1e3:.3f} ms, "
              f"bottleneck {result.bottleneck}")
    if "system" in workloads:
        from .system.multi import ProSESystem

        system = ProSESystem(hardware=hardware, instances=args.instances)
        report = system.simulate(
            config, batch=max(args.batch, args.instances),
            seq_len=args.seq_len, tracer=tracer, metrics=metrics)
        print(f"system: {report.instances} instances, "
              f"{report.throughput:.1f} inf/s")
    if "serving" in workloads:
        from .proteins.workloads import uniprot_like_workload
        from .system.serving import CampaignSimulator

        simulator = CampaignSimulator(model_config=config,
                                      hardware=hardware,
                                      max_batch=max(args.batch, 1))
        campaign = simulator.run_on_prose(
            uniprot_like_workload(count=args.sequences, seed=args.seed),
            tracer=tracer, metrics=metrics)
        print(f"serving: {campaign.sequences} sequences in "
              f"{campaign.total_seconds:.3f} s")
    if "functional" in workloads:
        import numpy as np

        from .arch.accelerated_model import AcceleratedProteinBert
        from .model.bert import ProteinBert

        tiny = protein_bert_tiny()
        accelerated = AcceleratedProteinBert(
            ProteinBert(tiny, seed=args.seed), tracer=tracer,
            metrics=metrics)
        rng = np.random.default_rng(args.seed)
        tokens = rng.integers(0, tiny.vocab_size,
                              size=(2, min(args.seq_len, 32)))
        accelerated.forward(tokens)
        tiles = metrics.get("functional/tiles")
        print(f"functional: {int(tiles.value)} GEMM tiles")

    counts = _write_trace(tracer, args.out, "trace",
                          {"workloads": list(workloads), "batch": args.batch,
                           "seq_len": args.seq_len},
                          metrics=metrics)
    write_metrics_csv(metrics, args.metrics_csv)
    write_metrics_jsonl(metrics, args.metrics_jsonl)
    print(f"trace: {counts['spans']} spans, {counts['instants']} instants, "
          f"{counts['processes']} processes -> {args.out} "
          f"(open at https://ui.perfetto.dev)")
    print(f"metrics: {len(metrics)} series -> {args.metrics_csv}, "
          f"{args.metrics_jsonl}")
    if args.ascii:
        print()
        print(render_tracer(tracer, width=args.width))
    return 0


# -- options -------------------------------------------------------------

def _add_workers(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument("--workers", type=int, default=None,
                        help=f"{what} (default $REPRO_SWEEP_WORKERS or 1)")


def _engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--hardware", default="BestPerf")
    parser.add_argument("--batch", type=int, default=128)
    parser.add_argument("--seq-len", type=int, default=512)


def _simulate_options(parser: argparse.ArgumentParser) -> None:
    _engine_options(parser)
    parser.add_argument("--threads", type=int, default=None)


def _compare_options(parser: argparse.ArgumentParser) -> None:
    _engine_options(parser)
    parser.add_argument("--baseline", default="all",
                        choices=["a100", "tpuv2", "tpuv3", "all"])


def _experiments_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("only", nargs="*",
                        help='experiment ids, e.g. "Figure 18"')
    _add_workers(parser, "fan experiments out over N processes")


def _sweep_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--batch", type=int, default=32)
    parser.add_argument("--seq-len", type=int, default=512)
    parser.add_argument("--limit", type=int, default=None,
                        help="evaluate only the first N configurations")
    parser.add_argument("--budget", type=int, default=None,
                        help="PE budget (default 16384)")
    _add_workers(parser, "evaluate configurations over N processes")
    parser.add_argument("--cache-dir", default=None,
                        help="on-disk cache directory (default "
                             "$REPRO_CACHE_DIR; unset disables the disk "
                             "layer)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the trace/schedule caches")
    parser.add_argument("--clear-cache", action="store_true",
                        help="empty the caches (including disk) first")
    parser.add_argument("--trace-out", default=None,
                        help="write a Perfetto trace of per-worker spans")


def _binding_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=2022)


def _embed_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("sequences", nargs="+")
    parser.add_argument("--functional", action="store_true",
                        help="run through the simulated bf16/LUT datapath")


def _reliability_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fault-rate", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--instances", type=int, default=4)
    parser.add_argument("--batch", type=int, default=32)
    parser.add_argument("--seq-len", type=int, default=128)
    parser.add_argument("--sweep", action="store_true",
                        help="sweep fault rates and print the "
                             "availability/goodput curve")
    _add_workers(parser, "fan --sweep rate points out over N processes")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="dump serving metrics per rate point "
                             "(suffix picks .csv or .jsonl; implies "
                             "serial instrumented runs)")


def _fleet_run_options(parser: argparse.ArgumentParser,
                       link_transient_rate: float) -> None:
    """Fleet shape, workload and fault flags shared by fleet/monitor."""
    parser.add_argument("--scenario", default="rack_power_loss",
                        help="chaos scenario name, 'none' (clean run), or "
                             "'all' (the campaign table; single-run "
                             "flags are rejected)")
    parser.add_argument("--racks", type=int, default=2)
    parser.add_argument("--hosts-per-rack", type=int, default=2)
    parser.add_argument("--instances-per-host", type=int, default=4)
    parser.add_argument("--heterogeneous", action="store_true",
                        help="mix calibrated A100/TPU baselines into the "
                             "fleet as schedulable capacity")
    parser.add_argument("--batch", type=int, default=256)
    parser.add_argument("--seq-len", type=int, default=128)
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--tiny", action="store_true",
                        help="use the tiny model config (fast smoke runs)")
    parser.add_argument("--link-transient-rate", type=float,
                        default=link_transient_rate,
                        help="background fabric transient probability per "
                             "dispatch")


def _fleet_options(parser: argparse.ArgumentParser) -> None:
    _fleet_run_options(parser, link_transient_rate=0.01)
    parser.add_argument("--list", action="store_true",
                        help="list chaos scenarios for this fleet and exit")
    parser.add_argument("--hardware", default="BestPerf",
                        help="ProSE configuration for prose-backed "
                             "instances")
    parser.add_argument("--reference-batch", type=int, default=8,
                        help="shard size used to calibrate backend rates")
    parser.add_argument("--min-capacity", type=float, default=0.25,
                        help="brownout floor as a fraction of nominal "
                             "capacity (0 disables load shedding)")
    parser.add_argument("--breaker-failures", type=int, default=3,
                        help="hard failures before the circuit breaker "
                             "quarantines an instance (0 disables)")
    parser.add_argument("--per-instance", action="store_true",
                        help="print the per-instance outcome table")
    parser.add_argument("--trace-out", default=None,
                        help="write the recovery timeline as a Perfetto "
                             "trace")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="dump fleet metrics (suffix picks .csv or "
                             ".jsonl)")
    _add_workers(parser, "fan --scenario all out over N processes")


def _monitor_options(parser: argparse.ArgumentParser) -> None:
    _fleet_run_options(parser, link_transient_rate=0.0)
    parser.add_argument("--samples", type=int, default=128,
                        help="monitor sample ticks across the nominal "
                             "horizon")
    parser.add_argument("--width", type=int, default=48,
                        help="sparkline width in characters")
    parser.add_argument("--dashboard-out", default=None, metavar="PATH",
                        help="also write the dashboard to a file")
    parser.add_argument("--report-out", default=None, metavar="PATH",
                        help="write the alert report to a file")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write a Perfetto trace with monitor "
                             "counter tracks")


def _trace_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default="schedule",
                        choices=["schedule", "system", "serving",
                                 "functional", "all"],
                        help="which instrumented path to trace")
    parser.add_argument("--hardware", default="BestPerf")
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--seq-len", type=int, default=128)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--instances", type=int, default=4,
                        help="instances for the system workload")
    parser.add_argument("--sequences", type=int, default=32,
                        help="library size for the serving workload")
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--out", default="trace.json",
                        help="Chrome-trace JSON output path")
    parser.add_argument("--metrics-csv", default="metrics.csv")
    parser.add_argument("--metrics-jsonl", default="metrics.jsonl")
    parser.add_argument("--ascii", action="store_true",
                        help="also print an ASCII timeline")
    parser.add_argument("--width", type=int, default=100,
                        help="ASCII timeline width")


def _bench_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenarios", default="all",
                        help="'all', a tag (e.g. 'fast'), or a "
                             "comma-separated scenario list")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timed executions per scenario "
                             "(median-of-N, default 5)")
    parser.add_argument("--out", default=None,
                        help="record path (default: next free "
                             "BENCH_<seq>.json in the current directory)")
    parser.add_argument("--compare", nargs="+", default=None,
                        metavar="BENCH_JSON",
                        help="prior record(s) to compare against")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero when any scenario regresses "
                             "beyond the band (requires --compare)")
    parser.add_argument("--band", type=float, default=25.0,
                        help="regression tolerance band in percent "
                             "(default 25)")
    parser.add_argument("--min-delta", type=float, default=0.0,
                        metavar="SECONDS",
                        help="absolute slowdown floor: a band breach "
                             "only fails when current - baseline also "
                             "exceeds this many seconds (default 0)")
    parser.add_argument("--profile", action="store_true",
                        help="re-run each scenario under cProfile and "
                             "print span-attributed hotspot tables")
    parser.add_argument("--profile-out", default="bench_profile.json",
                        help="Perfetto trace with hotspot tracks "
                             "(with --profile)")
    parser.add_argument("--top", type=int, default=50,
                        help="hotspot table rows per scenario "
                             "(default 50)")
    _add_workers(parser, "time scenarios in N forked processes")
    parser.add_argument("--list", action="store_true",
                        help="list registered scenarios and exit")
    parser.add_argument("--attribute", action="store_true",
                        help="after --compare, re-run regressed "
                             "scenarios with tracing and print a span "
                             "attribution table")
    parser.add_argument("--rollups", action="store_true",
                        help="embed span rollups for traceable scenarios "
                             "in the record (future --attribute runs "
                             "diff against them)")


def _analyze_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="JSON",
                        help="exported Chrome-trace JSON to analyze")
    parser.add_argument("--scenario", default=None,
                        help="instead of --trace: run this bench "
                             "scenario's traced variant and analyze it")
    parser.add_argument("--against", default=None, metavar="JSON",
                        help="baseline trace; adds a span-attributed "
                             "latency diff")
    parser.add_argument("--root", default=None,
                        help="anchor span name (default: the run/fleet "
                             "root span)")
    parser.add_argument("--top", type=int, default=10,
                        help="rows per table (default 10)")
    parser.add_argument("--format", default="ascii",
                        choices=["ascii", "json", "perfetto"],
                        help="ascii tables, canonical JSON, or a "
                             "Perfetto re-export with the critical "
                             "path highlighted on its own track")
    parser.add_argument("--out", default=None,
                        help="also write the report here (for "
                             "--format perfetto: the trace path, "
                             "default analysis.json)")


#: (name, aliases, help, handler, option builder) per subcommand; the
#: table drives both the parser registration and the no-args overview.
SUBCOMMANDS = (
    ("simulate", (), "cycle-level ProSE simulation",
     cmd_simulate, _simulate_options),
    ("compare", (), "compare vs a baseline", cmd_compare, _compare_options),
    ("experiments", (), "regenerate paper artifacts",
     cmd_experiments, _experiments_options),
    ("sweep", ("dse",), "parallel DSE sweep with shape-keyed memoization",
     cmd_sweep, _sweep_options),
    ("binding", (), "Section 2.2 binding-affinity study",
     cmd_binding, _binding_options),
    ("embed", (), "embed protein sequences", cmd_embed, _embed_options),
    ("zoo", (), "list registered model scales", cmd_zoo, None),
    ("reliability", (),
     "fault-injection campaign and degraded-mode accounting",
     cmd_reliability, _reliability_options),
    ("fleet", (),
     "fleet simulation: chaos scenarios over racks of instances",
     cmd_fleet, _fleet_options),
    ("monitor", (),
     "live monitoring: SLO burn-rate alerts and an ASCII dashboard over "
     "a chaos scenario", cmd_monitor, _monitor_options),
    ("trace", (),
     "run an instrumented workload; write a Perfetto trace and a "
     "metrics dump", cmd_trace, _trace_options),
    ("bench", (),
     "benchmark observatory: record BENCH_<seq>.json, compare against "
     "the trajectory, profile hotspots", cmd_bench, _bench_options),
    ("analyze", (),
     "trace analytics: critical path, utilization attribution, "
     "run-to-run regression diff", cmd_analyze, _analyze_options),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=PROG, description=DESCRIPTION)
    parser.add_argument("--version", action="version",
                        version=f"{PROG} {__version__}")
    sub = parser.add_subparsers(dest="command", required=False)
    for name, aliases, help_text, handler, add_options in SUBCOMMANDS:
        command = sub.add_parser(name, aliases=list(aliases),
                                 help=help_text)
        if add_options is not None:
            add_options(command)
        command.set_defaults(handler=handler)
    return parser


def _print_overview() -> None:
    """Subcommand list with one-line descriptions (no-args invocation)."""
    print(f"{PROG} {__version__} — {DESCRIPTION}")
    print()
    print("subcommands:")
    for name, aliases, help_text, _handler, _options in SUBCOMMANDS:
        label = f"{name} ({', '.join(aliases)})" if aliases else name
        print(f"  {label:<12s} {help_text}")
    print()
    print(f"run '{PROG} <subcommand> --help' for options")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command is None:
        _print_overview()
        return 0
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
