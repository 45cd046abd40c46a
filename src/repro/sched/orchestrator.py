"""Multithreaded orchestration and scheduling of dataflows onto ProSE.

Implements the paper's Figure 8 execution model: the inference batch is
split across software threads; each thread walks its own copy of the
per-inference dataflow DAG *serially* (a thread dispatches one dataflow at
a time), and parallelism comes from many threads running on the collection
of heterogeneous systolic arrays concurrently.

Every dataflow dispatch performs a host-accelerator transfer through one of
three per-type I/O buffers guarded by mutex locks; transfers therefore
serialize per array type, and the per-dispatch lock overhead grows with the
thread count — the contention/bubble trade-off that makes 32 threads the
sweet spot.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..arch.config import HardwareConfig
from ..arch.interconnect import DISPATCH_OVERHEAD_SECONDS
from ..arch.timing import dataflow_signature, time_dataflow
from ..dataflow.graph import DataflowGraph, HostTask
from ..dataflow.patterns import ArrayType, Dataflow
from ..model.config import BertConfig
from ..telemetry import MetricsRegistry, Tracer
from .events import Pool, Timeline, reserve_pair
from .host import HostModel

#: Default growth of per-dispatch mutex overhead per extra thread.
CONTENTION_COEFFICIENT = 0.06


@dataclass(frozen=True)
class TaskRecord:
    """One scheduled task, for timeline inspection (Figure 8 rendering)."""

    thread: int
    name: str
    kind: str
    ready: float
    start: float
    end: float
    resource: str


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of simulating one batched inference on ProSE.

    Attributes:
        makespan_seconds: time from first dispatch to last completion.
        batch: inferences completed.
        seq_len: tokens per inference.
        threads: software threads used.
        array_utilization: busy fraction per array type over the makespan.
        channel_utilization: link-channel busy fraction per array type.
        host_utilization: host pool busy fraction.
        total_stream_bytes: host-link traffic for the whole batch.
        total_dispatches: host-accelerator transfers performed.
        contention_seconds: total mutex/dispatch overhead incurred.
        kind_compute_seconds: accelerator compute demand per dataflow
            kind (where ProSE itself spends array time).
        task_log: per-task schedule records when requested.
    """

    makespan_seconds: float
    batch: int
    seq_len: int
    threads: int
    array_utilization: Dict[ArrayType, float]
    channel_utilization: Dict[ArrayType, float]
    host_utilization: float
    total_stream_bytes: int
    total_dispatches: int
    contention_seconds: float
    kind_compute_seconds: Dict[str, float] = field(default_factory=dict)
    task_log: Optional[Tuple[TaskRecord, ...]] = None

    @property
    def throughput(self) -> float:
        """Inferences per second."""
        return self.batch / self.makespan_seconds

    @property
    def latency_seconds(self) -> float:
        """Batch latency (the makespan)."""
        return self.makespan_seconds

    #: Tie-break priority of resource classes in :attr:`bottleneck`.
    BOTTLENECK_PRIORITY = ("array", "link", "host")

    @property
    def bottleneck(self) -> str:
        """Which resource class limits this schedule.

        Exact utilization ties are broken deterministically: by resource
        class (array > link > host), then alphabetically within a class.
        """
        rank = {cls: i for i, cls in enumerate(self.BOTTLENECK_PRIORITY)}
        candidates = [("host", self.host_utilization)]
        for array_type, value in self.array_utilization.items():
            candidates.append((f"array:{array_type.value}", value))
        for array_type, value in self.channel_utilization.items():
            candidates.append((f"link:{array_type.value}", value))
        return min(candidates,
                   key=lambda item: (-item[1],
                                     rank[item[0].split(":")[0]],
                                     item[0]))[0]

    @property
    def compute_bound(self) -> bool:
        """True when an array group, not a link channel, is the bottleneck."""
        return self.bottleneck.startswith("array")


class Orchestrator:
    """Cycle-level schedule simulator for a ProSE instance.

    Args:
        hardware: the accelerator configuration to simulate.
        host: host CPU model.
        contention_coefficient: per-extra-thread growth of dispatch cost.
        dispatch_overhead: base per-transfer software overhead in seconds.
    """

    def __init__(self, hardware: HardwareConfig,
                 host: Optional[HostModel] = None,
                 contention_coefficient: float = CONTENTION_COEFFICIENT,
                 dispatch_overhead: float = DISPATCH_OVERHEAD_SECONDS
                 ) -> None:
        self.hardware = hardware
        self.host = host or HostModel()
        self.contention_coefficient = contention_coefficient
        self.dispatch_overhead = dispatch_overhead

    # ------------------------------------------------------------------

    def run(self, config: BertConfig, batch: int, seq_len: int,
            threads: Optional[int] = None,
            record_tasks: bool = False,
            graph_builder=None,
            tracer: Optional[Tracer] = None,
            metrics: Optional[MetricsRegistry] = None,
            trace_pid: str = "instance0",
            trace_offset: float = 0.0) -> ScheduleResult:
        """Simulate one batched inference.

        Args:
            config: the Protein BERT model.
            batch: inference batch size (split across threads).
            seq_len: input sequence length in tokens.
            threads: override the hardware's thread count (Figure 8 sweep).
            record_tasks: keep a per-task log (Gantt rendering).
            graph_builder: callable ``sub_batch -> DataflowGraph``
                overriding the default encoder graph — e.g. the
                encoder-decoder graph of
                :func:`repro.dataflow.seq2seq.build_seq2seq_graph`.
            tracer: optional span tracer.  When given, every task gets a
                span on its thread track and every Timeline reservation
                (array segment, link-channel hold, host slot) gets a
                span on its resource track.  Placement is the same code
                either way: it only records each segment's start, end
                and host slot, and the spans are built from those
                records after the task is placed, so the schedule is
                bit-identical with or without a tracer.
            metrics: optional registry accumulating dispatch counters,
                byte counters, per-task latency histograms, and final
                occupancy gauges.
            trace_pid: Perfetto process label for emitted spans (the
                multi-instance system passes ``instanceN``).
            trace_offset: seconds added to every emitted timestamp, so
                a run can be placed on an enclosing clock (recovery
                shards, campaign batches).

        Returns:
            A :class:`ScheduleResult` with makespan and utilizations.
        """
        if batch <= 0:
            raise ValueError(f"batch must be positive, got {batch}")
        if seq_len <= 0:
            raise ValueError(f"seq_len must be positive, got {seq_len}")
        if threads is not None and threads <= 0:
            raise ValueError(f"threads must be positive, got {threads}")
        thread_count = threads if threads is not None else self.hardware.threads
        thread_count = max(1, min(thread_count, batch))

        # Split the batch across threads as evenly as possible.
        base, extra = divmod(batch, thread_count)
        sub_batches = [base + (1 if t < extra else 0)
                       for t in range(thread_count)]
        if graph_builder is None:
            # Lazy import: parallel.memo reaches back into this module.
            from ..parallel.memo import cached_build_graph

            def graph_builder(sub: int) -> DataflowGraph:
                return cached_build_graph(config, batch=sub,
                                          seq_len=seq_len)
        graphs: Dict[int, DataflowGraph] = {}
        for sub in set(sub_batches):
            graphs[sub] = graph_builder(sub)

        arrays: Dict[ArrayType, List[Tuple[Timeline, int]]] = {
            t: [] for t in ArrayType}
        for group in self.hardware.groups:
            for index in range(group.count):
                arrays[group.array_type].append(
                    (Timeline(name=f"{group.label}[{index}]"), group.size))
        channels: Dict[ArrayType, Timeline] = {
            t: Timeline(name=f"channel:{t.value}") for t in ArrayType}
        host_pool = Pool.with_servers("host", self.host.slots)

        per_dispatch = self.dispatch_overhead * (
            1.0 + self.contention_coefficient * (thread_count - 1))
        # Placement plans are built once per *content* signature (shape/op
        # tuple), not per node, so the identical encoder layers share one;
        # each node object then caches its plan by identity.  A float plan
        # is an interned HostTask duration.
        signature_plans: Dict[Tuple, Tuple] = {}
        node_plans: Dict[int, object] = {}
        members = arrays
        if self.hardware.pooled:
            # Homogeneous baseline: every array carries both LUT kinds and
            # can execute any dataflow (Table 2's 64×64 GELU+Exp row).
            pooled = [m for group in arrays.values() for m in group]
            members = {t: pooled for t in ArrayType}
        total_bytes = 0
        total_dispatches = 0
        contention_seconds = 0.0
        kind_compute: Dict[str, float] = {}
        makespan = 0.0

        # Earliest-ready-first list scheduling across threads.  Each thread
        # walks its own graph serially (Figure 8); at every step the thread
        # whose next dataflow becomes ready soonest dispatches next, which
        # is how the mutex-guarded I/O buffers hand out work in practice.
        finishes: List[List[float]] = [[0.0] * len(graphs[sub])
                                       for sub in sub_batches]
        # Per-thread node tuples and lengths, hoisted out of the loop so
        # the per-dispatch accesses are plain tuple/list indexing.
        thread_nodes = [graphs[sub].nodes for sub in sub_batches]
        thread_node_counts = [len(nodes) for nodes in thread_nodes]
        pointers = [0] * thread_count
        task_log: List[TaskRecord] = []
        # Per-segment (start, end, host slot) records of the task being
        # placed; only kept when tracing.
        segment_log: Optional[List[Tuple]] = [] if tracer is not None else None
        heap = [(0.0, t) for t in range(thread_count)]
        heapq.heapify(heap)
        while heap:
            ready, thread_index = heapq.heappop(heap)
            sub = sub_batches[thread_index]
            nodes = thread_nodes[thread_index]
            node_index = pointers[thread_index]
            node = nodes[node_index]
            finish = finishes[thread_index]
            # The popped key *is* the ready time: deps live in the same
            # thread's graph and the thread walks it serially in index
            # order, so every dep had its final finish time (and the
            # thread its final clock) when the key was pushed.
            plan = node_plans.get(id(node))
            if plan is None:
                if isinstance(node, HostTask):
                    # float() normalizes sum()'s int 0 for op-less tasks:
                    # a float plan *is* the type tag for the host branch.
                    plan = float(self.host.task_seconds(node.ops))
                else:
                    signature = dataflow_signature(node)
                    plan = signature_plans.get(signature)
                    if plan is None:
                        array_type = node.array_type
                        plan = self._plan(node, members[array_type],
                                          channels[array_type], per_dispatch)
                        signature_plans[signature] = plan
                node_plans[id(node)] = plan
            if type(plan) is float:
                start, end, server = host_pool.reserve_named(ready, plan)
                resource_label = "host"
                kind_label = "host"
                if tracer is not None:
                    tracer.add_span(
                        node.name, trace_offset + start, trace_offset + end,
                        pid=trace_pid, tid=server, category="host",
                        ops=len(node.ops), flops=node.flops)
            else:
                start, end, candidate = self._place(ready, plan, host_pool,
                                                    segment_log)
                resource_label = candidate[0].name
                kind_label = plan[1]
                timing = candidate[2]
                if tracer is not None:
                    self._trace_segments(
                        tracer, node, sub, node_index, plan[0], candidate,
                        segment_log, trace_pid, trace_offset)
                    segment_log.clear()
                total_bytes += timing.total_stream_bytes
                accel_segments = timing.accel_segments
                total_dispatches += accel_segments
                contention_seconds += per_dispatch * accel_segments
                kind_compute[kind_label] = (
                    kind_compute.get(kind_label, 0.0)
                    + timing.accel_compute_seconds)
            if record_tasks:
                task_log.append(TaskRecord(
                    thread=thread_index, name=node.name, kind=kind_label,
                    ready=ready, start=start, end=end,
                    resource=resource_label))
            if tracer is not None:
                tracer.add_span(
                    node.name, trace_offset + start, trace_offset + end,
                    pid=trace_pid, tid=f"thread{thread_index:02d}",
                    category="task", kind=kind_label,
                    resource=resource_label, sub_batch=sub,
                    ready=ready, node=node_index)
            if metrics is not None:
                metrics.histogram("sched/task_seconds").observe(end - start)
            finish[node_index] = end
            if end > makespan:
                makespan = end
            next_index = node_index + 1
            pointers[thread_index] = next_index
            if next_index < thread_node_counts[thread_index]:
                next_node = nodes[next_index]
                # max(dep finishes, thread clock); `end` is the clock, and
                # it never loses a tie, matching the old max(...) exactly.
                next_ready = end
                for dep in next_node.deps:
                    dep_finish = finish[dep]
                    if dep_finish > next_ready:
                        next_ready = dep_finish
                heapq.heappush(heap, (next_ready, thread_index))

        array_util = {}
        for array_type, members in arrays.items():
            busy = sum(timeline.busy_seconds for timeline, _ in members)
            array_util[array_type] = (busy / (makespan * len(members))
                                      if members and makespan > 0 else 0.0)
        channel_util = {t: channels[t].utilization(makespan)
                        for t in ArrayType}
        result = ScheduleResult(
            makespan_seconds=makespan,
            batch=batch,
            seq_len=seq_len,
            threads=thread_count,
            array_utilization=array_util,
            channel_utilization=channel_util,
            host_utilization=host_pool.utilization(makespan),
            total_stream_bytes=total_bytes,
            total_dispatches=total_dispatches,
            contention_seconds=contention_seconds,
            kind_compute_seconds=kind_compute,
            task_log=tuple(task_log) if record_tasks else None)
        if tracer is not None:
            # The run span carries the resource inventory (idle arrays
            # emit no spans, so the trace alone cannot recover the
            # utilization denominators) and the schedule's own verdict,
            # so trace analytics can both recompute and cross-check the
            # bottleneck attribution (repro.telemetry.analyze).
            inventory = {f"arrays_{t.value.lower()}": len(arrays[t])
                         for t in ArrayType}
            tracer.add_span(
                "orchestrator.run", trace_offset, trace_offset + makespan,
                pid=trace_pid, tid="schedule", category="run",
                batch=batch, seq_len=seq_len, threads=thread_count,
                dispatches=total_dispatches,
                stream_bytes=total_bytes,
                host_slots=self.host.slots,
                bottleneck=result.bottleneck, **inventory)
        if metrics is not None:
            reservations = (
                sum(t.reservations for ms in arrays.values() for t, _ in ms)
                + sum(t.reservations for t in channels.values())
                + sum(s.reservations for s in host_pool.servers))
            metrics.counter("sched/reservations").inc(reservations)
            metrics.counter("sched/dispatches").inc(total_dispatches)
            metrics.counter("sched/stream_bytes").inc(total_bytes)
            metrics.counter("sched/contention_seconds").inc(
                contention_seconds)
            metrics.counter("sched/inferences").inc(batch)
            metrics.gauge("sched/makespan_seconds").set(makespan)
            metrics.gauge("sched/host_utilization").set(
                host_pool.utilization(makespan))
            for array_type in ArrayType:
                metrics.gauge(
                    f"sched/array_occupancy/{array_type.value}").set(
                        array_util[array_type])
                metrics.gauge(
                    f"sched/link_utilization/{array_type.value}").set(
                        channel_util[array_type])
        return result

    # ------------------------------------------------------------------

    def _plan(self, dataflow: Dataflow,
              members: List[Tuple[Timeline, int]], channel: Timeline,
              per_dispatch: float) -> Tuple:
        """Everything about placing ``dataflow`` that is fixed for the run.

        Returns ``(channel, kind label, shortest duration, candidates)``,
        one candidate ``(timeline, size, timing, duration, segments)`` per
        member array, where members of one size share a :meth:`_timing`.
        """
        if not members:
            raise ValueError(
                f"no {dataflow.array_type.value}-Type arrays provisioned")
        bandwidth = self.hardware.type_bandwidth(dataflow.array_type)
        by_size: Dict[int, Tuple] = {}
        candidates = []
        for timeline, size in members:
            if size not in by_size:
                by_size[size] = self._timing(dataflow, size, bandwidth,
                                             per_dispatch)
            candidates.append((timeline, size) + by_size[size])
        shortest = min(candidate[3] for candidate in candidates)
        return (channel, dataflow.kind.value, shortest, tuple(candidates))

    @staticmethod
    def _place(ready: float, plan: Tuple, host_pool: Pool,
               segment_log: Optional[List[Tuple]]
               ) -> Tuple[float, float, Tuple]:
        """Place one dispatch of ``plan`` on the array that finishes it
        earliest.

        Ties go to the first candidate, except that the first one able to
        start at ``ready`` with the shortest duration is taken at once:
        nothing can finish before it.  Each accelerator segment then holds
        the type's link channel and the array from one common start (the
        stream feeds the array directly; there is no local scratchpad), and
        host segments take the earliest host slot.  When ``segment_log`` is
        given, every segment appends ``(start, end, host slot or None)``.

        Returns:
            (start, end, chosen candidate) of the placed dataflow.
        """
        channel, _kind, shortest, candidates = plan
        best = candidates[0]
        best_finish = float("inf")
        for candidate in candidates:
            duration = candidate[3]
            fit = candidate[0].next_fit(ready, duration)
            if fit == ready and duration == shortest:
                best = candidate
                break
            finish = fit + duration
            if finish < best_finish:
                best, best_finish = candidate, finish
        timeline = best[0]
        clock = ready
        first_start: Optional[float] = None
        for is_host, hold, duration in best[4]:
            if is_host:
                start, clock, server = host_pool.reserve_named(clock, hold)
            else:
                start = reserve_pair(clock, channel, hold, timeline, duration)
                clock = start + duration
                server = None
                if first_start is None:
                    first_start = start
            if segment_log is not None:
                segment_log.append((start, clock, server))
        return (first_start if first_start is not None else ready, clock,
                best)

    @staticmethod
    def _trace_segments(tracer: Tracer, dataflow: Dataflow, sub: int,
                        node_index: int, channel: Timeline,
                        candidate: Tuple, segment_log: List[Tuple],
                        trace_pid: str, trace_offset: float) -> None:
        """Emit one span per reservation :meth:`_place` logged: array holds
        on the array's track (category ``exec``), channel holds on the link
        track (``stream``), host-side segments on the chosen host slot's
        track (``host``)."""
        timeline, size, timing, _duration, segments = candidate
        array_type = dataflow.array_type.value
        for index, (segment, (is_host, hold, _), (start, end, server)) in \
                enumerate(zip(timing.segments, segments, segment_log)):
            if is_host:
                tracer.add_span(
                    f"{dataflow.name}:host{index}",
                    trace_offset + start, trace_offset + end,
                    pid=trace_pid, tid=server, category="host",
                    sub_batch=sub, node=node_index)
                continue
            tracer.add_span(
                f"{dataflow.name}:xfer{index}",
                trace_offset + start, trace_offset + start + hold,
                pid=trace_pid, tid=channel.name, category="stream",
                bytes=segment.stream_bytes, sub_batch=sub, node=node_index,
                array_type=array_type)
            tracer.add_span(
                f"{dataflow.name}:seg{index}",
                trace_offset + start, trace_offset + end,
                pid=trace_pid, tid=timeline.name, category="exec",
                compute_seconds=segment.compute_seconds, array_size=size,
                sub_batch=sub, node=node_index, array_type=array_type)

    def _timing(self, dataflow: Dataflow, size: int, bandwidth: float,
                per_dispatch: float) -> Tuple:
        """``(timing, accelerator duration, segments)`` of ``dataflow`` on
        a ``size`` array, each segment folded to ``(is_host, hold,
        duration)``.

        The mutex-guarded per-type I/O buffer serializes each dispatch on
        the channel: lock acquisition plus transfer setup (``per_dispatch``,
        growing with thread contention), then the stream itself.  A host
        segment holds a host slot for its compute time.
        """
        timing = time_dataflow(
            dataflow, size, self.hardware,
            host_elementwise_throughput=self.host.elementwise_throughput)
        segments = []
        for segment in timing.segments:
            if segment.resource == "host":
                segments.append((True, segment.compute_seconds, 0.0))
                continue
            stream_seconds = (segment.stream_bytes / bandwidth
                              if bandwidth > 0 else 0.0)
            segments.append((
                False, per_dispatch + stream_seconds,
                max(segment.compute_seconds, stream_seconds)
                + per_dispatch))
        return timing, timing.accel_compute_seconds, tuple(segments)
