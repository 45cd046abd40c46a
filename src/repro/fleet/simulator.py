"""Deterministic fluid simulation of a chaos campaign over the fleet.

Generalizes :class:`~repro.system.multi.ProSESystem` (four instances,
one host, one failure class) to racks of heterogeneous hosts under
*correlated* failure scripts.  The execution model is fluid: each
instance drains its assigned inferences at its backend's calibrated
rate times the health monitor's capacity factor, and the simulation
advances from event to event (scripted chaos events, heartbeat
detections, warm-up completions, shard completions) in deterministic
order — no wall clock, no unordered containers, no hidden RNG state, so
a seeded run is bit-reproducible and independent of host load or sweep
worker count.

The recovery pipeline mirrors production incident anatomy:

1. an instance (or a whole rack) dies — its unfinished work is in
   limbo;
2. the heartbeat monitor notices after the missed-heartbeat window
   (the *detection latency* every recovery timeline pays);
3. the degradation-aware scheduler re-shards the lost work across the
   surviving capacity, paying fabric-tier transfer costs — unless the
   brownout floor triggers load-shedding, or too few survivors remain
   (outage: work waits for a scripted recovery, or is dropped);
4. survivors drain the extra work; the report's ``recovery_seconds``
   runs from the first failure to the last re-sharded inference.

Every phase is visible in the exported Perfetto trace: per-instance
``shard``/``recovery_shard`` spans, ``detection_window`` spans, and
instant events for failures, detections, re-shards, brownout sheds and
breaker trips.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..baselines.gpu import A100_MEASURED_POWER_WATTS, a100
from ..baselines.tpu import (
    TPUV2_POWER_WATTS,
    TPUV3_POWER_WATTS,
    tpu_v2,
    tpu_v3,
)
from ..model.config import BertConfig, protein_bert_base
from ..parallel.memo import cached_schedule
from ..physical.power import power_report
from ..reliability.faults import FaultModel
from ..reliability.policy import DegradationPolicy
from ..monitor.engine import Monitor, SloOutcome
from ..sched.host import HOST_POWER_WATTS
from ..telemetry import MetricsRegistry, TimeSeries, Tracer
from .health import HealthMonitor, HealthState, HeartbeatConfig
from .scenarios import (
    DEGRADE,
    FAIL,
    LINK_FLAP,
    RECOVER,
    UNDEGRADE,
    ChaosScenario,
    resolve_target,
)
from .scheduler import DegradationAwareScheduler, SharedPlan
from .topology import (
    GPU_A100,
    PROSE,
    TPU_V2,
    BackendSpec,
    FabricModel,
    FleetTopology,
    Instance,
)


@dataclass(frozen=True)
class InstanceOutcome:
    """One instance's campaign, as reported."""

    instance_id: str
    backend: str
    allocated: float
    completed: float
    finish_seconds: float
    final_state: str
    breaker_open: bool = False


@dataclass(frozen=True)
class FleetReport:
    """What a chaos campaign cost, fleet-wide.

    Attributes:
        scenario: chaos script name (``"none"`` for a clean run).
        topology: human-readable fleet shape.
        batch: inferences requested.
        completed: inferences delivered (fluid — partial progress on a
            later-killed instance counts for the part that streamed
            back).
        shed: inferences dropped by brownout load-shedding, outage, or
            an unplaceable backlog.
        makespan_seconds: end-to-end wall-clock of the campaign.
        nominal_makespan_seconds: the same workload on a fully healthy
            fleet — the availability reference.
        reshards: re-shard assignments performed by the scheduler.
        resharded_inferences: work moved by those re-shards.
        recovery_seconds: first failure to last re-sharded completion;
            0.0 when nothing failed (or nothing needed moving).
        failures: hard instance failures observed.
        detections: heartbeat detections that found lost work.
        brownouts: plans made below the capacity floor.
        link_retransmissions: fabric transfers repeated on transients.
        energy_joules: accelerator busy-energy plus host power for the
            full makespan.
        per_instance: per-instance outcomes, topology order.
        transitions: the health state-machine history.
        slo: service-impact summary (alerts fired, worst burn rate,
            budget remaining) when the run carried a live monitor;
            None otherwise.
    """

    scenario: str
    topology: str
    batch: int
    completed: float
    shed: float
    makespan_seconds: float
    nominal_makespan_seconds: float
    reshards: int
    resharded_inferences: float
    recovery_seconds: float
    failures: int
    detections: int
    brownouts: int
    link_retransmissions: int
    energy_joules: float
    per_instance: Tuple[InstanceOutcome, ...]
    transitions: Tuple[object, ...] = ()
    slo: Optional[SloOutcome] = None

    @property
    def goodput(self) -> float:
        """Delivered inferences per second of degraded wall-clock."""
        if self.makespan_seconds <= 0.0:
            return 0.0
        return self.completed / self.makespan_seconds

    @property
    def availability(self) -> float:
        """Nominal over degraded makespan, capped at 1.0."""
        if self.makespan_seconds <= 0.0:
            return 1.0
        return min(1.0, self.nominal_makespan_seconds
                   / self.makespan_seconds)

    @property
    def completion_fraction(self) -> float:
        return self.completed / self.batch if self.batch else 1.0

    def summary(self) -> str:
        text = (f"goodput={self.goodput:.1f} inf/s "
                f"availability={self.availability:.4f} "
                f"completed={self.completed:.1f}/{self.batch} "
                f"shed={self.shed:.1f} reshards={self.reshards} "
                f"recovery={self.recovery_seconds * 1e3:.3f} ms "
                f"failures={self.failures} "
                f"energy={self.energy_joules:.2f} J")
        if self.slo is not None:
            text += (f" alerts={self.slo.alerts} pages={self.slo.pages} "
                     f"worst_burn={self.slo.worst_burn_rate:.1f} "
                     f"budget_left={self.slo.budget_remaining:.1%}")
        return text


@dataclass
class _Sim:
    """Mutable per-instance execution state."""

    instance: Instance
    rate: float                 # backend inferences/second at full health
    power_watts: float
    remaining: float = 0.0
    segment_start: float = 0.0  # when the current constant-rate run began
    eff_rate: float = 0.0       # rate x capacity factor for this segment
    allocated: float = 0.0
    completed: float = 0.0
    active_seconds: float = 0.0
    lost: float = 0.0           # in-limbo work awaiting detection
    finish_seconds: float = 0.0
    has_recovery_work: bool = False
    rate_series: Optional[TimeSeries] = None  # monitored runs only

    @property
    def running(self) -> bool:
        return self.remaining > 0.0 and self.eff_rate > 0.0

    @property
    def projected_finish(self) -> float:
        return self.segment_start + self.remaining / self.eff_rate

    @property
    def category(self) -> str:
        """Trace category of the work draining: re-sharded or original."""
        return "recovery" if self.has_recovery_work else "shard"

    @property
    def track(self) -> Tuple[str, str]:
        """The (pid, tid) trace track of this instance."""
        return self.instance.host_id, f"s{self.instance.slot}"

    def progress(self, t: float) -> None:
        """Fold the current constant-rate segment forward to ``t``."""
        if self.remaining <= 0.0 or self.eff_rate <= 0.0:
            self.segment_start = max(self.segment_start, t)
            return
        if t <= self.segment_start:
            return
        dt = t - self.segment_start
        done = min(self.remaining, self.eff_rate * dt)
        self.remaining -= done
        self.completed += done
        self.active_seconds += dt
        self.segment_start = t


class FleetSimulator:
    """Runs one workload over a fleet under an optional chaos script.

    Args:
        topology: the fleet shape and backend mix.
        model_config: the encoder scored fleet-wide (default
            Protein-BERT-base).
        policy: degradation policy — detection scale, outage floor,
            brownout floor, shed fraction, circuit breaker.
        fault_model: seeded random-fault source layered *under* any
            scripted scenario: spontaneous instance failures and
            fabric transients.  Inert by default.
        seq_len: tokens per inference.
        reference_batch: shard size used to calibrate per-backend
            rates (memoized through the shape-keyed schedule cache).
    """

    def __init__(self, topology: FleetTopology,
                 model_config: Optional[BertConfig] = None,
                 policy: Optional[DegradationPolicy] = None,
                 fault_model: Optional[FaultModel] = None,
                 seq_len: int = 128,
                 reference_batch: int = 8) -> None:
        if seq_len <= 0:
            raise ValueError("seq_len must be positive")
        if reference_batch <= 0:
            raise ValueError("reference_batch must be positive")
        self.topology = topology
        self.model_config = model_config or protein_bert_base()
        self.policy = policy or DegradationPolicy()
        self.heartbeat = HeartbeatConfig()
        self.fabric = FabricModel()
        self.fault_model = fault_model or FaultModel()
        self.seq_len = seq_len
        self.reference_batch = reference_batch
        #: Tokens in (int32) plus the pooled embedding out (fp32).
        self.payload_bytes = float(
            4 * seq_len + 4 * self.model_config.hidden_size)
        calibrated: Dict[str, Tuple[float, float]] = {}
        for instance in topology.instances:
            if instance.backend.label not in calibrated:
                calibrated[instance.backend.label] = self._calibrate(
                    instance.backend)
        #: (inferences/second, watts) of each instance's backend, in
        #: topology order.
        self._backends = tuple(calibrated[instance.backend.label]
                               for instance in topology.instances)
        #: Full-health fleet rate, the denominator of every sampled
        #: capacity fraction.
        self._total_rate = sum(rate for rate, _ in self._backends)
        self.scheduler = DegradationAwareScheduler(
            topology,
            {instance.instance_id: rate for instance, (rate, _)
             in zip(topology.instances, self._backends)},
            self.fabric, self.policy, self.payload_bytes)

    def _calibrate(self, spec: BackendSpec) -> Tuple[float, float]:
        """Nominal inferences/second and power draw of one backend."""
        if spec.kind == PROSE:
            schedule = cached_schedule(
                spec.hardware, self.model_config,
                batch=self.reference_batch, seq_len=self.seq_len)
            return (self.reference_batch / schedule.makespan_seconds,
                    power_report(spec.hardware).accelerator_power_w)
        device = {GPU_A100: a100, TPU_V2: tpu_v2}.get(spec.kind, tpu_v3)()
        power = {GPU_A100: A100_MEASURED_POWER_WATTS,
                 TPU_V2: TPUV2_POWER_WATTS}.get(spec.kind, TPUV3_POWER_WATTS)
        return device.throughput(self.model_config,
                                 batch=self.reference_batch,
                                 seq_len=self.seq_len), power

    # -- nominal schedule ------------------------------------------------

    def _healthy_plan(self, batch: int) -> Tuple[HealthMonitor, SharedPlan]:
        """A fresh health monitor and the nominal plan made on it."""
        health = HealthMonitor(
            [inst.instance_id for inst in self.topology.instances],
            heartbeat=self.heartbeat,
            circuit_breaker_failures=self.policy.circuit_breaker_failures)
        plan = self.scheduler.plan(float(batch), health)
        assert plan is not None  # a fresh monitor always has capacity
        return health, plan

    def _makespan(self, plan: SharedPlan) -> float:
        """Fleet makespan of a plan drained at full health."""
        rates = self.scheduler.rates
        return max(
            assignment.dispatch_seconds
            + assignment.amount / rates[assignment.instance_id]
            for assignment in plan.assignments)

    def nominal_plan(self, batch: int) -> SharedPlan:
        """The full-health shard plan (the homogeneous reference)."""
        return self._healthy_plan(batch)[1]

    def nominal_makespan(self, batch: int) -> float:
        """Fleet makespan of the nominal plan on a healthy fleet."""
        return self._makespan(self.nominal_plan(batch))

    # -- simulation ------------------------------------------------------

    def run(self, batch: int = 256,
            scenario: Optional[ChaosScenario] = None,
            tracer: Optional[Tracer] = None,
            monitor: Optional[Monitor] = None) -> FleetReport:
        """Simulate ``batch`` inferences under the chaos script.

        With no scenario and an inert fault model the event loop
        processes only shard completions, and every per-instance finish
        reproduces the nominal plan bit-identically.

        A live ``monitor`` (see :func:`repro.monitor.fleet_monitor`)
        samples fleet series at its tick cadence through read-only
        "sample" events on the same queue — it observes the simulation
        without touching its state, so every simulated number is
        bit-identical with and without one.  :func:`record_metrics`
        turns the returned report into registry metrics.
        """
        if batch <= 0:
            raise ValueError("batch must be positive")
        self.fault_model.reset()
        # Everyone starts healthy, so the run dispatches the nominal plan.
        health, plan = self._healthy_plan(batch)
        run = _Run(self, health, self._makespan(plan), tracer, monitor)
        run.script(scenario)
        run.dispatch(plan)
        run.loop()
        return run.report(batch, scenario)


def record_metrics(report: FleetReport, metrics: MetricsRegistry) -> None:
    """Record a fleet run's tallies, gauges and instance finish times."""
    for name in ("completed", "shed", "reshards", "failures", "detections",
                 "brownouts", "link_retransmissions"):
        metrics.counter(f"fleet/{name}").inc(getattr(report, name))
    for name in ("goodput", "availability", "recovery_seconds",
                 "makespan_seconds", "energy_joules"):
        metrics.gauge(f"fleet/{name}").set(getattr(report, name))
    histogram = metrics.histogram("fleet/instance_finish_seconds")
    for outcome in report.per_instance:
        if outcome.finish_seconds > 0.0:
            histogram.observe(outcome.finish_seconds)


class _Run:
    """The state of one :meth:`FleetSimulator.run`, shared by its handlers.

    Each event handler is a method taking ``(t, instance_id, payload)``,
    dispatched through the module-level :data:`_ACTIONS` table; the run
    keeps no bound methods of itself, so it holds no reference cycle and
    is freed as soon as :meth:`FleetSimulator.run` returns.
    """

    def __init__(self, sim: FleetSimulator, health: HealthMonitor,
                 nominal: float, tracer: Optional[Tracer],
                 monitor: Optional[Monitor]) -> None:
        self.sim = sim
        self.health = health
        self.nominal = nominal
        self.detection = sim.heartbeat.detection_seconds(nominal)
        self.warmup = sim.heartbeat.warmup_seconds(nominal)
        self.tracer = tracer
        self.monitor = monitor
        self.events = _EventQueue()
        self.states: Dict[str, _Sim] = {
            instance.instance_id: _Sim(instance=instance, rate=rate,
                                       power_watts=power)
            for instance, (rate, power) in zip(sim.topology.instances,
                                               sim._backends)}
        # Run-wide tallies.
        self.failures = self.detections = self.brownouts = 0
        self.reshards = self.retransmissions = 0
        self.resharded = self.shed = self.backlog = 0.0
        self.first_failure: Optional[float] = None
        self.last_recovery_finish = 0.0

    # -- setup and teardown ----------------------------------------------

    def script(self, scenario: Optional[ChaosScenario]) -> None:
        """Queue the chaos script, spontaneous failures and first tick."""
        sim, nominal = self.sim, self.nominal
        for event in (scenario.events if scenario is not None else ()):
            for instance in resolve_target(sim.topology, event.target):
                self.events.push(event.at_fraction * nominal, event.action,
                                 instance.instance_id, event)
        for index in sim.fault_model.failed_instances(
                len(sim.topology.instances)):
            instance = sim.topology.instances[index]
            at = sim.fault_model.failure_fraction() * nominal
            self.events.push(at, FAIL, instance.instance_id, None)
        if self.monitor is not None:
            self.monitor.begin(nominal)
            for instance_id, state in self.states.items():
                state.rate_series = self.monitor.store.series(
                    f"instance/{instance_id}/rate")
            self.events.push(self.monitor.sample_interval, "sample", "",
                             None)

    def dispatch(self, plan: SharedPlan) -> None:
        """Ship the nominal plan's shards at time zero."""
        for assignment in plan.assignments:
            state = self.states[assignment.instance_id]
            dispatch = assignment.dispatch_seconds
            dispatch += self._link_retry_seconds(state, assignment.amount)
            state.allocated = assignment.amount
            state.remaining = assignment.amount
            state.segment_start = dispatch
            self._refresh_rate(state)
            if self.tracer is not None:
                pid, tid = state.track
                self.tracer.add_span(
                    "dispatch", 0.0, dispatch, pid=pid, tid=tid,
                    category="fabric",
                    tier=self.sim.topology.tier_of(state.instance).value,
                    amount=assignment.amount)

    def report(self, batch: int,
               scenario: Optional[ChaosScenario]) -> FleetReport:
        """Close the books and trace the campaign overview."""
        sim, states, health = self.sim, self.states, self.health
        makespan = max((state.finish_seconds for state in states.values()),
                       default=0.0)
        slo_outcome: Optional[SloOutcome] = None
        if self.monitor is not None:
            # Close the books at the makespan (or the last tick, if a
            # queued sample already ran past it) so the final budget
            # accounts for the whole run.
            final_t = max(makespan, self.monitor.last_tick)
            self._sample(final_t)
            slo_outcome = self.monitor.finalize(final_t).outcome()
        completed = sum(state.completed for state in states.values())
        recovery_seconds = 0.0
        if self.first_failure is not None and self.reshards:
            recovery_seconds = max(
                0.0, self.last_recovery_finish - self.first_failure)
        energy = HOST_POWER_WATTS * sim.topology.hosts * makespan
        for state in states.values():
            energy += state.power_watts * state.active_seconds
        outcomes = tuple(
            InstanceOutcome(
                instance_id=instance_id, backend=state.instance.backend.label,
                allocated=state.allocated, completed=state.completed,
                finish_seconds=state.finish_seconds,
                final_state=health.state(instance_id).value,
                breaker_open=health.breaker_open(instance_id))
            for instance_id, state in states.items())
        report = FleetReport(
            scenario=scenario.name if scenario is not None else "none",
            topology=sim.topology.describe(), batch=batch,
            completed=completed, shed=self.shed,
            makespan_seconds=makespan, nominal_makespan_seconds=self.nominal,
            reshards=self.reshards, resharded_inferences=self.resharded,
            recovery_seconds=recovery_seconds, failures=self.failures,
            detections=self.detections, brownouts=self.brownouts,
            link_retransmissions=self.retransmissions,
            energy_joules=energy, per_instance=outcomes,
            transitions=tuple(health.transitions), slo=slo_outcome)
        if self.tracer is not None:
            self.tracer.add_span(
                "fleet_campaign", 0.0, makespan, pid="fleet",
                tid="overview", category="fleet", scenario=report.scenario,
                batch=batch, goodput=report.goodput, reshards=self.reshards,
                nominal_seconds=self.nominal, completed=completed,
                failures=self.failures)
            for instance_id in health.open_breakers():
                pid, tid = states[instance_id].track
                self.tracer.instant("breaker_open", makespan, pid=pid,
                                    tid=tid, category="fault")
        return report

    # -- event loop ------------------------------------------------------

    def loop(self) -> None:
        """Advance from event to event until nothing runs or is queued."""
        events = self.events
        while True:
            next_finish, finishing = self._next_finish()
            next_event = events.peek_time()
            if next_finish is None and next_event is None:
                break
            if next_event is None or (next_finish is not None
                                      and next_finish <= next_event):
                self._complete(next_finish, finishing)
                continue
            for action, instance_id, payload in events.pop_at(next_event):
                _ACTIONS[action](self, next_event, instance_id, payload)
        # Anything still waiting for capacity that never returned is lost.
        self.shed += self.backlog
        self.backlog = 0.0

    def _next_finish(self) -> Tuple[Optional[float], List[_Sim]]:
        """The earliest projected finish and the instances due then."""
        next_finish: Optional[float] = None
        finishing: List[_Sim] = []
        for state in self.states.values():
            if not state.running:
                continue
            finish = state.projected_finish
            if next_finish is None or finish < next_finish:
                next_finish, finishing = finish, [state]
            elif finish == next_finish:
                finishing.append(state)
        return next_finish, finishing

    def _complete(self, t: float, finishing: List[_Sim]) -> None:
        for state in finishing:
            self._close_segment(state, t)
            state.remaining = 0.0
            state.finish_seconds = t
            if state.has_recovery_work:
                self.last_recovery_finish = max(self.last_recovery_finish,
                                                t)

    # -- shared steps ----------------------------------------------------

    def _link_retry_seconds(self, state: _Sim, amount: float) -> float:
        """Fabric retransmission delay drawn from the fault model."""
        sim = self.sim
        if sim.fault_model.rates.link_transient <= 0.0:
            return 0.0
        errors = sim.fault_model.link_transients(int(amount))
        if not errors:
            return 0.0
        self.retransmissions += errors
        tier = sim.topology.tier_of(state.instance)
        return errors * sim.fabric.transfer_seconds(sim.payload_bytes, tier)

    def _close_segment(self, state: _Sim, t: float) -> None:
        """Progress to ``t`` and emit the execution span just finished."""
        start = state.segment_start
        state.progress(t)
        if self.tracer is not None and t > start:
            pid, tid = state.track
            category = state.category
            self.tracer.add_span(
                "recovery_shard" if category == "recovery" else "shard",
                start, t, pid=pid, tid=tid, category=category,
                rate=state.eff_rate, backend=state.instance.backend.label)

    def _refresh_rate(self, state: _Sim) -> None:
        state.eff_rate = state.rate * self.health.capacity_factor(
            state.instance.instance_id)

    def _transition(self, t: float, state: _Sim, to_state: HealthState,
                    reason: str,
                    degraded_factor: Optional[float] = None) -> None:
        """Move a health state machine and trace it on its track."""
        instance_id = state.instance.instance_id
        self.health.transition(instance_id, to_state, t, reason=reason,
                               degraded_factor=degraded_factor)
        if self.tracer is not None:
            pid, tid = state.track
            self.tracer.instant(
                f"health:{to_state.value}", t, pid=pid, tid=tid,
                category="health",
                from_state=self.health.transitions[-1].from_state.value,
                reason=reason)

    def _rerate(self, t: float, instance_id: str, to_state: HealthState,
                reason: str, degraded_factor: Optional[float] = None
                ) -> None:
        """Drain at the old rate to ``t``, transition, drain at the new."""
        state = self.states[instance_id]
        state.progress(t)
        self._transition(t, state, to_state, reason, degraded_factor)
        self._refresh_rate(state)

    def _reshard(self, t: float, work: float,
                 exclude: Tuple[str, ...] = ()) -> None:
        tracer = self.tracer
        if self.health.alive_count() < self.sim.policy.min_survivors:
            self.backlog += work
            if tracer is not None:
                tracer.instant("outage", t, pid="fleet", tid="scheduler",
                               category="fault", backlog=work)
            return
        plan = self.sim.scheduler.plan(work, self.health, exclude=exclude,
                                       integral=False)
        if plan is None or not plan.assignments:
            self.backlog += work
            return
        if plan.brownout:
            self.brownouts += 1
            self.shed += plan.shed
            if tracer is not None:
                tracer.instant(
                    "brownout_shed", t, pid="fleet", tid="scheduler",
                    category="fault", shed=plan.shed,
                    capacity_fraction=plan.capacity_fraction)
        self.reshards += len(plan.assignments)
        self.resharded += plan.total
        if tracer is not None:
            tracer.instant("reshard", t, pid="fleet", tid="scheduler",
                           category="recovery", work=plan.total,
                           targets=len(plan.assignments))
        for assignment in plan.assignments:
            target = self.states[assignment.instance_id]
            target.has_recovery_work = True
            target.allocated += assignment.amount
            if target.running:
                # Transfer overlaps the work already draining.
                target.progress(t)
                target.remaining += assignment.amount
            else:
                dispatch = assignment.dispatch_seconds
                dispatch += self._link_retry_seconds(target,
                                                     assignment.amount)
                target.remaining = assignment.amount
                target.segment_start = t + dispatch
                self._refresh_rate(target)
                if tracer is not None:
                    pid, tid = target.track
                    tracer.add_span(
                        "dispatch", t, t + dispatch, pid=pid, tid=tid,
                        category="fabric", amount=assignment.amount,
                        tier=self.sim.topology.tier_of(
                            target.instance).value)

    def _sample(self, t: float) -> bool:
        """Read-only monitoring tick; True while any instance drains.

        It must never call :meth:`_Sim.progress`, which folds segments
        and would perturb floating-point accumulation order: in-flight
        work is estimated from each instance's current constant-rate
        segment, exact under the fluid model.  A tick costs one pass
        over the instances (rate series resolved in :meth:`script`).
        """
        monitor, health = self.monitor, self.health
        total_rate = self.sim._total_rate
        healthy_rate = sum(
            state.rate * health.capacity_factor(instance_id)
            for instance_id, state in self.states.items())
        capacity = healthy_rate / total_rate if total_rate > 0.0 else 0.0
        completed = 0.0
        busy = False
        for state in self.states.values():
            completed += state.completed
            if state.running:
                busy = True
                if t > state.segment_start:
                    completed += min(
                        state.remaining,
                        state.eff_rate * (t - state.segment_start))
            state.rate_series.append(t, state.eff_rate)
        monitor.record(t, "fleet/capacity_fraction", capacity)
        monitor.record(t, "fleet/completed", completed)
        monitor.record(t, "fleet/alive", float(health.alive_count()))
        monitor.record(t, "fleet/shed", self.shed)
        monitor.record(t, "fleet/backlog", self.backlog)
        monitor.record(t, "fleet/failures", float(self.failures))
        monitor.record(t, "fleet/reshards", float(self.reshards))
        monitor.record(t, "fleet/link_retransmissions",
                       float(self.retransmissions))
        monitor.slo_event(t, "availability", good=capacity,
                          bad=1.0 - capacity)
        monitor.evaluate(t)
        return busy

    # -- handlers: (t, instance_id, payload) -----------------------------

    def _on_fail(self, t: float, instance_id: str, payload) -> None:
        """A hard failure; ``payload`` is the chaos event, if scripted."""
        if self.health.state(instance_id) is HealthState.DEAD:
            return
        if self.monitor is not None:
            self.monitor.mark(t, "fault", instance_id)
        state = self.states[instance_id]
        self._close_segment(state, t)
        state.lost = state.remaining
        state.remaining = 0.0
        state.eff_rate = 0.0
        state.finish_seconds = max(state.finish_seconds, t)
        self._transition(t, state, HealthState.DEAD,
                         "scripted" if payload is not None
                         else "spontaneous")
        self.failures += 1
        if self.first_failure is None:
            self.first_failure = t
        self.events.push(t + self.detection, "detect", instance_id, None)
        if self.tracer is not None:
            pid, tid = state.track
            self.tracer.instant("instance_failure", t, pid=pid, tid=tid,
                                category="fault", lost=state.lost)
            self.tracer.add_span("detection_window", t, t + self.detection,
                                 pid=pid, tid=tid, category="fault")

    def _on_detect(self, t: float, instance_id: str, payload) -> None:
        if self.monitor is not None:
            self.monitor.mark(t, "detection", instance_id)
        state = self.states[instance_id]
        lost, state.lost = state.lost, 0.0
        if self.tracer is not None:
            self.tracer.instant("failure_detected", t, pid="fleet",
                                tid="scheduler", category="fault",
                                instance=instance_id, lost=lost)
        if lost <= 0.0:
            return
        self.detections += 1
        self._reshard(t, lost, exclude=(instance_id,))

    def _on_recover(self, t: float, instance_id: str, payload) -> None:
        if self.health.state(instance_id) is not HealthState.DEAD:
            return
        state = self.states[instance_id]
        self._transition(t, state, HealthState.RECOVERING, "restart")
        self.events.push(t + self.warmup, "warmup_done", instance_id, None)
        self._refresh_rate(state)
        if self.backlog > 0.0:
            backlog, self.backlog = self.backlog, 0.0
            self._reshard(t, backlog)

    def _on_warmup_done(self, t: float, instance_id: str, payload) -> None:
        if self.health.state(instance_id) is HealthState.RECOVERING:
            self._rerate(t, instance_id, HealthState.HEALTHY,
                         "warmup_complete")

    def _on_degrade(self, t: float, instance_id: str, payload) -> None:
        """A scripted slowdown by the chaos event's ``factor``."""
        if self.health.state(instance_id) not in (HealthState.HEALTHY,
                                                   HealthState.DEGRADED):
            return
        if self.monitor is not None:
            self.monitor.mark(t, "fault", instance_id)
        self._rerate(t, instance_id, HealthState.DEGRADED, "scripted",
                     payload.factor)

    def _on_undegrade(self, t: float, instance_id: str, payload) -> None:
        if self.health.state(instance_id) is HealthState.DEGRADED:
            self._rerate(t, instance_id, HealthState.HEALTHY, "undegrade")

    def _on_flap(self, t: float, instance_id: str, payload) -> None:
        """A link flap: the chaos event's ``factor`` for its duration."""
        if self.monitor is not None:
            self.monitor.mark(t, "fault", instance_id)
        state = self.states[instance_id]
        state.progress(t)
        self.health.set_link_factor(instance_id, payload.factor)
        if self.health.state(instance_id) is HealthState.HEALTHY:
            # The flap shows as degraded health; capacity loss comes
            # from the link factor alone (degraded_factor=1.0).
            self._transition(t, state, HealthState.DEGRADED, "link_flap",
                             1.0)
        self._refresh_rate(state)
        end = t + payload.duration_fraction * self.nominal
        self.events.push(end, "flap_end", instance_id, None)
        if self.tracer is not None:
            pid, tid = state.track
            self.tracer.add_span("link_flap", t, end, pid=pid, tid=tid,
                                 category="fault", factor=payload.factor)

    def _on_flap_end(self, t: float, instance_id: str, payload) -> None:
        state = self.states[instance_id]
        state.progress(t)
        self.health.set_link_factor(instance_id, 1.0)
        if self.health.state(instance_id) is HealthState.DEGRADED:
            last = self.health.transitions_of(instance_id)[-1]
            if last.reason == "link_flap":
                self._transition(t, state, HealthState.HEALTHY,
                                 "link_flap_cleared")
        self._refresh_rate(state)

    def _on_sample(self, t: float, instance_id: str, payload) -> None:
        """A monitoring tick; the next is queued while anything is left."""
        if self._sample(t) or self.events.peek_time() is not None:
            self.events.push(t + self.monitor.sample_interval, "sample",
                             "", None)


#: Event action -> handler, each called as ``handler(run, t, instance_id,
#: payload)``; the payload is the scripted chaos event, if any.
_ACTIONS = {
    FAIL: _Run._on_fail,
    "detect": _Run._on_detect,
    RECOVER: _Run._on_recover,
    "warmup_done": _Run._on_warmup_done,
    DEGRADE: _Run._on_degrade,
    UNDEGRADE: _Run._on_undegrade,
    LINK_FLAP: _Run._on_flap,
    "flap_end": _Run._on_flap_end,
    "sample": _Run._on_sample,
}


class _EventQueue:
    """Deterministic time-ordered queue with FIFO tie-breaking."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, str, str, object]] = []
        self._seq = 0

    def push(self, time: float, action: str, instance_id: str,
             payload: object) -> None:
        heapq.heappush(self._heap,
                       (time, self._seq, action, instance_id, payload))
        self._seq += 1

    def peek_time(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def pop_at(self, time: float) -> List[Tuple[str, str, object]]:
        """All events scheduled exactly at ``time``, in push order."""
        batch = []
        while self._heap and self._heap[0][0] == time:
            _, _, action, instance_id, payload = heapq.heappop(self._heap)
            batch.append((action, instance_id, payload))
        return batch
