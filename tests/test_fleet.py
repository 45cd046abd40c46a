"""Tests for the fleet simulator: topology, health, scheduling, chaos."""

import gc
import hashlib
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    BackendSpec,
    ChaosEvent,
    ChaosScenario,
    DegradationAwareScheduler,
    FabricModel,
    FleetSimulator,
    FleetTopology,
    HealthMonitor,
    HealthState,
    HeartbeatConfig,
    Instance,
    LinkTier,
    build_fleet,
    build_scenario,
    resolve_target,
)
from repro.fleet.health import _ALLOWED
from repro.fleet import simulator as simulator_module
from repro.fleet.simulator import record_metrics
from repro.model.config import protein_bert_tiny
from repro.monitor import fleet_monitor
from repro.reliability import (
    DegradationPolicy,
    FaultModel,
    FaultRates,
)
from repro.telemetry import MetricsRegistry, Tracer, to_chrome_trace

TINY = protein_bert_tiny()


def reference_breaker_open(monitor, instance_id):
    """The circuit-breaker test, from the record's raw fields."""
    threshold = monitor.circuit_breaker_failures
    return (threshold > 0
            and monitor._records[instance_id].hard_failures >= threshold)


def reference_capacity_factor(monitor, instance_id):
    """The capacity formula as it was before the monitor stored it:
    recomputed from the record's raw fields on every query.

    Kept verbatim as the parity reference for the stored value."""
    record = monitor._records[instance_id]
    if record.state is HealthState.DEAD or reference_breaker_open(
            monitor, instance_id):
        return 0.0
    if record.state is HealthState.RECOVERING:
        base = monitor.heartbeat.recovering_capacity
    elif record.state is HealthState.DEGRADED:
        base = record.degraded_factor
    else:
        base = 1.0
    return base * record.link_factor


HEALTH_IDS = ("a", "b", "c")

#: One step: (instance, action, successor pick, factor).  ``transition``
#: takes a legal successor, ``illegal`` one the state machine refuses,
#: ``link`` sets a link factor (None clears it), ``bad_link`` an
#: out-of-range one.
health_steps = st.lists(st.tuples(
    st.sampled_from(HEALTH_IDS),
    st.sampled_from(("transition", "transition", "illegal", "link",
                     "bad_link")),
    st.integers(0, 3),
    st.one_of(st.none(), st.floats(0.01, 1.0))), max_size=40)


def tiny_simulator(topology=None, **kwargs):
    kwargs.setdefault("model_config", TINY)
    kwargs.setdefault("seq_len", 64)
    kwargs.setdefault("reference_batch", 4)
    return FleetSimulator(topology or build_fleet(
        racks=2, hosts_per_rack=2, instances_per_host=2), **kwargs)


class TestTopology:
    def test_build_fleet_shape_and_ids(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=3)
        assert topology.racks == 2
        assert topology.hosts == 4
        assert len(topology.instances) == 12
        assert topology.instances[0].instance_id == "r0h0s0"
        assert topology.by_id("r1h1s2").rack == 1

    def test_by_id_finds_every_instance(self):
        topology = build_fleet(racks=2, hosts_per_rack=3,
                               instances_per_host=2, heterogeneous=True)
        for instance in topology.instances:
            assert topology.by_id(instance.instance_id) is instance
        with pytest.raises(KeyError) as excinfo:
            topology.by_id("r9h9s9")
        assert excinfo.value.args == ("no instance 'r9h9s9' in topology",)

    def test_cached_ids_keep_value_semantics(self):
        first, second = Instance(1, 0, 2), Instance(1, 0, 2)
        assert first.instance_id == "r1h0s2" and first.host_id == "r1h0"
        assert first == second and hash(first) == hash(second)
        topology = FleetTopology(instances=(second, Instance(0, 0, 0)))
        clone = pickle.loads(pickle.dumps(topology))
        assert clone == topology
        assert clone.by_id("r1h0s2") == first

    def test_fabric_tiers_from_coordinator(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=1)
        tiers = {instance.instance_id: topology.tier_of(instance)
                 for instance in topology.instances}
        assert tiers["r0h0s0"] is LinkTier.NVLINK
        assert tiers["r0h1s0"] is LinkTier.INTRA_RACK
        assert tiers["r1h0s0"] is LinkTier.INTER_RACK
        assert tiers["r1h1s0"] is LinkTier.INTER_RACK

    def test_transfer_cost_ordering(self):
        fabric = FabricModel()
        payload = 1e6
        assert (fabric.transfer_seconds(payload, LinkTier.NVLINK)
                < fabric.transfer_seconds(payload, LinkTier.INTRA_RACK)
                < fabric.transfer_seconds(payload, LinkTier.INTER_RACK))

    def test_duplicate_positions_rejected(self):
        instance = Instance(rack=0, host=0, slot=0)
        with pytest.raises(ValueError):
            FleetTopology(instances=(instance, Instance(rack=0, host=0,
                                                        slot=0)))

    def test_backend_validation(self):
        with pytest.raises(ValueError):
            BackendSpec(kind="quantum")
        with pytest.raises(ValueError):
            BackendSpec(kind="a100",
                        hardware=BackendSpec().hardware)
        assert BackendSpec().hardware is not None  # prose auto-fills

    def test_heterogeneous_fleet_mixes_baselines(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=2, heterogeneous=True)
        labels = {instance.backend.label for instance in topology.instances}
        assert any(label.startswith("prose:") for label in labels)
        assert "a100" in labels
        assert "tpuv3" in labels
        assert "a100" in topology.describe()


class TestHealthMonitor:
    def monitor(self, **kwargs):
        return HealthMonitor(["a", "b", "c"], **kwargs)

    def test_starts_healthy_at_full_capacity(self):
        monitor = self.monitor()
        assert monitor.state("a") is HealthState.HEALTHY
        assert monitor.capacity_factor("a") == 1.0
        assert monitor.alive_count() == 3

    def test_lifecycle_and_capacity_factors(self):
        monitor = self.monitor(heartbeat=HeartbeatConfig(
            recovering_capacity=0.5))
        monitor.transition("a", HealthState.DEGRADED, 1.0,
                           degraded_factor=0.25)
        assert monitor.capacity_factor("a") == 0.25
        monitor.transition("a", HealthState.DEAD, 2.0)
        assert monitor.capacity_factor("a") == 0.0
        assert monitor.alive_count() == 2
        monitor.transition("a", HealthState.RECOVERING, 3.0)
        assert monitor.capacity_factor("a") == 0.5
        monitor.transition("a", HealthState.HEALTHY, 4.0)
        assert monitor.capacity_factor("a") == 1.0
        states = [t.to_state for t in monitor.transitions_of("a")]
        assert states == [HealthState.DEGRADED, HealthState.DEAD,
                          HealthState.RECOVERING, HealthState.HEALTHY]

    def test_illegal_transitions_rejected(self):
        monitor = self.monitor()
        with pytest.raises(ValueError):
            monitor.transition("a", HealthState.RECOVERING, 1.0)
        monitor.transition("a", HealthState.DEAD, 1.0)
        with pytest.raises(ValueError):
            monitor.transition("a", HealthState.HEALTHY, 2.0)

    def test_link_factor_multiplies(self):
        monitor = self.monitor()
        monitor.set_link_factor("b", 0.4)
        assert monitor.capacity_factor("b") == 0.4
        monitor.transition("b", HealthState.DEGRADED, 1.0,
                           degraded_factor=0.5)
        assert monitor.capacity_factor("b") == pytest.approx(0.2)
        with pytest.raises(ValueError):
            monitor.set_link_factor("b", 0.0)

    def test_circuit_breaker_quarantines_flapper(self):
        monitor = self.monitor(circuit_breaker_failures=2)
        for _ in range(2):
            monitor.transition("c", HealthState.DEAD, 1.0)
            monitor.transition("c", HealthState.RECOVERING, 2.0)
            monitor.transition("c", HealthState.HEALTHY, 3.0)
        assert monitor.breaker_open("c")
        assert monitor.capacity_factor("c") == 0.0
        assert monitor.open_breakers() == ("c",)
        assert monitor.alive_count() == 2

    def assert_matches_reference(self, monitor):
        for instance_id in HEALTH_IDS:
            expected = reference_capacity_factor(monitor, instance_id)
            assert monitor.capacity_factor(instance_id) == expected
            assert monitor.schedulable(instance_id) == (expected > 0.0)
            assert monitor.breaker_open(instance_id) \
                == reference_breaker_open(monitor, instance_id)
        assert monitor.alive_count() == sum(
            1 for instance_id in HEALTH_IDS
            if reference_capacity_factor(monitor, instance_id) > 0.0)

    @settings(max_examples=200, deadline=None)
    @given(breaker=st.integers(0, 3), recovering=st.floats(0.01, 1.0),
           degraded=st.floats(0.01, 1.0), steps=health_steps)
    def test_stored_capacity_matches_reference(self, breaker, recovering,
                                               degraded, steps):
        monitor = self.monitor(
            heartbeat=HeartbeatConfig(recovering_capacity=recovering,
                                      degraded_capacity=degraded),
            circuit_breaker_failures=breaker)
        self.assert_matches_reference(monitor)
        for t, (instance_id, action, pick, factor) in enumerate(steps):
            state = monitor.state(instance_id)
            if action == "transition":
                allowed = _ALLOWED[state]
                monitor.transition(instance_id, allowed[pick % len(allowed)],
                                   float(t), degraded_factor=factor)
            elif action == "illegal":
                refused = [to for to in HealthState
                           if to not in _ALLOWED[state]]
                with pytest.raises(ValueError, match="illegal"):
                    monitor.transition(instance_id,
                                       refused[pick % len(refused)],
                                       float(t))
                assert monitor.state(instance_id) is state
            elif action == "link":
                monitor.set_link_factor(
                    instance_id, 1.0 if factor is None else factor)
            else:
                with pytest.raises(ValueError, match="link factor"):
                    monitor.set_link_factor(instance_id,
                                           (0.0, -0.5, 1.5, 2.0)[pick])
            self.assert_matches_reference(monitor)

    def test_detection_latency_scales_with_heartbeat(self):
        heartbeat = HeartbeatConfig(interval_fraction=0.02,
                                    miss_threshold=3)
        assert heartbeat.detection_seconds(10.0) == pytest.approx(0.6)


class TestScheduler:
    def scheduler(self, policy=None):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=1)
        rates = {inst.instance_id: 100.0 for inst in topology.instances}
        # Payload large enough that fabric-tier streaming time is on the
        # order of compute time, so topology visibly shapes the plan.
        return DegradationAwareScheduler(
            topology, rates, FabricModel(), policy or DegradationPolicy(),
            payload_bytes=1e8), topology

    def test_integral_plan_conserves_work(self):
        scheduler, topology = self.scheduler()
        monitor = HealthMonitor([i.instance_id
                                 for i in topology.instances])
        plan = scheduler.plan(101.0, monitor)
        assert plan.total == 101.0
        assert all(amount == int(amount)
                   for amount in (a.amount for a in plan.assignments))

    def test_assignments_carry_their_placement_weight(self):
        scheduler, topology = self.scheduler()
        monitor = HealthMonitor([i.instance_id
                                 for i in topology.instances])
        monitor.transition("r0h1s0", HealthState.DEGRADED, 0.0,
                           degraded_factor=0.25)
        monitor.set_link_factor("r1h0s0", 0.5)
        for integral in (True, False):
            plan = scheduler.plan(101.0, monitor, exclude=("r1h1s0",),
                                  integral=integral)
            assert [a.instance_id for a in plan.assignments] == [
                "r0h0s0", "r0h1s0", "r1h0s0"]
            for assignment in plan.assignments:
                rate = 100.0 * monitor.capacity_factor(
                    assignment.instance_id)
                streaming = 1e8 / scheduler.fabric.bandwidth(
                    topology.tier_of(topology.by_id(
                        assignment.instance_id)))
                assert assignment.effective_rate == 1.0 / (
                    1.0 / rate + streaming)

    def test_topology_penalty_shifts_work_to_near_instances(self):
        scheduler, topology = self.scheduler()
        monitor = HealthMonitor([i.instance_id
                                 for i in topology.instances])
        plan = scheduler.plan(1000.0, monitor)
        amounts = {a.instance_id: a.amount for a in plan.assignments}
        # Same backend rate everywhere: only fabric distance differs.
        assert amounts["r0h0s0"] > amounts["r0h1s0"] > amounts["r1h0s0"]

    def test_dead_and_excluded_instances_get_nothing(self):
        scheduler, topology = self.scheduler()
        monitor = HealthMonitor([i.instance_id
                                 for i in topology.instances])
        monitor.transition("r0h0s0", HealthState.DEAD, 1.0)
        plan = scheduler.plan(30.0, monitor, exclude=("r0h1s0",))
        placed = {a.instance_id for a in plan.assignments}
        assert "r0h0s0" not in placed and "r0h1s0" not in placed
        assert plan.total == 30.0

    def test_no_schedulable_capacity_returns_none(self):
        scheduler, topology = self.scheduler()
        monitor = HealthMonitor([i.instance_id
                                 for i in topology.instances])
        for instance in topology.instances:
            monitor.transition(instance.instance_id, HealthState.DEAD, 1.0)
        assert scheduler.plan(10.0, monitor) is None

    def test_brownout_sheds_below_capacity_floor(self):
        scheduler, topology = self.scheduler(policy=DegradationPolicy(
            min_capacity_fraction=0.6, shed_fraction=0.5))
        monitor = HealthMonitor([i.instance_id
                                 for i in topology.instances])
        for instance_id in ("r0h1s0", "r1h0s0", "r1h1s0"):
            monitor.transition(instance_id, HealthState.DEAD, 1.0)
        plan = scheduler.plan(40.0, monitor, integral=False)
        assert plan.brownout
        assert plan.shed == pytest.approx(20.0)
        assert plan.total == pytest.approx(20.0)
        assert plan.capacity_fraction < 0.6

    def test_plan_is_deterministic(self):
        scheduler, topology = self.scheduler()
        monitor = HealthMonitor([i.instance_id
                                 for i in topology.instances])
        monitor.transition("r1h1s0", HealthState.DEGRADED, 1.0,
                           degraded_factor=0.3)
        assert (scheduler.plan(77.0, monitor)
                == scheduler.plan(77.0, monitor))


class TestChaosScenarios:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            ChaosEvent(at_fraction=-0.1, action="fail", target="rack:0")
        with pytest.raises(ValueError):
            ChaosEvent(at_fraction=0.1, action="explode", target="rack:0")
        with pytest.raises(ValueError):
            ChaosEvent(at_fraction=0.1, action="link_flap",
                       target="rack:0", duration_fraction=0.0)

    def test_events_sorted_by_time(self):
        scenario = ChaosScenario(
            name="s", description="d",
            events=(ChaosEvent(at_fraction=0.9, action="fail",
                               target="rack:0"),
                    ChaosEvent(at_fraction=0.1, action="fail",
                               target="rack:1")))
        assert [e.at_fraction for e in scenario.events] == [0.1, 0.9]

    def test_resolve_target_forms(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=2)
        assert len(resolve_target(topology, "rack:1")) == 4
        assert len(resolve_target(topology, "host:0/1")) == 2
        assert resolve_target(topology,
                              "instance:r0h0s1")[0].slot == 1
        with pytest.raises(ValueError):
            resolve_target(topology, "pod:3")

    def test_rack_power_loss_requires_two_racks(self):
        topology = build_fleet(racks=1, hosts_per_rack=2,
                               instances_per_host=2)
        with pytest.raises(ValueError):
            build_scenario("rack_power_loss", topology)
        with pytest.raises(KeyError):
            build_scenario("meteor_strike", topology)


class TestFleetSimulatorCleanRun:
    def test_no_faults_reproduces_nominal_plan_bit_identically(self):
        simulator = tiny_simulator()
        plan = simulator.nominal_plan(64)
        report = simulator.run(batch=64)
        assert report.makespan_seconds == report.nominal_makespan_seconds
        assert report.availability == 1.0
        expected = {a.instance_id: a.dispatch_seconds + a.amount
                    / simulator.scheduler.rates[a.instance_id]
                    for a in plan.assignments}
        for outcome in report.per_instance:
            assert outcome.finish_seconds == expected[outcome.instance_id]
            assert outcome.completed == outcome.allocated
        assert report.completed == 64.0
        assert report.shed == 0.0
        assert report.reshards == 0 and report.failures == 0

    def test_clean_run_is_deterministic(self):
        assert tiny_simulator().run(batch=48) == tiny_simulator().run(
            batch=48)

    def test_heterogeneous_backends_have_distinct_rates(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=1, heterogeneous=True)
        simulator = tiny_simulator(topology)
        rates = {label: simulator.scheduler.rates[instance.instance_id]
                 for label, instance in
                 ((instance.backend.label, instance)
                  for instance in topology.instances)}
        assert len(set(rates.values())) > 1
        report = simulator.run(batch=32)
        assert report.completed == 32.0

    def test_input_validation(self):
        simulator = tiny_simulator()
        with pytest.raises(ValueError):
            simulator.run(batch=0)
        with pytest.raises(ValueError):
            tiny_simulator(seq_len=0)


class TestFleetSimulatorChaos:
    def test_rack_power_loss_recovers_via_resharding(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=2)
        simulator = tiny_simulator(topology)
        scenario = build_scenario("rack_power_loss", topology)
        report = simulator.run(batch=64, scenario=scenario)
        assert report.failures == 4
        assert report.reshards > 0
        assert report.recovery_seconds > 0.0
        assert report.completed == pytest.approx(64.0)  # re-sharded
        assert report.goodput > 0.0
        assert report.availability < 1.0
        dead = [o for o in report.per_instance if o.final_state == "dead"]
        assert len(dead) == 4
        assert all(o.instance_id.startswith("r1") for o in dead)

    def test_chaos_run_is_deterministic(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=2)
        scenario = build_scenario("rolling_restart", topology)

        def run():
            return tiny_simulator(
                topology,
                fault_model=FaultModel(
                    FaultRates(link_transient=0.05), seed=7)).run(
                batch=64, scenario=scenario)

        assert run() == run()

    def test_slow_node_stretches_makespan(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=2)
        simulator = tiny_simulator(topology)
        report = simulator.run(batch=64,
                               scenario=build_scenario("slow_node",
                                                       topology))
        assert report.failures == 0
        assert (report.makespan_seconds
                > report.nominal_makespan_seconds)
        degraded = [o for o in report.per_instance
                    if o.final_state == "degraded"]
        assert len(degraded) == 1

    def test_link_flap_storm_degrades_then_clears(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=2)
        simulator = tiny_simulator(topology)
        report = simulator.run(
            batch=64, scenario=build_scenario("link_flap_storm", topology))
        assert report.failures == 0
        assert report.availability < 1.0
        flap_states = [t.to_state for t in report.transitions]
        assert HealthState.DEGRADED in flap_states

    def test_rolling_restart_recovers_everyone(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=2)
        simulator = tiny_simulator(topology)
        report = simulator.run(
            batch=64, scenario=build_scenario("rolling_restart", topology))
        assert report.completed == pytest.approx(64.0)
        assert report.failures == 8
        assert all(o.final_state in ("healthy", "recovering")
                   for o in report.per_instance)

    def test_circuit_breaker_opens_on_repeat_failures(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=2)
        simulator = tiny_simulator(
            topology,
            policy=DegradationPolicy(circuit_breaker_failures=1))
        report = simulator.run(
            batch=64, scenario=build_scenario("rolling_restart", topology))
        assert any(o.breaker_open for o in report.per_instance)
        assert report.completed > 0.0

    def test_brownout_sheds_load_when_capacity_collapses(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=2)
        simulator = tiny_simulator(
            topology,
            policy=DegradationPolicy(min_capacity_fraction=0.9,
                                     shed_fraction=0.5))
        report = simulator.run(
            batch=64, scenario=build_scenario("rack_power_loss", topology))
        assert report.brownouts > 0
        assert report.shed > 0.0
        assert report.completed < 64.0
        assert report.completed + report.shed == pytest.approx(64.0)

    def test_telemetry_spans_and_metrics(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=2)
        simulator = tiny_simulator(topology)
        tracer = Tracer()
        metrics = MetricsRegistry()
        report = simulator.run(
            batch=64, scenario=build_scenario("rack_power_loss", topology),
            tracer=tracer)
        record_metrics(report, metrics)
        names = {span.name for span in tracer.spans}
        assert {"dispatch", "shard", "detection_window", "recovery_shard",
                "fleet_campaign"} <= names
        instant_names = {instant.name for instant in tracer.instants}
        assert {"instance_failure", "failure_detected",
                "reshard"} <= instant_names
        assert metrics.get("fleet/goodput").value == report.goodput
        assert (metrics.get("fleet/reshards").value
                == float(report.reshards))

    def test_spontaneous_failures_from_fault_model(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=2)
        simulator = tiny_simulator(
            topology,
            fault_model=FaultModel(FaultRates(instance_failure=0.5),
                                   seed=3))
        report = simulator.run(batch=64)
        assert report.failures > 0
        assert report.completed > 0.0

    def test_report_summary_mentions_key_numbers(self):
        report = tiny_simulator().run(batch=32)
        summary = report.summary()
        assert "goodput=" in summary and "availability=" in summary


#: Degradation policies the parity golden sweeps: the default, a
#: brownout floor with a one-strike breaker, and an outage floor.
PARITY_POLICIES = (
    DegradationPolicy(),
    DegradationPolicy(min_capacity_fraction=0.6, circuit_breaker_failures=1),
    DegradationPolicy(min_survivors=7),
)

#: Inert faults, and spontaneous failures plus fabric transients.
PARITY_FAULTS = (
    FaultRates(),
    FaultRates(instance_failure=0.3, link_transient=0.05),
)

PARITY_SCENARIOS = (None, "rack_power_loss", "link_flap_storm",
                    "slow_node", "rolling_restart")


def fleet_parity_digest():
    """SHA-256 over every observable output of a grid of fleet runs.

    The baseline and the four chaos scenarios, on a homogeneous and a
    heterogeneous fleet, under each parity policy and fault setting.
    Each run carries a tracer, a live monitor and a metrics registry;
    the digest covers ``repr`` of the report, the chrome-trace JSON, the
    metric rows and every monitor sample, so every float bit counts.
    """
    digest = hashlib.sha256()
    for heterogeneous in (False, True):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=2,
                               heterogeneous=heterogeneous)
        for policy in PARITY_POLICIES:
            for index, rates in enumerate(PARITY_FAULTS):
                for name in PARITY_SCENARIOS:
                    simulator = tiny_simulator(
                        topology, policy=policy,
                        fault_model=FaultModel(rates, seed=11 + index))
                    scenario = (build_scenario(name, topology)
                                if name else None)
                    tracer, metrics = Tracer(), MetricsRegistry()
                    monitor = fleet_monitor(samples=32)
                    report = simulator.run(batch=64, scenario=scenario,
                                           tracer=tracer, monitor=monitor)
                    record_metrics(report, metrics)
                    lines = [repr(report),
                             json.dumps(to_chrome_trace(tracer)),
                             repr(metrics.rows())]
                    for series in monitor.store:
                        lines.append(f"{series.name} {series.dropped} "
                                     f"{list(series.samples())!r}")
                    lines.append(repr(monitor.report()))
                    digest.update(("\n".join(lines) + "\n").encode("utf-8"))
    return digest.hexdigest()


#: Recorded before the fleet simulator's run state was restructured.
FLEET_PARITY_DIGEST = (
    "81b83754691d08b77240b359278f61be05246b41967eb3245573f089572a96d8")


class TestFleetParityGolden:
    def test_fleet_runs_are_bit_identical(self):
        assert fleet_parity_digest() == FLEET_PARITY_DIGEST


class TestRunState:
    def test_run_builds_one_health_monitor_and_one_plan(self, monkeypatch):
        built = []

        class CountingHealthMonitor(HealthMonitor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(simulator_module, "HealthMonitor",
                            CountingHealthMonitor)
        simulator = tiny_simulator()
        plans = []
        plan = simulator.scheduler.plan

        def counting_plan(*args, **kwargs):
            plans.append(args)
            return plan(*args, **kwargs)

        monkeypatch.setattr(simulator.scheduler, "plan", counting_plan)
        report = simulator.run(batch=64)
        assert report.reshards == 0
        assert len(built) == 1 and len(plans) == 1

    def test_run_state_is_freed_without_cyclic_gc(self):
        topology = build_fleet(racks=2, hosts_per_rack=2,
                               instances_per_host=2)
        simulator = tiny_simulator(topology)
        gc.collect()
        gc.disable()
        try:
            simulator.run(batch=64,
                          scenario=build_scenario("rack_power_loss",
                                                  topology),
                          tracer=Tracer(), monitor=fleet_monitor())
            leaked = [obj for obj in gc.get_objects()
                      if isinstance(obj, simulator_module._Run)]
        finally:
            gc.enable()
        assert leaked == []
