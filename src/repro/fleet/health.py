"""Per-instance heartbeat state machines and the fleet health monitor.

Every instance carries a four-state machine:

    healthy -> degraded -> healthy        (slow node, link flap storm)
    healthy/degraded -> dead              (power loss, hard failure)
    dead -> recovering -> healthy         (restart + warm-up)

Transitions are *observed* through heartbeats: an instance that dies at
``t`` is only known dead at ``t + interval * miss_threshold`` — the
detection latency every recovery timeline pays before a single lost
inference can be re-sharded.  The monitor is the single capacity
authority for the scheduler: :meth:`HealthMonitor.capacity_factor`
folds the state machine, any scripted degradation factor, a link-flap
multiplier, and the recovery warm-up discount into one number in
``[0, 1]``.  That number is recomputed only when a record changes
(:meth:`~HealthMonitor.transition`, :meth:`~HealthMonitor.set_link_factor`),
so the scheduler and every monitoring tick read it at constant cost.

The monitor also runs the per-instance circuit breaker: an instance
that hard-fails more than ``DegradationPolicy.circuit_breaker_failures``
times is excluded from scheduling even after it reports healthy — the
classic flapping-node quarantine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


class HealthState(enum.Enum):
    """Heartbeat-observed condition of one fleet instance."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    DEAD = "dead"
    RECOVERING = "recovering"


#: Transitions the state machine accepts; anything else is a bug in the
#: caller (e.g. recovering an instance that never died).
_ALLOWED: Dict[HealthState, Tuple[HealthState, ...]] = {
    HealthState.HEALTHY: (HealthState.DEGRADED, HealthState.DEAD),
    HealthState.DEGRADED: (HealthState.HEALTHY, HealthState.DEGRADED,
                           HealthState.DEAD),
    HealthState.DEAD: (HealthState.RECOVERING,),
    HealthState.RECOVERING: (HealthState.HEALTHY, HealthState.DEAD),
}


@dataclass(frozen=True)
class HeartbeatConfig:
    """Heartbeat cadence and capacity discounts, in nominal fractions.

    Times are fractions of the *nominal fleet makespan* so one config
    scales from a millisecond tiny-model smoke run to a full
    Protein-BERT-base campaign without retuning.

    Attributes:
        interval_fraction: heartbeat period as a fraction of the
            nominal makespan.
        miss_threshold: consecutive missed heartbeats before an
            instance is declared dead.
        warmup_fraction: time a recovering instance spends warming up
            (cache refill, model reload) before it is healthy again.
        recovering_capacity: capacity factor during warm-up.
        degraded_capacity: default factor for a degraded instance when
            the degradation event names no explicit slowdown.
    """

    interval_fraction: float = 0.02
    miss_threshold: int = 3
    warmup_fraction: float = 0.05
    recovering_capacity: float = 0.5
    degraded_capacity: float = 0.5

    def __post_init__(self) -> None:
        if self.interval_fraction < 0 or self.warmup_fraction < 0:
            raise ValueError("heartbeat fractions must be non-negative")
        if self.miss_threshold < 1:
            raise ValueError("miss_threshold must be at least 1")
        for name in ("recovering_capacity", "degraded_capacity"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")

    def detection_seconds(self, nominal_makespan: float) -> float:
        """Death-to-detection latency: the missed heartbeat window."""
        return (self.interval_fraction * nominal_makespan
                * self.miss_threshold)

    def warmup_seconds(self, nominal_makespan: float) -> float:
        return self.warmup_fraction * nominal_makespan


@dataclass(frozen=True)
class HealthTransition:
    """One observed state change, for timelines and regression tests."""

    at_seconds: float
    instance_id: str
    from_state: HealthState
    to_state: HealthState
    reason: str = ""


@dataclass
class _InstanceHealth:
    """Mutable per-instance record behind the monitor's public API."""

    state: HealthState = HealthState.HEALTHY
    degraded_factor: float = 1.0
    link_factor: float = 1.0
    hard_failures: int = 0
    capacity: float = 1.0       # stored formula value; see _capacity


class HealthMonitor:
    """Tracks every instance's state machine and capacity factor.

    The heartbeat and breaker threshold are fixed at construction: each
    record stores its capacity factor, recomputed by the two mutators.

    Args:
        instance_ids: all instances, in scheduling order.
        heartbeat: cadence/discount knobs.
        circuit_breaker_failures: hard failures after which the breaker
            opens and the instance is quarantined (0 disables).
    """

    def __init__(self, instance_ids: Sequence[str],
                 heartbeat: Optional[HeartbeatConfig] = None,
                 circuit_breaker_failures: int = 0) -> None:
        self._heartbeat = heartbeat or HeartbeatConfig()
        self._circuit_breaker_failures = circuit_breaker_failures
        self.transitions: List[HealthTransition] = []
        self._records: Dict[str, _InstanceHealth] = {
            instance_id: _InstanceHealth()
            for instance_id in instance_ids}
        if len(self._records) != len(instance_ids):
            raise ValueError("duplicate instance ids")

    # -- queries ---------------------------------------------------------

    @property
    def heartbeat(self) -> HeartbeatConfig:
        return self._heartbeat

    @property
    def circuit_breaker_failures(self) -> int:
        return self._circuit_breaker_failures

    def state(self, instance_id: str) -> HealthState:
        return self._records[instance_id].state

    def breaker_open(self, instance_id: str) -> bool:
        """True when the circuit breaker has quarantined the instance."""
        if self._circuit_breaker_failures <= 0:
            return False
        return (self._records[instance_id].hard_failures
                >= self._circuit_breaker_failures)

    def open_breakers(self) -> Tuple[str, ...]:
        return tuple(instance_id for instance_id in self._records
                     if self.breaker_open(instance_id))

    def capacity_factor(self, instance_id: str) -> float:
        """Effective capacity multiplier in [0, 1] for the scheduler."""
        return self._records[instance_id].capacity

    def schedulable(self, instance_id: str) -> bool:
        return self._records[instance_id].capacity > 0.0

    def alive_count(self) -> int:
        """Instances the scheduler may still place work on."""
        return sum(1 for record in self._records.values()
                   if record.capacity > 0.0)

    def _capacity(self, instance_id: str, record: _InstanceHealth) -> float:
        """The capacity formula, recomputed whenever a record changes."""
        if record.state is HealthState.DEAD or self.breaker_open(
                instance_id):
            return 0.0
        if record.state is HealthState.RECOVERING:
            base = self._heartbeat.recovering_capacity
        elif record.state is HealthState.DEGRADED:
            base = record.degraded_factor
        else:
            base = 1.0
        return base * record.link_factor

    # -- transitions -----------------------------------------------------

    def transition(self, instance_id: str, to_state: HealthState,
                   at_seconds: float, reason: str = "",
                   degraded_factor: Optional[float] = None) -> None:
        record = self._records[instance_id]
        if to_state not in _ALLOWED[record.state]:
            raise ValueError(
                f"illegal health transition {record.state.value} -> "
                f"{to_state.value} for {instance_id} ({reason or 'n/a'})")
        self.transitions.append(HealthTransition(
            at_seconds=at_seconds, instance_id=instance_id,
            from_state=record.state, to_state=to_state, reason=reason))
        if to_state is HealthState.DEAD:
            record.hard_failures += 1
        if to_state is HealthState.DEGRADED:
            record.degraded_factor = (
                degraded_factor if degraded_factor is not None
                else self.heartbeat.degraded_capacity)
        elif to_state is HealthState.HEALTHY:
            record.degraded_factor = 1.0
        record.state = to_state
        record.capacity = self._capacity(instance_id, record)

    def set_link_factor(self, instance_id: str, factor: float) -> None:
        """Apply (or clear, with 1.0) a link-flap throughput multiplier."""
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"link factor must be in (0, 1], got {factor}")
        record = self._records[instance_id]
        record.link_factor = factor
        record.capacity = self._capacity(instance_id, record)

    def transitions_of(self, instance_id: str) -> Tuple[HealthTransition,
                                                        ...]:
        return tuple(t for t in self.transitions
                     if t.instance_id == instance_id)
