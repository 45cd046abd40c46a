"""Fleet topology: racks of hosts of heterogeneous accelerator instances.

The paper's deployment story (Section 3.2) stops at four ProSE instances
behind one host CPU.  A discovery engine serving millions of users runs
*racks* of such hosts, and the failures that matter at that scale are
correlated: a rack loses power, an uplink flaps, one slow host drags
every batch sharded onto it.  This module models the static shape of
that fleet — which instance sits in which host and rack, what backend it
runs (a ProSE configuration or one of the calibrated commodity
baselines), and how expensive it is to move work between any two points
of the topology.

Three fabric tiers, in decreasing bandwidth order:

* **NVLink** — coordinator and instance share a host (the paper's
  intra-host links);
* **intra-rack** — different hosts on one rack's switch;
* **inter-rack** — crossing the rack-to-rack fabric.

Everything here is a frozen dataclass: a topology can be shared between
simulations, hashed into memo keys, and compared structurally in tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Tuple

from ..arch.config import HardwareConfig, best_perf

#: Backend kinds schedulable by the fleet.
PROSE = "prose"
GPU_A100 = "a100"
TPU_V2 = "tpuv2"
TPU_V3 = "tpuv3"

BASELINE_KINDS = (GPU_A100, TPU_V2, TPU_V3)


class LinkTier(enum.Enum):
    """Fabric tier between the scheduling host and an instance."""

    NVLINK = "nvlink"
    INTRA_RACK = "intra_rack"
    INTER_RACK = "inter_rack"


@dataclass(frozen=True)
class FabricModel:
    """Bandwidth and dispatch cost of the three fabric tiers.

    Defaults follow the paper's NVLink 3.0 host links (~300 GB/s per
    instance) over a 100 GbE-class rack switch and a thinner inter-rack
    spine — the usual oversubscription pyramid.

    Attributes:
        nvlink_bytes_per_second: intra-host link bandwidth.
        intra_rack_bytes_per_second: host-to-host bandwidth in a rack.
        inter_rack_bytes_per_second: rack-to-rack fabric bandwidth.
        dispatch_overhead_seconds: fixed per-shard dispatch cost
            (software + NIC latency), charged once per assignment.
    """

    nvlink_bytes_per_second: float = 300e9
    intra_rack_bytes_per_second: float = 12.5e9
    inter_rack_bytes_per_second: float = 3.125e9
    dispatch_overhead_seconds: float = 2.0e-6

    def __post_init__(self) -> None:
        if min(self.nvlink_bytes_per_second,
               self.intra_rack_bytes_per_second,
               self.inter_rack_bytes_per_second) <= 0:
            raise ValueError("fabric bandwidths must be positive")
        if self.dispatch_overhead_seconds < 0:
            raise ValueError("dispatch overhead must be non-negative")

    def bandwidth(self, tier: LinkTier) -> float:
        if tier is LinkTier.NVLINK:
            return self.nvlink_bytes_per_second
        if tier is LinkTier.INTRA_RACK:
            return self.intra_rack_bytes_per_second
        return self.inter_rack_bytes_per_second

    def transfer_seconds(self, payload_bytes: float,
                         tier: LinkTier) -> float:
        """One shard dispatch: fixed overhead plus payload at tier rate."""
        return (self.dispatch_overhead_seconds
                + payload_bytes / self.bandwidth(tier))


@dataclass(frozen=True)
class BackendSpec:
    """What one fleet instance actually runs.

    Attributes:
        kind: ``"prose"`` or one of the calibrated baselines
            (``"a100"``, ``"tpuv2"``, ``"tpuv3"``).
        hardware: the ProSE configuration; required iff kind is prose.
    """

    kind: str = PROSE
    hardware: Optional[HardwareConfig] = None

    def __post_init__(self) -> None:
        if self.kind == PROSE:
            if self.hardware is None:
                object.__setattr__(self, "hardware", best_perf())
        elif self.kind in BASELINE_KINDS:
            if self.hardware is not None:
                raise ValueError(
                    f"baseline backend '{self.kind}' takes no hardware "
                    f"configuration")
        else:
            raise ValueError(
                f"unknown backend kind '{self.kind}'; choose from: "
                f"{(PROSE,) + BASELINE_KINDS}")

    @property
    def label(self) -> str:
        if self.kind == PROSE:
            return f"prose:{self.hardware.name}"
        return self.kind


@dataclass(frozen=True)
class Instance:
    """One schedulable accelerator: its position and its backend."""

    rack: int
    host: int
    slot: int
    backend: BackendSpec = field(default_factory=BackendSpec)

    @cached_property
    def instance_id(self) -> str:
        """Stable topology address, e.g. ``r0h1s2``."""
        return f"r{self.rack}h{self.host}s{self.slot}"

    @cached_property
    def host_id(self) -> str:
        return f"r{self.rack}h{self.host}"


@dataclass(frozen=True)
class FleetTopology:
    """The full fleet, with the scheduling host pinned to one position.

    Attributes:
        instances: every instance, in (rack, host, slot) order.
        coordinator_rack: rack holding the fleet scheduler.
        coordinator_host: host (within that rack) holding the scheduler.
    """

    instances: Tuple[Instance, ...]
    coordinator_rack: int = 0
    coordinator_host: int = 0

    def __post_init__(self) -> None:
        if not self.instances:
            raise ValueError("a fleet needs at least one instance")
        ordered = tuple(sorted(
            self.instances,
            key=lambda inst: (inst.rack, inst.host, inst.slot)))
        index = {instance.instance_id: instance for instance in ordered}
        if len(index) != len(ordered):
            raise ValueError("duplicate instance positions in topology")
        object.__setattr__(self, "instances", ordered)
        object.__setattr__(self, "_by_id", index)

    # -- shape -----------------------------------------------------------

    @property
    def racks(self) -> int:
        return len({instance.rack for instance in self.instances})

    @property
    def hosts(self) -> int:
        return len({instance.host_id for instance in self.instances})

    def host_ids(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for instance in self.instances:
            seen.setdefault(instance.host_id, None)
        return tuple(seen)

    def instances_of_rack(self, rack: int) -> Tuple[Instance, ...]:
        return tuple(inst for inst in self.instances if inst.rack == rack)

    def instances_of_host(self, rack: int, host: int) -> Tuple[Instance, ...]:
        return tuple(inst for inst in self.instances
                     if inst.rack == rack and inst.host == host)

    def by_id(self, instance_id: str) -> Instance:
        instance = self._by_id.get(instance_id)
        if instance is None:
            raise KeyError(f"no instance '{instance_id}' in topology")
        return instance

    # -- fabric distance -------------------------------------------------

    def tier_of(self, instance: Instance) -> LinkTier:
        """Fabric tier between the coordinator and ``instance``."""
        if instance.rack != self.coordinator_rack:
            return LinkTier.INTER_RACK
        if instance.host != self.coordinator_host:
            return LinkTier.INTRA_RACK
        return LinkTier.NVLINK

    def describe(self) -> str:
        kinds: Dict[str, int] = {}
        for instance in self.instances:
            label = instance.backend.label
            kinds[label] = kinds.get(label, 0) + 1
        mix = ", ".join(f"{count}x {label}"
                        for label, count in sorted(kinds.items()))
        return (f"{self.racks} rack(s), {self.hosts} host(s), "
                f"{len(self.instances)} instance(s) [{mix}]")


def build_fleet(racks: int = 2, hosts_per_rack: int = 2,
                instances_per_host: int = 4,
                hardware: Optional[HardwareConfig] = None,
                heterogeneous: bool = False) -> FleetTopology:
    """A regular fleet, optionally mixing in the calibrated baselines.

    With ``heterogeneous=True`` the *last* host of every rack runs
    commodity baselines instead of ProSE instances — A100s on even
    racks, TPUv3s on odd — turning the paper's comparison curves into
    schedulable (slower, hotter) capacity the degradation-aware
    scheduler must weigh, exactly as a real mixed fleet would.
    """
    if racks <= 0 or hosts_per_rack <= 0 or instances_per_host <= 0:
        raise ValueError("fleet dimensions must be positive")
    prose = BackendSpec(kind=PROSE, hardware=hardware or best_perf())
    instances = []
    for rack in range(racks):
        for host in range(hosts_per_rack):
            baseline_host = (heterogeneous and hosts_per_rack > 1
                             and host == hosts_per_rack - 1)
            for slot in range(instances_per_host):
                if baseline_host:
                    kind = GPU_A100 if rack % 2 == 0 else TPU_V3
                    backend = BackendSpec(kind=kind)
                else:
                    backend = prose
                instances.append(Instance(rack=rack, host=host, slot=slot,
                                          backend=backend))
    return FleetTopology(instances=tuple(instances))
