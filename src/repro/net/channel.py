"""Channel reservation for mutually exclusive HEAD_ORG execution.

GS3 requires that two heads within ``sqrt(3)*R + 2*R_t`` of each other
never run HEAD_ORG concurrently (the proof of Theorem 4 relies on it).
The paper models this as the head "reserving the wireless channel"
before broadcasting *org* and revoking the reservation afterwards; the
underlying MAC mechanism is left unspecified.

:class:`ChannelArbiter` is the one implementation of those semantics:
a head requests an area lease (a disk around its IL); the lease is
granted as soon as no overlapping lease is active, in FIFO arrival
order among conflicting requests.  This is a centralised stand-in for
a distributed reservation protocol — legitimate because only the
*mutual exclusion* behaviour is observable to GS3, not the mechanism
(see DESIGN.md, substitution table).

Timing: a request or release reaches the arbiter one ``grant_delay``
(one hop, the channel lookahead) after it is made.  The arbiter
processes operations in ``(effect time, claim key)`` order; each one
grants every waiting lease that now conflicts with no active lease, at
that effect time, under the key ``(CHANNEL_LANE, n)``.
:class:`ChannelManager` is the node-facing side.  In an unsharded run
it arbitrates in-process, on :data:`ARBITER_LANE`, which sorts before
every other lane so each grant is queued before any same-time event
runs.  A shard worker's manager instead forwards its operations through
an outbox to the coordinator's arbiter, which returns grants at epoch
barriers.  Both produce the same grants at the same keys, so the
reservation trajectory is the same at every shard count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..geometry import Vec2
from ..sim import Simulator
from ..sim.engine import CHANNEL_LANE
from .node import NodeId

__all__ = [
    "ARBITER_LANE",
    "ChannelArbiter",
    "ChannelLease",
    "ChannelManager",
]

#: Lane of in-process arbitration events; sorts before every other lane.
ARBITER_LANE = -1

#: ``(key, lease_id)``: a grant, fired under ``key`` at the effect time
#: of the operation that issued it.
Grant = Tuple[Tuple[int, int], Any]


@dataclass
class ChannelLease:
    """An exclusive-area channel reservation.

    ``lease_id`` is the lane key claimed by the request — globally
    unique and shard-count invariant.
    """

    lease_id: Any
    node_id: NodeId
    center: Vec2
    radius: float
    active: bool = False
    released: bool = False

    def conflicts_with(self, other: "ChannelLease") -> bool:
        """Whether the two reservation areas overlap."""
        reach = self.radius + other.radius
        return self.center.distance_sq_to(other.center) <= reach * reach


class ChannelArbiter:
    """Grants non-overlapping area leases in FIFO order.

    Fed the managers' outbox entries — ``("chan_req", time, key,
    node_id, (x, y), radius)`` and ``("chan_rel", time, key,
    lease_id)`` — in ``(effect time, key)`` order.
    """

    def __init__(self) -> None:
        self._waiting: List[ChannelLease] = []
        self._active: Dict[Any, ChannelLease] = {}
        self._grants = itertools.count()

    def apply(self, entry: tuple) -> List[Grant]:
        """Process one operation at its effect time."""
        if entry[0] == "chan_req":
            _, _, key, node_id, center, radius = entry
            self._waiting.append(
                ChannelLease(key, node_id, Vec2(*center), radius)
            )
        else:
            lease_id = entry[3]
            if self._active.pop(lease_id, None) is None:
                for waiting in self._waiting:
                    if waiting.lease_id == lease_id:
                        waiting.released = True
                        break
        return self._pump()

    def _pump(self) -> List[Grant]:
        grants: List[Grant] = []
        still_waiting: List[ChannelLease] = []
        for lease in self._waiting:
            if lease.released:
                continue
            if any(
                lease.conflicts_with(active)
                for active in self._active.values()
            ):
                still_waiting.append(lease)
                continue
            self._active[lease.lease_id] = lease
            grants.append(
                ((CHANNEL_LANE, next(self._grants)), lease.lease_id)
            )
        self._waiting = still_waiting
        return grants


class ChannelManager:
    """A run's HEAD_ORG reservation endpoint.

    ``outbox`` set: forward operations to a remote arbiter (a shard
    worker); grants come back through :meth:`fire_grant`.  Unset:
    arbitrate in-process on the simulator.  Grant callbacks always run
    as simulator events, never synchronously inside :meth:`request` or
    :meth:`release`, matching the paper's model where reservation takes
    channel time.
    """

    def __init__(
        self,
        sim: Simulator,
        grant_delay: float = 1.0,
        outbox: Optional[List[tuple]] = None,
    ):
        self.sim = sim
        self.grant_delay = grant_delay
        self.outbox = outbox
        self.arbiter = ChannelArbiter() if outbox is None else None
        self._leases: Dict[Any, Tuple[ChannelLease, Callable]] = {}

    # -- API --------------------------------------------------------------

    def request(
        self,
        node_id: NodeId,
        center: Vec2,
        radius: float,
        on_grant: Callable[[ChannelLease], None],
    ) -> ChannelLease:
        """Request an exclusive lease on the disk ``(center, radius)``.

        ``on_grant(lease)`` is called (as a simulator event) when the
        lease becomes active.  Cancel by calling :meth:`release` on the
        returned lease before it is granted.
        """
        key = self.sim.claim_key()
        lease = ChannelLease(key, node_id, center, radius)
        self._leases[key] = (lease, on_grant)
        self._send(
            ("chan_req", self.sim.now, key, node_id, (center.x, center.y),
             radius)
        )
        return lease

    def release(self, lease: ChannelLease) -> None:
        """Release (or cancel) a lease."""
        if lease.released:
            return
        lease.released = True
        lease.active = False
        self._send(
            ("chan_rel", self.sim.now, self.sim.claim_key(), lease.lease_id)
        )

    def fire_grant(self, lease_id: Any) -> None:
        """Run the grant callback of ``lease_id`` unless it was released."""
        entry = self._leases.get(lease_id)
        if entry is None:
            return
        lease, on_grant = entry
        if lease.released:
            return
        lease.active = True
        on_grant(lease)

    def lane_of(self, lease_id: Any) -> Optional[int]:
        """The execution lane of a grant: the requesting node's."""
        entry = self._leases.get(lease_id)
        return entry[0].node_id if entry is not None else None

    def _held(self) -> List[ChannelLease]:
        return [
            lease for lease, _ in self._leases.values() if lease.active
        ]

    @property
    def active_count(self) -> int:
        """Number of leases this manager holds (granted, unreleased)."""
        return len(self._held())

    def holder_near(self, center: Vec2, radius: float) -> Optional[NodeId]:
        """Id of a node holding a lease overlapping the given disk."""
        probe = ChannelLease(None, -1, center, radius)
        for lease in self._held():
            if lease.conflicts_with(probe):
                return lease.node_id
        return None

    # -- in-process arbitration ---------------------------------------------

    def _send(self, entry: tuple) -> None:
        if self.outbox is not None:
            self.outbox.append(entry)
            return
        self.sim.schedule_keyed(
            entry[1] + self.grant_delay,
            (ARBITER_LANE,) + entry[2],
            partial(self._arbitrate, entry),
            lane=ARBITER_LANE,
        )

    def _arbitrate(self, entry: tuple) -> None:
        sim = self.sim
        for key, lease_id in self.arbiter.apply(entry):
            sim.schedule_keyed(
                sim.now,
                key,
                partial(self.fire_grant, lease_id),
                lane=self.lane_of(lease_id),
            )
