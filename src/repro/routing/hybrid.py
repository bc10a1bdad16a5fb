"""Per-hop data-plane routers over the GS3 structure.

:class:`~repro.routing.hierarchy.HierarchicalRouter` computes whole
paths offline against a quiescent runtime.  The traffic engine
(:mod:`repro.traffic`) instead needs *single-hop decisions* made at the
node currently holding a packet, using only knowledge that node
actually has — because by the time the packet arrives, the structure
may have healed, heads may have died, and the original path may no
longer exist.

Two deciders share one ``decide(node_id, dst, dst_pos, visited) ->
(action, next_hop)``: a direct hop when the destination is within radio
reach, associate → head, a head's own associates, then greedy over the
neighbouring heads (ties broken by ``(distance, node_id)``), parent
escalation when greedy stalls, perimeter fallback.  They differ only in
the points greedy progress is measured between:

* :class:`CellRouter` — the paper's cell-by-cell geographic routing:
  greedy over the heads' ILs.  The offline
  ``HierarchicalRouter.route()`` is *not* this decision walked hop by
  hop: the direct hop here fires whenever the destination is in reach,
  so paths differ from ``route()``'s and are shorter on average.
* :class:`HybridRouter` — mesh-first, tree-fallback (the EE662 idiom):
  greedy by *actual position* over the neighbour tables GS3 already
  maintains.  No state beyond GS3's own tables.

Shard-safety contract: deciders may consult ``runtime.nodes`` only for
the *current* node (always owned locally) and ``runtime.network`` only
for nodes appearing in the current node's protocol tables — those were
learned over the radio, hence lie within ``max_range`` and are mirrored
into the owning stripe at every shard count.  Never branch on
``network.has_node`` for an arbitrary far-away node: mirror presence of
out-of-range nodes depends on the shard count.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, Optional, Set, Tuple, Type

from ..core.runtime import Gs3Runtime
from ..core.state import NeighborInfo, NodeStatus, ProtocolState
from ..geometry import Vec2
from ..net import NodeId, PhysicalNode

__all__ = ["CellRouter", "HybridRouter", "DATA_ROUTERS"]

#: Minimum geometric progress required to count a hop as "closer".
_EPS = 1e-9

#: decide() actions: forward to the returned node now, or hold the
#: packet and retry after the plane's backoff (structure mid-heal).
FORWARD = "forward"
WAIT = "wait"


class _DeciderBase:
    """The per-hop decision; subclasses name only the two points greedy
    progress is measured between (``_table_point``/``_own_point``)."""

    kind = "base"

    def __init__(self, runtime: Gs3Runtime):
        self.runtime = runtime

    # -- local-knowledge predicates ----------------------------------

    def _usable(self, node_id: NodeId, target: NodeId) -> bool:
        """Is ``target`` (a table entry of ``node_id``) a live next hop?

        ``target`` came out of a protocol table, so it was within radio
        reach when learned; static nodes stay mirrored wherever
        ``node_id`` is simulated, making liveness/reachability checks
        shard-invariant.
        """
        network = self.runtime.network
        if not network.has_node(target) or target == node_id:
            return False
        dest = network.node(target)
        if not dest.alive:
            return False
        return network.node(node_id).can_reach(dest.position)

    def _state(self, node_id: NodeId):
        node = self.runtime.nodes.get(node_id)
        if node is None or not node.alive:
            return None
        return node.state

    # -- the shared decision -----------------------------------------

    #: A neighbour-table entry's point for greedy progress.
    _table_point: Callable[[NeighborInfo], Vec2]

    def _own_point(self, me: PhysicalNode, state: ProtocolState) -> Optional[Vec2]:
        """This head's point for greedy progress (``None``: infinitely
        far, so any neighbour improves on it)."""
        raise NotImplementedError

    def decide(
        self,
        node_id: NodeId,
        dst: NodeId,
        dst_pos: Vec2,
        visited: Set[NodeId],
    ) -> Tuple[str, Optional[NodeId]]:
        # Direct final hop: the destination's advertised position lies
        # within this node's radio reach, so hand the frame over rather
        # than detouring through head tables — this is also what rescues
        # destinations no head accounts for (the slid big node is an
        # associate of a head whose IL other cells cannot see behind,
        # and BOOTUP stragglers have no head at all).  The geometric
        # test comes first: only nodes within max_range are guaranteed
        # mirrored locally at every shard count.
        me = self.runtime.network.node(node_id)
        if dst != node_id and me.can_reach(dst_pos) and self._usable(node_id, dst):
            return (FORWARD, dst)

        state = self._state(node_id)
        if state is None:
            return (WAIT, None)
        status = state.status
        if status is NodeStatus.ASSOCIATE:
            head = state.head_id
            if head is not None and self._usable(node_id, head):
                return (FORWARD, head)
            return (WAIT, None)  # orphaned mid-heal; hold and retry
        if not status.is_head_like:
            return (WAIT, None)  # BOOTUP / re-deciding

        # Final hop: the destination is one of this head's associates.
        if dst in state.associate_positions and self._usable(node_id, dst):
            return (FORWARD, dst)

        own = self._own_point(me, state)
        own_distance = (
            own.distance_to(dst_pos) if own is not None else float("inf")
        )
        point = self._table_point
        best: Optional[Tuple[float, NodeId]] = None
        for info in state.neighbor_heads.values():
            neighbor_id = info.node_id
            if neighbor_id in visited or not self._usable(node_id, neighbor_id):
                continue
            distance = point(info).distance_to(dst_pos)
            # Deterministic tie-break on equidistant points: (distance, id).
            if best is None or (distance, neighbor_id) < best:
                best = (distance, neighbor_id)
        if best is not None and best[0] < own_distance - _EPS:
            return (FORWARD, best[1])

        # Greedy stalled — escalate to the parent head.
        parent = state.parent_id
        if (
            parent is not None
            and parent != node_id
            and parent not in visited
            and self._usable(node_id, parent)
        ):
            return (FORWARD, parent)

        # Perimeter fallback: best non-improving unvisited neighbour.
        if best is not None:
            return (FORWARD, best[1])
        return (WAIT, None)


class CellRouter(_DeciderBase):
    """Cell-by-cell greedy-over-ILs with parent escalation (GS3 native)."""

    kind = "cell"
    _table_point = attrgetter("il")

    def _own_point(self, me: PhysicalNode, state: ProtocolState) -> Optional[Vec2]:
        return state.current_il


class HybridRouter(_DeciderBase):
    """Mesh-first position-greedy forwarding, tree fallback on stall.

    Built *only* from GS3's own tables: an associate knows its head; a
    head knows its neighbouring heads (true positions, via
    ``NeighborInfo.position``), its own associates' positions, and its
    parent.  The mesh step forwards to the table entry strictly closest
    to the destination's actual position (ties by ``(distance, id)``);
    a direct final hop fires whenever the destination itself is within
    radio reach.  When the mesh stalls, the packet climbs the head tree
    like :class:`CellRouter` does.
    """

    kind = "hybrid"
    _table_point = attrgetter("position")

    def _own_point(self, me: PhysicalNode, state: ProtocolState) -> Optional[Vec2]:
        return me.position


DATA_ROUTERS: Dict[str, Type[_DeciderBase]] = {
    CellRouter.kind: CellRouter,
    HybridRouter.kind: HybridRouter,
}
