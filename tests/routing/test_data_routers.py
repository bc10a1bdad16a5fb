"""Per-hop data-plane deciders: tie-breaking, escalation, holes.

Covers the deterministic ``(distance, node_id)`` tie-break discipline
shared by the offline :class:`HierarchicalRouter` and the data-plane
:class:`CellRouter` / :class:`HybridRouter`, greedy-stall → parent
escalation, and routing across a sensing hole carved out of the
deployment.
"""

from dataclasses import replace as dc_replace

import pytest

from repro.core import GS3Config, Gs3DynamicSimulation
from repro.geometry import Disk, Vec2
from repro.net import carve_gaps, grid_jitter
from repro.routing import CellRouter, HierarchicalRouter, HybridRouter
from repro.routing.hybrid import FORWARD, WAIT
from repro.sim import RngStreams

CFG = GS3Config(ideal_radius=100.0, radius_tolerance=25.0)


@pytest.fixture(scope="module")
def configured():
    deployment = grid_jitter(240.0, 40.0, 6.0, RngStreams(77))
    sim = Gs3DynamicSimulation.from_deployment(deployment, CFG, seed=77)
    sim.run_until_stable(window=60.0, max_time=20_000.0)
    assert sim.snapshot().heads
    return sim


def _head_with_neighbors(sim, minimum=2):
    for node in sim.runtime.nodes.values():
        state = node.state
        if not state.status.is_head_like:
            continue
        usable = [
            info
            for info in state.neighbor_heads.values()
            if sim.network.has_node(info.node_id)
            and sim.network.node(info.node_id).alive
        ]
        if len(usable) >= minimum:
            return node.node_id, state
    pytest.skip("no head with enough live neighbours")


class TestTieBreak:
    """An exact distance tie must resolve to the lower node id, in
    every table insertion order — pins the ``(distance, node_id)``
    discipline of all three routers."""

    def _symmetric_table(self, state, attr, target):
        """Two table entries with synthetic, exactly-equidistant
        ``attr`` (il or position) relative to ``target``."""
        infos = sorted(
            state.neighbor_heads.values(), key=lambda i: i.node_id
        )[:2]
        a, b = infos
        offset = 60.0
        mirrored = [
            dc_replace(a, **{attr: Vec2(-offset, target.y - 400.0)}),
            dc_replace(b, **{attr: Vec2(offset, target.y - 400.0)}),
        ]
        forward = {i.node_id: i for i in mirrored}
        backward = {i.node_id: i for i in reversed(mirrored)}
        expected = min(a.node_id, b.node_id)
        return forward, backward, expected

    def test_cell_router_tie_break_is_order_independent(self, configured):
        sim = configured
        head_id, state = _head_with_neighbors(sim)
        target = Vec2(0.0, 10_000.0)  # far: direct reach can't fire
        forward, backward, expected = self._symmetric_table(
            state, "il", target
        )
        original = state.neighbor_heads
        try:
            router = CellRouter(sim.runtime)
            picks = []
            for table in (forward, backward):
                state.neighbor_heads = table
                action, hop = router.decide(
                    head_id, 10**6, target, {head_id}
                )
                assert action == FORWARD
                picks.append(hop)
            assert picks == [expected, expected]
        finally:
            state.neighbor_heads = original

    def test_hybrid_router_tie_break_is_order_independent(self, configured):
        sim = configured
        head_id, state = _head_with_neighbors(sim)
        target = Vec2(0.0, 10_000.0)
        forward, backward, expected = self._symmetric_table(
            state, "position", target
        )
        original = state.neighbor_heads
        try:
            router = HybridRouter(sim.runtime)
            picks = []
            for table in (forward, backward):
                state.neighbor_heads = table
                action, hop = router.decide(
                    head_id, 10**6, target, {head_id}
                )
                assert action == FORWARD
                picks.append(hop)
            assert picks == [expected, expected]
        finally:
            state.neighbor_heads = original

    def test_offline_router_tie_break_is_order_independent(self, configured):
        sim = configured
        head_id, state = _head_with_neighbors(sim)
        target = Vec2(0.0, 10_000.0)
        forward, backward, expected = self._symmetric_table(
            state, "il", target
        )
        original = state.neighbor_heads
        try:
            router = HierarchicalRouter(sim.runtime)
            picks = []
            for table in (forward, backward):
                state.neighbor_heads = table
                picks.append(router._next_hop(head_id, target, {head_id}))
            assert picks == [expected, expected]
        finally:
            state.neighbor_heads = original


class TestParentEscalation:
    """Greedy stall → parent escalation, and the wait when even the
    parent is visited.  Runs once per router (see the subclass below);
    each targets its own greedy point: the IL for cell routing."""

    router_cls = CellRouter

    @staticmethod
    def own_point(sim, node):
        return node.state.current_il

    def test_greedy_stall_escalates_to_parent(self, configured):
        """With every neighbour already visited, a stalled head must
        climb to its parent rather than loop or give up."""
        sim = configured
        router = self.router_cls(sim.runtime)
        for node in sim.runtime.nodes.values():
            state = node.state
            if not state.status.is_head_like:
                continue
            parent = state.parent_id
            if parent is None or parent == node.node_id:
                continue
            if not router._usable(node.node_id, parent):
                continue  # parent out of radio range: perimeter case
            # Every neighbour except the parent is already visited, so
            # greedy has nowhere to go and must climb the tree.
            visited = {node.node_id} | {
                info.node_id
                for info in state.neighbor_heads.values()
                if info.node_id != parent
            }
            # Target the head's own point: distance 0 from here, so no
            # neighbour (parent included) can offer greedy progress.
            action, hop = router.decide(
                node.node_id, 10**6, self.own_point(sim, node), visited
            )
            assert action == FORWARD
            assert hop == parent
            return
        pytest.skip("no non-root head in structure")

    def test_fully_stuck_head_waits(self, configured):
        """Everything visited including the parent: hold the packet
        (structure may heal) instead of looping."""
        sim = configured
        router = self.router_cls(sim.runtime)
        head_id, state = _head_with_neighbors(sim, minimum=1)
        visited = {head_id} | {
            info.node_id for info in state.neighbor_heads.values()
        }
        if state.parent_id is not None:
            visited.add(state.parent_id)
        target = self.own_point(sim, sim.runtime.nodes[head_id])
        action, hop = router.decide(head_id, 10**6, target, visited)
        assert (action, hop) == (WAIT, None)


class TestHybridParentEscalation(TestParentEscalation):
    """The same escalation and wait paths for the hybrid router, which
    measures greedy progress from the head's actual position."""

    router_cls = HybridRouter

    @staticmethod
    def own_point(sim, node):
        return sim.network.node(node.node_id).position


def _walk(router, src, dst, dst_pos, max_hops=32):
    """Replay the forwarding plane's per-hop loop without a radio."""
    path = [src]
    visited = {src}
    current = src
    while len(path) <= max_hops:
        if current == dst:
            return path
        action, hop = router.decide(current, dst, dst_pos, visited)
        if action != FORWARD or hop is None:
            return None
        path.append(hop)
        visited.add(hop)
        current = hop
    return None


class TestSensingHole:
    @pytest.fixture(scope="class")
    def holed(self):
        deployment = grid_jitter(300.0, 40.0, 6.0, RngStreams(80))
        deployment = carve_gaps(
            deployment, [Disk(Vec2(150.0, 0.0), 85.0)]
        )
        sim = Gs3DynamicSimulation.from_deployment(
            deployment, CFG, seed=80
        )
        sim.run_until_stable(window=80.0, max_time=25_000.0)
        return sim

    def _east_sources(self, sim, count=6):
        nodes = sorted(
            (n for n in sim.network.alive_nodes() if not n.is_big),
            key=lambda n: -n.position.x,
        )
        return [n.node_id for n in nodes[:count]]

    def test_routes_terminate_across_hole(self, holed):
        """Packets from behind the hole reach the big node: greedy may
        stall against the hole's rim, escalation/perimeter must carry
        them around — terminating, loop-free, within the hop bound."""
        sim = holed
        big = sim.network.big_id
        dst_pos = sim.network.node(big).position
        for router in (CellRouter(sim.runtime), HybridRouter(sim.runtime)):
            delivered = 0
            for src in self._east_sources(sim):
                path = _walk(router, src, big, dst_pos)
                if path is None:
                    continue
                delivered += 1
                assert len(path) == len(set(path)), "loop in path"
                assert len(path) <= 32
            assert delivered >= 4

    def test_offline_router_crosses_hole(self, holed):
        sim = holed
        router = HierarchicalRouter(sim.runtime)
        big = sim.network.big_id
        delivered = 0
        for src in self._east_sources(sim):
            route = router.route(src, big)
            if route.delivered:
                delivered += 1
                assert len(route.path) == len(set(route.path))
        assert delivered >= 4
