"""Known-head bookkeeping and message dispatch against reference models.

The receive path keeps each overheard head's ``KnownHead`` and refreshes
it in place when the head is heard again, picks the closest known head
with a loop, and resolves handlers through a per-class table.  Each is
checked here against the straightforward version it replaced: a fresh
``KnownHead`` per hearing, ``min`` over ``(distance, node_id)``, and
``getattr(node, "_on_" + name.lower())``.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GS3Config,
    Gs3DynamicNode,
    Gs3MobileNode,
    Gs3StaticNode,
    KnownHead,
)
from repro.core import messages
from repro.core.runtime import Gs3Runtime
from repro.geometry import Vec2
from repro.net import Network

CFG = GS3Config(ideal_radius=100.0, radius_tolerance=25.0)
RANGE = CFG.recommended_max_range
NODE_CLASSES = (Gs3StaticNode, Gs3DynamicNode, Gs3MobileNode)
SETTINGS = settings(max_examples=150, deadline=None)


def lone_node(node_class=Gs3StaticNode):
    """A program for small node 1 at the origin (the big node 0 is far
    away and runs no program)."""
    network = Network(cell_size=200.0)
    network.add_node(Vec2(5000.0, 5000.0), RANGE, is_big=True)
    network.add_node(Vec2(0.0, 0.0), RANGE)
    return node_class(Gs3Runtime.build(network, CFG, seed=3), 1)


# Integer coordinates on a coarse grid: Pythagorean pairs such as
# (30, 40) and (50, 0) make exact distance ties common, and the bound
# reaches past the remembering radius.
coordinate = st.integers(-30, 30).map(lambda k: 10.0 * k)
position = st.builds(Vec2, coordinate, coordinate)
hearing = st.fixed_dictionaries(
    {
        "node_id": st.integers(0, 12),
        "position": position,
        "il": position,
        "axial": st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        "hops": st.integers(0, 9),
        "root_epoch": st.integers(0, 3),
        "root_heard_at": st.none() | st.floats(0.0, 100.0),
        "after": st.sampled_from([0.0, 0.5, 2.0]),
    }
)


def replay(node, hearings):
    """Feed ``hearings`` to ``node._remember_head`` at increasing times
    and return the reference table: a fresh ``KnownHead`` per accepted
    hearing, dropped beyond the remembering radius."""
    reference = {}
    sim = node.rt.sim

    def hear(h):
        node._remember_head(
            h["node_id"], h["position"], h["il"], h["axial"], h["hops"],
            h["root_epoch"], h["root_heard_at"],
        )
        if h["node_id"] == node.node_id:
            return
        if node.position.distance_to(h["position"]) > RANGE:
            return
        reference[h["node_id"]] = KnownHead(
            node_id=h["node_id"],
            position=h["position"],
            il=h["il"],
            axial=h["axial"],
            hops_to_root=h["hops"],
            last_heard=sim.now,
            root_epoch=h["root_epoch"],
            root_heard_at=h["root_heard_at"],
        )

    at = 0.0
    for h in hearings:
        at += h["after"]
        sim.schedule_at(at, functools.partial(hear, h))
    sim.run()
    return reference


class TestRememberHead:
    @SETTINGS
    @given(st.lists(hearing, max_size=40))
    def test_table_matches_fresh_entry_model(self, hearings):
        node = lone_node()
        reference = replay(node, hearings)
        assert list(node.known_heads.items()) == list(reference.items())

    @SETTINGS
    @given(st.lists(hearing, max_size=40))
    def test_never_remembers_beyond_range(self, hearings):
        node = lone_node()
        replay(node, hearings)
        for info in node.known_heads.values():
            assert node.position.distance_to(info.position) <= RANGE

    def test_rehearing_updates_every_field_in_place(self):
        node = lone_node()
        node._remember_head(7, Vec2(50.0, 0.0), Vec2(0.0, 0.0), (1, 0), 4)
        node._remember_head(8, Vec2(0.0, 50.0), Vec2(0.0, 0.0), (0, 1), 4)
        entry = node.known_heads[7]
        node.rt.sim.schedule(5.0, lambda: node._remember_head(
            7, Vec2(60.0, 10.0), Vec2(1.0, 2.0), (2, -1), 2, 3, 4.5
        ))
        node.rt.sim.run()
        assert node.known_heads[7] is entry
        assert list(node.known_heads) == [7, 8]
        assert entry == KnownHead(
            7, Vec2(60.0, 10.0), Vec2(1.0, 2.0), (2, -1), 2, 5.0, 3, 4.5
        )

    def test_out_of_range_rehearing_keeps_entry(self):
        node = lone_node()
        node._remember_head(7, Vec2(50.0, 0.0), Vec2(0.0, 0.0), (1, 0), 4)
        node._remember_head(7, Vec2(RANGE + 1.0, 0.0), Vec2(0.0, 0.0), (2, 0), 1)
        assert node.known_heads[7].position == Vec2(50.0, 0.0)
        assert node.known_heads[7].hops_to_root == 4


class TestClosestKnownHead:
    @SETTINGS
    @given(st.lists(hearing, max_size=40))
    def test_matches_reference_min(self, hearings):
        node = lone_node()
        replay(node, hearings)
        if not node.known_heads:
            assert node._closest_known_head() is None
            return
        expected = min(
            node.known_heads.values(),
            key=lambda info: (
                node.position.distance_to(info.position),
                info.node_id,
            ),
        )
        assert node._closest_known_head() is expected

    def test_exact_tie_goes_to_lower_id(self):
        node = lone_node()
        node._remember_head(9, Vec2(30.0, 40.0), Vec2(0.0, 0.0), (1, 0), 1)
        node._remember_head(4, Vec2(-50.0, 0.0), Vec2(0.0, 0.0), (-1, 0), 1)
        node._remember_head(6, Vec2(0.0, -50.0), Vec2(0.0, 0.0), (0, -1), 1)
        assert node._closest_known_head().node_id == 4


class TestDispatchTable:
    @pytest.mark.parametrize("node_class", NODE_CLASSES)
    def test_table_agrees_with_name_lookup(self, node_class):
        node = lone_node(node_class)
        for name in messages.__all__:
            message_class = getattr(messages, name)
            expected = getattr(node, "_on_" + name.lower(), None)
            handler = node._dispatch.get(message_class)
            if expected is None:
                assert handler is None, name
            else:
                assert handler is expected.__func__, name

    def test_subclass_override_is_dispatched(self):
        # GS3-D overrides _on_org; its table must not reuse GS3-S's.
        assert Gs3StaticNode._dispatch[messages.Org] is Gs3StaticNode._on_org
        assert Gs3DynamicNode._dispatch[messages.Org] is Gs3DynamicNode._on_org
