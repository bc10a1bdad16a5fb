"""A node program reads its physical twin through one cached reference.

Each program looks up its ``PhysicalNode`` once, at construction, and
``Network`` mutates that object in place on kill, revive and move.
These tests drive the public perturbation API of a built simulation
and check that the program's view follows every change.
"""

import pytest

from repro.core import GS3Config, Gs3DynamicSimulation, Gs3MobileNode
from repro.geometry import Vec2
from repro.net import uniform_disk
from repro.sim import RngStreams

SEED = 41
CFG = GS3Config(ideal_radius=100.0, radius_tolerance=25.0)


def build(config=CFG):
    deployment = uniform_disk(160.0, 60, RngStreams(SEED))
    return Gs3DynamicSimulation.from_deployment(
        deployment, config, seed=SEED, node_class=Gs3MobileNode
    )


def small_ids(sim, count):
    return [i for i in sorted(sim.runtime.nodes) if i != sim.network.big_id][
        :count
    ]


class TestCachedTwin:
    def test_twin_is_the_network_node(self):
        sim = build()
        for node_id, node in sim.runtime.nodes.items():
            assert node.phys is sim.network.node(node_id)

    def test_position_follows_move(self):
        sim = build()
        sim.run_for(30.0)
        for node_id in small_ids(sim, 3) + [sim.network.big_id]:
            node = sim.runtime.nodes[node_id]
            target = node.position + Vec2(17.5, -4.25)
            sim.move_node(node_id, target)
            assert sim.network.node(node_id).position == target
            assert node.position == target
            assert node.phys is sim.network.node(node_id)

    def test_alive_follows_kill_and_revive(self):
        sim = build()
        sim.run_for(30.0)
        node_id = small_ids(sim, 1)[0]
        node = sim.runtime.nodes[node_id]
        assert node.alive
        sim.kill_node(node_id)
        assert not sim.network.node(node_id).alive
        assert not node.alive
        sim.run_for(10.0)
        sim.revive_node(node_id)
        assert sim.network.node(node_id).alive
        assert node.alive
        assert node.phys is sim.network.node(node_id)

    def test_join_resolves_its_own_twin(self):
        sim = build()
        sim.run_for(30.0)
        position = Vec2(12.0, -31.0)
        node_id = sim.add_node(position)
        node = sim.runtime.nodes[node_id]
        assert node.phys is sim.network.node(node_id)
        assert node.phys.node_id == node_id
        assert node.position == position
        assert node.alive
        sim.move_node(node_id, position + Vec2(5.0, 5.0))
        assert node.position == position + Vec2(5.0, 5.0)


class TestLocationErrorOffset:
    ERROR = 6.0

    @pytest.fixture
    def noisy(self):
        return build(
            GS3Config(
                ideal_radius=100.0,
                radius_tolerance=25.0,
                location_error=self.ERROR,
            )
        )

    def expected_offset(self, node_id):
        # The offset is the node's two draws from its own named stream.
        rng = RngStreams(SEED).stream(f"location.{node_id}")
        return Vec2(rng.gauss(0.0, self.ERROR), rng.gauss(0.0, self.ERROR))

    def test_offset_fixed_across_moves(self, noisy):
        for node_id in small_ids(noisy, 4):
            node = noisy.runtime.nodes[node_id]
            offset = self.expected_offset(node_id)
            assert node.position == node.phys.position + offset
            target = node.phys.position + Vec2(-9.0, 14.0)
            noisy.move_node(node_id, target)
            assert node.position == target + offset

    def test_big_node_stays_exact(self, noisy):
        big = noisy.runtime.nodes[noisy.network.big_id]
        assert big.position == big.phys.position
        target = big.phys.position + Vec2(3.0, 2.0)
        noisy.move_node(big.node_id, target)
        assert big.position == target

    def test_joined_node_gets_its_offset(self, noisy):
        position = Vec2(20.0, 20.0)
        node_id = noisy.add_node(position)
        node = noisy.runtime.nodes[node_id]
        assert node.position == position + self.expected_offset(node_id)
