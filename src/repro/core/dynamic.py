"""Simulation driver for dynamic (and mobile) networks.

``Gs3DynamicSimulation`` extends the static driver with the
perturbation API of the paper's system model — node joins, leaves,
deaths (energy-driven or scheduled), state corruptions, and movements —
plus convergence measurement for the healing experiments.

Every perturbation is a *driver operation*: a plain descriptor tuple
that :func:`apply_driver_op` interprets.  That one interpreter runs in
this driver and in every shard worker of
:class:`~repro.sim.shard.ShardedSimulation`, so each perturbation's
effect is written once.  Operation ``k`` runs as an event under key
``(DRIVER_BASE + k, -1)`` on its own lane, after every event already
due at the current time, so an unsharded run follows the same
trajectory as a sharded one at any shard count.
"""

from __future__ import annotations

import itertools
import random
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple, Type

from ..geometry import Vec2
from ..net import (
    ChannelFaultConfig,
    Deployment,
    EnergyConfig,
    EnergyTracker,
    JamWindow,
    Network,
    NodeId,
)
from ..sim import PeriodicTimer
from ..sim.engine import DRIVER_BASE
from ..sim.rng import derive_seed
from .config import GS3Config
from .gs3d import Gs3DynamicNode
from .gs3s import Gs3StaticNode
from .simulation import Gs3Simulation
from .state import NodeStatus

__all__ = ["Gs3DynamicSimulation", "apply_driver_op", "default_corruption"]


def default_corruption(node: Gs3StaticNode, rng) -> None:
    """State corruption, the one kind both drivers apply.

    Produces a *plausible but wrong* head state of the kind only sanity
    checking catches: the cell's original ideal location and
    ``<ICC, ICP>`` are scrambled (so the cell's geometry no longer
    matches the hexagonal virtual structure), and the hop count is
    randomised.  The head's position still lies within ``R_t`` of its
    (uncorrupted) current IL, so the mobility-retreat path does not
    mask the corruption.
    """
    state = node.state
    rt = node.cfg.radius_tolerance
    if state.oil is not None:
        offset = Vec2(
            rng.uniform(2.0 * rt, 4.0 * rt) * (1 if rng.random() < 0.5 else -1),
            rng.uniform(2.0 * rt, 4.0 * rt) * (1 if rng.random() < 0.5 else -1),
        )
        state.oil = state.oil + offset
    state.icc_icp = (rng.randrange(1, 4), rng.randrange(0, 6))
    state.hops_to_root = rng.randrange(0, 100)


def _notify(runtime, node_id: NodeId, hook: str, *args) -> None:
    """Call node program hook ``hook`` if the node runs one."""
    handler = getattr(runtime.nodes.get(node_id), hook, None)
    if handler is not None:
        handler(*args)


def _track_energy(host, node_id: NodeId) -> None:
    if host.energy is not None:
        host.energy.add_node(node_id)


def _place(runtime, node_id: NodeId, position: Vec2) -> None:
    runtime.network.add_node(
        position,
        max_range=runtime.config.recommended_max_range,
        node_id=node_id,
    )


def _kill(host, node_id: NodeId, owner: bool) -> None:
    runtime = host.runtime
    runtime.network.kill_node(node_id)
    if owner:
        _notify(runtime, node_id, "on_killed")
        runtime.trace("perturb.kill", node_id)


def _revive(host, node_id: NodeId, owner: bool) -> None:
    runtime = host.runtime
    runtime.network.revive_node(node_id)
    if owner:
        _notify(runtime, node_id, "on_revived")
        _track_energy(host, node_id)
        runtime.trace("perturb.join", node_id)


def _join(host, node_id: NodeId, position: Vec2, owner: bool) -> None:
    runtime = host.runtime
    if not runtime.network.has_node(node_id):
        # A shard worker learns of the node here; the unsharded driver
        # allocated its id in its one network at call time.
        _place(runtime, node_id, position)
    if owner:
        host.node_class(runtime, node_id).start()
        _track_energy(host, node_id)
        runtime.trace("perturb.join", node_id)


def _mirror_add(host, node_id: NodeId, position: Vec2, alive: bool) -> None:
    _place(host.runtime, node_id, position)
    if not alive:
        host.runtime.network.kill_node(node_id)


def _corrupt(host, node_id: NodeId, seed: int) -> None:
    runtime = host.runtime
    default_corruption(runtime.nodes[node_id], random.Random(seed))
    runtime.trace("perturb.corrupt", node_id)


def _move(host, node_id: NodeId, position: Vec2, owner: bool) -> None:
    runtime = host.runtime
    old = runtime.network.node(node_id).position
    runtime.network.move_node(node_id, position)
    if owner:
        _notify(runtime, node_id, "on_moved", old, position)
        runtime.trace("perturb.move", node_id)


def _jam(host, window: JamWindow, emit: bool) -> None:
    runtime = host.runtime
    runtime.radio.ensure_fault_model().add_jam_window(window)
    if emit:
        runtime.tracer.emit(
            runtime.sim.now,
            "perturb.jam",
            node=None,
            center=(window.center.x, window.center.y),
            radius=window.radius,
            until=window.end,
        )


def _traffic_attach(host, plane_config: Dict[str, Any], stream) -> None:
    from ..traffic.plane import ForwardingPlane

    host.plane = ForwardingPlane(
        host.runtime, dict(plane_config), stream=stream
    )


def _traffic_send(host, packet) -> None:
    host.plane.inject(packet)


def _traffic_send_batch(host, packets: tuple) -> None:
    host.plane.inject_batch(packets)


_DRIVER_OPS: Dict[str, Callable[..., None]] = {
    "kill": _kill,
    "revive": _revive,
    "join": _join,
    "mirror_add": _mirror_add,
    "corrupt": _corrupt,
    "move": _move,
    "jam": _jam,
    "traffic_attach": _traffic_attach,
    "traffic_send": _traffic_send,
    "traffic_send_batch": _traffic_send_batch,
}


def apply_driver_op(host, desc: tuple) -> None:
    """Apply driver operation ``desc`` to ``host``'s runtime.

    ``host`` is a :class:`Gs3DynamicSimulation` or a shard worker: it
    has ``runtime``, ``node_class``, ``energy`` (an
    :class:`~repro.net.EnergyTracker` or ``None``; energy-driven death
    runs unsharded only) and the ``plane`` a traffic attach installs.
    The descriptors, with ``owner`` false on a shard that only mirrors
    the node (it takes the physical change, but runs no program hook
    and emits no trace):

    * ``("kill" | "revive", node_id, owner)``
    * ``("join" | "move", node_id, position, owner)``
    * ``("mirror_add", node_id, position, alive)``
    * ``("corrupt", node_id, seed)``: :func:`default_corruption`
      drawing from ``random.Random(seed)``
    * ``("jam", window, emit)``: ``emit`` on exactly one host, so the
      merged trace holds one record
    * ``("traffic_attach", plane_config, stream)``,
      ``("traffic_send", packet)``, ``("traffic_send_batch", packets)``
    """
    _DRIVER_OPS[desc[0]](host, *desc[1:])


class Gs3DynamicSimulation(Gs3Simulation):
    """A protocol run in a dynamic / mobile network."""

    def __init__(
        self,
        network: Network,
        config: GS3Config,
        seed: int = 0,
        node_class: Type[Gs3StaticNode] = Gs3DynamicNode,
        keep_trace_records: bool = True,
        channel_faults: Optional[ChannelFaultConfig] = None,
    ):
        super().__init__(
            network,
            config,
            seed=seed,
            node_class=node_class,
            keep_trace_records=keep_trace_records,
            channel_faults=channel_faults,
        )
        self.energy: Optional[EnergyTracker] = None
        self._energy_timer: Optional[PeriodicTimer] = None
        self._op_counter = itertools.count()
        #: The forwarding plane :meth:`attach_traffic` installed.
        self.plane = None

    @classmethod
    def from_deployment(
        cls,
        deployment: Deployment,
        config: GS3Config,
        seed: int = 0,
        node_class: Type[Gs3StaticNode] = Gs3DynamicNode,
        keep_trace_records: bool = True,
        channel_faults: Optional[ChannelFaultConfig] = None,
    ) -> "Gs3DynamicSimulation":
        network = deployment.build_network(
            max_range=config.recommended_max_range
        )
        return cls(
            network,
            config,
            seed=seed,
            node_class=node_class,
            keep_trace_records=keep_trace_records,
            channel_faults=channel_faults,
        )

    # -- perturbations --------------------------------------------------

    def _operate(self, desc: tuple) -> None:
        """Apply driver operation ``desc`` at the current time.

        Called between runs, it executes (with its same-time follow-ups)
        before returning; called from an event, it is the next event to
        run.
        """
        self.start()
        sim = self.runtime.sim
        lane = DRIVER_BASE + next(self._op_counter)
        sim.schedule_keyed(
            sim.now, (lane, -1), partial(apply_driver_op, self, desc),
            lane=lane,
        )
        if not sim.running:
            sim.run(until=sim.now)

    def kill_node(self, node_id: NodeId) -> None:
        """Unanticipated node leave / fail-stop (no-op on dead nodes)."""
        if not self.network.has_node(node_id):
            return
        if not self.network.node(node_id).alive:
            return  # already dead: don't re-run on_killed or re-trace
        self._operate(("kill", node_id, True))

    def revive_node(self, node_id: NodeId) -> None:
        """A previously dead node re-joins at its old position
        (no-op on live nodes)."""
        if not self.network.has_node(node_id):
            return
        if self.network.node(node_id).alive:
            return  # already alive: don't re-run on_revived or re-trace
        self._operate(("revive", node_id, True))

    def add_node(self, position: Vec2) -> NodeId:
        """A brand-new node joins the network at ``position``."""
        node_id = self.network.add_node(
            position, max_range=self.config.recommended_max_range
        ).node_id
        self._operate(("join", node_id, position, True))
        return node_id

    def corrupt_node(self, node_id: NodeId) -> None:
        """Corrupt a node's protocol state in place
        (:func:`default_corruption`).

        Each corruption draws from its own derived seed, so the draws
        do not depend on which shard executes it.
        """
        if node_id not in self.runtime.nodes:
            raise KeyError(node_id)
        seed = derive_seed(self.seed, f"corruption:{next(self._op_counter)}")
        self._operate(("corrupt", node_id, seed))

    def move_node(self, node_id: NodeId, new_position: Vec2) -> None:
        """Relocate a node (mobile perturbation)."""
        if not self.network.has_node(node_id):
            return
        self._operate(("move", node_id, new_position, True))

    def jam_region(
        self,
        center: Vec2,
        radius: float,
        duration: float,
        start: Optional[float] = None,
    ) -> JamWindow:
        """Jam a disk of the field: broadcasts with either endpoint in
        the disk are dropped during ``[start, start + duration)``.

        An adversarial channel perturbation (no node state is touched).
        Installs a transparent fault model on the radio if the run was
        configured without one, so jamming composes with any channel
        configuration.
        """
        begin = self.now if start is None else start
        window = JamWindow(
            start=begin, end=begin + duration, center=center, radius=radius
        )
        self._operate(("jam", window, True))
        return window

    # -- data plane (repro.traffic) --------------------------------------

    def attach_traffic(self, plane_config: Dict[str, Any], stream=None):
        """Install a forwarding plane (call between runs); returns it.

        ``stream`` optionally spills the plane's records to a
        :class:`~repro.traffic.stream.JsonlRecordStream`.
        """
        self._operate(("traffic_attach", plane_config, stream))
        return self.plane

    def send_packet(self, packet) -> None:
        """Originate a data packet at its source, now."""
        self._operate(("traffic_send", packet))

    def send_packet_batch(self, packets) -> None:
        """Originate a same-source packet batch in one operation."""
        self._operate(("traffic_send_batch", tuple(packets)))

    def traffic_records(
        self,
    ) -> Tuple[Dict[int, tuple], tuple, Dict[NodeId, int]]:
        """The plane's ``(terminals, hop entries, relay loads)``."""
        return self.plane.collect()

    # -- energy-driven death ------------------------------------------------

    def attach_energy(
        self,
        energy_config: EnergyConfig,
        tick_interval: Optional[float] = None,
    ) -> EnergyTracker:
        """Drain node energy each tick; nodes die at zero.

        Heads drain faster than associates (``EnergyConfig``), which is
        the premise behind cell shift: candidate sets near the IL are
        exhausted first, roughly simultaneously across cells.
        """
        interval = tick_interval or self.config.heartbeat_interval
        self.energy = EnergyTracker(energy_config)
        for node_id in self.network.node_ids():
            self.energy.add_node(node_id)

        def drain_all() -> None:
            assert self.energy is not None
            for node in list(self.network.alive_nodes()):
                if node.is_big:
                    continue  # the big node is mains-powered
                role = self._role_of(node.node_id)
                if self.energy.drain_role(node.node_id, role, dt=interval):
                    self.kill_node(node.node_id)
                    self.runtime.trace("perturb.death", node.node_id)

        self._energy_timer = PeriodicTimer(
            self.runtime.sim, interval, drain_all
        )
        self._energy_timer.start()
        return self.energy

    def detach_energy(self) -> None:
        """Stop energy drain (e.g. to let the structure stabilise for
        a measurement)."""
        if self._energy_timer is not None:
            self._energy_timer.stop()
            self._energy_timer = None

    def _role_of(self, node_id: NodeId) -> str:
        node = self.runtime.nodes.get(node_id)
        if node is None:
            return "associate"
        status = node.state.status
        if status.is_head_like:
            return "head"
        if status is NodeStatus.ASSOCIATE and node.state.is_candidate:
            return "candidate"
        return "associate"
