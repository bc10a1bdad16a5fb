"""High-level driver for GS3 protocol runs.

``Gs3Simulation`` wires a deployment (or a prebuilt network) to a node
program class, runs the diffusing computation, and exposes snapshots;
convergence measurement (``stabilize``, ``run_until_stable``) comes
from :class:`~repro.sim.driver.SimulationDriver`, the loop the sharded
coordinator shares.  This is the main entry point of the public API::

    from repro import GS3Config, Gs3Simulation, uniform_disk
    from repro.sim import RngStreams

    deployment = uniform_disk(500.0, 2000, RngStreams(1))
    sim = Gs3Simulation.from_deployment(deployment, GS3Config())
    sim.run_to_quiescence()
    snapshot = sim.snapshot()
"""

from __future__ import annotations

from typing import Optional, Type

from ..net import ChannelFaultConfig, Deployment, Network
from ..sim.driver import SimulationDriver
from .config import GS3Config
from .gs3s import Gs3StaticNode
from .runtime import Gs3Runtime
from .snapshot import StructureSnapshot, take_snapshot

__all__ = ["Gs3Simulation"]


class Gs3Simulation(SimulationDriver):
    """One protocol run: network + runtime + node programs."""

    def __init__(
        self,
        network: Network,
        config: GS3Config,
        seed: int = 0,
        node_class: Type[Gs3StaticNode] = Gs3StaticNode,
        keep_trace_records: bool = True,
        channel_faults: Optional[ChannelFaultConfig] = None,
    ):
        self.config = config
        self.network = network
        self.node_class = node_class
        self.seed = seed
        self.runtime = Gs3Runtime.build(
            network,
            config,
            seed=seed,
            keep_trace_records=keep_trace_records,
            channel_faults=channel_faults,
        )
        for node_id in network.node_ids():
            node_class(self.runtime, node_id)

    @classmethod
    def from_deployment(
        cls,
        deployment: Deployment,
        config: GS3Config,
        seed: int = 0,
        node_class: Type[Gs3StaticNode] = Gs3StaticNode,
        keep_trace_records: bool = True,
        channel_faults: Optional[ChannelFaultConfig] = None,
    ) -> "Gs3Simulation":
        """Build a network from a deployment and wrap it in a run.

        Node radio range defaults to the configuration's recommended
        maximum (enough for all local coordination).
        """
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

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Boot every node program (idempotent), exactly as a shard
        worker boots its stripe."""
        if getattr(self, "_started", False):
            return
        self._started = True
        self.runtime.boot()

    def run_to_quiescence(self, max_time: Optional[float] = None) -> float:
        """Run until the event queue drains (or ``max_time``).

        Appropriate for GS3-S, which has no periodic timers: an empty
        queue means the diffusing computation terminated.  Returns the
        virtual time reached.
        """
        self.start()
        return self.runtime.sim.run(until=max_time)

    # -- observation -------------------------------------------------------------

    def snapshot(self) -> StructureSnapshot:
        """The current structure."""
        return take_snapshot(self.runtime)

    def gap_axials(self) -> set:
        """Cells currently known to be R_t-gap perturbed.

        The union of every head's gap findings, minus any cell that has
        since been headed.  Pass to the invariant checkers so cells
        adjoining a gap are classified as boundary cells (Section 3.3).
        """
        gaps = set()
        for node in self.runtime.nodes.values():
            gaps |= getattr(node, "gap_axials", set())
        occupied = set(self.snapshot().head_by_axial)
        return gaps - occupied
