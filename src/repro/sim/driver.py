"""The run-and-stabilise loop every GS3 driver shares.

:class:`SimulationDriver` is the base of the in-process driver
(:class:`~repro.core.simulation.Gs3Simulation`) and of the sharded
coordinator (:class:`~repro.sim.shard.ShardedSimulation`).  It reads
the run only through the engine surface of ``runtime.sim`` (``now``,
``run``, ``run_for``, ``next_event_time``, ``pending_events``) and
``runtime.tracer`` (``last_time``, ``last_time_by_category``), which a
coordinator supplies merged across its shards, so both drivers advance
and judge convergence with the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "STRUCTURE_CHANGE_CATEGORIES",
    "SimulationDriver",
    "StabilityReport",
]

#: Trace categories that indicate the head-level structure changed.
#: ``run_until_stable`` declares convergence when none of these have
#: fired for a full window.
STRUCTURE_CHANGE_CATEGORIES = (
    "head.become",
    "head.selected",
    "head.claim",
    "head.retreat",
    "associate.join",
    "parent.change",
    "cell.shift",
    "cell.abandoned",
    "node.bootup",
    "sanity.reset",
    "root.regenerate",
    "root.handback",
    "big.step_aside",
    "big.reseed",
)


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of a :meth:`SimulationDriver.stabilize` attempt.

    The non-raising companion of :meth:`SimulationDriver.run_until_stable`:
    instead of a bare ``TimeoutError`` a failed stabilisation comes back
    with diagnostics — which invariants are still violated, what kind of
    structure change fired last (and when), and how much work is still
    queued — so chaos campaigns and sweeps can record *why* a replicate
    did not heal.
    """

    #: Whether structure changes ceased within the budget.
    stable: bool
    #: Virtual time when the check ended.
    time: float
    #: The convergence instant (time of the last structure change; the
    #: end time when no change ever occurred).  ``None`` on timeout.
    converged_at: Optional[float]
    #: Category of the most recent structure-changing trace, if any.
    last_change_category: Optional[str]
    #: Time of that trace, if any.
    last_change_time: Optional[float]
    #: Events still pending on the simulator when the check ended.
    pending_events: int
    #: Invariant violations at the end (empty when not checked).
    violations: Tuple[str, ...] = ()
    #: Whether the run was cut off at a replay ``horizon`` before
    #: stability could be decided (see :meth:`SimulationDriver.stabilize`).
    horizon_reached: bool = False

    @property
    def healed(self) -> bool:
        """Stable *and* invariant-clean — the self-healing verdict."""
        return self.stable and not self.violations

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation (for verdict payloads)."""
        return {
            "stable": self.stable,
            "time": self.time,
            "converged_at": self.converged_at,
            "last_change_category": self.last_change_category,
            "last_change_time": self.last_change_time,
            "pending_events": self.pending_events,
            "violations": list(self.violations),
            "horizon_reached": self.horizon_reached,
        }


class SimulationDriver:
    """Advance, stabilise and observe one protocol run.

    A subclass provides ``runtime`` (its ``sim`` and ``tracer``),
    ``network``, ``start()``, ``snapshot()`` and ``gap_axials()``;
    :meth:`kill_region` also needs the dynamic drivers' ``kill_node``.
    """

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.runtime.sim.now

    @property
    def tracer(self):
        """The run's trace sink."""
        return self.runtime.tracer

    def run_for(self, duration: float) -> float:
        """Advance the run by ``duration`` ticks."""
        self.start()
        return self.runtime.sim.run_for(duration)

    def kill_region(self, center, radius: float) -> List[int]:
        """Kill every live node in a disk; returns the victims."""
        victims = [
            n.node_id
            for n in self.network.nodes_within(center, radius)
            if not n.is_big
        ]
        for node_id in victims:
            self.kill_node(node_id)
        return victims

    def run_until_stable(
        self,
        window: float = 50.0,
        max_time: float = 100_000.0,
        categories: Iterable[str] = STRUCTURE_CHANGE_CATEGORIES,
    ) -> float:
        """Run until no structure-changing event fires for ``window``.

        Appropriate for GS3-D/M, whose heartbeat timers keep the event
        queue busy forever.  Returns the time of the *last* structure
        change (the convergence instant), or the current time if no
        change ever occurred.

        Raises:
            TimeoutError: when ``max_time`` passes without stability.
            Use :meth:`stabilize` for a non-raising variant that
            returns diagnostics instead.
        """
        report = self.stabilize(
            window=window,
            max_time=max_time,
            categories=categories,
            check_invariants=False,
        )
        if not report.stable:
            raise TimeoutError(
                f"structure did not stabilise within {max_time} ticks"
            )
        # ``converged_at`` is set on every stable report; asserting the
        # contract here keeps the float return type honest.
        assert report.converged_at is not None
        return report.converged_at

    def stabilize(
        self,
        window: float = 50.0,
        max_time: float = 100_000.0,
        categories: Iterable[str] = STRUCTURE_CHANGE_CATEGORIES,
        check_invariants: bool = True,
        field=None,
        dynamic: bool = True,
        horizon: Optional[float] = None,
    ) -> StabilityReport:
        """Non-raising :meth:`run_until_stable`: always a report.

        On success the report carries the convergence instant; on
        timeout it carries diagnostics (failing invariants, the last
        structure-change category and time, pending event count)
        instead of an exception — the form chaos campaigns aggregate
        into :class:`~repro.perturb.chaos.StabilizationVerdict`.

        ``check_invariants`` runs the SI/DI conjunction at the end
        (pass the deployment ``field`` for the boundary-aware checks;
        ``dynamic`` selects the DI children bound).  Skipped checks
        leave ``violations`` empty.

        ``horizon`` is the deterministic-replay cut-off: the run stops
        the moment virtual time reaches it (events at times ``<=
        horizon`` are processed, nothing beyond) and the report comes
        back with ``horizon_reached=True``.  Crucially the stabilise
        loop still advances in exactly the same ``window``-sized steps
        as an uncapped run up to that point, so the pre-horizon
        trajectory — and therefore the state at the horizon — is
        byte-identical to the uninterrupted run's.
        """
        self.start()
        sim = self.runtime.sim
        tracer = self.runtime.tracer
        categories = tuple(categories)
        stable = False
        converged_at: Optional[float] = None
        while sim.now < max_time:
            if horizon is not None and sim.now + window > horizon:
                if sim.now < horizon:
                    sim.run(until=horizon)
                return StabilityReport(
                    stable=False,
                    time=sim.now,
                    converged_at=None,
                    last_change_category=None,
                    last_change_time=None,
                    pending_events=sim.pending_events,
                    horizon_reached=True,
                )
            sim.run_for(window)
            last_change = tracer.last_time(*categories)
            if last_change is None or last_change <= sim.now - window:
                stable = True
                converged_at = (
                    last_change if last_change is not None else sim.now
                )
                break
            if sim.next_event_time() is None:
                # The queue drained mid-window; ``last_change`` is not
                # None here (the branch above broke otherwise).
                stable = True
                converged_at = last_change
                break
        last_category: Optional[str] = None
        last_time: Optional[float] = None
        by_category = tracer.last_time_by_category
        for category in categories:
            t = by_category.get(category)
            if t is not None and (last_time is None or t > last_time):
                last_category, last_time = category, t
        violations: List[str] = []
        if check_invariants:
            from ..core.invariants import check_static_invariant

            violations = check_static_invariant(
                self.snapshot(),
                self.network,
                field=field,
                gap_axials=self.gap_axials(),
                dynamic=dynamic,
            )
        return StabilityReport(
            stable=stable,
            time=sim.now,
            converged_at=converged_at,
            last_change_category=last_category,
            last_change_time=last_time,
            pending_events=sim.pending_events,
            violations=tuple(violations),
        )
