"""Per-layer tracing of one campaign, from outside the program.

:class:`LayerTracer` wraps public functions of each layer of
``repro`` (class attributes and module attributes, patched in place
before the campaign is built) so every call becomes a span
``(layer, detail)``.  Spans nest on a stack; a span's self time is its
duration minus the time its child spans cover, so the self times of
all spans plus the root's own self time (the residual: driver code no
wrapped call covers) add up to the root span's duration.

Spans are aggregated in memory per ``(layer, detail)`` as count, total
and self seconds, and read once when the campaign ends.  Forked shard
workers inherit the patches; a fork hook switches tracing off in them,
so ``sim.shard`` is measured coordinator-side only.

Wrap points:

* engine: ``Simulator.run`` is a span, and the ``schedule*`` family
  wraps each callback so every executed event is a span named by the
  callback's owner (radio delivery, protocol timer, data plane, chaos
  injection, other engine work);
* ``Tracer.emit``; ``Radio.broadcast/unicast/send_data/send_data_batch``;
  the ``Network`` spatial queries;
* protocol handlers: node ``on_message``, named by payload class;
* ``repro.core.invariants.check_*``; ``snapshot``; ``state_digest``;
* ``ChaosCampaign.inject``; ``ForwardingPlane.inject/inject_batch/on_frame``,
  the routers' ``decide``, ``collect_traffic``/``fold_traffic_report``;
* ``ShardedSimulation.run_for/stabilize`` (the coordinator);
* set-up: ``deployment_from_spec`` and ``build_campaign_simulation``.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["LayerTracer", "MESSAGE_KINDS"]

#: Message kinds reported one by one (the rest count in the totals).
MESSAGE_KINDS = (
    "Org",
    "HeadSet",
    "HeadIntraAlive",
    "HeadInterAlive",
    "AssociateAlive",
    "ParentSeek",
    "JoinProbe",
    "SanityCheckReq",
)

Key = Tuple[str, str]


class LayerTracer:
    """Span stack plus per-span aggregates for one traced campaign."""

    def __init__(self) -> None:
        self.on = False
        #: (layer, detail) -> [count, total_s, self_s]
        self.spans: Dict[Key, List[float]] = {}
        #: Plain counters (scheduled events, packets injected, ...).
        self.counts: Dict[str, int] = {}
        self._stack: List[List[float]] = []
        self._in_handler = False
        self._names: Dict[Any, Key] = {}

    # -- spans -----------------------------------------------------------

    def call(self, key: Key, fn: Callable, args: tuple, kwargs: dict) -> Any:
        """Run ``fn(*args, **kwargs)`` as a span ``key``."""
        if not self.on:
            return fn(*args, **kwargs)
        clock = time.perf_counter
        frame = [0.0]
        stack = self._stack
        stack.append(frame)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = clock() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            record = self.spans.get(key)
            if record is None:
                record = self.spans[key] = [0, 0.0, 0.0]
            record[0] += 1
            record[1] += duration
            record[2] += duration - frame[0]

    def count(self, name: str, n: int = 1) -> None:
        if self.on:
            self.counts[name] = self.counts.get(name, 0) + n

    # -- patching --------------------------------------------------------

    def wrap(self, owner: Any, attr: str, key: Key, counter=None) -> None:
        """Make ``owner.attr`` a span ``key``; ``counter(result, args)``
        may add counts from each call."""
        original = getattr(owner, attr)
        call = self.call

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = call(key, original, args, kwargs)
            if counter is not None and self.on:
                counter(result, args)
            return result

        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Patch every wrap point (before the campaign is built)."""
        import repro.net
        import repro.perturb.chaos as chaos
        import repro.sim
        import repro.sim.replay as replay
        import repro.traffic
        import repro.traffic.runner as runner
        from repro.core import gs3d, gs3m, gs3s, invariants
        from repro.core.simulation import Gs3Simulation
        from repro.net.radio import Radio
        from repro.net.topology import Network
        from repro.routing.hybrid import CellRouter, HybridRouter
        from repro.sim.engine import PeriodicTimer, Simulator
        from repro.sim.shard import ShardedSimulation
        from repro.sim.tracing import Tracer
        from repro.traffic.plane import ForwardingPlane

        self._timer_fire = PeriodicTimer._fire
        self._radio_deliver = Radio._deliver
        self._install_engine(Simulator)
        self.wrap(Tracer, "emit", ("sim.tracing", "emit"))
        for attr in ("broadcast", "unicast"):
            self.wrap(Radio, attr, ("net.radio", attr))
        self.wrap(Radio, "send_data", ("net.radio", "send_data"),
                  lambda _r, _a: self.count("net.radio.data_sends"))
        self.wrap(Radio, "send_data_batch", ("net.radio", "send_data"),
                  lambda _r, a: self.count("net.radio.data_sends", len(a[2])))
        for attr in ("nodes_within", "nearest_node", "physical_neighbors",
                     "connected_to", "broadcast_candidates", "adjacency"):
            self.wrap(Network, attr, ("net.topology", attr))
        for cls in (gs3s.Gs3StaticNode, gs3d.Gs3DynamicNode, gs3m.Gs3MobileNode):
            if "on_message" in vars(cls):
                self._install_handler(cls)
        for name in dir(invariants):
            if name.startswith("check_"):
                self.wrap(invariants, name, ("core.invariants", name))
        self.wrap(Gs3Simulation, "snapshot", ("core.snapshot", "snapshot"))
        self.wrap(ShardedSimulation, "snapshot", ("core.snapshot", "snapshot"))
        self.wrap(replay, "state_digest", ("core.snapshot", "state_digest"))
        self.wrap(repro.sim, "state_digest", ("core.snapshot", "state_digest"))
        self.wrap(chaos.ChaosCampaign, "inject", ("perturb.chaos", "inject"),
                  lambda r, _a: self.count("perturb.chaos.events_injected", r))
        self.wrap(ForwardingPlane, "inject", ("traffic.plane", "inject"),
                  lambda _r, _a: self.count("traffic.plane.injected"))
        self.wrap(ForwardingPlane, "inject_batch", ("traffic.plane", "inject"),
                  lambda _r, a: self.count("traffic.plane.injected", len(a[1])))
        self.wrap(ForwardingPlane, "on_frame", ("traffic.plane", "on_frame"))
        for cls in (CellRouter, HybridRouter):
            self.wrap(cls, "decide", ("routing", "decide"))
        self.wrap(runner, "collect_traffic", ("traffic.report", "collect"))
        for module in (runner, repro.traffic):
            self.wrap(module, "fold_traffic_report", ("traffic.report", "fold"))
        for attr in ("run_for", "stabilize"):
            self.wrap(ShardedSimulation, attr, ("sim.shard", attr))
        self.wrap(repro.net, "deployment_from_spec", ("setup", "deployment"))
        for module in (chaos, runner):
            self.wrap(module, "build_campaign_simulation", ("setup", "build"))
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.on = False

    def _install_engine(self, Simulator) -> None:
        self.wrap(Simulator, "run", ("sim.engine", "run"))
        for attr in ("schedule", "schedule_at", "schedule_recurring"):
            setattr(Simulator, attr, self._scheduler(getattr(Simulator, attr), 2))
        Simulator.schedule_keyed = self._scheduler(Simulator.schedule_keyed, 3)

    def _scheduler(self, original: Callable, position: int) -> Callable:
        """Wrap ``original`` so its callback argument (positional index
        ``position``, counting ``self``) runs as an event span."""
        tracer = self

        @functools.wraps(original)
        def schedule(*args, **kwargs):
            if tracer.on:
                tracer.counts["sim.engine.scheduled"] = (
                    tracer.counts.get("sim.engine.scheduled", 0) + 1
                )
                args = list(args)
                args[position] = tracer._event(args[position])
            return original(*args, **kwargs)

        return schedule

    def _event(self, callback: Callable) -> Callable:
        key = self._event_key(callback)
        call = self.call

        def event():
            return call(key, callback, (), {})

        return event

    def _event_key(self, callback: Callable) -> Key:
        """Attribute an event to its owner by the callback's qualname."""
        func = getattr(callback, "func", callback)  # functools.partial
        func = getattr(func, "__func__", func)  # bound method
        if func is self._timer_fire:
            owner = callback.__self__.callback
            func = getattr(owner, "__func__", owner)
        key = self._names.get(func)
        if key is None:
            key = self._names[func] = self._classify(func)
        return key

    def _classify(self, func: Callable) -> Key:
        if func is self._radio_deliver:
            return ("net.radio", "event:deliver")
        module = getattr(func, "__module__", "") or ""
        name = getattr(func, "__qualname__", repr(func))
        if module.startswith("repro.core"):
            return ("core.protocol", "event:timer")
        if module.startswith("repro.traffic"):
            return ("traffic.plane", "event:" + name)
        if module.startswith("repro.perturb"):
            return ("perturb.chaos", "event:" + name)
        if module.startswith("repro.net"):
            return ("net.radio", "event:" + name)
        return ("sim.engine", "event:" + name)

    def _install_handler(self, cls) -> None:
        original = cls.on_message
        tracer = self

        @functools.wraps(original)
        def on_message(node, payload, sender):
            # Subclass handlers chain to the base with super(); only
            # the outermost call is the delivery's span.
            if tracer._in_handler or not tracer.on:
                return original(node, payload, sender)
            tracer._in_handler = True
            try:
                return tracer.call(
                    ("core.protocol", "msg." + type(payload).__name__),
                    original, (node, payload, sender), {},
                )
            finally:
                tracer._in_handler = False

        cls.on_message = on_message
