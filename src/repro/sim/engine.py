"""Discrete-event simulation engine.

The GS3 protocols are specified as guarded-command programs whose
modules execute atomically.  We reproduce that execution model with a
classic discrete-event simulator: every module execution, message
delivery, and timer expiry is an *event* at a virtual time, and events
are executed one at a time in timestamp order, which preserves the
paper's atomicity assumption.

Virtual time is measured in abstract *ticks*; the network layer charges
one tick per local message exchange, so convergence times measured in
ticks are directly comparable to the paper's diffusion-time bounds
(theta(D_b), O(D_p), ...).

Ordering: every event carries a *lane key* ``(origin_lane,
origin_seq)`` claimed from the lane that scheduled it, and the engine
executes events in ``(time, key)`` order.  Each lane's counter advances
only with that lane's own deterministic execution, so the key assigned
to an event is independent of how the overall event population is
interleaved.  That is what lets a spatially sharded run
(``repro.sim.shard``) reproduce the exact execution order of an
unsharded one at any shard count.  A node's lane is its id; the run
loop switches the current lane to each event's *execution* lane before
invoking its callback, so anything the callback schedules claims from
that lane.  Code running outside any event claims from the current
lane, :data:`CALLER_LANE` unless a driver switched it; a simulator used
on that one lane alone orders equal-time events FIFO.

The lane namespace (all lanes sort by plain integer value):

* ``ARBITER_LANE`` (-1, ``repro.net.channel``): channel-reservation
  arbitration, keyed ``(-1, lane, seq)`` by the claim key of the
  request or release it processes, first at its time;
* node ids (small ints): protocol events;
* :data:`CHANNEL_LANE` (``1 << 59``): channel grants, after every node
  event of the same time;
* :data:`DATA_LANE_BASE` ``+ node`` (``(1 << 59) + 1``): data-plane
  frames and retries, after the grants;
* :data:`DRIVER_BASE` ``+ k`` (``1 << 60``): driver operation ``k``
  (kill, join, corrupt, jam, packet injection) and everything it
  schedules;
* :data:`CALLER_LANE` (``1 << 61``): code outside any event, e.g.
  driver callbacks armed with :meth:`Simulator.schedule_at`.

Performance notes: heap entries are plain ``(time, key, event)``
tuples, so ``heapq`` orders them with C tuple comparison and never
falls back to rich comparison on the event record itself (keys are
unique).  ``Event`` is a ``__slots__`` record, and the ``run`` loop
binds the heap operations locally (see
``benchmarks/results/BENCH_perf.json``).

Recurring timers (one heartbeat per node — 100k of them at target
scale) do not live on the one-shot heap at all: they go through a
bucketed *timer wheel* (a calendar queue keyed by ``time //
bucket_width``).  Each bucket is a small heap, and a secondary heap of
per-bucket minima merges the wheel with the one-shot heap in the run
loop.  Re-arming a heartbeat then costs ``O(log bucket)`` on a bucket
holding only the timers due in one wheel slot, instead of ``O(log n)``
on a global heap holding every pending timer in the system.  A wheel
entry claims its key *at arm time* exactly like a one-shot event, and
the run loop always executes the globally smallest ``(time, key)``
across both structures, so the wheel is invisible to the trajectory.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

__all__ = [
    "CALLER_LANE",
    "CHANNEL_LANE",
    "DATA_LANE_BASE",
    "DRIVER_BASE",
    "Event",
    "EventHandle",
    "PeriodicTimer",
    "SimulationError",
    "Simulator",
]

#: Lane of channel-reservation grants.  Sorts after every node lane
#: (node ids are small ints), so same-time grants run after node events.
CHANNEL_LANE = 1 << 59

#: Base lane for data-plane events: node ``n`` claims keys from lane
#: ``DATA_LANE_BASE + n``.  Protocol lanes (plain node ids) replay on
#: every shard mirroring a node, so their counters must advance in
#: lockstep across replicas; data events execute only on the owner, and
#: claiming from ambient protocol lanes would desynchronise the
#: replicas (and could mint colliding keys).  Starts just above
#: :data:`CHANNEL_LANE`, so node 0's data lane is not the grant lane.
DATA_LANE_BASE = CHANNEL_LANE + 1

#: Base lane for driver (perturbation) operations; operation ``k`` owns
#: lane ``DRIVER_BASE + k``.  Everything an operation schedules —
#: including follow-on chains like a joined node's heartbeat — keeps
#: claiming from this lane, which is globally unique per operation and
#: therefore shard-count invariant.
DRIVER_BASE = 1 << 60

#: The default lane: code scheduling outside any event claims from it.
#: It sorts after every other lane, so a driver callback armed for time
#: ``t`` runs after all of ``t``'s protocol and operation events.
CALLER_LANE = 1 << 61

#: An event's ordering key: ``(origin_lane, origin_seq)`` (arbitration
#: events prefix a claimed key with their own lane).
Key = Tuple[int, ...]


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests or runaway simulations."""


class Event:
    """A scheduled callback, doubling as its own cancellation handle.

    Heap ordering lives in the ``(time, key)`` tuple wrapped around the
    record, not on the record itself (keys are unique, so the record is
    never compared).  ``lane`` is the execution lane the run loop
    switches to before invoking ``callback``.  ``cancelled`` and
    ``consumed`` are mutually exclusive: an event is *pending* until it
    is either cancelled (before it runs) or consumed (when the
    simulator pops and executes it).  Folding the handle into the
    record keeps the schedule path at one allocation per event.
    """

    __slots__ = ("time", "callback", "cancelled", "consumed", "lane", "_sim")

    def __init__(
        self,
        sim: "Simulator",
        time: float,
        callback: Callable[[], None],
        lane: int,
    ):
        self._sim = sim
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.consumed = False
        self.lane = lane

    @property
    def active(self) -> bool:
        """Whether the event is still pending (not cancelled, not yet
        executed)."""
        return not self.cancelled and not self.consumed

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already ran or was cancelled."""
        if not self.cancelled and not self.consumed:
            self.cancelled = True
            self._sim._live -= 1


#: The object :meth:`Simulator.schedule` returns.  Kept as a distinct
#: name for callers that only care about the cancel/active surface.
EventHandle = Event


class Simulator:
    """Event heap plus virtual clock.

    The simulator is deliberately minimal: protocol logic lives in the
    network and core packages and registers plain callbacks.  Fairness
    (the paper's weak-fairness assumption on guarded commands) follows
    from executing equal-time events in lane-key order.
    """

    def __init__(
        self,
        max_events: int = 50_000_000,
        timer_bucket_width: Optional[float] = None,
    ):
        self._queue: List[Tuple[float, Key, Event]] = []
        # The lane new events claim keys from, and each lane's next
        # sequence number.
        self._lane = CALLER_LANE
        self._lane_counters: dict = {}
        self._now = 0.0
        self._executed = 0
        self._live = 0
        self._max_events = max_events
        self._running = False
        # -- timer wheel (recurring events) --------------------------------
        # Buckets keyed by slot int(time // width); each bucket is a heap
        # of (time, key, event) entries.  ``_wheel_minheap`` holds
        # (time, key, slot) for every entry that has ever been a
        # bucket minimum (stale entries are dropped lazily), and
        # ``_wheel_min`` caches the exact current global minimum
        # (time, key) so the run loop can merge wheel and heap with two
        # comparisons.
        self._wheel_width = timer_bucket_width
        self._wheel_buckets: dict = {}
        self._wheel_minheap: List[Tuple[float, Key, int]] = []
        self._wheel_min: Optional[Tuple[float, Key]] = None

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in ticks."""
        return self._now

    @property
    def executed_events(self) -> int:
        """Number of events executed so far."""
        return self._executed

    @property
    def max_events(self) -> int:
        """Runaway-loop guard: executing more events than this raises.

        Writable so scale campaigns (100k-node runs burn >50M events
        legitimately) can raise the ceiling without rebuilding the
        simulator the runtime already wired up.
        """
        return self._max_events

    @max_events.setter
    def max_events(self, value: int) -> None:
        if value <= 0:
            raise SimulationError(
                f"max_events must be positive, got {value}"
            )
        self._max_events = value

    @property
    def pending_events(self) -> int:
        """Number of events still pending (excluding cancelled ones).

        O(1): a live counter maintained on schedule/cancel/execute, not
        a heap scan — this is polled inside convergence loops.
        """
        return self._live

    @property
    def running(self) -> bool:
        """Whether :meth:`run` or :meth:`step` is executing an event."""
        return self._running

    # -- lanes -------------------------------------------------------------

    @property
    def current_lane(self) -> int:
        """The lane whose counter new events claim keys from."""
        return self._lane

    def set_lane(self, lane: int) -> int:
        """Switch the current lane; returns the previous lane.

        Used by drivers that schedule from *outside* any event callback
        (node boot); within callbacks the run loop sets the lane to the
        executing event's lane automatically, and restores the caller's
        lane when it returns.
        """
        previous = self._lane
        self._lane = lane
        return previous

    def claim_key(self, lane: Optional[int] = None) -> Key:
        """Claim the next ``(origin_lane, origin_seq)`` key from the
        current lane — or an explicit ``lane`` — without scheduling
        anything.

        The radio claims one key per delivery so lane counters advance
        identically whether the destination is local or lives in
        another shard (where the event is injected with
        :meth:`schedule_keyed` at a barrier).  The data plane passes an
        explicit lane from its own namespace: protocol lane counters
        replay on every shard mirroring a node, while data events run
        only on the owner, so letting them claim from ambient protocol
        lanes would desynchronise the replicas.
        """
        if lane is None:
            lane = self._lane
        counters = self._lane_counters
        n = counters.get(lane, 0)
        counters[lane] = n + 1
        return (lane, n)

    def schedule_keyed(
        self,
        time: float,
        key: Key,
        callback: Callable[[], None],
        lane: int,
    ) -> EventHandle:
        """Schedule ``callback`` at ``time`` under a pre-claimed key.

        ``lane`` is the *execution* lane the run loop switches to before
        invoking the callback (for a radio delivery: the destination
        node's lane).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before now={self._now}"
            )
        event = Event(self, time, callback, lane)
        heapq.heappush(self._queue, (time, key, event))
        self._live += 1
        return event

    # -- scheduling --------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        _push=heapq.heappush,
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` ticks from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        time = self._now + delay
        lane = self._lane
        event = Event(self, time, callback, lane)
        counters = self._lane_counters
        n = counters.get(lane, 0)
        counters[lane] = n + 1
        _push(self._queue, (time, (lane, n), event))
        self._live += 1
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        _push=heapq.heappush,
    ) -> EventHandle:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before now={self._now}"
            )
        lane = self._lane
        event = Event(self, time, callback, lane)
        counters = self._lane_counters
        n = counters.get(lane, 0)
        counters[lane] = n + 1
        _push(self._queue, (time, (lane, n), event))
        self._live += 1
        return event

    def call_soon(self, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at the current time (after pending
        same-time events of the current lane)."""
        return self.schedule(0.0, callback)

    # -- the timer wheel ---------------------------------------------------

    def schedule_recurring(
        self,
        delay: float,
        callback: Callable[[], None],
        interval_hint: Optional[float] = None,
    ) -> EventHandle:
        """Schedule ``callback`` via the timer wheel.

        Semantically identical to :meth:`schedule` (same clock, same
        lane key, same cancellation handle, counted by
        :attr:`pending_events`), but the pending entry lives in a
        calendar-queue bucket instead of the global heap — the arming
        path for *recurring* timers, where the population is large and
        long-lived.  ``interval_hint`` sizes the wheel's buckets on
        first use (the timer's period is the natural choice); it is
        ignored once the width is fixed.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        if self._wheel_width is None:
            hint = interval_hint if interval_hint else delay
            self._wheel_width = hint if hint > 0 else 1.0
        time = self._now + delay
        key = self.claim_key()
        event = Event(self, time, callback, self._lane)
        slot = int(time // self._wheel_width)
        bucket = self._wheel_buckets.get(slot)
        entry = (time, key, event)
        if bucket is None:
            self._wheel_buckets[slot] = [entry]
            heapq.heappush(self._wheel_minheap, (time, key, slot))
        else:
            heapq.heappush(bucket, entry)
            if bucket[0] is entry:
                # New bucket minimum: publish it to the merge heap (the
                # superseded minimum's entry goes stale and is dropped
                # lazily).
                heapq.heappush(self._wheel_minheap, (time, key, slot))
        wheel_min = self._wheel_min
        if wheel_min is None or (time, key) < wheel_min:
            self._wheel_min = (time, key)
        self._live += 1
        return event

    def _wheel_pop(self) -> Optional[Event]:
        """Pop the event at the wheel's current minimum key.

        Returns the event (which may be cancelled — the caller skips it
        exactly like a cancelled heap entry) or ``None`` if the wheel
        is empty.  Maintains the ``_wheel_min`` cache.
        """
        minheap = self._wheel_minheap
        buckets = self._wheel_buckets
        popped: Optional[Event] = None
        while minheap:
            time, key, slot = minheap[0]
            bucket = buckets.get(slot)
            if (
                bucket is None
                or bucket[0][0] != time
                or bucket[0][1] != key
            ):
                # Stale: this entry stopped being its bucket's minimum
                # (a smaller insert superseded it, or the bucket is
                # gone).  The *current* minimum of every bucket is
                # always present in the merge heap, so just drop it.
                heapq.heappop(minheap)
                continue
            if popped is None:
                heapq.heappop(minheap)
                entry = heapq.heappop(bucket)
                popped = entry[2]
                if bucket:
                    head = bucket[0]
                    heapq.heappush(minheap, (head[0], head[1], slot))
                else:
                    del buckets[slot]
                continue  # loop once more to normalise the new top
            self._wheel_min = (time, key)
            return popped
        self._wheel_min = None
        return popped

    def _wheel_peek(self) -> Optional[Tuple[float, Key]]:
        """Exact minimum (time, key) of a *live* wheel entry, or None.

        Unlike ``_wheel_min`` (which may reference a cancelled entry,
        mirroring the heap's lazy deletion), this discards cancelled
        entries — the :meth:`next_event_time` semantics.
        """
        while True:
            wheel_min = self._wheel_min
            if wheel_min is None:
                return None
            slot = int(wheel_min[0] // self._wheel_width)
            bucket = self._wheel_buckets.get(slot)
            if bucket is not None and bucket[0][2].cancelled:
                self._wheel_pop()
                continue
            return wheel_min

    # -- execution ---------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event.

        Returns:
            ``True`` if an event was executed, ``False`` if the queue
            was empty.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        queue = self._queue
        while True:
            wheel_min = self._wheel_min
            if queue:
                head = queue[0]
                if wheel_min is not None and (
                    wheel_min[0] < head[0]
                    or (wheel_min[0] == head[0] and wheel_min[1] < head[1])
                ):
                    time = wheel_min[0]
                    event = self._wheel_pop()
                else:
                    heapq.heappop(queue)
                    time = head[0]
                    event = head[2]
            elif wheel_min is not None:
                time = wheel_min[0]
                event = self._wheel_pop()
            else:
                return False
            if event is None or event.cancelled:
                continue
            event.consumed = True
            self._live -= 1
            self._now = time
            self._executed += 1
            if self._executed > self._max_events:
                raise SimulationError(
                    f"exceeded max_events={self._max_events}; "
                    "likely a runaway protocol loop"
                )
            caller_lane = self._lane
            self._running = True
            self._lane = event.lane
            try:
                event.callback()
            finally:
                self._running = False
                self._lane = caller_lane
            return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queues drain or virtual time passes ``until``.

        Returns:
            The virtual time when the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        caller_lane = self._lane
        queue = self._queue
        pop = heapq.heappop
        max_events = self._max_events
        no_deadline = until is None
        try:
            while True:
                # Pick the globally smallest (time, key) across the
                # one-shot heap and the timer wheel; with an empty
                # wheel this costs one attribute load and a None test
                # per event over the pure-heap loop.
                wheel_min = self._wheel_min
                if queue:
                    head = queue[0]
                    event = head[2]
                    if event.cancelled:
                        pop(queue)
                        continue
                    if wheel_min is not None and (
                        wheel_min[0] < head[0]
                        or (
                            wheel_min[0] == head[0]
                            and wheel_min[1] < head[1]
                        )
                    ):
                        time = wheel_min[0]
                        from_wheel = True
                    else:
                        time = head[0]
                        from_wheel = False
                elif wheel_min is not None:
                    time = wheel_min[0]
                    from_wheel = True
                else:
                    break
                if not no_deadline and time > until:
                    self._now = until
                    break
                if from_wheel:
                    event = self._wheel_pop()
                    if event is None or event.cancelled:
                        continue
                else:
                    pop(queue)
                event.consumed = True
                self._live -= 1
                self._now = time
                self._executed += 1
                if self._executed > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; "
                        "likely a runaway protocol loop"
                    )
                self._lane = event.lane
                event.callback()
        finally:
            self._running = False
            self._lane = caller_lane
        if (
            until is not None
            and self._now < until
            and not self._queue
            and self._wheel_min is None
        ):
            self._now = until
        return self._now

    def run_for(self, duration: float) -> float:
        """Run for ``duration`` ticks of virtual time."""
        return self.run(until=self._now + duration)

    def _peek(self) -> Optional[Event]:
        queue = self._queue
        while queue:
            event = queue[0][2]
            if event.cancelled:
                heapq.heappop(queue)
                continue
            return event
        return None

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or ``None``.

        Considers both the one-shot heap and the timer wheel.
        """
        event = self._peek()
        wheel_key = self._wheel_peek()
        if event is None:
            return wheel_key[0] if wheel_key is not None else None
        if wheel_key is not None and wheel_key[0] < event.time:
            return wheel_key[0]
        return event.time


@dataclass
class PeriodicTimer:
    """A repeating timer built on :class:`Simulator`.

    Protocol heartbeats (HEAD_INTRA_CELL, HEAD_INTER_CELL, the periodic
    SANITY_CHECK) all run on periodic timers.  The timer stops either
    when :meth:`stop` is called or when the callback raises
    ``StopIteration``.

    A nonzero ``jitter`` spreads each period uniformly over
    ``interval ± jitter`` (it desynchronises heartbeats that would
    otherwise collide in lockstep).  Jitter draws come from ``rng`` —
    pass a named stream from
    :class:`~repro.sim.rng.RngStreams` to keep runs deterministic;
    arming a jittered timer without an rng is rejected loudly rather
    than silently ignoring the jitter.
    """

    sim: Simulator
    interval: float
    callback: Callable[[], None]
    jitter: float = 0.0
    rng: Optional[random.Random] = None
    _handle: Optional[EventHandle] = None
    _stopped: bool = False

    def start(self, initial_delay: Optional[float] = None) -> "PeriodicTimer":
        """Arm the timer; first firing after ``initial_delay`` (default:
        one jittered interval).

        Re-starting an already-armed timer first cancels the pending
        firing: without the cancel, the old handle was silently
        overwritten and its firing chain kept re-arming alongside the
        new one — every restart leaked a duplicate, permanently doubled
        heartbeat.
        """
        if self.interval <= 0:
            raise SimulationError(
                f"timer interval must be positive, got {self.interval}"
            )
        if not 0.0 <= self.jitter < self.interval:
            raise SimulationError(
                f"jitter must be in [0, interval), got {self.jitter} "
                f"with interval {self.interval}"
            )
        if self.jitter > 0 and self.rng is None:
            raise SimulationError(
                "nonzero jitter requires an rng (e.g. "
                "RngStreams.stream('timer.jitter')) for deterministic draws"
            )
        if self._handle is not None:
            self._handle.cancel()
        delay = self._next_delay() if initial_delay is None else initial_delay
        self._stopped = False
        self._handle = self.sim.schedule_recurring(
            delay, self._fire, interval_hint=self.interval
        )
        return self

    def _next_delay(self) -> float:
        if self.jitter > 0 and self.rng is not None:
            return self.interval + self.rng.uniform(-self.jitter, self.jitter)
        return self.interval

    def stop(self) -> None:
        """Disarm the timer."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def active(self) -> bool:
        """Whether a future firing is pending.

        Consistent with :attr:`EventHandle.active`: ``True`` only while
        the next-firing event is actually scheduled and uncancelled
        (inside the callback itself the old firing is consumed and the
        next not yet armed, so ``active`` is momentarily ``False``).
        """
        return (
            not self._stopped
            and self._handle is not None
            and self._handle.active
        )

    def _fire(self) -> None:
        if self._stopped:
            return
        try:
            self.callback()
        except StopIteration:
            self.stop()
            return
        # Re-arm unless the callback stopped the timer — or re-started
        # it itself (the handle is then already live; re-arming over it
        # would leak a second firing chain, the same bug class start()
        # guards against).
        if not self._stopped and (
            self._handle is None or not self._handle.active
        ):
            self._handle = self.sim.schedule_recurring(
                self._next_delay(), self._fire, interval_hint=self.interval
            )
