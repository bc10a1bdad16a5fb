"""Property tests: the tuple-heap engine vs a reference model.

Heap entries are plain ``(time, (lane, seq), event)`` tuples with
``__slots__`` records and a live-event counter.  These properties pin
the semantics the rest of the system relies on:

* timestamp order, equal timestamps ordered by lane key: lane first,
  then FIFO within the lane (one lane alone is plain FIFO);
* cancellation (before run, mid-run from callbacks, after run) never
  executes a cancelled event and never corrupts the pending counter;
* ``EventHandle.active`` means "still pending" — false after the event
  executes, not just after cancellation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.engine import CALLER_LANE

#: A small delay alphabet forces plenty of equal-timestamp collisions.
DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 1.0, 2.0, 3.5])
#: A few lanes, including the default caller lane.
LANES = st.sampled_from([0, 3, 7, CALLER_LANE])


def lane_key_order(delays, lanes):
    """Reference order: ``(time, lane, per-lane arrival index)``."""
    seen = {}
    keys = []
    for delay, lane in zip(delays, lanes):
        keys.append((delay, lane, seen.get(lane, 0)))
        seen[lane] = seen.get(lane, 0) + 1
    return sorted(range(len(delays)), key=lambda i: keys[i])


@st.composite
def sweep_case(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    delays = draw(st.lists(DELAYS, min_size=n, max_size=n))
    lanes = draw(st.lists(LANES, min_size=n, max_size=n))
    pre_cancels = draw(st.sets(st.integers(0, n - 1), max_size=n))
    # Optional mid-run action: when event i executes it cancels event j.
    cancel_map = draw(
        st.dictionaries(
            st.integers(0, n - 1), st.integers(0, n - 1), max_size=n
        )
    )
    return delays, lanes, pre_cancels, cancel_map


def reference_execution(delays, lanes, pre_cancels, cancel_map):
    """Pure-python model: lane-key order, cancel-on-execute."""
    order = lane_key_order(delays, lanes)
    cancelled = set(pre_cancels)
    executed = []
    for i in order:
        if i in cancelled:
            continue
        executed.append(i)
        target = cancel_map.get(i)
        if target is not None and target not in executed:
            cancelled.add(target)
    return executed


@given(sweep_case())
@settings(max_examples=200, deadline=None)
def test_execution_matches_reference_model(case):
    delays, lanes, pre_cancels, cancel_map = case
    n = len(delays)
    sim = Simulator()
    executed = []
    handles = []

    def make_callback(i):
        def callback():
            executed.append(i)
            target = cancel_map.get(i)
            if target is not None:
                handles[target].cancel()

        return callback

    for i in range(n):
        sim.set_lane(lanes[i])
        handles.append(sim.schedule(delays[i], make_callback(i)))
    sim.set_lane(CALLER_LANE)
    for i in pre_cancels:
        handles[i].cancel()
    assert sim.pending_events == n - len(pre_cancels)

    sim.run()

    assert executed == reference_execution(
        delays, lanes, pre_cancels, cancel_map
    )
    # The live counter drained exactly; no double decrements anywhere.
    assert sim.pending_events == 0
    # ``active`` means still pending: false for executed AND cancelled.
    assert all(not h.active for h in handles)
    # Cancelling after the fact is a no-op and cannot corrupt the
    # counter into negative territory.
    for h in handles:
        h.cancel()
    assert sim.pending_events == 0


@given(st.lists(DELAYS, min_size=1, max_size=25))
@settings(max_examples=100, deadline=None)
def test_fifo_among_equal_timestamps(delays):
    """One lane alone: lane keys reduce to FIFO among equal times."""
    sim = Simulator()
    executed = []
    for i, delay in enumerate(delays):
        sim.schedule(delay, lambda i=i: executed.append(i))
    sim.run()
    assert executed == sorted(
        range(len(delays)), key=lambda i: (delays[i], i)
    )


@given(st.lists(st.tuples(DELAYS, LANES, DELAYS), min_size=1, max_size=15))
@settings(max_examples=100, deadline=None)
def test_callbacks_claim_from_their_execution_lane(plan):
    """An event scheduled inside a callback claims its key from the
    executing event's lane, and the caller's lane survives ``run``."""
    sim = Simulator()
    executed = []
    for i, (delay, lane, child_delay) in enumerate(plan):

        def parent(i=i, child_delay=child_delay):
            executed.append((sim.now, sim.current_lane, i))
            sim.schedule(
                child_delay,
                lambda: executed.append((sim.now, sim.current_lane, -i - 1)),
            )

        sim.set_lane(lane)
        sim.schedule(delay, parent)
    sim.set_lane(CALLER_LANE)
    sim.run()
    assert sim.current_lane == CALLER_LANE
    # Every child runs on its parent's lane ...
    lane_of = {i: lane for i, (_, lane, _) in enumerate(plan)}
    for _, lane, tag in executed:
        owner = tag if tag >= 0 else -tag - 1
        assert lane == lane_of[owner]
    # ... and the whole run is in (time, lane) order.
    assert [(t, lane) for t, lane, _ in executed] == sorted(
        (t, lane) for t, lane, _ in executed
    )


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_pending_counter_tracks_brute_force(data):
    """Interleave schedule/cancel/step; the O(1) counter always equals
    the brute-force count of live events."""
    sim = Simulator()
    handles = []
    live = 0
    for _ in range(data.draw(st.integers(1, 40))):
        action = data.draw(st.sampled_from(["schedule", "cancel", "step"]))
        if action == "schedule":
            handles.append(
                sim.schedule(data.draw(DELAYS), lambda: None)
            )
            live += 1
        elif action == "cancel" and handles:
            handle = handles[data.draw(st.integers(0, len(handles) - 1))]
            if handle.active:
                live -= 1
            handle.cancel()
        elif action == "step":
            if sim.step():
                live -= 1
        assert sim.pending_events == live
        assert sim.pending_events == sum(1 for h in handles if h.active)
