"""Tests for RNG streams, tracing and metric accumulators."""

import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import MetricSet, RngStreams, Summary, Tracer, derive_seed


class TestRngStreams:
    def test_same_seed_same_sequence(self):
        a = RngStreams(42).stream("deploy")
        b = RngStreams(42).stream("deploy")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_differ(self):
        streams = RngStreams(42)
        xs = [streams.stream("a").random() for _ in range(5)]
        ys = [streams.stream("b").random() for _ in range(5)]
        assert xs != ys

    def test_different_seeds_differ(self):
        xs = [RngStreams(1).stream("x").random() for _ in range(5)]
        ys = [RngStreams(2).stream("x").random() for _ in range(5)]
        assert xs != ys

    def test_stream_is_cached(self):
        streams = RngStreams(0)
        assert streams.stream("x") is streams.stream("x")

    def test_fork_independent(self):
        parent = RngStreams(7)
        child = parent.fork("child")
        assert parent.stream("s").random() != child.stream("s").random()

    def test_derive_seed_stable(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")
        assert derive_seed(1, "x") != derive_seed(1, "y")


class TestTracer:
    def test_counts(self):
        tracer = Tracer()
        tracer.emit(1.0, "msg.send", node=3)
        tracer.emit(2.0, "msg.send", node=4)
        tracer.emit(2.5, "head.selected", node=4)
        assert tracer.count("msg.send") == 2
        assert tracer.count("head.selected") == 1
        assert tracer.count("nothing") == 0

    def test_count_prefix(self):
        tracer = Tracer()
        tracer.emit(1.0, "msg.send")
        tracer.emit(1.0, "msg.recv")
        tracer.emit(1.0, "head.selected")
        assert tracer.count_prefix("msg.") == 2

    def test_records_and_details(self):
        tracer = Tracer()
        tracer.emit(1.0, "cell.shift", node=9, new_il=(1, 0))
        [record] = list(tracer.by_category("cell.shift"))
        assert record.node == 9
        assert record.detail("new_il") == (1, 0)
        assert record.detail("missing", "default") == "default"

    def test_last_time(self):
        tracer = Tracer()
        tracer.emit(1.0, "a")
        tracer.emit(5.0, "b")
        tracer.emit(3.0, "a")
        assert tracer.last_time("a") == 3.0
        assert tracer.last_time() == 5.0
        assert tracer.last_time("zzz") is None

    def test_last_time_prefix(self):
        tracer = Tracer()
        tracer.emit(1.0, "msg.send")
        tracer.emit(4.0, "msg.recv")
        assert tracer.last_time_prefix("msg.") == 4.0
        assert tracer.last_time_prefix("xyz") is None

    def test_disable_record_storage(self):
        tracer = Tracer(keep_records=False)
        tracer.emit(1.0, "x")
        assert tracer.records == []
        assert tracer.count("x") == 1

    def test_clear(self):
        tracer = Tracer()
        tracer.emit(1.0, "x")
        tracer.clear()
        assert tracer.count("x") == 0
        assert tracer.records == []


class TestTracerFastPath:
    def test_disabled_tracer_drops_everything(self):
        tracer = Tracer(enabled=False)
        tracer.emit(1.0, "x", node=1)
        assert tracer.records == []
        assert tracer.count("x") == 0
        assert tracer.last_time("x") is None

    def test_reenabling_restores_exact_counters(self):
        tracer = Tracer(enabled=False)
        tracer.emit(1.0, "x")
        tracer.enabled = True
        tracer.emit(2.0, "x")
        tracer.emit(3.0, "x")
        # Counters are exact over the enabled period.
        assert tracer.count("x") == 2
        assert tracer.last_time("x") == 3.0

    def test_radio_fallback_tracer_is_disabled(self):
        from repro.geometry import Vec2
        from repro.net import Network, Radio
        from repro.sim import Simulator

        net = Network(cell_size=50.0)
        a = net.add_node(Vec2(0.0, 0.0), 50.0)
        b = net.add_node(Vec2(10.0, 0.0), 50.0)
        sim = Simulator()
        radio = Radio(net, sim)
        assert not radio.tracer.enabled
        radio.register(b.node_id, lambda p, s: None)
        assert radio.unicast(a.node_id, b.node_id, "x")
        sim.run()
        # Delivery happened; the sink tracer stayed empty.
        assert radio.tracer.counts == {}


class TestTracerCapacity:
    def test_truncation_signalled(self):
        tracer = Tracer(capacity=3)
        assert not tracer.truncated
        for i in range(5):
            tracer.emit(float(i), "x")
        # Storage stops at capacity, counters keep counting ...
        assert len(tracer.records) == 3
        assert tracer.count("x") == 5
        # ... and the divergence is signalled, exactly once.
        assert tracer.truncated
        assert tracer.count("trace.capacity") == 1
        assert tracer.last_time("trace.capacity") == 3.0

    def test_no_signal_below_capacity(self):
        tracer = Tracer(capacity=10)
        for i in range(5):
            tracer.emit(float(i), "x")
        assert not tracer.truncated
        assert tracer.count("trace.capacity") == 0

    def test_no_signal_when_records_disabled(self):
        tracer = Tracer(keep_records=False, capacity=2)
        for i in range(5):
            tracer.emit(float(i), "x")
        # Nothing was dropped — storage was never requested.
        assert not tracer.truncated
        assert tracer.count("trace.capacity") == 0

    def test_clear_resets_truncation(self):
        tracer = Tracer(capacity=1)
        tracer.emit(0.0, "x")
        tracer.emit(1.0, "x")
        assert tracer.truncated
        tracer.clear()
        assert not tracer.truncated
        tracer.emit(2.0, "x")
        assert len(tracer.records) == 1


class TestSummary:
    def test_mean_min_max(self):
        s = Summary()
        for v in [1.0, 2.0, 3.0]:
            s.add(v)
        assert s.count == 3
        assert s.mean == pytest.approx(2.0)
        assert s.min == 1.0
        assert s.max == 3.0

    def test_stddev_matches_statistics(self):
        data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]
        s = Summary()
        for v in data:
            s.add(v)
        assert s.stddev == pytest.approx(statistics.pstdev(data))

    def test_empty(self):
        s = Summary()
        assert s.variance == 0.0
        assert s.as_dict()["min"] == 0.0

    @given(
        st.lists(
            st.floats(
                min_value=-1e3,
                max_value=1e3,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=50,
        ),
        st.lists(
            st.floats(
                min_value=-1e3,
                max_value=1e3,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=50,
        ),
    )
    def test_merge_equals_combined(self, xs, ys):
        merged = Summary()
        for v in xs:
            merged.add(v)
        other = Summary()
        for v in ys:
            other.add(v)
        merged.merge(other)
        combined = xs + ys
        assert merged.count == len(combined)
        assert merged.mean == pytest.approx(
            statistics.fmean(combined), abs=1e-6
        )
        assert merged.stddev == pytest.approx(
            statistics.pstdev(combined), abs=1e-6
        )

    def test_merge_with_empty(self):
        s = Summary()
        s.add(1.0)
        s.merge(Summary())
        assert s.count == 1
        empty = Summary()
        empty.merge(s)
        assert empty.count == 1


class TestMetricSet:
    def test_observe_and_get(self):
        metrics = MetricSet()
        metrics.observe("latency", 1.0)
        metrics.observe("latency", 3.0)
        assert metrics.get("latency").mean == pytest.approx(2.0)
        assert metrics.get("missing") is None

    def test_names_sorted(self):
        metrics = MetricSet()
        metrics.observe("b", 1.0)
        metrics.observe("a", 1.0)
        assert metrics.names() == ["a", "b"]

    def test_as_dict(self):
        metrics = MetricSet()
        metrics.observe("x", 2.0)
        assert metrics.as_dict()["x"]["count"] == 1
