"""Reduce campaign results to the benchmark's metrics.

:func:`end_to_end` turns the untraced campaigns of a run into the
end-to-end metrics; :func:`per_layer` turns one traced campaign (plus
its untraced twins) into the per-layer metrics.  Both return
``(metrics, table)``: ``metrics`` holds exactly the names listed in
``BENCHMARK.json`` for that mode, ``table`` adds the phase times
(``configure_s``, ``heal_s`` or ``forward_s``) and the traffic figures
(``packets_per_s``, ``delivery_ratio.<router>``), printed but not
gated.  Every entry is
``{"value": v, "unit": u}``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, List, Tuple

from layers import MESSAGE_KINDS
from workloads import WORKLOADS

Metrics = Dict[str, Dict[str, Any]]


def _entry(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, ops: List[Dict[str, Any]]) -> Tuple[Metrics, Metrics]:
    """Medians: campaign times over sub-seeds (a repeated sub-seed
    contributes the median of its repeats), set-up time and peak memory
    over campaign processes.  A median ignores the odd campaign that
    configures 20x slower than its siblings, or that the host stalls."""
    phase = "heal_s" if WORKLOADS[workload]["entry"] == "chaos" else "forward_s"
    by_seed: Dict[int, List[Dict[str, float]]] = defaultdict(list)
    for op in ops:
        by_seed[op["seed"]].append(op["timings"])

    def per_seed(key: str) -> float:
        return statistics.median(
            statistics.median(t[key] for t in runs) for runs in by_seed.values()
        )

    def median(key: str) -> float:
        return statistics.median(op["timings"][key] for op in ops)

    metrics = {
        "setup_s": _entry(median("setup_s"), "s"),
        "wall_s": _entry(per_seed("wall_s"), "s"),
        "peak_rss_mb": _entry(median("peak_rss_mb"), "MB"),
    }
    # Phase times swing with each seed's convergence instant (stabilize
    # runs whole settle windows), so they are printed, not gated.
    table = dict(metrics)
    table["configure_s"] = _entry(per_seed("configure_s"), "s")
    table[phase] = _entry(per_seed(phase), "s")
    if phase == "forward_s":
        generated: Dict[str, int] = defaultdict(int)
        delivered: Dict[str, int] = defaultdict(int)
        for op in ops:
            for router, counts in op["verdict"].items():
                generated[router] += counts["generated"]
                delivered[router] += counts["delivered"]
        forward = sum(op["timings"]["forward_s"] for op in ops)
        table["packets_per_s"] = _entry(sum(generated.values()) / forward, "1/s")
        for router in sorted(generated):
            table[f"delivery_ratio.{router}"] = _entry(
                delivered[router] / generated[router] if generated[router] else 0.0,
                "ratio",
            )
    return metrics, table


def per_layer(traced: Dict[str, Any]) -> Tuple[Metrics, Metrics]:
    """Per-layer counts, self times and ratios of the traced campaign."""
    op = traced["traced"]
    spans = {
        tuple(name.split("|", 1)): record
        for name, record in op["layers"]["spans"].items()
    }
    counts = op["layers"]["counts"]

    def total(layer: str, pick=lambda detail: True, field: int = 2) -> float:
        return sum(
            record[field]
            for (lay, detail), record in spans.items()
            if lay == layer and pick(detail)
        )

    def calls(layer: str, pick=lambda detail: True) -> int:
        return int(total(layer, pick, field=0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def is_event(detail: str) -> bool:
        return detail.startswith("event:")

    def is_msg(detail: str) -> bool:
        return detail.startswith("msg.")

    events = sum(
        int(record[0]) for (_l, detail), record in spans.items() if is_event(detail)
    )
    scheduled = counts.get("sim.engine.scheduled", 0)
    deliveries = calls("net.radio", lambda d: d == "event:deliver")
    loss, jam = counts["net.radio.loss_drops"], counts["net.radio.jam_drops"]
    root = spans[("campaign", "root")]
    untraced = [t["timings"]["campaign_s"] for t in traced["untraced"] if "timings" in t]
    barriers = counts["sim.shard.barriers"]
    ops = counts["sim.shard.op_dispatches"]
    values = {
        "sim.engine.events": (events, "count"),
        "sim.engine.scheduled": (scheduled, "count"),
        "sim.engine.executed_ratio": (ratio(events, scheduled), "ratio"),
        "sim.engine.events_per_s": (
            ratio(events, total("sim.engine", lambda d: d == "run", 1)), "1/s"
        ),
        "sim.engine.self_s": (total("sim.engine"), "s"),
        "sim.tracing.emits": (calls("sim.tracing"), "count"),
        "sim.tracing.self_s": (total("sim.tracing"), "s"),
        "net.radio.broadcasts": (calls("net.radio", lambda d: d == "broadcast"), "count"),
        "net.radio.unicasts": (calls("net.radio", lambda d: d == "unicast"), "count"),
        "net.radio.data_sends": (counts.get("net.radio.data_sends", 0), "count"),
        "net.radio.deliveries": (deliveries, "count"),
        "net.radio.delivered_ratio": (ratio(deliveries, deliveries + loss + jam), "ratio"),
        "net.radio.loss_drops": (loss, "count"),
        "net.radio.jam_drops": (jam, "count"),
        "net.radio.self_s": (total("net.radio"), "s"),
        "net.topology.queries": (calls("net.topology"), "count"),
        "net.topology.invalidations": (counts["net.topology.invalidations"], "count"),
        "net.topology.self_s": (total("net.topology"), "s"),
        "core.protocol.messages": (calls("core.protocol", is_msg), "count"),
        "core.protocol.self_s": (total("core.protocol", is_msg), "s"),
        "core.protocol.timer_fires": (calls("core.protocol", is_event), "count"),
        "core.protocol.timer_self_s": (total("core.protocol", is_event), "s"),
    }
    for kind in MESSAGE_KINDS:
        values[f"core.protocol.msg.{kind}.calls"] = (
            calls("core.protocol", lambda d: d == "msg." + kind), "count"
        )
        values[f"core.protocol.msg.{kind}.self_s"] = (
            total("core.protocol", lambda d: d == "msg." + kind), "s"
        )
    values.update({
        "core.invariants.checks": (calls("core.invariants"), "count"),
        "core.invariants.self_s": (total("core.invariants"), "s"),
        "core.snapshot.calls": (calls("core.snapshot"), "count"),
        "core.snapshot.self_s": (total("core.snapshot"), "s"),
        "perturb.chaos.events_injected": (
            counts.get("perturb.chaos.events_injected", 0), "count"
        ),
        "perturb.chaos.self_s": (total("perturb.chaos"), "s"),
        "traffic.plane.injected": (counts.get("traffic.plane.injected", 0), "count"),
        "traffic.plane.frames": (calls("traffic.plane", lambda d: d == "on_frame"), "count"),
        "traffic.plane.delivered_ratio": (
            ratio(counts.get("traffic.delivered", 0), counts.get("traffic.generated", 0)),
            "ratio",
        ),
        "traffic.plane.self_s": (total("traffic.plane"), "s"),
        "routing.decide_calls": (calls("routing"), "count"),
        "routing.self_s": (total("routing"), "s"),
        "traffic.report.self_s": (total("traffic.report"), "s"),
        "sim.shard.barriers": (barriers, "count"),
        "sim.shard.op_dispatches": (ops, "count"),
        "sim.shard.ops_per_barrier": (ratio(ops, barriers), "ratio"),
        "sim.shard.coordinator_s": (total("sim.shard"), "s"),
        "setup.self_s": (total("setup"), "s"),
        "trace.wall_s": (root[1], "s"),
        "trace.residual_s": (root[2], "s"),
        "trace.residual_share": (ratio(root[2], root[1]), "ratio"),
        "trace.overhead": (
            ratio(root[1], statistics.median(untraced)) if untraced else 0.0, "ratio"
        ),
    })
    metrics = {name: _entry(value, unit) for name, (value, unit) in values.items()}
    return metrics, dict(metrics)
