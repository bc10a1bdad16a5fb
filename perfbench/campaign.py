"""One benchmark campaign, run in a fresh process.

Usage (the driver, ``run.py``, is the only caller)::

    python3 perfbench/campaign.py '<json spec>'

The spec names the workload, the campaign seed, the driver's
``time.monotonic()`` just before it spawned this process
(``spawned_at``, so set-up time includes interpreter start and
``import repro``), whether to trace, and optional overrides of the
campaign dict.  The process builds the campaign dict, calls the
workload's public entry point once, checks its outputs and prints one
JSON object as its last stdout line: timings, the fingerprint, failure
and integrity verdicts, and (traced) the per-layer span table.

Timing hooks wrap ``build_campaign_simulation`` where the entry points
look it up: each built simulation is armed right away (``start()``,
which the first ``stabilize`` would otherwise do; shard workers boot
there), its ``stabilize`` calls are timed, and its ``close`` first
records the final ``state_digest`` and deterministic counts.  The hook's
own time is excluded from every reported duration.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, campaign_data  # noqa: E402


def canonical_sha(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Probe:
    """Timing and end-state hooks around each built simulation."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.armed: List[float] = []
        #: Per built simulation, ``(start, end)`` of each stabilize call.
        self.stabilize_calls: List[List[tuple]] = []
        self.sims: List[Dict[str, Any]] = []
        self.hook_s = 0.0
        self.topology_at_arm = 0
        self.call_started = 0.0

    def install(self) -> None:
        import repro.perturb.chaos as chaos
        import repro.traffic.runner as runner

        for module in (chaos, runner):
            module.build_campaign_simulation = self._builder(
                module.build_campaign_simulation
            )

    def _builder(self, build):
        def build_and_arm(*args, **kwargs):
            sim = build(*args, **kwargs)
            sim.start()
            self.armed.append(time.monotonic())
            self.topology_at_arm += sim.network.topology_version
            stabilize = sim.stabilize
            close = getattr(sim, "close", None)

            calls = []
            self.stabilize_calls.append(calls)

            def timed_stabilize(*a, **k):
                started = time.perf_counter()
                report = stabilize(*a, **k)
                calls.append((started, time.perf_counter()))
                return report

            def observe_and_close():
                started = time.perf_counter()
                on = self.tracer is not None and self.tracer.on
                if on:
                    self.tracer.on = False
                try:
                    self.sims.append(end_state(sim))
                finally:
                    if on:
                        self.tracer.on = True
                    self.hook_s += time.perf_counter() - started
                if close is not None:
                    close()

            sim.stabilize = timed_stabilize
            sim.close = observe_and_close
            return sim

        return build_and_arm


def end_state(sim) -> Dict[str, Any]:
    """Final digest and deterministic counts of one simulation."""
    from repro.sim import state_digest

    if hasattr(type(sim), "executed_events"):
        events = sim.executed_events
    else:
        events = sim.runtime.sim.executed_events
    faults = sim.runtime.radio.faults
    return {
        "state_digest": state_digest(sim.snapshot()),
        "events": events,
        "trace_counts": dict(sorted(sim.tracer.counts.items())),
        "loss_drops": faults.loss_drops if faults is not None else 0,
        "jam_drops": faults.jam_drops if faults is not None else 0,
        "barriers": getattr(sim, "barrier_count", 0),
        "op_dispatches": getattr(sim, "op_dispatches", 0),
        "topology_version": sim.network.topology_version,
    }


def check(entry: str, result: Dict[str, Any]) -> Dict[str, Any]:
    """Output checks: ``failure`` fails the campaign, ``integrity``
    marks a wrong output (packets not conserved)."""
    failure = integrity = None
    if entry == "chaos":
        if result["configured_at"] is None:
            failure = "configuration did not stabilise within budget"
        elif not result["healed"]:
            failure = (
                f"not healed: {len(result['violations'])} violations, "
                f"first {result['violations'][:1]}"
            )
        return {"failure": failure, "integrity": integrity}
    for router, report in sorted(result["routers"].items()):
        if "error" in report:
            failure = failure or f"{router}: {report['error']}"
            continue
        outcomes = report["outcomes"]
        terminal = sum(v for k, v in outcomes.items() if k != "missing")
        if outcomes["missing"] or terminal != report["generated"]:
            integrity = (
                f"{router}: {terminal} terminal outcomes, "
                f"{outcomes['missing']} missing, {report['generated']} generated"
            )
            failure = failure or integrity
    return {"failure": failure, "integrity": integrity}


def deterministic(entry: str, result: Dict[str, Any], sims) -> Dict[str, Any]:
    """The simulated outcome only: equal on equal trajectories."""
    counts: Dict[str, Any] = {
        "events": sum(s["events"] for s in sims),
        "loss_drops": sum(s["loss_drops"] for s in sims),
        "jam_drops": sum(s["jam_drops"] for s in sims),
        "messages": {
            k: sum(s["trace_counts"].get(k, 0) for s in sims)
            for k in ("msg.broadcast", "msg.unicast", "msg.deliver",
                      "msg.data", "msg.lost")
        },
    }
    if entry == "traffic":
        counts["packets"] = {
            router: report.get("outcomes")
            for router, report in sorted(result["routers"].items())
        }
    body = {
        "result_sha256": canonical_sha(result),
        "state_digests": [s["state_digest"] for s in sims],
        "counts": counts,
    }
    body["fingerprint"] = canonical_sha(body)
    return body


def timings(entry, probe, spawned_at, call_s, ended_at, inst) -> Dict[str, Any]:
    out = {
        "setup_s": probe.armed[0] - spawned_at,
        "wall_s": ended_at - spawned_at - probe.hook_s,
        "campaign_s": call_s - probe.hook_s,
    }
    # Each simulation's first stabilize is its configuration.
    configures = [calls[0] for calls in probe.stabilize_calls if calls]
    out["configure_s"] = sum(end - start for start, end in configures)
    if entry == "chaos":
        # From configuration's end (chaos starts) through the verdict.
        out["heal_s"] = out["campaign_s"] - (
            configures[0][1] - probe.call_started
        )
    else:
        out["forward_s"] = sum(
            v.get("forward_wall_s", 0.0) for v in inst.values()
        )
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = (usage + children) / 1024.0
    return out


def run(spec: Dict[str, Any]) -> Dict[str, Any]:
    workload = spec["workload"]
    entry = WORKLOADS[workload]["entry"]
    data = campaign_data(workload, tiny=spec.get("tiny", False))
    data.update(spec.get("override", {}))
    tracer = None
    if spec.get("trace"):
        from layers import LayerTracer

        tracer = LayerTracer()
    probe = Probe(tracer)
    probe.install()
    if tracer is not None:
        # After the probe, so the set-up span covers arming too.
        tracer.install()
    if entry == "chaos":
        from repro.perturb import run_chaos_replicate as call
    else:
        from repro.traffic import run_traffic_replicate as call
    kwargs: Dict[str, Any] = {}
    inst: Dict[str, Any] = {}
    if entry == "traffic":
        kwargs["instrumentation"] = inst
    campaign = {"data": data, "seed": int(spec["seed"])}
    out: Dict[str, Any] = {"workload": workload, "seed": campaign["seed"]}
    probe.call_started = time.perf_counter()
    try:
        if tracer is not None:
            tracer.on = True
            result = tracer.call(("campaign", "root"), call, (campaign,), kwargs)
            tracer.on = False
        else:
            result = call(campaign, **kwargs)
    except Exception:
        out["failure"] = "raised: " + traceback.format_exc(limit=8)
        out["integrity"] = None
        return out
    call_s = time.perf_counter() - probe.call_started
    ended_at = time.monotonic()
    out.update(check(entry, result))
    out["timings"] = timings(
        entry, probe, spec["spawned_at"], call_s, ended_at, inst
    )
    out["deterministic"] = deterministic(entry, result, probe.sims)
    out["verdict"] = summary(entry, result)
    if tracer is not None:
        out["layers"] = layer_table(tracer, probe, result, entry)
    import numpy

    out["numpy"] = numpy.__version__
    return out


def summary(entry: str, result: Dict[str, Any]) -> Dict[str, Any]:
    if entry == "chaos":
        keys = ("healed", "events_injected", "configured_at", "healing_time")
        return {k: result[k] for k in keys}
    return {
        router: {
            "generated": r.get("generated", 0),
            "delivered": r.get("outcomes", {}).get("delivered", 0),
        }
        for router, r in sorted(result["routers"].items())
    }


def layer_table(tracer, probe, result, entry) -> Dict[str, Any]:
    """Raw spans and counters of the traced campaign (the driver turns
    them into the per-layer metrics)."""
    spans = {
        f"{layer}|{detail}": record
        for (layer, detail), record in sorted(tracer.spans.items())
    }
    # The end-state hook ran inside the root span; take it out.
    root = spans["campaign|root"]
    root[1] -= probe.hook_s
    root[2] -= probe.hook_s
    counts = dict(tracer.counts)
    sims = probe.sims
    counts["net.radio.loss_drops"] = sum(s["loss_drops"] for s in sims)
    counts["net.radio.jam_drops"] = sum(s["jam_drops"] for s in sims)
    counts["net.topology.invalidations"] = sum(
        s["topology_version"] for s in sims
    ) - probe.topology_at_arm
    counts["sim.shard.barriers"] = sum(s["barriers"] for s in sims)
    counts["sim.shard.op_dispatches"] = sum(s["op_dispatches"] for s in sims)
    if entry == "traffic":
        routers = [r for r in result["routers"].values() if "error" not in r]
        counts["traffic.generated"] = sum(r["generated"] for r in routers)
        counts["traffic.delivered"] = sum(
            r["outcomes"]["delivered"] for r in routers
        )
    return {"spans": spans, "counts": counts}


def main() -> int:
    spec = json.loads(sys.argv[1])
    out = run(spec)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
