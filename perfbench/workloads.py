"""The benchmark's workloads: campaign dicts generated from a seed.

Each workload is a scenario-shaped campaign dict (the JSON the
``repro chaos`` / ``repro traffic`` paths take) handed to one public
entry point: ``run_chaos_replicate`` (``entry == "chaos"``) or
``run_traffic_replicate`` (``entry == "traffic"``).  Sharding is the
campaign dict's ``shards`` key, so ``ShardedSimulation`` is reached the
way users reach it.

A run of the benchmark executes ``campaigns`` campaigns of one workload,
each in a fresh process, on sub-seeds derived from the run's ``--seed``
(:func:`sub_seed`); sub-seed 0 is the run's seed itself.  This module
is stdlib-only: the driver imports it without importing the program.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Dict

__all__ = ["TINY_CAMPAIGNS", "WORKLOADS", "campaign_data", "sub_seed"]

#: Campaigns per cycle at the tiny sizes (the benchmark's own tests).
TINY_CAMPAIGNS = 2

#: The ``scale_100k`` protocol config of ``benchmarks/bench_perf_engine``.
SCALE_CONFIG = {
    "ideal_radius": 100.0,
    "radius_tolerance": 50.0,
    "heartbeat_interval": 25.0,
}
#: Nodes per hexagonal cell in the scale fields (~6 per R_t-disk).
SCALE_NODES_PER_CELL = 20.0

#: Convergence within a bound: a campaign whose structure still changes
#: 2,000 ticks after configuration starts, or after its storm ends,
#: fails.  Converging campaigns settle within ~800 ticks at these sizes;
#: the default budgets (50,000 / 30,000 ticks) let one that never
#: settles run for many minutes.
CONVERGENCE_BUDGET = 2_000.0

#: The chaos storm of the configure/heal workloads: absolute Poisson
#: rates (events per tick over the whole field) for 300 ticks.
HEAL_CHAOS = {
    "duration": 300.0,
    "kill_rate": 0.02,
    "join_rate": 0.01,
    "corruption_rate": 0.005,
    "jam_rate": 0.005,
    "jam_radius": 150.0,
    "jam_duration": 60.0,
    "configure_budget": CONVERGENCE_BUDGET,
    "heal_budget": CONVERGENCE_BUDGET,
}


def scale_field_radius(n_nodes: int) -> float:
    """Field radius that puts ``SCALE_NODES_PER_CELL`` nodes in a cell."""
    cell_area = 1.5 * math.sqrt(3.0) * SCALE_CONFIG["ideal_radius"] ** 2
    return math.sqrt(n_nodes * cell_area / (SCALE_NODES_PER_CELL * math.pi))


def configure_heal(n_nodes: int, shards: int = 0) -> Dict[str, Any]:
    data: Dict[str, Any] = {
        "config": dict(SCALE_CONFIG),
        "deployment": {
            "kind": "uniform",
            "field_radius": scale_field_radius(n_nodes),
            # The deployment adds the big node to the small ones.
            "n_nodes": n_nodes - 1,
        },
        "chaos": dict(HEAL_CHAOS),
    }
    if shards:
        data["shards"] = shards
        data["shard_executor"] = "process"
    return data


def traffic_volume(target: int) -> Dict[str, Any]:
    """``bench_traffic``'s volume point generating ~``target`` packets."""
    size = max(1, min(100, target // 100))
    return {
        "config": {"ideal_radius": 100.0, "radius_tolerance": 25.0},
        "deployment": {"kind": "uniform", "field_radius": 260.0, "n_nodes": 140},
        "channel": {"bernoulli_loss": 0.05, "latency_jitter": 0.3},
        "traffic": {
            "duration": 200.0,
            "drain": 150.0,
            "routers": ["cell"],
            # 1.1x overshoot so the Poisson draw clears the target.
            "burst": {"rate": 1.1 * target / (200.0 * size), "size": size},
        },
        # No storm (every rate is 0): the block only bounds configuration.
        "chaos": {"configure_budget": CONVERGENCE_BUDGET},
    }


#: name -> entry point, campaigns per cycle, and the campaign dict at
#: the benchmark's size and at the tiny size the benchmark's tests run.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "configure_heal_300": {
        "entry": "chaos",
        "campaigns": 8,
        "data": lambda: configure_heal(300),
        "tiny": lambda: configure_heal(120),
    },
    "traffic_volume_1e5": {
        "entry": "traffic",
        "campaigns": 5,
        "data": lambda: traffic_volume(100_000),
        "tiny": lambda: traffic_volume(1_000),
    },
    "sharded_configure_heal_300": {
        "entry": "chaos",
        "campaigns": 6,
        "data": lambda: configure_heal(300, shards=2),
        "tiny": lambda: configure_heal(120, shards=2),
    },
}


def campaign_data(workload: str, tiny: bool = False) -> Dict[str, Any]:
    """The campaign dict of ``workload`` (a fresh copy)."""
    return WORKLOADS[workload]["tiny" if tiny else "data"]()


def sub_seed(seed: int, index: int) -> int:
    """Seed of campaign ``index`` in a run started with ``seed``."""
    if index == 0:
        return seed
    digest = hashlib.sha256(f"perfbench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")
