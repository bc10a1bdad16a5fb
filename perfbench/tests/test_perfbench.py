"""The benchmark's own tests, on tiny campaign sizes.

Run from the repo root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
with open(os.path.join(BENCH, "rationale.json")) as _handle:
    RATIONALE = json.load(_handle)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY_SEED = 5


def bench(workload: str, trace: int, seed: int = TINY_SEED):
    """One tiny run of the benchmark: (result line, report)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2][len("perfbench report "):])
    return json.loads(lines[-1]), report


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    for name in all_names:
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in metrics:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_rationale_covers_every_workload_and_metric():
    assert set(RATIONALE["workloads"]) == set(WORKLOADS)
    for entry in RATIONALE["workloads"].values():
        assert entry["default_seed"] != entry["second_seed"]
    for metric in SPEC["end_to_end"]:
        assert RATIONALE["end_to_end"][metric["name"]]["unit"] == metric["unit"]
    assert set(RATIONALE["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    for entry in RATIONALE["per_layer"].values():
        for metric, workload in entry["should_move"]:
            assert metric in RATIONALE["end_to_end"]
            assert workload == "all" or workload in WORKLOADS


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_and_tracing_does_not_perturb(workload):
    result, _ = bench(workload, trace=0)
    assert result["correct"], result
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())

    traced, report = bench(workload, trace=1)
    # ``correct`` includes: the traced campaign's fingerprint equals the
    # untraced one's byte for byte (and, sharded, shards 2 == shards 1).
    assert traced["correct"], report["failures"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == expected
    campaigns = [c for c in report["campaigns"] if not c["override"]]
    prints = {c["deterministic"]["fingerprint"] for c in campaigns}
    assert len(prints) == 1 and any(c["trace"] for c in campaigns)


def test_layer_self_times_account_for_the_traced_wall():
    _, report = bench("configure_heal_300", trace=1)
    spans = next(c["spans"] for c in report["campaigns"] if c["trace"])
    wall = spans["campaign|root"][1]
    assert sum(record[2] for record in spans.values()) == pytest.approx(wall)
    table = report["metrics_table"]
    assert table["core.protocol.messages"]["value"] > 0
    assert table["trace.residual_share"]["value"] < 0.2


def test_sharded_campaign_matches_shards_1():
    _, report = bench("sharded_configure_heal_300", trace=0)
    single = [c for c in report["campaigns"] if c["override"]]
    assert len(single) == 1 and single[0]["failure"] is None
    sharded = next(c for c in report["campaigns"] if c["seed"] == TINY_SEED
                   and not c["override"])
    for key in ("result_sha256", "state_digests"):
        assert single[0]["deterministic"][key] == sharded["deterministic"][key]


def test_no_program_means_no_result(tmp_path):
    """Outside a checkout of the program the benchmark fails loudly."""
    bare = tmp_path / "perfbench"
    bare.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py") or name.endswith(".json"):
            (bare / name).write_text(open(os.path.join(BENCH, name)).read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "traffic_churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
