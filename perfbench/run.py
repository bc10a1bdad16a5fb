"""The repo benchmark: GS3 campaigns to a verified end state.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run executes campaigns of one workload (``workloads.py``), each in a
fresh process (``campaign.py``) started one at a time, so every campaign
pays interpreter start, ``import repro`` and set-up as a CLI user does
and reports its own peak memory.  Campaign ``i`` of a cycle runs on
``sub_seed(N, i)``; cycles repeat until ``S`` seconds have passed (at
least one cycle); the run reports medians over sub-seeds
(``metrics.py``).  The sub-seed set is fixed by ``N``, so
two commits run identical inputs at one seed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
sub-seed 0 untraced, traced, and untraced again and reports the
per-layer metrics of the traced campaign (``layers.py``) together with
the tracing overhead.  The sharded workload also re-runs sub-seed 0 at
``shards: 1`` and checks that verdict and final ``state_digest`` agree.

A campaign fails when it raises, times out, does not configure, is not
healed, or loses packets; failures are counted, never dropped.  The run
is ``correct`` when no output is wrong: packets are conserved, repeats
and the traced campaign reproduce the untraced fingerprint, and the
sharded run matches ``shards: 1``.  The last stdout line is the result
object; the lines above it give each metric by name and unit, every
campaign's fingerprint, the host's provenance and the span table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import TINY_CAMPAIGNS, WORKLOADS, campaign_data, sub_seed  # noqa: E402
from metrics import end_to_end, per_layer  # noqa: E402

#: A run stops starting campaigns so that it ends within this budget.
DEADLINE_S = 150.0


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="run the tiny campaign sizes (the benchmark's own tests)",
    )
    return parser.parse_args(argv)


class Runner:
    """Starts campaign processes one at a time within the deadline."""

    def __init__(self, workload: str, tiny: bool):
        self.workload = workload
        self.tiny = tiny
        self.started = time.monotonic()
        self.ops: List[Dict[str, Any]] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def campaign(self, seed: int, trace: bool = False, override=None) -> Dict[str, Any]:
        spec = {
            "workload": self.workload,
            "seed": seed,
            "tiny": self.tiny,
            "trace": trace,
            "override": override or {},
        }
        op = {"seed": seed, "trace": trace, "override": override or {}}
        timeout = self.remaining()
        if timeout <= 0:
            op["failure"] = "not started: run deadline reached"
            self.ops.append(op)
            return op
        spec["spawned_at"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "campaign.py"), json.dumps(spec)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            # The campaign may have forked shard workers: stop the group.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            op["failure"] = f"timed out after {timeout:.0f} s"
            self.ops.append(op)
            return op
        lines = stdout.strip().splitlines()
        try:
            op.update(json.loads(lines[-1]))
        except (IndexError, ValueError):
            op["failure"] = (
                f"campaign process exited {proc.returncode}: "
                + stderr.strip()[-2000:]
            )
        self.ops.append(op)
        return op


def mark(op: Dict[str, Any], integrity: str) -> None:
    """Record a wrong output on ``op`` (it then also counts as failed)."""
    op["integrity"] = op.get("integrity") or integrity
    op["failure"] = op.get("failure") or integrity


def fingerprint(op: Dict[str, Any]) -> Optional[str]:
    return op.get("deterministic", {}).get("fingerprint")


def check_sharded(runner: Runner, seed: int, sharded: Dict[str, Any]) -> None:
    """The sharded campaign must equal the same campaign at shards: 1."""
    single = runner.campaign(
        seed, override={"shards": 1, "shard_executor": "inline"}
    )
    a = sharded.get("deterministic", {})
    b = single.get("deterministic", {})
    if not a or not b:
        return
    for key in ("result_sha256", "state_digests"):
        if a[key] != b[key]:
            mark(single, f"shards 2 and shards 1 differ in {key}")


def run_untraced(runner: Runner, seed: int, seconds: float) -> None:
    count = TINY_CAMPAIGNS if runner.tiny else WORKLOADS[runner.workload]["campaigns"]
    first: Dict[int, Dict[str, Any]] = {}
    index = 0
    while runner.remaining() > 0:
        sub = sub_seed(seed, index % count)
        op = runner.campaign(sub)
        prior = first.setdefault(sub, op)
        if prior is not op and fingerprint(prior) != fingerprint(op):
            mark(op, "a repeat of the campaign changed its fingerprint")
        index += 1
        elapsed = time.monotonic() - runner.started
        if index % count == 0 and elapsed >= seconds:
            break
    if _sharded(runner):
        check_sharded(runner, seed, first[seed])


def _sharded(runner: Runner) -> bool:
    return "shards" in campaign_data(runner.workload, runner.tiny)


def run_traced(runner: Runner, seed: int) -> Dict[str, Any]:
    before = runner.campaign(seed)
    traced = runner.campaign(seed, trace=True)
    after = runner.campaign(seed)
    reference = fingerprint(before)
    if fingerprint(after) != reference:
        mark(after, "a repeat of the campaign changed its fingerprint")
    if fingerprint(traced) != reference:
        mark(traced, "the traced campaign's fingerprint differs from untraced")
    if _sharded(runner):
        check_sharded(runner, seed, before)
    return {"traced": traced, "untraced": [before, after]}


def provenance() -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_1m": os.getloadavg()[0],
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` (no git process)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as handle:
                head = handle.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout, or a packed ref)"


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program to measure (src/repro is missing)",
              file=sys.stderr)
        return 2
    stamp = provenance()
    runner = Runner(args.workload, args.tiny)
    traced = None
    if args.trace:
        traced = run_traced(runner, args.seed)
    else:
        run_untraced(runner, args.seed, args.seconds)
    ops = runner.ops
    timed = [
        op for op in ops
        if "timings" in op and not op["trace"] and not op["override"]
    ]
    # A failed campaign reached no verified end state: its time is not
    # a time to one.  It is counted in ``failed``; only when every
    # campaign failed do failed times stand in.
    measured = [op for op in timed if not op.get("failure")] or timed
    if not measured:
        for op in ops:
            print(f"failed campaign seed {op['seed']}: {op.get('failure')}",
                  file=sys.stderr)
        print("perfbench: no campaign finished; nothing measured",
              file=sys.stderr)
        return 1
    stamp["numpy"] = measured[0].get("numpy")
    integrity = [op["integrity"] for op in ops if op.get("integrity")]
    failed = [op for op in ops if op.get("failure")]
    if traced is not None:
        if "layers" not in traced["traced"]:
            print("perfbench: the traced campaign failed: "
                  f"{traced['traced'].get('failure')}", file=sys.stderr)
            return 1
        metrics, table = per_layer(traced)
    else:
        metrics, table = end_to_end(args.workload, measured)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": stamp,
        "metrics_table": table,
        "failures": [
            {"seed": op["seed"], "failure": op["failure"]} for op in failed
        ],
        "campaigns": [
            {
                "seed": op["seed"],
                "trace": op["trace"],
                "override": op["override"],
                "failure": op.get("failure"),
                "verdict": op.get("verdict"),
                "timings": op.get("timings"),
                "deterministic": op.get("deterministic"),
                "spans": op.get("layers", {}).get("spans"),
            }
            for op in ops
        ],
    }
    for name, entry in sorted(table.items()):
        print(f"{args.workload:28s} {name:40s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"{args.workload:28s} {'failed campaigns':40s} {len(failed):>16d} of {len(ops)}")
    print("perfbench report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not integrity,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
