"""Compare a base commit with the working tree on the repository benchmark.

    python3 scripts/bench_pairs.py --pr 11 --base HEAD --seed 1

The base commit's files are exported with ``git archive`` into a temporary
directory, so the repository's own git state is left untouched. For every
workload declared in ``BENCHMARK.json`` the script runs
``perfbench/run.py`` in 10 alternating pairs (base first in even pairs, the
working tree first in odd ones), each run with the same seed and the run
length ``BENCHMARK.json`` fixes, and writes ``BENCH_<pr>.json`` (seed 1) or
``BENCH_<pr>_seed<k>.json`` (any other seed k) at the repository root, so
runs with different seeds keep their own files: every run's metrics,
operation counts and output digest; per workload, whether every run of
each side was correct (``correct``) and whether both sides printed the same
set of output digests (``outputs_equal``); and per end-to-end metric each
side's median and quartiles, the base's interquartile range, the number of
pairs the working tree won (ties count for neither side), and how far the
working tree's median is worse than the base's, against the metric's bound.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def export(rev: str, target: Path) -> str:
    """Extract the committed files of ``rev`` into ``target``; return its id."""
    sha = subprocess.run(
        ["git", "rev-parse", rev], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    blob = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(target, filter="data")
    return sha


def output_name(pr: int, seed: int) -> str:
    """The BENCH file a run with this PR number and seed writes."""
    return f"BENCH_{pr}.json" if seed == 1 else f"BENCH_{pr}_seed{seed}.json"


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; its result line, plus the
    output digest it prints."""
    cmd = [
        sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} in {tree} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    digest = [line.rsplit(" ", 1)[-1] for line in lines if line.startswith("sha256 of canonical JSON")]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "sha256": digest[0] if digest else None,
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }


def agreement(runs: list[dict]) -> dict:
    """Whether every run of each side was correct, and whether the two
    sides printed the same set of output digests."""
    digests = {side: {run[side]["sha256"] for run in runs} for side in ("base", "change")}
    return {
        "correct": {side: all(run[side]["correct"] for run in runs) for side in ("base", "change")},
        "outputs_equal": digests["base"] == digests["change"],
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict], metric: dict) -> dict:
    name, higher = metric["name"], metric["better"] == "higher"
    base = [run["base"]["metrics"][name] for run in runs]
    change = [run["change"]["metrics"][name] for run in runs]
    bq, cq = quartiles(base), quartiles(change)
    wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
    worse = (bq[1] - cq[1] if higher else cq[1] - bq[1]) / bq[1]
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "base_median": bq[1],
        "base_quartiles": [bq[0], bq[2]],
        "base_iqr": bq[2] - bq[0],
        "change_median": cq[1],
        "change_quartiles": [cq[0], cq[2]],
        "change_wins": wins,
        "pairs": len(runs),
        "worse_by": worse,
        "within_bound": worse <= metric["bound"],
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="number in the output file name")
    ap.add_argument("--base", default="HEAD", help="git revision to compare against")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]

    out = {
        "base": None,
        "change": "working tree",
        "seed": args.seed,
        "seconds": seconds,
        "pairs": PAIRS,
        "host": {"python": platform.python_version(), "machine": platform.machine()},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_tree = Path(tmp)
        out["base"] = export(args.base, base_tree)
        for workload in (w["name"] for w in spec["workloads"]):
            runs = []
            for k in range(PAIRS):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                run = {"pair": k, "first": order[0]}
                for side in order:
                    tree = base_tree if side == "base" else ROOT
                    run[side] = run_once(tree, workload, args.seed, seconds)
                    print(f"{workload} pair {k} {side}: {run[side]['metrics']}", file=sys.stderr)
                runs.append(run)
            out["workloads"][workload] = {
                "runs": runs,
                **agreement(runs),
                "failed": {side: sum(run[side]["failed"] for run in runs) for side in ("base", "change")},
                "metrics": {m["name"]: summarize(runs, m) for m in spec["end_to_end"]},
            }
    target = ROOT / output_name(args.pr, args.seed)
    target.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
