"""prior-forge benchmark: time analyze / cross_check end to end, gate every
result on re-verified verdicts, and, with ``--trace 1``, report per-layer
numbers from an outside-in span trace.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 42 --trace 0

Run from anywhere inside a checkout that has ``src/prior_forge``. Inputs are
made from ``--seed``; each measuring process is a fresh interpreter that
imports the package from the checkout's ``src`` with
``PRIOR_FORGE_RATIONAL=fraction``. Load is a closed loop with one caller:
each operation starts after the previous one returns. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it state the environment, the
sample counts and everything that is not a metric. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5  # set-up timings per run, the measuring process's included
SETUP_TIMEOUT_S = 30
EXIT_MARGIN_S = 60  # an operation started before the deadline may finish late
TRACE_CAP_FACTOR = 2  # tracing slows the walk; it must still finish the list

END_TO_END = {
    "structures_per_s": "1/s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LP_STATS = {
    "calls": "count",
    "self_s": "s",
    "infeasible": "count",
    "rows_max": "rows",
    "vars_max": "vars",
    "nnz": "count",
    "in_bits_max": "bits",
    "out_bits_max": "bits",
    "share": "share",
}
TRACE_RUN = {
    "trace.ops": "count",
    "trace.structures_per_s": "1/s",
    "trace.untraced_structures_per_s": "1/s",
    "trace.overhead": "x",
}


def layer_names() -> list[str]:
    """Traced functions other than lp.solve, which is reported per purpose."""
    return [name for name in spans.TRACED.values() if name != "lp.solve"]


def per_layer_units() -> dict[str, str]:
    units = {}
    for purpose in spans.PURPOSES:
        for stat, unit in LP_STATS.items():
            units[f"lp.solve.{stat}.{purpose}"] = unit
    for name in layer_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["op.self_s"] = "s"  # time inside operations no traced function covers
    units.update(TRACE_RUN)
    return units


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root, self.workload, self.seed = root, workload, seed
        self.inputs = json.dumps(workloads.make_inputs(workload, seed))
        self.env = dict(
            os.environ,
            PRIOR_FORGE_RATIONAL="fraction",
            PYTHONPATH=str(root / "src"),
            PYTHONHASHSEED="0",
        )

    def child(self, mode: str, seconds: float) -> dict:
        if mode == "trace":
            seconds *= TRACE_CAP_FACTOR
        timeout = SETUP_TIMEOUT_S if mode == "setup" else seconds + EXIT_MARGIN_S
        cmd = [
            sys.executable, str(HERE / "child.py"), str(self.root),
            self.workload, str(self.seed), mode, repr(seconds),
        ]
        try:
            proc = subprocess.run(
                cmd, input=self.inputs, capture_output=True, text=True,
                env=self.env, cwd=self.root, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} process exceeded {timeout} s") from None
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{mode} process exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def throughput(result: dict) -> float:
    """Operations per second spent inside operations (gate excluded)."""
    return len(result["op_s"]) / (sum(result["op_s"]) * result["speed_factor"])


def summarize(workload: str, seed: int, result: dict, setups: list[tuple]) -> dict:
    """Print the human-readable lines; return the end-to-end metrics. Every
    figure is wall time times the process's speed factor; wall-clock
    figures are printed next to them."""
    factor = result["speed_factor"]
    wall_ms = [1000 * t for t in result["op_s"]]
    op_ms = [factor * ms for ms in wall_ms]
    n = len(op_ms)
    print(
        f"env: python={platform.python_version()} backend={result['backend']} "
        f"nproc={os.cpu_count()} PRIOR_FORGE_RATIONAL=fraction "
        f"workload={workload} seed={seed} inputs={describe_inputs(workload, seed)}"
    )
    print(
        f"speed: reference kernel {1000 * result['kernel_mean_s']:.4f} ms "
        f"(mean of {result['kernel_calls']} calls), speed factor {factor:.4f}"
    )
    print(
        f"ops: attempted={result['attempted']} failed={result['failed']} "
        f"ops_failed_frac={result['failed'] / max(1, result['attempted']):.4f} "
        f"capped_at_deadline={'yes' if result['capped'] else 'no'}"
    )
    print(
        f"structures_per_s={throughput(result):.4f} (n={n}; wall clock "
        f"{n / sum(result['op_s']):.4f})"
    )
    line = (
        f"op_p50_ms={statistics.median(op_ms):.3f} (n={n}; wall clock "
        f"{statistics.median(wall_ms):.3f})"
    )
    if n >= 1000:  # at least ten samples beyond p99
        p99 = statistics.quantiles(wall_ms, n=100)[98]
        line += (
            f" op_p99_ms={factor * p99:.3f} (n={n}, {n - round(0.99 * n)} beyond; "
            f"wall clock {p99:.3f})"
        )
    print(line)
    setup_s = [s * k for s, k in setups]
    print(
        f"setup_s samples={len(setups)}: " + " ".join(f"{s:.4f}" for s in setup_s)
        + " (wall clock " + " ".join(f"{s:.4f}" for s, _ in setups) + ")"
    )
    props = result["properties"]
    print("properties: " + " ".join(
        f"{key}={props[key] / max(1, n):.3f} ({props[key]}/{n})" for key in sorted(props)
    ))
    by_size: dict[tuple, list[float]] = {}
    for size, ms in zip(result["sizes"], op_ms):
        if size:
            by_size.setdefault(tuple(size), []).append(ms)
    print("per-size mean op ms: " + " ".join(
        f"M={m},N={k}:{statistics.fmean(v):.1f}(n={len(v)})"
        for (m, k), v in sorted(by_size.items())
    ))
    print(f"sha256 of canonical JSON (informational): {result['sha256']}")
    for err in result["errors"]:
        print(f"failed op: {err}")
    return {
        "structures_per_s": throughput(result),
        "op_p50_ms": statistics.median(op_ms),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def describe_inputs(workload: str, seed: int) -> str:
    if workload == "battery":
        lo = seed * workloads.BATTERY_OPS
        return f"generator-seeds-{lo}..{lo + workloads.BATTERY_OPS - 1}"
    return f"gen.rng_for({workload!r},{seed},k)"


def layer_values(plain: dict, traced: dict) -> dict:
    layers = traced["layers"]
    values = {}
    for purpose, agg in layers["lp"].items():
        for stat in LP_STATS:
            values[f"lp.solve.{stat}.{purpose}"] = agg[stat]
    for name in layer_names():
        values[f"{name}.calls"] = layers["calls"].get(name, 0)
    for name in layer_names() + ["op"]:
        values[f"{name}.self_s"] = layers["self_s"].get(name, 0.0)
    for name in values:
        if ".self_s" in name:
            values[name] *= traced["speed_factor"]
    values["trace.ops"] = len(traced["op_s"])
    values["trace.structures_per_s"] = throughput(traced)
    values["trace.untraced_structures_per_s"] = throughput(plain)
    values["trace.overhead"] = throughput(plain) / throughput(traced)
    print(
        f"tracing overhead: untraced {throughput(plain):.3f}/s, traced "
        f"{throughput(traced):.3f}/s, ratio {values['trace.overhead']:.3f}"
    )
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "prior_forge" / "__init__.py").is_file():
        print(f"no src/prior_forge under {root}; run inside a prior-forge checkout",
              file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed)
    try:
        runner.child("setup", 0)  # warm-up: byte-compiles, fills the OS file cache
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            result = runner.child("setup", 0)
            setups.append((result["setup_s"], result["speed_factor"]))
        plain = runner.child("measure", args.seconds)
        setups.append((plain["setup_s"], plain["setup_speed_factor"]))
        metrics = summarize(args.workload, args.seed, plain, setups)
        attempted, failed = plain["attempted"], plain["failed"]
        units = END_TO_END
        if args.trace:
            traced = runner.child("trace", args.seconds)
            attempted += traced["attempted"]
            failed += traced["failed"]
            for err in traced["errors"]:
                print(f"failed traced op: {err}")
            metrics = layer_values(plain, traced)
            units = per_layer_units()
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
