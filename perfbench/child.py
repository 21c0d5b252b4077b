"""One measuring process: set up, walk the workload's operation list, gate
every result, print one JSON line.

    python3 perfbench/child.py <checkout> <workload> <seed> <setup|measure|trace> <seconds> < inputs.json

``setup`` stops after timing set-up (importing prior_forge and parsing the
input documents). ``measure`` times every operation with tracing off;
``trace`` does the same with spans on and also writes the spans to
``perfbench/out/``. The loop stops early, and says so, once ``seconds`` have
passed.

Every process also times a fixed reference kernel, after set-up and after
each operation, and reports ``speed_factor``: the kernel's nominal time over
its mean measured time in this process (``setup_speed_factor`` uses only the
samples taken right after set-up). Multiplying a measured time by it
gives the time on a machine where the kernel takes exactly REFERENCE_S; see
README.md for why the figures are reported that way.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans
from workloads import WORKLOADS

MAX_REPORTED_ERRORS = 5
REFERENCE_S = 0.001  # nominal wall time of one reference_kernel() call
KERNEL_SHARE = 0.05  # kernel time sampled after an operation, per op second
SETUP_KERNEL_S = 0.1  # kernel time sampled by a set-up-only process


def reference_kernel():
    """Fixed exact-rational work that shares no code with prior_forge.
    Never change it: its mean time defines every reported figure's scale."""
    from fractions import Fraction  # already imported by prior_forge

    acc = Fraction(0)
    seen = {}
    for i in range(1, 200):
        q = Fraction(i % 13 + 1, i % 7 + 2)
        acc += q * q
        seen[i % 17] = acc
    return acc


class Speed:
    """Mean wall time of reference_kernel() over one process."""

    def __init__(self) -> None:
        self.total_s = 0.0
        self.calls = 0

    def sample(self, budget_s: float) -> None:
        """Run the kernel for at least budget_s, and at least once."""
        end = perf_counter() + budget_s
        while True:
            t = perf_counter()
            reference_kernel()
            now = perf_counter()
            self.total_s += now - t
            self.calls += 1
            if now >= end:
                return

    def factor(self) -> float:
        return REFERENCE_S * self.calls / self.total_s


def main(argv: list[str]) -> int:
    root, workload, seed, mode = Path(argv[1]), argv[2], argv[3], argv[4]
    seconds = float(argv[5])
    inputs = json.loads(sys.stdin.read())

    t0 = perf_counter()
    import prior_forge

    src = (root / "src").resolve()
    if src not in Path(prior_forge.__file__).resolve().parents:
        print(f"prior_forge imported from {prior_forge.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if mode == "trace":
        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.active = True
    bench = WORKLOADS[workload](prior_forge)
    items = bench.prepare(inputs)
    setup_s = perf_counter() - t0
    speed = Speed()
    speed.sample(SETUP_KERNEL_S)
    setup_factor = speed.factor()
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s, "speed_factor": setup_factor}))
        return 0

    op_s, sizes, errors = [], [], []
    props: dict[str, int] = {}
    failed = 0
    digest = hashlib.sha256()
    capped = False
    deadline = perf_counter() + seconds
    for item in items:
        if perf_counter() >= deadline:
            capped = True
            break
        span = tracer.open("op") if tracer else None
        t = perf_counter()
        try:
            out = bench.run(item)
        except Exception:
            out = None
            problems = [traceback.format_exc(limit=3)]
        op_s.append(perf_counter() - t)
        if tracer:
            tracer.close(span)
            tracer.active = False
        speed.sample(KERNEL_SHARE * op_s[-1])
        if out is not None:
            try:
                problems, found, blob = bench.check(item, out)
            except Exception:
                problems, found, blob = [traceback.format_exc(limit=3)], {}, b""
            digest.update(blob)
            for key, value in found.items():
                props[key] = props.get(key, 0) + int(value)
            sizes.append(bench.size(item, out))
        else:
            sizes.append(None)
        if problems:
            failed += 1
            if len(errors) < MAX_REPORTED_ERRORS:
                errors.append("; ".join(problems))
        if tracer:
            span[4] = {"m": sizes[-1][0], "n": sizes[-1][1]} if sizes[-1] else None
            tracer.active = True

    result = {
        "setup_s": setup_s,
        "setup_speed_factor": setup_factor,
        "attempted": len(op_s),
        "failed": failed,
        "errors": errors,
        "op_s": op_s,
        "sizes": sizes,
        "properties": props,
        "sha256": digest.hexdigest(),
        "capped": capped,
        "speed_factor": speed.factor(),
        "kernel_calls": speed.calls,
        "kernel_mean_s": speed.total_s / speed.calls,
        "backend": f"{type(prior_forge.ZERO).__module__}.{type(prior_forge.ZERO).__name__}",
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.active = False
        result["layers"] = layer_metrics(tracer)
        write_spans(root / "perfbench" / "out" / f"spans-{workload}-{seed}.json", tracer)
    print(json.dumps(result))
    return 0


def layer_metrics(tracer: spans.Tracer) -> dict:
    """Per-name calls and self time; per-purpose solve statistics, with each
    purpose's share of the time spent inside operations."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    lp: dict[str, dict] = {
        p: {"calls": 0, "self_s": 0.0, "infeasible": 0, "rows_max": 0,
            "vars_max": 0, "nnz": 0, "in_bits_max": 0, "out_bits_max": 0}
        for p in spans.PURPOSES
    }
    for span, own in zip(tracer.spans, tracer.self_times()):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if name == "lp.solve" and span[4] and span[4]["purpose"] in lp:
            st, agg = span[4], lp[span[4]["purpose"]]
            agg["calls"] += 1
            agg["self_s"] += own
            agg["infeasible"] += st["infeasible"]
            agg["rows_max"] = max(agg["rows_max"], st["rows"])
            agg["vars_max"] = max(agg["vars_max"], st["vars"])
            agg["nnz"] = max(agg["nnz"], st["nnz"])
            agg["in_bits_max"] = max(agg["in_bits_max"], st["in_bits"])
            agg["out_bits_max"] = max(agg["out_bits_max"], st["out_bits"])
    op_total_s = sum(s[2] - s[1] for s in tracer.spans if s[0] == "op")
    for agg in lp.values():
        agg["share"] = agg["self_s"] / op_total_s if op_total_s else 0.0
    return {"calls": calls, "self_s": self_s, "lp": lp}


def write_spans(path: Path, tracer: spans.Tracer) -> None:
    """All spans, once, at the end: [name, start, end, parent, attrs]. Root
    spans named ``op`` carry the operation's M and N."""
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans}, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
