"""Time building, parsing, analyzing and rendering structures by size.

    python3 scripts/scaling_sweep.py
    python3 scripts/scaling_sweep.py --states 96 768 --players 3
    python3 scripts/scaling_sweep.py --family chain --states 256 1024 --k 999

For every pair of a state count M and a player count N, a fresh interpreter
builds one structure of the family, writes it as a ``prior-forge/1``
document and loads it back as JSON. The ``planted`` family (the default) is
``harness.planted_structure`` with 2 blocks and ``random.Random(SEED)``. The
``chain`` family is ``harness.chain_structure(M, K)``, N = 2, whose common
prior has bits that grow with M and with K (``--k``): there the bit length
of the numbers, not the state count, sets the cost of the walk and of
rendering, and past the interpreter's digit limit the writers convert by
splitting the numbers in halves at a power of ten. The row then times, in wall-clock milliseconds:

* build: ``planted_structure`` or ``chain_structure``;
* parse: ``jsonio.parse_structure`` on the loaded document;
* analyze: ``report.analyze`` on the parsed structure;
* render: ``AnalysisReport.to_json`` and ``jsonio.dumps_canonical``.

Each row also gives the cell count over all players, the number of nonzero
type entries and ``peak_rss_mb``, the measuring interpreter's peak resident
set size (``ru_maxrss``) in MB once the row is measured. The package is
imported from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATES = (96, 192, 384, 768, 1536)
PLAYERS = (2, 3, 4)
BLOCKS = 2
SEED = 1
CHAIN_K = 2**64 - 1
COLUMNS = (
    "M", "N", "cells", "nonzeros", "build_ms", "parse_ms", "analyze_ms", "render_ms", "peak_rss_mb",
)


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, round((time.perf_counter() - start) * 1000, 1)


def measure(family: str, m: int, n: int, k: int) -> dict:
    """One row of the sweep, measured in this process."""
    sys.path.insert(0, str(ROOT / "src"))
    from prior_forge.harness import chain_structure, planted_structure
    from prior_forge.jsonio import dumps_canonical, parse_structure, structure_to_json
    from prior_forge.report import analyze

    if family == "chain":
        built, build_ms = _timed(chain_structure, m, k)
    else:
        (built, _), build_ms = _timed(planted_structure, m, n, BLOCKS, random.Random(SEED))
    doc = json.loads(dumps_canonical(structure_to_json(built)))
    structure, parse_ms = _timed(parse_structure, doc)
    report, analyze_ms = _timed(analyze, structure)
    _, render_ms = _timed(lambda: dumps_canonical(report.to_json()))
    types = [t for row in structure.cell_types for t in row]
    return {
        "M": m,
        "N": structure.num_players,
        "cells": len(types),
        "nonzeros": sum(len(t.support()) for t in types),
        "build_ms": build_ms,
        "parse_ms": parse_ms,
        "analyze_ms": analyze_ms,
        "render_ms": render_ms,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", choices=("planted", "chain"), default="planted")
    ap.add_argument("--states", type=int, nargs="+", default=STATES)
    ap.add_argument("--players", type=int, nargs="+", default=PLAYERS, help="planted family only")
    ap.add_argument("--k", type=int, default=CHAIN_K, help="chain family: types are (1/(K+1), K/(K+1))")
    ap.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        row = measure(args.family, args.states[0], args.players[0], args.k)
        row["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        print(json.dumps(row))
        return 0
    print(" ".join(f"{c:>10}" for c in COLUMNS))
    players = (2,) if args.family == "chain" else args.players
    for m in args.states:
        for n in players:
            cmd = [
                sys.executable, __file__, "--one", "--family", args.family, "--states", str(m),
                "--players", str(n), "--k", str(args.k),
            ]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            row = json.loads(out)
            print(" ".join(f"{row[c]:>10}" for c in COLUMNS), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
