"""``scripts/scaling_sweep.py`` runs end to end at one tiny size."""

import pathlib
import subprocess
import sys

SWEEP = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "scaling_sweep.py"


def test_sweep_runs_at_one_tiny_size():
    proc = subprocess.run(
        [sys.executable, str(SWEEP), "--states", "6", "--players", "2"],
        check=True, capture_output=True, text=True, timeout=120,
    )
    header, row = proc.stdout.splitlines()
    assert header.split() == [
        "M", "N", "cells", "nonzeros", "build_ms", "parse_ms", "analyze_ms", "render_ms",
        "peak_rss_mb",
    ]
    m, n, cells, nonzeros, *times, peak = row.split()
    assert (m, n) == ("6", "2")
    # Every type is the planted full-support prior on its cell.
    assert 4 <= int(cells) <= 12 and int(nonzeros) == 12
    assert all(float(t) >= 0 for t in times)
    # The measuring interpreter has imported the package, so it holds
    # more than a megabyte.
    assert float(peak) > 1


def test_sweep_runs_one_tiny_chain_row():
    proc = subprocess.run(
        [sys.executable, str(SWEEP), "--family", "chain", "--states", "6", "--k", "3"],
        check=True, capture_output=True, text=True, timeout=120,
    )
    header, row = proc.stdout.splitlines()
    assert header.split()[:4] == ["M", "N", "cells", "nonzeros"]
    m, n, cells, nonzeros, *times, peak = row.split()
    # P1's cells are {w1, w2}, {w3, w4}, {w5, w6}; P2's are {w1}, {w2, w3},
    # {w4, w5}, {w6}.
    assert (m, n, cells, nonzeros) == ("6", "2", "7", "12")
    assert all(float(t) >= 0 for t in times) and float(peak) > 1
