"""``scripts/bench_pairs.py`` names its output after the PR and the seed."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_seed_writes_its_own_file():
    name = _load().output_name
    assert name(20, 1) == "BENCH_20.json"
    assert name(20, 2) == "BENCH_20_seed2.json"
    assert name(7, 13) == "BENCH_7_seed13.json"
