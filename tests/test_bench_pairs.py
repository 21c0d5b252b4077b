"""``scripts/bench_pairs.py`` names its output after the PR and the seed,
and says whether both sides agree."""

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


def _run(correct, sha256):
    return {"correct": correct, "sha256": sha256}


def test_agreement_reports_correctness_and_equal_outputs():
    agreement = _load().agreement
    same = [
        {"base": _run(True, "a"), "change": _run(True, "a")},
        {"base": _run(True, "a"), "change": _run(True, "a")},
    ]
    assert agreement(same) == {"correct": {"base": True, "change": True}, "outputs_equal": True}
    # One incorrect run marks its side; the digests compare as sets.
    mixed = [
        {"base": _run(True, "a"), "change": _run(False, "b")},
        {"base": _run(True, "b"), "change": _run(True, "a")},
    ]
    assert agreement(mixed) == {"correct": {"base": True, "change": False}, "outputs_equal": True}
    # A digest printed by one side only makes the outputs differ.
    differ = [
        {"base": _run(False, "a"), "change": _run(True, "a")},
        {"base": _run(True, "a"), "change": _run(True, "c")},
    ]
    assert agreement(differ) == {"correct": {"base": False, "change": True}, "outputs_equal": False}
