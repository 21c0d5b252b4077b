"""``scripts/bench_pairs.py`` names its output after the PR and the seed,
says whether both sides agree, and flags a metric whose spread is wider
than its bound."""

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


def _pairs(base, change):
    return [
        {"base": {"metrics": {"m": b}}, "change": {"metrics": {"m": c}}}
        for b, c in zip(base, change)
    ]


METRIC = {"name": "m", "unit": "1/s", "better": "higher", "bound": 0.25}


def test_a_spread_wider_than_the_bound_is_unresolved():
    summarize = _load().summarize
    # The base's quartiles 100 and 110 around 105: a spread within the bound.
    narrow = summarize(_pairs([100, 105, 110] * 4, [90, 95, 100] * 4), METRIC)
    assert narrow["base_iqr"] == 10 and narrow["unresolved"] is False
    # Quartiles 50 and 150 around 100: wider than a quarter of the median,
    # and the runs overlap, so the metric is unresolved.
    wide = [50, 100, 150] * 4
    overlapping = summarize(_pairs(wide, [60, 100, 140] * 4), METRIC)
    assert overlapping["base_iqr"] == 100 and overlapping["unresolved"] is True
    # As wide, but every change run reads better than every base run.
    better = summarize(_pairs(wide, [151, 160, 170] * 4), METRIC)
    assert better["unresolved"] is False
    # For a lower-is-better metric, better is below every base run.
    lower = {**METRIC, "better": "lower"}
    assert summarize(_pairs(wide, [40, 45, 49] * 4), lower)["unresolved"] is False
    assert summarize(_pairs(wide, [40, 45, 151] * 4), lower)["unresolved"] is True
