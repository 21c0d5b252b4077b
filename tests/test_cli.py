"""Command line behavior: exit codes, JSON output, determinism."""

import hashlib
import json
import sys

import pytest

from prior_forge import SCHEMA, DimensionError, VerificationError, dumps_canonical, harness, lp, report
from prior_forge.cli import main
from prior_forge.jsonio import loads, parse_distribution, parse_rational_value, parse_structure
from prior_forge.priors import PriorWitness


@pytest.fixture()
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture()
def spath(fixture_path):
    return lambda name: str(fixture_path(name))


def write_json(tmp_path, name, doc):
    target = tmp_path / name
    target.write_text(json.dumps(doc), encoding="utf-8")
    return str(target)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- check -------------------------------------------------------------------


def test_check_ok(run, spath):
    code, out, _ = run("check", spath("intro"))
    assert code == 0
    assert out.startswith("ok: 5 states, 2 players")


def test_check_json(run, spath):
    code, out, _ = run("check", "--json", spath("pl"))
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == SCHEMA
    assert doc["ok"] is True and doc["states"] == 3


def test_missing_file_is_input_error(run):
    code, _, err = run("check", "/nonexistent/s.json")
    assert code == 2
    assert "error:" in err


def test_float_rejected(run, tmp_path):
    target = tmp_path / "s.json"
    target.write_text('{"states": ["a"], "players": ["P"], "partitions": [[["a"]]], "types": [[[0.5]]]}')
    code, _, err = run("check", str(target))
    assert code == 2
    assert "float" in err


def test_loose_rational_literal_is_schema_error(run, tmp_path):
    # Each entry would read as 1/2 if int() parsed it.
    doc = {
        "states": ["a", "b"],
        "players": ["P"],
        "partitions": [[["a", "b"]]],
        "types": [[["5_0/1_00", " -1/-2 "]]],
    }
    code, out, err = run("check", write_json(tmp_path, "s.json", doc))
    assert code == 2 and out == ""
    assert "malformed rational literal" in err


@pytest.mark.parametrize(
    "content",
    [
        b'{"states": ["\xff"]}',  # not UTF-8
        b"[" * 100_000 + b"]" * 100_000,  # nested past the recursion limit
        b"1" * 5000,  # read exactly, past the digit limit, but not a structure
    ],
    ids=["not_utf8", "deep_nesting", "long_integer"],
)
def test_unreadable_json_is_input_error(run, tmp_path, content):
    target = tmp_path / "s.json"
    target.write_bytes(content)
    code, _, err = run("check", str(target))
    assert code == 2
    assert err.startswith("error:")


def test_wrong_schema_tag(run, tmp_path, spath):
    doc = read_json(spath("pl"))
    doc["schema"] = "prior-forge/99"
    code, _, err = run("check", write_json(tmp_path, "s.json", doc))
    assert code == 2


def test_invalid_structure(run, tmp_path):
    doc = {
        "states": ["a", "b"],
        "players": ["P1"],
        "partitions": [[["a"]]],  # does not cover b
        "types": [[[1, 0]]],
    }
    code, _, err = run("check", write_json(tmp_path, "s.json", doc))
    assert code == 2


# -- components ----------------------------------------------------------------


def test_components(run, spath):
    code, out, _ = run("components", spath("ex_pl1"))
    assert code == 0
    assert "minimal:" in out and "{w1}" in out and "{w4}" in out


def test_components_all_json(run, spath):
    code, out, _ = run("components", "--all", "--json", spath("ex_pl1"))
    assert code == 0
    doc = json.loads(out)
    assert doc["minimal"] == [["w1"], ["w4"]]
    assert len(doc["all"]) == 4


# -- prior ---------------------------------------------------------------------


def test_prior_present(run, spath):
    code, out, _ = run("prior", "--kind", "common", spath("intro"))
    assert code == 0
    assert "common prior: present" in out


def test_prior_absent_with_refutation(run, spath):
    code, out, _ = run("prior", "--kind", "common", "--json", spath("ex_pl2"))
    assert code == 3
    doc = json.loads(out)
    assert doc["holds"] is False
    assert doc["refutation"] is not None


def test_prior_strong_witness(run, spath):
    code, out, _ = run("prior", "--kind", "strong", "--json", spath("ex_plbet4"))
    assert code == 0
    doc = json.loads(out)
    assert doc["witness"]["prior"] == ["1/4", "1/4", "1/4", "1/4"]


def test_prior_check_mode(run, spath, tmp_path):
    p = write_json(tmp_path, "p.json", {"dist": ["1/6", "1/6", "1/6", "1/4", "1/4"]})
    code, out, _ = run("prior", "--kind", "common", "--check", p, spath("intro"))
    assert code == 3
    assert "is not a common prior" in out
    u = write_json(tmp_path, "u.json", {"dist": ["1/5", "1/5", "1/5", "1/5", "1/5"]})
    code, out, _ = run("prior", "--kind", "strong", "--check", u, spath("intro"))
    assert code == 0


# -- trade ---------------------------------------------------------------------


def test_trade_exit_codes(run, spath):
    code, out, _ = run("trade", "--kind", "agreeable", spath("ex_pl2"))
    assert code == 0 and "present" in out
    code, out, _ = run("trade", "--kind", "agreeable", spath("intro"))
    assert code == 3 and "absent" in out
    code, out, _ = run("trade", "--kind", "weak", spath("pl4"))
    assert code == 0
    code, out, _ = run("trade", "--kind", "acceptable", spath("ex_plbet4"))
    assert code == 3


# -- pump ----------------------------------------------------------------------


def test_pump_found(run, spath, tmp_path):
    p = write_json(tmp_path, "p.json", {"dist": [0, 0, 1, 0]})
    code, out, _ = run("pump", "--dist", p, spath("pl4"))
    assert code == 0
    assert "money pump: plain" in out


def test_pump_grade_required(run, spath, tmp_path):
    p = write_json(tmp_path, "p.json", {"dist": [0, 0, 1, 0]})
    code, out, _ = run("pump", "--dist", p, "--require", "maximal", spath("pl4"))
    assert code == 3
    assert "only plain" in out


def test_pump_strong_grade(run, spath, tmp_path):
    p = write_json(tmp_path, "p.json", {"dist": ["1/4", "1/4", "1/4", "1/4"]})
    code, out, _ = run("pump", "--dist", p, "--require", "strong", spath("ex_pl2"))
    assert code == 0
    assert "money pump: strong" in out


def test_pump_absent_for_prior(run, spath, tmp_path):
    p = write_json(tmp_path, "p.json", {"dist": ["1/2", 0, 0, "1/2"]})
    code, out, _ = run("pump", "--dist", p, spath("ex_pl1"))
    assert code == 3
    assert "no pump" in out


# -- classify --------------------------------------------------------------------


def test_classify_trade(run, spath, tmp_path):
    f = write_json(tmp_path, "f.json", {"payoffs": [[0, 1, 1, 0], [0, -1, -1, 0]]})
    code, out, _ = run("classify", "--trade", f, spath("ex_pl1"))
    assert code == 0
    assert "acceptable" in out and "weakly agreeable" not in out


def test_classify_dist(run, spath, tmp_path):
    p = write_json(tmp_path, "p.json", {"dist": ["1/4", "1/4", "1/4", "1/4"]})
    code, out, _ = run("classify", "--dist", p, spath("pl4"))
    assert code == 0
    assert "money_pump" in out and "strong_money_pump" in out


# -- report ----------------------------------------------------------------------


def test_report_text(run, spath):
    code, out, _ = run("report", spath("ex_pl1"))
    assert code == 0
    assert "common prior" in out and "strong" in out


def test_report_json_byte_identical(run, spath, tmp_path):
    p = write_json(tmp_path, "p.json", {"dist": ["1/4", "1/4", "1/4", "1/4"]})
    args = ("report", "--json", "--all-components", "--dist", p, spath("pl4"))
    code1, out1, _ = run(*args)
    code2, out2, _ = run(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert out1 == dumps_canonical(doc)
    assert doc["schema"] == SCHEMA


# -- fuzz ------------------------------------------------------------------------


def test_fuzz_jsonl(run):
    code, out, _ = run("fuzz", "--seeds", "0..5")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    for k, line in enumerate(lines):
        doc = json.loads(line)
        assert doc["seed"] == k
        assert doc["failures"] == []


def test_fuzz_bad_range(run):
    code, _, err = run("fuzz", "--seeds", "5")
    assert code == 2
    assert "a..b" in err
    for spec in ("5..3", "0..0"):
        code, out, err = run("fuzz", "--seeds", spec)
        assert code == 2 and out == ""
        assert "is empty" in err


def test_fuzz_beyond_the_caps_counts_skipped_checks(run):
    # Seed 0 draws 25 states: past the definitional disintegrability cap (20)
    # and the event enumeration cap (24), so those checks are skipped and
    # counted, not run into a SizeCapError.
    code, out, _ = run("fuzz", "--seeds", "0..2", "--max-states", "40")
    assert code == 0
    docs = [json.loads(line) for line in out.strip().split("\n")]
    assert [doc["states"] for doc in docs] == [25, 9]
    assert [doc["skipped"] for doc in docs] == [8, 0]
    assert all(doc["failures"] == [] for doc in docs)


def test_fuzz_bad_size_is_input_error(run):
    code, _, err = run("fuzz", "--seeds", "0..1", "--max-states", "0")
    assert code == 2
    assert "generator sizes must be positive" in err


def test_fuzz_negative_sample_count_is_input_error(run):
    code, out, err = run("fuzz", "--seeds", "0..1", "--sample-count", "-5")
    assert code == 2 and out == ""
    assert "sample count must be non-negative" in err
    code, _, _ = run("fuzz", "--seeds", "0..1", "--sample-count", "0")
    assert code == 0


# sha256 over exit code, stdout and stderr of fuzz over seeds 0..40 with the
# agreeable-trade finder broken, so that every seed without a common prior
# fails and its line carries the shrunk structure.
PINNED_FUZZ_FAILURES = "a9d3499fb3395c6615b839bf192005ed5b41903b973e028808ba48d1c7e808d5"


def test_fuzz_shrinks_each_failing_seed(run, monkeypatch):
    monkeypatch.setattr(harness, "find_agreeable_trade", lambda structure: None)
    code, out, err = run("fuzz", "--seeds", "0..40")
    assert code == 3
    docs = [json.loads(line) for line in out.splitlines()]
    assert [doc["minimized"] is None for doc in docs] == [not doc["failures"] for doc in docs]
    assert sum(doc["minimized"] is not None for doc in docs) == 9
    digest = hashlib.sha256(f"{code}\n{out}\n{err}\n".encode()).hexdigest()
    assert digest == PINNED_FUZZ_FAILURES


# -- plumbing --------------------------------------------------------------------


# sha256 over exit code, stdout and stderr of every subcommand on every
# fixture, in text and in --json: 12 invocations x 6 fixtures x 2 forms.
PINNED_CLI = "a9e424f80e534c4daf97c008c67f7f7dd9b1c352d95992020feb308fc20d91c7"


def test_cli_bytes_are_pinned(run, spath, tmp_path):
    uniform_files = {}
    for states in (3, 4, 5):
        doc = {"dist": [f"1/{states}"] * states}
        uniform_files[states] = write_json(tmp_path, f"u{states}.json", doc)
    digest = hashlib.sha256()
    runs = 0
    for name, states in (
        ("intro", 5), ("pl", 3), ("ex_pl1", 4), ("ex_pl2", 4), ("pl4", 4), ("ex_plbet4", 4)
    ):
        s, p = spath(name), uniform_files[states]
        for command, *args in (
            ("check",),
            ("components", "--all"),
            ("prior", "--kind", "common"),
            ("prior", "--kind", "universal"),
            ("prior", "--kind", "strong"),
            ("prior", "--kind", "common", "--check", p),
            ("trade", "--kind", "agreeable"),
            ("trade", "--kind", "weak"),
            ("trade", "--kind", "acceptable"),
            ("pump", "--dist", p),
            ("classify", "--dist", p),
            ("report", "--all-components", "--dist", p),
        ):
            for json_flag in ((), ("--json",)):
                code, out, err = run(command, *json_flag, *args, s)
                digest.update(f"{code}\n{out}\n{err}\n".encode())
                runs += 1
    assert runs == 144
    assert digest.hexdigest() == PINNED_CLI


# sha256 over exit code, stdout and stderr of the paths PINNED_CLI leaves out,
# on every fixture, in text and in --json: 7 invocations x 6 fixtures x 2 forms.
PINNED_CLI_REST = "f9f4f7d450a019997db45ab6ded9f0d8abd3f6a280879ddcf5ecc22c870e4e28"


def test_cli_remaining_paths_are_pinned(run, spath, tmp_path):
    digest = hashlib.sha256()
    runs = 0
    for name in ("intro", "pl", "ex_pl1", "ex_pl2", "pl4", "ex_plbet4"):
        s = spath(name)
        doc = read_json(s)
        states, players = len(doc["states"]), len(doc["players"])
        p = write_json(tmp_path, f"u{name}.json", {"dist": [f"1/{states}"] * states})
        f = write_json(tmp_path, f"f{name}.json", {"payoffs": [[0] * states] * players})
        for command, *args in (
            ("components",),
            ("classify", "--trade", f),
            ("pump", "--require", "maximal", "--dist", p),
            ("pump", "--require", "strong", "--dist", p),
            ("prior", "--kind", "universal", "--check", p),
            ("prior", "--kind", "strong", "--check", p),
            ("report",),
        ):
            for json_flag in ((), ("--json",)):
                code, out, err = run(command, *json_flag, *args, s)
                digest.update(f"{code}\n{out}\n{err}\n".encode())
                runs += 1
    assert runs == 84
    assert digest.hexdigest() == PINNED_CLI_REST


# The rendering pieces of ``report`` by form. A command builds only the form
# it prints: under --json no text piece runs, and in text mode no JSON piece.
TEXT_PIECES = (
    "component_lines", "notion_lines", "payoff_lines", "prior_check_line",
    "pump_lines", "trade_flags_line", "verdict_line", "_weight_lines", "_vector",
)
JSON_PIECES = (
    "components_json", "digest_json", "notion_json", "prior_check_json",
    "prior_witness_json", "pump_json", "trade_json", "verdict_json",
    "_classification_json", "_states_json",
)


def test_each_command_builds_only_the_form_it_prints(run, spath, tmp_path, monkeypatch):
    from prior_forge import cli

    ran, seen = [], set()
    for name in TEXT_PIECES + JSON_PIECES:
        real = getattr(report, name)

        def spy(*args, _name=name, _real=real):
            ran.append(_name)
            return _real(*args)

        for module in (report, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    for name in ("intro", "ex_pl1", "ex_pl2", "pl4"):
        s = spath(name)
        doc = read_json(s)
        states, players = len(doc["states"]), len(doc["players"])
        p = write_json(tmp_path, f"u{name}.json", {"dist": [f"1/{states}"] * states})
        f = write_json(tmp_path, f"f{name}.json", {"payoffs": [[0] * states] * players})
        for command, *args in (
            ("check",),
            ("components", "--all"),
            *(("prior", "--kind", kind) for kind in ("common", "universal", "strong")),
            ("prior", "--kind", "common", "--check", p),
            *(("trade", "--kind", kind) for kind in ("agreeable", "weak", "acceptable")),
            ("pump", "--dist", p),
            ("pump", "--require", "strong", "--dist", p),
            ("classify", "--dist", p),
            ("classify", "--trade", f),
            ("report", "--all-components", "--dist", p),
        ):
            for json_flag, unprinted in (((), JSON_PIECES), (("--json",), TEXT_PIECES)):
                ran.clear()
                code, out, _ = run(command, *json_flag, *args, s)
                assert code in (0, 3) and out
                assert not set(ran) & set(unprinted), (command, args, json_flag)
                seen.update(ran)
    # Every piece was seen to run, each in its own form.
    assert seen == set(TEXT_PIECES + JSON_PIECES)


# sha256 over the verdicts alone of the PINNED_CLI and PINNED_CLI_REST
# invocations: every exit code, and from each --json document the holds
# flags, the distribution grades, and each trade's is_trade flag with the
# grade flag it certifies (the dual grade of a refuted notion, the requested
# kind of a synthesized trade, every flag of a supplied one). Witness and
# trade bytes are left out, so this digest moves only when a decision does.
PINNED_VERDICTS = "707bb4309ee06725f9c7782a5252fbdbe72ae329c0cf5edd448af5fe8ae22396"
_DUAL_FLAG = {"common": "agreeable", "universal": "weakly_agreeable", "strong": "acceptable"}
_TRADE_FLAG = {"agreeable": "agreeable", "weak": "weakly_agreeable", "acceptable": "acceptable"}


def _graded(trade, flag):
    return None if trade is None else (trade["flags"]["is_trade"], trade["flags"][flag])


def _verdicts(command, doc):
    """The decision content of one --json document, as a flat list."""
    if command == "classify":
        if "trade" in doc:
            return sorted(doc["trade"]["flags"].items())
        return [doc["base"], doc["universal"], doc["strong"]]
    if command == "trade":
        return [doc["holds"], _graded(doc["trade"], _TRADE_FLAG[doc["kind"]])]
    if command == "report":
        dist = doc["distribution"]
        out = [] if dist is None else [dist["base"], dist["universal"], dist["strong"]]
        notions = doc["priors"]
    else:
        out = [doc.get("holds")]
        notions = {doc["kind"]: doc} if "refutation" in doc else {}
    for key in sorted(notions):
        notion = notions[key]
        out += [key, notion["holds"], _graded(notion["refutation"], _DUAL_FLAG[key])]
    return out


def test_cli_verdicts_are_pinned(run, spath, tmp_path):
    digest = hashlib.sha256()
    runs = 0
    for name in ("intro", "pl", "ex_pl1", "ex_pl2", "pl4", "ex_plbet4"):
        s = spath(name)
        doc = read_json(s)
        states, players = len(doc["states"]), len(doc["players"])
        p = write_json(tmp_path, f"u{name}.json", {"dist": [f"1/{states}"] * states})
        f = write_json(tmp_path, f"f{name}.json", {"payoffs": [[0] * states] * players})
        for command, *args in (
            ("check",),
            ("components",),
            ("components", "--all"),
            ("prior", "--kind", "common"),
            ("prior", "--kind", "universal"),
            ("prior", "--kind", "strong"),
            ("prior", "--kind", "common", "--check", p),
            ("prior", "--kind", "universal", "--check", p),
            ("prior", "--kind", "strong", "--check", p),
            ("trade", "--kind", "agreeable"),
            ("trade", "--kind", "weak"),
            ("trade", "--kind", "acceptable"),
            ("pump", "--dist", p),
            ("pump", "--require", "maximal", "--dist", p),
            ("pump", "--require", "strong", "--dist", p),
            ("classify", "--dist", p),
            ("classify", "--trade", f),
            ("report",),
            ("report", "--all-components", "--dist", p),
        ):
            code, _, _ = run(command, *args, s)
            jcode, out, _ = run(command, "--json", *args, s)
            verdicts = _verdicts(command, json.loads(out))
            label = " ".join(a for a in args if a not in (p, f))
            digest.update(f"{name} {command} {label} {code} {jcode} {verdicts}\n".encode())
            runs += 2
    assert runs == 228
    assert digest.hexdigest() == PINNED_VERDICTS


# -- numbers past the interpreter's digit limit -----------------------------------


def chain_doc(m, k):
    """The two-player chain on an even number m of states: P1's cells are
    {w1, w2}, {w3, w4}, ..., P2's are {w1}, {w2, w3}, ..., {wm}, and every
    two-state type is (1/(k+1), k/(k+1))."""
    states = [f"w{j + 1}" for j in range(m)]
    p1 = [[j, j + 1] for j in range(0, m, 2)]
    p2 = [[0], *([j, j + 1] for j in range(1, m - 1, 2)), [m - 1]]

    def row(cell):
        masses = [0] * m
        masses[cell[0]] = 1
        if len(cell) == 2:
            masses[cell[0]], masses[cell[1]] = f"1/{k + 1}", f"{k}/{k + 1}"
        return masses

    return {
        "states": states,
        "players": ["P1", "P2"],
        "partitions": [[[states[w] for w in cell] for cell in p] for p in (p1, p2)],
        "types": [[row(cell) for cell in p] for p in (p1, p2)],
    }


def test_a_witness_past_the_digit_limit_is_written_and_read_back(run, tmp_path):
    # The chain's common prior is proportional to k**j at state w(j+1), so at
    # k = 2**64 - 1 its masses have about 4,930 decimal digits, past the
    # interpreter's limit of int-to-text conversion (4,300 by default).
    doc = chain_doc(256, 2**64 - 1)
    structure = parse_structure(doc)
    path = write_json(tmp_path, "chain.json", doc)
    code, out, err = run("prior", "--json", "--kind", "common", path)
    assert (code, err) == (0, "")
    witness = loads(out)["witness"]
    assert max(map(len, witness["prior"])) > 2 * sys.get_int_max_str_digits()
    prior = parse_distribution(witness["prior"], structure)
    weights = tuple(tuple(map(parse_rational_value, row)) for row in witness["hull_weights"])
    PriorWitness(prior, weights).verify(structure)
    # Every command once: the witness is rendered as text and in a report,
    # and the uniform distribution, no prior here, is pumped and classified.
    uniform = write_json(tmp_path, "uniform.json", {"dist": ["1/256"] * 256})
    commands = [
        ("check",),
        ("components",),
        ("prior", "--kind", "strong"),
        ("trade", "--kind", "agreeable"),
        ("pump", "--json", "--dist", uniform),
        ("classify", "--json", "--dist", uniform),
        ("report", "--json"),
    ]
    for argv in commands:
        code, out, err = run(*argv, path)
        assert code in (0, 3) and err == "", argv
    assert structure == harness.chain_structure(256, 2**64 - 1)


def test_constraint_rows_are_sparse_and_in_range():
    builder = lp.LPBuilder()
    x = builder.add_var("x", lower=0)
    y = builder.add_var("y", lower=0)
    builder.add_constraint({y: 1, x: 0}, "<=", 1)
    program = builder.build(maximize=True)
    assert program.constraints[0].coeffs == {y: 1}
    with pytest.raises(DimensionError):
        lp.LinearProgram(
            (0, 0), True, (lp.Constraint({2: 1}, 1, "<=", 1),), (0, 0), (None, None), ("x", "y")
        )


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "structure.json"])  # missing --trade/--dist
    assert exc.value.code == 2


def test_verification_failure_exits_four(run, spath, monkeypatch):
    """A certificate that fails its re-check is a bug in the package: the
    command stops with exit code 4 and says so on stderr."""

    def broken(*args):
        raise VerificationError("forged defect")

    monkeypatch.setattr(report, "_verify_report", broken)
    code, out, err = run("report", spath("intro"))
    assert (code, out) == (4, "")
    assert err == "verification failure (this is a bug): forged defect\n"
