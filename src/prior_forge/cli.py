"""Command-line front end.

Subcommands: check, components, prior, trade, pump, classify, fuzz, report.
Exit codes: 0 when the command succeeds (and, for decision subcommands, the
queried notion holds); 2 for malformed input; 3 when a queried notion fails
to hold; 4 when an internal certificate failed re-verification, which is
always a bug in this package, never in the input.

Output is text by default; ``--json`` switches to the canonical JSON
rendering, which is byte-identical across runs for identical inputs.

Every document and text line of a prior notion, component list, distribution
verdict or money pump is a rendering piece of ``report``. This module composes
those pieces, only those of the form it prints; it handles arguments,
dispatch and exit codes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Callable

from .certainty import component_family, minimal_components
from .errors import InputError, VerificationError
from .jsonio import (
    SCHEMA,
    dumps_canonical,
    load_path,
    parse_distribution,
    parse_payoffs,
    parse_structure,
    structure_to_json,
)
from .priors import classify_prior
from .report import analyze, component_lines, components_json, digest_json
from .report import notion_lines, payoff_lines, prior_check_json, prior_check_line, priors_json
from .report import pump_json, pump_lines, trade_flags_line, trade_json, verdict_json, verdict_line
from .trades import build_prior_report, classify_distribution, classify_trade
from .trades import find_multiplayer_money_pump

# Refuting a prior notion means synthesizing its dual trade grade.
_DUAL_TRADE = {"common": "agreeable", "universal": "weak", "strong": "acceptable"}
_PUMP_GRADES = {"maximal": ("universal", "strong"), "strong": ("strong",)}


def _emit(args, doc: Callable[[], dict], lines: Callable[[], list[str]]) -> None:
    """Print ``doc()`` under the schema tag with ``--json``, else ``lines()``:
    only the form that is printed is built."""
    if args.json:
        sys.stdout.write(dumps_canonical({"schema": SCHEMA, **doc()}))
    else:
        sys.stdout.write("\n".join(lines()) + "\n")


def _load_structure(path):
    return parse_structure(load_path(path))


def _cmd_check(args) -> int:
    structure = _load_structure(args.structure)
    line = (
        f"ok: {structure.num_states} states, {structure.num_players} players, "
        "all type rows are cell-supported distributions"
    )
    _emit(args, lambda: {"ok": True, **digest_json(structure)}, lambda: [line])
    return 0


def _cmd_components(args) -> int:
    structure = _load_structure(args.structure)
    minimal = minimal_components(structure)
    family = component_family(structure) if args.all else None
    _emit(
        args,
        lambda: components_json(structure, minimal, family),
        lambda: component_lines(structure, minimal, family, ""),
    )
    return 0


def _cmd_prior(args) -> int:
    structure = _load_structure(args.structure)
    kind, dual = args.kind, _DUAL_TRADE[args.kind]
    if args.check is not None:
        dist = parse_distribution(load_path(args.check), structure)
        holds = getattr(classify_prior(structure, dist), kind)
        _emit(
            args,
            lambda: prior_check_json(kind, dist, holds),
            lambda: [prior_check_line(kind, dist, holds)],
        )
        return 0 if holds else 3
    priors = build_prior_report(structure)
    witness, refutation = priors.notion(kind)
    _emit(
        args,
        lambda: {"kind": kind, **priors_json(structure, priors)[kind]},
        lambda: notion_lines(structure, f"{kind} prior", witness, refutation, dual),
    )
    return 0 if witness is not None else 3


def _cmd_trade(args) -> int:
    structure = _load_structure(args.structure)
    kind = args.kind
    refuted = next(notion for notion, dual in _DUAL_TRADE.items() if dual == kind)
    priors = build_prior_report(structure)
    trade = priors.notion(refuted)[1]
    if trade is None:
        doc = {"kind": kind, "holds": False, "trade": None}
        _emit(args, lambda: doc, lambda: [f"{kind} trade: absent"])
        return 3
    _emit(
        args,
        lambda: {
            "kind": kind,
            "holds": True,
            "trade": trade_json(structure, trade.forms, priors.trade_class),
        },
        lambda: [f"{kind} trade: present", *payoff_lines(structure, trade.forms, "  ")],
    )
    return 0


def _cmd_pump(args) -> int:
    structure = _load_structure(args.structure)
    dist = parse_distribution(load_path(args.dist), structure)
    witness = find_multiplayer_money_pump(structure, dist)
    if witness is None:
        line = "no pump: p is a common prior"
        _emit(args, lambda: {"holds": False, "pump": None}, lambda: [line])
        return 3
    if args.require and witness.kind not in _PUMP_GRADES[args.require]:
        line = f"pump exists but is only {witness.kind} (required {args.require})"
        _emit(args, lambda: {"holds": False, "pump": pump_json(structure, witness)}, lambda: [line])
        return 3
    _emit(
        args,
        lambda: {"holds": True, "pump": pump_json(structure, witness)},
        lambda: [f"money pump: {witness.kind}", *pump_lines(structure, witness)],
    )
    return 0


def _cmd_classify(args) -> int:
    structure = _load_structure(args.structure)
    if args.trade is not None:
        forms = parse_payoffs(load_path(args.trade), structure)
        cls = classify_trade(structure, forms)
        _emit(
            args,
            lambda: {"trade": trade_json(structure, forms, cls)},
            lambda: [trade_flags_line(cls)],
        )
        return 0
    dist = parse_distribution(load_path(args.dist), structure)
    verdict = classify_distribution(structure, dist)
    _emit(args, lambda: verdict_json(structure, verdict), lambda: [verdict_line(verdict)])
    return 0


def _parse_seed_range(spec: str) -> range:
    lo, sep, hi = spec.partition("..")
    try:
        if not sep:
            raise ValueError
        seeds = range(int(lo), int(hi))
    except ValueError:
        raise InputError(f"--seeds wants a..b (end exclusive), got {spec!r}") from None
    if not seeds:
        raise InputError(f"--seeds range {spec!r} is empty (end exclusive)")
    return seeds


def _cmd_fuzz(args) -> int:
    # The only command that needs the oracle layer, so the only one that loads it.
    from .harness import GeneratorConfig, cross_check, minimize_failure, random_structure

    seeds = _parse_seed_range(args.seeds)
    cfg = GeneratorConfig(
        max_states=args.max_states,
        max_players=args.max_players,
        denominator_bound=args.denominator_bound,
    )
    all_passed = True
    for seed in seeds:
        structure = random_structure(replace(cfg, seed=seed))
        rep = cross_check(structure, args.sample_count, cfg)
        doc = {
            "seed": seed,
            "states": structure.num_states,
            "players": structure.num_players,
            "checks": rep.checks_run,
            "skipped": rep.skipped,
            "failures": [
                {"name": f.name, "details": f.details} for f in rep.failures
            ],
            "minimized": None
            if rep.passed
            else structure_to_json(minimize_failure(structure, args.sample_count, cfg)),
        }
        sys.stdout.write(json.dumps(doc, separators=(",", ":")) + "\n")
        all_passed = all_passed and rep.passed
    return 0 if all_passed else 3


def _cmd_report(args) -> int:
    structure = _load_structure(args.structure)
    dist = None
    if args.dist is not None:
        dist = parse_distribution(load_path(args.dist), structure)
    rep = analyze(structure, dist, all_components=args.all_components)
    sys.stdout.write(dumps_canonical(rep.to_json()) if args.json else rep.to_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prior-forge",
        description="Exact decisions about priors, trades, and money pumps "
        "on finite information structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, json_flag=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if json_flag:
            p.add_argument("--json", action="store_true", help="emit canonical JSON")
        return p

    p = add("check", _cmd_check, "validate a structure file")
    p.add_argument("structure")

    p = add("components", _cmd_components, "list common certainty components")
    p.add_argument("--all", action="store_true", help="enumerate the full family")
    p.add_argument("structure")

    p = add("prior", _cmd_prior, "decide a prior notion, with witness")
    p.add_argument("--kind", choices=_DUAL_TRADE, required=True)
    p.add_argument("--check", metavar="P_JSON", help="test this distribution instead")
    p.add_argument("structure")

    p = add("trade", _cmd_trade, "synthesize a graded trade")
    p.add_argument("--kind", choices=_DUAL_TRADE.values(), required=True)
    p.add_argument("structure")

    p = add("pump", _cmd_pump, "find a money pump for a distribution")
    p.add_argument("--dist", metavar="P_JSON", required=True)
    p.add_argument("--require", choices=_PUMP_GRADES, help="demand at least this pump grade")
    p.add_argument("structure")

    p = add("classify", _cmd_classify, "classify a trade or a distribution")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--trade", metavar="F_JSON")
    group.add_argument("--dist", metavar="P_JSON")
    p.add_argument("structure")

    p = add("fuzz", _cmd_fuzz, "random cross-check battery", json_flag=False)
    p.add_argument("--seeds", required=True, help="seed range a..b, end exclusive")
    p.add_argument("--max-states", type=int, default=6)
    p.add_argument("--max-players", type=int, default=3)
    p.add_argument("--denominator-bound", type=int, default=6)
    p.add_argument(
        "--sample-count",
        type=int,
        default=2,
        help="one distribution per prior notion plus SAMPLE_COUNT - 1 unconstrained "
        "ones; 0 and 1 both draw one per notion",
    )

    p = add("report", _cmd_report, "run every analysis on one structure")
    p.add_argument("--dist", metavar="P_JSON", help="also classify this distribution")
    p.add_argument(
        "--all-components", action="store_true", help="enumerate all components"
    )
    p.add_argument("structure")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"verification failure (this is a bug): {exc}", file=sys.stderr)
        return 4
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
