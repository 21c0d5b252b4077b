"""Command-line front end.

Subcommands: check, components, prior, trade, pump, classify, fuzz, report.
Exit codes: 0 when the command succeeds (and, for decision subcommands, the
queried notion holds); 2 for malformed input; 3 when a queried notion fails
to hold; 4 when an internal certificate failed re-verification, which is
always a bug in this package, never in the input.

Output is text by default; ``--json`` switches to the canonical JSON
rendering, which is byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import lp
from ._rational import format_rational, to_json_value
from .certainty import component_family, minimal_components
from .errors import InputError, VerificationError
from .harness import GeneratorConfig, cross_check, random_structure
from .jsonio import (
    SCHEMA,
    dumps_canonical,
    load_path,
    parse_distribution,
    parse_payoffs,
    parse_structure,
    structure_to_json,
)
from .priors import classify_prior, find_common_prior, find_strong_common_prior, find_universal_common_prior
from .report import _payoff_lines, _state_set, _vector, _weight_lines, analyze
from .report import prior_witness_json, pump_json, trade_json
from .trades import (
    classify_distribution,
    classify_trade,
    find_acceptable_trade,
    find_agreeable_trade,
    find_multiplayer_money_pump,
    find_weakly_agreeable_trade,
)

_PRIOR_FINDERS = {
    "common": find_common_prior,
    "universal": find_universal_common_prior,
    "strong": find_strong_common_prior,
}
_TRADE_FINDERS = {
    "agreeable": find_agreeable_trade,
    "weak": find_weakly_agreeable_trade,
    "acceptable": find_acceptable_trade,
}
# Refuting a prior notion means synthesizing its dual trade grade.
_DUAL_TRADE = {"common": "agreeable", "universal": "weak", "strong": "acceptable"}
_PUMP_GRADES = {"maximal": ("universal", "strong"), "strong": ("strong",)}


def _emit(args, doc: dict, text: str) -> None:
    if args.json:
        sys.stdout.write(dumps_canonical(doc))
    else:
        sys.stdout.write(text)


def _load_structure(path):
    return parse_structure(load_path(path))


def _cmd_check(args) -> int:
    structure = _load_structure(args.structure)
    doc = {
        "schema": SCHEMA,
        "ok": True,
        "states": structure.num_states,
        "players": structure.num_players,
        "partition_sizes": [
            structure.num_cells(i) for i in range(structure.num_players)
        ],
    }
    text = (
        f"ok: {structure.num_states} states, {structure.num_players} players, "
        "all type rows are cell-supported distributions\n"
    )
    _emit(args, doc, text)
    return 0


def _cmd_components(args) -> int:
    structure = _load_structure(args.structure)
    minimal = minimal_components(structure)
    family = None
    if args.all:
        family = component_family(structure)
    doc = {
        "schema": SCHEMA,
        "minimal": [[structure.states[w] for w in comp] for comp in minimal],
        "all": None
        if family is None
        else [[structure.states[w] for w in comp] for comp in family],
    }
    lines = ["minimal: " + " ".join(_state_set(structure, c) for c in minimal)]
    if family is not None:
        lines.append("all: " + " ".join(_state_set(structure, c) for c in family))
    _emit(args, doc, "\n".join(lines) + "\n")
    return 0


def _cmd_prior(args) -> int:
    structure = _load_structure(args.structure)
    if args.check is not None:
        dist = parse_distribution(load_path(args.check), structure)
        cls = classify_prior(structure, dist)
        holds = {"common": cls.common, "universal": cls.universal, "strong": cls.strong}[
            args.kind
        ]
        doc = {
            "schema": SCHEMA,
            "kind": args.kind,
            "holds": holds,
            "dist": [to_json_value(v) for v in dist],
        }
        word = "is" if holds else "is not"
        _emit(args, doc, f"p = {_vector(dist)} {word} a {args.kind} prior\n")
        return 0 if holds else 3

    witness = _PRIOR_FINDERS[args.kind](structure)
    if witness is not None:
        doc = {
            "schema": SCHEMA,
            "kind": args.kind,
            "holds": True,
            "witness": prior_witness_json(structure, witness),
            "refutation": None,
        }
        lines = [f"{args.kind} prior: present", f"  p = {_vector(witness.prior)}"]
        lines += _weight_lines(structure, witness.hull_weights, "  ")
        _emit(args, doc, "\n".join(lines) + "\n")
        return 0
    refutation = _TRADE_FINDERS[_DUAL_TRADE[args.kind]](structure)
    if refutation is None:
        raise VerificationError(
            f"no {args.kind} prior and no {_DUAL_TRADE[args.kind]} trade either"
        )
    doc = {
        "schema": SCHEMA,
        "kind": args.kind,
        "holds": False,
        "witness": None,
        "refutation": trade_json(
            structure, refutation.payoffs, classify_trade(structure, refutation.payoffs)
        ),
    }
    lines = [f"{args.kind} prior: absent", f"  refuting trade ({_DUAL_TRADE[args.kind]}):"]
    lines += _payoff_lines(structure, refutation.payoffs, "    ")
    _emit(args, doc, "\n".join(lines) + "\n")
    return 3


def _cmd_trade(args) -> int:
    structure = _load_structure(args.structure)
    trade = _TRADE_FINDERS[args.kind](structure)
    if trade is not None:
        doc = {
            "schema": SCHEMA,
            "kind": args.kind,
            "holds": True,
            "trade": trade_json(
                structure, trade.payoffs, classify_trade(structure, trade.payoffs)
            ),
        }
        lines = [f"{args.kind} trade: present"]
        lines += _payoff_lines(structure, trade.payoffs, "  ")
        _emit(args, doc, "\n".join(lines) + "\n")
        return 0
    doc = {"schema": SCHEMA, "kind": args.kind, "holds": False, "trade": None}
    _emit(args, doc, f"{args.kind} trade: absent\n")
    return 3


def _cmd_pump(args) -> int:
    structure = _load_structure(args.structure)
    dist = parse_distribution(load_path(args.dist), structure)
    witness = find_multiplayer_money_pump(structure, dist)
    required = _PUMP_GRADES[args.require] if args.require else None
    if witness is None:
        doc = {"schema": SCHEMA, "holds": False, "pump": None}
        _emit(args, doc, "no pump: p is a common prior\n")
        return 3
    if required is not None and witness.kind not in required:
        doc = {
            "schema": SCHEMA,
            "holds": False,
            "pump": pump_json(structure, witness),
        }
        _emit(
            args,
            doc,
            f"pump exists but is only {witness.kind} (required {args.require})\n",
        )
        return 3
    doc = {"schema": SCHEMA, "holds": True, "pump": pump_json(structure, witness)}
    lines = [
        f"money pump: {witness.kind}",
        f"  deficit = {format_rational(witness.deficit)}",
        *_payoff_lines(structure, witness.semi_trade.payoffs, "  "),
    ]
    _emit(args, doc, "\n".join(lines) + "\n")
    return 0


def _cmd_classify(args) -> int:
    structure = _load_structure(args.structure)
    if args.trade is not None:
        payoffs = parse_payoffs(load_path(args.trade), structure)
        cls = classify_trade(structure, payoffs)
        doc = {"schema": SCHEMA, "trade": trade_json(structure, payoffs, cls)}
        flags = [
            name
            for name, ok in (
                ("trade", cls.is_trade),
                ("semi-trade", cls.is_semi_trade),
                ("acceptable", cls.acceptable),
                ("weakly agreeable", cls.weakly_agreeable),
                ("agreeable", cls.agreeable),
            )
            if ok
        ]
        text = "classification: " + (", ".join(flags) if flags else "none") + "\n"
        _emit(args, doc, text)
        return 0
    dist = parse_distribution(load_path(args.dist), structure)
    verdict = classify_distribution(structure, dist)
    doc = {
        "schema": SCHEMA,
        "base": verdict.base,
        "universal": verdict.universal,
        "strong": verdict.strong,
        "prior_witness": None
        if verdict.prior_witness is None
        else prior_witness_json(structure, verdict.prior_witness),
        "pump_witness": None
        if verdict.pump_witness is None
        else pump_json(structure, verdict.pump_witness),
    }
    held = [verdict.base] + [x for x in (verdict.universal, verdict.strong) if x]
    _emit(args, doc, "verdict: " + ", ".join(held) + "\n")
    return 0


def _parse_seed_range(spec: str) -> range:
    lo, sep, hi = spec.partition("..")
    try:
        if not sep:
            raise ValueError
        return range(int(lo), int(hi))
    except ValueError:
        raise InputError(f"--seeds wants a..b (end exclusive), got {spec!r}") from None


def _cmd_fuzz(args) -> int:
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
            "failures": [
                {"name": f.name, "details": f.details} for f in rep.failures
            ],
            "minimized": None
            if rep.minimized is None
            else structure_to_json(rep.minimized),
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
    _emit(args, rep.to_json(), rep.to_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prior-forge",
        description="Exact decisions about priors, trades, and money pumps "
        "on finite information structures.",
    )
    parser.add_argument(
        "--dump-lp",
        action="store_true",
        help="dump every linear program solved to stderr",
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
    p.add_argument("--kind", choices=("common", "universal", "strong"), required=True)
    p.add_argument("--check", metavar="P_JSON", help="test this distribution instead")
    p.add_argument("structure")

    p = add("trade", _cmd_trade, "synthesize a graded trade")
    p.add_argument("--kind", choices=("agreeable", "weak", "acceptable"), required=True)
    p.add_argument("structure")

    p = add("pump", _cmd_pump, "find a money pump for a distribution")
    p.add_argument("--dist", metavar="P_JSON", required=True)
    p.add_argument(
        "--require",
        choices=("maximal", "strong"),
        help="demand at least this pump grade",
    )
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
    p.add_argument("--sample-count", type=int, default=2)

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
        with lp.dumping(sys.stderr if args.dump_lp else None):
            return args.func(args)
    except VerificationError as exc:
        print(f"verification failure (this is a bug): {exc}", file=sys.stderr)
        return 4
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
