"""Whole-structure analysis, and the one renderer of the package.

An AnalysisReport pulls every decision the package can make about one
structure into a single value: size digest, component geometry, the three
prior notions with witnesses or refuting trades, and optionally the verdict
on one supplied distribution. Both renderings are deterministic: the same
input yields byte-identical JSON and identical text.

The renderings are built from module-level pieces, one JSON piece and one
text piece per kind of result (a prior notion, the component lists, a
distribution verdict, a money pump). The command line composes the same
pieces, passing its own label where a subcommand's wording differs.

Each certificate is verified once, when it is built: the canonical prior
and a distribution's prior witness by ``PriorWitness.verify``, a money pump
by ``MoneyPumpWitness.verify``, and the one refuting trade is graded once by
``classify_trade``. The report re-checks every claim against those
certificates before any caller sees it: where a notion holds, the canonical
prior must charge what the notion asks (maximal for universal, strongly
maximal for strong); where it fails, the trade's classification must carry
the notion's grade. A report is the artifact that leaves the process; it
must never carry a claim that was not checked. The trade's classification
is what the renderings print.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._rational import rational_text, to_json_value
from .certainty import component_family, minimal_components
from .errors import VerificationError
from .jsonio import SCHEMA, ratio_value, structure_to_json, type_row
from .model import Distribution, InformationStructure
from .priors import NOTIONS, PriorWitness
from .trades import (
    MoneyPumpWitness,
    PriorReport,
    TradeClassification,
    build_prior_report,
    classify_distribution,
    DistributionVerdict,
)


@dataclass(frozen=True)
class AnalysisReport:
    structure: InformationStructure
    minimal: tuple[tuple[int, ...], ...]
    all_components: tuple[tuple[int, ...], ...] | None
    priors: PriorReport
    dist: Distribution | None
    verdict: DistributionVerdict | None

    def to_json(self) -> dict:
        s = self.structure
        # The one canonical prior and the one refuting trade are each built
        # into a piece once, shared by every notion it witnesses or refutes.
        witness, trade = self.priors.witness, self.priors.trade
        witnessing = None if witness is None else prior_witness_json(s, witness)
        refuting = None if trade is None else trade_json(s, trade.payoffs, self.priors.trade_class)
        priors = {}
        for notion in NOTIONS:
            held, refutation = self.priors.notion(notion.key)
            priors[notion.key] = notion_json(
                None if held is None else witnessing, None if refutation is None else refuting
            )
        distribution = None
        if self.dist is not None and self.verdict is not None:
            distribution = {
                "dist": type_row(self.dist),
                "classification": _classification_json(s, self.verdict),
                **verdict_json(s, self.verdict),
            }
        return {
            "schema": SCHEMA,
            "digest": digest_json(s),
            "structure": structure_to_json(s),
            "components": components_json(s, self.minimal, self.all_components),
            "priors": priors,
            "distribution": distribution,
        }

    def to_text(self) -> str:
        s = self.structure
        lines = [f"structure: {s.num_states} states, {s.num_players} players"]
        lines.append("  states: " + " ".join(s.states))
        for i, name in enumerate(s.players):
            lines.append(f"  player {name}: cells {_state_sets(s, s.partitions[i])}")
            for cell, t in zip(s.partitions[i], s.cell_types[i]):
                lines.append(f"    type on {_state_set(s, cell)}: {_vector(type_row(t))}")
        lines += component_lines(s, self.minimal, self.all_components, " components")
        cls = self.priors.trade_class
        grade = None if cls is None else _trade_grade(cls)
        for notion in NOTIONS:
            lines += notion_lines(s, notion.label, *self.priors.notion(notion.key), grade)
        if self.dist is not None and self.verdict is not None:
            v = self.verdict
            lines.append(f"distribution p = {_vector(self.dist)}")
            lines.append("  " + verdict_line(v))
            if v.pump_witness is not None:
                lines += pump_lines(s, v.pump_witness)
            if v.prior_witness is not None:
                lines += _weight_lines(s, v.prior_witness.hull_weights, "  ")
        return "\n".join(lines) + "\n"


def analyze(
    structure: InformationStructure,
    dist: Distribution | None = None,
    all_components: bool = False,
) -> AnalysisReport:
    """Run every decision and check every claim against its certificate."""
    minimal = minimal_components(structure)
    family = None
    if all_components:
        family = component_family(structure)
    priors = build_prior_report(structure)
    _verify_report(structure, priors)
    verdict = classify_distribution(structure, dist) if dist is not None else None
    return AnalysisReport(structure, minimal, family, priors, dist, verdict)


def _verify_report(s: InformationStructure, priors: PriorReport) -> None:
    """Check every notion's claim against the report's certificates: where
    it holds the canonical prior must charge what the notion asks, where it
    fails the refuting trade's classification must carry the notion's
    grade."""
    witness = priors.witness
    cls = None if priors.trade is None else priors.trade_class
    for n in NOTIONS:
        if n.key in priors.holds:
            if witness is None:
                raise VerificationError(f"{n.key} prior claimed without a witness")
            if not n.charged_by(s, witness.prior):
                raise VerificationError(f"{n.key} prior witness fails {n.charges.__name__}")
        elif cls is None or not (cls.is_trade and getattr(cls, n.trade)):
            raise VerificationError(f"{n.key} prior fails and no {n.trade} trade refutes it")


# -- JSON pieces ------------------------------------------------------------


def _states_json(s: InformationStructure, indices) -> list[str]:
    return [s.states[w] for w in indices]


def digest_json(s: InformationStructure) -> dict:
    return {
        "states": s.num_states,
        "players": s.num_players,
        "partition_sizes": [s.num_cells(i) for i in range(s.num_players)],
    }


def components_json(s: InformationStructure, minimal, family) -> dict:
    """The minimal components, and the whole family when it was enumerated."""
    return {
        "minimal": [_states_json(s, comp) for comp in minimal],
        "all": None if family is None else [_states_json(s, comp) for comp in family],
    }


def prior_witness_json(s: InformationStructure, witness: PriorWitness) -> dict:
    """The prior's row and the hull weights, written from their integer
    forms."""
    return {
        "prior": type_row(witness.prior),
        "hull_weights": [
            [ratio_value(a, den) for a in nums] for den, nums in witness.weight_forms
        ],
    }


def notion_json(witnessing: dict | None, refuting: dict | None) -> dict:
    """One prior notion: ``witnessing``, the ``prior_witness_json`` piece of
    its witness, or ``refuting``, the ``trade_json`` piece of the trade that
    refutes it."""
    return {"holds": witnessing is not None, "witness": witnessing, "refutation": refuting}


def prior_check_json(kind: str, dist: Distribution, holds: bool) -> dict:
    """Whether ``dist`` is a prior of the notion ``kind``."""
    return {"kind": kind, "holds": holds, "dist": type_row(dist)}


# The flags of a ``TradeClassification`` in rendering order: the attribute,
# which is also the JSON key, and the word the text rendering prints.
TRADE_FLAGS = (
    ("is_trade", "trade"),
    ("is_semi_trade", "semi-trade"),
    ("acceptable", "acceptable"),
    ("weakly_agreeable", "weakly agreeable"),
    ("agreeable", "agreeable"),
)


def trade_json(s: InformationStructure, payoffs, cls: TradeClassification) -> dict:
    """A payoff family with its classification attached."""
    return {
        "payoffs": [[to_json_value(v) for v in row] for row in payoffs],
        "flags": {attr: getattr(cls, attr) for attr, _ in TRADE_FLAGS},
        "expectations": [[to_json_value(v) for v in row] for row in cls.expectations],
        "agreeable_component": None
        if cls.agreeable_component is None
        else _states_json(s, cls.agreeable_component),
    }


def pump_json(s: InformationStructure, witness: MoneyPumpWitness) -> dict:
    return {
        "dist": type_row(witness.distribution),
        "payoffs": [[to_json_value(v) for v in row] for row in witness.payoffs],
        "deficit": to_json_value(witness.deficit),
        "kind": witness.kind,
    }


def _classification_json(s: InformationStructure, verdict: DistributionVerdict) -> dict:
    cls = verdict.classification
    return {
        "prior_for": [s.players[i] for i, ok in enumerate(cls.prior_for_player) if ok],
        "common": cls.common,
        "maximal": cls.maximal,
        "strongly_maximal": cls.strongly_maximal,
        "universal": cls.universal,
        "strong": cls.strong,
    }


def verdict_json(s: InformationStructure, verdict: DistributionVerdict) -> dict:
    """The graded verdict on a distribution with its prior or pump witness."""
    return {
        "base": verdict.base,
        "universal": verdict.universal,
        "strong": verdict.strong,
        "prior_witness": None
        if verdict.prior_witness is None
        else prior_witness_json(s, verdict.prior_witness),
        "pump_witness": None
        if verdict.pump_witness is None
        else pump_json(s, verdict.pump_witness),
    }


# -- text pieces ------------------------------------------------------------


def _vector(values) -> str:
    """Rationals, or a ``type_row``'s ints and strings, as ``(a, b/c, ...)``."""
    return "(" + ", ".join(v if type(v) is str else rational_text(v) for v in values) + ")"


def _state_set(s: InformationStructure, indices) -> str:
    return "{" + ",".join(s.states[w] for w in indices) + "}"


def _state_sets(s: InformationStructure, sets) -> str:
    return " ".join(_state_set(s, indices) for indices in sets)


def payoff_lines(s: InformationStructure, payoffs, indent: str) -> list[str]:
    return [f"{indent}f[{name}] = {_vector(f)}" for name, f in zip(s.players, payoffs)]


def _weight_lines(s: InformationStructure, weights, indent: str) -> list[str]:
    return [f"{indent}{name} hull weights: {_vector(w)}" for name, w in zip(s.players, weights)]


def component_lines(s: InformationStructure, minimal, family, suffix: str) -> list[str]:
    """``minimal<suffix>:`` and, when enumerated, ``all<suffix>:``."""
    lines = [f"minimal{suffix}: " + _state_sets(s, minimal)]
    if family is not None:
        lines.append(f"all{suffix}: " + _state_sets(s, family))
    return lines


def notion_lines(
    s: InformationStructure, label: str, witness, refutation, grade
) -> list[str]:
    """One prior notion under ``label``: the witness, or the refuting trade
    introduced by its ``grade`` word."""
    if witness is not None:
        return [
            f"{label}: present",
            f"  p = {_vector(witness.prior)}",
            *_weight_lines(s, witness.hull_weights, "  "),
        ]
    lines = [f"{label}: absent"]
    if refutation is not None:
        lines.append(f"  refuting trade ({grade}):")
        lines += payoff_lines(s, refutation.payoffs, "    ")
    return lines


def prior_check_line(kind: str, dist: Distribution, holds: bool) -> str:
    return f"p = {_vector(dist)} {'is' if holds else 'is not'} a {kind} prior"


def verdict_line(verdict: DistributionVerdict) -> str:
    held = [verdict.base] + [x for x in (verdict.universal, verdict.strong) if x]
    return "verdict: " + ", ".join(held)


def pump_lines(s: InformationStructure, witness: MoneyPumpWitness) -> list[str]:
    return [
        f"  deficit = {rational_text(witness.deficit)}",
        *payoff_lines(s, witness.payoffs, "  "),
    ]


def trade_flags_line(cls: TradeClassification) -> str:
    """The words of every flag the classification carries."""
    flags = [word for attr, word in TRADE_FLAGS if getattr(cls, attr)]
    return "classification: " + (", ".join(flags) if flags else "none")


def _trade_grade(cls: TradeClassification) -> str:
    """The strongest grade the trade carries, in words."""
    grades = (n.trade for n in NOTIONS if getattr(cls, n.trade))
    return next(grades, "trade").replace("_", " ")
