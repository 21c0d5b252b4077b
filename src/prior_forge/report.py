"""Whole-structure analysis bundled for humans and machines.

An AnalysisReport pulls every decision the package can make about one
structure into a single value: size digest, component geometry, the three
prior notions with witnesses or refuting trades, and optionally the verdict
on one supplied distribution. Both renderings are deterministic: the same
input yields byte-identical JSON and identical text.

Every witness is re-verified here, immediately before rendering, even though
the finders verified it at construction. A report is the artifact that
leaves the process; it must never carry a claim that was not re-checked.
The classifications made by that re-check are kept on the report and are
what the renderings print, so each refuting trade is graded once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ._rational import format_rational, to_json_value
from .certainty import component_catalog, minimal_components
from .errors import VerificationError
from .jsonio import SCHEMA, distribution_to_json, structure_to_json
from .model import Distribution, InformationStructure
from .priors import PriorReport, PriorWitness
from .trades import (
    MoneyPumpWitness,
    Trade,
    TradeClassification,
    build_prior_report,
    classify_distribution,
    classify_trade,
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
    # The re-check's classification of each distinct refuting trade.
    refutation_classes: Mapping[Trade, TradeClassification]

    def to_json(self) -> dict:
        s = self.structure
        doc = {
            "schema": SCHEMA,
            "digest": {
                "states": s.num_states,
                "players": s.num_players,
                "partition_sizes": [s.num_cells(i) for i in range(s.num_players)],
            },
            "structure": structure_to_json(s),
            "components": {
                "minimal": [_states_json(s, comp) for comp in self.minimal],
                "all": None
                if self.all_components is None
                else [_states_json(s, comp) for comp in self.all_components],
            },
            "priors": {
                "common": self._notion_json(
                    self.priors.common_prior, self.priors.common_refutation
                ),
                "universal": self._notion_json(
                    self.priors.universal_common_prior, self.priors.universal_refutation
                ),
                "strong": self._notion_json(
                    self.priors.strong_common_prior, self.priors.strong_refutation
                ),
            },
            "distribution": _verdict_json(s, self.dist, self.verdict),
        }
        return doc

    def _notion_json(self, witness, refutation) -> dict:
        s = self.structure
        return {
            "holds": witness is not None,
            "witness": None if witness is None else prior_witness_json(s, witness),
            "refutation": None
            if refutation is None
            else trade_json(s, refutation.payoffs, self.refutation_classes[refutation]),
        }

    def to_text(self) -> str:
        s = self.structure
        lines = [f"structure: {s.num_states} states, {s.num_players} players"]
        lines.append("  states: " + " ".join(s.states))
        for i, name in enumerate(s.players):
            cells = " ".join(_state_set(s, cell) for cell in s.partitions[i])
            lines.append(f"  player {name}: cells {cells}")
            for c in range(s.num_cells(i)):
                cell = s.partitions[i][c]
                t = s.type_of_cell(i, c)
                lines.append(f"    type on {_state_set(s, cell)}: {_vector(t)}")
        lines.append(
            "minimal components: "
            + " ".join(_state_set(s, comp) for comp in self.minimal)
        )
        if self.all_components is not None:
            lines.append(
                "all components: "
                + " ".join(_state_set(s, comp) for comp in self.all_components)
            )
        for label, witness, refutation in (
            ("common prior", self.priors.common_prior, self.priors.common_refutation),
            (
                "universal common prior",
                self.priors.universal_common_prior,
                self.priors.universal_refutation,
            ),
            (
                "strong common prior",
                self.priors.strong_common_prior,
                self.priors.strong_refutation,
            ),
        ):
            if witness is not None:
                lines.append(f"{label}: present")
                lines.append(f"  p = {_vector(witness.prior)}")
                for i, name in enumerate(s.players):
                    lines.append(
                        f"  {name} hull weights: {_vector(witness.hull_weights[i])}"
                    )
            else:
                lines.append(f"{label}: absent")
                if refutation is not None:
                    grade = _trade_grade(self.refutation_classes[refutation])
                    lines.append(f"  refuting trade ({grade}):")
                    for i, name in enumerate(s.players):
                        lines.append(f"    f[{name}] = {_vector(refutation.payoffs[i])}")
        if self.dist is not None and self.verdict is not None:
            v = self.verdict
            lines.append(f"distribution p = {_vector(self.dist)}")
            held = [v.base] + [x for x in (v.universal, v.strong) if x]
            lines.append("  verdict: " + ", ".join(held))
            if v.pump_witness is not None:
                lines.append(f"  deficit = {format_rational(v.pump_witness.deficit)}")
                for i, name in enumerate(s.players):
                    lines.append(
                        f"  f[{name}] = {_vector(v.pump_witness.semi_trade.payoffs[i])}"
                    )
            if v.prior_witness is not None:
                for i, name in enumerate(s.players):
                    lines.append(
                        f"  {name} hull weights: {_vector(v.prior_witness.hull_weights[i])}"
                    )
        return "\n".join(lines) + "\n"


def analyze(
    structure: InformationStructure,
    dist: Distribution | None = None,
    all_components: bool = False,
) -> AnalysisReport:
    """Run every decision and re-verify all embedded witnesses."""
    minimal = minimal_components(structure)
    family = None
    if all_components:
        family = tuple(component_catalog(structure).iter_all())
    priors = build_prior_report(structure)
    verdict = classify_distribution(structure, dist) if dist is not None else None
    classes = _verify_report(structure, priors, verdict)
    return AnalysisReport(structure, minimal, family, priors, dist, verdict, classes)


def _verify_report(
    s: InformationStructure, priors: PriorReport, verdict: DistributionVerdict | None
) -> dict[Trade, TradeClassification]:
    """Re-verify every witness and re-grade every refuting trade; one trade
    may refute several notions and is classified once. Returns the
    classification of each distinct refuting trade."""
    for witness in (
        priors.common_prior,
        priors.universal_common_prior,
        priors.strong_common_prior,
    ):
        if witness is not None:
            witness.verify(s)
    classes: dict[Trade, TradeClassification] = {}
    for refutation, grade in (
        (priors.common_refutation, "agreeable"),
        (priors.universal_refutation, "weakly_agreeable"),
        (priors.strong_refutation, "acceptable"),
    ):
        if refutation is not None:
            if refutation not in classes:
                classes[refutation] = classify_trade(s, refutation.payoffs)
            cls = classes[refutation]
            if not (cls.is_trade and getattr(cls, grade)):
                raise VerificationError(f"refuting trade is not {grade}")
    if verdict is not None:
        if verdict.prior_witness is not None:
            verdict.prior_witness.verify(s)
        if verdict.pump_witness is not None:
            verdict.pump_witness.verify(s)
    return classes


# -- JSON pieces ------------------------------------------------------------


def _states_json(s: InformationStructure, indices) -> list[str]:
    return [s.states[w] for w in indices]


def prior_witness_json(s: InformationStructure, witness: PriorWitness) -> dict:
    return {
        "prior": [to_json_value(v) for v in witness.prior],
        "hull_weights": [
            [to_json_value(v) for v in witness.hull_weights[i]]
            for i in range(s.num_players)
        ],
    }


def trade_json(s: InformationStructure, payoffs, cls: TradeClassification) -> dict:
    """A payoff family with its classification attached."""
    return {
        "payoffs": [[to_json_value(v) for v in row] for row in payoffs],
        "flags": {
            "is_trade": cls.is_trade,
            "is_semi_trade": cls.is_semi_trade,
            "acceptable": cls.acceptable,
            "weakly_agreeable": cls.weakly_agreeable,
            "agreeable": cls.agreeable,
        },
        "expectations": [[to_json_value(v) for v in row] for row in cls.expectations],
        "agreeable_component": None
        if cls.agreeable_component is None
        else _states_json(s, cls.agreeable_component),
    }


def pump_json(s: InformationStructure, witness: MoneyPumpWitness) -> dict:
    return {
        "dist": [to_json_value(v) for v in witness.distribution],
        "payoffs": [
            [to_json_value(v) for v in row] for row in witness.semi_trade.payoffs
        ],
        "deficit": to_json_value(witness.deficit),
        "kind": witness.kind,
    }


def _verdict_json(s, dist, verdict) -> dict | None:
    if dist is None or verdict is None:
        return None
    cls = verdict.classification
    return {
        "dist": distribution_to_json(dist)["dist"],
        "classification": {
            "prior_for": [
                s.players[i] for i, ok in enumerate(cls.prior_for_player) if ok
            ],
            "common": cls.common,
            "maximal": cls.maximal,
            "strongly_maximal": cls.strongly_maximal,
            "universal": cls.universal,
            "strong": cls.strong,
        },
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
    return "(" + ", ".join(format_rational(v) for v in values) + ")"


def _state_set(s: InformationStructure, indices) -> str:
    return "{" + ",".join(s.states[w] for w in indices) + "}"


def _trade_grade(cls: TradeClassification) -> str:
    if cls.agreeable:
        return "agreeable"
    if cls.weakly_agreeable:
        return "weakly agreeable"
    if cls.acceptable:
        return "acceptable"
    return "trade"
