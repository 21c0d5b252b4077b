"""The benchmark's workloads: inputs, the timed operation, the correctness
gate.

``make_inputs`` runs in the parent process and needs only ``gen``. The
other functions run in the measuring process after ``prior_forge`` has been
imported; they reach the package through module attributes at call time so
that the tracer's wrappers are seen.

Every workload is a fixed list of operations derived from the seed. A run
walks the list once, so no input repeats inside a run.
"""

from __future__ import annotations

import json
from dataclasses import replace
from itertools import product

import gen

BATTERY_OPS = 1000
NO_PRIOR_SIZES = (10, 12)
NO_PRIOR_OPS = 144
PLANTED_DESIGN = tuple(product((32, 44), (3, 4), (1, 2, 4)))  # (M, N, blocks)
PLANTED_REPLICATES = 3


def make_inputs(workload: str, seed: int) -> dict:
    """JSON-able inputs; structures and distributions as document text."""
    if workload == "battery":
        return {"seeds": [seed * BATTERY_OPS + k for k in range(BATTERY_OPS)]}
    ops = []
    if workload == "no_prior_large":
        for k in range(NO_PRIOR_OPS):
            m = NO_PRIOR_SIZES[k % len(NO_PRIOR_SIZES)]
            doc = gen.random_doc(m, 3, gen.rng_for(workload, seed, k))
            ops.append({"structure": doc, "dist": gen.dist_doc(gen.uniform_masses(m))})
    elif workload == "planted_large":
        design = [(r, cell) for r in range(PLANTED_REPLICATES) for cell in PLANTED_DESIGN]
        for k, (replicate, (m, n, blocks)) in enumerate(design):
            rng = gen.rng_for(workload, seed, k)
            doc, prior = gen.planted_doc(m, n, blocks, rng)
            # Replicates alternate, per design cell, between the planted
            # prior and another full-support distribution.
            planted_side = (k + replicate) % 2 == 0
            dist = prior if planted_side else gen.full_support_masses(m, rng)
            ops.append({
                "structure": doc,
                "dist": gen.dist_doc(dist),
                "planted": gen.dist_doc(prior),
            })
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {
        "ops": [
            {key: json.dumps(doc, indent=2) for key, doc in op.items()} for op in ops
        ]
    }


# -- measuring-process side --------------------------------------------------
#
# Each class has prepare() (set-up: parse the input documents), run() (one
# timed operation), size() (M and N of an operation) and check() (the
# untimed gate: problems, properties, canonical bytes).


class Battery:
    def __init__(self, pf) -> None:
        self.pf = pf  # the imported prior_forge package
        self.cfg = pf.harness.GeneratorConfig()

    def prepare(self, inputs: dict) -> list:
        return inputs["seeds"]

    def run(self, seed):
        harness = self.pf.harness
        structure = harness.random_structure(replace(self.cfg, seed=seed))
        return structure, harness.cross_check(structure, 2)

    def size(self, seed, out) -> tuple[int, int]:
        return out[0].num_states, out[0].num_players

    def check(self, seed, out):
        pf = self.pf
        structure, cross = out
        problems = [f"{f.name}: {f.details}" for f in cross.failures]
        props = _properties(
            structure,
            pf.priors.find_common_prior(structure) is not None,
            pf.certainty.minimal_components(structure),
        )
        text = pf.jsonio.dumps_canonical(pf.jsonio.structure_to_json(structure))
        return problems, props, text.encode()


class Analysis:
    """``analyze`` plus canonical JSON, the ``report --json --dist`` path."""

    def __init__(self, pf) -> None:
        self.pf = pf

    def prepare(self, inputs: dict) -> list:
        jsonio = self.pf.jsonio
        prepared = []
        for op in inputs["ops"]:
            structure = jsonio.parse_structure(jsonio.loads(op["structure"]))
            item = {"structure": structure}
            for key in ("dist", "planted"):
                if key in op:
                    item[key] = jsonio.parse_distribution(jsonio.loads(op[key]), structure)
            prepared.append(item)
        return prepared

    def run(self, item):
        report = self.pf.report.analyze(item["structure"], item["dist"])
        return report, self.pf.jsonio.dumps_canonical(report.to_json())

    def size(self, item, out) -> tuple[int, int]:
        return item["structure"].num_states, item["structure"].num_players

    def check(self, item, out):
        pf = self.pf
        report, text = out
        s = item["structure"]
        pr = report.priors
        problems = []
        grades = (
            ("common", pr.common_prior, pr.common_refutation, "agreeable"),
            ("universal", pr.universal_common_prior, pr.universal_refutation, "weakly_agreeable"),
            ("strong", pr.strong_common_prior, pr.strong_refutation, "acceptable"),
        )
        for notion, witness, refutation, grade in grades:
            if (witness is None) == (refutation is None):
                problems.append(f"{notion}: not exactly one of prior and {grade} trade")
            if witness is not None:
                witness.verify(s)
            if refutation is not None:
                cls = pf.trades.classify_trade(s, refutation.payoffs)
                if not (cls.is_trade and getattr(cls, grade)):
                    problems.append(f"{notion}: refuting trade is not {grade}")
        verdict = report.verdict
        if (verdict.prior_witness is None) == (verdict.pump_witness is None):
            problems.append("distribution: not exactly one of prior and pump")
        if verdict.prior_witness is not None:
            verdict.prior_witness.verify(s)
        if verdict.pump_witness is not None:
            verdict.pump_witness.verify(s)
        if (verdict.base == "common_prior") != (verdict.prior_witness is not None):
            problems.append("distribution: verdict disagrees with its witness")
        if "planted" in item:
            planted = pf.priors.classify_prior(s, item["planted"])
            if not (planted.common and planted.strong):
                problems.append("planted prior not classified common and strong")
            if item["dist"] == item["planted"] and not (
                verdict.base == "common_prior" and verdict.strong == "strong_common_prior"
            ):
                problems.append("planted prior not reported as strong common prior")
        props = _properties(s, pr.common_prior is not None, report.minimal)
        return problems, props, text.encode()


WORKLOADS = {"battery": Battery, "no_prior_large": Analysis, "planted_large": Analysis}


def _properties(structure, has_common: bool, minimal) -> dict:
    """Properties that later optimisations key on."""
    return {
        "no_common_prior": not has_common,
        "multi_component": len(minimal) >= 2,
        "proper_component": minimal != (tuple(range(structure.num_states)),),
    }
