"""Outside-in span tracing of prior_forge's public functions.

``install`` wraps each traced function where it lives and in every
``prior_forge`` module that imported it by name, so calls between modules
pass through the wrapper too. Methods are wrapped on their class. Nothing in
the package is edited; the wrappers live only in the traced process.

Each span records name, start, end and parent span in memory; ``self_s`` of
a span is its duration minus the time its direct children cover. The
tracer's own bookkeeping (appending spans, sizing linear programs) runs on a
stopped clock, so it does not inflate the spans around it. The real cost of
tracing still shows in the traced run's wall-clock throughput.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, attribute) -> span name. Oracles from ``priors`` are named after
# the harness that calls them.
TRACED = {
    ("lp", "solve"): "lp.solve",
    ("priors", "find_common_prior"): "priors.find_common_prior",
    ("priors", "find_universal_common_prior"): "priors.find_universal_common_prior",
    ("priors", "find_strong_common_prior"): "priors.find_strong_common_prior",
    ("priors", "hull_weights"): "priors.hull_weights",
    ("priors", "classify_prior"): "priors.classify_prior",
    ("priors", "PriorWitness.verify"): "priors.PriorWitness.verify",
    ("priors", "disintegrable_by_definition"): "harness.disintegrable_by_definition",
    ("priors", "is_conglomerable"): "harness.is_conglomerable",
    ("trades", "find_agreeable_trade"): "trades.find_agreeable_trade",
    ("trades", "find_weakly_agreeable_trade"): "trades.find_weakly_agreeable_trade",
    ("trades", "find_acceptable_trade"): "trades.find_acceptable_trade",
    ("trades", "find_multiplayer_money_pump"): "trades.find_multiplayer_money_pump",
    ("trades", "find_single_money_pump"): "trades.find_single_money_pump",
    ("trades", "classify_trade"): "trades.classify_trade",
    ("trades", "classify_distribution"): "trades.classify_distribution",
    ("trades", "MoneyPumpWitness.verify"): "trades.MoneyPumpWitness.verify",
    ("certainty", "minimal_components"): "certainty.minimal_components",
    ("certainty", "closure"): "certainty.closure",
    ("certainty", "is_maximal"): "certainty.is_maximal",
    ("certainty", "is_strongly_maximal"): "certainty.is_strongly_maximal",
    ("model", "induced_substructure"): "model.induced_substructure",
    ("model", "single_player_view"): "model.single_player_view",
    ("harness", "random_structure"): "harness.random_structure",
    ("harness", "random_distribution"): "harness.random_distribution",
    ("report", "analyze"): "report.analyze",
    ("report", "AnalysisReport.to_json"): "report.AnalysisReport.to_json",
    ("jsonio", "parse_structure"): "jsonio.parse_structure",
    ("jsonio", "dumps_canonical"): "jsonio.dumps_canonical",
}

PURPOSES = ("common", "agreeable", "acceptable", "pump")


def lp_purpose(names) -> str:
    """Which family a program belongs to, read from its variable names:
    ``eps`` with ``w[`` (joint common-prior program), ``delta`` (agreeable),
    ``f[player,state]`` (acceptable), ``f[state]`` (money-pump piece)."""
    if "delta" in names:
        return "agreeable"
    if "eps" in names and any(n.startswith("w[") for n in names):
        return "common"
    if names and names[0].startswith("f["):
        return "acceptable" if "," in names[0] else "pump"
    return "other"


def _bits(values) -> int:
    best = 0
    for q in values:
        if q:
            best = max(best, abs(q.numerator).bit_length(), q.denominator.bit_length())
    return best


def lp_stats(program, outcome) -> dict:
    """Purpose, size, coefficient bits and outcome of one solve."""
    nnz = 0
    in_bits = _bits(program.objective)
    in_bits = max(in_bits, _bits(b for b in program.lower if b is not None))
    in_bits = max(in_bits, _bits(b for b in program.upper if b is not None))
    for con in program.constraints:
        nnz += sum(1 for c in con.coeffs if c)
        in_bits = max(in_bits, _bits(con.coeffs), _bits((con.rhs,)))
    if outcome.primal is not None:
        out_bits = _bits(outcome.primal)
    elif outcome.certificate is not None:
        cert = outcome.certificate
        out_bits = max(
            _bits(cert.constraint_multipliers),
            _bits(cert.lower_multipliers),
            _bits(cert.upper_multipliers),
        )
    else:
        out_bits = 0
    return {
        "purpose": lp_purpose(program.names),
        "rows": len(program.constraints),
        "vars": program.num_vars,
        "nnz": nnz,
        "in_bits": in_bits,
        "out_bits": out_bits,
        "infeasible": outcome.status == "infeasible",
    }


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index, attrs or None]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.stopped = 0.0  # bookkeeping time taken off the clock

    def now(self) -> float:
        return perf_counter() - self.stopped

    def open(self, name: str) -> list:
        t = perf_counter()
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        self.stopped += perf_counter() - t
        span[1] = self.now()
        return span

    def close(self, span: list) -> None:
        span[2] = self.now()
        self.stack.pop()

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if name == "lp.solve":
                t = perf_counter()
                span[4] = lp_stats(args[0], result)
                tracer.stopped += perf_counter() - t
            return result

        return traced

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]


def install(tracer: Tracer) -> None:
    """Wrap every TRACED function in the already imported package."""
    modules = [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == "prior_forge" or key.startswith("prior_forge."))
    ]
    for (module, attr), name in TRACED.items():
        home = sys.modules[f"prior_forge.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth)))
            continue
        original = getattr(home, attr)
        wrapper = tracer.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
