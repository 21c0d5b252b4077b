"""Exact decisions about priors, trades, and money pumps on finite
multi-player information structures.

Everything is computed in exact rational arithmetic and every positive
answer ships a witness that has been re-verified against its definition;
every negative answer is witnessed by the dual object (a trade or a pump).
See the README for the notions and the CLI.

Load policy: the analysis modules (``certainty``, ``errors``, ``model``,
``priors``, ``trades``, ``jsonio``, ``report``) load with the package. The
oracle layer, ``harness`` (the generator and the cross-check battery) and
``lp`` (the exact simplex the battery's oracles solve), loads on first use:
each is registered in ``sys.modules`` through ``importlib.util.LazyLoader``,
so its body runs on its first attribute access, and the names re-exported
from it resolve through the module-level ``__getattr__``. Registration,
rather than a ``__getattr__`` that imports, keeps both modules in
``sys.modules`` from the start for code that looks them up there, such as a
tracer that wraps the package's functions before any of them runs.
"""

from ._rational import Rational, ZERO, ONE, format_rational, rational
from .certainty import (
    closure,
    component_family,
    is_commonly_certain,
    is_maximal,
    is_strongly_maximal,
    minimal_components,
    support_graph,
)
from .errors import (
    DimensionError,
    EmptySetError,
    InconsistencyError,
    InputError,
    NotAComponentError,
    PartitionError,
    PlayerCountError,
    PriorForgeError,
    SchemaError,
    SizeCapError,
    StochasticityError,
    SupportError,
    VerificationError,
)
from .jsonio import (
    SCHEMA,
    dumps_canonical,
    parse_distribution,
    parse_payoffs,
    parse_structure,
    structure_to_json,
)
from .model import (
    Distribution,
    InformationStructure,
    forward_closed,
    induced_substructure,
    make_structure,
    payoff_vector,
    single_player_view,
    uniform,
)
from .priors import (
    PriorClassification,
    PriorWitness,
    classify_prior,
    disintegrable_by_definition,
    find_common_prior,
    find_strong_common_prior,
    find_universal_common_prior,
    hull_weights,
    is_conglomerable,
    is_disintegrable,
)
from .report import AnalysisReport, analyze
from .trades import (
    DistributionVerdict,
    MoneyPumpWitness,
    PriorReport,
    Trade,
    TradeClassification,
    build_prior_report,
    classify_distribution,
    classify_trade,
    find_acceptable_trade,
    find_agreeable_trade,
    find_multiplayer_money_pump,
    find_single_money_pump,
    find_weakly_agreeable_trade,
    pump_kind,
)


def _load_on_first_use(name: str):
    """Register the submodule ``name`` so that its body runs on first
    attribute access, and return it."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


harness = _load_on_first_use("harness")
lp = _load_on_first_use("lp")

# The names re-exported from the modules loaded on first use, by module name.
_ON_FIRST_USE = {
    **dict.fromkeys(
        (
            "BatteryReport",
            "CheckFailure",
            "CrossCheckReport",
            "GeneratorConfig",
            "cross_check",
            "oracle_battery",
            "random_distribution",
            "random_structure",
            "run_battery",
            "structure_digest",
        ),
        "harness",
    ),
    **dict.fromkeys(
        (
            "Constraint",
            "FarkasCertificate",
            "LinearProgram",
            "LPBuilder",
            "LPOutcome",
            "enumerate_basic_solutions",
            "farkas_violations",
            "feasibility_violations",
            "solve",
        ),
        "lp",
    ),
}


def __getattr__(name: str):
    module = _ON_FIRST_USE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_ON_FIRST_USE})


__version__ = "0.1.0"

__all__ = sorted(name for name in {*dir(), *_ON_FIRST_USE} if not name.startswith("_"))
