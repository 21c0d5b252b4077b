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
so its body runs on its first attribute access. Their names are read on
the modules themselves (``prior_forge.harness.cross_check``,
``prior_forge.lp.solve``). Registration, rather than a ``__getattr__`` that
imports, keeps both modules in ``sys.modules`` from the start for code that
looks them up there, such as a tracer that wraps the package's functions
before any of them runs.
"""

from ._rational import ONE, ZERO, rational
from .certainty import (
    closure,
    component_family,
    is_commonly_certain,
    is_maximal,
    is_strongly_maximal,
    minimal_components,
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

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
