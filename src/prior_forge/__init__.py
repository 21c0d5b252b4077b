"""Exact decisions about priors, trades, and money pumps on finite
multi-player information structures.

Everything is computed in exact rational arithmetic and every positive
answer ships a witness that has been re-verified against its definition;
every negative answer is witnessed by the dual object (a trade or a pump).
See the README for the notions and the CLI.
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
from .harness import (
    BatteryReport,
    CheckFailure,
    CrossCheckReport,
    GeneratorConfig,
    cross_check,
    oracle_battery,
    random_distribution,
    random_structure,
    run_battery,
    structure_digest,
)
from .jsonio import (
    SCHEMA,
    dumps_canonical,
    parse_distribution,
    parse_payoffs,
    parse_structure,
    structure_to_json,
)
from .lp import (
    Constraint,
    FarkasCertificate,
    LinearProgram,
    LPBuilder,
    LPOutcome,
    enumerate_basic_solutions,
    farkas_violations,
    feasibility_violations,
    solve,
)
from .model import (
    Distribution,
    InformationStructure,
    expectation_table,
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

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
