"""Exact solvers for transferable-utility profit-sharing games."""

from .core import (
    EmptyCoreError,
    LinearProgram,
    check_anticore,
    check_domination,
    simplex_solve,
    ws_core_nonempty,
)
from .decompose import (
    ComponentPartition,
    check_strong_decomposability,
    check_weak_decomposability,
    find_components,
    find_components_general,
    find_components_matching,
    verify_component,
)
from .disagreement import eating, rp_allocation, rp_exact, rp_montecarlo, uniform
from .egalitarian import (
    lexmax_lp,
    lorenz_compare,
    solve_lexmax,
    sum_squares,
    water_filling,
)
from .model import (
    DisagreementPoint,
    Instance,
    MatchingInstance,
    Solution,
    apply_rent_shift,
    fixture,
    format_rational,
    normalize_to_disagreement,
    parse_rational,
    zero_disagreement,
)
from .rivals import (
    MechanismReport,
    ef_maxmin,
    ks_bargaining,
    mechanism_report,
    nash_bargaining,
    nucleolus_ws,
    run_mechanism,
    shapley,
)
from .welfare import SetFunctionOracle, dual, is_submodular, wmax, wmax_argmax, wpi

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
