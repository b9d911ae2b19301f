"""Exact Krawtchouk LP hierarchy bounds for binary codes.

The package builds, evaluates and solves (in exact rational arithmetic)
the linear programs that bound the maximum size of binary codes via
configuration profiles of word tuples, together with brute-force oracles
that independently verify every identity the construction relies on.
"""

from .configs import (
    SDConfig,
    VennConfig,
    WordTuple,
    config_count,
    config_from_json,
    config_of_tuple,
    config_to_json,
    enumerate_configs,
    forbidden_configs,
    iter_configs,
    orbit_size,
    representative_tuple,
    sd_to_venn,
    venn_of_tuple,
    venn_to_sd,
)
from .errors import (
    CapacityError,
    InvalidInputError,
    IterationLimitError,
    KrawlpError,
    SelfCheckError,
    SolverNumericsError,
)
from .krawtchouk import (
    KrawtchoukTable,
    build_table,
    cached_table,
    classical_krawtchouk,
    eval_direct,
    eval_explicit,
    load_table,
    save_table,
    table_to_csv,
    verify_orthogonality,
    verify_reflection,
)
from .lp import (
    CodeProfile,
    CodeSet,
    FeasibilityVerdict,
    LinearProgram,
    LPRow,
    build_delsarte,
    build_hierarchy_lp,
    check_feasibility,
    export_lp,
    lp_from_json,
    lp_to_json,
    profile_of_code,
)
from .oracle import (
    build_fourier_lp,
    dual_code,
    iter_linear_codes,
    max_code,
    max_linear_code,
    verify_macwilliams,
)
from .simplex import SolveResult, root_value, solve_exact, solve_float

__version__ = "0.1.0"
