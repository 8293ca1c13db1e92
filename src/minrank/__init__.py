"""Exact tools for (0,1,*) matrix completion problems over GF(2)."""

from types import ModuleType as _ModuleType

from .circuits import (
    Depth2Circuit,
    LinearDepth2Circuit,
    MiddleGate,
    OutputGate,
    emit_ckt,
    evaluate,
    extract_linear_operator,
    linearize,
    linearize_middle,
    matrix_of,
    metrics,
    parse_ckt,
    rigidity,
)
from .codes import (
    CodeMatrixSpec,
    ball,
    code_matrix,
    code_row_min_rank,
    gv_bound,
    hamming_bound,
    min_distance,
    verify_ka_is_ball,
)
from .config import VERSION, ToolConfig
from .errors import (
    InternalError,
    LimitError,
    OperatorConflict,
    ParseError,
    ToolkitError,
)
from .gf2 import (
    GF2Matrix,
    Subspace,
    dot,
    enumerate_subspaces,
    kernel,
    min_weight_nonzero,
    orthogonal_complement,
    rank,
    solve,
    subspaces_of_dim,
    vec,
    vec_text,
)
from .partial import (
    IsolationWitness,
    PartialMatrix,
    canonical_completion,
    col_min_rank,
    enumerate_completions,
    is_star_monotone,
    isolation,
    line_cover_number,
    max_independent_rows,
    max_rank,
    min_rank,
    min_rank_completion,
    row_min_rank,
    star_matching,
    stars_independent,
)
from .pmx import compact, emit_pmx, parse_pmx, row_text
from .report import (
    SearchRecord,
    best_epsilon,
    evaluate_matrix,
    format_report,
    report,
    search,
)
from .solutions import (
    ConsistentOperator,
    EpsilonRecord,
    ForbiddenSet,
    HullVerdict,
    SolutionSet,
    brute_force_opt_tiny,
    codistance,
    conjecture_epsilon,
    epsilon_of,
    forbidden_set,
    is_solution,
    lin_exact,
    linear_hull_check,
    opt_exact,
    reconstruct_operator,
    separating_min_rank,
)

__version__ = VERSION

# every public name imported above; the submodules stay out
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
