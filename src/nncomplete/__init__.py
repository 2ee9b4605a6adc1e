"""Exact decision, construction and certification of low-rank and
low-nonnegative-rank completions of partial nonnegative matrices.

All arithmetic is over the rationals (fractions.Fraction); there are no
tolerances anywhere.  Matrix indices are 1-based throughout the public
API.
"""

from .linalg import (
    ExactMatrix,
    LinearSolution,
    det,
    inverse,
    matmul,
    minor,
    rank,
    solve_linear,
)
from .partial import (
    ParseError,
    PartialMatrix,
    Pattern,
    SupportGraph,
    cycle_property,
    minors_zero_consistent,
    parse_partial,
    serialize_matrix,
    serialize_partial,
    support_graph,
    zero_entries_line_consistent,
    zero_line_property,
)
from .polyfun import Poly, RationalFunction
from .completion import (
    CompletionOutcome,
    PerturbationSpec,
    classify_one_missing,
    eval_boundary_sextic,
    extend_by_sparse_row,
    in_singular_image,
    nn_rank2_complete_3x3,
    nn_rank2_pattern_equivalence,
    perturb_unique_nmf,
    rank1_complete,
)
from .geometry import (
    SUM_CHART,
    HalfPlane,
    NestedPair,
    Polygon2,
    Triangle,
    UnboundedRegionError,
    VerificationError,
    chord_exit,
    contains,
    convex_hull,
    nested_triangle,
    nn_rank_at_most_3,
    polygon_from_halfplanes,
    polytopes_from_factorization,
    slack_matrix,
    tangent_vertex,
    triangle_to_factorization,
)
from .family import (
    FamilyError,
    Interval,
    NestedFamily,
    Nn3Certificate,
    Normalization,
    decide_nn3_two_missing,
    family_11_21,
    family_11_22,
    feasible_set,
    normalize_two_missing,
    simplicial_sign_check,
    special_case_low_rank,
    sufficient_11_21,
    sweep_candidates,
)
from .svg import render_nested_pair

__version__ = "0.1.0"
