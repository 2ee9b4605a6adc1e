"""Exact decision, construction and certification of low-rank and
low-nonnegative-rank completions of partial nonnegative matrices.

All arithmetic is over the rationals (fractions.Fraction); there are no
tolerances anywhere.  Matrix indices are 1-based throughout the public
API.

The package imports a submodule on the first use of one of its names, so
a process loads only the modules it runs.
"""

# public name -> the submodule that defines it
_EXPORTS = {
    "ExactMatrix": "linalg",
    "LinearSolution": "linalg",
    "VerificationError": "linalg",
    "det": "linalg",
    "inverse": "linalg",
    "matmul": "linalg",
    "minor": "linalg",
    "rank": "linalg",
    "solve_linear": "linalg",
    "ParseError": "partial",
    "PartialMatrix": "partial",
    "Pattern": "partial",
    "SupportGraph": "partial",
    "cycle_property": "partial",
    "minors_zero_consistent": "partial",
    "parse_partial": "partial",
    "serialize_matrix": "partial",
    "serialize_partial": "partial",
    "support_graph": "partial",
    "zero_entries_line_consistent": "partial",
    "zero_line_property": "partial",
    "CompletionOutcome": "completion",
    "PerturbationSpec": "completion",
    "classify_one_missing": "completion",
    "eval_boundary_sextic": "completion",
    "extend_by_sparse_row": "completion",
    "in_singular_image": "completion",
    "nn_rank2_complete_3x3": "completion",
    "nn_rank2_pattern_equivalence": "completion",
    "perturb_unique_nmf": "completion",
    "rank1_complete": "completion",
    "SUM_CHART_INVERSE": "geometry",
    "NestedPair": "geometry",
    "Polygon2": "geometry",
    "UnboundedRegionError": "geometry",
    "contains": "geometry",
    "nested_triangle": "geometry",
    "nn_rank_at_most_3": "geometry",
    "polygon_from_halfplanes": "geometry",
    "polytopes_from_factorization": "geometry",
    "slack_matrix": "geometry",
    "triangle_to_factorization": "geometry",
    "FamilyError": "family",
    "Interval": "family",
    "NestedFamily": "family",
    "Nn3Certificate": "family",
    "Normalization": "family",
    "decide_nn3_two_missing": "family",
    "family_11_21": "family",
    "family_11_22": "family",
    "feasible_set": "family",
    "normalize_two_missing": "family",
    "simplicial_sign_check": "family",
    "special_case_low_rank": "family",
    "sufficient_11_21": "family",
    "sweep_candidates": "family",
    "render_nested_pair": "svg",
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    """Import the submodule that defines a public name, and keep the name
    here so that the next lookup does not come back (PEP 562)."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
