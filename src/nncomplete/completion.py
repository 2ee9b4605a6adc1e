"""Rank-1 completion, 3x3 nonnegative rank-2 completion, and the
classification of partial matrices with a single missing entry.

Also houses the degree-6 boundary polynomial for the 4x4 one-missing-entry
geometry and the zero-to-negative factor perturbation used to build
instances that lose their size-3 nonnegative factorization.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .linalg import ExactMatrix, VerificationError, det, matmul, pivot_columns, rank
from .partial import PartialMatrix, Pattern, multiplicative_potentials, nonzero_lines, support_graph, \
    zero_entries_line_consistent


class CompletionOutcome(namedtuple("CompletionOutcome", "kind matrix description", defaults=(None, None))):
    """Result of a completion query.

    kind is one of:
      "none"     -- no completion with the requested properties exists;
      "unique"   -- exactly one, given in ``matrix``;
      "infinite" -- infinitely many, ``matrix`` holds a canonical one and
                    ``description`` says where the freedom lives;
      "some"     -- a completion is given but uniqueness is not analysed
                    (used by constructive routines).
    """

    __slots__ = ()

    def has_completion(self) -> bool:
        return self.kind != "none"


def rank1_complete(m: PartialMatrix, require_nonnegative: bool = False) -> CompletionOutcome:
    """Decide and construct rank-at-most-1 completions.

    A completion exists iff every observed zero has its observed row or
    its observed column entirely zero (1x1 minors zero-consistency) and
    the cycle property holds; it is unique iff the nonzero support graph
    is connected.  The canonical completion roots every potential
    component at 1 and zeroes rows/columns whose observed entries are all
    zero.  With require_nonnegative the entry-wise absolute value is
    returned, which is again a completion because observed entries are
    nonnegative.
    """
    if require_nonnegative and not m.is_nonnegative():
        raise ValueError("nonnegative completion requested but an observed entry is negative")

    if not zero_entries_line_consistent(m):
        return CompletionOutcome("none")
    # With every observed zero line-consistent, the cycle property is the
    # consistency of the potentials: each arc of the zero-edge digraph
    # (see cycle_property) starts at a row with no nonzero entry, which no
    # arc enters, or ends at a column with no nonzero entry, which no arc
    # leaves, so no cycle passes through a zero entry.
    graph = support_graph(m)
    row_pot, col_pot, consistent = multiplicative_potentials(m, graph)
    if not consistent:
        return CompletionOutcome("none")

    nz_rows, nz_cols = nonzero_lines(m)
    u = _rank1_factor(m.p, nz_rows, {i for i, _ in m.pattern.observed}, row_pot)
    v = _rank1_factor(m.q, nz_cols, {j for _, j in m.pattern.observed}, col_pot)
    if require_nonnegative:
        u = [abs(x) for x in u]
        v = [abs(x) for x in v]
    completion = ExactMatrix([[ui * vj for vj in v] for ui in u])
    if not m.agrees_with(completion):
        raise VerificationError("rank-1 completion disagrees with an observed entry")

    free = len(graph.components()) - 1
    if free == 0:
        return CompletionOutcome("unique", completion)
    return CompletionOutcome(
        "infinite",
        completion,
        f"{free} free relative scaling(s) between components of the nonzero support graph",
    )


def _rank1_factor(n: int, nonzero: set, observed: set, potentials: dict) -> list:
    """One factor of the canonical rank-1 completion, over lines 1..n.

    Lines with a nonzero observed entry take their multiplicative
    potential; observed-but-all-zero lines take 0 (forced for every zero
    that is not already killed from the other side, and canonical
    otherwise); fully unobserved lines take 1 (canonical root)."""
    return [
        potentials[k] if k in nonzero else Fraction(0) if k in observed else Fraction(1)
        for k in range(1, n + 1)
    ]


def extend_by_sparse_row(m: PartialMatrix, completed_rest: ExactMatrix, i: int) -> ExactMatrix:
    """Re-attach row i (which has at most one observed entry) to a
    nonnegative completion of the remaining rows without raising the rank.

    An absent or zero entry yields a zero row; a nonzero entry m_ij is
    matched by scaling a row k with m_kj != 0.
    """
    if completed_rest.shape != (m.p - 1, m.q):
        raise ValueError("completed_rest must cover all rows but row i")
    observed = [(j, m.entry(i, j)) for j in range(1, m.q + 1) if m.is_observed(i, j)]
    if len(observed) > 1:
        raise ValueError(f"row {i} has more than one observed entry")
    other_rows = [r for r in range(1, m.p + 1) if r != i]
    if not observed or observed[0][1] == 0:
        new_row = [Fraction(0)] * m.q
    else:
        j, mij = observed[0]
        k = next(
            (r for r in other_rows if m.is_observed(r, j) and m.entry(r, j) != 0),
            None,
        )
        if k is None:
            raise ValueError(f"no other row with a nonzero observed entry in column {j}")
        source = completed_rest.row(other_rows.index(k) + 1)
        scale = mij / source[j - 1]
        new_row = [scale * x for x in source]
    rows = completed_rest.to_lists()
    rows.insert(i - 1, new_row)
    return ExactMatrix(rows)


def nn_rank2_pattern_equivalence(pattern: Pattern) -> bool:
    """For a 3x3 pattern: does every nonnegative partial matrix with this
    pattern that has a rank-<=2 completion also have a nonnegative
    rank-<=2 completion?

    Fails exactly when the missing set is nonempty and its entries occupy
    pairwise distinct rows and columns.
    """
    if (pattern.p, pattern.q) != (3, 3):
        raise ValueError("pattern must be 3x3")
    missing = pattern.missing
    if not missing:
        return True
    rows = [i for (i, j) in missing]
    cols = [j for (i, j) in missing]
    diagonal_like = len(set(rows)) == len(missing) and len(set(cols)) == len(missing)
    return not diagonal_like


def nn_rank2_complete_3x3(m: PartialMatrix) -> CompletionOutcome:
    """Construct a nonnegative rank-<=2 completion of a 3x3 nonnegative
    partial matrix, following the case analysis behind the pattern
    characterization.

    Covered cases: fully observed; a row or column with at most one
    observed entry (deleted, completed, re-attached), which every other
    pattern without a diagonal-like missing set has.  A pattern without
    one would raise an "unsupported pattern" error rather than risk a
    wrong answer.
    """
    if (m.p, m.q) != (3, 3):
        raise ValueError("matrix must be 3x3")
    if not m.is_nonnegative():
        raise ValueError("observed entries must be nonnegative")
    if not nn_rank2_pattern_equivalence(m.pattern):
        raise ValueError("pattern with diagonal-like missing set is not supported")

    if m.pattern.is_full():
        full = m.to_full_matrix()
        if rank(full) <= 2:
            return CompletionOutcome("unique", full)
        return CompletionOutcome("none")

    # holes are filled only when no line qualifies without them, so that
    # every answer of the first pass stays as it is
    for fill_hole in (False, True):
        for transpose in (False, True):
            work = m.transpose() if transpose else m
            out = _complete_via_sparse_line(work, fill_hole)
            if out is None:
                continue
            if out.kind != "none":
                c = out.matrix
                if not (work.agrees_with(c) and c.is_nonnegative() and rank(c) <= 2):
                    raise VerificationError("rank-2 completion is not a nonnegative rank-<=2 completion")
                if transpose:
                    out = out._replace(matrix=c.transpose())
            return out
    raise ValueError("unsupported pattern: no row or column with at most one observed entry")


def _complete_via_sparse_line(m: PartialMatrix, fill_hole: bool) -> CompletionOutcome | None:
    """Try the sparse-row reduction; None means no row of m qualifies.

    A row whose only observed entry m_ij is nonzero is re-attached by
    scaling another row at column j.  When column j has holes and no other
    nonzero entry, the row qualifies only with ``fill_hole``, which puts a
    1 in the first of those holes.
    """
    for i in range(1, m.p + 1):
        observed = [(j, m.entry(i, j)) for j in range(1, m.q + 1) if m.is_observed(i, j)]
        if len(observed) > 1:
            continue
        rest_rows = [r for r in range(1, m.p + 1) if r != i]
        rest = PartialMatrix.from_rows([[m.get(r, c) for c in range(1, m.q + 1)] for r in rest_rows])
        fills = {pos: Fraction(0) for pos in rest.pattern.missing}
        if observed and observed[0][1] != 0:
            j, mij = observed[0]
            col_rest = [m.get(r, j) for r in rest_rows]
            if all(x is None or x == 0 for x in col_rest):
                if None not in col_rest:
                    # all other entries of column j are observed zeros: the
                    # rest must have a rank-<=1 completion for any rank-<=2
                    # completion of m to exist at all
                    rest_outcome = rank1_complete(rest, require_nonnegative=True)
                    if rest_outcome.kind == "none":
                        return CompletionOutcome("none")
                    rows = rest_outcome.matrix.to_lists()
                    new_row = [Fraction(0)] * m.q
                    new_row[j - 1] = mij
                    rows.insert(i - 1, new_row)
                    return CompletionOutcome("some", ExactMatrix(rows))
                if not fill_hole:
                    continue  # column undetermined; try another line
                k = col_rest.index(None) + 1
                fills[(k, j)] = Fraction(1)
                rows = rest.complete_with(fills).to_lists()
                rows.insert(i - 1, [mij * x for x in rows[k - 1]])
                return CompletionOutcome("some", ExactMatrix(rows))
        # scale another row: any nonnegative fill of the 2x3 rest works
        return CompletionOutcome("some", extend_by_sparse_row(m, rest.complete_with(fills), i))
    return None


def classify_one_missing(m: PartialMatrix, hole: tuple, r: int) -> CompletionOutcome:
    """Trichotomy for rank-<=r completions with exactly one missing entry.

    Infinitely many completions iff deleting the hole's row or column drops
    the rank to <= r-1; a unique completion iff the row-deleted,
    column-deleted, and both-deleted submatrices all have rank exactly r
    (value solved from the vanishing (r+1)x(r+1) minor); no completion
    otherwise.
    """
    i, j = hole
    if r > min(m.p, m.q):
        raise ValueError(f"rank bound {r} exceeds matrix dimensions")
    if r < 1:
        raise ValueError("rank bound must be >= 1")
    rows_wo, cols_wo, (row_rank, col_rank) = _deleted_line_ranks(m, hole)
    if min(row_rank, col_rank) <= r - 1:
        canonical = m.complete_with({(i, j): Fraction(0)})
        return CompletionOutcome("infinite", canonical, "the missing entry may take any value")

    both_deleted = m.observed_submatrix(rows_wo, cols_wo)
    if row_rank == col_rank == r and rank(both_deleted) == r:
        # independent rows and independent columns of a rank-r matrix
        # meet in a nonsingular r x r minor
        K, L = pivot_columns(both_deleted.transpose()), pivot_columns(both_deleted)
        # translate back to indices of the full matrix
        K_full = [rows_wo[k - 1] for k in K]
        L_full = [cols_wo[l - 1] for l in L]
        value = _solve_vanishing_minor(m, (i, j), sorted(K_full + [i]), sorted(L_full + [j]))
        completion = m.complete_with({(i, j): value})
        if rank(completion) != r:
            raise VerificationError(f"unique completion does not have rank {r}")
        return CompletionOutcome("unique", completion)

    return CompletionOutcome("none")


def _solve_vanishing_minor(m: PartialMatrix, hole, rows, cols) -> Fraction:
    """The hole value making det of the selected submatrix vanish.

    The determinant is linear in the hole entry with nonzero leading
    coefficient (the complementary minor).
    """
    d0 = det(m.complete_with({hole: Fraction(0)}).submatrix(rows, cols))
    d1 = det(m.complete_with({hole: Fraction(1)}).submatrix(rows, cols))
    c1 = d1 - d0
    if c1 == 0:
        raise VerificationError("complementary minor of the hole vanishes")
    return -d0 / c1


def in_singular_image(m: PartialMatrix, hole: tuple, r: int) -> bool:
    """Whether the one-missing-entry instance lies in the image of the
    singular locus of the forget-one-entry projection: deleting the hole's
    row or column already drops the rank below r."""
    return min(_deleted_line_ranks(m, hole)[2]) <= r - 1


def _deleted_line_ranks(m: PartialMatrix, hole: tuple):
    """The rows other than the hole's, the columns other than the hole's,
    and the ranks of m with the hole's row deleted and with its column
    deleted."""
    i, j = hole
    if m.pattern.missing != frozenset({(i, j)}):
        raise ValueError(f"pattern must be missing exactly the entry {hole}")
    rows_wo = [x for x in range(1, m.p + 1) if x != i]
    cols_wo = [y for y in range(1, m.q + 1) if y != j]
    ranks = (
        rank(m.observed_submatrix(rows_wo, range(1, m.q + 1))),
        rank(m.observed_submatrix(range(1, m.p + 1), cols_wo)),
    )
    return rows_wo, cols_wo, ranks


# term list: (sign, [(i,j) factors]); degree six, 24 monomials
_SEXTIC_TERMS = [
    (+1, [(1, 4), (2, 3), (3, 2), (3, 3), (4, 1), (4, 2)]),
    (-1, [(1, 4), (2, 2), (3, 3), (3, 3), (4, 1), (4, 2)]),
    (+1, [(1, 2), (2, 4), (3, 3), (3, 3), (4, 1), (4, 2)]),
    (-1, [(1, 3), (2, 3), (3, 2), (3, 4), (4, 1), (4, 2)]),
    (+1, [(1, 3), (2, 2), (3, 3), (3, 4), (4, 1), (4, 2)]),
    (-1, [(1, 2), (2, 3), (3, 3), (3, 4), (4, 1), (4, 2)]),
    (-1, [(1, 4), (2, 3), (3, 1), (3, 3), (4, 2), (4, 2)]),
    (+1, [(1, 3), (2, 3), (3, 1), (3, 4), (4, 2), (4, 2)]),
    (-1, [(1, 4), (2, 3), (3, 2), (3, 2), (4, 1), (4, 3)]),
    (+1, [(1, 4), (2, 2), (3, 2), (3, 3), (4, 1), (4, 3)]),
    (-1, [(1, 2), (2, 4), (3, 2), (3, 3), (4, 1), (4, 3)]),
    (+1, [(1, 2), (2, 3), (3, 2), (3, 4), (4, 1), (4, 3)]),
    (+1, [(1, 4), (2, 3), (3, 1), (3, 2), (4, 2), (4, 3)]),
    (+1, [(1, 4), (2, 2), (3, 1), (3, 3), (4, 2), (4, 3)]),
    (-1, [(1, 2), (2, 4), (3, 1), (3, 3), (4, 2), (4, 3)]),
    (-1, [(1, 3), (2, 2), (3, 1), (3, 4), (4, 2), (4, 3)]),
    (-1, [(1, 4), (2, 2), (3, 1), (3, 2), (4, 3), (4, 3)]),
    (+1, [(1, 2), (2, 4), (3, 1), (3, 2), (4, 3), (4, 3)]),
    (+1, [(1, 3), (2, 3), (3, 2), (3, 2), (4, 1), (4, 4)]),
    (-1, [(1, 3), (2, 2), (3, 2), (3, 3), (4, 1), (4, 4)]),
    (-1, [(1, 3), (2, 3), (3, 1), (3, 2), (4, 2), (4, 4)]),
    (+1, [(1, 2), (2, 3), (3, 1), (3, 3), (4, 2), (4, 4)]),
    (+1, [(1, 3), (2, 2), (3, 1), (3, 2), (4, 3), (4, 4)]),
    (-1, [(1, 2), (2, 3), (3, 1), (3, 2), (4, 3), (4, 4)]),
]


def eval_boundary_sextic(m) -> Fraction:
    """Exact value of the degree-6, 24-term boundary polynomial in the
    entries m_12 .. m_44 of a 4x4 matrix (the (1,1) entry never occurs).

    Vanishes on every product A.B where A is 4x3 with zeros at
    (1,1),(2,2),(3,3),(4,3) and B is 3x4 with zeros at (1,1),(2,2),(3,3).
    """
    if isinstance(m, PartialMatrix):
        if (m.p, m.q) != (4, 4):
            raise ValueError("matrix must be 4x4")
        need = {(i, j) for i in range(1, 5) for j in range(1, 5)} - {(1, 1)}
        if not need <= m.pattern.observed:
            raise ValueError("entries m_12 .. m_44 must all be observed")
        get = m.entry
    elif isinstance(m, ExactMatrix):
        if m.shape != (4, 4):
            raise ValueError("matrix must be 4x4")
        get = m.entry
    else:
        raise TypeError("expected ExactMatrix or PartialMatrix")
    total = Fraction(0)
    for sign, factors in _SEXTIC_TERMS:
        prod = Fraction(sign)
        for (i, j) in factors:
            prod *= get(i, j)
        total += prod
    return total


class PerturbationSpec(namedtuple("PerturbationSpec", "side position epsilon")):
    """Replace an exact zero of one factor with a negative epsilon."""

    __slots__ = ()
    # _replace copies through _make, and namedtuple's own _make skips __new__
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, side: str, position: tuple, epsilon: Fraction):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if Fraction(epsilon) >= 0:
            raise ValueError("epsilon must be negative")
        return super().__new__(cls, side, position, epsilon)


def perturb_unique_nmf(a: ExactMatrix, b: ExactMatrix, spec: PerturbationSpec) -> ExactMatrix:
    """Product of the factors after replacing one zero entry of a (or b)
    with spec.epsilon.

    For factorizations that are unique up to scaling and permutation, the
    product loses its size-r nonnegative factorization for epsilon close
    enough to zero; closeness is certified downstream, not here.
    """
    if not matmul(a, b).is_nonnegative():
        raise ValueError("product of the unperturbed factors must be nonnegative")
    target = a if spec.side == "left" else b
    i, j = spec.position
    if target.entry(i, j) != 0:
        raise ValueError(f"entry {spec.position} of the {spec.side} factor is not zero")
    perturbed = target.with_entry(i, j, Fraction(spec.epsilon))
    if spec.side == "left":
        return matmul(perturbed, b)
    return matmul(a, perturbed)
