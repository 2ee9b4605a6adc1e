"""One-parameter families of nested polygons for 4x4 partial nonnegative
matrices with two missing entries, and the decision procedure built on
them.

Two canonical hole patterns are supported (after row/column permutation
and transposition): holes (1,1),(2,1) in one column, where the outer
polygon is fixed and one vertex of the inner polygon slides along a line;
and holes (1,1),(2,2) in different rows and columns, where one facet of
the outer polygon and one vertex of the inner polygon move together.

The parameter t enters exactly one entry, so every datum of a family is
an affine pencil in t: the factor entries, over one denominator for A;
the moving vertex, as a homogeneous triple; and each incidence of the
moving vertex or facet with a fixed point or line.  Every critical t and
every feasibility boundary is the root of an affine function, taken in
closed form, so no polynomial arithmetic or root isolation is needed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .linalg import ExactMatrix, det, integer_scaled, inverse, matmul, rank, solve_linear
from .partial import PartialMatrix
from .geometry import (
    SUM_CHART,
    HalfPlane,
    NestedPair,
    Polygon2,
    Triangle,
    UnboundedRegionError,
    contains,
    cross,
    join,
    meet,
    nested_triangle,
    nn_rank_at_most_3,
    polytopes_from_factorization,
    side,
    triangle_to_factorization,
)


class FamilyError(ValueError):
    """The partial matrix is outside the reach of the family construction."""


# ---------------------------------------------------------------------------
# feasible sets of affine sign constraints


@dataclass(frozen=True)
class Interval:
    """Closed-by-default t-interval; None bounds mean +-infinity and an
    open flag marks an excluded finite endpoint (e.g. a pole)."""

    lo: Fraction | None
    hi: Fraction | None
    lo_open: bool = False
    hi_open: bool = False

    def contains(self, t: Fraction) -> bool:
        t = Fraction(t)
        if self.lo is not None and (t < self.lo or (self.lo_open and t == self.lo)):
            return False
        if self.hi is not None and (t > self.hi or (self.hi_open and t == self.hi)):
            return False
        return True

    def sample(self) -> Fraction:
        """Some rational point of a nonempty interval."""
        if self.lo is not None and not self.lo_open:
            return self.lo
        if self.hi is not None and not self.hi_open:
            return self.hi
        if self.lo is None and self.hi is None:
            return Fraction(0)
        if self.lo is None:
            return self.hi - 1
        if self.hi is None:
            return self.lo + 1
        return (self.lo + self.hi) / 2


def _ratio_roots(n, d) -> list:
    """The roots of the numerator and of the denominator of n/d in lowest
    terms, for affine n = n0 + t*n1 and d = d0 + t*d1 given as pairs:
    none when n/d is constant (n0*d1 == n1*d0), otherwise the root of
    each of n, d whose t-coefficient is nonzero."""
    (n0, n1), (d0, d1) = n, d
    if n0 * d1 == n1 * d0:
        return []
    return [-Fraction(c0) / c1 for c0, c1 in (n, d) if c1]


def feasible_set(constraints) -> list:
    """Intervals where every constraint n/d is >= 0 and d != 0.

    ``constraints`` is a list of pairs (n, d) of affine functions of t,
    each a pair (c0, c1) for c0 + t*c1.  The boundary points are the
    roots of every n and d that is not constant, so no n or d changes
    sign or vanishes between consecutive ones, and one probe decides each
    cell: the result is a list of Interval objects covering the feasible
    set exactly.  A root of d stays a boundary point even where n/d
    cancels to a constant, since n/d is undefined there.
    """
    bounds = sorted({-Fraction(c0) / c1 for nd in constraints for c0, c1 in nd if c1})

    def ok(t):
        for (n0, n1), (d0, d1) in constraints:
            d = d0 + t * d1
            if d == 0 or (n0 + t * n1) * d < 0:
                return False
        return True

    # the cells of the t-line in order: the gap below each boundary point,
    # the point itself, and the last gap
    cells, lo = [], None
    for b in bounds:
        cells += [(lo, b, True), (b, b, False)]
        lo = b
    cells.append((lo, None, True))

    def feasible(lo, hi, gap):
        return ok(Interval(lo, hi, True, True).sample() if gap else lo)

    intervals = []
    for keep, run in itertools.groupby(cells, key=lambda cell: feasible(*cell)):
        if keep:
            run = list(run)
            (lo, _, lo_gap), (_, hi, hi_gap) = run[0], run[-1]
            # a run of feasible cells is open exactly at a finite end that
            # is a gap: the boundary point beyond it is infeasible
            intervals.append(Interval(lo, hi, lo_gap and lo is not None, hi_gap and hi is not None))
    return intervals


# ---------------------------------------------------------------------------
# the two families


def _at(pencil, t, den=1) -> list:
    """The rows of (M0 + t*M1)/den for a matrix pencil (M0, M1)."""
    m0, m1 = pencil
    return [[(x + t * y) / den for x, y in zip(r0, r1)] for r0, r1 in zip(m0, m1)]


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _integers(*vectors) -> list:
    """The vectors times the lcm of all their denominators: integer
    tuples, with every ratio between two entries kept."""
    ns = iter(integer_scaled([x for v in vectors for x in v])[0])
    return [tuple(itertools.islice(ns, len(v))) for v in vectors]


@dataclass
class NestedFamily:
    """A factor pair affine in t, with geometry and feasibility data.

    The parameter t enters one entry of the partial matrix, so every
    datum is an affine pencil: A(t) = (A0 + t*A1)/(d0 + t*d1) with
    ``a_pencil`` = (A0, A1) and ``a_den`` = (d0, d1), and B(t) = B0 +
    t*B1 with ``b_pencil`` = (B0, B1), each matrix a list of rows.  The
    pair at t is A(t).B(t) sliced in ``chart``.  ``fixed_outer`` and
    ``fixed_inner_points`` slice the t-free rows of A and columns of B.
    ``moving_vertex`` = (v0, v1) is the column of B that moves, in the
    chart: the homogeneous triple v0 + t*v1 = (w, y, z), whose point is
    (y/w, z/w).  For tag "11_21" the outer polygon is fixed and that point
    stays on ``line_p1``, the cross product of v0 and v1; for tag "11_22"
    one facet of the outer polygon (the first row of A) moves as well,
    and ``fixed_outer`` is the simplex cut out by the other three rows.
    """

    tag: str
    source: PartialMatrix
    a_pencil: tuple
    a_den: tuple
    b_pencil: tuple
    feasible: list
    chart: ExactMatrix
    fixed_outer: Polygon2
    fixed_inner_points: list
    moving_vertex: tuple
    line_p1: HalfPlane | None = None

    def factors_at(self, t) -> tuple:
        """The factors (A(t), B(t)); ZeroDivisionError at a pole of A."""
        t = Fraction(t)
        d0, d1 = self.a_den
        return ExactMatrix(_at(self.a_pencil, t, d0 + t * d1)), ExactMatrix(_at(self.b_pencil, t))

    def completion_at(self, t) -> ExactMatrix:
        return matmul(*self.factors_at(t))

    def is_feasible(self, t) -> bool:
        return any(iv.contains(Fraction(t)) for iv in self.feasible)

    def pair_at(self, t) -> NestedPair:
        return polytopes_from_factorization(*self.factors_at(t), self.chart)

    def vertex_at(self, t) -> tuple:
        """The moving vertex (y/w, z/w) at t; ZeroDivisionError where w = 0."""
        t = Fraction(t)
        w, y, z = (c0 + t * c1 for c0, c1 in zip(*self.moving_vertex))
        return (y / w, z / w)

    def moving_vertex_limit(self):
        """Limit point of the moving vertex as t -> +-infinity (11_21),
        with None for a coordinate that diverges."""
        (w0, y0, z0), (w1, y1, z1) = self.moving_vertex
        if w1:
            return (y1 / w1, z1 / w1)
        return tuple(None if c1 else c0 / w0 for c0, c1 in ((y0, y1), (z0, z1)))


def _chart_vertex(chart: ExactMatrix, b_pencil, j: int) -> tuple:
    """The pencil (v0, v1) of column j of B in the chart: v0 + t*v1 is
    the homogeneous triple (w, y, z) of the slice point (y/w, z/w)."""
    v0, v1 = (tuple(_dot(g, [row[j] for row in rows]) for g in chart.to_lists()) for rows in b_pencil)
    if not (v0[0] or v1[0]):
        raise FamilyError("normalizing column sum vanishes identically")
    return v0, v1


def _require_pattern(m: PartialMatrix, holes: set):
    if (m.p, m.q) != (4, 4):
        raise FamilyError("matrix must be 4x4")
    if set(m.pattern.missing) != holes:
        raise FamilyError(f"holes must be exactly {sorted(holes)}")
    if not m.is_nonnegative():
        raise FamilyError("observed entries must be nonnegative")


def family_11_21(m: PartialMatrix) -> NestedFamily:
    """Family for holes (1,1) and (2,1).

    A = M_{:,234} is fixed; the first column of B is parametrized linearly
    by t from the two observed entries of column 1.  In the chart of the
    column sums of A the outer polygon is fixed while the inner vertex
    p1(t) slides along ``line_p1``, which always passes through the vertex
    of the outer polygon cut out by its third and fourth defining facets.
    """
    _require_pattern(m, {(1, 1), (2, 1)})
    if m.entry(3, 1) == m.entry(4, 1) == 0:
        # b1 would be t times a fixed vector, so at t = 0 the first column
        # of the completion is zero and has no point in the slice
        raise FamilyError("column 1 is zero in rows 3,4")
    a = m.observed_submatrix([1, 2, 3, 4], [2, 3, 4])
    if rank(a) != 3:
        raise FamilyError("columns 2..4 must have rank 3")
    # b1 solves rows 3-4 with the columns reversed, so the free component
    # is the one column left out of the first independent pair found from
    # the right: the complementary 2x2 block is invertible and component 1
    # (the printed convention) is preferred.  Then b1 = x0 + t*k with the
    # free component of k equal to 1, so t is that component.
    sol = solve_linear(
        m.observed_submatrix([3, 4], [4, 3, 2]),
        ExactMatrix.column([m.entry(3, 1), m.entry(4, 1)]),
    )
    if sol.kernel_dimension != 1:
        raise FamilyError("rows 3,4 of columns 2..4 must have rank 2")
    x0_k = ExactMatrix(zip(sol.particular.col(1)[::-1], sol.kernel_basis[0].col(1)[::-1]))
    x0, k = x0_k.col(1), x0_k.col(2)
    a_pencil = (a.to_lists(), [[0] * 3 for _ in range(4)])
    b_pencil = ([[x0[i]] + [int(i == j) for j in range(3)] for i in range(3)], [[k[i], 0, 0, 0] for i in range(3)])

    # the column sums of A are positive: a nonnegative column with sum 0
    # would be zero, and A has rank 3
    chart = ExactMatrix([[sum(a.col(j)) for j in (1, 2, 3)], [0, 1, 0], [0, 0, 1]])
    fixed = polytopes_from_factorization(a, ExactMatrix.identity(3), chart)
    vertex = _chart_vertex(chart, b_pencil, 0)
    line = cross(*vertex)

    # the filled entries m11(t), m21(t): rows 1-2 of A times x0 + t*k
    filled = matmul(m.observed_submatrix([1, 2], [2, 3, 4]), x0_k)
    feasible = feasible_set([(tuple(row), (1, 0)) for row in filled.to_lists()])
    return NestedFamily(
        "11_21", m, a_pencil, (1, 0), b_pencil, feasible, chart, fixed.outer, fixed.inner_generators, vertex,
        HalfPlane(*line) if any(line) else None,
    )


def sufficient_11_21(fam: NestedFamily):
    """Feasible t* realizing the line-intersection sufficient condition:
    the moving vertex can be placed on a line through an edge of the
    fixed triangle at a point inside the outer polygon.  Returns t* or
    None (inconclusive)."""
    if fam.tag != "11_21":
        raise ValueError("family must have the 11_21 shape")
    if fam.line_p1 is None:
        return None
    p2, p3, p4 = fam.fixed_inner_points
    # intersections of the moving-vertex line with the edge lines; the
    # fixed triangle lies in the outer polygon (A >= 0 is the slack of its
    # vertices), so testing the outer polygon covers it
    for (u, v) in ((p2, p3), (p3, p4), (p4, p2)):
        cand = meet(fam.line_p1.line, join(u, v))
        if cand is None or not fam.fixed_outer.contains_point(cand):
            continue
        t = _solve_moving_vertex(fam, cand)
        if t is not None and fam.is_feasible(t):
            return t
    # the line may cross the triangle without crossing an edge line inside
    # Q only through a vertex; the edge intersections above cover that
    return None


def _solve_moving_vertex(fam: NestedFamily, target):
    """t with moving_vertex(t) == target, or None: the root of the first
    coordinate equation y - x*w = 0 (or z - y*w = 0) that is not zero
    identically in t."""
    v0, v1 = fam.moving_vertex
    eqs = [(v0[k] - c * v0[0], v1[k] - c * v1[0]) for k, c in ((1, target[0]), (2, target[1]))]
    e0, e1 = next((e for e in eqs if any(e)), (0, 0))
    if not e1:
        return None
    t = -e0 / e1
    if v0[0] + t * v1[0] and all(n0 + t * n1 == 0 for n0, n1 in eqs):
        return t
    return None


def special_case_low_rank(m: PartialMatrix, r: int):
    """The zero fill (every hole set to 0) when a fully observed row block
    (or column block) certifies it, else None.

    If rows I are fully observed with nonnegative rank k <= r - (p - |I|),
    the zero fill has nonnegative rank at most k + (p - |I|) <= r: the
    block's factors stacked on an identity for the other rows.  For a
    nonnegative block of rank at most 2 the nonnegative rank equals the
    rank, so a rank test decides; rank 3 calls ``nn_rank_at_most_3``.
    The two-hole decision no longer calls it: it tests the zero fill.
    """
    if not m.is_nonnegative():
        raise ValueError("observed entries must be nonnegative")
    for work in (m, m.transpose()):
        full_rows = [
            i
            for i in range(1, work.p + 1)
            if all(work.is_observed(i, j) for j in range(1, work.q + 1))
        ]
        for size in range(len(full_rows), 0, -1):
            k_max = min(r - (work.p - size), 3)
            if k_max < 1:
                continue
            for I in itertools.combinations(full_rows, size):
                block = work.observed_submatrix(list(I), range(1, work.q + 1))
                k = rank(block)
                if k <= min(k_max, 2) or (k == 3 == k_max and nn_rank_at_most_3(block)[0]):
                    return m.complete_with({hole: 0 for hole in m.pattern.missing})
    return None


def family_11_22(m: PartialMatrix) -> NestedFamily:
    """Family for holes (1,1) and (2,2): the second entry of the first row
    of B is the parameter t, and the first row of A solves a1.N(t) =
    (m12, m13, m14) by Cramer's rule, where N(t) has rows (t, m23, m24),
    (m32, m33, m34) and (m42, m43, m44).  Each determinant is affine in
    t, so it is read off its values at t = 0 and t = 1."""
    _require_pattern(m, {(1, 1), (2, 2)})
    if rank(m.observed_submatrix([1, 3, 4], [2, 3, 4])) != 3:
        raise FamilyError("rows 1,3,4 of columns 2..4 must have rank 3")
    if rank(m.observed_submatrix([2, 3, 4], [1, 3, 4])) != 3:
        raise FamilyError("rows 2..4 of columns 1,3,4 must have rank 3")
    if rank(m.observed_submatrix([3, 4], [2, 3, 4])) != 2:
        raise FamilyError("rows 3,4 of columns 2..4 must have rank 2")
    if rank(m.observed_submatrix([2, 3, 4], [3, 4])) != 2:
        raise FamilyError("rows 2..4 of columns 3,4 must have rank 2")

    rhs = [m.entry(1, j) for j in (2, 3, 4)]
    fixed_rows = [[m.entry(i, j) for j in (2, 3, 4)] for i in (3, 4)]

    def pencil(replaced=None) -> tuple:
        """(value at 0, t-coefficient) of det N(t), with row ``replaced``
        of N(t) swapped for the right-hand side."""
        at0, at1 = (
            det(ExactMatrix(rhs if i == replaced else row
                            for i, row in enumerate([[t, m.entry(2, 3), m.entry(2, 4)], *fixed_rows])))
            for t in (0, 1)
        )
        return at0, at1 - at0

    den = pencil()
    if not any(den):
        raise FamilyError("parametrizing system is singular for every t")
    nums = [pencil(j) for j in range(3)]
    # A(t) over den(t): the Cramer numerators, then the identity times den
    a_pencil = tuple(
        [[n[s] for n in nums]] + [[den[s] if i == j else 0 for j in range(3)] for i in range(3)] for s in (0, 1)
    )
    b_pencil = (
        [[m.entry(2, 1), 0, m.entry(2, 3), m.entry(2, 4)]] + [[m.entry(i, j) for j in (1, 2, 3, 4)] for i in (3, 4)],
        [[0, 1, 0, 0], [0] * 4, [0] * 4],
    )
    # sign constraints: m11(t) = a1(t).(m21, m31, m41) >= 0 and m22(t) = t >= 0
    col = [m.entry(i, 1) for i in (2, 3, 4)]
    m11 = tuple(_dot(rows[0], col) for rows in a_pencil)
    feasible = feasible_set([(m11, den), ((0, 1), (1, 0))])
    # rows 2-4 of A are the identity and columns 1, 3, 4 of B are free of t
    fixed = polytopes_from_factorization(
        ExactMatrix.identity(3), m.observed_submatrix([2, 3, 4], [1, 3, 4]), SUM_CHART
    )
    return NestedFamily(
        "11_22", m, a_pencil, den, b_pencil, feasible, SUM_CHART, fixed.outer, fixed.inner_generators,
        _chart_vertex(SUM_CHART, b_pencil, 1),
    )


def simplicial_sign_check(fam: NestedFamily, t) -> bool:
    """Sign profile of the moving facet coefficients (a11, a12, a13) at a
    feasible t certifying that the outer cone is simplicial: all
    nonnegative; or two negative and one positive; or one negative, one
    zero and one positive."""
    if fam.tag != "11_22":
        raise ValueError("family must have the 11_22 shape")
    t = Fraction(t)
    if not fam.is_feasible(t):
        raise ValueError(f"t = {t} is not feasible")
    d0, d1 = fam.a_den
    a1 = _at(fam.a_pencil, t, d0 + t * d1)[0]
    neg = sum(1 for x in a1 if x < 0)
    pos = sum(1 for x in a1 if x > 0)
    zero = sum(1 for x in a1 if x == 0)
    if neg == 0:
        return True
    if neg == 2 and pos == 1:
        return True
    if neg == 1 and zero == 1 and pos == 1:
        return True
    return False


# ---------------------------------------------------------------------------
# normalization of arbitrary two-missing 4x4 patterns


@dataclass(frozen=True)
class Normalization:
    """How the canonical instance was obtained: transpose first (optional),
    then canonical row i / column j read original row ``row_perm[i-1]`` /
    column ``col_perm[j-1]``."""

    transposed: bool
    row_perm: tuple
    col_perm: tuple
    tag: str


def normalize_two_missing(m: PartialMatrix):
    """Canonical (PartialMatrix, Normalization) with the holes moved to
    (1,1),(2,1) or (1,1),(2,2) by transposition and permutations."""
    if (m.p, m.q) != (4, 4):
        raise FamilyError("matrix must be 4x4")
    holes = sorted(m.pattern.missing)
    if len(holes) != 2:
        raise FamilyError("exactly two entries must be missing")
    if not m.is_nonnegative():
        raise FamilyError("observed entries must be nonnegative")
    (r1, c1), (r2, c2) = holes
    transposed = False
    if r1 == r2:  # same row: transpose into the same-column shape
        transposed = True
        m = m.transpose()
        (r1, c1), (r2, c2) = sorted((j, i) for (i, j) in holes)
    if c1 == c2:
        tag = "11_21"
        row_perm = (r1, r2) + tuple(i for i in (1, 2, 3, 4) if i not in (r1, r2))
        col_perm = (c1,) + tuple(j for j in (1, 2, 3, 4) if j != c1)
    else:
        tag = "11_22"
        row_perm = (r1, r2) + tuple(i for i in (1, 2, 3, 4) if i not in (r1, r2))
        col_perm = (c1, c2) + tuple(j for j in (1, 2, 3, 4) if j not in (c1, c2))
    canon = PartialMatrix.from_rows([[m.get(i, j) for j in col_perm] for i in row_perm])
    return canon, Normalization(transposed, row_perm, col_perm, tag)


def _canonical_indices(perm) -> list:
    """The canonical index of each original index 1..4."""
    return [perm.index(k) + 1 for k in range(1, 5)]


def denormalize_matrix(mat: ExactMatrix, norm: Normalization) -> ExactMatrix:
    out = mat.submatrix(_canonical_indices(norm.row_perm), _canonical_indices(norm.col_perm))
    return out.transpose() if norm.transposed else out


# ---------------------------------------------------------------------------
# sampling and refutation


def _critical_ts(fam: NestedFamily) -> list:
    """Parameter values where the moving geometry can change combinatorics:
    sign changes and poles of the factor entries, and incidences of the
    moving vertex / moving facet with the fixed vertices and lines.  Each
    is a ratio of two affine functions of t, so its roots are closed-form
    (``_ratio_roots``)."""
    crit = set()
    for (m0, m1), den in ((fam.a_pencil, fam.a_den), (fam.b_pencil, (1, 0))):
        for r0, r1 in zip(m0, m1):
            for x, y in zip(r0, r1):
                crit.update(_ratio_roots((x, y), den))
    # the incidences in integers: the roots of n/d do not change when n or
    # d is scaled, so the vertex pencil, each fixed point (as (1, x, y)),
    # and the moving facet's pencil are each scaled to integers once
    v0, v1 = _integers(*fam.moving_vertex)
    fixed = list(fam.fixed_inner_points) + list(fam.fixed_outer.vertices)
    points = [_integers((1, *p))[0] for p in fixed]
    # the moving vertex against every line through two fixed points; the
    # lines through consecutive outer vertices are the fixed facets
    for p, q in itertools.combinations(points, 2):
        line = cross(p, q)
        crit.update(_ratio_roots((_dot(line, v0), _dot(line, v1)), (v0[0], v1[0])))
    if fam.tag == "11_22":
        # the moving facet at the point (1, x, y) of the chart G is
        # a1.G^-1.(1, x, y), over the denominator of A
        g_inv = _integers(*inverse(fam.chart).to_lists())
        weights = [[_dot(row, p) for row in g_inv] for p in points]
        # the facet at the moving vertex itself is a1.col/total = m12/total
        # (col is column 2 of B, with sum total; a1 solves a1.N = (m12,
        # m13, m14) and col is N's first column): its one critical t, the
        # root of total, is a pole of the vertex (orient((0,0), (0,1), p) =
        # -t/total) or, when total = t, the root of entry t, so it needs no
        # term of its own
        #
        # completion entry m11(t) = a1.(m21, m31, m41)
        m = fam.source
        weights += _integers([m.entry(2, 1), m.entry(3, 1), m.entry(4, 1)])
        a0, a1 = _integers(*(rows[0] for rows in fam.a_pencil))
        den = _integers(fam.a_den)[0]
        for g in weights:
            crit.update(_ratio_roots((_dot(a0, g), _dot(a1, g)), den))
    return sorted(crit)


def _interval_sample_ts(iv: Interval, criticals) -> list:
    """Endpoints, interior criticals and midpoints of one feasible interval.

    Every anchor lies in the interval, so every midpoint does too."""
    inner_crit = [c for c in criticals if iv.contains(c)]
    anchors = []
    if iv.lo is not None and not iv.lo_open:
        anchors.append(iv.lo)
    elif iv.lo is not None:
        # just inside an open end, halfway to the next point beyond it
        nxt = min(inner_crit + ([iv.hi] if iv.hi is not None else []), default=iv.lo + 2)
        anchors.append((iv.lo + nxt) / 2)
    if iv.hi is not None and not iv.hi_open:
        anchors.append(iv.hi)
    elif iv.hi is not None:
        prv = max(inner_crit + ([iv.lo] if iv.lo is not None else []), default=iv.hi - 2)
        anchors.append((prv + iv.hi) / 2)
    if iv.lo is None:
        ref = inner_crit[0] if inner_crit else (iv.hi if iv.hi is not None else Fraction(0))
        anchors.append(ref - 1)
    if iv.hi is None:
        ref = inner_crit[-1] if inner_crit else (iv.lo if iv.lo is not None else Fraction(0))
        anchors.append(ref + 1)
    pts = sorted(set(anchors + inner_crit))
    out = []
    for a, b in zip(pts, pts[1:]):
        out.append(a)
        out.append((a + b) / 2)
    out.append(pts[-1])
    return out


def _completable_at(fam: NestedFamily, t):
    """A Completable certificate at t if a triangle nests in the pair there,
    else None.  The completion there then has nonnegative rank at most 3,
    and the witness is that triangle lifted to a factorization of it."""
    t = Fraction(t)
    if not fam.is_feasible(t):
        return None
    a, b = fam.factors_at(t)
    completion = matmul(a, b)
    if not completion.is_nonnegative():
        return None
    try:
        pair = polytopes_from_factorization(a, b, fam.chart)
        tri = nested_triangle(pair)
    except ValueError:
        return None
    if tri is None:
        return None
    witness = triangle_to_factorization(pair, tri, completion)
    return Nn3Certificate("Completable", fam.tag, t_star=t, completion=completion, witness=witness,
                          triangle=tri)


def _chain_ends(polys):
    """(largest, smallest) of polygons nested monotonically, each
    containing the next in one of the two directions; else None."""
    steps = list(zip(polys, polys[1:]))
    if all(contains(a, b) for a, b in steps):
        return polys[0], polys[-1]
    if all(contains(b, a) for a, b in steps):
        return polys[-1], polys[0]
    return None


def _envelope_for_interval(fam: NestedFamily, iv: Interval, ts):
    """(inner, outer) envelope polygons valid for every t in the interval,
    when the pairs at its sampled ts move monotonically across it; else
    None."""
    if iv.lo is None or iv.hi is None:
        return None
    if len(ts) < 2:
        return None
    try:
        pairs = [fam.pair_at(t) for t in ts]
    except (ValueError, UnboundedRegionError, ZeroDivisionError):
        return None
    inner_ends = _chain_ends([p.inner for p in pairs])
    outer_ends = _chain_ends([p.outer for p in pairs])
    if inner_ends is None or outer_ends is None:
        return None
    # the innermost inner and the outermost outer
    inner_env, outer_env = inner_ends[1], outer_ends[0]
    if not contains(outer_env, inner_env):
        return None
    return inner_env, outer_env


def _boundary_intersections(poly: Polygon2, a, b) -> list:
    """All points where the infinite line a-b meets the boundary of poly."""
    if a == b:
        return []
    line = join(a, b)
    out = []
    for (e1, e2) in poly.edges():
        o1 = side(a, b, e1)
        o2 = side(a, b, e2)
        if o1 == 0:
            out.append(e1)
        if o2 == 0:
            out.append(e2)
        if (o1 > 0 > o2) or (o1 < 0 < o2):
            out.append(meet(line, join(e1, e2)))
    seen = []
    for x in out:
        if x not in seen:
            seen.append(x)
    return seen


def sweep_candidates(fam: NestedFamily) -> set:
    """Positions of the moving vertex on its line where an anchored greedy
    chain can change combinatorics: incidences of the line with lines
    through pairs of fixed vertices, plus positions whose chain chords
    pass through a vertex of the outer polygon, propagated up to three
    chords back."""
    line = fam.line_p1
    outer = fam.fixed_outer
    fixed_pts = list(fam.fixed_inner_points)
    all_pts = fixed_pts + list(outer.vertices)
    candidates = set()
    for u, w in itertools.combinations(all_pts, 2):
        candidates.add(meet(line.line, join(u, w)))
    level1 = set()
    for qv in outer.vertices:
        for pv in fixed_pts:
            level1.update(_boundary_intersections(outer, qv, pv))
    level2 = set()
    for x in level1:
        for pv in fixed_pts:
            level2.update(_boundary_intersections(outer, x, pv))
    for x in level1 | level2:
        for pv in fixed_pts:
            candidates.add(meet(line.line, join(x, pv)))
    candidates.discard(None)
    return candidates


def _sweep_moving_vertex(fam: NestedFamily, iv: Interval) -> bool:
    """Whether an exhaustive check along the arc of the moving vertex,
    when it stays on the boundary of the fixed outer polygon, refutes the
    interval.

    The arc is cut at every candidate position where the greedy chain can
    change combinatorics (incidences of chain lines with vertices of the
    polygons, propagated up to three chords back); between consecutive
    candidates the chain moves monotonically, so testing candidates and
    midpoints decides the whole arc.  A nested triangle at any position
    inside the outer polygon leaves the interval unrefuted.
    """
    line = fam.line_p1
    outer = fam.fixed_outer
    if line is None or all(any(cross(hp.line, line.line)) for hp in outer.facets()):
        return False
    # arc endpoints
    try:
        e0, e1 = (fam.moving_vertex_limit() if bound is None else fam.vertex_at(bound) for bound in (iv.lo, iv.hi))
    except ZeroDivisionError:
        return False
    if None in e0 + e1:
        return False
    if e0 == e1:
        # the vertex does not move; a plain sample decides
        return False
    d = (e1[0] - e0[0], e1[1] - e0[1])

    def along(p):
        return (p[0] - e0[0]) * d[0] + (p[1] - e0[1]) * d[1]

    span = along(e1)

    fixed_pts = list(fam.fixed_inner_points)
    candidates = sweep_candidates(fam)
    candidates.update({e0, e1})
    on_arc = sorted(
        (c for c in candidates if 0 <= along(c) <= span), key=along
    )
    probe_points = []
    for a, b in zip(on_arc, on_arc[1:]):
        probe_points.append(a)
        probe_points.append(((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))
    if on_arc:
        probe_points.append(on_arc[-1])

    for c in probe_points:
        inner = Polygon2.from_points([c] + fixed_pts)
        if not contains(outer, inner):
            # positions outside the outer polygon cannot occur for
            # feasible t; skip them
            continue
        if nested_triangle(NestedPair(inner, outer)) is not None:
            return False
    return True


# ---------------------------------------------------------------------------
# certificates and the decision procedure


@dataclass
class Nn3Certificate:
    """Outcome of the two-missing-entry decision for nonnegative rank 3.

    ``verdict`` is "Completable", "NotCompletable" or "Unknown".  For
    completable instances ``completion`` (in the original orientation of
    the input), the witness factorization and, when available, the nested
    triangle are filled in; refutations carry the envelope pair;
    ``samples`` lists every parameter value that was tested.
    """

    verdict: str
    pattern: str
    t_star: Fraction | None = None
    completion: ExactMatrix | None = None
    witness: tuple | None = None
    triangle: Triangle | None = None
    envelope: tuple | None = None
    envelope_t: tuple | None = None
    samples: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        def text(x):
            return None if x is None else str(x)

        def points(polygon):
            return [[str(x), str(y)] for x, y in polygon.vertices]

        t_lo, t_hi = self.envelope_t or (None, None)
        return {
            "verdict": self.verdict,
            "pattern": self.pattern,
            "t_star": text(self.t_star),
            "completion": (
                None if self.completion is None
                else [[str(x) for x in row] for row in self.completion.to_lists()]
            ),
            "triangle": None if self.triangle is None else points(self.triangle),
            "envelope": None if self.envelope is None else {
                "inner": points(self.envelope[0]),
                "outer": points(self.envelope[1]),
                "t_lo": text(t_lo),
                "t_hi": text(t_hi),
            },
            "samples": [str(t) for t in self.samples],
        }


def decide_nn3_two_missing(m: PartialMatrix) -> Nn3Certificate:
    """Decide whether a 4x4 partial nonnegative matrix with two missing
    entries admits a completion of nonnegative rank at most 3.

    The stages on the canonical instance, in order: the zero fill (every
    hole 0) tested by `nn_rank_at_most_3`; the family stages; on an
    Unknown, the determinant curve, once; and on an Unknown with holes in
    different rows and columns, the family stages alone on the transpose,
    which keeps the nonnegative rank and gives an independent
    parametrization.  "Completable" is always backed by an exact witness
    (A, B) with A.B equal to the returned completion.
    """
    canon, norm = normalize_two_missing(m)
    filled = canon.complete_with({hole: 0 for hole in canon.pattern.missing})
    ok, witness = nn_rank_at_most_3(filled)
    if ok:
        cert = Nn3Certificate("Completable", norm.tag, completion=filled, witness=witness)
    else:
        cert = _family_stages(canon, norm.tag)
    if cert.verdict == "Unknown" and _curve_misses_quadrant(canon):
        # the certificate of a curve refutation is the input itself
        cert = Nn3Certificate("NotCompletable", norm.tag)
    if cert.verdict == "Unknown" and norm.tag == "11_22":
        canon_t, norm_t = normalize_two_missing(m.transpose())
        flipped = _family_stages(canon_t, norm_t.tag)
        if flipped.verdict != "Unknown":
            # undoing the transpose of m is one more transposition
            cert, norm = flipped, replace(norm_t, transposed=not norm_t.transposed)
    return _in_callers_orientation(cert, norm)


def _in_callers_orientation(cert: Nn3Certificate, norm: Normalization) -> Nn3Certificate:
    """The certificate of the canonical instance, with the completion and
    the witness mapped back to the caller's orientation."""
    completion, witness = cert.completion, cert.witness
    if witness is not None:
        a = witness[0].submatrix(_canonical_indices(norm.row_perm), range(1, 4))
        b = witness[1].submatrix(range(1, 4), _canonical_indices(norm.col_perm))
        witness = (b.transpose(), a.transpose()) if norm.transposed else (a, b)
    if completion is not None:
        completion = denormalize_matrix(completion, norm)
    return replace(cert, completion=completion, witness=witness)


def _family_stages(canon: PartialMatrix, tag: str) -> Nn3Certificate:
    """The stages that depend on the orientation, on the canonical
    instance: family construction, the sufficient condition (11_21) or
    the simplicial check (11_22) ordering the sampled t, the sampled t,
    then an envelope or a sweep per feasible interval.
    Unknown when no family can be built or its feasible set is empty.
    The completion and the witness are in the canonical orientation."""
    try:
        fam = family_11_21(canon) if tag == "11_21" else family_11_22(canon)
    except FamilyError:
        return Nn3Certificate("Unknown", tag)
    if not fam.feasible:
        return Nn3Certificate("Unknown", tag)
    criticals = _critical_ts(fam)
    sampled = [(iv, _interval_sample_ts(iv, criticals)) for iv in fam.feasible]
    samples = sorted({t for _, ts in sampled for t in ts})
    for t in _search_order(fam, samples):
        hit = _completable_at(fam, t)
        if hit is not None:
            return replace(hit, samples=samples)
    return replace(_refute(fam, sampled), samples=samples)


def _curve_misses_quadrant(m: PartialMatrix) -> bool:
    """Whether no fill of the two holes with values s, h >= 0 makes the
    4x4 matrix singular, so that no completion has rank at most 3.

    The determinant is affine in each hole, alpha*s*h + beta*s + gamma*h
    + delta, and four fills read off its coefficients.  The curve misses
    the closed quadrant exactly when delta != 0 and each of alpha, beta,
    gamma is 0 or has the sign of delta: otherwise it vanishes at (0, 0)
    or changes sign along s = 0, h = 0 or s = h.
    """
    first, second = sorted(m.pattern.missing)
    delta, d10, d01, d11 = (
        det(m.complete_with({first: s, second: h})) for s, h in ((0, 0), (1, 0), (0, 1), (1, 1))
    )
    beta, gamma = d10 - delta, d01 - delta
    alpha = d11 - beta - gamma - delta
    return delta != 0 and all(c * delta >= 0 for c in (alpha, beta, gamma))


def _search_order(fam: NestedFamily, samples: list):
    """The t to try for a completion, lazily: the line-intersection t*
    (11_21) or the samples with a simplicial outer cone (11_22) first,
    then every other sample.  A simplicial sample is yielded as soon as
    the check finds it, so a hit among them stops the checks there."""
    if fam.tag == "11_21":
        t = sufficient_11_21(fam)
        yield from samples if t is None else [t] + samples
        return
    rest = []
    for t in samples:
        if simplicial_sign_check(fam, t):
            yield t
        else:
            rest.append(t)
    yield from rest


def _refute(fam: NestedFamily, sampled) -> Nn3Certificate:
    """Rule out every feasible interval, given with its sampled ts, by an
    envelope pair admitting no nested triangle or, for 11_21, by sweeping
    the moving vertex; Unknown when some interval stays open.

    No completion hides at a pole of the 11_22 family: there N(t0) is
    singular, so its row space is spanned by rows 3-4 of columns 2..4,
    and (m12, m13, m14) is outside that span because the family requires
    rows 1, 3, 4 of columns 2..4 to have rank 3."""
    envelope = envelope_t = None
    for iv, ts in sampled:
        env = _envelope_for_interval(fam, iv, ts)
        if env is not None:
            try:
                if nested_triangle(NestedPair(*env)) is None:
                    envelope, envelope_t = env, (iv.lo, iv.hi)
                    continue
            except ValueError:
                pass
        if not _sweep_moving_vertex(fam, iv):
            return Nn3Certificate("Unknown", fam.tag)
    return Nn3Certificate("NotCompletable", fam.tag, envelope=envelope, envelope_t=envelope_t)
