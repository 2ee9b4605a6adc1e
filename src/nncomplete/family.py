"""One-parameter families of nested polygons for 4x4 partial nonnegative
matrices with two missing entries, and the decision procedure built on
them.

Two canonical hole patterns are supported (after row/column permutation
and transposition): holes (1,1),(2,1) in one column, where the outer
polygon is fixed and one vertex of the inner polygon slides along a line;
and holes (1,1),(2,2) in different rows and columns, where one facet of
the outer polygon and one vertex of the inner polygon move together.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .linalg import ExactMatrix, det, inverse, matmul, rank, solve_linear
from .partial import PartialMatrix
from .polyfun import Poly, RationalFunction, SharedDenominator
from .geometry import (
    SUM_CHART,
    HalfPlane,
    NestedPair,
    Polygon2,
    Triangle,
    UnboundedRegionError,
    VerificationError,
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
# feasible sets of rational-function inequalities


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


def _boundary_points(polys) -> list:
    """Sorted rational boundary candidates: rational roots plus rational
    brackets around irrational roots of the given polynomials."""
    pts = set()
    for p in polys:
        if p.is_zero() or p.is_constant():
            continue
        for (a, b) in p.isolate_real_roots():
            pts.add(a)
            pts.add(b)
    return sorted(pts)


def feasible_set(constraints) -> list:
    """Intervals where every constraint num/den is >= 0 and den != 0.

    ``constraints`` is a list of RationalFunction; the result is a list of
    Interval objects covering the exact feasible set.  Boundaries at
    rational roots are exact; an irrational boundary is absorbed into the
    surrounding rational bracket, so the result may slightly
    over-approximate (never under-approximate) the feasible set there.
    """
    polys = [p for rf in constraints for p in (rf.num, rf.den)]
    bounds = _boundary_points(polys)

    def ok(t):
        return all(rf.den(t) != 0 and rf(t) >= 0 for rf in constraints)

    def sign_changes_inside(lo, hi):
        """Some constraint has an (irrational) root strictly between two
        consecutive boundary points, so one probe cannot decide the gap;
        keep it conservatively."""
        for p in polys:
            if not p.is_constant() and p.count_roots(lo, hi) - (1 if p(hi) == 0 else 0) > 0:
                return True
        return False

    def feasible(lo, hi, gap):
        if not gap:
            return ok(lo)
        return ok(Interval(lo, hi, True, True).sample()) or (
            lo is not None and hi is not None and sign_changes_inside(lo, hi)
        )

    # the cells of the t-line in order: the gap below each boundary point,
    # the point itself, and the last gap
    cells, lo = [], None
    for b in bounds:
        cells += [(lo, b, True), (b, b, False)]
        lo = b
    cells.append((lo, None, True))
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
# rational-function matrices


def _rf(x) -> RationalFunction:
    if isinstance(x, RationalFunction):
        return x
    return RationalFunction.constant(Fraction(x))


def rf_matrix_eval(rows, t: Fraction) -> ExactMatrix:
    return ExactMatrix([[_rf(x)(t) for x in row] for row in rows])


def _det3_poly(rows) -> Poly:
    """Determinant of a 3x3 matrix of Poly entries by cofactor expansion."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


# ---------------------------------------------------------------------------
# the two families


@dataclass
class NestedFamily:
    """Symbolic factor pair A(t), B(t) with geometry and feasibility data.

    The pair at t is A(t).B(t) sliced in ``chart``.  ``fixed_outer`` and
    ``fixed_inner_points`` slice the t-free rows of A and columns of B,
    and ``moving_vertex`` slices the column of B that moves.  For tag
    "11_21" the outer polygon is fixed and the moving vertex p1(t) stays
    on ``line_p1``; for tag "11_22" one facet of the outer polygon (the
    first row of A) moves as well, and ``fixed_outer`` is the simplex cut
    out by the other three rows.
    """

    tag: str
    source: PartialMatrix
    a_of_t: list
    b_of_t: list
    feasible: list
    chart: ExactMatrix
    fixed_outer: Polygon2
    fixed_inner_points: list
    moving_vertex: tuple  # (RationalFunction x, RationalFunction y)
    line_p1: HalfPlane | None = None

    def factors_at(self, t) -> tuple:
        """The factors (A(t), B(t))."""
        t = Fraction(t)
        return rf_matrix_eval(self.a_of_t, t), rf_matrix_eval(self.b_of_t, t)

    def completion_at(self, t) -> ExactMatrix:
        return matmul(*self.factors_at(t))

    def is_feasible(self, t) -> bool:
        return any(iv.contains(Fraction(t)) for iv in self.feasible)

    def pair_at(self, t) -> NestedPair:
        return polytopes_from_factorization(*self.factors_at(t), self.chart)

    def moving_vertex_limit(self):
        """Limit point of the moving vertex as t -> +infinity (11_21)."""
        return (_limit_at_infinity(self.moving_vertex[0]), _limit_at_infinity(self.moving_vertex[1]))


def _limit_at_infinity(rf: RationalFunction):
    dn = rf.num.degree
    dd = rf.den.degree
    if dn < dd:
        return Fraction(0)
    if dn == dd:
        return rf.num.leading() / rf.den.leading()
    return None  # diverges


def _chart_vertex(chart: ExactMatrix, column) -> tuple:
    """The slice point (y/w, z/w) of a column of rational functions, where
    (w, y, z) is the column in the chart."""
    w, y, z = (sum((g * x for g, x in zip(row, column) if g), _rf(0)) for row in chart.to_lists())
    if w.is_zero():
        raise FamilyError("normalizing column sum vanishes identically")
    return (y / w, z / w)


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
    b1 = [RationalFunction(Poly(row)) for row in x0_k.to_lists()]

    a_rows = [[_rf(x) for x in row] for row in a.to_lists()]
    b_rows = [[b1[k]] + [_rf(int(k == j)) for j in range(3)] for k in range(3)]

    # the column sums of A are positive: a nonnegative column with sum 0
    # would be zero, and A has rank 3
    chart = ExactMatrix([[sum(a.col(k)) for k in (1, 2, 3)], [0, 1, 0], [0, 0, 1]])
    fixed = polytopes_from_factorization(a, ExactMatrix.identity(3), chart)
    p1 = _chart_vertex(chart, b1)

    line = _moving_vertex_line(SharedDenominator(p1))
    if line is not None:
        # the moving vertex satisfies the line identically in t
        residual = _rf(line.c0) + _rf(line.cx) * p1[0] + _rf(line.cy) * p1[1]
        if not residual.is_zero():
            raise VerificationError("moving vertex leaves its line")

    # the filled entries m11(t), m21(t): rows 1-2 of A times x0 + t*k
    filled = matmul(m.observed_submatrix([1, 2], [2, 3, 4]), x0_k)
    feasible = feasible_set([RationalFunction(Poly(row)) for row in filled.to_lists()])
    return NestedFamily(
        "11_21", m, a_rows, b_rows, feasible, chart, fixed.outer, fixed.inner_generators, p1, line
    )


def _moving_vertex_line(vertex: SharedDenominator) -> HalfPlane | None:
    """The fixed line traced by p1(t) = (n1(t)/d(t), n2(t)/d(t)) over its
    shared denominator, when all three polynomials have degree at most
    one: coefficients (c0, cx, cy) with c0*d + cx*n1 + cy*n2 = 0, the
    cross product of the constant and linear coefficient triples.  d is
    the lcm of the reduced denominators, so gcd(d, n1, n2) = 1 and no
    common factor is left to cancel.  None when the vertex does not
    actually move."""
    d, (n1, n2) = vertex.den, vertex.nums
    if len(d) != 2:
        return None
    line = cross((d[0], n1[0], n2[0]), (d[1], n1[1], n2[1]))
    return HalfPlane(*line) if any(line) else None


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
    """t with moving_vertex(t) == target, or None."""
    x_rf, y_rf = fam.moving_vertex
    eq = x_rf.num - Poly([Fraction(target[0])]) * x_rf.den
    if eq.is_zero():
        eq = y_rf.num - Poly([Fraction(target[1])]) * y_rf.den
    if eq.is_zero():
        return None
    for t in eq.rational_roots():
        if x_rf.defined_at(t) and y_rf.defined_at(t):
            if x_rf(t) == Fraction(target[0]) and y_rf(t) == Fraction(target[1]):
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
    of B is the parameter t, and the first row of A is solved from the
    three observed entries of row 1 by Cramer's rule over polynomials."""
    _require_pattern(m, {(1, 1), (2, 2)})
    if rank(m.observed_submatrix([1, 3, 4], [2, 3, 4])) != 3:
        raise FamilyError("rows 1,3,4 of columns 2..4 must have rank 3")
    if rank(m.observed_submatrix([2, 3, 4], [1, 3, 4])) != 3:
        raise FamilyError("rows 2..4 of columns 1,3,4 must have rank 3")
    if rank(m.observed_submatrix([3, 4], [2, 3, 4])) != 2:
        raise FamilyError("rows 3,4 of columns 2..4 must have rank 2")
    if rank(m.observed_submatrix([2, 3, 4], [3, 4])) != 2:
        raise FamilyError("rows 2..4 of columns 3,4 must have rank 2")

    t = Poly.x()
    # system a1 . N = (m12, m13, m14) with N columns b2(t), b3, b4
    n_rows = [
        [t, Poly([m.entry(2, 3)]), Poly([m.entry(2, 4)])],
        [Poly([m.entry(3, 2)]), Poly([m.entry(3, 3)]), Poly([m.entry(3, 4)])],
        [Poly([m.entry(4, 2)]), Poly([m.entry(4, 3)]), Poly([m.entry(4, 4)])],
    ]
    rhs = [Poly([m.entry(1, 2)]), Poly([m.entry(1, 3)]), Poly([m.entry(1, 4)])]
    den = _det3_poly(n_rows)
    if den.is_zero():
        raise FamilyError("parametrizing system is singular for every t")
    a1 = []
    for j in range(3):
        replaced = [rhs if i == j else n_rows[i] for i in range(3)]
        a1.append(RationalFunction(_det3_poly(replaced), den))

    a_rows = [
        a1,
        [_rf(1), _rf(0), _rf(0)],
        [_rf(0), _rf(1), _rf(0)],
        [_rf(0), _rf(0), _rf(1)],
    ]
    b_rows = [
        [_rf(m.entry(2, 1)), RationalFunction(t), _rf(m.entry(2, 3)), _rf(m.entry(2, 4))],
        [_rf(m.entry(3, j)) for j in (1, 2, 3, 4)],
        [_rf(m.entry(4, j)) for j in (1, 2, 3, 4)],
    ]
    # sign constraints: m11(t) >= 0 and m22(t) = t >= 0
    m11 = (
        a1[0] * m.entry(2, 1) + a1[1] * m.entry(3, 1) + a1[2] * m.entry(4, 1)
    )
    feasible = feasible_set([m11, RationalFunction(t)])
    # rows 2-4 of A are the identity and columns 1, 3, 4 of B are free of t
    fixed = polytopes_from_factorization(
        ExactMatrix.identity(3), m.observed_submatrix([2, 3, 4], [1, 3, 4]), SUM_CHART
    )
    moving = _chart_vertex(SUM_CHART, [row[1] for row in b_rows])
    return NestedFamily(
        "11_22", m, a_rows, b_rows, feasible, SUM_CHART, fixed.outer, fixed.inner_generators, moving
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
    a1 = [fam.a_of_t[0][k](t) for k in range(3)]
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


def _rational_roots_of(rf: RationalFunction):
    out = []
    if not rf.num.is_zero() and not rf.num.is_constant():
        out.extend(rf.num.rational_roots())
    if not rf.den.is_constant():
        out.extend(rf.den.rational_roots())
    return out


def _critical_ts(fam: NestedFamily) -> list:
    """Parameter values where the moving geometry can change combinatorics:
    sign changes and poles of the moving data, and incidences of the
    moving vertex / moving facet with the fixed vertices and lines.  Each
    incidence is a linear combination of the moving data over its shared
    denominator, so one integer polynomial."""
    crit = set()
    for rows in (fam.a_of_t, fam.b_of_t):
        for row in rows:
            for entry in row:
                crit.update(_rational_roots_of(entry))
    # the moving vertex against every line through two fixed points; the
    # lines through consecutive outer vertices are the fixed facets
    p = SharedDenominator(fam.moving_vertex)
    fixed = list(fam.fixed_inner_points) + list(fam.fixed_outer.vertices)
    for u, w in itertools.combinations(fixed, 2):
        c0, cx, cy = join(u, w)
        crit.update(p.combination_roots(c0, (cx, cy)))
    if fam.tag == "11_22":
        # the moving facet at the point (1, x, y) of the chart G is
        # a1.G^-1.(1, x, y)
        a1 = SharedDenominator(fam.a_of_t[0])
        g_inv = inverse(fam.chart).to_lists()
        for x, y in fixed:
            crit.update(a1.combination_roots(0, [c + cx * x + cy * y for c, cx, cy in g_inv]))
        # the facet at the moving vertex itself is a1.col/total = m12/total
        # (col is column 2 of B, with sum total; a1 solves a1.N = (m12,
        # m13, m14) and col is N's first column): its one critical t, the
        # root of total, is a pole of the vertex (orient((0,0), (0,1), p) =
        # -t/total) or, when total = t, the root of entry t, so it needs no
        # term of its own
        #
        # completion entry m11(t) = a1.(m21, m31, m41)
        m = fam.source
        crit.update(a1.combination_roots(0, (m.entry(2, 1), m.entry(3, 1), m.entry(4, 1))))
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
    x_rf, y_rf = fam.moving_vertex
    # arc endpoints
    ends = []
    for bound in (iv.lo, iv.hi):
        if bound is None:
            lim = fam.moving_vertex_limit()
            if lim[0] is None or lim[1] is None:
                return False
            ends.append(lim)
        else:
            if not (x_rf.defined_at(bound) and y_rf.defined_at(bound)):
                return False
            ends.append((x_rf(bound), y_rf(bound)))
    e0, e1 = ends
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
