"""One-parameter families of nested polygons for 4x4 partial nonnegative
matrices with two missing entries, and the decision procedure built on
them.

Two canonical hole patterns are supported (after row/column permutation
and transposition): holes (1,1),(2,1) in one column, where the outer
polygon is fixed and one vertex of the inner polygon slides along a line;
and holes (1,1),(2,2) in different rows and columns, where one facet of
the outer polygon and one vertex of the inner polygon move together.

The parameter t enters exactly one entry, so every datum of a family is
an affine pencil in t: the factor entries, integers over one denominator
for A and one scale for B; the moving vertex, as a homogeneous integer
triple; and each incidence of the moving vertex or facet with a fixed
point or line.  Every critical t and every feasibility boundary is the
root of an affine function of integers, taken in closed form, so no
polynomial arithmetic or root isolation is needed.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction
from math import gcd

from .linalg import ExactMatrix, VerificationError, det, integer_scaled, rank, to_fraction
from .partial import PartialMatrix
from .geometry import (
    SUM_CHART_INVERSE,
    NestedPair,
    contains,
    cross,
    dot,
    exit_point,
    lowest,
    nested_triangle,
    nn_rank_at_most_3,
    pair_of_factors,
    polytopes_from_factorization,
    triangle_to_factorization,
)


class FamilyError(ValueError):
    """The partial matrix is outside the reach of the family construction."""


# ---------------------------------------------------------------------------
# feasible sets of affine sign constraints


class Interval(namedtuple("Interval", "lo hi lo_open hi_open", defaults=(False, False))):
    """Closed-by-default t-interval; None bounds mean +-infinity and an
    open flag marks an excluded finite endpoint (e.g. a pole)."""

    __slots__ = ()

    def contains(self, t: Fraction) -> bool:
        t = to_fraction(t)
        p, q = t.numerator, t.denominator
        # t - lo and hi - t have the signs of these cross products, since
        # every denominator is positive
        above = 1 if self.lo is None else p * self.lo.denominator - self.lo.numerator * q
        below = 1 if self.hi is None else self.hi.numerator * q - p * self.hi.denominator
        return (above > 0 or above == 0 and not self.lo_open) and (below > 0 or below == 0 and not self.hi_open)

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
        return Fraction(*_half_sum(self.lo, self.hi))


def _half_sum(a, b) -> tuple:
    """The midpoint (a + b)/2 of two Fractions as an integer pair (p, q),
    q > 0, not in lowest terms: one `Fraction(p, q)` where a sum and a
    halving would build two."""
    return a.numerator * b.denominator + b.numerator * a.denominator, 2 * a.denominator * b.denominator


def _root(c0, c1) -> tuple:
    """The root -c0/c1 of c0 + t*c1, for integers c0 and c1 != 0, as a
    lowest-terms pair (p, q) with q > 0."""
    g = gcd(c0, c1) if c1 > 0 else -gcd(c0, c1)
    return -c0 // g, c1 // g


def _ratio_roots(n, d) -> list:
    """The roots of the numerator and of the denominator of n/d in lowest
    terms, for affine n = n0 + t*n1 and d = d0 + t*d1 given as pairs of
    integers: none when n/d is constant (n0*d1 == n1*d0), otherwise the
    root of each of n, d whose t-coefficient c1 is nonzero (`_root`)."""
    (n0, n1), (d0, d1) = n, d
    if n0 * d1 == n1 * d0:
        return []
    return [_root(c0, c1) for c0, c1 in (n, d) if c1]


def _probe(lo, hi, gap) -> tuple:
    """A point of a cell of the t-line as an integer pair (p, q), q > 0,
    for t = p/q: the bound of a point cell, and for a gap its midpoint,
    one past its finite end, or 0."""
    if not gap:
        return lo.numerator, lo.denominator
    if lo is None:
        return (0, 1) if hi is None else (hi.numerator - hi.denominator, hi.denominator)
    if hi is None:
        return lo.numerator + lo.denominator, lo.denominator
    return _half_sum(lo, hi)


def feasible_set(constraints) -> list:
    """Intervals where every constraint n/d is >= 0 and d != 0.

    ``constraints`` is a list of pairs (n, d) of affine functions of t,
    each a pair (c0, c1) for c0 + t*c1.  The boundary points are the
    roots of every n and d that is not constant, so no n or d changes
    sign or vanishes between consecutive ones, and one probe decides each
    cell: the result is a list of Interval objects covering the feasible
    set exactly.  A root of d stays a boundary point even where n/d
    cancels to a constant, since n/d is undefined there.  A probe t =
    p/q is read as the integers (p, q), q > 0: n and d times q have the
    signs of n and d there.
    """
    bounds = sorted({Fraction(-c0, c1) for nd in constraints for c0, c1 in nd if c1})

    def feasible(lo, hi, gap):
        p, q = _probe(lo, hi, gap)
        for (n0, n1), (d0, d1) in constraints:
            d = d0 * q + d1 * p
            if d == 0 or (n0 * q + n1 * p) * d < 0:
                return False
        return True

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
# the two families


def _at(u, v, p: int, q: int) -> tuple:
    """The triple pencil u + t*v at t = p/q, times q."""
    return (u[0] * q + v[0] * p, u[1] * q + v[1] * p, u[2] * q + v[2] * p)


def _integers(*matrices) -> tuple:
    """Matrices of Fractions, each a list of rows, times one positive
    scale, the lcm of all their denominators: lists of integer rows, with
    every ratio between two entries kept, then the scale."""
    ns, scale = integer_scaled([x for rows in matrices for row in rows for x in row])
    ns = iter(ns)
    return (*([[next(ns) for _ in row] for row in rows] for rows in matrices), scale)


class NestedFamily(namedtuple("NestedFamily", "tag a_pencil a_den b_pencil b_scale feasible fixed_outer fixed_inner "
                                              "moving_vertex line_p1", defaults=(None,))):
    """A factor pair affine in t, with geometry and feasibility data.

    The parameter t enters one entry of the partial matrix, so every
    datum is an affine pencil of integers: A(t) = (A0 + t*A1)/(d0 + t*d1)
    with ``a_pencil`` = (A0, A1), lists of A's rows, and ``a_den`` = (d0,
    d1); B(t) = (B0 + t*B1)/``b_scale`` with ``b_pencil`` = (B0, B1),
    lists of B's columns, and a positive scale.  The factors are in slice
    coordinates: the constructor applies its chart once, so A(t).B(t) is
    the completion and its slice is the pair at t.  ``fixed_outer`` and
    ``fixed_inner`` slice the t-free rows of A and columns of B, the
    latter as lowest-terms triples (w, x, y) of the points (x/w, y/w).
    ``moving_vertex`` = (v0, v1) is the column of B that moves: the
    homogeneous triple v0 + t*v1 = (w, y, z), whose point is (y/w, z/w).
    For tag "11_21" the outer polygon is fixed and that point stays on
    ``line_p1``, the integer line of the cross product of v0 and v1
    (None when it is zero); for tag "11_22" one facet of the outer
    polygon (the first row of A) moves as well, and ``fixed_outer`` is the
    simplex cut out by the other three rows.
    """

    __slots__ = ()

    def integer_factors(self, p: int, q: int) -> tuple:
        """A(t) and B(t) at t = p/q, for integers p and q > 0: A's rows
        and B's columns, each a pair (n, d) of an integer triple over a
        positive denominator in lowest terms; ZeroDivisionError at a pole
        of A."""
        d0, d1 = self.a_den
        den = d0 * q + d1 * p
        if not den:
            raise ZeroDivisionError(f"t = {p}/{q} is a pole of A")
        rows = [lowest(_at(u, v, p, q), den) for u, v in zip(*self.a_pencil)]
        cols = [lowest(_at(u, v, p, q), self.b_scale * q) for u, v in zip(*self.b_pencil)]
        return rows, cols

    def completion_at(self, t) -> ExactMatrix:
        t = to_fraction(t)
        return _product(*self.integer_factors(t.numerator, t.denominator))

    def is_feasible(self, t) -> bool:
        t = to_fraction(t)
        return any(iv.contains(t) for iv in self.feasible)

    def pair_at(self, t) -> NestedPair:
        t = to_fraction(t)
        return pair_of_factors(*self.integer_factors(t.numerator, t.denominator))

    def incidence_t(self, line):
        """The t where the moving vertex lies on the integer ``line`` (c0,
        cx, cy): the root of line.(v0 + t*v1) as a lowest-terms pair (p, q)
        with q > 0, for t = p/q, where w(t) != 0; None when no single
        finite point of the vertex is on the line."""
        v0, v1 = self.moving_vertex
        slope = dot(line, v1)
        if not slope:
            return None
        p, q = _root(dot(line, v0), slope)
        return (p, q) if v0[0] * q + v1[0] * p else None


def _product(rows, cols) -> ExactMatrix:
    """A.B from A's rows and B's columns as `integer_factors` gives them."""
    return ExactMatrix([[Fraction(dot(n, c), d * e) for c, e in cols] for n, d in rows])


def _family(tag, a_pencil, a_den, b_pencil, constraints, fixed_rows, moving: int) -> NestedFamily:
    """The family of the pencils A(t) = (A0 + t*A1)/(d0 + t*d1) and B(t)
    = B0 + t*B1 of Fractions in slice coordinates, A's as lists of rows
    and B's as lists of columns, with every datum scaled to integers
    once: A with its denominator over one scale, B over another, the
    moving vertex and its line, and each side of each sign constraint (n,
    d) of the feasible set on its own.  The fixed pair slices
    ``fixed_rows``, the t-free rows of A, and the t-free columns of B,
    every column but column ``moving``."""
    a0, a1, (den,), _ = _integers(*a_pencil, [a_den])
    b0, b1, b_scale = _integers(*b_pencil)
    fixed_cols = [b for j, b in enumerate(b_pencil[0]) if j != moving]
    fixed = polytopes_from_factorization(ExactMatrix(fixed_rows), ExactMatrix(zip(*fixed_cols)))
    # the moving column v0 + t*v1 = (w, y, z) is the slice point (y/w, z/w)
    vertex = (tuple(b0[moving]), tuple(b1[moving]))
    if not (vertex[0][0] or vertex[1][0]):
        raise FamilyError("normalizing column sum vanishes identically")
    line = cross(*vertex)
    g = gcd(*line)
    feasible = feasible_set([(tuple(integer_scaled(n)[0]), tuple(integer_scaled(d)[0])) for n, d in constraints])
    return NestedFamily(tag, (a0, a1), tuple(den), (b0, b1), b_scale, feasible, fixed.outer, fixed.generators,
                        vertex, (line[0] // g, line[1] // g, line[2] // g) if g and tag == "11_21" else None)


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
    # b1 solves rows r3, r4 of A: b1 = x0 + t*k/k_f for k = r3 x r4, f its
    # first nonzero component (1, the printed convention, when it can) and
    # x0 the solution with component f zero, so t is component f of b1
    r3, r4 = a.row(3), a.row(4)
    k = cross(r3, r4)
    f = next((i for i in range(3) if k[i]), None)
    if f is None:
        raise FamilyError("rows 3,4 of columns 2..4 must have rank 2")
    e_f = [int(i == f) for i in range(3)]
    x0 = [(m.entry(3, 1) * u - m.entry(4, 1) * v) / k[f] for u, v in zip(cross(r4, e_f), cross(r3, e_f))]
    k = [x / k[f] for x in k]
    # both factors in the chart G = (the column sums s of A; e2; e3), as
    # A.G^-1, whose row a is (a1, a2*s1 - a1*s2, a3*s1 - a1*s3)/s1, and
    # G.B, whose column b is (s.b, b2, b3); s1 > 0, since a nonnegative
    # column with sum 0 would be zero and A has rank 3.  The t-free
    # columns of B are the identity, so in the chart they are G itself
    s = [sum(a.col(j)) for j in (1, 2, 3)]
    a = [[a1 / s[0], a2 - a1 * s[1] / s[0], a3 - a1 * s[2] / s[0]] for a1, a2, a3 in a.to_lists()]
    chart = [(s[0], 0, 0), (s[1], 1, 0), (s[2], 0, 1)]
    b_pencil = ([(dot(s, x0), x0[1], x0[2]), *chart], [(dot(s, k), k[1], k[2])] + [(0, 0, 0)] * 3)
    # the filled entries m11(t), m21(t): rows 1-2 of M's columns 2..4 times x0 + t*k
    filled = [([dot(row, x0), dot(row, k)], (1, 0)) for row in m.observed_submatrix([1, 2], [2, 3, 4]).to_lists()]
    return _family("11_21", (a, [[0] * 3 for _ in range(4)]), (1, 0), b_pencil, filled, a, 0)


def sufficient_11_21(fam: NestedFamily):
    """Feasible t* realizing the line-intersection sufficient condition:
    the moving vertex can be placed on a line through an edge of the
    fixed triangle at a point inside the outer polygon.  Returns t* or
    None (inconclusive)."""
    if fam.tag != "11_21":
        raise ValueError("family must have the 11_21 shape")
    p2, p3, p4 = fam.fixed_inner
    # a feasible t puts the vertex in the outer polygon: its slacks there
    # are the first column of the completion, which is nonnegative.  The
    # cross product of two lifted points is their line
    for (u, v) in ((p2, p3), (p3, p4), (p4, p2)):
        root = fam.incidence_t(cross(u, v))
        if root is not None and fam.is_feasible(t := Fraction(*root)):
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
    (m12, m13, m14) = rhs by Cramer's rule, where N(t) has rows R2(t) =
    (t, m23, m24), x = (m32, m33, m34) and y = (m42, m43, m44).  Each
    determinant is a triple product, affine in t: det N(t) = R2(t).(x*y)
    over the numerators rhs.(x*y), R2(t).(rhs*y) and R2(t).(x*rhs), for *
    the cross product and R2(t) = (0, m23, m24) + t*(1, 0, 0)."""
    _require_pattern(m, {(1, 1), (2, 2)})
    rhs, x, y = ([m.entry(i, j) for j in (2, 3, 4)] for i in (1, 3, 4))
    xy = cross(x, y)
    if not dot(rhs, xy):
        raise FamilyError("rows 1,3,4 of columns 2..4 must have rank 3")
    u, v, w = ([m.entry(i, j) for j in (1, 3, 4)] for i in (2, 3, 4))
    if not dot(u, cross(v, w)):
        raise FamilyError("rows 2..4 of columns 1,3,4 must have rank 3")

    r2 = (0, m.entry(2, 3), m.entry(2, 4))
    den = (dot(r2, xy), xy[0])
    if not any(den):
        raise FamilyError("parametrizing system is singular for every t")
    nums = [(dot(rhs, xy), 0)] + [(dot(r2, c), c[0]) for c in (cross(rhs, y), cross(x, rhs))]
    # sign constraints: m11(t) = a1(t).(m21, m31, m41) >= 0 and m22(t) = t >= 0
    col = [m.entry(i, 1) for i in (2, 3, 4)]
    constraints = [([dot(n, col) for n in zip(*nums)], den), ((0, 1), (1, 0))]
    # both factors in the chart G.b = (b1 + b2 + b3, b1, b2) of the
    # coordinate sums, whose inverse is SUM_CHART_INVERSE: A(t), the Cramer
    # numerators n and the identity times den, over den, as A.G^-1 with
    # n.G^-1 = (n3, n1 - n3, n2 - n3), and B(t) (m22 = t) as G.B
    a_pencil = tuple([(n3, n1 - n3, n2 - n3), (0, d, 0), (0, 0, d), (d, -d, -d)]
                     for (n1, n2, n3), d in zip(zip(*nums), den))
    cols = [[m.get(i, j, 0) for i in (2, 3, 4)] for j in (1, 2, 3, 4)]
    b_pencil = ([(sum(b), b[0], b[1]) for b in cols], [(0, 0, 0), (1, 1, 0), (0, 0, 0), (0, 0, 0)])
    # the t-free rows of A are the identity rows, G^-1 in the chart
    return _family("11_22", a_pencil, den, b_pencil, constraints, SUM_CHART_INVERSE.to_lists(), 1)


def simplicial_sign_check(fam: NestedFamily, t) -> bool:
    """Sign profile of the moving facet coefficients (a11, a12, a13) at a
    feasible t certifying that the outer cone is simplicial: all
    nonnegative; or two negative and one positive; or one negative, one
    zero and one positive."""
    if fam.tag != "11_22":
        raise ValueError("family must have the 11_22 shape")
    t = to_fraction(t)
    if not fam.is_feasible(t):
        raise ValueError(f"t = {t} is not feasible")
    # the first row of A is the moving facet (the charted row times
    # the chart G) at the vertices of the fixed outer simplex; each entry
    # n_k/d has the sign of n_k*d, and d != 0 at a feasible t.  At t = p/q
    # the integers n_k*q and d*q have the signs of n_k and d, since q > 0
    p, q = t.numerator, t.denominator
    d0, d1 = fam.a_den
    d = d0 * q + d1 * p
    facet = [(x * q + y * p) * d for x, y in zip(fam.a_pencil[0][0], fam.a_pencil[1][0])]
    a1 = [dot(facet, v) for v in fam.fixed_outer.triples]
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


class Normalization(namedtuple("Normalization", "transposed row_perm col_perm tag")):
    """How the canonical instance was obtained: transpose first (optional),
    then canonical row i / column j read original row ``row_perm[i-1]`` /
    column ``col_perm[j-1]``."""

    __slots__ = ()


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
    incidences of the moving vertex with the lines through two fixed
    points, and of the moving facet with the fixed points.  Each is a
    ratio of two affine functions of t, so its roots are closed-form
    (``_ratio_roots``).  Every sign change or pole of a factor entry is
    one of them: an entry of B's moving column (11_21) is the vertex
    against the line through two fixed inner points, and an entry of A's
    first row (11_22) is the facet at a vertex of the fixed simplex.  The
    roots are deduplicated as integer pairs, so each distinct critical t
    is one `Fraction`, and the list is sorted."""
    crit = set()
    # the incidences in integers: the pencils are integers, and the roots
    # of n/d do not change when a fixed point (x, y) is read as its
    # lifted triple (w, x*w, y*w)
    v0, v1 = fam.moving_vertex
    points = fam.fixed_inner + fam.fixed_outer.triples
    # the moving vertex against every line through two fixed points; the
    # lines through consecutive outer vertices are the fixed facets
    for p, q in itertools.combinations(points, 2):
        line = cross(p, q)
        crit.update(_ratio_roots((dot(line, v0), dot(line, v1)), (v0[0], v1[0])))
    if fam.tag == "11_22":
        # the moving facet, the first row of A over its denominator, at
        # each fixed point; at the point of column 1 of B it is the
        # completion entry m11(t).  At the moving vertex itself it is m12/w
        # (a1 solves a1.N = (m12, m13, m14) and the vertex is N's first
        # column), whose one critical t, the root of w, is a pole of the
        # vertex or, where the vertex stands still (m32 = m42 = 0, w = t),
        # the root of den, so it needs no term of its own
        a0, a1 = (rows[0] for rows in fam.a_pencil)
        for p in points:
            crit.update(_ratio_roots((dot(a0, p), dot(a1, p)), fam.a_den))
    return sorted(Fraction(p, q) for p, q in crit)


def _interval_sample_ts(iv: Interval, criticals) -> list:
    """Endpoints, interior criticals and midpoints of one feasible interval.

    ``criticals`` must be sorted: the interior ones are the slice between
    two bisections, each end kept or skipped as the interval is closed or
    open there.  Every anchor lies in the interval, so every midpoint does
    too."""
    start = 0 if iv.lo is None else (bisect_right if iv.lo_open else bisect_left)(criticals, iv.lo)
    stop = len(criticals) if iv.hi is None else (bisect_left if iv.hi_open else bisect_right)(criticals, iv.hi)
    inner_crit = criticals[start:stop]
    # an open end's anchor lies halfway to the next point inwards.  With no
    # such point, or when that point is the other end and it is open too,
    # the other end's anchor stands for it, so no anchor is built twice
    lo_closed = iv.lo is not None and not iv.lo_open
    anchors = []
    if lo_closed:
        anchors.append(iv.lo)
    elif iv.lo is not None and (inner_crit or iv.hi is not None):
        anchors.append(Fraction(*_half_sum(iv.lo, inner_crit[0] if inner_crit else iv.hi)))
    if iv.hi is not None and not iv.hi_open:
        anchors.append(iv.hi)
    elif iv.hi is not None and (inner_crit or lo_closed):
        anchors.append(Fraction(*_half_sum(inner_crit[-1] if inner_crit else iv.lo, iv.hi)))
    if iv.lo is None:
        ref = inner_crit[0] if inner_crit else iv.hi
        anchors.append(Fraction(-1) if ref is None else ref - 1)
    if iv.hi is None:
        ref = inner_crit[-1] if inner_crit else iv.lo
        anchors.append(Fraction(1) if ref is None else ref + 1)
    pts = sorted(set(anchors + inner_crit))
    out = []
    for a, b in zip(pts, pts[1:]):
        out.append(a)
        out.append(Fraction(*_half_sum(a, b)))
    out.append(pts[-1])
    return out


def _completable_at(fam: NestedFamily, t):
    """A Completable certificate at t if a triangle nests in the pair there,
    else None.  The completion there then has nonnegative rank at most 3,
    and the witness is that triangle lifted to a factorization of it."""
    t = to_fraction(t)
    if not fam.is_feasible(t):
        return None
    rows, cols = fam.integer_factors(t.numerator, t.denominator)
    try:
        pair = pair_of_factors(rows, cols)
        tri = nested_triangle(pair)
    except ValueError:
        return None
    if tri is None:
        return None
    completion = _product(rows, cols)
    if not completion.is_nonnegative():
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
    except (ValueError, ZeroDivisionError):  # UnboundedRegionError is a ValueError
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


def sweep_candidates(fam: NestedFamily) -> set:
    """The t where an anchored greedy chain around the moving vertex can
    change combinatorics: incidences of the vertex with lines through
    pairs of fixed vertices, plus the t whose chain chords pass through a
    vertex of the outer polygon, propagated up to three chords back.
    Every point is a lifted triple and every line the cross product of
    two; the roots are deduplicated as integer pairs, so each distinct
    candidate is one `Fraction`."""
    outer = fam.fixed_outer
    fixed = fam.fixed_inner
    lines = [cross(u, w) for u, w in itertools.combinations(fixed + outer.triples, 2)]

    def values(p) -> list:
        return [dot(line, p) for line in outer.lines]

    at_fixed = [values(p) for p in fixed]

    def boundary_points(ends) -> set:
        """Where the line through each end a and each fixed point p meets
        the boundary of the outer polygon: p lies in that polygon, so
        these are the exits of the rays from p towards a and away from a,
        towards the reflected point 2p - a."""
        out = set()
        for a in ends:
            at_a = values(a)
            wa, xa, ya = a
            for p, at_p in zip(fixed, at_fixed):
                if a != p:
                    wp, xp, yp = p
                    w, x, y = wa * wp, 2 * xp * wa - xa * wp, 2 * yp * wa - ya * wp
                    g = gcd(w, x, y)
                    r = (w // g, x // g, y // g)
                    out |= {exit_point(p, a, at_p, at_a), exit_point(p, r, at_p, values(r))}
        return out

    level1 = boundary_points(outer.triples)
    level2 = boundary_points(level1)
    lines += [cross(x, p) for x in level1 | level2 for p in fixed]
    return {Fraction(p, q) for p, q in {fam.incidence_t(line) for line in lines} - {None}}


def _sweep_moving_vertex(fam: NestedFamily, iv: Interval) -> bool:
    """Whether an exhaustive check of the moving vertex over the interval,
    when its line is a facet line of the fixed outer polygon, refutes it.

    The interval is cut at every candidate t where the greedy chain can
    change combinatorics (incidences of chain lines with vertices of the
    polygons, propagated up to three chords back); between consecutive
    candidates the chain moves monotonically, so probing the cells of
    ``_interval_sample_ts`` decides the whole interval, and an infinite
    end is just its last cell.  A nested triangle at any probe leaves the
    interval unrefuted.  At a feasible t the vertex is a point of the
    outer polygon: its weight w is the sum of the first column of the
    completion, which is positive, and its slack is that column.
    """
    line = fam.line_p1
    if line is None or all(any(cross(facet, line)) for facet in fam.fixed_outer.lines):
        return False
    ts = _interval_sample_ts(iv, sorted(sweep_candidates(fam)))
    return all(nested_triangle(fam.pair_at(t)) is None for t in ts)


# ---------------------------------------------------------------------------
# certificates and the decision procedure


class Nn3Certificate(namedtuple("Nn3Certificate", "verdict pattern t_star completion witness triangle envelope "
                                                "envelope_t samples", defaults=(None,) * 7)):
    """Outcome of the two-missing-entry decision for nonnegative rank 3.

    ``verdict`` is "Completable", "NotCompletable" or "Unknown".  For
    completable instances ``completion`` (in the original orientation of
    the input), the witness factorization and, when available, the nested
    triangle are filled in; refutations carry the envelope pair;
    ``samples`` lists every parameter value that was tested, in a list of
    its own: an omitted one is a new empty list.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        cert = super().__new__(cls, *args, **kwargs)
        return cert if cert.samples is not None else cert._replace(samples=[])

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
    (A, B) with A.B equal to the returned completion, and the completion
    is checked against every observed entry of m (VerificationError).
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
            cert = flipped
            norm = norm_t._replace(transposed=not norm_t.transposed)
    cert = _in_callers_orientation(cert, norm)
    if cert.verdict == "Completable" and not m.agrees_with(cert.completion):
        raise VerificationError("the completion does not match the observed entries")
    return cert


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
    return cert._replace(completion=completion, witness=witness)


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
    # deduplicated on integer pairs, which hash faster than Fractions
    samples = sorted({(t.numerator, t.denominator): t for _, ts in sampled for t in ts}.values())
    for t in _search_order(fam, samples):
        cert = _completable_at(fam, t)
        if cert is not None:
            break
    else:
        cert = _refute(fam, sampled)
    return cert._replace(samples=samples)


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
