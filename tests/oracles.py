"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written differently from the package:
naive cofactor expansions, brute-force enumeration, string-parsed
polynomial transcriptions, float NMF, rational functions in sympy's
QQ(t) — so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np
from sympy import QQ, Poly, symbols

from nncomplete import (
    CompletionOutcome,
    ExactMatrix,
    FamilyError,
    Interval,
    LinearSolution,
    Nn3Certificate,
    PartialMatrix,
    VerificationError,
    cycle_property,
    det,
    family_11_21,
    family_11_22,
    inverse,
    matmul,
    nn_rank_at_most_3,
    normalize_two_missing,
    simplicial_sign_check,
    support_graph,
    zero_entries_line_consistent,
)
from nncomplete.family import _family_stages
from nncomplete.geometry import (
    NestedPair, Polygon2, UnboundedRegionError, contains, convex_hull, cross, join, nested_triangle,
    polygon_from_halfplanes, side,
)
from nncomplete.linalg import integer_scaled, pivot_columns, solve_linear
from nncomplete.partial import ZeroLineFlags, multiplicative_potentials


# ---------------------------------------------------------------------------
# determinants


def det_cofactor(rows):
    """Recursive cofactor determinant over any commutative ring whose
    elements support +, -, *."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * det_cofactor(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


# ---------------------------------------------------------------------------
# polynomials and rational functions of t, over sympy's QQ[t] and QQ(t)


_t = symbols("t")
RING = QQ[_t]
FIELD = QQ.frac_field(_t)  # every element kept in lowest terms


def as_fraction(q) -> Fraction:
    """A sympy rational (a domain element or a Rational) as a Fraction."""
    return Fraction(int(q.numerator), int(q.denominator))


def rf_at(rf, t) -> Fraction:
    """rf(t) for an element of FIELD and a rational t; ZeroDivisionError
    at a pole."""
    t = QQ(t.numerator, t.denominator)
    d = rf.denom(t)
    if d == 0:
        raise ZeroDivisionError(f"pole at t = {t}")
    return as_fraction(rf.numer(t) / d)


def defined_at(rf, t) -> bool:
    return rf.denom(QQ(t.numerator, t.denominator)) != 0


def as_poly(p) -> Poly:
    """An element of a polynomial ring in t as a sympy Poly."""
    return Poly.from_list(p.to_dense(), _t, domain=QQ)


def rational_roots(p) -> list:
    """The rational roots of a polynomial in t, sorted; none for a
    constant."""
    return [] if p.is_ground else sorted(as_fraction(r) for r in as_poly(p).ground_roots())


def matrix_rank_float(m: ExactMatrix) -> int:
    arr = np.array([[float(x) for x in row] for row in m.to_lists()])
    return int(np.linalg.matrix_rank(arr, tol=1e-9 * (1 + np.abs(arr).max())))


def rank_by_minors(m: ExactMatrix) -> int:
    """The size of the largest nonzero minor, by cofactor expansion."""
    rows = m.to_lists()
    for k in range(min(m.p, m.q), 0, -1):
        for ri in itertools.combinations(range(m.p), k):
            for ci in itertools.combinations(range(m.q), k):
                if det_cofactor([[rows[i][j] for j in ci] for i in ri]) != 0:
                    return k
    return 0


def greedy_independent_columns(m: ExactMatrix) -> list:
    """1-based columns taken left to right whenever they raise the rank of
    the columns taken so far, each rank by minors."""
    cols = []
    for j in range(1, m.q + 1):
        if rank_by_minors(m.submatrix(range(1, m.p + 1), cols + [j])) == len(cols) + 1:
            cols.append(j)
    return cols


def solve_linear_gauss_jordan(a: ExactMatrix, rhs: ExactMatrix) -> LinearSolution:
    """Solve a x = rhs by Gauss-Jordan elimination to the reduced row
    echelon form in Fraction arithmetic: the particular solution has every
    free variable 0, and kernel vector k has free variable k equal to 1 and
    the others 0."""
    p, q = a.p, a.q
    k = rhs.q
    aug = [ra + rb for ra, rb in zip(a.to_lists(), rhs.to_lists())]
    pivots: list[int] = []
    r = 0
    for c in range(q):
        pivot = next((i for i in range(r, p) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(p):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == p:
            break
    # consistency: a zero row of the coefficient part with nonzero rhs part
    for i in range(r, p):
        if any(aug[i][c] != 0 for c in range(q, q + k)):
            return LinearSolution(False, None, [])
    free = [c for c in range(q) if c not in pivots]
    part = [[Fraction(0)] * k for _ in range(q)]
    for row_idx, c in enumerate(pivots):
        for j in range(k):
            part[c][j] = aug[row_idx][q + j]
    kernel = []
    for fc in free:
        vec = [Fraction(0)] * q
        vec[fc] = Fraction(1)
        for row_idx, c in enumerate(pivots):
            vec[c] = -aug[row_idx][fc]
        kernel.append(ExactMatrix.column(vec))
    return LinearSolution(True, ExactMatrix(part), kernel)


# ---------------------------------------------------------------------------
# one-missing-entry classification by symbolic determinants


def one_missing_by_minors(m: PartialMatrix, hole, r):
    """("none" | "unique" | "infinite", value-or-None) by requiring every
    (r+1)x(r+1) minor touching the hole to vanish, with the hole as a
    polynomial variable."""
    x = RING.gens[0]
    rows = []
    for i in range(1, m.p + 1):
        row = []
        for j in range(1, m.q + 1):
            row.append(x if (i, j) == hole else RING.convert(m.entry(i, j)))
        rows.append(row)
    minors = []
    for rsel in itertools.combinations(range(m.p), r + 1):
        for csel in itertools.combinations(range(m.q), r + 1):
            sub = [[rows[i][j] for j in csel] for i in rsel]
            minors.append(det_cofactor(sub))
    if not any(minors):
        return "infinite", None
    # each minor is affine in the hole value; intersect the root sets
    candidates = None
    for p in minors:
        if not p:
            continue
        if p.is_ground:
            return "none", None
        roots = set(rational_roots(p))
        candidates = roots if candidates is None else candidates & roots
        if not candidates:
            return "none", None
    # an irrational common root is impossible for affine polynomials
    if len(candidates) == 1:
        return "unique", next(iter(candidates))
    return "infinite", None


# ---------------------------------------------------------------------------
# cycle enumeration for the rank-1 cycle condition


def all_simple_cycles(m: PartialMatrix):
    """Every simple cycle of the bipartite observed-support graph, as a
    list of edges (i, j) alternating row->col / col->row."""
    verts = [("r", i) for i in range(1, m.p + 1)] + [("c", j) for j in range(1, m.q + 1)]
    adj = {v: [] for v in verts}
    for (i, j) in sorted(m.pattern.observed):
        adj[("r", i)].append(("c", j))
        adj[("c", j)].append(("r", i))
    cycles = []

    def dfs(path, seen):
        head = path[-1]
        for nxt in adj[head]:
            if nxt == path[0] and len(path) >= 4:
                if head > path[1]:  # canonical direction, one listing each
                    cycles.append(list(path))
                continue
            if nxt in seen or nxt < path[0]:
                continue
            path.append(nxt)
            seen.add(nxt)
            dfs(path, seen)
            seen.remove(nxt)
            path.pop()

    for start in verts:
        dfs([start], {start})
    return cycles


def cycle_condition_brute_force(m: PartialMatrix) -> bool:
    """Product over even-indexed edges equals product over odd-indexed
    edges, for every simple cycle."""
    for cyc in all_simple_cycles(m):
        entries = []
        for a, b in zip(cyc, cyc[1:] + [cyc[0]]):
            (i,) = [v for (k, v) in (a, b) if k == "r"]
            (j,) = [v for (k, v) in (a, b) if k == "c"]
            entries.append(m.entry(i, j))
        even = Fraction(1)
        odd = Fraction(1)
        for k, e in enumerate(entries):
            if k % 2 == 0:
                even *= e
            else:
                odd *= e
        if even != odd:
            return False
    return True


# ---------------------------------------------------------------------------
# rank-1 completion through the full cycle property, and the zero-line
# flags by scanning every line of every observed zero


def rank1_complete_by_cycle_property(m: PartialMatrix, require_nonnegative: bool = False):
    """rank1_complete that tests the cycle property in full, zero entries
    included, and builds the support graph and the potentials afresh for
    the factors and again for uniqueness."""
    if require_nonnegative and not m.is_nonnegative():
        raise ValueError("nonnegative completion requested but an observed entry is negative")
    if not zero_entries_line_consistent(m) or not cycle_property(m):
        return CompletionOutcome("none")
    graph = support_graph(m)
    row_pot, col_pot, consistent = multiplicative_potentials(m, graph)
    if not consistent:
        raise VerificationError("multiplicative potentials are inconsistent")
    nz_rows = {i for (i, j) in graph.nonzero_edges}
    nz_cols = {j for (i, j) in graph.nonzero_edges}
    observed_rows = {i for (i, j) in m.pattern.observed}
    observed_cols = {j for (i, j) in m.pattern.observed}
    u = []
    for i in range(1, m.p + 1):
        if i in nz_rows:
            u.append(row_pot[i])
        elif i in observed_rows:
            u.append(Fraction(0))
        else:
            u.append(Fraction(1))
    v = []
    for j in range(1, m.q + 1):
        if j in nz_cols:
            v.append(col_pot[j])
        elif j in observed_cols:
            v.append(Fraction(0))
        else:
            v.append(Fraction(1))
    if require_nonnegative:
        u = [abs(x) for x in u]
        v = [abs(x) for x in v]
    completion = ExactMatrix([[ui * vj for vj in v] for ui in u])
    if not m.agrees_with(completion):
        raise VerificationError("rank-1 completion disagrees with an observed entry")
    graph = support_graph(m)
    if graph.nonzero_is_connected():
        return CompletionOutcome("unique", completion)
    free = len(graph.components()) - 1
    return CompletionOutcome(
        "infinite",
        completion,
        f"{free} free relative scaling(s) between components of the nonzero support graph",
    )


def zero_line_property_by_loops(m: PartialMatrix) -> ZeroLineFlags:
    """Row flag: no observed zero shares its row with an observed nonzero;
    column flag likewise, each found by scanning the zero's whole line."""
    row_ok = True
    col_ok = True
    for (i, j), v in m.values.items():
        if v != 0:
            continue
        if row_ok and any(
            m.get(i, jj, Fraction(0)) != 0 for jj in range(1, m.q + 1) if jj != j
        ):
            row_ok = False
        if col_ok and any(
            m.get(ii, j, Fraction(0)) != 0 for ii in range(1, m.p + 1) if ii != i
        ):
            col_ok = False
        if not row_ok and not col_ok:
            break
    return ZeroLineFlags(row_ok, col_ok)


# ---------------------------------------------------------------------------
# boundary sextic, transcribed a second time from the printed monomials


_SEXTIC_TEXT = """
+ m14 m23 m32 m33 m41 m42 | - m14 m22 m33 m33 m41 m42 | + m12 m24 m33 m33 m41 m42
| - m13 m23 m32 m34 m41 m42 | + m13 m22 m33 m34 m41 m42 | - m12 m23 m33 m34 m41 m42
| - m14 m23 m31 m33 m42 m42 | + m13 m23 m31 m34 m42 m42 | - m14 m23 m32 m32 m41 m43
| + m14 m22 m32 m33 m41 m43 | - m12 m24 m32 m33 m41 m43 | + m12 m23 m32 m34 m41 m43
| + m14 m23 m31 m32 m42 m43 | + m14 m22 m31 m33 m42 m43 | - m12 m24 m31 m33 m42 m43
| - m13 m22 m31 m34 m42 m43 | - m14 m22 m31 m32 m43 m43 | + m12 m24 m31 m32 m43 m43
| + m13 m23 m32 m32 m41 m44 | - m13 m22 m32 m33 m41 m44 | - m13 m23 m31 m32 m42 m44
| + m12 m23 m31 m33 m42 m44 | + m13 m22 m31 m32 m43 m44 | - m12 m23 m31 m32 m43 m44
"""


def sextic_by_text(m: ExactMatrix) -> Fraction:
    total = Fraction(0)
    for term in _SEXTIC_TEXT.replace("\n", " ").split("|"):
        term = term.strip()
        if not term:
            continue
        sign = Fraction(1) if term[0] == "+" else Fraction(-1)
        prod = sign
        for tok in re.findall(r"m(\d)(\d)", term):
            prod *= m.entry(int(tok[0]), int(tok[1]))
        total += prod
    return total


def random_boundary_product(rng) -> ExactMatrix:
    """Random nonnegative product with the zero pattern whose closure the
    sextic cuts out: left zeros at (1,1),(2,2),(3,3),(4,3); right zeros at
    (1,1),(2,2),(3,3)."""

    def entry():
        return Fraction(rng.randint(0, 30), rng.randint(1, 7))

    a = [[entry() for _ in range(3)] for _ in range(4)]
    b = [[entry() for _ in range(4)] for _ in range(3)]
    for (i, j) in ((1, 1), (2, 2), (3, 3), (4, 3)):
        a[i - 1][j - 1] = Fraction(0)
    for (i, j) in ((1, 1), (2, 2), (3, 3)):
        b[i - 1][j - 1] = Fraction(0)
    from nncomplete import matmul

    return matmul(ExactMatrix(a), ExactMatrix(b))


# ---------------------------------------------------------------------------
# numerical NMF (one-sided oracle for nonnegative rank <= 3)


def nmf_residual(m: ExactMatrix, r: int, seed: int = 0, iters: int = 4000) -> float:
    """Best relative Frobenius residual of multiplicative-update NMF over
    a few restarts.  Small residual strongly suggests nnrank <= r; a large
    residual proves nothing."""
    arr = np.array([[float(x) for x in row] for row in m.to_lists()])
    scale = np.linalg.norm(arr) or 1.0
    best = np.inf
    rng = np.random.default_rng(seed)
    for _ in range(6):
        w = rng.random((arr.shape[0], r)) + 0.1
        h = rng.random((r, arr.shape[1])) + 0.1
        for _ in range(iters):
            h *= (w.T @ arr) / np.maximum(w.T @ w @ h, 1e-12)
            w *= (arr @ h.T) / np.maximum(w @ h @ h.T, 1e-12)
        best = min(best, np.linalg.norm(arr - w @ h) / scale)
    return float(best)


# ---------------------------------------------------------------------------
# rotation-grid triangle search (independent anchor set)


def rotation_grid_triangle(pair: NestedPair, n: int = 720):
    """Try to close a triangle around the inner polygon starting from a
    supporting line of each of n exact rational directions; any verified
    success certifies that a nested triangle exists.  The chain steps, the
    ray exits, the line intersections and the final check are all written
    here in Fraction arithmetic, so no search code of the library is
    shared."""
    inner, outer = list(pair.inner.vertices), list(pair.outer.vertices)
    for k in range(-(n // 2), n - (n // 2)):
        u = Fraction(k, n // 2) if n // 2 else Fraction(k)
        base = (1 - u * u, 2 * u)  # rational point on the circle, unnormalized
        for d in (base, (-base[0], -base[1])):
            if d == (0, 0):
                continue
            nrm = (-d[1], d[0])
            anchor = min(inner, key=lambda p: nrm[0] * p[0] + nrm[1] * p[1])
            back = _ray_exit(anchor, (-d[0], -d[1]), outer)
            fwd = _ray_exit(back, d, outer)
            tri = _close_grid_chain(back, fwd, inner, outer)
            if tri is not None:
                return tri
    return None


def orient(o, a, b):
    """Twice the signed area of (o, a, b), (a - o) x (b - o); > 0 iff
    counterclockwise.  The reference for `geometry.side`."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _ray_exit(v, d, outer):
    """Last point of the counterclockwise polygon ``outer`` on the ray
    v + s*d, s >= 0, for v inside it: the smallest s at which the ray
    crosses an edge it approaches from the inside."""
    best = None
    for e1, e2 in zip(outer, outer[1:] + outer[:1]):
        ex, ey = e2[0] - e1[0], e2[1] - e1[1]
        rate = ex * d[1] - ey * d[0]  # d(cross(e1, e2, v + s*d)) / ds
        if rate < 0:
            s = orient(e1, e2, v) / -rate
            best = s if best is None else min(best, s)
    return (v[0] + best * d[0], v[1] + best * d[1])


def _lines_meet(a1, a2, b1, b2):
    """Intersection of the lines a1a2 and b1b2 by Cramer's rule, or None."""
    m11, m12 = a2[0] - a1[0], b1[0] - b2[0]
    m21, m22 = a2[1] - a1[1], b1[1] - b2[1]
    d = m11 * m22 - m12 * m21
    if d == 0:
        return None
    r1, r2 = b1[0] - a1[0], b1[1] - a1[1]
    s = (r1 * m22 - m12 * r2) / d
    return (a1[0] + s * m11, a1[1] + s * m21)


def _close_grid_chain(start, v1, inner, outer):
    """Greedy closure of the chain whose first side lies on the line
    start -> v1: tangent from v1 to the inner polygon, out to the outer
    boundary at v2, tangent from v2, back to the first line at x; the
    triangle (v1, v2, x) if it is nested."""
    t2 = tangent_vertex_brute(v1, inner)
    if t2 is None:
        return None
    v2 = _ray_exit(v1, (t2[0] - v1[0], t2[1] - v1[1]), outer)
    t3 = tangent_vertex_brute(v2, inner)
    if t3 is None:
        return None
    x = _lines_meet(v2, t3, start, v1)
    if x is None:
        return None
    corners = [v1, v2, x]
    if orient(*corners) < 0:
        corners = [v1, x, v2]
    if orient(*corners) == 0:
        return None
    edges = list(zip(corners, corners[1:] + corners[:1]))
    if any(orient(a, b, p) < 0 for a, b in edges for p in inner):
        return None
    if any(orient(e1, e2, c) < 0 for e1, e2 in zip(outer, outer[1:] + outer[:1]) for c in corners):
        return None
    return Polygon2.triangle(*corners)


def verify_triangle(pair: NestedPair, tri: Polygon2) -> bool:
    """tri contains P and lies in Q: every vertex on the closed left of
    every counterclockwise edge, by `orient`."""

    def inside(polygon, points):
        vs = polygon.vertices
        return all(orient(a, b, p) >= 0 for a, b in zip(vs, vs[1:] + vs[:1]) for p in points)

    return inside(tri, pair.inner.vertices) and inside(pair.outer, tri.vertices)


# ---------------------------------------------------------------------------
# brute-force tangent vertex


def tangent_vertex_brute(v, vertices):
    """The vertex t != v with every vertex on the closed left of v -> t,
    farthest from v among such (first in list order on equal distance),
    or None.  Scans all vertices for every candidate: O(n^2)."""
    vx, vy = Fraction(v[0]), Fraction(v[1])
    best, best_d = None, None
    for t in vertices:
        if t == (vx, vy):
            continue
        dx, dy = t[0] - vx, t[1] - vy
        if any(dx * (p[1] - vy) < dy * (p[0] - vx) for p in vertices):
            continue
        d = dx * dx + dy * dy
        if best is None or d > best_d:
            best, best_d = t, d
    return best


# ---------------------------------------------------------------------------
# closed-form moving-vertex line of the 11_21 family


def line_from_observed_minors(m: PartialMatrix) -> HalfPlane:
    """The line traced by the moving inner vertex of the 11_21 family, in
    closed form from 2x2 minors of the observed entries."""

    def mm(rows, cols):
        return det(m.observed_submatrix(list(rows), list(cols)))

    c0 = -det(
        ExactMatrix([[m.entry(3, 1), m.entry(3, 2)], [m.entry(4, 1), m.entry(4, 2)]])
    )
    m31 = m.entry(3, 1)
    m41 = m.entry(4, 1)
    cx = m41 * (mm((1, 3), (2, 3)) + mm((2, 3), (2, 3)) - mm((3, 4), (2, 3))) - m31 * (
        mm((1, 4), (2, 3)) + mm((2, 4), (2, 3)) + mm((3, 4), (2, 3))
    )
    cy = m41 * (mm((1, 3), (2, 4)) + mm((2, 3), (2, 4)) - mm((3, 4), (2, 4))) - m31 * (
        mm((1, 4), (2, 4)) + mm((2, 4), (2, 4)) + mm((3, 4), (2, 4))
    )
    return HalfPlane(c0, cx, cy)


# ---------------------------------------------------------------------------
# feasible sets by candidate intervals


def feasible_set_by_candidates(constraints) -> list:
    """The feasible set of constraints rf >= 0, each rf in QQ(t), built in
    passes: keep each candidate interval between consecutive boundary
    points whose interior probe is feasible (or that hides an irrational
    root), closed at its feasible ends; then admit the feasible boundary
    points no kept interval contains; then sort and join intervals that
    share a closed end."""
    bounds = set()
    irrational = []  # (p, Poly) for each p with an irrational root
    for rf in constraints:
        for p in (rf.numer, rf.denom):
            if p.is_ground:
                continue
            poly = as_poly(p)
            roots = poly.ground_roots()
            brackets = poly.intervals()
            # intervals() brackets a rational root too, so each is also a point
            bounds.update(as_fraction(r) for r in roots)
            for (a, b), _ in brackets:
                bounds.update((as_fraction(a), as_fraction(b)))
            if len(brackets) > len(roots):
                irrational.append((p, poly))
    bounds = sorted(bounds)
    edges = [None] + bounds + [None]
    candidates = list(zip(edges, edges[1:]))

    def ok(t):
        return all(defined_at(rf, t) and rf_at(rf, t) >= 0 for rf in constraints)

    def hides_root(lo, hi):
        # every rational root is a bound; count_roots counts the closed [lo, hi]
        return any(poly.count_roots(lo, hi) - (p(lo) == 0) - (p(hi) == 0) > 0 for p, poly in irrational)

    intervals = []
    for lo, hi in candidates:
        probe = Interval(lo, hi, True, True).sample()
        if ok(probe) or (lo is not None and hi is not None and hides_root(lo, hi)):
            lo_open, hi_open = lo is not None and not ok(lo), hi is not None and not ok(hi)
            intervals.append(Interval(lo, hi, lo_open, hi_open))
    for b in bounds:
        if ok(b) and not any(iv.contains(b) for iv in intervals):
            intervals.append(Interval(b, b))
    intervals.sort(key=lambda iv: (iv.lo is not None, iv.lo))
    merged = []
    for iv in intervals:
        last = merged[-1] if merged else None
        if (last is not None and last.hi is not None and iv.lo is not None and last.hi == iv.lo
                and not (last.hi_open and iv.lo_open)):
            merged[-1] = Interval(last.lo, iv.hi, last.lo_open, iv.hi_open)
        else:
            merged.append(iv)
    return merged


# ---------------------------------------------------------------------------
# a two-hole family rebuilt over QQ(t)


@dataclass
class RationalFunctionFamily:
    """A(t), B(t) and the moving vertex (x(t), y(t)) of a two-hole family
    as matrices over QQ(t), each entry in lowest terms, and the chart G in
    which the family slices A(t).B(t): the library keeps (A.G^-1, G.B)."""

    a_of_t: list
    b_of_t: list
    moving_vertex: tuple
    chart: ExactMatrix


def rational_function_family(fam, m: PartialMatrix) -> RationalFunctionFamily:
    """The factors and the moving vertex of a NestedFamily rebuilt from
    m, the partial matrix it was built from, as the library built them
    before its pencils: for 11_21, b1 = x0 + t*k from a Gauss-Jordan solve
    of rows 3-4 with the columns reversed; for 11_22, the first row of A
    by Cramer's rule over cofactor determinants in QQ[t]; and the vertex
    as sums and quotients in QQ(t) over the chart: the column sums of A
    for 11_21, and the coordinate sum, (x + y + z, x, y), for 11_22."""
    t = FIELD.gens[0]
    if fam.tag == "11_21":
        a = m.observed_submatrix([1, 2, 3, 4], [2, 3, 4])
        sol = solve_linear_gauss_jordan(
            m.observed_submatrix([3, 4], [4, 3, 2]), ExactMatrix.column([m.entry(3, 1), m.entry(4, 1)])
        )
        x0, k = sol.particular.col(1)[::-1], sol.kernel_basis[0].col(1)[::-1]
        b1 = [x + y * t for x, y in zip(x0, k)]
        a_rows = [[FIELD.convert(x) for x in row] for row in a.to_lists()]
        b_rows = [[b1[i]] + [FIELD.convert(int(i == j)) for j in range(3)] for i in range(3)]
        column = b1
        chart = ExactMatrix([[sum(a.col(j)) for j in (1, 2, 3)], [0, 1, 0], [0, 0, 1]])
    else:
        hole = RING.gens[0]
        n_rows = [[hole, RING.convert(m.entry(2, 3)), RING.convert(m.entry(2, 4))]]
        n_rows += [[RING.convert(m.entry(i, j)) for j in (2, 3, 4)] for i in (3, 4)]
        rhs = [RING.convert(m.entry(1, j)) for j in (2, 3, 4)]
        den = FIELD.convert(det_cofactor(n_rows))
        a1 = [FIELD.convert(det_cofactor([rhs if i == j else n_rows[i] for i in range(3)])) / den
              for j in range(3)]
        a_rows = [a1] + [[FIELD.convert(int(i == j)) for j in range(3)] for i in range(3)]
        b_rows = [[FIELD.convert(m.entry(2, 1)), t, FIELD.convert(m.entry(2, 3)), FIELD.convert(m.entry(2, 4))]]
        b_rows += [[FIELD.convert(m.entry(i, j)) for j in (1, 2, 3, 4)] for i in (3, 4)]
        column = [row[1] for row in b_rows]
        chart = ExactMatrix([[1, 1, 1], [1, 0, 0], [0, 1, 0]])
    w, y, z = (sum((g * x for g, x in zip(row, column) if g), FIELD.zero) for row in chart.to_lists())
    return RationalFunctionFamily(a_rows, b_rows, (y / w, z / w), chart)


def rf_matrix_at(rows, t) -> ExactMatrix:
    """A matrix over QQ(t) at t; ZeroDivisionError at a pole."""
    return ExactMatrix([[rf_at(x, t) for x in row] for row in rows])


def rf_roots(rf) -> list:
    """Rational roots of the numerator and of the denominator of rf."""
    return rational_roots(rf.numer) + rational_roots(rf.denom)


def _rf_orient(u, w, p):
    """orient(u, w, p(t)) as a chain of sums in QQ(t)."""
    return (w[0] - u[0]) * (p[1] - u[1]) - (w[1] - u[1]) * (p[0] - u[0])


def critical_ts_by_rational_functions(fam, ref: RationalFunctionFamily) -> list:
    """The critical t of a NestedFamily, every incidence built in QQ(t)
    (each sum in lowest terms) on the rebuilt family ``ref`` and the
    roots of its numerator and denominator collected."""
    crit = set()
    for rows in (ref.a_of_t, ref.b_of_t):
        for row in rows:
            for entry in row:
                crit.update(rf_roots(entry))
    if fam.tag == "11_21":
        p1 = ref.moving_vertex
        fixed = list(fam.fixed_inner_points) + list(fam.fixed_outer.vertices)
        for u, w in itertools.combinations(fixed, 2):
            crit.update(rf_roots(_rf_orient(u, w, p1)))
        for hp in facets(fam.fixed_outer):
            crit.update(rf_roots(hp.c0 + hp.cx * p1[0] + hp.cy * p1[1]))
        return sorted(crit)
    b = ref.b_of_t
    col = [b[k][1] for k in range(3)]
    total = col[0] + col[1] + col[2]
    p2 = (col[0] / total, col[1] / total)
    a1 = ref.a_of_t[0]
    facet = (a1[2], a1[0] - a1[2], a1[1] - a1[2])
    fixed_pts = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    for j in (0, 2, 3):
        entries = [b[k][j] for k in range(3)]
        if not all(e.numer.is_ground and e.denom.is_ground for e in entries):
            continue
        vals = [rf_at(e, 0) for e in entries]
        if sum(vals) > 0:
            fixed_pts.append((vals[0] / sum(vals), vals[1] / sum(vals)))
    for u, w in itertools.combinations(fixed_pts, 2):
        crit.update(rf_roots(_rf_orient(u, w, p2)))
    for v in fixed_pts + [p2]:
        crit.update(rf_roots(facet[0] + facet[1] * v[0] + facet[2] * v[1]))
    m11 = a1[0] * b[0][0] + a1[1] * b[1][0] + a1[2] * b[2][0]
    crit.update(rf_roots(m11))
    return sorted(crit)


def feasible_by_rational_functions(m: PartialMatrix, ref: RationalFunctionFamily) -> list:
    """The feasible set of the family ``ref`` rebuilt from m: both hole
    entries of A(t).B(t), as sums in QQ(t), are >= 0."""
    holes = sorted(m.pattern.missing)
    entries = [sum((ref.a_of_t[i - 1][k] * ref.b_of_t[k][j - 1] for k in range(3)), FIELD.zero)
               for i, j in holes]
    return feasible_set_by_candidates(entries)


def line_by_rational_functions(ref: RationalFunctionFamily):
    """The line (c0, cx, cy) through two distinct positions of the rebuilt
    moving vertex at t = -3..3, or None when it takes at most one there
    (a vertex affine over affine in t then does not move)."""
    x, y = ref.moving_vertex
    points = []
    for t in range(-3, 4):
        if defined_at(x, t) and defined_at(y, t) and (rf_at(x, t), rf_at(y, t)) not in points:
            points.append((rf_at(x, t), rf_at(y, t)))
    if len(points) < 2:
        return None
    (x1, y1), (x2, y2) = points[:2]
    return (x1 * y2 - x2 * y1, y1 - y2, x2 - x1)


def limit_at_infinity(rf):
    """The limit of rf in QQ(t) as t -> +-infinity, or None when it
    diverges."""
    dn, dd = rf.numer.degree(), rf.denom.degree()
    if dn < dd:
        return Fraction(0)
    if dn == dd:
        return as_fraction(rf.numer.LC / rf.denom.LC)
    return None


# ---------------------------------------------------------------------------
# block-padded special case by explicit factor assembly


def special_case_by_block_factorization(m: PartialMatrix, r: int):
    """Block-padded completion when a fully observed row block (or column
    block) has small nonnegative rank.

    If rows I are fully observed with nonnegative rank k and
    p - |I| <= r - k, stack a size-k factorization on top of an identity
    block; missing entries outside I are filled with zero.  Returns the
    completion or None.
    """
    for transposed in (False, True):
        work = m.transpose() if transposed else m
        full_rows = [
            i
            for i in range(1, work.p + 1)
            if all(work.is_observed(i, j) for j in range(1, work.q + 1))
        ]
        for size in range(len(full_rows), 0, -1):
            for I in itertools.combinations(full_rows, size):
                k_max = r - (work.p - size)
                if k_max < 0:
                    continue
                block = work.observed_submatrix(list(I), range(1, work.q + 1))
                factors = _nonneg_factorization_upto(block, k_max)
                if factors is None:
                    continue
                a_blk, b_blk = factors
                completion = _assemble_block_completion(work, list(I), a_blk, b_blk)
                if transposed:
                    completion = completion.transpose()
                if not m.agrees_with(completion):
                    raise VerificationError("block-padded completion disagrees with m")
                return completion
    return None


def _nonneg_factorization_upto(block: ExactMatrix, k_max: int):
    """Nonnegative factorization of width <= min(k_max, 3), or None."""
    if k_max <= 0:
        return None
    ok, wit = nn_rank_at_most_3(block)
    if not ok:
        return None
    a, b = wit
    width = _essential_width(a, b)
    if width > k_max:
        return None
    keep = list(range(1, width + 1)) if width else [1]
    if width == 0:
        return ExactMatrix.zeros(a.p, 1), ExactMatrix.zeros(1, b.q)
    return a.submatrix(range(1, a.p + 1), keep), b.submatrix(keep, range(1, b.q + 1))


def _essential_width(a: ExactMatrix, b: ExactMatrix) -> int:
    """Number of leading factor columns actually used (the padded builders
    put zero columns last)."""
    used = 0
    for k in range(a.q, 0, -1):
        if any(x != 0 for x in a.col(k)) and any(x != 0 for x in b.row(k)):
            used = k
            break
    return used


def _assemble_block_completion(m: PartialMatrix, I, a_blk, b_blk) -> ExactMatrix:
    rest = [i for i in range(1, m.p + 1) if i not in I]
    k = a_blk.q
    width = k + len(rest)
    a_rows = []
    for i in range(1, m.p + 1):
        if i in I:
            row = list(a_blk.row(I.index(i) + 1)) + [Fraction(0)] * len(rest)
        else:
            row = [Fraction(0)] * k + [
                Fraction(1) if rest.index(i) == s else Fraction(0) for s in range(len(rest))
            ]
        a_rows.append(row)
    b_rows = [list(b_blk.row(s + 1)) for s in range(k)]
    for i in rest:
        b_rows.append(
            [
                m.get(i, j, Fraction(0))
                for j in range(1, m.q + 1)
            ]
        )
    return matmul(ExactMatrix(a_rows), ExactMatrix(b_rows))


# ---------------------------------------------------------------------------
# Fraction half-planes, edges and facets (the library keeps integer lines)


@dataclass(frozen=True)
class HalfPlane:
    """The set c0 + cx*x + cy*y >= 0, with Fraction coefficients."""

    c0: Fraction
    cx: Fraction
    cy: Fraction

    def __post_init__(self):
        for name in ("c0", "cx", "cy"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.cx == 0 and self.cy == 0:
            raise ValueError("half-plane normal must be nonzero")

    def value(self, p) -> Fraction:
        return self.c0 + self.cx * p[0] + self.cy * p[1]

    @classmethod
    def through(cls, a, b) -> "HalfPlane":
        """Half-plane whose boundary is the line a->b, left side included:
        its value at p is `orient(a, b, p)`."""
        return cls(a[0] * b[1] - a[1] * b[0], a[1] - b[1], b[0] - a[0])


def meet(l1, l2):
    """The point on the lines l1 and l2 (homogeneous triples), or None when
    they are parallel (or one of them is zero)."""
    w, x, y = cross(l1, l2)
    if w == 0:
        return None
    return (Fraction(x, w), Fraction(y, w))


def edges(poly: Polygon2) -> list:
    """The edges (a, b) of a polygon in counterclockwise order."""
    vs = poly.vertices
    return list(zip(vs, vs[1:] + vs[:1]))


def facets(poly: Polygon2) -> list:
    """The inward half-planes of a polygon of at least three vertices,
    one per edge, in edge order."""
    return [HalfPlane.through(a, b) for a, b in edges(poly)]


def slack_by_fractions(pair: NestedPair) -> list:
    """The rows of `geometry.slack_matrix` as Fraction half-plane values:
    Q's half-planes are the rows of the pair's charted A with a nonzero
    normal, or Q's facets for a pair without provenance, at P's
    generators, or its vertices."""
    if pair.provenance:
        hps = [HalfPlane(*(Fraction(c, d) for c in n)) for n, d in pair.provenance["a"] if n[1] or n[2]]
    else:
        hps = facets(pair.outer)
    gens = pair.inner_generators or pair.inner.vertices
    return [[hp.value(g) for g in gens] for hp in hps]


# ---------------------------------------------------------------------------
# the slice of a full matrix and its witness on Fraction matrices: two
# eliminations and a chart inverse for the pair, and the inverse of the
# triangle matrix for the witness


def _verify(ok: bool, what: str) -> None:
    if not ok:
        raise VerificationError(what)


def _slice_halfplane(row):
    """Row (c0, cx, cy) of A as the integer line of the half-plane c0 +
    cx*x + cy*y >= 0, the row times the lcm of its denominators, or None
    when the constraint is trivially satisfied (zero row, or a constraint
    whose normal vanishes and whose constant is nonnegative)."""
    c0, cx, cy = row
    if cx == 0 and cy == 0:
        if c0 < 0:
            raise ValueError(f"row {tuple(row)} is infeasible on the slice")
        return None
    return tuple(integer_scaled(row)[0])


def polytopes_by_fractions(a: ExactMatrix, b: ExactMatrix) -> NestedPair:
    """`geometry.polytopes_from_factorization` with the factors kept as
    Fraction matrices under the provenance keys "a" and "b"."""
    if a.q != 3 or b.p != 3:
        raise ValueError("factors must have inner dimension 3")
    gens = []
    for j in range(1, b.q + 1):
        w, y, z = b.col(j)
        if w == y == z == 0:
            continue
        if w <= 0:
            raise ValueError(f"column {j} of B has non-positive slice weight {w}")
        gens.append((y / w, z / w))
    lines = [line for line in map(_slice_halfplane, a.to_lists()) if line]
    outer = polygon_from_halfplanes(lines)  # may raise UnboundedRegionError
    inner = Polygon2.from_points(gens)
    # each generator as the pair keeps it: (d, x*d, y*d) for d the lcm of
    # the denominators of x and y, the triple in lowest terms
    triples = [(d, int(x * d), int(y * d)) for x, y in gens for d in [lcm(x.denominator, y.denominator)]]
    return NestedPair(inner, outer, triples, lines, {"a": a, "b": b})


def bounded_nested_pair_by_fractions(m: ExactMatrix) -> NestedPair:
    """The bounded nested pair of a nonnegative rank-3 matrix: m factored
    through three of its independent columns a0, in the chart of the
    column-sum functional of a0 (strictly positive on the cone of a0, so Q
    is bounded) completed to a basis by the first two unit vectors."""
    cols = pivot_columns(m)[:3]
    if len(cols) < 3:
        raise ValueError("matrix has rank below 3")
    a0 = m.submatrix(range(1, m.p + 1), cols)
    sol = solve_linear(a0, m)
    _verify(sol.consistent, "matrix outside the span of its independent columns")
    b0 = sol.particular
    _verify(matmul(a0, b0) == m, "column-basis factors do not multiply to the matrix")
    # the chart has rows (column sums, e1, e2) and determinant the third
    # column sum, positive because a0 is nonnegative with no zero column
    sums = [sum(a0.col(k)) for k in range(1, 4)]
    _verify(sums[2] > 0, "slice basis change is singular")
    chart = ExactMatrix([sums, [1, 0, 0], [0, 1, 0]])
    return polytopes_by_fractions(matmul(a0, inverse(chart)), matmul(chart, b0))


def triangle_to_factorization_by_fractions(pair: NestedPair, tri: Polygon2, m: ExactMatrix):
    """Convert a nested triangle of a pair built by
    polytopes_by_fractions (or bounded_nested_pair_by_fractions) back into a
    size-3 nonnegative factorization of m, the product of the pair's
    factors."""
    c = ExactMatrix([[1, 1, 1]] + [[v[0] for v in tri.vertices], [v[1] for v in tri.vertices]])
    # columns of c are the lifted triangle vertices (1, x, y); a zero
    # column of the pair's B, which gave no point, lifts to zero
    a_w = matmul(pair.provenance["a"], c)
    b_w = matmul(inverse(c), pair.provenance["b"])
    _verify(a_w.is_nonnegative(), "triangle not inside Q")
    _verify(b_w.is_nonnegative(), "P not inside triangle")
    _verify(matmul(a_w, b_w) == m, "witness factors do not multiply to the matrix")
    return a_w, b_w


# ---------------------------------------------------------------------------
# Fraction kernels of the triangle search


def matmul_by_fractions(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The matrix product with every entry a sum of Fraction products."""
    if a.q != b.p:
        raise ValueError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    bt = b.transpose().to_lists()
    return ExactMatrix(
        [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a.to_lists()]
    )


def chord_exit_by_fractions(v, towards, outer: Polygon2):
    """Farthest point of outer on the ray v + s*(towards - v), s >= 0: the
    least exit bound fv / (fv - ft) over the facets, each facet value a
    Fraction."""
    if v == towards:
        raise ValueError("undirected chord")
    hi = None
    for hp in facets(outer):
        fv = hp.value(v)
        ft = hp.value(towards)
        slope = ft - fv
        if slope >= 0:
            continue
        bound = fv / (-slope)
        if hi is None or bound < hi:
            hi = bound
    if hi is None:
        raise ValueError("ray never leaves the polygon; outer must be bounded")
    d = (towards[0] - v[0], towards[1] - v[1])
    return (v[0] + hi * d[0], v[1] + hi * d[1])


def nested_triangle_by_fractions(pair: NestedPair):
    """`geometry.nested_triangle` with every point a pair of Fractions.

    The same anchors in the same order: sides on the lines of P's edges,
    then chains from the vertices of Q outside P.  The tangent tests both
    neighbours by `orient` and takes the farthest candidate, the exit is
    `chord_exit_by_fractions`, the closing point a `meet` of two `join`s,
    and a candidate is kept when `verify_triangle` passes."""
    inner, outer = pair.inner, pair.outer
    if not all(contains_point_by_edges(outer, p) for p in inner.vertices):
        raise ValueError("inner polygon is not contained in the outer polygon")
    if inner.n == 3:
        return inner
    if outer.n == 3:
        return outer
    vs, n = inner.vertices, inner.n

    def tangent(v):
        found = [t for i, t in enumerate(vs)
                 if t != v and orient(v, t, vs[i - 1]) >= 0 and orient(v, t, vs[(i + 1) % n]) >= 0]
        return max(found, key=lambda t: (t[0] - v[0]) ** 2 + (t[1] - v[1]) ** 2, default=None)

    def advance(v):
        t = tangent(v)
        w = t and chord_exit_by_fractions(v, t, outer)
        return None if w == v else w

    def verified(candidate):
        if orient(*candidate) == 0:
            return None
        tri = Polygon2.triangle(*candidate)
        return tri if verify_triangle(pair, tri) else None

    for a, b in zip(vs, vs[1:] + vs[:1]):
        v1 = chord_exit_by_fractions(a, b, outer)
        v2 = advance(v1)
        t3 = v2 and tangent(v2)
        x = t3 and meet(join(v2, t3), join(a, v1))
        tri = x and verified((v1, v2, x))
        if tri is not None:
            return tri
    for q in outer.vertices:
        if contains_point_by_edges(inner, q):
            continue
        v1 = advance(q)
        v2 = v1 and advance(v1)
        tri = v2 and verified((q, v1, v2))
        if tri is not None:
            return tri
    return None


def polygon_from_halfplanes_by_fractions(lines) -> Polygon2:
    """Bounded intersection of the half-planes of integer lines: a rotated
    normal that every normal meets at a nonnegative angle is a recession
    direction, printed as integers; the vertices are the pairwise line
    intersections by Cramer's rule that satisfy every half-plane, all in
    Fraction arithmetic, and a region whose hull has fewer than three of
    them is refused."""
    lines = list(lines)
    hps = [HalfPlane(*line) for line in lines]
    if not hps:
        raise UnboundedRegionError("no constraints")
    for _, cx, cy in lines:
        for d in ((-cy, cx), (cy, -cx)):
            if all(h.cx * d[0] + h.cy * d[1] >= 0 for h in hps):
                raise UnboundedRegionError(f"region is unbounded in direction {d}")
    verts = []
    for i, a in enumerate(hps):
        for b in hps[i + 1:]:
            denom = a.cx * b.cy - a.cy * b.cx
            if denom == 0:
                continue
            p = ((-a.c0 * b.cy + b.c0 * a.cy) / denom, (-a.cx * b.c0 + b.cx * a.c0) / denom)
            if all(h.value(p) >= 0 for h in hps):
                verts.append(p)
    if not verts or len(convex_hull(verts)) < 3:
        raise ValueError("intersection of half-planes is empty, a point or a segment")
    return Polygon2.from_points(verts)


# ---------------------------------------------------------------------------
# point in polygon and the 11_21 helpers by edge-wise `side` tests


def contains_point_by_edges(poly: Polygon2, p) -> bool:
    """p on the closed left of every edge of a counterclockwise polygon
    with at least three vertices, one `side` test per edge."""
    vs, n = poly.vertices, poly.n
    return all(side(vs[i], vs[(i + 1) % n], p) >= 0 for i in range(n))


def boundary_intersections(poly: Polygon2, a, b) -> list:
    """All points where the infinite line a-b meets the boundary of poly:
    the edge ends on the line and the crossings of edges whose ends lie
    on opposite sides."""
    if a == b:
        return []
    line = join(a, b)
    out = []
    for (e1, e2) in edges(poly):
        o1 = side(a, b, e1)
        o2 = side(a, b, e2)
        if o1 == 0:
            out.append(e1)
        if o2 == 0:
            out.append(e2)
        if (o1 > 0 > o2) or (o1 < 0 < o2):
            out.append(meet(line, join(e1, e2)))
    return list(dict.fromkeys(out))


def sweep_candidates_by_edges(fam) -> set:
    """`family.sweep_candidates`, with each chord's ends on the outer
    boundary found by `boundary_intersections`."""
    line = fam.line_p1
    outer = fam.fixed_outer
    fixed_pts = list(fam.fixed_inner_points)
    candidates = {meet(line, join(u, w)) for u, w in itertools.combinations(fixed_pts + outer.vertices, 2)}
    level1 = set()
    for qv in outer.vertices:
        for pv in fixed_pts:
            level1.update(boundary_intersections(outer, qv, pv))
    level2 = set()
    for x in level1:
        for pv in fixed_pts:
            level2.update(boundary_intersections(outer, x, pv))
    for x in level1 | level2:
        for pv in fixed_pts:
            candidates.add(meet(line, join(x, pv)))
    candidates.discard(None)
    return candidates


def sweep_refutes_by_arc(fam, iv) -> bool:
    """The `11_21` sweep over one feasible interval in point space.

    The arc runs from the moving vertex at ``iv.lo`` to the vertex at
    ``iv.hi`` along ``fam.line_p1``, and an infinite bound ends it at the
    vertex's limit (the point of v1), which no t attains and which is not
    probed.  The candidates of `sweep_candidates_by_edges` on the arc,
    ordered by a dot product along it, and the midpoints between them are
    probed; a probe outside the outer polygon is skipped.  False (not
    refuted) when the line is no facet line of the outer polygon, when an
    end is a pole or diverges, and when the arc is a single point."""
    line = fam.line_p1
    outer = fam.fixed_outer
    if line is None or all(any(cross((hp.c0, hp.cx, hp.cy), line)) for hp in facets(outer)):
        return False
    (w0, y0, z0), (w1, y1, z1) = fam.moving_vertex
    if w1:
        limit = (Fraction(y1) / w1, Fraction(z1) / w1)
    else:
        limit = tuple(None if c1 else Fraction(c0) / w0 for c0, c1 in ((y0, y1), (z0, z1)))
    try:
        e0, e1 = (limit if bound is None else fam.vertex_at(bound) for bound in (iv.lo, iv.hi))
    except ZeroDivisionError:
        return False
    if None in e0 + e1 or e0 == e1:
        return False
    d = (e1[0] - e0[0], e1[1] - e0[1])

    def along(p):
        return (p[0] - e0[0]) * d[0] + (p[1] - e0[1]) * d[1]

    span = along(e1)
    on_arc = sorted((c for c in sweep_candidates_by_edges(fam) | {e0, e1} if 0 <= along(c) <= span), key=along)
    probes = []
    for a, b in zip(on_arc, on_arc[1:]):
        probes += [a, ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)]
    probes.append(on_arc[-1])
    unattained = [e for e, bound in ((e0, iv.lo), (e1, iv.hi)) if bound is None]
    for c in probes:
        if c in unattained:
            continue
        inner = Polygon2.from_points([c, *fam.fixed_inner_points])
        if contains(outer, inner) and nested_triangle(NestedPair(inner, outer)) is not None:
            return False
    return True


def solve_moving_vertex(fam, target):
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


def sufficient_11_21_by_meets(fam):
    """`family.sufficient_11_21` by meeting the moving vertex's line with
    each edge line of the fixed triangle, then solving for the t that puts
    the vertex at that point."""
    if fam.line_p1 is None:
        return None
    p2, p3, p4 = fam.fixed_inner_points
    for (u, v) in ((p2, p3), (p3, p4), (p4, p2)):
        cand = meet(fam.line_p1, join(u, v))
        if cand is None or not contains_point_by_edges(fam.fixed_outer, cand):
            continue
        t = solve_moving_vertex(fam, cand)
        if t is not None and fam.is_feasible(t):
            return t
    return None


# ---------------------------------------------------------------------------
# the 11_22 search order, built in full before any t is tried


def search_order_eager(fam, samples: list) -> list:
    """Every sample with a simplicial outer cone, then every other sample,
    both in sample order."""
    simplicial = [t for t in samples if simplicial_sign_check(fam, t)]
    return simplicial + [t for t in samples if t not in simplicial]


# ---------------------------------------------------------------------------
# the poles of an 11_22 family, each ruled out by solving its linear system


def poles_of_11_22(ref: RationalFunctionFamily) -> list:
    """The nonnegative rational poles of the solved first row of A, on the
    rebuilt family ``ref``."""
    return sorted({t0 for rf in ref.a_of_t[0] for t0 in rational_roots(rf.denom) if t0 >= 0})


def poles_ruled_out_by_solve(m: PartialMatrix, ref: RationalFunctionFamily) -> bool:
    """Whether no completion lives at a nonnegative pole t0 of the 11_22
    family ``ref`` rebuilt from m: at each, the system a1 . N(t0) = (m12,
    m13, m14) for the first row a1 of A, with N(t0) columns 2..4 of the
    family's B(t0), is inconsistent.  The library skips this solve,
    because rows 1, 3, 4 of columns 2..4 having rank 3 already make it
    inconsistent."""
    rhs = ExactMatrix.column([m.entry(1, 2), m.entry(1, 3), m.entry(1, 4)])
    b = ref.b_of_t
    for t0 in poles_of_11_22(ref):
        n_t = ExactMatrix([[rf_at(b[k][j], t0) for k in range(3)] for j in (1, 2, 3)])
        if solve_linear_gauss_jordan(n_t, rhs).consistent:
            return False
    return True


# ---------------------------------------------------------------------------
# the determinant curve of a two-hole 4x4 matrix, on a grid of hole values


CURVE_GRID = [0] + [2**k for k in range(0, 49, 4)]


def curve_meets_quadrant_on_grid(m: PartialMatrix) -> bool:
    """Whether the determinant, as the two holes range over the grid
    {0} u {2^k : k = 0, 4, ..., 48}, is 0 somewhere or takes both signs:
    then it vanishes somewhere in the closed quadrant of hole values.
    Integer entries stay Python ints, which keeps the 169 cofactor
    expansions cheap."""
    (i1, j1), (i2, j2) = sorted(m.pattern.missing)
    base = [[m.get(i, j, Fraction(0)) for j in range(1, 5)] for i in range(1, 5)]
    base = [[x.numerator if x.denominator == 1 else x for x in row] for row in base]
    signs = set()
    for s, h in itertools.product(CURVE_GRID, repeat=2):
        rows = [list(row) for row in base]
        rows[i1 - 1][j1 - 1], rows[i2 - 1][j2 - 1] = s, h
        d = det_cofactor(rows)
        signs.add((d > 0) - (d < 0))
    return 0 in signs or signs == {-1, 1}


# ---------------------------------------------------------------------------
# the two-hole decision run whole in each orientation


def decide_two_missing_per_orientation(m: PartialMatrix) -> Nn3Certificate:
    """The two-hole decision with every stage run in each orientation: the
    zero fill, the family, the curve (on the hole grid) only when there is
    no family or its feasible set is empty, then the family stages; an
    11_22 Unknown reruns all of it on the transpose.  The family stages
    are the library's; the completion and the witness are mapped back to
    the caller's orientation by index lists, not by the library."""
    canon, norm = normalize_two_missing(m)
    cert, transposed = _decide_one_orientation(canon, norm.tag), norm.transposed
    if cert.verdict == "Unknown" and norm.tag == "11_22":
        canon_t, norm_t = normalize_two_missing(m.transpose())
        flipped = _decide_one_orientation(canon_t, norm_t.tag)
        if flipped.verdict != "Unknown":
            # m was transposed before normalizing: one more transposition
            cert, norm, transposed = flipped, norm_t, not norm_t.transposed

    def original(mat: ExactMatrix, row_perm, col_perm) -> ExactMatrix:
        rows = mat.to_lists()
        out = [[None] * len(col_perm) for _ in row_perm]
        for i, r in enumerate(row_perm):
            for j, c in enumerate(col_perm):
                out[r - 1][c - 1] = rows[i][j]
        return ExactMatrix(out)

    completion, witness = cert.completion, cert.witness
    if completion is not None:
        completion = original(completion, norm.row_perm, norm.col_perm)
    if witness is not None:
        witness = (original(witness[0], norm.row_perm, (1, 2, 3)),
                   original(witness[1], (1, 2, 3), norm.col_perm))
    if transposed:
        completion = None if completion is None else completion.transpose()
        witness = None if witness is None else (witness[1].transpose(), witness[0].transpose())
    return Nn3Certificate(cert.verdict, cert.pattern, cert.t_star, completion, witness, cert.triangle,
                          cert.envelope, cert.envelope_t, cert.samples)


def _decide_one_orientation(canon: PartialMatrix, tag: str) -> Nn3Certificate:
    """Every stage on one canonical instance, in the canonical orientation."""
    filled = canon.complete_with({hole: 0 for hole in canon.pattern.missing})
    ok, witness = nn_rank_at_most_3(filled)
    if ok:
        return Nn3Certificate("Completable", tag, completion=filled, witness=witness)
    try:
        fam = family_11_21(canon) if tag == "11_21" else family_11_22(canon)
    except FamilyError:
        fam = None
    if fam is None or not fam.feasible:
        return Nn3Certificate("Unknown" if curve_meets_quadrant_on_grid(canon) else "NotCompletable", tag)
    return _family_stages(canon, tag)


# ---------------------------------------------------------------------------
# the separate rank-1 and rank-2 builders


def nonneg_rank1_factors(m: ExactMatrix):
    """(u, v) nonnegative with u v^T = m, for a nonnegative rank-<=1 m: u is
    the first nonzero column and v the first row through it, divided by
    that column's first nonzero entry."""
    j0 = next((j for j in range(1, m.q + 1) if any(x != 0 for x in m.col(j))), None)
    if j0 is None:
        return [Fraction(0)] * m.p, [Fraction(0)] * m.q
    u = m.col(j0)
    i0 = next(i for i in range(1, m.p + 1) if m.entry(i, j0) != 0)
    v = [m.entry(i0, j) / m.entry(i0, j0) for j in range(1, m.q + 1)]
    return u, v


def nonneg_rank2_factorization(m: ExactMatrix):
    """Nonnegative (A, B) with A p x 2, B 2 x q and A.B = m, for a
    nonnegative rank-2 m: the extreme normalized columns, then one solve
    per nonzero column."""
    nz = [j for j in range(1, m.q + 1) if any(x != 0 for x in m.col(j))]
    cols = {j: m.col(j) for j in nz}
    normalized = {j: [x / sum(cols[j]) for x in cols[j]] for j in nz}
    j_a = nz[0]
    j_b = next(j for j in nz if normalized[j] != normalized[j_a])
    d = [x - y for x, y in zip(normalized[j_b], normalized[j_a])]

    def param(j):
        return sum((x - y) * dz for x, y, dz in zip(normalized[j], normalized[j_a], d))

    lo, hi = min(nz, key=param), max(nz, key=param)
    a_mat = ExactMatrix([[normalized[lo][i], normalized[hi][i]] for i in range(m.p)])
    b_rows = [[Fraction(0)] * m.q for _ in range(2)]
    for j in nz:
        sol = solve_linear_gauss_jordan(a_mat, ExactMatrix.column(cols[j]))
        b_rows[0][j - 1], b_rows[1][j - 1] = sol.particular.col(1)
    return a_mat, ExactMatrix(b_rows)


def low_rank_witness_by_builders(m: ExactMatrix):
    """The witness of a nonnegative rank-<=2 m from the separate builders,
    padded to inner dimension 3 with zero columns of A and zero rows of B."""
    r = rank_by_minors(m)
    if r == 0:
        return ExactMatrix.zeros(m.p, 3), ExactMatrix.zeros(3, m.q)
    if r == 1:
        u, v = nonneg_rank1_factors(m)
        a, b = ExactMatrix.column(u), ExactMatrix.row_vector(v)
    else:
        a, b = nonneg_rank2_factorization(m)
    return a.hstack(ExactMatrix.zeros(m.p, 3 - a.q)), b.vstack(ExactMatrix.zeros(3 - b.p, m.q))
