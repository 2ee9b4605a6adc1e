"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written differently from the package:
naive cofactor expansions, brute-force enumeration, string-parsed
polynomial transcriptions, float NMF — so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from nncomplete import (
    CompletionOutcome,
    ExactMatrix,
    FamilyError,
    Interval,
    LinearSolution,
    Nn3Certificate,
    PartialMatrix,
    Poly,
    RationalFunction,
    VerificationError,
    cycle_property,
    det,
    family_11_21,
    family_11_22,
    matmul,
    nn_rank_at_most_3,
    normalize_two_missing,
    simplicial_sign_check,
    support_graph,
    zero_entries_line_consistent,
)
from nncomplete.family import _family_stages
from nncomplete.geometry import HalfPlane, NestedPair, Polygon2, Triangle, UnboundedRegionError, contains
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
    x = Poly.x()
    rows = []
    for i in range(1, m.p + 1):
        row = []
        for j in range(1, m.q + 1):
            row.append(x if (i, j) == hole else Poly([m.entry(i, j)]))
        rows.append(row)
    minors = []
    for rsel in itertools.combinations(range(m.p), r + 1):
        for csel in itertools.combinations(range(m.q), r + 1):
            sub = [[rows[i][j] for j in csel] for i in rsel]
            minors.append(det_cofactor(sub))
    if all(p.is_zero() for p in minors):
        return "infinite", None
    # each minor is affine in the hole value; intersect the root sets
    candidates = None
    for p in minors:
        if p.is_zero():
            continue
        if p.is_constant():
            return "none", None
        roots = set(p.rational_roots())
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
    free = len(graph.components(nonzero_only=True)) - 1
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
    return Triangle(*corners)


def verify_triangle(pair: NestedPair, tri: Triangle) -> bool:
    return tri.contains_polygon(pair.inner) and contains(
        pair.outer, tri.as_polygon()
    )


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
    """The feasible set of rational-function constraints built in passes:
    keep each candidate interval between consecutive boundary points whose
    interior probe is feasible (or that hides an irrational root), closed
    at its feasible ends; then admit the feasible boundary points no kept
    interval contains; then sort and join intervals that share a closed
    end."""
    bounds = set()
    for rf in constraints:
        for p in (rf.num, rf.den):
            if not (p.is_zero() or p.is_constant()):
                for a, b in p.isolate_real_roots():
                    bounds.update((a, b))
    bounds = sorted(bounds)
    edges = [None] + bounds + [None]
    candidates = list(zip(edges, edges[1:]))

    def ok(t):
        return all(rf.den(t) != 0 and rf(t) >= 0 for rf in constraints)

    def hides_root(lo, hi):
        return any(
            p.count_roots(lo, hi) - (1 if p(hi) == 0 else 0) > 0
            for rf in constraints
            for p in (rf.num, rf.den)
            if not (p.is_zero() or p.is_constant())
        )

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
# a two-hole family rebuilt over RationalFunction entries


@dataclass
class RationalFunctionFamily:
    """A(t), B(t) and the moving vertex (x(t), y(t)) of a two-hole family
    as RationalFunction matrices, each entry reduced by its own gcd."""

    a_of_t: list
    b_of_t: list
    moving_vertex: tuple


def _rf(x) -> RationalFunction:
    return x if isinstance(x, RationalFunction) else RationalFunction.constant(Fraction(x))


def rational_function_family(fam) -> RationalFunctionFamily:
    """The factors and the moving vertex of a NestedFamily rebuilt from
    ``fam.source`` as the library built them before its pencils: for
    11_21, b1 = x0 + t*k from a Gauss-Jordan solve of rows 3-4 with the
    columns reversed; for 11_22, the first row of A by Cramer's rule over
    cofactor determinants of Poly entries; and the vertex as
    RationalFunction sums and quotients over the family's chart."""
    m = fam.source
    if fam.tag == "11_21":
        a = m.observed_submatrix([1, 2, 3, 4], [2, 3, 4])
        sol = solve_linear_gauss_jordan(
            m.observed_submatrix([3, 4], [4, 3, 2]), ExactMatrix.column([m.entry(3, 1), m.entry(4, 1)])
        )
        x0, k = sol.particular.col(1)[::-1], sol.kernel_basis[0].col(1)[::-1]
        b1 = [RationalFunction(Poly([x, y])) for x, y in zip(x0, k)]
        a_rows = [[_rf(x) for x in row] for row in a.to_lists()]
        b_rows = [[b1[i]] + [_rf(int(i == j)) for j in range(3)] for i in range(3)]
        column = b1
    else:
        t = Poly.x()
        n_rows = [[t, Poly([m.entry(2, 3)]), Poly([m.entry(2, 4)])]]
        n_rows += [[Poly([m.entry(i, j)]) for j in (2, 3, 4)] for i in (3, 4)]
        rhs = [Poly([m.entry(1, j)]) for j in (2, 3, 4)]
        den = det_cofactor(n_rows)
        a1 = [RationalFunction(det_cofactor([rhs if i == j else n_rows[i] for i in range(3)]), den)
              for j in range(3)]
        a_rows = [a1] + [[_rf(int(i == j)) for j in range(3)] for i in range(3)]
        b_rows = [[_rf(m.entry(2, 1)), RationalFunction(t), _rf(m.entry(2, 3)), _rf(m.entry(2, 4))]]
        b_rows += [[_rf(m.entry(i, j)) for j in (1, 2, 3, 4)] for i in (3, 4)]
        column = [row[1] for row in b_rows]
    w, y, z = (sum((g * x for g, x in zip(row, column) if g), _rf(0)) for row in fam.chart.to_lists())
    return RationalFunctionFamily(a_rows, b_rows, (y / w, z / w))


def rf_matrix_at(rows, t) -> ExactMatrix:
    """A RationalFunction matrix at t; ZeroDivisionError at a pole."""
    return ExactMatrix([[x(t) for x in row] for row in rows])


def rf_roots(rf: RationalFunction) -> list:
    """Rational roots of the numerator and of the denominator of rf."""
    out = []
    if not rf.num.is_zero() and not rf.num.is_constant():
        out.extend(rf.num.rational_roots())
    if not rf.den.is_constant():
        out.extend(rf.den.rational_roots())
    return out


def _rf_orient(u, w, p) -> RationalFunction:
    """orient(u, w, p(t)) as a chain of RationalFunction sums."""
    dx = RationalFunction.constant(w[0] - u[0])
    dy = RationalFunction.constant(w[1] - u[1])
    return dx * (p[1] - u[1]) - dy * (p[0] - u[0])


def critical_ts_by_rational_functions(fam) -> list:
    """The critical t of a NestedFamily, every incidence built as a
    RationalFunction (each sum reduced by its own gcd) on the rebuilt
    family and the roots of its numerator and denominator collected."""
    ref = rational_function_family(fam)
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
        for hp in fam.fixed_outer.facets():
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
        if not all(e.is_constant() for e in entries):
            continue
        vals = [e(0) for e in entries]
        if sum(vals) > 0:
            fixed_pts.append((vals[0] / sum(vals), vals[1] / sum(vals)))
    for u, w in itertools.combinations(fixed_pts, 2):
        crit.update(rf_roots(_rf_orient(u, w, p2)))
    for v in fixed_pts + [p2]:
        crit.update(rf_roots(facet[0] + facet[1] * v[0] + facet[2] * v[1]))
    m11 = a1[0] * b[0][0] + a1[1] * b[1][0] + a1[2] * b[2][0]
    crit.update(rf_roots(m11))
    return sorted(crit)


def feasible_by_rational_functions(fam) -> list:
    """The feasible set of the rebuilt family: both hole entries of
    A(t).B(t), as RationalFunction sums, are >= 0."""
    ref = rational_function_family(fam)
    holes = sorted(fam.source.pattern.missing)
    entries = [sum((ref.a_of_t[i - 1][k] * ref.b_of_t[k][j - 1] for k in range(3)), _rf(0)) for i, j in holes]
    return feasible_set_by_candidates(entries)


def line_by_rational_functions(fam):
    """The line (c0, cx, cy) through two distinct positions of the rebuilt
    moving vertex at t = -3..3, or None when it takes at most one there
    (a vertex affine over affine in t then does not move)."""
    x, y = rational_function_family(fam).moving_vertex
    points = []
    for t in range(-3, 4):
        if x.defined_at(t) and y.defined_at(t) and (x(t), y(t)) not in points:
            points.append((x(t), y(t)))
    if len(points) < 2:
        return None
    (x1, y1), (x2, y2) = points[:2]
    return (x1 * y2 - x2 * y1, y1 - y2, x2 - x1)


def limit_at_infinity(rf: RationalFunction):
    """The limit of rf as t -> +-infinity, or None when it diverges."""
    dn, dd = rf.num.degree, rf.den.degree
    if dn < dd:
        return Fraction(0)
    if dn == dd:
        return rf.num.leading() / rf.den.leading()
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
    for hp in outer.facets():
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


def polygon_from_halfplanes_by_fractions(halfplanes) -> Polygon2:
    """Bounded intersection of half-planes: a rotated normal that every
    normal meets at a nonnegative angle is a recession direction; the
    vertices are the pairwise line intersections by Cramer's rule that
    satisfy every half-plane, all in Fraction arithmetic."""
    hps = list(halfplanes)
    if not hps:
        raise UnboundedRegionError("no constraints")
    for hp in hps:
        for d in ((-hp.cy, hp.cx), (hp.cy, -hp.cx)):
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
    if not verts:
        raise ValueError("intersection of half-planes is empty")
    return Polygon2.from_points(verts)


# ---------------------------------------------------------------------------
# the 11_22 search order, built in full before any t is tried


def search_order_eager(fam, samples: list) -> list:
    """Every sample with a simplicial outer cone, then every other sample,
    both in sample order."""
    simplicial = [t for t in samples if simplicial_sign_check(fam, t)]
    return simplicial + [t for t in samples if t not in simplicial]


# ---------------------------------------------------------------------------
# the poles of an 11_22 family, each ruled out by solving its linear system


def poles_of_11_22(fam) -> list:
    """The nonnegative rational poles of the solved first row of A, on the
    rebuilt family."""
    a1 = rational_function_family(fam).a_of_t[0]
    return sorted({t0 for rf in a1 for t0 in rf.den.rational_roots() if t0 >= 0})


def poles_ruled_out_by_solve(fam) -> bool:
    """Whether no completion lives at a nonnegative pole t0 of an 11_22
    family: at each, the system a1 . N(t0) = (m12, m13, m14) for the
    first row a1 of A, with N(t0) columns 2..4 of the family's B(t0), is
    inconsistent.  The library skips this solve, because rows 1, 3, 4 of
    columns 2..4 having rank 3 already make it inconsistent."""
    m = fam.source
    rhs = ExactMatrix.column([m.entry(1, 2), m.entry(1, 3), m.entry(1, 4)])
    b = rational_function_family(fam).b_of_t
    for t0 in poles_of_11_22(fam):
        n_t = ExactMatrix([[b[k][j](t0) for k in range(3)] for j in (1, 2, 3)])
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
    return replace(cert, completion=completion, witness=witness)


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
