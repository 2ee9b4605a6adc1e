"""Exact planar geometry for nonnegative rank certificates.

A rank-3 factorization M = A.B of a nonnegative matrix yields nested
convex bodies: the polygon P spanned by the sliced columns of B inside the
polygon Q cut out by the rows of A.  M has nonnegative rank at most 3
exactly when a triangle fits between them; the search below enumerates
anchored candidates (a vertex of the triangle at a vertex of Q, or a side
containing an edge of P), which is sufficient.

All coordinates are Fractions and every predicate is exact.  A line is
a homogeneous triple (c0, cx, cy), the points (x, y) with c0 + cx*x +
cy*y = 0, and its half-plane is the side c0 + cx*x + cy*y >= 0; every
line the module keeps is an integer triple.  One cross product answers
both line questions: `join` is the line through two points and `cross`
of two lines is their meeting point in homogeneous coordinates.  No
other code writes out a line formula.

The kernels compute on Python integers.  A point (x, y) lifts to the
integer triple (w, x*w, y*w) in lowest terms with w > 0; `Polygon2`
lifts its vertices once and keeps each edge's integer line, positive
inside, and `side` is the sign of one determinant of lifted points.
Inside `nested_triangle` every point is a triple, and a Fraction is
built only for the triangle it returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .linalg import ExactMatrix, integer_scaled, inverse, matmul, pivot_columns, rank
from .linalg import solve_linear, to_fraction

Point = tuple  # (Fraction, Fraction)


class UnboundedRegionError(ValueError):
    """The intersection of half-planes has a nontrivial recession cone."""


class VerificationError(AssertionError):
    """An exact re-verification of a constructed answer failed.

    Deliberately not a ValueError: callers that treat ValueError as "this
    input is out of reach" must never swallow a wrong answer.
    """


def _verify(ok: bool, what: str) -> None:
    if not ok:
        raise VerificationError(what)


def _lift(p: Point) -> tuple:
    """The integer triple (w, x, y), in lowest terms with w > 0, of the
    point p = (x/w, y/w) of Fractions or ints."""
    xn, xd = p[0].as_integer_ratio()
    yn, yd = p[1].as_integer_ratio()
    g = gcd(xd, yd)
    return (xd // g * yd, xn * (yd // g), yn * (xd // g))


def _normalized(w, x, y):
    """The point (w, x, y) in lowest terms with w > 0, or None when w = 0."""
    if not w:
        return None
    g = gcd(w, x, y) if w > 0 else -gcd(w, x, y)
    return (w // g, x // g, y // g)


def _point(p: tuple) -> Point:
    return (Fraction(p[1], p[0]), Fraction(p[2], p[0]))


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _within(lines, points) -> bool:
    return all(_dot(line, p) >= 0 for line in lines for p in points)


def side(a: Point, b: Point, c: Point) -> int:
    """Sign of the signed area of (a, b, c): 1 left of a->b, -1 right, 0 on the line.

    Coordinates may be Fractions or ints.  The determinant of the lifted
    points is the signed area times w_a*w_b*w_c > 0."""
    d = _dot(_lift(a), cross(_lift(b), _lift(c)))
    return (d > 0) - (d < 0)


def cross(u, v) -> tuple:
    """The cross product of two 3-vectors of ints or Fractions."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def join(a: Point, b: Point) -> tuple:
    """The line (c0, cx, cy) through a and b, with the side left of a->b
    positive: c0 + cx*x + cy*y is twice the signed area of (a, b, (x, y)).
    Zero when a == b."""
    return cross((1, *a), (1, *b))


def convex_hull(points) -> list:
    """Counterclockwise hull with strictly convex vertices.

    Collinear input collapses to the two extreme points; coincident input
    to a single point.
    """
    pts = sorted(set((to_fraction(x), to_fraction(y)) for (x, y) in points))
    if not pts:
        raise ValueError("need at least one point")
    if len(pts) == 1:
        return pts
    lifted = [(p, _lift(p)) for p in pts]

    def chain(seq):  # one half of the hull, without its last point
        out = []
        for p in seq:
            while len(out) >= 2 and _dot(out[-2][1], cross(out[-1][1], p[1])) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    hull = [p for p, _ in chain(lifted) + chain(reversed(lifted))]
    if len(hull) == 2 and hull[0] == hull[1]:
        return hull[:1]
    return hull


class Polygon2:
    """Convex polygon with counterclockwise, strictly convex vertex list.

    Degenerate cases are allowed: a single point or a segment (two
    vertices).  ``triples`` are the lifted vertices and ``lines`` the
    edges' integer lines, positive inside (none below three vertices).
    """

    def __init__(self, vertices):
        vs = [(to_fraction(x), to_fraction(y)) for (x, y) in vertices]
        if not vs:
            raise ValueError("polygon needs at least one vertex")
        # lists: CPython keeps a tuple built from an iterator on the free list
        # of its final size, not its first, and peak memory crept upwards
        ts = [_lift(p) for p in vs]
        n = len(vs)
        lines = [cross(ts[i], ts[(i + 1) % n]) for i in range(n)] if n >= 3 else []
        # each vertex is strictly left of the next edge; the three turns
        # of a triangle are one signed area
        if lines and any(_dot(lines[i], ts[i - 1]) <= 0 for i in range(1 if n == 3 else n)):
            raise ValueError("vertices must be strictly convex and counterclockwise")
        if n == 2 and vs[0] == vs[1]:
            raise ValueError("duplicate vertices")
        self.vertices, self.triples, self.lines = vs, ts, lines

    @classmethod
    def from_points(cls, points) -> "Polygon2":
        return cls(convex_hull(points))

    @classmethod
    def triangle(cls, a: Point, b: Point, c: Point) -> "Polygon2":
        """The triangle on a, b, c, counterclockwise from a; ValueError
        when the three points are collinear."""
        a, b, c = ((to_fraction(x), to_fraction(y)) for (x, y) in (a, b, c))
        return cls([a, b, c] if side(a, b, c) >= 0 else [a, c, b])

    @property
    def n(self) -> int:
        return len(self.vertices)

    def is_degenerate(self) -> bool:
        return self.n < 3

    def contains_point(self, p: Point) -> bool:
        p = (to_fraction(p[0]), to_fraction(p[1]))
        if self.n < 3:  # on the point or segment: on its line and in its box
            a, b = self.vertices[0], self.vertices[-1]
            return side(a, b, p) == 0 and all(min(a[k], b[k]) <= p[k] <= max(a[k], b[k]) for k in (0, 1))
        return _within(self.lines, (_lift(p),))

    def bounding_box(self):
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return (min(xs), min(ys), max(xs), max(ys))

    def __eq__(self, other):
        return isinstance(other, Polygon2) and set(self.vertices) == set(other.vertices)

    def __repr__(self):
        return f"Polygon2({self.vertices!r})"


def contains(outer: Polygon2, inner: Polygon2) -> bool:
    """Exact test that every vertex of inner lies in outer."""
    return all(outer.contains_point(v) for v in inner.vertices)


def polygon_from_halfplanes(lines) -> Polygon2:
    """Bounded intersection of the half-planes c0 + cx*x + cy*y >= 0 of
    integer lines (c0, cx, cy) as a polygon.

    Raises TypeError for a coefficient that is not an int, ValueError for
    a zero normal or an empty intersection, and UnboundedRegionError when
    the recession cone is nontrivial.
    """
    lines = list(lines)
    for line in lines:
        for c in line:
            if type(c) is not int:
                raise TypeError(f"line coefficients must be ints, refusing {type(c).__name__} {c}")
        if not (line[1] or line[2]):
            raise ValueError("half-plane normal must be nonzero")
    if not lines:
        raise UnboundedRegionError("no constraints")
    # nontrivial recession direction: d != 0 with all normals . d >= 0;
    # if one exists, some extreme candidate (a rotated normal) works
    for _, cx, cy in lines:
        for s in (1, -1):
            d = (-s * cy, s * cx)
            if all(nx * d[0] + ny * d[1] >= 0 for _, nx, ny in lines):
                raise UnboundedRegionError(f"region is unbounded in direction {d}")
    verts = set()
    for i, a in enumerate(lines):
        for b in lines[i + 1:]:
            # the lines meet in their cross product
            p = _normalized(*cross(a, b))
            if p and _within(lines, (p,)):
                verts.add(p)
    if not verts:
        raise ValueError("intersection of half-planes is empty")
    return Polygon2.from_points([_point(p) for p in verts])


@dataclass
class NestedPair:
    """Inner polygon P and outer polygon Q with factorization provenance.

    ``inner_generators`` keeps the sliced nonzero columns of B in input
    order and ``outer_lines`` the integer lines of the sliced rows of A in
    input order, so the slack matrix lines up with the original
    factorization.
    """

    inner: Polygon2
    outer: Polygon2
    inner_generators: list = field(default_factory=list)
    outer_lines: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)


def slack_matrix(pair: NestedPair) -> ExactMatrix:
    """Line i of Q at the lifted generator j of P (Q's edge lines and P's
    vertices when the pair keeps none).  Each entry is the value c0 +
    cx*x + cy*y of the half-plane at the point times a positive factor of
    its row and one of its column, so it has that value's sign and zeros:
    entry-wise nonnegative exactly when P is contained in Q."""
    lines = pair.outer_lines or pair.outer.lines
    gens = [_lift(g) for g in pair.inner_generators or pair.inner.vertices]
    return ExactMatrix([[_dot(line, g) for g in gens] for line in lines])


# ---------------------------------------------------------------------------
# slices of a rank-3 factorization

# chart of the coordinate-sum slice: G.(x, y, z) = (x + y + z, x, y)
SUM_CHART = ExactMatrix([[1, 1, 1], [1, 0, 0], [0, 1, 0]])


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


def polytopes_from_factorization(a: ExactMatrix, b: ExactMatrix) -> NestedPair:
    """Nested pair (P, Q) of a factorization A.B in slice coordinates.

    The slice is at first coordinate 1: P is spanned by the points
    (y/w, z/w) of the columns (w, y, z) of B, and Q is cut out by the
    rows (c0, cx, cy) of A.  A caller slices in a chart, a nonsingular
    3x3 matrix G, by passing (A.G^-1, G.B), a factorization of the same
    product; SUM_CHART slices at coordinate sum 1.  A zero column of B
    gives no point; every other column must have strictly positive slice
    weight w, and Q must come out bounded.  The provenance keeps the
    factors, so triangle_to_factorization can lift a triangle of the pair.
    """
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
    return NestedPair(inner, outer, gens, lines, {"a": a, "b": b})


# ---------------------------------------------------------------------------
# nested-triangle search


def tangent_vertex(v: Point, poly: Polygon2) -> Point:
    """Vertex t of poly such that the directed line v -> t keeps the whole
    polygon on its closed left side; ties along the line resolved to the
    farthest vertex.  v may lie on the polygon but not coincide with the
    only vertex."""
    i = _tangent(_lift(v), poly.triples)
    if i is None:
        raise ValueError("no tangent vertex; is the point inside the polygon?")
    return poly.vertices[i]


def _tangent(v: tuple, ts: tuple):
    """The index in ts of the tangent vertex from v, or None.  The
    polygon lies on the closed left of v -> t exactly when both
    neighbours of t do (for one or two vertices the neighbours are the
    polygon itself): one pass over the vertices."""
    n = len(ts)
    found = []
    for i, t in enumerate(ts):
        if t != v:
            line = cross(v, t)
            if _dot(line, ts[i - 1]) >= 0 and _dot(line, ts[(i + 1) % n]) >= 0:
                found.append(i)
    if len(found) < 2:
        return found[0] if found else None
    # candidates are collinear with v (vertices on the supporting line);
    # take the farthest so the tangent segment covers any touching edge;
    # the key is the squared distance times w_v^2
    wv, xv, yv = v
    return max(found, key=lambda i: Fraction(
        (ts[i][1] * wv - xv * ts[i][0]) ** 2 + (ts[i][2] * wv - yv * ts[i][0]) ** 2, ts[i][0] ** 2))


def chord_exit(v: Point, towards: Point, outer: Polygon2) -> Point:
    """Farthest point of outer on the ray v + s*(towards - v), s >= 0.

    v must lie in outer and towards differ from v.
    """
    v, towards = _lift(v), _lift(towards)
    if v == towards:
        raise ValueError("undirected chord")
    return _point(_exit(v, towards, outer.lines))


def _exit(v: tuple, t: tuple, lines) -> tuple:
    """`chord_exit` on triples, out of the polygon of the facet lines."""
    # the ray leaves through a facet with values fv at v and ft at t,
    # fv > ft, at s = fv / (fv - ft) = num / den with lv = line.v = w_v*fv,
    # lt = line.t = w_t*ft, num = lv*w_t and den = num - lt*w_v: the least
    # s by cross-multiplication.  The exit point lv*t - lt*v has weight den.
    hi = None
    for line in lines:
        lv, lt = _dot(line, v), _dot(line, t)
        num = lv * t[0]
        den = num - lt * v[0]
        if den <= 0:
            continue  # never leaves through this facet in forward direction
        if hi is None or num * hi[1] < hi[0] * den:
            hi = (num, den, lv, lt)
    if hi is None:
        raise ValueError("ray never leaves the polygon; outer must be bounded")
    _, _, lv, lt = hi  # three arguments, not *generator (see Polygon2)
    return _normalized(lv * t[0] - lt * v[0], lv * t[1] - lt * v[1], lv * t[2] - lt * v[2])


def _verified(candidate, ps, lines):
    """The triangle on three triples as a Polygon2 when it contains the
    points ps and lies in the polygon of the facet lines, else None.  Its
    first side is a tangent with P on the left, so it must turn left."""
    a, b, c = candidate
    sides = (cross(a, b), cross(b, c), cross(c, a))
    if _dot(a, sides[1]) > 0 and _within(lines, candidate) and _within(sides, ps):
        return Polygon2([_point(a), _point(b), _point(c)])
    return None


def nested_triangle(pair: NestedPair):
    """A triangle D with P <= D <= Q, or None if none exists.

    Completeness rests on anchored enumeration: if any nested triangle
    exists, one exists with a vertex at a vertex of Q or with a side
    containing an edge of P.  Each anchor is closed greedily: extend the
    current supporting line to its farthest point inside Q, then continue
    with the tangent to P from there.
    """
    inner, outer = pair.inner, pair.outer
    if outer.is_degenerate():
        raise ValueError("outer polygon must be two-dimensional")
    ps, lines = inner.triples, outer.lines
    if not _within(lines, ps):
        raise ValueError("inner polygon is not contained in the outer polygon")

    if inner.n == 3:
        return inner
    if outer.n == 3:
        return outer
    if inner.n < 3:
        # P lies on the chord of Q through a and b, and any vertex of Q off
        # that chord closes a triangle around it
        a = ps[0]
        b = ps[1] if inner.n == 2 else next(q for q in outer.triples if q != a)
        u, v = _exit(a, b, lines), _exit(b, a, lines)
        w = next(q for q in outer.triples if _dot(u, cross(v, q)))
        return Polygon2.triangle(_point(u), _point(v), _point(w))

    # side anchored on a line containing an edge of P
    for i, a in enumerate(ps):
        v1 = _exit(a, ps[(i + 1) % inner.n], lines)
        v2 = _advance(v1, ps, lines)
        if v2 is None:
            continue
        # the closing side needs only the tangent's direction, not its exit
        k = _tangent(v2, ps)
        if k is None:
            continue
        x = _normalized(*cross(cross(v2, ps[k]), cross(a, v1)))
        tri = x and _verified((v1, v2, x), ps, lines)
        if tri is not None:
            return tri

    # vertex anchored at a vertex of Q
    for q in outer.triples:
        if _within(inner.lines, (q,)):
            continue  # q inside P would mean P touches Q; tangents handle boundary
        v1 = _advance(q, ps, lines)
        v2 = v1 and _advance(v1, ps, lines)
        tri = v2 and _verified((q, v1, v2), ps, lines)
        if tri is not None:
            return tri
    return None


def _advance(v: tuple, ps: tuple, lines):
    """One greedy step of a chain: the tangent from v to ps, extended to
    its exit from the facet lines; None if there is none or v stays."""
    i = _tangent(v, ps)
    if i is None:
        return None
    w = _exit(v, ps[i], lines)
    return None if w == v else w


# ---------------------------------------------------------------------------
# nonnegative rank at most 3


def _low_rank_factorization(m: ExactMatrix):
    """Nonnegative (A, B) with inner dimension 3 and A.B = m, for a
    nonnegative m of rank at most 2.  The nonzero columns, each scaled to
    sum 1, lie on a segment (a point at rank 1) whose ends, the extreme
    scaled columns, span every column with nonnegative weights.  A holds
    the ends padded with zero columns, and B solves A.B = m with the
    weights of the padding 0."""
    scaled = [[x / sum(col) for x in col] for col in map(m.col, range(1, m.q + 1)) if any(col)]
    # the first scaled column and the first other one, if any; the ends
    # are the extremes along the direction between them
    ends = scaled[:1] + [s for s in scaled if s != scaled[0]][:1]
    if len(ends) == 2:
        d = [x - y for x, y in zip(ends[1], ends[0])]

        def along(s):
            return sum(x * dx for x, dx in zip(s, d))

        ends = [min(scaled, key=along), max(scaled, key=along)]
    a = ExactMatrix([[e[i] for e in ends] + [0] * (3 - len(ends)) for i in range(m.p)])
    sol = solve_linear(a, m)
    _verify(sol.consistent, "low-rank column outside the span of the extreme columns")
    b = sol.particular
    _verify(a.is_nonnegative() and b.is_nonnegative(), "low-rank factors not nonnegative")
    _verify(matmul(a, b) == m, "low-rank factors do not multiply to the matrix")
    return a, b


def bounded_nested_pair(m: ExactMatrix) -> NestedPair:
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
    return polytopes_from_factorization(matmul(a0, inverse(chart)), matmul(chart, b0))


def nn_rank_at_most_3(m: ExactMatrix):
    """Decide nonnegative rank <= 3, with a witness factorization.

    Returns (True, (A, B)) with A, B nonnegative, A.B == m and inner
    dimension 3, or (False, None).  For rank < 3 the witness is built
    directly; for rank 3 a triangle nested between the associated polygons
    is converted back through the simplicial change of basis.
    """
    if not m.is_nonnegative():
        raise ValueError("matrix must be nonnegative")
    r = rank(m)
    if r < 3:
        return True, _low_rank_factorization(m)
    if r > 3:
        return False, None

    pair = bounded_nested_pair(m)
    tri = nested_triangle(pair)
    if tri is None:
        return False, None
    witness = triangle_to_factorization(pair, tri, m)
    return True, witness


def triangle_to_factorization(pair: NestedPair, tri: Polygon2, m: ExactMatrix):
    """Convert a nested triangle of a pair built by
    polytopes_from_factorization (or bounded_nested_pair) back into a
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
