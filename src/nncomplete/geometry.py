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
integer triple (w, x*w, y*w) in lowest terms with w > 0.  A `Polygon2`
is two-dimensional and keeps only its lifted vertices and each edge's
primitive integer line (its gcd is 1), positive inside; its Fraction
vertices are built on first read.  `side` is the sign of one
determinant of lifted points.  Hulls sort and turn triples, and
`polygon_from_halfplanes` clips each line by the others on triples, so
a polygon built from points or lines lifts nothing twice.  Inside
`nested_triangle` every point is a triple: Q's lines are evaluated at
P's vertices once, a tangent to P is read from the signs of P's edge
lines at its point, and no Fraction is built, not even for the
triangle it returns.  The slice of a full matrix (`bounded_nested_pair`)
and the lift of a triangle to a witness (`triangle_to_factorization`)
compute on integers as well.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, cmp_to_key
from math import gcd, lcm
from operator import mul

from .linalg import (
    ExactMatrix,
    VerificationError,
    integer_scaled,
    matmul,
    scaled_rows_and_pivots,
    solve_linear,
    to_fraction,
)

Point = tuple  # (Fraction, Fraction)


class UnboundedRegionError(ValueError):
    """The intersection of half-planes has a nontrivial recession cone."""


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


def _within(lines, points) -> bool:
    return all(a * w + b * x + c * y >= 0 for a, b, c in lines for w, x, y in points)


def _at(lines, p) -> list:
    """The value of each line at the point p."""
    w, x, y = p
    return [a * w + b * x + c * y for a, b, c in lines]


def _primitive(line) -> tuple:
    """The integer triple divided by the gcd of its entries: the same line,
    scaled by a positive factor."""
    g = gcd(*line) or 1
    return (line[0] // g, line[1] // g, line[2] // g)


def _edge_lines(ts) -> list:
    """The primitive line of each edge t_i -> t_i+1 of a polygon of lifted
    vertices, positive inside."""
    return [_primitive(cross(t, u)) for t, u in zip(ts, ts[1:] + ts[:1])]


def _lex(a, b) -> int:
    """The order of the points (x, y) of two triples, by x, then y: -1, 0 or 1."""
    d = a[1] * b[0] - b[1] * a[0] or a[2] * b[0] - b[2] * a[0]
    return (d > 0) - (d < 0)


def side(a: Point, b: Point, c: Point) -> int:
    """Sign of the signed area of (a, b, c): 1 left of a->b, -1 right, 0 on the line.

    Coordinates may be Fractions or ints.  The determinant of the lifted
    points is the signed area times w_a*w_b*w_c > 0."""
    d = dot(_lift(a), cross(_lift(b), _lift(c)))
    return (d > 0) - (d < 0)


def cross(u, v) -> tuple:
    """The cross product of two 3-vectors of ints or Fractions."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def dot(u, v):
    """The dot product of two 3-vectors."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def point(p: tuple) -> Point:
    """The point (x/w, y/w) of the integer triple (w, x, y) with w != 0."""
    return (Fraction(p[1], p[0]), Fraction(p[2], p[0]))


def lowest(n, d) -> tuple:
    """The vector n/d, for an integer triple n and an integer d != 0, as
    (n', d') in lowest terms with d' > 0: gcd(*n', d') = 1.  Then n' is
    n/d times the lcm of its denominators, as `integer_scaled` gives it."""
    g = gcd(*n, d) if d > 0 else -gcd(*n, d)
    return (n[0] // g, n[1] // g, n[2] // g), d // g


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
    return [point(t) for t in _hull(_lifted(points))]


def _lifted(points) -> set:
    """The lifted triple of each distinct point."""
    return {_lift((to_fraction(x), to_fraction(y))) for x, y in points}


def _hull(ts) -> list:
    """`convex_hull` of distinct lifted triples, as triples, from the least
    point by x, then y: the monotone chain of Andrew (1979), with every
    comparison and turn on triples."""
    if not ts:
        raise ValueError("need at least one point")
    ts = sorted(ts, key=cmp_to_key(_lex))
    if len(ts) == 1:
        return ts

    def chain(seq):  # one half of the hull, without its last point
        out = []
        for p in seq:
            while len(out) >= 2 and dot(out[-2], cross(out[-1], p)) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(ts) + chain(reversed(ts))


class Polygon2:
    """Convex polygon, two-dimensional, with a counterclockwise, strictly
    convex vertex list.  ``triples`` are the lifted vertices and ``lines``
    the edges' primitive integer lines, positive inside; ``vertices``, the
    points as Fraction pairs, are built from the triples on first read.
    """

    def __init__(self, vertices):
        # lists: CPython keeps a tuple built from an iterator on the free list
        # of its final size, not its first, and peak memory crept upwards
        ts = [_lift((to_fraction(x), to_fraction(y))) for (x, y) in vertices]
        if len(ts) < 3:
            raise ValueError("polygon needs at least three vertices")
        lines = _edge_lines(ts)
        # each vertex is strictly left of the next edge; the three turns
        # of a triangle are one signed area
        if any(dot(lines[i], ts[i - 1]) <= 0 for i in range(1 if len(ts) == 3 else len(ts))):
            raise ValueError("vertices must be strictly convex and counterclockwise")
        self.triples, self.lines = ts, lines

    @classmethod
    def _of(cls, ts, lines) -> "Polygon2":
        """The polygon on the lifted triples ts, already strictly convex
        and counterclockwise, with their edge lines: no lift and no
        check."""
        poly = cls.__new__(cls)
        poly.triples, poly.lines = ts, lines
        return poly

    @classmethod
    def from_points(cls, points) -> "Polygon2":
        """The convex hull of the points; ValueError when they lie on one
        line."""
        return cls._hull_of(_lifted(points))

    @classmethod
    def _hull_of(cls, ts) -> "Polygon2":
        """The polygon of the hull of distinct lifted triples."""
        ts = _hull(ts)
        if len(ts) < 3:
            raise ValueError("points lie on one line; a polygon needs three not on a line")
        return cls._of(ts, _edge_lines(ts))

    @classmethod
    def triangle(cls, a: Point, b: Point, c: Point) -> "Polygon2":
        """The triangle on a, b, c, counterclockwise from a; ValueError
        when the three points are collinear."""
        a, b, c = ((to_fraction(x), to_fraction(y)) for (x, y) in (a, b, c))
        return cls([a, b, c] if side(a, b, c) >= 0 else [a, c, b])

    @cached_property
    def vertices(self) -> list:
        return [point(t) for t in self.triples]

    @property
    def n(self) -> int:
        return len(self.triples)

    def contains_point(self, p: Point) -> bool:
        return _within(self.lines, (_lift((to_fraction(p[0]), to_fraction(p[1]))),))

    def bounding_box(self):
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return (min(xs), min(ys), max(xs), max(ys))

    def __eq__(self, other):
        return isinstance(other, Polygon2) and set(self.triples) == set(other.triples)

    def __repr__(self):
        return f"Polygon2({self.vertices!r})"


def contains(outer: Polygon2, inner: Polygon2) -> bool:
    """Exact test that every vertex of inner lies in outer."""
    return _within(outer.lines, inner.triples)


def polygon_from_halfplanes(lines) -> Polygon2:
    """Bounded intersection of the half-planes c0 + cx*x + cy*y >= 0 of
    integer lines (c0, cx, cy) as a polygon, whose edge lines are the
    facets' own lines, divided by their gcd.

    Raises TypeError for a coefficient that is not an int, ValueError for
    a zero normal or an intersection that is empty, a point or a segment,
    and UnboundedRegionError when the recession cone is nontrivial.
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
    edges = _clip(list(dict.fromkeys(map(_primitive, lines))))
    if edges is None or len(edges) < 3:
        # nontrivial recession direction: d != 0 with all normals . d >= 0;
        # if one exists, some extreme candidate (a rotated normal) works
        for _, cx, cy in lines:
            for s in (1, -1):
                d = (-s * cy, s * cx)
                if all(nx * d[0] + ny * d[1] >= 0 for _, nx, ny in lines):
                    raise UnboundedRegionError(f"region is unbounded in direction {d}")
        raise ValueError("intersection of half-planes is empty, a point or a segment")
    # the edges chain counterclockwise; start at the least vertex by x, then y
    t = first = min(edges, key=cmp_to_key(_lex))
    ts, facets = [], []
    while not ts or t != first:
        line, end = edges[t]
        ts.append(t)
        facets.append(line)
        t = end
    return Polygon2._of(ts, facets)


def _clip(lines):
    """Each distinct primitive line clipped by all the others, on triples:
    a dict that maps the start of each edge of positive length, a
    lowest-terms triple, to (its line, its end); None when some line meets
    the region in an unbounded set, so that the region is unbounded.  A
    two-dimensional region has three edges or more.

    Line i runs along d = (cy, -cx) with its inside on the left.  Another
    line j meets it in cross(line_i, line_j) = (w, x, y), a lower bound
    on the parameter along d when w < 0 and an upper one when w > 0, and
    of two bounds of one kind the tighter is the one the other violates.
    A parallel line j (w = 0) holds on all of line i or on none of it, as
    (x, y).d >= 0 or not."""
    edges = {}
    for li in lines:
        lo = hi = hi_line = None
        for lj in lines:
            if lj is li:
                continue
            w, x, y = cross(li, lj)
            if not w:
                if x * li[2] - y * li[1] < 0:
                    break  # line i lies outside line j
            elif w < 0:
                p = (-w, -x, -y)
                if lo is None or dot(lj, lo) < 0:
                    lo = p
            elif hi is None or dot(lj, hi) < 0:
                hi, hi_line = (w, x, y), lj
        else:
            if lo is None or hi is None:
                return None
            if dot(hi_line, lo) > 0:  # lo precedes hi, rather than meets or passes it
                edges[_normalized(*lo)] = (li, _normalized(*hi))
    return edges


class NestedPair:
    """Inner polygon P and outer polygon Q with factorization provenance.

    ``generators`` keeps the lifted nonzero columns of B in input order,
    as lowest-terms triples (w, x, y) with w > 0, and ``outer_lines`` the
    integer lines of the sliced rows of A in input order, so the slack
    matrix lines up with the original factorization; the generators as
    points are built on first read.  ``provenance``, for a pair sliced
    from factors A and B, keeps A's rows under "a" and B's columns under
    "b", each a pair (n, d): an integer triple n over one positive
    denominator d, in lowest terms.
    """

    def __init__(self, inner: Polygon2, outer: Polygon2, generators: list | None = None,
                 outer_lines: list | None = None, provenance: dict | None = None):
        self.inner = inner
        self.outer = outer
        self.generators = [] if generators is None else generators
        self.outer_lines = [] if outer_lines is None else outer_lines
        self.provenance = {} if provenance is None else provenance

    @cached_property
    def inner_generators(self) -> list:
        return [point(g) for g in self.generators]


def slack_matrix(pair: NestedPair) -> ExactMatrix:
    """Line i of Q at the lifted generator j of P (Q's edge lines and P's
    vertices when the pair keeps none).  Each entry is the value c0 +
    cx*x + cy*y of the half-plane at the point times a positive factor of
    its row and one of its column, so it has that value's sign and zeros:
    entry-wise nonnegative exactly when P is contained in Q."""
    lines = pair.outer_lines or pair.outer.lines
    gens = pair.generators or pair.inner.triples
    return ExactMatrix([[dot(line, g) for g in gens] for line in lines])


# ---------------------------------------------------------------------------
# slices of a rank-3 factorization

# chart of the coordinate-sum slice: G.(x, y, z) = (x + y + z, x, y)
SUM_CHART = ExactMatrix([[1, 1, 1], [1, 0, 0], [0, 1, 0]])
SUM_CHART_INVERSE = ExactMatrix([[0, 1, 0], [0, 0, 1], [1, -1, -1]])


def pair_of_factors(rows, cols) -> NestedPair:
    """The nested pair of factors A and B given as A's rows and B's
    columns, each a pair (n, d): an integer triple over one positive
    denominator in lowest terms, so the row n/d of A has the integer line
    n.  A row whose normal vanishes is trivially satisfied when its
    constant is nonnegative and gives no line.  P is the hull of the
    columns' triples; ValueError when they lie on one line."""
    gens = []
    for j, ((w, y, z), d) in enumerate(cols, 1):
        if w == y == z == 0:
            continue
        if w <= 0:
            raise ValueError(f"column {j} of B has non-positive slice weight {Fraction(w, d)}")
        gens.append(_normalized(w, y, z))
    lines = []
    for n, d in rows:
        if n[1] or n[2]:
            lines.append(n)
        elif n[0] < 0:
            raise ValueError(f"row {tuple(Fraction(c, d) for c in n)} is infeasible on the slice")
    outer = polygon_from_halfplanes(lines)  # may raise UnboundedRegionError
    return NestedPair(Polygon2._hull_of(set(gens)), outer, gens, lines, {"a": rows, "b": cols})


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
    rows = [(tuple(n), d) for n, d in map(integer_scaled, a.to_lists())]
    cols = [(tuple(n), d) for n, d in map(integer_scaled, zip(*b.to_lists()))]
    return pair_of_factors(rows, cols)


# ---------------------------------------------------------------------------
# nested-triangle search


def tangent_vertex(v: Point, poly: Polygon2) -> Point:
    """Vertex t of poly such that the directed line v -> t keeps the whole
    polygon on its closed left side; ties along the line resolved to the
    farthest vertex.  v may lie on the polygon."""
    v = _lift(v)
    i = _tangent(v, poly.triples, _at(poly.lines, v))
    if i is None:
        raise ValueError("no tangent vertex; is the point inside the polygon?")
    return poly.vertices[i]


def _tangent(v: tuple, ts: tuple, s: list):
    """The index in ts of the tangent vertex from v, or None, from the
    values s_i at v of the edge lines t_i x t_i+1.  The polygon lies on
    the closed left of v -> t_i exactly when both neighbours of t_i do,
    and the determinants of (v, t_i, t_i+1) and (v, t_i, t_i-1) are s_i
    and -s_i-1: so t_i != v is a candidate when s_i >= 0 >= s_i-1."""
    found = [i for i in range(len(ts)) if s[i] >= 0 >= s[i - 1] and ts[i] != v]
    if len(found) < 2:
        return found[0] if found else None
    # candidates are collinear with v (vertices on the supporting line);
    # take the first farthest so the tangent segment covers any touching
    # edge: the squared distance times w_v^2 is n/w_i^2, compared by
    # cross-multiplication
    wv, xv, yv = v
    best = None
    for i in found:
        w = ts[i][0]
        n = (ts[i][1] * wv - xv * w) ** 2 + (ts[i][2] * wv - yv * w) ** 2
        if best is None or n * best_w2 > best_n * w * w:
            best, best_n, best_w2 = i, n, w * w
    return best


def chord_exit(v: Point, towards: Point, outer: Polygon2) -> Point:
    """Farthest point of outer on the ray v + s*(towards - v), s >= 0.

    v must lie in outer and towards differ from v.
    """
    v, towards = _lift(v), _lift(towards)
    if v == towards:
        raise ValueError("undirected chord")
    return point(_exit(v, towards, _at(outer.lines, v), _at(outer.lines, towards)))


def _exit(v: tuple, t: tuple, lvs: list, lts: list) -> tuple:
    """`chord_exit` on triples, out of the polygon of the facet lines
    whose values at v and t are lvs and lts."""
    # the ray leaves through a facet with values fv at v and ft at t,
    # fv > ft, at s = fv / (fv - ft) = num / den with lv = line.v = w_v*fv,
    # lt = line.t = w_t*ft, num = lv*w_t and den = num - lt*w_v: the least
    # s by cross-multiplication.  The exit point lv*t - lt*v has weight den.
    hi = None
    for lv, lt in zip(lvs, lts):
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
    first side is a tangent with P on the left, so it must turn left.  The
    last vertex and the side back to the first are tested first: a chain's
    exits lie in Q and its tangents keep P on their left, so a candidate
    mostly fails where it closes."""
    a, b, c = candidate
    ab, bc, ca = cross(a, b), cross(b, c), cross(c, a)
    if dot(a, bc) > 0 and _within(lines, (c, a, b)) and _within((ca, ab, bc), ps):
        return Polygon2._of([a, b, c], [_primitive(ab), _primitive(bc), _primitive(ca)])
    return None


def nested_triangle(pair: NestedPair):
    """A triangle D with P <= D <= Q, or None if none exists.

    Completeness rests on anchored enumeration: if any nested triangle
    exists, one exists with a vertex at a vertex of Q or with a side
    containing an edge of P.  Each anchor is closed greedily: extend the
    current supporting line to its farthest point inside Q, then continue
    with the tangent to P from there.

    The values of Q's lines at P's vertices are computed once: they are
    the containment check and every exit's values at its vertex of P.  A
    tangent to P is read from the values of P's edge lines at its point.
    """
    inner, outer = pair.inner, pair.outer
    ps, lines = inner.triples, outer.lines
    slack = [_at(lines, p) for p in ps]
    if min(map(min, slack)) < 0:
        raise ValueError("inner polygon is not contained in the outer polygon")

    if inner.n == 3:
        return inner
    if outer.n == 3:
        return outer

    # side anchored on a line containing an edge of P
    n, edges = inner.n, inner.lines
    for i, a in enumerate(ps):
        v1 = _exit(a, ps[(i + 1) % n], slack[i], slack[(i + 1) % n])
        v2 = _advance(v1, _at(edges, v1), ps, lines, slack)
        if v2 is None:
            continue
        # the closing side needs only the tangent's direction, not its exit
        k = _tangent(v2, ps, _at(edges, v2))
        if k is None:
            continue
        x = _normalized(*cross(cross(v2, ps[k]), edges[i]))
        tri = x and _verified((v1, v2, x), ps, lines)
        if tri is not None:
            return tri

    # vertex anchored at a vertex of Q
    for q in outer.triples:
        s = _at(edges, q)
        if min(s) >= 0:
            continue  # q inside P would mean P touches Q; tangents handle boundary
        v1 = _advance(q, s, ps, lines, slack)
        v2 = v1 and _advance(v1, _at(edges, v1), ps, lines, slack)
        tri = v2 and _verified((q, v1, v2), ps, lines)
        if tri is not None:
            return tri
    return None


def _advance(v: tuple, s: list, ps: tuple, lines, slack):
    """One greedy step of a chain: the tangent from v to ps, read from the
    values s of P's edge lines at v, extended to its exit from the facet
    lines, whose values at ps are slack; None if there is none or v
    stays."""
    i = _tangent(v, ps, s)
    if i is None:
        return None
    w = _exit(v, ps[i], _at(lines, v), slack[i])
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
    scaled, cols = scaled_rows_and_pivots(m)
    if len(cols) < 3:
        raise ValueError("matrix has rank below 3")
    return _column_basis_pair(scaled, cols[:3])


def _column_basis_pair(scaled, cols) -> NestedPair:
    """`bounded_nested_pair` on the independent columns cols of m, on
    integers, from the rows of m as pairs (n_i, d_i) with the row n_i/d_i.
    The column sums of m are S/L, for L the lcm of the d_i and S the column
    sums of the rows n_i*L/d_i.  With K = a0[R] for three independent rows
    R of a0 = n[:, cols], the coordinates of column j in the basis a0 are
    b_j = adj(K).n[R, j] / det K.  In the chart G = (column sums s of a0;
    e1; e2) the column j of G.b0 is (s.b_j, b_j1, b_j2), where s.b_j is
    the column sum S_j/L of m, and the row a of a0.G^-1 is (a3, a1*s3 -
    a3*s1, a2*s3 - a3*s2)/s3."""
    big = lcm(*[d for _, d in scaled])
    n = [ns for ns, _ in scaled]
    to_big = [big // d for _, d in scaled]
    sums = [sum(map(mul, col, to_big)) for col in zip(*n)]
    a0 = [tuple(row[c - 1] for c in cols) for row in n]
    # three independent rows R: a nonzero row, one off its line, and one
    # off the plane of the two
    i1 = next(i for i, row in enumerate(a0) if any(row))
    i2 = next(i for i, row in enumerate(a0) if any(cross(a0[i1], row)))
    normal = cross(a0[i1], a0[i2])
    i3 = next(i for i, row in enumerate(a0) if dot(normal, row))
    adj = (cross(a0[i2], a0[i3]), cross(a0[i3], a0[i1]), normal)  # the columns of adj(K)
    det_k = dot(a0[i1], adj[0])
    if det_k < 0:
        adj, det_k = tuple(tuple(-x for x in c) for c in adj), -det_k
    # det K times the coordinates of each column
    r1, r2, r3 = zip(*adj)  # the rows of adj(K)
    coords = [(dot(r1, x), dot(r2, x), dot(r3, x)) for x in zip(n[i1], n[i2], n[i3])]
    _verify(all(dot(a, b) == det_k * x for a, row in zip(a0, n) for b, x in zip(coords, row)),
            "matrix outside the span of its independent columns")
    # the chart has determinant the third column sum of a0, positive
    # because a0 is nonnegative with no zero column
    s1, s2, s3 = (sums[c - 1] for c in cols)
    _verify(s3 > 0, "slice basis change is singular")
    b_cols = [lowest((sj * det_k, big * b[0], big * b[1]), det_k * big) for sj, b in zip(sums, coords)]
    a_rows = [lowest((a3 * big, a1 * s3 - a3 * s1, a2 * s3 - a3 * s2), d * s3)
              for (a1, a2, a3), (_, d) in zip(a0, scaled)]
    return pair_of_factors(a_rows, b_cols)


def nn_rank_at_most_3(m: ExactMatrix):
    """Decide nonnegative rank <= 3, with a witness factorization.

    Returns (True, (A, B)) with A, B nonnegative, A.B == m and inner
    dimension 3, or (False, None).  For rank < 3 the witness is built
    directly; for rank 3 a triangle nested between the associated polygons
    is converted back through the simplicial change of basis.
    """
    scaled, cols = scaled_rows_and_pivots(m)
    if any(x < 0 for ns, _ in scaled for x in ns):
        raise ValueError("matrix must be nonnegative")
    if len(cols) < 3:
        return True, _low_rank_factorization(m)
    if len(cols) > 3:
        return False, None

    pair = _column_basis_pair(scaled, cols)
    tri = nested_triangle(pair)
    if tri is None:
        return False, None
    witness = triangle_to_factorization(pair, tri, m)
    return True, witness


def triangle_to_factorization(pair: NestedPair, tri: Polygon2, m: ExactMatrix):
    """Convert a nested triangle of a pair built by
    polytopes_from_factorization (or bounded_nested_pair) back into a
    size-3 nonnegative factorization of m, the product of the pair's
    factors.

    The witness is (A.C, C^-1.B) for the matrix C with columns t_k/w_k,
    the lifted triangle vertices t_k = (w_k, x_k, y_k) over their weights.
    C^-1 has rows w_k*cross(t_k+1, t_k+2)/det T, where det T > 0 is the
    determinant of the t_k, counterclockwise.  A zero column of the pair's
    B, which gave no point, lifts to zero.  Signs and the product are
    checked on integers before any Fraction is built."""
    if tri.n != 3:
        raise ValueError("need a triangle")
    rows, cols = pair.provenance["a"], pair.provenance["b"]
    ts = tri.triples
    inv = [cross(ts[k - 2], ts[k - 1]) for k in range(3)]
    det_t = dot(ts[0], inv[0])
    # A.C is at[a][k] / (d_a*w_k) and C^-1.B is w_k*bt[k][j] / (det_t*d_j)
    at = [[dot(n, t) for t in ts] for n, _ in rows]
    bt = [[dot(x, n) for n, _ in cols] for x in inv]
    _verify(all(v >= 0 for row in at for v in row), "triangle not inside Q")
    _verify(all(v >= 0 for row in bt for v in row), "P not inside triangle")
    _verify(m.shape == (len(rows), len(cols)) and all(
        sum(map(mul, row_a, col_b)) * x.denominator == x.numerator * da * db * det_t
        for row_a, (_, da), m_row in zip(at, rows, m.to_lists())
        for col_b, (_, db), x in zip(zip(*bt), cols, m_row)
    ), "witness factors do not multiply to the matrix")
    ws = [t[0] for t in ts]
    a_w = ExactMatrix([[Fraction(v, da * w) for v, w in zip(row, ws)] for row, (_, da) in zip(at, rows)])
    b_w = ExactMatrix([[Fraction(w * v, det_t * db) for v, (_, db) in zip(row, cols)] for row, w in zip(bt, ws)])
    return a_w, b_w
