from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from nncomplete import (
    SUM_CHART_INVERSE,
    ExactMatrix,
    NestedPair,
    Polygon2,
    UnboundedRegionError,
    VerificationError,
    contains,
    inverse,
    matmul,
    nested_triangle,
    nn_rank_at_most_3,
    polygon_from_halfplanes,
    polytopes_from_factorization,
    rank,
    slack_matrix,
    triangle_to_factorization,
)
import nncomplete.geometry
import nncomplete.linalg
from nncomplete.geometry import (
    _hull, _lift, _tangent, bounded_nested_pair, cross, dot, exit_point, lowest, point, side,
)

from conftest import drawn_polygon, fractions_made, rnd_fraction, rnd_nonneg_product, spans_plane
from oracles import (
    SUM_CHART,
    _lines_meet,
    bounded_nested_pair_by_fractions,
    chord_exit_by_fractions,
    contains_point_by_edges,
    edges,
    facets,
    join,
    low_rank_witness_by_builders,
    matmul_by_fractions,
    meet,
    nested_triangle_by_fractions,
    nmf_residual,
    orient,
    polygon_from_halfplanes_by_fractions,
    rotation_grid_triangle,
    slack_by_fractions,
    tangent_vertex_brute,
    triangle_to_factorization_by_fractions,
    verify_triangle,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def rnd_point(rng, lo=-8, hi=8):
    return (rnd_fraction(rng, lo, hi), rnd_fraction(rng, lo, hi))


def rnd_polygon(rng, k, lo=-8, hi=8) -> Polygon2:
    """The hull of k >= 3 random points, drawn until they span a polygon."""
    return drawn_polygon(lambda: [rnd_point(rng, lo, hi) for _ in range(k)])


def rnd_nested_pair(rng) -> NestedPair:
    """Inner polygon from random convex combinations of the outer's
    vertices; nesting holds by construction."""
    outer = rnd_polygon(rng, rng.randint(3, 8))

    def combination():
        weights = [Fraction(rng.randint(0, 5)) for _ in outer.vertices]
        if sum(weights) == 0:
            weights[0] = Fraction(1)
        s = sum(weights)
        return (
            sum(w * v[0] for w, v in zip(weights, outer.vertices)) / s,
            sum(w * v[1] for w, v in zip(weights, outer.vertices)) / s,
        )

    return NestedPair(drawn_polygon(lambda: [combination() for _ in range(rng.randint(3, 6))]), outer)


def in_sum_chart(a, b) -> tuple:
    """(A.G^-1, G.B) for G = SUM_CHART: the same product, in the slice
    coordinates of the coordinate-sum slice."""
    return matmul(a, inverse(SUM_CHART)), matmul(SUM_CHART, b)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def tangent_of(v, poly: Polygon2):
    """`geometry._tangent` from the point v, lifted, to the polygon: its
    vertex as a point, or None."""
    v = _lift(v)
    i = _tangent(v, poly.triples, [dot(line, v) for line in poly.lines])
    return None if i is None else poly.vertices[i]


def exit_of(v, towards, outer: Polygon2):
    """`geometry.exit_point` on the lifted points, as a point."""
    v, t = _lift(v), _lift(towards)
    return point(exit_point(v, t, [dot(line, v) for line in outer.lines], [dot(line, t) for line in outer.lines]))


BIG = 2**256
big_rational = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
big_point = st.tuples(big_rational, big_rational)
small_rational = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
small_point = st.tuples(small_rational, small_rational)


class TestSignPredicates:
    @settings(max_examples=300, deadline=None)
    @given(big_point, big_point, big_point, big_rational, st.booleans())
    def test_side_is_sign_of_orient(self, a, b, c, k, collinear):
        if collinear:
            c = (a[0] + k * (b[0] - a[0]), a[1] + k * (b[1] - a[1]))
        assert side(a, b, c) == _sign(orient(a, b, c))
        if collinear:
            assert side(a, b, c) == 0

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), small_point, small_point)
    def test_side_accepts_int_coordinates(self, a, b, c):
        assert side(a, b, c) == _sign(orient(a, b, c))


class TestLineHelpers:
    """The cross product of two lifted points, the line through them,
    against the orientation determinant, and the reference `meet` of two
    joins against Cramer's rule."""

    def test_cross_of_unit_vectors(self):
        assert cross((1, 0, 0), (0, 1, 0)) == (0, 0, 1)
        assert cross((0, 1, 0), (1, 0, 0)) == (0, 0, -1)
        assert cross((2, 3, 5), (4, 6, 10)) == (0, 0, 0)

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.integers(-10**12, 10**12)] * 3), st.integers(-10**12, 10**12).filter(bool))
    def test_lowest_terms_of_either_sign(self, n, d):
        """The family's A(t) divides by a denominator that is negative on
        one side of its pole, so both signs of d are read."""
        m, e = lowest(n, d)
        assert e > 0 and gcd(*m, e) == 1
        assert [Fraction(x, e) for x in m] == [Fraction(x, d) for x in n]
        assert point((e, m[0], m[1])) == (Fraction(n[0], d), Fraction(n[1], d))

    @settings(max_examples=300, deadline=None)
    @given(big_point, big_point, big_point, big_rational, st.booleans())
    def test_cross_of_lifted_points_sign_is_side(self, a, b, c, k, collinear):
        if collinear:
            c = (a[0] + k * (b[0] - a[0]), a[1] + k * (b[1] - a[1]))
        c0, cx, cy = cross(_lift(a), _lift(b))
        assert _sign(c0 + cx * c[0] + cy * c[1]) == side(a, b, c) == _sign(orient(a, b, c))
        assert _sign(sum(x * y for x, y in zip(join(a, b), (1, *c)))) == side(a, b, c)

    @settings(max_examples=300, deadline=None)
    @given(small_point, small_point, small_point, small_point, small_rational,
           st.sampled_from(["free", "parallel", "coincident"]))
    def test_meet_matches_cramer(self, a1, a2, b1, b2, k, shape):
        if shape == "parallel":
            b2 = (b1[0] + k * (a2[0] - a1[0]), b1[1] + k * (a2[1] - a1[1]))
        elif shape == "coincident":
            a2 = a1
        x = meet(join(a1, a2), join(b1, b2))
        assert x == _lines_meet(a1, a2, b1, b2)
        if shape != "free":
            assert x is None


class TestTangentVertex:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(small_point, min_size=3, max_size=8).filter(spans_plane),
        small_point,
        st.integers(0, 7),
        st.builds(Fraction, st.integers(0, 6), st.integers(1, 6)),
        st.sampled_from(["free", "vertex", "edge", "beyond", "before"]),
    )
    def test_agrees_with_brute_force(self, pts, free, i, lam, where):
        """At a free point, at a vertex, on an edge, and on the line of an
        edge beyond either end, where the tangent from the edge signs has
        two candidates."""
        poly = Polygon2.from_points(pts)
        vs = poly.vertices
        a, b = vs[i % len(vs)], vs[(i + 1) % len(vs)]
        if where == "free":
            v = free
        elif where == "vertex":
            v = a
        else:  # a + k*(b - a): k in [0, 1] on the edge, k > 1 past b, k < 0 before a
            k = {"edge": min(lam, Fraction(1)), "beyond": Fraction(8, 7) + lam, "before": -Fraction(1, 7) - lam}[where]
            v = (a[0] + k * (b[0] - a[0]), a[1] + k * (b[1] - a[1]))
        assert tangent_of(v, poly) == tangent_vertex_brute(v, vs)


class TestHullAndPolygon:
    def test_hull_is_ccw_and_minimal(self):
        pts = [(0, 0), (4, 0), (4, 4), (0, 4), (2, 2), (1, 1), (4, 2)]
        assert Polygon2.from_points(pts).vertices == [(0, 0), (4, 0), (4, 4), (0, 4)]

    def test_collinear_collapses(self):
        """The hull of triples collapses points on one line to the two
        extreme ones, which `Polygon2.from_points` then refuses."""
        assert _hull({_lift(p) for p in [(0, 0), (1, 1), (2, 2)]}) == [(1, 0, 0), (1, 2, 2)]
        assert _hull({_lift((1, 1))}) == [(1, 1, 1)]

    @pytest.mark.parametrize("build, message", [
        (lambda: Polygon2([(3, 3)]), "polygon needs at least three vertices"),
        (lambda: Polygon2([(0, 0), (2, 2)]), "polygon needs at least three vertices"),
        (lambda: Polygon2([(0, 0), (1, 1), (2, 2)]), "vertices must be strictly convex and counterclockwise"),
        (lambda: Polygon2.from_points([(0, 0), (2, 2), (1, 1), (2, 2)]), "points lie on one line"),
        (lambda: Polygon2.from_points([(1, 1), (1, 1)]), "points lie on one line"),
        (lambda: polygon_from_halfplanes([(0, 1, 0), (0, 0, 1), (0, -1, -1)]),
         "intersection of half-planes is empty, a point or a segment"),
        (lambda: polygon_from_halfplanes([(0, 1, 0), (0, -1, 0), (0, 0, 1), (1, 0, -1)]),
         "intersection of half-planes is empty, a point or a segment"),
    ], ids=["one-vertex", "two-vertices", "collinear-vertices", "collinear-points", "coincident-points",
            "point-region", "segment-region"])
    def test_polygon_is_two_dimensional(self, build, message):
        """A polygon has three vertices not on one line: fewer vertices,
        points on one line and a region that is a point or a segment are
        refused with a one-line ValueError, while the hull of triples still
        collapses such points (`test_collinear_collapses`)."""
        with pytest.raises(ValueError, match=f"^{message}") as info:
            build()
        assert "\n" not in str(info.value)

    def test_rejects_non_convex_order(self):
        with pytest.raises(ValueError):
            Polygon2([(0, 0), (0, 4), (4, 0)])  # clockwise
        with pytest.raises(ValueError):
            Polygon2([(0, 0), (4, 0), (1, 1), (0, 4)])  # a reflex turn

    @settings(max_examples=200, deadline=None)
    @given(small_point, small_point, small_point, small_rational, st.booleans())
    def test_triangle_needs_one_counterclockwise_turn(self, a, b, c, k, collinear):
        """Three vertices build a polygon exactly when they turn
        counterclockwise: a clockwise or collinear triple raises, in every
        rotation, although a triangle tests only one of its turns."""
        if collinear:
            c = (a[0] + k * (b[0] - a[0]), a[1] + k * (b[1] - a[1]))
        for vs in ([a, b, c], [b, c, a], [c, a, b]):
            if orient(*vs) > 0:
                assert Polygon2(vs).vertices == vs
            else:
                with pytest.raises(ValueError):
                    Polygon2(vs)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(small_point, min_size=3, max_size=8))
    def test_contains_point_matches_edge_sides(self, pts):
        """The facet-sign test agrees with one `side` test per edge at the
        vertices, the edge midpoints and points just off each edge: just
        inside and just outside the polygon."""
        assume(spans_plane(pts))
        poly = Polygon2.from_points(pts)
        eps = Fraction(1, 10**6)
        probes = [(v, True) for v in poly.vertices]
        for (a, b) in edges(poly):
            mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
            left = (a[1] - b[1], b[0] - a[0])  # the inward normal of a->b
            probes += [(mid, True)] + [
                ((mid[0] + s * left[0], mid[1] + s * left[1]), s > 0) for s in (eps, -eps)
            ]
        for p, inside in probes:
            assert poly.contains_point(p) == contains_point_by_edges(poly, p) == inside

    @settings(max_examples=200, deadline=None)
    @given(small_point, small_point, small_point, small_rational, st.booleans())
    def test_triangle_is_counterclockwise_from_a(self, a, b, c, k, collinear):
        if collinear:
            c = (a[0] + k * (b[0] - a[0]), a[1] + k * (b[1] - a[1]))
        if orient(a, b, c) == 0:
            with pytest.raises(ValueError):
                Polygon2.triangle(a, b, c)
            return
        tri = Polygon2.triangle(a, b, c)
        assert tri.vertices[0] == a
        assert set(tri.vertices) == {a, b, c}
        assert orient(*tri.vertices) > 0


class TestHalfPlanes:
    def test_polygon_round_trip(self, rng):
        for _ in range(60):
            poly = rnd_polygon(rng, rng.randint(3, 7))
            back = polygon_from_halfplanes(poly.lines)
            assert back == poly

    def test_unbounded_detected(self):
        with pytest.raises(UnboundedRegionError, match=r"in direction \(0, 1\)$"):
            polygon_from_halfplanes([(0, 1, 0), (0, 0, 1)])

    def test_empty_detected(self):
        with pytest.raises(ValueError):
            polygon_from_halfplanes([(-1, 1, 0), (-1, -1, 0), (1, 0, 1), (1, 0, -1)])

    @pytest.mark.parametrize("lines, error, message", [
        ([(0, 1, 0), (0, 0, 1), (1, Fraction(-1, 2), -1)], TypeError, "refusing Fraction -1/2"),
        ([(0, 1, 0), (0, 0, 1), (1, 0, 0)], ValueError, "half-plane normal must be nonzero"),
        ([], UnboundedRegionError, "no constraints"),
    ], ids=["Fraction", "zero-normal", "no-lines"])
    def test_input_checks(self, lines, error, message):
        """A line is an integer triple with a nonzero normal: a Fraction
        coefficient is refused like a float (`TestRefusesBinaryFloats`)."""
        with pytest.raises(error, match=message):
            polygon_from_halfplanes(lines)


def assert_slack_signs(pair: NestedPair):
    """Every entry of the slack matrix has the sign, and so the zeros, of
    the reference Fraction half-plane value."""
    s = slack_matrix(pair).to_lists()
    ref = slack_by_fractions(pair)
    assert [[_sign(x) for x in row] for row in s] == [[_sign(x) for x in row] for row in ref]


class TestSlackMatrix:
    def test_nonnegative_iff_contained(self, rng):
        nested = separated = 0
        for _ in range(500):
            outer = rnd_polygon(rng, rng.randint(3, 7))
            if rng.random() < 0.5:
                pair = rnd_nested_pair(rng)
            else:
                pair = NestedPair(rnd_polygon(rng, rng.randint(3, 6)), outer)
            ok = contains(pair.outer, pair.inner)
            slack_ok = slack_matrix(pair).is_nonnegative()
            assert ok == slack_ok
            assert_slack_signs(pair)
            nested += ok
            separated += not ok
        assert nested > 80 and separated > 80

    def test_lines_up_with_factorization(self):
        a = ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
        b = ExactMatrix([[2, 0, 1], [0, 2, 1], [2, 2, 1]])  # independent columns: P is a triangle
        pair = polytopes_from_factorization(*in_sum_chart(a, b))
        s = slack_matrix(pair)
        # the all-ones row of A is trivially satisfied on the sum slice and
        # contributes no half-plane
        assert s.shape == (3, 3)
        assert s.is_nonnegative()


class TestPolytopesFromFactorization:
    def test_product_nonneg_iff_slack_nonneg(self, rng):
        for _ in range(60):
            a = ExactMatrix(
                [[rnd_fraction(rng, 0, 6) for _ in range(3)] for _ in range(4)]
            )
            b = ExactMatrix(
                [[rnd_fraction(rng, 0, 6) for _ in range(4)] for _ in range(3)]
            )
            # make column weights positive for the sum chart
            b = ExactMatrix(
                [[x + Fraction(1, 7) for x in row] for row in b.to_lists()]
            )
            try:
                pair = polytopes_from_factorization(*in_sum_chart(a, b))
            except (UnboundedRegionError, ValueError):
                continue
            assert matmul(a, b).is_nonnegative() == slack_matrix(pair).is_nonnegative()
            assert_slack_signs(pair)

    def test_rejects_zero_weight_column(self):
        a = ExactMatrix.identity(3)
        b = ExactMatrix([[1, 1], [0, 0], [0, -1]])
        with pytest.raises(ValueError):
            polytopes_from_factorization(*in_sum_chart(a, b))  # column 2 of G.B is (0, 1, 0): weight 0

    def test_zero_column_gives_no_point(self):
        a = ExactMatrix.identity(3)
        b = ExactMatrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        pair = polytopes_from_factorization(*in_sum_chart(a, b))
        assert pair.inner_generators == [(1, 0), (0, 1), (0, 0)]
        assert slack_matrix(pair).shape == (3, 3)


class TestNestedTriangle:
    def test_found_triangles_verify(self, rng):
        found = 0
        for _ in range(200):
            pair = rnd_nested_pair(rng)
            tri = nested_triangle(pair)
            if tri is not None:
                found += 1
                assert verify_triangle(pair, tri)
        assert found > 100

    def test_never_misses_rotation_grid_certificates(self, rng):
        """Whenever the independent rotation-grid search certifies a
        nested triangle, the anchored search must find one too."""
        certified = 0
        for _ in range(60):
            pair = rnd_nested_pair(rng)
            grid_tri = rotation_grid_triangle(pair, n=72)
            if grid_tri is None:
                continue
            assert verify_triangle(pair, grid_tri)
            certified += 1
            tri = nested_triangle(pair)
            assert tri is not None
            assert verify_triangle(pair, tri)
        assert certified > 25

    def test_inner_triangle_short_circuit(self):
        outer = Polygon2([(0, 0), (10, 0), (10, 10), (0, 10)])
        inner = Polygon2([(1, 1), (3, 1), (2, 3)])
        tri = nested_triangle(NestedPair(inner, outer))
        assert set(tri.vertices) == set(inner.vertices)

    def test_tight_square_in_square_has_none(self):
        # inner square with vertices at the edge midpoints of the outer:
        # every triangle containing it pokes out of the outer square
        outer = Polygon2([(0, 0), (2, 0), (2, 2), (0, 2)])
        inner = Polygon2([(1, 0), (2, 1), (1, 2), (0, 1)])
        assert nested_triangle(NestedPair(inner, outer)) is None

    def test_tangent_vertex_basic(self):
        poly = Polygon2([(0, 0), (2, 0), (2, 2), (0, 2)])
        t = tangent_of((3, -1), poly)
        assert t in poly.vertices
        assert all(
            ((t[0] - 3) * (v[1] + 1) - (t[1] + 1) * (v[0] - 3)) >= 0
            for v in poly.vertices
        )


class TestNnRankAtMost3:
    def test_true_on_random_size3_products(self, rng):
        for _ in range(60):
            m = rnd_nonneg_product(rng, 4, 4, 3)
            ok, witness = nn_rank_at_most_3(m)
            assert ok
            a, b = witness
            assert a.shape == (4, 3) and b.shape == (3, 4)
            assert a.is_nonnegative() and b.is_nonnegative()
            assert matmul(a, b) == m

    def test_low_rank_matrices(self, rng):
        for r in (0, 1, 2):
            for _ in range(20):
                m = rnd_nonneg_product(rng, 4, 5, r) if r else ExactMatrix.zeros(4, 5)
                ok, (a, b) = nn_rank_at_most_3(m)
                assert ok and matmul(a, b) == m
                assert a.is_nonnegative() and b.is_nonnegative()

    def test_rank2_witness_matches_the_separate_builders(self, rng):
        seen = 0
        for _ in range(150):
            m = rnd_nonneg_product(rng, rng.randint(2, 5), rng.randint(2, 6), 2)
            if rank(m) != 2:
                continue
            assert repr(nn_rank_at_most_3(m)) == repr((True, low_rank_witness_by_builders(m)))
            seen += 1
        assert seen > 60

    def test_rank0_and_rank1_witnesses_are_valid(self, rng):
        """The rank-1 witness holds one column of m scaled to sum 1, and B
        the column sums of m; the rank-0 witness is the reference's."""
        seen = 0
        for _ in range(80):
            p, q = rng.randint(1, 5), rng.randint(1, 6)
            m = rnd_nonneg_product(rng, p, q, 1) if rng.random() < 0.8 else ExactMatrix.zeros(p, q)
            ok, (a, b) = nn_rank_at_most_3(m)
            assert ok and a.shape == (p, 3) and b.shape == (3, q)
            assert a.is_nonnegative() and b.is_nonnegative()
            assert matmul(a, b) == m
            if rank(m) == 0:
                assert repr((a, b)) == repr(low_rank_witness_by_builders(m))
            else:
                assert sum(a.col(1)) == 1
                assert b.row(1) == [sum(m.col(j)) for j in range(1, q + 1)]
                seen += 1
        assert seen > 30

    def test_zero_column_of_a_rank3_matrix_stays_zero(self, rng):
        seen = 0
        for _ in range(40):
            m = rnd_nonneg_product(rng, 4, 4, 3)
            if rank(m) != 3:
                continue
            j = rng.randint(1, 5)
            cols = [m.col(k) for k in range(1, 5)]
            cols.insert(j - 1, [0] * 4)
            m0 = ExactMatrix(zip(*cols))
            ok, witness = nn_rank_at_most_3(m0)
            assert ok
            a, b = witness
            assert a.is_nonnegative() and b.is_nonnegative()
            assert matmul(a, b) == m0
            assert b.col(j) == [0, 0, 0]
            seen += 1
        assert seen > 20

    def test_false_above_rank_3(self):
        ok, witness = nn_rank_at_most_3(ExactMatrix.identity(4))
        assert not ok and witness is None

    def test_unique_nmf_matrix_true(self, unique_nmf_matrix):
        ok, (a, b) = nn_rank_at_most_3(unique_nmf_matrix)
        assert ok and matmul(a, b) == unique_nmf_matrix

    def test_perturbed_matrix_false(self, perturbed_full):
        assert rank(perturbed_full) == 3
        ok, witness = nn_rank_at_most_3(perturbed_full)
        assert not ok and witness is None

    def test_false_answers_not_contradicted_by_nmf(self, perturbed_full):
        """The numerical factorizer should fail to drive the residual to
        zero exactly where the exact decision is False."""
        assert nmf_residual(perturbed_full, 3) > 1e-4
        ok, _ = nn_rank_at_most_3(perturbed_full)
        assert not ok

    def test_triangle_to_factorization_round_trip(self, unique_nmf_matrix):
        m = unique_nmf_matrix
        pair = bounded_nested_pair(m)
        tri = nested_triangle(pair)
        assert tri is not None
        a, b = triangle_to_factorization(pair, tri, m)
        assert a.is_nonnegative() and b.is_nonnegative()
        assert matmul(a, b) == m

    def test_triangle_outside_p_fails_verification(self, unique_nmf_matrix):
        """The re-verification is an explicit check (it runs under -O too)
        and its error is not a ValueError, so no caller that treats
        ValueError as 'out of reach' can swallow it."""
        m = unique_nmf_matrix
        pair = bounded_nested_pair(m)
        # a small triangle around one vertex of P lies inside Q but cannot
        # contain the two-dimensional P
        (x, y) = pair.inner.vertices[0]
        eps = Fraction(1, 10**6)
        tri = Polygon2.triangle((x - eps, y - eps), (x + eps, y - eps), (x, y + eps))
        assert not contains(tri, pair.inner)
        with pytest.raises(VerificationError, match="P not inside triangle"):
            triangle_to_factorization(pair, tri, m)
        assert not issubclass(VerificationError, ValueError)

    def test_triangle_leaving_q_fails_verification(self, unique_nmf_matrix):
        """A triangle around the bounding box of Q contains P but leaves
        Q, so the lifted A has a negative entry."""
        m = unique_nmf_matrix
        pair = bounded_nested_pair(m)
        x0, y0, x1, y1 = pair.outer.bounding_box()
        tri = Polygon2.triangle((x0 - 1, y0 - 1), (x1 + 2 * (x1 - x0) + 3, y0 - 1), (x0 - 1, y1 + 2 * (y1 - y0) + 3))
        assert contains(tri, pair.outer) and not contains(pair.outer, tri)
        with pytest.raises(VerificationError, match="triangle not inside Q"):
            triangle_to_factorization(pair, tri, m)

    def test_other_matrix_fails_verification(self, unique_nmf_matrix):
        """The witness lifts the pair's factors, so it multiplies to their
        product and to no other matrix."""
        m = unique_nmf_matrix
        pair = bounded_nested_pair(m)
        tri = nested_triangle(pair)
        with pytest.raises(VerificationError, match="witness factors do not multiply to the matrix"):
            triangle_to_factorization(pair, tri, m.with_entry(1, 1, m[1, 1] + 1))

    @pytest.mark.parametrize("rows", [
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[2, 1, 1, 1], [1, 2, 1, 1], [1, 1, 2, 1], [1, 1, 1, 2]],
    ], ids=["identity", "dense"])
    def test_rank4_matrix_is_outside_the_span(self, rows):
        m = ExactMatrix(rows)
        assert rank(m) == 4
        with pytest.raises(VerificationError, match="^matrix outside the span of its independent columns$"):
            bounded_nested_pair(m)


def rnd_big_point(rng):
    """A point whose coordinates have numerators and denominators of up
    to 60 bits."""
    return tuple(Fraction(rng.randint(-(2**60), 2**60), rng.randint(1, 2**60)) for _ in range(2))


def rnd_line(rng, big) -> tuple:
    """An integer line with a nonzero normal: three random Fractions times
    the lcm of their denominators."""
    coef = (lambda: rnd_big_point(rng)[0]) if big else (lambda: rnd_fraction(rng, -6, 6))
    while True:
        c = (coef(), coef(), coef())
        if c[1] != 0 or c[2] != 0:
            d = lcm(*(x.denominator for x in c))
            return tuple(int(x * d) for x in c)


def kernel_outcome(kernel, *args):
    """What a kernel returns, as printed, or the type and message of the
    ValueError it raises."""
    try:
        out = kernel(*args)
    except ValueError as e:
        return type(e), str(e)
    return repr(out.vertices if isinstance(out, Polygon2) else out)


planted_coord = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
planted_point = st.tuples(planted_coord, planted_coord)


@st.composite
def planted_slack(draw, loose: bool):
    """Slack matrix of a pair with a planted triangle T: P is drawn inside
    T as convex combinations of its vertices, and every facet line of Q
    passes through a vertex of T (the zero offset), or, when ``loose``,
    is moved off T by an offset in [0, 2].  Three facet normals that
    positively span the plane keep Q bounded."""
    tri = draw(st.tuples(planted_point, planted_point, planted_point).filter(lambda t: orient(*t) != 0))
    weights = st.tuples(*[st.integers(0, 6)] * 3).filter(any)
    inner = [
        tuple(sum(Fraction(wk, sum(w)) * v[c] for wk, v in zip(w, tri)) for c in (0, 1))
        for w in draw(st.lists(weights, min_size=3, max_size=7))
    ]
    normals = [(1, 0), (0, 1), (-1, -1)] + draw(
        st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(any), max_size=5)
    )
    rows = []
    for nx, ny in normals:
        c = min(nx * x + ny * y for x, y in tri)
        if loose:
            c -= draw(st.builds(Fraction, st.integers(0, 4), st.just(2)))
        rows.append([nx * x + ny * y - c for x, y in inner])
    return ExactMatrix(rows)


class TestPlantedTriangle:
    """A slack matrix factors through any triangle T with P inside T
    inside Q: A holds the slacks of T's vertices against Q's facets and B
    the barycentric coordinates of P's points in T.  So the search must
    find a triangle, even when T's vertices lie on Q's edges."""

    @staticmethod
    def assert_factored(m: ExactMatrix):
        ok, witness = nn_rank_at_most_3(m)
        assert ok
        a, b = witness
        assert (a.q, b.p) == (3, 3)
        assert a.is_nonnegative() and b.is_nonnegative()
        assert matmul(a, b) == m

    @settings(max_examples=150, deadline=None)
    @given(planted_slack(loose=False))
    def test_tight_triangle_is_found(self, m):
        self.assert_factored(m)

    @settings(max_examples=100, deadline=None)
    @given(planted_slack(loose=True))
    def test_loose_triangle_is_found(self, m):
        self.assert_factored(m)


class TestIntegerKernelsAgainstFractionOracles:
    """exit_point and polygon_from_halfplanes on integers against the same
    kernels in Fraction arithmetic: equal points print the same."""

    def test_exit_point_on_random_polygons(self, rng):
        for trial in range(300):
            outer = drawn_polygon(lambda: [rnd_big_point(rng) if trial % 2 else rnd_point(rng)
                                           for _ in range(rng.randint(3, 8))])
            vs = outer.vertices
            weights = [rng.randint(0, 3) for _ in vs]
            weights[rng.randrange(len(vs))] += 1
            inside = tuple(sum(w * v[c] for w, v in zip(weights, vs)) / sum(weights) for c in (0, 1))
            for v in (inside, vs[0]):
                towards = rnd_point(rng) if trial % 3 else vs[rng.randrange(len(vs))]
                if towards == v:
                    continue
                assert repr(exit_of(v, towards, outer)) == repr(chord_exit_by_fractions(v, towards, outer))

    def test_exit_point_on_int_points(self, rng):
        for _ in range(200):
            outer = drawn_polygon(lambda: [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(6)])
            v = next((x, y) for x in range(-9, 10) for y in range(-9, 10) if outer.contains_point((x, y)))
            towards = (rng.randint(-9, 9), rng.randint(-9, 9))
            if towards != v:
                assert kernel_outcome(exit_of, v, towards, outer) == kernel_outcome(
                    chord_exit_by_fractions, v, towards, outer)

    def test_undirected_chord_is_refused(self):
        """A ray from v through v itself has no direction: no facet bounds
        it, and the kernel refuses it as it refuses a ray that never leaves."""
        square = Polygon2([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert kernel_outcome(exit_of, (0, 0), (0, 0), square) == (
            ValueError, "ray never leaves the polygon; outer must be bounded")
        assert kernel_outcome(chord_exit_by_fractions, (0, 0), (0, 0), square) == (ValueError, "undirected chord")

    def test_polygon_from_random_halfplanes(self, rng):
        """Random constraints with parallel and duplicate facets: bounded,
        unbounded and empty regions all occur."""
        kinds = {"bounded": 0, "unbounded": 0, "empty": 0}
        for trial in range(400):
            lines = [rnd_line(rng, big=trial % 2 == 1) for _ in range(rng.randint(1, 6))]
            for _ in range(rng.randint(0, 3)):
                c0, cx, cy = rng.choice(lines)
                k = rng.randint(1, 9)
                lines.append(rng.choice([
                    (c0, cx, cy),  # a duplicate
                    (k * c0, k * cx, k * cy),  # the same line, scaled
                    (c0 + k, cx, cy),  # parallel, facing the same way
                    (k - c0, -cx, -cy),  # parallel, facing the other way
                ]))
            rng.shuffle(lines)
            got = kernel_outcome(polygon_from_halfplanes, lines)
            assert got == kernel_outcome(polygon_from_halfplanes_by_fractions, lines)
            kinds["bounded" if isinstance(got, str) else
                  "unbounded" if got[0] is UnboundedRegionError else "empty"] += 1
        assert min(kinds.values()) >= 20, kinds

    def test_polygon_from_lines_through_vertices(self, rng):
        """The facet lines of random polygons, scaled, with lines through a
        vertex added: a supporting line that touches only there, a line
        that cuts the polygon there, and the reverse of a facet or of the
        supporting line, which leave a segment or a point and are
        refused."""
        kinds = set()
        for trial in range(300):
            poly = rnd_polygon(rng, rng.randint(3, 7)) if trial % 2 else drawn_polygon(
                lambda: [rnd_big_point(rng) for _ in range(rng.randint(3, 6))])
            lines = [tuple(k * c for c in line) for k, line in zip([rng.randint(1, 5) for _ in poly.lines], poly.lines)]
            i = rng.randrange(poly.n)
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            touching = tuple(a * x + b * y for x, y in zip(poly.lines[i - 1], poly.lines[i]))
            lines.append(touching)
            kind, extra = rng.choice([
                ("cut", tuple(a * x - b * y for x, y in zip(poly.lines[i - 1], poly.lines[i]))),  # at vertex i
                ("segment", tuple(-c for c in poly.lines[i])),  # leaves edge i
                ("point", tuple(-c for c in touching)),  # leaves vertex i
                ("touching", touching),
            ])
            lines.append(extra)
            rng.shuffle(lines)
            got = kernel_outcome(polygon_from_halfplanes, lines)
            assert got == kernel_outcome(polygon_from_halfplanes_by_fractions, lines)
            kinds.add((kind, "polygon" if isinstance(got, str) else got))
        refused = (ValueError, "intersection of half-planes is empty, a point or a segment")
        assert kinds == {("cut", "polygon"), ("touching", "polygon"), ("segment", refused), ("point", refused)}, kinds

    @pytest.mark.parametrize("lines", [
        [],
        [(0, 1, 0), (0, 0, 1)],
        [(14, -12, 105), (14, 4, -35)],
        [(-1, 1, 0), (-1, -1, 0), (1, 0, 1), (1, 0, -1)],
        [(-1, 1, 0), (0, -1, 0)],
        [(0, 1, 0), (0, 0, 1), (1, -1, -1), (2, -2, -2)],
        [(0, 3, 0), (0, 0, 5), (7, -7, -7)],
        [(0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (3, 1, 0), (2, -1, 0)],
        [(0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, 1)],
        [(0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1)],
        [(0, 1, 0), (0, 0, 1), (0, 1, -1), (0, 2, -1), (2, -1, -1)],
        [(0, 1, 0), (0, 0, 1), (0, -1, -1)],
        [(0, 2, 0), (0, 0, 1), (0, -1, -1), (0, -1, 1), (0, 1, 1)],
        [(0, 1, 0), (0, -1, 0), (0, 0, 1), (1, 0, -1)],
        [(0, 2, 0), (0, -3, 0), (0, 0, 1), (1, 0, -1), (0, 1, 1), (1, 1, -1)],
        [(0, 1, 0), (1, 0, 0)],
    ], ids=["none", "quadrant", "strip", "empty", "empty-unbounded", "triangle-duplicate-facet",
            "triangle-scaled", "square-parallel-facets", "square-touching-line", "square-cut-through-a-vertex",
            "three-lines-through-a-vertex", "point", "point-five-lines", "segment", "segment-touching-lines",
            "zero-normal"])
    def test_polygon_from_halfplanes_edge_cases(self, lines):
        assert kernel_outcome(polygon_from_halfplanes, lines) == kernel_outcome(
            polygon_from_halfplanes_by_fractions, lines)

    def test_nnrank3_corpus_witnesses(self, monkeypatch):
        """A sample of the benchmark's nnrank3 corpus at both corpus seeds
        decides with the same witness under the Fraction kernels and the
        Fraction-point triangle search."""
        monkeypatch.syspath_prepend(str(BENCH))
        import corpus

        cases = [c for seed in (corpus.DEFAULT_CORPUS_SEED, corpus.HELD_OUT_CORPUS_SEED)
                 for c in corpus.nnrank3(seed)[::6]]
        matrices = [ExactMatrix(c.rows) for c in cases]
        integer = [repr(nn_rank_at_most_3(m)) for m in matrices]
        monkeypatch.setattr(nncomplete.geometry, "matmul", matmul_by_fractions)
        monkeypatch.setattr(nncomplete.geometry, "nested_triangle", nested_triangle_by_fractions)
        monkeypatch.setattr(nncomplete.geometry, "polygon_from_halfplanes", polygon_from_halfplanes_by_fractions)
        assert [repr(nn_rank_at_most_3(m)) for m in matrices] == integer
        assert {w.startswith("(True") for w in integer} == {True, False}

    def test_nested_triangle_against_the_fraction_point_search(self, rng, monkeypatch):
        """The search on integer triples returns the reference's triangle,
        vertex for vertex, or None with it: on the planted and n-gon pairs
        of the nnrank3 corpus at both corpus seeds and on random nested
        pairs, whose inner polygon may be a triangle."""
        monkeypatch.syspath_prepend(str(BENCH))
        import corpus

        pairs = [bounded_nested_pair(ExactMatrix(c.rows))
                 for seed in (corpus.DEFAULT_CORPUS_SEED, corpus.HELD_OUT_CORPUS_SEED) for c in corpus.nnrank3(seed)]
        pairs += [rnd_nested_pair(rng) for _ in range(300)]
        outcomes = []
        for pair in pairs:
            got = kernel_outcome(nested_triangle, pair)
            assert got == kernel_outcome(nested_triangle_by_fractions, pair)
            outcomes.append((got == "None", pair.inner.n == 3))
        assert set(outcomes) == {(True, False), (False, False), (False, True)}


class TestSearchOnIntegerTriples:
    """The triangle search carries its points as integer triples and
    builds Fractions only for the triangle it returns."""

    def test_search_without_a_triangle_builds_no_fraction(self, monkeypatch):
        """nnrank3-ngon-00 of the corpus is a pair of 12-gons with no
        nested triangle, so every anchor is tried.  The search reads Q's
        edge lines from the polygon, so neither a first nor a second
        search on the pair builds a Fraction."""
        monkeypatch.syspath_prepend(str(BENCH))
        import corpus

        case = next(c for c in corpus.nnrank3(corpus.DEFAULT_CORPUS_SEED) if c.id == "nnrank3-ngon-00")
        pair = bounded_nested_pair(ExactMatrix(case.rows))
        assert (pair.inner.n, pair.outer.n) == (12, 12)
        assert fractions_made(Fraction, 1, 3) == 1  # the count sees a Fraction
        assert fractions_made(nested_triangle, pair) == 0
        assert nested_triangle(pair) is None
        assert fractions_made(nested_triangle, pair) == 0

    def test_found_triangle_builds_no_fraction(self, unique_nmf_matrix):
        """A polygon keeps its triples: the triangle the search returns
        builds its Fraction vertices on first read, and only once."""
        pair = bounded_nested_pair(unique_nmf_matrix)
        assert fractions_made(nested_triangle, pair) == 0
        tri = nested_triangle(pair)
        assert fractions_made(lambda: tri.vertices) == 6
        assert fractions_made(lambda: tri.vertices) == 0

    def test_decision_builds_fractions_only_for_its_witness(self, monkeypatch):
        """A pair keeps its generators as triples, so a rank-3 decision on
        the nnrank3 corpus builds no Fraction but the entries of a True
        answer's witness (3*(p + q)), and reads no generator as a point."""
        monkeypatch.syspath_prepend(str(BENCH))
        import corpus

        for case_id in ("nnrank3-planted-00", "nnrank3-ngon-00"):
            m = ExactMatrix(next(c for c in corpus.nnrank3(corpus.DEFAULT_CORPUS_SEED) if c.id == case_id).rows)
            found = nn_rank_at_most_3(m)[0]
            assert found == (case_id == "nnrank3-planted-00")
            assert fractions_made(nn_rank_at_most_3, m) == (3 * (m.p + m.q) if found else 0)
        pair = bounded_nested_pair(m)
        assert "inner_generators" not in vars(pair)
        assert pair.inner_generators == [(Fraction(x, w), Fraction(y, w)) for w, x, y in pair.generators]

    def test_polygon_lines_are_the_facet_lines(self, rng):
        """Each edge's integer line is a positive multiple of its facet's,
        and primitive: the polygon of the facet lines, each scaled, keeps
        the same lines."""
        for trial in range(100):
            poly = rnd_polygon(rng, rng.randint(3, 8)) if trial % 2 else drawn_polygon(
                lambda: [rnd_big_point(rng) for _ in range(rng.randint(3, 8))])
            for line, hp in zip(poly.lines, facets(poly)):
                assert not any(cross(line, (hp.c0, hp.cx, hp.cy)))
                assert _sign(line[1]) == _sign(hp.cx) and _sign(line[2]) == _sign(hp.cy)
                assert gcd(*line) == 1
            scaled = [tuple(k * c for c in line) for k, line in zip(range(2, 2 + poly.n), poly.lines)]
            assert polygon_from_halfplanes(scaled).lines == poly.lines

    def test_polygon_triples_are_lowest_terms(self, rng):
        for trial in range(200):
            if trial % 5 == 0:
                poly = drawn_polygon(lambda: [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(rng.randint(3, 7))])
            else:
                poly = drawn_polygon(lambda: [rnd_big_point(rng) if trial % 2 else rnd_point(rng)
                                              for _ in range(rng.randint(3, 7))])
            assert len(poly.triples) == poly.n
            for (w, x, y), v in zip(poly.triples, poly.vertices):
                assert w > 0 and gcd(w, x, y) == 1
                assert (Fraction(x, w), Fraction(y, w)) == v


def slice_outcome(build, lift, m):
    """The pair that build makes of m (its polygons, generators and
    lines), the triangle the search finds in it and the witness that lift
    makes of that triangle, as printed; or the type and message of the
    error raised."""
    try:
        pair = build(m)
        tri = nested_triangle(pair)
        witness = tri and lift(pair, tri, m)
    except (ValueError, VerificationError) as e:
        return type(e), str(e)
    return repr((pair.inner.vertices, pair.outer.vertices, pair.inner_generators, pair.outer_lines,
                 tri and tri.vertices, witness))


def scaled_rows_and_columns(rng, m: ExactMatrix) -> ExactMatrix:
    """m with each row and each column times its own rational, so the
    entries have independent denominators of up to 40 bits."""
    r = [Fraction(rng.randint(1, 2**40), rng.randint(1, 2**40)) for _ in range(m.p)]
    c = [Fraction(rng.randint(1, 2**40), rng.randint(1, 2**40)) for _ in range(m.q)]
    return ExactMatrix([[x * ri * cj for x, cj in zip(row, c)] for row, ri in zip(m.to_lists(), r)])


class TestSliceOnIntegers:
    """`bounded_nested_pair` and `triangle_to_factorization` compute on
    integers: one adjugate of a 3x3 block of m for the pair, cross
    products of the triangle's lifted vertices for the witness.  They
    agree, byte for byte, with the Fraction-matrix references, which
    solve for the column basis and invert the chart and the triangle."""

    def assert_same_slice(self, matrices) -> set:
        """Each matrix's outcome against the reference's; the set of
        (found a triangle, raised) seen."""
        seen = set()
        for m in matrices:
            got = slice_outcome(bounded_nested_pair, triangle_to_factorization, m)
            assert got == slice_outcome(bounded_nested_pair_by_fractions, triangle_to_factorization_by_fractions, m)
            seen.add((isinstance(got, str) and not got.endswith("None, None)"), not isinstance(got, str)))
        return seen

    def test_nnrank3_corpus(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))
        import corpus

        matrices = [ExactMatrix(c.rows) for seed in (corpus.DEFAULT_CORPUS_SEED, corpus.HELD_OUT_CORPUS_SEED)
                    for c in corpus.nnrank3(seed)]
        assert self.assert_same_slice(matrices) == {(True, False), (False, False)}

    def test_zero_fills_of_the_products_corpus(self, monkeypatch):
        """The rank-3 zero fills of the products corpus at both corpus
        seeds, the full matrices that the two-hole decision tests first."""
        monkeypatch.syspath_prepend(str(BENCH))
        import corpus

        fills = [ExactMatrix([[0 if x is None else x for x in row] for row in c.rows])
                 for seed in (corpus.DEFAULT_CORPUS_SEED, corpus.HELD_OUT_CORPUS_SEED) for c in corpus.products(seed)]
        fills = [m for m in fills if rank(m) == 3]
        assert len(fills) >= 40
        assert self.assert_same_slice(fills) == {(True, False)}

    @pytest.mark.parametrize("shape", [(3, 3), (4, 4), (4, 12), (12, 4)], ids=["3x3", "4x4", "4x12", "12x4"])
    def test_independent_denominators(self, rng, shape):
        """Rank-3 products, and some rank-4 ones that both refuse, with
        every row and column scaled by its own rational."""
        p, q = shape
        matrices = [scaled_rows_and_columns(rng, rnd_nonneg_product(rng, p, q, 3 + (k % 5 == 4) * (min(p, q) > 3)))
                    for k in range(30)]
        seen = self.assert_same_slice([m for m in matrices if rank(m) >= 3])
        assert (True, False) in seen and ((False, True) in seen) == (min(p, q) > 3)

    def test_zero_columns(self, rng):
        matrices = []
        for _ in range(30):
            m = rnd_nonneg_product(rng, 4, 5, 3)
            cols = [m.col(k) for k in range(1, 6)]
            cols.insert(rng.randint(0, 5), [0] * 4)
            matrices.append(ExactMatrix(zip(*cols)))
        assert (True, False) in self.assert_same_slice([m for m in matrices if rank(m) == 3])

    def test_witness_builds_one_fraction_per_entry(self, unique_nmf_matrix):
        """The lift checks signs and the product on integers, then builds
        the 3(p+q) entries of the witness and no other Fraction."""
        m = unique_nmf_matrix
        pair = bounded_nested_pair(m)
        tri = nested_triangle(pair)
        assert fractions_made(triangle_to_factorization, pair, tri, m) == 3 * (m.p + m.q)

    def test_rank3_decision_eliminates_once(self, monkeypatch, unique_nmf_matrix, perturbed_full):
        """On a rank-3 input the decision runs one elimination, for the
        pivot columns, and no solve, inverse or matrix product."""
        eliminations = []
        echelon = nncomplete.linalg._echelon
        monkeypatch.setattr(nncomplete.linalg, "_echelon", lambda rows: eliminations.append(1) or echelon(rows))

        def refuse(*args):
            raise AssertionError("called on a rank-3 decision")

        for name in ("solve_linear", "inverse", "matmul"):
            monkeypatch.setattr(nncomplete.linalg, name, refuse)
            monkeypatch.setattr(nncomplete.geometry, name, refuse, raising=False)
        for m, found in ((unique_nmf_matrix, True), (perturbed_full, False)):
            eliminations.clear()
            ok, witness = nn_rank_at_most_3(m)
            assert ok == found and len(eliminations) == 1
        monkeypatch.undo()
        assert matmul(*nn_rank_at_most_3(unique_nmf_matrix)[1]) == unique_nmf_matrix

    def test_rank3_decision_scales_each_row_once(self, monkeypatch, unique_nmf_matrix, perturbed_full):
        """The slice reads the rows that the pivot elimination scaled to
        integers, so a rank-3 decision scales each row of m once."""
        scaled = []
        integer_scaled = nncomplete.linalg.integer_scaled

        def spy(xs):
            scaled.append(1)
            return integer_scaled(xs)

        monkeypatch.setattr(nncomplete.linalg, "integer_scaled", spy)
        monkeypatch.setattr(nncomplete.geometry, "integer_scaled", spy)
        for m, found in ((unique_nmf_matrix, True), (perturbed_full, False)):
            scaled.clear()
            assert nn_rank_at_most_3(m)[0] == found
            assert len(scaled) == m.p

    def test_sum_chart_inverse(self):
        assert matmul(SUM_CHART, SUM_CHART_INVERSE) == ExactMatrix.identity(3)
        assert matmul(SUM_CHART_INVERSE, SUM_CHART) == ExactMatrix.identity(3)


class TestRefusesBinaryFloats:
    """Like ExactMatrix, the geometry constructors take ints, Fractions and
    strings, and refuse a binary float instead of reading its exact value."""

    @pytest.mark.parametrize("build", [
        lambda: polygon_from_halfplanes([(0.1, 1, 0), (0, 0, 1), (1, -1, -1)]),
        lambda: Polygon2.from_points([(0.1, 0), (1, 0), (0, 1)]),
        lambda: Polygon2([(0.1, 0), (1, 0), (0, 1)]),
        lambda: Polygon2([(0, 0), (1, 0), (0, 1)]).contains_point((0.1, 0)),
        lambda: Polygon2.triangle((0.1, 0), (1, 0), (0, 1)),
    ], ids=["polygon_from_halfplanes", "from_points", "Polygon2", "contains_point", "Triangle"])
    def test_float_raises_type_error(self, build):
        with pytest.raises(TypeError, match="refusing float 0.1"):
            build()

    def test_strings_and_ints_still_accepted(self):
        assert Polygon2.triangle(("1/2", 0), (1, 0), (0, 1)).vertices[0] == (Fraction(1, 2), 0)
