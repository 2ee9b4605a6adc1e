from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from nncomplete import (
    SUM_CHART,
    ExactMatrix,
    HalfPlane,
    NestedPair,
    Polygon2,
    Triangle,
    UnboundedRegionError,
    VerificationError,
    contains,
    convex_hull,
    matmul,
    nested_triangle,
    nn_rank_at_most_3,
    polygon_from_halfplanes,
    polytopes_from_factorization,
    rank,
    slack_matrix,
    tangent_vertex,
    triangle_to_factorization,
)
import nncomplete.geometry
from nncomplete.geometry import bounded_nested_pair, chord_exit, cross, join, meet, side

from conftest import rnd_fraction, rnd_nonneg_product
from oracles import (
    _lines_meet,
    chord_exit_by_fractions,
    matmul_by_fractions,
    nmf_residual,
    orient,
    polygon_from_halfplanes_by_fractions,
    rotation_grid_triangle,
    tangent_vertex_brute,
    verify_triangle,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def rnd_point(rng, lo=-8, hi=8):
    return (rnd_fraction(rng, lo, hi), rnd_fraction(rng, lo, hi))


def rnd_polygon(rng, k, lo=-8, hi=8) -> Polygon2:
    return Polygon2.from_points([rnd_point(rng, lo, hi) for _ in range(k)])


def rnd_nested_pair(rng) -> NestedPair:
    """Inner polygon from random convex combinations of the outer's
    vertices; nesting holds by construction."""
    outer = rnd_polygon(rng, rng.randint(3, 8))
    while outer.is_degenerate():
        outer = rnd_polygon(rng, rng.randint(3, 8))
    pts = []
    for _ in range(rng.randint(1, 6)):
        weights = [Fraction(rng.randint(0, 5)) for _ in outer.vertices]
        if sum(weights) == 0:
            weights[0] = Fraction(1)
        s = sum(weights)
        pts.append(
            (
                sum(w * v[0] for w, v in zip(weights, outer.vertices)) / s,
                sum(w * v[1] for w, v in zip(weights, outer.vertices)) / s,
            )
        )
    return NestedPair(Polygon2.from_points(pts), outer)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


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

    @settings(max_examples=300, deadline=None)
    @given(big_rational, big_rational, big_rational, big_point, st.booleans())
    def test_halfplane_sign_is_sign_of_value(self, c0, cx, cy, p, on_line):
        assume(cx != 0 or cy != 0)
        hp = HalfPlane(c0, cx, cy)
        if on_line:
            p = (p[0], -(c0 + cx * p[0]) / cy) if cy != 0 else (-(c0 + cy * p[1]) / cx, p[1])
            assert hp.sign(p) == 0
        assert hp.sign(p) == _sign(hp.value(p))
        assert hp.contains(p) == (hp.value(p) >= 0)


class TestLineHelpers:
    """join and meet, one cross product each, against the orientation
    determinant and Cramer's rule."""

    def test_cross_of_unit_vectors(self):
        assert cross((1, 0, 0), (0, 1, 0)) == (0, 0, 1)
        assert cross((0, 1, 0), (1, 0, 0)) == (0, 0, -1)
        assert cross((2, 3, 5), (4, 6, 10)) == (0, 0, 0)

    @settings(max_examples=300, deadline=None)
    @given(big_point, big_point, big_point, big_rational, st.booleans())
    def test_join_sign_is_side(self, a, b, c, k, collinear):
        if collinear:
            c = (a[0] + k * (b[0] - a[0]), a[1] + k * (b[1] - a[1]))
        c0, cx, cy = join(a, b)
        assert _sign(c0 + cx * c[0] + cy * c[1]) == side(a, b, c) == _sign(orient(a, b, c))

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

    def test_meet_of_integer_lines_is_a_fraction_point(self):
        # x = 1 and y = 2 as integer lines (c0, cx, cy)
        assert meet((-1, 1, 0), (-2, 0, 1)) == (Fraction(1), Fraction(2))
        assert all(isinstance(c, Fraction) for c in meet((-1, 2, 0), (-1, 0, 3)))
        assert meet((-1, 1, 0), (-2, 1, 0)) is None

    @settings(max_examples=200, deadline=None)
    @given(small_point, small_point)
    def test_halfplane_through_is_join(self, a, b):
        if a == b:
            assert join(a, b) == (0, 0, 0)
            with pytest.raises(ValueError, match="distinct"):
                HalfPlane.through(a, b)
            return
        hp = HalfPlane.through(a, b)
        assert (hp.c0, hp.cx, hp.cy) == join(a, b)


class TestTangentVertex:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(small_point, min_size=1, max_size=8),
        small_point,
        st.integers(0, 7),
        st.builds(Fraction, st.integers(0, 6), st.integers(1, 6)),
        st.sampled_from(["free", "vertex", "edge"]),
    )
    def test_agrees_with_brute_force(self, pts, free, i, lam, where):
        poly = Polygon2.from_points(pts)
        vs = poly.vertices
        a, b = vs[i % len(vs)], vs[(i + 1) % len(vs)]
        lam = min(lam, Fraction(1))
        v = {
            "free": free,
            "vertex": a,
            "edge": (a[0] + lam * (b[0] - a[0]), a[1] + lam * (b[1] - a[1])),
        }[where]
        assume(not (poly.n == 1 and v == vs[0]))
        expected = tangent_vertex_brute(v, vs)
        if expected is None:
            with pytest.raises(ValueError):
                tangent_vertex(v, poly)
        else:
            assert tangent_vertex(v, poly) == expected


class TestFacetCache:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(small_point, min_size=3, max_size=8))
    def test_repeated_calls_equal_and_independent(self, pts):
        poly = Polygon2.from_points(pts)
        assume(not poly.is_degenerate())
        fresh = [HalfPlane.through(a, b) for (a, b) in poly.edges()]
        first = poly.facets()
        assert first == fresh
        first.append(HalfPlane(0, 1, 0))
        first[0] = HalfPlane(0, 0, 1)
        second = poly.facets()
        assert second == fresh
        second.clear()
        assert poly.facets() == fresh


class TestHullAndPolygon:
    def test_hull_is_ccw_and_minimal(self):
        pts = [(0, 0), (4, 0), (4, 4), (0, 4), (2, 2), (1, 1), (4, 2)]
        assert convex_hull(pts) == [(0, 0), (4, 0), (4, 4), (0, 4)]

    def test_collinear_collapses(self):
        assert convex_hull([(0, 0), (1, 1), (2, 2)]) == [(0, 0), (2, 2)]
        assert convex_hull([(1, 1), (1, 1)]) == [(1, 1)]

    def test_containment_degenerate_cases(self):
        seg = Polygon2([(0, 0), (2, 2)])
        assert seg.contains_point((1, 1))
        assert not seg.contains_point((1, 0))
        point = Polygon2([(3, 3)])
        assert point.contains_point((3, 3))

    def test_rejects_non_convex_order(self):
        with pytest.raises(ValueError):
            Polygon2([(0, 0), (0, 4), (4, 0)])  # clockwise


class TestHalfPlanes:
    def test_polygon_round_trip(self, rng):
        for _ in range(60):
            poly = rnd_polygon(rng, rng.randint(3, 7))
            if poly.is_degenerate():
                continue
            back = polygon_from_halfplanes(poly.facets())
            assert back == poly

    def test_unbounded_detected(self):
        with pytest.raises(UnboundedRegionError):
            polygon_from_halfplanes([HalfPlane(0, 1, 0), HalfPlane(0, 0, 1)])

    def test_empty_detected(self):
        with pytest.raises(ValueError):
            polygon_from_halfplanes(
                [HalfPlane(-1, 1, 0), HalfPlane(-1, -1, 0), HalfPlane(1, 0, 1), HalfPlane(1, 0, -1)]
            )


class TestSlackMatrix:
    def test_nonnegative_iff_contained(self, rng):
        nested = separated = 0
        for _ in range(500):
            outer = rnd_polygon(rng, rng.randint(3, 7))
            if outer.is_degenerate():
                continue
            if rng.random() < 0.5:
                pair = rnd_nested_pair(rng)
            else:
                pair = NestedPair(rnd_polygon(rng, rng.randint(1, 6)), outer)
            ok = contains(pair.outer, pair.inner)
            slack_ok = slack_matrix(pair).is_nonnegative()
            assert ok == slack_ok
            nested += ok
            separated += not ok
        assert nested > 80 and separated > 80

    def test_lines_up_with_factorization(self):
        a = ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
        b = ExactMatrix([[2, 0, 1], [0, 2, 1], [2, 2, 2]])
        pair = polytopes_from_factorization(a, b, SUM_CHART)
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
                pair = polytopes_from_factorization(a, b, SUM_CHART)
            except (UnboundedRegionError, ValueError):
                continue
            assert matmul(a, b).is_nonnegative() == slack_matrix(pair).is_nonnegative()

    def test_rejects_zero_weight_column(self):
        a = ExactMatrix.identity(3)
        b = ExactMatrix([[1, 0], [0, 0], [0, 0]])
        with pytest.raises(ValueError):
            polytopes_from_factorization(a, b, SUM_CHART)  # column 2 weight 0


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

    def test_point_inner(self):
        outer = Polygon2([(0, 0), (4, 0), (4, 4), (0, 4)])
        tri = nested_triangle(NestedPair(Polygon2([(2, 2)]), outer))
        assert tri is not None and tri.contains_point((2, 2))

    def test_tight_square_in_square_has_none(self):
        # inner square with vertices at the edge midpoints of the outer:
        # every triangle containing it pokes out of the outer square
        outer = Polygon2([(0, 0), (2, 0), (2, 2), (0, 2)])
        inner = Polygon2([(1, 0), (2, 1), (1, 2), (0, 1)])
        assert nested_triangle(NestedPair(inner, outer)) is None

    def test_tangent_vertex_basic(self):
        poly = Polygon2([(0, 0), (2, 0), (2, 2), (0, 2)])
        t = tangent_vertex((3, -1), poly)
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
        tri = Triangle((x - eps, y - eps), (x + eps, y - eps), (x, y + eps))
        assert not tri.contains_polygon(pair.inner)
        with pytest.raises(VerificationError, match="P not inside triangle"):
            triangle_to_factorization(pair, tri, m)
        assert not issubclass(VerificationError, ValueError)


def rnd_big_point(rng):
    """A point whose coordinates have numerators and denominators of up
    to 60 bits."""
    return tuple(Fraction(rng.randint(-(2**60), 2**60), rng.randint(1, 2**60)) for _ in range(2))


def rnd_halfplane(rng, big) -> HalfPlane:
    coef = (lambda: rnd_big_point(rng)[0]) if big else (lambda: rnd_fraction(rng, -6, 6))
    while True:
        c0, cx, cy = coef(), coef(), coef()
        if cx != 0 or cy != 0:
            return HalfPlane(c0, cx, cy)


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
    """chord_exit and polygon_from_halfplanes on integers against the same
    kernels in Fraction arithmetic: equal points print the same."""

    def test_chord_exit_on_random_polygons(self, rng):
        for trial in range(300):
            outer = Polygon2.from_points([rnd_big_point(rng) if trial % 2 else rnd_point(rng)
                                          for _ in range(rng.randint(3, 8))])
            if outer.is_degenerate():
                continue
            vs = outer.vertices
            weights = [rng.randint(0, 3) for _ in vs]
            weights[rng.randrange(len(vs))] += 1
            inside = tuple(sum(w * v[c] for w, v in zip(weights, vs)) / sum(weights) for c in (0, 1))
            for v in (inside, vs[0]):
                towards = rnd_point(rng) if trial % 3 else vs[rng.randrange(len(vs))]
                if towards == v:
                    continue
                assert repr(chord_exit(v, towards, outer)) == repr(chord_exit_by_fractions(v, towards, outer))

    def test_chord_exit_on_int_points(self, rng):
        for _ in range(200):
            outer = Polygon2.from_points([(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(6)])
            if outer.is_degenerate():
                continue
            v = next((x, y) for x in range(-9, 10) for y in range(-9, 10) if outer.contains_point((x, y)))
            towards = (rng.randint(-9, 9), rng.randint(-9, 9))
            assert kernel_outcome(chord_exit, v, towards, outer) == kernel_outcome(
                chord_exit_by_fractions, v, towards, outer)

    def test_undirected_chord_is_refused(self):
        square = Polygon2([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert kernel_outcome(chord_exit, (0, 0), (0, 0), square) == (ValueError, "undirected chord")
        assert kernel_outcome(chord_exit_by_fractions, (0, 0), (0, 0), square) == (ValueError, "undirected chord")

    def test_polygon_from_random_halfplanes(self, rng):
        """Random constraints with parallel and duplicate facets: bounded,
        unbounded and empty regions all occur."""
        kinds = {"bounded": 0, "unbounded": 0, "empty": 0}
        for trial in range(400):
            hps = [rnd_halfplane(rng, big=trial % 2 == 1) for _ in range(rng.randint(1, 6))]
            for _ in range(rng.randint(0, 3)):
                hp = rng.choice(hps)
                k = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                hps.append(rng.choice([
                    hp,  # a duplicate
                    HalfPlane(k * hp.c0, k * hp.cx, k * hp.cy),  # the same line, scaled
                    HalfPlane(hp.c0 + k, hp.cx, hp.cy),  # parallel, facing the same way
                    HalfPlane(k - hp.c0, -hp.cx, -hp.cy),  # parallel, facing the other way
                ]))
            rng.shuffle(hps)
            got = kernel_outcome(polygon_from_halfplanes, hps)
            assert got == kernel_outcome(polygon_from_halfplanes_by_fractions, hps)
            kinds["bounded" if isinstance(got, str) else
                  "unbounded" if got[0] is UnboundedRegionError else "empty"] += 1
        assert min(kinds.values()) >= 20, kinds

    @pytest.mark.parametrize("hps", [
        [],
        [HalfPlane(0, 1, 0), HalfPlane(0, 0, 1)],
        [HalfPlane(Fraction(1, 3), Fraction(-2, 7), Fraction(5, 2)), HalfPlane(1, Fraction(2, 7), Fraction(-5, 2))],
        [HalfPlane(-1, 1, 0), HalfPlane(-1, -1, 0), HalfPlane(1, 0, 1), HalfPlane(1, 0, -1)],
        [HalfPlane(0, 1, 0), HalfPlane(0, 0, 1), HalfPlane(1, -1, -1), HalfPlane(2, -2, -2)],
    ], ids=["none", "quadrant", "strip", "empty", "triangle-duplicate-facet"])
    def test_polygon_from_halfplanes_edge_cases(self, hps):
        assert kernel_outcome(polygon_from_halfplanes, hps) == kernel_outcome(polygon_from_halfplanes_by_fractions, hps)

    def test_nnrank3_corpus_witnesses(self, monkeypatch):
        """A sample of the benchmark's nnrank3 corpus at both corpus seeds
        decides with the same witness under the Fraction kernels."""
        monkeypatch.syspath_prepend(str(BENCH))
        import corpus

        cases = [c for seed in (corpus.DEFAULT_CORPUS_SEED, corpus.HELD_OUT_CORPUS_SEED)
                 for c in corpus.nnrank3(seed)[::6]]
        matrices = [ExactMatrix(c.rows) for c in cases]
        integer = [repr(nn_rank_at_most_3(m)) for m in matrices]
        monkeypatch.setattr(nncomplete.geometry, "matmul", matmul_by_fractions)
        monkeypatch.setattr(nncomplete.geometry, "chord_exit", chord_exit_by_fractions)
        monkeypatch.setattr(nncomplete.geometry, "polygon_from_halfplanes", polygon_from_halfplanes_by_fractions)
        assert [repr(nn_rank_at_most_3(m)) for m in matrices] == integer
        assert {w.startswith("(True") for w in integer} == {True, False}


class TestRefusesBinaryFloats:
    """Like ExactMatrix, the geometry constructors take ints, Fractions and
    strings, and refuse a binary float instead of reading its exact value."""

    @pytest.mark.parametrize("build", [
        lambda: HalfPlane(0.1, 1, 0),
        lambda: convex_hull([(0.1, 0), (1, 0), (0, 1)]),
        lambda: Polygon2([(0.1, 0), (1, 0), (0, 1)]),
        lambda: Polygon2([(0, 0), (1, 0), (0, 1)]).contains_point((0.1, 0)),
        lambda: Triangle((0.1, 0), (1, 0), (0, 1)),
    ], ids=["HalfPlane", "convex_hull", "Polygon2", "contains_point", "Triangle"])
    def test_float_raises_type_error(self, build):
        with pytest.raises(TypeError, match="refusing float 0.1"):
            build()

    def test_strings_and_ints_still_accepted(self):
        assert HalfPlane("1/2", 1, 0) == HalfPlane(Fraction(1, 2), 1, 0)
        assert Triangle(("1/2", 0), (1, 0), (0, 1)).vertices[0] == (Fraction(1, 2), 0)
