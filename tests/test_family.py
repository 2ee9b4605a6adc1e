import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nncomplete import (
    SUM_CHART,
    ExactMatrix,
    FamilyError,
    Interval,
    NestedFamily,
    PartialMatrix,
    Pattern,
    Polygon2,
    contains,
    NestedPair,
    decide_nn3_two_missing,
    family_11_21,
    family_11_22,
    feasible_set,
    inverse,
    matmul,
    nested_triangle,
    nn_rank_at_most_3,
    normalize_two_missing,
    parse_partial,
    rank,
    simplicial_sign_check,
    special_case_low_rank,
    sufficient_11_21,
    sweep_candidates,
    triangle_to_factorization,
)
import nncomplete.family
from nncomplete.geometry import cross, join
from nncomplete.family import (
    _completable_at,
    _critical_ts,
    _curve_misses_quadrant,
    _interval_sample_ts,
    _sweep_moving_vertex,
    denormalize_matrix,
)

from conftest import DATA, fractions_made, restrict, rnd_nonneg_product
from oracles import (
    FIELD,
    HalfPlane,
    critical_ts_by_rational_functions,
    defined_at,
    feasible_by_rational_functions,
    limit_at_infinity,
    line_by_rational_functions,
    rational_function_family,
    rf_at,
    rf_matrix_at,
    curve_meets_quadrant_on_grid,
    decide_two_missing_per_orientation,
    feasible_set_by_candidates,
    line_from_observed_minors,
    poles_of_11_22,
    poles_ruled_out_by_solve,
    search_order_eager,
    special_case_by_block_factorization,
    sufficient_11_21_by_meets,
    sweep_candidates_by_edges,
    sweep_refutes_by_arc,
)

F = Fraction

# a positive scalar keeps the nonnegative rank; 1009/1000 grows every
# coefficient by about ten bits, which once made root finding run away
SCALES = [F(1), F(1009, 1000)]


def scaled(m: PartialMatrix, s) -> PartialMatrix:
    return PartialMatrix(m.pattern, {k: v * s for k, v in m.values.items()})


def count_calls(monkeypatch, name: str) -> list:
    """Record the first argument of every call the decision makes to the
    module-level function ``nncomplete.family.<name>``."""
    calls = []
    original = getattr(nncomplete.family, name)

    def counting(m, *args):
        calls.append(m)
        return original(m, *args)

    monkeypatch.setattr(nncomplete.family, name, counting)
    return calls


def count_normalizations(monkeypatch) -> list:
    """Record every normalize_two_missing call the decision makes."""
    return count_calls(monkeypatch, "normalize_two_missing")


T = ((0, 1), (1, 0))  # the constraint t >= 0, as an affine pair (n, d)

coefficient = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
affine = st.tuples(coefficient, coefficient)


@st.composite
def constraint(draw):
    """An affine pair (n, d) with n/d not constant: a sign change at the
    root of each of n and d that is not constant."""
    n = draw(affine.filter(any))
    d = draw(affine.filter(lambda d: any(d) and n[0] * d[1] != n[1] * d[0]))
    return n, d


def as_rational_function(nd):
    """The constraint (n, d) as the element n(t)/d(t) of QQ(t)."""
    (n0, n1), (d0, d1) = nd
    t = FIELD.gens[0]
    return (n0 + n1 * t) / (d0 + d1 * t)


class TestFeasibleSet:
    def test_half_line(self):
        assert feasible_set([T]) == [Interval(F(0), None)]

    def test_bounded_segment(self):
        ivs = feasible_set([T, ((1, -1), (1, 0))])
        assert ivs == [Interval(F(0), F(1))]

    def test_pole_punches_open_end(self):
        # 1/(1-t) >= 0 on (-inf, 1); t >= 0 cuts it to [0, 1)
        ivs = feasible_set([((1, 0), (1, -1)), T])
        assert ivs == [Interval(F(0), F(1), hi_open=True)]

    def test_empty(self):
        assert feasible_set([((-1, 0), (1, 0))]) == []

    def test_everything(self):
        assert feasible_set([((2, 0), (1, 0))]) == [Interval(None, None)]

    def test_isolated_point(self):
        # t >= 0 and -t >= 0 only at t = 0
        assert feasible_set([T, ((0, -1), (1, 0))]) == [Interval(F(0), F(0))]

    def test_cancelled_pole_stays_excluded(self):
        # (2t - 2)/(t - 1) is 2 wherever it is defined, which is t != 1
        assert feasible_set([((-2, 2), (-1, 1))]) == [
            Interval(None, F(1), hi_open=True),
            Interval(F(1), None, lo_open=True),
        ]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(constraint(), min_size=1, max_size=3))
    def test_walk_matches_candidate_intervals(self, constraints):
        reference = feasible_set_by_candidates([as_rational_function(nd) for nd in constraints])
        assert feasible_set(constraints) == reference


def point_of_v1(fam):
    """The point of v1, the moving vertex's limit as t -> +-infinity, or
    None when w1 = 0 and the limit is at infinity."""
    w1, y1, z1 = fam.moving_vertex[1]
    return (F(y1) / w1, F(z1) / w1) if w1 else None


class TestColumnHolesFamily:
    """Regression data for the fixture with both holes in column 1."""

    def test_fixed_geometry(self, two_missing_column):
        fam = family_11_21(two_missing_column)
        assert fam.fixed_inner_points == [
            (F(0), F(0)),
            (F(1, 20), F(0)),
            (F(0), F(1, 20)),
        ]
        assert set(fam.fixed_outer.vertices) == {
            (F(-17, 480), F(13, 480)),
            (F(13, 480), F(-17, 480)),
            (F(11, 160), F(1, 160)),
            (F(1, 160), F(11, 160)),
        }

    def test_moving_vertex_line(self, two_missing_column):
        fam = family_11_21(two_missing_column)
        c0, cx, cy = fam.line_p1
        # proportional to x + y - 3/40 = 0
        assert cx == cy != 0
        assert F(c0, cx) == F(-3, 40)
        # the closed-form transcription gives the same line
        alt = line_from_observed_minors(two_missing_column)
        assert alt.c0 * cx == c0 * alt.cx
        assert alt.cy * cx == cy * alt.cx

    def test_feasible_interval(self, two_missing_column):
        fam = family_11_21(two_missing_column)
        assert fam.feasible == [Interval(None, F(-1, 20))]

    def test_moving_vertex_endpoints(self, two_missing_column):
        fam = family_11_21(two_missing_column)
        assert fam.vertex_at(F(-1, 20)) == (F(11, 160), F(1, 160))
        # the other end, as t -> -infinity, is the point of v1
        assert point_of_v1(fam) == (F(1, 160), F(11, 160))

    def test_symbolic_product_matches_observations(self, two_missing_column, rng):
        fam = family_11_21(two_missing_column)
        for _ in range(5):
            t = F(rng.randint(-40, 40), rng.randint(1, 9))
            full = fam.completion_at(t)
            assert two_missing_column.agrees_with(full)
            assert rank(full) <= 3

    def test_moving_vertex_stays_on_line(self, two_missing_column, rng):
        fam = family_11_21(two_missing_column)
        line = HalfPlane(*fam.line_p1)
        for _ in range(5):
            t = F(rng.randint(-60, 60), rng.randint(1, 7))
            try:
                assert line.value(fam.vertex_at(t)) == 0
            except ZeroDivisionError:
                pass

    def test_critical_positions_present_and_fail(self, two_missing_column):
        fam = family_11_21(two_missing_column)
        criticals = {
            (F(11, 160), F(1, 160)),
            (F(3, 160), F(9, 160)),
            (F(13, 800), F(47, 800)),
            (F(17, 1120), F(67, 1120)),
            (F(1, 160), F(11, 160)),
        }
        # the limit of the vertex is no candidate, since no t attains it
        limit = point_of_v1(fam)
        assert criticals - {limit} <= {fam.vertex_at(t) for t in sweep_candidates(fam)}
        assert limit in criticals
        for c in criticals:
            inner = Polygon2.from_points([c] + fam.fixed_inner_points)
            pair = NestedPair(inner, fam.fixed_outer)
            assert nested_triangle(pair) is None

    def test_sufficient_condition_inconclusive(self, two_missing_column):
        fam = family_11_21(two_missing_column)
        assert sufficient_11_21(fam) is None

    def test_fixed_points_lie_in_the_outer_polygon(self):
        """A >= 0 is the slack of the fixed points against the outer
        polygon's facets, so their triangle lies in it and the sufficient
        condition needs no triangle test of its own."""
        rng = random.Random(2030)
        pattern = Pattern(4, 4, frozenset(CELLS) - {(1, 1), (2, 1)})
        checked = 0
        for _ in range(300):
            full = ExactMatrix([[rng.randint(0, 9) for _ in range(4)] for _ in range(4)])
            try:
                fam = family_11_21(restrict(full, pattern))
            except FamilyError:
                continue
            assert contains(fam.fixed_outer, Polygon2.from_points(fam.fixed_inner_points))
            checked += 1
        assert checked >= 250

    def test_sweep_and_sufficient_condition_match_edge_references(self):
        """The sweep's chord ends by `chord_exit` from a fixed point and the
        sufficient condition's incidence roots agree with the edge-by-edge
        boundary intersections and the meet-then-solve t of the references:
        the vertex's positions at the sweep's candidate t are the
        reference's points, less its limit, which no t attains."""
        pattern = Pattern(4, 4, frozenset(CELLS) - {(1, 1), (2, 1)})
        with_t = with_line = 0
        for seed, hi in ((7, 9), (8, 3)):
            rng = random.Random(seed)
            for _ in range(100):
                full = ExactMatrix([[rng.randint(0, hi) for _ in range(4)] for _ in range(4)])
                try:
                    fam = family_11_21(restrict(full, pattern))
                except FamilyError:
                    continue
                t = sufficient_11_21(fam)
                assert t == sufficient_11_21_by_meets(fam)
                with_t += t is not None
                if fam.line_p1 is not None:
                    points = {fam.vertex_at(t) for t in sweep_candidates(fam)}
                    assert points == sweep_candidates_by_edges(fam) - {point_of_v1(fam)}
                    with_line += 1
        assert with_t >= 100 and with_line >= 100

    def test_sweep_over_t_matches_the_arc_sweep_reference(self):
        """The sweep over the t cells of each feasible interval answers as
        the point-space sweep along the vertex's arc, with its limit and its
        unattained end, on every interval past the facet gate.  Holes in
        one row are transposed into one column, so each draw is one
        canonical instance whichever way its holes lie."""
        compared = refuted = 0
        shapes, transposed = set(), set()
        for seed, hi in ((8, 3), (9, 2)):
            rng = random.Random(seed)
            for _ in range(1200):
                full = ExactMatrix([[rng.randint(0, hi) for _ in range(4)] for _ in range(4)])
                holes = set(rng.sample(CELLS, 2))
                canon, norm = normalize_two_missing(restrict(full, Pattern(4, 4, frozenset(CELLS) - holes)))
                if norm.tag != "11_21":
                    continue
                try:
                    fam = family_11_21(canon)
                except FamilyError:
                    continue
                line = fam.line_p1
                if line is None or all(any(cross(facet, line)) for facet in fam.fixed_outer.lines):
                    continue
                for iv in fam.feasible:
                    answer = _sweep_moving_vertex(fam, iv)
                    assert answer == sweep_refutes_by_arc(fam, iv), (canon, iv)
                    compared += 1
                    refuted += answer
                    shapes.add((iv.lo is None, iv.hi is None))
                    transposed.add(norm.transposed)
        assert compared >= 150 and refuted >= 5
        assert shapes == {(True, False), (False, True), (False, False)}
        assert transposed == {False, True}

    def test_feasible_incidence_puts_the_vertex_in_the_outer_polygon(self):
        """`sufficient_11_21` tests no point in a polygon: at a feasible
        incidence t, the t where the moving vertex meets the line of an
        edge of the fixed triangle, the vertex lies in the outer polygon."""
        seen = 0
        for seed, hi in ((8, 3), (9, 2)):
            rng = random.Random(seed)
            for _ in range(1200):
                full = ExactMatrix([[rng.randint(0, hi) for _ in range(4)] for _ in range(4)])
                holes = set(rng.sample(CELLS, 2))
                canon, norm = normalize_two_missing(restrict(full, Pattern(4, 4, frozenset(CELLS) - holes)))
                if norm.tag != "11_21":
                    continue
                try:
                    fam = family_11_21(canon)
                except FamilyError:
                    continue
                for u, v in itertools.combinations(fam.fixed_inner_points, 2):
                    t = fam.incidence_t(join(u, v))
                    if t is not None and fam.is_feasible(t):
                        assert fam.fixed_outer.contains_point(fam.vertex_at(t)), (canon, t)
                        seen += 1
        assert seen >= 1000

    @pytest.mark.parametrize("scale", SCALES, ids=["unscaled", "scaled"])
    def test_decision_not_completable(self, two_missing_column, scale):
        cert = decide_nn3_two_missing(scaled(two_missing_column, scale))
        assert cert.verdict == "NotCompletable"
        assert cert.pattern == "11_21"

    def test_feasible_samples_all_fail(self, two_missing_column):
        fam = family_11_21(two_missing_column)
        iv = fam.feasible[0]
        ts = [iv.hi - F(k, 3) for k in range(20)]
        for t in ts:
            full = fam.completion_at(t)
            if not full.is_nonnegative():
                continue
            ok, _ = nn_rank_at_most_3(full)
            assert not ok

    def test_sweep_probes_inside_each_cell(self, two_missing_column, monkeypatch):
        """The sweep refutes the one feasible interval, a half-line, by
        probing every sample t of its candidate cells: the candidates, the
        midpoints between them and the t past the last one, not the
        candidates alone."""
        fam = family_11_21(two_missing_column)
        (iv,) = fam.feasible
        probes, vertex_at = [], NestedFamily.vertex_at
        monkeypatch.setattr(NestedFamily, "vertex_at", lambda self, t: probes.append(t) or vertex_at(self, t))
        assert _sweep_moving_vertex(fam, iv)
        candidates = sorted(t for t in sweep_candidates(fam) if iv.contains(t))
        assert probes == _interval_sample_ts(iv, candidates)
        assert len(probes) == 15 and not set(probes) <= set(candidates)

    @pytest.mark.parametrize("text", [
        "0 0 3 3\n? 3 0 1\n3 0 2 0\n? 2 1 3\n",
        "0 0 2 1\n2 0 ? ?\n0 1 1 2\n1 2 0 1\n",
    ], ids=["column-1", "row-2"])
    def test_sweep_does_not_probe_the_unattained_limit(self, text):
        """The feasible interval is a half-line on which the moving vertex
        tends to a point where a triangle nests.  No t reaches that point,
        so the sweep refutes the interval, and a grid of t agrees."""
        m = parse_partial(text)
        assert decide_nn3_two_missing(m).verdict == "NotCompletable"
        canon, _ = normalize_two_missing(m)
        fam = family_11_21(canon)
        (iv,) = fam.feasible
        assert iv.hi is None
        limit = point_of_v1(fam)
        pair = NestedPair(Polygon2.from_points([limit, *fam.fixed_inner_points]), fam.fixed_outer)
        assert nested_triangle(pair) is not None
        grid = [iv.lo + F(k, 4) for k in range(81)] + [iv.lo + F(10) ** k for k in range(2, 7)]
        for t in grid:
            full = fam.completion_at(t)
            assert full.is_nonnegative()
            assert not nn_rank_at_most_3(full)[0]


class TestDiagonalHolesFamily:
    """Regression data for the fixture with holes at (1,1) and (2,2)."""

    def test_feasible_interval(self, two_missing_diagonal):
        fam = family_11_22(two_missing_diagonal)
        assert fam.feasible == [Interval(F(0), F(4284, 9959))]

    def test_symbolic_product_matches_observations(self, two_missing_diagonal, rng):
        fam = family_11_22(two_missing_diagonal)
        for _ in range(5):
            t = F(rng.randint(0, 40), rng.randint(1, 9))
            full = fam.completion_at(t)
            assert two_missing_diagonal.agrees_with(full)
            assert rank(full) <= 3
            assert full.entry(2, 2) == t

    def test_polygons_at_zero(self, two_missing_diagonal):
        fam = family_11_22(two_missing_diagonal)
        pair = fam.pair_at(0)
        assert set(pair.inner.vertices) == {
            (F(0), F(10, 19)),
            (F(1, 10), F(1, 10)),
            (F(7, 20), F(3, 5)),
            (F(1, 100), F(9, 10)),
        }
        assert set(pair.outer.vertices) == {
            (F(0), F(8727, 20782)),
            (F(8727, 109328), F(0)),
            (F(1), F(0)),
            (F(0), F(1)),
        }

    def test_polygons_shrink_into_the_interval(self, two_missing_diagonal):
        fam = family_11_22(two_missing_diagonal)
        iv = fam.feasible[0]
        p_lo = fam.pair_at(iv.lo)
        p_hi = fam.pair_at(iv.hi)
        from nncomplete import contains

        assert contains(p_lo.inner, p_hi.inner) or contains(p_hi.inner, p_lo.inner)
        assert contains(p_lo.outer, p_hi.outer) or contains(p_hi.outer, p_lo.outer)

    @pytest.mark.parametrize("scale", SCALES, ids=["unscaled", "scaled"])
    def test_decision_not_completable_with_envelope(self, two_missing_diagonal, scale):
        cert = decide_nn3_two_missing(scaled(two_missing_diagonal, scale))
        assert cert.verdict == "NotCompletable"
        assert cert.pattern == "11_22"
        assert cert.envelope is not None
        inner_env, outer_env = cert.envelope
        pair = NestedPair(inner_env, outer_env)
        assert contains(pair.outer, pair.inner)
        assert nested_triangle(pair) is None
        lo, hi = cert.envelope_t
        assert (lo, hi) == (F(0), F(4284, 9959) * scale)

    def test_feasible_samples_all_fail(self, two_missing_diagonal):
        fam = family_11_22(two_missing_diagonal)
        iv = fam.feasible[0]
        ts = [iv.lo + (iv.hi - iv.lo) * F(k, 19) for k in range(20)]
        for t in ts:
            full = fam.completion_at(t)
            assert full.is_nonnegative()
            ok, _ = nn_rank_at_most_3(full)
            assert not ok

    def test_simplicial_sign_check_profiles(self, two_missing_diagonal):
        fam = family_11_22(two_missing_diagonal)
        t = fam.feasible[0].sample()
        # the check runs without error and returns a bool at feasible t
        assert simplicial_sign_check(fam, t) in (True, False)
        with pytest.raises(ValueError):
            simplicial_sign_check(fam, F(-5))
        # the same answer as the sign rule on the first row of A(t), at every
        # sample t of the fixtures' and of random 11_22 families
        fixture_inputs = [m for name in FIXTURES
                          for m in two_hole_inputs(parse_partial((DATA / f"{name}.txt").read_text()))]
        answers = []
        for m in fixture_inputs + random_two_hole_inputs(2035, 120):
            for _, fam in families_of(m):
                if fam.tag != "11_22":
                    continue
                for iv in fam.feasible:
                    for t in _interval_sample_ts(iv, _critical_ts(fam)):
                        answers.append(simplicial_sign_check(fam, t))
                        # the factors are in SUM_CHART: A is the charted A times it
                        a = matmul(fam.factors_at(t)[0], SUM_CHART)
                        assert answers[-1] == first_row_sign_rule(a.row(1))
        assert answers.count(True) >= 200 and answers.count(False) >= 200


class TestPoleCheck:
    """A refutation of the diagonal pattern needs no completion at a
    nonnegative pole of the solved first row of A, where B(t0) leaves the
    family.  None can exist: N(t0) is singular there, so its row space is
    spanned by rows 3-4 of columns 2..4, which never contain (m12, m13,
    m14) because rows 1, 3, 4 of columns 2..4 have rank 3.  The library
    therefore skips the solve; the oracle runs it."""

    @pytest.mark.parametrize(
        "text, pole, t_hi",
        [
            ("? 2 0 5\n8 ? 5 0\n2 0 4 7\n4 0 5 0\n", F(0), F(28, 3)),
            ("? 6 0 8\n0 ? 9 4\n2 2 7 9\n1 4 2 0\n", F(38, 3), F(38, 3)),
        ],
        ids=["pole_at_zero", "pole_at_38_3"],
    )
    def test_pole_solve_runs_and_is_inconsistent(self, text, pole, t_hi):
        m = parse_partial(text)
        cert = decide_nn3_two_missing(m)
        assert (cert.verdict, cert.pattern) == ("NotCompletable", "11_22")
        assert cert.envelope_t == (F(0), t_hi)
        fam = family_11_22(m)
        ref = rational_function_family(fam, m)
        assert poles_of_11_22(ref) == [pole]
        assert poles_ruled_out_by_solve(m, ref)

    def test_random_families_never_have_a_consistent_pole(self):
        rng = random.Random(2029)
        pattern = Pattern(4, 4, frozenset(CELLS) - {(1, 1), (2, 2)})
        with_pole = 0
        for _ in range(300):
            full = ExactMatrix([[rng.randint(0, 9) for _ in range(4)] for _ in range(4)])
            m = restrict(full, pattern)
            try:
                fam = family_11_22(m)
            except FamilyError:
                continue
            ref = rational_function_family(fam, m)
            with_pole += bool(poles_of_11_22(ref))
            assert poles_ruled_out_by_solve(m, ref)
        assert with_pole >= 150


class TestNormalization:
    def test_round_trip_all_hole_placements(self, rng):
        cells = [(i, j) for i in range(1, 5) for j in range(1, 5)]
        full = rnd_nonneg_product(rng, 4, 4, 3)
        for _ in range(40):
            holes = rng.sample(cells, 2)
            pattern = Pattern(4, 4, frozenset(cells) - set(holes))
            pm = restrict(full, pattern)
            canon, norm = normalize_two_missing(pm)
            assert sorted(canon.pattern.missing) in (
                [(1, 1), (2, 1)],
                [(1, 1), (2, 2)],
            )
            assert norm.tag == (
                "11_21" if sorted(canon.pattern.missing) == [(1, 1), (2, 1)] else "11_22"
            )
            filled = canon.complete_with(
                {pos: F(99, 7) for pos in canon.pattern.missing}
            )
            back = denormalize_matrix(filled, norm)
            assert pm.agrees_with(back)

    def test_rejects_wrong_hole_count(self):
        pm = parse_partial("? 1 1 1\n1 1 1 1\n1 1 1 1\n1 1 1 1\n")
        with pytest.raises(FamilyError):
            normalize_two_missing(pm)


class TestSpecialCases:
    def test_low_rank_block_padding(self):
        # rows 3,4 fully observed with nonnegative rank 1; two extra rows
        # fit in the remaining budget of 2
        pm = parse_partial("? 5 1 9\n? 1 7 7\n1 2 3 4\n2 4 6 8\n")
        completion = special_case_low_rank(pm, 3)
        assert completion is not None
        assert pm.agrees_with(completion)
        ok, _ = nn_rank_at_most_3(completion)
        assert ok

    def test_zero_column_fill(self):
        base = parse_partial("? 5 1 9\n? 1 7 7\n0 5 9 1\n0 9 3 3\n")
        # the transpose, with its holes in row 1, normalizes transposed
        for pm in (base, base.transpose()):
            cert = decide_nn3_two_missing(pm)
            assert cert.verdict == "Completable"
            assert pm.agrees_with(cert.completion)
            a, b = cert.witness
            assert matmul(a, b) == cert.completion

    def test_rank_test_matches_block_factorization(self, perturbed_full):
        # a fully observed rank-3 block of nonnegative rank 4 above an
        # unobserved row, then mostly low-rank nonnegative products, so a
        # fully observed block often certifies the zero fill; every fourth
        # random input is 0..9 noise
        top = frozenset((i, j) for i in range(1, 5) for j in range(1, 5))
        inputs = [restrict(perturbed_full, Pattern(5, 4, top))]
        rng = random.Random(2029)
        for n in range(160):
            p, q = rng.choice([(3, 3), (3, 4), (4, 3), (4, 4), (4, 5)])
            if n % 4:
                full = rnd_nonneg_product(rng, p, q, rng.randint(1, 3))
            else:
                full = ExactMatrix([[rng.randint(0, 9) for _ in range(q)] for _ in range(p)])
            cells = [(i, j) for i in range(1, p + 1) for j in range(1, q + 1)]
            holes = rng.sample(cells, rng.randint(1, 3))
            inputs.append(restrict(full, Pattern(p, q, frozenset(cells) - set(holes))))
        fired = 0
        for pm in inputs:
            zero_fill = pm.complete_with({hole: 0 for hole in pm.pattern.missing})
            for r in range(1, 5):
                got = special_case_low_rank(pm, r)
                want = special_case_by_block_factorization(pm, r)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got == want == zero_fill
                    fired += 1
        assert fired >= 100

    def test_negative_entry_is_rejected(self):
        # the fully observed row 3 alone would certify the zero fill; the
        # rank shortcut is sound only for nonnegative matrices
        pm = parse_partial("? 1 2\n-1 ? 4\n5 6 7\n")
        with pytest.raises(ValueError, match="observed entries must be nonnegative"):
            special_case_low_rank(pm, 3)

    def test_obstructed_direction(self):
        # rows 3,4 proportional on columns 2..4 but not on column 1, while
        # columns 2..4 still have rank 3: no rank-<=3 completion matches
        pm = parse_partial("? 1 0 0\n? 0 1 0\n1 1 2 3\n5 2 4 6\n")
        cert = decide_nn3_two_missing(pm)
        assert cert.verdict == "NotCompletable"


class TestDeterminantCurve:
    def test_zero_fill_decides_before_the_family(self):
        pm = parse_partial("11 9 14 5\n14 6 16 5\n16 ? 16 4\n5 3 ? 2\n")
        cert = decide_nn3_two_missing(pm)
        assert cert.verdict == "Completable"
        assert cert.completion == pm.complete_with({hole: 0 for hole in pm.pattern.missing})
        assert cert.t_star is None and cert.samples == []
        a, b = cert.witness
        assert matmul(a, b) == cert.completion

    def test_curve_missing_the_quadrant_refutes(self):
        # det = 6sh + 12s + 16h + 32 is positive for every s, h >= 0
        pm = parse_partial("2 4 ? 3\n8 ? 2 3\n6 4 0 5\n6 2 2 4\n")
        assert _curve_misses_quadrant(pm)
        assert decide_nn3_two_missing(pm).verdict == "NotCompletable"

    def test_sign_rule_matches_grid_oracle(self):
        rng = random.Random(1301)
        cells = [(i, j) for i in range(1, 5) for j in range(1, 5)]
        fired = 0
        for _ in range(300):
            full = ExactMatrix([[rng.randint(0, 3) for _ in range(4)] for _ in range(4)])
            holes = rng.sample(cells, 2)
            pm = restrict(full, Pattern(4, 4, frozenset(cells) - set(holes)))
            misses = _curve_misses_quadrant(pm)
            assert misses == (not curve_meets_quadrant_on_grid(pm))
            fired += misses
        assert fired >= 10


class TestDecisionEndToEnd:
    def test_true_products_never_refuted(self, rng):
        cells = [(i, j) for i in range(1, 5) for j in range(1, 5)]
        completable = unknown = 0
        for _ in range(40):
            full = rnd_nonneg_product(rng, 4, 4, 3)
            holes = rng.sample(cells, 2)
            pm = restrict(full, Pattern(4, 4, frozenset(cells) - set(holes)))
            cert = decide_nn3_two_missing(pm)
            assert cert.verdict != "NotCompletable"
            if cert.verdict == "Completable":
                completable += 1
                assert pm.agrees_with(cert.completion)
                assert cert.completion.is_nonnegative()
                a, b = cert.witness
                assert a.is_nonnegative() and b.is_nonnegative()
                assert matmul(a, b) == cert.completion
            else:
                unknown += 1
        assert completable >= 30

    def test_outer_row_with_vanishing_normal(self):
        # row 2 of columns 2..4, (1, 1, 8), is proportional to their column
        # sums (5, 5, 40), so its outer half-plane has a zero normal
        pm = parse_partial("25 3 2 17\n? 1 1 8\n15 1 2 12\n? 0 0 3\n")
        cert = decide_nn3_two_missing(pm)
        assert cert.verdict == "Completable"
        assert pm.agrees_with(cert.completion)
        assert cert.completion.is_nonnegative()
        assert rank(cert.completion) <= 3
        a, b = cert.witness
        assert (a.q, b.p) == (3, 3)
        assert a.is_nonnegative() and b.is_nonnegative()
        assert matmul(a, b) == cert.completion

    def test_transpose_retry_witness_in_callers_orientation(self, monkeypatch):
        # holes (1,4),(2,2): the first orientation answers Unknown and the
        # transpose decides
        calls = count_normalizations(monkeypatch)
        pm = parse_partial("3 9 9 ?\n8 ? 4 5\n7 5 7 2\n3 0 6 6\n")
        cert = decide_nn3_two_missing(pm)
        assert len(calls) == 2
        assert cert.verdict == "Completable" and cert.pattern == "11_22"
        assert pm.agrees_with(cert.completion)
        a, b = cert.witness
        assert (a.q, b.p) == (3, 3)
        assert a.is_nonnegative() and b.is_nonnegative()
        assert matmul(a, b) == cert.completion

    def test_retry_only_for_the_diagonal_pattern(self, monkeypatch, two_missing_column):
        calls = count_normalizations(monkeypatch)
        assert decide_nn3_two_missing(two_missing_column).verdict == "NotCompletable"
        assert len(calls) == 1
        # an Unknown with holes in one column, or in one row, is not
        # retried: its transpose normalizes to the same canonical instance
        column = parse_partial("5 2 ? 1\n0 7 5 3\n1 9 3 9\n2 5 ? 9\n")
        for pm in (column, column.transpose()):
            calls.clear()
            cert = decide_nn3_two_missing(pm)
            assert (cert.verdict, cert.pattern) == ("Unknown", "11_21")
            assert len(calls) == 1
        calls.clear()
        unknown = parse_partial((DATA / "two_missing_unknown.txt").read_text())
        cert = decide_nn3_two_missing(unknown)
        assert (cert.verdict, cert.pattern) == ("Unknown", "11_22")
        assert len(calls) == 2

    def test_permutation_equivariance(self, two_missing_column, rng):
        base = decide_nn3_two_missing(two_missing_column)
        for _ in range(6):
            rows = list(range(1, 5))
            cols = list(range(1, 5))
            rng.shuffle(rows)
            rng.shuffle(cols)
            values = {
                (rows.index(i) + 1, cols.index(j) + 1): v
                for (i, j), v in two_missing_column.values.items()
            }
            pm = PartialMatrix(Pattern(4, 4, frozenset(values)), values)
            cert = decide_nn3_two_missing(pm)
            assert cert.verdict == base.verdict

    def test_transpose_equivariance(self, two_missing_diagonal):
        cert = decide_nn3_two_missing(two_missing_diagonal.transpose())
        assert cert.verdict == "NotCompletable"

    def test_certificate_json_shape(self, two_missing_diagonal):
        cert = decide_nn3_two_missing(two_missing_diagonal)
        d = cert.to_json_dict()
        assert d["verdict"] == "NotCompletable"
        assert d["completion"] is None and d["triangle"] is None
        assert d["envelope"]["t_lo"] == "0"
        assert d["envelope"]["t_hi"] == "4284/9959"
        for pt in d["envelope"]["inner"] + d["envelope"]["outer"]:
            for coord in pt:
                assert isinstance(coord, str)

    def test_completable_certificate_json(self, rng):
        pm = parse_partial("? 5 1 9\n? 1 7 7\n0 5 9 1\n0 9 3 3\n")
        d = decide_nn3_two_missing(pm).to_json_dict()
        assert d["verdict"] == "Completable"
        assert d["completion"] is not None
        assert all(isinstance(x, str) for row in d["completion"] for x in row)


class TestFamilyPreconditions:
    def test_rejects_wrong_pattern(self, two_missing_diagonal):
        with pytest.raises(FamilyError):
            family_11_21(two_missing_diagonal)

    def test_rejects_low_rank_columns(self):
        pm = parse_partial("? 1 2 3\n? 2 4 6\n1 3 6 9\n1 4 8 12\n")
        with pytest.raises(FamilyError):
            family_11_21(pm)

    def test_rejects_zero_first_column(self):
        # with m31 = m41 = 0 the first column of B is t times a fixed vector;
        # the zero-column special case decides such an input
        pm = parse_partial("? 14 19 6\n? 14 17 4\n0 18 19 4\n0 6 8 2\n")
        with pytest.raises(FamilyError, match="column 1 is zero in rows 3,4"):
            family_11_21(pm)
        cert = decide_nn3_two_missing(pm)
        assert cert.verdict == "Completable" and cert.t_star is None


CELLS = [(i, j) for i in range(1, 5) for j in range(1, 5)]
FIXTURES = [
    "two_missing_column",
    "two_missing_diagonal",
    "two_missing_unknown",
    "one_missing_perturbed",
    "perturbed_full",
    "rank3_product",
]


def two_hole_inputs(m: PartialMatrix) -> list:
    """m itself when two entries are missing; otherwise m with its own hole,
    or (4,4) when it has none, and each other cell hidden in turn."""
    missing = set(m.pattern.missing)
    if len(missing) == 2:
        return [m]
    first = missing or {(4, 4)}
    return [
        PartialMatrix(Pattern(4, 4, frozenset(CELLS) - first - {c}),
                      {k: v for k, v in m.values.items() if k not in first | {c}})
        for c in CELLS
        if c not in first
    ]


def families_of(m: PartialMatrix) -> list:
    """The families of m and of its transpose that can be built, each as
    (canonical matrix, family built from it)."""
    out = []
    for oriented in (m, m.transpose()):
        canon, norm = normalize_two_missing(oriented)
        try:
            out.append((canon, family_11_21(canon) if norm.tag == "11_21" else family_11_22(canon)))
        except FamilyError:
            pass
    return out


def random_two_hole_inputs(seed: int, n: int) -> list:
    """n 4x4 inputs with two random holes: integer entries 0..9 and
    nonnegative rank-3 products, alternately."""
    rng = random.Random(seed)
    out = []
    for k in range(n):
        if k % 2:
            full = rnd_nonneg_product(rng, 4, 4, 3)
        else:
            full = ExactMatrix([[rng.randint(0, 9) for _ in range(4)] for _ in range(4)])
        holes = set(rng.sample(CELLS, 2))
        out.append(restrict(full, Pattern(4, 4, frozenset(CELLS) - holes)))
    return out


def still_vertex_inputs(seed: int, n: int) -> list:
    """n 4x4 inputs with holes (1,1), (2,2), entries 0..9 and m32 = m42 = 0."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        rows = [[rng.randint(0, 9) for _ in range(4)] for _ in range(4)]
        rows[0][0] = rows[1][1] = None
        rows[2][1] = rows[3][1] = 0
        out.append(PartialMatrix.from_rows(rows))
    return out


def random_rational_two_hole_inputs(seed: int, n: int, bits: int = 12) -> list:
    """n 4x4 inputs with two random holes and entries p/q, 0 <= p < 2^bits
    and 0 < q < 2^bits: bit size, not the entry count, is what the
    family's cost grows with."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        full = ExactMatrix([[F(rng.randrange(1 << bits), rng.randrange(1, 1 << bits)) for _ in range(4)]
                            for _ in range(4)])
        holes = set(rng.sample(CELLS, 2))
        out.append(restrict(full, Pattern(4, 4, frozenset(CELLS) - holes)))
    return out


def first_row_sign_rule(row) -> bool:
    """The simplicial sign rule on the first row of A(t), divisions done:
    no negative entry, or the signs (-, -, +) or (-, 0, +)."""
    signs = sorted((x > 0) - (x < 0) for x in row)
    return -1 not in signs or signs in ([-1, -1, 1], [-1, 0, 1])


def assert_matches_rational_functions(fam, m, rng):
    """Every datum the family reads off its pencils equals the same datum
    of the family rebuilt from m over QQ(t) entries: the factors and
    the moving vertex at the critical t and at random t (a pole raising
    ZeroDivisionError on both sides), the critical t, the feasible set,
    the moving vertex's line up to scale and its limit at infinity."""
    ref = rational_function_family(fam, m)
    criticals = _critical_ts(fam)
    assert criticals == critical_ts_by_rational_functions(fam, ref)
    assert fam.feasible == feasible_by_rational_functions(m, ref)
    x, y = ref.moving_vertex
    line = line_by_rational_functions(ref)
    for t in criticals + [F(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(4)]:
        try:
            # the library keeps the factors in the chart: (A.G^-1, G.B)
            want = (matmul(rf_matrix_at(ref.a_of_t, t), inverse(ref.chart)),
                    matmul(ref.chart, rf_matrix_at(ref.b_of_t, t)))
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                fam.factors_at(t)
        else:
            assert fam.factors_at(t) == want
        try:
            assert fam.vertex_at(t) == (rf_at(x, t), rf_at(y, t))
        except ZeroDivisionError:
            # w(t) = 0: a pole of the vertex, or a vertex that does not move
            assert not (defined_at(x, t) and defined_at(y, t)) or not any(cross(*fam.moving_vertex))
    # the limit at infinity is the point of v1; when w1 = 0 a coordinate
    # with a t-term diverges and one without keeps its value
    (w0, y0, z0), (w1, y1, z1) = fam.moving_vertex
    limit = point_of_v1(fam) or tuple(None if c1 else F(c0) / w0 for c0, c1 in ((y0, y1), (z0, z1)))
    assert limit == (limit_at_infinity(x), limit_at_infinity(y))
    if fam.tag == "11_21":
        assert (fam.line_p1 is None) == (line is None)
        if line is not None:
            assert not any(cross(fam.line_p1, line))


class TestPencilsMatchRationalFunctions:
    """The affine pencils against the same family built from
    arithmetic in QQ(t), in both orientations."""

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures_match_rational_function_reference(self, name, rng):
        fams = [
            built
            for m in two_hole_inputs(parse_partial((DATA / f"{name}.txt").read_text()))
            for built in families_of(m)
        ]
        # two_missing_unknown is Unknown because neither orientation has a family
        assert bool(fams) == (name != "two_missing_unknown")
        for canon, fam in fams:
            assert_matches_rational_functions(fam, canon, rng)

    def test_random_inputs_match_rational_function_reference(self, rng):
        """Random draws, and diagonal-hole draws with m32 = m42 = 0: there
        the moving column of B is (t, 0, 0), so the vertex stands still at
        the slice weight w = t.  The reference takes the root t = 0 of that
        entry, and the library finds it as the root of den = t*det(...),
        where the moving facet meets the fixed points."""
        tags, still = set(), 0
        for m in random_two_hole_inputs(2027, 80) + still_vertex_inputs(2041, 60):
            for canon, fam in families_of(m):
                tags.add(fam.tag)
                if not any(cross(*fam.moving_vertex)):
                    still += 1
                    assert F(0) in _critical_ts(fam)
                assert_matches_rational_functions(fam, canon, rng)
        assert tags == {"11_21", "11_22"} and still >= 30

    def test_12_bit_rationals_match_rational_function_reference(self, rng):
        tags = []
        for m in random_rational_two_hole_inputs(2033, 40):
            for canon, fam in families_of(m):
                tags.append(fam.tag)
                assert_matches_rational_functions(fam, canon, rng)
        assert min(tags.count("11_21"), tags.count("11_22")) >= 10

    def test_fixed_point_on_an_outer_vertex(self, rng):
        """A fixed inner point that is also an outer vertex joins it in the
        zero line, which adds no critical t and builds no half-plane."""
        rng_inputs = random.Random(2031)
        tags = set()
        for _ in range(300):
            full = ExactMatrix([[rng_inputs.randint(0, 2) for _ in range(4)] for _ in range(4)])
            holes = set(rng_inputs.sample(CELLS, 2))
            for canon, fam in families_of(restrict(full, Pattern(4, 4, frozenset(CELLS) - holes))):
                if set(fam.fixed_inner_points) & set(fam.fixed_outer.vertices):
                    tags.add(fam.tag)
                    assert_matches_rational_functions(fam, canon, rng)
        assert tags == {"11_21", "11_22"}

    def test_moving_vertex_line_matches_closed_form(self):
        """The line read off the moving vertex's shared denominator is the
        closed-form line up to a scalar, and None where the closed form
        has no normal."""
        rng = random.Random(2028)
        lines = 0
        for _ in range(120):
            full = ExactMatrix([[rng.randint(0, 9) for _ in range(4)] for _ in range(4)])
            rows = rng.sample(range(1, 5), 2)
            col = rng.randint(1, 4)
            m = restrict(full, Pattern(4, 4, frozenset(CELLS) - {(rows[0], col), (rows[1], col)}))
            canon, _ = normalize_two_missing(m)
            try:
                line = family_11_21(canon).line_p1
            except FamilyError:
                continue
            try:
                alt = line_from_observed_minors(canon)
            except ValueError:
                assert line is None
                continue
            c0, cx, cy = line
            assert alt.c0 * cx == c0 * alt.cx
            assert alt.c0 * cy == c0 * alt.cy
            assert alt.cx * cy == cx * alt.cy
            lines += 1
        assert lines >= 100


def canonical_products(seed: int, holes, n: int) -> list:
    """n nonnegative rank-3 products with the given canonical holes, so
    that normalization is the identity."""
    rng = random.Random(seed)
    pattern = Pattern(4, 4, frozenset(CELLS) - set(holes))
    return [restrict(rnd_nonneg_product(rng, 4, 4, 3), pattern) for _ in range(n)]


class TestSingleSearch:
    """The family stage searches the pair at each sampled t once; its
    triangle is both the printed triangle and the witness."""

    @pytest.mark.parametrize("holes,build", [
        (((1, 1), (2, 1)), family_11_21),
        (((1, 1), (2, 2)), family_11_22),
    ], ids=["11_21", "11_22"])
    def test_witness_lifts_the_printed_triangle(self, holes, build):
        lifted = 0
        for pm in canonical_products(3, holes, 100):
            cert = decide_nn3_two_missing(pm)
            if cert.t_star is None:
                continue
            pair = build(pm).pair_at(cert.t_star)
            assert cert.witness == triangle_to_factorization(pair, cert.triangle, cert.completion)
            lifted += 1
        assert lifted >= 60

    def test_triangle_in_the_family_chart_iff_nonnegative_rank_3(self):
        """At every sampled t, a triangle nests in the family's pair exactly
        when the bounded chart of the completion finds one."""
        inputs = [parse_partial((DATA / f"{name}.txt").read_text()) for name in FIXTURES[:3]]
        inputs += canonical_products(4, ((1, 1), (2, 1)), 6)
        inputs += canonical_products(4, ((1, 1), (2, 2)), 6)
        counts = {True: 0, False: 0}
        for fam in (fam for m in inputs for _, fam in families_of(m)):
            criticals = _critical_ts(fam)
            for t in sorted({t for iv in fam.feasible for t in _interval_sample_ts(iv, criticals)}):
                completion = fam.completion_at(t)
                if not completion.is_nonnegative():
                    continue
                found = nested_triangle(fam.pair_at(t)) is not None
                assert found == nn_rank_at_most_3(completion)[0], (fam.tag, t)
                counts[found] += 1
        assert counts[True] >= 20 and counts[False] >= 20


class TestLazySearchOrder:
    """The 11_22 search tries each simplicial sample as soon as the check
    finds it; the sequence of tried t is still the eager order (every
    simplicial sample, then the others)."""

    # the fixtures whose two-hole inputs reach an 11_22 search
    @pytest.mark.parametrize("name", [n for n in FIXTURES if n not in ("two_missing_column", "two_missing_unknown")])
    def test_tried_sequence_is_the_eager_order(self, name, monkeypatch):
        tried = {}
        completable_at = nncomplete.family._completable_at

        def recording(fam, t):
            hit = completable_at(fam, t)
            tried.setdefault(id(fam), (fam, []))[1].append((t, hit is not None))
            return hit

        monkeypatch.setattr(nncomplete.family, "_completable_at", recording)
        for m in two_hole_inputs(parse_partial((DATA / f"{name}.txt").read_text())):
            decide_nn3_two_missing(m)
        searches = [(fam, outcomes) for fam, outcomes in tried.values() if fam.tag == "11_22"]
        for fam, outcomes in searches:
            criticals = _critical_ts(fam)
            samples = sorted({t for iv in fam.feasible for t in _interval_sample_ts(iv, criticals)})
            eager = search_order_eager(fam, samples)
            assert list(nncomplete.family._search_order(fam, samples)) == eager
            ts = [t for t, _ in outcomes]
            hit = outcomes[-1][1]
            assert ts == (eager[:len(ts)] if hit else eager)
            assert not any(found for _, found in outcomes[:-1])
        assert searches


class TestFactorsAt:
    def test_each_tried_t_evaluates_the_factors_once(self, monkeypatch):
        """The search evaluates A(t) and B(t) once per feasible tried t and
        reads the completion and the pair from those two matrices."""
        evaluated = []
        factors_at = NestedFamily.factors_at
        completable_at = nncomplete.family._completable_at

        def counting_factors_at(fam, t):
            evaluated.append(t)
            return factors_at(fam, t)

        def checking(fam, t):
            before = len(evaluated)
            hit = completable_at(fam, t)
            assert len(evaluated) - before == (1 if fam.is_feasible(t) else 0)
            if hit is not None:
                assert hit.completion == fam.completion_at(t)
            tried.append(t)
            return hit

        tried = []
        monkeypatch.setattr(NestedFamily, "factors_at", counting_factors_at)
        monkeypatch.setattr(nncomplete.family, "_completable_at", checking)
        inputs = [parse_partial((DATA / f"{name}.txt").read_text())
                  for name in ("two_missing_completable", "two_missing_diagonal")]
        inputs += canonical_products(5, ((1, 1), (2, 2)), 4)
        verdicts = {decide_nn3_two_missing(m).verdict for m in inputs}
        assert tried and verdicts >= {"Completable", "NotCompletable"}


class TestIntegerPencils:
    """A family keeps its pencils as integers, scaled once when it is
    built, and its feasible set probes each cell at an integer pair."""

    @staticmethod
    def families(monkeypatch):
        """(family, the sign constraints its feasible set was cut from) for
        every family of the products corpus."""
        monkeypatch.syspath_prepend(str(DATA.parents[1] / "bench"))
        import corpus

        recorded = []
        real = nncomplete.family.feasible_set
        monkeypatch.setattr(nncomplete.family, "feasible_set", lambda cs: recorded.append(cs) or real(cs))
        out = []
        for case in corpus.products(corpus.DEFAULT_CORPUS_SEED):
            canon, norm = normalize_two_missing(PartialMatrix.from_rows([list(row) for row in case.rows]))
            try:
                fam = family_11_21(canon) if norm.tag == "11_21" else family_11_22(canon)
            except FamilyError:
                continue
            out.append((fam, recorded[-1]))
        monkeypatch.setattr(nncomplete.family, "feasible_set", real)
        assert {fam.tag for fam, _ in out} == {"11_21", "11_22"}
        return out

    def test_family_data_are_integers(self, monkeypatch):
        for fam, constraints in self.families(monkeypatch):
            data = [*fam.a_pencil[0], *fam.a_pencil[1], fam.a_den, *fam.b_pencil[0], *fam.b_pencil[1],
                    *fam.moving_vertex, *fam.fixed_inner, [fam.b_scale], fam.line_p1 or [],
                    *(side for nd in constraints for side in nd)]
            assert all(type(x) is int for v in data for x in v)

    def test_feasible_set_builds_only_its_boundary_points(self, monkeypatch):
        """One Fraction per root of the constraints, and none for a probe."""
        for fam, constraints in self.families(monkeypatch):
            roots = [F(-c0, c1) for nd in constraints for c0, c1 in nd if c1]
            assert fractions_made(feasible_set, constraints) == len(roots)
            assert {b for iv in fam.feasible for b in (iv.lo, iv.hi) if b is not None} <= set(roots)


class TestRefusesBinaryFloats:
    """Like ExactMatrix and the geometry constructors, every function that
    takes t takes ints, Fractions and strings, and refuses a binary float
    instead of reading its exact value."""

    @pytest.mark.parametrize("call", [
        lambda fam: Interval(F(-1), F(1)).contains(0.5),
        lambda fam: fam.is_feasible(0.5),
        lambda fam: fam.factors_at(0.5),
        lambda fam: fam.completion_at(0.5),
        lambda fam: fam.pair_at(0.5),
        lambda fam: fam.vertex_at(0.5),
        lambda fam: simplicial_sign_check(fam, 0.5),
        lambda fam: _completable_at(fam, 0.5),
    ], ids=["Interval.contains", "is_feasible", "factors_at", "completion_at", "pair_at", "vertex_at",
            "simplicial_sign_check", "completable_at"])
    def test_float_raises_type_error(self, call, two_missing_diagonal):
        with pytest.raises(TypeError, match="refusing float 0.5"):
            call(family_11_22(two_missing_diagonal))

    def test_ints_strings_and_fractions_still_accepted(self, two_missing_diagonal):
        fam = family_11_22(two_missing_diagonal)
        for t in (0, "1/3", F(1, 3)):
            assert Interval(F(0), F(1)).contains(t) and fam.is_feasible(t)
            assert fam.factors_at(t) == fam.factors_at(F(t))
            assert fam.vertex_at(t) == fam.vertex_at(F(t))
            assert simplicial_sign_check(fam, t) == simplicial_sign_check(fam, F(t))


class TestOnePipeline:
    """The zero fill and the determinant curve do not depend on the
    orientation, so a decision asks each of them once and the transpose
    retry reruns only the family stages.  The answers are those of running
    every stage in each orientation."""

    def test_retry_asks_the_orientation_free_tests_once(self, monkeypatch):
        normalizations = count_normalizations(monkeypatch)
        zero_fills = count_calls(monkeypatch, "nn_rank_at_most_3")
        curves = count_calls(monkeypatch, "_curve_misses_quadrant")
        cert = decide_nn3_two_missing(parse_partial((DATA / "two_missing_unknown.txt").read_text()))
        assert (cert.verdict, cert.pattern) == ("Unknown", "11_22")
        assert (len(normalizations), len(zero_fills), len(curves)) == (2, 1, 1)

    @staticmethod
    def same_decision(m: PartialMatrix) -> str:
        cert, reference = decide_nn3_two_missing(m), decide_two_missing_per_orientation(m)
        assert cert.to_json_dict() == reference.to_json_dict()
        assert cert.witness == reference.witness
        return cert.verdict

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures_match_the_run_per_orientation(self, name):
        for m in two_hole_inputs(parse_partial((DATA / f"{name}.txt").read_text())):
            self.same_decision(m)

    def test_small_entries_match_the_run_per_orientation(self, monkeypatch):
        """Entries 0..3 often leave no family, so they reach the curve and
        the transpose retry."""
        rng = random.Random(1402)
        curves = count_calls(monkeypatch, "_curve_misses_quadrant")
        normalizations = count_normalizations(monkeypatch)
        verdicts = []
        for _ in range(300):
            full = ExactMatrix([[rng.randint(0, 3) for _ in range(4)] for _ in range(4)])
            holes = rng.sample(CELLS, 2)
            verdicts.append(self.same_decision(restrict(full, Pattern(4, 4, frozenset(CELLS) - set(holes)))))
        assert min(verdicts.count(v) for v in ("Completable", "NotCompletable", "Unknown")) >= 10
        assert len(curves) >= 30 and len(normalizations) - 300 >= 20
