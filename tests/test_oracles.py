"""The references of tests/oracles.py that rest on sympy's QQ[t] and QQ(t),
checked against hand-built Fraction arithmetic. The family comparisons in
test_family.py trust these helpers, so the traps of sympy's root API are
pinned here: ``intervals()`` brackets a rational root with a non-degenerate
interval, and ``count_roots(a, b)`` counts the closed [a, b]."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nncomplete import Interval, PartialMatrix, Pattern

from oracles import (
    FIELD,
    RING,
    as_poly,
    defined_at,
    feasible_set_by_candidates,
    limit_at_infinity,
    one_missing_by_minors,
    rational_roots,
    rf_at,
    rf_roots,
)

F = Fraction
x = RING.gens[0]
t = FIELD.gens[0]

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5)
coefficients = st.lists(st.integers(-5, 5), min_size=1, max_size=4)


def ring_poly(coeffs):
    """sum c_k x^k in QQ[t] from Fraction coefficients, lowest first."""
    return sum((RING.convert(c) * x**k for k, c in enumerate(coeffs)), RING.zero)


def horner(coeffs, at: Fraction) -> Fraction:
    value = F(0)
    for c in reversed(coeffs):
        value = value * at + c
    return value


def linear_product(lead, roots):
    """lead * prod (t - r) in QQ(t)."""
    out = FIELD.convert(lead)
    for r in roots:
        out *= t - FIELD.convert(r)
    return out


def feasible(constraints, at: Fraction) -> bool:
    """Every constraint defined and >= 0 at ``at``, by the definition."""
    return all(defined_at(rf, at) and rf_at(rf, at) >= 0 for rf in constraints)


def member(intervals, at: Fraction) -> bool:
    return any(iv.contains(at) for iv in intervals)


class TestPolynomials:
    @settings(max_examples=100, deadline=None)
    @given(coefficients, fractions)
    def test_as_poly_matches_horner(self, coeffs, at):
        assert as_poly(ring_poly(coeffs)).eval(at) == horner(coeffs, at)

    def test_rational_roots_of_factored_poly(self):
        # (t - 1/2)^2 (3t + 1)(t^2 - 2): a double root, a rational root and
        # two irrational roots, which are not reported
        p = (x - F(1, 2)) ** 2 * (3 * x + 1) * (x**2 - 2)
        assert rational_roots(p) == [F(-1, 3), F(1, 2)]

    def test_constant_has_no_roots(self):
        assert rational_roots(RING.convert(7)) == []
        assert rational_roots(RING.zero) == []

    @settings(max_examples=100, deadline=None)
    @given(st.lists(fractions, min_size=1, max_size=4), st.integers(1, 4))
    def test_roots_of_products_of_linear_factors(self, roots, lead):
        p = RING.convert(lead)
        for r in roots:
            p *= x - RING.convert(r)
        assert rational_roots(p) == sorted(set(roots))


class TestRationalFunctions:
    @settings(max_examples=100, deadline=None)
    @given(coefficients, coefficients, fractions)
    def test_rf_at_matches_fraction_evaluation(self, num, den, at):
        if not any(den) or horner(den, at) == 0:
            return
        rf = FIELD.convert(ring_poly(num)) / FIELD.convert(ring_poly(den))
        assert defined_at(rf, at)
        assert rf_at(rf, at) == horner(num, at) / horner(den, at)

    def test_pole_raises(self):
        rf = (t + 1) / (2 * t - 1)
        assert not defined_at(rf, F(1, 2))
        with pytest.raises(ZeroDivisionError):
            rf_at(rf, F(1, 2))
        assert rf_at(rf, F(1)) == 2

    def test_lowest_terms_cancel_a_common_root(self):
        # (t^2 - 1)/(t - 1) is t + 1 in QQ(t): t = 1 is no pole, no root
        rf = (t**2 - 1) / (t - 1)
        assert rf.denom == RING.one
        assert defined_at(rf, F(1)) and rf_at(rf, F(1)) == 2
        assert rf_roots(rf) == [F(-1)]

    def test_rf_roots_of_numerator_and_denominator(self):
        rf = (t - F(1, 3)) * (t**2 + 1) / ((t + 2) * (t**2 - 3))
        assert rf_roots(rf) == [F(1, 3), F(-2)]

    @pytest.mark.parametrize(
        "rf, limit",
        [
            (t / (t**2 + 1), F(0)),
            ((2 * t**2 + 1) / (3 * t**2 - t), F(2, 3)),
            (t**2 / (t + 1), None),
        ],
        ids=["lower-degree", "equal-degree", "higher-degree"],
    )
    def test_limit_at_infinity(self, rf, limit):
        assert limit_at_infinity(rf) == limit
        if limit is not None:
            far = [rf_at(rf, F(s * 10**6)) for s in (1, -1)]
            assert all(abs(v - limit) < F(1, 1000) for v in far)


class TestFeasibleSetByCandidates:
    def test_rational_root_is_an_exact_bound(self):
        # intervals() brackets the pole -1/2 by (-1, 0); it must still
        # be an end, or the probe of (-1, 0) decides the whole bracket
        assert feasible_set_by_candidates([t / (2 * t + 1)]) == [
            Interval(None, F(-1, 2), hi_open=True),
            Interval(F(0), None),
        ]

    def test_rational_root_at_a_bracket_end_hides_nothing(self):
        # -(t + 3)(t^2 - 2) < 0 on (-3, -sqrt 2); a candidate (-3, lo of
        # the bracket of -sqrt 2) holds no root, although the closed count
        # of count_roots finds -3 there
        constraint = -(t + 3) * (t**2 - 2)
        ivs = feasible_set_by_candidates([constraint])
        assert member(ivs, F(-3)) and not member(ivs, F(-5, 2))
        assert member(ivs, F(0)) and not member(ivs, F(3))

    def test_irrational_roots_over_approximate_inside_their_brackets(self):
        ivs = feasible_set_by_candidates([t**2 - 2])
        assert not member(ivs, F(0))
        assert all(member(ivs, F(s * k, 10)) for s in (1, -1) for k in range(15, 40))

    def test_touching_root_is_an_isolated_point(self):
        assert feasible_set_by_candidates([-((t - 1) ** 2)]) == [Interval(F(1), F(1))]

    def test_cancelled_root_is_no_bound(self):
        # (t - 1)^2 / (t - 1) is t - 1 in lowest terms: t >= 1 closed
        assert feasible_set_by_candidates([(t - 1) ** 2 / (t - 1)]) == [Interval(F(1), None)]

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([-2, -1, 1, 3]),
                st.lists(fractions, max_size=3),
                st.lists(fractions, max_size=2),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_rational_roots_make_it_exact(self, specs):
        """With every root rational there is nothing to over-approximate:
        membership is feasibility at every root, between roots and beyond."""
        constraints = [linear_product(lead, num) / linear_product(1, den) for lead, num, den in specs]
        ivs = feasible_set_by_candidates(constraints)
        points = sorted({r for _, num, den in specs for r in num + den} | {F(-7), F(7)})
        probes = points + [(a + b) / 2 for a, b in zip(points, points[1:])]
        for at in probes:
            assert member(ivs, at) == feasible(constraints, at), at

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(coefficients, coefficients), min_size=1, max_size=2))
    def test_contains_every_feasible_point(self, specs):
        """Irrational roots may widen the set inside their brackets, but no
        feasible t is ever lost."""
        constraints = []
        for num, den in specs:
            if any(den):
                constraints.append(FIELD.convert(ring_poly(num)) / FIELD.convert(ring_poly(den)))
        if not constraints:
            return
        ivs = feasible_set_by_candidates(constraints)
        for k in range(-40, 41):
            at = F(k, 8)
            if feasible(constraints, at):
                assert member(ivs, at), at


class TestOneMissingByMinors:
    @staticmethod
    def partial(rows):
        """A PartialMatrix with None marking the hole."""
        p, q = len(rows), len(rows[0])
        observed = frozenset((i + 1, j + 1) for i in range(p) for j in range(q) if rows[i][j] is not None)
        values = {(i + 1, j + 1): F(rows[i][j]) for i in range(p) for j in range(q) if rows[i][j] is not None}
        return PartialMatrix(Pattern(p, q, observed), values)

    def test_rank_one_forces_the_product(self):
        m = self.partial([[None, 2, 4], [3, 6, 12], [1, 2, 4]])
        assert one_missing_by_minors(m, (1, 1), 1) == ("unique", F(1))

    def test_conflicting_minor_is_none(self):
        # the observed minor on columns 2, 3 is 1 - 2 = -1, whatever the hole
        m = self.partial([[None, 1, 2], [1, 1, 1]])
        assert one_missing_by_minors(m, (1, 1), 1) == ("none", None)

    def test_hole_outside_every_nonzero_minor_is_infinite(self):
        # rows 2 and 3 are equal, so the 3x3 determinant vanishes for any fill
        m = self.partial([[None, 1, 2], [1, 2, 4], [1, 2, 4]])
        assert one_missing_by_minors(m, (1, 1), 2) == ("infinite", None)
