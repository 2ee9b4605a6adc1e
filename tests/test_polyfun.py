from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from nncomplete import Poly, RationalFunction, SharedDenominator

from oracles import rf_roots

coeffs = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=6), min_size=0, max_size=5
)
polys = coeffs.map(Poly)
points = st.fractions(min_value=-8, max_value=8, max_denominator=12)
big_roots = st.builds(
    Fraction, st.integers(-(2**64), 2**64), st.integers(1, 2**64)
)


def _no_rational_root(quadratic) -> bool:
    c, b, a = quadratic
    disc = b * b - 4 * a * c
    return disc < 0 or isqrt(disc) ** 2 != disc


# integer coefficients (c, b, a) of c + b t + a t^2, irreducible over Q
irreducible_quadratics = st.tuples(
    st.integers(-(2**20), 2**20), st.integers(-(2**20), 2**20), st.integers(1, 2**20)
).filter(_no_rational_root)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def sympy_oracle(sympy, p: Poly):
    """(sorted rational roots, number of distinct real roots) of p."""
    t = sympy.Symbol("t")
    sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], t)
    rational = sorted(
        Fraction(int(r.p), int(r.q))
        for f, _ in sp.factor_list()[1]
        if f.degree() == 1
        for r in [-f.nth(0) / f.nth(1)]
    )
    return rational, len(sp.intervals())


class TestArithmetic:
    @settings(max_examples=80, deadline=None)
    @given(polys, polys, points)
    def test_ring_ops_match_evaluation(self, p, q, t):
        assert (p + q)(t) == p(t) + q(t)
        assert (p - q)(t) == p(t) - q(t)
        assert (p * q)(t) == p(t) * q(t)

    @settings(max_examples=60, deadline=None)
    @given(polys, polys)
    def test_divmod_identity(self, p, q):
        if q.is_zero():
            with pytest.raises(ZeroDivisionError):
                p.divmod(q)
            return
        quot, rem = p.divmod(q)
        assert quot * q + rem == p
        assert rem.degree < q.degree or rem.is_zero()

    def test_derivative(self):
        p = Poly([1, -3, 0, 2])  # 1 - 3t + 2t^3
        assert p.derivative() == Poly([-3, 0, 6])


class TestRoots:
    def test_rational_roots_of_factored_poly(self):
        # (t - 2)(t + 1/3)(t - 5/7)
        p = Poly([-2, 1]) * Poly([Fraction(1, 3), 1]) * Poly([Fraction(-5, 7), 1])
        assert p.rational_roots() == [Fraction(-1, 3), Fraction(5, 7), Fraction(2)]

    def test_zero_root_extraction(self):
        p = Poly([0, 0, 1, 1])  # t^2 (t + 1)
        assert p.rational_roots() == [Fraction(-1), Fraction(0)]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(points, min_size=1, max_size=4))
    def test_roots_found_for_products_of_linear_factors(self, roots):
        p = Poly([1])
        for r in roots:
            p = p * Poly([-r, 1])
        assert p.rational_roots() == sorted(set(roots))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(big_roots, max_size=4), st.lists(irreducible_quadratics, max_size=2))
    def test_roots_match_sympy(self, sympy, roots, quadratics):
        p = Poly([1])
        for r in roots:
            p = p * Poly([-r, 1])
        for q in quadratics:
            p = p * Poly(q)
        if p.degree < 1:
            return
        rational, n_real = sympy_oracle(sympy, p)
        assert p.rational_roots() == rational == sorted(set(roots))
        assert len(p.isolate_real_roots()) == n_real

    def test_quartic_with_large_integer_roots(self, sympy):
        # two integer roots near 10^8 and two irrational ones: divisor
        # enumeration of the constant term needs about 10^8 trial divisions
        p = Poly([-99999989, 1]) * Poly([-100000007, 1]) * Poly([-2, 0, 1])
        rational, n_real = sympy_oracle(sympy, p)
        assert p.rational_roots() == rational == [99999989, 100000007]
        intervals = p.isolate_real_roots()
        assert len(intervals) == n_real == 4
        assert (Fraction(99999989), Fraction(99999989)) in intervals
        assert p.count_roots(Fraction(1), Fraction(2)) == 1

    def test_sturm_counts_irrational_roots(self):
        p = Poly([-2, 0, 1])  # t^2 - 2
        assert p.count_roots(Fraction(0), Fraction(2)) == 1
        assert p.count_roots(Fraction(-2), Fraction(2)) == 2

    def test_isolation_separates_all_real_roots(self):
        # (t^2 - 2)(t - 1): roots -sqrt2, 1, sqrt2
        p = Poly([-2, 0, 1]) * Poly([-1, 1])
        intervals = p.isolate_real_roots()
        assert len(intervals) == 3
        assert (Fraction(1), Fraction(1)) in intervals
        for (a, b) in intervals:
            assert a <= b
        # intervals are pairwise disjoint and ordered
        for (a1, b1), (a2, b2) in zip(intervals, intervals[1:]):
            assert b1 <= a2

    def test_rational_root_next_to_an_irrational_bracket(self):
        # (t + 2)(4t^2 + 6t - 3): the bracket of the root near -1.896 is
        # narrowed next to -2, whose fraction is the bracket midpoint's
        # limit_denominator(4); it is a root, but not the bracket's one
        p = Poly([2, 1]) * Poly([-3, 6, 4])
        assert p.rational_roots() == [Fraction(-2)]
        intervals = p.isolate_real_roots()
        assert len(intervals) == 3
        assert intervals[0] == (Fraction(-2), Fraction(-2))
        for (a, b) in intervals[1:]:
            assert a < b and p.count_roots(a, b) == 1
        for (a1, b1), (a2, b2) in zip(intervals, intervals[1:]):
            assert b1 <= a2

    @settings(max_examples=40, deadline=None)
    @given(st.lists(points, min_size=1, max_size=3, unique=True))
    def test_isolation_degenerate_for_rational_roots(self, roots):
        p = Poly([1])
        for r in roots:
            p = p * Poly([-r, 1])
        got = p.isolate_real_roots()
        assert got == sorted((r, r) for r in roots)


class TestRationalFunction:
    def test_lowest_terms(self):
        f = RationalFunction(Poly([0, 1, 1]), Poly([0, 1]))  # (t^2+t)/t
        assert f == RationalFunction(Poly([1, 1]))
        zero = RationalFunction(Poly([]), Poly([-3, 1]))  # 0/(t-3)
        assert zero == RationalFunction.constant(0)
        assert zero.den == Poly([1])
        g = RationalFunction(Poly([5]), Poly([-4, 2]))  # 5/(2t-4)
        assert g.den == Poly([-2, 1]) and g.num == Poly([Fraction(5, 2)])
        one = RationalFunction(Poly([-1, 1]), Poly([-1, 1]))  # (t-1)/(t-1)
        assert one == RationalFunction.constant(1)

    @settings(max_examples=60, deadline=None)
    @given(polys, polys, points)
    def test_field_ops_match_evaluation(self, p, q, t):
        if q.is_zero():
            return
        f = RationalFunction(p, q)
        g = RationalFunction(q, Poly([1]))
        if f.defined_at(t):
            assert (f + g)(t) == f(t) + g(t)
            assert (f * g)(t) == f(t) * g(t)

    def test_pole_raises(self):
        f = RationalFunction(Poly([1]), Poly([-3, 1]))
        assert not f.defined_at(3)
        with pytest.raises(ZeroDivisionError):
            f(3)


int64 = st.integers(-(2**63), 2**63)
int_polys = st.lists(int64, min_size=1, max_size=3).map(Poly)
weights64 = st.one_of(st.just(Fraction(0)), st.builds(Fraction, int64, st.integers(1, 2**63)))


class TestSharedDenominator:
    @settings(max_examples=120, deadline=None)
    @given(
        st.data(),
        st.integers(1, 3),
        st.builds(Fraction, st.integers(-(2**32), 2**32), st.integers(1, 2**32)),
        st.sampled_from([(1, 1), (2, 2), (1, 2), (2, 1), (0, 1)]),
        st.booleans(),
    )
    def test_combination_matches_rational_function_sums(self, data, k, r, mult, zero):
        """constant + sum(w_i f_i) is built as T/D with T = (t-r)^a U and
        D = (t-r)^b V, so the combination cancels (t-r) against the
        shared denominator with equal or unequal multiplicity; T = 0
        gives a zero combination."""
        a, b = mult
        linear = Poly([-r, 1])
        u, v = data.draw(int_polys), data.draw(int_polys)
        if v.is_zero():
            v = Poly([1])
        target = Poly([]) if zero or u.is_zero() else linear**a * u
        den = linear**b * v
        constant = data.draw(weights64)
        ws = [data.draw(weights64) for _ in range(k)]
        fs = [RationalFunction(data.draw(int_polys), den) for _ in range(k)]
        live = [i for i, w in enumerate(ws) if w]
        if live:
            # solve for one function so that the combination is target/den
            j = live[0]
            rest = sum((ws[i] * fs[i] for i in range(k) if i != j), RationalFunction.constant(constant))
            fs[j] = (RationalFunction(target, den) - rest) / ws[j]
        combo = sum((w * f for w, f in zip(ws, fs)), RationalFunction.constant(constant))
        expected = sorted(rf_roots(combo))
        assert SharedDenominator(fs).combination_roots(constant, ws) == expected
        if live and target.is_zero():
            assert expected == []
        if live and a == b and u(r) != 0 and v(r) != 0:
            assert r not in expected
        if live and a != b and not target.is_zero() and u(r) != 0 and v(r) != 0:
            assert expected.count(r) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(int_polys, int_polys), min_size=1, max_size=3), points)
    def test_each_function_over_the_lcm(self, pairs, t):
        fs = [RationalFunction(n, d) for n, d in pairs if not d.is_zero()]
        if not fs:
            return
        shared = SharedDenominator(fs)
        den = Poly(shared.den)
        assert len({len(shared.den), *map(len, shared.nums)}) == 1
        for f, n in zip(fs, shared.nums):
            assert RationalFunction(Poly(n), den) == f
            if f.defined_at(t) and den(t) != 0:
                assert Poly(n)(t) / den(t) == f(t)
        # den is the lcm of the reduced denominators: no factor of it
        # divides every numerator
        common = den
        for n in shared.nums:
            common = common.gcd(Poly(n))
        assert common.degree == 0

    def test_weights_must_match_functions(self):
        shared = SharedDenominator([RationalFunction(Poly([1]), Poly([-1, 1]))])
        with pytest.raises(ValueError):
            shared.combination_roots(0, (1, 2))
