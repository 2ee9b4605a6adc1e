import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nncomplete import ExactMatrix, det, inverse, matmul, minor, rank, solve_linear
from nncomplete.linalg import pivot_columns

from conftest import rnd_fraction
from oracles import (
    det_cofactor,
    greedy_independent_columns,
    matmul_by_fractions,
    matrix_rank_float,
    rank_by_minors,
    solve_linear_gauss_jordan,
)

fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=8
)


def sq_matrix(n):
    return st.lists(
        st.lists(fractions, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(ExactMatrix)


# entries with numerators and denominators up to 2^64, mixed with small ones
# and zeros so that ties, cancellations and zero pivots occur
WIDE = st.one_of(
    st.builds(Fraction, st.integers(-(2**64), 2**64), st.integers(1, 2**64)),
    st.integers(-3, 3).map(Fraction),
)


def rows_of(p, q):
    return st.lists(st.lists(WIDE, min_size=q, max_size=q), min_size=p, max_size=p)


@st.composite
def wide_matrices(draw, square=False):
    """1-5 x 1-5 matrices: dense, products U.V of inner dimension below
    min(p, q) where that is possible, or with zeroed rows and columns."""
    p = draw(st.integers(1, 5))
    q = p if square else draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["dense", "product", "zero lines"]))
    if kind == "product":
        k = draw(st.integers(1, max(1, min(p, q) - 1)))
        u = draw(rows_of(p, k))
        v = draw(rows_of(k, q))
        rows = [[sum(x * y for x, y in zip(ur, vc)) for vc in zip(*v)] for ur in u]
    else:
        rows = draw(rows_of(p, q))
    if kind == "zero lines":
        zero_rows = draw(st.sets(st.integers(0, p - 1)))
        zero_cols = draw(st.sets(st.integers(0, q - 1)))
        rows = [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(r)]
                for i, r in enumerate(rows)]
    return ExactMatrix(rows)


@st.composite
def systems(draw):
    """(a, rhs) with rhs of 1-2 columns, half of them consistent by
    construction."""
    a = draw(wide_matrices())
    k = draw(st.integers(1, 2))
    if draw(st.booleans()):
        rhs = matmul(a, ExactMatrix(draw(rows_of(a.q, k))))
    else:
        rhs = ExactMatrix(draw(rows_of(a.p, k)))
    return a, rhs


class TestBasics:
    def test_identity_and_indexing(self):
        m = ExactMatrix.identity(3)
        assert m.entry(1, 1) == 1 and m.entry(1, 2) == 0
        assert m[3, 3] == 1

    def test_one_based_submatrix(self):
        m = ExactMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert m.submatrix([1, 3], [2, 3]) == ExactMatrix([[2, 3], [8, 9]])

    def test_stacking(self):
        a = ExactMatrix([[1], [2]])
        b = ExactMatrix([[3], [4]])
        assert a.hstack(b) == ExactMatrix([[1, 3], [2, 4]])
        assert a.vstack(b) == ExactMatrix([[1], [2], [3], [4]])


class TestDet:
    @settings(max_examples=60, deadline=None)
    @given(sq_matrix(3) | sq_matrix(4))
    def test_matches_cofactor_expansion(self, m):
        assert det(m) == det_cofactor(m.to_lists())

    @settings(max_examples=40, deadline=None)
    @given(sq_matrix(3), sq_matrix(3))
    def test_multiplicative(self, a, b):
        assert det(matmul(a, b)) == det(a) * det(b)

    def test_minor_is_submatrix_det(self):
        m = ExactMatrix([[12, 2, 1, 9], [8, 6, 3, 10], [4, 16, 13, 9], [12, 4, 6, 5]])
        assert minor(m, [3, 4], [3, 4]) == Fraction(11)


class TestRank:
    def test_regression_matrix_rank(self):
        m = ExactMatrix([[12, 2, 1, 9], [8, 6, 3, 10], [4, 16, 13, 9], [12, 4, 6, 5]])
        assert rank(m) == 3

    @settings(max_examples=60, deadline=None)
    @given(sq_matrix(3) | sq_matrix(4))
    def test_rank_matches_float_oracle(self, m):
        assert rank(m) == matrix_rank_float(m)

    def test_outer_product_rank(self, rng):
        for _ in range(25):
            u = [rnd_fraction(rng, -6, 6) for _ in range(4)]
            v = [rnd_fraction(rng, -6, 6) for _ in range(5)]
            m = ExactMatrix([[x * y for y in v] for x in u])
            expected = 1 if any(u) and any(v) else 0
            assert rank(m) == expected


class TestSolveAndInverse:
    @settings(max_examples=40, deadline=None)
    @given(sq_matrix(3))
    def test_inverse_roundtrip(self, m):
        if det(m) == 0:
            with pytest.raises(ValueError):
                inverse(m)
        else:
            assert matmul(m, inverse(m)) == ExactMatrix.identity(3)

    def test_solve_consistent(self, rng):
        for _ in range(25):
            a = ExactMatrix([[rnd_fraction(rng, -5, 5) for _ in range(2)] for _ in range(4)])
            x = ExactMatrix([[rnd_fraction(rng, -5, 5)] for _ in range(2)])
            rhs = matmul(a, x)
            sol = solve_linear(a, rhs)
            assert sol.consistent
            assert matmul(a, sol.particular) == rhs

    def test_solve_inconsistent(self):
        a = ExactMatrix([[1, 0], [1, 0]])
        rhs = ExactMatrix([[1], [2]])
        assert not solve_linear(a, rhs).consistent

    def test_kernel_dimension(self):
        a = ExactMatrix([[1, 2, 3], [2, 4, 6]])
        sol = solve_linear(a, ExactMatrix.zeros(2, 1))
        assert sol.kernel_dimension == 2
        for k in sol.kernel_basis:
            assert matmul(a, k).is_zero()


class TestAgainstOracles:
    """Exact equality with independent references on wide rationals."""

    @settings(max_examples=150, deadline=None)
    @given(wide_matrices())
    def test_rank_is_largest_nonzero_minor(self, m):
        assert rank(m) == rank_by_minors(m)

    @settings(max_examples=150, deadline=None)
    @given(wide_matrices(square=True))
    def test_det_matches_cofactor_expansion(self, m):
        assert det(m) == det_cofactor(m.to_lists())

    @settings(max_examples=150, deadline=None)
    @given(wide_matrices(square=True))
    def test_inverse_matches_gauss_jordan(self, m):
        reference = solve_linear_gauss_jordan(m, ExactMatrix.identity(m.p))
        if not reference.consistent:
            with pytest.raises(ValueError, match="singular"):
                inverse(m)
        else:
            assert inverse(m) == reference.particular

    @settings(max_examples=150, deadline=None)
    @given(systems())
    def test_solve_matches_gauss_jordan(self, system):
        """The reduced row echelon form is unique, so the particular
        solution and the kernel basis are too."""
        sol = solve_linear(*system)
        reference = solve_linear_gauss_jordan(*system)
        assert sol.consistent == reference.consistent
        assert sol.particular == reference.particular
        assert sol.kernel_basis == reference.kernel_basis

    @settings(max_examples=150, deadline=None)
    @given(wide_matrices())
    def test_pivot_columns_are_greedy_independent_columns(self, m):
        assert pivot_columns(m) == greedy_independent_columns(m)


def rnd_mixed_rational(rng) -> Fraction:
    """Zero, a small rational, or one with a numerator and a denominator
    of up to 80 bits, each of either sign."""
    kind = rng.random()
    if kind < 0.2:
        return Fraction(0)
    if kind < 0.6:
        return Fraction(rng.randint(-12, 12), rng.randint(1, 6))
    return Fraction(rng.randint(-(2**80), 2**80), rng.randint(1, 2**80))


class TestMatmulAgainstFractionOracle:
    """The integer product over common denominators against the sum of
    Fraction products; Fractions are normalized, so equal entries print
    the same."""

    def test_random_rationals_with_large_and_mixed_denominators(self):
        rng = random.Random(4111)
        for _ in range(300):
            p, k, q = (rng.randint(1, 5) for _ in range(3))
            a = ExactMatrix([[rnd_mixed_rational(rng) for _ in range(k)] for _ in range(p)])
            b = ExactMatrix([[rnd_mixed_rational(rng) for _ in range(q)] for _ in range(k)])
            assert repr(matmul(a, b)) == repr(matmul_by_fractions(a, b))

    def test_zero_rows_and_zero_columns(self):
        rng = random.Random(4112)
        for _ in range(100):
            p, k, q = (rng.randint(1, 4) for _ in range(3))
            rows = [[rnd_mixed_rational(rng) for _ in range(k)] for _ in range(p)]
            cols = [[rnd_mixed_rational(rng) for _ in range(k)] for _ in range(q)]
            rows[rng.randrange(p)] = [0] * k
            cols[rng.randrange(q)] = [0] * k
            a, b = ExactMatrix(rows), ExactMatrix(cols).transpose()
            product = matmul(a, b)
            assert product == matmul_by_fractions(a, b)
            assert any(all(x == 0 for x in product.row(i)) for i in range(1, p + 1))
            assert any(all(x == 0 for x in product.col(j)) for j in range(1, q + 1))

    def test_inner_dimensions_must_agree(self):
        a, b = ExactMatrix.zeros(2, 3), ExactMatrix.zeros(2, 3)
        for mul in (matmul, matmul_by_fractions):
            with pytest.raises(ValueError, match="inner dimensions disagree"):
                mul(a, b)
