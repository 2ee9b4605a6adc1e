"""Exact dense linear algebra over the rationals.

All entries are ``fractions.Fraction`` values, so every rank, determinant
and solve is exact: there is no epsilon anywhere in this package.  Row and
column indices on the public surface are 1-based.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import lcm
from operator import mul


class VerificationError(AssertionError):
    """An exact re-verification of a constructed answer failed.

    Deliberately not a ValueError: callers that treat ValueError as "this
    input is out of reach" must never swallow a wrong answer.  It lives in
    the module every other one imports, so raising it loads nothing more.
    """


def to_fraction(x) -> Fraction:
    """x as a Fraction, refusing a binary float (0.1 would silently become
    3602879701896397/36028797018963968)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("refusing float %r; pass an int, Fraction or string" % (x,))
    return Fraction(x)


class ExactMatrix:
    """Dense matrix of Fractions with 1-based entry access."""

    __slots__ = ("_rows", "p", "q")

    def __init__(self, rows: Iterable[Sequence]):
        data = [[to_fraction(x) for x in row] for row in rows]
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and one column")
        q = len(data[0])
        for row in data:
            if len(row) != q:
                raise ValueError("ragged rows")
        self._rows = data
        self.p = len(data)
        self.q = q

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, p: int, q: int) -> "ExactMatrix":
        return cls([[0] * q for _ in range(p)])

    @classmethod
    def column(cls, entries: Sequence) -> "ExactMatrix":
        return cls([[x] for x in entries])

    @classmethod
    def row_vector(cls, entries: Sequence) -> "ExactMatrix":
        return cls([list(entries)])

    # -- access -------------------------------------------------------

    def entry(self, i: int, j: int) -> Fraction:
        """Entry (i, j), 1-based."""
        if not (1 <= i <= self.p and 1 <= j <= self.q):
            raise IndexError(f"entry ({i},{j}) out of range for {self.p}x{self.q}")
        return self._rows[i - 1][j - 1]

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entry(i, j)

    def row(self, i: int) -> list[Fraction]:
        return list(self._rows[i - 1])

    def col(self, j: int) -> list[Fraction]:
        return [r[j - 1] for r in self._rows]

    def to_lists(self) -> list[list[Fraction]]:
        return [list(r) for r in self._rows]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.p, self.q)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.shape == other.shape
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self._rows))

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(str(x) for x in r) for r in self._rows)
        return f"ExactMatrix({self.p}x{self.q}: {rows})"

    # -- structural operations ---------------------------------------

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "ExactMatrix":
        """Submatrix with the given 1-based row and column index lists."""
        return ExactMatrix(
            [[self._rows[i - 1][j - 1] for j in cols] for i in rows]
        )

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            [[self._rows[i][j] for i in range(self.p)] for j in range(self.q)]
        )

    def with_entry(self, i: int, j: int, value) -> "ExactMatrix":
        rows = self.to_lists()
        rows[i - 1][j - 1] = to_fraction(value)
        return ExactMatrix(rows)

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.p != other.p:
            raise ValueError("row count mismatch in hstack")
        return ExactMatrix([a + b for a, b in zip(self.to_lists(), other.to_lists())])

    def vstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.q != other.q:
            raise ValueError("column count mismatch in vstack")
        return ExactMatrix(self.to_lists() + other.to_lists())

    def is_nonnegative(self) -> bool:
        return all(x >= 0 for r in self._rows for x in r)

    def is_zero(self) -> bool:
        return all(x == 0 for r in self._rows for x in r)


def integer_scaled(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """(ns, d): the Fractions xs times d, the lcm of their denominators, so
    ns are integers and x_k = ns[k] / d."""
    # a list, not a generator: with lcm(*generator), CPython 3.11's peak
    # memory grew on every pass of nn_rank_at_most_3 over a corpus
    ratios = [x.as_integer_ratio() for x in xs]
    d = lcm(*[q for _, q in ratios])
    return [n * (d // q) for n, q in ratios], d


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact matrix product over common denominators: each row of a and
    each column of b is scaled to integers by the lcm of its denominators,
    so an entry is one integer dot product and one Fraction."""
    if a.q != b.p:
        raise ValueError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    cols = [integer_scaled(col) for col in zip(*b._rows)]
    rows = map(integer_scaled, a._rows)
    return ExactMatrix([[Fraction(sum(map(mul, rn, cn)), rd * cd) for cn, cd in cols] for rn, rd in rows])


def _echelon(scaled):
    """Fraction-free (Bareiss 1968) forward elimination.

    Takes the rows scaled to integers, each a pair (ns, d) as
    `integer_scaled` gives it; the pairs are not modified.  Returns
    ``(echelon, pivots, sign, scale)``: the integer echelon rows, the
    0-based pivot columns (the greedy left-to-right independent columns),
    the sign of the row permutation and the product of the row scales d.
    The pivot of step k is the k x k minor of the scaled, permuted rows on
    the first k pivot columns, so every division below is exact and the
    last pivot of a nonsingular square matrix is sign * scale * det.
    """
    a = [ns for ns, _ in scaled]
    scale = 1
    for _, d in scaled:
        scale *= d
    p, q = len(a), len(a[0])
    pivots: list[int] = []
    sign, prev = 1, 1
    for c in range(q):
        r = len(pivots)
        if r == p:
            break
        pivot = next((i for i in range(r, p) if a[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        top = a[r]
        pv = top[c]
        for i in range(r + 1, p):
            f = a[i][c]
            a[i] = [(pv * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = pv
        pivots.append(c)
    return a, pivots, sign, scale


def det(m: ExactMatrix) -> Fraction:
    """Determinant: the last pivot of the fraction-free elimination."""
    if m.p != m.q:
        raise ValueError("determinant of a non-square matrix")
    a, pivots, sign, scale = _echelon(list(map(integer_scaled, m._rows)))
    if len(pivots) < m.p:
        return Fraction(0)
    return Fraction(sign * a[-1][-1], scale)


def rank(m: ExactMatrix) -> int:
    """Exact rank: the number of pivots of the fraction-free elimination."""
    return len(_echelon(list(map(integer_scaled, m._rows)))[1])


def scaled_rows_and_pivots(m: ExactMatrix) -> tuple[list, list[int]]:
    """The rows of m scaled to integers, each a pair (ns, d) as
    `integer_scaled` gives it, and the 1-based pivot columns of m, from one
    elimination of those rows."""
    scaled = list(map(integer_scaled, m._rows))
    return scaled, [c + 1 for c in _echelon(scaled)[1]]


def pivot_columns(m: ExactMatrix) -> list[int]:
    """1-based indices of the greedy left-to-right independent columns."""
    return scaled_rows_and_pivots(m)[1]


def minor(m: ExactMatrix, rows: Sequence[int], cols: Sequence[int]) -> Fraction:
    """Determinant of the submatrix selected by 1-based index sets."""
    rows = sorted(rows)
    cols = sorted(cols)
    if len(rows) != len(cols):
        raise ValueError("index sets must have equal size")
    return det(m.submatrix(rows, cols))


def inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a square nonsingular matrix."""
    if m.p != m.q:
        raise ValueError("inverse of a non-square matrix")
    sol = solve_linear(m, ExactMatrix.identity(m.p))
    if not sol.consistent:
        raise ValueError("matrix is singular")
    return sol.particular


class LinearSolution(namedtuple("LinearSolution", "consistent particular kernel_basis")):
    """Outcome of solving a x = rhs exactly.

    ``particular`` is one solution (columns matching rhs columns) when the
    system is consistent; ``kernel_basis`` spans the solution space of the
    homogeneous system as q x 1 column matrices.
    """

    __slots__ = ()

    @property
    def kernel_dimension(self) -> int:
        return len(self.kernel_basis)


def solve_linear(a: ExactMatrix, rhs: ExactMatrix) -> LinearSolution:
    """Solve a x = rhs; inconsistency is reported, never raised."""
    if a.p != rhs.p:
        raise ValueError("row counts of system and right-hand side disagree")
    q = a.q
    u, pivots, _, _ = _echelon([integer_scaled(ra + rb) for ra, rb in zip(a._rows, rhs._rows)])
    # a pivot in the right-hand side is a zero coefficient row with a
    # nonzero right-hand side
    if pivots and pivots[-1] >= q:
        return LinearSolution(False, None, [])

    def back_substitute(b: list[int]) -> list[Fraction]:
        """x with u x = b on the pivot rows and every free variable 0."""
        x = [Fraction(0)] * q
        for k in reversed(range(len(pivots))):
            row = u[k]
            x[pivots[k]] = Fraction(b[k] - sum(row[c] * x[c] for c in pivots[k + 1:]), row[pivots[k]])
        return x

    columns = [back_substitute([row[q + j] for row in u]) for j in range(rhs.q)]
    part = ExactMatrix(zip(*columns))
    kernel = []
    for fc in range(q):
        if fc not in pivots:
            vec = back_substitute([-row[fc] for row in u])
            vec[fc] = Fraction(1)
            kernel.append(ExactMatrix.column(vec))
    return LinearSolution(True, part, kernel)
