"""Exact dense linear algebra over the rationals.

All entries are ``fractions.Fraction`` values, so every rank, determinant
and solve is exact: there is no epsilon anywhere in this package.  Row and
column indices on the public surface are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("refusing float %r; pass an int, Fraction or string" % (x,))
    return Fraction(x)


class ExactMatrix:
    """Dense matrix of Fractions with 1-based entry access."""

    __slots__ = ("_rows", "p", "q")

    def __init__(self, rows: Iterable[Sequence]):
        data = [[_to_fraction(x) for x in row] for row in rows]
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
        rows[i - 1][j - 1] = _to_fraction(value)
        return ExactMatrix(rows)

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.p != other.p:
            raise ValueError("row count mismatch in hstack")
        return ExactMatrix([a + b for a, b in zip(self.to_lists(), other.to_lists())])

    def vstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.q != other.q:
            raise ValueError("column count mismatch in vstack")
        return ExactMatrix(self.to_lists() + other.to_lists())

    def scale(self, c) -> "ExactMatrix":
        c = _to_fraction(c)
        return ExactMatrix([[c * x for x in r] for r in self._rows])

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return ExactMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._rows, other._rows)
            ]
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + other.scale(-1)

    def is_nonnegative(self) -> bool:
        return all(x >= 0 for r in self._rows for x in r)

    def is_zero(self) -> bool:
        return all(x == 0 for r in self._rows for x in r)


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact matrix product."""
    if a.q != b.p:
        raise ValueError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    bt = b.transpose().to_lists()
    return ExactMatrix(
        [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a.to_lists()]
    )


ExactMatrix.__matmul__ = lambda self, other: matmul(self, other)  # type: ignore[attr-defined]


def det(m: ExactMatrix) -> Fraction:
    """Determinant by rational Gaussian elimination."""
    if m.p != m.q:
        raise ValueError("determinant of a non-square matrix")
    a = m.to_lists()
    n = m.p
    result = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            result = -result
        result *= a[k][k]
        inv = 1 / a[k][k]
        for r in range(k + 1, n):
            if a[r][k] != 0:
                f = a[r][k] * inv
                for c in range(k, n):
                    a[r][c] -= f * a[k][c]
    return result


def rank(m: ExactMatrix) -> int:
    """Exact rank by Gaussian elimination with exact pivot tests."""
    a = m.to_lists()
    p, q = m.p, m.q
    r = 0
    for c in range(q):
        pivot = next((i for i in range(r, p) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        for i in range(r + 1, p):
            if a[i][c] != 0:
                f = a[i][c] * inv
                for j in range(c, q):
                    a[i][j] -= f * a[r][j]
        r += 1
        if r == p:
            break
    return r


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
    n = m.p
    a = [row + ident for row, ident in zip(m.to_lists(), ExactMatrix.identity(n).to_lists())]
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        a[k], a[pivot] = a[pivot], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for r in range(n):
            if r != k and a[r][k] != 0:
                f = a[r][k]
                a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return ExactMatrix([row[n:] for row in a])


@dataclass
class LinearSolution:
    """Outcome of solving a x = rhs exactly.

    ``particular`` is one solution (columns matching rhs columns) when the
    system is consistent; ``kernel_basis`` spans the solution space of the
    homogeneous system as q x 1 column matrices.
    """

    consistent: bool
    particular: ExactMatrix | None
    kernel_basis: list[ExactMatrix]

    @property
    def kernel_dimension(self) -> int:
        return len(self.kernel_basis)


def solve_linear(a: ExactMatrix, rhs: ExactMatrix) -> LinearSolution:
    """Solve a x = rhs; inconsistency is reported, never raised."""
    if a.p != rhs.p:
        raise ValueError("row counts of system and right-hand side disagree")
    p, q = a.p, a.q
    k = rhs.q
    aug = [ra + rb for ra, rb in zip(a.to_lists(), rhs.to_lists())]
    # reduced row echelon form
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
