"""Answer checks written without the library.

Matrices are lists of rows of Fractions.  Every check returns ``None`` when
the answer holds and a short reason when it does not; none relies on
``assert``, so the checks still run under ``python -O``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations


def matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def transpose(m):
    return [list(col) for col in zip(*m)]


def rank(m) -> int:
    """Rank by Gaussian elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in m]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def is_nonnegative(m) -> bool:
    return all(x >= 0 for row in m for x in row)


def shape(m):
    return len(m), len(m[0]) if m else 0


def disagreement(partial, full):
    """Reason why ``full`` does not complete ``partial`` (None marks a
    hole), or None."""
    if shape(partial) != shape(full):
        return f"completion has shape {shape(full)}, input {shape(partial)}"
    for i, row in enumerate(partial):
        for j, x in enumerate(row):
            if x is not None and full[i][j] != x:
                return f"completion changes observed entry ({i + 1},{j + 1})"
    return None


def equal_up_to_relabelling(p, m) -> bool:
    """True when p equals m after permuting rows and columns, possibly
    after transposing.  Such relabellings keep the nonnegative rank."""
    for cand in (p, transpose(p)):
        if shape(cand) != shape(m):
            continue
        target = sorted(tuple(row) for row in m)
        for sigma in permutations(range(len(m[0]))):
            if sorted(tuple(row[k] for k in sigma) for row in cand) == target:
                return True
    return False


def factorization_fault(a, b, m, *, relabelled: bool = False):
    """Reason why (a, b) is not a nonnegative size-3 factorization of m.

    With ``relabelled`` the product may equal m up to row and column
    permutations and transposition.
    """
    if a is None or b is None:
        return "no witness"
    if len(b) != 3 or any(len(row) != 3 for row in a):
        return "inner dimension is not 3"
    if not is_nonnegative(a) or not is_nonnegative(b):
        return "witness has a negative entry"
    prod = matmul(a, b)
    if prod == m:
        return None
    if relabelled and equal_up_to_relabelling(prod, m):
        return None
    return "A.B differs from the matrix"


def completable_fault(partial, completion, a, b):
    """Reason why a Completable certificate fails, or None."""
    if completion is None:
        return "no completion"
    return disagreement(partial, completion) or factorization_fault(a, b, completion, relabelled=True)
