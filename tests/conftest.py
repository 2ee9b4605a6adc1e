import cProfile
import pstats
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from nncomplete import ExactMatrix, PartialMatrix, Pattern, Polygon2, convex_hull, matmul, parse_partial

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def unique_nmf_matrix():
    """4x4 rank-3 matrix with (up to scaling and permutation) a unique
    size-3 nonnegative factorization."""
    return ExactMatrix(
        [[12, 2, 1, 9], [8, 6, 3, 10], [4, 16, 13, 9], [12, 4, 6, 5]]
    )


@pytest.fixture
def unique_nmf_factors():
    a = ExactMatrix([[0, 1, 2], [1, 0, 2], [4, 1, 0], [1, 3, 0]])
    b = ExactMatrix([[0, 4, 3, 2], [4, 0, 1, 1], [4, 1, 0, 4]])
    return a, b


@pytest.fixture
def perturbed_full():
    """Rank-3 but not nonnegative-rank-3 matrix (one factor zero pushed
    negative)."""
    return ExactMatrix(
        [[12, 2, 1, 9], [8, 6, 3, 10], [4, 16, 13, 9], [8, 3, 6, 1]]
    )


@pytest.fixture
def perturbed_one_missing():
    return parse_partial((DATA / "one_missing_perturbed.txt").read_text())


@pytest.fixture
def two_missing_column():
    """4x4 with both holes in column 1; decidedly not completable in
    nonnegative rank 3."""
    return parse_partial((DATA / "two_missing_column.txt").read_text())


@pytest.fixture
def two_missing_diagonal():
    """4x4 with holes at (1,1) and (2,2); refuted by the monotone
    envelope."""
    return parse_partial((DATA / "two_missing_diagonal.txt").read_text())


def fractions_made(fn, *args) -> int:
    """How many Fractions one call of fn constructs, by cProfile."""
    profile = cProfile.Profile()
    profile.runcall(fn, *args)
    return sum(stat[1] for (path, _, name), stat in pstats.Stats(profile).stats.items()
               if path.endswith("fractions.py") and name in ("__new__", "_from_coprime_ints"))


def rnd_fraction(rng, lo=0, hi=12, den=6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def drawn_polygon(draw) -> Polygon2:
    """The hull of the points that draw() returns, drawn again until they
    span a polygon: a polygon is two-dimensional."""
    while len(convex_hull(pts := draw())) < 3:
        pass
    return Polygon2.from_points(pts)


def rnd_pattern(rng, p, q, keep=None) -> Pattern:
    cells = [(i, j) for i in range(1, p + 1) for j in range(1, q + 1)]
    if keep is None:
        keep = rng.randint(1, p * q)
    observed = frozenset(rng.sample(cells, keep))
    return Pattern(p, q, observed)


def restrict(m: ExactMatrix, pattern: Pattern) -> PartialMatrix:
    return PartialMatrix(
        pattern, {(i, j): m.entry(i, j) for (i, j) in pattern.observed}
    )


def rnd_rank1_nonneg(rng, p, q, zero_chance=0.3) -> ExactMatrix:
    u = [Fraction(0) if rng.random() < zero_chance else rnd_fraction(rng, 1, 9) for _ in range(p)]
    v = [Fraction(0) if rng.random() < zero_chance else rnd_fraction(rng, 1, 9) for _ in range(q)]
    return ExactMatrix([[ui * vj for vj in v] for ui in u])


def rnd_nonneg_product(rng, p, q, r, zero_chance=0.25) -> ExactMatrix:
    def cell():
        return Fraction(0) if rng.random() < zero_chance else rnd_fraction(rng, 1, 10)

    a = ExactMatrix([[cell() for _ in range(r)] for _ in range(p)])
    b = ExactMatrix([[cell() for _ in range(q)] for _ in range(r)])
    return matmul(a, b)


def rnd_signed_partial(rng) -> PartialMatrix:
    """1x1 to 4x4 with about a third of the entries missing.  Entries are
    independent in 0..3 or -2..3, or those of a rank-1 product u v^T with
    u, v in -2..3; now and then a row or a column is zeroed."""
    p, q = rng.randint(1, 4), rng.randint(1, 4)
    lo = rng.choice((0, -2))
    if rng.random() < 0.5:
        rows = [[rng.randint(lo, 3) for _ in range(q)] for _ in range(p)]
    else:
        u = [rng.randint(lo, 3) for _ in range(p)]
        v = [rng.randint(lo, 3) for _ in range(q)]
        rows = [[x * y for y in v] for x in u]
    if rng.random() < 0.3:
        rows[rng.randrange(p)] = [0] * q
    if rng.random() < 0.3:
        j = rng.randrange(q)
        for row in rows:
            row[j] = 0
    return PartialMatrix.from_rows(
        [[None if rng.random() < 0.35 else x for x in row] for row in rows]
    )


@pytest.fixture
def rng():
    return random.Random(20260823)
