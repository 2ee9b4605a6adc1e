"""Seeded corpora for the four workloads.

Everything here is plain Python over Fractions: the library sees only the
matrices these generators return.  The same corpus seed always gives the
same corpus.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from checks import matmul

DEFAULT_CORPUS_SEED = 2601
HELD_OUT_CORPUS_SEED = 7658

FIXTURES = Path(__file__).resolve().parent / "fixtures"
CELLS = [(i, j) for i in range(4) for j in range(4)]

PRODUCT_CASES = 120
BITSIZE_RUNGS = (0, 1, 2, 3)
BITSIZE_DRAWS = 2
PLANTED_CASES = 36
NGON_CASES = 24
CLI_DRAWS = 3


@dataclass(frozen=True)
class Case:
    """One input.  ``rows`` uses None for a missing entry.  ``expected`` is
    the verdict known by construction, or None when only the committed
    expectations know it.  ``argv`` is set for CLI cases, with ``{input}``
    standing for the matrix file."""

    id: str
    rows: tuple
    expected: str | None = None
    rung: int | None = None
    argv: tuple = ()


def _frozen(rows):
    return tuple(tuple(r) for r in rows)


def format_rows(rows) -> str:
    def tok(x):
        if x is None:
            return "?"
        x = Fraction(x)
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    return "".join(" ".join(tok(x) for x in row) + "\n" for row in rows)


def parse_rows(text: str):
    return _frozen(
        [None if tok == "?" else Fraction(tok) for tok in line.split()]
        for line in text.splitlines()
        if line.strip()
    )


def fixture(name: str):
    return parse_rows((FIXTURES / f"{name}.txt").read_text())


def _random_product(rng, p, q, inner=3, hi=4):
    a = [[rng.randint(0, hi) for _ in range(inner)] for _ in range(p)]
    b = [[rng.randint(0, hi) for _ in range(q)] for _ in range(inner)]
    return matmul(a, b)


def _with_holes(full, holes):
    return _frozen(
        [None if (i, j) in holes else x for j, x in enumerate(row)] for i, row in enumerate(full)
    )


def products(seed: int) -> list:
    """Nonnegative rank-3 products of 4x3 and 3x4 factors with entries
    0..4, two random holes each: Completable by construction."""
    rng = random.Random(f"products/{seed}")
    out = []
    for n in range(PRODUCT_CASES):
        full = _random_product(rng, 4, 4)
        holes = set(rng.sample(CELLS, 2))
        out.append(Case(f"products-{n:03d}", _with_holes(full, holes), "Completable"))
    return out


def bitsize(seed: int) -> list:
    """The column-holes and diagonal-holes fixtures with every entry
    multiplied by (10^d + k)/10^d.  A positive scalar keeps the nonnegative
    rank, so the fixtures' verdict (NotCompletable) carries over while the
    coefficients grow by about 3.3 bits per rung."""
    rng = random.Random(f"bitsize/{seed}")
    out = []
    for d in BITSIZE_RUNGS:
        for name in ("column", "diagonal"):
            base = fixture(f"two_missing_{name}")
            for k in sorted(rng.sample(range(1, 10), BITSIZE_DRAWS)):
                f = Fraction(10**d + k, 10**d)
                rows = _frozen([None if x is None else x * f for x in row] for row in base)
                out.append(Case(f"bitsize-{name}-d{d}-k{k}", rows, "NotCompletable", rung=d))
    return out


def _circle_point(angle: float, radius: Fraction):
    """A rational point at about ``angle`` on the circle of ``radius``,
    from the rational parametrisation of the unit circle."""
    u = Fraction(round(math.tan(angle / 2) * 1000), 1000)
    return (radius * (1 - u * u) / (1 + u * u), radius * 2 * u / (1 + u * u))


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _polygon(rng, n, radius, phase):
    """Jittered near-regular n-gon, counter-clockwise; angles stay within
    (-pi, pi) so the tangent half-angle parametrisation is finite."""
    pts = []
    for i in range(n):
        angle = phase + 2 * math.pi * (i + rng.uniform(-0.15, 0.15)) / n
        angle = math.remainder(angle, 2 * math.pi)
        r = radius * Fraction(100 + rng.randint(-4, 4), 100)
        pts.append((angle, _circle_point(angle, r)))
    return [p for _, p in sorted(pts)]


def _edge_slack(outer, inner):
    """Slack matrix: edge i of the outer polygon evaluated at point j."""
    n = len(outer)
    return [[_orient(outer[i], outer[(i + 1) % n], p) for p in inner] for i in range(n)]


def _planted(rng):
    """Slack matrix of a pair with a planted nested triangle T: the inner
    points are convex combinations of T's vertices and every outer
    half-plane contains T, so the matrix factors through T."""
    tri = [(Fraction(rng.randint(-20, 20), 4), Fraction(rng.randint(-20, 20), 4)) for _ in range(3)]
    while _orient(*tri) == 0:
        tri[2] = (tri[2][0] + 1, tri[2][1])
    inner = []
    for _ in range(rng.randint(5, 9)):
        w = [rng.randint(1, 9) for _ in range(3)]
        s = sum(w)
        inner.append(tuple(sum(Fraction(wk, s) * v[c] for wk, v in zip(w, tri)) for c in (0, 1)))
    rows = []
    facets = rng.randint(5, 10)
    for j in range(facets):
        angle = math.remainder(2 * math.pi * (j + rng.uniform(-0.3, 0.3)) / facets, 2 * math.pi)
        nx, ny = _circle_point(angle, Fraction(1))
        c = min(nx * v[0] + ny * v[1] for v in tri) - Fraction(rng.randint(0, 3), 2)
        rows.append([nx * p[0] + ny * p[1] - c for p in inner])
    return rows


def _ngon_pair(rng):
    """Slack matrix of jittered near-regular nested n-gons, n = 5..12, with
    the inner radius near the size where a nested triangle stops fitting."""
    n = rng.randint(5, 12)
    outer = _polygon(rng, n, Fraction(1), rng.uniform(-math.pi, math.pi))
    radius = Fraction(rng.randint(50, 62), 100)
    while True:
        inner = _polygon(rng, n, radius, rng.uniform(-math.pi, math.pi))
        slack = _edge_slack(outer, inner)
        if all(x > 0 for row in slack for x in row):
            return slack
        radius = radius * Fraction(9, 10)


def nnrank3(seed: int) -> list:
    rng = random.Random(f"nnrank3/{seed}")
    out = [Case(f"nnrank3-planted-{n:02d}", _frozen(_planted(rng)), "True") for n in range(PLANTED_CASES)]
    out += [Case(f"nnrank3-ngon-{n:02d}", _frozen(_ngon_pair(rng))) for n in range(NGON_CASES)]
    return out


def cli(seed: int) -> list:
    """One CLI call per case: the six fixtures under every subcommand that
    accepts them, and CLI_DRAWS small generated inputs per subcommand."""
    rng = random.Random(f"cli/{seed}")
    cases = []

    def add(label, rows, *argv):
        cases.append(Case(f"cli-{label}", rows, argv=argv))

    for name in ("perturbed_full", "rank3_product"):
        add(f"rank-{name}", fixture(name), "rank", "{input}")
        add(f"check-nnrank3-{name}", fixture(name), "check-nnrank3", "{input}")
    add("one-missing-one_missing_perturbed", fixture("one_missing_perturbed"), "one-missing", "{input}", "--rank", "3")
    for name in ("two_missing_column", "two_missing_diagonal", "two_missing_unknown"):
        add(f"nn3-decide-{name}", fixture(name), "nn3-decide", "{input}", "--json")
    add("plot-rank3_product", fixture("rank3_product"), "plot", "{input}")
    add("plot-two_missing_column", fixture("two_missing_column"), "plot", "{input}")
    for n in range(CLI_DRAWS):
        full = _frozen(_random_product(rng, 4, 4))
        add(f"rank-generated-{n}", full, "rank", "{input}")
        add(f"check-nnrank3-generated-{n}", full, "check-nnrank3", "{input}")
        u = [rng.randint(1, 5) for _ in range(3)]
        v = [rng.randint(1, 5) for _ in range(4)]
        rank1 = _with_holes([[Fraction(x * y) for y in v] for x in u], set(rng.sample(CELLS[:12], 3)))
        add(f"complete-rank1-generated-{n}", rank1, "complete", "{input}", "--rank", "1")
        add(f"complete-rank1-nonnegative-generated-{n}", rank1, "complete", "{input}", "--rank", "1",
            "--nonnegative")
        # a 3x3 rank-2 product with one row reduced to a single observed entry
        row, keep = rng.randrange(3), rng.randrange(3)
        rank2 = _with_holes(_random_product(rng, 3, 3, inner=2), {(row, j) for j in range(3) if j != keep})
        add(f"complete-rank2-generated-{n}", rank2, "complete", "{input}", "--rank", "2", "--nonnegative")
        one_hole = _with_holes(_random_product(rng, 4, 4), {rng.choice(CELLS)})
        add(f"one-missing-generated-{n}", one_hole, "one-missing", "{input}", "--rank", "3")
        two_holes = _with_holes(_random_product(rng, 4, 4), set(rng.sample(CELLS, 2)))
        add(f"nn3-decide-generated-{n}", two_holes, "nn3-decide", "{input}", "--json")
    return cases


GENERATORS = {"products": products, "bitsize": bitsize, "nnrank3": nnrank3, "cli": cli}
