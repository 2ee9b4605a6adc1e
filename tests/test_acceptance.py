"""Acceptance gate: the eight headline guarantees of the package, each
reported with a single PASS/FAIL line."""

import functools
import random
import sys
import time
from fractions import Fraction

from nncomplete import (
    ExactMatrix,
    NestedPair,
    PartialMatrix,
    Pattern,
    Polygon2,
    classify_one_missing,
    contains,
    decide_nn3_two_missing,
    det,
    eval_boundary_sextic,
    family_11_21,
    family_11_22,
    matmul,
    nested_triangle,
    nn_rank2_pattern_equivalence,
    nn_rank_at_most_3,
    parse_partial,
    rank,
    rank1_complete,
    slack_matrix,
    support_graph,
    sweep_candidates,
)
from nncomplete.cli import main as cli_main

from conftest import DATA, GOLDEN, drawn_polygon, restrict, rnd_pattern, rnd_rank1_nonneg
from oracles import (
    nmf_residual,
    one_missing_by_minors,
    random_boundary_product,
    rotation_grid_triangle,
    verify_triangle,
)

F = Fraction


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {num}: {desc}", file=sys.__stderr__, flush=True)
                raise
            print(f"[PASS] {num}: {desc}", file=sys.__stderr__, flush=True)

        return wrapper

    return deco


def _normalized_factor_columns(a: ExactMatrix, b: ExactMatrix) -> set:
    """Canonical form of a size-3 factorization: each left column scaled to
    unit sum (with the inverse scale pushed into the right row), as an
    unordered set, so equality means equal up to column scaling and
    permutation."""
    out = set()
    for k in range(1, 4):
        col = a.col(k)
        row = b.row(k)
        s = sum(col)
        if s == 0:
            if any(x != 0 for x in row):
                out.add(("zero-col", tuple(row)))
            continue
        out.add((tuple(x / s for x in col), tuple(x * s for x in row)))
    return out


@criterion(1, "unique-factorization regression: rank 3, nonnegative rank 3, "
              "factors recovered up to scaling and permutation, under 1s")
def test_acceptance_unique_factorization(unique_nmf_matrix, unique_nmf_factors):
    start = time.perf_counter()
    m = unique_nmf_matrix
    assert rank(m) == 3
    ok, witness = nn_rank_at_most_3(m)
    assert ok
    a, b = witness
    assert a.is_nonnegative() and b.is_nonnegative()
    assert matmul(a, b) == m
    ref_a, ref_b = unique_nmf_factors
    assert _normalized_factor_columns(a, b) == _normalized_factor_columns(ref_a, ref_b)
    assert time.perf_counter() - start < 1.0


@criterion(2, "perturbed one-missing regression: unique rank-3 value 12, "
              "perturbed completion loses nonnegative rank 3, under 5s")
def test_acceptance_perturbed_one_missing(perturbed_one_missing, perturbed_full):
    start = time.perf_counter()
    out = classify_one_missing(perturbed_one_missing, (1, 1), 3)
    assert out.kind == "unique"
    assert out.matrix.entry(1, 1) == 12
    assert perturbed_full == perturbed_one_missing.complete_with({(1, 1): F(12)})
    ok, witness = nn_rank_at_most_3(perturbed_full)
    assert not ok and witness is None
    assert time.perf_counter() - start < 5.0


@criterion(3, "boundary sextic vanishes on the regression matrix and on 100 "
              "random zero-pattern products")
def test_acceptance_boundary_sextic(unique_nmf_matrix):
    assert eval_boundary_sextic(unique_nmf_matrix) == 0
    rng = random.Random(3)
    for _ in range(100):
        assert eval_boundary_sextic(random_boundary_product(rng)) == 0


@criterion(4, "3x3 patterns: rank-2 equivalence fails exactly for "
              "diagonal-like missing sets; the diagonal witness determinant "
              "is 1 + m11*m22*m33 >= 1 on the whole grid")
def test_acceptance_3x3_patterns():
    cells = [(i, j) for i in range(1, 4) for j in range(1, 4)]
    for bits in range(512):
        observed = frozenset(c for k, c in enumerate(cells) if bits >> k & 1)
        pattern = Pattern(3, 3, observed)
        missing = pattern.missing
        rows = [i for (i, j) in missing]
        cols = [j for (i, j) in missing]
        diagonal_like = bool(missing) and (
            len(set(rows)) == len(missing) and len(set(cols)) == len(missing)
        )
        assert nn_rank2_pattern_equivalence(pattern) == (not diagonal_like)
    grid = [F(k, 4) for k in range(17)]  # 0, 1/4, ..., 4
    for m11 in grid:
        for m22 in grid:
            for m33 in grid:
                w = ExactMatrix([[m11, 1, 0], [0, m22, 1], [1, 0, m33]])
                d = det(w)
                assert d == 1 + m11 * m22 * m33
                assert d >= 1


@criterion(5, "column-holes family: exact fixed polygons, moving vertex on "
              "its line, five critical positions all fail, NotCompletable, "
              "under 10s")
def test_acceptance_column_holes(two_missing_column):
    start = time.perf_counter()
    fam = family_11_21(two_missing_column)
    assert set(fam.fixed_outer.vertices) == {
        (F(-17, 480), F(13, 480)),
        (F(13, 480), F(-17, 480)),
        (F(11, 160), F(1, 160)),
        (F(1, 160), F(11, 160)),
    }
    assert fam.fixed_inner_points == [
        (F(0), F(0)),
        (F(1, 20), F(0)),
        (F(0), F(1, 20)),
    ]
    c0, cx, cy = fam.line_p1
    # p1(t) = (y/w, z/w)(t) satisfies the line identically in t: the line
    # is orthogonal to both terms of the pencil (w, y, z) = v0 + t*v1
    for v in fam.moving_vertex:
        assert c0 * v[0] + cx * v[1] + cy * v[2] == 0
    assert F(c0, cx) == F(-3, 40) and cx == cy
    criticals = {
        (F(11, 160), F(1, 160)),
        (F(3, 160), F(9, 160)),
        (F(13, 800), F(47, 800)),
        (F(17, 1120), F(67, 1120)),
        (F(1, 160), F(11, 160)),
    }
    # the fifth is the limit of the vertex as t -> -infinity, the point of
    # v1, which no t attains; the sweep probes t beyond the last candidate
    w1, y1, z1 = fam.moving_vertex[1]
    limit = (F(y1) / w1, F(z1) / w1)
    assert limit == (F(1, 160), F(11, 160))
    assert criticals - {limit} <= {fam.vertex_at(t) for t in sweep_candidates(fam)}
    for c in criticals:
        inner = Polygon2.from_points([c] + fam.fixed_inner_points)
        assert nested_triangle(NestedPair(inner, fam.fixed_outer)) is None
    cert = decide_nn3_two_missing(two_missing_column)
    assert cert.verdict == "NotCompletable"
    assert time.perf_counter() - start < 10.0


@criterion(6, "diagonal-holes family: feasible interval exactly "
              "[0, 4284/9959], polygons shrink into the interval, refuting "
              "envelope has no triangle, NotCompletable, under 10s")
def test_acceptance_diagonal_holes(two_missing_diagonal):
    start = time.perf_counter()
    fam = family_11_22(two_missing_diagonal)
    assert len(fam.feasible) == 1
    iv = fam.feasible[0]
    assert (iv.lo, iv.hi, iv.lo_open, iv.hi_open) == (F(0), F(4284, 9959), False, False)
    pair0 = fam.pair_at(iv.lo)
    pairc = fam.pair_at(iv.hi)
    assert contains(pair0.inner, pairc.inner)  # P_c inside P_0
    assert contains(pair0.outer, pairc.outer)  # Q_c inside Q_0
    envelope_pair = NestedPair(pairc.inner, pair0.outer)
    assert contains(envelope_pair.outer, envelope_pair.inner)
    assert nested_triangle(envelope_pair) is None
    cert = decide_nn3_two_missing(two_missing_diagonal)
    assert cert.verdict == "NotCompletable"
    assert cert.envelope is not None
    assert time.perf_counter() - start < 10.0


@criterion(7, "property suites: 500 rank-1 instances, 500 one-missing "
              "instances, 500 polygon pairs, all against independent oracles")
def test_acceptance_property_suites():
    rng = random.Random(20260823)

    # (a) rank-1 completions of genuine rank-1 restrictions
    for _ in range(500):
        p, q = rng.choice([(2, 3), (3, 3), (3, 4), (4, 4)])
        full = rnd_rank1_nonneg(rng, p, q)
        pm = restrict(full, rnd_pattern(rng, p, q))
        out = rank1_complete(pm, require_nonnegative=True)
        assert out.has_completion()
        assert pm.agrees_with(out.matrix) and rank(out.matrix) <= 1
        assert out.matrix.is_nonnegative()
        assert (out.kind == "unique") == support_graph(pm).nonzero_is_connected()

    # (b) one-missing trichotomy against the symbolic minor oracle, with
    # minor-choice independence via random permutations
    for k in range(500):
        n = rng.choice([3, 4])
        if k % 2 == 0:
            r_true = rng.randint(1, n - 1)
            a = ExactMatrix([[F(rng.randint(0, 5)) for _ in range(r_true)] for _ in range(n)])
            b = ExactMatrix([[F(rng.randint(0, 5)) for _ in range(n)] for _ in range(r_true)])
            full = matmul(a, b)
        else:
            full = ExactMatrix([[F(rng.randint(0, 6)) for _ in range(n)] for _ in range(n)])
        hole = (rng.randint(1, n), rng.randint(1, n))
        cells = frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 1))
        pm = restrict(full, Pattern(n, n, cells - {hole}))
        r = rng.randint(1, n - 1)
        out = classify_one_missing(pm, hole, r)
        kind, value = one_missing_by_minors(pm, hole, r)
        if kind == "infinite":
            # the minor oracle only sees constraints through the hole;
            # "no completion" can still follow from the observed data alone
            assert out.kind in ("infinite", "none")
        else:
            assert out.kind == kind
        if out.kind == "unique":
            assert out.matrix.entry(*hole) == value
            rows = list(range(1, n + 1))
            cols = list(range(1, n + 1))
            rng.shuffle(rows)
            rng.shuffle(cols)
            values = {
                (rows.index(i) + 1, cols.index(j) + 1): v
                for (i, j), v in pm.values.items()
            }
            perm = PartialMatrix(Pattern(n, n, frozenset(values)), values)
            perm_hole = (rows.index(hole[0]) + 1, cols.index(hole[1]) + 1)
            out2 = classify_one_missing(perm, perm_hole, r)
            assert out2.kind == "unique"
            assert out2.matrix.entry(*perm_hole) == value

    # (c) polygon pairs: slack nonnegativity iff containment, every found
    # triangle re-verifies, the rotation-grid oracle never certifies a
    # triangle the anchored search missed, and the numerical factorizer
    # never contradicts an exact FALSE
    def rnd_f(lo=-8, hi=8):
        return F(rng.randint(lo, hi), rng.randint(1, 6))

    def rnd_poly(k):
        return drawn_polygon(lambda: [(rnd_f(), rnd_f()) for _ in range(k)])

    def combination(outer):
        ws = [F(rng.randint(0, 5)) for _ in outer.vertices]
        s = sum(ws) or F(1)
        ws = [w / s for w in ws] if sum(ws) else [F(1)] + [F(0)] * (len(ws) - 1)
        return (
            sum(w * v[0] for w, v in zip(ws, outer.vertices)),
            sum(w * v[1] for w, v in zip(ws, outer.vertices)),
        )

    grid_checked = 0
    for i in range(500):
        outer = rnd_poly(rng.randint(3, 7))
        if rng.random() < 0.6:
            inner = drawn_polygon(lambda: [combination(outer) for _ in range(rng.randint(3, 6))])
        else:
            inner = rnd_poly(rng.randint(3, 6))
        pair = NestedPair(inner, outer)
        nested = contains(outer, inner)
        assert slack_matrix(pair).is_nonnegative() == nested
        if not nested:
            continue
        tri = nested_triangle(pair)
        if tri is not None:
            assert verify_triangle(pair, tri)
        elif grid_checked < 40:
            grid_checked += 1
            assert rotation_grid_triangle(pair, n=720) is None

    refuted = [
        parse_partial((DATA / "perturbed_full.txt").read_text()).to_full_matrix()
    ]
    rng_m = random.Random(99)
    while len(refuted) < 6:
        m = ExactMatrix([[F(rng_m.randint(0, 9)) for _ in range(4)] for _ in range(4)])
        ok, _ = nn_rank_at_most_3(m)
        if not ok and rank(m) == 3:
            refuted.append(m)
    for m in refuted:
        assert nmf_residual(m, 3, iters=2000) > 1e-6


@criterion(8, "command-line goldens byte-exact for the four regression "
              "examples; exit statuses 0 (decided), 1 (error), 2 (unknown)")
def test_acceptance_cli(capsys, tmp_path, monkeypatch):
    import io

    cases = [
        (("check-nnrank3", str(DATA / "rank3_product.txt")), "unique_nmf.check.txt"),
        (("check-nnrank3", str(DATA / "perturbed_full.txt")), "perturbed.check.txt"),
        (("nn3-decide", str(DATA / "two_missing_column.txt"), "--json"), "column_holes.json"),
        (("nn3-decide", str(DATA / "two_missing_diagonal.txt"), "--json"), "diagonal_holes.json"),
    ]
    for argv, golden in cases:
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        assert code == 0
        assert out == (GOLDEN / golden).read_text()
    for data, golden in [
        ("rank3_product.txt", "unique_nmf.svg"),
        ("perturbed_full.txt", "perturbed.svg"),
        ("two_missing_column.txt", "column_holes.svg"),
        ("two_missing_diagonal.txt", "diagonal_holes.svg"),
    ]:
        target = tmp_path / golden
        code = cli_main(["plot", str(DATA / data), "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        assert target.read_bytes() == (GOLDEN / golden).read_bytes()
    # exit statuses
    monkeypatch.setattr("sys.stdin", io.StringIO("1 x\n"))
    assert cli_main(["rank", "-"]) == 1
    capsys.readouterr()
    assert cli_main(["nn3-decide", str(DATA / "two_missing_unknown.txt")]) == 2
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("Unknown")
