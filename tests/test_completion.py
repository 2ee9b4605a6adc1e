import random
from collections import Counter
from fractions import Fraction

import pytest

import nncomplete.completion
from nncomplete import (
    ExactMatrix,
    PartialMatrix,
    Pattern,
    PerturbationSpec,
    VerificationError,
    classify_one_missing,
    cycle_property,
    eval_boundary_sextic,
    extend_by_sparse_row,
    in_singular_image,
    matmul,
    nn_rank2_complete_3x3,
    nn_rank2_pattern_equivalence,
    parse_partial,
    perturb_unique_nmf,
    rank,
    rank1_complete,
    support_graph,
    zero_entries_line_consistent,
)

from conftest import (
    restrict,
    rnd_fraction,
    rnd_nonneg_product,
    rnd_pattern,
    rnd_rank1_nonneg,
    rnd_signed_partial,
)
from oracles import (
    cycle_condition_brute_force,
    one_missing_by_minors,
    random_boundary_product,
    rank1_complete_by_cycle_property,
    sextic_by_text,
)


def _outcome_text(fn, *args) -> str:
    """repr of the result, or the type and message of a ValueError."""
    try:
        return repr(fn(*args))
    except ValueError as e:
        return f"{type(e).__name__}: {e}"


class TestRank1Complete:
    def test_random_rank1_restrictions_always_complete(self, rng):
        """Restrictions of true rank-1 nonnegative matrices are always
        completable; the produced completion is valid and uniqueness
        matches connectivity of the nonzero support graph."""
        for _ in range(250):
            p, q = rng.choice([(2, 3), (3, 3), (3, 4), (4, 4)])
            full = rnd_rank1_nonneg(rng, p, q)
            pm = restrict(full, rnd_pattern(rng, p, q))
            out = rank1_complete(pm, require_nonnegative=True)
            assert out.has_completion()
            assert pm.agrees_with(out.matrix)
            assert rank(out.matrix) <= 1
            assert out.matrix.is_nonnegative()
            connected = support_graph(pm).nonzero_is_connected()
            assert (out.kind == "unique") == connected
            if out.kind == "unique":
                assert out.matrix == full

    def test_existence_matches_oracle_conditions(self, rng):
        """has_completion iff zeros are line-consistent and every simple
        cycle satisfies the alternating-product equation."""
        seen_none = seen_some = 0
        for _ in range(250):
            full = ExactMatrix(
                [[Fraction(rng.randint(0, 3)) for _ in range(3)] for _ in range(3)]
            )
            pm = restrict(full, rnd_pattern(rng, 3, 3))
            out = rank1_complete(pm)
            want = zero_entries_line_consistent(pm) and cycle_condition_brute_force(pm)
            assert out.has_completion() == want
            if out.has_completion():
                seen_some += 1
                assert pm.agrees_with(out.matrix)
                assert rank(out.matrix) <= 1
            else:
                seen_none += 1
        assert seen_none > 20 and seen_some > 20

    def test_nonnegative_completion_exists_iff_a_completion_does(self):
        """The paper's rank-1 theorem: a nonnegative partial matrix has a
        nonnegative rank-1 completion exactly when it has a rank-1
        completion.  The draws are arbitrary, not restrictions of rank-1
        matrices, so many of them have no completion at all."""
        rng = random.Random(2031)
        outcomes = Counter()
        for _ in range(300):
            p, q = rng.choice([(2, 3), (3, 3), (3, 4), (4, 4)])
            full = ExactMatrix([[rng.randint(0, 3) for _ in range(q)] for _ in range(p)])
            pm = restrict(full, rnd_pattern(rng, p, q))
            nonneg = rank1_complete(pm, require_nonnegative=True)
            assert rank1_complete(pm).has_completion() == nonneg.has_completion()
            if nonneg.has_completion():
                assert nonneg.matrix.is_nonnegative()
                assert rank(nonneg.matrix) <= 1
                assert pm.agrees_with(nonneg.matrix)
            outcomes[nonneg.has_completion()] += 1
        assert min(outcomes[True], outcomes[False]) >= 20

    def test_zero_entry_with_mixed_lines(self):
        # rank-1 despite failing both global zero-line flags
        pm = parse_partial("0 0\n1 0\n")
        out = rank1_complete(pm, require_nonnegative=True)
        assert out.kind in ("unique", "infinite")
        assert rank(out.matrix) <= 1 and pm.agrees_with(out.matrix)

    def test_negative_entries_allowed_without_flag(self):
        pm = parse_partial("-2 1\n? -3\n")
        out = rank1_complete(pm)
        assert out.has_completion()
        assert rank(out.matrix) <= 1
        with pytest.raises(ValueError):
            rank1_complete(pm, require_nonnegative=True)

    def test_disconnected_support_is_not_unique(self):
        pm = parse_partial("1 ?\n? 2\n")
        out = rank1_complete(pm)
        assert out.kind == "infinite"
        assert rank(out.matrix) <= 1

    def test_inconsistent_cycle_rejected(self):
        assert rank1_complete(parse_partial("1 2\n3 4\n")).kind == "none"
        assert not cycle_property(parse_partial("1 2\n3 4\n"))

    def test_matches_full_cycle_property_oracle(self, rng):
        """Same outcome, byte for byte, as testing the cycle property in
        full, on 4,000 seeded matrices with zero lines and negative
        entries."""
        kinds = Counter()
        for _ in range(4000):
            pm = rnd_signed_partial(rng)
            for nonneg in (False, True):
                got = _outcome_text(rank1_complete, pm, nonneg)
                assert got == _outcome_text(rank1_complete_by_cycle_property, pm, nonneg), repr(pm)
                kinds[next(k for k in ("'none'", "'unique'", "'infinite'", "ValueError") if k in got)] += 1
        assert len(kinds) == 4 and min(kinds.values()) > 200


class TestExtendBySparseRow:
    def test_scaled_row_keeps_rank(self):
        pm = parse_partial("? 6 ?\n1 2 3\n4 5 6\n")
        rest = ExactMatrix([[1, 2, 3], [4, 5, 6]])
        full = extend_by_sparse_row(pm, rest, 1)
        assert full.row(1) == [3, 6, 9]
        assert rank(full) == rank(rest)

    def test_zero_and_empty_rows(self):
        pm = parse_partial("? ?\n1 2\n0 ?\n")
        rest = ExactMatrix([[1, 2], [2, 4]])
        assert extend_by_sparse_row(pm, rest, 1).row(1) == [0, 0]

    def test_rejects_dense_row(self):
        pm = parse_partial("1 2\n3 4\n")
        with pytest.raises(ValueError):
            extend_by_sparse_row(pm, ExactMatrix([[3, 4]]), 1)


class TestNnRank2PatternEquivalence:
    def test_diagonal_like_fails(self):
        p = Pattern(3, 3, frozenset(
            (i, j) for i in range(1, 4) for j in range(1, 4)
        ) - frozenset({(1, 1), (2, 2)}))
        assert not nn_rank2_pattern_equivalence(p)

    def test_row_aligned_holes_pass(self):
        p = Pattern(3, 3, frozenset(
            (i, j) for i in range(1, 4) for j in range(1, 4)
        ) - frozenset({(1, 1), (1, 2)}))
        assert nn_rank2_pattern_equivalence(p)

    def test_full_pattern_passes(self):
        p = Pattern(3, 3, frozenset((i, j) for i in range(1, 4) for j in range(1, 4)))
        assert nn_rank2_pattern_equivalence(p)


class TestNnRank2Complete3x3:
    def test_random_supported_instances(self, rng):
        produced = 0
        for _ in range(200):
            full = rnd_nonneg_product(rng, 3, 3, 2)
            pm = restrict(full, rnd_pattern(rng, 3, 3))
            if not nn_rank2_pattern_equivalence(pm.pattern):
                with pytest.raises(ValueError):
                    nn_rank2_complete_3x3(pm)
                continue
            out = nn_rank2_complete_3x3(pm)
            if out.has_completion():
                produced += 1
                assert pm.agrees_with(out.matrix)
                assert out.matrix.is_nonnegative()
                assert rank(out.matrix) <= 2
        assert produced > 60

    def test_fully_observed(self):
        good = PartialMatrix.full(ExactMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 2]]))
        out = nn_rank2_complete_3x3(good)
        assert out.kind == "unique" and rank(out.matrix) <= 2
        bad = PartialMatrix.full(ExactMatrix.identity(3))
        assert nn_rank2_complete_3x3(bad).kind == "none"

    def test_zero_column_case(self):
        # column 1 pinned to a single nonzero atop observed zeros: the rest
        # must complete in rank <= 1
        pm = parse_partial("3 ? ?\n0 1 2\n0 2 4\n")
        out = nn_rank2_complete_3x3(pm)
        assert out.has_completion()
        assert rank(out.matrix) <= 2 and out.matrix.is_nonnegative()
        pm_bad = parse_partial("3 ? ?\n0 1 2\n0 2 5\n")
        assert nn_rank2_complete_3x3(pm_bad).kind == "none"

    @pytest.mark.parametrize(
        "text,want",
        [
            ("? 3 ?\n3 ? ?\n? 0 3\n", [[9, 3, 0], [3, 1, 0], [0, 0, 3]]),
            ("2 ? 3\n? 1 ?\n1 ? 1\n", [[2, 1, 3], [2, 1, 3], [1, 0, 1]]),
        ],
    )
    def test_sparse_row_over_column_without_nonzero(self, text, want):
        # no sparse line qualifies without a fill: the only entry of each
        # sparse row or column lies across holes and zeros, so a 1 goes into
        # a hole of that column and the sparse row scales the row it is in
        pm = parse_partial(text)
        out = nn_rank2_complete_3x3(pm)
        assert out.kind == "some"
        assert out.matrix == ExactMatrix(want)
        assert pm.agrees_with(out.matrix) and rank(out.matrix) <= 2

    @pytest.mark.parametrize(
        "wrong",
        [
            [[0, 0, 0], [1, 2, 3], [4, 5, 6]],  # disagrees with the observed 6
            [[-3, 6, 15], [1, 2, 3], [4, 5, 6]],  # negative, of rank 2
            [[0, 6, 0], [1, 2, 3], [4, 5, 6]],  # of rank 3
        ],
    )
    def test_wrong_completion_is_refused(self, monkeypatch, wrong):
        """Row 1 has one observed entry, so the completion re-attaches it
        by scaling another row; a wrong one raises rather than returns."""
        pm = parse_partial("? 6 ?\n1 2 3\n4 5 6\n")
        assert nn_rank2_complete_3x3(pm).matrix == ExactMatrix([[3, 6, 9], [1, 2, 3], [4, 5, 6]])
        monkeypatch.setattr(nncomplete.completion, "extend_by_sparse_row", lambda m, rest, i: ExactMatrix(wrong))
        with pytest.raises(VerificationError):
            nn_rank2_complete_3x3(pm)


def _random_one_missing(rng, case):
    if case == 0:
        p = q = 3
        full = rnd_nonneg_product(rng, p, q, rng.randint(1, 2))
    elif case == 1:
        p = q = 4
        full = rnd_nonneg_product(rng, p, q, rng.randint(1, 3))
    else:
        p = q = rng.choice([3, 4])
        full = ExactMatrix(
            [[rnd_fraction(rng, 0, 9) for _ in range(q)] for _ in range(p)]
        )
    hole = (rng.randint(1, p), rng.randint(1, q))
    pattern = Pattern(
        p, q, frozenset((i, j) for i in range(1, p + 1) for j in range(1, q + 1)) - {hole}
    )
    return restrict(full, pattern), hole


class TestClassifyOneMissing:
    def test_matches_symbolic_minor_oracle(self, rng):
        kinds = {"none": 0, "unique": 0, "infinite": 0}
        for k in range(300):
            pm, hole = _random_one_missing(rng, k % 3)
            r = rng.randint(1, pm.p - 1)
            out = classify_one_missing(pm, hole, r)
            want_kind, want_value = one_missing_by_minors(pm, hole, r)
            if want_kind == "infinite":
                # the oracle cannot see rank bounds below r elsewhere in
                # the matrix; "infinite" from the oracle only means the
                # hole is unconstrained by (r+1)-minors
                assert out.kind in ("infinite", "none")
                if out.kind == "none":
                    # every fill must then exceed rank r for some reason
                    # independent of the hole: the fully deleted data
                    # already has rank > r
                    rows = [x for x in range(1, pm.p + 1) if x != hole[0]]
                    sub = pm.observed_submatrix(rows, list(range(1, pm.q + 1)))
                    assert rank(sub) > r or rank(
                        pm.observed_submatrix(
                            list(range(1, pm.p + 1)),
                            [y for y in range(1, pm.q + 1) if y != hole[1]],
                        )
                    ) > r
                else:
                    kinds["infinite"] += 1
                continue
            assert out.kind == want_kind
            kinds[out.kind] += 1
            if out.kind == "unique":
                assert out.matrix.entry(*hole) == want_value
                assert rank(out.matrix) == r
        assert min(kinds.values()) > 15

    def test_unique_value_independent_of_minor_choice(self, rng):
        """Permuting rows/columns changes which nonsingular minor is found
        first; the recovered value must not change."""
        checked = 0
        for k in range(120):
            pm, hole = _random_one_missing(rng, k % 2)
            r = rng.randint(1, pm.p - 1)
            out = classify_one_missing(pm, hole, r)
            if out.kind != "unique":
                continue
            checked += 1
            rows = list(range(1, pm.p + 1))
            cols = list(range(1, pm.q + 1))
            rng.shuffle(rows)
            rng.shuffle(cols)
            perm_hole = (rows.index(hole[0]) + 1, cols.index(hole[1]) + 1)
            values = {
                (rows.index(i) + 1, cols.index(j) + 1): v
                for (i, j), v in pm.values.items()
            }
            perm = PartialMatrix(
                Pattern(pm.p, pm.q, frozenset(values)), values
            )
            out2 = classify_one_missing(perm, perm_hole, r)
            assert out2.kind == "unique"
            assert out2.matrix.entry(*perm_hole) == out.matrix.entry(*hole)
        assert checked > 15

    def test_rank3_regression_value(self, perturbed_one_missing):
        out = classify_one_missing(perturbed_one_missing, (1, 1), 3)
        assert out.kind == "unique"
        assert out.matrix.entry(1, 1) == 12

    def test_each_deleted_line_ranked_once(self, monkeypatch, perturbed_one_missing):
        # the row-deleted and column-deleted ranks serve both the infinite
        # test and the unique test; then the both-deleted block and the
        # completion are ranked
        calls = []

        def counting(m):
            calls.append(m)
            return rank(m)

        monkeypatch.setattr(nncomplete.completion, "rank", counting)
        out = classify_one_missing(perturbed_one_missing, (1, 1), 3)
        assert out.kind == "unique"
        assert len(calls) == 4

    def test_in_singular_image(self):
        pm = parse_partial("? 1 1\n1 1 1\n1 1 1\n")
        assert in_singular_image(pm, (1, 1), 2)
        assert not in_singular_image(pm, (1, 1), 1)


class TestBoundarySextic:
    def test_matches_independent_transcription(self, rng):
        for _ in range(80):
            m = ExactMatrix(
                [[rnd_fraction(rng, -8, 8) for _ in range(4)] for _ in range(4)]
            )
            assert eval_boundary_sextic(m) == sextic_by_text(m)

    def test_vanishes_on_zero_pattern_products(self, rng):
        for _ in range(120):
            prod = random_boundary_product(rng)
            assert eval_boundary_sextic(prod) == 0

    def test_vanishes_on_unique_nmf_matrix(self, unique_nmf_matrix, unique_nmf_factors):
        a, b = unique_nmf_factors
        assert matmul(a, b) == unique_nmf_matrix
        assert eval_boundary_sextic(unique_nmf_matrix) == 0

    def test_accepts_one_missing_partial(self, perturbed_one_missing):
        full = perturbed_one_missing.complete_with({(1, 1): Fraction(5)})
        assert eval_boundary_sextic(perturbed_one_missing) == eval_boundary_sextic(full)

    def test_generically_nonzero(self):
        m = ExactMatrix(
            [[1, 2, 3, 4], [5, 7, 11, 13], [17, 19, 23, 29], [31, 37, 41, 43]]
        )
        assert eval_boundary_sextic(m) == 28800


class TestPerturbUniqueNmf:
    def test_reproduces_regression_matrix(
        self, unique_nmf_factors, perturbed_full
    ):
        a, b = unique_nmf_factors
        spec = PerturbationSpec("left", (4, 3), Fraction(-1))
        assert perturb_unique_nmf(a, b, spec) == perturbed_full

    def test_requires_zero_target(self, unique_nmf_factors):
        a, b = unique_nmf_factors
        with pytest.raises(ValueError):
            perturb_unique_nmf(a, b, PerturbationSpec("left", (1, 2), Fraction(-1)))

    def test_rejects_nonnegative_epsilon(self):
        with pytest.raises(ValueError):
            PerturbationSpec("left", (1, 1), Fraction(1))
