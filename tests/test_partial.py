import time
from fractions import Fraction

import pytest

from nncomplete import (
    ExactMatrix,
    ParseError,
    PartialMatrix,
    Pattern,
    cycle_property,
    minors_zero_consistent,
    parse_partial,
    serialize_matrix,
    serialize_partial,
    support_graph,
    zero_entries_line_consistent,
    zero_line_property,
)

from nncomplete.partial import multiplicative_potentials

from conftest import restrict, rnd_pattern, rnd_rank1_nonneg, rnd_signed_partial
from oracles import zero_line_property_by_loops


class TestParsing:
    def test_basic_holes_and_fractions(self):
        m = parse_partial("? 5 1/2\n0.25 ? 3\n")
        assert m.pattern.missing == frozenset({(1, 1), (2, 2)})
        assert m.entry(1, 3) == Fraction(1, 2)
        assert m.entry(2, 1) == Fraction(1, 4)

    def test_round_trip_is_token_identical(self):
        text = "? 5 1 9\n? 1 7 7\n1 5 9 1\n0 9 3 3\n"
        assert serialize_partial(parse_partial(text)) == text

    def test_full_matrix_round_trip(self):
        m = ExactMatrix([[1, Fraction(2, 3)], [0, 7]])
        assert parse_partial(serialize_matrix(m)).to_full_matrix() == m

    def test_ragged_rows_rejected(self):
        with pytest.raises(ParseError):
            parse_partial("1 2\n3\n")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_partial("1 x\n2 3\n")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_partial("   \n")

    @pytest.mark.parametrize("token", ["1e10000000", "1E10000000", "2.5e-3", "1/2e3"])
    def test_exponent_rejected_before_any_arithmetic(self, token):
        """Fraction would read 1e10000000 as a 33-million-bit integer."""
        start = time.perf_counter()
        with pytest.raises(ParseError, match="exponent"):
            parse_partial(f"1 {token}\n2 3\n")
        assert time.perf_counter() - start < 0.5


class TestPartialMatrix:
    @pytest.mark.parametrize("rows", [[], [[]], [[], []]])
    def test_shape_without_row_or_column_rejected(self, rows):
        """The refusal ExactMatrix gives, rather than an IndexError or a
        matrix that fails later."""
        with pytest.raises(ValueError, match="^matrix must have at least one row and one column$"):
            PartialMatrix.from_rows(rows)

    @pytest.mark.parametrize("p,q", [(0, 0), (0, 2), (2, 0)])
    def test_empty_pattern_rejected(self, p, q):
        with pytest.raises(ValueError, match="at least one row and one column"):
            Pattern(p, q, frozenset())

    def test_transpose_round_trip(self):
        m = parse_partial("? 1 2\n3 ? 4\n")
        assert m.transpose().transpose() == m

    def test_agrees_with(self):
        m = parse_partial("? 1\n2 3\n")
        assert m.agrees_with(ExactMatrix([[9, 1], [2, 3]]))
        assert not m.agrees_with(ExactMatrix([[9, 1], [2, 4]]))

    def test_complete_with(self):
        m = parse_partial("? 1\n2 ?\n")
        full = m.complete_with({(1, 1): 7, (2, 2): 8})
        assert full == ExactMatrix([[7, 1], [2, 8]])


class TestSupportGraph:
    def test_edge_counts_on_fixture(self, two_missing_column):
        g = support_graph(two_missing_column)
        assert len(g.edges) == 14
        assert len(g.nonzero_edges) == 13  # drops the observed zero at (4,1)

    def test_nonzero_connectivity(self):
        m = parse_partial("1 0\n0 1\n")
        assert not support_graph(m).nonzero_is_connected()
        m2 = parse_partial("1 1\n0 1\n")
        assert support_graph(m2).nonzero_is_connected()


class TestZeroLineProperty:
    def test_per_entry_holds_for_rank1_restrictions(self, rng):
        for _ in range(60):
            m = rnd_rank1_nonneg(rng, 3, 4)
            pm = restrict(m, rnd_pattern(rng, 3, 4))
            assert zero_entries_line_consistent(pm)

    def test_global_flags_imply_per_entry(self, rng):
        for _ in range(120):
            full = ExactMatrix(
                [[Fraction(rng.randint(0, 3)) for _ in range(3)] for _ in range(3)]
            )
            pm = restrict(full, rnd_pattern(rng, 3, 3))
            if zero_line_property(pm).either():
                assert zero_entries_line_consistent(pm)

    def test_per_entry_weaker_than_global(self):
        # rank 1: the zero at (2,1) has an all-zero observed row, the zero
        # at (1,2) an all-zero observed column, yet no single global
        # row/column flag covers both
        m = parse_partial("1 0\n0 0\n")
        assert zero_entries_line_consistent(m)

    def test_violated(self):
        # zero at (1,1) but row 1 and column 1 both contain nonzeros
        m = parse_partial("0 1\n1 ?\n")
        assert not zero_entries_line_consistent(m)
        assert not zero_line_property(m).either()

    def test_flags_match_loop_oracle(self, rng):
        """The flags read from the nonzero lines equal those found by
        scanning the lines of every zero, on 4,000 seeded matrices with
        zero lines and negative entries."""
        seen = set()
        for _ in range(4000):
            pm = rnd_signed_partial(rng)
            flags = zero_line_property(pm)
            assert repr(flags) == repr(zero_line_property_by_loops(pm)), repr(pm)
            seen.add(flags)
        assert len(seen) == 4


class TestCycleProperty:
    def test_matches_brute_force_enumeration(self, rng):
        from oracles import cycle_condition_brute_force

        agree = 0
        for k in range(300):
            if k % 3 == 0:
                full = rnd_rank1_nonneg(rng, 3, 3)
            else:
                full = ExactMatrix(
                    [[Fraction(rng.randint(0, 4)) for _ in range(3)] for _ in range(3)]
                )
            pm = restrict(full, rnd_pattern(rng, 3, 3))
            got = cycle_property(pm)
            want = cycle_condition_brute_force(pm)
            # the digraph criterion additionally rejects zero-containing
            # cycles that force inconsistent zero propagation, so it may be
            # strictly stronger than the plain product test on instances
            # whose zeros are not line-consistent; on consistent instances
            # the two agree
            if zero_entries_line_consistent(pm):
                assert got == want
                agree += 1
        assert agree > 50  # the comparison actually exercised both answers

    def test_line_consistent_zeros_leave_only_potentials(self, rng):
        """Once every observed zero is line-consistent, no cycle through a
        zero entry can fail: the cycle property is then the consistency
        flag of the potentials, which rank1_complete relies on."""
        seen = set()
        for _ in range(4000):
            pm = rnd_signed_partial(rng)
            if not zero_entries_line_consistent(pm):
                continue
            _, _, consistent = multiplicative_potentials(pm, support_graph(pm))
            assert cycle_property(pm) == consistent, repr(pm)
            seen.add((consistent, any(v == 0 for v in pm.values.values())))
        assert len(seen) == 4  # either answer, with and without observed zeros

    def test_simple_violation(self):
        pm = parse_partial("1 2\n3 4\n")  # 1*4 != 2*3
        assert not cycle_property(pm)
        pm2 = parse_partial("1 2\n3 6\n")
        assert cycle_property(pm2)

    @pytest.mark.parametrize("text, holds", [
        ("0 1\n1 1\n", False),  # one zero edge inside one nonzero component: a self-loop
        ("1 2 ?\n? 3 4\n0 ? 5\n", False),  # a self-loop whose cycle runs through three rows
        ("1 0\n0 1\n", False),  # two components joined by zero edges both ways: a 2-cycle
        ("1 0 ?\n? 2 0\n0 ? 3\n", False),  # three components on a 3-cycle of zero edges
        ("1 0\n? 1\n", True),  # one zero edge between two components: no cycle
        ("1 0 0\n? 2 0\n? ? 3\n", True),  # zero edges in one direction only
    ])
    def test_zero_edge_cycles_match_brute_force(self, text, holds):
        from oracles import cycle_condition_brute_force

        pm = parse_partial(text)
        assert cycle_property(pm) == cycle_condition_brute_force(pm) == holds


class TestMinorsZeroConsistent:
    def test_fully_observed_low_rank(self):
        m = PartialMatrix.full(ExactMatrix([[1, 2], [2, 4]]))
        assert minors_zero_consistent(m, 1)

    def test_violation(self):
        # the 1x1 minor at (1,1) vanishes but neither its row nor its
        # column does
        m = PartialMatrix.full(ExactMatrix([[0, 1], [1, 1]]))
        assert not minors_zero_consistent(m, 1)

    def test_sparse_row_extension_shape(self):
        # rest = identity pattern plus an extra row observing one entry
        m = parse_partial("1 0\n0 1\n3 ?\n")
        assert minors_zero_consistent(m, 2)


class TestRefusesBinaryFloats:
    """Like ExactMatrix, a partial matrix takes ints, Fractions and strings
    and refuses a binary float instead of reading its exact value."""

    @pytest.mark.parametrize("build", [
        lambda: PartialMatrix.from_rows([[0.1, 1], [1, None]]),
        lambda: PartialMatrix(Pattern(1, 1, frozenset({(1, 1)})), {(1, 1): 0.1}),
        lambda: PartialMatrix.from_rows([[1, 1], [1, None]]).complete_with({(2, 2): 0.1}),
    ], ids=["from_rows", "PartialMatrix", "complete_with"])
    def test_float_raises_type_error(self, build):
        with pytest.raises(TypeError, match="refusing float 0.1"):
            build()

    def test_ints_strings_and_fractions_still_accepted(self):
        m = PartialMatrix.from_rows([["1/2", 1], [Fraction(2, 3), None]])
        assert [m.entry(1, 1), m.entry(1, 2), m.entry(2, 1)] == [Fraction(1, 2), 1, Fraction(2, 3)]
        assert m.complete_with({(2, 2): "1/3"}).entry(2, 2) == Fraction(1, 3)
        assert m.complete_with({(2, 2): 4}).entry(2, 2) == 4
