"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

They check that the generators are deterministic, that self time is
computed correctly on a synthetic span tree, that the witness checks
reject corrupted witnesses, and that every metric name the benchmark
prints is declared in BENCHMARK.json with the same unit.
"""

from __future__ import annotations

import contextlib
import io
import json
import unittest
from fractions import Fraction

import checks
import corpus
import run
import spans


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_corpus(self):
        for name, gen in corpus.GENERATORS.items():
            with self.subTest(workload=name):
                self.assertEqual(gen(11), gen(11))

    def test_seed_changes_corpus(self):
        for name in ("products", "nnrank3", "bitsize"):
            with self.subTest(workload=name):
                self.assertNotEqual(corpus.GENERATORS[name](11), corpus.GENERATORS[name](12))

    def test_schedule_is_seeded(self):
        rows = corpus.products(1)[0].rows
        a = run.relabel(rows, run.random.Random("schedule/5"))
        self.assertEqual(a, run.relabel(rows, run.random.Random("schedule/5")))
        self.assertEqual(sorted(x for r in a for x in r if x is not None),
                         sorted(x for r in rows for x in r if x is not None))

    def test_planted_pairs_factor(self):
        # the slack matrix of a planted pair has rank at most 3
        for case in corpus.nnrank3(3)[:corpus.PLANTED_CASES]:
            self.assertLessEqual(checks.rank(case.rows), 3)
            self.assertTrue(checks.is_nonnegative(case.rows))


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        S = spans.Span
        tree = [
            S(1, 0, "case", 0.0, 10.0),
            S(2, 1, "a", 1.0, 4.0),
            S(3, 2, "b", 2.0, 3.0),
            S(4, 1, "c", 3.5, 6.0),  # overlaps a: the union [1, 6] counts once
            S(5, 1, "d", 9.0, 12.0),  # clipped to the parent's end
            S(6, 0, "case", 20.0, 21.0),
        ]
        got = spans.self_times(tree)
        self.assertAlmostEqual(got[1], 10.0 - 5.0 - 1.0)
        self.assertAlmostEqual(got[2], 3.0 - 1.0)
        self.assertAlmostEqual(got[3], 1.0)
        self.assertAlmostEqual(got[4], 2.5)
        self.assertAlmostEqual(got[5], 3.0)
        self.assertAlmostEqual(got[6], 1.0)

    def test_layer_summary(self):
        t = spans.Tracer(clock=iter([0.0, 1.0, 2.0, 5.0]).__next__)
        t.case(t.wrap("linalg.rank", lambda: 7))
        summary = t.layer_summary()
        self.assertEqual(summary["calls"]["linalg.rank"], 1)
        self.assertAlmostEqual(summary["layer_s"]["linalg"], 1.0)
        self.assertAlmostEqual(summary["root_s"], 5.0)


class WitnessCheckTest(unittest.TestCase):
    a = [[0, 1, 2], [1, 0, 2], [4, 1, 0], [1, 3, 0]]
    b = [[0, 4, 3, 2], [4, 0, 1, 1], [4, 1, 0, 4]]

    def setUp(self):
        self.m = checks.matmul(self.a, self.b)

    def test_accepts_true_witness(self):
        self.assertIsNone(checks.factorization_fault(self.a, self.b, self.m))

    def test_rejects_changed_entry(self):
        bad = [row[:] for row in self.a]
        bad[2][1] += 1
        self.assertIsNotNone(checks.factorization_fault(bad, self.b, self.m))

    def test_rejects_negative_entry(self):
        a = [row[:] for row in self.a]
        b = [row[:] for row in self.b]
        a[0][0], b[0][0] = -1, 0  # the product is unchanged
        self.assertEqual(checks.matmul(a, b)[1:], self.m[1:])
        self.assertIsNotNone(checks.factorization_fault(a, b, checks.matmul(a, b)))

    def test_rejects_wrong_inner_dimension(self):
        a = [row + [0] for row in self.a]
        b = self.b + [[0, 0, 0, 0]]
        self.assertIsNotNone(checks.factorization_fault(a, b, self.m))

    def test_completable_relabelled_and_observed(self):
        partial = [[None if (i, j) in {(0, 0), (1, 1)} else x for j, x in enumerate(row)]
                   for i, row in enumerate(self.m)]
        # a witness of a row- and column-permuted completion is accepted
        perm_a = [self.a[i] for i in (2, 0, 3, 1)]
        perm_b = [[row[j] for j in (1, 0, 3, 2)] for row in self.b]
        self.assertIsNone(checks.completable_fault(partial, self.m, perm_a, perm_b))
        wrong = [row[:] for row in self.m]
        wrong[2][2] += Fraction(1, 2)
        self.assertIsNotNone(checks.completable_fault(partial, wrong, self.a, self.b))


class _Raising:
    """A driver whose every call raises ``exc``."""

    def __init__(self, exc):
        self.exc = exc

    def call(self, lib, arg):
        raise self.exc


class KnownDefectTest(unittest.TestCase):
    case = corpus.Case("x-1", ((1,),))
    defects = {"x-1": "ValueError: boom"}

    def probe(self, exc):
        run.signal.signal(run.signal.SIGALRM, run._alarm)
        item = (self.case, self.case.rows, None)
        return run.probe_defects(_Raising(exc), None, [item], {}, self.defects, run.Pace())

    def test_recorded_failure_is_reported_not_counted(self):
        counted, report = self.probe(ValueError("boom"))
        self.assertEqual(counted, [])
        self.assertTrue(report["x-1"].startswith("still fails"))

    def test_other_failure_is_counted(self):
        counted, report = self.probe(KeyError("other"))
        self.assertEqual([r.error for r in counted], ["KeyError: 'other'"])
        self.assertTrue(report["x-1"].startswith("fails differently"))

    def test_committed_defects_are_in_the_corpus(self):
        _, defects = run.load_expected(corpus.DEFAULT_CORPUS_SEED)
        ids = {c.id for gen in corpus.GENERATORS.values() for c in gen(corpus.DEFAULT_CORPUS_SEED)}
        self.assertLessEqual(set(defects), ids)


class MetricsTest(unittest.TestCase):
    def test_tail_keeps_ten_beyond(self):
        value, pct, n = run.tail(list(range(100)))
        self.assertEqual((value, pct, n), (89, 90.0, 100))

    def test_shares_never_zero(self):
        self.assertGreater(run.laplace_share(0, 100), 0)
        self.assertLess(run.laplace_share(0, 100), run.laplace_share(1, 100))

    def test_printed_names_match_benchmark_json(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        declared = {
            0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]},
        }
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", "nnrank3", "--seed", "1", "--seconds", "0", "--trace", str(trace)])
            self.assertEqual(code, 0)
            result = json.loads(out.getvalue().splitlines()[-1])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(printed, declared[trace])


if __name__ == "__main__":
    unittest.main()
