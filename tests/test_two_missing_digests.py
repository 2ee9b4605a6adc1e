"""A digest of every two-hole certificate, against a golden file.

``golden/two_missing_digests.txt`` has one line per input: its id, the
verdict and the sha256 of the certificate's ``to_json_dict()`` together
with the witness entries as ``str``.  The inputs are the ``products`` and
``bitsize`` corpora of ``bench/corpus.py`` at corpus seeds 2601 and 7658
and the two-hole fixtures of ``tests/data``, so any change to a printed
answer, the sampled t, an interval or a witness shows as a changed line.

The module needs only the standard library and the package, so it runs
without pytest as well, from the root of a checkout:

    PYTHONPATH=src python3 tests/test_two_missing_digests.py

which prints the lines that differ and exits with code 1 when any does.
The golden lines were written by ``digest_lines()`` before the family
stage moved to integers; a changed line of an old input is a changed
answer.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from pathlib import Path

from nncomplete import PartialMatrix, decide_nn3_two_missing, parse_partial

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent / "bench"
GOLDEN = HERE / "golden" / "two_missing_digests.txt"
FIXTURES = ("two_missing_column", "two_missing_completable", "two_missing_diagonal", "two_missing_unknown")
CORPUS_SEEDS = (2601, 7658)


def load_corpus():
    """bench/corpus.py, imported from the bench directory."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("corpus")
    finally:
        sys.path.remove(str(BENCH))


def inputs():
    """(id, PartialMatrix) for every input the golden file covers."""
    corpus = load_corpus()
    for workload in ("products", "bitsize"):
        for seed in CORPUS_SEEDS:
            for case in corpus.GENERATORS[workload](seed):
                yield f"{case.id}@{seed}", PartialMatrix.from_rows([list(row) for row in case.rows])
    for name in FIXTURES:
        yield name, parse_partial((HERE / "data" / f"{name}.txt").read_text())


def digest_line(case_id: str, m: PartialMatrix) -> str:
    cert = decide_nn3_two_missing(m)
    witness = None if cert.witness is None else [
        [[str(x) for x in row] for row in factor.to_lists()] for factor in cert.witness]
    payload = json.dumps({"certificate": cert.to_json_dict(), "witness": witness}, sort_keys=True)
    return f"{case_id} {cert.verdict} {hashlib.sha256(payload.encode()).hexdigest()}"


def digest_lines() -> list:
    return [digest_line(case_id, m) for case_id, m in inputs()]


def differences(lines, golden) -> list:
    """The lines of either list missing from the other, marked - (golden)
    and + (now)."""
    now, old = set(lines), set(golden)
    return [f"- {x}" for x in golden if x not in now] + [f"+ {x}" for x in lines if x not in old]


def test_digests_match_the_golden():
    golden = GOLDEN.read_text().splitlines()
    lines = digest_lines()
    assert lines == golden, "\n".join(differences(lines, golden))
    assert len(lines) == 2 * (120 + 16) + len(FIXTURES)


def main() -> int:
    lines = digest_lines()
    golden = GOLDEN.read_text().splitlines()
    if lines != golden:
        print("\n".join(differences(lines, golden) or ["same lines, different order"]))
        return 1
    print(f"{len(lines)} certificate digests match {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
