"""Write expected.json: the verdicts of the cases whose answer is not known
by construction, as the library gives them for the default corpus seed.

    python3 bench/record_expected.py

Run it only when the generators or the default corpus seed change, never
to make a failing answer pass.  It keeps the known defects as they are:
they are written by hand (see README.md).
"""

from __future__ import annotations

import json
import random
import signal
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, run._alarm)
    seed = run.corpus.DEFAULT_CORPUS_SEED
    verdicts = {}
    for name, (driver_cls, _) in run.WORKLOADS.items():
        driver = driver_cls()
        lib = run.import_library()
        cases = [c for c in run.corpus.GENERATORS[name](seed) if c.expected is None]
        for item in run.prepare(driver, lib, cases, random.Random(0), False):
            rec = run.run_case(driver, lib, item, {}, run.Pace())
            if rec.error or rec.fault or rec.verdict is None:
                print(f"{rec.case.id}: {rec.error or rec.fault}", file=sys.stderr)
                return 1
            verdicts[rec.case.id] = rec.verdict
    for f in run.WORK.glob("cli-*.txt"):
        f.unlink()
    _, defects = run.load_expected(seed)
    data = {"corpus_seed": seed, "verdicts": verdicts, "known_defects": defects}
    run.EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
