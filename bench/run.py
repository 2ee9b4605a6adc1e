"""Benchmark of nncomplete: four closed-loop workloads from one client
process, every answer checked.

    python3 bench/run.py --workload products --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; it imports the library from ``src/``.
``--seed`` draws the schedule: the order of the cases in every pass and,
for ``products``, a relabelling of the rows and columns of each matrix.
``--corpus-seed`` draws the corpus itself.  With ``--trace 0`` the last
line of output holds the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics of a traced run.  The exit code is 1 when an answer
fails its check, 2 when the library is missing.  See README.md in this
directory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = HERE / "expected.json"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
import spans  # noqa: E402

# time limits on the nominal machine (see Pace); a CLI call gets CLI_LIMIT_S
CASE_LIMIT_S = 12.0
CLI_LIMIT_S = 30.0
MAX_SLOWDOWN = 3.0  # wall-clock limits stretch at most this much
# a case is called back to back until its calls took REPEAT_FOR_S or it was
# called MAX_REPEATS times, so that cheap cases get more than one sample
REPEAT_FOR_S = 0.4
MAX_REPEATS = 5
SETUP_ROUNDS = 5
TAIL_BEYOND = 10
IMPORT_SAMPLES = 5
YARDSTICK_NOMINAL_S = 0.02
YARDSTICK_EVERY_S = 0.5
YARDSTICK_SPAN_S = 1.5
# The library slows down less than the yardstick when the machine is busy:
# over ten-run sets on a shared 2-CPU machine its time grew as the
# yardstick's to the power 0.5-0.8 (0.75 for nnrank3), so times are scaled
# by this power of the yardstick ratio.
YARDSTICK_EXPONENT = 0.75


class CaseTimeout(BaseException):
    """Raised by the alarm; not an Exception, so library handlers pass it."""


def _alarm(signum, frame):
    raise CaseTimeout


def yardstick() -> float:
    """Seconds taken by a fixed piece of exact rational arithmetic that
    does not use the library."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 4800):
        acc += Fraction(i % 13 + 1, i % 97 + 1) * Fraction(3, i % 7 + 2)
    return time.perf_counter() - start


class Pace:
    """Machine speed, from the yardstick re-timed at least every
    YARDSTICK_EVERY_S between cases.  ``scale(start, end)`` converts a time
    measured over [start, end] into the time it would take where the
    yardstick takes YARDSTICK_NOMINAL_S, from the median of the readings
    taken within YARDSTICK_SPAN_S of that interval raised to
    YARDSTICK_EXPONENT, so that a slow drift in the speed of a shared
    machine cancels out."""

    def __init__(self):
        self.readings = []  # (perf_counter at the reading, seconds)
        for _ in range(3):
            self.tick(force=True)

    def tick(self, force=False):
        if force or time.perf_counter() - self.readings[-1][0] >= YARDSTICK_EVERY_S:
            took = yardstick()
            self.readings.append((time.perf_counter(), took))

    def scale(self, start, end) -> float:
        near = [took for t, took in self.readings if start - YARDSTICK_SPAN_S <= t <= end + YARDSTICK_SPAN_S]
        if not near:
            near = [min(self.readings, key=lambda r: abs(r[0] - end))[1]]
        return (YARDSTICK_NOMINAL_S / statistics.median(near)) ** YARDSTICK_EXPONENT


@dataclass
class Record:
    case: corpus.Case
    start: float  # perf_counter at the call
    limit_s: float  # nominal time limit
    latency_s: float = 0.0  # wall time
    scale: float = 1.0  # Pace.scale over the call
    verdict: str | None = None  # None when the call did not answer
    fault: str | None = None  # wrong answer
    error: str | None = None  # TIMEOUT, or the exception raised

    @property
    def nominal_s(self) -> float:
        """Latency on the nominal machine; a timed-out case counts at its
        limit."""
        return self.limit_s if self.error == "TIMEOUT" else self.latency_s * self.scale


# -- the library ---------------------------------------------------------


def import_library():
    """Import nncomplete (and its CLI module) afresh from ``src``."""
    for name in [n for n in sys.modules if n == "nncomplete" or n.startswith("nncomplete.")]:
        del sys.modules[name]
    lib = importlib.import_module("nncomplete")
    importlib.import_module("nncomplete.cli")
    if Path(lib.__file__).resolve().parent != SRC / "nncomplete":
        raise ImportError(f"nncomplete imported from {lib.__file__}, not from {SRC}")
    return lib


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# -- workloads -----------------------------------------------------------
#
# Each workload turns a case into an input once (``prepare``), calls the
# library on it (``call``) and judges the answer (``judge``), which returns
# (verdict, fault).


def _lists(m):
    return m.to_lists() if m is not None else None


def _verdict_fault(verdict, case, committed):
    want = case.expected or committed.get(case.id)
    if want is not None and verdict != want and verdict != "Unknown":
        return f"{verdict}, expected {want}"
    return None


class Decide:
    """decide_nn3_two_missing on a 4x4 partial matrix with two holes."""

    def prepare(self, lib, case, rows):
        return lib.PartialMatrix.from_rows([list(r) for r in rows])

    def call(self, lib, m):
        return lib.decide_nn3_two_missing(m)

    def judge(self, case, rows, cert, committed):
        fault = None
        if cert.verdict == "Completable":
            a, b = cert.witness if cert.witness is not None else (None, None)
            fault = checks.completable_fault(rows, _lists(cert.completion), _lists(a), _lists(b))
        return cert.verdict, fault or _verdict_fault(cert.verdict, case, committed)


class NnRank3:
    """nn_rank_at_most_3 on a full nonnegative matrix."""

    def prepare(self, lib, case, rows):
        return lib.ExactMatrix([list(r) for r in rows])

    def call(self, lib, m):
        return lib.nn_rank_at_most_3(m)

    def judge(self, case, rows, answer, committed):
        ok, witness = answer
        fault = None
        if ok:
            a, b = witness if witness is not None else (None, None)
            fault = checks.factorization_fault(_lists(a), _lists(b), [list(r) for r in rows])
        verdict = str(bool(ok))
        return verdict, fault or _verdict_fault(verdict, case, committed)


@dataclass
class CliResult:
    returncode: int
    stdout: str


class Cli:
    """One ``python -m nncomplete.cli`` process per case; in a traced run,
    ``cli.main(argv)`` in-process instead."""

    def __init__(self, in_process=False):
        self.in_process = in_process
        self.env = cli_env()

    def prepare(self, lib, case, rows):
        path = WORK / f"{case.id}.txt"
        path.write_text(corpus.format_rows(case.rows))
        return [str(path) if a == "{input}" else a for a in case.argv]

    def call(self, lib, argv):
        if self.in_process:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = sys.modules["nncomplete.cli"].main(argv)
            return CliResult(code, out.getvalue())
        # the case's alarm interrupts the wait; subprocess.run then kills
        # and reaps the child
        proc = subprocess.run([sys.executable, "-m", "nncomplete.cli", *argv], cwd=ROOT, env=self.env,
                              capture_output=True, text=True)
        return CliResult(proc.returncode, proc.stdout)

    def judge(self, case, rows, res, committed):
        command = case.argv[0]
        try:
            verdict, fault = CLI_JUDGES[command](case, rows, res)
        except (ValueError, KeyError, IndexError, ZeroDivisionError) as e:
            return None, f"unreadable output: {e}"
        want_code = 2 if verdict == "Unknown" else 0
        if res.returncode != want_code:
            fault = fault or f"exit code {res.returncode}, expected {want_code}"
        return verdict, fault or _verdict_fault(verdict, case, committed)


def _blocks(stdout):
    """The first line of the output, and the lines after it."""
    lines = stdout.splitlines()
    return lines[0], lines[1:]


def _judge_rank(case, rows, res):
    got = res.stdout.strip()
    want = str(checks.rank([list(r) for r in rows]))
    return got, None if got == want else f"rank {got}, expected {want}"


def _judge_check_nnrank3(case, rows, res):
    head, rest = _blocks(res.stdout)
    if head == "FALSE":
        return head, None
    if head != "TRUE" or rest[0] != "A:":
        return head, "malformed output"
    split = rest.index("B:")
    a = [list(r) for r in corpus.parse_rows("\n".join(rest[1:split]))]
    b = [list(r) for r in corpus.parse_rows("\n".join(rest[split + 1:]))]
    return head, checks.factorization_fault(a, b, [list(r) for r in rows])


def _completion_fault(rows, mat, r, nonnegative):
    fault = checks.disagreement([list(x) for x in rows], mat)
    if fault is None and checks.rank(mat) > r:
        fault = f"completion has rank above {r}"
    if fault is None and nonnegative and not checks.is_nonnegative(mat):
        fault = "completion has a negative entry"
    return fault


def _judge_complete(case, rows, res):
    head, rest = _blocks(res.stdout)
    kind = head.split()[0]
    r = int(case.argv[case.argv.index("--rank") + 1])
    if kind == "NONE":
        return kind, None
    mat = [list(x) for x in corpus.parse_rows("\n".join(rest))]
    return kind, _completion_fault(rows, mat, r, "--nonnegative" in case.argv)


def _judge_one_missing(case, rows, res):
    head, rest = _blocks(res.stdout)
    kind = head.split()[0]
    if kind != "UNIQUE":
        return kind, None
    mat = [list(x) for x in corpus.parse_rows("\n".join(rest))]
    (i, j), = [(i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x is None]
    fault = _completion_fault(rows, mat, 3, False)
    if fault is None and mat[i][j] != corpus.parse_rows(head.split()[1])[0][0]:
        fault = "reported value differs from the completion"
    return kind, fault


def _judge_nn3_decide(case, rows, res):
    cert = json.loads(res.stdout)
    verdict = cert["verdict"]
    fault = None
    if verdict == "Completable":
        mat = [list(x) for x in corpus.parse_rows("\n".join(" ".join(r) for r in cert["completion"]))]
        fault = _completion_fault(rows, mat, 3, True)
    return verdict, fault


def _judge_plot(case, rows, res):
    svg = res.stdout.strip()
    ok = svg.startswith(("<?xml", "<svg")) and "<polygon" in svg and svg.endswith("</svg>")
    return "SVG", None if ok else "output is not an SVG document"


CLI_JUDGES = {
    "rank": _judge_rank,
    "check-nnrank3": _judge_check_nnrank3,
    "complete": _judge_complete,
    "one-missing": _judge_one_missing,
    "nn3-decide": _judge_nn3_decide,
    "plot": _judge_plot,
}

WORKLOADS = {
    "products": (Decide, True),
    "bitsize": (Decide, False),
    "nnrank3": (NnRank3, False),
    "cli": (Cli, False),
}  # name -> (driver class, whether --seed relabels rows and columns)


def relabel(rows, rng):
    rp = list(range(len(rows)))
    cp = list(range(len(rows[0])))
    rng.shuffle(rp)
    rng.shuffle(cp)
    return tuple(tuple(rows[i][j] for j in cp) for i in rp)


# -- running -------------------------------------------------------------


def prepare(driver, lib, cases, rng, relabelled):
    """[(case, rows the library sees, library input)]"""
    out = []
    for case in cases:
        rows = relabel(case.rows, rng) if relabelled else case.rows
        out.append((case, rows, driver.prepare(lib, case, rows)))
    return out


def run_case(driver, lib, item, committed, pace, tracer=None):
    case, rows, arg = item
    limit = CLI_LIMIT_S if isinstance(driver, Cli) and not driver.in_process else CASE_LIMIT_S
    now = time.perf_counter()
    wall_limit = limit / max(pace.scale(now, now), 1 / MAX_SLOWDOWN)
    if tracer is not None:
        tracer.rung = case.rung
    rec = Record(case, time.perf_counter(), limit)
    answer = None
    try:
        signal.setitimer(signal.ITIMER_REAL, wall_limit)
        try:
            answer = tracer.case(driver.call, lib, arg) if tracer else driver.call(lib, arg)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        rec.latency_s = time.perf_counter() - rec.start
    except CaseTimeout:
        rec.latency_s = wall_limit
        rec.error = "TIMEOUT"
    except Exception as e:  # a raising case is recorded and the loop goes on
        rec.latency_s = time.perf_counter() - rec.start
        rec.error = f"{type(e).__name__}: {e}"
    pace.tick()  # the reading after a case is also the one before the next
    if rec.error is None:
        rec.verdict, rec.fault = driver.judge(case, rows, answer, committed)
    return rec


def closed_loop(driver, lib, items, seconds, rng, committed, pace, tracer=None):
    """Passes over the corpus, each in a fresh random order, until
    ``seconds`` have passed; the first pass is always whole, so that every
    case is decided at least once.  A case that timed out is not attempted
    again in the run: its latency stays its limit."""
    records = []
    timed_out = set()
    start = time.perf_counter()
    first = True
    while first or time.perf_counter() - start < seconds:
        order = list(range(len(items)))
        rng.shuffle(order)
        for i in order:
            if not first and time.perf_counter() - start >= seconds:
                break
            spent = 0.0
            for _ in range(MAX_REPEATS):
                if i in timed_out or spent >= REPEAT_FOR_S:
                    break
                rec = run_case(driver, lib, items[i], committed, pace, tracer)
                records.append(rec)
                spent += rec.latency_s
                if rec.error == "TIMEOUT":
                    timed_out.add(i)
        first = False
    for r in records:
        r.scale = pace.scale(r.start, r.start + r.latency_s)
    return records


def setup(name, driver, corpus_seed, pace):
    """Import, generate the corpus and warm up on its first case; repeated
    SETUP_ROUNDS times.  Returns (library, cases, median nominal seconds)."""
    times = []
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        lib = import_library()
        cases = corpus.GENERATORS[name](corpus_seed)
        warm = prepare(driver, lib, cases[:1], random.Random(0), False)
        rec = run_case(driver, lib, warm[0], {}, pace)
        if rec.error or rec.fault:
            raise RuntimeError(f"warm-up case {cases[0].id} failed: {rec.error or rec.fault}")
        end = time.perf_counter()
        pace.tick()
        times.append((end - start) * pace.scale(start, end))
    return lib, cases, statistics.median(times)


# -- metrics -------------------------------------------------------------


def case_latencies(records, rung=None) -> list:
    """Each case's latency: the median of its nominal times over the
    attempts in ``records``, which keeps bursts of load from other
    processes out of the figures."""
    by_case = {}
    for r in records:
        if rung is None or r.case.rung == rung:
            by_case.setdefault(r.case.id, []).append(r.nominal_s)
    return [statistics.median(v) for v in by_case.values()]


def cases_per_s(records) -> float:
    lat = case_latencies(records)
    return len(lat) / sum(lat)


def tail(latencies):
    """(value, percentile, samples) of the highest percentile that still
    has TAIL_BEYOND samples beyond it."""
    lat = sorted(latencies)
    k = max(len(lat) - TAIL_BEYOND - 1, 0)
    return lat[k], 100.0 * (k + 1) / len(lat), len(lat)


def laplace_share(k, n):
    """Rule-of-succession estimate (k + 1) / (n + 2): never 0, and every
    further case in k raises it."""
    return (k + 1) / (n + 2)


def per_case_outcomes(records):
    """{case id: (unknown, failed, reasons)} over every attempt of a case;
    two different decided verdicts for one case count as a failure."""
    by_case = {}
    for r in records:
        by_case.setdefault(r.case.id, []).append(r)
    out = {}
    for cid, recs in by_case.items():
        reasons = sorted({r.error or r.fault for r in recs if r.error or r.fault})
        decided = {r.verdict for r in recs if r.verdict is not None and r.verdict != "Unknown"}
        if len(decided) > 1:
            reasons.append("verdict flipped: " + "/".join(sorted(decided)))
        unknown = any(r.verdict == "Unknown" for r in recs)
        out[cid] = (unknown, bool(reasons), reasons)
    return out


def flips(outcomes):
    return sum(1 for _, _, reasons in outcomes.values() if any(x.startswith("verdict flipped") for x in reasons))


def end_to_end_metrics(records, outcomes, setup_s, children):
    lat = case_latencies(records)
    tail_s, _, _ = tail(lat)
    n = len(outcomes)
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return {
        "setup_s": (setup_s, "s"),
        "cases_per_s": (cases_per_s(records), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1000 * tail_s, "ms"),
        "unknown_share": (laplace_share(sum(u for u, _, _ in outcomes.values()), n), "ratio"),
        "failed_share": (laplace_share(sum(f for _, f, _ in outcomes.values()), n), "ratio"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


POLYFUN = ("rational_roots", "isolate_real_roots", "count_roots", "gcd", "rf_init")
LINALG = ("rank", "det", "solve_linear", "inverse", "matmul")
GEOMETRY = ("nn_rank_at_most_3", "nested_triangle", "polytopes_from_factorization", "triangle_to_factorization")
FAMILY = ("normalize_two_missing", "family_11_21", "family_11_22", "feasible_set", "special_case_low_rank",
          "sufficient_11_21", "simplicial_sign_check")
COMPLETION = ("rank1_complete", "classify_one_missing", "nn_rank2_complete_3x3")


def per_layer_metrics(tracer, traced, untraced, import_ms):
    """Per-layer metrics from the traced records; counts and self times
    are per case attempt."""
    summary = tracer.layer_summary()
    calls, self_s, layer_s, root_s = (summary[k] for k in ("calls", "self_s", "layer_s", "root_s"))
    n = len(traced)
    out = {}

    def call_metrics(layer, names):
        for f in names:
            out[f"{layer}.{f}.calls"] = (calls[f"{layer}.{f}"] / n, "calls/case")
            out[f"{layer}.{f}.self_ms"] = (1000 * self_s[f"{layer}.{f}"] / n, "ms/case")

    def share(layer):
        out[f"{layer}.self_share"] = (layer_s[layer] / root_s if root_s else 0.0, "ratio")

    call_metrics("polyfun", POLYFUN)
    out["polyfun.rational_roots.max_coeff_bits"] = (tracer.maxima["polyfun.rational_roots.max_coeff_bits"], "bits")
    for d in corpus.BITSIZE_RUNGS:
        key = f"polyfun.rational_roots.max_coeff_bits.d{d}"
        out[key] = (tracer.maxima[key], "bits")
    out["polyfun.rational_roots.max_degree"] = (tracer.maxima["polyfun.rational_roots.max_degree"], "degree")
    share("polyfun")
    call_metrics("linalg", LINALG)
    share("linalg")
    call_metrics("geometry", GEOMETRY)
    searches = calls["geometry.nested_triangle"]
    found = tracer.counts["geometry.nested_triangle.found"]
    out["geometry.nested_triangle.found_share"] = (found / searches if searches else 0.0, "ratio")
    share("geometry")
    out["family.decide_nn3_two_missing.self_ms"] = (1000 * self_s["family.decide_nn3_two_missing"] / n, "ms/case")
    call_metrics("family", FAMILY)
    out["family.family_error.count"] = (tracer.counts["family.family_error"] / n, "errors/case")
    decides = calls["family.decide_nn3_two_missing"]
    out["family.orientations_per_case"] = (orientations(tracer) / decides if decides else 0.0, "count")
    for d in corpus.BITSIZE_RUNGS:
        lat = case_latencies(untraced, rung=d)
        out[f"family.decide_nn3_two_missing.p50_ms.d{d}"] = (1000 * statistics.median(lat) if lat else 0.0, "ms")
    share("family")
    out["cli.import_ms"] = (import_ms, "ms")
    out["cli.main.self_ms"] = (1000 * self_s["cli.main"] / n, "ms/case")
    call_metrics("partial", ("parse_partial",))
    call_metrics("completion", COMPLETION)
    call_metrics("svg", ("render_nested_pair",))
    out["trace.overhead_share"] = (1 - cases_per_s(traced) / cases_per_s(untraced), "ratio")
    return out


def orientations(tracer):
    """Oriented decisions: normalize_two_missing spans directly under a
    decide_nn3_two_missing span (2 per case when the transpose retry ran)."""
    names = {s.id: s.name for s in tracer.spans}
    return sum(1 for s in tracer.spans
               if s.name == "family.normalize_two_missing" and names.get(s.parent) == "family.decide_nn3_two_missing")


def cli_import_ms():
    """Median time of ``import nncomplete.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import nncomplete.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=cli_env(), capture_output=True,
                              text=True, timeout=CLI_LIMIT_S, check=True)
        samples.append(1000 * float(proc.stdout))
    return statistics.median(samples)


# -- main ----------------------------------------------------------------


def load_expected(corpus_seed):
    """(committed verdicts, known defects) of the corpus seed; both empty
    for any other seed."""
    data = json.loads(EXPECTED.read_text())
    if data["corpus_seed"] != corpus_seed:
        return {}, {}
    return data["verdicts"], data["known_defects"]


def probe_defects(driver, lib, items, committed, defects, pace):
    """Call each known-defect case once, outside the measured loop.
    Returns (records that count as operations, {case id: outcome}): a case
    that still fails exactly as recorded is reported only; any other
    outcome is an operation, failed unless its answer passes the checks."""
    counted, report = [], {}
    for item in items:
        cid = item[0].id
        rec = run_case(driver, lib, item, committed, pace)
        if rec.error == defects[cid]:
            report[cid] = f"still fails: {rec.error}"
            continue
        counted.append(rec)
        if rec.error or rec.fault:
            report[cid] = f"fails differently: {rec.error or rec.fault}"
        else:
            report[cid] = f"no longer fails: answers {rec.verdict}; take it out of known_defects"
    return counted, report


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="schedule seed: case order and relabelling")
    p.add_argument("--seconds", type=float, required=True, help="measured time; whole passes, at least one")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corpus-seed", type=int, default=corpus.DEFAULT_CORPUS_SEED,
                   help=f"corpus seed (default {corpus.DEFAULT_CORPUS_SEED}; held out: {corpus.HELD_OUT_CORPUS_SEED})")
    return p.parse_args(argv)


def run(args):
    """Returns (result line, detail dict)."""
    driver_cls, relabelled = WORKLOADS[args.workload]
    driver = driver_cls(in_process=bool(args.trace)) if driver_cls is Cli else driver_cls()
    committed, defects = load_expected(args.corpus_seed)
    WORK.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    pace = Pace()
    lib, cases, setup_s = setup(args.workload, driver, args.corpus_seed, pace)
    rng = random.Random(f"schedule/{args.seed}")
    items = prepare(driver, lib, cases, rng, relabelled)
    probed, defect_report = probe_defects(driver, lib, [it for it in items if it[0].id in defects], committed,
                                          defects, pace)
    for cid, outcome in sorted(defect_report.items()):
        print(f"known defect {cid}: {outcome}", file=sys.stderr)
    items = [it for it in items if it[0].id not in defects]
    if not args.trace:
        records = closed_loop(driver, lib, items, args.seconds, rng, committed, pace)
        outcomes = per_case_outcomes(records)
        metrics = end_to_end_metrics(records, outcomes, setup_s, isinstance(driver, Cli))
    else:
        untraced = closed_loop(driver, lib, items, args.seconds / 2, rng, committed, pace)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = closed_loop(driver, lib, items, args.seconds / 2, rng, committed, pace, tracer)
        finally:
            tracer.uninstall()
        records = untraced + traced
        outcomes = per_case_outcomes(records)
        metrics = per_layer_metrics(tracer, traced, untraced, cli_import_ms())
        write_spans(tracer, args)
    n_flips = flips(outcomes)
    n_faults = sum(1 for r in records + probed if r.fault)
    raw = [r.latency_s for r in records]
    _, pct, samples = tail(case_latencies(records))
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "corpus_seed": args.corpus_seed,
        "cases": len(items),
        "attempts_per_case": len(records) / len(items),
        "latency_tail_percentile": round(pct, 2),
        "latency_cases": samples,
        "raw_latency_p50_ms": 1000 * statistics.median(raw),
        "raw_cases_per_s": len(raw) / sum(raw),
        "yardstick_ms": 1000 * statistics.median(took for _, took in pace.readings),
        "unknown_cases": sorted(c for c, (u, _, _) in outcomes.items() if u),
        "failed_cases": {c: reasons for c, (_, f, reasons) in outcomes.items() if f},
        "known_defects": defect_report,
    }
    result = {
        "correct": n_faults + n_flips == 0,
        "attempted": len(records) + len(probed),
        "failed": sum(1 for r in records + probed if r.fault or r.error) + n_flips,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def write_spans(tracer, args):
    path = WORK / f"spans-{args.workload}-seed{args.seed}.tsv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tparent\tname\tstart_s\tend_s\n")
        for s in tracer.spans:
            fh.write(f"{s.id}\t{s.parent}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nncomplete" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'nncomplete'}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result, detail = run(args)
    finally:
        for f in WORK.glob("cli-*.txt"):
            f.unlink()
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
