"""Command-line interface: parse matrix files, decide and certify
low-rank and low-nonnegative-rank completions, and render figures.

Exit status contract: 0 for a decided verdict, 2 when the decision
procedure honestly answers Unknown, 1 for any error (a usage error, parse
failure, unsupported pattern, shape mismatch, any ValueError or
ZeroDivisionError raised by the library, or an answer that fails its own
verification), with a one-line diagnostic.

Each subcommand imports the modules it runs when it runs, so that a
process loads only those: `rank`, `complete` and `one-missing` load no
geometry, and `nn3-decide` without --svg loads no completion or svg.
"""

from __future__ import annotations

import argparse
import os
import sys

from .linalg import ExactMatrix, VerificationError, rank
from .partial import ParseError, PartialMatrix, parse_partial, serialize_matrix


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise CliError, so that they
    exit 1 with one diagnostic line like every other error; argparse's
    own exit code 2 would read as Unknown."""

    def error(self, message):
        raise CliError(message)


def _read_input(path: str) -> PartialMatrix:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise CliError(f"cannot read {path}: {e.strerror}")
    try:
        return parse_partial(text)
    except ParseError as e:
        raise CliError(f"parse error: {e}")


def _full(m: PartialMatrix, what: str) -> ExactMatrix:
    if m.pattern.missing:
        raise CliError(f"{what} requires a fully observed matrix")
    return m.to_full_matrix()


def _parse_hole(text: str) -> tuple:
    try:
        i, j = text.split(",")
        return int(i), int(j)
    except ValueError:
        raise CliError(f"--hole expects i,j (got {text!r})")


def _emit(out, text: str):
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


def _cmd_rank(args, out) -> int:
    m = _full(_read_input(args.input), "rank")
    _emit(out, str(rank(m)))
    return 0


def _cmd_complete(args, out) -> int:
    from .completion import nn_rank2_complete_3x3, rank1_complete

    m = _read_input(args.input)
    if args.rank == 1:
        outcome = rank1_complete(m, require_nonnegative=args.nonnegative)
    elif args.rank == 2:
        if not args.nonnegative:
            raise CliError("complete --rank 2 is supported only with --nonnegative")
        outcome = nn_rank2_complete_3x3(m)
    else:
        raise CliError("complete supports --rank 1 and --rank 2")
    _emit(out, outcome.kind.upper() + (f" {outcome.description}" if outcome.description else ""))
    if outcome.matrix is not None:
        _emit(out, serialize_matrix(outcome.matrix))
    return 0


def _cmd_one_missing(args, out) -> int:
    from .completion import classify_one_missing

    m = _read_input(args.input)
    if args.hole is None:
        missing = sorted(m.pattern.missing)
        if len(missing) != 1:
            raise CliError("one-missing needs --hole i,j or exactly one missing entry")
        hole = missing[0]
    else:
        hole = _parse_hole(args.hole)
    outcome = classify_one_missing(m, hole, args.rank)
    if outcome.kind == "unique":
        _emit(out, f"UNIQUE {outcome.matrix.entry(*hole)}")
        _emit(out, serialize_matrix(outcome.matrix))
    else:
        _emit(out, outcome.kind.upper())
    return 0


def _cmd_check_nnrank3(args, out) -> int:
    from .geometry import nn_rank_at_most_3

    m = _full(_read_input(args.input), "check-nnrank3")
    if not m.is_nonnegative():
        raise CliError("check-nnrank3 requires a nonnegative matrix")
    ok, witness = nn_rank_at_most_3(m)
    if not ok:
        _emit(out, "FALSE")
        return 0
    a, b = witness
    _emit(out, "TRUE")
    _emit(out, "A:")
    _emit(out, serialize_matrix(a))
    _emit(out, "B:")
    _emit(out, serialize_matrix(b))
    return 0


def _cmd_nn3_decide(args, out) -> int:
    from .family import decide_nn3_two_missing

    m = _read_input(args.input)
    cert = decide_nn3_two_missing(m)
    if args.json:
        import json

        _emit(out, json.dumps(cert.to_json_dict(), indent=2))
    else:
        _emit(out, _describe_certificate(cert))
    if args.svg:
        _write_svg(m, cert, args.svg, out)
    return 2 if cert.verdict == "Unknown" else 0


def _describe_certificate(cert) -> str:
    d = cert.to_json_dict()

    def points(vertices):
        return " ".join(f"({x},{y})" for x, y in vertices)

    lines = [f"{d['verdict']} (pattern {d['pattern']})"]
    if d["t_star"] is not None:
        lines.append(f"t* = {d['t_star']}")
    if d["completion"] is not None:
        lines.append("completion:")
        lines += [" ".join(row) for row in d["completion"]]
    if d["triangle"] is not None:
        lines.append(f"triangle: {points(d['triangle'])}")
    if d["envelope"] is not None:
        lines.append("refuting envelope:")
        lines.append(f"  inner: {points(d['envelope']['inner'])}")
        lines.append(f"  outer: {points(d['envelope']['outer'])}")
    if d["samples"]:
        lines.append("sampled t: " + " ".join(d["samples"]))
    return "\n".join(lines)


def _pair_for_plot(m: PartialMatrix, cert):
    """The nested pair a figure should show, and its triangle if any: the
    pair of the full matrix or of a Completable certificate's completion
    (an Nn3Certificate, decided here when None), else the family's pair
    at a feasible parameter."""
    from .geometry import bounded_nested_pair, nested_triangle

    if len(m.pattern.missing) == 2 and (m.p, m.q) == (4, 4):
        from .family import decide_nn3_two_missing, family_11_21, family_11_22, normalize_two_missing

        if cert is None:
            cert = decide_nn3_two_missing(m)
        if cert.verdict != "Completable":
            canon, norm = normalize_two_missing(m)
            fam = family_11_21(canon) if norm.tag == "11_21" else family_11_22(canon)
            if not fam.feasible:
                raise CliError("no feasible parameter to plot")
            pair = fam.pair_at(fam.feasible[0].sample())
            return pair, nested_triangle(pair)
        full, what = cert.completion, "the completion of the Completable answer"
    elif not m.pattern.missing:
        full, what = m.to_full_matrix(), "the matrix"
        if not full.is_nonnegative():
            raise CliError("plot requires a nonnegative matrix")
    else:
        raise CliError("plot supports full matrices and 4x4 patterns with two holes")
    r = rank(full)
    if r != 3:
        raise CliError(f"plot requires rank exactly 3, and {what} has rank {r}")
    pair = bounded_nested_pair(full)
    return pair, nested_triangle(pair)


def _write_svg(m: PartialMatrix, cert, path: str | None, out):
    """Render the figure of m into the file at path, or to out without one."""
    from .svg import render_nested_pair

    pair, tri = _pair_for_plot(m, cert)
    svg = render_nested_pair(pair, tri)
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except OSError as e:
            raise CliError(f"cannot write {path}: {e.strerror}")
    else:
        out.write(svg)


def _cmd_plot(args, out) -> int:
    _write_svg(_read_input(args.input), None, args.out, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nncomplete",
        description="Exact low-rank and low-nonnegative-rank matrix completion.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("rank", help="exact rank of a fully observed matrix")
    p.add_argument("input", help="matrix file, or - for stdin")

    p = sub.add_parser("complete", help="rank-1 (or nonnegative 3x3 rank-2) completion")
    p.add_argument("input")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--nonnegative", action="store_true")

    p = sub.add_parser("one-missing", help="classify a single-missing-entry completion")
    p.add_argument("input")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--hole", help="i,j (defaults to the unique missing entry)")

    p = sub.add_parser("check-nnrank3", help="decide nonnegative rank at most 3")
    p.add_argument("input")

    p = sub.add_parser("nn3-decide", help="decide two-missing-entry nonnegative rank-3 completability")
    p.add_argument("input")
    p.add_argument("--json", action="store_true")
    p.add_argument("--svg", help="also write the certificate figure to this path")

    p = sub.add_parser("plot", help="render the nested polygon pair as SVG")
    p.add_argument("input")
    p.add_argument("--out", help="output path (default: stdout)")
    return parser


_COMMANDS = {
    "rank": _cmd_rank,
    "complete": _cmd_complete,
    "one-missing": _cmd_one_missing,
    "check-nnrank3": _cmd_check_nnrank3,
    "nn3-decide": _cmd_nn3_decide,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        status = _COMMANDS[args.subcommand](args, sys.stdout)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader went away: send the rest of stdout, including the
        # interpreter's own flush at exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output pipe closed", file=sys.stderr)
        return 1
    except (CliError, ValueError, ZeroDivisionError) as e:
        # ValueError covers the library's FamilyError, ParseError and
        # UnboundedRegionError
        print(f"error: {e}", file=sys.stderr)
        return 1
    except VerificationError as e:  # an AssertionError: a fault of the library, never a verdict
        print(f"error: verification failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
