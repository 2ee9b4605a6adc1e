import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import nncomplete
from nncomplete.cli import main
from nncomplete.family import Nn3Certificate

from conftest import DATA
from oracles import verify_triangle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRank:
    def test_full_matrix(self, capsys):
        code, out, err = run(capsys, "rank", str(DATA / "rank3_product.txt"))
        assert code == 0 and out == "3\n" and err == ""

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n2 4\n"))
        code, out, err = run(capsys, "rank", "-")
        assert code == 0 and out == "1\n"

    def test_partial_rejected(self, capsys):
        code, out, err = run(capsys, "rank", str(DATA / "two_missing_column.txt"))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unreadable_file(self, capsys):
        code, out, err = run(capsys, "rank", "/no/such/file")
        assert code == 1 and err.startswith("error: cannot read")

    def test_parse_error_diagnostic(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 x\n"))
        code, out, err = run(capsys, "rank", "-")
        assert code == 1 and err.startswith("error: parse error")

    def test_exponent_token_is_one_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 1e3000000\n2 3\n"))
        code, out, err = run(capsys, "rank", "-")
        assert code == 1 and out == ""
        assert err.startswith("error: parse error") and err.count("\n") == 1


class TestComplete:
    def test_rank1_unique(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("? 2\n3 6\n"))
        code, out, err = run(capsys, "complete", "-", "--rank", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "UNIQUE"
        assert lines[1:] == ["1 2", "3 6"]

    def test_rank1_none(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n3 4\n"))
        code, out, err = run(capsys, "complete", "-", "--rank", "1")
        assert code == 0 and out == "NONE\n"

    def test_rank1_infinite_describes_freedom(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 ?\n? 2\n"))
        code, out, err = run(capsys, "complete", "-", "--rank", "1")
        assert code == 0
        assert out.splitlines()[0].startswith("INFINITE 1 free relative scaling")

    def test_rank2_requires_nonnegative_flag(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3\n? 1 1\n1 ? 1\n"))
        code, out, err = run(capsys, "complete", "-", "--rank", "2")
        assert code == 1 and "only with --nonnegative" in err

    def test_rank2_nonnegative(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("3 ? ?\n0 1 2\n0 2 4\n"))
        code, out, err = run(capsys, "complete", "-", "--rank", "2", "--nonnegative")
        assert code == 0
        assert out.splitlines()[0] == "SOME"

    def test_unsupported_rank(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n3 4\n"))
        code, out, err = run(capsys, "complete", "-", "--rank", "5")
        assert code == 1 and "--rank 1 and --rank 2" in err


class TestOneMissing:
    def test_unique_with_value(self, capsys):
        code, out, err = run(
            capsys, "one-missing", str(DATA / "one_missing_perturbed.txt"), "--rank", "3"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "UNIQUE 12"
        assert lines[1] == "12 2 1 9"

    def test_explicit_hole_flag(self, capsys):
        code, out, err = run(
            capsys,
            "one-missing",
            str(DATA / "one_missing_perturbed.txt"),
            "--rank",
            "3",
            "--hole",
            "1,1",
        )
        assert code == 0 and out.splitlines()[0] == "UNIQUE 12"

    def test_bad_hole_syntax(self, capsys):
        code, out, err = run(
            capsys,
            "one-missing",
            str(DATA / "one_missing_perturbed.txt"),
            "--rank",
            "3",
            "--hole",
            "oops",
        )
        assert code == 1 and "--hole expects i,j" in err

    def test_infinite(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("? 0 0\n1 1 1\n2 2 2\n"))
        code, out, err = run(capsys, "one-missing", "-", "--rank", "2")
        assert code == 0 and out == "INFINITE\n"

    def test_none(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("? 1 1\n1 2 1\n1 1 3\n"))
        code, out, err = run(capsys, "one-missing", "-", "--rank", "1")
        assert code == 0 and out == "NONE\n"


class TestCheckNnrank3:
    def test_true_with_verifying_witness(self, capsys):
        code, out, err = run(capsys, "check-nnrank3", str(DATA / "rank3_product.txt"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "TRUE"
        a_start = lines.index("A:") + 1
        b_start = lines.index("B:") + 1
        from nncomplete import matmul, parse_partial

        a = parse_partial("\n".join(lines[a_start : b_start - 1])).to_full_matrix()
        b = parse_partial("\n".join(lines[b_start:])).to_full_matrix()
        m = parse_partial((DATA / "rank3_product.txt").read_text()).to_full_matrix()
        assert a.is_nonnegative() and b.is_nonnegative()
        assert matmul(a, b) == m

    def test_false(self, capsys):
        code, out, err = run(capsys, "check-nnrank3", str(DATA / "perturbed_full.txt"))
        assert code == 0 and out == "FALSE\n"

    def test_negative_entry_rejected(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 -1\n1 1\n"))
        code, out, err = run(capsys, "check-nnrank3", "-")
        assert code == 1 and "nonnegative" in err


class TestNn3Decide:
    def test_not_completable_text(self, capsys):
        code, out, err = run(capsys, "nn3-decide", str(DATA / "two_missing_column.txt"))
        assert code == 0
        assert out.splitlines()[0] == "NotCompletable (pattern 11_21)"

    def test_not_completable_json(self, capsys):
        code, out, err = run(
            capsys, "nn3-decide", str(DATA / "two_missing_diagonal.txt"), "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "NotCompletable"
        assert doc["envelope"]["t_hi"] == "4284/9959"

    def test_completable_text(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("? 5 1 9\n? 1 7 7\n0 5 9 1\n0 9 3 3\n")
        )
        code, out, err = run(capsys, "nn3-decide", "-")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("Completable")
        assert "completion:" in lines

    def test_curve_refutation_exits_0(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("2 4 ? 3\n8 ? 2 3\n6 4 0 5\n6 2 2 4\n")
        )
        code, out, err = run(capsys, "nn3-decide", "-")
        assert code == 0
        assert out.splitlines()[0] == "NotCompletable (pattern 11_22)"

    def test_unknown_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "nncomplete.family.decide_nn3_two_missing",
            lambda m: Nn3Certificate("Unknown", "11_22"),
        )
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("? 5 1 9\n1 ? 7 7\n1 5 9 1\n2 9 3 3\n")
        )
        code, out, err = run(capsys, "nn3-decide", "-")
        assert code == 2
        assert out.splitlines()[0] == "Unknown (pattern 11_22)"

    def test_failed_verification_is_one_error_line(self, capsys, monkeypatch):
        """A VerificationError is an AssertionError, a fault of the library:
        exit 1 with one diagnostic line and no verdict, not a traceback."""
        def fail(m):
            raise nncomplete.VerificationError("the completion does not match the observed entries")

        monkeypatch.setattr("nncomplete.family.decide_nn3_two_missing", fail)
        code, out, err = run(capsys, "nn3-decide", str(DATA / "two_missing_completable.txt"))
        assert code == 1 and out == ""
        assert err == "error: verification failed: the completion does not match the observed entries\n"

    def test_wrong_hole_count_is_error(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("? 5 1 9\n1 1 7 7\n1 5 9 1\n2 9 3 3\n")
        )
        code, out, err = run(capsys, "nn3-decide", "-")
        assert code == 1 and "two entries" in err

    def test_svg_side_output(self, capsys, tmp_path):
        target = tmp_path / "fig.svg"
        code, out, err = run(
            capsys,
            "nn3-decide",
            str(DATA / "two_missing_diagonal.txt"),
            "--svg",
            str(target),
        )
        assert code == 0
        text = target.read_text()
        assert text.startswith('<?xml') and text.rstrip().endswith("</svg>")


class TestPlot:
    def test_full_rank3_to_stdout(self, capsys):
        code, out, err = run(capsys, "plot", str(DATA / "rank3_product.txt"))
        assert code == 0
        assert out.startswith('<?xml') and out.rstrip().endswith("</svg>")

    def test_two_missing_to_file(self, capsys, tmp_path):
        target = tmp_path / "fig.svg"
        code, out, err = run(
            capsys, "plot", str(DATA / "two_missing_column.txt"), "--out", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith('<?xml')

    def test_wrong_rank_rejected(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n2 4\n"))
        code, out, err = run(capsys, "plot", "-")
        assert code == 1 and "rank exactly 3" in err

    @pytest.mark.parametrize("argv", [["plot", "-"], ["nn3-decide", "-", "--svg", "fig.svg"]], ids=" ".join)
    def test_completion_of_rank_2_is_named(self, capsys, monkeypatch, tmp_path, argv):
        """A partial input whose Completable answer is its zero fill of rank
        2 has no figure: one error line that names that completion, not a
        full matrix."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("sys.stdin", io.StringIO("? 1 1 1\n? 1 1 1\n1 1 1 1\n1 1 1 1\n"))
        code, out, err = run(capsys, *argv)
        assert code == 1 and err.count("\n") == 1
        assert err == "error: plot requires rank exactly 3, and the completion of the Completable answer has rank 2\n"
        assert out.startswith("Completable") == (argv[0] == "nn3-decide")
        assert not (tmp_path / "fig.svg").exists()

    @pytest.mark.parametrize(
        "text",
        [
            # decided by the transpose retry: its t* is a parameter of the
            # transposed family, not of this one
            "3 9 9 ?\n8 ? 4 5\n7 5 7 2\n3 0 6 6\n",
            # the family of this orientation cannot be built
            "? 6 0 7\n20 9 0 13\n4 0 0 2\n16 6 0 ?\n",
            # a special case, with no t*
            "0 2 0 7\n? 1 5 1\n? 1 9 9\n0 2 9 3\n",
        ],
        ids=["transpose-retry", "no-family", "special-case"],
    )
    def test_completable_draws_its_completion(self, capsys, monkeypatch, text):
        drawn = []
        monkeypatch.setattr(
            "nncomplete.svg.render_nested_pair",
            lambda pair, tri: drawn.append((pair, tri)) or "<svg/>",
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "plot", "-")
        assert code == 0 and err == ""
        [(pair, tri)] = drawn
        assert tri is not None and verify_triangle(pair, tri)

    @pytest.mark.parametrize("text, message", [
        # the family of an Unknown instance cannot be built
        ("4 4 8 2\n16 8 24 6\n14 6 20 ?\n? 0 10 6\n", "rows 1,3,4 of columns 2..4 must have rank 3"),
        # a nonnegative rank-3 matrix whose pair has a coordinate past the float range
        (f"{10**330} 1/{10**330} 1/{10**330}\n2 0 2\n2 7/{10**320} 2\n", "a coordinate is too large to draw"),
    ], ids=["no-family", "beyond-float-range"])
    def test_library_error_is_one_line_diagnostic(self, text, message):
        """A ValueError from inside the library exits 1 with one stderr
        line, in a real process and with the interpreter's optimize
        level."""
        env = dict(os.environ, PYTHONPATH=str(Path(nncomplete.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, *["-O"] * sys.flags.optimize, "-m", "nncomplete.cli", "plot", "-"],
            input=text,
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"
        assert "Traceback" not in proc.stderr


class TestUnwritableFigure:
    @pytest.mark.parametrize("argv", [
        ["plot", str(DATA / "rank3_product.txt"), "--out"],
        ["nn3-decide", str(DATA / "two_missing_diagonal.txt"), "--svg"],
    ], ids=lambda argv: argv[0])
    def test_one_line_diagnostic(self, tmp_path, argv):
        """A figure path that cannot be written exits 1 with one stderr
        line, as an unreadable input does, in a real process."""
        target = tmp_path / "no-such-directory" / "fig.svg"
        env = dict(os.environ, PYTHONPATH=str(Path(nncomplete.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, *["-O"] * sys.flags.optimize, "-m", "nncomplete.cli", *argv, str(target)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: cannot write {target}: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


# runs the CLI as ``python -m`` does and writes the modules the run added
# to sys.modules, one line after its own output on stderr
FOOTPRINT = """
import runpy, sys
before = set(sys.modules)
sys.argv = ["nncomplete", *sys.argv[1:]]
try:
    runpy.run_module("nncomplete.cli", run_name="__main__", alter_sys=True)
except SystemExit as e:
    code = e.code
sys.stderr.write("\\n" + " ".join(sorted(set(sys.modules) - before)) + "\\n")
sys.exit(code)
"""


class TestImportFootprint:
    @pytest.mark.parametrize("argv, text", [
        (["rank", str(DATA / "rank3_product.txt")], ""),
        (["complete", "-", "--rank", "1"], "? 2\n3 6\n"),
        (["complete", "-", "--rank", "2", "--nonnegative"], "3 ? ?\n0 1 2\n0 2 4\n"),
        (["one-missing", str(DATA / "one_missing_perturbed.txt"), "--rank", "3"], ""),
        (["check-nnrank3", str(DATA / "rank3_product.txt")], ""),
        (["nn3-decide", str(DATA / "two_missing_column.txt")], ""),
        (["nn3-decide", str(DATA / "two_missing_diagonal.txt"), "--json"], ""),
        (["nn3-decide", str(DATA / "two_missing_diagonal.txt"), "--svg", "fig.svg"], ""),
        (["plot", str(DATA / "rank3_product.txt")], ""),
        (["plot", str(DATA / "two_missing_column.txt")], ""),
    ], ids=["rank", "complete-rank-1", "complete-rank-2", "one-missing", "check-nnrank3", "nn3-decide",
            "nn3-decide-json", "nn3-decide-svg", "plot-full", "plot-two-holes"])
    def test_a_subcommand_loads_only_what_it_runs(self, tmp_path, argv, text):
        env = dict(os.environ, PYTHONPATH=str(Path(nncomplete.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, *["-O"] * sys.flags.optimize, "-c", FOOTPRINT, *argv],
            input=text,
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stderr.splitlines()[-1].split())
        command = argv[0]
        assert {"nncomplete.linalg", "nncomplete.partial"} <= loaded
        assert not loaded & {"dataclasses", "inspect"}
        if "--json" not in argv:
            assert "json" not in loaded
        if command in ("rank", "complete", "one-missing", "check-nnrank3"):
            assert not loaded & {"nncomplete.family", "nncomplete.svg"}
        if command in ("rank", "complete", "one-missing"):
            assert "nncomplete.geometry" not in loaded
        if command == "nn3-decide" and "--svg" not in argv:
            assert not loaded & {"nncomplete.completion", "nncomplete.svg"}


class TestClosedPipe:
    @pytest.mark.parametrize(
        "argv", [["nn3-decide"], ["nn3-decide", "--json"], ["plot"]], ids=" ".join
    )
    def test_one_line_diagnostic(self, argv):
        """A reader that goes away before the output is written gets no
        traceback: exit 1 with one stderr line."""
        env = dict(os.environ, PYTHONPATH=str(Path(nncomplete.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, *["-O"] * sys.flags.optimize, "-m", "nncomplete.cli", *argv,
             str(DATA / "two_missing_column.txt")],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == "error: output pipe closed\n"


# ---------------------------------------------------------------------------
# fuzzing the exit contract

ENTRY = st.one_of(
    st.integers(0, 9).map(str),
    st.builds("{}/{}".format, st.integers(0, 9), st.integers(1, 4)),
    # 10^330 and 10^-330: past the float range, as a figure's coordinates can be
    st.sampled_from([str(10**330), f"1/{10**330}"]),
)
BAD_ENTRY = st.sampled_from(["-1", "-3/2", "1/0", "x"])
# the number of holes each subcommand works on
HOLES = {"rank": 0, "complete": 2, "one-missing": 1, "check-nnrank3": 0, "nn3-decide": 2, "plot": 2}


@st.composite
def cli_call(draw):
    """(argv, stdin text): one of the six subcommands reading a small
    nonnegative matrix, mostly 4x4, from stdin.  The matrix has up to three
    ``?`` (most often as many as the subcommand works on) and sometimes one
    negative, zero-denominator or malformed token."""
    cmd = draw(st.sampled_from(sorted(HOLES)))
    argv = [cmd, "-"]
    if cmd in ("complete", "one-missing"):
        argv += ["--rank", draw(st.sampled_from(["1", "2", "3"]))]
    if cmd == "complete" and draw(st.booleans()):
        argv.append("--nonnegative")
    hole = draw(st.sampled_from([None, "1,1", "2,3", "x"])) if cmd == "one-missing" else None
    if hole:
        argv += ["--hole", hole]
    if cmd == "nn3-decide" and draw(st.booleans()):
        argv.append("--json")
    p, q = draw(st.sampled_from([(3, 3), (2, 3), (1, 4), (4, 2)])) if draw(st.integers(0, 4)) == 4 else (4, 4)
    cells = draw(st.lists(ENTRY, min_size=p * q, max_size=p * q))
    holes = draw(st.sampled_from([HOLES[cmd], 0, 1, 2, 3]))
    for k in draw(st.lists(st.integers(0, p * q - 1), min_size=holes, max_size=holes, unique=True)):
        cells[k] = "?"
    if draw(st.integers(0, 3)) == 0:
        cells[draw(st.integers(0, p * q - 1))] = draw(BAD_ENTRY)
    return argv, "".join(" ".join(cells[i * q:(i + 1) * q]) + "\n" for i in range(p))


class TestExitContract:
    @settings(max_examples=200, deadline=None)
    @given(call=cli_call())
    # a nonnegative rank-3 matrix whose figure has a coordinate past the
    # float range, which the random draws reach only rarely
    @example(call=(["plot", "-"], f"{10**330} 1/{10**330} 1/{10**330}\n2 0 2\n2 7/{10**320} 2\n"))
    def test_any_input_keeps_the_exit_contract(self, call):
        """Exit 0, 1 or 2; exit 1 with exactly one error line; nothing
        escapes main."""
        argv, text = call
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", io.StringIO(text)), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if code == 1:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["nn3-decide", "x", "--nope"], "unrecognized arguments: --nope"),
        (["nn3-decide"], "the following arguments are required: input"),
        (["complete", "x", "--rank", "abc"], "argument --rank: invalid int value: 'abc'"),
        (["bogus"], "argument subcommand: invalid choice: 'bogus'"),
    ], ids=["bad-flag", "missing-input", "bad-rank", "unknown-subcommand"])
    def test_usage_error_exits_1_with_one_line(self, capsys, argv, message):
        """A usage error is an error like any other: exit 1, not argparse's
        2, which the contract reserves for Unknown."""
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "nn3-decide" in capsys.readouterr().out

    def test_bad_flag_in_a_process(self):
        env = dict(os.environ, PYTHONPATH=str(Path(nncomplete.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, *["-O"] * sys.flags.optimize, "-m", "nncomplete.cli", "nn3-decide",
             str(DATA / "two_missing_column.txt"), "--nope"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: unrecognized arguments: --nope\n"
