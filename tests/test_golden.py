"""Byte-exact regression tests against the golden CLI outputs kept under
version control."""

import pytest

from nncomplete.cli import main

from conftest import DATA, GOLDEN


def run_stdout(capsys, *argv) -> tuple:
    code = main(list(argv))
    return code, capsys.readouterr().out


CASES_STDOUT = [
    ("unique_nmf.check.txt", ("check-nnrank3", "rank3_product.txt")),
    ("perturbed.check.txt", ("check-nnrank3", "perturbed_full.txt")),
    ("column_holes.json", ("nn3-decide", "two_missing_column.txt", "--json")),
    ("diagonal_holes.json", ("nn3-decide", "two_missing_diagonal.txt", "--json")),
    ("two_missing_column.txt", ("nn3-decide", "two_missing_column.txt")),
    ("two_missing_diagonal.txt", ("nn3-decide", "two_missing_diagonal.txt")),
    ("two_missing_completable.txt", ("nn3-decide", "two_missing_completable.txt")),
]

CASES_SVG = [
    ("unique_nmf.svg", "rank3_product.txt"),
    ("perturbed.svg", "perturbed_full.txt"),
    ("column_holes.svg", "two_missing_column.txt"),
    ("diagonal_holes.svg", "two_missing_diagonal.txt"),
]


@pytest.mark.parametrize("golden,command", CASES_STDOUT, ids=[c[0] for c in CASES_STDOUT])
def test_stdout_byte_exact(capsys, golden, command):
    sub, data, *flags = command
    code, out = run_stdout(capsys, sub, str(DATA / data), *flags)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("golden,data", CASES_SVG, ids=[c[0] for c in CASES_SVG])
def test_svg_byte_exact(capsys, tmp_path, golden, data):
    target = tmp_path / golden
    code = main(["plot", str(DATA / data), "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_bytes() == (GOLDEN / golden).read_bytes()
