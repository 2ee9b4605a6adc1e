"""The value records the library returns are immutable: no field can be
assigned and no attribute added, and a changed copy is made with
``_replace``, which leaves the original as it was."""

from fractions import Fraction

import pytest

from nncomplete import (
    ExactMatrix,
    Nn3Certificate,
    PerturbationSpec,
    decide_nn3_two_missing,
    family_11_21,
    feasible_set,
    normalize_two_missing,
    parse_partial,
    rank1_complete,
    solve_linear,
    support_graph,
    zero_line_property,
)

TWO_MISSING = "? 5 1 9\n? 1 7 7\n1 5 9 1\n0 9 3 3\n"


def _records() -> dict:
    """One record of each kind, each as a library call returns it."""
    m = parse_partial(TWO_MISSING)
    canon, norm = normalize_two_missing(m)
    small = parse_partial("1 ?\n2 4\n")
    return {
        "LinearSolution": solve_linear(ExactMatrix([[1, 2]]), ExactMatrix([[3]])),
        "Pattern": m.pattern,
        "SupportGraph": support_graph(small),
        "ZeroLineFlags": zero_line_property(small),
        "CompletionOutcome": rank1_complete(small),
        "PerturbationSpec": PerturbationSpec("left", (1, 1), Fraction(-1, 2)),
        "Interval": feasible_set([((0, 1), (1, 0))])[0],
        "NestedFamily": family_11_21(canon),
        "Normalization": norm,
        "Nn3Certificate": decide_nn3_two_missing(m),
    }


NAMES = list(_records())


@pytest.mark.parametrize("name", NAMES)
def test_record_is_immutable(name):
    record = _records()[name]
    assert type(record).__name__ == name
    before = tuple(record)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.note = "no attribute can be added"
    marker = object()
    copy = record._replace(**{record._fields[0]: marker})
    assert type(copy) is type(record) and copy[0] is marker
    assert all(a is b for a, b in zip(copy[1:], before[1:]))
    assert all(a is b for a, b in zip(record, before))


def test_certificates_never_share_a_samples_list():
    first, second = Nn3Certificate("Unknown", "11_21"), Nn3Certificate("Unknown", "11_21")
    assert first.samples == second.samples == []
    assert first.samples is not second.samples
