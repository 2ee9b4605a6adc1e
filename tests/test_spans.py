"""The benchmark's tracer (bench/spans.py) against the library: every span
target it wraps exists, gets wrapped, and is put back by ``uninstall``.
A renamed or deleted target then fails here, not only in a traced
benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_spans():
    """bench/spans.py, imported from the bench directory, which stays as
    it is."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("spans")
    finally:
        sys.path.remove(str(BENCH))


def span_targets(spans) -> dict:
    """{(owner, attribute): original} for every target of every layer that
    has a module in the package; the tracer skips a layer without one."""
    targets = {}
    for layer, names in spans.LAYER_FUNCTIONS.items():
        if importlib.util.find_spec(f"nncomplete.{layer}") is None:
            continue
        home = importlib.import_module(f"nncomplete.{layer}")
        for attr in names:
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(home, cls_name)
                targets[owner, meth] = owner.__dict__[meth]
            else:
                targets[home, attr] = getattr(home, attr)
    return targets


def test_tracer_wraps_every_span_target_and_uninstall_restores_it():
    spans = load_spans()
    targets = span_targets(spans)
    assert {owner.__name__.split(".")[-1] for owner, _ in targets} >= {"linalg", "geometry", "family", "cli"}
    modules = [m for n, m in list(sys.modules.items()) if n == "nncomplete" or n.startswith("nncomplete.")]
    namespaces = [(m, dict(vars(m))) for m in modules]
    tracer = spans.Tracer()
    try:
        tracer.install()
        for (owner, key), original in targets.items():
            wrapper = vars(owner)[key]
            assert wrapper is not original and wrapper.__wrapped__ is original
    finally:
        tracer.uninstall()
    for (owner, key), original in targets.items():
        assert vars(owner)[key] is original
    for mod, namespace in namespaces:
        assert all(vars(mod)[k] is v for k, v in namespace.items())
