"""Spans around the calls into each layer of the library.

A ``Tracer`` replaces the public functions of a layer, in every module of
the package that binds them, and a few class methods, by wrappers that
record a span: id, parent id, name, start and end.  Spans stay in memory
until the run ends.  A span's self time is its duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from math import gcd
from typing import NamedTuple

# layer -> public functions other modules call; "Class.method" for methods
LAYER_FUNCTIONS = {
    "polyfun": ("Poly.rational_roots", "Poly.isolate_real_roots", "Poly.count_roots", "Poly.gcd",
                "RationalFunction.__init__"),
    "linalg": ("rank", "det", "solve_linear", "inverse", "matmul"),
    "geometry": ("nn_rank_at_most_3", "nested_triangle", "polytopes_from_factorization",
                 "triangle_to_factorization"),
    "family": ("decide_nn3_two_missing", "normalize_two_missing", "family_11_21", "family_11_22",
               "feasible_set", "special_case_low_rank", "sufficient_11_21", "simplicial_sign_check"),
    "partial": ("parse_partial",),
    "completion": ("rank1_complete", "classify_one_missing", "nn_rank2_complete_3x3"),
    "svg": ("render_nested_pair",),
    "cli": ("main",),
}
# span names that differ from the wrapped attribute
SPAN_NAMES = {"RationalFunction.__init__": "rf_init"}
ROOT = "case"


class Span(NamedTuple):
    id: int
    parent: int  # 0 for a root span
    name: str
    start: float
    end: float


def self_times(spans) -> dict:
    """{span id: duration minus the union of its children's intervals,
    each clipped to the parent's interval}."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children[s.id]):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.id] = (s.end - s.start) - covered
    return out


def coefficient_bits(poly) -> int:
    """Bit size of the largest coefficient of the primitive integer
    polynomial that rational root finding works on."""
    lcm = 1
    for c in poly.coeffs:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in poly.coeffs]
    g = gcd(*ints)
    return max((abs(c) // g).bit_length() for c in ints) if g else 0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.next_id = 1
        self.counts = Counter()
        self.maxima = Counter()
        self.rung = None  # bit-size rung of the current case, if any
        self._undo = []

    # -- recording -----------------------------------------------------

    def _open(self):
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else 0
        self.stack.append(sid)
        return sid, parent, self.clock()

    def _close(self, sid, parent, name, start):
        end = self.clock()
        self.stack.pop()
        self.spans.append(Span(sid, parent, name, start, end))

    def case(self, fn, *args):
        """Run one case under a root span."""
        sid, parent, start = self._open()
        try:
            return fn(*args)
        finally:
            self._close(sid, parent, ROOT, start)

    def wrap(self, name, fn, family_error=None):
        tracer = self
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            sid, parent, start = tracer._open()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if family_error is not None and isinstance(exc, family_error) \
                        and not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    tracer.counts["family.family_error"] += 1
                raise
            finally:
                tracer._close(sid, parent, name, start)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _before_polyfun_rational_roots(self, args):
        # on entry, so that a case stopped inside the call still counts
        poly = args[0]
        bits = coefficient_bits(poly)
        self.maxima["polyfun.rational_roots.max_coeff_bits"] = max(
            self.maxima["polyfun.rational_roots.max_coeff_bits"], bits)
        self.maxima["polyfun.rational_roots.max_degree"] = max(
            self.maxima["polyfun.rational_roots.max_degree"], poly.degree)
        if self.rung is not None:
            key = f"polyfun.rational_roots.max_coeff_bits.d{self.rung}"
            self.maxima[key] = max(self.maxima[key], bits)

    def _after_geometry_nested_triangle(self, result):
        if result is not None:
            self.counts["geometry.nested_triangle.found"] += 1

    # -- installing ----------------------------------------------------

    def install(self, package: str = "nncomplete"):
        """Wrap every layer function in every loaded module of the package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        family_error = getattr(sys.modules.get(package + ".family"), "FamilyError", None)
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules.get(f"{package}.{layer}")
            if home is None:
                continue
            for attr in names:
                span = f"{layer}.{SPAN_NAMES.get(attr, attr.split('.')[-1])}"
                fe = family_error if layer == "family" else None
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._set(cls, meth, original, self.wrap(span, original, fe))
                    continue
                original = getattr(home, attr)
                wrapper = self.wrap(span, original, fe)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, original, wrapper)

    def _set(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- summaries -----------------------------------------------------

    def layer_summary(self) -> dict:
        """Per span name: calls and self seconds; per layer: self seconds;
        and the total duration of the root spans."""
        selfs = self_times(self.spans)
        calls = Counter()
        self_s = Counter()
        layer_s = Counter()
        root_s = 0.0
        for s in self.spans:
            if s.name == ROOT:
                root_s += s.end - s.start
                continue
            calls[s.name] += 1
            self_s[s.name] += selfs[s.id]
            layer_s[s.name.split(".")[0]] += selfs[s.id]
        return {"calls": calls, "self_s": self_s, "layer_s": layer_s, "root_s": root_s}
