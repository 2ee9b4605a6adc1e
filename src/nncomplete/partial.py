"""Partial matrices, their text format, and the combinatorial
completability conditions (zero row/column property, cycle property,
r x r minors zero-consistency).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from itertools import combinations

from .linalg import ExactMatrix, rank, to_fraction


class ParseError(ValueError):
    pass


class Pattern(namedtuple("Pattern", "p q observed")):
    """Observation pattern E, a subset of [p] x [q] (1-based)."""

    __slots__ = ()

    def __new__(cls, p: int, q: int, observed: frozenset):
        if p < 1 or q < 1:
            raise ValueError("matrix must have at least one row and one column")
        for (i, j) in observed:
            if not (1 <= i <= p and 1 <= j <= q):
                raise ValueError(f"observed position ({i},{j}) out of range")
        return super().__new__(cls, p, q, observed)

    @property
    def missing(self) -> frozenset:
        return frozenset(
            (i, j)
            for i in range(1, self.p + 1)
            for j in range(1, self.q + 1)
            if (i, j) not in self.observed
        )

    def is_full(self) -> bool:
        return len(self.observed) == self.p * self.q


class PartialMatrix:
    """A pattern together with an exact rational value per observed entry.

    Values are ints, Fractions or strings; like ExactMatrix it refuses a
    binary float instead of reading its exact value."""

    def __init__(self, pattern: Pattern, values: dict):
        if set(values) != set(pattern.observed):
            raise ValueError("values must be defined exactly on the observed set")
        self.pattern = pattern
        self.values = {k: to_fraction(v) for k, v in values.items()}

    @property
    def p(self) -> int:
        return self.pattern.p

    @property
    def q(self) -> int:
        return self.pattern.q

    def is_observed(self, i: int, j: int) -> bool:
        return (i, j) in self.pattern.observed

    def entry(self, i: int, j: int) -> Fraction:
        return self.values[(i, j)]

    def get(self, i, j, default=None):
        return self.values.get((i, j), default)

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for v in self.values.values())

    @classmethod
    def from_rows(cls, rows) -> "PartialMatrix":
        """Build from nested lists where ``None`` marks a missing entry."""
        p = len(rows)
        q = len(rows[0]) if rows else 0  # Pattern refuses an empty shape
        observed = set()
        values = {}
        for i, row in enumerate(rows, start=1):
            if len(row) != q:
                raise ValueError("ragged rows")
            for j, x in enumerate(row, start=1):
                if x is None:
                    continue
                observed.add((i, j))
                values[(i, j)] = x
        return cls(Pattern(p, q, frozenset(observed)), values)

    @classmethod
    def full(cls, m: ExactMatrix) -> "PartialMatrix":
        return cls.from_rows(m.to_lists())

    def to_full_matrix(self) -> ExactMatrix:
        if not self.pattern.is_full():
            raise ValueError("matrix has missing entries")
        return ExactMatrix(
            [[self.values[(i, j)] for j in range(1, self.q + 1)] for i in range(1, self.p + 1)]
        )

    def observed_submatrix(self, rows, cols) -> ExactMatrix:
        """Fully observed submatrix with 1-based index lists; raises if a
        selected entry is missing."""
        for i in rows:
            for j in cols:
                if not self.is_observed(i, j):
                    raise ValueError(f"entry ({i},{j}) is not observed")
        return ExactMatrix([[self.values[(i, j)] for j in cols] for i in rows])

    def complete_with(self, fills: dict) -> ExactMatrix:
        """Full matrix using observed values plus ``fills`` for the holes."""
        rows = []
        for i in range(1, self.p + 1):
            row = []
            for j in range(1, self.q + 1):
                if self.is_observed(i, j):
                    row.append(self.values[(i, j)])
                else:
                    row.append(fills[(i, j)])
            rows.append(row)
        return ExactMatrix(rows)

    def agrees_with(self, m: ExactMatrix) -> bool:
        if (m.p, m.q) != (self.p, self.q):
            return False
        return all(m.entry(i, j) == v for (i, j), v in self.values.items())

    def transpose(self) -> "PartialMatrix":
        return PartialMatrix(
            Pattern(self.q, self.p, frozenset((j, i) for (i, j) in self.pattern.observed)),
            {(j, i): v for (i, j), v in self.values.items()},
        )

    def __eq__(self, other):
        return (
            isinstance(other, PartialMatrix)
            and self.pattern == other.pattern
            and self.values == other.values
        )

    def __repr__(self):
        return f"PartialMatrix({serialize_partial(self)!r})"


# ---------------------------------------------------------------------------
# text format


def parse_partial(text: str) -> PartialMatrix:
    """Parse the whitespace-separated matrix text format.

    One matrix row per line; tokens are integers, ``p/q`` rationals, finite
    decimals (converted exactly), or ``?`` for a missing entry.  Exponents
    are rejected: ``1e10000000`` would build a 33-million-bit integer.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty input")
    rows = []
    width = None
    for lineno, ln in enumerate(lines, start=1):
        tokens = ln.split()
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise ParseError(f"ragged row at line {lineno}")
        row = []
        for tok in tokens:
            if tok == "?":
                row.append(None)
                continue
            if "e" in tok.lower():
                raise ParseError(f"exponent in token {tok!r} at line {lineno}")
            try:
                row.append(Fraction(tok))
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in token {tok!r} at line {lineno}")
            except ValueError:
                raise ParseError(f"malformed token {tok!r} at line {lineno}")
        rows.append(row)
    return PartialMatrix.from_rows(rows)


def serialize_partial(m: PartialMatrix) -> str:
    """Inverse of parse_partial; rationals printed as ``p/q``."""
    lines = []
    for i in range(1, m.p + 1):
        toks = []
        for j in range(1, m.q + 1):
            toks.append(str(m.entry(i, j)) if m.is_observed(i, j) else "?")
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


def serialize_matrix(m: ExactMatrix) -> str:
    return serialize_partial(PartialMatrix.full(m))


# ---------------------------------------------------------------------------
# support graph


class SupportGraph(namedtuple("SupportGraph", "p q edges nonzero_edges")):
    """Bipartite graph of a pattern: left = rows, right = columns, one edge
    per observed position.  ``nonzero_edges`` keeps only edges whose value
    is nonzero (the graph used for uniqueness of rank-1 completions)."""

    __slots__ = ()

    def components(self):
        """Connected components of the nonzero edges as sets of vertices
        ('r', i) / ('c', j).  All p + q vertices are included, isolated
        ones as singletons."""
        parent = {}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        def union(u, v):
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv

        for i in range(1, self.p + 1):
            parent[("r", i)] = ("r", i)
        for j in range(1, self.q + 1):
            parent[("c", j)] = ("c", j)
        for (i, j) in self.nonzero_edges:
            union(("r", i), ("c", j))
        comps = {}
        for v in parent:
            comps.setdefault(find(v), set()).add(v)
        return list(comps.values())

    def nonzero_is_connected(self) -> bool:
        return len(self.components()) == 1


def support_graph(m: PartialMatrix) -> SupportGraph:
    edges = frozenset(m.pattern.observed)
    nz = frozenset((i, j) for (i, j) in edges if m.entry(i, j) != 0)
    return SupportGraph(m.p, m.q, edges, nz)


# ---------------------------------------------------------------------------
# combinatorial conditions


class ZeroLineFlags(namedtuple("ZeroLineFlags", "row column")):
    __slots__ = ()

    def either(self) -> bool:
        return self.row or self.column


def nonzero_lines(m: PartialMatrix):
    """(rows, columns) that hold a nonzero observed entry."""
    nonzero = [pos for pos, v in m.values.items() if v != 0]
    return {i for i, _ in nonzero}, {j for _, j in nonzero}


def zero_line_property(m: PartialMatrix) -> ZeroLineFlags:
    """Zero row / zero column property flags.

    Row flag: every observed zero entry has all other observed entries in
    its row equal to zero.  Column flag analogous.
    """
    rows, cols = nonzero_lines(m)
    zeros = [pos for pos, v in m.values.items() if v == 0]
    return ZeroLineFlags(all(i not in rows for i, _ in zeros), all(j not in cols for _, j in zeros))


def zero_entries_line_consistent(m: PartialMatrix) -> bool:
    """Per-entry form of the zero row/column condition: every observed
    zero has all other observed entries of its row zero, or all other
    observed entries of its column zero.  This is exactly 1x1 minors
    zero-consistency, and exactly what rank-1 completability needs."""
    rows, cols = nonzero_lines(m)
    return not any(v == 0 and i in rows and j in cols for (i, j), v in m.values.items())


def multiplicative_potentials(m: PartialMatrix, graph: SupportGraph):
    """Row/column multipliers from a spanning forest of the nonzero graph.

    Returns (row_pot, col_pot, consistent): potentials satisfy
    row_pot[i] * col_pot[j] == m_ij on every nonzero edge iff consistent.
    Each component is rooted at its smallest vertex with potential 1.
    """
    adj = {}
    for (i, j) in graph.nonzero_edges:
        adj.setdefault(("r", i), []).append((("c", j), m.entry(i, j)))
        adj.setdefault(("c", j), []).append((("r", i), m.entry(i, j)))
    row_pot, col_pot = {}, {}
    consistent = True
    for comp in graph.components():
        root = min(comp)
        pot = {root: Fraction(1)}
        stack = [root]
        while stack:
            v = stack.pop()
            for (w, val) in sorted(adj.get(v, []), key=lambda e: e[0]):
                if w not in pot:
                    pot[w] = val / pot[v]
                    stack.append(w)
        for v, x in pot.items():
            (row_pot if v[0] == "r" else col_pot)[v[1]] = x
    # verify every nonzero edge (covers non-tree edges exactly)
    for (i, j) in graph.nonzero_edges:
        if row_pot[i] * col_pot[j] != m.entry(i, j):
            consistent = False
            break
    return row_pot, col_pot, consistent


def _zero_edge_digraph_has_cycle(m: PartialMatrix, graph: SupportGraph) -> bool:
    """Detect a cycle of the support graph whose zero edges all fall in one
    alternation class of the cycle equation.

    Condense the nonzero graph into components; each zero edge (i, j) is a
    directed arc from the component of row i to the component of column j.
    Such a bad cycle exists iff this digraph has a directed cycle (a
    self-loop corresponds to a cycle with a single zero edge).
    """
    comp_of = {}
    for idx, comp in enumerate(graph.components()):
        for v in comp:
            comp_of[v] = idx
    arcs = {}
    for (i, j) in graph.edges - graph.nonzero_edges:
        arcs.setdefault(comp_of[("r", i)], set()).add(comp_of[("c", j)])
    # the sorter reads each arc backwards, which keeps every cycle a cycle
    try:
        TopologicalSorter(arcs).prepare()
    except CycleError:
        return True
    return False


def cycle_property(m: PartialMatrix) -> bool:
    """True iff the multiplicative cycle equation holds on every cycle of
    the support graph.

    Zero-free cycles are checked by spanning-forest potentials on the
    nonzero graph; cycles through zero entries reduce to acyclicity of the
    component condensation digraph (see _zero_edge_digraph_has_cycle).
    """
    graph = support_graph(m)
    _, _, consistent = multiplicative_potentials(m, graph)
    if not consistent:
        return False
    return not _zero_edge_digraph_has_cycle(m, graph)


def minors_zero_consistent(m: PartialMatrix, r: int) -> bool:
    """r x r minors zero-consistency on fully observed submatrices.

    For every fully observed r x r submatrix M_{I,K} of rank <= r-1, either
    every fully observed r x r submatrix of M_{I,:} is singular or every
    fully observed r x r submatrix of M_{:,K} is singular.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if r > m.p or r > m.q:
        return True

    def fully_observed(rows, cols) -> bool:
        return all(m.is_observed(i, j) for i in rows for j in cols)

    all_rows = range(1, m.p + 1)
    all_cols = range(1, m.q + 1)

    def rows_rank_below(rows) -> bool:
        # Every fully observed r x r submatrix using these rows is singular.
        return all(
            rank(m.observed_submatrix(rows, cols)) < r
            for cols in combinations(all_cols, r)
            if fully_observed(rows, cols)
        )

    def cols_rank_below(cols) -> bool:
        return all(
            rank(m.observed_submatrix(rows, cols)) < r
            for rows in combinations(all_rows, r)
            if fully_observed(rows, cols)
        )

    for I in combinations(all_rows, r):
        for K in combinations(all_cols, r):
            if not fully_observed(I, K):
                continue
            if rank(m.observed_submatrix(I, K)) == r:
                continue
            if not rows_rank_below(I) and not cols_rank_below(K):
                return False
    return True
