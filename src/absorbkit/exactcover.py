"""Backtracking exact cover over (edge, clique) incidence.

This is the package's truth oracle: a returned decomposition is always
re-checked by the exact multiset test in hypercore, and "none" always means
the full search space was exhausted.  A node budget (default 10**8) turns
long searches into a BudgetError instead of a silent timeout.

Column selection is fail-first: branch on the uncovered edge with the
fewest remaining options.  Option order is the (stable) construction order,
so identical instances give identical first solutions.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import BudgetError, ParameterError
from .hypercore import (AnyGraph, Decomposition, Hypergraph, MultiHypergraph,
                        clique_edges, enumerate_cliques)

DEFAULT_BUDGET = 10 ** 8


class _Budget:
    """Search nodes left; spending past the limit raises BudgetError."""

    __slots__ = ("left", "limit", "what")

    def __init__(self, nodes: int, what: str = "exact cover"):
        self.left = self.limit = nodes
        self.what = what

    def spend(self):
        if self.left <= 0:
            raise BudgetError(f"{self.what} node budget exhausted: "
                              f"{self.limit - self.left} of {self.limit} nodes")
        self.left -= 1


@dataclass
class CoverInstance:
    """Items to cover (with demand) and candidate options.

    `primary` items must be covered exactly `demand` times; `secondary`
    items at most once (they carry no demand).  Option payload is the list
    of items it covers.
    """

    demand: Counter
    options: list
    secondary: set = field(default_factory=set)

    @classmethod
    def from_graph(cls, G: AnyGraph, q: int, restrict: Optional[Iterable] = None) -> "CoverInstance":
        if q <= G.r:
            raise ParameterError(f"need q > r, got q={q}, r={G.r}")
        if isinstance(G, MultiHypergraph):
            demand = Counter(G.mult)
            simple = G.simple()
        else:
            demand = Counter({e: 1 for e in G.edges})
            simple = G
        if restrict is None:
            cliques = enumerate_cliques(simple, q)
        else:
            cliques = sorted({tuple(sorted(c)) for c in restrict})
        options = []
        for c in cliques:
            cov = list(clique_edges(c, G.r))
            if all(e in demand for e in cov):
                options.append((c, cov))
        return cls(demand=demand, options=options)


def _solve_simple(inst: CoverInstance, budget: _Budget, cap: Optional[int],
                  exclude: frozenset = frozenset()):
    """Algorithm X via dict-of-sets; supports at-most-once secondary items.

    Yields solutions as lists of option payloads (cliques).  `cap` bounds the
    number of solutions produced; `exclude` drops options by payload.
    """
    X: dict = {e: set() for e in inst.demand}
    for s in inst.secondary:
        X.setdefault(s, set())
    Y: dict = {}
    payload: dict = {}
    for idx, (c, cov) in enumerate(inst.options):
        if c in exclude:
            continue
        Y[idx] = cov
        payload[idx] = c
        for e in cov:
            X[e].add(idx)
    primary = [e for e in inst.demand]

    def select(opt: int) -> list:
        cols = []
        for j in Y[opt]:
            for i in X[j]:
                for k in Y[i]:
                    if k != j:
                        X[k].discard(i)
            cols.append((j, X.pop(j)))
        return cols

    def deselect(cols: list):
        for j, col in reversed(cols):
            X[j] = col
            for i in col:
                for k in Y[i]:
                    if k != j:
                        X[k].add(i)

    found = [0]

    def walk(solution: list):
        open_primary = [e for e in primary if e in X]
        if not open_primary:
            found[0] += 1
            yield [payload[i] for i in solution]
            return
        c = min(open_primary, key=lambda e: len(X[e]))
        for opt in sorted(X[c]):
            budget.spend()
            solution.append(opt)
            cols = select(opt)
            yield from walk(solution)
            deselect(cols)
            solution.pop()
            if cap is not None and found[0] >= cap:
                return

    yield from walk([])


def _solve_demand(inst: CoverInstance, budget: _Budget, cap: Optional[int],
                  exclude: frozenset = frozenset()):
    """Demand-based cover for multigraph targets.

    An option may be used repeatedly; per-item option floors make each
    solution multiset enumerated exactly once.
    """
    options = [(c, cov) for c, cov in inst.options if c not in exclude]
    remaining = Counter(inst.demand)
    by_item: dict = {e: [] for e in remaining}
    for idx, (c, cov) in enumerate(options):
        for e in cov:
            by_item[e].append(idx)
    found = [0]

    def usable(idx: int) -> bool:
        return all(remaining[e] > 0 for e in options[idx][1])

    def walk(solution: list, floors: dict):
        open_items = [e for e in remaining if remaining[e] > 0]
        if not open_items:
            found[0] += 1
            yield [options[i][0] for i in solution]
            return
        c = min(open_items, key=lambda e: (sum(1 for i in by_item[e] if usable(i)), e))
        floor = floors.get(c, 0)
        for idx in by_item[c]:
            if idx < floor or not usable(idx):
                continue
            budget.spend()
            for e in options[idx][1]:
                remaining[e] -= 1
            solution.append(idx)
            old = floors.get(c)
            floors[c] = idx
            yield from walk(solution, floors)
            if old is None:
                del floors[c]
            else:
                floors[c] = old
            solution.pop()
            for e in options[idx][1]:
                remaining[e] += 1
            if cap is not None and found[0] >= cap:
                return

    yield from walk([], {})


def _solutions(G: AnyGraph, q: int, restrict, budget_nodes: int, cap: Optional[int],
               exclude: frozenset = frozenset()):
    inst = CoverInstance.from_graph(G, q, restrict)
    budget = _Budget(budget_nodes)
    if isinstance(G, MultiHypergraph):
        yield from _solve_demand(inst, budget, cap, exclude)
    else:
        yield from _solve_simple(inst, budget, cap, exclude)


def find_decomposition(G: AnyGraph, q: int, restrict: Optional[Iterable] = None,
                       budget: int = DEFAULT_BUDGET) -> Optional[Decomposition]:
    """First decomposition in search order, or None after a full search."""
    for sol in _solutions(G, q, restrict, budget, cap=1):
        return Decomposition(G, sol, q)
    return None


def count_decompositions(G: AnyGraph, q: int, cap: int = 10 ** 6,
                         budget: int = DEFAULT_BUDGET) -> tuple:
    """(count, overflowed): exact count if < cap, else (cap, True)."""
    n = 0
    for _ in _solutions(G, q, None, budget, cap=cap):
        n += 1
    return n, n >= cap


def enumerate_decompositions(G: AnyGraph, q: int, cap: Optional[int] = None,
                             budget: int = DEFAULT_BUDGET) -> list:
    """All decompositions (as clique lists), up to cap."""
    return [sorted(sol) for sol in _solutions(G, q, None, budget, cap=cap)]


def find_two_disjoint_decompositions(G: AnyGraph, q: int, budget: int = DEFAULT_BUDGET
                                     ) -> Optional[tuple]:
    """Two decompositions sharing no clique, or None (exhaustive).

    Searches the first coordinate exhaustively; for each candidate, a nested
    search runs with the candidate's cliques excluded.
    """
    shared = _Budget(budget)
    inst = CoverInstance.from_graph(G, q)
    solver = _solve_demand if isinstance(G, MultiHypergraph) else _solve_simple
    for sol1 in solver(inst, shared, None):
        for sol2 in solver(inst, shared, 1, exclude=frozenset(sol1)):
            return Decomposition(G, sol1, q), Decomposition(G, sol2, q)
    return None


def solve_cover(demand: Iterable, options: Sequence, secondary: Iterable = (),
                budget: int = DEFAULT_BUDGET) -> Optional[list]:
    """Generic exact cover: cover every demand item exactly once using
    options (payload, covered-items), touching each secondary item at most
    once.  Returns chosen payloads or None (exhaustive)."""
    inst = CoverInstance(
        demand=Counter({it: 1 for it in demand}),
        options=[(payload, list(cov)) for payload, cov in options],
        secondary=set(secondary),
    )
    known = set(inst.demand) | inst.secondary
    for payload, cov in inst.options:
        bad = [it for it in cov if it not in known]
        if bad:
            raise ParameterError(f"option {payload!r} covers undeclared items {bad!r}")
    b = _Budget(budget)
    for sol in _solve_simple(inst, b, cap=1):
        return sol
    return None


def naive_decomposition_count(G: AnyGraph, q: int) -> int:
    """Subset-enumeration oracle for small instances; test use only."""
    if isinstance(G, MultiHypergraph):
        raise ParameterError("naive oracle covers simple targets only")
    inst = CoverInstance.from_graph(G, q)
    want = Counter(inst.demand)
    opts = inst.options
    count = 0
    for mask in range(1 << len(opts)):
        got: Counter = Counter()
        ok = True
        for i in range(len(opts)):
            if mask >> i & 1:
                for e in opts[i][1]:
                    got[e] += 1
                    if got[e] > 1:
                        ok = False
                        break
            if not ok:
                break
        if ok and got == want:
            count += 1
    return count
