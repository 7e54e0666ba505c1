"""Exact cover over (item, option) incidence, searched on an explicit stack.

This is the package's truth oracle: a returned decomposition is always
re-checked by the exact multiset test in hypercore, and "none" always means
the full search space was exhausted.  A node budget (DEFAULT_BUDGET, 10**7
nodes: about a minute and a half of search on K_16) turns long searches
into a BudgetError instead of a silent timeout.

The engine is Knuth's Algorithm X (TAOCP 7.2.2.1) on integer item ids.
Each item keeps a static list of the options covering it, in ascending
option index; a bytearray marks the options killed by the partial solution
and a list holds each item's live option count.  Covering an item adds a
constant larger than any count to its entry, so the column choice skips
it, and a count of uncovered primary items detects a solution without a
scan.  The search path lives on explicit stacks, so its depth is bounded by
memory, not by the interpreter's recursion limit.

Column selection is fail-first: branch on the uncovered primary item with
the fewest live options, the first in item order on ties.  When every item
lies on fewer than 128 options (K_n up to n = 129), the constant is 128,
every entry fits a byte, and the choice is a bytearray copy of the counts
searched with `find(v)` for v = 0, 1, ...: the first hit is the least count
at its first item.  Wider instances take `min` and `index` on the list.
Options are tried in construction order, so identical instances give
identical first solutions.

Triangle instances (r = 2 and q = 3, multigraphs too) build their rows
from a pair-id table, pid[a][b] = the item id of edge ab, not from tuple
keys; the items, rows and columns are those of the {edge: id} lookup that
every other instance keeps.

Instances whose items are all covered at most once can be pruned first:
`_refute` runs failed-literal probing to a fixpoint and returns the options
that lie in no solution, which `_search` then takes as `exclude`.
Completion through reserves (`nibble.complete_with_reserves`) uses it.
"""
from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .errors import BudgetError, ParameterError
from .hypercore import AnyGraph, Decomposition, MultiHypergraph, enumerate_cliques

DEFAULT_BUDGET = 10 ** 7


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


class CoverInstance:
    """Items numbered 0..len(items)-1 and options as tuples of item ids.

    The first len(demand) items are primary: item i must be covered exactly
    demand[i] times.  The rest are secondary: covered at most once.  Option
    k reports payloads[k] in a solution and covers the items rows[k];
    cols[i] lists the options covering item i in ascending order.
    """

    __slots__ = ("items", "demand", "payloads", "rows", "cols")

    def __init__(self, items: list, demand: list, payloads: list, rows: list):
        self.items = items
        self.demand = demand
        self.payloads = payloads
        self.rows = rows
        cols: list = [[] for _ in items]
        for k, row in enumerate(rows):
            for i in row:
                cols[i].append(k)
        self.cols = cols

    @classmethod
    def from_graph(cls, G: AnyGraph, q: int) -> "CoverInstance":
        if q <= G.r:
            raise ParameterError(f"need q > r, got q={q}, r={G.r}")
        if isinstance(G, MultiHypergraph):
            # sorted: ties in the column choice go to the smallest edge
            items = sorted(G.mult)
            demand = [G.mult[e] for e in items]
            simple = G.simple()
        else:
            items = list(G.edges)
            demand = [1] * len(items)
            simple = G
        r = G.r
        # every clique of the support has all its r-subsets among the items
        cliques = enumerate_cliques(simple, q)
        if r == 2 and q == 3:
            # pair-id table: pid[a][b] is the item id of the edge (a, b)
            pid: list = [{} for _ in range(G.n)]
            for i, (a, b) in enumerate(items):
                pid[a][b] = i
            rows = [(pid[a][b], pid[a][c], pid[b][c]) for a, b, c in cliques]
        else:
            ids = {e: i for i, e in enumerate(items)}
            rows = [tuple([ids[e] for e in combinations(c, r)]) for c in cliques]
        return cls(items, demand, cliques, rows)


def _search(inst: CoverInstance, budget: _Budget, cap: Optional[int],
            exclude: Iterable[int] = ()):
    """Algorithm X with demands and at-most-once secondary items.

    Yields solutions as lists of option ids.  An option stays live while
    every item it covers has demand left, so it may be used repeatedly
    where demands exceed 1; per-item option floors make each solution
    multiset enumerated exactly once.  `cap` bounds the number of solutions
    produced; `exclude` lists option ids that may not be used.
    """
    rows, cols = inst.rows, inst.cols
    npri = len(inst.demand)
    left = inst.demand + [1] * (len(cols) - npri)
    # live option counts; covering an item raises its count by `big`
    size = [len(col) for col in cols]
    # narrow: open counts stay below 128, raised ones below 256, so all fit a byte
    narrow = max(size, default=0) < 128
    big = 128 if narrow else len(rows) + 1
    dead = bytearray(len(rows))
    for k in exclude:
        if not dead[k]:
            dead[k] = 1
            for i in rows[k]:
                size[i] -= 1
    if not npri:
        yield []
        return
    spend = budget.spend
    floor = [0] * npri        # the least option a branch on item i may use
    killed: list = []         # options killed by the partial solution, in order
    marks: list = []          # len(killed) before each chosen option
    path: list = []           # the chosen option per level
    saved: list = []          # floor[c] before each chosen option
    frames: list = []         # the branch item per level
    poss: list = []           # the next position in its option list
    found = 0
    unmet = npri              # primary items not yet covered

    while True:
        if unmet:
            # fail-first: the least live count, the first item on ties;
            # in bytes, the first hit of v = 0, 1, ... is that item
            if narrow:
                find = bytearray(size).find
                v = 0
                c = find(0, 0, npri)
                while c < 0:
                    v += 1
                    c = find(v, 0, npri)
            else:
                c = size.index(min(size[:npri]))
            frames.append(c)
            poss.append(bisect_left(cols[c], floor[c]))
        else:
            found += 1
            yield path[:]
            if cap is not None and found >= cap:
                return
            # item 0's column, past its end: the loop below backtracks
            frames.append(0)
            poss.append(len(cols[0]))
        while True:
            c = frames[-1]
            col = cols[c]
            pos = poss[-1]
            end = len(col)
            while pos < end and dead[col[pos]]:
                pos += 1
            if pos < end:
                break
            frames.pop()
            poss.pop()
            if not frames:
                return
            # undo the choice that led to the exhausted frame
            floor[frames[-1]] = saved.pop()
            mark = marks.pop()
            for k in killed[mark:]:
                dead[k] = 0
                for i in rows[k]:
                    size[i] += 1
            del killed[mark:]
            for i in rows[path.pop()]:
                if not left[i]:
                    size[i] -= big
                    if i < npri:
                        unmet += 1
                left[i] += 1
        opt = col[pos]
        poss[-1] = pos + 1
        spend()
        marks.append(len(killed))
        path.append(opt)
        saved.append(floor[c])
        floor[c] = opt
        for j in rows[opt]:
            left[j] -= 1
            if not left[j]:
                size[j] += big
                if j < npri:
                    unmet -= 1
                for k in cols[j]:
                    if not dead[k]:
                        dead[k] = 1
                        killed.append(k)
                        for i in rows[k]:
                            size[i] -= 1


def _refute(inst: CoverInstance) -> Optional[list]:
    """Failed-literal probing on an instance whose items are all covered at
    most once (every demand is 1).

    Choosing an option kills every option that shares an item with it; a
    primary item left with one live option forces that option.  An option
    is refuted when this unit propagation kills a primary item's last
    option or an option already chosen.  A refuted option lies in no
    solution, so refuting to a fixpoint keeps every solution.  Returns the
    refuted option ids, or None when a primary item loses every option to
    refutation, which certifies that the instance has no solution.  Option
    sets are int bitmasks over option ids.
    """
    rows, cols = inst.rows, inst.cols
    npri = len(inst.demand)
    by_item = [sum(1 << k for k in col) for col in cols]
    conflict = []
    for k, row in enumerate(rows):
        m = 0
        for i in row:
            m |= by_item[i]
        conflict.append(m & ~(1 << k))

    def fails(k: int, alive: int) -> bool:
        chosen = dead = 0
        stack = [k]
        while stack:
            j = stack.pop()
            bit = 1 << j
            if dead & bit:
                return True
            if chosen & bit:
                continue
            chosen |= bit
            kill = conflict[j] & alive & ~dead
            if kill & chosen:
                return True
            dead |= kill
            hit = set()
            while kill:
                low = kill & -kill
                hit.update(i for i in rows[low.bit_length() - 1] if i < npri)
                kill ^= low
            for i in hit:
                left = by_item[i] & alive & ~dead
                if not left:
                    return True
                if not left & (left - 1):
                    stack.append(left.bit_length() - 1)
        return False

    alive = (1 << len(rows)) - 1
    refuted = []
    changed = True
    while changed:
        changed = False
        for k in range(len(rows)):
            if alive >> k & 1 and fails(k, alive):
                alive &= ~(1 << k)
                refuted.append(k)
                changed = True
                if any(not by_item[i] & alive for i in rows[k] if i < npri):
                    return None
    return refuted


def _solutions(G: AnyGraph, q: int, budget_nodes: int, cap: Optional[int]):
    inst = CoverInstance.from_graph(G, q)
    payloads = inst.payloads
    for sol in _search(inst, _Budget(budget_nodes), cap):
        yield [payloads[k] for k in sol]


def find_decomposition(G: AnyGraph, q: int, budget: int = DEFAULT_BUDGET
                       ) -> Optional[Decomposition]:
    """First decomposition in search order, or None after a full search."""
    for sol in _solutions(G, q, budget, cap=1):
        return Decomposition(G, sol, q)
    return None


def count_decompositions(G: AnyGraph, q: int, cap: int = 10 ** 6,
                         budget: int = DEFAULT_BUDGET) -> tuple:
    """(count, overflowed): exact count if < cap, else (cap, True).
    A cap below 1 is a ParameterError."""
    if cap < 1:
        raise ParameterError(f"cap must be at least 1, got {cap}")
    inst = CoverInstance.from_graph(G, q)
    n = sum(1 for _ in _search(inst, _Budget(budget), cap))
    return n, n >= cap


def enumerate_decompositions(G: AnyGraph, q: int, cap: Optional[int] = None,
                             budget: int = DEFAULT_BUDGET) -> list:
    """All decompositions (as clique lists), up to cap (None: no cap; below
    1: ParameterError)."""
    if cap is not None and cap < 1:
        raise ParameterError(f"cap must be at least 1, got {cap}")
    return [sorted(sol) for sol in _solutions(G, q, budget, cap=cap)]


def find_two_disjoint_decompositions(G: AnyGraph, q: int, budget: int = DEFAULT_BUDGET
                                     ) -> Optional[tuple]:
    """Two decompositions sharing no clique, or None (exhaustive).

    Searches the first coordinate exhaustively; for each candidate, a nested
    search on the same instance runs with the candidate's cliques killed.
    """
    shared = _Budget(budget)
    inst = CoverInstance.from_graph(G, q)
    payloads = inst.payloads
    for sol1 in _search(inst, shared, None):
        for sol2 in _search(inst, shared, 1, exclude=sol1):
            return (Decomposition(G, [payloads[k] for k in sol1], q),
                    Decomposition(G, [payloads[k] for k in sol2], q))
    return None


def solve_cover(demand: Iterable, options: Sequence, secondary: Iterable = (),
                budget: int = DEFAULT_BUDGET) -> Optional[list]:
    """Generic exact cover: cover every demand item exactly once using
    options (payload, covered-items), touching each secondary item at most
    once.  Returns chosen payloads or None (exhaustive)."""
    ids = {it: i for i, it in enumerate(dict.fromkeys(demand))}
    npri = len(ids)
    for it in secondary:
        ids.setdefault(it, len(ids))
    payloads, rows = [], []
    for payload, cov in options:
        cov = list(cov)
        bad = [it for it in cov if it not in ids]
        if bad:
            raise ParameterError(f"option {payload!r} covers undeclared items {bad!r}")
        if len(set(cov)) < len(cov):
            raise ParameterError(f"option {payload!r} covers an item twice")
        payloads.append(payload)
        rows.append(tuple(ids[it] for it in cov))
    inst = CoverInstance(list(ids), [1] * npri, payloads, rows)
    for sol in _search(inst, _Budget(budget), cap=1):
        return [payloads[k] for k in sol]
    return None

