"""Exact cover over (item, option) incidence, searched on an explicit stack.

This is the package's truth oracle: a returned decomposition is always
re-checked by the exact multiset test in hypercore, and "none" always means
the full search space was exhausted.  A node budget (DEFAULT_BUDGET, 10**7
nodes; the exhaustive search of K_16 takes 1,063,622 nodes, about 10 s on
2 cores with Python 3.11) turns long searches into a BudgetError instead of
a silent timeout; a negative budget is a ParameterError.

Both engines run Knuth's Algorithm X (TAOCP 7.2.2.1) on integer item ids,
with no recursion.  A covered item's live count is raised above every open
count, so the fail-first column choice (the fewest live options, the first
item on ties) skips it.  `_search` takes `min` and `index` over its count
list at every node.  `_triangle_search` does the same when some pair lies
on 128 triangles or more; below that its counts fit a byte, live in one
bytearray updated in place, and the choice searches them with `find(v)`
for ascending v, from a lower bound on the least open count.  Options are
tried in ascending option id.

`_search` takes a `CoverInstance`: static option lists per item, a
bytearray of options killed by the partial solution, demands with per-item
floors, and secondary items covered at most once.  `_triangle_search`
decomposes a simple graph into triangles (r = 2, q = 3) without building
options: a vertex's open partners are an int bitmask, and the live
triangles through a pair are the common open partners of its ends.  It
makes the choices `_search` makes on `CoverInstance.from_graph(G, 3)`: the
same solutions in the same order, for the same nodes spent.  A multigraph
runs `_search`, which alone keeps demands.

Both engines yield solutions as lists of payloads: cliques for
`_triangle_search`, `CoverInstance.payloads` for `_search`.  `_engine(G, q)`
hides the choice: one search for the q-clique decompositions of G that
takes and yields cliques.

Instances whose items are all covered at most once can be pruned first:
`_refute` runs failed-literal probing to a fixpoint and returns the options
that lie in no solution, as option ids, which `_search` then takes as
`exclude`.  Completion through reserves (`nibble.complete_with_reserves`)
uses it.
"""
from __future__ import annotations

from bisect import bisect_left
from functools import partial
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .errors import BudgetError, ParameterError
from .hypercore import AnyGraph, Decomposition, Hypergraph, MultiHypergraph, enumerate_cliques

DEFAULT_BUDGET = 10 ** 7


class _Budget:
    """Search nodes left; spending past the limit raises BudgetError.  A
    negative limit is a ParameterError; a limit of 0 allows no node."""

    __slots__ = ("left", "limit", "what")

    def __init__(self, nodes: int, what: str = "exact cover"):
        if nodes < 0:
            raise ParameterError(f"{what} node budget must be at least 0, got {nodes}")
        self.left = self.limit = nodes
        self.what = what

    def spend(self):
        if self.left <= 0:
            raise BudgetError(f"{self.what} node budget exhausted: "
                              f"{self.limit - self.left} of {self.limit} nodes")
        self.left -= 1


class CoverInstance:
    """Items numbered 0..nitems-1 and options as tuples of item ids.

    The first len(demand) items are primary: item i must be covered exactly
    demand[i] times.  The rest are secondary: covered at most once.  Option
    k reports payloads[k] in a solution and covers the items rows[k];
    cols[i] lists the options covering item i in ascending order.
    """

    __slots__ = ("demand", "payloads", "rows", "cols")

    def __init__(self, nitems: int, demand: list, payloads: list, rows: list):
        self.demand = demand
        self.payloads = payloads
        self.rows = rows
        cols: list = [[] for _ in range(nitems)]
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
        else:
            items, demand = list(G.edges), [1] * G.m
        # every clique of the support has all its r-subsets among the items
        cliques = enumerate_cliques(G, q)
        ids = {e: i for i, e in enumerate(items)}
        rows = [tuple([ids[e] for e in combinations(c, G.r)]) for c in cliques]
        return cls(len(items), demand, cliques, rows)


def _search(inst: CoverInstance, budget: _Budget, cap: Optional[int],
            exclude: Iterable[int] = ()):
    """Algorithm X with demands and at-most-once secondary items.

    Yields solutions as lists of option payloads.  An option stays live
    while every item it covers has demand left, so it may be used
    repeatedly where demands exceed 1; per-item option floors make each
    solution multiset enumerated exactly once.  `cap` bounds the number of
    solutions produced; `exclude` lists option ids that may not be used.
    """
    rows, cols, payloads = inst.rows, inst.cols, inst.payloads
    npri = len(inst.demand)
    left = inst.demand + [1] * (len(cols) - npri)
    # live option counts; covering an item raises its count by `big`
    size = [len(col) for col in cols]
    big = len(rows) + 1
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
            # fail-first: the least live count, the first item on ties
            c = size.index(min(size[:npri]))
            frames.append(c)
            poss.append(bisect_left(cols[c], floor[c]))
        else:
            found += 1
            yield [payloads[k] for k in path]
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


def _triangle_search(G: Hypergraph, budget: _Budget, cap: Optional[int],
                     exclude: Iterable[tuple] = ()):
    """`_search` on `CoverInstance.from_graph(G, 3)` for a simple graph
    (r = 2), without building the triangle options: the same solutions in
    the same order, for the same nodes spent.

    Yields solutions as lists of triangles, sorted vertex triples.  nbr[w]
    is the bitmask of w's partners whose pair is open, so the live
    triangles through an open pair uv are the third vertices in
    nbr[u] & nbr[v] & allow[uv], where allow clears the third vertices of
    the `exclude` triangles.  A pair's options ascend in option id as their
    third vertex ascends, so frame positions are third vertices.  A chosen
    triangle closes its three pairs and kills the live triangles through
    them; the undo, in reverse order, reopens them and recomputes those
    triangles from the restored masks.  No floors are kept: with demand 1,
    `_search` raises a branch item's floor only while the item is covered
    and reads it only while it is open, so every frame starts at 0.

    When every count fits a byte the counts live in one bytearray, updated
    in place, and the column choice scans it with `find(v)` from a lower
    bound `lo` on the least open count instead of from 0.  The bound holds
    because choosing triangle abx closes only pairs among ab, ax and bx:
    a, b and x each lose at most 2 partners and every other vertex keeps
    its mask, so an open pair's count, popcount(nbr[u] & nbr[v] &
    allow[uv]) with allow fixed, drops by at most 2.  At a choice through
    branch pair c, size[c] is the least open count of the frame's state,
    which an undo restores exactly, so the next choice may start at
    size[c] - 2.  The scan still finds the least count and, on ties, the
    first pair: the same choices as from 0.
    """
    items = list(G.edges)
    if not items:
        yield []
        return
    n = G.n
    nbr = [0] * n
    pid: list = [{} for _ in range(n)]   # pid[a][b]: the item id of pair ab
    for i, (a, b) in enumerate(items):
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
        pid[a][b] = pid[b][a] = i
    allow = [-1] * len(items)
    for a, b, c in exclude:
        allow[pid[a][b]] &= ~(1 << c)
        allow[pid[a][c]] &= ~(1 << b)
        allow[pid[b][c]] &= ~(1 << a)
    size = [(nbr[a] & nbr[b] & allow[i]).bit_count() for i, (a, b) in enumerate(items)]
    # a covered pair's count is set to `big`, above any live count: a pair
    # lies on at most n - 2 triangles
    narrow = max(size) < 128
    big = 128 if narrow else n
    if narrow:
        size = bytearray(size)
        find = size.find
    lo = 0                     # no open count lies below lo
    spend = budget.spend
    path: list = []            # the chosen triangle per level
    chosen: list = []          # its three pair ids, in cover order
    frames: list = []          # the branch pair per level
    poss: list = []            # the next third vertex it may use
    found = 0
    unmet = len(items)         # open pairs

    while True:
        if unmet:
            if narrow:
                c = find(lo)
                while c < 0:
                    lo += 1
                    c = find(lo)
            else:
                c = size.index(min(size))
            frames.append(c)
            poss.append(0)
        else:
            found += 1
            yield path[:]
            if cap is not None and found >= cap:
                return
            # no third vertex lies at or past n: the loop below backtracks
            frames.append(0)
            poss.append(n)
        while True:
            c = frames[-1]
            a, b = items[c]
            live = (nbr[a] & nbr[b] & allow[c]) >> poss[-1]
            if live:
                break
            frames.pop()
            poss.pop()
            if not frames:
                return
            # undo the choice that led to the exhausted frame
            path.pop()
            unmet += 3
            for j in reversed(chosen.pop()):
                u, v = items[j]
                nbr[u] |= 1 << v
                nbr[v] |= 1 << u
                live = nbr[u] & nbr[v] & allow[j]
                size[j] = live.bit_count()
                pu, pv = pid[u], pid[v]
                while live:
                    x = live.bit_length() - 1
                    size[pu[x]] += 1
                    size[pv[x]] += 1
                    live ^= 1 << x
        x = poss[-1] + (live & -live).bit_length() - 1
        poss[-1] = x + 1
        spend()
        lo = size[c] - 2 if size[c] > 2 else 0
        path.append((x, a, b) if x < a else (a, x, b) if x < b else (a, b, x))
        row = (c, pid[a][x], pid[b][x])
        chosen.append(row)
        unmet -= 3
        for j in row:
            u, v = items[j]
            nbr[u] ^= 1 << v
            nbr[v] ^= 1 << u
            live = nbr[u] & nbr[v] & allow[j]
            size[j] = big
            pu, pv = pid[u], pid[v]
            while live:
                x = live.bit_length() - 1
                size[pu[x]] -= 1
                size[pv[x]] -= 1
                live ^= 1 << x


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


def _engine(G: AnyGraph, q: int):
    """The search for the q-clique decompositions of G: it takes (budget,
    cap, exclude), with `exclude` a list of cliques, and yields solutions
    as lists of cliques.  A simple graph's triangles run `_triangle_search`,
    all else `_search` on `CoverInstance.from_graph(G, q)`."""
    if isinstance(G, Hypergraph) and (G.r, q) == (2, 3):
        return partial(_triangle_search, G)
    inst = CoverInstance.from_graph(G, q)
    ids = {c: k for k, c in enumerate(inst.payloads)}

    def search(budget: _Budget, cap: Optional[int], exclude: Iterable[tuple] = ()):
        return _search(inst, budget, cap, [ids[c] for c in exclude])
    return search


def find_decomposition(G: AnyGraph, q: int, budget: int = DEFAULT_BUDGET
                       ) -> Optional[Decomposition]:
    """First decomposition in search order, or None after a full search."""
    for sol in _engine(G, q)(_Budget(budget), 1):
        return Decomposition(G, sol, q)
    return None


def count_decompositions(G: AnyGraph, q: int, cap: int = 10 ** 6,
                         budget: int = DEFAULT_BUDGET) -> tuple:
    """(count, overflowed): exact count if < cap, else (cap, True).
    A cap below 1 is a ParameterError."""
    if cap < 1:
        raise ParameterError(f"cap must be at least 1, got {cap}")
    n = sum(1 for _ in _engine(G, q)(_Budget(budget), cap))
    return n, n >= cap


def enumerate_decompositions(G: AnyGraph, q: int, cap: Optional[int] = None,
                             budget: int = DEFAULT_BUDGET) -> list:
    """All decompositions (as clique lists), up to cap (None: no cap; below
    1: ParameterError)."""
    if cap is not None and cap < 1:
        raise ParameterError(f"cap must be at least 1, got {cap}")
    return [sorted(sol) for sol in _engine(G, q)(_Budget(budget), cap)]


def find_two_disjoint_decompositions(G: AnyGraph, q: int, budget: int = DEFAULT_BUDGET
                                     ) -> Optional[tuple]:
    """Two decompositions sharing no clique, or None (exhaustive).

    Searches the first coordinate exhaustively; for each candidate, a nested
    search on the same host runs with the candidate's cliques excluded.
    """
    shared = _Budget(budget)
    search = _engine(G, q)
    for sol1 in search(shared, None):
        for sol2 in search(shared, 1, sol1):
            return Decomposition(G, sol1, q), Decomposition(G, sol2, q)
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
    inst = CoverInstance(len(ids), [1] * npri, payloads, rows)
    return next(_search(inst, _Budget(budget), cap=1), None)

