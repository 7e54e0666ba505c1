"""Integral clique decompositions via exact integer linear algebra.

The inclusion matrix M has rows indexed by r-subsets and columns by
q-subsets of the vertex set; solving M x = chi_L over the integers gives a
signed clique weighting whose positive part decomposes L together with the
multigraph spanned by the negative part.  Solving uses a column-style
Hermite triangularization M U = H with arbitrary-precision integers.  H and
U are kept as sparse columns ({row: nonzero} dicts), with an index of the
non-pivot columns holding a nonzero in each row of H.  A row whose least
|entry| is 1 (91 of the 105 rows at (15, 3, 2)) is cleared by subtracting
that unit column once from each other column; any other row is gcd-reduced
by a heap of its nonzero entries.  Either way a step touches only the
nonzeros of the two columns it combines.  The triangularization
of a given (n, q, r) is cached so sweeps over many targets on the same
vertex set stay cheap; the kernel basis and its vectors' L1 norms W are
built on the first reducing call and kept on that cache entry.  The L1
descent skips a kernel vector whose weight S on the support of x has
2S <= W (no step along it can help) and scores the others exactly from
their meet with that support alone.
"""
from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional

from .errors import CapacityError, ParameterError
from .hypercore import Hypergraph, require_simple

DIMENSION_CAP = 3000


@dataclass
class InclusionMatrix:
    rows: list            # r-subsets, lex order
    cols: list            # q-subsets, lex order
    entries: list         # dense 0/1 rows


def _subsets(n: int, q: int, r: int):
    """Row labels (r-subsets) and column labels (q-subsets), lex order."""
    if not (n >= q > r >= 1):
        raise ParameterError(f"need n >= q > r >= 1, got n={n}, q={q}, r={r}")
    rows = list(itertools.combinations(range(n), r))
    cols = list(itertools.combinations(range(n), q))
    if len(cols) > DIMENSION_CAP:
        raise CapacityError(f"{len(cols)} columns exceeds the cap {DIMENSION_CAP}")
    return rows, cols


def inclusion_matrix(n: int, q: int, r: int) -> InclusionMatrix:
    """0/1 matrix of r-subset-in-q-subset incidences over 0..n-1."""
    rows, cols = _subsets(n, q, r)
    ridx = {e: i for i, e in enumerate(rows)}
    entries = [[0] * len(cols) for _ in rows]
    for j, c in enumerate(cols):
        for e in itertools.combinations(c, r):
            entries[ridx[e]][j] = 1
    return InclusionMatrix(rows, cols, entries)


class _Triangularization(tuple):
    """(rows, cols, H, U, pivots), the cache entry of one (n, q, r).  Its
    kernel, (basis, norms), is attached by `_kernel` on first use, so
    emptying the cache drops it too."""

    kernel = None


@lru_cache(maxsize=32)
def _triangularization(n: int, q: int, r: int) -> _Triangularization:
    """Column HNF data: returns (rows, cols, H, U, pivots) with M*U = H.

    rows and cols are the r- and q-subset labels of M.  H and U are lists
    of columns, column j a {row index: nonzero entry} dict.  U is
    unimodular; H is in column staircase form: pivots[i] is the pivot
    column of row i or None, the pivot columns are 0, 1, ... in row order,
    column pivots[i] is zero above row i, and every other column is zero.

    Row i is reduced by Euclid's algorithm over its nonzero entries in
    columns not yet pivots: the column with the smallest |entry| (lowest
    index on ties) is subtracted from the next smallest.  Only that second
    column changes in row i, so a heap keyed (|entry|, column) finds both.
    When the smallest |entry| is 1, every step subtracts that unit column
    and clears the other column's entry, so the row is cleared without the
    heap: the unit column is subtracted once from each other column.
    `nonzero[i]` holds the non-pivot columns with a nonzero in row i.
    """
    rows, cols = _subsets(n, q, r)
    ridx = {e: i for i, e in enumerate(rows)}
    H = [{ridx[e]: 1 for e in itertools.combinations(c, r)} for c in cols]
    U = [{j: 1} for j in range(len(cols))]
    nonzero: list = [set() for _ in rows]
    for j, h in enumerate(H):
        for i in h:
            nonzero[i].add(j)

    def col_addmul(dst: int, src: int, f: int):
        d = H[dst]
        for i, v in H[src].items():
            w = d.get(i)
            if w is None:
                d[i] = f * v
                nonzero[i].add(dst)
                continue
            w += f * v
            if w:
                d[i] = w
            else:
                del d[i]
                nonzero[i].discard(dst)
        d = U[dst]
        for i, v in U[src].items():
            w = d.get(i, 0) + f * v
            if w:
                d[i] = w
            else:
                del d[i]

    piv_col = 0
    pivots: list = []
    for i in range(len(rows)):
        heap = [(abs(H[k][i]), k) for k in nonzero[i]]
        if not heap:
            pivots.append(None)
            continue
        entry = min(heap)
        if entry[0] == 1:
            small = entry[1]
            u = H[small][i]
            for _, big in heap:
                if big != small:
                    col_addmul(big, small, -(H[big][i] // u))
        else:
            heapq.heapify(heap)
            while len(heap) > 1:
                entry = heapq.heappop(heap)
                small, big = entry[1], heap[0][1]
                col_addmul(big, small, -(H[big][i] // H[small][i]))
                v = H[big].get(i)
                if v:
                    heapq.heapreplace(heap, (abs(v), big))
                else:
                    heapq.heappop(heap)
                heapq.heappush(heap, entry)
            entry = heap[0]
        k = entry[1]
        # column k becomes pivot column piv_col, which no later step
        # touches; the column it replaces moves to k
        for j in H[k]:
            nonzero[j].discard(k)
        if k != piv_col:
            for j in H[piv_col]:
                nonzero[j].discard(piv_col)
                nonzero[j].add(k)
        H[piv_col], H[k] = H[k], H[piv_col]
        U[piv_col], U[k] = U[k], U[piv_col]
        if H[piv_col][i] < 0:
            H[piv_col] = {j: -v for j, v in H[piv_col].items()}
            U[piv_col] = {j: -v for j, v in U[piv_col].items()}
        pivots.append(piv_col)
        piv_col += 1
    return _Triangularization((rows, cols, H, U, pivots))


def _solve_system(n: int, q: int, r: int, b: Dict[tuple, int]) -> Optional[Dict[tuple, int]]:
    """Integer solution x (sparse, over q-subsets) of M x = b, or None.

    Forward substitution by columns: solve H y = b row by row, subtracting
    each pivot column as soon as its y is known (column pivots[i] is zero
    above row i), and accumulate x = U y from the same columns.
    """
    rows, cols, H, U, pivots = _triangularization(n, q, r)
    resid = [b.get(e, 0) for e in rows]
    x: Dict[int, int] = {}
    for i, p in enumerate(pivots):
        if p is None:
            if resid[i]:
                return None
            continue
        y, rem = divmod(resid[i], H[p][i])
        if rem:
            return None
        if y:
            for j, v in H[p].items():
                resid[j] -= y * v
            for j, v in U[p].items():
                x[j] = x.get(j, 0) + y * v
    return {cols[j]: v for j, v in sorted(x.items()) if v}


def _kernel(n: int, q: int, r: int) -> tuple:
    """(basis, norms): the sparse integer kernel vectors of the inclusion
    matrix, the columns of U past the last pivot with their q-subsets in
    lex order, and each vector's L1 norm.  Built on first use and kept on
    the cached triangularization."""
    T = _triangularization(n, q, r)
    if T.kernel is None:
        rows, cols, H, U, pivots = T
        rank = sum(p is not None for p in pivots)
        basis = [{cols[i]: v for i, v in sorted(u.items())} for u in U[rank:]]
        T.kernel = basis, [sum(map(abs, vec.values())) for vec in basis]
    return T.kernel


def verify_integral(L: Hypergraph, phi: Dict[tuple, int]) -> bool:
    """Exact check: clique weights sum to +1 on L's edges and 0 elsewhere."""
    sums: Counter = Counter()
    for c, w in phi.items():
        c = tuple(sorted(c))
        if len(c) <= L.r or any(not (0 <= v < L.n) for v in c):
            return False
        for e in itertools.combinations(c, L.r):
            sums[e] += w
    for e in L.edges:
        if sums.get(e, 0) != 1:
            return False
    return all(v == 0 for e, v in sums.items() if e not in L.edges)


def integral_decomposition(L: Hypergraph, q: int, reduce_support: bool = False
                           ) -> Optional[Dict[tuple, int]]:
    """Integer clique weighting with edge sums chi_L, or None if infeasible.

    Cliques range over all q-subsets of L's vertex universe 0..n-1.  The
    particular solution comes from back-substitution; `reduce_support`
    applies greedy kernel-vector subtraction to shrink the L1 norm.
    """
    require_simple(L, "an integral decomposition target")
    if q <= L.r:
        raise ParameterError(f"need q > r, got q={q}, r={L.r}")
    if L.n < q:
        raise ParameterError(f"vertex universe {L.n} smaller than q={q}")
    b = {e: 1 for e in L.edges}
    x = _solve_system(L.n, q, L.r, b)
    if x is None:
        return None
    if reduce_support and x:
        x = _reduce_l1(L.n, q, L.r, x)
    assert verify_integral(L, x), "solver output failed exact verification"
    return x


def _reduce_l1(n: int, q: int, r: int, x: Dict[tuple, int]) -> Dict[tuple, int]:
    """Greedy L1 descent: move x in integer steps along each kernel vector
    while its L1 norm drops, until no step helps.

    A step t*vec (t = +-1, entries w, L1 norm W) changes the norm by the
    sum over vec's support of |a + t*w| - |a|, a the current weight.  Off
    the support of a that term is exactly |w|, so the change is W plus,
    over the meet of the two supports, |a + t*w| - |a| - |w|.  Each such
    term is at least -2|w|, so a vector whose meet carries at most W/2 of
    its weight cannot lower the norm either way and is skipped unscored.
    """
    basis, norms = _kernel(n, q, r)
    cur = dict(x)

    def l1_change(vec: Dict[tuple, int], W: int, meet, t: int) -> int:
        for c in meet:
            a, w = cur[c], vec[c]
            W += abs(a + t * w) - abs(a) - abs(w)
        return W

    improved = True
    while improved:
        improved = False
        for vec, W in zip(basis, norms):
            meet = vec.keys() & cur.keys()
            if 2 * sum(abs(vec[c]) for c in meet) <= W:
                continue
            for t in (1, -1):
                while l1_change(vec, W, meet, t) < 0:
                    for c, w in vec.items():
                        v = cur.get(c, 0) + t * w
                        if v:
                            cur[c] = v
                        else:
                            del cur[c]
                    meet = vec.keys() & cur.keys()
                    improved = True
    return cur
