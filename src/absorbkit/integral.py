"""Integral clique decompositions via exact integer linear algebra.

The inclusion matrix M has rows indexed by r-subsets and columns by
q-subsets of the vertex set; solving M x = chi_L over the integers gives a
signed clique weighting whose positive part decomposes L together with the
multigraph spanned by the negative part.  Solving uses a column-style
Hermite triangularization with arbitrary-precision integers; the
triangularization of a given (n, q, r) is cached so sweeps over many
targets on the same vertex set stay cheap.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional

from .errors import CapacityError, ParameterError, PreconditionError
from .hypercore import (Decomposition, Hypergraph, MultiHypergraph,
                        clique_edges)

DIMENSION_CAP = 3000


@dataclass
class InclusionMatrix:
    rows: list            # r-subsets, lex order
    cols: list            # q-subsets, lex order
    entries: list         # dense 0/1 rows

    def column_sum(self, j: int) -> int:
        return sum(row[j] for row in self.entries)

    def row_sum(self, i: int) -> int:
        return sum(self.entries[i])


def inclusion_matrix(n: int, q: int, r: int) -> InclusionMatrix:
    """0/1 matrix of r-subset-in-q-subset incidences over 0..n-1."""
    if not (n >= q > r >= 1):
        raise ParameterError(f"need n >= q > r >= 1, got n={n}, q={q}, r={r}")
    rows = list(itertools.combinations(range(n), r))
    cols = list(itertools.combinations(range(n), q))
    if len(cols) > DIMENSION_CAP:
        raise CapacityError(f"{len(cols)} columns exceeds the cap {DIMENSION_CAP}")
    ridx = {e: i for i, e in enumerate(rows)}
    entries = [[0] * len(cols) for _ in rows]
    for j, c in enumerate(cols):
        for e in itertools.combinations(c, r):
            entries[ridx[e]][j] = 1
    return InclusionMatrix(rows, cols, entries)


@lru_cache(maxsize=32)
def _triangularization(n: int, q: int, r: int):
    """Column HNF data: returns (rows, cols, H, U, pivots) with M*U = H.

    U is unimodular; H is in column staircase form: pivots[i] is the pivot
    column of row i or None, and H[i][j] == 0 for j > pivots[i] among
    processed rows.
    """
    M = inclusion_matrix(n, q, r)
    nrows, ncols = len(M.rows), len(M.cols)
    H = [list(row) for row in M.entries]
    U = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col_addmul(dst: int, src: int, f: int):
        if f == 0:
            return
        for i in range(nrows):
            H[i][dst] += f * H[i][src]
        for i in range(ncols):
            U[i][dst] += f * U[i][src]

    def col_swap(a: int, b: int):
        if a == b:
            return
        for i in range(nrows):
            H[i][a], H[i][b] = H[i][b], H[i][a]
        for i in range(ncols):
            U[i][a], U[i][b] = U[i][b], U[i][a]

    piv_col = 0
    pivots: list = []
    for i in range(nrows):
        # gcd-reduce row i across columns piv_col..ncols-1
        while True:
            nz = [k for k in range(piv_col, ncols) if H[i][k] != 0]
            if not nz:
                pivots.append(None)
                break
            if len(nz) == 1:
                k = nz[0]
                col_swap(piv_col, k)
                if H[i][piv_col] < 0:
                    col_addmul(piv_col, piv_col, -2)  # negate
                pivots.append(piv_col)
                piv_col += 1
                break
            # reduce the largest entry by the smallest nonzero one
            nz.sort(key=lambda k: abs(H[i][k]))
            small, big = nz[0], nz[1]
            fq = H[i][big] // H[i][small]
            col_addmul(big, small, -fq)
    return M, H, U, pivots


def _solve_system(n: int, q: int, r: int, b: Dict[tuple, int]) -> Optional[Dict[tuple, int]]:
    """Integer solution x (sparse, over q-subsets) of M x = b, or None."""
    M, H, U, pivots = _triangularization(n, q, r)
    nrows, ncols = len(M.rows), len(M.cols)
    y = [0] * ncols
    resid = [b.get(e, 0) for e in M.rows]
    for i in range(nrows):
        p = pivots[i]
        val = resid[i] - sum(H[i][k] * y[k] for k in range(ncols) if y[k] and k != p)
        if p is None:
            if val != 0:
                return None
            continue
        if val % H[i][p] != 0:
            return None
        y[p] = val // H[i][p]
    x = {}
    for col in range(ncols):
        v = sum(U[col][k] * y[k] for k in range(ncols) if y[k])
        if v:
            x[M.cols[col]] = v
    return x


def _kernel_basis(n: int, q: int, r: int) -> list:
    """Sparse integer kernel vectors of the inclusion matrix."""
    M, H, U, pivots = _triangularization(n, q, r)
    ncols = len(M.cols)
    used = {p for p in pivots if p is not None}
    basis = []
    for j in range(ncols):
        if j in used:
            continue
        if any(H[i][j] for i in range(len(M.rows))):
            continue
        vec = {M.cols[i]: U[i][j] for i in range(ncols) if U[i][j]}
        if vec:
            basis.append(vec)
    return basis


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
    basis = _kernel_basis(n, q, r)
    cur = dict(x)

    def l1(v: Dict[tuple, int]) -> int:
        return sum(abs(w) for w in v.values())

    improved = True
    while improved:
        improved = False
        for vec in basis:
            # move in integer steps along the kernel vector while L1 drops
            for t in (1, -1):
                while True:
                    trial = dict(cur)
                    for c, w in vec.items():
                        trial[c] = trial.get(c, 0) + t * w
                    trial = {c: w for c, w in trial.items() if w}
                    if l1(trial) < l1(cur):
                        cur = trial
                        improved = True
                    else:
                        break
    return cur


@dataclass
class MultiAbsorber:
    """Multigraph absorber induced by a signed clique weighting.

    A is the multiset union of the negative cliques' edges; Q1 (positives)
    decomposes L + A as a multigraph, Q2 (negatives) decomposes A.
    """

    A: MultiHypergraph
    Q1: Decomposition
    Q2: Decomposition


def multi_absorber(L: Hypergraph, phi: Dict[tuple, int]) -> MultiAbsorber:
    if not verify_integral(L, phi):
        raise PreconditionError("phi is not a verified integral decomposition of L")
    pos, neg = [], []
    for c, w in sorted(phi.items()):
        c = tuple(sorted(c))
        if w > 0:
            pos.extend([c] * w)
        elif w < 0:
            neg.extend([c] * (-w))
    a_mult: Counter = Counter()
    for c in neg:
        for e in clique_edges(c, L.r):
            a_mult[e] += 1
    A = MultiHypergraph(L.n, L.r, dict(a_mult))
    la_mult = Counter(a_mult)
    for e in L.edges:
        la_mult[e] += 1
    LA = MultiHypergraph(L.n, L.r, dict(la_mult))
    q1 = Decomposition(LA, pos)
    q2 = Decomposition(A, neg) if neg else Decomposition(A, [], q=len(pos[0]) if pos else L.r + 1)
    return MultiAbsorber(A=A, Q1=q1, Q2=q2)
