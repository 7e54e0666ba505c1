import heapq
import itertools
import random
from functools import lru_cache

import pytest

from absorbkit import integral
from absorbkit.divide import is_divisible
from absorbkit.errors import CapacityError, ParameterError
from absorbkit.hypercore import Hypergraph
from absorbkit.integral import (inclusion_matrix, integral_decomposition,
                                verify_integral)


def cycle6():
    return Hypergraph(6, 2, [(i, (i + 1) % 6) for i in range(6)])


# Reference implementation: the dense row-major triangularization the
# sparse-column solver replaced, with its solver, kernel basis and L1
# descent.  The sparse code must reproduce it step for step.

@lru_cache(maxsize=None)
def dense_triangularization(n, q, r):
    """(M, H, U, pivots) with M*U = H, H and U dense row-major lists."""
    M = inclusion_matrix(n, q, r)
    nrows, ncols = len(M.rows), len(M.cols)
    H = [list(row) for row in M.entries]
    U = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col_addmul(dst, src, f):
        for i in range(nrows):
            H[i][dst] += f * H[i][src]
        for i in range(ncols):
            U[i][dst] += f * U[i][src]

    def col_swap(a, b):
        for i in range(nrows):
            H[i][a], H[i][b] = H[i][b], H[i][a]
        for i in range(ncols):
            U[i][a], U[i][b] = U[i][b], U[i][a]

    piv_col = 0
    pivots = []
    for i in range(nrows):
        while True:
            nz = [k for k in range(piv_col, ncols) if H[i][k] != 0]
            if not nz:
                pivots.append(None)
                break
            if len(nz) == 1:
                col_swap(piv_col, nz[0])
                if H[i][piv_col] < 0:
                    col_addmul(piv_col, piv_col, -2)  # negate
                pivots.append(piv_col)
                piv_col += 1
                break
            nz.sort(key=lambda k: abs(H[i][k]))
            small, big = nz[0], nz[1]
            col_addmul(big, small, -(H[i][big] // H[i][small]))
    return M, H, U, pivots


def dense_solve_system(T, b):
    M, H, U, pivots = T
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


def dense_kernel_basis(T):
    M, H, U, pivots = T
    ncols = len(M.cols)
    used = {p for p in pivots if p is not None}
    basis = []
    for j in range(ncols):
        if j in used or any(H[i][j] for i in range(len(M.rows))):
            continue
        vec = {M.cols[i]: U[i][j] for i in range(ncols) if U[i][j]}
        if vec:
            basis.append(vec)
    return basis


def dense_reduce_l1(basis, x):
    cur = dict(x)

    def l1(v):
        return sum(abs(w) for w in v.values())

    improved = True
    while improved:
        improved = False
        for vec in basis:
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


REFERENCE_PARAMS = [(n, 3, 2) for n in range(3, 13)] + [(7, 4, 2), (8, 4, 3), (7, 5, 2)]


def seeded_targets(n, q, r, seed, count):
    """Seeded targets b: even ones are M x for a random signed clique
    weighting x (so feasible), odd ones random 0/1 edge sets (mostly not)."""
    rng = random.Random(seed)
    pool = list(itertools.combinations(range(n), r))
    out = []
    for k in range(count):
        b = {}
        if k % 2 == 0:
            for _ in range(rng.randint(1, 4)):
                w = rng.choice((-2, -1, 1, 3))
                for e in itertools.combinations(sorted(rng.sample(range(n), q)), r):
                    b[e] = b.get(e, 0) + w
        else:
            b = {e: 1 for e in rng.sample(pool, rng.randint(1, len(pool)))}
        out.append(b)
    return out


def heap_triangularization(n, q, r):
    """The sparse-column triangularization that reduces every row by its
    Euclid heap, probing each non-pivot column for a nonzero: ((rows,
    cols, H, U, pivots), the number of rows reduced without a unit
    entry).  The solver, which clears unit rows without the heap, must
    reproduce it column for column."""
    rows, cols = integral._subsets(n, q, r)
    ridx = {e: i for i, e in enumerate(rows)}
    H = [{ridx[e]: 1 for e in itertools.combinations(c, r)} for c in cols]
    U = [{j: 1} for j in range(len(cols))]

    def col_addmul(dst, src, f):
        for A in (H, U):
            d = A[dst]
            for i, v in A[src].items():
                w = d.get(i, 0) + f * v
                if w:
                    d[i] = w
                else:
                    del d[i]

    piv_col = 0
    pivots = []
    no_unit = 0
    for i in range(len(rows)):
        heap = [(abs(v), k) for k in range(piv_col, len(cols))
                if (v := H[k].get(i))]
        heapq.heapify(heap)
        no_unit += bool(heap) and heap[0][0] > 1
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
        if not heap:
            pivots.append(None)
            continue
        k = heap[0][1]
        H[piv_col], H[k] = H[k], H[piv_col]
        U[piv_col], U[k] = U[k], U[piv_col]
        if H[piv_col][i] < 0:
            H[piv_col] = {j: -v for j, v in H[piv_col].items()}
            U[piv_col] = {j: -v for j, v in U[piv_col].items()}
        pivots.append(piv_col)
        piv_col += 1
    return (rows, cols, H, U, pivots), no_unit


HEAP_PARAMS = ([(n, 3, 2) for n in range(3, 17)] + [(n, 4, 2) for n in (7, 8, 9)]
               + [(8, 4, 3), (7, 5, 2), (10, 3, 1)])


class TestAgainstHeapReference:
    @pytest.mark.parametrize("params", HEAP_PARAMS)
    def test_same_columns_pivots_and_kernel(self, params):
        (rows, cols, Hh, Uh, ph), _ = heap_triangularization(*params)
        T = integral._triangularization(*params)
        assert T[:2] == (rows, cols) and T[4] == ph
        # equal columns, down to the order of their entries
        for got, want in ((T[2], Hh), (T[3], Uh)):
            assert [list(col.items()) for col in got] == [list(col.items()) for col in want]
        rank = sum(p is not None for p in ph)
        basis = [{cols[i]: v for i, v in sorted(u.items())} for u in Uh[rank:]]
        assert integral._kernel(*params) == (basis, [sum(map(abs, b.values())) for b in basis])

    def test_grid_has_rows_without_a_unit_entry(self):
        # the heap branch is reached: 14 of the 105 rows at (15, 3, 2)
        counts = {p: heap_triangularization(*p)[1] for p in HEAP_PARAMS}
        assert counts[(15, 3, 2)] == 14
        assert sum(counts.values()) > len(HEAP_PARAMS)


class TestAgainstDenseReference:
    @pytest.mark.parametrize("params", REFERENCE_PARAMS)
    def test_same_pivots_h_and_u(self, params):
        M, Hd, Ud, pd = dense_triangularization(*params)
        rows, cols, H, U, pivots = integral._triangularization(*params)
        assert (rows, cols) == (M.rows, M.cols)
        assert pivots == pd
        assert [[H[j].get(i, 0) for j in range(len(cols))]
                for i in range(len(rows))] == Hd
        assert [[U[j].get(i, 0) for j in range(len(cols))]
                for i in range(len(cols))] == Ud
        # sparse columns store no zeros
        assert all(v for col in H + U for v in col.values())

    @pytest.mark.parametrize("params", REFERENCE_PARAMS)
    def test_same_solutions_basis_and_l1_descent(self, params):
        T = dense_triangularization(*params)
        n, q, r = params
        basis, want_basis = integral._kernel(n, q, r)[0], dense_kernel_basis(T)
        assert basis == want_basis
        assert [list(v) for v in basis] == [list(v) for v in want_basis]
        feasible = infeasible = 0
        for b in seeded_targets(n, q, r, seed=n * 100 + q * 10 + r, count=12):
            x = integral._solve_system(n, q, r, b)
            want = dense_solve_system(T, b)
            assert x == want
            if x is None:
                infeasible += 1
                continue
            feasible += 1
            assert list(x) == list(want)      # ascending column order
            reduced, want_reduced = integral._reduce_l1(n, q, r, x), dense_reduce_l1(basis, x)
            assert reduced == want_reduced
            assert list(reduced) == list(want_reduced)
        assert feasible >= 6
        if n > q:
            assert infeasible >= 1

    @pytest.mark.parametrize("seed", range(6))
    def test_l1_descent_on_disjoint_triangles_in_k15(self, seed):
        # six disjoint triangles in K_15: a sparse target whose support
        # meets few of the 350 kernel vectors, so most are skipped unscored
        rng = random.Random(seed)
        triples = list(itertools.combinations(range(15), 3))
        rng.shuffle(triples)
        used = set()
        for t in triples:
            es = set(itertools.combinations(t, 2))
            if not es & used:
                used |= es
                if len(used) == 18:
                    break
        x = integral._solve_system(15, 3, 2, dict.fromkeys(used, 1))
        assert x
        reduced = integral._reduce_l1(15, 3, 2, x)
        want = dense_reduce_l1(integral._kernel(15, 3, 2)[0], x)
        assert reduced == want
        assert list(reduced) == list(want)
        assert sum(map(abs, reduced.values())) < sum(map(abs, x.values()))

    def test_cache_clear_is_available(self):
        # the benchmark empties this cache before each pass
        assert callable(integral._triangularization.cache_clear)
        integral._triangularization.cache_clear()
        assert integral._triangularization.cache_info().currsize == 0

    def test_cache_clear_drops_the_kernel_basis(self):
        # the basis lives on the cache entry, so a cleared cache rebuilds it
        basis = integral._kernel(6, 3, 2)[0]
        T = integral._triangularization(6, 3, 2)
        assert T.kernel is not None and T.kernel[0] is basis
        assert integral._kernel(6, 3, 2)[0] is basis
        integral._triangularization.cache_clear()
        fresh = integral._triangularization(6, 3, 2)
        assert fresh is not T and fresh.kernel is None
        assert integral._kernel(6, 3, 2)[0] == basis
        assert fresh.kernel[0] is not basis

    def test_dimension_cap(self):
        with pytest.raises(CapacityError):
            integral._triangularization(28, 3, 2)
        with pytest.raises(CapacityError):
            inclusion_matrix(28, 3, 2)


class TestInclusionMatrix:
    def test_dims_and_column_sums(self):
        M = inclusion_matrix(4, 3, 2)
        assert (len(M.rows), len(M.cols)) == (6, 4)
        assert all(sum(row[j] for row in M.entries) == 3 for j in range(4))

    def test_row_sums(self):
        M = inclusion_matrix(5, 3, 2)
        assert (len(M.rows), len(M.cols)) == (10, 10)
        assert all(sum(row) == 3 for row in M.entries)

    def test_single_column(self):
        M = inclusion_matrix(3, 3, 2)
        assert len(M.cols) == 1
        assert all(row == [1] for row in M.entries)

    def test_bad_params(self):
        with pytest.raises(ParameterError):
            inclusion_matrix(2, 3, 2)


class TestIntegralDecomposition:
    def test_triangle_in_k5(self):
        L = Hypergraph(5, 2, [(0, 1), (0, 2), (1, 2)])
        phi = integral_decomposition(L, 3)
        assert phi == {(0, 1, 2): 1}

    def test_empty(self):
        phi = integral_decomposition(Hypergraph(5, 2), 3)
        assert phi == {}

    def test_c6(self):
        phi = integral_decomposition(cycle6(), 3)
        assert phi is not None
        assert verify_integral(cycle6(), phi)

    def test_verify_rejects_perturbation(self):
        phi = integral_decomposition(cycle6(), 3)
        c = next(iter(phi))
        bad = dict(phi)
        bad[c] += 1
        assert not verify_integral(cycle6(), bad)

    def test_nondivisible_has_none(self):
        # one edge: vertex degrees 1, not divisible by 2
        L = Hypergraph(6, 2, [(0, 1)])
        assert integral_decomposition(L, 3) is None

    def test_reduce_flag_keeps_validity(self):
        phi = integral_decomposition(cycle6(), 3, reduce_support=True)
        assert verify_integral(cycle6(), phi)
        plain = integral_decomposition(cycle6(), 3)
        assert sum(abs(w) for w in phi.values()) <= sum(abs(w) for w in plain.values())

    def test_all_divisible_on_5_vertices(self):
        # smaller sibling of the 6-vertex acceptance criterion
        pool = list(itertools.combinations(range(5), 2))
        for mask in range(1 << len(pool)):
            edges = [pool[i] for i in range(len(pool)) if mask >> i & 1]
            L = Hypergraph(5, 2, edges)
            if not is_divisible(L, 3):
                continue
            phi = integral_decomposition(L, 3)
            assert phi is not None
            assert verify_integral(L, phi)
