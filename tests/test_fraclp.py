import itertools
import random
from fractions import Fraction

import pytest

from absorbkit import fraclp
from absorbkit.errors import ParameterError
from absorbkit.fraclp import (BoostFamily, FractionalWeighting, boost_sample,
                              fm_feasible,
                              inheritance_stats, solve_fractional)
from absorbkit.hypercore import Hypergraph


def k4_minus_edge():
    return Hypergraph(4, 2, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


class TestFeasibility:
    def test_k5_feasible_uniform_witness(self):
        assert solve_fractional(Hypergraph.complete(5, 2), 3).feasible
        # uniform 1/3 is one witness; the solver's witness is validated on
        # construction, so only existence matters here
        uniform = {c: Fraction(1, 3)
                   for c in itertools.combinations(range(5), 3)}
        FractionalWeighting(psi=uniform, host=Hypergraph.complete(5, 2), q=3)

    def test_k4_minus_edge_infeasible_with_certificate(self):
        out = solve_fractional(k4_minus_edge(), 3)
        assert not out.feasible
        assert out.farkas is not None and len(out.farkas) == 5

    def test_kn_with_cap(self):
        for n in (5, 6):
            out = solve_fractional(Hypergraph.complete(n, 2), 3,
                                   weight_cap=Fraction(2, n))
            assert out.feasible
            w = out.weighting
            assert all(v <= Fraction(2, n) for v in w.psi.values())

    def test_cap_can_bind(self):
        # a single triangle needs weight 1; a tiny cap forbids it
        G = Hypergraph(3, 2, [(0, 1), (0, 2), (1, 2)])
        assert not solve_fractional(G, 3, weight_cap=Fraction(1, 2)).feasible
        assert solve_fractional(G, 3).feasible

    @pytest.mark.parametrize("cap", ["abc", "1/0", float("nan"), Fraction(-1, 2)])
    def test_bad_cap_rejected(self, cap):
        with pytest.raises(ParameterError):
            solve_fractional(Hypergraph.complete(5, 2), 3, weight_cap=cap)

    def test_decomposition_is_fractional(self):
        from absorbkit.exactcover import find_decomposition
        D = find_decomposition(Hypergraph.complete(7, 2), 3)
        FractionalWeighting(psi={c: Fraction(1) for c in D},
                            host=Hypergraph.complete(7, 2), q=3)

    def test_verdicts_match_fm_oracle(self):
        rng = random.Random(9)
        from absorbkit.hypercore import enumerate_cliques
        done = 0
        while done < 50:
            n = rng.randint(4, 6)
            pool = list(itertools.combinations(range(n), 2))
            edges = [e for e in pool if rng.random() < 0.6]
            G = Hypergraph(n, 2, edges)
            cl = enumerate_cliques(G, 3) if edges else []
            if len(cl) > 12:
                continue
            covered = {e for c in cl for e in itertools.combinations(c, 2)}
            if not edges or not set(G.edges) <= covered:
                # an uncoverable edge: trivially infeasible both ways only
                # when the LP sees it; keep such cases too
                pass
            got = solve_fractional(G, 3).feasible
            want = fm_feasible(G, 3)
            assert got == want, sorted(G.edges)
            done += 1


def reference_phase1(rows, b, n_struct):
    """The dense-Fraction phase-1 simplex that the integer tableau replaced,
    kept as the reference: it rebuilds every row as Fractions per pivot."""
    m = len(rows)
    ncols = n_struct + m
    T = [row[:] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [b[i]]
         for i, row in enumerate(rows)]
    basis = [n_struct + i for i in range(m)]
    obj = [Fraction(0)] * (ncols + 1)
    for j in range(ncols):
        col = sum(T[i][j] for i in range(m))
        cj = Fraction(1) if j >= n_struct else Fraction(0)
        obj[j] = cj - col
    obj[ncols] = -sum(b)
    pivots = 0
    stalled = 0
    bland_after = 4 * (m + ncols)
    while True:
        if stalled <= bland_after:
            enter, best = None, Fraction(0)
            for j in range(ncols):
                if obj[j] < best:
                    enter, best = j, obj[j]
        else:
            enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            break
        ratio, leave = None, None
        for i in range(m):
            if T[i][enter] > 0:
                r = T[i][ncols] / T[i][enter]
                if ratio is None or r < ratio or (r == ratio and basis[i] < basis[leave]):
                    ratio, leave = r, i
        if leave is None:
            raise ParameterError("phase-1 unbounded; the instance is malformed")
        piv = T[leave][enter]
        T[leave] = [v / piv for v in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter]:
                f = T[i][enter]
                T[i] = [a - f * c for a, c in zip(T[i], T[leave])]
        if obj[enter]:
            f = obj[enter]
            before = obj[ncols]
            obj = [a - f * c for a, c in zip(obj, T[leave])]
            stalled = stalled + 1 if obj[ncols] == before else 0
        basis[leave] = enter
        pivots += 1
    objective = -obj[ncols]
    x = [Fraction(0)] * n_struct
    for i, bi in enumerate(basis):
        if bi < n_struct:
            x[bi] = T[i][ncols]
    y = [Fraction(1) - obj[n_struct + i] for i in range(m)]
    return objective, x, y, pivots


def dense_reference_phase1(cols, b):
    """`reference_phase1` on the dense Fraction rows that the sparse 0/1
    columns stand for: row i holds a 1 in every column listing i."""
    rows = [[Fraction(int(i in col)) for col in cols] for i in range(len(b))]
    return reference_phase1(rows, b, len(cols))


def random_graph(rng, max_n=8):
    n = rng.randint(4, max_n)
    p = rng.choice((0.5, 0.7, 0.9))
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Hypergraph(n, 2, edges)


def equivalence_instances():
    """(id, graph, cap): complete graphs, capped complete graphs, K_4 - e
    and seeded random graphs on at most 8 vertices, uncapped and capped,
    some infeasible."""
    out = [(f"K_{n}", Hypergraph.complete(n, 2), None) for n in range(5, 10)]
    for n in range(5, 8):
        out.append((f"K_{n} cap=2/{n}", Hypergraph.complete(n, 2), Fraction(2, n)))
        out.append((f"K_{n} cap=1/2", Hypergraph.complete(n, 2), Fraction(1, 2)))
    out.append(("K_4-e", k4_minus_edge(), None))
    rng = random.Random(2024)
    for i in range(30):
        G = random_graph(rng)
        out.append((f"random #{i} n={G.n}", G, None))
    for i in range(10):
        G = random_graph(rng)
        cap = Fraction(rng.choice((1, 2)), G.n - 2)
        out.append((f"random #{i} n={G.n} cap={cap}", G, cap))
    return out


def lp_columns(G, cap):
    """The phase-1 input of `solve_fractional` on a graph, triangles in lex
    order: edge rows, then one cap row per triangle when capped."""
    edges = sorted(G.edges)
    eidx = {e: i for i, e in enumerate(edges)}
    tris = [c for c in itertools.combinations(range(G.n), 3)
            if all(e in eidx for e in itertools.combinations(c, 2))]
    cols = [tuple(eidx[e] for e in itertools.combinations(c, 2)) for c in tris]
    b = [Fraction(1)] * len(edges)
    if cap is not None:
        m = len(edges)
        cols = [col + (m + j,) for j, col in enumerate(cols)] + [(m + j,) for j in range(len(tris))]
        b += [cap] * len(tris)
    return cols, b


def seeded_phase1_instances():
    """200 seeded (graph, cap, cols, b) phase-1 inputs on random graphs of
    at most 7 vertices.  Capped only up to 6 vertices: on more, the dense
    reference pivots a Fraction tableau of 100+ columns and takes seconds."""
    rng = random.Random(1414)
    out = []
    while len(out) < 200:
        G = random_graph(rng, max_n=7)
        cap = (rng.choice((None, Fraction(1, 2), Fraction(2, G.n), Fraction(0)))
               if G.n <= 6 else None)
        cols, b = lp_columns(G, cap)
        if b:
            out.append((G, cap, cols, b))
    return out


class TestIntegerTableau:
    @pytest.mark.parametrize("G, cap", [pytest.param(G, cap, id=name)
                                        for name, G, cap in equivalence_instances()])
    def test_matches_fraction_tableau(self, monkeypatch, G, cap):
        got = solve_fractional(G, 3, weight_cap=cap)
        monkeypatch.setattr(fraclp, "_phase1", dense_reference_phase1)
        want = solve_fractional(G, 3, weight_cap=cap)
        assert got.feasible == want.feasible
        assert (got.weighting is None) == (want.weighting is None)
        if got.weighting is not None:
            assert got.weighting.psi == want.weighting.psi
        assert got.farkas == want.farkas
        assert got.rows == want.rows
        assert got.pivots == want.pivots

    def test_phase1_matches_reference_on_seeded_instances(self):
        infeasible = 0
        for G, cap, cols, b in seeded_phase1_instances():
            got = fraclp._phase1(cols, b)
            assert got == dense_reference_phase1(cols, b), (sorted(G.edges), cap)
            infeasible += got[0] != 0
        assert infeasible >= 100

    def test_reduction_bound_changes_nothing(self, monkeypatch):
        """Reducing every B^-1 row after each change (bound 0) or none
        (a bound no denominator reaches) gives the same objective, x, y and
        pivots as the default bound."""
        inputs = [(cols, b) for _, _, cols, b in seeded_phase1_instances()]
        inputs += [lp_columns(Hypergraph.complete(n, 2), None) for n in (10, 11, 12)]
        want = [fraclp._phase1(cols, b) for cols, b in inputs]
        default, never = fraclp.REDUCE_BITS, 10**6
        for bits in (0, never):
            monkeypatch.setattr(fraclp, "REDUCE_BITS", bits)
            assert [fraclp._phase1(cols, b) for cols, b in inputs] == want, bits
        # on K_11 some rescaled rows cross the default bound and some do
        # not: it makes more gcd calls than no row reduction, and fewer than
        # all (no K_10 row denominator outgrows the default bound)
        calls = []
        real_gcd = fraclp.gcd
        monkeypatch.setattr(fraclp, "gcd", lambda *a: calls.append(a) or real_gcd(*a))
        gcds = {}
        for bits in (default, 0, never):
            monkeypatch.setattr(fraclp, "REDUCE_BITS", bits)
            calls.clear()
            fraclp._phase1(*inputs[-2])   # K_11
            gcds[bits] = len(calls)
        assert gcds[never] < gcds[default] < gcds[0]

    def test_instances_include_infeasible(self):
        verdicts = {solve_fractional(G, 3, weight_cap=cap).feasible
                    for _, G, cap in equivalence_instances()}
        assert verdicts == {True, False}

    def test_k13_solves(self):
        out = solve_fractional(Hypergraph.complete(13, 2), 3)
        assert out.feasible and out.pivots == 175


class TestBoostSample:
    def make_uniform(self, n):
        uniform = {c: Fraction(1, n - 2)
                   for c in itertools.combinations(range(n), 3)}
        return FractionalWeighting(psi=uniform, host=Hypergraph.complete(n, 2), q=3)

    def test_multiplier_zero(self):
        fam = boost_sample(self.make_uniform(8), multiplier=0, seed=1)
        assert fam.cliques == []
        assert all(v == 0 for v in fam.edge_counts.values())

    @pytest.mark.parametrize("multiplier", [-3, Fraction(-1, 2), "abc", "1/0"])
    def test_bad_multiplier_rejected(self, multiplier):
        with pytest.raises(ParameterError):
            boost_sample(self.make_uniform(5), multiplier=multiplier)

    def test_seed_reproducible(self):
        a = boost_sample(self.make_uniform(10), seed=42)
        b = boost_sample(self.make_uniform(10), seed=42)
        assert a.cliques == b.cliques

    def test_mean_tracks_multiplier(self):
        # expected per-edge count equals the multiplier by linearity
        n = 40
        psi = self.make_uniform(n)
        fam = boost_sample(psi, multiplier=19, seed=3)
        counts = list(fam.edge_counts.values())
        mean = sum(counts) / len(counts)
        # Binomial(n-2, 19/(n-2)): sd ~ 4.3; 3 sigma on the mean of 780
        # near-independent-ish edges is well inside +-1.5
        assert abs(mean - 19) < 1.5
        assert fam.clamped == 0


class TestInheritance:
    def test_complete_graph_always(self):
        stats = inheritance_stats(Hypergraph.complete(30, 2), s=10, M=(0, 1),
                                  trials=50, seed=2,
                                  threshold=1)
        assert stats["fraction"] == 1.0

    def test_zero_trials(self):
        # a rate over no sample is a parameter error, as in spread_estimate
        for trials in (0, -5):
            with pytest.raises(ParameterError, match="need trials >= 1"):
                inheritance_stats(Hypergraph.complete(10, 2), s=4, M=(), trials=trials)

    def test_min_degree_inheritance_rate(self):
        # host with delta >= 0.9(n-1): sampled 60-sets keep delta >= 0.8(s-1)
        rng = random.Random(7)
        n = 200
        missing = set()
        for v in range(n):
            others = [u for u in range(n) if u != v]
            rng.shuffle(others)
            for u in others[:4]:
                missing.add(tuple(sorted((v, u))))
        edges = [e for e in itertools.combinations(range(n), 2)
                 if e not in missing]
        G = Hypergraph(n, 2, edges)
        stats = inheritance_stats(G, s=60, M=(), trials=60, seed=11,
                                  threshold=0.8)
        assert stats["fraction"] >= 0.9

    def test_bad_args(self):
        for M, s in (((0, 1, 1), 4),     # a repeated member
                     ((0, 10), 4),       # a member outside G
                     ((0, 1, 2), 2),     # more members than the sample size
                     ((), 0),            # an empty sample
                     ((), 11)):          # a sample larger than G
            with pytest.raises(ParameterError):
                inheritance_stats(Hypergraph.complete(10, 2), s=s, M=M, trials=5)
