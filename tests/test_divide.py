import itertools
import random

import pytest

from absorbkit.divide import (DesignParams, admissibility_report,
                              divisible_subgraphs, is_divisible,
                              params_admissible)
from absorbkit.errors import CapacityError, ParameterError
from absorbkit.hypercore import Hypergraph


class TestIsDivisible:
    def test_k7_triangles(self):
        assert is_divisible(Hypergraph.complete(7, 2), 3)

    def test_k6_not(self):
        assert not is_divisible(Hypergraph.complete(6, 2), 3)

    def test_empty_graph(self):
        assert is_divisible(Hypergraph(9, 2), 3)
        assert is_divisible(Hypergraph(9, 2), 5)

    def test_matches_admissibility_on_complete(self):
        for n in range(4, 16):
            for q in (3, 4):
                if n <= q:
                    continue
                lhs = is_divisible(Hypergraph.complete(n, 2), q)
                rhs = params_admissible(DesignParams(n, q, 2, 1))
                assert lhs == rhs, (n, q)

    def test_difference_of_nested_divisible(self):
        # degrees subtract pointwise when one edge set contains the other
        rng = random.Random(11)
        pool = list(itertools.combinations(range(6), 2))
        found = 0
        while found < 25:
            e1 = {e for e in pool if rng.random() < 0.7}
            e2 = {e for e in e1 if rng.random() < 0.5}
            G1, G2 = Hypergraph(6, 2, e1), Hypergraph(6, 2, e2)
            if is_divisible(G1, 3) and is_divisible(G2, 3):
                assert is_divisible(Hypergraph(6, 2, e1 - e2), 3)
                found += 1

    def test_edge_disjoint_union_preserves(self):
        # build divisible graphs as unions of triangles, then merge disjoint ones
        rng = random.Random(12)
        found = 0
        while found < 25:
            e1, e2 = set(), set()
            for target in (e1, e2):
                for _ in range(rng.randint(1, 3)):
                    tri = rng.sample(range(8), 3)
                    target.update(tuple(sorted(p)) for p in itertools.combinations(tri, 2))
            if e1 & e2:
                continue
            G1, G2 = Hypergraph(8, 2, e1), Hypergraph(8, 2, e2)
            if is_divisible(G1, 3) and is_divisible(G2, 3):
                assert is_divisible(Hypergraph(8, 2, e1 | e2), 3)
                found += 1

    def test_disjoint_union_preserves(self):
        T1 = [(0, 1), (0, 2), (1, 2)]
        T2 = [(3, 4), (3, 5), (4, 5)]
        assert is_divisible(Hypergraph(6, 2, T1 + T2), 3)


class TestParams:
    def test_kirkman_case(self):
        assert params_admissible(DesignParams(7, 3, 2, 1))

    def test_one_uniform(self):
        for q, k in [(3, 4), (5, 2)]:
            assert params_admissible(DesignParams(q * k, q, 1, 1))

    def test_13_4_2(self):
        assert params_admissible(DesignParams(13, 4, 2, 1))

    def test_report_shape(self):
        rows = admissibility_report(DesignParams(6, 3, 2, 1))
        assert [row["ok"] for row in rows] == [True, False]
        assert all(r["ok"] for r in admissibility_report(DesignParams(7, 3, 2, 1)))

    def test_bad_params(self):
        with pytest.raises(ParameterError):
            DesignParams(3, 3, 2, 1)


class TestDivisibleSubgraphs:
    def test_triangle(self):
        X = Hypergraph(4, 2, [(0, 1), (0, 2), (1, 2)])
        subs = list(divisible_subgraphs(X, 3))
        assert sorted(len(s.edges) for s in subs) == [0, 3]

    def test_one_uniform_counts(self):
        X = Hypergraph(6, 1, [(i,) for i in range(6)])
        subs = list(divisible_subgraphs(X, 3))
        assert len(subs) == 22
        assert sorted({len(s.edges) for s in subs}) == [0, 3, 6]

    def test_path_only_empty(self):
        X = Hypergraph(3, 2, [(0, 1), (1, 2)])
        subs = list(divisible_subgraphs(X, 3))
        assert len(subs) == 1 and subs[0].m == 0

    def test_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(5):
            pool = list(itertools.combinations(range(6), 2))
            edges = rng.sample(pool, 9)
            X = Hypergraph(6, 2, edges)
            fast = {s.edges for s in divisible_subgraphs(X, 3)}
            brute = set()
            for k in range(len(edges) + 1):
                for combo in itertools.combinations(edges, k):
                    H = Hypergraph(6, 2, combo)
                    if is_divisible(H, 3):
                        brute.add(H.edges)
            assert fast == brute

    def test_capacity_error(self):
        X = Hypergraph.complete(8, 2)  # 28 edges > 24
        with pytest.raises(CapacityError):
            list(divisible_subgraphs(X, 3))

    def test_sampling_mode_needs_a_trial(self):
        X = Hypergraph(3, 2, [(0, 1), (0, 2), (1, 2)])
        for trials in (None, 0, -5):
            with pytest.raises(ParameterError):
                list(divisible_subgraphs(X, 3, mode="sample", trials=trials))

    def test_sampling_mode(self):
        X = Hypergraph(6, 2, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        subs = list(divisible_subgraphs(X, 3, mode="sample", trials=200, seed=1))
        assert subs, "sampler should hit a divisible subset"
        for H in subs:
            assert is_divisible(H, 3)
