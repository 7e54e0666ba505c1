import pytest

from absorbkit.errors import BudgetError
from absorbkit.exactcover import (count_decompositions, enumerate_decompositions,
                                  find_decomposition, find_two_disjoint_decompositions,
                                  naive_decomposition_count, solve_cover)
from absorbkit.hypercore import (Decomposition, Hypergraph, MultiHypergraph,
                                 decomposition_valid)


class TestFindDecomposition:
    def test_sts7(self):
        D = find_decomposition(Hypergraph.complete(7, 2), 3)
        assert D is not None and len(D) == 7

    def test_k6_none(self):
        assert find_decomposition(Hypergraph.complete(6, 2), 3) is None

    def test_k4_minus_edge_none(self):
        G = Hypergraph.complete(4, 2).without_edges([(0, 1)])
        assert find_decomposition(G, 3) is None

    def test_restrict(self):
        G = Hypergraph(6, 2, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        D = find_decomposition(G, 3, restrict=[(0, 1, 2), (3, 4, 5)])
        assert D is not None and len(D) == 2
        assert find_decomposition(G, 3, restrict=[(0, 1, 2)]) is None

    def test_multigraph_target(self):
        J = MultiHypergraph(3, 2, {(0, 1): 2, (0, 2): 2, (1, 2): 2})
        D = find_decomposition(J, 3)
        assert D is not None and list(D) == [(0, 1, 2), (0, 1, 2)]

    def test_deterministic(self):
        a = find_decomposition(Hypergraph.complete(7, 2), 3)
        b = find_decomposition(Hypergraph.complete(7, 2), 3)
        assert a.cliques == b.cliques

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            find_decomposition(Hypergraph.complete(9, 2), 3, budget=3)

    def test_budget_error_says_what_it_spent(self):
        # K_12 has no STS, so the search runs until the budget is gone
        with pytest.raises(BudgetError, match="of 50 nodes"):
            find_decomposition(Hypergraph.complete(12, 2), 3, budget=50)


class TestCounting:
    def test_sts7_count_30(self):
        count, overflow = count_decompositions(Hypergraph.complete(7, 2), 3)
        assert (count, overflow) == (30, False)

    def test_k6_zero(self):
        assert count_decompositions(Hypergraph.complete(6, 2), 3)[0] == 0

    def test_single_clique(self):
        count, _ = count_decompositions(Hypergraph.complete(3, 2), 3)
        assert count == 1

    def test_cap_overflow(self):
        count, overflow = count_decompositions(Hypergraph.complete(7, 2), 3, cap=5)
        assert (count, overflow) == (5, True)

    def test_agrees_with_naive_oracle(self):
        import itertools
        import random
        rng = random.Random(2)
        for _ in range(12):
            n = rng.randint(4, 6)
            pool = list(itertools.combinations(range(n), 2))
            edges = [e for e in pool if rng.random() < 0.55]
            G = Hypergraph(n, 2, edges)
            assert count_decompositions(G, 3)[0] == naive_decomposition_count(G, 3)

    def test_enumerate_lists_all(self):
        sols = enumerate_decompositions(Hypergraph.complete(7, 2), 3)
        assert len(sols) == 30
        assert len({tuple(s) for s in sols}) == 30
        for s in sols:
            assert decomposition_valid(Hypergraph.complete(7, 2), s, 3)


class TestDisjointPairs:
    def test_k7_two_disjoint_sts(self):
        pair = find_two_disjoint_decompositions(Hypergraph.complete(7, 2), 3)
        assert pair is not None
        d1, d2 = pair
        assert not set(d1.cliques) & set(d2.cliques)

    def test_single_triangle_none(self):
        assert find_two_disjoint_decompositions(Hypergraph.complete(3, 2), 3) is None


class TestSolveCover:
    def test_secondary_at_most_once(self):
        # two demands, options share the secondary item s: no solution
        opts = [("A", ["e1", "s"]), ("B", ["e2", "s"])]
        assert solve_cover(["e1", "e2"], opts, secondary=["s"]) is None
        opts.append(("C", ["e2"]))
        sol = solve_cover(["e1", "e2"], opts, secondary=["s"])
        assert sorted(sol) == ["A", "C"]

    def test_plain_cover(self):
        sol = solve_cover([1, 2, 3], [("x", [1, 2]), ("y", [3]), ("z", [1, 3])])
        assert sorted(sol) == ["x", "y"]
