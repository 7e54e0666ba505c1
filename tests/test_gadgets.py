import itertools
import random
from collections import Counter, defaultdict
from math import comb

import pytest

from absorbkit import gadgets
from absorbkit.divide import is_divisible
from absorbkit.errors import (BudgetError, CapacityError, ConstructionError,
                              ParameterError, PreconditionError)
from absorbkit.exactcover import find_decomposition
from absorbkit.gadgets import (AbsorberCertificate, _check_absorber,
                               anti_edge, booster_lift,
                               build_absorber, fake_edge, find_booster,
                               is_divisibility_equivalent,
                               is_edge_intersecting, lift_booster_q3,
                               rooted_degeneracy, search_absorber,
                               trivial_booster_1d)
from absorbkit.hypercore import (Decomposition, Hypergraph, clique_edges,
                                 decomposition_valid)


def recursive_signed_cover(L, cliques, budget=10 ** 7):
    """Reference absorber search: clique sets (pos, neg) whose edge counts
    differ by chi_L, each at most once per edge, negatives off L; recursive
    backtracking on the first unbalanced edge.  None after a full search."""
    r = L.r
    by_edge = defaultdict(list)
    for C in cliques:
        for e in clique_edges(C, r):
            by_edge[e].append(C)
    cnt = {+1: Counter(), -1: Counter()}
    used = {+1: set(), -1: set()}
    order = sorted(by_edge)
    nodes = [0]

    def pick():
        for e in order:
            bal = cnt[+1][e] - cnt[-1][e]
            t = 1 if e in L.edges else 0
            if bal != t:
                return e, (+1 if bal < t else -1)
        return None

    def fits(C, sign):
        return all(cnt[sign][e] == 0 and (sign > 0 or e not in L.edges)
                   for e in clique_edges(C, r))

    def walk():
        nodes[0] += 1
        if nodes[0] > budget:
            raise BudgetError("reference absorber search budget exhausted")
        chosen = pick()
        if chosen is None:
            return [], []
        e, sign = chosen
        for C in by_edge[e]:
            if C in used[sign] or not fits(C, sign):
                continue
            used[sign].add(C)
            cnt[sign].update(clique_edges(C, r))
            sub = walk()
            if sub is not None:
                pos, neg = sub
                return ([C] + pos, neg) if sign > 0 else (pos, [C] + neg)
            used[sign].discard(C)
            cnt[sign].subtract(clique_edges(C, r))
        return None

    return walk()


def reference_fresh_count(L, q, max_fresh=5):
    """Fewest fresh vertices at which the reference search finds an
    absorber for L, or None."""
    for n_fresh in range(q - L.r, max_fresh + 1):
        cliques = [C for C in itertools.combinations(range(L.n + n_fresh), q)
                   if all(e in L.edges or not set(e) <= set(range(L.n))
                          for e in itertools.combinations(C, L.r))]
        if recursive_signed_cover(L, cliques) is not None:
            return n_fresh
    return None


def divisible_without_triangle_decomposition(count, seed=3):
    """Distinct 6-vertex graphs, C_6 first, that are triangle-divisible but
    have no triangle decomposition."""
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(6), 2))
    out = [Hypergraph(6, 2, [(i, (i + 1) % 6) for i in range(6)])]
    while len(out) < count:
        L = Hypergraph(6, 2, rng.sample(pairs, rng.choice([6, 9, 12])))
        if (L not in out and is_divisible(L, 3)
                and find_decomposition(L, 3) is None):
            out.append(L)
    return out


class TestAntiEdge:
    def test_q3_path(self):
        g = anti_edge((0, 1), 3)
        assert g.roots == (0, 1)
        assert g.W.edges == frozenset({(0, 2), (1, 2)})

    def test_edge_count(self):
        for q, r in [(3, 2), (4, 2), (4, 3), (5, 3)]:
            e = tuple(range(r))
            g = anti_edge(e, q)
            assert g.W.m == comb(q, r) - 1

    def test_union_with_edge_is_clique(self):
        for q, r in [(3, 2), (4, 2), (4, 3)]:
            e = tuple(range(r))
            g = anti_edge(e, q)
            full = Hypergraph(g.W.n, r, g.W.edges | {e})
            verts = tuple(range(q))
            assert full.edges == frozenset(clique_edges(verts, r))


class TestFakeEdge:
    def test_q3_shape(self):
        g = fake_edge((0, 1), 3)
        fresh = g.fresh_vertices()
        assert len(fresh) == 3
        assert g.W.m == 4

    def test_anti_edge_count(self):
        for q, r in [(3, 2), (4, 2), (4, 3)]:
            g = fake_edge(tuple(range(r)), q)
            # one anti-edge, each with comb(q,r)-1 edges, per T != f
            n_anti = comb(q, r) - 1
            assert g.W.m == n_anti * (comb(q, r) - 1)

    def test_divisibility_equivalent_on_k7(self):
        G = Hypergraph.complete(7, 2)
        for f in [(0, 1), (2, 5)]:
            W = fake_edge(f, 3, base=7)
            assert is_divisibility_equivalent(G, f, W, 3)

    def test_equivalence_on_random_hosts(self):
        rng = random.Random(31)
        checked = 0
        while checked < 100:
            n = rng.randint(4, 8)
            pool = list(itertools.combinations(range(n), 2))
            edges = [e for e in pool if rng.random() < 0.6]
            if not edges:
                continue
            G = Hypergraph(n, 2, edges)
            f = edges[rng.randrange(len(edges))]
            W = fake_edge(f, 3, base=n)
            assert is_divisibility_equivalent(G, f, W, 3)
            checked += 1

    def test_wrong_gadget_breaks_equivalence(self):
        # a fresh triangle hanging off one endpoint changes the edge count by
        # 3 but drops f: parity at f's endpoints flips, so some hosts disagree
        G = Hypergraph.complete(7, 2)
        f = (0, 1)
        W_bad = Hypergraph(9, 2, [(7, 8), (0, 7), (0, 8)])
        from absorbkit.gadgets import RootedGadget
        bad = RootedGadget(W=W_bad, roots=f)
        assert not is_divisibility_equivalent(G, f, bad, 3)

    def test_root_mismatch_rejected(self):
        G = Hypergraph.complete(7, 2)
        W = fake_edge((0, 1), 3, base=7)
        with pytest.raises(ParameterError):
            is_divisibility_equivalent(G, (0, 2), W, 3)


class TestBoosters:
    def test_trivial_q2(self):
        b = trivial_booster_1d(2)
        assert set(b.B_on.cliques) == {(0, 1), (2, 3)}
        assert set(b.B_off.cliques) == {(0, 2), (1, 3)}

    def test_trivial_q3_grid(self):
        b = trivial_booster_1d(3)
        assert set(b.B_on.cliques) == {(0, 1, 2), (3, 4, 5)}
        assert set(b.B_off.cliques) == {(0, 1, 5), (2, 3, 4)}

    def test_lift_matches_documented_booster(self):
        b = lift_booster_q3()
        want_edges = {(0, 4), (1, 4), (2, 4), (3, 4), (0, 5), (1, 5), (2, 5),
                      (3, 5), (0, 1), (2, 3), (0, 2), (1, 3)}
        assert b.B.edges == frozenset(want_edges)
        assert set(b.B_on.cliques) == {(0, 1, 4), (2, 3, 4), (0, 2, 5), (1, 3, 5)}
        assert set(b.B_off.cliques) == {(0, 1, 5), (2, 3, 5), (0, 2, 4), (1, 3, 4)}

    def test_double_lift_valid(self):
        b2 = booster_lift(lift_booster_q3())
        assert b2.B.r == 3 and b2.q == 4
        assert not set(b2.B_on.cliques) & set(b2.B_off.cliques)

    def test_nonorthogonal_lift_rejected(self):
        # the 2xq-grid booster's partitions share q-1 points per part, so the
        # lifted families double-cover pairs
        with pytest.raises(ConstructionError):
            booster_lift(trivial_booster_1d(3))

    def test_find_booster_k7(self):
        b = find_booster(3, 2, Hypergraph.complete(7, 2))
        assert b is not None
        assert not set(b.B_on.cliques) & set(b.B_off.cliques)

    def test_find_booster_on_lift_graph(self):
        b = lift_booster_q3()
        found = find_booster(3, 2, b.B)
        assert found is not None

    def test_find_booster_single_triangle_none(self):
        assert find_booster(3, 2, Hypergraph.complete(3, 2)) is None


class TestGirthAnalyzers:
    def test_rooted_degeneracy_gadgets(self):
        f = (0, 1)
        assert rooted_degeneracy(fake_edge(f, 3)) == 2
        assert rooted_degeneracy(anti_edge(f, 3)) == 2


class TestBuildAbsorber:
    def check(self, cert: AbsorberCertificate):
        L, A = cert.L, cert.A
        assert not A.edges & L.edges
        for e in A.edges:
            assert not set(e) <= set(range(L.n)), "V(L) must stay independent"
        assert decomposition_valid(cert.D1.target, cert.D1.cliques, 3)
        assert decomposition_valid(cert.D2.target, cert.D2.cliques, 3)
        assert cert.D1.target.edges == frozenset(set(A.edges) | set(L.edges))
        assert cert.D2.target.edges == A.edges

    def test_triangle_booster_minus_root(self):
        L = Hypergraph(3, 2, [(0, 1), (0, 2), (1, 2)])
        cert = build_absorber(L, 3)
        self.check(cert)
        assert cert.A.m == 9
        # D1 is the on-side of the rooted booster, D2 the off-side minus root
        assert len(cert.D1) == 4 and len(cert.D2) == 3
        assert rooted_degeneracy(
            __import__("absorbkit.gadgets", fromlist=["RootedGadget"]).RootedGadget(
                W=cert.A, roots=(0, 1, 2))) <= 4

    def test_empty(self):
        cert = build_absorber(Hypergraph(4, 2), 3)
        assert cert.A.m == 0 and len(cert.D1) == 0 and len(cert.D2) == 0

    def test_two_disjoint_triangles(self):
        L = Hypergraph(6, 2, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        cert = build_absorber(L, 3)
        self.check(cert)
        assert cert.A.m == 18

    def test_c6_assembly(self):
        L = Hypergraph(6, 2, [(i, (i + 1) % 6) for i in range(6)])
        cert = build_absorber(L, 3)
        self.check(cert)

    def test_bowtie_assembly(self):
        # two triangles sharing one vertex: divisible but not triangle components
        L = Hypergraph(5, 2, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        cert = build_absorber(L, 3)
        self.check(cert)

    def test_random_divisible_graphs(self):
        rng = random.Random(17)
        done = 0
        while done < 6:
            tris = [tuple(sorted(rng.sample(range(6), 3))) for _ in range(rng.randint(2, 3))]
            edges = set()
            for t in tris:
                edges ^= set(clique_edges(t, 2))  # symmetric diff keeps it a cycle-space elt
            L = Hypergraph(6, 2, edges)
            if L.m == 0 or L.m > 12 or not is_divisible(L, 3):
                continue
            cert = build_absorber(L, 3)
            self.check(cert)
            assert cert.edge_intersecting in (True, False)
            done += 1

    def test_rooted_degeneracy_at_most_4(self):
        from absorbkit.gadgets import RootedGadget
        for L in (
            Hypergraph(3, 2, [(0, 1), (0, 2), (1, 2)]),
            Hypergraph(6, 2, [(i, (i + 1) % 6) for i in range(6)]),
            Hypergraph(5, 2, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]),
        ):
            cert = build_absorber(L, 3)
            g = RootedGadget(W=cert.A, roots=tuple(sorted(L.support())))
            assert rooted_degeneracy(g) <= 4

    def test_nondivisible_rejected(self):
        with pytest.raises(PreconditionError):
            build_absorber(Hypergraph(4, 2, [(0, 1)]), 3)

    def test_edge_intersecting_shapes(self):
        e = (0, 1)
        L = Hypergraph(2, 2, [e])
        assert is_edge_intersecting(anti_edge(e, 3), L)


class TestSearchAbsorber:
    def test_triangle_found(self, monkeypatch):
        monkeypatch.setattr(gadgets, "SEARCH_FRESH_CAP", 3)
        L = Hypergraph(3, 2, [(0, 1), (0, 2), (1, 2)])
        cert = search_absorber(L, 3)
        assert decomposition_valid(cert.D1.target, cert.D1.cliques, 3)
        assert decomposition_valid(cert.D2.target, cert.D2.cliques, 3)
        for edge in cert.A.edges:
            assert not set(edge) <= {0, 1, 2}

    def test_same_fewest_fresh_vertices_as_reference(self):
        cases = [(L, 3) for L in divisible_without_triangle_decomposition(6)]
        cases += [(Hypergraph.complete(4, 2), 4), (Hypergraph.complete(4, 3), 4)]
        for L, q in cases:
            cert = search_absorber(L, q)
            _check_absorber(cert)
            assert cert.A.n - L.n == reference_fresh_count(L, q), (sorted(L.edges), q)
            assert cert.D1.target.edges == cert.A.edges | L.edges
            assert cert.D2.target.edges == cert.A.edges

    def test_searched_out_is_capacity_not_budget(self):
        # the cube Q_3 is K_4-divisible with no absorber up to 5 fresh
        # vertices: every count is searched out well inside the budget
        Q3 = Hypergraph(8, 2, [(u, u ^ b) for u in range(8) for b in (1, 2, 4)
                               if u < u ^ b])
        assert is_divisible(Q3, 4)
        with pytest.raises(CapacityError, match="within 5 fresh vertices") as exc:
            search_absorber(Q3, 4)
        assert not isinstance(exc.value, BudgetError)

    def test_budget_error_counts_nodes(self, monkeypatch):
        L = Hypergraph(6, 2, [(i, (i + 1) % 6) for i in range(6)])
        monkeypatch.setattr(gadgets, "DEFAULT_BUDGET", 50)
        with pytest.raises(BudgetError, match="of 50 nodes"):
            search_absorber(L, 3)

    def test_build_absorber_search_path(self):
        # two K_4 sharing vertex 3: K_4-divisible, so q = 4 takes the search
        L = Hypergraph(7, 2, [e for C in ((0, 1, 2, 3), (3, 4, 5, 6))
                              for e in itertools.combinations(C, 2)])
        cert = build_absorber(L, 4)
        _check_absorber(cert)
        assert cert.D1.q == cert.D2.q == 4
        assert cert.D1.target.edges == cert.A.edges | L.edges
