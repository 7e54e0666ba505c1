import itertools
import random
from collections import Counter, defaultdict
from math import inf

import pytest

from absorbkit import nibble
from absorbkit.errors import BudgetError, CapacityError, ParameterError
from absorbkit.exactcover import solve_cover
from absorbkit.hypercore import Hypergraph, Packing, clique_edges, enumerate_cliques
from absorbkit.nibble import (_creates_config, complete_with_reserves,
                              configurations, generate_reserves, girth,
                              high_girth_pack, random_greedy_pack,
                              reserve_candidates, spread_estimate)

PASCH = [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)]


def dfs_girth(P, q, r, g_max):
    """Reference girth: the `configurations` DFS for every g in 2..g_max."""
    for g in range(2, g_max + 1):
        if configurations(P, g, (q - r) * g + r)[0]:
            return g
    return inf


def dfs_high_girth_pack(G, q, g, seed):
    """Reference engine: the high-girth greedy with every g' in 2..g decided
    by the `_creates_config` DFS, with the same pool and RNG calls."""
    pool = enumerate_cliques(G, q)
    random.Random(seed).shuffle(pool)
    covered = set()
    accepted = []
    by_vertex = defaultdict(list)
    by_pair = defaultdict(list)
    for c in pool:
        es = list(clique_edges(c, G.r))
        if any(e in covered for e in es):
            continue
        if g >= 2 and accepted and _creates_config(
                c, accepted, by_vertex, by_pair, q, G.r, g):
            continue
        idx = len(accepted)
        accepted.append(c)
        for v in c:
            by_vertex[v].append(idx)
        for pr in itertools.combinations(c, 2):
            by_pair[pr].append(idx)
        covered.update(es)
    return accepted, G.edges - covered


def tuple_set_random_greedy(G, q, seed):
    """Reference engine: random greedy on a set of covered edge tuples,
    with the RNG calls of the mask engine in the same order."""
    pool = enumerate_cliques(G, q)
    random.Random(seed).shuffle(pool)
    covered = set()
    chosen = []
    for c in pool:
        es = list(clique_edges(c, G.r))
        if not any(e in covered for e in es):
            covered.update(es)
            chosen.append(c)
    return chosen, G.edges - covered


def probe_prune(options):
    """Reference probing: failed-literal propagation over (payload,
    [primary] + side) options, each covering one primary item, listed
    first, and otherwise only at-most-once items.  Returns the surviving
    options in input order, or None when a primary item loses them all."""
    foot = [cov[0] for _, cov in options]
    by_item = defaultdict(int)
    for i, (_, cov) in enumerate(options):
        for it in cov:
            by_item[it] |= 1 << i
    conflict = []
    for i, (_, cov) in enumerate(options):
        m = 0
        for it in cov:
            m |= by_item[it]
        conflict.append(m & ~(1 << i))

    def refuted(i, alive):
        chosen = dead = 0
        stack = [i]
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
            feet = set()
            while kill:
                low = kill & -kill
                feet.add(foot[low.bit_length() - 1])
                kill ^= low
            for e in feet:
                left = by_item[e] & alive & ~dead
                if not left:
                    return True
                if not left & (left - 1):
                    stack.append(left.bit_length() - 1)
        return False

    alive = (1 << len(options)) - 1
    changed = True
    while changed:
        changed = False
        for i in range(len(options)):
            if alive >> i & 1 and refuted(i, alive):
                alive &= ~(1 << i)
                changed = True
                if not by_item[foot[i]] & alive:
                    return None
    return [opt for i, opt in enumerate(options) if alive >> i & 1]


def tuple_set_completion(G, X, partial, q, seed, retries, fallback_budget,
                         stats):
    """Reference completion: candidate lists per leftover edge, greedy on a
    set of available reserve edges, then `probe_prune` and `solve_cover`."""
    leftover = sorted(G.edges - partial.covered_edges())
    union_host = Hypergraph(max(G.n, X.n), G.r, set(G.edges) | set(X.edges))
    rng = random.Random(seed)
    all_cands = {e: reserve_candidates(e, G, set(X.edges), q) for e in leftover}
    usage = Counter(f for cands in all_cands.values() for Q in cands
                    for f in clique_edges(Q, G.r) if f in X.edges)
    stats["max_reserve_edge_usage"] = max(usage.values(), default=0)
    stats["min_candidates"] = min((len(v) for v in all_cands.values()), default=0)
    if any(not v for v in all_cands.values()):
        stats["reason"] = "no-candidate"
        return None
    for _ in range(retries):
        order = leftover[:]
        rng.shuffle(order)
        avail = set(X.edges)
        chosen = []
        for e in order:
            cands = [Q for Q in all_cands[e]
                     if all(f == e or f in avail for f in clique_edges(Q, G.r))]
            if not cands:
                break
            Q = cands[rng.randrange(len(cands))]
            chosen.append(Q)
            avail.difference_update(clique_edges(Q, G.r))
        else:
            stats["fallback_used"] = False
            return Packing(union_host, list(partial.cliques) + chosen, q)
    stats["fallback_used"] = True
    options = [(Q, [e] + [f for f in clique_edges(Q, G.r) if f != e])
               for e in leftover for Q in all_cands[e]]
    pruned = probe_prune(options)
    sol = None
    if pruned is not None:
        secondary = {f for _, cov in pruned for f in cov[1:]}
        sol = solve_cover(leftover, pruned, secondary=secondary,
                          budget=fallback_budget)
    if sol is None:
        stats["reason"] = "infeasible"
        return None
    return Packing(union_host, list(partial.cliques) + sol, q)


def equivalence_instances():
    """(label, host, q, seed) at two seeds per host: complete graphs,
    random graphs and 3-uniform hosts."""
    rng = random.Random(2024)
    base = []
    for n in (7, 9, 13, 21, 31, 61):
        base.append((f"K{n}", Hypergraph.complete(n, 2), 3))
    for i in range(10):
        n = rng.randint(6, 16)
        p = rng.choice((0.5, 0.7, 0.9))
        G = Hypergraph(n, 2, [e for e in itertools.combinations(range(n), 2)
                              if rng.random() < p])
        base.append((f"G{i}-n{n}", G, 3 + i % 2))
    for n in (6, 7, 8):
        base.append((f"K{n}^3", Hypergraph.complete(n, 3), 4))
    G = Hypergraph(9, 3, [e for e in itertools.combinations(range(9), 3)
                          if rng.random() < 0.8])
    base.append(("G-n9^3", G, 4))
    return [(f"{label}-seed{seed}", G, q, seed)
            for j, (label, G, q) in enumerate(base) for seed in (j, j + 50)]


class TestRandomGreedy:
    def test_conservation_k7(self):
        P, left = random_greedy_pack(Hypergraph.complete(7, 2), 3, seed=1)
        assert len(P) <= 7
        assert P.covered_edges() | left.edges == Hypergraph.complete(7, 2).edges
        assert not P.covered_edges() & left.edges

    def test_determinism(self):
        a, _ = random_greedy_pack(Hypergraph.complete(13, 2), 3, seed=5)
        b, _ = random_greedy_pack(Hypergraph.complete(13, 2), 3, seed=5)
        assert a.cliques == b.cliques

    def test_leftover_small_at_n51(self):
        G = Hypergraph.complete(51, 2)
        _, left = random_greedy_pack(G, 3, seed=7)
        assert left.m / G.m < 0.2

    def test_same_cliques_and_leftover_as_tuple_sets(self):
        instances = equivalence_instances()
        assert len(instances) >= 40
        for label, G, q, seed in instances:
            P, left = random_greedy_pack(G, q, seed=seed)
            chosen, uncovered = tuple_set_random_greedy(G, q, seed)
            assert P.cliques == tuple(sorted(chosen)), label
            assert left.edges == uncovered, label


class TestReserves:
    def test_p_zero(self):
        rs = generate_reserves(10, 3, 2, 0.0, seed=1)
        assert rs.X.m == 0
        assert all(v == 0 for v in rs.counts.values())

    def test_needs_n_at_least_q_above_r(self):
        for n, q, r in ((1, 3, 2), (0, 3, 2), (9, 2, 2), (9, 3, 0), (2, 3, 2)):
            with pytest.raises(ParameterError):
                generate_reserves(n, q, r, 0.3, seed=1)

    def test_counts_exact_small(self):
        rs = generate_reserves(8, 3, 2, 0.5, seed=3)
        assert set(rs.counts) == Hypergraph.complete(8, 2).edges - rs.X.edges
        for e, cnt in rs.counts.items():
            want = 0
            for w in range(8):
                if w in e:
                    continue
                if all(tuple(sorted((v, w))) in rs.X.edges for v in e):
                    want += 1
            assert cnt == want

    def test_flags_present(self):
        rs = generate_reserves(20, 3, 2, 0.3, seed=4)
        for key in ("degree_ok", "count_ok", "count_ok_verbatim",
                    "count_ok_high_min_degree"):
            assert key in rs.flags


class TestCompletion:
    def test_empty_leftover_identity(self):
        G = Hypergraph(6, 2, list(clique_edges((0, 1, 2), 2)) +
                       list(clique_edges((3, 4, 5), 2)))
        partial = Packing(G, [(0, 1, 2), (3, 4, 5)])
        X = Hypergraph(6, 2, [])
        out = complete_with_reserves(G, X, partial, 3, seed=1)
        assert out is not None and set(out.cliques) == set(partial.cliques)

    def test_single_edge_completion(self):
        G = Hypergraph(4, 2, [(0, 1)])
        X = Hypergraph(4, 2, [(0, 2), (1, 2), (0, 3), (1, 3)])
        partial = Packing(G, [], q=3)
        out = complete_with_reserves(G, X, partial, 3, seed=2)
        assert out is not None and len(out) == 1
        (Q,) = out.cliques
        assert (0, 1) in clique_edges(Q, 2)

    def test_exact_cover_fallback(self, monkeypatch):
        # (0,1) can go through apex 4 or 5, but (0,2) must use 4: only the
        # assignment (0,1)->5, (0,2)->4 works, and with no retries the greedy
        # phase is skipped so the exact cover fallback must find it
        monkeypatch.setattr(nibble, "RETRIES", 0)
        G = Hypergraph(6, 2, [(0, 1), (0, 2)])
        X = Hypergraph(6, 2, [(0, 4), (1, 4), (0, 5), (1, 5), (2, 4)])
        partial = Packing(G, [], q=3)
        stats = {}
        out = complete_with_reserves(G, X, partial, 3, seed=0, stats=stats)
        assert out is not None
        assert stats["fallback_used"]
        assert {tuple(sorted(c)) for c in out.cliques} == {(0, 1, 5), (0, 2, 4)}

    def test_impossible_none(self):
        G = Hypergraph(5, 2, [(0, 1)])
        X = Hypergraph(5, 2, [(0, 2)])  # no completing pair
        partial = Packing(G, [], q=3)
        stats = {}
        assert complete_with_reserves(G, X, partial, 3, seed=1, stats=stats) is None
        assert stats["reason"] == "no-candidate"

    def test_conflict_certified_infeasible(self):
        # each edge has one candidate, apex 3, and both need (0, 3)
        G = Hypergraph(4, 2, [(0, 1), (0, 2)])
        X = Hypergraph(4, 2, [(0, 3), (1, 3), (2, 3)])
        stats = {}
        out = complete_with_reserves(G, X, Packing(G, [], q=3), 3, seed=0,
                                     stats=stats)
        assert out is None
        assert stats["fallback_used"] and stats["reason"] == "infeasible"

    def test_budget_exhausted_raises(self, monkeypatch):
        # feasible, but the exact cover fallback gets no nodes to spend
        monkeypatch.setattr(nibble, "RETRIES", 0)
        monkeypatch.setattr(nibble, "FALLBACK_BUDGET", 0)
        G = Hypergraph(6, 2, [(0, 1), (0, 2)])
        X = Hypergraph(6, 2, [(0, 4), (1, 4), (0, 5), (1, 5), (2, 4)])
        stats = {}
        with pytest.raises(BudgetError):
            complete_with_reserves(G, X, Packing(G, [], q=3), 3, seed=0,
                                   stats=stats)
        assert "reason" not in stats

    def test_fallback_verdict_matches_brute_force(self, monkeypatch):
        monkeypatch.setattr(nibble, "RETRIES", 0)
        rng = random.Random(61)
        verdicts = set()
        for _ in range(60):
            n = rng.randint(5, 7)
            pool = list(itertools.combinations(range(n), 2))
            rng.shuffle(pool)
            k = rng.randint(1, 4)
            G = Hypergraph(n, 2, pool[:k])
            X = Hypergraph(n, 2, [e for e in pool[k:] if rng.random() < 0.6])
            cands = [reserve_candidates(e, G, set(X.edges), 3)
                     for e in sorted(G.edges)]
            feasible = False
            for pick in itertools.product(*cands):
                used = [f for Q in pick for f in clique_edges(Q, 2)
                        if f in X.edges]
                if len(used) == len(set(used)):
                    feasible = True
                    break
            stats = {}
            out = complete_with_reserves(G, X, Packing(G, [], q=3), 3,
                                         seed=0, stats=stats)
            assert (out is not None) == feasible
            verdicts.add(stats.get("reason", "completed"))
        assert verdicts == {"completed", "no-candidate", "infeasible"}

    def test_matches_tuple_set_reference(self, monkeypatch):
        # seeded reserve instances, where random greedy leaves many edges,
        # and small random ones, where the greedy pass often completes;
        # each runs with RETRIES greedy passes and with none
        cases = []
        for n, p in ((25, 0.4), (40, 0.35)):
            for seed in range(20):
                rs = generate_reserves(n, 3, 2, p, seed=seed)
                G = Hypergraph(n, 2, Hypergraph.complete(n, 2).edges - rs.X.edges)
                partial, _ = random_greedy_pack(G, 3, seed=seed)
                cases.append((G, rs.X, partial, seed))
        rng = random.Random(13)
        for seed in range(40):
            n = rng.randint(6, 9)
            pool = list(itertools.combinations(range(n), 2))
            rng.shuffle(pool)
            k = rng.randint(1, 5)
            G = Hypergraph(n, 2, pool[:k])
            X = Hypergraph(n, 2, [e for e in pool[k:] if rng.random() < 0.7])
            cases.append((G, X, Packing(G, [], q=3), seed))
        seen = Counter()
        for retries in (nibble.RETRIES, 0):
            monkeypatch.setattr(nibble, "RETRIES", retries)
            for G, X, partial, seed in cases:
                stats, want_stats = {}, {}
                out = complete_with_reserves(G, X, partial, 3, seed=seed,
                                             stats=stats)
                want = tuple_set_completion(G, X, partial, 3, seed, retries,
                                            nibble.FALLBACK_BUDGET, want_stats)
                assert stats == want_stats
                assert (None if out is None else out.cliques) == \
                    (None if want is None else want.cliques)
                seen[stats.get("reason", "completed"),
                     stats.get("fallback_used")] += 1
        assert set(seen) == {("completed", False), ("completed", True),
                             ("no-candidate", None), ("infeasible", True)}

    def test_one_foot_property(self):
        rs = generate_reserves(25, 3, 2, 0.4, seed=9)
        G = Hypergraph(25, 2, Hypergraph.complete(25, 2).edges - rs.X.edges)
        partial, _ = random_greedy_pack(G, 3, seed=9)
        out = complete_with_reserves(G, rs.X, partial, 3, seed=9)
        if out is not None:
            new = set(out.cliques) - set(partial.cliques)
            for Q in new:
                in_g = [e for e in clique_edges(Q, 2) if e in G.edges]
                assert len(in_g) == 1


class TestConfigurations:
    def test_two_triangles_sharing_vertex(self):
        cnt, wit = configurations([(0, 1, 2), (0, 3, 4)], 2, 5)
        assert cnt == 1 and len(wit) == 1

    def test_no_42_in_packing(self):
        cnt, _ = configurations([(0, 1, 2), (0, 3, 4), (1, 3, 5)], 2, 4)
        assert cnt == 0

    def test_pasch_is_unique_64(self):
        cnt, wit = configurations(PASCH, 4, 6)
        assert cnt == 1
        assert set(wit[0]) == set(PASCH)

    def test_matches_naive_oracle(self):
        rng = random.Random(20)
        for _ in range(50):
            cl = set()
            while len(cl) < rng.randint(3, 12):
                cl.add(tuple(sorted(rng.sample(range(10), 3))))
            cl = sorted(cl)
            i = rng.randint(1, 4)
            j = rng.randint(3, 9)
            cnt, _ = configurations(cl, i, j)
            naive = sum(1 for sub in itertools.combinations(cl, i)
                        if len({v for c in sub for v in c}) <= j)
            assert cnt == naive, (cl, i, j)

    def test_mixed_clique_sizes_match_naive_oracle(self):
        # the overlap a clique needs is set by the smallest clique, not by
        # the next one in the list: here (0, 7) meets the union in 1 vertex
        assert configurations([(0, 1, 2), (3, 4, 5, 6), (0, 7)], 2, 5)[0] == 1
        rng = random.Random(21)
        for _ in range(50):
            cl = sorted({tuple(sorted(rng.sample(range(9), rng.randint(2, 4))))
                         for _ in range(rng.randint(3, 10))})
            i, j = rng.randint(1, 4), rng.randint(3, 9)
            naive = sum(1 for sub in itertools.combinations(cl, i)
                        if len({v for c in sub for v in c}) <= j)
            assert configurations(cl, i, j)[0] == naive, (cl, i, j)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            configurations(PASCH, 7, 10)

    def test_creates_config_matches_brute_force(self):
        rng = random.Random(44)
        for _ in range(150):
            n = rng.randint(6, 10)
            accepted = [tuple(sorted(rng.sample(range(n), 3)))
                        for _ in range(rng.randint(1, 9))]
            by_vertex, by_pair = defaultdict(list), defaultdict(list)
            for idx, c in enumerate(accepted):
                for v in c:
                    by_vertex[v].append(idx)
                for pr in itertools.combinations(c, 2):
                    by_pair[pr].append(idx)
            cand = tuple(sorted(rng.sample(range(n), 3)))
            for gp in range(2, 6):
                brute = any(len(set(cand).union(*sub)) <= gp + 2
                            for sub in itertools.combinations(accepted, gp - 1))
                got = _creates_config(cand, accepted, by_vertex, by_pair,
                                      3, 2, gp, lo=gp)
                assert got == brute, (cand, accepted, gp)


class TestGirth:
    def test_pasch_packing_girth_4(self):
        assert girth(PASCH, 3, 2) == 4

    def test_triangle_packing_never_2(self):
        rng = random.Random(6)
        for _ in range(10):
            G = Hypergraph.complete(9, 2)
            P, _ = random_greedy_pack(G, 3, seed=rng.randrange(999))
            cnt, _ = configurations(P.cliques, 2, 4)
            assert cnt == 0

    def test_empty_packing(self):
        assert girth([], 3, 2) is inf

    def test_sts7_girth(self):
        from absorbkit.exactcover import find_decomposition
        D = find_decomposition(Hypergraph.complete(7, 2), 3)
        # every STS(7) is the Fano plane, which holds 7 Pasch configurations
        assert girth(D.cliques, 3, 2, g_max=4) == 4

    def test_matches_dfs_on_random_triangle_lists(self):
        from absorbkit.pipeline import oracle_steiner
        rng = random.Random(31)
        # STS(9) holds no Pasch, STS(13) does
        systems = [oracle_steiner(9).cliques, oracle_steiner(13).cliques]
        seen = set()
        for trial in range(300):
            if trial % 3 == 0:
                # arbitrary triangles: mostly non-linear, repeats allowed
                cl = [tuple(rng.sample(range(9), 3))
                      for _ in range(rng.randint(1, 10))]
            else:
                # linear: a relabelled random part of an STS
                sts = systems[trial % 2]
                perm = list(range(13))
                rng.shuffle(perm)
                part = rng.sample(sts, rng.randint(1, len(sts)))
                cl = [tuple(perm[v] for v in c) for c in part]
            for g_max in range(2, 6):
                got = girth(cl, 3, 2, g_max=g_max)
                assert got == dfs_girth(cl, 3, 2, g_max), (cl, g_max)
                seen.add(got)
        assert seen == {2, 4, 5, inf}

    def test_matches_dfs_on_oracle_steiner(self):
        from absorbkit.pipeline import oracle_steiner
        got = {}
        for n in range(7, 28):
            if n % 6 not in (1, 3):
                continue
            D = oracle_steiner(n)
            for g_max in (4, 5):
                got[n, g_max] = girth(D, 3, 2, g_max=g_max)
                assert got[n, g_max] == dfs_girth(D.cliques, 3, 2, g_max), (n, g_max)
        assert got[7, 4] == got[21, 4] == 4 and got[27, 4] is inf


class TestHighGirth:
    def test_g2_equals_plain_packing(self):
        G = Hypergraph.complete(10, 2)
        P, left = high_girth_pack(G, 3, 2, seed=4)
        assert P.covered_edges() | left.edges == G.edges
        cnt, _ = configurations(P.cliques, 2, 4)
        assert cnt == 0

    def test_pasch_free_k15(self):
        G = Hypergraph.complete(15, 2)
        P, left = high_girth_pack(G, 3, 4, seed=1)
        assert girth(P.cliques, 3, 2, g_max=4) is inf
        assert P.covered_edges() | left.edges == G.edges

    def test_matches_dfs_reference(self):
        rng = random.Random(12)
        hosts = [(Hypergraph.complete(n, 2), 3) for n in (7, 9, 12, 15, 19)]
        for _ in range(6):
            n = rng.randint(8, 14)
            hosts.append((Hypergraph(n, 2, [e for e in itertools.combinations(range(n), 2)
                                            if rng.random() < 0.7]), 3))
        hosts += [(Hypergraph.complete(n, 3), 4) for n in (5, 6, 7)]
        hosts.append((Hypergraph(8, 3, [e for e in itertools.combinations(range(8), 3)
                                        if rng.random() < 0.8]), 4))
        cases = [(G, q, g, seed) for G, q in hosts for g in range(2, 6) for seed in range(2)]
        cases += [(Hypergraph.complete(40, 2), 3, 4, seed) for seed in range(2)]
        for G, q, g, seed in cases:
            P, left = high_girth_pack(G, q, g, seed=seed)
            ref, ref_left = dfs_high_girth_pack(G, q, g, seed)
            assert P.cliques == tuple(sorted(ref)), (G, q, g, seed)
            assert left.edges == ref_left, (G, q, g, seed)

    def test_no_veto_below_g4_on_triangles(self):
        # edge-disjoint triangles close no configuration with g <= 3, so the
        # packer is plain random greedy there
        rng = random.Random(5)
        cases = [(Hypergraph.complete(n, 2), seed) for n in (9, 16, 31) for seed in range(3)]
        cases.append((Hypergraph(14, 2, [e for e in itertools.combinations(range(14), 2)
                                         if rng.random() < 0.6]), 4))
        for G, seed in cases:
            want = random_greedy_pack(G, 3, seed=seed)
            for g in (2, 3):
                P, left = high_girth_pack(G, 3, g, seed=seed)
                assert (P.cliques, left) == (want[0].cliques, want[1]), (G, g, seed)


class TestSpread:
    def test_deterministic_sampler_sigma_one(self):
        fixed = [(0, 1, 2), (3, 4, 5)]
        res = spread_estimate(lambda s: fixed, trials=50, seed=1)
        assert res["sigma_hat"] == 1.0

    def test_exact_sts7(self):
        from absorbkit.exactcover import enumerate_decompositions
        sols = enumerate_decompositions(Hypergraph.complete(7, 2), 3)
        res = spread_estimate(None, trials=0, exact_decompositions=sols)
        assert abs(res["prob"] - 1 / 5) < 1e-12

    def test_exact_without_decomposition_rejected(self):
        # K_8 has no triangle decomposition: no spread to report
        from absorbkit.exactcover import enumerate_decompositions
        sols = enumerate_decompositions(Hypergraph.complete(8, 2), 3)
        assert sols == []
        for family in (sols, [[]]):
            with pytest.raises(ParameterError, match="need a nonempty decomposition"):
                spread_estimate(None, trials=0, exact_decompositions=family)

    def test_packing_tie_rule(self):
        # exact mode keeps the first most-contained clique met, Monte Carlo
        # the smallest
        res = spread_estimate(None, trials=0, exact_decompositions=[[(3, 4, 5)], [(0, 1, 2)]])
        assert (res["packing"], res["prob"]) == (((3, 4, 5),), 0.5)
        res = spread_estimate(lambda s: [(3, 4, 5), (0, 1, 2)], trials=5, seed=0)
        assert (res["packing"], res["prob"]) == (((0, 1, 2),), 1.0)

    def test_unreliable_sampler_rejected(self):
        from absorbkit.errors import ReliabilityError
        with pytest.raises(ReliabilityError):
            spread_estimate(lambda s: None, trials=20, seed=2)

    def test_monte_carlo_consistency(self):
        from absorbkit.exactcover import enumerate_decompositions
        sols = enumerate_decompositions(Hypergraph.complete(7, 2), 3)

        def sampler(seed):
            return sols[random.Random(seed).randrange(len(sols))]

        a = spread_estimate(sampler, trials=400, seed=3)
        b = spread_estimate(sampler, trials=800, seed=4)
        assert abs(a["sigma_hat"] - b["sigma_hat"]) < 0.12
