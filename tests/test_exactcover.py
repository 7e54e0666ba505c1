import itertools
import random
from collections import Counter

import pytest

from absorbkit.errors import BudgetError, ParameterError
from absorbkit.exactcover import (CoverInstance, _Budget, _engine, _refute, _search,
                                  _triangle_search, count_decompositions, enumerate_decompositions,
                                  find_decomposition, find_two_disjoint_decompositions,
                                  solve_cover)
from absorbkit.hypercore import (Decomposition, Hypergraph, MultiHypergraph,
                                 clique_edges, decomposition_valid, enumerate_cliques)


# Reference engines: the recursive dict-of-sets solvers that the explicit-stack
# engine replaced, kept to check that first solutions, enumeration order and
# nodes spent are unchanged.  Instances are (demand Counter, [(payload, items)],
# secondary set); `exclude` drops options by payload.

def reference_instance(G, q):
    if isinstance(G, MultiHypergraph):
        demand = Counter(G.mult)
        simple = G.simple()
    else:
        demand = Counter({e: 1 for e in G.edges})
        simple = G
    options = [(c, list(clique_edges(c, G.r))) for c in enumerate_cliques(simple, q)]
    return demand, options, set()


def reference_solve_simple(inst, budget, cap, exclude=frozenset()):
    demand, options, secondary = inst
    X = {e: set() for e in demand}
    for s in secondary:
        X.setdefault(s, set())
    Y = {}
    payload = {}
    for idx, (c, cov) in enumerate(options):
        if c in exclude:
            continue
        Y[idx] = cov
        payload[idx] = c
        for e in cov:
            X[e].add(idx)
    primary = list(demand)

    def select(opt):
        cols = []
        for j in Y[opt]:
            for i in X[j]:
                for k in Y[i]:
                    if k != j:
                        X[k].discard(i)
            cols.append((j, X.pop(j)))
        return cols

    def deselect(cols):
        for j, col in reversed(cols):
            X[j] = col
            for i in col:
                for k in Y[i]:
                    if k != j:
                        X[k].add(i)

    found = [0]

    def walk(solution):
        open_primary = [e for e in primary if e in X]
        if not open_primary:
            found[0] += 1
            yield [payload[i] for i in solution]
            return
        c = min(open_primary, key=lambda e: len(X[e]))
        for opt in sorted(X[c]):
            budget.spend()
            solution.append(opt)
            cols = select(opt)
            yield from walk(solution)
            deselect(cols)
            solution.pop()
            if cap is not None and found[0] >= cap:
                return

    yield from walk([])


def reference_solve_demand(inst, budget, cap, exclude=frozenset()):
    demand, all_options, _ = inst
    options = [(c, cov) for c, cov in all_options if c not in exclude]
    remaining = Counter(demand)
    by_item = {e: [] for e in remaining}
    for idx, (c, cov) in enumerate(options):
        for e in cov:
            by_item[e].append(idx)
    found = [0]

    def usable(idx):
        return all(remaining[e] > 0 for e in options[idx][1])

    def walk(solution, floors):
        open_items = [e for e in remaining if remaining[e] > 0]
        if not open_items:
            found[0] += 1
            yield [options[i][0] for i in solution]
            return
        c = min(open_items, key=lambda e: (sum(1 for i in by_item[e] if usable(i)), e))
        floor = floors.get(c, 0)
        for idx in by_item[c]:
            if idx < floor or not usable(idx):
                continue
            budget.spend()
            for e in options[idx][1]:
                remaining[e] -= 1
            solution.append(idx)
            old = floors.get(c)
            floors[c] = idx
            yield from walk(solution, floors)
            if old is None:
                del floors[c]
            else:
                floors[c] = old
            solution.pop()
            for e in options[idx][1]:
                remaining[e] += 1
            if cap is not None and found[0] >= cap:
                return

    yield from walk([], {})


def naive_decomposition_count(G, q):
    """Subset-enumeration oracle for small simple targets: every subset of
    the options is tried, and the pairwise-disjoint ones covering every
    item are counted."""
    inst = CoverInstance.from_graph(G, q)
    full = (1 << len(inst.cols)) - 1
    masks = [sum(1 << i for i in row) for row in inst.rows]
    count = 0
    for pick in range(1 << len(masks)):
        got = 0
        for k, mask in enumerate(masks):
            if pick >> k & 1:
                if got & mask:
                    break
                got |= mask
        else:
            count += got == full
    return count


def run_reference(G, q, cap, nodes=10 ** 7):
    budget = _Budget(nodes)
    solver = (reference_solve_demand if isinstance(G, MultiHypergraph)
              else reference_solve_simple)
    sols = list(solver(reference_instance(G, q), budget, cap))
    return sols, budget.limit - budget.left


def run_engine(G, q, cap, nodes=10 ** 7):
    """The engine behind the public functions: the triangle engine for
    graphs and q = 3, else `_search` on the instance."""
    budget = _Budget(nodes)
    sols = list(_engine(G, q)(budget, cap))
    return sols, budget.limit - budget.left


def run_until_spent(search, budget):
    """The solutions a search yields, then "spent" if it raised
    BudgetError, and the nodes it spent."""
    sols = []
    try:
        for sol in search:
            sols.append(sol)
    except BudgetError:
        sols.append("spent")
    return sols, budget.limit - budget.left


def k_times(n, k):
    """K_n with every edge k times."""
    return MultiHypergraph(n, 2, {e: k for e in itertools.combinations(range(n), 2)})


def planted_triangles(rng, n, tries):
    """Edge-disjoint random triangles on n vertices."""
    used, out = set(), []
    for _ in range(tries):
        t = tuple(sorted(rng.sample(range(n), 3)))
        es = list(itertools.combinations(t, 2))
        if not used.intersection(es):
            used.update(es)
            out.append(t)
    return out


def random_graph(rng, n):
    """Half the time a union of edge-disjoint triangles, which always has a
    decomposition; else a G(n, p) graph."""
    if rng.random() < 0.5:
        ts = planted_triangles(rng, n, rng.randint(2, 3 * n))
        return Hypergraph(n, 2, [e for t in ts for e in itertools.combinations(t, 2)])
    p = rng.choice([0.5, 0.7, 0.9])
    return Hypergraph(n, 2, [e for e in itertools.combinations(range(n), 2)
                             if rng.random() < p])


class TestFindDecomposition:
    def test_sts7(self):
        D = find_decomposition(Hypergraph.complete(7, 2), 3)
        assert D is not None and len(D) == 7

    def test_k6_none(self):
        assert find_decomposition(Hypergraph.complete(6, 2), 3) is None

    def test_k4_minus_edge_none(self):
        G = Hypergraph(4, 2, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert find_decomposition(G, 3) is None

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

    def test_negative_budget_rejected(self):
        """A negative node budget is a ParameterError, not a spent budget;
        a budget of 0 allows no node."""
        K7 = Hypergraph.complete(7, 2)
        for search in (find_decomposition, count_decompositions,
                       enumerate_decompositions, find_two_disjoint_decompositions):
            with pytest.raises(ParameterError, match="at least 0"):
                search(K7, 3, budget=-1)
        with pytest.raises(ParameterError):
            solve_cover([1], [("x", [1])], budget=-5)
        with pytest.raises(BudgetError, match="0 of 0 nodes"):
            find_decomposition(K7, 3, budget=0)
        assert count_decompositions(Hypergraph(3, 2), 3, budget=0) == (1, False)

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

    def test_cap_below_one_rejected(self):
        K7 = Hypergraph.complete(7, 2)
        for cap in (0, -1):
            with pytest.raises(ParameterError):
                count_decompositions(K7, 3, cap=cap)
            with pytest.raises(ParameterError):
                enumerate_decompositions(K7, 3, cap=cap)
        assert len(enumerate_decompositions(K7, 3, cap=1)) == 1

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

    def test_repeated_item_rejected(self):
        with pytest.raises(ParameterError, match="twice"):
            solve_cover([1, 2], [("x", [1, 1]), ("y", [2])])


class TestAgainstReference:
    """Same solutions, in the same order, for the same nodes spent."""

    @pytest.mark.parametrize("n", [3, 4, 6, 7, 8, 9, 13, 15, 19, 21, 25, 27, 31, 33, 37])
    def test_complete_first_solution(self, n):
        G = Hypergraph.complete(n, 2)
        assert run_engine(G, 3, 1) == run_reference(G, 3, 1)

    @pytest.mark.parametrize("n, cap", [(7, None), (9, None), (13, 10 ** 3)])
    def test_complete_counts(self, n, cap):
        G = Hypergraph.complete(n, 2)
        got = run_engine(G, 3, cap)
        assert got == run_reference(G, 3, cap)
        assert len(got[0]) == {7: 30, 9: 840, 13: 10 ** 3}[n]

    def test_random_graphs_all_solutions(self):
        rng = random.Random(7)
        for _ in range(300):
            G = random_graph(rng, rng.randint(4, 10))
            assert run_engine(G, 3, None) == run_reference(G, 3, None), G.edges

    def test_three_uniform_targets(self):
        for n in (5, 6, 8):
            G = Hypergraph.complete(n, 3)
            assert run_engine(G, 4, 50) == run_reference(G, 4, 50)

    def test_multigraph_targets(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(3, 6)
            mult = Counter()
            for _ in range(rng.randint(1, 4)):
                t = rng.sample(range(n), 3)
                for e in itertools.combinations(sorted(t), 2):
                    mult[e] += 1
            if rng.random() < 0.3:   # some targets have no decomposition
                mult[tuple(sorted(rng.sample(range(n), 2)))] += 1
            J = MultiHypergraph(n, 2, dict(mult))
            assert run_engine(J, 3, None) == run_reference(J, 3, None), mult

    @staticmethod
    def check_cover(primary, secondary, options, exclude, cap):
        """_search and solve_cover against reference_solve_simple; returns
        the engine's instance."""
        ref_inst = (Counter({it: 1 for it in primary}), options, set(secondary))
        b_ref = _Budget(10 ** 6)
        want = list(reference_solve_simple(ref_inst, b_ref, cap, exclude))
        items = primary + secondary
        ids = {it: i for i, it in enumerate(items)}
        inst = CoverInstance(len(items), [1] * len(primary), [k for k, _ in options],
                             [tuple(ids[it] for it in cov) for _, cov in options])
        b_new = _Budget(10 ** 6)
        got = list(_search(inst, b_new, cap, exclude))
        assert got == want and b_new.left == b_ref.left, (options, exclude, cap)
        if not exclude:
            assert solve_cover(primary, options, secondary) == (want[0] if want else None)
        return inst

    def test_solve_cover_with_secondary_and_exclude(self):
        rng = random.Random(3)
        for _ in range(150):
            primary = [f"p{i}" for i in range(rng.randint(1, 7))]
            secondary = [f"s{i}" for i in range(rng.randint(0, 3))]
            items = primary + secondary
            options = []
            for k in range(rng.randint(1, 14)):
                cov = rng.sample(items, rng.randint(1, min(3, len(items))))
                options.append((k, cov))
            exclude = frozenset(k for k, _ in options if rng.random() < 0.2)
            self.check_cover(primary, secondary, options, exclude,
                             rng.choice([None, 1, 2]))

    @pytest.mark.parametrize("width", [127, 128, 200])
    def test_wide_column_with_secondary_and_exclude(self, width):
        """Item p0 lies on `width` options, on both sides of 128, the
        bound below which every live count would fit a byte."""
        rng = random.Random(width)
        primary = [f"p{i}" for i in range(6)]
        secondary = ["s0", "s1", "s2"]
        others = primary[1:] + secondary
        for _ in range(6):
            options = [(k, ["p0"] + rng.sample(others, rng.randint(0, 2)))
                       for k in range(width)]
            options += [(width + k, rng.sample(others, rng.randint(1, 3)))
                        for k in range(16)]
            exclude = frozenset(k for k, _ in options if rng.random() < 0.2)
            for cap in (None, 1, 3):
                inst = self.check_cover(primary, secondary, options, exclude, cap)
                assert len(inst.cols[0]) == width
            self.check_cover(primary, secondary, options, frozenset(), None)
        # once f is covered its raised count must not be taken for w's
        # live count
        forced = [(0, ["f"])] + [(k, ["w"]) for k in range(1, width + 1)]
        self.check_cover(["f", "w"], [], forced, frozenset(), None)

    @staticmethod
    def latin_host(rng, n, keep):
        """K_{n,n,n} less the triangles of a partial Latin square: a random
        isotope of the cyclic square of order n with each cell kept with
        probability `keep`.  Its decompositions are the completions of the
        square, and the search backtracks on the way to them."""
        rows, cols, syms = (rng.sample(range(n), n) for _ in range(3))
        edges = set()
        for i in range(n):
            for j in range(n):
                if rng.random() >= keep:
                    s = 2 * n + syms[(rows[i] + cols[j]) % n]
                    edges.update(((i, n + j), (i, s), (n + j, s)))
        return Hypergraph(3 * n, 2, edges)

    def test_triangle_engine_matches_instance_search(self):
        """_triangle_search and _search on from_graph(G, 3): the same
        solutions in the same order, the same nodes spent, and a
        BudgetError at the same node, under caps, budgets and exclusions.

        K_129 puts every pair on 127 triangles, where the counts fit a byte
        and covered pairs read 128; K_132 less a perfect matching (128) and
        K_133 (131) keep them in a list; each is searched to its first
        solution.  The Latin hosts backtrack, so branch pairs are chosen
        after undos."""
        rng = random.Random(13)
        runs = ((None, 10 ** 5), (1, 10 ** 5), (3, 60), (None, 7), (1, 0))
        hosts = [Hypergraph.complete(n, 2) for n in (3, 6, 7, 9, 12, 13)]
        hosts += [random_graph(rng, rng.randint(3, 12)) for _ in range(40)]
        hosts += [Hypergraph(1, 2), Hypergraph(2, 2, [(0, 1)])]
        cases = [(G, runs, None) for G in hosts]
        # (widest pair, host); a first solution takes 2,755-5,880 nodes
        # here, so only cap 1 runs to one, and cap None stops early
        wide = ((127, Hypergraph.complete(129, 2)),
                (128, Hypergraph(132, 2, [(a, b) for a, b in itertools.combinations(range(132), 2)
                                          if b != a + 1 or a % 2])),
                (131, Hypergraph.complete(133, 2)))
        cases += [(G, ((1, 10 ** 4), (None, 300), (1, 0)), width) for width, G in wide]
        latin_runs = ((None, 3000), (1, 3000), (3, 400), (None, 60), (1, 9))
        for n in (5, 6, 7):
            for keep in (0.25, 0.5):
                cases.append((self.latin_host(rng, n, keep), latin_runs, None))
        for G, runs, width in cases:
            inst = CoverInstance.from_graph(G, 3)
            assert width is None or max(map(len, inst.cols)) == width
            ids = {c: k for k, c in enumerate(inst.payloads)}
            excludes = [()]
            if inst.payloads:
                excludes.append(rng.sample(inst.payloads, min(4, len(inst.payloads))))
            for cap, nodes in runs:
                for exclude in excludes:
                    b_new, b_old = _Budget(nodes), _Budget(nodes)
                    got = run_until_spent(_triangle_search(G, b_new, cap, exclude), b_new)
                    want = run_until_spent(
                        _search(inst, b_old, cap, [ids[c] for c in exclude]), b_old)
                    assert got == want, (G, cap, nodes, exclude)
                    # the wide hosts' cap-1 run reaches a solution
                    assert not (width and nodes == 10 ** 4) or got[0] != ["spent"]

    def test_exclude_on_graph_instances(self):
        rng = random.Random(9)
        for n in (7, 9, 13):
            G = Hypergraph.complete(n, 2)
            ref_inst = reference_instance(G, 3)
            cliques = enumerate_cliques(G, 3)
            for _ in range(10):
                exclude = rng.sample(cliques, 3)
                b_ref, b_new = _Budget(10 ** 6), _Budget(10 ** 6)
                want = list(reference_solve_simple(ref_inst, b_ref, 5, frozenset(exclude)))
                got = list(_triangle_search(G, b_new, 5, exclude))
                assert got == want and b_new.left == b_ref.left

    def test_disjoint_pairs_match(self):
        for G in (Hypergraph.complete(7, 2), Hypergraph.complete(9, 2),
                  MultiHypergraph(3, 2, {(0, 1): 2, (0, 2): 2, (1, 2): 2})):
            inst = reference_instance(G, 3)
            solver = (reference_solve_demand if isinstance(G, MultiHypergraph)
                      else reference_solve_simple)
            b = _Budget(10 ** 6)
            want = next(((s1, s2) for s1 in solver(inst, b, None)
                         for s2 in solver(inst, b, 1, exclude=frozenset(s1))), None)
            pair = find_two_disjoint_decompositions(G, 3)
            assert (pair and tuple(D.cliques for D in pair)) == (
                want and tuple(Decomposition(G, sol, 3).cliques for sol in want))

    @pytest.mark.parametrize("G", [
        Hypergraph.complete(8, 3), Hypergraph.complete(13, 2), k_times(7, 2),
        k_times(5, 3), k_times(4, 2)], ids=["K8^3", "K13", "2K7", "3K5", "2K4"])
    def test_generic_engine_disjoint_pairs_match(self, G):
        """q = 4 runs the generic engine, which takes the first solution's
        cliques as option ids: the pair is the reference's first solution
        and its first solution with those cliques excluded, found for the
        nodes the reference spends and not for one fewer.  3K5 and 2K4 have
        no pair."""
        inst = reference_instance(G, 4)
        solver = (reference_solve_demand if isinstance(G, MultiHypergraph)
                  else reference_solve_simple)
        b = _Budget(10 ** 6)
        want = next(((s1, s2) for s1 in solver(inst, b, None)
                     for s2 in solver(inst, b, 1, exclude=frozenset(s1))), None)
        spent = b.limit - b.left
        pair = find_two_disjoint_decompositions(G, 4, budget=spent)
        assert (pair and tuple(D.cliques for D in pair)) == (
            want and tuple(Decomposition(G, sol, 4).cliques for sol in want))
        assert (pair is None) == (G.n in (4, 5))
        with pytest.raises(BudgetError):
            find_two_disjoint_decompositions(G, 4, budget=spent - 1)


class TestRefute:
    @staticmethod
    def brute_force_solutions(npri, masks):
        """Every set of pairwise disjoint options (item bitmasks) whose union
        holds all primary items 0..npri-1, as sorted option-id tuples."""
        full = (1 << npri) - 1
        out = []

        def walk(k, used, chosen):
            if k == len(masks):
                if used & full == full:
                    out.append(tuple(chosen))
                return
            walk(k + 1, used, chosen)
            if not used & masks[k]:
                chosen.append(k)
                walk(k + 1, used | masks[k], chosen)
                chosen.pop()

        walk(0, 0, [])
        return out

    def test_sound_against_brute_force(self):
        rng = random.Random(29)
        refuted_some = certified_none = 0
        for _ in range(400):
            npri = rng.randint(2, 8)
            nsec = rng.randint(0, 4)
            items = list(range(npri + nsec))
            # every option covers a primary item, so the solutions of
            # _search are exactly the brute-force ones
            rows = [tuple(sorted(rng.sample(items[:npri], rng.randint(1, min(3, npri))) +
                                 rng.sample(items[npri:], rng.randint(0, min(2, nsec)))))
                    for _ in range(rng.randint(1, 14))]
            inst = CoverInstance(len(items), [1] * npri, list(range(len(rows))), rows)
            sols = self.brute_force_solutions(
                npri, [sum(1 << i for i in row) for row in rows])
            refuted = _refute(inst)
            if refuted is None:
                assert not sols, rows
                certified_none += 1
                continue
            assert len(set(refuted)) == len(refuted)
            assert not set(refuted) & {k for sol in sols for k in sol}, rows
            if sols and refuted:
                refuted_some += 1
            got = [tuple(sorted(s)) for s in
                   _search(inst, _Budget(10 ** 6), None, exclude=refuted)]
            assert sorted(got) == sorted(sols)
        assert refuted_some >= 20 and certified_none >= 20
