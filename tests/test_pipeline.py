import itertools
import json
import os
import random
from collections import Counter
from math import comb

import pytest

from absorbkit import pipeline
from absorbkit.cli import main
from absorbkit.divide import DesignParams
from absorbkit.errors import BudgetError, ParameterError
from absorbkit.exactcover import find_two_disjoint_decompositions
from absorbkit.hypercore import Decomposition, Hypergraph, MultiHypergraph, Packing
from absorbkit.pipeline import (PipelineConfig, oracle_steiner, pipeline_steiner,
                                verify_design)


def reference_hill_climb(n, rng, max_steps):
    """The hill-climb with helper closures and rng.randrange: the reference
    for the inlined loop and draws of pipeline._hill_climb_complete."""
    partners = [[y for y in range(n) if y != x] for x in range(n)]
    pos = [y - (y > x) for x in range(n) for y in range(n)]
    third = [-1] * (n * n)
    live, at = list(range(n)), list(range(n))
    randrange = rng.randrange

    def drop(x, y):
        px = partners[x]
        last = px.pop()
        if last != y:
            i = pos[x * n + y]
            px[i] = last
            pos[x * n + last] = i

    def add(x, y):
        px = partners[x]
        pos[x * n + y] = len(px)
        px.append(y)

    def kill(x):
        last = live.pop()
        if last != x:
            live[at[x]] = last
            at[last] = at[x]

    steps = 0
    while live:
        if steps == max_steps:
            return None
        steps += 1
        x = live[randrange(len(live))]
        px = partners[x]
        d = len(px)
        i, j = randrange(d), randrange(d - 1)
        y, z = px[i], px[j + (j >= i)]
        w = third[y * n + z]
        drop(x, y)
        drop(x, z)
        drop(y, x)
        drop(z, x)
        if w < 0:
            drop(y, z)
            drop(z, y)
            if not partners[y]:
                kill(y)
            if not partners[z]:
                kill(z)
        else:
            if not partners[w]:
                at[w] = len(live)
                live.append(w)
            add(y, w)
            add(w, y)
            add(z, w)
            add(w, z)
            third[y * n + w] = third[w * n + y] = -1
            third[z * n + w] = third[w * n + z] = -1
        third[x * n + y] = third[y * n + x] = z
        third[x * n + z] = third[z * n + x] = y
        third[y * n + z] = third[z * n + y] = x
        if not px:
            kill(x)
    triples = [(x, y, w) for x in range(n) for y in range(x + 1, n)
               for w in (third[x * n + y],) if w > y]
    return triples, steps


def reference_verify_design(D, params):
    """verify_design as per-clique and per-subset Python loops."""
    cliques = list(D.cliques if isinstance(D, (Decomposition, Packing)) else D)
    counts = Counter()
    for c in cliques:
        for e in itertools.combinations(tuple(sorted(c)), params.r):
            counts[e] += 1
    histogram = Counter()
    bad = 0
    for e in itertools.combinations(range(params.n), params.r):
        c = counts.get(e, 0)
        histogram[c] += 1
        if c != params.lam:
            bad += 1
    return {"pass": bad == 0, "bad_subsets": bad,
            "histogram": dict(sorted(histogram.items())),
            "cliques": len(cliques),
            "expected_cliques": params.lam * comb(params.n, params.r) // comb(params.q, params.r)}


class TestHillClimbReference:
    def test_same_triples_and_steps(self):
        # a full budget, and budgets of n and 3n steps that most runs spend
        runs = nones = 0
        for n in (n for n in range(7, 122) if n % 6 in (1, 3)):
            for seed in range(4):
                for budget in (60 * n * n, n, 3 * n):
                    got = pipeline._hill_climb_complete(n, random.Random(seed), budget)
                    want = reference_hill_climb(n, random.Random(seed), budget)
                    assert got == want, (n, seed, budget)
                    runs += 1
                    nones += got is None
        assert runs == 468 and 0 < nones < runs

    def test_same_draws_consumed(self):
        # the generator is left in the same state, so restarts see the same bits
        for n, seed in ((7, 0), (31, 2), (61, 5)):
            a, b = random.Random(seed), random.Random(seed)
            for budget in (n, 60 * n * n):
                assert pipeline._hill_climb_complete(n, a, budget) == \
                    reference_hill_climb(n, b, budget)
            assert a.getstate() == b.getstate()


def replace_one_triple(D):
    """D's members with its first triple (a, b, c) replaced by (a, b, d)."""
    cl = list(D.cliques)
    a, b, _ = cl[0]
    cl[0] = (a, b, next(v for v in range(D.target.n) if v not in cl[0]))
    return cl


class TestVerifyDesignReference:
    def cases(self):
        sts7, sts9 = list(oracle_steiner(7).cliques), list(oracle_steiner(9).cliques)
        d1, d2 = find_two_disjoint_decompositions(Hypergraph.complete(7, 2), 3)
        union = list(d1.cliques) + list(d2.cliques)
        sqs8 = [c for c in itertools.combinations(range(8), 4)
                if c[0] ^ c[1] ^ c[2] ^ c[3] == 0]
        doubled_k7 = MultiHypergraph(7, 2, {e: 2 for e in itertools.combinations(range(7), 2)})
        p7, p9, p8 = DesignParams(7, 3, 2, 1), DesignParams(9, 3, 2, 1), DesignParams(8, 4, 3, 1)
        pipe = pipeline_steiner(PipelineConfig(n=31, seed=4)).decomposition
        pipe61 = pipeline_steiner(PipelineConfig(n=61, seed=4)).decomposition
        pipe105 = pipeline_steiner(PipelineConfig(n=105, seed=4)).decomposition
        k7 = Hypergraph.complete(7, 2)
        reversed7 = [c[::-1] for c in sts7]
        return [
            (oracle_steiner(13), DesignParams(13, 3, 2, 1)),            # passing
            (pipe, DesignParams(31, 3, 2, 1)),
            (sts9, p9),
            (sts7[1:], p7),                                              # a missing triple
            (sts7 + sts7[:1], p7),                                       # a doubled triple
            (sts7[1:] + [(0, 1, 7)], p7),                                # an out-of-range vertex
            (sts7[1:] + [(0, 1, 2, 3)], p7),                             # a wrong-size clique
            (sts7[1:] + [(2, 2, 5)], p7),                                # a repeated vertex
            (union, DesignParams(7, 3, 2, 2)),                           # lambda = 2
            (union, p7),
            (sqs8, p8),                                                  # r = 3
            (sqs8[1:], p8),
            (list(itertools.combinations(range(5), 4)), DesignParams(5, 4, 3, 2)),
            (Decomposition(doubled_k7, union, 3), DesignParams(7, 3, 2, 2)),  # multigraph
            (Decomposition(doubled_k7, union, 3), p7),
            (Packing(Hypergraph.complete(7, 2), sts7[1:]), p7),        # a packing
            ([], p7),
            (pipe61, DesignParams(61, 3, 2, 1)),                        # pipeline outputs
            (replace_one_triple(pipe61), DesignParams(61, 3, 2, 1)),
            (pipe105, DesignParams(105, 3, 2, 1)),
            (replace_one_triple(pipe105), DesignParams(105, 3, 2, 1)),
            (Decomposition(k7, reversed7), p7),                          # reversed members
            (Packing(k7, reversed7[1:]), p7),
            (reversed7, p7),
        ]

    def test_same_report(self):
        verdicts = []
        for D, params in self.cases():
            got = verify_design(D, params)
            assert got == reference_verify_design(D, params), params
            verdicts.append(got["pass"])
        assert verdicts == [True] * 3 + [False] * 5 + [True, False, True, False, True,
                                                      True, False, False, False,
                                                      True, False, True, False,
                                                      True, False, True]


class TestOracle:
    @pytest.mark.parametrize("n,size", [(7, 7), (9, 12), (15, 35)])
    def test_sizes_and_validity(self, n, size):
        D = oracle_steiner(n)
        assert len(D) == size
        assert verify_design(D, DesignParams(n, 3, 2, 1))["pass"]

    def test_inadmissible(self):
        for n in (6, 8, 10, 11):
            with pytest.raises(ParameterError):
                oracle_steiner(n)

    def test_deterministic(self):
        assert oracle_steiner(13).cliques == oracle_steiner(13).cliques


class TestVerifyDesign:
    def test_pass_case(self):
        assert verify_design(oracle_steiner(9), DesignParams(9, 3, 2, 1))["pass"]

    def test_missing_triple_fails(self):
        D = oracle_steiner(7)
        broken = list(D.cliques)[1:]
        rep = verify_design(broken, DesignParams(7, 3, 2, 1))
        assert not rep["pass"]
        assert rep["bad_subsets"] == 3
        assert rep["histogram"].get(0) == 3

    def test_lambda_two_union(self):
        pair = find_two_disjoint_decompositions(Hypergraph.complete(7, 2), 3)
        d1, d2 = pair
        doubled = list(d1.cliques) + list(d2.cliques)
        assert verify_design(doubled, DesignParams(7, 3, 2, 2))["pass"]
        assert not verify_design(doubled, DesignParams(7, 3, 2, 1))["pass"]


class TestPipeline:
    def test_n7(self):
        res = pipeline_steiner(PipelineConfig(n=7, seed=1))
        assert res.report["triples"] == 7
        assert verify_design(res.decomposition, DesignParams(7, 3, 2, 1))["pass"]

    def test_n9_and_13(self):
        for n in (9, 13):
            res = pipeline_steiner(PipelineConfig(n=n, seed=2))
            assert res.report["triples"] == n * (n - 1) // 6
            assert res.report["verified"]

    def test_inadmissible_parameter_error(self):
        for n in (6, 8, 10):
            with pytest.raises(ParameterError):
                pipeline_steiner(PipelineConfig(n=n))

    def test_determinism(self):
        a = pipeline_steiner(PipelineConfig(n=13, seed=5))
        b = pipeline_steiner(PipelineConfig(n=13, seed=5))
        assert a.decomposition.cliques == b.decomposition.cliques

    def test_artifacts_written(self, tmp_path):
        out = str(tmp_path / "run")
        res = pipeline_steiner(PipelineConfig(n=9, seed=3, out_dir=out))
        for name in ("J.graph", "final.pack", "report.json", "host.graph"):
            assert os.path.exists(os.path.join(out, name)), name
        assert not os.path.exists(os.path.join(out, "nibble.pack"))
        with open(os.path.join(out, "report.json")) as fh:
            rep = json.load(fh)
        assert rep["triples"] == res.report["triples"]
        # re-verify the run purely from the files
        from absorbkit.hypercore import read_packing
        P = read_packing(os.path.join(out, "final.pack"))
        assert verify_design(P, DesignParams(9, 3, 2, 1))["pass"]

    def test_stage_reports_present(self):
        res = pipeline_steiner(PipelineConfig(n=13, seed=8))
        assert set(res.report["stages"]) == {"boost"}
        assert "skipped" in res.report["stages"]["boost"]

    def test_route_reported(self):
        for n, seed in ((7, 0), (7, 6), (13, 8), (31, 1)):
            rep = pipeline_steiner(PipelineConfig(n=n, seed=seed)).report
            assert rep["route"] == "hill-climb"
            effort = rep["hill_climb"]
            assert set(effort) == {"restarts", "steps"}
            assert effort["restarts"] >= 0
            assert n * (n - 1) // 6 <= effort["steps"] <= (effort["restarts"] + 1) * 60 * n * n
            assert not {"fallback_used", "fallback_attempts"} & set(rep)

    def test_admissibility_checked_before_search(self, monkeypatch):
        # on n = 101 the hill-climb would spend its whole budget
        def never(*args, **kwargs):
            pytest.fail("the hill-climb ran on an inadmissible n")
        monkeypatch.setattr(pipeline, "_hill_climb_complete", never)
        with pytest.raises(ParameterError):
            pipeline_steiner(PipelineConfig(n=101))

    def test_budget_error_says_what_it_spent(self, monkeypatch):
        calls = []

        def spent(n, rng, max_steps):
            calls.append(max_steps)
            return None
        monkeypatch.setattr(pipeline, "_hill_climb_complete", spent)
        monkeypatch.setattr(pipeline, "HILL_CLIMB_RESTARTS", 2)
        with pytest.raises(BudgetError,
                           match=r"exhausted 2 of 2 restarts, 30420 steps"):
            pipeline_steiner(PipelineConfig(n=13))
        assert calls == [60 * 13 * 13] * 3
        assert main(["pipeline", "--n", "13"]) == 2

    def test_every_admissible_n_to_99(self):
        sizes = [n for n in range(7, 100) if n % 6 in (1, 3)]
        runs = [(n, seed) for n in sizes for seed in range(5)] + [(201, 0)]
        for n, seed in runs:
            res = pipeline_steiner(PipelineConfig(n=n, seed=seed))
            assert res.report["triples"] == n * (n - 1) // 6
            assert verify_design(res.decomposition, DesignParams(n, 3, 2, 1))["pass"], (n, seed)

    @pytest.mark.parametrize("n", [109, 121])
    def test_large_n_finishes(self, n):
        # the old reserve/embedding stages searched without end at n >= 108
        res = pipeline_steiner(PipelineConfig(n=n, seed=0))
        assert res.report["verified"]
        assert verify_design(res.decomposition, DesignParams(n, 3, 2, 1))["pass"]
