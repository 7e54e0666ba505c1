import json
import os

import pytest

from absorbkit import pipeline
from absorbkit.cli import main
from absorbkit.divide import DesignParams
from absorbkit.errors import BudgetError, ParameterError
from absorbkit.exactcover import find_two_disjoint_decompositions
from absorbkit.hypercore import Hypergraph
from absorbkit.pipeline import (PipelineConfig, oracle_steiner, pipeline_steiner,
                                verify_design)


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
        with pytest.raises(BudgetError,
                           match=r"exhausted 2 of 2 restarts, 30420 steps"):
            pipeline_steiner(PipelineConfig(n=13, hill_climb_rounds=2))
        assert calls == [60 * 13 * 13] * 3
        assert main(["pipeline", "--n", "13"]) == 2

    def test_negative_rounds_rejected(self):
        with pytest.raises(ParameterError):
            PipelineConfig(n=7, hill_climb_rounds=-1)

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
