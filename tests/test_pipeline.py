import json
import os

import pytest

from absorbkit.divide import DesignParams
from absorbkit.errors import ParameterError
from absorbkit.exactcover import find_two_disjoint_decompositions
from absorbkit.hypercore import Hypergraph
from absorbkit.pipeline import (PipelineConfig, _fallback_cover, oracle_steiner,
                                pipeline_steiner, verify_design)


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
        for name in ("J.graph", "nibble.pack", "final.pack", "report.json",
                     "host.graph"):
            assert os.path.exists(os.path.join(out, name)), name
        with open(os.path.join(out, "report.json")) as fh:
            rep = json.load(fh)
        assert rep["triples"] == res.report["triples"]
        # re-verify the run purely from the files
        from absorbkit.hypercore import read_packing
        P = read_packing(os.path.join(out, "final.pack"))
        assert verify_design(P, DesignParams(9, 3, 2, 1))["pass"]

    def test_stage_reports_present(self):
        res = pipeline_steiner(PipelineConfig(n=13, seed=8))
        assert set(res.report["stages"]) == {"boost", "nibble"}
        assert "skipped" in res.report["stages"]["boost"]

    def test_route_reported(self):
        routes = set()
        for n, seed in ((7, 0), (7, 6), (13, 8), (31, 1)):
            rep = pipeline_steiner(PipelineConfig(n=n, seed=seed)).report
            assert rep["route"] in ("nibble", "exact-cover", "hill-climb")
            assert rep["fallback_used"] == (rep["route"] != "nibble")
            assert (rep["route"] == "nibble") == (rep["stages"]["nibble"]["leftover"] == 0)
            routes.add(rep["route"])
        assert routes == {"nibble", "hill-climb"}

    def test_maximal_residual_skips_exact_cover(self):
        # random greedy's packing is maximal, so its residual has no
        # triangle and exact cover is not tried on it
        for n, seed in ((7, 0), (9, 3), (13, 8), (15, 2)):
            rep = pipeline_steiner(PipelineConfig(n=n, seed=seed)).report
            assert 0 < rep["stages"]["nibble"]["leftover"] <= 24
            assert rep["route"] == "hill-climb"
            assert rep["fallback_attempts"] == 0

    def test_residual_with_triangles_tries_exact_cover(self):
        triples, route, attempts = _fallback_cover(
            Hypergraph.complete(7, 2), [], seed=0, rounds=1,
            cover_budget=10 ** 5)
        assert (route, attempts) == ("exact-cover", 1)
        assert verify_design(triples, DesignParams(7, 3, 2, 1))["pass"]

    @pytest.mark.parametrize("n", [109, 121])
    def test_large_n_finishes(self, n):
        # the old reserve/embedding stages searched without end at n >= 108
        res = pipeline_steiner(PipelineConfig(n=n, seed=0))
        assert res.report["verified"]
        assert verify_design(res.decomposition, DesignParams(n, 3, 2, 1))["pass"]
