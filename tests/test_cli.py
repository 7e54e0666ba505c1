import json
import os

from absorbkit.cli import main
from absorbkit.hypercore import Hypergraph, write_graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestDivideCLI:
    def test_check_divisible(self, tmp_path, capsys):
        p = str(tmp_path / "k7.graph")
        write_graph(Hypergraph.complete(7, 2), p)
        code, out = run(capsys, "divide", "check", p, "--q", "3")
        assert code == 0 and "divisible=True" in out

    def test_check_not_divisible(self, tmp_path, capsys):
        p = str(tmp_path / "k6.graph")
        write_graph(Hypergraph.complete(6, 2), p)
        code, _ = run(capsys, "divide", "check", p, "--q", "3")
        assert code == 1

    def test_params_mode(self, capsys):
        code, out = run(capsys, "divide", "check", "--params", "7,3,2,1")
        assert code == 0
        assert out.count("ok=True") == 2

    def test_missing_file_exit_3(self, capsys):
        code = main(["divide", "check", "/nonexistent.graph", "--q", "3"])
        assert code == 3

    def test_malformed_params_exit_3(self, capsys):
        for params in ("19,3,2", "19,3,2,x", "19,3,2,1,1"):
            assert main(["divide", "check", "--params", params]) == 3, params


class TestCoverCLI:
    def test_solve_and_verify_roundtrip(self, tmp_path, capsys):
        g = str(tmp_path / "k7.graph")
        write_graph(Hypergraph.complete(7, 2), g)
        out_pack = str(tmp_path / "sts7.pack")
        code, _ = run(capsys, "cover", "solve", g, "--q", "3", "--out", out_pack)
        assert code == 0 and os.path.exists(out_pack)
        code, out = run(capsys, "verify", out_pack)
        assert code == 0 and "pass=True" in out

    def test_none_exit_1(self, tmp_path, capsys):
        g = str(tmp_path / "k6.graph")
        write_graph(Hypergraph.complete(6, 2), g)
        code, out = run(capsys, "cover", "solve", g, "--q", "3")
        assert code == 1 and "NONE (exhaustive)" in out

    def test_count(self, tmp_path, capsys):
        g = str(tmp_path / "k7.graph")
        write_graph(Hypergraph.complete(7, 2), g)
        code, out = run(capsys, "cover", "solve", g, "--q", "3", "--count", "100")
        assert code == 0 and "count=30" in out


class TestGadgetCLI:
    def test_anti(self, capsys):
        code, out = run(capsys, "gadget", "anti", "--edge", "0,1", "--q", "3")
        assert code == 0 and "edges=2" in out

    def test_booster_lift(self, capsys):
        code, out = run(capsys, "gadget", "booster", "--q", "3", "--r", "2")
        assert code == 0 and "edges=12" in out and "disjoint=True" in out

    def test_absorber(self, tmp_path, capsys):
        g = str(tmp_path / "tri.graph")
        write_graph(Hypergraph(3, 2, [(0, 1), (0, 2), (1, 2)]), g)
        code, out = run(capsys, "gadget", "absorber", g, "--q", "3")
        assert code == 0 and "verified=True" in out


class TestOmniCLI:
    def test_build_verify_refinedness(self, tmp_path, capsys):
        cert = str(tmp_path / "cert")
        code, _ = run(capsys, "omni", "build-1d", "--m", "6", "--q", "3",
                      "--out", cert)
        assert code == 0
        code, out = run(capsys, "omni", "verify", cert)
        assert code == 0 and "checked=22 failures=0" in out
        code, out = run(capsys, "omni", "refinedness", cert)
        assert code == 0 and "refinedness=" in out


class TestLpCLI:
    def test_solve_feasible(self, tmp_path, capsys):
        g = str(tmp_path / "k5.graph")
        write_graph(Hypergraph.complete(5, 2), g)
        code, out = run(capsys, "lp", "solve", g, "--q", "3")
        assert code == 0

    def test_solve_infeasible_exit_1(self, tmp_path, capsys):
        g = str(tmp_path / "k4e.graph")
        write_graph(Hypergraph.complete(4, 2).without_edges([(0, 1)]), g)
        code, out = run(capsys, "lp", "solve", g, "--q", "3")
        assert code == 1 and "INFEASIBLE" in out


class TestNibbleCLI:
    def test_run_stats(self, capsys, tmp_path):
        stats = str(tmp_path / "s.json")
        code, out = run(capsys, "nibble", "run", "--n", "13", "--seed", "4",
                        "--json-stats", stats)
        assert code == 0
        with open(stats) as fh:
            data = json.load(fh)
        assert "leftover_fraction" in data

    def test_run_on_3_uniform_host(self, capsys):
        code, out = run(capsys, "nibble", "run", "--n", "8", "--r", "3",
                        "--q", "4", "--seed", "1")
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.split())
        assert fields["edges"] == "56"
        assert 4 * int(fields["packed"]) + int(fields["leftover"]) == 56

    def test_reserve(self, capsys):
        code, out = run(capsys, "nibble", "reserve", "--n", "20", "--p", "0.3",
                        "--seed", "1")
        assert code == 0 and "degree_ok=" in out

    def test_spread_exact(self, capsys):
        code, out = run(capsys, "nibble", "spread", "--n", "7", "--exact")
        assert code == 0 and "sigma_hat_1=0.2" in out


class TestEmbedCLI:
    def test_manifest_embed(self, tmp_path, capsys):
        from absorbkit.gadgets import anti_edge
        base = str(tmp_path / "J.graph")
        write_graph(Hypergraph(2, 2, [(0, 1)]), base)
        h = str(tmp_path / "H.graph")
        write_graph(Hypergraph(2, 2, [(0, 1)]), h)
        g = anti_edge((0, 1), 3, base=2)
        w = str(tmp_path / "W.graph")
        write_graph(g.W, w)
        host = str(tmp_path / "host.graph")
        write_graph(Hypergraph.complete(8, 2), host)
        manifest = tmp_path / "system.manifest"
        manifest.write_text("base J.graph\ngadget W.graph H.graph 0,1\n")
        code, out = run(capsys, "embed", "--system", str(manifest),
                        "--host", host, "--seed", "3")
        assert code == 0 and "image_edges=2" in out


class TestMoreNibbleCLI:
    def test_complete_via_files(self, tmp_path, capsys):
        g = str(tmp_path / "g.graph")
        write_graph(Hypergraph(4, 2, [(0, 1)]), g)
        x = str(tmp_path / "x.graph")
        write_graph(Hypergraph(4, 2, [(0, 2), (1, 2)]), x)
        code, out = run(capsys, "nibble", "complete", "--graph", g,
                        "--reserves", x, "--seed", "1")
        assert code == 0 and "completed=True" in out

    def test_complete_budget_exhausted_exit_2(self, tmp_path, capsys,
                                               monkeypatch):
        import functools
        from absorbkit import cli
        from absorbkit.nibble import complete_with_reserves
        monkeypatch.setattr(cli, "complete_with_reserves", functools.partial(
            complete_with_reserves, retries=0, fallback_budget=0))
        g = str(tmp_path / "g.graph")
        write_graph(Hypergraph(6, 2, [(0, 1), (0, 2)]), g)
        x = str(tmp_path / "x.graph")
        write_graph(Hypergraph(6, 2, [(0, 4), (1, 4), (0, 5), (1, 5), (2, 4)]), x)
        code, out = run(capsys, "nibble", "complete", "--graph", g,
                        "--reserves", x)
        assert code == 2 and "completed" not in out

    def test_complete_infeasible_exit_1(self, tmp_path, capsys):
        g = str(tmp_path / "g.graph")
        write_graph(Hypergraph(4, 2, [(0, 1), (0, 2)]), g)
        x = str(tmp_path / "x.graph")
        write_graph(Hypergraph(4, 2, [(0, 3), (1, 3), (2, 3)]), x)
        code, out = run(capsys, "nibble", "complete", "--graph", g,
                        "--reserves", x)
        assert code == 1
        assert "completed=False" in out and "reason=infeasible" in out

    def test_girth_of_packing_file(self, tmp_path, capsys):
        host = str(tmp_path / "k7.graph")
        write_graph(Hypergraph.complete(7, 2), host)
        pack = str(tmp_path / "sts.pack")
        code, _ = run(capsys, "cover", "solve", host, "--q", "3", "--out", pack)
        assert code == 0
        code, out = run(capsys, "nibble", "girth", "--packing", pack,
                        "--gmax", "4")
        assert code == 0 and "config_4_2=0" in out

    def test_highgirth(self, capsys):
        code, out = run(capsys, "nibble", "highgirth", "--n", "15", "--g", "4",
                        "--seed", "2")
        assert code == 0 and "girth_check=inf" in out


class TestLpInheritCLI:
    def test_inherit(self, tmp_path, capsys):
        g = str(tmp_path / "k20.graph")
        write_graph(Hypergraph.complete(20, 2), g)
        code, out = run(capsys, "lp", "inherit", g, "--s", "8",
                        "--trials", "20", "--seed", "1", "--threshold", "0.5")
        assert code == 0 and "fraction=1.0" in out


class TestGadgetFakeCLI:
    def test_fake(self, capsys):
        code, out = run(capsys, "gadget", "fake", "--edge", "0,1", "--q", "3")
        assert code == 0 and "edges=4" in out and "fresh=3" in out


class TestPipelineCLI:
    def test_run_with_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=9\nseed=5\n")
        code, out = run(capsys, "pipeline", "--config", str(cfg))
        assert code == 0 and "triples=12" in out

    def test_inadmissible_exit_3(self, capsys):
        code = main(["pipeline", "--n", "8"])
        assert code == 3

    def test_text_output_names_route(self, capsys):
        code, out = run(capsys, "pipeline", "--n", "9", "--seed", "5")
        fields = dict(tok.split("=", 1) for tok in out.split())
        assert code == 0 and fields["route"] == "hill-climb"

    def test_malformed_config_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        for text in ("# comment\nn=9\nseed 5\n",   # no '=': a parse error
                     "n=9\nseed=five\n",            # bad value
                     "n=9\np=0.25\n",               # a key the pipeline lost
                     "n=9\nresidual_cover_budget=5\n"):
            cfg.write_text(text)
            assert main(["pipeline", "--config", str(cfg)]) == 3, text

    def test_oracle_and_verify(self, tmp_path, capsys):
        pack = str(tmp_path / "sts9.pack")
        code, _ = run(capsys, "oracle", "--n", "9", "--out", pack)
        assert code == 0
        code, out = run(capsys, "verify", pack, "--json")
        assert code == 0 and '"pass": true' in out
