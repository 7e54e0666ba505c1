import hashlib
import itertools
import json
import os
import random

import pytest

from absorbkit import cli
from absorbkit.cli import main
from absorbkit.divide import DesignParams
from absorbkit.errors import ParameterError
from absorbkit.hypercore import Hypergraph, MultiHypergraph, read_packing, write_graph
from absorbkit.pipeline import verify_design


def cube_q3():
    return Hypergraph(8, 2, [(u, u ^ b) for u in range(8) for b in (1, 2, 4)
                             if u < u ^ b])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("argv", [
    ["cover", "solve"],                 # a missing positional
    ["pipeline", "--n", "x"],           # a malformed option value
    ["nibble", "bogus"],                # an unknown choice
    [],                                 # no command at all
    ["divide", "check"],                # neither a graph nor --params
    ["gadget", "absorber"],
    ["gadget", "anti"],
    ["gadget", "booster", "--search"],
    ["nibble", "complete"],
    ["nibble", "complete", "--graph", "g.graph"],
    ["nibble", "girth"],
    ["gadget", "anti", "--edge", "0,x"],  # a non-integer vertex id
    ["gadget", "anti", "--edge="],        # an empty edge
    ["gadget", "fake", "--edge", ""],
    ["gadget", "anti", "--edge", "1,1"],  # a repeated vertex
    # a negative node budget is malformed, not spent
    ["cover", "solve", "k5.graph", "--budget", "-5"],
    ["cover", "solve", "k5.graph", "--count", "3", "--budget", "-1"],
    ["gadget", "booster", "--host", "k5.graph", "--budget", "-3"],
    # a path that names a directory, not a file
    ["cover", "solve", "."],
])
def test_missing_or_malformed_arguments_exit_3(argv, cli_files, capsys):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.fixture
def cli_files(tmp_path, monkeypatch):
    """Valid input files in the working directory, so that only the
    command line can make a command fail."""
    monkeypatch.chdir(tmp_path)
    write_graph(Hypergraph.complete(5, 2), "k5.graph")
    write_graph(Hypergraph(3, 2, [(0, 1), (0, 2), (1, 2)]), "tri.graph")
    write_graph(Hypergraph(4, 2, [(0, 1)]), "g.graph")
    write_graph(Hypergraph(4, 2, [(0, 2), (1, 2)]), "x.graph")
    assert main(["oracle", "--n", "7", "--out", "sts7.pack"]) == 0
    assert main(["omni", "build-1d", "--m", "4", "--out", "cert"]) == 0
    return tmp_path


@pytest.mark.parametrize("argv", [
    # each action, given an option that only another action reads
    "gadget anti --edge 0,1 --host k5.graph",
    "gadget fake --edge 0,1 --r 3",
    "gadget booster --edge 0,1",
    "gadget absorber tri.graph --r 2",
    "omni build-1d --graph tri.graph --out d",
    "omni build-small --graph tri.graph --out d --m 4",
    "omni verify cert --q 4",
    "omni refinedness cert --mode sample",
    "lp solve k5.graph --multiplier 3",
    "lp boost k5.graph --cap 1/2",
    "lp inherit k5.graph --s 3 --q 4",
    "nibble run --n 9 --gmax 3",
    "nibble run --n 9 --bite 0.5",
    "nibble reserve --n 9 --g 4",
    "nibble complete --graph g.graph --reserves x.graph --n 4",
    "nibble highgirth --n 9 --p 0.5",
    "nibble girth --packing sts7.pack --g 5",
    "nibble spread --n 7 --exact --graph k5.graph",
    # a host graph needs exactly one of --graph and --n
    "nibble run",
    "nibble run --graph k5.graph --n 9",
    "nibble highgirth",
    "nibble highgirth --graph k5.graph --n 9",
    # --r names the r of K_n; a --graph file carries its own
    "nibble run --graph k5.graph --r 3",
    "nibble highgirth --graph k5.graph --r 3",
    # --out writes a decomposition, which --count does not find, and
    # --json formats only the count
    "cover solve k5.graph --count 5 --out x.pack",
    "cover solve k5.graph --json",
    # an option read only under another one, given without it
    "gadget booster --budget 100",
    "gadget booster --q 3 --r 2 --budget 100",
    "omni verify cert --trials 5",
    "omni verify cert --seed 1",
    "omni verify cert --mode exhaustive --trials 5",
    "nibble spread --n 7 --exact --trials 5",
    "nibble spread --n 7 --exact --seed 1",
])
def test_option_the_action_does_not_read_exits_3(argv, cli_files, capsys):
    assert main(argv.split()) == 3
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["divide", "check", "--help"])
    assert exc.value.code == 0
    assert "--params" in capsys.readouterr().out


def test_cached_parser_after_usage_error(capsys):
    """main reuses one parser tree; a usage error leaves nothing behind
    that changes the next command, and both match fresh parsers."""
    fresh = cli.build_parser()
    assert cli._parser() is cli._parser()
    assert main(["integral", "solve"]) == 3
    err = capsys.readouterr().err
    with pytest.raises(ParameterError) as exc:
        fresh.parse_args(["integral", "solve"])
    assert err == f"error: {exc.value}\n"
    argv = ["divide", "check", "--params", "7,3,2,1"]
    assert vars(cli._parser().parse_args(argv)) == vars(fresh.parse_args(argv))
    code, out = run(capsys, *argv)
    assert code == fresh.parse_args(argv).func(fresh.parse_args(argv))
    assert out == capsys.readouterr().out
    assert code == 0 and out.count("ok=True") == 2


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

    def test_out_on_multigraph_exit_3(self, tmp_path, monkeypatch, capsys):
        """A packing file holds each edge once, so a multigraph target's
        decomposition cannot be written: exit 3 before the search, and no
        file.  Without --out the decomposition is printed."""
        g = str(tmp_path / "tri2.graph")
        write_graph(MultiHypergraph(3, 2, {(0, 1): 2, (0, 2): 2, (1, 2): 2}), g)
        out_pack = str(tmp_path / "tri2.pack")

        def no_search(*args, **kwargs):
            pytest.fail("the search ran")
        with monkeypatch.context() as m:
            m.setattr(cli, "find_decomposition", no_search)
            assert main(["cover", "solve", g, "--out", out_pack]) == 3
        assert not os.path.exists(out_pack)
        code, out = run(capsys, "cover", "solve", g)
        assert code == 0 and out.splitlines() == ["0 1 2", "0 1 2"]

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

    @pytest.mark.parametrize("n, count", [(7, 465), (6, 12)])
    def test_count_twofold(self, tmp_path, capsys, n, count):
        """The triangle decompositions of 2K_n, each edge twice, counted as
        multisets of triangles."""
        g = str(tmp_path / f"2k{n}.graph")
        write_graph(MultiHypergraph(n, 2, {e: 2 for e in itertools.combinations(range(n), 2)}), g)
        code, out = run(capsys, "cover", "solve", g, "--count", "1000")
        assert code == 0 and out.splitlines() == [f"count={count}", "overflow=False"]

    def test_count_cap_below_one_exit_3(self, tmp_path, capsys):
        g = str(tmp_path / "k7.graph")
        write_graph(Hypergraph.complete(7, 2), g)
        for cap in ("0", "-1"):
            assert main(["cover", "solve", g, "--q", "3", "--count", cap]) == 3

    def test_solutions_longer_than_recursion_limit(self, tmp_path, capsys):
        # 1027 to 1617 triples: deeper than the interpreter's recursion limit
        for n in (79, 81, 85, 87, 91, 93, 97, 99):
            g = str(tmp_path / f"k{n}.graph")
            write_graph(Hypergraph.complete(n, 2), g)
            out_pack = str(tmp_path / f"sts{n}.pack")
            code, _ = run(capsys, "cover", "solve", g, "--out", out_pack)
            assert code == 0, n
            P = read_packing(out_pack)
            assert P.host == Hypergraph.complete(n, 2)
            assert verify_design(P, DesignParams(n, 3, 2, 1))["pass"], n

    def test_packs_match_recorded_digests(self, tmp_path, monkeypatch, capsys):
        # SHA-256 of the packs that the dict-row, min-pick engine wrote for
        # these hosts: the same items, rows and column choices give the same
        # first solution, byte for byte
        want = {
            69: "a849266795ae2dab37e6577512f119f720ce1d9a1352e5681d0aad2703cb2c0f",
            75: "36a92a20d5e5de90da15879074c12ba2919b0e02ad5bb6ca4af708d170bb054a",
            79: "36ef29dbf91190cf8e982cd9e39f0972d3749f2e2009bd8f805c68e0d93c9bea",
            99: "e0a50b21c18fbd1091be6d48682664ba179dd44b63b7b3a7cce80c657f318da9",
        }
        monkeypatch.chdir(tmp_path)
        for n, digest in want.items():
            write_graph(Hypergraph.complete(n, 2), f"k{n}.graph")
            code, _ = run(capsys, "cover", "solve", f"k{n}.graph", "--out", f"sts{n}.pack")
            assert code == 0, n
            with open(f"sts{n}.pack", "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, n

    def test_spent_budget_exit_2(self, tmp_path, capsys):
        # K_16 has no STS, so the search runs until the budget is gone
        g = str(tmp_path / "k16.graph")
        write_graph(Hypergraph.complete(16, 2), g)
        assert main(["cover", "solve", g, "--budget", "20000"]) == 2
        assert "of 20000 nodes" in capsys.readouterr().err
        # a budget of 0 is valid and allows no node
        assert main(["cover", "solve", g, "--budget", "0"]) == 2
        assert "0 of 0 nodes" in capsys.readouterr().err


class TestGadgetCLI:
    def test_anti(self, capsys):
        code, out = run(capsys, "gadget", "anti", "--edge", "0,1", "--q", "3")
        assert code == 0 and "edges=2" in out

    def test_booster_lift(self, capsys):
        code, out = run(capsys, "gadget", "booster", "--q", "3", "--r", "2")
        assert code == 0 and "edges=12" in out and "disjoint=True" in out

    def test_booster_host_is_searched(self, tmp_path, capsys):
        k7, tri = str(tmp_path / "k7.graph"), str(tmp_path / "tri.graph")
        write_graph(Hypergraph.complete(7, 2), k7)
        write_graph(Hypergraph.complete(3, 2), tri)
        code, out = run(capsys, "gadget", "booster", "--host", k7)
        assert code == 0 and "vertices=7 edges=21" in out and "disjoint=True" in out
        code, out = run(capsys, "gadget", "booster", "--host", tri)
        assert code == 1 and "NONE (exhaustive)" in out

    def test_booster_host_search_takes_a_budget(self, tmp_path, capsys):
        k7 = str(tmp_path / "k7.graph")
        write_graph(Hypergraph.complete(7, 2), k7)
        code, out = run(capsys, "gadget", "booster", "--host", k7, "--budget", "100000")
        assert code == 0 and "vertices=7 edges=21" in out

    def test_booster_without_a_direct_construction_exit_3(self, capsys):
        assert main(["gadget", "booster", "--q", "4", "--r", "2"]) == 3
        assert "--host" in capsys.readouterr().err

    def test_absorber_searched_out_exit_2(self, tmp_path, capsys):
        p = str(tmp_path / "q3.graph")
        write_graph(cube_q3(), p)
        assert main(["gadget", "absorber", p, "--q", "4"]) == 2
        assert "no absorber within" in capsys.readouterr().err

    def test_absorber(self, tmp_path, capsys):
        g = str(tmp_path / "tri.graph")
        write_graph(Hypergraph(3, 2, [(0, 1), (0, 2), (1, 2)]), g)
        code, out = run(capsys, "gadget", "absorber", g, "--q", "3")
        assert code == 0 and "verified=True" in out

    # SHA-256 of the files that the absorber assembly wrote before it was
    # rebuilt from one rooted booster.  The bowtie is the smallest target
    # whose absorber takes the reducing path; two disjoint triangles take
    # the booster route; the triangle plus a disjoint C_6 has every degree 2
    # but takes the general route
    @pytest.mark.parametrize("n, edges, summary, want", [
        (8, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)], "A_edges=72 D1=26 D2=24", {
            "A.graph": "9f80dd64fba83342d8b5e554013e56320bbc0825ef221510e66176be3b67f273",
            "AL.graph": "5ab980fb791bec94876b9af9d8975055853795277a07f5b79a0ea440f9aacb5a",
            "D1.pack": "5c9743add80b5177d5ef35e2843a0cc3c5acc8f6339891b88d4135d7b9f0a8c4",
            "D2.pack": "b30fbc3334c3e172000fd0d232c34e6d2dd706e5a2fd9f96b422d1be8de3b4f2",
        }),
        (6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)], "A_edges=18 D1=8 D2=6", {
            "A.graph": "bf04b88decd0f75ac89941beb2c0782e2ebd3b113e59600b233f90d3c47284e0",
            "AL.graph": "696f1f0682c03564611cc981f84bf31f345150c48c80646b4e33ebf507b10903",
            "D1.pack": "776651442a0738c7eb8603856d436c7e4bb76a612822cdbfbf4016d42a4d7b27",
            "D2.pack": "a688470aedbc3d24268ede21a7a343a105fa131d60e24b0ad3ffa5c35076ad8c",
        }),
        (6, [(i, (i + 1) % 6) for i in range(6)], "A_edges=138 D1=48 D2=46", {
            "A.graph": "cd48d8964b67f2d8ad2fd623fbfca61140fecd5dc55bc23f2bdf5f9fdacc7a7f",
            "AL.graph": "dfcd3975bd3f7ad252f3915ebbc0bc6494a2364d14e4b624d5a61ca218d71586",
            "D1.pack": "36fd14009c2dd077f9ca7d8f357d9a3e5becc1e48d74c27ad797f1a3ca318f14",
            "D2.pack": "93669f70762cc9259b5f52448bff8c3574958ecb8673ffc9abe96da9c77904b0",
        }),
        (6, [e for e in itertools.combinations(range(6), 2)
             if e not in {(0, 1), (2, 3), (4, 5)}], "A_edges=144 D1=52 D2=48", {
            "A.graph": "bf8e0511a4f8bd6b5c0d826c11b2713f3ea565634fd9800642c89b84e83ab00e",
            "AL.graph": "c3fe654eb83409479e100fb856f28112bd5d1851156c8257c19de688122470b8",
            "D1.pack": "fd424d85c88d09b230f1b0dc2d43b6ed5101a0c917d4e1a3d045ce6fd0940d68",
            "D2.pack": "abf217c362c546ccc122f4eaa78ec2f44cf2b6e2415360fda2e93253402f8a31",
        }),
        (9, [(0, 1), (0, 2), (1, 2)] + [(3 + i, 4 + i) for i in range(5)] + [(3, 8)],
         "A_edges=636 D1=215 D2=212", {
            "A.graph": "fb1df4d5c4b8e28ad6c71ddad49283303982e4ea8f156e79b1850386bb357468",
            "AL.graph": "08e0baee3471effd5b48f44c4f241e4b5b0c4789b7d5927dcde977a6df2a0cf6",
            "D1.pack": "5b97c305e7a89e9860c7231ff0a380b2d1f0e57e10700388f9da69182c965f47",
            "D2.pack": "59b7577533545ef346a647c0ee87cc38fa85f04e21ab53d594a6ab0a91e14a86",
        }),
    ], ids=["bowtie", "two-triangles", "c6", "octahedron", "triangle-c6"])
    def test_absorber_matches_recorded_digests(self, tmp_path, monkeypatch, capsys,
                                               n, edges, summary, want):
        monkeypatch.chdir(tmp_path)
        write_graph(Hypergraph(n, 2, edges), "L.graph")
        code, out = run(capsys, "gadget", "absorber", "L.graph", "--out", "abs")
        assert code == 0 and summary in out and "verified=True" in out
        for name, digest in want.items():
            with open(os.path.join("abs", name), "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, name


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

    def test_build_small_matches_recorded_digests(self, tmp_path, monkeypatch, capsys):
        # SHA-256 of the certificate that omni build-small wrote for two
        # disjoint triangles before the absorber assembly was rebuilt from
        # one rooted booster
        want = {
            "A.graph": "3342ca6ebdd0a4e659f2f6b50cb3db7a621a433486c7f6b5026ed7a91b7c086f",
            "family.txt": "3a7a97f728c96e80ca2d13a619c52e8fbddcc250cdd9343495f12472f7fae104",
            "manifest": "08bc9aa381d3024f536a369e37574810b0c4a87a5159c7ed507decaff13d2fd3",
        }
        monkeypatch.chdir(tmp_path)
        write_graph(Hypergraph(8, 2, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),
                    "X.graph")
        code, out = run(capsys, "omni", "build-small", "--graph", "X.graph", "--out", "cert")
        assert code == 0 and "family=28 C=2 A_edges=36" in out
        for name, digest in want.items():
            with open(os.path.join("cert", name), "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, name
        code, out = run(capsys, "omni", "verify", "cert")
        assert code == 0 and "checked=4 failures=0" in out

    def test_sampled_verify_reads_trials_and_seed(self, tmp_path, capsys):
        cert = str(tmp_path / "cert")
        assert main(["omni", "build-1d", "--m", "6", "--out", cert]) == 0
        capsys.readouterr()
        code, out = run(capsys, "omni", "verify", cert, "--mode", "sample",
                        "--trials", "5", "--seed", "3")
        assert code == 0 and "failures=0" in out

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_sampled_verify_without_trials_exit_3(self, tmp_path, capsys, trials):
        cert = str(tmp_path / "cert")
        assert main(["omni", "build-1d", "--m", "6", "--out", cert]) == 0
        capsys.readouterr()
        code, out = run(capsys, "omni", "verify", cert, "--mode", "sample",
                        "--trials", trials)
        assert code == 3 and "checked=" not in out


def disjoint_triangles(seed, n, count):
    """`count` pairwise edge-disjoint triangles on 0..n-1, in a seeded order."""
    rng = random.Random(seed)
    triples = list(itertools.combinations(range(n), 3))
    rng.shuffle(triples)
    used, chosen = set(), []
    for t in triples:
        es = set(itertools.combinations(t, 2))
        if not es & used:
            chosen.append(t)
            used |= es
            if len(chosen) == count:
                break
    return chosen


class TestIntegralCLI:
    def test_weightings_match_recorded_digests(self, tmp_path, monkeypatch, capsys):
        # SHA-256 of the weight files that the L1 descent scoring every
        # kernel vector on its whole support wrote, on unions of disjoint
        # triangles in K_15: the same steps give the same weighting, byte
        # for byte; the unreduced solve of the first target is pinned too
        want = [
            (1, 6, [], "12c65b9aebf9937ecaefb58b19ef745d168cacd772b4e7f5985c1ecebfce6ecc"),
            (1, 6, ["--reduce"], "9bda4a88aa766fe7b0486f97bd5b879dbaf862acc4fb887e6352aebd9c567224"),
            (2, 6, ["--reduce"], "e9132cd34866e8950ca9ff2d962b5c4f87892a090b5f95fc5a628a4129e17af1"),
            (3, 6, ["--reduce"], "8e2d70b7d9d9b0b5d35da33ef117f30d144beda3917b56414e8905d20b915158"),
            (4, 4, ["--reduce"], "7d1c9ed08f25982eb20adb1ab191a2c2182b93294c1d0e9ec2b9f39dfa46e1d2"),
            (5, 5, ["--reduce"], "416e3dd9ae7d8aeb2607fc219672f5ebdf296dd0b7eee4d02eb4984ef77001dd"),
        ]
        monkeypatch.chdir(tmp_path)
        for seed, count, options, digest in want:
            edges = [e for t in disjoint_triangles(seed, 15, count)
                     for e in itertools.combinations(t, 2)]
            write_graph(Hypergraph(15, 2, edges), "g.graph")
            code, _ = run(capsys, "integral", "solve", "g.graph", "--out", "w.txt", *options)
            assert code == 0, (seed, options)
            with open("w.txt", "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, (seed, options)


class TestLpCLI:
    def test_solve_feasible(self, tmp_path, capsys):
        g = str(tmp_path / "k5.graph")
        write_graph(Hypergraph.complete(5, 2), g)
        code, out = run(capsys, "lp", "solve", g, "--q", "3")
        assert code == 0

    def test_solve_infeasible_exit_1(self, tmp_path, capsys):
        g = str(tmp_path / "k4e.graph")
        write_graph(Hypergraph(4, 2, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]), g)
        code, out = run(capsys, "lp", "solve", g, "--q", "3")
        assert code == 1 and "INFEASIBLE" in out

    def test_weightings_match_recorded_digests(self, tmp_path, monkeypatch, capsys):
        # SHA-256 of the weight files that the phase 1 reducing every B^-1
        # row after each pivot wrote: the same pivots give the same
        # weighting, byte for byte
        gone = {(0, 1), (2, 3), (4, 5)}
        k8 = [e for e in Hypergraph.complete(8, 2).edges if e not in gone]
        want = [
            (Hypergraph.complete(10, 2), [],
             "8ae7806d7a58067b1dbb15ba57be307b004d36ee6d121d41539c081d5e8bd66a"),
            (Hypergraph.complete(7, 2), ["--cap", "2/7"],
             "5242c2561f2e53e56267b3149ce5dd6160deaae2b335108372d19124d4254a60"),
            (Hypergraph(8, 2, k8), [],
             "fe46d1075ed9fdefe5977dc02b75796bbbe83dcdc095fd918d1030a55f389d94"),
        ]
        monkeypatch.chdir(tmp_path)
        for G, options, digest in want:
            write_graph(G, "g.graph")
            code, out = run(capsys, "lp", "solve", "g.graph", "--out", "w.txt", *options)
            assert code == 0 and out.startswith("weighting=w.txt"), G.n
            with open("w.txt", "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, G.n


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

    @pytest.mark.parametrize("argv", [
        ["--n", "1"],              # fewer vertices than a clique
        ["--n", "9", "--q", "2"],  # q <= r
        [],                        # no --n
    ])
    def test_reserve_bad_parameters_exit_3(self, capsys, argv):
        assert main(["nibble", "reserve"] + argv) == 3
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_spread_exact(self, capsys):
        code, out = run(capsys, "nibble", "spread", "--n", "7", "--exact")
        assert code == 0 and "sigma_hat_1=0.2" in out

    def test_unreliable_sampler_exit_2(self, capsys):
        # random greedy decomposes K_7 in 4 of these 20 trials: a valid
        # command line whose sampler fails too often, not a usage error
        assert main(["nibble", "spread", "--n", "7", "--trials", "20", "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert "sampler failed 16/20 times" in err and "Traceback" not in err


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
        from absorbkit import nibble
        monkeypatch.setattr(nibble, "RETRIES", 0)
        monkeypatch.setattr(nibble, "FALLBACK_BUDGET", 0)
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

    def test_girth_reads_q_and_r_from_the_packing(self, tmp_path, capsys):
        pack = str(tmp_path / "sts7.pack")
        assert main(["oracle", "--n", "7", "--out", pack]) == 0
        capsys.readouterr()
        code, out = run(capsys, "nibble", "girth", "--packing", pack)
        assert code == 0 and "girth=4" in out   # the Fano plane has a Pasch
        assert main(["nibble", "girth", "--packing", pack, "--q", "4"]) == 3

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
                     "n=9\nlam=1\n",                # a single-valued knob, deleted
                     "n=9\nresidual_cover_budget=5\n",
                     "n=9\nhill_climb_rounds=3\n",  # a restart cap, now a constant
                     "n=7\nn=9\n"):                 # a repeated key
            cfg.write_text(text)
            assert main(["pipeline", "--config", str(cfg)]) == 3, text

    def test_oracle_and_verify(self, tmp_path, capsys):
        pack = str(tmp_path / "sts9.pack")
        code, _ = run(capsys, "oracle", "--n", "9", "--out", pack)
        assert code == 0
        code, out = run(capsys, "verify", pack, "--json")
        assert code == 0 and '"pass": true' in out


class TestMalformedInputExit3:
    """Malformed input exits 3 with an error line, never a traceback."""

    def check(self, capsys, argv):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def embed_files(self, tmp_path):
        from absorbkit.gadgets import anti_edge
        write_graph(Hypergraph(2, 2, [(0, 1)]), str(tmp_path / "J.graph"))
        write_graph(Hypergraph(2, 2, [(0, 1)]), str(tmp_path / "H.graph"))
        write_graph(anti_edge((0, 1), 3, base=2).W, str(tmp_path / "W.graph"))
        write_graph(Hypergraph.complete(6, 2), str(tmp_path / "host.graph"))

    def test_non_integer_members(self, tmp_path, capsys):
        g = str(tmp_path / "k8.graph")
        write_graph(Hypergraph.complete(8, 2), g)
        self.check(capsys, ["lp", "inherit", g, "--s", "5", "--members", "0,y"])

    @pytest.mark.parametrize("action, option", [
        ("solve", ["--cap", "abc"]),           # not a rational
        ("solve", ["--cap", "1/0"]),           # a zero denominator
        ("solve", ["--cap=-1/2"]),             # a negative cap
        ("boost", ["--multiplier", "abc"]),    # not a rational
        ("boost", ["--multiplier=-3"]),        # a negative multiplier
    ], ids=["cap-abc", "cap-zero-denominator", "cap-negative", "multiplier-abc",
            "multiplier-negative"])
    def test_lp_rational_options(self, tmp_path, capsys, monkeypatch, action, option):
        # the options are checked while the command line is parsed
        def solve(*args, **kwargs):
            raise AssertionError("the LP ran before the options were checked")
        monkeypatch.setattr(cli, "solve_fractional", solve)
        g = str(tmp_path / "k5.graph")
        write_graph(Hypergraph.complete(5, 2), g)
        self.check(capsys, ["lp", action, g] + option)

    @pytest.mark.parametrize("text", [
        "base\ngadget W.graph H.graph 0,1\n",           # base with no path
        "base J.graph\ngadget W.graph H.graph\n",       # gadget without roots
        "base J.graph\ngadget W.graph H.graph 0,z\n",   # non-integer root
        "base J.graph\nbogus W.graph\n",                # unknown directive
        "base J.graph\nbase J.graph\ngadget W.graph H.graph 0,1\n",  # second base
    ])
    def test_embed_manifest(self, tmp_path, capsys, text):
        self.embed_files(tmp_path)
        (tmp_path / "system.manifest").write_text(text)
        self.check(capsys, ["embed", "--system", str(tmp_path / "system.manifest"),
                            "--host", str(tmp_path / "host.graph")])

    @pytest.mark.parametrize("old, new", [
        ("q=3\n", ""),                 # no q
        ("q=3\n", "q=x\n"),            # a non-integer q
        ("q=3\n", "q=3\nq=3\n"),       # a repeated key
        ("q=3\n", "q=3\njunk\n"),      # a line without '='
        ("q=3\n", "q=3\nbogus=1\n"),   # an unknown key
        ("C=6\n", ""),                 # no C
        ("C=6\n", "C=1\n"),            # a C the reconstruction does not give
    ])
    def test_certificate_manifest(self, tmp_path, capsys, old, new):
        cert = tmp_path / "cert"
        assert main(["omni", "build-1d", "--m", "6", "--q", "3", "--out", str(cert)]) == 0
        manifest = cert / "manifest"
        assert old in manifest.read_text()
        manifest.write_text(manifest.read_text().replace(old, new))
        self.check(capsys, ["omni", "verify", str(cert)])

    def test_certificate_family(self, tmp_path, capsys):
        cert = tmp_path / "cert"
        assert main(["omni", "build-1d", "--m", "6", "--q", "3", "--out", str(cert)]) == 0
        (cert / "family.txt").write_text("0 1 w\n")
        self.check(capsys, ["omni", "verify", str(cert)])


def mutate(text, rng):
    """One seeded corruption of a text file: drop, duplicate or truncate a
    line, or replace one token with a non-integer or an out-of-range id."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    how = rng.randrange(4)
    if how == 0:
        del lines[i]
    elif how == 1:
        lines.insert(i, lines[i])
    elif how == 2:
        lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
    else:
        toks = lines[i].split() or [""]
        toks[rng.randrange(len(toks))] = rng.choice(["x", "-1", "8", "99", "1.5", "0,q"])
        lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("argv", [
    ["gadget", "absorber", "tri2.graph", "--out", "out"],
    ["integral", "solve", "tri2.graph", "--out", "out"],
    ["omni", "build-small", "--graph", "tri2.graph", "--out", "out"],
    ["embed", "--system", "system.manifest", "--host", "tri2.graph", "--out", "out"],
    ["lp", "solve", "tri2.graph", "--out", "out"],
    ["lp", "boost", "tri2.graph"],
    ["omni", "verify", "cert"],         # reruns the construction on cert/X.graph
    ["nibble", "run", "--graph", "tri2.graph", "--out", "out"],
    ["nibble", "highgirth", "--graph", "tri2.graph", "--json-stats", "out"],
    ["nibble", "complete", "--graph", "e2.graph", "--reserves", "x.graph",
     "--json-stats", "out"],
    ["nibble", "complete", "--graph", "x.graph", "--reserves", "e2.graph",
     "--json-stats", "out"],
    ["lp", "inherit", "tri2.graph", "--s", "3"],
    ["embed", "--system", "W2.manifest", "--host", "k7.graph", "--out", "out"],
    ["embed", "--system", "H2.manifest", "--host", "k7.graph", "--out", "out"],
    ["verify", "sts7.pack"],            # its host file is 2K_7
    ["nibble", "girth", "--packing", "sts7.pack", "--json-stats", "out"],
    ["gadget", "booster", "--host", "2k7.graph", "--out", "out"],
])
def test_multigraph_input_exit_3(tmp_path, monkeypatch, capsys, argv):
    """Absorbers, omni-absorbers, integral and fractional solves, nibble
    hosts and reserves, inheritance sampling, embedding hosts and gadgets,
    booster hosts and packing hosts take simple graphs: a file with a
    multiplicity exits 3 with a message, before any construction, and
    nothing is written."""
    from absorbkit.gadgets import anti_edge
    monkeypatch.chdir(tmp_path)
    write_graph(MultiHypergraph(3, 2, {(0, 1): 2, (0, 2): 2, (1, 2): 2}), "tri2.graph")
    write_graph(MultiHypergraph(3, 2, {(0, 1): 2}), "e2.graph")
    write_graph(Hypergraph(3, 2, [(0, 2), (1, 2)]), "x.graph")
    write_graph(Hypergraph.complete(7, 2), "k7.graph")
    k7x2 = MultiHypergraph(7, 2, {e: 2 for e in itertools.combinations(range(7), 2)})
    write_graph(k7x2, "2k7.graph")
    write_graph(Hypergraph(2, 2, [(0, 1)]), "J.graph")
    W = anti_edge((0, 1), 3, base=2).W
    write_graph(W, "W.graph")
    write_graph(MultiHypergraph(W.n, 2, {e: 2 for e in W.edges}), "W2.graph")
    (tmp_path / "system.manifest").write_text("base J.graph\ngadget W.graph J.graph 0,1\n")
    (tmp_path / "W2.manifest").write_text("base J.graph\ngadget W2.graph J.graph 0,1\n")
    (tmp_path / "H2.manifest").write_text("base J.graph\ngadget W.graph e2.graph 0,1\n")
    assert main(["omni", "build-1d", "--m", "4", "--out", "cert"]) == 0
    write_graph(MultiHypergraph(4, 1, {(0,): 2, (1,): 1, (2,): 1}), "cert/X.graph")
    assert main(["oracle", "--n", "7", "--out", "sts7.pack"]) == 0
    write_graph(k7x2, "sts7.pack.host.graph")
    capsys.readouterr()
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "multigraph" in captured.err and "Traceback" not in captured.err
    assert captured.out == "" and not os.path.exists("out")


# packing headers out of range, whose n is not the host's, or whose q is
# not above the host's r
BAD_PACKING_HEADERS = {
    "q0.pack": "0 5 1\n\nhost g5.graph\n",
    "negative-m.pack": "3 5 -2\nhost g5.graph\n",
    "negative-n.pack": "3 -1 0\nhost g5.graph\n",
    "other-n.pack": "3 4 0\nhost g5.graph\n",
    "q1.pack": "1 5 2\n0\n1\nhost g5.graph\n",
    "q-equals-r.pack": "2 5 1\n0 1\nhost g5.graph\n",
}
Q_AT_MOST_R = {"q1.pack", "q-equals-r.pack"}   # a header in range, refused by Packing


@pytest.mark.parametrize("name", sorted(BAD_PACKING_HEADERS))
@pytest.mark.parametrize("action", [["verify"], ["nibble", "girth", "--packing"]])
def test_bad_packing_header_exit_3(tmp_path, capsys, name, action):
    write_graph(Hypergraph.complete(5, 2), str(tmp_path / "g5.graph"))
    (tmp_path / name).write_text(BAD_PACKING_HEADERS[name])
    assert main(action + [str(tmp_path / name)]) == 3
    captured = capsys.readouterr()
    if name in Q_AT_MOST_R:
        assert captured.err.startswith("error: need q > r, got ")
    else:
        assert captured.err.startswith("error: line 1: ")
        assert ("bad header values" in captured.err) != (name == "other-n.pack")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    "nibble spread --n 7 --trials 0",    # an estimate from no sample
    "nibble spread --n 7 --trials -3",
    "nibble highgirth --n 9 --g 1",      # every triangle is a (3, 1)-configuration
    "nibble girth --packing sts7.pack --gmax 1",
])
def test_empty_parameter_values_exit_3(argv, cli_files, capsys):
    assert main(argv.split()) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: need ") and "Traceback" not in captured.err
    assert captured.out == ""


def test_fuzzed_input_files_end_in_an_exit_code(tmp_path, capsys):
    """Seeded corruptions of valid graph, packing, pipeline-config, embed
    and certificate files: `main` returns 0/1/2/3 and never raises."""
    from absorbkit.gadgets import anti_edge
    write_graph(Hypergraph.complete(7, 2), str(tmp_path / "k7.graph"))
    # a doubled K_4 and a doubled triangle on one edge: "x k" lines reach the engine
    mult = {e: 2 for e in itertools.combinations(range(4), 2)}
    mult.update({(0, 1): 4, (0, 4): 2, (1, 4): 2})
    write_graph(MultiHypergraph(5, 2, mult), str(tmp_path / "multi.graph"))
    write_graph(Hypergraph(2, 2, [(0, 1)]), str(tmp_path / "J.graph"))
    write_graph(Hypergraph(2, 2, [(0, 1)]), str(tmp_path / "H.graph"))
    write_graph(anti_edge((0, 1), 3, base=2).W, str(tmp_path / "W.graph"))
    write_graph(Hypergraph.complete(6, 2), str(tmp_path / "host.graph"))
    assert main(["oracle", "--n", "7", "--out", str(tmp_path / "sts7.pack")]) == 0
    assert main(["omni", "build-1d", "--m", "4", "--q", "3",
                 "--out", str(tmp_path / "cert")]) == 0
    (tmp_path / "run.cfg").write_text("n=7\nseed=2\n")
    (tmp_path / "system.manifest").write_text("base J.graph\ngadget W.graph H.graph 0,1\n")
    cases = [  # (file to corrupt, argv reading it)
        ("k7.graph", ["cover", "solve", "{}"]),
        ("multi.graph", ["cover", "solve", "{}"]),
        ("multi.graph", ["gadget", "absorber", "{}"]),
        ("multi.graph", ["integral", "solve", "{}"]),
        ("multi.graph", ["omni", "build-small", "--graph", "{}",
                         "--out", str(tmp_path / "small")]),
        ("multi.graph", ["lp", "solve", "{}"]),
        ("multi.graph", ["lp", "boost", "{}"]),
        ("k7.graph", ["divide", "check", "{}"]),
        ("sts7.pack", ["verify", "{}"]),
        ("sts7.pack.host.graph", ["nibble", "girth", "--packing", str(tmp_path / "sts7.pack")]),
        ("run.cfg", ["pipeline", "--config", "{}"]),
        ("system.manifest", ["embed", "--system", "{}", "--host", str(tmp_path / "host.graph")]),
        ("cert/manifest", ["omni", "verify", str(tmp_path / "cert")]),
        ("cert/family.txt", ["omni", "verify", str(tmp_path / "cert")]),
    ]
    write_graph(Hypergraph.complete(5, 2), str(tmp_path / "g5.graph"))
    for name, text in BAD_PACKING_HEADERS.items():
        (tmp_path / name).write_text(text)
        for argv in (["verify"], ["nibble", "girth", "--packing"]):
            assert main(argv + [str(tmp_path / name)]) == 3, name
            assert "Traceback" not in capsys.readouterr().err
    rng = random.Random(1212)
    for name, argv in cases:
        path = tmp_path / name
        valid = path.read_text()
        for _ in range(25):
            bad = mutate(valid, rng)
            path.write_text(bad)
            code = main([a.replace("{}", str(path)) for a in argv])
            assert code in (0, 1, 2, 3), (name, bad)
            assert "Traceback" not in capsys.readouterr().err
        path.write_text(valid)
