"""Golden CLI outputs: stdout and exit code of a fixed command list,
recorded before the degree, cover-count, key=value and spread helpers were
shared, and pinned byte for byte."""
from absorbkit.cli import main
from absorbkit.hypercore import Hypergraph, MultiHypergraph, write_graph


def _inputs():
    """The input files of GOLDEN, in the working directory."""
    write_graph(Hypergraph.complete(30, 2), "k30.graph")
    write_graph(Hypergraph.complete(8, 2), "k8.graph")
    write_graph(Hypergraph.complete(8, 3), "k83.graph")
    tri = [(0, 1), (0, 2), (1, 2)]
    write_graph(MultiHypergraph(3, 2, {e: 2 for e in tri}), "tri2.graph")
    write_graph(MultiHypergraph(4, 2, {(0, 1): 2, (0, 2): 1, (1, 2): 1, (2, 3): 3}),
                "odd.graph")
    write_graph(Hypergraph(8, 2, tri + [(3, 4), (3, 5), (4, 5)]), "tri-tri.graph")
    with open("run.cfg", "w") as fh:
        fh.write("# a Steiner triple system on 9 points\nn = 9\nseed=5\n")


GOLDEN = [  # (argv, exit code, stdout)
    ("nibble spread --n 7 --exact", 0, "sigma_hat_1=0.2\n"),
    ("nibble spread --n 9 --exact", 0, "sigma_hat_1=0.14285714285714285\n"),
    ("nibble spread --n 3 --trials 5 --seed 1", 0, "sigma_hat_1=1.0\n"),
    ("nibble spread --n 7 --trials 20 --seed 0", 2, ""),
    ("lp inherit k30.graph --s 10 --members 0,1 --trials 50 --seed 2 "
     "--threshold 0.8 --json", 0,
     '{"fraction": 1.0, "hits": 50, "min_seen": 9, "threshold": 7.2, "trials": 50}\n'),
    ("lp boost k8.graph --seed 1 --json", 0,
     '{"c_hat": 0.35714285714285715, "clamped": 14, "family": 20, '
     '"gamma_hat": 0.1904761904761905}\n'),
    ("nibble reserve --n 20 --seed 4 --json", 0,
     '{"X_edges": 67, "count_ok": false, "count_ok_high_min_degree": false, '
     '"count_ok_verbatim": false, "count_threshold": 0.8099999999999999, '
     '"count_threshold_high_min_degree": 0.028124999999999997, '
     '"count_threshold_verbatim": 0.8999999999999999, "degree_ok": true, '
     '"max_degree": 10, "min_count": 0}\n'),
    ("divide check tri2.graph", 0, "divisible=True\n"),
    ("divide check odd.graph", 1, "divisible=False\n"),
    ("divide check k83.graph --q 4", 0, "divisible=True\n"),
    ("divide check --params 19,3,2,1", 0,
     "i=0 divisor=3 value=171 ok=True\ni=1 divisor=2 value=18 ok=True\n"),
    ("divide check --params 20,3,2,1", 1,
     "i=0 divisor=3 value=190 ok=False\ni=1 divisor=2 value=19 ok=False\n"),
    ("omni build-small --graph tri-tri.graph --out omni", 0,
     "certificate=omni family=28 C=2 A_edges=36\n"),
    ("omni verify omni", 0, "checked=4 failures=0\n"),
    ("omni refinedness omni", 0, "refinedness=2 claimed_C=2\n"),
    ("pipeline --config run.cfg", 0, "n=9 triples=12 route=hill-climb verified=True\n"),
    ("oracle --n 99 --out o99.pack", 0, "packing=o99.pack triples=1617\n"),
    ("verify o99.pack", 0, "pass=True\nbad_subsets=0\ncliques=1617\nexpected_cliques=1617\n"),
]


def test_cli_outputs_match_the_recording(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _inputs()
    for argv, code, out in GOLDEN:
        got = main(argv.split())
        assert (got, capsys.readouterr().out) == (code, out), argv
