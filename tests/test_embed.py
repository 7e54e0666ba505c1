import pytest

from absorbkit.embed import DFS_BUDGET, SupergraphSystem, embed_system
from absorbkit.cli import main
from absorbkit.errors import BudgetError, ParameterError
from absorbkit.exactcover import find_decomposition
from absorbkit.gadgets import RootedGadget, anti_edge, fake_edge
from absorbkit.hypercore import Hypergraph, MultiHypergraph, clique_edges, write_graph
from absorbkit.omni import omni_small


def fake_clique_system(host_n=30):
    """One gadget per triple of an STS(7): the union of the three fake edges
    of the triple, rooted at the triple's vertices."""
    sts = find_decomposition(Hypergraph.complete(7, 2), 3)
    J = Hypergraph.complete(7, 2).multi()
    H_family, gadgets = [], []
    nxt = 7
    for tri in sts:
        H = Hypergraph(7, 2, clique_edges(tri, 2))
        edges = set()
        for e in clique_edges(tri, 2):
            g = fake_edge(e, 3, base=nxt)
            nxt = g.W.n
            edges |= set(g.W.edges)
        W = RootedGadget(W=Hypergraph(nxt, 2, edges), roots=tri)
        H_family.append(H)
        gadgets.append(W)
    return SupergraphSystem(J=J, H_family=H_family, gadgets=gadgets), sts


class TestEmbedSystem:
    def test_single_anti_edge(self):
        J = MultiHypergraph(2, 2, {(0, 1): 1})
        H = Hypergraph(2, 2, [(0, 1)])
        W = anti_edge((0, 1), 3, base=2)
        sys = SupergraphSystem(J=J, H_family=[H], gadgets=[W])
        emb = embed_system(sys, Hypergraph.complete(10, 2), seed=1)
        assert emb is not None
        assert emb.image.m == 2

    def test_sts7_fake_cliques_into_k30(self):
        sys, _ = fake_clique_system()
        emb = embed_system(sys, Hypergraph.complete(30, 2), seed=7)
        assert emb is not None
        # pairwise edge-disjoint images, each avoiding K_7's other pairs
        assert emb.image.m == sum(g.W.m for g in sys.gadgets)

    def test_too_many_fresh_none(self):
        J = MultiHypergraph(2, 2, {(0, 1): 1})
        H = Hypergraph(2, 2, [(0, 1)])
        W = fake_edge((0, 1), 3, base=2)  # 3 fresh vertices
        sys = SupergraphSystem(J=J, H_family=[H], gadgets=[W])
        assert embed_system(sys, Hypergraph.complete(4, 2), seed=0) is None

    def test_determinism(self):
        sys, _ = fake_clique_system()
        e1 = embed_system(sys, Hypergraph.complete(30, 2), seed=3)
        sys2, _ = fake_clique_system()
        e2 = embed_system(sys2, Hypergraph.complete(30, 2), seed=3)
        assert e1.phi == e2.phi

    def test_high_min_degree_success_rate(self):
        # statistical acceptance on dense hosts: all of 10 seeded runs embed
        hits = 0
        for seed in range(10):
            sys, _ = fake_clique_system()
            if embed_system(sys, Hypergraph.complete(30, 2), seed=seed) is not None:
                hits += 1
        assert hits >= 10 * 0.95

    def test_root_internal_edge_rejected(self):
        J = MultiHypergraph(3, 2, {(0, 1): 1})
        H = Hypergraph(3, 2, [(0, 1)])
        bad = RootedGadget(W=Hypergraph(3, 2, [(0, 2), (1, 2)]), roots=(0, 1, 2))
        with pytest.raises(ParameterError):
            SupergraphSystem(J=J, H_family=[H], gadgets=[bad])


def private_absorbers(n=109, triangles=4):
    """The omni-absorber's private absorbers for X = `triangles` disjoint
    triangles in K_n: one gadget per nonempty union of X's triangles."""
    X = Hypergraph(n, 2, [e for t in range(triangles)
                          for e in clique_edges((3 * t, 3 * t + 1, 3 * t + 2), 2)])
    cert = omni_small(X, 3)
    H_family, gadgets = [], []
    for key in sorted((k for k in cert.parts if k), key=sorted):
        part = cert.parts[key]
        W = Hypergraph(max(max(v for e in part["edges"] for v in e) + 1, n), 2,
                       part["edges"])
        H_family.append(Hypergraph(n, 2, key))
        gadgets.append(RootedGadget(W=W, roots=part["support"]))
    return X, H_family, gadgets


class TestEmbedBudget:
    # 4 disjoint triangles have 15 private absorbers; their 12 roots exceed
    # the degree budget, so no embedding exists and the exhaustive fallback
    # used to enumerate injective assignments without end

    def test_overloaded_roots_raise_budget_error(self):
        X, H_family, gadgets = private_absorbers()
        assert len(gadgets) == 15
        sys = SupergraphSystem(J=X.multi(), H_family=H_family, gadgets=gadgets)
        with pytest.raises(BudgetError, match=f"{DFS_BUDGET} of {DFS_BUDGET} nodes"):
            embed_system(sys, Hypergraph.complete(109, 2), seed=0)

    def test_cli_exits_2(self, tmp_path, capsys):
        X, H_family, gadgets = private_absorbers()
        write_graph(X, str(tmp_path / "X.graph"))
        write_graph(Hypergraph.complete(109, 2), str(tmp_path / "host.graph"))
        lines = ["base X.graph"]
        for i, (H, W) in enumerate(zip(H_family, gadgets)):
            write_graph(W.W, str(tmp_path / f"W{i}.graph"))
            write_graph(H, str(tmp_path / f"H{i}.graph"))
            lines.append(f"gadget W{i}.graph H{i}.graph "
                         + ",".join(map(str, W.roots)))
        (tmp_path / "system.manifest").write_text("\n".join(lines) + "\n")
        code = main(["embed", "--system", str(tmp_path / "system.manifest"),
                     "--host", str(tmp_path / "host.graph")])
        assert code == 2
        assert "node budget exhausted" in capsys.readouterr().err

