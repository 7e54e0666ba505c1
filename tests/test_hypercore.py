import hashlib
import itertools
import random
from collections import Counter
from math import comb

import pytest

from absorbkit import hypercore
from absorbkit.errors import ParameterError, ParseError
from absorbkit.hypercore import (Decomposition, Hypergraph, MultiHypergraph,
                                 Packing, clique_edges, decomposition_valid,
                                 enumerate_cliques, max_level_degree,
                                 read_graph, read_packing, write_graph,
                                 write_packing)


def triangle(n=3):
    return Hypergraph(n, 2, [(0, 1), (0, 2), (1, 2)])


def reference_decomposition_valid(target, cliques, q):
    """decomposition_valid as a per-clique Python loop with Counter's ==."""
    want = Counter(target.mult) if isinstance(target, MultiHypergraph) else Counter(target.edges)
    got = Counter()
    for c in cliques:
        c = tuple(sorted(c))
        if len(c) != q or len(set(c)) != q:
            return False
        for e in clique_edges(c, target.r):
            got[e] += 1
    return got == want


class TestCliqueEnumeration:
    def test_k5_triangles(self):
        assert len(enumerate_cliques(Hypergraph.complete(5, 2), 3)) == 10

    def test_k4_minus_edge(self):
        G = Hypergraph(4, 2, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert enumerate_cliques(G, 3) == [(0, 2, 3), (1, 2, 3)]

    def test_k7_3uniform(self):
        assert len(enumerate_cliques(Hypergraph.complete(7, 3), 4)) == 35

    def test_lex_order_and_subset_property(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(4, 8)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6]
            G = Hypergraph(n, 2, edges)
            cl = enumerate_cliques(G, 3)
            assert cl == sorted(cl)
            for c in cl:
                assert all(e in G.edges for e in clique_edges(c, 2))
            brute = [c for c in itertools.combinations(range(n), 3)
                     if all(e in G.edges for e in clique_edges(c, 2))]
            assert cl == brute

    def test_binomial_size_on_complete(self):
        from math import comb
        for n, r, q in [(6, 2, 3), (7, 2, 4), (6, 3, 4)]:
            assert len(enumerate_cliques(Hypergraph.complete(n, r), q)) == comb(n, q)

    def test_q_le_r_rejected(self):
        with pytest.raises(ParameterError):
            enumerate_cliques(Hypergraph.complete(5, 2), 2)

    def test_3uniform_sparse(self):
        G = Hypergraph(5, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        assert enumerate_cliques(G, 4) == [(0, 1, 2, 3)]


class TestDegrees:
    # max_level_degree(G, j): the most edges through one j-subset of an edge
    def test_vertex_degree_complete(self):
        assert max_level_degree(Hypergraph.complete(8, 2), 1) == 7

    def test_pair_degree_k7_3(self):
        assert max_level_degree(Hypergraph.complete(7, 3), 2) == 5

    def test_empty_graph(self):
        assert max_level_degree(Hypergraph(5, 2), 1) == 0

    def test_multiplicity_counts(self):
        J = MultiHypergraph(4, 2, {(0, 1): 3, (0, 2): 1})
        assert max_level_degree(J, 1) == 4
        assert max_level_degree(J, 0) == 4

    def test_monotone_under_superset(self):
        rng = random.Random(3)
        G = Hypergraph(7, 3, [tuple(sorted(rng.sample(range(7), 3))) for _ in range(18)])
        for j in range(2):
            assert max_level_degree(G, j) >= max_level_degree(G, j + 1)

    def test_max_level_degree(self):
        assert max_level_degree(Hypergraph.complete(9, 2), 1) == 8
        assert max_level_degree(Hypergraph(5, 3, [(0, 1, 2)]), 2) == 1
        assert max_level_degree(Hypergraph.complete(6, 2), 0) == 15
        with pytest.raises(ParameterError):
            max_level_degree(Hypergraph.complete(6, 2), 2)

    def test_level_degrees_and_cover_counts_match_brute_force(self):
        rng = random.Random(28)
        for r in (1, 2, 3):
            for trial in range(8):
                n = rng.randint(r, 8)
                edges = [e for e in itertools.combinations(range(n), r) if rng.random() < 0.6]
                if trial % 2:
                    G = MultiHypergraph(n, r, {e: rng.randint(1, 3) for e in edges})
                    items = G.mult.items()
                else:
                    G = Hypergraph(n, r, edges)
                    items = [(e, 1) for e in G.edges]
                for j in range(r):
                    want = {S: sum(k for e, k in items if set(S) <= set(e))
                            for S in itertools.combinations(range(n), j)}
                    want = {S: d for S, d in want.items() if d}
                    assert hypercore.level_degrees(G, j) == want, (G, j)
                cliques = [tuple(sorted(rng.sample(range(9), q)))
                           for q in (r + 1, r + 2) for _ in range(rng.randint(0, 6))]
                want = Counter()
                for c in cliques:
                    for e in clique_edges(c, r):
                        want[e] += 1
                assert hypercore.cover_counts(cliques, r) == want, (cliques, r)

    def test_packing_needs_q_above_r(self):
        with pytest.raises(ParameterError):
            Packing(Hypergraph.complete(5, 2), [(0, 1)])
        with pytest.raises(ParameterError):
            Packing(Hypergraph.complete(5, 2), [], q=1)


class TestPackingDecomposition:
    def test_valid_packing(self):
        P = Packing(Hypergraph.complete(7, 2), [(0, 1, 2), (3, 4, 5)])
        assert len(P) == 2
        assert len(P.host.edges - P.covered_edges()) == 21 - 6

    def test_overlap_rejected(self):
        with pytest.raises(ParameterError):
            Packing(Hypergraph.complete(7, 2), [(0, 1, 2), (0, 1, 3)])

    def test_non_clique_rejected(self):
        G = Hypergraph(4, 2, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        with pytest.raises(ParameterError):
            Packing(G, [(0, 1, 2)])

    def test_decomposition_exact(self):
        D = Decomposition(triangle(), [(0, 1, 2)])
        assert len(D) == 1
        with pytest.raises(ParameterError):
            Decomposition(Hypergraph.complete(4, 2), [(0, 1, 2)])

    def test_multigraph_decomposition(self):
        J = MultiHypergraph(3, 2, {(0, 1): 2, (0, 2): 2, (1, 2): 2})
        D = Decomposition(J, [(0, 1, 2), (0, 1, 2)])
        assert len(D) == 2
        assert not decomposition_valid(J, [(0, 1, 2)], 3)

    def test_decomposition_valid_matches_reference(self):
        from absorbkit.pipeline import oracle_steiner
        sts7 = list(oracle_steiner(7).cliques)
        k7, k7_3 = Hypergraph.complete(7, 2), Hypergraph.complete(7, 3)
        doubled = MultiHypergraph(7, 2, {e: 2 for e in k7.edges})
        sqs8 = [c for c in itertools.combinations(range(8), 4)
                if c[0] ^ c[1] ^ c[2] ^ c[3] == 0]
        cases = [
            (k7, sts7, 3, True),
            (k7, [tuple(reversed(c)) for c in sts7], 3, True),   # unsorted members
            (k7, sts7[1:], 3, False),                           # a missing triple
            (k7, sts7 + sts7[:1], 3, False),                    # a doubled triple
            (k7, sts7[1:] + [(0, 1, 7)], 3, False),             # an out-of-range vertex
            (k7, sts7[1:] + [(0, 1, 2, 3)], 3, False),          # a wrong-size clique
            (k7, sts7[1:] + [(2, 2, 5)], 3, False),             # a repeated vertex
            (k7, sts7[1:] + [(2, 2, 5, 6)], 3, False),          # both at once
            (doubled, sts7 + sts7, 3, True),                    # multigraph, lambda = 2
            (doubled, sts7, 3, False),
            (k7, sts7 + sts7, 3, False),
            (Hypergraph.complete(8, 3), sqs8, 4, True),         # r = 3
            (Hypergraph.complete(8, 3), sqs8[1:], 4, False),
            (k7_3, list(itertools.combinations(range(7), 4)), 4, False),
            (Hypergraph(3, 1, [(0,), (1,), (2,)]), [(0, 1, 2)], 3, True),  # r = 1
            (MultiHypergraph(6, 1, {(2,): 2, (5,): 1}), [(2, 2, 5)], 3, False),
            (Hypergraph(4, 2), [], 3, True),
            (triangle(), [], 3, False),
        ]
        for target, cliques, q, verdict in cases:
            assert decomposition_valid(target, cliques, q) is verdict, (target, q)
            assert reference_decomposition_valid(target, cliques, q) is verdict

    def test_decomposition_valid_random_families(self):
        # random clique families on random simple and multigraph targets:
        # triangles on graphs, then K_4^(3)s on 3-graphs
        rng = random.Random(15)
        for r, q in ((2, 3), (3, 4)):
            verdicts = Counter()
            for _ in range(200):
                n = rng.randint(q + 1, q + 5)
                pool = list(itertools.combinations(range(n), q))
                cliques = rng.sample(pool, rng.randint(0, 4))
                mult = Counter(e for c in cliques for e in itertools.combinations(c, r))
                if rng.random() < 0.5:
                    e = rng.choice(list(itertools.combinations(range(n), r)))
                    mult[e] += rng.choice((-1, 1)) if mult[e] else 1
                target = (MultiHypergraph(n, r, mult) if max(mult.values(), default=1) > 1
                          else Hypergraph(n, r, [e for e, k in mult.items() if k]))
                got = decomposition_valid(target, cliques, q)
                assert got == reference_decomposition_valid(target, cliques, q)
                verdicts[got] += 1
            assert verdicts[True] > 50 and verdicts[False] > 50, (r, verdicts)


class TestComplete:
    def test_same_edges_as_checked_construction(self):
        for n in range(0, 9):
            for r in range(1, 5):
                G = Hypergraph.complete(n, r)
                want = Hypergraph(n, r, itertools.combinations(range(n), r))
                assert G == want and G.edges == want.edges
                assert G.is_complete() and isinstance(G.edges, frozenset)

    @pytest.mark.parametrize("n, r", [(5, 0), (-1, 2)])
    def test_bad_order_or_uniformity(self, n, r):
        with pytest.raises(ParameterError):
            Hypergraph.complete(n, r)


class TestFiles:
    def test_documented_example(self, tmp_path):
        p = tmp_path / "t.graph"
        p.write_text("2 3 3\n0 1\n0 2\n1 2\n")
        G = read_graph(str(p))
        assert G == triangle()

    def test_round_trip_k7_3(self, tmp_path):
        G = Hypergraph.complete(7, 3)
        p = tmp_path / "k73.graph"
        write_graph(G, str(p))
        assert read_graph(str(p)) == G

    def test_round_trip_multigraph(self, tmp_path):
        J = MultiHypergraph(4, 2, {(0, 1): 2, (2, 3): 1})
        p = tmp_path / "m.graph"
        write_graph(J, str(p))
        assert read_graph(str(p)) == J

    def test_same_edge_order_as_checked_construction(self, tmp_path):
        # list(G.edges) is exact cover's item order: read_graph must order a
        # file's edges as Hypergraph(n, r, <file lines>) does
        def checked(path):
            lines = path.read_text().splitlines()
            r, n, m = map(int, lines[0].split())
            return Hypergraph(n, r, [tuple(map(int, ln.split()[:r])) for ln in lines[1:m + 1]])

        rng = random.Random(16)

        def write_shuffled(path, J):
            lines = [" ".join(map(str, e)) + (f" x {k}" if k > 1 else "")
                     for e, k in J.mult.items()]
            rng.shuffle(lines)
            path.write_text("\n".join([f"{J.r} {J.n} {len(lines)}"] + lines) + "\n")

        p = tmp_path / "g.graph"
        for n in range(3, 131):
            write_graph(Hypergraph.complete(n, 2), str(p))
            assert list(read_graph(str(p)).edges) == list(checked(p).edges), n
        for i in range(60):
            n, r = rng.randint(4, 30), rng.randint(1, 3)
            edges = rng.sample(list(itertools.combinations(range(n), r)),
                               rng.randint(1, comb(n, r)))
            J = MultiHypergraph(n, r, {e: rng.choice((1, 1, 2, 3)) if i % 2 else 1
                                       for e in edges})
            write_shuffled(p, J)
            G = read_graph(str(p))
            assert isinstance(G, MultiHypergraph) == (J.m > len(J.mult)), i
            assert G == (J if isinstance(G, MultiHypergraph) else J.simple()), i
            assert list(G.simple().edges) == list(checked(p).edges), i

    def test_duplicate_edge_rejected(self, tmp_path):
        p = tmp_path / "dup.graph"
        p.write_text("2 3 2\n0 1\n0 1\n")
        with pytest.raises(ParseError, match="line 3"):
            read_graph(str(p))

    def test_unsorted_edge_rejected(self, tmp_path):
        p = tmp_path / "bad.graph"
        p.write_text("2 3 1\n1 0\n")
        with pytest.raises(ParseError, match="line 2"):
            read_graph(str(p))

    def test_out_of_range_vertex(self, tmp_path):
        p = tmp_path / "oor.graph"
        p.write_text("2 3 1\n0 5\n")
        with pytest.raises(ParseError):
            read_graph(str(p))

    def test_bad_header(self, tmp_path):
        p = tmp_path / "h.graph"
        p.write_text("2 3\n")
        with pytest.raises(ParseError, match="line 1"):
            read_graph(str(p))

    def test_packing_round_trip(self, tmp_path):
        host = Hypergraph.complete(7, 2)
        gpath = tmp_path / "k7.graph"
        write_graph(host, str(gpath))
        P = Packing(host, [(0, 1, 2), (3, 4, 5)])
        ppath = tmp_path / "p.pack"
        write_packing(P, str(ppath), "k7.graph")
        P2 = read_packing(str(ppath))
        assert P2.cliques == P.cliques
        assert P2.host == host

    def test_line_after_declared_edges_rejected(self, tmp_path):
        p = tmp_path / "trailing.graph"
        p.write_text("2 4 1\n0 1\n2 3\n")
        with pytest.raises(ParseError, match="line 3"):
            read_graph(str(p))
        p.write_text("2 4 1\n0 1\n\n")   # trailing blank lines are fine
        assert read_graph(str(p)).m == 1

    def test_line_after_host_rejected(self, tmp_path):
        write_graph(Hypergraph.complete(7, 2), str(tmp_path / "k7.graph"))
        ppath = tmp_path / "p.pack"
        ppath.write_text("3 7 1\n0 1 2\nhost k7.graph\n3 4 5\n")
        with pytest.raises(ParseError, match="line 4"):
            read_packing(str(ppath))

    def test_packing_clique_outside_host_rejected(self, tmp_path):
        (tmp_path / "g.graph").write_text("2 4 5\n0 1\n0 2\n0 3\n1 2\n2 3\n")
        ppath = tmp_path / "p.pack"
        ppath.write_text("3 4 2\n0 1 2\n1 2 3\nhost g.graph\n")
        with pytest.raises(ParameterError, match=r"^\(1, 2, 3\) is not a clique of the host$"):
            read_packing(str(ppath))

    def test_packing_edge_covered_twice_rejected(self, tmp_path):
        write_graph(Hypergraph.complete(7, 2), str(tmp_path / "k7.graph"))
        ppath = tmp_path / "p.pack"
        ppath.write_text("3 7 3\n2 4 6\n0 1 5\n0 3 5\nhost k7.graph\n")
        with pytest.raises(ParameterError, match=r"^edge \(0, 5\) covered twice$"):
            read_packing(str(ppath))


# Differential tests of the bulk readers: every file is read twice, once as
# it is and once with the bulk pass switched off, so that the line loops
# read the whole block; both must give the same graph, the same edge order
# (exact cover's item order) and the same packing, or the same error.

def id_lines(rows, rng, loose):
    """One text line per id row: canonical ("0 1"), or loose, with tabs,
    runs of spaces, leading and trailing blanks and +1 / 01 ids."""
    if not loose:
        return [" ".join(map(str, row)) for row in rows]
    out = []
    for row in rows:
        toks = [rng.choice((str(v), str(v), f"+{v}", f"0{v}")) for v in row]
        seps = [rng.choice((" ", "  ", "\t", " \t ")) for _ in toks]
        out.append(rng.choice(("", " ", "\t")) + "".join(
            sep + tok for sep, tok in zip(seps, toks))[len(seps[0]):]
            + rng.choice(("", " ", "\t")))
    return out


def graph_corpus(rng):
    """Graph file texts: complete and random simple graphs for r = 1, 2, 3
    in canonical and loose layouts, with trailing blank lines, explicit
    "x 1" lines, multigraph lines, and seeded corruptions of each."""
    texts = []
    bases = [(n, 2, list(itertools.combinations(range(n), 2))) for n in (0, 1, 2, 3, 7, 12)]
    bases += [(6, 3, list(itertools.combinations(range(6), 3))),
              (5, 1, [(v,) for v in range(5)])]
    for _ in range(40):
        n, r = rng.randint(1, 12), rng.randint(1, 3)
        pool = list(itertools.combinations(range(n), r))
        edges = rng.sample(pool, rng.randint(0, len(pool)))
        bases.append((n, r, edges))
    for n, r, edges in bases:
        for variant in range(4):
            rows = list(edges)
            if variant:
                rng.shuffle(rows)
            lines = id_lines(rows, rng, loose=variant >= 2)
            if variant == 3:   # multiplicities, some of them an explicit 1
                lines = [ln + rng.choice(("", "", " x 1", " x 2", "\tx 3")) for ln in lines]
            tail = rng.choice(("", "\n", "\n\n", " \n\t\n"))
            texts.append("\n".join([f"{r} {n} {len(rows)}"] + lines) + "\n" + tail)
    for text in list(texts):
        if rng.random() < 0.5:
            texts.append(corrupt(text, rng))
    return texts


def corrupt(text, rng):
    """One seeded corruption: drop, duplicate, blank or truncate a line,
    swap two ids, or replace one token."""
    lines = text.splitlines() or [""]
    i = rng.randrange(len(lines))
    how = rng.randrange(6)
    if how == 0:
        del lines[i]
    elif how == 1:
        lines.insert(i, lines[i])
    elif how == 2:
        lines[i] = rng.choice(("", " ", "\t"))
    elif how == 3:
        lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
    else:
        toks = lines[i].split() or [""]
        j = rng.randrange(len(toks))
        if how == 4 and len(toks) > 1:
            toks[j], toks[j - 1] = toks[j - 1], toks[j]
        else:
            toks[j] = rng.choice(["x", "-1", "0", "7", "12", "99", "1.5", "", "+2", "x 2"])
        lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


# one text per ParseError kind of a graph file, and the "x k" forms
GRAPH_CASES = [
    "",                                # empty file
    "2 3\n",                          # a header of two fields
    "2 3 x\n",                        # a non-integer header field
    "0 3 0\n", "2 -1 0\n", "2 3 -1\n",   # bad header values
    "2 3 2\n0 1\n",                  # a missing edge line at the end
    "2 3 2\n0 1\n\n1 2\n",         # a blank edge line
    "2 3 1\n0 1 x y\n",              # a bad multiplicity
    "2 3 1\n0 1 x 0\n",              # a multiplicity below 1
    "2 3 1\n0 1 2\n",                # three ids on an r = 2 line
    "2 3 1\n0 a\n",                  # a non-integer id
    "2 3 1\n1 0\n", "2 3 1\n1 1\n",     # not strictly increasing
    "2 3 1\n0 3\n", "2 3 1\n-1 0\n",    # a vertex outside 0..n-1
    "2 3 2\n0 1\n0 1\n",            # a repeated edge
    "2 3 2\n0 1\n0 1 x 2\n",        # a repeated edge, one with a multiplicity
    "2 3 1\n0 1\n1 2\n",            # a line after the declared edges
    "2 3 1\n0 1\n\n\n",            # trailing blank lines
    "2 3 1\n0 1 x 1\n",              # an explicit multiplicity 1
    "2 3 2\n0 1 x 2\n1 2\n",        # a multigraph
]


def read_both(monkeypatch, reader, path):
    """[(bulk result), (line-loop result)], each ("ok", value, loops) or
    (error type, message, loops); loops counts the line-loop calls."""
    out = []
    for bulk in (True, False):
        loops = []
        with monkeypatch.context() as mp:
            for name in ("_read_graph_lines", "_read_clique_lines"):
                fn = getattr(hypercore, name)
                mp.setattr(hypercore, name,
                           lambda *a, fn=fn: loops.append(1) or fn(*a))
            if not bulk:
                mp.setattr(hypercore, "_id_rows", lambda *a: None)
            try:
                out.append(("ok", reader(path), len(loops)))
            except (ParseError, ParameterError) as exc:
                out.append((type(exc), str(exc), len(loops)))
    return out


def same_graph(a, b):
    assert type(a) is type(b) and a == b
    if isinstance(a, MultiHypergraph):
        assert list(a.mult.items()) == list(b.mult.items())
    else:
        assert list(a.edges) == list(b.edges)


class TestBulkReaders:
    def test_graph_files(self, tmp_path, monkeypatch):
        path = str(tmp_path / "g.graph")
        texts = graph_corpus(random.Random(2701)) + GRAPH_CASES
        kinds = Counter()
        for text in texts:
            with open(path, "w") as fh:
                fh.write(text)
            (kind, got, loops), (kind2, want, _) = read_both(monkeypatch, read_graph, path)
            assert kind == kind2, text
            if kind != "ok":
                assert got == want, text
                kinds[want.split(":")[1].split()[0]] += 1
                continue
            same_graph(got, want)
            plain = all(len(ln.split()) == got.r for ln in text.splitlines()[1:got.m + 1])
            assert loops == (0 if plain else 1), text   # plain blocks never loop
            kinds["ok-bulk" if plain else "ok-loop"] += 1
        # every kind of outcome occurs
        assert {"ok-bulk", "ok-loop", "empty", "expected", "non-integer", "bad",
                "missing", "multiplicity", "edge", "vertex", "duplicate",
                "unexpected"} <= set(kinds), kinds

    def test_packing_files(self, tmp_path, monkeypatch):
        rng = random.Random(2702)
        write_graph(Hypergraph.complete(9, 2), str(tmp_path / "k9.graph"))
        write_graph(Hypergraph(9, 2, [e for e in itertools.combinations(range(9), 2)
                                      if e != (0, 1)]), str(tmp_path / "sparse.graph"))
        write_graph(MultiHypergraph(9, 2, {(0, 1): 2}), str(tmp_path / "multi.graph"))
        write_graph(Hypergraph.complete(8, 2), str(tmp_path / "k8.graph"))
        write_graph(Hypergraph.complete(8, 3), str(tmp_path / "k83.graph"))
        texts = [
            "", "3 9\nhost k9.graph\n", "3 9 y\nhost k9.graph\n",
            "0 9 1\n\nhost k9.graph\n", "3 9 -2\nhost k9.graph\n",
            "3 -1 0\nhost k9.graph\n", "3 8 0\nhost k9.graph\n",
            "3 9 0\nhost k9.graph\n", "3 9 2\n0 1 2\nhost k9.graph\n",
            "3 9 1\n0 1 2\n", "3 9 1\n0 1\nhost k9.graph\n",
            "3 9 1\n0 1 z\nhost k9.graph\n", "3 9 1\n0 2 1\nhost k9.graph\n",
            "3 9 1\n0 1 9\nhost k9.graph\n", "3 9 1\n0 1 2\nhost k9.graph\n0 1\n",
            "3 9 2\n0 1 2\n0 1 3\nhost k9.graph\n",
            "3 9 1\n0 1 2\nhost sparse.graph\n", "3 9 1\n0 1 2\nhost multi.graph\n",
            "3 9 2\n0 1 2\n\nhost k9.graph\n", "3 9 1\n0 1 2\nhost absent.graph\n",
            "4 8 2\n0 1 2 3\n4 5 6 7\nhost k83.graph\n",
            "4 8 2\n0 1 2 3\n0 1 2 4\nhost k83.graph\n",
        ]
        for _ in range(60):
            n = rng.choice((8, 9))
            pool = [c for c in itertools.combinations(range(n), 3)]
            rng.shuffle(pool)
            cliques, used = [], set()
            for c in pool[:rng.randint(0, 30)]:
                es = set(itertools.combinations(c, 2))
                if used.isdisjoint(es):
                    cliques.append(c)
                    used |= es
            text = "\n".join([f"3 {n} {len(cliques)}"]
                              + id_lines(cliques, rng, loose=rng.random() < 0.5)
                              + [f"host k{n}.graph"]) + "\n"
            texts.append(text)
            texts.append(corrupt(text, rng))
        path = str(tmp_path / "p.pack")
        outcomes = Counter()
        for text in texts:
            with open(path, "w") as fh:
                fh.write(text)
            try:
                (kind, got, _), (kind2, want, _) = read_both(monkeypatch, read_packing, path)
            except FileNotFoundError:
                outcomes["absent"] += 1
                continue
            assert kind == kind2, text
            if kind != "ok":
                assert got == want, text
                outcomes[kind.__name__] += 1
                continue
            assert (got.q, got.cliques) == (want.q, want.cliques), text
            same_graph(got.host, want.host)
            outcomes["ok"] += 1
        assert outcomes["ok"] > 20 and outcomes["ParseError"] > 20, outcomes
        assert outcomes["ParameterError"] > 3, outcomes

    def test_packing_checks_match_the_loop(self):
        """Packing's whole-family check accepts exactly the families its
        loop accepts, and a rejected family gets the loop's message."""
        def loop_error(host, cliques, q):
            seen = set()
            for c in sorted(tuple(sorted(c)) for c in cliques):
                if len(c) != q or len(set(c)) != q:
                    return f"{c!r} is not a {q}-set"
                es = list(itertools.combinations(c, host.r))
                if not host.edges.issuperset(es):
                    return f"{c!r} is not a clique of the host"
                if not seen.isdisjoint(es):
                    return f"edge {next(e for e in es if e in seen)!r} covered twice"
                seen.update(es)
            return None

        rng = random.Random(2703)
        errors = Counter()
        for _ in range(400):
            n, r = rng.randint(6, 9), rng.randint(1, 3)
            q = r + rng.randint(1, 2)
            host = Hypergraph(n, r, [e for e in itertools.combinations(range(n), r)
                                     if rng.random() < 0.9])
            cliques = [tuple(rng.sample(range(n), q + (rng.random() < 0.03)))
                       for _ in range(rng.randint(0, 4))]
            want = loop_error(host, cliques, q)
            try:
                P = Packing(host, cliques, q)
                got = None
            except ParameterError as exc:
                got = str(exc)
            assert got == want, (host.edges, cliques, q)
            if got is None:
                assert P.cliques == tuple(sorted(tuple(sorted(c)) for c in cliques))
            errors[got and got.split("-")[-1].split()[-1]] += 1
        assert errors[None] and errors["host"] and errors["twice"] and errors["set"], errors


# SHA-256 digests of the writers' output, recorded before they were rewritten
WRITER_DIGESTS = {
    "k99.graph": "a7a2c65199104caf6857bee897f6da168ebfd7eccc20699d7c08cabe972bd5a6",
    "o99.pack": "1b04dabdc4aa114c48408e9e951299897d98b769c49aa05e0f0890ae09708108",
    "m9.graph": "7ee96a0dc1b0466089103c32c2f64a567ebed89c9f22ccde70f5d88c6449fa52",
    "k83.graph": "f042a0ce89660e6eebd2268966d0a1dab11ec653af286f9c93f1d1f85811aaec",
    "r1.graph": "1db47e5e941d097264177d87ba69ad26a15bd39f3a2f4c7491b9db5fc54f2561",
}


def test_writers_match_recorded_digests(tmp_path):
    from absorbkit.pipeline import oracle_steiner
    write_graph(Hypergraph.complete(99, 2), str(tmp_path / "k99.graph"))
    write_packing(oracle_steiner(99), str(tmp_path / "o99.pack"), "k99.graph")
    write_graph(MultiHypergraph(9, 2, {e: 1 + sum(e) % 3
                                       for e in itertools.combinations(range(9), 2)}),
                str(tmp_path / "m9.graph"))
    write_graph(Hypergraph.complete(8, 3), str(tmp_path / "k83.graph"))
    write_graph(Hypergraph(12, 1, [(v,) for v in range(0, 12, 2)]), str(tmp_path / "r1.graph"))
    for name, digest in WRITER_DIGESTS.items():
        with open(tmp_path / name, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name
