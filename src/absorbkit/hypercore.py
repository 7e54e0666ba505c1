"""Core r-uniform hypergraph and multihypergraph representation.

Vertices are dense integer indices 0..n-1.  Edges and cliques are strictly
increasing tuples of vertex ids.  Hypergraphs are immutable after
construction and safe to share across tasks; "mutation" helpers return new
objects.  Clique enumeration is lexicographic so downstream seeded sampling
is reproducible.
"""
from __future__ import annotations

import itertools
import os
from collections import Counter
from math import comb
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import ParameterError, ParseError

Edge = tuple          # sorted tuple of r vertex ids
Clique = tuple        # sorted tuple of q vertex ids


def _as_edge(verts: Iterable[int], r: int, n: int) -> Edge:
    e = tuple(sorted(verts))
    if len(e) != r or len(set(e)) != r:
        raise ParameterError(f"edge {verts!r} is not a {r}-set")
    if e and (e[0] < 0 or e[-1] >= n):
        raise ParameterError(f"edge {e!r} has a vertex outside 0..{n - 1}")
    return e


class Hypergraph:
    """Simple r-uniform hypergraph on vertex set 0..n-1."""

    __slots__ = ("n", "r", "edges", "_masks")

    def __init__(self, n: int, r: int, edges: Iterable[Iterable[int]] = ()):
        if r < 1 or n < 0:
            raise ParameterError(f"bad uniformity/order r={r}, n={n}")
        self.n = n
        self.r = r
        self.edges = frozenset(_as_edge(e, r, n) for e in edges)
        self._masks = None  # lazy bitset cache, (r-1)-set -> vertex bitmask

    @classmethod
    def complete(cls, n: int, r: int) -> "Hypergraph":
        # combinations yields sorted, distinct, in-range r-tuples
        return cls._of_edges(n, r, itertools.combinations(range(n), r))

    @classmethod
    def _of_edges(cls, n: int, r: int, edges: Iterator[Edge]) -> "Hypergraph":
        """A hypergraph on edges already known to be sorted, distinct,
        in-range r-tuples: no _as_edge.  Pass an iterator, not a dict:
        frozenset presizes its table from a dict, which changes the order
        of `list(G.edges)`, the item order of exact cover."""
        G = cls(n, r)
        G.edges = frozenset(edges)
        return G

    @property
    def m(self) -> int:
        return len(self.edges)

    def is_complete(self) -> bool:
        return self.m == comb(self.n, self.r)

    def support(self) -> frozenset:
        """Vertices incident to at least one edge."""
        return frozenset(v for e in self.edges for v in e)

    def multi(self) -> "MultiHypergraph":
        return MultiHypergraph(self.n, self.r, {e: 1 for e in self.edges})

    def simple(self) -> "Hypergraph":
        return self

    def neighbor_mask(self, T: tuple) -> int:
        """Bitmask of vertices v with T | {v} an edge, for an (r-1)-set T."""
        if self._masks is None:
            masks: dict = {}
            for e in self.edges:
                for i in range(self.r):
                    sub = e[:i] + e[i + 1:]
                    masks[sub] = masks.get(sub, 0) | (1 << e[i])
            self._masks = masks
        return self._masks.get(T, 0)

    def __contains__(self, e) -> bool:
        return tuple(e) in self.edges

    def __eq__(self, other) -> bool:
        return (isinstance(other, Hypergraph)
                and (self.n, self.r, self.edges) == (other.n, other.r, other.edges))

    def __hash__(self) -> int:
        return hash((self.n, self.r, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, r={self.r}, m={self.m})"


class MultiHypergraph:
    """r-uniform multihypergraph: edge -> multiplicity >= 1."""

    __slots__ = ("n", "r", "mult")

    def __init__(self, n: int, r: int, mult: Mapping[tuple, int] | None = None):
        if r < 1 or n < 0:
            raise ParameterError(f"bad uniformity/order r={r}, n={n}")
        self.n = n
        self.r = r
        m: dict = {}
        for e, k in (mult or {}).items():
            if k < 0:
                raise ParameterError(f"negative multiplicity for {e!r}")
            if k == 0:
                continue
            m[_as_edge(e, r, n)] = int(k)
        self.mult = m

    @property
    def m(self) -> int:
        """Edge count with multiplicity."""
        return sum(self.mult.values())

    def simple(self) -> Hypergraph:
        """Support set Simple(J)."""
        return Hypergraph._of_edges(self.n, self.r, iter(self.mult))

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiHypergraph)
                and (self.n, self.r, self.mult) == (other.n, other.r, other.mult))

    def __repr__(self) -> str:
        return f"MultiHypergraph(n={self.n}, r={self.r}, m={self.m})"


AnyGraph = Union[Hypergraph, MultiHypergraph]


def require_simple(G: AnyGraph, role: str) -> Hypergraph:
    """G itself; a multigraph, which `role` cannot take, is a ParameterError."""
    if isinstance(G, MultiHypergraph):
        raise ParameterError(f"{role} must be a simple graph, got a multigraph")
    return G


def level_degrees(G: AnyGraph, j: int) -> Counter:
    """j-subset S of some edge -> number of edges containing S, with
    multiplicity for multigraphs."""
    if not (0 <= j <= G.r - 1):
        raise ParameterError(f"j={j} outside 0..r-1")
    if isinstance(G, Hypergraph):
        return cover_counts(G.edges, j)
    # a multigraph's edge e of multiplicity k counts k times
    return cover_counts(itertools.chain.from_iterable(
        map(itertools.repeat, G.mult, G.mult.values())), j)


def max_level_degree(G: AnyGraph, j: int) -> int:
    """Max over j-subsets S of some edge of the number of edges containing
    S, with multiplicity for multigraphs."""
    return max(level_degrees(G, j).values(), default=0)


def enumerate_cliques(G: AnyGraph, q: int) -> list:
    """All q-sets whose every r-subset is an edge of G, in lex order.

    For multihypergraphs the support Simple(G) is used.
    """
    if isinstance(G, MultiHypergraph):
        G = G.simple()
    if q <= G.r:
        raise ParameterError(f"need q > r, got q={q}, r={G.r}")
    if G.n < q or not G.edges:
        return []
    if G.is_complete():
        return list(itertools.combinations(range(G.n), q))

    # r = 1 special case: cliques are q-subsets of the support
    if G.r == 1:
        sup = sorted(G.support())
        return list(itertools.combinations(sup, q))

    full = (1 << G.n) - 1
    out = []

    def extend(partial: list, cand: int, lo: int):
        if len(partial) == q:
            out.append(tuple(partial))
            return
        v = lo
        rest = cand >> lo
        while rest:
            if rest & 1:
                # candidates after v must complete every r-set through v
                newcand = cand
                for sub in itertools.combinations(partial, G.r - 2):
                    newcand &= G.neighbor_mask(tuple(sorted(sub + (v,))))
                extend(partial + [v], newcand, v + 1)
            rest >>= 1
            v += 1

    extend([], full, 0)
    return out


def clique_edges(C: Sequence[int], r: int) -> Iterator[tuple]:
    """The binom(|C|, r) r-subsets covered by a clique."""
    return itertools.combinations(tuple(sorted(C)), r)


def _subsets(cliques: Iterable[tuple], r: int) -> Iterator[tuple]:
    """The r-subsets of each of `cliques` (sorted tuples), chained."""
    return itertools.chain.from_iterable(map(itertools.combinations, cliques, itertools.repeat(r)))


def cover_counts(cliques: Iterable[tuple], r: int) -> Counter:
    """r-set -> number of `cliques` (sorted tuples) containing it."""
    return Counter(_subsets(cliques, r))


class Packing:
    """Pairwise edge-disjoint family of q-cliques of a host hypergraph."""

    __slots__ = ("host", "q", "cliques")

    def __init__(self, host: Hypergraph, cliques: Iterable[Sequence[int]], q: int | None = None):
        self.host = host
        cl = sorted(map(tuple, map(sorted, cliques)))
        if q is None:
            if not cl:
                raise ParameterError("empty packing needs an explicit q")
            q = len(cl[0])
        edges, r = host.simple().edges, host.r
        if q <= r:
            raise ParameterError(f"need q > r, got q={q}, r={r}")
        self.q = q
        # the whole family at once: q-sets whose r-subsets are host edges,
        # none of them twice; the loop below only names the first fault
        seen = set(_subsets(cl, r))
        if not cl or (all(map(q.__eq__, map(len, cl)))
                      and all(map(q.__eq__, map(len, map(set, cl))))
                      and len(seen) == len(cl) * comb(q, r) and edges.issuperset(seen)):
            self.cliques = tuple(cl)
            return
        seen = set()
        for c in cl:
            if len(c) != q or len(set(c)) != q:
                raise ParameterError(f"{c!r} is not a {q}-set")
            es = list(itertools.combinations(c, r))   # c is sorted, so are its edges
            if not edges.issuperset(es):
                raise ParameterError(f"{c!r} is not a clique of the host")
            if not seen.isdisjoint(es):
                e = next(e for e in es if e in seen)
                raise ParameterError(f"edge {e!r} covered twice")
            seen.update(es)
        self.cliques = tuple(cl)

    def covered_edges(self) -> frozenset:
        out = set()
        for c in self.cliques:
            out.update(clique_edges(c, self.host.r))
        return frozenset(out)

    def __len__(self) -> int:
        return len(self.cliques)

    def __iter__(self):
        return iter(self.cliques)

    def __repr__(self) -> str:
        return f"Packing(q={self.q}, size={len(self.cliques)})"


def decomposition_valid(target: AnyGraph, cliques: Iterable[Sequence[int]], q: int) -> bool:
    """Exact partition test: the members are q-sets whose r-subsets cover
    every target edge exactly as often as its multiplicity.

    On a simple target the members' r-subsets form one set: they partition
    the edge set iff that set has len(cliques) * C(q, r) elements (no
    r-subset repeats) and equals the edge set.
    """
    return _partitions(target, list(map(tuple, map(sorted, cliques))), q)


def _partitions(target: AnyGraph, cl: list, q: int) -> bool:
    """decomposition_valid on members that are already sorted tuples."""
    if not (all(map(q.__eq__, map(len, cl)))
            and all(map(q.__eq__, map(len, map(set, cl))))):
        return False
    if isinstance(target, MultiHypergraph):
        # neither side holds a zero count, so plain dict equality is exact
        # (Counter's own == compares key by key in Python)
        return dict.__eq__(cover_counts(cl, target.r), target.mult)
    seen = set(_subsets(cl, target.r))
    return len(seen) == len(cl) * comb(q, target.r) == len(target.edges) and seen == target.edges


class Decomposition:
    """Clique family whose edges exactly partition a target edge (multi)set.

    Members may repeat when the target is a multihypergraph.
    """

    __slots__ = ("target", "q", "cliques")

    def __init__(self, target: AnyGraph, cliques: Iterable[Sequence[int]], q: int | None = None):
        cl = sorted(map(tuple, map(sorted, cliques)))
        if q is None:
            if not cl:
                if target.m:
                    raise ParameterError("empty clique list cannot decompose a nonempty target")
                q = target.r + 1
            else:
                q = len(cl[0])
        if not _partitions(target, cl, q):
            raise ParameterError("cliques do not partition the target edge set")
        self.target = target
        self.q = q
        self.cliques = tuple(cl)

    def __len__(self) -> int:
        return len(self.cliques)

    def __iter__(self):
        return iter(self.cliques)

    def __repr__(self) -> str:
        return f"Decomposition(q={self.q}, size={len(self.cliques)})"


# ---------------------------------------------------------------------------
# Text formats.
#
# Graph file: header "r n m", then m lines of r ascending ids; a multigraph
# line appends "x k" for multiplicity k > 1.
# Packing file: header "q n m", then m lines of q ids, then "host <path>".
# Key=value file (pipeline config, omni certificate manifest): one
# "key=value" line per key, blank lines and "#" comment lines skipped.
#
# Readers take the id block in bulk (_id_rows): every line split, all ids
# parsed by one map(int), and the ranges and orders checked on slices of
# that one list.  The line loops run only on a block the bulk pass rejects,
# to name its first bad line, or on a graph block with "x k" lines.
# ---------------------------------------------------------------------------

def _id_line(k: int) -> str:
    """The %-format of one line of k ids."""
    return " ".join(["%d"] * k) + "\n"


def write_graph(G: AnyGraph, path: str) -> None:
    line = _id_line(G.r)
    if isinstance(G, MultiHypergraph):
        multi = line[:-1] + " x %d\n"
        head = f"{G.r} {G.n} {len(G.mult)}\n"
        body = [line % e if k == 1 else multi % (*e, k) for e, k in sorted(G.mult.items())]
    else:
        head = f"{G.r} {G.n} {G.m}\n"
        body = map(line.__mod__, sorted(G.edges))
    with open(path, "w") as fh:
        fh.write(head + "".join(body))


def _header(raw: list, names: str) -> tuple:
    """The header "<k> n m" of a graph (names "r n m") or packing (names
    "q n m") file, with k >= 1, n >= 0 and m >= 0."""
    if not raw:
        raise ParseError(1, "empty file")
    head = raw[0].split()
    if len(head) != 3:
        raise ParseError(1, f"expected header '{names}', got {raw[0]!r}")
    try:
        k, n, m = map(int, head)
    except ValueError:
        raise ParseError(1, f"non-integer header field in {raw[0]!r}") from None
    if k < 1 or n < 0 or m < 0:
        raise ParseError(1, f"bad header values {names[0]}={k} n={n} m={m}")
    return k, n, m


def _id_rows(raw: list, k: int, n: int, m: int):
    """Lines 2..m+1 as tuples of k ids, or None unless every one of them
    holds k integers, strictly increasing, in 0..n-1.  The lines are split
    twice, once to count their tokens and once to parse them, so no list
    of all the tokens is held."""
    block = raw[1:m + 1]
    if len(block) < m or not {k}.issuperset(map(len, map(str.split, block))):
        return None
    try:
        ids = list(map(int, itertools.chain.from_iterable(map(str.split, block))))
    except ValueError:
        return None
    if m and not (min(ids[::k]) >= 0 and max(ids[k - 1::k]) < n
                  and all(all(map(int.__lt__, ids[j::k], ids[j + 1::k]))
                          for j in range(k - 1))):
        return None
    return list(zip(*[iter(ids)] * k))


def read_graph(path: str) -> AnyGraph:
    """Read a graph file; returns a MultiHypergraph iff a multiplicity > 1
    occurs.  A block of plain edge lines, followed by blank lines only, is
    read in bulk; the line loop reads "x k" lines and names the first bad
    line of any other block."""
    with open(path) as fh:
        raw = fh.read().splitlines()
    r, n, m = _header(raw, "r n m")
    edges = _id_rows(raw, r, n, m)
    if edges is not None and not any(map(str.strip, raw[m + 1:])):
        G = Hypergraph._of_edges(n, r, iter(edges))
        if G.m == m:   # no edge repeats
            return G
    return _read_graph_lines(raw, r, n, m)


def _read_graph_lines(raw: list, r: int, n: int, m: int) -> AnyGraph:
    """read_graph line by line, on a block the bulk pass does not take."""
    mult: dict = {}
    any_multi = False
    for i in range(m):
        ln = i + 2
        if i + 1 >= len(raw) or not raw[i + 1].strip():
            raise ParseError(ln, "missing edge line")
        toks = raw[i + 1].split()
        k = 1
        if len(toks) == r + 2 and toks[r] == "x":
            try:
                k = int(toks[r + 1])
            except ValueError:
                raise ParseError(ln, f"bad multiplicity {toks[r + 1]!r}") from None
            if k < 1:
                raise ParseError(ln, f"multiplicity {k} < 1")
            toks = toks[:r]
            if k > 1:
                any_multi = True
        if len(toks) != r:
            raise ParseError(ln, f"expected {r} vertex ids, got {len(toks)}")
        try:
            verts = tuple(map(int, toks))
        except ValueError:
            raise ParseError(ln, f"non-integer vertex id in {raw[i + 1]!r}") from None
        if list(verts) != sorted(set(verts)):
            raise ParseError(ln, f"edge {verts!r} not strictly increasing")
        if verts[0] < 0 or verts[-1] >= n:
            raise ParseError(ln, f"vertex outside 0..{n - 1}")
        if verts in mult:
            raise ParseError(ln, f"duplicate edge {verts!r}")
        mult[verts] = k
    for i in range(m + 1, len(raw)):
        if raw[i].strip():
            raise ParseError(i + 1, f"unexpected line after the {m} declared edges")
    # every line above is a sorted, distinct, in-range r-tuple with a
    # multiplicity >= 1, so neither graph checks its edges again
    if any_multi:
        J = MultiHypergraph(n, r)
        J.mult = mult
        return J
    return Hypergraph._of_edges(n, r, iter(mult))


def write_packing(P: Union[Packing, Decomposition], path: str, host_path: str) -> None:
    host = P.host if isinstance(P, Packing) else P.target
    with open(path, "w") as fh:
        fh.write(f"{P.q} {host.n} {len(P.cliques)}\n"
                 + "".join(map(_id_line(P.q).__mod__, P.cliques))
                 + f"host {host_path}\n")


def read_packing(path: str) -> Packing:
    """Read a packing file; the host graph is loaded from its trailing path
    (relative paths resolve against the packing file's directory) and must
    have the header's n.  A packing file holds each edge once, so a
    multigraph host is a ParameterError.  The clique block is read in bulk;
    the line loop only names its first bad line."""
    with open(path) as fh:
        raw = fh.read().splitlines()
    q, n, m = _header(raw, "q n m")
    cliques = _id_rows(raw, q, n, m)
    if cliques is None:
        cliques = _read_clique_lines(raw, q, n, m)
    if m + 1 >= len(raw) or not raw[m + 1].startswith("host "):
        raise ParseError(m + 2, "missing trailing 'host <path>' line")
    for i in range(m + 2, len(raw)):
        if raw[i].strip():
            raise ParseError(i + 1, "unexpected line after the 'host <path>' line")
    host_path = raw[m + 1][5:].strip()
    if not os.path.isabs(host_path):
        host_path = os.path.join(os.path.dirname(os.path.abspath(path)), host_path)
    host = require_simple(read_graph(host_path), "a packing host")
    if host.n != n:
        raise ParseError(1, f"header n={n} differs from the host's n={host.n}")
    return Packing(host, cliques, q)


def _read_clique_lines(raw: list, q: int, n: int, m: int) -> list:
    """The clique block line by line: raises on the first bad line."""
    cliques = []
    for i in range(m):
        ln = i + 2
        if i + 1 >= len(raw):
            raise ParseError(ln, "missing clique line")
        toks = raw[i + 1].split()
        if len(toks) != q:
            raise ParseError(ln, f"expected {q} vertex ids, got {len(toks)}")
        try:
            verts = tuple(map(int, toks))
        except ValueError:
            raise ParseError(ln, f"non-integer vertex id in {raw[i + 1]!r}") from None
        if list(verts) != sorted(set(verts)) or verts[0] < 0 or verts[-1] >= n:
            raise ParseError(ln, f"bad clique {verts!r}")
        cliques.append(verts)
    return cliques


def read_key_values(path: str) -> dict:
    """A key=value file as {key: value}, both stripped of surrounding
    spaces.  A line without '=', or a key given twice, is a ParseError;
    the caller checks the keys and casts the values."""
    out: dict = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(line_no, f"expected key=value, got {line!r}")
            k, v = (t.strip() for t in line.split("=", 1))
            if k in out:
                raise ParseError(line_no, f"repeated key {k!r}")
            out[k] = v
    return out
