"""Gadget zoo: anti-edges, fake-edges, boosters and absorbers.

Fresh vertices come from a monotone counter per construction, so every
gadget is canonical up to its starting offset and tests are deterministic.
Concurrent constructions must use disjoint offsets.

The q=3 absorber assembly is built from one primitive, the 6-vertex
rooted booster `_rooted_q3` (the lift booster attached at a root triangle):
a vertex-disjoint union of triangles is absorbed by one "booster minus
root" per triangle; a general divisible L is absorbed by combining a
signed integral clique weighting with one booster unit per weighted
clique, where each unit is a level-0 rooted booster on the clique plus a
level-1 rooted booster on each of its edges, and toggles between covering
its private edges alone and covering them together with the anti-edges of
the clique's edges.  Every other (q, r) searches for an absorber as an exact
cover instance on the package's one search engine (`exactcover._search`),
with the fewest fresh vertices that admit one.  Every absorber ends in the
same certificate step (`_certify`): exact multiset checks of both
decompositions and of V(L)'s independence in A.
"""
from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence

from .divide import is_divisible
from .errors import (CapacityError, ConstructionError, ParameterError,
                     PreconditionError)
from .exactcover import (DEFAULT_BUDGET, CoverInstance, _Budget, _search,
                         find_two_disjoint_decompositions)
from .hypercore import (Decomposition, Hypergraph, clique_edges,
                        decomposition_valid, require_simple)
from .integral import integral_decomposition

ABSORBER_EDGE_CAP = 12
SEARCH_FRESH_CAP = 5   # most fresh vertices `search_absorber` tries


@dataclass
class RootedGadget:
    """Gadget graph with designated root vertices; non-roots are fresh."""

    W: Hypergraph
    roots: tuple

    def __post_init__(self):
        self.roots = tuple(sorted(self.roots))
        for v in self.roots:
            if not (0 <= v < self.W.n):
                raise ParameterError(f"root {v} outside the gadget universe")

    def fresh_vertices(self) -> list:
        rs = set(self.roots)
        return sorted({v for e in self.W.edges for v in e} - rs)


@dataclass
class Booster:
    """Graph with two clique-decompositions sharing no clique."""

    B: Hypergraph
    B_on: Decomposition
    B_off: Decomposition

    def __post_init__(self):
        q = self.B_on.q
        if not decomposition_valid(self.B, self.B_on.cliques, q):
            raise ConstructionError("B_on does not decompose B")
        if not decomposition_valid(self.B, self.B_off.cliques, q):
            raise ConstructionError("B_off does not decompose B")
        if set(self.B_on.cliques) & set(self.B_off.cliques):
            raise ConstructionError("decompositions share a clique")

    @property
    def q(self) -> int:
        return self.B_on.q


@dataclass
class AbsorberCertificate:
    """Absorber A for L: V(L) independent in A, both A and A u L decompose."""

    A: Hypergraph
    L: Hypergraph
    D1: Decomposition        # decomposition of A u L
    D2: Decomposition        # decomposition of A
    edge_intersecting: bool = field(default=False)


# ---------------------------------------------------------------------------
# elementary gadgets
# ---------------------------------------------------------------------------

def anti_edge(e: Sequence[int], q: int, base: Optional[int] = None) -> RootedGadget:
    """Clique on e plus q-r fresh vertices, with the edge e removed."""
    e = tuple(sorted(e))
    r = len(e)
    if len(set(e)) != r or not 0 < r < q:
        raise ParameterError(f"need 0 < |e| < q distinct vertices, got e = {e}, q = {q}")
    if base is None:
        base = max(e) + 1
    fresh = tuple(range(base, base + q - r))
    verts = e + fresh
    edges = [t for t in itertools.combinations(sorted(verts), r) if t != e]
    return RootedGadget(W=Hypergraph(base + q - r, r, edges), roots=e)


def fake_edge(f: Sequence[int], q: int, base: Optional[int] = None) -> RootedGadget:
    """Core vertices x_1..x_{q-r} plus one anti-edge per r-set T != f of
    f u {x_i}; divisibility-equivalent to the edge f itself."""
    f = tuple(sorted(f))
    r = len(f)
    if len(set(f)) != r or not 0 < r < q:
        raise ParameterError(f"need 0 < |f| < q distinct vertices, got f = {f}, q = {q}")
    if base is None:
        base = max(f) + 1
    core = tuple(range(base, base + q - r))
    nxt = base + q - r
    edges: set = set()
    for T in itertools.combinations(sorted(f + core), r):
        if T == f:
            continue
        g = anti_edge(T, q, base=nxt)
        nxt = g.W.n
        edges.update(g.W.edges)
    return RootedGadget(W=Hypergraph(nxt, r, edges), roots=f)


def is_divisibility_equivalent(G: Hypergraph, f: Sequence[int], W: RootedGadget, q: int) -> bool:
    """True iff replacing f by the gadget W preserves divisibility of G."""
    f = tuple(sorted(f))
    if f not in G.edges:
        raise ParameterError(f"{f!r} is not an edge of the host")
    if set(W.roots) != set(f):
        raise ParameterError("gadget roots do not match the replaced edge")
    # relabel gadget fresh vertices above the host universe
    fresh = W.fresh_vertices()
    phi = {v: v for v in W.roots}
    phi.update({v: G.n + i for i, v in enumerate(fresh)})
    W_edges = [tuple(sorted(phi[v] for v in e)) for e in W.W.edges]
    G2 = Hypergraph(G.n + len(fresh), G.r, (G.edges - {f}) | set(W_edges))
    return is_divisible(G, q) == is_divisible(G2, q)


def is_edge_intersecting(W: RootedGadget, L: Hypergraph) -> bool:
    """Every gadget edge's trace on the roots lies inside a single L-edge."""
    roots = set(W.roots)
    for e in W.W.edges:
        t = set(e) & roots
        if not t:
            continue
        if not any(t.issubset(f) for f in L.edges):
            return False
    return True


def rooted_degeneracy(W: RootedGadget) -> int:
    """Minimal d such that peeling non-root vertices of degree <= d empties
    the gadget; 2-uniform only."""
    if W.W.r != 2:
        raise ParameterError("rooted degeneracy is defined for 2-uniform gadgets")
    roots = set(W.roots)
    adj: dict = defaultdict(set)
    for a, b in W.W.edges:
        adj[a].add(b)
        adj[b].add(a)
    alive = set(adj) | roots
    removable = {v for v in alive if v not in roots}
    d = 0
    while removable:
        v = min(removable, key=lambda u: (len(adj[u] & alive), u))
        d = max(d, len(adj[v] & alive))
        alive.discard(v)
        removable.discard(v)
    return d


# ---------------------------------------------------------------------------
# boosters
# ---------------------------------------------------------------------------

def trivial_booster_1d(q: int) -> Booster:
    """Minimal 1-uniform booster: two part-disjoint partitions of 2q points."""
    if q < 2:
        raise ParameterError("need q >= 2")
    B = Hypergraph(2 * q, 1, [(i,) for i in range(2 * q)])
    if q == 2:
        on = [(0, 1), (2, 3)]
        off = [(0, 2), (1, 3)]
    else:
        row1, row2 = list(range(q)), list(range(q, 2 * q))
        on = [tuple(row1), tuple(row2)]
        off = [tuple(sorted(row1[:-1] + [row2[-1]])), tuple(sorted(row2[:-1] + [row1[-1]]))]
    return Booster(B=B, B_on=Decomposition(B, on), B_off=Decomposition(B, off))


def booster_lift(Bp: Booster) -> Booster:
    """Lift a (q-1)-clique booster of uniformity r-1 to a q-clique booster of
    uniformity r using two new vertices; verified by direct multiset algebra,
    not by search."""
    u, v = Bp.B.n, Bp.B.n + 1
    r = Bp.B.r + 1
    edges: set = set()
    for e in Bp.B.edges:
        edges.add(tuple(sorted(e + (u,))))
        edges.add(tuple(sorted(e + (v,))))
    for Q in list(Bp.B_on.cliques) + list(Bp.B_off.cliques):
        for T in itertools.combinations(Q, r):
            edges.add(T)
    B = Hypergraph(Bp.B.n + 2, r, edges)
    on = [tuple(sorted(Q + (u,))) for Q in Bp.B_on.cliques] + \
         [tuple(sorted(Q + (v,))) for Q in Bp.B_off.cliques]
    off = [tuple(sorted(Q + (v,))) for Q in Bp.B_on.cliques] + \
          [tuple(sorted(Q + (u,))) for Q in Bp.B_off.cliques]
    try:
        return Booster(B=B, B_on=Decomposition(B, on), B_off=Decomposition(B, off))
    except (ConstructionError, ParameterError) as exc:
        raise ConstructionError(f"lift is not a valid booster: {exc}") from exc


def lift_booster_q3() -> Booster:
    """The canonical 6-vertex, 12-edge booster for triangle decompositions."""
    return booster_lift(trivial_booster_1d(2))


def find_booster(q: int, r: int, host: Hypergraph, budget: int = DEFAULT_BUDGET) -> Optional[Booster]:
    """Search replacement for the algebraic booster construction: two
    clique-disjoint decompositions of the simple host, or None
    (exhaustive)."""
    require_simple(host, "a booster host")
    if q <= r:
        raise ParameterError(f"need q > r, got q={q}, r={r}")
    pair = find_two_disjoint_decompositions(host, q, budget=budget)
    if pair is None:
        return None
    d_on, d_off = pair
    return Booster(B=host, B_on=d_on, B_off=d_off)


# Canonical rooted q=3 lift booster, root clique (x, y, z), fresh (c, d, v).
# Returns (edges, on, off) as sorted tuples: off holds the root clique
# first; on avoids it and lists the cliques through xy, xz and yz in order.

def _rooted_q3(x: int, y: int, z: int, c: int, d: int, v: int):
    edges = [(x, z), (y, z), (c, z), (d, z), (x, v), (y, v), (c, v), (d, v),
             (x, y), (c, d), (x, c), (y, d)]
    off = [(x, y, z), (c, d, z), (x, c, v), (y, d, v)]
    on = [(x, y, v), (c, d, v), (x, c, z), (y, d, z)]
    s = lambda ts: [tuple(sorted(t)) for t in ts]
    return s(edges), s(on), s(off)


def booster_minus_root(root: Sequence[int], base: int):
    """Absorber core for a single triangle: attach the lift booster at the
    root and drop the root clique's edges.

    Returns (A_edges, D1_cliques, D2_cliques, next_fresh): D1 decomposes
    A u root-edges, D2 decomposes A alone.
    """
    x, y, z = sorted(root)
    c, d, v = base, base + 1, base + 2
    edges, on, off = _rooted_q3(x, y, z, c, d, v)
    root_edges = {tuple(sorted(p)) for p in itertools.combinations((x, y, z), 2)}
    A_edges = [e for e in edges if e not in root_edges]
    D1 = on
    D2 = [Q for Q in off if Q != tuple(sorted((x, y, z)))]
    return A_edges, D1, D2, base + 3


def _unit_for_clique(Q: Sequence[int], w_by_edge: Dict[tuple, int], base: int):
    """Booster unit for one clique Q of the signed weighting.

    w_by_edge maps each edge of Q to its anti-edge vertex.  Returns
    (private_edges, on_cliques, off_cliques, next_fresh):

      on  covers  private_edges + the three anti-edge gadgets of Q,
      off covers  private_edges alone.

    Shape: the level-0 booster rooted at Q less its root edges, plus, for
    each root edge p1p2, a level-1 rooted booster on (p1, p2, t) whose
    mirror vertex is the edge's anti-edge vertex w, where p1p2t is the
    level-0 on-clique through p1p2.
    """
    roots = set(Q)
    # level 0: the off-cliques but the root join `on`; of the on-cliques,
    # the one through no root edge joins `off`, and each other one roots
    # a level-1 booster
    private, on0, on, nxt = booster_minus_root(Q, base)
    off = [C for C in on0 if len(roots.intersection(C)) < 2]
    for C in on0:
        if len(roots.intersection(C)) < 2:
            continue
        (p1, p2), (t,) = [v for v in C if v in roots], [v for v in C if v not in roots]
        w = w_by_edge[p1, p2]
        edges, on1, off1 = _rooted_q3(p1, p2, t, nxt, nxt + 1, w)
        nxt += 2
        private += [e for e in edges if not set(e) <= {p1, p2, t, w}]
        on += [D for D in off1 if D != C]
        off += [D for D in on1 if set(D) != {p1, p2, w}]
    return private, on, off, nxt


def build_absorber(L: Hypergraph, q: int = 3) -> AbsorberCertificate:
    """Absorber for a divisible graph L, fully verified before returning.

    q=3, r=2 uses the deterministic booster assembly; everything else goes
    through `search_absorber` (e(L) <= 6 for r >= 3).
    """
    require_simple(L, "an absorber target")
    if not is_divisible(L, q):
        raise PreconditionError("L is not divisible; no absorber exists")
    cap = ABSORBER_EDGE_CAP if L.r == 2 else min(ABSORBER_EDGE_CAP, 6)
    if L.m > cap:
        raise CapacityError(f"e(L) = {L.m} exceeds the absorber cap {cap}")
    if L.m == 0:
        return _certify(L, L.n, [], [], [], q)
    if L.r != 2 or q != 3:
        return search_absorber(L, q)

    nxt = L.n
    A_edges: list = []
    D1: list = []
    D2: list = []
    # L is a vertex-disjoint union of triangles iff every vertex has two
    # neighbours and the closed neighbourhoods are m/3 distinct triples
    nbrs: dict = defaultdict(set)
    for a, b in L.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    triples = {tuple(sorted(N | {v})) for v, N in nbrs.items()}
    if all(len(N) == 2 for N in nbrs.values()) and 3 * len(triples) == L.m:
        for root in sorted(triples):
            a, d1, d2, nxt = booster_minus_root(root, nxt)
            A_edges += a
            D1 += d1
            D2 += d2
        return _certify(L, nxt, A_edges, D1, D2, q)

    phi = integral_decomposition(L, q, reduce_support=True)
    if phi is None:
        raise PreconditionError("no integral decomposition despite divisibility")
    pos = [C for C, k in sorted(phi.items()) for _ in range(k)]
    neg = [C for C, k in sorted(phi.items()) for _ in range(-k)]
    # anti-edge vertices per edge: the L copy first, then A's copies, A
    # being the union of the negative cliques' edges with multiplicity
    ws: dict = defaultdict(list)
    for a, b in [*sorted(L.edges), *sorted(e for C in neg for e in clique_edges(C, 2))]:
        ws[a, b].append(nxt)
        A_edges += [(a, nxt), (b, nxt)]
        nxt += 1
    # L and its anti-edges pair up in D1
    D1 += [(a, b, ws[a, b][0]) for a, b in sorted(L.edges)]
    # positive units read each edge's vertices from the L copy on and fire
    # in D2; negative units skip the L copy and fire in D1
    for cliques, skip, fire, rest in ((pos, (), D2, D1), (neg, L.edges, D1, D2)):
        unread = {e: iter(ws[e][1:] if e in skip else ws[e]) for e in ws}
        for Q in cliques:
            w_by_edge = {e: next(unread[e]) for e in clique_edges(Q, 2)}
            priv, on, off, nxt = _unit_for_clique(Q, w_by_edge, nxt)
            A_edges += priv
            fire += on
            rest += off
    return _certify(L, nxt, A_edges, D1, D2, q)


def _check_absorber(cert: AbsorberCertificate) -> None:
    Lverts = set(range(cert.L.n))
    for e in cert.A.edges:
        if set(e) <= Lverts:
            raise ConstructionError(f"absorber edge {e!r} lies inside V(L)")
    if cert.A.edges & cert.L.edges:
        raise ConstructionError("absorber shares an edge with L")
    # decomposition validity was checked by the constructors; re-assert cheaply
    if not decomposition_valid(cert.D1.target, cert.D1.cliques, cert.D1.q):
        raise ConstructionError("D1 failed re-verification")
    if not decomposition_valid(cert.D2.target, cert.D2.cliques, cert.D2.q):
        raise ConstructionError("D2 failed re-verification")


def _certify(L: Hypergraph, n: int, A_edges: Iterable[tuple], D1: list, D2: list,
             q: int) -> AbsorberCertificate:
    """The certificate step every absorber ends in: D1 must decompose A u L
    and D2 must decompose A, on the vertex set 0..n-1."""
    A = Hypergraph(n, L.r, A_edges)
    AL = Hypergraph(n, L.r, A.edges | L.edges)
    cert = AbsorberCertificate(A=A, L=L, D1=Decomposition(AL, D1, q),
                               D2=Decomposition(A, D2, q))
    _check_absorber(cert)
    cert.edge_intersecting = is_edge_intersecting(
        RootedGadget(W=A, roots=tuple(sorted(L.support()))), L)
    return cert


def _absorber_instance(L: Hypergraph, q: int, fresh: Sequence[int]) -> CoverInstance:
    """Absorbers for L on V(L) plus `fresh`, as exact cover.

    An absorber is a pair of clique families: P covers each L edge once,
    and P and N cover every other edge e equally often, at most once.  The
    items are the L edges and, for each other edge e, a pair e+ and e-;
    a positive clique covers its L edges and the e+ of its other edges, a
    negative clique (no L edge) covers its e- items, and a slack option
    {e+, e-} leaves e unused.  Cliques holding a non-L r-set of V(L) are
    left out, so V(L) stays independent in A, the union of N.  Payloads
    are (+1, clique), (-1, clique) and (0, edge).
    """
    r = L.r
    cliques = [C for C in itertools.combinations([*range(L.n), *fresh], q)
               if all(e in L.edges or e[-1] >= L.n
                      for e in itertools.combinations(C, r))]
    others = sorted({e for C in cliques for e in itertools.combinations(C, r)}
                    - L.edges)
    items = sorted(L.edges) + [(e, sign) for e in others for sign in (+1, -1)]
    ids = {it: i for i, it in enumerate(items)}
    payloads, rows = [], []
    for C in cliques:
        es = list(itertools.combinations(C, r))
        payloads.append((+1, C))
        rows.append(tuple(ids[e] if e in L.edges else ids[e, +1] for e in es))
        if not any(e in L.edges for e in es):
            payloads.append((-1, C))
            rows.append(tuple(ids[e, -1] for e in es))
    for e in others:
        payloads.append((0, e))
        rows.append((ids[e, +1], ids[e, -1]))
    return CoverInstance(len(items), [1] * len(items), payloads, rows)


def search_absorber(L: Hypergraph, q: int) -> AbsorberCertificate:
    """Absorber for L by exact cover over V(L) plus the fewest fresh
    vertices (from q - r up to SEARCH_FRESH_CAP) that admit one.

    Each fresh-vertex count is searched exhaustively on the exact-cover
    engine (`_absorber_instance`), and one budget of DEFAULT_BUDGET nodes
    spans all counts.
    A is the union of the negatives' edges; the certificate is verified.
    Raises CapacityError when every count up to SEARCH_FRESH_CAP is
    searched out and BudgetError when the node budget is spent first.
    """
    if not is_divisible(L, q):
        raise PreconditionError("L is not divisible; no absorber exists")
    nodes = _Budget(DEFAULT_BUDGET, "absorber search")
    for n_fresh in range(q - L.r, SEARCH_FRESH_CAP + 1):
        inst = _absorber_instance(L, q, range(L.n, L.n + n_fresh))
        for picked in _search(inst, nodes, cap=1):
            pos = [C for sign, C in picked if sign > 0]
            neg = [C for sign, C in picked if sign < 0]
            A_edges = {e for C in neg for e in clique_edges(C, L.r)}
            return _certify(L, L.n + n_fresh, A_edges, pos, neg, q)
    raise CapacityError(f"no absorber within {SEARCH_FRESH_CAP} fresh vertices "
                        f"({nodes.limit - nodes.left} search nodes)")
