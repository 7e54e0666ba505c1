"""Gadget zoo: anti-edges, fake-edges, boosters and absorbers.

Fresh vertices come from a monotone counter per construction, so every
gadget is canonical up to its starting offset and tests are deterministic.
Concurrent constructions must use disjoint offsets.

The q=3 absorber assembly works entirely from the 6-vertex lift booster:
a clique is absorbed by "booster minus root"; a general divisible L is
absorbed by combining an integral decomposition with one booster unit per
occurrence clique, where each unit toggles between covering its private
edges alone and covering them together with the anti-edges of the clique's
edge occurrences.  Every other (q, r) searches for an absorber as an exact
cover instance on the package's one search engine (`exactcover._search`),
with the fewest fresh vertices that admit one.  Every absorber ends in the
same certificate step (`_certify`): exact multiset checks of both
decompositions and of V(L)'s independence in A.
"""
from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence

from .divide import is_divisible
from .errors import (CapacityError, ConstructionError, ParameterError,
                     PreconditionError)
from .exactcover import (DEFAULT_BUDGET, CoverInstance, _Budget, _search,
                         find_two_disjoint_decompositions)
from .hypercore import (AnyGraph, Decomposition, Hypergraph, clique_edges,
                        decomposition_valid)
from .integral import integral_decomposition, multi_absorber

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


def find_booster(q: int, r: int, host: AnyGraph, budget: int = DEFAULT_BUDGET) -> Optional[Booster]:
    """Search replacement for the algebraic booster construction: two
    clique-disjoint decompositions of the host, or None (exhaustive)."""
    if q <= r:
        raise ParameterError(f"need q > r, got q={q}, r={r}")
    pair = find_two_disjoint_decompositions(host, q, budget=budget)
    if pair is None:
        return None
    d_on, d_off = pair
    return Booster(B=host.simple(), B_on=d_on, B_off=d_off)


# Canonical rooted q=3 lift booster, root clique (x, y, z), fresh (c, d, v).
# off contains the root; on avoids it.  Returned cliques are not sorted
# internally; callers sort.

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
    """Booster unit for one occurrence clique Q = (x, y, z).

    w_by_edge maps each edge of Q to its anti-edge vertex.  Returns
    (private_edges, on_cliques, off_cliques, next_fresh):

      on  covers  private_edges + the three anti-edge gadgets of Q,
      off covers  private_edges alone.

    Shape: a level-0 booster rooted at Q plus one level-1 booster per edge
    of Q, attached at the level-0 on-clique through that edge, with the
    level-1 mirror vertex identified with the edge's anti-edge vertex.
    """
    x, y, z = sorted(Q)
    c0, d0, v0 = base, base + 1, base + 2
    nxt = base + 3
    # level-0 rooted booster; its on-decomposition is orthogonal: each root
    # edge sits in its own clique, with third vertex as recorded here
    third = {(x, y): v0, (x, z): c0, (y, z): d0}
    private = [e for e in _rooted_q3(x, y, z, c0, d0, v0)[0]
               if e not in {(x, y), tuple(sorted((x, z))), tuple(sorted((y, z)))}]
    on_cliques = [tuple(sorted(t)) for t in ((c0, d0, z), (x, c0, v0), (y, d0, v0))]
    off_cliques = [tuple(sorted((c0, d0, v0)))]
    for (p1, p2) in ((x, y), (x, z), (y, z)):
        t = third[(p1, p2)]
        w = w_by_edge[tuple(sorted((p1, p2)))]
        ce, de = nxt, nxt + 1
        nxt += 2
        private += [tuple(sorted(e)) for e in
                    ((ce, t), (de, t), (ce, w), (de, w), (ce, de), (p1, ce), (p2, de))]
        # level-1 off minus its root covers the privates plus the anti-edge
        on_cliques += [tuple(sorted(t_)) for t_ in ((ce, de, t), (p1, ce, w), (p2, de, w))]
        # level-1 on minus the clique through (p1, p2) covers privates only
        off_cliques += [tuple(sorted(t_)) for t_ in ((ce, de, w), (p1, ce, t), (p2, de, t))]
    return private, on_cliques, off_cliques, nxt


def _edge_components(L: Hypergraph) -> list:
    parent: dict = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in L.edges:
        for v in e:
            parent.setdefault(v, v)
        for v in e[1:]:
            ra, rb = find(e[0]), find(v)
            if ra != rb:
                parent[ra] = rb
    comps: dict = defaultdict(set)
    for e in L.edges:
        comps[find(e[0])].add(e)
    return sorted(comps.values(), key=lambda es: sorted(es))


def _is_triangle_component(edges: set) -> bool:
    verts = {v for e in edges for v in e}
    return len(edges) == 3 and len(verts) == 3


def build_absorber(L: Hypergraph, q: int = 3) -> AbsorberCertificate:
    """Absorber for a divisible graph L, fully verified before returning.

    q=3, r=2 uses the deterministic booster assembly; everything else goes
    through `search_absorber` (e(L) <= 6 for r >= 3).
    """
    if not is_divisible(L, q):
        raise PreconditionError("L is not divisible; no absorber exists")
    cap = ABSORBER_EDGE_CAP if L.r == 2 else min(ABSORBER_EDGE_CAP, 6)
    if L.m > cap:
        raise CapacityError(f"e(L) = {L.m} exceeds the absorber cap {cap}")
    if L.m == 0:
        return _certify(L, L.n, [], [], [], q)
    if L.r != 2 or q != 3:
        return search_absorber(L, q)

    comps = _edge_components(L)
    nxt = L.n
    A_edges: list = []
    D1: list = []
    D2: list = []
    if all(_is_triangle_component(c) for c in comps):
        for cedges in comps:
            root = sorted({v for e in cedges for v in e})
            a, d1, d2, nxt = booster_minus_root(root, nxt)
            A_edges += a
            D1 += d1
            D2 += d2
    else:
        phi = integral_decomposition(L, q, reduce_support=True)
        if phi is None:
            raise PreconditionError("no integral decomposition despite divisibility")
        ma = multi_absorber(L, phi)
        # occurrence pools per edge: the L copy first, then the A copies
        occ_w: dict = {}
        pools: dict = defaultdict(list)

        def new_occ(e):
            nonlocal nxt
            oid = (e, len(pools[e]))
            occ_w[oid] = nxt
            nxt += 1
            pools[e].append(oid)
            return oid

        for e in sorted(L.edges):
            new_occ(e)
        for e in sorted(ma.A.mult):
            for _ in range(ma.A.mult[e]):
                new_occ(e)
        for oid in occ_w:
            (a, b), _ = oid
            w = occ_w[oid]
            A_edges += [tuple(sorted((a, w))), tuple(sorted((b, w)))]
        # assign occurrences to clique occurrences, positives then negatives
        cursor: Counter = Counter()

        def take(e):
            i = cursor[e]
            cursor[e] += 1
            return pools[e][i]

        pos_units, neg_units = [], []
        for Q in ma.Q1:
            w_by_edge = {e: occ_w[take(e)] for e in clique_edges(Q, 2)}
            pos_units.append((Q, w_by_edge))
        cursor = Counter({e: 1 if e in L.edges else 0 for e in pools})
        for Q in ma.Q2:
            w_by_edge = {e: occ_w[take(e)] for e in clique_edges(Q, 2)}
            neg_units.append((Q, w_by_edge))
        # pairings put L and its anti-edges into D1
        for e in sorted(L.edges):
            (a, b) = e
            w = occ_w[(e, 0)]
            D1.append(tuple(sorted((a, b, w))))
        for Q, wmap in pos_units:
            priv, on, off, nxt = _unit_for_clique(Q, wmap, nxt)
            A_edges += priv
            D2 += on      # positive units fire in D2
            D1 += off
        for Q, wmap in neg_units:
            priv, on, off, nxt = _unit_for_clique(Q, wmap, nxt)
            A_edges += priv
            D1 += on      # negative units fire in D1
            D2 += off

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
    return CoverInstance(items, [1] * len(items), payloads, rows)


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
