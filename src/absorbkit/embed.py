"""Randomized edge-disjoint, degree-bounded embedding of rooted gadgets.

The usual existence-style analysis for this kind of embedding is replaced operationally
by rejection sampling with restarts: gadgets are processed in random order,
each receives a uniformly sampled valid embedding of its fresh vertices,
and the whole pass restarts with a reshuffle when a gadget has no valid
embedding left.  Every returned embedding is re-verified by exact recount.
"""
from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from .errors import ParameterError
from .exactcover import _Budget
from .gadgets import RootedGadget, is_edge_intersecting
from .hypercore import (Hypergraph, MultiHypergraph, max_level_degree,
                        require_simple)

# placements the exhaustive fallback may try in one embed_system call,
# about a second of search; a hopeless search (a root already over the
# degree budget) otherwise enumerates every injective assignment
DFS_BUDGET = 10 ** 5
SAMPLES_PER_GADGET = 200   # uniform draws per gadget before the fallback
RESTARTS = 20              # passes over all gadgets before embed_system gives up


@dataclass
class SupergraphSystem:
    """Rooted gadgets W_H over a family of subgraphs H of a base graph J.

    Gadget fresh vertices must avoid V(J) and be pairwise disjoint across
    gadgets; gadget edges must each touch at least one fresh vertex (the
    base edges of H itself stay in J and are not re-embedded).
    """

    J: MultiHypergraph
    H_family: List[Hypergraph]
    gadgets: List[RootedGadget]

    def __post_init__(self):
        if len(self.H_family) != len(self.gadgets):
            raise ParameterError("one gadget per family member required")
        seen_fresh: set = set()
        jverts = set(range(self.J.n))
        for H, W in zip(self.H_family, self.gadgets):
            fresh = set(W.fresh_vertices())
            if fresh & jverts:
                raise ParameterError("gadget fresh vertices must avoid V(J)")
            if fresh & seen_fresh:
                raise ParameterError("gadgets must be pairwise fresh-disjoint")
            seen_fresh |= fresh
            rs = set(W.roots)
            for e in W.W.edges:
                if set(e) <= rs:
                    raise ParameterError(f"gadget edge {e!r} lies inside its roots")


@dataclass
class Embedding:
    phi: Dict[int, int]
    image: Hypergraph


def _edges_ok_partial(edges, phi, roots, G, forbidden, just_set) -> bool:
    for e in edges:
        if just_set not in e:
            continue
        if all(v in phi or v in roots for v in e):
            img = tuple(sorted(phi.get(v, v) for v in e))
            if img not in G.edges or img in forbidden:
                return False
    return True


def embed_system(sys: SupergraphSystem, G: Hypergraph,
                 degree_budget: Optional[int] = None, seed: int = 0
                 ) -> Optional[Embedding]:
    """Embed all gadgets into G, images pairwise edge-disjoint, avoiding
    E(J) \\ E(H) per gadget, with Delta_{r-1} of the union within budget.

    Returns None when the restart cap is exhausted and raises BudgetError
    when the exhaustive fallback has tried DFS_BUDGET placements; identical
    inputs and seed give identical output.
    """
    require_simple(G, "an embedding host")
    J, r = sys.J, G.r
    if not set(J.mult) <= G.edges:
        raise ParameterError("Simple(J) must be a subgraph of the host")
    for H, W in zip(sys.H_family, sys.gadgets):
        if not is_edge_intersecting(W, H):
            raise ParameterError("system gadgets must be edge-intersecting")
    if degree_budget is None:
        degree_budget = 8 * max(max_level_degree(J, r - 1) if J.m else 0, 1)
    rng = random.Random(seed)
    j_edges = set(J.mult)
    nodes = _Budget(DFS_BUDGET, "embedding DFS")

    for _ in range(RESTARTS):
        order = list(range(len(sys.gadgets)))
        rng.shuffle(order)
        phi: Dict[int, int] = {v: v for v in range(J.n)}
        used_edges: set = set()
        deg: Counter = Counter()
        per_gadget: Dict[int, List[tuple]] = {}
        ok_all = True
        for idx in order:
            W = sys.gadgets[idx]
            own = set(sys.H_family[idx].edges)
            avoid = (j_edges - own) | used_edges
            assign = _embed_one(W, G, avoid, deg, degree_budget, rng, nodes)
            if assign is None:
                ok_all = False
                break
            imgs = []
            for e in W.W.edges:
                img = tuple(sorted(assign.get(v, v) for v in e))
                imgs.append(img)
                used_edges.add(img)
                for sub in itertools.combinations(img, r - 1):
                    deg[sub] += 1
            per_gadget[idx] = imgs
            phi.update(assign)
        if not ok_all:
            continue
        image = Hypergraph(G.n, r, used_edges)
        _verify_embedding(sys, G, per_gadget, image, degree_budget)
        return Embedding(phi=phi, image=image)
    return None


def _embed_one(W: RootedGadget, G: Hypergraph, avoid: set, deg: Counter,
               budget: int, rng: random.Random, nodes: _Budget):
    """One gadget: uniform rejection sampling, then exhaustive fallback in a
    seed-shuffled order so 'no valid embedding' is certain; each placement
    the fallback tries spends one of `nodes`."""
    fresh = W.fresh_vertices()
    roots = set(W.roots)
    hosts = [v for v in range(G.n) if v not in roots]
    if len(fresh) > len(hosts):
        return None
    edges = [tuple(e) for e in W.W.edges]
    r = G.r

    def valid(assign: dict) -> bool:
        extra: Counter = Counter()
        for e in edges:
            img = tuple(sorted(assign.get(v, v) for v in e))
            if img not in G.edges or img in avoid:
                return False
            for sub in itertools.combinations(img, r - 1):
                extra[sub] += 1
                if deg[sub] + extra[sub] > budget:
                    return False
        return True

    for _ in range(SAMPLES_PER_GADGET):
        pick = rng.sample(hosts, len(fresh))
        assign = dict(zip(fresh, pick))
        if valid(assign):
            return assign
    # systematic: shuffled DFS over injective assignments
    shuffled = hosts[:]
    rng.shuffle(shuffled)
    avoid_f = frozenset(avoid)

    def rec(i: int, assign: dict, used: set):
        if i == len(fresh):
            return dict(assign) if valid(assign) else None
        for h in shuffled:
            if h in used:
                continue
            nodes.spend()
            assign[fresh[i]] = h
            if _edges_ok_partial(edges, assign, roots, G, avoid_f, fresh[i]):
                got = rec(i + 1, assign, used | {h})
                if got is not None:
                    return got
            del assign[fresh[i]]
        return None

    return rec(0, {}, set())


def _verify_embedding(sys: SupergraphSystem, G: Hypergraph,
                      per_gadget: Dict[int, List[tuple]], image: Hypergraph,
                      budget: int) -> None:
    # (a) pairwise edge-disjoint images
    total = sum(len(v) for v in per_gadget.values())
    assert total == image.m, "image edges must be pairwise distinct"
    # (b) images avoid E(J) minus the gadget's own base edges
    j_edges = set(sys.J.mult)
    for idx, imgs in per_gadget.items():
        own = set(sys.H_family[idx].edges)
        for e in imgs:
            assert e in G.edges, "image must live in the host"
            assert e not in j_edges - own, "image hit a foreign base edge"
    # (c) degree budget
    if image.m:
        assert max_level_degree(image, G.r - 1) <= budget, "degree budget exceeded"
