"""Randomized packing engines and their analyzers.

Random greedy is one seeded engine, `_greedy`: it shuffles the host's
q-cliques with `random.Random(seed)` and sweeps them once, taking each
clique that is still free.  `random_greedy_pack` is the engine as it is;
the high-girth packer passes it a veto, so that a free clique is taken only
if it closes no forbidden configuration.  The engine keeps the uncovered
edges as int bitmasks: on a graph host, one mask per vertex u holding u and
its uncovered neighbours; on an r-uniform host, one mask per (r-1)-set T
holding T and every v with T + v uncovered (the layout of
`Hypergraph.neighbor_mask`).  A clique with vertex mask M is free iff the
mask of every vertex, or (r-1)-set, inside it contains M, and taking it
clears the rest of M from those masks.  The leftover is read off the final
masks, and the engine asserts exact edge conservation.  Completion through
reserves builds one `exactcover.CoverInstance` (leftover edges primary,
reserve edges secondary, one option per reserve clique) and runs random
greedy, then failed-literal probing and exact cover, on it.  One exhaustive
configuration DFS (`_config_dfs`, union-size pruning plus vertex and pair
indexes) serves configuration counting, girth and the high-girth veto, and
agrees with naive enumeration on small inputs.  Girth and the veto decide
triangle systems up to g = 4 exactly on a pair -> third-point map (a
repeated pair, else Pasch) and run the DFS only beyond.  The spread
estimate is single-clique containment: the largest share of the sampled or
enumerated decompositions that contain one clique.  Reserve degrees come
from `hypercore.max_level_degree`.
"""
from __future__ import annotations

import itertools
import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from math import comb, inf
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import CapacityError, ParameterError, ReliabilityError
from .exactcover import CoverInstance, _Budget, _refute, _search
from .hypercore import (Hypergraph, Packing, clique_edges, enumerate_cliques,
                        max_level_degree)


@dataclass
class ReserveSet:
    X: Hypergraph
    counts: Dict[tuple, int]
    flags: Dict[str, object]


def _edge_masks(G: Hypergraph) -> tuple:
    """(bit, kbits, masks) of `_sweep` for G with every edge uncovered."""
    r = G.r
    bit = [1 << v for v in range(G.n)]
    if r == 2:
        kbits, masks = bit, bit[:]
        for u, v in G.edges:
            masks[u] |= bit[v]
            masks[v] |= bit[u]
    else:
        kbits, masks = {}, {}
        for e in G.edges:
            for i in range(r):
                T = e[:i] + e[i + 1:]
                if T not in kbits:
                    kbits[T] = masks[T] = sum(bit[v] for v in T)
                masks[T] |= bit[e[i]]
    return bit, kbits, masks


def _uncovered(G: Hypergraph, masks) -> Hypergraph:
    """The edges of G left in `masks`: e is iff the mask of its key
    e - e[-1] still has e[-1]."""
    return Hypergraph(G.n, G.r, [e for e in G.edges
                                 if masks[e[0] if G.r == 2 else e[:-1]] >> e[-1] & 1])


def _sweep(batch: List[tuple], masks, kbits, bit: List[int], r: int,
           admit: Optional[Callable[[tuple], bool]] = None) -> List[tuple]:
    """Run the mask test over `batch` in order, in one inline loop.

    A key is a vertex when r = 2 (`masks` and `kbits` are lists) and an
    (r-1)-set otherwise (they are dicts).  ``masks[k]`` holds the bits of k
    itself plus every v such that k + v is an uncovered edge, ``kbits[k]``
    the bits of k, and ``bit[v]`` is 1 << v.  A clique with vertex mask M
    is free iff every key inside it has all of M.  Each free clique is
    taken at once and its edges are cleared; the taken cliques are
    returned.  `admit`, when given, is asked about each free clique, and
    one it refuses is passed over as if it were not free.
    """
    out = []
    for c in batch:
        M = 0
        for v in c:
            M |= bit[v]
        ks = c if r == 2 else tuple(itertools.combinations(c, r - 1))
        for k in ks:
            if masks[k] & M != M:
                break
        else:
            if admit is not None and not admit(c):
                continue
            for k in ks:
                masks[k] ^= M ^ kbits[k]
            out.append(c)
    return out


def _greedy(G: Hypergraph, q: int, seed: int,
            admit: Optional[Callable[[tuple], bool]] = None
            ) -> Tuple[List[tuple], Hypergraph]:
    """Random greedy: G's q-cliques in the order of one
    `random.Random(seed)` shuffle, each taken if it is free (and `admit`,
    when given, accepts it) when its turn comes.  Returns the taken cliques
    and the uncovered leftover."""
    pool = enumerate_cliques(G, q)
    random.Random(seed).shuffle(pool)
    bit, kbits, masks = _edge_masks(G)
    chosen = _sweep(pool, masks, kbits, bit, G.r, admit)
    leftover = _uncovered(G, masks)
    assert len(chosen) * comb(q, G.r) + leftover.m == G.m, "edge conservation violated"
    return chosen, leftover


def random_greedy_pack(G: Hypergraph, q: int, *, seed: int = 0) -> Tuple[Packing, Hypergraph]:
    """Random greedy packing; returns (packing, leftover)."""
    chosen, leftover = _greedy(G, q, seed)
    return Packing(G, chosen, q), leftover


def generate_reserves(n: int, q: int, r: int, p: float, seed: int = 0) -> ReserveSet:
    """Sample each edge of the complete r-graph on n vertices into X
    independently with probability p and count, exactly, the reserve
    cliques available to every remaining edge."""
    if not n >= q > r >= 1:
        raise ParameterError(f"need n >= q > r >= 1, got n={n}, q={q}, r={r}")
    if not (0 <= p < 1):
        raise ParameterError(f"p must lie in [0, 1), got {p}")
    host = Hypergraph.complete(n, r)
    rng = random.Random(seed)
    x_edges = {e for e in sorted(host.edges) if rng.random() < p}
    X = Hypergraph(n, r, x_edges)
    counts: Dict[tuple, int] = {}
    if (q, r) == (3, 2):
        # a triangle through uv with its other two edges in X is a common
        # X-neighbour of u and v
        nbrs = [0] * n
        for u, v in x_edges:
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
        for u, v in sorted(host.edges - x_edges):
            counts[(u, v)] = (nbrs[u] & nbrs[v]).bit_count()
    else:
        for e in sorted(host.edges - x_edges):
            counts[e] = len(reserve_candidates(e, host, x_edges, q))
    max_deg = max_level_degree(X, r - 1) if X.m else 0
    mn = min(counts.values()) if counts else 0
    thr_specialized = 0.5 * p ** (comb(q, r) - 1) * comb(n - r, q - r)
    thr_verbatim = 0.5 * p ** (comb(q, r) - 1) * comb(n, q - r)
    flags = {
        "max_degree": max_deg,
        "degree_ok": max_deg <= 2 * p * n,
        "min_count": mn,
        "count_ok": mn >= thr_specialized,
        "count_threshold": thr_specialized,
        "count_ok_verbatim": mn >= thr_verbatim,
        "count_threshold_verbatim": thr_verbatim,
    }
    if r == 2:
        thr_mindeg = p ** (comb(q, 2) - 1) / (q + 1) ** q * comb(n, q - 2)
        flags["count_ok_high_min_degree"] = mn >= thr_mindeg
        flags["count_threshold_high_min_degree"] = thr_mindeg
    return ReserveSet(X=X, counts=counts, flags=flags)


def reserve_candidates(e: tuple, G: Hypergraph, X_avail: set, q: int) -> List[tuple]:
    """Cliques through e whose other edges all lie in the available reserve;
    such a clique meets E(G) exactly in e."""
    others = [v for v in range(G.n) if v not in e]
    out = []
    for extra in itertools.combinations(others, q - G.r):
        Q = tuple(sorted(e + extra))
        if all(f == e or f in X_avail for f in clique_edges(Q, G.r)):
            out.append(Q)
    return out


RETRIES = 5                 # random greedy passes before the exact fallback
FALLBACK_BUDGET = 200_000   # exact-cover nodes the fallback may spend


def complete_with_reserves(G: Hypergraph, X: Hypergraph, partial: Packing,
                           q: int, seed: int = 0,
                           stats: Optional[dict] = None) -> Optional[Packing]:
    """Cover the leftover of a partial packing of G using cliques with one
    foot in G and the rest in X.

    Every stage reads one `CoverInstance`: the sorted leftover edges are its
    primary items (each covered exactly once), the sorted X edges its
    secondary items (each used at most once), and each reserve candidate
    clique of a leftover edge, in `reserve_candidates` order, an option.
    Random greedy with resampling runs first, RETRIES times.  If it fails,
    failed-literal probing (`exactcover._refute`) drops options that lie in
    no completion and exact cover searches the rest.  Returns None only for
    a certified negative and records why in ``stats["reason"]``:
    "no-candidate" when some leftover edge lies in no reserve clique,
    "infeasible" when probing or the exhaustive search rules out every
    completion.  Raises BudgetError when the search spends FALLBACK_BUDGET
    nodes without an answer.
    """
    if stats is None:
        stats = {}
    if set(X.edges) & set(G.edges):
        raise ParameterError("X must be edge-disjoint from G")
    if partial.host is not G and partial.host.edges != G.edges:
        raise ParameterError("partial must pack G")
    leftover = sorted(G.edges - partial.covered_edges())
    union_host = Hypergraph(max(G.n, X.n), G.r, set(G.edges) | set(X.edges))
    rng = random.Random(seed)
    items = leftover + sorted(X.edges)
    ids = {e: i for i, e in enumerate(items)}
    payloads, rows = [], []
    for e in leftover:
        for Q in reserve_candidates(e, G, X.edges, q):
            payloads.append(Q)
            rows.append(tuple(ids[f] for f in clique_edges(Q, G.r)))
    inst = CoverInstance(len(items), [1] * len(leftover), payloads, rows)
    npri = len(leftover)
    cols = inst.cols
    stats["max_reserve_edge_usage"] = max(map(len, cols[npri:]), default=0)
    stats["min_candidates"] = min(map(len, cols[:npri]), default=0)
    if not all(cols[:npri]):
        stats["reason"] = "no-candidate"
        return None
    for _ in range(RETRIES):
        order = list(range(npri))
        rng.shuffle(order)
        used = bytearray(len(items))
        chosen: List[int] = []
        for i in order:
            cands = [k for k in cols[i] if not any(used[j] for j in rows[k])]
            if not cands:
                break
            k = cands[rng.randrange(len(cands))]
            chosen.append(k)
            for j in rows[k]:
                used[j] = 1
        else:
            stats["fallback_used"] = False
            return Packing(union_host, list(partial.cliques) +
                           [payloads[k] for k in chosen], q)
    stats["fallback_used"] = True
    refuted = _refute(inst)
    if refuted is not None:
        for sol in _search(inst, _Budget(FALLBACK_BUDGET), 1, exclude=refuted):
            return Packing(union_host, list(partial.cliques) + sol, q)
    stats["reason"] = "infeasible"
    return None


# ---------------------------------------------------------------------------
# configurations and girth
# ---------------------------------------------------------------------------

CONFIG_I_CAP = 6
WITNESS_CAP = 10   # configurations kept as witnesses by `configurations`


def _index_clique(idx: int, c: tuple, by_vertex: dict, by_pair: dict) -> None:
    """Record clique number idx in the vertex and pair indexes."""
    for v in c:
        by_vertex[v].append(idx)
    for pr in itertools.combinations(c, 2):
        by_pair[pr].append(idx)


def _clique_index(cliques: Sequence[tuple]) -> Tuple[dict, dict]:
    by_vertex: dict = defaultdict(list)
    by_pair: dict = defaultdict(list)
    for idx, c in enumerate(cliques):
        _index_clique(idx, c, by_vertex, by_pair)
    return by_vertex, by_pair


def _config_dfs(cliques: Sequence[tuple], by_vertex: dict, by_pair: dict,
                k: int, j: int, union: frozenset = frozenset()):
    """An iterator, in lexicographic order, over the index tuples
    t_1 < ... < t_k into `cliques` (sorted vertex tuples) whose vertices
    together with `union` span at most j vertices.  k below 1 or above
    CONFIG_I_CAP raises at once.

    A clique of s vertices keeps the span within j only if it meets the
    running union in at least s - (j - |union|) vertices; when that is 1 or
    2, its index comes from `by_vertex` or `by_pair` (vertex or sorted vertex
    pair -> ascending clique indexes) instead of from a scan of the list.
    """
    if k < 1:
        raise ParameterError("need i >= 1")
    if k > CONFIG_I_CAP:
        raise CapacityError(f"i = {k} exceeds the exhaustive cap {CONFIG_I_CAP}")
    n_cl = len(cliques)
    if k > n_cl or len(union) > j:
        return iter(())
    smallest = min(map(len, cliques), default=0)
    chosen: List[int] = []

    def rec(start: int, union: frozenset):
        if len(chosen) == k:
            yield tuple(chosen)
            return
        overlap = smallest - (j - len(union))
        if overlap >= 1:
            index, keys = ((by_pair, itertools.combinations(sorted(union), 2))
                           if overlap >= 2 else (by_vertex, union))
            ts: Sequence[int] = sorted(
                {t for key in keys for t in index.get(key, ()) if t >= start})
        else:
            ts = range(start, n_cl)
        for t in ts:
            u2 = union.union(cliques[t])
            if len(u2) <= j:
                chosen.append(t)
                yield from rec(t + 1, u2)
                chosen.pop()

    return rec(0, frozenset(union))


def configurations(P: Sequence[Sequence[int]], i: int, j: int) -> Tuple[int, List[tuple]]:
    """Exact count of i-subsets of P spanning at most j vertices, plus the
    first WITNESS_CAP of them."""
    cliques = [tuple(sorted(c)) for c in (P.cliques if isinstance(P, Packing) else P)]
    count = 0
    witnesses: List[tuple] = []
    for ts in _config_dfs(cliques, *_clique_index(cliques), i, j):
        count += 1
        if len(witnesses) < WITNESS_CAP:
            witnesses.append(tuple(cliques[t] for t in ts))
    return count, witnesses


def _add_triangle(t: tuple, third: dict, star: dict) -> None:
    """Index triangle abc in the maps `_closes_pasch` reads."""
    a, b, c = t
    third[a, b] = third[b, a] = c
    third[a, c] = third[c, a] = b
    third[b, c] = third[c, b] = a
    star[a].append((b, c))
    star[b].append((a, c))
    star[c].append((a, b))


def _closes_pasch(cand: tuple, third: dict, star: dict) -> bool:
    """Would triangle cand complete a Pasch configuration with a linear
    triangle system it shares no pair with?

    ``third[(x, y)]`` is the third point of the system's triangle on the
    pair xy (both orders are keys) and ``star[v]`` lists (d, e) for each of
    its triangles vde.  A Pasch configuration through abc is abc, ade, bdf,
    cef: every point lies in two of its triangles, so the configuration
    meets the star of any one point of abc.  Test the smallest star.
    """
    a, b, c = cand
    if len(star[b]) < len(star[a]):
        a, b = b, a
    if len(star[c]) < len(star[a]):
        a, c = c, a
    get = third.get
    for d, e in star[a]:
        f = get((b, d))
        if f is not None and get((c, e)) == f:
            return True
        f = get((b, e))
        if f is not None and get((c, d)) == f:
            return True
    return False


def _triangle_girth(cliques: Sequence[tuple], g_max: int) -> Optional[int]:
    """Girth up to min(g_max, 4) of a list of triangles: 2, 4, or None.

    Two triangles on one pair are a (4,2)-configuration.  Otherwise the
    system is linear, so three triangles span at least 6 points (no (5,3)),
    and four on at most 6 points cover 12 distinct pairs: they span exactly
    6 points, each in two of them, which is Pasch, the only
    (6,4)-configuration.  One pass adds the triangles in order, testing
    each first for a repeated pair and then for a Pasch it closes with
    those before it.
    """
    third: dict = {}
    star: dict = defaultdict(list)
    pasch = False
    for t in cliques:
        a, b, c = t
        if (a, b) in third or (a, c) in third or (b, c) in third:
            return 2
        if not pasch and g_max >= 4:
            pasch = _closes_pasch(t, third, star)
        _add_triangle(t, third, star)
    return 4 if pasch else None


def girth(P: Sequence[Sequence[int]], q: int, r: int, g_max: int = 6):
    """Smallest g in [2, g_max] with a ((q-r)g + r, g)-configuration, else
    inf; g_max is at least 2.

    Triangles (q = 3, r = 2) take an exact fast path for g <= 4 with a
    pair -> third-point map (`_triangle_girth`); only g >= 5, and every
    other (q, r), runs the configuration DFS, on one clique index for all g.
    """
    if g_max < 2:
        raise ParameterError(f"need g_max >= 2, got {g_max}")
    cliques = P.cliques if isinstance(P, Packing) else P
    lo = 2
    if (q, r) == (3, 2) and all(len(set(c)) == 3 for c in cliques):
        got = _triangle_girth(cliques, g_max)
        if got is not None:
            return got
        lo = 5
    if lo > g_max:
        return inf
    cliques = [tuple(sorted(c)) for c in cliques]
    by_vertex, by_pair = _clique_index(cliques)
    for g in range(lo, g_max + 1):
        if next(_config_dfs(cliques, by_vertex, by_pair, g, (q - r) * g + r), None):
            return g
    return inf


def _creates_config(cand: tuple, accepted: List[tuple], by_vertex: dict,
                    by_pair: dict, q: int, r: int, g: int, lo: int = 2) -> bool:
    """Does accepting cand create a ((q-r)g' + r, g')-configuration for some
    lo <= g' <= g?  Exact: the configuration DFS looks for g' - 1 accepted
    cliques that span at most (q-r)g' + r vertices together with cand.
    `high_girth_pack` passes lo = 5 for triangles, whose g' <= 4 cases
    `_closes_pasch` decides."""
    return any(
        next(_config_dfs(accepted, by_vertex, by_pair, gp - 1, (q - r) * gp + r,
                         frozenset(cand)), None)
        for gp in range(lo, g + 1))


def high_girth_pack(G: Hypergraph, q: int, g: int, *,
                    seed: int = 0) -> Tuple[Packing, Hypergraph]:
    """Random greedy with a veto: `_greedy`'s draws and sweep, taking a
    free clique only if it creates no ((q-r)g' + r, g')-configuration with
    g' <= g, for 2 <= g <= 6; the output's girth is re-checked.

    Accepted cliques are edge-disjoint, so for triangles (q = 3, r = 2) a
    candidate can close no configuration with g' <= 3 and only Pasch with
    g' = 4: `_closes_pasch` decides that on a pair -> third-point map and
    per-vertex triangle lists, and the `_creates_config` DFS runs for
    g' = 5..g only.  Other (q, r) run the DFS for every g' in 2..g.
    """
    if g < 2:
        raise ParameterError(f"need g >= 2, got {g}")
    if g > 6:
        raise CapacityError("g <= 6 for the exhaustive configuration check")
    tri = (q, G.r) == (3, 2)
    lo = 5 if tri else 2
    accepted: List[tuple] = []
    by_vertex, by_pair = _clique_index(accepted)
    third: dict = {}
    star: dict = defaultdict(list)

    def admit(c: tuple) -> bool:
        if tri and g >= 4 and _closes_pasch(c, third, star):
            return False
        if g >= lo and accepted and _creates_config(
                c, accepted, by_vertex, by_pair, q, G.r, g, lo):
            return False
        if tri:
            _add_triangle(c, third, star)
        _index_clique(len(accepted), c, by_vertex, by_pair)
        accepted.append(c)
        return True

    _, leftover = _greedy(G, q, seed, admit)
    assert girth(accepted, q, G.r, g_max=g) > g, "forbidden configuration slipped in"
    return Packing(G, accepted, q), leftover


# ---------------------------------------------------------------------------
# spread estimation
# ---------------------------------------------------------------------------

def spread_estimate(sampler: Optional[Callable[[int], Sequence[tuple]]], trials: int,
                    seed: int = 0,
                    exact_decompositions: Optional[Sequence[Sequence[tuple]]] = None
                    ) -> dict:
    """Estimate the single-clique spread: sigma-hat = max over cliques S of
    Prob[S in H], for H drawn by `sampler` from seeds of
    `random.Random(seed)`, or uniform over `exact_decompositions`.

    One Counter pass over the family counts the members containing each
    clique.  ``packing`` is (S,) for a most-contained S: the first met in
    exact mode, the smallest in Monte Carlo mode, which needs trials >= 1
    and reports a 95% interval.  Exact mode ignores trials.
    """
    if exact_decompositions is not None:
        family = [frozenset(tuple(sorted(c)) for c in d) for d in exact_decompositions]
        counts = Counter(itertools.chain.from_iterable(map(sorted, family)))
        best_S = max(counts, key=counts.__getitem__, default=None)
        if best_S is None:
            return {"sigma_hat": 0.0, "prob": -1.0, "packing": None, "mode": "exact"}
        best = counts[best_S] / len(family)
        return {"sigma_hat": best, "prob": best, "packing": (best_S,), "mode": "exact"}

    if trials < 1:
        raise ParameterError(f"need trials >= 1 for a Monte Carlo spread, got {trials}")
    rng = random.Random(seed)
    samples: List[frozenset] = []
    failures = 0
    for _ in range(trials):
        try:
            d = sampler(rng.randrange(2 ** 31))
        except Exception:  # noqa: BLE001 - sampler failures are data
            d = None
        if not d:
            failures += 1
            continue
        samples.append(frozenset(tuple(sorted(c)) for c in d))
    if failures > trials / 2:
        raise ReliabilityError(f"sampler failed {failures}/{trials} times")
    T = len(samples)
    counts = Counter(itertools.chain.from_iterable(samples))
    top = max(counts.values())
    best_S = min(c for c, k in counts.items() if k == top)
    best = top / T
    se = math.sqrt(best * (1 - best) / T)
    return {"sigma_hat": best, "prob": best, "packing": (best_S,),
            "ci95": (max(best - 1.96 * se, 0.0), min(best + 1.96 * se, 1.0)),
            "mode": "monte-carlo", "samples": T}
