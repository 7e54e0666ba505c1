"""Divisibility predicates for clique decompositions.

A graph can only decompose into q-cliques if every i-set degree is divisible
by binom(q-i, r-i); these are the classical necessary conditions.  Only
i-sets of positive degree are enumerated (degree 0 is divisible by
everything), which avoids the binom(n, i) blowup.
"""
from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Iterator

from .errors import CapacityError, ParameterError
from .hypercore import AnyGraph, Hypergraph, MultiHypergraph

EXHAUSTIVE_EDGE_CAP = 24


@dataclass(frozen=True)
class DesignParams:
    n: int
    q: int
    r: int
    lam: int = 1

    def __post_init__(self):
        if not (self.n > self.q > self.r >= 1) or self.lam < 1:
            raise ParameterError(f"need n > q > r >= 1 and lambda >= 1, got {self}")


def params_admissible(p: DesignParams) -> bool:
    """binom(q-i, r-i) | lam * binom(n-i, r-i) for all 0 <= i <= r-1."""
    return all(
        (p.lam * comb(p.n - i, p.r - i)) % comb(p.q - i, p.r - i) == 0
        for i in range(p.r)
    )


def admissibility_report(p: DesignParams) -> list:
    """Per-i verdicts; feeds the CLI's --params mode."""
    rows = []
    for i in range(p.r):
        divisor = comb(p.q - i, p.r - i)
        value = p.lam * comb(p.n - i, p.r - i)
        rows.append({"i": i, "divisor": divisor, "value": value, "ok": value % divisor == 0})
    return rows


def _degree_counters(G: AnyGraph) -> list:
    """counts[i]: positive-degree i-sets -> degree (with multiplicity)."""
    r = G.r
    counts = [Counter() for _ in range(r)]
    if isinstance(G, MultiHypergraph):
        items = list(G.mult.items())
    else:
        items = [(e, 1) for e in G.edges]
    for e, k in items:
        for i in range(r):
            for sub in itertools.combinations(e, i):
                counts[i][sub] += k
    return counts


def is_divisible(G: AnyGraph, q: int) -> bool:
    """True iff binom(q-i, r-i) divides every positive i-set degree, i < r."""
    if q <= G.r:
        raise ParameterError(f"need q > r, got q={q}, r={G.r}")
    r = G.r
    divisors = [comb(q - i, r - i) for i in range(r)]
    for i, cnt in enumerate(_degree_counters(G)):
        d = divisors[i]
        if d == 1:
            continue
        if any(v % d for v in cnt.values()):
            return False
    return True


def divisible_subgraphs(
    X: Hypergraph,
    q: int,
    mode: str = "exhaustive",
    trials: int | None = None,
    seed: int = 0,
) -> Iterator[Hypergraph]:
    """Edge-subsets of X that are divisible.

    Exhaustive mode enumerates all of them (edge cap 24), pruned by checking
    each i-set's divisibility as soon as its last incident edge is decided.
    Sampling mode draws `trials` uniform edge-subsets and yields those that
    pass.
    """
    if q <= X.r:
        raise ParameterError(f"need q > r, got q={q}, r={X.r}")
    edges = sorted(X.edges)
    m = len(edges)

    if mode == "sample":
        if trials is None or trials < 1:
            raise ParameterError(f"sampling mode needs a trial count of at least 1, got {trials}")
        rng = random.Random(seed)
        for _ in range(trials):
            sub = [e for e in edges if rng.random() < 0.5]
            H = Hypergraph(X.n, X.r, sub)
            if is_divisible(H, q):
                yield H
        return
    if mode != "exhaustive":
        raise ParameterError(f"unknown mode {mode!r}")
    if m > EXHAUSTIVE_EDGE_CAP:
        raise CapacityError(f"{m} edges exceeds the exhaustive cap {EXHAUSTIVE_EDGE_CAP}")

    r = X.r
    divisors = [comb(q - i, r - i) for i in range(r)]
    # for each i-set with a nontrivial divisor: index of its last incident edge
    last_edge: dict = {}
    for idx, e in enumerate(edges):
        for i in range(r):
            if divisors[i] == 1:
                continue
            for sub in itertools.combinations(e, i):
                last_edge[(i, sub)] = idx
    checks_at: list = [[] for _ in range(m)]
    for (i, sub), idx in last_edge.items():
        checks_at[idx].append((i, sub, divisors[i]))

    deg: Counter = Counter()
    chosen: list = []

    def bump(e: tuple, delta: int):
        for i in range(r):
            if divisors[i] == 1:
                continue
            for sub in itertools.combinations(e, i):
                deg[(i, sub)] += delta

    def rec(k: int):
        if k == m:
            yield Hypergraph(X.n, X.r, list(chosen))
            return
        e = edges[k]
        for take in (False, True):
            if take:
                chosen.append(e)
                bump(e, +1)
            if all(deg[(i, sub)] % d == 0 for i, sub, d in checks_at[k]):
                yield from rec(k + 1)
            if take:
                chosen.pop()
                bump(e, -1)

    yield from rec(0)
