"""Divisibility predicates for clique decompositions.

A graph can only decompose into q-cliques if every i-set degree is divisible
by binom(q-i, r-i); these are the classical necessary conditions.  The
degrees come from `hypercore.level_degrees`, which enumerates only i-sets
of positive degree (degree 0 is divisible by everything) and so avoids the
binom(n, i) blowup.
"""
from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Iterator

from .errors import CapacityError, ParameterError
from .hypercore import AnyGraph, Hypergraph, level_degrees

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


def admissibility_report(p: DesignParams) -> list:
    """Per-i verdicts of binom(q-i, r-i) | lam * binom(n-i, r-i), 0 <= i <= r-1;
    feeds the CLI's --params mode."""
    rows = []
    for i in range(p.r):
        divisor = comb(p.q - i, p.r - i)
        value = p.lam * comb(p.n - i, p.r - i)
        rows.append({"i": i, "divisor": divisor, "value": value, "ok": value % divisor == 0})
    return rows


def params_admissible(p: DesignParams) -> bool:
    """Every row of the admissibility report holds."""
    return all(row["ok"] for row in admissibility_report(p))


def is_divisible(G: AnyGraph, q: int) -> bool:
    """True iff binom(q-i, r-i) divides every positive i-set degree, i < r."""
    if q <= G.r:
        raise ParameterError(f"need q > r, got q={q}, r={G.r}")
    for i in range(G.r):
        d = comb(q - i, G.r - i)
        if any(v % d for v in level_degrees(G, i).values()):
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
    # for each i-set: index of its last incident edge
    last_edge: dict = {}
    for idx, e in enumerate(edges):
        for i in range(r):
            for sub in itertools.combinations(e, i):
                last_edge[(i, sub)] = idx
    checks_at: list = [[] for _ in range(m)]
    for (i, sub), idx in last_edge.items():
        checks_at[idx].append((i, sub, divisors[i]))

    deg: Counter = Counter()
    chosen: list = []

    def bump(e: tuple, delta: int):
        for i in range(r):
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
