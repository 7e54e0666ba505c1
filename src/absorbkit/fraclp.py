"""Exact rational linear programming for fractional clique decompositions.

Feasibility of {sum of weights through each edge = 1, weights >= 0 (<= cap)}
is decided by a fraction-free revised phase-1 simplex (Dantzig pricing with
a Bland anti-cycling switch).  Every coefficient of the constraint matrix is
0 or 1, so each column is kept as the tuple of its rows' ids, and the
simplex keeps only B^-1 and the right-hand side: each of their rows holds
integer numerators over its own positive integer denominator, and is
reduced by its gcd only once that denominator outgrows a machine word (the
pivot row on every pivot).  Verdicts are exact: feasibility comes with the
weighting itself, and infeasibility comes with a Farkas certificate that is
re-verified before being returned.  An exhaustive vertex enumeration
(`fm_feasible`: every linearly independent column subset, solved exactly)
doubles as an independent oracle for small instances.
"""
from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Dict, List, Optional, Sequence, Union

from .errors import CapacityError, ParameterError
from .hypercore import (Hypergraph, clique_edges, cover_counts, enumerate_cliques,
                        require_simple)

VARIABLE_CAP = 20000
FM_CLIQUE_CAP = 12   # fm_feasible tries every subset of its columns
# _phase1 reduces a non-pivot row by its gcd only once its denominator has
# more bits than this: about one machine word
REDUCE_BITS = 62


@dataclass
class FractionalWeighting:
    """Nonnegative rational clique weights with unit sums along every edge."""

    psi: Dict[tuple, Fraction]
    host: Hypergraph
    q: int

    def __post_init__(self):
        sums: Dict[tuple, Fraction] = {e: Fraction(0) for e in self.host.edges}
        for c, w in self.psi.items():
            if w < 0:
                raise ParameterError(f"negative weight on {c!r}")
            for e in clique_edges(c, self.host.r):
                if e not in sums:
                    raise ParameterError(f"clique {c!r} uses a non-edge {e!r}")
                sums[e] += w
        bad = [e for e, s in sums.items() if s != 1]
        if bad:
            raise ParameterError(f"edge sums differ from 1 at {bad[:3]!r}")


@dataclass
class SimplexOutcome:
    feasible: bool
    weighting: Optional[FractionalWeighting]
    farkas: Optional[List[Fraction]]   # infeasibility prices, edge-row order
    rows: List[tuple]                  # row labels: ("edge", e) / ("cap", c)
    pivots: int


@dataclass
class BoostFamily:
    cliques: List[tuple]
    edge_counts: Counter
    c_hat: float
    gamma_hat: float
    clamped: int


def _phase1(cols: List[tuple], b: List[Fraction]) -> tuple:
    """Minimize the artificial sum for {Ax = b, x >= 0}; returns
    (objective, x, y, pivots).  One artificial per row; b must be >= 0.

    Every coefficient of A is 0 or 1, so A arrives as its columns, each
    the tuple of row ids where it holds a 1.  This is the revised simplex:
    only the artificial block of the tableau (B^-1) and the right-hand side
    are kept, as are the artificial part and the right-hand side of the
    objective row.  The artificial part of that row is 1 - y, for the row
    prices y; a structural column costs 0, so its reduced cost is minus the
    sum of y over its rows, and its tableau column is the sum of the B^-1
    columns of its rows.

    Each kept row, the objective row included, is a list of integer
    numerators over one positive integer denominator.  The objective row
    and the pivot row are reduced by their gcd on every pivot (p scales
    every other row); any other row only once its denominator has more
    than REDUCE_BITS bits: on word-sized integers the gcd costs about half
    as much as the update and saves little.  Every entry keeps its exact
    rational value, and every comparison cross-multiplies or shares one
    positive denominator, so the pivots are those of a full Fraction
    tableau; only x and y become (normalised) Fractions.
    """
    m = len(b)
    n_struct = len(cols)
    ncols = n_struct + m
    struct = cols
    cols = cols + [(i,) for i in range(m)]   # artificials: unit columns
    # row i of [B^-1 | rhs]; B = I at the start
    T: List[List[int]] = []
    den: List[int] = []
    for i, bi in enumerate(b):
        d = bi.denominator
        row = [0] * (m + 1)
        row[i], row[m] = d, bi.numerator
        T.append(row)
        den.append(d)
    basis = [n_struct + i for i in range(m)]
    # objective row over the artificial columns and the right-hand side:
    # the reduced cost 1 - y_i of artificial i, over one denominator
    oden = lcm(*den)
    obj = [0] * m + [-sum((oden // d) * Ti[m] for d, Ti in zip(den, T))]
    g = gcd(oden, *obj)
    obj, oden = [v // g for v in obj], oden // g
    pivots = 0
    stalled = 0
    bland_after = 4 * (m + ncols)
    while True:
        # reduced costs of every column over the denominator oden: minus
        # the sum of y_i = (oden - obj_i) / oden over a structural column's
        # rows, and obj_i itself for artificial i
        minus_y = [v - oden for v in obj[:m]].__getitem__
        red = [sum(map(minus_y, col)) for col in struct] + obj[:m]
        # Dantzig pricing normally; permanent Bland switch once the
        # objective stalls long enough to suspect cycling.  The reduced
        # costs share one positive denominator: compare numerators.
        if stalled <= bland_after:
            best = min(red)
            enter = red.index(best) if best < 0 else None
        else:
            enter = next((j for j in range(ncols) if red[j] < 0), None)
        if enter is None:
            break
        # the entering tableau column: the sum of its rows' B^-1 columns
        first, *rest = cols[enter]
        a_col = [row[first] for row in T]
        for i in rest:
            a_col = [a + row[i] for a, row in zip(a_col, T)]
        # ratio rhs_i / a_i: the row denominator cancels, so compare
        # numerator ratios by cross-multiplying (a_i > 0)
        leave = None
        for i in range(m):
            a = a_col[i]
            if a > 0:
                rhs = T[i][m]
                if leave is None:
                    leave, lrhs, la = i, rhs, a
                    continue
                cross_i, cross_leave = rhs * la, lrhs * a
                if cross_i < cross_leave or (cross_i == cross_leave
                                             and basis[i] < basis[leave]):
                    leave, lrhs, la = i, rhs, a
        if leave is None:
            raise ParameterError("phase-1 unbounded; the instance is malformed")
        # dividing the leaving row by its pivot keeps its numerators and
        # makes the pivot numerator its denominator
        prow = T[leave]
        p = a_col[leave]
        g = gcd(p, *prow)
        if g > 1:
            prow = [v // g for v in prow]
            p //= g
        T[leave], den[leave] = prow, p
        for i in range(m):
            f = a_col[i]
            if f and i != leave:
                new = [a * p - f * c for a, c in zip(T[i], prow)]
                d = den[i] * p
                if d.bit_length() > REDUCE_BITS:
                    g = gcd(d, *new)
                    if g > 1:
                        new, d = [v // g for v in new], d // g
                T[i], den[i] = new, d
        f = red[enter]
        before, before_den = obj[m], oden
        obj = [a * p - f * c for a, c in zip(obj, prow)]
        oden *= p
        g = gcd(oden, *obj)
        if g > 1:
            obj, oden = [v // g for v in obj], oden // g
        stalled = stalled + 1 if obj[m] * before_den == before * oden else 0
        basis[leave] = enter
        pivots += 1
    objective = Fraction(-obj[m], oden)
    x = [Fraction(0)] * n_struct
    for i, bi in enumerate(basis):
        if bi < n_struct:
            x[bi] = Fraction(T[i][m], den[i])
    # row prices: y_i = 1 - reduced cost of artificial i
    y = [1 - Fraction(obj[i], oden) for i in range(m)]
    return objective, x, y, pivots


def _nonnegative_rational(value, name: str) -> Fraction:
    """`value` as a Fraction; ParameterError unless it is a rational >= 0."""
    try:
        x = Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ParameterError(f"{name} must be a rational, got {value!r}") from None
    if x < 0:
        raise ParameterError(f"{name} must be nonnegative, got {x}")
    return x


def solve_fractional(G: Hypergraph, q: int,
                     weight_cap: Optional[Union[Fraction, int, str]] = None) -> SimplexOutcome:
    """Exact LP solve: a weighting when feasible, else a verified Farkas
    certificate.  A multigraph is a ParameterError: the weighting would
    cover its support, not its multiplicities."""
    host = require_simple(G, "a fractional decomposition target")
    if q <= host.r:
        raise ParameterError(f"need q > r, got q={q}, r={host.r}")
    # phase 1 starts from the artificial basis, which needs b >= 0
    cap = _nonnegative_rational(weight_cap, "weight cap") if weight_cap is not None else None
    cliques = sorted(tuple(sorted(c)) for c in enumerate_cliques(host, q))
    if len(cliques) > VARIABLE_CAP:
        raise CapacityError(f"{len(cliques)} cliques exceeds the solver cap {VARIABLE_CAP}")
    edges = sorted(host.edges)
    if not edges:
        w = FractionalWeighting(psi={}, host=host, q=q)
        return SimplexOutcome(True, w, None, [], 0)
    # columns of A as the row ids of their 1s: clique j covers its edge
    # rows (and its cap row), slack j covers cap row j alone
    eidx = {e: i for i, e in enumerate(edges)}
    cols = [tuple(eidx[e] for e in clique_edges(c, host.r)) for c in cliques]
    row_labels: List[tuple] = [("edge", e) for e in edges]
    b = [Fraction(1)] * len(edges)
    if cap is not None:
        first = len(edges)
        cols = ([col + (first + j,) for j, col in enumerate(cols)]
                + [(first + j,) for j in range(len(cliques))])
        row_labels += [("cap", c) for c in cliques]
        b += [cap] * len(cliques)
    objective, x, y, pivots = _phase1(cols, b)
    if objective == 0:
        psi = {c: x[j] for j, c in enumerate(cliques) if x[j] != 0}
        w = FractionalWeighting(psi=psi, host=host, q=q)
        if cap is not None:
            assert all(v <= cap for v in psi.values()), "cap violated post-solve"
        return SimplexOutcome(True, w, None, row_labels, pivots)
    # Farkas: y*A <= 0 on every structural column and y*b > 0; verify exactly
    for col in cols:
        assert sum(y[i] for i in col) <= 0, "Farkas certificate failed column check"
    assert sum(yi * bi for yi, bi in zip(y, b)) > 0, "Farkas certificate failed rhs check"
    return SimplexOutcome(False, None, y, row_labels, pivots)


def fm_feasible(G: Hypergraph, q: int) -> bool:
    """Independent feasibility oracle for {M psi = 1, psi >= 0}.

    Vertex-enumeration style: by Caratheodory the system is feasible iff
    some linearly independent subset of columns carries a nonnegative exact
    solution, so all column subsets are tried with rational elimination.
    Small instances only.
    """
    cliques = sorted(tuple(sorted(c)) for c in enumerate_cliques(G, q))
    if len(cliques) > FM_CLIQUE_CAP:
        raise CapacityError(f"{len(cliques)} cliques exceeds the oracle cap {FM_CLIQUE_CAP}")
    edges = sorted(G.edges)
    if not edges:
        return True
    if not cliques:
        return False
    cols = [[Fraction(1) if set(e) <= set(c) else Fraction(0) for e in edges]
            for c in cliques]
    m = len(edges)
    b = [Fraction(1)] * m
    for k in range(1, min(len(cliques), m) + 1):
        for sub in itertools.combinations(range(len(cliques)), k):
            lam = _solve_exact([cols[j] for j in sub], b)
            if lam is not None and all(v >= 0 for v in lam):
                return True
    return False


def _solve_exact(cols: List[List[Fraction]], b: List[Fraction]):
    """Unique exact solution of cols * lam = b, or None when the columns are
    dependent or the system is inconsistent."""
    m, k = len(b), len(cols)
    M = [[cols[j][i] for j in range(k)] + [b[i]] for i in range(m)]
    row = 0
    piv_cols = []
    for col in range(k):
        sel = next((i for i in range(row, m) if M[i][col] != 0), None)
        if sel is None:
            return None  # dependent columns; a smaller subset covers this case
        M[row], M[sel] = M[sel], M[row]
        pv = M[row][col]
        M[row] = [v / pv for v in M[row]]
        for i in range(m):
            if i != row and M[i][col] != 0:
                f = M[i][col]
                M[i] = [a - f * c for a, c in zip(M[i], M[row])]
        piv_cols.append(col)
        row += 1
    for i in range(row, m):
        if M[i][k] != 0:
            return None
    return [M[i][k] for i in range(k)]


def boost_sample(psi: FractionalWeighting, multiplier: Optional[Fraction] = None,
                 seed: int = 0) -> BoostFamily:
    """Include each clique independently with probability min(1, m * psi);
    report per-edge counts and their normalized spread.  A negative or
    non-rational multiplier m raises ParameterError."""
    host, q = psi.host, psi.q
    n, r = host.n, host.r
    denom = comb(n - r, q - r)
    if multiplier is None:
        multiplier = Fraction(denom, 2)
    multiplier = _nonnegative_rational(multiplier, "multiplier")
    rng = random.Random(seed)
    chosen: List[tuple] = []
    clamped = 0
    for c in sorted(psi.psi):
        p = multiplier * psi.psi[c]
        if p > 1:
            clamped += 1
            p = Fraction(1)
        if rng.random() < float(p):
            chosen.append(c)
    counts: Counter = Counter(dict.fromkeys(host.edges, 0))
    counts.update(cover_counts(map(sorted, chosen), r))
    if counts:
        mean = sum(counts.values()) / len(counts)
        c_hat = mean / denom if denom else 0.0
        gamma_hat = max(abs(v / denom - c_hat) for v in counts.values()) if denom else 0.0
    else:
        c_hat = gamma_hat = 0.0
    return BoostFamily(cliques=chosen, edge_counts=counts, c_hat=c_hat,
                       gamma_hat=gamma_hat, clamped=clamped)


def inheritance_stats(G: Hypergraph, s: int, M: Sequence[int],
                      trials: int, seed: int = 0,
                      threshold: float = 0.0) -> dict:
    """Sample s-sets containing M; report how often the induced subgraph
    keeps minimum degree at least threshold * (s - 1)."""
    if G.r != 2:
        raise ParameterError("inheritance sampling is implemented for graphs")
    if len(set(M)) != len(M) or not all(0 <= v < G.n for v in M):
        raise ParameterError(f"M needs distinct vertices of G, got {tuple(M)}")
    M = tuple(sorted(M))
    m = len(M)
    if not max(m, 1) <= s <= G.n:
        raise ParameterError(f"need max(|M|, 1) <= s <= n, got |M|={m}, s={s}, n={G.n}")
    if trials <= 0:
        return {"trials": 0, "hits": 0, "fraction": None, "min_seen": None}
    bound = threshold * (s - 1)
    adj: Dict[int, set] = {v: set() for v in range(G.n)}
    for a, bb in G.edges:
        adj[a].add(bb)
        adj[bb].add(a)
    pool = [v for v in range(G.n) if v not in M]
    rng = random.Random(seed)
    hits = 0
    min_seen = None
    for _ in range(trials):
        S = set(M) | set(rng.sample(pool, s - m))
        mindeg = min(len(adj[v] & S) for v in S)
        if min_seen is None or mindeg < min_seen:
            min_seen = mindeg
        if mindeg >= bound:
            hits += 1
    return {"trials": trials, "hits": hits, "fraction": hits / trials,
            "min_seen": min_seen, "threshold": bound}
