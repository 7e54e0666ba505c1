"""Omni-absorber construction and verification.

Two constructions are provided: the explicit 1-uniform tight-path
construction, and, for r = 2 at small |X|, the union of one private
absorber per divisible subgraph of X.  Neither targets the efficient
degree guarantees of the general theory; certificates record measured
degrees instead.

Note on the 1-uniform family: members are q-vertex windows of the two
tight paths.  The q-window choice (rather than r-window) is what makes the
family a set of q-cliques in the 1-uniform world; the decomposition rule
below is checked window-by-window at evaluation time, never assumed.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from . import divide
from .errors import (CapacityError, ConstructionError, DivisibilityError,
                     ParameterError)
from .gadgets import build_absorber
from .hypercore import (Hypergraph, cover_counts, decomposition_valid,
                        max_level_degree, read_graph, read_key_values,
                        require_simple, write_graph)

OMNI_SMALL_EDGE_CAP = 12


@dataclass
class OmniAbsorberCertificate:
    """Absorber A for every divisible subgraph of X, with its family and
    decomposition procedure."""

    X: Hypergraph
    A: Hypergraph
    family: tuple                      # F_A, the allowed cliques
    q: int
    C: int                             # refinedness bound claimed
    kind: str                          # "1d" | "small"
    decompose: Callable[[Hypergraph], List[tuple]] = field(repr=False)
    meta: Dict = field(default_factory=dict)
    # per-L absorber data for the small construction, keyed by frozenset of
    # L's edges: {"D1": [...], "D2": [...], "edges": set, "support": tuple}
    parts: Optional[Dict] = field(default=None, repr=False)

    def target_for(self, L: Hypergraph) -> Hypergraph:
        return Hypergraph(self.A.n, self.A.r, set(self.A.edges) | set(L.edges))


def omni_1d(X: Hypergraph, q: int) -> OmniAbsorberCertificate:
    """Tight-path omni-absorber for a 1-uniform X.

    A holds q fresh vertices per element of X.  H1 runs through A alone;
    H2 interleaves one element of X after every q vertices of A.  The
    family is every q-window of either path; divisible L decompose into the
    consecutive q-blocks of H2 restricted to A u L.
    """
    require_simple(X, "an omni-absorber's X")
    if X.r != 1:
        raise ParameterError("the tight-path construction needs a 1-uniform X")
    if q < 2:
        raise ParameterError("need q >= 2")
    xs = sorted(v for (v,) in sorted(X.edges))
    m = len(xs)
    a_ids = list(range(X.n, X.n + q * m))
    n_total = X.n + q * m
    h1 = list(a_ids)
    h2: List[int] = []
    for i, x in enumerate(xs):
        h2.extend(a_ids[q * i: q * (i + 1)])
        h2.append(x)
    windows = set()
    for order in (h1, h2):
        for i in range(len(order) - q + 1):
            windows.add(tuple(sorted(order[i:i + q])))
    family = tuple(sorted(windows))
    fam_set = set(family)
    A = Hypergraph(n_total, 1, [(a,) for a in a_ids])
    x_set = set(xs)

    def decompose(L: Hypergraph) -> List[tuple]:
        L_elems = {v for (v,) in L.edges}
        if not L_elems <= x_set:
            raise ParameterError("L is not a subgraph of X")
        if len(L_elems) % q != 0:
            raise DivisibilityError(f"|L| = {len(L_elems)} is not divisible by q = {q}")
        seq = [v for v in h2 if v in L_elems or v not in x_set]
        blocks = [tuple(sorted(seq[i:i + q])) for i in range(0, len(seq), q)]
        for b in blocks:
            if b not in fam_set:
                raise ConstructionError(f"block {b!r} is not a path window")
        return blocks

    return OmniAbsorberCertificate(
        X=X, A=A, family=family, q=q, C=2 * q, kind="1d",
        decompose=decompose, meta={"m": m, "q": q})


def omni_small(X: Hypergraph, q: int = 3) -> OmniAbsorberCertificate:
    """Union of private absorbers, one per divisible subgraph of X.

    Wildly inefficient by design; the certificate records the measured
    maximum degree rather than claiming any bound.
    """
    require_simple(X, "an omni-absorber's X")
    if X.r != 2:
        raise ParameterError("omni_small is implemented for r = 2")
    if X.m > OMNI_SMALL_EDGE_CAP:
        raise CapacityError(f"e(X) = {X.m} exceeds the cap {OMNI_SMALL_EDGE_CAP}")
    divisibles = list(divide.divisible_subgraphs(X, q))
    base = X.n
    table: Dict[frozenset, dict] = {}
    A_edges: set = set()
    family: List[tuple] = []
    for L in sorted(divisibles, key=lambda H: sorted(H.edges)):
        key = frozenset(L.edges)
        if not L.edges:
            table[key] = {"D1": [], "D2": [], "edges": set(), "support": ()}
            continue
        # build on the compact support so the absorber touches no other X
        # vertex, then relabel fresh vertices onto the shared counter
        sup = sorted(L.support())
        comp = {v: i for i, v in enumerate(sup)}
        Lc = Hypergraph(len(sup), 2,
                        [tuple(sorted((comp[a], comp[b]))) for a, b in L.edges])
        cert = build_absorber(Lc, q)
        inv = {i: v for v, i in comp.items()}
        for j in range(cert.A.n - len(sup)):
            inv[len(sup) + j] = base + j
        base += cert.A.n - len(sup)

        def relab(c, inv=inv):
            return tuple(sorted(inv[v] for v in c))

        entry = {"D1": [relab(c) for c in cert.D1.cliques],
                 "D2": [relab(c) for c in cert.D2.cliques],
                 "edges": {relab(e) for e in cert.A.edges},
                 "support": tuple(sup)}
        table[key] = entry
        A_edges |= entry["edges"]
        family.extend(entry["D1"])
        family.extend(entry["D2"])
    A = Hypergraph(base, 2, A_edges)
    fam = tuple(sorted(set(family)))

    def decompose(L: Hypergraph) -> List[tuple]:
        key = frozenset(L.edges)
        if key not in table:
            raise DivisibilityError("L is not a divisible subgraph of X")
        out = list(table[key]["D1"])
        for other, entry in table.items():
            if other != key:
                out.extend(entry["D2"])
        return out

    cert = OmniAbsorberCertificate(
        X=X, A=A, family=fam, q=q, C=len(divisibles), kind="small",
        decompose=decompose, parts=table,
        meta={"divisible_subgraphs": len(divisibles),
              "max_degree_A": max_level_degree(A, 1) if A.m else 0})
    cert.meta["refinedness"] = refinedness(cert)
    cert.C = max(cert.meta["refinedness"], 1)
    return cert


def verify_omni(cert: OmniAbsorberCertificate, mode: str = "exhaustive",
                trials: int = 100, seed: int = 0) -> dict:
    """Check the omni property over divisible subgraphs of X.

    Failures are data, not exceptions: the report lists every L whose
    decomposition is not inside the family or does not exactly partition
    A u L.
    """
    fam = set(cert.family)
    if mode == "exhaustive":
        Ls = divide.divisible_subgraphs(cert.X, cert.q)
    elif mode == "sample":
        Ls = divide.divisible_subgraphs(cert.X, cert.q, mode="sample",
                                        trials=trials, seed=seed)
    else:
        raise ParameterError(f"unknown mode {mode!r}")
    checked = 0
    failures = []
    for L in Ls:
        checked += 1
        label = sorted(L.edges)
        try:
            cliques = cert.decompose(L)
        except Exception as exc:  # noqa: BLE001 - failures are report data
            failures.append({"L": label, "error": f"{type(exc).__name__}: {exc}"})
            continue
        if not set(cliques) <= fam:
            failures.append({"L": label, "error": "cliques outside the family"})
            continue
        target = cert.target_for(L)
        if not decomposition_valid(target, cliques, cert.q):
            failures.append({"L": label, "error": "not an exact decomposition"})
    return {"checked": checked, "failures": failures, "mode": mode}


def refinedness(cert: OmniAbsorberCertificate) -> int:
    """Exact max, over edges of X u A, of membership count in the family."""
    counts = cover_counts(cert.family, cert.X.r)
    return max((counts[e] for e in cert.X.edges | cert.A.edges), default=0)


# ---------------------------------------------------------------------------
# certificate directory layout: X.graph, A.graph, family.txt, manifest
# ---------------------------------------------------------------------------

def write_certificate(cert: OmniAbsorberCertificate, outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    write_graph(cert.X, os.path.join(outdir, "X.graph"))
    write_graph(cert.A, os.path.join(outdir, "A.graph"))
    with open(os.path.join(outdir, "family.txt"), "w") as fh:
        for c in cert.family:
            fh.write(" ".join(map(str, c)) + "\n")
    with open(os.path.join(outdir, "manifest"), "w") as fh:
        fh.write(f"kind={cert.kind}\n")
        fh.write(f"q={cert.q}\n")
        fh.write(f"C={cert.C}\n")
        for k, v in sorted(cert.meta.items()):
            fh.write(f"meta.{k}={v}\n")


def read_certificate(certdir: str) -> OmniAbsorberCertificate:
    """Rebuild a certificate from disk; the decomposition procedure is
    reconstructed by re-running the construction on X.

    The manifest is a key=value file (`hypercore.read_key_values`) with
    kind, q and C, plus meta.* keys; any other key is a ParameterError.
    The stored C, A and family must match the reconstruction.
    """
    manifest = read_key_values(os.path.join(certdir, "manifest"))
    for k in manifest:
        if k not in ("kind", "q", "C") and not k.startswith("meta."):
            raise ParameterError(f"manifest: unknown key {k!r}")
    try:
        q, kind, C = int(manifest["q"]), manifest["kind"], int(manifest["C"])
        with open(os.path.join(certdir, "family.txt")) as fh:
            fam = tuple(sorted(tuple(int(t) for t in line.split()) for line in fh if line.strip()))
    except (KeyError, ValueError) as exc:
        raise ParameterError(f"malformed certificate {certdir!r}: {exc!r}") from None
    X = read_graph(os.path.join(certdir, "X.graph"))
    if kind == "1d":
        cert = omni_1d(X, q)
    elif kind == "small":
        cert = omni_small(X, q)
    else:
        raise ParameterError(f"unknown certificate kind {kind!r}")
    # cross-check the stored artifacts against the reconstruction
    if C != cert.C:
        raise ConstructionError(f"stored C={C} does not match the reconstruction's {cert.C}")
    A_stored = read_graph(os.path.join(certdir, "A.graph"))
    if A_stored != cert.A:
        raise ConstructionError("stored A does not match the reconstruction")
    if fam != cert.family:
        raise ConstructionError("stored family does not match the reconstruction")
    return cert
