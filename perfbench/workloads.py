"""The benchmark's workloads: fixed, seeded op lists and their answer checks.

Every op is one call into a public entry point of absorbkit.  The program
receives only the generated inputs; the workload seed never reaches it.
An op's check re-verifies its answer with functions captured before any
tracing wrapper is installed, so checks add no spans.

A check returns None, or ("fail", reason), or ("wrong", reason):
"wrong" is an answer the program certified that is not true (a bad design,
count, weighting or LP verdict, or a 0/1 verdict exit code that is the
other one); "fail" is every other failed op (an escaped exception, a
deadline overrun, or an exit code outside the 0/1 verdicts).
"""
from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

# Op lists are short enough for a 40 s run to repeat each op three to seven
# times: the runner takes each op's median over its repeats (see run.py).

# Both residues mod 6 across 61..105; the median op is among the three
# n = 75 ops (at three seeded pipeline seeds), not a single op.
BULK_SIZES = [61, 75, 75, 75, 105]
BULK_K4_N = 109      # the first n of the k = 4 reserve regime
BULK_K4_SEED = 0     # a fixed pipeline seed: see sts_bulk
# deadlines are in reference seconds (see run.calibrate)
BULK_DEADLINE_S = 3.0
LP_DEADLINE_S = 60.0
CLI_DEADLINE_S = 30.0
# nine ops of the list cost more than its op_tail_s, so the tail op is the
# middle of the oracle, verify and K_31 calls, which cost about the same
COVER_SIZES = [31, 45, 69, 75, 79]
COUNT_CAPS = ((7, 10 ** 6), (9, 10 ** 6), (13, 10 ** 3))
FM_CLIQUE_CAP = 12
# one cold call, then warm ones: the median op is among the warm calls
INTEGRAL_CALLS = 15
INTEGRAL_TRIANGLES = 6   # per seeded L: a fixed size keeps the cached calls alike
LP_PIPELINES = ((7, 1), (7, 2), (9, 1), (9, 2))   # (n, pipeline seed)
LP_SEEDED_SOLVES = 16   # K_8 less 3 random edges: the median and tail ops
STS_COUNTS = {7: 30, 9: 840}   # labelled Steiner triple systems of order n


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[tuple]]
    deadline_s: float
    cli: bool = False


class Mods:
    """absorbkit's modules, plus the originals of every function a check
    uses (captured before tracing wrappers replace the module bindings)."""

    def __init__(self, ak):
        self.pipeline = ak.pipeline
        self.fraclp = ak.fraclp
        self.cli = ak.cli
        self.integral = ak.integral
        self.Hypergraph = ak.hypercore.Hypergraph
        self.DesignParams = ak.divide.DesignParams
        self.read_graph = ak.hypercore.read_graph
        self.read_packing = ak.hypercore.read_packing
        self.write_graph = ak.hypercore.write_graph
        self.enumerate_cliques = ak.hypercore.enumerate_cliques
        self.decomposition_valid = ak.hypercore.decomposition_valid
        self.fm_feasible = ak.fraclp.fm_feasible
        self.verify_integral = ak.integral.verify_integral


# ------------------------------------------------------------ answer checks

def sts_problem(n: int, cliques) -> Optional[str]:
    """None iff the triples form a Steiner triple system on 0..n-1: n(n-1)/6
    proper triples whose n(n-1)/2 pairs are all distinct."""
    cliques = list(cliques)
    if len(cliques) != n * (n - 1) // 6:
        return f"{len(cliques)} triples, expected {n * (n - 1) // 6}"
    pairs = set()
    for c in cliques:
        if len(set(c)) != 3 or not all(0 <= v < n for v in c):
            return f"bad triple {c!r}"
        pairs.update(itertools.combinations(sorted(c), 2))
    if len(pairs) != n * (n - 1) // 2:
        return "some pair is covered twice"
    return None


def lp_problem(M: Mods, G, out, cap=None) -> Optional[str]:
    """Re-verify a solve_fractional outcome: a feasible weighting must sum to
    exactly 1 on every edge (within the cap); an infeasible verdict must
    carry a valid Farkas certificate.  Where the instance fits the
    vertex-enumeration oracle's cap, the verdict must also match it."""
    cliques = sorted(tuple(sorted(c)) for c in M.enumerate_cliques(G, 3))
    if len(cliques) <= FM_CLIQUE_CAP and out.feasible != M.fm_feasible(G, 3):
        return f"LP verdict {out.feasible} disagrees with fm_feasible"
    if out.feasible:
        sums = {e: Fraction(0) for e in G.edges}
        for c, w in out.weighting.psi.items():
            if w < 0 or (cap is not None and w > cap):
                return f"weight {w} on {c!r} outside [0, cap]"
            for e in itertools.combinations(c, 2):
                if e not in sums:
                    return f"clique {c!r} leaves the graph"
                sums[e] += w
        if any(s != 1 for s in sums.values()):
            return "edge sums differ from 1"
        return None
    y = dict(zip(out.rows, out.farkas))
    for c in cliques:
        col = sum(y.get(("edge", e), 0) for e in itertools.combinations(c, 2))
        if cap is not None:
            col += y.get(("cap", c), 0)
            if y.get(("cap", c), 0) > 0:    # the cap row's slack column
                return "Farkas certificate fails a slack column"
        if col > 0:
            return f"Farkas certificate fails the column of {c!r}"
    rhs = sum(v * (cap if label[0] == "cap" else 1) for label, v in y.items())
    if rhs <= 0:
        return "Farkas certificate fails the right-hand side"
    return None


# ------------------------------------------------------------------------ ops

def pipeline_op(M: Mods, n: int, seed: int, deadline_s: float,
                out_dir: Optional[str] = None) -> Op:
    """pipeline_steiner then verify_design, as one op."""
    def call():
        res = M.pipeline.pipeline_steiner(
            M.pipeline.PipelineConfig(n=n, seed=seed, out_dir=out_dir))
        report = M.pipeline.verify_design(res.decomposition, M.DesignParams(n, 3, 2, 1))
        return res, report

    def check(value):
        res, report = value
        problem = sts_problem(n, res.decomposition.cliques)
        if problem or not report["pass"]:
            return "wrong", problem or "verify_design rejects the output"
        if out_dir is not None:
            return lp_verdict_problem(M, res.report, os.path.join(out_dir, "J.graph"))
        return None
    return Op(f"pipeline_steiner n={n} seed={seed}", call, check, deadline_s)


def lp_verdict_problem(M: Mods, report: dict, j_path: str) -> Optional[tuple]:
    """The boost LP's verdict on J, checked against fm_feasible when J has
    at most FM_CLIQUE_CAP triangles."""
    boost = report["stages"]["boost"]
    if boost.get("skipped") == "clique count above the exact-LP budget":
        return None
    J = M.read_graph(j_path)
    if len(M.enumerate_cliques(J, 3)) > FM_CLIQUE_CAP:
        return None
    lp_feasible = boost.get("skipped") != "no fractional decomposition of J"
    if lp_feasible != M.fm_feasible(J, 3):
        return "wrong", f"boost LP verdict {lp_feasible} disagrees with fm_feasible"
    return None


def lp_op(M: Mods, label: str, G, cap=None) -> Op:
    def call():
        return M.fraclp.solve_fractional(G, 3, weight_cap=cap)

    def check(out):
        problem = lp_problem(M, G, out, cap)
        return ("wrong", problem) if problem else None
    return Op(f"solve_fractional {label}", call, check, LP_DEADLINE_S)


def run_cli(M: Mods, argv: list) -> tuple:
    """cli.main(argv) in-process; returns (exit code, stdout).  An argparse
    exit is an exit code; any other exception escapes, as it would from the
    console script."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = M.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def cli_op(M: Mods, argv: list, expect: int,
           verify: Optional[Callable[[str], Optional[str]]] = None) -> Op:
    def check(value):
        code, out = value
        if code != expect:
            kind = "wrong" if {code, expect} <= {0, 1} else "fail"
            return kind, f"exit {code}, expected {expect}"
        problem = verify(out) if verify else None
        return ("wrong", problem) if problem else None
    label = "absorb-kit " + " ".join(os.path.basename(a) if os.sep in a else a
                                     for a in argv)
    return Op(label, lambda: run_cli(M, argv), check, CLI_DEADLINE_S, cli=True)


def kv(out: str) -> dict:
    """The key=value fields of CLI output."""
    return dict(tok.split("=", 1) for tok in out.split() if "=" in tok)


# ----------------------------------------------------------------- workloads

def sts_bulk(M: Mods, seed: int, work: str) -> list:
    """The product where bulk packing dominates: one STS (at a seeded
    pipeline seed) per entry of BULK_SIZES, plus one at n = 109, the first
    size of the k = 4 reserve regime.

    The n = 109 op has a fixed pipeline seed.  Its embedding search hangs
    for most pipeline seeds and finishes in under 2 s for a few, so a
    seeded draw would make the run's failure count, and with it ok_ratio,
    op_tail_s and wall_s, a draw of the workload seed instead of a property
    of the program."""
    rng = random.Random(f"sts-bulk/{seed}")
    ops = [pipeline_op(M, n, rng.randrange(2 ** 31), BULK_DEADLINE_S) for n in BULK_SIZES]
    ops.append(pipeline_op(M, BULK_K4_N, BULK_K4_SEED, BULK_DEADLINE_S))
    rng.shuffle(ops)
    return ops


def sts_lp(M: Mods, seed: int, work: str) -> list:
    """The only regime where the exact LP runs: pipelines at n = 9 and 7,
    and standalone LP solves: K_10, K_7 with a weight cap, K_4 - e, and
    sixteen K_8 less three random edges.

    The workload seed draws the K_8-less-edges instances and the op order.
    The pipelines and the named instances are fixed: the exact LP's cost
    depends on an instance's labelling as much as on its shape (the boost
    LP of a pipeline at n = 9 runs or is skipped by pipeline seed, 0.07 s
    against 0.9 s), so seeding the few heavy ops would make a run as much a
    draw as a measurement.  The seeded instances are alike in shape and
    cost, and are the middle of the sorted op latencies, so the median and
    tail ops are among them whatever the seed."""
    rng = random.Random(f"sts-lp/{seed}")
    H = M.Hypergraph
    ops = []
    for n, pipeline_seed in LP_PIPELINES:
        out_dir = os.path.join(work, "out", f"pipeline-{n}-{pipeline_seed}")
        ops.append(pipeline_op(M, n, pipeline_seed, LP_DEADLINE_S, out_dir))
    ops.append(lp_op(M, "K_4-e", H(4, 2, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])))
    ops.append(lp_op(M, "K_10", H.complete(10, 2)))
    ops.append(lp_op(M, "K_7 cap=2/7", H.complete(7, 2), cap=Fraction(2, 7)))
    k8 = sorted(H.complete(8, 2).edges)
    for i in range(LP_SEEDED_SOLVES):
        gone = set(rng.sample(k8, 3))
        ops.append(lp_op(M, f"K_8-3e #{i}", H(8, 2, [e for e in k8 if e not in gone])))
    rng.shuffle(ops)
    return ops


def _disjoint_triangles(rng: random.Random, n: int, count: int) -> list:
    """`count` pairwise edge-disjoint random triangles on 0..n-1."""
    triples = list(itertools.combinations(range(n), 3))
    rng.shuffle(triples)
    used: set = set()
    chosen = []
    for t in triples:
        es = set(itertools.combinations(t, 2))
        if not es & used:
            chosen.append(t)
            used |= es
            if len(chosen) == count:
                break
    return chosen


def certify_cli(M: Mods, seed: int, work: str) -> list:
    """The certified-answer engines through the CLI: file I/O, exit codes,
    exhaustive search, counting, integral solves, gadgets, omni-absorbers,
    high-girth packing, the oracle and the parsers.  Graph files are written
    here, during set-up."""
    rng = random.Random(f"certify-cli/{seed}")
    H = M.Hypergraph
    indir = os.path.join(work, "in")
    outdir = os.path.join(work, "out")
    os.makedirs(indir, exist_ok=True)
    os.makedirs(outdir, exist_ok=True)

    def graph_file(name, G):
        path = os.path.join(indir, name)
        M.write_graph(G, path)
        return path

    def text_file(name, text):
        path = os.path.join(indir, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def sts_pack(n):
        def verify(out):
            P = M.read_packing(os.path.join(outdir, f"K{n}.pack"))
            if P.host.n != n or P.host.m != n * (n - 1) // 2:
                return "the packing's host is not K_n"
            return sts_problem(n, P.cliques)
        return verify

    ops = []
    # exhaustive first-solution search, answers read back and verified
    for n in COVER_SIZES:
        g = graph_file(f"K{n}.graph", H.complete(n, 2))
        ops.append(cli_op(M, ["cover", "solve", g, "--out",
                              os.path.join(outdir, f"K{n}.pack")], 0, sts_pack(n)))
    # exhaustive counting next to first-solution search
    for n, cap in COUNT_CAPS:
        g = graph_file(f"K{n}.graph", H.complete(n, 2))
        want = {"count": str(STS_COUNTS.get(n, cap)),
                "overflow": str(n not in STS_COUNTS)}
        ops.append(cli_op(M, ["cover", "solve", g, "--count", str(cap)], 0,
                          lambda out, want=want: None if kv(out) == want
                          else f"got {kv(out)}, expected {want}"))
    # certified negatives
    for n in (8, 10):
        g = graph_file(f"K{n}.graph", H.complete(n, 2))
        ops.append(cli_op(M, ["cover", "solve", g], 1,
                          lambda out: None if out.startswith("NONE") else "no NONE line"))
    # integral solves: the first call at n = 15 is cold, the rest are cached
    for i in range(INTEGRAL_CALLS):
        L = H(15, 2, [e for t in _disjoint_triangles(rng, 15, INTEGRAL_TRIANGLES)
                      for e in itertools.combinations(t, 2)])
        g = graph_file(f"L15-{i}.graph", L)
        w = os.path.join(outdir, f"L15-{i}.weights")
        argv = ["integral", "solve", g, "--out", w] + (["--reduce"] if i == 1 else [])
        ops.append(cli_op(M, argv, 0, lambda out, L=L, w=w: _integral_problem(M, L, w)))
    # gadgets and omni-absorbers, with their certificates read back
    labels = rng.sample(range(8), 6)
    t1, t2 = tuple(sorted(labels[:3])), tuple(sorted(labels[3:]))
    t3 = tuple(sorted((t1[0], t2[0], t2[1])))
    triangle = list(itertools.combinations(t1, 2))
    bowtie = triangle + list(itertools.combinations(t3, 2))
    for name, edges in (("triangle", triangle), ("bowtie", bowtie)):
        L = H(8, 2, edges)
        g = graph_file(f"{name}.graph", L)
        d = os.path.join(outdir, f"absorber-{name}")
        ops.append(cli_op(M, ["gadget", "absorber", g, "--out", d], 0,
                          lambda out, L=L, d=d: _absorber_problem(M, L, d)))
    cert1d = os.path.join(outdir, "omni-1d")
    ops.append(cli_op(M, ["omni", "build-1d", "--m", "6", "--out", cert1d], 0))
    ops.append(cli_op(M, ["omni", "verify", cert1d], 0, _omni_verified))
    X = H(8, 2, [e for t in (t1, t2) for e in itertools.combinations(t, 2)])
    xg = graph_file("X.graph", X)
    cert_small = os.path.join(outdir, "omni-small")
    ops.append(cli_op(M, ["omni", "build-small", "--graph", xg, "--out", cert_small], 0))
    ops.append(cli_op(M, ["omni", "verify", cert_small], 0, _omni_verified))
    # high-girth packing next to the plain greedy of the pipeline workloads
    ops.append(cli_op(M, ["nibble", "highgirth", "--n", "40", "--g", "4",
                          "--seed", str(rng.randrange(2 ** 31))], 0, _highgirth_problem))
    # the deterministic oracle and the standalone verifier
    o99 = os.path.join(outdir, "o99.pack")
    ops.append(cli_op(M, ["oracle", "--n", "99", "--out", o99], 0,
                      lambda out: sts_problem(99, M.read_packing(o99).cliques)))
    ops.append(cli_op(M, ["verify", o99], 0,
                      lambda out: None if kv(out).get("pass") == "True" else "pass!=True"))
    # divisibility verdicts on random graphs and design parameters
    for i in range(4):
        n = rng.randint(6, 12)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        if i % 2 == 0:   # make it divisible: union of edge-disjoint triangles
            edges = [e for t in _disjoint_triangles(rng, n, rng.randint(1, 4))
                     for e in itertools.combinations(t, 2)]
        g = graph_file(f"div-{i}.graph", H(n, 2, edges))
        deg = [0] * n
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        divisible = len(edges) % 3 == 0 and all(d % 2 == 0 for d in deg)
        ops.append(cli_op(M, ["divide", "check", g], 0 if divisible else 1))
    for n in rng.sample(range(20, 200), 2):
        ops.append(cli_op(M, ["divide", "check", "--params", f"{n},3,2,1"],
                          0 if n % 6 in (1, 3) else 1))
    # malformed inputs: each must exit 3
    n = rng.randint(5, 9)
    (u, v), (x, y) = rng.sample(list(itertools.combinations(range(n), 2)), 2)
    bad = {
        "header.graph": f"2 {n} x\n{u} {v}\n",
        "range.graph": f"2 {n} 1\n{u} {n + rng.randint(0, 5)}\n",
        "duplicate.graph": f"2 {n} 2\n{u} {v}\n{u} {v}\n",
        "missing.graph": f"2 {n} 3\n{u} {v}\n",
        "trailing.graph": f"2 {n} 1\n{u} {v}\n{x} {y}\n",
    }
    for name, text in bad.items():
        ops.append(cli_op(M, ["divide", "check", text_file(name, text)], 3))
    ops.append(cli_op(M, ["divide", "check", os.path.join(indir, "absent.graph")], 3))
    ops.append(cli_op(M, ["divide", "check", "--params", "19,3,2"], 3))
    return ops


def _integral_problem(M: Mods, L, path: str) -> Optional[str]:
    phi = {}
    with open(path) as fh:
        for line in fh:
            w, *c = line.split()
            phi[tuple(int(t) for t in c)] = int(w)
    return None if M.verify_integral(L, phi) else "weighting fails verify_integral"


def _absorber_problem(M: Mods, L, d: str) -> Optional[str]:
    A = M.read_graph(os.path.join(d, "A.graph"))
    AL = M.read_graph(os.path.join(d, "AL.graph"))
    if A.edges & L.edges or AL.edges != A.edges | L.edges:
        return "absorber files do not match A and A u L"
    for pack, target in (("D1.pack", AL), ("D2.pack", A)):
        P = M.read_packing(os.path.join(d, pack))
        if not M.decomposition_valid(target, P.cliques, 3):
            return f"{pack} is not a triangle decomposition"
    return None


def _omni_verified(out: str) -> Optional[str]:
    info = kv(out)
    if info.get("failures") != "0" or int(info.get("checked", 0)) < 1:
        return f"omni verify reported {info}"
    return None


def _highgirth_problem(out: str) -> Optional[str]:
    info = kv(out)
    if 3 * int(info["packed"]) + int(info["leftover"]) != 40 * 39 // 2:
        return "packed and leftover edges do not add up to e(K_40)"
    if not float(info["girth_check"]) > 4:
        return f"girth {info['girth_check']} <= 4"
    return None


WORKLOADS = {"sts-bulk": sts_bulk, "sts-lp": sts_lp, "certify-cli": certify_cli}
