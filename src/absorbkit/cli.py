"""absorb-kit command line interface.

Exit codes: 0 success, 1 verified-negative, 2 budget/capacity exhausted,
3 parameter or input error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache, partial

from .divide import (DesignParams, admissibility_report, is_divisible,
                     params_admissible)
from .errors import (AbsorbKitError, BudgetError, CapacityError,
                     ParameterError, ParseError)
from .exactcover import DEFAULT_BUDGET, count_decompositions, find_decomposition
from .fraclp import boost_sample, inheritance_stats, solve_fractional
from .gadgets import (anti_edge, build_absorber, fake_edge, find_booster,
                      lift_booster_q3, rooted_degeneracy, trivial_booster_1d)
from .hypercore import (Hypergraph, Packing, read_graph, read_packing,
                        write_graph, write_packing)
from .nibble import (NibbleParams, complete_with_reserves, configurations,
                     generate_reserves, girth, high_girth_pack,
                     random_greedy_pack, spread_estimate)
from .omni import (omni_1d, omni_small, read_certificate, refinedness,
                   verify_omni, write_certificate)
from .pipeline import (PipelineConfig, oracle_steiner, pipeline_steiner,
                       verify_design)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BUDGET = 2
EXIT_PARAMETER = 3


def _parse_ids(text: str) -> tuple:
    try:
        return tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError:
        raise ParameterError(f"expected integer vertex ids, got {text!r}") from None


def _parse_fraction(text: str, option: str) -> Fraction:
    """A nonnegative rational option value such as 2/7, checked while the
    command line is parsed, before any work starts."""
    try:
        x = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"{option} expects a rational such as 2/7, got {text!r}") from None
    if x < 0:
        raise ParameterError(f"{option} must be nonnegative, got {text!r}")
    return x


def _need(value, message: str) -> None:
    if not value:
        raise ParameterError(message)


def _host_or_complete(args) -> Hypergraph:
    if getattr(args, "graph", None):
        return read_graph(args.graph).simple()
    return Hypergraph.complete(args.n, args.r)


def _emit(data: dict, as_json: bool):
    if as_json:
        print(json.dumps(data, sort_keys=True, default=str))
    else:
        for k, v in data.items():
            print(f"{k}={v}")


# --------------------------------------------------------------- divide ----

def cmd_divide_check(args) -> int:
    if args.params:
        try:
            n, q, r, lam = (int(t) for t in args.params.split(","))
        except ValueError:
            raise ParameterError(
                f"--params expects four integers n,q,r,lam, got {args.params!r}") from None
        p = DesignParams(n, q, r, lam)
        rows = admissibility_report(p)
        for row in rows:
            print(f"i={row['i']} divisor={row['divisor']} value={row['value']} "
                  f"ok={row['ok']}")
        return EXIT_OK if params_admissible(p) else EXIT_NEGATIVE
    _need(args.graph, "divide check needs a graph file or --params n,q,r,lam")
    G = read_graph(args.graph)
    ok = is_divisible(G, args.q)
    _emit({"divisible": ok}, args.json)
    return EXIT_OK if ok else EXIT_NEGATIVE


# ---------------------------------------------------------------- cover ----

def cmd_cover_solve(args) -> int:
    G = read_graph(args.graph)
    if args.count is not None:
        cnt, overflow = count_decompositions(G, args.q, cap=args.count,
                                             budget=args.budget)
        _emit({"count": cnt, "overflow": overflow}, args.json)
        return EXIT_OK
    D = find_decomposition(G, args.q, budget=args.budget)
    if D is None:
        print("NONE (exhaustive)")
        return EXIT_NEGATIVE
    if args.out:
        write_packing(D, args.out, os.path.relpath(args.graph, os.path.dirname(args.out) or "."))
        print(f"decomposition={args.out} cliques={len(D)}")
    else:
        for c in D:
            print(" ".join(map(str, c)))
    return EXIT_OK


# -------------------------------------------------------------- integral ----

def cmd_integral_solve(args) -> int:
    from .integral import integral_decomposition
    G = read_graph(args.graph)
    phi = integral_decomposition(G, args.q, reduce_support=args.reduce)
    if phi is None:
        print("NONE (integrally infeasible)")
        return EXIT_NEGATIVE
    lines = [f"{w:+d} " + " ".join(map(str, c)) for c, w in sorted(phi.items())]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        print(f"weighting={args.out} support={len(lines)}")
    else:
        for ln in lines:
            print(ln)
    return EXIT_OK


# ---------------------------------------------------------------- gadget ----

def cmd_gadget(args) -> int:
    if args.kind in ("anti", "fake"):
        _need(args.edge, f"gadget {args.kind} needs --edge <ids>")
        e = _parse_ids(args.edge)
        g = anti_edge(e, args.q) if args.kind == "anti" else fake_edge(e, args.q)
        print(f"kind={args.kind} roots={','.join(map(str, g.roots))} "
              f"edges={g.W.m} fresh={len(g.fresh_vertices())}")
        if g.W.r == 2:
            print(f"rooted_degeneracy={rooted_degeneracy(g)}")
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            write_graph(g.W, os.path.join(args.out, f"{args.kind}.graph"))
        return EXIT_OK
    if args.kind == "booster":
        if args.search:
            _need(args.host, "gadget booster --search needs --host <graph>")
            host = read_graph(args.host)
            b = find_booster(args.q, args.r, host, budget=args.budget)
            if b is None:
                print("NONE (exhaustive)")
                return EXIT_NEGATIVE
        elif args.r == 1:
            b = trivial_booster_1d(args.q)
        elif (args.q, args.r) == (3, 2):
            b = lift_booster_q3()
        else:
            raise ParameterError("direct boosters: r=1 any q, or (q, r) = (3, 2); "
                                 "use --search with --host otherwise")
        print(f"vertices={b.B.n} edges={b.B.m} on={len(b.B_on)} off={len(b.B_off)} "
              f"disjoint={not set(b.B_on.cliques) & set(b.B_off.cliques)}")
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            write_graph(b.B, os.path.join(args.out, "booster.graph"))
            write_packing(b.B_on, os.path.join(args.out, "on.pack"), "booster.graph")
            write_packing(b.B_off, os.path.join(args.out, "off.pack"), "booster.graph")
        return EXIT_OK
    if args.kind == "absorber":
        _need(args.graph, "gadget absorber needs a graph file")
        L = read_graph(args.graph)
        cert = build_absorber(L, args.q)
        print(f"A_edges={cert.A.m} D1={len(cert.D1)} D2={len(cert.D2)} "
              f"edge_intersecting={cert.edge_intersecting} verified=True")
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            write_graph(cert.A, os.path.join(args.out, "A.graph"))
            al = Hypergraph(cert.A.n, cert.A.r, set(cert.A.edges) | set(L.edges))
            write_graph(al, os.path.join(args.out, "AL.graph"))
            write_packing(cert.D1, os.path.join(args.out, "D1.pack"), "AL.graph")
            write_packing(cert.D2, os.path.join(args.out, "D2.pack"), "A.graph")
        return EXIT_OK
    raise ParameterError(f"unknown gadget kind {args.kind!r}")


# ----------------------------------------------------------------- omni ----

def cmd_omni(args) -> int:
    if args.action in ("build-1d", "build-small") and not args.out:
        raise ParameterError("build actions need --out <certificate-dir>")
    if args.action == "build-1d":
        X = Hypergraph(args.m, 1, [(i,) for i in range(args.m)])
        cert = omni_1d(X, args.q)
        write_certificate(cert, args.out)
        print(f"certificate={args.out} family={len(cert.family)} C={cert.C}")
        return EXIT_OK
    if args.action == "build-small":
        if not args.graph:
            raise ParameterError("build-small needs --graph <X-file>")
        X = read_graph(args.graph)
        cert = omni_small(X, args.q)
        write_certificate(cert, args.out)
        print(f"certificate={args.out} family={len(cert.family)} C={cert.C} "
              f"A_edges={cert.A.m}")
        return EXIT_OK
    if not args.certdir:
        raise ParameterError(f"{args.action} needs a certificate directory")
    cert = read_certificate(args.certdir)
    if args.action == "verify":
        report = verify_omni(cert, mode=args.mode, trials=args.trials,
                             seed=args.seed)
        print(f"checked={report['checked']} failures={len(report['failures'])}")
        for f in report["failures"]:
            print(f"FAIL L={f['L']} error={f['error']}")
        return EXIT_OK if not report["failures"] else EXIT_NEGATIVE
    if args.action == "refinedness":
        print(f"refinedness={refinedness(cert)} claimed_C={cert.C}")
        return EXIT_OK
    raise ParameterError(f"unknown omni action {args.action!r}")


# ---------------------------------------------------------------- embed ----

def cmd_embed(args) -> int:
    from .embed import SupergraphSystem, embed_system
    from .gadgets import RootedGadget
    host = read_graph(args.host)
    base_dir = os.path.dirname(os.path.abspath(args.system))
    J = None
    H_family, gadgets = [], []
    with open(args.system) as fh:
        for line_no, line in enumerate(fh, 1):
            toks = line.split()
            if not toks:
                continue
            if toks[0] == "base" and len(toks) == 2:
                if J is not None:
                    raise ParseError(line_no, "a second 'base' line")
                J = read_graph(os.path.join(base_dir, toks[1]))
            elif toks[0] == "gadget" and len(toks) == 4:
                W = read_graph(os.path.join(base_dir, toks[1]))
                H = read_graph(os.path.join(base_dir, toks[2]))
                roots = _parse_ids(toks[3])
                H_family.append(H.simple())
                gadgets.append(RootedGadget(W=W.simple(), roots=roots))
            else:
                raise ParseError(line_no, "expected 'base <graph>' or "
                                 f"'gadget <W> <H> <roots>', got {line.strip()!r}")
    if J is None:
        raise ParameterError("system manifest needs a 'base <graph>' line")
    J = J.multi() if isinstance(J, Hypergraph) else J
    sys_ = SupergraphSystem(J=J, H_family=H_family, gadgets=gadgets)
    emb = embed_system(sys_, host, degree_budget=args.budget, seed=args.seed)
    if emb is None:
        print("NONE (retry cap exhausted)")
        return EXIT_NEGATIVE
    print(f"image_edges={emb.image.m} gadgets={len(gadgets)}")
    if args.out:
        write_graph(emb.image, args.out)
    return EXIT_OK


# ------------------------------------------------------------------- lp ----

def cmd_lp(args) -> int:
    if args.action == "solve":
        G = read_graph(args.graph)
        out = solve_fractional(G, args.q, weight_cap=args.cap)
        if not out.feasible:
            print("INFEASIBLE (Farkas certificate verified)")
            return EXIT_NEGATIVE
        lines = [f"{w} " + " ".join(map(str, c))
                 for c, w in sorted(out.weighting.psi.items())]
        if args.out:
            with open(args.out, "w") as fh:
                fh.write("\n".join(lines) + ("\n" if lines else ""))
            print(f"weighting={args.out} support={len(lines)}")
        else:
            for ln in lines:
                print(ln)
        return EXIT_OK
    if args.action == "boost":
        G = read_graph(args.graph)
        out = solve_fractional(G, args.q)
        if not out.feasible:
            print("INFEASIBLE (no weighting to sample)")
            return EXIT_NEGATIVE
        fam = boost_sample(out.weighting, multiplier=args.multiplier, seed=args.seed)
        _emit({"family": len(fam.cliques), "c_hat": fam.c_hat,
               "gamma_hat": fam.gamma_hat, "clamped": fam.clamped}, args.json)
        return EXIT_OK
    if args.action == "inherit":
        G = read_graph(args.graph)
        M = _parse_ids(args.members) if args.members else ()
        frac = args.threshold
        stats = inheritance_stats(G.simple(), s=args.s, m=len(M), M=M,
                                  trials=args.trials, seed=args.seed,
                                  threshold=lambda s: frac * (s - 1))
        _emit(stats, args.json)
        return EXIT_OK
    raise ParameterError(f"unknown lp action {args.action!r}")


# --------------------------------------------------------------- nibble ----

def cmd_nibble(args) -> int:
    stats: dict = {}
    code = EXIT_OK
    if args.action == "run":
        G = _host_or_complete(args)
        P, left = random_greedy_pack(G, args.q, NibbleParams(
            bite=args.bite, seed=args.seed))
        stats = {"packed": len(P), "leftover": left.m, "edges": G.m,
                 "leftover_fraction": left.m / G.m if G.m else 0.0}
        if args.out:
            gpath = args.out + ".host.graph"
            write_graph(G, gpath)
            write_packing(P, args.out, os.path.basename(gpath))
    elif args.action == "reserve":
        rs = generate_reserves(args.n, args.q, args.r, args.p, seed=args.seed)
        stats = {"X_edges": rs.X.m, **{k: v for k, v in rs.flags.items()}}
    elif args.action == "complete":
        _need(args.graph and args.reserves,
              "nibble complete needs --graph <graph> and --reserves <graph>")
        G = read_graph(args.graph).simple()
        X = read_graph(args.reserves).simple()
        partial = read_packing(args.packing) if args.packing else Packing(G, [], q=args.q)
        out = complete_with_reserves(G, X, partial, args.q, seed=args.seed,
                                     stats=stats)
        if out is None:
            stats["completed"] = False
            code = EXIT_NEGATIVE
        else:
            stats.update(completed=True, cliques=len(out))
    elif args.action == "highgirth":
        G = _host_or_complete(args)
        P, left = high_girth_pack(G, args.q, args.g, NibbleParams(seed=args.seed))
        stats = {"packed": len(P), "leftover": left.m,
                 "coverage": 1 - left.m / G.m if G.m else 1.0,
                 "girth_check": str(girth(P.cliques, args.q, G.r, g_max=args.g))}
    elif args.action == "girth":
        _need(args.packing, "nibble girth needs --packing <file>")
        P = read_packing(args.packing)
        g = girth(P.cliques, args.q, args.r, g_max=args.gmax)
        cnt4, _ = configurations(P.cliques, 2, 4)
        stats = {"girth": str(g), "config_4_2": cnt4}
    elif args.action == "spread":
        from .exactcover import enumerate_decompositions
        host = Hypergraph.complete(args.n, 2)
        if args.exact:
            sols = enumerate_decompositions(host, args.q)
            res = spread_estimate(None, [1], trials=0, exact_decompositions=sols)
        else:
            def sampler(seed):
                P, left = random_greedy_pack(host, args.q, NibbleParams(seed=seed))
                return list(P.cliques) if left.m == 0 else None
            res = spread_estimate(sampler, [1], trials=args.trials, seed=args.seed)
        stats = {f"sigma_hat_{s}": r["sigma_hat"] for s, r in res.items()}
    else:
        raise ParameterError(f"unknown nibble action {args.action!r}")
    _emit(stats, args.json)
    if args.json_stats:
        with open(args.json_stats, "w") as fh:
            json.dump(stats, fh, indent=2, sort_keys=True, default=str)
    return code


# ------------------------------------------------------------- pipeline ----

def _load_config(path: str) -> dict:
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


def cmd_pipeline(args) -> int:
    kwargs: dict = {}
    if args.config:
        raw = _load_config(args.config)
        casts = {"n": int, "seed": int, "hill_climb_rounds": int, "out_dir": str}
        for k, v in raw.items():
            if k not in casts:
                raise ParameterError(f"unknown config key {k!r}")
            try:
                kwargs[k] = casts[k](v)
            except ValueError:
                raise ParameterError(f"config key {k!r}: bad value {v!r}") from None
    if args.n is not None:
        kwargs["n"] = args.n
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.out:
        kwargs["out_dir"] = args.out
    if "n" not in kwargs:
        raise ParameterError("pipeline needs --n or a config file with n=")
    res = pipeline_steiner(PipelineConfig(**kwargs))
    if args.json:
        print(json.dumps(res.report, sort_keys=True, default=str))
    else:
        print(f"n={res.report['n']} triples={res.report['triples']} "
              f"route={res.report['route']} verified=True")
    return EXIT_OK


def cmd_oracle(args) -> int:
    D = oracle_steiner(args.n)
    if args.out:
        host_path = args.out + ".host.graph"
        write_graph(Hypergraph.complete(args.n, 2), host_path)
        write_packing(D, args.out, os.path.basename(host_path))
        print(f"packing={args.out} triples={len(D)}")
    else:
        for c in D:
            print(" ".join(map(str, c)))
    return EXIT_OK


def cmd_verify(args) -> int:
    P = read_packing(args.packing)
    params = DesignParams(P.host.n, P.q, P.host.r, args.lam)
    report = verify_design(P, params)
    _emit({"pass": report["pass"], "bad_subsets": report["bad_subsets"],
           "cliques": report["cliques"],
           "expected_cliques": report["expected_cliques"]}, args.json)
    return EXIT_OK if report["pass"] else EXIT_NEGATIVE


# ----------------------------------------------------------------- main ----

class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParameterError (exit 3) instead of exiting 2,
    which is the budget code; subparsers inherit the class."""

    def error(self, message):
        raise ParameterError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="absorb-kit")
    sub = ap.add_subparsers(dest="group", required=True)

    d = sub.add_parser("divide").add_subparsers(dest="action", required=True)
    dc = d.add_parser("check")
    dc.add_argument("graph", nargs="?")
    dc.add_argument("--q", type=int, default=3)
    dc.add_argument("--params")
    dc.add_argument("--json", action="store_true")
    dc.set_defaults(func=cmd_divide_check)

    c = sub.add_parser("cover").add_subparsers(dest="action", required=True)
    cs = c.add_parser("solve")
    cs.add_argument("graph")
    cs.add_argument("--q", type=int, default=3)
    cs.add_argument("--count", type=int)
    cs.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    cs.add_argument("--out")
    cs.add_argument("--json", action="store_true")
    cs.set_defaults(func=cmd_cover_solve)

    i = sub.add_parser("integral").add_subparsers(dest="action", required=True)
    isv = i.add_parser("solve")
    isv.add_argument("graph")
    isv.add_argument("--q", type=int, default=3)
    isv.add_argument("--reduce", action="store_true")
    isv.add_argument("--out")
    isv.set_defaults(func=cmd_integral_solve)

    g = sub.add_parser("gadget")
    g.add_argument("kind", choices=["anti", "fake", "booster", "absorber"])
    g.add_argument("graph", nargs="?")
    g.add_argument("--edge")
    g.add_argument("--q", type=int, default=3)
    g.add_argument("--r", type=int, default=2)
    g.add_argument("--search", action="store_true")
    g.add_argument("--host")
    g.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    g.add_argument("--out")
    g.set_defaults(func=cmd_gadget)

    o = sub.add_parser("omni")
    o.add_argument("action", choices=["build-1d", "build-small", "verify", "refinedness"])
    o.add_argument("certdir", nargs="?")
    o.add_argument("--graph")
    o.add_argument("--m", type=int, default=6)
    o.add_argument("--q", type=int, default=3)
    o.add_argument("--mode", default="exhaustive", choices=["exhaustive", "sample"])
    o.add_argument("--trials", type=int, default=100)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--out")
    o.set_defaults(func=cmd_omni)

    e = sub.add_parser("embed")
    e.add_argument("--system", required=True)
    e.add_argument("--host", required=True)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--budget", type=int)
    e.add_argument("--out")
    e.set_defaults(func=cmd_embed)

    lp = sub.add_parser("lp")
    lp.add_argument("action", choices=["solve", "boost", "inherit"])
    lp.add_argument("graph")
    lp.add_argument("--q", type=int, default=3)
    lp.add_argument("--cap", type=partial(_parse_fraction, option="--cap"))
    lp.add_argument("--multiplier", type=partial(_parse_fraction, option="--multiplier"))
    lp.add_argument("--s", type=int, default=20)
    lp.add_argument("--members")
    lp.add_argument("--threshold", type=float, default=0.0)
    lp.add_argument("--trials", type=int, default=100)
    lp.add_argument("--seed", type=int, default=0)
    lp.add_argument("--out")
    lp.add_argument("--json", action="store_true")
    lp.set_defaults(func=cmd_lp)

    nb = sub.add_parser("nibble")
    nb.add_argument("action", choices=["run", "reserve", "complete",
                                       "highgirth", "girth", "spread"])
    nb.add_argument("--graph")
    nb.add_argument("--packing")
    nb.add_argument("--reserves")
    nb.add_argument("--n", type=int, default=0)
    nb.add_argument("--q", type=int, default=3)
    nb.add_argument("--r", type=int, default=2)
    nb.add_argument("--p", type=float, default=0.3)
    nb.add_argument("--g", type=int, default=4)
    nb.add_argument("--gmax", type=int, default=6)
    nb.add_argument("--bite", type=float, default=1.0)
    nb.add_argument("--seed", type=int, default=0)
    nb.add_argument("--trials", type=int, default=100)
    nb.add_argument("--exact", action="store_true")
    nb.add_argument("--out")
    nb.add_argument("--json", action="store_true")
    nb.add_argument("--json-stats", dest="json_stats")
    nb.set_defaults(func=cmd_nibble)

    pl = sub.add_parser("pipeline")
    pl.add_argument("--n", type=int)
    pl.add_argument("--seed", type=int)
    pl.add_argument("--config")
    pl.add_argument("--out")
    pl.add_argument("--json", action="store_true")
    pl.set_defaults(func=cmd_pipeline)

    orc = sub.add_parser("oracle")
    orc.add_argument("--n", type=int, required=True)
    orc.add_argument("--out")
    orc.set_defaults(func=cmd_oracle)

    v = sub.add_parser("verify")
    v.add_argument("packing")
    v.add_argument("--lam", type=int, default=1)
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)

    return ap


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser tree, built once per process: parsing keeps no state on
    it, and building it costs far more than a parse."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (BudgetError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (AbsorbKitError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER


if __name__ == "__main__":
    sys.exit(main())
