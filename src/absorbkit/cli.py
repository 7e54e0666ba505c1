"""absorb-kit command line interface.

Exit codes: 0 success, 1 verified-negative, 2 budget/capacity exhausted or
a sampler that failed too often, 3 parameter or input error.
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
                     ParameterError, ParseError, ReliabilityError)
from .exactcover import DEFAULT_BUDGET, count_decompositions, find_decomposition
from .fraclp import boost_sample, inheritance_stats, solve_fractional
from .gadgets import (anti_edge, build_absorber, fake_edge, find_booster,
                      lift_booster_q3, rooted_degeneracy, trivial_booster_1d)
from .hypercore import (Hypergraph, MultiHypergraph, Packing, read_graph,
                        read_key_values, read_packing, require_simple, write_graph,
                        write_packing)
from .nibble import (complete_with_reserves, configurations, generate_reserves,
                     girth, high_girth_pack, random_greedy_pack, spread_estimate)
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


def _conditional_options(args, holds: bool, condition: str, *options: str) -> None:
    """Options that an action reads only under `condition` default to None
    in its subparser.  Given where the condition fails, they are a
    ParameterError; left out where it holds, they take their _OPTIONS
    defaults."""
    for opt in options:
        dest = opt[2:].replace("-", "_")
        if getattr(args, dest) is None:
            setattr(args, dest, _OPTIONS[opt].get("default"))
        elif not holds:
            raise ParameterError(f"{opt} is read only {condition}")


def _emit(data: dict, as_json: bool):
    if as_json:
        print(json.dumps(data, sort_keys=True, default=str))
    else:
        for k, v in data.items():
            print(f"{k}={v}")


def _write_lines(lines: list, out) -> None:
    """A weighting, one clique a line: to the file `out` with a summary
    line, or else to stdout."""
    if out:
        with open(out, "w") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        print(f"weighting={out} support={len(lines)}")
    else:
        for ln in lines:
            print(ln)


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
    G = read_graph(args.graph)
    ok = is_divisible(G, args.q)
    _emit({"divisible": ok}, args.json)
    return EXIT_OK if ok else EXIT_NEGATIVE


# ---------------------------------------------------------------- cover ----

def cmd_cover_solve(args) -> int:
    if args.count is not None and args.out:
        raise ParameterError("--out writes a decomposition, which --count does not find")
    if args.json and args.count is None:
        raise ParameterError("--json formats the --count report only")
    G = read_graph(args.graph)
    if args.out and isinstance(G, MultiHypergraph):
        raise ParameterError("--out writes a packing file, which holds each edge once; "
                             f"{args.graph} is a multigraph")
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
    _write_lines([f"{w:+d} " + " ".join(map(str, c)) for c, w in sorted(phi.items())],
                 args.out)
    return EXIT_OK


# ---------------------------------------------------------------- gadget ----

def cmd_gadget_edge(args, kind: str, build) -> int:
    g = build(args.edge, args.q)
    print(f"kind={kind} roots={','.join(map(str, g.roots))} "
          f"edges={g.W.m} fresh={len(g.fresh_vertices())}")
    if g.W.r == 2:
        print(f"rooted_degeneracy={rooted_degeneracy(g)}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_graph(g.W, os.path.join(args.out, f"{kind}.graph"))
    return EXIT_OK


def cmd_gadget_booster(args) -> int:
    _conditional_options(args, bool(args.host), "with --host", "--budget")
    if args.host:
        b = find_booster(args.q, args.r, read_graph(args.host), budget=args.budget)
        if b is None:
            print("NONE (exhaustive)")
            return EXIT_NEGATIVE
    elif args.r == 1:
        b = trivial_booster_1d(args.q)
    elif (args.q, args.r) == (3, 2):
        b = lift_booster_q3()
    else:
        raise ParameterError("direct boosters: r=1 any q, or (q, r) = (3, 2); "
                             "give --host <graph> to search otherwise")
    print(f"vertices={b.B.n} edges={b.B.m} on={len(b.B_on)} off={len(b.B_off)} "
          f"disjoint={not set(b.B_on.cliques) & set(b.B_off.cliques)}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_graph(b.B, os.path.join(args.out, "booster.graph"))
        write_packing(b.B_on, os.path.join(args.out, "on.pack"), "booster.graph")
        write_packing(b.B_off, os.path.join(args.out, "off.pack"), "booster.graph")
    return EXIT_OK


def cmd_gadget_absorber(args) -> int:
    L = read_graph(args.graph)
    cert = build_absorber(L, args.q)
    print(f"A_edges={cert.A.m} D1={len(cert.D1)} D2={len(cert.D2)} "
          f"edge_intersecting={cert.edge_intersecting} verified=True")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_graph(cert.A, os.path.join(args.out, "A.graph"))
        write_graph(cert.D1.target, os.path.join(args.out, "AL.graph"))
        write_packing(cert.D1, os.path.join(args.out, "D1.pack"), "AL.graph")
        write_packing(cert.D2, os.path.join(args.out, "D2.pack"), "A.graph")
    return EXIT_OK


# ----------------------------------------------------------------- omni ----

def cmd_omni_build_1d(args) -> int:
    X = Hypergraph(args.m, 1, [(i,) for i in range(args.m)])
    cert = omni_1d(X, args.q)
    write_certificate(cert, args.out)
    print(f"certificate={args.out} family={len(cert.family)} C={cert.C}")
    return EXIT_OK


def cmd_omni_build_small(args) -> int:
    cert = omni_small(read_graph(args.graph), args.q)
    write_certificate(cert, args.out)
    print(f"certificate={args.out} family={len(cert.family)} C={cert.C} "
          f"A_edges={cert.A.m}")
    return EXIT_OK


def cmd_omni_verify(args) -> int:
    _conditional_options(args, args.mode == "sample", "with --mode sample",
                         "--trials", "--seed")
    report = verify_omni(read_certificate(args.certdir), mode=args.mode,
                         trials=args.trials, seed=args.seed)
    print(f"checked={report['checked']} failures={len(report['failures'])}")
    for f in report["failures"]:
        print(f"FAIL L={f['L']} error={f['error']}")
    return EXIT_OK if not report["failures"] else EXIT_NEGATIVE


def cmd_omni_refinedness(args) -> int:
    cert = read_certificate(args.certdir)
    print(f"refinedness={refinedness(cert)} claimed_C={cert.C}")
    return EXIT_OK


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
                W = require_simple(read_graph(os.path.join(base_dir, toks[1])), "a gadget's W")
                H = require_simple(read_graph(os.path.join(base_dir, toks[2])), "a gadget's H")
                roots = _parse_ids(toks[3])
                H_family.append(H)
                gadgets.append(RootedGadget(W=W, roots=roots))
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

def cmd_lp_solve(args) -> int:
    out = solve_fractional(read_graph(args.graph), args.q, weight_cap=args.cap)
    if not out.feasible:
        print("INFEASIBLE (Farkas certificate verified)")
        return EXIT_NEGATIVE
    _write_lines([f"{w} " + " ".join(map(str, c))
                  for c, w in sorted(out.weighting.psi.items())], args.out)
    return EXIT_OK


def cmd_lp_boost(args) -> int:
    out = solve_fractional(read_graph(args.graph), args.q)
    if not out.feasible:
        print("INFEASIBLE (no weighting to sample)")
        return EXIT_NEGATIVE
    fam = boost_sample(out.weighting, multiplier=args.multiplier, seed=args.seed)
    _emit({"family": len(fam.cliques), "c_hat": fam.c_hat,
           "gamma_hat": fam.gamma_hat, "clamped": fam.clamped}, args.json)
    return EXIT_OK


def cmd_lp_inherit(args) -> int:
    G = require_simple(read_graph(args.graph), "an inheritance sampling host")
    stats = inheritance_stats(G, s=args.s, M=args.members, trials=args.trials,
                              seed=args.seed, threshold=args.threshold)
    _emit(stats, args.json)
    return EXIT_OK


# --------------------------------------------------------------- nibble ----

def _report(args, stats: dict, code: int = EXIT_OK) -> int:
    """Print a nibble action's stats, and write them to --json-stats."""
    _emit(stats, args.json)
    if args.json_stats:
        with open(args.json_stats, "w") as fh:
            json.dump(stats, fh, indent=2, sort_keys=True, default=str)
    return code


def _host(args) -> Hypergraph:
    """The --graph file, or K_n on --r-sets (r = 2 unless given)."""
    if args.graph:
        if args.r is not None:
            raise ParameterError("--r is read from the --graph file; give it only with --n")
        return require_simple(read_graph(args.graph), "a nibble host")
    return Hypergraph.complete(args.n, 2 if args.r is None else args.r)


def cmd_nibble_run(args) -> int:
    G = _host(args)
    P, left = random_greedy_pack(G, args.q, seed=args.seed)
    if args.out:
        gpath = args.out + ".host.graph"
        write_graph(G, gpath)
        write_packing(P, args.out, os.path.basename(gpath))
    return _report(args, {"packed": len(P), "leftover": left.m, "edges": G.m,
                          "leftover_fraction": left.m / G.m if G.m else 0.0})


def cmd_nibble_reserve(args) -> int:
    rs = generate_reserves(args.n, args.q, args.r, args.p, seed=args.seed)
    return _report(args, {"X_edges": rs.X.m, **rs.flags})


def cmd_nibble_complete(args) -> int:
    stats: dict = {}
    G = require_simple(read_graph(args.graph), "a completion target")
    X = require_simple(read_graph(args.reserves), "a reserve graph")
    part = read_packing(args.packing) if args.packing else Packing(G, [], q=args.q)
    out = complete_with_reserves(G, X, part, args.q, seed=args.seed, stats=stats)
    if out is None:
        stats["completed"] = False
        return _report(args, stats, EXIT_NEGATIVE)
    stats.update(completed=True, cliques=len(out))
    return _report(args, stats)


def cmd_nibble_highgirth(args) -> int:
    G = _host(args)
    P, left = high_girth_pack(G, args.q, args.g, seed=args.seed)
    return _report(args, {"packed": len(P), "leftover": left.m,
                          "coverage": 1 - left.m / G.m if G.m else 1.0,
                          "girth_check": str(girth(P.cliques, args.q, G.r, g_max=args.g))})


def cmd_nibble_girth(args) -> int:
    P = read_packing(args.packing)
    g = girth(P.cliques, P.q, P.host.r, g_max=args.gmax)
    cnt4, _ = configurations(P.cliques, 2, 4)
    return _report(args, {"girth": str(g), "config_4_2": cnt4})


def cmd_nibble_spread(args) -> int:
    from .exactcover import enumerate_decompositions
    _conditional_options(args, not args.exact, "without --exact", "--trials", "--seed")
    host = Hypergraph.complete(args.n, 2)
    if args.exact:
        sols = enumerate_decompositions(host, args.q)
        res = spread_estimate(None, trials=0, exact_decompositions=sols)
    else:
        def sampler(seed):
            P, left = random_greedy_pack(host, args.q, seed=seed)
            return list(P.cliques) if left.m == 0 else None
        res = spread_estimate(sampler, trials=args.trials, seed=args.seed)
    return _report(args, {"sigma_hat_1": res["sigma_hat"]})


# ------------------------------------------------------------- pipeline ----

def cmd_pipeline(args) -> int:
    kwargs: dict = {}
    if args.config:
        raw = read_key_values(args.config)
        casts = {"n": int, "seed": int, "out_dir": str}
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
        write_graph(D.target, host_path)      # K_n, which D decomposes
        write_packing(D, args.out, os.path.basename(host_path))
        print(f"packing={args.out} triples={len(D)}")
    else:
        for c in D:
            print(" ".join(map(str, c)))
    return EXIT_OK


def cmd_verify(args) -> int:
    P = read_packing(args.packing)
    params = DesignParams(P.host.n, P.q, P.host.r)
    report = verify_design(P, params)
    _emit({"pass": report["pass"], "bad_subsets": report["bad_subsets"],
           "cliques": report["cliques"],
           "expected_cliques": report["expected_cliques"]}, args.json)
    return EXIT_OK if report["pass"] else EXIT_NEGATIVE


# ----------------------------------------------------------------- main ----

class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParameterError (exit 3) instead of exiting 2,
    which is the budget code; subparsers inherit the class.  Options are
    taken by their full names only, so an action rejects an option it does
    not read even where that is a prefix of one it does (--g of --gmax)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ParameterError(f"{self.prog}: {message}")


# add_argument keywords of every option, the same for each action that reads it
_OPTIONS = {
    "graph": {}, "certdir": {}, "packing": {},
    "--graph": {}, "--packing": {}, "--reserves": {}, "--host": {},
    "--system": {}, "--params": {}, "--config": {}, "--out": {},
    "--edge": dict(type=_parse_ids),
    "--members": dict(type=_parse_ids, default=()),
    "--n": dict(type=int),
    "--q": dict(type=int, default=3),
    "--r": dict(type=int, default=2),
    "--m": dict(type=int, default=6),
    "--s": dict(type=int, default=20),
    "--g": dict(type=int, default=4),
    "--gmax": dict(type=int, default=6),
    "--count": dict(type=int),
    "--budget": dict(type=int, default=DEFAULT_BUDGET),
    "--seed": dict(type=int, default=0),
    "--trials": dict(type=int, default=100),
    "--p": dict(type=float, default=0.3),
    "--threshold": dict(type=float, default=0.0),
    "--cap": dict(type=partial(_parse_fraction, option="--cap")),
    "--multiplier": dict(type=partial(_parse_fraction, option="--multiplier")),
    "--mode": dict(default="exhaustive", choices=["exhaustive", "sample"]),
    "--exact": dict(action="store_true"),
    "--reduce": dict(action="store_true"),
    "--json": dict(action="store_true"),
    "--json-stats": dict(dest="json_stats"),
}


def _group(sub, name: str):
    """A command group: each of its actions is a subparser of its own."""
    return sub.add_parser(name).add_subparsers(dest="action", required=True)


def _command(sub, name: str, func, *options: str, required=(), one_of=()):
    """The subparser `name` of `sub`, which runs `func`.  It takes exactly
    `options` (keys of _OPTIONS), the ones in `required` as required, and
    exactly one of `one_of`, if given."""
    p = sub.add_parser(name)
    for opt in options:
        kwargs = dict(_OPTIONS[opt], required=True) if opt in required else _OPTIONS[opt]
        p.add_argument(opt, **kwargs)
    if one_of:
        group = p.add_mutually_exclusive_group(required=True)
        for opt in one_of:
            # a positional in the group is one that may be left out
            kwargs = _OPTIONS[opt] if opt.startswith("-") else dict(_OPTIONS[opt], nargs="?")
            group.add_argument(opt, **kwargs)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="absorb-kit")
    sub = ap.add_subparsers(dest="group", required=True)

    _command(_group(sub, "divide"), "check", cmd_divide_check, "--q", "--json",
             one_of=("graph", "--params"))
    _command(_group(sub, "cover"), "solve", cmd_cover_solve,
             "graph", "--q", "--count", "--budget", "--out", "--json")
    _command(_group(sub, "integral"), "solve", cmd_integral_solve,
             "graph", "--q", "--reduce", "--out")

    g = _group(sub, "gadget")
    for kind, build in (("anti", anti_edge), ("fake", fake_edge)):
        _command(g, kind, partial(cmd_gadget_edge, kind=kind, build=build),
                 "--edge", "--q", "--out", required=["--edge"])
    # an option read only under another one defaults to None here, and its
    # handler checks it with _conditional_options
    _command(g, "booster", cmd_gadget_booster, "--q", "--r", "--host", "--budget",
             "--out").set_defaults(budget=None)
    _command(g, "absorber", cmd_gadget_absorber, "graph", "--q", "--out")

    o = _group(sub, "omni")
    _command(o, "build-1d", cmd_omni_build_1d, "--m", "--q", "--out", required=["--out"])
    _command(o, "build-small", cmd_omni_build_small, "--graph", "--q", "--out",
             required=["--graph", "--out"])
    _command(o, "verify", cmd_omni_verify, "certdir", "--mode", "--trials",
             "--seed").set_defaults(trials=None, seed=None)
    _command(o, "refinedness", cmd_omni_refinedness, "certdir")

    # embed's --budget is a degree budget, derived from the base graph unless given
    _command(sub, "embed", cmd_embed, "--system", "--host", "--seed", "--budget", "--out",
             required=["--system", "--host"]).set_defaults(budget=None)

    lp = _group(sub, "lp")
    _command(lp, "solve", cmd_lp_solve, "graph", "--q", "--cap", "--out")
    _command(lp, "boost", cmd_lp_boost, "graph", "--q", "--multiplier", "--seed", "--json")
    _command(lp, "inherit", cmd_lp_inherit, "graph", "--s", "--members", "--threshold",
             "--trials", "--seed", "--json")

    nb = _group(sub, "nibble")
    stats = ("--json", "--json-stats")
    # --r goes with --n only: a --graph file carries its own r
    _command(nb, "run", cmd_nibble_run, "--r", "--q", "--seed", "--out", *stats,
             one_of=("--graph", "--n")).set_defaults(r=None)
    _command(nb, "reserve", cmd_nibble_reserve, "--n", "--q", "--r", "--p", "--seed", *stats,
             required=["--n"])
    _command(nb, "complete", cmd_nibble_complete, "--graph", "--reserves", "--packing",
             "--q", "--seed", *stats, required=["--graph", "--reserves"])
    _command(nb, "highgirth", cmd_nibble_highgirth, "--r", "--q", "--g", "--seed", *stats,
             one_of=("--graph", "--n")).set_defaults(r=None)
    _command(nb, "girth", cmd_nibble_girth, "--packing", "--gmax", *stats,
             required=["--packing"])
    _command(nb, "spread", cmd_nibble_spread, "--n", "--q", "--exact", "--trials", "--seed",
             *stats, required=["--n"]).set_defaults(trials=None, seed=None)

    # a seed or n left out here is taken from the config file
    _command(sub, "pipeline", cmd_pipeline, "--n", "--seed", "--config", "--out",
             "--json").set_defaults(seed=None)
    _command(sub, "oracle", cmd_oracle, "--n", "--out", required=["--n"])
    _command(sub, "verify", cmd_verify, "packing", "--json")
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
    except (BudgetError, CapacityError, ReliabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (AbsorbKitError, OSError) as exc:   # OSError: a path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER


if __name__ == "__main__":
    sys.exit(main())
