"""Spans around calls into absorbkit's public functions, and the per-layer
metrics computed from them.

Modules import each other's functions with ``from .x import f``, so a
caller looks ``f`` up in its own namespace.  ``install`` therefore replaces
every binding of a traced function in every loaded absorbkit module (the
defining module included, for intra-module calls) with one wrapper.  The
program itself is not changed.

Spans are kept in memory as ``[name, start, end, parent, op, attrs]`` and
written out once, by ``write_spans``.  The run is single-threaded, so the
open spans form a stack and a span's children lie inside it: its self time
is its duration minus its direct children's durations.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# Public functions traced, by defining module.
TRACED = {
    "hypercore": ("enumerate_cliques", "read_graph", "read_packing",
                  "write_graph", "write_packing"),
    "divide": ("divisible_subgraphs",),
    "exactcover": ("find_decomposition", "count_decompositions", "solve_cover"),
    "integral": ("integral_decomposition",),
    "gadgets": ("build_absorber",),
    "omni": ("omni_small", "omni_1d", "verify_omni"),
    "embed": ("embed_system",),
    "fraclp": ("solve_fractional", "boost_sample"),
    "nibble": ("random_greedy_pack", "generate_reserves",
               "complete_with_reserves", "high_girth_pack"),
    "pipeline": ("pipeline_steiner", "verify_design"),
    "cli": ("main",),
}
IO_FUNCS = ("hypercore.read_graph", "hypercore.read_packing",
            "hypercore.write_graph", "hypercore.write_packing")

# Per-layer metrics: name -> (unit, better).  Every one is reported on every
# traced run; a layer the workload never calls reads 0.
LAYER_METRICS = {
    "nibble.random_greedy_pack.self_s": ("s", "lower"),
    "nibble.random_greedy_pack.calls": ("count", "lower"),
    "nibble.random_greedy_pack.accept_ratio": ("ratio", "higher"),
    "nibble.generate_reserves.busy_s": ("s", "lower"),
    "nibble.high_girth_pack.busy_s": ("s", "lower"),
    "hypercore.enumerate_cliques.busy_s": ("s", "lower"),
    "hypercore.enumerate_cliques.calls": ("count", "lower"),
    "hypercore.enumerate_cliques.cliques": ("count", "lower"),
    "nibble.complete_with_reserves.busy_s": ("s", "lower"),
    "nibble.complete_with_reserves.success_ratio": ("ratio", "higher"),
    "pipeline.route_fallback_ratio": ("ratio", "lower"),
    "pipeline.fallback_attempts": ("count", "lower"),
    "pipeline.pipeline_steiner.self_s": ("s", "lower"),
    "pipeline.verify_design.busy_s": ("s", "lower"),
    "omni.omni_small.self_s": ("s", "lower"),
    "omni.omni_small.calls": ("count", "lower"),
    "gadgets.build_absorber.self_s": ("s", "lower"),
    "divide.divisible_subgraphs.busy_s": ("s", "lower"),
    "embed.embed_system.busy_s": ("s", "lower"),
    "embed.embed_system.calls": ("count", "lower"),
    "embed.embed_system.fail_ratio": ("ratio", "lower"),
    "fraclp.solve_fractional.busy_s": ("s", "lower"),
    "fraclp.solve_fractional.calls": ("count", "lower"),
    "fraclp.solve_fractional.pivots": ("count", "lower"),
    "fraclp.solve_fractional.s_per_pivot": ("s/pivot", "lower"),
    "fraclp.solve_fractional.infeasible": ("count", "lower"),
    "fraclp.boost_sample.busy_s": ("s", "lower"),
    "exactcover.find_decomposition.busy_s": ("s", "lower"),
    "exactcover.find_decomposition.calls": ("count", "lower"),
    "exactcover.find_decomposition.none": ("count", "lower"),
    "exactcover.count_decompositions.busy_s": ("s", "lower"),
    "exactcover.count_decompositions.solutions_per_s": ("1/s", "higher"),
    "exactcover.solve_cover.busy_s": ("s", "lower"),
    "integral.integral_decomposition.cold_s": ("s", "lower"),
    "integral.integral_decomposition.warm_s": ("s", "lower"),
    "integral.integral_decomposition.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "hypercore.io.busy_s": ("s", "lower"),
    "cli.exit_code_mismatch": ("count", "lower"),
    "fail_ratio": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _note_random_greedy_pack(attrs, args, kwargs, result):
    attrs["packed"] = len(result[0].cliques)
    params = args[2] if len(args) > 2 else kwargs.get("params")
    if params is not None and params.clique_source is not None:
        attrs["pool"] = len(params.clique_source)


def _note_integral(attrs, args, kwargs, result):
    attrs["n"] = (args[0] if args else kwargs["L"]).n


# Counters read off a traced call's result, by span name.
NOTES = {
    "hypercore.enumerate_cliques": lambda a, args, kw, res: a.update(cliques=len(res)),
    "nibble.random_greedy_pack": _note_random_greedy_pack,
    "nibble.complete_with_reserves": lambda a, args, kw, res: a.update(ok=res is not None),
    "embed.embed_system": lambda a, args, kw, res: a.update(ok=res is not None),
    "fraclp.solve_fractional": lambda a, args, kw, res: a.update(
        pivots=res.pivots, feasible=res.feasible),
    "exactcover.find_decomposition": lambda a, args, kw, res: a.update(none=res is None),
    "exactcover.count_decompositions": lambda a, args, kw, res: a.update(count=res[0]),
    "integral.integral_decomposition": _note_integral,
    "pipeline.pipeline_steiner": lambda a, args, kw, res: a.update(
        fallback=bool(res.report.get("fallback_used")),
        fallback_attempts=res.report.get("fallback_attempts", 0)),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = -1
        self.installed: list = []   # (module, attribute, original)

    def _wrap(self, name, fn):
        note = NOTES.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # time each resumption; calls are the spans with seg == 0
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                seg = 0
                while True:
                    span = [name, clock(), None, stack[-1] if stack else None,
                            self.op, {"seg": seg}]
                    spans.append(span)
                    stack.append(len(spans) - 1)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        span[2] = clock()
                    seg += 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs: dict = {}
            span = [name, clock(), None, stack[-1] if stack else None, self.op, attrs]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                stack.pop()
                span[2] = clock()
            if note is not None:
                note(attrs, args, kwargs, result)
            return result
        return wrapper

    def install(self, package: str = "absorbkit"):
        modules = {k: m for k, m in sys.modules.items()
                   if m is not None and (k == package or k.startswith(package + "."))}
        wrappers = {}
        for mod_name, funcs in TRACED.items():
            mod = modules[f"{package}.{mod_name}"]
            for f in funcs:
                orig = getattr(mod, f)
                wrappers[id(orig)] = (orig, self._wrap(f"{mod_name}.{f}", orig))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self.installed.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, orig in reversed(self.installed):
            setattr(mod, attr, orig)
        self.installed.clear()

    def write_spans(self, path: str, meta: dict):
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for name, t0, t1, parent, op, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op,
                                     "attrs": attrs}) + "\n")

    def layer_metrics(self, exit_code_mismatch: int, fail_ratio: float,
                      overhead_ratio: float) -> dict:
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent is not None:
                child_s[parent] += t1 - t0
        busy: dict = {}
        self_s: dict = {}
        calls: dict = {}
        by_name: dict = {}
        for i, (name, t0, t1, _, _, attrs) in enumerate(spans):
            busy[name] = busy.get(name, 0.0) + (t1 - t0)
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child_s[i])
            if attrs.get("seg", 0) == 0:
                calls[name] = calls.get(name, 0) + 1
                by_name.setdefault(name, []).append((i, attrs))

        def attr_sum(name, key):
            return sum(a.get(key, 0) for _, a in by_name.get(name, ()))

        def ratio(num, den):
            return num / den if den else 0.0

        # random greedy's pool is the clique source or the cliques its own
        # enumerate_cliques child returned
        pool = 0
        for i, attrs in by_name.get("nibble.random_greedy_pack", ()):
            if "pool" in attrs:
                pool += attrs["pool"]
            else:
                pool += sum(spans[j][5].get("cliques", 0)
                            for j, _ in by_name.get("hypercore.enumerate_cliques", ())
                            if spans[j][3] == i)
        # cold = the first integral call at a vertex count within the pass
        seen_n: set = set()
        cold = warm = 0.0
        for i, attrs in by_name.get("integral.integral_decomposition", ()):
            dur = spans[i][2] - spans[i][1]
            if attrs.get("n") in seen_n:
                warm += dur
            else:
                seen_n.add(attrs.get("n"))
                cold += dur
        lp = "fraclp.solve_fractional"
        lp_pivots = attr_sum(lp, "pivots")
        count_busy = busy.get("exactcover.count_decompositions", 0.0)
        pipe = "pipeline.pipeline_steiner"
        pipe_done = [a for _, a in by_name.get(pipe, ()) if "fallback" in a]
        values = {
            "nibble.random_greedy_pack.self_s": self_s.get("nibble.random_greedy_pack", 0.0),
            "nibble.random_greedy_pack.calls": calls.get("nibble.random_greedy_pack", 0),
            "nibble.random_greedy_pack.accept_ratio": ratio(
                attr_sum("nibble.random_greedy_pack", "packed"), pool),
            "nibble.generate_reserves.busy_s": busy.get("nibble.generate_reserves", 0.0),
            "nibble.high_girth_pack.busy_s": busy.get("nibble.high_girth_pack", 0.0),
            "hypercore.enumerate_cliques.busy_s": busy.get("hypercore.enumerate_cliques", 0.0),
            "hypercore.enumerate_cliques.calls": calls.get("hypercore.enumerate_cliques", 0),
            "hypercore.enumerate_cliques.cliques": attr_sum("hypercore.enumerate_cliques",
                                                            "cliques"),
            "nibble.complete_with_reserves.busy_s": busy.get(
                "nibble.complete_with_reserves", 0.0),
            "nibble.complete_with_reserves.success_ratio": ratio(
                attr_sum("nibble.complete_with_reserves", "ok"),
                calls.get("nibble.complete_with_reserves", 0)),
            "pipeline.route_fallback_ratio": ratio(
                sum(a["fallback"] for a in pipe_done), len(pipe_done)),
            "pipeline.fallback_attempts": sum(a["fallback_attempts"] for a in pipe_done),
            "pipeline.pipeline_steiner.self_s": self_s.get(pipe, 0.0),
            "pipeline.verify_design.busy_s": busy.get("pipeline.verify_design", 0.0),
            "omni.omni_small.self_s": self_s.get("omni.omni_small", 0.0),
            "omni.omni_small.calls": calls.get("omni.omni_small", 0),
            "gadgets.build_absorber.self_s": self_s.get("gadgets.build_absorber", 0.0),
            "divide.divisible_subgraphs.busy_s": busy.get("divide.divisible_subgraphs", 0.0),
            "embed.embed_system.busy_s": busy.get("embed.embed_system", 0.0),
            "embed.embed_system.calls": calls.get("embed.embed_system", 0),
            "embed.embed_system.fail_ratio": ratio(
                sum(1 for _, a in by_name.get("embed.embed_system", ()) if not a.get("ok")),
                calls.get("embed.embed_system", 0)),
            "fraclp.solve_fractional.busy_s": busy.get(lp, 0.0),
            "fraclp.solve_fractional.calls": calls.get(lp, 0),
            "fraclp.solve_fractional.pivots": lp_pivots,
            "fraclp.solve_fractional.s_per_pivot": ratio(busy.get(lp, 0.0), lp_pivots),
            "fraclp.solve_fractional.infeasible": sum(
                1 for _, a in by_name.get(lp, ()) if a.get("feasible") is False),
            "fraclp.boost_sample.busy_s": busy.get("fraclp.boost_sample", 0.0),
            "exactcover.find_decomposition.busy_s": busy.get(
                "exactcover.find_decomposition", 0.0),
            "exactcover.find_decomposition.calls": calls.get(
                "exactcover.find_decomposition", 0),
            "exactcover.find_decomposition.none": attr_sum(
                "exactcover.find_decomposition", "none"),
            "exactcover.count_decompositions.busy_s": count_busy,
            "exactcover.count_decompositions.solutions_per_s": ratio(
                attr_sum("exactcover.count_decompositions", "count"), count_busy),
            "exactcover.solve_cover.busy_s": busy.get("exactcover.solve_cover", 0.0),
            "integral.integral_decomposition.cold_s": cold,
            "integral.integral_decomposition.warm_s": warm,
            "integral.integral_decomposition.calls": calls.get(
                "integral.integral_decomposition", 0),
            "cli.main.self_s": self_s.get("cli.main", 0.0),
            "hypercore.io.busy_s": sum(busy.get(f, 0.0) for f in IO_FUNCS),
            "cli.exit_code_mismatch": exit_code_mismatch,
            "fail_ratio": fail_ratio,
            "trace.spans": len(spans),
            "trace.overhead_ratio": overhead_ratio,
        }
        assert set(values) == set(LAYER_METRICS), "layer metric table out of sync"
        return values
