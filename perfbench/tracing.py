"""Spans around corrcache's public functions, recorded from outside the package.

``Tracer.installed()`` replaces the public functions of each layer, in every
module that imported them by name, with wrappers that record a span (name,
start, end, parent, op id) and restores the originals on exit.  Policy hooks
are called once per event or eviction, so they are not spans: the
``build_policy`` wrapper wraps the hooks of each new instance with counters
that add up calls and seconds into the enclosing ``simulate`` span.

``layer_metrics`` turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import os
from time import perf_counter

import corrcache.analysis as analysis
import corrcache.cli as cli
import corrcache.engine as engine
import corrcache.harness as harness
import corrcache.presets as presets
import corrcache.trace as trace_mod
import corrcache.workloads as workloads
from corrcache.policies import Policy

# The six replayed policies; per-policy metrics are keyed by these kinds.
POLICY_KINDS = ("lru", "lfu", "sieve", "belady", "lfru", "lfrus")
# LRU's class has no on_request hook, so the engine never calls one for it.
ON_REQUEST_KINDS = tuple(k for k in POLICY_KINDS if k != "lru")

NAME, START, END, PARENT, OP, ATTRS = range(6)

# Every per-layer metric and its unit, in report order.
LAYER_UNITS = {
    "workloads.gen_s": "s",
    "workloads.gen_calls": "count",
    "workloads.events": "count",
    "trace.write_s": "s",
    "trace.read_s": "s",
    "trace.validate_s": "s",
    "trace.read_us_per_event": "us",
    "trace.file_bytes": "bytes",
    **{f"engine.{m}.{k}": u for m, u in (("simulate_s", "s"), ("self_s", "s"),
                                         ("hits", "count"), ("evictions", "count"))
       for k in POLICY_KINDS},
    "engine.forwarded": "count",
    "engine.local_hits": "count",
    "engine.calls": "count",
    **{f"policies.{m}.{k}": u for m, u in (("build_s", "s"), ("victim_calls", "count"),
                                           ("victim_s", "s"), ("victim_us", "us"))
       for k in POLICY_KINDS},
    **{f"policies.on_request_s.{k}": "s" for k in ON_REQUEST_KINDS},
    "analysis.hit_report_s": "s",
    "analysis.volume_evals": "count",
    "analysis.solve_iterations": "count",
    "analysis.max_abs_err": "ratio",
    "harness.reproduce_s": "s",
    "harness.cells": "count",
    "harness.s_per_cell": "s",
    "bench.trace_overhead_frac": "ratio",
}


class Tracer:
    """In-memory span list; one instance per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = 0
        self.volume_evals = 0

    def wrap(self, name, fn, on_exit=None):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            rec = [name, perf_counter(), 0.0, parent, self.op_id, {}]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                self._stack.pop()
            if on_exit is not None:
                on_exit(rec[ATTRS], args, out)
            return out

        return wrapper

    def _wrap_hooks(self, attrs: dict, pol: Policy) -> None:
        for hook in ("victim", "on_request", "on_admit", "on_evict"):
            # the engine skips hooks the class does not override; so do we
            if hook != "victim" and getattr(type(pol), hook) is getattr(Policy, hook):
                continue
            acc = attrs.setdefault("hooks", {}).setdefault(hook, [0, 0.0])
            setattr(pol, hook, _counted(getattr(pol, hook), acc))

    def _build_policy(self, original):
        def build(params, *args, **kwargs):
            pol = original(params, *args, **kwargs)
            # the stack top is this build span; its parent is the simulate call
            sim = self.spans[self._stack[-2]] if len(self._stack) > 1 else None
            if sim is not None and sim[NAME] == "engine.simulate":
                sim[ATTRS]["policy"] = params.kind
                self._wrap_hooks(sim[ATTRS], pol)
            return pol

        return self.wrap("policies.build_policy", build)

    def _targets(self):
        """(span name, original, on_exit, [(module, attribute), ...])."""

        def sim_exit(attrs, args, m):
            attrs.update(
                hits=m.hits, evictions=m.evictions, forwarded=m.forwarded, local_hits=m.local_hits
            )

        def gen_exit(attrs, args, tr):
            attrs["events"] = len(tr)

        def write_exit(attrs, args, out):
            if isinstance(args[1], (str, os.PathLike)):
                attrs["bytes"] = os.path.getsize(args[1])

        def read_exit(attrs, args, tr):
            attrs["events"] = len(tr)

        def report_exit(attrs, args, rep):
            attrs["iterations"] = rep.iterations

        W = workloads
        return [
            ("engine.simulate", engine.simulate, sim_exit,
             [(engine, "simulate"), (harness, "simulate"), (cli, "simulate")]),
            ("workloads.gen_grouped_trace", W.gen_grouped_trace, gen_exit,
             [(W, "gen_grouped_trace"), (presets, "gen_grouped_trace")]),
            ("workloads.gen_toroid_trace", W.gen_toroid_trace, gen_exit,
             [(W, "gen_toroid_trace"), (presets, "gen_toroid_trace")]),
            ("trace.write_trace", trace_mod.write_trace, write_exit,
             [(trace_mod, "write_trace"), (cli, "write_trace")]),
            ("trace.read_trace", trace_mod.read_trace, read_exit,
             [(trace_mod, "read_trace"), (cli, "read_trace"), (harness, "read_trace")]),
            ("trace.validate_trace", trace_mod.validate_trace, None,
             [(trace_mod, "validate_trace"), (cli, "validate_trace")]),
            ("harness.run_sweep", harness.run_sweep, None,
             [(harness, "run_sweep"), (cli, "run_sweep")]),
            ("harness.reproduce", harness.reproduce, None,
             [(harness, "reproduce"), (cli, "reproduce")]),
            ("analysis.hit_report", analysis.WorkingSetModel.hit_report, report_exit,
             [(analysis.WorkingSetModel, "hit_report")]),
            ("cli.main", cli.main, None, [(cli, "main")]),
        ]

    @contextlib.contextmanager
    def installed(self):
        saved = []

        def put(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        try:
            for name, original, on_exit, sites in self._targets():
                wrapper = self.wrap(name, original, on_exit)
                for owner, attr in sites:
                    put(owner, attr, wrapper)
            put(engine, "build_policy", self._build_policy(engine.build_policy))
            volume = analysis.WorkingSetModel.expected_cached_volume

            def counted_volume(model, t):
                self.volume_evals += 1
                return volume(model, t)

            put(analysis.WorkingSetModel, "expected_cached_volume", counted_volume)
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def to_records(self) -> list[dict]:
        return [
            {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
             "op": s[OP], **s[ATTRS]}
            for s in self.spans
        ]


def _counted(fn, acc: list):
    def hook(*args):
        t = perf_counter()
        out = fn(*args)
        acc[1] += perf_counter() - t
        acc[0] += 1
        return out

    return hook


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals over one traced pass.

    A span whose call raised has no result attributes and counts as zero work.
    """
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += s[END] - s[START]

    def dur(s):
        return s[END] - s[START]

    def named(*names):
        return [s for s in spans if s[NAME] in names]

    out: dict[str, float] = {}
    gens = named("workloads.gen_grouped_trace", "workloads.gen_toroid_trace")
    out["workloads.gen_s"] = sum(map(dur, gens))
    out["workloads.gen_calls"] = len(gens)
    out["workloads.events"] = sum(s[ATTRS].get("events", 0) for s in gens)

    reads = named("trace.read_trace")
    out["trace.write_s"] = sum(map(dur, named("trace.write_trace")))
    out["trace.read_s"] = sum(map(dur, reads))
    out["trace.validate_s"] = sum(map(dur, named("trace.validate_trace")))
    read_events = sum(s[ATTRS].get("events", 0) for s in reads)
    out["trace.read_us_per_event"] = out["trace.read_s"] / read_events * 1e6 if read_events else 0.0
    out["trace.file_bytes"] = sum(s[ATTRS].get("bytes", 0) for s in named("trace.write_trace"))

    sims = named("engine.simulate")
    for kind in POLICY_KINDS:
        mine = [(i, s) for i, s in enumerate(spans)
                if s[NAME] == "engine.simulate" and s[ATTRS].get("policy") == kind]
        hooks = [s[ATTRS].get("hooks", {}) for _, s in mine]
        hook_s = [sum(v[1] for v in h.values()) for h in hooks]
        victim_calls = sum(h["victim"][0] for h in hooks)
        victim_s = sum(h["victim"][1] for h in hooks)
        out[f"engine.simulate_s.{kind}"] = sum(dur(s) for _, s in mine)
        # engine self time: the simulate span minus its child span (the
        # policy build) and minus the time inside policy hooks
        out[f"engine.self_s.{kind}"] = sum(
            dur(s) - child_s[i] - hs for (i, s), hs in zip(mine, hook_s)
        )
        out[f"engine.hits.{kind}"] = sum(s[ATTRS].get("hits", 0) for _, s in mine)
        out[f"engine.evictions.{kind}"] = sum(s[ATTRS].get("evictions", 0) for _, s in mine)
        out[f"policies.build_s.{kind}"] = sum(
            dur(b) for b in spans
            if b[NAME] == "policies.build_policy" and b[PARENT] >= 0
            and spans[b[PARENT]][ATTRS].get("policy") == kind
        )
        out[f"policies.victim_calls.{kind}"] = victim_calls
        out[f"policies.victim_s.{kind}"] = victim_s
        out[f"policies.victim_us.{kind}"] = victim_s / victim_calls * 1e6 if victim_calls else 0.0
        if kind in ON_REQUEST_KINDS:
            out[f"policies.on_request_s.{kind}"] = sum(h["on_request"][1] for h in hooks)
    out["engine.forwarded"] = sum(s[ATTRS].get("forwarded", 0) for s in sims)
    out["engine.local_hits"] = sum(s[ATTRS].get("local_hits", 0) for s in sims)
    out["engine.calls"] = len(sims)

    reports = named("analysis.hit_report")
    out["analysis.hit_report_s"] = sum(map(dur, reports))
    out["analysis.volume_evals"] = tracer.volume_evals
    out["analysis.solve_iterations"] = sum(s[ATTRS].get("iterations", 0) for s in reports)

    repros = named("harness.reproduce")
    repro_idx = {i for i, s in enumerate(spans) if s[NAME] == "harness.reproduce"}

    def under_reproduce(s):
        p = s[PARENT]
        while p >= 0:
            if p in repro_idx:
                return True
            p = spans[p][PARENT]
        return False

    cells = sum(1 for s in sims if under_reproduce(s))
    out["harness.reproduce_s"] = sum(map(dur, repros))
    out["harness.cells"] = cells
    out["harness.s_per_cell"] = out["harness.reproduce_s"] / cells if cells else 0.0
    return out
