"""The two benchmark workloads.

Each workload builds its untimed inputs in ``__init__`` (the set-up that
``setup_s`` times) and declares the timed ops of one pass in ``plan``.  Every
op goes through ``Run.op`` and every output through the checks of ``Run``,
so a pass both measures and verifies.  All calls into corrcache go through
module attributes (``engine.simulate``, ``cli.main``, ...), so the wrappers
that ``tracing.Tracer`` installs see them.

Workloads are closed loops with one caller and no threads: each op starts
when the previous one has returned.  Every simulation starts from an empty
cache.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil

import corrcache.cli as cli
import corrcache.engine as engine
import corrcache.trace as trace_mod
from corrcache.engine import CacheConfig
from corrcache.policies import parse_policy_spec
from corrcache.presets import get_preset

REPLAY_SPECS = ("lru", "lfu", "sieve", "belady", "lfru:w=20", "lfrus:w=20:gamma=0.5")
# Analytic curve grid: capacity k/400 of the catalog volume, k = 1..64
# (0.25% .. 16%).  k/400 is correctly rounded, so 8/400 == 0.02 exactly and
# the replay capacities below are points of the grid.
CURVE_FRACS = tuple(k / 400 for k in range(1, 65))
TINY_CURVE_FRACS = tuple(k / 400 for k in (2, 8, 20))


def _kind(spec: str) -> str:
    return parse_policy_spec(spec).kind


def _fingerprint(m) -> list:
    """Every simulated statistic of one run, compactly."""
    pairs = hashlib.sha256(m.pair_hits.tobytes() + m.pair_requests.tobytes()).hexdigest()[:16]
    return [m.hits, m.evictions, m.forwarded, m.local_hits, m.oversized_misses, pairs]


def _file_hashes(path: str) -> dict[str, str]:
    if not os.path.isdir(path):
        return {os.path.basename(path): _sha(path)}
    return {name: _sha(os.path.join(path, name)) for name in sorted(os.listdir(path))}


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


class Pass:
    """The ops of one pass, interleaved so that every metric samples all of it.

    On a VM shared with other tenants, speed drifts over seconds; running the ten
    repetitions of a cheap op back to back would sample one moment only.
    Each op group is spread evenly over the pass instead, groups offset from
    each other.  The first repetition of a group marked ``first`` runs before
    all others, in order (it writes the trace that later ops read).

    A metric's sample for repetition r is its seconds summed over the groups
    that feed it; with ``work`` set (events x cells) the sample is work/s.
    ``execute`` also returns, per metric, the pass's total seconds, its
    repetition count and the work of one repetition, from which the run
    reports its whole-run value.
    """

    def __init__(self, run):
        self.run = run
        self.groups: list[tuple[int, object, bool]] = []
        self.seconds: dict[tuple[str, int], float] = {}
        self.work: dict[str, float] = {}
        # (trace id, capacity fraction) -> policy kind -> (hits, op key)
        self.hits: dict[tuple[int, float], dict[str, tuple[int, str]]] = {}
        self.lru_ratio: dict[float, float] = {}

    def add(self, reps: int, step, first: bool = False) -> None:
        self.groups.append((reps, step, first))

    def record(self, metric: str, rep: int, seconds: float) -> None:
        self.seconds[(metric, rep)] = self.seconds.get((metric, rep), 0.0) + seconds

    def execute(self) -> tuple[dict[str, list[float]], dict[str, tuple[float, int, float]]]:
        n = len(self.groups)
        order = [
            (-1.0 if first and r == 0 else (r + (g + 0.5) / n) / reps, g, r, step)
            for g, (reps, step, first) in enumerate(self.groups)
            for r in range(reps)
        ]
        for _, _, r, step in sorted(order, key=lambda o: o[:3]):
            step(r)
        samples: dict[str, list[float]] = {}
        totals: dict[str, tuple[float, int, float]] = {}
        for (metric, _), s in sorted(self.seconds.items()):
            w = self.work.get(metric)
            samples.setdefault(metric, []).append(w / s if w else s)
            total, reps, _ = totals.get(metric, (0.0, 0, 0.0))
            totals[metric] = (total + s, reps + 1, w or 0.0)
        return samples, totals


class Workload:
    """Shared op helpers; subclasses define the inputs and ``plan``."""

    name = ""
    SIM_SPEC = SIM_FRAC = SIM_LOCAL = None  # the CLI simulate verb's settings

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.curve_fracs = TINY_CURVE_FRACS if tiny else CURVE_FRACS
        self.max_abs_err = 0.0
        self._model_rate: dict[float, float] = {}

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    def run_pass(self, run):
        """One pass of ``plan``'s ops; returns ``Pass.execute``'s samples and totals."""
        p = Pass(run)
        self.plan(p)
        out = p.execute()
        self.check_belady(run, p.hits)
        self.after_pass(p)
        return out

    def plan(self, p: Pass) -> None:
        raise NotImplementedError

    def after_pass(self, p: Pass) -> None:
        self.max_abs_err = self.model_gap(p.lru_ratio)

    def replay(self, p: Pass, trace_of, spec: str, fracs, reps: int = 1) -> None:
        """Replay the trace ``trace_of()`` at each capacity fraction, ``reps`` times.

        Feeds ``replay_eps.<kind>``: events x cells / summed simulate seconds.
        """
        params = parse_policy_spec(spec)
        metric = f"replay_eps.{params.kind}"
        for frac in fracs:
            key = f"replay {spec} @{frac:g}"

            def step(r, key=key, frac=frac):
                trace = trace_of()
                p.work[metric] = len(trace) * len(fracs)
                config = CacheConfig(frac * trace.catalog.total_volume())
                m, dt = p.run.op(key, engine.simulate, trace, params, config)
                p.record(metric, r, dt)
                if m is None:
                    return
                p.run.expect_same(key, _fingerprint(m))
                p.hits.setdefault((id(trace), frac), {})[params.kind] = (m.hits, key)
                if params.kind == "lru":
                    p.lru_ratio[frac] = m.hit_ratio

            p.add(reps, step)

    @staticmethod
    def check_belady(run, hits_by_frac) -> None:
        """Offline-optimal dominance on one trace: belady hits >= every policy's."""
        for (_, frac), by_kind in hits_by_frac.items():
            if "belady" not in by_kind:
                continue
            best, key = by_kind["belady"]
            for kind, (hits, _) in by_kind.items():
                if hits > best:
                    run.fail(key, f"belady {best} hits < {kind} {hits} at {frac:g}")

    def curve(self, p: Pass, model, reps: int = 1) -> None:
        """Analytic hit report at every grid capacity; feeds ``model_curve_s``."""
        volume = model.total_volume()
        fracs = self.curve_fracs

        def step(r):
            reports, dt = p.run.op(
                "model curve", lambda: [model.hit_report(f * volume) for f in fracs]
            )
            p.record("model_curve_s", r, dt)
            if reports is None:
                return
            for frac, rep in zip(fracs, reports):
                if abs(rep.residual) > 1e-6 * rep.capacity:
                    p.run.fail("model curve", f"t* residual {rep.residual:g} at {frac:g}")
            p.run.expect_same("model curve", [rep.t_star for rep in reports])
            self._model_rate = {f: rep.normalized_hit_rate for f, rep in zip(fracs, reports)}

        p.add(reps, step)

    def model_gap(self, lru_ratio: dict) -> float:
        """max |model - simulated| hit ratio over the LRU-replayed points."""
        return max(abs(self._model_rate[f] - r) for f, r in lru_ratio.items())

    def cli_verb(self, p: Pass, metric: str, argv: list[str], output: str, reps=1,
                 first=False) -> None:
        """One ``corrcache`` verb in-process; feeds ``metric`` in seconds.

        ``output`` is the file or directory the verb writes; a directory is
        removed before each call so that stale files cannot pass the check.
        """

        def step(r):
            if os.path.isdir(output):
                shutil.rmtree(output)
            out, err = io.StringIO(), io.StringIO()

            def call():
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return cli.main(argv)

            rc, dt = p.run.op(metric, call)
            p.record(metric, r, dt)
            if rc is None:
                return
            if rc != 0:
                p.run.fail(metric, f"exit {rc}: {err.getvalue().strip()}")
                return
            p.run.expect_same(metric, _file_hashes(output))

        p.add(reps, step, first)

    def cli_pipeline(self, p: Pass, preset: str, gen_flags: list[str], repro_flags: list[str],
                     reps: dict) -> None:
        """generate -> simulate -> reproduce through ``corrcache.cli.main``.

        ``generate`` runs first, as ``simulate`` reads its file.  ``reps``
        gives the repetitions per verb; cheap verbs repeat.
        """
        tfile = self.path("trace.txt")
        seed = ["--seed", str(self.seed)]
        self.cli_verb(p, "cli.generate_s", ["generate", preset, *seed, "--out", tfile, *gen_flags],
                      tfile, reps.get("generate", 1), first=True)
        sim_dir = self.path("simulate")
        self.cli_verb(p, "cli.simulate_s",
                      ["simulate", "--trace", tfile, "--policy", self.SIM_SPEC,
                       "--capacity", repr(self.SIM_FRAC), "--capacity-base", "volume",
                       "--local-frac", repr(self.SIM_LOCAL), "--out", sim_dir],
                      sim_dir, reps.get("simulate", 1))
        rep_dir = self.path("reproduce")
        self.cli_verb(p, "cli.reproduce_s",
                      ["reproduce", preset, *seed, "--out", rep_dir, *repro_flags],
                      rep_dir, reps.get("reproduce", 1))

    def verify_once(self, run) -> None:
        """The CLI simulate summary equals library simulate() on the read-back trace.

        Needed on the first pass only: later passes must write the same bytes.
        """
        tr = trace_mod.read_trace(self.path("trace.txt"))
        config = CacheConfig(
            self.SIM_FRAC * tr.catalog.total_volume(), local_cache_fraction=self.SIM_LOCAL
        )
        m = engine.simulate(tr, parse_policy_spec(self.SIM_SPEC), config)
        with open(self.path("simulate", "summary.json")) as fh:
            summary = json.load(fh)
        got = [summary[k] for k in ("hits", "forwarded", "local_hits", "evictions")]
        want = [m.hits, m.forwarded, m.local_hits, m.evictions]
        if got != want:
            run.fail("cli.simulate_s", f"CLI counters {got} != library {want}")


class GroupedReplay(Workload):
    """Six policies replay one large grouped trace; engine+policies dominate."""

    name = "grouped-replay"
    SIM_SPEC, SIM_FRAC, SIM_LOCAL = "lfru:w=20", 0.02, 0.05
    FRACS = (0.005, 0.02)
    # A pass takes ~13-18 s, so that a run makes several passes and every
    # op's outputs are compared across passes.  Cheap ops repeat within a
    # pass so that their calls are spread over the whole run.
    REPS = {"lru": 6, "sieve": 4, "lfu": 2, "belady": 3, "lfru": 1, "lfrus": 1}

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        preset = get_preset("grouped-4.1")
        self.scale, self.horizon = (0.2, 500.0) if tiny else (1.0, 1e4)
        self.trace = preset.build_trace(self.scale, seed, self.horizon)
        self.model = preset.build_model(self.scale)

    def plan(self, p):
        scale = ["--scale", repr(self.scale)]
        self.cli_pipeline(p, "grouped-4.1", scale + ["--horizon", repr(self.horizon)],
                          scale + (["--horizon", "500"] if self.tiny else []),
                          {"generate": 4, "simulate": 2, "reproduce": 1})
        for spec in REPLAY_SPECS:
            self.replay(p, lambda: self.trace, spec, self.FRACS, self.REPS[_kind(spec)])
        self.curve(p, self.model, reps=6)


class ToroidCli(Workload):
    """The generate -> simulate -> reproduce CLI pipeline on toroid-trace1."""

    name = "toroid-cli"
    SIM_SPEC, SIM_FRAC, SIM_LOCAL = "lfru:w=20", 0.02, 0.05
    FRACS = (0.02,)
    # Replays are kept few so that generation stays the largest cost.  A pass
    # takes 21-31 s (reproduce alone 11-13 s), so a run makes one or two.
    REPS = {"lru": 6, "sieve": 4, "belady": 4, "lfru": 4, "lfrus": 2, "lfu": 3}

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.scale = ["--scale", repr(0.05 if tiny else 1.0)]
        # Toroid presets have no analytic model, so model_curve_s here times
        # the grouped-4.1 curve as a control that no toroid change should
        # move; its model-vs-simulation gap uses a small grouped trace.
        grouped = get_preset("grouped-4.1")
        g_scale = 0.2 if tiny else 1.0
        self.model = grouped.build_model(g_scale)
        control = grouped.build_trace(g_scale, seed, 500.0 if tiny else 2000.0)
        volume = control.catalog.total_volume()
        self._control_ratio = {
            f: engine.simulate(control, parse_policy_spec("lru"), CacheConfig(f * volume)).hit_ratio
            for f in (0.005, 0.02)
        }
        self.replayed = None  # the generated trace, read back once

    def plan(self, p):
        self.cli_pipeline(p, "toroid-trace1", self.scale, self.scale,
                          {"generate": 2, "simulate": 4, "reproduce": 1})
        if self.replayed is None:
            # untimed, on the first pass (never traced): later generate
            # calls must write the same bytes, which cli_verb checks
            def read(r):
                self.replayed = trace_mod.read_trace(self.path("trace.txt"))

            p.add(1, read, first=True)
        for spec in REPLAY_SPECS:
            self.replay(p, lambda: self.replayed, spec, self.FRACS, self.REPS[_kind(spec)])
        self.curve(p, self.model, reps=8)

    def after_pass(self, p):
        self.max_abs_err = self.model_gap(self._control_ratio)


WORKLOADS = {w.name: w for w in (GroupedReplay, ToroidCli)}
