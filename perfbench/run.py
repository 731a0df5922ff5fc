"""corrcache benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload grouped-replay --seed 1 --seconds 45 --trace 0

Run it from the root of a corrcache checkout; it imports the package from
``src/`` of that checkout and nothing else.  A run sets up the workload's
inputs, then makes round(seconds / first pass time) passes over its timed
ops (at least one; two when traced), checking every output.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics plus the tracing overhead.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each end-to-end timing is a
whole-run figure: total seconds over the run's calls (or total work over
total seconds, for throughputs), printed beside the median and tail of its
per-call samples.  ``--tiny`` shrinks every input so that a run takes
seconds (for the benchmark's own tests).

Run records, output digests and spans go to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
SETUP_PROBES = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    **{f"replay_eps.{k}": "events/s" for k in ("lru", "lfu", "sieve", "belady", "lfru", "lfrus")},
    "cli.generate_s": "s",
    "cli.simulate_s": "s",
    "cli.reproduce_s": "s",
    "model_curve_s": "s",
    "peak_rss_mb": "MB",
}


def _import_corrcache():
    """Import corrcache from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "corrcache", "__init__.py")):
        sys.exit(f"error: no corrcache sources under {SRC}")
    sys.path.insert(0, SRC)
    import corrcache

    if os.path.dirname(os.path.abspath(corrcache.__file__)) != os.path.join(SRC, "corrcache"):
        sys.exit(f"error: imported corrcache from {corrcache.__file__}, not {SRC}")


class Run:
    """Op bookkeeping and output checks for one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[tuple[int, str], str] = {}
        self.reference: dict[str, object] = {}
        self.seen: dict[str, int] = {}  # outputs compared so far, per op key
        self.pass_no = 0
        self.tracer = None  # set during traced passes; spans carry the op id

    def op(self, key: str, fn, *args):
        """Time one op; an op that raises counts as failed."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        t = perf_counter()
        try:
            out = fn(*args)
        except Exception as e:  # the run must go on and report the failure
            dt = perf_counter() - t
            self.fail(key, f"raised {type(e).__name__}: {e}")
            return None, dt
        return out, perf_counter() - t

    def fail(self, key: str, message: str) -> None:
        self.failures.setdefault((self.pass_no, key), message)

    def expect_same(self, key: str, value) -> None:
        """Outputs of an op must repeat exactly on every repetition and pass."""
        value = json.loads(json.dumps(value))
        ref = self.reference.setdefault(key, value)
        self.seen[key] = self.seen.get(key, 0) + 1
        if ref != value:
            self.fail(key, f"output differs from its first run: {value!r} != {ref!r}")

    def seen_once(self) -> list[str]:
        """Ops whose outputs had nothing to be compared with in this run."""
        return sorted(k for k, n in self.seen.items() if n == 1)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def digest(self) -> str:
        blob = json.dumps(self.reference, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _probe_setup(args) -> float:
    """Seconds for a fresh interpreter to import corrcache and build the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    t = perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT, timeout=120, stdout=subprocess.DEVNULL)
    return perf_counter() - t


def _tail_summary(values: list[float]) -> str:
    """Median, plus the highest percentile with ten samples beyond it."""
    n = len(values)
    if n >= 20:
        q = int(100 * (1 - 10 / n))
        tail = f"p{q}={statistics.quantiles(values, n=100)[q - 1]:.6g}"
    else:
        tail = f"max={max(values):.6g} (n<20: no percentile has 10 samples beyond it)"
    return f"median of n={n}, {tail}"


def measure(args) -> dict:
    from cases import WORKLOADS
    from tracing import LAYER_UNITS, Tracer, layer_metrics

    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    setup_samples = []
    if not args.trace:
        setup_samples = [_probe_setup(args) for _ in range(SETUP_PROBES)]
    work = WORKLOADS[args.workload](args.seed, args.tiny, workdir)

    run = Run()
    e2e: dict[str, list[float]] = {}
    totals: dict[str, list[float]] = {}  # metric -> [seconds, repetitions, work]
    layers: dict[str, list[float]] = {}
    walls: dict[bool, list[float]] = {False: [], True: []}
    spans: list[dict] = []
    planned = None
    while True:
        traced = bool(args.trace) and run.pass_no % 2 == 1
        tracer = Tracer()
        run.tracer = tracer if traced else None
        with tracer.installed() if traced else contextlib.nullcontext():
            t = perf_counter()
            vals, pass_totals = work.run_pass(run)
            walls[traced].append(perf_counter() - t)
        if run.pass_no == 0:
            work.verify_once(run)
        if traced:
            for k, v in layer_metrics(tracer).items():
                layers.setdefault(k, []).append(v)
            spans.extend(tracer.to_records())
        else:
            for k, v in vals.items():
                e2e.setdefault(k, []).extend(v)
            for k, (secs, reps, w) in pass_totals.items():
                acc = totals.setdefault(k, [0.0, 0, 0.0])
                acc[0] += secs
                acc[1] += reps
                acc[2] += w * reps
        run.pass_no += 1
        if planned is None:
            # as many whole passes as fit the run length, so that the pass
            # count does not flip when a pass ends just before a deadline
            planned = max(1 + args.trace, round(args.seconds / walls[False][0]))
        if run.pass_no >= planned:
            break

    if args.trace:
        metrics = {k: (statistics.median(v), LAYER_UNITS[k]) for k, v in layers.items()}
        metrics["analysis.max_abs_err"] = (work.max_abs_err, "ratio")
        overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1
        metrics["bench.trace_overhead_frac"] = (overhead, "ratio")
        samples = layers
        with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.jsonl"), "w") as fh:
            for rec in spans:
                fh.write(json.dumps(rec) + "\n")
    else:
        e2e["wall_s"] = walls[False]
        e2e["setup_s"] = setup_samples
        totals["wall_s"] = [sum(walls[False]), len(walls[False]), 0.0]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # On a shared VM the CPU flips between a fast and a slow mode for
        # seconds to minutes, so the median of short calls jumps between the
        # two modes; a total over the run moves smoothly with their mix.
        metrics = {k: (w / secs if w else secs / reps, END_TO_END[k])
                   for k, (secs, reps, w) in totals.items()}
        metrics["setup_s"] = (statistics.median(setup_samples), "s")
        metrics["peak_rss_mb"] = (rss_mb, "MB")
        samples = e2e
    return {"run": run, "metrics": metrics, "samples": samples, "workdir": workdir}


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs: every op and check in seconds")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds is None:
        with open(BENCHMARK_JSON) as fh:
            args.seconds = json.load(fh)["run_seconds"]

    _import_corrcache()
    sys.path.insert(0, HERE)
    from cases import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.setup_probe:
        os.makedirs(OUT, exist_ok=True)
        WORKLOADS[args.workload](args.seed, args.tiny, OUT)
        return 0

    res = measure(args)
    run, metrics = res["run"], res["metrics"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' tiny' if args.tiny else ''}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        line = f"  {name} = {value:.6g} {unit}"
        if name in res["samples"]:
            line += f"  [{_tail_summary(res['samples'][name])}]"
        print(line)
    print(f"ops attempted={run.attempted} failed={run.failed}")
    if run.seen_once():
        print(f"  run once, outputs not compared: {', '.join(run.seen_once())}")
    for (pass_no, key), message in sorted(run.failures.items()):
        print(f"  FAILED pass {pass_no} {key}: {message}")
    digest = run.digest()
    print(f"output digest {digest}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "tiny": args.tiny,
        "environment": environment(), "digest": digest, "outputs": run.reference,
        "samples": res["samples"], "attempted": run.attempted, "failed": run.failed,
        "seen_once": run.seen_once(),
        "failures": [f"pass {p} {k}: {m}" for (p, k), m in sorted(run.failures.items())],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    shutil.rmtree(res["workdir"], ignore_errors=True)

    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
