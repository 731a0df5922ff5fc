"""Measure every workload twice over several seeds and write perfbench/baseline.json.

    python3 perfbench/baseline.py --seeds 1-10

Makes two sets of runs of the same code, one after the other.  A set is,
for every workload, one untraced run per seed (end-to-end metrics: median,
quartiles and their spread, (q3 - q1) / median, over the seeds) and one
traced run on the first seed (per-layer metrics).  Runs are sequential and
last ``run_seconds`` of BENCHMARK.json.  For every end-to-end metric the
record then gives how much worse the second set's median is than the
first's, against the metric's bound.  Each run's output digest is kept too,
so that a later commit can be checked for byte-identical simulated outputs
seed by seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    digest = next(l.split()[-1] for l in out.stdout.splitlines() if l.startswith("output digest"))
    return {**result, "digest": digest}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _measure_set(workload: str, seeds: list[int], seconds: int) -> dict:
    runs = []
    for seed in seeds:
        r = _run(workload, seed, seconds, 0)
        runs.append(r)
        print(f"{workload} seed {seed}: correct={r['correct']} failed={r['failed']}", flush=True)
    e2e = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        e2e[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}
    traced = _run(workload, seeds[0], seconds, 1)
    return {
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "digests": {str(s): r["digest"] for s, r in zip(seeds, runs)},
        "end_to_end": e2e,
        "per_layer": {"seed": seeds[0], "failed": traced["failed"],
                      **{k: v["value"] for k, v in traced["metrics"].items()}},
    }


def _agreement(sets: list[dict], bench: dict) -> dict:
    """Second set against the first: how much worse each median got, per bound."""
    out = {}
    for m in bench["end_to_end"]:
        a, b = (s["end_to_end"][m["name"]] for s in sets)
        ratio = b["median"] / a["median"]
        worse_by = ratio - 1 if m["better"] == "lower" else 1 / ratio - 1
        out[m["name"]] = {
            "bound": m["bound"], "median_ratio": ratio, "worse_by": worse_by,
            "spreads": [a["spread"], b["spread"]],
            "medians_agree": worse_by <= m["bound"],
            "steady": m["name"] == "setup_s" or max(a["spread"], b["spread"]) <= m["bound"],
        }
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = p.parse_args()
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from cases import WORKLOADS
    from run import BENCHMARK_JSON, environment

    with open(BENCHMARK_JSON) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    seeds = _seeds(args.seeds)
    sets = [{wl: _measure_set(wl, seeds, seconds) for wl in WORKLOADS} for _ in range(SETS)]
    doc = {"environment": environment(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for wl in WORKLOADS:
        mine = [s[wl] for s in sets]
        agree = _agreement(mine, bench)
        doc["workloads"][wl] = {
            "sets": mine,
            "digests_repeat": all(s["digests"] == mine[0]["digests"] for s in mine),
            "agreement": agree,
        }
        print(wl)
        for name, a in agree.items():
            print(f"  {name:20s} spreads {a['spreads'][0]:.3f} {a['spreads'][1]:.3f}"
                  f"  worse by {a['worse_by']:+.3f} (bound {a['bound']})"
                  f"{'' if a['medians_agree'] and a['steady'] else '  OUTSIDE BOUND'}")
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
