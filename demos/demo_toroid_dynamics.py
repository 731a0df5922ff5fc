"""Show how group dynamics interact with the follow window and smoothing.

On the toroidal random-walk workload, clients follow whoever is nearby, so
the follow structure drifts over time.  When follower delays are pair-swapped
every 50 slots, a short follow window adapts faster than a long one; when
followers re-pick their leader every 50 slots, geometric smoothing of the
follow counts helps again.

Run:  python3 demos/demo_toroid_dynamics.py
"""

from __future__ import annotations

import numpy as np

from corrcache.harness import CapacityGrid, ExperimentConfig, run_sweep
from corrcache.policies import PolicyParams

SCALE, SEEDS = 0.5, (1, 2, 3)


def mean_ratios(preset: str, policies: tuple[PolicyParams, ...]) -> dict[str, float]:
    config = ExperimentConfig(
        trace=f"preset:{preset}",
        policies=policies,
        capacities=CapacityGrid((0.05,), "volume"),
        seeds=SEEDS,
        scale=SCALE,
    )
    rows = run_sweep(config).rows
    return {
        label: float(np.mean([r.hit_ratio for r in rows if r.policy == label]))
        for label in {r.policy for r in rows}
    }


def main() -> None:
    shuffle = mean_ratios(
        "toroid-shuffle",
        (PolicyParams("lfru", window=2), PolicyParams("lfru", window=20)),
    )
    print("toroid-shuffle (follower delays pair-swapped every 50 slots):")
    for label in ("lfru(w=2)", "lfru(w=20)"):
        print(f"  {label:<14} mean hit ratio {shuffle[label]:.4f}")
    print("  -> the short window tracks the swapped delays better\n")

    switch = mean_ratios(
        "toroid-switch",
        (PolicyParams("lfrus", window=2, gamma=0.5), PolicyParams("lfru", window=2)),
    )
    print("toroid-switch (followers re-pick their leader every 50 slots):")
    for label in ("lfrus(w=2,g=0.5)", "lfru(w=2)"):
        print(f"  {label:<16} mean hit ratio {switch[label]:.4f}")
    print("  -> discounting stale follow events gives a small but consistent edge")


if __name__ == "__main__":
    main()
