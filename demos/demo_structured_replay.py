"""Structured follower delays: the all-or-nothing hit regime.

With constant ordered delays (follower i replays the leader exactly i*step
time units later), follower hit probability under LRU is a step function of
cache capacity: once the characteristic time exceeds the step, every
follower request hits; below that, followers do no better than the
working-set probability of the delay window.  The same replay structure is
what the follow matrix of the follow-aware policies picks up.

Run:  python3 demos/demo_structured_replay.py
"""

from __future__ import annotations

import numpy as np

from corrcache.analysis import WorkingSetModel
from corrcache.engine import CacheConfig, simulate
from corrcache.policies import PolicyParams, follow_matrix_csv
from corrcache.workloads import GroupSpec, StructuredDelays, gen_grouped_trace

STEP = 4.0


def main() -> None:
    spec = GroupSpec(1, 80, 8.0, 0.9, 2, StructuredDelays(STEP))
    model = WorkingSetModel.from_group_specs((spec,))
    trace = gen_grouped_trace((spec,), horizon=1500.0, seed=2)
    threshold = model.expected_cached_volume(STEP)
    print(f"one group, 80 objects, 2 followers at delays {STEP:g} and {2 * STEP:g}")
    print(f"expected cached volume at the delay step: {threshold:.2f} objects\n")

    for label, capacity in (("above", 1.3 * threshold), ("below", 0.6 * threshold)):
        solution = model.solve_characteristic_time(capacity)
        per_client = simulate(
            trace, PolicyParams("lru"), CacheConfig(capacity=capacity)
        ).per_client()
        ratios = [per_client[c][1] / per_client[c][0] for c in (2, 3)]
        report = model.hit_report(capacity).groups[0]
        predicted = float(np.sum(report.rates * report.follower_list[0]) / np.sum(report.rates))
        print(f"capacity {capacity:6.2f} ({label} the step threshold): "
              f"t* = {solution.t_star:5.2f}")
        print(f"  follower hit ratios {[round(r, 3) for r in ratios]} "
              f"vs model {predicted:.3f}")

    lfru = simulate(trace, PolicyParams("lfru", window=8), CacheConfig(capacity=1.3 * threshold))
    print(f"\nfollow matrix recorded by {lfru.policy} on the same trace")
    print("(client 1 is the leader; 2 and 3 replay it):")
    print(follow_matrix_csv(lfru.follow_counts), end="")


if __name__ == "__main__":
    main()
