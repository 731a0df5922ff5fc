"""Acceptance gate: one test per numbered shipping criterion.

Every test evaluates its criterion at the stated tolerance and emits exactly
one ``criterion NN PASS/FAIL`` line (echoed after the pytest summary via the
hook in conftest.py, so the verdicts survive output capture).  Workload
scales, horizons, seeds, and capacity fractions are frozen so reruns are
deterministic; the two simulation-heavy fidelity checks dominate the
module's runtime.
"""

from __future__ import annotations

import math
import time

import numpy as np

import conftest as _shared
from conftest import NAIVE, make_trace, random_unit_trace, unpacked_eviction_objects

from corrcache import cli
from corrcache.analysis import WorkingSetModel
from corrcache.engine import CacheConfig, simulate
from corrcache.harness import CapacityGrid, ExperimentConfig, run_sweep
from corrcache.policies import (
    LFRUPolicy,
    LFRUSPolicy,
    PolicyParams,
    static_optimal_select,
)
from corrcache.presets import get_preset
from corrcache.workloads import (
    GroupSpec,
    StructuredDelays,
    gen_grouped_trace,
    group_clients,
)


def record(num: int, title: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} [{title}] {detail}"
    print(line)
    _shared.ACCEPTANCE_LINES.append(line)
    assert ok, line


def pair_table(metrics) -> dict[tuple[int, int], tuple[int, int]]:
    """(client, object) -> (requests, hits), versions collapsed."""
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for c, o, r, h in zip(
        metrics.pair_clients.tolist(),
        metrics.pair_objects.tolist(),
        metrics.pair_requests.tolist(),
        metrics.pair_hits.tolist(),
    ):
        pr, ph = out.get((c, o), (0, 0))
        out[(c, o)] = (pr + r, ph + h)
    return out


# ---------------------------------------------------------------------------
# 1. model-vs-simulation fidelity on the three-group mixed-size overlay
# ---------------------------------------------------------------------------


def test_criterion_01_overlay_fidelity():
    started = time.perf_counter()
    preset = get_preset("fig2-setup")
    scale, horizon, seed = 0.3, 62500.0, 1
    trace = preset.build_trace(scale=scale, seed=seed, horizon=horizon)
    model = preset.build_model(scale)
    capacity = 0.05 * model.total_volume()  # mid-range preset fraction

    roles = group_clients(preset.groups(scale))
    leader_counts = [int(np.sum(trace.clients == leader)) for leader, _ in roles]

    metrics = simulate(trace, PolicyParams("lru"), CacheConfig(capacity=capacity))
    report = model.hit_report(capacity)
    table = pair_table(metrics)

    worst = 0.0
    cells = 0
    empty_cells = 0
    for g, (leader, followers) in zip(report.groups, roles):
        top = np.argsort(-g.rates, kind="stable")[:20]
        columns = [(leader, g.leader)]
        columns += [(fc, g.follower_list[fi]) for fi, fc in enumerate(followers)]
        for client, predicted in columns:
            for j in top:
                req, hit = table.get((client, int(g.object_ids[j])), (0, 0))
                if req == 0:
                    empty_cells += 1
                    continue
                worst = max(worst, abs(hit / req - float(predicted[j])))
                cells += 1
    elapsed = time.perf_counter() - started

    ok = (
        worst <= 0.03
        and cells == 320
        and empty_cells == 0
        and min(leader_counts) >= 500_000
        and elapsed <= 120.0
    )
    record(
        1,
        "grouped-overlay model fidelity",
        ok,
        f"max |sim-model| = {worst:.4f} over {cells} client/object cells (tol 0.03); "
        f"leader arrivals {leader_counts} (each >= 5e5); runtime {elapsed:.1f}s (limit 120s)",
    )


# ---------------------------------------------------------------------------
# 2. structured-delay follower hit probability in both solver regimes
# ---------------------------------------------------------------------------


def test_criterion_02_structured_follower_exactness():
    delta = 5.0
    spec = GroupSpec(1, 200, 20.0, 1.0, 3, StructuredDelays(delta))
    model = WorkingSetModel.from_group_specs((spec,))
    volume_at_delta = model.expected_cached_volume(delta)
    trace = gen_grouped_trace((spec,), horizon=3000.0, seed=1)
    followers = (2, 3, 4)

    def follower_ratios(capacity: float) -> list[float]:
        per_client = simulate(
            trace, PolicyParams("lru"), CacheConfig(capacity=capacity)
        ).per_client()
        return [per_client[c][1] / per_client[c][0] for c in followers]

    cap_above = 1.3 * volume_at_delta
    t_above = model.solve_characteristic_time(cap_above).t_star
    ratios_above = follower_ratios(cap_above)

    cap_below = 0.6 * volume_at_delta
    t_below = model.solve_characteristic_time(cap_below).t_star
    ratios_below = follower_ratios(cap_below)
    g = model.hit_report(cap_below).groups[0]
    # per-request expectation: rate-weighted mean of the per-object vector
    expected_below = float(np.sum(g.rates * g.follower_list[0]) / np.sum(g.rates))

    ok = (
        t_above > delta
        and min(ratios_above) >= 0.98
        and t_below <= delta
        and all(abs(r - expected_below) <= 0.03 for r in ratios_below)
    )
    record(
        2,
        "structured-delay follower exactness",
        ok,
        f"step {delta}: t*={t_above:.3f} > step -> follower ratios "
        f"{[round(r, 4) for r in ratios_above]} (all >= 0.98); "
        f"t*={t_below:.3f} <= step -> ratios {[round(r, 4) for r in ratios_below]} "
        f"vs rate-weighted model {expected_below:.4f} (tol 0.03)",
    )


# ---------------------------------------------------------------------------
# 3. trend ordering in delay spread and in follower count
# ---------------------------------------------------------------------------


def _trend_case(
    preset_name: str,
    scale: float,
    cap_frac: float,
    horizon: float,
    seeds: tuple[int, ...],
    direction: int,
    min_followers: int,
):
    """Check the follower-probability ordering across a preset's variants.

    Tested objects are the five with the best deterministic detectability
    score: (smallest adjacent model gap) * sqrt(leader rate * followers *
    horizon * seeds), i.e. the expected gap measured in binomial standard
    errors.  Selection uses the model only, never the simulated data.
    """
    preset = get_preset(preset_name)
    variants = preset.variants
    capacity = cap_frac * preset.build_model(scale, variant=variants[0]).total_volume()

    model_cols = []
    ids = rates = None
    for v in variants:
        g = preset.build_model(scale, variant=v).hit_report(capacity).groups[0]
        model_cols.append(np.mean(np.stack(g.follower_list), axis=0))
        ids, rates = g.object_ids, g.rates
    margins = np.minimum.reduce(
        [direction * (b - a) for a, b in zip(model_cols, model_cols[1:])]
    )
    score = margins * np.sqrt(rates * min_followers * horizon * len(seeds))
    tested = np.argsort(-score, kind="stable")[:5]

    sim_cols = []
    for v in variants:
        req = np.zeros(len(ids))
        hits = np.zeros(len(ids))
        follower_set = set(group_clients(preset.groups(scale, variant=v))[0][1])
        index_of = {int(o): k for k, o in enumerate(ids.tolist())}
        for s in seeds:
            tr = preset.build_trace(scale=scale, seed=s, horizon=horizon, variant=v)
            m = simulate(tr, PolicyParams("lru"), CacheConfig(capacity=capacity))
            for c, o, r, h in zip(
                m.pair_clients.tolist(),
                m.pair_objects.tolist(),
                m.pair_requests.tolist(),
                m.pair_hits.tolist(),
            ):
                if c in follower_set:
                    k = index_of[o]
                    req[k] += r
                    hits[k] += h
        assert req[tested].min() > 0, "tested objects must be observed"
        sim_cols.append(hits / np.maximum(req, 1.0))

    model_margin = float(margins[tested].min())
    sim_margin = min(
        direction * float(b[k] - a[k])
        for a, b in zip(sim_cols, sim_cols[1:])
        for k in tested
    )
    values = {
        variants[i]: [round(float(sim_cols[i][k]), 4) for k in tested]
        for i in range(len(variants))
    }
    return [int(i) for i in ids[tested]], model_margin, sim_margin, values


def test_criterion_03_trend_ordering():
    spread_ids, spread_model, spread_sim, spread_vals = _trend_case(
        "fig3a-setup", 0.1, 0.35, 30000.0, (1, 2, 3), direction=-1, min_followers=4
    )
    count_ids, count_model, count_sim, count_vals = _trend_case(
        "fig3b-setup", 0.04, 0.7, 40000.0, (1, 2, 3), direction=+1, min_followers=2
    )
    ok = spread_model > 0 and spread_sim >= 0 and count_model > 0 and count_sim >= 0
    record(
        3,
        "delay-spread and follower-count trend ordering",
        ok,
        f"spread case objects {spread_ids}: model margin {spread_model:.4f}, "
        f"sim margin {spread_sim:.4f}, values {spread_vals}; "
        f"count case objects {count_ids}: model margin {count_model:.4f}, "
        f"sim margin {count_sim:.4f}, values {count_vals}",
    )


# ---------------------------------------------------------------------------
# 4. characteristic-time crossing capacities on the full grouped config
# ---------------------------------------------------------------------------


def test_criterion_04_characteristic_time_crossings():
    model = get_preset("grouped-4.1").build_model(1.0)
    volume = model.total_volume()
    targets = {10.0: 0.02, 20.0: 0.032, 30.0: 0.038}
    fractions = {}
    inversion_ok = True
    for t_cross, _ in targets.items():
        capacity = model.expected_cached_volume(t_cross)
        solved = model.solve_characteristic_time(capacity).t_star
        inversion_ok &= abs(solved - t_cross) <= 1e-4 * t_cross
        fractions[t_cross] = capacity / volume
    ok = inversion_ok and all(
        abs(fractions[t] - target) <= 0.005 for t, target in targets.items()
    )
    shown = {t: f"{100 * f:.3f}%" for t, f in fractions.items()}
    record(
        4,
        "characteristic-time crossing capacities",
        ok,
        f"t* crosses 10/20/30 at {shown} vs targets 2%/3.2%/3.8% (tol 0.5pp); "
        f"solver inverts each capacity back to its crossing time",
    )


# ---------------------------------------------------------------------------
# 5. offline-optimal dominance on every unit-size preset trace
# ---------------------------------------------------------------------------

CRITERION5_CASES = (
    ("grouped-4.1", 0.34, 600.0),
    ("fig2-setup", 0.1, 300.0),  # mixed sizes: skipped by the unit-size guard
    ("fig3-setup", 0.1, 300.0),
    ("fig3a-setup", 0.1, 300.0),
    ("fig3b-setup", 0.04, 400.0),
    ("toroid-trace1", 0.2, 100.0),
    ("toroid-shuffle", 0.2, 100.0),
    ("toroid-switch", 0.2, 100.0),
    ("toroid-versioned", 0.2, 100.0),  # tiered sizes: skipped
)


def test_criterion_05_offline_optimal_dominance():
    online = (
        PolicyParams("lru"),
        PolicyParams("lfu"),
        PolicyParams("sieve"),
        PolicyParams("lfru", window=20),
        PolicyParams("lfrus", window=2, gamma=0.5),
    )
    checked = 0
    skipped = []
    violations = []
    for name, scale, horizon in CRITERION5_CASES:
        preset = get_preset(name)
        trace = preset.build_trace(scale=scale, seed=1, horizon=horizon)
        if not trace.catalog.unit_sized():
            skipped.append(name)
            continue
        volume = trace.catalog.total_volume()
        for frac in preset.capacity_fractions:
            config = CacheConfig(capacity=frac * volume)
            best = simulate(trace, PolicyParams("belady"), config).hits
            for params in online:
                hits = simulate(trace, params, config).hits
                checked += 1
                if best < hits:
                    violations.append((name, frac, params.label(), best, hits))
    ok = not violations and checked == 115 and sorted(skipped) == [
        "fig2-setup",
        "toroid-versioned",
    ]
    record(
        5,
        "offline-optimal dominance",
        ok,
        f"belady hits >= online hits in all {checked} policy/capacity cells over "
        f"{len(CRITERION5_CASES) - len(skipped)} unit-size preset traces "
        f"(non-unit skipped: {sorted(skipped)}); violations: {violations or 'none'}",
    )


# ---------------------------------------------------------------------------
# 6. follow-aware advantage at small capacities on the grouped preset
# ---------------------------------------------------------------------------


def test_criterion_06_follow_aware_advantage():
    config = ExperimentConfig(
        trace="preset:grouped-4.1",
        policies=(PolicyParams("lru"), PolicyParams("lfru", window=20)),
        capacities=CapacityGrid((0.001, 0.003, 0.005, 0.01, 0.02), "volume"),
        seeds=(1, 2, 3),
        horizon=12000.0,
    )
    report = run_sweep(config)
    ratios: dict[tuple[str, float], dict[int, float]] = {}
    for row in report.rows:
        kind = "lru" if row.policy == "lru" else "lfru"
        ratios.setdefault((kind, row.capacity), {})[row.seed] = row.hit_ratio
    capacities = sorted({cap for _, cap in ratios})
    small = capacities[:3]  # the 0.1-0.5% volume fractions

    pooled_lru = np.mean([r for c in small for r in ratios[("lru", c)].values()])
    pooled_lfru = np.mean([r for c in small for r in ratios[("lfru", c)].values()])
    pooled_multiplier = pooled_lfru / pooled_lru

    multipliers = {}
    within_2se = True
    for cap in capacities:
        lru = ratios[("lru", cap)]
        lfru = ratios[("lfru", cap)]
        diff = np.array([lfru[s] - lru[s] for s in sorted(lru)])
        se = diff.std(ddof=1) / np.sqrt(len(diff))
        within_2se &= diff.mean() >= -2.0 * se
        multipliers[cap] = float(np.mean(list(lfru.values())) / np.mean(list(lru.values())))
    best = max(multipliers.values())

    ok = pooled_multiplier >= 1.5 and within_2se
    shown = {f"{cap:g}": round(m, 2) for cap, m in sorted(multipliers.items())}
    record(
        6,
        "follow-aware advantage at small capacities",
        ok,
        f"pooled multiplier over the three smallest capacities {pooled_multiplier:.2f}x "
        f"(>= 1.5x); per-capacity multipliers {shown}; realized max {best:.2f}x "
        f"(recorded against the 2.9x/1.9x full-scale claims, not required here); "
        f"lfru >= lru within 2 standard errors at every capacity: {within_2se}",
    )


# ---------------------------------------------------------------------------
# 7. victim-sequence equivalence against naive references
# ---------------------------------------------------------------------------


def test_criterion_07_oracle_equivalence():
    mismatches = 0
    compared = 0
    for seed in range(100):
        trace = random_unit_trace(seed, 5000, 40, 6)
        objects = trace.objects.tolist()
        for kind in ("lru", "lfu", "belady"):
            metrics = simulate(
                trace, PolicyParams(kind), CacheConfig(capacity=12.0), record_evictions=True
            )
            ref_hits, ref_victims = NAIVE[kind](objects, 12)
            compared += 1
            if (
                unpacked_eviction_objects(metrics) != ref_victims
                or metrics.hits != sum(ref_hits)
            ):
                mismatches += 1
    ok = mismatches == 0 and compared == 300
    record(
        7,
        "victim-sequence oracle equivalence",
        ok,
        f"{compared} victim sequences (100 random unit traces x lru/lfu/belady, "
        f"5000 events each) match the naive references exactly; mismatches: {mismatches}",
    )


# ---------------------------------------------------------------------------
# 8. static-selection objective equals exhaustive enumeration
# ---------------------------------------------------------------------------


def _enumerate_best(weights: np.ndarray, sizes: np.ndarray, budget: float) -> float:
    n = len(weights)
    best = 0.0  # the empty selection is always feasible
    shifts = np.arange(n)
    for start in range(0, 1 << n, 1 << 16):
        masks = np.arange(start, min(start + (1 << 16), 1 << n), dtype=np.int64)
        bits = ((masks[:, None] >> shifts) & 1).astype(np.float64)
        values = bits @ weights
        values[bits @ sizes > budget] = -1.0
        best = max(best, float(values.max()))
    return best


def test_criterion_08_static_selection_exactness():
    rng = np.random.default_rng(8)
    checked = 0
    violations = 0
    inexact = 0
    for _ in range(200):
        n = int(rng.integers(1, 21))
        keys = list(range(1, n + 1))
        weights = {k: float(rng.integers(1, 65)) for k in keys}
        if rng.random() < 0.25:
            sizes = {k: 2.0 for k in keys}  # equal-size top-k path
        else:
            sizes = {k: float(rng.integers(1, 9)) for k in keys}
        budget = float(rng.integers(1, int(sum(sizes.values())) + 2))
        selection = static_optimal_select(weights, sizes, budget)
        inexact += 0 if selection.exact else 1
        w = np.array([weights[k] for k in keys])
        s = np.array([sizes[k] for k in keys])
        best = _enumerate_best(w, s, budget)
        picked_size = sum(sizes[k] for k in selection.keys)
        picked_value = sum(weights[k] for k in selection.keys)
        checked += 1
        if selection.value != best or picked_value != selection.value or picked_size > budget:
            violations += 1
    ok = violations == 0 and inexact == 0 and checked == 200
    record(
        8,
        "static-selection exactness",
        ok,
        f"{checked} random instances (catalog <= 20, integer weights/sizes): selection "
        f"objective equals exhaustive enumeration exactly; violations {violations}, "
        f"inexact flags {inexact}",
    )


# ---------------------------------------------------------------------------
# 9. degeneracy identities and follow-matrix checkpoint consistency
# ---------------------------------------------------------------------------


class _CheckpointedLFRU(LFRUPolicy):
    def __init__(self, window: int, checkpoints: set[int]):
        super().__init__(window)
        self._checkpoints = checkpoints
        self._event = 0
        self.visited = 0
        self.mismatches = 0

    def _recomputed(self):
        out: dict[tuple[int, int], int] = {}
        for c2, window in self.window_snapshot().items():
            for outcome in window:
                if outcome is not None:
                    out[(outcome, c2)] = out.get((outcome, c2), 0) + 1
        return out

    def on_request(self, i: int, client: int, key: int, hit: bool) -> None:
        super().on_request(i, client, key, hit)
        self._event += 1
        if self._event in self._checkpoints:
            self.visited += 1
            if self.follow_counts() != self._recomputed():
                self.mismatches += 1


class _CheckpointedLFRUS(LFRUSPolicy):
    def __init__(self, window: int, gamma: float, checkpoints: set[int]):
        super().__init__(window, gamma)
        self._checkpoints = checkpoints
        self._event = 0
        self.visited = 0
        self.mismatches = 0

    def _recomputed(self):
        sums: dict[tuple[int, int], float] = {}
        for c2, window in self.window_snapshot().items():
            for lag, outcome in enumerate(reversed(window)):
                if outcome is not None:
                    pair = (outcome, c2)
                    sums[pair] = sums.get(pair, 0.0) + self.gamma**lag
        return {k: math.floor(v) for k, v in sums.items() if math.floor(v)}

    def on_request(self, i: int, client: int, key: int, hit: bool) -> None:
        super().on_request(i, client, key, hit)
        self._event += 1
        if self._event in self._checkpoints:
            self.visited += 1
            if self.follow_counts() != self._recomputed():
                self.mismatches += 1


def test_criterion_09_degeneracy_and_checkpoints():
    # (a) smoothing with no discount reproduces the undiscounted policy
    identity_ok = True
    for trace in (
        get_preset("grouped-4.1").build_trace(scale=0.1, seed=7, horizon=2000.0),
        random_unit_trace(5, 8000, 60, 8),
    ):
        config = CacheConfig(capacity=0.03 * trace.catalog.total_volume())
        for window in (1, 3):
            a = simulate(
                trace,
                PolicyParams("lfrus", window=window, gamma=1.0),
                config,
                record_evictions=True,
            )
            b = simulate(
                trace, PolicyParams("lfru", window=window), config, record_evictions=True
            )
            identity_ok &= a.eviction_log == b.eviction_log and a.hits == b.hits

    # (b) with no hits there are no follow events, so eviction collapses to lru
    events = [(i / 10.0, (i % 5) + 1, i + 1) for i in range(4000)]
    hit_free = make_trace(events)
    config = CacheConfig(capacity=100.0)
    a = simulate(hit_free, PolicyParams("lfru", window=20), config, record_evictions=True)
    b = simulate(hit_free, PolicyParams("lru"), config, record_evictions=True)
    hit_free_ok = a.eviction_log == b.eviction_log and a.hits == b.hits == 0

    # (c) incremental follow matrix equals from-scratch window evaluation
    trace = random_unit_trace(21, 20000, 50, 6)
    rng = np.random.default_rng(9)
    checkpoints = set((rng.choice(20000, size=1000, replace=False) + 1).tolist())
    plain = _CheckpointedLFRU(4, checkpoints)
    simulate(trace, plain, CacheConfig(capacity=15.0))
    smoothed = _CheckpointedLFRUS(3, 0.7, checkpoints)
    simulate(trace, smoothed, CacheConfig(capacity=15.0))
    checkpoint_ok = (
        plain.visited == smoothed.visited == 1000
        and plain.mismatches == smoothed.mismatches == 0
    )

    ok = identity_ok and hit_free_ok and checkpoint_ok
    record(
        9,
        "degeneracy identities and follow-matrix checkpoints",
        ok,
        f"smoothed(gamma=1) == undiscounted event-level: {identity_ok}; "
        f"follow-aware on a hit-free trace == lru: {hit_free_ok}; "
        f"incremental == from-scratch at {plain.visited}+{smoothed.visited} "
        f"checkpoints with {plain.mismatches + smoothed.mismatches} mismatches",
    )


# ---------------------------------------------------------------------------
# 10. dynamics robustness on the shuffled and leader-switch toroid presets
# ---------------------------------------------------------------------------


def test_criterion_10_dynamics_robustness():
    means: dict[tuple[str, str], float] = {}
    for preset_name, policies in (
        ("toroid-shuffle", (PolicyParams("lfru", window=2), PolicyParams("lfru", window=20))),
        (
            "toroid-switch",
            (PolicyParams("lfrus", window=2, gamma=0.5), PolicyParams("lfru", window=2)),
        ),
    ):
        config = ExperimentConfig(
            trace=f"preset:{preset_name}",
            policies=policies,
            capacities=CapacityGrid((0.05,), "volume"),
            seeds=(1, 2, 3),
            scale=0.5,
        )
        for row in run_sweep(config).rows:
            key = (preset_name, row.policy)
            means[key] = means.get(key, 0.0) + row.hit_ratio / 3.0
    shuffle_short = means[("toroid-shuffle", "lfru(w=2)")]
    shuffle_long = means[("toroid-shuffle", "lfru(w=20)")]
    switch_smoothed = means[("toroid-switch", "lfrus(w=2,g=0.5)")]
    switch_plain = means[("toroid-switch", "lfru(w=2)")]
    ok = shuffle_short >= shuffle_long and switch_smoothed >= switch_plain
    record(
        10,
        "dynamics robustness",
        ok,
        f"shuffle preset: lfru(w=2) {shuffle_short:.4f} >= lfru(w=20) {shuffle_long:.4f}; "
        f"switch preset: lfrus(w=2,g=0.5) {switch_smoothed:.4f} >= lfru(w=2) "
        f"{switch_plain:.4f}; 3-seed means at the largest preset capacity",
    )


# ---------------------------------------------------------------------------
# 11. byte-identical reruns of generate / simulate / sweep
# ---------------------------------------------------------------------------


def test_criterion_11_end_to_end_determinism(tmp_path, capsys):
    generate = [
        "generate", "grouped-4.1", "--scale", "0.05", "--seed", "3", "--horizon", "400",
    ]
    traces = []
    for name in ("a.trace", "b.trace"):
        path = tmp_path / name
        assert cli.main(generate + ["--out", str(path)]) == 0
        traces.append(path.read_bytes())
    generate_ok = traces[0] == traces[1]

    simulate_outputs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        code = cli.main([
            "simulate", "--trace", str(tmp_path / "a.trace"), "--policy", "lfru:w=4",
            "--capacity", "0.01", "--capacity-base", "volume", "--out", str(out),
        ])
        assert code == 0
        simulate_outputs.append(
            tuple((out / f).read_bytes() for f in ("metrics.csv", "summary.json"))
        )
    simulate_ok = simulate_outputs[0] == simulate_outputs[1]

    sweep_cfg = tmp_path / "sweep.cfg"
    sweep_cfg.write_text(
        "preset = grouped-4.1\npolicies = lru, lfru:w=4\n"
        "capacities = 0.5%, 1%\nseeds = 1, 2\nscale = 0.05\nhorizon = 300\n"
    )
    sweep_outputs = []
    for name in ("w1", "w2"):
        out = tmp_path / name
        assert cli.main(["sweep", str(sweep_cfg), "--out", str(out)]) == 0
        sweep_outputs.append(
            tuple(
                (out / f).read_bytes()
                for f in ("sweep.csv", "comparison.csv", "capacity-summary.csv")
            )
        )
    sweep_ok = sweep_outputs[0] == sweep_outputs[1]
    capsys.readouterr()

    ok = generate_ok and simulate_ok and sweep_ok
    record(
        11,
        "end-to-end determinism",
        ok,
        f"byte-identical reruns -- generate: {generate_ok}, simulate: {simulate_ok}, "
        f"sweep: {sweep_ok}",
    )
