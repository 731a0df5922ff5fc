"""Sweep harness, comparisons, reproduction entry points, and the CLI."""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import re
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrcache import cli, engine, harness, presets
from corrcache.engine import (
    CacheConfig,
    ConfigurationError,
    ConsistencyError,
    config_digest,
    simulate,
)
from corrcache.harness import (
    CapacityGrid,
    ExperimentConfig,
    HarnessConfigError,
    SweepReport,
    SweepRow,
    _per_client_cell,
    _run_sweep,
    capacity_summary_csv,
    compare_policies,
    comparison_csv,
    parse_experiment_config,
    parse_kv_lines,
    reproduce,
    run_sweep,
    summarize_capacities,
)
from corrcache.policies import PolicyParams, build_policy, follow_matrix_csv, parse_policy_spec
from corrcache.presets import PresetError, get_preset, preset_names
from corrcache.trace import ObjectCatalog, Trace, read_trace, validate_trace, write_trace

from conftest import make_trace


# ---------------------------------------------------------------------------
# capacity grids
# ---------------------------------------------------------------------------


def test_capacity_grid_validation():
    with pytest.raises(HarnessConfigError, match="empty"):
        CapacityGrid(())
    with pytest.raises(HarnessConfigError, match="positive"):
        CapacityGrid((0.0, 1.0))
    with pytest.raises(HarnessConfigError, match="strictly increasing"):
        CapacityGrid((1.0, 1.0))
    with pytest.raises(HarnessConfigError, match="base"):
        CapacityGrid((1.0,), "bytes")


def test_capacity_grid_resolution_bases():
    # catalog volume 2+5+1=8; footprint = 2 distinct identities requested
    tr = make_trace([(1, 1, 1), (2, 1, 2)], sizes={1: 2.0, 2: 5.0, 3: 1.0})
    tr.catalog.add(3, 1.0)
    assert CapacityGrid((0.5,), "volume").resolve(tr) == (4.0,)
    assert CapacityGrid((0.5,), "footprint").resolve(tr) == (1.0,)
    assert CapacityGrid((7.0,), "absolute").resolve(tr) == (7.0,)


_IDS = [1, 2, 3, 7, 2**31, 2**32 - 1]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(_IDS), st.integers(-1, 3)), max_size=60),
    st.lists(st.tuples(st.sampled_from(_IDS), st.integers(-1, 3)), max_size=12),
    st.booleans(),
)
def test_footprint_base_counts_the_distinct_requested_identities(requested, catalogued, dense):
    # the catalog may lack requested identities and hold unrequested ones;
    # ids up to 2**32 - 1 make its rank lookup binary-search, ids up to 7
    # make it index a table
    if dense:
        requested = [(o, v) for o, v in requested if o <= 7]
        catalogued = [(o, v) for o, v in catalogued if o <= 7]
    catalog = ObjectCatalog({(o, None if v < 0 else v): 1.0 for o, v in catalogued})
    n = len(requested)
    tr = Trace(
        np.arange(n, dtype=np.float64),
        np.ones(n, dtype=np.int64),
        np.array([o for o, _ in requested], dtype=np.int64),
        np.array([v for _, v in requested], dtype=np.int64),
        catalog,
        {},
    )
    want = float(len(np.unique(tr.identity_keys())))
    assert CapacityGrid((1.0,), "footprint").resolve(tr) == (want,)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_kv_lines_comments_and_blanks():
    text = "# leading comment\n\na = 1  # trailing\n b = two \n"
    assert parse_kv_lines(text) == {"a": "1", "b": "two"}


@pytest.mark.parametrize(
    "text,match",
    [
        ("just words\n", "line 1: expected key = value"),
        ("a =\n", "line 1: empty key or value"),
        ("a = 1\na = 2\n", "line 2: duplicate key"),
    ],
)
def test_parse_kv_lines_errors(text, match):
    with pytest.raises(HarnessConfigError, match=match):
        parse_kv_lines(text)


FULL_CONFIG = """
# sweep over the main grouped preset
preset = grouped-4.1
policies = lru, lfru:w=4
capacities = 0.5%, 1%
seeds = 1, 2
scale = 0.02
horizon = 120
local_fraction = 0.0
"""


def test_parse_experiment_config_full():
    cfg = parse_experiment_config(FULL_CONFIG)
    assert cfg.trace == "preset:grouped-4.1"
    assert [p.label() for p in cfg.policies] == ["lru", "lfru(w=4)"]
    assert cfg.capacities.values == (0.005, 0.01)
    assert cfg.capacities.base == "volume"
    assert cfg.seeds == (1, 2) and cfg.scale == 0.02 and cfg.horizon == 120.0
    assert cfg.local_fraction == 0.0 and cfg.out_dir is None


@pytest.mark.parametrize(
    "text,match",
    [
        ("preset = x\npolicies = lru\ncapacities = 1\ncolor = red\n", "unknown config keys"),
        ("preset = x\ntrace = y\npolicies = lru\ncapacities = 1\n", "not both"),
        ("policies = lru\ncapacities = 1\n", "trace file or a preset"),
        ("preset = x\ncapacities = 1\n", "needs policies"),
        ("preset = x\npolicies = lru\n", "needs capacities"),
        ("preset = x\npolicies = lru\ncapacities = 1%, 5\n", "cannot mix"),
        (
            "preset = x\npolicies = lru\ncapacities = 1%\ncapacity_base = absolute\n",
            "conflict",
        ),
        (
            "preset = x\npolicies = lru\ncapacities = 5\ncapacity_base = footprint\n",
            "requires percent",
        ),
        ("preset = x\npolicies = fifo\ncapacities = 1\n", "unknown policy"),
        (
            "preset = x\npolicies = lfrus:w=20,g=0.5\ncapacities = 1\n",
            "policy 'g=0.5' is an option, not a policy; options are separated by ':'",
        ),
        ("preset = x\npolicies = lru\ncapacities = 1\nseeds = one\n", "integer"),
        ("preset = x\npolicies = lru\ncapacities = 1\nscale = big\n", "number"),
        ("preset = x\npolicies = lru, lfu, lru\ncapacities = 1\n", "repeat a label: lru"),
        (
            "preset = x\npolicies = lfrus:w=20:g=0.5, lfrus:window=20:gamma=0.50\ncapacities = 1\n",
            r"repeat a label: lfrus\(w=20,g=0.5\)",
        ),
    ],
)
def test_parse_experiment_config_errors(text, match):
    with pytest.raises(HarnessConfigError, match=match):
        parse_experiment_config(text)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def small_config(**over):
    base = dict(
        trace="preset:grouped-4.1",
        policies=(PolicyParams("lru"),),
        capacities=CapacityGrid((0.01,), "volume"),
        seeds=(1,),
        scale=0.02,
        horizon=100.0,
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_sweep_single_cell_single_row():
    report = run_sweep(small_config())
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.policy == "lru" and row.seed == 1
    assert 0.0 <= row.hit_ratio <= 1.0
    assert row.hits <= row.forwarded <= row.total_events
    assert report.digest and report.version


def test_sweep_is_byte_identical_on_repeat():
    cfg = small_config(policies=(PolicyParams("lru"), PolicyParams("lfu")), seeds=(1, 2))
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        run_sweep(cfg).to_csv(buf)
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]


def test_sweep_rows_in_configuration_order():
    cfg = small_config(
        policies=(PolicyParams("lfu"), PolicyParams("lru")),
        capacities=CapacityGrid((0.005, 0.02), "volume"),
        seeds=(2, 1),
    )
    report = run_sweep(cfg)
    assert [(r.policy, r.seed) for r in report.rows[:4]] == [
        ("lfu", 2), ("lfu", 1), ("lfu", 2), ("lfu", 1),
    ]
    assert [r.policy for r in report.rows[4:]] == ["lru"] * 4
    caps = [r.capacity for r in report.rows[:4]]
    assert caps[0] == caps[1] < caps[2] == caps[3]


def unsorted_times() -> Trace:
    tr = make_trace([(0, 1, 1), (1, 1, 2), (2, 1, 1), (3, 1, 2)])
    tr.times = np.array([3.0, 1.0, 2.0, 0.0])
    return tr


def nan_time() -> Trace:
    tr = make_trace([(0, 1, 1), (1, 1, 1)])
    tr.times[1] = float("nan")
    return tr


def client_descending_tie() -> Trace:
    tr = make_trace([(1, 1, 1), (1, 2, 1)])
    tr.clients = np.array([2, 1])
    return tr


def version_aliasing_another_identity() -> Trace:
    # (1, 255) packs into 1 << 8 | 256, the key of (1, None), which the catalog holds
    cat = ObjectCatalog({(1, None): 1.0})
    return Trace(np.array([0.0, 1.0]), np.array([1, 1]), np.array([1, 1]), np.array([-1, 255]), cat)


@pytest.mark.parametrize(
    "build,violation",
    [
        (unsorted_times, "unsorted at index 1"),
        (nan_time, "event 1: non-finite time"),
        (client_descending_tie, "unsorted at index 1"),
        (version_aliasing_another_identity, "event 1: version 255 outside the packable range"),
    ],
)
@pytest.mark.parametrize("local", [0.0, 0.2])
def test_invalid_traces_are_refused_by_every_entry_point(
    tmp_path, capsys, build, violation, local
):
    tr = build()
    report = validate_trace(tr)
    assert not report.ok and report.violations[0].startswith(violation)
    refused = re.escape("trace failed validation: " + violation)
    with pytest.raises(ConfigurationError, match=refused):
        simulate(tr, PolicyParams("lru"), CacheConfig(10.0, local_cache_fraction=local))
    path = tmp_path / "bad.trace"
    write_trace(tr, str(path))
    # the CLI leaves the check to simulate, past every capacity base
    for base in ("absolute", "volume", "footprint"):
        assert cli.main([
            "simulate", "--trace", str(path), "--capacity", "10", "--capacity-base", base,
            "--local-frac", str(local),
        ]) == 2
        assert capsys.readouterr().err.startswith("error: trace failed validation: " + violation)
    # a follow-matrix dump for a policy without one is refused before the trace
    assert cli.main([
        "simulate", "--trace", str(path), "--capacity", "10",
        "--dump-follow-matrix", str(tmp_path / "follow.csv"),
    ]) == 2
    assert "needs a follow-aware policy" in capsys.readouterr().err
    cfg = small_config(
        trace=str(path), capacities=CapacityGrid((10.0,), "absolute"), local_fraction=local
    )
    with pytest.raises(ConfigurationError, match=r"capacity=10\.0 seed=1: " + refused):
        run_sweep(cfg)


def test_sweep_config_error_names_offending_cell():
    cfg = small_config(
        trace="preset:fig2-setup",  # alternating sizes 2/5: not unit-sized
        policies=(PolicyParams("belady"),),
        scale=0.01,
        horizon=20.0,
    )
    with pytest.raises(ConfigurationError, match=r"policy=belady capacity=.* seed=1"):
        run_sweep(cfg)


def test_sweep_reads_trace_files(tmp_path):
    tr = make_trace([(t, 1 + t % 2, 1 + t % 5) for t in range(1, 60)])
    path = tmp_path / "small.trace"
    write_trace(tr, str(path))
    cfg = small_config(trace=str(path), capacities=CapacityGrid((3.0,), "absolute"))
    report = run_sweep(cfg)
    assert report.rows[0].total_events == 59
    missing = small_config(trace=str(tmp_path / "nope.trace"))
    with pytest.raises(HarnessConfigError, match="not found"):
        run_sweep(missing)


def file_sweep_config(tmp_path, seeds):
    tr = make_trace(
        [(0.5 * t, 1 + t % 3, 1 + (t * 7) % 11) for t in range(1, 120)],
        sizes={o: 1.0 + o % 3 for o in range(1, 12)},
    )
    path = tmp_path / "seeds.trace"
    write_trace(tr, str(path))
    return small_config(
        trace=str(path),
        policies=(PolicyParams("lru"), parse_policy_spec("lfru:w=3")),
        capacities=CapacityGrid((4.0, 9.0), "absolute"),
        seeds=seeds,
        local_fraction=0.3,
    )


def test_sweep_reads_a_trace_file_once(tmp_path, monkeypatch):
    cfg = file_sweep_config(tmp_path, seeds=(3, 1, 2))
    calls = []

    def counting_read(path):
        calls.append(path)
        return read_trace(path)

    monkeypatch.setattr(harness, "read_trace", counting_read)
    run_sweep(cfg)
    assert calls == [cfg.trace]


def test_sweep_over_a_trace_file_equals_one_sweep_per_seed(tmp_path):
    cfg = file_sweep_config(tmp_path, seeds=(3, 1, 2))
    report = run_sweep(cfg)
    singles = [run_sweep(dataclasses.replace(cfg, seeds=(seed,))) for seed in cfg.seeds]
    n_seeds = len(cfg.seeds)
    for i, row in enumerate(report.rows):
        assert row == singles[i % n_seeds].rows[i // n_seeds]
    assert len(report.rows) == sum(len(single.rows) for single in singles)
    assert report.digest == singles[0].digest


def test_sweep_belady_dominates_online_policies():
    cfg = small_config(
        policies=(
            PolicyParams("belady"),
            PolicyParams("lru"),
            PolicyParams("lfu"),
            PolicyParams("sieve"),
        ),
        capacities=CapacityGrid((0.005, 0.02), "volume"),
        horizon=150.0,
    )
    report = run_sweep(cfg)
    for cap in {r.capacity for r in report.rows}:
        rows = {r.policy: r.hits for r in report.rows if r.capacity == cap}
        for pol in ("lru", "lfu", "sieve"):
            assert rows["belady"] >= rows[pol]


SWEEP_POLICIES = tuple(parse_policy_spec(p) for p in ("lru", "lfu", "sieve", "lfru:w=3"))
# objects 1-2 come in versions 0/1; BIG is larger than any private tier the
# property builds (at most floor(0.5 * 20) = 10) and than some shared caches
VERSIONED, BIG = 2, 11.0


def sweep_rows(traces, capacities, local):
    """The sweep of ``traces[seed]`` under each seed of ``traces``."""
    cfg = ExperimentConfig(
        trace="in-memory",
        policies=SWEEP_POLICIES,
        capacities=CapacityGrid(tuple(capacities), "absolute"),
        seeds=tuple(traces),
        local_fraction=local,
    )
    return _run_sweep(cfg, None, traces.__getitem__)


def simulated_row(trace, params, capacity, local, seed):
    """The row of one sweep cell, from its own simulate() call."""
    m = simulate(trace, params, CacheConfig(capacity, local), seed=seed)
    return SweepRow(
        policy=params.label(),
        capacity=capacity,
        seed=seed,
        hit_ratio=m.hit_ratio,
        hits=m.hits,
        forwarded=m.forwarded,
        local_hits=m.local_hits,
        total_events=m.total_events,
        evictions=m.evictions,
        oversized_misses=m.oversized_misses,
        per_client=_per_client_cell(m),
    )


def independent_rows(traces, capacities, local):
    """The rows a sweep must produce, each from its own simulate() call."""
    return [
        simulated_row(traces[seed], params, cap, local, seed)
        for params in SWEEP_POLICIES
        for cap in capacities
        for seed in traces
    ]


def mirrored(trace):
    """``trace`` with its client ids reversed and shifted up by one, so that
    no client keeps its id."""
    clients = 2 + trace.clients.max(initial=0) - trace.clients
    tr = Trace(trace.times, clients, trace.objects, trace.versions, trace.catalog)
    tr.sort_events()
    return tr


def assert_sweep_matches_simulate(trace, capacities, local):
    # the second seed's trace differs from the first's: rows replayed from
    # a stream built for one seed and reused for the other fail
    traces = {5: trace, 6: mirrored(trace)}
    report = sweep_rows(traces, capacities, local)
    # repr() compares a NaN hit ratio (nothing forwarded) as equal to itself
    assert [repr(r) for r in report.rows] == [
        repr(r) for r in independent_rows(traces, capacities, local)
    ]
    config = CacheConfig(capacities[0], local)
    assert report.digest == config_digest(SWEEP_POLICIES[0].label(), config, trace)


@st.composite
def sweep_cases(draw):
    n_clients = draw(st.integers(1, 4))
    n_objects = draw(st.integers(VERSIONED + 1, 7))
    sizes = {o: float(draw(st.integers(1, 3))) for o in range(1, n_objects + 1)}
    sizes[n_objects + 1] = BIG
    events = []
    for t in range(draw(st.integers(1, 50))):
        c = draw(st.integers(1, n_clients))
        o = draw(st.integers(1, n_objects + 1))
        v = draw(st.integers(0, 1)) if o <= VERSIONED else None
        events.append((float(t), c, o, v))
    capacities = sorted(draw(st.sets(st.integers(2, 20), min_size=2, max_size=3)))
    # 0.01 floors every private capacity to 0 (0.01 * 20 < 1)
    local = draw(st.one_of(st.just(0.0), st.just(0.01), st.floats(0.05, 0.5)))
    return make_trace(events, sizes=sizes, versions=True), [float(c) for c in capacities], local


@settings(max_examples=60, deadline=None)
@given(sweep_cases())
def test_sweep_rows_equal_independent_simulate_calls(case):
    trace, capacities, local = case
    assert_sweep_matches_simulate(trace, capacities, local)


def test_sweep_matches_simulate_when_the_private_tier_absorbs_every_repeat():
    # each client repeats its own small objects: every event after a
    # client's first request for an object is a private-tier hit, so the
    # forwarded trace holds only the cold misses
    events = [(t, 1 + t % 2, 1 + (t // 2) % 2) for t in range(40)]
    trace = make_trace(events)
    report = sweep_rows({5: trace}, [10.0, 20.0], 0.4)
    assert {(r.local_hits, r.forwarded, r.total_events) for r in report.rows} == {(36, 4, 40)}
    assert_sweep_matches_simulate(trace, [10.0, 20.0], 0.4)


def test_sweep_matches_simulate_on_an_empty_trace():
    trace = make_trace([(1.0, 1, 1)])
    empty = Trace(trace.times[:0], trace.clients[:0], trace.objects[:0], None, trace.catalog)
    report = sweep_rows({5: empty}, [2.0, 4.0], 0.5)
    assert all(r.forwarded == r.total_events == 0 for r in report.rows)
    assert all(math.isnan(r.hit_ratio) for r in report.rows)
    assert_sweep_matches_simulate(empty, [2.0, 4.0], 0.5)


# ---------------------------------------------------------------------------
# sweeps on forked workers
# ---------------------------------------------------------------------------


class Pools:
    """The worker counts of the pools that sweeps start."""

    def __init__(self, monkeypatch):
        import concurrent.futures

        self.started = []
        self.monkeypatch = monkeypatch
        started = self.started

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)

    def force(self, n):
        """Give every later sweep up to n workers, whatever the CPU count."""
        self.monkeypatch.setattr(harness, "_sweep_workers", lambda cells: min(n, len(cells)))


@pytest.fixture
def pools(monkeypatch):
    return Pools(monkeypatch)


def private_tier_sweep():
    return small_config(
        policies=tuple(
            parse_policy_spec(p) for p in ("lru", "lfu", "sieve", "lfru:w=3", "lfrus:w=3:gamma=0.5")
        ),
        capacities=CapacityGrid((0.02, 0.05, 0.1), "volume"),
        seeds=(1, 2),
        local_fraction=0.3,
    )


POOL_SWEEPS = {
    "private tier": private_tier_sweep,
    "static_opt": lambda: small_config(
        policies=tuple(parse_policy_spec(p) for p in ("lru", "static_opt", "belady")),
        capacities=CapacityGrid((0.01, 0.05), "volume"),
        seeds=(1, 2),
    ),
    "non-unit sizes": lambda: small_config(
        trace="preset:toroid-versioned",
        policies=tuple(parse_policy_spec(p) for p in ("lru", "lfu", "sieve", "lfru:w=3")),
        capacities=CapacityGrid((0.01, 0.05), "volume"),
        seeds=(1, 2),
        scale=0.05,
        horizon=None,
    ),
}


def csv_of(report):
    buf = io.StringIO()
    report.to_csv(buf)
    return buf.getvalue()


def simulated_sweep_rows(cfg):
    """The rows of ``cfg``'s sweep in report order, each from its own simulate() call."""
    preset, build = harness._resolve_trace_source(cfg)
    traces = {seed: build(seed) for seed in cfg.seeds}
    local = preset.local_fraction if cfg.local_fraction is None else cfg.local_fraction
    return [
        simulated_row(traces[seed], harness._fill_policy_params(params, preset, cfg),
                      cfg.capacities.resolve(traces[seed])[ci], local, seed)
        for params in cfg.policies
        for ci in range(len(cfg.capacities.values))
        for seed in cfg.seeds
    ]


@pytest.mark.parametrize("name", sorted(POOL_SWEEPS))
def test_sweep_on_workers_equals_serial_sweep(name, pools):
    cfg = POOL_SWEEPS[name]()
    pools.force(3)
    pooled = run_sweep(cfg)
    assert pools.started == [3]
    pools.force(1)
    serial = run_sweep(cfg)
    assert pools.started == [3]
    assert pooled == serial
    assert csv_of(pooled) == csv_of(serial)
    assert list(pooled.rows) == simulated_sweep_rows(cfg)
    if name == "private tier":
        assert any(r.local_hits for r in pooled.rows)
    if name == "non-unit sizes":
        assert not harness._resolve_trace_source(cfg)[1](1).catalog.unit_sized()


def unit_trace():
    return make_trace([(t, 1 + t % 2, 1 + t % 5) for t in range(30)])


def sized_trace():
    return make_trace([(t, 1 + t % 2, 1 + t % 5) for t in range(30)],
                      sizes={o: 1.0 + o % 2 for o in range(1, 6)})


def unsorted_trace():
    tr = unit_trace()
    tr.times = tr.times[::-1].copy()
    return tr


@pytest.mark.parametrize(
    "traces,error",
    [
        # belady fails on the non-unit trace of seed 2 only
        ((unit_trace, sized_trace),
         "policy=belady capacity=2.0 seed=2: policy 'belady' supports unit-size catalogs only"),
        # the prefilter refuses seed 2's trace after seed 1's cells ran
        ((unit_trace, unsorted_trace),
         "capacity=2.0 seed=2: trace failed validation: unsorted at index 1"),
        # a failing cell of seed 1 comes before seed 2's prefilter
        ((sized_trace, unsorted_trace),
         "policy=belady capacity=2.0 seed=1: policy 'belady' supports unit-size catalogs only"),
    ],
)
def test_sweep_on_workers_raises_the_first_serial_error_and_leaves_no_process(
    traces, error, pools
):
    import multiprocessing

    cfg = ExperimentConfig(
        trace="in-memory",
        policies=(PolicyParams("lru"), PolicyParams("belady")),
        capacities=CapacityGrid((2.0, 4.0), "absolute"),
        seeds=(1, 2),
        local_fraction=0.5,
    )
    by_seed = {1: traces[0](), 2: traces[1]()}
    messages = []
    for workers in (3, 1):
        pools.force(workers)
        with pytest.raises(ConfigurationError) as info:
            _run_sweep(cfg, None, by_seed.__getitem__)
        messages.append(str(info.value))
        assert multiprocessing.active_children() == []
    assert messages == [error, error]
    assert pools.started == [3]
    ok = dataclasses.replace(cfg, policies=(PolicyParams("lru"), PolicyParams("sieve")))
    pools.force(3)
    report = _run_sweep(ok, None, {1: unit_trace(), 2: sized_trace()}.__getitem__)
    assert multiprocessing.active_children() == []
    assert pools.started == [3, 3] and len(report.rows) == 8


@pytest.mark.parametrize("local", [0.0, 0.2])
def test_a_sweep_checks_each_seed_trace_once(local, pools, monkeypatch):
    checked = []
    checked_sizes = engine._checked_sizes

    def counted(trace, max_violations):
        checked.append(trace)
        return checked_sizes(trace, max_violations)

    monkeypatch.setattr(engine, "_checked_sizes", counted)
    pools.force(1)
    traces = {1: unit_trace(), 2: sized_trace()}
    cfg = ExperimentConfig(
        trace="in-memory",
        policies=(PolicyParams("lru"), PolicyParams("lfu")),
        capacities=CapacityGrid((10.0, 20.0, 30.0), "absolute"),
        seeds=(1, 2),
        local_fraction=local,
    )
    report = _run_sweep(cfg, None, traces.__getitem__)
    assert pools.started == [] and len(report.rows) == 12
    assert any(r.local_hits for r in report.rows) == (local > 0)
    assert [id(t) for t in checked] == [id(traces[1]), id(traces[2])]


@pytest.mark.parametrize("fallback", ["no fork", "daemonic"])
def test_sweep_falls_back_to_a_serial_loop(fallback, pools, monkeypatch):
    import multiprocessing

    cfg = private_tier_sweep()
    pools.force(3)
    pooled = run_sweep(cfg)
    if fallback == "no fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    else:
        daemon = types.SimpleNamespace(daemon=True)
        monkeypatch.setattr(multiprocessing, "current_process", lambda: daemon)
    assert run_sweep(cfg) == pooled
    assert pools.started == [3]


class Stop(Exception):
    pass


def test_preset_sweeps_start_a_pool_and_small_sweeps_do_not(monkeypatch):
    # two usable CPUs; each sweep stops once its worker count is known
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    workers = {}

    def count_workers(cells):
        workers[name, scale] = harness._sweep_workers(cells), len(cells)
        raise Stop

    monkeypatch.setattr(harness, "_run_cells", count_workers)
    for name, scale in [
        ("toroid-trace1", 1.0), ("toroid-versioned", 1.0), ("grouped-4.1", 1.0),
        ("toroid-trace1", 0.05), ("toroid-versioned", 0.05),
    ]:
        with pytest.raises(Stop):
            harness.reproduce(name, scale, 101)
    assert {k: w for k, (w, _) in workers.items()} == {
        ("toroid-trace1", 1.0): 2,
        ("toroid-versioned", 1.0): 2,
        ("grouped-4.1", 1.0): 2,
        ("toroid-trace1", 0.05): 1,
        ("toroid-versioned", 0.05): 1,
    }
    assert all(n > 1 for _, n in workers.values())


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def report_from(cells):
    """cells: (policy, capacity, seed, hit_ratio, hits)."""
    rows = tuple(
        SweepRow(
            policy=p, capacity=c, seed=s, hit_ratio=hr, hits=h,
            forwarded=100, local_hits=0, total_events=100,
            evictions=0, oversized_misses=0, per_client="",
        )
        for p, c, s, hr, h in cells
    )
    return SweepReport(rows=rows, digest="feedc0de", version="test")


def test_compare_policies_equal_means_multiplier_one():
    report = report_from([
        ("lru", 4.0, 0, 0.25, 25),
        ("lfru(w=2)", 4.0, 0, 0.25, 25),
    ])
    cmps = {c.policy: c for c in compare_policies(report)}
    assert cmps["lfru(w=2)"].multiplier == 1.0
    assert cmps["lru"].multiplier == 1.0


def test_compare_policies_seed_spread_and_ratio_of_means():
    report = report_from([
        ("lru", 4.0, 0, 0.2, 20),
        ("lru", 4.0, 1, 0.4, 40),
        ("lfru(w=2)", 4.0, 0, 0.8, 80),
        ("lfru(w=2)", 4.0, 1, 0.4, 40),
    ])
    c = {c.policy: c for c in compare_policies(report)}["lfru(w=2)"]
    assert (c.min_hit_ratio, c.max_hit_ratio) == (0.4, 0.8)
    assert c.mean_hit_ratio == pytest.approx(0.6)
    assert c.baseline_mean == pytest.approx(0.3)
    assert c.multiplier == pytest.approx(2.0)


def test_compare_policies_zero_baseline_cases():
    report = report_from([
        ("lru", 4.0, 0, 0.0, 0),
        ("lfru(w=2)", 4.0, 0, 0.5, 50),
        ("lfrus(w=2,g=0.5)", 4.0, 0, 0.0, 0),
    ])
    cmps = {c.policy: c for c in compare_policies(report)}
    assert cmps["lfru(w=2)"].multiplier == math.inf
    assert cmps["lfrus(w=2,g=0.5)"].multiplier is None
    buf = io.StringIO()
    comparison_csv(compare_policies(report), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("policy,capacity,mean_hit_ratio")
    assert any(line.endswith(",inf") for line in lines)
    assert any(line.endswith(",undefined") for line in lines)


def test_compare_policies_requires_baseline():
    report = report_from([("lfu", 4.0, 0, 0.5, 50)])
    with pytest.raises(HarnessConfigError, match="baseline policy 'lru' not present"):
        compare_policies(report)
    assert compare_policies(report, baseline="lfu")[0].multiplier == 1.0


def test_summarize_capacities_and_csv():
    report = report_from([
        ("lru", 4.0, 0, 0.2, 20),
        ("lfu", 4.0, 0, 0.1, 10),
        ("lfru(w=2)", 4.0, 0, 0.4, 40),
        ("lru", 8.0, 0, 0.5, 50),
        ("lfu", 8.0, 0, 0.5, 50),
        ("lfru(w=2)", 8.0, 0, 0.5, 50),
    ])
    summaries = summarize_capacities(report)
    assert [s.capacity for s in summaries] == [4.0, 8.0]
    s4 = summaries[0]
    assert s4.best_policy == "lfru(w=2)" and s4.best_mean == 0.4
    assert dict(s4.gaps)["lru"] == pytest.approx(0.2)
    mult = {(p, b): m for p, b, m in s4.multipliers}
    assert mult[("lfru(w=2)", "lru")] == pytest.approx(2.0)
    assert mult[("lfru(w=2)", "lfu")] == pytest.approx(4.0)
    buf = io.StringIO()
    capacity_summary_csv(summaries, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "capacity,best_policy,best_mean,policy,gap_to_best,baseline,multiplier"
    assert any("lfru(w=2),0.0,lru,2.0" in line for line in lines)


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def test_reproduce_unknown_preset_lists_names():
    with pytest.raises(PresetError, match="grouped-4.1"):
        reproduce("no-such-preset")


NON_FINITE = [
    (field, value, preset)
    for field in ("scale", "horizon")
    for value in ("inf", "nan")
    for preset in ("toroid-trace1", "grouped-4.1", "fig2-setup", "fig3a-setup")
]


@pytest.mark.parametrize("field, value, preset", NON_FINITE)
def test_non_finite_scale_or_horizon_is_a_preset_error(field, value, preset):
    options = {field: float(value)}
    with pytest.raises(PresetError, match=f"{field} must be finite"):
        get_preset(preset).build_trace(**options)
    with pytest.raises(PresetError, match=f"{field} must be finite"):
        reproduce(preset, **options)


@pytest.mark.parametrize("field, value, preset", NON_FINITE)
@pytest.mark.parametrize("verb", ["generate", "reproduce"])
def test_cli_non_finite_scale_or_horizon_exits_2(tmp_path, capsys, verb, field, value, preset):
    out = tmp_path / "out"
    assert cli.main([verb, preset, f"--{field}={value}", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must be finite")
    assert not out.exists()


def test_reproduce_overlay_tables(tmp_path):
    result = reproduce(
        "fig2-setup", scale=0.02, seed=1, horizon=120.0, out_dir=str(tmp_path)
    )
    assert set(result.tables) == {"overlay.csv"}
    header = result.tables["overlay.csv"].splitlines()[0]
    assert header == (
        "group,client,role,follower_index,object,requests,sim_hit_ratio,"
        "model_hit_prob,abs_diff"
    )
    s = result.summary
    assert 0.0 <= s["max_abs_diff"] <= 1.0 and s["compared_pairs"] > 0
    assert s["t_star"] > 0 and s["seed"] == 1
    names = {os.path.basename(p) for p in result.written}
    assert names == {"fig2-setup-overlay.csv", "fig2-setup-summary.json"}
    for p in result.written:
        assert os.path.getsize(p) > 0


def test_reproduce_variant_grid_tables():
    result = reproduce("fig3a-setup", scale=0.01, seed=1, horizon=150.0)
    table = result.tables["variant_grid.csv"]
    header = table.splitlines()[0].split(",")
    assert header[0] == "object"
    assert {"model_std5", "model_std15", "model_std25"} <= set(header)
    assert {"sim_std5", "sim_requests_std25"} <= set(header)
    assert len(result.summary["objects"]) == 10
    cols = result.summary["model_columns"]
    # spread ordering: tighter delay spread never hurts the followers
    for a, b in zip(cols["std5"], cols["std15"]):
        assert a >= b - 1e-12
    for a, b in zip(cols["std15"], cols["std25"]):
        assert a >= b - 1e-12


def test_reproduce_sweep_tables():
    result = reproduce("grouped-4.1", scale=0.02, seed=1, horizon=100.0)
    assert set(result.tables) == {"sweep.csv", "comparison.csv", "capacity-summary.csv"}
    assert result.summary["policies"] == [
        "lru", "lfu", "sieve", "lfru:w=20", "belady", "static_opt",
    ]
    sweep_lines = result.tables["sweep.csv"].splitlines()
    assert sweep_lines[0].startswith("# toolkit_version=")
    assert sweep_lines[1].startswith("# config_digest=")
    n_caps = 5
    assert len(sweep_lines) == 3 + 6 * n_caps


SWEEP_FILES = {"sweep.csv", "comparison.csv", "capacity-summary.csv"}
GRID_FILES = {"variant_grid.csv"}
REPRODUCED_FILES = {
    "fig2-setup": {"overlay.csv"},
    "fig3-setup": GRID_FILES,
    "fig3a-setup": GRID_FILES,
    "fig3b-setup": GRID_FILES,
}


@pytest.mark.parametrize("name", preset_names())
def test_each_preset_reproduces_its_tables(name):
    result = reproduce(name, scale=0.02, seed=1, horizon=50.0)
    assert set(result.tables) == REPRODUCED_FILES.get(name, SWEEP_FILES)


@pytest.mark.parametrize("name", preset_names())
def test_preset_kind_matches_its_generator(name, monkeypatch):
    monkeypatch.setattr(presets, "gen_grouped_trace", lambda *a, **k: "grouped")
    monkeypatch.setattr(presets, "gen_toroid_trace", lambda *a, **k: "toroid")
    preset = get_preset(name)
    assert preset.build_trace(scale=0.02) == preset.kind
    assert preset.kind == ("toroid" if name.startswith("toroid-") else "grouped")


def test_fig3_setup_is_fig3a_setup_under_another_name():
    alias, study = get_preset("fig3-setup"), get_preset("fig3a-setup")
    differ = [
        f.name for f in dataclasses.fields(study) if getattr(alias, f.name) != getattr(study, f.name)
    ]
    assert differ == ["name"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "main.trace"
    rc = cli.main([
        "generate", "grouped-4.1", "--scale", "0.02", "--seed", "1",
        "--horizon", "100", "--out", str(path),
    ])
    assert rc == 0
    return str(path)


def test_cli_generate_writes_valid_trace(trace_file, capsys):
    tr = read_trace(trace_file)
    assert len(tr) > 100
    assert tr.meta["preset"] == "grouped-4.1"


def test_cli_generate_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("preset = grouped-4.1\nscale = 0.02\nseed = 1\nhorizon = 100\n")
    out = tmp_path / "from-config.trace"
    assert cli.main(["generate", str(cfg), "--out", str(out)]) == 0
    generated = out.read_text()
    direct = tmp_path / "direct.trace"
    assert cli.main([
        "generate", "grouped-4.1", "--scale", "0.02", "--seed", "1",
        "--horizon", "100", "--out", str(direct),
    ]) == 0
    assert generated == direct.read_text()


def test_cli_config_files_are_closed(tmp_path, capsys):
    gen = tmp_path / "gen.cfg"
    gen.write_text("preset = grouped-4.1\nscale = 0.02\nseed = 1\nhorizon = 20\n")
    model = tmp_path / "model.cfg"
    model.write_text(
        "preset = grouped-4.1\nscale = 0.02\ncapacity = 0.01\ncapacity_base = volume\n"
    )
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert cli.main(["generate", str(gen), "--out", str(tmp_path / "g.trace")]) == 0
        assert cli.main(["analyze", str(model)]) == 0
    capsys.readouterr()
    assert [str(w.message) for w in seen if issubclass(w.category, ResourceWarning)] == []


def test_cli_generate_errors(tmp_path, capsys):
    assert cli.main(["generate", "no-such", "--out", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.cfg"
    bad.write_text("preset = grouped-4.1\nwidth = 3\n")
    assert cli.main(["generate", str(bad), "--out", str(tmp_path / "y")]) == 2
    assert "unknown generate config keys" in capsys.readouterr().err


def test_cli_simulate_writes_outputs(trace_file, tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main([
        "simulate", "--trace", trace_file, "--policy", "lfru:w=4",
        "--capacity", "0.02", "--capacity-base", "volume",
        "--out", str(out),
    ])
    assert rc == 0
    assert "hit_ratio=" in capsys.readouterr().out
    assert sorted(os.listdir(out)) == ["metrics.csv", "summary.json"]
    metrics = (out / "metrics.csv").read_text()
    assert metrics.startswith("client,object,version,requests,hits\n")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["policy"] == "lfru(w=4)"
    assert summary["trace_file"] == trace_file
    assert len(summary["config_digest"]) == 16


@pytest.mark.parametrize("flag", ["--out-metrics", "--out-summary"])
def test_cli_simulate_writes_files_only_through_out(trace_file, tmp_path, capsys, flag):
    target = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--trace", trace_file, "--capacity", "5", flag, str(target)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not target.exists()


def test_cli_simulate_capacity_base_footprint(trace_file, tmp_path):
    out = tmp_path / "fp"
    rc = cli.main([
        "simulate", "--trace", trace_file, "--capacity", "0.1",
        "--capacity-base", "footprint", "--out", str(out),
    ])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    tr = read_trace(trace_file)
    from corrcache.trace import trace_stats

    assert summary["capacity"] == pytest.approx(
        0.1 * trace_stats(tr).distinct_identities
    )


def test_cli_simulate_follow_matrix_dump(trace_file, tmp_path, capsys):
    dump = tmp_path / "follow.csv"
    rc = cli.main([
        "simulate", "--trace", trace_file, "--policy", "lfru:w=8",
        "--capacity", "10", "--dump-follow-matrix", str(dump),
    ])
    assert rc == 0
    lines = dump.read_text().splitlines()
    assert lines[0] == "c1,c2,count"
    assert len(lines) > 1  # structured groups generate follow events
    rc = cli.main([
        "simulate", "--trace", trace_file, "--policy", "lru",
        "--capacity", "10", "--dump-follow-matrix", str(dump),
    ])
    assert rc == 2
    assert "follow-aware" in capsys.readouterr().err


@pytest.mark.parametrize(
    "preset,scale,horizon", [("grouped-4.1", 0.1, 1000.0), ("toroid-switch", 0.1, None)]
)
def test_cli_follow_matrix_dump_equals_the_hook_class(tmp_path, capsys, preset, scale, horizon):
    path = str(tmp_path / "t.trace")
    write_trace(get_preset(preset).build_trace(scale=scale, seed=101, horizon=horizon), path)
    tr = read_trace(path)
    capacity = CapacityGrid((0.02,), "volume").resolve(tr)[0]
    dump = tmp_path / "follow.csv"
    for spec in ("lfru:w=20", "lfrus:w=20:g=0.5"):
        for local in (0.0, 0.05):
            assert cli.main([
                "simulate", "--trace", path, "--policy", spec, "--capacity", "0.02",
                "--capacity-base", "volume", "--local-frac", str(local),
                "--dump-follow-matrix", str(dump),
            ]) == 0
            hooked = build_policy(parse_policy_spec(spec))
            simulate(tr, hooked, CacheConfig(capacity, local))
            assert hooked.follow_counts()  # the matrix has entries to compare
            assert dump.read_bytes() == follow_matrix_csv(hooked.follow_counts()).encode()
    capsys.readouterr()


def test_cli_simulate_bad_inputs(trace_file, tmp_path, capsys):
    assert cli.main([
        "simulate", "--trace", str(tmp_path / "missing.trace"), "--capacity", "5",
    ]) == 2
    assert cli.main([
        "simulate", "--trace", trace_file, "--policy", "fifo", "--capacity", "5",
    ]) == 2
    capsys.readouterr()
    # lfru has no gamma: the option is refused, not dropped
    assert cli.main([
        "simulate", "--trace", trace_file, "--policy", "lfru:g=0.3", "--capacity", "5",
    ]) == 2
    assert "policy 'lfru' takes no option 'g'" in capsys.readouterr().err
    assert cli.main([
        "simulate", "--trace", trace_file, "--capacity", "-3",
    ]) == 2
    capsys.readouterr()


def test_cli_simulate_static_opt_needs_rates(trace_file, tmp_path, capsys):
    # a trace file carries no per-object rates, so static_opt has no selection
    out = tmp_path / "static"
    assert cli.main([
        "simulate", "--trace", trace_file, "--policy", "static_opt", "--capacity", "5",
        "--out", str(out),
    ]) == 2
    assert "error: static_opt needs per-object request rates" in capsys.readouterr().err
    assert not out.exists()


def test_cli_exit_code_three_on_consistency_failure(trace_file, monkeypatch, capsys):
    def boom(*a, **k):
        raise ConsistencyError("synthetic accounting failure")

    monkeypatch.setattr(cli, "simulate", boom)
    rc = cli.main(["simulate", "--trace", trace_file, "--capacity", "5"])
    assert rc == 3
    assert "internal consistency failure" in capsys.readouterr().err


def test_cli_sweep_end_to_end_determinism(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "preset = grouped-4.1\npolicies = lru, lfru:w=4\n"
        "capacities = 0.5%, 1%\nseeds = 1\nscale = 0.02\nhorizon = 100\n"
    )
    texts = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli.main(["sweep", str(cfg), "--out", str(out)]) == 0
        texts.append(
            tuple((out / f).read_text() for f in ("sweep.csv", "comparison.csv", "capacity-summary.csv"))
        )
    assert texts[0] == texts[1]
    assert "# config_digest=" in texts[0][0]
    capsys.readouterr()


def test_cli_sweep_stdout_and_errors(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "preset = grouped-4.1\npolicies = lru\ncapacities = 1%\n"
        "seeds = 1\nscale = 0.02\nhorizon = 60\n"
    )
    assert cli.main(["sweep", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# toolkit_version=")
    bad = tmp_path / "bad.cfg"
    bad.write_text("preset = grouped-4.1\npolicies = lru\n")
    assert cli.main(["sweep", str(bad)]) == 2
    assert cli.main(["sweep", str(tmp_path / "absent.cfg")]) == 2
    capsys.readouterr()


def test_sweep_keeps_policies_with_nearby_gammas_apart(tmp_path, capsys):
    # labels key the rows, comparisons and capacity summaries: two gammas
    # that print alike under :g must not pool into one entry
    text = (
        "preset = grouped-4.1\npolicies = lfrus:w=20:g=0.5, lfrus:w=20:g=0.5000001\n"
        "capacities = 1%\nseeds = 1\nscale = 0.02\nhorizon = 60\n"
    )
    cfg = parse_experiment_config(text)
    labels = [p.label() for p in cfg.policies]
    assert labels == ["lfrus(w=20,g=0.5)", "lfrus(w=20,g=0.5000001)"]
    report = run_sweep(cfg)
    assert [r.policy for r in report.rows] == labels
    (summary,) = summarize_capacities(report)
    assert [pol for pol, _gap in summary.gaps] == labels
    # a config that does repeat a label exits 2
    bad = tmp_path / "dup.cfg"
    bad.write_text(text.replace("g=0.5000001", "gamma=0.50"))
    assert cli.main(["sweep", str(bad)]) == 2
    assert "repeat a label: lfrus(w=20,g=0.5)" in capsys.readouterr().err


@pytest.mark.parametrize("base", ["volume", "footprint"])
def test_cli_sweep_reports_an_identity_missing_from_the_catalog(tmp_path, capsys, base):
    # object 2 is requested but has no catalog line; resolving a footprint
    # capacity must not look it up before the trace check reports it
    trace = tmp_path / "t.trace"
    trace.write_text("#obj 1 - 1.0\n0.0 1 1 -\n1.0 1 2 -\n")
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        f"trace = {trace}\npolicies = lru\ncapacities = 50%\ncapacity_base = {base}\n"
    )
    assert cli.main(["sweep", str(cfg)]) == 2
    assert "unknown object (2, None): referenced but not in catalog" in capsys.readouterr().err


def test_cli_analyze(tmp_path, capsys):
    out = tmp_path / "model.csv"
    rc = cli.main([
        "analyze", "grouped-4.1", "--scale", "0.02",
        "--capacity", "0.01", "--capacity-base", "volume", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[4] == "group,client_role,follower_index,object,hit_prob"
    assert cli.main(["analyze", "grouped-4.1", "--scale", "0.02"]) == 2  # no capacity
    assert cli.main(["analyze", "toroid-trace1", "--capacity", "5"]) == 2
    capsys.readouterr()


def test_cli_analyze_from_config(tmp_path, capsys):
    cfg = tmp_path / "model.cfg"
    cfg.write_text(
        "preset = grouped-4.1\nscale = 0.02\ncapacity = 0.01\ncapacity_base = volume\n"
    )
    assert cli.main(["analyze", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "# t_star=" in out


def test_cli_reproduce(tmp_path, capsys):
    rc = cli.main([
        "reproduce", "grouped-4.1", "--scale", "0.02", "--seed", "1",
        "--horizon", "80", "--out", str(tmp_path),
    ])
    assert rc == 0
    names = sorted(os.listdir(tmp_path))
    assert names == [
        "grouped-4.1-capacity-summary.csv",
        "grouped-4.1-comparison.csv",
        "grouped-4.1-summary.json",
        "grouped-4.1-sweep.csv",
    ]
    assert cli.main(["reproduce", "nope", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "grouped-4.1" in err  # the error lists the available presets
