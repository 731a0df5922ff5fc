"""Cache engine: event loop, admission arithmetic, metrics accounting."""

from __future__ import annotations

import heapq
import io
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrcache import cli, engine, harness
from corrcache.engine import (
    CacheConfig,
    ConfigurationError,
    ConsistencyError,
    SimulationMetrics,
    check_metrics,
    config_digest,
    simulate,
)
from corrcache.harness import CapacityGrid, ExperimentConfig, run_sweep
from corrcache.policies import (
    BeladyPolicy,
    LFRUPolicy,
    LFRUSPolicy,
    LFUPolicy,
    Policy,
    PolicyConfigError,
    PolicyParams,
    SievePolicy,
    build_policy,
    parse_policy_spec,
    static_optimal_select,
)
from corrcache.trace import (
    NO_VERSION,
    ObjectCatalog,
    Trace,
    _checked_sizes,
    pack_key,
    unpack_key,
    validate_trace,
    write_trace,
)

from conftest import (
    NAIVE,
    make_trace,
    naive_follow,
    naive_follow_counts,
    naive_local_filter,
    naive_lru,
    naive_metrics_csv,
    naive_sized_local_filter,
    random_unit_trace,
)


def sim(events, capacity, policy="lru", sizes=None, **kw):
    return simulate(
        make_trace(events, sizes=sizes), PolicyParams(policy), CacheConfig(capacity), **kw
    )


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cap", [0.0, -1.0, float("inf"), float("nan")])
def test_cache_config_rejects_bad_capacity(cap):
    with pytest.raises(ConfigurationError):
        CacheConfig(cap)


@pytest.mark.parametrize("frac", [-0.1, 1.0, 1.5])
def test_cache_config_rejects_bad_fraction(frac):
    with pytest.raises(ConfigurationError):
        CacheConfig(10.0, frac)


def test_local_capacity_floors():
    assert CacheConfig(10.0, 0.25).local_capacity() == 2.0
    assert CacheConfig(10.0, 0.0).local_capacity() == 0.0


# ---------------------------------------------------------------------------
# core simulation semantics
# ---------------------------------------------------------------------------


def test_lru_capacity_two_cycle_never_hits():
    m = sim([(1, 1, 1), (2, 1, 2), (3, 1, 3), (4, 1, 1)], 2.0)
    assert m.hits == 0 and m.forwarded == 4 and m.evictions == 2


def test_capacity_at_footprint_leaves_only_cold_misses():
    events = [(t, 1, o) for t, o in enumerate([1, 2, 3, 1, 2, 3, 2, 1], start=1)]
    m = sim(events, 3.0)
    assert m.hits == len(events) - 3
    assert m.evictions == 0


def test_hit_requires_residency_at_processing_time():
    m = sim([(1, 1, 1), (2, 1, 1)], 1.0)
    assert m.hits == 1


def test_same_run_twice_is_byte_identical():
    tr = random_unit_trace(2, 2000, 30, 5)
    outs = []
    for _ in range(2):
        m = simulate(tr, PolicyParams("lfru", window=4), CacheConfig(8.0), seed=3)
        csv_buf, sum_buf = io.StringIO(), io.StringIO()
        m.to_csv(csv_buf)
        m.write_summary(sum_buf)
        outs.append((csv_buf.getvalue(), sum_buf.getvalue()))
    assert outs[0] == outs[1]


def test_policy_label_recorded_from_params():
    m = sim([(1, 1, 1)], 2.0, policy="lru")
    assert m.policy == "lru"
    tr = make_trace([(1, 1, 1)])
    m2 = simulate(tr, PolicyParams("lfru", window=3), CacheConfig(2.0))
    assert m2.policy == "lfru(w=3)"


@pytest.mark.parametrize(
    "spec", ["lru", "lfu", "sieve", "belady", "lfru:w=20", "lfrus:w=20:g=0.5", "lfrus:w=3:g=1",
             "lfrus:w=2:g=0.30000000000000004", "lfru:w=0"],
)
def test_prebuilt_policy_reports_the_label_of_equal_params(spec):
    tr = random_unit_trace(4, 300, 20, 3)
    params = parse_policy_spec(spec)
    by_params = simulate(tr, params, CacheConfig(5.0))
    prebuilt = simulate(tr, build_policy(params), CacheConfig(5.0))
    assert prebuilt.summary_dict() == by_params.summary_dict()
    assert prebuilt.policy == params.label()


def test_unknown_catalog_object_is_rejected():
    tr = make_trace([(1, 1, 1), (2, 1, 2)])
    tr.objects[1] = 99  # corrupt after construction
    with pytest.raises(ConfigurationError, match=r"validation: unknown object \(99, None\)"):
        simulate(tr, PolicyParams("lru"), CacheConfig(2.0))


def test_empty_trace_with_empty_catalog_replays_to_zero_counts():
    none = np.empty(0, np.int64)
    tr = Trace(none.astype(np.float64), none, none, None, ObjectCatalog())
    for config in (CacheConfig(2.0), CacheConfig(20.0, local_cache_fraction=0.5)):
        m = simulate(tr, PolicyParams("lru"), config)
        assert (m.total_events, m.forwarded, m.hits, m.evictions) == (0, 0, 0, 0)


@pytest.mark.parametrize(
    "event,match",
    [
        # object 2**32 + 1 would share object 1's per-pair row
        ((2, 1, 2**32 + 1, None), "object id 4294967297"),
        ((2, 2**23, 1, None), "client id 8388608"),
        ((2, 0, 1, None), "client id 0"),
        ((2, 1, 0, None), "object id 0"),
        ((2, 1, 1, 255), "version 255"),
    ],
)
def test_ids_outside_the_packed_key_ranges_are_rejected(event, match):
    # built valid, then given the ids: the catalog refuses ones keys cannot hold
    tr = make_trace([(1, 1, 1, None), (2, 1, 1, None)], versions=True)
    _, tr.clients[1], tr.objects[1], version = event
    tr.versions[1] = NO_VERSION if version is None else version
    # one violation: no key is packed from a bad id, so none is reported unknown
    (violation,) = validate_trace(tr).violations
    assert violation.startswith(f"event 1: {match} ")
    refused = re.escape(f"trace failed validation: {violation}")
    for config in (CacheConfig(2.0), CacheConfig(20.0, local_cache_fraction=0.5)):
        with pytest.raises(ConfigurationError, match=refused):
            simulate(tr, PolicyParams("lru"), config)


def inject_fault(tr, fault: str, i: int) -> None:
    """Give event ``i`` of ``tr`` one fault, which may happen to be harmless
    (e.g. swapping two equal events)."""
    j = min(i + 1, len(tr) - 1)
    if fault == "swap":
        for name in ("times", "clients", "objects", "versions"):
            col = getattr(tr, name)
            col[[i, j]] = col[[j, i]]
    elif fault == "nan":
        tr.times[i] = float("nan")
    elif fault == "negative":
        tr.times[i] = -1.0
    elif fault == "client 0":
        tr.clients[i] = 0
    elif fault == "client 2**23":
        tr.clients[i] = 2**23
    elif fault == "object 0":
        tr.objects[i] = 0
    elif fault == "object + 2**32":
        tr.objects[i] += 2**32
    elif fault == "version 255":
        tr.versions[i] = 255
    elif fault == "version -2":
        tr.versions[i] = -2
    elif fault == "unknown object":
        tr.objects[i] = 9
    elif fault == "unknown version":
        tr.versions[i] = 7


FAULTS = (
    "none", "swap", "nan", "negative", "client 0", "client 2**23", "object 0",
    "object + 2**32", "version 255", "version -2", "unknown object", "unknown version",
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 4), st.integers(1, 3), st.integers(1, 4), st.sampled_from([None, 0, 1])
        ),
        min_size=1,
        max_size=12,
    ),
    st.dictionaries(st.integers(1, 4), st.sampled_from([0.5, 1.0, 2.5])),
    st.sampled_from(FAULTS),
    st.data(),
)
def test_simulate_refuses_exactly_what_validation_rejects(events, sizes, fault, data):
    tr = make_trace(events, sizes=sizes, versions=True)
    inject_fault(tr, fault, data.draw(st.integers(0, len(tr) - 1)))
    ok = validate_trace(tr).ok
    if ok:
        problems, got, ranks = _checked_sizes(tr, 20)
        assert problems == []
        want = [tr.catalog.size(*unpack_key(k)) for k in tr.identity_keys().tolist()]
        assert got.tolist() == want
        assert (tr.catalog.size_arrays()[0][ranks] == tr.identity_keys()).all()
    for config in (CacheConfig(3.0), CacheConfig(10.0, local_cache_fraction=0.3)):
        if ok:
            simulate(tr, PolicyParams("lru"), config)
        else:
            with pytest.raises(ConfigurationError, match="trace failed validation"):
                simulate(tr, PolicyParams("lru"), config)


def test_largest_legal_ids_keep_distinct_pair_rows():
    obj, client = 2**32 - 1, 2**23 - 1
    events = [
        (1, 1, 1, None),
        (2, client, obj, 254),
        (3, client, obj, 254),
        (4, client, 1, None),
        (5, 1, obj, None),
    ]
    m = simulate(make_trace(events, versions=True), PolicyParams("lru"), CacheConfig(10.0))
    rows = sorted(
        zip(
            m.pair_clients.tolist(),
            m.pair_objects.tolist(),
            m.pair_versions.tolist(),
            m.pair_requests.tolist(),
            m.pair_hits.tolist(),
        )
    )
    assert rows == [
        (1, 1, -1, 1, 0),
        (1, obj, -1, 1, 0),
        (client, 1, -1, 1, 1),
        (client, obj, 254, 2, 1),
    ]
    assert m.per_client() == {1: (2, 0), client: (3, 2)}


# ---------------------------------------------------------------------------
# admission arithmetic
# ---------------------------------------------------------------------------


def key(object_id: int) -> int:
    return pack_key(object_id, None)


def test_admit_with_free_space_evicts_nothing():
    pol = Policy()
    tr = make_trace([(1, 1, 1), (2, 1, 2)], sizes={1: 4.0, 2: 6.0})
    m = simulate(tr, pol, CacheConfig(10.0), record_evictions=True)
    assert m.eviction_log == []
    assert list(pol.order) == [key(1), key(2)]


def test_admit_unit_full_cache_evicts_exactly_one():
    m = sim([(1, 1, 1), (2, 1, 2), (3, 1, 3)], 2.0, record_evictions=True)
    assert m.eviction_log == [key(1)]


def test_admit_large_object_evicts_until_it_fits():
    sizes = {1: 5.0, 2: 2.0, 3: 2.0, 4: 5.0, 5: 4.0}
    events = [(t, 1, t) for t in range(1, 6)]
    # used 9 of 9 after d1..d3; an incoming size-5 object needs d1 (5) gone,
    # and evicting d1 alone frees exactly 5
    pol = Policy()
    m = simulate(
        make_trace(events[:4], sizes=sizes), pol, CacheConfig(9.0), record_evictions=True
    )
    assert m.eviction_log == [key(1)]
    assert sum(pol.order.values()) == 9.0
    # then order is [2,3,4] with sizes 2,2,5; incoming 4.0 forces two evictions
    m = sim(events, 9.0, sizes=sizes, record_evictions=True)
    assert m.eviction_log == [key(1), key(2), key(3)]


def test_admit_rejects_resident_and_oversized():
    # a resident is never admitted twice (the repeat is a hit), and an object
    # larger than the cache passes through as an oversized miss
    pol = Policy()
    tr = make_trace([(1, 1, 1), (2, 1, 1), (3, 1, 2)], sizes={2: 5.0})
    m = simulate(tr, pol, CacheConfig(4.0), record_evictions=True)
    assert m.hits == 1
    assert m.oversized_misses == 1
    assert m.eviction_log == []
    assert list(pol.order) == [key(1)]


def test_admit_detects_non_resident_victim():
    class BadPolicy(Policy):
        def victim(self):
            return 777, self.order.pop(777)

    tr = make_trace([(1, 1, 1), (2, 1, 2)])
    with pytest.raises(ConsistencyError, match="non-resident victim"):
        simulate(tr, BadPolicy(), CacheConfig(1.0), record_evictions=True)


def test_eviction_with_nothing_resident_is_a_consistency_error():
    # victims that free no bytes empty the cache before d3 fits
    class FreesNothing(Policy):
        def victim(self):
            return super().victim()[0], 0.0

    tr = make_trace([(1, 1, 1), (2, 1, 2), (3, 1, 3)])
    with pytest.raises(
        ConsistencyError, match=r"size 1\.0 in capacity 2\.0, with 2\.0 bytes still counted"
    ):
        simulate(tr, FreesNothing(), CacheConfig(2.0))


def test_simulate_matches_manual_admission_replay():
    tr = random_unit_trace(4, 800, 20, 3)
    m = simulate(tr, PolicyParams("lru"), CacheConfig(6.0), record_evictions=True)
    hits, victims = naive_lru(tr.identity_keys().tolist(), 6)
    assert m.eviction_log == victims
    assert m.hits == sum(hits)


# ---------------------------------------------------------------------------
# oversized objects and the private tier
# ---------------------------------------------------------------------------


def test_oversized_objects_bypass_without_wiping_cache():
    events = [(1, 1, 1), (2, 1, 2), (3, 1, 3), (4, 1, 1), (5, 1, 2)]
    m = sim(events, 4.0, sizes={1: 2.0, 2: 2.0, 3: 9.0})
    assert m.oversized_misses == 1
    assert m.evictions == 0
    assert m.hits == 2  # d1 and d2 still resident after d3 passed through


def test_local_fraction_zero_forwards_everything():
    m = sim([(1, 1, 1), (2, 1, 1), (3, 2, 1)], 5.0)
    assert m.forwarded == m.total_events == 3
    assert m.local_hits == 0


def test_local_tier_absorbs_repeat_requests_per_client():
    events = [(1, 1, 5), (2, 1, 5), (3, 1, 5), (4, 2, 5)]
    m = simulate(
        make_trace(events), PolicyParams("lru"), CacheConfig(10.0, local_cache_fraction=0.2)
    )
    # client 1's repeats stay local; client 2's private cache is cold
    assert m.local_hits == 2
    assert m.forwarded == 2
    assert m.hits == 1  # client 2 hits the shared cache warmed by client 1
    assert m.local_hits + m.forwarded == m.total_events


def test_local_tier_ignores_objects_larger_than_private_capacity():
    events = [(1, 1, 1), (2, 1, 1)]
    m = simulate(
        make_trace(events, sizes={1: 3.0}),
        PolicyParams("lru"),
        CacheConfig(10.0, local_cache_fraction=0.2),  # private capacity 2 < size 3
    )
    assert m.local_hits == 0 and m.forwarded == 2 and m.hits == 1


# ---------------------------------------------------------------------------
# unit-size LRU through functools.lru_cache
# ---------------------------------------------------------------------------

PAIR_FIELDS = ("pair_clients", "pair_objects", "pair_versions", "pair_requests", "pair_hits")
COUNTERS = ("hits", "evictions", "oversized_misses", "local_hits", "forwarded")


def outcome(m):
    return tuple(getattr(m, f) for f in COUNTERS), tuple(getattr(m, f).tolist() for f in PAIR_FIELDS)


def naive_outcome(trace, capacity, local_fraction, size=1, kind="lru", follow=None):
    """Counters and pair rows of ``kind`` over ``size``-byte objects, from
    the conftest oracles: the private tiers first, then the shared cache;
    also the shared cache's hit flags and victims.  With ``follow`` =
    (window, gamma) or (window, gamma, windows) the shared cache is
    `naive_follow`."""
    keys = trace.identity_keys().tolist()
    clients = trace.clients.tolist()
    fwd, local_hits = naive_local_filter(keys, clients, math.floor(local_fraction * capacity) // size)
    keys = [k for k, f in zip(keys, fwd) if f]
    clients = [c for c, f in zip(clients, fwd) if f]
    slots = math.floor(capacity / size)
    if slots == 0:
        hits, victims, oversized = [False] * len(keys), [], len(keys)
    else:
        if follow is None:
            hits, victims = NAIVE[kind](keys, slots)
        else:
            hits, victims = naive_follow(keys, clients, slots, *follow)
        oversized = 0
    pairs: dict = {}
    for c, k, h in zip(clients, keys, hits):
        row = pairs.setdefault((c, k >> 8, (k & 255) - 1), [0, 0])
        row[0] += 1
        row[1] += h
    rows = sorted((c, o, v, r, h) for (c, o, v), (r, h) in pairs.items())
    counters = (sum(hits), len(victims), oversized, local_hits, len(keys))
    pair_cols = tuple(list(col) for col in zip(*rows)) if rows else ((),) * 5
    return counters, pair_cols, hits, victims


def sorted_pairs(m):
    rows = sorted(zip(*(getattr(m, f).tolist() for f in PAIR_FIELDS)))
    return tuple(list(col) for col in zip(*rows)) if rows else ((),) * 5


class Calls:
    """Counts the calls of an engine function, still calling it."""

    def __init__(self, monkeypatch, name):
        self.n = 0
        original = getattr(engine, name)

        def counted(*args, **kwargs):
            self.n += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, name, counted)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 20), st.integers(1, 6), st.integers(1, 12), st.sampled_from([None, 0, 1])
        ),
        min_size=1,
        max_size=60,
    ),
    st.sampled_from([0.5, 1.0, 2.0, 2.9999999999999996, 3.0, 4.5, 7.0, 15.000000000000002]),
    st.sampled_from([0.0, 0.1, 0.5]),
)
def test_unit_size_lru_equals_the_loop_and_the_naive_oracles(events, capacity, local):
    tr = make_trace(events, versions=True)
    config = CacheConfig(capacity, local)
    fast = simulate(tr, PolicyParams("lru"), config)
    # the shared cache's loop; the private tier takes lru_cache either way
    loop = simulate(tr, PolicyParams("lru"), config, record_evictions=True)
    assert outcome(fast) == outcome(loop)
    assert len(loop.eviction_log) == fast.evictions
    counters, pairs, *_ = naive_outcome(tr, capacity, local)
    assert tuple(getattr(fast, f) for f in COUNTERS) == counters
    assert sorted_pairs(fast) == pairs


def test_unit_size_lru_takes_the_lru_cache_path_only_for_fresh_lru_params(monkeypatch):
    tr = random_unit_trace(3, 400, 30, 4)
    config = CacheConfig(6.0, local_cache_fraction=0.5)
    want = outcome(simulate(tr, PolicyParams("lru"), config, record_evictions=True))
    assert len(set(tr.clients.tolist())) == 4
    calls = Calls(monkeypatch, "_unit_lru_replay")
    built = Calls(monkeypatch, "build_policy")
    # the shared cache, and the private tier once per client (4 clients,
    # ~100 events each)
    assert outcome(simulate(tr, PolicyParams("lru"), config)) == want
    assert (calls.n, built.n) == (1 + 4, 1)
    for run in (
        lambda: simulate(tr, PolicyParams("lru"), config, record_evictions=True),
        lambda: simulate(tr, Policy(), config),
    ):
        calls.n = 0
        assert outcome(run()) == want
        assert calls.n == 4  # the private tier only
    calls.n = 0
    simulate(tr, PolicyParams("sieve"), config)
    assert calls.n == 4


def test_prebuilt_lru_keeps_its_readable_state():
    pol = Policy()
    simulate(make_trace([(1, 1, 1), (2, 1, 2), (3, 1, 3), (4, 1, 2)]), pol, CacheConfig(2.0))
    assert list(pol.order) == [key(3), key(2)]


@pytest.mark.parametrize("local", [0.0, 0.5])
def test_equal_non_unit_sizes_keep_the_loop(monkeypatch, local):
    rng = np.random.default_rng(11)
    events = [(t, int(c), int(o)) for t, (c, o) in enumerate(zip(
        rng.integers(1, 4, 120), rng.zipf(1.5, 120) % 9 + 1
    ))]
    tr = make_trace(events, sizes={o: 2.0 for o in range(1, 10)})
    assert tr.catalog.unit_sized()
    calls = Calls(monkeypatch, "_unit_lru_replay")
    built = Calls(monkeypatch, "build_policy")
    m = simulate(tr, PolicyParams("lru"), CacheConfig(7.0, local))
    assert calls.n == 0
    assert built.n == 1  # the shared cache's; the private tier builds its own
    counters, pairs, *_ = naive_outcome(tr, 7.0, local, size=2)
    assert tuple(getattr(m, f) for f in COUNTERS) == counters
    assert sorted_pairs(m) == pairs
    assert m.hits > 0
    if local:
        assert m.local_hits > 0


def test_capacity_below_one_object_makes_every_request_an_oversized_miss():
    m = sim([(1, 1, 1), (2, 1, 1), (3, 2, 2)], 0.999)
    assert (m.hits, m.oversized_misses, m.evictions) == (0, 3, 0)


def test_capacities_beyond_an_index_replay_like_the_loop():
    tr = make_trace([(t, 1 + t % 2, 1 + t % 3) for t in range(40)])
    config = CacheConfig(1e300, local_cache_fraction=0.5)
    fast = simulate(tr, PolicyParams("lru"), config)
    loop = simulate(tr, PolicyParams("lru"), config, record_evictions=True)
    assert outcome(fast) == outcome(loop)
    assert (fast.local_hits, fast.hits, fast.evictions) == (34, 3, 0)
    # the private tier's loop on the same trace, every size doubled
    keys, clients = tr.identity_keys(), tr.clients
    sized = engine._local_filter(keys, clients, np.full(len(tr), 2.0), 1e300)
    unit = engine._local_filter(keys, clients, np.ones(len(tr)), 0.5e300)
    assert (sized[0].tolist(), sized[1]) == (unit[0].tolist(), unit[1])


def many_clients_trace(n_clients, per_client, seed=5):
    rng = np.random.default_rng(seed)
    clients = np.repeat(np.arange(1, n_clients + 1), per_client)
    rng.shuffle(clients)
    objects = rng.integers(1, 6, len(clients))
    return make_trace([(t, int(c), int(o)) for t, (c, o) in enumerate(zip(clients, objects))])


@pytest.mark.parametrize("n_clients, per_client", [(400, 3), (40, 16)])
def test_private_tier_picks_its_path_by_sizes(monkeypatch, n_clients, per_client):
    tr = many_clients_trace(n_clients, per_client)
    keys, clients = tr.identity_keys(), tr.clients
    calls = Calls(monkeypatch, "_unit_lru_replay")
    for slots in (1, 2, 3):
        want, want_hits = naive_local_filter(keys.tolist(), clients.tolist(), slots)
        # unit sizes take lru_cache, however few events each client has;
        # the same trace with every size doubled takes the loop
        for size in (1.0, 2.0):
            mask, local_hits = engine._local_filter(
                keys, clients, np.full(len(tr), size), slots * size
            )
            assert local_hits == want_hits > 0
            assert mask.tolist() == want
    assert calls.n == 3 * n_clients  # one per client at each unit-size slot count


@pytest.mark.parametrize(
    "ids",
    [np.arange(1, 41), np.arange(2**23 - 300, 2**23), np.array([1, 2, 2**16, 2**23 - 1])],
    ids=["dense", "near-2**23", "wide"],
)
def test_private_tier_runs_match_the_naive_oracle_at_any_client_span(ids):
    # client offsets from the least client sort as 8-, 16- and 32-bit ints
    rng = np.random.default_rng(11)
    clients = rng.choice(ids, 1200)
    objects = rng.integers(1, 8, 1200)
    tr = make_trace([(t, int(c), int(o)) for t, (c, o) in enumerate(zip(clients, objects))])
    keys = tr.identity_keys()
    for slots in (1, 3):
        want, want_hits = naive_local_filter(keys.tolist(), tr.clients.tolist(), slots)
        for size in (1.0, 2.0):
            mask, local_hits = engine._local_filter(
                keys, tr.clients, np.full(len(tr), size), slots * size
            )
            assert local_hits == want_hits > 0
            assert mask.tolist() == want


def test_private_tier_lru_cache_path_runs_without_operator_call(monkeypatch):
    # operator.call exists only from Python 3.11 on; the package supports 3.10
    import operator

    monkeypatch.delattr(operator, "call", raising=False)
    tr = many_clients_trace(10, 32)
    keys, clients = tr.identity_keys(), tr.clients
    calls = Calls(monkeypatch, "_unit_lru_replay")
    mask, local_hits = engine._local_filter(keys, clients, np.ones(len(tr)), 2.0)
    want, want_hits = naive_local_filter(keys.tolist(), clients.tolist(), 2)
    assert calls.n == 10  # one per client
    assert (mask.tolist(), local_hits) == (want, want_hits)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(1, 40), st.integers(1, 12)),
        min_size=1,
        max_size=80,
    ),
    st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0]), min_size=12, max_size=12),
    st.sampled_from([2.0, 3.0, 4.5, 6.0, 9.0, 17.0]),
    st.sampled_from([0.25, 0.5]),
)
def test_private_tier_with_mixed_sizes_matches_the_naive_oracle(events, sizes, capacity, local):
    # dyadic sizes add up exactly in binary, so float byte sums decide fits
    # as exactly as the oracle's; private budgets fall below and above the
    # largest size (2.0)
    size_of = dict(enumerate(sizes, start=1))
    tr = make_trace(events, sizes=size_of)
    keys = tr.identity_keys().tolist()
    clients = tr.clients.tolist()
    event_sizes = [size_of[o] for o in tr.objects.tolist()]
    config = CacheConfig(capacity, local)
    budget = math.floor(local * capacity)
    fwd, local_hits = naive_sized_local_filter(keys, event_sizes, clients, budget)
    fwd_at = [i for i, f in enumerate(fwd) if f]
    keys = [keys[i] for i in fwd_at]
    clients = [clients[i] for i in fwd_at]
    # the shared cache is one more LRU, with a single client
    shared_fwd, hits = naive_sized_local_filter(
        keys, [event_sizes[i] for i in fwd_at], [0] * len(keys), capacity
    )
    pairs: dict = {}
    for c, k, miss in zip(clients, keys, shared_fwd):
        row = pairs.setdefault((c, k >> 8, (k & 255) - 1), [0, 0])
        row[0] += 1
        row[1] += not miss
    rows = sorted((c, o, v, r, h) for (c, o, v), (r, h) in pairs.items())
    want_pairs = tuple(list(col) for col in zip(*rows)) if rows else ((),) * 5

    m = simulate(tr, PolicyParams("lru"), config)
    assert (m.local_hits, m.forwarded, m.hits) == (local_hits, len(keys), hits)
    assert sorted_pairs(m) == want_pairs
    (stream,) = engine._streams(tr, [config])
    assert (stream.local_hits, stream.total_events) == (local_hits, len(tr))
    assert stream.keys.tolist() == keys
    assert stream.clients.tolist() == clients


# ---------------------------------------------------------------------------
# unit-size LFU and Belady through one heap loop, SIEVE through one rank loop
# ---------------------------------------------------------------------------

HOOKED = {"lfu": LFUPolicy, "belady": BeladyPolicy}


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 20), st.integers(1, 6), st.integers(1, 12), st.sampled_from([None, 0, 1])
        ),
        min_size=1,
        max_size=80,
    ),
    st.sampled_from(["lfu", "belady"]),
    st.sampled_from([0.5, 1.0, 2.9999999999999996, 3.0, 7.0, 1e300]),
    st.sampled_from([0.0, 0.25]),
    st.booleans(),
)
def test_unit_size_heap_kernel_equals_the_hooks_and_the_naive_oracles(
    events, kind, capacity, local, record
):
    tr = make_trace(events, versions=True)
    config = CacheConfig(capacity, local)
    fast = simulate(tr, PolicyParams(kind), config, record_evictions=record)
    hooked = simulate(tr, HOOKED[kind](), config, record_evictions=record)
    assert outcome(fast) == outcome(hooked)
    assert fast.eviction_log == hooked.eviction_log
    counters, pairs, hits, victims = naive_outcome(tr, capacity, local, kind=kind)
    assert tuple(getattr(fast, f) for f in COUNTERS) == counters
    assert sorted_pairs(fast) == pairs
    assert fast.eviction_log == (victims if record else None)
    # hit flags of the kernel and of the hook loop on the forwarded stream
    (stream,) = engine._streams(tr, [config])
    kernel = engine._unit_heap_replay(
        HOOKED[kind]._priorities, stream.keys, stream.ranks, capacity, record
    )
    loop = engine._replay(
        HOOKED[kind](), stream.keys.tolist(), stream.clients.tolist(), stream.sizes.tolist(),
        capacity, record,
    )
    assert kernel[0].tolist() == loop[0].tolist() == hits
    assert kernel[1:] == loop[1:]


def test_unit_size_lfu_and_belady_params_take_the_heap_kernel(monkeypatch):
    monkeypatch.setattr(harness, "_sweep_workers", lambda cells: 1)  # count in this process
    kernel = Calls(monkeypatch, "_unit_heap_replay")
    loop = Calls(monkeypatch, "_replay")
    built = Calls(monkeypatch, "build_policy")
    tr = random_unit_trace(5, 400, 30, 4)
    for kind in ("lfu", "belady"):
        for record in (False, True):
            simulate(tr, PolicyParams(kind), CacheConfig(6.0), record_evictions=record)
    # criterion 07's runs
    simulate(random_unit_trace(0, 500, 40, 6), PolicyParams("lfu"), CacheConfig(12.0), True)
    # a sweep's cells: one per (policy, capacity)
    run_sweep(ExperimentConfig(
        trace="preset:grouped-4.1",
        policies=(PolicyParams("lfu"), PolicyParams("belady")),
        capacities=CapacityGrid((0.01, 0.02), "volume"),
        seeds=(1,),
        scale=0.02,
        horizon=100.0,
    ))
    # the tracer's policy tag: every kernel run still builds its policy
    assert (kernel.n, loop.n, built.n) == (5 + 4, 0, 5 + 4)
    kernel.n = 0
    # prebuilt instances, equal non-unit sizes and mixed-size lfu keep the loop
    simulate(tr, LFUPolicy(), CacheConfig(6.0))
    simulate(tr, BeladyPolicy(), CacheConfig(6.0))
    events = [(t, 1 + t % 3, 1 + t * 7 % 11) for t in range(60)]
    doubled = make_trace(events, sizes={o: 2.0 for o in range(1, 12)})
    simulate(doubled, PolicyParams("lfu"), CacheConfig(7.0))
    simulate(doubled, PolicyParams("belady"), CacheConfig(7.0))
    simulate(make_trace(events, sizes={1: 2.5}), PolicyParams("lfu"), CacheConfig(7.0))
    assert (kernel.n, loop.n) == (0, 5)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 20), st.integers(1, 6), st.integers(1, 12), st.sampled_from([None, 0, 1])
        ),
        min_size=1,
        max_size=80,
    ),
    st.sampled_from([0.5, 1.0, 2.9999999999999996, 3.0, 7.0, 1e300]),
    st.sampled_from([0.0, 0.25]),
    st.booleans(),
)
def test_unit_size_sieve_kernel_equals_the_hooks_and_the_naive_oracle(
    events, capacity, local, record
):
    tr = make_trace(events, versions=True)
    config = CacheConfig(capacity, local)
    fast = simulate(tr, PolicyParams("sieve"), config, record_evictions=record)
    hooked = simulate(tr, SievePolicy(), config, record_evictions=record)
    assert outcome(fast) == outcome(hooked)
    assert fast.eviction_log == hooked.eviction_log
    counters, pairs, hits, victims = naive_outcome(tr, capacity, local, kind="sieve")
    assert tuple(getattr(fast, f) for f in COUNTERS) == counters
    assert sorted_pairs(fast) == pairs
    assert fast.eviction_log == (victims if record else None)
    # hit flags of the kernel and of the hook loop on the forwarded stream
    (stream,) = engine._streams(tr, [config])
    kernel = engine._unit_sieve_replay(
        stream.ranks, stream.catalog.size_arrays()[0], capacity, record
    )
    loop = engine._replay(
        SievePolicy(), stream.keys.tolist(), stream.clients.tolist(), stream.sizes.tolist(),
        capacity, record,
    )
    assert kernel[0].tolist() == loop[0].tolist() == hits
    assert kernel[1:] == loop[1:]


def test_unit_size_sieve_params_take_the_sieve_kernel(monkeypatch):
    monkeypatch.setattr(harness, "_sweep_workers", lambda cells: 1)  # count in this process
    kernel = Calls(monkeypatch, "_unit_sieve_replay")
    loop = Calls(monkeypatch, "_replay")
    built = Calls(monkeypatch, "build_policy")
    tr = random_unit_trace(5, 400, 30, 4)
    for record in (False, True):
        simulate(tr, PolicyParams("sieve"), CacheConfig(6.0), record_evictions=record)
    # a sweep's cells: one per capacity
    run_sweep(ExperimentConfig(
        trace="preset:grouped-4.1",
        policies=(PolicyParams("sieve"),),
        capacities=CapacityGrid((0.01, 0.02), "volume"),
        seeds=(1,),
        scale=0.02,
        horizon=100.0,
    ))
    # the tracer's policy tag: every kernel run still builds its policy
    assert (kernel.n, loop.n, built.n) == (2 + 2, 0, 2 + 2)
    kernel.n = 0
    # a prebuilt instance, equal non-unit sizes and mixed sizes keep the loop
    simulate(tr, SievePolicy(), CacheConfig(6.0))
    events = [(t, 1 + t % 3, 1 + t * 7 % 11) for t in range(60)]
    simulate(make_trace(events, sizes={o: 2.0 for o in range(1, 12)}), PolicyParams("sieve"),
             CacheConfig(7.0))
    simulate(make_trace(events, sizes={1: 2.5}), PolicyParams("sieve"), CacheConfig(7.0))
    assert (kernel.n, loop.n) == (0, 3)


def _follow_params(kind, window, gamma):
    return PolicyParams("lfru", window) if kind == "lfru" else PolicyParams("lfrus", window, gamma)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 20), st.integers(1, 6), st.integers(1, 12), st.sampled_from([None, 0, 1])
        ),
        min_size=1,
        max_size=80,
    ),
    st.sampled_from(["lfru", "lfrus"]),
    st.integers(1, 20),
    st.sampled_from([1.0, 0.5, 0.3]),
    st.sampled_from([0.5, 1.0, 2.9999999999999996, 3.0, 7.0, 1e300]),
    st.sampled_from([0.0, 0.25]),
    st.booleans(),
)
def test_unit_size_follow_kernel_equals_the_hooks_and_the_naive_oracle(
    events, kind, window, gamma, capacity, local, record
):
    tr = make_trace(events, versions=True)
    config = CacheConfig(capacity, local)
    params = _follow_params(kind, window, gamma)
    hooked = build_policy(params)
    assert hooked._span is not None  # every drawn gamma counts over a span
    fast = simulate(tr, params, config, record_evictions=record)
    slow = simulate(tr, hooked, config, record_evictions=record)
    assert outcome(fast) == outcome(slow)
    assert fast.eviction_log == slow.eviction_log
    windows: dict = {}  # each client's final outcome window, from the oracle
    counters, pairs, hits, victims = naive_outcome(
        tr, capacity, local, follow=(window, hooked.gamma, windows)
    )
    assert tuple(getattr(fast, f) for f in COUNTERS) == counters
    assert sorted_pairs(fast) == pairs
    assert fast.eviction_log == (victims if record else None)
    # the end-of-run follow matrix: kernel, hook class and from-scratch sums
    want = naive_follow_counts(windows, hooked.gamma)
    assert fast.follow_counts == slow.follow_counts == hooked.follow_counts() == want
    # hit flags of the kernel and of the hook loop on the forwarded stream
    (stream,) = engine._streams(tr, [config])
    kernel = engine._unit_follow_replay(
        stream.ranks, stream.clients, stream.catalog.size_arrays()[0], capacity, hooked._span,
        record,
    )
    loop_pol = build_policy(params)
    loop = engine._replay(
        loop_pol, stream.keys.tolist(), stream.clients.tolist(),
        stream.sizes.tolist(), capacity, record,
    )
    assert kernel[0].tolist() == loop[0].tolist() == hits
    assert kernel[1:4] == loop[1:]
    assert kernel[4] == loop_pol.follow_counts() == want


def test_unit_size_follow_params_take_the_follow_kernel(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "_sweep_workers", lambda cells: 1)  # count in this process
    kernel = Calls(monkeypatch, "_unit_follow_replay")
    loop = Calls(monkeypatch, "_replay")
    built = Calls(monkeypatch, "build_policy")
    tr = random_unit_trace(5, 400, 30, 4)
    specs = ("lfru:w=20", "lfru:w=1", "lfrus:w=20:g=0.5", "lfrus:w=2:g=0.3", "lfrus:w=3:g=1")
    for spec in specs:
        for record in (False, True):
            simulate(tr, parse_policy_spec(spec), CacheConfig(6.0), record_evictions=record)
    # a sweep's cells: one per (policy, capacity)
    run_sweep(ExperimentConfig(
        trace="preset:grouped-4.1",
        policies=(PolicyParams("lfru", 20), PolicyParams("lfrus", 20, 0.5)),
        capacities=CapacityGrid((0.01, 0.02), "volume"),
        seeds=(1,),
        scale=0.02,
        horizon=100.0,
    ))
    # the tracer's policy tag: every kernel run still builds its policy
    assert (kernel.n, loop.n, built.n) == (10 + 4, 0, 10 + 4)
    kernel.n = 0
    # the CLI's follow-matrix dump takes the kernel
    write_trace(tr, tmp_path / "t.trace")
    assert cli.main([
        "simulate", "--trace", str(tmp_path / "t.trace"), "--policy", "lfru:w=20",
        "--capacity", "6", "--capacity-base", "absolute",
        "--dump-follow-matrix", str(tmp_path / "follow.csv"),
    ]) == 0
    assert (kernel.n, loop.n) == (1, 0)
    kernel.n = 0
    # window 0 takes lru: the lru_cache path, or the loop with an eviction log
    lru = Calls(monkeypatch, "_unit_lru_replay")
    for spec in ("lfru:w=0", "lfrus:w=0:g=0.5"):
        for record in (False, True):
            simulate(tr, parse_policy_spec(spec), CacheConfig(6.0), record_evictions=record)
    assert (kernel.n, lru.n, loop.n) == (0, 2, 2)
    loop.n = 0
    # prebuilt instances, the float path, equal non-unit sizes and mixed
    # sizes keep the loop
    simulate(tr, LFRUPolicy(20), CacheConfig(6.0))
    simulate(tr, LFRUSPolicy(20, 0.5), CacheConfig(6.0))
    simulate(tr, parse_policy_spec("lfrus:w=20:g=0.7"), CacheConfig(6.0))
    events = [(t, 1 + t % 3, 1 + t * 7 % 11) for t in range(60)]
    simulate(make_trace(events, sizes={o: 2.0 for o in range(1, 12)}), PolicyParams("lfru"),
             CacheConfig(7.0))
    simulate(make_trace(events, sizes={1: 2.5}), PolicyParams("lfrus"), CacheConfig(7.0))
    assert (kernel.n, loop.n) == (0, 5)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 20), st.integers(1, 6), st.integers(1, 12), st.sampled_from([None, 0, 1])
        ),
        min_size=1,
        max_size=80,
    ),
    st.sampled_from(["lfru:w=0", "lfrus:w=0:g=0.5", "lfrus:w=0:g=0.7", "lfrus:w=0:g=1"]),
    st.sampled_from([0.5, 1.0, 2.9999999999999996, 3.0, 7.0, 1e300]),
    st.sampled_from([0.0, 0.25]),
    st.booleans(),
)
def test_window_zero_follow_params_replay_as_lru(events, spec, capacity, local, record):
    tr = make_trace(events, versions=True)
    params = parse_policy_spec(spec)
    m = simulate(tr, params, CacheConfig(capacity, local), record_evictions=record)
    counters, pairs, _, victims = naive_outcome(tr, capacity, local)  # naive_lru
    assert tuple(getattr(m, f) for f in COUNTERS) == counters
    assert sorted_pairs(m) == pairs
    assert m.eviction_log == (victims if record else None)
    assert (m.policy, m.follow_counts) == (params.label(), {})


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 300), st.integers(1, 120))
def test_follow_victim_searches_find_the_least_score_and_position(data, n_clients, n):
    # stamps of live requests in [lo, end) among dead ones (255); codes as
    # the kernel gives them, scores past the class cap, the shared code 254
    cids = data.draw(st.lists(st.integers(0, n_clients - 1), min_size=n, max_size=n))
    live = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    live[data.draw(st.integers(0, n - 1))] = True
    top = data.draw(st.sampled_from([3, 260, 400]))
    score = data.draw(st.lists(st.integers(0, top), min_size=n_clients, max_size=n_clients))
    lo = live.index(True)
    end = data.draw(st.integers(lo + 1, n))  # the stamps from end on are not searched
    stamps = bytearray(min(c, 254) if alive else 255 for c, alive in zip(cids, live))
    table = bytearray(255) + b"\xff"
    for c in range(min(n_clients, 254)):
        table[c] = min(score[c], 254)
    classes = sorted(set(table[:255]))
    want = min((score[cids[p]], p) for p in range(lo, end) if live[p])[1]
    args = (stamps, lo, end, table, classes, score, cids)
    assert engine._marked_victim(*args) == want
    assert engine._coded_victim(*args[:4], min(n_clients, 255), *args[4:]) == want


def test_heap_kernel_keeps_its_heap_within_the_lfu_bound(monkeypatch):
    # a hit-heavy trace: 20 objects, 16 slots
    tr = random_unit_trace(9, 20_000, 20, 3)
    keys = tr.identity_keys().tolist()
    n, slots = len(keys), 16
    bound = {"worst": 0.0, "pushes": 0}
    seen: set = set()
    push = heapq.heappush

    def watched(heap, p):
        push(heap, p)
        if heap is not bound.get("heap", heap):
            return  # not the kernel's heap
        bound["heap"] = heap
        bound["pushes"] += 1
        seen.add(keys[p % n])
        residents = min(len(seen), slots)
        limit = LFUPolicy.HEAP_SLACK * residents + LFUPolicy.HEAP_EXTRA + 1
        bound["worst"] = max(bound["worst"], len(heap) / limit)

    monkeypatch.setattr(heapq, "heappush", watched)
    for kind in ("lfu", "belady"):
        bound.clear()
        bound.update(worst=0.0, pushes=0)
        seen.clear()
        m = simulate(tr, PolicyParams(kind), CacheConfig(float(slots)))
        assert m.hits > 0.9 * n
        assert bound["pushes"] > 10 * (LFUPolicy.HEAP_SLACK * slots + LFUPolicy.HEAP_EXTRA)
        assert bound["worst"] <= 1.0


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_hit_ratio_extremes():
    none = sim([(1, 1, 1), (2, 1, 2)], 5.0)
    assert none.hit_ratio == 0.0
    all_hits = sim([(1, 1, 1), (2, 1, 1), (3, 1, 1)], 5.0)
    assert all_hits.hits == 2  # cold miss then hits
    assert sim([(1, 1, 1), (2, 1, 1)], 5.0).hit_ratio == 0.5


def test_hit_ratio_undefined_without_forwarded_requests():
    m = sim([(1, 1, 1)], 5.0)
    m.forwarded = 0
    assert math.isnan(m.hit_ratio)


def test_per_client_breakdown():
    events = [(1, 1, 1), (2, 1, 1), (3, 1, 2), (4, 2, 1)]
    m = sim(events, 10.0)
    assert m.per_client() == {1: (3, 1), 2: (1, 1)}


def test_metrics_csv_layout():
    events = [(1, 1, 1), (2, 1, 1), (3, 2, 2)]
    m = sim(events, 10.0)
    buf = io.StringIO()
    m.to_csv(buf)
    assert buf.getvalue().splitlines() == [
        "client,object,version,requests,hits",
        "1,1,-,2,1",
        "2,2,-,1,0",
        "1,-1,-,2,1",
        "2,-1,-,1,0",
        "-1,-1,-,3,1",
    ]


def pair_metrics(rows, forwarded=0, hits=0) -> SimulationMetrics:
    """Metrics whose pair rows are (client, object, version, requests, hits)."""
    columns = [np.array(c, dtype=np.int64) for c in zip(*rows)] or [
        np.empty(0, dtype=np.int64) for _ in range(5)
    ]
    return SimulationMetrics("lru", 1.0, 0.0, forwarded, forwarded, hits, 0, 0, 0, *columns)


def test_per_client_sums_are_exact_above_2_pow_53():
    big = 2**53 + 1
    m = pair_metrics([(2, 1, -1, big, big), (1, 1, -1, 1, 0), (2, 3, 0, 2, 1)])
    assert m.per_client() == {1: (1, 0), 2: (big + 2, big + 1)}
    buf = io.StringIO()
    m.to_csv(buf)
    assert f"2,-1,-,{big + 2},{big + 1}" in buf.getvalue().splitlines()


pair_row = st.tuples(
    st.integers(1, 6),
    st.one_of(st.integers(1, 5), st.integers(2**32 - 3, 2**32 - 1)),
    st.sampled_from([-1, -1, 0, 1, 7, 254]),
    st.one_of(st.integers(0, 12), st.integers(2**53 - 2, 2**58)),
    st.one_of(st.integers(0, 12), st.integers(2**53 - 2, 2**58)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(pair_row, max_size=20), st.integers(1, 5), st.integers(0, 2**62))
def test_block_csv_writer_equals_the_row_writer(rows, block, forwarded):
    m = pair_metrics(rows, forwarded, forwarded // 2)
    want = io.StringIO()
    naive_metrics_csv(m, want)
    for size in (block, engine._CSV_BLOCK):
        got = io.StringIO()
        with mock.patch.object(engine, "_CSV_BLOCK", size):
            m.to_csv(got)
        assert got.getvalue() == want.getvalue()


def test_summary_json_contents():
    m = sim([(1, 1, 1), (2, 1, 1)], 10.0, seed=42)
    buf = io.StringIO()
    m.write_summary(buf)
    d = json.loads(buf.getvalue())
    assert d["hits"] == 1 and d["forwarded"] == 2 and d["hit_ratio"] == 0.5
    assert d["policy"] == "lru" and d["capacity"] == 10.0
    assert d["seed"] == "42"
    assert d["evictions"] == 0 and d["oversized_misses"] == 0


def test_check_metrics_rejects_tampered_counters():
    m = sim([(1, 1, 1), (2, 1, 1)], 10.0)
    check_metrics(m)
    m.hits = 5
    with pytest.raises(ConsistencyError):
        check_metrics(m)


def test_versioned_pairs_reported_with_version_column():
    events = [(1, 1, 1, 0), (2, 1, 1, 1), (3, 1, 1, 0)]
    tr = make_trace(events, versions=True)
    m = simulate(tr, PolicyParams("lru"), CacheConfig(10.0))
    buf = io.StringIO()
    m.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert "1,1,0,2,1" in lines and "1,1,1,1,0" in lines


def test_config_digest_tracks_inputs():
    tr = random_unit_trace(1, 50, 5, 2)
    a = config_digest("lru", CacheConfig(5.0), tr)
    b = config_digest("lru", CacheConfig(5.0), tr)
    c = config_digest("lru", CacheConfig(6.0), tr)
    d = config_digest("lfu", CacheConfig(5.0), tr)
    assert a == b and len(a) == 16
    assert a != c and a != d


# ---------------------------------------------------------------------------
# static-optimal runs
# ---------------------------------------------------------------------------


def test_static_opt_prefilled_set_never_evicts():
    rates = {pack_key(1, None): 9.0, pack_key(2, None): 1.0}
    events = [(1, 1, 1), (2, 1, 2), (3, 1, 1), (4, 1, 2)]
    m = simulate(
        make_trace(events),
        PolicyParams("static_opt", rates=rates),
        CacheConfig(1.0),
        )
    assert m.hits == 2  # both d1 requests, including the first (preloaded)
    assert m.evictions == 0
    assert m.static_exact is True
    assert m.policy == "static_opt"


def test_static_opt_behind_the_private_tier_hits_exactly_the_selection():
    tr = random_unit_trace(7, 600, 12, 4)
    keys = tr.identity_keys()
    rates = {k: float(k % 7) for k in set(keys.tolist())}
    config = CacheConfig(4.0, local_cache_fraction=0.5)
    selected = static_optimal_select(rates, dict.fromkeys(rates, 1.0), 4.0).keys
    assert len(selected) == 4
    fwd, local_hits = naive_local_filter(keys.tolist(), tr.clients.tolist(), 2)
    forwarded = [k for k, f in zip(keys.tolist(), fwd) if f]
    for record in (False, True):
        m = simulate(tr, PolicyParams("static_opt", rates=rates), config, record_evictions=record)
        assert (m.local_hits, m.forwarded) == (local_hits, len(forwarded))
        assert m.hits == sum(k in selected for k in forwarded) > 0
        assert (m.evictions, m.oversized_misses) == (0, 0)
        assert m.eviction_log == ([] if record else None)
        assert m.static_exact is True


def test_static_opt_without_rates_is_refused():
    with pytest.raises(PolicyConfigError, match="static_opt needs per-object request rates"):
        simulate(make_trace([(1, 1, 1)]), PolicyParams("static_opt"), CacheConfig(1.0))


# ---------------------------------------------------------------------------
# per-pair rows from catalog ranks, against np.unique of packed codes
# ---------------------------------------------------------------------------


def unique_pair_rows(clients, keys, hit_flags):
    """Per-pair rows by `np.unique` of ``client << 40 | key`` codes."""
    codes = (np.asarray(clients, dtype=np.int64) << 40) | np.asarray(keys, dtype=np.int64)
    uniq, inverse = np.unique(codes, return_inverse=True)
    flags = np.asarray(hit_flags, dtype=bool)
    return (
        (uniq >> 40).tolist(),
        ((uniq & (2**40 - 1)) >> 8).tolist(),
        ((uniq & 255) - 1).tolist(),
        np.bincount(inverse, minlength=len(uniq)).tolist(),
        np.bincount(inverse[flags], minlength=len(uniq)).tolist(),
    )


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 30),
            st.one_of(st.integers(1, 4), st.integers(2**23 - 3, 2**23 - 1)),
            st.one_of(st.integers(1, 6), st.integers(2**32 - 4, 2**32 - 1)),
            st.sampled_from([None, 0, 1, 254]),
        ),
        min_size=1,
        max_size=60,
    ),
    st.integers(1, 6),
    st.sampled_from([0.0, 0.5]),
)
def test_pair_rows_equal_np_unique_of_packed_codes(events, slots, fraction):
    tr = make_trace(events, versions=True)
    capacity = float(slots) if fraction == 0 else 2.0 * slots
    metrics = simulate(tr, PolicyParams("lru"), CacheConfig(capacity, fraction))
    keys, clients = tr.identity_keys().tolist(), tr.clients.tolist()
    forwarded = naive_local_filter(keys, clients, math.floor(fraction * capacity))[0]
    keys = [k for k, f in zip(keys, forwarded) if f]
    clients = [c for c, f in zip(clients, forwarded) if f]
    hits = naive_lru(keys, math.floor(capacity))[0]
    got = (metrics.pair_clients, metrics.pair_objects, metrics.pair_versions,
           metrics.pair_requests, metrics.pair_hits)
    assert all(a.dtype == np.int64 for a in got)
    assert tuple(a.tolist() for a in got) == unique_pair_rows(clients, keys, hits)


@pytest.mark.parametrize("clients, tables", [((1, 2, 3, 2), True), ((1, 2**23 - 1, 1, 5), False)])
def test_pair_rows_count_in_tables_unless_clients_are_sparse(monkeypatch, clients, tables):
    tr = make_trace([(float(t), c, 1 + t % 2) for t, c in enumerate(clients)])
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(1) or unique(*a, **kw))
    metrics = simulate(tr, PolicyParams("lru"), CacheConfig(1.0))
    assert len(calls) == (0 if tables else 1)
    keys = tr.identity_keys().tolist()
    want = unique_pair_rows(tr.clients, keys, naive_lru(keys, 1)[0])
    assert (metrics.pair_clients.tolist(), metrics.pair_objects.tolist(),
            metrics.pair_versions.tolist(), metrics.pair_requests.tolist(),
            metrics.pair_hits.tolist()) == want
