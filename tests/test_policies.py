"""Eviction policies: hand-traced contracts plus naive-oracle equivalence."""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrcache import policies
from corrcache.engine import CacheConfig, ConfigurationError, simulate
from corrcache.policies import (
    BeladyPolicy,
    LFRUPolicy,
    LFRUSPolicy,
    LFUPolicy,
    POLICY_KINDS,
    Policy,
    PolicyConfigError,
    PolicyParams,
    SievePolicy,
    build_policy,
    parse_policy_spec,
    static_optimal_select,
)

from conftest import (
    NAIVE,
    make_trace,
    naive_belady,
    naive_follow,
    naive_follow_counts,
    naive_follow_scores,
    naive_local_filter,
    naive_sized_lfu,
    naive_sized_lru,
    naive_sized_sieve,
    random_unit_trace,
    unpacked_eviction_objects,
    victim_sequence,
)


def evictions(events, kind, capacity, sizes=None):
    """Object-id eviction sequence for a small hand-built trace."""
    m = victim_sequence(make_trace(events, sizes=sizes), kind, capacity)
    return unpacked_eviction_objects(m)


def run_policy(events, policy, capacity=10.0):
    """Simulate with a concrete policy instance and hand it back."""
    m = simulate(
        make_trace(events), policy, CacheConfig(capacity), record_evictions=True
    )
    return m, policy


# ---------------------------------------------------------------------------
# parameter parsing
# ---------------------------------------------------------------------------


def test_parse_policy_spec_defaults_and_options():
    assert parse_policy_spec("lru") == PolicyParams("lru")
    assert parse_policy_spec("lfru:w=7").window == 7
    p = parse_policy_spec("lfrus:w=2:gamma=0.5")
    assert (p.kind, p.window, p.gamma) == ("lfrus", 2, 0.5)
    assert parse_policy_spec("lfrus:g=1").gamma == 1.0
    assert parse_policy_spec(" LFU ").kind == "lfu"


def test_policy_labels():
    assert PolicyParams("lru").label() == "lru"
    assert PolicyParams("lfru", window=20).label() == "lfru(w=20)"
    assert PolicyParams("lfrus", window=2, gamma=0.5).label() == "lfrus(w=2,g=0.5)"


def test_lfrus_labels_are_injective():
    # :g is kept wherever it reads back as the same gamma ...
    kept = [(1.0, "1"), (0.5, "0.5"), (0.7, "0.7"), (1e-05, "1e-05"), (0.123456, "0.123456")]
    for gamma, text in kept:
        assert PolicyParams("lfrus", window=20, gamma=gamma).label() == f"lfrus(w=20,g={text})"
    # ... and repr takes over where :g would round two gammas together
    near = [0.5, 0.5000001, 0.50000001, math.nextafter(0.5, 1), 0.1234567, 1 - 2**-53]
    labels = [PolicyParams("lfrus", window=20, gamma=g).label() for g in near]
    assert labels[1] == "lfrus(w=20,g=0.5000001)"
    assert len(set(labels)) == len(near)
    for gamma, label in zip(near, labels):
        assert float(label[label.index("g=") + 2 : -1]) == gamma


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "fifo",
        "lfru:20",
        "lfru:size=3",
        "lfru:w=-1",
        "lfrus:gamma=0",
        "lfrus:gamma=1.5",
        # only lfru and lfrus have a window, and only lfrus a gamma
        "lru:w=5",
        "lru:w=5:g=0.3",
        "lfu:window=3",
        "sieve:g=1",
        "belady:w=3",
        "static_opt:gamma=0.5",
        "lfru:g=0.3",
        "lfru:w=20:gamma=1",
    ],
)
def test_parse_policy_spec_errors(bad):
    with pytest.raises(PolicyConfigError):
        parse_policy_spec(bad)


def test_build_policy_builds_replayed_kinds_only():
    # static_opt is computed by simulate, never replayed
    for kind in ("static_opt", "mystery"):
        with pytest.raises(PolicyConfigError, match="unknown policy"):
            build_policy(PolicyParams(kind))
    # lfrus at gamma 1 is lfru and takes its stamp search
    assert build_policy(parse_policy_spec("lfrus:w=3:g=1"))._stamped
    assert not build_policy(parse_policy_spec("lfrus:w=3:g=0.5"))._stamped
    assert not build_policy(parse_policy_spec("lfru:w=0"))._stamped


@pytest.mark.parametrize(
    "spec,span",
    [
        ("lfru", 21),
        ("lfrus:w=20:g=1", 21),
        ("lfrus:w=20:g=0.5", 1),
        ("lfrus:w=45:g=0.5", 1),
        ("lfrus:w=2:g=0.6", 1),
        ("lfrus:w=20:g=0.7", None),
        ("lfrus:w=60:g=0.5", None),
        ("lfrus:w=46:g=0.5", None),
        ("lfrus:w=5:g=0.55", None),
    ],
)
def test_follow_policy_span_selection(spec, span):
    # span: rows count over the newest `span` outcomes; None: the float
    # sums are re-summed and patched
    pol = build_policy(parse_policy_spec(spec))
    assert pol._span == span
    tr = random_unit_trace(3, 600, 20, 4)
    simulate(tr, pol, CacheConfig(6.0))
    # the windows keep all window+1 outcomes on either path
    assert all(len(w) == pol.window + 1 for w in pol.window_snapshot().values())
    if span is not None:
        assert not pol._stale and not pol._cols and not pol._gamma_pow
        assert max(pol.follow_counts().values()) <= span


def _window_sums(gamma: float, window: int):
    """For every set of lags (0..window) at which one client is the outcome,
    its newest-first float sum of gamma**lag, as LFRUSPolicy adds it, and
    whether lag 0 is in the set."""
    powers = [gamma**k for k in range(window + 1)]
    sums = [(0.0, False, True)]  # (sum, has lag 0, empty)
    for lag, g in enumerate(powers):
        # adding the highest lag last keeps each sum in newest-first order
        sums += [(g if empty else v + g, newest or lag == 0, False) for v, newest, empty in sums]
    return [(v, newest) for v, newest, empty in sums if not empty]


@pytest.mark.parametrize("gamma", [0.3, 0.45, 0.5, 0.55, 0.6, 0.7, 0.9])
def test_counted_span_is_chosen_exactly_where_the_newest_outcome_decides_every_floor(gamma):
    # exhaustive over every outcome pattern of windows 1-12: where the class
    # counts, each floored sum is "the newest outcome is c1"; where it keeps
    # the patch, some pattern floors otherwise
    for window in range(1, 13):
        decided = all(
            math.floor(v) == newest for v, newest in _window_sums(gamma, window)
        )
        assert (LFRUSPolicy(window, gamma)._span == 1) == decided, window


def test_follow_policy_builds_no_powers_ahead_of_a_summed_window():
    # gamma=1 and the counted gammas build no powers at all, even at a
    # window of a million
    for pol in (LFRUPolicy(1_000_000), LFRUSPolicy(1_000_000, 0.3)):
        assert pol._gamma_pow == []
    pol = LFRUSPolicy(1_000_000, 0.7)
    assert pol._span is None and pol._gamma_pow == []
    tr = random_unit_trace(4, 400, 20, 4)
    simulate(tr, pol, CacheConfig(6.0))
    longest = max(map(len, pol.window_snapshot().values()))
    assert 0 < len(pol._gamma_pow) <= longest < 400
    assert pol._gamma_pow == [0.7**k for k in range(len(pol._gamma_pow))]
    # powers stop before the first that underflows to 0.0: 0.5**1075
    pol = LFRUSPolicy(1100, 0.5)
    assert pol._span is None
    tr = random_unit_trace(5, 2600, 30, 2)
    simulate(tr, pol, CacheConfig(8.0))
    windows = pol.window_snapshot()
    assert max(map(len, windows.values())) == 1101
    assert pol._pow_end == len(pol._gamma_pow) == 1075 and pol._gamma_pow[-1] > 0.0
    assert pol.follow_counts() == naive_follow_counts(windows, 0.5)


# ---------------------------------------------------------------------------
# LRU / LFU
# ---------------------------------------------------------------------------


def test_lru_evicts_least_recent():
    assert evictions([(1, 1, 1), (2, 1, 2), (3, 1, 3)], "lru", 2) == [1]


def test_lru_hit_refreshes_recency():
    assert evictions([(1, 1, 1), (2, 1, 2), (3, 1, 1), (4, 1, 3)], "lru", 2) == [2]


def test_lfu_evicts_smallest_count():
    ev = evictions([(1, 1, 1), (2, 1, 1), (3, 1, 1), (4, 1, 2), (5, 1, 3)], "lfu", 2)
    assert ev == [2]


def test_lfu_tie_breaks_to_lru():
    assert evictions([(1, 1, 1), (2, 1, 2), (3, 1, 3)], "lfu", 2) == [1]


def test_lfu_counts_survive_eviction():
    events = [(t, 1, o) for t, o in enumerate([1, 1, 2, 3, 2, 3], start=1)]
    # d2 evicted with count 1, readmitted with lifetime count 2 -> then d3
    # (count 1) goes, and the final tie at count 2 falls back to LRU (d1)
    assert evictions(events, "lfu", 2) == [2, 3, 1]


# ---------------------------------------------------------------------------
# Sieve
# ---------------------------------------------------------------------------


def test_sieve_no_hits_evicts_oldest():
    assert evictions([(1, 1, 1), (2, 1, 2), (3, 1, 3)], "sieve", 2) == [1]


def test_sieve_visited_bit_spares_and_clears():
    # hit on d1 sets its bit; the scan clears it and removes d2; the next
    # eviction takes d1 because its bit was consumed
    ev = evictions([(1, 1, 1), (2, 1, 2), (3, 1, 1), (4, 1, 3), (5, 1, 4)], "sieve", 2)
    assert ev == [2, 1]


def test_sieve_all_visited_full_pass_then_oldest():
    ev = evictions([(1, 1, 1), (2, 1, 2), (3, 1, 1), (4, 1, 2), (5, 1, 3)], "sieve", 2)
    assert ev == [1]


def test_sieve_scan_direction_wraps_to_newest():
    # queue oldest->newest is [d1,d2,d3] with only d1 visited: the hand
    # clears d1, wraps to the newest end, and evicts d3 (a newer-moving
    # scan would have taken d2 instead)
    ev = evictions([(1, 1, 1), (2, 1, 2), (3, 1, 3), (4, 1, 1), (5, 1, 4)], "sieve", 3)
    assert ev == [3]


def test_sieve_hand_wraps_when_the_oldest_is_evicted():
    # evicting d1, the oldest, sends the hand to the newest entry, d3, before
    # d4 is admitted, so d4 is scanned last: the next victims are d3 and d2.
    # A hand that wrapped only at the next scan would start at d4 instead
    ev = evictions([(t, 1, o) for t, o in enumerate([1, 2, 3, 4, 5, 6], start=1)], "sieve", 3)
    assert ev == [1, 3, 2]


def test_sieve_hand_restarts_at_the_oldest_after_the_cache_empties():
    # d9 (size 3) evicts all three residents, and d4 then evicts d9: the
    # queue is empty twice, so the victim for d2 is the oldest of d4, d5, d1
    objects = [1, 2, 3, 9, 4, 5, 1, 2]
    ev = evictions(
        [(t, 1, o) for t, o in enumerate(objects, start=1)], "sieve", 3, sizes={9: 3.0}
    )
    assert ev == [1, 3, 2, 9, 4]


# ---------------------------------------------------------------------------
# Belady
# ---------------------------------------------------------------------------


def test_belady_evicts_never_used_again():
    assert evictions([(1, 1, 1), (2, 1, 2), (3, 1, 3), (4, 1, 1)], "belady", 2) == [2]


def test_belady_classic_trace():
    events = [(t, 1, o) for t, o in enumerate([1, 2, 3, 1, 2, 4], start=1)]
    m = victim_sequence(make_trace(events), "belady", 2)
    # at d3's admission, d2 is requested later than d1 and is evicted;
    # the two infinite-next-use ties afterwards fall to LRU
    assert unpacked_eviction_objects(m) == [2, 3, 1]
    assert m.hits == 1


def test_belady_on_equal_non_unit_sizes_matches_naive_reference():
    # every size 2.0 at capacity 9.0: four slots, one byte unused
    tr = random_unit_trace(3, 1500, 40, 6)
    tr = make_trace(
        list(zip(tr.times.tolist(), tr.clients.tolist(), tr.objects.tolist())),
        sizes={o: 2.0 for o in range(1, 41)},
    )
    m = victim_sequence(tr, "belady", 9.0)
    hits, victims = naive_belady(tr.objects.tolist(), 4)
    assert unpacked_eviction_objects(m) == victims
    assert m.hits == sum(hits) and m.evictions == len(victims)


@pytest.mark.parametrize("seed", [0, 1])
def test_belady_behind_the_private_tier_matches_naive_reference(seed):
    # capacity 12 and fraction 0.25 give each client 3 private slots; the
    # shared cache replays only what they forward
    tr = random_unit_trace(seed, 1500, 40, 6)
    config = CacheConfig(12.0, local_cache_fraction=0.25)
    m = simulate(tr, PolicyParams("belady"), config, record_evictions=True)
    objects = tr.objects.tolist()
    forwarded, local_hits = naive_local_filter(objects, tr.clients.tolist(), 3)
    assert m.local_hits == local_hits > 0
    hits, victims = naive_belady([o for o, f in zip(objects, forwarded) if f], 12)
    assert unpacked_eviction_objects(m) == victims
    assert m.forwarded == len(hits) and m.hits == sum(hits)


@pytest.mark.parametrize(
    "build, kind, want",
    [(BeladyPolicy, "belady", [825, 822, 801]), (LFUPolicy, "lfu", [714, 687, 684])],
    ids=["belady", "lfu"],
)
def test_prebuilt_policy_behind_the_private_tier_equals_params(build, kind, want):
    # a prebuilt instance builds its per-request table at bind, from the
    # forwarded stream, exactly like one built from params
    config = CacheConfig(12.0, local_cache_fraction=0.25)
    got = []
    for seed in range(3):
        tr = random_unit_trace(seed, 1500, 40, 6)
        a = simulate(tr, build(), config, record_evictions=True)
        b = simulate(tr, PolicyParams(kind), config, record_evictions=True)
        assert a.local_hits > 0
        assert a.eviction_log == b.eviction_log and a.hits == b.hits
        assert (a.pair_hits == b.pair_hits).all()
        got.append(a.hits)
    assert got == want


def test_belady_rejects_non_unit_sizes():
    tr = make_trace([(1, 1, 1), (2, 1, 2)], sizes={1: 2.0, 2: 5.0})
    with pytest.raises(ConfigurationError, match="unit-size"):
        simulate(tr, PolicyParams("belady"), CacheConfig(4.0))


REPLAYED = pytest.mark.parametrize(
    "build",
    [
        Policy,
        LFUPolicy,
        BeladyPolicy,
        SievePolicy,
        LFRUPolicy,
        lambda: LFRUSPolicy(20, 0.5),
    ],
    ids=["lru", "lfu", "belady", "sieve", "lfru", "lfrus"],
)


@REPLAYED
def test_victim_with_nothing_resident_raises(build):
    policy = build()
    policy.bind(OrderedDict(), [], [])
    with pytest.raises(IndexError):
        policy.victim()


@REPLAYED
def test_victim_removes_exactly_the_key_it_returns(build):
    # requests 0-3 admit d1-d4 (client 1, then client 2 for d3 and d4), and
    # request 4 is client 2's hit on d1, a follow of client 1 for lfru/lfrus;
    # sizes are distinct so the returned size names its key
    keys, clients = [1, 2, 3, 4, 1], [1, 1, 2, 2, 2]
    sizes = {1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}
    order = OrderedDict()
    policy = build()
    policy.bind(order, keys, clients)
    for i, (k, c) in enumerate(zip(keys, clients)):
        if k in order:
            policy.on_request(i, c, k, True)
            order.move_to_end(k)
            continue
        if policy.reads_misses:
            policy.on_request(i, c, k, False)
        order[k] = sizes[k]
        policy.on_admit(i, k)
    before = dict(order)
    while order:
        key, size = policy.victim()
        assert before.pop(key) == size
        assert dict(order) == before


@pytest.mark.parametrize("gamma", [1.0, 0.5], ids=["lfru", "lfrus"])
def test_follow_victim_with_scores_and_nothing_resident_raises(gamma):
    # client 2 follows client 1 on d1, so client 1 scores 1, but the order
    # holds no resident
    policy = LFRUSPolicy(20, gamma)
    policy.bind(OrderedDict(), [1, 1], [1, 2])
    policy.on_request(0, 1, 1, False)
    policy.on_request(1, 2, 1, True)
    assert policy._row_scores() == {1: 1}
    with pytest.raises(IndexError):
        policy.victim()


def test_belady_victim_never_returns_a_stale_key():
    # d1 went through on_admit (a miss) and on_request (a hit), but the
    # order holds no resident: its heap entries must not come back as victims
    policy = BeladyPolicy()
    policy.bind(OrderedDict(), [1, 1], [1, 1])
    policy.on_admit(0, 1)
    policy.on_request(1, 1, 1, True)
    with pytest.raises(IndexError):
        policy.victim()


# ---------------------------------------------------------------------------
# hook protocol: which hooks the engine calls, and at which positions
# ---------------------------------------------------------------------------


def _recording(cls):
    """``cls`` recording its on_request and on_admit calls."""

    class Recording(cls):
        def __init__(self, *args):
            super().__init__(*args)
            self.requests: list = []
            self.admits: list = []

        def on_request(self, i, client, key, hit):
            self.requests.append((i, client, key, hit))
            super().on_request(i, client, key, hit)

        def on_admit(self, i, key):
            self.admits.append((i, key))
            super().on_admit(i, key)

    return Recording


def _check_positions(pol, keys, clients, hits):
    """``pol`` got on_request at every hit (and at every miss if it reads
    misses) and on_admit at every miss, with request i's key and client."""
    want = [(i, clients[i], keys[i], h) for i, h in enumerate(hits) if h or pol.reads_misses]
    assert pol.requests == want
    assert pol.admits == [(i, keys[i]) for i, h in enumerate(hits) if not h]


@pytest.mark.parametrize(
    "cls, kind",
    [(LFUPolicy, "lfu"), (SievePolicy, "sieve"), (BeladyPolicy, "belady")],
    ids=["lfu", "sieve", "belady"],
)
def test_on_request_fires_at_exactly_the_hits(cls, kind):
    tr = random_unit_trace(3, 1500, 40, 6)
    pol = _recording(cls)()
    m = simulate(tr, pol, CacheConfig(12.0), record_evictions=True)
    objects = tr.objects.tolist()
    hits, victims = NAIVE[kind](objects, 12)
    assert unpacked_eviction_objects(m) == victims
    assert not pol.reads_misses and 0 < sum(hits) < len(hits)
    _check_positions(pol, tr.identity_keys().tolist(), tr.clients.tolist(), hits)


@pytest.mark.parametrize(
    "cls, args", [(LFRUPolicy, (5,)), (LFRUSPolicy, (5, 0.5))], ids=["lfru", "lfrus"]
)
def test_follow_policies_get_on_request_at_every_position(cls, args):
    tr = random_unit_trace(4, 1500, 30, 5)
    pol = _recording(cls)(*args)
    m = simulate(tr, pol, CacheConfig(8.0), record_evictions=True)
    objects = tr.objects.tolist()
    hits, victims = naive_follow(objects, tr.clients.tolist(), 8, 5, pol.gamma)
    assert unpacked_eviction_objects(m) == victims
    assert pol.reads_misses
    assert [r[0] for r in pol.requests] == list(range(len(tr)))
    _check_positions(pol, tr.identity_keys().tolist(), tr.clients.tolist(), hits)


@pytest.mark.parametrize(
    "cls, args", [(SievePolicy, ()), (LFRUPolicy, (5,))], ids=["sieve", "lfru"]
)
def test_hook_positions_index_the_forwarded_stream(cls, args):
    # capacity 12 and fraction 0.25 give each client 3 private slots; hooks
    # number the requests the shared cache sees, not the trace's events
    tr = random_unit_trace(0, 1500, 40, 6)
    pol = _recording(cls)(*args)
    simulate(tr, pol, CacheConfig(12.0, local_cache_fraction=0.25))
    objects, clients = tr.objects.tolist(), tr.clients.tolist()
    forwarded, local_hits = naive_local_filter(objects, clients, 3)
    assert local_hits > 0
    keys = [k for k, f in zip(tr.identity_keys().tolist(), forwarded) if f]
    fwd_clients = [c for c, f in zip(clients, forwarded) if f]
    fwd_objects = [o for o, f in zip(objects, forwarded) if f]
    if cls is SievePolicy:
        hits, _ = NAIVE["sieve"](fwd_objects, 12)
    else:
        hits, _ = naive_follow(fwd_objects, fwd_clients, 12, 5, 1.0)
    _check_positions(pol, keys, fwd_clients, hits)


def test_oversized_miss_counts_for_lfu_but_is_never_admitted():
    # d1 (size 11) never fits the 3-byte cache: its requests are misses that
    # get neither on_request nor on_admit, yet count toward d1's total
    requests = [1, 2, 1, 3, 1, 4, 2, 1, 5, 3, 6, 1]
    tr = make_trace([(t, 1, o) for t, o in enumerate(requests, start=1)], sizes={1: 11.0})
    pol = _recording(LFUPolicy)()
    m = simulate(tr, pol, CacheConfig(3.0), record_evictions=True)
    assert m.oversized_misses == requests.count(1) == 5
    hits, victims = naive_sized_lfu(requests, [11 if o == 1 else 1 for o in requests], 3)
    assert unpacked_eviction_objects(m) == victims and m.hits == sum(hits)
    keys = tr.identity_keys().tolist()
    assert [i for i, _ in pol.admits] == [
        i for i, (o, h) in enumerate(zip(requests, hits)) if o != 1 and not h
    ]
    assert all(keys[i] != keys[0] for i, *_ in pol.requests)
    n = len(requests)
    counts = [pol._priority[i] // n for i in range(n)]
    assert counts == [requests[: i + 1].count(o) for i, o in enumerate(requests)]
    assert [p % n for p in pol._priority] == list(range(n))


# ---------------------------------------------------------------------------
# naive-oracle equivalence (victim-for-victim)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["lru", "lfu", "belady", "sieve"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_victims_match_naive_reference(kind, seed):
    tr = random_unit_trace(seed, 1500, 40, 6)
    m = victim_sequence(tr, kind, 12.0)
    hits, victims = NAIVE[kind](tr.objects.tolist(), 12)
    assert unpacked_eviction_objects(m) == victims
    assert m.hits == sum(hits)


def check_sized_naive_reference(kind, oracle, requests, sizes, capacity):
    """Eviction log, hits and per-pair hits of ``kind`` against ``oracle``
    on (client, object) requests, object o having size ``sizes[o - 1]``."""
    tr = make_trace(
        [(t, c, o) for t, (c, o) in enumerate(requests, start=1)],
        sizes={o: float(s) for o, s in enumerate(sizes, start=1)},
    )
    m = victim_sequence(tr, kind, float(capacity))
    objects = tr.objects.tolist()
    hits, victims = oracle(objects, [sizes[o - 1] for o in objects], capacity)
    assert unpacked_eviction_objects(m) == victims
    assert m.hits == sum(hits)
    want: dict = {}
    for c, o, h in zip(tr.clients.tolist(), objects, hits):
        want[(c, o)] = want.get((c, o), 0) + h
    got = zip(m.pair_clients.tolist(), m.pair_objects.tolist(), m.pair_hits.tolist())
    assert {(c, o): h for c, o, h in got} == want


sized_requests = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 10)), min_size=1, max_size=150
)
sized_catalog = st.lists(st.sampled_from([1, 2, 3, 11]), min_size=10, max_size=10)


@settings(max_examples=60, deadline=None)
@given(sized_requests, sized_catalog, st.integers(3, 10))
def test_lfu_matches_sized_naive_reference(requests, sizes, capacity):
    # sizes 1-3 make one admission evict several residents; size 11 never
    # fits and is bypassed, but still counted
    check_sized_naive_reference("lfu", naive_sized_lfu, requests, sizes, capacity)


_SIZES = [1, 2, 3, 11, 1, 2, 3, 11, 1, 1]


@settings(max_examples=60, deadline=None)
@given(sized_requests, sized_catalog, st.integers(3, 10))
# d3 (size 3) empties a 3-byte cache; d4 (size 11) passes it by
@example([(1, 1), (1, 2), (1, 3), (2, 4), (1, 1), (2, 2)], _SIZES, 3)
def test_lru_matches_sized_naive_reference(requests, sizes, capacity):
    check_sized_naive_reference("lru", naive_sized_lru, requests, sizes, capacity)


@settings(max_examples=100, deadline=None)
@given(sized_requests, sized_catalog, st.integers(3, 10))
# d3 (size 3) empties a 3-byte cache, then d1 empties it again
@example([(1, 1), (1, 2), (1, 1), (1, 3), (1, 1), (1, 5), (1, 2)], _SIZES, 3)
# d4 (size 11) never fits and passes a full cache by, evicting nothing
@example([(1, 1), (2, 2), (1, 4), (2, 2), (3, 6), (1, 4), (2, 2), (3, 9)], _SIZES, 3)
def test_sieve_matches_sized_naive_reference(requests, sizes, capacity):
    check_sized_naive_reference("sieve", naive_sized_sieve, requests, sizes, capacity)


class _WatchedLFU(LFUPolicy):
    """LFU that checks its heap length after every push and counts rebuilds."""

    def __init__(self):
        super().__init__()
        self.worst = 0.0  # largest heap length / bound seen after a push
        self.rebuilds = 0

    def _watch(self, before):
        n = len(self._heap)
        self.rebuilds += n <= before  # a push that did not grow the heap rebuilt it
        self.worst = max(self.worst, n / (4 * len(self.order) + 64))

    def on_request(self, i, client, key, hit):
        before = len(self._heap)
        super().on_request(i, client, key, hit)
        if hit:
            self._watch(before)

    def on_admit(self, i, key):
        before = len(self._heap)
        super().on_admit(i, key)
        self._watch(before)


def test_lfu_heap_stays_bounded_by_the_cache():
    # the heap never holds more than 4 entries per resident plus 64,
    # however long the trace
    tr = random_unit_trace(7, 30_000, 400, 6)
    pol = _WatchedLFU()
    m = simulate(tr, pol, CacheConfig(40.0), record_evictions=True)
    assert m.evictions > 10_000
    assert pol.rebuilds > 50
    assert pol.worst <= 1.0
    hits, victims = NAIVE["lfu"](tr.objects.tolist(), 40)
    assert unpacked_eviction_objects(m) == victims and m.hits == sum(hits)


@pytest.mark.parametrize("window", [0, 1, 2, 3, 5, 8, 20, 46, 47])
@pytest.mark.parametrize("gamma", [0.5, 0.55, 0.6, 0.7, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_follow_victims_match_naive_reference(window, gamma, seed):
    # no follow_counts() call during the run: it would refresh the cached
    # scores and hide a stale score read by victim()
    tr = random_unit_trace(seed, 1500, 30, 5)
    m = simulate(tr, LFRUSPolicy(window, gamma), CacheConfig(8.0), record_evictions=True)
    hits, victims = naive_follow(tr.objects.tolist(), tr.clients.tolist(), 8, window, gamma)
    assert unpacked_eviction_objects(m) == victims
    assert m.hits == sum(hits)


class _FromScratchFollow(Policy):
    """Follow-aware policy that rebuilds every score from the windows."""

    reads_misses = True

    def __init__(self, window: int, gamma: float):
        self.window = window
        self.gamma = gamma
        self.windows: dict = {}
        self.last_requester: dict = {}

    def on_request(self, i, client, key, hit):
        prev = self.last_requester.get(key)
        self.last_requester[key] = client
        if self.window == 0:
            return
        w = self.windows.setdefault(client, [])
        w.append(prev if hit and prev is not None and prev != client else None)
        del w[: -(self.window + 1)]

    def follow_counts(self):
        return naive_follow_counts(self.windows, self.gamma)

    def victim(self):
        scores = naive_follow_scores(self.windows, self.gamma)
        last_req = self.last_requester
        ranked = enumerate(self.order)
        key = min(ranked, key=lambda ik: (scores.get(last_req[ik[1]], 0), ik[0]))[1]
        return key, self.order.pop(key)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 10)), min_size=1, max_size=120),
    st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=10, max_size=10),
    st.integers(3, 10),
    st.sampled_from([0, 1, 2, 3, 5, 6, 46, 47]),
    st.sampled_from([0.5, 0.55, 0.6, 0.7, 1.0]),
    st.sampled_from([0.0, 0.4]),
)
def test_follow_policy_matches_from_scratch_with_sizes(
    requests, sizes, capacity, window, gamma, local
):
    # sizes 1-3 make one admission evict several residents at once;
    # fraction 0.4 gives each client a private tier of 1-4 bytes.  gammas
    # 0.5-0.6 count at some of these windows and patch at others
    tr = make_trace(
        [(t, c, o) for t, (c, o) in enumerate(requests, start=1)],
        sizes={o: s for o, s in enumerate(sizes, start=1)},
    )
    config = CacheConfig(float(capacity), local_cache_fraction=local)
    fast = LFRUSPolicy(window, gamma)
    slow = _FromScratchFollow(window, gamma)
    a = simulate(tr, fast, config, record_evictions=True)
    b = simulate(tr, slow, config, record_evictions=True)
    assert a.eviction_log == b.eviction_log
    assert (a.hits, a.local_hits) == (b.hits, b.local_hits)
    assert fast.follow_counts() == slow.follow_counts()
    assert fast.window_snapshot() == {c: tuple(w) for c, w in slow.windows.items()}


# ---------------------------------------------------------------------------
# lfru's stamp search: shared client codes, saturated classes, oversized
# requests (see LFRUSPolicy)
# ---------------------------------------------------------------------------


def _shared_code_trace(seed: int, n_events: int) -> tuple[list, list]:
    """(objects, clients) of a unit-size stream where 300 filler clients
    (ids 1-300) take turns requesting random objects, while client 1000
    requests objects that client 1001 requests next.  The pair has the two
    largest ids, so both share the stamp code of every client past the
    254th, and client 1000 keeps a positive score."""
    rng = np.random.default_rng(seed)
    objects, clients = [], []
    lead = None
    filler = 0
    for r in rng.random(n_events).tolist():
        if r < 0.3:
            lead = int(rng.integers(1, 40))
            objects.append(lead)
            clients.append(1000)
        elif r < 0.5 and lead is not None:
            objects.append(lead)
            clients.append(1001)
        else:
            objects.append(int(rng.integers(1, 40)))
            clients.append(1 + filler % 300)
            filler += 1
    return objects, clients


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([2, 5, 20]), st.integers(4, 12))
def test_lfru_with_more_clients_than_codes_matches_naive_reference(seed, window, capacity):
    objects, clients = _shared_code_trace(seed, 900)
    assert len(set(clients)) > 254
    tr = make_trace([(t, c, o) for t, (c, o) in enumerate(zip(clients, objects), start=1)])
    pol = LFRUPolicy(window)
    m = simulate(tr, pol, CacheConfig(float(capacity)), record_evictions=True)
    hits, victims = naive_follow(tr.objects.tolist(), tr.clients.tolist(), capacity, window, 1.0)
    assert unpacked_eviction_objects(m) == victims
    assert m.hits == sum(hits)
    assert pol._row_scores().get(1000, 0) > 0


def _saturated_trace(seed: int, rounds: int) -> list:
    """(client, object) requests of two groups whose leaders score beyond
    254 at windows of 280-300.

    In a round of group (leader, follower), the leader requests a new
    object, the follower requests it (following the leader) and the leader
    requests it again (following the follower), so the leader owns it.  The
    groups take rounds in random order.  Group (1, 2) never skips; in every
    16th round of group (3, 4) the follower requests a new object of its own
    instead, so leader 3 scores less than leader 1."""
    rng = np.random.default_rng(seed)
    requests = []
    fresh = 0
    skips = 0
    for g in rng.integers(0, 2, rounds).tolist():
        leader, follower = (1, 2) if g == 0 else (3, 4)
        fresh += 1
        requests.append((leader, fresh))
        skips += g
        if g and skips % 16 == 0:
            fresh += 1
            requests.append((follower, fresh))
        else:
            requests += [(follower, fresh), (leader, fresh)]
    return requests


@settings(max_examples=4, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([280, 300]), st.integers(3, 8))
def test_lfru_with_saturated_scores_matches_naive_reference(seed, window, capacity):
    requests = _saturated_trace(seed, 1300)
    tr = make_trace([(t, c, o) for t, (c, o) in enumerate(requests, start=1)])
    pol = LFRUPolicy(window)
    m = simulate(tr, pol, CacheConfig(float(capacity)), record_evictions=True)
    hits, victims = naive_follow(tr.objects.tolist(), tr.clients.tolist(), capacity, window, 1.0)
    assert unpacked_eviction_objects(m) == victims
    assert m.hits == sum(hits)
    scores = pol._row_scores()
    assert scores[1] > scores[3] >= 254


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 10)), min_size=1, max_size=150),
    st.lists(st.sampled_from([1.0, 2.0, 3.0, 11.0]), min_size=10, max_size=10),
    st.integers(3, 10),
    st.sampled_from([1, 2, 3, 6]),
    st.sampled_from([0.0, 0.4]),
)
# client 2 follows client 1, so client 1's d2 is searched from; the search
# meets client 3's request of d9 (size 11, never admitted) before d3
@example(
    [(1, 1), (2, 1), (1, 2), (3, 9), (3, 3), (3, 4), (3, 5)],
    [1.0] * 8 + [11.0, 1.0], 3, 2, 0.0,
)
def test_lfru_with_oversized_objects_matches_from_scratch(requests, sizes, capacity, window, local):
    # size 11 never fits: its requests are stamped but never admitted;
    # fraction 0.4 gives each client a private tier of 1-4 bytes
    tr = make_trace(
        [(t, c, o) for t, (c, o) in enumerate(requests, start=1)],
        sizes={o: s for o, s in enumerate(sizes, start=1)},
    )
    config = CacheConfig(float(capacity), local_cache_fraction=local)
    fast = LFRUPolicy(window)
    slow = _FromScratchFollow(window, 1.0)
    a = simulate(tr, fast, config, record_evictions=True)
    b = simulate(tr, slow, config, record_evictions=True)
    assert a.eviction_log == b.eviction_log
    assert (a.hits, a.local_hits, a.oversized_misses) == (b.hits, b.local_hits, b.oversized_misses)
    assert fast.follow_counts() == slow.follow_counts()


def test_lfru_stamp_search_span_is_bounded_by_the_residents():
    # client 2 follows client 1 on d1 and goes idle, so client 1 keeps
    # score 1 and its d2 stays least recent, while client 3 streams new
    # objects through 3 slots: the requests since d2's grow without bound
    requests = [(1, 1), (2, 1), (1, 2)] + [(3, o) for o in range(3, 2003)]
    tr = make_trace([(t, c, o) for t, (c, o) in enumerate(requests, start=1)])
    pol = LFRUPolicy(20)
    spans = []
    search = pol._stamp_victim

    def counted(lo, scores):
        spans.append(pol._now - lo)
        return search(lo, scores)

    pol._stamp_victim = counted
    m = simulate(tr, pol, CacheConfig(3.0), record_evictions=True)
    _, victims = naive_follow(tr.objects.tolist(), tr.clients.tolist(), 3, 20, 1.0)
    assert unpacked_eviction_objects(m) == victims
    assert m.evictions == 1999 and pol._row_scores() == {1: 1}
    # past _STAMP_SPAN requests per resident the resident scan takes over:
    # each search is shorter, and there are fewer searches than evictions
    assert max(spans) <= policies._STAMP_SPAN * 3
    assert 0 < len(spans) <= policies._STAMP_SPAN * 3


# ---------------------------------------------------------------------------
# static-optimal selection
# ---------------------------------------------------------------------------


def test_static_optimal_unit_sizes_top_k():
    sel = static_optimal_select({1: 5.0, 2: 3.0, 3: 1.0}, {1: 1.0, 2: 1.0, 3: 1.0}, 2.0)
    assert sel.keys == frozenset({1, 2}) and sel.value == 8.0 and sel.exact


def test_static_optimal_budget_covers_everything():
    sizes = {1: 3.0, 2: 2.0, 3: 2.0}
    sel = static_optimal_select({1: 4.0, 2: 3.0, 3: 3.0}, sizes, 7.0)
    assert sel.keys == frozenset({1, 2, 3}) and sel.exact


def test_static_optimal_prefers_two_small_over_one_big():
    sel = static_optimal_select({1: 4.0, 2: 3.0, 3: 3.0}, {1: 3.0, 2: 2.0, 3: 2.0}, 4.0)
    assert sel.keys == frozenset({2, 3}) and sel.value == 6.0 and sel.exact


def test_static_optimal_validation():
    with pytest.raises(PolicyConfigError):
        static_optimal_select({1: 1.0}, {1: 1.0}, 0.0)
    with pytest.raises(PolicyConfigError, match="size"):
        static_optimal_select({1: 1.0, 2: 1.0}, {1: 1.0}, 1.0)


def test_static_optimal_drops_zero_weight_objects():
    sel = static_optimal_select({1: 0.0, 2: 1.0}, {1: 1.0, 2: 1.0}, 5.0)
    assert sel.keys == frozenset({2})


def test_static_optimal_large_catalogs_flagged_heuristic():
    n = 40
    weights = {k: float(k) for k in range(1, n + 1)}
    sizes = {k: 1.0 + (k % 3) for k in range(1, n + 1)}
    sel = static_optimal_select(weights, sizes, 11.0)
    assert not sel.exact
    assert sum(sizes[k] for k in sel.keys) <= 11.0


def test_static_optimal_matches_bruteforce_on_random_instances():
    import itertools

    import numpy as np

    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 13))
        keys = list(range(1, n + 1))
        weights = {k: float(rng.integers(1, 64)) for k in keys}
        sizes = {k: float(rng.integers(1, 8)) for k in keys}
        budget = float(rng.integers(1, 20))
        sel = static_optimal_select(weights, sizes, budget)
        best = 0.0
        for r in range(n + 1):
            for combo in itertools.combinations(keys, r):
                if sum(sizes[k] for k in combo) <= budget:
                    best = max(best, sum(weights[k] for k in combo))
        assert sel.exact
        assert sel.value == best
        assert sum(sizes[k] for k in sel.keys) <= budget
        assert sum(weights[k] for k in sel.keys) == best


# ---------------------------------------------------------------------------
# follow bookkeeping (shared by the follow-aware policies)
# ---------------------------------------------------------------------------


def test_follow_recorded_on_cross_client_hit():
    _, pol = run_policy([(1, 1, 1), (2, 2, 1)], LFRUPolicy(window=5))
    assert pol.follow_counts() == {(1, 2): 1}
    assert pol.follow_matrix_csv() == "c1,c2,count\n1,2,1\n"


def test_self_follow_is_not_recorded():
    _, pol = run_policy([(1, 2, 1), (2, 2, 1)], LFRUPolicy(window=5))
    assert pol.follow_counts() == {}
    assert pol.window_snapshot()[2] == (None, None)


def test_follow_event_slides_out_of_window():
    events = [(1, 1, 1), (2, 2, 1), (3, 2, 7), (4, 2, 8)]
    _, pol = run_policy(events, LFRUPolicy(window=1))
    assert pol.follow_counts() == {}


def test_misses_do_not_count_as_follows():
    _, pol = run_policy([(1, 1, 1), (2, 2, 2)], LFRUPolicy(window=5))
    assert pol.follow_counts() == {}


def test_follow_score_is_row_maximum():
    # B follows A twice, C follows A once: A's score is max(2, 1) = 2
    events = [
        (1, 1, 1), (2, 2, 1), (3, 1, 2), (4, 2, 2),
        (5, 1, 3), (6, 3, 3),
    ]
    _, pol = run_policy(events, LFRUPolicy(window=10))
    assert pol.follow_counts() == {(1, 2): 2, (1, 3): 1}
    assert pol._row_scores() == {1: 2}


def test_follow_counts_bounded_and_off_diagonal():
    tr = random_unit_trace(5, 2000, 25, 4)
    pol = LFRUPolicy(window=5)
    simulate(tr, pol, CacheConfig(10.0))
    counts = pol.follow_counts()
    assert counts, "expected some follow events in a skewed random trace"
    for (c1, c2), n in counts.items():
        assert c1 != c2
        assert 1 <= n <= 6  # window + 1


def test_follow_counts_match_window_recomputation():
    tr = random_unit_trace(9, 3000, 30, 5)
    pol = LFRUPolicy(window=8)
    simulate(tr, pol, CacheConfig(12.0))
    recomputed: dict = {}
    for c2, window in pol.window_snapshot().items():
        for outcome in window:
            if outcome is not None:
                recomputed[(outcome, c2)] = recomputed.get((outcome, c2), 0) + 1
    assert pol.follow_counts() == recomputed


def test_lfrus_counts_match_window_recomputation():
    tr = random_unit_trace(13, 3000, 30, 5)
    pol = LFRUSPolicy(window=8, gamma=0.7)
    simulate(tr, pol, CacheConfig(12.0))
    recomputed: dict = {}
    for c2, window in pol.window_snapshot().items():
        for lag, outcome in enumerate(reversed(window)):
            if outcome is not None:
                key = (outcome, c2)
                recomputed[key] = recomputed.get(key, 0.0) + 0.7**lag
    floored = {k: math.floor(v) for k, v in recomputed.items() if math.floor(v)}
    assert pol.follow_counts() == floored


# ---------------------------------------------------------------------------
# LFRU / LFRUS eviction behaviour
# ---------------------------------------------------------------------------


def test_lfru_spares_object_of_followed_client():
    events = [(1, 1, 1), (2, 1, 2), (3, 2, 1), (4, 3, 3)]
    # LRU would drop d2 (least recent); LFRU drops d1 because its last
    # requester B has follow score 0 while d2's requester A scores 1
    assert evictions(events, "lru", 2) == [2]
    m = simulate(
        make_trace(events), LFRUPolicy(window=20), CacheConfig(2.0), record_evictions=True
    )
    assert unpacked_eviction_objects(m) == [1]


def test_lfru_without_hits_equals_lru():
    tr = make_trace([(t, 1, t) for t in range(1, 30)])  # every request misses
    a = victim_sequence(tr, "lru", 4.0)
    b = simulate(tr, LFRUPolicy(window=20), CacheConfig(4.0), record_evictions=True)
    assert a.eviction_log == b.eviction_log
    assert b.hits == 0


def test_lfru_window_zero_equals_lru():
    tr = random_unit_trace(3, 2500, 30, 5)
    a = victim_sequence(tr, "lru", 10.0)
    b = simulate(tr, LFRUPolicy(window=0), CacheConfig(10.0), record_evictions=True)
    c = simulate(tr, LFRUSPolicy(window=0, gamma=0.5), CacheConfig(10.0), record_evictions=True)
    assert a.eviction_log == b.eviction_log == c.eviction_log
    assert a.hits == b.hits == c.hits


def test_lfrus_gamma_one_equals_lfru():
    tr = random_unit_trace(8, 2500, 30, 5)
    a = simulate(tr, LFRUPolicy(window=6), CacheConfig(10.0), record_evictions=True)
    pol_b = LFRUSPolicy(window=6, gamma=1.0)
    b = simulate(tr, pol_b, CacheConfig(10.0), record_evictions=True)
    assert a.eviction_log == b.eviction_log
    assert a.hits == b.hits
    pol_a = LFRUPolicy(window=6)
    simulate(tr, pol_a, CacheConfig(10.0))
    assert pol_a.follow_counts() == pol_b.follow_counts()


def test_lfrus_geometric_weighting_floors():
    # follows of A at lags 0,1,2 with gamma=0.5: floor(1 + 0.5 + 0.25) = 1
    events = [(1, 1, 1), (2, 1, 2), (3, 1, 3), (4, 2, 1), (5, 2, 2), (6, 2, 3)]
    _, pol = run_policy(events, LFRUSPolicy(window=5, gamma=0.5))
    assert pol.follow_counts() == {(1, 2): 1}


def test_lfrus_single_follow_at_lag_three_floors_to_zero():
    # gamma=0.5 at lag 3 contributes 0.125, flooring to nothing
    events = [(1, 1, 1), (2, 2, 1), (3, 2, 7), (4, 2, 8), (5, 2, 9)]
    _, pol = run_policy(events, LFRUSPolicy(window=5, gamma=0.5))
    assert pol.follow_counts() == {}
    assert pol.window_snapshot()[2] == (1, None, None, None)


def test_policy_kind_registry_is_complete():
    assert set(POLICY_KINDS) == {"lru", "lfu", "sieve", "belady", "static_opt", "lfru", "lfrus"}
