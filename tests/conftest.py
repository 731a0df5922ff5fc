"""Shared fixtures and independent reference implementations.

The reference simulators here are deliberately naive (plain lists, linear
scans, no shared code with the package) so they can serve as oracles for the
optimized implementations under test.
"""

from __future__ import annotations

import math
import signal
import threading
from collections import OrderedDict

import numpy as np
import pytest

from corrcache.trace import ObjectCatalog, Trace

# One line per acceptance criterion, appended by tests/test_acceptance.py and
# echoed after the test summary so the verdicts survive output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# A test that runs longer than this fails, so that a loop that never ends
# fails the suite instead of hanging it.  The slowest test takes ~16 s.
TEST_SECONDS = 120


class WallClockExceeded(BaseException):
    """Raised inside a test that runs past TEST_SECONDS.  It is no
    Exception, so hypothesis passes it on at once instead of shrinking,
    which would rerun the examples that may never end."""


@pytest.fixture(autouse=True)
def _wall_clock_bound():
    if not hasattr(signal, "setitimer") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(signum, frame):
        raise WallClockExceeded(f"test still running after {TEST_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# Trace builders
# ---------------------------------------------------------------------------


def make_trace(events, sizes=None, versions=False, meta=None) -> Trace:
    """Build a trace from (time, client, object[, version]) tuples.

    ``sizes`` maps object id (or (id, version)) to size; omitted objects get
    size 1.  Events are sorted into canonical order.
    """
    times = np.array([e[0] for e in events], dtype=np.float64)
    clients = np.array([e[1] for e in events], dtype=np.int64)
    objects = np.array([e[2] for e in events], dtype=np.int64)
    if versions:
        vers = np.array(
            [-1 if e[3] is None else e[3] for e in events], dtype=np.int64
        )
    else:
        vers = None
    catalog = ObjectCatalog()
    sizes = sizes or {}
    if versions:
        idents = {(int(o), None if v == -1 else int(v)) for o, v in zip(objects, vers)}
        for oid, ver in sorted(idents, key=lambda x: (x[0], -1 if x[1] is None else x[1])):
            catalog.add(oid, sizes.get((oid, ver), sizes.get(oid, 1.0)), ver)
    else:
        for oid in sorted(set(objects.tolist())):
            catalog.add(oid, sizes.get(oid, 1.0))
    tr = Trace(times, clients, objects, vers, catalog, meta)
    tr.sort_events()
    return tr


def naive_write_trace(trace: Trace, f) -> None:
    """`write_trace` one line at a time: every float through repr(), every
    int through str(), version -1 as "-".  The block writer must give the
    same text."""
    for k, v in trace.meta.items():
        f.write(f"#meta {k}={v}\n")
    for oid, ver in sorted(trace.catalog._sizes, key=lambda i: (i[0], -1 if i[1] is None else i[1])):
        size = trace.catalog.size(oid, ver)
        f.write(f"#obj {oid} {'-' if ver is None else ver} {size!r}\n")
    for t, c, o, v in zip(
        trace.times.tolist(), trace.clients.tolist(), trace.objects.tolist(), trace.versions.tolist()
    ):
        f.write(f"{t!r} {c} {o} {'-' if v == -1 else v}\n")


def random_unit_trace(seed: int, n_events: int, n_objects: int, n_clients: int) -> Trace:
    """Random unit-size trace with skewed popularity and integer-ish times."""
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, n_events / 4.0, n_events))
    clients = rng.integers(1, n_clients + 1, n_events)
    weights = 1.0 / np.arange(1, n_objects + 1)
    weights /= weights.sum()
    objects = 1 + rng.choice(n_objects, size=n_events, p=weights)
    catalog = ObjectCatalog()
    for oid in range(1, n_objects + 1):
        catalog.add(oid, 1.0)
    tr = Trace(times, clients, objects, None, catalog, {"seed": str(seed)})
    tr.sort_events()
    return tr


# ---------------------------------------------------------------------------
# Naive single-policy simulators (unit sizes, capacity = item count)
# ---------------------------------------------------------------------------


def naive_run(keys, capacity: int, victim_fn, on_request=None):
    """Drive a victim function over a unit-size request stream.

    ``resident`` is a plain list in recency order (least recent first).
    Returns (hit flags, victims in eviction order).
    """
    resident: list = []
    hits = []
    victims = []
    for pos, key in enumerate(keys):
        hit = key in resident
        if on_request is not None:
            on_request(pos, key, hit)
        if hit:
            resident.remove(key)
            resident.append(key)
            hits.append(True)
            continue
        hits.append(False)
        if len(resident) >= capacity:
            v = victim_fn(resident, pos)
            resident.remove(v)
            victims.append(v)
        resident.append(key)
    return hits, victims


def naive_lru(keys, capacity: int):
    return naive_run(keys, capacity, lambda resident, pos: resident[0])


def naive_sized_lru(keys, sizes, capacity):
    """LRU over a byte budget, one size per request.

    A miss that fits evicts the least-recent residents until it does; an
    object larger than the whole cache is never admitted.  Returns (hit
    flags, victims in eviction order).
    """
    resident: list = []  # recency order, least recent first
    size_of: dict = {}
    used = 0
    hits = []
    victims = []
    for key, size in zip(keys, sizes):
        if key in resident:
            resident.remove(key)
            resident.append(key)
            hits.append(True)
            continue
        hits.append(False)
        if size > capacity:
            continue
        while used + size > capacity:
            v = resident.pop(0)
            used -= size_of.pop(v)
            victims.append(v)
        resident.append(key)
        size_of[key] = size
        used += size
    return hits, victims


def naive_lfu(keys, capacity: int):
    counts: dict = {}

    def on_request(pos, key, hit):
        counts[key] = counts.get(key, 0) + 1

    def victim(resident, pos):
        return min(resident, key=lambda k: (counts.get(k, 0), resident.index(k)))

    return naive_run(keys, capacity, victim, on_request=on_request)


def naive_sized_lfu(keys, sizes, capacity):
    """LFU over a byte budget, one size per request.

    Every request counts, also one for an object larger than the whole cache,
    which is never admitted.  A miss that fits evicts the smallest-count
    resident (ties to least-recently-used) until it does.
    Returns (hit flags, victims in eviction order).
    """
    resident: list = []  # recency order, least recent first
    size_of: dict = {}
    counts: dict = {}
    used = 0
    hits = []
    victims = []
    for key, size in zip(keys, sizes):
        counts[key] = counts.get(key, 0) + 1
        if key in resident:
            resident.remove(key)
            resident.append(key)
            hits.append(True)
            continue
        hits.append(False)
        if size > capacity:
            continue
        while used + size > capacity:
            v = min(resident, key=lambda k: (counts[k], resident.index(k)))
            resident.remove(v)
            used -= size_of.pop(v)
            victims.append(v)
        resident.append(key)
        size_of[key] = size
        used += size
    return hits, victims


def naive_belady(keys, capacity: int):
    n = len(keys)

    def victim(resident, pos):
        best, best_next = None, -1
        for k in resident:  # least-recent first: earlier wins ties
            try:
                nxt = keys.index(k, pos + 1)
            except ValueError:
                nxt = n + 1  # never again: beats everything
            if nxt > best_next:
                best, best_next = k, nxt
        return best

    return naive_run(keys, capacity, victim)


def naive_sieve(keys, capacity: int):
    return naive_sized_sieve(keys, [1] * len(keys), capacity)


def naive_sized_sieve(keys, sizes, capacity):
    """SIEVE over a byte budget, one size per request.

    ``queue`` lists the residents oldest first and never reorders them; a
    hit sets the key's visited bit.  The hand is the key it points at, or
    None for "start at the oldest".  Eviction clears visited bits from the
    hand toward older entries, wrapping from the oldest to the newest, and
    removes the first unvisited entry; the hand moves to that entry's older
    neighbour, to the newest entry when it was the oldest, and to None when
    the queue is empty.  An object larger than the whole cache is never
    admitted.  Returns (hit flags, victims in eviction order).
    """
    queue: list = []
    visited: dict = {}
    size_of: dict = {}
    hand = None
    used = 0
    hits = []
    victims = []
    for key, size in zip(keys, sizes):
        if key in size_of:
            visited[key] = True
            hits.append(True)
            continue
        hits.append(False)
        if size > capacity:
            continue
        while used + size > capacity:
            idx = 0 if hand is None else queue.index(hand)
            while visited[queue[idx]]:
                visited[queue[idx]] = False
                idx = idx - 1 if idx > 0 else len(queue) - 1
            v = queue.pop(idx)
            del visited[v]
            used -= size_of.pop(v)
            victims.append(v)
            if idx > 0:
                hand = queue[idx - 1]
            else:
                hand = queue[-1] if queue else None
        queue.append(key)
        visited[key] = False
        size_of[key] = size
        used += size
    return hits, victims


def naive_follow_counts(windows, gamma) -> dict:
    """Floored follow matrix {(c1, c2): n} rebuilt from outcome windows.

    ``windows`` maps each client c2 to its outcomes, oldest first.  The
    outcome at lag k (lag 0 = newest) weighs gamma**k; the weights of each
    followed client c1 are summed newest first and floored.
    """
    out = {}
    for c2, window in windows.items():
        sums: dict = {}
        for lag, outcome in enumerate(reversed(window)):
            if outcome is not None:
                sums[outcome] = sums.get(outcome, 0.0) + gamma**lag
        for c1, v in sums.items():
            n = math.floor(v)
            if n:
                out[(c1, c2)] = n
    return out


def naive_follow_scores(windows, gamma) -> dict:
    """Row score per followed client: its best floored column."""
    scores: dict = {}
    for (c1, _c2), n in naive_follow_counts(windows, gamma).items():
        scores[c1] = max(scores.get(c1, 0), n)
    return scores


def naive_follow(keys, clients, capacity: int, window: int, gamma: float, windows=None):
    """Follow-aware eviction (lfrus; lfru at gamma=1) scored from scratch.

    Each client keeps the outcomes of its last window+1 requests: the other
    client it followed on a hit, else None.  Every victim choice rebuilds the
    follow matrix from the windows, then takes the least-recent resident
    among those whose last requester has the lowest row score.  A given
    ``windows`` dict is filled with them and holds the final ones after the
    run.
    """
    last_req: dict = {}
    if windows is None:
        windows = {}

    def on_request(pos, key, hit):
        c = clients[pos]
        prev = last_req.get(key)
        if window > 0:
            w = windows.setdefault(c, [])
            w.append(prev if hit and prev is not None and prev != c else None)
            del w[: -(window + 1)]
        last_req[key] = c

    def victim(resident, pos):
        scores = naive_follow_scores(windows, gamma)
        return min(resident, key=lambda k: (scores.get(last_req[k], 0), resident.index(k)))

    return naive_run(keys, capacity, victim, on_request=on_request)


def naive_local_filter(keys, clients, slots: int):
    """Private tiers of ``slots`` unit-size objects, one LRU per client.

    Returns (forwarded flag per request, private-tier hit count).
    """
    return naive_sized_local_filter(keys, [1] * len(keys), clients, slots)


def naive_sized_local_filter(keys, sizes, clients, budget):
    """Private tiers of ``budget`` bytes, one LRU per client, one size per
    request.

    Each client's cache evicts its least-recent entries until the request
    fits; an object larger than the budget is never admitted.  With one
    client for every request this is the shared cache's LRU.  Returns
    (forwarded flag per request, private-tier hit count).
    """
    caches: dict = {}
    forwarded = []
    for key, size, client in zip(keys, sizes, clients):
        cache = caches.setdefault(client, OrderedDict())
        if key in cache:
            cache.move_to_end(key)
            forwarded.append(False)
            continue
        forwarded.append(True)
        if size <= budget:
            while sum(cache.values()) + size > budget:
                cache.popitem(last=False)
            cache[key] = size
    return forwarded, forwarded.count(False)


NAIVE = {"lru": naive_lru, "lfu": naive_lfu, "belady": naive_belady, "sieve": naive_sieve}


# ---------------------------------------------------------------------------
# Engine-facing helpers
# ---------------------------------------------------------------------------


def victim_sequence(trace: Trace, policy_kind: str, capacity: float):
    """Run the real engine recording the eviction order."""
    from corrcache.engine import CacheConfig, simulate
    from corrcache.policies import PolicyParams

    m = simulate(
        trace,
        PolicyParams(policy_kind),
        CacheConfig(capacity=capacity),
        record_evictions=True,
    )
    return m


def unpacked_eviction_objects(metrics) -> list:
    """Eviction log as plain object ids (unit traces have no versions)."""
    return [k >> 8 for k in metrics.eviction_log]


# ---------------------------------------------------------------------------
# Toroid oracle: a from-scratch reimplementation at tiny scale
# ---------------------------------------------------------------------------


def toroid_oracle_events(spec, seed):
    """Recompute the full (time, client, object, version) event set of
    gen_toroid_trace for dynamics-free specs, replicating its documented
    randomness consumption order (object positions first, then per-leader
    initial position and direction draws)."""
    rng = np.random.default_rng(seed)
    side = spec.side
    objects_pos = rng.uniform(0.0, side, size=(spec.num_objects, 3))

    def unit(rng):
        while True:
            v = rng.normal(size=3)
            n = np.linalg.norm(v)
            if n > 1e-12:
                return v / n

    paths = []
    for _ in spec.groups:
        pos = rng.uniform(0.0, side, size=3)
        direction = unit(rng)
        path = [pos.copy()]
        for n in range(1, spec.horizon_slots):
            if n % spec.direction_period == 0:
                direction = unit(rng)
            pos = (pos + spec.speed * direction) % side
            path.append(pos.copy())
        paths.append(path)

    def torus_d2(a, b):
        acc = 0.0
        for k in range(3):
            d = abs(a[k] - b[k])
            d = min(d, side - d)
            acc += d * d
        return acc

    events = set()
    client = 0
    prev_visible: dict[int, set] = {}
    for li, g in enumerate(spec.groups):
        members = [("leader", 0)] + [("follower", d) for d in g.follower_delays]
        for role, delay in members:
            client += 1
            prev_visible[client] = set()
            for n in range(spec.horizon_slots):
                src = n - delay
                if role == "follower" and src < 0:
                    continue
                p = paths[li][n if role == "leader" else src]
                vis = set()
                for oi in range(spec.num_objects):
                    d2 = torus_d2(p, objects_pos[oi])
                    if d2 <= spec.visibility_radius**2:
                        vis.add(oi + 1)
                        if spec.newly_visible_only and (oi + 1) in prev_visible[client]:
                            continue
                        if spec.versioned:
                            ver = 0 if d2 < spec.near_radius**2 else 1
                            events.add((float(n), client, oi + 1, ver))
                        else:
                            events.add((float(n), client, oi + 1, -1))
                prev_visible[client] = vis
    return events


def _naive_torus_distance_sq(points, objects, side):
    """Squared minimal-image distance between points (..., 3) and objects (D, 3)."""
    out = None
    for k in range(3):
        diff = np.abs(points[..., k, None] - objects[:, k])
        np.minimum(diff, side - diff, out=diff)
        diff *= diff
        out = diff if out is None else out + diff
    return out


def naive_toroid_trace(spec, dynamics=None, seed=0):
    """gen_toroid_trace the dense way: every (client, slot, object) distance.

    Positions are laid out per client and slot (NaN before a follower
    starts), distances are taken against every object in slot chunks, and
    newly-visible filtering compares each slot with the one before.  Same
    randomness consumption order and meta as the library generator, so the
    two must agree byte for byte.  The dynamics steps are the package's own
    apply_order_shuffle/apply_leader_switch, which have tests of their own.
    """
    from corrcache.workloads import OrderShuffle, apply_leader_switch, apply_order_shuffle

    rng = np.random.default_rng(seed)
    side = spec.side
    H = spec.horizon_slots
    n_leaders = len(spec.groups)

    objects_pos = rng.uniform(0.0, side, size=(spec.num_objects, 3))

    def unit(rng):
        while True:
            v = rng.normal(size=3)
            n = np.linalg.norm(v)
            if n > 1e-12:
                return v / n

    paths = np.empty((n_leaders, H, 3))
    for li in range(n_leaders):
        pos = rng.uniform(0.0, side, size=3)
        direction = unit(rng)
        for n in range(H):
            if n > 0 and n % spec.direction_period == 0:
                direction = unit(rng)
            if n > 0:
                pos = (pos + spec.speed * direction) % side
            paths[li, n] = pos

    assignments = []
    for li, g in enumerate(spec.groups):
        assignments.extend((li, d) for d in g.follower_delays)
    n_followers = len(assignments)
    leader_by_slot = np.empty((n_followers, H), dtype=np.int64)
    delay_by_slot = np.empty((n_followers, H), dtype=np.int64)
    for n in range(H):
        if dynamics is not None:
            if isinstance(dynamics, OrderShuffle):
                assignments = apply_order_shuffle(assignments, dynamics.period, n)
            else:
                assignments = apply_leader_switch(assignments, dynamics, n, rng)
        for fi, (li, d) in enumerate(assignments):
            leader_by_slot[fi, n] = li
            delay_by_slot[fi, n] = d

    numbering = []
    fi = 0
    for li, g in enumerate(spec.groups):
        numbering.append(("leader", li))
        for _ in g.follower_delays:
            numbering.append(("follower", fi))
            fi += 1
    C = len(numbering)

    positions = np.full((C, H, 3), np.nan)
    slots = np.arange(H)
    for ci, (role, idx) in enumerate(numbering):
        if role == "leader":
            positions[ci] = paths[idx]
        else:
            src = slots - delay_by_slot[idx]
            ok = src >= 0
            positions[ci, ok] = paths[leader_by_slot[idx, ok], src[ok]]

    r2 = spec.visibility_radius**2
    near2 = spec.near_radius**2
    times_parts, client_parts, object_parts, version_parts = [], [], [], []
    prev_visible = np.zeros((C, spec.num_objects), dtype=bool)

    chunk = max(1, int(2_000_000 // max(1, C * spec.num_objects)))
    for start in range(0, H, chunk):
        stop = min(H, start + chunk)
        pos = positions[:, start:stop]  # (C, S, 3)
        with np.errstate(invalid="ignore"):
            d2 = _naive_torus_distance_sq(pos, objects_pos, side)  # (C, S, D)
            visible = d2 <= r2
        visible &= ~np.isnan(pos[..., 0])[..., None]
        if spec.newly_visible_only:
            request = visible.copy()
            request[:, 0, :] &= ~prev_visible
            if stop - start > 1:
                request[:, 1:, :] &= ~visible[:, :-1, :]
            prev_visible = visible[:, -1, :].copy()
        else:
            request = visible
        ci, si, oi = np.nonzero(request)
        times_parts.append((start + si).astype(np.float64))
        client_parts.append((ci + 1).astype(np.int64))
        object_parts.append((oi + 1).astype(np.int64))
        if spec.versioned:
            version_parts.append(np.where(d2[ci, si, oi] < near2, 0, 1).astype(np.int64))

    catalog = ObjectCatalog()
    for oid in range(1, spec.num_objects + 1):
        if spec.versioned:
            for tier, size in enumerate(spec.tier_sizes):
                catalog.add(oid, size, tier)
        else:
            catalog.add(oid, 1.0)

    meta = {
        "generator": "toroid",
        "seed": str(seed),
        "horizon_slots": str(H),
        "clients": str(C),
    }
    if dynamics is not None:
        meta["dynamics"] = type(dynamics).__name__.lower()
    trace = Trace(
        np.concatenate(times_parts),
        np.concatenate(client_parts),
        np.concatenate(object_parts),
        np.concatenate(version_parts) if spec.versioned else None,
        catalog,
        meta,
    )
    trace.sort_events()
    return trace


# ---------------------------------------------------------------------------
# Analytic model oracle
# ---------------------------------------------------------------------------


def naive_p_requested(model, t: float) -> np.ndarray:
    """``WorkingSetModel.p_requested`` as one fancy-index add per group.

    Each object's exponent starts at 0.0 and gains its groups' rate *
    integral terms in group order; the fast path must give the same bits.
    """
    exponent = np.zeros(len(model.object_ids))
    for gi, g in enumerate(model.groups):
        idx = np.searchsorted(model.object_ids, g.object_ids)
        exponent[idx] += g.rates * model.group_integral(gi, t)
    return -np.expm1(-exponent)


def naive_expected_cached_volume(model, t: float) -> float:
    """``WorkingSetModel.expected_cached_volume`` as the naive p times the
    sizes, summed."""
    return float((naive_p_requested(model, t) * model.sizes).sum())


def naive_role_tables(model, t: float) -> list:
    """Every role's hit vector at window length t, one factor per role.

    One (leader vector, follower vectors) pair per group, each vector its
    own array, from the naive p and the model's per-role factors.
    """
    from corrcache.workloads import StructuredDelays

    p = naive_p_requested(model, t)
    out = []
    for gi, g in enumerate(model.groups):
        pg = p[np.searchsorted(model.object_ids, g.object_ids)]
        factor = model._leader_factor(gi, t)
        leader = pg.copy() if factor == 1.0 else 1.0 - (1.0 - pg) * factor
        followers = []
        for i in range(g.followers):
            if isinstance(g.delays, StructuredDelays):
                followers.append(np.ones_like(pg) if g.delays.step < t else pg.copy())
                continue
            factor = model._follower_factor(gi, i, t)
            followers.append(pg.copy() if factor == 1.0 else 1.0 - (1.0 - pg) * factor)
        out.append((leader, followers))
    return out


def naive_normalized_rate(model, tables) -> float:
    """The normalised hit rate with every role's vector weighted and summed."""
    num = den = 0.0
    for g, (leader, followers) in zip(model.groups, tables, strict=True):
        den += float(g.rates.sum()) * (1 + g.followers)
        for vec in (leader, *followers):
            num += float((g.rates * vec).sum())
    return num / den


def trace_event_set(trace) -> set:
    return set(
        zip(
            trace.times.tolist(),
            trace.clients.tolist(),
            trace.objects.tolist(),
            trace.versions.tolist(),
        )
    )


@pytest.fixture
def tiny_toroid_spec():
    from corrcache.workloads import ToroidGroup, ToroidSpec

    return ToroidSpec(
        groups=(ToroidGroup(follower_delays=(2, 5)), ToroidGroup(follower_delays=(3,))),
        horizon_slots=20,
        side=100.0,
        num_objects=30,
        speed=12.0,
        direction_period=4,
        visibility_radius=25.0,
    )
