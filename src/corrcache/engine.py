"""Cache simulation engine.

Replays a request trace against a byte-budgeted cache under a pluggable
eviction policy.  Optionally each client first consults a small private LRU
cache, replayed by the same LRU code as the shared cache; only its misses are
forwarded to the shared cache, and all policy state and reported hit ratios
concern the forwarded stream, a `_Stream` derived once per trace and private tier.

Fresh policy params over forwarded requests that all have size 1.0 replay
through loops without Python hooks, where `simulate` lists one; every other
run takes the hook loop `_replay`, which gives the same metrics.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import math
import re
from array import array
from collections import OrderedDict, defaultdict, deque
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import IO

import numpy as np

from .policies import (
    _STAMP_SPAN,
    LFRUSPolicy,
    Policy,
    PolicyConfigError,
    PolicyParams,
    _class_moved,
    _HeapPolicy,
    _key_runs,
    _next_requests,
    _stable_argsort,
    build_policy,
    static_optimal_select,
)
from .trace import ObjectCatalog, Trace, _checked_sizes, _tabled, _unpack_keys

# Per-pair and follow counts go through dense tables while a table holds at
# most this many slots per forwarded request (see `_pair_rows`, `_counts`).
_PAIR_TABLE_FILL = 4


class ConfigurationError(ValueError):
    """Invalid simulation configuration or a policy/trace mismatch."""


class ConsistencyError(RuntimeError):
    """An internal accounting invariant failed after a run."""


@dataclass(frozen=True)
class CacheConfig:
    """Shared cache size in bytes plus the per-client private cache fraction.

    Each client's private cache holds floor(local_cache_fraction * capacity)
    bytes; zero disables the private tier entirely.
    """

    capacity: float
    local_cache_fraction: float = 0.0

    def __post_init__(self):
        if not (self.capacity > 0 and math.isfinite(self.capacity)):
            raise ConfigurationError("capacity must be positive and finite")
        if not 0 <= self.local_cache_fraction < 1:
            raise ConfigurationError("local_cache_fraction must be in [0, 1)")

    def local_capacity(self) -> float:
        return float(math.floor(self.local_cache_fraction * self.capacity))


@dataclass
class SimulationMetrics:
    """Counters from one run.  Hit ratio is over forwarded requests only."""

    policy: str
    capacity: float
    local_cache_fraction: float
    total_events: int
    forwarded: int
    hits: int
    local_hits: int
    oversized_misses: int
    evictions: int
    pair_clients: np.ndarray  # per observed (client, identity) row
    pair_objects: np.ndarray
    pair_versions: np.ndarray  # -1 where unversioned
    pair_requests: np.ndarray
    pair_hits: np.ndarray
    eviction_log: list[int] | None = None
    static_exact: bool | None = None  # static_opt only
    # lfru/lfrus only: the end-of-run follow matrix, in no byte-compared file
    follow_counts: dict[tuple[int, int], int] | None = None
    meta: dict = field(default_factory=dict)

    @property
    def hit_ratio(self) -> float:
        if self.forwarded == 0:
            return float("nan")
        return self.hits / self.forwarded

    def per_client(self) -> dict[int, tuple[int, int]]:
        """client -> (forwarded requests, hits)."""
        order = np.argsort(self.pair_clients, kind="stable")
        totals = _client_totals(
            self.pair_clients[order], self.pair_requests[order], self.pair_hits[order]
        )
        clients, requests, hits = (column.tolist() for column in totals)
        return dict(zip(clients, zip(requests, hits)))

    def to_csv(self, fh: IO[str]) -> None:
        """Per-pair rows in ascending (client, object, version, requests,
        hits) order, then per-client aggregates, then the overall row.

        Aggregate rows use -1 for the collapsed columns.  Pair rows are
        written `_CSV_BLOCK` at a time, each block one joined string whose
        fields come from per-column tables.
        """
        fh.write("client,object,version,requests,hits\n")
        columns = (
            self.pair_clients,
            self.pair_objects,
            self.pair_versions,
            self.pair_requests,
            self.pair_hits,
        )
        order = np.lexsort(columns[::-1])
        columns = tuple(column[order] for column in columns)
        formats = (
            "{},".format,
            "{},".format,
            lambda v: "-," if v < 0 else f"{v},",
            "{},".format,
            "{}\n".format,
        )
        tables: list[dict] = [{} for _ in columns]
        for start in range(0, len(order), _CSV_BLOCK):
            block = slice(start, start + _CSV_BLOCK)
            parts = [""] * (len(columns) * len(order[block]))
            for i, (column, table, fmt) in enumerate(zip(columns, tables, formats)):
                parts[i :: len(columns)] = _tabled(column[block].tolist(), table, fmt)
            fh.write("".join(parts))
        clients, requests, hits = _client_totals(columns[0], columns[3], columns[4])
        fh.write(
            "".join(
                f"{c},-1,-,{r},{h}\n"
                for c, r, h in zip(clients.tolist(), requests.tolist(), hits.tolist())
            )
        )
        fh.write(f"-1,-1,-,{self.forwarded},{self.hits}\n")

    def summary_dict(self) -> dict:
        d = {
            "policy": self.policy,
            "capacity": self.capacity,
            "local_cache_fraction": self.local_cache_fraction,
            "total_events": self.total_events,
            "forwarded": self.forwarded,
            "hits": self.hits,
            "hit_ratio": None if self.forwarded == 0 else self.hits / self.forwarded,
            "local_hits": self.local_hits,
            "oversized_misses": self.oversized_misses,
            "evictions": self.evictions,
        }
        if self.static_exact is not None:
            d["static_selection_exact"] = self.static_exact
        d.update(self.meta)
        return d

    def write_summary(self, fh: IO[str]) -> None:
        json.dump(self.summary_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# `SimulationMetrics.to_csv` writes pair rows in blocks of at most this many.
_CSV_BLOCK = 1 << 12


def _client_totals(
    clients: np.ndarray, requests: np.ndarray, hits: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(clients, requests, hits) summed over each run of equal clients, in
    int64, for pair rows grouped by client."""
    first = np.ones(len(clients), dtype=bool)
    first[1:] = clients[1:] != clients[:-1]
    starts = np.flatnonzero(first)
    return clients[starts], np.add.reduceat(requests, starts), np.add.reduceat(hits, starts)


def config_digest(policy_label: str, config: CacheConfig, trace: Trace) -> str:
    """Short stable digest tying a metrics file to its inputs."""
    h = hashlib.sha256()
    h.update(policy_label.encode())
    h.update(repr((config.capacity, config.local_cache_fraction)).encode())
    h.update(np.ascontiguousarray(trace.times).tobytes())
    h.update(np.ascontiguousarray(trace.clients).tobytes())
    h.update(np.ascontiguousarray(trace.objects).tobytes())
    h.update(np.ascontiguousarray(trace.versions).tobytes())
    return h.hexdigest()[:16]


def _unit_lru_replay(keys: list[int], capacity: float):
    """LRU replay of unit-size requests: (hit flags, oversized misses,
    evictions).

    The cache is a C-level ``functools.lru_cache`` of ``floor(capacity)``
    slots around a stamp source: a miss returns a new stamp, larger than
    every earlier one, and a hit the stamp of that key's last miss.  So
    request i hits exactly when its stamp is at most the largest stamp
    before it.
    """
    n = len(keys)
    # no more slots than requests: lru_cache refuses sizes beyond an index
    slots = min(math.floor(capacity), n)
    if slots == 0:
        return np.zeros(n, dtype=bool), n, 0
    stamp = partial(next, itertools.count())
    # update_wrapper copies these onto the cache; a missing one costs it an
    # AttributeError, which doubles the ~3 us it takes to build a cache
    stamp.__name__ = stamp.__qualname__ = "stamp"
    stamp.__annotations__ = {}
    cache = lru_cache(slots)(stamp)
    stamps = np.fromiter(map(cache, keys), dtype=np.int64, count=n)
    hits = np.zeros(n, dtype=bool)
    if n > 1:
        hits[1:] = stamps[1:] <= np.maximum.accumulate(stamps)[:-1]
    return hits, 0, n - int(hits.sum()) - cache.cache_info().currsize


def _unit_heap_replay(
    priorities, keys: np.ndarray, ranks: np.ndarray, capacity: float, record_evictions: bool
):
    """LFU or Belady replay of unit-size requests: (hit flags, oversized
    misses, evictions, eviction log or None).

    ``priorities`` is the policy class's ``_priorities``: from the requests
    grouped by key (their catalog ``ranks``) and `_next_requests`, one unique
    priority per request whose value names it (``p % n``); the least live
    one is the victim.  A resident's live heap entry is that of its latest
    request, and stays live until the key's next request.  So a request hits
    exactly when the entry of its key's previous request was not popped as a
    victim: ``will_hit`` is set at every repeat request and cleared at each
    victim's next request.  Before a victim is taken, stale tops (entries
    whose key was requested since; never the top under Belady) are popped.
    Once stale entries make the heap longer than the hook classes' bound
    (`_HeapPolicy`), it keeps only the live ones.
    """
    n = len(ranks)
    slots = min(math.floor(capacity), n)
    if slots == 0:
        return np.zeros(n, dtype=bool), n, 0, [] if record_evictions else None
    by_key, same = _key_runs(ranks)
    nxt_arr = _next_requests(by_key, same)
    nxt = nxt_arr.tolist()
    # a repeat is some request's next; slot n stands for a key's last request
    repeats = np.zeros(n + 1, dtype=np.uint8)
    repeats[nxt_arr] = 1
    will_hit = bytearray(repeats)
    slack, limit = _HeapPolicy.HEAP_SLACK, _HeapPolicy.HEAP_EXTRA
    push, pop, replace = heapq.heappush, heapq.heappop, heapq.heapreplace
    heap: list[int] = []
    victims: list[int] | None = [] if record_evictions else None
    free = slots
    for i, p in enumerate(priorities(by_key, same, nxt_arr).tolist()):
        if will_hit[i]:
            push(heap, p)
            if len(heap) > limit:
                heap[:] = [q for q in heap if nxt[q % n] > i]
                heapq.heapify(heap)
        elif free:
            push(heap, p)
            free -= 1
            limit += slack
        else:
            while nxt[heap[0] % n] <= i:
                pop(heap)
            j = replace(heap, p) % n
            will_hit[nxt[j]] = 0
            if victims is not None:
                victims.append(j)
    hit_flags = np.frombuffer(will_hit, dtype=bool, count=n)
    evictions = n - int(hit_flags.sum()) - (slots - free)
    ev_log = None if victims is None else keys[np.array(victims, dtype=np.intp)].tolist()
    return hit_flags, 0, evictions, ev_log


def _unit_sieve_replay(
    ranks: np.ndarray, cat_keys: np.ndarray, capacity: float, record_evictions: bool
):
    """SIEVE replay of unit-size requests: (hit flags, oversized misses,
    evictions, eviction log or None).

    `SievePolicy`'s algorithm on catalog ``ranks`` instead of keys, with no
    hooks: ``state`` holds one byte per rank (0 absent, 1 resident, 2
    resident and visited), the queue is the same two deques in scan order
    from the hand, and the eviction is `SievePolicy.victim`'s scan inline.
    Victims map to packed keys through ``cat_keys``.
    """
    n = len(ranks)
    slots = min(math.floor(capacity), n)
    if slots == 0:
        return np.zeros(n, dtype=bool), n, 0, [] if record_evictions else None
    state = bytearray(len(cat_keys))
    hit = bytearray(n)
    ahead: deque[int] = deque()
    behind: deque[int] = deque()
    victims: list[int] | None = [] if record_evictions else None
    free = slots
    for i, r in enumerate(ranks.tolist()):
        if state[r]:
            state[r] = 2
            hit[i] = 1
            continue
        if free:
            free -= 1
        else:
            if not ahead:  # nothing scanned since the queue was empty: start at the oldest
                ahead.append(behind.pop())
            v = ahead.popleft()
            while state[v] == 2:
                state[v] = 1
                behind.append(v)
                if not ahead:
                    ahead, behind = behind, ahead
                v = ahead.popleft()
            if not ahead:
                ahead, behind = behind, ahead
            state[v] = 0
            if victims is not None:
                victims.append(v)
        state[r] = 1
        behind.appendleft(r)
    hit_flags = np.frombuffer(hit, dtype=bool, count=n)
    evictions = n - int(hit_flags.sum()) - (slots - free)
    ev_log = None if victims is None else cat_keys[np.array(victims, dtype=np.intp)].tolist()
    return hit_flags, 0, evictions, ev_log


def _counts(size: int, n: int):
    """``size`` zero counts for a replay of ``n`` requests: a list while it
    holds at most `_PAIR_TABLE_FILL` slots per request, else a dict."""
    return [0] * size if size <= _PAIR_TABLE_FILL * n else defaultdict(int)


def _unit_follow_replay(
    ranks: np.ndarray,
    clients: np.ndarray,
    cat_keys: np.ndarray,
    capacity: float,
    span: int,
    record_evictions: bool,
):
    """lfru or lfrus replay of unit-size requests whose follow counts run
    over each client's newest ``span`` outcomes (`LFRUSPolicy._span`): (hit
    flags, oversized misses, evictions, eviction log or None, follow counts).

    `LFRUSPolicy`'s algorithm on request positions, with no hooks and no
    recency dict:

    * Clients get dense ids in ascending order, so ids below 254 are the
      hook's stamp codes.  ``cand[i]`` is the client request i follows if it
      hits (its key's previous requester, unless that is its own client),
      else -1; a miss overwrites it with -1, so ``cand`` ends up holding
      each request's outcome.  ``back[i]`` is the request ``span`` back in
      its client's sequence (n, whose slot holds -1, where there is none):
      its outcome leaves the counted span at request i.
    * ``stamps[p]`` holds request p's stamp code while p is the latest
      request of a resident, 255 once a hit or an eviction supersedes it.
      So the residents, least-recent first, are the positions of the live
      stamps, and the least-recent one is the first, which a monotone
      pointer finds.  ``state`` holds one residency byte per rank.
    * ``follows[c1 * C + c2]`` is F[c1][c2], ``levels[c1 * (span + 1) +
      v]`` counts row c1's entries equal to v (slot v = 0 is never read),
      and ``score[c1]`` is the row maximum.  A count moves by 1, so a row
      maximum rises with the entry that passes it and falls, by 1, only
      when its last entry leaves it.  ``table`` and ``classes`` are the
      hook's score classes, moved only when a score does.
    * The victim is the least (score, latest position) among the residents:
      the least-recent resident if its client scores 0, else the stamp
      search `_marked_victim`, or past `_STAMP_SPAN` requests per resident
      `_coded_victim`, which does no work per request in the span.

    Victims map to packed keys through ``cat_keys``.
    """
    n = len(ranks)
    slots = min(math.floor(capacity), n)
    if slots == 0:  # every request misses, so no outcome is a follow
        return np.zeros(n, dtype=bool), n, 0, [] if record_evictions else None, {}
    # 4-byte entries wherever they hold every position and rank
    itype = "i" if max(n, len(cat_keys)) < 2**31 else "q"
    ids, stamps, ranks_a, cids_a, prev_a, cand_a, back_a = _follow_tables(
        ranks, clients, span, itype
    )
    n_clients = len(ids)
    state = bytearray(len(cat_keys))
    hit = bytearray(n)
    follows = _counts(n_clients * n_clients, n)
    width = span + 1
    levels = _counts(n_clients * width, n)
    score = [0] * n_clients
    table = bytearray(255) + b"\xff"
    class_counts = [255] + [0] * 255
    classes = [0]

    n_codes = min(n_clients, 255)
    bound = _STAMP_SPAN * slots
    victims = array(itype) if record_evictions else None
    lo = 0  # no live stamp before lo
    free = slots
    for i, r, c, b in zip(itertools.count(), ranks_a, cids_a, back_a):
        missed = not state[r]
        if missed:
            cand_a[i] = out = -1
        else:
            hit[i] = 1
            stamps[prev_a[i]] = 255
            out = cand_a[i]
        gone = cand_a[b]
        if gone != out:
            if gone >= 0:
                f = gone * n_clients + c
                v = follows[f]
                follows[f] = v - 1
                lv = gone * width + v
                levels[lv] -= 1
                levels[lv - 1] += 1
                if v == score[gone] and not levels[lv]:
                    score[gone] = v - 1
                    if gone < 254 and v <= 254:
                        table[gone] = v - 1
                        _class_moved(class_counts, classes, v, v - 1)
            if out >= 0:
                f = out * n_clients + c
                v = follows[f] + 1
                follows[f] = v
                lv = out * width + v
                levels[lv] += 1
                levels[lv - 1] -= 1
                if v > score[out]:
                    score[out] = v
                    if out < 254 and v <= 254:
                        table[out] = v
                        _class_moved(class_counts, classes, v - 1, v)
        if not missed:
            continue
        if free:
            free -= 1
        else:
            if stamps[lo] == 255:
                lo = _LIVE_STAMP(stamps, lo).start()
            if not score[cids_a[lo]]:
                p = lo
                lo += 1
            elif i - lo <= bound:
                p = _marked_victim(stamps, lo, i, table, classes, score, cids_a)
            else:
                p = _coded_victim(stamps, lo, i, table, n_codes, classes, score, cids_a)
            stamps[p] = 255
            v = ranks_a[p]
            state[v] = 0
            if victims is not None:
                victims.append(v)
        state[r] = 1
    hit_flags = np.frombuffer(hit, dtype=bool, count=n)
    evictions = n - int(hit_flags.sum()) - (slots - free)
    ev_log = None if victims is None else cat_keys[np.asarray(victims)].tolist()
    ids = ids.tolist()
    flat = follows.items() if isinstance(follows, dict) else enumerate(follows)
    counts = {(ids[f // n_clients], ids[f % n_clients]): v for f, v in flat if v}
    return hit_flags, 0, evictions, ev_log, counts


def _follow_tables(ranks: np.ndarray, clients: np.ndarray, span: int, itype: str):
    """`_unit_follow_replay`'s per-request tables: (the clients by dense id,
    stamps, then ranks, dense client ids, each key's previous request,
    ``cand`` and ``back`` as `array.array`s of ``itype``).

    The loop iterates and indexes these arrays rather than lists, and every
    numpy temporary is freed before it starts."""
    n = len(ranks)
    ids, cids = np.unique(clients, return_inverse=True)
    by_key, same = _key_runs(ranks)
    later, earlier = by_key[1:][same], by_key[:-1][same]
    del by_key, same
    prev = np.zeros(n, dtype=itype)
    prev[later] = earlier
    cand = np.full(n + 1, -1, dtype=itype)
    followed = cids[earlier]
    other = followed != cids[later]
    cand[later[other]] = followed[other]
    del later, earlier, followed, other
    by_client = _stable_argsort(cids)
    back = np.full(n, n, dtype=itype)
    ok = cids[by_client[span:]] == cids[by_client[:-span]]
    back[by_client[span:][ok]] = by_client[:-span][ok]
    del by_client, ok
    stamps = bytearray(np.minimum(cids, 254).astype(np.uint8))
    tables = []
    for values in (ranks, cids, prev, cand, back):
        tables.append(array(itype))
        tables[-1].frombytes(memoryview(values.astype(itype, copy=False)).cast("B"))
    return ids, stamps, *tables


# the first live stamp at or after a position
_LIVE_STAMP = re.compile(b"[^\xff]").search


def _marked_victim(stamps, lo, end, table, classes, score, cids) -> int:
    """The position of the least (score, position) live stamp in [lo, end):
    `LFRUSPolicy._stamp_victim`'s search, over stamps that are all live.

    The stamps are translated to score classes, and each class is searched
    in ascending order with ``find``.  A class is a lower bound on the
    score: the first stamp of a class wins it, unless its exact score is
    higher (the shared code 254, class 254), in which case the search goes
    on through that class."""
    marks = stamps[lo:end].translate(table)
    best, best_p = math.inf, end
    for c in classes:
        if best < c:
            break
        j = marks.find(c)
        while j >= 0:
            p = lo + j
            if c == best and p > best_p:
                break  # this class has no better resident left
            s = score[cids[p]]
            if s < best or (s == best and p < best_p):
                best, best_p = s, p
            if s == c:
                break  # the class is exact here: later stamps lose
            j = marks.find(c, j + 1)
    return best_p


def _coded_victim(stamps, lo, end, table, n_codes, classes, score, cids) -> int:
    """`_marked_victim` without the translation: for each class in
    ascending order, each of its codes is found in the stamps directly.

    A code below 254 is one client, whose first stamp wins the code; the
    shared code 254 goes on while its stamps may win.  Once a class holds
    the best score, only stamps before the best one are searched."""
    best, best_p = math.inf, end
    for c in classes:
        if best < c:
            break
        k = table.find(c, 0, n_codes)
        while k >= 0:
            p = stamps.find(k, lo, best_p if c == best else end)
            while p >= 0:
                s = score[cids[p]]
                if s < best or (s == best and p < best_p):
                    best, best_p = s, p
                if k < 254 or s == c:
                    break
                p = stamps.find(k, p + 1, best_p if c == best else end)
            k = table.find(c, k + 1, n_codes)
    return best_p


def _replay(
    pol: Policy,
    keys: list[int],
    clients: list[int],
    sizes: list[float],
    capacity: float,
    record_evictions: bool,
):
    """The engine loop: (hit flags, oversized misses, evictions, eviction log
    or None).

    Hooks get the request's position in ``keys``.  ``on_request`` runs on
    hits, and on misses only for a policy that ``reads_misses``; hooks a
    class does not override are not called.  ``victim()`` evicts from
    ``order``; its ``KeyError`` means it chose a key that is not resident.
    """
    n = len(keys)
    # resident identities in recency order, least-recent first; the value is
    # the object size so eviction can release the bytes
    order: OrderedDict[int, float] = OrderedDict()
    pol.bind(order, keys, clients)
    hit_at: list[int] = []
    record_hit = hit_at.append
    oversized = 0
    ev_log: list[int] | None = [] if record_evictions else None

    on_hit = None if type(pol).on_request is Policy.on_request else pol.on_request
    on_miss = on_hit if pol.reads_misses else None
    on_admit = None if type(pol).on_admit is Policy.on_admit else pol.on_admit
    victim = pol.victim
    used = 0.0
    for i, k in enumerate(keys):
        if k in order:
            if on_hit is not None:
                on_hit(i, clients[i], k, True)
            order.move_to_end(k)
            record_hit(i)
            continue
        if on_miss is not None:
            on_miss(i, clients[i], k, False)
        s = sizes[i]
        if s > capacity:
            oversized += 1
            continue
        while used + s > capacity:
            if not order:
                raise ConsistencyError(
                    f"no resident left to evict for an object of size {s!r} in capacity "
                    f"{capacity!r}, with {used!r} bytes still counted in use"
                )
            try:
                v, vs = victim()
            except KeyError as e:
                raise ConsistencyError(f"policy returned non-resident victim {e}") from e
            used -= vs
            if ev_log is not None:
                ev_log.append(v)
        order[k] = s
        used += s
        if on_admit is not None:
            on_admit(i, k)

    hit_flags = np.zeros(n, dtype=bool)
    hit_flags[np.array(hit_at, dtype=np.intp)] = True
    # every admitted key is resident or was evicted once
    evictions = n - len(hit_at) - oversized - len(order)
    return hit_flags, oversized, evictions, ev_log


def _local_filter(
    keys_arr: np.ndarray, clients_arr: np.ndarray, sizes_arr: np.ndarray, local_capacity: float
) -> tuple[np.ndarray | None, int]:
    """Per-client private LRU prefilter.

    Returns a boolean forwarded mask, or None when every event is forwarded,
    and the private-tier hit count.  Each client's requests, in order, replay
    through the shared cache's LRU code at ``local_capacity``:
    `_unit_lru_replay` when every size is 1.0, else `_replay` with a fresh
    `Policy` (LRU).  Objects larger than the private capacity always miss it
    and are forwarded.
    """
    n = len(keys_arr)
    if local_capacity <= 0 or n == 0:
        return None, 0
    # one stable sort puts each client's requests in one run, in request order
    by_client = _stable_argsort(clients_arr)
    sorted_clients = clients_arr[by_client]
    cuts = (np.flatnonzero(sorted_clients[1:] != sorted_clients[:-1]) + 1).tolist()
    keys = keys_arr[by_client].tolist()
    unit = (sizes_arr == 1.0).all()
    if not unit:
        clients = sorted_clients.tolist()
        sizes = sizes_arr[by_client].tolist()
    run_hits = []
    for a, b in zip([0, *cuts], [*cuts, n]):
        if unit:
            hits = _unit_lru_replay(keys[a:b], local_capacity)[0]
        else:
            hits = _replay(Policy(), keys[a:b], clients[a:b], sizes[a:b], local_capacity, False)[0]
        run_hits.append(hits)
    hit_flags = np.empty(n, dtype=bool)
    hit_flags[by_client] = np.concatenate(run_hits)
    local_hits = int(hit_flags.sum())
    return (~hit_flags if local_hits else None), local_hits


@dataclass(frozen=True, eq=False)
class _Stream:
    """The forwarded events' packed keys, clients, sizes and catalog ranks, in
    trace order; the private tier absorbed the other ``local_hits`` events."""

    keys: np.ndarray
    clients: np.ndarray
    sizes: np.ndarray
    ranks: np.ndarray
    catalog: ObjectCatalog
    total_events: int
    local_hits: int


def _streams(trace: Trace, configs: list[CacheConfig]) -> list[_Stream]:
    """For each of ``configs``, the stream its private tier forwards from
    ``trace``.  Raises ConfigurationError for a trace that `validate_trace`
    rejects."""
    problems, sizes, ranks = _checked_sizes(trace, 3)
    if problems:
        raise ConfigurationError("trace failed validation: " + "; ".join(problems[:3]))
    arrays = (trace.identity_keys(), trace.clients, sizes, ranks)
    streams = []
    for config in configs:
        mask, local_hits = _local_filter(*arrays[:3], config.local_capacity())
        # no copies where the private tier forwards every event
        kept = arrays if mask is None else [a[mask] for a in arrays]
        streams.append(_Stream(*kept, trace.catalog, len(trace), local_hits))
    return streams


def simulate(
    trace: Trace,
    policy: PolicyParams | Policy,
    config: CacheConfig,
    record_evictions: bool = False,
    seed: int = 0,
) -> SimulationMetrics:
    """Run one simulation and return its metrics.

    The policy may be passed as params (a fresh instance is built per run) or
    as a prebuilt instance.  Every shipped class makes its per-run state in
    ``bind``, so an instance gives the same metrics each time it is run, and
    keeps the state of its latest run readable.  Every shipped policy is
    deterministic, so ``seed`` only tags the output metadata; it completes
    the (trace, policy, config, seed) -> metrics purity contract.  A trace
    that `validate_trace` rejects raises ConfigurationError.

    The run replays the `_Stream` that ``config``'s private tier forwards.
    Fresh params over forwarded requests that all have size 1.0 take a loop
    with no policy hooks: `_unit_lru_replay` for lru without an eviction log,
    `_unit_heap_replay` for lfu and belady, `_unit_sieve_replay` for sieve and
    `_unit_follow_replay` for lfru and lfrus with a counted span
    (`LFRUSPolicy._span`).  Fresh lfru and lfrus at window 0 keep no outcomes
    and replay as lru.  Every other run (other sizes, an lru eviction log, a
    prebuilt policy, an lfrus gamma on the float path) takes the engine loop,
    which gives the same metrics.  On either path an lfru or lfrus run
    reports its end-of-run follow matrix as ``follow_counts``.
    ``PolicyParams("static_opt")`` is not replayed: the set
    `static_optimal_select` picks from its rates stays resident throughout,
    so a forwarded request hits exactly when its identity is in that set.
    """
    (stream,) = _streams(trace, [config])
    return _replay_stream(stream, policy, config, record_evictions, seed)


def _replay_stream(
    stream: _Stream,
    policy: PolicyParams | Policy,
    config: CacheConfig,
    record_evictions: bool,
    seed: int,
) -> SimulationMetrics:
    """`simulate` of a stream that ``config``'s private tier has filtered."""
    static_exact = follows = None
    if isinstance(policy, PolicyParams) and policy.kind == "static_opt":
        if policy.rates is None:
            raise PolicyConfigError(
                "static_opt needs per-object request rates (available for generator presets)"
            )
        cat_keys, cat_sizes = stream.catalog.size_arrays()
        selection = static_optimal_select(
            policy.rates, dict(zip(cat_keys.tolist(), cat_sizes.tolist())), config.capacity
        )
        static_exact = selection.exact
        resident = np.fromiter(selection.keys, dtype=np.int64, count=len(selection.keys))
        hit_flags = np.isin(stream.keys, resident)
        oversized = evictions = 0
        ev_log = [] if record_evictions else None
    else:
        fresh = isinstance(policy, PolicyParams)
        # built on the lru_cache path too, which does not use it: the
        # instance tags the run's policy for tracers
        pol = build_policy(policy) if fresh else policy
        if pol.requires_unit_sizes and not stream.catalog.unit_sized():
            raise ConfigurationError(f"policy {pol.name!r} supports unit-size catalogs only")
        kind = policy.kind if fresh else None
        if kind in ("lfru", "lfrus") and policy.window == 0:  # no outcomes: lru exactly
            kind, pol, follows = "lru", Policy(), {}
        # the fresh kinds with a hook-free unit-size replay; follow policies
        # only where their counts run over a span of outcomes
        unit = (
            kind is not None
            and (kind not in ("lfru", "lfrus") or pol._span is not None)
            and (stream.sizes == 1.0).all()
        )
        if unit and kind == "lru" and not record_evictions:
            hit_flags, oversized, evictions = _unit_lru_replay(stream.keys.tolist(), config.capacity)
            ev_log = None
        elif unit and kind == "sieve":
            hit_flags, oversized, evictions, ev_log = _unit_sieve_replay(
                stream.ranks, stream.catalog.size_arrays()[0], config.capacity, record_evictions
            )
        elif unit and kind in ("lfru", "lfrus"):
            hit_flags, oversized, evictions, ev_log, follows = _unit_follow_replay(
                stream.ranks, stream.clients, stream.catalog.size_arrays()[0], config.capacity,
                pol._span, record_evictions,
            )
        elif unit and kind in ("lfu", "belady"):
            hit_flags, oversized, evictions, ev_log = _unit_heap_replay(
                pol._priorities, stream.keys, stream.ranks, config.capacity, record_evictions
            )
        else:
            hit_flags, oversized, evictions, ev_log = _replay(
                pol, stream.keys.tolist(), stream.clients.tolist(), stream.sizes.tolist(),
                config.capacity, record_evictions,
            )
            if isinstance(pol, LFRUSPolicy):
                follows = pol.follow_counts()

    pc, po, pv, req_counts, hit_counts = _pair_rows(
        stream.clients, stream.ranks, hit_flags, stream.catalog.size_arrays()[0]
    )

    metrics = SimulationMetrics(
        policy=policy.label(),
        capacity=config.capacity,
        local_cache_fraction=config.local_cache_fraction,
        total_events=stream.total_events,
        forwarded=len(stream.keys),
        hits=int(hit_flags.sum()),
        local_hits=stream.local_hits,
        oversized_misses=oversized,
        evictions=evictions,
        pair_clients=pc,
        pair_objects=po,
        pair_versions=pv,
        pair_requests=req_counts,
        pair_hits=hit_counts,
        eviction_log=ev_log,
        static_exact=static_exact,
        follow_counts=follows,
        meta={"seed": str(seed)},
    )
    check_metrics(metrics)
    return metrics


def _pair_rows(
    clients: np.ndarray, ranks: np.ndarray, hit_flags: np.ndarray, cat_keys: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Per (client, identity) rows of forwarded requests: (clients, objects,
    versions, requests, hits), by client and then by ascending key.

    Requests and hits are counted over the codes ``(client - least client)
    * catalog size + rank``, whose order is that of the rows: by two
    `np.bincount`s while the code range is at most `_PAIR_TABLE_FILL`
    times the request count, else by `np.unique`.
    """
    m = max(len(cat_keys), 1)  # a trace without events may have an empty catalog
    first = int(clients.min()) if len(clients) else 0
    codes = (clients - first) * m + ranks
    table = (int(clients.max()) - first + 1) * m if len(clients) else 0
    if table <= _PAIR_TABLE_FILL * len(codes):
        requests = np.bincount(codes, minlength=table)
        hits = np.bincount(codes[hit_flags], minlength=table)
        rows = np.flatnonzero(requests)
        requests, hits = requests[rows], hits[rows]
    else:
        rows, inverse = np.unique(codes, return_inverse=True)
        requests = np.bincount(inverse, minlength=len(rows))
        hits = np.bincount(inverse[hit_flags], minlength=len(rows))
    objects, versions = _unpack_keys(cat_keys[rows % m])
    return (
        rows // m + first,
        objects,
        versions,
        requests.astype(np.int64, copy=False),
        hits.astype(np.int64, copy=False),
    )


def check_metrics(metrics: SimulationMetrics) -> None:
    """Internal accounting invariants; failure means an engine bug."""
    if metrics.hits > metrics.forwarded:
        raise ConsistencyError("hits exceed forwarded requests")
    if int(metrics.pair_requests.sum()) != metrics.forwarded:
        raise ConsistencyError("per-pair requests do not add up to the forwarded count")
    if int(metrics.pair_hits.sum()) != metrics.hits:
        raise ConsistencyError("per-pair hits do not add up to the hit total")
    if (metrics.pair_hits > metrics.pair_requests).any():
        raise ConsistencyError("a pair has more hits than requests")
    if metrics.local_hits + metrics.forwarded != metrics.total_events:
        raise ConsistencyError("private-tier hits plus forwarded do not cover all events")

