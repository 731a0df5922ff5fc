"""Cache simulation engine.

Replays a request trace against a byte-budgeted cache under a pluggable
eviction policy.  Optionally each client first consults a small private LRU
cache, replayed by the same LRU code as the shared cache; only its misses are
forwarded to the shared cache, and all policy state and reported hit ratios
concern the forwarded stream.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import IO

import numpy as np

from .policies import (
    Policy,
    PolicyConfigError,
    PolicyParams,
    build_policy,
    static_optimal_select,
)
from .trace import _VERSION_BITS, _VERSION_SPAN, Trace, _checked_sizes

# Per-pair counts go through dense tables while a table holds at most this
# many slots per forwarded request (see `_pair_rows`).
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
    meta: dict = field(default_factory=dict)

    @property
    def hit_ratio(self) -> float:
        if self.forwarded == 0:
            return float("nan")
        return self.hits / self.forwarded

    def per_client(self) -> dict[int, tuple[int, int]]:
        """client -> (forwarded requests, hits)."""
        clients, inverse = np.unique(self.pair_clients, return_inverse=True)
        requests = np.bincount(inverse, weights=self.pair_requests, minlength=len(clients))
        hits = np.bincount(inverse, weights=self.pair_hits, minlength=len(clients))
        return dict(
            zip(
                clients.tolist(),
                zip(requests.astype(np.int64).tolist(), hits.astype(np.int64).tolist()),
            )
        )

    def to_csv(self, fh: IO[str]) -> None:
        """Per-pair rows, then per-client aggregates, then the overall row.

        Aggregate rows use -1 for the collapsed columns.
        """
        fh.write("client,object,version,requests,hits\n")
        rows = sorted(
            zip(
                self.pair_clients.tolist(),
                self.pair_objects.tolist(),
                self.pair_versions.tolist(),
                self.pair_requests.tolist(),
                self.pair_hits.tolist(),
            )
        )
        for c, o, v, r, h in rows:
            ver = "-" if v < 0 else str(v)
            fh.write(f"{c},{o},{ver},{r},{h}\n")
        for c, (r, h) in sorted(self.per_client().items()):
            fh.write(f"{c},-1,-,{r},{h}\n")
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


def _event_sizes(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    """Per-event sizes and catalog ranks of a trace that `validate_trace`
    accepts."""
    problems, sizes, ranks = _checked_sizes(trace, 3)
    if problems:
        raise ConfigurationError("trace failed validation: " + "; ".join(problems[:3]))
    return sizes, ranks


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
    # one stable sort puts each client's requests in one run, in request
    # order; offsets from the least client in the narrowest dtype that holds
    # them let numpy radix-sort 8- and 16-bit spans
    first = clients_arr.min()
    offsets = (clients_arr - first).astype(np.min_scalar_type(clients_arr.max() - first))
    by_client = np.argsort(offsets, kind="stable")
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


def _forwarded(trace: Trace, config: CacheConfig) -> tuple[Trace, int]:
    """The events the private tier forwards to the shared cache, and its hits.

    The forwarded trace shares the catalog and meta of ``trace``; it is
    ``trace`` itself when the private tier is off or absorbs nothing.  A
    sweep filters once per capacity and replays the result under every
    policy with ``CacheConfig(config.capacity)``.  Raises
    ConfigurationError for a trace that `validate_trace` rejects.
    """
    sizes_arr = _event_sizes(trace)[0]
    local_cap = config.local_capacity()
    if local_cap <= 0:
        return trace, 0
    mask, local_hits = _local_filter(trace.identity_keys(), trace.clients, sizes_arr, local_cap)
    if mask is None:
        return trace, 0
    fwd = Trace(
        trace.times[mask], trace.clients[mask], trace.objects[mask], trace.versions[mask],
        trace.catalog, trace.meta,
    )
    return fwd, local_hits


def simulate(
    trace: Trace,
    policy: PolicyParams | Policy,
    config: CacheConfig,
    record_evictions: bool = False,
    seed: int = 0,
) -> SimulationMetrics:
    """Run one simulation and return its metrics.

    The policy may be passed as params (a fresh instance is built per run) or
    as a prebuilt instance, which must be unused.  Every shipped policy is
    deterministic, so ``seed`` only tags the output metadata; it completes
    the (trace, policy, config, seed) -> metrics purity contract.  A trace
    that `validate_trace` rejects raises ConfigurationError.

    ``PolicyParams("lru")`` without an eviction log, over forwarded requests
    that all have size 1.0, replays through the C-level ``lru_cache`` of
    `_unit_lru_replay`; every other run (other sizes, an eviction log, a
    prebuilt policy, other policies) takes the engine loop, which gives the
    same metrics.  ``PolicyParams("static_opt")`` is not replayed: the set
    `static_optimal_select` picks from its rates stays resident throughout,
    so a forwarded request hits exactly when its identity is in that set.
    """
    sizes_arr, ranks_arr = _event_sizes(trace)
    keys_arr = trace.identity_keys()
    clients_arr = trace.clients
    fwd_mask, local_hits = _local_filter(
        keys_arr, clients_arr, sizes_arr, config.local_capacity()
    )
    if fwd_mask is not None:
        keys_arr = keys_arr[fwd_mask]
        clients_arr = clients_arr[fwd_mask]
        sizes_arr = sizes_arr[fwd_mask]
        ranks_arr = ranks_arr[fwd_mask]
    keys = keys_arr.tolist()
    n = len(keys)
    static_exact = None
    if isinstance(policy, PolicyParams) and policy.kind == "static_opt":
        if policy.rates is None:
            raise PolicyConfigError(
                "static_opt needs per-object request rates (available for generator presets)"
            )
        cat_keys, cat_sizes = trace.catalog.size_arrays()
        selection = static_optimal_select(
            policy.rates, dict(zip(cat_keys.tolist(), cat_sizes.tolist())), config.capacity
        )
        static_exact = selection.exact
        resident = np.fromiter(selection.keys, dtype=np.int64, count=len(selection.keys))
        hit_flags = np.isin(keys_arr, resident)
        oversized = evictions = 0
        ev_log = [] if record_evictions else None
    else:
        fresh = isinstance(policy, PolicyParams)
        # built on the lru_cache path too, which does not use it: the
        # instance tags the run's policy for tracers
        pol = build_policy(policy) if fresh else policy
        if pol.requires_unit_sizes and not trace.catalog.unit_sized():
            raise ConfigurationError(f"policy {pol.name!r} supports unit-size catalogs only")
        if fresh and policy.kind == "lru" and not record_evictions and (sizes_arr == 1.0).all():
            hit_flags, oversized, evictions = _unit_lru_replay(keys, config.capacity)
            ev_log = None
        else:
            hit_flags, oversized, evictions, ev_log = _replay(
                pol, keys, clients_arr.tolist(), sizes_arr.tolist(),
                config.capacity, record_evictions,
            )

    pc, po, pv, req_counts, hit_counts = _pair_rows(
        clients_arr, ranks_arr, hit_flags, trace.catalog.size_arrays()[0]
    )

    metrics = SimulationMetrics(
        policy=policy.label() if isinstance(policy, PolicyParams) else policy.name,
        capacity=config.capacity,
        local_cache_fraction=config.local_cache_fraction,
        total_events=len(trace),
        forwarded=n,
        hits=int(hit_flags.sum()),
        local_hits=int(local_hits),
        oversized_misses=oversized,
        evictions=evictions,
        pair_clients=pc,
        pair_objects=po,
        pair_versions=pv,
        pair_requests=req_counts,
        pair_hits=hit_counts,
        eviction_log=ev_log,
        static_exact=static_exact,
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
    keys = cat_keys[rows % m]
    return (
        rows // m + first,
        keys >> _VERSION_BITS,
        (keys & (_VERSION_SPAN - 1)) - 1,
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

