"""Eviction policies.

Policies plug into the cache engine through a small hook protocol.  A hook
gets ``i``, the request's position in the key stream the engine replays:

* ``bind(order, keys, clients)`` is called once, before the replay, with
  the live recency order, that key stream and each request's client.
  Policies that need a table per request (LFU's priorities, Belady's next
  uses, lfru's stamps) build it here.
* ``on_request(i, client, key, hit)`` fires on every hit, before the
  recency order changes.  It fires on misses too, before admission, only
  for a class whose ``reads_misses`` is true (the follow-aware policies).
* ``on_admit(i, key)`` fires when a key is admitted.  An object larger than
  the whole cache is never admitted and gets no ``on_admit``.
* ``victim()`` is the eviction: it removes the resident to evict from the
  recency order and from the policy's own state, and returns ``(key,
  size)``.  The engine only releases the size.

The engine's recency order (``self.order``, an OrderedDict of resident key
to size, least-recent first) doubles as the LRU bookkeeping every policy may
consult for tie-breaking.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping

import numpy as np

# a stamp search covers at most this many requests per resident (see
# LFRUSPolicy)
_STAMP_SPAN = 64


class PolicyConfigError(ValueError):
    """Bad policy parameters or a policy/trace mismatch."""


@dataclass(frozen=True)
class PolicyParams:
    """Declarative policy selection, parseable from strings like 'lfru:w=20'."""

    kind: str
    window: int = 20
    gamma: float = 0.5
    rates: Mapping[int, float] | None = None  # static_opt: object key -> weighted rate

    def label(self) -> str:
        if self.kind == "lfru":
            return f"lfru(w={self.window})"
        if self.kind == "lfrus":
            g = f"{self.gamma:g}"
            if float(g) != self.gamma:
                g = repr(self.gamma)  # :g would merge it with a nearby gamma
            return f"lfrus(w={self.window},g={g})"
        return self.kind


POLICY_KINDS = ("lru", "lfu", "sieve", "belady", "static_opt", "lfru", "lfrus")


def parse_policy_spec(text: str) -> PolicyParams:
    """Parse 'lru', 'lfru:w=20', 'lfrus:w=2:gamma=0.5', ..."""
    parts = [p.strip() for p in text.strip().split(":") if p.strip()]
    if not parts:
        raise PolicyConfigError("empty policy spec")
    kind = parts[0].lower()
    if kind not in POLICY_KINDS:
        raise PolicyConfigError(f"unknown policy {kind!r} (choose from {', '.join(POLICY_KINDS)})")
    window = 20
    gamma = 0.5
    for opt in parts[1:]:
        if "=" not in opt:
            raise PolicyConfigError(f"malformed policy option {opt!r}")
        k, v = (s.strip() for s in opt.split("=", 1))
        # an option the kind ignores is refused, not silently dropped
        if k in ("w", "window") and kind in ("lfru", "lfrus"):
            window = int(v)
            if window < 0:
                raise PolicyConfigError("window must be >= 0")
        elif k in ("g", "gamma") and kind == "lfrus":
            gamma = float(v)
            if not 0 < gamma <= 1:
                raise PolicyConfigError("gamma must be in (0, 1]")
        else:
            raise PolicyConfigError(f"policy {kind!r} takes no option {k!r}")
    return PolicyParams(kind=kind, window=window, gamma=gamma)


class Policy:
    """Base: LRU.  Subclasses override hooks they need."""

    name = "lru"
    requires_unit_sizes = False
    reads_misses = False  # on_request on misses too, not only on hits

    def bind(self, order, keys: list[int], clients: list[int]) -> None:
        self.order = order

    def on_request(self, i: int, client: int, key: int, hit: bool) -> None:  # pragma: no cover
        pass

    def on_admit(self, i: int, key: int) -> None:  # pragma: no cover
        pass

    def on_evict(self, key: int) -> None:  # pragma: no cover
        """Never called: ``victim`` evicts.  Kept only for the benchmark's
        tracer, which reads it (ROADMAP item 5)."""

    def victim(self) -> tuple[int, float]:
        # least recently used: the front of the recency order
        if not self.order:
            raise IndexError(f"{self.name} victim requested with nothing resident")
        return self.order.popitem(last=False)


def _key_runs(keys: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """One stable argsort of ``keys``, and for each pair of neighbours in
    that order whether they share a key: each key's requests form one run,
    in request order."""
    arr = np.asarray(keys, dtype=np.int64)
    order = np.argsort(arr, kind="stable")
    return order, arr[order[1:]] == arr[order[:-1]]


class LFUPolicy(Policy):
    """Evict the resident with the smallest lifetime request count.

    Counts accumulate over the whole run and survive eviction; ties fall back
    to least-recently-used.

    ``bind`` gives request i of n the priority ``count * n + i``, where
    ``count`` numbers the requests of its key up to i (from one stable
    argsort of the keys, so oversized misses count too).  A resident's live
    priority, in ``_live``, is that of its latest request; among residents
    the latest requests order keys exactly as the recency order does, so the
    smallest live priority is the smallest count with the LRU tie-break.
    Victims come from a lazy min-heap of plain priorities, priority p naming
    the key of request ``p % n``: a hit pushes in ``on_request``, an
    admission in ``on_admit``, and an entry is live while it is its key's
    entry in ``_live``.  ``victim`` drops its victim from ``_live``.  Once
    stale entries make the heap longer than ``HEAP_SLACK`` times the
    residents plus ``HEAP_EXTRA``, it is rebuilt from ``_live``, so its size
    is bounded by the cache, not by the trace.
    """

    name = "lfu"
    HEAP_SLACK = 4
    HEAP_EXTRA = 64

    def __init__(self):
        self._live: dict[int, int] = {}
        self._heap: list[int] = []

    def bind(self, order, keys: list[int], clients: list[int]) -> None:
        super().bind(order, keys, clients)
        self._keys = keys
        by_key, same = _key_runs(keys)
        n = len(by_key)
        rank = np.arange(n)
        # each sorted slot's offset from the first slot of its run
        first = np.ones(n, dtype=bool)
        first[1:] = ~same
        count = rank + 1 - np.maximum.accumulate(np.where(first, rank, 0))
        priority = np.empty(n, dtype=np.int64)
        priority[by_key] = count * n + by_key
        self._priority = priority.tolist()

    def on_request(self, i: int, client: int, key: int, hit: bool) -> None:
        p = self._live[key] = self._priority[i]
        heap = self._heap
        heapq.heappush(heap, p)
        if len(heap) > self.HEAP_SLACK * len(self._live) + self.HEAP_EXTRA:
            self._rebuild()

    def on_admit(self, i: int, key: int) -> None:
        p = self._live[key] = self._priority[i]
        heap = self._heap
        heapq.heappush(heap, p)
        if len(heap) > self.HEAP_SLACK * len(self._live) + self.HEAP_EXTRA:
            self._rebuild()

    def _rebuild(self) -> None:
        """Replace the heap by one live entry per resident."""
        heap = self._heap
        heap[:] = self._live.values()
        heapq.heapify(heap)

    def victim(self) -> tuple[int, float]:
        live = self._live
        keys = self._keys
        n = len(keys)
        heap = self._heap
        while heap:
            p = heapq.heappop(heap)
            key = keys[p % n]
            if live.get(key) == p:
                del live[key]
                return key, self.order.pop(key)
        raise IndexError(f"{self.name} victim requested with nothing resident")


class SievePolicy(Policy):
    """Insertion-ordered queue with visited bits and a clearing hand.

    New identities join the newest end and are never reordered.  The hand
    starts at the oldest entry; eviction clears visited bits from the hand
    toward older entries (wrapping to the newest end once the old end is
    exhausted) and removes the first unvisited identity, leaving the hand
    just past it in scan direction.

    The queue is two deques in scan order from the hand: ``_ahead`` runs
    from the hand to the oldest entry, ``_behind`` from the newest entry to
    the one just newer than the hand.  An admission is the newest entry, so
    it joins the front of ``_behind``; a visited entry the hand passes is
    cleared and becomes the entry just newer than the hand, the end of
    ``_behind``.  Only the hand, in ``victim``, removes entries.  The hand
    wraps to the newest entry (the deques swap) as soon as ``_ahead`` runs
    out, during a scan or right after an eviction, so that later admissions
    are scanned last.  An eviction that empties the queue sends the hand
    back to the oldest entry: ``_ahead`` stays empty until the next
    ``victim`` moves the oldest entry, the end of ``_behind``, into it.
    """

    name = "sieve"

    def __init__(self):
        self._ahead: deque[int] = deque()
        self._behind: deque[int] = deque()
        self._visited: set[int] = set()

    def on_request(self, i: int, client: int, key: int, hit: bool) -> None:
        self._visited.add(key)

    def on_admit(self, i: int, key: int) -> None:
        self._behind.appendleft(key)

    def victim(self) -> tuple[int, float]:
        ahead, behind, visited = self._ahead, self._behind, self._visited
        if not ahead:  # nothing scanned since the queue was empty: start at the oldest
            ahead.append(behind.pop())
        key = ahead.popleft()
        while key in visited:
            visited.remove(key)
            behind.append(key)
            if not ahead:
                ahead, behind = behind, ahead
            key = ahead.popleft()
        if not ahead:
            ahead, behind = behind, ahead
        self._ahead, self._behind = ahead, behind
        return key, self.order.pop(key)


class BeladyPolicy(Policy):
    """Offline optimum for unit sizes: evict the resident used farthest in
    the future; never-again beats everything; ties (both never-again) are LRU.

    ``bind`` gives request i of n its next use: the position of the next
    request of its key, or 2n - i if there is none.  That is beyond every
    position, so never-again residents come first, and larger for earlier
    requests, so they leave in the order of their last requests.  Nothing
    touches them again, so that order is their LRU order.  A next use
    names its key: the key of request j for j < n, of request 2n - j
    beyond.

    Victims come from one heap of negated next uses, so its top is the
    largest.  A hit pushes its request's next use in ``on_request``, an
    admission in ``on_admit``.  An entry whose next use is at most the
    current position is stale.  Each resident has one entry further out,
    its latest, and an evicted key's latest entry left the heap as its
    victim, so the heap top is always a live resident.  Once stale entries
    make the heap longer than twice the residents, ``victim`` keeps only as
    many entries as there are residents, the smallest, which are the live
    ones.
    """

    name = "belady"
    requires_unit_sizes = True

    def __init__(self):
        self._heap: list[int] = []

    def bind(self, order, keys: list[int], clients: list[int]) -> None:
        super().bind(order, keys, clients)
        self._keys = keys
        # negated next use of every request: the next request in its run
        by_key, same = _key_runs(keys)
        n = len(by_key)
        neg_next = np.arange(n) - 2 * n
        neg_next[by_key[:-1][same]] = -by_key[1:][same]
        self._neg_next_use = neg_next.tolist()

    def on_request(self, i: int, client: int, key: int, hit: bool) -> None:
        heapq.heappush(self._heap, self._neg_next_use[i])

    def on_admit(self, i: int, key: int) -> None:
        heapq.heappush(self._heap, self._neg_next_use[i])

    def victim(self) -> tuple[int, float]:
        heap = self._heap
        residents = len(self.order)
        if len(heap) > 2 * residents:
            # drop the stale entries, whose next uses are all smaller
            heap.sort()
            del heap[residents:]
        keys = self._keys
        next_use = -heapq.heappop(heap)
        n = len(keys)
        key = keys[next_use if next_use < n else 2 * n - next_use]
        return key, self.order.pop(key)


@dataclass(frozen=True)
class StaticSelection:
    keys: frozenset[int]
    value: float
    exact: bool


def _enumerate_subsets(weights: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All-subset (size_sum, value_sum) arrays; index bit i = item i taken."""
    sz = np.zeros(1)
    val = np.zeros(1)
    for w, s in zip(weights, sizes):
        sz = np.concatenate([sz, sz + s])
        val = np.concatenate([val, val + w])
    return sz, val


def static_optimal_select(
    weights: Mapping[int, float], sizes: Mapping[int, float], budget: float
) -> StaticSelection:
    """Pick the fixed cached set maximizing total weighted request rate.

    Exact for: equal sizes (top-k by weight) at any count, and up to 25
    candidates via meet-in-the-middle.  Larger mixed-size instances fall back
    to a density greedy and are flagged exact=False.
    """
    if budget <= 0:
        raise PolicyConfigError("budget must be > 0")
    keys = sorted(k for k in weights if weights[k] > 0)
    for k in keys:
        if k not in sizes:
            raise PolicyConfigError(f"no size for object key {k}")
    w = np.array([float(weights[k]) for k in keys])
    s = np.array([float(sizes[k]) for k in keys])
    keep = s <= budget
    keys = [k for k, ok in zip(keys, keep) if ok]
    w, s = w[keep], s[keep]
    if not keys:
        return StaticSelection(frozenset(), 0.0, True)
    if s.sum() <= budget:
        return StaticSelection(frozenset(keys), float(w.sum()), True)

    if len(set(s.tolist())) == 1:
        unit = s[0]
        count = int(budget // unit)
        order = sorted(range(len(keys)), key=lambda i: (-w[i], keys[i]))
        chosen = order[:count]
        return StaticSelection(
            frozenset(keys[i] for i in chosen), float(w[chosen].sum()), True
        )

    if len(keys) <= 25:
        half = len(keys) // 2
        a_sz, a_val = _enumerate_subsets(w[:half], s[:half])
        b_sz, b_val = _enumerate_subsets(w[half:], s[half:])
        b_order = np.argsort(b_sz, kind="stable")
        b_sz_sorted = b_sz[b_order]
        b_val_sorted = b_val[b_order]
        b_best_val = np.maximum.accumulate(b_val_sorted)
        # argmax index of the running best, for reconstruction
        b_best_idx = np.zeros(len(b_order), dtype=np.int64)
        cur_best = -1.0
        cur_idx = 0
        for i, v in enumerate(b_val_sorted.tolist()):
            if v > cur_best:
                cur_best = v
                cur_idx = i
            b_best_idx[i] = cur_idx
        best_value = -1.0
        best_masks = (0, 0)
        feasible = np.flatnonzero(a_sz <= budget)
        pos = np.searchsorted(b_sz_sorted, budget - a_sz[feasible], side="right") - 1
        for a_mask, j in zip(feasible.tolist(), pos.tolist()):
            if j < 0:
                continue
            total = a_val[a_mask] + b_best_val[j]
            if total > best_value:
                best_value = total
                best_masks = (a_mask, int(b_order[b_best_idx[j]]))
        chosen: set[int] = set()
        a_mask, b_mask = best_masks
        for i in range(half):
            if a_mask >> i & 1:
                chosen.add(keys[i])
        for i in range(len(keys) - half):
            if b_mask >> i & 1:
                chosen.add(keys[half + i])
        return StaticSelection(frozenset(chosen), float(best_value), True)

    # density greedy fallback, flagged as heuristic
    order = sorted(range(len(keys)), key=lambda i: (-(w[i] / s[i]), -w[i], keys[i]))
    used = 0.0
    chosen = set()
    value = 0.0
    for i in order:
        if used + s[i] <= budget:
            used += s[i]
            chosen.add(keys[i])
            value += w[i]
    return StaticSelection(frozenset(chosen), float(value), False)


def _newest_outcome_decides(gamma: float, window: int) -> bool:
    """Whether every newest-first float sum of a window's weights
    gamma**lag, lags 0..window, floors to 1 when the lag-0 outcome is the
    summed client and to 0 otherwise (see LFRUSPolicy)."""
    # T = sum of gamma**k, k = 1..window, summed exactly in units of 2**-1074
    # (the least subnormal: every float is a whole number of them) and
    # compared with 1 - (window+1) * 2**-51
    limit = (1 << 1074) - ((window + 1) << 1023)
    tail = 0
    for k in range(1, window + 1):
        g = gamma**k
        if g == 0.0:
            break  # every later power underflows too
        n, d = g.as_integer_ratio()  # d = 2**(d.bit_length() - 1)
        tail += n << (1075 - d.bit_length())
        if tail >= limit:
            return False
    return True


class LFRUSPolicy(Policy):
    """Follow-aware eviction with geometric recency weights.

    Per client, a window of the outcomes of its last window+1 requests is
    kept.  A request's outcome is the client it followed: the previous
    requester of the object, recorded only when the request hit and the
    previous requester is a different client; otherwise None.  An outcome at
    lag k in client c2's window (lag 0 = newest request) weighs gamma**k, and
    the follow matrix entry F[c1][c2] is the floor of the summed weights of
    c1 over c2's window, so gamma=1 gives the plain follow counts of lfru.  A
    client's row score is its best column.  Eviction removes the resident
    whose last requester has the lowest row score, breaking ties toward
    least-recently-used.  window=0 is the degenerate case and behaves exactly
    like LRU.

    With window > 0 every request, a miss too, records its position as its
    object's latest request in ``_seen``, which survives eviction; so the
    class ``reads_misses``.  An object's last requester is
    ``clients[_seen[key]]``.  A victim is the least (score, latest position)
    among the residents.  The resident scan finds it by walking the
    residents, least-recent first, and stops at the first whose last
    requester scores 0.  gamma=1 also keeps one stamp byte per request and
    finds the victim with a C-level byte search instead, as follows.

    * ``_stamps[p]`` holds the code of request p's client while p is the
      latest request of a resident, and 255 once a hit supersedes it.
      Clients get codes 0-253 in ascending id order; any further clients
      share code 254.  A request whose key was evicted, or never admitted
      (an object larger than the cache), may keep its code until a search
      finds it not resident and clears it.
    * ``_table`` maps each code to its client's score class, the score
      capped at 254; the shared code maps to class 0 and 255 to itself.  A
      class is a lower bound on the score, and exact except under the
      shared code and in class 254.
    * If the least-recent resident's last requester scores 0 it wins at
      once.  Otherwise the stamps from that resident's latest request up to
      the request being admitted are translated through ``_table``, and each
      class in ascending order is searched with ``find``: the first live
      request of a class wins it, unless its exact score is higher than the
      class, in which case the search goes on through that class.
    * The search covers every request since the least-recent resident's
      latest one, a span with no bound of its own (an idle follower keeps
      its leader's score up, and so that leader's object least recent).
      Past `_STAMP_SPAN` requests per resident the resident scan runs
      instead: it costs ~70 ns per resident, the search ~1 ns per request.

    Invariants:

    * ``rows[c1][c2]`` holds the floored entry F[c1][c2]; zero entries and
      empty rows are never stored.
    * Where ``_span`` is set, F[c1][c2] is the count of c1 among c2's newest
      ``_span`` outcomes, and ``rows`` is updated in O(1) per request: the
      outcome at ``dq[-_span]`` leaves the span and the new one is added.
      The windows keep all window+1 outcomes either way.
    * gamma=1 has ``_span`` = window+1.  This is exact, since a floored sum
      of 1.0s is the count.
    * gamma<1 has ``_span`` = 1 when the newest outcome decides every floor
      (``_newest_outcome_decides``).  Let T be the exact sum of the float
      powers gamma**k, k = 1..window.  Each float addition of non-negative
      terms rounds up by a factor of at most 1 + 2**-53, and there are at
      most window+1 of them, so a sum is at most its exact value times
      grow = (1 + 2**-52)**(window+1) <= 1 / (1 - (window+1) * 2**-52).  A
      sum never falls below its first term.  So if T < 1 - (window+1) *
      2**-51, then T * grow < 1 and (1 + T) * grow < 2: a sum whose first
      term is gamma**0 = 1.0 floors to 1, any other to 0.  This holds at
      gamma = 1/2 for windows up to 45, below 1/2 at any practical window,
      and above 1/2 only at small windows (0.6 at window 2, not 3).
    * Otherwise (``_span`` None) requests only append to the window and mark
      the client stale.  The next score read (``_row_scores``,
      ``follow_counts``, ``victim``) recomputes each stale client's column
      in the from-scratch summation order (newest first, adding
      gamma**lag), so the floats are bit-identical to a full rebuild, and
      patches the row entries that changed.  The summation stops at the
      first power that underflows to 0.0: adding 0.0 changes no bit.
      Appending None to a client whose column is empty and up to date does
      not mark it stale: every remaining weight only shrinks (gamma**k falls
      with k), so its floored sums stay zero.
    * Row scores are cached; a score read recomputes only the rows touched
      since the previous read, and writes their entries of ``_table``.
    """

    name = "lfrus"
    reads_misses = True

    def __init__(self, window: int = 20, gamma: float = 0.5):
        if window < 0:
            raise PolicyConfigError("window must be >= 0")
        if not 0 < gamma <= 1:
            raise PolicyConfigError("gamma must be in (0, 1]")
        self.window = window
        self.gamma = float(gamma)
        # rows count over each client's newest _span outcomes; None: floored
        # float sums, patched (see the class docstring)
        if self.gamma == 1:
            self._span = window + 1
        elif _newest_outcome_decides(self.gamma, window):
            self._span = 1
        else:
            self._span = None
        # float path only: gamma**k for k < len, filled as longer windows are
        # summed; _pow_end is lowered to the first lag whose power underflows
        self._gamma_pow: list[float] = []
        self._pow_end = window + 1
        self._stamped = window > 0 and self.gamma == 1
        self.windows: dict[int, deque] = {}
        self.rows: dict[int, dict[int, int]] = {}
        # float path only: each client's column as last patched into rows (so
        # cols[c2][c1] == rows[c1][c2]), and the clients whose window changed
        # since
        self._cols: dict[int, dict[int, int]] = {}
        self._stale: set[int] = set()
        self._scores: dict[int, int] = {}
        self._touched: set[int] = set()  # rows whose cached score is out of date
        # see the class docstring; _code, _table and the class lists are
        # gamma=1 only, _stamps too (filled by bind)
        self._seen: dict[int, int] = {}
        self._code: dict[int, int] = {}  # client -> its own code, 0-253
        self._table = bytearray(255) + b"\xff"
        self._class_counts = [255] + [0] * 255  # codes per class; all 255 start at 0
        self._classes = [0]  # the classes with codes, ascending
        self._now = 0  # position of the latest request

    def bind(self, order, keys: list[int], clients: list[int]) -> None:
        super().bind(order, keys, clients)
        self._clients = clients
        if not self._stamped:
            return
        self._keys = keys
        code = self._code = dict(zip(heapq.nsmallest(254, set(clients)), range(254)))
        self._stamps = bytearray(map(code.get, clients, itertools.repeat(254)))

    def on_request(self, i: int, client: int, key: int, hit: bool) -> None:
        if self.window == 0:
            return
        self._now = i
        outcome = None
        seen = self._seen
        if hit:
            p = seen[key]
            if self._stamped:
                self._stamps[p] = 255  # superseded by this request
            prev = self._clients[p]
            if prev != client:
                outcome = prev
        seen[key] = i
        dq = self.windows.get(client)
        if dq is None:
            dq = self.windows[client] = deque(maxlen=self.window + 1)
        span = self._span
        if span is None:
            dq.append(outcome)
            if outcome is not None or client in self._cols:
                self._stale.add(client)
            return
        # the outcome that leaves the newest span outcomes
        expired = dq[-span] if len(dq) >= span else None
        dq.append(outcome)
        if expired == outcome:
            return  # no count changes
        if expired is not None:
            row = self.rows[expired]
            n = row[client] - 1
            if n:
                row[client] = n
            else:
                del row[client]
                if not row:
                    del self.rows[expired]
            self._touched.add(expired)
        if outcome is not None:
            row = self.rows.setdefault(outcome, {})
            row[client] = row.get(client, 0) + 1
            self._touched.add(outcome)

    def _patch_stale_columns(self) -> None:
        gp = self._gamma_pow
        rows = self.rows
        cols = self._cols
        touched = self._touched
        for c2 in self._stale:
            dq = self.windows[c2]
            if len(gp) < len(dq) and len(gp) < self._pow_end:
                self._extend_powers(len(dq))
            sums: dict[int, float] = {}
            # rightmost entry is the newest request -> lag 0; zip stops at
            # _pow_end, past which every weight is 0.0 and changes no sum
            for g, outcome in zip(gp, reversed(dq)):
                if outcome is not None:
                    sums[outcome] = sums.get(outcome, 0.0) + g
            col = {}
            for c1, v in sums.items():
                n = math.floor(v)
                if n:
                    col[c1] = n
            old = cols.get(c2, {})
            if col == old:
                continue
            for c1 in old:
                if c1 not in col:
                    row = rows[c1]
                    del row[c2]
                    if not row:
                        del rows[c1]
                    touched.add(c1)
            for c1, n in col.items():
                if old.get(c1) != n:
                    rows.setdefault(c1, {})[c2] = n
                    touched.add(c1)
            if col:
                cols[c2] = col
            else:
                del cols[c2]
        self._stale.clear()

    def _extend_powers(self, n: int) -> None:
        """Hold gamma**k for every k < n, stopping at the first power that
        underflows to 0.0 (every later one does too)."""
        gp = self._gamma_pow
        while len(gp) < n:
            g = self.gamma ** len(gp)
            if g == 0.0:
                self._pow_end = len(gp)
                return
            gp.append(g)

    def _row_scores(self) -> dict[int, int]:
        """Best column per row (the cached dict itself; do not mutate)."""
        if self._stale:
            self._patch_stale_columns()
        if self._touched:
            scores = self._scores
            rows = self.rows
            code = self._code
            table = self._table
            for c1 in self._touched:
                row = rows.get(c1)
                if row:
                    s = scores[c1] = max(row.values())
                else:
                    scores.pop(c1, None)
                    s = 0
                c = code.get(c1)
                if c is not None:
                    cls = s if s < 254 else 254
                    old = table[c]
                    if old != cls:
                        table[c] = cls
                        self._class_moved(old, cls)
            self._touched.clear()
        return self._scores

    def _class_moved(self, old: int, new: int) -> None:
        """Keep ``_classes`` the sorted distinct classes of ``_table`` when
        one code moves from class ``old`` to ``new``."""
        counts, classes = self._class_counts, self._classes
        counts[old] -= 1
        if not counts[old]:
            classes.remove(old)
        if not counts[new]:
            bisect.insort(classes, new)
        counts[new] += 1

    def window_snapshot(self) -> dict[int, tuple]:
        """Outcome windows, oldest first (for consistency checks)."""
        return {c: tuple(dq) for c, dq in self.windows.items()}

    def follow_counts(self) -> dict[tuple[int, int], int]:
        self._row_scores()  # patches stale columns into rows
        return {(c1, c2): n for c1, row in self.rows.items() for c2, n in row.items()}

    def follow_matrix_csv(self) -> str:
        """Current follow matrix as ``c1,c2,count`` rows (debugging aid)."""
        lines = ["c1,c2,count"]
        for (c1, c2), n in sorted(self.follow_counts().items()):
            lines.append(f"{c1},{c2},{n}")
        return "\n".join(lines) + "\n"

    def victim(self) -> tuple[int, float]:
        scores = self._row_scores()
        order = self.order
        if not order:
            raise IndexError(f"{self.name} victim requested with nothing resident")
        if not scores:
            return order.popitem(last=False)
        seen, clients = self._seen, self._clients
        if self._stamped:
            lo = seen[next(iter(order))]
            if clients[lo] in scores and self._now - lo <= _STAMP_SPAN * len(order):
                key = self._stamp_victim(lo, scores)
                return key, order.pop(key)
        best_key = None
        best = None
        for key in order:  # least-recent first: first minimum wins ties
            s = scores.get(clients[seen[key]], 0)
            if s == 0:  # cannot be beaten, and earliest = LRU tie-break
                return key, order.pop(key)
            if best is None or s < best:
                best = s
                best_key = key
        return best_key, order.pop(best_key)

    def _stamp_victim(self, lo: int, scores: dict[int, int]) -> int:
        """The gamma=1 victim from the stamps at and after ``lo``, the latest
        request of the least-recent resident (see the class docstring)."""
        order, keys, clients, seen, stamps = (
            self.order, self._keys, self._clients, self._seen, self._stamps
        )
        # the request being admitted, at _now, is not resident yet
        marks = stamps[lo : self._now].translate(self._table)
        best = best_p = None  # score and position of the best resident so far
        for c in self._classes:
            if best is not None and best < c:
                break
            j = marks.find(c)
            while j >= 0:
                p = lo + j
                if c == best and p > best_p:
                    break  # this class has no better resident left
                key = keys[p]
                if key in order and seen[key] == p:
                    s = scores.get(clients[p], 0)
                    if best is None or s < best or (s == best and p < best_p):
                        best, best_p = s, p
                    if s == c:
                        break  # the class is exact here: later requests lose
                else:
                    stamps[p] = 255  # evicted or never admitted
                j = marks.find(c, j + 1)
        stamps[best_p] = 255
        return keys[best_p]


class LFRUPolicy(LFRUSPolicy):
    """Follow-count eviction: lfrus at gamma=1, the integer-count path."""

    name = "lfru"

    def __init__(self, window: int = 20):
        super().__init__(window, gamma=1.0)


def build_policy(params: PolicyParams) -> Policy:
    """Instantiate a fresh policy for one replay.

    static_opt is not replayed: `simulate` computes it from
    `static_optimal_select`, so it is no kind this builds.
    """
    kind = params.kind
    if kind == "lru":
        return Policy()
    if kind == "lfu":
        return LFUPolicy()
    if kind == "sieve":
        return SievePolicy()
    if kind == "belady":
        return BeladyPolicy()
    if kind == "lfru":
        return LFRUPolicy(params.window)
    if kind == "lfrus":
        return LFRUSPolicy(params.window, params.gamma)
    raise PolicyConfigError(f"unknown policy kind {kind!r}")
