"""Synthetic workload generators.

Two request-stream families:

* grouped leader/follower streams: each group has a Poisson leader whose
  object draws follow a Zipf popularity law, and followers that re-request
  the leader's object after a delay (deterministic, uniform, or an arbitrary
  joint sampler).
* a toroidal "moving viewer" environment: clients move on a 3-D torus and
  request every object inside a visibility radius each time slot; followers
  replay the leader's path a fixed number of slots behind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .trace import NO_VERSION, ObjectCatalog, Trace

# ---------------------------------------------------------------------------
# Follower delay specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructuredDelays:
    """Evenly spaced deterministic delays: follower i lags the leader by i*step."""

    step: float

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError(f"step must be > 0, got {self.step}")

    def values(self, followers: int) -> np.ndarray:
        return self.step * np.arange(1, followers + 1, dtype=np.float64)


@dataclass(frozen=True)
class FixedDelays:
    """Explicit deterministic delay per follower."""

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))


@dataclass(frozen=True)
class UniformDelays:
    """Independent uniform delay per follower; lower bounds may be negative."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        norm = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        for lo, hi in norm:
            if not lo < hi:
                raise ValueError(f"uniform delay bounds need lo < hi, got [{lo}, {hi}]")
        object.__setattr__(self, "bounds", norm)

    @classmethod
    def iid(cls, lo: float, hi: float, followers: int) -> "UniformDelays":
        return cls(tuple((lo, hi) for _ in range(followers)))


@dataclass(frozen=True)
class JointDelays:
    """Arbitrary joint delay distribution given by a sampler.

    sampler(rng, n) must return an (n, count) float array; one row is the
    delay vector of all followers for one leader arrival.
    """

    sampler: Callable[[np.random.Generator, int], np.ndarray]
    count: int


DelaySpec = StructuredDelays | FixedDelays | UniformDelays | JointDelays


def delay_count(spec: DelaySpec | None) -> int | None:
    """Follower count implied by the delay spec, or None when any count fits."""
    if spec is None or isinstance(spec, StructuredDelays):
        return None
    if isinstance(spec, FixedDelays):
        return len(spec.values)
    if isinstance(spec, UniformDelays):
        return len(spec.bounds)
    return spec.count


def sample_delays(
    spec: DelaySpec | None, followers: int, rng: np.random.Generator, n: int
) -> np.ndarray:
    """Draw n delay vectors of shape (n, followers)."""
    if followers == 0:
        return np.empty((n, 0), dtype=np.float64)
    if spec is None:
        raise ValueError("followers > 0 requires a delay spec")
    if isinstance(spec, StructuredDelays):
        return np.broadcast_to(spec.values(followers), (n, followers)).copy()
    if isinstance(spec, FixedDelays):
        vals = np.asarray(spec.values, dtype=np.float64)
        return np.broadcast_to(vals, (n, followers)).copy()
    if isinstance(spec, UniformDelays):
        lo = np.array([b[0] for b in spec.bounds])
        hi = np.array([b[1] for b in spec.bounds])
        return rng.uniform(lo, hi, size=(n, followers))
    out = np.asarray(spec.sampler(rng, n), dtype=np.float64)
    if out.shape != (n, followers):
        raise ValueError(f"joint sampler returned shape {out.shape}, expected {(n, followers)}")
    return out


# ---------------------------------------------------------------------------
# Popularity
# ---------------------------------------------------------------------------


def zipf_pmf(num_objects: int, exponent: float) -> np.ndarray:
    """Zipf popularity over ranks 1..num_objects: p(r) proportional to r^-exponent."""
    if num_objects < 1:
        raise ValueError("num_objects must be >= 1")
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    weights = np.arange(1, num_objects + 1, dtype=np.float64) ** (-float(exponent))
    return weights / weights.sum()


# ---------------------------------------------------------------------------
# Grouped leader/follower generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupSpec:
    """One leader/follower group over a contiguous object range."""

    first_object: int
    num_objects: int
    leader_rate: float
    zipf_exponent: float
    followers: int
    delays: DelaySpec | None = None

    def __post_init__(self):
        if self.num_objects < 1:
            raise ValueError("num_objects must be >= 1")
        if not self.leader_rate > 0:
            raise ValueError("leader_rate must be > 0")
        if self.followers < 0:
            raise ValueError("followers must be >= 0")
        if self.followers > 0 and self.delays is None:
            raise ValueError("followers > 0 requires a delay spec")
        implied = delay_count(self.delays)
        if implied is not None and implied != self.followers:
            raise ValueError(
                f"delay spec is for {implied} followers but group has {self.followers}"
            )

    def object_ids(self) -> np.ndarray:
        return np.arange(self.first_object, self.first_object + self.num_objects)

    def pmf(self) -> np.ndarray:
        return zipf_pmf(self.num_objects, self.zipf_exponent)

    def rates(self) -> np.ndarray:
        """Per-object leader request rate."""
        return self.leader_rate * self.pmf()


def group_clients(groups: Sequence[GroupSpec]) -> list[tuple[int, list[int]]]:
    """Sequential client numbering: [(leader_id, [follower ids...]), ...]."""
    out = []
    nxt = 1
    for g in groups:
        leader = nxt
        followers = list(range(nxt + 1, nxt + 1 + g.followers))
        out.append((leader, followers))
        nxt += 1 + g.followers
    return out


def _size_lookup(object_sizes) -> Callable[[int], float]:
    if object_sizes is None:
        return lambda oid: 1.0
    if isinstance(object_sizes, (int, float)):
        s = float(object_sizes)
        return lambda oid: s
    if isinstance(object_sizes, Mapping):
        return lambda oid: float(object_sizes[oid])
    return lambda oid: float(object_sizes(oid))


def even_odd_sizes(even: float = 2.0, odd: float = 5.0) -> Callable[[int], float]:
    """Size rule used by several presets: even ids one size, odd ids another."""
    return lambda oid: even if oid % 2 == 0 else odd


def gen_grouped_trace(
    groups: Sequence[GroupSpec],
    horizon: float,
    seed: int,
    object_sizes=None,
    meta: dict[str, str] | None = None,
) -> Trace:
    """Generate a grouped leader/follower trace on [0, horizon].

    Leader arrivals are Poisson over [0, horizon]; each arrival draws an
    object from the group's Zipf popularity; follower i re-requests the same
    object after its (possibly random, possibly negative) delay.  Follower
    events that land before time 0 are dropped, events past the horizon are
    kept.  Deterministic for a fixed (groups, horizon, seed).
    """
    if not groups:
        raise ValueError("need at least one group")
    if not horizon > 0:
        raise ValueError("horizon must be > 0")
    rng = np.random.default_rng(seed)
    size_of = _size_lookup(object_sizes)
    clients = group_clients(groups)

    ids = np.concatenate([g.object_ids() for g in groups])
    catalog = ObjectCatalog._from_arrays(
        ids, np.full(len(ids), NO_VERSION), [size_of(oid) for oid in ids.tolist()]
    )

    times_parts: list[np.ndarray] = []
    client_parts: list[np.ndarray] = []
    object_parts: list[np.ndarray] = []
    for g, (leader, followers) in zip(groups, clients):
        n = rng.poisson(g.leader_rate * horizon)
        arrivals = np.sort(rng.uniform(0.0, horizon, n))
        objs = g.first_object + rng.choice(g.num_objects, size=n, p=g.pmf())
        times_parts.append(arrivals)
        client_parts.append(np.full(n, leader, dtype=np.int64))
        object_parts.append(objs)
        if g.followers:
            delays = sample_delays(g.delays, g.followers, rng, n)
            for i, fc in enumerate(followers):
                t = arrivals + delays[:, i]
                keep = t >= 0.0
                times_parts.append(t[keep])
                client_parts.append(np.full(int(keep.sum()), fc, dtype=np.int64))
                object_parts.append(objs[keep])

    times = np.concatenate(times_parts)
    cl = np.concatenate(client_parts)
    ob = np.concatenate(object_parts)
    # the parts would otherwise stay alive, a second copy of the columns,
    # through the sort
    del times_parts, client_parts, object_parts
    base_meta = {"generator": "grouped", "seed": str(seed), "horizon": repr(float(horizon))}
    if meta:
        base_meta.update(meta)
    trace = Trace(times, cl, ob, None, catalog, base_meta)
    trace.sort_events()
    return trace


# ---------------------------------------------------------------------------
# Toroid environment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToroidGroup:
    """Follower slot delays for one leader (each >= 1)."""

    follower_delays: tuple[int, ...]

    def __post_init__(self):
        delays = tuple(int(d) for d in self.follower_delays)
        if any(d < 1 for d in delays):
            raise ValueError("follower delays must be >= 1 slot")
        object.__setattr__(self, "follower_delays", delays)


@dataclass(frozen=True)
class ToroidSpec:
    """Moving-viewer workload on a 3-D torus.

    Each leader moves at `speed` per slot and redraws an isotropic direction
    every `direction_period` slots.  Follower i sits where its leader was
    `delay` slots ago (no requests before that many slots have elapsed).
    Every client requests all objects within `visibility_radius` each slot;
    with `newly_visible_only` set, only objects that were not visible to that
    client in the previous slot are requested.  With `versioned` set, each
    request carries a distance tier: 0 below `near_radius`, 1 out to the
    visibility radius; tier sizes come from `tier_sizes` (the far tier 2 is
    catalogued but never requested).
    """

    groups: tuple[ToroidGroup, ...]
    horizon_slots: int
    side: float = 1000.0
    num_objects: int = 4000
    speed: float = 25.0
    direction_period: int = 10
    visibility_radius: float = 50.0
    versioned: bool = False
    near_radius: float = 10.0
    tier_sizes: tuple[float, float, float] = (1.0, 0.5, 0.1)
    newly_visible_only: bool = False

    def __post_init__(self):
        if self.horizon_slots < 1:
            raise ValueError("horizon_slots must be >= 1")
        if not self.groups:
            raise ValueError("need at least one group")
        if not 0 < self.side < math.inf:
            raise ValueError(f"side must be finite and > 0, got {self.side}")
        if not math.isfinite(self.speed):
            raise ValueError(f"speed must be finite, got {self.speed}")
        if self.direction_period < 1:
            raise ValueError(f"direction_period must be >= 1, got {self.direction_period}")
        if self.num_objects < 1:
            raise ValueError(f"num_objects must be >= 1, got {self.num_objects}")
        if not self.visibility_radius > 0:
            raise ValueError(f"visibility_radius must be > 0, got {self.visibility_radius}")
        if not self.near_radius >= 0:
            raise ValueError(f"near_radius must be >= 0, got {self.near_radius}")
        if self.versioned:
            if len(self.tier_sizes) < 2:
                # requests carry tier 0 or 1, so both must be catalogued
                raise ValueError(f"tier_sizes needs at least 2 entries, got {self.tier_sizes}")
            if not all(0 < size < math.inf for size in self.tier_sizes):
                raise ValueError(f"tier_sizes must be finite and > 0, got {self.tier_sizes}")
        max_delay = max((max(g.follower_delays, default=0) for g in self.groups), default=0)
        if max_delay >= self.horizon_slots:
            raise ValueError("horizon must exceed the largest follower delay")

    def client_count(self) -> int:
        return sum(1 + len(g.follower_delays) for g in self.groups)


@dataclass(frozen=True)
class OrderShuffle:
    """Swap the delays of follower pairs (1,2), (3,4), ... every `period` slots."""

    period: int

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be >= 1")


@dataclass(frozen=True)
class LeaderSwitch:
    """Reassign every follower to a random leader every `period` slots.

    Followers are processed in follower-id order; the k-th follower that
    joins a leader within one reassignment gets delay step_delay * k.
    """

    period: int
    probabilities: tuple[float, ...]
    step_delay: int = 5

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be >= 1")
        probs = tuple(float(p) for p in self.probabilities)
        if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError("probabilities must be non-negative and sum to 1")
        object.__setattr__(self, "probabilities", probs)


Dynamics = OrderShuffle | LeaderSwitch


def apply_order_shuffle(
    assignments: list[tuple[int, int]], period: int, slot: int
) -> list[tuple[int, int]]:
    """Assignments are (leader_index, delay) per follower, in follower order.

    At slots that are positive multiples of the period, consecutive followers
    of the same leader exchange delays pairwise; a trailing unpaired follower
    keeps its delay.  Other slots return the input unchanged.
    """
    if slot <= 0 or slot % period != 0:
        return assignments
    out = list(assignments)
    by_leader: dict[int, list[int]] = {}
    for idx, (leader, _) in enumerate(assignments):
        by_leader.setdefault(leader, []).append(idx)
    for indices in by_leader.values():
        for a, b in zip(indices[0::2], indices[1::2]):
            la, da = out[a]
            lb, db = out[b]
            out[a] = (la, db)
            out[b] = (lb, da)
    return out


def apply_leader_switch(
    assignments: list[tuple[int, int]],
    dyn: LeaderSwitch,
    slot: int,
    rng: np.random.Generator,
) -> list[tuple[int, int]]:
    """Redraw every follower's leader at positive multiples of the period.

    Note: consumes one rng draw per follower whenever it fires, so traces
    stay reproducible for a fixed seed.
    """
    if slot <= 0 or slot % dyn.period != 0:
        return assignments
    probs = np.asarray(dyn.probabilities)
    joined: dict[int, int] = {}
    out = []
    for _ in assignments:
        leader = int(rng.choice(len(probs), p=probs))
        joined[leader] = joined.get(leader, 0) + 1
        out.append((leader, dyn.step_delay * joined[leader]))
    return out


def _torus_visible_pairs(
    points: np.ndarray, objects: np.ndarray, side: float, radius: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (point, object) pair within `radius` on the torus of edge `side`.

    The torus is cut into m**3 periodic cells no narrower than a reach
    inflated past any rounding of the cell arithmetic, so each object within
    reach of a point lies in the 3x3x3 block of cells around the point's
    cell; m is capped so that the table of cell starts holds at most ~8
    cells per object (wider cells only add candidates).  Each candidate is
    then rechecked exactly with the minimal-image distance, per axis
    min(|dx|, side - |dx|) squared and summed as (x + y) + z, and kept when
    d2 <= radius**2.  Returns (point_idx, object_idx, d2), sorted by point
    index and then object index.
    """
    reach = radius + 1e-9 * (radius + side)
    m = max(1, min(int(side // reach), int((8 * len(objects)) ** (1 / 3))))

    def cells(xyz: np.ndarray) -> np.ndarray:
        # a coordinate equal to side lands in cell m, which % m maps to 0
        return np.floor(xyz * (m / side)).astype(np.int64) % m

    # objects bucketed by cell key; start[k] is the first of cell k in `order`
    x, y, z = cells(objects).T
    obj_key = (x * m + y) * m + z
    order = np.argsort(obj_key, kind="stable")
    start = np.searchsorted(obj_key[order], np.arange(m**3 + 1))

    # the 3x3x3 block of cells around every point; below 3 cells per axis the
    # offsets -1, 0, 1 collide mod m, and a repeated cell would repeat its
    # candidates
    offs = np.unique(np.array([-1, 0, 1]) % m)
    nbr = (cells(points)[:, :, None] + offs) % m  # (point, axis, offset)
    x, y, z = nbr[:, 0, :, None, None], nbr[:, 1, None, :, None], nbr[:, 2, None, None, :]
    nbr_key = ((x * m + y) * m + z).reshape(len(points), len(offs) ** 3)
    first = start[nbr_key]
    width = start[nbr_key + 1] - first
    pi = np.repeat(np.arange(len(points), dtype=np.int64), width.sum(axis=1))
    first, width = first.ravel(), width.ravel()
    pos = np.repeat(first - (np.cumsum(width) - width), width)
    pos += np.arange(len(pos), dtype=np.int64)
    oi = order[pos]
    d2 = None
    for k in range(3):
        diff = np.abs(points[pi, k] - objects[oi, k])
        np.minimum(diff, side - diff, out=diff)
        diff *= diff
        d2 = diff if d2 is None else d2 + diff
    keep = np.flatnonzero(d2 <= radius**2)
    # by point and then object, on one key: the keys are distinct, as no
    # object lies in two of a point's cells, and below len(points) *
    # len(objects), the bound of the caller's keys pt * D + o.  An int64
    # holds that while the product is below 2**63: object ids stop below
    # 2**32 (the catalog's range), and 2**31 points take 48 GiB as float64 triples.
    keep = keep[np.argsort(pi[keep] * len(objects) + oi[keep], kind="stable")]
    return pi[keep], oi[keep], d2[keep]


def gen_toroid_trace(
    spec: ToroidSpec,
    dynamics: Dynamics | None = None,
    seed: int = 0,
    meta: dict[str, str] | None = None,
) -> Trace:
    """Generate the toroid trace; slot numbers become event times.

    Every client stands on some leader's path point in every slot it is
    active, so visibility is computed once per path point and gathered per
    (slot, client), which leaves the events in canonical order.
    """
    n_leaders = len(spec.groups)
    if isinstance(dynamics, LeaderSwitch) and len(dynamics.probabilities) > n_leaders:
        raise ValueError(
            f"LeaderSwitch has {len(dynamics.probabilities)} probabilities but the spec "
            f"has {n_leaders} groups; probabilities must not outnumber groups"
        )
    rng = np.random.default_rng(seed)
    side = spec.side
    H = spec.horizon_slots

    objects_pos = rng.uniform(0.0, side, size=(spec.num_objects, 3))

    # leader paths: new isotropic unit direction every direction_period slots.
    # A step is `(pos + speed * direction) % side` per axis on Python floats:
    # the same IEEE operations as numpy's elementwise add and np.remainder.
    paths = []
    for _ in range(n_leaders):
        x, y, z = rng.uniform(0.0, side, size=3).tolist()
        dx, dy, dz = (spec.speed * _unit_vector(rng)).tolist()
        path = [x, y, z]
        for n in range(1, H):
            if n % spec.direction_period == 0:
                dx, dy, dz = (spec.speed * _unit_vector(rng)).tolist()
            x, y, z = (x + dx) % side, (y + dy) % side, (z + dz) % side
            path += (x, y, z)
        paths.append(path)

    # follower assignments, replaying dynamics at period boundaries; runs[k]
    # is (first slot, assignments) of the k-th run of unchanged assignments
    assignments: list[tuple[int, int]] = []
    for li, g in enumerate(spec.groups):
        assignments.extend((li, d) for d in g.follower_delays)
    runs = [(0, assignments)]
    if dynamics is not None:
        for n in range(H):
            if isinstance(dynamics, OrderShuffle):
                step = apply_order_shuffle(assignments, dynamics.period, n)
            else:
                step = apply_leader_switch(assignments, dynamics, n, rng)
            if step is not assignments:
                assignments = step
                runs.append((n, assignments))

    # src_pt[n, c]: flat index li * H + slot of the path point client c stands
    # on in slot n, -1 before a follower starts.  Client numbering mirrors the
    # grouped generator: leader then its followers.
    C = spec.client_count()
    slots = np.arange(H)[:, None]
    src_pt = np.empty((H, C), dtype=np.int64)
    leader_cols = np.cumsum([0] + [1 + len(g.follower_delays) for g in spec.groups][:-1])
    follower_cols = np.setdiff1d(np.arange(C), leader_cols)  # in assignment order
    src_pt[:, leader_cols] = np.arange(n_leaders) * H + slots
    for (first, run), (stop, _) in zip(runs, runs[1:] + [(H, None)]):
        leaders = np.array([li for li, _ in run], dtype=np.int64)
        src = slots[first:stop] - np.array([d for _, d in run], dtype=np.int64)
        src_pt[first:stop, follower_cols] = np.where(src >= 0, leaders * H + src, -1)

    # visible objects of every path point, as CSR rows in object order
    pair_pt, pair_obj, pair_d2 = _torus_visible_pairs(
        np.array(paths).reshape(-1, 3), objects_pos, side, spec.visibility_radius
    )
    row_start = np.zeros(n_leaders * H + 1, dtype=np.int64)
    np.cumsum(np.bincount(pair_pt, minlength=n_leaders * H), out=row_start[1:])

    # gather slot-major: one event per pair in the row of each active (slot,
    # client), so events come out in canonical (time, client, object) order;
    # an event's pair index is its row start plus its rank within the row
    flat = src_pt.ravel()
    active = np.flatnonzero(flat >= 0)
    pt = flat[active]
    width = row_start[pt + 1] - row_start[pt]
    ev = np.repeat(row_start[pt] - (np.cumsum(width) - width), width)
    ev += np.arange(len(ev), dtype=np.int64)
    ev_sc = np.repeat(active, width)  # slot * C + client of each event
    if spec.newly_visible_only:
        # drop (n, c, o) when o was visible from the point c stood on at n-1.
        # Keys pt * D + o are unique and below L * H * D; an inactive previous
        # slot (point -1, or n == 0) gives a negative key that matches nothing.
        D = spec.num_objects
        prev = np.where(ev_sc >= C, flat[ev_sc - C], -1)
        keep = ~np.isin(prev * D + pair_obj[ev], pair_pt * D + pair_obj)
        ev, ev_sc = ev[keep], ev_sc[keep]
    ev_slot, ev_ci = np.divmod(ev_sc, C)

    ids = np.arange(1, spec.num_objects + 1)
    if spec.versioned:
        tiers = len(spec.tier_sizes)
        catalog = ObjectCatalog._from_arrays(
            np.repeat(ids, tiers),
            np.tile(np.arange(tiers), len(ids)),
            np.tile(np.asarray(spec.tier_sizes, dtype=np.float64), len(ids)),
        )
    else:
        catalog = ObjectCatalog._from_arrays(ids, np.full(len(ids), NO_VERSION), np.ones(len(ids)))

    times = ev_slot.astype(np.float64)
    cl = ev_ci + 1
    ob = pair_obj[ev] + 1
    if spec.versioned:
        vr = np.where(pair_d2[ev] < spec.near_radius**2, 0, 1).astype(np.int64)
    else:
        vr = None
    base_meta = {
        "generator": "toroid",
        "seed": str(seed),
        "horizon_slots": str(H),
        "clients": str(C),
    }
    if dynamics is not None:
        base_meta["dynamics"] = type(dynamics).__name__.lower()
    if meta:
        base_meta.update(meta)
    return Trace(times, cl, ob, vr, catalog, base_meta)


def _unit_vector(rng: np.random.Generator) -> np.ndarray:
    # isotropic via normalized Gaussian; re-draw the (measure-zero) tiny norms
    while True:
        v = rng.normal(size=3)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm
