"""Analytic cache model for grouped request streams.

Under the model, each group has a Poisson leader stream over its objects and
a fixed number of followers that re-request the leader's object after random
delays.  For a cache that keeps an object for a window of length t after each
request, the probability that object d is cached is

    p(d, t) = 1 - exp(-rate(d) * I(t))

where I(t) is the expected length of the union of the request windows opened
by one leader arrival and its follower re-requests.  The characteristic time
t* of a cache of capacity b solves sum_d p(d, t*) * size(d) = b, and per-role
hit probabilities follow from p(d, t*) and the delay distribution.

I(t) has closed forms for deterministic delays, reduces to one-dimensional
quadrature for independent delays, and is estimated by Monte Carlo for
arbitrary joint delay distributions (with samples drawn once per group and
reused across t, so solves stay monotone and deterministic).

One evaluation of p(., t) is one pass over the objects in object order.  The
model keeps each object's (group, rate) terms in layers: layer 0 holds every
object's first term, layer l the l-th term of the objects in more than l
groups, with rates negated.  An evaluation repeats the groups' integrals
I_g(t) over layer 0's runs of one group, multiplies by its rates, adds each
higher layer at its objects in turn and takes ``expm1`` in place:
p = -expm1(x) and the cached volume is -sum(expm1(x) * size).  Each object's terms are added in
group order onto its first, as a per-group ``exponent[idx] += rates * I_g(t)``
loop adds them onto 0.0, and negation commutes with rounding, so every bit
equals that loop's (the test suite keeps the loop as its oracle).
``hit_report`` evaluates p once at t* and builds each distinct role column
once: one follower column per structured group, one per run of followers
with equal delays otherwise.  Every role still gets its own array, and the
normalised rate multiplies and sums each distinct column once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Callable, Mapping, Sequence

import numpy as np

from .trace import _sequential_sum
from .workloads import (
    DelaySpec,
    FixedDelays,
    GroupSpec,
    JointDelays,
    StructuredDelays,
    UniformDelays,
    delay_count,
)

DEFAULT_MC_SAMPLES = 1_000_000
_MC_CHUNK = 200_000
# the characteristic-time solve stops once the cached volume is within this
# fraction of the capacity
_SOLVE_REL_TOL = 1e-6


class ModelError(ValueError):
    """Invalid model inputs (capacity out of range, shape mismatches, ...)."""


def _quad(fn: Callable[[float], float], lo: float, hi: float, points) -> float:
    if hi <= lo:
        return 0.0
    from scipy.integrate import quad  # imported on first use: it dominates startup

    pts = sorted({float(p) for p in points if lo < p < hi})
    val, _ = quad(fn, lo, hi, points=pts or None, limit=200, epsabs=1e-12, epsrel=1e-10)
    return val


def _union_measure_from_starts(starts: np.ndarray, length: float) -> np.ndarray:
    """Row-wise measure of a union of equal-length intervals.

    ``starts`` is (n, k) and must be sorted along the last axis; every
    interval is [start, start + length].
    """
    gaps = np.diff(starts, axis=-1)
    return length + np.minimum(gaps, length).sum(axis=-1)


def fixed_window_integral(values: Sequence[float], t: float) -> float:
    """Exact window integral for deterministic delays.

    The cached window of one leader arrival covers [0, t]; each follower
    re-request at delay v adds [v, v + t].  The integral is the measure of
    the union.
    """
    if t <= 0:
        return 0.0
    starts = np.sort(np.append(np.asarray(values, dtype=float), 0.0))
    return float(_union_measure_from_starts(starts, t))


def structured_window_integral(step: float, followers: int, t: float) -> float:
    """Closed form for evenly spaced delays step, 2*step, ..."""
    if t <= 0:
        return 0.0
    return t + followers * min(step, t)


def _uniform_cdf(x: float, lo: float, hi: float) -> float:
    if x <= lo:
        return 0.0
    if x >= hi:
        return 1.0
    return (x - lo) / (hi - lo)


def uniform_window_integral(bounds: Sequence[tuple[float, float]], t: float) -> float:
    """Window integral for independent uniform delays, via quadrature.

    At point u outside the leader window [0, t], the coverage probability is
    1 - prod_j (1 - P(delay_j in [u - t, u])).
    """
    if t <= 0:
        return 0.0
    if not bounds:
        return t

    def covered(u: float) -> float:
        prod = 1.0
        for lo, hi in bounds:
            prod *= 1.0 - (_uniform_cdf(u, lo, hi) - _uniform_cdf(u - t, lo, hi))
        return 1.0 - prod

    pts: set[float] = {0.0, t}
    for lo, hi in bounds:
        pts.update((lo, hi, lo + t, hi + t))
    left = min(0.0, min(lo for lo, _ in bounds))
    right = max(t, max(hi for _, hi in bounds) + t)
    total = t
    total += _quad(covered, left, 0.0, pts)
    total += _quad(covered, t, right, pts)
    return total


def joint_window_integral(samples: np.ndarray, t: float) -> float:
    """Monte-Carlo window integral from delay-vector samples (one per row)."""
    if t <= 0:
        return 0.0
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ModelError("joint delay samples must be a 2-D array")
    n = samples.shape[0]
    acc = 0.0
    for i in range(0, n, _MC_CHUNK):
        chunk = samples[i : i + _MC_CHUNK]
        aug = np.concatenate([np.zeros((chunk.shape[0], 1)), chunk], axis=1)
        aug.sort(axis=1)
        acc += float(_union_measure_from_starts(aug, t).sum())
    return acc / n


def group_window_integral(
    delays: DelaySpec | None,
    followers: int,
    t: float,
    sample_matrix: np.ndarray | None = None,
) -> float:
    """Expected union length of the windows opened by one leader arrival.

    Dispatches on the delay spec: closed form for structured and fixed
    delays, quadrature for independent uniforms, Monte Carlo over
    ``sample_matrix`` (the model's draws, one delay vector per row) for
    joint samplers.
    """
    if t <= 0:
        return 0.0
    if followers == 0 or delays is None:
        return float(t)
    if isinstance(delays, StructuredDelays):
        return structured_window_integral(delays.step, followers, t)
    if isinstance(delays, FixedDelays):
        return fixed_window_integral(delays.values, t)
    if isinstance(delays, UniformDelays):
        return uniform_window_integral(delays.bounds, t)
    if isinstance(delays, JointDelays):
        return joint_window_integral(sample_matrix, t)
    raise ModelError(f"unsupported delay spec {type(delays).__name__}")


@dataclass(eq=False)
class ModelGroup:
    """One request group: per-object leader rates plus the follower layout."""

    object_ids: np.ndarray
    rates: np.ndarray
    followers: int
    delays: DelaySpec | None = None

    def __post_init__(self):
        self.object_ids = np.asarray(self.object_ids, dtype=np.int64)
        self.rates = np.asarray(self.rates, dtype=float)
        if self.object_ids.shape != self.rates.shape or self.object_ids.ndim != 1:
            raise ModelError("object_ids and rates must be 1-D and aligned")
        if len(np.unique(self.object_ids)) != len(self.object_ids):
            raise ModelError("object_ids within a group must be distinct")
        bad = np.flatnonzero(~(np.isfinite(self.rates) & (self.rates >= 0)))
        if len(bad):
            i = bad[0]
            raise ModelError(
                f"rates must be finite and nonnegative: object {self.object_ids[i]} "
                f"has rate {float(self.rates[i])!r}"
            )
        if self.followers < 0:
            raise ModelError("followers must be >= 0")
        implied = delay_count(self.delays)
        if implied is not None and implied != self.followers:
            raise ModelError(
                f"delay spec implies {implied} followers, group declares {self.followers}"
            )
        if self.followers > 0 and self.delays is None:
            raise ModelError("groups with followers need a delay spec")

    @classmethod
    def from_group_spec(cls, spec: GroupSpec) -> "ModelGroup":
        return cls(
            object_ids=spec.object_ids(),
            rates=spec.rates(),
            followers=spec.followers,
            delays=spec.delays,
        )


@dataclass(frozen=True)
class CharacteristicTime:
    """Fixed point of the expected-cached-volume equation."""

    t_star: float
    capacity: float
    rhs_value: float
    residual: float
    iterations: int


@dataclass(frozen=True)
class GroupHitProbs:
    """Per-object hit probabilities for one group, by client role."""

    object_ids: np.ndarray
    rates: np.ndarray
    followers: int
    leader: np.ndarray
    follower_list: tuple[np.ndarray, ...]  # one vector per follower index


@dataclass(frozen=True)
class HitReport:
    capacity: float
    t_star: float
    residual: float
    iterations: int
    groups: tuple[GroupHitProbs, ...]
    normalized_hit_rate: float

    def to_csv(self, fh: IO[str]) -> None:
        fh.write(f"# capacity={self.capacity!r}\n")
        fh.write(f"# t_star={self.t_star!r}\n")
        fh.write(f"# residual={self.residual!r}\n")
        fh.write(f"# normalized_hit_rate={self.normalized_hit_rate!r}\n")
        fh.write("group,client_role,follower_index,object,hit_prob\n")
        for gi, g in enumerate(self.groups):
            for oid, p in zip(g.object_ids.tolist(), g.leader.tolist()):
                fh.write(f"{gi},leader,-,{oid},{p!r}\n")
            for fi, vec in enumerate(g.follower_list, start=1):
                for oid, p in zip(g.object_ids.tolist(), vec.tolist()):
                    fh.write(f"{gi},follower,{fi},{oid},{p!r}\n")


def _hit_probs(p: np.ndarray, factor: float, out: np.ndarray | None = None) -> np.ndarray:
    """1 - (1 - p) * factor: hit probabilities when a miss survives w.p. factor."""
    miss = np.subtract(1.0, p, out=out)
    miss *= factor
    return np.subtract(1.0, miss, out=miss)


def normalized_model_hit_rate(
    groups: list[tuple[np.ndarray, int]],
    hit_probs: list[tuple[np.ndarray, list[np.ndarray]]],
) -> float:
    """Aggregate a per-object hit-probability table into one rate ratio.

    ``groups`` pairs each group's per-object leader request rates with its
    follower count; ``hit_probs`` pairs the leader hit-probability vector
    with one vector per follower.  The result is the expected hit rate over
    the total request rate, so it is directly comparable to a measured hit
    ratio.
    """
    tables = []
    for (rates, followers), (leader_p, follower_ps) in zip(groups, hit_probs):
        if len(follower_ps) != followers:
            raise ValueError("follower probability vectors do not match the follower count")
        tables.append((rates, followers, [(leader_p, 1), *((v, 1) for v in follower_ps)]))
    return _normalized_rate(tables)


def _normalized_rate(tables) -> float:
    """The normalised hit rate of (rates, followers, columns) per group.

    ``columns`` are the group's role vectors in role order (leader, then
    followers 1, 2, ...) as (vector, count) runs of roles sharing one vector;
    a run's vector is weighted once and its sum added once per role, the
    additions of weighting every role.
    """
    num = 0.0
    den = 0.0
    for rates, followers, columns in tables:
        rates = np.asarray(rates, dtype=float)
        den += float(rates.sum()) * (1 + followers)
        weighted = np.empty_like(rates)
        for vec, count in columns:
            np.multiply(rates, np.asarray(vec, dtype=float), out=weighted)
            total = float(weighted.sum())
            for _ in range(count):
                num += total
    if den == 0:
        raise ValueError("total request rate is zero")
    return num / den


def _follower_column_runs(g: ModelGroup) -> list[tuple[int, int]]:
    """Group g's followers as (first follower, count) runs that share one
    hit column, in follower order.

    Structured followers all share one.  A fixed or uniform follower's
    factor reads its own delay and the others' in order, and followers i < k
    read equal inputs exactly when delays i..k are bitwise equal, so the
    runs of bitwise-equal neighbours are the distinct inputs.  Joint
    followers each read their own sample column.
    """
    if g.followers == 0:
        return []
    d = g.delays
    if isinstance(d, StructuredDelays):
        return [(0, g.followers)]
    if isinstance(d, (FixedDelays, UniformDelays)):
        spec = np.asarray(d.values if isinstance(d, FixedDelays) else d.bounds, dtype=float)
        bits = spec.reshape(g.followers, -1).view(np.int64)
        starts = np.flatnonzero(np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)])
    else:
        starts = np.arange(g.followers)
    return list(zip(starts.tolist(), np.diff(starts, append=g.followers).tolist()))


class WorkingSetModel:
    """Evaluates cached-object probabilities and role hit probabilities.

    ``sizes`` may be None (unit sizes), a scalar, a mapping from object id to
    size, or a callable; it must cover every object appearing in any group.
    """

    def __init__(
        self,
        groups: Sequence[ModelGroup],
        sizes=None,
        mc_samples: int = DEFAULT_MC_SAMPLES,
        mc_seed: int = 0,
    ):
        if not groups:
            raise ModelError("model needs at least one group")
        self.groups = list(groups)
        self.mc_samples = int(mc_samples)
        if self.mc_samples < 1:
            raise ModelError(f"mc_samples must be >= 1, got {self.mc_samples}")
        self.mc_seed = int(mc_seed)
        self.object_ids = np.unique(np.concatenate([g.object_ids for g in self.groups]))
        self._scatter = [
            np.searchsorted(self.object_ids, g.object_ids) for g in self.groups
        ]
        self._follower_runs = [_follower_column_runs(g) for g in self.groups]
        # every object's (group, negated rate) terms in group order, in
        # layers: layer 0 holds each object's first term in object order,
        # layer l the l-th term of the objects in more than l groups
        objects = np.concatenate(self._scatter)
        order = np.argsort(objects, kind="stable")
        objects = objects[order]
        group_of = np.repeat(np.arange(len(self.groups)), [len(s) for s in self._scatter])[order]
        neg_rates = -np.concatenate([g.rates for g in self.groups])[order]
        layer = np.arange(len(objects)) - np.searchsorted(objects, objects)
        # layer 0's groups as runs of one group: repeating the integrals over
        # run lengths is cheaper than gathering them per object
        firsts = group_of[layer == 0]
        starts = np.flatnonzero(np.diff(firsts, prepend=-1))
        self._run_groups = firsts[starts]
        self._run_lengths = np.diff(starts, append=len(firsts))
        self._neg_rates = neg_rates[layer == 0]
        self._layers = [
            (objects[at], group_of[at], neg_rates[at])
            for at in (layer == l for l in range(1, int(layer.max(initial=0)) + 1))
        ]
        ids = self.object_ids.tolist()
        if sizes is None:
            self.sizes = np.ones(len(self.object_ids))
        elif np.isscalar(sizes):
            self.sizes = np.full(len(self.object_ids), float(sizes))
        elif isinstance(sizes, Mapping):
            try:
                self.sizes = np.array([float(sizes[o]) for o in ids])
            except KeyError as exc:
                raise ModelError(f"sizes has no entry for object {exc.args[0]!r}") from None
        elif callable(sizes):
            self.sizes = np.array([float(sizes(o)) for o in ids])
        else:
            raise ModelError("sizes must be None, a scalar, a mapping, or a callable")
        bad = np.flatnonzero(~(np.isfinite(self.sizes) & (self.sizes > 0)))
        if len(bad):
            i = bad[0]
            raise ModelError(
                f"object sizes must be finite and positive: object {ids[i]} "
                f"has size {float(self.sizes[i])!r}"
            )
        # summed once: every solve reads it, and a sequential sum costs more
        # than numpy's pairwise one
        self._volume = _sequential_sum(self.sizes)
        self._mc_cache: dict[int, np.ndarray] = {}

    @classmethod
    def from_group_specs(cls, groups: Sequence[GroupSpec], sizes=None) -> "WorkingSetModel":
        return cls([ModelGroup.from_group_spec(g) for g in groups], sizes=sizes)

    def total_volume(self) -> float:
        """Sum of sizes added in ascending object order, the catalog's rule."""
        return self._volume

    def _mc_samples_for(self, gi: int) -> np.ndarray:
        mat = self._mc_cache.get(gi)
        if mat is None:
            g = self.groups[gi]
            rng = np.random.default_rng(self.mc_seed + gi)
            mat = np.asarray(g.delays.sampler(rng, self.mc_samples), dtype=float)
            if mat.shape != (self.mc_samples, g.followers):
                raise ModelError(
                    f"joint sampler returned shape {mat.shape}, "
                    f"expected {(self.mc_samples, g.followers)}"
                )
            self._mc_cache[gi] = mat
        return mat

    def group_integral(self, gi: int, t: float) -> float:
        g = self.groups[gi]
        if isinstance(g.delays, JointDelays):
            return group_window_integral(
                g.delays, g.followers, t, sample_matrix=self._mc_samples_for(gi)
            )
        return group_window_integral(g.delays, g.followers, t)

    def p_requested(self, t: float) -> np.ndarray:
        """P(object is inside the cache window of length t), per object."""
        p = self._expm1_exponent(t)
        return np.negative(p, out=p)

    def expected_cached_volume(self, t: float) -> float:
        miss = self._expm1_exponent(t)
        miss *= self.sizes
        # a sum of p * size is never -0.0; subtracting from 0.0 keeps it so
        return 0.0 - float(miss.sum())

    def _expm1_exponent(self, t: float) -> np.ndarray:
        """expm1(-sum of rate * I_g(t) over each object's groups), i.e. -p.

        The terms are negated and added in group order onto each object's
        first; (-a) + (-b) == -(a + b) exactly, so the bits are those of the
        per-group loop's positive sums, negated.
        """
        if t < 0:
            raise ModelError("window length must be >= 0")
        integrals = np.array(
            [self.group_integral(gi, t) for gi in range(len(self.groups))], dtype=float
        )
        x = integrals[self._run_groups].repeat(self._run_lengths)
        x *= self._neg_rates
        for at, group_of, neg_rates in self._layers:
            x[at] += integrals[group_of] * neg_rates
        return np.expm1(x, out=x)

    def solve_characteristic_time(self, capacity: float, max_iter: int = 500) -> CharacteristicTime:
        """Solve expected_cached_volume(t*) = capacity by bracketed bisection,
        to within 1e-6 of the capacity (`_SOLVE_REL_TOL`)."""
        if not capacity > 0:  # NaN too
            raise ModelError("capacity must be positive")
        if capacity >= self.total_volume():
            raise ModelError(
                "capacity holds the whole catalog; the characteristic time is unbounded"
            )
        target = float(capacity)
        tol = _SOLVE_REL_TOL * target
        lo, hi = 0.0, 1.0
        iters = 0
        while (val := self.expected_cached_volume(hi)) < target:
            lo = hi
            hi *= 2.0
            iters += 1
            if iters > 200:
                raise ModelError("failed to bracket the characteristic time")
        mid = hi
        while iters < max_iter:
            mid = 0.5 * (lo + hi)
            val = self.expected_cached_volume(mid)
            iters += 1
            if abs(val - target) <= tol:
                break
            if val < target:
                lo = mid
            else:
                hi = mid
        else:
            raise ModelError(
                f"characteristic time did not converge in {max_iter} iterations "
                f"(residual {val - target:g})"
            )
        return CharacteristicTime(
            t_star=mid,
            capacity=target,
            rhs_value=val,
            residual=val - target,
            iterations=iters,
        )

    # -- role hit probabilities ------------------------------------------

    def _leader_factor(self, gi: int, t: float) -> float:
        """P(no follower re-request lands within t before a leader arrival)."""
        g = self.groups[gi]
        if g.followers == 0:
            return 1.0
        d = g.delays
        if isinstance(d, StructuredDelays):
            return 1.0  # delays are strictly positive
        if isinstance(d, FixedDelays):
            return 0.0 if any(-t <= v <= 0 for v in d.values) else 1.0
        if isinstance(d, UniformDelays):
            prod = 1.0
            for lo, hi in d.bounds:
                prod *= 1.0 - (_uniform_cdf(0.0, lo, hi) - _uniform_cdf(-t, lo, hi))
            return prod
        mat = self._mc_samples_for(gi)
        inside = (mat >= -t) & (mat <= 0)
        return float((~inside.any(axis=1)).mean())

    def _follower_factor(self, gi: int, i: int, t: float) -> float:
        """P(follower i's re-request is not inside any other client's window)."""
        g = self.groups[gi]
        d = g.delays
        if isinstance(d, FixedDelays):
            v = d.values
            if 0 <= v[i] <= t:
                return 0.0
            for j, vj in enumerate(v):
                if j != i and -t <= vj - v[i] <= 0:
                    return 0.0
            return 1.0
        if isinstance(d, UniformDelays):
            lo_i, hi_i = d.bounds[i]
            width = hi_i - lo_i
            others = [b for j, b in enumerate(d.bounds) if j != i]

            def integrand(x: float) -> float:
                prod = 1.0
                for lo, hi in others:
                    prod *= 1.0 - (_uniform_cdf(x, lo, hi) - _uniform_cdf(x - t, lo, hi))
                return prod / width

            pts: set[float] = {0.0, t}
            for lo, hi in others:
                pts.update((lo, hi, lo + t, hi + t))
            total = 0.0
            total += _quad(integrand, lo_i, min(hi_i, 0.0), pts)
            total += _quad(integrand, max(lo_i, t), hi_i, pts)
            return total
        if isinstance(d, JointDelays):
            mat = self._mc_samples_for(gi)
            vi = mat[:, i]
            ok = (vi < 0) | (vi > t)
            for j in range(g.followers):
                if j == i:
                    continue
                diff = mat[:, j] - vi
                ok &= ~((diff >= -t) & (diff <= 0))
            return float(ok.mean())
        raise ModelError("follower factors need an explicit delay spec")

    def leader_hit_probs(self, t: float) -> list[np.ndarray]:
        """Per-group leader hit probability vectors at window length t."""
        p = self.p_requested(t)
        return [self._leader_table(gi, p[at], t) for gi, at in enumerate(self._scatter)]

    def follower_hit_probs(self, t: float) -> list[list[np.ndarray]]:
        """Per-group, per-follower hit probability vectors at window length t."""
        p = self.p_requested(t)
        return [self._follower_table(gi, p[at], t)[0] for gi, at in enumerate(self._scatter)]

    def _leader_table(self, gi: int, pg: np.ndarray, t: float) -> np.ndarray:
        """The leader's hit vector of group gi, written over ``pg``."""
        factor = self._leader_factor(gi, t)
        # factor 1 means the miss probability is untouched; keep p itself
        # so the closed-form identity holds bit-exactly
        return pg if factor == 1.0 else _hit_probs(pg, factor, out=pg)

    def _follower_table(
        self, gi: int, pg: np.ndarray, t: float
    ) -> tuple[list[np.ndarray], list[tuple[np.ndarray, int]]]:
        """Group gi's follower hit vectors, each its own array, and its
        distinct columns as (vector, count) runs in follower order.

        Each run's column is built once; ``pg`` is only read.
        """
        g = self.groups[gi]
        vecs: list[np.ndarray] = []
        runs = []
        for first, count in self._follower_runs[gi]:
            if isinstance(g.delays, StructuredDelays):
                # every follower trails some request by exactly step
                own = np.ones_like(pg) if g.delays.step < t else pg.copy()
            else:
                factor = self._follower_factor(gi, first, t)
                own = pg.copy() if factor == 1.0 else _hit_probs(pg, factor)
            vecs += [own, *(own.copy() for _ in range(count - 1))]
            runs.append((own, count))
        return vecs, runs

    def hit_report(self, capacity: float) -> HitReport:
        """Solve for t*, then tabulate hit probabilities for every role."""
        ct = self.solve_characteristic_time(capacity)
        t = ct.t_star
        p = self.p_requested(t)
        groups = []
        tables = []
        for gi, (g, at) in enumerate(zip(self.groups, self._scatter)):
            pg = p[at]  # fancy indexing copies, so pg is ours
            followers, runs = self._follower_table(gi, pg, t)
            leader = self._leader_table(gi, pg, t)  # last: it may write over pg
            groups.append(
                GroupHitProbs(
                    object_ids=g.object_ids,
                    rates=g.rates,
                    followers=g.followers,
                    leader=leader,
                    follower_list=tuple(followers),
                )
            )
            tables.append((g.rates, g.followers, [(leader, 1), *runs]))
        rate = _normalized_rate(tables)
        return HitReport(
            capacity=capacity,
            t_star=ct.t_star,
            residual=ct.residual,
            iterations=ct.iterations,
            groups=tuple(groups),
            normalized_hit_rate=rate,
        )
