"""Workload generators: grouped leader/follower streams and the toroid."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from corrcache.trace import Trace, trace_to_string, validate_trace
from corrcache.workloads import (
    FixedDelays,
    GroupSpec,
    JointDelays,
    LeaderSwitch,
    OrderShuffle,
    StructuredDelays,
    ToroidGroup,
    ToroidSpec,
    UniformDelays,
    apply_leader_switch,
    apply_order_shuffle,
    delay_count,
    even_odd_sizes,
    gen_grouped_trace,
    gen_toroid_trace,
    group_clients,
    sample_delays,
    zipf_pmf,
)
from corrcache.workloads import _torus_visible_pairs

from conftest import (  # noqa: F401
    naive_toroid_trace,
    tiny_toroid_spec,
    toroid_oracle_events,
    trace_event_set,
)


# ---------------------------------------------------------------------------
# popularity
# ---------------------------------------------------------------------------


def test_zipf_examples():
    assert np.allclose(zipf_pmf(2, 1.0), [2 / 3, 1 / 3])
    assert np.allclose(zipf_pmf(3, 2.0), [36 / 49, 9 / 49, 4 / 49])
    assert np.allclose(zipf_pmf(4, 0.0), [0.25] * 4)


def test_zipf_sums_to_one():
    for d, s in [(1, 1.0), (10, 0.8), (5000, 1.0), (137, 2.5)]:
        assert abs(zipf_pmf(d, s).sum() - 1.0) < 1e-12


def test_zipf_validation():
    with pytest.raises(ValueError):
        zipf_pmf(0, 1.0)
    with pytest.raises(ValueError):
        zipf_pmf(3, -0.5)


def test_zipf_empirical_frequencies_chi_square():
    d, s, n = 50, 1.0, 100_000
    pmf = zipf_pmf(d, s)
    rng = np.random.default_rng(11)
    draws = rng.choice(d, size=n, p=pmf)
    observed = np.bincount(draws, minlength=d)
    stat = ((observed - n * pmf) ** 2 / (n * pmf)).sum()
    assert stat < sstats.chi2.ppf(0.999, df=d - 1)


# ---------------------------------------------------------------------------
# delay specs
# ---------------------------------------------------------------------------


def test_delay_spec_validation():
    with pytest.raises(ValueError):
        StructuredDelays(0.0)
    with pytest.raises(ValueError):
        UniformDelays(bounds=((5.0, 5.0),))
    assert StructuredDelays(2.0).values(3).tolist() == [2.0, 4.0, 6.0]
    assert delay_count(StructuredDelays(1.0)) is None
    assert delay_count(FixedDelays((1.0, 2.0))) == 2
    assert delay_count(UniformDelays.iid(0, 1, 3)) == 3
    assert delay_count(None) is None


def test_sample_delays_shapes_and_errors():
    rng = np.random.default_rng(0)
    assert sample_delays(None, 0, rng, 5).shape == (5, 0)
    with pytest.raises(ValueError, match="delay spec"):
        sample_delays(None, 2, rng, 5)
    out = sample_delays(FixedDelays((1.0, -2.0)), 2, rng, 4)
    assert np.array_equal(out, np.tile([1.0, -2.0], (4, 1)))
    u = sample_delays(UniformDelays.iid(-1.0, 1.0, 2), 2, rng, 1000)
    assert u.shape == (1000, 2) and u.min() >= -1.0 and u.max() <= 1.0
    bad = JointDelays(sampler=lambda rng, n: np.zeros((n, 3)), count=2)
    with pytest.raises(ValueError, match="shape"):
        sample_delays(bad, 2, rng, 7)


def test_group_spec_validation():
    with pytest.raises(ValueError, match="delay spec"):
        GroupSpec(1, 10, 1.0, 1.0, followers=2)
    with pytest.raises(ValueError, match="2 followers but group has 3"):
        GroupSpec(1, 10, 1.0, 1.0, followers=3, delays=FixedDelays((1.0, 2.0)))
    with pytest.raises(ValueError):
        GroupSpec(1, 0, 1.0, 1.0, followers=0)
    with pytest.raises(ValueError):
        GroupSpec(1, 10, 0.0, 1.0, followers=0)


def test_group_clients_are_one_based_and_sequential():
    groups = (
        GroupSpec(1, 5, 1.0, 1.0, followers=2, delays=StructuredDelays(1.0)),
        GroupSpec(6, 5, 1.0, 1.0, followers=0),
        GroupSpec(11, 5, 1.0, 1.0, followers=1, delays=StructuredDelays(1.0)),
    )
    assert group_clients(groups) == [(1, [2, 3]), (4, []), (5, [6])]


# ---------------------------------------------------------------------------
# grouped generator
# ---------------------------------------------------------------------------


def test_irm_degenerate_case_single_client():
    g = GroupSpec(1, 20, 5.0, 1.0, followers=0)
    tr = gen_grouped_trace((g,), horizon=50.0, seed=3)
    assert set(tr.clients.tolist()) == {1}
    assert validate_trace(tr).ok
    assert tr.meta["generator"] == "grouped"


def test_main_grouped_config_total_rate_literal_rates():
    # leaders 10/15/20 with 8/6/4 followers: expected 295 requests per unit time
    groups = (
        GroupSpec(1, 1000, 10.0, 0.8, 8, StructuredDelays(10.0)),
        GroupSpec(1001, 1000, 15.0, 0.85, 6, StructuredDelays(20.0)),
        GroupSpec(2001, 1000, 20.0, 0.9, 4, StructuredDelays(30.0)),
    )
    horizon = 10_000.0
    tr = gen_grouped_trace(groups, horizon=horizon, seed=1)
    rate = len(tr) / horizon
    assert abs(rate - 295.0) / 295.0 < 0.01


def test_structured_delays_replay_leader_exactly():
    delta = 2.5
    g = GroupSpec(1, 10, 4.0, 1.0, followers=3, delays=StructuredDelays(delta))
    tr = gen_grouped_trace((g,), horizon=30.0, seed=5)
    leader, followers = group_clients((g,))[0]
    by_client = {
        c: sorted(zip(tr.times[tr.clients == c].tolist(), tr.objects[tr.clients == c].tolist()))
        for c in [leader, *followers]
    }
    for i, fc in enumerate(followers, start=1):
        expected = sorted((t + i * delta, o) for t, o in by_client[leader])
        got = by_client[fc]
        assert len(got) == len(expected)
        for (te, oe), (tg, og) in zip(expected, got):
            assert og == oe and abs(tg - te) < 1e-9


def test_follower_objects_match_leader_with_negative_delays():
    g = GroupSpec(1, 8, 6.0, 1.0, followers=2, delays=FixedDelays((-1.5, 3.0)))
    tr = gen_grouped_trace((g,), horizon=20.0, seed=9)
    assert validate_trace(tr).ok  # negative-delay events before t=0 were dropped
    assert tr.times.min() >= 0.0
    leader, (f1, f2) = group_clients((g,))[0]
    lead = sorted(zip(tr.times[tr.clients == leader].tolist(), tr.objects[tr.clients == leader].tolist()))
    # follower 2 (delay +3.0) replays every leader event; follower 1 loses
    # only those leader arrivals in [0, 1.5)
    got2 = sorted(zip(tr.times[tr.clients == f2].tolist(), tr.objects[tr.clients == f2].tolist()))
    assert [(round(t - 3.0, 9), o) for t, o in got2] == [(round(t, 9), o) for t, o in lead]
    n_lost = sum(1 for t, _ in lead if t < 1.5)
    assert (tr.clients == f1).sum() == len(lead) - n_lost


def test_poisson_interarrival_mean_and_variance():
    lam = 5.0
    g = GroupSpec(1, 3, lam, 0.0, followers=0)
    tr = gen_grouped_trace((g,), horizon=20_000.0, seed=17)
    gaps = np.diff(tr.times)
    n = len(gaps)
    assert n > 90_000
    se_mean = (1 / lam) / np.sqrt(n)
    assert abs(gaps.mean() - 1 / lam) < 3 * se_mean
    se_var = (1 / lam**2) * np.sqrt(2 / n)
    assert abs(gaps.var() - 1 / lam**2) < 3 * se_var


def test_grouped_generator_is_deterministic():
    g = GroupSpec(1, 10, 3.0, 1.0, followers=2, delays=UniformDelays.iid(-1, 4, 2))
    a = gen_grouped_trace((g,), horizon=40.0, seed=12, object_sizes=even_odd_sizes())
    b = gen_grouped_trace((g,), horizon=40.0, seed=12, object_sizes=even_odd_sizes())
    c = gen_grouped_trace((g,), horizon=40.0, seed=13, object_sizes=even_odd_sizes())
    assert trace_to_string(a) == trace_to_string(b)
    assert trace_to_string(a) != trace_to_string(c)


def test_even_odd_sizes_rule():
    size = even_odd_sizes(2.0, 5.0)
    assert size(2) == 2.0 and size(4) == 2.0
    assert size(1) == 5.0 and size(3) == 5.0


def test_gen_grouped_validation():
    g = GroupSpec(1, 5, 1.0, 1.0, followers=0)
    with pytest.raises(ValueError):
        gen_grouped_trace((), horizon=10.0, seed=0)
    with pytest.raises(ValueError):
        gen_grouped_trace((g,), horizon=0.0, seed=0)


# ---------------------------------------------------------------------------
# dynamics rules
# ---------------------------------------------------------------------------


def test_order_shuffle_pairwise_swap():
    assignments = [(0, 4), (0, 8), (0, 12), (0, 16)]
    out = apply_order_shuffle(assignments, period=10, slot=10)
    assert [d for _, d in out] == [8, 4, 16, 12]


def test_order_shuffle_single_and_trailing_followers():
    assert apply_order_shuffle([(0, 4)], 10, 10) == [(0, 4)]
    out = apply_order_shuffle([(0, 1), (0, 2), (0, 3)], 5, 5)
    assert [d for _, d in out] == [2, 1, 3]


def test_order_shuffle_is_involution():
    assignments = [(0, 4), (0, 8), (1, 2), (1, 6), (1, 9)]
    once = apply_order_shuffle(assignments, 7, 7)
    twice = apply_order_shuffle(once, 7, 14)
    assert twice == assignments
    assert once != assignments


def test_order_shuffle_only_fires_on_positive_period_multiples():
    assignments = [(0, 4), (0, 8)]
    for slot in (0, 1, 9, 11):
        assert apply_order_shuffle(assignments, 10, slot) == assignments
    assert apply_order_shuffle(assignments, 10, 20) != assignments


def test_order_shuffle_swaps_within_leader_only():
    assignments = [(0, 4), (1, 8)]  # different leaders: nothing to swap
    assert apply_order_shuffle(assignments, 3, 3) == assignments


def test_leader_switch_degenerate_probabilities():
    dyn = LeaderSwitch(period=5, probabilities=(1.0, 0.0, 0.0), step_delay=5)
    rng = np.random.default_rng(0)
    out = apply_leader_switch([(2, 9)] * 4, dyn, slot=5, rng=rng)
    assert out == [(0, 5), (0, 10), (0, 15), (0, 20)]


def test_leader_switch_skips_non_boundary_slots():
    dyn = LeaderSwitch(period=5, probabilities=(1.0,), step_delay=5)
    rng = np.random.default_rng(0)
    assignments = [(0, 3)]
    assert apply_leader_switch(assignments, dyn, 3, rng) == assignments
    assert apply_leader_switch(assignments, dyn, 0, rng) == assignments


def test_leader_switch_empirical_frequencies():
    probs = (0.5, 0.3, 0.2)
    dyn = LeaderSwitch(period=1, probabilities=probs, step_delay=5)
    rng = np.random.default_rng(23)
    counts = np.zeros(3)
    boundaries = 10_000
    assignments = [(0, 5)]
    for b in range(1, boundaries + 1):
        out = apply_leader_switch(assignments, dyn, b, rng)
        counts[out[0][0]] += 1
    freq = counts / boundaries
    assert np.all(np.abs(freq - np.asarray(probs)) <= 0.02)


def test_leader_switch_kth_joiner_delay_multiples():
    dyn = LeaderSwitch(period=2, probabilities=(0.5, 0.5), step_delay=5)
    rng = np.random.default_rng(41)
    out = apply_leader_switch([(0, 1)] * 6, dyn, slot=2, rng=rng)
    joined: dict[int, int] = {}
    for leader, delay in out:
        joined[leader] = joined.get(leader, 0) + 1
        assert delay == 5 * joined[leader]


def test_dynamics_validation():
    with pytest.raises(ValueError):
        OrderShuffle(period=0)
    with pytest.raises(ValueError, match="sum to 1"):
        LeaderSwitch(period=5, probabilities=(0.5, 0.4))
    with pytest.raises(ValueError, match="sum to 1"):
        LeaderSwitch(period=5, probabilities=(1.5, -0.5))


def test_leader_switch_rejects_more_probabilities_than_groups(monkeypatch):
    spec = ToroidSpec(groups=(ToroidGroup(()),), horizon_slots=10)
    dyn = LeaderSwitch(period=5, probabilities=(0.0, 1.0))

    def no_draws(seed=None):
        raise AssertionError("the generator drew before checking its dynamics")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match=r"2 probabilities.* 1 groups"):
        gen_toroid_trace(spec, dynamics=dyn, seed=0)


def test_leader_switch_with_fewer_probabilities_than_groups():
    # clients: 1 = leader 0, 2 = leader 1, 3 = leader 1's follower (delay 1);
    # from slot 4 on the follower trails leader 0 by 2 slots
    spec = ToroidSpec(
        groups=(ToroidGroup(()), ToroidGroup((1,))),
        horizon_slots=12,
        side=100.0,
        num_objects=300,
        speed=7.0,
        direction_period=3,
        visibility_radius=30.0,
    )
    dyn = LeaderSwitch(period=4, probabilities=(1.0,), step_delay=2)
    tr = gen_toroid_trace(spec, dynamics=dyn, seed=3)
    assert trace_to_string(tr) == trace_to_string(naive_toroid_trace(spec, dyn, 3))
    seen: dict = {}
    for t, c, o in zip(tr.times.tolist(), tr.clients.tolist(), tr.objects.tolist()):
        seen.setdefault((c, int(t)), set()).add(o)
    for n in range(4, 12):
        assert seen.get((1, n - 2))
        assert seen.get((3, n)) == seen[(1, n - 2)]


# ---------------------------------------------------------------------------
# toroid generator
# ---------------------------------------------------------------------------


def test_toroid_spec_validation():
    with pytest.raises(ValueError, match=">= 1 slot"):
        ToroidGroup(follower_delays=(0,))
    with pytest.raises(ValueError, match="exceed the largest follower delay"):
        ToroidSpec(groups=(ToroidGroup((5,)),), horizon_slots=5)
    with pytest.raises(ValueError):
        ToroidSpec(groups=(), horizon_slots=10)
    groups = (ToroidGroup((2,)),)
    for field, value in [
        ("side", 0.0),
        ("side", -5.0),
        ("side", float("nan")),
        ("direction_period", 0),
        ("num_objects", 0),
        ("visibility_radius", 0.0),
        ("visibility_radius", -1.0),
        ("near_radius", -0.5),
    ]:
        with pytest.raises(ValueError, match=field):
            ToroidSpec(groups=groups, horizon_slots=10, **{field: value})
    # non-finite input is refused before any draw: the visibility grid would
    # turn a NaN or infinite position into a short trace
    for field, value in [
        ("side", float("inf")),
        ("speed", float("nan")),
        ("speed", float("inf")),
        ("speed", float("-inf")),
    ]:
        with pytest.raises(ValueError, match=field):
            ToroidSpec(groups=groups, horizon_slots=10, **{field: value})
    for sizes in [(1.0, 0.0, 0.1), (1.0, -0.5, 0.1), (float("nan"), 0.5, 0.1),
                  (1.0, 0.5, float("inf")), (1.0,), ()]:
        with pytest.raises(ValueError, match="tier_sizes"):
            ToroidSpec(groups=groups, horizon_slots=10, versioned=True, tier_sizes=sizes)
    # the boundary values that stay legal
    ToroidSpec(groups=groups, horizon_slots=10, direction_period=1, num_objects=1, near_radius=0.0)
    # tier sizes only matter for versioned traces
    ToroidSpec(groups=groups, horizon_slots=10, tier_sizes=(1.0, 0.0, 0.1))
    # two tiers are all a versioned trace requests
    spec = ToroidSpec(groups=groups, horizon_slots=10, side=100.0, num_objects=40,
                      versioned=True, tier_sizes=(1.0, 0.5))
    trace = gen_toroid_trace(spec, seed=1)
    assert validate_trace(trace).ok and set(trace.versions.tolist()) <= {0, 1}
    for field, value in [("speed", 0.0), ("speed", -25.0), ("visibility_radius", float("inf"))]:
        spec = ToroidSpec(groups=groups, horizon_slots=10, side=100.0, num_objects=40,
                          **{field: value})
        trace = gen_toroid_trace(spec, seed=1)
        assert len(trace) > 0
        assert trace_to_string(trace) == trace_to_string(naive_toroid_trace(spec, None, 1))


def test_torus_minimal_image_distance():
    objs = np.array([[99.0, 0.0, 0.0], [49.0, 0.0, 0.0]])
    pts = np.zeros((1, 3))
    pi, oi, d2 = _torus_visible_pairs(pts, objs, 100.0, 50.0)
    assert pi.tolist() == [0, 0] and oi.tolist() == [0, 1]
    assert np.allclose(d2, [1.0, 49.0**2])


def test_torus_visible_pairs_exact_boundary_cases():
    side = 100.0
    # an object exactly at the radius: 30^2 + 40^2 == 50^2 in floats
    pi, oi, d2 = _torus_visible_pairs(np.array([[30.0, 40.0, 0.0]]), np.zeros((1, 3)), side, 50.0)
    assert d2.tolist() == [2500.0] and pi.tolist() == [0] and oi.tolist() == [0]
    # one ulp less of radius and it is out
    assert len(_torus_visible_pairs(np.array([[30.0, 40.0, 0.0]]), np.zeros((1, 3)), side,
                                    np.nextafter(50.0, 0.0))[0]) == 0
    # across the seam: 99.9 and 0.05 are 0.15 apart, not 99.85
    pi, oi, d2 = _torus_visible_pairs(
        np.array([[99.9, 50.0, 50.0]]), np.array([[0.05, 50.0, 50.0]]), side, 0.2
    )
    assert oi.tolist() == [0] and d2[0] == pytest.approx(0.15**2)
    # a point that `% side` rounded up to side itself sits on the origin
    edge = -1e-20 % side
    assert edge == side
    objs = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 50.0], [side - 0.1, 0.0, 0.0]])
    pi, oi, d2 = _torus_visible_pairs(np.array([[edge, 0.0, 0.0]]), objs, side, 1.0)
    assert oi.tolist() == [0, 2] and d2[0] == 0.0
    # an object coordinate equal to side is found from the origin as well
    pi, oi, d2 = _torus_visible_pairs(np.zeros((1, 3)), np.array([[side, 0.0, 0.0]]), side, 1.0)
    assert oi.tolist() == [0] and d2.tolist() == [0.0]


def _assert_dense_visible_pairs(pts, objs, side, radius):
    delta = np.abs(pts[:, None, :] - objs[None, :, :])
    delta = np.minimum(delta, side - delta) ** 2
    dense = (delta[..., 0] + delta[..., 1]) + delta[..., 2]
    pi, oi, d2 = _torus_visible_pairs(pts, objs, side, radius)
    want_pi, want_oi = np.nonzero(dense <= radius**2)
    assert pi.tolist() == want_pi.tolist() and oi.tolist() == want_oi.tolist()
    assert d2.tolist() == dense[want_pi, want_oi].tolist()


def test_torus_visible_pairs_match_dense_distances():
    # Radii for side 60 and 70 objects.  The grid has floor(side / reach)
    # cells per axis, reach being a hair above the radius, capped at 8 (~8
    # cells per object): 3.0 hits the cap (19 cells become 8), 7.0 gives 8,
    # 7.5 gives 7, 17.0 and 19.99 give 3, 20.0 and 24.0 give 2, and side / 2
    # and up give 1.
    side = 60.0
    radii = (3.0, 7.0, 7.5, 17.0, 19.99, 20.0, 24.0, side / 2, 0.9 * side)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, side, size=(40, 3))
    objs = rng.uniform(0.0, side, size=(70, 3))
    for radius in radii:
        _assert_dense_visible_pairs(pts, objs, side, radius)

    # coordinates exactly on the cell edges k * side / m of every cell count
    # above, side itself included, mixed with random ones
    edges = np.unique([k * side / m for m in range(1, 9) for k in range(m + 1)])
    assert edges[-1] == side

    def on_edges(n):
        xyz = rng.uniform(0.0, side, size=(n, 3))
        on_edge = rng.random((n, 3)) < 0.7
        xyz[on_edge] = rng.choice(edges, size=int(on_edge.sum()))
        return xyz

    pts, objs = on_edges(60), on_edges(70)
    for radius in radii:
        _assert_dense_visible_pairs(pts, objs, side, radius)


@st.composite
def toroid_cases(draw):
    n_groups = draw(st.integers(1, 3))
    groups = tuple(
        ToroidGroup(tuple(draw(st.lists(st.integers(1, 4), max_size=3))))
        for _ in range(n_groups)
    )
    side = draw(st.sampled_from([40.0, 100.0, 123.5]))
    versioned = draw(st.booleans())
    spec = ToroidSpec(
        groups=groups,
        horizon_slots=draw(st.integers(5, 24)),
        side=side,
        num_objects=draw(st.integers(1, 40)),
        speed=draw(st.floats(0.0, 0.6 * side)),
        direction_period=draw(st.integers(1, 6)),
        # up to and past side/2, where one point sees objects on both sides
        visibility_radius=side * draw(st.floats(0.02, 0.95)),
        versioned=versioned,
        near_radius=side * draw(st.floats(0.0, 0.4)),
        newly_visible_only=draw(st.booleans()),
    )
    kind = draw(st.sampled_from(["none", "shuffle", "switch"]))
    if kind == "shuffle":
        dynamics = OrderShuffle(period=draw(st.integers(1, 6)))
    elif kind == "switch":
        weights = draw(st.lists(st.integers(1, 5), min_size=n_groups, max_size=n_groups))
        dynamics = LeaderSwitch(
            period=draw(st.integers(1, 6)),
            probabilities=tuple(w / sum(weights) for w in weights),
            step_delay=draw(st.integers(1, 3)),
        )
    else:
        dynamics = None
    return spec, dynamics, draw(st.integers(0, 2**16))


@settings(max_examples=60, deadline=None)
@given(toroid_cases())
def test_toroid_matches_dense_reference(case):
    spec, dynamics, seed = case
    fast = gen_toroid_trace(spec, dynamics=dynamics, seed=seed)
    slow = naive_toroid_trace(spec, dynamics, seed)
    assert trace_to_string(fast) == trace_to_string(slow)
    # generated in canonical order: sorting a copy moves no event
    resorted = Trace(fast.times, fast.clients, fast.objects, fast.versions, fast.catalog)
    resorted.sort_events()
    for name in ("times", "clients", "objects", "versions"):
        assert getattr(resorted, name).tobytes() == getattr(fast, name).tobytes(), name
    assert validate_trace(fast).ok


class _ScriptedRng:
    """Stands in for np.random.default_rng: hands out fixed draws in order."""

    def __init__(self, uniforms, normals):
        self.uniforms = list(uniforms)
        self.normals = list(normals)

    def uniform(self, low, high, size):
        return np.array(self.uniforms.pop(0), dtype=np.float64).reshape(size)

    def normal(self, size):
        return np.array(self.normals.pop(0), dtype=np.float64).reshape(size)


def test_toroid_version_tier_boundary_is_exact(monkeypatch):
    # one leader standing on the origin for one slot; object 1 sits exactly
    # at the near radius (3^2 + 4^2 == 5^2 in floats), object 2 one ulp of
    # its y coordinate closer
    closer = np.nextafter(4.0, 0.0)
    assert 3.0**2 + closer**2 < 25.0
    objects = [[3.0, 4.0, 0.0], [3.0, closer, 0.0]]
    monkeypatch.setattr(
        np.random,
        "default_rng",
        lambda seed=None: _ScriptedRng([objects, [0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]]),
    )
    spec = ToroidSpec(
        groups=(ToroidGroup(()),),
        horizon_slots=1,
        side=100.0,
        num_objects=2,
        visibility_radius=10.0,
        versioned=True,
        near_radius=5.0,
    )
    want = {(0.0, 1, 1, 1), (0.0, 1, 2, 0)}  # far tier at the radius, near inside
    assert trace_event_set(gen_toroid_trace(spec, seed=0)) == want
    assert toroid_oracle_events(spec, 0) == want
    assert trace_event_set(naive_toroid_trace(spec, None, 0)) == want


def test_toroid_matches_bruteforce_oracle(tiny_toroid_spec):
    tr = gen_toroid_trace(tiny_toroid_spec, seed=4)
    assert trace_event_set(tr) == toroid_oracle_events(tiny_toroid_spec, 4)
    assert validate_trace(tr).ok


def test_toroid_versioned_newly_visible_matches_oracle(tiny_toroid_spec):
    import dataclasses

    spec = dataclasses.replace(
        tiny_toroid_spec, versioned=True, newly_visible_only=True, near_radius=12.0
    )
    tr = gen_toroid_trace(spec, seed=8)
    assert trace_event_set(tr) == toroid_oracle_events(spec, 8)
    # versioned catalogs carry all three tiers per object
    assert len(tr.catalog) == 3 * spec.num_objects
    assert tr.catalog.size(1, 0) == 1.0 and tr.catalog.size(1, 2) == 0.1


def test_toroid_trace1_preset_has_17_clients():
    from corrcache.presets import get_preset

    tr = get_preset("toroid-trace1").build_trace(scale=0.05, seed=0)
    assert int(tr.meta["clients"]) == 17
    assert set(tr.clients.tolist()) <= set(range(1, 18))


def test_toroid_determinism():
    spec = ToroidSpec(
        groups=(ToroidGroup((2,)),), horizon_slots=15, side=80.0, num_objects=25,
        speed=10.0, visibility_radius=30.0,
    )
    a = gen_toroid_trace(spec, seed=6)
    b = gen_toroid_trace(spec, seed=6)
    c = gen_toroid_trace(spec, seed=7)
    assert trace_to_string(a) == trace_to_string(b)
    assert trace_to_string(a) != trace_to_string(c)


def test_toroid_follower_replays_leader_visibility():
    # without dynamics, follower events at slot n equal leader events at n-d
    spec = ToroidSpec(
        groups=(ToroidGroup((3,)),), horizon_slots=25, side=120.0, num_objects=40,
        speed=15.0, visibility_radius=35.0,
    )
    tr = gen_toroid_trace(spec, seed=2)
    leader_evs = {
        (t, o) for t, c, o in zip(tr.times.tolist(), tr.clients.tolist(), tr.objects.tolist())
        if c == 1
    }
    follower_evs = {
        (t, o) for t, c, o in zip(tr.times.tolist(), tr.clients.tolist(), tr.objects.tolist())
        if c == 2
    }
    expected = {(t + 3, o) for t, o in leader_evs if t + 3 < spec.horizon_slots}
    assert follower_evs == expected


def test_toroid_shuffle_dynamics_changes_trace():
    spec = ToroidSpec(
        groups=(ToroidGroup((2, 5)),), horizon_slots=30, side=100.0, num_objects=30,
        speed=12.0, visibility_radius=30.0,
    )
    plain = gen_toroid_trace(spec, seed=3)
    shuffled = gen_toroid_trace(spec, dynamics=OrderShuffle(period=6), seed=3)
    assert trace_to_string(plain) != trace_to_string(shuffled)
    assert shuffled.meta["dynamics"] == "ordershuffle"
