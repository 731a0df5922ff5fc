"""Analytical model: window integrals, fixed-point solver, role hit probs."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrcache.analysis import (
    CharacteristicTime,
    ModelError,
    ModelGroup,
    WorkingSetModel,
    fixed_window_integral,
    joint_window_integral,
    normalized_model_hit_rate,
    structured_window_integral,
    uniform_window_integral,
)
from corrcache.trace import ObjectCatalog
from corrcache.workloads import (
    FixedDelays,
    GroupSpec,
    JointDelays,
    StructuredDelays,
    UniformDelays,
)
from corrcache.presets import get_preset

from conftest import (
    naive_expected_cached_volume,
    naive_normalized_rate,
    naive_p_requested,
    naive_role_tables,
)


def iid_uniform_sampler(lo, hi, f):
    return JointDelays(sampler=lambda rng, n: rng.uniform(lo, hi, (n, f)), count=f)


def bits(x) -> bytes:
    """The raw float64 bytes, so that 0.0 and -0.0 differ."""
    return np.asarray(x, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# window integrals
# ---------------------------------------------------------------------------


def test_structured_window_integral_closed_form():
    assert structured_window_integral(5.0, 2, 10.0) == 20.0
    assert structured_window_integral(5.0, 2, 3.0) == 9.0  # t below the step
    assert structured_window_integral(5.0, 2, 0.0) == 0.0


def test_fixed_window_integral_union_arithmetic():
    assert fixed_window_integral([5.0, 7.0], 10.0) == 17.0  # one merged block
    assert fixed_window_integral([20.0], 5.0) == 10.0  # disjoint
    assert fixed_window_integral([-3.0], 5.0) == 8.0  # negative delay extends left
    assert fixed_window_integral([0.0], 5.0) == 5.0  # duplicate of the leader window
    assert fixed_window_integral([1.0], 0.0) == 0.0


def test_uniform_window_integral_degenerate_cases():
    assert uniform_window_integral([], 4.0) == 4.0
    assert uniform_window_integral([(0.0, 60.0)], 0.0) == 0.0


def test_uniform_window_integral_matches_monte_carlo():
    bounds = [(-10.0, 20.0)] * 3
    t = 8.0
    exact = uniform_window_integral(bounds, t)
    rng = np.random.default_rng(5)
    samples = rng.uniform(-10.0, 20.0, (400_000, 3))
    mc = joint_window_integral(samples, t)
    assert exact == pytest.approx(mc, abs=0.05)
    # at t=100 every interval overlaps: E[length] = t + E[max(v,0)] + E[max(-v,0)]
    # over the 3-sample extremes of U[-10,20], which works out to t + 5370/324
    assert uniform_window_integral(bounds, 100.0) == pytest.approx(100 + 5370 / 324, rel=1e-9)


def test_joint_window_integral_validates_shape():
    with pytest.raises(ModelError, match="2-D"):
        joint_window_integral(np.zeros(5), 1.0)


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------


def test_model_group_validation():
    with pytest.raises(ModelError, match="distinct"):
        ModelGroup(np.array([1, 1]), np.array([0.1, 0.2]), 0)
    with pytest.raises(ModelError, match="nonnegative"):
        ModelGroup(np.array([1]), np.array([-0.1]), 0)
    with pytest.raises(ModelError, match="aligned"):
        ModelGroup(np.array([1, 2]), np.array([0.1]), 0)
    with pytest.raises(ModelError, match="delay spec"):
        ModelGroup(np.array([1]), np.array([0.1]), 2)
    with pytest.raises(ModelError, match="declares"):
        ModelGroup(np.array([1]), np.array([0.1]), 3, FixedDelays((1.0, 2.0)))


def test_working_set_model_validation():
    with pytest.raises(ModelError, match="at least one group"):
        WorkingSetModel([])
    g = ModelGroup(np.array([1]), np.array([0.1]), 0)
    with pytest.raises(ModelError, match="positive"):
        WorkingSetModel([g], sizes=0.0)
    with pytest.raises(ModelError):
        WorkingSetModel([g]).p_requested(-1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_model_group_rejects_a_rate_that_is_not_finite(bad):
    # NaN compares false with 0, so a `rates < 0` check lets it through
    with pytest.raises(ModelError, match=f"object 4 has rate {bad!r}"):
        ModelGroup(np.array([3, 4]), np.array([0.1, bad]), 0)


def test_model_rejects_a_size_mapping_that_misses_an_object():
    g = ModelGroup(np.array([3, 4]), np.array([0.1, 0.2]), 0)
    with pytest.raises(ModelError, match="sizes has no entry for object 4"):
        WorkingSetModel([g], sizes={3: 1.0})


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_model_rejects_a_size_that_is_not_finite(bad):
    g = ModelGroup(np.array([3, 4]), np.array([0.1, 0.2]), 0)
    for sizes in ({3: 1.0, 4: bad}, lambda o: bad if o == 4 else 1.0):
        with pytest.raises(ModelError, match=f"object 4 has size {bad!r}"):
            WorkingSetModel([g], sizes=sizes)
    with pytest.raises(ModelError, match=f"object 3 has size {bad!r}"):
        WorkingSetModel([g], sizes=bad)


def test_model_rejects_fewer_than_one_monte_carlo_sample():
    # a joint-delay solve divided by the sample count: ZeroDivisionError
    g = ModelGroup(np.array([1, 2]), np.array([0.1, 0.2]), 2, iid_uniform_sampler(0, 5, 2))
    with pytest.raises(ModelError, match="mc_samples must be >= 1, got 0"):
        WorkingSetModel([g], mc_samples=0)


def test_sizes_accept_scalar_mapping_and_callable():
    g = ModelGroup(np.array([1, 2]), np.array([0.1, 0.2]), 0)
    assert WorkingSetModel([g]).total_volume() == 2.0
    assert WorkingSetModel([g], sizes=3.0).total_volume() == 6.0
    assert WorkingSetModel([g], sizes={1: 2.0, 2: 5.0}).total_volume() == 7.0
    assert WorkingSetModel([g], sizes=lambda o: float(o)).total_volume() == 3.0



def test_model_volume_adds_sizes_in_object_order_as_the_catalog_does():
    # np.sum's pairwise order gives 400.30000000000007 here
    objects = np.arange(1, 1001)
    sizes = {o: 0.1 * (o % 7 + 1) for o in objects.tolist()}
    model = WorkingSetModel([ModelGroup(objects, np.full(1000, 0.1), 0)], sizes=sizes)
    catalog = ObjectCatalog({(o, None): s for o, s in sizes.items()})
    assert repr(model.total_volume()) == repr(catalog.total_volume()) == "400.29999999999984"


# ---------------------------------------------------------------------------
# p_requested
# ---------------------------------------------------------------------------


def test_p_requested_irm_closed_form():
    rates = np.array([0.1, 0.2, 0.3])
    g = ModelGroup(np.array([1, 2, 3]), rates, 0)
    model = WorkingSetModel([g])
    for t in (0.0, 1.0, 7.5):
        assert np.allclose(model.p_requested(t), 1.0 - np.exp(-t * rates), rtol=1e-12)
    assert (model.p_requested(0.0) == 0.0).all()


def test_p_requested_sums_rates_across_overlapping_groups():
    a = ModelGroup(np.array([1]), np.array([0.1]), 0)
    b = ModelGroup(np.array([1]), np.array([0.3]), 0)
    model = WorkingSetModel([a, b])
    assert model.p_requested(2.0)[0] == pytest.approx(1.0 - math.exp(-0.8), rel=1e-12)


def test_p_requested_structured_closed_form_example():
    g = ModelGroup(np.array([1]), np.array([0.1]), 2, StructuredDelays(5.0))
    model = WorkingSetModel([g])
    p = model.p_requested(10.0)[0]
    assert p == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)
    assert p == pytest.approx(0.8647, abs=5e-5)


def test_p_requested_monotone_in_window_length():
    g = ModelGroup(
        np.array([1, 2]), np.array([0.05, 0.01]), 3, UniformDelays.iid(-10, 20, 3)
    )
    model = WorkingSetModel([g])
    grid = [model.p_requested(t) for t in (0.0, 0.5, 2.0, 5.0, 20.0, 80.0)]
    for lo, hi in zip(grid, grid[1:]):
        assert (hi >= lo).all()


def test_p_requested_quadrature_matches_monte_carlo():
    rates = np.array([0.05, 0.02])
    quad_g = ModelGroup(np.array([1, 2]), rates, 3, UniformDelays.iid(-10, 20, 3))
    mc_g = ModelGroup(np.array([1, 2]), rates, 3, iid_uniform_sampler(-10, 20, 3))
    m_quad = WorkingSetModel([quad_g])
    m_mc = WorkingSetModel([mc_g], mc_samples=400_000, mc_seed=2)
    for t in (1.0, 8.0, 25.0):
        assert np.allclose(m_quad.p_requested(t), m_mc.p_requested(t), atol=1e-3)


def test_joint_sampler_model_is_deterministic_in_seed():
    g1 = ModelGroup(np.array([1]), np.array([0.05]), 2, iid_uniform_sampler(0, 30, 2))
    g2 = ModelGroup(np.array([1]), np.array([0.05]), 2, iid_uniform_sampler(0, 30, 2))
    a = WorkingSetModel([g1], mc_samples=10_000, mc_seed=7)
    b = WorkingSetModel([g2], mc_samples=10_000, mc_seed=7)
    assert a.p_requested(5.0)[0] == b.p_requested(5.0)[0]


@st.composite
def model_groups(draw):
    """1-4 groups over a small shared id pool, one delay kind per group."""
    groups = []
    for _ in range(draw(st.integers(1, 4))):
        ids = draw(st.lists(st.integers(0, 11), min_size=1, max_size=8, unique=True))
        rates = draw(st.lists(st.floats(0.0, 5.0), min_size=len(ids), max_size=len(ids)))
        followers = draw(st.integers(0, 4))
        kind = draw(st.sampled_from(["structured", "fixed", "uniform", "iid", "joint"]))
        if followers == 0:
            delays = None
        elif kind == "structured":
            delays = StructuredDelays(draw(st.floats(0.1, 20.0)))
        elif kind == "fixed":
            # a small pool repeats values, and followers with equal delays
            # share one column
            value = st.sampled_from([-3.0, 0.0, 2.0, 6.5]) | st.floats(-10.0, 30.0)
            delays = FixedDelays(draw(st.lists(value, min_size=followers, max_size=followers)))
        elif kind == "uniform":
            los = draw(st.lists(st.floats(-10.0, 20.0), min_size=followers, max_size=followers))
            delays = UniformDelays(tuple((lo, lo + draw(st.floats(0.5, 15.0))) for lo in los))
        elif kind == "iid":
            lo = draw(st.floats(-10.0, 20.0))
            delays = UniformDelays.iid(lo, lo + draw(st.floats(0.5, 15.0)), followers)
        else:
            lo = draw(st.floats(-10.0, 20.0))
            delays = iid_uniform_sampler(lo, lo + draw(st.floats(0.5, 15.0)), followers)
        groups.append(ModelGroup(np.array(ids), np.array(rates), followers, delays))
    return groups


@settings(max_examples=60, deadline=None)
@given(
    groups=model_groups(),
    sizes=st.sampled_from(["none", "scalar", "mapping"]),
    t=st.sampled_from([0.0, 5e-324, 1e-9, 0.7, 6.0, 45.0, 1e12, 1e300]),
)
def test_p_requested_bitwise_equals_the_per_group_loop(groups, sizes, t):
    ids = np.unique(np.concatenate([g.object_ids for g in groups])).tolist()
    size_arg = {"none": None, "scalar": 2.5, "mapping": {o: 1.0 + o % 4 for o in ids}}[sizes]
    model = WorkingSetModel(groups, sizes=size_arg, mc_samples=64, mc_seed=3)
    ref = naive_p_requested(model, t)
    assert bits(model.p_requested(t)) == bits(ref)
    assert bits(model.expected_cached_volume(t)) == bits(naive_expected_cached_volume(model, t))


# ---------------------------------------------------------------------------
# characteristic-time solver
# ---------------------------------------------------------------------------


def irm_model(d=100, rate=0.01):
    return WorkingSetModel(
        [ModelGroup(np.arange(1, d + 1), np.full(d, rate), 0)]
    )


def test_solver_irm_closed_form_inversion():
    ct = irm_model().solve_characteristic_time(50.0)
    assert isinstance(ct, CharacteristicTime)
    assert ct.t_star == pytest.approx(100.0 * math.log(2.0), abs=1e-3)
    assert abs(ct.residual) <= 1e-6 * 50.0
    assert ct.rhs_value == pytest.approx(50.0, abs=1e-4)


def test_solver_small_capacity_gives_small_t():
    model = irm_model()
    assert model.solve_characteristic_time(1e-4).t_star < 1e-2
    t1 = model.solve_characteristic_time(10.0).t_star
    t2 = model.solve_characteristic_time(60.0).t_star
    assert 0 < t1 < t2


@pytest.mark.parametrize("capacity", [1e-4, 10.0, 50.0, 99.0])
def test_solver_evaluates_the_model_once_per_iteration_and_once_more(monkeypatch, capacity):
    model = irm_model()
    calls = []
    volume = model.expected_cached_volume
    monkeypatch.setattr(model, "expected_cached_volume", lambda t: calls.append(t) or volume(t))
    ct = model.solve_characteristic_time(capacity)
    # one evaluation per doubling and per bisection step, plus the one that
    # ends the bracketing
    assert len(calls) == ct.iterations + 1
    assert calls[-1] == ct.t_star and volume(ct.t_star) == ct.rhs_value
    with pytest.raises(ModelError, match="did not converge"):
        model.solve_characteristic_time(capacity, max_iter=0)


def test_solver_domain_errors():
    model = irm_model(d=10)
    with pytest.raises(ModelError, match="positive"):
        model.solve_characteristic_time(0.0)
    # NaN compares false with everything; it must not reach the bisection
    with pytest.raises(ModelError, match="positive"):
        model.solve_characteristic_time(float("nan"))
    with pytest.raises(ModelError, match="unbounded"):
        model.solve_characteristic_time(10.0)
    with pytest.raises(ModelError, match="unbounded"):
        model.solve_characteristic_time(11.0)


def test_expected_cached_volume_weighs_sizes():
    g = ModelGroup(np.array([1, 2]), np.array([0.1, 0.1]), 0)
    model = WorkingSetModel([g], sizes={1: 2.0, 2: 4.0})
    p = 1.0 - math.exp(-0.1 * 3.0)
    assert model.expected_cached_volume(3.0) == pytest.approx(6.0 * p, rel=1e-12)


# ---------------------------------------------------------------------------
# role hit probabilities
# ---------------------------------------------------------------------------


def test_leader_identity_for_structured_delays():
    g = ModelGroup(np.arange(1, 6), np.full(5, 0.2), 3, StructuredDelays(4.0))
    model = WorkingSetModel([g])
    for t in (1.0, 4.0, 9.0):
        assert np.array_equal(model.leader_hit_probs(t)[0], model.p_requested(t))


def test_follower_free_group_collapses_to_p():
    model = irm_model(d=5)
    t = 3.0
    assert np.array_equal(model.leader_hit_probs(t)[0], model.p_requested(t))
    assert model.follower_hit_probs(t)[0] == []


def test_structured_followers_below_step_get_certain_hits():
    g = ModelGroup(np.arange(1, 11), np.full(10, 0.5), 3, StructuredDelays(2.0))
    model = WorkingSetModel([g])
    vecs = model.follower_hit_probs(5.0)[0]  # t > step
    assert len(vecs) == 3
    for v in vecs:
        assert (v == 1.0).all()


def test_structured_followers_at_or_above_step_get_p():
    g = ModelGroup(np.arange(1, 11), np.full(10, 0.5), 3, StructuredDelays(6.0))
    model = WorkingSetModel([g])
    t = 4.0
    p = model.p_requested(t)
    for v in model.follower_hit_probs(t)[0]:
        assert np.array_equal(v, p)


def test_leader_factor_zero_when_a_fixed_delay_lands_in_window():
    g = ModelGroup(np.array([1]), np.array([0.1]), 1, FixedDelays((-2.0,)))
    model = WorkingSetModel([g])
    assert model.leader_hit_probs(5.0)[0][0] == 1.0  # follower echo always covers
    g2 = ModelGroup(np.array([1]), np.array([0.1]), 1, FixedDelays((-9.0,)))
    model2 = WorkingSetModel([g2])
    assert np.array_equal(model2.leader_hit_probs(5.0)[0], model2.p_requested(5.0))


def test_fixed_delay_follower_cases():
    # follower 1 at +2 inside the window: its request always hits
    g = ModelGroup(np.array([1]), np.array([0.1]), 2, FixedDelays((2.0, 9.0)))
    model = WorkingSetModel([g])
    f1, f2 = model.follower_hit_probs(5.0)[0]
    assert f1[0] == 1.0
    # follower 2 at +9 trails follower 1 by 7 > t: no free ride
    assert np.array_equal(f2, model.p_requested(5.0))
    # shrink the gap: follower 2 at +5 trails follower 1 by 3 <= t
    g2 = ModelGroup(np.array([1]), np.array([0.1]), 2, FixedDelays((2.0, 5.0)))
    assert WorkingSetModel([g2]).follower_hit_probs(5.0)[0][1][0] == 1.0


def test_iid_uniform_followers_share_one_column():
    g = ModelGroup(np.arange(1, 8), np.full(7, 0.1), 4, UniformDelays.iid(0, 60, 4))
    model = WorkingSetModel([g])
    vecs = model.follower_hit_probs(9.0)[0]
    assert len(vecs) == 4
    for v in vecs[1:]:
        assert np.array_equal(v, vecs[0])


def test_iid_uniform_group_computes_one_follower_factor(monkeypatch):
    g = ModelGroup(np.arange(1, 8), np.full(7, 0.1), 4, UniformDelays.iid(0, 60, 4))
    model = WorkingSetModel([g])
    capacity = 0.3 * model.total_volume()
    t_star = model.solve_characteristic_time(capacity).t_star
    want = naive_role_tables(model, t_star)[0][1]
    calls = []
    factor = model._follower_factor
    monkeypatch.setattr(
        model, "_follower_factor", lambda gi, i, t: calls.append(i) or factor(gi, i, t)
    )
    vecs = model.hit_report(capacity).groups[0].follower_list
    assert calls == [0]
    assert [bits(v) for v in vecs] == [bits(v) for v in want]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(vecs) for b in vecs[i + 1 :])


def test_follower_quadrature_matches_monte_carlo():
    rates = np.array([0.05, 0.02])
    quad_g = ModelGroup(np.array([1, 2]), rates, 3, UniformDelays.iid(-10, 20, 3))
    mc_g = ModelGroup(np.array([1, 2]), rates, 3, iid_uniform_sampler(-10, 20, 3))
    m_quad = WorkingSetModel([quad_g])
    m_mc = WorkingSetModel([mc_g], mc_samples=400_000, mc_seed=3)
    t = 8.0
    assert np.allclose(
        m_quad.leader_hit_probs(t)[0], m_mc.leader_hit_probs(t)[0], atol=2e-3
    )
    for vq, vm in zip(m_quad.follower_hit_probs(t)[0], m_mc.follower_hit_probs(t)[0]):
        assert np.allclose(vq, vm, atol=2e-3)


def test_all_probabilities_stay_in_unit_interval():
    g1 = ModelGroup(np.arange(1, 6), np.linspace(0.01, 0.4, 5), 3, UniformDelays.iid(-5, 15, 3))
    g2 = ModelGroup(np.arange(6, 11), np.full(5, 0.2), 2, StructuredDelays(3.0))
    model = WorkingSetModel([g1, g2])
    for t in (0.5, 3.0, 12.0):
        for vec in model.leader_hit_probs(t):
            assert ((vec >= 0) & (vec <= 1)).all()
        for group in model.follower_hit_probs(t):
            for vec in group:
                assert ((vec >= 0) & (vec <= 1)).all()


# ---------------------------------------------------------------------------
# hit report
# ---------------------------------------------------------------------------


def test_hit_report_table_layout():
    groups = [
        GroupSpec(1, 4, 2.0, 1.0, 2, StructuredDelays(3.0)),
        GroupSpec(5, 3, 1.0, 0.0, 0),
    ]
    model = WorkingSetModel.from_group_specs(groups)
    report = model.hit_report(capacity=3.0)
    assert 0.0 <= report.normalized_hit_rate <= 1.0
    assert report.t_star > 0 and abs(report.residual) <= 1e-6 * 3.0
    buf = io.StringIO()
    report.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("# capacity=") and lines[1].startswith("# t_star=")
    assert lines[4] == "group,client_role,follower_index,object,hit_prob"
    rows = lines[5:]
    assert len(rows) == 4 * (1 + 2) + 3 * (1 + 0)
    assert sum(1 for r in rows if ",leader,-," in r) == 7
    assert {r.split(",")[0] for r in rows} == {"0", "1"}


def test_hit_report_consistent_with_solver():
    model = irm_model()
    report = model.hit_report(30.0)
    ct = model.solve_characteristic_time(30.0)
    assert report.t_star == ct.t_star
    grp = report.groups[0]
    assert np.array_equal(grp.leader, model.p_requested(ct.t_star))
    assert report.normalized_hit_rate == pytest.approx(float(grp.leader.mean()), rel=1e-12)


def test_hit_report_bitwise_equals_the_per_group_loop(monkeypatch):
    preset = get_preset("grouped-4.1")
    fast, ref = preset.build_model(1.0), preset.build_model(1.0)
    monkeypatch.setattr(ref, "p_requested", lambda t: naive_p_requested(ref, t))
    monkeypatch.setattr(
        ref, "expected_cached_volume", lambda t: naive_expected_cached_volume(ref, t)
    )
    volume = fast.total_volume()
    for k in range(1, 65):
        got, want = fast.hit_report(k / 400 * volume), ref.hit_report(k / 400 * volume)
        for field in ("capacity", "t_star", "residual", "iterations", "normalized_hit_rate"):
            assert getattr(got, field) == getattr(want, field), (k, field)
        vectors = []
        for g, w in zip(got.groups, want.groups, strict=True):
            assert np.array_equal(g.leader, w.leader)
            assert len(g.follower_list) == len(w.follower_list)
            for gv, wv in zip(g.follower_list, w.follower_list):
                assert np.array_equal(gv, wv)
            vectors += [g.leader, *g.follower_list]
        # every table is its own array, as the per-group tables were
        assert not any(
            np.shares_memory(a, b) for i, a in enumerate(vectors) for b in vectors[i + 1 :]
        )


@settings(max_examples=40, deadline=None)
@given(
    groups=model_groups(),
    sizes=st.sampled_from(["none", "scalar", "mapping"]),
    frac=st.floats(0.05, 0.9),
)
def test_hit_report_bitwise_equals_the_naive_path(groups, sizes, frac):
    ids = np.unique(np.concatenate([g.object_ids for g in groups])).tolist()
    size_arg = {"none": None, "scalar": 2.5, "mapping": {o: 1.0 + o % 4 for o in ids}}[sizes]
    model = WorkingSetModel(groups, sizes=size_arg, mc_samples=64, mc_seed=3)
    ref = WorkingSetModel(groups, sizes=size_arg, mc_samples=64, mc_seed=3)
    ref.expected_cached_volume = lambda t: naive_expected_cached_volume(ref, t)
    capacity = frac * model.total_volume()
    try:
        ct = ref.solve_characteristic_time(capacity)
    except ModelError as exc:  # a catalog of zero rates never fills
        with pytest.raises(ModelError, match=str(exc)):
            model.hit_report(capacity)
        return
    report = model.hit_report(capacity)
    for field in ("t_star", "residual", "iterations"):
        assert bits(getattr(report, field)) == bits(getattr(ct, field)), field
    tables = naive_role_tables(ref, ct.t_star)
    assert bits(report.normalized_hit_rate) == bits(naive_normalized_rate(ref, tables))
    vectors = []
    for g, (leader, followers) in zip(report.groups, tables, strict=True):
        assert bits(g.leader) == bits(leader)
        assert [bits(v) for v in g.follower_list] == [bits(v) for v in followers]
        vectors += [g.leader, *g.follower_list]
    assert not any(
        np.shares_memory(a, b) for i, a in enumerate(vectors) for b in vectors[i + 1 :]
    )
    # the report's rate is the public aggregation of its own tables
    assert report.normalized_hit_rate == normalized_model_hit_rate(
        [(g.rates, g.followers) for g in report.groups],
        [(g.leader, list(g.follower_list)) for g in report.groups],
    )


def test_hit_report_evaluates_p_once_beyond_the_solve(monkeypatch):
    model = get_preset("grouped-4.1").build_model(0.2)
    calls = []
    p_requested = model.p_requested
    monkeypatch.setattr(model, "p_requested", lambda t: calls.append(t) or p_requested(t))
    capacity = 0.01 * model.total_volume()
    ct = model.solve_characteristic_time(capacity)
    solve_calls = len(calls)
    calls.clear()
    model.hit_report(capacity)
    assert len(calls) == solve_calls + 1 and calls[-1] == ct.t_star


# ---------------------------------------------------------------------------
# model-level trend checks (small-scale versions of the spread/count studies)
# ---------------------------------------------------------------------------


def spread_model(std, followers=4, d=60):
    half = std * math.sqrt(3.0)
    rates = 1.0 / np.arange(1, d + 1)
    rates /= rates.sum()
    g = ModelGroup(
        np.arange(1, d + 1), rates, followers, UniformDelays.iid(30 - half, 30 + half, followers)
    )
    return WorkingSetModel([g])


def follower_mean(model, capacity):
    report = model.hit_report(capacity)
    return np.mean(report.groups[0].follower_list, axis=0)


def test_follower_hit_prob_non_increasing_in_delay_spread():
    cap = 6.0
    cols = [follower_mean(spread_model(s), cap) for s in (5.0, 15.0, 25.0)]
    assert (cols[0] >= cols[1] - 1e-12).all()
    assert (cols[1] >= cols[2] - 1e-12).all()


def test_follower_hit_prob_non_decreasing_in_follower_count():
    d = 60
    rates = 1.0 / np.arange(1, d + 1)
    rates /= rates.sum()
    cols = []
    for f in (2, 4, 8):
        g = ModelGroup(np.arange(1, d + 1), rates, f, UniformDelays.iid(0, 60, f))
        cols.append(follower_mean(WorkingSetModel([g]), 6.0))
    assert (cols[1] >= cols[0] - 1e-12).all()
    assert (cols[2] >= cols[1] - 1e-12).all()


# ---------------------------------------------------------------------------
# model-rate aggregation
# ---------------------------------------------------------------------------


def test_normalized_model_rate_uniform_half():
    rates = np.array([0.6, 0.4])
    probs = np.array([0.5, 0.5])
    out = normalized_model_hit_rate([(rates, 1)], [(probs, [probs])])
    assert out == pytest.approx(0.5)


def test_normalized_model_rate_mixed_groups():
    g1 = (np.array([1.0]), 0)
    g2 = (np.array([1.0]), 1)
    hp1 = (np.array([1.0]), [])
    hp2 = (np.array([0.0]), [np.array([0.0])])
    # one always-hit leader-only group vs an always-miss pair group
    assert normalized_model_hit_rate([g1, g2], [hp1, hp2]) == pytest.approx(1 / 3)


def test_normalized_model_rate_errors():
    with pytest.raises(ValueError, match="follower"):
        normalized_model_hit_rate([(np.array([1.0]), 2)], [(np.array([0.5]), [])])
    with pytest.raises(ValueError, match="zero"):
        normalized_model_hit_rate([], [])
