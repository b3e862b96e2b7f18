"""Set-valued families: sampling, expectations, selections, moment series."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randset import mixing
from randset.geometry import (
    ball_cell,
    format_set_union,
    interval_cell,
    point_cell,
    point_union,
    ray_cell,
    support,
    union_of,
    vnorm,
)
from randset.mixing import (
    Law,
    alternating_driver,
    draw_at,
    fair_sign_driver,
    iid_driver,
    m_dependent_driver,
    markov_driver,
)
from randset.processes import (
    AXIS_RAY,
    SetProcessSpec,
    TargetNotInA,
    UnknownMoments,
    ball_process,
    clamped_mean,
    expectation,
    halo_point,
    needle_halo_process,
    ray_direction,
    ray_process,
    sample_set,
    segment_process,
    selection,
    selection_moment_series,
    support_moment_series,
    support_process,
    two_point_process,
)

MK = markov_driver([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5], [-1.0, 1.0])
ALT = alternating_driver(Law.uniform(0.9, 1.1), Law.normal(1.0, 0.1))
ASYM = markov_driver([[0.9, 0.1], [0.3, 0.7]], [0.75, 0.25], [-1.0, 3.0])


def reference_set(spec, n, seed):
    """X_n built on its own from draw_at or halo_point, one index at a time."""
    if spec.family == "needle_halo":
        return union_of([AXIS_RAY, point_cell(halo_point(n, seed))])
    x = draw_at(spec.driver if spec.driver is not None else fair_sign_driver(), n, seed)
    if spec.family == "segment":
        return union_of([interval_cell(x, x + 1.0)])
    if spec.family == "two_point":
        return point_union([(x,), (x + 1.0,)])
    if spec.family == "random_ball":
        return union_of([ball_cell((0.0, 0.0), max(0.0, x))])
    return union_of([ray_cell((0.0, 0.0), (math.cos(x / n), math.sin(x / n)))])


# ---------------------------------------------------------------------------
# sampling


def test_segment_sample_shape():
    spec = segment_process(MK)
    x = draw_at(MK, 5, 3)
    assert sample_set(spec, 5, 3) == union_of([interval_cell(x, x + 1.0)])


def test_two_point_sample_shape():
    spec = two_point_process(MK)
    x = draw_at(MK, 9, 2)
    assert sample_set(spec, 9, 2) == point_union([(x,), (x + 1.0,)])


def test_ball_sample_shape():
    spec = ball_process(ALT)
    r = draw_at(ALT, 4, 1)
    assert sample_set(spec, 4, 1) == union_of([ball_cell((0.0, 0.0), r)])


def test_needle_halo_sample_shape():
    spec = needle_halo_process()
    z = halo_point(7, 1)
    assert vnorm(z) <= 1.0 / 7
    assert sample_set(spec, 7, 1) == union_of([AXIS_RAY, point_cell(z)])


def test_ray_sample_is_unit_ray():
    spec = ray_process()
    s = sample_set(spec, 3, 4)
    (cell,) = s.cells
    (g,) = cell.cone.generators
    assert vnorm(g) == pytest.approx(1.0, abs=1e-15)
    assert abs(g[1]) == pytest.approx(math.sin(1 / 3), abs=1e-15)


# drivers of each kind: iid, alternating and asymmetric Markov, for the scalar
# families (with draws below 0 for the ball's clamp) and for the ray's signs
SCALAR_DRIVERS = (iid_driver(Law.normal(0.5, 1.0)), ALT, ASYM)
SIGN_DRIVERS = (
    None,
    alternating_driver(Law.fair_signs(), Law.choice((-1.0, 1.0), (0.5, 0.5))),
    markov_driver([[0.9, 0.1], [0.3, 0.7]], [0.75, 0.25], [-1.0, 1.0]),
)
SPECS = [f(d) for f in (segment_process, two_point_process, ball_process) for d in SCALAR_DRIVERS]
SPECS += [needle_halo_process()] + [ray_process(d) for d in SIGN_DRIVERS]
DIRECTIONS = {1: [(1.0,), (-1.0,), (0.0,)], 2: [(1.0, 0.0), (-0.6, 0.8), (0.0, -1.0), (0.3, 0.2)]}


@st.composite
def index_lists(draw):
    """A range, a descending list or a gapped list, from a start in 1..3,000
    that may sit on either side of a kept-state stride (1,024)."""
    start = draw(st.sampled_from([1, 2, 1023, 1024, 1025, 2049]) | st.integers(1, 3000))
    length = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["range", "descending", "gapped"]))
    if kind == "range":
        return range(start, start + length)
    if kind == "descending":
        return list(range(start + length - 1, start - 1, -1))
    return draw(st.lists(st.integers(start, start + 3 * length), min_size=1, max_size=length))


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(SPECS), seed=st.integers(0, 2**32), ns=index_lists(), data=st.data())
def test_range_form_matches_per_index_reference(spec, seed, ns, data):
    x_star = data.draw(st.sampled_from(DIRECTIONS[spec.dimension]))
    refs = {n: reference_set(spec, n, seed) for n in ns}
    for n in ns:
        assert repr(sample_set(spec, n, seed)) == repr(refs[n])
    want = [support(x_star, refs[n]) for n in ns]
    assert repr(support_process(spec, x_star, ns, seed)) == repr(want)


def count_driver_draws(monkeypatch):
    counted = [0]
    original = mixing.uniform_block

    def counting(seed, stream, start, count):
        if stream == mixing.STREAM_DRIVER:
            counted[0] += count
        return original(seed, stream, start, count)

    monkeypatch.setattr(mixing, "uniform_block", counting)
    return counted


def test_markov_support_process_scans_the_driver_once(monkeypatch):
    mixing._kept_chain.cache_clear()
    counted = count_driver_draws(monkeypatch)
    support_process(segment_process(ASYM), (1.0,), range(1, 20_001), 2)
    # one scan, plus at most one stride before the first index; a scan per
    # index from the nearest kept state drew 10,118,896
    assert counted[0] <= 20_000 + mixing._STRIDE


def test_sampling_is_deterministic():
    spec = needle_halo_process()
    assert sample_set(spec, 11, 9) == sample_set(spec, 11, 9)
    assert sample_set(spec, 11, 9) != sample_set(spec, 11, 10)


def test_family_validation():
    with pytest.raises(UnknownMoments):
        SetProcessSpec(family="segment")
    with pytest.raises(ValueError):
        SetProcessSpec(family="needle_halo", driver=MK)
    with pytest.raises(ValueError):
        SetProcessSpec(family="random_ray", driver=iid_driver(Law.uniform(0, 1)))
    with pytest.raises(ValueError):
        SetProcessSpec(family="banana")


# ---------------------------------------------------------------------------
# expectations and weak stationarity


def test_segment_expectation():
    e = expectation(segment_process(MK))
    assert e.claimed == union_of([interval_cell(0.0, 1.0)])  # mean is 0
    assert e.convexified == e.claimed and e.family_constant


def test_two_point_expectation_claimed_vs_convexified():
    e = expectation(two_point_process(MK))
    assert e.claimed == point_union([(0.0,), (1.0,)])
    assert e.convexified == union_of([interval_cell(0.0, 1.0)])


def test_ball_expectation_unit_radius():
    e = expectation(ball_process(ALT))
    assert e.claimed == union_of([ball_cell((0.0, 0.0), 1.0)])
    assert e.family_constant


def test_ball_expectation_is_the_clamped_mean_radius():
    z = 0.2 / 0.5
    closed = 0.2 * 0.5 * math.erfc(-z / math.sqrt(2.0)) + 0.5 * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    radius = expectation(ball_process(iid_driver(Law.normal(0.2, 0.5)))).claimed.cells[0].base.radius
    assert radius == pytest.approx(closed, abs=1e-15)
    # E[max(0, r)] in closed form: uniform, choice, Markov emissions, alternating
    assert clamped_mean(iid_driver(Law.uniform(-1.0, 3.0))) == 9.0 / 8.0
    assert clamped_mean(iid_driver(Law.choice([-3.0, 1.0, 2.0]))) == 1.0
    assert clamped_mean(markov_driver([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5], [-1.0, 3.0])) == 1.5
    assert clamped_mean(alternating_driver(Law.uniform(-1.0, 3.0), Law.constant(1.0))) == 0.5 * (9.0 / 8.0 + 1.0)
    # no value below 0: the driver mean itself, bit for bit
    for d in (ALT, m_dependent_driver(2, Law.uniform(0.5, 3.0)), iid_driver(Law.normal(40.0, 1.0))):
        assert clamped_mean(d) == d.mean
    # an average of 3 normals is N(mu, sd / sqrt(3))
    sd = 1.0 / math.sqrt(3.0)
    assert clamped_mean(m_dependent_driver(2, Law.normal(0.0, 1.0))) == pytest.approx(sd / math.sqrt(2.0 * math.pi))


def test_ball_refuses_an_m_dependent_average_below_zero():
    with pytest.raises(UnknownMoments):
        ball_process(m_dependent_driver(2, Law.uniform(-1.0, 3.0)))


def test_unbounded_families_use_axis_ray():
    for spec in (needle_halo_process(), ray_process()):
        e = expectation(spec)
        assert e.claimed == union_of([AXIS_RAY]) == e.convexified


def test_weak_stationarity_across_parities():
    # expectations are index-free: compare the analytic moments that feed them
    assert ALT.law.mean == ALT.law_odd.mean
    for spec in (segment_process(MK), two_point_process(MK), ball_process(ALT)):
        assert expectation(spec).family_constant


# ---------------------------------------------------------------------------
# support processes


def test_segment_support_process_values():
    spec = segment_process(MK)
    xs = [draw_at(MK, n, 5) for n in range(1, 8)]
    up = support_process(spec, (1.0,), range(1, 8), 5)
    dn = support_process(spec, (-1.0,), range(1, 8), 5)
    assert up == pytest.approx([x + 1.0 for x in xs], abs=1e-15)
    assert dn == pytest.approx([-x for x in xs], abs=1e-15)


def test_ray_support_process_flags_infinities():
    spec = ray_process()
    vals = support_process(spec, (0.0, 1.0), range(1, 40), 8)
    signs = [ray_direction(spec, n, 8)[1] > 0 for n in range(1, 40)]
    for v, pos in zip(vals, signs):
        assert (v == math.inf) == pos
        if not pos:
            assert v == 0.0


def test_remark_support_mean_bridge():
    # E s(x*, X_n) = s(x*, E X_n) for the bounded families, checked empirically
    spec = segment_process(MK)
    e = expectation(spec)
    for x_star in ((1.0,), (-1.0,)):
        vals = support_process(spec, x_star, range(1, 4001), 3)
        assert np.mean(vals) == pytest.approx(support(x_star, e.convexified), abs=0.15)


# ---------------------------------------------------------------------------
# selections


def test_needle_constant_selection():
    spec = needle_halo_process()
    for n in (1, 10, 500):
        assert selection(spec, (2.5, 0.0), n, 1) == (2.5, 0.0)


def test_ray_selection_membership_and_norm_identity():
    spec = ray_process()
    a = 2.0
    for n in range(1, 200):
        s = selection(spec, (a, 0.0), n, 6)
        v = ray_direction(spec, n, 6)
        assert abs(s[0] * v[1] - s[1] * v[0]) <= 1e-12  # collinear
        assert s[0] * v[0] + s[1] * v[1] >= 0  # forward along the ray
        want = (a * math.tan(1.0 / n)) ** 2
        got = (s[0] - a) ** 2 + s[1] ** 2
        assert abs(got - want) <= 1e-12


def test_ray_selection_two_outcomes_average_to_target():
    a = 1.5
    n = 7
    t = a / math.cos(1.0 / n)
    up = (t * math.cos(1.0 / n), t * math.sin(1.0 / n))
    dn = (t * math.cos(1.0 / n), -t * math.sin(1.0 / n))
    assert (up[0] + dn[0]) / 2 == pytest.approx(a, abs=1e-15)
    assert (up[1] + dn[1]) / 2 == 0.0


def test_segment_selection_membership_and_mean():
    spec = segment_process(MK)
    tgt = (0.75,)
    sel = [selection(spec, tgt, n, 2)[0] for n in range(1, 20001)]
    xs = [draw_at(MK, n, 2) for n in range(1, 20001)]
    assert all(x <= s <= x + 1.0 for s, x in zip(sel, xs))
    # 4 sigma_eff / sqrt(N): the Markov chain inflates variance ninefold
    assert np.mean(sel) == pytest.approx(0.75, abs=4 * 3.0 / math.sqrt(20000))


def test_halo_point_selection_averages_to_origin():
    spec = needle_halo_process()
    pts = np.array([selection(spec, (0.0, 0.0), n, s, rule="halo_point") for n in (1, 2) for s in range(2000)])
    assert np.abs(pts.mean(axis=0)).max() < 0.02


def test_selection_rejects_targets_outside():
    with pytest.raises(TargetNotInA):
        selection(ray_process(), (0.0, 1.0), 3, 1)
    with pytest.raises(TargetNotInA):
        selection(segment_process(MK), (5.0,), 3, 1)
    with pytest.raises(TargetNotInA):
        selection(two_point_process(MK), (0.5,), 3, 1)
    with pytest.raises(TargetNotInA):
        selection(needle_halo_process(), (1.0, 0.0), 3, 1, rule="halo_point")
    with pytest.raises(ValueError):
        selection(ball_process(ALT), (0.0, 0.0), 3, 1)


# ---------------------------------------------------------------------------
# second-moment series


def test_selection_series_segment_closed_form():
    total, formula = selection_moment_series(segment_process(MK), (0.5,), 500)
    want = MK.variance_at(1) * math.fsum(1.0 / n**2 for n in range(1, 501))
    assert total == pytest.approx(want, abs=1e-12)
    assert "var" in formula


def test_selection_series_needle_zero_and_quartic():
    spec = needle_halo_process()
    assert selection_moment_series(spec, (3.0, 0.0), 100) == (0.0, "0 (constant selection)")
    total, _ = selection_moment_series(spec, (0.0, 0.0), 100, rule="halo_point")
    assert total <= math.fsum(1.0 / n**4 for n in range(1, 101))
    assert total == pytest.approx(0.5 * math.fsum(1.0 / n**4 for n in range(1, 101)), abs=1e-15)


def test_selection_series_ray_tangent_terms():
    a = 2.0
    total, formula = selection_moment_series(ray_process(), (a, 0.0), 50)
    want = math.fsum((a * math.tan(1.0 / n)) ** 2 / n**2 for n in range(1, 51))
    assert total == pytest.approx(want, abs=1e-12)
    assert "tan" in formula
    # tails behave like a^2/n^4: doubling the horizon barely moves the sum
    total2, _ = selection_moment_series(ray_process(), (a, 0.0), 100)
    assert total2 - total <= a**2 * math.fsum(1.0 / n**4 for n in range(51, 101)) * 2.0


def test_support_series_segment_sigma_over_n2():
    res = support_moment_series(segment_process(MK), (1.0,), 300)
    want = MK.variance_at(1) * math.fsum(1.0 / n**2 for n in range(1, 301))
    assert res.partial_sum == pytest.approx(want, abs=1e-12)
    assert not res.vacuous and res.infinite_term_at is None


def test_support_series_needle_quartic_bound():
    res = support_moment_series(needle_halo_process(), (-0.6, 0.8), 200)
    assert res.partial_sum <= math.fsum(1.0 / n**4 for n in range(1, 201))
    # exact constant: E max(<x*, eps>, 0)^2 = |x*|^2 / 8 on the unit disk
    assert res.partial_sum == pytest.approx((1.0 / 8.0) * math.fsum(1.0 / n**4 for n in range(1, 201)), abs=1e-12)


def test_support_series_needle_monte_carlo_constant():
    # Monte Carlo check of the 1/8 disk constant used by the analytic series
    rs = np.random.default_rng(0).uniform(-1, 1, size=(200000, 2))
    disk = rs[(rs**2).sum(axis=1) <= 1.0]
    proj = disk @ np.array([-0.6, 0.8])
    emp = np.mean(np.maximum(proj, 0.0) ** 2)
    assert emp == pytest.approx(1.0 / 8.0, abs=0.005)


def test_support_series_ray_infinite_at_one():
    res = support_moment_series(ray_process(), (0.0, 1.0), 50)
    assert res.partial_sum == math.inf and res.infinite_term_at == 1 and not res.vacuous


def test_support_series_ray_vacuous_direction():
    res = support_moment_series(ray_process(), (1.0, 0.0), 50)
    assert res.vacuous and res.partial_sum is None


def test_support_series_ray_safe_direction():
    res = support_moment_series(ray_process(), (-1.0, 0.0), 50)
    assert res.partial_sum == 0.0 and res.infinite_term_at is None
