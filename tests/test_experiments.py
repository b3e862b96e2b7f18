"""Trajectories, exact expansions, certificates, and K-M diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from randset import experiments, geometry, processes
from randset.cli import parse_config, run_config
from randset.experiments import (
    ProbeOutsideD,
    Trajectory,
    UnboundedFamily,
    cone_tracking,
    exact_cell_expansion,
    halo_certificate,
    halo_certificates,
    harmonic_halo_radius,
    lattice_interval_hausdorff,
    lattice_two_point_hausdorff,
    run_hausdorff_slln,
    run_km_diagnostics,
    slln_hypotheses_report,
    trajectory_csv,
)
from randset.geometry import (
    CellBudgetExceeded,
    Cone,
    format_set_union,
    hausdorff,
    hausdorff_windowed,
    interval_cell,
    minkowski_sum,
    point_to_cell_distance,
    point_union,
    recession_cone,
    scale,
    union_of,
    vnorm,
)
from randset.mixing import Law, alternating_driver, checkpoint_means, draw_sequence, iid_driver, markov_driver
from randset.processes import (
    AXIS_RAY,
    ball_process,
    needle_halo_process,
    ray_direction,
    ray_process,
    sample_set,
    segment_process,
    two_point_process,
)

MK = markov_driver([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5], [-1.0, 1.0])
ALT = alternating_driver(Law.uniform(0.9, 1.1), Law.normal(1.0, 0.1))
CPS = [10, 50, 200, 1000]


# ---------------------------------------------------------------------------
# Hausdorff trajectories


def test_segment_trajectory_is_abs_mean():
    traj = run_hausdorff_slln(segment_process(MK), "coA", 1000, CPS, 3)
    means = checkpoint_means(MK, 1000, CPS, 3)
    assert traj.values == tuple(abs(m) for m in means)


def test_two_point_trajectory_bounds_and_equality():
    traj = run_hausdorff_slln(two_point_process(MK), "coA", 1000, CPS, 3)
    means = checkpoint_means(MK, 1000, CPS, 3)
    for cp, v, m in zip(CPS, traj.values, means):
        assert abs(m) - 1e-15 <= v <= abs(m) + 0.5 / cp + 1e-15
        if abs(m) >= 0.5 / cp:
            # the lattice distance collapses to the convexified one
            assert v == pytest.approx(abs(m), abs=1e-15)


def test_ball_trajectory_is_radius_gap():
    traj = run_hausdorff_slln(ball_process(ALT), "coA", 1000, CPS, 1)
    means = checkpoint_means(ALT, 1000, CPS, 1)
    assert traj.values == tuple(abs(m - 1.0) for m in means)


def test_ball_trajectory_averages_the_clamped_radii():
    # N(0.2, 0.5) is below 0 for 34% of draws, and sample_set clamps those radii at 0
    driver = iid_driver(Law.normal(0.2, 0.5))
    z = 0.2 / 0.5
    closed = 0.2 * 0.5 * math.erfc(-z / math.sqrt(2.0)) + 0.5 * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    cps = [10, 100, 1000, 2000]
    radii = np.maximum(draw_sequence(driver, 2000, 1), 0.0)
    traj = run_hausdorff_slln(ball_process(driver), "coA", 2000, cps, 1)
    for cp, v in zip(cps, traj.values):
        assert type(v) is float
        assert abs(v - abs(float(radii[:cp].mean()) - closed)) <= 1e-12
    rep = run_km_diagnostics(ball_process(driver), [(0.0, 0.0)], 5.0, 2000, cps, 1)
    for cp, e in zip(cps, rep.excess):
        assert abs(e - max(0.0, float(radii[:cp].mean()) - closed)) <= 1e-12


def test_unbounded_families_rejected():
    for spec in (needle_halo_process(), ray_process()):
        with pytest.raises(UnboundedFamily):
            run_hausdorff_slln(spec, "coA", 100, [100], 1)


def test_trajectory_csv_schema():
    trajs = [run_hausdorff_slln(segment_process(MK), "coA", 100, [10, 100], s) for s in (1, 2)]
    csv = trajectory_csv(trajs)
    lines = csv.strip().split("\n")
    assert lines[0] == "metric,seed,n,value"
    assert len(lines) == 1 + 4


def test_lattice_closed_form_matches_brute_force():
    # the closed form against the generic d=1 union machinery
    for seed in range(5):
        means = checkpoint_means(MK, 1000, [7, 64, 501, 1000], seed)
        for cp, m in zip([7, 64, 501, 1000], means):
            lat = point_union([(m + i / cp,) for i in range(cp + 1)])
            brute = hausdorff(lat, union_of([interval_cell(0.0, 1.0)]))
            assert lattice_interval_hausdorff(m, cp) == pytest.approx(brute, abs=1e-12)
            brute2 = hausdorff(lat, point_union([(0.0,), (1.0,)]))
            assert lattice_two_point_hausdorff(m, cp) == pytest.approx(brute2, abs=1e-12)


# ---------------------------------------------------------------------------
# exact expansion


def test_needle_expansion_cell_count_is_2_to_n():
    for n in (1, 2, 5, 8):
        sn = exact_cell_expansion(needle_halo_process(), n, 3)
        assert len(sn.cells) == 2**n


def test_needle_expansion_small_cases():
    spec = needle_halo_process()
    s1 = exact_cell_expansion(spec, 1, 7)
    assert len(s1.cells) == 2 and AXIS_RAY in s1.cells
    s2 = exact_cell_expansion(spec, 2, 7)
    # translated copies of the ray for every proper subset, one point cell
    ray_cells = [c for c in s2.cells if not c.cone.is_trivial]
    pt_cells = [c for c in s2.cells if c.cone.is_trivial]
    assert len(ray_cells) == 3 and len(pt_cells) == 1


def test_ray_expansion_single_sector():
    spec = ray_process()
    sn = exact_cell_expansion(spec, 9, 2)
    assert len(sn.cells) == 1
    gens = sn.cells[0].cone.generators
    tilts = [math.copysign(1 / n, ray_direction(spec, n, 2)[1]) for n in range(1, 10)]
    hi, lo = max(tilts), min(tilts)
    expect = {(math.cos(hi), math.sin(hi)), (math.cos(lo), math.sin(lo))}
    assert set(gens) == expect


def test_expansion_budget():
    with pytest.raises(CellBudgetExceeded):
        exact_cell_expansion(needle_halo_process(), 25, 1, cell_budget=500)


def test_incremental_matches_expansion_small_n():
    # the closed forms agree with the generic cell engine at small n
    for seed in (1, 2):
        for n in (2, 5, 10):
            seg = run_hausdorff_slln(segment_process(MK), "coA", n, [n], seed).values[0]
            sn = exact_cell_expansion(segment_process(MK), n, seed)
            assert seg == pytest.approx(
                hausdorff(sn, union_of([interval_cell(0.0, 1.0)])), abs=1e-12
            )
            tp = run_hausdorff_slln(two_point_process(MK), "coA", n, [n], seed).values[0]
            sn2 = exact_cell_expansion(two_point_process(MK), n, seed)
            assert tp == pytest.approx(
                hausdorff(sn2, union_of([interval_cell(0.0, 1.0)])), abs=1e-12
            )
            bl = run_hausdorff_slln(ball_process(ALT), "coA", n, [n], seed).values[0]
            sn3 = exact_cell_expansion(ball_process(ALT), n, seed)
            from randset.geometry import ball_cell

            assert bl == pytest.approx(
                hausdorff(sn3, union_of([ball_cell((0.0, 0.0), 1.0)])), abs=1e-12
            )
    # unbounded families compare on a window
    for seed in (1, 2):
        for n in (2, 6):
            sn = exact_cell_expansion(needle_halo_process(), n, seed)
            rebuilt = sample_set(needle_halo_process(), 1, seed)
            for k in range(2, n + 1):
                rebuilt = minkowski_sum(rebuilt, sample_set(needle_halo_process(), k, seed))
            assert hausdorff_windowed(sn, scale(1.0 / n, rebuilt), 4.0) == 0.0


# ---------------------------------------------------------------------------
# one-pass prefixes against the per-index fold of the generic cell engine

MK_ASYM = markov_driver([[0.7, 0.3], [0.1, 0.9]], [0.25, 0.75], [-0.5, 1.25])
EXPANSION_CASES = {
    "two_point_iid_normal": (two_point_process(iid_driver(Law.normal(0.3, 1.0))), 25),
    "two_point_markov_asym": (two_point_process(MK_ASYM), 25),
    "segment": (segment_process(ALT), 10),
    "random_ball": (ball_process(ALT), 10),
    "needle_halo": (needle_halo_process(), 10),
    "random_ray": (ray_process(), 10),
    "random_ray_markov": (ray_process(markov_driver([[0.6, 0.4], [0.2, 0.8]], [1 / 3, 2 / 3], [-1.0, 1.0])), 10),
}


def reference_expansion(spec, n, seed):
    total = sample_set(spec, 1, seed)
    for k in range(2, n + 1):
        total = minkowski_sum(total, sample_set(spec, k, seed))
    return scale(1.0 / n, total)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(EXPANSION_CASES)).flatmap(
    lambda name: st.tuples(st.just(EXPANSION_CASES[name][0]), st.integers(1, EXPANSION_CASES[name][1]))),
    st.integers(0, 2**31))
@example(case=EXPANSION_CASES["two_point_iid_normal"], seed=1)  # at n = 25, lattice points 1e-16 apart
@example(case=EXPANSION_CASES["two_point_markov_asym"], seed=1)
@example(case=EXPANSION_CASES["needle_halo"], seed=2)
def test_expansion_matches_the_per_index_fold(case, seed):
    spec, n = case
    assert repr(exact_cell_expansion(spec, n, seed)) == repr(reference_expansion(spec, n, seed))


def reference_halo_certificate(spec, n, seed):
    sn = reference_expansion(spec, n, seed)
    r_n = harmonic_halo_radius(n)
    offsets = [
        point_to_cell_distance(c.base.vertices[0], AXIS_RAY) if c.cone.is_trivial else vnorm(c.base.vertices[0])
        for c in sn.cells
    ]
    return AXIS_RAY in sn.cells, max(offsets) <= r_n, r_n


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2**31))
def test_one_pass_halo_and_km_rows_match_the_per_n_reference(n_max, seed):
    spec = needle_halo_process()
    want = [reference_halo_certificate(spec, n, seed) for n in range(1, n_max + 1)]
    assert halo_certificates(spec, n_max, seed) == want
    assert halo_certificate(spec, n_max, seed) == want[-1]
    probes = [(0.0, 0.0), (0.25, 0.0), (1.0, 0.0)]
    checkpoints = list(range(1, n_max + 1)) + [20]
    rep = run_km_diagnostics(spec, probes, 5.0, 20, checkpoints, seed)
    exact = [reference_expansion(spec, cp, seed) for cp in checkpoints[:-1]]
    want_rows = [[min(point_to_cell_distance(p, c) for c in sn.cells) for sn in exact] + [0.0] for p in probes]
    want_excess = [max(point_to_cell_distance(c.base.vertices[0], AXIS_RAY) for c in sn.cells) for sn in exact]
    assert repr(rep.probe_distances) == repr(tuple(tuple(r) for r in want_rows))
    assert repr(rep.excess) == repr(tuple(want_excess + [harmonic_halo_radius(20)]))


def test_run_halo_draws_each_halo_point_once_per_seed(monkeypatch, tmp_path):
    calls = []

    original = processes.halo_point

    def counting(n, seed):
        calls.append((n, seed))
        return original(n, seed)

    monkeypatch.setattr(processes, "halo_point", counting)
    cfg = parse_config({"experiment": "halo_certificate", "family": "needle_halo", "n_max": 12, "seeds": [1, 2]})
    assert run_config(cfg, tmp_path)[0] == 0
    assert sorted(calls) == [(n, s) for n in range(1, 13) for s in (1, 2)]  # 24; 78 per seed when rebuilt per n


def test_exact_cell_expansion_scales_only_the_last_prefix(monkeypatch):
    want = repr(exact_cell_expansion(segment_process(MK), 50, 3))
    lams = []

    def counting(lam, a):
        lams.append(lam)
        return scale(lam, a)

    monkeypatch.setattr(experiments, "scale", counting)
    assert repr(exact_cell_expansion(segment_process(MK), 50, 3)) == want
    assert lams == [1.0 / 50]  # one scale per prefix called it 50 times


@pytest.mark.parametrize("spec", [needle_halo_process(), two_point_process(MK_ASYM), ray_process()],
                         ids=["needle_halo", "two_point", "random_ray"])
def test_expansion_to_cells_file_builds_no_cell_objects(spec, monkeypatch):
    made = []
    real = geometry.ConvexCell

    def counting(*args, **kwargs):
        made.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(geometry, "ConvexCell", counting)
    sn = exact_cell_expansion(spec, 8, 1)
    assert format_set_union(sn) and sn.cell_count >= 1
    assert made == []


# ---------------------------------------------------------------------------
# halo certificates


def test_halo_certificate_exact_over_seeds():
    spec = needle_halo_process()
    for seed in range(1, 6):
        for n in (1, 4, 9, 12):
            a_in, in_halo, r_n = halo_certificate(spec, n, seed)
            assert a_in and in_halo
            assert r_n == pytest.approx(math.fsum(1.0 / i for i in range(1, n + 1)) / n, abs=0.0)
    with pytest.raises(ValueError, match="1-based"):
        halo_certificate(spec, 0, 1)


def test_halo_radius_values():
    assert harmonic_halo_radius(1) == 1.0
    assert harmonic_halo_radius(8) == pytest.approx((761 / 280) / 8, abs=1e-15)
    assert harmonic_halo_radius(8) == pytest.approx(0.33973214285714287, abs=1e-15)


def test_halo_windowed_distance_below_radius():
    spec = needle_halo_process()
    sn = exact_cell_expansion(spec, 8, 1)
    h = hausdorff_windowed(sn, union_of([AXIS_RAY]), 5.0)
    assert h <= harmonic_halo_radius(8)


def test_halo_recession_cone_is_axis_ray():
    spec = needle_halo_process()
    for n in (3, 6, 10):
        sn = exact_cell_expansion(spec, n, 2)
        assert recession_cone(sn) == Cone.from_generators(2, [(1.0, 0.0)])


# ---------------------------------------------------------------------------
# cone tracking


def test_cone_tracking_emits_certificate():
    rep = cone_tracking(ray_process(), 100, 5)
    assert rep.verdict == "fails_with_certificate"
    cert = rep.certificate
    assert cert.opening_angle == pytest.approx(1.0 / cert.k_plus + 1.0 / cert.k_minus, abs=1e-15)
    assert cert.witness_distance == pytest.approx(math.sin(1.0 / cert.k_plus), abs=1e-15)
    assert cert.witness == (math.cos(1.0 / cert.k_plus), math.sin(1.0 / cert.k_plus))
    # first indices really are the first signs of each kind
    tilts = [ray_direction(ray_process(), n, 5)[1] for n in range(1, 101)]
    assert cert.k_plus == next(i for i, t in enumerate(tilts, 1) if t > 0)
    assert cert.k_minus == next(i for i, t in enumerate(tilts, 1) if t < 0)


def test_cone_tracking_witness_persists_in_expansion():
    rep = cone_tracking(ray_process(), 60, 9)
    cert = rep.certificate
    n0 = max(cert.k_plus, cert.k_minus)
    for n in range(n0, min(n0 + 5, 12)):
        sn = exact_cell_expansion(ray_process(), n, 9)
        from randset.geometry import cone_contains

        assert cone_contains(sn.cells[0].cone, cert.witness)


def test_cone_tracking_one_sided_reports_no_mixed_signs():
    spec = ray_process(iid_driver(Law.constant(1.0)))
    rep = cone_tracking(spec, 50, 1)
    assert rep.verdict == "no_mixed_signs" and rep.certificate is None


def test_cone_tracking_example_certificate():
    # a seed whose first two tilts have opposite signs yields opening 1 + 1/2
    for seed in range(50):
        t1 = ray_direction(ray_process(), 1, seed)[1]
        t2 = ray_direction(ray_process(), 2, seed)[1]
        if t1 > 0 and t2 < 0:
            rep = cone_tracking(ray_process(), 10, seed)
            assert rep.certificate.opening_angle == pytest.approx(1.5, abs=1e-15)
            return
    pytest.skip("no seed below 50 opened with +1, -1/2")


# ---------------------------------------------------------------------------
# K-M diagnostics


def test_km_needle_converges_with_halo_bounds():
    rep = run_km_diagnostics(
        needle_halo_process(), [(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)], 5.0, 10_000,
        [10, 100, 1000, 10_000], 3, tolerance=0.05,
    )
    assert rep.verdict == "converges_evidence"
    for cp, ex in zip(rep.checkpoints, rep.excess):
        assert ex <= harmonic_halo_radius(cp) + 1e-12
    assert all(d == 0.0 for row in rep.probe_distances for d in row)


def test_km_ray_fails_with_certificate():
    rep = run_km_diagnostics(ray_process(), [(0.0, 0.0), (1.0, 0.0)], 5.0, 1000, [10, 1000], 3)
    assert rep.verdict == "fails_with_certificate"
    assert rep.certificate is not None
    assert min(rep.excess) >= 5.0 * math.sin(1.0 / 1000)


def test_km_ray_draws_the_signs_once_per_seed(monkeypatch):
    calls = []

    original = processes._draw_block

    def counting(driver, seed, start, count):
        calls.append(seed)
        return original(driver, seed, start, count)

    monkeypatch.setattr(processes, "_draw_block", counting)
    for seed in (3, 4):
        run_km_diagnostics(ray_process(), [(0.0, 0.0), (1.0, 0.0)], 5.0, 1000, [10, 1000], seed)
    assert calls == [3, 4]


def test_km_origin_probe_identically_zero():
    rep = run_km_diagnostics(segment_process(MK), [(0.0,)], 5.0, 1000, [10, 1000], 1)
    i = rep.probes.index((0.0,))
    means = checkpoint_means(MK, 1000, [10, 1000], 1)
    for d, m in zip(rep.probe_distances[i], means):
        assert d == max(m - 0.0, 0.0 - m - 1.0, 0.0)


def test_km_probe_outside_target_rejected():
    with pytest.raises(ProbeOutsideD):
        run_km_diagnostics(needle_halo_process(), [(0.0, 1.0)], 5.0, 100, [100], 1)


@pytest.mark.parametrize("spec, probe", [
    (needle_halo_process(), (0.0, 0.0)), (ray_process(), (0.0, 0.0)), (segment_process(MK), (0.0,)),
])
def test_km_checkpoints_below_one_rejected(spec, probe):
    with pytest.raises(ValueError, match="within 1..n_max"):
        run_km_diagnostics(spec, [probe], 5.0, 50, [0, 50], 1)


def test_km_window_must_cover_probes():
    with pytest.raises(ValueError):
        run_km_diagnostics(needle_halo_process(), [(3.0, 0.0)], 2.0, 100, [100], 1)


# ---------------------------------------------------------------------------
# hypotheses reports


def test_needle_hypotheses_hold():
    rep = slln_hypotheses_report(
        needle_halo_process(),
        targets=[(0.0, 0.0), (2.0, 0.0)],
        directions=[(0.0, 1.0), (-1.0, 0.0), (1.0, 0.0)],
        N=200,
    )
    assert rep.overall == "hypotheses_hold_evidence"
    assert rep.mixing_verdict == "exact_zero"
    assert all(s == 0.0 for _, s, _ in rep.selection_rows)
    quartic = math.fsum(1.0 / n**4 for n in range(1, 201))
    for row in rep.support_rows:
        if not row["vacuous"]:
            assert row["partial_sum"] <= quartic
    assert any(row["vacuous"] for row in rep.support_rows)  # (1, 0) escapes


def test_ray_hypotheses_violated_with_witness():
    rep = slln_hypotheses_report(
        ray_process(), targets=[(1.0, 0.0)], directions=[(0.0, 1.0), (1.0, 0.0)], N=100
    )
    assert rep.overall == "hypothesis_violated"
    assert rep.violated == "support_moments"
    assert rep.witness == {"direction": [0.0, 1.0], "infinite_term_at": 1}
    vac = [r for r in rep.support_rows if r["direction"] == [1.0, 0.0]]
    assert vac and vac[0]["vacuous"]


def test_segment_markov_hypotheses_hold():
    rep = slln_hypotheses_report(
        segment_process(MK), targets=[(0.5,)], directions=[(1.0,), (-1.0,)], N=100
    )
    assert rep.overall == "hypotheses_hold_evidence"
    assert rep.mixing_verdict == "summable_evidence"


# ---------------------------------------------------------------------------
# invariants of the report types


def test_trajectory_validates():
    with pytest.raises(ValueError):
        Trajectory(checkpoints=(1, 2), values=(0.0,), metric_name="m", seed=0)
    with pytest.raises(ValueError):
        Trajectory(checkpoints=(1,), values=(-0.5,), metric_name="m", seed=0)
