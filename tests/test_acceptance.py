"""Acceptance suite: the package's exit criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Tolerances are pinned here, not configurable.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from randset.cli import bundled_config_names, bundled_config_path, load_config, run_config
from randset.experiments import (
    cone_tracking,
    exact_cell_expansion,
    halo_certificate,
    harmonic_halo_radius,
    lattice_interval_hausdorff,
    run_hausdorff_slln,
    slln_hypotheses_report,
)
from randset.geometry import (
    Cone,
    _hausdorff_convex_pair,
    ball_cell,
    convex_hull,
    hausdorff,
    hausdorff_via_support,
    interval_cell,
    minkowski_sum,
    point_union,
    poly_cell,
    recession_cone,
    scale,
    spread_directions,
    support,
    union_of,
)
from randset.mixing import (
    Law,
    PhiProfile,
    checkpoint_means,
    iid_driver,
    markov_driver,
    phi_brute_force,
    phi_exact_markov,
    scalar_slln_trajectory,
)
from randset.processes import (
    needle_halo_process,
    ray_direction,
    ray_process,
    segment_process,
    selection,
    two_point_process,
)
from randset.rng import uniform_at

MK = markov_driver([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5], [-1.0, 1.0])
SEEDS_20 = list(range(1, 21))
CHECKPOINTS_1E6 = [100, 1000, 10_000, 100_000, 1_000_000]


def _u(seed, stream, n):
    return uniform_at(seed, stream, np.arange(n))


def _random_poly_union(seed, dim):
    u = _u(seed, 21, 17)
    n_cells = 1 + int(u[0] * 3)
    cells = []
    k = 1
    for _ in range(n_cells):
        nv = 1 + int(u[k] * 4)
        pts = [(tuple((_u(seed * 31 + k + j, 22, dim) * 4 - 2))) for j in range(nv)]
        cells.append(poly_cell([tuple(map(float, p)) for p in pts], dim=dim))
        k += 1
    return union_of(cells)


def _random_ball_union(seed):
    u = _u(seed, 23, 9)
    cells = [
        ball_cell((float(u[3 * i] * 4 - 2), float(u[3 * i + 1] * 4 - 2)), float(u[3 * i + 2]))
        for i in range(1 + int(u[0] * 2))
    ]
    return union_of(cells)


def test_criterion_1_support_algebra_suite():
    """Additivity, homogeneity, hull invariance at 1e-9 on 10^4 random unions."""
    t0 = time.monotonic()
    dirs = {1: [(1.0,), (-1.0,)], 2: spread_directions(8, 2)}
    checked = 0
    i = 0
    while checked < 10_000:
        i += 1
        dim = 1 + (i % 2)
        if i % 5 == 0:
            if dim == 1:
                continue
            a, b = _random_ball_union(7000 + i), _random_ball_union(8000 + i)
        else:
            a, b = _random_poly_union(1000 + i, dim), _random_poly_union(5000 + i, dim)
        s = minkowski_sum(a, b)
        lam = float(_u(i, 24, 1)[0] * 3)
        sa = scale(lam, a)
        hull = union_of([convex_hull(a)]) if not i % 5 == 0 else None
        for d in dirs[dim]:
            assert abs(support(d, s) - support(d, a) - support(d, b)) <= 1e-9
            assert abs(support(d, sa) - lam * support(d, a)) <= 1e-9
            if hull is not None:
                assert support(d, a) == support(d, hull)
        checked += 1
    dt = time.monotonic() - t0
    assert dt < 30.0
    print(f"\nPASS criterion 1: support algebra on {checked} unions in {dt:.1f}s (< 30s)")


def _sampling_hausdorff_intervals(a_int, b_int, step=1e-5):
    def sample(ints):
        return np.concatenate([np.arange(lo, hi + step, step) for lo, hi in ints])

    def directed(xs, ints):
        d = np.full(xs.shape, np.inf)
        for lo, hi in ints:
            d = np.minimum(d, np.maximum.reduce([lo - xs, xs - hi, np.zeros_like(xs)]))
        return float(d.max())

    return max(directed(sample(a_int), b_int), directed(sample(b_int), a_int))


def _boundary_points(cell, step):
    v = list(cell.base.vertices)
    if len(v) == 1:
        return np.array(v)
    segs = []
    n = len(v)
    for i in range(n if n > 2 else 1):
        p0, p1 = np.array(v[i]), np.array(v[(i + 1) % n])
        m = max(2, int(np.linalg.norm(p1 - p0) / step) + 1)
        segs.append(p0 + np.linspace(0.0, 1.0, m)[:, None] * (p1 - p0))
    return np.concatenate(segs)


def _points_to_polytope(pts, verts):
    """Distance from each row of pts to the hull of a vertex list that is a
    point, a segment, or a counterclockwise convex polygon."""
    V = np.array(verts)
    n = len(V)
    if n == 1:
        return np.linalg.norm(pts - V[0], axis=1)
    d = np.full(len(pts), np.inf)
    inside = np.full(len(pts), n > 2)
    for i in range(n if n > 2 else 1):
        a, ab = V[i], V[(i + 1) % n] - V[i]
        t = np.clip((pts - a) @ ab / (ab @ ab), 0.0, 1.0)
        d = np.minimum(d, np.linalg.norm(pts - (a + t[:, None] * ab), axis=1))
        inside &= ab[0] * (pts[:, 1] - a[1]) - ab[1] * (pts[:, 0] - a[0]) >= -1e-12
    return np.where(inside, 0.0, d)


def _sampling_hausdorff_polygons(pa, pb, step=1e-3):
    def directed(pts, cell):
        return float(_points_to_polytope(pts, cell.base.vertices).max())

    return max(directed(_boundary_points(pa, step), pb), directed(_boundary_points(pb, step), pa))


def _random_polygon(seed, k, radius=1.0):
    u = uniform_at(seed, 25, np.arange(2 * k)).reshape(k, 2)
    return poly_cell([tuple(p) for p in (u * 2 - 1) * radius])


def test_criterion_2_hausdorff_oracle_equivalence():
    """Exact distances vs dense sampling (1e-4); support sampling vs exact (1e-3)."""
    worst_exact = 0.0
    # 334 interval instances, 333 point-set instances, 333 polygon instances
    for i in range(334):
        u = _u(9000 + i, 26, 4)
        a = (float(min(u[0], u[1])), float(max(u[0], u[1])))
        b = (float(min(u[2], u[3])), float(max(u[2], u[3])))
        h = hausdorff(union_of([interval_cell(*a)]), union_of([interval_cell(*b)]))
        worst_exact = max(worst_exact, abs(h - _sampling_hausdorff_intervals([a], [b])))
    for i in range(333):
        u = _u(11_000 + i, 27, 16).reshape(8, 2) * 2 - 1
        A, B = u[:4], u[4:]
        h = hausdorff(point_union(map(tuple, A)), point_union(map(tuple, B)))
        d = np.sqrt(((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2))
        brute = max(d.min(axis=1).max(), d.min(axis=0).max())
        worst_exact = max(worst_exact, abs(h - brute))
    for i in range(333):
        pa = _random_polygon(13_000 + i, 6)
        pb = _random_polygon(14_000 + i, 5)
        h = hausdorff(union_of([pa]), union_of([pb]))
        worst_exact = max(worst_exact, abs(h - _sampling_hausdorff_polygons(pa, pb)))
    assert worst_exact <= 1e-4

    worst_support = 0.0
    for i in range(1000):
        pa = _random_polygon(15_000 + i, 6)
        pb = _random_polygon(16_000 + i, 5)
        exact = _hausdorff_convex_pair(pa, pb)
        approx = hausdorff_via_support(pa, pb, 4096)
        assert approx <= exact + 1e-12
        worst_support = max(worst_support, exact - approx)
    assert worst_support <= 1e-3
    print(
        f"\nPASS criterion 2: oracle gap {worst_exact:.2e} (<= 1e-4), "
        f"support gap {worst_support:.2e} (<= 1e-3)"
    )


def _random_chain(seed, s):
    u = uniform_at(seed, 28, np.arange(s * s)).reshape(s, s)
    P = 0.05 + u
    P /= P.sum(axis=1, keepdims=True)
    A = np.vstack([P.T - np.eye(s), np.ones(s)])
    b = np.concatenate([np.zeros(s), [1.0]])
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    return P, pi


def _block_chain(m):
    s = 2 ** (m + 1)
    P = np.zeros((s, s))
    for state in range(s):
        tail = state & (2**m - 1)
        for bit in (0, 1):
            P[state, (tail << 1) | bit] = 0.5
    return P, np.full(s, 1.0 / s)


def test_criterion_3_phi_oracle_equivalence():
    """Exact Markov phi equals event-enumeration brute force to 1e-12."""
    t0 = time.monotonic()
    worst = 0.0
    for i in range(50):
        s = 2 + (i % 2)
        P, pi = _random_chain(17_000 + i, s)
        for n in (1, 2, 5, 11, 20):
            ex = phi_exact_markov(P, pi, n)
            bf = phi_brute_force(P, pi, n, 1, 1)
            worst = max(worst, abs(ex - bf))
    assert worst <= 1e-12
    for m in (1, 2):
        P, pi = _block_chain(m)
        for gap in (m + 1, m + 2):
            assert phi_brute_force(P, pi, gap, 1, 1) <= 1e-12
        assert phi_brute_force(P, pi, m, 1, 1) > 0.1
    dt = time.monotonic() - t0
    assert dt < 60.0
    print(f"\nPASS criterion 3: phi oracle gap {worst:.2e} over 50 chains in {dt:.1f}s (< 60s)")


def test_criterion_4_segment_family():
    """H(S_n, [0,1]) = |m_n| exactly; final value <= 0.02 in >= 19/20 seeds."""
    t0 = time.monotonic()
    spec = segment_process(MK)
    finals = []
    for seed in SEEDS_20:
        traj = run_hausdorff_slln(spec, "coA", 10**6, CHECKPOINTS_1E6, seed)
        means = checkpoint_means(MK, 10**6, CHECKPOINTS_1E6, seed)
        for v, m in zip(traj.values, means):
            assert v == abs(m)  # exact identity, not a tolerance
            # dual route: the interval machinery agrees to roundoff
            h = hausdorff(union_of([interval_cell(m, m + 1.0)]), union_of([interval_cell(0.0, 1.0)]))
            assert abs(h - v) <= 1e-12
        finals.append(traj.values[-1])
    passed = sum(1 for v in finals if v <= 0.02)
    dt = time.monotonic() - t0
    assert passed >= 19
    assert dt < 120.0
    print(f"\nPASS criterion 4: segment exact identity, {passed}/20 seeds <= 0.02 in {dt:.1f}s (< 2min)")


def test_criterion_5_two_point_family():
    """Lattice closed form vs brute force (1e-12), the paper bound, 19/20 final."""
    spec = two_point_process(MK)
    # spot checks against materialized point sets at small n
    for seed in (1, 2, 3):
        for n in (10, 100, 1000):
            m = checkpoint_means(MK, n, [n], seed)[0]
            lat = point_union([(m + i / n,) for i in range(n + 1)])
            brute = hausdorff(lat, union_of([interval_cell(0.0, 1.0)]))
            assert abs(lattice_interval_hausdorff(m, n) - brute) <= 1e-12
    finals = []
    for seed in SEEDS_20:
        traj = run_hausdorff_slln(spec, "coA", 10**6, CHECKPOINTS_1E6, seed)
        means = checkpoint_means(MK, 10**6, CHECKPOINTS_1E6, seed)
        for cp, v, m in zip(CHECKPOINTS_1E6, traj.values, means):
            assert v <= abs(m) + 0.5 / cp + 1e-15
        finals.append(traj.values[-1])
    passed = sum(1 for v in finals if v <= 0.02)
    assert passed >= 19
    print(f"\nPASS criterion 5: two-point bound holds, {passed}/20 seeds <= 0.02")


def test_criterion_6_needle_halo():
    """2^n cells, exact containments, axis recession cone, hypotheses hold."""
    spec = needle_halo_process()
    axis = Cone.from_generators(2, [(1.0, 0.0)])
    for seed in SEEDS_20:
        for n in range(1, 13):
            sn = exact_cell_expansion(spec, n, seed)
            assert len(sn.cells) == 2**n
            a_in, in_halo, r_n = halo_certificate(spec, n, seed)
            assert a_in and in_halo
            assert r_n == math.fsum(1.0 / i for i in range(1, n + 1)) / n
            assert recession_cone(sn) == axis
    rep = slln_hypotheses_report(
        spec, targets=[(0.0, 0.0), (2.0, 0.0)], directions=[(0.0, 1.0), (-1.0, 0.0), (1.0, 0.0)], N=200
    )
    assert rep.overall == "hypotheses_hold_evidence"
    assert all(s == 0.0 for _, s, _ in rep.selection_rows)
    quartic = math.fsum(1.0 / n**4 for n in range(1, 201))
    assert all(r["partial_sum"] <= quartic for r in rep.support_rows if not r["vacuous"])
    print("\nPASS criterion 6: halo certificates exact for n<=12 x 20 seeds, hypotheses hold")


def test_criterion_7_random_ray():
    """Violation witness (0,1) at term 1; 20/20 certificates; selection identity."""
    spec = ray_process()
    rep = slln_hypotheses_report(spec, targets=[(1.0, 0.0)], directions=[(0.0, 1.0), (1.0, 0.0)], N=100)
    assert rep.overall == "hypothesis_violated"
    assert rep.violated == "support_moments"
    assert rep.witness == {"direction": [0.0, 1.0], "infinite_term_at": 1}
    certified = 0
    for seed in SEEDS_20:
        r = cone_tracking(spec, 100, seed)
        if r.verdict == "fails_with_certificate":
            certified += 1
    assert certified == 20
    a = 2.0
    for n in range(1, 1001):
        s = selection(spec, (a, 0.0), n, 11)
        got = (s[0] - a) ** 2 + s[1] ** 2
        assert abs(got - (a * math.tan(1.0 / n)) ** 2) <= 1e-12
    print(f"\nPASS criterion 7: ray violation witnessed, {certified}/20 certificates, selection identity")


def test_criterion_8_scalar_slln():
    """Markov driver mean error <= 0.02 at 1e6 in 19/20 seeds; verdicts correct."""
    finals = [scalar_slln_trajectory(MK, 10**6, [10**6], seed)[0][1] for seed in SEEDS_20]
    passed = sum(1 for v in finals if v <= 0.02)
    assert passed >= 19
    geo = PhiProfile(tuple(0.8**n for n in range(1, 101)), "exact_markov")
    assert geo.verdict == "summable_evidence"
    inv2 = PhiProfile(tuple(1.0 / n**2 for n in range(1, 101)), "brute_force")
    assert inv2.verdict == "diverging"
    print(f"\nPASS criterion 8: scalar strong law {passed}/20 seeds <= 0.02, verdicts correct")


def test_criterion_9_reproducibility(tmp_path):
    """Every bundled config produces byte-identical outputs across two runs."""
    from randset.cli import emit_plot

    for name in bundled_config_names():
        cfg = load_config(bundled_config_path(name))
        outs = []
        for run in ("a", "b"):
            out = tmp_path / name.replace(".json", "") / run
            code, _ = run_config(cfg, out)
            assert code == 0, f"{name} did not meet its expected verdict"
            if (out / "trajectory.csv").exists():
                emit_plot(out / "trajectory.csv", out / "plot.svg")
            outs.append(out)
        a, b = outs
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b
        for f in files_a:
            assert (a / f).read_bytes() == (b / f).read_bytes(), f"{name}/{f} not reproducible"
    print(f"\nPASS criterion 9: {len(bundled_config_names())} bundled configs byte-reproducible")
