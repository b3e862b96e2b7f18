"""Set algebra: construction, Minkowski sums, supports, distances, cones."""

import math

import numpy as np
import pytest

from randset.geometry import (
    CellBudgetExceeded,
    Cone,
    EmptyAfterWindow,
    NegativeScale,
    UnboundedOperand,
    UnsupportedCellCombination,
    as_vector,
    ball_cell,
    cone_contains,
    convex_hull,
    dual_direction,
    format_set_union,
    hausdorff,
    hausdorff_via_support,
    hausdorff_windowed,
    hull_membership_via_support,
    interval_cell,
    minkowski_sum,
    parse_set_union,
    point_cell,
    point_to_cell_distance,
    point_union,
    poly_cell,
    ray_cell,
    recession_cone,
    recession_cone_detail,
    scale,
    spread_directions,
    support,
    union_of,
)
from randset.rng import uniform_at


def u_interval(lo, hi):
    return union_of([interval_cell(lo, hi)])


def u_ray(direction, origin=(0.0, 0.0)):
    return union_of([ray_cell(origin, direction)])


# ---------------------------------------------------------------------------
# Minkowski sums


def test_interval_sum_endpoints_add():
    s = minkowski_sum(u_interval(0, 1), u_interval(2, 3))
    assert s == u_interval(2, 4)


def test_ray_sum_merges_generators():
    th = 0.7
    s = minkowski_sum(u_ray((1, 0)), u_ray((math.cos(th), math.sin(th))))
    assert len(s.cells) == 1
    cell = s.cells[0]
    assert cell.base.vertices == ((0.0, 0.0),)
    assert set(cell.cone.generators) == {(1.0, 0.0), (math.cos(th), math.sin(th))}


def test_halo_distributive_law():
    # (R ∪ {z1}) + (R ∪ {z2}) = R ∪ (R+z1) ∪ (R+z2) ∪ {z1+z2}, using R+R=R
    z1, z2 = (0.1, 0.2), (-0.05, 0.3)
    a = union_of([ray_cell((0, 0), (1, 0)), point_cell(z1)])
    b = union_of([ray_cell((0, 0), (1, 0)), point_cell(z2)])
    s = minkowski_sum(a, b)
    expected = union_of(
        [
            ray_cell((0, 0), (1, 0)),
            ray_cell(z1, (1, 0)),
            ray_cell(z2, (1, 0)),
            point_cell((z1[0] + z2[0], z1[1] + z2[1])),
        ]
    )
    assert s == expected


def test_ball_sum():
    s = minkowski_sum(
        union_of([ball_cell((1, 0), 0.5)]), union_of([ball_cell((0, 2), 1.5)])
    )
    assert s == union_of([ball_cell((1, 2), 2.0)])


def test_ball_plus_point_shifts_center():
    s = minkowski_sum(union_of([ball_cell((0, 0), 1.0)]), point_union([(3, 4)]))
    assert s == union_of([ball_cell((3, 4), 1.0)])


def test_polytope_plus_ball_rejected():
    with pytest.raises(UnsupportedCellCombination):
        minkowski_sum(u_interval(0, 1), union_of([ball_cell((0.0,), 1.0)]))


def test_sums_and_hulls_with_one_pointed_operand_reuse_its_cone(monkeypatch):
    rays = union_of([ray_cell((0, 0), (1, 0)), ray_cell((1, 1), (0.6, 0.8))])
    points = point_union([(0.5, 0.0), (2.0, 1.0)])
    ray_and_point = union_of([ray_cell((0, 0), (0.6, 0.8)), point_cell((3.0, 1.0))])
    expected = minkowski_sum(rays, points), convex_hull(ray_and_point)

    def rebuild(*args, **kwargs):
        raise AssertionError("a canonical cone was derived again")

    monkeypatch.setattr(Cone, "from_generators", staticmethod(rebuild))
    assert (minkowski_sum(rays, points), convex_hull(ray_and_point)) == expected


def test_cell_budget():
    pts = point_union([(float(i), 0.0) for i in range(40)])
    with pytest.raises(CellBudgetExceeded):
        minkowski_sum(pts, pts, cell_budget=100)


def test_cone_absorption_idempotence():
    for gens in ([(1.0, 0.0)], [(1.0, 0.0), (0.0, 1.0)], [(1.0, 0.0), (-1.0, 0.0)]):
        c = union_of([poly_cell([(0.0, 0.0)], cone_generators=gens)])
        assert minkowski_sum(c, c) == c


# ---------------------------------------------------------------------------
# scaling


def test_scale_identity_and_half():
    u = u_interval(0, 2)
    assert scale(1.0, u) == u
    assert scale(0.5, u) == u_interval(0, 1)


def test_scale_zero_gives_origin():
    u = union_of([ray_cell((1, 2), (0, 1)), point_cell((5, 5))])
    assert scale(0.0, u) == point_union([(0.0, 0.0)])


def test_scale_negative_rejected():
    with pytest.raises(NegativeScale):
        scale(-1.0, u_interval(0, 1))


def test_scale_leaves_cones_alone():
    gens = [(math.cos(1 / k), math.sin((-1) ** k / k)) for k in range(1, 6)]
    c = union_of([poly_cell([(0.0, 0.0)], cone_generators=gens)])
    assert scale(1.0 / 5.0, c) == c


def test_scale_merges_vertices_that_fall_within_dedup_tol():
    s = scale(1e-3, union_of([interval_cell(0.0, 5e-10)]))
    assert s.cells[0].base.vertices == ((0.0,),)
    assert parse_set_union(format_set_union(s)) == s


def test_scale_drops_a_vertex_that_falls_within_dedup_tol_of_an_edge():
    # the apex lands 1e-13 above the base, with no two vertices within DEDUP_TOL
    s = scale(1e-6, union_of([poly_cell([(0, 0), (1, 0), (0.5, 1e-7)])]))
    assert s == union_of([poly_cell([(0.0, 0.0), (1e-6, 0.0), (5e-7, 1e-13)])])
    assert s.cells[0].base.vertices == ((0.0, 0.0), (1e-6, 0.0))


def test_scale_and_sum_refuse_a_ball_radius_that_overflows():
    # the radius of a scaled or summed ball is checked as ball_cell checks it,
    # so no cell line reads "r=inf", which parse_set_union refuses
    with pytest.raises(ValueError, match="ball radius must be finite"):
        scale(1e308, union_of([ball_cell((0, 0), 10)]))
    big = union_of([ball_cell((0, 0), 1e308)])
    with pytest.raises(ValueError, match="ball radius must be finite"):
        minkowski_sum(big, big)


# ---------------------------------------------------------------------------
# hulls and membership


def test_hull_of_two_points_is_interval():
    h = convex_hull(point_union([(0.0,), (1.0,)]))
    assert h == interval_cell(0.0, 1.0)


def test_hull_of_single_cell_is_identity():
    c = poly_cell([(0, 0), (1, 0), (0, 1)])
    assert convex_hull(union_of([c])) == c


def test_hull_absorbs_point_on_ray():
    h = convex_hull(union_of([point_cell((0.0, 0.0)), ray_cell((0, 0), (1, 0))]))
    assert h == ray_cell((0.0, 0.0), (1.0, 0.0))


def test_hull_mixed_ball_polytope_rejected():
    with pytest.raises(UnsupportedCellCombination):
        convex_hull(union_of([ball_cell((0, 0), 1), point_cell((2, 2))]))


def test_hull_keeps_a_vertex_across_a_thin_column():
    # the two right-hand columns are 3e-14 apart in x, so every triangle
    # across them is thin; an area tolerance dropped the fifth point
    pts = [(0, 0), (0, 0.25), (4.328427124746167, 5.159887226263636e-07), (4.328427124746198, 0),
           (4.328427124746167, 0.25000051598872264), (4.328427124746198, 0.25)]
    cell = poly_cell(pts)
    assert (4.328427124746167, 0.25000051598872264) in cell.base.vertices
    assert all(point_to_cell_distance(p, cell) <= 1e-12 for p in pts)


def test_micron_square_keeps_its_four_vertices():
    square = poly_cell([(0, 0), (1e-6, 0), (1e-6, 1e-6), (0, 1e-6)])
    diagonal = poly_cell([(0, 0), (1e-6, 1e-6)])
    assert len(square.base.vertices) == 4
    assert hausdorff(union_of([square]), union_of([diagonal])) == pytest.approx(1e-6 / math.sqrt(2), rel=1e-15)


def test_membership_midpoint_inside():
    a = point_union([(0.0, 0.0), (1.0, 0.0)])
    v = hull_membership_via_support((0.5, 0.0), a, spread_directions(64, 2))
    assert v.inside


def test_membership_separates_off_ray_point():
    v = hull_membership_via_support((0.0, 1.0), u_ray((1, 0)), [(0.0, 1.0)])
    assert not v.inside and v.witness == (0.0, 1.0)


def test_membership_rational_combination():
    # d = sum p_j/q * a_j stays inside the hull of the a_j
    a_pts = [(0.0, 0.0), (1.0, 0.25), (0.5, 1.0)]
    p, q = (2, 3, 3), 8
    d = tuple(sum(pj * aj[i] for pj, aj in zip(p, a_pts)) / q for i in range(2))
    v = hull_membership_via_support(d, point_union(a_pts), spread_directions(128, 2))
    assert v.inside


def test_membership_takes_an_array_of_directions():
    u, dirs = u_ray((1, 0)), spread_directions(16, 2)
    for x, inside in (((0.0, 1.0), False), ((2.0, 0.0), True)):
        verdict = hull_membership_via_support(x, u, np.array(dirs))
        assert verdict == hull_membership_via_support(x, u, dirs)  # the same witness too
        assert verdict.inside is inside


# ---------------------------------------------------------------------------
# support functions


def test_ray_support_infinite_vs_zero():
    n = 4
    up = u_ray((math.cos(1 / n), math.sin(1 / n)))
    dn = u_ray((math.cos(1 / n), -math.sin(1 / n)))
    assert support((0.0, 1.0), up) == math.inf
    assert support((0.0, 1.0), dn) == 0.0


def test_ball_support_is_radius():
    b = union_of([ball_cell((0, 0), 2.5)])
    assert support((0.6, 0.8), b) == pytest.approx(2.5, abs=1e-15)


def test_support_rejects_directions_outside_dual_ball():
    with pytest.raises(ValueError):
        support((2.0, 0.0), u_ray((1, 0)))


def test_support_full_space_cone():
    c = union_of([poly_cell([(0.0, 0.0)], cone_generators=[(1, 0), (-1, 0.5), (0, -1)])])
    assert c.cells[0].cone.full_space
    assert support((0.0, 1.0), c) == math.inf


@pytest.mark.parametrize("radius", [math.nan, math.inf, -1.0])
def test_ball_radius_must_be_finite_and_nonnegative(radius):
    with pytest.raises(ValueError, match="radius"):
        ball_cell((0.0, 0.0), radius)


def test_ball_radius_negative_zero_is_stored_as_zero():
    b = ball_cell((0.0, 0.0), -0.0)
    assert repr(b.base.radius) == "0.0"
    assert format_set_union(union_of([b])) == "CELL ball c=(0,0) r=0\n"


def test_ball_plus_full_space_cone_is_the_full_space_cell():
    full = ball_cell((3.0, 1.0), 2.0, cone_generators=[(1, 0), (-1, 0.5), (0, -1)])
    assert full == poly_cell([(0.0, 0.0)], full_space=True)
    u = union_of([full])
    assert parse_set_union(format_set_union(u)) == u
    # a hand-written ball line with a full cone is the same cell, not the ball
    assert parse_set_union("CELL ball c=(0,0) r=1 cone full\n") == u


def test_full_space_cells_share_one_canonical_base():
    one = poly_cell([(1, 0)], full_space=True)
    two = poly_cell([(1, 0), (2, 0)], full_space=True)
    assert one == two
    assert one.base.vertices == ((0.0, 0.0),)
    assert len(union_of([one, two]).cells) == 1


# ---------------------------------------------------------------------------
# Hausdorff: closed forms and oracles


def sampling_hausdorff_1d(a_int, b_int, step=1e-5):
    """Dense-sampling oracle over unions of 1-d intervals."""

    def sample(intervals):
        pts = []
        for lo, hi in intervals:
            pts.append(np.arange(lo, hi + step, step))
        return np.concatenate(pts)

    def directed(xs, intervals):
        d = np.full(xs.shape, np.inf)
        for lo, hi in intervals:
            d = np.minimum(d, np.maximum.reduce([lo - xs, xs - hi, np.zeros_like(xs)]))
        return d.max()

    xa, xb = sample(a_int), sample(b_int)
    return max(directed(xa, b_int), directed(xb, a_int))


def test_interval_hausdorff_matches_endpoint_formula_and_oracle():
    rs = uniform_at(101, 1, np.arange(4 * 50)).reshape(50, 4)
    for r in rs:
        a = sorted(r[:2])
        b = sorted(r[2:])
        h = hausdorff(u_interval(*a), u_interval(*b))
        assert h == pytest.approx(max(abs(a[0] - b[0]), abs(a[1] - b[1])), abs=1e-12)
        assert h == pytest.approx(sampling_hausdorff_1d([tuple(a)], [tuple(b)]), abs=1e-4)


@pytest.mark.parametrize(
    "a_int, b_int, expected",
    [
        # the gap (1, 2) of B hides behind the nested [0.2, 0.3]
        ([(0.0, 3.0)], [(0.0, 1.0), (0.2, 0.3), (2.0, 3.0)], 0.5),
        # nested [0.6, 0.8] and overlapping [0.5, 2.5] leave the gap (2.5, 3.5)
        ([(0.0, 4.0)], [(0.0, 1.0), (0.5, 2.5), (0.6, 0.8), (3.5, 4.0)], 0.5),
    ],
)
def test_union_hausdorff_with_nested_and_overlapping_intervals(a_int, b_int, expected):
    a = union_of([interval_cell(*i) for i in a_int])
    b = union_of([interval_cell(*i) for i in b_int])
    assert hausdorff(a, b) == pytest.approx(expected, abs=1e-15)
    assert hausdorff(b, a) == pytest.approx(expected, abs=1e-15)
    assert hausdorff(a, b) == pytest.approx(sampling_hausdorff_1d(a_int, b_int), abs=1e-4)


def test_hausdorff_identity_of_indiscernibles():
    u = union_of([interval_cell(0, 1), point_cell((2.0,))])
    assert hausdorff(u, u) == 0.0


def test_lattice_vs_interval_upper_bound():
    # n+1 equally spaced points starting at m: distance to [0,1] is at most |m| + 1/(2n)
    for m, n in ((0.1, 5), (0.0, 8), (-0.2, 13), (0.7, 3)):
        lat = point_union([(m + i / n,) for i in range(n + 1)])
        h = hausdorff(lat, u_interval(0, 1))
        assert h <= abs(m) + 0.5 / n + 1e-12


def test_ball_hausdorff_closed_form():
    h = hausdorff(union_of([ball_cell((0, 0), 1.0)]), union_of([ball_cell((3, 4), 2.5)]))
    assert h == pytest.approx(5.0 + 1.5, abs=1e-15)


def test_point_vs_ball_hausdorff():
    h = hausdorff(point_union([(3.0, 4.0)]), union_of([ball_cell((0, 0), 2.0)]))
    assert h == pytest.approx(7.0, abs=1e-15)


def test_hausdorff_unbounded_rejected():
    with pytest.raises(UnboundedOperand):
        hausdorff(u_ray((1, 0)), point_union([(0.0, 0.0)]))


def random_convex_polygon(seed, k, radius=1.0):
    u = uniform_at(seed, 7, np.arange(2 * k)).reshape(k, 2)
    pts = (u * 2.0 - 1.0) * radius
    return poly_cell([tuple(p) for p in pts])


def boundary_sampling_hausdorff(pa, pb, step=1e-3):
    """Directed sups over densely sampled polygon boundaries (vertices included).

    Distances to a counterclockwise convex polygon in plain numpy: 0 for a
    sample on the inner side of every edge, else the least edge distance.
    """

    def boundary(v):
        segs = []
        for p0, p1 in zip(v, np.roll(v, -1, axis=0)):
            m = max(2, int(np.linalg.norm(p1 - p0) / step) + 1)
            segs.append(p0 + np.linspace(0, 1, m)[:, None] * (p1 - p0))
        return np.concatenate(segs)

    def dist_to(pts, v):
        ab = np.roll(v, -1, axis=0) - v
        ap = pts[:, None, :] - v[None, :, :]
        t = np.clip((ap * ab).sum(axis=2) / (ab * ab).sum(axis=1), 0.0, 1.0)
        edge = np.hypot(*(ap - t[:, :, None] * ab).transpose(2, 0, 1)).min(axis=1)
        inside = (ab[:, 0] * ap[:, :, 1] - ab[:, 1] * ap[:, :, 0] >= -1e-12).all(axis=1)
        return np.where(inside, 0.0, edge).max()

    va, vb = np.array(pa.base.vertices), np.array(pb.base.vertices)
    assert len(va) >= 3 and len(vb) >= 3
    return max(dist_to(boundary(va), vb), dist_to(boundary(vb), va))


def test_polygon_hausdorff_matches_boundary_oracle():
    for seed in range(25):
        pa = random_convex_polygon(1000 + seed, 6)
        pb = random_convex_polygon(2000 + seed, 5)
        h = hausdorff(union_of([pa]), union_of([pb]))
        assert h == pytest.approx(boundary_sampling_hausdorff(pa, pb), abs=1e-4)


def test_point_set_hausdorff_brute_force():
    for seed in range(25):
        u = uniform_at(3000 + seed, 11, np.arange(16)).reshape(8, 2) * 2 - 1
        A, B = u[:4], u[4:]
        h = hausdorff(point_union(map(tuple, A)), point_union(map(tuple, B)))
        d = np.sqrt(((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2))
        assert h == pytest.approx(max(d.min(axis=1).max(), d.min(axis=0).max()), abs=1e-15)


# ---------------------------------------------------------------------------
# windowed Hausdorff


def test_windowed_parallel_ray_translate():
    eps = 0.125
    a = u_ray((1, 0))
    b = union_of([ray_cell((0, eps), (1, 0))])
    assert hausdorff_windowed(a, b, 10.0) == pytest.approx(eps, abs=1e-12)


def test_windowed_identity():
    a = union_of([ray_cell((0, 0), (1, 0)), point_cell((0.1, 0.3))])
    assert hausdorff_windowed(a, a, 4.0) == 0.0


def test_windowed_empty_window():
    a = union_of([point_cell((50.0, 50.0))])
    with pytest.raises(EmptyAfterWindow):
        hausdorff_windowed(a, u_ray((1, 0)), 1.0)


@pytest.mark.parametrize("R", [math.nan, math.inf])
@pytest.mark.parametrize("other", [point_union([(0.0, 0.0), (1.0, 0.0)]), u_ray((1, 0))], ids=["points", "ray"])
def test_windowed_refuses_a_non_finite_radius(R, other):
    with pytest.raises(ValueError, match="window_radius must be positive and finite"):
        hausdorff_windowed(point_union([(0.0, 0.0)]), other, R)


def test_windowed_1d():
    a = union_of([poly_cell([(0.0,)], cone_generators=[(1.0,)])])
    b = union_of([poly_cell([(0.5,)], cone_generators=[(1.0,)])])
    assert hausdorff_windowed(a, b, 10.0) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("theta", [1.0, 0.3, 2.5, -2.0])
@pytest.mark.parametrize("v", [(0.0, 0.0), (0.5, -1.25)])
def test_line_cells_are_read_at_full_precision(theta, v):
    # a line {u, -u} is read from its two facets through v, so the distance
    # keeps all its digits
    u = (math.cos(theta), math.sin(theta))
    line = poly_cell([v], [u, (-u[0], -u[1])])
    for p in [(10.0, 3.0), (-7.5, 0.25), (0.1, -40.0), (3.0, 3.0)]:
        want = abs(-(p[0] - v[0]) * u[1] + (p[1] - v[1]) * u[0])
        assert abs(point_to_cell_distance(p, line) - want) <= 1e-12


def test_windowed_line_is_clipped_on_the_box():
    R = 3.21704661215517
    x_axis = union_of([poly_cell([(0.0, 0.0)], [(1.0, 0.0), (-1.0, 0.0)])])
    assert hausdorff_windowed(x_axis, point_union([(0.0, 0.0)]), R) == R


def test_a_tiny_square_measures_points_just_outside_it():
    # the facet slack is DEDUP_TOL in distance, whatever the edge's length
    square = poly_cell([(0, 0), (1e-6, 0), (1e-6, 1e-6), (0, 1e-6)])
    assert point_to_cell_distance((5e-7, -5e-7), square) == 5e-7
    assert abs(point_to_cell_distance((5e-7, 1.4e-6), square) - 4e-7) <= 1e-21
    taller = poly_cell([(0, 0), (1e-6, 0), (1e-6, 1.5e-6), (0, 1.5e-6)])
    assert abs(hausdorff(union_of([square]), union_of([taller])) - 5e-7) <= 1e-21


def near_pi_sector():
    """A sector 1e-8 short of a half-plane. A truncation sized by cos(opening
    / 2), floored at 1e-6, cut it short and measured wrong distances."""
    t = math.pi - 1e-8
    return poly_cell([(0.0, 0.0)], [(1.0, 0.0), (math.cos(t), math.sin(t))])


@pytest.mark.parametrize("p", [(0.0, 100.0), (0.0, 1.0), (3.0, 0.5)])
def test_near_pi_sector_puts_its_points_at_zero(p):
    cell = near_pi_sector()
    assert cone_contains(cell.cone, p)
    assert point_to_cell_distance(p, cell) == 0.0


def test_windowed_near_pi_sector_is_exact():
    # one piece on each side, so the value is exact: the sector clips to the
    # upper half of the box, whose top corners lie 3 sqrt(2) from the origin
    got = hausdorff_windowed(union_of([near_pi_sector()]), point_union([(0.0, 0.0)]), 3.0)
    assert abs(got - 3.0 * math.sqrt(2.0)) <= 1e-12


# ---------------------------------------------------------------------------
# recession cones


def test_recession_of_ray_and_polygon():
    assert recession_cone(u_ray((1, 0))) == Cone.from_generators(2, [(1, 0)])
    assert recession_cone(union_of([poly_cell([(0, 0), (1, 0), (0, 1)])])) == Cone.trivial(2)


def test_recession_sandwich_rule():
    u = union_of(
        [
            ray_cell((0, 0), (1, 0)),
            ray_cell((0.1, -0.2), (1, 0)),
            point_cell((0.3, 0.4)),
        ]
    )
    cone, rule, radius = recession_cone_detail(u)
    assert cone == Cone.from_generators(2, [(1, 0)])
    assert rule == "sandwich"
    # verify the sandwich directly: every cell within radius of the base cell
    base = u.cells[[c.cone == cone and c.base.vertices[0] == (0.0, 0.0) for c in u.cells].index(True)]
    for c in u.cells:
        for v in c.base.vertices:
            assert point_to_cell_distance(v, base) <= radius + 1e-12


def test_recession_adds_a_ball_radius_and_skips_unsupported_base_cells():
    u = union_of([ray_cell((0, 0), (1, 0)), ball_cell((5, 5), 1)])
    assert recession_cone_detail(u) == (Cone.from_generators(2, [(1, 0)]), "sandwich", 6.0)
    # no distance to a ball with a cone: neither a vertex's nor a ball centre's
    for other in (point_cell((5, 5)), ball_cell((5, 5), 1)):
        assert recession_cone(union_of([ball_cell((0, 0), 1, [(1, 0)]), other])) is None


def test_recession_unknown_for_disjoint_cones():
    u = union_of([ray_cell((0, 0), (1, 0)), ray_cell((0, 0), (0, 1))])
    assert recession_cone(u) is None


# ---------------------------------------------------------------------------
# support-sampled Hausdorff


def test_via_support_translate():
    a = poly_cell([(0, 0), (1, 0)])
    b = poly_cell([(0.25, 0), (1.25, 0)])
    assert hausdorff_via_support(a, b, 4096) == pytest.approx(0.25, abs=1e-9)


def test_via_support_zero_and_monotone():
    a = random_convex_polygon(42, 6)
    b = random_convex_polygon(43, 5)
    assert hausdorff_via_support(a, a, 16) == 0.0
    vals = [hausdorff_via_support(a, b, n) for n in (2, 8, 32, 128, 512, 2048)]
    assert all(v1 <= v2 + 1e-15 for v1, v2 in zip(vals, vals[1:]))
    exact = hausdorff(union_of([a]), union_of([b]))
    assert all(v <= exact + 1e-12 for v in vals)


def test_via_support_unbounded_rejected():
    with pytest.raises(UnboundedOperand):
        hausdorff_via_support(ray_cell((0, 0), (1, 0)), point_cell((0, 0)), 8)


@pytest.mark.parametrize("n", [2.5, 3.0, True, False, np.int64(4), "4", None, 0, -2])
@pytest.mark.parametrize("dim", [1, 2])
def test_direction_count_must_be_a_positive_int(n, dim):
    # np.arange(2.5) has 3 entries and np.arange(True) one; range(2.5) raises TypeError
    with pytest.raises(ValueError, match="positive int number of directions"):
        spread_directions(n, dim)
    a, b = poly_cell([(0.0,) * dim]), poly_cell([(1.0,) * dim])
    if isinstance(n, (int, float, np.integer)):
        hausdorff_via_support(a, b, max(int(n), 1))  # a cached matrix for the equal int must not answer
    with pytest.raises(ValueError, match="positive int number of directions"):
        hausdorff_via_support(a, b, n)
    assert len(spread_directions(3, dim)) == 3


# ---------------------------------------------------------------------------
# cones and canonical forms


def test_sector_reduces_to_extreme_rays():
    gens = [(math.cos(s / k), math.sin(s / k)) for k, s in zip(range(1, 9), [1, -1, 1, 1, -1, 1, -1, 1])]
    c = Cone.from_generators(2, gens)
    assert c.generators == tuple(sorted([(math.cos(1), math.sin(1)), (math.cos(0.5), -math.sin(0.5))]))


def test_cone_merge_is_generator_union():
    c1 = Cone.from_generators(2, [(1, 0)])
    c2 = Cone.from_generators(2, [(0, 1)])
    assert c1.merge(c2) == Cone.from_generators(2, [(1, 0), (0, 1)])


def test_sector_membership_scales_with_the_vector():
    # the same direction, 5e-10 below the quadrant relative to its length
    quadrant = Cone.from_generators(2, [(1, 0), (0, 1)])
    assert cone_contains(quadrant, (1, -5e-10)) and cone_contains(quadrant, (1e6, -5e-4))
    assert not cone_contains(quadrant, (1, -2e-9)) and not cone_contains(quadrant, (1e6, -2e-3))


def test_line_and_halfplane_membership():
    line = Cone.from_generators(2, [(1, 0), (-1, 0)])
    assert cone_contains(line, (-3, 0)) and not cone_contains(line, (0, 1))
    half = Cone.from_generators(2, [(1, 0), (-1, 0), (0, 1)])
    assert len(half.generators) == 3
    assert cone_contains(half, (0.5, 2.0)) and not cone_contains(half, (0, -1))


def test_generators_all_on_a_line_give_the_line():
    nearly_x = (math.cos(1e-10), math.sin(1e-10))
    assert Cone.from_generators(2, [(1, 0), (-1, 0), nearly_x]) == Cone.from_generators(2, [(1, 0), (-1, 0)])


@pytest.mark.parametrize("d", [3, 4])
def test_only_the_line_and_the_plane_are_accepted(d):
    v = (0.5,) + (0.0,) * (d - 1)
    for build in (
        lambda: as_vector(v),
        lambda: dual_direction(v),
        lambda: Cone.from_generators(d, []),
        lambda: Cone.from_generators(d, [], full_space=True),
        lambda: Cone.trivial(d),
        lambda: spread_directions(4, d),
        lambda: poly_cell([v]),
        lambda: ball_cell(v, 1.0),
        lambda: point_union([v]),
    ):
        with pytest.raises(ValueError, match=f"dimension must be 1 or 2, got {d}"):
            build()


def test_d1_cone_forms():
    assert Cone.from_generators(1, [(2.0,)]).generators == ((1.0,),)
    assert Cone.from_generators(1, [(1.0,), (-3.0,)]).full_space


# ---------------------------------------------------------------------------
# serialization


def test_round_trip_exact():
    u = union_of(
        [
            ball_cell((0.1, -0.2), 0.7),
            ray_cell((1 / 3, 2 / 7), (math.cos(0.3), math.sin(0.3))),
            point_cell((1e-17, -5.5)),
        ]
    )
    assert parse_set_union(format_set_union(u)) == u


def test_round_trip_d1_and_full_cone():
    u = union_of([interval_cell(-1 / 3, 2 / 3)])
    assert parse_set_union(format_set_union(u)) == u
    f = union_of([poly_cell([(0.0, 0.0)], full_space=True)])
    assert parse_set_union(format_set_union(f)) == f
