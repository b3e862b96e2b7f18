"""Property tests for the set-algebra invariants.

Coordinates are drawn from a dyadic grid (multiples of 1/64) so that
deduplication and hull predicates see exactly representable values; the
identities themselves are asserted at 1e-9 as contracted.
"""

import math
import pickle
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import linprog

from randset.geometry import (
    DEDUP_TOL,
    Ball,
    Cone,
    ConvexCell,
    EmptyAfterWindow,
    GeometryError,
    MembershipVerdict,
    Polytope,
    UnsupportedCellCombination,
    _cell_key,
    _cell_line,
    _cell_sum,
    _cross2,
    _dedup_points,
    _poly_cell,
    _window_pieces,
    as_vector,
    ball_cell,
    cell_distances,
    cone_contains,
    cone_is_subset,
    convex_hull,
    dual_direction,
    extreme_points,
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
    point_to_union_distance,
    point_union,
    poly_cell,
    ray_cell,
    recession_cone_detail,
    scale,
    spread_directions,
    support,
    union_of,
    vadd,
    vdot,
    vnorm,
    vscale,
    vsub,
)

coord = st.integers(min_value=-256, max_value=256).map(lambda k: k / 64.0)
point2 = st.tuples(coord, coord)
point1 = st.tuples(coord)

DIRS2 = spread_directions(32, 2)
DIRS1 = [(1.0,), (-1.0,)]


def dirs_for(u):
    return DIRS2 if u.dim == 2 else DIRS1


@st.composite
def bounded_union(draw, dim=2):
    pts = point2 if dim == 2 else point1
    n_cells = draw(st.integers(1, 3))
    cells = []
    for _ in range(n_cells):
        verts = draw(st.lists(pts, min_size=1, max_size=4))
        cells.append(poly_cell(verts, dim=dim))
    return union_of(cells)


@settings(max_examples=150, deadline=None)
@given(bounded_union(), bounded_union())
def test_support_additivity(a, b):
    s = minkowski_sum(a, b)
    for d in dirs_for(a):
        assert abs(support(d, s) - support(d, a) - support(d, b)) <= 1e-9


@settings(max_examples=150, deadline=None)
@given(bounded_union(), st.integers(0, 64).map(lambda k: k / 16.0))
def test_support_positive_homogeneity(a, lam):
    scaled = scale(lam, a)
    for d in dirs_for(a):
        assert abs(support(d, scaled) - lam * support(d, a)) <= 1e-9


@settings(max_examples=150, deadline=None)
@given(bounded_union())
def test_support_blind_to_convexification(a):
    hull = union_of([convex_hull(a)])
    for d in dirs_for(a):
        assert support(d, a) == support(d, hull)


@st.composite
def point_cloud_union(draw, dim):
    pts = point2 if dim == 2 else point1
    return point_union(draw(st.lists(pts, min_size=1, max_size=4, unique=True)))


@settings(max_examples=100, deadline=None)
@given(point_cloud_union(2), point_cloud_union(2), point_cloud_union(2))
def test_hausdorff_metric_axioms_2d(a, b, c):
    hab, hba = hausdorff(a, b), hausdorff(b, a)
    assert hab == hba
    assert hab <= hausdorff(a, c) + hausdorff(c, b) + 1e-9
    if hab == 0.0:
        assert a == b


@settings(max_examples=100, deadline=None)
@given(point_cloud_union(1), point_cloud_union(1), point_cloud_union(1))
def test_hausdorff_metric_axioms_1d(a, b, c):
    hab = hausdorff(a, b)
    assert hab == hausdorff(b, a)
    assert hab <= hausdorff(a, c) + hausdorff(c, b) + 1e-9
    if hab == 0.0:
        assert a == b


def grid_oracle(a, b, step=1e-5):
    """O(grid^2) point-set oracle: exact pairwise distances on the atoms."""
    pa = [c.base.vertices[0] for c in a.cells]
    pb = [c.base.vertices[0] for c in b.cells]
    d_ab = max(min(math.dist(p, q) for q in pb) for p in pa)
    d_ba = max(min(math.dist(p, q) for q in pa) for p in pb)
    return max(d_ab, d_ba)


@settings(max_examples=100, deadline=None)
@given(point_cloud_union(2), point_cloud_union(2))
def test_point_union_matches_brute_oracle_2d(a, b):
    assert abs(hausdorff(a, b) - grid_oracle(a, b)) <= 1e-4


@settings(max_examples=100, deadline=None)
@given(point_cloud_union(1), point_cloud_union(1))
def test_point_union_matches_brute_oracle_1d(a, b):
    assert abs(hausdorff(a, b) - grid_oracle(a, b)) <= 1e-4


# ---------------------------------------------------------------------------
# The batched support kernel against the scalar formula, bit for bit.
# Coordinates here are arbitrary floats, not the dyadic grid: the rounding
# itself is under test, and results are compared by repr.


def ref_dot(a, b):
    acc = 0.0
    for x, y in zip(a, b):
        acc += x * y
    return acc


def ref_cell_support(x, cell):
    """One cell's support along x, one generator and one vertex at a time."""
    if cell.cone.full_space and math.sqrt(ref_dot(x, x)) > 0:
        return math.inf
    for g in cell.cone.generators:
        if ref_dot(x, g) > 0.0:
            return math.inf
    if isinstance(cell.base, Polytope):
        return max(ref_dot(x, v) for v in cell.base.vertices)
    return ref_dot(x, cell.base.center) + cell.base.radius * math.sqrt(ref_dot(x, x))


def ref_support(x, u):
    return max(ref_cell_support(dual_direction(x, u.dim), c) for c in u.cells)


def ref_via_support(a, b, n):
    best = 0.0
    for u in spread_directions(n, a.dim):
        best = max(best, abs(ref_cell_support(u, a) - ref_cell_support(u, b)))
    return best


def ref_hull_membership(x, u, directions):
    x = as_vector(x, u.dim)
    for d in directions:
        d = dual_direction(d, u.dim)
        if math.sqrt(ref_dot(d, d)) <= 1e-12:
            raise ValueError("separation directions must be nonzero")
        if ref_dot(d, x) > ref_support(d, u) + 1e-9:
            return MembershipVerdict(inside=False, witness=d)
    return MembershipVerdict(inside=True)


def outcome(f, *args):
    try:
        return repr(f(*args))
    except ValueError as e:
        return f"ValueError: {e}"


real = st.floats(-4.0, 4.0)
# zero and negative-zero components; any such vector has norm <= sqrt(2) / 2
component = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-0.5, 0.5))
signed_real = st.one_of(st.just(-0.0), real)


@st.composite
def any_cell(draw, dim, bounded=False):
    vec = st.tuples(*[real] * dim)
    kinds = ["polytope", "ball", "point"] + ([] if bounded else ["ray", "full_space"])
    kind = draw(st.sampled_from(kinds))
    if kind == "polytope":
        return poly_cell(draw(st.lists(vec, min_size=1, max_size=4)), dim=dim)
    if kind == "ball":
        return ball_cell(draw(vec), draw(st.floats(0.0, 4.0)))
    if kind == "point":
        return point_cell(draw(vec))
    if kind == "ray":
        return ray_cell(draw(vec), draw(vec.filter(lambda g: math.hypot(*g) > 1e-3)))
    return poly_cell(draw(st.lists(vec, min_size=1, max_size=2)), dim=dim, full_space=True)


@st.composite
def unit_or_any(draw, dim):
    if dim == 2 and draw(st.booleans()):
        t = draw(st.floats(-math.pi, math.pi))
        return (math.cos(t), math.sin(t))
    g = draw(st.tuples(*[real] * dim).filter(lambda g: math.hypot(*g) > 1e-3))
    return tuple(c / math.hypot(*g) for c in g) if draw(st.booleans()) else g


@st.composite
def canonical_cone(draw, dim, kinds=("full", "half_plane", "line", "none", "ray", "sector")):
    """(generators, full_space) of a cone of one of the kinds."""
    g, h = draw(unit_or_any(dim)), draw(unit_or_any(dim))
    minus = tuple(-c for c in g)
    cones = {"none": [], "ray": [g], "sector": [g, h], "line": [g, minus], "half_plane": [g, minus, h], "full": []}
    key = draw(st.sampled_from(kinds))
    return cones[key], key == "full"


@st.composite
def canonical_cell(draw, dim=None, vec=None):
    dim = dim or draw(st.integers(1, 2))
    vec = st.tuples(*[real] * dim) if vec is None else vec
    gens, full = draw(canonical_cone(dim))
    if draw(st.booleans()):
        return ball_cell(draw(vec), draw(st.floats(0.0, 4.0)), gens, full_space=full)
    return poly_cell(draw(st.lists(vec, min_size=1, max_size=4)), gens, full_space=full)


@st.composite
def shared_cone_rows(draw):
    """Two to four one-vertex cells in the plane under one sector, line or
    half-plane cone: a translate group of several rows. (In d = 1 such cones
    are rays or the full space.)"""
    gens, _ = draw(canonical_cone(2, ("half_plane", "line", "sector")))
    vertices = draw(st.lists(st.tuples(real, real), min_size=2, max_size=4))
    return [poly_cell([v], gens) for v in vertices]


@st.composite
def canonical_union_cells(draw, dim):
    """One to three canonical cells, or in d = 2 maybe a shared-cone translate
    group with up to three other cells."""
    rows = draw(st.one_of(st.just([]), shared_cone_rows())) if dim == 2 else []
    return draw(st.lists(canonical_cell(dim), min_size=0 if rows else 1, max_size=3)) + rows


@st.composite
def union_and_directions(draw):
    dim = draw(st.integers(1, 2))
    u = union_of(draw(st.lists(any_cell(dim), min_size=1, max_size=3)))
    dirs = draw(st.lists(st.tuples(*[component] * dim), min_size=1, max_size=6))
    return u, dirs


@settings(max_examples=300, deadline=None)
@given(union_and_directions())
def test_support_bit_identical_to_scalar_formula(case):
    u, dirs = case
    for d in dirs:
        assert repr(support(d, u)) == repr(ref_support(d, u))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2).flatmap(lambda dim: st.tuples(any_cell(dim, True), any_cell(dim, True))), st.integers(1, 64))
def test_hausdorff_via_support_bit_identical_to_scalar_formula(pair, n):
    a, b = pair
    assert repr(hausdorff_via_support(a, b, n)) == repr(ref_via_support(a, b, n))


@settings(max_examples=300, deadline=None)
@given(union_and_directions(), st.data())
def test_hull_membership_bit_identical_to_scalar_loop(case, data):
    u, dirs = case
    x = data.draw(st.tuples(*[real] * u.dim))
    assert outcome(hull_membership_via_support, x, u, dirs) == outcome(ref_hull_membership, x, u, dirs)


# ---------------------------------------------------------------------------
# The one distance kernel and the exact Hausdorff paths against the scalar
# functions they replaced, which are kept here as references, bit for bit.


def ref_point_to_segment(p, a, b):
    ab = vsub(b, a)
    denom = ref_dot(ab, ab)
    if denom <= 0:
        return vnorm(vsub(p, a))
    t = max(0.0, min(1.0, ref_dot(vsub(p, a), ab) / denom))
    return vnorm(vsub(p, vadd(a, vscale(t, ab))))


def ref_point_to_ray(p, origin, direction):
    t = ref_dot(vsub(p, origin), direction) / ref_dot(direction, direction)
    if t <= 0:
        return vnorm(vsub(p, origin))
    return vnorm(vsub(p, vadd(origin, vscale(t, direction))))


def ref_point_in_polygon(p, verts, tol=DEDUP_TOL):
    """Whether p lies at most tol beyond the line of every edge."""
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        if _cross2(vsub(b, a), vsub(p, a)) < -tol * vnorm(vsub(b, a)):
            return False
    return True


def ref_point_to_polytope(p, verts):
    if len(verts) == 1:
        return vnorm(vsub(p, verts[0]))
    if len(p) == 1:
        lo, hi = verts[0][0], verts[-1][0]
        return max(lo - p[0], p[0] - hi, 0.0)
    if len(verts) == 2:
        return ref_point_to_segment(p, verts[0], verts[1])
    if ref_point_in_polygon(p, verts):
        return 0.0
    return min(ref_point_to_segment(p, verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts)))


def ref_facet_distance(p, verts, gens):
    """The facet rule of a 2-d cell hull(verts) + cone(gens), one facet and
    one boundary piece at a time."""
    n = len(verts)
    edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)] if n > 1 else []
    facets = [(a, vsub(b, a)) for a, b in edges]
    for g in gens:
        for s in (g, vscale(-1.0, g)):
            facets.append((min(verts, key=lambda v: _cross2(s, v)), s))
    for o, d in facets:
        if all(ref_dot((d[1], -d[0]), g) <= 0.0 for g in gens) and _cross2(d, vsub(p, o)) < -DEDUP_TOL * vnorm(d):
            break
    else:
        return 0.0
    segments = [ref_point_to_segment(p, a, b) for a, b in edges]
    return min(segments + [ref_point_to_ray(p, v, g) for v in verts for g in gens])


def ref_point_to_cell_distance(p, cell):
    p = as_vector(p, cell.dim)
    if isinstance(cell.base, Ball):
        if not cell.cone.is_trivial:
            raise UnsupportedCellCombination("distance to ball-with-cone cells is not supported")
        return max(0.0, vnorm(vsub(p, cell.base.center)) - cell.base.radius)
    verts, gens = cell.base.vertices, cell.cone.generators
    if cell.cone.full_space:
        return 0.0
    if len(verts) == 1 and len(gens) == 1:
        return ref_point_to_ray(p, verts[0], gens[0])
    if cell.cone.is_trivial:
        return ref_point_to_polytope(p, verts)
    if cell.dim == 1:
        lo = -math.inf if (-1.0,) in gens else verts[0][0]
        hi = math.inf if (1.0,) in gens else verts[-1][0]
        return max(lo - p[0], p[0] - hi, 0.0)
    return ref_facet_distance(p, verts, gens)


# The truncation that the facet rule replaced: a cone cell cut to a bounded
# polygon that agrees with it near the origin, hulled by `ref_hull`. It is the
# reference for the window clip, through `ref_sector_halves`, and, away from
# near-pi sectors, for cell distances.


def _truncation_bound(cell: ConvexCell, reach: float) -> float:
    base_norm = max(vnorm(v) for v in cell.base.vertices)
    gens = cell.cone.generators
    kappa = 1.0
    if len(gens) == 2 and abs(_cross2(*gens)) > 1e-12:  # a sector; a line {u, -u} keeps 1
        c = max(-1.0, min(1.0, vdot(gens[0], gens[1])))
        kappa = max(math.cos(math.acos(c) / 2.0), 1e-6)
    return (2.0 * reach + 2.0 * base_norm + 1.0) / kappa


def _truncated_polytope(cell: ConvexCell, reach: float):
    """Bounded polytope agreeing with the cell within distance `reach` of 0."""
    verts = list(cell.base.vertices)
    cone = cell.cone
    if cone.is_trivial:
        return verts
    M = _truncation_bound(cell, reach)
    gens = cone.generators
    if cone.full_space:
        gens = ((1.0, 0.0), (-1.0, 1.0), (-1.0, -1.0)) if cell.dim == 2 else ((1.0,), (-1.0,))
        gens = tuple(vscale(1.0 / vnorm(g), g) for g in gens)
        M = 4.0 * reach + 1.0
    pts = list(verts)
    for v in verts:
        for g in gens:
            pts.append(vadd(v, vscale(M, g)))
    return ref_hull(pts) if cell.dim == 2 else extreme_points(pts, 1)


def ref_hull(points):
    """The monotone chain with exact turns and no pass after it. A thin
    sector's truncation has true vertices v + M g1 and v + M g2 3e-14 apart in
    x and 5e-7 apart in y (an opening of 1.2e-7 at M = 4.3); the reference
    clip keeps both, where `extreme_points` may drop a vertex that lies within
    1e-12 of the segment joining its neighbours."""
    pts = sorted(set(points))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross2(vsub(out[-1], out[-2]), vsub(p, out[-2])) <= 0.0:
                out.pop()
            out.append(p)
        return out[:-1]

    return pts if len(pts) <= 2 else chain(pts) + chain(pts[::-1])


def ref_sector_halves(cell):
    """The cell as cells whose union is the cell: a sector wider than a right
    angle splits at the direction a right angle from g1 into the sector, so
    neither half's truncation meets the floor of 1e-6 on cos(opening / 2)."""
    gens = cell.cone.generators
    if len(gens) != 2 or abs(_cross2(*gens)) <= 1e-12 or ref_dot(*gens) >= 0.0:
        return [cell]
    g1, g2 = gens
    b = (-g1[1], g1[0]) if _cross2(g1, g2) > 0.0 else (g1[1], -g1[0])
    return [ConvexCell(base=cell.base, cone=Cone.from_generators(2, h)) for h in ([g1, b], [b, g2])]


def ref_truncated_distance(p, cell):
    """The distance to the cell's truncation at reach |p| + max |v| + 1."""
    reach = vnorm(p) + max(vnorm(v) for v in cell.base.vertices) + 1.0
    poly = _truncated_polytope(cell, reach)
    return ref_point_to_polytope(p, poly)


def ref_union_distance(p, u):
    return min(ref_point_to_cell_distance(p, c) for c in u.cells)


def ref_recession_cone_detail(a):
    """The scalar loop: every foreign vertex's and ball centre's distance to
    C0, one at a time; a C0 the distance refuses is skipped."""
    cones = [c.cone for c in a.cells]
    if all(k == cones[0] for k in cones):
        return cones[0], "shared", 0.0
    for i, c0 in enumerate(a.cells):
        if not all(cone_is_subset(c.cone, c0.cone) for c in a.cells):
            continue
        radius = 0.0
        try:
            for c in a.cells[:i] + a.cells[i + 1 :]:
                if isinstance(c.base, Ball):
                    radius = max(radius, ref_point_to_cell_distance(c.base.center, c0) + c.base.radius)
                else:
                    for v in c.base.vertices:
                        radius = max(radius, ref_point_to_cell_distance(v, c0))
        except UnsupportedCellCombination:
            continue
        return c0.cone, "sandwich", radius
    return None, None, 0.0


def ref_intervals(u):
    out = []
    for c in u.cells:
        if isinstance(c.base, Ball):
            out.append((c.base.center[0] - c.base.radius, c.base.center[0] + c.base.radius))
        else:
            xs = [v[0] for v in c.base.vertices]
            out.append((min(xs), max(xs)))
    return sorted(out)


def ref_dist_to_intervals(x, intervals):
    return min(max(lo - x, x - hi, 0.0) for lo, hi in intervals)


def ref_directed_intervals(a_int, b_int):
    cands = [e for lo, hi in a_int for e in (lo, hi)]
    ordered = sorted(b_int)
    reach = ordered[0][1]
    for lo_b, hi_b in ordered[1:]:
        if lo_b > reach:
            mid = 0.5 * (reach + lo_b)
            if any(lo <= mid <= hi for lo, hi in a_int):
                cands.append(mid)
        reach = max(reach, hi_b)
    return max(ref_dist_to_intervals(x, b_int) for x in cands)


def ref_hausdorff_1d(a, b):
    ai, bi = ref_intervals(a), ref_intervals(b)
    return max(ref_directed_intervals(ai, bi), ref_directed_intervals(bi, ai))


def ref_hausdorff_convex_pair(a, b):
    ba, bb = isinstance(a.base, Ball), isinstance(b.base, Ball)
    if ba and bb:
        return vnorm(vsub(a.base.center, b.base.center)) + abs(a.base.radius - b.base.radius)
    if ba or bb:
        ball, other = (a, b) if ba else (b, a)
        if other.is_point:
            return vnorm(vsub(ball.base.center, other.base.vertices[0])) + ball.base.radius
        raise UnsupportedCellCombination("exact ball-vs-polytope Hausdorff is not supported")
    d_ab = max(ref_point_to_polytope(v, b.base.vertices) for v in a.base.vertices)
    d_ba = max(ref_point_to_polytope(v, a.base.vertices) for v in b.base.vertices)
    return max(d_ab, d_ba)


def ref_hausdorff(a, b):
    """The dispatch of `hausdorff` on bounded unions of one dimension."""
    if a.dim == 1:
        return ref_hausdorff_1d(a, b)
    if all(c.is_point for c in a.cells + b.cells):
        A, B = np.array([c.base.vertices[0] for c in a.cells]), np.array([c.base.vertices[0] for c in b.cells])
        d = np.sqrt(((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2))
        return float(max(d.min(axis=1).max(), d.min(axis=0).max()))
    if len(a.cells) == 1 and len(b.cells) == 1:
        return ref_hausdorff_convex_pair(a.cells[0], b.cells[0])
    raise UnsupportedCellCombination("exact Hausdorff needs d=1 unions, point sets, or single convex cells")


def ref_directed_clipped(cells_a, cells_b):
    def dist_to_b(p):
        return min(ref_point_to_polytope(p, vb) for vb in cells_b)

    best = 0.0
    for va in cells_a:
        if va in cells_b:
            continue
        for p in va:
            best = max(best, dist_to_b(p))
        if len(cells_b) > 1 and len(va) >= 2:
            n = len(va)
            for p0, p1 in [(va[i], va[(i + 1) % n]) for i in range(n if n > 2 else 1)]:
                for k in range(1, 128):
                    best = max(best, dist_to_b(vadd(p0, vscale(k / 128, vsub(p1, p0)))))
    return best


def ref_clip_polygon_halfplane(verts, normal, offset):
    """Sutherland-Hodgman step: keep {x : <normal, x> <= offset}."""
    if not verts:
        return []
    out = []
    n = len(verts)
    if n == 1:
        return list(verts) if vdot(normal, verts[0]) <= offset + 1e-12 else []
    for i in range(n if n > 2 else 1):
        cur, nxt = verts[i], verts[(i + 1) % n]
        c_in = vdot(normal, cur) <= offset + 1e-12
        n_in = vdot(normal, nxt) <= offset + 1e-12
        if c_in:
            out.append(cur)
        if c_in != n_in:
            dc = vdot(normal, cur)
            dn = vdot(normal, nxt)
            t = (offset - dc) / (dn - dc)
            out.append(vadd(cur, vscale(t, vsub(nxt, cur))))
    if n == 2:  # segment: also keep the far endpoint test symmetric
        cur, nxt = verts[1], verts[0]
        c_in = vdot(normal, cur) <= offset + 1e-12
        if c_in and cur not in out:
            out.append(cur)
    return out


def ref_clip_cell_to_box(cell, R):
    """Intersection of a (possibly unbounded) cell with [-R, R]^d, as
    vertices, one cell and one half-plane at a time; None when empty."""
    if isinstance(cell.base, Ball):
        raise UnsupportedCellCombination("windowed Hausdorff does not support ball cells")
    if cell.dim == 1:
        xs = [v[0] for v in cell.base.vertices]
        lo, hi = min(xs), max(xs)
        if not cell.cone.is_trivial:
            if cell.cone.full_space:
                lo, hi = -R, R
            elif cell.cone.generators[0][0] > 0:
                hi = R
            else:
                lo = -R
        lo, hi = max(lo, -R), min(hi, R)
        if lo > hi:
            return None
        return [(lo,)] if lo == hi else [(lo,), (hi,)]
    verts = ref_hull([v for h in ref_sector_halves(cell) for v in _truncated_polytope(h, math.sqrt(2.0) * R)])
    for normal, offset in (((1.0, 0.0), R), ((-1.0, 0.0), R), ((0.0, 1.0), R), ((0.0, -1.0), R)):
        verts = ref_clip_polygon_halfplane(verts, normal, offset)
        if not verts:
            return None
    return extreme_points(verts, 2)


def ref_hausdorff_windowed(a, b, R):
    """In d = 1, the reference clip of each cell and the scalar interval sup.
    In d = 2, the scalar sup on the program's `_window_pieces`, which
    `test_window_pieces_match_the_reference_clip` holds to the reference clip."""
    ca = [v for c in a.cells if (v := ref_clip_cell_to_box(c, R)) is not None]
    cb = [v for c in b.cells if (v := ref_clip_cell_to_box(c, R)) is not None]
    if not ca or not cb:
        raise EmptyAfterWindow("a window operand is empty after clipping")
    if a.dim == 1:
        ai, bi = ([(v[0][0], v[-1][0]) for v in pieces] for pieces in (ca, cb))
        return max(ref_directed_intervals(ai, bi), ref_directed_intervals(bi, ai))
    pa, pb = _window_pieces(a, R), _window_pieces(b, R)
    return max(ref_directed_clipped(pa, pb), ref_directed_clipped(pb, pa))


def distance_outcome(f, *args):
    try:
        return repr(f(*args))
    except (ValueError, GeometryError) as e:
        return f"{type(e).__name__}: {e}"


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2).flatmap(lambda dim: st.tuples(canonical_union_cells(dim), st.tuples(*[signed_real] * dim))))
def test_union_distance_bit_identical_to_cell_loop(case):
    cells, x = case
    u = union_of(cells)
    assert distance_outcome(point_to_union_distance, x, u) == distance_outcome(ref_union_distance, x, u)


@st.composite
def translate_cells(draw, dim, max_size=4):
    vec = st.tuples(*[real] * dim)
    cells = []
    for _ in range(draw(st.integers(1, max_size))):
        if draw(st.booleans()):
            cells.append(point_cell(draw(vec)))
        else:
            cells.append(ray_cell(draw(vec), draw(vec.filter(lambda g: math.hypot(*g) > 1e-3))))
    return union_of(cells)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2).flatmap(lambda dim: st.tuples(translate_cells(dim, 6), st.lists(canonical_cell(dim), max_size=3),
                                                        st.lists(st.tuples(*[signed_real] * dim)))))
@example((point_union([(5.0,)]), [interval_cell(-1.0, 0.0)], [(-0.0,)]))  # -0.0 - 0.0 is -0.0
def test_cell_distances_and_recession_bit_identical_to_scalar_loop(case):
    rows, cells, points = case
    u = union_of(list(rows.cells) + cells)
    assert distance_outcome(recession_cone_detail, u) == distance_outcome(ref_recession_cone_detail, u)
    for cell in u.cells:
        want = [distance_outcome(ref_point_to_cell_distance, p, cell) for p in points]
        try:
            got = [repr(float(d)) for d in cell_distances(np.array(points).reshape(-1, u.dim), cell)]
        except UnsupportedCellCombination as e:  # refused for the cell, so for every point
            got = [f"{type(e).__name__}: {e}"] * len(points)
        assert got == want
        assert [distance_outcome(point_to_cell_distance, p, cell) for p in points] == want


@st.composite
def cone_cell_and_points(draw):
    """A ray, line, half-plane or sector (opening at most pi - 1e-3) over 1-4
    base vertices, with probe points; d = 1 has rays only."""
    dim = draw(st.integers(1, 2))
    vec = st.tuples(*[real] * dim)
    if dim == 1:
        gens = [(draw(st.sampled_from([-1.0, 1.0])),)]
    else:
        t, w = draw(st.floats(-math.pi, math.pi)), draw(st.floats(0.0, math.pi - 1e-3))
        g, h = (math.cos(t), math.sin(t)), (math.cos(t + w), math.sin(t + w))
        minus = (-g[0], -g[1])
        gens = draw(st.sampled_from([[g], [g, minus], [g, minus, h], [g, h]]))
    return poly_cell(draw(st.lists(vec, min_size=1, max_size=4)), gens), draw(st.lists(vec, min_size=1, max_size=8))


@settings(max_examples=300, deadline=None)
@given(cone_cell_and_points())
def test_cone_cell_distances_match_the_old_truncation(case):
    cell, points = case
    got = cell_distances(np.array(points), cell)
    for p, d in zip(points, got):
        assert abs(d - ref_truncated_distance(as_vector(p), cell)) <= 1e-9 * (1.0 + vnorm(p))


@st.composite
def cone_and_vector(draw):
    """A canonical cone (a sector at least 1e-6 wide) and a vector of norm
    2^30 * 1e-9 to 2^30 * 1e3, free or turned by 1e-11 to 1e-7 from a
    generator's direction; scaled by 2^-30 it is still longer than
    DEDUP_TOL, below which every vector is in every cone."""
    dim = draw(st.integers(1, 2))
    gens, full = draw(canonical_cone(dim))
    cone = Cone.from_generators(dim, gens, full_space=full)
    g = cone.generators
    assume(len(g) != 2 or abs(_cross2(*g)) > 1e-6 or vdot(*g) < 0.0)
    if dim == 2 and g and draw(st.booleans()):
        u, eps = draw(st.sampled_from(g)), draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-11.0, -7.0))
        v = (u[0] - eps * u[1], u[1] + eps * u[0])
    else:
        v = draw(st.tuples(*[real] * dim).filter(lambda v: math.hypot(*v) > 1e-3))
    size = 2.0**30 * 10.0 ** draw(st.floats(-9.0, 3.0))
    return cone, tuple(c * size / math.hypot(*v) for c in v)


@settings(max_examples=300, deadline=None)
@given(cone_and_vector())
@example((Cone.from_generators(2, [(1, 0), (0, 1)]), (2.0**30, -2.0**30 * 5e-10)))
def test_cone_membership_is_blind_to_power_of_two_scaling(case):
    cone, v = case
    assert {cone_contains(cone, tuple(2.0**k * c for c in v)) for k in range(-30, 31)} == {cone_contains(cone, v)}


@st.composite
def polygon_and_edge(draw):
    """A convex polygon of dyadic points scaled by 1e-9 to 1e3, and one of its
    edges (a, b), the polygon on its left."""
    size = 10.0 ** draw(st.floats(-9.0, 3.0))
    pts = draw(st.lists(point2, min_size=3, max_size=6))
    verts = poly_cell([(size * x, size * y) for x, y in pts]).base.vertices
    assume(len(verts) >= 3)
    i = draw(st.integers(0, len(verts) - 1))
    return verts, verts[i], verts[(i + 1) % len(verts)]


@settings(max_examples=300, deadline=None)
@given(polygon_and_edge())
@example(([(0.0, 0.0), (1e-6, 0.0), (1e-6, 1e-6), (0.0, 1e-6)], (0.0, 0.0), (1e-6, 0.0)))
def test_a_point_just_outside_an_edge_reads_its_distance(case):
    # within 1e-6 relative, plus the rounding of coordinates as large as M
    verts, a, b = case
    push, (dx, dy) = 1e3 * DEDUP_TOL, vsub(b, a)
    n = math.hypot(dx, dy)
    p = ((a[0] + b[0]) / 2.0 + push * dy / n, (a[1] + b[1]) / 2.0 - push * dx / n)
    M = max(abs(c) for v in verts for c in v)
    assert abs(point_to_cell_distance(p, poly_cell(verts)) - push) <= 1e-6 * push + 4.0 * math.ulp(M)


grid = st.integers(-12, 12).map(lambda k: k / 4.0)


@st.composite
def interval_union(draw):
    """Intervals, points and balls in d = 1; the coarse grid makes nested,
    overlapping and touching intervals common, and lo == hi a single point."""
    x = st.one_of(grid, real)
    cells = []
    for _ in range(draw(st.integers(1, 6))):
        lo, hi = sorted([draw(x), draw(x)])
        kind = draw(st.sampled_from(["interval", "interval", "point", "ball"]))
        if kind == "interval":
            cells.append(interval_cell(lo, hi))
        elif kind == "point":
            cells.append(point_cell((lo,)))
        else:
            cells.append(ball_cell((lo,), hi - lo))
    return union_of(cells)


@st.composite
def convex_cell_2d(draw):
    vec = st.tuples(real, real)
    if draw(st.integers(0, 4)) == 0:
        return ball_cell(draw(vec), draw(st.floats(0.0, 4.0)))
    return poly_cell(draw(st.lists(vec, min_size=1, max_size=6)))


@st.composite
def hausdorff_pair(draw):
    kind = draw(st.sampled_from(["d1", "points", "convex_pair"]))
    if kind == "d1":
        return draw(interval_union()), draw(interval_union())
    if kind == "points":
        vec = st.tuples(*[real] * draw(st.integers(1, 2)))
        return tuple(point_union(draw(st.lists(vec, min_size=1, max_size=8))) for _ in range(2))
    return union_of([draw(convex_cell_2d())]), union_of([draw(convex_cell_2d())])


@settings(max_examples=300, deadline=None)
@given(hausdorff_pair())
@example((union_of([interval_cell(0.0, 3.0)]),
          union_of([interval_cell(0.0, 1.0), interval_cell(0.2, 0.3), interval_cell(2.0, 3.0)])))
def test_hausdorff_bit_identical_to_scalar_paths(pair):
    a, b = pair
    assert distance_outcome(hausdorff, a, b) == distance_outcome(ref_hausdorff, a, b)
    assert distance_outcome(hausdorff, b, a) == distance_outcome(ref_hausdorff, b, a)


@st.composite
def window_union(draw, dim):
    """Points, rays, segments, polygons, sectors, lines and the full space:
    the coarse grid makes shared and touching pieces common."""
    vec = st.tuples(*[st.one_of(grid, real)] * dim)
    cells = draw(st.lists(canonical_cell(dim, vec), min_size=2, max_size=4))
    return union_of([c for c in cells if not isinstance(c.base, Ball)] or [point_cell(draw(vec))])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2).flatmap(lambda dim: st.tuples(window_union(dim), window_union(dim))), st.floats(0.5, 6.0))
@example((union_of([poly_cell([(0.0, 0.0), (1.0, 0.0)])]), point_union([(0.0, 0.3), (1.0, 0.3)])), 4.0)  # sup inside the edge
def test_hausdorff_windowed_bit_identical_to_scalar_sup(pair, R):
    a, b = pair
    assert distance_outcome(hausdorff_windowed, a, b, R) == distance_outcome(ref_hausdorff_windowed, a, b, R)


# two translate rows and a segment under a sector 1e-8 short of a half-plane
NEAR_PI = [(1.0, 0.0), (math.cos(math.pi - 1e-8), math.sin(math.pi - 1e-8))]
NEAR_PI_UNION = union_of([poly_cell(vs, NEAR_PI) for vs in ([(0.5, -0.25)], [(-1.0, 0.5)], [(0.3, 0.2), (-1.7, 0.2 + 1e-8)])])


def ref_window_pieces(u, R):
    """The reference clip of each cell, in `_window_pieces` order: the rows of
    each translate group, then the other cells."""
    rows = [ConvexCell(base=Polytope(vertices=(tuple(v),)), cone=cone) for cone, A in u.groups.items() for v in A.tolist()]
    return [v for c in rows + list(u.others) if (v := ref_clip_cell_to_box(c, R)) is not None]


def within(p, q, tol):
    """Every vertex of p lies within tol of some vertex of q."""
    return all(min(math.dist(x, y) for y in q) <= tol for x in p)


@settings(max_examples=300, deadline=None)
@given(window_union(2), st.floats(0.5, 6.0))
@example(union_of([poly_cell([(0.5, 0.0)], [(-2.0**-52, 1.0), (2.0**-52, -1.0)])]), 0.5)  # a line on the box's side
@example(NEAR_PI_UNION, 3.0)
def test_window_pieces_match_the_reference_clip(u, R):
    got, want = _window_pieces(u, R), ref_window_pieces(u, R)
    tol = 1e-8 * max(1.0, R)
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert len(p) == len(q) and within(p, q, tol) and within(q, p, tol)


def test_near_pi_window_pieces_are_exact():
    # each piece leaves the box's left side where the ray along the second
    # generator, tan(1e-8) above the horizontal, crosses x = -3
    t, top = math.tan(1e-8), [(3.0, 3.0), (-3.0, 3.0)]
    want = [[(-3.0, 0.5 + 2.0 * t), (-1.0, 0.5), (3.0, 0.5)] + top,
            [(-3.0, -0.25 + 3.5 * t), (0.5, -0.25), (3.0, -0.25)] + top,
            [(-3.0, 0.2 + 1e-8 + 1.3 * t), (-1.7, 0.2 + 1e-8), (0.3, 0.2), (3.0, 0.2)] + top]
    got = _window_pieces(NEAR_PI_UNION, 3.0)
    assert [len(p) for p in got] == [len(q) for q in want]
    assert all(math.dist(x, y) <= 1e-12 for p, q in zip(got, want) for x, y in zip(p, q))


def ref_in_hull_lp(p, vertices, generators) -> bool:
    """Whether p is a convex combination of the vertices plus a nonnegative
    combination of the generators, as a HiGHS feasibility LP."""
    d = len(p)
    nv, ng = len(vertices), len(generators)
    A_eq = np.zeros((d + 1, nv + ng))
    for j, v in enumerate(vertices):
        A_eq[:d, j] = v
        A_eq[d, j] = 1.0
    for j, g in enumerate(generators):
        A_eq[:d, nv + j] = g
    b_eq = np.concatenate([np.array(p, dtype=float), [1.0]])
    res = linprog(c=np.zeros(nv + ng), A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * (nv + ng), method="highs")
    return res.status == 0


def ref_poly_cell(vertices, cone):
    """`_poly_cell` with each absorbed vertex found by the LP."""
    kept = extreme_points(vertices, cone.dim)
    i = 0
    while len(kept) > 1 and i < len(kept):
        others = kept[:i] + kept[i + 1 :]
        if ref_in_hull_lp(kept[i], others, cone.generators):
            kept.pop(i)
        else:
            i += 1
    kept = extreme_points(kept, cone.dim) if len(kept) > 1 else kept
    return ConvexCell(base=Polytope(vertices=tuple(kept)), cone=cone)


@st.composite
def cell_with_cone(draw):
    """Dyadic vertices under a ray, sector, line or half-plane cone of dyadic generators."""
    dim = draw(st.integers(1, 2))
    vec = st.tuples(*[coord] * dim)
    g, h = draw(vec.filter(any)), draw(vec.filter(any))
    minus = tuple(-c for c in g)
    cones = {"ray": [g], "sector": [g, h], "line": [g, minus], "half_plane": [g, minus, h]}
    kind = draw(st.sampled_from(sorted(cones) if dim == 2 else ["ray"]))
    return draw(st.lists(vec, min_size=1, max_size=6)), Cone.from_generators(dim, cones[kind])


@settings(max_examples=300, deadline=None)
@given(cell_with_cone())
def test_absorbed_vertices_match_the_lp(case):
    vertices, cone = case
    assert repr(_poly_cell(vertices, cone)) == repr(ref_poly_cell(vertices, cone))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2).flatmap(lambda dim: st.tuples(translate_cells(dim), translate_cells(dim))))
def test_translate_sum_is_the_minkowski_sum(pair):
    a, b = pair
    total = minkowski_sum(a, b)  # both are translate groups: one broadcast add per pair of cones
    assert not total.others
    assert total.cells == ref_union(_cell_sum(x, y) for x in a.cells for y in b.cells)
    p = (0.5,) * a.dim  # every row of a sector or full-space group is measured in one kernel call
    assert distance_outcome(point_to_union_distance, p, total) == distance_outcome(ref_union_distance, p, total)


# ---------------------------------------------------------------------------
# The array-backed SetUnion against a tuple-of-cells reference: one cell per
# value, in `_cell_key` order, as `union_of` kept them before one-vertex cells
# became translate-group rows. A coarse grid makes equal cells common.

half = st.integers(-4, 4).map(lambda k: k / 2.0)


def ref_union(cells):
    return tuple(sorted(set(cells), key=_cell_key))


def ref_format(cells):
    return "\n".join(sorted(_cell_line(c) for c in ref_union(cells))) + "\n"


def ref_close(a, b):
    return all(abs(x - y) <= 1e-12 for x, y in zip(a, b))


def ref_scale(lam, cells):
    """The cell-by-cell `scale`: every cell is rebuilt by `poly_cell` or
    `ball_cell` from its scaled base and its cone."""
    out = []
    for c in cells:
        full, gens = c.cone.full_space, c.cone.generators
        if isinstance(c.base, Ball):
            center = tuple(lam * x for x in c.base.center)
            out.append(ball_cell(center, lam * c.base.radius, gens, full_space=full))
        else:
            out.append(poly_cell([tuple(lam * x for x in v) for v in c.base.vertices], gens, full_space=full))
    return ref_union(out)


@st.composite
def mixed_cells(draw, dim):
    vec = st.tuples(*[half] * dim)
    unit = st.sampled_from([(1.0,), (-1.0,)] if dim == 1 else [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.6, 0.8)])
    cells = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["point", "ray", "segment", "polygon", "ball", "sector"]))
        if kind == "point":
            cells.append(point_cell(draw(vec)))
        elif kind == "ray":
            cells.append(ray_cell(draw(vec), draw(unit)))
        elif kind == "segment":
            lo, hi = sorted([draw(vec), draw(vec)])
            cells.append(interval_cell(lo[0], hi[0]) if dim == 1 else poly_cell([lo, hi]))
        elif kind == "polygon":
            cells.append(poly_cell(draw(st.lists(vec, min_size=1, max_size=5))))
        elif kind == "ball":
            cells.append(ball_cell(draw(vec), draw(st.sampled_from([0.0, 0.5, 1.0])), draw(st.lists(unit, max_size=1))))
        else:
            cells.append(poly_cell([draw(vec)], draw(st.lists(unit, min_size=2, max_size=2))))
    return cells + draw(st.lists(st.sampled_from(cells), max_size=3))  # repeats


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2).flatmap(lambda dim: st.tuples(mixed_cells(dim), mixed_cells(dim))), st.randoms())
def test_set_union_matches_the_tuple_of_cells_reference(pair, rnd):
    a, b = pair
    u = union_of(a)
    assert u.cells == ref_union(a)
    assert u.cell_count == len(ref_union(a))
    assert format_set_union(u) == ref_format(a)
    assert parse_set_union(format_set_union(u)) == u
    assert pickle.loads(pickle.dumps(u)) == u
    shuffled = list(a)
    rnd.shuffle(shuffled)
    assert union_of(shuffled) == u and hash(union_of(shuffled)) == hash(u)
    assert (union_of(b) == u) == (ref_union(b) == ref_union(a))
    assert (union_of(a + b) == u) == (ref_union(a + b) == ref_union(a))
    for lam in (1.0 / 3.0, 1e-13, 3.0):  # thirds need all 17 digits
        want = ref_scale(lam, ref_union(a))
        assert scale(lam, u).cells == want
        assert format_set_union(scale(lam, u)) == ref_format(want)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf, math.nan]), real),
                         max_size=4).map(tuple), max_size=6))
def test_point_union_matches_the_point_cell_loop(points):
    def via_cells(ps):
        return union_of(point_cell(p) for p in ps)

    assert outcome(point_union, points) == outcome(via_cells, points)
    if points and len({len(p) for p in points}) == 1:
        assert outcome(point_union, points * 2) == outcome(via_cells, points)  # duplicates


def test_support_never_returns_negative_zero():
    assert repr(support((0.0, 0.0), point_union([(-1.0, -1.0)]))) == "0.0"
    assert repr(support((0.0, 0.0), union_of([ball_cell((-1.0, -2.0), 0.0)]))) == "0.0"


def test_directions_after_the_first_separating_one_are_never_checked():
    u = point_union([(0.0, 0.0)])
    v = hull_membership_via_support((1.0, 0.0), u, [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (2.0, 0.0)])
    assert v == MembershipVerdict(inside=False, witness=(1.0, 0.0))


def test_zero_direction_before_the_separating_one_raises():
    u = point_union([(0.0, 0.0)])
    with pytest.raises(ValueError, match="nonzero"):
        hull_membership_via_support((1.0, 0.0), u, [(0.0, 1.0), (0.0, 0.0), (1.0, 0.0)])


# ---------------------------------------------------------------------------
# Canonical forms are fixed points. Arbitrary floats again: a generator that
# is a unit vector up to its last bits must not be divided by its norm twice.


def rebuild(cell):
    if isinstance(cell.base, Polytope):
        return poly_cell(cell.base.vertices, cell.cone.generators, full_space=cell.cone.full_space)
    return ball_cell(cell.base.center, cell.base.radius, cell.cone.generators)


@settings(max_examples=300, deadline=None)
@given(canonical_cell())
@example(ball_cell((0.0, 0.0), 1.0, [(2.0, -5e-324)]))  # underflows to -0.0
def test_canonical_cell_is_a_fixed_point(cell):
    again = rebuild(cell)
    assert repr(again) == repr(cell)
    u = union_of([cell])
    assert parse_set_union(format_set_union(u)) == u
    assert len(union_of([cell, again]).cells) == 1


# ---------------------------------------------------------------------------
# The hull contract on thin sets: near-collinear runs and tiny polygons, where
# an area tolerance lost true vertices. A merge moves a point by at most
# DEDUP_TOL in each coordinate (sqrt(2) DEDUP_TOL) and each dropped vertex
# lies within DEDUP_TOL of the hull left, so a point lies within
# (sqrt(2) + drops) DEDUP_TOL of the hull.


def ref_distance_to_hull(p, verts):
    """Distance from p to the polygon, segment or point `verts`; inside means
    on the left of every edge, with no slack."""
    if len(verts) > 2 and ref_point_in_polygon(p, verts, tol=0.0):
        return 0.0
    return min(ref_point_to_segment(p, a, b) for a, b in zip(verts, verts[1:] + verts[:1]))


@st.composite
def thin_point_sets(draw):
    """3 to 8 points about a dyadic origin, each moved by a jitter of 1e-13 to
    1e-12: along a segment of length up to 4 (axis-parallel or at any angle),
    or in a square of side 1e-12 to 1e-6."""
    origin, n = draw(point2), draw(st.integers(3, 8))
    jitter = draw(st.floats(1e-13, 1e-12))
    unit = st.floats(0.0, 1.0)
    if draw(st.booleans()):
        theta = draw(st.sampled_from([0.0, math.pi / 2]) | st.floats(0.0, 2.0 * math.pi))
        length = draw(st.floats(1e-12, 4.0))
        base = [(t * length * math.cos(theta), t * length * math.sin(theta))
                for t in draw(st.lists(unit, min_size=n, max_size=n))]
    else:
        side = 10.0 ** draw(st.floats(-12.0, -6.0))
        base = [(side * x, side * y) for x, y in draw(st.lists(st.tuples(unit, unit), min_size=n, max_size=n))]
    moves = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=n, max_size=n))
    return [(origin[0] + x + jitter * a, origin[1] + y + jitter * b) for (x, y), (a, b) in zip(base, moves)]


@settings(max_examples=300, deadline=None)
@given(thin_point_sets())
@example([(3.3281250000038525, -0.2968749999968367), (3.3281250000047735, -0.2968749999981841),
          (3.3281250000001292, -0.29687499999570877), (3.328125000004799, -0.2968749999958862)])  # 2.04e-12 off
def test_hull_of_a_thin_set_keeps_its_contract(pts):
    cell = poly_cell(pts)
    verts = list(cell.base.vertices)
    drops = len(_dedup_points(pts)) - len(verts)  # at least the vertices the pass dropped
    assert max(ref_distance_to_hull(p, verts) for p in pts) <= (math.sqrt(2.0) + drops) * DEDUP_TOL
    assert not any(ref_close(u, w) for u, w in combinations(verts, 2))
    assert poly_cell(verts) == cell
