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
from hypothesis import example, given, settings, strategies as st

from randset.geometry import (
    Ball,
    ConvexCell,
    MembershipVerdict,
    Polytope,
    UnsupportedCellCombination,
    _cell_key,
    _cell_line,
    _cell_sum,
    _close,
    _poly_cell,
    as_vector,
    ball_cell,
    cell_distances,
    cone_is_subset,
    convex_hull,
    dual_direction,
    format_set_union,
    hausdorff,
    hausdorff_via_support,
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
# zero and negative-zero components; any such vector has norm <= sqrt(3) / 2
component = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-0.5, 0.5))


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
def union_and_directions(draw):
    dim = draw(st.integers(1, 3))
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
@given(st.integers(1, 3).flatmap(lambda dim: st.tuples(any_cell(dim, True), any_cell(dim, True))), st.integers(1, 64))
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
# The batched point and ray distance kernel against the scalar functions, bit
# for bit, and translate-group sums against the cell-by-cell Minkowski sum.


def ref_union_distance(p, u):
    return min(point_to_cell_distance(p, c) for c in u.cells)


def ref_recession_cone_detail(a):
    """The scalar loop: every foreign vertex's distance to C0, one at a time."""
    cones = [c.cone for c in a.cells]
    if all(k == cones[0] for k in cones):
        return cones[0], "shared", 0.0
    for i, c0 in enumerate(a.cells):
        if not all(cone_is_subset(c.cone, c0.cone) for c in a.cells):
            continue
        radius, ok = 0.0, True
        for j, c in enumerate(a.cells):
            if j == i:
                continue
            if isinstance(c.base, Ball):
                radius = max(radius, point_to_cell_distance(c.base.center, c0) + c.base.radius)
                continue
            for v in c.base.vertices:
                try:
                    radius = max(radius, point_to_cell_distance(v, c0))
                except UnsupportedCellCombination:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return c0.cone, "sandwich", radius
    return None, None, 0.0


def distance_outcome(f, *args):
    try:
        return repr(f(*args))
    except (ValueError, UnsupportedCellCombination) as e:
        return f"{type(e).__name__}: {e}"


@settings(max_examples=300, deadline=None)
@given(union_and_directions(), st.data())
def test_union_distance_bit_identical_to_cell_loop(case, data):
    u, _ = case
    x = data.draw(st.tuples(*[real] * u.dim))
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
@given(st.integers(1, 3).flatmap(lambda dim: st.tuples(translate_cells(dim, 6), st.lists(st.tuples(*[real] * dim)))))
def test_cell_distances_and_recession_bit_identical_to_scalar_loop(case):
    u, points = case
    assert distance_outcome(recession_cone_detail, u) == distance_outcome(ref_recession_cone_detail, u)
    for cell in u.cells:
        got = cell_distances(np.array(points).reshape(-1, u.dim), cell)
        assert [repr(float(d)) for d in got] == [repr(point_to_cell_distance(p, cell)) for p in points]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda dim: st.tuples(translate_cells(dim), translate_cells(dim))))
def test_translate_sum_is_the_minkowski_sum(pair):
    a, b = pair
    total = minkowski_sum(a, b)  # both are translate groups: one broadcast add per pair of cones
    assert not total.others
    assert total.cells == ref_union(_cell_sum(x, y) for x in a.cells for y in b.cells)
    p = (0.5,) * a.dim  # sector and full-space rows go through the cell loop
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


def ref_scale(lam, cells):
    """The cell-by-cell `scale`: a polytope is rebuilt only when two scaled
    vertices fall within DEDUP_TOL of each other."""
    out = []
    for c in cells:
        if isinstance(c.base, Ball):
            base = Ball(center=as_vector(tuple(lam * x for x in c.base.center)), radius=lam * c.base.radius)
        else:
            verts = [as_vector(tuple(lam * x for x in v)) for v in c.base.vertices]
            if any(_close(u, w) for u, w in combinations(verts, 2)):
                out.append(_poly_cell(verts, c.cone))
                continue
            base = Polytope(vertices=tuple(verts))
        out.append(ConvexCell(base=base, cone=c.cone))
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


@st.composite
def unit_or_any(draw, dim):
    if dim == 2 and draw(st.booleans()):
        t = draw(st.floats(-math.pi, math.pi))
        return (math.cos(t), math.sin(t))
    g = draw(st.tuples(*[real] * dim).filter(lambda g: math.hypot(*g) > 1e-3))
    return tuple(c / math.hypot(*g) for c in g) if draw(st.booleans()) else g


@st.composite
def canonical_cell(draw):
    dim = draw(st.integers(1, 3))
    g, h = draw(unit_or_any(dim)), draw(unit_or_any(dim))
    minus = tuple(-c for c in g)
    cones = {"none": [], "ray": [g], "sector": [g, h], "line": [g, minus], "half_plane": [g, minus, h]}
    gens = cones[draw(st.sampled_from(sorted(cones)))]
    if draw(st.booleans()):
        return ball_cell(draw(st.tuples(*[real] * dim)), draw(st.floats(0.0, 4.0)), gens)
    return poly_cell(draw(st.lists(st.tuples(*[real] * dim), min_size=1, max_size=4)), gens)


def rebuild(cell):
    if isinstance(cell.base, Polytope):
        return poly_cell(cell.base.vertices, cell.cone.generators, full_space=cell.cone.full_space)
    return ball_cell(cell.base.center, cell.base.radius, cell.cone.generators)


@settings(max_examples=300, deadline=None)
@given(canonical_cell())
@example(poly_cell([(0.0, 0.0, 0.0)], [(0.0, 0.0, 1.0), (0.0, 2.0, -5e-324)]))  # underflows to -0.0
@example(ball_cell((0.0, 0.0), 1.0, [(2.0, -5e-324)]))
def test_canonical_cell_is_a_fixed_point(cell):
    again = rebuild(cell)
    assert repr(again) == repr(cell)
    u = union_of([cell])
    assert parse_set_union(format_set_union(u)) == u
    assert len(union_of([cell, again]).cells) == 1
