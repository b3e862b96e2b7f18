"""Exact algebra of closed subsets of the line and the plane (d in {1, 2}).

The atom is a convex cell "base plus cone": the base is either a finite vertex
set (standing for its convex hull) or a closed ball, and the cone is a finitely
generated convex cone. Finite unions of cells are closed under Minkowski sums,
nonnegative scaling, and set union, which covers every shape the averaging
experiments produce: intervals, point lattices, balls, rays, translated rays,
and sectors.

All types are immutable values; every operation is a pure function, so sharing
across worker processes is safe. Cells are built in canonical form (extreme
vertices, unit extreme rays, no -0.0), and that form is a fixed point: a cell
rebuilt from its own fields by `poly_cell` or `ball_cell` is equal to it bit
for bit, so structural equality is the cell's identity.

A `SetUnion` has one form. Its one-vertex cells (points, translated rays and
sectors) are a translate group: one (m, d) array of distinct vertices per
cone, so sums of such unions are broadcast adds (`translate_sum`) and their
cell lines are written straight from the rows. Every other cell is kept as a
`ConvexCell`, one per value, in numeric key order. The tuple of all cells,
`SetUnion.cells`, is built only when asked for. `_cell_line` is serialization
only, and `format_set_union` sorts its lines. Every distance, from a point
to a cell or a union and in each exact or windowed Hausdorff path, and every
containment question (is a vertex absorbed, is a box corner inside a clipped
cell, is a vector in a cone) runs through one batched kernel,
`_polytope_distances` (behind `cell_distances`), that rounds bit for bit as
the scalar formulas do; no solver is used. Inside means within a stated
distance: at most DEDUP_TOL beyond a facet's line, or for a vector v, within
_CONE_TOL * |v| of a cone. The kernel measures the cells that share a cone
and a vertex count at once, so a translate group is one call. A cell with a
cone is read from its facets (Minkowski-Weyl: hull(V) + C is an intersection
of finitely many half-planes), so no distance or window clip cuts it first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

DEDUP_TOL = 1e-12
_CONE_TOL = 1e-9  # relative distance slack of cone_contains; angular slack of _canon_cone_2d
DEFAULT_CELL_BUDGET = 10**6
_EDGE_SAMPLES = 128  # subdivision used only for union-vs-union windowed sups


class GeometryError(Exception):
    pass


class UnsupportedCellCombination(GeometryError):
    pass


class CellBudgetExceeded(GeometryError):
    pass


class NegativeScale(GeometryError):
    pass


class UnboundedOperand(GeometryError):
    pass


class EmptyAfterWindow(GeometryError):
    pass


# ---------------------------------------------------------------------------
# vectors


def _check_dim(dim: int) -> None:
    if dim not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {dim}")


def as_vector(coords, dim: int | None = None) -> tuple[float, ...]:
    """Validate and normalize a coordinate sequence into a canonical tuple."""
    v = tuple(float(c) for c in coords)
    _check_dim(len(v))
    if dim is not None and len(v) != dim:
        raise ValueError(f"expected dimension {dim}, got {len(v)}")
    for c in v:
        if not math.isfinite(c):
            raise ValueError(f"non-finite coordinate in {coords!r}")
    # normalize -0.0 so canonical forms serialize identically
    return tuple(0.0 if c == 0.0 else c for c in v)


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vscale(t, a):
    return tuple(t * x for x in a)


def vdot(a, b):
    acc = 0.0  # coordinate order from +0.0; sum() compensates on Python >= 3.12
    for x, y in zip(a, b):
        acc += x * y
    return acc


def vnorm(a):
    return math.sqrt(vdot(a, a))


def dual_direction(coords, dim: int | None = None) -> tuple[float, ...]:
    """A probe direction from the dual unit ball (norm at most 1 + 1e-12)."""
    v = as_vector(coords, dim)
    if vnorm(v) > 1.0 + 1e-12:
        raise ValueError(f"dual direction {v} lies outside the unit ball")
    return v


def _cross2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _dedup_points(pts):
    out = []
    for p in sorted(pts):
        if not any(all(abs(x - y) <= DEDUP_TOL for x, y in zip(p, q)) for q in out):
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# cones


@dataclass(frozen=True)
class Cone:
    """Finitely generated convex cone in canonical form.

    Generators are unit vectors, deduplicated and sorted lexicographically.
    In d=2 the set is reduced to at most two extreme rays, except for the
    degenerate forms: a line keeps {u, -u}, a half-plane keeps
    {u, -u, inward normal}, and the full plane sets full_space instead.
    """

    dim: int
    generators: tuple[tuple[float, ...], ...] = ()
    full_space: bool = False

    @property
    def is_trivial(self) -> bool:
        return not self.full_space and not self.generators

    @staticmethod
    def trivial(dim: int) -> "Cone":
        _check_dim(dim)
        return Cone(dim=dim)

    @staticmethod
    def from_generators(dim: int, generators, full_space: bool = False) -> "Cone":
        _check_dim(dim)
        if full_space:
            return Cone(dim=dim, generators=(), full_space=True)
        units = []
        for g in generators:
            g = as_vector(g, dim)
            n = vnorm(g)
            if n <= DEDUP_TOL:
                raise ValueError("cone generator must be nonzero")
            # one division leaves the norm within 1.5 ulp of 1; dividing again
            # would move last bits, so a canonical cone is a fixed point.
            # as_vector again: a subnormal coordinate can underflow to -0.0
            units.append(g if abs(n - 1.0) <= 1e-15 else as_vector(vscale(1.0 / n, g)))
        units = _dedup_points(units)
        if not units:
            return Cone(dim=dim)
        if dim == 1:
            pos = any(g[0] > 0 for g in units)
            neg = any(g[0] < 0 for g in units)
            if pos and neg:
                return Cone(dim=1, full_space=True)
            return Cone(dim=1, generators=((1.0,),) if pos else ((-1.0,),))
        return _canon_cone_2d(units)

    def merge(self, other: "Cone") -> "Cone":
        if self.dim != other.dim:
            raise ValueError("cone dimension mismatch")
        if self.full_space or other.full_space:
            return Cone(dim=self.dim, full_space=True)
        if self.is_trivial:
            return other
        if other.is_trivial:
            return self
        return Cone.from_generators(self.dim, self.generators + other.generators)


def _canon_cone_2d(units) -> Cone:
    if len(units) == 1:
        return Cone(dim=2, generators=(units[0],))
    angles = sorted(range(len(units)), key=lambda i: math.atan2(units[i][1], units[i][0]))
    ordered = [units[i] for i in angles]
    th = [math.atan2(g[1], g[0]) for g in ordered]
    gaps = [th[(i + 1) % len(th)] - th[i] for i in range(len(th))]
    gaps[-1] += 2.0 * math.pi
    widest = max(range(len(gaps)), key=lambda i: gaps[i])
    gap = gaps[widest]
    if gap > math.pi + _CONE_TOL:
        # pointed sector: extreme rays flank the widest empty arc
        return Cone(dim=2, generators=tuple(sorted((ordered[widest], ordered[(widest + 1) % len(ordered)]))))
    if gap >= math.pi - _CONE_TOL:
        # generators fill a closed half-plane: either a line or a half-plane
        u = ordered[(widest + 1) % len(ordered)]
        line = (u, as_vector(vscale(-1.0, u)))
        interior = [g for g in ordered if abs(_cross2(u, g)) > _CONE_TOL]
        if len(ordered) == 2 or not interior:  # every generator lies on the line
            return Cone(dim=2, generators=tuple(sorted(line)))
        n = (-u[1], u[0])
        if vdot(n, interior[0]) < 0:
            n = (u[1], -u[0])
        return Cone(dim=2, generators=tuple(sorted(line + (as_vector(n),))))
    return Cone(dim=2, full_space=True)


def cone_contains(cone: Cone, v) -> bool:
    """Whether v lies within DEDUP_TOL of 0 or _CONE_TOL * |v| of the cone, measured by the
    kernel at v / |v| (a cone is scale-free), where its facet slack DEDUP_TOL is the lesser."""
    v = as_vector(v, cone.dim)
    n = vnorm(v)
    return n <= DEDUP_TOL or _polytope_distances(np.array([v]) / n, np.zeros((1, 1, cone.dim)), cone)[0, 0] <= _CONE_TOL


def cone_is_subset(inner: Cone, outer: Cone) -> bool:
    if inner.is_trivial:
        return True
    if outer.full_space:
        return True
    if inner.full_space:
        return False
    return all(cone_contains(outer, g) for g in inner.generators)


# ---------------------------------------------------------------------------
# bases and cells


@dataclass(frozen=True)
class Polytope:
    """Nonredundant vertex list; stands for the convex hull of the vertices."""

    vertices: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class Ball:
    center: tuple[float, ...]
    radius: float


@dataclass(frozen=True)
class ConvexCell:
    base: Polytope | Ball
    cone: Cone

    @property
    def dim(self) -> int:
        return self.cone.dim

    @property
    def is_bounded(self) -> bool:
        return self.cone.is_trivial

    @property
    def is_point(self) -> bool:
        return isinstance(self.base, Polytope) and len(self.base.vertices) == 1 and self.cone.is_trivial


def extreme_points(points, dim: int):
    """The vertices of the convex hull of a finite point set. A point within
    DEDUP_TOL of a kept one in every coordinate merges into it
    (`_dedup_points`), so no two vertices lie within DEDUP_TOL of each other,
    and `_hull_2d` drops a vertex only within DEDUP_TOL of the hull left: an
    input point lies within DEDUP_TOL of the hull per merge or drop it meets.
    The vertices run counterclockwise from the smallest one, or are the two
    sorted ends of a segment (in d = 1, of an interval)."""
    pts = _dedup_points([as_vector(p, dim) for p in points])
    if not pts:
        raise ValueError("polytope needs at least one vertex")
    if len(pts) == 1:
        return pts
    if dim == 1 or len(pts) == 2:  # an interval or a segment: its two sorted ends
        return [pts[0], pts[-1]]
    return _hull_2d(pts)


def _near_segment(p, a, b):
    dx, dy, px, py = b[0] - a[0], b[1] - a[1], p[0] - a[0], p[1] - a[1]
    t = min(1.0, max(0.0, (px * dx + py * dy) / ((dx * dx + dy * dy) or 1.0)))  # a == b: near the point a
    return math.hypot(px - t * dx, py - t * dy) <= DEDUP_TOL


def _hull_2d(pts):
    """`extreme_points` of sorted points: A. M. Andrew's monotone chain (1979)
    with exact turns, then the first vertex within DEDUP_TOL of the segment
    joining its neighbours is dropped, one at a time, until none is."""
    hull = []
    for seq in (pts, pts[::-1]):  # the lower chain, then the upper
        start = len(hull)
        for p in seq:
            while len(hull) >= start + 2 and _cross2(vsub(hull[-1], hull[-2]), vsub(p, hull[-2])) <= 0.0:
                hull.pop()
            hull.append(p)
        hull.pop()
    while len(hull) > 2:  # rounding can put a vertex in both chains, between equal neighbours
        near = [_near_segment(v, a, b) for a, v, b in zip(hull[-1:] + hull, hull, hull[1:] + hull[:1])]
        if True not in near:
            break
        hull.pop(near.index(True))
    first = hull.index(min(hull))  # two vertices: sorted
    return hull[first:] + hull[:first]


def _drop_absorbed(vertices, cone: Cone):
    """The vertices left after dropping, one at a time, each vertex that
    `cell_distances` puts within DEDUP_TOL of the convex hull of the others
    plus the cone."""
    kept = list(vertices)
    i = 0
    while i < len(kept):
        others = ConvexCell(base=Polytope(vertices=tuple(kept[:i] + kept[i + 1 :])), cone=cone)
        if others.base.vertices and cell_distances([kept[i]], others)[0] <= DEDUP_TOL:
            kept.pop(i)
        else:
            i += 1
    return kept


def poly_cell(vertices, cone_generators=(), dim: int | None = None, full_space: bool = False) -> ConvexCell:
    verts = [as_vector(v, dim) for v in vertices]
    return _poly_cell(verts, Cone.from_generators(len(verts[0]), cone_generators, full_space=full_space))


def _poly_cell(vertices, cone: Cone) -> ConvexCell:
    """hull(vertices) + cone, canonical for a canonical cone; its base keeps the `extreme_points` contract."""
    d = cone.dim
    if cone.full_space:  # the whole space: one canonical base, the origin
        return ConvexCell(base=Polytope(vertices=(tuple(0.0 for _ in range(d)),)), cone=cone)
    ext = extreme_points(vertices, d)
    if len(ext) > 1 and not cone.is_trivial:
        ext = extreme_points(_drop_absorbed(ext, cone), d)
    return ConvexCell(base=Polytope(vertices=tuple(ext)), cone=cone)


def ball_cell(center, radius: float, cone_generators=(), full_space: bool = False) -> ConvexCell:
    c = as_vector(center)
    return _ball_cell(c, float(radius), Cone.from_generators(len(c), cone_generators, full_space=full_space))


def _ball_cell(center, radius: float, cone: Cone) -> ConvexCell:
    """The canonical cell ball(center, radius) + cone, for a cone already
    canonical; a radius that is not finite and nonnegative raises."""
    if not math.isfinite(radius) or radius < 0:
        raise ValueError(f"ball radius must be finite and nonnegative, got {radius}")
    radius += 0.0  # -0.0 -> 0.0
    if cone.full_space:  # the whole space has one canonical form, a polytope cell's
        return _poly_cell([center], cone)
    return ConvexCell(base=Ball(center=center, radius=radius), cone=cone)


def point_cell(p) -> ConvexCell:
    return poly_cell([p])


def ray_cell(origin, direction) -> ConvexCell:
    return poly_cell([origin], cone_generators=[direction])


def interval_cell(lo: float, hi: float) -> ConvexCell:
    if hi < lo:
        raise ValueError("interval endpoints out of order")
    return poly_cell([(lo,), (hi,)])


# ---------------------------------------------------------------------------
# unions


def _cone_key(cone: Cone):
    return (cone.full_space, cone.generators)


@dataclass(frozen=True, eq=False, repr=False)
class SetUnion:
    """A finite union of convex cells, held in one canonical form.

    `groups` is the translate group: it maps a canonical cone to an (m, d)
    array of vertices, sorted and distinct by value, and stands for the cells
    vertex + cone, one per row. Every one-vertex polytope cell lives there.
    `others` holds every other cell (segments, polygons, balls), distinct and
    in `_cell_key` order. Equality, hashing and `repr` are by value.
    """

    groups: dict
    others: tuple[ConvexCell, ...] = ()

    def __post_init__(self):
        for A in self.groups.values():
            A.flags.writeable = False
        if len(self.groups) > 1:
            object.__setattr__(self, "groups", dict(sorted(self.groups.items(), key=lambda kv: _cone_key(kv[0]))))

    @cached_property
    def _value(self):
        return tuple((cone, A.tobytes()) for cone, A in self.groups.items()), self.others  # a cone fixes d

    def __eq__(self, other):
        return self._value == other._value if isinstance(other, SetUnion) else NotImplemented

    def __hash__(self):
        return hash(self._value)

    def __repr__(self):
        groups = ", ".join(f"{cone!r}: {tuple(map(tuple, A.tolist()))!r}" for cone, A in self.groups.items())
        return f"SetUnion(groups={{{groups}}}, others={self.others!r})"

    @property
    def dim(self) -> int:
        return next(iter(self.groups)).dim if self.groups else self.others[0].dim

    @property
    def cell_count(self) -> int:
        return sum(map(len, self.groups.values())) + len(self.others)

    @property
    def is_bounded(self) -> bool:
        return all(cone.is_trivial for cone in self.groups) and all(c.is_bounded for c in self.others)

    @cached_property
    def cells(self) -> tuple[ConvexCell, ...]:
        """Every cell as a `ConvexCell`, in `_cell_key` order; built on first use."""
        rows = [ConvexCell(base=Polytope(vertices=(tuple(v),)), cone=cone)
                for cone, A in self.groups.items() for v in A.tolist()]
        return tuple(sorted(rows + list(self.others), key=_cell_key))

    @cached_property
    def _stack(self):
        """`_stack_cells` of the union, built on the first support query."""
        return _stack_cells(self.others, self.groups)


def _union(groups: dict, cells) -> SetUnion:
    """The canonical union of the rows of `groups` and of `cells`: one-vertex
    cells join the rows of their cone, the rows are deduplicated by value, and
    the other cells are deduplicated by value and sorted."""
    rows = {cone: [A] for cone, A in groups.items()}
    verts, others = {}, set()
    for c in cells:
        if isinstance(c.base, Polytope) and len(c.base.vertices) == 1:
            verts.setdefault(c.cone, []).append(c.base.vertices[0])
        else:
            others.add(c)
    for cone, v in verts.items():
        rows.setdefault(cone, []).append(np.array(v))
    return SetUnion({cone: _unique_rows(np.concatenate(parts)) for cone, parts in rows.items()},
                    tuple(sorted(others, key=_cell_key)))


def union_of(cells) -> SetUnion:
    cells = list(cells)
    if not cells:
        raise ValueError("a set union needs at least one cell")
    d = cells[0].dim
    if any(c.dim != d for c in cells):
        raise ValueError("mixed dimensions in one union")
    return _union({}, cells)


def _cell_key(cell: ConvexCell):
    """Numeric sort key, distinct for distinct cells: balls, then polytopes."""
    b = cell.base
    base = (0, (b.center,), b.radius) if isinstance(b, Ball) else (1, b.vertices, 0.0)
    return base + _cone_key(cell.cone)


def point_union(points) -> SetUnion:
    """`union_of(point_cell(p) for p in points)`, canonicalised as one array.
    Input that is not a finite (m, d) array with d in {1, 2} goes through
    that expression, so it raises the same error."""
    points = list(points)
    try:
        P = np.array(points, dtype=float)
    except (TypeError, ValueError):
        P = None
    if P is None or P.ndim != 2 or P.shape[1] not in (1, 2) or not np.isfinite(P).all():
        return union_of(point_cell(p) for p in points)
    return SetUnion({Cone.trivial(P.shape[1]): _unique_rows(P + 0.0)})


# ---------------------------------------------------------------------------
# serialization: one cell per line, 17 significant digits for round trips


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _fmt_vec(v) -> str:
    return "(" + ",".join(_fmt(c) for c in v) + ")"


def _cone_suffix(cone: Cone) -> str:
    if cone.full_space:
        return " cone full"
    if cone.generators:
        return " cone g=" + ";".join(_fmt_vec(g) for g in cone.generators)
    return ""


def _cell_line(cell: ConvexCell) -> str:
    if isinstance(cell.base, Polytope):
        base = "poly v=" + ";".join(_fmt_vec(v) for v in cell.base.vertices)
    else:
        base = f"ball c={_fmt_vec(cell.base.center)} r={_fmt(cell.base.radius)}"
    return f"CELL {base}" + _cone_suffix(cell.cone)


def format_set_union(u: SetUnion) -> str:
    """One `_cell_line` per cell, sorted; a translate-group row is written
    straight from the array ("%.17g" formats as `_fmt` does)."""
    lines = [_cell_line(c) for c in u.others]
    for cone, A in u.groups.items():
        line = "CELL poly v=(" + ",".join(["%.17g"] * A.shape[1]) + ")" + _cone_suffix(cone)
        lines += [line % tuple(v) for v in A.tolist()]
    return "\n".join(sorted(lines)) + "\n"


def _parse_vec(text: str):
    return tuple(float(t) for t in text.strip("()").split(","))


def parse_set_union(text: str) -> SetUnion:
    cells = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if not line.startswith("CELL "):
            raise ValueError(f"bad cell line: {raw!r}")
        body = line[5:]
        cone_gens: list = []
        full = False
        if " cone full" in body:
            body = body.replace(" cone full", "")
            full = True
        elif " cone g=" in body:
            body, gens = body.split(" cone g=")
            cone_gens = [_parse_vec(t) for t in gens.split(";")]
        if body.startswith("poly v="):
            verts = [_parse_vec(t) for t in body[len("poly v=") :].split(";")]
            cells.append(poly_cell(verts, cone_gens, full_space=full))
        elif body.startswith("ball c="):
            rest = body[len("ball c=") :]
            cpart, rpart = rest.split(" r=")
            cells.append(ball_cell(_parse_vec(cpart), float(rpart), cone_gens, full_space=full))
        else:
            raise ValueError(f"bad cell line: {raw!r}")
    return union_of(cells)


# ---------------------------------------------------------------------------
# Minkowski sum, scaling, hulls


def _cell_sum(a: ConvexCell, b: ConvexCell) -> ConvexCell:
    cone = a.cone.merge(b.cone)
    pa, pb = isinstance(a.base, Polytope), isinstance(b.base, Polytope)
    if pa and pb:
        return _poly_cell([vadd(u, v) for u in a.base.vertices for v in b.base.vertices], cone)
    if not pa and not pb:
        return _ball_cell(vadd(a.base.center, b.base.center), a.base.radius + b.base.radius, cone)
    ball, poly = (a, b) if pb else (b, a)
    if len(poly.base.vertices) == 1:
        return _ball_cell(vadd(ball.base.center, poly.base.vertices[0]), ball.base.radius, cone)
    raise UnsupportedCellCombination("polytope base (+) ball base is not supported")


def minkowski_sum(a: SetUnion, b: SetUnion, cell_budget: int | None = None) -> SetUnion:
    return _minkowski_sum(a, b, cell_budget)


def _minkowski_sum(a: SetUnion, b: SetUnion, cell_budget: int | None = None) -> SetUnion:
    """The sum behind `minkowski_sum`: two translate groups add as arrays
    (`translate_sum`), any other pair cell by cell. Expansion steps call it
    directly, so that bench/tracer.py, which wraps `minkowski_sum` and reads
    the `.cells` of its operands, neither times each step nor builds cells."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    budget = DEFAULT_CELL_BUDGET if cell_budget is None else cell_budget
    if a.cell_count * b.cell_count > budget:
        raise CellBudgetExceeded(f"{a.cell_count * b.cell_count} cells would exceed the budget of {budget}")
    if not a.others and not b.others:
        return SetUnion(translate_sum(a.groups, b.groups))
    return union_of(_cell_sum(ca, cb) for ca, cb in product(a.cells, b.cells))


def scale(lam: float, a: SetUnion) -> SetUnion:
    """lam * a. Every other cell is rebuilt in canonical form from its scaled
    base, so it equals `poly_cell` or `ball_cell` of that base."""
    if lam < 0:
        raise NegativeScale("scaling factor must be nonnegative")
    if lam == 0:
        return point_union([(0.0,) * a.dim])
    with np.errstate(over="ignore"):
        groups = {cone: A * lam + 0.0 for cone, A in a.groups.items()}  # + 0.0: no -0.0, as in as_vector
    for A in groups.values():
        if not np.isfinite(A).all():
            as_vector(A[~np.isfinite(A).all(axis=1)][0].tolist())  # raises as a scaled cell does
    cells = []
    for c in a.others:
        if isinstance(c.base, Polytope):
            cells.append(_poly_cell([vscale(lam, v) for v in c.base.vertices], c.cone))
        else:
            cells.append(_ball_cell(as_vector(vscale(lam, c.base.center)), lam * c.base.radius, c.cone))
    return _union(groups, cells)


def convex_hull(a: SetUnion) -> ConvexCell:
    balls = [c for c in a.cells if isinstance(c.base, Ball)]
    if balls:
        if len(a.cells) == 1:
            return a.cells[0]
        raise UnsupportedCellCombination("hull of unions containing balls is not supported")
    verts = [v for c in a.cells for v in c.base.vertices]
    cone = Cone.trivial(a.dim)
    for c in a.cells:
        cone = cone.merge(c.cone)
    return _poly_cell(verts, cone)


# ---------------------------------------------------------------------------
# translate groups: the one-vertex cells of a union, as one array per cone

_ROW_SCALARS = {1: np.float64, 2: np.complex128}  # a row as one scalar that sorts lexicographically


def _unique_rows(A: np.ndarray) -> np.ndarray:
    """The rows of A that differ by value, sorted. A row sorts as one real or
    complex scalar; the stable sort merges the nearly sorted runs that
    `translate_sum` concatenates in about linear time."""
    s = np.sort(np.ascontiguousarray(A).view(_ROW_SCALARS[A.shape[1]]).ravel(), kind="stable")
    return s[np.r_[True, s[1:] != s[:-1]]].view(np.float64).reshape(-1, A.shape[1])


def translate_sum(a: dict, b: dict) -> dict:
    """Minkowski sum of two translate groups.

    A translate group maps a canonical cone to an (m, d) array of canonical
    vertices and stands for the cells vertex + cone, one per row. The sum of
    two such cells is the vertex sum under the merged cone (vertex sums as in
    Fukuda 2004), so a pair of groups costs one broadcast add and one
    `Cone.merge`, and the rows are then deduplicated by value as `union_of`
    deduplicates cells. `+ 0.0` turns -0.0 into 0.0 as `as_vector` does, and
    a full-space cone keeps the origin alone, as `_poly_cell` does.
    """
    out: dict = {}
    for ca, A in a.items():
        for cb, B in b.items():
            cone = ca.merge(cb)
            d = cone.dim
            pts = np.zeros((1, d)) if cone.full_space else (A[:, None, :] + B[None, :, :]).reshape(-1, d) + 0.0
            out.setdefault(cone, []).append(pts)
    return {cone: _unique_rows(np.concatenate(parts)) for cone, parts in out.items()}


# ---------------------------------------------------------------------------
# support functions


def _coord_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> along the last axis, broadcast over the others.

    Each sum runs in coordinate order from +0.0 with elementwise * and + only,
    the rounding of `vdot`, so every entry is bit-identical to it and never
    -0.0. `@`, np.dot, einsum and BLAS may reorder or fuse the operations.
    """
    acc = 0.0
    for k in range(a.shape[-1]):
        acc = acc + a[..., k] * b[..., k]
    return acc


def _stack_cells(cells, groups=None):
    """(points, n_verts, radii, full_space) of `cells` and of the cells of a
    translate group, for `_support_rows`.

    points stacks the group rows and the polytope vertices, then the ball
    centres (radii in the same order), then the cone generators, each cone's
    once: a support value is a max, so neither order nor repeats change it.
    """
    groups = groups or {}
    verts = [v for c in cells if isinstance(c.base, Polytope) for v in c.base.vertices]
    balls = [c.base for c in cells if isinstance(c.base, Ball)]
    cones = [c.cone for c in cells] + list(groups)
    rest = np.array(verts + [b.center for b in balls] + [g for k in cones for g in k.generators])
    points = np.concatenate([*groups.values(), rest.reshape(-1, cones[0].dim)]) if groups else rest
    n_verts = sum(map(len, groups.values())) + len(verts)
    return points, n_verts, np.array([b.radius for b in balls]), any(k.full_space for k in cones)


def _support_rows(U: np.ndarray, stack) -> np.ndarray:
    """Support along every row u of the (m, d) matrix U of the union of the
    cells that `_stack_cells` stacked.

    One pass of dot products against the stacked points. A row is the max of
    <u, v> over polytope vertices v and of <u, c> + r * sqrt(<u, u>) over ball
    bases (c, r); it is +inf where a cone generator g has <u, g> > 0 or a
    full-space cell meets a nonzero u. Every dot product follows the
    `_coord_dot` rounding contract (coordinate-order sums from +0.0, no BLAS),
    so each entry equals the scalar formula bit for bit.
    """
    points, n_verts, radii, full_space = stack
    n_base = n_verts + len(radii)
    D = _coord_dot(U[:, None, :], points)
    if len(radii):
        D[:, n_verts:n_base] += radii * np.sqrt(_coord_dot(U, U))[:, None]
    out = D[:, :n_base].max(axis=1)
    if n_base < len(points):
        out[(D[:, n_base:] > 0.0).any(axis=1)] = np.inf
    if full_space:
        out[_coord_dot(U, U) > 0.0] = np.inf
    return out


def support(x_star, a: SetUnion) -> float:
    """sup of <x_star, x> over the union; +inf when a cone direction escapes.

    The one-row case of `_support_rows`, so it rounds as `vdot` does:
    coordinate-order sums from +0.0, no BLAS, and never -0.0.
    """
    x_star = dual_direction(x_star, a.dim)
    return float(_support_rows(np.array([x_star]), a._stack)[0])


@dataclass(frozen=True)
class MembershipVerdict:
    inside: bool
    witness: tuple[float, ...] | None = None


def hull_membership_via_support(x, a: SetUnion, directions) -> MembershipVerdict:
    """Necessary-condition hull membership check over sampled directions.

    Returns separated with the first witness direction whose x* has
    <x*, x> exceeding the support by more than 1e-9; otherwise inside. A
    zero, out-of-ball or malformed direction raises only when no earlier
    direction separates.
    """
    if len(directions) == 0:  # a truth test is ambiguous for an (m, d) array
        raise ValueError("directions must be nonempty")
    x = as_vector(x, a.dim)
    rows, error = [], None
    for d in directions:
        try:
            d = dual_direction(d, a.dim)
            if vnorm(d) <= DEDUP_TOL:
                raise ValueError("separation directions must be nonzero")
        except (TypeError, ValueError) as e:
            error = e
            break
        rows.append(d)
    if rows:
        U = np.array(rows)
        separated = np.flatnonzero(_coord_dot(U, np.array(x)) > _support_rows(U, a._stack) + 1e-9)
        if len(separated):
            return MembershipVerdict(inside=False, witness=rows[separated[0]])
    if error is not None:
        raise error
    return MembershipVerdict(inside=True)


# ---------------------------------------------------------------------------
# distances


def _norms(W: np.ndarray) -> np.ndarray:
    return np.sqrt(_coord_dot(W, W))


def _pymax(a, b):
    """Python's max(a, b) elementwise: a unless b > a, so a zero keeps its sign."""
    return np.where(b > a, b, a)


def _segment_distances(P: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Distances from the broadcast points P to the segments [A, B], whose
    ends are distinct. The foot parameter is clamped as max(0.0, min(1.0, t))."""
    AB = B - A
    t = _coord_dot(P - A, AB) / _coord_dot(AB, AB)
    t = _pymax(0.0, np.where(t < 1.0, t, 1.0))
    return _norms(P - (A + t[..., None] * AB))


def _ray_distances(P: np.ndarray, V: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Distance from P to the rays V + t g (t >= 0), broadcast row by row."""
    W = P - V
    t = _coord_dot(W, g) / _coord_dot(g, g)
    return np.where(t <= 0, _norms(W), _norms(P - (V + t[..., None] * g)))


def _polytope_distances(P: np.ndarray, V: np.ndarray, cone: Cone) -> np.ndarray:
    """(m, r) distances from the rows of P to the r cells hull(V_i) + cone,
    for an (r, k, d) array V of canonical vertex lists (counterclockwise in
    d = 2) under one canonical cone: a translate group is A[:, None, :], one
    cell verts[None]. Each step is elementwise along the r axis, and a row
    enters only through its own vertices a_i, as p - a_i and p - (a_i + t g),
    so column i rounds as the one-cell call on V_i does. A line that is no
    facet of the cone is masked, not dropped, so every cell keeps one count.

    A point or a ray (k = 1, at most one generator) is the distance to it,
    the full space is 0.0, and d = 1 is the distance to an interval whose
    ends a cone moves to -inf or +inf. In d = 2 a cell is the intersection of
    its facet half-planes (Minkowski-Weyl): the hull edges whose outward
    normal lies in the polar cone C° = {n : <n, g> <= 0 for every generator
    g}, and the lines through the extreme vertex along +g and -g of each
    generator where that normal lies in C°. A point at most DEDUP_TOL beyond
    every facet's line (cross product with the direction D at least
    -DEDUP_TOL * |D|) is at 0.0; otherwise its distance is the least to a
    hull edge or to a ray v + t g, since the boundary lies in those pieces.
    A bounded polygon has no rays and keeps every edge as a facet.
    """
    r, k, d = V.shape
    X = P[:, None, :]
    if cone.full_space:
        return np.zeros((len(P), r))
    if k == 1 and len(cone.generators) < 2:
        return _norms(X - V[:, 0]) if cone.is_trivial else _ray_distances(X, V[:, 0], np.array(cone.generators[0]))
    if d == 1:
        lo = -math.inf if (-1.0,) in cone.generators else V[:, 0, 0]
        hi = math.inf if (1.0,) in cone.generators else V[:, -1, 0]
        return _pymax(_pymax(lo - P, P - hi), 0.0)
    if k == 2 and cone.is_trivial:
        return _segment_distances(X, V[:, 0], V[:, 1])
    G = np.array(cone.generators).reshape(-1, 2)
    n = k if k > 1 else 0  # a lone vertex has no edges
    E = np.concatenate([V[:, 1:], V[:, :1]], axis=1)[:, :n]  # each next vertex, in one copy: a small fixed cost on one row
    O, D = V[:, :n], E - V[:, :n]  # each facet as an origin and a direction, the cell on its left
    facet = True
    if len(G):
        S = np.concatenate([G, -G])
        extreme = np.argmin(S[:, None, 0] * V[:, None, :, 1] - S[:, None, 1] * V[:, None, :, 0], axis=2)
        O = np.concatenate([O, V[np.arange(r)[:, None], extreme]], axis=1)
        D = np.concatenate([D, S[None].repeat(r, axis=0)], axis=1)
        facet = (D[..., None, 1] * G[:, 0] - D[..., None, 0] * G[:, 1] <= 0.0).all(axis=2)  # <(D_y, -D_x), g> <= 0
    W = X[:, None] - O
    outside = ((D[..., 0] * W[..., 1] - D[..., 1] * W[..., 0] < -DEDUP_TOL * _norms(D)) & facet).any(axis=2)
    pieces = [_segment_distances(X[:, None], V[:, :n], E)] + [_ray_distances(X[:, None], V, g) for g in G]
    return np.where(outside, np.concatenate(pieces, axis=2).min(axis=2), 0.0)


def cell_distances(points, cell: ConvexCell) -> np.ndarray:
    """Euclidean distance from each row of an (m, d) array to a convex cell.

    The one distance kernel. It covers balls and, as the one column of
    `_polytope_distances`, every polytope cell: points, rays, segments, d = 1
    intervals, 2-d convex polygons and 2-d cells under any cone, read from
    their facets with no bound on the points. Each entry equals the scalar
    formula on that row bit for bit: elementwise numpy and `_coord_dot` sums
    only (no `@`, einsum or BLAS), Python's max and min as `np.where`
    comparisons, and -0.0 read as 0.0, as `as_vector` does. Raises
    UnsupportedCellCombination, for any m, for a ball with a cone.
    """
    P = np.asarray(points, dtype=float) + 0.0
    if isinstance(cell.base, Ball):
        if not cell.cone.is_trivial:
            raise UnsupportedCellCombination("distance to ball-with-cone cells is not supported")
        return _pymax(0.0, _norms(P - np.array(cell.base.center)) - cell.base.radius)
    return _polytope_distances(P, np.array(cell.base.vertices)[None], cell.cone)[:, 0]


def point_to_cell_distance(p, cell: ConvexCell) -> float:
    """Euclidean distance from a point to a convex cell: the one-row case of
    `cell_distances`, with its kinds, rounding and refusals."""
    return float(cell_distances([as_vector(p, cell.dim)], cell)[0])


def point_to_union_distance(p, u: SetUnion) -> float:
    """The least point_to_cell_distance over the cells, bit for bit: one
    kernel call per translate group, whatever its cone, and one per other
    cell. Only an other cell can raise, and they run in `.cells` order, so
    the first to raise is the one a cell loop meets."""
    P = np.array([as_vector(p, u.dim)])
    out = [_polytope_distances(P, A[:, None, :], cone).min() for cone, A in u.groups.items()]
    return float(min(out + [cell_distances(P, c)[0] for c in u.others]))


# ---------------------------------------------------------------------------
# Hausdorff distance (exact cases)


def _intervals(u: SetUnion, R: float = math.inf) -> np.ndarray:
    """The (lo, hi) rows of the cells of a d = 1 union clipped to [-R, R],
    sorted; a cell that misses [-R, R] gives no row. A cone holding -1
    carries a cell's lower end to -R, one holding +1 its upper end to R. The
    exact path reads a bounded union with R = inf, where nothing moves."""
    ends = []
    for cone, A in u.groups.items():
        down, up = (cone.full_space or g in cone.generators for g in ((-1.0,), (1.0,)))
        ends += [(-R if down else x, R if up else x) for x in A[:, 0].tolist()]
    for c in u.others:
        if isinstance(c.base, Ball):
            ends.append((c.base.center[0] - c.base.radius, c.base.center[0] + c.base.radius))
        else:
            ends.append((c.base.vertices[0][0], c.base.vertices[-1][0]))
    lo, hi = np.array(ends).T
    lo, hi = np.maximum(lo, -R), np.minimum(hi, R)
    rows = np.column_stack([lo, hi])[lo <= hi]
    return rows[np.lexsort((rows[:, 1], rows[:, 0]))]


def _to_intervals(x: np.ndarray, lo: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """Distance from each x to sorted intervals with left ends lo and running
    right ends reach: 0 when covered, else the nearer of the reach before x and
    the next lo. Rounding is monotone, so this is the least per-interval
    distance bit for bit."""
    k = np.searchsorted(lo, x, side="right")
    left = np.where(k > 0, x - reach[k - 1], np.inf)  # reach[-1] where k = 0 is masked
    right = np.where(k < len(lo), lo[np.minimum(k, len(lo) - 1)] - x, np.inf)
    return np.where(left > 0.0, np.minimum(left, right), 0.0)


def _directed_1d(a, b) -> float:
    """sup over A of d(., B), for `_intervals` rows. It is attained at A's
    endpoints or at midpoints of B's gaps that lie in A (local maxima of the
    piecewise-linear distance). A gap of B starts at the running right end of
    the intervals before it, because a nested interval can end before the one
    preceding it does."""
    (lo_a, hi_a), (lo_b, hi_b) = a.T, b.T
    reach = np.maximum.accumulate(hi_b)
    gap = lo_b[1:] > reach[:-1]
    mid = 0.5 * (reach[:-1][gap] + lo_b[1:][gap])
    in_a = _to_intervals(mid, lo_a, np.maximum.accumulate(hi_a)) == 0.0
    return float(_to_intervals(np.concatenate([lo_a, hi_a, mid[in_a]]), lo_b, reach).max())


def _point_rows(u: SetUnion):
    """The (m, d) array of u's points when u is a finite point set, else None."""
    if u.others or len(u.groups) != 1 or not next(iter(u.groups)).is_trivial:
        return None
    return next(iter(u.groups.values()))


def _hausdorff_points(A: np.ndarray, B: np.ndarray) -> float:
    """Squared distances summed coordinate by coordinate, then one sqrt of
    the max-min, which is exact: sqrt is correctly rounded and monotone."""
    D2 = sum(np.subtract.outer(A[:, k], B[:, k]) ** 2 for k in range(A.shape[1]))
    return float(np.sqrt(max(D2.min(axis=1).max(), D2.min(axis=0).max())))


def _hausdorff_convex_pair(a: ConvexCell, b: ConvexCell) -> float:
    ba, bb = isinstance(a.base, Ball), isinstance(b.base, Ball)
    if ba and bb:
        dc = vnorm(vsub(a.base.center, b.base.center))
        return dc + abs(a.base.radius - b.base.radius)
    if ba or bb:
        ball, other = (a, b) if ba else (b, a)
        if other.is_point:
            dc = vnorm(vsub(ball.base.center, other.base.vertices[0]))
            return dc + ball.base.radius
        raise UnsupportedCellCombination("exact ball-vs-polytope Hausdorff is not supported")
    # distance to a convex set is convex, so each directed sup sits at a vertex
    return float(max(cell_distances(a.base.vertices, b).max(), cell_distances(b.base.vertices, a).max()))


def hausdorff(a: SetUnion, b: SetUnion) -> float:
    """Exact Hausdorff distance between bounded unions.

    Exact cases: any bounded union in d=1; finite point sets in d=2; single
    convex cell pairs (polytope-polytope, ball-ball, point-ball).
    Any other pair raises UnsupportedCellCombination rather than
    approximating.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    if not (a.is_bounded and b.is_bounded):
        raise UnboundedOperand("use hausdorff_windowed for unbounded operands")
    if a.dim == 1:
        ai, bi = _intervals(a), _intervals(b)
        return max(_directed_1d(ai, bi), _directed_1d(bi, ai))
    pa, pb = _point_rows(a), _point_rows(b)
    if pa is not None and pb is not None:
        return _hausdorff_points(pa, pb)
    if a.cell_count == 1 and b.cell_count == 1:
        return _hausdorff_convex_pair(a.cells[0], b.cells[0])
    raise UnsupportedCellCombination(
        "exact Hausdorff needs d=1 unions, point sets, or single convex cells"
    )


# ---------------------------------------------------------------------------
# windowed Hausdorff for unbounded operands


def _box_clips(A: np.ndarray, T: np.ndarray, cone: Cone, R: float) -> list:
    """The cells A_i + hull(T) + cone, for the rows A_i, a canonical vertex
    list T and a 2-d cone, clipped to the box [-R, R]^2 as `extreme_points`
    lists; a cell that misses the box gives none. A clip is the hull of the
    cell's vertices inside the box, the box corners that `_polytope_distances`
    puts inside the cell, and the crossings of the box's sides with the
    cell's edges and rays, the crossed coordinate set exactly to +-R. A ray
    v + t g is drawn as the segment from v to v + (|v| + 2R) g, whose far end
    lies outside the box. A vertex or crossing may lie DEDUP_TOL outside the
    box, as one on the box does after rounding."""
    V = A[:, None, :] + T
    corners = R * np.array([(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)])
    pts = [V, np.broadcast_to(corners, (len(A), 4, 2))]
    keep = [(np.abs(V) <= R + DEDUP_TOL).all(axis=2),
            _polytope_distances((corners - A[:, None, :]).reshape(-1, 2), T[None], cone).reshape(-1, 4) == 0.0]
    n = len(T) if len(T) > 2 else len(T) - 1  # hull edges: a segment has one, a point none
    P, Q, reach = V[:, :n], np.concatenate([V[:, 1:], V[:, :1]], axis=1)[:, :n], (_norms(V) + 2.0 * R)[..., None]
    for g in np.array(cone.generators).reshape(-1, 2):
        P, Q = np.concatenate([P, V], axis=1), np.concatenate([Q, V + reach * g], axis=1)
    for k, side in product((0, 1), (R, -R)):
        with np.errstate(all="ignore"):  # an edge that does not cross may divide by 0
            X = P + ((side - P[..., k]) / (Q[..., k] - P[..., k]))[..., None] * (Q - P)
        X[..., k] = side
        pts.append(X)
        keep.append(((P[..., k] - side) * (Q[..., k] - side) < 0.0) & (np.abs(X[..., 1 - k]) <= R + DEDUP_TOL))
    pts, keep = np.concatenate(pts, axis=1), np.concatenate(keep, axis=1)
    return [extreme_points(p[m].tolist(), 2) for p, m in zip(pts, keep) if m.any()]


def _window_pieces(u: SetUnion, R: float) -> list:
    """The cells of a d = 2 union without balls clipped to [-R, R]^2, as
    `extreme_points` lists, one per cell that meets the box: the rows of each
    translate group, in cone order, then each other cell."""
    pieces = []
    for cone, A in u.groups.items():
        pieces += _box_clips(A, np.zeros((1, 2)), cone, R)
    for c in u.others:
        pieces += _box_clips(np.zeros((1, 2)), np.array(c.base.vertices), c.cone, R)
    return pieces


def _directed_clipped(pieces_a, pieces_b) -> float:
    # Exact when the target side is a single convex piece (vertex attainment);
    # against a multi-piece target, edge subdivision gives a lower bound that
    # never exceeds the true sup. An identical piece on the other side
    # contributes zero.
    t = np.arange(1, _EDGE_SAMPLES)[:, None] / _EDGE_SAMPLES
    pts = []
    for va in pieces_a:
        if va in pieces_b:
            continue
        V = np.array(va)
        pts.append(V)
        if len(pieces_b) > 1 and len(V) >= 2:
            edges = list(zip(V, np.concatenate([V[1:], V[:1]])))[: len(V) if len(V) > 2 else 1]
            pts += [p0 + t * (p1 - p0) for p0, p1 in edges]
    if not pts:
        return 0.0
    P, bounded = np.concatenate(pts), Cone(dim=2)
    dist = np.min([_polytope_distances(P, np.array(vb)[None], bounded) for vb in pieces_b], axis=0)
    return max(0.0, float(dist.max()))


def hausdorff_windowed(a: SetUnion, b: SetUnion, window_radius: float) -> float:
    """Hausdorff distance between a and b after clipping to the box [-R, R]^d.

    The clip reads the union's arrays, never `.cells`: `_intervals` in d = 1,
    `_window_pieces` in d = 2. Exact in d = 1 and, for every cone, when each
    operand clips to one convex piece. When the target of a direction, B in
    sup_{x in A} d(x, B), clips to more than one piece, that sup is taken
    over A's vertices and 127 interior points of each clipped edge, so the
    value is a lower bound. It is at most (longest clipped edge) / 256 below
    the sup over the pieces' boundaries, because d(., B) is 1-Lipschitz.
    Inside a 2-d piece the sup can be larger still: for the unit square
    against its four corners this returns 0.5, not 0.7071. A union holding a
    ball is refused before anything is clipped.
    """
    if not math.isfinite(window_radius) or window_radius <= 0:
        raise ValueError("window_radius must be positive and finite")
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    if any(isinstance(c.base, Ball) for c in a.others + b.others):
        raise UnsupportedCellCombination("windowed Hausdorff does not support ball cells")
    window, directed = (_intervals, _directed_1d) if a.dim == 1 else (_window_pieces, _directed_clipped)
    wa, wb = window(a, window_radius), window(b, window_radius)
    if not len(wa) or not len(wb):
        raise EmptyAfterWindow("a window operand is empty after clipping")
    return max(directed(wa, wb), directed(wb, wa))


# ---------------------------------------------------------------------------
# recession cones


def recession_cone_detail(a: SetUnion):
    """(cone, rule, radius) where rule is 'shared', 'sandwich', or None."""
    cones = [c.cone for c in a.cells]
    if all(k == cones[0] for k in cones):
        return cones[0], "shared", 0.0
    distinct = set(cones)
    for i, c0 in enumerate(a.cells):
        if not all(cone_is_subset(k, c0.cone) for k in distinct):
            continue
        others = a.cells[:i] + a.cells[i + 1 :]
        # every foreign vertex, and every ball's centre with its radius
        pts = [(v, 0.0) for c in others if isinstance(c.base, Polytope) for v in c.base.vertices]
        P, r = zip(*pts, *[(c.base.center, c.base.radius) for c in others if isinstance(c.base, Ball)])
        try:
            d = cell_distances(P, c0)
        except UnsupportedCellCombination:
            continue
        return c0.cone, "sandwich", max(0.0, float((d + np.array(r)).max()))
    return None, None, 0.0


def recession_cone(a: SetUnion) -> Cone | None:
    """Recession cone of the union, or None when no rule applies.

    A single cell reports its own cone. For unions: if all cells carry the
    same canonical cone, that cone; otherwise, if some cell C0 absorbs every
    other cell within a finite halo (C0's cone contains the others' cones and
    every foreign vertex sits within finite distance of C0), C0's cone.
    """
    cone, _, _ = recession_cone_detail(a)
    return cone


# ---------------------------------------------------------------------------
# support-sampled Hausdorff (bounded convex cells)


def _vdc_bits(k: np.ndarray, bits: int = 32) -> np.ndarray:
    v = np.zeros(k.shape, dtype=np.float64)
    kk = k.astype(np.uint64, copy=True)
    scale_ = 0.5
    for _ in range(bits):
        v += (kk & np.uint64(1)).astype(np.float64) * scale_
        kk >>= np.uint64(1)
        scale_ *= 0.5
    return v


def spread_directions(n: int, dim: int) -> list[tuple[float, ...]]:
    """n unit directions; prefixes are nested, so sampled sups grow with n.

    d=1 alternates +1 and -1. d=2 uses the bit-reversed (van der Corput)
    ordering of equally spaced angles: any prefix is low-discrepancy and
    prefixes of length 2^k are exactly uniform grids.
    """
    _check_dim(dim)
    if n < 1:
        raise ValueError("need at least one direction")
    if dim == 1:
        return [((1.0,) if i % 2 == 0 else (-1.0,)) for i in range(n)]
    theta = 2.0 * math.pi * _vdc_bits(np.arange(n))
    return [(math.cos(t), math.sin(t)) for t in theta]


@lru_cache(maxsize=16)
def _direction_matrix(n: int, dim: int) -> np.ndarray:
    """spread_directions(n, dim) as a read-only (n, dim) array."""
    U = np.array(spread_directions(n, dim), dtype=float)
    U.flags.writeable = False
    return U


def hausdorff_via_support(a: ConvexCell, b: ConvexCell, n_directions: int) -> float:
    """max over spread unit directions of |s(u, a) - s(u, b)|.

    For compact convex cells this lower-bounds the exact Hausdorff distance
    and is nondecreasing in n_directions (nested direction prefixes).
    """
    if not (a.is_bounded and b.is_bounded):
        raise UnboundedOperand("support-sampled Hausdorff needs bounded cells")
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    U = _direction_matrix(n_directions, a.dim)
    return float(np.abs(_support_rows(U, _stack_cells([a])) - _support_rows(U, _stack_cells([b]))).max())
