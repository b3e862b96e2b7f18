"""Exact algebra of closed subsets of R^d (d in {1, 2, 3}).

The atom is a convex cell "base plus cone": the base is either a finite vertex
set (standing for its convex hull) or a closed ball, and the cone is a finitely
generated convex cone. Finite unions of cells are closed under Minkowski sums,
nonnegative scaling, and set union, which covers every shape the averaging
experiments produce: intervals, point lattices, balls, rays, translated rays,
and sectors.

All types are immutable values; every operation is a pure function, so sharing
across worker processes is safe. Canonical forms (deduplicated vertices,
extreme rays, sorted cells) make structural equality meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

DEDUP_TOL = 1e-12
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


def as_vector(coords, dim: int | None = None) -> tuple[float, ...]:
    """Validate and normalize a coordinate sequence into a canonical tuple."""
    v = tuple(float(c) for c in coords)
    if not 1 <= len(v) <= 3:
        raise ValueError(f"dimension must be 1, 2 or 3, got {len(v)}")
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
    return sum(x * y for x, y in zip(a, b))


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


def _close(a, b, tol=DEDUP_TOL):
    return all(abs(x - y) <= tol for x, y in zip(a, b))


def _dedup_points(pts, tol=DEDUP_TOL):
    out = []
    for p in sorted(pts):
        if not any(_close(p, q, tol) for q in out):
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
        return Cone(dim=dim)

    @staticmethod
    def from_generators(dim: int, generators, full_space: bool = False) -> "Cone":
        if full_space:
            return Cone(dim=dim, generators=(), full_space=True)
        units = []
        for g in generators:
            g = as_vector(g, dim)
            n = vnorm(g)
            if n <= DEDUP_TOL:
                raise ValueError("cone generator must be nonzero")
            units.append(vscale(1.0 / n, g))
        units = _dedup_points(units)
        if not units:
            return Cone(dim=dim)
        if dim == 1:
            pos = any(g[0] > 0 for g in units)
            neg = any(g[0] < 0 for g in units)
            if pos and neg:
                return Cone(dim=1, full_space=True)
            return Cone(dim=1, generators=((1.0,),) if pos else ((-1.0,),))
        if dim == 2:
            return _canon_cone_2d(units)
        # d=3: no extreme-ray reduction, canonical up to dedup/sort
        return Cone(dim=3, generators=tuple(sorted(units)))

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
    ang_tol = 1e-9
    if gap > math.pi + ang_tol:
        # pointed sector: extreme rays flank the widest empty arc
        lo = ordered[(widest + 1) % len(ordered)]
        hi = ordered[widest]
        if _close(lo, hi):
            return Cone(dim=2, generators=(lo,))
        return Cone(dim=2, generators=tuple(sorted((lo, hi))))
    if gap >= math.pi - ang_tol:
        # generators fill a closed half-plane: either a line or a half-plane
        u = ordered[(widest + 1) % len(ordered)]
        if len(ordered) == 2:
            return Cone(dim=2, generators=tuple(sorted((u, as_vector(vscale(-1.0, u))))))
        n = (-u[1], u[0])
        interior = next(g for g in ordered if abs(_cross2(u, g)) > ang_tol)
        if vdot(n, interior) < 0:
            n = (u[1], -u[0])
        gens = sorted((u, as_vector(vscale(-1.0, u)), as_vector(n)))
        return Cone(dim=2, generators=tuple(gens))
    return Cone(dim=2, full_space=True)


def cone_contains(cone: Cone, v, tol: float = 1e-9) -> bool:
    """Whether a vector belongs to the cone (exact up to tol)."""
    v = as_vector(v, cone.dim)
    n = vnorm(v)
    if n <= DEDUP_TOL:
        return True
    if cone.full_space:
        return True
    if cone.is_trivial:
        return False
    if cone.dim == 1:
        return v[0] * cone.generators[0][0] > 0
    if cone.dim == 2:
        gens = cone.generators
        if len(gens) == 1:
            g = gens[0]
            return abs(_cross2(g, v)) <= tol * n and vdot(g, v) > 0
        if len(gens) == 3:  # half-plane {u, -u, inward normal}
            normal = gens[0]
            for g in gens:
                others = [h for h in gens if h != g]
                if abs(_cross2(others[0], others[1])) <= 1e-9:
                    normal = g  # the one whose two companions are collinear
                    break
            return vdot(normal, v) >= -tol * n
        g1, g2 = gens
        det = _cross2(g1, g2)
        if abs(det) <= 1e-12:  # line through g1
            return abs(_cross2(g1, v)) <= tol * n
        a = _cross2(v, g2) / det
        b = _cross2(g1, v) / det
        return a >= -tol and b >= -tol
    return _cone_contains_lp(cone, v, tol)


def _cone_contains_lp(cone: Cone, v, tol: float) -> bool:
    from scipy.optimize import linprog

    gens = np.array(cone.generators, dtype=float).T
    res = linprog(
        c=np.zeros(gens.shape[1]),
        A_eq=gens,
        b_eq=np.array(v, dtype=float),
        bounds=[(0, None)] * gens.shape[1],
        method="highs",
    )
    return res.status == 0


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
    """Extreme points of the convex hull of a finite point set.

    d=1: interval endpoints. d=2: monotone chain, counterclockwise starting at
    the lexicographically smallest vertex. d=3: LP-based redundancy filter
    (robust to degenerate, lower-dimensional inputs).
    """
    pts = _dedup_points([as_vector(p, dim) for p in points])
    if not pts:
        raise ValueError("polytope needs at least one vertex")
    if len(pts) == 1:
        return [pts[0]]
    if dim == 1:
        lo, hi = min(pts), max(pts)
        return [lo] if _close(lo, hi) else [lo, hi]
    if dim == 2:
        return _hull_2d(pts)
    return sorted(_drop_absorbed(pts, ()))


def _hull_2d(pts):
    pts = sorted(pts)
    if len(pts) == 2:
        return pts

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross2(vsub(out[-1], out[-2]), vsub(p, out[-2])) <= DEDUP_TOL:
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # all collinear within tolerance collapses to a segment
        return [pts[0], pts[-1]]
    # counterclockwise starting from the lexicographically smallest vertex
    start = min(range(len(hull)), key=lambda i: hull[i])
    hull = hull[start:] + hull[:start]
    if len(hull) >= 3:
        area2 = sum(_cross2(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull)))
        if area2 < 0:
            hull = [hull[0]] + hull[:0:-1]
    return hull


def _in_hull_lp(p, vertices, generators) -> bool:
    from scipy.optimize import linprog

    d = len(p)
    nv, ng = len(vertices), len(generators)
    A_eq = np.zeros((d + 1, nv + ng))
    for j, v in enumerate(vertices):
        A_eq[:d, j] = v
        A_eq[d, j] = 1.0
    for j, g in enumerate(generators):
        A_eq[:d, nv + j] = g
    b_eq = np.concatenate([np.array(p, dtype=float), [1.0]])
    res = linprog(
        c=np.zeros(nv + ng),
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * (nv + ng),
        method="highs",
    )
    return res.status == 0


def _drop_absorbed(vertices, generators):
    """The vertices left after dropping, one at a time, each vertex that lies
    in the convex hull of the others plus the cone of the generators."""
    kept = list(vertices)
    i = 0
    while i < len(kept):
        others = kept[:i] + kept[i + 1 :]
        if others and _in_hull_lp(kept[i], others, generators):
            kept.pop(i)
        else:
            i += 1
    return kept


def poly_cell(vertices, cone_generators=(), dim: int | None = None, full_space: bool = False) -> ConvexCell:
    verts = [as_vector(v, dim) for v in vertices]
    d = len(verts[0])
    cone = Cone.from_generators(d, cone_generators, full_space=full_space)
    ext = extreme_points(verts, d)
    if len(ext) > 1 and not cone.is_trivial:
        ext = [tuple(0.0 for _ in range(d))] if cone.full_space else _drop_absorbed(ext, cone.generators)
    ext = extreme_points(ext, d) if len(ext) > 1 else ext
    return ConvexCell(base=Polytope(vertices=tuple(ext)), cone=cone)


def ball_cell(center, radius: float, cone_generators=()) -> ConvexCell:
    c = as_vector(center)
    if radius < 0:
        raise ValueError("ball radius must be nonnegative")
    cone = Cone.from_generators(len(c), cone_generators)
    return ConvexCell(base=Ball(center=c, radius=float(radius)), cone=cone)


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


@dataclass(frozen=True)
class SetUnion:
    cells: tuple[ConvexCell, ...]

    @property
    def dim(self) -> int:
        return self.cells[0].dim

    @property
    def is_bounded(self) -> bool:
        return all(c.is_bounded for c in self.cells)


def union_of(cells) -> SetUnion:
    cells = list(cells)
    if not cells:
        raise ValueError("a set union needs at least one cell")
    d = cells[0].dim
    if any(c.dim != d for c in cells):
        raise ValueError("mixed dimensions in one union")
    uniq: dict[str, ConvexCell] = {}
    for c in cells:
        key = _cell_line(c)
        uniq.setdefault(key, c)
    ordered = [uniq[k] for k in sorted(uniq)]
    return SetUnion(cells=tuple(ordered))


def point_union(points) -> SetUnion:
    return union_of(point_cell(p) for p in points)


# ---------------------------------------------------------------------------
# serialization: one cell per line, 17 significant digits for round trips


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _fmt_vec(v) -> str:
    return "(" + ",".join(_fmt(c) for c in v) + ")"


def _cell_line(cell: ConvexCell) -> str:
    if isinstance(cell.base, Polytope):
        base = "poly v=" + ";".join(_fmt_vec(v) for v in cell.base.vertices)
    else:
        base = f"ball c={_fmt_vec(cell.base.center)} r={_fmt(cell.base.radius)}"
    if cell.cone.full_space:
        return f"CELL {base} cone full"
    if cell.cone.generators:
        return f"CELL {base} cone g=" + ";".join(_fmt_vec(g) for g in cell.cone.generators)
    return f"CELL {base}"


def format_set_union(u: SetUnion) -> str:
    return "\n".join(_cell_line(c) for c in u.cells) + "\n"


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
            cells.append(ball_cell(_parse_vec(cpart), float(rpart), cone_gens))
        else:
            raise ValueError(f"bad cell line: {raw!r}")
    return union_of(cells)


# ---------------------------------------------------------------------------
# Minkowski sum, scaling, hulls


def _cell_sum(a: ConvexCell, b: ConvexCell) -> ConvexCell:
    cone = a.cone.merge(b.cone)
    pa, pb = isinstance(a.base, Polytope), isinstance(b.base, Polytope)
    if pa and pb:
        sums = [vadd(u, v) for u in a.base.vertices for v in b.base.vertices]
        return poly_cell(sums, cone_generators=cone.generators, full_space=cone.full_space)
    if not pa and not pb:
        return ConvexCell(
            base=Ball(center=vadd(a.base.center, b.base.center), radius=a.base.radius + b.base.radius),
            cone=cone,
        )
    ball, poly = (a, b) if pb else (b, a)
    if len(poly.base.vertices) == 1:
        return ConvexCell(
            base=Ball(center=vadd(ball.base.center, poly.base.vertices[0]), radius=ball.base.radius),
            cone=cone,
        )
    raise UnsupportedCellCombination("polytope base (+) ball base is not supported")


def minkowski_sum(a: SetUnion, b: SetUnion, cell_budget: int | None = None) -> SetUnion:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    budget = DEFAULT_CELL_BUDGET if cell_budget is None else cell_budget
    n_out = len(a.cells) * len(b.cells)
    if n_out > budget:
        raise CellBudgetExceeded(f"{n_out} cells would exceed the budget of {budget}")
    return union_of(_cell_sum(ca, cb) for ca, cb in product(a.cells, b.cells))


def scale(lam: float, a: SetUnion) -> SetUnion:
    if lam < 0:
        raise NegativeScale("scaling factor must be nonnegative")
    if lam == 0:
        return union_of([point_cell(tuple(0.0 for _ in range(a.dim)))])
    cells = []
    for c in a.cells:
        if isinstance(c.base, Polytope):
            base = Polytope(vertices=tuple(as_vector(vscale(lam, v)) for v in c.base.vertices))
        else:
            base = Ball(center=as_vector(vscale(lam, c.base.center)), radius=lam * c.base.radius)
        cells.append(ConvexCell(base=base, cone=c.cone))
    return union_of(cells)


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
    return poly_cell(verts, cone_generators=cone.generators, full_space=cone.full_space, dim=a.dim)


# ---------------------------------------------------------------------------
# support functions


def _cell_support(x_star, cell: ConvexCell) -> float:
    if cell.cone.full_space:
        if vnorm(x_star) > 0:
            return math.inf
    for g in cell.cone.generators:
        if vdot(x_star, g) > 0.0:
            return math.inf
    if isinstance(cell.base, Polytope):
        return max(vdot(x_star, v) for v in cell.base.vertices)
    return vdot(x_star, cell.base.center) + cell.base.radius * vnorm(x_star)


def support(x_star, a: SetUnion) -> float:
    """sup of <x_star, x> over the union; +inf when a cone direction escapes."""
    x_star = dual_direction(x_star, a.dim)
    return max(_cell_support(x_star, c) for c in a.cells)


@dataclass(frozen=True)
class MembershipVerdict:
    inside: bool
    witness: tuple[float, ...] | None = None


def hull_membership_via_support(x, a: SetUnion, directions) -> MembershipVerdict:
    """Necessary-condition hull membership check over sampled directions.

    Returns separated with a witness direction when some sampled x* has
    <x*, x> exceeding the support by more than 1e-9; otherwise inside.
    """
    if not directions:
        raise ValueError("directions must be nonempty")
    x = as_vector(x, a.dim)
    for d in directions:
        d = dual_direction(d, a.dim)
        if vnorm(d) <= DEDUP_TOL:
            raise ValueError("separation directions must be nonzero")
        s = support(d, a)
        if vdot(d, x) > s + 1e-9:
            return MembershipVerdict(inside=False, witness=d)
    return MembershipVerdict(inside=True)


# ---------------------------------------------------------------------------
# distances


def point_to_segment(p, a, b) -> float:
    ab = vsub(b, a)
    denom = vdot(ab, ab)
    if denom <= 0:
        return vnorm(vsub(p, a))
    t = max(0.0, min(1.0, vdot(vsub(p, a), ab) / denom))
    return vnorm(vsub(p, vadd(a, vscale(t, ab))))


def point_to_ray(p, origin, direction) -> float:
    t = vdot(vsub(p, origin), direction) / vdot(direction, direction)
    if t <= 0:
        return vnorm(vsub(p, origin))
    return vnorm(vsub(p, vadd(origin, vscale(t, direction))))


def _point_in_polygon(p, verts, tol=1e-12) -> bool:
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        if _cross2(vsub(b, a), vsub(p, a)) < -tol:
            return False
    return True


def _point_to_polytope(p, verts) -> float:
    if len(verts) == 1:
        return vnorm(vsub(p, verts[0]))
    if len(p) == 1:
        lo, hi = verts[0][0], verts[-1][0]
        return max(lo - p[0], p[0] - hi, 0.0)
    if len(verts) == 2:
        return point_to_segment(p, verts[0], verts[1])
    if _point_in_polygon(p, verts):
        return 0.0
    return min(point_to_segment(p, verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts)))


def _truncation_bound(cell: ConvexCell, reach: float) -> float:
    base_norm = max(vnorm(v) for v in cell.base.vertices)
    gens = cell.cone.generators
    kappa = 1.0
    if len(gens) == 2:
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
    return extreme_points(pts, cell.dim)


def point_to_cell_distance(p, cell: ConvexCell) -> float:
    """Euclidean distance from a point to a convex cell (exact for d <= 2)."""
    p = as_vector(p, cell.dim)
    if isinstance(cell.base, Ball):
        if not cell.cone.is_trivial:
            raise UnsupportedCellCombination("distance to ball-with-cone cells is not supported")
        return max(0.0, vnorm(vsub(p, cell.base.center)) - cell.base.radius)
    verts = cell.base.vertices
    if cell.cone.is_trivial:
        return _point_to_polytope(p, verts)
    if len(verts) == 1 and len(cell.cone.generators) == 1:
        return point_to_ray(p, verts[0], cell.cone.generators[0])
    if cell.dim > 2:
        raise UnsupportedCellCombination("cone-cell distances only implemented for d <= 2")
    reach = vnorm(p) + max(vnorm(v) for v in verts) + 1.0
    return _point_to_polytope(p, _hull_2d(_truncated_polytope(cell, reach)) if cell.dim == 2 else _truncated_polytope(cell, reach))


def point_to_union_distance(p, u: SetUnion) -> float:
    return min(point_to_cell_distance(p, c) for c in u.cells)


# ---------------------------------------------------------------------------
# Hausdorff distance (exact cases)


def _cells_as_intervals(u: SetUnion):
    out = []
    for c in u.cells:
        if isinstance(c.base, Ball):
            out.append((c.base.center[0] - c.base.radius, c.base.center[0] + c.base.radius))
        else:
            xs = [v[0] for v in c.base.vertices]
            out.append((min(xs), max(xs)))
    return sorted(out)


def _dist_to_intervals(x: float, intervals) -> float:
    return min(max(lo - x, x - hi, 0.0) for lo, hi in intervals)


def _directed_intervals(a_int, b_int) -> float:
    # sup of d(., B) over A is attained at A's endpoints or at gap midpoints
    # of B that fall inside A (local maxima of the piecewise-linear distance).
    # A gap of B starts at the running right end of the intervals before it,
    # because a nested interval can end before the one preceding it does.
    cands = [e for lo, hi in a_int for e in (lo, hi)]
    ordered = sorted(b_int)
    reach = ordered[0][1]
    for lo_b, hi_b in ordered[1:]:
        if lo_b > reach:
            mid = 0.5 * (reach + lo_b)
            if any(lo <= mid <= hi for lo, hi in a_int):
                cands.append(mid)
        reach = max(reach, hi_b)
    return max(_dist_to_intervals(x, b_int) for x in cands)


def _hausdorff_1d(a: SetUnion, b: SetUnion) -> float:
    ai, bi = _cells_as_intervals(a), _cells_as_intervals(b)
    return max(_directed_intervals(ai, bi), _directed_intervals(bi, ai))


def _all_points(u: SetUnion):
    pts = []
    for c in u.cells:
        if not c.is_point:
            return None
        pts.append(c.base.vertices[0])
    return pts


def _hausdorff_points(pa, pb) -> float:
    A = np.array(pa, dtype=float)
    B = np.array(pb, dtype=float)
    d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
    d = np.sqrt(d2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


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
    if a.dim > 2:
        raise UnsupportedCellCombination("exact polytope Hausdorff is only implemented for d <= 2")
    # distance to a convex set is convex, so each directed sup sits at a vertex
    d_ab = max(_point_to_polytope(v, b.base.vertices) for v in a.base.vertices)
    d_ba = max(_point_to_polytope(v, a.base.vertices) for v in b.base.vertices)
    return max(d_ab, d_ba)


def hausdorff(a: SetUnion, b: SetUnion) -> float:
    """Exact Hausdorff distance between bounded unions.

    Exact cases: any bounded union in d=1; finite point sets in any d; single
    convex cell pairs (polytope-polytope in d <= 2, ball-ball, point-ball).
    Other combinations raise UnsupportedCellCombination rather than
    approximating.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    if not (a.is_bounded and b.is_bounded):
        raise UnboundedOperand("use hausdorff_windowed for unbounded operands")
    if a.dim == 1:
        return _hausdorff_1d(a, b)
    pa, pb = _all_points(a), _all_points(b)
    if pa is not None and pb is not None:
        return _hausdorff_points(pa, pb)
    if len(a.cells) == 1 and len(b.cells) == 1:
        return _hausdorff_convex_pair(a.cells[0], b.cells[0])
    raise UnsupportedCellCombination(
        "exact Hausdorff needs d=1 unions, point sets, or single convex cells"
    )


# ---------------------------------------------------------------------------
# windowed Hausdorff for unbounded operands


def _clip_polygon_halfplane(verts, normal, offset):
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


def _clip_cell_to_box(cell: ConvexCell, R: float):
    """Intersection of a (possibly unbounded) cell with [-R, R]^d, as vertices."""
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
    if cell.dim != 2:
        raise UnsupportedCellCombination("windowed Hausdorff is only implemented for d <= 2")
    verts = _truncated_polytope(cell, math.sqrt(2.0) * R)
    for normal, offset in (((1.0, 0.0), R), ((-1.0, 0.0), R), ((0.0, 1.0), R), ((0.0, -1.0), R)):
        verts = _clip_polygon_halfplane(verts, normal, offset)
        if not verts:
            return None
    return extreme_points(verts, 2)


def _directed_clipped(cells_a, cells_b) -> float:
    # Exact when the target side is a single convex piece (vertex attainment);
    # against a multi-piece target, edge subdivision gives a lower bound that
    # never exceeds the true sup.
    def dist_to_b(p):
        return min(_point_to_polytope(p, vb) for vb in cells_b)

    best = 0.0
    for va in cells_a:
        if va in cells_b:  # an identical piece on the other side contributes zero
            continue
        for p in va:
            best = max(best, dist_to_b(p))
        if len(cells_b) > 1 and len(va) >= 2:
            n = len(va)
            edges = [(va[i], va[(i + 1) % n]) for i in range(n if n > 2 else 1)]
            for p0, p1 in edges:
                for k in range(1, _EDGE_SAMPLES):
                    t = k / _EDGE_SAMPLES
                    best = max(best, dist_to_b(vadd(p0, vscale(t, vsub(p1, p0)))))
    return best


def hausdorff_windowed(a: SetUnion, b: SetUnion, window_radius: float) -> float:
    """Hausdorff distance between a and b after clipping to the box [-R, R]^d."""
    if window_radius <= 0:
        raise ValueError("window_radius must be positive")
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    ca = [v for c in a.cells if (v := _clip_cell_to_box(c, window_radius)) is not None]
    cb = [v for c in b.cells if (v := _clip_cell_to_box(c, window_radius)) is not None]
    if not ca or not cb:
        raise EmptyAfterWindow("a window operand is empty after clipping")
    if a.dim == 1:
        ua = union_of(interval_cell(v[0][0], v[-1][0]) for v in ca)
        ub = union_of(interval_cell(v[0][0], v[-1][0]) for v in cb)
        return _hausdorff_1d(ua, ub)
    return max(_directed_clipped(ca, cb), _directed_clipped(cb, ca))


# ---------------------------------------------------------------------------
# recession cones


def recession_cone_detail(a: SetUnion):
    """(cone, rule, radius) where rule is 'shared', 'sandwich', or None."""
    cones = [c.cone for c in a.cells]
    if all(k == cones[0] for k in cones):
        return cones[0], "shared", 0.0
    for i, c0 in enumerate(a.cells):
        if not all(cone_is_subset(c.cone, c0.cone) for c in a.cells):
            continue
        radius = 0.0
        ok = True
        for j, c in enumerate(a.cells):
            if j == i:
                continue
            if isinstance(c.base, Ball):
                d = point_to_cell_distance(c.base.center, c0) + c.base.radius
                radius = max(radius, d)
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


def _halton(k: np.ndarray, base: int) -> np.ndarray:
    v = np.zeros(k.shape, dtype=np.float64)
    kk = k.astype(np.int64, copy=True)
    f = 1.0 / base
    while kk.max() > 0:
        v += (kk % base) * f
        kk //= base
        f /= base
    return v


def spread_directions(n: int, dim: int) -> list[tuple[float, ...]]:
    """n unit directions; prefixes are nested, so sampled sups grow with n.

    d=2 uses the bit-reversed (van der Corput) ordering of equally spaced
    angles: any prefix is low-discrepancy and prefixes of length 2^k are
    exactly uniform grids.
    """
    if n < 1:
        raise ValueError("need at least one direction")
    k = np.arange(n)
    if dim == 1:
        return [((1.0,) if i % 2 == 0 else (-1.0,)) for i in range(n)]
    if dim == 2:
        theta = 2.0 * math.pi * _vdc_bits(k)
        return [(math.cos(t), math.sin(t)) for t in theta]
    u = _vdc_bits(k)
    v = _halton(k + 1, 3)
    z = 2.0 * u - 1.0
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = 2.0 * math.pi * v
    return [(float(r[i] * math.cos(phi[i])), float(r[i] * math.sin(phi[i])), float(z[i])) for i in range(n)]


def hausdorff_via_support(a: ConvexCell, b: ConvexCell, n_directions: int) -> float:
    """max over spread unit directions of |s(u, a) - s(u, b)|.

    For compact convex cells this lower-bounds the exact Hausdorff distance
    and is nondecreasing in n_directions (nested direction prefixes).
    """
    if not (a.is_bounded and b.is_bounded):
        raise UnboundedOperand("support-sampled Hausdorff needs bounded cells")
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    best = 0.0
    for u in spread_directions(n_directions, a.dim):
        best = max(best, abs(_cell_support(u, a) - _cell_support(u, b)))
    return best
