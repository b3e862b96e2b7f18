"""Exact algebra of closed subsets of R^d (d in {1, 2, 3}).

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
only, and `format_set_union` sorts its lines. Distances to point and ray cells
run through one batched kernel (`cell_distances`, `point_to_union_distance`)
that rounds as the scalar functions do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product

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
        line = (u, as_vector(vscale(-1.0, u)))
        interior = [g for g in ordered if abs(_cross2(u, g)) > ang_tol]
        if len(ordered) == 2 or not interior:  # every generator lies on the line
            return Cone(dim=2, generators=tuple(sorted(line)))
        n = (-u[1], u[0])
        if vdot(n, interior[0]) < 0:
            n = (u[1], -u[0])
        return Cone(dim=2, generators=tuple(sorted(line + (as_vector(n),))))
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
    return _in_hull_lp(v, [(0.0, 0.0, 0.0)], cone.generators)


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
    return _poly_cell(verts, Cone.from_generators(len(verts[0]), cone_generators, full_space=full_space))


def _poly_cell(vertices, cone: Cone) -> ConvexCell:
    """The canonical cell hull(vertices) + cone, for a cone already canonical."""
    d = cone.dim
    if cone.full_space:  # the whole space: one canonical base, the origin
        return ConvexCell(base=Polytope(vertices=(tuple(0.0 for _ in range(d)),)), cone=cone)
    ext = extreme_points(vertices, d)
    if len(ext) > 1 and not cone.is_trivial:
        ext = _drop_absorbed(ext, cone.generators)
    ext = extreme_points(ext, d) if len(ext) > 1 else ext
    return ConvexCell(base=Polytope(vertices=tuple(ext)), cone=cone)


def ball_cell(center, radius: float, cone_generators=(), full_space: bool = False) -> ConvexCell:
    c = as_vector(center)
    radius = float(radius)
    if not math.isfinite(radius) or radius < 0:
        raise ValueError(f"ball radius must be finite and nonnegative, got {radius}")
    cone = Cone.from_generators(len(c), cone_generators, full_space=full_space)
    return _ball_cell(c, abs(radius), cone)  # abs: -0.0 -> 0.0


def _ball_cell(center, radius: float, cone: Cone) -> ConvexCell:
    """The canonical cell ball(center, radius) + cone, for a cone already canonical."""
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
        rows = [c for cone, A in self.groups.items() for c in _row_cells(cone, A)]
        return tuple(sorted(rows + list(self.others), key=_cell_key))

    @cached_property
    def _stack(self):
        """`_stack_cells` of the union, built on the first support query."""
        return _stack_cells(self.others, self.groups)


def _row_cells(cone: Cone, A: np.ndarray) -> list[ConvexCell]:
    """The cells vertex + cone, one per row of A."""
    return [ConvexCell(base=Polytope(vertices=(tuple(v),)), cone=cone) for v in A.tolist()]


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
    Input that is not a finite (m, d) array with 1 <= d <= 3 goes through
    that expression, so it raises the same error."""
    points = list(points)
    try:
        P = np.array(points, dtype=float)
    except (TypeError, ValueError):
        P = None
    if P is None or P.ndim != 2 or not 1 <= P.shape[1] <= 3 or not np.isfinite(P).all():
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
    """lam * a. A polytope base is rebuilt in canonical form only when two of
    its scaled vertices fall within DEDUP_TOL of each other."""
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
            verts = [as_vector(vscale(lam, v)) for v in c.base.vertices]
            if any(_close(u, w) for u, w in combinations(verts, 2)):
                cells.append(_poly_cell(verts, c.cone))
                continue
            base = Polytope(vertices=tuple(verts))
        else:
            base = Ball(center=as_vector(vscale(lam, c.base.center)), radius=lam * c.base.radius)
        cells.append(ConvexCell(base=base, cone=c.cone))
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
    """The rows of A that differ by value, sorted. Rows of d <= 2 sort as one
    real or complex scalar; the stable sort merges the nearly sorted runs that
    `translate_sum` concatenates in about linear time."""
    scalar = _ROW_SCALARS.get(A.shape[1])
    if scalar is None:
        return np.unique(A, axis=0)
    s = np.sort(np.ascontiguousarray(A).view(scalar).ravel(), kind="stable")
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


def _is_point_or_ray(cell: ConvexCell) -> bool:
    """One vertex plus a trivial or one-generator cone."""
    return isinstance(cell.base, Polytope) and len(cell.base.vertices) == 1 and _is_ray_cone(cell.cone)


def _is_ray_cone(cone: Cone) -> bool:
    return cone.is_trivial or len(cone.generators) == 1


def _translate_distances(P: np.ndarray, V: np.ndarray, cone: Cone) -> np.ndarray:
    """Distance from P to the point V (trivial cone), or to the ray V + t g
    (t >= 0) of the cone's one generator g, with P and V broadcast against
    each other row by row.

    The operations are those of `_point_to_polytope` on one vertex and of
    `point_to_ray`, in the same order, elementwise and summed from +0.0 as in
    `_coord_dot`, so each entry equals the scalar distance bit for bit.
    """
    W = P - V
    to_vertex = np.sqrt(_coord_dot(W, W))
    if cone.is_trivial:
        return to_vertex
    g = np.array(cone.generators[0])
    t = _coord_dot(W, g) / _coord_dot(g, g)
    foot = P - (V + t[..., None] * g)
    return np.where(t <= 0, to_vertex, np.sqrt(_coord_dot(foot, foot)))


def cell_distances(points, cell: ConvexCell) -> np.ndarray:
    """point_to_cell_distance(p, cell) for each row p of an (m, d) array, bit
    for bit, where the cell is a point or a ray (one vertex, at most one cone
    generator); any other cell raises UnsupportedCellCombination."""
    if not _is_point_or_ray(cell):
        raise UnsupportedCellCombination("batched distances need a point or ray cell")
    return _translate_distances(np.asarray(points, dtype=float), np.array(cell.base.vertices[0]), cell.cone)


def point_to_union_distance(p, u: SetUnion) -> float:
    """The least point_to_cell_distance over the cells, bit for bit. Point and
    ray rows of the translate group go through the batched kernel; the other
    cells, balls first, one at a time, so the first cell that raises is the
    one the cell loop would meet first."""
    p = as_vector(p, u.dim)
    cells = list(u.others)
    out = []
    for cone, A in u.groups.items():
        if _is_ray_cone(cone):
            out.append(float(_translate_distances(np.array(p), A, cone).min()))
        else:
            cells += _row_cells(cone, A)
    return min(out + [point_to_cell_distance(p, c) for c in cells])


# ---------------------------------------------------------------------------
# Hausdorff distance (exact cases)


def _cells_as_intervals(u: SetUnion):
    out = [(x, x) for A in u.groups.values() for x in A[:, 0].tolist()]  # points: d = 1 and bounded
    for c in u.others:
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


def _point_rows(u: SetUnion):
    """The (m, d) array of u's points when u is a finite point set, else None."""
    if u.others or len(u.groups) != 1 or not next(iter(u.groups)).is_trivial:
        return None
    return next(iter(u.groups.values()))


def _hausdorff_points(A: np.ndarray, B: np.ndarray) -> float:
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
    """Hausdorff distance between a and b after clipping to the box [-R, R]^d.

    Exact in d = 1 and when each operand clips to one convex piece. When the
    target of a direction, B in sup_{x in A} d(x, B), clips to more than one
    piece, that sup is taken over A's vertices and 127 interior points of each
    clipped edge, so the value is a lower bound. It is at most (longest
    clipped edge) / 256 below the sup over the pieces' boundaries, because
    d(., B) is 1-Lipschitz. Inside a 2-d piece the sup can be larger still:
    for the unit square against its four corners this returns 0.5, not 0.7071.
    """
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
    distinct = set(cones)
    for i, c0 in enumerate(a.cells):
        if not all(cone_is_subset(k, c0.cone) for k in distinct):
            continue
        others = a.cells[:i] + a.cells[i + 1 :]
        # every foreign vertex, and every ball's centre with its radius
        pts = [(v, 0.0) for c in others if isinstance(c.base, Polytope) for v in c.base.vertices]
        P, r = zip(*pts, *[(c.base.center, c.base.radius) for c in others if isinstance(c.base, Ball)])
        try:
            d = cell_distances(P, c0) if _is_point_or_ray(c0) else np.array([point_to_cell_distance(p, c0) for p in P])
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
