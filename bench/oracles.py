"""Reference computations the benchmark checks the program's outputs against.

Each function here is written apart from `randset`: plain numpy over the
inputs the benchmark generated, or a closed form. None of them reads a stored
copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist


class CheckFailed(AssertionError):
    """An output of the program disagrees with its reference."""


class KnownFault(Exception):
    """An output shows a fault that is known and kept in the workload."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def expect_close(got: float, want: float, tol: float, what: str) -> None:
    if not (abs(got - want) <= tol or (math.isinf(got) and got == want)):
        raise CheckFailed(f"{what}: got {got!r}, want {want!r} (tol {tol:g})")


# ---------------------------------------------------------------------------
# scalar drivers, from their config form


def law_mean(law: dict) -> float:
    k = law["kind"]
    if k == "uniform":
        return 0.5 * (law["low"] + law["high"])
    if k == "normal":
        return law["mean"]
    if k == "constant":
        return law["value"]
    w = law.get("weights") or [1.0 / len(law["values"])] * len(law["values"])
    return math.fsum(v * p for v, p in zip(law["values"], w))


def law_variance(law: dict) -> float:
    k = law["kind"]
    if k == "uniform":
        return (law["high"] - law["low"]) ** 2 / 12.0
    if k == "normal":
        return law["sd"] ** 2
    if k == "constant":
        return 0.0
    m = law_mean(law)
    w = law.get("weights") or [1.0 / len(law["values"])] * len(law["values"])
    return math.fsum(p * (v - m) ** 2 for v, p in zip(law["values"], w))


def driver_mean(d: dict) -> float:
    fam = d["family"]
    if fam == "finite_markov":
        return float(np.dot(d["stationary"], d["emissions"]))
    if fam == "alternating":
        return law_mean(d["law_even"])
    return law_mean(d["law"])


def asymptotic_variance(d: dict) -> float:
    """lim n Var(mean_n): the variance the strong law's error shrinks with."""
    fam = d["family"]
    if fam == "iid":
        return law_variance(d["law"])
    if fam == "m_dependent":
        # the mean of a moving average telescopes to the mean of its base draws
        return law_variance(d["law"])
    if fam == "alternating":
        return 0.5 * (law_variance(d["law_even"]) + law_variance(d["law_odd"]))
    P = np.asarray(d["transition"], dtype=float)
    pi = np.asarray(d["stationary"], dtype=float)
    f = np.asarray(d["emissions"], dtype=float)
    fbar = f - pi @ f
    # fundamental matrix Z = (I - P + 1 pi)^-1: sigma^2 = 2<f, Z f>_pi - <f, f>_pi
    Z = np.linalg.inv(np.eye(len(pi)) - P + np.outer(np.ones(len(pi)), pi))
    return float(2.0 * pi @ (fbar * (Z @ fbar)) - pi @ (fbar * fbar))


def lattice_interval_hausdorff(shift: float, n: int) -> float:
    """H({shift + i/n : 0 <= i <= n}, [0, 1]) by evaluating every candidate."""
    lat = shift + np.arange(n + 1) / n
    to_interval = np.maximum(np.maximum(-lat, lat - 1.0), 0.0).max()
    # d(., lattice) on [0, 1] peaks at 0, at 1, or at a gap midpoint inside
    mids = 0.5 * (lat[:-1] + lat[1:])
    xs = np.concatenate([[0.0, 1.0], mids[(mids >= 0.0) & (mids <= 1.0)]])
    pos = np.clip(np.searchsorted(lat, xs), 1, n)
    to_lattice = np.minimum(np.abs(xs - lat[pos - 1]), np.abs(xs - lat[pos])).max()
    return float(max(to_interval, to_lattice))


# ---------------------------------------------------------------------------
# phi coefficients


def markov_phi_profile(P, pi, n_terms: int) -> list[float]:
    """phi(1..n_terms) = max_i TV(P^n(i, .), pi), by repeated products
    rather than matrix_power."""
    P = np.asarray(P, dtype=float)
    pi = np.asarray(pi, dtype=float)
    Pn = np.eye(len(pi))
    out = []
    for _ in range(n_terms):
        Pn = Pn @ P
        out.append(float(0.5 * np.abs(Pn - pi).sum(axis=1).max()))
    return out


def two_state_phi(P, pi, n: int) -> float:
    """Closed form |1 - p - q|^n * max(pi_0, pi_1) of a two-state chain."""
    lam = abs(1.0 - P[0][1] - P[1][0])
    return lam**n * max(pi)


def summability_verdict(values) -> str:
    """Redo the summability decision from the written phi values."""
    vals = list(values)
    if vals[-1] == 0.0:
        return "exact_zero"
    tail = [(i + 1.0, v) for i, v in enumerate(vals) if i >= len(vals) // 2 and v > 0]
    if len(tail) < 5:
        return "diverging"
    ns = np.array([t[0] for t in tail])
    logs = np.log([t[1] for t in tail])
    fits = []
    for x in (ns, np.log(ns)):
        slope, icept = np.polyfit(x, logs, 1)
        fits.append((slope, float(((logs - (slope * x + icept)) ** 2).sum())))
    (s_geo, r_geo), (s_pow, r_pow) = fits
    if r_geo <= r_pow:
        return "summable_evidence" if math.exp(s_geo) < 1.0 - 1e-9 else "diverging"
    return "summable_evidence" if s_pow < -2.0 - 1e-9 else "diverging"


# ---------------------------------------------------------------------------
# needle-halo cells


def halo_subset_sums(halo: np.ndarray) -> np.ndarray:
    """(1/n) * sum_{i in S} h_i for every subset S of the n halo points,
    indexed by the bit mask of S."""
    n = len(halo)
    masks = np.arange(2**n)
    bits = (masks[:, None] >> np.arange(n)[None, :]) & 1
    return bits @ halo / n


def halo_cells(halo: np.ndarray):
    """(ray offsets, point) of S_n = (1/n) sum (axis ray U {h_i})."""
    sums = halo_subset_sums(halo)
    return sums[:-1], sums[-1]


def point_to_rays(p, offsets: np.ndarray) -> np.ndarray:
    """Distances from p to the rays offset + t (1, 0), t >= 0."""
    dx = p[0] - offsets[:, 0]
    dy = p[1] - offsets[:, 1]
    return np.where(dx >= 0.0, np.abs(dy), np.hypot(dx, dy))


def match_points(got: np.ndarray, want: np.ndarray, tol: float, what: str) -> None:
    """Every row of got equals one row of want within tol, one to one."""
    expect(got.shape == want.shape, f"{what}: {len(got)} cells, want {len(want)}")
    g = got[np.lexsort(got.T[::-1])]
    w = want[np.lexsort(want.T[::-1])]
    err = float(np.abs(g - w).max()) if len(g) else 0.0
    if err <= tol:
        return
    # near-ties in x can swap rows between the two sorts: match by nearest
    d, j = cKDTree(want).query(got)
    expect(len(set(j.tolist())) == len(want) and float(d.max()) <= tol,
           f"{what}: offsets differ by {err:.3g} from the subset sums")


# ---------------------------------------------------------------------------
# distances


def hausdorff_intervals(a, b) -> float:
    """H between finite unions of closed intervals [(lo, hi), ...] in R."""

    def merged(ints):
        out = []
        for lo, hi in sorted(ints):
            if out and lo <= out[-1][1]:
                out[-1][1] = max(out[-1][1], hi)
            else:
                out.append([lo, hi])
        return np.asarray(out, dtype=float)

    def directed(src, dst):
        src, dst = merged(src), merged(dst)
        # d(., dst) is piecewise linear: its sup over src sits at an endpoint
        # of src or at the midpoint of a gap of dst that src covers
        mids = 0.5 * (dst[:-1, 1] + dst[1:, 0])
        inside = ((mids[:, None] >= src[None, :, 0]) & (mids[:, None] <= src[None, :, 1])).any(axis=1)
        xs = np.concatenate([src.ravel(), mids[inside]])
        d = np.maximum(np.maximum(dst[None, :, 0] - xs[:, None], xs[:, None] - dst[None, :, 1]), 0.0)
        return float(d.min(axis=1).max())

    return max(directed(a, b), directed(b, a))


def hausdorff_point_sets(a: np.ndarray, b: np.ndarray) -> float:
    d = cdist(a, b)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def point_to_convex_polygon(pts: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Distances from points to a convex polygon (vertices counterclockwise)."""
    a = poly
    b = np.roll(poly, -1, axis=0)
    ab = b - a
    ap = pts[:, None, :] - a[None, :, :]
    t = np.clip((ap * ab).sum(axis=2) / (ab * ab).sum(axis=1), 0.0, 1.0)
    edge = np.hypot(*(ap - t[:, :, None] * ab).transpose(2, 0, 1)).min(axis=1)
    cross = ab[None, :, 0] * ap[:, :, 1] - ab[None, :, 1] * ap[:, :, 0]
    inside = (cross >= -1e-12).all(axis=1)
    return np.where(inside, 0.0, edge)


def hausdorff_convex_polygons(a: np.ndarray, b: np.ndarray) -> float:
    # distance to a convex set is convex along edges, so vertices attain the sups
    return float(max(point_to_convex_polygon(a, b).max(), point_to_convex_polygon(b, a).max()))


def union_support(direction, vertices: np.ndarray, generators: np.ndarray) -> float:
    u = np.asarray(direction, dtype=float)
    if len(generators) and float((generators @ u).max()) > 0.0:
        return math.inf
    return float((vertices @ u).max())


def windowed_bracket(offsets: np.ndarray, point: np.ndarray, R: float, samples: int = 1024):
    """Bracket for the program's windowed H(S_n, axis ray) in the box [-R, R]^2.

    Inside the box S_n is the segments offset .. (R, offset_y) plus one point,
    and the axis ray is the segment [0, R] x {0}. From S_n to the ray the sup
    sits at segment endpoints. From the ray to S_n, d(., S_n) is 1-Lipschitz,
    so `samples` equally spaced points give it to within half their spacing.
    The program samples each edge at 128 points, so it may read up to R / 256
    below the true sup, never above it.
    """
    ends = np.concatenate([offsets, np.column_stack([np.full(len(offsets), R), offsets[:, 1]]), point[None, :]])
    outward = float(np.hypot(np.clip(ends[:, 0], None, 0.0) + np.clip(ends[:, 0] - R, 0.0, None), ends[:, 1]).max())
    xs = np.linspace(0.0, R, samples)
    to_rays = point_to_rays_many(xs, offsets)
    to_point = np.hypot(xs - point[0], point[1])
    inward = float(np.minimum(to_rays, to_point).max())
    step = R / (samples - 1)
    lo = max(outward, inward - R / 256.0)
    hi = max(outward, inward + 0.5 * step)
    return lo, hi


def point_to_rays_many(xs: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """min over rays of the distance from each axis point (x, 0) to the ray."""
    dx = xs[:, None] - offsets[None, :, 0]
    dy = np.abs(offsets[None, :, 1])
    return np.where(dx >= 0.0, dy, np.hypot(dx, dy)).min(axis=1)
