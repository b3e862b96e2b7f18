"""Experiment orchestration for set-valued averaging.

Hausdorff trajectories for the bounded families, exact Minkowski averages
S_1..S_n summed in one pass over `processes._sets` per seed (the point and ray
families sum as translate-group arrays of `SetUnion`, with no cell objects on
the way to the cells file), halo containment certificates, ray-sector
tracking with Kuratowski-Mosco failure certificates, distance-proxy K-M
diagnostics, and a combined hypotheses report covering the three convergence
conditions (mixing summability, selection second moments, support second
moments).

Almost-sure limit statements cannot be certified from finite runs. The
protocol here is fixed instead: explicit seeds, geometric checkpoints, a final
tolerance, and a bounded outlier allowance, reported as evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    SetUnion,
    _minkowski_sum,
    cell_distances,
    point_cell,
    point_to_union_distance,
    scale,
    vnorm,
)
from .mixing import PhiProfile, checkpoint_means
from .processes import (
    AXIS_RAY,
    SetProcessSpec,
    _draws,
    _sets,
    clamped_mean,
    expectation,
    selection_moment_series,
    support_moment_series,
)


class ExperimentError(Exception):
    pass


class UnboundedFamily(ExperimentError):
    pass


class ProbeOutsideD(ExperimentError):
    pass


# ---------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True)
class Trajectory:
    checkpoints: tuple[int, ...]
    values: tuple[float, ...]
    metric_name: str
    seed: int

    def __post_init__(self):
        if len(self.checkpoints) != len(self.values):
            raise ValueError("checkpoints and values must align")
        if any(v < 0 for v in self.values):
            raise ValueError("distance values must be nonnegative")


def trajectory_csv(trajectories) -> str:
    rows = ["metric,seed,n,value"]
    for t in sorted(trajectories, key=lambda t: (t.metric_name, t.seed)):
        for n, v in zip(t.checkpoints, t.values):
            rows.append(f"{t.metric_name},{t.seed},{n},{v!r}")
    return "\n".join(rows) + "\n"


def _lattice_distance(x: float, m: float, n: int) -> float:
    """Distance from x to the lattice {m + i/n : 0 <= i <= n}."""
    if x < m:
        return m - x
    if x > m + 1.0:
        return x - (m + 1.0)
    t = (x - m) * n
    return min(t - math.floor(t), math.ceil(t) - t) / n


def lattice_interval_hausdorff(m: float, n: int) -> float:
    """Exact H between the lattice {m + i/n : 0 <= i <= n} and [0, 1].

    The directed sup from the lattice is |m|; the reverse direction adds the
    interval endpoints' grid distances and the half-gap 1/(2n) when a full
    lattice gap sits inside [0, 1]. All candidates are O(1) to evaluate.
    """
    cands = [abs(m), _lattice_distance(0.0, m, n), _lattice_distance(1.0, m, n)]
    i_lo = max(0, math.ceil(-m * n - 0.5))
    i_hi = min(n - 1, math.floor((1.0 - m) * n - 0.5))
    if i_lo <= i_hi:
        cands.append(0.5 / n)
    return max(cands)


def lattice_two_point_hausdorff(m: float, n: int) -> float:
    """Exact H between the lattice {m + i/n} and the pair {0, 1}."""

    def to_pair(x: float) -> float:
        return min(abs(x), abs(x - 1.0))

    cands = [to_pair(m), to_pair(m + 1.0)]
    mid = (0.5 - m) * n
    for i in (math.floor(mid), math.ceil(mid)):
        if 0 <= i <= n:
            cands.append(to_pair(m + i / n))
    return max(max(cands), _lattice_distance(0.0, m, n), _lattice_distance(1.0, m, n))


def _running_means(spec: SetProcessSpec, n_max: int, checkpoints, seed):
    """(mu, means): the driver's mean and running means at the checkpoints,
    of radii clamped at 0 for random_ball, as `sample_set` clamps them."""
    ball = spec.family == "random_ball"
    mu = clamped_mean(spec.driver) if ball else spec.driver.mean
    return mu, checkpoint_means(spec.driver, n_max, checkpoints, seed, clamp=ball)


def run_hausdorff_slln(spec: SetProcessSpec, target: str, n_max: int, checkpoints, seed: int) -> Trajectory:
    """Exact Hausdorff trajectory of the running Minkowski average of one seed.

    target is "A" (claimed expectation) or "coA" (its convexification). Each
    family admits an exact incremental form: the segment average is the
    interval [m_n, m_n + 1], the two-point average is the n+1 point lattice,
    and the ball average is the ball with the mean radius. The unbounded
    families have no finite Hausdorff distance to their targets; use the K-M
    diagnostics for them.
    """
    if not spec.is_bounded:
        raise UnboundedFamily(f"{spec.family} averages are unbounded")
    if target not in ("A", "coA"):
        raise ValueError("target must be 'A' or 'coA'")
    checkpoints = [int(c) for c in checkpoints]
    mu, means = _running_means(spec, n_max, checkpoints, seed)
    values = []
    for cp, m in zip(checkpoints, means):
        if spec.family == "two_point":
            lattice_h = lattice_interval_hausdorff if target == "coA" else lattice_two_point_hausdorff
            values.append(lattice_h(m - mu, cp))
        else:
            values.append(abs(m - mu))
    return Trajectory(
        checkpoints=tuple(checkpoints),
        values=tuple(values),
        metric_name=f"hausdorff_{spec.family}_{target}",
        seed=int(seed),
    )


# ---------------------------------------------------------------------------
# exact cell expansion


def _prefix_sums(spec: SetProcessSpec, n: int, seed: int, cell_budget: int | None = None):
    """Yield (k, X_1 + ... + X_k) for k = 1..n of one (spec, seed), unscaled;
    S_k is `scale(1 / k, ...)` of one.

    The point and ray families (needle_halo, two_point, random_ray) sum as
    translate groups: a step is one broadcast add per pair of cones and one
    exact row dedup. Each step checks the cell budget on the product of the
    two cell counts.
    """
    total = None
    for k, x in enumerate(_sets(spec, 1, n, seed), 1):
        total = x if total is None else _minkowski_sum(total, x, cell_budget)
        yield k, total


def exact_cell_expansion(spec: SetProcessSpec, n: int, seed: int, cell_budget: int | None = None) -> SetUnion:
    """S_n = (1/n) * (X_1 + ... + X_n), exact, from the last of `_prefix_sums`.

    Cell counts multiply before deduplication (2^n for the union families),
    so the cell budget caps n; the halo family reaches n = 19 at the default
    budget. Ray sums collapse to a single sector cell at every step.
    """
    if n < 1:
        raise ValueError("n is 1-based")
    for k, total in _prefix_sums(spec, n, seed, cell_budget):
        pass
    return scale(1.0 / k, total)


# ---------------------------------------------------------------------------
# halo certificates


def harmonic_halo_radius(n: int) -> float:
    """r_n = (1/n) * sum_{i<=n} 1/i, the shrinking halo radius."""
    return math.fsum(1.0 / i for i in range(1, n + 1)) / n


_ORIGIN = point_cell((0.0, 0.0))


def halo_certificates(spec: SetProcessSpec, n_max: int, seed: int) -> list[tuple[bool, bool, float]]:
    """`halo_certificate` for n = 1..n_max, read from one pass over the prefixes."""
    if spec.family != "needle_halo":
        raise ValueError("halo certificates only apply to the needle_halo family")
    if n_max < 1:
        raise ValueError("n is 1-based")
    rows = []
    for n, total in _prefix_sums(spec, n_max, seed):
        groups = scale(1.0 / n, total).groups
        r_n = harmonic_halo_radius(n)
        rays = groups.get(AXIS_RAY.cone)
        a_inside = rays is not None and bool((rays == 0.0).all(axis=1).any())
        # a point's distance to the axis ray, a translated ray's offset norm
        in_halo = all(
            not (cell_distances(A, AXIS_RAY if cone.is_trivial else _ORIGIN) > r_n).any()
            for cone, A in groups.items()
        )
        rows.append((a_inside, in_halo, r_n))
    return rows


def halo_certificate(spec: SetProcessSpec, n: int, seed: int) -> tuple[bool, bool, float]:
    """(axis ray inside S_n, S_n inside ray + ball(0, r_n), r_n), all exact.

    The first flag locates the untranslated ray cell in the expansion; the
    second checks every translated ray's offset norm and the distance of the
    single leftover point cell to the ray.
    """
    return halo_certificates(spec, n, seed)[-1]


# ---------------------------------------------------------------------------
# K-M reports


@dataclass(frozen=True)
class SectorCertificate:
    """A fixed sector inside every later S_n, witnessing K-M failure."""

    k_plus: int
    k_minus: int
    opening_angle: float
    witness: tuple[float, float]
    witness_distance: float

    def as_dict(self) -> dict:
        return {
            "k_plus": self.k_plus,
            "k_minus": self.k_minus,
            "opening_angle": self.opening_angle,
            "witness_x": self.witness[0],
            "witness_y": self.witness[1],
            "witness_distance": self.witness_distance,
        }


@dataclass(frozen=True)
class KMReport:
    verdict: str  # converges_evidence | fails_with_certificate | no_mixed_signs | inconclusive
    seed: int
    checkpoints: tuple[int, ...] = ()
    probes: tuple[tuple[float, ...], ...] = ()
    probe_distances: tuple[tuple[float, ...], ...] = ()  # one row per probe
    excess: tuple[float, ...] = ()
    excess_method: tuple[str, ...] = ()
    window_radius: float | None = None
    tolerance: float | None = None
    certificate: SectorCertificate | None = None

    def as_dict(self) -> dict:
        d = {
            "verdict": self.verdict,
            "seed": self.seed,
            "checkpoints": list(self.checkpoints),
            "probes": [list(p) for p in self.probes],
            "probe_distances": [list(r) for r in self.probe_distances],
            "excess": list(self.excess),
            "excess_method": list(self.excess_method),
            "window_radius": self.window_radius,
            "tolerance": self.tolerance,
            "certificate": self.certificate.as_dict() if self.certificate else None,
        }
        return d


def _ray_tilts(spec: SetProcessSpec, n_max: int, seed: int):
    """(tilts, alpha_plus, alpha_minus) of the ray family at indices 1..n_max.

    The n-th tilt is sign_n / n; alpha_plus is the running max of the
    positive tilts (-inf before the first) and alpha_minus the running min of
    the negative ones (+inf before the first).
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    tilts = _draws(spec, 1, n_max, seed) / np.arange(1, n_max + 1, dtype=float)
    alpha_plus = np.maximum.accumulate(np.where(tilts > 0, tilts, -np.inf))
    alpha_minus = np.minimum.accumulate(np.where(tilts < 0, tilts, np.inf))
    return tilts, alpha_plus, alpha_minus


def cone_tracking(spec: SetProcessSpec, n_max: int, seed: int) -> KMReport:
    """Track the sector boundary angles of the averaged ray family.

    Once a positive and a negative tilt have both occurred (first indices
    k_plus, k_minus), the averages contain a fixed sector forever after; the
    report carries that sector and a witness point whose distance to the axis
    ray stays sin(1/k_plus) > 0, verified by exact angle comparison at every
    later index. Without mixed signs by n_max the verdict is no_mixed_signs.
    """
    if spec.family != "random_ray":
        raise ValueError("cone tracking only applies to the random_ray family")
    return _track_sector(_ray_tilts(spec, n_max, seed), seed)


def _track_sector(ray_tilts, seed: int) -> KMReport:
    """cone_tracking's verdict from one `_ray_tilts` triple."""
    tilts, alpha_plus, alpha_minus = ray_tilts
    pos = np.flatnonzero(tilts > 0)
    neg = np.flatnonzero(tilts < 0)
    if len(pos) == 0 or len(neg) == 0:
        return KMReport(verdict="no_mixed_signs", seed=int(seed))
    k_plus = int(pos[0]) + 1
    k_minus = int(neg[0]) + 1
    witness_angle = 1.0 / k_plus
    # alpha_n^+ is the running max of positive tilts; tilts shrink with the
    # index, so it must equal 1/k_plus from k_plus onward (checked, not assumed)
    n0 = max(k_plus, k_minus)
    persistent = np.all(alpha_plus[n0 - 1 :] >= witness_angle) and np.all(
        alpha_minus[n0 - 1 :] <= -1.0 / k_minus
    )
    if not persistent:
        raise ExperimentError("sector persistence check failed")  # pragma: no cover
    cert = SectorCertificate(
        k_plus=k_plus,
        k_minus=k_minus,
        opening_angle=1.0 / k_plus + 1.0 / k_minus,
        witness=(math.cos(witness_angle), math.sin(witness_angle)),
        witness_distance=math.sin(witness_angle),
    )
    return KMReport(verdict="fails_with_certificate", seed=int(seed), certificate=cert)


def km_probes(spec: SetProcessSpec, probes, window_radius: float) -> list[tuple[float, ...]]:
    """The K-M probe points as float tuples, checked: at least one, each of
    the family's dimension, in the target set D and inside the open window."""
    probes = [tuple(float(c) for c in p) for p in probes]
    if not probes:
        raise ValueError("need at least one probe point")
    D = expectation(spec).convexified
    for p in probes:
        if point_to_union_distance(p, D) > 1e-9:  # also checks the dimension
            raise ProbeOutsideD(f"probe {p} is not in the target set")
        if vnorm(p) >= window_radius:
            raise ValueError("window_radius must exceed every probe norm")
    return probes


_KM_CELL_BUDGET_N = 16  # run_km_diagnostics builds S_n cell by cell up to this n


def run_km_diagnostics(
    spec: SetProcessSpec,
    probes,
    window_radius: float,
    n_max: int,
    checkpoints,
    seed: int,
    tolerance: float = 0.05,
) -> KMReport:
    """Distance proxies for Kuratowski-Mosco convergence of S_n to D.

    The inner proxy tracks max over probe points of d(probe, S_n within the
    window); the outer proxy tracks sup over S_n in the window of d(., D).
    Both come from cell geometry when the exact expansion fits the budget
    (n <= _KM_CELL_BUDGET_N) and from the family's parametric structure otherwise
    (halo: the r_n bound; ray: window_radius * sin of the widest tilt).
    In R^d on a bounded window weak and strong sequential limits coincide, so
    one distance pair serves for both.
    """
    checkpoints = [int(c) for c in checkpoints]
    if not checkpoints or checkpoints != sorted(checkpoints) or checkpoints[0] < 1 or checkpoints[-1] > n_max:
        raise ValueError("checkpoints must be sorted and within 1..n_max")
    probes = km_probes(spec, probes, window_radius)
    if spec.family == "needle_halo":
        return _km_needle(spec, probes, window_radius, checkpoints, seed, tolerance)
    if spec.family == "random_ray":
        return _km_ray(spec, probes, window_radius, n_max, checkpoints, seed, tolerance)
    return _km_bounded(spec, probes, window_radius, checkpoints, seed, tolerance)


def _finish_km(probe_rows, excess, methods, probes, checkpoints, window_radius, tolerance, seed, certificate=None):
    if certificate is not None:
        verdict = "fails_with_certificate"
    elif max(r[-1] for r in probe_rows) <= tolerance and excess[-1] <= tolerance:
        verdict = "converges_evidence"
    else:
        verdict = "inconclusive"
    return KMReport(
        verdict=verdict,
        seed=int(seed),
        checkpoints=tuple(checkpoints),
        probes=tuple(probes),
        probe_distances=tuple(tuple(r) for r in probe_rows),
        excess=tuple(excess),
        excess_method=tuple(methods),
        window_radius=window_radius,
        tolerance=tolerance,
        certificate=certificate,
    )


def _km_needle(spec, probes, R, checkpoints, seed, tolerance):
    n_exact = max((cp for cp in checkpoints if cp <= _KM_CELL_BUDGET_N), default=0)
    at = {k: scale(1.0 / k, total) for k, total in _prefix_sums(spec, n_exact, seed) if k in checkpoints}
    probe_rows = [[] for _ in probes]
    excess, methods = [], []
    for cp in checkpoints:
        if cp <= _KM_CELL_BUDGET_N:
            for i, p in enumerate(probes):
                probe_rows[i].append(point_to_union_distance(p, at[cp]))
            # every cell is a translated ray or the leftover point; the sup of
            # d(., axis ray) over a rightward ray translate sits at its vertex
            excess.append(max(float(cell_distances(A, AXIS_RAY).max()) for A in at[cp].groups.values()))
            methods.append("exact_cells")
        else:
            for i in range(len(probes)):
                probe_rows[i].append(0.0)  # the untranslated ray is always a cell
            excess.append(harmonic_halo_radius(cp))
            methods.append("halo_bound_r_n")
    return _finish_km(probe_rows, excess, methods, probes, checkpoints, R, tolerance, seed)


def _km_ray(spec, probes, R, n_max, checkpoints, seed, tolerance):
    ray_tilts = _ray_tilts(spec, n_max, seed)
    tilts, alpha_plus, alpha_minus = ray_tilts
    min_abs = np.minimum.accumulate(np.abs(tilts))
    probe_rows = [[] for _ in probes]
    excess, methods = [], []
    for cp in checkpoints:
        ap, am = alpha_plus[cp - 1], alpha_minus[cp - 1]
        widest = max(ap if np.isfinite(ap) else 0.0, -am if np.isfinite(am) else 0.0)
        excess.append(R * math.sin(widest))
        methods.append("parametric_sector")
        mixed = np.isfinite(ap) and np.isfinite(am)
        for i, p in enumerate(probes):
            if mixed or vnorm(p) == 0.0:
                probe_rows[i].append(0.0)  # the sector straddles the axis
            else:
                probe_rows[i].append(vnorm(p) * math.sin(min(min_abs[cp - 1], 0.5 * math.pi)))
    cert = _track_sector(ray_tilts, seed).certificate
    return _finish_km(probe_rows, excess, methods, probes, checkpoints, R, tolerance, seed, certificate=cert)


def _km_bounded(spec, probes, R, checkpoints, seed, tolerance):
    mu, means = _running_means(spec, checkpoints[-1], checkpoints, seed)
    probe_rows = [[] for _ in probes]
    excess, methods = [], []
    for cp, m in zip(checkpoints, means):
        if spec.family == "segment":
            lo, hi = m, m + 1.0
            for i, p in enumerate(probes):
                probe_rows[i].append(max(lo - p[0], p[0] - hi, 0.0))
            excess.append(max(abs(m - mu), 0.0))
        elif spec.family == "two_point":
            for i, p in enumerate(probes):
                probe_rows[i].append(_lattice_distance(p[0], m, cp))
            excess.append(abs(m - mu))
        else:  # random_ball
            for i, p in enumerate(probes):
                probe_rows[i].append(max(0.0, vnorm(p) - m))
            excess.append(max(0.0, m - mu))
        methods.append("parametric_mean")
    return _finish_km(probe_rows, excess, methods, probes, checkpoints, R, tolerance, seed)


# ---------------------------------------------------------------------------
# hypotheses report


@dataclass(frozen=True)
class HypothesesReport:
    """Aggregated evidence for the three strong-law hypotheses.

    mixing_summability: the sqrt-summability of the dependence profile;
    selection_moments: one (target, partial_sum, formula) row per target;
    support_moments: one row per probe direction, vacuous directions marked.
    """

    mixing_verdict: str
    mixing_partial_sum: float
    selection_rows: tuple[tuple[tuple[float, ...], float, str], ...]
    support_rows: tuple[dict, ...]
    overall: str  # hypotheses_hold_evidence | hypothesis_violated
    violated: str | None = None
    witness: dict | None = None

    def as_dict(self) -> dict:
        return {
            "mixing": {"verdict": self.mixing_verdict, "sqrt_partial_sum": self.mixing_partial_sum},
            "selection_moments": [
                {"target": list(t), "partial_sum": s, "term_formula": f} for t, s, f in self.selection_rows
            ],
            "support_moments": list(self.support_rows),
            "overall": self.overall,
            "violated": self.violated,
            "witness": self.witness,
        }


def slln_hypotheses_report(spec: SetProcessSpec, targets, directions, N: int) -> HypothesesReport:
    """Check the convergence hypotheses for a family, analytically.

    targets must lie in the claimed expectation, directions in the dual unit
    ball. Directions whose support value at the target set is infinite fall
    outside the polar cone of the recession cone and are marked vacuous; they
    cannot violate anything.
    """
    profile = PhiProfile.for_driver(spec.driver, max(N, 10))
    violated = None
    witness = None
    if profile.verdict == "diverging":
        violated = "mixing_summability"
        witness = {"partial_sum": profile.sqrt_partial_sum}

    sel_rows = []
    for t in targets:
        total, formula = selection_moment_series(spec, t, N)
        sel_rows.append((tuple(float(c) for c in t), total, formula))
        if not math.isfinite(total) and violated is None:
            violated = "selection_moments"
            witness = {"target": list(t)}

    sup_rows = []
    for d in directions:
        res = support_moment_series(spec, d, N)
        row = {
            "direction": [float(c) for c in d],
            "vacuous": res.vacuous,
            "partial_sum": res.partial_sum,
            "infinite_term_at": res.infinite_term_at,
        }
        sup_rows.append(row)
        if not res.vacuous and res.partial_sum is not None and math.isinf(res.partial_sum):
            if violated is None:
                violated = "support_moments"
                witness = {"direction": [float(c) for c in d], "infinite_term_at": res.infinite_term_at}

    overall = "hypotheses_hold_evidence" if violated is None else "hypothesis_violated"
    return HypothesesReport(
        mixing_verdict=profile.verdict,
        mixing_partial_sum=profile.sqrt_partial_sum,
        selection_rows=tuple(sel_rows),
        support_rows=tuple(sup_rows),
        overall=overall,
        violated=violated,
        witness=witness,
    )
