"""Set-valued sequence families bound to scalar drivers.

Five families cover the experiment catalog:

  segment      X_n = [x_n, x_n + 1]            (d=1, compact convex)
  two_point    X_n = {x_n, x_n + 1}            (d=1, compact, nonconvex)
  random_ball  X_n = ball(0, r_n)              (d=2, compact convex)
  needle_halo  X_n = R ∪ {eps_n / n}           (d=2, unbounded; R = x-axis ray,
                                                eps_n uniform on the unit disk)
  random_ray   X_n = ray(cos t_n, sin t_n)     (d=2, unbounded; t_n = ±1/n)

Each family ships its sampled sets exactly (no approximation), an analytic
expectation, point selections whose means are exact, and the analytic
second-moment series the convergence theory needs. `_sets` alone builds the
sets, one driver scan per index range, as a pure function of (spec, seed, range).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from . import rng
from .geometry import (
    Cone,
    SetUnion,
    ball_cell,
    interval_cell,
    point_union,
    ray_cell,
    support,
    union_of,
    vnorm,
)
from .mixing import Law, ScalarDriver, _draw_block, fair_sign_driver

FAMILIES = ("segment", "two_point", "random_ball", "needle_halo", "random_ray")


class ProcessError(Exception):
    pass


class TargetNotInA(ProcessError):
    pass


class UnknownMoments(ProcessError):
    pass


@dataclass(frozen=True)
class SetProcessSpec:
    """One of the five set-valued sequence families bound to a driver.

    segment / two_point / random_ball need a scalar driver (the segment left
    endpoint, the lattice base point, the ball radius). random_ray takes a
    sign driver emitting ±1 (independent fair signs when omitted).
    needle_halo draws its own disk points and takes no driver.
    """

    family: str
    driver: ScalarDriver | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family in ("segment", "two_point", "random_ball") and self.driver is None:
            raise UnknownMoments(f"{self.family} needs a driver with analytic moments")
        if self.family == "random_ball":
            if self.driver.mean < 0:
                raise ValueError("random_ball needs a driver with a nonnegative mean radius")
            clamped_mean(self.driver)  # refuses a driver whose clamped mean has no closed form
        if self.family == "needle_halo" and self.driver is not None:
            raise ValueError("needle_halo draws its own halo points; no driver allowed")
        if self.family == "random_ray" and self.driver is not None:
            emitted = _emitted_values(self.driver)
            if not emitted or not emitted <= {-1.0, 1.0}:
                raise ValueError("random_ray sign driver must emit values in {-1, +1}")

    @property
    def dimension(self) -> int:
        return 1 if self.family in ("segment", "two_point") else 2

    @property
    def is_bounded(self) -> bool:
        return self.family in ("segment", "two_point", "random_ball")


def _emitted_values(d: ScalarDriver) -> set[float]:
    """The finite set of values the driver emits; empty when it is not finite
    or not known: a continuous law, or an m_dependent average of m + 1 draws."""
    if d.family == "m_dependent":
        return set()
    emitted = set()
    for law in d.laws:
        if law.kind == "choice":
            emitted |= set(law.values)
        elif law.kind == "constant":
            emitted.add(law.a)
        else:
            return set()
    return emitted


def _clamped_law_mean(law: Law) -> float | None:
    """E[max(0, X)] for X drawn from the law; None when X is never below 0."""
    if law.kind == "normal":
        from scipy.special import ndtr  # imported at first use, as `ndtri` in `mixing`

        mu, sigma = law.a, law.b
        if sigma == 0.0 or ndtr(-mu / sigma) == 0.0:
            return None if mu >= 0.0 else 0.0
        z = mu / sigma  # mu Phi(z) + sigma phi(z)
        return float(mu * ndtr(z)) + sigma * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    if (min(law.values) if law.kind == "choice" else law.a) >= 0.0:
        return None
    if law.kind == "uniform":
        return max(law.b, 0.0) ** 2 / (2.0 * (law.b - law.a))
    return math.fsum(w * max(v, 0.0) for v, w in zip(law.values, law.weights))  # a constant below 0: 0.0


def clamped_mean(driver: ScalarDriver) -> float:
    """E[max(0, r)] of the driver's draws r, averaged over the two laws of an
    alternating driver: the mean radius of random_ball, whose sets clamp
    their radii at 0. It is `driver.mean` itself when no value the driver can
    emit is below 0. An m_dependent average of a non-normal law that reaches
    below 0 has no closed form here and raises UnknownMoments.
    """
    laws = driver.laws
    if driver.family == "m_dependent" and driver.law.kind == "normal":  # an average of normals is normal
        laws = (Law.normal(driver.law.a, driver.law.b / math.sqrt(driver.m + 1)),) * 2
    means = [_clamped_law_mean(law) for law in laws]
    if all(m is None for m in means):
        return driver.mean
    if driver.family == "m_dependent" and driver.law.kind != "normal":
        raise UnknownMoments("no closed form for E[max(0, r)] of an m_dependent average below 0")
    return math.fsum(law.mean if m is None else m for law, m in zip(laws, means)) / len(laws)


def segment_process(driver: ScalarDriver) -> SetProcessSpec:
    return SetProcessSpec(family="segment", driver=driver)


def two_point_process(driver: ScalarDriver) -> SetProcessSpec:
    return SetProcessSpec(family="two_point", driver=driver)


def ball_process(driver: ScalarDriver) -> SetProcessSpec:
    return SetProcessSpec(family="random_ball", driver=driver)


def needle_halo_process() -> SetProcessSpec:
    return SetProcessSpec(family="needle_halo")


def ray_process(sign_driver: ScalarDriver | None = None) -> SetProcessSpec:
    return SetProcessSpec(family="random_ray", driver=sign_driver)


AXIS_RAY = ray_cell((0.0, 0.0), (1.0, 0.0))


def halo_point(n: int, seed: int) -> tuple[float, float]:
    e = rng.unit_disk_point(seed, n)
    return (e[0] / n, e[1] / n)


def _draws(spec: SetProcessSpec, start: int, count: int, seed: int) -> np.ndarray:
    """What X_start..X_{start+count-1} are built from: driver draws, or halo points."""
    if start < 1:
        raise ValueError("n is 1-based")
    if spec.family == "needle_halo":
        return np.array([halo_point(k, seed) for k in range(start, start + count)])
    # a random_ray spec without a driver takes independent fair signs
    return _draw_block(spec.driver if spec.driver is not None else fair_sign_driver(), seed, start - 1, count)


def _sets(spec: SetProcessSpec, start: int, count: int, seed: int):
    """X_start..X_{start+count-1}, each a SetUnion; the point and ray
    families are built straight from translate-group rows."""
    if spec.family == "needle_halo":
        return (SetUnion({AXIS_RAY.cone: np.zeros((1, 2)), Cone.trivial(2): h[None] + 0.0})
                for h in _draws(spec, start, count, seed))
    xs = _draws(spec, start, count, seed).tolist()
    if spec.family == "random_ray":
        return (SetUnion({Cone.from_generators(2, [(math.cos(s / k), math.sin(s / k))]): np.zeros((1, 2))})
                for k, s in enumerate(xs, start))
    if spec.family == "two_point":  # one row when x + 1.0 rounds back to x
        return (SetUnion({Cone.trivial(1): np.array(sorted({x + 0.0, x + 1.0}))[:, None]}) for x in xs)
    if spec.family == "segment":
        return (union_of([interval_cell(x, x + 1.0)]) for x in xs)
    return (union_of([ball_cell((0.0, 0.0), max(0.0, x))]) for x in xs)  # a Ball needs radius >= 0


def ray_direction(spec: SetProcessSpec, n: int, seed: int) -> tuple[float, float]:
    th = float(_draws(spec, n, 1, seed)[0]) / n
    return (math.cos(th), math.sin(th))


def sample_set(spec: SetProcessSpec, n: int, seed: int) -> SetUnion:
    """The n-th set of the sequence (1-based), encoded exactly."""
    return next(_sets(spec, n, 1, seed))


# ---------------------------------------------------------------------------
# expectations


@dataclass(frozen=True)
class AumannExpectation:
    """Expectation data for a family.

    convexified is the closed convex set used where convexity is needed;
    claimed is the set the family is analyzed against (differs from the
    convexification only for two_point, whose claimed expectation {mu, mu+1}
    convexifies to [mu, mu+1] over a nonatomic space). family_constant
    records weak stationarity: the expectation does not depend on the index.
    """

    convexified: SetUnion
    claimed: SetUnion
    family_constant: bool


def expectation(spec: SetProcessSpec) -> AumannExpectation:
    if spec.family == "segment":
        mu = spec.driver.mean
        seg = union_of([interval_cell(mu, mu + 1.0)])
        return AumannExpectation(convexified=seg, claimed=seg, family_constant=True)
    if spec.family == "two_point":
        mu = spec.driver.mean
        return AumannExpectation(
            convexified=union_of([interval_cell(mu, mu + 1.0)]),
            claimed=point_union([(mu,), (mu + 1.0,)]),
            family_constant=True,
        )
    if spec.family == "random_ball":
        # weak stationarity needs only the means to match across parities,
        # which the driver families guarantee by construction
        ball = union_of([ball_cell((0.0, 0.0), clamped_mean(spec.driver))])
        return AumannExpectation(convexified=ball, claimed=ball, family_constant=True)
    ray = union_of([AXIS_RAY])
    # the unbounded families are analyzed against the axis ray itself
    return AumannExpectation(convexified=ray, claimed=ray, family_constant=True)


# ---------------------------------------------------------------------------
# support processes


def support_process(spec: SetProcessSpec, x_star, n_range, seed: int) -> list[float]:
    """s(x*, X_n) along the index range; +inf entries are legitimate values."""
    ns = list(n_range)
    if not ns:
        raise ValueError("empty index range")
    values = {}
    for _, run in groupby(enumerate(sorted(set(ns))), lambda t: t[1] - t[0]):  # runs of consecutive n
        run = [n for _, n in run]
        values.update(zip(run, (support(x_star, x) for x in _sets(spec, run[0], len(run), seed))))
    return [values[n] for n in ns]


# ---------------------------------------------------------------------------
# selections


def _require_target(spec: SetProcessSpec, target) -> tuple[float, ...]:
    target = tuple(float(t) for t in target)
    if spec.family == "segment":
        mu = spec.driver.mean
        if len(target) != 1 or not mu - 1e-12 <= target[0] <= mu + 1.0 + 1e-12:
            raise TargetNotInA(f"{target} is not in [{mu}, {mu + 1.0}]")
    elif spec.family == "two_point":
        mu = spec.driver.mean
        if len(target) != 1 or min(abs(target[0] - mu), abs(target[0] - mu - 1.0)) > 1e-12:
            raise TargetNotInA(f"{target} is not one of the two expectation points")
    elif spec.family in ("needle_halo", "random_ray"):
        if len(target) != 2 or abs(target[1]) > 1e-12 or target[0] < -1e-12:
            raise TargetNotInA(f"{target} is not on the axis ray")
    else:
        raise ValueError("selections are not defined for random_ball")
    return target


def selection(spec: SetProcessSpec, target, n: int, seed: int, rule: str | None = None):
    """A point of X_n whose analytic mean over the randomness equals target.

    needle_halo: the constant selection (default); rule="halo_point" picks
    the halo point itself, valid only for target 0. random_ray: the ray point
    at parameter a / cos(1/n), hitting (a, ±a tan(1/n)). segment/two_point:
    the driver draw shifted by the target's offset from the mean.
    """
    target = _require_target(spec, target)
    if spec.is_bounded:  # segment or two_point: _require_target refuses random_ball
        x = float(_draws(spec, n, 1, seed)[0])
        if spec.family == "segment":
            return (x + (target[0] - spec.driver.mean),)
        return (x + (0.0 if abs(target[0] - spec.driver.mean) <= 1e-12 else 1.0),)
    if spec.family == "needle_halo":
        if rule == "halo_point":
            if vnorm(target) > 1e-12:
                raise TargetNotInA("the halo-point selection averages to the origin only")
            return tuple(_draws(spec, n, 1, seed)[0].tolist())
        return target
    v = ray_direction(spec, n, seed)
    t = target[0] / math.cos(1.0 / n)
    return (t * v[0], t * v[1])


def selection_moment_series(
    spec: SetProcessSpec, target, N: int, rule: str | None = None
) -> tuple[float, str]:
    """Partial sum of E||x_n - a||^2 / n^2 for the family's selection rule.

    Terms are analytic, so the result is deterministic. Returns the partial
    sum and a note naming the per-term formula used.
    """
    target = _require_target(spec, target)
    if spec.family in ("segment", "two_point"):
        total = math.fsum(spec.driver.variance_at(n) / n**2 for n in range(1, N + 1))
        return total, "var(x_n) / n^2"
    if spec.family == "needle_halo":
        if rule == "halo_point":
            if vnorm(target) > 1e-12:
                raise TargetNotInA("the halo-point selection averages to the origin only")
            # E||eps||^2 = 1/2 on the unit disk, and the halo point is eps/n
            total = math.fsum(0.5 / n**4 for n in range(1, N + 1))
            return total, "E||eps||^2 / n^4 = 1 / (2 n^4)"
        return 0.0, "0 (constant selection)"
    a = target[0]
    total = math.fsum((a * math.tan(1.0 / n)) ** 2 / n**2 for n in range(1, N + 1))
    return total, "a^2 tan^2(1/n) / n^2"


# ---------------------------------------------------------------------------
# support second-moment series


@dataclass(frozen=True)
class SupportMomentSeries:
    """Partial sum of E|s(x*, X_n) - s(x*, A)|^2 / n^2.

    vacuous marks directions where s(x*, A) = +inf (outside the polar cone of
    the recession cone of A), where the series imposes no constraint.
    infinite_term_at is the first index whose term has infinite second moment.
    """

    partial_sum: float | None
    infinite_term_at: int | None
    vacuous: bool


def support_moment_series(spec: SetProcessSpec, x_star, N: int) -> SupportMomentSeries:
    """The series for x*; a random_ball term uses the variance of the
    unclamped radius, an upper bound for the clamped one's, because clamping
    at 0 is 1-Lipschitz."""
    exp = expectation(spec)
    s_a = support(x_star, exp.claimed)
    if math.isinf(s_a):
        return SupportMomentSeries(partial_sum=None, infinite_term_at=None, vacuous=True)
    if spec.is_bounded:
        c2 = x_star[0] ** 2 if spec.dimension == 1 else vnorm(x_star) ** 2
        total = math.fsum(c2 * spec.driver.variance_at(n) / n**2 for n in range(1, N + 1))
        return SupportMomentSeries(partial_sum=total, infinite_term_at=None, vacuous=False)
    if spec.family == "needle_halo":
        # s(x*, X_n) = max(<x*, eps/n>, 0) and E[max(<x*, eps>, 0)^2] = |x*|^2/8
        c2 = vnorm(x_star) ** 2 / 8.0
        total = math.fsum(c2 / n**4 for n in range(1, N + 1))
        return SupportMomentSeries(partial_sum=total, infinite_term_at=None, vacuous=False)
    # random_ray: the term is 0 when both sign outcomes keep <x*, v_n> <= 0,
    # and +inf as soon as one outcome escapes along the ray
    first_inf = None
    for n in range(1, N + 1):
        up = x_star[0] * math.cos(1.0 / n) + x_star[1] * math.sin(1.0 / n)
        dn = x_star[0] * math.cos(1.0 / n) - x_star[1] * math.sin(1.0 / n)
        if up > 0.0 or dn > 0.0:
            first_inf = n
            break
    if first_inf is not None:
        return SupportMomentSeries(partial_sum=math.inf, infinite_term_at=first_inf, vacuous=False)
    return SupportMomentSeries(partial_sum=0.0, infinite_term_at=None, vacuous=False)

