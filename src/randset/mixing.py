"""Reproducible phi-mixing scalar drivers and their dependence diagnostics.

Drivers are immutable specs with analytically known moments; drawing is a pure
function of (spec, seed, index range), so parallel replications agree bit for
bit regardless of scheduling. Dependence coefficients come in two flavors:
exact values for finite-state stationary Markov chains (total-variation
reduction) and brute-force lower bounds from direct event enumeration. Drivers
built from independent draws get exact zeros.

A finite Markov chain steps state to state by one rule: from state i, the
uniform u picks the first of i+1, i+2, .., i-1, i (mod s) whose cumulative
transition probability exceeds u, so a path moves continuously with the
transition matrix. Its path is scanned forward from the nearest state kept at
a multiple of _STRIDE, so no draw replays the path from index 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product as _iproduct

import numpy as np
from scipy.special import ndtri

from .rng import STREAM_DRIVER, STREAM_DRIVER_INIT, uniform_block

_BLOCK = 1 << 16
_STRIDE = 1 << 10  # a Markov chain's state is kept at every multiple of this index
_KEPT_CHAINS = 64  # (chain, seed) pairs whose kept states stay in memory


class MixingError(Exception):
    pass


class NotStationary(MixingError):
    pass


class TooManyEvents(MixingError):
    pass


# ---------------------------------------------------------------------------
# scalar laws


@dataclass(frozen=True)
class Law:
    """Scalar law with analytic moments, sampled by inverse transform."""

    kind: str
    a: float = 0.0
    b: float = 0.0
    values: tuple[float, ...] = ()
    weights: tuple[float, ...] = ()

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, *self.values, *self.weights))):
            raise ValueError("law parameters must be finite")

    @staticmethod
    def uniform(low: float, high: float) -> "Law":
        if high < low:
            raise ValueError("uniform law endpoints out of order")
        return Law(kind="uniform", a=float(low), b=float(high))

    @staticmethod
    def normal(mean: float, sd: float) -> "Law":
        if sd < 0:
            raise ValueError("normal law needs sd >= 0")
        return Law(kind="normal", a=float(mean), b=float(sd))

    @staticmethod
    def constant(value: float) -> "Law":
        return Law(kind="constant", a=float(value))

    @staticmethod
    def choice(values, weights=None) -> "Law":
        values = tuple(float(v) for v in values)
        if weights is None:
            weights = tuple(1.0 / len(values) for _ in values)
        weights = tuple(float(w) for w in weights)
        if len(weights) != len(values):
            raise ValueError("choice needs one weight per value")
        if abs(sum(weights) - 1.0) > 1e-12 or any(w < 0 for w in weights):
            raise ValueError("choice weights must be a probability vector")
        return Law(kind="choice", values=values, weights=weights)

    @staticmethod
    def fair_signs() -> "Law":
        return Law.choice((-1.0, 1.0))

    @property
    def mean(self) -> float:
        if self.kind == "uniform":
            return 0.5 * (self.a + self.b)
        if self.kind in ("normal", "constant"):
            return self.a
        return float(sum(v * w for v, w in zip(self.values, self.weights)))

    @property
    def variance(self) -> float:
        if self.kind == "uniform":
            return (self.b - self.a) ** 2 / 12.0
        if self.kind == "normal":
            return self.b**2
        if self.kind == "constant":
            return 0.0
        m = self.mean
        return float(sum(w * (v - m) ** 2 for v, w in zip(self.values, self.weights)))

    def quantile(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "uniform":
            return self.a + (self.b - self.a) * u
        if self.kind == "normal":
            return self.a + self.b * ndtri(u)
        if self.kind == "constant":
            return np.full_like(u, self.a)
        cum = np.cumsum(self.weights)
        idx = np.searchsorted(cum, u, side="right").clip(0, len(self.values) - 1)
        return np.asarray(self.values, dtype=float)[idx]


# ---------------------------------------------------------------------------
# drivers


@dataclass(frozen=True)
class ScalarDriver:
    """A reproducible generator spec for a phi-mixing real sequence.

    Families:
      iid            independent draws from `law`
      m_dependent    moving average of m+1 independent base draws; index k
                     depends only on base draws k-m..k
      finite_markov  stationary finite chain (row-stochastic `transition`,
                     stationary `stationary`), emitting `emissions[state]`;
                     from state i a uniform u steps to the first of i+1, ..,
                     i-1, i (mod s) whose cumulative probability exceeds u
      alternating    independent draws, law_even at even 1-based indices and
                     law_odd at odd ones; the two laws must share their mean
    """

    family: str
    law: Law | None = None
    law_odd: Law | None = None
    m: int = 0
    transition: tuple[tuple[float, ...], ...] = ()
    stationary: tuple[float, ...] = ()
    emissions: tuple[float, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.family == "finite_markov":
            P = np.asarray(self.transition, dtype=float)
            pi = np.asarray(self.stationary, dtype=float)
            _check_stationary(P, pi)
            if len(self.emissions) != len(self.stationary):
                raise ValueError("need one emission value per state")
            if not np.isfinite(self.emissions).all():
                raise ValueError("emissions must be finite")
        elif self.family == "alternating":
            if self.law is None or self.law_odd is None:
                raise ValueError("alternating driver needs both laws")
            if abs(self.law.mean - self.law_odd.mean) > 1e-12:
                raise ValueError("alternating laws must share their mean")
        elif self.family in ("iid", "m_dependent"):
            if self.law is None:
                raise ValueError(f"{self.family} driver needs a law")
            if self.family == "m_dependent" and self.m < 1:
                raise ValueError("m_dependent needs m >= 1")
        else:
            raise ValueError(f"unknown driver family {self.family!r}")

    @property
    def mean(self) -> float:
        if self.family == "finite_markov":
            return float(sum(p * e for p, e in zip(self.stationary, self.emissions)))
        return self.law.mean

    def variance_at(self, n: int) -> float:
        """Variance of the draw at 1-based index n (parity matters only
        for the alternating family)."""
        if self.family == "finite_markov":
            m = self.mean
            return float(sum(p * (e - m) ** 2 for p, e in zip(self.stationary, self.emissions)))
        if self.family == "alternating":
            return self.law.variance if n % 2 == 0 else self.law_odd.variance
        if self.family == "m_dependent":
            return self.law.variance / (self.m + 1)
        return self.law.variance


def _check_stationary(P: np.ndarray, pi: np.ndarray):
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("transition matrix must be square")
    if not (np.isfinite(P).all() and np.isfinite(pi).all()):
        raise ValueError("transition and stationary entries must be finite")
    if np.any(P < -1e-15) or np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12:
        raise ValueError("transition matrix must be row-stochastic")
    if abs(pi.sum() - 1.0) > 1e-10 or np.max(np.abs(pi @ P - pi)) > 1e-10:
        raise NotStationary("the chain is not started from its stationary vector")


def iid_driver(law: Law, seed: int = 0) -> ScalarDriver:
    return ScalarDriver(family="iid", law=law, seed=seed)


def m_dependent_driver(m: int, law: Law, seed: int = 0) -> ScalarDriver:
    return ScalarDriver(family="m_dependent", law=law, m=m, seed=seed)


def markov_driver(transition, stationary, emissions, seed: int = 0) -> ScalarDriver:
    return ScalarDriver(
        family="finite_markov",
        transition=tuple(tuple(float(x) for x in row) for row in transition),
        stationary=tuple(float(x) for x in stationary),
        emissions=tuple(float(x) for x in emissions),
        seed=seed,
    )


def alternating_driver(law_even: Law, law_odd: Law, seed: int = 0) -> ScalarDriver:
    return ScalarDriver(family="alternating", law=law_even, law_odd=law_odd, seed=seed)


def fair_sign_driver(seed: int = 0) -> ScalarDriver:
    return iid_driver(Law.fair_signs(), seed=seed)


# ---------------------------------------------------------------------------
# drawing


def _draw_block(driver: ScalarDriver, seed: int, start: int, count: int) -> np.ndarray:
    """Draws for 0-based indices start .. start+count-1 (index-stable)."""
    if driver.family == "iid":
        u = uniform_block(seed, STREAM_DRIVER, start, count)
        return driver.law.quantile(u)
    if driver.family == "alternating":
        u = uniform_block(seed, STREAM_DRIVER, start, count)
        idx1 = np.arange(start + 1, start + count + 1)  # 1-based indices
        out = np.empty(count, dtype=float)
        even = idx1 % 2 == 0
        out[even] = driver.law.quantile(u[even])
        out[~even] = driver.law_odd.quantile(u[~even])
        return out
    if driver.family == "m_dependent":
        m = driver.m
        u = uniform_block(seed, STREAM_DRIVER, start, count + m)
        base = driver.law.quantile(u)
        # fixed-order windowed sum keeps each output bit-identical no matter
        # where the block boundaries fall
        acc = base[:count].copy()
        for i in range(1, m + 1):
            acc += base[i : i + count]
        return acc / (m + 1)
    return np.asarray(driver.emissions, dtype=float)[_markov_states(driver, seed, start, count)]


class _KeptChain:
    """One chain's step rule and, for one seed, its states kept at every
    multiple of _STRIDE (kept[k] is the state at 0-based index k * _STRIDE)."""

    __slots__ = ("cum", "nxt", "kept")

    def __init__(self, transition, stationary, seed: int):
        P = np.asarray(transition, dtype=float)
        pi = np.asarray(stationary, dtype=float)
        u0 = uniform_block(seed, STREAM_DRIVER_INIT, 0, 1)[0]
        self.kept = [int(np.searchsorted(np.cumsum(pi), u0, side="right").clip(0, len(pi) - 1))]
        # row i: next states i+1, .., i-1, i, cumulative probabilities ending in inf
        i = np.arange(len(P))[:, None]
        self.nxt = (i + i.T + 1) % len(P)
        self.cum = np.cumsum(P[i, self.nxt], axis=1)
        self.cum[:, -1] = np.inf

    def walk(self, x: int, u: np.ndarray) -> np.ndarray:
        """States x, x_1, .., x_m after the steps driven by u_1..u_m."""
        s, m, x0 = self.cum.shape[0], len(u), x
        if s == 2:
            # i leaves iff u < cum[i, 0], so a step swaps below both thresholds, keeps above
            # both, sets between; a running max over 2k + set state at step k finds the last
            a, b = self.cum[:, 0]
            par = np.concatenate([[0], np.logical_xor.accumulate(u < min(a, b))])
            sets = (u >= min(a, b)) & (u < max(a, b))
            if not sets.any():
                return x ^ par
            enc = np.where(sets, np.arange(2, 2 * m + 2, 2) | (par[1:] ^ (a > b)), 0)
            return np.maximum.accumulate(np.concatenate([[x], enc])) & 1 ^ par
        # Blocked scan: walk every start state through all chunks of L steps
        # at once, then chain the chunk ends from x: L + m / L Python steps.
        L = max(1, math.isqrt(m >> 5))
        nc = -(-m // L)
        maps = np.empty((nc * L, s), dtype=np.intp)
        for i in range(s):
            maps[:m, i] = self.nxt[i][np.searchsorted(self.cum[i], u, side="right")]
        maps[m:] = np.arange(s)  # identity steps pad the last chunk
        maps = maps.reshape(nc, L, s)
        rows = np.arange(nc)[:, None]
        paths = np.empty((L, nc, s), dtype=np.intp)
        cur = np.broadcast_to(np.arange(s), (nc, s))
        for t in range(L):
            cur = paths[t] = maps[rows, t, cur]
        starts = []
        for ends in cur.tolist():
            starts.append(x)
            x = ends[x]
        states = paths[:, np.arange(nc), starts].T.reshape(-1)[:m]
        return np.concatenate([[x0], states])


@functools.lru_cache(maxsize=_KEPT_CHAINS)
def _kept_chain(transition, stationary, seed: int) -> _KeptChain:
    return _KeptChain(transition, stationary, seed)


def _markov_states(driver: ScalarDriver, seed: int, start: int, count: int) -> np.ndarray:
    """States at 0-based indices start .. start+count-1, scanned forward from
    the kept state at or below start; every multiple of _STRIDE the scan
    passes is kept for later calls."""
    chain = _kept_chain(driver.transition, driver.stationary, seed)
    kept = chain.kept
    k = min(start // _STRIDE, len(kept) - 1)
    pos, x = k * _STRIDE, kept[k]
    end = start + count
    out = np.empty(count, dtype=np.int64)
    while True:
        steps = min(_BLOCK, end - 1 - pos)
        path = chain.walk(x, uniform_block(seed, STREAM_DRIVER, pos, steps)) if steps else np.array([x])
        lo = max(start, pos)  # path holds the states at pos .. pos + steps
        if lo <= pos + steps:
            out[lo - start : pos + steps + 1 - start] = path[lo - pos :]
        k = len(kept)
        if k * _STRIDE <= pos + steps:
            # assign a slice, not append: two scans of one stretch (threads)
            # then write the same values to the same places
            new = path[k * _STRIDE - pos :: _STRIDE].tolist()
            kept[k : k + len(new)] = new
        if pos + steps == end - 1:
            return out
        pos, x = pos + steps, int(path[-1])


def draw_sequence(driver: ScalarDriver, n: int, seed: int | None = None) -> np.ndarray:
    """The first n draws (1-based indices 1..n) for the given seed."""
    if n < 1:
        raise ValueError("n must be positive")
    seed = driver.seed if seed is None else seed
    return _draw_block(driver, seed, 0, n)


def draw_at(driver: ScalarDriver, index: int, seed: int | None = None) -> float:
    """The draw at a 1-based index. O(1) except for Markov drivers, which scan
    forward from the nearest kept state at or below the index: fewer than
    _STRIDE steps within the reach of earlier draws of this (chain, seed)."""
    if index < 1:
        raise ValueError("index is 1-based")
    seed = driver.seed if seed is None else seed
    return float(_draw_block(driver, seed, index - 1, 1)[0])


# ---------------------------------------------------------------------------
# phi coefficients


def phi_exact_markov(transition, stationary, n: int) -> float:
    """phi(n) of a stationary finite Markov chain.

    The Markov property collapses the sup over past/future sigma-algebras to
    two coordinates, leaving max_i (1/2) sum_j |P^n(i,j) - pi(j)|.
    """
    if n < 1:
        raise ValueError("n must be positive")
    P = np.asarray(transition, dtype=float)
    pi = np.asarray(stationary, dtype=float)
    _check_stationary(P, pi)
    Pn = np.linalg.matrix_power(P, n)
    return float(0.5 * np.abs(Pn - pi[None, :]).sum(axis=1).max())


def _path_atoms(P: np.ndarray, pi: np.ndarray, length: int):
    """(paths, probs, end_state_index) of all state paths of given length."""
    s = P.shape[0]
    paths = list(_iproduct(range(s), repeat=length))
    probs = np.array([pi[path[0]] * _path_product(P, path) for path in paths])
    ends = np.array([path[-1] for path in paths], dtype=int)
    return paths, probs, ends


def _path_product(P: np.ndarray, path) -> float:
    p = 1.0
    for a, b in zip(path, path[1:]):
        p *= P[a, b]
    return p


def _future_given_state(P: np.ndarray, n: int, length: int):
    """fut[s, j] = P(future path j | chain currently at state s, gap n)."""
    s = P.shape[0]
    Pn = np.linalg.matrix_power(P, n)
    paths = list(_iproduct(range(s), repeat=length))
    fut = np.empty((s, len(paths)))
    for j, path in enumerate(paths):
        fut[:, j] = Pn[:, path[0]] * _path_product(P, path)
    return fut


_EVENT_CAP = 4096  # max number of events enumerated per sigma-algebra


def phi_brute_force(transition, stationary, n: int, past_len: int, future_len: int) -> float:
    """Direct sup over event pairs of |P(B|A) - P(B)| for a stationary chain.

    A ranges over events of sigma(X_1..X_past_len), B over events of
    sigma(X_{past_len+n}..X_{past_len+n+future_len-1}). Sides with at most 12
    path atoms are enumerated exhaustively (up to 4096 events); larger sides
    up to 4096 atoms use the atom reduction for A and the positive-part set
    for B, which attain the same sup. Finite horizons make this a lower bound
    for the true coefficient; for past_len = future_len = 1 it matches
    phi_exact_markov.
    """
    if n < 1 or past_len < 1 or future_len < 1:
        raise ValueError("n, past_len and future_len must be positive")
    P = np.asarray(transition, dtype=float)
    pi = np.asarray(stationary, dtype=float)
    _check_stationary(P, pi)
    s = P.shape[0]
    n_past, n_fut = s**past_len, s**future_len
    if n_past > _EVENT_CAP or n_fut > _EVENT_CAP:
        raise TooManyEvents(f"{n_past} x {n_fut} path atoms exceed the enumeration cap")
    _, past_probs, past_ends = _path_atoms(P, pi, past_len)
    fut = _future_given_state(P, n, future_len)
    fut_marginal = past_probs @ fut[past_ends]  # stationary law of the future block

    def subsets(count: int) -> np.ndarray:
        masks = np.arange(1, 2**count, dtype=np.uint64)
        return (masks[:, None] >> np.arange(count, dtype=np.uint64)[None, :]) & np.uint64(1)

    exhaustive_a = n_past <= 12
    exhaustive_b = n_fut <= 12
    if exhaustive_a:
        a_sets = subsets(n_past).astype(float)
    else:
        a_sets = np.eye(n_past)  # atoms attain the sup over past events
    b_sets = subsets(n_fut).astype(float) if exhaustive_b else None

    best = 0.0
    pb_all = b_sets @ fut_marginal if b_sets is not None else None
    for row in a_sets:
        pa = float(row @ past_probs)
        if pa <= 0.0:
            continue
        cond = (row * past_probs) @ fut[past_ends] / pa
        if b_sets is not None:
            best = max(best, float(np.abs(b_sets @ cond - pb_all).max()))
        else:
            best = max(best, 0.5 * float(np.abs(cond - fut_marginal).sum()))
    return best


# ---------------------------------------------------------------------------
# phi profiles and summability evidence


@dataclass(frozen=True)
class PhiProfile:
    """phi(1..N) values with their square-root partial sum.

    method records how the values were obtained: exact_markov, brute_force,
    or identically_zero (independent / m-dependent tails).
    """

    values: tuple[float, ...]
    sqrt_partial_sum: float
    method: str

    def __post_init__(self):
        for i, v in enumerate(self.values):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"phi({i + 1}) = {v} outside [0, 1]")
            if i and v > self.values[i - 1] + 1e-12:
                raise ValueError("phi must be nonincreasing")

    @staticmethod
    def from_values(values, method: str) -> "PhiProfile":
        values = tuple(float(v) for v in values)
        total = math.fsum(math.sqrt(v) for v in values)
        return PhiProfile(values=values, sqrt_partial_sum=total, method=method)

    @staticmethod
    def from_markov_chain(transition, stationary, n_terms: int) -> "PhiProfile":
        vals = [phi_exact_markov(transition, stationary, n) for n in range(1, n_terms + 1)]
        return PhiProfile.from_values(vals, method="exact_markov")

    @staticmethod
    def zero_tail(n_terms: int, zero_after: int = 0) -> "PhiProfile":
        """Profile of an independent (zero_after=0) or m-dependent driver:
        the trivial bound 1 up to the window, exact zeros beyond."""
        vals = [1.0 if n <= zero_after else 0.0 for n in range(1, n_terms + 1)]
        return PhiProfile.from_values(vals, method="identically_zero")

    @staticmethod
    def for_driver(driver: ScalarDriver | None, n_terms: int) -> "PhiProfile":
        """The dependence profile of a driver; None stands for independent draws."""
        if driver is None or driver.family in ("iid", "alternating"):
            return PhiProfile.zero_tail(n_terms)
        if driver.family == "m_dependent":
            return PhiProfile.zero_tail(n_terms, zero_after=driver.m)
        return PhiProfile.from_markov_chain(driver.transition, driver.stationary, n_terms)

    def csv_rows(self):
        rows = ["n,phi,phi_sqrt_partial_sum"]
        partial = 0.0
        for i, v in enumerate(self.values, start=1):
            partial = math.fsum([partial, math.sqrt(v)])
            rows.append(f"{i},{v!r},{partial!r}")
        return rows


@dataclass(frozen=True)
class SummabilityReport:
    partial_sum: float
    verdict: str  # summable_evidence | diverging | exact_zero


def summability_report(profile: PhiProfile) -> SummabilityReport:
    """Evidence about whether sum phi(n)^(1/2) converges.

    exact_zero when the profile has an exactly-zero tail. Otherwise the tail
    is fit both as a geometric envelope (log phi against n) and as a power law
    (log phi against log n); whichever fits better decides: geometric ratio
    r < 1 is summable evidence, a power law needs exponent < -2 so that
    phi^(1/2) decays faster than 1/n. Finite data never proves summability;
    the verdict is labeled evidence.
    """
    vals = profile.values
    if len(vals) < 10:
        raise ValueError("need at least 10 phi values")
    if vals[-1] == 0.0:
        return SummabilityReport(partial_sum=profile.sqrt_partial_sum, verdict="exact_zero")
    tail_start = len(vals) // 2
    tail = [(n + 1.0, v) for n, v in enumerate(vals) if n >= tail_start and v > 0]
    if len(tail) < 5:
        return SummabilityReport(partial_sum=profile.sqrt_partial_sum, verdict="diverging")
    ns = np.array([t[0] for t in tail])
    logs = np.log(np.array([t[1] for t in tail]))

    def fit(x):
        A = np.vstack([np.ones_like(x), x]).T
        coef, *_ = np.linalg.lstsq(A, logs, rcond=None)
        resid = logs - A @ coef
        return coef[1], float(resid @ resid)

    slope_geo, r_geo = fit(ns)
    slope_pow, r_pow = fit(np.log(ns))
    if r_geo <= r_pow:
        ratio = math.exp(slope_geo)
        verdict = "summable_evidence" if ratio < 1.0 - 1e-9 else "diverging"
    else:
        verdict = "summable_evidence" if slope_pow < -2.0 - 1e-9 else "diverging"
    return SummabilityReport(partial_sum=profile.sqrt_partial_sum, verdict=verdict)


# ---------------------------------------------------------------------------
# scalar strong-law harness


def checkpoint_means(
    driver: ScalarDriver, n_max: int, checkpoints, seed: int | None = None, clamp: bool = False
) -> list[float]:
    """Running means m_n at the checkpoints, in one compensated streaming pass;
    of max(0, draw) when clamp is set (the radii of random balls).

    Draws are generated in blocks and reduced with math.fsum, so memory stays
    at O(checkpoints + one block), plus for a Markov driver its kept states:
    O(n_max / _STRIDE) ints per (chain, seed), for at most _KEPT_CHAINS
    (chain, seed) pairs at a time.
    """
    checkpoints = [int(c) for c in checkpoints]
    if any(c < 1 or c > n_max for c in checkpoints) or checkpoints != sorted(checkpoints):
        raise ValueError("checkpoints must be sorted and within 1..n_max")
    seed = driver.seed if seed is None else seed
    means = []
    partials: list[float] = []
    done = 0
    for cp in checkpoints:
        while done < cp:
            count = min(_BLOCK, cp - done)
            block = _draw_block(driver, seed, done, count)
            # a memoryview hands fsum plain floats, faster than numpy scalars
            partials.append(math.fsum(memoryview(np.maximum(block, 0.0) if clamp else block)))
            done += count
        means.append(math.fsum(partials) / done)
    return means


def scalar_slln_trajectory(
    driver: ScalarDriver, n_max: int, checkpoints, seed: int | None = None
) -> list[tuple[int, float]]:
    """(n, |mean_n - mu|) at each checkpoint."""
    means = checkpoint_means(driver, n_max, checkpoints, seed)
    mu = driver.mean
    return [(int(c), abs(m - mu)) for c, m in zip(checkpoints, means)]
