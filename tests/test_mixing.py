"""Drivers, dependence coefficients, summability verdicts, scalar strong law."""

import itertools
import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from randset import mixing
from randset.mixing import (
    Law,
    NotStationary,
    PhiProfile,
    TooManyEvents,
    alternating_driver,
    checkpoint_means,
    draw_at,
    draw_sequence,
    iid_driver,
    m_dependent_driver,
    markov_driver,
    phi_brute_force,
    phi_exact_markov,
    scalar_slln_trajectory,

)
from randset.rng import STREAM_DRIVER, STREAM_DRIVER_INIT, uniform_block

P_SYM = [[0.9, 0.1], [0.1, 0.9]]
PI_SYM = [0.5, 0.5]


def sym_driver():
    return markov_driver(P_SYM, PI_SYM, [-1.0, 1.0])


# ---------------------------------------------------------------------------
# drawing


def test_determinism_and_prefix_stability():
    d = sym_driver()
    a = draw_sequence(d, 200, 7)
    assert np.array_equal(a, draw_sequence(d, 200, 7))
    assert np.array_equal(a[:50], draw_sequence(d, 50, 7))
    assert draw_at(d, 37, 7) == a[36]


def test_constant_law_is_degenerate():
    d = iid_driver(Law.constant(2.5))
    assert np.all(draw_sequence(d, 20, 0) == 2.5)


def test_m_dependent_window():
    # index k depends on base draws k-m..k only: far-apart outputs decorrelate
    d = m_dependent_driver(2, Law.uniform(-1, 1))
    xs = draw_sequence(d, 200_000, 3)
    assert abs(xs.mean() - d.mean) < 0.01
    assert abs(xs.var() - d.variance_at(1)) < 0.01
    lag = lambda g: np.corrcoef(xs[:-g], xs[g:])[0, 1]
    assert lag(1) > 0.3 and lag(2) > 0.1 and abs(lag(3)) < 0.02


def test_m_dependent_block_stability():
    d = m_dependent_driver(1, Law.uniform(0, 1))
    full = draw_sequence(d, 100, 5)
    assert draw_at(d, 60, 5) == pytest.approx(full[59], abs=0.0)


def test_alternating_parity_laws_and_mean():
    d = alternating_driver(Law.uniform(0.9, 1.1), Law.normal(1.0, 0.1))
    xs = draw_sequence(d, 100_000, 11)
    assert abs(xs.mean() - 1.0) < 0.01  # 3 sigma / sqrt(n) is ~0.0008
    evens, odds = xs[1::2], xs[0::2]
    assert np.all((evens >= 0.9) & (evens <= 1.1))
    assert odds.min() < 0.9 or odds.max() > 1.1  # the normal side leaves the box
    assert d.variance_at(2) == pytest.approx(0.04 / 12, abs=1e-15)
    assert d.variance_at(1) == pytest.approx(0.01, abs=1e-15)


def ref_draw_block_masked(driver, seed, start, count):
    """_draw_block's index-mask rule for alternating laws and its out-of-place
    window sum, as they were before the stride slices."""
    m, (even, odd) = driver.m, driver.laws
    u = uniform_block(seed, STREAM_DRIVER, start, count + m)
    if even == odd:
        base = even.quantile(u)
    else:
        base = np.empty(count + m, dtype=float)
        at_even = np.arange(start + 1, start + count + m + 1) % 2 == 0  # 1-based indices
        base[at_even] = even.quantile(u[at_even])
        base[~at_even] = odd.quantile(u[~at_even])
    if m == 0:
        return base
    acc = base[:count]
    for i in range(1, m + 1):
        acc = acc + base[i : i + count]
    return acc / (m + 1)


@pytest.mark.parametrize(
    "driver, seed",
    [
        (alternating_driver(Law.uniform(0.9, 1.1), Law.normal(1.0, 0.1)), 11),
        (alternating_driver(Law.uniform(-1.0, 1.0), Law.uniform(-3.0, 3.0)), 12),
        (m_dependent_driver(1, Law.uniform(-1.0, 1.0)), 13),
        (m_dependent_driver(3, Law.normal(0.5, 2.0)), 14),
    ],
    ids=["alternating_uniform_normal", "alternating_uniform_uniform", "m_dependent_1", "m_dependent_3"],
)
@pytest.mark.parametrize("start", [0, 1, 10**9 + 6, 10**9 + 7])
@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 65_536])
def test_draw_block_matches_masked_rule(driver, seed, start, count):
    got = mixing._draw_block(driver, seed, start, count)
    want = ref_draw_block_masked(driver, seed, start, count)
    assert [repr(float(x)) for x in got] == [repr(float(x)) for x in want]


def test_alternating_requires_equal_means():
    with pytest.raises(ValueError):
        alternating_driver(Law.uniform(0, 1), Law.normal(1.0, 0.1))


@pytest.mark.parametrize("family", ["iid", "alternating"])
def test_only_m_dependent_takes_m(family):
    # every family's draws average m + 1 base draws, so an m elsewhere would act
    with pytest.raises(ValueError, match="only an m_dependent driver takes m"):
        mixing.ScalarDriver(family=family, law=Law.uniform(0, 1), law_odd=Law.uniform(0, 1), m=2)


def test_markov_stationarity_checked():
    with pytest.raises(NotStationary):
        markov_driver(P_SYM, [0.9, 0.1], [-1.0, 1.0])


def test_markov_stationary_vector_must_be_nonnegative():
    # pi P = pi and sum(pi) = 1 hold for the identity chain, but pi is no law
    with pytest.raises(ValueError, match="nonnegative"):
        markov_driver([[1.0, 0.0], [0.0, 1.0]], [1.5, -0.5], [0.0, 1.0])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("transition, stationary, emissions", [
    ([[NAN, 1.0], [0.5, 0.5]], [0.5, 0.5], [0.0, 1.0]),
    (P_SYM, [NAN, 0.5], [0.0, 1.0]),
    (P_SYM, PI_SYM, [0.0, NAN]),
    (P_SYM, PI_SYM, [INF, 1.0]),
], ids=["transition", "stationary", "emission_nan", "emission_inf"])
def test_markov_driver_rejects_non_finite_entries(transition, stationary, emissions):
    with pytest.raises(ValueError, match="finite"):
        markov_driver(transition, stationary, emissions)


@pytest.mark.parametrize("phi", [
    lambda P, pi: phi_exact_markov(P, pi, 1),
    lambda P, pi: phi_brute_force(P, pi, 1, 1, 1),
], ids=["exact", "brute_force"])
def test_phi_rejects_non_finite_chains(phi):
    with pytest.raises(ValueError, match="finite"):
        phi([[NAN, 1.0], [0.5, 0.5]], [0.5, 0.5])
    with pytest.raises(ValueError, match="finite"):
        phi(P_SYM, [0.5, NAN])


@pytest.mark.parametrize("make", [
    lambda: Law.uniform(NAN, 1.0),
    lambda: Law.uniform(0.0, INF),
    lambda: Law.normal(0.0, NAN),
    lambda: Law.constant(INF),
    lambda: Law.choice((0.0, 1.0), (NAN, 1.0)),
    lambda: Law.choice((0.0, NAN)),
], ids=["uniform_low", "uniform_high", "normal_sd", "constant", "choice_weight", "choice_value"])
def test_law_rejects_non_finite_parameters(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_markov_empirical_stationarity():
    d = sym_driver()
    xs = draw_sequence(d, 200_000, 5)
    assert abs(xs.mean()) < 0.03  # effective variance factor (1+.8)/(1-.8) = 9
    # the state changes with probability 0.1 at each step
    changes = np.mean(xs[:-1] != xs[1:])
    assert abs(changes - 0.1) < 0.01


def test_general_markov_loop_path():
    d = markov_driver([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]],
                      [1 / 3, 1 / 3, 1 / 3], [0.0, 1.0, 2.0])
    xs = draw_sequence(d, 50_000, 2)
    assert abs(xs.mean() - 1.0) < 0.02
    assert np.array_equal(xs[:100], draw_sequence(d, 100, 2))


# ---------------------------------------------------------------------------
# Markov paths against the scalar loop


def reference_walk(P, x, u):
    """One step per uniform: from state i, u picks the first of i+1, .., i-1, i
    (mod s) whose cumulative transition probability exceeds it, else i."""
    P = np.asarray(P, dtype=float).tolist()
    s, states = len(P), [x]
    for v in np.asarray(u).tolist():
        acc = 0.0
        for r in range(1, s + 1):
            nxt = (x + r) % s
            acc += P[x][nxt]
            if v < acc:
                break
        x = nxt
        states.append(x)
    return np.array(states, dtype=np.int64)


def reference_states(driver, seed, n):
    """States for 1-based indices 1..n, replayed from index 1 by the loop."""
    pi = np.asarray(driver.stationary, dtype=float)
    u0 = uniform_block(seed, STREAM_DRIVER_INIT, 0, 1)[0]
    s0 = int(np.searchsorted(np.cumsum(pi), u0, side="right").clip(0, len(pi) - 1))
    u = uniform_block(seed, STREAM_DRIVER, 0, n - 1) if n > 1 else np.empty(0)
    return reference_walk(driver.transition, s0, u)


# thresholds p = P[0][1] and q = P[1][0]; "p" and "q" in u stand for a uniform
# equal to that threshold
ENTRY = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
UNIFORMS = st.lists(st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from(["p", "q"]), max_size=40)


@settings(max_examples=300, deadline=None)
@example(p=0.3, q=0.3, x=0, u=["p", 0.1, 0.5, "q", 0.29])  # p = q
@example(p=0.25, q=0.75, x=1, u=["p", "q", 0.5, 0.1, 0.8, 0.3])  # p + q = 1
@example(p=0.9, q=0.6, x=0, u=["q", "p", 0.7, 0.95, 0.1, 0.7, 0.2])  # p + q > 1
@example(p=0.2, q=0.2, x=1, u=[0.1, 0.1, 0.5] * 3)  # identical rows
@example(p=0.0, q=1.0, x=0, u=["p", 0.5, "p", 0.999])
@example(p=1.0, q=0.0, x=1, u=["q", 0.0, 0.5])
@example(p=1.0, q=1.0, x=0, u=[0.0, 0.999, 0.5])
@example(p=0.0, q=0.0, x=1, u=["p", 0.0, 0.5])
@given(p=ENTRY, q=ENTRY, x=st.integers(0, 1), u=UNIFORMS)
def test_two_state_walk_matches_loop(p, q, x, u):
    P = ((1.0 - p, p), (q, 1.0 - q))
    u = np.array([{"p": p, "q": q}.get(v, v) for v in u], dtype=float)
    chain = mixing._KeptChain(P, (0.5, 0.5), 0)
    assert np.array_equal(chain.walk(x, u), reference_walk(P, x, u))


def test_two_state_path_is_continuous_in_the_transition_matrix():
    # the bundled chain beside the same chain with P[1][0] moved by 1e-13
    moved = markov_driver([[0.9, 0.1], [0.1 + 1e-13, 0.9]], PI_SYM, [-1.0, 1.0])
    assert np.array_equal(draw_sequence(moved, 100_000, 1), draw_sequence(sym_driver(), 100_000, 1))


@pytest.mark.parametrize("p", [0.1, 0.65])
def test_symmetric_chain_leaves_iff_u_below_p(p):
    d = markov_driver([[1.0 - p, p], [p, 1.0 - p]], [0.5, 0.5], [0.0, 1.0])
    n = 2 * mixing._BLOCK + 3  # across two block boundaries
    x = int(uniform_block(3, STREAM_DRIVER_INIT, 0, 1)[0] >= 0.5)
    parity = np.cumsum(uniform_block(3, STREAM_DRIVER, 0, n - 1) < p) & 1
    assert np.array_equal(draw_sequence(d, n, 3), x ^ np.concatenate([[0], parity]))


def reference_checkpoint_means(draws, checkpoints):
    """checkpoint_means' block partition and fsum reduction over given draws."""
    partials, means, done = [], [], 0
    for cp in checkpoints:
        while done < cp:
            count = min(mixing._BLOCK, cp - done)
            partials.append(math.fsum(draws[done : done + count]))
            done += count
        means.append(math.fsum(partials) / done)
    return means


def edges(stride, block):
    """Lengths and 1-based indices at and around the kept-state and block boundaries."""
    bounds = (stride, 2 * stride, block - stride, block, block + stride)
    return sorted({1, 2, 3} | {b + d for b in bounds for d in (-1, 0, 1)})


# the property tests shrink the block and stride, so that their boundaries fall
# at n in the hundreds and each example's reference loop stays short
SMALL_STRIDE, SMALL_BLOCK = 32, 256
EDGES = edges(SMALL_STRIDE, SMALL_BLOCK)


@contextmanager
def small_blocks(stride=SMALL_STRIDE, block=SMALL_BLOCK):
    """mixing._STRIDE and mixing._BLOCK set small; kept chain states depend on
    the stride, so they are cleared on the way in and out."""
    saved = mixing._STRIDE, mixing._BLOCK
    mixing._STRIDE, mixing._BLOCK = stride, block
    mixing._kept_chain.cache_clear()
    try:
        yield
    finally:
        mixing._STRIDE, mixing._BLOCK = saved
        mixing._kept_chain.cache_clear()


@st.composite
def chains(draw):
    s = draw(st.integers(2, 4))
    emissions = [1.5 * i - 1.0 for i in range(s)]
    if s == 2 and draw(st.booleans()):
        p = draw(st.floats(0.0, 1.0))
        return markov_driver([[1.0 - p, p], [p, 1.0 - p]], [0.5, 0.5], emissions)
    W = np.array(draw(st.lists(st.lists(st.integers(0, 9), min_size=s, max_size=s), min_size=s, max_size=s)))
    P = (W + np.eye(s)) / (W + np.eye(s)).sum(axis=1, keepdims=True)
    A = np.vstack([P.T - np.eye(s), np.ones(s)])
    pi = np.linalg.lstsq(A, np.r_[np.zeros(s), 1.0], rcond=None)[0]
    return markov_driver(P, pi, emissions)


def reference_draws(driver, seed, n):
    return np.asarray(driver.emissions)[reference_states(driver, seed, n)]


def check_draw_sequence(d, seed, edges):
    ref = reference_draws(d, seed, edges[-1] + 2)
    for n in edges:
        assert np.array_equal(draw_sequence(d, n, seed), ref[:n])
    mixing._kept_chain.cache_clear()
    for n in reversed(edges):
        assert np.array_equal(draw_sequence(d, n, seed), ref[:n])


def check_draw_at(calls, refs, d, seed):
    """draw_at at each ((driver, seed), index) of calls, forward then back,
    with a full draw_sequence of (d, seed) between the two passes."""
    for (drv, sd), i in calls:
        assert draw_at(drv, i, sd) == refs[drv, sd][i - 1]
    assert np.array_equal(draw_sequence(d, len(refs[d, seed]), seed), refs[d, seed])
    for (drv, sd), i in reversed(calls):
        assert draw_at(drv, i, sd) == refs[drv, sd][i - 1]


def check_checkpoint_means(d, seed, cps, ref):
    want = reference_checkpoint_means(ref, cps)
    assert checkpoint_means(d, cps[-1], cps, seed) == want
    assert checkpoint_means(d, cps[-1], cps, seed) == want  # from kept states


@settings(max_examples=12, deadline=None)
@given(d=chains(), seed=st.integers(0, 2**32))
def test_markov_draw_sequence_matches_loop(d, seed):
    with small_blocks():
        check_draw_sequence(d, seed, EDGES)


@settings(max_examples=12, deadline=None)
@given(d=chains(), other=chains(), seed=st.integers(0, 2**32), data=st.data())
def test_markov_draw_at_in_any_order_matches_loop(d, other, seed, data):
    # the same chain at another seed, and another chain at this seed, beside
    # (d, seed) in the cache: a cache keyed on less than (chain, seed) fails
    short = 3 * SMALL_STRIDE + 2
    refs = {(d, seed + 1): reference_draws(d, seed + 1, short),
            (other, seed): reference_draws(other, seed, short),
            (d, seed): reference_draws(d, seed, EDGES[-1] + 2)}  # last: other may equal d
    calls = []
    for _ in range(data.draw(st.integers(1, 12))):
        key = data.draw(st.sampled_from(sorted(refs, key=repr)))
        n = len(refs[key])
        calls.append((key, data.draw(st.sampled_from([e for e in EDGES if e <= n]) | st.integers(1, n))))
    with small_blocks():
        check_draw_at(calls, refs, d, seed)


@settings(max_examples=10, deadline=None)
@given(d=chains(), seed=st.integers(0, 2**32), cps=st.lists(st.sampled_from(EDGES), min_size=1, max_size=5))
def test_markov_checkpoint_means_match_loop(d, seed, cps):
    with small_blocks():
        check_checkpoint_means(d, seed, sorted(set(cps)), reference_draws(d, seed, EDGES[-1] + 2))


def test_markov_paths_match_loop_at_real_block_sizes():
    # fixed examples at mixing's own _STRIDE and _BLOCK: three states, and two
    # states with P[0][1] + P[1][0] > 1
    real = edges(mixing._STRIDE, mixing._BLOCK)
    for d in (markov_driver([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]], [1 / 3, 1 / 3, 1 / 3], [-1.0, 0.5, 2.0]),
              markov_driver([[0.2, 0.8], [0.6, 0.4]], [3 / 7, 4 / 7], [-1.0, 2.0])):
        ref = reference_draws(d, 5, real[-1] + 2)
        mixing._kept_chain.cache_clear()
        check_draw_sequence(d, 5, real)
        mixing._kept_chain.cache_clear()
        calls = [((d, 5), i) for i in (real[-1], *real)]  # the first call keeps every stride's state
        check_draw_at(calls, {(d, 5): ref}, d, 5)
        mixing._kept_chain.cache_clear()
        check_checkpoint_means(d, 5, real[::3], ref)


# the emissions 1/3 and 0.1 have inexact sums, so a reduction other than one
# rounding of each block's exact sum moves a mean
BOUNDARY_CHAINS = [
    markov_driver([[0.2, 0.8], [0.6, 0.4]], [3 / 7, 4 / 7], [-0.1, 1 / 3]),
    markov_driver([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]], [1 / 3, 1 / 3, 1 / 3], [-1 / 3, 0.1, 2.5]),
]


@pytest.mark.parametrize("clamp", [False, True])
@pytest.mark.parametrize("d", BOUNDARY_CHAINS, ids=["two_states", "three_states"])
def test_markov_checkpoint_means_across_block_boundaries(d, clamp):
    B = mixing._BLOCK
    cps = [1, B - 1, B, B + 1, 2 * B + 1]
    draws = draw_sequence(d, cps[-1], 11)
    want = reference_checkpoint_means(np.maximum(draws, 0.0) if clamp else draws, cps)
    assert [repr(m) for m in checkpoint_means(d, cps[-1], cps, 11, clamp=clamp)] == [repr(m) for m in want]


SUMMANDS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1 / 3, -1 / 3,
                            0.1, -2.5, 1e300, -1e300, 1.7e308, -1.7e308])


@example(values=[1e300, -1e300], counts=[65_536, 1], clamp=False)
@example(values=[1.7e308, 1.0], counts=[2, 1], clamp=False)  # the sum overflows: both sides raise
@example(values=[-1.7e308, -0.0], counts=[2, 1], clamp=True)
@example(values=[5e-324, -1 / 3, 1 / 3], counts=[3, 7, 7], clamp=False)
@settings(max_examples=60, deadline=None)
@given(values=st.lists(SUMMANDS | st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=5),
       counts=st.lists(st.integers(1, mixing._BLOCK), min_size=5, max_size=5),
       clamp=st.booleans())
def test_exact_sum_is_fsum_of_the_materialised_values(values, counts, clamp):
    values = [max(v, 0.0) for v in values] if clamp else values
    counts = counts[: len(values)]
    draws = np.repeat(np.array(values), counts)
    try:
        want = repr(math.fsum(memoryview(draws)))
    except OverflowError:
        # fsum overflows when the sum does, and also when only a running
        # partial does; the exact sum is then rounded once, or overflows
        exact = sum(Fraction(v) * c for v, c in zip(values, counts))
        try:
            want = repr(float(exact))
        except OverflowError:
            want = "OverflowError"
    try:
        got = repr(mixing._exact_sum(values, counts))
    except OverflowError:
        got = "OverflowError"
    assert got == want


def count_driver_draws(monkeypatch):
    counted = [0]

    def counting(seed, stream, start, count):
        if stream == STREAM_DRIVER:
            counted[0] += count
        return uniform_block(seed, stream, start, count)

    monkeypatch.setattr(mixing, "uniform_block", counting)
    return counted


ASYM = markov_driver([[0.9, 0.1], [0.3, 0.7]], [0.75, 0.25], [-1.0, 3.0])


def test_checkpoint_means_draws_each_index_about_once(monkeypatch):
    mixing._kept_chain.cache_clear()
    counted = count_driver_draws(monkeypatch)
    n = 200_000
    checkpoint_means(ASYM, n, [100, 1000, 10_000, 100_000, n], 17)
    # replaying the path from index 1 for every block drew about 2.76 n
    assert counted[0] < 1.25 * n


def test_repeated_draw_at_scans_at_most_one_stride(monkeypatch):
    mixing._kept_chain.cache_clear()
    counted = count_driver_draws(monkeypatch)
    first = draw_at(ASYM, 500_000, 19)
    counted[0] = 0
    assert draw_at(ASYM, 500_000, 19) == first
    assert counted[0] <= mixing._STRIDE


# ---------------------------------------------------------------------------
# phi coefficients


def test_phi_exact_symmetric_chain_closed_form():
    # P^n rows are 1/2 +- 0.8^n/2, so phi(n) = 0.8^n / 2
    for n in range(1, 12):
        assert phi_exact_markov(P_SYM, PI_SYM, n) == pytest.approx(0.8**n / 2, abs=1e-14)


def test_phi_exact_iid_rows_zero():
    assert phi_exact_markov([[0.3, 0.7], [0.3, 0.7]], [0.3, 0.7], 1) == pytest.approx(0.0, abs=1e-15)


def test_phi_exact_frozen_chain_half():
    assert phi_exact_markov([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], 1) == pytest.approx(0.5, abs=1e-15)


def test_brute_force_equals_exact_one_one():
    for n in (1, 2, 3, 7, 20):
        bf = phi_brute_force(P_SYM, PI_SYM, n, 1, 1)
        assert abs(bf - phi_exact_markov(P_SYM, PI_SYM, n)) <= 1e-12


# State 0 has stationary mass 0 and is left at once, so the chain is never in
# it and no event conditions on it: phi is that of the two-state iid block.
P_ZERO_MASS = [[0.9, 0.1, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]]
PI_ZERO_MASS = [0.0, 0.5, 0.5]


def test_phi_is_taken_over_states_of_positive_mass():
    for n in (1, 2, 20):
        assert phi_exact_markov(P_ZERO_MASS, PI_ZERO_MASS, n) == 0.0
    for past, future in ((1, 1), (1, 2), (2, 1), (2, 2)):
        assert phi_brute_force(P_ZERO_MASS, PI_ZERO_MASS, 1, past, future) == 0.0


def test_brute_force_frozen_chain():
    assert phi_brute_force([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], 1, 1, 1) == pytest.approx(0.5, abs=1e-14)


def test_brute_force_iid_chain_zero_all_horizons():
    for p, f in ((1, 1), (2, 2), (3, 3)):
        assert phi_brute_force([[0.3, 0.7], [0.3, 0.7]], [0.3, 0.7], 2, p, f) <= 1e-14


def test_brute_force_longer_horizons_do_not_shrink():
    short = phi_brute_force(P_SYM, PI_SYM, 2, 1, 1)
    longer = phi_brute_force(P_SYM, PI_SYM, 2, 3, 3)
    assert longer >= short - 1e-12


def block_chain(m: int):
    """Encode a +-1 coin's (m+1)-block as a Markov chain; its state sequence
    is m-dependent, so state-level phi vanishes for gaps beyond m."""
    s = 2 ** (m + 1)
    P = np.zeros((s, s))
    for state in range(s):
        tail = state & (2**m - 1)
        for bit in (0, 1):
            P[state, (tail << 1) | bit] = 0.5
    pi = np.full(s, 1.0 / s)
    return P, pi


@pytest.mark.parametrize("m", [1, 2])
def test_m_dependent_brute_force_zero_tail(m):
    P, pi = block_chain(m)
    assert phi_brute_force(P, pi, m + 1, 1, 1) <= 1e-12
    assert phi_brute_force(P, pi, m, 1, 1) > 0.1


def test_brute_force_event_cap():
    P, pi = block_chain(2)  # 8 states
    with pytest.raises(TooManyEvents):
        phi_brute_force(P, pi, 1, 5, 5)


def ref_phi_enumerated(transition, stationary, n: int, past_len: int, future_len: int) -> float:
    """The reference for phi_brute_force: |P(B|A) - P(B)| over every pair of
    nonempty unions of path atoms, A of past paths and B of future paths,
    with P(A) > 0. Sides of at most 12 atoms (4095 events)."""
    P, pi = np.asarray(transition, dtype=float), np.asarray(stationary, dtype=float)
    s = len(pi)
    past = list(itertools.product(range(s), repeat=past_len))
    future = list(itertools.product(range(s), repeat=future_len))
    assert max(len(past), len(future)) <= 12

    def path_prob(path) -> float:
        return math.prod(P[a, b] for a, b in zip(path, path[1:]))

    Pn = np.linalg.matrix_power(P, n)
    joint = np.array([[pi[a[0]] * path_prob(a) * Pn[a[-1], b[0]] * path_prob(b) for b in future] for a in past])

    def subsets(count: int) -> np.ndarray:
        masks = np.arange(1, 2**count)
        return ((masks[:, None] >> np.arange(count)[None, :]) & 1).astype(float)

    b_sets = subsets(len(future))
    pb = b_sets @ joint.sum(axis=0)
    best = 0.0
    for a_set in subsets(len(past)):
        pa = float(a_set @ joint.sum(axis=1))
        if pa > 0.0:
            best = max(best, float(np.abs(b_sets @ (a_set @ joint) / pa - pb).max()))
    return best


ENUMERATED_CHAINS = {
    "sym": (P_SYM, PI_SYM),
    "asym": ([[0.9, 0.1], [0.3, 0.7]], [0.75, 0.25]),
    "iid": ([[0.3, 0.7], [0.3, 0.7]], [0.3, 0.7]),
    "frozen": ([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]),
    "zero_mass": (P_ZERO_MASS, PI_ZERO_MASS),
    "block1": block_chain(1),
    "block2": block_chain(2),
}


@pytest.mark.parametrize("chain", ENUMERATED_CHAINS)
def test_brute_force_matches_event_enumeration(chain):
    P, pi = ENUMERATED_CHAINS[chain]
    s = len(pi)
    for past, future in itertools.product(range(1, 4), repeat=2):
        if max(s**past, s**future) > 12:
            continue
        for n in (1, 2, 3, 7):
            assert abs(phi_brute_force(P, pi, n, past, future) - ref_phi_enumerated(P, pi, n, past, future)) <= 1e-12


def ref_path_product(P, path) -> float:
    p = 1.0
    for a, b in zip(path, path[1:]):
        p *= P[a, b]
    return p


def ref_phi_per_path(transition, stationary, n: int, past_len: int, future_len: int) -> float:
    """phi_brute_force as it was with one enumeration for the past atoms and
    another for the future given each state, each path's product taken left
    to right by ref_path_product: the bit-for-bit reference of the shared
    path enumerator."""
    P, pi = np.asarray(transition, dtype=float), np.asarray(stationary, dtype=float)
    s = P.shape[0]
    paths = list(itertools.product(range(s), repeat=past_len))
    past_probs = np.array([pi[path[0]] * ref_path_product(P, path) for path in paths])
    past_ends = np.array([path[-1] for path in paths], dtype=int)
    Pn = np.linalg.matrix_power(P, n)
    paths = list(itertools.product(range(s), repeat=future_len))
    fut = np.empty((s, len(paths)))
    for j, path in enumerate(paths):
        fut[:, j] = Pn[:, path[0]] * ref_path_product(P, path)
    fut_marginal = past_probs @ fut[past_ends]
    cond = fut[np.unique(past_ends[past_probs > 0.0])]
    return 0.5 * float(np.abs(cond - fut_marginal).sum(axis=1).max())


def check_brute_force_bits(P, pi, ns):
    # horizons up to 4: a product of three or more factors depends on their order
    s = len(pi)
    for past, future in itertools.product(range(1, 5), repeat=2):
        if max(s**past, s**future) > mixing._EVENT_CAP:
            continue
        for n in ns:
            assert repr(phi_brute_force(P, pi, n, past, future)) == repr(ref_phi_per_path(P, pi, n, past, future))


@pytest.mark.parametrize("chain", ENUMERATED_CHAINS)
def test_brute_force_bits_match_per_path_reference(chain):
    check_brute_force_bits(*ENUMERATED_CHAINS[chain], (1, 2, 3, 7))


@settings(max_examples=40, deadline=None)
@example(d=markov_driver([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [-1.0, 1.0]))  # periodic
@given(d=chains())
def test_brute_force_bits_match_per_path_reference_on_random_chains(d):
    # chains() draws zero entries, a zero-mass state and periodic two-state chains
    check_brute_force_bits(d.transition, d.stationary, (1, 2, 5))


# a stationary vector within the stationarity slack, off by about 2e-16,
# rounds the total-variation sum of phi(1) to 1.0000000000000002
P_ROUNDED_PAST_ONE = [[0.8, 0.2, 0.0], [0.0, 0.125, 0.875], [0.0, 0.0, 1.0]]
PI_ROUNDED_PAST_ONE = [2.4487768126599326e-17, -2.220446049250313e-16, 1.0000000000000002]


def test_phi_exact_is_at_most_one():
    assert phi_exact_markov(P_ROUNDED_PAST_ONE, PI_ROUNDED_PAST_ONE, 1) == 1.0


# ---------------------------------------------------------------------------
# profiles and summability


def test_profile_monotone_enforced():
    with pytest.raises(ValueError):
        PhiProfile((0.1, 0.2), "brute_force")
    with pytest.raises(ValueError):
        PhiProfile((1.5, 0.2), "brute_force")


def test_geometric_profile_summable_with_closed_form():
    N = 200
    profile = PhiProfile(tuple(0.8**n for n in range(1, N + 1)), "exact_markov")
    assert profile.verdict == "summable_evidence"
    r = math.sqrt(0.8)
    closed = r * (1 - r**N) / (1 - r)
    assert profile.sqrt_partial_sum == pytest.approx(closed, abs=1e-10)
    assert profile.sqrt_partial_sum == pytest.approx(8.472135954999576, abs=1e-6)


def test_inverse_square_profile_diverging():
    profile = PhiProfile(tuple(1.0 / n**2 for n in range(1, 201)), "brute_force")
    assert profile.verdict == "diverging"


def test_zero_profiles_exact():
    for driver in (None, iid_driver(Law.uniform(0, 1)), alternating_driver(Law.uniform(0, 2), Law.constant(1.0))):
        profile = PhiProfile.for_driver(driver, 50)
        assert profile.values == (0.0,) * 50 and profile.method == "identically_zero"
        assert profile.verdict == "exact_zero" and profile.sqrt_partial_sum == 0.0
    profile = PhiProfile.for_driver(m_dependent_driver(2, Law.uniform(0, 1)), 50)
    assert profile.values == (1.0, 1.0) + (0.0,) * 48 and profile.method == "identically_zero"
    assert profile.verdict == "exact_zero" and profile.sqrt_partial_sum == pytest.approx(2.0)


def test_empty_profile_sums_to_zero():
    profile = PhiProfile.for_driver(sym_driver(), 0)
    assert profile.values == () and profile.sqrt_partial_sum == 0.0
    assert profile.csv_rows() == ["n,phi,phi_sqrt_partial_sum"]


def test_markov_profile_csv_shape():
    profile = PhiProfile.for_driver(sym_driver(), 12)
    assert profile.method == "exact_markov"
    rows = profile.csv_rows()
    assert rows[0] == "n,phi,phi_sqrt_partial_sum"
    assert len(rows) == 13
    n, phi, ps = rows[1].split(",")
    assert (int(n), float(phi)) == (1, 0.4)
    assert float(ps) == pytest.approx(math.sqrt(0.4))


@settings(max_examples=40, deadline=None)
@given(p=st.floats(0.01, 0.99), q=st.floats(0.01, 0.99))
def test_csv_partial_sums_are_rounded_once(p, q):
    driver = markov_driver([[1.0 - p, p], [q, 1.0 - q]], [q / (p + q), p / (p + q)], [0.0, 1.0])
    profile = PhiProfile.for_driver(driver, 60)
    roots = [math.sqrt(v) for v in profile.values]
    partials = [row.split(",")[2] for row in profile.csv_rows()[1:]]
    assert partials == [repr(math.fsum(roots[:k])) for k in range(1, 61)]
    assert partials[-1] == repr(profile.sqrt_partial_sum)


def test_subsequence_sqrt_sum_bound():
    # sparse subsampling never beats the full sqrt sum plus the gap-0 term
    profiles = [
        PhiProfile.for_driver(sym_driver(), 60),
        PhiProfile(tuple(0.9 ** (n * n) for n in range(1, 61)), "brute_force"),
        PhiProfile.for_driver(m_dependent_driver(3, Law.uniform(0, 1)), 60),
    ]
    for prof in profiles:
        full = 1.0 + prof.sqrt_partial_sum  # phi(0) <= 1 covers the b=1 term
        for q in (2, 3, 5):
            sub = math.fsum(
                math.sqrt(prof.values[q * (b - 1) - 1]) for b in range(2, 61) if q * (b - 1) <= 60
            )
            assert 1.0 + sub <= full + 1e-12


# ---------------------------------------------------------------------------
# scalar strong law


def test_constant_driver_zero_error():
    traj = scalar_slln_trajectory(iid_driver(Law.constant(3.0)), 1000, [1, 10, 1000], 0)
    assert all(v == 0.0 for _, v in traj)


def test_iid_uniform_converges():
    traj = scalar_slln_trajectory(iid_driver(Law.uniform(-1, 1)), 10**5, [10**5], seed=42)
    assert traj[0][1] <= 0.01


def test_markov_converges_with_inflated_variance():
    # mixing inflates variance by (1+0.8)/(1-0.8) = 9: 3 sigma_eff/sqrt(n) ~ 0.03
    traj = scalar_slln_trajectory(sym_driver(), 10**5, [10**5], seed=1)
    assert traj[0][1] <= 0.05


def test_checkpoints_validated():
    with pytest.raises(ValueError):
        scalar_slln_trajectory(iid_driver(Law.uniform(0, 1)), 100, [50, 20], 0)
