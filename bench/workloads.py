"""The benchmark's workloads: inputs generated from a seed, the operations that
feed them to `randset`, and the checks of every output.

An operation's `run` is what the benchmark times. It calls `randset` through
module attributes (never through names bound at import), so the traced run's
wrappers see every call. `check` compares the output with a computation made
apart from the program (see oracles.py) and raises `CheckFailed`, or
`KnownFault` for the one fault the workloads keep.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from randset import cli, experiments, geometry, mixing, processes

import oracles as O
from oracles import KnownFault, expect, expect_close

TOL = 1e-12


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    digest: Callable[[Any], bytes]


def build(workload: str, seed: int, root: Path, small: bool = False) -> list[Op]:
    """The operations of one workload. small=True is a reduced size for tests."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    return GENERATORS[workload](rng, Path(root), small)


def _seeds(rng, k: int) -> list[int]:
    return [int(s) for s in rng.choice(np.arange(1, 1_000_000), size=k, replace=False)]


def _bundled(name: str) -> dict:
    return json.loads(cli.bundled_config_path(f"{name}.json").read_text())


def _value_digest(value) -> bytes:
    return repr(value).encode()


def _cli_op(root: Path, name: str, cfg: dict, check) -> Op:
    """One config run through cli.load_config + cli.run_config."""
    d = root / name
    d.mkdir(parents=True, exist_ok=True)
    path = d / "config.json"
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
    out = d / "out"

    def run():
        return cli.run_config(cli.load_config(path), out)

    def digest(result) -> bytes:
        h = hashlib.sha256(repr(result).encode())
        for f in sorted(out.iterdir()):
            h.update(f.name.encode() + b"\0" + f.read_bytes())
        return h.digest()

    return Op(name, run, lambda result: check(cfg, out, result), digest)


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())


def _expect_exit(cfg: dict, verdict: str, result) -> None:
    code, _ = result
    want = 0 if cfg.get("expect") in (None, verdict) else 1
    expect(code == want, f"exit code {code} for verdict {verdict!r} (expect {cfg.get('expect')!r}), want {want}")


def _split_seeds(cfg: dict, seeds) -> list[dict]:
    """One config per seed; a pass count over several seeds becomes 1 of 1."""
    out = []
    for s in seeds:
        c = dict(cfg, seeds=[s])
        if "min_pass_count" in c.get("tolerances", {}):
            c["tolerances"] = dict(c["tolerances"], min_pass_count=1)
        out.append(c)
    return out


# ===========================================================================
# slln_drivers


def _gen_drivers(rng) -> dict[str, dict]:
    """One driver of each family, in config form, with parameters from rng."""
    lo = float(rng.uniform(-1.0, 0.0))
    hi = float(lo + rng.uniform(0.5, 2.0))
    p = float(rng.uniform(0.05, 0.3))
    pa, qa = (float(x) for x in rng.uniform(0.05, 0.4, size=2))
    if abs(pa - qa) < 0.02:
        qa = pa + 0.05
    raw = rng.uniform(0.05, 1.0, size=(3, 3))
    P3 = raw / raw.sum(axis=1, keepdims=True)
    w, v = np.linalg.eig(P3.T)
    pi3 = np.real(v[:, np.argmin(np.abs(w - 1.0))])
    pi3 = pi3 / pi3.sum()
    e = sorted(float(x) for x in rng.uniform(-2.0, 2.0, size=3))
    return {
        "iid": {"family": "iid", "law": {"kind": "normal", "mean": float(rng.uniform(-1, 1)), "sd": float(rng.uniform(0.5, 2.0))}},
        "m_dependent": {"family": "m_dependent", "m": 3, "law": {"kind": "uniform", "low": lo, "high": hi}},
        "alternating": {"family": "alternating", "law_even": {"kind": "uniform", "low": lo, "high": hi},
                        "law_odd": {"kind": "normal", "mean": 0.5 * (lo + hi), "sd": float(rng.uniform(0.1, 1.0))}},
        "markov_sym": {"family": "finite_markov", "transition": [[1.0 - p, p], [p, 1.0 - p]],
                       "stationary": [0.5, 0.5], "emissions": [e[0], e[2]]},
        "markov_asym": {"family": "finite_markov", "transition": [[1.0 - pa, pa], [qa, 1.0 - qa]],
                        "stationary": [qa / (pa + qa), pa / (pa + qa)], "emissions": [e[0], e[1]]},
        "markov3": {"family": "finite_markov", "transition": P3.tolist(), "stationary": pi3.tolist(), "emissions": e},
    }


def _positive_radius_drivers(rng) -> dict[str, dict]:
    """Radius drivers that stay far above 0, so random_ball never clamps."""
    lo = float(rng.uniform(0.5, 1.0))
    hi = float(lo + rng.uniform(0.2, 1.0))
    pa, qa = (float(x) for x in rng.uniform(0.05, 0.4, size=2))
    return {
        "iid": {"family": "iid", "law": {"kind": "uniform", "low": lo, "high": hi}},
        "m_dependent": {"family": "m_dependent", "m": 2, "law": {"kind": "uniform", "low": lo, "high": hi}},
        "alternating": {"family": "alternating", "law_even": {"kind": "uniform", "low": lo, "high": hi},
                        "law_odd": {"kind": "normal", "mean": 0.5 * (lo + hi), "sd": 0.02}},
        "markov_asym": {"family": "finite_markov", "transition": [[1.0 - pa, pa], [qa, 1.0 - qa]],
                        "stationary": [qa / (pa + qa), pa / (pa + qa)], "emissions": [lo, hi]},
    }


def _phi_terms(d: dict) -> int:
    """Terms of a chain's phi profile that stay above about 1e-9.

    Past that, matrix powers leave only rounding noise, and a verdict fitted
    to noise is not a property of the chain.
    """
    lam = sorted(np.abs(np.linalg.eigvals(np.asarray(d["transition"]))))[-2]
    return int(min(200, max(10, math.log(1e-9) / math.log(max(lam, 1e-3)))))


def _slow_driver(d: dict) -> bool:
    """Drivers that step through the chain one index at a time."""
    P = d.get("transition")
    return P is not None and not (len(P) == 2 and abs(P[0][1] - P[1][0]) <= 1e-15)


def _slln_drivers(rng, root: Path, small: bool) -> list[Op]:
    ops: list[Op] = []
    scale = 20 if small else 1
    bundled_seeds = 2 if small else None
    # the bundled configs, one operation per seed, seeds drawn from rng
    for name in ("scalar_slln_markov", "segment_slln", "two_point_slln", "ball_slln"):
        cfg = _bundled(name)
        seeds = _seeds(rng, bundled_seeds or len(cfg["seeds"]))
        if small:
            cfg["n_max"] //= scale
            cfg["checkpoints"] = sorted({max(1, c // scale) for c in cfg["checkpoints"]})
        for i, c in enumerate(_split_seeds(cfg, seeds)):
            ops.append(_cli_op(root, f"{name}-{i}", c, _check_trajectory))
    ops.append(_cli_op(root, "phi_markov_profile", _bundled("phi_markov_profile"), _check_phi))
    for name in ("needle_halo_conditions", "ray_conditions"):
        ops.append(_cli_op(root, name, _bundled(name), _check_conditions))

    drivers = _gen_drivers(rng)
    n_fast, n_slow = 100_000 // scale, 10_000 // scale

    def horizon(d):
        n = n_slow if _slow_driver(d) else n_fast
        return n, [c for c in (100, 1000, 10_000) if c < n] + [n]

    for dname, d in drivers.items():
        n, cps = horizon(d)
        for k, s in enumerate(_seeds(rng, 2)):
            cfg = {"experiment": "scalar_slln", "driver": d, "n_max": n, "checkpoints": cps, "seeds": [s],
                   "tolerances": {"final_value": 0.05, "min_pass_count": 1}}
            ops.append(_cli_op(root, f"scalar-{dname}-{k}", cfg, _check_trajectory))
        for fam in ("segment", "two_point"):
            cfg = {"experiment": "hausdorff_slln", "family": fam, "driver": d, "target": "coA",
                   "n_max": n, "checkpoints": cps, "seeds": _seeds(rng, 1),
                   "tolerances": {"final_value": 0.05, "min_pass_count": 1}}
            ops.append(_cli_op(root, f"{fam}-{dname}", cfg, _check_trajectory))
    for dname, d in _positive_radius_drivers(rng).items():
        n, cps = horizon(d)
        cfg = {"experiment": "hausdorff_slln", "family": "random_ball", "driver": d, "target": "coA",
               "n_max": n, "checkpoints": cps, "seeds": _seeds(rng, 1),
               "tolerances": {"final_value": 0.05, "min_pass_count": 1}}
        ops.append(_cli_op(root, f"ball-{dname}", cfg, _check_trajectory))
    for dname in ("markov_sym", "markov_asym", "markov3", "m_dependent", "iid"):
        d = drivers[dname]
        n_terms = _phi_terms(d) if "transition" in d else 60
        cfg = {"experiment": "phi_profile", "driver": d, "n_terms": n_terms}
        ops.append(_cli_op(root, f"phi-{dname}", cfg, _check_phi))
    for fam, dname in (("segment", "markov_asym"), ("two_point", "markov3")):
        d = drivers[dname]
        mu = O.driver_mean(d)
        cfg = {"experiment": "conditions_report", "family": fam, "driver": d,
               "targets": [[mu]] if fam == "two_point" else [[mu], [mu + float(rng.uniform(0, 1))]],
               "directions": [[1.0], [-1.0], [float(rng.uniform(-1, 1))]], "n_terms": _phi_terms(d)}
        ops.append(_cli_op(root, f"conditions-{fam}-{dname}", cfg, _check_conditions))

    # direct calls into processes and mixing on Markov-driven families
    n_idx = 120 // (4 if small else 1)
    for fam, dname in (("segment", "markov_asym"), ("two_point", "markov3"), ("segment", "markov3")):
        ops.append(_support_process_op(fam, drivers[dname], rng, n_idx))
        ops.append(_selection_op(fam, drivers[dname], rng, n_idx))
    ops.append(_support_process_op("random_ball", _positive_radius_drivers(rng)["markov_asym"], rng, n_idx))
    for dname in ("markov_asym", "markov3"):
        d = drivers[dname]
        for n, past, fut in ((1, 1, 1), (3, 2, 2), (6, 3, 2)):
            ops.append(_phi_brute_op(d, n, past, fut))
    return ops


def _driver_obj(d: dict):
    return cli.parse_config({"experiment": "phi_profile", "driver": d, "n_terms": 10}).driver


def _spec(fam: str, d: dict):
    return processes.SetProcessSpec(family=fam, driver=_driver_obj(d))


def _support_process_op(fam: str, d: dict, rng, n_idx: int) -> Op:
    spec = _spec(fam, d)
    seed = _seeds(rng, 1)[0]
    x = [float(rng.uniform(-1, 1))] if fam != "random_ball" else [float(c) for c in rng.uniform(-0.7, 0.7, size=2)]

    def check(values):
        draws = mixing.draw_sequence(spec.driver, n_idx, seed)
        if fam == "random_ball":
            want = math.hypot(*x) * np.maximum(draws, 0.0)
        else:
            want = np.maximum(x[0] * draws, x[0] * (draws + 1.0))
        expect(len(values) == n_idx, "support_process length")
        for v, w in zip(values, want):
            expect_close(v, float(w), TOL, f"support_process({fam})")

    return Op(f"support_process-{fam}-{len(d['emissions'])}state",
              lambda: processes.support_process(spec, x, range(1, n_idx + 1), seed), check, _value_digest)


def _selection_op(fam: str, d: dict, rng, n_idx: int) -> Op:
    spec = _spec(fam, d)
    seed = _seeds(rng, 1)[0]
    mu = O.driver_mean(d)
    target = (mu + float(rng.uniform(0, 1)),) if fam == "segment" else (mu + 1.0,)

    def run():
        return [processes.selection(spec, target, n, seed) for n in range(1, n_idx + 1)]

    def check(values):
        draws = mixing.draw_sequence(spec.driver, n_idx, seed)
        for (v,), x in zip(values, draws):
            expect_close(v, float(x) + (target[0] - mu), TOL, f"selection({fam})")

    return Op(f"selection-{fam}-{len(d['emissions'])}state", run, check, _value_digest)


def _phi_brute_op(d: dict, n: int, past: int, fut: int) -> Op:
    P, pi = d["transition"], d["stationary"]

    def check(value):
        # by the Markov property the sup sits on the two coordinates next to
        # the gap, whatever the horizons
        expect_close(value, O.markov_phi_profile(P, pi, n)[-1], TOL, "phi_brute_force")

    return Op(f"phi_brute-{len(pi)}state-{n}-{past}-{fut}",
              lambda: mixing.phi_brute_force(P, pi, n, past, fut), check, _value_digest)


def _read_trajectory(out: Path) -> list[tuple[str, int, int, float]]:
    lines = (out / "trajectory.csv").read_text().splitlines()
    expect(lines[0] == "metric,seed,n,value", "trajectory.csv header")
    rows = []
    for ln in lines[1:]:
        m, s, n, v = ln.split(",")
        rows.append((m, int(s), int(n), float(v)))
    return rows


def _check_trajectory(cfg: dict, out: Path, result) -> None:
    rows = _read_trajectory(out)
    (seed,) = cfg["seeds"]
    cps = cfg["checkpoints"]
    expect([r[2] for r in rows] == cps and all(r[1] == seed for r in rows), "trajectory rows")
    d = cfg["driver"]
    mu = O.driver_mean(d)
    draws = mixing.draw_sequence(_driver_obj(d), cfg["n_max"], seed)
    means = [math.fsum(draws[:c]) / c for c in cps]
    fam = cfg.get("family")
    for (_, _, n, v), m in zip(rows, means):
        if fam == "two_point":
            want = O.lattice_interval_hausdorff(m - mu, n)
        else:
            want = abs(m - mu)
        expect_close(v, want, TOL, f"trajectory value at n={n}")
    # the final error is a mean of n draws: it lies within 6 standard errors
    se = math.sqrt(O.asymptotic_variance(d) / cps[-1])
    expect(abs(means[-1] - mu) <= 6.0 * se + 1e-12, f"final error {abs(means[-1] - mu):.3g} beyond 6 se ({se:.3g})")
    rep = _report(out)
    tol = cfg["tolerances"]["final_value"]
    final = rows[-1][3]
    expect(rep["final_values"] == {str(seed): final}, "report final value")
    verdict = "converged" if int(final <= tol) >= cfg["tolerances"]["min_pass_count"] else "not_converged"
    expect(rep["verdict"] == verdict, f"verdict {rep['verdict']!r}, recomputed {verdict!r}")
    _expect_exit(cfg, verdict, result)


def _expected_phi(d: dict, n_terms: int) -> tuple[list[float], str]:
    if d["family"] == "finite_markov":
        P, pi = d["transition"], d["stationary"]
        if len(pi) == 2:
            return [O.two_state_phi(P, pi, n) for n in range(1, n_terms + 1)], "exact_markov"
        return O.markov_phi_profile(P, pi, n_terms), "exact_markov"
    m = d.get("m", 0) if d["family"] == "m_dependent" else 0
    return [1.0 if n <= m else 0.0 for n in range(1, n_terms + 1)], "identically_zero"


def _check_phi(cfg: dict, out: Path, result) -> None:
    lines = (out / "phi.csv").read_text().splitlines()
    expect(lines[0] == "n,phi,phi_sqrt_partial_sum", "phi.csv header")
    rows = [ln.split(",") for ln in lines[1:]]
    vals = [float(r[1]) for r in rows]
    d = cfg["driver"]
    want, method = _expected_phi(d, cfg["n_terms"])
    expect(len(vals) == len(want), "phi length")
    for n, (v, w) in enumerate(zip(vals, want), start=1):
        expect_close(v, w, TOL, f"phi({n})")
    if d["family"] == "finite_markov" and len(d["stationary"]) > 2:
        for n, v in enumerate(vals, start=1):
            expect_close(v, mixing.phi_brute_force(d["transition"], d["stationary"], n, 1, 1), TOL, f"phi({n}) vs brute force")
    partial = math.fsum(math.sqrt(v) for v in vals)
    expect_close(float(rows[-1][2]), partial, 1e-9, "phi sqrt partial sum")
    rep = _report(out)
    verdict = O.summability_verdict(vals)
    expect(rep["verdict"] == verdict, f"phi verdict {rep['verdict']!r}, recomputed {verdict!r}")
    expect(rep["method"] == method and abs(rep["sqrt_partial_sum"] - partial) <= 1e-9, "phi report")
    _expect_exit(cfg, verdict, result)


def _check_conditions(cfg: dict, out: Path, result) -> None:
    rep = _report(out)
    fam, N = cfg["family"], cfg["n_terms"]
    d = cfg.get("driver")
    vals, _ = _expected_phi(d, max(N, 10)) if d else ([0.0] * max(N, 10), None)
    mix_verdict = O.summability_verdict(vals)
    expect(rep["mixing"]["verdict"] == mix_verdict, "mixing verdict")
    expect_close(rep["mixing"]["sqrt_partial_sum"], math.fsum(math.sqrt(v) for v in vals), 1e-9, "mixing partial sum")
    if d is not None:
        mu = O.driver_mean(d)
        f = np.asarray(d.get("emissions", []), dtype=float)
        var = float(np.dot(d["stationary"], (f - mu) ** 2)) if d["family"] == "finite_markov" else None
    violated = "mixing_summability" if mix_verdict == "diverging" else None
    for row, t in zip(rep["selection_moments"], cfg["targets"]):
        if fam in ("segment", "two_point"):
            want = math.fsum(var / n**2 for n in range(1, N + 1))
        elif fam == "needle_halo":
            want = 0.0
        else:
            want = math.fsum((t[0] * math.tan(1.0 / n)) ** 2 / n**2 for n in range(1, N + 1))
        expect_close(row["partial_sum"], want, 1e-10 * max(1.0, want), "selection moment series")
    for row, x in zip(rep["support_moments"], cfg["directions"]):
        inf_at = None
        if fam in ("segment", "two_point"):
            want, vacuous = math.fsum(x[0] ** 2 * var / n**2 for n in range(1, N + 1)), False
        elif fam == "needle_halo":
            vacuous = x[0] > 0.0  # s(x*, axis ray) = +inf exactly when x* leans along the ray
            want = None if vacuous else math.fsum((x[0] ** 2 + x[1] ** 2) / 8.0 / n**4 for n in range(1, N + 1))
        else:
            vacuous = x[0] > 0.0
            want = None
            if not vacuous:
                for n in range(1, N + 1):
                    c, s = math.cos(1.0 / n), math.sin(1.0 / n)
                    if x[0] * c + x[1] * s > 0.0 or x[0] * c - x[1] * s > 0.0:
                        inf_at = n
                        break
                want = math.inf if inf_at else 0.0
        expect(row["vacuous"] == vacuous and row["infinite_term_at"] == inf_at, f"support row {x}")
        if want is None:
            expect(row["partial_sum"] is None, "vacuous partial sum")
        else:
            expect_close(row["partial_sum"], want, 1e-10 * max(1.0, want) if math.isfinite(want) else 0.0, "support series")
            if math.isinf(want) and violated is None:
                violated = "support_moments"
    overall = "hypotheses_hold_evidence" if violated is None else "hypothesis_violated"
    expect(rep["overall"] == overall and rep["violated"] == violated, f"overall {rep['overall']!r}, recomputed {overall!r}")
    _expect_exit(cfg, overall, result)


# ===========================================================================
# cell_algebra


# The two_point expansions keep near-duplicate lattice points (see CHANGES.md):
# fixed inputs, so the same operations fail in every run whatever the seed.
TWO_POINT_FAULT_CASES = ((20, 1), (25, 1), (24, 2), (30, 3))


def _cell_algebra(rng, root: Path, small: bool) -> list[Op]:
    ops: list[Op] = []
    cap = 8 if small else 12

    def n_of(n):
        return min(n, cap)

    cert = _bundled("needle_halo_certificate")
    cert["n_max"] = n_of(cert["n_max"])
    for i, c in enumerate(_split_seeds(cert, _seeds(rng, 1))):
        ops.append(_cli_op(root, f"needle_halo_certificate-{i}", c, _check_halo_certificate))
    for i, n in enumerate((6, 6, 7, 7, 8, 8, 9, 9)):
        cfg = {"experiment": "halo_certificate", "family": "needle_halo", "n_max": n_of(n), "seeds": _seeds(rng, 1)}
        ops.append(_cli_op(root, f"halo_certificate-{i}", cfg, _check_halo_certificate))
    exp = _bundled("halo_expansion")
    exp["seeds"] = _seeds(rng, 1)
    ops.append(_cli_op(root, "halo_expansion", exp, _check_halo_expansion))
    # n = 5..11, then 24 at n = 8, so that the median operation is a
    # Minkowski expansion rather than a file-bound cone tracking run
    for i, n in enumerate((11, 10, 10, 9, 9, 8, 8, 7, 7, 6, 6, 5, 5) + (8,) * 24):
        cfg = {"experiment": "cell_expansion", "family": "needle_halo", "n_max": n_of(n), "seeds": _seeds(rng, 1)}
        ops.append(_cli_op(root, f"cell_expansion-needle-{i}", cfg, _check_halo_expansion))
    km = _bundled("needle_halo_km")
    for i, c in enumerate(_split_seeds(km, _seeds(rng, len(km["seeds"])))):
        ops.append(_cli_op(root, f"needle_halo_km-{i}", c, _check_km_needle))
    for i in range(16):
        cps = [2 + i % 3, n_of(5 + i % 3), n_of(9), 100]
        cfg = {"experiment": "km_diagnostics", "family": "needle_halo",
               "probes": [[0.0, 0.0], [float(rng.uniform(0, 3)), 0.0]], "window_radius": 5.0,
               "n_max": 100, "checkpoints": cps, "seeds": _seeds(rng, 1), "tolerances": {"km_tolerance": 0.05}}
        ops.append(_cli_op(root, f"km-needle-{i}", cfg, _check_km_needle))
    ray = _bundled("ray_km_failure")
    for i, c in enumerate(_split_seeds(ray, _seeds(rng, len(ray["seeds"])))):
        ops.append(_cli_op(root, f"ray_km_failure-{i}", c, _check_cone_tracking))
    for i in range(12):
        cfg = {"experiment": "cone_tracking", "family": "random_ray", "n_max": 200 + 400 * i,
               "seeds": _seeds(rng, 1)}
        ops.append(_cli_op(root, f"cone_tracking-{i}", cfg, _check_cone_tracking))
    for n, s in TWO_POINT_FAULT_CASES:
        cfg = {"experiment": "cell_expansion", "family": "two_point",
               "driver": {"family": "iid", "law": {"kind": "normal", "mean": 0.0, "sd": 1.0}},
               "n_max": n, "seeds": [s]}
        ops.append(_cli_op(root, f"cell_expansion-two_point-{n}-{s}", cfg, _check_two_point_expansion))
    return ops


def _halo(n: int, seed: int) -> np.ndarray:
    return np.array([processes.halo_point(i, seed) for i in range(1, n + 1)])


def _parse_cells(text: str):
    """(ray offsets, points) of a cells file holding rays along (1, 0) and points."""
    rays, points = [], []
    for line in text.splitlines():
        body = line.removeprefix("CELL poly v=")
        expect(body != line, f"unexpected cell line {line!r}")
        if " cone g=" in body:
            v, g = body.split(" cone g=")
            expect(g == "(1,0)", f"ray generator {g}")
            rays.append(_vec(v))
        else:
            expect(";" not in body and " " not in body, f"unexpected cell line {line!r}")
            points.append(_vec(body))
    return np.array(rays).reshape(-1, 2), np.array(points)


def _vec(text: str) -> list[float]:
    return [float(t) for t in text.strip("()").split(",")]


def _check_halo_cells(text: str, n: int, seed: int) -> None:
    rays, points = _parse_cells(text)
    offsets, point = O.halo_cells(_halo(n, seed))
    expect(len(points) == 1 and len(rays) == 2**n - 1, f"{len(rays)} rays and {len(points)} points, want {2**n - 1} and 1")
    O.match_points(rays, offsets, TOL, f"halo rays n={n}")
    expect(float(np.abs(points[0] - point).max()) <= TOL, "halo leftover point")


def _check_halo_expansion(cfg: dict, out: Path, result) -> None:
    (seed,) = cfg["seeds"]
    _check_halo_cells((out / f"cells_seed{seed}.txt").read_text(), cfg["n_max"], seed)
    rep = _report(out)
    expect(rep["per_seed"] == [{"seed": seed, "cell_count": 2 ** cfg["n_max"]}], "expansion report")
    _expect_exit(cfg, "ok", result)


def _harmonic(n: int) -> float:
    return math.fsum(1.0 / i for i in range(1, n + 1)) / n


def _check_halo_certificate(cfg: dict, out: Path, result) -> None:
    (seed,) = cfg["seeds"]
    report = _report(out)
    (entry,) = report["per_seed"]
    halo = _halo(cfg["n_max"], seed)
    ok = True
    for n, row in enumerate(entry["certificates"], start=1):
        offsets, point = O.halo_cells(halo[:n])
        r_n = _harmonic(n)
        in_halo = bool(np.hypot(offsets[:, 0], offsets[:, 1]).max() <= r_n
                       and O.point_to_rays(point, np.zeros((1, 2)))[0] <= r_n)
        want = {"n": n, "A_subset_Sn": True, "Sn_in_halo": in_halo, "r_n": r_n}
        expect(row == want, f"certificate {row} != recomputed {want}")
        ok = ok and in_halo
    expect(len(entry["certificates"]) == cfg["n_max"], "certificate rows")
    verdict = "certified" if ok else "violated"
    expect(report["verdict"] == verdict, "certificate verdict")
    _expect_exit(cfg, verdict, result)


def _check_km_needle(cfg: dict, out: Path, result) -> None:
    (seed,) = cfg["seeds"]
    report = _report(out)
    (rep,) = report["per_seed"]
    cps = cfg["checkpoints"]
    tol = cfg["tolerances"]["km_tolerance"]
    halo = _halo(min(max(cps), 16), seed)
    for j, cp in enumerate(cps):
        if cp <= 16:
            offsets, point = O.halo_cells(halo[:cp])
            verts = np.vstack([offsets, point])
            for i, p in enumerate(cfg["probes"]):
                want = min(float(O.point_to_rays(p, offsets).min()), math.dist(p, point))
                expect_close(rep["probe_distances"][i][j], want, TOL, f"K-M probe distance at n={cp}")
            excess = float(max(O.point_to_rays(v, np.zeros((1, 2)))[0] for v in verts))
            expect_close(rep["excess"][j], excess, TOL, f"K-M excess at n={cp}")
            expect(rep["excess_method"][j] == "exact_cells", "excess method")
        else:
            expect(all(r[j] == 0.0 for r in rep["probe_distances"]), "probe rows past the cell budget")
            expect_close(rep["excess"][j], _harmonic(cp), TOL, "halo bound r_n")
            expect(rep["excess_method"][j] == "halo_bound_r_n", "excess method")
    ok = max(r[-1] for r in rep["probe_distances"]) <= tol and rep["excess"][-1] <= tol
    verdict = "converges_evidence" if ok else "inconclusive"
    expect(rep["verdict"] == verdict and report["verdict"] == verdict, f"K-M verdict, recomputed {verdict!r}")
    _expect_exit(cfg, verdict, result)


def _check_cone_tracking(cfg: dict, out: Path, result) -> None:
    (seed,) = cfg["seeds"]
    report = _report(out)
    (rep,) = report["per_seed"]
    signs = mixing.draw_sequence(mixing.fair_sign_driver(), cfg["n_max"], seed)
    pos, neg = np.flatnonzero(signs > 0), np.flatnonzero(signs < 0)
    if len(pos) == 0 or len(neg) == 0:
        expect(rep["verdict"] == "no_mixed_signs", "cone tracking verdict")
        verdict = "no_mixed_signs"
    else:
        kp, km = int(pos[0]) + 1, int(neg[0]) + 1
        want = {"k_plus": kp, "k_minus": km, "opening_angle": 1.0 / kp + 1.0 / km,
                "witness_x": math.cos(1.0 / kp), "witness_y": math.sin(1.0 / kp),
                "witness_distance": math.sin(1.0 / kp)}
        cert = rep["certificate"]
        expect(cert is not None and set(cert) == set(want), "sector certificate")
        for k, w in want.items():
            expect_close(cert[k], w, TOL, f"certificate {k}")
        verdict = "fails_with_certificate"
    expect(rep["verdict"] == verdict and report["verdict"] == verdict, "cone tracking verdict")
    _expect_exit(cfg, verdict, result)


def _check_two_point_expansion(cfg: dict, out: Path, result) -> None:
    (seed,) = cfg["seeds"]
    n = cfg["n_max"]
    _, points = _parse_cells((out / f"cells_seed{seed}.txt").read_text())
    xs = np.sort(points[:, 0])
    draws = mixing.draw_sequence(_driver_obj(cfg["driver"]), n, seed)
    lattice = (math.fsum(draws) + np.arange(n + 1)) / n
    to_lattice = np.abs(xs[:, None] - lattice[None, :]).min(axis=1)
    covered = np.abs(lattice[:, None] - xs[None, :]).min(axis=1)
    expect(float(to_lattice.max()) <= 1e-12 and float(covered.max()) <= 1e-12,
           "two_point cells are not the lattice (1/n)(sum x_i + k)")
    gaps = np.diff(xs)
    close = int((gaps <= geometry.DEDUP_TOL).sum())
    if len(xs) != n + 1 or close:
        raise KnownFault(f"{len(xs)} cells for {n + 1} lattice points; {close} neighbours within DEDUP_TOL")
    _expect_exit(cfg, "ok", result)


# ===========================================================================
# distance_queries


AXIS = ((0.0, 0.0), (1.0, 0.0))


def _convex_polygon(rng, k: int) -> np.ndarray:
    """k vertices in counterclockwise order on a random ellipse."""
    th = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=k))
    while np.diff(np.concatenate([th, th[:1] + 2 * np.pi])).min() < 0.05:
        th = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=k))
    c = rng.uniform(-0.5, 0.5, size=2)
    ax = rng.uniform(0.5, 1.5, size=2)
    return np.column_stack([c[0] + ax[0] * np.cos(th), c[1] + ax[1] * np.sin(th)])


def _intervals(rng, k: int) -> list[tuple[float, float]]:
    """k disjoint intervals, a fifth of them single points.

    Disjoint, because hausdorff misreads nested or overlapping intervals
    (see CHANGES.md), which random overlaps would hit on some seeds only.
    """
    gaps = rng.uniform(0.01, 0.2, size=k)
    widths = rng.uniform(0.0, 0.1, size=k)
    widths[rng.random(k) < 0.2] = 0.0
    lo = -3.0 + np.cumsum(gaps) + np.concatenate([[0.0], np.cumsum(widths)[:-1]])
    return [(float(a), float(a + w)) for a, w in zip(lo, widths)]


def _distance_queries(rng, root: Path, small: bool) -> list[Op]:
    ops: list[Op] = []
    k = 4 if small else 1
    G = geometry

    for i in range(24 // k):
        a, b = _intervals(rng, 60), _intervals(rng, 45)
        ua = G.union_of([G.interval_cell(lo, hi) for lo, hi in a])
        ub = G.union_of([G.interval_cell(lo, hi) for lo, hi in b])
        want = O.hausdorff_intervals(a, b)
        ops.append(_query_op(f"hausdorff-d1-{i}", lambda ua=ua, ub=ub: G.hausdorff(ua, ub), want, TOL))
    for i in range(24 // k):
        a, b = rng.uniform(-2, 2, size=(300, 2)), rng.uniform(-2, 2, size=(200, 2))
        ua, ub = G.point_union(map(tuple, a.tolist())), G.point_union(map(tuple, b.tolist()))
        want = O.hausdorff_point_sets(a, b)
        ops.append(_query_op(f"hausdorff-points-{i}", lambda ua=ua, ub=ub: G.hausdorff(ua, ub), want, TOL))
    for i in range(24 // k):
        a, b = _convex_polygon(rng, 10 + i % 20), _convex_polygon(rng, 29 - i % 20)
        ua, ub = G.union_of([G.poly_cell(map(tuple, a.tolist()))]), G.union_of([G.poly_cell(map(tuple, b.tolist()))])
        want = O.hausdorff_convex_polygons(a, b)
        ops.append(_query_op(f"hausdorff-convex_pair-{i}", lambda ua=ua, ub=ub: G.hausdorff(ua, ub), want, 1e-11))
    for i in range(12 // k):
        a, b = _convex_polygon(rng, 5 + i % 3), _convex_polygon(rng, 7 - i % 3)
        ops.append(_via_support_op(i, G.poly_cell(map(tuple, a.tolist())), G.poly_cell(map(tuple, b.tolist())),
                                   O.hausdorff_convex_polygons(a, b)))
    for i in range(24 // k):
        ops.append(_support_op(i, rng))

    # needle-halo expansions, built here so that no construction is timed
    for i, n in enumerate((10, 10, 9, 9) if not small else (6,)):
        seed = _seeds(rng, 1)[0]
        sn = experiments.exact_cell_expansion(processes.needle_halo_process(), n, seed)
        offsets, point = O.halo_cells(_halo(n, seed))
        probes = [tuple(float(c) for c in p) for p in rng.uniform(-2.0, 2.0, size=(3, 2))]
        ops.append(_point_distance_op(i, sn, probes, offsets, point))
    axis = G.union_of([G.ray_cell(*AXIS)])
    for i, n in enumerate((9, 9, 8, 8) if not small else (6,)):
        seed = _seeds(rng, 1)[0]
        sn = experiments.exact_cell_expansion(processes.needle_halo_process(), n, seed)
        offsets, point = O.halo_cells(_halo(n, seed))
        R = float(rng.uniform(1.0, 4.0))
        ops.append(_windowed_op(i, sn, axis, R, offsets, point))
    return ops


def _query_op(name: str, run, want: float, tol: float) -> Op:
    def check(value):
        expect_close(value, want, tol, name)

    return Op(name, run, check, _value_digest)


def _via_support_op(i: int, a, b, exact: float) -> Op:
    def check(value):
        expect(value <= exact + 1e-12, f"support-sampled H {value!r} above exact {exact!r}")
        expect(value >= exact - 1e-3, f"support-sampled H {value!r} more than 1e-3 below exact {exact!r}")
        coarse = [geometry.hausdorff_via_support(a, b, m) for m in (256, 1024, 2048)]
        expect(coarse == sorted(coarse) and coarse[-1] <= value, "support-sampled H decreases with more directions")

    return Op(f"hausdorff_via_support-{i}", lambda: geometry.hausdorff_via_support(a, b, 4096), check, _value_digest)


def _support_op(i: int, rng) -> Op:
    G = geometry
    cells, verts, gens = [], [], []
    for j in range(20 + i % 20):
        v = rng.uniform(-2.0, 2.0, size=(1 + j % 4, 2))
        g = []
        if rng.random() < 0.1:  # a ray: one vertex, so no LP reduction in set-up
            v, g = v[:1], [tuple(rng.normal(size=2).tolist())]
        cell = G.poly_cell(map(tuple, v.tolist()), g)
        cells.append(cell)
        verts.append(v)
        gens += [np.array(x) / np.hypot(*x) for x in g]
    u = G.union_of(cells)
    V = np.vstack(verts)
    Gm = np.array(gens).reshape(-1, 2)
    dirs = G.spread_directions(64, 2)

    def run():
        return [G.support(d, u) for d in dirs]

    def check(values):
        for d, v in zip(dirs, values):
            expect_close(v, O.union_support(d, V, Gm), TOL, f"support along {d}")

    return Op(f"support-{i}", run, check, _value_digest)


def _point_distance_op(i: int, sn, probes, offsets, point) -> Op:
    def run():
        return [geometry.point_to_union_distance(p, sn) for p in probes]

    def check(values):
        for p, v in zip(probes, values):
            want = min(float(O.point_to_rays(p, offsets).min()), math.dist(p, point))
            expect_close(v, want, TOL, "point_to_union_distance")

    return Op(f"point_to_union_distance-{i}", run, check, _value_digest)


def _windowed_op(i: int, sn, axis, R: float, offsets, point) -> Op:
    lo, hi = O.windowed_bracket(offsets, point, R)

    def check(value):
        expect(lo - TOL <= value <= hi + TOL, f"windowed H {value!r} outside [{lo!r}, {hi!r}]")

    return Op(f"hausdorff_windowed-{i}", lambda: geometry.hausdorff_windowed(sn, axis, R), check, _value_digest)


GENERATORS = {"slln_drivers": _slln_drivers, "cell_algebra": _cell_algebra, "distance_queries": _distance_queries}
