"""Config-driven experiment runner with byte-reproducible outputs.

Usage:
    randset run <config.json> [--out DIR] [--threads N]
    randset plot <trajectory.csv> <out.svg>

A config fully determines every output byte. Exit codes: 0 when the computed
verdict matches the config's optional "expect" field (or no expectation was
set), 1 on a verdict mismatch, 2 on an invalid config or malformed plot input.
Every schema or precondition failure of a config exits 2, before anything is
drawn, with a "ConfigInvalid: <key>: <problem>" line per problem. The schema
tables below (_CONFIG_KEYS and _EXPERIMENTS, with the driver, law and
tolerance keys) are the reference for which keys each experiment takes.
The environment variable RANDSET_SEED_OVERRIDE (an integer) replaces all
configured seeds, for fuzzing runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, make_dataclass
from importlib import resources
from pathlib import Path

from .experiments import (
    ProbeOutsideD,
    Trajectory,
    cone_tracking,
    exact_cell_expansion,
    halo_certificates,
    km_probes,
    run_hausdorff_slln,
    run_km_diagnostics,
    slln_hypotheses_report,
    trajectory_csv,
)
from .geometry import DEFAULT_CELL_BUDGET, dual_direction, format_set_union
from .mixing import (
    _BLOCK,
    Law,
    MixingError,
    PhiProfile,
    ScalarDriver,
    alternating_driver,
    iid_driver,
    m_dependent_driver,
    markov_driver,
    scalar_slln_trajectory,
    summability_report,
)
from .processes import FAMILIES, ProcessError, SetProcessSpec, _require_target

SEED_OVERRIDE_VAR = "RANDSET_SEED_OVERRIDE"


class ConfigInvalid(Exception):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class SchemaMismatch(Exception):
    pass


# ---------------------------------------------------------------------------
# config schema: one row per key, all checked by one loop (_fields)


_REQUIRED = object()  # the default of a key that must be given
_NUMBER_LIMIT = 1e150  # squares and long sums of numbers this large stay finite
# a needle_halo expansion S_n has 2^n cells: the largest n within the cell budget
_HALO_N_MAX = DEFAULT_CELL_BUDGET.bit_length() - 1
_CHECK_ERRORS = (ValueError, MixingError, ProcessError, ProbeOutsideD)  # raised by the library's checks


@dataclass(frozen=True)
class _Key:
    """A key of a config, driver, law or tolerances object: the experiments
    (driver families, law kinds) taking it, the JSON value assumed when it is
    absent, and convert(value, typed), which checks the value and returns the
    typed one; it may read typed["experiment"] and typed[k] for k in needs."""

    kinds: tuple
    default: object
    convert: object
    needs: tuple = ()


def _fields(obj, keys: dict, kind) -> tuple[dict, list[str]]:
    """(typed values, problems) of a JSON object of the given kind, each
    problem as "<key>: <what is wrong>". The one loop over a schema table; a
    key is skipped when a key it needs has a problem, reported already."""
    if not isinstance(obj, dict):
        raise ValueError(f"must be an object, got {obj!r}")
    problems = [f"{k}: unknown key" for k in sorted(obj) if k not in keys or kind not in keys[k].kinds]
    typed, failed = {}, set()
    for name, key in keys.items():
        if kind not in key.kinds:
            continue
        if not failed.intersection(key.needs):
            try:
                value = obj.get(name, key.default)
                if value is _REQUIRED:
                    raise ValueError("missing")
                typed[name] = key.convert(value, typed)
            except ConfigInvalid as e:  # from a law or driver object
                problems += [f"{name}.{p}" for p in e.problems]
            except _CHECK_ERRORS as e:
                problems.append(f"{name}: {e}")
        if name not in typed:
            failed.add(name)
    return typed, problems


def _check(test, what: str):
    """The conversion that keeps a JSON value passing test."""

    def convert(v, typed=None):
        if not test(v):
            raise ValueError(f"must be {what}, got {v!r}")
        return v

    return convert


def _number(lo=-_NUMBER_LIMIT, hi=_NUMBER_LIMIT, integer=False):
    """The one number check: a JSON number (an integer if asked for), never a
    boolean, in [lo, hi] and so finite."""

    kinds = int if integer else (int, float)

    def convert(v, typed=None):
        if isinstance(v, kinds) and not isinstance(v, bool) and lo <= v <= hi:
            return v if integer else float(v)
        raise ValueError(f"must be {'an integer' if integer else 'a number'} in [{lo:g}, {hi:g}], got {v!r}")

    return convert


def _list(item, nonempty=False):
    check = _check(lambda v: isinstance(v, list) and (v or not nonempty), "a nonempty list" if nonempty else "a list")
    return lambda v, typed=None: tuple(map(item, check(v)))


def _optional(convert):
    return lambda v, typed=None: None if v is None else convert(v)


def _object(kind_key: str, builders: dict, keys: dict):
    """The conversion of a law or driver object: its kind_key entry picks the
    builder, and the keys' rows check the builder's parameters."""

    def convert(v, typed=None):
        kind = v.get(kind_key) if isinstance(v, dict) else None
        if kind not in tuple(builders):
            raise ValueError(f"needs a {kind_key!r} among {tuple(builders)}, got {v!r}")
        params, problems = _fields({k: x for k, x in v.items() if k != kind_key}, keys, kind)
        if problems:
            raise ConfigInvalid(problems)
        return builders[kind](**params)

    return convert


def _driver(v, typed) -> ScalarDriver | None:
    if v is None and _EXPERIMENTS[typed["experiment"]] is None:
        raise ValueError(f"{typed['experiment']} needs a driver")
    return None if v is None else _scalar_driver(v)


def _family(v, typed) -> SetProcessSpec:
    families = tuple(_EXPERIMENTS[typed["experiment"]])
    _check(lambda v: v in families, f"a family that {typed['experiment']} takes, one of {families}")(v)
    return SetProcessSpec(family=v, driver=typed.get("driver"))


def _n_max(v, typed) -> int:
    spec = typed.get("family")
    return _number(*_EXPERIMENTS[typed["experiment"]][spec.family] if spec else _ANY_N, integer=True)(v)


def _checkpoints(v, typed) -> tuple[int, ...]:
    cps = _list(_number(1, typed["n_max"], integer=True), nonempty=True)(v)
    return _check(lambda cps: list(cps) == sorted(cps), "sorted")(cps)


def _tolerances(v, typed) -> dict:
    tolerances, problems = _fields(v, _TOLERANCE_KEYS, typed["experiment"])
    if problems:
        raise ValueError("; ".join(problems))
    return tolerances


_numbers = _list(_number())
_vectors = _list(_numbers)
_optional_string = _optional(_check(lambda v: isinstance(v, str), "a string"))

_LAWS = {"uniform": Law.uniform, "normal": Law.normal, "constant": Law.constant, "choice": Law.choice}
_LAW_KEYS = {
    "low": _Key(("uniform",), _REQUIRED, _number()),
    "high": _Key(("uniform",), _REQUIRED, _number()),
    "mean": _Key(("normal",), _REQUIRED, _number()),
    "sd": _Key(("normal",), _REQUIRED, _number()),
    "value": _Key(("constant",), _REQUIRED, _number()),
    "values": _Key(("choice",), _REQUIRED, _numbers),
    "weights": _Key(("choice",), None, _optional(_numbers)),
}
_law = _object("kind", _LAWS, _LAW_KEYS)

_DRIVERS = {"iid": iid_driver, "m_dependent": m_dependent_driver, "finite_markov": markov_driver,
            "alternating": alternating_driver}
_DRIVER_KEYS = {
    "law": _Key(("iid", "m_dependent"), _REQUIRED, _law),
    # a block of draws allocates m floats beyond the block
    "m": _Key(("m_dependent",), _REQUIRED, _number(1, _BLOCK, integer=True)),
    "transition": _Key(("finite_markov",), _REQUIRED, _vectors),
    "stationary": _Key(("finite_markov",), _REQUIRED, _numbers),
    "emissions": _Key(("finite_markov",), _REQUIRED, _numbers),
    "law_even": _Key(("alternating",), _REQUIRED, _law),
    "law_odd": _Key(("alternating",), _REQUIRED, _law),
}
_scalar_driver = _object("family", _DRIVERS, _DRIVER_KEYS)

# Each experiment's preconditions: the set families it takes, each with the
# (least, greatest) n_max allowed; None for an experiment on a bare driver,
# which it then requires. Ray tilts need two indices; needle_halo expansions
# stay within the cell budget.
_ANY_N = (1, _NUMBER_LIMIT)
_EXPERIMENTS = {
    "hausdorff_slln": dict.fromkeys(("segment", "two_point", "random_ball"), _ANY_N),
    "km_diagnostics": {**dict.fromkeys(FAMILIES, _ANY_N), "random_ray": (2, _NUMBER_LIMIT)},
    "cone_tracking": {"random_ray": (2, _NUMBER_LIMIT)},
    "halo_certificate": {"needle_halo": (1, _HALO_N_MAX)},
    "phi_profile": None,
    "conditions_report": dict.fromkeys(FAMILIES, _ANY_N),
    "cell_expansion": {**dict.fromkeys(FAMILIES, _ANY_N), "needle_halo": (1, _HALO_N_MAX)},
    "scalar_slln": None,
}
EXPERIMENTS = tuple(_EXPERIMENTS)
_TRAJECTORIES = ("hausdorff_slln", "scalar_slln")
_TOLERANCE_KEYS = {
    "final_value": _Key(_TRAJECTORIES, 0.02, _number()),
    "min_pass_count": _Key(_TRAJECTORIES, None, _optional(_number(integer=True))),  # None: every seed
    "km_tolerance": _Key(("km_diagnostics",), 0.05, _number()),
}

# table order is check order: a key comes after the keys it needs
_CONFIG_KEYS = {
    "experiment": _Key(EXPERIMENTS, _REQUIRED, _check(lambda v: v in EXPERIMENTS, f"one of {EXPERIMENTS}")),
    "driver": _Key(tuple(e for e in EXPERIMENTS if e != "halo_certificate"), None, _driver),
    "family": _Key(tuple(e for e in EXPERIMENTS if _EXPERIMENTS[e]), _REQUIRED, _family, ("driver",)),
    "n_max": _Key(_TRAJECTORIES + ("km_diagnostics", "cone_tracking", "halo_certificate", "cell_expansion"),
                  _REQUIRED, _n_max, ("family",)),
    "checkpoints": _Key(_TRAJECTORIES + ("km_diagnostics",), _REQUIRED, _checkpoints, ("n_max",)),
    "target": _Key(("hausdorff_slln",), "coA", _check(lambda v: v in ("A", "coA"), "'A' or 'coA'")),
    "window_radius": _Key(("km_diagnostics",), _REQUIRED, _number(0)),
    "probes": _Key(("km_diagnostics",), _REQUIRED,
                   lambda v, t: tuple(km_probes(t["family"], _vectors(v), t["window_radius"])),
                   ("family", "window_radius")),
    "n_terms": _Key(("phi_profile", "conditions_report"), _REQUIRED, _number(10, integer=True)),
    "targets": _Key(("conditions_report",), [],
                    lambda v, t: tuple(_require_target(t["family"], x) for x in _vectors(v)), ("family",)),
    "directions": _Key(("conditions_report",), [],
                       lambda v, t: tuple(dual_direction(d, t["family"].dimension) for d in _vectors(v)),
                       ("family",)),
    "seeds": _Key(EXPERIMENTS, [0], _list(_number(integer=True), nonempty=True)),
    "tolerances": _Key(EXPERIMENTS, {}, _tolerances),
    "expect": _Key(EXPERIMENTS, None, _optional_string),
    "output_dir": _Key(EXPERIMENTS, None, _optional_string),
}


class ExperimentConfig(make_dataclass(
    "ExperimentConfig", ["raw", ("spec", object, None)] + [(k, object, None) for k in _CONFIG_KEYS if k != "family"],
    frozen=True,
)):
    """A checked config: raw is the canonical input and spec the family bound
    to its driver; every other key of _CONFIG_KEYS holds its typed value, None
    where the experiment does not take the key."""


def parse_config(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigInvalid(["config must be a JSON object"])
    exp = obj.get("experiment")
    if exp not in EXPERIMENTS:
        raise ConfigInvalid([f"experiment: must be one of {EXPERIMENTS}, got {exp!r}"])
    typed, problems = _fields(obj, _CONFIG_KEYS, exp)
    override = os.environ.get(SEED_OVERRIDE_VAR)
    if override is not None:
        try:
            typed["seeds"] = (int(override),)
        except ValueError:
            problems.append(f"{SEED_OVERRIDE_VAR}: must be an integer, got {override!r}")
    if problems:
        raise ConfigInvalid(problems)
    return ExperimentConfig(raw=canonical_config_dict(obj), spec=typed.pop("family", None), **typed)


def canonical_config_dict(obj: dict) -> dict:
    return json.loads(json.dumps(obj, sort_keys=True))


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    try:
        obj = json.loads(p.read_text(encoding="utf-8"))
    except (OSError, RecursionError, ValueError) as e:  # unreadable, not UTF-8 or not JSON
        raise ConfigInvalid([f"config file {p}: {e}"]) from e
    return parse_config(obj)


def bundled_config_names() -> list[str]:
    root = resources.files("randset").joinpath("configs")
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))


def bundled_config_path(name: str) -> Path:
    return Path(str(resources.files("randset").joinpath("configs", name)))


# ---------------------------------------------------------------------------
# experiment execution


def _seed_trajectory(args) -> Trajectory:
    cfg, seed = args
    if cfg.experiment == "hausdorff_slln":
        return run_hausdorff_slln(cfg.spec, cfg.target, cfg.n_max, cfg.checkpoints, [seed])[0]
    ns, values = zip(*scalar_slln_trajectory(cfg.driver, cfg.n_max, cfg.checkpoints, seed))
    return Trajectory(checkpoints=ns, values=values, metric_name="scalar_slln", seed=seed)


def _run_trajectory_experiment(cfg: ExperimentConfig, out: Path, threads: int) -> tuple[str, dict]:
    jobs = [(cfg, s) for s in cfg.seeds]
    # a fork-started pool launches every worker at once, so never ask for
    # more than there are seeds or CPUs
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            trajectories = list(pool.map(_seed_trajectory, jobs))
    else:
        trajectories = [_seed_trajectory(j) for j in jobs]
    (out / "trajectory.csv").write_text(trajectory_csv(trajectories))
    finals = {t.seed: t.values[-1] for t in trajectories}
    tol, need = cfg.tolerances["final_value"], cfg.tolerances["min_pass_count"]
    need = len(cfg.seeds) if need is None else need
    passed = sum(1 for v in finals.values() if v <= tol)
    verdict = "converged" if passed >= need else "not_converged"
    report = {
        "experiment": cfg.experiment,
        "metric": trajectories[0].metric_name,
        "final_values": {str(s): finals[s] for s in sorted(finals)},
        "final_tolerance": tol,
        "passing_seeds": passed,
        "required_passing": need,
        "verdict": verdict,
    }
    return verdict, report


def _merge_per_seed(cfg: ExperimentConfig, reports) -> tuple[str, dict]:
    verdicts = {r.verdict for r in reports}
    verdict = verdicts.pop() if len(verdicts) == 1 else "mixed"
    return verdict, {"experiment": cfg.experiment, "verdict": verdict, "per_seed": [r.as_dict() for r in reports]}


def _run_km(cfg: ExperimentConfig, out: Path, threads: int) -> tuple[str, dict]:
    args = (cfg.spec, cfg.probes, cfg.window_radius, cfg.n_max, cfg.checkpoints)
    tol = cfg.tolerances["km_tolerance"]
    return _merge_per_seed(cfg, [run_km_diagnostics(*args, s, tolerance=tol) for s in cfg.seeds])


def _run_cone_tracking(cfg: ExperimentConfig, out: Path, threads: int) -> tuple[str, dict]:
    return _merge_per_seed(cfg, [cone_tracking(cfg.spec, cfg.n_max, s) for s in cfg.seeds])


def _run_halo(cfg: ExperimentConfig, out: Path, threads: int) -> tuple[str, dict]:
    per_seed = []
    all_ok = True
    for s in cfg.seeds:
        rows = []
        for n, (a_in, in_halo, r_n) in enumerate(halo_certificates(cfg.spec, cfg.n_max, s), 1):
            all_ok = all_ok and a_in and in_halo
            rows.append({"n": n, "A_subset_Sn": a_in, "Sn_in_halo": in_halo, "r_n": r_n})
        per_seed.append({"seed": s, "certificates": rows})
    verdict = "certified" if all_ok else "violated"
    return verdict, {"experiment": cfg.experiment, "verdict": verdict, "per_seed": per_seed}


def _run_phi(cfg: ExperimentConfig, out: Path, threads: int) -> tuple[str, dict]:
    profile = PhiProfile.for_driver(cfg.driver, cfg.n_terms)
    (out / "phi.csv").write_text("\n".join(profile.csv_rows()) + "\n")
    rep = summability_report(profile)
    return rep.verdict, {
        "experiment": cfg.experiment,
        "verdict": rep.verdict,
        "sqrt_partial_sum": rep.partial_sum,
        "method": profile.method,
    }


def _run_conditions(cfg: ExperimentConfig, out: Path, threads: int) -> tuple[str, dict]:
    rep = slln_hypotheses_report(cfg.spec, cfg.targets, cfg.directions, cfg.n_terms)
    return rep.overall, {**rep.as_dict(), "experiment": cfg.experiment}


def _run_expansion(cfg: ExperimentConfig, out: Path, threads: int) -> tuple[str, dict]:
    per_seed = []
    for s in cfg.seeds:
        sn = exact_cell_expansion(cfg.spec, cfg.n_max, s)
        (out / f"cells_seed{s}.txt").write_text(format_set_union(sn))
        per_seed.append({"seed": s, "cell_count": sn.cell_count})
    return "ok", {"experiment": cfg.experiment, "verdict": "ok", "n": cfg.n_max, "per_seed": per_seed}


# only private runners go in this table: they reach the public experiment
# functions through module globals, which bench/tracer.py patches to time them
_RUNNERS = {
    "hausdorff_slln": _run_trajectory_experiment,
    "scalar_slln": _run_trajectory_experiment,
    "km_diagnostics": _run_km,
    "cone_tracking": _run_cone_tracking,
    "halo_certificate": _run_halo,
    "phi_profile": _run_phi,
    "conditions_report": _run_conditions,
    "cell_expansion": _run_expansion,
}


def run_config(cfg: ExperimentConfig, out_dir: str | Path, threads: int = 1) -> tuple[int, str]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    verdict, report = _RUNNERS[cfg.experiment](cfg, out, threads)
    report["config"] = cfg.raw
    (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    summary = f"{cfg.experiment} seeds={len(cfg.seeds)} verdict={verdict}"
    if cfg.expect is None or cfg.expect == verdict:
        return 0, summary
    return 1, summary + f" (expected {cfg.expect})"


# ---------------------------------------------------------------------------
# SVG plotting (hand-rolled: no timestamps, no generated ids, byte-stable)


_PALETTE = (
    "#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377", "#bbbbbb",
    "#332288", "#ddcc77", "#117733", "#882255", "#44aa99", "#999933", "#cc6677",
    "#88ccee", "#661100", "#6699cc", "#aa4466", "#4b0082", "#808000",
)

_VIEW_W, _VIEW_H = 800, 500
_MARGIN = 60.0


def _read_trajectory_csv(path: Path):
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not lines or lines[0] != "metric,seed,n,value":
        raise SchemaMismatch("expected header 'metric,seed,n,value'")
    rows = []
    for ln in lines[1:]:
        try:
            metric, seed, n, value = ln.split(",")  # a ValueError unless four fields
            rows.append((metric, int(seed), int(n), float(value)))
        except ValueError as e:
            raise SchemaMismatch(f"bad row: {ln!r}") from e
        if not 1 <= rows[-1][2] <= sys.float_info.max or not math.isfinite(rows[-1][3]):  # log axes, as floats
            raise SchemaMismatch(f"bad row: {ln!r} needs a float n >= 1 and a finite value")
    if not rows:
        raise SchemaMismatch("no data rows")
    return rows


def _log_ticks(lo: float, hi: float):
    out = []
    e = math.floor(math.log10(lo))
    while e <= sys.float_info.max_10_exp and 10.0**e <= hi * (1 + 1e-12):
        if 10.0**e >= lo * (1 - 1e-12):
            out.append(10.0**e)
        e += 1
    return out or [lo]


def emit_plot(trajectory_csv_path: str | Path, out_svg: str | Path) -> int:
    """Render a log-log trajectory plot as deterministic SVG."""
    rows = _read_trajectory_csv(Path(trajectory_csv_path))
    xs = [r[2] for r in rows]
    ys = [r[3] for r in rows]
    x_lo, x_hi = min(xs), max(xs)
    pos = [y for y in ys if y > 0]
    y_floor = (min(pos) / 10.0 or min(pos)) if pos else 1e-16  # the tenth of a subnormal may be 0
    y_lo, y_hi = y_floor, max(max(ys), y_floor * 10.0)

    def xmap(n):
        if x_hi == x_lo:
            return _VIEW_W / 2.0
        t = (math.log10(n) - math.log10(x_lo)) / (math.log10(x_hi) - math.log10(x_lo))
        return _MARGIN + t * (_VIEW_W - 2 * _MARGIN)

    def ymap(v):
        v = max(v, y_floor)
        if y_hi == y_lo:
            return _VIEW_H / 2.0
        t = (math.log10(v) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo))
        return _VIEW_H - _MARGIN - t * (_VIEW_H - 2 * _MARGIN)

    series: dict[tuple[str, int], list[tuple[int, float]]] = {}
    for metric, seed, n, v in rows:
        series.setdefault((metric, seed), []).append((n, v))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_VIEW_W} {_VIEW_H}">',
        f'<rect x="0" y="0" width="{_VIEW_W}" height="{_VIEW_H}" fill="white"/>',
        f'<rect x="{_MARGIN:.6g}" y="{_MARGIN:.6g}" width="{_VIEW_W - 2 * _MARGIN:.6g}" '
        f'height="{_VIEW_H - 2 * _MARGIN:.6g}" fill="none" stroke="#333333"/>',
    ]
    for t in _log_ticks(x_lo, x_hi):
        x = xmap(t)
        parts.append(f'<line x1="{x:.6g}" y1="{_VIEW_H - _MARGIN:.6g}" x2="{x:.6g}" y2="{_VIEW_H - _MARGIN + 6:.6g}" stroke="#333333"/>')
        parts.append(f'<text x="{x:.6g}" y="{_VIEW_H - _MARGIN + 20:.6g}" font-size="11" text-anchor="middle">1e{int(math.log10(t))}</text>')
    for t in _log_ticks(y_lo, y_hi):
        y = ymap(t)
        parts.append(f'<line x1="{_MARGIN - 6:.6g}" y1="{y:.6g}" x2="{_MARGIN:.6g}" y2="{y:.6g}" stroke="#333333"/>')
        parts.append(f'<text x="{_MARGIN - 10:.6g}" y="{y + 4:.6g}" font-size="11" text-anchor="end">1e{int(round(math.log10(t)))}</text>')
    for i, key in enumerate(sorted(series)):
        color = _PALETTE[i % len(_PALETTE)]
        pts = sorted(series[key])
        if len(pts) == 1:
            n, v = pts[0]
            parts.append(f'<circle cx="{xmap(n):.6g}" cy="{ymap(v):.6g}" r="4" fill="{color}"/>')
        else:
            coords = " ".join(f"{xmap(n):.6g},{ymap(v):.6g}" for n, v in pts)
            parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
    parts.append("</svg>")
    Path(out_svg).write_text("\n".join(parts) + "\n")
    return 0


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="randset", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config", help="path to a config JSON (or a bundled config name)")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--threads", type=int, default=1, help="parallel workers across seeds")
    plot_p = sub.add_parser("plot", help="render a trajectory CSV as SVG")
    plot_p.add_argument("csv", help="trajectory CSV path")
    plot_p.add_argument("svg", help="output SVG path")
    args = parser.parse_args(argv)

    if args.command == "plot":
        try:
            return emit_plot(args.csv, args.svg)
        except (OSError, UnicodeError, SchemaMismatch) as e:
            print(f"{type(e).__name__}: {e}", file=sys.stderr)
            return 2

    cfg_path = Path(args.config)
    if not cfg_path.exists() and not cfg_path.suffix:
        candidate = bundled_config_path(args.config + ".json")
        if candidate.exists():
            cfg_path = candidate
    try:
        cfg = load_config(cfg_path)
    except ConfigInvalid as e:
        for p in e.problems:
            print(f"ConfigInvalid: {p}", file=sys.stderr)
        return 2
    out_dir = args.out or cfg.output_dir or "out"
    code, summary = run_config(cfg, out_dir, threads=max(1, args.threads))
    print(summary)
    return code


if __name__ == "__main__":
    sys.exit(main())
