"""Config-driven experiment runner with byte-reproducible outputs.

Usage:
    randset run <config.json> [--out DIR] [--threads N]
    randset plot <trajectory.csv> <out.svg>

A config fully determines every output byte. Exit codes: 0 when the computed
verdict matches the config's optional "expect" field (or no expectation was
set), 1 on a verdict mismatch, 2 on an invalid config or malformed plot input.
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
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .experiments import (
    Trajectory,
    cone_tracking,
    exact_cell_expansion,
    halo_certificate,
    run_hausdorff_slln,
    run_km_diagnostics,
    slln_hypotheses_report,
    trajectory_csv,
)
from .geometry import format_set_union
from .mixing import (
    Law,
    PhiProfile,
    ScalarDriver,
    alternating_driver,
    iid_driver,
    m_dependent_driver,
    markov_driver,
    scalar_slln_trajectory,
    summability_report,
)
from .processes import SetProcessSpec

SEED_OVERRIDE_VAR = "RANDSET_SEED_OVERRIDE"


class ConfigInvalid(Exception):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class SchemaMismatch(Exception):
    pass


# ---------------------------------------------------------------------------
# config parsing (strict: unknown keys are rejected, all problems reported)


_LAW_KEYS = {
    "uniform": {"low", "high"},
    "normal": {"mean", "sd"},
    "constant": {"value"},
    "choice": {"values", "weights"},
}


def _parse_law(obj, where: str, problems: list[str]) -> Law | None:
    if not isinstance(obj, dict) or "kind" not in obj:
        problems.append(f"{where}: law needs a 'kind'")
        return None
    kind = obj["kind"]
    if kind not in _LAW_KEYS:
        problems.append(f"{where}.kind: unknown law {kind!r}")
        return None
    extra = set(obj) - _LAW_KEYS[kind] - {"kind"}
    if extra:
        problems.append(f"{where}: unknown keys {sorted(extra)}")
        return None
    for key in sorted(set(obj) - {"kind"}):
        value = obj[key]
        if key not in ("values", "weights"):
            if not _is_number(value):
                problems.append(f"{where}.{key}: must be a number, got {value!r}")
                return None
        elif not (isinstance(value, list) and all(map(_is_number, value)) or key == "weights" and value is None):
            problems.append(f"{where}.{key}: must be a list of numbers, got {value!r}")
            return None
    try:
        if kind == "uniform":
            return Law.uniform(obj["low"], obj["high"])
        if kind == "normal":
            return Law.normal(obj["mean"], obj["sd"])
        if kind == "constant":
            return Law.constant(obj["value"])
        return Law.choice(obj["values"], obj.get("weights"))
    except (KeyError, ValueError, TypeError) as e:
        problems.append(f"{where}: {e}")
        return None


_DRIVER_KEYS = {
    "iid": {"law"},
    "m_dependent": {"law", "m"},
    "finite_markov": {"transition", "stationary", "emissions"},
    "alternating": {"law_even", "law_odd"},
}


def _parse_driver(obj, where: str, problems: list[str]) -> ScalarDriver | None:
    if not isinstance(obj, dict) or "family" not in obj:
        problems.append(f"{where}: driver needs a 'family'")
        return None
    fam = obj["family"]
    if fam not in _DRIVER_KEYS:
        problems.append(f"{where}.family: unknown driver family {fam!r}")
        return None
    extra = set(obj) - _DRIVER_KEYS[fam] - {"family"}
    if extra:
        problems.append(f"{where}: unknown keys {sorted(extra)}")
        return None
    try:
        if fam == "iid":
            law = _parse_law(obj["law"], f"{where}.law", problems)
            return iid_driver(law) if law else None
        if fam == "m_dependent":
            law = _parse_law(obj["law"], f"{where}.law", problems)
            if not _is_int(obj["m"]):
                problems.append(f"{where}.m: must be an integer, got {obj['m']!r}")
                return None
            return m_dependent_driver(obj["m"], law) if law else None
        if fam == "finite_markov":
            return markov_driver(obj["transition"], obj["stationary"], obj["emissions"])
        le = _parse_law(obj["law_even"], f"{where}.law_even", problems)
        lo = _parse_law(obj["law_odd"], f"{where}.law_odd", problems)
        return alternating_driver(le, lo) if le and lo else None
    except (KeyError, ValueError, TypeError) as e:
        problems.append(f"{where}: {e}")
        return None


_COMMON_KEYS = {"experiment", "expect", "output_dir", "seeds", "tolerances"}
_EXPERIMENT_KEYS = {
    "hausdorff_slln": {"family", "driver", "target", "n_max", "checkpoints"},
    "km_diagnostics": {"family", "driver", "probes", "window_radius", "n_max", "checkpoints"},
    "cone_tracking": {"family", "driver", "n_max"},
    "halo_certificate": {"family", "n_max"},
    "phi_profile": {"driver", "n_terms"},
    "conditions_report": {"family", "driver", "targets", "directions", "n_terms"},
    "cell_expansion": {"family", "driver", "n_max"},
    "scalar_slln": {"driver", "n_max", "checkpoints"},
}
EXPERIMENTS = tuple(_EXPERIMENT_KEYS)
_TOLERANCE_KEYS = {"final_value", "min_pass_count", "km_tolerance"}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _vectors(obj: dict, key: str, problems: list[str]) -> tuple[tuple[float, ...], ...]:
    vs = obj.get(key, [])
    if not isinstance(vs, list) or not all(isinstance(v, list) and all(map(_is_number, v)) for v in vs):
        problems.append(f"{key}: must be a list of coordinate lists")
        return ()
    return tuple(tuple(float(c) for c in v) for v in vs)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    raw: dict  # canonical parsed form, used for round-trips
    spec: SetProcessSpec | None
    driver: ScalarDriver | None
    seeds: tuple[int, ...]
    n_max: int
    checkpoints: tuple[int, ...]
    target: str
    probes: tuple[tuple[float, ...], ...]
    window_radius: float
    n_terms: int
    targets: tuple[tuple[float, ...], ...]
    directions: tuple[tuple[float, ...], ...]
    tolerances: dict
    expect: str | None
    output_dir: str | None


def parse_config(obj: dict) -> ExperimentConfig:
    problems: list[str] = []
    if not isinstance(obj, dict):
        raise ConfigInvalid(["config must be a JSON object"])
    exp = obj.get("experiment")
    if exp not in EXPERIMENTS:
        raise ConfigInvalid([f"experiment: must be one of {EXPERIMENTS}, got {exp!r}"])
    allowed = _COMMON_KEYS | _EXPERIMENT_KEYS[exp]
    unknown = set(obj) - allowed
    for k in sorted(unknown):
        problems.append(f"unknown key {k!r}")

    family = obj.get("family")
    driver = None
    if "driver" in obj and obj["driver"] is not None:
        driver = _parse_driver(obj["driver"], "driver", problems)
    elif exp in ("phi_profile", "scalar_slln") or (exp == "hausdorff_slln"):
        if "driver" not in obj:
            problems.append("missing key 'driver'")

    spec = None
    if "family" in _EXPERIMENT_KEYS[exp]:
        if family is None:
            problems.append("missing key 'family'")
        else:
            try:
                spec = SetProcessSpec(family=family, driver=driver)
            except Exception as e:
                problems.append(f"family: {e}")

    n_max = 0
    n_max_ok = True
    if "n_max" in _EXPERIMENT_KEYS[exp]:
        n_max = obj.get("n_max")
        if not _is_int(n_max) or n_max < 1:
            problems.append(f"n_max: must be a positive integer, got {n_max!r}")
            n_max, n_max_ok = 1, False

    checkpoints = obj.get("checkpoints", [])
    if "checkpoints" in _EXPERIMENT_KEYS[exp]:
        if not checkpoints:
            problems.append("missing key 'checkpoints'")
        elif not isinstance(checkpoints, list) or not all(_is_int(c) and c >= 1 for c in checkpoints) or (
            checkpoints != sorted(checkpoints)
        ) or (n_max_ok and checkpoints[-1] > n_max):
            problems.append("checkpoints: must be sorted positive integers within n_max")

    seeds = obj.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds or not all(map(_is_int, seeds)):
        problems.append("seeds: must be a nonempty list of integers")
        seeds = [0]
    override = os.environ.get(SEED_OVERRIDE_VAR)
    if override is not None:
        try:
            seeds = [int(override)]
        except ValueError:
            problems.append(f"{SEED_OVERRIDE_VAR}: must be an integer, got {override!r}")

    tolerances = obj.get("tolerances", {})
    if not isinstance(tolerances, dict):
        problems.append("tolerances: must be an object")
        tolerances = {}
    elif set(tolerances) - _TOLERANCE_KEYS:
        problems.append(f"tolerances: unknown keys {sorted(set(tolerances) - _TOLERANCE_KEYS)}")
    elif not all((_is_int if k == "min_pass_count" else _is_number)(v) for k, v in tolerances.items()):
        problems.append("tolerances: min_pass_count must be an integer, the others numbers")

    target = obj.get("target", "coA")
    if target not in ("A", "coA"):
        problems.append(f"target: must be 'A' or 'coA', got {target!r}")

    probes = _vectors(obj, "probes", problems)
    window_radius = obj.get("window_radius", 0.0)
    if not _is_number(window_radius):
        problems.append(f"window_radius: must be a number, got {window_radius!r}")
    elif exp == "km_diagnostics" and window_radius <= 0:
        problems.append("window_radius: must be positive")

    n_terms = obj.get("n_terms", 0)
    if "n_terms" in _EXPERIMENT_KEYS[exp] and (not _is_int(n_terms) or n_terms < 10):
        problems.append(f"n_terms: must be an integer >= 10, got {n_terms!r}")

    targets = _vectors(obj, "targets", problems)
    directions = _vectors(obj, "directions", problems)
    expect = obj.get("expect")
    if expect is not None and not isinstance(expect, str):
        problems.append("expect: must be a string verdict")
    output_dir = obj.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        problems.append(f"output_dir: must be a path string, got {output_dir!r}")

    if problems:
        raise ConfigInvalid(problems)
    return ExperimentConfig(
        experiment=exp,
        raw=canonical_config_dict(obj),
        spec=spec,
        driver=driver,
        seeds=tuple(int(s) for s in seeds),
        n_max=int(n_max) if n_max else 0,
        checkpoints=tuple(int(c) for c in checkpoints),
        target=target,
        probes=probes,
        window_radius=float(window_radius),
        n_terms=int(n_terms) if n_terms else 0,
        targets=targets,
        directions=directions,
        tolerances=dict(tolerances),
        expect=expect,
        output_dir=output_dir,
    )


def canonical_config_dict(obj: dict) -> dict:
    return json.loads(json.dumps(obj, sort_keys=True))


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigInvalid([f"config file {p} does not exist"])
    try:
        obj = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigInvalid([f"invalid JSON: {e}"]) from e
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
    tol = float(cfg.tolerances.get("final_value", 0.02))
    need = int(cfg.tolerances.get("min_pass_count", len(cfg.seeds)))
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
    tol = float(cfg.tolerances.get("km_tolerance", 0.05))
    args = (cfg.spec, cfg.probes, cfg.window_radius, cfg.n_max, cfg.checkpoints)
    return _merge_per_seed(cfg, [run_km_diagnostics(*args, s, tolerance=tol) for s in cfg.seeds])


def _run_cone_tracking(cfg: ExperimentConfig, out: Path, threads: int) -> tuple[str, dict]:
    return _merge_per_seed(cfg, [cone_tracking(cfg.spec, cfg.n_max, s) for s in cfg.seeds])


def _run_halo(cfg: ExperimentConfig, out: Path, threads: int) -> tuple[str, dict]:
    per_seed = []
    all_ok = True
    for s in cfg.seeds:
        rows = []
        for n in range(1, cfg.n_max + 1):
            a_in, in_halo, r_n = halo_certificate(cfg.spec, n, s)
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
    d = rep.as_dict()
    d["experiment"] = cfg.experiment
    return rep.overall, d


def _run_expansion(cfg: ExperimentConfig, out: Path, threads: int) -> tuple[str, dict]:
    per_seed = []
    for s in cfg.seeds:
        sn = exact_cell_expansion(cfg.spec, cfg.n_max, s)
        (out / f"cells_seed{s}.txt").write_text(format_set_union(sn))
        per_seed.append({"seed": s, "cell_count": len(sn.cells)})
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
        parts = ln.split(",")
        if len(parts) != 4:
            raise SchemaMismatch(f"bad row: {ln!r}")
        try:
            rows.append((parts[0], int(parts[1]), int(parts[2]), float(parts[3])))
        except ValueError as e:
            raise SchemaMismatch(f"bad row: {ln!r}") from e
    if not rows:
        raise SchemaMismatch("no data rows")
    return rows


def _log_ticks(lo: float, hi: float):
    out = []
    e = math.floor(math.log10(lo))
    while 10.0**e <= hi * (1 + 1e-12):
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
    y_floor = (min(pos) / 10.0) if pos else 1e-16
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
        except SchemaMismatch as e:
            print(f"SchemaMismatch: {e}", file=sys.stderr)
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
