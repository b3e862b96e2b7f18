"""Config validation, experiment runs, reproducibility, SVG plotting."""

import copy
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import numpy as np

from randset import cli, mixing, processes
from randset.cli import (
    ConfigInvalid,
    SchemaMismatch,
    bundled_config_names,
    bundled_config_path,
    canonical_config_dict,
    emit_plot,
    load_config,
    main,
    parse_config,
    run_config,
)
from randset.mixing import draw_at


def minimal_cfg(**over):
    cfg = {
        "experiment": "scalar_slln",
        "driver": {"family": "iid", "law": {"kind": "uniform", "low": -1.0, "high": 1.0}},
        "n_max": 1000,
        "checkpoints": [10, 1000],
        "seeds": [1, 2],
        "tolerances": {"final_value": 0.2, "min_pass_count": 2},
        "expect": "converged",
    }
    cfg.update(over)
    return cfg


# ---------------------------------------------------------------------------
# validation


def test_unknown_keys_rejected_and_listed():
    with pytest.raises(ConfigInvalid) as e:
        parse_config(minimal_cfg(bogus=1, another=2))
    msg = str(e.value)
    assert "bogus" in msg and "another" in msg


def test_negative_n_max_names_the_key():
    with pytest.raises(ConfigInvalid) as e:
        parse_config(minimal_cfg(n_max=-5))
    assert "n_max" in str(e.value)


def test_unsorted_checkpoints_rejected():
    with pytest.raises(ConfigInvalid):
        parse_config(minimal_cfg(checkpoints=[100, 10]))


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigInvalid):
        parse_config({"experiment": "banana"})


def test_unknown_law_kind_rejected():
    with pytest.raises(ConfigInvalid):
        parse_config(minimal_cfg(driver={"family": "iid", "law": {"kind": "cauchy"}}))


@pytest.mark.parametrize("name", [None, *bundled_config_names()], ids=lambda name: name or "minimal")
def test_config_round_trip_is_canonical(name):
    raw = json.loads(bundled_config_path(name).read_text()) if name else minimal_cfg()
    cfg = parse_config(raw)
    assert cfg.raw == canonical_config_dict(raw)
    assert parse_config(cfg.raw).raw == cfg.raw
    assert parse_config(cfg.raw) == cfg


@pytest.mark.parametrize(
    "base, over, seed_override, key",
    [
        pytest.param("needle_halo_km.json", {"probes": [["a"]]}, None, "probes", id="probes"),
        pytest.param("needle_halo_km.json", {"window_radius": "x"}, None, "window_radius", id="window_radius"),
        pytest.param("needle_halo_conditions.json", {"targets": [[None]]}, None, "targets", id="targets"),
        pytest.param("needle_halo_conditions.json", {"directions": "x"}, None, "directions", id="directions"),
        pytest.param(None, {"checkpoints": 5}, None, "checkpoints", id="checkpoints"),
        pytest.param(None, {"n_max": True, "checkpoints": [1]}, None, "n_max", id="n_max"),
        pytest.param(None, {"seeds": [True]}, None, "seeds", id="seeds"),
        pytest.param(None, {"tolerances": {"final_value": "x"}}, None, "tolerances", id="tolerances"),
        pytest.param(None, {}, "x", "RANDSET_SEED_OVERRIDE", id="seed_override"),
        pytest.param(None, {"output_dir": 5}, None, "output_dir", id="output_dir"),
        pytest.param(
            None,
            {"driver": {"family": "m_dependent", "m": 2.5, "law": {"kind": "constant", "value": 0.0}}},
            None,
            "driver.m",
            id="m_dependent_m",
        ),
        # configs that once ended in a traceback, a cell budget error or an
        # unbounded allocation
        pytest.param("needle_halo_km.json", {"probes": [[0.0]]}, None, "probes", id="probe_dimension"),
        pytest.param("needle_halo_km.json", {"probes": []}, None, "probes", id="no_probes"),
        pytest.param("needle_halo_km.json", {"probes": [[0.0, 1.0]]}, None, "probes", id="probe_outside_D"),
        pytest.param("needle_halo_km.json", {"window_radius": 2.0}, None, "probes", id="probe_outside_window"),
        pytest.param("needle_halo_conditions.json", {"targets": [[0.0, 1.0]]}, None, "targets", id="target_outside_A"),
        pytest.param("needle_halo_conditions.json", {"directions": [[2.0, 0.0]]}, None, "directions",
                     id="direction_outside_dual_ball"),
        pytest.param("ray_km_failure.json", {"n_max": 1}, None, "n_max", id="cone_tracking_n_max_1"),
        pytest.param("needle_halo_certificate.json", {"family": "random_ray"}, None, "family", id="halo_on_ray"),
        pytest.param("ball_slln.json", {"family": "random_ray"}, None, "family", id="hausdorff_on_ray"),
        pytest.param(
            "ray_km_failure.json",
            {"driver": {"family": "m_dependent", "m": 1, "law": {"kind": "choice", "values": [-1.0, 1.0]}}},
            None,
            "family",
            id="ray_m_dependent_signs",
        ),
        pytest.param(
            "ray_km_failure.json",
            {"driver": {"family": "alternating", "law_even": {"kind": "choice", "values": [-1.0, 1.0]},
                        "law_odd": {"kind": "normal", "mean": 0.0, "sd": 1.0}}},
            None,
            "family",
            id="ray_alternating_normal_odd_law",
        ),
        pytest.param(None, {"driver": None}, None, "driver", id="scalar_null_driver"),
        pytest.param("halo_expansion.json", {"n_max": 40}, None, "n_max", id="halo_expansion_over_budget"),
        pytest.param(
            None,
            {"driver": {"family": "m_dependent", "m": mixing._BLOCK + 1, "law": {"kind": "constant", "value": 0.0}}},
            None,
            "driver.m",
            id="m_over_block",
        ),
        # booleans and non-finite values in numeric fields
        pytest.param(
            "phi_markov_profile.json",
            {"driver": {"family": "finite_markov", "transition": [[0.9, 0.1], [0.1, 0.9]],
                        "stationary": [0.5, 0.5], "emissions": [True, False]}},
            None,
            "driver.emissions",
            id="emissions_bool",
        ),
        pytest.param(
            None,
            {"driver": {"family": "iid", "law": {"kind": "uniform", "low": float("nan"), "high": 1.0}}},
            None,
            "driver.law.low",
            id="law_low_nan",
        ),
        pytest.param(None, {"tolerances": {"final_value": float("nan")}}, None, "tolerances", id="tolerance_nan"),
        *(
            pytest.param(None, {"driver": {"family": "iid", "law": law}}, None, f"driver.law.{key}", id=f"law_{key}")
            for law, key in (
                ({"kind": "uniform", "low": True, "high": 2}, "low"),
                ({"kind": "uniform", "low": 0, "high": False}, "high"),
                ({"kind": "normal", "mean": True, "sd": 1}, "mean"),
                ({"kind": "normal", "mean": 0, "sd": "1"}, "sd"),
                ({"kind": "constant", "value": True}, "value"),
                ({"kind": "choice", "values": [True, 2]}, "values"),
                ({"kind": "choice", "values": [1, 2], "weights": [True, 0]}, "weights"),
            )
        ),
    ],
)
def test_malformed_values_exit_two_with_config_invalid(base, over, seed_override, key, tmp_path, monkeypatch, capsys):
    raw = json.loads(bundled_config_path(base).read_text()) if base else minimal_cfg()
    raw.update(over)
    if seed_override is None:
        monkeypatch.delenv("RANDSET_SEED_OVERRIDE", raising=False)
    else:
        monkeypatch.setenv("RANDSET_SEED_OVERRIDE", seed_override)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"ConfigInvalid: {key}: " in err


@pytest.mark.parametrize("unreadable", ["directory", "not_utf8"])
def test_unreadable_config_file_exits_two(unreadable, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    if unreadable == "directory":
        path.mkdir()
    else:
        path.write_bytes(json.dumps(minimal_cfg(expect="\u00e9"), ensure_ascii=False).encode("latin-1"))
    with pytest.raises(ConfigInvalid):
        load_config(path)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "ConfigInvalid: config file " in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fuzzing from the schema table
#
# Valid configs are drawn from cli's schema table: its rows decide which keys
# an experiment takes and which may be left out, and its experiment rows which
# families and n_max each experiment allows. VALID supplies, per key, values
# that meet the key's check and the experiment's preconditions. Mutants
# replace, delete or add values anywhere in a bundled or drawn config.

SMALL_N = 8  # n_max, and so every cell expansion, stays this small when run
small = st.floats(-2.0, 2.0)


def law_mean(law):
    return cli._law(law).mean


LAWS = {
    "uniform": st.builds(lambda a, w: {"kind": "uniform", "low": a, "high": a + w}, small, st.floats(0.0, 2.0)),
    "normal": st.builds(lambda m, sd: {"kind": "normal", "mean": m, "sd": sd}, small, st.floats(0.0, 1.0)),
    "constant": st.builds(lambda c: {"kind": "constant", "value": c}, small),
    "choice": st.lists(small, min_size=1, max_size=3).map(lambda vs: {"kind": "choice", "values": vs}),
}
laws = st.one_of(*(LAWS[kind] for kind in cli._LAWS))


@st.composite
def markov(draw, emissions=small):
    s = draw(st.integers(1, 3))
    W = np.array(draw(st.lists(st.lists(st.integers(0, 9), min_size=s, max_size=s), min_size=s, max_size=s)))
    P = (W + np.eye(s)) / (W + np.eye(s)).sum(axis=1, keepdims=True)
    pi = np.linalg.lstsq(np.vstack([P.T - np.eye(s), np.ones(s)]), np.r_[np.zeros(s), 1.0], rcond=None)[0]
    return {"family": "finite_markov", "transition": P.tolist(), "stationary": pi.tolist(),
            "emissions": draw(st.lists(emissions, min_size=s, max_size=s))}


DRIVERS = {
    "iid": st.builds(lambda law: {"family": "iid", "law": law}, laws),
    "m_dependent": st.builds(lambda m, law: {"family": "m_dependent", "m": m, "law": law}, st.integers(1, 3), laws),
    "finite_markov": markov(),
    "alternating": st.builds(
        lambda even, sd: {"family": "alternating", "law_even": even,
                          "law_odd": {"kind": "normal", "mean": law_mean(even), "sd": sd}},
        laws, st.floats(0.0, 1.0)),
}
drivers = st.one_of(*(DRIVERS[family] for family in cli._DRIVERS))
signs = st.sampled_from([-1.0, 1.0])
SIGN_DRIVERS = st.none() | markov(signs) | st.lists(signs, min_size=1, max_size=2).map(
    lambda vs: {"family": "iid", "law": {"kind": "choice", "values": vs}})


def family_driver(family):
    if family == "needle_halo":
        return st.none()
    if family == "random_ray":
        return SIGN_DRIVERS
    if family == "random_ball":
        return drivers.filter(lambda d: cli._scalar_driver(d).mean >= 0)
    return drivers


def mean(cfg):
    return cli._scalar_driver(cfg["driver"]).mean


def on_ray(n):
    return st.lists(st.floats(0.0, 3.0).map(lambda x: [x, 0.0]), min_size=n, max_size=3)


def probes(exp, family, cfg):
    if family in ("needle_halo", "random_ray"):
        return on_ray(1)
    if family == "random_ball":
        return st.floats(0.0, 1.0).map(lambda t: [[t * mean(cfg), 0.0]])
    return st.lists(st.floats(0.0, 1.0).map(lambda t: [mean(cfg) + t]), min_size=1, max_size=3)


def targets(exp, family, cfg):
    if family in ("needle_halo", "random_ray"):
        return on_ray(0)
    if family == "random_ball":
        return st.just([])  # selections are not defined for random balls
    if family == "two_point":
        return st.lists(st.sampled_from([0.0, 1.0]).map(lambda t: [mean(cfg) + t]), max_size=2)
    return st.lists(st.floats(0.0, 1.0).map(lambda t: [mean(cfg) + t]), max_size=2)


def directions(exp, family, cfg):
    if family in ("segment", "two_point"):
        return st.lists(st.floats(-1.0, 1.0).map(lambda u: [u]), max_size=3)
    polar = st.tuples(st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))
    return st.lists(polar.map(lambda ra: [ra[0] * math.cos(ra[1]), ra[0] * math.sin(ra[1])]), max_size=3)


def n_max(exp, family, cfg):
    lo, hi = cli._EXPERIMENTS[exp][family] if family else cli._ANY_N
    return st.integers(lo, min(hi, SMALL_N))


def tolerances(exp, family, cfg):
    values = {"final_value": st.floats(0.0, 1.0), "min_pass_count": st.none() | st.integers(0, 2),
              "km_tolerance": st.floats(0.0, 1.0)}
    taken = [k for k, key in cli._TOLERANCE_KEYS.items() if exp in key.kinds]
    return st.fixed_dictionaries({}, optional={k: values[k] for k in taken})


VALID = {
    "experiment": lambda exp, family, cfg: st.just(exp),
    "driver": lambda exp, family, cfg: family_driver(family) if family else drivers,
    "family": lambda exp, family, cfg: st.just(family),
    "n_max": n_max,
    "checkpoints": lambda exp, family, cfg: st.lists(st.integers(1, cfg["n_max"]), min_size=1, max_size=4).map(
        lambda cps: sorted(set(cps))),
    "target": lambda exp, family, cfg: st.sampled_from(["A", "coA"]),
    "window_radius": lambda exp, family, cfg: st.floats(3.5, 10.0),
    "probes": probes,
    "n_terms": lambda exp, family, cfg: st.integers(10, 30),
    "targets": targets,
    "directions": directions,
    "seeds": lambda exp, family, cfg: st.lists(st.integers(0, 2**40), min_size=1, max_size=2),
    "tolerances": tolerances,
    "expect": lambda exp, family, cfg: st.none() | st.text(max_size=8),
    "output_dir": lambda exp, family, cfg: st.none() | st.just("unused"),
}


@st.composite
def table_configs(draw):
    exp = draw(st.sampled_from(cli.EXPERIMENTS))
    families = cli._EXPERIMENTS[exp]
    family = draw(st.sampled_from(sorted(families))) if families else None
    cfg = {}
    # a bare-driver experiment needs its driver, and so does a bounded family
    required = {"driver"} if family in (None, "segment", "two_point", "random_ball") else set()
    for name, key in cli._CONFIG_KEYS.items():
        if exp in key.kinds and (key.default is cli._REQUIRED or name in required or draw(st.booleans())):
            cfg[name] = draw(VALID[name](exp, family, cfg))
    return cfg


def shrink(cfg):
    """A bundled config at sizes that run in milliseconds."""
    cfg = dict(cfg, seeds=cfg.get("seeds", [1])[:2])
    if "n_max" in cfg:
        cfg["n_max"] = min(cfg["n_max"], SMALL_N)
    if "checkpoints" in cfg:
        cfg["checkpoints"] = [c for c in cfg["checkpoints"] if c <= cfg["n_max"]] or [cfg["n_max"]]
    return cfg


BUNDLED = [json.loads(bundled_config_path(name).read_text()) for name in bundled_config_names()]
KEY_NAMES = sorted({*cli._CONFIG_KEYS, *cli._DRIVER_KEYS, *cli._LAW_KEYS, *cli._TOLERANCE_KEYS, "kind"})
NAMES = sorted({*cli.EXPERIMENTS, *processes.FAMILIES, *cli._DRIVERS, *cli._LAWS, "A", "coA"})


def json_values(ints):
    leaves = st.none() | st.booleans() | ints | st.floats() | st.text(max_size=4) | st.sampled_from(NAMES)
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEY_NAMES), inner, max_size=3),
        max_leaves=6,
    )


def containers(x):
    """x and every dict or list inside it."""
    yield x
    for v in x.values() if isinstance(x, dict) else x:
        if isinstance(v, (dict, list)):
            yield from containers(v)


@st.composite
def mutants(draw, bases, values):
    cfg = copy.deepcopy(draw(bases))
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(list(containers(cfg))))
        slots = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = draw(st.sampled_from(["replace", "delete", "add"])) if slots else "add"
        if op == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(KEY_NAMES))] = draw(values)
        elif op == "add":
            node.append(draw(values))
        elif op == "delete":
            del node[draw(st.sampled_from(slots))]
        else:
            node[draw(st.sampled_from(slots))] = draw(values)
    return cfg


def run_main(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        return main(["run", path, "--out", os.path.join(tmp, "out")])


FUZZ = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])


def test_valid_values_cover_the_table():
    assert set(VALID) == set(cli._CONFIG_KEYS)
    assert set(LAWS) == set(cli._LAWS) and set(DRIVERS) == set(cli._DRIVERS)


@settings(FUZZ, max_examples=60)
@given(cfg=table_configs())
def test_table_configs_parse_and_run(cfg, monkeypatch):
    monkeypatch.delenv("RANDSET_SEED_OVERRIDE", raising=False)
    parse_config(cfg)
    assert run_main(cfg) in (0, 1)


@settings(FUZZ, max_examples=150)
@given(cfg=mutants(st.sampled_from([shrink(c) for c in BUNDLED]) | table_configs(), json_values(st.integers(-2, 9))))
def test_mutated_configs_exit_two_exactly_when_invalid(cfg, monkeypatch):
    monkeypatch.delenv("RANDSET_SEED_OVERRIDE", raising=False)
    try:
        parse_config(cfg)
        valid = True
    except ConfigInvalid:
        valid = False
    assert run_main(cfg) in ((0, 1) if valid else (2,))


@settings(FUZZ, max_examples=300)
@given(cfg=mutants(st.sampled_from(BUNDLED) | table_configs(), json_values(st.integers())) | json_values(st.integers()))
@example(cfg={"experiment": "phi_profile", "n_terms": 10,
              "driver": {"family": "m_dependent", "m": 10**9, "law": {"kind": "constant", "value": 0.0}}})
def test_any_json_config_parses_or_raises_config_invalid(cfg, monkeypatch):
    # parse only: a config that slipped through could ask for any size
    monkeypatch.delenv("RANDSET_SEED_OVERRIDE", raising=False)
    try:
        parse_config(cfg)
    except ConfigInvalid as e:
        assert e.problems


# ---------------------------------------------------------------------------
# running configs


def test_run_minimal_scalar(tmp_path):
    cfg = parse_config(minimal_cfg())
    code, summary = run_config(cfg, tmp_path)
    assert code == 0 and "converged" in summary
    assert (tmp_path / "trajectory.csv").exists()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "converged"


def test_expect_mismatch_exits_one(tmp_path):
    cfg = parse_config(minimal_cfg(expect="not_converged"))
    code, _ = run_config(cfg, tmp_path)
    assert code == 1


def test_bundled_configs_exist():
    names = bundled_config_names()
    assert "needle_halo_certificate.json" in names
    assert "ray_km_failure.json" in names
    assert len(names) >= 10


@pytest.mark.parametrize(
    "name",
    ["needle_halo_conditions.json", "ray_conditions.json", "phi_markov_profile.json", "halo_expansion.json"],
)
def test_fast_bundled_configs_pass(name, tmp_path):
    cfg = load_config(bundled_config_path(name))
    code, _ = run_config(cfg, tmp_path)
    assert code == 0


def test_seed_override_env(tmp_path, monkeypatch):
    monkeypatch.setenv("RANDSET_SEED_OVERRIDE", "123")
    cfg = parse_config(minimal_cfg())
    assert cfg.seeds == (123,)


def test_threads_flag_matches_serial(tmp_path):
    asym = {"family": "finite_markov", "transition": [[0.9, 0.1], [0.3, 0.7]],
            "stationary": [0.75, 0.25], "emissions": [-1.0, 3.0]}
    markov = {"driver": asym, "n_max": 5000, "checkpoints": [10, 3000, 5000]}
    for name, over in (("iid", {}), ("markov", markov)):
        cfg = parse_config(minimal_cfg(seeds=[1, 2, 3, 4], **over))
        mixing._kept_chain.cache_clear()
        if over:
            # forked workers inherit kept chain states for seeds 1 and 3 only
            for seed in (1, 3):
                draw_at(cfg.driver, 2500, seed)
        run_config(cfg, tmp_path / name / "parallel", threads=2)
        mixing._kept_chain.cache_clear()
        run_config(cfg, tmp_path / name / "serial", threads=1)
        assert (tmp_path / name / "serial" / "trajectory.csv").read_bytes() == (
            tmp_path / name / "parallel" / "trajectory.csv"
        ).read_bytes()


def test_threads_clamped_to_seeds_and_cpus(tmp_path, monkeypatch):
    sizes = []

    class RecordingPool:
        """Records max_workers and maps serially; starts no process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(minimal_cfg(seeds=[1, 2, 3])))
    for cpus in (8, 2, 1, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert main(["run", str(path), "--out", str(tmp_path / f"cpus{cpus}"), "--threads", "5000"]) == 0
    # three seeds cap the pool at 3; one CPU, or an unknown count, runs serially
    assert sizes == [3, 2]
    main(["run", str(path), "--out", str(tmp_path / "serial")])
    want = (tmp_path / "serial" / "trajectory.csv").read_bytes()
    for cpus in (8, 2, 1, None):
        assert (tmp_path / f"cpus{cpus}" / "trajectory.csv").read_bytes() == want


def test_main_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(minimal_cfg(n_max=-1)))
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
    good = tmp_path / "good.json"
    good.write_text(json.dumps(minimal_cfg()))
    assert main(["run", str(good), "--out", str(tmp_path / "o2")]) == 0


def test_ball_with_unknown_clamped_mean_exits_two(tmp_path):
    cfg = tmp_path / "ball.json"
    driver = {"family": "m_dependent", "m": 2, "law": {"kind": "uniform", "low": -1.0, "high": 3.0}}
    cfg.write_text(json.dumps(minimal_cfg(experiment="hausdorff_slln", family="random_ball", target="coA",
                                          driver=driver)))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_main_resolves_bundled_names(tmp_path):
    assert main(["run", "phi_markov_profile", "--out", str(tmp_path)]) == 0


# ---------------------------------------------------------------------------
# plotting


def write_csv(path, rows):
    path.write_text("\n".join(["metric,seed,n,value"] + rows) + "\n")


def test_plot_single_point_marker(tmp_path):
    csv = tmp_path / "t.csv"
    write_csv(csv, ["m,1,100,0.5"])
    out = tmp_path / "t.svg"
    assert emit_plot(csv, out) == 0
    svg = out.read_text()
    assert svg.count("<circle") == 1 and "<polyline" not in svg
    assert 'viewBox="0 0 800 500"' in svg


def test_plot_polyline_per_seed(tmp_path):
    rows = [f"m,{s},{n},{0.1 / s / n}" for s in range(1, 21) for n in (10, 100, 1000)]
    csv = tmp_path / "t.csv"
    write_csv(csv, rows)
    out = tmp_path / "t.svg"
    assert emit_plot(csv, out) == 0
    assert out.read_text().count("<polyline") == 20


def test_plot_empty_csv_schema_mismatch(tmp_path):
    csv = tmp_path / "t.csv"
    write_csv(csv, [])
    with pytest.raises(SchemaMismatch):
        emit_plot(csv, tmp_path / "t.svg")
    assert main(["plot", str(csv), str(tmp_path / "t.svg")]) == 2


def test_plot_bad_header_schema_mismatch(tmp_path):
    csv = tmp_path / "t.csv"
    csv.write_text("wrong,header\n1,2\n")
    with pytest.raises(SchemaMismatch):
        emit_plot(csv, tmp_path / "t.svg")


def test_plot_handles_zero_values(tmp_path):
    csv = tmp_path / "t.csv"
    write_csv(csv, ["m,1,10,0.0", "m,1,100,0.5"])
    assert emit_plot(csv, tmp_path / "t.svg") == 0


def test_plot_deterministic_bytes(tmp_path):
    rows = [f"m,{s},{n},{0.3 / n}" for s in (1, 2) for n in (10, 100)]
    csv = tmp_path / "t.csv"
    write_csv(csv, rows)
    emit_plot(csv, tmp_path / "a.svg")
    emit_plot(csv, tmp_path / "b.svg")
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


@pytest.mark.parametrize("row", ["m,1,0,0.5", "m,1,-3,0.5", "m,1,10,inf", "m,1,10,nan", "m,1,10,1e400",
                                 pytest.param("m,1,1" + "0" * 400 + ",0.5", id="n_past_float_max")])
def test_plot_rows_off_the_log_axes_schema_mismatch(row, tmp_path):
    csv = tmp_path / "t.csv"
    write_csv(csv, ["m,1,1,0.5", row])
    with pytest.raises(SchemaMismatch):
        emit_plot(csv, tmp_path / "t.svg")
    assert main(["plot", str(csv), str(tmp_path / "t.svg")]) == 2


@pytest.mark.parametrize("rows", [["m,1,1,0.5", "m,1,10,1e308"], ["m,1,1,5e-324", "m,1,10,0.5"],
                                  ["m,1,1,1.7976931348623157e308"], ["m,1,1,5e-324"]])
def test_plot_renders_extreme_finite_values(rows, tmp_path):
    csv = tmp_path / "t.csv"
    write_csv(csv, rows)
    assert main(["plot", str(csv), str(tmp_path / "t.svg")]) == 0
    svg = (tmp_path / "t.svg").read_text()
    assert svg.endswith("</svg>\n") and "nan" not in svg and "inf" not in svg


def test_plot_missing_csv_exits_two(tmp_path, capsys):
    assert main(["plot", str(tmp_path / "missing.csv"), str(tmp_path / "t.svg")]) == 2
    assert "FileNotFoundError" in capsys.readouterr().err
