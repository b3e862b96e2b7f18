"""Config validation, experiment runs, reproducibility, SVG plotting."""

import json
import os
import subprocess
import sys

import pytest

from randset import cli
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


def test_config_round_trip_is_canonical():
    raw = minimal_cfg()
    cfg = parse_config(raw)
    assert cfg.raw == canonical_config_dict(raw)
    assert parse_config(cfg.raw).raw == cfg.raw


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
    cfg = parse_config(minimal_cfg(seeds=[1, 2, 3, 4]))
    run_config(cfg, tmp_path / "serial", threads=1)
    run_config(cfg, tmp_path / "parallel", threads=2)
    assert (tmp_path / "serial" / "trajectory.csv").read_bytes() == (
        tmp_path / "parallel" / "trajectory.csv"
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
