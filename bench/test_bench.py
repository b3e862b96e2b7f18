"""Tests of the benchmark itself: reduced-size runs of every workload, the
manifest, and checks that catch outputs planted with small errors.

Run from the repository root: `PYTHONPATH=src python -m pytest bench -q`.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _ops(workload, tmp_path, seed=7):
    return workloads.build(workload, seed, tmp_path / workload, small=True)


def test_manifest_is_benchmark_json():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == run.manifest()
    assert set(run.WORKLOADS) == set(workloads.GENERATORS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_full_size_has_a_tail_of_ten(workload, tmp_path):
    # op_p90_ms needs at least ten operations beyond the 90th percentile
    assert len(workloads.build(workload, 1, tmp_path)) >= 100


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_reduced_traced_run(workload, tmp_path, capsys):
    args = argparse.Namespace(workload=workload, seed=5, seconds=0.0, trace=1, setup_only=False)
    assert run._run(args, tmp_path, small=True) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["correct"] is True
    per_round = len(_ops(workload, tmp_path / "count"))
    assert res["attempted"] == 3 * per_round  # warm-up, untraced and traced rounds
    kept = len(workloads.TWO_POINT_FAULT_CASES) if workload == "cell_algebra" else 0
    assert res["failed"] == 3 * kept
    assert [m for m in res["metrics"]] == [n for n, _, _ in tracer.per_layer_metrics()]
    assert res["metrics"]["cli.run_config.calls"]["value"] > 0 or workload == "distance_queries"


def test_reduced_untraced_run(tmp_path, capsys):
    args = argparse.Namespace(workload="slln_drivers", seed=5, seconds=0.0, trace=0, setup_only=False)
    assert run._run(args, tmp_path, small=True) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["correct"] is True and res["failed"] == 0
    assert sorted(res["metrics"]) == sorted(n for n, _, _ in run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_run_without_program_exits_nonzero(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "slln_drivers",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def _first(ops, prefix):
    return next(op for op in ops if op.name.startswith(prefix))


def _nudge_file(path: Path, old: str, new: str):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_trajectory_value_off_by_1e9_is_caught(tmp_path):
    op = _first(_ops("slln_drivers", tmp_path), "scalar-markov_asym")
    result = op.run()
    op.check(result)
    csv = tmp_path / "slln_drivers" / op.name / "out" / "trajectory.csv"
    last = csv.read_text().splitlines()[-1]
    value = float(last.rsplit(",", 1)[1])
    _nudge_file(csv, last, last.rsplit(",", 1)[0] + f",{value + 1e-9!r}")
    with pytest.raises(oracles.CheckFailed):
        op.check(result)


def test_halo_offset_moved_by_1e9_is_caught(tmp_path):
    op = _first(_ops("cell_algebra", tmp_path), "cell_expansion-needle")
    result = op.run()
    op.check(result)
    cells = next((tmp_path / "cell_algebra" / op.name / "out").glob("cells_seed*.txt"))
    line = next(ln for ln in cells.read_text().splitlines() if "cone" in ln and "v=(0,0)" not in ln)
    x = line.split("v=(")[1].split(",")[0]
    _nudge_file(cells, line, line.replace(f"v=({x},", f"v=({float(x) + 1e-9!r},"))
    with pytest.raises(oracles.CheckFailed):
        op.check(result)


def test_phi_value_off_by_1e9_is_caught(tmp_path):
    op = _first(_ops("slln_drivers", tmp_path), "phi-markov3")
    result = op.run()
    op.check(result)
    csv = tmp_path / "slln_drivers" / op.name / "out" / "phi.csv"
    row = csv.read_text().splitlines()[3]
    n, phi, partial = row.split(",")
    _nudge_file(csv, row, f"{n},{float(phi) + 1e-9!r},{partial}")
    with pytest.raises(oracles.CheckFailed):
        op.check(result)


@pytest.mark.parametrize("prefix", ["hausdorff-d1", "hausdorff-points", "hausdorff-convex_pair",
                                    "point_to_union_distance", "support"])
def test_query_value_off_by_1e9_is_caught(prefix, tmp_path):
    op = _first(_ops("distance_queries", tmp_path), prefix)
    value = op.run()
    op.check(value)
    bad = [v + 1e-9 for v in value] if isinstance(value, list) else value + 1e-9
    with pytest.raises(oracles.CheckFailed):
        op.check(bad)


def test_known_fault_is_the_two_point_dedup(tmp_path):
    ops = [op for op in _ops("cell_algebra", tmp_path) if "two_point" in op.name]
    assert len(ops) == len(workloads.TWO_POINT_FAULT_CASES)
    for op in ops:
        with pytest.raises(oracles.KnownFault):
            op.check(op.run())


def test_windowed_bracket_holds_the_exact_value():
    import numpy as np

    offsets = np.array([[0.0, 0.0], [-0.1, 0.2], [0.3, -0.05]])
    point = np.array([0.05, 0.4])
    lo, hi = oracles.windowed_bracket(offsets, point, 2.0)
    # the exact value: the leftover point is the farthest from the axis segment
    assert lo <= 0.4 <= hi and hi - lo < 1e-3
