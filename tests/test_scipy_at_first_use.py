"""scipy is loaded only by normal laws, at their first use.

`mixing.Law.quantile` imports `scipy.special.ndtri` inside its normal branch,
and `processes._clamped_law_mean` imports `ndtr` inside its normal branch. So
each check here runs in a fresh interpreter, where nothing has loaded scipy
yet: a run without a normal law must finish without loading it, the lazy path
must give scipy's own floats bit for bit, and forked workers whose parent never
loaded scipy must import it themselves and write the serial bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import randset

ENV = {**os.environ, "PYTHONPATH": str(Path(randset.__file__).parents[1])}
SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def run_fresh(code: str, cwd: Path) -> str:
    return subprocess.run(
        [sys.executable, "-c", code], env=ENV, cwd=cwd, capture_output=True, text=True, check=True
    ).stdout


@pytest.mark.parametrize("name", ["phi_markov_profile", "needle_halo_conditions", "ray_conditions"])
def test_bundled_config_without_a_normal_law_loads_no_scipy(name, tmp_path):
    code = (
        "import sys\n"
        "from randset import cli\n"
        f"code = cli.main(['run', {name!r}, '--out', 'out'])\n"
        f"print(code, {SCIPY_MODULES})\n"
    )
    assert run_fresh(code, tmp_path).splitlines()[-1] == "0 []"


def test_lazy_normal_law_gives_scipys_floats(tmp_path):
    code = (
        "import json, math, sys\n"
        "import numpy as np\n"
        "from randset.mixing import Law, iid_driver\n"
        "from randset.processes import clamped_mean\n"
        f"before = {SCIPY_MODULES}\n"
        "u = np.array([2.0**-54, 1e-300, 0.025, 0.5, 0.975, 1 - 2.0**-53])\n"
        "lazy = Law.normal(1.0, 0.1).quantile(u)\n"
        "mean = clamped_mean(iid_driver(Law.normal(0.2, 0.5)))\n"
        "from scipy.special import ndtr, ndtri\n"
        "mu, sigma = 0.2, 0.5\n"
        "z = mu / sigma\n"
        "want = float(mu * ndtr(z)) + sigma * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)\n"
        "print(json.dumps({'before': before,\n"
        "                  'quantile': [x.hex() for x in lazy.tolist()],\n"
        "                  'scipy': [x.hex() for x in (1.0 + 0.1 * ndtri(u)).tolist()],\n"
        "                  'mean': mean.hex(), 'want': want.hex()}))\n"
    )
    got = json.loads(run_fresh(code, tmp_path))
    assert got["before"] == []
    assert got["quantile"] == got["scipy"]
    assert got["mean"] == got["want"]


BALL = {
    "experiment": "hausdorff_slln",
    "family": "random_ball",
    "driver": {
        "family": "alternating",
        "law_even": {"kind": "uniform", "low": 0.9, "high": 1.1},
        "law_odd": {"kind": "normal", "mean": 1.0, "sd": 0.1},
    },
    "target": "coA",
    "n_max": 2000,
    "checkpoints": [100, 1000, 2000],
    "seeds": [1, 2, 3, 4],
    "tolerances": {"final_value": 1.0},
}
# no clamped mean is taken, so the parent draws no normal and loads no scipy
SEGMENT = {**BALL, "family": "segment", "driver": {"family": "iid", "law": BALL["driver"]["law_odd"]}}


@pytest.mark.parametrize("cfg", [BALL, SEGMENT], ids=["random_ball", "segment"])
def test_threads_with_a_normal_law_match_serial_in_a_fresh_process(cfg, tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    outs = {}
    for threads in (2, 1):
        code = (
            "import sys\n"
            "from randset import cli\n"
            f"code = cli.main(['run', 'cfg.json', '--out', 'threads{threads}', '--threads', '{threads}'])\n"
            f"print(code, 'scipy.special' in sys.modules)\n"
        )
        outs[threads] = run_fresh(code, tmp_path).splitlines()[-1]
    # the ball's clamped mean loads scipy in the parent; a one-CPU machine runs serially
    parent_loads_scipy = cfg is BALL or (os.cpu_count() or 1) < 2
    assert outs[2] == f"0 {parent_loads_scipy}"
    assert (tmp_path / "threads2" / "trajectory.csv").read_bytes() == (
        tmp_path / "threads1" / "trajectory.csv"
    ).read_bytes()
