"""Golden bytes: every file each bundled config writes, and the cells files of
some expansions beyond them, pinned by SHA-256.

Each bundled config is run once through `run_config`; when it writes a
trajectory CSV, `plot.svg` is rendered from it with `emit_plot`. The set of
files written and the SHA-256 of each must match the table below, 21 files
over the 11 bundled configs.

The hashes were taken with numpy 2.4.6 and scipy 1.17.1 on CPython 3.11. A
different numpy may move the last bit of a float and so a hash. scipy computes
only a normal law's quantiles and clamped mean, so of the 21 files only the
three `ball_slln` hashes depend on scipy's version, and of the expansions
below only `two_point_iid_normal`. A change that means to alter an output
re-pins its hash here and says why in CHANGES.md.
"""

import hashlib

import pytest

from randset.cli import bundled_config_names, bundled_config_path, emit_plot, load_config, run_config
from randset.experiments import exact_cell_expansion
from randset.geometry import CellBudgetExceeded, format_set_union
from randset.mixing import Law, iid_driver, markov_driver
from randset.processes import needle_halo_process, ray_process, two_point_process

GOLDEN = {
    "ball_slln/plot.svg": "f56e21905b1392edd48c142642eb227deaddbd6d0d53708e77a9e131b9d71d45",
    "ball_slln/report.json": "7d2c0c03d7a3081a9b77896b242ae088f5d1ce52b4eeab34e86c457d6cbefccb",
    "ball_slln/trajectory.csv": "aa5cae0dc0d412ed9c2de3a2d90d1cc7927badc04dd80fa7eed78f15c661a99f",
    "halo_expansion/cells_seed1.txt": "d2c48346e45ae7214a860520103d9399aa1abf44522688c7e23fb8d050ae9833",
    "halo_expansion/report.json": "79de53a833d94087e877529ce9824f9ad0bdf34474641b1a5d5d451dd3dcdae1",
    "needle_halo_certificate/report.json": "eaa7b9f50c680e1dfeda1fef37f91ea8dc9f3a8eef44f3a3784cb7202c11ad8f",
    "needle_halo_conditions/report.json": "cb1329f87731129bf6539b9a6724de0511cb7d185a655071089be39972ee1eaa",
    "needle_halo_km/report.json": "2d84605803d070fb858104027e1203843ae79fe7d9bd27ea043793adf5fa6980",
    "phi_markov_profile/phi.csv": "f9e28a65cae6ba0983eb81b1f935ad3f39e77c6a081194f2c2547e6233217e06",
    "phi_markov_profile/report.json": "e36a520dcb6c6836e1fd262ff79f3bf54b507d4699e66be83297a81c9243cd11",
    "ray_conditions/report.json": "6be1eb0840e3666ea2adff073de58b799d24d7032cc6989ff7344593d9429d1b",
    "ray_km_failure/report.json": "0c65f92bc1617788e2faffcf0126eea6a039c24149122c67ba0098f796613560",
    "scalar_slln_markov/plot.svg": "0c6311591e8432ea04aed717d380cc78d91864571e93439d8c6b003c53af9e5d",
    "scalar_slln_markov/report.json": "9cecb39493224245eb84d0845b883838673aea0446ea68a8431ad36d53e1c51c",
    "scalar_slln_markov/trajectory.csv": "385686c3a4650fe2780e295678b3a4c6f19b73c297fbc0fbf32122b99719b0e1",
    "segment_slln/plot.svg": "52660d24ee56922c3bf933578d73bcc795e3142e1a603b65b2b8237e8ea1c59b",
    "segment_slln/report.json": "c41eead8e798316a3799502a40b3bfd5c8a8c230f8d2df806d9b5cbddaec6cbb",
    "segment_slln/trajectory.csv": "e8dbb1fb2230a81d590d034cce3f1f5c59c6f83fdccc558386e945f78ccd4714",
    "two_point_slln/plot.svg": "dd0f4b6825d6c4fa8f830e371e937b58f3353d879f659825b13825d5c1199b3c",
    "two_point_slln/report.json": "af0dc684acd5f42e718086557c5b7b280a2c6a1d3513554b98114ce03fa40584",
    "two_point_slln/trajectory.csv": "c147a1aeed6703b049dcbbf3dcd5fa4ffa9ebad204a8c14a3a4b71b394a97cad",
}


def test_golden_table_covers_every_bundled_config():
    assert sorted({k.split("/")[0] for k in GOLDEN}) == [n[: -len(".json")] for n in bundled_config_names()]


@pytest.mark.parametrize("name", bundled_config_names())
def test_bundled_config_output_bytes(name, tmp_path):
    stem = name[: -len(".json")]
    out = tmp_path / stem
    run_config(load_config(bundled_config_path(name)), out)
    if (out / "trajectory.csv").exists():
        emit_plot(out / "trajectory.csv", out / "plot.svg")
    got = {f"{stem}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}
    want = {k: v for k, v in GOLDEN.items() if k.startswith(stem + "/")}
    assert got == want


# ---------------------------------------------------------------------------
# Cells-file bytes of expansions beyond the bundled configs, pinned by SHA-256
# of `format_set_union(exact_cell_expansion(spec, n, seed))`.
#
# The `two_point` hashes pin today's exact-value dedup, a known fault, not a
# verified answer: with the iid normal driver, S_25 at seed 1 has 62 point
# cells where the lattice has 26, because 36 of them lie within 1e-12 (down
# to 5.6e-17) of a neighbour. The d = 1 tolerance dedup will change these
# bytes and re-pin them with that reason.

MK_ASYM = markov_driver([[0.7, 0.3], [0.1, 0.9]], [0.25, 0.75], [-0.5, 1.25])
EXPANSIONS = {
    "needle_halo-5-1": (needle_halo_process(), 5, 1, "a0a38ebfd373188b11c06f516c2d30c62571fdc252b2d18a258bbac828e3b7f2"),
    "needle_halo-5-2": (needle_halo_process(), 5, 2, "03239799779ecc008d7840abba2f6589487a6fe9a08e6306c719a8cf00c5d804"),
    "needle_halo-12-1": (needle_halo_process(), 12, 1, "76a7a63b12e31e7a3aff36ed2b891f3fdcc2aaa986040b89c5a0084c691ec4f4"),
    "needle_halo-12-2": (needle_halo_process(), 12, 2, "e8b455abadd0b94a8b3d95e9c58b1f4ff8e34c7732dce9c0c14add5b14f097fb"),
    "needle_halo-16-1": (needle_halo_process(), 16, 1, "ac66cde1292e9985ee19709b24d02d7fe0f6fe4f4d3f1701777da599c9c71fa5"),
    "needle_halo-16-2": (needle_halo_process(), 16, 2, "ba2299191362fbc8efe5257cf8de7b043120c22073f9cec12667830e9540a7fd"),
    "two_point_iid_normal-25-1": (two_point_process(iid_driver(Law.normal(0.3, 1.0))), 25, 1,
                                  "d853c0b15b7eed062a90987fb2911580b6697925734637e9f3e9be6391709c3c"),
    "two_point_markov_asym-25-1": (two_point_process(MK_ASYM), 25, 1,
                                   "6515a4f63bb7aff5e3cba696463b4ba4788ad913e3bcd7c828c643c6cbf3ccd6"),
    "random_ray-10-1": (ray_process(), 10, 1, "95d7f0b9196ac0c01825f39844f5e09b099a16c5cf9ac82006e00a280d774084"),
}


@pytest.mark.parametrize("name", sorted(EXPANSIONS))
def test_expansion_cell_bytes(name):
    spec, n, seed, want = EXPANSIONS[name]
    text = format_set_union(exact_cell_expansion(spec, n, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == want


@pytest.mark.parametrize("budget, first_n", [(2**8, 9), (2**12, 13)])
def test_cell_budget_stops_the_halo_expansion_at_the_same_n(budget, first_n):
    exact_cell_expansion(needle_halo_process(), first_n - 1, 1, cell_budget=budget)
    with pytest.raises(CellBudgetExceeded):
        exact_cell_expansion(needle_halo_process(), first_n, 1, cell_budget=budget)
