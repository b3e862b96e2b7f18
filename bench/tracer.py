"""Timing wrappers around the public functions of `randset`, and the per-layer
metrics derived from them.

`Tracer.install` replaces each traced function by a wrapper, under its name in
the module that defines it and in every `randset` module that imported it.
Every wrapper keeps calls, busy time and self time (busy time minus the time
of traced calls made inside it) on a call stack. Functions called once per
cell or per index (`LEAVES`) are only aggregated; the others also record one
span per call, tied to the operation that caused it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

TRACED = {
    "rng": ("uniform_block", "unit_disk_point"),
    "mixing": ("checkpoint_means", "draw_sequence", "draw_at", "phi_exact_markov", "phi_brute_force"),
    "processes": ("sample_set", "support_process", "selection"),
    "geometry": (
        "minkowski_sum", "union_of", "poly_cell", "scale", "format_set_union", "support",
        "hausdorff", "hausdorff_via_support", "hausdorff_windowed",
        "point_to_union_distance", "point_to_cell_distance",
    ),
    "experiments": (
        "run_hausdorff_slln", "exact_cell_expansion", "halo_certificate",
        "run_km_diagnostics", "cone_tracking", "slln_hypotheses_report",
    ),
    "cli": ("load_config", "run_config"),
}

LEAVES = {
    "rng.uniform_block", "rng.unit_disk_point", "mixing.draw_at", "mixing.phi_exact_markov",
    "processes.sample_set", "processes.selection", "geometry.union_of", "geometry.poly_cell",
    "geometry.support", "geometry.point_to_cell_distance",
}

DRIVER_CLASSES = ("iid", "m_dependent", "alternating", "markov_sym", "markov_asym")
HAUSDORFF_PATHS = ("d1", "points", "convex_pair")

# (name, unit, better) of every metric that is not calls / busy_s / self_s
DERIVED = (
    [("rng.uniform_block.draws", "count", "lower"), ("rng.draws_per_s", "1/s", "higher")]
    + [(f"mixing.draws_per_s.{c}", "1/s", "higher") for c in DRIVER_CLASSES]
    + [
        ("mixing.draw_at.us_per_call", "us", "lower"),
        ("geometry.minkowski_sum.cells_in", "count", "lower"),
        ("geometry.minkowski_sum.cells_out", "count", "lower"),
        ("geometry.minkowski_sum.dedup_ratio", "ratio", "lower"),
        ("geometry.minkowski_sum.cells_per_s", "1/s", "higher"),
    ]
    + [(f"geometry.hausdorff.busy_s.{p}", "s", "lower") for p in HAUSDORFF_PATHS]
    + [
        ("geometry.hausdorff_via_support.directions_per_s", "1/s", "higher"),
        ("experiments.expansion_steps", "count", "lower"),
        ("experiments.prefix_reuse_ratio", "ratio", "higher"),
        ("cli.bytes_written", "bytes", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    out = []
    for mod, names in TRACED.items():
        for fn in names:
            q = f"{mod}.{fn}"
            out += [(f"{q}.calls", "count", "lower"), (f"{q}.busy_s", "s", "lower"), (f"{q}.self_s", "s", "lower")]
    return out + DERIVED


def driver_class(driver) -> str:
    if driver.family != "finite_markov":
        return driver.family
    P = driver.transition
    # the same test the driver uses to pick its vectorized symmetric path
    if len(P) == 2 and abs(P[0][1] - P[1][0]) <= 1e-15:
        return "markov_sym"
    return "markov_asym"


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _hausdorff_path(a) -> str:
    if a.dim == 1:
        return "d1"
    if all(c.is_point for c in a.cells):
        return "points"
    return "convex_pair"


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stack: list[list] = []  # [child busy time, span id] per open call
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, busy, self
        self.counts = defaultdict(float)
        self.prefixes: set = set()
        self.spans: list[tuple] = []
        self.op_index = -1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {k: m for k, m in sys.modules.items() if k == "randset" or k.startswith("randset.")}
        for mod_name, names in TRACED.items():
            home = mods[f"randset.{mod_name}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in mods.values():
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, qual: str, fn):
        tracer = self
        leaf = qual in LEAVES
        hook = _HOOKS.get(qual)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1][1] if stack else None
            span_id = parent if leaf else len(tracer.spans)
            if not leaf:
                tracer.spans.append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                busy = t1 - t0
                st = tracer.stats[qual]
                st[0] += 1
                st[1] += busy
                st[2] += busy - frame[0]
                if stack:
                    stack[-1][0] += busy
                if not leaf:
                    tracer.spans[span_id] = (span_id, parent, tracer.op_index, qual, t0, t1)
            if hook is not None:
                hook(tracer, args, kwargs, result, busy)
            return result

        return wrapper

    # -- operations ----------------------------------------------------------

    def begin_op(self, index: int, name: str) -> None:
        self.op_index = index
        span_id = len(self.spans)
        self.spans.append((span_id, None, index, f"op:{name}", time.perf_counter(), None))
        self.stack = [[0.0, span_id]]

    def end_op(self) -> None:
        sid, parent, idx, name, t0, _ = self.spans[self.stack[0][1]]
        self.spans[sid] = (sid, parent, idx, name, t0, time.perf_counter())
        self.stack = []

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced since the last reset."""
        out: dict[str, float] = {}
        for mod, names in TRACED.items():
            for fn in names:
                q = f"{mod}.{fn}"
                calls, busy, self_t = self.stats.get(q, (0, 0.0, 0.0))
                out[f"{q}.calls"] = calls
                out[f"{q}.busy_s"] = busy
                out[f"{q}.self_s"] = max(self_t, 0.0)
        c = self.counts
        ub = self.stats.get("rng.uniform_block", (0, 0.0, 0.0))[1]
        out["rng.uniform_block.draws"] = int(c["draws"])
        out["rng.draws_per_s"] = _rate(c["draws"], ub)
        for cls in DRIVER_CLASSES:
            out[f"mixing.draws_per_s.{cls}"] = _rate(c[f"driver_draws.{cls}"], c[f"driver_busy.{cls}"])
        calls, busy, _ = self.stats.get("mixing.draw_at", (0, 0.0, 0.0))
        out["mixing.draw_at.us_per_call"] = 1e6 * busy / calls if calls else 0.0
        mk_busy = self.stats.get("geometry.minkowski_sum", (0, 0.0, 0.0))[1]
        out["geometry.minkowski_sum.cells_in"] = int(c["cells_in"])
        out["geometry.minkowski_sum.cells_out"] = int(c["cells_out"])
        out["geometry.minkowski_sum.dedup_ratio"] = c["cells_out"] / c["cells_in"] if c["cells_in"] else 0.0
        out["geometry.minkowski_sum.cells_per_s"] = _rate(c["cells_in"], mk_busy)
        for p in HAUSDORFF_PATHS:
            out[f"geometry.hausdorff.busy_s.{p}"] = c[f"hausdorff.{p}"]
        hv_busy = self.stats.get("geometry.hausdorff_via_support", (0, 0.0, 0.0))[1]
        out["geometry.hausdorff_via_support.directions_per_s"] = _rate(c["directions"], hv_busy)
        out["experiments.expansion_steps"] = int(c["steps"])
        out["experiments.prefix_reuse_ratio"] = len(self.prefixes) / c["steps"] if c["steps"] else 0.0
        out["cli.bytes_written"] = int(c["bytes"])
        return out

    def write(self, path_stem: Path, metrics: dict) -> None:
        """Spans as JSON lines and the per-layer metrics as JSON."""
        path_stem.parent.mkdir(parents=True, exist_ok=True)
        with open(f"{path_stem}.spans.jsonl", "w") as f:
            for s in self.spans:
                if s is not None:
                    sid, parent, op, name, t0, t1 = s
                    f.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                        "start": t0, "end": t1}) + "\n")
        Path(f"{path_stem}.metrics.json").write_text(json.dumps(metrics, indent=1, sort_keys=True) + "\n")


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


# -- hooks: counters read from the arguments and results of a traced call ----


def _uniform_block(t, args, kwargs, result, busy):
    t.counts["draws"] += _arg(args, kwargs, 3, "count")


def _driver_draws(n_of):
    def hook(t, args, kwargs, result, busy):
        cls = driver_class(_arg(args, kwargs, 0, "driver"))
        t.counts[f"driver_draws.{cls}"] += n_of(args, kwargs)
        t.counts[f"driver_busy.{cls}"] += busy

    return hook


def _minkowski(t, args, kwargs, result, busy):
    t.counts["cells_in"] += len(args[0].cells) * len(args[1].cells)
    t.counts["cells_out"] += len(result.cells)


def _hausdorff(t, args, kwargs, result, busy):
    t.counts[f"hausdorff.{_hausdorff_path(_arg(args, kwargs, 0, 'a'))}"] += busy


def _via_support(t, args, kwargs, result, busy):
    t.counts["directions"] += _arg(args, kwargs, 2, "n_directions")


def _expansion(t, args, kwargs, result, busy):
    spec, n, seed = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "n"), _arg(args, kwargs, 2, "seed")
    t.counts["steps"] += n - 1
    key = repr(spec)
    t.prefixes.update((key, seed, k) for k in range(2, n + 1))


def _run_config(t, args, kwargs, result, busy):
    out = Path(_arg(args, kwargs, 1, "out_dir"))
    t.counts["bytes"] += sum(p.stat().st_size for p in out.iterdir() if p.is_file())


_HOOKS = {
    "rng.uniform_block": _uniform_block,
    "mixing.checkpoint_means": _driver_draws(lambda a, k: max(_arg(a, k, 2, "checkpoints"))),
    "mixing.draw_sequence": _driver_draws(lambda a, k: _arg(a, k, 1, "n")),
    "geometry.minkowski_sum": _minkowski,
    "geometry.hausdorff": _hausdorff,
    "geometry.hausdorff_via_support": _via_support,
    "experiments.exact_cell_expansion": _expansion,
    "cli.run_config": _run_config,
}
