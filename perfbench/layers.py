"""Traced pass: per-layer metrics from in-process runs of one workload.

The recipes run in this process through ``npdisclab.cli.main``, first with
no tracing and then with every public function, constructor and method of
the seven library modules wrapped by :class:`spans.Tracer`.  Each
invocation is one root span ``cli.<recipe>``, so the self times of all
spans under it add up to the traced recipe time exactly.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from checks import check_invocation, check_repeat
from spans import Tracer
from workloads import RECIPES

LAYERS = ("series", "kernels", "geometry", "pick", "sequences", "tangential", "csvio")

#: per-layer metric name -> span name, where they differ
SPAN_OF = {
    "kernels.kernel_value": "kernels.KernelHandle.kernel_value",
    "geometry.curve_inner": "geometry.GeneralCurve.inner",
    "pick.extract": "pick.extract_interpolating_subsequence",
    "sequences.pair_dist": "sequences.DiscSequence.pair_dist",
    "tangential.sphere_defect": "tangential.TangentialEmbedding.sphere_defect",
}

SELF_TIMES = (
    "series.weights_from_moduli", "series.moduli_from_weights", "series.weights_by_reciprocal",
    "kernels.parse_family", "kernels.classify", "kernels.KernelHandle", "kernels.kernel_value",
    "geometry.distortion_profile", "geometry.hs_embedding",
    "pick.PickProblem", "pick.pick_matrix", "pick.psd_check", "pick.extract",
    "sequences.garnett_targets", "sequences.separation_delta", "sequences.is_separated",
    "tangential.assemble_embedding", "tangential.sphere_defect",
    "csvio.write_rows", "csvio.read_rows",
)

CALL_COUNTS = (
    "kernels.kernel_value", "geometry.one_minus_inner", "geometry.curve_inner",
    "sequences.separation_delta", "sequences.pair_dist",
)

#: functions timed at the workload's largest call and at half of it
GROWTH = ("series.weights_from_moduli", "pick.pick_matrix", "sequences.garnett_targets",
          "geometry.distortion_profile")

IMPORT_SAMPLES = 3


def _import_seconds(report: str, package: str) -> float:
    """Cumulative -X importtime seconds of ``package`` and its submodules.

    Only the outermost matching entries count, so nested submodules are not
    counted twice; a package whose own entry is missing (scipy.linalg loads
    through scipy's lazy attribute hook) is the sum of its submodules.
    """
    total, stack = 0.0, []  # stack of (depth, inside a matching entry)
    for line in reversed(report.splitlines()):
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, field = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        name = field.strip()
        depth = len(field) - len(field.lstrip())
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        match = name == package or name.startswith(package + ".")
        if match and not inside:
            total += int(cumulative) * 1e-6
        stack.append((depth, inside or match))
    return total


def import_times(root, env) -> dict:
    """Median import times of npdisclab.cli, scipy.signal and scipy.linalg."""
    wanted = {"import.total_s": "npdisclab.cli", "import.scipy_signal_s": "scipy.signal",
              "import.scipy_linalg_s": "scipy.linalg"}
    samples = {metric: [] for metric in wanted}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import npdisclab.cli"],
                              cwd=root, env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import npdisclab.cli failed: {proc.stderr.strip()[-300:]}")
        for metric, package in wanted.items():
            samples[metric].append(_import_seconds(proc.stderr, package))
    return {metric: statistics.median(values) for metric, values in samples.items()}


def run_in_process(main, argv) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, seconds) of ``main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except Exception:  # an escaped exception is a failed invocation, as exit 1 would be
            code = 1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def _hooks(largest: dict) -> dict:
    """Return hooks filling exact counters and ``largest``: growth function -> (size, args)."""

    def offer(fn: str, size: int, args: tuple) -> None:
        if size > largest.get(fn, (0, None))[0]:
            largest[fn] = (size, args)

    def bump(counts, key, amount):
        counts[key] = counts.get(key, 0) + amount

    def handle(counts, args, kwargs, result):
        # the handle constructor reruns the renewal recursion on its moduli
        offer("series.weights_from_moduli", args[0].n, (args[0].moduli, args[0].n))

    def weights(counts, args, kwargs, result):
        bump(counts, "series.weights_from_moduli.terms", result.n)

    def extract(counts, args, kwargs, result):
        bump(counts, "pick.extract.rows", len(result.rows))
        bump(counts, "pick.extract.examined", result.rows[-1].index + 1)

    def write_rows(counts, args, kwargs, result):
        bump(counts, "csvio.write_rows.rows", len(args[3]))

    return {
        "kernels.KernelHandle": handle,
        "series.weights_from_moduli": weights,
        "pick.extract_interpolating_subsequence": extract,
        "csvio.write_rows": write_rows,
        "pick.pick_matrix": lambda c, a, k, r: offer("pick.pick_matrix", a[0].size, a),
        "sequences.garnett_targets":
            lambda c, a, k, r: offer("sequences.garnett_targets", a[0].n, a),
        "geometry.distortion_profile":
            lambda c, a, k, r: offer("geometry.distortion_profile", len(a[1]), (a[0], list(a[1]))),
    }


def _halved(fn: str, args: tuple, mods: dict) -> tuple:
    if fn == "series.weights_from_moduli":
        moduli, n = args
        return moduli, n // 2
    if fn == "pick.pick_matrix":
        (p,) = args
        h = p.size // 2
        return (mods["pick"].PickProblem(p.nodes[:h], p.targets[:h], p.kernel),)
    if fn == "sequences.garnett_targets":
        (s,) = args
        h = s.n // 2
        return (mods["sequences"].DiscSequence(s.points[:h], s.label, gaps=s.gaps[:h],
                                                log_gaps=s.log_gaps[:h], angles=s.angles[:h]),)
    curve, pairs = args
    return curve, pairs[: len(pairs) // 2]


def _call_seconds(fn, args, budget: float = 0.2, cap: int = 25) -> float:
    """Median wall time of ``fn(*args)``, repeated while within ``budget``."""
    times = []
    while not times or (sum(times) < budget and len(times) < cap):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def growth_exponents(largest: dict, mods: dict) -> tuple[dict, dict]:
    """log2(t(size) / t(size/2)) per growth function; 0 where not exercised."""
    out, sizes = {}, {}
    for fn in GROWTH:
        size, args = largest.get(fn, (0, None))
        sizes[fn] = size
        out[f"{fn}.growth_exp"] = 0.0
        if size < 2:
            continue
        layer, name = fn.split(".")
        func = getattr(mods[layer], name)
        full = _call_seconds(func, args)
        half = _call_seconds(func, _halved(fn, args, mods))
        out[f"{fn}.growth_exp"] = math.log2(full / half)
    return out, sizes


def traced_pass(root, env, src, invocations, seconds: float, spans_path) -> dict:
    """Run the workload in process, untraced and traced; return metrics and a record."""
    imports = import_times(root, env)
    sys.path.insert(0, str(src))
    cli = importlib.import_module("npdisclab.cli")
    mods = {name: importlib.import_module(f"npdisclab.{name}") for name in LAYERS}
    importers = [cli, *mods.values()]
    csvio = mods["csvio"]

    tracer = Tracer()
    largest = {}
    hooks = _hooks(largest)
    roots = {inv.recipe: tracer.wrap(cli.main, f"cli.{inv.recipe}") for inv in invocations}
    attempted = failed = nonnumeric = 0
    problems = []
    untraced, traced = [], []
    digests = {}
    write_bytes = 0

    def one_pass(trace: bool) -> float:
        nonlocal attempted, failed, nonnumeric, write_bytes
        total = 0.0
        for number, inv in enumerate(invocations):
            main = roots[inv.recipe] if trace else cli.main
            code, out, err, spent = run_in_process(main, inv.argv)
            total += spent
            # csvio.read_rows is looked up here so the traced pass times the read-back
            outcome = check_invocation(inv, code, out, err, csvio.read_rows)
            check_repeat(digests, number, outcome)
            attempted += 1
            if not outcome.ok:
                failed += 1
                problems.append(f"{inv.label}: {'; '.join(outcome.problems)}")
            if trace:
                nonnumeric += outcome.nonnumeric_cells
                write_bytes += len(out.encode("utf-8"))
        return total

    started = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        untraced.append(one_pass(False))
        tracer.install(mods, importers, hooks)
        tracer.patch_counter(mods["pick"], "_pivoted_cholesky_floor",
                             "pick.psd_check.cholesky_calls")
        try:
            traced.append(one_pass(True))
        finally:
            tracer.uninstall()
        last = time.perf_counter() - pair_start
        if time.perf_counter() - started + last > seconds:
            break
    passes = len(traced)
    growth, growth_sizes = growth_exponents(largest, mods)
    tracer.save(spans_path)

    metrics = dict(imports)
    metrics.update(growth)
    metrics.update(_span_metrics(tracer, passes))
    counts = tracer.counts
    for key in ("series.weights_from_moduli.terms", "pick.psd_check.cholesky_calls",
                "csvio.write_rows.rows"):
        metrics[key] = counts.get(key, 0) / passes
    metrics["csvio.write_rows.bytes"] = write_bytes / passes
    metrics["csvio.nonnumeric_cells"] = nonnumeric / passes
    rows = counts.get("pick.extract.rows", 0)
    inclusive = metrics.pop("pick.extract.inclusive_s")
    metrics["pick.extract.stage_s"] = inclusive * passes / rows if rows else 0.0
    metrics["pick.extract.accept_ratio"] = rows / counts["pick.extract.examined"] if rows else 0.0
    metrics["trace.untraced_s"] = statistics.median(untraced)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced)
    accounted = metrics.pop("trace.accounted_s")
    if not math.isclose(accounted, metrics["trace.recipe_s"], rel_tol=1e-9):
        problems.append(f"span self times sum to {accounted!r}, "
                        f"recipe spans to {metrics['trace.recipe_s']!r}")
    record = {"in_process_passes": passes, "spans": len(tracer.start),
              "growth_sizes": growth_sizes, "spans_file": str(spans_path.relative_to(root))}
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "record": record}


def _own_layer_time(name, parent, self_t, names) -> np.ndarray:
    """Per span: its self time plus that of descendants reached through its own layer.

    A public function that hands its work to another function of the same
    layer (``assemble_embedding`` to the ``TangentialEmbedding``
    constructor, ``garnett_targets`` to ``separation_delta``) keeps that
    work; time in other layers' spans is excluded.
    """
    layer_of = np.array([n.split(".")[0] for n in names])[name]
    depth = np.zeros(name.size, dtype=np.int64)
    up = parent.copy()
    while np.any(up >= 0):
        live = up >= 0
        depth[live] += 1
        up[live] = parent[up[live]]
    own = self_t.copy()
    same = (parent >= 0) & (layer_of == layer_of[np.maximum(parent, 0)])
    for level in range(int(depth.max(initial=0)), 0, -1):
        idx = np.nonzero(same & (depth == level))[0]
        np.add.at(own, parent[idx], own[idx])
    return own


def _span_metrics(tracer: Tracer, passes: int) -> dict:
    name, parent, dur, self_t = tracer.arrays()
    names = tracer.names
    width = len(names)
    own_by = np.bincount(name, weights=_own_layer_time(name, parent, self_t, names),
                         minlength=width) / passes
    self_by = np.bincount(name, weights=self_t, minlength=width) / passes
    calls_by = np.bincount(name, minlength=width) / passes
    incl_by = np.bincount(name, weights=dur, minlength=width) / passes
    idx = {n: i for i, n in enumerate(names)}

    def of(metric: str, table) -> float:
        i = idx.get(SPAN_OF.get(metric, metric))
        return float(table[i]) if i is not None else 0.0

    out = {f"{m}.self_s": of(m, own_by) for m in SELF_TIMES}
    out.update({f"{m}.calls": of(m, calls_by) for m in CALL_COUNTS})
    out["pick.extract.inclusive_s"] = of("pick.extract", incl_by)
    for recipe in RECIPES:
        out[f"cli.{recipe}.self_s"] = of(f"cli.{recipe}", self_by)
    # layer totals use strict self time, so they add up to the recipe time
    cli_ids = [i for i, n in enumerate(names) if n.startswith("cli.")]
    in_recipe = np.isin(name[Tracer.roots(parent)], cli_ids)
    for layer in (*LAYERS, "cli"):
        ids = [i for i, n in enumerate(names) if n.startswith(layer + ".")]
        out[f"{layer}.self_s"] = float(self_t[in_recipe & np.isin(name, ids)].sum()) / passes
    out["trace.recipe_s"] = float(dur[(parent < 0) & np.isin(name, cli_ids)].sum()) / passes
    out["trace.accounted_s"] = float(self_t[in_recipe].sum()) / passes
    return out
