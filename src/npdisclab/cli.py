"""Batch experiment runner: every construction reproducible as a CSV recipe.

Grammar:  npdisclab <recipe> key=value ... [--out PATH] [--seed U64]
          [--reproducible]

With no arguments the recipe catalog is printed.  Output is deterministic
for a fixed configuration and seed; ``--reproducible`` suppresses the
timestamp comment so two runs are byte-identical.  Randomness goes through
a counter-based generator keyed by the recorded seed.

Exit codes: 0 success, 2 unknown recipe, 3 malformed parameter, a seed
outside 0..2**64-1, unreadable input file or a size whose arrays do not fit
in memory, 4 unwritable output path, closed stdout or closed output pipe,
5 computation did not certify (the interpolating-subsequence extractor ran
out of points or lost definiteness).  Every failure prints one ``error:``
line on stderr.
"""

from __future__ import annotations

import gc
import math
import os
import sys
from typing import NamedTuple, NoReturn

#: log2 of the cycles an idle OpenBLAS worker spins before it sleeps (library default 28);
#: 2^22 (~1.6 ms at 2.6 GHz) outlasts the gaps between an eigvalsh's BLAS calls
OPENBLAS_THREAD_TIMEOUT = "22"
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", OPENBLAS_THREAD_TIMEOUT)

from . import __version__

# numpy and csvio load in run() once the parameters parse, and each recipe
# imports the library layers it uses when it runs, so the catalog, --help and
# command-line errors answer before numpy loads and a run loads only its own
# layers; numpy.random is loaded only by the recipes that draw

EXIT_OK = 0
EXIT_UNKNOWN_RECIPE = 2
EXIT_BAD_PARAMETER = 3
EXIT_UNWRITABLE = 4
EXIT_NOT_CERTIFIED = 5


class ParameterError(Exception):
    pass


class NotCertifiedError(Exception):
    """A computation ran but could not certify its result (exit code 5)."""


class ExperimentConfig(NamedTuple):
    recipe: str
    parameters: dict
    out: str | None
    seed: int
    reproducible: bool
    help: bool


def _parse_complex(text: str) -> complex:
    return complex(text.replace(" ", ""))


def _parse_count(text: str) -> int:
    """An integer of at least 1."""
    value = int(text)
    if value < 1:
        raise ParameterError("must be at least 1")
    return value


def _parse_list(parser):
    def inner(text):
        return [parser(part) for part in text.split(";") if part]

    return inner


class Param(NamedTuple):
    name: str
    parse: object
    default: object
    help: str


class Recipe(NamedTuple):
    name: str
    summary: str
    params: tuple
    run: object


def _comments(config: ExperimentConfig) -> list[str]:
    lines = [
        f"npdisclab {__version__}",
        f"recipe = {config.recipe}",
    ]
    for key in sorted(config.parameters):
        lines.append(f"param {key} = {config.parameters[key]}")
    lines.append(f"seed = {config.seed}")
    if not config.reproducible:
        from datetime import datetime, timezone

        lines.append(f"generated = {datetime.now(timezone.utc).isoformat()}")
    return lines


# -- recipe implementations ---------------------------------------------------


def _run_classify(p):
    from . import kernels

    handle = kernels.parse_family(p["family"], p["N"])
    rep = kernels.classify(handle)
    return rep._fields, [list(rep)]


def _run_compare(p):
    from . import kernels

    a = kernels.parse_family(p["family"], p["N"]).weights
    b = kernels.parse_family(p["family2"], p["N"]).weights
    rep = kernels.are_comparable(a, b)
    cols = ["family", "family2", "comparable", "ratio_min", "ratio_max",
            "tail_drift", "verdict"]
    return cols, [[p["family"], p["family2"], rep.comparable, rep.ratio_min,
                   rep.ratio_max, rep.tail_drift, rep.verdict]]


def _run_pick_check(p):
    from . import kernels
    from .pick import PickProblem, pick_matrix, psd_check

    handle = kernels.parse_family(p["family"], p["N"])
    problem = PickProblem(p["nodes"], p["targets"], handle)
    verdict = psd_check(pick_matrix(problem))
    cols = ["size", "min_eigenvalue", "matrix_scale", "verdict", "solvable"]
    return cols, [[problem.size, verdict.min_eigenvalue, verdict.matrix_scale,
                   verdict.verdict, verdict.verdict != "indefinite"]]


def _run_interp_extract(p):
    from .geometry import BallPoint
    from .pick import ExtractionExhaustedError, extract_interpolating_subsequence
    from .sequences import named_sequence

    seq = named_sequence(p["tag"], p["n"])
    # each point keeps its angle; an underflowed gap is left out
    points = [BallPoint([pt], gap=g if g > 0.0 else None)
              for g, pt in zip(seq.gaps, seq.points)]
    try:
        res = extract_interpolating_subsequence(
            points, p["r"], p["kmax"], seed=p["_seed"]
        )
    except ExtractionExhaustedError as exc:
        raise NotCertifiedError(str(exc)) from exc
    cols = ["k", "index", "point_norm", "min_eigenvalue", "rule"]
    return cols, [[r.k, r.index, r.point_norm, r.min_eigenvalue, r.rule]
                  for r in res.rows]


def _run_crossing(p):
    from .pick import crossing_determinant

    res = crossing_determinant(p["r"], p["C"], p["x"])
    cols = ["r", "C", "x", "scalar_s", "det", "lhs", "rhs", "kernel_ratio"]
    return cols, [[p["r"], p["C"], p["x"], res.scalar_s, res.det, res.lhs,
                   res.rhs, res.kernel_ratio]]


def _run_distortion(p):
    import numpy as np

    from .geometry import crossing_map, crossing_scalar, distortion_profile, hs_embedding

    tag = p["map"]
    name, colon, number = tag.partition(":")
    if not colon or name not in ("crossing", "hs"):
        raise ParameterError(f"unknown map tag {tag!r} (crossing:<r> or hs:<s>)")
    try:
        number = float(number)
    except ValueError:
        raise ParameterError(f"bad map tag {tag!r} (expected {name}:<number>)") from None
    curve = crossing_map(number) if name == "crossing" else hs_embedding(number, p["N"])
    if p["xs"]:
        if name != "crossing":
            raise ParameterError("pinch pairs need a crossing map")
        xs = np.array(p["xs"])
        pairs = np.column_stack([1.0 - xs, -1.0 + crossing_scalar(curve) * xs])
    else:
        rng = np.random.default_rng(np.random.Philox(p["_seed"]))
        draws = rng.uniform(-1.0, 1.0, (p["pairs"], 4))  # one (a, b, c, d) row per pair
        pairs = 0.9 * (draws[:, 0::2] + 1j * draws[:, 1::2]) / math.sqrt(2.0)
    prof = distortion_profile(curve, pairs)
    return ["d_source", "d_image"], prof.rows


def _run_carleson(p):
    from .sequences import CARLESON_P_MAX, carleson_ratio, named_sequence

    if not 1 <= p["p_max"] <= CARLESON_P_MAX:
        raise ParameterError(f"p_max must lie in 1..{CARLESON_P_MAX}, got {p['p_max']}")
    seq = named_sequence(p["tag"], p["n"])
    rows = [[q, carleson_ratio(seq, q)] for q in range(1, p["p_max"] + 1)]
    return ["p", "carleson_ratio"], rows


def _run_separation(p):
    from .sequences import blaschke_sum, garnett_targets, named_sequence

    seq = named_sequence(p["tag"], p["n"])
    if seq.n < 2:
        raise ValueError("separation needs at least two points")
    budgets = garnett_targets(seq)  # deltas and nearest distances in one sweep
    bl = blaschke_sum(seq)
    rows = [[i + 1, b.delta.value, b.nearest, b.budget] for i, b in enumerate(budgets)]
    cols = ["n", "delta_n", "gap_n", "budget_n"]
    comments = [f"blaschke_sum = {bl.total!r} (converged = {bl.converged})",
                f"inf_gap = {min(b.nearest for b in budgets)!r}"]
    return cols, rows, comments


def _run_tangential_embed(p):
    import numpy as np

    from .tangential import ConformalChain, assemble_embedding

    emb = assemble_embedding(ConformalChain(p["r"]), p["m"])
    f1, f2 = emb.f1_boundary, emb.f2_boundary
    # np.hypot gives the bits of the scalar abs(); np.abs on a complex array can differ
    rows = np.column_stack([
        emb.angles, emb.u1, emb.u1_tilde,
        np.hypot(f1.real, f1.imag), np.hypot(f2.real, f2.imag), emb.sphere_defect(),
    ])
    cols = ["t", "u1", "u1_tilde", "abs_f1", "abs_f2", "sphere_defect"]
    return cols, rows


def _run_tangency_report(p):
    from .tangential import ConformalChain, assemble_embedding, tangency_report

    emb = assemble_embedding(ConformalChain(p["r"]), p["m"])
    rep = tangency_report(emb, p["jmin"], p["jmax"])
    comments = [
        f"c1_fit = {rep.c1!r}",
        f"correlation = {rep.correlation!r}",
        f"ratio1_decreasing = {rep.ratio1_decreasing}",
        f"ratio2_increasing = {rep.ratio2_increasing}",
    ]
    return ["x", "ratio1", "ratio2"], [[x, r1, r2] for x, r1, r2 in rep.rows], comments


RECIPES = {
    r.name: r
    for r in (
        Recipe(
            "classify",
            "isomorphism-classification row for one kernel family",
            (
                Param("family", str, "hardy", "kernel tag: hardy | hs:<s> | geom:<q> | custom:<csv>"),
                Param("N", int, 256, "truncation length"),
            ),
            _run_classify,
        ),
        Recipe(
            "compare",
            "weight-ratio comparability verdict for two families",
            (
                Param("family", str, None, "first kernel tag"),
                Param("family2", str, None, "second kernel tag"),
                Param("N", int, 256, "truncation length"),
            ),
            _run_compare,
        ),
        Recipe(
            "pick-check",
            "positivity verdict of the interpolation matrix for nodes/targets",
            (
                Param("family", str, "hardy", "kernel tag"),
                Param("nodes", _parse_list(_parse_complex), None, "nodes, ';'-separated complex"),
                Param("targets", _parse_list(_parse_complex), None, "targets, ';'-separated complex"),
                Param("N", int, 256, "truncation length"),
            ),
            _run_pick_check,
        ),
        Recipe(
            "interp-extract",
            "greedy interpolating-subsequence extraction audit trail",
            (
                Param("tag", str, "wn_gaussian", "named sequence tag"),
                Param("n", int, 12, "sequence length"),
                Param("r", float, 0.5, "target polydisc radius"),
                Param("kmax", int, 10, "subsequence length to extract"),
            ),
            _run_interp_extract,
        ),
        Recipe(
            "crossing",
            "determinant obstruction at the self-crossing boundary point",
            (
                Param("r", float, 0.5, "automorphism parameter of the curve"),
                Param("C", float, 2.0, "candidate inverse-multiplier norm"),
                Param("x", float, 1e-4, "pinch distance parameter"),
            ),
            _run_crossing,
        ),
        Recipe(
            "distortion",
            "pseudohyperbolic distances before/after a disc-to-ball map",
            (
                Param("map", str, "crossing:0.5", "curve tag: crossing:<r> | hs:<s>"),
                Param("xs", _parse_list(float), [], "pinch parameters, ';'-separated"),
                Param("pairs", _parse_count, 100, "random pair count when xs is empty"),
                Param("N", int, 512, "embedding truncation for hs maps"),
            ),
            _run_distortion,
        ),
        Recipe(
            "carleson",
            "dyadic box-mass ratios of a disc sequence",
            (
                Param("tag", str, "dyadic_separated", "named sequence tag"),
                Param("n", int, 20, "sequence size parameter"),
                Param("p_max", int, 10, "largest box exponent"),
            ),
            _run_carleson,
        ),
        Recipe(
            "separation",
            "per-point separation products, gaps and interpolation budgets",
            (
                Param("tag", str, "vn_quadratic", "named sequence tag"),
                Param("n", int, 40, "sequence length"),
            ),
            _run_separation,
        ),
        Recipe(
            "tangential-embed",
            "boundary data and sphere defect of the tangential embedding",
            (
                Param("r", float, 0.75, "clip parameter in (2/3, 1)"),
                Param("m", int, 4096, "grid size (power of two)"),
            ),
            _run_tangential_embed,
        ),
        Recipe(
            "tangency-report",
            "boundary-approach ratios of the tangential embedding",
            (
                Param("r", float, 0.75, "clip parameter in (2/3, 1)"),
                Param("m", int, 2**18, "grid size (power of two)"),
                Param("jmin", int, 4, "smallest dyadic exponent"),
                Param("jmax", int, 14, "largest dyadic exponent"),
            ),
            _run_tangency_report,
        ),
    )
}


def list_recipes() -> str:
    lines = ["recipes:"]
    for name in RECIPES:
        lines.append(f"  {name:18s} {RECIPES[name].summary}")
    lines.append("")
    lines.append("usage: npdisclab <recipe> key=value ... [--out PATH] [--seed U64] [--reproducible]")
    lines.append("       npdisclab <recipe> --help")
    return "\n".join(lines)


def recipe_help(recipe: Recipe) -> str:
    lines = [f"{recipe.name}: {recipe.summary}", "parameters:"]
    for param in recipe.params:
        default = "required" if param.default is None else f"default {param.default!r}"
        lines.append(f"  {param.name:10s} {param.help} ({default})")
    return "\n".join(lines)


def _parse_argv(argv) -> ExperimentConfig:
    recipe_name = argv[0]
    rest = argv[1:]
    params, out, seed, reproducible, show_help = {}, None, None, False, False
    i = 0
    while i < len(rest):
        token = rest[i]
        if token == "--help":
            show_help = True
        elif token == "--reproducible":
            reproducible = True
        elif token == "--out":
            if out is not None:
                raise ParameterError("option '--out' given twice")
            i += 1
            if i >= len(rest):
                raise ParameterError("--out needs a path")
            out = rest[i]
        elif token == "--seed":
            if seed is not None:
                raise ParameterError("option '--seed' given twice")
            i += 1
            if i >= len(rest):
                raise ParameterError("--seed needs an integer")
            try:
                seed = int(rest[i])
            except ValueError as exc:
                raise ParameterError(f"bad seed {rest[i]!r}") from exc
            if not 0 <= seed < 2**64:
                raise ParameterError(f"bad seed {rest[i]!r}: must lie in 0..2**64-1")
        elif "=" in token:
            key, _, value = token.partition("=")
            if key in params:
                raise ParameterError(f"parameter {key!r} given twice")
            params[key] = value
        else:
            raise ParameterError(f"unrecognized argument {token!r}")
        i += 1
    seed = 0 if seed is None else seed
    return ExperimentConfig(recipe_name, params, out, seed, reproducible, show_help)


def _resolve_params(recipe: Recipe, raw: dict, seed: int) -> dict:
    known = {p.name: p for p in recipe.params}
    resolved = {}
    for key, value in raw.items():
        if key not in known:
            raise ParameterError(
                f"unknown parameter {key!r} for recipe {recipe.name!r}"
            )
        try:
            resolved[key] = known[key].parse(value)
        except ParameterError as exc:
            raise ParameterError(f"bad value for {key!r}: {value!r} ({exc})") from None
        except (ValueError, TypeError) as exc:
            raise ParameterError(f"bad value for {key!r}: {value!r}") from exc
    for param in recipe.params:
        if param.name not in resolved:
            if param.default is None:
                raise ParameterError(
                    f"recipe {recipe.name!r} requires parameter {param.name!r}"
                )
            resolved[param.name] = param.default
    resolved["_seed"] = seed
    return resolved


def _to_stdout(write) -> int:
    """Call ``write(sys.stdout)`` and flush; a closed stdout or output pipe is exit 4."""
    if sys.stdout is None:  # the process started with stdout closed (``>&-``)
        print("error: stdout is closed", file=sys.stderr)
        return EXIT_UNWRITABLE
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (``| head``); point stdout at devnull so the
        # interpreter's final flush does not raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output pipe closed", file=sys.stderr)
        return EXIT_UNWRITABLE
    return EXIT_OK


def run(config: ExperimentConfig) -> int:
    """Execute a recipe and write its CSV artifact."""
    recipe = RECIPES[config.recipe]
    try:
        params = _resolve_params(recipe, config.parameters, config.seed)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMETER
    # loading the writer (and numpy with it) before the recipe computes keeps
    # its import off the recipe's peak memory; a name read here at call time
    # is the one a tracer may have wrapped
    from .csvio import write_rows

    try:
        result = recipe.run(params)
    except (ParameterError, ValueError, KeyError, OSError) as exc:
        # OSError: a custom: family CSV that is missing or unreadable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMETER
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMETER
    except NotCertifiedError as exc:
        print(f"error: not certified: {exc}", file=sys.stderr)
        return EXIT_NOT_CERTIFIED
    cols, rows, *extra = result
    comments = _comments(config) + (extra[0] if extra else [])
    if config.out is None:
        return _to_stdout(lambda out: write_rows(out, comments, cols, rows))
    try:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            write_rows(fh, comments, cols, rows)
    except OSError as exc:
        print(f"error: cannot write {config.out!r}: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    return EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv == ["--help"]:
        return _to_stdout(lambda out: print(list_recipes(), file=out))
    try:
        config = _parse_argv(argv)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMETER
    if config.recipe not in RECIPES:
        print(f"error: unknown recipe {config.recipe!r}", file=sys.stderr)
        print(list_recipes(), file=sys.stderr)
        return EXIT_UNKNOWN_RECIPE
    if config.help:
        return _to_stdout(lambda out: print(recipe_help(RECIPES[config.recipe]), file=out))
    return run(config)


def console_main() -> NoReturn:
    """Run :func:`main` and exit with its code: the ``npdisclab`` script,
    ``python -m npdisclab`` and ``python -m npdisclab.cli`` all end here.

    ``gc.freeze()`` puts every live object, numpy's and the layers'
    included, out of the cyclic collector's reach, so interpreter shutdown
    no longer collects them.  Shutdown otherwise runs as usual: atexit
    handlers run and the std streams are flushed; ``--out`` is already
    closed.  :func:`main` does not freeze, since tests call it in process.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
