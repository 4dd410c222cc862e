import importlib.util
import math
import os
import resource
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from npdisclab import csvio
from npdisclab.cli import (
    EXIT_BAD_PARAMETER,
    EXIT_NOT_CERTIFIED,
    EXIT_UNKNOWN_RECIPE,
    EXIT_UNWRITABLE,
    RECIPES,
    list_recipes,
    main,
)
from npdisclab.csvio import format_cell, parse_cell, read_rows
from npdisclab.tangential import ConformalChain, TangentialEmbedding

# small, fast parameterizations of every recipe for determinism checks
RECIPE_ARGS = {
    "classify": ["family=hs:-0.5", "N=128"],
    "compare": ["family=hardy", "family2=hs:-0.5", "N=128"],
    "pick-check": ["family=hardy", "nodes=0;0.5", "targets=0;0.25", "N=64"],
    "interp-extract": ["tag=wn_gaussian", "n=8", "r=0.5", "kmax=5"],
    "crossing": ["r=0.5", "C=2", "x=1e-3"],
    "distortion": ["map=crossing:0.5", "pairs=20"],
    "carleson": ["tag=dyadic_separated", "n=12", "p_max=5"],
    "separation": ["tag=vn_quadratic", "n=15"],
    "tangential-embed": ["m=256"],
    "tangency-report": ["m=4096", "jmin=4", "jmax=8"],
}

#: ``--reproducible`` output of every RECIPE_ARGS run, one file per recipe,
#: plus ``interp-extract-k18.csv`` for an eighteen-stage extraction
GOLDEN = Path(__file__).parent / "golden"

#: the benchmark's workload generators, read by TestOpenBlasTimeout
PERFBENCH = Path(__file__).parent.parent / "perfbench"

#: the only columns whose cells are text rather than numbers or booleans
TEXT_COLUMNS = {"family", "family2", "verdict", "rule"}


def _ulp_distance(a: float, b: float) -> int:
    """Steps between two doubles along the ordered bit patterns (0.0 and -0.0 coincide)."""

    def key(x):
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)

    return abs(key(a) - key(b))


def first_moved_cell(got: bytes, want: bytes) -> str:
    """Where ``got`` first departs from the golden ``want``.

    Names the data row (1-based), the column, both texts and their ulp
    distance; a moved comment, header or row length is named by its line.
    """
    got_lines, want_lines = got.decode().splitlines(), want.decode().splitlines()
    head = next((i for i, line in enumerate(want_lines) if not line.startswith("#")), 0)
    columns = want_lines[head].split(",") if want_lines else []
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g == w:
            continue
        g_cells, w_cells = g.split(","), w.split(",")
        if i <= head or len(g_cells) != len(w_cells):
            return f"line {i + 1} moved: golden {w!r}, got {g!r}"
        col, gc, wc = next(c for c in zip(columns, g_cells, w_cells) if c[1] != c[2])
        try:
            size = f"{_ulp_distance(float(gc), float(wc))} ulp"
        except ValueError:
            size = "text"
        return (f"first moved cell: row {i - head}, column {col!r}: "
                f"golden {wc}, got {gc} ({size})")
    return f"golden has {len(want_lines)} lines, output {len(got_lines)}"


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "npdisclab", *args],
        capture_output=True,
        text=True,
        timeout=240,
    )


def run_cli_reporting_numpy(args):
    """(process, whether numpy was loaded at exit) of a fresh CLI run."""
    script = ("import atexit, runpy, sys; "
              "atexit.register(lambda: print('numpy' in sys.modules, file=sys.stderr)); "
              "runpy.run_module('npdisclab', run_name='__main__')")
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, timeout=240)
    *err, numpy_loaded = proc.stderr.splitlines()
    proc.stderr = "".join(line + "\n" for line in err)
    return proc, numpy_loaded == "True"


class TestCatalog:
    def test_no_arguments_prints_catalog(self):
        proc = run_cli([])
        assert proc.returncode == 0
        assert "recipes:" in proc.stdout

    def test_catalog_has_exactly_ten_recipes(self):
        assert len(RECIPES) == 10
        listing = list_recipes()
        for name in RECIPES:
            assert name in listing

    def test_recipe_help(self):
        proc = run_cli(["crossing", "--help"])
        assert proc.returncode == 0
        assert "pinch distance" in proc.stdout

    def test_args_cover_every_recipe(self):
        assert set(RECIPE_ARGS) == set(RECIPES)


class TestExitCodes:
    def test_unknown_recipe(self):
        assert main(["no-such-recipe"]) == EXIT_UNKNOWN_RECIPE

    def test_unknown_parameter(self):
        assert main(["crossing", "bogus=1"]) == EXIT_BAD_PARAMETER

    def test_malformed_value(self):
        assert main(["crossing", "r=banana"]) == EXIT_BAD_PARAMETER

    def test_missing_required(self):
        assert main(["compare", "family=hardy"]) == EXIT_BAD_PARAMETER

    def test_unwritable_path(self, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        proc = run_cli(["crossing", "r=0.5", "C=2", "x=1e-3", "--out", str(target)])
        assert proc.returncode == 4

    def test_domain_error_is_bad_parameter(self):
        # x outside (0, 0.1) violates the recipe's precondition
        assert main(["crossing", "x=0.5"]) == EXIT_BAD_PARAMETER

    @pytest.mark.parametrize("name", ["absent.csv", "."])
    def test_unreadable_custom_csv_is_bad_parameter(self, name, tmp_path, capsys):
        # a missing file and a directory both fail in open()
        path = tmp_path / name
        assert main(["classify", f"family=custom:{path}"]) == EXIT_BAD_PARAMETER
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("rows, names", [
        ("n,value\n1,0.5\n3,0.25\n", "line 3 ('3,0.25'): index 3 out of sequence, expected 2"),
        ("n,value\n1,0.5\n2,x\n", "line 3 ('2,x'): expected an integer n and a number"),
    ], ids=["gap", "bad-value"])
    def test_malformed_custom_csv_names_path_and_row(self, rows, names, tmp_path, capsys):
        # the gap used to load as c_2 = 0.25 and the bad value to print
        # float()'s text; tests/test_kernels.py covers every refused row
        path = tmp_path / "family.csv"
        path.write_text(rows, encoding="utf-8")
        assert main(["classify", f"family=custom:{path}", "N=8"]) == EXIT_BAD_PARAMETER
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: custom CSV {str(path)!r} {names}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key", ["_bogus=banana", "_seed=5", "_help=yes"])
    def test_underscore_key_is_unknown_parameter(self, key, capsys):
        # --help and the seed do not travel as parameters, so no key is exempt
        assert main(["crossing", key]) == EXIT_BAD_PARAMETER
        out, err = capsys.readouterr()
        assert out == ""
        err = err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: unknown parameter")

    @pytest.mark.parametrize("args, repeated", [
        (["x=1e-3", "x=2e-3"], "parameter 'x'"),
        (["--seed", "1", "--seed", "2"], "option '--seed'"),
        (["--seed", "1", "--seed", "1"], "option '--seed'"),
        (["--out", os.devnull, "--out", os.devnull], "option '--out'"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_repeated_parameter_is_bad_parameter(self, args, repeated, capsys):
        # the last value used to win silently
        assert main(["crossing", *args]) == EXIT_BAD_PARAMETER
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {repeated} given twice\n"

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("name", ["classify", "distortion", "interp-extract"])
    def test_seed_outside_u64_is_bad_parameter(self, name, seed, capsys):
        assert main([name, *RECIPE_ARGS[name], "--seed", seed]) == EXIT_BAD_PARAMETER
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: bad seed {seed!r}: must lie in 0..2**64-1\n"

    @pytest.mark.parametrize("name", ["classify", "distortion", "interp-extract"])
    def test_largest_seed_is_accepted(self, name, capsys):
        args = [*RECIPE_ARGS[name], "--seed", str(2**64 - 1), "--reproducible"]
        assert main([name, *args]) == 0
        out, err = capsys.readouterr()
        assert f"# seed = {2**64 - 1}\n" in out and err == ""

    @pytest.mark.parametrize("jmin, jmax", [(4, 5), (15, 16), (6, 6)])
    def test_empty_tangency_fit_window_is_bad_parameter(self, jmin, jmax):
        # a fresh process, so a numpy warning would show on stderr
        proc = run_cli(["tangency-report", "m=4096", f"jmin={jmin}", f"jmax={jmax}"])
        assert proc.returncode == EXIT_BAD_PARAMETER
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: jmin={jmin}, jmax={jmax} leave fewer than two exponents in "
            f"the c1 fit window 6..14\n"
        )

    @pytest.mark.parametrize("jmin, jmax", [(-3, 8), (0, 8), (6, 54), (6, 60)])
    def test_tangency_exponent_outside_1_to_53_is_bad_parameter(self, jmin, jmax, capsys):
        args = ["tangency-report", "m=4096", f"jmin={jmin}", f"jmax={jmax}"]
        assert main(args) == EXIT_BAD_PARAMETER
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: jmin={jmin}, jmax={jmax} reach outside 1..53, "
            f"the exponents j with x = 1 - 2^-j in (0, 1)\n"
        )

    @pytest.mark.parametrize("args", [
        # pinch pairs with a source point on or outside the unit circle
        ["distortion", "xs=0"],
        ["distortion", "xs=1e-300"],
        ["distortion", "xs=1"],
        ["distortion", "xs=-0.1"],
        ["distortion", "xs=0.7"],
        # a nan target is not in the open disc, so no verdict is printed
        ["pick-check", "nodes=0;0.5", "targets=0;nan"],
        # C must be finite, and lhs and rhs must not overflow
        ["crossing", "C=nan"],
        ["crossing", "C=inf"],
        ["crossing", "C=1e200"],
        ["crossing", "C=1e150"],
        # a hardy kernel with no terms
        ["classify", "N=0"],
        ["compare", "family=hardy", "family2=hs:-0.5", "N=0"],
        ["pick-check", "nodes=0;0.5", "targets=0;0.25", "N=0"],
        # |z|^2 overflows: numpy's overflow warning used to print two more lines
        ["pick-check", "nodes=1e200;0.5", "targets=0.5;0"],
        # no c_2 to be negative at N = 1, but c_1 = 2^1.5 > 1 is no embedding
        ["distortion", "map=hs:1.5", "N=1"],
    ], ids=lambda args: " ".join(args))
    def test_unusable_input_is_one_error_line(self, args):
        # a fresh process, so a traceback or numpy warning would show on stderr
        proc = run_cli([*args, "--reproducible"])
        assert proc.returncode == EXIT_BAD_PARAMETER
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("args, names", [
        (["pick-check", "nodes=", "targets="], "nodes"),
        (["compare", "family=hardy", "family2=hs:-0.5", "N=1"], "N=1"),
        (["carleson", "p_max=0"], "p_max"),
        (["carleson", "p_max=1024"], "p_max"),
        (["classify", "family=hs:"], "kernel tag 'hs:'"),
        (["classify", "family=geom:x"], "kernel tag 'geom:x'"),
        (["distortion", "map=hs:"], "map tag 'hs:'"),
        (["distortion", "map=crossing:"], "map tag 'crossing:'"),
        (["distortion", "map=hs:1.5"], "family 'hs:1.5' has negative moduli; no embedding"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_error_line_names_the_parameter(self, args, names):
        # empty or degenerate inputs used to reach a numpy reduction, an
        # overflow or float() and print their text instead
        proc = run_cli([*args, "--reproducible"])
        assert proc.returncode == EXIT_BAD_PARAMETER
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and names in err[0]

    def test_drifting_inversion_is_bad_parameter(self, capsys):
        # the Newton reciprocal of (n+1)^40 overflows to nan
        assert main(["classify", "family=hs:40", "N=16384"]) == EXIT_BAD_PARAMETER
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_drifting_inversion_message_is_unchanged(self, capsys):
        # the direct inversion of (n+1)^80 overflows as well
        assert main(["classify", "family=hs:80", "N=2000"]) == EXIT_BAD_PARAMETER
        assert capsys.readouterr().err == (
            "error: weights and moduli are inconsistent (max defect nan)\n"
        )

    @pytest.mark.parametrize("family, n, message", [
        ("hs:40", "16384", "weights and moduli are inconsistent (max defect nan)"),
        ("hs:80", "16384", "all weights must be finite"),
        ("hs:80", "2000", "weights and moduli are inconsistent (max defect nan)"),
    ])
    def test_overflow_prints_one_line(self, family, n, message):
        # in a fresh process, so numpy's RuntimeWarnings would reach stderr
        proc = run_cli(["classify", f"family={family}", f"N={n}"])
        assert proc.returncode == EXIT_BAD_PARAMETER
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"

    def test_oversized_dyadic_sequence_is_bad_parameter(self, capsys):
        # about 2^200 points were asked for; the cap refuses before building any
        start = time.perf_counter()
        code = main(["interp-extract", "tag=dyadic_separated", "n=400"])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_BAD_PARAMETER
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: dyadic_separated n=400 passes 131072 points at generation 31\n"
        )

    @staticmethod
    def _assert_out_of_memory(argv):
        """``argv`` exits 3 with one out-of-memory line when the child alone
        runs under a 1.5 GiB address-space limit."""
        limit = 3 * 2**29

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "npdisclab", *argv],
            capture_output=True, text=True, timeout=240, preexec_fn=cap_memory,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert proc.returncode == EXIT_BAD_PARAMETER
        assert proc.stdout == ""
        err = proc.stderr.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: out of memory:")

    def test_out_of_memory_is_bad_parameter(self):
        # a 2^28-point grid asks for a 2 GiB index array at once
        self._assert_out_of_memory(["tangential-embed", "m=268435456"])

    def test_random_pairs_out_of_memory_is_bad_parameter(self):
        # 2^27 pairs ask for a 4 GiB draw, allocated before any block is computed
        self._assert_out_of_memory(["distortion", "map=crossing:0.5", "pairs=134217728"])

    def test_separation_runs_in_bounded_memory(self):
        # 3489 points: the whole distance matrix and its temporaries took
        # ~500 MiB; row blocks keep the recipe near its import footprint.
        # A small launcher starts it, since on Linux a child's ru_maxrss
        # also counts the peak of the process that exec'd it
        launch = ("import os, subprocess, sys; "
                  "p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
                  "_, status, usage = os.wait4(p.pid, 0); "
                  "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
        proc = subprocess.run(
            [sys.executable, "-c", launch, sys.executable, "-m", "npdisclab", "separation",
             "tag=dyadic_separated", "n=20", "--reproducible"],
            capture_output=True, text=True, timeout=240,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )
        code, max_rss_kib = map(int, proc.stdout.split())
        assert code == 0
        assert max_rss_kib < 100 * 1024

    def test_zero_renewal_mean_classifies(self, tmp_path):
        # a_n = n + 1 inverts to c = (2, -1, 0, ...): mu = 0 exactly, so
        # efp_agreement is nan rather than 1/0
        out = tmp_path / "hs1.csv"
        assert main(["classify", "family=hs:1", "N=128", "--out", str(out)]) == 0
        with open(out, encoding="utf-8") as fh:
            doc = read_rows(fh)
        row = dict(zip(doc.columns, doc.rows[0]))
        assert row["mu"] == 0.0
        assert math.isnan(row["efp_agreement"])

    @pytest.mark.parametrize("family, n", [("hardy", 1), ("geom:0.5", 1), ("geom:0.5", 2)])
    def test_below_four_doublings_no_verdict(self, tmp_path, family, n):
        # mu is 1 (hardy) and 2 (geom:0.5), but one or two terms hold no
        # limit: every verdict cell is inconclusive and every limit nan
        out = tmp_path / "short.csv"
        assert main(["classify", f"family={family}", f"N={n}", "--out", str(out)]) == 0
        with open(out, encoding="utf-8") as fh:
            doc = read_rows(fh)
        row = dict(zip(doc.columns, doc.rows[0]))
        for name in ("iso_to_hinf", "ratio_bounded", "compact_regime"):
            assert row[name] == "inconclusive", name
        for name in ("mu", "efp_agreement", "strictly_cyclic_sup"):
            assert math.isnan(row[name]), name

    def test_pinch_point_on_the_circle_is_bad_parameter(self, capsys):
        # 1 - 2e-17 rounds to 1.0: the pinch point sits on the circle and
        # the determinant's kernel entries would divide by zero
        assert main(["crossing", "x=2e-17"]) == EXIT_BAD_PARAMETER
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip().splitlines() == [
            "error: x=2e-17 is too small: the pinch point 1 - x rounds to 1.0, on the unit circle"
        ]

    def test_failed_extraction_is_not_certified(self, capsys):
        # the vn_quadratic norms approach the boundary too slowly for k = 3
        assert main(["interp-extract", "tag=vn_quadratic", "n=40"]) == EXIT_NOT_CERTIFIED
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [
            "error: not certified: point list exhausted at stage 3: no candidate "
            "after index 4 passed dominance; the norms may approach the boundary "
            "too slowly for this truncation"
        ]

    def test_uncertified_candidates_are_not_certified(self, monkeypatch, capsys):
        # candidates that pass dominance but not the Rayleigh certificate end
        # the run with their own line, naming the stage and the best margin
        from npdisclab import pick

        monkeypatch.setattr(pick, "rayleigh_bound", lambda *block: 10.0)
        assert main(["interp-extract", "tag=wn_gaussian", "n=8"]) == EXIT_NOT_CERTIFIED
        out, err = capsys.readouterr()
        assert out == ""
        err = err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: not certified: stage 2: ")
        assert "passed dominance but none was certified" in err[0]
        assert "largest Rayleigh margin was -9.25," in err[0]

    def test_underflowed_gap_is_bad_parameter(self, capsys):
        # ROADMAP item 13: wn_gaussian gaps underflow to an exact 0.0 from
        # n = 28 (index 27); until log-gaps reach the extractor this must stay
        # one error line that names the point, and no CSV of inf/nan
        assert main(["interp-extract", "tag=wn_gaussian", "n=30"]) == EXIT_BAD_PARAMETER
        out, err = capsys.readouterr()
        assert out == ""
        err = err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "rounds to 0" in err[0]
        assert "the gap 1 - |z| of the point at index 27 underflowed to 0.0" in err[0]

    def test_closed_output_pipe(self):
        # 4096 rows are far more than a pipe buffer holds
        proc = subprocess.Popen(
            [sys.executable, "-m", "npdisclab", "tangential-embed", "m=4096"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert proc.stdout.readline().startswith("# npdisclab")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=240) == EXIT_UNWRITABLE
        assert "Traceback" not in err
        assert err.strip().splitlines() == ["error: output pipe closed"]

    @pytest.mark.parametrize("args", [[], ["--help"], ["classify", "--help"]],
                             ids=["catalog", "catalog-help", "recipe-help"])
    def test_closed_output_pipe_before_start(self, args):
        # the read end is closed before the child starts, so its first
        # write to stdout fails whether or not stdout is buffered
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        try:
            proc = subprocess.run([sys.executable, "-m", "npdisclab", *args], stdout=write_fd,
                                  stderr=subprocess.PIPE, text=True, timeout=240)
        finally:
            os.close(write_fd)
        assert proc.returncode == EXIT_UNWRITABLE, proc.stderr
        assert proc.stderr.splitlines() == ["error: output pipe closed"]

    @pytest.mark.parametrize("args, code, names", [
        ([], 0, None),
        (["--help"], 0, None),
        (["classify", "--help"], 0, None),
        (["nope"], EXIT_UNKNOWN_RECIPE, "unknown recipe 'nope'"),
        (["classify", "N=abc"], EXIT_BAD_PARAMETER, "'N'"),
        (["classify", "Q=1"], EXIT_BAD_PARAMETER, "'Q'"),
        (["classify", "N=1", "N=2"], EXIT_BAD_PARAMETER, "'N' given twice"),
        (["compare"], EXIT_BAD_PARAMETER, "'family'"),
        (["classify", "--seed", "-1"], EXIT_BAD_PARAMETER, "bad seed"),
        (["classify", "--out"], EXIT_BAD_PARAMETER, "--out"),
        (["distortion", "pairs=0"], EXIT_BAD_PARAMETER, "'pairs': '0' (must be at least 1)"),
        (["distortion", "pairs=-1"], EXIT_BAD_PARAMETER, "'pairs': '-1' (must be at least 1)"),
        (["classify", "N=0"], EXIT_BAD_PARAMETER, "'N': '0' (must be at least 1)"),
        (["separation", "n=0"], EXIT_BAD_PARAMETER, "'n': '0' (must be at least 1)"),
        (["tangential-embed", "m=0"], EXIT_BAD_PARAMETER, "'m': '0' (must be at least 1)"),
        (["classify", "N=2199023255552"], EXIT_BAD_PARAMETER,
         "'N': '2199023255552' (must be at most 2**40)"),
        (["compare", "family=hardy", "family2=hs:-0.5,1"], EXIT_BAD_PARAMETER, "'family2'"),
        (["distortion", "map=crossing:0.5#"], EXIT_BAD_PARAMETER, "'map'"),
        (["separation", "tag=vn_quadratic\r"], EXIT_BAD_PARAMETER, "'tag'"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_answered_before_numpy_loads(self, args, code, names):
        # the catalog, --help and every command-line error are decided from
        # argv alone, so the process exits without loading numpy
        proc, numpy_loaded = run_cli_reporting_numpy(args)
        assert not numpy_loaded
        assert proc.returncode == code, proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        if names is None:
            assert errors == [] and proc.stdout
        else:
            assert proc.stdout == ""
            assert len(errors) == 1 and names in errors[0]

    @pytest.mark.parametrize("args, name", [
        (["compare", "family=custom:{dir}/a,b.csv", "family2=hardy", "N=4"], "a,b.csv"),
        (["classify", "family=custom:{dir}/x\ny.csv", "N=4"], "x\ny.csv"),
    ], ids=["comma", "newline"])
    def test_text_that_breaks_the_csv_is_refused(self, args, name, tmp_path):
        # the file exists and parses, so only its name's text is refused; written,
        # the comma would split a cell and the newline the '# param family' line
        (tmp_path / name).write_text("1,0.5\n", encoding="utf-8")
        proc, numpy_loaded = run_cli_reporting_numpy([a.format(dir=tmp_path) for a in args])
        assert not numpy_loaded
        assert proc.returncode == EXIT_BAD_PARAMETER
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: bad value for 'family': ")
        assert proc.stderr.endswith(" (must not hold ',', '#', CR or LF)\n")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("args", [[], ["crossing"]], ids=["catalog", "recipe"])
    def test_closed_stdout(self, args):
        # started with file descriptor 1 closed, Python's sys.stdout is None
        proc = subprocess.run(["sh", "-c", 'exec "$0" -m npdisclab "$@" >&-', sys.executable, *args],
                              capture_output=True, text=True, timeout=240)
        assert proc.returncode == EXIT_UNWRITABLE, proc.stderr
        assert proc.stderr.splitlines() == ["error: stdout is closed"]


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(RECIPE_ARGS))
    def test_reproducible_runs_are_byte_identical(self, name, tmp_path):
        args = RECIPE_ARGS[name] + ["--seed", "7", "--reproducible"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        p1 = run_cli([name, *args, "--out", str(out1)])
        p2 = run_cli([name, *args, "--out", str(out2)])
        assert p1.returncode == 0, p1.stderr
        assert p2.returncode == 0, p2.stderr
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("name", sorted(RECIPE_ARGS))
    def test_matches_golden(self, name, tmp_path):
        out = tmp_path / "g.csv"
        assert main([name, *RECIPE_ARGS[name], "--reproducible", "--out", str(out)]) == 0
        got, want = out.read_bytes(), (GOLDEN / f"{name}.csv").read_bytes()
        assert got == want, first_moved_cell(got, want)

    def test_golden_comments_spell_bools_as_cells(self):
        # every bool the CLI writes reads true, false or inconclusive, comment lines included
        for path in sorted(GOLDEN.glob("*.csv")):
            for line in path.read_text().splitlines():
                if line.startswith("#"):
                    assert "True" not in line and "False" not in line, (path.name, line)

    def test_first_moved_cell_names_row_column_and_ulps(self):
        want = b"# recipe = x\nd_source,d_image\n0.5,0.25\n0.75,1.0\n"
        got = b"# recipe = x\nd_source,d_image\n0.5,0.25\n0.75,1.0000000000000004\n"
        assert first_moved_cell(got, want) == (
            "first moved cell: row 2, column 'd_image': golden 1.0, got 1.0000000000000004 (2 ulp)"
        )
        assert first_moved_cell(b"# recipe = y\n", want) == (
            "line 1 moved: golden '# recipe = x', got '# recipe = y'"
        )

    def test_extractor_matches_golden_past_corner_cap(self, tmp_path):
        # eighteen stages, where the kmax = 5 golden takes five: the
        # worst-case delta of up to 17 selected points, and dominance skips
        # indices 12 and 17
        out = tmp_path / "k18.csv"
        args = ["tag=wn_gaussian", "n=22", "r=0.5", "kmax=18", "--seed", "7"]
        assert main(["interp-extract", *args, "--reproducible", "--out", str(out)]) == 0
        got, want = out.read_bytes(), (GOLDEN / "interp-extract-k18.csv").read_bytes()
        assert got == want, first_moved_cell(got, want)

    @pytest.mark.parametrize("seed", [0, 7, 1999, 2**64 - 1])
    def test_extractor_selection_does_not_depend_on_the_seed(self, seed, tmp_path):
        # no extractor input reads the seed, so every row equals the seed-7
        # golden's
        out = tmp_path / "k18.csv"
        args = ["tag=wn_gaussian", "n=22", "r=0.5", "kmax=18", "--seed", str(seed)]
        assert main(["interp-extract", *args, "--out", str(out)]) == 0
        with open(out, encoding="utf-8") as fh:
            rows = read_rows(fh).rows
        with open(GOLDEN / "interp-extract-k18.csv", encoding="utf-8") as fh:
            assert rows == read_rows(fh).rows
        assert [row[1] for row in rows] == [*range(12), 13, 14, 15, 16, 18, 19]

    @pytest.mark.parametrize("seed", [0, 7])
    def test_one_random_pair_has_distinct_points(self, seed, tmp_path):
        # the net's point 0 at seed 0 is its centre, which maps to the pair
        # (0, 0); the draws start at point 1
        out = tmp_path / "d.csv"
        assert main(["distortion", "pairs=1", "--seed", str(seed), "--out", str(out)]) == 0
        with open(out, encoding="utf-8") as fh:
            rows = read_rows(fh).rows
        assert len(rows) == 1 and rows[0][0] > 0.0

    def test_interp_extract_keeps_each_angle(self, tmp_path):
        # xn_alternating puts every other point on the negative axis; moved
        # to the positive axis it would repeat vn_quadratic's output
        bodies = {}
        for tag in ("xn_alternating", "vn_quadratic"):
            out = tmp_path / f"{tag}.csv"
            args = [f"tag={tag}", "n=400", "kmax=3", "--reproducible", "--out", str(out)]
            assert main(["interp-extract", *args]) == 0
            with open(out, encoding="utf-8") as fh:
                bodies[tag] = read_rows(fh).rows
        assert bodies["xn_alternating"] != bodies["vn_quadratic"]
        assert [row[1] for row in bodies["xn_alternating"]] == [0, 1, 8]
        assert [row[1] for row in bodies["vn_quadratic"]] == [0, 4, 127]

    def test_console_exit_writes_what_main_writes(self, capsys):
        # 4096 rows are far more than a pipe buffer holds, so the child's
        # output is still being written and flushed on its way to exit
        argv = ["tangential-embed", "m=4096", "--reproducible"]
        proc = subprocess.run([sys.executable, "-m", "npdisclab", *argv], capture_output=True,
                              timeout=240)
        assert main(argv) == 0
        assert (proc.returncode, proc.stdout) == (0, capsys.readouterr().out.encode())
        assert proc.stdout.count(b"\n") > 4096

    def test_timestamp_only_without_reproducible(self, tmp_path):
        out = tmp_path / "c.csv"
        run_cli(["crossing", "r=0.5", "C=2", "x=1e-3", "--out", str(out)])
        assert "generated =" in out.read_text()
        run_cli(["crossing", "r=0.5", "C=2", "x=1e-3", "--reproducible", "--out", str(out)])
        assert "generated =" not in out.read_text()


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(RECIPE_ARGS))
    def test_csv_parses_back(self, name, tmp_path):
        out = tmp_path / "r.csv"
        proc = run_cli([name, *RECIPE_ARGS[name], "--reproducible", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        with open(out, encoding="utf-8") as fh:
            doc = read_rows(fh)
        assert doc.columns
        assert doc.rows
        assert any(line.startswith("recipe =") for line in doc.comments)
        # every parsed row has the full column count
        assert all(len(row) == len(doc.columns) for row in doc.rows)
        # outside the text columns every cell is a number (bool included),
        # and every cell re-formats to the exact text written
        with open(out, encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
        for raw_row, row in zip((line.split(",") for line in lines[1:]), doc.rows):
            for column, raw, value in zip(doc.columns, raw_row, row):
                if column not in TEXT_COLUMNS:
                    assert isinstance(value, (int, float)), (column, raw)
                assert format_cell(parse_cell(raw)) == raw, (column, raw)

    def test_float_cells_round_trip_exactly(self):
        for value in (1 / 3, 2.0**-52, 1e300, -0.0, float("inf")):
            assert parse_cell(format_cell(value)) == value

    def test_numpy_integer_and_bool_cells(self):
        assert format_cell(np.int64(3)) == "3"
        assert format_cell(np.bool_(True)) == "true"
        assert format_cell(np.bool_(False)) == "false"
        for value in (np.int64(3), np.int32(-7), np.uint64(2**64 - 1), np.bool_(True)):
            parsed = parse_cell(format_cell(value))
            assert parsed == value and type(parsed) is type(value.item())


class TestTangentialAtWorkloadSize:
    def test_body_matches_scalar_rows(self, tmp_path):
        # the recipe takes |f| by np.hypot, where np.abs on the complex
        # array misses the scalar abs() in tens of thousands of entries
        m = 65536
        out = tmp_path / "t.csv"
        assert main(["tangential-embed", f"m={m}", "--reproducible", "--out", str(out)]) == 0
        emb = TangentialEmbedding(ConformalChain(0.75), m)
        f2, defect = emb.f2_grid(slice(None)), emb.sphere_defect()
        lines = [",".join(format_cell(v) for v in (
            emb.angles[i], emb.u1[i], emb.u1_tilde[i],
            abs(emb.f1_boundary[i]), abs(f2[i]), defect[i],
        )) for i in range(m)]
        body = out.read_text(encoding="utf-8").split("\n")[-m - 1:-1]
        assert body == lines

    def test_table_streams_to_the_writer(self, tmp_path):
        # the (m, 6) table is never built: the run peaks within 4.5 MiB, one
        # writer block (about 3.9 MiB) and one table block, of the arrays the
        # embedding keeps, 40 bytes a row (angles, u1, u1_tilde and f1_boundary);
        # a prebuilt table took 5.4 MiB
        m = 2**16
        assert main(["tangential-embed", "m=256", "--out", str(tmp_path / "warm.csv")]) == 0
        tracemalloc.start()
        try:
            assert main(["tangential-embed", f"m={m}", "--out", str(tmp_path / "t.csv")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - 40 * m <= 4.5 * 2**20


class TestBenchmarkHook:
    """perfbench wraps csvio.write_rows by name and counts rows as len(args[3])."""

    @pytest.mark.parametrize("argv", [
        ["tangential-embed", "m=256"],
        ["classify", *RECIPE_ARGS["classify"]],
    ], ids=["tangential-embed", "classify"])
    def test_writer_gets_four_positional_arguments(self, argv, monkeypatch, tmp_path):
        calls = []
        original = csvio.write_rows

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(csvio, "write_rows", spy)
        out = tmp_path / "s.csv"
        assert main([*argv, "--reproducible", "--out", str(out)]) == 0
        [(args, kwargs)] = calls
        assert len(args) == 4 and kwargs == {}
        with open(out, encoding="utf-8") as fh:
            assert len(args[3]) == len(read_rows(fh).rows)
        if argv[0] == "tangential-embed":
            assert len(args[3]) == 256


class TestOpenBlasTimeout:
    """cli shortens OpenBLAS's idle-worker spin when it is the first to load numpy."""

    @staticmethod
    def env(**values):
        # a child whose environment never set the timeout, plus ``values``
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
        return {**env, **values}

    @pytest.mark.parametrize("code, values, seen", [
        ("import npdisclab.cli", {}, "22"),
        ("import npdisclab.cli", {"OPENBLAS_THREAD_TIMEOUT": "20"}, "20"),
        ("import numpy; import npdisclab.cli", {}, "None"),
    ], ids=["default", "caller-value-wins", "numpy-loaded-first"])
    def test_default_is_set_only_before_numpy_loads(self, code, values, seen):
        show = "import os; print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))"
        proc = subprocess.run([sys.executable, "-c", f"{code}; {show}"], capture_output=True,
                              text=True, timeout=240, env=self.env(**values))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{seen}\n"

    def test_benchmark_pick_check_bytes_do_not_depend_on_it(self, monkeypatch):
        # the timeout decides when an idle worker sleeps, not how the BLAS
        # splits its sums, so the 500-node pick-check of pick-interp keeps
        # its rounding-level min_eigenvalue under the library default 28
        spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclasses
        spec.loader.exec_module(workloads)
        argv = workloads.pick_interp(7)[1].argv
        assert argv[0] == "pick-check" and argv[2].count(";") == 499
        default, library = (
            subprocess.run([sys.executable, "-m", "npdisclab", *argv], capture_output=True,
                           timeout=240, env=self.env(**values))
            for values in ({}, {"OPENBLAS_THREAD_TIMEOUT": "28"}))
        assert default.returncode == 0, default.stderr
        assert (library.returncode, library.stdout, library.stderr) == (
            default.returncode, default.stdout, default.stderr)

    def test_idle_workers_do_not_spin(self):
        # CPU time of every thread but the main one in a cold classify, read
        # at exit: with the library default each idle OpenBLAS worker (one
        # per extra core) spins for 2^28 cycles after numpy loads, 0.06-0.1 s
        # on a 2-core VM.  The child's CPU against its wall time (os.wait4)
        # does not show that spin when the other core is contended, since it
        # then slows the main thread instead; a fully busy machine would hide
        # a regression here too, as a spinning worker then gets little CPU
        workers = max(1, (os.cpu_count() or 2) - 1)
        code = ("import atexit, runpy, sys, time; "
                "atexit.register(lambda: print(time.process_time() - time.thread_time(), "
                "file=sys.stderr)); "
                "runpy.run_module('npdisclab', run_name='__main__')")
        proc = subprocess.run(
            [sys.executable, "-c", code, "classify", "family=hs:-0.5", "N=128"],
            capture_output=True, text=True, timeout=240, env=self.env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stderr) <= 0.03 * workers
