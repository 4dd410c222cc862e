"""Known wrong or refused answers, one strict-xfail test each.

Each test asserts the right answer and names the ROADMAP item that tracks
the defect.  A change that fixes one sees its test XPASS, which fails under
pyproject.toml's ``xfail_strict``; it then removes the marker.  A change
that breaks a fixed answer again sees a plain failure, and so does a test
that fails by anything but an ``assert`` (``raises=AssertionError``).
"""

import math

import mpmath
import pytest

from npdisclab.cli import EXIT_OK, main
from npdisclab.csvio import read_rows


def _run(tmp_path, *argv):
    """(exit code, parsed CSV or None) of one in-process recipe run."""
    out = tmp_path / "out.csv"
    code = main([*argv, "--reproducible", "--out", str(out)])
    if code != EXIT_OK:
        return code, None
    with out.open(encoding="utf-8") as stream:
        return code, read_rows(stream)


def _column(doc, name):
    return [row[doc.columns.index(name)] for row in doc.rows]


def _complex_list(values):
    return ";".join(repr(complex(v)) for v in values)


@pytest.mark.xfail(raises=AssertionError, reason="ROADMAP item 2")
def test_six_node_pick_example_is_not_solvable(tmp_path):
    # targets (1 + eps) B(z_i) of a degree-2 Blaschke product: for every
    # eps > 0 the Pick matrix is indefinite, so no interpolant exists
    nodes = [0.1, 0.5j, -0.3 + 0.2j, 0.6 - 0.1j, -0.5 - 0.4j, 0.2 + 0.7j]
    a = 0.4 + 0.2j
    targets = [(1.0 + 1e-12) * z * (z - a) / (1.0 - a.conjugate() * z) for z in nodes]
    code, doc = _run(tmp_path, "pick-check", "family=hardy",
                     f"nodes={_complex_list(nodes)}", f"targets={_complex_list(targets)}")
    assert code == EXIT_OK
    assert _column(doc, "solvable") == [False]


@pytest.mark.xfail(raises=AssertionError, reason="ROADMAP item 3")
def test_steep_power_weights_keep_a_finite_strictly_cyclic_sup(tmp_path):
    # the true sup is 2.1001, reached at n <= 4
    code, doc = _run(tmp_path, "classify", "family=hs:-8", "N=4096")
    assert code == EXIT_OK
    assert math.isfinite(_column(doc, "strictly_cyclic_sup")[0])


@pytest.mark.xfail(raises=AssertionError, reason="ROADMAP item 5")
def test_hs_one_is_classified_past_the_direct_inversion(tmp_path):
    # the Newton moduli are within 4.7e-11 of the exact (2, -1, 0, ...)
    code, doc = _run(tmp_path, "classify", "family=hs:1", "N=16384")
    assert code == EXIT_OK
    assert _column(doc, "cnp") == [False]


@pytest.mark.xfail(raises=AssertionError, reason="ROADMAP item 6")
def test_defaults_are_recorded_in_the_header(tmp_path):
    code, doc = _run(tmp_path, "crossing")
    assert code == EXIT_OK
    assert any(line.startswith("param x = ") for line in doc.comments)


@pytest.mark.xfail(raises=AssertionError, reason="ROADMAP item 10")
def test_ratio1_stays_positive_past_the_grid(tmp_path):
    # ratio1 lies in (0, 1]; the 1024-point grid cannot resolve 2^-18
    code, doc = _run(tmp_path, "tangency-report", "m=1024", "jmax=18")
    assert code == EXIT_OK
    assert all(value > 0.0 for value in _column(doc, "ratio1"))


@pytest.mark.xfail(raises=AssertionError, reason="ROADMAP item 11")
def test_crossing_defect_survives_a_tiny_pinch(tmp_path):
    # 1 - kernel_ratio is about 2x
    code, doc = _run(tmp_path, "crossing", "x=1e-12")
    assert code == EXIT_OK
    assert _column(doc, "kernel_ratio")[0] < 1.0


@pytest.mark.xfail(raises=AssertionError, reason="ROADMAP item 13")
def test_gaussian_extraction_past_underflowed_gaps(tmp_path):
    # w_28 = 1 - e^-784 has a gap that underflows; its log-gap does not
    code, _ = _run(tmp_path, "interp-extract", "tag=wn_gaussian", "n=28")
    assert code == EXIT_OK


@pytest.mark.xfail(raises=AssertionError, reason="ROADMAP item 16")
def test_negative_modulus_is_not_complete_pick(tmp_path):
    # moduli 0.5^n with c_5 = -1e-11; the weights a_n = sum_k c_k a_{n-k}
    # come from a 60-digit recursion, rounded to doubles
    n_max = 64
    with mpmath.workdps(60):
        c = [mpmath.mpf(0)] + [mpmath.mpf(2) ** -n for n in range(1, n_max + 1)]
        c[5] = mpmath.mpf("-1e-11")
        a = [mpmath.mpf(1)]
        for n in range(1, n_max + 1):
            a.append(mpmath.fsum(c[k] * a[n - k] for k in range(1, n + 1)))
        rows = "".join(f"{n},{float(value)!r}\n" for n, value in enumerate(a))
    path = tmp_path / "weights.csv"
    path.write_text("n,value\n" + rows, encoding="utf-8")
    code, doc = _run(tmp_path, "classify", f"family=custom:{path}", f"N={n_max}")
    assert code == EXIT_OK
    assert _column(doc, "cnp") == [False]


def test_tangential_row_zero_is_the_map_or_named_as_the_truncation(tmp_path):
    # F(1) = (1, 0): row t = 0 prints the map's value there, not the
    # truncated f_2's; either that or a comment naming the truncation passes
    code, doc = _run(tmp_path, "tangential-embed", "m=256")
    assert code == EXIT_OK
    assert _column(doc, "t")[0] == 0.0
    abs_f2, defect = _column(doc, "abs_f2")[0], _column(doc, "sphere_defect")[0]
    at_the_map = abs(abs_f2) <= 1e-12 and abs(defect) <= 1e-12
    named = any("trunc" in line and (repr(abs_f2) in line or repr(defect) in line)
                for line in doc.comments)
    assert at_the_map or named
