"""Heavy scipy submodules load only on the code path that needs them."""

import cmath
import math
import subprocess
import sys


def _nodes(count):
    # distinct points inside the disc of radius 0.9
    return ";".join(
        repr(0.9 * math.sqrt((k + 1) / count) * cmath.exp(2.4j * k)) for k in range(count)
    )


def _scipy_modules_after(code):
    script = (
        f"{code}\n"
        "import sys\n"
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=240
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _pick_check(count, out):
    nodes = _nodes(count)
    argv = ["pick-check", "family=hardy", f"nodes={nodes}", f"targets={nodes}",
            "N=64", "--out", str(out)]
    return f"from npdisclab.cli import main\nassert main({argv!r}) == 0"


def test_cli_import_loads_no_scipy():
    assert _scipy_modules_after("import npdisclab.cli") == set()


def test_eigvalsh_pick_check_loads_no_scipy(tmp_path):
    # 200 nodes is the largest matrix psd_check sends to numpy's eigvalsh
    assert _scipy_modules_after(_pick_check(200, tmp_path / "p.csv")) == set()


def test_pivoted_cholesky_pick_check_loads_scipy_linalg(tmp_path):
    assert "scipy.linalg" in _scipy_modules_after(_pick_check(201, tmp_path / "p.csv"))
