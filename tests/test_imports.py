"""No runtime path loads scipy, and each recipe loads only its own layers."""

import cmath
import json
import math
import subprocess
import sys

from .test_cli import RECIPE_ARGS


def _nodes(count):
    # distinct points inside the disc of radius 0.9
    return ";".join(
        repr(0.9 * math.sqrt((k + 1) / count) * cmath.exp(2.4j * k)) for k in range(count)
    )


def _run_child(code):
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=240
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _scipy_modules_after(code):
    script = (
        f"{code}\n"
        "import sys\n"
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    return set(_run_child(script).split())


def _pick_check_argv(count):
    nodes = _nodes(count)
    return ["pick-check", "family=hardy", f"nodes={nodes}", f"targets={nodes}", "N=64"]


def _pick_check(count, out):
    argv = [*_pick_check_argv(count), "--out", str(out)]
    return f"from npdisclab.cli import main\nassert main({argv!r}) == 0"


def test_cli_import_loads_no_scipy():
    assert _scipy_modules_after("import npdisclab.cli") == set()


def test_eigvalsh_pick_check_loads_no_scipy(tmp_path):
    # 200 and 201 nodes straddle the size where psd_check used to turn to scipy
    for count in (200, 201, 500):
        assert _scipy_modules_after(_pick_check(count, tmp_path / "p.csv")) == set(), count


def _recipe_outputs(block_scipy):
    """(exit code, stdout) of every RECIPE_ARGS run and a 500-node pick-check."""
    runs = {name: [name, *args, "--reproducible"] for name, args in RECIPE_ARGS.items()}
    runs["pick-check-500"] = [*_pick_check_argv(500), "--reproducible"]
    script = (
        "import contextlib, io, json, sys\n"
        + ("sys.modules['scipy'] = None  # any scipy import now raises\n" if block_scipy else "")
        + "from npdisclab.cli import main\n"
        "results = {}\n"
        f"for name, argv in {runs!r}.items():\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        code = main(argv)\n"
        "    results[name] = [code, buf.getvalue()]\n"
        "print(json.dumps(results))\n"
    )
    return json.loads(_run_child(script))


def test_recipes_run_without_scipy():
    blocked = _recipe_outputs(block_scipy=True)
    normal = _recipe_outputs(block_scipy=False)
    assert len(blocked) == 11
    for name, (code, out) in blocked.items():
        assert code == 0, name
        assert out == normal[name][1], name


#: library modules each RECIPE_ARGS run loads besides cli and csvio; only
#: distortion's random pairs load net, and no run loads numpy.random (the
#: net is numpy uint64 arithmetic) or dataclasses (every record is a
#: NamedTuple)
RECIPE_IMPORTS = {
    "classify": {"kernels", "series"},
    "compare": {"kernels", "series"},
    "pick-check": {"geometry", "kernels", "pick", "series"},
    "interp-extract": {"geometry", "pick", "sequences"},
    "crossing": {"geometry", "pick"},
    "distortion": {"geometry", "net"},
    "carleson": {"geometry", "sequences"},
    "separation": {"geometry", "sequences", "series"},
    "tangential-embed": {"tangential"},
    "tangency-report": {"tangential"},
}


def _loaded_after(code):
    """(npdisclab submodules, whether numpy.random is loaded, whether
    dataclasses is loaded) after ``code``."""
    script = (
        f"{code}\n"
        "import json, sys\n"
        "mods = [m[10:] for m in sys.modules if m.startswith('npdisclab.')]\n"
        "print(json.dumps([mods, 'numpy.random' in sys.modules, 'dataclasses' in sys.modules]))\n"
    )
    mods, loaded_random, loaded_dataclasses = json.loads(_run_child(script).splitlines()[-1])
    return set(mods), loaded_random, loaded_dataclasses


def test_cli_import_loads_no_layer_and_no_numpy():
    # the catalog, --help and command-line errors answer from this import alone
    assert _loaded_after("import npdisclab.cli") == ({"cli"}, False, False)
    assert _run_child("import sys, npdisclab.cli\nprint('numpy' in sys.modules)") == "False\n"


def _recipe_run(argv):
    argv = [*argv, "--reproducible", "--out", "/dev/null"]
    return f"from npdisclab.cli import main\nassert main({argv!r}) == 0"


def test_each_recipe_loads_only_its_layers():
    assert set(RECIPE_IMPORTS) == set(RECIPE_ARGS)
    for name, layers in RECIPE_IMPORTS.items():
        loaded = _loaded_after(_recipe_run([name, *RECIPE_ARGS[name]]))
        assert loaded == ({"cli", "csvio", *layers}, False, False), name


def test_pinch_pair_distortion_draws_nothing():
    loaded = _loaded_after(_recipe_run(["distortion", "map=crossing:0.5", "xs=0.05;0.2"]))
    assert loaded == ({"cli", "csvio", "geometry"}, False, False)


def test_extraction_past_the_corner_cap_loads_no_more_layers():
    # stage 11 enumerates the 2^9 corner classes of its 10 targets; stage 12
    # has 2^10 > _CORNER_CAP classes and samples _CORNER_CAP of them
    argv = ["interp-extract", "tag=wn_gaussian", "n=14", "r=0.5"]
    layers = {"cli", "csvio", "geometry", "pick", "sequences"}
    assert _loaded_after(_recipe_run([*argv, "kmax=11"])) == (layers, False, False)
    assert _loaded_after(_recipe_run([*argv, "kmax=12"])) == (layers, False, False)
