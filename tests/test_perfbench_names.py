"""perfbench's traced pass finds its spans by src name; every name resolves.

``perfbench/layers.py`` names the functions it times and counts in
``SELF_TIMES``, ``CALL_COUNTS``, ``SPAN_OF`` and ``GROWTH``.  A metric whose
name no src attribute carries reads 0 at every commit, so a src rename
that orphans one fails here, not in a later benchmark run.  ``ORPHANS``
lists the names already orphaned; one that resolves again leaves the list.
The growth pass also rebuilds each problem at half size, which needs the
Pick nodes to support row selection.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from npdisclab import kernels
from npdisclab.pick import PickProblem
from npdisclab.sequences import named_sequence

PERFBENCH = Path(__file__).parent.parent / "perfbench"

#: the perfbench modules ``layers`` imports by top-level name
PERFBENCH_MODULES = ("layers", "checks", "spans", "workloads")

#: span names no src attribute carries: removed from src or moved to
#: tests/oracles.py (ROADMAP item 21 deletes their metrics)
ORPHANS = {
    "geometry.hs_embedding",
    "tangential.assemble_embedding",
    "sequences.separation_delta",
    "geometry.one_minus_inner",
    "geometry.GeneralCurve.inner",
}


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    saved = {name: sys.modules.pop(name) for name in PERFBENCH_MODULES if name in sys.modules}
    yield importlib.import_module("layers")
    for name in PERFBENCH_MODULES:
        sys.modules.pop(name, None)
    sys.modules.update(saved)


def _resolves(span: str) -> bool:
    """Whether ``layer.Name`` or ``layer.Class.method`` is an attribute of npdisclab.layer."""
    layer, *path = span.split(".")
    obj = importlib.import_module(f"npdisclab.{layer}")
    for attr in path:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_metric_name_resolves_or_is_a_known_orphan(layers):
    metrics = {*layers.SELF_TIMES, *layers.CALL_COUNTS, *layers.GROWTH}
    spans = {layers.SPAN_OF.get(m, m) for m in metrics} | set(layers.SPAN_OF.values())
    assert {span for span in spans if not _resolves(span)} == ORPHANS


def test_halved_problems_are_built_from_the_first_rows(layers):
    rng = np.random.default_rng(np.random.Philox(48))
    nodes = 0.9 * np.sqrt(rng.uniform(size=9)) * np.exp(2j * np.pi * rng.uniform(size=9))
    problem = PickProblem(nodes, 0.3 * nodes, kernels.hardy(64))
    mods = {name: importlib.import_module(f"npdisclab.{name}") for name in layers.LAYERS}
    (half,) = layers._halved("pick.pick_matrix", (problem,), mods)
    assert half.size == 4 and half.kernel is problem.kernel
    assert np.array_equal(half.nodes.coords, problem.nodes.coords[:4])
    assert np.array_equal(half.targets, problem.targets[:4])

    seq = named_sequence("wn_gaussian", 9)
    (half,) = layers._halved("sequences.garnett_targets", (seq,), mods)
    assert half.n == 4 and np.array_equal(half.log_gaps, seq.log_gaps[:4])
    for column in ("coords", "gaps", "radial_gaps"):
        assert np.array_equal(getattr(half.table, column), getattr(seq.table, column)[:4]), column
