"""The failure contract, fuzzed over every recipe's parameter grammar.

``cli.main`` runs in process on hypothesis draws: small sizes and the size
edges, floats with their edges (nan, infinities, subnormals, overflow),
well-formed and malformed tags, and node lists that are empty, coincide or
leave the disc.  Each run must end in one of the documented exit codes:

- 0 leaves stderr empty and writes at least one row, with nan and inf cells
  only in the columns that document them;
- 3 (``DomainError``, an unreadable file, out of memory) and 5
  (``NotCertifiedError``) leave stdout empty and print exactly one
  ``error:`` line.

Any other exception escapes ``main`` and fails the test, as a numpy warning
does (pyproject turns RuntimeWarning into an error).  A command line cannot
hold a NUL character, so no draw does.
"""

import io
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from npdisclab import cli, sequences
from npdisclab.cli import EXIT_BAD_PARAMETER, EXIT_NOT_CERTIFIED, MAX_SIZE, main
from npdisclab.csvio import read_rows

#: size values outside 1..MAX_SIZE; every one is refused before numpy loads
SIZE_EDGES = ("0", "-1", str(MAX_SIZE + 1), str(2**63), str(10**30), "1.5", "abc", "")

FLOAT_EDGES = ("nan", "inf", "-inf", "1e-300", "5e-324", "1e300", "-1e300", "0", "-0.0",
               "1", "x")

#: the only (recipe, column) cells documented as nan or as infinite: a limit
#: is nan when its doubling verdict is inconclusive (N < 16, say), inf when it
#: diverges up (efp_limit_estimate for growing weights), and efp_agreement is
#: |estimate - 1/mu|, inf once 1/mu overflows
NAN_CELLS = {("classify", "mu"), ("classify", "strictly_cyclic_sup"),
             ("classify", "efp_agreement"), ("classify", "efp_limit_estimate")}
INF_CELLS = {("classify", "mu"), ("classify", "strictly_cyclic_sup"),
             ("classify", "efp_agreement"), ("classify", "efp_limit_estimate")}

#: letters of the tags drawn as free text; without "t" and "u" no draw spells
#: custom:, so none reads a file from the working directory
TAG_ALPHABET = "hardygeomcsinx:.-+0123456789"


def mostly(valid, edges, one_in=6):
    """A draw of ``edges`` (a strategy, or values to sample) once in ``one_in``,
    else of ``valid``; so most runs get past the parameters and into the layers."""
    if not isinstance(edges, st.SearchStrategy):
        edges = st.sampled_from(edges)
    return st.integers(1, one_in).flatmap(lambda i: valid if i > 1 else edges)


def sizes(hi):
    return mostly(st.integers(1, hi).map(str), SIZE_EDGES)


def ints(lo, hi, *edges):
    return mostly(st.integers(lo, hi).map(str), ("abc", *edges))


def floats(lo, hi):
    return mostly(st.floats(lo, hi, exclude_min=True, exclude_max=True).map(repr), FLOAT_EDGES)


def numbered(name, lo, hi):
    return floats(lo, hi).map(lambda v: f"{name}:{v}")


def tags(valid, malformed):
    return mostly(valid, st.sampled_from(malformed) | st.text(TAG_ALPHABET, max_size=12))


def families():
    return tags(st.one_of(st.just("hardy"), numbered("hs", -3.0, 3.0), numbered("geom", 0.0, 0.5)),
                ("hs:", "geom:x", "hs:1:2", "HS:0.5", "geom:0.75", "custom:",
                 "custom:/nonexistent/family.csv"))


def sequence_tags():
    return tags(st.sampled_from(sequences.NAMED_TAGS), ("", "vn", "wn_gaussian "))


def disc_points(radius):
    """Complex text: mostly |z| < radius, else on, beyond or far off the circle."""
    inner = st.builds(lambda r, t: repr(complex(r * math.cos(t), r * math.sin(t))),
                      st.floats(0.0, radius), st.floats(0.0, 2 * math.pi))
    return mostly(inner, ("1", "-1j", "1e200", "(1e308+1e308j)", "nan", "inf", "5e-324", "0",
                          "(0.5+x)"), one_in=20)


@st.composite
def node_lists(draw):
    nodes = draw(st.lists(disc_points(0.999), min_size=draw(mostly(st.just(1), (0,), 10)),
                          max_size=6))
    if nodes and draw(st.integers(0, 9)) == 0:
        nodes.append(nodes[0])  # coincident nodes
    size = draw(mostly(st.just(len(nodes)), st.integers(0, 6), 10))
    targets = draw(st.lists(disc_points(0.99), min_size=size, max_size=size))
    return [f"nodes={';'.join(nodes)}", f"targets={';'.join(targets)}"]


def tokens(required, **optional):
    """key=value tokens: every ``required`` parameter (the sizes, so that none
    is left at a default that costs seconds) and each optional one present or
    left at its default."""
    return st.fixed_dictionaries(required, optional=optional).map(
        lambda d: [f"{k}={v}" for k, v in d.items()])


def grids(*valid):
    return mostly(st.sampled_from(valid), ("100", "128", "384", *SIZE_EDGES))


GRAMMAR = {
    "classify": tokens({"N": sizes(64)}, family=families()),
    "compare": tokens({"N": sizes(64), "family": families(), "family2": families()}),
    "pick-check": st.builds(lambda a, b: a + b, tokens({"N": sizes(32)}, family=families()),
                            node_lists()),
    "interp-extract": tokens({"n": sizes(16), "kmax": ints(1, 6, "0", "51", "-1", str(10**30))},
                             tag=sequence_tags(), r=floats(0.0, 1.0)),
    "crossing": tokens({}, r=floats(0.0, 1.0), C=floats(1.0, 1e6), x=floats(0.0, 0.1)),
    "distortion": tokens({"pairs": sizes(40), "N": sizes(64)},
                         map=tags(numbered("crossing", 0.0, 1.0) | numbered("hs", -3.0, 3.0),
                                  ("hs:", "crossing:", "disc:0.5")),
                         xs=st.lists(floats(-0.2, 1.2), max_size=4).map(";".join)),
    "carleson": tokens({"n": sizes(16)}, tag=sequence_tags(),
                       p_max=ints(1, 1023, "0", "1024", str(10**30))),
    "separation": tokens({"n": sizes(16)}, tag=sequence_tags()),
    "tangential-embed": tokens({"m": grids("256", "512", "1024")}, r=floats(0.6, 1.0)),
    "tangency-report": tokens({"m": grids("256", "1024", "4096")}, r=floats(0.6, 1.0),
                              jmin=ints(-2, 60, str(10**30)), jmax=ints(-2, 60, str(-10**30))),
}


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_grammar_covers_every_recipe():
    assert set(GRAMMAR) == set(cli.RECIPES)


#: a recipe and a draw of its parameters
ARGV = st.sampled_from(sorted(GRAMMAR)).flatmap(lambda r: GRAMMAR[r].map(lambda a: [r, *a]))


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(argv=ARGV)
@example(argv=["pick-check", "nodes=1e200;0.5", "targets=0.5;0"])  # numpy's overflow warning
@example(argv=["tangential-embed", f"m={2**63}"])  # numpy's IndexError on the grid
def test_every_run_keeps_the_contract(argv):
    recipe = argv[0]
    code, out, err = run_main([*argv, "--reproducible"])
    assert code in (0, EXIT_BAD_PARAMETER, EXIT_NOT_CERTIFIED), (code, err)
    if code:
        assert out == ""
        assert err.endswith("\n") and len(err.splitlines()) == 1 and err.startswith("error: ")
        return
    assert err == ""
    doc = read_rows(io.StringIO(out))
    assert doc.rows
    for row in doc.rows:
        for column, cell in zip(doc.columns, row):
            if isinstance(cell, float) and math.isnan(cell):
                assert (recipe, column) in NAN_CELLS, (column, row)
            elif isinstance(cell, float) and math.isinf(cell):
                assert (recipe, column) in INF_CELLS, (column, row)


def test_library_bug_is_not_a_domain_error(monkeypatch):
    # a plain ValueError is a bug in npdisclab, not a rejected input: it
    # escapes main with its traceback instead of passing for exit 3
    def broken(seq, p):
        raise ValueError("bug in the layer")

    monkeypatch.setattr(sequences, "carleson_ratio", broken)
    with pytest.raises(ValueError, match="bug in the layer"):
        run_main(["carleson", "n=4", "p_max=2"])
