"""The Philox stream against numpy.random, the generator it reproduces.

``npdisclab.philox`` must give the bits of
``np.random.default_rng(np.random.Philox(seed))`` for its two draws, in any
order: ``uniform(low, high, size)`` and the ±1 draw of
``choice((-1.0, 1.0), size)``.  The tests import ``numpy.random`` as the
oracle; the library never does.  Draw scripts mix both kinds, sign counts
odd and even (an odd count leaves half a word to the next sign draw), and
sizes that straddle the stream's refills, at the real block bound and at a
bound of 8 counters.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

import npdisclab  # noqa: E402
from npdisclab import DomainError  # noqa: E402
from npdisclab.philox import Philox, _seed_key  # noqa: E402

EXAMPLES = settings(derandomize=True, max_examples=60, deadline=None)

seeds = st.sampled_from([0, 7, 1999, 2**32 - 1, 2**64 - 1]) | st.integers(0, 2**64 - 1)
shapes = st.integers(0, 150).map(lambda n: (n,)) | st.tuples(st.integers(0, 40), st.integers(1, 9))
scripts = st.lists(st.tuples(st.sampled_from(["u01", "u11", "sign"]), shapes), max_size=8)


def _run(seed, script):
    """Each draw of the script from both generators, as (ours, numpy's) pairs."""
    ours, oracle = Philox(seed), np.random.default_rng(np.random.Philox(seed))
    for kind, shape in script:
        if kind == "sign":
            yield ours.signs(shape), oracle.choice((-1.0, 1.0), size=shape)
        else:
            low = 0.0 if kind == "u01" else -1.0
            yield ours.uniform(low, 1.0, shape), oracle.uniform(low, 1.0, shape)


def _assert_same_bits(seed, script):
    for got, want in _run(seed, script):
        assert got.dtype == want.dtype == np.float64
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**100 + 12345])
def test_key_is_the_seed_sequence_state(seed):
    want = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    assert _seed_key(seed) == tuple(int(k) for k in want)


@EXAMPLES
@given(seeds, scripts)
def test_draws_match_numpy(seed, script):
    _assert_same_bits(seed, script)


@EXAMPLES
@given(seeds, scripts)
def test_draws_match_numpy_at_a_block_bound_of_8(seed, script):
    # refills of at most 8 counters (32 words): most draws take several passes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(npdisclab, "BLOCK_ENTRIES", 8)
        _assert_same_bits(seed, script)


def test_draws_match_numpy_across_full_refills():
    # the extractor's sizes: 65 536 words fill one refill at the real bound
    script = [("u11", (256, 2, 1)), ("sign", (512, 17)), ("u01", (256, 2, 17)),
              ("sign", (512, 18)), ("u01", (70001,)), ("sign", (3,)), ("u01", (5,))]
    _assert_same_bits(7, script)


def test_refills_grow_to_the_block_bound(monkeypatch):
    sizes = []
    original = Philox._blocks
    monkeypatch.setattr(Philox, "_blocks", lambda self, n: sizes.append(n) or original(self, n))
    stream = Philox(0)
    stream.uniform(0.0, 1.0, (400,))  # 100 counters: a short draw computes little ahead
    for _ in range(3):
        stream.signs((999,))  # 500, 499 and 500 words: each refill doubles the last
    stream.uniform(0.0, 1.0, (300_000,))  # a long draw refills at the bound at once
    assert sizes == [100, 200, 400, 16384, 16384, 16384, 16384, 16384]
    assert all(n <= npdisclab.BLOCK_ENTRIES for n in sizes)


def test_output_is_allocated_before_any_block(monkeypatch):
    def refuse(self, n):
        raise AssertionError("a block was computed")

    monkeypatch.setattr(Philox, "_blocks", refuse)
    with pytest.raises(MemoryError):
        Philox(0).uniform(-1.0, 1.0, (2**40, 4))
    with pytest.raises(MemoryError):
        Philox(0).signs((2**40, 4))


def test_negative_seed_is_a_domain_error():
    with pytest.raises(DomainError, match="seed must be a non-negative integer"):
        Philox(-1)
