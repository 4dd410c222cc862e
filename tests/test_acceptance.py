"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test prints a PASS line once its assertions hold, so a verbose run
shows one line per criterion.  Run with:  pytest tests/test_acceptance.py -v
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from npdisclab import kernels
from npdisclab.geometry import (
    CrossingCurve,
    EmbeddedDisc,
    PointTable,
    crossing_scalar,
    distortion_profile,
    image_distance,
    pseudo_dist_scalar,
    radial_log_gap_dist,
    tangential_ratio,
    transversality_pairing,
)
from npdisclab.pick import (
    _log_kernel,
    crossing_determinant,
    extract_interpolating_subsequence,
)
from npdisclab.sequences import carleson_ratio, named_sequence
from npdisclab.series import (
    CoefficientSequence,
    weights_by_reciprocal,
    weights_from_moduli,
)
from npdisclab.tangential import (
    ConformalChain,
    TangentialEmbedding,
    harmonic_conjugate,
    tangency_report,
)

from .oracles import (
    _normalized_pick,
    mobius_auto,
    pseudo_dist,
    radial_gap_dist,
    radial_points,
    tangential_point,
)


def _random_moduli_batch(count, n, seed):
    rng = np.random.default_rng(np.random.Philox(seed))
    out = []
    for _ in range(count):
        raw = rng.uniform(0.1, 1.1, n)
        out.append(CoefficientSequence(raw / raw.sum()))
    return out


@pytest.fixture(scope="module")
def moduli_batch():
    return _random_moduli_batch(50, 200, seed=101)


@pytest.fixture(scope="module")
def weight_batch(moduli_batch):
    return [weights_from_moduli(c, 200).values for c in moduli_batch]


@pytest.fixture(scope="module")
def fine_embedding():
    return TangentialEmbedding(ConformalChain(0.75), 2**18)


def test_criterion_01_recursion_matches_reciprocal(moduli_batch, weight_batch):
    for c, av in zip(moduli_batch, weight_batch):
        oracle = weights_by_reciprocal(c, 200)
        rel = np.max(np.abs(av - oracle) / np.abs(av))
        assert rel < 1e-12
    print("\nACCEPTANCE 1 PASS: recursion vs series-reciprocal, 50 sequences, 1e-12 relative")


def test_criterion_02_supermultiplicativity(weight_batch):
    for av in weight_batch:
        n = av.size - 1
        for k in range(n + 1):
            assert np.all(av[k] * av[: n + 1 - k] <= av[k:] * (1.0 + 1e-12))
    print("\nACCEPTANCE 2 PASS: a_k a_n <= a_{n+k} for k+n <= 200, 50 sequences")


def test_criterion_03_renewal_limit_geometric():
    k = kernels.geometric(0.5, 256)
    assert np.all(k.weights.values[1:] == 0.5)
    rep = kernels.classify(k)
    assert rep.mu == pytest.approx(2.0, abs=1e-12)
    assert abs(rep.efp_limit_estimate - 0.5) < 1e-10
    assert rep.iso_to_hinf
    print("\nACCEPTANCE 3 PASS: geometric moduli give a_n = 1/2 exactly, mu = 2, limit 1/2")


def test_criterion_04_power_weight_scale():
    for s in (0.0, -0.25, -0.5, -0.75, -1.0):
        k = kernels.hs(s, 512)
        assert k.moduli.values.min() >= -1e-12, f"s={s}"
    rep = kernels.classify(kernels.hs(-2.0, 4096))
    assert rep.moduli_mass < 1.0
    assert rep.compact_regime
    assert math.isfinite(rep.strictly_cyclic_sup)
    print("\nACCEPTANCE 4 PASS: s in [-1, 0] complete-Pick at N=512; s=-2 compact, strictly cyclic")


def test_criterion_05_automorphism_identities():
    rng = np.random.default_rng(np.random.Philox(105))

    def sample(dim):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        return v * 0.9 * rng.uniform() ** 0.25

    for dim in (2, 4):
        worst_norm, worst_inv = 0.0, 0.0
        for _ in range(1000):
            w, z, y = sample(dim), sample(dim), sample(dim)
            worst_norm = max(worst_norm, abs(np.linalg.norm(mobius_auto(w, z))
                                             - pseudo_dist(PointTable([z, w]))))
            lhs = pseudo_dist(PointTable([mobius_auto(w, z), mobius_auto(w, y)]))
            worst_inv = max(worst_inv, abs(lhs - pseudo_dist(PointTable([z, y]))))
        assert worst_norm < 1e-12, f"dim={dim}"
        assert worst_inv < 1e-10, f"dim={dim}"
    print("\nACCEPTANCE 5 PASS: ||phi_w(z)|| = d(z,w) to 1e-12; invariance to 1e-10 (C^2, C^4)")


def test_criterion_06_sequence_distance_formulas():
    for n in range(2, 101):
        d = radial_gap_dist(1.0 / n**2, 1.0 / (n + 1) ** 2)
        assert abs(d - (2.0 * n + 1.0) / (2.0 * n**2 + 2.0 * n)) < 1e-14
        dw = radial_log_gap_dist(-float(n**2), -float((n + 1) ** 2))
        e = math.exp(-(2.0 * n + 1.0))
        tiny = math.exp(-((n + 1.0) ** 2)) if (n + 1) ** 2 < 745 else 0.0
        expected = (1.0 - e) / (1.0 + e - tiny)
        assert abs(dw - expected) < 1e-14
    print("\nACCEPTANCE 6 PASS: quadratic and gaussian neighbour distances match closed forms to 1e-14")


def test_criterion_07_crossing_obstruction():
    for r in (0.3, 0.5, 0.7):
        for big_c in (1.5, 2.0, 5.0, 20.0):
            res = crossing_determinant(r, big_c, 1e-4)
            assert res.det < 0.0, (r, big_c)
        assert abs(crossing_determinant(r, 2.0, 1e-4).kernel_ratio - 1.0) < 0.05
    print("\nACCEPTANCE 7 PASS: 2x2 determinant negative on the r x C grid; kernel ratio within 0.05 of 1")


def test_criterion_08_crossing_distortion():
    curve = CrossingCurve(0.5)
    s = crossing_scalar(curve)
    img, src = [], []
    for x in (1e-2, 1e-3, 1e-4):
        lam, mu = 1.0 - x, -1.0 + s * x
        src.append(pseudo_dist_scalar(lam, mu))
        img.append(image_distance(curve, lam, mu))
    assert img[0] > img[1] > img[2]
    assert img[2] < 0.2
    assert all(v > 0.99 for v in src)
    print("\nACCEPTANCE 8 PASS: image pinch distances decrease below 0.2 while source distances exceed 0.99")


def test_criterion_09_transversality_pairing():
    for r in (0.3, 0.5, 0.7):
        curve = CrossingCurve(r)
        pair = complex(np.dot(curve.deriv(1.0), np.conj(curve.coords(1.0)))).real
        assert abs(pair - 2.0 / (1.0 - r)) < 1e-10
    curve = CrossingCurve(0.5)
    for t in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
        assert transversality_pairing(curve, t) > 0.0
    print("\nACCEPTANCE 9 PASS: <f'(1), f(1)> = 2/(1-r) to 1e-10; pairing positive at 64 angles")


def test_criterion_10_extractor_soundness():
    table = radial_points([math.exp(-float(n * n)) for n in range(1, 13)])
    start = time.monotonic()
    res = extract_interpolating_subsequence(table, 0.5, 10)
    idx = np.array(res.indices)
    blocks = [_log_kernel(table, idx[:k, None], idx[None, :k]) for k in range(1, 11)]
    rng = np.random.default_rng(np.random.Philox(110))
    for _ in range(500):
        mag = 0.5 * np.sqrt(rng.uniform(size=10))
        w = mag * np.exp(2j * np.pi * rng.uniform(size=10))
        for k in range(1, 11):
            b = _normalized_pick(blocks[k - 1], w[:k])
            # unit-diagonal congruence: the matrix scale is its diagonal
            assert np.linalg.eigvalsh(b).min() > 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 10 PASS: nested blocks positive-definite for 500 targets in {elapsed:.2f}s")


def test_criterion_11_carleson_unbounded():
    seq = named_sequence("dyadic_separated", 20)
    for p in range(1, 11):
        assert carleson_ratio(seq, p) >= p + 1
    print("\nACCEPTANCE 11 PASS: dyadic box ratios reach p + 1 for p = 1..10 in exact dyadic arithmetic")


def test_criterion_12_tangential_embedding(fine_embedding):
    grid = TangentialEmbedding(ConformalChain(0.75), 4096)
    defect = grid.sphere_defect()
    assert np.max(np.abs(defect[1:])) < 1e-8
    rep = tangency_report(fine_embedding, 4, 14)
    assert rep.ratio1_decreasing
    assert rep.ratio2_increasing
    rng = np.random.default_rng(np.random.Philox(112))
    m = 2048
    t = 2.0 * math.pi * np.arange(m) / m
    u = np.zeros(m)
    for k in range(1, m // 4):
        u += rng.normal() * np.cos(k * t) + rng.normal() * np.sin(k * t)
    twice = harmonic_conjugate(harmonic_conjugate(u))
    assert np.max(np.abs(twice + u)) < 1e-12 * np.abs(u).max()
    print("\nACCEPTANCE 12 PASS: sphere defect < 1e-8 at m=4096; ratios monotone j=4..14; involution 1e-12")


def test_criterion_13_power_weight_tangency_exponents():
    for s in (-0.25, -0.5, -0.75):
        curve = EmbeddedDisc(kernels.hs(s, 512))
        xs, r1 = [], []
        for j in range(6, 17):
            x = 1.0 - 2.0**-j
            r1.append(tangential_ratio(curve, x)[0])
            xs.append(1.0 - x)
        slope = np.polyfit(np.log(xs), np.log(r1), 1)[0]
        assert abs(slope - (1.0 + s) / 2.0) < 0.05, f"s={s}, slope={slope}"
    print("\nACCEPTANCE 13 PASS: ratio1 log-log slope recovers (1+s)/2 within 0.05 for three exponents")


def test_criterion_14_schwarz_pick_contraction(fine_embedding):
    rng = np.random.default_rng(np.random.Philox(114))

    def disc_point(radius=0.9):
        return radius * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())

    curves = {
        "crossing:0.5": CrossingCurve(0.5),
        "hs:-0.5": EmbeddedDisc(kernels.hs(-0.5, 512)),
        "hs:-2": EmbeddedDisc(kernels.hs(-2.0, 512)),
    }
    checked = 0
    for name, curve in curves.items():
        for _ in range(250):
            lam, mu = disc_point(), disc_point()
            prof = distortion_profile(curve, [(lam, mu)])
            assert prof.ratio_max <= 1.0 + 1e-10, name
            checked += 1
    # the assembled tangential map, pulled back to a safely resolved radius
    for _ in range(250):
        lam, mu = disc_point(), disc_point()
        d_src = pseudo_dist_scalar(lam, mu)
        d_img = pseudo_dist(PointTable([tangential_point(fine_embedding, 0.9 * lam),
                                        tangential_point(fine_embedding, 0.9 * mu)]))
        assert d_img <= d_src * (1.0 + 1e-10)
        checked += 1
    assert checked == 1000
    print("\nACCEPTANCE 14 PASS: contraction d(F(l), F(m)) <= d(l, m) on 1000 pairs, four maps")


def test_criterion_15_cli_determinism(tmp_path):
    from .test_cli import RECIPE_ARGS

    for name, args in sorted(RECIPE_ARGS.items()):
        out1, out2 = tmp_path / f"{name}-1.csv", tmp_path / f"{name}-2.csv"
        for out in (out1, out2):
            proc = subprocess.run(
                [sys.executable, "-m", "npdisclab", name, *args,
                 "--seed", "3", "--reproducible", "--out", str(out)],
                capture_output=True,
                text=True,
                timeout=240,
            )
            assert proc.returncode == 0, (name, proc.stderr)
        assert out1.read_bytes() == out2.read_bytes(), name
    print("\nACCEPTANCE 15 PASS: all ten recipes byte-identical across reproducible runs")
