"""Spectra, homological divisors, resonance detection, eigencoordinates."""

import math
from fractions import Fraction

import numpy as np
import pytest

from koopnf import (
    DefectiveMatrixError,
    ScalarPoly,
    Spectrum,
    VectorPoly,
    apply_koopman_linear,
    check_resonance,
    eigencoordinates,
    mu,
    multi_indices,
)

from helpers import random_point, random_scalar, resonance_oracle_exact


def test_spectrum_basics():
    spec = Spectrum((0.5, 0.25))
    assert spec.dim == 2
    assert spec.is_stable
    assert spec.power((2, 1)) == pytest.approx(0.0625)
    lam_map = spec.diagonal_map()
    np.testing.assert_allclose(lam_map.evaluate(np.array([1.0, 1.0])), [0.5, 0.25])


def test_spectrum_rejects_zero_eigenvalue():
    with pytest.raises(ValueError):
        Spectrum((0.5, 0.0))


def test_spectrum_stability_flag():
    assert not Spectrum((0.5, 1.0)).is_stable
    assert not Spectrum((1.5,)).is_stable
    assert Spectrum((0.999, 0.5j)).is_stable


def test_mu_worked_values():
    spec = Spectrum((0.5, 0.25))
    # lambda^(2,0) - lambda_2 = 0.25 - 0.25 = 0 (0-based component 1)
    assert mu(1, (2, 0), spec) == pytest.approx(0.0, abs=1e-15)
    # lambda^(2,0) - lambda_1 = 0.25 - 0.5
    assert mu(0, (2, 0), spec) == pytest.approx(-0.25)
    spec2 = Spectrum((0.5, 0.3))
    assert mu(1, (2, 0), spec2) == pytest.approx(-0.05)


def test_mu_validation():
    spec = Spectrum((0.5, 0.25))
    with pytest.raises(ValueError):
        mu(2, (2, 0), spec)
    with pytest.raises(ValueError):
        mu(-1, (2, 0), spec)
    with pytest.raises(ValueError):
        mu(0, (2,), spec)
    with pytest.raises(ValueError):
        mu(0, (0, 0), spec)
    # a negative exponent is not a monomial, even where the order is >= 1
    with pytest.raises(ValueError):
        mu(0, (-1, 3), spec)
    # nor are fractional or boolean exponents, which used to be read as ints
    with pytest.raises(ValueError, match="non-integer entry"):
        mu(0, (1.5, 0.5), spec)
    with pytest.raises(ValueError, match="non-integer entry"):
        mu(0, (True, True), spec)
    assert mu(0, (np.int64(2), np.int64(0)), spec) == mu(0, (2, 0), spec)
    with pytest.raises(ValueError):
        spec.power((-1, 3))


def test_check_resonance_worked_example():
    spec = Spectrum((0.5, 0.25))
    report = check_resonance(spec, 2)
    assert report.resonant
    flagged = [(e.component, e.alpha) for e in report.resonant]
    assert flagged == [(1, (2, 0))]
    assert report.min_abs_mu <= 1e-15
    # entries hold every scanned candidate: 3 exponents, 2 components
    assert len(report.entries) == 6


def test_check_resonance_against_exact_oracle():
    lams = [Fraction(1, 2), Fraction(1, 4)]
    expected = resonance_oracle_exact(lams, 6)
    assert expected == {(1, (2, 0))}  # frozen from the exact enumeration
    spec = Spectrum((0.5, 0.25))
    report = check_resonance(spec, 6)
    flagged = {(e.component, e.alpha) for e in report.resonant}
    assert flagged == expected


def test_check_resonance_nonresonant_case():
    spec = Spectrum((0.5, 0.3))
    lams = [Fraction(1, 2), Fraction(3, 10)]
    assert resonance_oracle_exact(lams, 5) == set()
    report = check_resonance(spec, 5)
    assert not report.resonant
    # the smallest divisor is lambda^(2,0) - lambda_2 = 0.25 - 0.3
    assert report.min_abs_mu == pytest.approx(0.05, abs=1e-12)


def test_check_resonance_candidate_count():
    # every (component, exponent) pair with 2 <= |alpha| <= K is examined;
    # the divisor minimum must therefore match a direct double loop
    spec = Spectrum((0.6, 0.35, 0.2))
    best = math.inf
    count = 0
    for order in range(2, 5):
        for alpha in multi_indices(3, order):
            for j in range(3):
                best = min(best, abs(spec.power(alpha) - spec.lambdas[j]))
                count += 1
    assert count == 3 * sum(math.comb(k + 2, 2) for k in range(2, 5))
    report = check_resonance(spec, 4)
    assert len(report.entries) == count
    assert report.min_abs_mu == pytest.approx(best, rel=1e-12)


def test_check_resonance_near_resonance_warns():
    spec = Spectrum((0.5, 0.25 + 1e-6))
    with pytest.warns(RuntimeWarning):
        report = check_resonance(spec, 2)
    assert not report.resonant
    assert report.min_abs_mu < 1e-4


def test_check_resonance_validation():
    spec = Spectrum((0.5,))
    with pytest.raises(ValueError):
        check_resonance(spec, 1)


def test_apply_koopman_linear_monomials():
    spec = Spectrum((0.5, 0.25))
    x0 = ScalarPoly.variable(2, 0)
    x1 = ScalarPoly.variable(2, 1)
    assert apply_koopman_linear(x0, spec).terms == {(1, 0): 0.5}
    assert apply_koopman_linear(x0 * x1, spec).terms == {(1, 1): 0.125}
    c = ScalarPoly.constant(2, 3.0)
    assert apply_koopman_linear(c, spec).terms == {(0, 0): 3.0}


def test_apply_koopman_linear_is_substitution():
    rng = np.random.default_rng(21)
    spec = Spectrum((0.5 + 0.1j, -0.3))
    p = random_scalar(2, 4, rng)
    q = apply_koopman_linear(p, spec)
    z = random_point(2, rng, 0.7)
    lam_z = np.array(spec.lambdas) * z
    assert abs(q.evaluate(z) - p.evaluate(lam_z)) <= 1e-12 * max(1.0, abs(p.evaluate(lam_z)))


def test_eigencoordinates_diagonal_input():
    a = np.diag([0.5, 0.25])
    spec, v, vinv = eigencoordinates(a)
    assert spec.lambdas == (0.5, 0.25)
    np.testing.assert_allclose(v @ np.diag(spec.lambdas) @ vinv, a, atol=1e-12)


def test_eigencoordinates_complex_pair():
    # characteristic polynomial of [[0, 0.25], [-0.25, 0.3]] is
    # t^2 - 0.3 t + 0.0625 with roots 0.15 +/- 0.2i (frozen by hand)
    a = np.array([[0.0, 0.25], [-0.25, 0.3]])
    disc = 0.3 * 0.3 - 4 * 0.0625
    assert disc == pytest.approx(-0.16)
    spec, v, vinv = eigencoordinates(a)
    got = sorted(spec.lambdas, key=lambda t: t.imag)
    assert got[0] == pytest.approx(0.15 - 0.2j, abs=1e-12)
    assert got[1] == pytest.approx(0.15 + 0.2j, abs=1e-12)
    np.testing.assert_allclose(v @ np.diag(spec.lambdas) @ vinv, a, atol=1e-12)
    np.testing.assert_allclose(v @ vinv, np.eye(2), atol=1e-12)


def test_eigencoordinates_deterministic_normalization():
    a = np.array([[0.2, 0.7], [0.05, 0.4]])
    spec1, v1, _ = eigencoordinates(a)
    spec2, v2, _ = eigencoordinates(a.copy())
    assert spec1.lambdas == spec2.lambdas
    np.testing.assert_array_equal(v1, v2)
    # each column is scaled so its largest entry is real, positive, unit size
    for col in v1.T:
        top = col[np.argmax(np.abs(col))]
        assert top.imag == pytest.approx(0.0, abs=1e-14)
        assert top.real == pytest.approx(1.0, abs=1e-14)


def test_eigencoordinates_sorting_rule():
    a = np.diag([0.1, 0.9, 0.5])
    spec, _, _ = eigencoordinates(a)
    assert spec.lambdas == (0.9, 0.5, 0.1)


def test_eigencoordinates_rejects_defective():
    jordan = np.array([[0.5, 1.0], [0.0, 0.5]])
    with pytest.raises(DefectiveMatrixError):
        eigencoordinates(jordan)


def test_eigencoordinates_rejects_oversized():
    a = np.diag(np.linspace(0.1, 0.9, 17))
    with pytest.raises(ValueError):
        eigencoordinates(a)
