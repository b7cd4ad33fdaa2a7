"""Shared builders and independent oracles used across the test modules."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from koopnf import ScalarPoly, Spectrum, VectorPoly, check_resonance, multi_indices, series_inverse


def one_d_map() -> tuple[VectorPoly, Spectrum]:
    """The worked 1D system T(x) = 0.5 x + x^2."""
    spec = Spectrum((0.5,))
    t_map = VectorPoly.from_terms(1, [(0, (1,), 0.5), (0, (2,), 1.0)])
    return t_map, spec


def gentle_1d_map() -> tuple[VectorPoly, Spectrum]:
    """A 1D system with a mild quadratic term, invertible on a wide box."""
    spec = Spectrum((0.5,))
    t_map = VectorPoly.from_terms(1, [(0, (1,), 0.5), (0, (2,), 0.1)])
    return t_map, spec


def two_d_map() -> tuple[VectorPoly, Spectrum]:
    """A generic 2D system with eigenvalues (0.5, 0.3) and unit-scale terms."""
    spec = Spectrum((0.5, 0.3))
    t_map = VectorPoly.from_terms(2, [
        (0, (1, 0), 0.5), (1, (0, 1), 0.3),
        (0, (2, 0), 0.9), (0, (1, 1), 0.6), (0, (0, 2), 0.8),
        (1, (2, 0), 0.3), (1, (1, 1), 0.8), (1, (0, 2), 0.9),
        (0, (3, 0), 0.7), (0, (1, 2), 0.5),
        (1, (0, 3), 0.6), (1, (2, 1), 0.4),
    ])
    return t_map, spec


def random_homogeneous(
    dim: int, degree: int, rng: np.random.Generator,
    mag: tuple[float, float] = (0.2, 1.0),
) -> VectorPoly:
    """Dense homogeneous vector polynomial with random complex coefficients."""
    terms = []
    for comp in range(dim):
        for alpha in multi_indices(dim, degree):
            r = rng.uniform(*mag)
            th = rng.uniform(0, 2 * np.pi)
            terms.append((comp, alpha, complex(r * np.cos(th), r * np.sin(th))))
    return VectorPoly.from_terms(dim, terms)


def random_scalar(dim: int, max_degree: int, rng: np.random.Generator,
                  min_degree: int = 0) -> ScalarPoly:
    terms = {}
    for order in range(min_degree, max_degree + 1):
        for alpha in multi_indices(dim, order):
            r = rng.uniform(0.2, 1.0)
            th = rng.uniform(0, 2 * np.pi)
            terms[alpha] = complex(r * np.cos(th), r * np.sin(th))
    return ScalarPoly(dim, terms)


def random_point(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.uniform(-1, 1, dim) + 1j * rng.uniform(-1, 1, dim))


def draw_nonresonant_spectrum(
    dim: int, rng: np.random.Generator, max_order: int,
    min_mu: float = 1e-2, modulus: tuple[float, float] = (0.2, 0.8),
) -> Spectrum:
    """Stable eigenvalues with all homological divisors bounded away from zero."""
    for _ in range(200):
        lams = []
        for _ in range(dim):
            r = rng.uniform(*modulus)
            th = rng.uniform(0, 2 * np.pi)
            lams.append(complex(r * np.cos(th), r * np.sin(th)))
        spec = Spectrum(tuple(lams))
        report = check_resonance(spec, max_order, tol=0.0, near_tol=0.0)
        if report.min_abs_mu >= min_mu:
            return spec
    raise RuntimeError("failed to draw a non-resonant spectrum")


def resonance_oracle_exact(lams: list[Fraction], max_order: int) -> set:
    """Exact brute-force resonance enumeration over rational eigenvalues.

    Independent of the library: iterates exponent tuples via itertools and
    compares lambda^alpha with each eigenvalue in exact rational arithmetic.
    Returns the set of 0-based (j, alpha) resonances with 2 <= |alpha|.
    """
    n = len(lams)
    found = set()
    for order in range(2, max_order + 1):
        for alpha in itertools.product(range(order + 1), repeat=n):
            if sum(alpha) != order:
                continue
            val = Fraction(1)
            for lam, a in zip(lams, alpha):
                val *= lam ** a
            for j in range(n):
                if val == lams[j]:
                    found.add((j, alpha))
    return found


def plant_linearizable_map(
    seed: int, max_degree: int = 5
) -> tuple[Spectrum, VectorPoly, VectorPoly, VectorPoly]:
    """Forward-construct a map conjugate to its linear part by known factors.

    Draws a non-resonant stable 2D spectrum and homogeneous corrections
    Q2, Q3, builds the conjugacy (I+Q2) o (I+Q3) and returns the truncated
    conjugated map together with the planted corrections.
    """
    rng = np.random.default_rng(seed)
    spec = draw_nonresonant_spectrum(2, rng, max_degree)
    q2 = random_homogeneous(2, 2, rng)
    q3 = random_homogeneous(2, 3, rng)
    ident = VectorPoly.identity(2)
    tau_map = (ident + q2).compose(ident + q3, max_degree)
    tau_inv = series_inverse(tau_map, max_degree)
    lam_tau_inv = tau_inv.matrix_apply(np.diag(spec.lambdas))
    t_map = tau_map.compose(lam_tau_inv, max_degree)
    return spec, t_map, q2, q3


def coeff_rel_err(found: VectorPoly, expected: VectorPoly) -> float:
    """Largest coefficient difference relative to the expected scale."""
    diff = (found - expected).max_abs_coeff()
    return diff / max(1.0, expected.max_abs_coeff())


def jacobian_row_sum(q: VectorPoly, x) -> float:
    """Max-norm operator norm of the Jacobian DQ(x): max_j sum_i |dQ_j/dx_i|.

    Differentiates term by term, independently of the package's own bounds.
    """
    x = np.asarray(x, dtype=complex)
    worst = 0.0
    for comp in q.components:
        row = np.zeros(q.dim, dtype=complex)
        for alpha, c in comp.terms.items():
            for i, a in enumerate(alpha):
                if a:
                    lowered = np.array(alpha)
                    lowered[i] -= 1
                    row[i] += c * a * np.prod(x ** lowered)
        worst = max(worst, float(np.sum(np.abs(row))))
    return worst


def complex_bits(values) -> np.ndarray:
    """Raw float64 bits of complex values, so signed zeros and NaNs count."""
    return np.asarray(values, dtype=complex).view(float).view(np.uint64)
