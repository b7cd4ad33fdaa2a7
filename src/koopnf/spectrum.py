"""Eigenvalue bookkeeping: resonance scans and eigencoordinate transforms.

The linear part of every map handled by the pipeline is diagonal with
eigenvalues lambda_1..lambda_n.  The composition operator acts on a monomial
x^alpha by the scalar lambda^alpha = prod lambda_i^alpha_i, and the
homological divisions of the normal-form stages divide by
lambda^alpha - lambda_j; those divisors are what the resonance scan reports.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DefectiveMatrixError
from .polyalg import (MultiIndex, ScalarPoly, VectorPoly, _validate_alpha, monomial_value,
                      multi_indices)

MAX_EIGEN_DIM = 16

DEFAULT_RESONANCE_TOL = 1e-10
# Elimination warns below this divisor; check_resonance's near_tol defaults to it.
DEFAULT_NEAR_RESONANCE_TOL = 1e-4
# Eigenvector condition number above which a linear part counts as defective.
MAX_EIGENVECTOR_CONDITION = 1e8


@dataclass(frozen=True)
class Spectrum:
    """The diagonal linear-part eigenvalues, in pipeline order."""

    lambdas: tuple[complex, ...]

    def __post_init__(self):
        lams = tuple(complex(v) for v in self.lambdas)
        if not lams:
            raise ValueError("need at least one eigenvalue")
        for i, lam in enumerate(lams):
            if lam == 0:
                raise ValueError(f"eigenvalue {i + 1} is zero; the map is not invertible")
        object.__setattr__(self, "lambdas", lams)

    @property
    def dim(self) -> int:
        return len(self.lambdas)

    @property
    def is_stable(self) -> bool:
        """True when every eigenvalue modulus is strictly below 1."""
        return all(abs(lam) < 1 for lam in self.lambdas)

    def power(self, alpha: Sequence[int]) -> complex:
        """The monomial eigenvalue lambda^alpha."""
        return monomial_value(self.lambdas, _validate_alpha(alpha, self.dim))

    def diagonal_map(self) -> VectorPoly:
        return VectorPoly.diagonal(self.lambdas)


class ResonanceEntry(NamedTuple):
    component: int          # 0-based output component j
    alpha: MultiIndex
    mu: complex             # lambda^alpha - lambda_j


@dataclass
class ResonanceReport:
    """Exhaustive scan of homological divisors up to a maximum order."""

    max_order: int
    entries: list[ResonanceEntry]
    min_abs_mu: float
    resonant: list[ResonanceEntry]


def mu(j: int, alpha: Sequence[int], spec: Spectrum) -> complex:
    """Homological divisor lambda^alpha - lambda_j for 0-based component j."""
    if not 0 <= j < spec.dim:
        raise ValueError(f"component index {j} out of range for dim {spec.dim}")
    return spec.power(_validate_alpha(alpha, spec.dim, min_order=1)) - spec.lambdas[j]


def check_resonance(
    spec: Spectrum,
    max_order: int,
    tol: float = DEFAULT_RESONANCE_TOL,
    near_tol: float = DEFAULT_NEAR_RESONANCE_TOL,
) -> ResonanceReport:
    """Scan all (j, alpha) with 2 <= |alpha| <= max_order for small divisors.

    Entries with |mu| <= tol are flagged as resonant; entries strictly
    between tol and near_tol trigger a warning (elimination would divide by
    a dangerously small number but is not aborted).
    """
    if max_order < 2:
        raise ValueError("max_order must be >= 2")
    if tol < 0 or near_tol < tol:
        raise ValueError("need 0 <= tol <= near_tol")
    entries: list[ResonanceEntry] = []
    resonant: list[ResonanceEntry] = []
    min_abs = math.inf
    for order in range(2, max_order + 1):
        for alpha in multi_indices(spec.dim, order):
            lam_alpha = spec.power(alpha)
            for j in range(spec.dim):
                m = lam_alpha - spec.lambdas[j]
                entry = ResonanceEntry(j, alpha, m)
                entries.append(entry)
                min_abs = min(min_abs, abs(m))
                if abs(m) <= tol:
                    resonant.append(entry)
                elif abs(m) < near_tol:
                    warnings.warn(
                        f"near-resonant divisor |mu|={abs(m):.3e} at component "
                        f"{j + 1}, alpha {alpha}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
    return ResonanceReport(max_order, entries, min_abs, resonant)


def apply_koopman_linear(p: ScalarPoly, spec: Spectrum) -> ScalarPoly:
    """Compose a scalar polynomial with the diagonal linear map: p(Lambda x).

    Acts diagonally on the monomial basis: the coefficient of x^alpha is
    multiplied by lambda^alpha.
    """
    if p.dim != spec.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {spec.dim}")
    return ScalarPoly(p.dim, {a: c * spec.power(a) for a, c in p.terms.items()})


def eigencoordinates(matrix) -> tuple[Spectrum, np.ndarray, np.ndarray]:
    """Diagonalize a linear part: A = V diag(lambdas) V^-1.

    Returns (spectrum, V, V_inverse) with eigenvalues in a deterministic
    order (descending modulus, then descending real and imaginary parts) and
    eigenvector columns normalized so the largest entry is real positive.
    Rejects defective or nearly-defective matrices: those whose eigenvector
    condition number exceeds ``MAX_EIGENVECTOR_CONDITION`` (1e8).
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    if n > MAX_EIGEN_DIM:
        raise ValueError(f"dimension {n} exceeds supported maximum {MAX_EIGEN_DIM}")
    lams, vecs = np.linalg.eig(a)

    order = sorted(
        range(n),
        key=lambda i: (-abs(lams[i]), -lams[i].real, -lams[i].imag),
    )
    lams = lams[order]
    vecs = vecs[:, order]
    for k in range(n):
        col = vecs[:, k]
        pivot = col[np.argmax(np.abs(col))]
        if pivot != 0:
            vecs[:, k] = col * (abs(pivot) / pivot) / np.max(np.abs(col))

    cond = np.linalg.cond(vecs)
    if not np.isfinite(cond) or cond > MAX_EIGENVECTOR_CONDITION:
        raise DefectiveMatrixError(
            f"linear part is defective or too close to defective "
            f"(eigenvector condition {cond:.3e} > {MAX_EIGENVECTOR_CONDITION:.3e})",
            condition=float(cond) if np.isfinite(cond) else math.inf,
        )
    vinv = np.linalg.inv(vecs)

    check = vinv @ a @ vecs
    off = check - np.diag(np.diag(check))
    scale = max(np.max(np.abs(a)), 1.0)
    if np.max(np.abs(off)) > 1e-10 * scale:
        raise DefectiveMatrixError(
            "diagonalization residual too large: "
            f"{np.max(np.abs(off)):.3e} relative to scale {scale:.3e}"
        )
    return Spectrum(tuple(lams)), vecs, vinv
