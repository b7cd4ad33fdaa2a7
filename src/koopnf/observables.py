"""Observables pulled back through the inverse conjugacy, and a density demo.

A polynomial in the linearizing coordinates composed with the inverse
conjugacy is an observable of the original dynamics; monomials become
approximate eigenfunctions and products of generators stay inside the same
function algebra.  ``density_demo`` illustrates the approximation power of
that algebra by least-squares fitting a continuous target on a compact box
with pulled-back polynomials of growing degree.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Sequence

import numpy as np

from .normalform import NormalFormSequence
from .numerics import DEFAULT_MAX_ITER, DEFAULT_POINT_TOL, tau_inverse_many, tau_inverse_pointwise
from .polyalg import MultiIndex, ScalarPoly, _monomial_rows, grlex_key, multi_indices

DENSITY_MAX_DIM = 2
DEFAULT_GRID_POINTS = 41
DEFAULT_CONDITION_LIMIT = 1e10


@dataclass
class PullbackObservable:
    """A polynomial observable composed with the order-m inverse conjugacy.

    When ``with_constant`` is False the polynomial must have no constant
    term, so the observable vanishes exactly at the fixed point.
    """

    f: ScalarPoly
    m: int
    seq: NormalFormSequence
    with_constant: bool = True

    def __post_init__(self):
        if self.f.dim != self.seq.spec.dim:
            raise ValueError(
                f"dimension mismatch: observable dim {self.f.dim}, map dim {self.seq.spec.dim}"
            )
        self.seq.check_order(self.m)
        if not self.with_constant and self.f.coefficient((0,) * self.f.dim) != 0:
            raise ValueError(
                "observable has a constant term but was declared origin-vanishing"
            )


def pullback_eval(
    obs: PullbackObservable,
    x: Sequence[complex],
    tol: float = DEFAULT_POINT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> complex:
    """Evaluate the observable: f at the pulled-back point."""
    z = tau_inverse_pointwise(obs.seq, obs.m, x, tol, max_iter)
    return obs.f.evaluate(z)


def conjugate_in_algebra(f: ScalarPoly, pairing: Iterable[tuple[int, int]]) -> ScalarPoly:
    """Complex conjugation inside the coordinate polynomial algebra.

    ``pairing`` lists the 0-based index pairs whose coordinates are complex
    conjugates of each other; indices not mentioned are real directions.
    Coefficients are conjugated and exponents are swapped within each pair,
    so on points respecting the pairing the result evaluates to the
    conjugate of the original.  The operation is an involution.
    """
    n = f.dim
    swap = list(range(n))
    seen: set[int] = set()
    for i, j in pairing:
        i, j = int(i), int(j)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"pair ({i}, {j}) out of range for dim {n}")
        if i == j:
            raise ValueError(f"pair ({i}, {j}) repeats an index")
        if i in seen or j in seen:
            raise ValueError(f"index reused across pairs: ({i}, {j})")
        seen.update((i, j))
        swap[i], swap[j] = j, i
    terms = {}
    for alpha, c in f.terms.items():
        beta = tuple(alpha[swap[k]] for k in range(n))
        terms[beta] = terms.get(beta, 0j) + c.conjugate()
    return ScalarPoly(n, terms)


@dataclass
class DensityRow:
    degree: int
    sup_error: float
    condition: float
    flagged: bool


@dataclass
class DensityTable:
    """Sup-norm fit errors by degree, with conditioning diagnostics."""

    rows: list[DensityRow]
    monotonicity_violations: int

    def sup_error(self, degree: int) -> float:
        for row in self.rows:
            if row.degree == degree:
                return row.sup_error
        raise KeyError(f"no row for degree {degree}")


def density_demo(
    target: Callable[[np.ndarray], complex],
    max_degree: int,
    seq: NormalFormSequence,
    m: int,
    box: Sequence[tuple[float, float]],
    grid_points: int = DEFAULT_GRID_POINTS,
    with_constant: bool = True,
    tol: float = DEFAULT_POINT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    condition_limit: float = DEFAULT_CONDITION_LIMIT,
) -> DensityTable:
    """Least-squares fits of a continuous target by pulled-back polynomials.

    The fit basis at degree d consists of all monomials of total degree at
    most d in the pulled-back coordinate generators, evaluated on a regular
    real grid over ``box``.  For each degree the sup error over the grid is
    reported together with the design-matrix condition number; fits whose
    condition exceeds ``condition_limit`` are flagged but still reported.

    The box must sit inside the region where the factor inversions converge.
    Grid points outside the certified radius ``seq.min_epsilon(m)`` are
    counted up front and reported in one RuntimeWarning; they are still
    tried.  If any inversion fails, one ValueError reports how many failed
    and the first that did.
    """
    n = seq.spec.dim
    if n > DENSITY_MAX_DIM:
        raise ValueError(f"density demo supports dim <= {DENSITY_MAX_DIM}")
    seq.check_order(m)
    if len(box) != n:
        raise ValueError(f"box has {len(box)} axes, expected {n}")
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    for lo, hi in box:
        if not lo < hi:
            raise ValueError(f"empty box axis ({lo}, {hi})")

    axes = [np.linspace(lo, hi, grid_points) for lo, hi in box]
    grid = [np.array(pt, dtype=float) for pt in product(*axes)]
    eps = seq.min_epsilon(m)
    outside = int(np.count_nonzero(np.max(np.abs(grid), axis=1) > eps))
    if outside:
        warnings.warn(
            f"{outside} of {len(grid)} grid points lie outside the inversion radius "
            f"epsilon {eps:g}; their inversions may fail",
            RuntimeWarning,
            stacklevel=2,
        )

    pulled, failures = tau_inverse_many(seq, m, np.array(grid).astype(complex), tol, max_iter)
    if failures:
        first, failure = next(iter(failures.items()))
        exc = failure.error()
        raise ValueError(
            f"generator evaluation failed at {len(failures)} of {len(grid)} grid points, "
            f"first at {grid[first].tolist()}: {exc}; shrink the box toward the fixed point"
        ) from exc
    targets = np.array([complex(target(pt)) for pt in grid])

    min_degree = 0 if with_constant else 1
    betas: list[MultiIndex] = []
    for order in range(min_degree, max_degree + 1):
        betas.extend(multi_indices(n, order))
    betas.sort(key=grlex_key)
    columns, _ = _monomial_rows(pulled, betas)

    rows: list[DensityRow] = []
    violations = 0
    prev_err = None
    for degree in range(max(min_degree, 0), max_degree + 1):
        take = [i for i, beta in enumerate(betas) if sum(beta) <= degree]
        design = columns[:, take]
        coeffs, *_ = np.linalg.lstsq(design, targets, rcond=None)
        fit = design @ coeffs
        sup_err = float(np.max(np.abs(targets - fit)))
        svals = np.linalg.svd(design, compute_uv=False)
        condition = float("inf") if svals[-1] == 0 else float(svals[0] / svals[-1])
        flagged = condition > condition_limit
        rows.append(DensityRow(degree, sup_err, condition, flagged))
        if prev_err is not None and sup_err > prev_err * (1 + 1e-9):
            violations += 1
        prev_err = sup_err
    return DensityTable(rows, violations)
