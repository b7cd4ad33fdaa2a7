"""Pointwise inversion of the stage transforms and empirical order studies.

The series-level work in ``normalform`` produces polynomial factors
Phi_m = I + Q_m.  Inverting those at a point is a contraction fixed-point
iteration x <- y - Q_m(x); chaining the factor inversions evaluates the
inverse conjugacy without ever forming its (non-polynomial) series.  On top
of that sit the empirical studies: residual decay of approximate
eigenfunctions and the asymptotic quality of the one-term inverse, both
measured as log-log slopes over shrinking sample spheres.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConvergenceError
from .normalform import NormalFormSequence
from .polyalg import MultiIndex, VectorPoly, _validate_alpha, linf, monomial_value, sphere_points

DEFAULT_POINT_TOL = 1e-13
DEFAULT_MAX_ITER = 200


def invert_phi_pointwise(
    q: VectorPoly,
    y: Sequence[complex],
    tol: float = DEFAULT_POINT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    trace: list | None = None,
) -> np.ndarray:
    """Solve x + Q(x) = y by the fixed-point iteration x <- y - Q(x).

    Starts from x = 0.  Convergence requires both successive iterates and
    the equation residual to fall below ``tol`` in the max-coordinate norm.
    If ``trace`` is a list, every iterate (including the start) is appended
    to it, which lets callers inspect contraction ratios.

    Raises:
        ConvergenceError: if ``max_iter`` iterations do not reach ``tol``;
            the error carries the last contraction ratio observed.
    """
    y = np.asarray(y, dtype=complex)
    if y.shape != (q.dim,):
        raise ValueError(f"point has shape {y.shape}, expected ({q.dim},)")
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = np.zeros(q.dim, dtype=complex)
    if trace is not None:
        trace.append(x.copy())
    prev_diff = None
    ratio = None
    for iteration in range(1, max_iter + 1):
        try:
            x_new = y - q.evaluate(x)
        except OverflowError:
            raise ConvergenceError(
                "fixed-point inversion diverged (iterate overflow)",
                iterations=iteration,
                last_ratio=ratio,
            ) from None
        if not np.all(np.isfinite(x_new)):
            raise ConvergenceError(
                "fixed-point inversion diverged (non-finite iterate)",
                iterations=iteration,
                last_ratio=ratio,
            )
        if trace is not None:
            trace.append(x_new.copy())
        diff = linf(x_new - x)
        if prev_diff is not None and prev_diff > 0:
            ratio = diff / prev_diff
        if diff <= tol:
            residual = linf(x_new + q.evaluate(x_new) - y)
            if residual <= tol:
                return x_new
        prev_diff = diff
        x = x_new
    raise ConvergenceError(
        f"fixed-point inversion did not reach tol={tol:g}",
        iterations=max_iter,
        last_ratio=ratio,
    )


def tau_forward_pointwise(seq: NormalFormSequence, m: int, z: Sequence[complex]) -> np.ndarray:
    """Evaluate the conjugacy at a point by applying the exact stage factors.

    Applies Phi_m first and Phi_2 last, matching the series composition
    Phi_2 o ... o Phi_m.  No truncation is involved.
    """
    seq.check_order(m)
    w = np.asarray(z, dtype=complex)
    for k in range(m, 1, -1):
        w = seq.phi(k).evaluate(w)
    return w


def tau_inverse_pointwise(
    seq: NormalFormSequence,
    m: int,
    x: Sequence[complex],
    tol: float = DEFAULT_POINT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> np.ndarray:
    """Invert the conjugacy at a point by inverting each stage factor in turn.

    The inverse of Phi_2 o ... o Phi_m applies the Phi_2 inversion first and
    the Phi_m inversion last.  Raises ConvergenceError naming the stage
    whose inversion failed.
    """
    seq.check_order(m)
    w = np.asarray(x, dtype=complex)
    for k in range(2, m + 1):
        try:
            w = invert_phi_pointwise(seq.stage(k).Q, w, tol, max_iter)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"stage-{k} factor inversion failed: {exc.reason}",
                iterations=exc.iterations,
                last_ratio=exc.last_ratio,
            ) from None
    return w


def eval_approx_eigenfunction(
    alpha: Sequence[int],
    seq: NormalFormSequence,
    m: int,
    x: Sequence[complex],
    tol: float = DEFAULT_POINT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[complex, complex]:
    """Evaluate the order-m approximate eigenfunction for exponent alpha.

    Pulls the point back through the inverse conjugacy and evaluates the
    monomial z^alpha there.  Returns (value, eigenvalue) where the
    eigenvalue is the monomial eigenvalue lambda^alpha.
    """
    alpha = _validate_alpha(alpha, seq.spec.dim, min_order=1)
    z = tau_inverse_pointwise(seq, m, x, tol, max_iter)
    return monomial_value(z, alpha), seq.spec.power(alpha)


def fit_loglog_slope(radii: Sequence[float], values: Sequence[float]) -> tuple[float, float]:
    """Ordinary least-squares slope and R^2 of log(values) against log(radii).

    Returns (nan, nan) when a value is nonpositive (no log) or fewer than
    two points are available.
    """
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(radii) < 2 or np.any(values <= 0) or np.any(radii <= 0):
        return float("nan"), float("nan")
    lx = np.log(radii)
    ly = np.log(values)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def _check_radii(radii: Sequence[float]) -> tuple[float, ...]:
    radii = tuple(float(r) for r in radii)
    if len(radii) < 2:
        raise ValueError("need at least two radii")
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    if any(a <= b for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    if len(radii) < 5 or radii[0] / radii[-1] < 10 ** 1.5:
        warnings.warn(
            "slope fit is most reliable over at least 5 radii spanning 1.5 decades",
            RuntimeWarning,
            stacklevel=3,
        )
    return radii


@dataclass
class ResidualStudy:
    """Empirical decay of the eigenfunction-equation residual.

    ``records`` maps (radius, sample index) to the residual magnitude at
    that sample; samples whose factor inversions failed are skipped and
    counted in ``skipped``.  The slope is fit on the per-radius maxima.
    """

    m: int
    alpha: MultiIndex
    mu: complex
    radii: tuple[float, ...]
    samples_per_radius: int
    records: dict[tuple[float, int], float]
    fitted_slope: float
    fit_rsquared: float
    skipped: int = 0

    def max_residuals(self) -> dict[float, float]:
        out: dict[float, float] = {}
        for (r, _), v in self.records.items():
            out[r] = max(out.get(r, 0.0), v)
        return out


def residual_study(
    t_map: VectorPoly,
    seq: NormalFormSequence,
    m: int,
    alpha: Sequence[int],
    radii: Sequence[float],
    samples: int = 32,
    seed: int = 0,
    tol: float = DEFAULT_POINT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ResidualStudy:
    """Measure |psi_m(T(x)) - mu * psi_m(x)| on spheres of shrinking radius.

    psi_m is the pulled-back monomial for ``alpha`` at conjugacy order m.
    Sample points z live on spheres in the linearizing coordinates; x is the
    image of z under the exact stage factors, so the only approximations in
    the measured residual are the pointwise inversion tolerance and the
    genuinely surviving high-order terms whose decay rate is being studied.

    The same ``samples`` directions (seeded) are reused at every radius and
    the per-radius maxima feed an ordinary least-squares log-log fit.
    """
    if t_map != seq.T_input:
        raise ValueError("map is not the input the sequence was built from")
    seq.check_order(m)
    alpha = _validate_alpha(alpha, seq.spec.dim, min_order=1)
    radii = _check_radii(radii)
    dirs = sphere_points(seq.spec.dim, samples, seed)
    eps = seq.min_epsilon(m)
    if radii[0] >= eps:
        warnings.warn(
            f"largest radius {radii[0]:g} is not inside the estimated inversion "
            f"domain (epsilon {eps:g}); inversion failures will be skipped",
            RuntimeWarning,
            stacklevel=2,
        )

    mu_val = seq.spec.power(alpha)
    records: dict[tuple[float, int], float] = {}
    skipped = 0
    for r in radii:
        for s in range(samples):
            z = r * dirs[s]
            x = tau_forward_pointwise(seq, m, z)
            try:
                z_back = tau_inverse_pointwise(seq, m, x, tol, max_iter)
                x_next = t_map.evaluate(x)
                z_next = tau_inverse_pointwise(seq, m, x_next, tol, max_iter)
            except ConvergenceError:
                skipped += 1
                continue
            residual = abs(
                monomial_value(z_next, alpha) - mu_val * monomial_value(z_back, alpha)
            )
            records[(r, s)] = residual

    # The fit is filled in below, from the maxima the study itself reports.
    study = ResidualStudy(
        m=m, alpha=alpha, mu=mu_val, radii=radii, samples_per_radius=samples,
        records=records, fitted_slope=float("nan"), fit_rsquared=float("nan"),
        skipped=skipped,
    )
    maxima = study.max_residuals()
    usable = [r for r in radii if r in maxima]
    if len(usable) < len(radii):
        warnings.warn(
            f"{len(radii) - len(usable)} radii had no successful samples and "
            "were dropped from the fit",
            RuntimeWarning,
            stacklevel=2,
        )
    study.fitted_slope, study.fit_rsquared = fit_loglog_slope(
        usable, [maxima[r] for r in usable]
    )
    return study


@dataclass
class SlopeFit:
    """Result of a log-log order fit over per-radius maxima.

    ``degenerate`` is set when a maximum sits at or below the measurement
    floor (for instance a zero correction term), in which case the slope is
    meaningless and reported as NaN.
    """

    slope: float
    rsquared: float
    max_errors: dict[float, float]
    degenerate: bool


def inverse_asymptotics_study(
    q: VectorPoly,
    radii: Sequence[float],
    samples: int = 32,
    seed: int = 0,
    tol: float = DEFAULT_POINT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SlopeFit:
    """Fit the decay order of the one-term inverse error.

    For the factor Phi = I + Q the candidate inverse y - Q(y) differs from
    the true pointwise inverse by a correction whose leading order (in the
    sphere radius) this study estimates.  For homogeneous Q of degree m the
    fitted slope should approach 2m - 1.
    """
    radii = _check_radii(radii)
    dirs = sphere_points(q.dim, samples, seed)
    max_errors: dict[float, float] = {}
    for r in radii:
        worst = 0.0
        for s in range(samples):
            y = r * dirs[s]
            x = invert_phi_pointwise(q, y, tol, max_iter)
            err = linf(x - (y - q.evaluate(y)))
            worst = max(worst, err)
        max_errors[r] = worst
    floor = tol
    if min(max_errors.values()) <= floor:
        return SlopeFit(float("nan"), float("nan"), max_errors, True)
    slope, r2 = fit_loglog_slope(list(max_errors), list(max_errors.values()))
    return SlopeFit(slope, r2, max_errors, False)


class DomainStageCheck(NamedTuple):
    stage: int
    norm: float
    epsilon: float
    ok: bool


@dataclass
class DomainReport:
    """Per-stage membership record for the chained inversion domain."""

    ok: bool
    checks: list[DomainStageCheck]

    def __bool__(self) -> bool:
        return self.ok


def domain_check(seq: NormalFormSequence, m: int, z: Sequence[complex]) -> DomainReport:
    """Check that a point threads the inversion domains of all stage factors.

    The point itself must lie inside the stage-m radius, its image under
    Phi_m inside the stage-(m-1) radius, and so on down to stage 2.  Every
    stage is recorded even after a failure so the report shows the full
    chain.
    """
    seq.check_order(m)
    w = np.asarray(z, dtype=complex)
    checks: list[DomainStageCheck] = []
    norm = linf(w)
    eps = seq.stage(m).epsilon
    checks.append(DomainStageCheck(m, norm, eps, norm < eps))
    for k in range(m, 2, -1):
        w = seq.phi(k).evaluate(w)
        norm = linf(w)
        eps = seq.stage(k - 1).epsilon
        checks.append(DomainStageCheck(k - 1, norm, eps, norm < eps))
    return DomainReport(all(c.ok for c in checks), checks)


def orbit_domain_check(
    t_map: VectorPoly,
    seq: NormalFormSequence,
    m: int,
    z: Sequence[complex],
    steps: int = 10,
    tol: float = DEFAULT_POINT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[bool, int | None]:
    """Heuristic forward-orbit check of domain membership.

    Follows ``steps`` iterates of the map starting at the image of z and
    verifies that each pulled-back point stays inside the chained inversion
    domain.  Returns (ok, first_failing_step) with step 0 meaning z itself.
    """
    if t_map != seq.T_input:
        raise ValueError("map is not the input the sequence was built from")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    w = np.asarray(z, dtype=complex)
    if not domain_check(seq, m, w):
        return False, 0
    x = tau_forward_pointwise(seq, m, w)
    for step in range(1, steps + 1):
        x = t_map.evaluate(x)
        try:
            w = tau_inverse_pointwise(seq, m, x, tol, max_iter)
        except ConvergenceError:
            return False, step
        if not domain_check(seq, m, w):
            return False, step
    return True, None
