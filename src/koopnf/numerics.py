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

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConvergenceError
from .normalform import NormalFormSequence
from .polyalg import (
    MultiIndex,
    VectorPoly,
    _as_rows,
    _cmul,
    _monomial_rows,
    _validate_alpha,
    linf,
    monomial_value,
    sphere_points,
)

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

    The iteration runs on Python complex numbers (see ``_invert_phi_list``),
    with the bits a numpy evaluation of the same steps gives.

    Raises:
        ConvergenceError: if ``max_iter`` iterations do not reach ``tol``;
            the error carries the last contraction ratio observed.
    """
    y = _point_list(y, q.dim, tol)
    return np.array(_invert_phi_list(q, y, tol, max_iter, trace))


def _point_list(x: Sequence[complex], dim: int, tol: float | None = None) -> list[complex]:
    """A single point as a list of Python complex, after the shape and tol checks."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (dim,):
        raise ValueError(f"point has shape {x.shape}, expected ({dim},)")
    if tol is not None and tol <= 0:
        raise ValueError("tol must be positive")
    return x.tolist()


def _invert_phi_list(
    q: VectorPoly, y: list[complex], tol: float, max_iter: int, trace: list | None = None
) -> list[complex]:
    """``invert_phi_pointwise`` on a validated point given as a list.

    Complex addition and subtraction round per part in CPython as in
    numpy, the evaluation is ``ScalarPoly.evaluate``'s and the norm is
    ``linf``, so every iterate, ratio and error carries the bits of the
    same iteration on numpy arrays.
    """
    x = [0j] * len(y)
    if trace is not None:
        trace.append(np.array(x))
    prev_diff = None
    ratio = None
    for iteration in range(1, max_iter + 1):
        try:
            qx = q._evaluate_list(x)
        except OverflowError:
            raise ConvergenceError(
                "fixed-point inversion diverged (iterate overflow)",
                iterations=iteration,
                last_ratio=ratio,
            ) from None
        x_new = [yj - qj for yj, qj in zip(y, qx)]
        if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in x_new):
            raise ConvergenceError(
                "fixed-point inversion diverged (non-finite iterate)",
                iterations=iteration,
                last_ratio=ratio,
            )
        if trace is not None:
            trace.append(np.array(x_new))
        diff = linf([a - b for a, b in zip(x_new, x)])
        if prev_diff is not None and prev_diff > 0:
            ratio = diff / prev_diff
        if diff <= tol:
            qx = q._evaluate_list(x_new)
            residual = linf([a + b - c for a, b, c in zip(x_new, qx, y)])
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

    Raises:
        OverflowError: where a stage factor's evaluation overflows.
    """
    seq.check_order(m)
    w = _point_list(z, seq.spec.dim)
    for k in range(m, 1, -1):
        w = seq.phi(k)._evaluate_list(w)
    return np.array(w)


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
    w = _point_list(x, seq.spec.dim, tol)
    for k in range(2, m + 1):
        try:
            w = _invert_phi_list(seq.stage(k).Q, w, tol, max_iter)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"stage-{k} factor inversion failed: {exc.reason}",
                iterations=exc.iterations,
                last_ratio=exc.last_ratio,
            ) from None
    return np.array(w)


class PointFailure(NamedTuple):
    """One failed row of a batched inversion: what ConvergenceError would carry.

    ``stage`` is the factor whose inversion failed, or None for a single
    factor inverted by ``invert_phi_many``.
    """

    reason: str
    iterations: int
    last_ratio: float | None
    stage: int | None = None

    def error(self) -> ConvergenceError:
        """The ConvergenceError the single-point function raises for this row."""
        reason = self.reason
        if self.stage is not None:
            reason = f"stage-{self.stage} factor inversion failed: {reason}"
        return ConvergenceError(reason, self.iterations, self.last_ratio)


def invert_phi_many(
    q: VectorPoly,
    ys,
    tol: float = DEFAULT_POINT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[np.ndarray, dict[int, PointFailure]]:
    """``invert_phi_pointwise`` for every row of ``ys`` (shape (N, n)) at once.

    Each row runs the single-point iteration with the same arithmetic (see
    ``VectorPoly.evaluate_many``), until it converges or fails; the rows
    still running form the active set of the next iteration.  Returns
    ``(xs, failures)``: ``xs`` holds every converged row with the bits the
    single-point function returns, and ``failures`` maps the index of every
    other row, in increasing order, to the reason, iteration count and last
    contraction ratio its ConvergenceError would carry.  Failed rows of
    ``xs`` are NaN.

    A row whose iterate has a coordinate power with an infinite part is
    reported as "iterate overflow", where the single-point function catches
    CPython's OverflowError.  numpy's floating-point warnings are off
    inside, so diverging rows print nothing.
    """
    ys = _as_rows(ys, q.dim)
    if tol <= 0:
        raise ValueError("tol must be positive")
    xs = np.full(ys.shape, np.nan, dtype=complex)
    failures: dict[int, PointFailure] = {}
    rows = np.arange(len(ys))
    y = ys
    x = np.zeros_like(ys)
    prev_diff = np.zeros(len(ys))  # 0 stands for "no previous step": no ratio is taken
    ratio = np.zeros(len(ys))
    has_ratio = np.zeros(len(ys), dtype=bool)

    def fail(reason, mask, iterations):
        for r in np.flatnonzero(mask):
            last = float(ratio[r]) if has_ratio[r] else None
            failures[int(rows[r])] = PointFailure(reason, iterations, last)

    with np.errstate(all="ignore"):
        for iteration in range(1, max_iter + 1):
            if not len(rows):
                break
            qx, overflowed = q._evaluate_rows(x)
            x_new = y - qx
            nonfinite = ~overflowed & ~np.isfinite(x_new).all(axis=1)
            fail("fixed-point inversion diverged (iterate overflow)", overflowed, iteration)
            fail("fixed-point inversion diverged (non-finite iterate)", nonfinite, iteration)
            diff = np.abs(x_new - x).max(axis=1)
            stepped = prev_diff > 0
            ratio = np.where(stepped, diff / prev_diff, ratio)
            has_ratio |= stepped
            converged = np.zeros(len(rows), dtype=bool)
            close = np.flatnonzero(diff <= tol)
            if len(close):
                x_close = x_new[close]
                q_close, _ = q._evaluate_rows(x_close)
                converged[close] = np.abs(x_close + q_close - y[close]).max(axis=1) <= tol
            xs[rows[converged]] = x_new[converged]
            keep = ~(converged | overflowed | nonfinite)
            rows, y, x = rows[keep], y[keep], x_new[keep]
            prev_diff, ratio, has_ratio = diff[keep], ratio[keep], has_ratio[keep]
    fail(f"fixed-point inversion did not reach tol={tol:g}", np.ones(len(rows), bool), max_iter)
    return xs, dict(sorted(failures.items()))


def tau_inverse_many(
    seq: NormalFormSequence,
    m: int,
    xs,
    tol: float = DEFAULT_POINT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[np.ndarray, dict[int, PointFailure]]:
    """``tau_inverse_pointwise`` for every row of ``xs`` (shape (N, n)) at once.

    Returns ``(zs, failures)`` as ``invert_phi_many`` does; each failure
    names the stage whose inversion failed, and a row that fails at one
    stage is not passed to the next.
    """
    seq.check_order(m)
    w = _as_rows(xs, seq.spec.dim)
    zs = np.full(w.shape, np.nan, dtype=complex)
    rows = np.arange(len(w))
    failures: dict[int, PointFailure] = {}
    for k in range(2, m + 1):
        w, failed = invert_phi_many(seq.stage(k).Q, w, tol, max_iter)
        for r, failure in failed.items():
            failures[int(rows[r])] = failure._replace(stage=k)
        keep = np.ones(len(w), dtype=bool)
        keep[list(failed)] = False
        rows, w = rows[keep], w[keep]
    zs[rows] = w
    return zs, dict(sorted(failures.items()))


def tau_forward_many(seq: NormalFormSequence, m: int, zs) -> tuple[np.ndarray, np.ndarray]:
    """``tau_forward_pointwise`` for every row of ``zs`` (shape (N, n)) at once.

    Returns ``(xs, overflowed)``: ``overflowed`` marks the rows where a
    stage factor's evaluation overflows, where the single-point function
    raises OverflowError; those rows of ``xs`` are NaN.
    """
    seq.check_order(m)
    w = _as_rows(zs, seq.spec.dim)
    overflowed = np.zeros(len(w), dtype=bool)
    for k in range(m, 1, -1):
        w, over = seq.phi(k)._evaluate_rows(w)
        overflowed |= over
    w[overflowed] = np.nan
    return w, overflowed


def _sphere_rows(dirs: np.ndarray, radii: Sequence[float]) -> np.ndarray:
    """The points r * dirs[s], radius-major, each formed as a single point is."""
    return np.array([r * d for r in radii for d in dirs])


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
    that sample; samples whose factor inversions failed, or whose forward
    map or monomials overflow, are skipped and counted in ``skipped``.  The
    slope is fit on the per-radius maxima.
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
    the per-radius maxima feed an ordinary least-squares log-log fit.  All
    samples are evaluated and inverted at once, with the bits of the
    single-point functions (see ``invert_phi_many``).
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
    xs, forward_overflowed = tau_forward_many(seq, m, _sphere_rows(dirs, radii))
    z_back, back_failed = tau_inverse_many(seq, m, xs, tol, max_iter)
    x_next, next_overflowed = t_map._evaluate_rows(xs)
    z_next, next_failed = tau_inverse_many(seq, m, x_next, tol, max_iter)
    back_mono, back_overflowed = _monomial_rows(z_back, [alpha])
    next_mono, mono_overflowed = _monomial_rows(z_next, [alpha])
    with np.errstate(all="ignore"):
        scaled_re, scaled_im = _cmul(mu_val.real, mu_val.imag,
                                     back_mono.real[:, 0], back_mono.imag[:, 0])
        diff_re = (next_mono.real[:, 0] - scaled_re).tolist()
        diff_im = (next_mono.imag[:, 0] - scaled_im).tolist()
    # A sample is skipped where an inversion fails or, on huge radii, a power overflows.
    skip = forward_overflowed | next_overflowed | back_overflowed | mono_overflowed
    skip[list(back_failed) + list(next_failed)] = True
    records: dict[tuple[float, int], float] = {}
    for k, r in enumerate(np.repeat(radii, samples).tolist()):
        if not skip[k]:
            records[(r, k % samples)] = abs(complex(diff_re[k], diff_im[k]))
    skipped = int(np.count_nonzero(skip))

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
    ys = _sphere_rows(sphere_points(q.dim, samples, seed), radii)
    xs, failures = invert_phi_many(q, ys, tol, max_iter)
    if failures:
        raise next(iter(failures.values())).error()
    errors = np.abs(xs - (ys - q.evaluate_many(ys))).max(axis=1).tolist()
    max_errors: dict[float, float] = {}
    for j, r in enumerate(radii):
        worst = 0.0
        for err in errors[j * samples:(j + 1) * samples]:
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
    chain; an image whose evaluation overflows has norm inf, and so do
    the images after it.
    """
    seq.check_order(m)
    w = _point_list(z, seq.spec.dim)
    checks: list[DomainStageCheck] = []
    norm = linf(w)
    eps = seq.stage(m).epsilon
    checks.append(DomainStageCheck(m, norm, eps, norm < eps))
    for k in range(m, 2, -1):
        if w is not None:
            try:
                w = seq.phi(k)._evaluate_list(w)
            except OverflowError:
                w = None
        norm = math.inf if w is None else linf(w)
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
