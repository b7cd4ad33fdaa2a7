"""Pointwise inversion, eigenfunction residual decay, domain diagnostics."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopnf import (
    ConvergenceError,
    ScalarPoly,
    Spectrum,
    VectorPoly,
    domain_check,
    eval_approx_eigenfunction,
    fit_loglog_slope,
    invert_phi_many,
    invert_phi_pointwise,
    inverse_asymptotics_study,
    monomial_value,
    orbit_domain_check,
    residual_study,
    run,
    tau,
    tau_forward_many,
    tau_forward_pointwise,
    tau_inverse_many,
    tau_inverse_pointwise,
)

from helpers import (
    complex_bits,
    draw_nonresonant_spectrum,
    gentle_1d_map,
    one_d_map,
    random_homogeneous,
    two_d_map,
)


def _quadratic_1d():
    x = ScalarPoly.variable(1, 0)
    return VectorPoly((x * x,))


def test_invert_worked_oracle():
    # closed-form oracle: the solution of x + x^2 = 0.1 near 0 is
    # (-1 + sqrt(1.4)) / 2, frozen below
    oracle = (-1.0 + math.sqrt(1.4)) / 2.0
    frozen = 0.09160797830996161
    assert abs(oracle - frozen) <= 1e-15
    got = invert_phi_pointwise(_quadratic_1d(), np.array([0.1]), tol=1e-14)
    assert abs(got[0] - frozen) <= 1e-13


def test_invert_zero_is_exact():
    got = invert_phi_pointwise(_quadratic_1d(), np.zeros(1))
    assert got[0] == 0.0


def test_invert_residual_contract():
    rng = np.random.default_rng(41)
    q = random_homogeneous(2, 2, rng) + random_homogeneous(2, 3, rng)
    for trial in range(10):
        y = 0.05 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        x = invert_phi_pointwise(q, y, tol=1e-13)
        residual = np.max(np.abs(x + q.evaluate(x) - y))
        assert residual <= 1e-13


def test_invert_validation():
    q = _quadratic_1d()
    with pytest.raises(ValueError):
        invert_phi_pointwise(q, np.zeros(2))
    with pytest.raises(ValueError):
        invert_phi_pointwise(q, np.zeros(1), tol=0.0)


def test_invert_divergence_raises():
    with pytest.raises(ConvergenceError) as info:
        invert_phi_pointwise(_quadratic_1d(), np.array([10.0]), max_iter=60)
    assert 1 <= info.value.iterations <= 60


def test_invert_slow_nonconvergence_raises():
    # at y = 1 the iteration x <- 1 - x^2 cycles between 0 and 1 without
    # blowing up, so it must exhaust max_iter
    with pytest.raises(ConvergenceError) as info:
        invert_phi_pointwise(_quadratic_1d(), np.array([1.0]), max_iter=50)
    assert info.value.iterations == 50


def test_invert_trace_contraction_ratios():
    # inside the estimated radius scaled by (1 - beta) the iteration must
    # contract at rate beta or better; check successive-difference ratios
    q = _quadratic_1d()
    eps = 0.25
    beta = 0.5
    rng = np.random.default_rng(42)
    checked = 0
    for trial in range(50):
        mag = rng.uniform(0.0, eps * (1 - beta))
        phase = rng.uniform(0, 2 * np.pi)
        y = np.array([mag * np.exp(1j * phase)])
        trace: list = []
        invert_phi_pointwise(q, y, tol=1e-13, trace=trace)
        diffs = [np.max(np.abs(b - a)) for a, b in zip(trace, trace[1:])]
        for d0, d1 in zip(diffs, diffs[1:]):
            if d0 > 1e-13:
                assert d1 / d0 <= beta + 0.05
                checked += 1
    assert checked > 0


def test_tau_pointwise_matches_series_at_small_radius():
    t_map, spec = one_d_map()
    seq = run(t_map, spec, 4)
    series = tau(seq, 3)
    z = np.array([5e-4 + 2e-4j])
    exact = tau_forward_pointwise(seq, 3, z)
    approx = series.evaluate(z)
    # the truncated series drops terms of degree 5 and 6 only
    assert np.max(np.abs(exact - approx)) <= 1e-13


def test_tau_roundtrip_2d():
    t_map, spec = two_d_map()
    seq = run(t_map, spec, 4)
    rng = np.random.default_rng(43)
    for trial in range(10):
        z = 0.008 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        x = tau_forward_pointwise(seq, 4, z)
        back = tau_inverse_pointwise(seq, 4, x, tol=1e-14)
        assert np.max(np.abs(back - z)) <= 1e-12


def test_tau_inverse_single_stage_matches_direct():
    t_map, spec = one_d_map()
    seq = run(t_map, spec, 4)
    x = np.array([0.03 - 0.01j])
    via_chain = tau_inverse_pointwise(seq, 2, x)
    direct = invert_phi_pointwise(seq.stage(2).Q, x)
    np.testing.assert_array_equal(via_chain, direct)


def test_tau_pointwise_validation():
    t_map, spec = one_d_map()
    seq = run(t_map, spec, 4)
    with pytest.raises(ValueError):
        tau_forward_pointwise(seq, 1, np.zeros(1))
    with pytest.raises(ValueError):
        tau_inverse_pointwise(seq, 5, np.zeros(1))


def test_tau_inverse_reports_failing_stage():
    t_map, spec = one_d_map()
    seq = run(t_map, spec, 4)
    with pytest.raises(ConvergenceError, match="stage-2"):
        tau_inverse_pointwise(seq, 4, np.array([5.0]), max_iter=40)
    with pytest.raises(ConvergenceError) as info:
        tau_inverse_pointwise(seq, 2, np.array([5.0]), max_iter=5)
    assert str(info.value).count("(iterations=5, last contraction ratio=") == 1
    assert info.value.iterations == 5
    assert info.value.last_ratio > 1


def test_monomial_value():
    assert monomial_value((2.0, 3.0), (2, 1)) == 12.0
    assert monomial_value((2.0, 3.0), (0, 0)) == 1.0
    assert monomial_value((1j,), (2,)) == pytest.approx(-1.0)


def test_eigenfunction_on_linear_map_is_exact():
    spec = Spectrum((0.5, 0.25))
    t_map = spec.diagonal_map()
    seq = run(t_map, spec, 3)
    assert all(stage.Q.is_zero() for stage in seq.stages)
    x = np.array([0.04 + 0.01j, -0.03])
    value, eig = eval_approx_eigenfunction((2, 1), seq, 3, x)
    assert value == monomial_value(x, (2, 1))
    assert eig == pytest.approx(0.5 ** 2 * 0.25)
    # the eigenfunction equation holds with zero residual on a linear map
    lhs, _ = eval_approx_eigenfunction((2, 1), seq, 3, t_map.evaluate(x))
    assert abs(lhs - eig * value) <= 1e-16


def test_eigenfunction_alpha_validation():
    t_map, spec = one_d_map()
    seq = run(t_map, spec, 3)
    with pytest.raises(ValueError):
        eval_approx_eigenfunction((1, 0), seq, 2, np.zeros(1))
    with pytest.raises(ValueError):
        eval_approx_eigenfunction((-1,), seq, 2, np.zeros(1))
    with pytest.raises(ValueError):
        eval_approx_eigenfunction((0,), seq, 2, np.zeros(1))


def test_fit_loglog_slope_exact_power_law():
    radii = [0.1, 0.05, 0.01, 0.005, 0.001]
    values = [3.7 * r ** 2.5 for r in radii]
    slope, r2 = fit_loglog_slope(radii, values)
    assert slope == pytest.approx(2.5, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_loglog_slope_degenerate_inputs():
    slope, r2 = fit_loglog_slope([0.1, 0.01], [1.0, 0.0])
    assert math.isnan(slope) and math.isnan(r2)
    slope, r2 = fit_loglog_slope([0.1], [1.0])
    assert math.isnan(slope)


def test_residual_study_linear_map_sits_at_floor():
    spec = Spectrum((0.5, 0.25))
    t_map = spec.diagonal_map()
    seq = run(t_map, spec, 3)
    radii = list(np.geomspace(0.1, 0.001, 5))
    study = residual_study(t_map, seq, 3, (1, 1), radii, samples=8, seed=1)
    assert study.skipped == 0
    assert all(v <= 1e-15 for v in study.records.values())
    assert math.isnan(study.fitted_slope)


def test_residual_study_worked_1d_slope():
    t_map, spec = one_d_map()
    seq = run(t_map, spec, 4)
    radii = list(np.geomspace(0.04, 0.001, 6))
    study = residual_study(t_map, seq, 2, (1,), radii, samples=16, seed=7,
                           tol=1e-15, max_iter=400)
    assert study.skipped == 0
    assert study.fitted_slope >= 2.5
    assert study.fit_rsquared >= 0.95
    maxima = study.max_residuals()
    assert set(maxima) == set(study.radii)
    # residual magnitudes shrink with the radius
    ordered = [maxima[r] for r in study.radii]
    assert all(a > b for a, b in zip(ordered, ordered[1:]))


def test_residual_study_validation():
    t_map, spec = one_d_map()
    gentle, _ = gentle_1d_map()
    seq = run(t_map, spec, 3)
    radii = list(np.geomspace(0.04, 0.001, 5))
    with pytest.raises(ValueError):
        residual_study(gentle, seq, 2, (1,), radii)
    with pytest.raises(ValueError):
        residual_study(t_map, seq, 5, (1,), radii)
    with pytest.raises(ValueError):
        residual_study(t_map, seq, 2, (1,), [0.001, 0.01])
    with pytest.raises(ValueError):
        residual_study(t_map, seq, 2, (1,), radii, samples=0)


def test_residual_study_warns_outside_domain():
    t_map, spec = one_d_map()
    seq = run(t_map, spec, 3)
    # stage-2 radius estimate is 0.0625; starting at 0.08 leaves the domain
    radii = list(np.geomspace(0.08, 0.002, 5))
    with pytest.warns(RuntimeWarning, match="inversion domain"):
        residual_study(t_map, seq, 2, (1,), radii, samples=4, seed=2)


def test_radii_quality_warning():
    t_map, spec = one_d_map()
    seq = run(t_map, spec, 3)
    with pytest.warns(RuntimeWarning, match="slope fit"):
        residual_study(t_map, seq, 2, (1,), [0.04, 0.01, 0.0005], samples=4, seed=2)


def test_inverse_asymptotics_worked_1d():
    radii = [1e-2, 3e-3, 1e-3, 3e-4, 1e-4]
    fit = inverse_asymptotics_study(_quadratic_1d(), radii, samples=16, seed=3,
                                    tol=1e-15, max_iter=400)
    assert not fit.degenerate
    # for a quadratic correction the one-term inverse error is of order 3
    assert fit.slope >= 2.7
    assert fit.rsquared >= 0.99
    # leading error term is 2 y^3 exactly, so the measured maximum at the
    # smallest radius must sit within a few percent of 2 r^3
    err = fit.max_errors[1e-4]
    assert err == pytest.approx(2.0 * 1e-4 ** 3, rel=0.05)


def test_inverse_asymptotics_degenerate_zero_correction():
    with pytest.warns(RuntimeWarning, match="slope fit"):
        fit = inverse_asymptotics_study(VectorPoly.zero(2), [0.1, 0.01, 0.001],
                                        samples=4, seed=0)
    assert fit.degenerate
    assert math.isnan(fit.slope)


def test_domain_check_chain():
    t_map, spec = one_d_map()
    seq = run(t_map, spec, 4)
    ok = domain_check(seq, 4, np.array([0.001]))
    assert ok
    assert bool(ok) is True
    assert len(ok.checks) == 3
    assert [c.stage for c in ok.checks] == [4, 3, 2]
    bad = domain_check(seq, 2, np.array([0.5]))
    assert not bad
    assert bad.checks[0].ok is False
    assert bad.checks[0].epsilon == pytest.approx(0.0625, abs=1e-15)


def test_domain_check_validation():
    t_map, spec = one_d_map()
    seq = run(t_map, spec, 3)
    with pytest.raises(ValueError):
        domain_check(seq, 1, np.zeros(1))


def test_orbit_domain_check():
    t_map, spec = two_d_map()
    seq = run(t_map, spec, 3)
    ok, failed_at = orbit_domain_check(t_map, seq, 3, np.array([0.004, 0.003]))
    assert ok and failed_at is None
    bad, step = orbit_domain_check(t_map, seq, 3, np.array([5.0, 5.0]))
    assert not bad and step == 0
    gentle, _ = gentle_1d_map()
    with pytest.raises(ValueError):
        orbit_domain_check(gentle, seq, 3, np.zeros(2))


def test_orbit_domain_is_forward_invariant_for_contraction():
    # on a stable map with a comfortable margin every orbit point stays
    # inside the chained domain, including many steps out
    t_map, spec = one_d_map()
    seq = run(t_map, spec, 3)
    ok, failed_at = orbit_domain_check(t_map, seq, 3, np.array([0.01]), steps=25)
    assert ok and failed_at is None


def _assert_rows_match_scalar(values, failures, scalar, points):
    """Converged rows carry the scalar function's bits, failed rows its error."""
    for k, y in enumerate(points):
        try:
            want = scalar(y)
        except ConvergenceError as exc:
            got = failures[k].error()
            assert (got.reason, got.iterations, got.last_ratio, str(got)) \
                == (exc.reason, exc.iterations, exc.last_ratio, str(exc))
            assert np.isnan(values[k]).all()
        else:
            assert k not in failures
            assert np.array_equal(complex_bits(values[k]), complex_bits(want))


@st.composite
def _factor_and_points(draw):
    """A homogeneous Q (dim 1-2, degree 2-3), rows from 1e-3 to 1e200 and a max_iter."""
    dim = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q = random_homogeneous(dim, draw(st.integers(2, 3)), rng)
    rows = draw(st.integers(1, 12))
    dirs = rng.uniform(-1, 1, (rows, dim)) + 1j * rng.uniform(-1, 1, (rows, dim))
    small = rng.random(rows) < 0.5
    exponents = np.where(small, rng.uniform(-3, 0, rows), rng.uniform(0, 200, rows))
    points = 10.0 ** exponents[:, None] * dirs
    if draw(st.booleans()):
        points[0] = [-0.0j] * dim
    return q, points, draw(st.sampled_from([1, 5, 200]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_factor_and_points())
def test_invert_phi_many_matches_pointwise(case):
    q, points, max_iter = case
    xs, failures = invert_phi_many(q, points, max_iter=max_iter)
    assert list(failures) == sorted(failures)
    assert all(f.stage is None for f in failures.values())
    _assert_rows_match_scalar(
        xs, failures, lambda y: invert_phi_pointwise(q, y, max_iter=max_iter), points)


def test_tau_many_match_pointwise():
    t_map, spec = two_d_map()
    seq = run(t_map, spec, 5)
    rng = np.random.default_rng(44)
    dirs = rng.uniform(-1, 1, (60, 2)) + 1j * rng.uniform(-1, 1, (60, 2))
    points = seq.min_epsilon(4) * 10.0 ** rng.uniform(-3, 2, (60, 1)) * dirs
    for max_iter in (10, 200):
        zs, failures = tau_inverse_many(seq, 4, points, max_iter=max_iter)
        assert {f.stage for f in failures.values()} <= {2, 3, 4} and failures
        _assert_rows_match_scalar(
            zs, failures, lambda x: tau_inverse_pointwise(seq, 4, x, max_iter=max_iter), points)
    ok = [k for k in range(len(points)) if k not in failures]
    back, overflowed = tau_forward_many(seq, 4, zs[ok])
    assert not overflowed.any()
    want = [tau_forward_pointwise(seq, 4, z) for z in zs[ok]]
    assert np.array_equal(complex_bits(back), complex_bits(want))


def test_tau_forward_many_marks_overflow():
    t_map, spec = one_d_map()
    seq = run(t_map, spec, 4)
    zs = np.array([[1e-3], [1e120], [0.2j], [-1e103 + 1e103j]])
    xs, overflowed = tau_forward_many(seq, 3, zs)
    assert overflowed.tolist() == [False, True, False, True]
    assert np.isnan(xs[overflowed]).all()
    for z in zs[overflowed]:
        with pytest.raises(OverflowError):
            tau_forward_pointwise(seq, 3, z)
    want = [tau_forward_pointwise(seq, 3, z) for z in zs[~overflowed]]
    assert np.array_equal(complex_bits(xs[~overflowed]), complex_bits(want))


def test_batched_validation():
    t_map, spec = one_d_map()
    seq = run(t_map, spec, 4)
    with pytest.raises(ValueError, match="shape"):
        invert_phi_many(seq.stage(2).Q, np.zeros(3))
    with pytest.raises(ValueError, match="tol"):
        invert_phi_many(seq.stage(2).Q, np.zeros((3, 1)), tol=0.0)
    with pytest.raises(ValueError, match="m must lie"):
        tau_inverse_many(seq, 5, np.zeros((3, 1)))
    with pytest.raises(ValueError, match="shape"):
        tau_forward_many(seq, 3, np.zeros((3, 2)))


def test_batched_inversion_emits_no_numpy_warnings():
    t_map, spec = two_d_map()
    seq = run(t_map, spec, 4)
    axis = np.linspace(-5.0, 5.0, 41)
    grid = np.array([(a, b) for a in axis for b in axis], dtype=complex)
    rng = np.random.default_rng(45)
    dirs = rng.uniform(-1, 1, (32, 2)) + 1j * rng.uniform(-1, 1, (32, 2))
    far = 10.0 ** rng.uniform(150, 300, (32, 1)) * dirs
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, grid_failures = tau_inverse_many(seq, 3, grid)
        _, far_failures = tau_inverse_many(seq, 4, far)
        forward, _ = tau_forward_many(seq, 4, far)
    assert len(grid_failures) == len(grid) - 1
    assert len(far_failures) == len(far)
    assert not np.isfinite(forward).any()


def test_domain_check_records_overflowing_stages():
    # On 0.5x + x^2 at D 4 the image of 1e30 under Phi_4 is about 1e121, and
    # Phi_3 of that overflows; 1e120 already overflows under Phi_4.
    t_map, spec = one_d_map()
    seq = run(t_map, spec, 4)
    for z, first_inf in ((1e30, 2), (1e120, 1)):
        report = domain_check(seq, 4, np.array([z]))
        assert not report
        assert [c.stage for c in report.checks] == [4, 3, 2]
        assert [c.ok for c in report.checks] == [False] * 3
        norms = [c.norm for c in report.checks]
        assert norms[0] == z
        assert all(math.isfinite(v) for v in norms[:first_inf])
        assert norms[first_inf:] == [math.inf] * (3 - first_inf)
        assert orbit_domain_check(t_map, seq, 4, np.array([z])) == (False, 0)


def test_invert_flags_a_non_finite_imaginary_part():
    # Q is the constant (0, inf): the first iterate has a finite real part
    # and an infinite imaginary part.
    q = VectorPoly((ScalarPoly.constant(1, complex(0.0, math.inf)),))
    with pytest.raises(ConvergenceError, match="non-finite iterate") as info:
        invert_phi_pointwise(q, [1.0])
    assert info.value.iterations == 1


def _reference_evaluate(q, x):
    """Reference: ``VectorPoly.evaluate`` summing each component's ``terms`` directly."""
    xs = [complex(v) for v in x]
    out = []
    for comp in q.components:
        total = 0j
        for alpha, c in comp.terms.items():
            val = c
            for xi, a in zip(xs, alpha):
                if a:
                    val *= xi ** a
            total += val
        out.append(total)
    return np.array(out)


def _reference_linf(x):
    return float(np.max(np.abs(np.asarray(x, dtype=complex))))


def _reference_invert_phi(q, y, tol=1e-13, max_iter=200, trace=None):
    """Reference: ``invert_phi_pointwise``'s iteration on numpy arrays, with np.max norms."""
    y = np.asarray(y, dtype=complex)
    x = np.zeros(q.dim, dtype=complex)
    if trace is not None:
        trace.append(x.copy())
    prev_diff = None
    ratio = None
    for iteration in range(1, max_iter + 1):
        try:
            x_new = y - _reference_evaluate(q, x)
        except OverflowError:
            raise ConvergenceError("fixed-point inversion diverged (iterate overflow)",
                                   iterations=iteration, last_ratio=ratio) from None
        if not np.all(np.isfinite(x_new)):
            raise ConvergenceError("fixed-point inversion diverged (non-finite iterate)",
                                   iterations=iteration, last_ratio=ratio)
        if trace is not None:
            trace.append(x_new.copy())
        diff = _reference_linf(x_new - x)
        if prev_diff is not None and prev_diff > 0:
            ratio = diff / prev_diff
        if diff <= tol:
            residual = _reference_linf(x_new + _reference_evaluate(q, x_new) - y)
            if residual <= tol:
                return x_new
        prev_diff = diff
        x = x_new
    raise ConvergenceError(f"fixed-point inversion did not reach tol={tol:g}",
                           iterations=max_iter, last_ratio=ratio)


def _reference_tau_inverse(seq, m, x, max_iter):
    w = np.asarray(x, dtype=complex)
    for k in range(2, m + 1):
        try:
            w = _reference_invert_phi(seq.stage(k).Q, w, max_iter=max_iter)
        except ConvergenceError as exc:
            raise ConvergenceError(f"stage-{k} factor inversion failed: {exc.reason}",
                                   iterations=exc.iterations, last_ratio=exc.last_ratio) from None
    return w


def _reference_tau_forward(seq, m, z):
    w = np.asarray(z, dtype=complex)
    for k in range(m, 1, -1):
        w = _reference_evaluate(seq.phi(k), w)
    return w


def _outcome(call):
    """A result's raw bits, or what its exception carries."""
    try:
        return ("value", complex_bits(call()).tolist())
    except ConvergenceError as exc:
        return ("failed", exc.reason, exc.iterations, exc.last_ratio, str(exc))
    except OverflowError as exc:
        return ("overflow", str(exc))


def _points(rng, dim):
    """One to six rows from 1e-3 to 1e200, some parts set to +0.0 or -0.0."""
    rows = int(rng.integers(1, 7))
    dirs = rng.uniform(-1, 1, (rows, dim)) + 1j * rng.uniform(-1, 1, (rows, dim))
    small = rng.random(rows) < 0.6
    exponents = np.where(small, rng.uniform(-3, 0, rows), rng.uniform(0, 200, rows))
    points = 10.0 ** exponents[:, None] * dirs
    zeros = rng.random((rows, dim, 2)) < 0.2
    points.real[zeros[..., 0]] = rng.choice([0.0, -0.0], int(zeros[..., 0].sum()))
    points.imag[zeros[..., 1]] = rng.choice([0.0, -0.0], int(zeros[..., 1].sum()))
    return points


@st.composite
def _homogeneous_factor_and_points(draw):
    """A homogeneous Q (dim 1-3, degree 2-4), up to six rows and a max_iter."""
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q = random_homogeneous(dim, draw(st.integers(2, 4)), rng)
    return q, _points(rng, dim), draw(st.sampled_from([1, 5, 200]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_homogeneous_factor_and_points())
def test_invert_phi_pointwise_matches_frozen_reference(case):
    q, points, max_iter = case
    for y in points:
        got_trace, want_trace = [], []
        got = _outcome(lambda: invert_phi_pointwise(q, y, max_iter=max_iter, trace=got_trace))
        want = _outcome(lambda: _reference_invert_phi(q, y, max_iter=max_iter, trace=want_trace))
        assert got == want
        assert [x.dtype for x in got_trace] == [np.dtype(complex)] * len(want_trace)
        assert complex_bits(got_trace).tolist() == complex_bits(want_trace).tolist()


def _three_d_map():
    rng = np.random.default_rng(7)
    spec = draw_nonresonant_spectrum(3, rng, 4)
    t_map = VectorPoly.diagonal(spec.lambdas)
    for degree in (2, 3, 4):
        t_map = t_map + 0.3 * random_homogeneous(3, degree, rng)
    return t_map, spec


@pytest.fixture(scope="module")
def tau_seqs():
    return {name: run(*builder(), 4) for name, builder in
            (("one-d", one_d_map), ("two-d", two_d_map), ("three-d", _three_d_map))}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(name=st.sampled_from(["one-d", "two-d", "three-d"]), m=st.integers(2, 4),
       seed=st.integers(0, 2 ** 32 - 1), max_iter=st.sampled_from([1, 5, 200]))
def test_tau_pointwise_pair_matches_frozen_reference(tau_seqs, name, m, seed, max_iter):
    seq = tau_seqs[name]
    points = seq.min_epsilon(4) * _points(np.random.default_rng(seed), seq.spec.dim)
    for x in points:
        got = _outcome(lambda: tau_inverse_pointwise(seq, m, x, max_iter=max_iter))
        assert got == _outcome(lambda: _reference_tau_inverse(seq, m, x, max_iter))
        assert _outcome(lambda: tau_forward_pointwise(seq, m, x)) \
            == _outcome(lambda: _reference_tau_forward(seq, m, x))
