"""Stagewise elimination: homological solves, series reversion, conjugacies."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopnf import (
    ResonanceError,
    ScalarPoly,
    Spectrum,
    VectorPoly,
    epsilon_bound,
    lie_apply,
    lie_solve,
    multi_indices,
    normal_form_step,
    run,
    series_inverse,
    tau,
)

from helpers import (
    coeff_rel_err,
    draw_nonresonant_spectrum,
    jacobian_row_sum,
    one_d_map,
    plant_linearizable_map,
    random_homogeneous,
    two_d_map,
)


# -- independent symbolic oracle for the worked 1D system ---------------------


def _oracle_stages_1d(lam_frac, quad_coeff, d):
    """Stagewise elimination carried out symbolically in exact arithmetic.

    Uses sympy with unknown-coefficient reversion solved from the identity
    psi(phi(z)) = z, which shares no code with the library implementation.
    Returns the exact stage coefficients q_2..q_d and the final 1D map.
    """
    import sympy as sp

    z, y = sp.symbols("z y")
    lam = sp.Rational(lam_frac)

    def trunc(expr, var):
        expr = sp.expand(expr)
        return sum(expr.coeff(var, k) * var ** k for k in range(d + 1))

    current = trunc(lam * z + sp.Rational(quad_coeff) * z ** 2, z)
    qs = []
    for m in range(2, d + 1):
        r = sp.expand(current).coeff(z, m)
        qm = sp.nsimplify(r / (lam ** m - lam))
        qs.append(qm)
        phi = z + qm * z ** m
        bs = sp.symbols(f"b2:{d + 1}")
        psi = y + sum(b * y ** k for b, k in zip(bs, range(2, d + 1)))
        comp = sp.expand(psi.subs(y, phi))
        sol = sp.solve([comp.coeff(z, k) for k in range(2, d + 1)], bs, dict=True)[0]
        psi_solved = psi.subs(sol)
        inner = trunc(current.subs(z, phi), z)
        current = trunc(psi_solved.subs(y, inner), z)
    return qs, sp.expand(current)


def test_oracle_agrees_with_frozen_values():
    qs, final = _oracle_stages_1d(Fraction(1, 2), 1, 4)
    assert qs == [Fraction(-4), Fraction(64, 3), Fraction(256, 7)]
    import sympy as sp

    z = sp.symbols("z")
    assert sp.simplify(final - sp.Rational(1, 2) * z) == 0


def test_run_matches_symbolic_oracle_1d():
    t_map, spec = one_d_map()
    seq = run(t_map, spec, 4)
    qs, _ = _oracle_stages_1d(Fraction(1, 2), 1, 4)
    assert len(seq.stages) == 3
    for stage, expected in zip(seq.stages, qs):
        got = stage.Q.components[0].coefficient((stage.m,))
        assert got == pytest.approx(float(expected), rel=1e-12)
        # the stage correction is a single monomial of the eliminated degree
        assert set(stage.Q.components[0].terms) == {(stage.m,)}
    final = seq.stages[-1].T_after
    assert final.components[0].coefficient((1,)) == pytest.approx(0.5, abs=1e-14)
    for k in range(2, 5):
        assert final.homogeneous_part(k).max_abs_coeff() <= 1e-12


def test_run_epsilon_estimates_1d():
    t_map, spec = one_d_map()
    seq = run(t_map, spec, 4)
    qs, _ = _oracle_stages_1d(Fraction(1, 2), 1, 4)
    beta = 0.5
    for stage, q_exact in zip(seq.stages, qs):
        m = stage.m
        expected = min(1.0, (beta / (m * abs(float(q_exact)))) ** (1.0 / (m - 1)))
        assert stage.epsilon == pytest.approx(expected, rel=1e-10)
    assert seq.stages[0].epsilon == pytest.approx(0.0625, abs=1e-15)
    assert seq.min_epsilon(4) == pytest.approx(0.0625, abs=1e-15)


# -- lie_solve / lie_apply -----------------------------------------------------


def test_lie_solve_worked_1d():
    spec = Spectrum((0.5,))
    r_hat = VectorPoly.from_terms(1, [(0, (2,), 1.0)])
    q = lie_solve(r_hat, spec)
    assert q.components[0].terms == {(2,): -4.0}
    assert lie_apply(q, spec) == r_hat


def test_lie_solve_worked_2d():
    spec = Spectrum((0.5, 0.3))
    r_hat = VectorPoly.from_terms(2, [(0, (1, 1), 1.0)])
    q = lie_solve(r_hat, spec)
    # divisor is 0.5*0.3 - 0.5 = -0.35
    assert q.components[0].coefficient((1, 1)) == pytest.approx(1 / -0.35, rel=1e-14)


def test_lie_solve_zero_and_validation():
    spec = Spectrum((0.5, 0.3))
    assert lie_solve(VectorPoly.zero(2), spec).is_zero()
    mixed = VectorPoly.from_terms(2, [(0, (2, 0), 1.0), (0, (3, 0), 1.0)])
    with pytest.raises(ValueError):
        lie_solve(mixed, spec)
    linear = VectorPoly.from_terms(2, [(0, (1, 0), 1.0)])
    with pytest.raises(ValueError):
        lie_solve(linear, spec)
    with pytest.raises(ValueError):
        lie_solve(VectorPoly.zero(1), spec)


def test_lie_solve_resonant_raises():
    spec = Spectrum((0.5, 0.25))
    r_hat = VectorPoly.from_terms(2, [(1, (2, 0), 1.0)])
    with pytest.raises(ResonanceError) as info:
        lie_solve(r_hat, spec)
    assert info.value.component == 1
    assert info.value.alpha == (2, 0)
    assert abs(info.value.mu) <= 1e-15
    # the 1-based component is what the message shows
    assert "component 2" in str(info.value)


def test_lie_solve_near_resonant_warns():
    spec = Spectrum((0.5, 0.25 + 1e-6))
    r_hat = VectorPoly.from_terms(2, [(1, (2, 0), 1.0)])
    with pytest.warns(RuntimeWarning):
        q = lie_solve(r_hat, spec)
    assert abs(q.components[1].coefficient((2, 0))) == pytest.approx(1e6, rel=1e-3)


def test_homological_identity_random():
    rng = np.random.default_rng(31)
    for trial in range(20):
        dim = int(rng.integers(1, 4))
        degree = int(rng.integers(2, 5))
        spec = draw_nonresonant_spectrum(dim, rng, degree)
        r_hat = random_homogeneous(dim, degree, rng)
        q = lie_solve(r_hat, spec)
        assert coeff_rel_err(lie_apply(q, spec), r_hat) <= 1e-12


@st.composite
def _nonresonant_rhs(draw):
    """A random homogeneous right-hand side and a spectrum with |mu| >= 1e-2."""
    dim = draw(st.integers(1, 3))
    degree = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    spec = draw_nonresonant_spectrum(dim, rng, degree)
    coeff = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
    term = st.tuples(st.integers(0, dim - 1),
                     st.sampled_from(list(multi_indices(dim, degree))), coeff)
    return VectorPoly.from_terms(dim, draw(st.lists(term, max_size=3 * dim))), spec


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_nonresonant_rhs())
def test_lie_apply_inverts_lie_solve(rhs_and_spec):
    r_hat, spec = rhs_and_spec
    assert coeff_rel_err(lie_apply(lie_solve(r_hat, spec), spec), r_hat) <= 1e-12


# -- series reversion ----------------------------------------------------------


def test_series_inverse_catalan_pattern():
    x = ScalarPoly.variable(1, 0)
    phi = VectorPoly((x + x * x,))
    psi = series_inverse(phi, 4)
    assert psi.components[0].terms == {(1,): 1.0, (2,): -1.0, (3,): 2.0, (4,): -5.0}
    ident = VectorPoly.identity(1)
    assert psi.compose(phi, 4) == ident
    assert phi.compose(psi, 4) == ident
    assert series_inverse(psi, 4) == phi


def test_series_inverse_identity():
    ident = VectorPoly.identity(3)
    assert series_inverse(ident, 5) == ident


def test_series_inverse_random_two_sided():
    rng = np.random.default_rng(32)
    ident = VectorPoly.identity(2)
    for trial in range(10):
        q = random_homogeneous(2, 2, rng) + random_homogeneous(2, 3, rng)
        phi = ident + q
        psi = series_inverse(phi, 5)
        left = psi.compose(phi, 5)
        right = phi.compose(psi, 5)
        scale = max(1.0, q.max_abs_coeff())
        assert (left - ident).max_abs_coeff() <= 1e-12 * scale ** 5
        assert (right - ident).max_abs_coeff() <= 1e-12 * scale ** 5


def _series_inverse_until_repeat(phi, max_degree):
    """Reference: iterate psi -> I - Q o psi until a pass returns psi unchanged."""
    ident = VectorPoly.identity(phi.dim)
    q = phi - ident
    psi = ident
    for _ in range(max_degree):
        nxt = ident - q.compose(psi, max_degree)
        if nxt == psi:
            break
        psi = nxt
    return psi


@st.composite
def _near_identity_and_degree(draw):
    """phi = I + Q with Q of lowest degree 2-4 plus higher terms, and a D."""
    dim = draw(st.integers(1, 3))
    low = draw(st.integers(2, 4))
    max_degree = draw(st.integers(1, 7 if dim < 3 else 5))
    coeff = st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0,
                               allow_nan=False, allow_infinity=False)
    lowest = st.tuples(st.integers(0, dim - 1), st.sampled_from(list(multi_indices(dim, low))),
                       coeff)
    higher = [a for d in range(low + 1, low + 4) for a in multi_indices(dim, d)]
    term = st.tuples(st.integers(0, dim - 1), st.sampled_from(higher), coeff)
    terms = [draw(lowest)] + draw(st.lists(term, max_size=2 * dim))
    q = VectorPoly.from_terms(dim, terms)
    return VectorPoly.identity(dim) + q, max_degree


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_near_identity_and_degree())
def test_series_inverse_pass_bound_matches_fixed_point(phi_and_degree):
    phi, d = phi_and_degree
    psi = series_inverse(phi, d)
    expected = _series_inverse_until_repeat(phi, d)
    for got, want in zip(psi.components, expected.components):
        assert repr(list(got.terms.items())) == repr(list(want.terms.items()))
    ident = VectorPoly.identity(phi.dim)
    scale = max(1.0, (phi - ident).max_abs_coeff())
    assert (psi.compose(phi, d) - ident).max_abs_coeff() <= 1e-12 * scale ** d
    assert (phi.compose(psi, d) - ident).max_abs_coeff() <= 1e-12 * scale ** d


def test_series_inverse_validation():
    x = ScalarPoly.variable(1, 0)
    with pytest.raises(ValueError):
        series_inverse(VectorPoly((x + ScalarPoly.constant(1, 1.0),)), 3)
    with pytest.raises(ValueError):
        series_inverse(VectorPoly((2.0 * x,)), 3)
    with pytest.raises(ValueError):
        series_inverse(VectorPoly((x,)), 0)


# -- epsilon_bound -------------------------------------------------------------


def test_epsilon_bound_values():
    x = ScalarPoly.variable(1, 0)
    q2 = VectorPoly((x * x,))
    assert epsilon_bound(q2) == pytest.approx(0.25, abs=1e-15)
    assert epsilon_bound(2.0 * q2) == pytest.approx(0.125, abs=1e-15)
    q3 = VectorPoly((x * x * x,))
    assert epsilon_bound(q3) == pytest.approx(math.sqrt(0.5 / 3), rel=1e-12)
    assert epsilon_bound(VectorPoly.zero(2)) == 1.0
    # a weak correction cannot push the radius beyond the cap of 1
    assert epsilon_bound(0.01 * q2) == 1.0
    # coefficient bound N = 1 + 1 + 1 = 3, so epsilon = beta / (2 N) = 1/12
    x1, x2 = ScalarPoly.variable(2, 0), ScalarPoly.variable(2, 1)
    q_mixed = VectorPoly((x1 * x1 + x1 * x2 - x2 * x2, ScalarPoly.zero(2)))
    assert epsilon_bound(q_mixed, beta=0.5) == pytest.approx(1 / 12, rel=1e-15)


def test_epsilon_bound_jacobian_at_worst_point():
    # At (eps, i eps) both partials of x1^2 + x1 x2 - x2^2 have modulus
    # sqrt(5) eps, so the Jacobian's row sum 2 sqrt(5) eps must stay <= beta.
    x1, x2 = ScalarPoly.variable(2, 0), ScalarPoly.variable(2, 1)
    q = VectorPoly((x1 * x1 + x1 * x2 - x2 * x2, ScalarPoly.zero(2)))
    eps = epsilon_bound(q, beta=0.5)
    row_sum = jacobian_row_sum(q, (eps, 1j * eps))
    assert row_sum == pytest.approx(2 * math.sqrt(5) * eps, rel=1e-14)
    assert row_sum <= 0.5


@st.composite
def _homogeneous_and_point(draw):
    dim = draw(st.integers(1, 3))
    degree = draw(st.integers(2, 4))
    coeff = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
    terms = [
        (j, alpha, draw(coeff))
        for j in range(dim)
        for alpha in multi_indices(dim, degree)
    ]
    # The bound is tight on the sphere at phases that align the terms, so
    # draw unit moduli and quarter turns often.
    radius = st.just(1.0) | st.floats(0.0, 1.0)
    quarter_turns = st.sampled_from([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi])
    angle = quarter_turns | st.floats(0.0, 2 * math.pi)
    radii = draw(st.lists(radius, min_size=dim, max_size=dim))
    angles = draw(st.lists(angle, min_size=dim, max_size=dim))
    unit = [r * complex(math.cos(a), math.sin(a)) for r, a in zip(radii, angles)]
    return VectorPoly.from_terms(dim, terms), unit


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_homogeneous_and_point(), st.floats(0.05, 0.95))
def test_epsilon_bound_contracts_on_its_ball(q_and_unit, beta):
    q, unit = q_and_unit
    eps = epsilon_bound(q, beta)
    x = [eps * u for u in unit]
    assert jacobian_row_sum(q, x) <= beta * (1 + 1e-12)


def test_epsilon_bound_validation():
    x = ScalarPoly.variable(1, 0)
    q = VectorPoly((x * x,))
    with pytest.raises(ValueError):
        epsilon_bound(q, beta=0.0)
    with pytest.raises(ValueError):
        epsilon_bound(q, beta=1.0)
    with pytest.raises(ValueError):
        epsilon_bound(VectorPoly((x,)))
    with pytest.raises(ValueError):
        epsilon_bound(VectorPoly((x + x * x,)))


# -- single elimination steps ---------------------------------------------------


def test_normal_form_step_worked():
    t_map, spec = one_d_map()
    stage = normal_form_step(t_map.truncate(4), 1, spec, 4)
    assert stage.m == 2
    assert stage.Q.components[0].terms == {(2,): -4.0}
    assert stage.T_after.homogeneous_part(2).max_abs_coeff() <= 1e-13
    assert stage.epsilon == pytest.approx(0.0625, abs=1e-15)


def test_normal_form_step_no_work_to_do():
    spec = Spectrum((0.5,))
    x = ScalarPoly.variable(1, 0)
    cubic_only = VectorPoly((0.5 * x + x * x * x,))
    stage = normal_form_step(cubic_only, 1, spec, 4)
    assert stage.Q.is_zero()
    assert stage.epsilon == 1.0
    assert stage.T_after == cubic_only


def test_normal_form_step_validation():
    t_map, spec = one_d_map()
    with pytest.raises(ValueError):
        normal_form_step(t_map, 0, spec, 4)
    with pytest.raises(ValueError):
        normal_form_step(t_map, 3, spec, 3)
    shifted = t_map + VectorPoly.from_terms(1, [(0, (0,), 0.1)])
    with pytest.raises(ValueError):
        normal_form_step(shifted, 1, spec, 4)
    wrong_linear = VectorPoly.from_terms(1, [(0, (1,), 0.7), (0, (2,), 1.0)])
    with pytest.raises(ValueError):
        normal_form_step(wrong_linear, 1, spec, 4)


def test_normal_form_step_rejects_nondiagonal_linear():
    spec = Spectrum((0.5, 0.3))
    t_map = VectorPoly.from_terms(
        2, [(0, (1, 0), 0.5), (0, (0, 1), 0.2), (1, (0, 1), 0.3), (0, (2, 0), 1.0)]
    )
    with pytest.raises(ValueError):
        normal_form_step(t_map, 1, spec, 3)


# -- full pipeline ---------------------------------------------------------------


def test_run_planted_roundtrip():
    for seed in (101, 202):
        spec, t_map, q2, q3 = plant_linearizable_map(seed, max_degree=5)
        seq = run(t_map, spec, 5)
        assert coeff_rel_err(seq.stages[0].Q, q2) <= 1e-9
        assert coeff_rel_err(seq.stages[1].Q, q3) <= 1e-9
        scale = max(1.0, t_map.max_abs_coeff())
        for stage in seq.stages[2:]:
            assert stage.Q.max_abs_coeff() <= 1e-9 * scale
        final = seq.stages[-1].T_after
        for k in range(2, 6):
            assert final.homogeneous_part(k).max_abs_coeff() <= 1e-9 * scale


def test_run_resonance_reports_stage():
    spec = Spectrum((0.5, 0.25))
    t_map = spec.diagonal_map() + VectorPoly.from_terms(2, [(1, (2, 0), 1.0)])
    with pytest.raises(ResonanceError) as info:
        run(t_map, spec, 3)
    assert info.value.stage == 2
    assert info.value.component == 1
    assert info.value.alpha == (2, 0)


def test_run_resonance_at_higher_stage():
    # lambda_1^3 equals lambda_2, so the cubic term in component 2 resists
    # elimination while the quadratic stage passes untouched
    spec = Spectrum((0.5, 0.125))
    t_map = spec.diagonal_map() + VectorPoly.from_terms(2, [(1, (3, 0), 1.0)])
    with pytest.raises(ResonanceError) as info:
        run(t_map, spec, 4)
    assert info.value.stage == 3
    assert info.value.alpha == (3, 0)


def test_run_requires_stability_by_default():
    spec = Spectrum((1.5,))
    t_map = VectorPoly.from_terms(1, [(0, (1,), 1.5), (0, (2,), 1.0)])
    with pytest.raises(ValueError):
        run(t_map, spec, 3)
    seq = run(t_map, spec, 3, require_stable=False)
    assert len(seq.stages) == 2
    final = seq.stages[-1].T_after
    for k in (2, 3):
        assert final.homogeneous_part(k).max_abs_coeff() <= 1e-9


def test_run_validation():
    t_map, spec = one_d_map()
    with pytest.raises(ValueError):
        run(t_map, spec, 1)
    with pytest.raises(ValueError):
        run(t_map, Spectrum((0.5, 0.3)), 3)
    poisoned = VectorPoly.from_terms(1, [(0, (1,), 0.5), (0, (2,), float("nan"))])
    with pytest.raises(ValueError, match="survived elimination"):
        run(poisoned, spec, 3)


def test_sequence_stage_access():
    t_map, spec = one_d_map()
    seq = run(t_map, spec, 4)
    assert seq.stage(2).m == 2
    assert seq.stage(4).m == 4
    with pytest.raises(ValueError):
        seq.stage(1)
    with pytest.raises(ValueError, match=r"^m must lie in 2\.\.4$"):
        seq.stage(5)
    phi2 = seq.phi(2)
    assert phi2.components[0].terms == {(1,): 1.0, (2,): -4.0}
    # the factor is stored on its stage, not rebuilt per call
    assert seq.phi(3) is seq.phi(3)
    assert seq.phi(3) == VectorPoly.identity(spec.dim) + seq.stage(3).Q


# -- conjugacy assembly ----------------------------------------------------------


def test_tau_worked_composition():
    t_map, spec = one_d_map()
    seq = run(t_map, spec, 4)
    assert tau(seq, 2) == seq.phi(2).truncate(4)
    expected3 = seq.phi(2).compose(seq.phi(3), 4)
    assert tau(seq, 3) == expected3
    expected4 = expected3.compose(seq.phi(4), 4)
    assert tau(seq, 4) == expected4
    # linear part of every conjugacy is the identity
    np.testing.assert_allclose(tau(seq, 4).linear_matrix(), np.eye(1))


def test_tau_cache_and_truncation():
    t_map, spec = two_d_map()
    seq = run(t_map, spec, 4)
    first = tau(seq, 3)
    assert tau(seq, 3) is first
    assert tau(seq, 4, max_degree=2) == seq.phi(2).truncate(2)
    with pytest.raises(ValueError):
        tau(seq, 1)
    with pytest.raises(ValueError):
        tau(seq, 5)


def test_two_d_pipeline_linearizes():
    t_map, spec = two_d_map()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        seq = run(t_map, spec, 4)
    final = seq.stages[-1].T_after
    scale = max(1.0, t_map.max_abs_coeff())
    for k in range(2, 5):
        assert final.homogeneous_part(k).max_abs_coeff() <= 1e-9 * scale
    np.testing.assert_allclose(
        final.linear_matrix(), np.diag([0.5, 0.3]), atol=1e-12
    )
