"""Pullback observables, conjugation in the algebra, density demo."""

import math
import warnings

import numpy as np
import pytest

from koopnf import (
    PullbackObservable,
    ScalarPoly,
    Spectrum,
    VectorPoly,
    conjugate_in_algebra,
    density_demo,
    eval_approx_eigenfunction,
    pullback_eval,
    run,
    tau_inverse_pointwise,
)

from helpers import gentle_1d_map, one_d_map, random_scalar


def _gentle_seq(d=3):
    t_map, spec = gentle_1d_map()
    return t_map, spec, run(t_map, spec, d)


def test_observable_validation():
    _, _, seq = _gentle_seq()
    f2 = ScalarPoly.variable(2, 0)
    with pytest.raises(ValueError):
        PullbackObservable(f2, 2, seq)
    f = ScalarPoly.variable(1, 0)
    with pytest.raises(ValueError):
        PullbackObservable(f, 1, seq)
    with pytest.raises(ValueError):
        PullbackObservable(f, 4, seq)
    with_const = f + ScalarPoly.constant(1, 1.0)
    with pytest.raises(ValueError):
        PullbackObservable(with_const, 2, seq, with_constant=False)
    # declaring the constant is fine when one is present
    PullbackObservable(with_const, 2, seq, with_constant=True)


def test_pullback_constant_observable():
    _, _, seq = _gentle_seq()
    obs = PullbackObservable(ScalarPoly.constant(1, 2.5), 3, seq)
    assert pullback_eval(obs, np.array([0.05])) == 2.5


def test_pullback_monomial_matches_eigenfunction_eval():
    _, _, seq = _gentle_seq()
    f = ScalarPoly.monomial(1, (2,), 1.0)
    obs = PullbackObservable(f, 3, seq)
    x = np.array([0.04 - 0.02j])
    want, _ = eval_approx_eigenfunction((2,), seq, 3, x)
    assert pullback_eval(obs, x) == want


def test_pullback_is_algebra_homomorphism():
    _, _, seq = _gentle_seq()
    rng = np.random.default_rng(51)
    f = random_scalar(1, 3, rng)
    g = random_scalar(1, 2, rng)
    x = np.array([0.03 + 0.01j])
    left = pullback_eval(PullbackObservable(f * g, 3, seq), x)
    right = pullback_eval(PullbackObservable(f, 3, seq), x) * pullback_eval(
        PullbackObservable(g, 3, seq), x
    )
    assert abs(left - right) <= 1e-12 * max(1.0, abs(right))


def test_origin_vanishing_observables_vanish_exactly():
    _, _, seq = _gentle_seq()
    f = ScalarPoly.variable(1, 0) + ScalarPoly.monomial(1, (2,), 0.7)
    obs = PullbackObservable(f, 3, seq, with_constant=False)
    assert pullback_eval(obs, np.zeros(1)) == 0.0


def test_conjugate_swaps_paired_exponents():
    f = ScalarPoly(2, {(2, 1): 2 + 3j, (1, 0): 1j})
    g = conjugate_in_algebra(f, [(0, 1)])
    assert g.terms == {(1, 2): 2 - 3j, (0, 1): -1j}


def test_conjugate_is_involution():
    rng = np.random.default_rng(52)
    f = random_scalar(3, 3, rng)
    g = conjugate_in_algebra(conjugate_in_algebra(f, [(0, 2)]), [(0, 2)])
    assert g == f


def test_conjugate_fixed_real_directions():
    # with no pairs, conjugation only conjugates coefficients
    f = ScalarPoly(1, {(1,): 2.0, (3,): -0.5})
    assert conjugate_in_algebra(f, []) == f
    h = ScalarPoly(1, {(2,): 1j})
    assert conjugate_in_algebra(h, []).terms == {(2,): -1j}


def test_conjugate_evaluates_to_conjugate_on_respecting_points():
    rng = np.random.default_rng(53)
    f = random_scalar(3, 3, rng)
    g = conjugate_in_algebra(f, [(0, 2)])
    for trial in range(10):
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        r = rng.uniform(-1, 1)
        z = np.array([c, r, c.conjugate()])
        want = f.evaluate(z).conjugate()
        got = g.evaluate(z)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_conjugate_validation():
    f = ScalarPoly.variable(2, 0)
    with pytest.raises(ValueError):
        conjugate_in_algebra(f, [(0, 2)])
    with pytest.raises(ValueError):
        conjugate_in_algebra(f, [(1, 1)])
    g = ScalarPoly.variable(4, 0)
    with pytest.raises(ValueError):
        conjugate_in_algebra(g, [(0, 1), (1, 2)])


def test_density_demo_smooth_target_converges():
    _, _, seq = _gentle_seq()
    table = density_demo(
        lambda pt: math.exp(float(np.sum(pt))), 5, seq, 3, [(-0.2, 0.2)]
    )
    assert [row.degree for row in table.rows] == [0, 1, 2, 3, 4, 5]
    assert table.monotonicity_violations == 0
    assert table.sup_error(5) <= 0.1 * table.sup_error(1)
    assert not any(row.flagged for row in table.rows)


def test_density_demo_member_of_algebra_hits_floor():
    _, _, seq = _gentle_seq()
    f = ScalarPoly(1, {(1,): 1.0, (2,): 0.3})

    def target(pt):
        z = tau_inverse_pointwise(seq, 3, np.asarray(pt, dtype=complex))
        return f.evaluate(z)

    table = density_demo(target, 3, seq, 3, [(-0.2, 0.2)])
    assert table.sup_error(1) >= 1e-4
    assert table.sup_error(2) <= 1e-8
    assert table.sup_error(3) <= 1e-8


def test_density_demo_without_constant_cannot_reach_constants():
    _, _, seq = _gentle_seq()
    table = density_demo(
        lambda pt: 1.0, 4, seq, 3, [(-0.2, 0.2)], with_constant=False
    )
    # every fit vanishes at the origin grid point while the target is 1
    for row in table.rows:
        assert row.degree >= 1
        assert row.sup_error >= 0.9
    # the violation counter agrees with a direct scan of the rows
    expected = sum(
        1
        for a, b in zip(table.rows, table.rows[1:])
        if b.sup_error > a.sup_error * (1 + 1e-9)
    )
    assert table.monotonicity_violations == expected


def test_density_demo_validation():
    _, _, seq = _gentle_seq()
    target = lambda pt: 1.0
    with pytest.raises(ValueError):
        density_demo(target, 0, seq, 3, [(-0.1, 0.1)])
    with pytest.raises(ValueError):
        density_demo(target, 3, seq, 3, [(-0.1, 0.1), (-0.1, 0.1)])
    with pytest.raises(ValueError):
        density_demo(target, 3, seq, 3, [(0.1, -0.1)])
    with pytest.raises(ValueError):
        density_demo(target, 3, seq, 3, [(-0.1, 0.1)], grid_points=1)


def test_density_demo_rejects_high_dimension():
    spec = Spectrum((0.5, 0.4, 0.3))
    t_map = spec.diagonal_map()
    seq = run(t_map, spec, 2)
    with pytest.raises(ValueError):
        density_demo(lambda pt: 1.0, 2, seq, 2, [(-0.1, 0.1)] * 3)


def test_density_demo_box_outside_domain_fails_clearly():
    # the steep worked map stops being invertible well inside this box
    t_map, spec = one_d_map()
    seq = run(t_map, spec, 3)
    with pytest.warns(RuntimeWarning, match="outside the inversion radius"), \
            pytest.raises(ValueError, match="shrink the box"):
        density_demo(lambda pt: 1.0, 3, seq, 2, [(-0.2, 0.2)])
    # Phi_2(x) = x - 4 x^2 has a real pre-image only for y <= 1/16, so on the
    # 41-point grid over [-0.1, 0.3] the 24 points from 0.07 up fail, and all
    # of them are counted.
    with pytest.warns(RuntimeWarning, match="outside the inversion radius"), \
            pytest.raises(ValueError, match=r"24 of 41 grid points, first at \[0\.07") as info:
        density_demo(lambda pt: 1.0, 3, seq, 2, [(-0.1, 0.3)])
    assert "shrink the box" in str(info.value)


def test_density_demo_warns_when_box_leaves_the_radius():
    # the gentle map's stage-2 radius is 0.625; the four grid points below it
    # still invert, so the fit completes after the warning
    _, _, seq = _gentle_seq()
    with pytest.warns(RuntimeWarning, match=r"^4 of 41 grid points lie outside the "
                                            r"inversion radius epsilon 0\.625;"):
        table = density_demo(lambda pt: 1.0, 2, seq, 2, [(-0.7, 0.1)])
    assert [row.degree for row in table.rows] == [0, 1, 2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        density_demo(lambda pt: 1.0, 2, seq, 2, [(-0.2, 0.2)])


def test_density_demo_rejects_order_above_degree():
    _, _, seq = _gentle_seq(3)
    with pytest.raises(ValueError, match=r"^m must lie in 2\.\.3$"):
        density_demo(lambda pt: 1.0, 3, seq, 7, [(-0.1, 0.1)])
