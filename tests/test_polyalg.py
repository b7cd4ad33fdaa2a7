"""Polynomial algebra: canonical storage, arithmetic, composition, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopnf import (
    ScalarPoly,
    VectorPoly,
    grlex_key,
    linf,
    multi_indices,
    polarize,
    sphere_points,
    sup_norm_estimate,
)

from helpers import coeff_rel_err, complex_bits, random_homogeneous, random_point, random_scalar


def test_canonical_storage_merges_and_drops():
    p = ScalarPoly(2, [((1, 0), 2.0), ((1, 0), 3.0), ((0, 2), 0.0)])
    assert p.terms == {(1, 0): 5.0}
    q = ScalarPoly(2, [((1, 1), 1.0), ((1, 1), -1.0)])
    assert q.is_zero()
    assert q.degree == 0


def test_terms_are_grlex_sorted():
    p = ScalarPoly(2, {(0, 3): 1.0, (2, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0})
    keys = list(p.terms)
    assert keys == sorted(keys, key=grlex_key)
    assert keys == [(0, 1), (1, 1), (2, 0), (0, 3)]


def test_invalid_exponents_rejected():
    with pytest.raises(ValueError):
        ScalarPoly(2, {(1,): 1.0})
    with pytest.raises(ValueError):
        ScalarPoly(2, {(-1, 2): 1.0})
    with pytest.raises(ValueError):
        ScalarPoly(0, {})


@pytest.mark.parametrize("bad", [(1.5, 0), (1.0, 0), (True, 1), (1, False),
                                 (np.float64(2.0), 0), (np.bool_(True), 0), ("1", 0)])
def test_non_integer_exponents_rejected(bad):
    with pytest.raises(ValueError, match="non-integer entry"):
        ScalarPoly(2, {bad: 1.0})
    with pytest.raises(ValueError, match="non-integer entry"):
        VectorPoly.from_terms(2, [(0, bad, 1.0)])
    with pytest.raises(ValueError, match="non-integer entry"):
        ScalarPoly.monomial(2, (1, 1)).coefficient(bad)


def test_numpy_integer_exponents_accepted():
    p = ScalarPoly(2, {(np.int64(1), np.int32(2)): 1.0})
    assert p.terms == {(1, 2): 1.0}
    assert all(type(a) is int for a in next(iter(p.terms)))
    assert p.coefficient(np.array([1, 2])) == 1.0


def test_constructors_and_eval():
    x0 = ScalarPoly.variable(2, 0)
    x1 = ScalarPoly.variable(2, 1)
    p = x0 * x0 * x1
    assert p.terms == {(2, 1): 1.0}
    assert p.evaluate(np.array([2.0, 3.0])) == 12.0
    c = ScalarPoly.constant(2, 4.5)
    assert c.evaluate(np.array([9.0, -9.0])) == 4.5
    assert ScalarPoly.zero(3).evaluate(np.zeros(3)) == 0.0


def test_eval_is_order_independent():
    # same polynomial built with term lists in different orders must
    # evaluate bit-for-bit identically thanks to canonical summation order
    items = [((2, 0), 0.3 + 0.1j), ((0, 2), -0.7j), ((1, 1), 1.25), ((3, 0), 0.002)]
    p = ScalarPoly(2, items)
    q = ScalarPoly(2, list(reversed(items)))
    z = np.array([0.3 - 0.2j, -0.8 + 0.5j])
    assert p.evaluate(z) == q.evaluate(z)
    assert p == q


def test_arithmetic_identities():
    x = ScalarPoly.variable(1, 0)
    one = ScalarPoly.constant(1, 1.0)
    square = (x + one) * (x + one)
    assert square.terms == {(0,): 1.0, (1,): 2.0, (2,): 1.0}
    assert (square - square).is_zero()
    assert (2.0 * x).terms == {(1,): 2.0}
    assert (x * 0.0).is_zero()


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        ScalarPoly.variable(1, 0) + ScalarPoly.variable(2, 0)
    with pytest.raises(ValueError):
        ScalarPoly.variable(1, 0) * ScalarPoly.variable(2, 1)


def test_homogeneous_parts_sum_back():
    rng = np.random.default_rng(5)
    p = random_scalar(2, 4, rng)
    total = ScalarPoly.zero(2)
    for k in range(p.degree + 1):
        part = p.homogeneous_part(k)
        if not part.is_zero():
            assert part.is_homogeneous()
            assert part.lowest_degree() == k
        total = total + part
    assert total == p


def test_vector_homogeneous_degree():
    x1, x2 = ScalarPoly.variable(2, 0), ScalarPoly.variable(2, 1)
    assert VectorPoly((x1 * x2, x2 * x2)).homogeneous_degree() == 2
    # a zero component has no terms, so it does not break homogeneity
    assert VectorPoly((x1 * x1 * x2, ScalarPoly.zero(2))).homogeneous_degree() == 3
    assert VectorPoly((x1 * x1, x2 * x2 * x2)).homogeneous_degree() is None
    assert VectorPoly((x1 + x1 * x1, x2)).homogeneous_degree() is None
    assert VectorPoly.zero(2).homogeneous_degree() is None


def test_truncate():
    rng = np.random.default_rng(6)
    p = random_scalar(2, 5, rng)
    t = p.truncate(3)
    assert t.degree <= 3
    assert t.truncate(3) == t
    assert p.truncate(p.degree) == p
    assert (p - t).lowest_degree() == 4


def test_compose_worked_example():
    # (x)^2 composed with x + x^2 is x^2 + 2x^3 + x^4
    x = ScalarPoly.variable(1, 0)
    inner = VectorPoly((x + x * x,))
    outer = x * x
    full = outer.compose(inner, 4)
    assert full.terms == {(2,): 1.0, (3,): 2.0, (4,): 1.0}
    cut = outer.compose(inner, 3)
    assert cut.terms == {(2,): 1.0, (3,): 2.0}


def test_compose_with_identity():
    rng = np.random.default_rng(7)
    p = random_scalar(2, 4, rng)
    ident = VectorPoly.identity(2)
    assert p.compose(ident, 4) == p
    v = VectorPoly((p, random_scalar(2, 3, rng)))
    assert v.compose(ident, 4) == v
    assert ident.compose(v.truncate(4), 4) == v.truncate(4)


def test_compose_matches_pointwise_when_untruncated():
    rng = np.random.default_rng(8)
    for trial in range(20):
        outer = random_scalar(2, 3, rng)
        inner = VectorPoly((random_scalar(2, 2, rng), random_scalar(2, 2, rng)))
        full_degree = outer.degree * inner.degree
        comp = outer.compose(inner, full_degree)
        z = random_point(2, rng, 0.4)
        direct = outer.evaluate(inner.evaluate(z))
        got = comp.evaluate(z)
        assert abs(got - direct) <= 1e-10 * max(1.0, abs(direct))


@st.composite
def _origin_fixing_maps(draw, count):
    """``count`` sparse maps of one dim (1-3) with terms of degree 1-3, and a D <= 5."""
    dim = draw(st.integers(1, 3))
    alphas = [a for d in range(1, 4) for a in multi_indices(dim, d)]
    coeff = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    term = st.tuples(st.integers(0, dim - 1), st.sampled_from(alphas), coeff)
    maps = [VectorPoly.from_terms(dim, draw(st.lists(term, max_size=3 * dim)))
            for _ in range(count)]
    return maps, draw(st.integers(1, 5))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_origin_fixing_maps(3))
def test_compose_is_associative_within_truncation(maps_and_degree):
    (f, g, h), d = maps_and_degree
    left = f.compose(g, d).compose(h, d)
    right = f.compose(g.compose(h, d), d)
    assert coeff_rel_err(left, right) <= 1e-12


@st.composite
def _scalar_pair_and_degree(draw):
    """Two sparse polynomials of one dim (1-3) with terms of degree 0-4, and a D <= 6."""
    dim = draw(st.integers(1, 3))
    alphas = [a for d in range(5) for a in multi_indices(dim, d)]
    # small exact values make exact cancellations in the sums likely
    coeff = st.sampled_from([1.0, -1.0, 0.5, 1j, -0.5j]) | st.complex_numbers(
        max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    poly = st.dictionaries(st.sampled_from(alphas), coeff, max_size=8)
    return ScalarPoly(dim, draw(poly)), ScalarPoly(dim, draw(poly)), draw(st.integers(0, 6))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_scalar_pair_and_degree())
def test_mul_truncated_equals_truncated_product(pair_and_degree):
    p, q, d = pair_and_degree
    got = p._mul_truncated(q, d)
    # repr tells signed zeros apart, so this checks every bit and the key order
    assert repr(list(got.terms.items())) == repr(list((p * q).truncate(d).terms.items()))
    assert got.degree == (p * q).truncate(d).degree


def _compose_by_public_ops(outer, inner, d):
    """Reference: each term's product of truncated powers, summed with ``+``."""
    result = ScalarPoly.zero(inner.dim)
    for alpha, c in outer.terms.items():
        prod = ScalarPoly.constant(inner.dim, c)
        for p, a in zip(inner.components, alpha):
            if a:
                power = p.truncate(d)
                for _ in range(a - 1):
                    power = (power * p).truncate(d)
                prod = (prod * power).truncate(d)
        result = result + prod
    return result


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_origin_fixing_maps(2))
def test_compose_matches_public_ops_bit_for_bit(maps_and_degree):
    (f, g), d = maps_and_degree
    for got, comp in zip(f.compose(g, d).components, f.components):
        want = _compose_by_public_ops(comp, g, d)
        assert repr(list(got.terms.items())) == repr(list(want.terms.items()))


def test_compose_rejects_unsafe_truncation_with_constant_inner():
    x = ScalarPoly.variable(1, 0)
    outer = x * x
    shifted = VectorPoly((x + ScalarPoly.constant(1, 0.5),))
    with pytest.raises(ValueError):
        outer.compose(shifted, 1)
    # a full-degree request is exact and therefore allowed
    comp = outer.compose(shifted, 2)
    assert comp.terms == {(0,): 0.25, (1,): 1.0, (2,): 1.0}


def test_truncated_compose_error_has_high_order():
    # when both maps fix the origin, truncation at D only discards
    # terms of degree > D, so the pointwise error falls faster than r^D
    rng = np.random.default_rng(9)
    outer = random_scalar(2, 3, rng, min_degree=1)
    inner = VectorPoly((random_scalar(2, 2, rng, min_degree=1),
                        random_scalar(2, 2, rng, min_degree=1)))
    d_cut = 3
    comp = outer.compose(inner, d_cut)
    radii = [1e-2, 1e-3, 1e-4]
    errs = []
    for r in radii:
        worst = 0.0
        for s in range(8):
            z = r * sphere_points(2, 8, seed=100 + s)[s]
            exact = outer.evaluate(inner.evaluate(z))
            errs_here = abs(comp.evaluate(z) - exact)
            worst = max(worst, errs_here)
        errs.append(worst)
    slope = (math.log(errs[0]) - math.log(errs[-1])) / (math.log(radii[0]) - math.log(radii[-1]))
    assert slope >= d_cut + 0.7


def test_vector_construction_and_projections():
    v = VectorPoly.from_terms(2, [(0, (1, 0), 0.5), (1, (0, 1), 0.25), (0, (2, 0), 1.0)])
    assert v.dim == 2
    assert v.degree == 2
    np.testing.assert_allclose(v.constant_vector(), np.zeros(2))
    lin = v.linear_matrix()
    np.testing.assert_allclose(lin, np.diag([0.5, 0.25]))
    assert v.components[1].terms == {(0, 1): 0.25}
    with pytest.raises(ValueError):
        VectorPoly.from_terms(2, [(2, (1, 0), 1.0)])


def test_vector_helpers():
    ident = VectorPoly.identity(3)
    assert ident.degree == 1
    assert ident.lowest_degree() == 1
    z = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(ident.evaluate(z), z)
    diag = VectorPoly.diagonal((0.5, 0.25, 0.1))
    np.testing.assert_allclose(diag.evaluate(z), [0.5, 0.5, 0.3])
    mat = np.array([[1.0, 2.0], [3.0, 4.0]])
    aff = VectorPoly.from_linear(mat)
    y = np.array([1.0, 1.0])
    np.testing.assert_allclose(aff.evaluate(y), mat @ y)


def test_matrix_apply():
    rng = np.random.default_rng(10)
    v = random_homogeneous(2, 2, rng)
    mat = rng.uniform(-1, 1, (2, 2))
    w = v.matrix_apply(mat)
    z = random_point(2, rng, 0.5)
    np.testing.assert_allclose(w.evaluate(z), mat @ v.evaluate(z), rtol=1e-12, atol=1e-14)


def test_polarize_worked_example():
    x0 = ScalarPoly.variable(2, 0)
    x1 = ScalarPoly.variable(2, 1)
    p = x0 * x1
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    assert polarize(p, [e0, e1]) == pytest.approx(0.5, abs=1e-15)


def test_polarize_diagonal_recovers_polynomial():
    rng = np.random.default_rng(11)
    for degree in (2, 3, 4):
        p = random_homogeneous(2, degree, rng).components[0]
        z = random_point(2, rng, 0.8)
        want = p.evaluate(z)
        assert abs(polarize(p, [z] * degree) - want) <= 1e-11 * max(1.0, abs(want))


def test_polarize_symmetry():
    rng = np.random.default_rng(12)
    p = random_homogeneous(2, 3, rng).components[0]
    pts = [random_point(2, rng) for _ in range(3)]
    base = polarize(p, pts)
    swapped = polarize(p, [pts[2], pts[0], pts[1]])
    assert abs(swapped - base) <= 1e-11 * max(1.0, abs(base))


def test_polarize_binomial_identity():
    rng = np.random.default_rng(15)
    for m in (2, 3, 4):
        p = random_homogeneous(2, m, rng).components[0]
        x = random_point(2, rng)
        y = random_point(2, rng)
        direct = p.evaluate(x + y)
        total = sum(
            math.comb(m, j) * polarize(p, [x] * (m - j) + [y] * j)
            for j in range(m + 1)
        )
        assert abs(total - direct) <= 1e-12 * max(1.0, abs(direct))


def test_polarize_rejects_bad_input():
    rng = np.random.default_rng(13)
    p = random_homogeneous(2, 2, rng).components[0]
    with pytest.raises(ValueError):
        polarize(p, [np.zeros(2)])
    mixed = p + random_homogeneous(2, 3, rng).components[0]
    with pytest.raises(ValueError):
        polarize(mixed, [np.zeros(2)] * 3)


def test_linf():
    assert linf(np.array([1.0, -2.0])) == 2.0
    assert linf(np.array([3j, 1.0])) == 3.0
    assert linf(np.array([0.0])) == 0.0


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("x", [
    [_NAN, 1.0, 2.0],
    [1.0, 2.0, complex(0.5, _NAN)],
    [_NAN, _INF],
    [_INF, complex(_NAN, 1.0)],
    [complex(_NAN, _INF), 1.0],  # numpy's modulus of (nan, inf) is inf
    [-_INF, 2.0],
    [complex(1.0, -_INF), _INF],
    [-0.0, complex(-0.0, -0.0)],
    [complex(-0.0, 3e-310), -0.0],
    np.array(3 - 4j),
    np.array([[1.0, -2j], [0.5, complex(1.5, -1.5)]]),
    np.array([[1.0, _NAN], [_INF, 0.0]]),
], ids=lambda x: repr(np.asarray(x).tolist()))
def test_linf_keeps_numpy_max_bits(x):
    want = float(np.max(np.abs(np.asarray(x, dtype=complex))))
    got = linf(x)
    assert type(got) is float
    assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


@pytest.mark.parametrize("x", [[], np.zeros(0), np.zeros((0, 2))])
def test_linf_rejects_empty_input(x):
    with pytest.raises(ValueError):
        linf(x)


def test_sphere_points_shape_and_norm():
    pts = sphere_points(3, 17, seed=4)
    assert pts.shape == (17, 3)
    for row in pts:
        assert abs(linf(row) - 1.0) <= 1e-12
    again = sphere_points(3, 17, seed=4)
    np.testing.assert_array_equal(pts, again)
    other = sphere_points(3, 17, seed=5)
    assert not np.array_equal(pts, other)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        sphere_points(2, 0, seed=0)


def test_sup_norm_estimate_scales():
    rng = np.random.default_rng(14)
    v = random_homogeneous(2, 2, rng)
    a = sup_norm_estimate(v, samples=256, seed=3)
    b = sup_norm_estimate(2.0 * v, samples=256, seed=3)
    assert b == pytest.approx(2.0 * a, rel=1e-12)
    ident = VectorPoly.identity(2)
    assert sup_norm_estimate(ident, samples=256, seed=3) == pytest.approx(1.0, abs=1e-12)
    # 1D monomial x^2 attains its sup exactly on the unit sphere
    x = ScalarPoly.variable(1, 0)
    assert sup_norm_estimate(VectorPoly((x * x,)), samples=64, seed=0) == pytest.approx(1.0, abs=1e-12)


def test_multi_indices_counts_and_order():
    for dim, order in ((1, 4), (2, 3), (3, 2), (4, 3)):
        idx = list(multi_indices(dim, order))
        assert len(idx) == math.comb(order + dim - 1, dim - 1)
        assert all(sum(a) == order for a in idx)
        assert len(set(idx)) == len(idx)
    assert list(multi_indices(2, 0)) == [(0, 0)]


@st.composite
def _maps_and_points(draw):
    """A sparse map of dim 1-3 with terms of degree 0-5, and 1-6 points."""
    dim = draw(st.integers(1, 3))
    alphas = [a for d in range(6) for a in multi_indices(dim, d)]
    part = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]) | st.floats(-2.0, 2.0)
    value = st.builds(complex, part, part)
    term = st.tuples(st.integers(0, dim - 1), st.sampled_from(alphas), value)
    poly = VectorPoly.from_terms(dim, draw(st.lists(term, max_size=4 * dim)))
    points = draw(st.lists(st.lists(value, min_size=dim, max_size=dim), min_size=1, max_size=6))
    return poly, points


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_maps_and_points())
def test_evaluate_many_matches_evaluate_bit_for_bit(map_and_points):
    poly, points = map_and_points
    want = [poly.evaluate(x) for x in points]
    assert np.array_equal(complex_bits(poly.evaluate_many(points)), complex_bits(want))


def test_evaluate_many_keeps_cpython_products():
    # numpy's complex `*` rounds this product differently on FMA hardware, so
    # evaluating as c * x**a on complex arrays would move a bit here.
    c, x = -0.38 - 0.15j, 0.66 - 0.18j
    for alpha in ((1,), (2,), (3,)):
        poly = VectorPoly.from_terms(1, [(0, alpha, c)])
        assert np.array_equal(complex_bits(poly.evaluate_many([[x]])[0]), complex_bits(poly.evaluate([x])))
    got = VectorPoly.from_terms(1, [(0, (1,), c)]).evaluate_many([[x]])[0]
    assert np.array_equal(complex_bits(got), complex_bits([c * x]))


def test_evaluate_many_powers_above_one_hundred():
    # CPython takes a polar-form power above exponent 100, not binary powering.
    poly = VectorPoly.from_terms(2, [(0, (101, 0), 1.0), (1, (0, 150), 0.5j), (1, (3, 0), 2.0)])
    points = [[1.0001 + 0.0001j, 0.999 - 0.002j], [0.5j, -1.0 + 0.0j]]
    want = [poly.evaluate(x) for x in points]
    assert np.array_equal(complex_bits(poly.evaluate_many(points)), complex_bits(want))


def test_evaluate_many_overflow_rows():
    poly = VectorPoly.from_terms(2, [(0, (3, 0), 1.0), (1, (1, 2), 0.5), (1, (0, 1), 1.0)])
    points = [[0.5, 0.25j], [1e120, 1.0], [1.0, 1e200j], [-2.0, 3.0]]
    values, overflowed = poly._evaluate_rows(points)
    raised = []
    for k, x in enumerate(points):
        try:
            assert complex_bits(values[k]).tolist() == complex_bits(poly.evaluate(x)).tolist()
            raised.append(False)
        except OverflowError:
            raised.append(True)
    assert overflowed.tolist() == raised == [False, True, True, False]
    with pytest.raises(OverflowError, match="row 1"):
        poly.evaluate_many(points)
    with pytest.raises(ValueError, match="shape"):
        poly.evaluate_many([0.5, 0.25])


def test_from_terms_validates_each_exponent_once(monkeypatch):
    import koopnf.polyalg as polyalg

    calls = []
    real = polyalg._validate_alpha
    monkeypatch.setattr(polyalg, "_validate_alpha", lambda *a, **k: calls.append(a) or real(*a, **k))
    entries = [(0, (2, 0), 1.0), (1, (1, 1), 0.5j), (0, (2, 0), 2.0), (1, (0, 3), -1.0)]
    poly = VectorPoly.from_terms(2, entries)
    assert len(calls) == len(entries)
    assert poly.components[0].terms == {(2, 0): 3.0}
    assert poly == VectorPoly([ScalarPoly(2, {(2, 0): 3.0}),
                               ScalarPoly(2, {(1, 1): 0.5j, (0, 3): -1.0})])
