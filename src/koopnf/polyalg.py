"""Sparse multivariate polynomial algebra over complex coordinates.

Polynomials are stored as sparse mappings from exponent tuples to complex
coefficients.  Storage is canonical: zero coefficients are dropped and terms
are kept in graded-lexicographic order, so equal polynomials compare equal
and every evaluation sums terms in the same order (bit-reproducible).

Two kinds of objects are provided: ``ScalarPoly`` (one complex-valued
polynomial in n variables) and ``VectorPoly`` (an n-tuple of scalar
polynomials, i.e. a polynomial self-map of C^n).  Vector norms throughout
the package use the max of coordinate moduli; see ``linf``.
"""

from __future__ import annotations

import math
import operator
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

MultiIndex = tuple[int, ...]

Coeff = complex


def grlex_key(alpha: MultiIndex) -> tuple[int, MultiIndex]:
    """Sort key for graded-lexicographic term order (total degree, then lex)."""
    return (sum(alpha), alpha)


def multi_indices(dim: int, order: int) -> Iterable[MultiIndex]:
    """Yield all exponent tuples of length ``dim`` with entries summing to ``order``.

    Yielded in lexicographic order, so iterating orders 0, 1, 2, ... visits
    multi-indices in graded-lexicographic order overall.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if dim == 1:
        yield (order,)
        return
    for first in range(order + 1):
        for rest in multi_indices(dim - 1, order - first):
            yield (first,) + rest


def _validate_alpha(alpha: Sequence[int], dim: int, min_order: int = 0) -> MultiIndex:
    """``alpha`` as ``dim`` nonnegative exponents of total order >= ``min_order``.

    Entries must be integers (numpy integers included); floats and bools
    are rejected rather than truncated or read as 0/1.
    """
    raw = tuple(alpha)
    try:
        tup = tuple(map(operator.index, raw))
    except TypeError:
        tup = None
    if tup is None or bool in map(type, raw):
        raise ValueError(f"exponent tuple {raw!r} has a non-integer entry")
    if len(tup) != dim:
        raise ValueError(f"exponent tuple {tup} has length {len(tup)}, expected {dim}")
    if any(a < 0 for a in tup):
        raise ValueError(f"exponent tuple {tup} has a negative entry")
    if sum(tup) < min_order:
        raise ValueError(f"exponent tuple {tup} must have order >= {min_order}")
    return tup


class ScalarPoly:
    """A sparse complex polynomial in ``dim`` variables.

    ``terms`` may be a mapping or an iterable of ``(alpha, coeff)`` pairs;
    repeated exponents are summed.  The stored form is canonical: exact-zero
    coefficients are dropped and keys are sorted graded-lexicographically.
    """

    def __init__(self, dim: int, terms: Mapping | Iterable = ()):
        dim = int(dim)
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self._dim = dim
        acc: dict[MultiIndex, complex] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for alpha, c in items:
            key = _validate_alpha(alpha, dim)
            c = complex(c)
            if key in acc:
                acc[key] += c
            else:
                acc[key] = c
        self._set_canonical(acc)

    @classmethod
    def _trusted(cls, dim: int, acc: dict[MultiIndex, complex]) -> "ScalarPoly":
        """Canonical polynomial from terms the package itself produced.

        Keys must already be valid exponent tuples and values Python
        complex numbers, so neither is checked or converted again.
        """
        poly = cls.__new__(cls)
        poly._dim = dim
        poly._set_canonical(acc)
        return poly

    def _set_canonical(self, acc: dict[MultiIndex, complex]) -> None:
        self._terms: dict[MultiIndex, complex] = {
            a: acc[a] for a in sorted(acc, key=grlex_key) if acc[a] != 0
        }
        self._degree = sum(next(reversed(self._terms))) if self._terms else 0

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "ScalarPoly":
        return cls(dim)

    @classmethod
    def constant(cls, dim: int, value: complex) -> "ScalarPoly":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def monomial(cls, dim: int, alpha: Sequence[int], coeff: complex = 1.0) -> "ScalarPoly":
        """The single-term polynomial ``coeff * x^alpha``."""
        return cls(dim, {tuple(alpha): coeff})

    @classmethod
    def variable(cls, dim: int, index: int) -> "ScalarPoly":
        """The coordinate functional x_index (0-based)."""
        if not 0 <= index < dim:
            raise ValueError(f"variable index {index} out of range for dim {dim}")
        alpha = [0] * dim
        alpha[index] = 1
        return cls(dim, {tuple(alpha): 1.0})

    # -- basic queries -------------------------------------------------

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def terms(self) -> dict[MultiIndex, complex]:
        """A copy of the canonical term mapping (grlex key order)."""
        return dict(self._terms)

    @property
    def degree(self) -> int:
        """Maximum total degree over stored terms (0 for the zero polynomial)."""
        return self._degree

    def is_zero(self) -> bool:
        return not self._terms

    def lowest_degree(self) -> int | None:
        """Minimum total degree over stored terms, or None for the zero polynomial."""
        return min((sum(a) for a in self._terms), default=None)

    def coefficient(self, alpha: Sequence[int]) -> complex:
        return self._terms.get(_validate_alpha(alpha, self._dim), 0j)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self._terms.values()), default=0.0)

    def homogeneous_degree(self) -> int | None:
        """The common total degree of all terms, or None if mixed or zero."""
        degs = {sum(a) for a in self._terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self, degree: int | None = None) -> bool:
        d = self.homogeneous_degree()
        if d is None:
            return self.is_zero()
        return degree is None or d == degree

    # -- algebra -------------------------------------------------------

    def _require_same_dim(self, other: "ScalarPoly") -> None:
        if self._dim != other._dim:
            raise ValueError(f"dimension mismatch: {self._dim} vs {other._dim}")

    def __add__(self, other):
        if isinstance(other, ScalarPoly):
            self._require_same_dim(other)
            acc = dict(self._terms)
            for a, c in other._terms.items():
                acc[a] = acc.get(a, 0j) + c
            return ScalarPoly._trusted(self._dim, acc)
        if isinstance(other, (int, float, complex)):
            return self + ScalarPoly.constant(self._dim, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return ScalarPoly._trusted(self._dim, {a: -c for a, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = ScalarPoly.constant(self._dim, other)
        if not isinstance(other, ScalarPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            # complex() keeps numpy scalar factors out of the stored values
            return ScalarPoly._trusted(
                self._dim, {a: complex(c * other) for a, c in self._terms.items()}
            )
        if isinstance(other, ScalarPoly):
            self._require_same_dim(other)
            acc: dict[MultiIndex, complex] = {}
            for a, ca in self._terms.items():
                for b, cb in other._terms.items():
                    key = tuple(x + y for x, y in zip(a, b))
                    acc[key] = acc.get(key, 0j) + ca * cb
            return ScalarPoly(self._dim, acc)
        return NotImplemented

    __rmul__ = __mul__

    def _mul_truncated(self, other: "ScalarPoly", max_degree: int) -> "ScalarPoly":
        """``(self * other).truncate(max_degree)`` without forming the dropped pairs.

        Both term dicts are in grlex order, so degrees never decrease along
        them and each loop stops at the first term that would exceed
        ``max_degree``.  The kept pairs are visited in the order ``__mul__``
        visits them, so every kept coefficient gets the same bits.
        """
        right = [(b, cb, sum(b)) for b, cb in other._terms.items()]
        acc: dict[MultiIndex, complex] = {}
        for a, ca in self._terms.items():
            room = max_degree - sum(a)
            if room < 0:
                break
            for b, cb, db in right:
                if db > room:
                    break
                key = tuple(map(operator.add, a, b))
                acc[key] = acc.get(key, 0j) + ca * cb
        return ScalarPoly._trusted(self._dim, acc)

    def __eq__(self, other):
        if not isinstance(other, ScalarPoly):
            return NotImplemented
        return self._dim == other._dim and self._terms == other._terms

    # -- calculus on the truncated algebra ------------------------------

    def evaluate(self, x: Sequence[complex]) -> complex:
        """Evaluate at a point by direct term summation.

        Terms are summed in the canonical graded-lexicographic order, so the
        result is bit-for-bit reproducible for a given polynomial and point.
        """
        if len(x) != self._dim:
            raise ValueError(f"point has length {len(x)}, expected {self._dim}")
        return self._evaluate_complex([complex(v) for v in x])

    def _term_plan(self) -> tuple:
        """Per term ``(c, ((i, a), ...))`` with only the nonzero exponents, in grlex order.

        Built on the first evaluation and kept on the instance, so the
        series layer, which never evaluates, does not pay for it.
        """
        try:
            return self._plan
        except AttributeError:
            self._plan = tuple(
                (c, tuple((i, a) for i, a in enumerate(alpha) if a))
                for alpha, c in self._terms.items()
            )
            return self._plan

    def _evaluate_complex(self, xs: list[complex]) -> complex:
        """``evaluate`` at a point given as a list of Python complex numbers.

        Each term is ``c`` times ``xs[i] ** a`` for its nonzero exponents in
        coordinate order, and the terms are summed from 0j in grlex order.
        ``xs[i] ** 1`` is kept rather than read as ``xs[i]``: the power can
        differ from its base in the sign of a zero part.

        Raises:
            OverflowError: where CPython's complex power overflows.
        """
        total = 0j
        for c, factors in self._term_plan():
            val = c
            for i, a in factors:
                val *= xs[i] ** a
            total += val
        return total

    def _evaluate_rows(self, powers: "_RowPowers") -> tuple:
        """``evaluate`` at every row of ``powers``, as (real, imag) float arrays.

        Each term is ``c`` times its coordinate powers in coordinate order,
        and the terms are summed from 0j in grlex order: the operations of
        ``evaluate``, on whole columns.
        """
        total = (0.0, 0.0)
        for alpha, c in self._terms.items():
            val = (c.real, c.imag)
            for i, a in enumerate(alpha):
                if a:
                    val = _cmul(*val, *powers.power(i, a))
            total = (total[0] + val[0], total[1] + val[1])
        return total

    def homogeneous_part(self, k: int) -> "ScalarPoly":
        """The sum of stored terms with total degree exactly ``k``."""
        if k < 0:
            raise ValueError("degree must be >= 0")
        return ScalarPoly._trusted(
            self._dim, {a: c for a, c in self._terms.items() if sum(a) == k}
        )

    def truncate(self, max_degree: int) -> "ScalarPoly":
        """Drop all terms of total degree greater than ``max_degree``."""
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        return ScalarPoly._trusted(
            self._dim, {a: c for a, c in self._terms.items() if sum(a) <= max_degree}
        )

    def compose(self, inner: "VectorPoly", max_degree: int) -> "ScalarPoly":
        """Substitute ``inner`` into this polynomial, truncated to ``max_degree``.

        Computed by iterated truncated multiplication of cached powers of the
        inner components.  Eager truncation is exact for the retained degrees
        because term degrees only add under multiplication.  If ``inner`` has
        a nonzero constant part the truncation can silently absorb discarded
        high-degree information, so that case is rejected unless no
        truncation can occur at all.
        """
        if not isinstance(inner, VectorPoly):
            raise TypeError("inner map must be a VectorPoly")
        if inner.dim != self._dim:
            raise ValueError(f"dimension mismatch: {self._dim} vs {inner.dim}")
        _check_compose_precondition(self.degree, inner, max_degree)
        return self._compose_unchecked(inner, max_degree, _PowerCache(inner, max_degree))

    def _compose_unchecked(self, inner: "VectorPoly", max_degree: int,
                           cache: "_PowerCache") -> "ScalarPoly":
        """The composition without its checks; ``cache`` holds powers of ``inner``.

        Each term c x^alpha becomes the truncated product c p_1^a_1 p_2^a_2 ...
        of cached powers, and the term products are summed into one dict in
        term order.  A running sum that starts from 0j never holds -0.0, so an
        exact cancellation leaves 0j, the value a chain of ``+`` (which drops
        the zero) would restart from; the bits match that chain.
        """
        acc: dict[MultiIndex, complex] = {}
        for alpha, c in self._terms.items():
            prod = ScalarPoly._trusted(inner.dim, {(0,) * inner.dim: c})
            for i, a in enumerate(alpha):
                if a:
                    prod = prod._mul_truncated(cache.power(i, a), max_degree)
                    if prod.is_zero():
                        break
            for key, value in prod._terms.items():
                acc[key] = acc.get(key, 0j) + value
        return ScalarPoly._trusted(inner.dim, acc)

    # -- display ---------------------------------------------------------

    def to_string(self) -> str:
        """Human-readable form, terms in grlex order."""
        parts = []
        for alpha, c in self._terms.items():
            mono = " ".join(
                f"x{i + 1}" + (f"^{a}" if a > 1 else "")
                for i, a in enumerate(alpha) if a
            )
            coeff = _format_coeff(c)
            parts.append(f"{coeff} {mono}".strip() if mono else coeff)
        return " + ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"ScalarPoly({self._dim}, {self.to_string()})"


def _format_coeff(c: complex) -> str:
    return repr(c.real) if c.imag == 0 else repr(c)


class _PowerCache:
    """Truncated powers of the components of an inner map, computed on demand."""

    def __init__(self, inner: "VectorPoly", max_degree: int):
        self._inner = inner
        self._max_degree = max_degree
        self._powers: dict[tuple[int, int], ScalarPoly] = {}

    def power(self, index: int, exponent: int) -> ScalarPoly:
        key = (index, exponent)
        if key not in self._powers:
            if exponent == 1:
                self._powers[key] = self._inner.components[index].truncate(self._max_degree)
            else:
                prev = self.power(index, exponent - 1)
                self._powers[key] = prev._mul_truncated(
                    self._inner.components[index], self._max_degree
                )
        return self._powers[key]


def _check_compose_precondition(outer_degree: int, inner: "VectorPoly", max_degree: int) -> None:
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    const = inner.constant_vector()
    if np.any(const != 0) and max_degree < outer_degree * inner.degree:
        raise ValueError(
            "inner map has a nonzero constant part; composition under truncation "
            "would silently discard contributing terms"
        )


class VectorPoly:
    """A polynomial self-map of C^n: one ScalarPoly per output component."""

    def __init__(self, components: Sequence[ScalarPoly]):
        comps = tuple(components)
        if not comps:
            raise ValueError("need at least one component")
        n = len(comps)
        for i, c in enumerate(comps):
            if not isinstance(c, ScalarPoly):
                raise TypeError(f"component {i} is not a ScalarPoly")
            if c.dim != n:
                raise ValueError(
                    f"component {i} has dim {c.dim}; a self-map of C^{n} needs dim {n}"
                )
        self._components = comps

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "VectorPoly":
        return cls([ScalarPoly.zero(dim) for _ in range(dim)])

    @classmethod
    def identity(cls, dim: int) -> "VectorPoly":
        return cls([ScalarPoly.variable(dim, i) for i in range(dim)])

    @classmethod
    def diagonal(cls, values: Sequence[complex]) -> "VectorPoly":
        """The linear map x -> (values[0] x_0, ..., values[n-1] x_{n-1})."""
        n = len(values)
        return cls([ScalarPoly.variable(n, i) * complex(values[i]) for i in range(n)])

    @classmethod
    def from_linear(cls, matrix) -> "VectorPoly":
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        n = m.shape[0]
        comps = []
        for i in range(n):
            terms = {}
            for j in range(n):
                if m[i, j] != 0:
                    alpha = [0] * n
                    alpha[j] = 1
                    terms[tuple(alpha)] = complex(m[i, j])
            comps.append(ScalarPoly(n, terms))
        return cls(comps)

    @classmethod
    def from_terms(cls, dim: int, entries: Iterable[tuple[int, Sequence[int], complex]]) -> "VectorPoly":
        """Build from ``(component, alpha, coeff)`` triples with 0-based components."""
        buckets: list[dict] = [dict() for _ in range(dim)]
        for comp, alpha, coeff in entries:
            if not 0 <= comp < dim:
                raise ValueError(f"component index {comp} out of range for dim {dim}")
            key = _validate_alpha(alpha, dim)
            buckets[comp][key] = buckets[comp].get(key, 0j) + complex(coeff)
        return cls([ScalarPoly._trusted(dim, b) for b in buckets])

    # -- queries ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self._components)

    @property
    def components(self) -> tuple[ScalarPoly, ...]:
        return self._components

    @property
    def degree(self) -> int:
        return max(c.degree for c in self._components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self._components)

    def lowest_degree(self) -> int | None:
        lows = [c.lowest_degree() for c in self._components if not c.is_zero()]
        return min(lows) if lows else None

    def homogeneous_degree(self) -> int | None:
        """The common total degree of all terms, or None if mixed or zero."""
        degs = {sum(a) for c in self._components for a in c._terms}
        return degs.pop() if len(degs) == 1 else None

    def max_abs_coeff(self) -> float:
        return max(c.max_abs_coeff() for c in self._components)

    def constant_vector(self) -> np.ndarray:
        return np.array([c.coefficient((0,) * self.dim) for c in self._components])

    def linear_matrix(self) -> np.ndarray:
        """The n-by-n matrix of degree-1 coefficients."""
        n = self.dim
        out = np.zeros((n, n), dtype=complex)
        for i, comp in enumerate(self._components):
            for alpha, c in comp.terms.items():
                if sum(alpha) == 1:
                    out[i, alpha.index(1)] = c
        return out

    # -- algebra ---------------------------------------------------------

    def _require_same_dim(self, other: "VectorPoly") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if isinstance(other, VectorPoly):
            self._require_same_dim(other)
            return VectorPoly([a + b for a, b in zip(self._components, other._components)])
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, VectorPoly):
            self._require_same_dim(other)
            return VectorPoly([a - b for a, b in zip(self._components, other._components)])
        return NotImplemented

    def __neg__(self):
        return VectorPoly([-c for c in self._components])

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, complex)):
            return VectorPoly([c * scalar for c in self._components])
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, VectorPoly):
            return NotImplemented
        return self._components == other._components

    def evaluate(self, x: Sequence[complex]) -> np.ndarray:
        return np.array([c.evaluate(x) for c in self._components])

    def _evaluate_list(self, xs: list[complex]) -> list[complex]:
        """``evaluate`` on a list of Python complex numbers, returning one.

        No length check and no conversion: the single-point inversions
        validate their point once and then iterate on lists.
        """
        return [c._evaluate_complex(xs) for c in self._components]

    def evaluate_many(self, points) -> np.ndarray:
        """``evaluate`` at every row of ``points`` (shape (N, n)) at once.

        Row k of the result has the bits of ``evaluate(points[k])``.  The
        loops run over terms and the arithmetic runs over whole columns of
        float64 parts, with the operations CPython performs for one point:

        * every complex product is ``(ar*br - ai*bi, ar*bi + ai*br)``, one
          ufunc per operation; numpy's complex ``*`` may round differently;
        * ``x_i ** a`` follows CPython's own sequence for the exponent
          (see ``_RowPowers``), cached per (i, a) across terms and
          components;
        * each component starts from 0j and adds its terms in grlex order;
        * results are assembled through ``.real``/``.imag`` assignment,
          never as ``re + 1j*im``, which would alter signed zeros.

        Additions and subtractions round identically in numpy and CPython,
        so each row's value matches bit for bit, signed zeros included.

        Raises:
            OverflowError: where ``evaluate`` would, i.e. when a coordinate
                power of some row has an infinite part.
        """
        values, overflowed = self._evaluate_rows(points)
        if overflowed.any():
            raise OverflowError(
                f"complex exponentiation overflowed at row {int(np.argmax(overflowed))}"
            )
        return values

    def _evaluate_rows(self, points) -> tuple[np.ndarray, np.ndarray]:
        """``evaluate_many`` without raising: (values, rows that overflowed)."""
        pts = _as_rows(points, self.dim)
        powers = _RowPowers(pts)
        out = np.empty(pts.shape, dtype=complex)
        with np.errstate(all="ignore"):
            for j, comp in enumerate(self._components):
                out.real[:, j], out.imag[:, j] = comp._evaluate_rows(powers)
        return out, powers.overflowed

    def homogeneous_part(self, k: int) -> "VectorPoly":
        return VectorPoly([c.homogeneous_part(k) for c in self._components])

    def truncate(self, max_degree: int) -> "VectorPoly":
        return VectorPoly([c.truncate(max_degree) for c in self._components])

    def compose(self, inner: "VectorPoly", max_degree: int) -> "VectorPoly":
        """This map after ``inner``, truncated to total degree ``max_degree``."""
        if not isinstance(inner, VectorPoly):
            raise TypeError("inner map must be a VectorPoly")
        self._require_same_dim(inner)
        _check_compose_precondition(self.degree, inner, max_degree)
        cache = _PowerCache(inner, max_degree)
        return VectorPoly(
            [c._compose_unchecked(inner, max_degree, cache) for c in self._components]
        )

    def matrix_apply(self, matrix) -> "VectorPoly":
        """Left-multiply by a matrix: component i becomes sum_j M[i,j] * comp_j."""
        m = np.asarray(matrix, dtype=complex)
        n = self.dim
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match dim {n}")
        comps = []
        for i in range(n):
            acc = ScalarPoly.zero(n)
            for j in range(n):
                if m[i, j] != 0:
                    acc = acc + self._components[j] * complex(m[i, j])
            comps.append(acc)
        return VectorPoly(comps)

    def to_string(self) -> str:
        return "(" + ", ".join(c.to_string() for c in self._components) + ")"

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"VectorPoly{self.to_string()}"


# -- batched pointwise evaluation -----------------------------------------

# CPython raises a complex to an integer power up to this size by binary
# powering (c_powu) and above it by a polar-form power.
_C_POWU_MAX_EXPONENT = 100


def _cmul(ar, ai, br, bi) -> tuple:
    """CPython's complex product on float64 parts, one ufunc per operation."""
    return ar * br - ai * bi, ar * bi + ai * br


def _as_rows(points, dim: int) -> np.ndarray:
    """``points`` as a complex array of shape (N, dim)."""
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"points have shape {pts.shape}, expected (N, {dim})")
    return pts


class _RowPowers:
    """Coordinate powers ``x_i ** a`` of many points, with CPython's bits.

    For exponents up to 100 CPython's ``complex ** int`` starts from
    r = 1 and walks the bits of ``a`` from the lowest: r = r * p where the
    bit is set, then p = p * p.  The squares p = x_i^(2^k) are shared by
    all exponents of one coordinate, and each power is cached for every
    term, component and monomial that uses it.  Larger exponents take
    CPython's own power point by point.  ``overflowed`` marks the rows in
    which a power has an infinite part: there CPython raises OverflowError.
    """

    def __init__(self, points: np.ndarray):
        self._coords = [
            (np.ascontiguousarray(points.real[:, i]), np.ascontiguousarray(points.imag[:, i]))
            for i in range(points.shape[1])
        ]
        self._squares: dict[tuple[int, int], tuple] = {}
        self._powers: dict[tuple[int, int], tuple] = {}
        self.overflowed = np.zeros(len(points), dtype=bool)

    def _square(self, i: int, k: int) -> tuple:
        if k == 0:
            return self._coords[i]
        if (i, k) not in self._squares:
            prev = self._square(i, k - 1)
            self._squares[(i, k)] = _cmul(*prev, *prev)
        return self._squares[(i, k)]

    def power(self, i: int, a: int) -> tuple:
        if (i, a) not in self._powers:
            if a > _C_POWU_MAX_EXPONENT:
                value = _python_powers(*self._coords[i], a)
            else:
                value = (1.0, 0.0)
                for k in range(a.bit_length()):
                    if a >> k & 1:
                        value = _cmul(*value, *self._square(i, k))
            self.overflowed |= np.isinf(value[0]) | np.isinf(value[1])
            self._powers[(i, a)] = value
        return self._powers[(i, a)]

    def monomial(self, alpha: MultiIndex) -> tuple:
        """``monomial_value`` at every row: 1 times each power in coordinate order."""
        val = (1.0, 0.0)
        for i, a in enumerate(alpha):
            if a:
                val = _cmul(*val, *self.power(i, a))
        return val


def _python_powers(re: np.ndarray, im: np.ndarray, a: int) -> tuple:
    """``complex ** a`` point by point; an overflow becomes an infinite value."""
    out_re, out_im = np.empty_like(re), np.empty_like(im)
    for k, (u, v) in enumerate(zip(re.tolist(), im.tolist())):
        try:
            w = complex(u, v) ** a
        except OverflowError:
            w = complex(math.inf, math.inf)
        out_re[k], out_im[k] = w.real, w.imag
    return out_re, out_im


def _monomial_rows(points: np.ndarray, alphas: Sequence[MultiIndex]) -> tuple:
    """``monomial_value(z, alpha)`` for every row z of ``points`` and every alpha.

    ``points`` is a complex array of shape (N, n).  Returns ``(values,
    overflowed)``: ``values[k, j]`` has the bits of
    ``monomial_value(points[k], alphas[j])``, and ``overflowed`` marks the
    rows where that raises OverflowError.  Powers are shared across the
    exponent tuples.
    """
    powers = _RowPowers(points)
    out = np.empty((len(points), len(alphas)), dtype=complex)
    with np.errstate(all="ignore"):
        for j, alpha in enumerate(alphas):
            out.real[:, j], out.imag[:, j] = powers.monomial(alpha)
    return out, powers.overflowed


# -- symmetric multilinear forms ------------------------------------------


def polarize(p: ScalarPoly, vectors: Sequence[Sequence[complex]]) -> complex:
    """Evaluate the symmetric multilinear form of a homogeneous polynomial.

    For p homogeneous of degree m and arguments v_1, ..., v_m this returns
    the unique symmetric m-linear form A with A(x, ..., x) = p(x), evaluated
    via the sign-sum polarization identity (2^m terms).
    """
    m = len(vectors)
    if p.is_zero():
        return 0j
    if not p.is_homogeneous(m):
        raise ValueError(
            f"polynomial is not homogeneous of degree {m} (degree {p.homogeneous_degree()})"
        )
    vecs = [np.asarray(v, dtype=complex) for v in vectors]
    for v in vecs:
        if v.shape != (p.dim,):
            raise ValueError(f"argument vector has shape {v.shape}, expected ({p.dim},)")
    total = 0j
    for signs in product((1.0, -1.0), repeat=m):
        point = np.zeros(p.dim, dtype=complex)
        for s, v in zip(signs, vecs):
            point = point + s * v
        total += math.prod(signs) * p.evaluate(point)
    return total / (2 ** m * math.factorial(m))


# -- norms and sampling ----------------------------------------------------


def linf(x: Sequence[complex]) -> float:
    """Max of coordinate moduli: the vector norm used throughout the package.

    The moduli are numpy's (CPython's ``abs`` of a complex rounds
    differently for some values); the max is taken in Python, which only
    selects an entry, and is NaN as soon as one modulus is NaN.

    Raises:
        ValueError: for an empty input.
    """
    moduli = np.absolute(np.asarray(x, dtype=complex)).ravel().tolist()
    if not moduli:
        raise ValueError("linf of an empty vector")
    # Moduli are >= 0, so their sum is NaN exactly when one of them is.
    if math.isnan(sum(moduli)):
        return next(v for v in moduli if math.isnan(v))
    return max(moduli)


def monomial_value(z: Sequence[complex], alpha: Sequence[int]) -> complex:
    """The product of coordinate powers z^alpha."""
    out = 1 + 0j
    for zi, a in zip(z, alpha):
        if a:
            out *= complex(zi) ** int(a)
    return out


def sphere_points(dim: int, count: int, seed: int) -> np.ndarray:
    """Deterministic quasi-uniform points on the unit sphere of ``linf``.

    Coordinates are drawn uniformly from the complex unit box and each point
    is scaled so its largest coordinate modulus is exactly 1.  Returns an
    array of shape (count, dim); ``count`` must be >= 1.
    """
    if count < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (count, dim)) + 1j * rng.uniform(-1.0, 1.0, (count, dim))
    for k in range(count):
        norm = np.max(np.abs(pts[k]))
        if norm < 1e-12:
            pts[k] = np.zeros(dim, dtype=complex)
            pts[k][0] = 1.0
        else:
            pts[k] = pts[k] / norm
    return pts


def sup_norm_estimate(p: VectorPoly, samples: int = 1024, seed: int = 0) -> float:
    """Lower bound on sup of ``linf(p(x))`` over the unit sphere, by sampling."""
    best = 0.0
    for x in sphere_points(p.dim, samples, seed):
        val = linf(p.evaluate(x))
        if val > best:
            best = val
    return best
