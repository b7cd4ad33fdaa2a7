"""Stagewise normal-form elimination of nonlinear terms.

Given a polynomial map T(x) = Lambda x + (higher-order terms) with diagonal
stable linear part, each stage m conjugates by a near-identity polynomial
map Phi_m = I + Q_m chosen so the degree-m homogeneous part of the result
vanishes.  Stage by stage this pushes the nonlinearity to ever higher
degree: after running through degree D the map is linear in the truncated
algebra.  The composition of the stage transforms, tau_m = Phi_2 o ... o
Phi_m, conjugates T to a map that agrees with its linear part up to degree
m; that is the approximate linearization the rest of the package consumes.

All series manipulations happen in the algebra truncated at a global degree
D fixed when the sequence is built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .errors import ResonanceError
from .polyalg import ScalarPoly, VectorPoly, linf
from .spectrum import (
    DEFAULT_NEAR_RESONANCE_TOL,
    DEFAULT_RESONANCE_TOL,
    Spectrum,
    apply_koopman_linear,
    mu,
)

DEFAULT_BETA = 0.5

# Internal consistency checks on eliminated degrees, relative to coefficient scale.
_ELIMINATION_TOL = 1e-9


@dataclass
class NormalFormStage:
    """One elimination stage.

    ``m`` is the degree eliminated, ``Q`` the homogeneous degree-m correction,
    ``phi`` the stage factor Phi_m = I + Q that conjugates the map,
    ``T_after`` the conjugated map truncated at the global degree, and
    ``epsilon`` the radius on which inverting Phi_m is a contraction (see
    ``epsilon_bound``).
    """

    m: int
    Q: VectorPoly
    phi: VectorPoly
    T_after: VectorPoly
    epsilon: float


@dataclass
class NormalFormSequence:
    """The full stage list for one input map, plus a cache of conjugacies."""

    spec: Spectrum
    D: int
    T_input: VectorPoly
    stages: list[NormalFormStage]
    tau_cache: dict = field(default_factory=dict, repr=False)

    def check_order(self, m: int) -> None:
        """Require a conjugacy order the sequence covers: 2 <= m <= D."""
        if not 2 <= m <= self.D:
            raise ValueError(f"m must lie in 2..{self.D}")

    def stage(self, m: int) -> NormalFormStage:
        self.check_order(m)
        return self.stages[m - 2]

    def phi(self, m: int) -> VectorPoly:
        """The stage-m factor Phi_m = I + Q_m, as stored on the stage."""
        return self.stage(m).phi

    def min_epsilon(self, m: int) -> float:
        """Smallest inversion radius among stages 2..m."""
        return min(self.stage(k).epsilon for k in range(2, m + 1))


def lie_solve(
    r_hat: VectorPoly,
    spec: Spectrum,
    tol: float = DEFAULT_RESONANCE_TOL,
) -> VectorPoly:
    """Solve the homological equation for a homogeneous right-hand side.

    The degree-m operator Q -> Q(Lambda x) - Lambda Q(x) is diagonal on
    vector monomials with eigenvalue lambda^alpha - lambda_j, so the solution
    just divides each coefficient by that divisor.  A divisor with
    |mu| <= tol on a present term raises ResonanceError; a divisor below
    ``DEFAULT_NEAR_RESONANCE_TOL`` (1e-4) triggers a warning.
    """
    if r_hat.dim != spec.dim:
        raise ValueError(f"dimension mismatch: {r_hat.dim} vs {spec.dim}")
    if r_hat.is_zero():
        return VectorPoly.zero(spec.dim)
    deg = r_hat.homogeneous_degree()
    if deg is None or deg < 2:
        raise ValueError("right-hand side must be homogeneous of degree >= 2")
    comps = []
    for j, comp in enumerate(r_hat.components):
        solved = {}
        for alpha, c in comp.terms.items():
            m_val = mu(j, alpha, spec)
            if abs(m_val) <= tol:
                raise ResonanceError(j, alpha, m_val)
            if abs(m_val) < DEFAULT_NEAR_RESONANCE_TOL:
                warnings.warn(
                    f"near-resonant division |mu|={abs(m_val):.3e} at component "
                    f"{j + 1}, alpha {alpha}",
                    RuntimeWarning,
                    stacklevel=2,
                )
            solved[alpha] = c / m_val
        comps.append(ScalarPoly(spec.dim, solved))
    return VectorPoly(comps)


def lie_apply(q: VectorPoly, spec: Spectrum) -> VectorPoly:
    """Apply the homological operator: Q(Lambda x) - Lambda Q(x)."""
    if q.dim != spec.dim:
        raise ValueError(f"dimension mismatch: {q.dim} vs {spec.dim}")
    comps = [
        apply_koopman_linear(c, spec) - c * spec.lambdas[j]
        for j, c in enumerate(q.components)
    ]
    return VectorPoly(comps)


def series_inverse(phi: VectorPoly, max_degree: int) -> VectorPoly:
    """Compositional inverse of a near-identity map in the truncated algebra.

    ``phi`` must fix the origin and have identity linear part.  Writing
    phi = I + Q with Q of lowest degree low >= 2, the inverse is the fixed
    point of psi -> I - Q o psi started from psi_0 = I.  The degree-d part
    of Q o psi depends only on the parts of psi of degree <= d - low + 1, so
    psi_k is exact through degree (k + 1)(low - 1), and after
    K = max(1, ceil(D / (low - 1)) - 1) passes psi_K is the fixed point, bit
    for bit.  Exactly K composes are run; a zero Q returns the identity.
    """
    n = phi.dim
    if any(c != 0 for c in phi.constant_vector()):
        raise ValueError("map must fix the origin")
    ident = VectorPoly.identity(n)
    q = phi - ident
    low = q.lowest_degree()
    if low is not None and low < 2:
        raise ValueError("map must have identity linear part")
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    if low is None:
        return ident
    psi = ident
    for _ in range(max(1, -(-max_degree // (low - 1)) - 1)):
        psi = ident - q.compose(psi, max_degree)
    return psi


def epsilon_bound(q: VectorPoly, beta: float = DEFAULT_BETA) -> float:
    """Radius (capped at 1) on which x -> y - Q(x) is a beta-contraction.

    For Q homogeneous of degree m with coefficient bound
    N = max_j sum_alpha |c_{j,alpha}|, every row sum of the Jacobian of Q on
    the max-norm ball of radius r is at most m * r^(m-1) * N, so Q is
    beta-Lipschitz on the ball of radius (beta / (m * N))^(1/(m-1)).  The
    radius is a guarantee, not an estimate, and depends on Q and beta only.
    A zero Q is unconstrained and returns 1.
    """
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0, 1)")
    if q.is_zero():
        return 1.0
    m = q.homogeneous_degree()
    if m is None or m < 2:
        raise ValueError("correction must be homogeneous of degree >= 2")
    norm = max(sum(abs(c) for c in comp.terms.values()) for comp in q.components)
    if norm == 0.0:
        return 1.0
    return min(1.0, (beta / (m * norm)) ** (1.0 / (m - 1)))


def normal_form_step(
    t_current: VectorPoly,
    m: int,
    spec: Spectrum,
    max_degree: int,
    beta: float = DEFAULT_BETA,
    resonance_tol: float = DEFAULT_RESONANCE_TOL,
) -> NormalFormStage:
    """Eliminate degree m+1 from a map already normalized through degree m.

    ``t_current`` must fix the origin, have linear part diag(lambdas) and no
    homogeneous parts in degrees 2..m (m = 1 means nothing eliminated yet).
    Returns the stage holding Q_{m+1}, its factor Phi_{m+1}, the conjugated
    map truncated at ``max_degree``, and the inversion radius.  Raises
    ValueError when a degree survives elimination, as overflowing or
    non-finite coefficients make it do.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if max_degree < m + 1:
        raise ValueError(f"max_degree {max_degree} too small for stage {m + 1}")
    _check_pipeline_form(t_current, spec)

    r_hat = t_current.homogeneous_part(m + 1)
    q = lie_solve(r_hat, spec, resonance_tol) if not r_hat.is_zero() \
        else VectorPoly.zero(spec.dim)
    phi = VectorPoly.identity(spec.dim) + q
    psi = series_inverse(phi, max_degree)
    t_next = psi.compose(t_current.compose(phi, max_degree), max_degree)

    scale = max(1.0, t_current.max_abs_coeff())
    for k in range(2, m + 2):
        survived = t_next.homogeneous_part(k).max_abs_coeff()
        if not survived <= _ELIMINATION_TOL * scale:  # NaN fails this too
            raise ValueError(
                f"degree {k} survived elimination at stage {m + 1}: "
                f"max coefficient {survived:.3e}"
            )

    eps = epsilon_bound(q, beta)
    return NormalFormStage(m + 1, q, phi, t_next, eps)


def run(
    t_map: VectorPoly,
    spec: Spectrum,
    max_degree: int,
    beta: float = DEFAULT_BETA,
    resonance_tol: float = DEFAULT_RESONANCE_TOL,
    require_stable: bool = True,
) -> NormalFormSequence:
    """Run every elimination stage from degree 2 through ``max_degree``.

    The input map must fix the origin and have linear part exactly
    diag(lambdas).  On success the last stage's map is linear in the
    truncated algebra.  A resonant divisor aborts with ResonanceError
    annotated with the stage degree.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be >= 2")
    if t_map.dim != spec.dim:
        raise ValueError(f"dimension mismatch: {t_map.dim} vs {spec.dim}")
    if require_stable and not spec.is_stable:
        raise ValueError(
            "linear part is not asymptotically stable (some |lambda| >= 1); "
            "pass require_stable=False to proceed anyway"
        )
    _check_pipeline_form(t_map, spec)

    stages: list[NormalFormStage] = []
    current = t_map.truncate(max_degree)
    for m in range(1, max_degree):
        try:
            stage = normal_form_step(current, m, spec, max_degree, beta, resonance_tol)
        except ResonanceError as exc:
            raise ResonanceError(exc.component, exc.alpha, exc.mu, stage=m + 1) from None
        stages.append(stage)
        current = stage.T_after
    return NormalFormSequence(spec, max_degree, t_map, stages)


def tau(seq: NormalFormSequence, m: int, max_degree: int | None = None) -> VectorPoly:
    """The conjugacy Phi_2 o ... o Phi_m, truncated to ``max_degree``.

    Defaults to the sequence's global degree.  Results are cached on the
    sequence and built incrementally from tau(m-1).
    """
    if max_degree is None:
        max_degree = seq.D
    seq.check_order(m)
    key = (m, max_degree)
    if key in seq.tau_cache:
        return seq.tau_cache[key]
    if m == 2:
        result = seq.phi(2).truncate(max_degree)
    else:
        result = tau(seq, m - 1, max_degree).compose(seq.phi(m), max_degree)
    seq.tau_cache[key] = result
    return result


def _check_pipeline_form(t_map: VectorPoly, spec: Spectrum) -> None:
    """Require a fixed origin and linear part diag(lambdas) (tiny dust allowed)."""
    const = t_map.constant_vector()
    if linf(const) != 0.0:
        raise ValueError("map must fix the origin (nonzero constant term)")
    lin = t_map.linear_matrix()
    scale = max(1.0, max(abs(lam) for lam in spec.lambdas))
    for i in range(spec.dim):
        for j in range(spec.dim):
            expect = spec.lambdas[i] if i == j else 0.0
            if abs(lin[i, j] - expect) > 1e-10 * scale:
                raise ValueError(
                    "linear part is not the diagonal eigenvalue matrix "
                    f"(entry ({i + 1},{j + 1}) = {lin[i, j]!r})"
                )
