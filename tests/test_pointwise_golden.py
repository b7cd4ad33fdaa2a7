"""Golden hashes of the pointwise layer's output bits.

Each case runs a pointwise computation on fixed seeded input and hashes the
``repr`` of its result: the records, slope and skipped count of
``residual_study``, the per-radius maxima of ``inverse_asymptotics_study``,
the rows of ``density_demo``, round trips through ``tau_inverse_pointwise``
and ``tau_forward_pointwise``, the ``(reason, iterations, last_ratio)``
of inversions that diverge, the ``trace`` iterates of single-factor
inversions and the per-stage ``domain_check`` reports.  The hashes in ``golden/pointwise_sha256.json``
pin the exact bits, so a change to the evaluation or inversion code that
moves any rounding fails here.  A change that alters these bits on purpose
must say so and store new hashes.
"""

import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from koopnf import (
    ConvergenceError,
    density_demo,
    domain_check,
    inverse_asymptotics_study,
    invert_phi_pointwise,
    residual_study,
    run,
    tau_forward_pointwise,
    tau_inverse_pointwise,
)

from helpers import gentle_1d_map, one_d_map, two_d_map

GOLDEN = Path(__file__).parent / "golden" / "pointwise_sha256.json"


def _two_d_seq(max_degree=5):
    t_map, spec = two_d_map()
    return t_map, run(t_map, spec, max_degree)


def _residual_text(t_map, seq, m, alpha, radii, samples, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        study = residual_study(t_map, seq, m, alpha, radii, samples, seed)
    return repr([list(study.records.items()), study.fitted_slope, study.fit_rsquared,
                 study.skipped])


def _residual_two_d():
    t_map, seq = _two_d_seq()
    half = 0.5 * seq.min_epsilon(4)
    radii = [float(r) for r in np.geomspace(half, half / 40, 6)]
    return _residual_text(t_map, seq, 4, (1, 0), radii, 12, 3)


def _residual_one_d_with_skips():
    t_map, spec = one_d_map()
    seq = run(t_map, spec, 4)
    # The largest radii lie outside the stage radii, so some samples are skipped.
    radii = [float(r) for r in np.geomspace(2.0, 0.002, 7)]
    return _residual_text(t_map, seq, 3, (2,), radii, 6, 5)


def _inverse_text(m):
    _, seq = _two_d_seq()
    q_half = 0.5 * seq.stage(m).epsilon
    radii = [float(r) for r in np.geomspace(q_half, q_half / 40, 6)]
    fit = inverse_asymptotics_study(seq.stage(m).Q, radii, 10, 8)
    return repr([list(fit.max_errors.items()), fit.slope, fit.rsquared, fit.degenerate])


def _density_text(seq, m, box, with_constant=True, max_degree=5, grid=17):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            table = density_demo(lambda pt: math.exp(float(np.sum(pt))), max_degree, seq, m,
                                 box, grid, with_constant=with_constant)
        except ValueError as exc:
            return repr(str(exc))
    return repr([[(r.degree, r.sup_error, r.condition, r.flagged) for r in table.rows],
                 table.monotonicity_violations])


def _density_two_d(with_constant):
    _, seq = _two_d_seq()
    half = 0.5 * seq.min_epsilon(3)
    return _density_text(seq, 3, [(-half, half)] * 2, with_constant)


def _density_gentle(hi):
    t_map, spec = gentle_1d_map()
    seq = run(t_map, spec, 4)
    return _density_text(seq, 4, [(-0.5, hi)], max_degree=6, grid=41)


def _failure(exc):
    return (exc.reason, exc.iterations, exc.last_ratio)


def _round_trips():
    _, seq = _two_d_seq()
    rng = np.random.default_rng(21)
    eps = seq.min_epsilon(4)
    dirs = rng.uniform(-1, 1, (48, 2)) + 1j * rng.uniform(-1, 1, (48, 2))
    # Radii run from well inside the certified radius to far outside it.
    points = eps * 10.0 ** rng.uniform(-3, 1.5, (48, 1)) * dirs
    out = []
    for x in points:
        try:
            z = tau_inverse_pointwise(seq, 4, x)
        except ConvergenceError as exc:
            out.append(_failure(exc))
            continue
        out.append([complex(v) for v in z] + [complex(v) for v in tau_forward_pointwise(seq, 4, z)])
    return repr(out)


def _diverging_points():
    rng = np.random.default_rng(31)
    dirs = rng.uniform(-1, 1, (120, 2)) + 1j * rng.uniform(-1, 1, (120, 2))
    return 10.0 ** rng.uniform(-1, 250, (120, 1)) * dirs


def _diverging(max_iter):
    _, seq = _two_d_seq()
    out = []
    for y in _diverging_points():
        for call in (lambda: invert_phi_pointwise(seq.stage(2).Q, y, max_iter=max_iter),
                     lambda: tau_inverse_pointwise(seq, 4, y, max_iter=max_iter)):
            try:
                out.append([complex(v) for v in call()])
            except ConvergenceError as exc:
                out.append(_failure(exc))
    return out


def _traces():
    _, seq = _two_d_seq()
    rng = np.random.default_rng(41)
    eps = seq.stage(2).epsilon
    dirs = rng.uniform(-1, 1, (64, 2)) + 1j * rng.uniform(-1, 1, (64, 2))
    # From well inside the stage-2 radius to where the iteration diverges.
    points = eps * 10.0 ** rng.uniform(-3, 2.5, (64, 1)) * dirs
    out = []
    for y in points:
        trace = []
        try:
            invert_phi_pointwise(seq.stage(2).Q, y, trace=trace)
            outcome = None
        except ConvergenceError as exc:
            outcome = _failure(exc)
        out.append([outcome, [[complex(v) for v in x] for x in trace]])
    return repr(out)


def _domain_reports():
    out = []
    for seq, m in ((_two_d_seq()[1], 4), (run(*one_d_map(), 4), 4)):
        dim = seq.spec.dim
        rng = np.random.default_rng(51)
        dirs = rng.uniform(-1, 1, (24, dim)) + 1j * rng.uniform(-1, 1, (24, dim))
        dirs /= np.max(np.abs(dirs), axis=1, keepdims=True)
        # Inside the stage-m radius; some images leave a lower stage's radius.
        for z in seq.stage(m).epsilon * rng.uniform(0, 1, (24, 1)) * dirs:
            report = domain_check(seq, m, z)
            out.append([report.ok, [tuple(c) for c in report.checks]])
    return repr(out)


CASES = {
    "residual-two-d-m4": _residual_two_d,
    "residual-one-d-skips": _residual_one_d_with_skips,
    "inverse-two-d-q2": lambda: _inverse_text(2),
    "inverse-two-d-q3": lambda: _inverse_text(3),
    "density-two-d-m3": lambda: _density_two_d(True),
    "density-two-d-m3-no-constant": lambda: _density_two_d(False),
    "density-gentle-1d-m4": lambda: _density_gentle(0.5),
    # Six grid points beyond 0.6 diverge: the case pins the error message.
    "density-gentle-1d-m4-failing": lambda: _density_gentle(0.8),
    "round-trips-two-d-m4": _round_trips,
    "diverging-two-d": lambda: repr(_diverging(200)),
    "diverging-two-d-max-iter-8": lambda: repr(_diverging(8)),
    "traces-two-d-q2": _traces,
    "domain-check-reports": _domain_reports,
}


@pytest.mark.parametrize("name", list(CASES))
def test_pointwise_output_matches_golden(name):
    digest = hashlib.sha256(CASES[name]().encode("utf-8")).hexdigest()
    assert digest == json.loads(GOLDEN.read_text(encoding="utf-8"))[name]


def test_diverging_set_hits_every_failure_reason():
    reasons = {entry[0] for entry in _diverging(200) + _diverging(8) if isinstance(entry, tuple)}
    assert {
        "fixed-point inversion diverged (non-finite iterate)",
        "fixed-point inversion diverged (iterate overflow)",
        "fixed-point inversion did not reach tol=1e-13",
        "stage-2 factor inversion failed: fixed-point inversion diverged (non-finite iterate)",
        "stage-2 factor inversion failed: fixed-point inversion diverged (iterate overflow)",
    } <= reasons
