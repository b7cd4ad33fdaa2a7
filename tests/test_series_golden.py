"""Golden hashes of the series layer's output bits.

Each case runs the stagewise elimination (or one series reversion) on a
fixed input and hashes the ``repr`` of every stage's sorted ``Q`` terms,
``epsilon``, sorted ``T_after`` terms and the full conjugacy ``tau(seq, D)``.
The hashes in ``golden/series_sha256.json`` pin the exact bits, so a change
to the polynomial kernel that moves any rounding fails here.  A change that
alters these bits on purpose must say so and store new hashes.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from koopnf import ScalarPoly, VectorPoly, run, series_inverse, tau

from helpers import draw_nonresonant_spectrum, random_homogeneous, two_d_map

GOLDEN = Path(__file__).parent / "golden" / "series_sha256.json"


def _dense_map(dim, max_degree, seed):
    """Seeded dense map: non-resonant spectrum, terms of degree 2..D scaled by 0.3."""
    rng = np.random.default_rng(seed)
    spec = draw_nonresonant_spectrum(dim, rng, max_degree)
    t_map = VectorPoly.diagonal(spec.lambdas)
    for degree in range(2, max_degree + 1):
        t_map = t_map + 0.3 * random_homogeneous(dim, degree, rng)
    return t_map, spec


def _mixed_q(low, max_degree):
    """A 2D correction with terms of degrees low..max_degree and no others."""
    rng = np.random.default_rng(40 + low)
    q = VectorPoly.zero(2)
    for degree in range(low, max_degree + 1):
        q = q + random_homogeneous(2, degree, rng)
    return q


def _terms(v):
    return [sorted(c.terms.items()) for c in v.components]


def _sequence_text(t_map, spec, max_degree):
    seq = run(t_map, spec, max_degree)
    lines = [
        f"{s.m} {_terms(s.Q)!r} {s.epsilon!r} {_terms(s.T_after)!r}" for s in seq.stages
    ]
    lines.append(repr(_terms(tau(seq, max_degree))))
    return "\n".join(lines)


def _inverse_text(low, max_degree):
    phi = VectorPoly.identity(2) + _mixed_q(low, max_degree)
    return repr(_terms(series_inverse(phi, max_degree)))


CASES = {
    "dense-dim1-D8": lambda: _sequence_text(*_dense_map(1, 8, 101), 8),
    "dense-dim2-D6": lambda: _sequence_text(*_dense_map(2, 6, 102), 6),
    "dense-dim3-D4": lambda: _sequence_text(*_dense_map(3, 4, 103), 4),
    "two-d-map-D6": lambda: _sequence_text(*two_d_map(), 6),
    "inverse-low2-D7": lambda: _inverse_text(2, 7),
    "inverse-low3-D7": lambda: _inverse_text(3, 7),
    "inverse-low4-D9": lambda: _inverse_text(4, 9),
    "inverse-1d-x+x^2-D9": lambda: repr(_terms(series_inverse(
        VectorPoly((ScalarPoly.variable(1, 0) + ScalarPoly.monomial(1, (2,)),)), 9))),
}


@pytest.mark.parametrize("name", list(CASES))
def test_series_output_matches_golden(name):
    digest = hashlib.sha256(CASES[name]().encode("utf-8")).hexdigest()
    assert digest == json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
