"""The three seeded workloads, their correctness checks and output digests.

Each workload is a closed loop driven from one process: ``prepare(i)``
builds the inputs of task ``i`` outside the timed region, ``run`` makes
the timed calls into the public koopnf API, ``check`` counts failed
operations and ``canonical`` renders the outputs that the digest covers.
``run`` is a generator: each ``yield`` ends a step, and the benchmark
re-measures the machine's speed between steps; its return value is the
task output.  Task inputs
derive from (seed, i), so a run never repeats an input and a result cache
inside the package cannot turn later tasks into hits.

- ``series_wide``: normal forms of dense dim-3, D-5 maps.  About 94 % of a
  solve is truncated composition, so a series-kernel change shows here and
  the pointwise layer is idle.
- ``pointwise_grid``: the order studies, the density demo and pointwise
  round trips on ``two_d_map`` at m = 4.  Scalar per-point evaluation
  dominates and the series layer is idle.
- ``cli_session``: twelve in-process CLI commands on small maps, covering
  all six subcommands in CSV and JSON.  Per-call overhead, output emission
  and ``epsilon_bound`` sampling dominate.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from inputs import MAP_DIR, build_series_map, koopnf, load_map_file

_ELIMINATION_TOL = 1e-9
_ROUNDTRIP_TOL = 1e-10


def _seed_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _poly_text(v) -> str:
    # repr keeps every bit of a float or complex, so digests see any changed bit.
    return repr([sorted(c.terms.items()) for c in v.components])


# -- series_wide ----------------------------------------------------------------


def draw_nonresonant_lambdas(dim: int, rng: np.random.Generator, max_order: int,
                             min_mu: float = 1e-2, modulus=(0.2, 0.8)) -> list[complex]:
    """Stable eigenvalues whose homological divisors stay above ``min_mu``.

    Draws the same way as ``tests/helpers.py:draw_nonresonant_spectrum``.
    """
    for _ in range(200):
        lams = []
        for _ in range(dim):
            r = rng.uniform(*modulus)
            th = rng.uniform(0, 2 * np.pi)
            lams.append(complex(r * np.cos(th), r * np.sin(th)))
        report = koopnf.check_resonance(koopnf.Spectrum(tuple(lams)), max_order,
                                        tol=0.0, near_tol=0.0)
        if report.min_abs_mu >= min_mu:
            return lams
    raise RuntimeError("failed to draw a non-resonant spectrum")


def series_map_data(seed: int, index: int, dim: int, degree: int, scale: float = 0.3) -> dict:
    """A dense map: diag(lambdas) plus random homogeneous terms of degree 2..D times scale."""
    rng = _seed_rng(seed, index)
    lams = draw_nonresonant_lambdas(dim, rng, degree)
    terms = [(j, [int(j == k) for k in range(dim)], [lam.real, lam.imag])
             for j, lam in enumerate(lams)]
    for d in range(2, degree + 1):
        for comp in range(dim):
            for alpha in koopnf.multi_indices(dim, d):
                r = rng.uniform(0.2, 1.0)
                th = rng.uniform(0, 2 * np.pi)
                c = scale * complex(r * np.cos(th), r * np.sin(th))
                terms.append((comp, list(alpha), [c.real, c.imag]))
    return {"dim": dim, "lambdas": [[lam.real, lam.imag] for lam in lams], "terms": terms}


class SeriesWide:
    name = "series_wide"
    op = "solves"
    trace_tasks = 4
    setup_maps = 8
    ops_per_task = 1

    def __init__(self, seed: int, small: bool = False, out_dir: Path | None = None):
        self.seed = seed
        self.dim, self.degree = (2, 3) if small else (3, 5)
        self.size = f"dim {self.dim}, D {self.degree}"

    def setup_payload(self) -> dict:
        return {"series_maps": [series_map_data(self.seed, i, self.dim, self.degree)
                                for i in range(self.setup_maps)]}

    def prepare(self, i: int):
        return build_series_map(series_map_data(self.seed, i, self.dim, self.degree))

    def run(self, prepared):
        t_map, spec = prepared
        seq = koopnf.run(t_map, spec, self.degree)
        yield
        return seq, koopnf.tau(seq, self.degree)

    def check(self, prepared, output) -> int:
        """The last map is linear through D and tau conjugates T to its linear part.

        tau^-1 o T o tau = Lambda through D is checked as T o tau = tau o Lambda,
        the same identity composed with the near-identity tau, which spares a
        series inversion as costly as the solve itself.
        """
        t_map, spec = prepared
        seq, tau_map = output
        D = self.degree
        scale = max(1.0, t_map.max_abs_coeff())
        last = seq.stages[-1].T_after
        if any(last.homogeneous_part(k).max_abs_coeff() > _ELIMINATION_TOL * scale
               for k in range(2, D + 1)):
            return 1
        lhs = t_map.compose(tau_map, D)
        rhs = koopnf.VectorPoly([koopnf.apply_koopman_linear(c, spec) for c in tau_map.components])
        scale = max(scale, tau_map.max_abs_coeff())
        return int(not (lhs - rhs).max_abs_coeff() <= _ELIMINATION_TOL * scale)

    @staticmethod
    def stress(metrics: dict, shares: dict) -> tuple[str, bool]:
        busy = shares["polyalg"] + shares["normalform"]
        idle = shares["numerics"] + shares["observables"]
        return (f"polyalg+normalform self time {busy:.3f} of wall (>= 0.90), "
                f"numerics+observables {idle:.4f} (near 0)", busy >= 0.9 and idle <= 0.01)

    def canonical(self, output) -> str:
        seq, tau_map = output
        return repr([(st.m, _poly_text(st.Q), st.epsilon) for st in seq.stages]) \
            + _poly_text(tau_map)


# -- pointwise_grid -------------------------------------------------------------


def exp_target(pt: np.ndarray) -> float:
    return math.exp(float(np.sum(pt)))


class PointwiseGrid:
    name = "pointwise_grid"
    op = "points"
    trace_tasks = 4
    m = 4
    alpha = (1, 0)

    def __init__(self, seed: int, small: bool = False, out_dir: Path | None = None):
        self.seed = seed
        self.t_map, spec = load_map_file("two_d_map")
        self.seq = koopnf.run(self.t_map, spec, self.m)
        half = 0.5 * self.seq.min_epsilon(self.m)
        self.half = half
        self.residual_radii = [float(r) for r in np.geomspace(half, half / 40, 7)]
        # Radii inside the stage-2 inversion radius: beyond it the iteration can diverge.
        q2_half = 0.5 * self.seq.stage(2).epsilon
        self.inverse_radii = [float(r) for r in np.geomspace(q2_half, q2_half / 40, 7)]
        self.samples = 4 if small else 32
        self.grid = 7 if small else 41
        self.batch = 8 if small else 256
        self.box = [(-half, half)] * 2
        self.ops_per_task = (len(self.residual_radii) * self.samples
                             + len(self.inverse_radii) * self.samples
                             + self.grid ** 2 + self.batch)
        self.size = (f"two_d_map m {self.m}, {self.samples} samples x 7 radii per study, "
                     f"{self.grid}x{self.grid} grid, {self.batch} round trips")

    def setup_payload(self) -> dict:
        return {"map_files": ["two_d_map"]}

    def prepare(self, i: int):
        rng = _seed_rng(self.seed, i)
        study_seed = int(rng.integers(2 ** 31))
        dirs = rng.uniform(-1, 1, (self.batch, 2)) + 1j * rng.uniform(-1, 1, (self.batch, 2))
        dirs /= np.max(np.abs(dirs), axis=1, keepdims=True)
        points = self.half * rng.uniform(0, 1, (self.batch, 1)) * dirs
        return study_seed, points

    def run(self, prepared):
        study_seed, points = prepared
        seq, m = self.seq, self.m
        residual = koopnf.residual_study(self.t_map, seq, m, self.alpha, self.residual_radii,
                                         self.samples, study_seed)
        yield
        inverse = koopnf.inverse_asymptotics_study(seq.stage(2).Q, self.inverse_radii,
                                                   self.samples, study_seed)
        yield
        density = koopnf.density_demo(exp_target, 5, seq, m, self.box, self.grid)
        yield
        trips = []
        for x in points:
            try:
                z = koopnf.tau_inverse_pointwise(seq, m, x)
                trips.append(koopnf.tau_forward_pointwise(seq, m, z))
            except koopnf.ConvergenceError:
                trips.append(None)
        return residual, inverse, density, trips

    def check(self, prepared, output) -> int:
        _, points = prepared
        residual, inverse, density, trips = output
        failed = 0
        if not (residual.fitted_slope >= self.m + 0.5 and residual.fit_rsquared >= 0.99
                and residual.skipped == 0):
            failed += len(self.residual_radii) * self.samples
        q_degree = 2
        if inverse.degenerate or not abs(inverse.slope - (2 * q_degree - 1)) <= 0.5:
            failed += len(self.inverse_radii) * self.samples
        if density.monotonicity_violations != 0:
            failed += self.grid ** 2
        for x, back in zip(points, trips):
            if back is None or not np.max(np.abs(back - x)) <= _ROUNDTRIP_TOL:
                failed += 1
        return failed

    @staticmethod
    def stress(metrics: dict, shares: dict) -> tuple[str, bool]:
        share = metrics["polyalg.mul.self_s"]["value"] / metrics["trace.wall_s"]["value"]
        return f"polyalg.mul self time {share:.4f} of wall (<= 0.05)", share <= 0.05

    def canonical(self, output) -> str:
        residual, inverse, density, trips = output
        return repr([
            sorted(residual.records.items()), residual.fitted_slope, residual.fit_rsquared,
            residual.skipped, sorted(inverse.max_errors.items()), inverse.slope,
            inverse.rsquared, [(r.degree, r.sup_error, r.condition) for r in density.rows],
            [None if b is None else [complex(v) for v in b] for b in trips],
        ])


# -- cli_session ----------------------------------------------------------------

_CSV_COLUMNS = {
    "resonance": ["component", "alpha", "mu_re", "mu_im", "abs_mu", "resonant"],
    "normalform": ["stage", "component", "alpha", "coeff_re", "coeff_im", "epsilon"],
    "invert": ["radius", "sample", "component", "x_re", "x_im", "z_re", "z_im",
               "roundtrip_error", "converged"],
    "residual-study": ["row", "radius", "max_residual", "samples_used", "skipped",
                       "fitted_slope", "fit_rsquared"],
    "inverse-order": ["row", "radius", "max_error", "slope", "rsquared", "degenerate"],
    "density-demo": ["degree", "sup_error", "condition_flag"],
}
_JSON_KEYS = {
    "resonance": {"max_order", "entries", "min_abs_mu", "resonant"},
    "normalform": {"spec", "D", "T_input", "stages"},
    "invert": {"m", "points"},
    "residual-study": {"m", "alpha", "mu", "radii", "samples_per_radius", "records",
                       "fitted_slope", "fit_rsquared", "skipped"},
    "inverse-order": {"m", "max_errors", "slope", "rsquared", "degenerate"},
    "density-demo": {"rows", "monotonicity_violations"},
}

# (map file, argv after the map path); "--format json" marks JSON output.
_SESSION = [
    ("one_d_map", ["normalform", "-D", "16"]),
    ("two_d_map", ["normalform", "-D", "6", "--format", "json"]),
    ("two_d_map", ["resonance", "-K", "10"]),
    ("one_d_map", ["resonance", "-K", "10", "--format", "json"]),
    ("two_d_map", ["density-demo", "-m", "3", "--grid", "11", "--box=-0.005:0.005"]),
    ("one_d_map", ["density-demo", "-m", "3", "--grid", "11", "--box=-0.02:0.02",
                   "--format", "json"]),
    ("two_d_map", ["invert", "-m", "3", "--radii", "0.01:0.001:3", "--samples", "8",
                   "--format", "json"]),
    ("one_d_map", ["invert", "-m", "2", "--radii", "0.05:0.005:3", "--samples", "8"]),
    ("one_d_map", ["residual-study", "-m", "3", "-D", "4", "--alpha", "1",
                   "--radii", "0.03:0.001:5", "--samples", "8"]),
    ("two_d_map", ["residual-study", "-m", "2", "--alpha", "1,0", "--radii", "0.01:0.0005:5",
                   "--samples", "8", "--format", "json"]),
    ("two_d_map", ["inverse-order", "-m", "2", "--radii", "0.008:0.0002:5", "--samples", "8",
                   "--format", "json"]),
    ("one_d_map", ["inverse-order", "-m", "3", "-D", "3", "--radii", "0.04:0.004:5",
                   "--samples", "8"]),
]
# The smallest session: each subcommand once, alternating formats.
_SMALL_SESSION = [_SESSION[i] for i in (0, 3, 4, 6, 8, 10)]


def output_ok(command: str, fmt: str, text: str) -> bool:
    """The output parses, with the expected CSV columns or JSON keys."""
    if fmt == "json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return False
        return isinstance(doc, dict) and _JSON_KEYS[command] <= doc.keys()
    rows = list(csv.reader(io.StringIO(text)))
    return (len(rows) >= 2 and rows[0] == _CSV_COLUMNS[command]
            and all(len(row) == len(rows[0]) for row in rows[1:]))


class CliSession:
    name = "cli_session"
    op = "commands"
    trace_tasks = 6

    def __init__(self, seed: int, small: bool = False, out_dir: Path | None = None):
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.commands = []
        for k, (map_name, args) in enumerate(_SMALL_SESSION if small else _SESSION):
            argv = [args[0], str(MAP_DIR / f"{map_name}.json"), *args[1:],
                    "--out", str(self.out_dir / f"out{k}")]
            if args[0] != "resonance":
                argv += ["--seed", str(seed)]
            fmt = "json" if "json" in args else "csv"
            self.commands.append((args[0], fmt, argv))
        self.ops_per_task = len(self.commands)
        self.size = f"{len(self.commands)} commands on one_d_map and two_d_map"
        self.output_bytes = 0

    def setup_payload(self) -> dict:
        return {"map_files": ["one_d_map", "two_d_map"]}

    def prepare(self, i: int):
        for k in range(len(self.commands)):
            (self.out_dir / f"out{k}").unlink(missing_ok=True)
        return self.commands

    def run(self, prepared):
        codes = []
        for _, _, argv in prepared:
            try:
                codes.append(koopnf.cli.main(argv))
            except Exception as exc:  # an escaped exception is a failed command
                codes.append(repr(exc))
            yield
        return codes

    def _outputs(self) -> list[bytes]:
        paths = [self.out_dir / f"out{k}" for k in range(len(self.commands))]
        return [p.read_bytes() if p.exists() else b"" for p in paths]

    def check(self, prepared, output) -> int:
        failed = 0
        outputs = self._outputs()
        self.output_bytes += sum(len(b) for b in outputs)
        for (command, fmt, _), code, data in zip(prepared, output, outputs):
            text = data.decode("utf-8", errors="replace")
            failed += not (code == 0 and output_ok(command, fmt, text))
        return failed

    @staticmethod
    def stress(metrics: dict, shares: dict) -> tuple[str, bool]:
        share = (metrics["normalform.epsilon_bound.total_s"]["value"]
                 / metrics["normalform.run.total_s"]["value"])
        return f"epsilon_bound {share:.3f} of the time under normalform.run (> 0.25)", share > 0.25

    def canonical(self, output) -> str:
        return repr([output, self._outputs()])


WORKLOADS = {cls.name: cls for cls in (SeriesWide, PointwiseGrid, CliSession)}
