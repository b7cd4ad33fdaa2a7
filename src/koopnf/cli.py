"""Command-line interface and the map-description file format.

A map file is JSON with a self-describing schema::

    {
      "dim": 2,
      "eigenvalues": [[0.5, 0.0], [0.3, 0.0]],
      "terms": [
        {"component": 1, "alpha": [2, 0], "coeff": [1.0, 0.0]}
      ],
      "metadata": {"name": "example"}
    }

Complex numbers are [real, imag] pairs.  Component indices in files are
1-based; the library itself indexes components from 0.  Exactly one of
``eigenvalues`` (diagonal linear part) or ``linear`` (a dim-by-dim matrix of
pairs, diagonalized on load) must be present, and every term must have
order at least 2 — the linear part never lives in ``terms``.

Exit codes: 0 success, 1 usage or input errors, 2 mathematical abort
(a resonance that blocks or would block elimination).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import warnings
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Any, NamedTuple, Sequence

import numpy as np

from .errors import ConvergenceError, MapFormatError, ResonanceError
from .normalform import DEFAULT_BETA, run
from .numerics import (
    DEFAULT_MAX_ITER,
    DEFAULT_POINT_TOL,
    _sphere_rows,
    inverse_asymptotics_study,
    residual_study,
    tau_forward_many,
    tau_inverse_many,
)
from .observables import DEFAULT_GRID_POINTS, density_demo
from .polyalg import VectorPoly, grlex_key, sphere_points
from .spectrum import (
    DEFAULT_NEAR_RESONANCE_TOL,
    DEFAULT_RESONANCE_TOL,
    Spectrum,
    check_resonance,
    eigencoordinates,
)


class MapTerm(NamedTuple):
    component: int            # 1-based, as in the file
    alpha: tuple[int, ...]
    coeff: complex


@dataclass
class MapDescription:
    """Validated contents of a map file, still in file conventions."""

    dim: int
    eigenvalues: tuple[complex, ...] | None
    linear: np.ndarray | None
    terms: list[MapTerm]
    metadata: Any = None


# -- parsing ----------------------------------------------------------------


def _as_complex(value, context: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise MapFormatError("complex values must be [real, imag] number pairs", context)
    # JSON admits NaN and Infinity, and integers too large for a float.
    if not all(abs(v) <= sys.float_info.max for v in value):
        raise MapFormatError("complex values must be finite", context)
    return complex(float(value[0]), float(value[1]))


def load_description(path: str) -> MapDescription:
    """Read and validate a map file; errors name the offending field."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise MapFormatError(str(exc), path) from None
    except json.JSONDecodeError as exc:
        raise MapFormatError(f"not valid JSON: {exc}", path) from None
    if not isinstance(raw, dict):
        raise MapFormatError("top level must be a JSON object", path)

    known = {"dim", "eigenvalues", "linear", "terms", "metadata"}
    for key in raw:
        if key not in known:
            raise MapFormatError(f"unknown field {key!r}", path)

    dim = raw.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise MapFormatError("'dim' must be a positive integer", path)

    has_eig = "eigenvalues" in raw
    has_lin = "linear" in raw
    if has_eig == has_lin:
        raise MapFormatError("exactly one of 'eigenvalues' or 'linear' is required", path)

    eigenvalues = None
    linear = None
    if has_eig:
        eig_raw = raw["eigenvalues"]
        if not isinstance(eig_raw, list) or len(eig_raw) != dim:
            raise MapFormatError(f"'eigenvalues' must list {dim} pairs", path)
        eigenvalues = tuple(
            _as_complex(v, f"eigenvalues[{i}]") for i, v in enumerate(eig_raw)
        )
    else:
        lin_raw = raw["linear"]
        if not isinstance(lin_raw, list) or len(lin_raw) != dim or any(
            not isinstance(row, list) or len(row) != dim for row in lin_raw
        ):
            raise MapFormatError(f"'linear' must be a {dim}x{dim} matrix of pairs", path)
        linear = np.array(
            [
                [_as_complex(v, f"linear[{i}][{j}]") for j, v in enumerate(row)]
                for i, row in enumerate(lin_raw)
            ],
            dtype=complex,
        )

    terms_raw = raw.get("terms", [])
    if not isinstance(terms_raw, list):
        raise MapFormatError("'terms' must be a list", path)
    terms: list[MapTerm] = []
    for idx, item in enumerate(terms_raw):
        ctx = f"terms[{idx}]"
        if not isinstance(item, dict):
            raise MapFormatError("each term must be an object", ctx)
        extra = set(item) - {"component", "alpha", "coeff"}
        if extra:
            raise MapFormatError(f"unknown term field(s) {sorted(extra)}", ctx)
        comp = item.get("component")
        if not isinstance(comp, int) or isinstance(comp, bool) or not 1 <= comp <= dim:
            raise MapFormatError(f"'component' must be an integer in 1..{dim}", ctx)
        alpha_raw = item.get("alpha")
        if (
            not isinstance(alpha_raw, list)
            or len(alpha_raw) != dim
            or not all(isinstance(a, int) and not isinstance(a, bool) and a >= 0 for a in alpha_raw)
        ):
            raise MapFormatError(
                f"'alpha' must list {dim} nonnegative integers", ctx
            )
        alpha = tuple(alpha_raw)
        if sum(alpha) < 2:
            raise MapFormatError(
                "term order must be >= 2 (the linear part belongs to "
                "'eigenvalues' or 'linear')",
                ctx,
            )
        coeff = _as_complex(item.get("coeff"), f"{ctx}.coeff")
        terms.append(MapTerm(comp, alpha, coeff))

    return MapDescription(dim, eigenvalues, linear, terms, raw.get("metadata"))


def build_map(
    desc: MapDescription,
) -> tuple[VectorPoly, Spectrum, np.ndarray | None, np.ndarray | None]:
    """Assemble the polynomial map in eigencoordinates.

    With ``eigenvalues`` the terms are used as given.  With ``linear`` the
    matrix is diagonalized by ``eigencoordinates`` (which rejects a nearly
    defective one) and the nonlinear terms transformed into the eigenbasis;
    returns the change-of-basis matrix and its inverse in that case (None,
    None otherwise).  Warns when the spectrum is not stable.
    """
    n = desc.dim
    nonlinear = VectorPoly.from_terms(
        n, [(t.component - 1, t.alpha, t.coeff) for t in desc.terms]
    )
    if desc.eigenvalues is not None:
        spec = Spectrum(desc.eigenvalues)
        vmat = vinv = None
        t_map = spec.diagonal_map() + nonlinear
    else:
        spec, vmat, vinv = eigencoordinates(desc.linear)
        transformed = nonlinear.compose(
            VectorPoly.from_linear(vmat), max(nonlinear.degree, 1)
        ).matrix_apply(vinv)
        t_map = spec.diagonal_map() + transformed
    if not spec.is_stable:
        warnings.warn(
            "spectrum is not asymptotically stable (some |lambda| >= 1)",
            RuntimeWarning,
            stacklevel=2,
        )
    return t_map, spec, vmat, vinv


def parse_map(path: str) -> tuple[VectorPoly, Spectrum]:
    """Load a map file and return the map (eigencoordinates) and spectrum."""
    t_map, spec, _, _ = build_map(load_description(path))
    return t_map, spec


def emit_description(t_map: VectorPoly, spec: Spectrum, metadata: Any = None) -> dict:
    """Canonical JSON-ready form of a map in eigencoordinates.

    Terms are sorted graded-lexicographically (then by component) and hold
    only orders >= 2; the linear part is carried by 'eigenvalues'.
    """
    n = spec.dim
    entries = []
    for comp_idx, comp in enumerate(t_map.components):
        for alpha, c in comp.terms.items():
            if sum(alpha) >= 2:
                entries.append((alpha, comp_idx + 1, c))
    entries.sort(key=lambda e: (grlex_key(e[0]), e[1]))
    doc: dict[str, Any] = {
        "dim": n,
        "eigenvalues": [[lam.real, lam.imag] for lam in spec.lambdas],
        "terms": [
            {"component": comp, "alpha": list(alpha), "coeff": [c.real, c.imag]}
            for alpha, comp, c in entries
        ],
    }
    if metadata is not None:
        doc["metadata"] = metadata
    return doc


def description_to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


# -- small option parsers ----------------------------------------------------


def parse_radii(text: str) -> list[float]:
    """Either a comma list or a geometric spec 'first:last:count' of positive radii."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("geometric radii spec must be first:last:count")
        first, last, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 2:
            raise ValueError("geometric radii spec needs count >= 2")
        if not (first > 0 and last > 0):
            raise ValueError("radii must be positive")
        return [float(r) for r in np.geomspace(first, last, count)]
    radii = [float(v) for v in text.split(",") if v.strip()]
    if not radii:
        raise ValueError("radii list is empty")
    if not all(r > 0 for r in radii):
        raise ValueError("radii must be positive")
    return radii


def parse_alpha(text: str, dim: int) -> tuple[int, ...]:
    try:
        alpha = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"alpha must be {dim} comma-separated integers") from None
    if len(alpha) != dim:
        raise ValueError(f"alpha must have {dim} entries, got {len(alpha)}")
    return alpha


def parse_box(text: str, dim: int) -> list[tuple[float, float]]:
    axes = [a for a in text.split(",") if a.strip()]
    if len(axes) == 1:
        axes = axes * dim
    if len(axes) != dim:
        raise ValueError(f"box needs 1 or {dim} lo:hi ranges")
    out = []
    for a in axes:
        parts = a.split(":")
        if len(parts) != 2:
            raise ValueError("each box axis must be lo:hi")
        out.append((float(parts[0]), float(parts[1])))
    return out


# -- commands -----------------------------------------------------------------
#
# Each command returns (payload, header, rows, exit_code): the JSON payload and
# the CSV table of one result; ``main`` renders the one ``--format`` names.


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _alpha_text(alpha) -> str:
    return " ".join(str(a) for a in alpha)


def _vector_terms(v: VectorPoly, chop: float = 0.0) -> list[dict]:
    """Every term with magnitude above ``chop``, components 1-based."""
    return [
        {"component": comp_idx + 1, "alpha": list(alpha), "coeff": _pair(c)}
        for comp_idx, comp in enumerate(v.components)
        for alpha, c in comp.terms.items()
        if not (chop and abs(c) <= chop)
    ]


def _pipeline(args, degree: int | None = None, resonance_tol: float = DEFAULT_RESONANCE_TOL):
    """Load the map and run the elimination through ``degree``.

    Without ``degree`` the truncation is ``-D`` when given (it may not be
    below the conjugacy order ``-m``), else ``max(m, 2)``.
    """
    t_map, spec, vmat, _ = build_map(load_description(args.map))
    if vmat is not None:
        print(
            "note: linear part diagonalized; eigenbasis columns "
            f"V = {np.array2string(vmat, precision=8)}",
            file=sys.stderr,
        )
    if not spec.is_stable and not args.allow_unstable:
        raise MapFormatError(
            "spectrum is not asymptotically stable; pass --allow-unstable to proceed",
            args.map,
        )
    if degree is None:
        if args.degree and args.degree < args.m:
            raise ValueError(f"degree {args.degree} is below the conjugacy order {args.m}")
        degree = args.degree or max(args.m, 2)
    # Stability was settled above, so run() need not refuse the map again.
    seq = run(t_map, spec, degree, beta=args.beta, resonance_tol=resonance_tol,
              require_stable=False)
    return t_map, spec, seq


def _cmd_resonance(args):
    _, spec, _, _ = build_map(load_description(args.map))
    report = check_resonance(spec, args.order, args.tol, args.near_tol)
    payload = {
        "max_order": report.max_order,
        "entries": [
            {
                "component": e.component + 1,
                "alpha": list(e.alpha),
                "mu": _pair(e.mu),
                "abs_mu": abs(e.mu),
                "resonant": abs(e.mu) <= args.tol,
            }
            for e in report.entries
        ],
        "min_abs_mu": report.min_abs_mu,
        "resonant": [
            {"component": e.component + 1, "alpha": list(e.alpha), "mu": _pair(e.mu)}
            for e in report.resonant
        ],
    }
    rows = [
        [e["component"], _alpha_text(e["alpha"]), *e["mu"], e["abs_mu"], int(e["resonant"])]
        for e in payload["entries"]
    ]
    header = ["component", "alpha", "mu_re", "mu_im", "abs_mu", "resonant"]
    return payload, header, rows, 2 if report.resonant else 0


def _cmd_normalform(args):
    # Here --tol is the resonance abort threshold; elsewhere it is the
    # pointwise inversion tolerance.
    _, spec, seq = _pipeline(args, args.degree, resonance_tol=args.tol)
    stages = [
        {
            "m": st.m,
            "epsilon": st.epsilon,
            "Q": _vector_terms(st.Q, chop=args.chop),
            "T_after": _vector_terms(st.T_after, chop=args.chop),
        }
        for st in seq.stages
    ]
    payload = {
        "spec": {"lambdas": [_pair(lam) for lam in spec.lambdas]},
        "D": seq.D,
        "T_input": _vector_terms(seq.T_input),
        "stages": stages,
    }
    rows = []
    for st in stages:
        m, eps = st["m"], st["epsilon"]
        q_rows = [[m, t["component"], _alpha_text(t["alpha"]), *t["coeff"], eps] for t in st["Q"]]
        rows.extend(q_rows or [[m, "", "", "", "", eps]])
    header = ["stage", "component", "alpha", "coeff_re", "coeff_im", "epsilon"]
    return payload, header, rows, 0


def _cmd_invert(args):
    _, spec, seq = _pipeline(args)
    radii = parse_radii(args.radii)
    xs = _sphere_rows(sphere_points(spec.dim, args.samples, args.seed), radii)
    zs, failures = tau_inverse_many(seq, args.m, xs, args.tol, args.max_iter)
    back, overflowed = tau_forward_many(seq, args.m, zs)
    errors = np.abs(back - xs).max(axis=1).tolist()
    points = []
    rows = []
    for k, x in enumerate(xs):
        r, s = radii[k // args.samples], k % args.samples
        ok = k not in failures and not overflowed[k]
        z, err = (zs[k], errors[k]) if ok else (None, None)
        points.append(
            {
                "radius": r,
                "sample": s,
                "x": [_pair(v) for v in x],
                "z": [_pair(v) for v in z] if ok else None,
                "roundtrip_error": err,
                "converged": ok,
            }
        )
        for comp in range(spec.dim):
            solved = [z[comp].real, z[comp].imag, err] if ok else ["", "", ""]
            rows.append([r, s, comp + 1, x[comp].real, x[comp].imag, *solved, int(ok)])
    header = ["radius", "sample", "component", "x_re", "x_im", "z_re", "z_im",
              "roundtrip_error", "converged"]
    return {"m": args.m, "points": points}, header, rows, 0


def _cmd_residual_study(args):
    t_map, spec, seq = _pipeline(args)
    alpha = parse_alpha(args.alpha, spec.dim)
    radii = parse_radii(args.radii)
    study = residual_study(
        t_map, seq, args.m, alpha, radii, args.samples, args.seed, args.tol, args.max_iter
    )
    payload = {
        "m": study.m,
        "alpha": list(study.alpha),
        "mu": _pair(study.mu),
        "radii": list(study.radii),
        "samples_per_radius": study.samples_per_radius,
        "records": [
            {"radius": r, "sample": s, "residual": v}
            for (r, s), v in sorted(study.records.items(), key=lambda kv: (-kv[0][0], kv[0][1]))
        ],
        "fitted_slope": study.fitted_slope,
        "fit_rsquared": study.fit_rsquared,
        "skipped": study.skipped,
    }
    maxima = study.max_residuals()
    used = Counter(r for r, _ in study.records)
    rows = [["radius", r, maxima.get(r, ""), used[r], "", "", ""] for r in study.radii]
    rows.append(["summary", "", "", "", study.skipped, study.fitted_slope, study.fit_rsquared])
    header = ["row", "radius", "max_residual", "samples_used", "skipped", "fitted_slope",
              "fit_rsquared"]
    return payload, header, rows, 0


def _cmd_inverse_order(args):
    _, _, seq = _pipeline(args)
    radii = parse_radii(args.radii)
    q = seq.stage(args.m).Q
    fit = inverse_asymptotics_study(q, radii, args.samples, args.seed, args.tol, args.max_iter)
    payload = {
        "m": args.m,
        "max_errors": [{"radius": r, "max_error": v} for r, v in fit.max_errors.items()],
        "slope": fit.slope,
        "rsquared": fit.rsquared,
        "degenerate": fit.degenerate,
    }
    rows = [["radius", r, v, "", "", ""] for r, v in fit.max_errors.items()]
    rows.append(["summary", "", "", fit.slope, fit.rsquared, int(fit.degenerate)])
    header = ["row", "radius", "max_error", "slope", "rsquared", "degenerate"]
    return payload, header, rows, 0


_TARGETS = {
    "exp": lambda pt: math.exp(float(np.sum(pt))),
    "cos": lambda pt: math.cos(float(np.sum(pt))),
    "abs": lambda pt: float(np.sum(np.abs(pt))),
}


def _cmd_density_demo(args):
    _, spec, seq = _pipeline(args)
    box = parse_box(args.box, spec.dim)
    table = density_demo(
        _TARGETS[args.target],
        args.max_degree,
        seq,
        args.m,
        box,
        grid_points=args.grid,
        with_constant=not args.drop_constant,
        tol=args.tol,
        max_iter=args.max_iter,
        condition_limit=args.cond_limit,
    )
    rows = [[row.degree, row.sup_error, int(row.flagged)] for row in table.rows]
    return asdict(table), ["degree", "sup_error", "condition_flag"], rows, 0


# -- argument plumbing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for math aborts."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_command(sub, name: str, func, help: str, pipeline: bool = True) -> argparse.ArgumentParser:
    """A subcommand with the options every command has, plus the pipeline's."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func)
    p.add_argument("map")
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    if pipeline:
        p.add_argument("--beta", type=float, default=DEFAULT_BETA,
                       help="contraction constant of the stage inversion radii")
        p.add_argument("--seed", type=int, default=0,
                       help="seed of the sampled directions of invert, residual-study "
                            "and inverse-order; other commands do not sample")
        p.add_argument("--allow-unstable", action="store_true",
                       help="proceed even when some eigenvalue modulus is >= 1")
    return p


def _add_point_options(p: argparse.ArgumentParser, samples: int | None = None,
                       m_help: str = "conjugacy order") -> None:
    """Options of the commands that evaluate the conjugacy at points.

    With ``samples`` the command also draws that many directions per radius.
    """
    p.add_argument("-m", type=int, default=2, help=m_help)
    p.add_argument("-D", "--degree", type=int, default=0,
                   help="pipeline truncation degree (default: the conjugacy order)")
    p.add_argument("--tol", type=float, default=DEFAULT_POINT_TOL,
                   help="pointwise inversion tolerance")
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    if samples:
        p.add_argument("--radii", required=True,
                       help="comma list or geometric spec first:last:count")
        p.add_argument("--samples", type=int, default=samples)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="koopnf", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = _add_command(sub, "resonance", _cmd_resonance,
                     "scan homological divisors for resonances", pipeline=False)
    p.add_argument("-K", "--order", type=int, default=5)
    p.add_argument("--tol", type=float, default=DEFAULT_RESONANCE_TOL)
    p.add_argument("--near-tol", type=float, default=DEFAULT_NEAR_RESONANCE_TOL)

    p = _add_command(sub, "normalform", _cmd_normalform, "run the stagewise elimination")
    p.add_argument("-D", "--degree", type=int, default=4)
    p.add_argument("--tol", type=float, default=DEFAULT_RESONANCE_TOL,
                   help="resonance abort tolerance")
    p.add_argument("--chop", type=float, default=0.0,
                   help="hide coefficients at or below this magnitude (display only)")

    p = _add_command(sub, "invert", _cmd_invert,
                     "pull sampled points back through the conjugacy")
    _add_point_options(p, samples=16)

    p = _add_command(sub, "residual-study", _cmd_residual_study,
                     "fit the decay order of eigenfunction residuals")
    _add_point_options(p, samples=32)
    p.add_argument("--alpha", required=True, help="comma-separated exponent tuple")

    p = _add_command(sub, "inverse-order", _cmd_inverse_order,
                     "fit the decay order of the one-term inverse error")
    _add_point_options(p, samples=32, m_help="stage whose factor is studied")

    p = _add_command(sub, "density-demo", _cmd_density_demo,
                     "least-squares approximation power of the pullback algebra")
    _add_point_options(p)
    p.add_argument("--max-degree", type=int, default=5)
    p.add_argument("--box", default="-0.1:0.1",
                   help="lo:hi per axis, comma separated (one range is "
                        "replicated); write --box=-0.2:0.2 so the leading "
                        "minus is not read as an option")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID_POINTS)
    p.add_argument("--target", choices=sorted(_TARGETS), default="exp")
    p.add_argument("--drop-constant", action="store_true",
                   help="fit without a constant column (origin-vanishing algebra)")
    p.add_argument("--cond-limit", type=float, default=1e10)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, header, rows, code = args.func(args)
        if args.format == "json":
            text = json.dumps(payload, indent=2) + "\n"
        else:
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
            text = buf.getvalue()
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except ResonanceError as exc:
        print(f"koopnf: mathematical abort: {exc}", file=sys.stderr)
        return 2
    except (MapFormatError, ConvergenceError, ValueError, OSError) as exc:
        print(f"koopnf: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
