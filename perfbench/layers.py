"""The koopnf layers the traced run measures, and the metrics drawn from them.

Layers are the package modules: ``polyalg`` (series kernel), ``spectrum``,
``normalform`` (stage pipeline), ``numerics`` (pointwise inversion and
studies), ``observables`` (density demo) and ``cli``.  Metric names are
``<layer>.<public function>.<quantity>``; a metric whose function no longer
exists where it is looked up is reported missing, never zero.  Every span
reports ``self_s``, so the ``self_s`` metrics sum to the time the spans
cover.
"""

from __future__ import annotations

from tracer import Target, Tracer


def _count_mul(counts, args, result):
    if result is NotImplemented:
        return
    a, b = args
    counts["pairs"] += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


def _count_truncate(counts, args, result):
    counts["terms_in"] += len(args[0].terms)
    counts["terms_kept"] += len(result.terms)


def _count_compose(counts, args, result):
    comps = getattr(result, "components", (result,))
    counts["terms_out"] += sum(len(c.terms) for c in comps)


TARGETS = [
    Target("polyalg.mul", "koopnf.polyalg", "ScalarPoly.__mul__", _count_mul),
    Target("polyalg.truncate", "koopnf.polyalg", "ScalarPoly.truncate", _count_truncate),
    Target("polyalg.compose", "koopnf.polyalg", "ScalarPoly.compose", _count_compose),
    Target("polyalg.compose", "koopnf.polyalg", "VectorPoly.compose", _count_compose),
    Target("polyalg.evaluate", "koopnf.polyalg", "VectorPoly.evaluate"),
    Target("polyalg.sup_norm_estimate", "koopnf.polyalg", "sup_norm_estimate"),
    Target("spectrum.check_resonance", "koopnf.spectrum", "check_resonance"),
    Target("normalform.run", "koopnf.normalform", "run"),
    Target("normalform.normal_form_step", "koopnf.normalform", "normal_form_step"),
    Target("normalform.series_inverse", "koopnf.normalform", "series_inverse"),
    Target("normalform.lie_solve", "koopnf.normalform", "lie_solve"),
    Target("normalform.epsilon_bound", "koopnf.normalform", "epsilon_bound"),
    Target("normalform.tau", "koopnf.normalform", "tau"),
    Target("numerics.invert_phi_pointwise", "koopnf.numerics", "invert_phi_pointwise"),
    Target("numerics.tau_inverse_pointwise", "koopnf.numerics", "tau_inverse_pointwise"),
    Target("numerics.tau_forward_pointwise", "koopnf.numerics", "tau_forward_pointwise"),
    Target("numerics.residual_study", "koopnf.numerics", "residual_study"),
    Target("numerics.inverse_asymptotics_study", "koopnf.numerics", "inverse_asymptotics_study"),
    Target("observables.density_demo", "koopnf.observables", "density_demo"),
    Target("cli.main", "koopnf.cli", "main"),
    Target("cli.load_description", "koopnf.cli", "load_description"),
]

# Quantities reported per span, in metric order.
SPAN_QUANTITIES = {
    "polyalg.mul": ("calls", "pairs", "self_s"),
    "polyalg.truncate": ("calls", "kept_frac", "self_s"),
    "polyalg.compose": ("calls", "terms_out", "self_s"),
    "polyalg.evaluate": ("calls", "self_s"),
    "polyalg.sup_norm_estimate": ("self_s",),
    "spectrum.check_resonance": ("calls", "self_s"),
    "normalform.run": ("calls", "total_s", "self_s"),
    "normalform.normal_form_step": ("calls", "self_s"),
    "normalform.series_inverse": ("calls", "composes", "self_s"),
    "normalform.lie_solve": ("self_s",),
    "normalform.epsilon_bound": ("total_s", "self_s"),
    "normalform.tau": ("self_s",),
    "numerics.invert_phi_pointwise": ("calls", "evals_per_call", "failed", "self_s"),
    "numerics.tau_inverse_pointwise": ("calls", "self_s"),
    "numerics.tau_forward_pointwise": ("calls", "self_s"),
    "numerics.residual_study": ("self_s",),
    "numerics.inverse_asymptotics_study": ("self_s",),
    "observables.density_demo": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
    "cli.load_description": ("self_s",),
}

UNITS = {"calls": "count", "pairs": "count", "terms_out": "count", "composes": "count",
         "failed": "count", "self_s": "s", "total_s": "s", "kept_frac": "ratio",
         "evals_per_call": "evals/call"}

LAYERS = ("polyalg", "spectrum", "normalform", "numerics", "observables", "cli")


def _ratio(num: float, den: float) -> float:
    """A ratio over no events reads 0."""
    return num / den if den else 0.0


def _read(tracer: Tracer, span: str, quantity: str):
    stat = tracer.stats[span]
    if quantity in ("calls", "self_s", "total_s", "failed"):
        return getattr(stat, quantity)
    if quantity == "kept_frac":
        return _ratio(stat.counts["terms_kept"], stat.counts["terms_in"])
    if quantity == "composes":
        return tracer.edges[(span, "polyalg.compose")]
    if quantity == "evals_per_call":
        return _ratio(tracer.edges[(span, "polyalg.evaluate")], stat.calls)
    return stat.counts[quantity]


def layer_metrics(tracer: Tracer, wall_s: float, overhead: float,
                  output_bytes: int) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced run, and the names reported missing.

    ``overhead`` is (traced - untraced) / untraced time of the same tasks.
    """
    metrics: dict[str, dict] = {}
    missing: list[str] = []
    for span, quantities in SPAN_QUANTITIES.items():
        for quantity in quantities:
            name = f"{span}.{quantity}"
            if span in tracer.missing:
                missing.append(name)
            else:
                metrics[name] = {"value": _read(tracer, span, quantity), "unit": UNITS[quantity]}
    if "cli.main" in tracer.missing:
        missing.append("cli.output_bytes")
    else:
        metrics["cli.output_bytes"] = {"value": output_bytes, "unit": "B"}
    metrics["trace.wall_s"] = {"value": wall_s, "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return metrics, missing


def layer_shares(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Each layer's summed self time as a share of the traced wall time."""
    shares = dict.fromkeys(LAYERS, 0.0)
    for span, stat in tracer.stats.items():
        shares[span.split(".")[0]] += stat.self_s / wall_s
    return shares
