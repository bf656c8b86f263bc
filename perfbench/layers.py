"""Per-layer metrics from the spans of one traced invocation.

A layer is one public entroconf function, named module.function. Its time
is self time: the span's duration minus the part covered by its child
spans, summed over calls. The exception is cli.run_s, the whole traced
call; cli.self_s is its self time.
"""

from __future__ import annotations

# layers reported by self time, in report order
SELF_TIMES = [
    "measures.spectral_radius",
    "automata.short_circuit",
    "measures.exact_precision_recall",
    "automata.log_to_dfa",
    "automata.product",
    "automata.trim",
    "petri.is_bounded",
    "petri.reachability_graph",
    "petri.rg_to_dfa",
    "automata.determinize",
    "stochastic.out_edges",
    "stochastic.conjunction",
    "stochastic.log_to_sdfa",
    "petri.stochastic_rg_to_sdfa",
    "stochastic.sdfa_entropy",
    "stochastic.trace_probability",
    "stochastic.entropic_relevance",
    "formats.load_artifact",
    "formats.parse_xes",
    "formats.parse_pnml",
    "formats.parse_spnml",
    "formats.parse_sdfa",
    "cli.validate_inputs",
]

# metric -> layers whose calls it counts
CALLS = {
    "measures.spectral_radius_calls": ("measures.spectral_radius",),
    "automata.trim_calls": ("automata.trim",),
    "petri.net_explorations": ("petri.is_bounded", "petri.reachability_graph"),
    "stochastic.out_edges_calls": ("stochastic.out_edges",),
    "stochastic.trace_probability_calls": ("stochastic.trace_probability",),
}

_DFA_LAYERS = (
    "automata.log_to_dfa",
    "automata.trim",
    "automata.product",
    "automata.determinize",
    "petri.rg_to_dfa",
)
_SDFA_LAYERS = (
    "stochastic.log_to_sdfa",
    "stochastic.conjunction",
    "stochastic.sdfa_entropy",
    "petri.stochastic_rg_to_sdfa",
    "formats.parse_sdfa",
)

# metric -> (unit, layers, size recorded by traced_cli.py, how calls combine)
SIZES = {
    "measures.matrix_n_max": ("count", ("measures.spectral_radius",), "n", max),
    "measures.matrix_nnz": ("count", ("measures.spectral_radius",), "nnz", max),
    "automata.short_circuit_bytes": ("bytes", ("automata.short_circuit",), "bytes", max),
    "automata.dfa_states_max": ("count", _DFA_LAYERS, "states", max),
    "automata.determinize_states": ("count", ("automata.determinize",), "states", max),
    "petri.rg_markings": ("count", ("petri.reachability_graph",), "markings", max),
    "petri.rg_edges": ("count", ("petri.reachability_graph",), "edges", max),
    "stochastic.sdfa_states_max": ("count", _SDFA_LAYERS, "states", max),
    "formats.input_bytes": ("bytes", ("formats.load_artifact",), "bytes", sum),
    "formats.trace_instances": ("count", ("formats.parse_xes",), "instances", sum),
    "formats.distinct_traces": ("count", ("formats.parse_xes",), "distinct", sum),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{layer}_s": "s" for layer in SELF_TIMES}
    units.update({name: "count" for name in CALLS})
    units.update({name: spec[0] for name, spec in SIZES.items()})
    units.update({"cli.run_s": "s", "cli.self_s": "s", "trace.overhead_ratio": "ratio"})
    return units


def self_times(spans: list[list]) -> list[float]:
    """Self time in seconds of each span (start and end are in ns)."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return [ns / 1e9 for ns in own]


def layer_metrics(spans: list[list], untraced_run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    untraced_run_s is the same work measured untraced (median wall minus
    median setup); trace.overhead_ratio is cli.run_s divided by it.
    """
    metrics = {name: 0.0 for name in metric_units()}
    sizes_by_layer: dict[str, list[dict]] = {}
    for (name, start, end, _, sizes), own in zip(spans, self_times(spans)):
        sizes_by_layer.setdefault(name, []).append(sizes or {})
        if name in SELF_TIMES:
            metrics[f"{name}_s"] += own
        if name == "cli.run":
            metrics["cli.run_s"] += (end - start) / 1e9
            metrics["cli.self_s"] += own
    for metric, layers in CALLS.items():
        metrics[metric] = sum(len(sizes_by_layer.get(layer, ())) for layer in layers)
    for metric, (_, layers, key, combine) in SIZES.items():
        values = [s[key] for layer in layers for s in sizes_by_layer.get(layer, ()) if key in s]
        metrics[metric] = combine(values) if values else 0
    if untraced_run_s > 0:
        metrics["trace.overhead_ratio"] = metrics["cli.run_s"] / untraced_run_s
    return metrics


def largest_self_time(metrics: dict[str, float]) -> str:
    """The layer with the most self time, as a metric name."""
    return max((f"{layer}_s" for layer in SELF_TIMES), key=lambda name: metrics[name])
