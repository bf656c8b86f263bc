"""One CLI invocation with every public entroconf function timed from outside.

Usage: python traced_cli.py <spans.json> <cli arguments...>

Before calling entroconf.cli.run, this wraps each public function in every
entroconf module namespace that binds it (``from .x import f`` copies the
binding, and formats dispatches through a dict of parsers), plus the method
Sdfa.out_edges. Each call records a span (name, start, end, parent) in
memory, with a few sizes read from its arguments and result; the spans are
written to <spans.json> once the run ends. The program itself is unchanged.
"""

from __future__ import annotations

import functools
import inspect
import io
import json
import os
import sys
import time


class Tracer:
    def __init__(self) -> None:
        # one span: [name, start_ns, end_ns, parent index or -1, sizes or None]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.models: list = []  # Sdfas built from stochastic nets, kept alive for id()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        sizer = getattr(self, "_sizes_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0, 0, parent, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if sizer is not None:
                # size bookkeeping is a sibling span, so no layer's self time holds it
                begin = clock()
                span[4] = sizer(args, result)
                spans.append(["trace.sizes", begin, clock(), parent, None])
            return result

        return traced

    def install(self) -> None:
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if name == "entroconf" or name.startswith("entroconf.")
        ]
        originals = {}
        for module in modules:
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__.startswith("entroconf")
                ):
                    layer = value.__module__.rpartition(".")[2]
                    originals[value] = f"{layer}.{value.__name__}"
        wrappers = {fn: self.wrap(name, fn) for fn, name in originals.items()}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            value[key] = wrappers[item]
        from entroconf.stochastic import Sdfa

        Sdfa.out_edges = self.wrap("stochastic.out_edges", Sdfa.out_edges)

    # sizes read from arguments and results, one method per layer that has any

    def _sizes_measures_spectral_radius(self, args, result):
        import numpy as np

        m = np.asarray(args[0])
        return {"n": int(m.shape[0]), "nnz": int(np.count_nonzero(m))}

    def _sizes_automata_short_circuit(self, args, result):
        # computed, not measured: the dense float64 matrix spectral_radius builds
        return {"bytes": result.node_count**2 * 8}

    def _dfa_states(self, args, result):
        return {"states": len(result.states)}

    _sizes_automata_log_to_dfa = _dfa_states
    _sizes_automata_trim = _dfa_states
    _sizes_automata_product = _dfa_states
    _sizes_automata_determinize = _dfa_states
    _sizes_petri_rg_to_dfa = _dfa_states

    def _sizes_petri_reachability_graph(self, args, result):
        return {"markings": len(result.nodes), "edges": len(result.edges)}

    _sizes_stochastic_log_to_sdfa = _dfa_states
    _sizes_stochastic_conjunction = _dfa_states
    _sizes_formats_parse_sdfa = _dfa_states

    def _sizes_petri_stochastic_rg_to_sdfa(self, args, result):
        self.models.append(result)
        return {"states": len(result.states)}

    def _sizes_stochastic_sdfa_entropy(self, args, result):
        model = any(args[0] is m for m in self.models)
        return {"states": len(args[0].states), "bits": result.bits, "model": model}

    def _sizes_formats_load_artifact(self, args, result):
        return {"bytes": os.path.getsize(args[0])}

    def _sizes_formats_parse_xes(self, args, result):
        return {"instances": result.total_instances(), "distinct": len(result.entries)}


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import entroconf.cli

    tracer = Tracer()
    tracer.install()
    stdout, stderr = io.StringIO(), io.StringIO()
    code = entroconf.cli.run(entroconf.cli.parse_args(cli_args), stdout=stdout, stderr=stderr)
    with open(out_path, "w") as handle:
        json.dump(
            {
                "exit_code": code,
                "stdout": stdout.getvalue(),
                "stderr": stderr.getvalue(),
                "spans": tracer.spans,
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
