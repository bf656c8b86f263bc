"""The readers of the SDFA and DFG line formats, whose records formats documents.

Reached through ``formats``, this module runs when the first automaton is
read, and loads ``fractions``: each probability is kept as an exact rational.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Mapping

# stochastic runs only when an SDFA is built
from . import stochastic
from .automata import _reachable, _Record
from .errors import (
    DeadEndNode,
    DuplicateTransition,
    ParseError,
    StochasticSumViolation,
    UnreachableNode,
    _echo,
    _parse_count,
)
from .formats import _parse_number, _public

if TYPE_CHECKING:
    from .stochastic import Sdfa


@_public
class Dfg(_Record):
    """Directly-follows graph: labeled activity nodes between two endpoints."""

    nodes: Mapping[str, str]
    arcs: Mapping[tuple[str, str], int]
    source: str
    sink: str

    def __init__(self, nodes, arcs, source, sink) -> None:
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "sink", sink)


def _parse_probability(token: str, context: str) -> Fraction:
    value = _parse_number(token, context)
    if not 0 <= value <= 1:
        raise ParseError(f"{context}: probability {_echo(token, str)} outside [0, 1]")
    return value


# --- SDFA ---------------------------------------------------------------


def _records(text: str):
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_number, line.split()


@_public
def parse_sdfa(text: str) -> Sdfa:
    """SDFA from the line format; per-state sums checked to 1 +- 1e-9."""
    initial: str | None = None
    termination: dict[str, Fraction] = {}
    arcs: list[tuple[str, str, str, Fraction]] = []
    for line_number, fields in _records(text):
        kind = fields[0]
        if kind == "initial" and len(fields) == 2:
            if initial is not None:
                raise ParseError(f"line {line_number}: repeated initial declaration")
            initial = fields[1]
        elif kind == "state" and len(fields) == 3:
            if fields[1] in termination:
                raise ParseError(f"line {line_number}: state {fields[1]} redeclared")
            termination[fields[1]] = _parse_probability(
                fields[2], f"line {line_number}"
            )
        elif kind == "arc" and len(fields) == 5:
            arcs.append(
                (
                    fields[1],
                    fields[2],
                    fields[3],
                    _parse_probability(fields[4], f"line {line_number}"),
                )
            )
        else:
            raise ParseError(f"line {line_number}: unrecognized record {' '.join(fields)!r}")
    if initial is None:
        raise ParseError("missing initial declaration")
    if initial not in termination:
        raise ParseError(f"initial state {initial} is not declared")
    transitions: dict[tuple[str, str], tuple[str, Fraction]] = {}
    for src, dst, label, probability in arcs:
        for endpoint in (src, dst):
            if endpoint not in termination:
                raise ParseError(f"arc endpoint {endpoint} is not declared")
        if (src, label) in transitions:
            raise DuplicateTransition(f"second arc for label {label!r} at state {src}")
        transitions[(src, label)] = (dst, probability)
    try:
        return stochastic.Sdfa(
            states=frozenset(termination),
            alphabet=frozenset(label for _, label in transitions),
            initial=initial,
            transitions=transitions,
            termination={s: p for s, p in termination.items() if p > 0},
        )
    except ValueError as exc:
        # every other check of Sdfa is made above, with a line number
        raise StochasticSumViolation(str(exc)) from None


# --- DFG ----------------------------------------------------------------


@_public
def read_dfg(text: str) -> Dfg:
    """Directly-follows graph from the line format, fully validated."""
    source: str | None = None
    sink: str | None = None
    nodes: dict[str, str] = {}
    arcs: dict[tuple[str, str], int] = {}
    for line_number, fields in _records(text):
        kind = fields[0]
        if kind == "source" and len(fields) == 2:
            if source is not None:
                raise ParseError(f"line {line_number}: repeated source declaration")
            source = fields[1]
        elif kind == "sink" and len(fields) == 2:
            if sink is not None:
                raise ParseError(f"line {line_number}: repeated sink declaration")
            sink = fields[1]
        elif kind == "node" and len(fields) == 3:
            if fields[1] in nodes:
                raise ParseError(f"line {line_number}: node {fields[1]} redeclared")
            nodes[fields[1]] = fields[2]
        elif kind == "arc" and len(fields) == 4:
            frequency = _parse_count(fields[3], f"line {line_number}")
            if frequency < 1:
                raise ParseError(f"line {line_number}: frequency must be positive")
            if (fields[1], fields[2]) in arcs:
                raise ParseError(
                    f"line {line_number}: repeated arc {fields[1]} -> {fields[2]}"
                )
            arcs[(fields[1], fields[2])] = frequency
        else:
            raise ParseError(f"line {line_number}: unrecognized record {' '.join(fields)!r}")
    if source is None or sink is None:
        raise ParseError("both a source and a sink declaration are required")
    if source == sink or source in nodes or sink in nodes:
        raise ParseError("source and sink must be distinct, undeclared endpoints")
    for src, dst in arcs:
        if src == sink or dst == source:
            raise ParseError("arcs may not leave the sink or enter the source")
        if src not in nodes and src != source:
            raise ParseError(f"arc leaves unknown node {src!r}")
        if dst not in nodes and dst != sink:
            raise ParseError(f"arc enters unknown node {dst!r}")

    outgoing: dict[str, list[str]] = {}
    for src, dst in arcs:
        outgoing.setdefault(src, []).append(dst)
    for node, label in sorted(nodes.items()):
        if node not in outgoing:
            raise DeadEndNode(f"node {node} ({label}) has no outgoing arc")
    if source not in outgoing:
        raise DeadEndNode("the source has no outgoing arc")
    reached = _reachable((source,), lambda node: outgoing.get(node, ()))
    unreachable = sorted(set(nodes) - reached.keys())
    if unreachable:
        raise UnreachableNode(f"unreachable from the source: {', '.join(unreachable)}")
    return Dfg(nodes=nodes, arcs=arcs, source=source, sink=sink)


@_public
def parse_dfg(text: str) -> Sdfa:
    """DFG interpreted as an SDFA.

    An arc is a step to its target and takes the target's label; arcs into
    the sink become termination probability. Frequencies out of each state
    are normalized exactly, so the stochastic-sum invariant holds with no
    tolerance.
    """
    dfg = read_dfg(text)
    totals: dict[str, int] = {}
    for (src, _), frequency in dfg.arcs.items():
        totals[src] = totals.get(src, 0) + frequency
    transitions: dict[tuple[str, str], tuple[str, Fraction]] = {}
    termination: dict[str, Fraction] = {}
    for (src, dst), frequency in dfg.arcs.items():
        probability = Fraction(frequency, totals[src])
        if dst == dfg.sink:
            termination[src] = termination.get(src, Fraction(0)) + probability
            continue
        label = dfg.nodes[dst]
        if (src, label) in transitions:
            raise ParseError(
                f"two successors of {src} carry the label {label!r}; "
                "the stochastic interpretation would be ambiguous"
            )
        transitions[(src, label)] = (dst, probability)
    return stochastic.Sdfa(
        states=frozenset(dfg.nodes) | {dfg.source},
        alphabet=frozenset(dfg.nodes.values()),
        initial=dfg.source,
        transitions=transitions,
        termination=termination,
    )
