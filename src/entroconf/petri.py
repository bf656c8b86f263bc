"""Petri net semantics: reachability graphs, boundedness, and conversion of
nets to the automata the measures consume.

A net is explored once, breadth-first, into numbered token vectors, which
decides boundedness too: a new marking that strictly covers one of its
ancestors is a pump and proves unboundedness. The boundedness verdict and
the automata read that numbering; Markings are built only for
reachability_graph's result and an unbounded verdict's witness.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping

# stochastic runs only in stochastic_rg_to_sdfa, the one function that builds an Sdfa
from . import stochastic
from .automata import _canonical, _determinized, _dfa, _explore, _positive_integer, _Record, _trim
from .errors import (
    InvalidFinalMarking,
    NoAcceptingState,
    NondeterministicStochasticModel,
    SilentTransitionUnsupported,
    UnboundedModel,
    _shown,
)

if TYPE_CHECKING:
    from .automata import Dfa
    from .stochastic import Sdfa


class Marking(_Record):
    """Token counts with finite support, canonically sorted for hashing."""

    tokens: tuple[tuple[str, int], ...]

    def __init__(self, tokens=()) -> None:
        object.__setattr__(self, "tokens", tokens)
        if list(tokens) != sorted(tokens):
            raise ValueError("token entries must be sorted by place")
        places = [p for p, _ in tokens]
        if len(set(places)) != len(places):
            raise ValueError("duplicate place in marking")
        if not all(_positive_integer(c) for _, c in tokens):
            raise ValueError("marking stores only positive token counts")

    @classmethod
    def of(cls, counts: Mapping[str, int]) -> "Marking":
        return cls(tuple(sorted((p, c) for p, c in counts.items() if c)))

    def count(self, place: str) -> int:
        for p, c in self.tokens:
            if p == place:
                return c
        return 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.tokens)


class PetriNet(_Record):
    """Place/transition net; a transition's label is None when silent."""

    places: frozenset[str]
    transitions: Mapping[str, str | None]
    arcs: Mapping[tuple[str, str], int]
    initial_marking: Marking
    final_markings: frozenset[Marking] | None

    def __init__(self, places, transitions, arcs, initial_marking, final_markings=None) -> None:
        object.__setattr__(self, "places", places)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "initial_marking", initial_marking)
        object.__setattr__(self, "final_markings", final_markings)
        if self.places & set(self.transitions):
            raise ValueError("place and transition ids must be disjoint")
        for (src, dst), weight in self.arcs.items():
            if not _positive_integer(weight):
                raise ValueError(f"arc weights must be positive integers, got {weight!r}")
            known = {src, dst} <= (self.places | set(self.transitions))
            mixed = (src in self.places) != (dst in self.places)
            if not (known and mixed):
                raise ValueError(f"arc {src}->{dst} must connect a place and a transition")
        for marking in self._declared_markings():
            for place, _ in marking.tokens:
                if place not in self.places:
                    raise ValueError(f"marking mentions unknown place {place}")

    def _declared_markings(self):
        yield self.initial_marking
        if self.final_markings is not None:
            yield from self.final_markings


class StochasticPetriNet(PetriNet):
    """Net with a positive firing weight per transition; silent not allowed."""

    weights: Mapping[str, Fraction]

    def __init__(
        self, places, transitions, arcs, initial_marking, final_markings=None, *, weights
    ) -> None:
        super().__init__(places, transitions, arcs, initial_marking, final_markings)
        object.__setattr__(self, "weights", weights)
        silent = sorted(_shown(t) for t, label in self.transitions.items() if label is None)
        if silent:
            raise SilentTransitionUnsupported(
                f"stochastic nets cannot contain silent transitions: {', '.join(silent)}"
            )
        if set(self.weights) != set(self.transitions):
            raise ValueError("exactly one weight per transition required")
        for weight in self.weights.values():
            try:
                n, _ = weight.as_integer_ratio()
            except (AttributeError, ValueError, OverflowError):  # not a number, nan, infinities
                n = 0
            if n < 1:
                raise ValueError(f"weights must be finite positive numbers, got {weight!r}")


class ReachabilityGraph(_Record):
    nodes: frozenset[Marking]
    initial: Marking
    edges: frozenset[tuple[Marking, str, Marking]]

    def __init__(self, nodes, initial, edges) -> None:
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "edges", edges)

    def deadlocks(self) -> frozenset[Marking]:
        live = {src for src, _, _ in self.edges}
        return frozenset(m for m in self.nodes if m not in live)


def _firing_data(net: PetriNet):
    """The sorted places, and per transition in sorted order its sparse rule
    (t, needs, changes): the (place index, tokens) pairs t consumes and the
    nonzero (place index, change) pairs of firing it.
    """
    order = sorted(net.places)
    index = {p: i for i, p in enumerate(order)}
    pre = {t: [0] * len(order) for t in net.transitions}
    post = {t: [0] * len(order) for t in net.transitions}
    for (src, dst), weight in net.arcs.items():
        if src in index:
            pre[dst][index[src]] += weight
        else:
            post[src][index[dst]] += weight
    rules = []
    for t in sorted(net.transitions):
        needs = [(i, need) for i, need in enumerate(pre[t]) if need]
        changes = [(i, b - a) for i, (a, b) in enumerate(zip(pre[t], post[t])) if a != b]
        rules.append((t, needs, changes))
    return order, rules


def is_bounded(net: PetriNet) -> bool:
    """Whether the reachability set is finite, decided by _explored's one
    exploration, with no graph built.

    A bounded net with more than 10**6 markings (the state cap) raises
    StateSpaceExceeded instead of returning.
    """
    try:
        _explored(net)
    except UnboundedModel:
        return False
    return True


def _explored(net: PetriNet) -> tuple[dict, list, frozenset | None]:
    """Breadth-first exploration of all reachable markings: their numbering
    {token vector over the sorted places: i} in discovery order, the
    initial one 0, by number the edges {transition id: (j, 1)}, and the
    numbers of the reachable declared final markings, None when the net
    declares none.

    Raises UnboundedModel as soon as a newly found marking covers one of
    its ancestors in the BFS tree. That is sound: the ancestor reaches the
    new marking, and the new marking differs from every marking found so
    far, so the cover is strict and the firing sequence between the two can
    repeat forever, adding tokens each time (Karp & Miller, 1969). It is
    complete: an unbounded net has infinitely many reachable markings, so
    its BFS tree, which branches at most once per transition, has an
    infinite branch (König's lemma), and on that branch some marking covers
    an earlier one (Dickson's lemma). Raises StateSpaceExceeded once more
    than 10**6 markings (the state cap) are found without such a cover.

    A strict cover has a larger token total than the marking it covers, so
    the walk up the ancestors stops where no marking left on the path has a
    smaller total than the new one. The UnboundedModel raised carries the
    witness: the covered ancestor, the covering marking and the ids of the
    transitions fired from the one to the other.
    """
    order, rules = _firing_data(net)
    start = tuple(net.initial_marking.count(p) for p in order)
    # marking -> (its BFS parent, the transition fired from there, and the
    # least token total on its path from start)
    parent: dict[tuple[int, ...], tuple[tuple[int, ...] | None, str | None, int]] = {
        start: (None, None, sum(start))
    }

    def unbounded(ancestor, marking, t, successor) -> UnboundedModel:
        sequence = [t]
        while marking != ancestor:
            marking, fired, _ = parent[marking]
            sequence.append(fired)
        sequence.reverse()
        covered, cover = (Marking.of(dict(zip(order, v))) for v in (ancestor, successor))
        shown = " ".join(map(_shown, sequence))
        return UnboundedModel(
            "the net is not bounded: from the reachable marking "
            f"{covered.as_dict()} the firing sequence {shown} reaches "
            f"{cover.as_dict()}, which strictly covers it",
            covered,
            cover,
            tuple(sequence),
        )

    def successors(marking):
        for t, needs, changes in rules:
            if any(marking[i] < need for i, need in needs):
                continue
            successor = list(marking)
            for i, change in changes:
                successor[i] += change
            successor = tuple(successor)
            if successor not in parent:
                total = sum(successor)
                ancestor = marking
                while ancestor is not None and parent[ancestor][2] < total:
                    if all(a <= b for a, b in zip(ancestor, successor)):
                        raise unbounded(ancestor, marking, t, successor)
                    ancestor = parent[ancestor][0]
                parent[successor] = (marking, t, min(parent[marking][2], total))
            yield t, successor, 1

    number, edges = _explore(start, successors)
    if net.final_markings is None:
        return number, edges, None
    finals = [tuple(m.count(p) for p in order) for m in net.final_markings]
    return number, edges, frozenset(number[v] for v in finals if v in number)


def reachability_graph(net: PetriNet) -> ReachabilityGraph:
    """The reachable markings and their firing edges, as _explored finds
    them and raising what it raises."""
    order = sorted(net.places)
    number, edges, _ = _explored(net)
    markings = [Marking.of(dict(zip(order, v))) for v in number]
    return ReachabilityGraph(
        nodes=frozenset(markings),
        initial=markings[0],
        edges=frozenset(
            (markings[i], t, markings[j]) for i, e in enumerate(edges) for t, (j, _) in e.items()
        ),
    )


def _net_rows(net: PetriNet, edges: list, finals) -> list:
    """Trimmed rows of the language of a net's reachability graph, given as
    each state's edges {transition id: (state, _)}, 0 initial, and the
    reachable declared finals (None when none are declared). Edges take
    their transition's label, None (SILENT) when silent. Accepting are the
    declared finals, else the deadlocks; a net with neither raises
    NoAcceptingState rather than accept nothing. The graph is determinized
    only when a state has a silent edge or two equally labelled ones.
    """
    if finals is None:
        finals = frozenset(i for i, out in enumerate(edges) if not out)
        if not finals:
            raise NoAcceptingState("no final markings declared and the net never deadlocks")
    labels = net.transitions
    rows = [
        (int(i in finals), {labels[t]: e for t, e in out.items()}) for i, out in enumerate(edges)
    ]
    if any(len(row[1]) < len(out) or None in row[1] for row, out in zip(rows, edges)):
        rows = _determinized(
            [0],
            lambda q: [j for t, (j, _) in edges[q].items() if labels[t] is None],
            lambda q: [(labels[t], j) for t, (j, _) in edges[q].items() if labels[t] is not None],
            finals.__contains__,
        )
    return _trim(rows)


def rg_to_dfa(rg: ReachabilityGraph, net: PetriNet) -> Dfa:
    """Language automaton of a reachability graph: _net_rows', as a measure
    builds a net's from its numbered exploration, so the two are equal."""
    number = {m: i for i, m in enumerate(dict.fromkeys([rg.initial, *rg.nodes]))}
    edges: list[dict] = [{} for _ in number]
    for src, t, dst in rg.edges:
        edges[number[src]][t] = (number[dst], 1)
    finals = None
    if net.final_markings is not None:
        finals = frozenset(number[m] for m in rg.nodes.intersection(net.final_markings))
    alphabet = frozenset(label for label in net.transitions.values() if label is not None)
    return _dfa(_net_rows(net, edges, finals), alphabet)


def stochastic_rg_to_sdfa(net: StochasticPetriNet) -> Sdfa:
    """The SDFA of a weighted net, read from _explored's numbering, which
    follows transition ids, and numbered canonically once more.

    At each marking the enabled transitions fire with probability
    proportional to their weights; deadlock markings terminate with
    probability 1. Declared final markings must coincide with the
    reachable deadlocks, since any other convention leaves some state's
    probability short of 1. The weights are scaled once to integers over
    the lcm of their denominators, so Fractions appear only in the result.
    """
    _, edges, finals = _explored(net)
    deadlocks = frozenset(i for i, out in enumerate(edges) if not out)
    if finals is not None and finals != deadlocks:
        raise InvalidFinalMarking(
            "declared final markings must be exactly the reachable deadlocks"
        )
    ratios = {t: w.as_integer_ratio() for t, w in net.weights.items()}
    scale = math.lcm(*[d for _, d in ratios.values()])
    weights = {t: n * (scale // d) for t, (n, d) in ratios.items()}
    # per marking, (stop weight, {label: (marking, weight)})
    rows = []
    for out in edges:
        named = {net.transitions[t]: (j, weights[t]) for t, (j, _) in out.items()}
        if len(named) < len(out):
            raise NondeterministicStochasticModel(
                "two equally labeled transitions enabled at one marking"
            )
        rows.append((int(not out), named))
    rows = _canonical(rows, range(len(rows)))
    return stochastic._sdfa(rows, frozenset(net.transitions.values()))
