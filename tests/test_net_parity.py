"""A net's language automaton and SDFA, built from its one numbered
exploration, against the builders that read reachability_graph's Markings.

earlier_rg_to_dfa and earlier_stochastic_rg_to_sdfa are such builders,
over the public records: the automata built now must equal theirs with the
same transition and termination order, and every net they reject must be
rejected with the same error class, message and witness, the first error
raised first.
"""

import random
from fractions import Fraction

import pytest

from entroconf import automata, cli
from entroconf.automata import UNBOUNDED, _dfa
from entroconf.cli import parse_args
from entroconf.errors import (
    EntroconfError,
    InvalidFinalMarking,
    NoAcceptingState,
    NondeterministicStochasticModel,
)
from entroconf.formats import load_artifact
from entroconf.measures import _language
from entroconf.petri import (
    Marking,
    PetriNet,
    StochasticPetriNet,
    is_bounded,
    reachability_graph,
    rg_to_dfa,
    stochastic_rg_to_sdfa,
)
from entroconf.stochastic import Sdfa

import oracles
from test_petri import GENERATOR, NET
from test_properties import bounded_nets


def earlier_rg_to_dfa(rg, net):
    if net.final_markings is not None:
        accepting = frozenset(net.final_markings) & rg.nodes
    else:
        accepting = rg.deadlocks()
        if not accepting:
            raise NoAcceptingState(
                "no final markings declared and the net never deadlocks"
            )
    triples = [(src, net.transitions[t], dst) for src, t, dst in rg.edges]
    alphabet = frozenset(
        label for label in net.transitions.values() if label is not None
    )
    return oracles.subset_construction(rg.initial, accepting, triples, alphabet)


def earlier_stochastic_rg_to_sdfa(net):
    rg = reachability_graph(net)
    deadlocks = rg.deadlocks()
    if net.final_markings is not None:
        declared = frozenset(net.final_markings) & rg.nodes
        if declared != deadlocks:
            raise InvalidFinalMarking(
                "declared final markings must be exactly the reachable deadlocks"
            )
    # marking -> {label: (marking, weight)}
    out = {m: {} for m in rg.nodes}
    for src, t, dst in rg.edges:
        if net.transitions[t] in out[src]:
            raise NondeterministicStochasticModel(
                "two equally labeled transitions enabled at one marking"
            )
        out[src][net.transitions[t]] = (dst, net.weights[t])
    number = oracles.breadth_first(rg.initial, lambda m: [(x, d) for x, (d, _) in out[m].items()])
    transitions, termination = {}, {}
    for m, i in number.items():
        total = sum(w for _, w in out[m].values())
        for x, (d, w) in sorted(out[m].items()):
            transitions[i, x] = (number[d], w / total)
        if m in deadlocks:
            termination[i] = Fraction(1)
    alphabet = frozenset(net.transitions.values())
    return Sdfa(frozenset(number.values()), alphabet, 0, transitions, termination)


def measured_dfa(net, k):
    """The automaton a measure builds of a net under budget k, as a Dfa over its labels."""
    alphabet = frozenset(label for label in net.transitions.values() if label is not None)
    return _dfa(_language(net, k), alphabet)


def outcome(build, net):
    """build(net) with its transitions in order, or its error's class,
    message and attributes (an unbounded verdict's witness)."""
    try:
        value = build(net)
    except EntroconfError as error:
        return type(error), str(error), vars(error)
    termination = list(getattr(value, "termination", {}).items())
    return value, list(value.transitions.items()), termination


def rebuilt(net, **fields) -> PetriNet:
    """net with some fields replaced; weights make it a StochasticPetriNet."""
    parts = dict(
        places=net.places,
        transitions=net.transitions,
        arcs=net.arcs,
        initial_marking=net.initial_marking,
        final_markings=net.final_markings,
    )
    parts.update(fields)
    if "weights" in parts:
        return StochasticPetriNet(**parts)
    return PetriNet(**parts)


def concurrent_cycles(k: int) -> StochasticPetriNet:
    """k concurrent 9-step cycles, each with an exit: 10**k markings, and
    the one deadlock once every token has left its cycle."""
    places, transitions, arcs, weights = set(), {}, {}, {}
    for i in range(k):
        for j in range(9):
            step = f"s{i}_{j}"
            places.add(f"c{i}_{j}")
            transitions[step] = f"a{i}{j}"
            arcs[(f"c{i}_{j}", step)] = arcs[(step, f"c{i}_{(j + 1) % 9}")] = 1
            weights[step] = Fraction(j + 1, 2)
        places.add(f"x{i}")
        transitions[f"e{i}"] = f"e{i}"
        arcs[(f"c{i}_0", f"e{i}")] = arcs[(f"e{i}", f"x{i}")] = 1
        weights[f"e{i}"] = Fraction(1, 3)
    initial = Marking.of({f"c{i}_0": 1 for i in range(k)})
    return StochasticPetriNet(frozenset(places), transitions, arcs, initial, weights=weights)


def ring(size: int, **fields) -> PetriNet:
    """One token going round size places forever: size markings, none of
    them a deadlock."""
    arcs = {}
    for i in range(size):
        arcs[(f"p{i}", f"t{i}")] = arcs[(f"t{i}", f"p{(i + 1) % size}")] = 1
    net = PetriNet(
        frozenset(f"p{i}" for i in range(size)),
        {f"t{i}": "a" for i in range(size)},
        arcs,
        Marking.of({"p0": 1}),
    )
    return rebuilt(net, **fields)


def kind(result) -> str:
    """The class name of an outcome's error, or of its value."""
    first = result[0]
    return (first if isinstance(first, type) else type(first)).__name__


def parity_nets(fixtures) -> list:
    rng = random.Random(2711)
    nets = [load_artifact(fixtures / name) for name in ("N.pnml", "N.spnml", "L.spnml", "T.spnml")]
    nets += [load_artifact(fixtures / "generator.pnml"), GENERATOR, ring(1), ring(4)]
    for net in bounded_nets(rng, 25):
        nets.append(net)
        # a silent first transition, and seeded weights
        nets.append(rebuilt(net, transitions={**net.transitions, "t0": None}))
        weights = {t: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for t in net.transitions}
        nets.append(rebuilt(net, weights=weights))
    weights = {t: Fraction(1) for t in NET.transitions}
    deadlock = Marking.of({"p5": 1})
    for finals in ({deadlock}, {Marking.of({"p1": 1, "p2": 1})}, {Marking.of({"p0": 2})}, set()):
        nets.append(rebuilt(NET, final_markings=frozenset(finals)))
        nets.append(rebuilt(NET, final_markings=frozenset(finals), weights=weights))
    nets.append(ring(3, final_markings=frozenset({Marking.of({"p1": 1})})))
    nets.append(ring(3, weights={f"t{i}": Fraction(i + 1) for i in range(3)}))
    # equally labelled transitions, enabled together, in a net whose declared
    # final marking is not its deadlock: the finals are rejected first
    clash = PetriNet(
        frozenset({"p0", "p1", "p2"}),
        {"ta": "a", "tb": "a"},
        {("p0", "ta"): 1, ("ta", "p1"): 1, ("p0", "tb"): 1, ("tb", "p2"): 1},
        Marking.of({"p0": 1}),
    )
    clash_weights = {"ta": Fraction(1), "tb": Fraction(3)}
    nets.append(rebuilt(clash, weights=clash_weights))
    initial = frozenset({Marking.of({"p0": 1})})
    nets.append(rebuilt(clash, weights=clash_weights, final_markings=initial))
    nets.append(concurrent_cycles(3))
    return nets


def test_numbered_builders_match_the_marking_based_ones(fixtures, monkeypatch):
    kinds = set()
    for net in parity_nets(fixtures):
        expected = outcome(lambda n: earlier_rg_to_dfa(reachability_graph(n), n), net)
        kinds.add(kind(expected))
        assert outcome(lambda n: rg_to_dfa(reachability_graph(n), n), net) == expected
        for k in (0, UNBOUNDED):
            assert outcome(lambda n: measured_dfa(n, k), net) == expected
        if isinstance(net, StochasticPetriNet):
            expected = outcome(earlier_stochastic_rg_to_sdfa, net)
            kinds.add(kind(expected))
            assert outcome(stochastic_rg_to_sdfa, net) == expected
    assert kinds == {
        "Dfa",
        "Sdfa",
        "UnboundedModel",
        "NoAcceptingState",
        "InvalidFinalMarking",
        "NondeterministicStochasticModel",
    }
    # the state cap comes first, also on a net that never deadlocks
    monkeypatch.setattr(automata, "_MAX_STATES", 3)
    never = ring(4, weights={f"t{i}": Fraction(1) for i in range(4)})
    for net in (concurrent_cycles(3), never, load_artifact(fixtures / "N.spnml")):
        expected = outcome(earlier_stochastic_rg_to_sdfa, net)
        assert kind(expected) == "StateSpaceExceeded"
        assert outcome(stochastic_rg_to_sdfa, net) == expected
        assert outcome(lambda n: measured_dfa(n, 0), net) == expected
        assert outcome(lambda n: rg_to_dfa(reachability_graph(n), n), net) == expected


def test_measures_and_boundedness_build_no_markings(fixtures, monkeypatch):
    loaded = {
        name: load_artifact(fixtures / name)
        for name in ("N.pnml", "N.spnml", "L.spnml", "E.xes")
    }
    expected = {
        "is_bounded": is_bounded(loaded["N.pnml"]),
        "sdfa": stochastic_rg_to_sdfa(loaded["N.spnml"]),
    }

    def forbidden(self, *args):
        raise AssertionError("a Marking was built")

    monkeypatch.setattr(Marking, "__init__", forbidden)
    with pytest.raises(AssertionError, match="Marking was built"):
        reachability_graph(loaded["N.pnml"])
    runs = [("-emp", "N.pnml", "E.xes"), ("-pmp", "E.xes", "N.pnml"), ("-b", "N.pnml", None)]
    runs += [(flag, "E.xes", net) for flag in ("-sp", "-sr") for net in ("N.spnml", "L.spnml")]
    runs += [(flag, net, "E.xes") for flag in ("-sp", "-sr") for net in ("N.spnml", "L.spnml")]
    for flag, rel, ret in runs:
        args = [flag, "-rel", rel] + ([] if ret is None else ["-ret", ret])
        value, _ = cli._evaluate(parse_args(args), loaded[rel], loaded.get(ret))
        assert value is True or 0.0 <= value <= 1.0
    assert is_bounded(loaded["N.pnml"]) == expected["is_bounded"]
    assert stochastic_rg_to_sdfa(loaded["N.spnml"]) == expected["sdfa"]
