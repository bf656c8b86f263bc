import random
import time
from fractions import Fraction

import pytest

from entroconf import automata, measures
from entroconf.automata import UNBOUNDED, Dfa, EventLog, log_to_dfa, product
from entroconf.errors import (
    InvalidFinalMarking,
    NoAcceptingState,
    NondeterministicStochasticModel,
    SilentTransitionUnsupported,
    StateSpaceExceeded,
    UnboundedModel,
)
from entroconf.petri import (
    Marking,
    PetriNet,
    StochasticPetriNet,
    is_bounded,
    reachability_graph,
    rg_to_dfa,
    stochastic_rg_to_sdfa,
)
from entroconf.formats import load_artifact
from entroconf.stochastic import conjunction, log_to_sdfa

import oracles


NET_ARCS = {
    ("p0", "t0"): 1,
    ("t0", "p1"): 1,
    ("t0", "p2"): 1,
    ("p1", "t1"): 1,
    ("t1", "p3"): 1,
    ("p2", "t3"): 1,
    ("t3", "p4"): 1,
    ("p3", "t2"): 1,
    ("p4", "t2"): 1,
    ("t2", "p1"): 1,
    ("t2", "p2"): 1,
    ("p3", "t4"): 1,
    ("p4", "t4"): 1,
    ("t4", "p5"): 1,
}

NET = PetriNet(
    places=frozenset({"p0", "p1", "p2", "p3", "p4", "p5"}),
    transitions={"t0": "a", "t1": "b", "t2": "d", "t3": "c", "t4": "e"},
    arcs=NET_ARCS,
    initial_marking=Marking.of({"p0": 1}),
)


# emits a token on every firing, from the empty marking on
GENERATOR = PetriNet(
    places=frozenset({"p"}),
    transitions={"t": "a"},
    arcs={("t", "p"): 1},
    initial_marking=Marking.of({}),
)


def parallel_chains(k: int) -> PetriNet:
    """k independent branches of two transitions each: 3**k markings."""
    places = {f"b{i}_{j}" for i in range(k) for j in range(3)}
    transitions = {f"t{i}_{j}": f"a{i}{j}" for i in range(k) for j in range(2)}
    arcs = {}
    for i in range(k):
        for j in range(2):
            arcs[(f"b{i}_{j}", f"t{i}_{j}")] = 1
            arcs[(f"t{i}_{j}", f"b{i}_{j + 1}")] = 1
    return PetriNet(
        places=frozenset(places),
        transitions=transitions,
        arcs=arcs,
        initial_marking=Marking.of({f"b{i}_0": 1 for i in range(k)}),
    )


def weighted(net: PetriNet, **weights) -> StochasticPetriNet:
    table = {t: Fraction(weights.get(t, 1)) for t in net.transitions}
    return StochasticPetriNet(
        places=net.places,
        transitions=net.transitions,
        arcs=net.arcs,
        initial_marking=net.initial_marking,
        final_markings=net.final_markings,
        weights=table,
    )


def test_marking_normalizes_and_compares():
    m = Marking.of({"p0": 1, "p1": 0})
    assert m == Marking.of({"p0": 1})
    assert m.count("p0") == 1
    assert m.count("p1") == 0
    assert m.as_dict() == {"p0": 1}
    assert Marking.of({"a": 1, "b": 2}) == Marking.of({"b": 2, "a": 1})
    # token counts are positive integers
    for count in (-1, 1.5, 1.0, float("nan"), "1"):
        with pytest.raises(ValueError):
            Marking.of({"p0": count})


def test_net_validation():
    with pytest.raises(ValueError):
        # place and transition share an identifier
        PetriNet(
            places=frozenset({"x"}),
            transitions={"x": "a"},
            arcs={},
            initial_marking=Marking.of({}),
        )
    with pytest.raises(ValueError):
        PetriNet(
            places=frozenset({"p"}),
            transitions={"t": "a"},
            arcs={("p", "q"): 1},
            initial_marking=Marking.of({}),
        )
    with pytest.raises(ValueError):
        PetriNet(
            places=frozenset({"p", "q"}),
            transitions={"t": "a"},
            arcs={("p", "q"): 1},
            initial_marking=Marking.of({}),
        )
    # arc weights are positive integers: 1.5 would explore markings holding
    # 1.5 tokens, and NaN would explore up to the state cap
    for weight in (0, 1.5, float("nan"), "1"):
        with pytest.raises(ValueError, match="positive integers"):
            PetriNet(
                places=frozenset({"p"}),
                transitions={"t": "a"},
                arcs={("p", "t"): weight},
                initial_marking=Marking.of({}),
            )
    with pytest.raises(ValueError):
        PetriNet(
            places=frozenset({"p"}),
            transitions={},
            arcs={},
            initial_marking=Marking.of({"q": 1}),
        )


def test_reachability_graph_of_reference_net():
    rg = reachability_graph(NET)
    assert len(rg.nodes) == 6
    assert len(rg.edges) == 7
    assert rg.initial == Marking.of({"p0": 1})
    assert rg.deadlocks() == frozenset({Marking.of({"p5": 1})})


def test_edges_respect_the_firing_rule():
    rg = reachability_graph(NET)
    for src, transition, dst in rg.edges:
        for place in NET.places:
            consumed = NET.arcs.get((place, transition), 0)
            produced = NET.arcs.get((transition, place), 0)
            assert src.count(place) >= consumed
            assert dst.count(place) == src.count(place) - consumed + produced


def test_language_of_reference_net():
    dfa = rg_to_dfa(reachability_graph(NET), NET)
    assert dfa.accepts(tuple("abce"))
    assert dfa.accepts(tuple("acbe"))
    assert dfa.accepts(tuple("abcdcbe"))
    assert not dfa.accepts(tuple("ace"))
    assert not dfa.accepts(tuple("ab"))
    assert not dfa.accepts(())
    deadlock = Marking.of({"p5": 1})
    expected = oracles.net_traces(NET, 7, lambda m: m == deadlock)
    assert oracles.dfa_language(dfa, 7) == expected


def test_declared_final_markings_override_deadlocks():
    finals = frozenset({Marking.of({"p1": 1, "p2": 1})})
    net = PetriNet(
        places=NET.places,
        transitions=NET.transitions,
        arcs=NET.arcs,
        initial_marking=NET.initial_marking,
        final_markings=finals,
    )
    dfa = rg_to_dfa(reachability_graph(net), net)
    assert dfa.accepts(("a",))
    assert not dfa.accepts(tuple("abce"))

    unreachable = frozenset({Marking.of({"p0": 2})})
    net = PetriNet(
        places=NET.places,
        transitions=NET.transitions,
        arcs=NET.arcs,
        initial_marking=NET.initial_marking,
        final_markings=unreachable,
    )
    dfa = rg_to_dfa(reachability_graph(net), net)
    assert dfa.is_empty_language


def test_net_without_accepting_convention_is_reported():
    spinner = PetriNet(
        places=frozenset({"p"}),
        transitions={"t": "a"},
        arcs={("p", "t"): 1, ("t", "p"): 1},
        initial_marking=Marking.of({"p": 1}),
    )
    with pytest.raises(NoAcceptingState):
        rg_to_dfa(reachability_graph(spinner), spinner)


def test_silent_transitions_vanish_from_the_language():
    net = PetriNet(
        places=frozenset({"p0", "p1"}),
        transitions={"t": None},
        arcs={("p0", "t"): 1, ("t", "p1"): 1},
        initial_marking=Marking.of({"p0": 1}),
    )
    dfa = rg_to_dfa(reachability_graph(net), net)
    assert oracles.dfa_language(dfa, 3) == {()}


def test_single_transition_net_language():
    net = PetriNet(
        places=frozenset({"p0", "p1"}),
        transitions={"t": "a"},
        arcs={("p0", "t"): 1, ("t", "p1"): 1},
        initial_marking=Marking.of({"p0": 1}),
    )
    dfa = rg_to_dfa(reachability_graph(net), net)
    assert oracles.dfa_language(dfa, 3) == {("a",)}


def test_boundedness_of_reference_nets():
    assert is_bounded(NET)
    assert not is_bounded(GENERATOR)
    idle = PetriNet(
        places=frozenset({"p"}),
        transitions={},
        arcs={},
        initial_marking=Marking.of({"p": 1}),
    )
    assert is_bounded(idle)
    # pump that needs its own output to keep running
    pump = PetriNet(
        places=frozenset({"p0", "p1"}),
        transitions={"t": "a"},
        arcs={("p0", "t"): 1, ("t", "p0"): 1, ("t", "p1"): 1},
        initial_marking=Marking.of({"p0": 1}),
    )
    assert not is_bounded(pump)
    # every interleaving of six independent branches: 729 markings
    assert is_bounded(parallel_chains(6))


def test_boundedness_agrees_with_exhaustive_search():
    rng = random.Random(41)
    for _ in range(40):
        net = oracles.random_net(rng)
        assert is_bounded(net) == oracles.exhaustive_is_bounded(net, 20_000)


def test_reachability_graph_node_cap(monkeypatch):
    monkeypatch.setattr(automata, "_MAX_STATES", 2)
    with pytest.raises(StateSpaceExceeded, match=r"\b2\b"):
        reachability_graph(NET)
    chains = parallel_chains(6)
    monkeypatch.setattr(automata, "_MAX_STATES", 729)
    assert len(reachability_graph(chains).nodes) == 729
    monkeypatch.setattr(automata, "_MAX_STATES", 728)
    with pytest.raises(StateSpaceExceeded, match=r"\b728\b"):
        reachability_graph(chains)


def test_nets_and_automata_share_one_state_cap(monkeypatch):
    # each capped construction below builds n + 1 states, and the one
    # constant automata._MAX_STATES decides whether it may
    n = 6
    log = EventLog.from_traces([("a",) * n])
    chain = log_to_dfa(log)
    rows = automata._rows(chain)
    # n tokens moved one at a time: n + 1 markings
    tokens = PetriNet(
        places=frozenset({"p", "q"}),
        transitions={"t": "a"},
        arcs={("p", "t"): 1, ("t", "q"): 1},
        initial_marking=Marking.of({"p": n}),
    )
    sizes = [
        lambda: len(product(chain, chain).states),
        # each suffix of the chain is one subset of its deletion closure
        lambda: len(measures._closure(rows, UNBOUNDED)),
        lambda: len(conjunction(log_to_sdfa(log), log_to_sdfa(log)).states),
        lambda: len(reachability_graph(tokens).nodes),
        lambda: len(stochastic_rg_to_sdfa(weighted(tokens)).states),
    ]
    for size in sizes:
        monkeypatch.setattr(automata, "_MAX_STATES", n + 1)
        assert size() == n + 1
        monkeypatch.setattr(automata, "_MAX_STATES", n)
        with pytest.raises(StateSpaceExceeded, match=rf"cap of {n} states"):
            size()
    # a log's prefix tree is not capped: it is no larger than the log read
    assert len(log_to_dfa(log).states) == len(log_to_sdfa(log).states) == n + 1
    # a deletion budget k is checked as k + 1 copies of the states, before
    # any subset is built
    monkeypatch.setattr(automata, "_MAX_STATES", 2 * (n + 1))
    assert len(measures._closure(rows, 1)) == n + 1
    monkeypatch.setattr(automata, "_MAX_STATES", 2 * n + 1)
    with pytest.raises(StateSpaceExceeded, match=rf"budget of 1 on {n + 1} states .* {2 * n + 1} "):
        measures._closure(rows, 1)
    # so a budget unbounded in effect is refused on a cycle, where no
    # longest word lowers it
    monkeypatch.undo()
    loop = automata._rows(Dfa(frozenset({0}), frozenset("a"), 0, frozenset({0}), {(0, "a"): 0}))
    with pytest.raises(StateSpaceExceeded, match=r"cap of 1000000 states"):
        measures._closure(loop, 10**12)


def test_boundedness_of_a_long_token_chain_is_fast():
    # n tokens move one at a time: a chain of n + 1 markings, each with n
    # tokens, so no marking can strictly cover an ancestor
    n = 50_000
    chain = PetriNet(
        places=frozenset({"p", "q"}),
        transitions={"t": "a"},
        arcs={("p", "t"): 1, ("t", "q"): 1},
        initial_marking=Marking.of({"p": n}),
    )
    started = time.perf_counter()
    assert len(reachability_graph(chain).nodes) == n + 1
    # about a second; walking every ancestor chain would take many minutes
    assert time.perf_counter() - started < 60


def test_reachability_graph_rejects_unbounded_nets(monkeypatch):
    # the pump shows within a few markings, long before the cap
    monkeypatch.setattr(automata, "_MAX_STATES", 1_000)
    with pytest.raises(UnboundedModel, match="bounded"):
        reachability_graph(GENERATOR)
    # two tokens become one, which then pumps: the covered marking has
    # fewer tokens than the initial one
    drop_then_pump = PetriNet(
        places=frozenset({"p", "q", "r"}),
        transitions={"t": "a", "u": "b"},
        arcs={("p", "t"): 2, ("t", "q"): 1, ("q", "u"): 1, ("u", "q"): 1, ("u", "r"): 1},
        initial_marking=Marking.of({"p": 2}),
    )
    with pytest.raises(UnboundedModel, match=r"\{'q': 1\}"):
        reachability_graph(drop_then_pump)


def _fire(net: PetriNet, tokens: dict, t: str) -> dict | None:
    """The marking after firing t, or None when t is not enabled."""
    after = dict(tokens)
    for (src, dst), weight in net.arcs.items():
        if dst == t:
            if after.get(src, 0) < weight:
                return None
            after[src] -= weight
    for (src, dst), weight in net.arcs.items():
        if src == t:
            after[dst] = after.get(dst, 0) + weight
    return after


def _reachable_within(net: PetriNet, target: Marking, cap: int) -> bool:
    start = net.initial_marking
    seen, frontier = {start}, [start]
    while frontier and len(seen) < cap:
        marking = frontier.pop(0)
        if marking == target:
            return True
        for t in sorted(net.transitions):
            after = _fire(net, marking.as_dict(), t)
            if after is not None and Marking.of(after) not in seen:
                seen.add(Marking.of(after))
                frontier.append(Marking.of(after))
    return False


def test_unboundedness_witnesses_replay_on_the_net(fixtures):
    # a token goes round p -> q -> r -> p, leaving one on s each round
    round_trip = PetriNet(
        places=frozenset("pqrs"),
        transitions={"t1": "a", "t2": "b", "t3": "c"},
        arcs={
            ("p", "t1"): 1, ("t1", "q"): 1, ("q", "t2"): 1, ("t2", "r"): 1,
            ("r", "t3"): 1, ("t3", "p"): 1, ("t3", "s"): 1,
        },
        initial_marking=Marking.of({"p": 1}),
    )
    nets = [load_artifact(fixtures / "generator.pnml"), round_trip]
    # seeded unbounded nets, ten of them pumped by more than one transition
    rng = random.Random(29)
    wanted = {False: 25, True: 10}
    while any(wanted.values()):
        net = oracles.random_net(rng, max_transitions=6)
        try:
            reachability_graph(net)
        except UnboundedModel as unbounded:
            longer = len(unbounded.sequence) > 1
            if wanted[longer]:
                wanted[longer] -= 1
                nets.append(net)
    for net in nets:
        with pytest.raises(UnboundedModel) as caught:
            reachability_graph(net)
        witness = caught.value
        assert str(witness).startswith(
            f"the net is not bounded: from the reachable marking {witness.ancestor.as_dict()} "
        )
        assert f" {' '.join(witness.sequence)} reaches {witness.cover.as_dict()}," in str(witness)
        assert _reachable_within(net, witness.ancestor, 10_000)
        # each transition is enabled in turn, and the end marking is the
        # reported cover, which strictly covers the ancestor
        tokens = witness.ancestor.as_dict()
        for t in witness.sequence:
            tokens = _fire(net, tokens, t)
            assert tokens is not None, (net, witness.sequence, t)
        assert Marking.of(tokens) == witness.cover
        assert witness.cover != witness.ancestor
        assert all(witness.cover.count(p) >= c for p, c in witness.ancestor.tokens)


def test_stochastic_net_validation():
    with pytest.raises(SilentTransitionUnsupported):
        StochasticPetriNet(
            places=frozenset({"p0", "p1"}),
            transitions={"t": None},
            arcs={("p0", "t"): 1, ("t", "p1"): 1},
            initial_marking=Marking.of({"p0": 1}),
            weights={"t": Fraction(1)},
        )
    with pytest.raises(ValueError):
        weighted(NET, t0=0)
    # weights are finite positive numbers, read exactly by as_integer_ratio
    for weight in (0, -1, Fraction(-1, 2), float("nan"), float("inf"), "1"):
        with pytest.raises(ValueError, match="finite positive"):
            StochasticPetriNet(
                places=NET.places,
                transitions=NET.transitions,
                arcs=NET.arcs,
                initial_marking=NET.initial_marking,
                weights={t: weight if t == "t1" else 1 for t in NET.transitions},
            )
    halves = [
        StochasticPetriNet(
            places=NET.places,
            transitions=NET.transitions,
            arcs=NET.arcs,
            initial_marking=NET.initial_marking,
            weights={t: half if t == "t1" else 1 for t in NET.transitions},
        )
        for half in (0.5, Fraction(1, 2))
    ]
    assert stochastic_rg_to_sdfa(halves[0]) == stochastic_rg_to_sdfa(halves[1])
    assert stochastic_rg_to_sdfa(halves[0]).out_edges(1)[0][2] == Fraction(1, 3)
    with pytest.raises(ValueError):
        StochasticPetriNet(
            places=NET.places,
            transitions=NET.transitions,
            arcs=NET.arcs,
            initial_marking=NET.initial_marking,
            weights={"t0": Fraction(1)},
        )


def test_stochastic_reachability_splits_by_weight():
    sdfa = stochastic_rg_to_sdfa(weighted(NET))
    first = sdfa.out_edges(sdfa.initial)
    assert first == [("a", first[0][1], Fraction(1))]
    after_a = first[0][1]
    assert [(l, p) for l, _, p in sdfa.out_edges(after_a)] == [
        ("b", Fraction(1, 2)),
        ("c", Fraction(1, 2)),
    ]
    for state in sdfa.states:
        total = sdfa.termination.get(state, Fraction(0)) + sum(
            p for _, _, p in sdfa.out_edges(state)
        )
        assert total == 1

    fork = StochasticPetriNet(
        places=frozenset({"p0", "p1", "p2"}),
        transitions={"ta": "a", "tb": "b"},
        arcs={("p0", "ta"): 1, ("ta", "p1"): 1, ("p0", "tb"): 1, ("tb", "p2"): 1},
        initial_marking=Marking.of({"p0": 1}),
        weights={"ta": Fraction(3), "tb": Fraction(1)},
    )
    edges = stochastic_rg_to_sdfa(fork).out_edges(0)
    assert [(l, p) for l, _, p in edges] == [
        ("a", Fraction(3, 4)),
        ("b", Fraction(1, 4)),
    ]


def test_stochastic_rejects_label_clashes():
    clash = StochasticPetriNet(
        places=frozenset({"p0", "p1", "p2"}),
        transitions={"ta": "a", "tb": "a"},
        arcs={("p0", "ta"): 1, ("ta", "p1"): 1, ("p0", "tb"): 1, ("tb", "p2"): 1},
        initial_marking=Marking.of({"p0": 1}),
        weights={"ta": Fraction(1), "tb": Fraction(1)},
    )
    with pytest.raises(NondeterministicStochasticModel):
        stochastic_rg_to_sdfa(clash)


def test_stochastic_final_markings_must_be_the_deadlocks():
    agreeing = weighted(NET)
    declared = StochasticPetriNet(
        places=NET.places,
        transitions=NET.transitions,
        arcs=NET.arcs,
        initial_marking=NET.initial_marking,
        final_markings=frozenset({Marking.of({"p5": 1})}),
        weights=agreeing.weights,
    )
    assert stochastic_rg_to_sdfa(declared) == stochastic_rg_to_sdfa(agreeing)

    disagreeing = StochasticPetriNet(
        places=NET.places,
        transitions=NET.transitions,
        arcs=NET.arcs,
        initial_marking=NET.initial_marking,
        final_markings=frozenset({Marking.of({"p1": 1, "p2": 1})}),
        weights=agreeing.weights,
    )
    with pytest.raises(InvalidFinalMarking):
        stochastic_rg_to_sdfa(disagreeing)
