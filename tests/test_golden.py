"""Every measure's value on seeded inputs, pinned bit for bit.

Each case builds its inputs from a seeded generator here or in oracles and
records float.hex of each value, or the class name of the error raised.
The language measures take every pairing of a Dfa, an EventLog and a
PetriNet; the stochastic ones every pairing of an Sdfa, an EventLog and a
StochasticPetriNet. Cycles are included: random DFAs and nets have them,
and the cyclic SDFAs and nets below are solved by the visit-count system.

Run this file as a script to print the table from the code as it stands.
"""

from __future__ import annotations

import random
from fractions import Fraction

from entroconf import (
    UNBOUNDED,
    Dfa,
    EventLog,
    Marking,
    PetriNet,
    Sdfa,
    StochasticPetriNet,
    conjunction,
    controlled_partial_precision_recall,
    entropic_relevance,
    exact_precision_recall,
    log_to_dfa,
    log_to_sdfa,
    partial_precision_recall,
    reachability_graph,
    rg_to_dfa,
    sdfa_entropy,
    stochastic_precision_recall,
    stochastic_rg_to_sdfa,
    topological_entropy,
)
from entroconf.errors import EntroconfError

import oracles


def _net(rng, silent: bool) -> PetriNet:
    """A random net with at most 600 reachable markings; some labels silent
    when silent is set."""
    while True:
        net = oracles.random_net(rng, max_places=5, max_transitions=5)
        if not oracles.exhaustive_is_bounded(net, 600):
            continue
        if silent:
            labels = {t: (None if rng.random() < 0.3 else x) for t, x in net.transitions.items()}
            net = PetriNet(net.places, labels, net.arcs, net.initial_marking)
        return net


def _loop_net(weights=None) -> PetriNet:
    """i -a-> p -b-> i, p -c-> o: a cycle with an exit."""
    arcs = {("i", "ta"): 1, ("ta", "p"): 1, ("p", "tb"): 1, ("tb", "i"): 1}
    arcs.update({("p", "tc"): 1, ("tc", "o"): 1})
    fields = ({"i", "p", "o"}, {"ta": "a", "tb": "b", "tc": "c"}, arcs, Marking.of({"i": 1}))
    if weights is None:
        return PetriNet(frozenset(fields[0]), *fields[1:])
    return StochasticPetriNet(frozenset(fields[0]), *fields[1:], weights=weights)


def _fork_net(weights=None) -> PetriNet:
    """a, then b in parallel with a choice of c or d, then e."""
    arcs = {("i", "ta"): 1, ("ta", "p"): 1, ("ta", "q"): 1, ("p", "tb"): 1, ("tb", "r"): 1}
    arcs.update({("q", "tc"): 1, ("q", "td"): 1, ("tc", "s"): 1, ("td", "s"): 1})
    arcs.update({("r", "te"): 1, ("s", "te"): 1, ("te", "o"): 1})
    labels = {t: t[1] for t in ("ta", "tb", "tc", "td", "te")}
    fields = (frozenset("ipqrso"), labels, arcs, Marking.of({"i": 1}))
    if weights is None:
        return PetriNet(*fields)
    return StochasticPetriNet(*fields, weights=weights)


def _weighted(rng, net: PetriNet) -> StochasticPetriNet:
    # distinct labels, so that no marking enables two equally labelled transitions
    labels = dict(zip(sorted(net.transitions), rng.sample("abcde", len(net.transitions))))
    weights = {t: Fraction(rng.randint(1, 6), rng.randint(1, 3)) for t in labels}
    return StochasticPetriNet(
        net.places, labels, net.arcs, net.initial_marking, None, weights=weights
    )


def _cyclic_sdfa(rng, size: int) -> Sdfa:
    """An SDFA with edges in both directions; every state stops, so it terminates."""
    transitions, termination = {}, {}
    for state in range(size):
        arcs = [(x, rng.randrange(size), rng.randint(1, 5)) for x in "abc" if rng.random() < 0.6]
        stop = rng.randint(1, 4)
        total = stop + sum(w for _, _, w in arcs)
        termination[state] = Fraction(stop, total)
        for x, dst, w in arcs:
            transitions[state, x] = (dst, Fraction(w, total))
    return Sdfa(frozenset(range(size)), frozenset("abc"), 0, transitions, termination)


def language_sides(rng) -> dict[str, list]:
    return {
        "dfa": [oracles.random_dfa(rng) for _ in range(3)],
        "log": [oracles.random_log(rng, "abc", max_traces=7) for _ in range(3)],
        "net": [_net(rng, False), _net(rng, True), _loop_net(), _fork_net()],
    }


def stochastic_sides(rng) -> dict[str, list]:
    while True:  # a random net with a deadlock to stop in
        net = _weighted(rng, _net(rng, False))
        if oracles.reference_stochastic_rg_to_sdfa(net).termination:
            break
    fork = ["ta", "tb", "tc", "td", "te"]
    nets = [
        net,
        _loop_net({"ta": Fraction(1), "tb": Fraction(3, 2), "tc": Fraction(1, 3)}),
        _fork_net({t: Fraction(n, 2) for n, t in enumerate(fork, 1)}),
    ]
    sdfas = [oracles.random_terminating_sdfa(rng), _cyclic_sdfa(rng, 4), _cyclic_sdfa(rng, 6)]
    # each log draws traces from the models' supports, so that most
    # conjunctions are not empty, and some at random
    models = sdfas + [oracles.reference_stochastic_rg_to_sdfa(net) for net in nets]
    supports = [sorted(oracles.sdfa_trace_distribution(m, 0.9)) for m in models]
    logs = []
    for _ in range(3):
        traces = [rng.choice(support) for support in supports for _ in range(2)]
        traces += oracles.random_log(rng, "abc", max_traces=4, max_len=3).entries
        logs.append(EventLog.from_traces(traces))
    return {"sdfa": sdfas, "log": logs, "net": nets}


def _language_automaton(side) -> Dfa:
    if isinstance(side, Dfa):
        return side
    if isinstance(side, EventLog):
        return log_to_dfa(side)
    return rg_to_dfa(reachability_graph(side), side)


def _stochastic_automaton(side) -> Sdfa:
    if isinstance(side, Sdfa):
        return side
    if isinstance(side, EventLog):
        return log_to_sdfa(side)
    return stochastic_rg_to_sdfa(side)


def _pair(value) -> list[float]:
    return [value.precision, value.recall]


def cases():
    """(name, thunk) per pinned value list."""
    rng = random.Random(3101)
    sides = language_sides(rng)
    for kind, group in sides.items():
        for n, side in enumerate(group):
            yield f"entropy {kind}{n}", lambda s=side: [
                topological_entropy(_language_automaton(s)).bits_per_symbol
            ]
    for rel_kind, rels in sides.items():
        for ret_kind, rets in sides.items():
            for n, (rel, ret) in enumerate(zip(rels, rets[1:] + rets[:1])):
                name = f"{rel_kind}{n}/{ret_kind}"
                yield f"exact {name}", lambda a=rel, b=ret: _pair(exact_precision_recall(a, b))
                yield f"partial {name}", lambda a=rel, b=ret: _pair(partial_precision_recall(a, b))
                for budgets in ((1, 2), (0, UNBOUNDED)):
                    yield f"cpm{budgets} {name}", lambda a=rel, b=ret, k=budgets: _pair(
                        controlled_partial_precision_recall(a, b, *k)
                    )
    sides = stochastic_sides(rng)
    for rel_kind, rels in sides.items():
        for ret_kind, rets in sides.items():
            for n, (rel, ret) in enumerate(zip(rels, rets[1:] + rets[:1])):
                name = f"{rel_kind}{n}/{ret_kind}"
                yield f"stochastic {name}", lambda a=rel, b=ret: _pair(
                    stochastic_precision_recall(a, b)
                )
                yield f"conjunction {name}", lambda a=rel, b=ret: [
                    sdfa_entropy(conjunction(*map(_stochastic_automaton, pair))).bits
                    for pair in ((a, b), (b, a))
                ]
                if rel_kind == "log":
                    yield f"relevance {name}", lambda a=rel, b=ret: [
                        entropic_relevance(a, _stochastic_automaton(b)).bits
                    ]


def outcome(thunk) -> list[str] | str:
    try:
        return [value.hex() for value in thunk()]
    except EntroconfError as error:
        return type(error).__name__


GOLDEN = {
    'entropy dfa0': ['0x1.6e3cf397ec937p+0'],
    'entropy dfa1': ['0x1.cc8bfac87ea39p+0'],
    'entropy dfa2': ['0x1.95c01a39fbd68p+0'],
    'entropy log0': ['0x1.6373ad151ca67p-1'],
    'entropy log1': ['0x0.0p+0'],
    'entropy log2': ['0x0.0p+0'],
    'entropy net0': ['0x0.0p+0'],
    'entropy net1': ['0x0.0p+0'],
    'entropy net2': ['0x1.9f6bf3061bc14p-2'],
    'entropy net3': ['0x1.9999999999998p-2'],
    'exact dfa0/dfa': ['0x1.72110b96dd146p-1', '0x1.ddb96b366f4ecp-1'],
    'partial dfa0/dfa': ['0x1.0000000000000p+0', '0x1.0000000000000p+0'],
    'cpm(1, 2) dfa0/dfa': ['0x1.8a11752f4ade6p-1', '0x1.feeb1d2670aa6p-1'],
    'cpm(0, UNBOUNDED) dfa0/dfa': ['0x1.590a19f316da7p-1', '0x1.0000000000000p+0'],
    'exact dfa1/dfa': ['0x1.aca32b42dcbcbp-1', '0x1.7188d81359ac5p-1'],
    'partial dfa1/dfa': ['0x1.0000000000000p+0', '0x1.0000000000000p+0'],
    'cpm(1, 2) dfa1/dfa': ['0x1.f791b8415f04ep-1', '0x1.ee9595dd24798p-1'],
    'cpm(0, UNBOUNDED) dfa1/dfa': ['0x1.bd6a9a3acb238p-1', '0x1.0000000000000p+0'],
    'exact dfa2/dfa': ['0x1.7394a8970016cp-1', '0x1.4de155c84b2cdp-1'],
    'partial dfa2/dfa': ['0x1.0000000000000p+0', '0x1.0000000000000p+0'],
    'cpm(1, 2) dfa2/dfa': ['0x1.c78c550429e1bp-1', '0x1.c415bd1977742p-1'],
    'cpm(0, UNBOUNDED) dfa2/dfa': ['0x1.8000000000000p-1', '0x1.0000000000000p+0'],
    'exact dfa0/log': ['0x0.0p+0', '0x0.0p+0'],
    'partial dfa0/log': ['0x1.0000000000000p+0', '0x1.d6db7f2d9c5c1p-2'],
    'cpm(1, 2) dfa0/log': ['0x1.165e680169fb8p-1', '0x1.4c8f217efe240p-2'],
    'cpm(0, UNBOUNDED) dfa0/log': ['0x1.165e680169fb8p-1', '0x1.7be019c727615p-2'],
    'exact dfa1/log': ['0x0.0p+0', '0x0.0p+0'],
    'partial dfa1/log': ['0x1.0000000000000p+0', '0x1.0000000000000p-2'],
    'cpm(1, 2) dfa1/log': ['0x1.0000000000000p+0', '0x1.04274ace12461p-2'],
    'cpm(0, UNBOUNDED) dfa1/log': ['0x0.0p+0', '0x0.0p+0'],
    'exact dfa2/log': ['0x1.3c6ef372fe950p-1', '0x1.5555555555555p-2'],
    'partial dfa2/log': ['0x1.0000000000000p+0', '0x1.28837ab209be5p-1'],
    'cpm(1, 2) dfa2/log': ['0x1.dabb953b480fap-1', '0x1.2da53c6c42409p-1'],
    'cpm(0, UNBOUNDED) dfa2/log': ['0x1.659ef75528642p-1', '0x1.1424fbd0ff86fp-1'],
    'exact dfa0/net': ['0x0.0p+0', '0x0.0p+0'],
    'partial dfa0/net': ['0x1.0000000000000p+0', '0x1.9e3779b97f4a7p-2'],
    'cpm(1, 2) dfa0/net': ['0x1.3c6ef372fe950p-1', '0x1.4c8f217efe240p-2'],
    'cpm(0, UNBOUNDED) dfa0/net': ['0x1.3c6ef372fe950p-1', '0x1.7be019c727615p-2'],
    'exact dfa1/net': ['0x0.0p+0', '0x0.0p+0'],
    'partial dfa1/net': ['0x1.0000000000000p+0', '0x1.a6c15a2101598p-1'],
    'cpm(1, 2) dfa1/net': ['0x1.f62dd081d530bp-1', '0x1.66e8e576dc6d8p-1'],
    'cpm(0, UNBOUNDED) dfa1/net': ['0x1.b42b1f8295d1cp-1', '0x1.9dfa523df5143p-1'],
    'exact dfa2/net': ['0x0.0p+0', '0x0.0p+0'],
    'partial dfa2/net': ['0x1.89e8826231feap-1', '0x1.5db3d742c2655p-1'],
    'cpm(1, 2) dfa2/net': ['0x1.5f169bc16d8c6p-1', '0x1.e54856d9caa7bp-2'],
    'cpm(0, UNBOUNDED) dfa2/net': ['0x1.29e04299a8c88p-1', '0x1.6098b1b49bf4dp-1'],
    'exact log0/dfa': ['0x1.6739fa3800fb6p-2', '0x1.8248c19728cc1p-1'],
    'partial log0/dfa': ['0x1.28837ab209be5p-1', '0x1.0000000000000p+0'],
    'cpm(1, 2) log0/dfa': ['0x1.2917f6cea3896p-1', '0x1.0000000000000p+0'],
    'cpm(0, UNBOUNDED) log0/dfa': ['0x1.9e3779b97f4a7p-2', '0x1.0000000000000p+0'],
    'exact log1/dfa': ['0x1.5555555555555p-2', '0x1.0000000000000p+0'],
    'partial log1/dfa': ['0x1.d6db7f2d9c5c1p-2', '0x1.0000000000000p+0'],
    'cpm(1, 2) log1/dfa': ['0x1.5ee40763d769ep-2', '0x1.0000000000000p+0'],
    'cpm(0, UNBOUNDED) log1/dfa': ['0x1.0000000000000p-2', '0x1.0000000000000p+0'],
    'exact log2/dfa': ['0x1.7be019c727615p-2', '0x1.0000000000000p+0'],
    'partial log2/dfa': ['0x1.0000000000000p-2', '0x1.0000000000000p+0'],
    'cpm(1, 2) log2/dfa': ['0x1.1b06cd3ec8369p-2', '0x1.0000000000000p+0'],
    'cpm(0, UNBOUNDED) log2/dfa': ['0x1.0000000000000p-2', '0x1.0000000000000p+0'],
    'exact log0/log': ['0x0.0p+0', '0x0.0p+0'],
    'partial log0/log': ['0x1.c268fed6f57e1p-1', '0x1.659ef75528642p-1'],
    'cpm(1, 2) log0/log': ['0x1.c268fed6f57e1p-1', '0x1.659ef75528642p-1'],
    'cpm(0, UNBOUNDED) log0/log': ['0x1.165e680169fb8p-1', '0x1.3c6ef372fe950p-1'],
    'exact log1/log': ['0x0.0p+0', '0x0.0p+0'],
    'partial log1/log': ['0x1.0000000000000p+0', '0x1.165e680169fb8p-1'],
    'cpm(1, 2) log1/log': ['0x0.0p+0', '0x0.0p+0'],
    'cpm(0, UNBOUNDED) log1/log': ['0x0.0p+0', '0x0.0p+0'],
    'exact log2/log': ['0x1.3c6ef372fe950p-1', '0x1.0000000000000p+0'],
    'partial log2/log': ['0x1.ba0b37b1eda6dp-2', '0x1.0000000000000p+0'],
    'cpm(1, 2) log2/log': ['0x1.ba0b37b1eda6dp-2', '0x1.0000000000000p+0'],
    'cpm(0, UNBOUNDED) log2/log': ['0x1.ba0b37b1eda6dp-2', '0x1.0000000000000p+0'],
    'exact log0/net': ['0x0.0p+0', '0x0.0p+0'],
    'partial log0/net': ['0x1.0000000000000p+0', '0x1.659ef75528642p-1'],
    'cpm(1, 2) log0/net': ['0x1.0000000000000p+0', '0x1.659ef75528642p-1'],
    'cpm(0, UNBOUNDED) log0/net': ['0x1.3c6ef372fe950p-1', '0x1.3c6ef372fe950p-1'],
    'exact log1/net': ['0x0.0p+0', '0x0.0p+0'],
    'partial log1/net': ['0x1.f5a8ade677b14p-2', '0x1.c268fed6f57e1p-1'],
    'cpm(1, 2) log1/net': ['0x1.6c00539b33ae5p-2', '0x1.827f5352054c6p-1'],
    'cpm(0, UNBOUNDED) log1/net': ['0x0.0p+0', '0x0.0p+0'],
    'exact log2/net': ['0x0.0p+0', '0x0.0p+0'],
    'partial log2/net': ['0x1.205c6053aac55p-2', '0x1.0000000000000p+0'],
    'cpm(1, 2) log2/net': ['0x0.0p+0', '0x0.0p+0'],
    'cpm(0, UNBOUNDED) log2/net': ['0x1.205c6053aac55p-2', '0x1.0000000000000p+0'],
    'exact net0/dfa': ['0x1.2644b963b4217p-2', '0x1.0000000000000p+0'],
    'partial net0/dfa': ['0x1.d6db7f2d9c5c1p-2', '0x1.0000000000000p+0'],
    'cpm(1, 2) net0/dfa': ['0x1.53ca8a6d4e00dp-2', '0x1.0000000000000p+0'],
    'cpm(0, UNBOUNDED) net0/dfa': ['0x1.0000000000000p-2', '0x1.0000000000000p+0'],
    'exact net1/dfa': ['0x1.5555555555555p-2', '0x1.0000000000000p+0'],
    'partial net1/dfa': ['0x1.9e3779b97f4a7p-2', '0x1.0000000000000p+0'],
    'cpm(1, 2) net1/dfa': ['0x1.ac958bdc59c07p-2', '0x1.0000000000000p+0'],
    'cpm(0, UNBOUNDED) net1/dfa': ['0x1.0000000000000p-2', '0x1.0000000000000p+0'],
    'exact net2/dfa': ['0x0.0p+0', '0x0.0p+0'],
    'partial net2/dfa': ['0x1.a6c15a2101598p-1', '0x1.0000000000000p+0'],
    'cpm(1, 2) net2/dfa': ['0x1.d05101af8d01ap-2', '0x1.9d4631806a907p-1'],
    'cpm(0, UNBOUNDED) net2/dfa': ['0x1.5320b74f10420p-2', '0x1.0000000000000p+0'],
    'exact net0/log': ['0x0.0p+0', '0x0.0p+0'],
    'partial net0/log': ['0x1.165e680169fb8p-1', '0x1.165e680169fb8p-1'],
    'cpm(1, 2) net0/log': ['0x0.0p+0', '0x0.0p+0'],
    'cpm(0, UNBOUNDED) net0/log': ['0x0.0p+0', '0x0.0p+0'],
    'exact net1/log': ['0x0.0p+0', '0x0.0p+0'],
    'partial net1/log': ['0x1.0000000000000p+0', '0x1.3c6ef372fe950p-1'],
    'cpm(1, 2) net1/log': ['0x1.0000000000000p+0', '0x1.3c6ef372fe950p-1'],
    'cpm(0, UNBOUNDED) net1/log': ['0x0.0p+0', '0x0.0p+0'],
    'exact net2/log': ['0x0.0p+0', '0x0.0p+0'],
    'partial net2/log': ['0x1.dabb953b480fap-1', '0x1.4cf8401c77369p-1'],
    'cpm(1, 2) net2/log': ['0x1.ba0b37b1eda6dp-2', '0x1.f7d3b620c7bbbp-2'],
    'cpm(0, UNBOUNDED) net2/log': ['0x0.0p+0', '0x0.0p+0'],
    'exact net0/net': ['0x0.0p+0', '0x0.0p+0'],
    'partial net0/net': ['0x1.3c6ef372fe950p-1', '0x1.165e680169fb8p-1'],
    'cpm(1, 2) net0/net': ['0x0.0p+0', '0x0.0p+0'],
    'cpm(0, UNBOUNDED) net0/net': ['0x0.0p+0', '0x0.0p+0'],
    'exact net1/net': ['0x0.0p+0', '0x0.0p+0'],
    'partial net1/net': ['0x1.f5a8ade677b14p-2', '0x1.0000000000000p+0'],
    'cpm(1, 2) net1/net': ['0x1.267bb42d6e556p-1', '0x1.0000000000000p+0'],
    'cpm(0, UNBOUNDED) net1/net': ['0x1.360ad119d4eb6p-2', '0x1.0000000000000p+0'],
    'exact net2/net': ['0x0.0p+0', '0x0.0p+0'],
    'partial net2/net': ['0x1.7b252d1b4fd63p-1', '0x1.97a70e84c125ep-1'],
    'cpm(1, 2) net2/net': ['0x1.f01f72226cb79p-2', '0x1.33859c217ac0bp-1'],
    'cpm(0, UNBOUNDED) net2/net': ['0x1.205c6053aac55p-2', '0x1.827f5351b5886p-1'],
    'exact net3/net': ['0x0.0p+0', '0x0.0p+0'],
    'partial net3/net': ['0x1.c268fed6f57e1p-1', '0x1.d293e0bc9bcf9p-2'],
    'cpm(1, 2) net3/net': ['0x0.0p+0', '0x0.0p+0'],
    'cpm(0, UNBOUNDED) net3/net': ['0x0.0p+0', '0x0.0p+0'],
    'stochastic sdfa0/sdfa': ['0x0.0p+0', '0x1.0000000000000p+0'],
    'conjunction sdfa0/sdfa': ['0x0.0p+0', '0x0.0p+0'],
    'stochastic sdfa1/sdfa': ['0x1.34edc7dc4a113p-1', '0x1.93f982eb0cf34p-3'],
    'conjunction sdfa1/sdfa': ['0x1.d62adf1ea257ap-1', '0x1.d62adf1ea257ap-1'],
    'stochastic sdfa2/sdfa': ['0x1.0000000000000p+0', '0x0.0p+0'],
    'conjunction sdfa2/sdfa': ['0x0.0p+0', '0x0.0p+0'],
    'stochastic sdfa0/log': ['0x0.0p+0', '0x1.0000000000000p+0'],
    'conjunction sdfa0/log': ['0x0.0p+0', '0x0.0p+0'],
    'stochastic sdfa1/log': ['0x1.32a01d6165ab5p-1', '0x1.d93c1690edee8p-2'],
    'conjunction sdfa1/log': ['0x1.13635605a9394p+1', '0x1.f601bd646703ep+0'],
    'stochastic sdfa2/log': ['0x1.692b440488c2cp-2', '0x1.506a558d6e5b5p-1'],
    'conjunction sdfa2/log': ['0x1.0000000000000p+0', '0x1.0000000000000p+0'],
    'stochastic sdfa0/net': ['0x0.0p+0', '0x0.0p+0'],
    'conjunction sdfa0/net': 'EmptyConjunction',
    'stochastic sdfa1/net': ['0x0.0p+0', '0x0.0p+0'],
    'conjunction sdfa1/net': 'EmptyConjunction',
    'stochastic sdfa2/net': ['0x1.0000000000000p+0', '0x0.0p+0'],
    'conjunction sdfa2/net': ['0x0.0p+0', '0x0.0p+0'],
    'stochastic log0/sdfa': ['0x1.80fa3e28a710ap-2', '0x1.2b5cd66d0944fp-1'],
    'conjunction log0/sdfa': ['0x1.a861d3cb8536ep+0', '0x1.c00ebcd095f04p+0'],
    'relevance log0/sdfa': ['0x1.285401cca035bp+3'],
    'stochastic log1/sdfa': ['0x0.0p+0', '0x0.0p+0'],
    'conjunction log1/sdfa': ['0x0.0p+0', '0x0.0p+0'],
    'relevance log1/sdfa': ['0x1.475afd5e35ebfp+3'],
    'stochastic log2/sdfa': ['0x1.0000000000000p+0', '0x0.0p+0'],
    'conjunction log2/sdfa': ['0x0.0p+0', '0x0.0p+0'],
    'relevance log2/sdfa': ['0x1.a06ae7bd1002fp+3'],
    'stochastic log0/log': ['0x1.f69cff2b6b09fp-2', '0x1.0bdefdef6a213p-1'],
    'conjunction log0/log': ['0x1.7bbd33e7fad01p+0', '0x1.5333ef4952bd6p+0'],
    'relevance log0/log': ['0x1.9611428c617ddp+3'],
    'stochastic log1/log': ['0x1.e1712564fb724p-2', '0x1.12be09b990dbfp-1'],
    'conjunction log1/log': ['0x1.72d5dad759012p+0', '0x1.8a1bac4bb6186p+0'],
    'relevance log1/log': ['0x1.2f41ec82b9beap+3'],
    'stochastic log2/log': ['0x1.fbac5b03ac8c0p-2', '0x1.c13ff7a12e529p-2'],
    'conjunction log2/log': ['0x1.6fc1730571fadp+0', '0x1.67d7f62a418f9p+0'],
    'relevance log2/log': ['0x1.9d46e772ce537p+3'],
    'stochastic log0/net': ['0x0.0p+0', '0x0.0p+0'],
    'conjunction log0/net': ['0x0.0p+0', '0x0.0p+0'],
    'relevance log0/net': ['0x1.5b4bf8beab3fap+3'],
    'stochastic log1/net': ['0x1.2057d46fefe18p-1', '0x1.7b53daec44c67p-2'],
    'conjunction log1/net': ['0x1.0000000000000p+0', '0x1.f86fd27ebb77ep-1'],
    'relevance log1/net': ['0x1.174b98ceea3b0p+3'],
    'stochastic log2/net': ['0x1.0000000000000p+0', '0x0.0p+0'],
    'conjunction log2/net': ['0x0.0p+0', '0x0.0p+0'],
    'relevance log2/net': ['0x1.a06ae7bd1002fp+3'],
    'stochastic net0/sdfa': ['0x0.0p+0', '0x1.0000000000000p+0'],
    'conjunction net0/sdfa': ['0x0.0p+0', '0x0.0p+0'],
    'stochastic net1/sdfa': ['0x0.0p+0', '0x0.0p+0'],
    'conjunction net1/sdfa': 'EmptyConjunction',
    'stochastic net2/sdfa': ['0x0.0p+0', '0x0.0p+0'],
    'conjunction net2/sdfa': 'EmptyConjunction',
    'stochastic net0/log': ['0x0.0p+0', '0x1.0000000000000p+0'],
    'conjunction net0/log': ['0x0.0p+0', '0x0.0p+0'],
    'stochastic net1/log': ['0x1.38bab2d3f1932p-2', '0x1.745d1745d1744p-3'],
    'conjunction net1/log': ['0x1.5e3a492c8da9ap-1', '0x1.0000000000000p+0'],
    'stochastic net2/log': ['0x1.25022dfe47927p-2', '0x1.0cc116e002263p-1'],
    'conjunction net2/log': ['0x1.d62adf1ea257ap-1', '0x1.9f5fd8a9063e3p-1'],
    'stochastic net0/net': ['0x0.0p+0', '0x0.0p+0'],
    'conjunction net0/net': 'EmptyConjunction',
    'stochastic net1/net': ['0x0.0p+0', '0x0.0p+0'],
    'conjunction net1/net': 'EmptyConjunction',
    'stochastic net2/net': ['0x0.0p+0', '0x0.0p+0'],
    'conjunction net2/net': 'EmptyConjunction',
}


def test_every_measure_keeps_its_pinned_bits():
    found = {name: outcome(thunk) for name, thunk in cases()}
    assert found == GOLDEN


if __name__ == "__main__":
    print("GOLDEN = {")
    for name, thunk in cases():
        print(f"    {name!r}: {outcome(thunk)!r},")
    print("}")
