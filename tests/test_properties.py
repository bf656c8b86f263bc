"""The paper's properties of its measures, as seeded checks on the command
line's paths and on the public functions.

The language measures (Polyvyanyy et al., "Monotone Precision and Recall
Measures for Comparing Executions and Specifications of Dynamic Systems",
ACM TOSEM 2020) are growth quotients of a shared language against each
side's own. The shared language grows while the denominator stays fixed,
so with rel fixed recall never falls as ret's language grows, and with ret
fixed precision never falls as rel's grows. Deletion closures keep
inclusion, so partial matching and controlled partial matching with fixed
budgets are monotone too. Every family's values lie in [0, 1], identical
inputs score exactly 1.0, and swapping rel and ret (and their budgets)
swaps precision and recall bit for bit; budgets of 0 give exact matching.

The stochastic measures are entropy quotients of a conjunction, which is
renormalized per state, so they are not monotone; they keep the range,
identity and swap.
"""

import math
import random
from fractions import Fraction

from entroconf import cli
from entroconf.automata import Dfa, EventLog, log_to_dfa
from entroconf.cli import parse_args
from entroconf.errors import SemanticError
from entroconf.measures import (
    PrecisionRecall,
    controlled_partial_precision_recall,
    exact_precision_recall,
    partial_precision_recall,
)
from entroconf.petri import (
    StochasticPetriNet,
    reachability_graph,
    rg_to_dfa,
    stochastic_rg_to_sdfa,
)
from entroconf.stochastic import log_to_sdfa, stochastic_precision_recall

import oracles

# each language family by its flag stem, with the (rel, ret) deletion
# budgets of controlled partial matching
FAMILIES = [("em", None), ("pm", None), ("cpm", (0, 0)), ("cpm", (1, 2)), ("cpm", (2, 0))]


def at_most(low: float, high: float) -> bool:
    """low <= high, allowing a few ulps of rounding in either value."""
    return low <= high + 4 * math.ulp(max(low, high))


def nested_logs(rng, words) -> tuple[EventLog, EventLog]:
    """A log L and a log L' whose traces include L's, each drawing some
    traces from words, so that they share traces with the other side, and
    some at random."""
    pool = sorted(words)

    def draw() -> list:
        traces = [rng.choice(pool) for _ in range(rng.randint(1, 4))] if pool else []
        return traces + list(oracles.random_log(rng, "abcde", max_traces=3, max_len=4).entries)

    small = draw()
    return EventLog.from_traces(small), EventLog.from_traces(small + draw())


def language_dfa(side) -> Dfa:
    """A log's or a net's language automaton, built by the public functions."""
    if isinstance(side, EventLog):
        return log_to_dfa(side)
    return rg_to_dfa(reachability_graph(side), side)


def bounded_nets(rng, count: int) -> list:
    """Random nets whose reachability graph is finite and accepts something."""
    nets = []
    while len(nets) < count:
        net = oracles.random_net(rng)
        try:
            language_dfa(net)
        except SemanticError:  # unbounded, or no marking to accept in
            continue
        nets.append(net)
    return nets


def language_values(family: str, budgets, rel, ret) -> dict[str, list[float]]:
    """(precision, recall) of rel against ret, as the command line prints
    each and as the public function returns both, given each side as its
    automaton and as the log or net it is."""
    options = ["-rel", "r", "-ret", "t"]
    if budgets is not None:
        options += ["-srel", str(budgets[0]), "-sret", str(budgets[1])]
    printed = [
        cli._evaluate(parse_args([f"-{family}{side}", *options]), rel, ret)[0] for side in "pr"
    ]
    values = {"cli": printed}
    automata = language_dfa(rel), language_dfa(ret)
    for path, sides in (("public", automata), ("raw", (rel, ret))):
        if family == "em":
            public = exact_precision_recall(*sides)
        elif family == "pm":
            public = partial_precision_recall(*sides)
        else:
            public = controlled_partial_precision_recall(*sides, *budgets)
        values[path] = [public.precision, public.recall]
    return values


def swapped(budgets):
    return None if budgets is None else budgets[::-1]


def test_language_measures_keep_the_papers_properties():
    rng = random.Random(2403)
    nets = bounded_nets(rng, 10)
    samples = []
    for net in nets:
        # L ⊆ L', against a net and against a third log
        log = oracles.random_log(rng, "abc")
        words = oracles.dfa_language(language_dfa(net), 5)
        samples.append((net, *nested_logs(rng, words)))
        samples.append((log, *nested_logs(rng, log.entries)))
    rose = set()
    for family, budgets in FAMILIES:
        for fixed, *grown in samples:
            # each grown log as ret with rel fixed, then as rel with ret fixed
            as_ret = [language_values(family, budgets, fixed, log) for log in grown]
            as_rel = [language_values(family, swapped(budgets), log, fixed) for log in grown]
            for forward, backward in zip(as_ret, as_rel):
                # a log or net passed directly takes the command line's path
                for values in (forward, backward):
                    assert [v.hex() for v in values["raw"]] == [v.hex() for v in values["cli"]]
            for path in ("cli", "public", "raw"):
                for forward, backward in zip(as_ret, as_rel):
                    assert all(0.0 <= value <= 1.0 for value in forward[path] + backward[path])
                    # swapping the inputs and their budgets swaps the quotients
                    backward_hex = [v.hex() for v in reversed(backward[path])]
                    assert [v.hex() for v in forward[path]] == backward_hex
                # recall with rel fixed and precision with ret fixed never fall
                assert at_most(as_ret[0][path][1], as_ret[1][path][1])
                assert at_most(as_rel[0][path][0], as_rel[1][path][0])
                rose.add(as_ret[0][path][1] < as_ret[1][path][1])
                rose.add(as_rel[0][path][0] < as_rel[1][path][0])
            if budgets == (0, 0):
                for log, forward, backward in zip(grown, as_ret, as_rel):
                    assert forward["cli"] == language_values("em", None, fixed, log)["cli"]
                    assert backward["cli"] == language_values("em", None, log, fixed)["cli"]
    # some quotient strictly rose, so the check is not vacuous
    assert rose == {False, True}
    # identical inputs under equal budgets; unequal ones close each side differently
    for family, budgets in FAMILIES[:3]:
        for artifact in nets + [small for _, small, _ in samples]:
            values = language_values(family, budgets, artifact, artifact)
            assert values["cli"] == values["public"] == values["raw"] == [1.0, 1.0]


def weighted(net) -> StochasticPetriNet:
    rng = random.Random(len(net.transitions))
    return StochasticPetriNet(
        places=net.places,
        transitions=net.transitions,
        arcs=net.arcs,
        initial_marking=net.initial_marking,
        final_markings=None,
        weights={t: Fraction(rng.randint(1, 6), rng.randint(1, 3)) for t in net.transitions},
    )


def test_stochastic_measures_keep_range_identity_and_swap():
    rng = random.Random(2404)
    nets = []
    for net in map(weighted, bounded_nets(rng, 12)):
        try:
            stochastic_rg_to_sdfa(net)
        except SemanticError:  # two enabled transitions share a label
            continue
        nets.append(net)
    assert len(nets) >= 6
    logs = [
        log
        for net in nets
        for log in nested_logs(rng, oracles.sdfa_language(stochastic_rg_to_sdfa(net), 5))
    ]

    def automaton(artifact):
        if isinstance(artifact, EventLog):
            return log_to_sdfa(artifact)
        return stochastic_rg_to_sdfa(artifact)

    sides = nets + logs
    pairs = [(rng.choice(sides), rng.choice(sides)) for _ in range(80)]
    pairs += [(small, large) for small, large in zip(logs[::2], logs[1::2])]
    pairs += [(log, net) for log, net in zip(logs, nets)]
    seen = set()
    for rel, ret in pairs:
        values = {}
        for forward, (first, second) in ((True, (rel, ret)), (False, (ret, rel))):
            for side in "pr":
                cfg = parse_args([f"-s{side}", "-rel", "r", "-ret", "t"])
                values[forward, side] = cli._evaluate(cfg, first, second)[0]
            public = stochastic_precision_recall(automaton(first), automaton(second))
            values[forward, "public"] = (public.precision, public.recall)
            raw = stochastic_precision_recall(first, second)
            values[forward, "raw"] = (raw.precision, raw.recall)
        for forward in (True, False):
            printed = (values[forward, "p"], values[forward, "r"])
            assert all(0.0 <= value <= 1.0 for value in printed)
            for path in ("public", "raw"):
                assert [v.hex() for v in printed] == [v.hex() for v in values[forward, path]]
            seen.update(printed)
        # swapping rel and ret swaps the quotients bit for bit
        assert values[True, "p"].hex() == values[False, "r"].hex()
        assert values[True, "r"].hex() == values[False, "p"].hex()
    assert len(seen - {0.0, 1.0}) > 10
    for artifact in sides:
        for side in "pr":
            cfg = parse_args([f"-s{side}", "-rel", "r", "-ret", "t"])
            assert cli._evaluate(cfg, artifact, artifact)[0] == 1.0
        pair = stochastic_precision_recall(automaton(artifact), automaton(artifact))
        assert pair == stochastic_precision_recall(artifact, artifact) == PrecisionRecall(1.0, 1.0)
