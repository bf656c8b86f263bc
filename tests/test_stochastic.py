import math
import operator
import random
import sys
from fractions import Fraction

import pytest

from entroconf import automata, measures, stochastic
from entroconf.automata import _MAX_STATES, EventLog
from entroconf.errors import (
    EmptyConjunction,
    EmptyLog,
    EntroconfError,
    InvalidFinalMarking,
    NondeterministicStochasticModel,
    NonTerminatingSdfa,
    NotConverged,
    StateSpaceExceeded,
    UnboundedModel,
)
from entroconf.formats import load_artifact, parse_sdfa
from entroconf.measures import PrecisionRecall
from entroconf.petri import StochasticPetriNet, stochastic_rg_to_sdfa
from entroconf.stochastic import (
    RelevanceValue,
    Sdfa,
    conjunction,
    entropic_relevance,
    log_to_sdfa,
    sdfa_entropy,
    stochastic_precision_recall,
    trace_probability,
)

import oracles


# Loop-with-escape model over a..e: after "a" either "bc" or "cb", then
# repeat via "d" or finish with "e"; the c-first branch may also stop early.
MODEL = Sdfa(
    states=frozenset(range(6)),
    alphabet=frozenset("abcde"),
    initial=0,
    transitions={
        (0, "a"): (1, Fraction(1)),
        (1, "b"): (2, Fraction(1, 2)),
        (1, "c"): (4, Fraction(1, 2)),
        (2, "c"): (3, Fraction(1)),
        (3, "d"): (1, Fraction(1, 2)),
        (3, "e"): (5, Fraction(1, 2)),
        (4, "b"): (3, Fraction(4, 5)),
    },
    termination={4: Fraction(1, 5), 5: Fraction(1)},
)

LOG = EventLog.from_traces(
    [
        tuple("abce"),
        tuple("ace"),
        tuple("bce"),
        tuple("bce"),
        tuple("abcdcbe"),
        tuple("abdcbe"),
        tuple("aaacbe"),
    ]
)


def delta(word) -> Sdfa:
    return log_to_sdfa(EventLog.from_traces([tuple(word)]))


def test_sdfa_validation():
    with pytest.raises(ValueError):
        Sdfa(frozenset({0}), frozenset(), 1, {}, {0: Fraction(1)})
    with pytest.raises(ValueError):
        # half the probability mass is missing
        Sdfa(
            frozenset({0, 1}),
            frozenset({"a"}),
            0,
            {(0, "a"): (1, Fraction(1, 2))},
            {1: Fraction(1)},
        )
    with pytest.raises(ValueError):
        Sdfa(
            frozenset({0}),
            frozenset({"a"}),
            0,
            {(0, "a"): (0, Fraction(3, 2))},
            {},
        )
    with pytest.raises(ValueError):
        Sdfa(
            frozenset({0}),
            frozenset({"a"}),
            0,
            {(0, "a"): (7, Fraction(1))},
            {},
        )

    # out-edges skip zero arcs and sort by label whatever the insertion order
    arcs = {**MODEL.transitions, (1, "a"): (0, Fraction(0))}
    shuffled = list(arcs.items())
    random.Random(7).shuffle(shuffled)
    built = Sdfa(MODEL.states, MODEL.alphabet, 0, dict(shuffled), MODEL.termination)
    assert built.out_edges(1) == [("b", 2, Fraction(1, 2)), ("c", 4, Fraction(1, 2))]
    assert built == Sdfa(MODEL.states, MODEL.alphabet, 0, arcs, MODEL.termination)


@pytest.mark.parametrize("stay", [0.25, 0.75])
def test_float_probabilities_give_exact_binary_rational_results(stay):
    # a one-state loop with float probabilities is the loop of their exact
    # binary fractions, so every value matches bit for bit
    def loop(p, q):
        return Sdfa(frozenset({0}), frozenset("a"), 0, {(0, "a"): (0, p)}, {0: q})

    floats, fractions = loop(stay, 1 - stay), loop(Fraction(stay), Fraction(1 - stay))
    assert sdfa_entropy(floats) == sdfa_entropy(fractions)
    log = EventLog.from_traces(["a", "aa", "", "b"])
    assert entropic_relevance(log, floats) == entropic_relevance(log, fractions)
    assert trace_probability(floats, "aa") == Fraction(stay) ** 2 * Fraction(1 - stay)
    coded = log_to_sdfa(log)
    assert stochastic_precision_recall(coded, floats) == stochastic_precision_recall(
        coded, fractions
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_probabilities_are_outside_the_unit_interval(bad):
    with pytest.raises(ValueError, match="^termination probability outside"):
        Sdfa(frozenset({0}), frozenset(), 0, {}, {0: bad})
    with pytest.raises(ValueError, match="^transition probability outside"):
        Sdfa(frozenset({0}), frozenset("a"), 0, {(0, "a"): (0, bad)}, {0: 1.0})


def test_log_to_sdfa_splits_on_first_symbols():
    coded = log_to_sdfa(EventLog.from_traces([("a",), ("b",)]))
    assert [(l, p) for l, _, p in coded.out_edges(coded.initial)] == [
        ("a", Fraction(1, 2)),
        ("b", Fraction(1, 2)),
    ]

    coded = log_to_sdfa(EventLog.from_traces([("a",)] * 3 + [("a", "b")]))
    (first,) = coded.out_edges(coded.initial)
    assert first[0] == "a"
    assert first[2] == 1
    after_a = first[1]
    assert coded.termination[after_a] == Fraction(3, 4)
    assert [(l, p) for l, _, p in coded.out_edges(after_a)] == [
        ("b", Fraction(1, 4))
    ]

    coded = log_to_sdfa(LOG)
    assert [(l, p) for l, _, p in coded.out_edges(coded.initial)] == [
        ("a", Fraction(5, 7)),
        ("b", Fraction(2, 7)),
    ]


def test_log_to_sdfa_reproduces_empirical_frequencies():
    coded = log_to_sdfa(LOG)
    for trace, count in LOG.entries.items():
        assert trace_probability(coded, trace) == Fraction(count, 7)
    for state in coded.states:
        total = coded.termination.get(state, Fraction(0)) + sum(
            p for _, _, p in coded.out_edges(state)
        )
        assert total == 1


def test_trace_probability_on_reference_model():
    assert trace_probability(MODEL, tuple("abce")) == Fraction(1, 4)
    assert trace_probability(MODEL, tuple("acbe")) == Fraction(1, 5)
    assert trace_probability(MODEL, tuple("ac")) == Fraction(1, 10)
    assert trace_probability(MODEL, tuple("acb")) == 0
    assert trace_probability(MODEL, tuple("ace")) == 0
    assert trace_probability(MODEL, tuple("az")) == 0
    assert trace_probability(MODEL, ()) == 0


def test_entropy_of_simple_distributions():
    point = Sdfa(frozenset({0}), frozenset(), 0, {}, {0: Fraction(1)})
    assert sdfa_entropy(point).bits == 0.0

    pair = log_to_sdfa(EventLog.from_traces([("a",), ("b",)]))
    assert sdfa_entropy(pair).bits == pytest.approx(1.0, abs=1e-12)

    # geometric stopping with a fair coin costs two bits on average
    geometric = Sdfa(
        frozenset({0}),
        frozenset({"a"}),
        0,
        {(0, "a"): (0, Fraction(1, 2))},
        {0: Fraction(1, 2)},
    )
    assert sdfa_entropy(geometric).bits == pytest.approx(2.0, abs=1e-9)

    # a branch whose probability underflows a float adds no entropy
    tiny = Fraction(1, 10**400)
    rare = Sdfa(
        frozenset({0, 1}),
        frozenset({"a"}),
        0,
        {(0, "a"): (1, tiny)},
        {0: 1 - tiny, 1: Fraction(1)},
    )
    assert sdfa_entropy(rare).bits == 0.0


def test_entropy_of_reference_model():
    value = sdfa_entropy(MODEL).bits
    assert value == pytest.approx(oracles.exact_sdfa_entropy(MODEL), abs=1e-9)
    assert value == pytest.approx(4.1108437226248755, abs=1e-6)


def test_entropy_matches_enumeration_on_random_models():
    rng = random.Random(53)
    for _ in range(25):
        model = oracles.random_terminating_sdfa(rng)
        value = sdfa_entropy(model).bits
        assert value == pytest.approx(oracles.enumerate_entropy(model), abs=1e-6)
        assert value == pytest.approx(oracles.exact_sdfa_entropy(model), abs=1e-9)


@pytest.mark.parametrize("eps", ["1e-3", "1e-5", "1e-7", "1e-9", "1e-12"])
def test_entropy_of_a_loop_that_rarely_exits(eps):
    # geometric number of visits, mean 1/eps: H = h(eps) / eps
    exit_ = Fraction(eps)
    loop = Sdfa(
        frozenset({0}), frozenset({"a"}), 0, {(0, "a"): (0, 1 - exit_)}, {0: exit_}
    )
    e = float(exit_)
    h = -(1 - e) * math.log1p(-e) / math.log(2) - e * math.log2(e)
    value = sdfa_entropy(loop)
    assert value.bits == pytest.approx(h / e, rel=1e-9)
    assert value.residual <= 1e-9


def test_entropy_of_a_slow_cycle_matches_exact_counts():
    # a -> b -> c around three states, leaving only after c with probability 1e-6
    exit_ = Fraction(1, 10**6)
    cycle = Sdfa(
        frozenset(range(3)),
        frozenset("abc"),
        0,
        {(0, "a"): (1, Fraction(1)), (1, "b"): (2, Fraction(1)), (2, "c"): (0, 1 - exit_)},
        {2: exit_},
    )
    expected = oracles.exact_sdfa_entropy(cycle)
    value = sdfa_entropy(cycle)
    assert value.bits == pytest.approx(expected, rel=1e-9)
    assert value.residual <= 1e-9


def test_a_cycle_singular_as_floats_fails_on_its_backward_error():
    # an exit of 1e-17 rounds 1 - exit to 1, so (I - P)^T is singular as
    # floats; the sparse LU's counts are nan, and so is the residual
    exit_ = Fraction(1, 10**17)
    cycle = Sdfa(
        frozenset({0, 1}),
        frozenset("ab"),
        0,
        {(0, "a"): (1, Fraction(1)), (1, "b"): (0, 1 - exit_)},
        {1: exit_},
    )
    with pytest.raises(NotConverged, match="backward error nan"):
        sdfa_entropy(cycle)


@pytest.mark.parametrize("exponent", [310, 400])
def test_entropy_of_a_loop_whose_exit_leaves_the_float_range_fails(exponent):
    # an exit of 1e-400 rounds 1 - stay to 0; one of 1e-310 overflows the count
    exit_ = Fraction(1, 10**exponent)
    loop = Sdfa(
        frozenset({0}), frozenset({"a"}), 0, {(0, "a"): (0, 1 - exit_)}, {0: exit_}
    )
    with pytest.raises(NotConverged):
        sdfa_entropy(loop)


@pytest.mark.parametrize("back", [False, True])
@pytest.mark.parametrize("excess", [Fraction(0), Fraction(5, 10**10)])
def test_self_loops_that_sum_to_1_within_the_slack_fail(excess, back):
    # two self-loops whose probabilities sum to 1 or just above it, which
    # the parsed inputs' slack admits next to a tiny exit; with back, state
    # 1 returns to 0, so the system also has a longer cycle
    exit_ = Fraction(2, 10**10)
    end = Fraction(1, 2) if back else Fraction(1)
    transitions = {
        (0, "a"): (0, Fraction(1, 2)),
        (0, "b"): (0, Fraction(1, 2) + excess),
        (0, "c"): (1, exit_),
    }
    if back:
        transitions[1, "d"] = (0, 1 - end)
    loop = Sdfa(frozenset({0, 1}), frozenset("abcd"), 0, transitions, {1: end})
    with pytest.raises(NotConverged, match="^a state's exit probability is not positive"):
        sdfa_entropy(loop)


def random_visit_model(rng, cycles: str) -> Sdfa:
    """Random SDFA in which every state terminates with positive probability.

    Edges go forward in the state order; with cycles "self" they may also
    stay put, and with "long" they may go anywhere.
    """
    size = rng.randint(1, 6)
    lowest = {"none": 1, "self": 0}
    transitions, termination = {}, {}
    for state in range(size):
        low = state + lowest[cycles] if cycles in lowest else 0
        arcs = [
            (label, rng.randrange(low, size), rng.randint(1, 9))
            for label in "abc"
            if low < size and rng.random() < 0.6
        ]
        stop = rng.randint(1, 4)
        total = stop + sum(weight for _, _, weight in arcs)
        termination[state] = Fraction(stop, total)
        for label, dst, weight in arcs:
            transitions[state, label] = (dst, Fraction(weight, total))
    return Sdfa(frozenset(range(size)), frozenset("abc"), 0, transitions, termination)


def test_entropy_matches_exact_counts_on_either_solve(monkeypatch):
    sparse_calls = []
    sparse = stochastic._sparse_counts

    def spy(*args):
        sparse_calls.append(args)
        return sparse(*args)

    monkeypatch.setattr(stochastic, "_sparse_counts", spy)
    rng = random.Random(71)
    took_sparse = {"none": 0, "self": 0, "long": 0}
    for cycles in took_sparse:
        for _ in range(40):
            model = random_visit_model(rng, cycles)
            before = len(sparse_calls)
            value = sdfa_entropy(model)
            took_sparse[cycles] += len(sparse_calls) - before
            assert value.bits == pytest.approx(
                oracles.exact_sdfa_entropy(model), rel=1e-9
            )
            assert value.residual <= 1e-9
    # only a cycle through two or more states needs the sparse LU
    assert took_sparse["none"] == took_sparse["self"] == 0
    assert 0 < took_sparse["long"] < 40


def sparse_entropy(a: Sdfa) -> float:
    diagonal, incoming, local = stochastic._visit_system(a._weights)
    counts = stochastic._sparse_counts(diagonal, incoming)
    assert stochastic._backward_error(diagonal, incoming, counts) <= 1e-9
    return math.fsum(c * h for c, h in zip(counts, local))


def test_entropy_of_a_large_log_matches_the_sparse_solve():
    rng = random.Random(1600)
    log = EventLog.from_traces(
        tuple(rng.choice("abcd") for _ in range(rng.randint(0, 14)))
        for _ in range(1600)
    )
    # one state looping on a, b and c, stopping with probability 1/1000
    loop = Sdfa(
        frozenset({0}),
        frozenset("abc"),
        0,
        {(0, label): (0, Fraction(333, 1000)) for label in "abc"},
        {0: Fraction(1, 1000)},
    )
    coded = log_to_sdfa(log)
    for model in (coded, conjunction(coded, loop), conjunction(loop, coded)):
        assert sdfa_entropy(model).bits == pytest.approx(sparse_entropy(model), rel=1e-12)
    assert sdfa_entropy(loop).bits == pytest.approx(sparse_entropy(loop), rel=1e-12)


def reference_entropy(a: Sdfa) -> tuple[float, float]:
    """Bits and residual of a's entropy, solved from the Fraction-based
    visit system of oracles by the package's own solvers."""
    diagonal, incoming, local = oracles.reference_visit_system(a)
    order = measures._reverse_topological_order([[j for j, _ in edges] for edges in incoming])
    if order is None:
        counts = stochastic._sparse_counts(diagonal, incoming)
    else:
        counts = stochastic._forward_counts(diagonal, incoming, order)
    residual = stochastic._backward_error(diagonal, incoming, counts)
    return math.fsum(map(operator.mul, counts, local)), residual


def hexed(values) -> list[str]:
    return [value.hex() for value in values]


def test_entropy_floats_match_the_fraction_reference(fixtures):
    rng = random.Random(1914)
    # one state looping on a..h with weight 600 each against an exit of 1
    loop = Sdfa(
        frozenset({0}),
        frozenset("abcdefgh"),
        0,
        {(0, label): (0, Fraction(600, 4801)) for label in "abcdefgh"},
        {0: Fraction(1, 4801)},
    )
    # N.spnml's reachability graph has longer cycles, which take the sparse LU
    net = stochastic_rg_to_sdfa(load_artifact(fixtures / "N.spnml"))
    log = log_to_sdfa(load_artifact(fixtures / "E.xes"))
    pairs = [(log, net), (net, log), (net, net)]
    # slack models keep their own totals, which _shaped's renormalized ones are not
    slack = random.Random(1917)
    for _ in range(60):
        a, b = oracles.random_terminating_sdfa(rng), oracles.random_terminating_sdfa(rng)
        coded = log_to_sdfa(oracles.random_log(rng, alphabet="abcdefgh", max_len=12))
        long_a, long_b = random_visit_model(rng, "long"), random_visit_model(rng, "long")
        pairs += [(a, b), (coded, renamed(a, rng)), (coded, loop), (long_a, long_b)]
        pairs += [(slackened(a, slack), slackened(long_b, slack)), (coded, slackened(b, slack))]
    for first, second in pairs:
        for model in (first, second):
            system = stochastic._visit_system(model._weights)
            expected = oracles.reference_visit_system(model)
            assert hexed(system[0]) == hexed(expected[0])
            assert [[(j, p.hex()) for j, p in edges] for edges in system[1]] == [
                [(j, p.hex()) for j, p in edges] for edges in expected[1]
            ]
            assert hexed(system[2]) == hexed(expected[2])
            value = sdfa_entropy(model)
            assert hexed((value.bits, value.residual)) == hexed(reference_entropy(model))
        try:
            shared = [
                reference_entropy(oracles.reference_conjunction(*pair))[0]
                for pair in ((first, second), (second, first))
            ]
        except EmptyConjunction:
            expected = [0.0, 0.0]
        else:
            own = [reference_entropy(model)[0] for model in (first, second)]
            expected = list(map(measures._quotient, shared, own))
        pair = stochastic_precision_recall(first, second)
        assert hexed((pair.recall, pair.precision)) == hexed(expected)


def slackened(a: Sdfa, rng) -> Sdfa:
    """a with each positive termination moved by up to 1e-9, within the
    slack allowed to parsed inputs and below 1, so its state sums are not 1."""
    termination = {
        state: p + Fraction(rng.randint(-1000, 1000 if p < 1 else 0), 10**12) if p else p
        for state, p in a.termination.items()
    }
    return Sdfa(a.states, a.alphabet, a.initial, a.transitions, termination)


def test_an_sdfa_is_numbered_once_whatever_its_names_and_order():
    rng = random.Random(1703)
    models = [random_visit_model(rng, rng.choice(["none", "self", "long"])) for _ in range(40)]
    models += [oracles.random_terminating_sdfa(rng) for _ in range(20)]
    for model in models:
        name = {s: f"q{n}" for s, n in zip(model.states, rng.sample(range(99), len(model.states)))}
        moved = Sdfa(
            frozenset(name.values()),
            model.alphabet,
            name[model.initial],
            {
                (name[src], label): (name[dst], p)
                for (src, label), (dst, p) in reversed(model.transitions.items())
            },
            {name[state]: p for state, p in reversed(model.termination.items())},
        )
        assert repr(moved._weights) == repr(model._weights)


def test_a_logs_sdfa_has_its_prefix_tree_as_support():
    for seed in (1704, 1705):
        rng = random.Random(seed)
        for _ in range(30):
            log = oracles.random_log(rng, alphabet="abcd", max_traces=30, max_len=8)
            tree = automata.log_to_dfa(log)
            assert support(log_to_sdfa(log)) == support(tree)
            assert len(stochastic._log_rows(log)) == len(tree.states)


def test_out_edges_read_the_transitions_of_any_state():
    # state 2 has edges but is unreachable; 0's edge to 3 has probability 0
    model = Sdfa(
        frozenset(range(4)),
        frozenset("abc"),
        0,
        {
            (0, "c"): (3, Fraction(0)),
            (0, "b"): (1, Fraction(1, 2)),
            (2, "b"): (1, Fraction(1, 3)),
            (2, "a"): (0, Fraction(2, 3)),
            (3, "a"): (3, Fraction(1)),
        },
        {0: Fraction(1, 2), 1: Fraction(1)},
    )
    assert model.out_edges(0) == [("b", 1, Fraction(1, 2))]
    assert model.out_edges(2) == [("a", 0, Fraction(2, 3)), ("b", 1, Fraction(1, 3))]
    assert model.out_edges(1) == []
    # each call returns a new list, so a caller's change does not reach the next
    model.out_edges(2).clear()
    assert len(model.out_edges(2)) == 2
    # only 0 and 1 carry probability, so the layout numbers those two
    assert len(model._weights) == 2
    assert trace_probability(model, "b") == Fraction(1, 2)
    assert sdfa_entropy(model).bits == 1.0


def test_mirrored_logs_have_bit_identical_stochastic_entropy():
    # reversing the alphabet reorders every state's edges and renumbers the
    # states; exact per-state sums keep the value independent of both
    rng = random.Random(9)
    mirror = str.maketrans("abcdefgh", "hgfedcba")  # "abc" becomes "hgf"
    for _ in range(30):
        words = [
            "".join(rng.choice("abcdefgh") for _ in range(rng.randint(0, 12)))
            for _ in range(rng.randint(5, 80))
        ]
        mirrored = [word.translate(mirror) for word in words]
        value = sdfa_entropy(log_to_sdfa(EventLog.from_traces(words)))
        assert value == sdfa_entropy(log_to_sdfa(EventLog.from_traces(mirrored)))
    # states with several in-edges, which a log's prefix tree does not have
    for cycles in ("none", "self"):
        for _ in range(40):
            model = random_visit_model(rng, cycles)
            mirrored = Sdfa(
                model.states,
                frozenset("abc".translate(mirror)),
                model.initial,
                {
                    (src, label.translate(mirror)): arc
                    for (src, label), arc in model.transitions.items()
                },
                model.termination,
            )
            assert sdfa_entropy(model) == sdfa_entropy(mirrored)


def test_entropy_rejects_states_that_cannot_stop():
    trap = Sdfa(
        frozenset({0, 1}),
        frozenset({"a", "b"}),
        0,
        {(0, "a"): (1, Fraction(1, 2)), (1, "b"): (1, Fraction(1))},
        {0: Fraction(1, 2)},
    )
    with pytest.raises(NonTerminatingSdfa):
        sdfa_entropy(trap)


# 0.9999999999 is within the 1e-9 slack of 1, so a state with that self-loop
# and nothing else is valid, cannot stop, and has a positive float diagonal
STUCK = [Fraction(1), 0.9999999999]


# a model that cannot terminate is rejected before any solve, so in an
# environment without numpy too: any import of it fails in these tests
@pytest.mark.parametrize("stay", STUCK)
def test_a_stuck_initial_state_cannot_terminate(stay, monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    sink = Sdfa(frozenset({0}), frozenset("a"), 0, {(0, "a"): (0, stay)}, {})
    with pytest.raises(NonTerminatingSdfa, match="^a reachable state has no positive"):
        sdfa_entropy(sink)
    # it stops nowhere, so it shares no trace with a log: 0/0 comes first
    assert stochastic_precision_recall(sink, delta("")) == PrecisionRecall(0.0, 0.0)


@pytest.mark.parametrize(
    "trap",
    [
        # a stuck sink behind a state that can stop
        *({(1, "b"): (1, stay)} for stay in STUCK),
        # a cycle through two states, neither of which can stop
        {(1, "b"): (2, Fraction(1)), (2, "c"): (1, Fraction(1))},
    ],
)
def test_a_trap_behind_a_stopping_state_cannot_terminate(trap, monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    model = Sdfa(
        frozenset({0, *(dst for dst, _ in trap.values())}),
        frozenset("abc"),
        0,
        {(0, "a"): (1, Fraction(1, 2)), **trap},
        {0: Fraction(1, 2)},
    )
    log = EventLog.from_traces(["", "", "a"])
    coded = log_to_sdfa(log)
    for pair in ((model, coded), (coded, model), (model, log), (log, model)):
        # whichever side is printed, the model's own entropy rejects it
        for sides in (("precision", "recall"), ("precision",), ("recall",)):
            with pytest.raises(NonTerminatingSdfa, match="^a reachable state has no positive"):
                stochastic._precision_recall(*pair, sides)
    with pytest.raises(NonTerminatingSdfa):
        sdfa_entropy(model)


def earlier_entropy(weights) -> tuple[float, float]:
    """Bits and residual of weights laid out as Sdfa._weights, as sdfa_entropy
    solved them when trees went through the visit-count system too: in
    index order unless an edge goes back, each row with one in-edge and a
    diagonal of 1.0 as one product, and the residual summed in the forward
    pass. For models that terminate."""
    diagonal, incoming, local = [], [[] for _ in weights], []
    back = False
    for i, (stop, edges, total) in enumerate(weights):
        stay, terms = 0, []
        for j, w in edges.values():
            terms.append(stochastic._plog2p(w, total))
            if j == i:
                stay += w
            else:
                back = back or j < i
                incoming[j].append((i, w / total))
        if stop:
            terms.append(stochastic._plog2p(stop, total))
        diagonal.append((total - stay) / total)
        local.append(math.fsum(terms))
    order = range(len(weights))
    if back:
        order = measures._reverse_topological_order([[j for j, _ in e] for e in incoming])
    if order is None:
        counts = stochastic._sparse_counts(diagonal, incoming)
        residual = stochastic._backward_error(diagonal, incoming, counts)
    else:
        counts = [0.0] * len(weights)
        error = norm = 0.0
        for i in order:
            d, edges = diagonal[i], incoming[i]
            if d == 1.0 and len(edges) == 1:
                ((j, p),) = edges
                counts[i] = counts[j] * p
                norm = max(norm, 1.0 + p)
                continue
            flows = [counts[j] * p for j, p in edges]
            c = counts[i] = (math.fsum(flows) + (i == 0)) / d
            flows += (i == 0, -d * c)
            error = max(error, abs(math.fsum(flows)))
            norm = max(norm, d + math.fsum([p for _, p in edges]))
        residual = error / (norm * max(counts) + 1.0)
    return math.fsum(map(operator.mul, counts, local)), residual


def is_tree(model: Sdfa) -> bool:
    return sum(len(edges) for _, edges, _ in model._weights) == len(model._weights) - 1


# a root that moves on by a, b or c to a leaf that stops: the arcs of the
# exact tree are 1/3, those of the slack one 0.3333333333
THIRDS = """
initial s0
state s0 0
state s1 1
state s2 1
state s3 1
arc s0 s1 a {p}
arc s0 s2 b {p}
arc s0 s3 c {p}
"""


def test_exact_trees_are_walked_and_other_graphs_solved(monkeypatch, fixtures):
    calls = []
    for name in ("_tree_bits", "_visit_system", "_forward_counts", "_sparse_counts"):
        monkeypatch.setattr(
            stochastic,
            name,
            lambda *args, run=getattr(stochastic, name), name=name: calls.append(name)
            or run(*args),
        )
    rng = random.Random(2402)
    loop = Sdfa(
        frozenset({0}),
        frozenset("abce"),
        0,
        {(0, label): (0, Fraction(1, 5)) for label in "abce"},
        {0: Fraction(1, 5)},
    )
    logs = [EventLog.from_traces(["", "ab", "b"]), EventLog.from_traces([""]), LOG]
    logs += [oracles.random_log(rng, alphabet="abce", max_traces=30, max_len=8) for _ in range(30)]
    assert sum(() in log.entries for log in logs) > 10
    trees = [log_to_sdfa(log) for log in logs] + [parse_sdfa(THIRDS.format(p="1/3"))]
    for log in logs:
        for model in (MODEL, loop, random_visit_model(rng, "long")):
            try:
                trees.append(conjunction(log_to_sdfa(log), model))
            except EmptyConjunction:
                pass
    assert len(trees) > 80
    # breadth-first with sorted labels numbers s2 before s1, so s1's edge to
    # s2 goes back, although nothing cycles
    late = Sdfa(
        frozenset({"s0", "s1", "s2"}),
        frozenset("xyz"),
        "s0",
        {
            ("s0", "x"): ("s2", Fraction(1, 2)),
            ("s0", "y"): ("s1", Fraction(1, 2)),
            ("s1", "z"): ("s2", Fraction(1)),
        },
        {"s2": Fraction(1)},
    )
    # a parsed tree within the slack keeps its own totals, so it is solved
    graphs = [parse_sdfa(THIRDS.format(p="0.3333333333")), loop, late, conjunction(loop, MODEL)]
    while len(graphs) < 40:
        model = random_visit_model(rng, rng.choice(["none", "self"]))
        try:
            if len(graphs) % 2:
                model = conjunction(model, random_visit_model(rng, "none"))
        except EmptyConjunction:
            continue
        if not is_tree(model):
            graphs.append(model)
    # none of these needs numpy: a tree is walked and a graph without a
    # longer cycle is solved in pure Python
    with monkeypatch.context() as bare:
        bare.setitem(sys.modules, "numpy", None)
        walked, solved = ["_tree_bits"], ["_visit_system", "_forward_counts"]
        for models, path in ((trees, walked), (graphs, solved)):
            for model in models:
                calls.clear()
                value = sdfa_entropy(model)
                assert calls == path
                assert path == solved or value.residual.hex() == "0x0.0p+0"
                expected = earlier_entropy(model._weights)
                assert hexed((value.bits, value.residual)) == hexed(expected)
    # N.spnml's reachability graph has longer cycles, which take the sparse LU
    net = stochastic_rg_to_sdfa(load_artifact(fixtures / "N.spnml"))
    calls.clear()
    value = sdfa_entropy(net)
    assert calls == ["_visit_system", "_sparse_counts"]
    assert hexed((value.bits, value.residual)) == hexed(earlier_entropy(net._weights))


def test_entropy_matches_the_earlier_kernel_to_the_bit(fixtures):
    rng = random.Random(1801)
    # state 1 stays with probability 10**-20, so its diagonal rounds to 1.0
    # although it has a self-loop
    rounded = Sdfa(
        frozenset({0, 1}),
        frozenset("ab"),
        0,
        {(0, "a"): (1, Fraction(1, 2)), (1, "b"): (1, Fraction(1, 10**20))},
        {0: Fraction(1, 2), 1: Fraction(10**20 - 1, 10**20)},
    )
    # a self-loop on a row with one in-edge: its diagonal is below 1
    loop = Sdfa(
        frozenset({0, 1}),
        frozenset("ab"),
        0,
        {(0, "a"): (1, Fraction(1, 2)), (1, "b"): (1, Fraction(1, 3))},
        {0: Fraction(1, 2), 1: Fraction(2, 3)},
    )
    net = stochastic_rg_to_sdfa(load_artifact(fixtures / "N.spnml"))
    log = log_to_sdfa(load_artifact(fixtures / "E.xes"))
    models = [rounded, loop, net, log, conjunction(log, net), conjunction(net, log)]
    for _ in range(40):
        coded = log_to_sdfa(oracles.random_log(rng, alphabet="abcd", max_traces=30, max_len=9))
        model = random_visit_model(rng, rng.choice(["none", "self", "long"]))
        models += [coded, model, slackened(model, rng)]
        try:
            models += [conjunction(coded, model), conjunction(model, coded)]
        except EmptyConjunction:
            pass
    for model in models:
        value = sdfa_entropy(model)
        assert hexed((value.bits, value.residual)) == hexed(earlier_entropy(model._weights))
    assert stochastic._visit_system(rounded._weights)[0] == [1.0, 1.0]
    # a longer cycle still takes the sparse LU, not the forward pass
    incoming = stochastic._visit_system(net._weights)[1]
    assert measures._reverse_topological_order([[j for j, _ in e] for e in incoming]) is None


def test_a_logs_integer_weights_solve_as_its_sdfa_and_its_shannon_entropy():
    rng = random.Random(1601)
    for _ in range(60):
        log = oracles.random_log(rng, alphabet="abcd", max_traces=40, max_len=9)
        bits = stochastic._tree_bits(stochastic._log_rows(log))
        assert bits.hex() == sdfa_entropy(log_to_sdfa(log)).bits.hex()
        # a log's traces are its outcomes, so H is the entropy of their frequencies
        total = log.total_instances()
        shannon = -math.fsum(n / total * math.log2(n / total) for n in log.entries.values())
        assert bits == pytest.approx(shannon, rel=1e-12, abs=1e-15)


def test_a_log_solves_as_its_sdfa_against_models_that_stop_and_go_on():
    # a net's SDFA stops only where it cannot go on; these models stop with
    # positive weight in every state, so a shared prefix of the log may end
    # in the model but not in the log, and the other way round
    rng = random.Random(2301)
    for _ in range(60):
        log = oracles.random_log(rng, max_traces=12, max_len=5)
        models = [oracles.random_terminating_sdfa(rng), log_to_sdfa(oracles.random_log(rng))]
        for model in models:
            for pair in ((log, model), (model, log)):
                public = stochastic_precision_recall(
                    *(log_to_sdfa(side) if side is log else side for side in pair)
                )
                expected = hexed((public.precision, public.recall))
                assert hexed(stochastic._precision_recall(*pair)) == expected


def test_conjunction_with_itself_preserves_the_distribution():
    conj = conjunction(MODEL, MODEL)
    assert oracles.sdfa_trace_distribution(conj, 0.999) == (
        oracles.sdfa_trace_distribution(MODEL, 0.999)
    )
    assert sdfa_entropy(conj).bits == pytest.approx(
        sdfa_entropy(MODEL).bits, abs=1e-12
    )


def test_conjunction_renormalizes_surviving_mass():
    pair = log_to_sdfa(EventLog.from_traces([("a",), ("b",)]))
    narrowed = conjunction(pair, delta("a"))
    assert trace_probability(narrowed, ("a",)) == 1

    with pytest.raises(EmptyConjunction):
        conjunction(pair, delta("c"))


def test_conjunction_state_cap(monkeypatch):
    pair = log_to_sdfa(EventLog.from_traces([("a",), ("b",)]))  # three states
    monkeypatch.setattr(automata, "_MAX_STATES", 3)
    assert len(conjunction(pair, pair).states) == 3
    monkeypatch.setattr(automata, "_MAX_STATES", 2)
    with pytest.raises(StateSpaceExceeded, match=r"\b2\b"):
        conjunction(pair, pair)


def support(a) -> tuple:
    """The states, the transitions {(state, label): state} and the accepting
    or terminating states of a Dfa or an Sdfa."""
    if isinstance(a, Sdfa):
        edges = {key: dst for key, (dst, _) in a.transitions.items()}
        return a.states, edges, frozenset(a.termination)
    return a.states, a.transitions, a.accepting


def renamed(a: Sdfa, rng) -> Sdfa:
    """a with its states permuted and its transitions stored in shuffled order."""
    states = sorted(a.states)
    name = dict(zip(states, rng.sample(states, len(states))))
    edges = list(a.transitions.items())
    rng.shuffle(edges)
    return Sdfa(
        states=frozenset(name.values()),
        alphabet=a.alphabet,
        initial=name[a.initial],
        transitions={
            (name[src], label): (name[dst], prob) for (src, label), (dst, prob) in edges
        },
        termination={name[s]: p for s, p in a.termination.items()},
    )


def test_conjunction_numbers_states_canonically():
    rng = random.Random(61)
    for _ in range(25):
        rel = oracles.random_terminating_sdfa(rng)
        ret = oracles.random_terminating_sdfa(rng)
        for source, structure in ((rel, ret), (ret, rel)):
            try:
                expected = conjunction(source, structure)
            except EmptyConjunction:
                continue
            assert conjunction(renamed(source, rng), renamed(structure, rng)) == expected


def weighted_random_net(rng) -> StochasticPetriNet:
    """oracles.random_net with random weights; one in five declares the
    initial marking final, which must then be the only deadlock."""
    net = oracles.random_net(rng)
    return StochasticPetriNet(
        places=net.places,
        transitions=net.transitions,
        arcs=net.arcs,
        initial_marking=net.initial_marking,
        final_markings=frozenset({net.initial_marking}) if rng.random() < 0.2 else None,
        weights={t: Fraction(rng.randint(1, 6), rng.randint(1, 3)) for t in net.transitions},
    )


def test_sdfa_constructions_match_their_reference_copies(monkeypatch):
    rng = random.Random(67)
    seen = set()

    def outcome(build, *args):
        """build(*args), or the class of the error it raises."""
        try:
            result = build(*args)
        except EntroconfError as exc:
            seen.add(type(exc))
            return type(exc)
        seen.add(Sdfa)
        # exact fractions, not ints or floats that compare equal to them
        probabilities = [p for _, p in result.transitions.values()]
        assert all(type(p) is Fraction for p in probabilities + [*result.termination.values()])
        return result

    logs = [oracles.random_log(rng, max_traces=8) for _ in range(150)]
    for log in logs:
        assert outcome(log_to_sdfa, log) == outcome(oracles.reference_log_to_sdfa, log)
    models = [log_to_sdfa(log) for log in logs[:60]]
    models += [oracles.random_terminating_sdfa(rng) for _ in range(60)]
    models += [renamed(model, rng) for model in rng.sample(models, 30)]
    for _ in range(300):
        first, second = rng.sample(models, 2)
        with monkeypatch.context() as patch:
            cap = rng.choice([2, 4, _MAX_STATES])
            patch.setattr(automata, "_MAX_STATES", cap)
            for pair in ((first, second), (second, first)):
                assert outcome(conjunction, *pair) == outcome(
                    oracles.reference_conjunction, *pair, cap
                )
    monkeypatch.setattr(automata, "_MAX_STATES", 300)
    for _ in range(200):
        net = weighted_random_net(rng)
        assert outcome(stochastic_rg_to_sdfa, net) == outcome(
            oracles.reference_stochastic_rg_to_sdfa, net
        )
    assert seen == {
        Sdfa,
        EmptyConjunction,
        StateSpaceExceeded,
        UnboundedModel,
        InvalidFinalMarking,
        NondeterministicStochasticModel,
    }


def test_internal_sdfas_are_what_the_constructor_builds_from_their_fields(monkeypatch):
    rng = random.Random(2802)
    models = [oracles.random_terminating_sdfa(rng) for _ in range(40)]
    logs = [oracles.random_log(rng, max_traces=10) for _ in range(80)]
    nets = [weighted_random_net(rng) for _ in range(150)]
    pairs = []
    monkeypatch.setattr(automata, "_MAX_STATES", 300)
    with monkeypatch.context() as patch:

        def forbidden(*args):
            raise AssertionError("an internal builder ran Sdfa.__init__")

        # the builders keep their own rows, and check nothing twice
        patch.setattr(Sdfa, "__init__", forbidden)
        built = {"log": [log_to_sdfa(log) for log in logs], "net": [], "conjunction": []}
        for net in nets:
            try:
                built["net"].append(stochastic_rg_to_sdfa(net))
            except EntroconfError:
                pass
        sources = models + built["log"][:40] + built["net"]
        for _ in range(300):
            pair = rng.sample(sources, 2)
            try:
                built["conjunction"].append(conjunction(*pair))
            except EntroconfError:
                continue
            pairs.append(pair)
    assert all(len(results) >= 20 for results in built.values()), built
    for s in [s for results in built.values() for s in results]:
        rebuilt = Sdfa(s.states, s.alphabet, s.initial, s.transitions, s.termination)
        assert s == rebuilt
        # numbered alike, each state's labels in the same order
        assert [list(out) for _, out, _ in s._weights] == [
            list(out) for _, out, _ in rebuilt._weights
        ]
        # each state's weights are the builder's, over its own total: the
        # same probabilities, so the same floats, as the lcm-scaled ones
        assert probabilities(s._weights) == probabilities(rebuilt._weights)
        assert solved(sdfa_entropy, s) == solved(sdfa_entropy, rebuilt)
    for pair in pairs:
        rebuilt = [
            Sdfa(a.states, a.alphabet, a.initial, a.transitions, a.termination) for a in pair
        ]
        assert conjunction(*pair) == conjunction(*rebuilt)
        assert solved(stochastic_precision_recall, *pair) == solved(
            stochastic_precision_recall, *rebuilt
        )


def probabilities(weights) -> list:
    """Each state's stop and edge probabilities of weights laid out as Sdfa._weights."""
    return [
        (Fraction(stop, total), {x: (j, Fraction(w, total)) for x, (j, w) in out.items()})
        for stop, out, total in weights
    ]


def solved(measure, *args):
    """The float.hex of each float measure(*args) returns, or the class of its error."""
    try:
        return [value.hex() for value in measure(*args)._values()]
    except EntroconfError as exc:
        return type(exc)


def test_stochastic_precision_recall_conventions():
    assert stochastic_precision_recall(MODEL, MODEL) == PrecisionRecall(1.0, 1.0)

    assert stochastic_precision_recall(delta("a"), delta("b")) == (
        PrecisionRecall(0.0, 0.0)
    )

    skewed = log_to_sdfa(EventLog.from_traces([("a",)] * 3 + [("b",)]))
    pair = stochastic_precision_recall(skewed, delta("a"))
    assert pair == PrecisionRecall(1.0, 0.0)

    uniform = log_to_sdfa(EventLog.from_traces([("a",), ("b",)]))
    assert stochastic_precision_recall(uniform, uniform) == PrecisionRecall(1.0, 1.0)


def test_both_conjunctions_of_a_pair_share_one_shape():
    rng = random.Random(83)
    for _ in range(120):
        # cyclic models too, so that the sparse solve is compared as well
        rel, ret = (
            renamed(random_visit_model(rng, rng.choice(["none", "self", "long"])), rng)
            for _ in range(2)
        )
        forward, backward = conjunction(rel, ret), conjunction(ret, rel)
        assert support(forward) == support(backward)
        # stochastic_precision_recall weighs that one shape by each side,
        # bit for bit as the two public conjunctions
        pair = stochastic_precision_recall(rel, ret)
        for value, shared, own in ((pair.recall, forward, rel), (pair.precision, backward, ret)):
            expected = measures._quotient(sdfa_entropy(shared).bits, sdfa_entropy(own).bits)
            assert value.hex() == expected.hex()


def test_stochastic_scores_stay_in_range_on_random_pairs():
    rng = random.Random(59)
    for _ in range(25):
        rel = oracles.random_terminating_sdfa(rng)
        ret = oracles.random_terminating_sdfa(rng)
        pair = stochastic_precision_recall(rel, ret)
        assert 0.0 <= pair.precision <= 1.0 + 1e-9
        assert 0.0 <= pair.recall <= 1.0 + 1e-9


def test_relevance_of_reference_pair():
    value = entropic_relevance(LOG, MODEL)
    assert value.bits == pytest.approx(11.368, abs=5e-4)
    assert value.bits == pytest.approx(11.367542441943405, abs=1e-9)
    two_sevenths = Fraction(2, 7)
    expected_selector = -(
        float(two_sevenths) * math.log2(two_sevenths)
        + float(1 - two_sevenths) * math.log2(1 - two_sevenths)
    )
    assert value.selector_bits == pytest.approx(expected_selector, abs=1e-12)
    assert value.bits == value.selector_bits + value.avg_trace_bits


def test_relevance_background_code():
    # a lone non-fitting trace costs (len + 1) symbols of uniform code
    lone = EventLog.from_traces([tuple("ace")])
    value = entropic_relevance(lone, MODEL)
    assert value == RelevanceValue(8.0, 0.0, 8.0)

    mixed = EventLog.from_traces([tuple("abce"), tuple("ace")])
    value = entropic_relevance(mixed, MODEL)
    expected = 1.0 + (2.0 + 4 * math.log2(5)) / 2
    assert value.bits == pytest.approx(expected, abs=1e-9)


def test_relevance_of_self_coded_log():
    value = entropic_relevance(LOG, log_to_sdfa(LOG))
    assert value.selector_bits == 0.0
    expected = sum(
        count / 7 * -math.log2(count / 7) for count in LOG.entries.values()
    )
    assert value.bits == pytest.approx(expected, abs=1e-9)


def test_relevance_favors_the_empirical_coder():
    rng = random.Random(61)
    floor = entropic_relevance(LOG, log_to_sdfa(LOG)).bits
    rivals = [MODEL] + [
        oracles.random_terminating_sdfa(rng, alphabet="abcde") for _ in range(8)
    ]
    for rival in rivals:
        assert floor <= entropic_relevance(LOG, rival).bits + 1e-9


def test_a_side_of_the_wrong_type_is_a_type_error(log_e, net_n):
    # a plain net has no weights; a path is not read for the caller
    for rel, ret, wrong in ((net_n, log_e, "PetriNet"), (log_e, "L.spnml", "str")):
        with pytest.raises(TypeError) as caught:
            stochastic_precision_recall(rel, ret)
        assert str(caught.value) == f"not an Sdfa, EventLog or StochasticPetriNet: {wrong}"


def test_an_empty_log_has_no_entropic_relevance(sdfa_a):
    with pytest.raises(EmptyLog) as caught:
        entropic_relevance(EventLog({}), sdfa_a)
    assert str(caught.value) == "cannot score an empty log"
