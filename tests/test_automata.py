import ast
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from entroconf import automata, cli, formats, measures, petri, stochastic
from entroconf.automata import UNBOUNDED, Dfa, EventLog, _dfa, log_to_dfa, product, trim
from entroconf.errors import EmptyConjunction, EmptyLog, StateSpaceExceeded
from entroconf.petri import PetriNet, reachability_graph, rg_to_dfa, stochastic_rg_to_sdfa
from entroconf.stochastic import Sdfa

import oracles
from test_net_parity import earlier_rg_to_dfa, earlier_stochastic_rg_to_sdfa, outcome, rebuilt
from test_properties import bounded_nets


def dfa_for(*words) -> Dfa:
    return log_to_dfa(EventLog.from_traces(words))


def closed(a: Dfa, k) -> Dfa:
    """The closure of a under k deletions per word, as a measure builds it
    from a's trimmed rows, as a Dfa."""
    return _dfa(measures._closure(automata._trim(automata._rows(a)), k), a.alphabet)


def test_event_log_counts_and_alphabet():
    log = EventLog.from_traces([("a", "b"), ("a", "b"), ("c",)])
    assert log.entries == {("a", "b"): 2, ("c",): 1}
    assert log.alphabet == {"a", "b", "c"}
    assert log.total_instances() == 3
    assert log.distinct_traces() == {("a", "b"), ("c",)}


def test_event_log_rejects_bad_entries():
    with pytest.raises(ValueError):
        EventLog({("a",): 0})
    with pytest.raises(ValueError):
        EventLog({("", "a"): 1})


def test_event_log_requires_integer_counts_and_string_labels():
    # a float count, even a whole one, would reach Fraction in log_to_sdfa
    for count in (2.0, 1.5, "1", None):
        with pytest.raises(ValueError, match="^trace count must be a positive integer"):
            EventLog({("a",): count})
    # a label that is not a string would enter log_to_dfa's alphabet
    for trace in (("a", 1), ("a", None), (b"a",)):
        with pytest.raises(ValueError, match="^activity labels must be non-empty strings"):
            EventLog({trace: 1})
    # a string is iterable and its letters are labels, but log_to_dfa sorts
    # the traces and cannot compare a string with a tuple
    for trace in ("ab", frozenset("a")):
        with pytest.raises(ValueError, match="^a trace must be a tuple of labels"):
            EventLog({trace: 1, ("a",): 1})
    # from_traces turns each iterable trace into one
    assert EventLog.from_traces(["ab"]).entries == {("a", "b"): 1}

    class Count(int):
        pass

    # anything operator.index accepts is an integer count
    log = EventLog({("a",): Count(2), ("a", "b"): 1})
    assert log.total_instances() == 3
    assert log_to_dfa(log) == dfa_for(("a",), ("a", "b"))


def test_log_to_dfa_accepts_exactly_the_distinct_traces():
    words = [tuple("abce"), tuple("ace"), tuple("bce"), tuple("bce"),
             tuple("abcdcbe"), tuple("abdcbe"), tuple("aaacbe")]
    dfa = log_to_dfa(EventLog.from_traces(words))
    assert oracles.dfa_language(dfa, 7) == set(map(tuple, set(words)))


def test_log_to_dfa_single_empty_trace():
    dfa = dfa_for(())
    assert dfa.initial in dfa.accepting
    assert not dfa.transitions
    assert dfa.accepts(())


def test_log_to_dfa_prefix_sharing():
    dfa = dfa_for(("a",), ("a", "b"))
    assert len(dfa.states) == 3
    assert oracles.dfa_language(dfa, 3) == {("a",), ("a", "b")}


def test_log_to_dfa_empty_log():
    with pytest.raises(EmptyLog):
        log_to_dfa(EventLog({}))
    with pytest.raises(EmptyLog, match="empty log"):
        automata._traces(EventLog({}))


def test_log_to_dfa_numbers_the_logs_one_trie_as_the_sorted_insert_reference():
    rng = random.Random(2801)
    logs = [oracles.random_log(rng, max_traces=12, max_len=6) for _ in range(300)]
    logs += [
        EventLog.from_traces([()]),
        EventLog.from_traces([("b", "a"), (), ("a",), ("a",), ("b", "a"), ()]),
        EventLog({("c",): 5, ("a", "c"): 2, ("a",): 1}),
    ]
    assert any(() in log.entries for log in logs)
    assert any(max(log.entries.values()) > 1 for log in logs)
    for log in logs:
        built, expected = log_to_dfa(log), oracles.reference_log_to_dfa(log)
        assert built == expected
        assert list(built.transitions.items()) == list(expected.transitions.items())
        # log_to_dfa numbers the log's trie, state for state
        assert len(automata._log_rows(log)) == len(built.states)
        assert log_to_dfa(log) == built
    with pytest.raises(EmptyLog, match="empty log"):
        oracles.reference_log_to_dfa(EventLog({}))


def test_prefix_tree_size_is_counted_without_the_tree():
    rng = random.Random(11)
    logs = [oracles.random_log(rng, max_traces=12, max_len=7) for _ in range(300)]
    logs += [EventLog.from_traces([()]), EventLog.from_traces([(), ("a",), ("a", "b")])]
    assert any(() in log.entries for log in logs)
    for log in logs:
        assert automata._prefix_tree_states(log) == len(log_to_dfa(log).states)


def test_dfa_validation():
    with pytest.raises(ValueError):
        Dfa(frozenset({0}), frozenset(), 1, frozenset(), {})
    with pytest.raises(ValueError):
        Dfa(frozenset({0}), frozenset(), 0, frozenset({1}), {})
    with pytest.raises(ValueError):
        Dfa(frozenset({0}), frozenset("a"), 0, frozenset(), {(0, "a"): 1})


def test_trim_drops_unreachable_accepting_component():
    dfa = Dfa(
        states=frozenset({0, 1, 2}),
        alphabet=frozenset("ab"),
        initial=0,
        accepting=frozenset({1, 2}),
        transitions={(0, "a"): 1, (2, "b"): 2},
    )
    trimmed = trim(dfa)
    assert len(trimmed.states) == 2
    assert oracles.dfa_language(trimmed, 4) == {("a",)}


def test_trim_drops_dead_branch():
    dfa = Dfa(
        states=frozenset({0, 1, 2, 3}),
        alphabet=frozenset("abc"),
        initial=0,
        accepting=frozenset({2}),
        transitions={(0, "a"): 1, (1, "b"): 2, (0, "c"): 3},
    )
    trimmed = trim(dfa)
    assert len(trimmed.states) == 3
    assert oracles.dfa_language(trimmed, 4) == {("a", "b")}


def test_trim_empty_language_yields_canonical_empty_automaton():
    dfa = Dfa(
        states=frozenset({0, 1}),
        alphabet=frozenset("a"),
        initial=0,
        accepting=frozenset(),
        transitions={(0, "a"): 1},
    )
    trimmed = trim(dfa)
    assert trimmed.states == frozenset({0})
    assert not trimmed.accepting
    assert not trimmed.transitions
    assert trimmed.is_empty_language


def _reaches_accepting(dfa: Dfa, state) -> bool:
    frontier = {state}
    seen = set(frontier)
    while frontier:
        current = frontier.pop()
        if current in dfa.accepting:
            return True
        for (src, _), dst in dfa.transitions.items():
            if src == current and dst not in seen:
                seen.add(dst)
                frontier.add(dst)
    return False


def test_trim_preserves_language_on_random_inputs():
    rng = random.Random(11)
    for _ in range(30):
        dfa = oracles.random_dfa(rng)
        trimmed = trim(dfa)
        assert oracles.dfa_language(trimmed, 5) == oracles.dfa_language(dfa, 5)
        # every remaining state lies on some initial-to-accepting path
        assert all(_reaches_accepting(trimmed, s) for s in trimmed.states)


def test_trim_returns_a_canonical_trim_input_itself():
    rng = random.Random(23)
    for _ in range(60):
        trimmed = trim(oracles.random_dfa(rng))
        assert trim(trimmed) is trimmed
        # stored in another order: still canonical, so returned itself
        edges = list(trimmed.transitions.items())
        rng.shuffle(edges)
        shuffled = Dfa(
            trimmed.states, trimmed.alphabet, 0, trimmed.accepting, dict(edges)
        )
        assert trim(shuffled) is shuffled
        # renamed states are never canonical
        name = {s: f"q{s}" for s in trimmed.states}
        renamed = Dfa(
            frozenset(name.values()),
            trimmed.alphabet,
            name[0],
            frozenset(name[s] for s in trimmed.accepting),
            {(name[s], label): name[d] for (s, label), d in trimmed.transitions.items()},
        )
        assert trim(renamed) == trimmed
    # the first new target skips a number, so 1 is discovered after 2
    skipping = Dfa(
        frozenset(range(3)),
        frozenset("ab"),
        0,
        frozenset({1, 2}),
        {(0, "a"): 2, (0, "b"): 1},
    )
    assert trim(skipping).transitions == {(0, "a"): 1, (0, "b"): 2}


def test_product_examples():
    a = dfa_for(("a", "b"), ("a", "c"))
    b = dfa_for(("a", "b"))
    assert oracles.dfa_language(product(a, b), 4) == {("a", "b")}
    assert oracles.dfa_language(product(dfa_for(("a",)), dfa_for(("b",))), 3) == set()


def test_product_state_cap(monkeypatch):
    a = dfa_for(("a", "b"))  # three states, and so is the product with itself
    monkeypatch.setattr(automata, "_MAX_STATES", 3)
    assert len(product(a, a).states) == 3
    monkeypatch.setattr(automata, "_MAX_STATES", 2)
    with pytest.raises(StateSpaceExceeded, match=r"\b2\b"):
        product(a, a)


def test_product_idempotent():
    rng = random.Random(5)
    for _ in range(10):
        dfa = oracles.random_dfa(rng)
        assert oracles.dfa_language(product(dfa, dfa), 6) == oracles.dfa_language(dfa, 6)


def test_product_is_language_intersection():
    rng = random.Random(17)
    for _ in range(25):
        a = oracles.random_dfa(rng)
        b = oracles.random_dfa(rng)
        expected = oracles.dfa_language(a, 6) & oracles.dfa_language(b, 6)
        assert oracles.dfa_language(product(a, b), 6) == expected


# each budget by the words that the closure of {ab} accepts
EXAMPLES = [
    (UNBOUNDED, {(), ("a",), ("b",), ("a", "b")}),
    (1, {("a",), ("b",), ("a", "b")}),
    (0, {("a", "b")}),
]
BUDGETS = [0, 1, 2, UNBOUNDED]


def budget_id(k) -> str:
    return "unbounded" if k is UNBOUNDED else str(k)


@pytest.mark.parametrize("k, words", EXAMPLES, ids=[budget_id(k) for k, _ in EXAMPLES])
def test_closure_examples(k, words):
    assert oracles.dfa_language(closed(dfa_for(("a", "b")), k), 3) == words


@pytest.mark.parametrize("budget", [-1, 1.5])
def test_closure_rejects_bad_budget(budget):
    rows = automata._rows(dfa_for(("a",)))
    log = EventLog.from_traces([("a",)])
    with pytest.raises(ValueError, match="skip budget"):
        measures._closure(rows, budget)
    with pytest.raises(ValueError, match="skip budget"):
        measures.controlled_partial_precision_recall(log, log, budget, 0)


@pytest.mark.parametrize("k", BUDGETS, ids=budget_id)
def test_closure_matches_the_reference_subset_construction(k):
    rng = random.Random(23)
    for _ in range(25):
        dfa = oracles.random_dfa(rng)
        assert closed(dfa, k) == oracles.closed_dfa(dfa, k)


@pytest.mark.parametrize("k", BUDGETS, ids=budget_id)
def test_closure_matches_deletion_oracle(k):
    budget = None if k is UNBOUNDED else k
    rng = random.Random(31)
    for _ in range(15):
        log = oracles.random_log(rng, max_traces=4, max_len=4)
        dfa = log_to_dfa(log)
        expected = oracles.deletion_closure(oracles.dfa_language(dfa, 4), budget)
        assert oracles.dfa_language(closed(dfa, k), 4) == expected
        assert oracles.dfa_language(oracles.closed_dfa(dfa, k), 4) == expected
        if k != 0:
            # a log side is closed from its counted trie, to the same automaton
            trie = measures._language(log, k)
            assert _dfa(measures._closure(trie, k), log.alphabet) == closed(dfa, k)


def test_closure_of_cyclic_automata_matches_deletion_oracle():
    # a word of the closure up to length 4 under k deletions comes from a
    # word of the automaton up to length 4 + k
    rng = random.Random(43)
    cyclic = 0
    for _ in range(30):
        dfa = oracles.random_dfa(rng)
        cyclic += oracles.dfa_language(dfa, 8) != oracles.dfa_language(dfa, 7)
        for k in (1, 2):
            words = oracles.dfa_language(dfa, 4 + k)
            expected = {w for w in oracles.deletion_closure(words, k) if len(w) <= 4}
            assert oracles.dfa_language(closed(dfa, k), 4) == expected
    assert cyclic > 5


def test_closures_compose():
    # deleting up to j symbols and then up to k deletes up to j + k, and
    # a closure under any number of deletions is closed already; the
    # subset constructions differ, so their languages are compared
    rng = random.Random(47)
    for _ in range(15):
        dfa = oracles.random_dfa(rng)
        for j, k in ((1, 1), (1, 2), (2, 1)):
            expected = oracles.dfa_language(closed(dfa, j + k), 5)
            assert oracles.dfa_language(closed(closed(dfa, j), k), 5) == expected
        unbounded = closed(dfa, UNBOUNDED)
        expected = oracles.dfa_language(unbounded, 5)
        for k in (1, UNBOUNDED):
            assert oracles.dfa_language(closed(unbounded, k), 5) == expected


def test_closure_of_a_net_matches_the_reference_subset_construction():
    # a net side is closed from the rows of its language, silent
    # transitions already gone from them
    rng = random.Random(53)
    for net in bounded_nets(rng, 15):
        dfa = rg_to_dfa(reachability_graph(net), net)
        for k in (1, 2, UNBOUNDED):
            rows = measures._closure(measures._language(net, k), k)
            assert _dfa(rows, dfa.alphabet) == oracles.closed_dfa(dfa, k)


def test_closure_monotone_in_budget():
    rng = random.Random(37)
    for _ in range(10):
        dfa = oracles.random_dfa(rng)
        previous = set()
        for budget in (0, 1, 2):
            language = oracles.dfa_language(closed(dfa, budget), 4)
            assert previous <= language
            previous = language
        assert previous <= oracles.dfa_language(closed(dfa, UNBOUNDED), 4)


def fires(rg, net, word) -> bool:
    """Whether some path of rg from its initial marking to an accepting one
    spells word, a silent transition spelling nothing: breadth-first over
    (marking, position) pairs."""
    final = rg.deadlocks() if net.final_markings is None else net.final_markings
    pending = [(rg.initial, 0)]
    seen = set(pending)
    while pending:
        marking, position = pending.pop()
        if position == len(word) and marking in final:
            return True
        for src, t, dst in rg.edges:
            label = net.transitions[t]
            if src != marking:
                continue
            if label is None:
                step = (dst, position)
            elif position < len(word) and label == word[position]:
                step = (dst, position + 1)
            else:
                continue
            if step not in seen:
                seen.add(step)
                pending.append(step)
    return False


def test_net_languages_are_the_words_that_fire():
    rng = random.Random(59)
    for net in bounded_nets(rng, 20):
        # the same net with its first transition silent, too
        first = min(net.transitions)
        quiet = PetriNet(
            net.places,
            {**net.transitions, first: None},
            net.arcs,
            net.initial_marking,
            net.final_markings,
        )
        for side in (net, quiet):
            rg = reachability_graph(side)
            dfa = rg_to_dfa(rg, side)
            for word in oracles.words_up_to({*net.transitions.values()}, 4):
                assert dfa.accepts(word) == fires(rg, side, word), word


def test_the_automata_layer_needs_neither_numpy_nor_scipy(monkeypatch):
    tree = ast.parse(Path(automata.__file__).read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
    assert not {name.split(".")[0] for name in modules} & {"numpy", "scipy"}
    # any import of either fails from here on
    for name in ("numpy", "scipy", "scipy.sparse"):
        monkeypatch.setitem(sys.modules, name, None)
    a, b = dfa_for(("a", "b"), ("b",)), dfa_for(("a",), ("b",), ("b", "a"))
    assert oracles.dfa_language(trim(product(a, b)), 3) == {("b",)}
    assert closed(a, 1) == oracles.closed_dfa(a, 1)


def renamed(a: Dfa, rng) -> Dfa:
    """a with its states permuted and its transitions stored in shuffled order."""
    states = sorted(a.states)
    name = dict(zip(states, rng.sample(states, len(states))))
    edges = list(a.transitions.items())
    rng.shuffle(edges)
    return Dfa(
        states=frozenset(name.values()),
        alphabet=a.alphabet,
        initial=name[a.initial],
        accepting=frozenset(name[s] for s in a.accepting),
        transitions={(name[src], label): name[dst] for (src, label), dst in edges},
    )


def random_graph(rng) -> list[list[int]]:
    """Successor lists of a random graph on 0 to 9 states, with self-loops,
    parallel edges and states with no edge at all."""
    size = rng.randint(0, 9)
    out = [[] for _ in range(size)]
    for _ in range(rng.randint(0, 2 * size)):
        i, j = rng.randrange(size), rng.randrange(size)
        out[i] += [j] * rng.randint(1, 2)
    return out


def test_condensation_matches_the_mutual_reachability_oracle():
    rng = random.Random(1701)
    graphs = [[], [[]], [[0]], [[0, 0]], [[1, 1], [0]]]
    graphs += [random_graph(rng) for _ in range(400)]
    assert sum(any(i in succ for i, succ in enumerate(out)) for out in graphs) > 100
    assert sum(any(succ.count(j) > 1 for succ in out for j in succ) for out in graphs) > 100
    for out in graphs:
        components = automata._condensation(out)
        assert set(map(frozenset, components)) == oracles.strongly_connected_components(out)
        assert all(component == sorted(component) for component in components)
        assert sorted(i for component in components for i in component) == list(range(len(out)))
        # each edge stays in its component or goes to one listed earlier
        place = {i: n for n, component in enumerate(components) for i in component}
        assert all(place[j] <= place[i] for i, succ in enumerate(out) for j in succ)


def test_condensation_of_long_paths_needs_no_recursion():
    n = 200_000
    chain = [[i + 1] for i in range(n - 1)] + [[]]
    assert automata._condensation(chain) == [[i] for i in reversed(range(n))]
    cycle = [[(i + 1) % n] for i in range(n)]
    assert automata._condensation(cycle) == [list(range(n))]


def test_constructions_are_reproducible():
    rng_a = random.Random(99)
    rng_b = random.Random(99)
    first = oracles.random_dfa(rng_a)
    second = oracles.random_dfa(rng_b)
    assert first == second
    assert product(first, first) == product(second, second)
    assert closed(first, 1) == closed(second, 1)
    # constructions number states canonically: renaming the states of an
    # input and reordering its transitions changes nothing
    rng = random.Random(100)
    for _ in range(20):
        original = oracles.random_dfa(rng, max_states=8)
        other = oracles.random_dfa(rng, max_states=8)
        copy = renamed(original, rng)
        assert trim(copy) == trim(original)
        assert product(copy, renamed(other, rng)) == product(original, other)
        for k in (0, 1, UNBOUNDED):
            assert closed(copy, k) == closed(original, k)


def canonically_numbered(a: Dfa) -> bool:
    """Whether a's states are 0..n-1 in breadth_first's order from 0, and
    its transitions are stored in that order, each state's by label."""
    out: dict = {}
    for (src, label), dst in a.transitions.items():
        out.setdefault(src, []).append((label, dst))
    number = oracles.breadth_first(a.initial, lambda s: out.get(s, ()))
    return number == {s: s for s in range(len(a.states))} and list(a.transitions) == sorted(
        a.transitions
    )


def test_each_public_builder_numbers_its_rows_once(monkeypatch):
    """Rows are numbered canonically once, where they are built: _trim
    numbers what it keeps, a log's trie and a net's SDFA are numbered as
    they are read, and the product of canonical operands is canonical as
    it is explored. The records built from them are numbered no further."""
    numbered = []

    def spy(rows, keep):
        numbered.append(len(rows))
        return canonical(rows, keep)

    canonical = automata._canonical
    for module in (automata, stochastic, petri):
        monkeypatch.setattr(module, "_canonical", spy)
    assert not any(hasattr(module, "_canonical") for module in (formats, measures, cli))

    def built(build, *args):
        numbered.clear()
        value = build(*args)
        return value, len(numbered)

    rng = random.Random(3511)
    conjunctions = 0
    for _ in range(40):
        log, other = (oracles.random_log(rng, max_traces=10, max_len=6) for _ in range(2))
        assert built(log_to_dfa, log) == (oracles.reference_log_to_dfa(log), 1)
        assert built(stochastic.log_to_sdfa, log) == (oracles.reference_log_to_sdfa(log), 1)
        sdfas = stochastic.log_to_sdfa(log), stochastic.log_to_sdfa(other)
        try:
            expected = oracles.reference_conjunction(*sdfas)
        except EmptyConjunction:
            with pytest.raises(EmptyConjunction):
                stochastic.conjunction(*sdfas)
        else:
            assert built(stochastic.conjunction, *sdfas) == (expected, 1)
            conjunctions += 1
        a, b = oracles.random_dfa(rng), oracles.random_dfa(rng)
        joint, count = built(product, a, b)
        assert count == 0 and canonically_numbered(joint)
        assert oracles.dfa_language(joint, 5) == oracles.dfa_language(a, 5) & oracles.dfa_language(
            b, 5
        )
        value, count = built(trim, a)
        assert value is a and count == 1
        # a closure numbers only the subsets it keeps
        rows = automata._trim(automata._rows(a))
        closure, count = built(measures._closure, rows, 1)
        closure = _dfa(closure, a.alphabet)
        assert count == 1 and canonically_numbered(closure)
        # a builder's result that is trim is returned by trim itself
        for value in (log_to_dfa(log), closure):
            assert trim(value) is value
    assert conjunctions > 10
    for net in bounded_nets(rng, 15):
        rg = reachability_graph(net)
        language, count = built(rg_to_dfa, rg, net)
        assert (language, count) == (earlier_rg_to_dfa(rg, net), 1)
        assert trim(language) is language
        weights = {t: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for t in net.transitions}
        weighted = rebuilt(net, weights=weights)
        expected = outcome(earlier_stochastic_rg_to_sdfa, weighted)
        assert outcome(stochastic_rg_to_sdfa, weighted) == expected
        if isinstance(expected[0], Sdfa):
            assert built(stochastic_rg_to_sdfa, weighted)[1] == 1
