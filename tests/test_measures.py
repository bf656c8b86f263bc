import math
import random
import time

import numpy as np
import pytest
from scipy.sparse import block_diag, csr_matrix, diags

from entroconf.automata import UNBOUNDED, Dfa, EventLog, _dfa, log_to_dfa, product, trim
from entroconf import measures
from entroconf.errors import NotConverged, SemanticError, StateSpaceExceeded
from entroconf.measures import (
    EntropyValue,
    PrecisionRecall,
    controlled_partial_precision_recall,
    exact_precision_recall,
    partial_precision_recall,
    spectral_radius,
    topological_entropy,
)
from entroconf.petri import Marking, PetriNet, reachability_graph, rg_to_dfa

import oracles


def growth_factor(a: Dfa) -> float:
    """_growth_factor of a Dfa as a measure takes one: as its trimmed rows."""
    return measures._growth_factor(measures._language(a, 0))


def dfa_for(*words) -> Dfa:
    return log_to_dfa(EventLog.from_traces(words))


# Reference inputs used throughout: a six-state loop model over a..e and a
# seven-instance log drawn from (mostly) the same process.
MODEL = Dfa(
    states=frozenset(range(6)),
    alphabet=frozenset("abcde"),
    initial=0,
    accepting=frozenset({5}),
    transitions={
        (0, "a"): 1,
        (1, "b"): 2,
        (1, "c"): 3,
        (2, "c"): 4,
        (3, "b"): 4,
        (4, "d"): 1,
        (4, "e"): 5,
    },
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


def test_spectral_radius_small_matrices():
    assert spectral_radius([[3]]) == 3.0
    assert spectral_radius([[0]]) == 0.0
    assert spectral_radius(np.zeros((0, 0))) == 0.0
    assert spectral_radius(np.zeros((3, 3))) == 0.0
    assert spectral_radius([[0, 1], [1, 0]]) == pytest.approx(1.0, abs=1e-9)
    assert spectral_radius([[2, 0], [0, 5]]) == 5.0
    # upper triangular: radius comes from the diagonal, not the coupling
    assert spectral_radius([[1, 1], [0, 1]]) == 1.0


def test_spectral_radius_rejects_bad_input():
    with pytest.raises(ValueError):
        spectral_radius([[1, 2, 3]])
    with pytest.raises(ValueError):
        spectral_radius([[-1]])
    # nan and inf would come back as the radius or stall the iteration
    inf, nan = math.inf, math.nan
    for matrix in ([[nan]], [[inf, 1], [1, 1]], [[1, nan], [1, 1]], [[-inf]]):
        with pytest.raises(ValueError, match="matrix must be finite"):
            spectral_radius(matrix)


def test_spectral_radius_reports_non_convergence(monkeypatch):
    monkeypatch.setattr(measures, "_MAX_ITERATIONS", 1)
    with pytest.raises(NotConverged):
        spectral_radius([[3, 1], [1, 2]])


def test_spectral_radius_matches_dense_eigensolver():
    rng = random.Random(23)
    for _ in range(60):
        size = rng.randint(1, 8)
        matrix = [
            [rng.choice([0, 0, 1, 1, 2, 3]) for _ in range(size)]
            for _ in range(size)
        ]
        expected = oracles.perron_root(matrix)
        got = spectral_radius(matrix)
        assert got == pytest.approx(expected, rel=1e-7, abs=1e-9)
        # sparse input gives the dense-input value, also with every zero
        # stored explicitly: stored zeros must not link states
        assert spectral_radius(csr_matrix(matrix)) == got
        rows, cols = np.indices((size, size)).reshape(2, -1)
        stored = csr_matrix((np.ravel(matrix), (rows, cols)), shape=(size, size))
        assert stored.nnz == size * size
        assert spectral_radius(stored) == got


def test_spectral_radius_of_many_small_components():
    # 80,000 singleton components, each with its own self-loop
    assert spectral_radius(diags(np.arange(80_000.0))) == 79999.0
    rng = random.Random(41)
    for _ in range(20):
        blocks = []
        for _ in range(rng.randint(1, 12)):
            size = rng.choice([1, 1, 2, 3, 4])
            if size == 1:
                block = np.array([[rng.choice([0, 1, 2, 3])]])  # self-loop or none
            else:
                block = np.zeros((size, size))  # a weighted cycle
                for i in range(size):
                    block[i, (i + 1) % size] = rng.randint(1, 3)
                if size > 2 and rng.random() < 0.5:
                    block[0, 2] += 1  # a chord
            blocks.append(block)
        # a node permutation interleaves the components' members
        order = list(range(sum(len(b) for b in blocks)))
        rng.shuffle(order)
        matrix = block_diag(blocks, format="csr")[order][:, order]
        expected = oracles.perron_root(matrix.toarray())
        assert spectral_radius(matrix) == pytest.approx(expected, rel=1e-7, abs=1e-9)


def finite_language_growth(words) -> float:
    """Bisected growth root of a finite language of distinct words.

    Every short-circuit cycle is one word plus its back edge, so the growth
    root is the lambda >= 1 with sum over words w of lambda ** -(|w| + 1) = 1.
    """
    lengths = [len(w) + 1 for w in words]
    lo, hi = 1.0, 9.0  # at most 8 letters plus one back edge leave a state
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if sum(mid**-k for k in lengths) > 1 else (lo, mid)
    return (lo + hi) / 2


def test_entropy_of_a_large_log_matches_its_closed_form():
    # ~23k prefix-tree states
    rng = random.Random(1600)
    words = {
        tuple(rng.choice("abcdefgh") for _ in range(rng.randint(5, 30)))
        for _ in range(1600)
    }
    value = topological_entropy(log_to_dfa(EventLog.from_traces(words)))
    expected = math.log2(finite_language_growth(words))
    assert value.bits_per_symbol == pytest.approx(expected, rel=1e-9)


def test_entropy_of_logs_with_long_traces():
    # the spectral gap of these short-circuit graphs closes like 1/L**2,
    # which a capped power iteration could not reach at L = 800 or 1000
    two_words = log_to_dfa(EventLog.from_traces(["a" * 800, "b" * 800]))
    assert 2 ** topological_entropy(two_words).bits_per_symbol == pytest.approx(
        2 ** (1 / 801), rel=1e-15
    )
    rng = random.Random(1000)
    words = {tuple(rng.choice("abcdefgh") for _ in range(1000)) for _ in range(20)}
    assert len(words) == 20
    value = topological_entropy(log_to_dfa(EventLog.from_traces(words)))
    expected = math.log2(finite_language_growth(words))
    assert value.bits_per_symbol == pytest.approx(expected, rel=1e-9)


def test_growth_factors_of_extreme_shapes_match_closed_forms():
    # long chains of one-successor states: the words a^30000, b^30000 and
    # a^15000 make F(x) = 2 x^30001 + x^15001, whose root in t = -log x is
    # bisected here in closed form
    long_words = log_to_dfa(
        EventLog.from_traces(["a" * 30_000, "b" * 30_000, "a" * 15_000])
    )
    lo, hi = 0.0, 1.0
    for _ in range(200):
        t = (lo + hi) / 2
        lo, hi = (t, hi) if 2 * math.exp(-30_001 * t) + math.exp(-15_001 * t) > 1 else (lo, t)
    assert growth_factor(long_words) == pytest.approx(math.exp(lo), rel=1e-12)

    # no state with a single successor: 3,000 layers of two labels each
    # hold 2^3000 words of length 3000
    layers = 3_000
    ladder = Dfa(
        states=frozenset(range(layers + 1)),
        alphabet=frozenset("ab"),
        initial=0,
        accepting=frozenset({layers}),
        transitions={(i, label): i + 1 for i in range(layers) for label in "ab"},
    )
    assert growth_factor(ladder) == pytest.approx(
        2 ** (layers / (layers + 1)), rel=1e-12
    )

    # 2,000 states feed one chain of 10,000: 2,000 words of length 10,002
    branches, chain = 2_000, 10_000
    head, tail = branches + 1, branches + chain
    transitions = {(0, f"b{i}"): i for i in range(1, branches + 1)}
    transitions.update({(i, "x"): head for i in range(1, branches + 1)})
    transitions.update({(c, "x"): c + 1 for c in range(head, tail + 1)})
    fan_in = Dfa(
        states=frozenset(range(tail + 2)),
        alphabet=frozenset({"x", *(label for _, label in transitions)}),
        initial=0,
        accepting=frozenset({tail + 1}),
        transitions=transitions,
    )
    assert growth_factor(fan_in) == pytest.approx(
        branches ** (1 / (chain + 3)), rel=1e-12
    )


def test_trees_are_solved_as_their_lengths_and_other_finite_languages_by_back_substitution(
    monkeypatch,
):
    calls = []
    for name in ("_words_growth_factor", "_back_substitution"):
        function = getattr(measures, name)
        spied = lambda *args, name=name, function=function: calls.append(name) or function(*args)
        monkeypatch.setattr(measures, name, spied)
    # a and b fire concurrently: the language {ab, ba} as a diamond
    net = PetriNet(
        places=frozenset({"p", "q", "p2", "q2"}),
        transitions={"ta": "a", "tb": "b"},
        arcs={("p", "ta"): 1, ("ta", "p2"): 1, ("q", "tb"): 1, ("tb", "q2"): 1},
        initial_marking=Marking.of({"p": 1, "q": 1}),
    )
    diamond = rg_to_dfa(reachability_graph(net), net)
    tree = dfa_for("ab", "ba", "a", "abc")
    ladder = Dfa(
        states=frozenset(range(4)),
        alphabet=frozenset("ab"),
        initial=0,
        accepting=frozenset({3}),
        transitions={(i, label): i + 1 for i in range(3) for label in "ab"},
    )
    kernels = {
        "_words_growth_factor": [
            tree,
            product(tree, diamond),
            oracles.closed_dfa(tree, 0),
        ],
        # abc less one symbol: ac and bc meet in one subset
        "_back_substitution": [ladder, diamond, oracles.closed_dfa(dfa_for("abc"), 1)],
    }
    for kernel, automata in kernels.items():
        for a in automata:
            assert growth_factor(a) > 1.0
            assert calls == [kernel], a
            calls.clear()


def test_relabeled_logs_have_bit_identical_entropy():
    # reversing the alphabet reorders every state's successors; exact
    # per-state sums keep the value independent of that order
    rng = random.Random(8)
    mirror = str.maketrans("abcdefgh", "hgfedcba")
    for _ in range(30):
        words = {
            "".join(rng.choice("abcdefgh") for _ in range(rng.randint(1, 12)))
            for _ in range(rng.randint(5, 60))
        }
        mirrored = {w.translate(mirror) for w in words}
        assert topological_entropy(dfa_for(*words)) == topological_entropy(
            dfa_for(*mirrored)
        )


def test_trim_copies_only_what_it_changes():
    rng = random.Random(12)
    skipped = renumbered = 0
    for _ in range(500):
        size = rng.randint(1, 8)
        raw = Dfa(
            states=frozenset(range(size)),
            alphabet=frozenset("abc"),
            initial=0,
            accepting=frozenset(s for s in range(size) if rng.random() < 0.4),
            transitions={
                (s, label): rng.randrange(size)
                for s in range(size)
                for label in "abc"
                if rng.random() < 0.5
            },
        )
        trimmed = trim(raw)
        # trim builds no copy of an automaton that is trim and canonical
        assert (trimmed is raw) == (trimmed == raw)
        skipped += trimmed is raw
        renumbered += trimmed is not raw and len(trimmed.states) == size
        # bit for bit, whether the states keep their numbers or not
        assert growth_factor(raw) == growth_factor(trimmed)
    # both kinds occur: kept as is, and trim already but numbered otherwise
    assert skipped and renumbered

    # a log's prefix tree and a closure's rows need no rebuild
    log = dfa_for("abc", "abd", "b", "")
    closure = _dfa(measures._closure(measures._language(log, UNBOUNDED), UNBOUNDED), log.alphabet)
    assert trim(log) is log
    assert trim(closure) is closure


def test_entropy_matches_the_perron_root_on_random_automata():
    rng = random.Random(2024)
    cyclic = 0
    for _ in range(300):
        dfa = oracles.random_dfa(rng)
        expected = oracles.perron_root(oracles.short_circuit_matrix(dfa))
        value = topological_entropy(dfa).bits_per_symbol
        assert 2**value == pytest.approx(expected, rel=1e-9)
        adjacency = np.zeros((len(dfa.states),) * 2)
        for (src, _), dst in dfa.transitions.items():
            adjacency[src, dst] = 1
        cyclic += bool(np.linalg.matrix_power(adjacency, len(dfa.states)).any())
    # both the back-substitution and the power iteration are exercised
    assert 0 < cyclic < 300


def test_a_cyclic_growth_factor_condenses_once(monkeypatch):
    # trim rows reach state 0 again through a back edge from every state,
    # so the condensation that finds a cycle is the only one its solve needs
    calls = []
    for name in ("_condensation", "_perron_root"):
        function = getattr(measures, name)
        spied = lambda arg, name=name, function=function: calls.append(name) or function(arg)
        monkeypatch.setattr(measures, name, spied)
    rng = random.Random(7)
    cyclic = 0
    for _ in range(300):
        rows = measures._language(oracles.random_dfa(rng, max_states=9), 0)
        calls.clear()
        measures._growth_factor(rows)
        if "_perron_root" in calls:
            cyclic += 1
            assert calls == ["_condensation", "_perron_root"]
    assert cyclic > 100


def kernel_blocks(monkeypatch) -> list:
    """Each block that _perron_root is handed from now on, as a dense list."""
    blocks = []
    kernel = measures._perron_root

    def spied(block):
        blocks.append(block.toarray().tolist())
        return kernel(block)

    monkeypatch.setattr(measures, "_perron_root", spied)
    return blocks


# an automaton, the growth factor of its short-circuit graph, and the
# blocks that the power iteration sees: none for a finite language
SHORT_CIRCUITS = {
    "empty word": (dfa_for(()), 1.0, []),
    "universal over two letters": (
        Dfa(frozenset({0}), frozenset("ab"), 0, frozenset({0}), {(0, "a"): 0, (0, "b"): 0}),
        3.0,
        [[[3.0]]],
    ),
    "single word": (dfa_for(("a",)), 1.0, []),
    "empty language": (Dfa(frozenset({0}), frozenset("a"), 0, frozenset(), {}), 0.0, []),
}


@pytest.mark.parametrize("name", SHORT_CIRCUITS)
def test_short_circuit_examples(name, monkeypatch):
    dfa, expected, blocks = SHORT_CIRCUITS[name]
    seen = kernel_blocks(monkeypatch)
    assert growth_factor(dfa) == pytest.approx(expected, rel=1e-12)
    assert seen == blocks


def test_short_circuit_back_edge_per_accepting_state(monkeypatch):
    # the one block of a cyclic growth factor is the whole short-circuit
    # matrix: each edge of the rows, plus one edge to state 0 per accepting state
    seen = kernel_blocks(monkeypatch)
    rng = random.Random(41)
    cyclic = 0
    for _ in range(60):
        rows = measures._language(oracles.random_dfa(rng), 0)
        seen.clear()
        measures._growth_factor(rows)
        if seen:
            cyclic += 1
            a = _dfa(rows, frozenset("abc"))
            assert seen == [oracles.short_circuit_matrix(a)]
    assert cyclic > 10


def test_a_cyclic_growth_factor_is_the_spectral_radius_of_its_short_circuit_matrix():
    rng = random.Random(7)
    cyclic = 0
    for _ in range(300):
        rows = measures._language(oracles.random_dfa(rng, max_states=9), 0)
        if measures._acyclic_order([[j for j, _ in row[1].values()] for row in rows]):
            continue
        cyclic += 1
        matrix = oracles.short_circuit_matrix(_dfa(rows, frozenset("abc")))
        assert measures._growth_factor(rows).hex() == spectral_radius(matrix).hex()
    assert cyclic > 100


def test_a_cyclic_growth_factor_reports_non_convergence(monkeypatch):
    # short-circuit matrix [[2, 1], [1, 1]]: one power step does not settle it
    dfa = Dfa(
        frozenset({0, 1}),
        frozenset("abc"),
        0,
        frozenset({1}),
        {(0, "a"): 0, (0, "b"): 0, (0, "c"): 1, (1, "a"): 1},
    )
    assert growth_factor(dfa) == pytest.approx((3 + math.sqrt(5)) / 2, rel=1e-9)
    monkeypatch.setattr(measures, "_MAX_ITERATIONS", 1)
    with pytest.raises(NotConverged):
        growth_factor(dfa)
    with pytest.raises(NotConverged):
        topological_entropy(dfa)


def test_entropy_of_analytic_languages():
    empty_word = dfa_for(())
    assert topological_entropy(empty_word) == EntropyValue(0.0)

    single = dfa_for(("a",))
    assert topological_entropy(single) == EntropyValue(0.0)

    for k in (1, 2, 3):
        alphabet = "abcde"[:k]
        sigma_star = Dfa(
            states=frozenset({0}),
            alphabet=frozenset(alphabet),
            initial=0,
            accepting=frozenset({0}),
            transitions={(0, symbol): 0 for symbol in alphabet},
        )
        value = topological_entropy(sigma_star)
        assert value.bits_per_symbol == pytest.approx(math.log2(k + 1), abs=1e-9)
        assert not value.empty_language


def test_entropy_of_empty_language():
    rejector = Dfa(
        states=frozenset({0}),
        alphabet=frozenset({"a"}),
        initial=0,
        accepting=frozenset(),
        transitions={},
    )
    value = topological_entropy(rejector)
    assert value == EntropyValue(0.0, empty_language=True)


def test_entropy_value_invariant():
    with pytest.raises(ValueError):
        EntropyValue(0.5, empty_language=True)


def test_entropy_tracks_growth_estimate_on_random_languages():
    rng = random.Random(31)
    for _ in range(25):
        dfa = oracles.random_dfa(rng)
        estimate = oracles.growth_rate_estimate(dfa, steps=200)
        value = topological_entropy(dfa).bits_per_symbol
        assert abs(value - estimate) < 0.05


def test_exact_matching_on_reference_pair():
    pair = exact_precision_recall(log_to_dfa(LOG), MODEL)
    assert pair.precision == pytest.approx(0.776, abs=5e-4)
    assert pair.recall == pytest.approx(0.802, abs=5e-4)
    assert pair.precision == pytest.approx(0.7756971218734926, abs=1e-6)
    assert pair.recall == pytest.approx(0.8020550511042774, abs=1e-6)


def test_controlled_partial_matching_on_reference_pair():
    pair = controlled_partial_precision_recall(log_to_dfa(LOG), MODEL, 1, 2)
    assert pair.precision == pytest.approx(0.833, abs=5e-4)
    assert pair.recall == pytest.approx(0.9841609748795203, abs=1e-6)


def test_zero_budgets_reduce_to_exact_matching():
    rel = log_to_dfa(LOG)
    assert controlled_partial_precision_recall(rel, MODEL, 0, 0) == (
        exact_precision_recall(rel, MODEL)
    )


def test_a_budget_above_the_longest_word_is_lowered_to_it():
    # six states, longest word of 3 symbols: 10**5 deletions delete no more
    # than 3 do, where 100,001 copies of the states would take seconds
    rel = dfa_for(tuple("abc"), tuple("bd"))
    started = time.perf_counter()
    large = controlled_partial_precision_recall(rel, rel, 10**5, 0)
    assert time.perf_counter() - started < 1.0
    assert large == controlled_partial_precision_recall(rel, rel, 3, 0)
    # lowering changes no closure: the same automaton as the full budget's
    rng = random.Random(23)
    inputs = [oracles.random_dfa(rng) for _ in range(40)]
    inputs += [log_to_dfa(oracles.random_log(rng)) for _ in range(40)]
    for a in inputs:
        for k in range(9):
            closed = measures._closure(measures._language(a, k), k)
            assert _dfa(closed, a.alphabet) == oracles.closed_dfa(a, k)


def test_the_closure_reads_its_trim_input_as_built(monkeypatch):
    # _language gives trimmed rows or a log's trie, which is trim already:
    # trimming it again changes no closure, and the closure trims only the
    # subset construction it builds
    rng = random.Random(34)
    sides = [oracles.random_log(rng, max_traces=8, max_len=6) for _ in range(30)]
    sides += [oracles.random_dfa(rng) for _ in range(30)]
    while len(sides) < 90:
        net = oracles.random_net(rng)
        try:
            measures._language(net, 1)
        except SemanticError:  # unbounded, or no marking to accept in
            continue
        sides.append(net)
    cases = []
    for side in sides:
        for k in (1, 2, UNBOUNDED):
            form = measures._language(side, k)
            cases.append((form, k, measures._closure(measures._trim(form), k)))
    trim_rows = measures._trim
    trimmed = []

    def spied(rows):
        trimmed.append(trim_rows(rows))
        return trimmed[-1]

    monkeypatch.setattr(measures, "_trim", spied)
    for form, k, expected in cases:
        trimmed.clear()
        closed = measures._closure(form, k)
        assert closed == expected
        assert len(trimmed) == 1 and trimmed[0] is closed


def test_a_budget_on_a_cyclic_automaton_is_not_lowered():
    # MODEL's loop makes every budget reachable: 200,001 copies of its 6
    # states exceed the cap
    with pytest.raises(StateSpaceExceeded, match="budget of 200000 on 6 states"):
        controlled_partial_precision_recall(log_to_dfa(LOG), MODEL, 0, 200_000)


def test_partial_matching_is_controlled_matching_without_budgets():
    rng = random.Random(19)
    for _ in range(20):
        rel, ret = oracles.random_dfa(rng), oracles.random_dfa(rng)
        assert partial_precision_recall(rel, ret) == (
            controlled_partial_precision_recall(rel, ret, UNBOUNDED, UNBOUNDED)
        )


def test_identical_inputs_score_one():
    rng = random.Random(5)
    for _ in range(10):
        dfa = oracles.random_dfa(rng)
        assert exact_precision_recall(dfa, dfa) == PrecisionRecall(1.0, 1.0)
        assert partial_precision_recall(dfa, dfa) == PrecisionRecall(1.0, 1.0)


def test_precision_and_recall_swap_with_arguments():
    rng = random.Random(7)
    for _ in range(20):
        a = oracles.random_dfa(rng)
        b = oracles.random_dfa(rng)
        forward = exact_precision_recall(a, b)
        backward = exact_precision_recall(b, a)
        assert forward.precision == backward.recall
        assert forward.recall == backward.precision


def test_degenerate_language_conventions():
    nothing = Dfa(
        states=frozenset({0}),
        alphabet=frozenset({"a"}),
        initial=0,
        accepting=frozenset(),
        transitions={},
    )
    disjoint = exact_precision_recall(dfa_for(("a",)), dfa_for(("b",)))
    assert disjoint == PrecisionRecall(0.0, 0.0)

    against_empty = exact_precision_recall(dfa_for(("a",)), nothing)
    assert against_empty == PrecisionRecall(1.0, 0.0)

    both_empty = exact_precision_recall(nothing, nothing)
    assert both_empty == PrecisionRecall(1.0, 1.0)


def test_recall_hits_one_when_log_is_included():
    rng = random.Random(13)
    for _ in range(15):
        model = oracles.random_dfa(rng)
        other = oracles.random_dfa(rng)
        included = product(model, other)
        if included.is_empty_language:
            continue
        pair = exact_precision_recall(included, model)
        assert pair.recall >= 1.0 - 1e-9
        assert pair.recall <= 1.0


def test_adding_traces_never_lowers_log_entropy():
    rng = random.Random(17)
    for _ in range(15):
        log = oracles.random_log(rng)
        extra = oracles.random_log(rng)
        merged = EventLog.from_traces(
            list(log.distinct_traces()) + list(extra.distinct_traces())
        )
        before = topological_entropy(log_to_dfa(log)).bits_per_symbol
        after = topological_entropy(log_to_dfa(merged)).bits_per_symbol
        assert after >= before - 1e-9


def test_partial_matching_on_crossed_pair():
    # {ab} and {ba} disagree exactly, but their deletion closures share
    # {empty, a, b}; both directions land strictly between 0 and 1.
    rel = dfa_for(("a", "b"))
    ret = dfa_for(("b", "a"))
    closed_rel = oracles.closed_dfa(rel, UNBOUNDED)
    closed_ret = oracles.closed_dfa(ret, UNBOUNDED)
    shared = oracles.perron_root(
        oracles.short_circuit_matrix(trim(product(closed_rel, closed_ret)))
    )
    expected = shared / oracles.perron_root(
        oracles.short_circuit_matrix(trim(closed_rel))
    )
    pair = partial_precision_recall(rel, ret)
    assert pair.precision == pytest.approx(expected, abs=1e-8)
    assert pair.recall == pair.precision
    assert 0.0 < pair.precision < 1.0


def _net_languages(rng, count):
    """Language automata of bounded random nets, each with its words up to
    length 5, which logs are drawn from so that they share some."""
    nets = []
    while len(nets) < count:
        net = oracles.random_net(rng)
        try:
            dfa = rg_to_dfa(reachability_graph(net), net)
        except SemanticError:  # unbounded, or no marking to accept in
            continue
        nets.append((dfa, sorted(oracles.dfa_language(dfa, 5))))
    return nets


def _log_near(rng, words):
    """A random log over a..e, with up to three traces taken from words."""
    log = oracles.random_log(rng, alphabet="abcde", max_traces=8, max_len=6)
    taken = rng.sample(words, k=min(len(words), rng.randint(0, 3)))
    return EventLog.from_traces([*log.entries, *taken])


def test_a_log_as_its_traces_agrees_with_its_prefix_tree():
    # exact matching takes a log as its set of distinct traces: against the
    # prefix-tree path, 2,100 pairs of log/log, log/net and net/log, both
    # printed sides, agree bit for bit and swap bit for bit, as a tree and
    # its product with any automaton are solved as their words' lengths
    rng = random.Random(7)
    nets = _net_languages(rng, 30)
    logs = [_log_near(rng, rng.choice(nets)[1]) for _ in range(60)]
    pairs = []
    for _ in range(700):
        dfa, words = rng.choice(nets)
        log = _log_near(rng, words)
        other = _log_near(rng, sorted(rng.choice(logs).entries))
        pairs += [(log, other), (log, dfa), (dfa, log)]
    both = ("precision", "recall")
    for rel, ret in pairs:
        forms = [measures._language(a, 0) for a in (rel, ret)]
        trees = [
            measures._language(log_to_dfa(a) if isinstance(a, EventLog) else a, 0)
            for a in (rel, ret)
        ]
        new = measures._matching(*forms, (0, 0), both)
        expected = measures._matching(*trees, (0, 0), both)
        assert list(map(float.hex, new)) == list(map(float.hex, expected)), (rel, ret)
        assert measures._matching(*forms[::-1], (0, 0), both) == new[::-1]
        if isinstance(rel, EventLog):
            assert measures._matching(forms[0], forms[0], (0, 0), both) == [1.0, 1.0]


def test_long_traces_as_sets_match_closed_forms():
    a, b, c = ("a",) * 800, ("b",) * 800, ("c",) * 800
    # no shared trace: both quotients are 0
    assert measures._matching({a}, {b}, (0, 0)) == [0.0, 0.0]
    # one shared trace of two on each side: 1 against 2 ** (1 / 801)
    shared = 2 ** (-1 / 801)
    for value in measures._matching({a, b}, {b, c}, (0, 0)):
        assert value == pytest.approx(shared, rel=1e-12)

    # 20 distinct words of length 1,000 solve 20 x ** 1001 = 1, and half of
    # them 10 x ** 1001 = 1
    rng = random.Random(3)
    words = {tuple(rng.choice("ab") for _ in range(1_000)) for _ in range(20)}
    assert len(words) == 20
    assert measures._growth_factor(words) == pytest.approx(20 ** (1 / 1001), rel=1e-12)
    half = set(sorted(words)[:10])
    precision, recall = measures._matching(words, half, (0, 0))
    assert precision == 1.0
    assert recall == pytest.approx(0.5 ** (1 / 1001), rel=1e-12)
    # mixed lengths: the root of x ** 2 + x ** 6 + x ** 401 + x ** 1001 = 1,
    # bisected here
    mixed = {("a",) * n for n in (1, 5, 400, 1_000)}
    lo, hi = 0.0, 1.0
    for _ in range(200):
        x = (lo + hi) / 2
        lo, hi = (lo, x) if sum(x ** (n + 1) for n in (1, 5, 400, 1_000)) > 1 else (x, hi)
    assert measures._growth_factor(mixed) == pytest.approx(1 / lo, rel=1e-12)


def test_growth_factor_of_small_sets_of_words():
    assert measures._growth_factor(set()) == 0.0
    assert measures._growth_factor({()}) == 1.0
    assert measures._growth_factor({tuple("abc")}) == 1.0
    # the empty word and a: x + x ** 2 = 1 at the golden ratio's inverse
    assert measures._growth_factor({(), ("a",)}) == pytest.approx((1 + 5**0.5) / 2, rel=1e-15)


@pytest.mark.parametrize(
    "measure, budgets",
    [(exact_precision_recall, ()), (partial_precision_recall, ()),
     (controlled_partial_precision_recall, (1, 1))],
)
def test_a_side_of_the_wrong_type_is_a_type_error(measure, budgets, log_e, net_n):
    # a path is not read for the caller
    for rel, ret in (("E.xes", log_e), (net_n, 3)):
        wrong = type(rel if isinstance(rel, str) else ret).__name__
        with pytest.raises(TypeError) as caught:
            measure(rel, ret, *budgets)
        assert str(caught.value) == f"not a Dfa, EventLog or PetriNet: {wrong}"
