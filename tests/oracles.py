"""Independent brute-force oracles the tests compare the package against.

Everything here trades efficiency for obviousness: languages are
enumerated word by word, growth rates are counted from explicit walks,
entropies are summed over concrete traces, and Petri nets are explored
exhaustively. None of it calls back into the package's numerics.
"""

from __future__ import annotations

import heapq
import itertools
import math
import xml.etree.ElementTree as ET
from collections import deque
from fractions import Fraction

import numpy as np

from entroconf.automata import UNBOUNDED, Dfa, EventLog
from entroconf.errors import (
    EmptyConjunction,
    EmptyLog,
    InvalidFinalMarking,
    MalformedXml,
    MissingConceptName,
    NondeterministicStochasticModel,
    StateSpaceExceeded,
)
from entroconf.petri import Marking, PetriNet, StochasticPetriNet, reachability_graph
from entroconf.stochastic import Sdfa


def breadth_first(start, successors, cap=None) -> dict:
    """{state: number} in breadth-first discovery order from start, each
    state's successors(state), (label, target) pairs, visited in sorted
    order: the canonical numbering of an automaton. StateSpaceExceeded when
    a new state would make more than cap."""
    number = {start: 0}
    queue = deque([start])
    while queue:
        for _, target in sorted(successors(queue.popleft())):
            if target not in number:
                if cap is not None and len(number) >= cap:
                    raise StateSpaceExceeded(f"state space exceeds the cap of {cap} states")
                number[target] = len(number)
                queue.append(target)
    return number


def canonical_dfa(initial, accepting, transitions, alphabet) -> Dfa:
    """The states on some path from initial to accepting, numbered by
    breadth_first, or the one-state empty automaton when there are none."""
    useful = set(accepting)
    grew = True
    while grew:
        grew = False
        for (src, _), dst in transitions.items():
            if dst in useful and src not in useful:
                useful.add(src)
                grew = True
    if initial not in useful:
        return Dfa(frozenset({0}), frozenset(alphabet), 0, frozenset(), {})
    out: dict = {}
    for (src, label), dst in transitions.items():
        if src in useful and dst in useful:
            out.setdefault(src, []).append((label, dst))
    number = breadth_first(initial, lambda s: out.get(s, ()))
    return Dfa(
        states=frozenset(number.values()),
        alphabet=frozenset(alphabet),
        initial=0,
        accepting=frozenset(number[s] for s in accepting if s in number),
        transitions={(number[s], x): number[d] for s in number for x, d in out.get(s, ())},
    )


def subset_construction(initial, accepting, triples, alphabet) -> Dfa:
    """The textbook determinization of the automaton whose edges are the
    (src, label, dst) triples, label None on a silent edge: a state is the
    set of states that one word leads to from initial, closed under silent
    edges, and accepts when it holds an accepting state; trimmed and
    numbered by canonical_dfa."""
    silent: dict = {}
    labeled: dict = {}
    for src, label, dst in triples:
        if label is None:
            silent.setdefault(src, set()).add(dst)
        else:
            labeled.setdefault(src, {}).setdefault(label, set()).add(dst)

    def closure(states) -> frozenset:
        closed, pending = set(states), list(states)
        while pending:
            for dst in silent.get(pending.pop(), ()):
                if dst not in closed:
                    closed.add(dst)
                    pending.append(dst)
        return frozenset(closed)

    def successors(subset) -> list:
        moves: dict = {}
        for state in subset:
            for label, targets in labeled.get(state, {}).items():
                moves.setdefault(label, set()).update(targets)
        return [(label, closure(targets)) for label, targets in sorted(moves.items())]

    start = closure([initial])
    subsets = breadth_first(start, successors)
    transitions = {
        (subset, label): target for subset in subsets for label, target in successors(subset)
    }
    finals = [subset for subset in subsets if subset & accepting]
    return canonical_dfa(start, finals, transitions, alphabet)


def closed_dfa(a: Dfa, budget) -> Dfa:
    """subset_construction of a's closure under deleting up to budget
    symbols per word, or any number when budget is UNBOUNDED: a state
    (s, used) is s with used deletions spent, and each edge of a has a
    silent twin that spends one, while budget allows."""
    step, copies = (0, [0]) if budget is UNBOUNDED else (1, range(budget + 1))
    triples = set()
    for (src, label), dst in a.transitions.items():
        for used in copies:
            triples.add(((src, used), label, (dst, used)))
            if budget is UNBOUNDED or used < budget:
                triples.add(((src, used), None, (dst, used + step)))
    accepting = frozenset((s, used) for s in a.accepting for used in copies)
    return subset_construction((a.initial, 0), accepting, triples, a.alphabet)


def words_up_to(alphabet, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(sorted(alphabet), repeat=length)


def dfa_language(a: Dfa, max_len: int) -> set:
    """Accepted words up to max_len by running the automaton on each."""
    return {w for w in words_up_to(a.alphabet, max_len) if a.accepts(w)}


def sdfa_language(a: Sdfa, max_len: int) -> set:
    """Words up to max_len with positive probability, by running the SDFA
    on each."""

    def positive(word) -> bool:
        state = a.initial
        for label in word:
            step = a.transitions.get((state, label))
            if step is None or not step[1]:
                return False
            state = step[0]
        return a.termination.get(state, 0) > 0

    return {w for w in words_up_to(a.alphabet, max_len) if positive(w)}


def deletion_closure(words, budget=None) -> set:
    """All words reachable by deleting up to `budget` symbols (None: any)."""
    closed = set()
    for word in words:
        limit = len(word) if budget is None else min(budget, len(word))
        for removed in range(limit + 1):
            for kept in itertools.combinations(range(len(word)), len(word) - removed):
                closed.add(tuple(word[i] for i in kept))
    return closed


def perron_root(matrix) -> float:
    """Spectral radius straight from the eigenvalues."""
    m = np.asarray(matrix, dtype=float)
    if m.size == 0:
        return 0.0
    return float(max(abs(np.linalg.eigvals(m))))


def short_circuit_matrix(a: Dfa):
    """Adjacency counts plus accept-to-initial back edges, with exact ints."""
    states = sorted(a.states)
    index = {s: i for i, s in enumerate(states)}
    counts = [[0] * len(states) for _ in states]
    for (src, _), dst in a.transitions.items():
        counts[index[src]][index[dst]] += 1
    for acc in a.accepting:
        counts[index[acc]][index[a.initial]] += 1
    return counts


def growth_rate_estimate(a: Dfa, steps: int = 200) -> float:
    """log2(walk count)/steps on the short-circuited graph, exact integers."""
    matrix = short_circuit_matrix(a)
    size = len(matrix)
    vector = [0] * size
    vector[sorted(a.states).index(a.initial)] = 1
    for _ in range(steps):
        vector = [
            sum(vector[i] * matrix[i][j] for i in range(size)) for j in range(size)
        ]
    total = sum(vector)
    if total == 0:
        return 0.0
    return math.log2(total) / steps


def enumerate_entropy(a: Sdfa, residual: float = 1e-9) -> float:
    """-sum p log2 p over concrete traces until the unexplored mass is tiny.

    Prefixes are expanded most-probable first so the residual shrinks as
    fast as possible.
    """
    entropy = 0.0
    pending = [(-1.0, 0, a.initial, Fraction(1))]
    in_flight = Fraction(1)
    tick = itertools.count(1)
    while pending and in_flight > residual:
        _, _, state, mass = heapq.heappop(pending)
        in_flight -= mass
        termination = a.termination.get(state, Fraction(0))
        stop = mass * termination
        if stop > 0:
            entropy -= float(stop) * math.log2(float(stop))
        for _, dst, prob in a.out_edges(state):
            extended = mass * prob
            if extended > 0:
                heapq.heappush(pending, (-float(extended), next(tick), dst, extended))
                in_flight += extended
    return entropy


def strongly_connected_components(out) -> set[frozenset]:
    """The states of the graph with successors out[i] of state i, grouped
    by mutual reachability: two states share a component when each reaches
    the other, found by one search from every state."""
    reach = []
    for start in range(len(out)):
        seen, stack = {start}, [start]
        while stack:
            for j in out[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        reach.append(seen)
    return {frozenset(j for j in reach[i] if i in reach[j]) for i in range(len(out))}


def exact_sdfa_entropy(a: Sdfa) -> float:
    """Entropy from exact-fraction visit counts instead of trace sums.

    Solves c (I - P) = e_initial by Gaussian elimination over Fractions,
    then adds up visit count times local branching entropy per state. Only
    valid when every reachable state can terminate, which keeps I - P
    invertible.
    """
    order = []
    seen = {a.initial}
    queue = deque([a.initial])
    while queue:
        state = queue.popleft()
        order.append(state)
        for _, dst, _ in a.out_edges(state):
            if dst not in seen:
                seen.add(dst)
                queue.append(dst)
    index = {s: i for i, s in enumerate(order)}
    n = len(order)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        matrix[i][i] = Fraction(1)
    for src in order:
        for _, dst, prob in a.out_edges(src):
            matrix[index[dst]][index[src]] -= prob
    rhs = [Fraction(0)] * n
    rhs[index[a.initial]] = Fraction(1)
    for col in range(n):
        pivot = next(r for r in range(col, n) if matrix[r][col] != 0)
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        for row in range(n):
            if row != col and matrix[row][col] != 0:
                factor = matrix[row][col] / matrix[col][col]
                for c in range(col, n):
                    matrix[row][c] -= factor * matrix[col][c]
                rhs[row] -= factor * rhs[col]
    visits = {s: rhs[index[s]] / matrix[index[s]][index[s]] for s in order}
    entropy = 0.0
    for state in order:
        local = [prob for _, _, prob in a.out_edges(state)]
        stop = a.termination.get(state, Fraction(0))
        if stop > 0:
            local.append(stop)
        weight = float(visits[state])
        entropy -= weight * sum(float(p) * math.log2(float(p)) for p in local)
    return entropy


def sdfa_trace_distribution(a: Sdfa, mass_target: float) -> dict:
    """Concrete (trace, probability) pairs covering at least mass_target."""
    distribution: dict[tuple, Fraction] = {}
    pending = [(-1.0, 0, a.initial, Fraction(1), ())]
    covered = Fraction(0)
    tick = itertools.count(1)
    while pending and covered < mass_target:
        _, _, state, mass, trace = heapq.heappop(pending)
        stop = mass * a.termination.get(state, Fraction(0))
        if stop > 0:
            distribution[trace] = distribution.get(trace, Fraction(0)) + stop
            covered += stop
        for label, dst, prob in a.out_edges(state):
            extended = mass * prob
            if extended > 0:
                heapq.heappush(
                    pending, (-float(extended), next(tick), dst, extended, trace + (label,))
                )
    return distribution


def net_traces(net: PetriNet, max_len: int, accepting) -> set:
    """Visible label sequences of firing runs ending in an accepting marking.

    Depth-bounded search on the net itself (not its reachability graph);
    silent firings extend the run without extending the word, so the
    search depth is capped separately from the word length.
    """
    order = sorted(net.places)
    pre = {t: {} for t in net.transitions}
    post = {t: {} for t in net.transitions}
    for (src, dst), weight in net.arcs.items():
        if src in net.places:
            pre[dst][src] = pre[dst].get(src, 0) + weight
        else:
            post[src][dst] = post[src].get(dst, 0) + weight
    start = tuple(net.initial_marking.count(p) for p in order)
    index = {p: i for i, p in enumerate(order)}

    def accepts(vector) -> bool:
        marking = Marking.of({p: vector[index[p]] for p in order})
        return accepting(marking)

    found = set()
    seen = set()
    # breadth-first so each (marking, word) pair is first met at its
    # minimal depth, which makes the dedup safe under the depth cap
    queue = deque([(start, (), 0)])
    depth_cap = 4 * max_len + 8
    while queue:
        vector, word, depth = queue.popleft()
        if (vector, word) in seen:
            continue
        seen.add((vector, word))
        if accepts(vector):
            found.add(word)
        if depth >= depth_cap:
            continue
        for t in net.transitions:
            if all(vector[index[p]] >= w for p, w in pre[t].items()):
                firing = list(vector)
                for p, w in pre[t].items():
                    firing[index[p]] -= w
                for p, w in post[t].items():
                    firing[index[p]] += w
                label = net.transitions[t]
                extended = word if label is None else word + (label,)
                if len(extended) <= max_len:
                    queue.append((tuple(firing), extended, depth + 1))
    return found


def exhaustive_is_bounded(net: PetriNet, cap: int) -> bool:
    """Plain breadth-first marking exploration, unbounded when the cap trips."""
    order = sorted(net.places)
    pre = {t: [0] * len(order) for t in net.transitions}
    post = {t: [0] * len(order) for t in net.transitions}
    index = {p: i for i, p in enumerate(order)}
    for (src, dst), weight in net.arcs.items():
        if src in net.places:
            pre[dst][index[src]] += weight
        else:
            post[src][index[dst]] += weight
    start = tuple(net.initial_marking.count(p) for p in order)
    seen = {start}
    frontier = [start]
    while frontier:
        vector = frontier.pop()
        for t in net.transitions:
            if all(v >= need for v, need in zip(vector, pre[t])):
                successor = tuple(
                    v - need + gain
                    for v, need, gain in zip(vector, pre[t], post[t])
                )
                if successor not in seen:
                    if len(seen) >= cap:
                        return False
                    seen.add(successor)
                    frontier.append(successor)
    return True


def tree_parse_xes(text: str) -> EventLog:
    """parse_xes by building the whole ElementTree and walking it.

    A <trace> counts at any depth; its events are its direct <event>
    children; an event's name is the value of its first direct child with
    key="concept:name", and a missing or empty one is an error.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise MalformedXml(str(exc)) from None
    counts: dict[tuple, int] = {}
    for trace_el in root.iter():
        if trace_el.tag.rpartition("}")[2] != "trace":
            continue
        events = []
        for event_el in trace_el:
            if event_el.tag.rpartition("}")[2] != "event":
                continue
            name = None
            for attr in event_el:
                if attr.get("key") == "concept:name":
                    name = attr.get("value")
                    break
            if not name:
                raise MissingConceptName("event without a concept:name attribute")
            events.append(name)
        trace = tuple(events)
        counts[trace] = counts.get(trace, 0) + 1
    return EventLog(counts)


# --- randomized input generators (all take a seeded random.Random) -------


def random_dfa(rng, max_states: int = 6, alphabet_size: int = 3) -> Dfa:
    """Random trimmed non-empty-language DFA."""
    alphabet = "abc"[:alphabet_size]
    while True:
        size = rng.randint(1, max_states)
        transitions = {}
        for state in range(size):
            for label in alphabet:
                if rng.random() < 0.6:
                    transitions[(state, label)] = rng.randrange(size)
        accepting = frozenset(
            s for s in range(size) if rng.random() < 0.4
        ) or frozenset({rng.randrange(size)})
        candidate = canonical_dfa(0, accepting, transitions, alphabet)
        if candidate.accepting:
            return candidate


def random_log(rng, alphabet="abc", max_traces: int = 6, max_len: int = 5) -> EventLog:
    traces = []
    for _ in range(rng.randint(1, max_traces)):
        length = rng.randint(0, max_len)
        traces.append(tuple(rng.choice(alphabet) for _ in range(length)))
    return EventLog.from_traces(traces)


def reference_log_to_dfa(log: EventLog) -> Dfa:
    """Prefix-tree acceptor of a log's distinct traces, each inserted in
    sorted order into a trie of its own, then canonically numbered."""
    if not log.entries:
        raise EmptyLog("cannot build an automaton from an empty log")
    transitions: dict[tuple[int, str], int] = {}
    accepting = set()
    next_state = 1
    for trace in sorted(log.entries):
        state = 0
        for label in trace:
            nxt = transitions.get((state, label))
            if nxt is None:
                nxt = next_state
                transitions[(state, label)] = nxt
                next_state += 1
            state = nxt
        accepting.add(state)
    return canonical_dfa(0, accepting, transitions, log.alphabet)


def random_net(rng, max_places: int = 6, max_transitions: int = 5) -> PetriNet:
    places = [f"p{i}" for i in range(rng.randint(1, max_places))]
    transitions = {}
    arcs = {}
    labels = "abcde"
    for i in range(rng.randint(1, max_transitions)):
        ident = f"t{i}"
        transitions[ident] = rng.choice(labels)
        for place in rng.sample(places, k=rng.randint(0, min(2, len(places)))):
            arcs[(place, ident)] = 1
        for place in rng.sample(places, k=rng.randint(0, min(2, len(places)))):
            arcs[(ident, place)] = 1
    marking = {p: rng.randint(0, 2) for p in rng.sample(places, k=min(2, len(places)))}
    return PetriNet(
        places=frozenset(places),
        transitions=transitions,
        arcs=arcs,
        initial_marking=Marking.of(marking),
    )


def random_terminating_sdfa(rng, max_states: int = 5, alphabet="abc") -> Sdfa:
    """Random terminating SDFA whose trace enumeration stays tractable.

    Every state terminates with positive probability, ordinary transitions
    only move forward through the state order, and at most one state gets a
    self-loop whose mass is dominated by the rest of the state. Trace
    probability then decays at least geometrically, so enumerating down to
    a 1e-9 residual touches a bounded number of prefixes.
    """
    size = rng.randint(1, max_states)
    loop_state = rng.randrange(size) if rng.random() < 0.35 else None
    transitions = {}
    termination = {}
    for state in range(size):
        arcs = []
        for label in alphabet:
            if state + 1 < size and rng.random() < 0.55:
                arcs.append((label, rng.randrange(state + 1, size), rng.randint(1, 4)))
        if state == loop_state:
            free = [l for l in alphabet if all(l != a[0] for a in arcs)]
            if free:
                arcs.append((rng.choice(free), state, 1))
        term_weight = rng.randint(4, 8)
        total = term_weight + sum(w for _, _, w in arcs)
        termination[state] = Fraction(term_weight, total)
        for label, dst, weight in arcs:
            transitions[(state, label)] = (dst, Fraction(weight, total))
    return Sdfa(
        states=frozenset(range(size)),
        alphabet=frozenset(alphabet),
        initial=0,
        transitions=transitions,
        termination=termination,
    )


# --- reference copies of the earlier SDFA constructions -------------------
#
# Each built its own prefix tree, pair walk, pruning and canonical
# renumbering. The package now builds every SDFA as a canonical language
# automaton plus weights; these copies pin down that the results are the
# same objects: numbering, fractions and alphabet.


def _reference_canonical_sdfa(initial, transitions, termination, alphabet) -> Sdfa:
    out: dict = {}
    for (src, label), (dst, _) in transitions.items():
        out.setdefault(src, []).append((label, dst))
    number = breadth_first(initial, lambda s: out.get(s, ()))
    return Sdfa(
        states=frozenset(number.values()),
        alphabet=frozenset(alphabet),
        initial=0,
        transitions={
            (number[src], label): (number[dst], transitions[src, label][1])
            for src in number
            for label, dst in out.get(src, ())
        },
        termination={
            number[s]: p for s, p in termination.items() if s in number and p > 0
        },
    )


def reference_log_to_sdfa(log: EventLog) -> Sdfa:
    if not log.entries:
        raise EmptyLog("cannot build an automaton from an empty log")
    reaching: dict = {}
    ending: dict = {}
    for trace, count in log.entries.items():
        for i in range(len(trace) + 1):
            prefix = trace[:i]
            reaching[prefix] = reaching.get(prefix, 0) + count
        ending[trace] = ending.get(trace, 0) + count
    transitions = {}
    for prefix in reaching:
        if prefix:
            parent = prefix[:-1]
            transitions[(parent, prefix[-1])] = (
                prefix,
                Fraction(reaching[prefix], reaching[parent]),
            )
    termination = {
        prefix: Fraction(ending.get(prefix, 0), reached)
        for prefix, reached in reaching.items()
    }
    return _reference_canonical_sdfa((), transitions, termination, log.alphabet)


def reference_conjunction(prob_source: Sdfa, structure: Sdfa, cap=None) -> Sdfa:
    def successors(pair):
        sp, ss = pair
        structure_out = {label: dst for label, dst, _ in structure.out_edges(ss)}
        for label, dst_p, _ in prob_source.out_edges(sp):
            dst_s = structure_out.get(label)
            if dst_s is not None:
                yield label, (dst_p, dst_s)

    number = breadth_first((prob_source.initial, structure.initial), successors, cap)
    pairs = list(number)
    transitions = {
        (number[pair], label): (number[dst], prob_source.transitions[pair[0], label][1])
        for pair in pairs
        for label, dst in successors(pair)
    }
    termination = {
        i: prob_source.termination[sp]
        for i, (sp, ss) in enumerate(pairs)
        if prob_source.termination.get(sp, Fraction(0)) > 0
        and structure.termination.get(ss, Fraction(0)) > 0
    }
    reverse: dict = {}
    for (src, _), (dst, _) in transitions.items():
        reverse.setdefault(dst, []).append(src)
    surviving = set(termination)
    queue = deque(surviving)
    while queue:
        for src in reverse.get(queue.popleft(), ()):
            if src not in surviving:
                surviving.add(src)
                queue.append(src)
    if 0 not in surviving:
        raise EmptyConjunction("no trace has positive probability in both inputs")
    kept = {
        key: value
        for key, value in transitions.items()
        if key[0] in surviving and value[0] in surviving
    }
    mass = {s: termination.get(s, Fraction(0)) for s in surviving}
    for (src, _), (_, prob) in kept.items():
        mass[src] += prob
    renormalized = {key: (dst, prob / mass[key[0]]) for key, (dst, prob) in kept.items()}
    final_termination = {s: p / mass[s] for s, p in termination.items()}
    return _reference_canonical_sdfa(
        0, renormalized, final_termination, prob_source.alphabet & structure.alphabet
    )


def reference_stochastic_rg_to_sdfa(net: StochasticPetriNet) -> Sdfa:
    rg = reachability_graph(net)
    deadlocks = rg.deadlocks()
    if net.final_markings is not None:
        declared = frozenset(net.final_markings) & rg.nodes
        if declared != deadlocks:
            raise InvalidFinalMarking(
                "declared final markings must be exactly the reachable deadlocks"
            )
    outgoing: dict = {}
    for src, t, dst in rg.edges:
        outgoing.setdefault(src, []).append((t, dst))
    transitions = {}
    for src, fired in outgoing.items():
        labels = [net.transitions[t] for t, _ in fired]
        if len(set(labels)) != len(labels):
            raise NondeterministicStochasticModel(
                "two equally labeled transitions enabled at one marking"
            )
        total = sum(net.weights[t] for t, _ in fired)
        for t, dst in fired:
            transitions[(src, net.transitions[t])] = (dst, net.weights[t] / total)
    termination = {m: Fraction(1) for m in deadlocks}
    return _reference_canonical_sdfa(
        rg.initial, transitions, termination, frozenset(net.transitions.values())
    )


# --- reference copy of the earlier Fraction-based visit system ------------
#
# sdfa_entropy read every probability as a Fraction: 1 - P_ii, each in-edge
# and -p log2 p were computed from exact fractions, then rounded. The package
# now reads per-state integer weights; these copies pin down that every float
# of the system, and so every entropy and residual, is the same bit for bit.


def _reference_log2(value: Fraction) -> float:
    return math.log2(value.numerator) - math.log2(value.denominator)


def _reference_plog2p(p: Fraction) -> float:
    q = float(p)
    return -q * (math.log1p(float(p - 1)) / math.log(2) if q > 0.5 else _reference_log2(p))


def reference_visit_system(a: Sdfa):
    """(diagonal, incoming, local) of (I - P)^T, as sdfa_entropy solves it."""
    position = breadth_first(a.initial, lambda s: [(x, d) for x, d, _ in a.out_edges(s)])
    diagonal = []
    incoming: list[list[tuple[int, float]]] = [[] for _ in position]
    local = []
    for state, i in position.items():
        stay, terms = Fraction(0), []
        for _, dst, prob in a.out_edges(state):
            terms.append(_reference_plog2p(prob))
            if dst == state:
                stay += prob
            else:
                incoming[position[dst]].append((i, float(prob)))
        term = a.termination.get(state, Fraction(0))
        if term > 0:
            terms.append(_reference_plog2p(term))
        diagonal.append(float(1 - stay))
        local.append(math.fsum(terms))
    return diagonal, incoming, local


def whole_system_counts(diagonal, incoming) -> list[float]:
    """Visit counts of a visit system, as stochastic._visit_system gives it,
    from one sparse LU of the whole of (I - P)^T c = e_initial, as
    sdfa_entropy solved any system with a cycle through two or more states
    before it solved one strongly connected component at a time."""
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import spsolve

    n = len(diagonal)
    entries = [(i, i, d) for i, d in enumerate(diagonal)]
    entries += [(i, j, -p) for i, edges in enumerate(incoming) for j, p in edges]
    rows, columns, values = zip(*entries)
    e_initial = np.zeros(n)
    e_initial[0] = 1.0
    return spsolve(csc_matrix((values, (rows, columns)), shape=(n, n)), e_initial).tolist()


# --- reference copies of the backtracking XES subset patterns -------------
#
# formats._TRACE and formats._NAME are written with possessive repeats and a
# positive value class; these are the backtracking forms they replaced, so
# that a test can show that both match the same bytes and capture the same
# names.

_SPACE = rb"[ \t\r\n]"
_VALUE = rb'"[^"&<\x00-\x1f]*"'
_LEAF = (
    rb"<(?!(?:trace|event)[ \t\r\n])[A-Za-z_][\w.\-]*"
    + _SPACE + rb"+key=" + _VALUE + _SPACE + rb"+value=" + _VALUE + _SPACE + rb"*/>"
)
_EVENT = rb"<event>(?:" + _SPACE + rb"*" + _LEAF + rb")*" + _SPACE + rb"*</event>"
REFERENCE_TRACE = (
    rb"<trace>(?:" + _SPACE + rb"*(?:" + _EVENT + rb"|" + _LEAF + rb"))*"
    + _SPACE + rb"*</trace>" + _SPACE + rb"*"
)
REFERENCE_NAME = (
    rb"<event>(?:" + _SPACE + rb'*<[\w.\-]+' + _SPACE + rb'+key="(?!concept:name")[^"]*"'
    + _SPACE + rb'+value="[^"]*"' + _SPACE + rb"*/>)*"
    rb"(?:" + _SPACE + rb"*<[\w.\-]+" + _SPACE + rb'+key="concept:name"'
    + _SPACE + rb'+value="([^"]*)")?'
)
