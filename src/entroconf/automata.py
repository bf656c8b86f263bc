"""Finite automata over activity alphabets and the language constructions
(trim, product, determinization, skip closure, short-circuiting) that the
conformance measures are built on.

Inside, an automaton is rows, one per state, state 0 initial: a stop
weight and {label: (target, weight)}, weights 1 in a language automaton,
instances in a log's trie and probabilities in an SDFA. The constructions
read and return rows, numbered where built; where a numbering reaches a
public record or a numbering-sensitive solve it is the canonical one:
breadth-first from state 0, labels in sorted order. The public functions
convert a Dfa or Nfa to rows on entry and build a record only for what
they return, so repeated runs produce identical objects.
"""

from __future__ import annotations

import operator
from collections import deque
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import EmptyLog, StateSpaceExceeded

# numpy and scipy are imported inside the numeric kernels, so that runs
# with no numeric solve (--version, -b, -r) start without them
if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

Trace = tuple[str, ...]

# unlabeled (silent) edge marker for Nfa transitions
SILENT = None

# the one cap on the states of products, determinizations, skip closures and
# net explorations, read as each runs: beyond it StateSpaceExceeded fails fast
_MAX_STATES = 10**6


class _Unbounded:
    def __repr__(self) -> str:
        return "UNBOUNDED"


#: skip budget meaning "delete any number of symbols"
UNBOUNDED = _Unbounded()


class _Record:
    """Base of the immutable record types.

    A record's fields are its public annotated names, its base classes'
    first, in the order its __init__ takes them; __init__ stores each with
    object.__setattr__ and checks them. Records are equal when they are of
    one class and their _values (all fields, unless the class says
    otherwise) are equal, hash as that tuple, and show every field in their
    repr. Assigning or deleting an attribute raises AttributeError. No
    method is generated, so defining a record type costs an import nothing
    beyond the class statement.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # a class's own annotations only, since Python 3.10
        own = cls.__annotations__
        cls._fields += tuple(name for name in own if not name.startswith("_"))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _positive_integer(value) -> bool:
    return hasattr(value, "__index__") and operator.index(value) >= 1


class EventLog(_Record):
    """Finite multiset of traces with occurrence counts."""

    entries: Mapping[Trace, int]

    def __init__(self, entries) -> None:
        object.__setattr__(self, "entries", entries)
        for trace, count in entries.items():
            if not isinstance(trace, tuple):
                raise ValueError(f"a trace must be a tuple of labels, got {trace!r}")
            if not _positive_integer(count):
                raise ValueError(f"trace count must be a positive integer, got {count!r}")
            if not all(isinstance(label, str) and label for label in trace):
                raise ValueError("activity labels must be non-empty strings")

    @classmethod
    def from_traces(cls, traces: Iterable[Iterable[str]]) -> "EventLog":
        counts: dict[Trace, int] = {}
        for t in traces:
            key = tuple(t)
            counts[key] = counts.get(key, 0) + 1
        return cls(counts)

    @property
    def alphabet(self) -> frozenset[str]:
        return frozenset(label for trace in self.entries for label in trace)

    def total_instances(self) -> int:
        return sum(self.entries.values())

    def distinct_traces(self) -> frozenset[Trace]:
        return frozenset(self.entries)


def _log_rows(log: EventLog) -> list:
    """A log's counted trie, built in one pass over its entries and kept
    nowhere, as rows laid out as Sdfa._weights' first two fields: per prefix,
    the instances ending there and {label: [child, instances reaching it]},
    the root row 0, trim as every prefix ends a trace; EmptyLog if empty."""
    _traces(log)
    rows = [[0, {}]]
    for trace, count in log.entries.items():
        row = rows[0]
        for label in trace:
            edge = row[1].get(label)
            if edge is None:
                edge = row[1][label] = [len(rows), 0]
                rows.append([0, {}])
            edge[1] += count
            row = rows[edge[0]]
        row[0] += count
    return rows


class Dfa(_Record):
    """Deterministic finite automaton; transitions map (state, label) to state."""

    states: frozenset
    alphabet: frozenset[str]
    initial: object
    accepting: frozenset
    transitions: Mapping[tuple[object, str], object]

    def __init__(self, states, alphabet, initial, accepting, transitions) -> None:
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "accepting", accepting)
        object.__setattr__(self, "transitions", transitions)
        if initial not in states:
            raise ValueError("initial state missing from state set")
        if not accepting <= states:
            raise ValueError("accepting states missing from state set")
        for (src, label), dst in transitions.items():
            if src not in states or dst not in states:
                raise ValueError(f"transition ({src},{label})->{dst} leaves the state set")

    def accepts(self, word: Iterable[str]) -> bool:
        state = self.initial
        for label in word:
            nxt = self.transitions.get((state, label))
            if nxt is None:
                return False
            state = nxt
        return state in self.accepting

    @property
    def is_empty_language(self) -> bool:
        # exact for trimmed automata, conservative otherwise
        return not self.accepting


class Nfa(_Record):
    """Nondeterministic automaton; silent edges carry SILENT instead of a label."""

    states: frozenset
    alphabet: frozenset[str]
    initial: object
    accepting: frozenset
    transitions: frozenset  # of (src, label or SILENT, dst)

    def __init__(self, states, alphabet, initial, accepting, transitions) -> None:
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "accepting", accepting)
        object.__setattr__(self, "transitions", transitions)


class ShortCircuitGraph(_Record):
    """Adjacency counts of a trimmed DFA plus one back edge per accepting state.

    The adjacency is a node_count x node_count int64 csr_matrix; entry
    [i, j] counts the edges from state i to state j.
    """

    node_count: int
    adjacency: csr_matrix

    def __init__(self, node_count, adjacency) -> None:
        object.__setattr__(self, "node_count", node_count)
        object.__setattr__(self, "adjacency", adjacency)

    def _values(self) -> tuple:
        # the adjacency is shown, but neither compared nor hashed
        return (self.node_count,)


def _reachable(seeds, successors) -> dict:
    """Everything reachable from seeds through successors(state), as the keys
    of the result in breadth-first discovery order, the seeds first."""
    found = dict.fromkeys(seeds)
    queue = deque(found)
    while queue:
        for state in successors(queue.popleft()):
            if state not in found:
                found[state] = None
                queue.append(state)
    return found


def _explore(start, successors, capped: bool = True) -> tuple[dict, list]:
    """Breadth-first construction of what is reachable from start, where
    successors(state) yields (label, target, weight) triples: the numbering
    {state: 0..n-1} in discovery order, and by number the edges {label:
    (number, weight)}. With each state's triples sorted by label that is
    the canonical numbering, which depends only on the automaton, not on
    how its states are named or its edges stored. StateSpaceExceeded when a
    new state would make more than _MAX_STATES, unless capped is false.
    """
    number = {start: 0}
    edges = []
    queue = [start]
    for state in queue:
        out = {}
        for label, target, weight in successors(state):
            dst = number.get(target)
            if dst is None:
                if capped and len(number) >= _MAX_STATES:
                    raise StateSpaceExceeded(
                        f"state space exceeds the cap of {_MAX_STATES} states"
                    )
                dst = number[target] = len(number)
                queue.append(target)
            out[label] = (dst, weight)
        edges.append(out)
    return number, edges


def _canonical(rows: list, keep) -> list:
    """The rows of the states in keep that state 0 reaches within keep,
    canonically numbered: the unique representative of their isomorphism
    class, which keeps downstream numerics reproducible. Uncapped, as it is
    never larger than rows."""

    def successors(i):
        for label, (j, weight) in sorted(rows[i][1].items()):
            if j in keep:
                yield label, j, weight

    number, edges = _explore(0, successors, capped=False)
    return [(rows[i][0], out) for i, out in zip(number, edges)]


def _trim(rows: list) -> list:
    """The states of rows on some path from state 0 to a positive stop
    weight, canonically renumbered, or [(0, {})], the canonical empty
    automaton, when state 0 is on none. The language is unchanged."""
    into: list[list[int]] = [[] for _ in rows]
    for i, row in enumerate(rows):
        for j, _ in row[1].values():
            into[j].append(i)
    useful = _reachable([i for i, row in enumerate(rows) if row[0]], into.__getitem__)
    return _canonical(rows, useful) if 0 in useful else [(0, {})]


def _empty(rows: list) -> bool:
    # trimmed rows accept nothing when their one state neither stops nor moves
    return not (rows[0][0] or rows[0][1])


def _rows(a: Dfa) -> list:
    """The rows of a Dfa, stop and edge weights 1, canonically numbered."""
    out: dict = {}
    for (src, label), dst in a.transitions.items():
        out.setdefault(src, []).append((label, dst, 1))
    number, edges = _explore(a.initial, lambda s: sorted(out.get(s, ())), capped=False)
    return [(int(s in a.accepting), e) for s, e in zip(number, edges)]


def _dfa(rows: list, alphabet) -> Dfa:
    """The Dfa of rows numbered canonically already, accepting where they stop."""
    return Dfa(
        states=frozenset(range(len(rows))),
        alphabet=frozenset(alphabet),
        initial=0,
        accepting=frozenset(i for i, row in enumerate(rows) if row[0]),
        transitions={(i, x): j for i, row in enumerate(rows) for x, (j, _) in row[1].items()},
    )


def _traces(log: EventLog):
    """The set of distinct traces of a log, the keys of its entries.

    Raises EmptyLog for a log with no traces at all, which has no language
    to measure.
    """
    if not log.entries:
        raise EmptyLog("cannot build an automaton from an empty log")
    return log.entries.keys()


def _prefix_tree_states(log: EventLog) -> int:
    """len(log_to_dfa(log).states), counted without building the trie.

    In sorted order, each trace adds one state per label past its common
    prefix with the trace before it; the root is the one more.
    """
    states, previous = 1, ()
    for trace in sorted(_traces(log)):
        common = 0
        for a, b in zip(previous, trace):
            if a != b:
                break
            common += 1
        states += len(trace) - common
        previous = trace
    return states


def log_to_dfa(log: EventLog) -> Dfa:
    """Prefix-tree acceptor of the distinct traces of a log: _log_rows'
    trie, canonically numbered, its counts ignored, as the language
    measures are set-of-traces properties. EmptyLog for a log with no traces.
    """
    rows = _log_rows(log)
    return _dfa(_canonical(rows, range(len(rows))), log.alphabet)


def trim(a: Dfa) -> Dfa:
    """Restrict to states on some initial-to-accepting path, canonically
    numbered; the language is unchanged. With no accepting state reachable
    that is the empty automaton, a single useless initial state. An input
    that is trim and canonically numbered is returned itself.
    """
    trimmed = _dfa(_trim(_rows(a)), a.alphabet)
    return a if trimmed == a else trimmed


def _product(a: list, b: list) -> list:
    """Rows of the synchronous product of rows a and b, weighted by a: the
    pairs reachable from (0, 0) along labels both have, each edge with a's
    weight, each pair stopping with a's stop weight where both stop. As
    explored, so canonical when a's labels are sorted; the pairs are capped.
    """

    def successors(pair):
        theirs = b[pair[1]][1]
        for label, (i, weight) in a[pair[0]][1].items():
            edge = theirs.get(label)
            if edge is not None:
                yield label, (i, edge[0]), weight

    number, edges = _explore((0, 0), successors)
    return [(a[i][0] if b[j][0] else 0, out) for (i, j), out in zip(number, edges)]


def product(a: Dfa, b: Dfa) -> Dfa:
    """Synchronous product; accepts exactly the traces both operands accept.

    Synchronization happens per label, so differing alphabets need no
    preprocessing: a label missing on one side simply never fires. The
    number of state pairs is capped (StateSpaceExceeded beyond it).
    """
    return _dfa(_product(_rows(a), _rows(b)), a.alphabet & b.alphabet)


def _determinized(start, silent, moves, accepting) -> list:
    """Untrimmed rows of the subset construction from the states start, of
    an automaton given by silent(q), the targets of q's silent edges,
    moves(q), its (label, target) pairs, and accepting(q). A subset is
    closed under silent edges and accepts when a member does; the subsets
    are capped.
    """

    def closure(states) -> frozenset:
        return frozenset(_reachable(states, silent))

    def successors(subset):
        targets: dict[str, list] = {}
        for q in subset:
            for label, target in moves(q):
                targets.setdefault(label, []).append(target)
        for label in sorted(targets):
            yield label, closure(targets[label]), 1

    number, edges = _explore(closure(start), successors)
    return [(int(any(map(accepting, subset))), out) for subset, out in zip(number, edges)]


def determinize(n: Nfa) -> Dfa:
    """Subset construction with silent-edge closure; result is trimmed.

    Subsequence closures of large inputs can blow up exponentially, so the
    number of subset states is capped (StateSpaceExceeded beyond it).
    """
    eps: dict[object, list] = {}
    moves: dict[object, list] = {}
    for src, label, dst in n.transitions:
        if label is SILENT:
            eps.setdefault(src, []).append(dst)
        else:
            moves.setdefault(src, []).append((label, dst))
    rows = _determinized(
        [n.initial], lambda q: eps.get(q, ()), lambda q: moves.get(q, ()), n.accepting.__contains__
    )
    return _dfa(_trim(rows), n.alphabet)


def _check_budget(k, states: int) -> None:
    """ValueError unless k is a nonnegative integer or UNBOUNDED;
    StateSpaceExceeded when k + 1 copies of states pass _MAX_STATES."""
    if k is UNBOUNDED:
        return
    if not isinstance(k, int) or k < 0:
        raise ValueError("skip budget must be a nonnegative integer or UNBOUNDED")
    if (k + 1) * states > _MAX_STATES:
        raise StateSpaceExceeded(
            f"a skip budget of {k} on {states} states exceeds the cap of {_MAX_STATES} states"
        )


def skip_closure(a: Dfa, k) -> Nfa:
    """Close a language under deletion of up to k symbols per word, k a
    nonnegative integer or UNBOUNDED (all subsequences). Skips are silent
    edges parallel to the labeled ones; a bounded budget is a per-state
    counter component, so each word spends its own deletions. Its k + 1
    copies of the states raise StateSpaceExceeded, before anything is
    built, when they are more than _MAX_STATES.
    """
    _check_budget(k, len(a.states))
    # a state and its deletions spent, or the state alone when unbounded
    if k is UNBOUNDED:
        spent, skip, name = [0], 0, lambda s, used: s
    else:
        spent, skip, name = range(k + 1), 1, lambda s, used: (s, used)
    triples = set()
    for (src, label), dst in a.transitions.items():
        for used in spent:
            triples.add((name(src, used), label, name(dst, used)))
            if k is UNBOUNDED or used < k:
                triples.add((name(src, used), SILENT, name(dst, used + skip)))
    return Nfa(
        states=frozenset(name(s, used) for s in a.states for used in spent),
        alphabet=a.alphabet,
        initial=name(a.initial, 0),
        accepting=frozenset(name(s, used) for s in a.accepting for used in spent),
        transitions=frozenset(triples),
    )


def _adjacency(n: int, edges: list) -> csr_matrix:
    """The n x n int64 csr_matrix counting each pair (i, j) of edges at [i, j]."""
    import numpy as np
    from scipy.sparse import csr_matrix

    rows, cols = [i for i, _ in edges], [j for _, j in edges]
    counts = np.ones(len(edges), dtype=np.int64)
    return csr_matrix((counts, (rows, cols)), shape=(n, n))


def short_circuit(a: Dfa) -> ShortCircuitGraph:
    """Sparse adjacency of a trimmed DFA plus one back edge per accepting state.

    The back edges (a fresh symbol, to the initial state) make the graph
    strongly connected, which gives finite languages a well-defined,
    inclusion-monotone growth rate. Nodes are the states in sorted order;
    parallel edges add up. The empty language yields the 0-node graph.
    """
    if not a.accepting:
        return ShortCircuitGraph(0, _adjacency(0, []))
    index = {s: i for i, s in enumerate(sorted(a.states))}
    edges = [(index[src], index[dst]) for (src, _), dst in a.transitions.items()]
    edges += [(index[acc], index[a.initial]) for acc in a.accepting]
    return ShortCircuitGraph(len(index), _adjacency(len(index), edges))
