"""Finite automata over activity alphabets and the language constructions
(trim, product, determinization, skip closure, short-circuiting) that the
conformance measures are built on.

All operations are pure and return canonically renumbered automata (states
are 0..n-1 in breadth-first discovery order with labels visited in sorted
order), so repeated runs produce identical objects.
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
    _rows: list | None = None  # _log_rows' counted trie, built on its first call

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
    """A log's counted trie, built in one pass over its entries when first
    asked for and kept on the log, as rows laid out as Sdfa._weights' first
    two fields: per prefix, the instances ending there and {label: [child,
    instances reaching it]}, the root row 0; EmptyLog for a log with no traces."""
    if log._rows is None and _traces(log):
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
        object.__setattr__(log, "_rows", rows)
    return log._rows


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


def _out_map(transitions: Mapping[tuple[object, str], object]) -> dict:
    out: dict[object, list[tuple[str, object]]] = {}
    for (src, label), dst in transitions.items():
        out.setdefault(src, []).append((label, dst))
    for succ in out.values():
        succ.sort()
    return out


def _reachable(seeds, successors) -> dict:
    """Everything reachable from seeds through successors(state).

    The states are the keys of the result, in breadth-first discovery order
    with the seeds first.
    """
    found = dict.fromkeys(seeds)
    queue = deque(found)
    while queue:
        for state in successors(queue.popleft()):
            if state not in found:
                found[state] = None
                queue.append(state)
    return found


def _explore(start, successors, capped: bool = True) -> tuple[dict, dict]:
    """Breadth-first construction of the automaton reachable from start.

    successors(state) must yield (label, target) pairs sorted by label.
    States are numbered 0..n-1 in discovery order, which under that
    precondition is the canonical numbering: it depends only on the
    automaton, not on how its states are named or its edges stored.
    Returns the numbering {state: number} and the numbered transitions
    {(number, label): number}. Raises StateSpaceExceeded when a new state
    would make more than _MAX_STATES, unless capped is false.
    """
    number = {start: 0}
    transitions = {}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        src = number[state]
        for label, target in successors(state):
            dst = number.get(target)
            if dst is None:
                if capped and len(number) >= _MAX_STATES:
                    raise StateSpaceExceeded(
                        f"state space exceeds the cap of {_MAX_STATES} states"
                    )
                dst = number[target] = len(number)
                queue.append(target)
            transitions[src, label] = dst
    return number, transitions


def _canonical(initial, accepting, transitions, alphabet) -> Dfa:
    """Renumber states 0..n-1 by BFS from initial, labels in sorted order.

    Drops anything unreachable; the result is the unique representative of
    its isomorphism class, which keeps downstream numerics reproducible.
    Uncapped, as the parts are never larger than an input already read or
    capped.
    """
    out = _out_map(transitions)
    number, numbered = _explore(initial, lambda s: out.get(s, ()), capped=False)
    return Dfa(
        states=frozenset(number.values()),
        alphabet=frozenset(alphabet),
        initial=0,
        accepting=frozenset(number[s] for s in accepting if s in number),
        transitions=numbered,
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
    trie, canonically numbered.

    Counts are ignored: the language measures below are set-of-traces
    properties. Raises EmptyLog for a log with no traces at all.
    """
    rows = _log_rows(log)
    edges = {(i, x): j for i, (_, out) in enumerate(rows) for x, (j, _) in out.items()}
    return _canonical(0, [i for i, (stop, _) in enumerate(rows) if stop], edges, log.alphabet)


def trim(a: Dfa) -> Dfa:
    """Restrict to states on some initial-to-accepting path.

    The language is unchanged. When no accepting state is reachable the
    canonical empty automaton (single useless initial state) is returned.
    An input that is trim and stored in canonical order, numbered and
    listed as _explore would, is returned itself.
    """
    rev: dict[object, list[object]] = {}
    for (src, _), dst in a.transitions.items():
        rev.setdefault(dst, []).append(src)
    # forward reachability is left to _canonical, which drops what the
    # initial state cannot reach
    useful = _reachable(a.accepting, lambda s: rev.get(s, ()))
    if a.initial not in useful:
        empty = _canonical(0, (), {}, a.alphabet)
        return a if a == empty else empty
    kept = a.transitions
    if len(useful) < len(a.states):
        kept = {key: dst for key, dst in kept.items() if key[0] in useful and dst in useful}
    elif _in_canonical_order(a):
        return a
    return _canonical(a.initial, a.accepting, kept, a.alphabet)


def _in_canonical_order(a: Dfa) -> bool:
    """Whether a's states are 0..n-1 and its transitions stored as _explore
    lists them, so that _canonical would rebuild a: sources never decrease
    and are found already, labels increase per source, each new target is
    next."""
    if a.initial != 0 or a.states != frozenset(range(len(a.states))):
        return False
    found, last = 1, (-1,)
    for key, dst in a.transitions.items():
        if not (key[0] < found and last < key and dst <= found):
            return False
        found, last = found + (dst == found), key
    return found == len(a.states)


def product(a: Dfa, b: Dfa) -> Dfa:
    """Synchronous product; accepts exactly the traces both operands accept.

    Synchronization happens per label, so differing alphabets need no
    preprocessing: a label missing on one side simply never fires. The
    number of state pairs is capped (StateSpaceExceeded beyond it).
    """
    out_a = _out_map(a.transitions)

    def successors(pair):
        sa, sb = pair
        for label, da in out_a.get(sa, ()):
            db = b.transitions.get((sb, label))
            if db is not None:
                yield label, (da, db)

    number, transitions = _explore((a.initial, b.initial), successors)
    return Dfa(
        states=frozenset(number.values()),
        alphabet=frozenset(a.alphabet & b.alphabet),
        initial=0,
        accepting=frozenset(
            i
            for (sa, sb), i in number.items()
            if sa in a.accepting and sb in b.accepting
        ),
        transitions=transitions,
    )


def determinize(n: Nfa) -> Dfa:
    """Subset construction with silent-edge closure; result is trimmed.

    Subsequence closures of large inputs can blow up exponentially, so the
    number of subset states is capped (StateSpaceExceeded beyond it).
    """
    eps: dict[object, set] = {}
    moves: dict[object, dict[str, set]] = {}
    for src, label, dst in n.transitions:
        if label is SILENT:
            eps.setdefault(src, set()).add(dst)
        else:
            moves.setdefault(src, {}).setdefault(label, set()).add(dst)

    def closure(states) -> frozenset:
        return frozenset(_reachable(states, lambda s: eps.get(s, ())))

    def successors(subset):
        targets: dict[str, set] = {}
        for s in subset:
            for label, dsts in moves.get(s, {}).items():
                targets.setdefault(label, set()).update(dsts)
        for label in sorted(targets):
            yield label, closure(targets[label])

    number, transitions = _explore(closure({n.initial}), successors)
    dfa = Dfa(
        states=frozenset(number.values()),
        alphabet=n.alphabet,
        initial=0,
        accepting=frozenset(i for subset, i in number.items() if subset & n.accepting),
        transitions=transitions,
    )
    return trim(dfa)


def skip_closure(a: Dfa, k) -> Nfa:
    """Close a language under deletion of up to k symbols per word.

    k may be a nonnegative integer budget or UNBOUNDED (any number of
    deletions, i.e. all subsequences). Skips are realized as silent edges
    running parallel to the labeled ones; a bounded budget is tracked in a
    per-state counter component, so each accepted word spends its own
    deletions independently. A bounded budget takes (k + 1) copies of the
    states; StateSpaceExceeded, before anything is built, when that is more
    than _MAX_STATES.
    """
    if k is UNBOUNDED:
        triples = set()
        for (src, label), dst in a.transitions.items():
            triples.add((src, label, dst))
            triples.add((src, SILENT, dst))
        return Nfa(
            states=a.states,
            alphabet=a.alphabet,
            initial=a.initial,
            accepting=a.accepting,
            transitions=frozenset(triples),
        )
    if not isinstance(k, int) or k < 0:
        raise ValueError("skip budget must be a nonnegative integer or UNBOUNDED")
    if (k + 1) * len(a.states) > _MAX_STATES:
        raise StateSpaceExceeded(
            f"a skip budget of {k} on {len(a.states)} states exceeds the cap of "
            f"{_MAX_STATES} states"
        )
    triples = set()
    for (src, label), dst in a.transitions.items():
        for used in range(k + 1):
            triples.add(((src, used), label, (dst, used)))
            if used < k:
                triples.add(((src, used), SILENT, (dst, used + 1)))
    states = {(s, used) for s in a.states for used in range(k + 1)}
    accepting = {(s, used) for s in a.accepting for used in range(k + 1)}
    return Nfa(
        states=frozenset(states),
        alphabet=a.alphabet,
        initial=(a.initial, 0),
        accepting=frozenset(accepting),
        transitions=frozenset(triples),
    )


def short_circuit(a: Dfa) -> ShortCircuitGraph:
    """Sparse adjacency of a trimmed DFA plus one back edge per accepting state.

    The back edges (a fresh symbol, one per accepting state, pointing at the
    initial state) make the graph strongly connected, which is what gives
    finite languages a well-defined, inclusion-monotone growth rate. Nodes
    are the states in sorted order; parallel edges add up in one entry. An
    empty-language automaton yields the 0-node graph.
    """
    import numpy as np
    from scipy.sparse import csr_matrix

    if not a.accepting:
        return ShortCircuitGraph(0, csr_matrix((0, 0), dtype=np.int64))
    index = {s: i for i, s in enumerate(sorted(a.states))}
    n = len(index)
    edges = [(index[src], index[dst]) for (src, _), dst in a.transitions.items()]
    edges += [(index[acc], index[a.initial]) for acc in a.accepting]
    rows, cols = zip(*edges)
    counts = np.ones(len(edges), dtype=np.int64)
    return ShortCircuitGraph(n, csr_matrix((counts, (rows, cols)), shape=(n, n)))
