"""Stochastic conformance measures on weighted trace distributions.

An Sdfa assigns each trace a probability: the product of its transition
probabilities times the termination probability where it ends. Entropy of
that distribution is computed in closed form from expected state visit
counts rather than by enumerating traces. Precision and recall quotient the
entropy of a conjunction (one side's probabilities restricted to the other
side's support) against the operand entropies; entropic relevance prices a
log against a model as an average per-trace compression cost.

Probabilities are exact fractions outside. Inside, an Sdfa is its rows
(see automata), numbered once, when it is built: per state 0..n-1, integer
weights over one total, which validation, products and every solve read as
they are, so each float is one correctly rounded integer quotient. An SDFA
built from a log, a net or a conjunction (the trimmed product of two,
weighted by the first) is canonically numbered. A log enters precision and
recall as its counted trie: its distribution and its conjunctions are
trees, each solved by one walk, as is any Sdfa that is an exact tree; the
visit-count system solves graphs.
"""

from __future__ import annotations

import math
import operator
import warnings
from typing import TYPE_CHECKING, Mapping

# petri runs for a stochastic net, and measures only for the record that
# the public stochastic_precision_recall returns
from . import measures, petri
from .automata import (
    EventLog,
    Trace,
    _accepts,
    _canonical,
    _condensation,
    _empty,
    _explore,
    _log_rows,
    _product,
    _quotient,
    _reachable,
    _Record,
    _traces,
    _trim,
)
from .errors import EmptyConjunction, EmptyLog, NonTerminatingSdfa, NotConverged

if TYPE_CHECKING:
    from fractions import Fraction

    from .measures import PrecisionRecall
    from .petri import StochasticPetriNet

_BACKWARD_ERROR_TOL = 1e-9
_CANNOT_TERMINATE = "a reachable state has no positive-probability path to termination"


class Sdfa(_Record):
    """Stochastic DFA: transitions map (state, label) to (state, probability).

    Per state, termination plus outgoing probabilities must sum to 1;
    parsed inputs are allowed 1e-9 of slack, internal constructions are
    exact. termination maps a subset of the states; the others terminate with 0.
    Probabilities are Fractions, or any number with as_integer_ratio().
    """

    states: frozenset
    alphabet: frozenset[str]
    initial: object
    transitions: Mapping[tuple[object, str], tuple[object, Fraction]]
    termination: Mapping[object, Fraction]
    # the rows of the positive-probability part reachable from initial, numbered
    # by _explore: per state, (stop weight, {label: (j, weight)}, total) by label
    _weights: list

    def __init__(self, states, alphabet, initial, transitions, termination) -> None:
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "termination", termination)
        if initial not in states:
            raise ValueError("initial state missing from state set")
        if not termination.keys() <= states:
            raise ValueError("termination states missing from state set")
        stops = {s: _ratio(termination.get(s, 0), "termination") for s in states}
        out: dict = {}
        for (src, label), (dst, prob) in transitions.items():
            if src not in states or dst not in states:
                raise ValueError("transition endpoint missing from state set")
            out.setdefault(src, []).append((label, dst, *_ratio(prob, "transition")))
        named, sums = {}, {}
        for state, (n, d) in stops.items():
            # labels are unique per state, so the tuples sort by label alone
            edges = sorted(out.get(state, ()))
            total = math.lcm(d, *[e[3] for e in edges])
            scaled = {label: (dst, m * (total // e)) for label, dst, m, e in edges if m}
            stop = n * (total // d)
            named[state] = (stop, scaled, total)
            mass = stop + sum(w for _, w in scaled.values())
            if 10**9 * abs(mass - total) > total:
                sums[state] = mass / total
        if sums:
            # the least state by name, so the message does not depend on set order
            state = min(sums, key=str)
            raise ValueError(f"probabilities at state {state} sum to {sums[state]:.12g}, not 1")
        number, edges = _explore(
            initial, lambda s: [(x, d, w) for x, (d, w) in named[s][1].items()], capped=False
        )
        weights = [(named[s][0], out, named[s][2]) for s, out in zip(number, edges)]
        object.__setattr__(self, "_weights", weights)

    def out_edges(self, state) -> list[tuple[str, object, Fraction]]:
        """Positive-probability outgoing edges, sorted by label."""
        return sorted((x, d, p) for (s, x), (d, p) in self.transitions.items() if s == state and p)


def _ratio(p, kind: str) -> tuple[int, int]:
    """p as (numerator, positive denominator); ValueError unless 0 <= p <= 1."""
    try:
        n, d = p.as_integer_ratio()
    except (ValueError, OverflowError):  # nan, infinities
        n, d = -1, 1
    if not 0 <= n <= d:
        raise ValueError(f"{kind} probability outside [0, 1]")
    return n, d


class StochasticEntropy(_Record):
    bits: float
    residual: float  # normwise backward error of the visit-count solve

    def __init__(self, bits, residual) -> None:
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "residual", residual)


class RelevanceValue(_Record):
    """Average per-trace encoding cost, split into its two summands."""

    bits: float
    selector_bits: float
    avg_trace_bits: float

    def __init__(self, bits, selector_bits, avg_trace_bits) -> None:
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "selector_bits", selector_bits)
        object.__setattr__(self, "avg_trace_bits", avg_trace_bits)


def _weighted(rows: list) -> list:
    """rows as Sdfa._weights, each total the sum of its row's weights."""
    return [(stop, out, stop + sum(w for _, w in out.values())) for stop, out in rows]


def _sdfa(rows: list, alphabet) -> Sdfa:
    """The SDFA of rows numbered canonically already, kept as its _weights:
    what Sdfa.__init__, the check of outside input, would rebuild from it."""
    # imported here, so a run that builds no Fraction does not load fractions
    from fractions import Fraction

    weights = _weighted(rows)
    transitions = {
        (i, label): (j, Fraction(w, total))
        for i, (_, out, total) in enumerate(weights)
        for label, (j, w) in out.items()
    }
    termination = {i: Fraction(stop, total) for i, (stop, _, total) in enumerate(weights) if stop}
    sdfa = Sdfa.__new__(Sdfa)
    # Sdfa.__init__'s fields, stored past _Record's __setattr__ as it stores them
    fields = (frozenset(range(len(weights))), frozenset(alphabet), 0, transitions, termination)
    vars(sdfa).update(zip(Sdfa._fields, fields), _weights=weights)
    return sdfa


def log_to_sdfa(log: EventLog) -> Sdfa:
    """Frequency prefix tree of a log: its counted trie, numbered as log_to_dfa
    numbers it. A prefix continues with a label, or ends, with the share of
    the instances reaching it that do; sums are exactly 1 by construction.
    """
    rows = _log_rows(log)
    return _sdfa(_canonical(rows, range(len(rows))), log.alphabet)


def _log2(n: int, d: int) -> float:
    # math.log2 on the reduced integer parts keeps huge/tiny ratios in range
    g = math.gcd(n, d)
    return math.log2(n // g) - math.log2(d // g)


def _plog2p(w: int, total: int) -> float:
    # -p log2 p of p = w / total, without rounding p near 1 or underflowing near 0
    q = w / total
    return -q * (math.log1p((w - total) / total) / math.log(2) if q > 0.5 else _log2(w, total))


def sdfa_entropy(a: Sdfa) -> StochasticEntropy:
    """Shannon entropy in bits of the trace distribution of an SDFA.

    H = sum over states of (expected visit count) * (local entropy of the
    state's outgoing-plus-termination distribution). An exact tree, such as
    a log's SDFA or a conjunction with one, is walked from its root, each
    count its parent's times the edge's probability, with residual 0.0. Any
    other graph's counts c solve (I - P)^T c = e_initial, with each diagonal
    1 - p(self-loop) taken on the exact integer weights. I - P is
    nonsingular only when every reachable state can reach positive
    termination; NonTerminatingSdfa otherwise, raised while the system is
    built, before any solve. Each strongly connected component is solved
    in turn, predecessors first: a single state in pure Python, a longer
    cycle by a sparse LU of its own block. NotConverged when the residual,
    the backward error ||A c - e||inf / (||A||inf ||c||inf + 1) of
    A = (I - P)^T, exceeds 1e-9, or when a diagonal is not positive as a
    float or a count or the sum is not finite.
    """
    return _entropy(a._weights)


def _entropy(weights: list) -> StochasticEntropy:
    """sdfa_entropy of rows laid out as Sdfa._weights: an exact tree by
    _tree_bits, any other graph by _visit_counts. An exact tree has one edge
    fewer than states and each row's weights sum to its total; a parsed row
    within the 1e-9 slack keeps its own total, so it is solved."""
    if sum([len(edges) for _, edges, _ in weights]) == len(weights) - 1 and all(
        [stop + sum([w for _, w in edges.values()]) == total for stop, edges, total in weights]
    ):
        return StochasticEntropy(_tree_bits([(stop, edges) for stop, edges, _ in weights]), 0.0)
    diagonal, incoming, local = _visit_system(weights)
    if not min(diagonal) > 0.0:
        # an exit probability below the float range, or a self-loop mass at
        # or above 1 within the parsed inputs' slack
        raise NotConverged("a state's exit probability is not positive as a float")
    try:
        counts = _visit_counts(diagonal, incoming)
        residual = _backward_error(diagonal, incoming, counts)
        if not residual <= _BACKWARD_ERROR_TOL:
            raise NotConverged(f"visit-count solve has backward error {residual:.3g}")
        bits = math.fsum(map(operator.mul, counts, local))
    except OverflowError:  # from fsum
        raise NotConverged("visit counts overflow a float") from None
    if not math.isfinite(bits):
        raise NotConverged("entropy overflows a float")
    return StochasticEntropy(bits, residual)


def _visit_system(weights: list):
    """(I - P)^T of rows laid out as Sdfa._weights, all reachable from 0:
    per state i the diagonal 1 - P_ii, the in-edges (j, P_ji) with j != i,
    and the local entropy, each sum an fsum or exact, so independent of the
    order of the labels. NonTerminatingSdfa, as the system is singular, when
    the states that stop do not reach every state along the in-edges.
    """
    diagonal = []
    incoming: list[list[tuple[int, float]]] = [[] for _ in weights]
    local = []
    terminating = []
    for i, (stop, edges, total) in enumerate(weights):
        stay, terms = 0, []
        for j, w in edges.values():
            terms.append(_plog2p(w, total))
            if j == i:
                stay += w
            else:
                incoming[j].append((i, w / total))
        if stop:
            terms.append(_plog2p(stop, total))
            terminating.append(i)
        diagonal.append((total - stay) / total)
        local.append(math.fsum(terms))
    if len(_reachable(terminating, lambda i: (j for j, _ in incoming[i]))) < len(weights):
        raise NonTerminatingSdfa(_CANNOT_TERMINATE)
    return diagonal, incoming, local


def _visit_counts(diagonal, incoming) -> list[float]:
    """The counts c of (I - P)^T c = e_initial, as _visit_system gives it,
    by _condensation of the in-edges, predecessors first: a single state's
    c_i = (delta_i0 + sum_j c_j P_ji) / (1 - P_ii), each sum an fsum, so
    independent of the numbering; a larger component's by _sparse_counts,
    with delta_i0 plus the fsum of the flows from earlier ones as the input."""
    counts = [0.0] * len(diagonal)
    for block in _condensation([[j for j, _ in edges] for edges in incoming]):
        inner = {i: k for k, i in enumerate(block)}
        flows = [
            math.fsum([counts[j] * p for j, p in incoming[i] if j not in inner]) + (i == 0)
            for i in block
        ]
        if len(block) > 1:
            edges = [[(inner[j], p) for j, p in incoming[i] if j in inner] for i in block]
            flows = _sparse_counts([diagonal[i] for i in block], edges, flows)
        else:
            flows = [flows[0] / diagonal[block[0]]]
            # a nan, from an earlier block singular as floats, is left to the residual
            if math.isinf(flows[0]):
                raise NotConverged("visit counts overflow a float")
        for i, c in zip(block, flows):
            counts[i] = c
    return counts


def _sparse_counts(diagonal, incoming, flows) -> list[float]:
    """The counts of a block of the system, numbered within it, by a sparse
    LU of its (I - P)^T, with the flows into it as the right-hand side."""
    # imported here, not at module load, as in automata
    import numpy as np
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import MatrixRankWarning, spsolve

    n = len(diagonal)
    entries = [(i, i, d) for i, d in enumerate(diagonal)]
    entries += [(i, j, -p) for i, edges in enumerate(incoming) for j, p in edges]
    rows, columns, values = zip(*entries)
    system = csc_matrix((values, (rows, columns)), shape=(n, n))
    with warnings.catch_warnings():
        # a float-singular system yields NaN counts; the residual check reports it
        warnings.simplefilter("ignore", MatrixRankWarning)
        return spsolve(system, np.array(flows)).tolist()


def _backward_error(diagonal, incoming, counts) -> float:
    """sdfa_entropy's residual, each row of A c - e summed by fsum; nan on nan counts."""
    error = max(
        abs(math.fsum([d * c, -(i == 0), *(-p * counts[j] for j, p in edges)]))
        for i, (d, c, edges) in enumerate(zip(diagonal, counts, incoming))
    )
    norm = max(
        abs(d) + math.fsum(abs(p) for _, p in edges) for d, edges in zip(diagonal, incoming)
    )
    return error / (norm * max(map(abs, counts)) + 1.0)


def conjunction(prob_source: Sdfa, structure: Sdfa) -> Sdfa:
    """Restrict prob_source to traces also possible in structure.

    The shape is the trimmed product of the two, weighted by prob_source:
    the pairs of states along labels with positive probability on both
    sides that can still reach positive termination on both. Each keeps
    prob_source's probabilities, renormalized by the surviving mass, so the
    result is again a distribution. EmptyConjunction when no trace has
    positive probability in both; StateSpaceExceeded beyond 10**6 pairs.
    """
    rows = _trim(_product(prob_source._weights, structure._weights))
    if _empty(rows):
        raise EmptyConjunction("no trace has positive probability in both inputs")
    return _sdfa(rows, prob_source.alphabet & structure.alphabet)


def stochastic_precision_recall(
    rel: Sdfa | EventLog | StochasticPetriNet, ret: Sdfa | EventLog | StochasticPetriNet
) -> PrecisionRecall:
    """Entropy quotients of the two conjunctions against their sources.

    Each side is an Sdfa, an EventLog or a StochasticPetriNet, taken by
    _distribution. recall = H(conjunction(rel, ret)) / H(rel), precision
    the mirror image; an empty conjunction (disjoint supports) maps to 0/0.
    A model with a state that cannot terminate raises NonTerminatingSdfa
    unless the supports are disjoint (see _precision_recall).
    """
    return measures.PrecisionRecall(*_precision_recall(_distribution(rel), _distribution(ret)))


def _distribution(side):
    """side as _precision_recall takes it: an Sdfa as it is, a log once
    _traces finds it not empty, a stochastic net as its Sdfa; else TypeError."""
    if isinstance(side, Sdfa) or (isinstance(side, EventLog) and _traces(side)):
        return side
    if not isinstance(side, petri.StochasticPetriNet):
        raise TypeError(f"not an Sdfa, EventLog or StochasticPetriNet: {type(side).__name__}")
    return petri.stochastic_rg_to_sdfa(side)


def _precision_recall(rel, ret, sides=("precision", "recall")) -> list[float]:
    """Each named side's entropy quotient, of two sides as _distribution
    gives them, an Sdfa or an EventLog: "recall" scores the conjunction
    weighted by rel against rel's own entropy, "precision" the mirror image.

    A log is its counted trie, so its own distribution and its conjunction
    with either side are trees, each solved by one walk over its rows; two
    Sdfas make the trimmed product of their rows, weighted by the named
    side. An unnamed Sdfa's own entropy is still solved, by the public
    sdfa_entropy: there a model that cannot terminate is rejected, and a
    traced run reads the model's entropy. rel is taken before ret, and a
    named side's shared entropy before its own, so the first error raised
    is the same whatever is named and whatever the sides' forms.
    """
    sources = (rel, ret)
    rows = [_log_rows(s) if isinstance(s, EventLog) else s._weights for s in sources]
    logs = [i for i, s in enumerate(sources) if isinstance(s, EventLog)]
    if not logs:
        # each named side's conjunction, weighted by that side; both have
        # the same pairs, so one is empty when the other is
        shared = {
            name: _trim(_product(rows[i], rows[1 - i]))
            for i, name in enumerate(("recall", "precision"))
            if name in sides
        }
        if any(map(_empty, shared.values())):
            return [0.0 for _ in sides]
    else:
        # the shared prefixes are walked on a log's rows, rel's if both are logs
        t = logs[0]
        tree, other = rows[t], rows[1 - t]
        kept = _pair(sources[t], tree, other)
        if not kept:
            return [0.0 for _ in sides]
    values = {}
    for i, (name, side) in enumerate(zip(("recall", "precision"), sources)):
        if name in sides:
            if not logs:
                bits = _entropy(_weighted(shared[name])).bits
            else:
                bits = _tree_bits(tree, kept, other, i != t)
            own = sdfa_entropy(side).bits if isinstance(side, Sdfa) else _tree_bits(rows[i])
            values[name] = _quotient(bits, own)
        elif isinstance(side, Sdfa):
            sdfa_entropy(side)
    return [values[name] for name in sides]


def _pair(log, tree, other) -> dict:
    """Each prefix of tree, log's rows, on a trace that walks through
    other, a log's rows or an Sdfa's, to a positive stop weight, mapped to
    other's row there; empty when no trace does."""
    kept = {}
    for trace in log.entries:
        if _accepts(other, trace):
            i = j = kept[0] = 0
            for label in trace:
                i, j = tree[i][1][label][0], other[j][1][label][0]
                kept[i] = j
    return kept


def _tree_bits(tree, kept=None, other=None, by_other=False) -> float:
    """Entropy in bits of a tree laid out in rows of (stop weight, {label:
    (child, weight)}), a log's or an exact tree's from _entropy: all of
    tree, or the prefixes in kept, each weighted by its own row or, if
    by_other, by the row of other that kept maps it to. A kept prefix keeps
    its kept children at their full weight, and its stop if both sides stop
    there, so its total is renormalized as a conjunction's are. A visit
    count is its parent's times w / total, which is _visit_counts' fsum of
    one in-edge divided by a diagonal of 1.0, and a local entropy is the
    fsum of _visit_system's terms, so the bits are the system's to the
    bit."""
    terms, stack = [], [(0, 1.0)]
    while stack:
        i, count = stack.pop()
        stop, edges = tree[i]
        # a prefix with one outcome in the log has one in every tree walked:
        # p = 1.0 passes the count on as it is, and the local entropy is
        # fsum([-0.0]) = 0.0, a term that fsum drops
        while len(edges) == 1 and not stop:
            ((i, _),) = edges.values()
            stop, edges = tree[i]
        if not edges:
            continue
        if kept is not None:
            theirs = other[kept[i]]
            row = theirs if by_other else tree[i]
            stop = row[0] if stop and theirs[0] else 0
            edges = {x: (j, row[1][x][1]) for x, (j, _) in edges.items() if j in kept}
        total = stop + sum([w for _, w in edges.values()])
        local = [_plog2p(w, total) for _, w in edges.values()]
        if stop:
            local.append(_plog2p(stop, total))
        terms.append(count * math.fsum(local))
        stack += [(j, count * (w / total)) for j, w in edges.values()]
    bits = math.fsum(terms)
    if not math.isfinite(bits):
        raise NotConverged("entropy overflows a float")
    return bits


def trace_probability(a: Sdfa, t: Trace) -> Fraction:
    """Probability the SDFA assigns to one trace; exact, 0 on a missing step."""
    from fractions import Fraction

    return Fraction(*_trace_weight(a, t))


def _trace_weight(a: Sdfa, t: Trace) -> tuple[int, int]:
    """trace_probability as an unreduced (numerator, denominator) pair,
    (0, 1) on a missing step."""
    state, numerator, denominator = 0, 1, 1
    for label in t:
        _, edges, total = a._weights[state]
        step = edges.get(label)
        if step is None:
            return 0, 1
        state, w = step
        numerator, denominator = numerator * w, denominator * total
    stop, _, total = a._weights[state]
    return numerator * stop, denominator * total


def entropic_relevance(log: EventLog, model: Sdfa) -> RelevanceValue:
    """Average bits to encode a log trace with the model as the coder.

    A trace the model can produce costs -log2 of its model probability; a
    trace it cannot costs a uniform background code over the log's alphabet
    plus a terminator, (len+1)*log2(|alphabet|+1). On top comes the entropy
    of the one-bit fitting/non-fitting selector. Instances count with
    multiplicity, so duplicated traces weigh double.
    """
    total = log.total_instances()
    if total == 0:
        raise EmptyLog("cannot score an empty log")
    background_bits = math.log2(len(log.alphabet) + 1)
    fitting = 0
    cost_sum = 0.0
    for trace, count in sorted(log.entries.items()):
        numerator, denominator = _trace_weight(model, trace)
        if numerator:
            fitting += count
            cost_sum += count * -_log2(numerator, denominator)
        else:
            cost_sum += count * (len(trace) + 1) * background_bits
    selector = 0.0
    for part in (fitting, total - fitting):
        if part:
            selector -= part / total * _log2(part, total)
    avg = cost_sum / total
    return RelevanceValue(
        bits=selector + avg, selector_bits=selector, avg_trace_bits=avg
    )
