"""Stochastic conformance measures on weighted trace distributions.

An Sdfa assigns each trace a probability: the product of its transition
probabilities times the termination probability where it ends. Entropy of
that distribution is computed in closed form from expected state visit
counts rather than by enumerating traces. Precision and recall quotient the
entropy of a conjunction (one side's probabilities restricted to the other
side's support) against the operand entropies; entropic relevance prices a
log against a model as an average per-trace compression cost.

Every SDFA built here is a canonical language automaton of automata plus
exact weights, normalized per state; a conjunction's automaton is the
trimmed product of the two supports. Probabilities are exact fractions
everywhere outside the entropy numerics, so construction-level identities
(per-state sums, renormalization by mass 1) hold exactly, not within a
tolerance.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .automata import Dfa, EventLog, Trace, _reachable, log_to_dfa, product, trim
from .errors import EmptyConjunction, EmptyLog, NonTerminatingSdfa, NotConverged
from .measures import PrecisionRecall, _quotient, _reverse_topological_order

_SUM_TOLERANCE = Fraction(1, 10**9)
_BACKWARD_ERROR_TOL = 1e-9


@dataclass(frozen=True)
class Sdfa:
    """Stochastic DFA: transitions map (state, label) to (state, probability).

    Per state, termination plus outgoing probabilities must sum to 1;
    parsed inputs are allowed 1e-9 of slack, internal constructions are
    exact. States absent from the termination map terminate with 0.
    """

    states: frozenset
    alphabet: frozenset[str]
    initial: object
    transitions: Mapping[tuple[object, str], tuple[object, Fraction]]
    termination: Mapping[object, Fraction]
    # state -> its positive-probability (label, dst, prob) edges by label
    _out: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.initial not in self.states:
            raise ValueError("initial state missing from state set")
        sums = {s: self.termination.get(s, Fraction(0)) for s in self.states}
        for value in sums.values():
            if not 0 <= value <= 1:
                raise ValueError("termination probability outside [0, 1]")
        out: dict = {}
        for (src, label), (dst, prob) in self.transitions.items():
            if src not in self.states or dst not in self.states:
                raise ValueError("transition endpoint missing from state set")
            if not 0 <= prob <= 1:
                raise ValueError("transition probability outside [0, 1]")
            sums[src] += prob
            if prob > 0:
                out.setdefault(src, []).append((label, dst, prob))
        violations = [s for s, total in sums.items() if abs(total - 1) > _SUM_TOLERANCE]
        if violations:
            # the least state by name, so the message does not depend on set order;
            # a float, since an exact sum can have more digits than str() prints
            state = min(violations, key=str)
            raise ValueError(
                f"probabilities at state {state} sum to {float(sums[state]):.12g}, not 1"
            )
        # labels are unique per state, so the tuples sort by label alone
        object.__setattr__(self, "_out", {s: sorted(e) for s, e in out.items()})

    def out_edges(self, state) -> list[tuple[str, object, Fraction]]:
        """Positive-probability outgoing edges, sorted by label."""
        return list(self._out.get(state, ()))


@dataclass(frozen=True)
class StochasticEntropy:
    bits: float
    residual: float  # normwise backward error of the visit-count solve


@dataclass(frozen=True)
class RelevanceValue:
    """Average per-trace encoding cost, split into its two summands."""

    bits: float
    selector_bits: float
    avg_trace_bits: float


def _weighted(shape: Dfa, initial, weights, stops) -> Sdfa:
    """The SDFA of a canonical language automaton and a weighted source model.

    shape's state 0 stands for the source state initial, and each edge of
    shape for the edge of its label in the source, which weights maps as
    (source state, label) -> (source target, weight). stops maps each
    source state that shape accepts to its termination weight. A state's
    probabilities are its weights divided by their sum over its edges in
    shape and its termination. One pass over shape's transitions, which
    every construction in automata lists in breadth-first order, maps each
    state of shape to its source state.
    """
    sources = [initial]
    edges = []
    for (i, label), j in shape.transitions.items():
        target, weight = weights[sources[i], label]
        if j == len(sources):
            sources.append(target)
        edges.append((i, label, j, weight))
    stop = {i: stops[sources[i]] for i in shape.accepting}
    totals = [stop.get(i, 0) for i in range(len(sources))]
    for i, _, _, weight in edges:
        totals[i] += weight
    return Sdfa(
        states=shape.states,
        alphabet=shape.alphabet,
        initial=0,
        transitions={
            (i, label): (j, Fraction(weight, totals[i])) for i, label, j, weight in edges
        },
        termination={i: Fraction(weight, totals[i]) for i, weight in stop.items()},
    )


def _support(a: Sdfa) -> Dfa:
    """The language automaton of a's positive-probability traces."""
    return Dfa(
        states=a.states,
        alphabet=a.alphabet,
        initial=a.initial,
        accepting=frozenset(s for s, p in a.termination.items() if p > 0) & a.states,
        transitions={key: dst for key, (dst, p) in a.transitions.items() if p > 0},
    )


def log_to_sdfa(log: EventLog) -> Sdfa:
    """Frequency prefix tree of a log: log_to_dfa's, weighted by instances.

    Transition probability out of a prefix state is the fraction of
    instances continuing with that label among instances reaching the
    prefix; termination is the fraction ending there. Sums are exactly 1
    by construction.
    """
    shape = log_to_dfa(log)
    reaching = [0] * len(shape.states)
    ending: dict[int, int] = {}
    for trace, count in log.entries.items():
        state = 0
        reaching[0] += count
        for label in trace:
            state = shape.transitions[state, label]
            reaching[state] += count
        ending[state] = ending.get(state, 0) + count
    weights = {key: (dst, reaching[dst]) for key, dst in shape.transitions.items()}
    return _weighted(shape, 0, weights, ending)


def _log2(value: Fraction) -> float:
    # math.log2 on the integer parts keeps huge/tiny fractions in range
    return math.log2(value.numerator) - math.log2(value.denominator)


def _plog2p(p: Fraction) -> float:
    # -p log2 p without float(p)'s rounding near 1 or its underflow near 0
    q = float(p)
    return -q * (math.log1p(float(p - 1)) / math.log(2) if q > 0.5 else _log2(p))


def sdfa_entropy(a: Sdfa) -> StochasticEntropy:
    """Shannon entropy in bits of the trace distribution of an SDFA.

    H = sum over states of (expected visit count) * (local entropy of the
    state's outgoing-plus-termination distribution). The counts c solve
    (I - P)^T c = e_initial, with each diagonal 1 - p(self-loop) taken on the
    exact fraction. I - P is nonsingular only when every reachable state can
    reach positive termination, so that is checked up front
    (NonTerminatingSdfa). When the only cycles are self-loops (a log, a
    conjunction with a log, a one-state loop) the system is triangular and
    one forward pass in topological order solves it, in pure Python; a
    longer cycle takes a sparse LU. NotConverged when the residual, the
    backward error ||A c - e||inf / (||A||inf ||c||inf + 1) of A =
    (I - P)^T, exceeds 1e-9, or when a diagonal is not positive as a float
    or a count or the sum is not finite.
    """
    diagonal, incoming, local = _visit_system(a)
    if not min(diagonal) > 0.0:
        # an exit probability below the float range, or a self-loop mass at
        # or above 1 within the parsed inputs' slack
        raise NotConverged("a state's exit probability is not positive as a float")
    # predecessors first, as every successor comes first in the reverse graph
    order = _reverse_topological_order([[j for j, _ in edges] for edges in incoming])
    try:
        if order is None:
            counts, residual = _sparse_counts(diagonal, incoming)
        else:
            counts, residual = _forward_counts(diagonal, incoming, order)
        if not residual <= _BACKWARD_ERROR_TOL:
            raise NotConverged(f"visit-count solve has backward error {residual:.3g}")
        bits = math.fsum(map(operator.mul, counts, local))
    except OverflowError:  # from fsum
        raise NotConverged("visit counts overflow a float") from None
    if not math.isfinite(bits):
        raise NotConverged("entropy overflows a float")
    return StochasticEntropy(bits, residual)


def _visit_system(a: Sdfa):
    """(I - P)^T over the reachable states, numbered from the initial state 0.

    Per state i: the diagonal 1 - P_ii, the in-edges (j, P_ji) with j != i,
    and the local entropy. Each sum is an fsum or exact, so no value depends
    on the order of the labels. NonTerminatingSdfa when a reachable state
    cannot reach positive termination, which makes the system singular.
    """
    reachable = _reachable((a.initial,), lambda s: (d for _, d, _ in a.out_edges(s)))
    position = {s: i for i, s in enumerate(reachable)}
    diagonal = []
    incoming: list[list[tuple[int, float]]] = [[] for _ in position]
    local = []
    for state, i in position.items():
        stay, terms = Fraction(0), []
        for _, dst, prob in a.out_edges(state):
            terms.append(_plog2p(prob))
            if dst == state:
                stay += prob
            else:
                incoming[position[dst]].append((i, float(prob)))
        term = a.termination.get(state, Fraction(0))
        if term > 0:
            terms.append(_plog2p(term))
        diagonal.append(float(1 - stay))
        local.append(math.fsum(terms))
    terminating = [i for s, i in position.items() if a.termination.get(s, Fraction(0)) > 0]
    if len(_reachable(terminating, lambda i: (j for j, _ in incoming[i]))) < len(position):
        raise NonTerminatingSdfa(
            "a reachable state has no positive-probability path to termination"
        )
    return diagonal, incoming, local


def _forward_counts(diagonal, incoming, order) -> tuple[list[float], float]:
    """Visit counts of a system whose only cycles are self-loops, and residual.

    c_i = (delta_i0 + sum_j c_j P_ji) / (1 - P_ii) along order, with every
    in-edge summed by fsum, so the counts do not depend on the numbering.
    The initial state 0 has no other in-edges, since any would close a cycle.
    """
    counts = [0.0] * len(diagonal)
    for i in order:
        inflow = math.fsum(counts[j] * p for j, p in incoming[i]) + (i == 0)
        counts[i] = inflow / diagonal[i]
    if not all(map(math.isfinite, counts)):
        raise NotConverged("visit counts overflow a float")
    return counts, _backward_error(diagonal, incoming, counts)


def _sparse_counts(diagonal, incoming) -> tuple[list[float], float]:
    """Visit counts of any system by a sparse LU of (I - P)^T, and residual."""
    # imported here, not at module load, as in automata
    import numpy as np
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import MatrixRankWarning, spsolve

    n = len(diagonal)
    entries = [(i, i, d) for i, d in enumerate(diagonal)]
    entries += [(i, j, -p) for i, edges in enumerate(incoming) for j, p in edges]
    rows, columns, values = zip(*entries)
    system = csc_matrix((values, (rows, columns)), shape=(n, n))
    e_initial = np.zeros(n)
    e_initial[0] = 1.0
    with warnings.catch_warnings():
        # a float-singular system yields NaN counts; the residual check reports it
        warnings.simplefilter("ignore", MatrixRankWarning)
        counts = spsolve(system, e_initial).tolist()
    return counts, _backward_error(diagonal, incoming, counts)


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


def _shared_shape(a: Sdfa, b: Sdfa) -> Dfa:
    """The trimmed product of the supports of a and b; EmptyConjunction if empty.

    It is the same Dfa for (b, a): product visits the same pairs along the
    same labels in the same order either way, and trim renumbers canonically.
    """
    shape = trim(product(_support(a), _support(b)))
    if not shape.accepting:
        raise EmptyConjunction("no trace has positive probability in both inputs")
    return shape


def conjunction(prob_source: Sdfa, structure: Sdfa) -> Sdfa:
    """Restrict prob_source to traces also possible in structure.

    The shape is the trimmed product of the two supports: pairs of states
    along labels that carry positive probability on both sides, without the
    pairs that cannot reach positive termination on both sides anymore. It
    keeps prob_source's probabilities, renormalized per state by the
    surviving mass, so the result is again a proper distribution.
    EmptyConjunction when no trace has positive probability in both inputs;
    StateSpaceExceeded when there are more than 10**6 pairs.
    """
    shape = _shared_shape(prob_source, structure)
    return _weighted(
        shape, prob_source.initial, prob_source.transitions, prob_source.termination
    )


def stochastic_precision_recall(rel: Sdfa, ret: Sdfa) -> PrecisionRecall:
    """Entropy quotients of the two conjunctions against their sources.

    recall = H(conjunction(rel, ret)) / H(rel), precision the mirror
    image; an empty conjunction (disjoint supports) maps to 0/0. Both
    conjunctions share one shape, which is built once.
    """
    try:
        shape = _shared_shape(rel, ret)
    except EmptyConjunction:
        return PrecisionRecall(precision=0.0, recall=0.0)
    recall, precision = (
        _quotient(
            sdfa_entropy(_weighted(shape, side.initial, side.transitions, side.termination)).bits,
            sdfa_entropy(side).bits,
        )
        for side in (rel, ret)
    )
    return PrecisionRecall(precision=precision, recall=recall)


def trace_probability(a: Sdfa, t: Trace) -> Fraction:
    """Probability the SDFA assigns to one trace; exact, 0 on a missing step."""
    state = a.initial
    prob = Fraction(1)
    for label in t:
        step = a.transitions.get((state, label))
        if step is None:
            return Fraction(0)
        state, p = step
        prob *= p
        if prob == 0:
            return Fraction(0)
    return prob * a.termination.get(state, Fraction(0))


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
    for trace in sorted(log.entries):
        count = log.entries[trace]
        probability = trace_probability(model, trace)
        if probability > 0:
            fitting += count
            cost_sum += count * -_log2(probability)
        else:
            cost_sum += count * (len(trace) + 1) * background_bits
    rho = Fraction(fitting, total)
    selector = 0.0
    for part in (rho, 1 - rho):
        if part > 0:
            selector -= float(part) * _log2(part)
    avg = cost_sum / total
    return RelevanceValue(
        bits=selector + avg, selector_bits=selector, avg_trace_bits=avg
    )
