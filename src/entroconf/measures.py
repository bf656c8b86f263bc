"""Non-stochastic conformance measures.

A trace collection is scored by the asymptotic growth rate of its
short-circuited language; precision and recall are quotients of the growth
factors of the shared behavior against retrieved and relevant behavior.
The variants differ only in the per-side deletion budgets that close each
language first: exact matching has budgets 0, which leave it as it is,
partial matching UNBOUNDED, controlled partial matching any pair of them.
"""

from __future__ import annotations

import math
from collections import Counter
from operator import itemgetter
from typing import TYPE_CHECKING

# petri runs only in _language, for a net side
from . import petri
from .automata import (
    UNBOUNDED,
    Dfa,
    EventLog,
    _accepts,
    _check_budget,
    _condensation,
    _determinized,
    _empty,
    _log_rows,
    _product,
    _quotient,
    _Record,
    _rows,
    _traces,
    _trim,
)
from .errors import NotConverged

if TYPE_CHECKING:
    from .petri import PetriNet

# _perron_root's relative tolerance, and its cap on power iterations
_TOL = 1e-9
_MAX_ITERATIONS = 10**6
# relative width at which a growth factor's bracket counts as converged
_WIDTH = 4 * math.ulp(1.0)


class EntropyValue(_Record):
    """Topological entropy in bits per symbol, with an empty-language flag."""

    bits_per_symbol: float
    empty_language: bool

    def __init__(self, bits_per_symbol, empty_language=False) -> None:
        object.__setattr__(self, "bits_per_symbol", bits_per_symbol)
        object.__setattr__(self, "empty_language", empty_language)
        if empty_language and bits_per_symbol != 0.0:
            raise ValueError("the empty language has zero entropy")


class PrecisionRecall(_Record):
    precision: float
    recall: float

    def __init__(self, precision, recall) -> None:
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "recall", recall)


def spectral_radius(m) -> float:
    """Perron root of a finite nonnegative square matrix, to relative tolerance 1e-9.

    The matrix may be a dense array-like or a scipy sparse matrix; either
    way it is stored as CSR without explicit zeros, so only nonzero entries
    link states. The radius of the whole matrix is the maximum over the
    _condensation components of those entries: a single state's is its
    diagonal entry, a larger component's the _perron_root of its block.
    """
    # imported here, not at module load, so that runs with no cyclic
    # growth factor start without numpy and scipy
    import numpy as np
    from scipy.sparse import csr_matrix

    shape = np.shape(m)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError("matrix must be square")
    a = csr_matrix(m, dtype=float, copy=True)
    a.eliminate_zeros()
    if not np.isfinite(a.data).all():
        raise ValueError("matrix must be finite")
    if a.nnz and a.data.min() < 0:
        raise ValueError("matrix must be nonnegative")
    columns, bounds, diagonal = a.indices.tolist(), a.indptr.tolist(), a.diagonal().tolist()
    best = 0.0
    for members in _condensation([columns[i:j] for i, j in zip(bounds, bounds[1:])]):
        if len(members) == 1:
            best = max(best, diagonal[members[0]])
        else:
            idx = np.array(members)
            best = max(best, _perron_root(a[idx][:, idx]))
    return best


def _perron_root(block) -> float:
    """Perron root of an irreducible nonnegative float csr_matrix, to
    relative tolerance _TOL: power iteration on (block + I) from an all-ones
    vector, where the +I shift makes periodic graphs (pure cycles) converge.
    The two-sided Rayleigh bounds that certify the tolerance are valid
    because the block is irreducible. NotConverged after _MAX_ITERATIONS.
    """
    import numpy as np
    from scipy.sparse import identity

    shifted = block + identity(block.shape[0], format="csr")
    v = np.ones(block.shape[0])
    for _ in range(_MAX_ITERATIONS):
        w = shifted @ v
        ratios = w / v
        lo = float(ratios.min())
        hi = float(ratios.max())
        if hi - lo <= _TOL * hi:
            return (lo + hi) / 2.0 - 1.0
        v = w / w.max()
    raise NotConverged(f"spectral radius not within {_TOL} after {_MAX_ITERATIONS} iterations")


def _growth_factor(a) -> float:
    """Growth factor (2 ** entropy) of a language, 0 for the empty language.

    a is trimmed, canonically numbered rows, or a finite set of words,
    solved from its length profile by _words_growth_factor. Rows have the
    Perron root of their graph plus one back edge per accepting state: by
    _perron_root of that short-circuit graph on a cycle, a self-loop
    included, and directly, in pure Python, for a finite language: with A
    the adjacency and g = (I - xA)^-1 acc, the determinant lemma gives
    det(I - x(A + acc e0')) = det(I - xA) (1 - x g0(x)), so the root is 1/x*
    where F(x) = x g0(x) = 1; F(x) sums x ** (|w| + 1) over the words w.
    A tree, with one edge fewer than states, holds one word per accepting
    state, as long as its depth, and is solved from those depths with the
    same bits as its set of words; other acyclic rows by _back_substitution.
    """
    if not isinstance(a, list):
        return _words_growth_factor(Counter(map(len, a)))
    if _empty(a):
        return 0.0
    out = [[j for j, _ in row[1].values()] for row in a]
    if sum(map(len, out)) == len(a) - 1:
        # breadth-first numbering lists each state after its parent
        depth = [0] * len(a)
        for i, succ in enumerate(out):
            for j in succ:
                depth[j] = depth[i] + 1
        return _words_growth_factor(Counter([depth[i] for i, row in enumerate(a) if row[0]]))
    order = _acyclic_order(out)
    accepting = [float(bool(row[0])) for row in a]
    if order is None:
        # trim rows reach an accepting state from each state, and its back
        # edge leads to state 0, so the short-circuit graph is one
        # irreducible block, which needs no condensation. A sparse LU of
        # I - xA would fill in far beyond the edge count on the reachability
        # graphs of concurrent nets. The power iteration's rounding depends
        # on the numbering, which is canonical.
        from scipy.sparse import csr_matrix

        edges = [(i, j) for i, succ in enumerate(out) for j in succ]
        edges += [(i, 0) for i, acc in enumerate(accepting) if acc]
        rows, cols = zip(*edges)
        return _perron_root(csr_matrix(([1.0] * len(edges), (rows, cols)), shape=(len(a),) * 2))
    # the short-circuit graph's largest row sum bounds its Perron root
    lo = 1.0 / max(len(succ) + acc for succ, acc in zip(out, accepting))
    return 1.0 / _root(_back_substitution(out, accepting, order), lo)


def _words_growth_factor(lengths: Counter) -> float:
    """Growth factor of a finite set of words, from the Counter of their
    lengths alone: F(x) (see _growth_factor) sums c_n * x ** (n + 1) over
    the profile, c_n words of length n, one term per distinct length. Every
    term is at most c_n * x on (0, 1], so 1 / (number of words) is a lower
    bound on the root. Each sum is an fsum, exact before its one rounding,
    so the value does not depend on the order of the lengths.
    """
    if not lengths:
        return 0.0
    profile = lengths.items()

    def evaluate(x: float):
        # x is in (0, 1], so no power overflows
        f = math.fsum([c * x ** (n + 1) for n, c in profile])
        return f, math.fsum([c * (n + 1) * x**n for n, c in profile])

    return 1.0 / _root(evaluate, 1.0 / lengths.total())


def _acyclic_order(out: list[list[int]]) -> list[int] | None:
    """The states, each after its successors, from _condensation, or None on
    a cycle: a component of two states or more, or a self-loop."""
    order = [i for i, *rest in _condensation(out) if not rest and i not in out[i]]
    return order if len(order) == len(out) else None


def _back_substitution(out, accepting, order):
    """evaluate(x) = (F(x), F'(x)) of a trimmed acyclic automaton, whose
    initial state 0 comes last in order.

    g_i = acc_i + x * (sum of g_j over the successors j), and g' alongside,
    by one pass over order. Each state's terms are summed with fsum, which
    is exact before its one rounding, so isomorphic automata give
    bit-identical values whatever the order of their transitions.
    """
    steps = []
    for i in order:
        succ = out[i]
        # a single successor's value comes back bare, several as a tuple
        gather = itemgetter(*succ) if succ else lambda values: ()
        steps.append((i, gather, len(succ) != 1, accepting[i]))

    def evaluate(x: float):
        g = [0.0] * len(out)
        dg = [0.0] * len(out)
        try:
            for i, gather, several, acc in steps:
                s, ds = gather(g), gather(dg)
                if several:
                    s, ds = math.fsum(s), math.fsum(ds)
                g[i] = acc + x * s
                dg[i] = s + x * ds
        except OverflowError:
            return None
        f = x * g[0]
        return (f, g[0] + x * dg[0]) if math.isfinite(f) else None

    return evaluate


def _root(evaluate, lo: float) -> float:
    """The root of F(x) = 1, as the nearer end of a certified bracket [lo, hi].

    evaluate(x) returns (F(x), F'(x)), or None when F(x) overflows, which
    puts x above the root. lo must be a lower bound; 1 is an upper one, as
    every growth factor is at least 1, and the root is 1 only when lo is. F
    is a polynomial with nonnegative coefficients, so log F is increasing
    and convex in log x: its tangent at either end meets 0 above the root
    and the secant between the ends meets it below. Each round tries the
    nearer tangent root, then the secant root, and bisects if the round did
    not halve the bracket, which bounds the number of solves; the loop ends
    within a few ulps of the root.
    """

    def value(x: float):
        """F(x), inf on overflow, and (log F, its slope in log x) when finite."""
        result = evaluate(x)
        if result is None:
            return math.inf, None
        f, df = result
        if 0.0 < f < math.inf and 0.0 < df < math.inf:
            return f, (math.log(f), x * df / f)
        return f, None

    def tangent() -> float:
        ends = ((lo, lo_fit), (hi, hi_fit))
        return min(
            (x * math.exp(-fit[0] / fit[1]) for x, fit in ends if fit),
            default=math.nan,
        )

    def secant() -> float:
        if not (lo_fit and hi_fit):
            return math.nan
        t_lo = math.log(lo)
        shift = lo_fit[0] * (t_lo - math.log(hi)) / (hi_fit[0] - lo_fit[0])
        return math.exp(t_lo + shift)

    def midpoint() -> float:
        return (lo + hi) / 2.0

    f, lo_fit = value(lo)
    if f == math.inf:
        raise NotConverged(f"growth factor solve failed at its lower bound {lo!r}")
    if f >= 1.0:  # the root is on the bound, up to rounding
        return lo
    hi, hi_fit = 1.0, None
    while hi - lo > _WIDTH * hi:
        width = hi - lo
        for step in (tangent, secant, midpoint):
            if step is midpoint and hi - lo <= width / 2.0:
                break
            # a step that lands on an end probes just inside it instead, so
            # that an end already at the root brings the other one close
            margin = _WIDTH * hi / 4.0
            x = min(max(step(), lo + margin), hi - margin)
            if not lo < x < hi:  # a step of nan
                continue
            f, fit = value(x)
            if f == 1.0:
                return x
            if f > 1.0:
                hi, hi_fit = x, fit
            else:
                lo, lo_fit = x, fit
    if lo_fit and hi_fit and -lo_fit[0] < hi_fit[0]:
        return lo
    return hi


def topological_entropy(a: Dfa) -> EntropyValue:
    """Short-circuit topological entropy of the language of a DFA.

    Trim, add one back edge per accepting state, take log2 of the Perron
    root of the resulting adjacency matrix. The empty language reports
    (0, emptyLanguage); finite languages come out at 0 bits only when they
    hold a single word, since the back edges let distinct words compound.
    """
    growth = _growth_factor(_trim(_rows(a)))
    if not growth:
        return EntropyValue(0.0, empty_language=True)
    # trimmed short-circuited graphs have growth >= 1; guard against the
    # iteration midpoint landing a hair below it
    return EntropyValue(max(0.0, math.log2(growth)), False)


def exact_precision_recall(
    rel: Dfa | EventLog | PetriNet, ret: Dfa | EventLog | PetriNet
) -> PrecisionRecall:
    """Precision and recall of exactly matching traces, controlled partial
    matching with budgets 0: precision scores the growth factor of the
    shared language (see _shared) against retrieved, recall against relevant.
    """
    return controlled_partial_precision_recall(rel, ret, 0, 0)


def partial_precision_recall(
    rel: Dfa | EventLog | PetriNet, ret: Dfa | EventLog | PetriNet
) -> PrecisionRecall:
    """Exact measure after closing both languages under symbol deletion.

    Every trace collection is widened to all subtraces (subsequences) of
    its traces before comparison.
    """
    return controlled_partial_precision_recall(rel, ret, UNBOUNDED, UNBOUNDED)


def controlled_partial_precision_recall(
    rel: Dfa | EventLog | PetriNet,
    ret: Dfa | EventLog | PetriNet,
    skips_rel: int,
    skips_ret: int,
) -> PrecisionRecall:
    """Partial matching with per-side deletion budgets.

    skips_rel and skips_ret bound how many symbols may be dropped from a
    relevant resp. retrieved trace, or are UNBOUNDED; budgets of zero
    reproduce the exact measure.
    """
    rel, ret = _language(rel, skips_rel), _language(ret, skips_ret)
    return PrecisionRecall(*_matching(rel, ret, (skips_rel, skips_ret)))


def _language(side, k):
    """side as _matching takes it under a deletion budget k: a Dfa as its
    trimmed rows, a log as its distinct traces when k is 0 and its counted
    trie otherwise, a net as the trimmed rows of its language; else TypeError."""
    if isinstance(side, Dfa):
        return _trim(_rows(side))
    if isinstance(side, EventLog):
        return _traces(side) if k == 0 else _log_rows(side)
    if not isinstance(side, petri.PetriNet):
        raise TypeError(f"not a Dfa, EventLog or PetriNet: {type(side).__name__}")
    _, edges, finals = petri._explored(side)
    return petri._net_rows(side, edges, finals)


def _matching(rel, ret, skips, sides=("precision", "recall")) -> list[float]:
    """Each named side's growth quotient, solving the shared factor once and
    only the named sides' own: "precision" scores the shared language
    against ret's, "recall" against rel's, once each is closed under its
    deletion budget in skips. rel and ret are as _language gives them under
    those budgets: rows, or a log's distinct traces, for which no automaton
    is built (see _shared).
    """
    rel, ret = _closure(rel, skips[0]), _closure(ret, skips[1])
    shared = _growth_factor(_shared(rel, ret))
    own = {"precision": ret, "recall": rel}
    return [_quotient(shared, _growth_factor(own[side])) for side in sides]


def _shared(rel, ret):
    """The words both sides accept: the trimmed product of two sides' rows,
    the intersection of two sets, or the words of a set that rows accept."""
    if isinstance(rel, list):
        if isinstance(ret, list):
            return _trim(_product(rel, ret))
        rel, ret = ret, rel
    if isinstance(ret, list):
        return {word for word in rel if _accepts(ret, word)}
    return rel & ret


def _closure(a, k):
    """The trimmed rows of the subset construction of a's closure under
    deleting up to k symbols per word, read from a's rows as it goes: state
    q = s * copies + used is state s of a with used of k deletions spent,
    or s itself when k is UNBOUNDED, and each labelled edge has a silent
    twin that spends one deletion. a is read as built and must be trim, as
    _language's rows are. An acyclic a's k is lowered to its longest word,
    as the copies past it are unreachable. A checked k of 0 closes nothing:
    a, a set of traces or rows, is returned.
    """
    if k == 0:
        _check_budget(k, 0)
        return a
    out = [[j for j, _ in row[1].values()] for row in a]
    order = _acyclic_order(out) if isinstance(k, int) else None
    if order is not None:
        height = [0] * len(out)
        for i in order:
            height[i] = max((height[j] + 1 for j in out[i]), default=0)
        k = min(k, height[0])
    _check_budget(k, len(a))
    copies, skip = (1, 0) if k is UNBOUNDED else (k + 1, 1)

    def silent(q):
        s, used = divmod(q, copies)
        return [j * copies + used + skip for j in out[s]] if k is UNBOUNDED or used < k else ()

    def moves(q):
        s, used = divmod(q, copies)
        return [(label, j * copies + used) for label, (j, _) in a[s][1].items()]

    return _trim(_determinized([0], silent, moves, lambda q: a[q // copies][0]))
