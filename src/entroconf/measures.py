"""Non-stochastic conformance measures.

A trace collection is scored by the asymptotic growth rate of its
short-circuited language; precision and recall are quotients of the growth
factors of the shared behavior against retrieved and relevant behavior.
The variants differ only in a preprocessing step: exact matching compares
languages as-is, partial matching closes both under arbitrary symbol
deletion, controlled partial matching under a per-side deletion budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .automata import (
    UNBOUNDED,
    Dfa,
    determinize,
    product,
    short_circuit,
    skip_closure,
    trim,
)
from .errors import NotConverged

# numpy and scipy are imported inside the kernels, as in automata
if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITERATIONS = 10**6


@dataclass(frozen=True)
class EntropyValue:
    """Topological entropy in bits per symbol, with an empty-language flag."""

    bits_per_symbol: float
    empty_language: bool = False

    def __post_init__(self) -> None:
        if self.empty_language and self.bits_per_symbol != 0.0:
            raise ValueError("the empty language has zero entropy")


@dataclass(frozen=True)
class PrecisionRecall:
    precision: float
    recall: float


def spectral_radius(
    m,
    tol: float = DEFAULT_TOL,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> float:
    """Perron root of a nonnegative square matrix, to relative tolerance tol.

    The matrix may be a dense array-like or a scipy sparse matrix; either
    way it is stored as CSR without explicit zeros, so only nonzero entries
    link states. Power iteration on (M + I) with an all-ones start vector;
    the +I shift makes periodic graphs (pure cycles) converge. Iteration runs
    per strongly connected component on sparse blocks because the two-sided
    Rayleigh bounds that certify the tolerance are only valid on irreducible
    blocks; the radius of the whole matrix is the maximum over components.
    """
    import numpy as np
    from scipy.sparse import csr_matrix

    shape = np.shape(m)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError("matrix must be square")
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = csr_matrix(m, dtype=float, copy=True)
    a.eliminate_zeros()
    if a.nnz and a.data.min() < 0:
        raise ValueError("matrix must be nonnegative")
    return _perron_root(a, tol, max_iterations)


def _perron_root(
    a: csr_matrix,
    tol: float = DEFAULT_TOL,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> float:
    """spectral_radius of a square nonnegative CSR matrix with no stored zeros."""
    import numpy as np
    from scipy.sparse import identity
    from scipy.sparse.csgraph import connected_components

    if a.shape[0] == 0:
        return 0.0
    _, labels = connected_components(a, directed=True, connection="strong")
    sizes = np.bincount(labels)
    # a singleton component's radius is its self-loop count
    best = float(a.diagonal()[sizes[labels] == 1].max(initial=0.0))
    members = np.argsort(labels, kind="stable")
    ends = np.cumsum(sizes)
    for comp in np.flatnonzero(sizes > 1):
        idx = members[ends[comp] - sizes[comp] : ends[comp]]
        block = a[idx][:, idx] + identity(idx.size, format="csr")
        v = np.ones(idx.size)
        for _ in range(max_iterations):
            w = block @ v
            ratios = w / v
            lo = float(ratios.min())
            hi = float(ratios.max())
            if hi - lo <= tol * hi:
                best = max(best, (lo + hi) / 2.0 - 1.0)
                break
            v = w / w.max()
        else:
            raise NotConverged(
                f"spectral radius not within {tol} after {max_iterations} iterations"
            )
    return best


def _growth_factor(a: Dfa) -> tuple[float, bool]:
    """Growth factor (2 ** entropy) of a language and its emptiness flag."""
    t = trim(a)
    if not t.accepting:
        return 0.0, True
    return _perron_root(short_circuit(t).adjacency), False


def topological_entropy(a: Dfa) -> EntropyValue:
    """Short-circuit topological entropy of the language of a DFA.

    Trim, add one back edge per accepting state, take log2 of the Perron
    root of the resulting adjacency matrix. The empty language reports
    (0, emptyLanguage); finite languages come out at 0 bits only when they
    hold a single word, since the back edges let distinct words compound.
    """
    growth, empty = _growth_factor(a)
    if empty:
        return EntropyValue(0.0, empty_language=True)
    # trimmed short-circuited graphs have growth >= 1; guard against the
    # iteration midpoint landing a hair below it
    return EntropyValue(max(0.0, math.log2(growth)), False)


def _quotient(shared: tuple[float, bool], denominator: tuple[float, bool]) -> float:
    """Growth-factor ratio with the degenerate-language convention.

    The shared language is included in the denominator one, so an empty
    denominator forces an empty numerator: identical inputs stay at 1 all
    the way down to two empty languages. A non-empty denominator with an
    empty shared language is genuine disagreement, hence 0. Inclusion also
    bounds the ratio by 1; the clamp only absorbs iteration roundoff.
    """
    shared_growth, shared_empty = shared
    denominator_growth, denominator_empty = denominator
    if denominator_empty:
        return 1.0
    if shared_empty:
        return 0.0
    return min(1.0, shared_growth / denominator_growth)


def exact_precision_recall(rel: Dfa, ret: Dfa) -> PrecisionRecall:
    """Precision and recall of exactly matching traces.

    shared = product(rel, ret); precision scores shared against retrieved,
    recall against relevant.
    """
    shared = _growth_factor(product(rel, ret))
    return PrecisionRecall(
        precision=_quotient(shared, _growth_factor(ret)),
        recall=_quotient(shared, _growth_factor(rel)),
    )


def partial_precision_recall(rel: Dfa, ret: Dfa) -> PrecisionRecall:
    """Exact measure after closing both languages under symbol deletion.

    Every trace collection is widened to all subtraces (subsequences) of
    its traces before comparison.
    """
    return exact_precision_recall(
        determinize(skip_closure(trim(rel), UNBOUNDED)),
        determinize(skip_closure(trim(ret), UNBOUNDED)),
    )


def controlled_partial_precision_recall(
    rel: Dfa, ret: Dfa, skips_rel: int, skips_ret: int
) -> PrecisionRecall:
    """Partial matching with per-side deletion budgets.

    skips_rel and skips_ret bound how many symbols may be dropped from a
    relevant resp. retrieved trace; budgets of zero reproduce the exact
    measure.
    """
    return exact_precision_recall(
        determinize(skip_closure(trim(rel), skips_rel)),
        determinize(skip_closure(trim(ret), skips_ret)),
    )
