"""Seeded input generators and independent reference values.

Each workload writes its input files from a seed and computes the value the
CLI must print from a closed form, without importing entroconf. The same
seed gives byte-identical files. Sizes are fixed per workload (trace-length
multisets, instance counts, net shape); the seed only picks letters,
interleavings and file order, so the work per invocation stays nearly the
same from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Prepared:
    """Generated inputs of one workload and what the CLI must print for them."""

    args: list[str]
    expected: float
    facts: dict
    traced_checks: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int, Path], Prepared]
    # per-layer metrics predicted to hold the most self time
    predicted_largest: tuple[str, ...]


# --- file writers ----------------------------------------------------------


def _xes(traces: list[tuple[str, ...]]) -> str:
    """XES text, one <trace> per instance in the given order."""
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        '<log xes.version="1.0" xmlns="http://www.xes-standard.org/">\n',
        '  <string key="concept:name" value="generated"/>\n',
    ]
    for case, trace in enumerate(traces):
        parts.append(f'  <trace>\n    <string key="concept:name" value="case-{case}"/>\n')
        for position, label in enumerate(trace):
            minute = (case * 37 + position) % 60
            parts.append(
                f'    <event><string key="concept:name" value="{label}"/>'
                '<string key="lifecycle:transition" value="complete"/>'
                f'<date key="time:timestamp" value="2020-01-01T00:{minute:02d}:00.000+00:00"/>'
                "</event>\n"
            )
        parts.append("  </trace>\n")
    parts.append("</log>\n")
    return "".join(parts)


def _net_document(places, transitions, arcs, weighted: bool) -> str:
    """PNML (or sPNML when weighted) from plain lists.

    places: (id, tokens); transitions: (id, label, weight); arcs: (src, dst).
    """
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<pnml xmlns="http://www.pnml.org/version-2009/grammar/pnml">',
        '  <net id="generated" type="http://www.pnml.org/version-2009/grammar/ptnet">',
        '    <page id="page0">',
    ]
    for ident, tokens in places:
        if tokens:
            lines.append(
                f'      <place id="{ident}"><initialMarking><text>{tokens}</text>'
                "</initialMarking></place>"
            )
        else:
            lines.append(f'      <place id="{ident}"/>')
    for ident, label, weight in transitions:
        tool = (
            f'<toolspecific tool="stochastic" version="1.0"><weight>{weight}</weight>'
            "</toolspecific>"
            if weighted
            else ""
        )
        lines.append(
            f'      <transition id="{ident}"><name><text>{label}</text></name>{tool}'
            "</transition>"
        )
    for number, (src, dst) in enumerate(arcs):
        lines.append(f'      <arc id="arc{number}" source="{src}" target="{dst}"/>')
    lines += ["    </page>", "  </net>", "</pnml>", ""]
    return "\n".join(lines)


def _write(path: Path, text: str) -> int:
    data = text.encode("utf-8")
    path.write_bytes(data)
    return len(data)


# --- closed forms ----------------------------------------------------------


def growth_factor(lengths: list[int]) -> float:
    """Growth factor of a finite language from its word lengths.

    The short-circuited prefix tree of a finite language has one cycle per
    word w, of length |w| + 1, all through the root; its Perron root is the
    unique lam >= 1 with sum_w lam ** -(|w| + 1) = 1.
    """
    by_length: dict[int, int] = {}
    for n in lengths:
        by_length[n + 1] = by_length.get(n + 1, 0) + 1

    def excess(lam: float) -> float:
        return sum(count * lam ** -cycle for cycle, count in by_length.items()) - 1.0

    lo, hi = 1.0, float(len(lengths)) + 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _entropy_bits(weights: list[float]) -> float:
    total = sum(weights)
    return -sum(w / total * math.log2(w / total) for w in weights if w > 0)


def restricted_tree_entropy(counts: dict[tuple[str, ...], int], supported) -> float:
    """Entropy of a log's prefix-tree distribution restricted to a support.

    Mirrors the definition of the conjunction of a log with a model: keep
    the log's probabilities on the branches that still lead to a supported
    trace, renormalize each prefix by its surviving mass, and take the
    Shannon entropy of the resulting trace distribution. Written as a
    recursion over the prefix tree, without automata or fixed points.
    """
    kept = {trace: count for trace, count in counts.items() if supported(trace)}
    children: dict[tuple[str, ...], dict[str, int]] = {}
    reaching: dict[tuple[str, ...], int] = {}
    ending: dict[tuple[str, ...], int] = {}
    for trace, count in counts.items():
        for i in range(len(trace) + 1):
            reaching[trace[:i]] = reaching.get(trace[:i], 0) + count
        ending[trace] = ending.get(trace, 0) + count
    alive = {()} if kept else set()
    for trace in kept:
        for i in range(len(trace) + 1):
            alive.add(trace[:i])
    for prefix in alive:
        if prefix:
            children.setdefault(prefix[:-1], {})[prefix[-1]] = reaching[prefix]

    # entropy(u) = local entropy at u + sum_child p(child) * entropy(child),
    # evaluated deepest prefixes first
    entropy: dict[tuple[str, ...], float] = {}
    for prefix in sorted(alive, key=len, reverse=True):
        outs = children.get(prefix, {})
        stop = ending.get(prefix, 0) if prefix in kept else 0
        weights = [stop, *outs.values()]
        mass = float(sum(weights))
        h = _entropy_bits([float(w) for w in weights])
        for label, weight in outs.items():
            h += weight / mass * entropy[prefix + (label,)]
        entropy[prefix] = h
    return entropy.get((), 0.0)


# --- lang-logs -------------------------------------------------------------

LANG_LOGS_SHARED = 100
LANG_LOGS_OWN = 100
LANG_LOGS_LETTERS = "abcdefgh"
LANG_LOGS_LENGTHS = range(5, 31)


def _distinct_words(rng: random.Random, lengths: list[int], letters: str, taken: set):
    words = []
    for n in lengths:
        while True:
            word = tuple(rng.choice(letters) for _ in range(n))
            if word not in taken:
                taken.add(word)
                words.append(word)
                break
    return words


def _cycled_lengths(rng: random.Random, count: int, lengths) -> list[int]:
    values = list(lengths)
    chosen = [values[i % len(values)] for i in range(count)]
    rng.shuffle(chosen)
    return chosen


def generate_lang_logs(seed: int, work: Path) -> Prepared:
    rng = random.Random(seed * 4 + 0)
    total = LANG_LOGS_SHARED + 2 * LANG_LOGS_OWN
    words = _distinct_words(
        rng, _cycled_lengths(rng, total, LANG_LOGS_LENGTHS), LANG_LOGS_LETTERS, set()
    )
    shared = words[:LANG_LOGS_SHARED]
    rel = shared + words[LANG_LOGS_SHARED : LANG_LOGS_SHARED + LANG_LOGS_OWN]
    ret = shared + words[LANG_LOGS_SHARED + LANG_LOGS_OWN :]
    rng.shuffle(rel)
    rng.shuffle(ret)
    rel_bytes = _write(work / "relevant.xes", _xes(rel))
    ret_bytes = _write(work / "retrieved.xes", _xes(ret))
    expected = growth_factor([len(w) for w in shared]) / growth_factor(
        [len(w) for w in ret]
    )
    return Prepared(
        args=["-emp", "-rel", str(work / "relevant.xes"), "-ret", str(work / "retrieved.xes")],
        expected=expected,
        facts={
            "relevant_bytes": rel_bytes,
            "retrieved_bytes": ret_bytes,
            "relevant_instances": len(rel),
            "retrieved_instances": len(ret),
            "distinct_traces_each": len(rel),
            "shared_traces": len(shared),
            "letters": len(LANG_LOGS_LETTERS),
            "events_per_log": [sum(map(len, rel)), sum(map(len, ret))],
        },
    )


# --- lang-net --------------------------------------------------------------

LANG_NET_CHAINS = (2, 2, 2, 2, 1)
LANG_NET_LOG_TRACES = 150


def _interleaving(rng: random.Random, chains) -> tuple[str, ...]:
    done = [0] * len(chains)
    word = []
    while True:
        open_chains = [i for i, n in enumerate(chains) if done[i] < n]
        if not open_chains:
            return tuple(word)
        i = rng.choice(open_chains)
        done[i] += 1
        word.append(f"c{i}s{done[i]}")


def generate_lang_net(seed: int, work: Path) -> Prepared:
    rng = random.Random(seed * 4 + 1)
    places, transitions, arcs = [], [], []
    for i, length in enumerate(LANG_NET_CHAINS):
        places.append((f"c{i}p0", 1))
        for step in range(1, length + 1):
            places.append((f"c{i}p{step}", 0))
            transitions.append((f"c{i}t{step}", f"c{i}s{step}", 1))
            arcs += [(f"c{i}p{step - 1}", f"c{i}t{step}"), (f"c{i}t{step}", f"c{i}p{step}")]
    traces = [_interleaving(rng, LANG_NET_CHAINS) for _ in range(LANG_NET_LOG_TRACES)]
    log_bytes = _write(work / "log.xes", _xes(traces))
    net_bytes = _write(work / "model.pnml", _net_document(places, transitions, arcs, False))
    # every log trace is a net word, so the shared language is the log's;
    # all words have length L, so each growth factor is count ** (1 / (L + 1))
    total_steps = sum(LANG_NET_CHAINS)
    words = math.factorial(total_steps)
    for length in LANG_NET_CHAINS:
        words //= math.factorial(length)
    distinct = len(set(traces))
    expected = (distinct / words) ** (1.0 / (total_steps + 1))
    markings = math.prod(length + 1 for length in LANG_NET_CHAINS)
    return Prepared(
        args=["-emp", "-rel", str(work / "log.xes"), "-ret", str(work / "model.pnml")],
        expected=expected,
        facts={
            "log_bytes": log_bytes,
            "net_bytes": net_bytes,
            "instances": len(traces),
            "distinct_traces": distinct,
            "k": len(LANG_NET_CHAINS),
            "chain_lengths": list(LANG_NET_CHAINS),
            "net_words": words,
            "markings": markings,
        },
    )


# --- stoch-loop ------------------------------------------------------------

STOCH_LOOP_LETTERS = "abcdefgh"
STOCH_LOOP_WEIGHT = 600
STOCH_LOOP_EXIT_WEIGHT = 1
STOCH_LOOP_TRACES = 140
STOCH_LOOP_FOREIGN_SHARE = 0.15
STOCH_LOOP_LENGTHS = range(5, 31)


def loop_entropy(loops: int, weight: int, exit_weight: int) -> float:
    """Entropy of a one-state loop model, H_loc / eps in closed form.

    Every visit of the loop state draws from the same distribution, and the
    number of visits is geometric with mean 1 / eps, eps = exit probability.
    """
    total = loops * weight + exit_weight
    local = _entropy_bits([weight] * loops + [exit_weight])
    return local * total / exit_weight


def generate_stoch_loop(seed: int, work: Path) -> Prepared:
    rng = random.Random(seed * 4 + 2)
    lengths = _cycled_lengths(rng, STOCH_LOOP_TRACES, STOCH_LOOP_LENGTHS)
    bodies = _distinct_words(rng, lengths, STOCH_LOOP_LETTERS, set())
    foreign = round(STOCH_LOOP_TRACES * STOCH_LOOP_FOREIGN_SHARE)
    traces = []
    for number, body in enumerate(bodies):
        if number < foreign:
            position = rng.randrange(len(body))
            body = body[:position] + ("x",) + body[position + 1 :]
        traces.append(body + ("z",))
    rng.shuffle(traces)
    counts: dict[tuple[str, ...], int] = {}
    for trace in traces:
        counts[trace] = counts.get(trace, 0) + 1

    places = [("p", 1), ("done", 0)]
    transitions = [(f"t{letter}", letter, STOCH_LOOP_WEIGHT) for letter in STOCH_LOOP_LETTERS]
    transitions.append(("tz", "z", STOCH_LOOP_EXIT_WEIGHT))
    arcs = []
    for letter in STOCH_LOOP_LETTERS:
        arcs += [("p", f"t{letter}"), (f"t{letter}", "p")]
    arcs += [("p", "tz"), ("tz", "done")]
    log_bytes = _write(work / "log.xes", _xes(traces))
    net_bytes = _write(work / "model.spnml", _net_document(places, transitions, arcs, True))

    def supported(trace: tuple[str, ...]) -> bool:
        return trace[-1] == "z" and set(trace[:-1]) <= set(STOCH_LOOP_LETTERS)

    log_entropy = _entropy_bits([float(c) for c in counts.values()])
    expected = min(1.0, restricted_tree_entropy(counts, supported) / log_entropy)
    return Prepared(
        args=["-sr", "-rel", str(work / "log.xes"), "-ret", str(work / "model.spnml")],
        expected=expected,
        facts={
            "log_bytes": log_bytes,
            "net_bytes": net_bytes,
            "instances": len(traces),
            "distinct_traces": len(counts),
            "foreign_traces": foreign,
            "loops": len(STOCH_LOOP_LETTERS),
            "loop_weight": STOCH_LOOP_WEIGHT,
            "exit_weight": STOCH_LOOP_EXIT_WEIGHT,
        },
        traced_checks={
            "model_entropy_bits": loop_entropy(
                len(STOCH_LOOP_LETTERS), STOCH_LOOP_WEIGHT, STOCH_LOOP_EXIT_WEIGHT
            )
        },
    )


# --- relevance-biglog ------------------------------------------------------

BIGLOG_CODER_LETTERS = "abcdefgh"
BIGLOG_EXTRA_LETTERS = "ij"
BIGLOG_DISTINCT = 800
BIGLOG_INSTANCES = 8000
BIGLOG_LENGTHS = range(3, 20)
BIGLOG_LOOP = (1, 10)  # probability of each coder self-loop
BIGLOG_STOP = (1, 5)  # termination probability of the coder state


def generate_relevance_biglog(seed: int, work: Path) -> Prepared:
    rng = random.Random(seed * 4 + 3)
    lengths = _cycled_lengths(rng, BIGLOG_DISTINCT, BIGLOG_LENGTHS)
    taken: set = set()
    half = BIGLOG_DISTINCT // 2
    fitting = _distinct_words(rng, lengths[:half], BIGLOG_CODER_LETTERS, taken)
    misfit = []
    for n in lengths[half:]:
        while True:
            word = [rng.choice(BIGLOG_CODER_LETTERS) for _ in range(n)]
            word[rng.randrange(n)] = rng.choice(BIGLOG_EXTRA_LETTERS)
            if tuple(word) not in taken:
                taken.add(tuple(word))
                misfit.append(tuple(word))
                break
    distinct = fitting + misfit
    # a fixed 1..19 pattern of multiplicities, scaled to sum to exactly BIGLOG_INSTANCES
    counts = [1 + i % 19 for i in range(BIGLOG_DISTINCT)]
    scale = BIGLOG_INSTANCES - BIGLOG_DISTINCT
    extra = [c - 1 for c in counts]
    total_extra = sum(extra)
    multiplicity = [1 + (e * scale) // total_extra for e in extra]
    for i in range(BIGLOG_INSTANCES - sum(multiplicity)):
        multiplicity[i] += 1
    rng.shuffle(multiplicity)
    instances = [w for w, m in zip(distinct, multiplicity) for _ in range(m)]
    rng.shuffle(instances)
    log_bytes = _write(work / "log.xes", _xes(instances))

    loop_num, loop_den = BIGLOG_LOOP
    stop_num, stop_den = BIGLOG_STOP
    coder = ["initial s0", f"state s0 {stop_num}/{stop_den}"]
    coder += [f"arc s0 s0 {letter} {loop_num}/{loop_den}" for letter in BIGLOG_CODER_LETTERS]
    coder_bytes = _write(work / "coder.sdfa", "\n".join(coder) + "\n")

    alphabet = {label for word in distinct for label in word}
    background = math.log2(len(alphabet) + 1)
    loop_bits = math.log2(loop_den / loop_num)
    stop_bits = math.log2(stop_den / stop_num)
    fits = 0
    cost = 0.0
    for word, m in sorted(zip(distinct, multiplicity)):
        if set(word) <= set(BIGLOG_CODER_LETTERS):
            fits += m
            cost += m * (len(word) * loop_bits + stop_bits)
        else:
            cost += m * (len(word) + 1) * background
    rho = fits / BIGLOG_INSTANCES
    expected = _entropy_bits([rho, 1 - rho]) + cost / BIGLOG_INSTANCES
    return Prepared(
        args=["-r", "-rel", str(work / "log.xes"), "-ret", str(work / "coder.sdfa")],
        expected=expected,
        facts={
            "log_bytes": log_bytes,
            "coder_bytes": coder_bytes,
            "instances": len(instances),
            "distinct_traces": len(distinct),
            "fitting_instances": fits,
            "log_letters": len(alphabet),
            "coder_letters": len(BIGLOG_CODER_LETTERS),
            "events": sum(map(len, instances)),
        },
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lang-logs",
            "log against log; isolates the dense Perron root and product/trim",
            generate_lang_logs,
            ("measures.spectral_radius_s",),
        ),
        Workload(
            "lang-net",
            "log against a parallel-chains net; isolates the is_bounded search",
            generate_lang_net,
            ("petri.is_bounded_s",),
        ),
        Workload(
            "stoch-loop",
            "log against a near-1 loop SPNML; out_edges scans and Jacobi sweeps",
            generate_stoch_loop,
            ("stochastic.out_edges_s", "stochastic.sdfa_entropy_s"),
        ),
        Workload(
            "relevance-biglog",
            "large XES against a one-state coder; isolates XES parsing",
            generate_relevance_biglog,
            ("formats.parse_xes_s",),
        ),
    )
}
