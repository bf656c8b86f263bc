"""End-to-end acceptance checks.

One test per criterion; each prints its own pass/fail verdict line (visible
with -s, or in the captured output on failure) in addition to the usual
pytest report, so a transcript shows one line per criterion.
"""

import ast
import functools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest

import entroconf
from entroconf import measures
from entroconf.automata import EventLog, log_to_dfa
from entroconf.cli import parse_args, run
from entroconf.formats import (
    load_artifact,
    parse_dfg,
    parse_pnml,
    parse_sdfa,
    parse_spnml,
    parse_xes,
    read_dfg,
    serialize_dfg,
    serialize_pnml,
    serialize_sdfa,
    serialize_spnml,
    serialize_xes,
)
from entroconf.measures import (
    controlled_partial_precision_recall,
    exact_precision_recall,
    partial_precision_recall,
    topological_entropy,
)
from entroconf.petri import is_bounded
from entroconf.stochastic import (
    entropic_relevance,
    sdfa_entropy,
    stochastic_precision_recall,
)
from entroconf.automata import Dfa

import oracles


def criterion(number, summary):
    def wrap(test):
        @functools.wraps(test)
        def guarded(*args, **kwargs):
            try:
                test(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL - {summary}")
                raise
            print(f"criterion {number}: PASS - {summary}")

        return guarded

    return wrap


def cli(fixtures, *argv) -> tuple[int, str, float]:
    stdout = StringIO()
    resolved = [str(fixtures / a) if str(a).endswith((".xes", ".pnml", ".spnml", ".sdfa", ".dfg")) else a for a in argv]
    started = time.perf_counter()
    code = run(parse_args(resolved), stdout, StringIO())
    return code, stdout.getvalue(), time.perf_counter() - started


@criterion(1, "reference triple 0.776 / 0.833 / 11.368, each run under a second")
def test_criterion_1_reference_values_and_speed(fixtures):
    invocations = [
        (("-emp", "-rel", "E.xes", "-ret", "N.pnml", "-s"), "0.776"),
        (("-cpmp", "-srel=1", "-sret=2", "-rel", "E.xes", "-ret", "N.pnml", "-s"), "0.833"),
        (("-r", "-rel", "E.xes", "-ret", "A.sdfa", "-s"), "11.368"),
    ]
    for argv, expected in invocations:
        code, out, elapsed = cli(fixtures, *argv)
        assert code == 0
        # a 3-decimal match is an agreement within the +-0.0005 tolerance
        assert out == expected + "\n"
        assert elapsed < 1.0


@criterion(2, "hand-computed relevance decomposition reproduces the package")
def test_criterion_2_relevance_decomposition(fixtures):
    log = load_artifact(fixtures / "E.xes")
    model = load_artifact(fixtures / "A.sdfa")

    # trace probabilities multiplied out edge by edge on the bundled model
    fitting_cost = {
        # 1 * 1/2 * 1 * 1/2 (termination after e)
        tuple("abce"): Fraction(1, 4),
        # 1 * 1/2 * 1 * 1/2 * 1/2 * 4/5 * 1/2
        tuple("abcdcbe"): Fraction(1, 20),
    }
    background = math.log2(6)  # five activities plus a terminator
    total_cost = 0.0
    fitting_instances = 0
    for trace, count in log.entries.items():
        if trace in fitting_cost:
            fitting_instances += count
            total_cost += count * -math.log2(fitting_cost[trace])
        else:
            total_cost += count * (len(trace) + 1) * background
    rho = Fraction(fitting_instances, log.total_instances())
    selector = -(
        float(rho) * math.log2(rho) + float(1 - rho) * math.log2(1 - rho)
    )
    oracle_bits = selector + total_cost / log.total_instances()

    assert rho == Fraction(2, 7)
    assert abs(oracle_bits - 11.368) < 0.0005

    value = entropic_relevance(log, model)
    assert abs(value.bits - oracle_bits) < 1e-9
    assert abs(value.selector_bits - selector) < 1e-12
    assert value.bits == value.selector_bits + value.avg_trace_bits


@criterion(3, "entropy equals word-growth estimates and analytic values")
def test_criterion_3_topological_entropy_oracle():
    rng = random.Random(101)
    for _ in range(100):
        dfa = oracles.random_dfa(rng)
        estimate = oracles.growth_rate_estimate(dfa, steps=200)
        assert abs(topological_entropy(dfa).bits_per_symbol - estimate) < 0.05

    empty_word = log_to_dfa(EventLog.from_traces([()]))
    assert abs(topological_entropy(empty_word).bits_per_symbol) <= 1e-9
    single = log_to_dfa(EventLog.from_traces([("a",)]))
    assert abs(topological_entropy(single).bits_per_symbol) <= 1e-9
    for k in (1, 2, 3):
        alphabet = "abc"[:k]
        sigma_star = Dfa(
            states=frozenset({0}),
            alphabet=frozenset(alphabet),
            initial=0,
            accepting=frozenset({0}),
            transitions={(0, s): 0 for s in alphabet},
        )
        value = topological_entropy(sigma_star).bits_per_symbol
        assert abs(value - math.log2(k + 1)) <= 1e-9


@criterion(4, "scores in range, log entropy monotone, precision/recall dual")
def test_criterion_4_range_and_monotonicity():
    rng = random.Random(103)
    for _ in range(200):
        log = oracles.random_log(rng)
        rel = log_to_dfa(log)
        ret = oracles.random_dfa(rng)
        budgets = (rng.randint(0, 2), rng.randint(0, 2))
        scored = [
            exact_precision_recall(rel, ret),
            partial_precision_recall(rel, ret),
            controlled_partial_precision_recall(rel, ret, *budgets),
        ]
        for pair in scored:
            assert 0.0 <= pair.precision <= 1.0 + 1e-9
            assert 0.0 <= pair.recall <= 1.0 + 1e-9

        swapped = exact_precision_recall(ret, rel)
        assert scored[0].precision == swapped.recall
        assert scored[0].recall == swapped.precision

        grown = EventLog.from_traces(
            list(log.distinct_traces())
            + list(oracles.random_log(rng).distinct_traces())
        )
        assert (
            topological_entropy(log_to_dfa(grown)).bits_per_symbol
            >= topological_entropy(rel).bits_per_symbol - 1e-9
        )


@criterion(5, "stochastic entropy matches enumeration; identical inputs score 1")
def test_criterion_5_stochastic_entropy_oracle():
    rng = random.Random(107)
    for index in range(100):
        model = oracles.random_terminating_sdfa(rng)
        enumerated = oracles.enumerate_entropy(model, residual=1e-9)
        assert abs(sdfa_entropy(model).bits - enumerated) < 1e-6
        if index % 5 == 0:
            pair = stochastic_precision_recall(model, model)
            assert (pair.precision, pair.recall) == (1.0, 1.0)


@criterion(6, "boundedness verdicts match capped exhaustive exploration")
def test_criterion_6_boundedness(fixtures):
    assert is_bounded(load_artifact(fixtures / "N.pnml"))
    assert is_bounded(load_artifact(fixtures / "N.spnml"))
    assert not is_bounded(load_artifact(fixtures / "generator.pnml"))

    rng = random.Random(109)
    for _ in range(100):
        net = oracles.random_net(rng)
        assert is_bounded(net) == oracles.exhaustive_is_bounded(net, 50_000)


@criterion(7, "zero-budget matching and zero-skip closures change nothing")
def test_criterion_7_reduction_identities(fixtures):
    rng = random.Random(113)
    log = load_artifact(fixtures / "E.xes")
    pairs = [(log_to_dfa(log), oracles.closed_dfa(log_to_dfa(log), 0))]
    for _ in range(20):
        pairs.append((oracles.random_dfa(rng), oracles.random_dfa(rng)))
    for rel, ret in pairs:
        assert controlled_partial_precision_recall(rel, ret, 0, 0) == (
            exact_precision_recall(rel, ret)
        )

    # a budget of 0 closes nothing: a side is returned as it is, which is
    # the reference closure of its automaton
    sides = [log] + [oracles.random_dfa(rng) for _ in range(20)]
    for side in sides:
        language = measures._language(side, 0)
        assert measures._closure(language, 0) is language
    for dfa in sides[1:]:
        assert oracles.closed_dfa(dfa, 0) == dfa


@criterion(8, "parse-serialize-parse is the identity for all five formats")
def test_criterion_8_round_trips(fixtures):
    log = parse_xes((fixtures / "E.xes").read_text())
    assert parse_xes(serialize_xes(log)) == log

    net = parse_pnml((fixtures / "N.pnml").read_text())
    assert parse_pnml(serialize_pnml(net)) == net

    weighted = parse_spnml((fixtures / "N.spnml").read_text())
    assert parse_spnml(serialize_spnml(weighted)) == weighted

    automaton = parse_sdfa((fixtures / "A.sdfa").read_text())
    serialized = serialize_sdfa(automaton)
    assert parse_sdfa(serialized) == automaton
    assert "4/5" in serialized
    assert automaton.transitions[("s4", "b")][1] == Fraction(4, 5)

    graph = read_dfg((fixtures / "billing.dfg").read_text())
    assert read_dfg(serialize_dfg(graph)) == graph
    assert parse_dfg(serialize_dfg(graph)) == parse_dfg(
        (fixtures / "billing.dfg").read_text()
    )


def test_the_readme_library_usage_prints_its_comments(capsys, fixtures, monkeypatch):
    readme = (fixtures.parents[1] / "README.md").read_text(encoding="utf-8")
    usage = readme.split("## Library usage", 1)[1]
    block = usage.split("```python\n", 1)[1].split("```", 1)[0]
    # every name the block imports is public in entroconf
    nodes = ast.walk(ast.parse(block))
    imports = [node for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    for node in imports:
        assert isinstance(node, ast.ImportFrom) and node.module == "entroconf", ast.dump(node)
        assert {alias.name for alias in node.names} <= set(entroconf.__all__)
    # the block's paths are relative to the repository root
    monkeypatch.chdir(fixtures.parents[1])
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    commented = [line.split("#", 1)[1].strip() for line in block.splitlines() if "#" in line]
    assert printed == commented


# each public name by the module that defines it
PUBLIC = {
    "automata": "UNBOUNDED Dfa EventLog Trace log_to_dfa product trim",
    "formats": "Dfg load_artifact parse_dfg parse_pnml parse_sdfa parse_spnml parse_xes "
    "read_dfg serialize_dfg serialize_pnml serialize_sdfa serialize_spnml serialize_xes",
    "measures": "EntropyValue PrecisionRecall controlled_partial_precision_recall "
    "exact_precision_recall partial_precision_recall spectral_radius topological_entropy",
    "petri": "Marking PetriNet ReachabilityGraph StochasticPetriNet is_bounded "
    "reachability_graph rg_to_dfa stochastic_rg_to_sdfa",
    "stochastic": "RelevanceValue Sdfa StochasticEntropy conjunction entropic_relevance "
    "log_to_sdfa sdfa_entropy stochastic_precision_recall trace_probability",
}

API_PROBE = """
import importlib, json, sys

first, public, net = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
importlib.import_module(first)
import entroconf

assert sorted(entroconf.__all__) == sorted(["errors", *" ".join(public.values()).split()])
assert entroconf.errors is sys.modules["entroconf.errors"]
# every layer is an attribute of the package once it is imported
for home in ("errors", *public):
    assert getattr(entroconf, home) is sys.modules[f"entroconf.{home}"], home
for home, names in public.items():
    for name in names.split():
        # through the package first, then through the home module
        value = getattr(entroconf, name)
        module = importlib.import_module(f"entroconf.{home}")
        assert value is getattr(module, name), name
        assert getattr(entroconf, home) is module is sys.modules[module.__name__], home
# so an artifact read by either route is an instance of either route's class
assert isinstance(entroconf.load_artifact(net), sys.modules["entroconf.petri"].PetriNet)
assert isinstance(sys.modules["entroconf.formats"].load_artifact(net), entroconf.PetriNet)
assert {*entroconf.__all__, *public} <= set(dir(entroconf))
namespace = {}
exec("from entroconf import *", namespace)
assert all(namespace[name] is getattr(entroconf, name) for name in entroconf.__all__)
# formats lists its public names, those of its private modules too
formats = sys.modules["entroconf.formats"]
assert sorted(formats.__all__) == sorted(public["formats"].split())
assert set(formats.__all__) <= set(dir(formats))
namespace = {}
exec("from entroconf.formats import *", namespace)
assert all(namespace[name] is getattr(formats, name) for name in formats.__all__)
# and names itself as their module, wherever they are defined
assert {getattr(formats, name).__module__ for name in formats.__all__} == {"entroconf.formats"}
# a name never defined, and the names of a second automaton form that was removed
absent = "no_such_name SILENT Nfa ShortCircuitGraph determinize short_circuit skip_closure"
for name in absent.split():
    for statement in (f"entroconf.{name}", f"from entroconf import {name}"):
        try:
            exec(statement)
        except (AttributeError, ImportError) as error:
            assert f"'{name}'" in str(error), error
        else:
            raise AssertionError(statement)
"""


@pytest.mark.parametrize("first", ["entroconf", "entroconf.petri", "entroconf.cli"])
def test_public_names_resolve_on_first_access_in_any_import_order(fixtures, first):
    # a fresh process per order, since each order registers the modules differently
    package_root = Path(entroconf.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", API_PROBE, first, json.dumps(PUBLIC), str(fixtures / "N.pnml")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert result.returncode == 0, result.stderr


WALK_PROBE = """
import sys
import entroconf.cli

# as a tracer wraps functions: each module's namespace read in turn, each
# value's class asked for, which runs a registered module; an iteration
# fails if running a module adds a name to a namespace being walked
modules = [module for name, module in sorted(sys.modules.items()) if name.startswith("entroconf")]
for module in modules:
    for value in vars(module).values():
        isinstance(value, type)
assert all(type(module).__name__ == "module" for module in modules)
"""


def test_walking_every_namespace_runs_each_module_without_adding_names():
    package_root = Path(entroconf.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", WALK_PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert result.returncode == 0, result.stderr


THREAD_PROBE = """
import importlib, sys, threading

sys.setswitchinterval(1e-6)
import entroconf.cli as cli


def race(routes):
    # what each route returns, each route run by its own thread at once
    barrier = threading.Barrier(len(routes))
    seen = []

    def touch(route):
        barrier.wait(30)
        try:
            seen.append(route())
        except Exception as error:
            seen.append(repr(error))

    threads = [threading.Thread(target=touch, args=(route,)) for route in routes]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == len(routes), seen
    return seen


# stochastic's first access runs it, and automata from its body
seen = race([
    lambda: cli.stochastic.sdfa_entropy,
    lambda: importlib.import_module("entroconf.stochastic").sdfa_entropy,
    lambda: sys.modules["entroconf"].sdfa_entropy,
    lambda: cli.automata.Dfa and cli.stochastic.sdfa_entropy,
])
assert all(value is cli.stochastic.sdfa_entropy for value in seen), seen
# formats' first access registers _lines, whose first access runs it
seen = race([
    lambda: cli.formats.parse_sdfa,
    lambda: importlib.import_module("entroconf.formats").parse_sdfa,
    lambda: sys.modules["entroconf"].parse_sdfa,
    lambda: cli.formats.Dfg and cli.formats.parse_sdfa,
])
assert all(value is sys.modules["entroconf._lines"].parse_sdfa for value in seen), seen
"""


def test_threads_that_first_touch_a_layer_together_share_one_fully_run_module():
    # four threads, switching every microsecond, so that one
    # reads while another runs the module; each try is a fresh process, in
    # which the layer has not run yet
    package_root = Path(entroconf.__file__).resolve().parents[1]
    for _ in range(5):
        result = subprocess.run(
            [sys.executable, "-c", THREAD_PROBE],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(package_root)},
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
