import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path
from xml.sax.saxutils import escape

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entroconf
from entroconf import automata, cli, measures, stochastic
from entroconf.automata import EventLog
from entroconf.cli import HELP_TEXT, VERSION, main, parse_args, run
from entroconf.errors import (
    ConflictingMeasures,
    EmptyLog,
    EntroconfError,
    InputError,
    MissingArgument,
    NoAcceptingState,
    NonTerminatingSdfa,
    NumericalError,
    SemanticError,
    SkipsWithoutCpm,
    UnboundedModel,
    UnknownOption,
    UsageError,
)
from entroconf.formats import load_artifact
from entroconf.measures import (
    controlled_partial_precision_recall,
    exact_precision_recall,
    partial_precision_recall,
)
from entroconf.petri import Marking, PetriNet, stochastic_rg_to_sdfa

import oracles
from test_properties import language_dfa


def invoke(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """`python -m entroconf` in a child process that imports this package."""
    package_root = Path(entroconf.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "entroconf", *(str(a) for a in argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )


def test_parse_args_accepts_both_spellings():
    cfg = parse_args(["-emp", "-rel=a.xes", "--retrieved", "b.pnml"])
    assert cfg.measure == "emp"
    assert cfg.rel_path == "a.xes"
    assert cfg.ret_path == "b.pnml"
    assert not cfg.silent

    cfg = parse_args(
        ["--relevant", "x", "-ret=y", "-cpmr", "-srel", "3", "-sret=0", "-s", "-t"]
    )
    assert cfg.measure == "cpmr"
    assert (cfg.skips_rel, cfg.skips_ret) == (3, 0)
    assert cfg.silent


def test_parse_args_rejections():
    with pytest.raises(ConflictingMeasures):
        parse_args(["-emp", "-emr", "-rel", "x", "-ret", "y"])
    with pytest.raises(SkipsWithoutCpm):
        parse_args(["-emp", "-rel", "x", "-ret", "y", "-srel", "1"])
    with pytest.raises(UnknownOption):
        parse_args(["-nope"])
    # a measure takes no value, not even an empty one
    for argument in ("-emp=1", "-emp="):
        with pytest.raises(UnknownOption, match="takes no value"):
            parse_args([argument, "-rel", "x", "-ret", "y"])
    # an empty value after "=" does not take the next argument instead
    for option in ("-rel", "-ret", "-srel", "-sret"):
        with pytest.raises(MissingArgument, match=f"{option} requires a value"):
            parse_args(["-cpmp", "-rel", "x", "-ret", "y", f"{option}=", "b.xes"])
    with pytest.raises(MissingArgument, match="-rel requires a value"):
        parse_args(["-emp", "-rel=", "-ret", "b.xes"])
    # a separate empty argument is as empty as one after "="
    for option in ("-rel", "--relevant", "-ret", "--retrieved"):
        with pytest.raises(MissingArgument, match=f"{option} requires a value"):
            parse_args(["-emp", "-rel", "a.xes", "-ret", "b.xes", option, ""])
    with pytest.raises(MissingArgument):
        parse_args([])
    with pytest.raises(MissingArgument):
        parse_args(["-emp", "-rel", "x"])
    with pytest.raises(MissingArgument):
        parse_args(["-emp", "-rel", "x", "-ret"])
    with pytest.raises(MissingArgument):
        parse_args(["-rel", "x", "-ret", "y"])
    with pytest.raises(UsageError):
        parse_args(["-cpmp", "-rel", "x", "-ret", "y", "-srel", "-1"])
    with pytest.raises(UsageError):
        parse_args(["-cpmp", "-rel", "x", "-ret", "y", "-srel", "soon"])
    # int() would read these as 1 and 10
    for token in ("١", "1_0"):
        with pytest.raises(UsageError):
            parse_args(["-cpmp", "-rel", "x", "-ret", "y", "-srel", token])
        with pytest.raises(UsageError):
            parse_args(["-cpmp", "-rel", "x", "-ret", "y", f"-sret={token}"])


# each option that takes a path or a budget, in all its spellings
REPEATABLE = (("-rel", "--relevant"), ("-ret", "--retrieved"), ("-srel",), ("-sret",))


@pytest.mark.parametrize(
    "first, second",
    [(first, second) for names in REPEATABLE for first in names for second in names],
)
def test_a_repeated_path_or_budget_is_a_usage_error(capsys, first, second):
    # "-emp -rel E.xes -rel N.pnml -ret E.xes" once measured N.pnml
    value = "1" if first in ("-srel", "-sret") else "a.xes"
    # the path options not repeated here, which every run needs once
    paths = [p for names in REPEATABLE[:2] if first not in names for p in (names[0], "p.xes")]
    for repeat in ([second, value], [f"{second}={value}"]):
        argv = ["-cpmp", *paths, first, value, *repeat]
        with pytest.raises(UsageError, match=f"{second} repeats an option already given"):
            parse_args(argv)
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"usage error: {second} repeats an option already given\n"


def test_parse_args_help_short_circuits():
    assert parse_args(["-h"]).show_help
    assert parse_args(["--version"]).show_version
    # help does not demand the usual required options
    assert parse_args(["--help", "-emp"]).show_help


def test_boundedness_needs_no_retrieved_side():
    cfg = parse_args(["-b", "-rel", "model.pnml"])
    assert cfg.measure == "bounded"
    assert cfg.ret_path is None


@pytest.mark.parametrize(
    "flags, expected",
    [
        (("-emp",), "0.776"),
        (("-emr",), "0.802"),
        (("-pmp",), "0.868"),
        (("-pmr",), "0.983"),
        (("-cpmp", "-srel=1", "-sret=2"), "0.833"),
        (("-cpmr", "-srel=1", "-sret=2"), "0.984"),
    ],
)
def test_language_measures_on_fixtures(capsys, fixtures, flags, expected):
    code, out, _ = invoke(
        capsys, *flags, "-rel", fixtures / "E.xes", "-ret", fixtures / "N.pnml", "-s"
    )
    assert code == 0
    assert out == expected + "\n"


@pytest.mark.parametrize(
    "flags, expected",
    [
        (("-emp",), "0.842"),
        (("-emr",), "0.840"),
        (("-pmp",), "0.984"),
        (("-pmr",), "0.900"),
        (("-cpmp", "-srel=1", "-sret=0"), "0.902"),
        (("-cpmr", "-srel=1", "-sret=0"), "0.606"),
    ],
)
def test_language_measures_on_two_logs(capsys, fixtures, flags, expected):
    # F.xes shares two of its five traces with E.xes; the same values are
    # checked in CI without numpy or scipy installed
    code, out, _ = invoke(
        capsys, *flags, "-rel", fixtures / "E.xes", "-ret", fixtures / "F.xes", "-s"
    )
    assert (code, out) == (0, expected + "\n")


def _language_inputs(rng):
    """Log and net pairs in both orders, identical inputs and disjoint logs."""
    nets = []
    while len(nets) < 4:
        net = oracles.random_net(rng)
        try:
            language_dfa(net)
        except SemanticError:  # unbounded, or no marking to accept in
            continue
        nets.append(net)
    pairs = []
    for net in nets:
        log = oracles.random_log(rng)
        pairs += [(log, net), (net, log), (log, log), (net, net)]
    for _ in range(4):
        # disjoint alphabets, and no empty trace, which both logs would share
        pairs.append(
            tuple(
                EventLog.from_traces(
                    [t for t in oracles.random_log(rng, alphabet=letters).entries if t]
                    or [letters[:1]]
                )
                for letters in ("ab", "xy")
            )
        )
    return pairs


def _raised(call, *args) -> type:
    """The class of the EntroconfError that call(*args) raises."""
    with pytest.raises(EntroconfError) as caught:
        call(*args)
    return type(caught.value)


def test_the_cli_prints_the_public_functions_value(fixtures):
    public = {
        "em": exact_precision_recall,
        "pm": partial_precision_recall,
        "cpm": lambda rel, ret: controlled_partial_precision_recall(rel, ret, 1, 2),
    }

    def config(family, side):
        budgets = ["-srel", "1", "-sret", "2"] if family == "cpm" else []
        return parse_args([f"-{family}{side[0]}", "-rel", "r", "-ret", "t", *budgets])

    seen = set()
    for rel, ret in _language_inputs(random.Random(31)):
        automata = language_dfa(rel), language_dfa(ret)
        for family, measure in public.items():
            # each side as its automaton, and as the log or net it is
            results = [measure(*automata), measure(rel, ret)]
            for side in ("precision", "recall"):
                value, _ = cli._evaluate(config(family, side), rel, ret)
                for pair in results:
                    assert value.hex() == getattr(pair, side).hex(), (family, side, rel, ret)
                seen.add(value)
    # identical inputs score 1 and disjoint logs 0 on exact matching
    assert {0.0, 1.0} < seen
    # an input that the command line rejects raises the same error passed
    # directly, and with two such inputs rel's comes first
    loop = PetriNet(
        frozenset({"p"}), {"t": "a"}, {("p", "t"): 1, ("t", "p"): 1}, Marking.of({"p": 1})
    )
    rejected = [
        (EventLog({}), EmptyLog),
        (load_artifact(fixtures / "generator.pnml"), UnboundedModel),
        (loop, NoAcceptingState),
    ]
    good = load_artifact(fixtures / "E.xes")
    for bad, error in rejected:
        for rel, ret in [(bad, good), (good, bad), *((bad, other) for other, _ in rejected)]:
            for family, measure in public.items():
                assert _raised(measure, rel, ret) is error, (family, rel, ret)
                for side in ("precision", "recall"):
                    assert _raised(cli._evaluate, config(family, side), rel, ret) is error


def test_the_cli_prints_the_public_stochastic_value(fixtures, tmp_path):
    # the command line passes a log as it is, which is solved as its counted
    # trie, and solves the printed side alone; the public function takes
    # log_to_sdfa's Sdfa and solves both, and every float agrees
    rng = random.Random(43)
    # traces that end as L.spnml's do, then as the benchmark's eight-label
    # loop's; x is a label that no net here has
    logs = [
        EventLog.from_traces(
            trace + (leave,)
            for trace in oracles.random_log(rng, letters, max_traces=20, max_len=3).entries
        )
        for letters, leave in [("abx", "e")] * 4 + [("ahx", "z")] * 4
    ]
    pairs = [(logs[i], logs[i + 1]) for i in range(0, 8, 2)]
    # E.xes and N.spnml share traces too
    logs += [load_artifact(fixtures / "E.xes"), load_artifact(fixtures / "F.xes")]
    eight = loop_spnml(tmp_path / "eight.spnml", "600", labels="abcdefgh", leave="z")
    nets = [load_artifact(path) for path in (fixtures / "L.spnml", fixtures / "N.spnml", eight)]
    disjoint = [
        EventLog.from_traces(
            [t for t in oracles.random_log(rng, alphabet=letters).entries if t] or [letters[:1]]
        )
        for letters in ("ab", "xy")
    ]
    # logs that hold the empty trace: random pairs, pairs that share the
    # empty trace alone, and each against a copy of itself
    empty = [
        EventLog.from_traces(
            [*oracles.random_log(rng, letters, max_traces=8, max_len=4).entries, ()]
        )
        for letters in ("ab", "ab", "xy", "abx")
    ]
    pairs += [(empty[0], empty[1]), (empty[1], empty[3]), (empty[0], empty[2])]
    pairs += [(log, EventLog(dict(log.entries))) for log in empty]
    # each trace also without its last label: a prefix that ends in the log
    # but neither in a net nor in the log it comes from
    prefixed = [
        EventLog.from_traces([*log.entries, *(t[:-1] for t in log.entries)])
        for log in logs[:2] + logs[4:6]
    ]
    pairs += [(log, logs[i]) for log, i in zip(prefixed, (0, 1, 4, 5))]
    logs += empty + prefixed
    pairs += [(logs[8], logs[9])] + [(log, net) for log in logs for net in nets]
    pairs += [(log, log) for log in logs[:10]] + [tuple(disjoint)]
    pairs += [(first, second) for first in nets for second in nets]

    def automaton(artifact):
        if isinstance(artifact, EventLog):
            return stochastic.log_to_sdfa(artifact)
        return stochastic_rg_to_sdfa(artifact)

    def config(side):
        return parse_args([f"-s{side[0]}", "-rel", "r", "-ret", "t"])

    public = stochastic.stochastic_precision_recall
    seen = set()
    for rel, ret in pairs:
        values = {}
        for swapped, (first, second) in enumerate(((rel, ret), (ret, rel))):
            # each side as its Sdfa, and as the log or net it is
            results = [public(automaton(first), automaton(second)), public(first, second)]
            for side in ("precision", "recall"):
                value, _ = cli._evaluate(config(side), first, second)
                for pair in results:
                    assert value.hex() == getattr(pair, side).hex(), (side, first, second)
                values[swapped, side] = value.hex()
                seen.add(value)
        # swapping the inputs swaps precision and recall, bit for bit
        assert values[0, "precision"] == values[1, "recall"]
        assert values[0, "recall"] == values[1, "precision"]
    assert {0.0, 1.0} < seen
    # an input that the command line rejects raises the same error passed
    # directly. An empty log and an unbounded net are rejected as they are
    # taken, rel before ret, and a model that cannot terminate once solved,
    # after both sides are taken.
    generator = tmp_path / "generator.spnml"
    generator.write_text((fixtures / "generator.pnml").read_text())
    taken = [(EventLog({}), EmptyLog), (load_artifact(generator), UnboundedModel)]
    trap, log = load_artifact(fixtures / "T.spnml"), load_artifact(fixtures / "E.xes")
    cases = [(trap, log, NonTerminatingSdfa), (log, trap, NonTerminatingSdfa)]
    for bad, error in taken:
        cases += [(bad, log, error), (log, bad, error), (bad, trap, error), (trap, bad, error)]
        cases += [(bad, other, error) for other, _ in taken]
    for rel, ret, error in cases:
        assert _raised(public, rel, ret) is error, (rel, ret)
        for side in ("precision", "recall"):
            assert _raised(cli._evaluate, config(side), rel, ret) is error, (side, rel, ret)


def test_stochastic_measures_solve_only_the_printed_conjunction(monkeypatch, fixtures):
    log, other, net = (load_artifact(fixtures / n) for n in ("E.xes", "F.xes", "L.spnml"))
    # what each run solves, in order: the conjunction weighted by one side,
    # a log's own entropy, and the model's own by sdfa_entropy
    cases = [
        ("-sr", log, net, ["shared by rel", "own rel", "sdfa_entropy"]),
        ("-sp", log, net, ["shared by ret", "sdfa_entropy"]),
        ("-sr", net, log, ["shared by rel", "sdfa_entropy"]),
        # the unprinted model's own entropy comes first, as rel is taken first
        ("-sp", net, log, ["sdfa_entropy", "shared by ret", "own ret"]),
        # an unprinted log is not solved
        ("-sp", log, other, ["shared by ret", "own ret"]),
        ("-sr", log, other, ["shared by rel", "own rel"]),
    ]

    def automaton(artifact):
        if isinstance(artifact, EventLog):
            return stochastic.log_to_sdfa(artifact)
        return stochastic_rg_to_sdfa(artifact)

    public = [
        stochastic.stochastic_precision_recall(automaton(rel), automaton(ret))
        for _, rel, ret, _ in cases
    ]

    # a log side is its counted trie: no tree Dfa or Sdfa, product or trim
    def forbidden(*args):
        raise AssertionError("a log side built an automaton")

    for module, name in (
        (automata, "log_to_dfa"),
        (stochastic, "_product"),
        (stochastic, "_trim"),
        (stochastic, "log_to_sdfa"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    calls = []

    def spy(name):
        original = getattr(stochastic, name)

        def spied(*args):
            result = original(*args)
            calls.append((name, args, result))
            return result

        monkeypatch.setattr(stochastic, name, spied)

    for name in ("_log_rows", "_tree_bits", "sdfa_entropy"):
        spy(name)
    for (flag, rel, ret, solved), pair in zip(cases, public):
        calls.clear()
        value, _ = cli._evaluate(parse_args([flag, "-rel", "r", "-ret", "t"]), rel, ret)
        # each log's rows by its side
        sides = {
            id(rows): "rel" if args[0] is rel else "ret"
            for name, args, rows in calls
            if name == "_log_rows"
        }
        walked = []
        for name, args, _ in calls:
            if name == "sdfa_entropy":
                walked.append(name)
            elif name == "_tree_bits" and len(args) == 1:
                walked.append(f"own {sides[id(args[0])]}")
            elif name == "_tree_bits":
                # the shared prefixes are a log's, weighted by its rows or the other's
                tree, _, _, by_other = args
                side = sides[id(tree)]
                if by_other:
                    side = "ret" if side == "rel" else "rel"
                walked.append(f"shared by {side}")
        # the conjunction is weighted by the printed side only, and the
        # model's own entropy is solved exactly once, by sdfa_entropy
        assert walked == solved, (flag, rel, ret)
        assert value.hex() == (pair.precision if flag == "-sp" else pair.recall).hex()


def test_stochastic_measures_report_the_size_of_a_logs_prefix_tree(capsys, fixtures):
    e, f, n = (fixtures / name for name in ("E.xes", "F.xes", "N.spnml"))
    sizes = {(e, f): (23, 17), (f, e): (17, 23), (n, f): (6, 17), (f, n): (17, 6)}
    for flag in ("-sp", "-sr"):
        for (rel, ret), (rel_states, ret_states) in sizes.items():
            code, _, err = invoke(capsys, flag, "-rel", rel, "-ret", ret)
            assert code == 0
            assert f"relevant_states={rel_states} retrieved_states={ret_states}" in err


def test_sp_and_sr_build_each_logs_trie_once_and_no_sdfa_by_its_constructor(fixtures, monkeypatch):
    def forbidden(*args):
        raise AssertionError(f"called with {args!r}")

    # the size is the trie's length, and every SDFA is built by its builder only
    for module in (automata, cli):
        monkeypatch.setattr(module, "_prefix_tree_states", forbidden)
    monkeypatch.setattr(stochastic.Sdfa, "__init__", forbidden)
    tries = {}
    read = automata._log_rows

    def spied(log):
        rows = read(log)
        tries.setdefault(id(log), (log, []))[1].append(rows)
        return rows

    for module in (automata, stochastic, cli):
        monkeypatch.setattr(module, "_log_rows", spied)
    e, f, n = (str(fixtures / name) for name in ("E.xes", "F.xes", "N.spnml"))
    sizes = {(e, f): (23, 17), (f, e): (17, 23), (e, e): (23, 23), (n, f): (6, 17)}
    for flag in ("-sp", "-sr"):
        for (rel, ret), (rel_states, ret_states) in sizes.items():
            tries.clear()
            stdout, stderr = StringIO(), StringIO()
            assert run(parse_args([flag, "-rel", rel, "-ret", ret]), stdout, stderr) == 0
            sized = f"relevant_states={rel_states} retrieved_states={ret_states}"
            assert sized in stderr.getvalue()
            # one trie per log side, each read as the one object built
            assert len(tries) == (rel, ret).count(e) + (rel, ret).count(f)
            assert all(rows is calls[0] for _, calls in tries.values() for rows in calls)


@pytest.mark.parametrize("flag", ["-sp", "-sr"])
def test_the_trap_fixture_exits_3_on_either_side(capsys, fixtures, flag):
    # T.spnml ends after b c e, one of E.xes's traces, and loops forever
    # after a; the printed side of -sr is the log's, so the model's own
    # entropy must still be solved to reject it
    for rel, ret in (("E.xes", "T.spnml"), ("T.spnml", "E.xes")):
        code, out, err = invoke(capsys, flag, "-rel", fixtures / rel, "-ret", fixtures / ret)
        assert (code, out) == (3, "")
        assert err == (
            "rejected: a reachable state has no positive-probability path to termination\n"
        )


def test_relevance_on_fixtures(capsys, fixtures):
    code, out, _ = invoke(
        capsys, "-r", "-rel", fixtures / "E.xes", "-ret", fixtures / "A.sdfa", "-s"
    )
    assert (code, out) == (0, "11.368\n")

    code, out, _ = invoke(
        capsys, "-r", "-rel", fixtures / "E.xes", "-ret", fixtures / "billing.dfg", "-s"
    )
    assert (code, out) == (0, "10.186\n")


def test_line_formats_may_start_with_a_byte_order_mark(capsys, fixtures, tmp_path):
    marked = {}
    for name in ("A.sdfa", "billing.dfg"):
        marked[name] = tmp_path / name
        marked[name].write_bytes(b"\xef\xbb\xbf" + (fixtures / name).read_bytes())
        assert load_artifact(marked[name]) == load_artifact(fixtures / name)
    for name, expected in (("A.sdfa", "11.368"), ("billing.dfg", "10.186")):
        argv = ("-r", "-rel", fixtures / "E.xes", "-ret", marked[name], "-s")
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err) == (0, expected + "\n", "")


def test_stochastic_measures_on_fixtures(capsys, fixtures):
    code, out, _ = invoke(
        capsys, "-sp", "-rel", fixtures / "E.xes", "-ret", fixtures / "N.spnml", "-s"
    )
    assert (code, out) == (0, "0.250\n")

    code, out, _ = invoke(
        capsys, "-sr", "-rel", fixtures / "E.xes", "-ret", fixtures / "N.spnml", "-s"
    )
    assert (code, out) == (0, "0.397\n")


def test_stochastic_measures_against_a_one_place_loop(capsys, fixtures):
    # L.spnml loops on a..d with weight 2 each and leaves by e with weight 1;
    # every trace of E.xes ends in e
    code, out, _ = invoke(
        capsys, "-sr", "-rel", fixtures / "E.xes", "-ret", fixtures / "L.spnml", "-s"
    )
    assert (code, out) == (0, "1.000\n")
    code, out, _ = invoke(
        capsys, "-sp", "-rel", fixtures / "E.xes", "-ret", fixtures / "L.spnml", "-s"
    )
    assert (code, out) == (0, "0.099\n")
    model = oracles.reference_stochastic_rg_to_sdfa(load_artifact(fixtures / "L.spnml"))
    coded = oracles.reference_log_to_sdfa(load_artifact(fixtures / "E.xes"))
    shared = oracles.reference_conjunction(model, coded)
    precision = oracles.exact_sdfa_entropy(shared) / oracles.exact_sdfa_entropy(model)
    assert f"{precision:.3f}" == "0.099"


def test_budget_free_controlled_matching_equals_exact(capsys, fixtures):
    _, exact, _ = invoke(
        capsys, "-emp", "-rel", fixtures / "E.xes", "-ret", fixtures / "N.pnml", "-s"
    )
    _, controlled, _ = invoke(
        capsys, "-cpmp", "-rel", fixtures / "E.xes", "-ret", fixtures / "N.pnml", "-s"
    )
    assert controlled == exact


def test_budget_zero_controlled_matching_equals_exact_bit_for_bit():
    # budgets of 0 leave each log its set of traces, as exact matching
    # takes it: both measures run the same code
    rng = random.Random(21)
    for _ in range(300):
        rel = oracles.random_log(rng, alphabet="abcd", max_traces=10, max_len=7)
        taken = rng.sample(sorted(rel.entries), k=rng.randint(0, len(rel.entries)))
        other = oracles.random_log(rng, alphabet="abcd", max_traces=10, max_len=7)
        ret = EventLog.from_traces([*other.entries, *taken])
        for side in ("p", "r"):
            exact, _ = cli._evaluate(cli.RunConfig(measure="em" + side), rel, ret)
            controlled, _ = cli._evaluate(
                cli.RunConfig(measure="cpm" + side, skips_rel=0, skips_ret=0), rel, ret
            )
            assert controlled.hex() == exact.hex(), (side, rel, ret)


def test_normal_output_shape(fixtures):
    cfg = parse_args(
        ["-emp", "-rel", str(fixtures / "E.xes"), "-ret", str(fixtures / "N.pnml")]
    )
    stdout, stderr = StringIO(), StringIO()
    assert run(cfg, stdout, stderr) == 0
    assert stdout.getvalue() == "exact matching precision: 0.776\n"
    diagnostics = stderr.getvalue()
    assert diagnostics.startswith("elapsed: ")
    assert "relevant_states=" in diagnostics
    assert "retrieved_states=" in diagnostics

    cfg = parse_args(
        ["-r", "-rel", str(fixtures / "E.xes"), "-ret", str(fixtures / "A.sdfa")]
    )
    stdout = StringIO()
    assert run(cfg, stdout, StringIO()) == 0
    assert stdout.getvalue() == "entropic relevance: 11.368 bits\n"


def test_stdout_is_identical_across_runs(fixtures):
    argv = ["-emp", "-rel", str(fixtures / "E.xes"), "-ret", str(fixtures / "N.pnml")]
    outputs = []
    for _ in range(2):
        stdout = StringIO()
        assert run(parse_args(argv), stdout, StringIO()) == 0
        outputs.append(stdout.getvalue())
    assert outputs[0] == outputs[1]


def test_version_and_help(capsys):
    code, out, _ = invoke(capsys, "--version")
    assert (code, out) == (0, VERSION + "\n")
    assert VERSION == "1.5-reimpl"

    code, out, _ = invoke(capsys, "--help")
    assert (code, out) == (0, HELP_TEXT)
    for token in (
        "-emp -emr -pmp -pmr -cpmp -cpmr -sp -sr -r -b "
        "--relevant -rel --retrieved -ret -srel -sret --silent -s -t "
        "--help -h --version -v"
    ).split():
        assert token in HELP_TEXT


def test_boundedness_verdicts(capsys, fixtures):
    code, out, _ = invoke(capsys, "-b", "-rel", fixtures / "N.pnml")
    assert (code, out) == (0, "boundedness: bounded\n")

    code, out, _ = invoke(capsys, "-b", "-rel", fixtures / "N.pnml", "-s")
    assert (code, out) == (0, "1\n")

    code, out, _ = invoke(capsys, "-b", "-rel", fixtures / "generator.pnml", "-s")
    assert (code, out) == (3, "0\n")

    code, out, _ = invoke(capsys, "-b", "-rel", fixtures / "N.spnml", "-s")
    assert (code, out) == (0, "1\n")


def test_boundedness_does_not_read_a_retrieved_path(capsys, fixtures, tmp_path):
    # -b uses no -ret, so neither a missing file nor an unknown extension
    # given as one is an input error
    for ret in (tmp_path / "nowhere.xes", fixtures / "N.unknown"):
        code, out, _ = invoke(capsys, "-b", "-rel", fixtures / "N.pnml", "-ret", ret)
        assert (code, out) == (0, "boundedness: bounded\n")


def test_an_unbounded_verdict_names_its_witness_on_stderr(capsys, fixtures):
    code, out, err = invoke(capsys, "-b", "-rel", fixtures / "generator.pnml")
    assert (code, out) == (3, "boundedness: unbounded\n")
    (line,) = err.splitlines()
    assert line.startswith("elapsed: ")
    assert line.endswith(
        " places=1 transitions=1; the net is not bounded: from the reachable marking {} "
        "the firing sequence t reaches {'p': 1}, which strictly covers it"
    )
    # silent mode prints the bare verdict alone
    assert invoke(capsys, "-b", "-rel", fixtures / "generator.pnml", "-s") == (3, "0\n", "")


def test_an_id_that_is_not_printable_keeps_a_message_on_one_line(capsys, fixtures, tmp_path):
    # U+2028 is a line boundary to str.splitlines, so the id is written as its repr
    net = (fixtures / "generator.pnml").read_text().replace('"t"', '"t\u2028x"')
    assert net.count("t\u2028x") == 2
    renamed = tmp_path / "generator.pnml"
    renamed.write_text(net, encoding="utf-8")
    code, _, err = invoke(capsys, "-b", "-rel", renamed)
    assert code == 3
    (line,) = err.splitlines()
    assert "the firing sequence 't\\u2028x' reaches {'p': 1}" in line
    # the same id on a transition of weight 0
    weight = '</name><toolspecific tool="stochastic"><weight>0</weight></toolspecific>'
    zero = tmp_path / "zero.spnml"
    zero.write_text(net.replace("</name>", weight), encoding="utf-8")
    code, _, err = invoke(capsys, "-b", "-rel", zero)
    assert code == 2
    (line,) = err.splitlines()
    assert line == f"input error: {zero}: transition 't\\u2028x' has weight 0"


def test_exact_matching_builds_no_automaton_for_a_log(capsys, fixtures, monkeypatch):
    calls = []

    def spy(name, function):
        def spied(*args):
            calls.append(name)
            return function(*args)

        return spied

    monkeypatch.setattr(measures, "_log_rows", spy("_log_rows", measures._log_rows))
    monkeypatch.setattr(measures, "_product", spy("_product", measures._product))
    monkeypatch.setattr(measures, "_determinized", spy("_determinized", measures._determinized))
    e, f, n = (fixtures / name for name in ("E.xes", "F.xes", "N.pnml"))
    # a log's side reports the size of the prefix tree it is not built into,
    # and budgets of 0 close nothing
    sizes = {(e, f): (23, 17), (f, e): (17, 23), (e, n): (23, 6), (n, e): (6, 23)}
    zero = ("-srel", "0", "-sret", "0")
    for flags in (["-emp"], ["-emr"], ["-cpmp", *zero], ["-cpmr", *zero]):
        for (rel, ret), (rel_states, ret_states) in sizes.items():
            code, _, err = invoke(capsys, *flags, "-rel", rel, "-ret", ret)
            assert code == 0
            assert f"relevant_states={rel_states} retrieved_states={ret_states}" in err
            assert calls == []
        # two nets still meet in a product, and partial matching still
        # closes a log's prefix tree
        assert invoke(capsys, *flags, "-rel", n, "-ret", n, "-s")[:2] == (0, "1.000\n")
        assert calls == ["_product"]
        calls.clear()
    invoke(capsys, "-pmp", "-rel", e, "-ret", f)
    assert calls == ["_log_rows", "_log_rows", "_determinized", "_determinized", "_product"]


@pytest.mark.parametrize("flag", ["-emp", "-emr", "-sp", "-sr"])
def test_an_empty_log_is_rejected_before_the_other_side_is_explored(
    capsys, fixtures, tmp_path, flag
):
    empty = tmp_path / "empty.xes"
    empty.write_text('<log xmlns="http://www.xes-standard.org/"></log>')
    generator = fixtures / "generator.pnml"
    if flag.startswith("-s"):
        # the same net read as a stochastic one, its transition of weight 1
        generator = tmp_path / "generator.spnml"
        generator.write_text((fixtures / "generator.pnml").read_text())
    message = "cannot build an automaton from an empty log"
    code, _, err = invoke(capsys, flag, "-rel", empty, "-ret", generator)
    assert (code, err) == (2, f"input error: {empty}: {message}\n")
    # -rel comes first: there the unbounded net is rejected
    code, _, err = invoke(capsys, flag, "-rel", generator, "-ret", empty)
    assert code == 3
    assert err.startswith("rejected: the net is not bounded")
    # of two logs, the empty one is named, and rel's first when both are
    log = fixtures / "E.xes"
    for rel, ret, named in ((empty, log, empty), (log, empty, empty), (empty, empty, empty)):
        code, _, err = invoke(capsys, flag, "-rel", rel, "-ret", ret)
        assert (code, err) == (2, f"input error: {named}: {message}\n")


def test_relevance_names_the_empty_log_it_cannot_score(capsys, fixtures, tmp_path):
    for name in ("empty.xes", "a\nb.xes"):
        empty = tmp_path / name
        empty.write_text('<log xmlns="http://www.xes-standard.org/"></log>')
        code, _, err = invoke(capsys, "-r", "-rel", empty, "-ret", fixtures / "A.sdfa")
        # a path holding a line break is shown as its repr, on one line
        shown = str(empty) if name.isprintable() else repr(str(empty))
        assert (code, err) == (2, f"input error: {shown}: cannot score an empty log\n")


def test_usage_errors_exit_1(capsys):
    code, _, err = invoke(capsys)
    assert code == 1
    assert err.startswith("usage error: ")


def test_running_out_of_memory_exits_3(capsys, fixtures, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "_evaluate", exhausted)
    code, out, err = invoke(capsys, "-emp", "-rel", fixtures / "E.xes", "-ret", fixtures / "F.xes")
    assert (code, out, err) == (3, "", "rejected: out of memory\n")


def test_every_error_falls_under_an_exit_code():
    branches = (UsageError, InputError, SemanticError, NumericalError)
    for error in vars(entroconf.errors).values():
        if isinstance(error, type) and issubclass(error, EntroconfError):
            assert error is EntroconfError or issubclass(error, branches), error


def test_input_errors_exit_2(capsys, fixtures, tmp_path):
    code, _, err = invoke(
        capsys, "-emp", "-rel", fixtures / "absent.xes", "-ret", fixtures / "N.pnml"
    )
    assert code == 2
    assert err.startswith("input error: ")

    code, _, _ = invoke(
        capsys, "-emp", "-rel", fixtures / "E.xes", "-ret", tmp_path / "model.txt"
    )
    assert code == 2

    broken = tmp_path / "broken.xes"
    broken.write_text("<log><trace>")
    code, _, err = invoke(capsys, "-emp", "-rel", broken, "-ret", fixtures / "N.pnml")
    assert code == 2
    assert err.startswith("input error: ")

    latin1 = tmp_path / "latin1.sdfa"
    latin1.write_bytes(b"initial s0\nstate s0 1\n# caf\xe9\n")
    code, _, err = invoke(capsys, "-r", "-rel", fixtures / "E.xes", "-ret", latin1)
    assert code == 2
    assert err.startswith("input error: ")


@pytest.mark.parametrize(
    "flags, name, text, message",
    [
        # the second place p, with no token, would replace the first
        (
            ["-b", "-rel"], "twice.pnml",
            '<pnml><net><page><place id="p"><initialMarking><text>1</text></initialMarking>'
            '</place><place id="p"/></page></net></pnml>',
            "place p declared twice",
        ),
        (
            ["-b", "-rel"], "twice.pnml",
            '<pnml><net><page><transition id="t"><name><text>a</text></name></transition>'
            '<transition id="t"/></page></net></pnml>',
            "transition t declared twice",
        ),
        (["-b", "-rel"], "anonymous.pnml", "<pnml><net><place/></net></pnml>", "place without id"),
        (
            ["-r", "-rel", "E.xes", "-ret"], "twice.sdfa", "initial s0\nstate s0 1\nstate s0 1\n",
            "line 3: state s0 redeclared",
        ),
        (
            ["-r", "-rel", "E.xes", "-ret"], "loop.dfg",
            "source s\nsink e\nnode n a\narc s n 1\narc n e 1\narc e n 1\n",
            "arcs may not leave the sink or enter the source",
        ),
    ],
)
def test_parser_rejections_exit_2(capsys, fixtures, tmp_path, flags, name, text, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    argv = [fixtures / flag if flag.endswith(".xes") else flag for flag in flags]
    code, out, err = invoke(capsys, *argv, path)
    assert (code, out, err) == (2, "", f"input error: {path}: {message}\n")


def test_a_failed_read_names_the_input_that_failed(capsys, fixtures, tmp_path):
    empty, unnamed = tmp_path / "empty.xes", tmp_path / "unnamed.xes"
    empty.write_text("")
    unnamed.write_text('<log><trace><event><string key="k" value="v"/></event></trace></log>')
    good = fixtures / "E.xes"
    expected = {
        empty: "no element found: line 1, column 0",
        unnamed: "event without a concept:name attribute",
    }
    for bad, message in expected.items():
        # two logs that fail alike are told apart by their paths
        for rel, ret in ((good, bad), (bad, good)):
            code, out, err = invoke(capsys, "-emp", "-rel", rel, "-ret", ret)
            assert (code, out, err) == (2, "", f"input error: {bad}: {message}\n")


def test_a_path_with_a_line_break_keeps_a_message_on_one_line(capsys, fixtures, tmp_path):
    folder = tmp_path / "a\nb"
    folder.mkdir()
    broken = folder / "log.xes"
    broken.write_text("<log><trace>")
    cases = {
        folder / "absent.xes": "cannot read: No such file or directory",
        folder / "model.txt": "expected one of .dfg, .pnml, .sdfa, .spnml, .xes",
        broken: "no element found: line 1, column 12",
    }
    for path, message in cases.items():
        code, out, err = invoke(capsys, "-emp", "-rel", fixtures / "E.xes", "-ret", path)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"input error: {str(path)!r}: {message}"]


def test_xes_encoding_declaration_is_honoured(capsys, fixtures, tmp_path):
    body = '<log><trace><event><string key="concept:name" value="caf\u00e9"/></event></trace></log>'
    declared = tmp_path / "declared.xes"
    declared.write_bytes(
        b'<?xml version="1.0" encoding="ISO-8859-1"?>\n' + body.encode("latin-1")
    )
    assert entroconf.load_artifact(declared).entries == {("caf\u00e9",): 1}
    code, out, err = invoke(capsys, "-r", "-rel", declared, "-ret", fixtures / "A.sdfa", "-s")
    assert (code, err.count("\n")) == (0, 0)

    undeclared = tmp_path / "undeclared.xes"
    undeclared.write_bytes(body.encode("latin-1"))
    code, _, err = invoke(capsys, "-r", "-rel", undeclared, "-ret", fixtures / "A.sdfa")
    assert code == 2
    assert err.startswith("input error: ")
    assert len(err.splitlines()) == 1

    bom = tmp_path / "bom.xes"
    bom.write_bytes(b"\xef\xbb\xbf" + (fixtures / "E.xes").read_bytes())
    assert entroconf.load_artifact(bom) == entroconf.load_artifact(fixtures / "E.xes")
    code, out, _ = invoke(capsys, "-r", "-rel", bom, "-ret", fixtures / "A.sdfa", "-s")
    assert (code, out) == (0, "11.368\n")


@pytest.mark.parametrize("name", ["N.pnml", "N.spnml"])
def test_net_encoding_declaration_is_honoured(capsys, fixtures, tmp_path, name):
    text = (fixtures / name).read_text().replace("<text>a</text>", "<text>café</text>")
    declared = tmp_path / name
    declared.write_bytes(text.replace("UTF-8", "ISO-8859-1", 1).encode("latin-1"))
    net = entroconf.load_artifact(declared)
    assert "café" in net.transitions.values()
    code, out, err = invoke(capsys, "-b", "-rel", declared, "-s")
    assert (code, out, err) == (0, "1\n", "")

    for encoding in ("bogus", "utf-7"):  # no codec of that name; a multi-byte codec
        declared.write_bytes(text.replace("UTF-8", encoding, 1).encode("utf-8"))
        code, _, err = invoke(capsys, "-b", "-rel", declared)
        assert code == 2
        assert err.startswith("input error: ") and err.count("\n") == 1


STARTUP_PROBE = """
import json, sys
import entroconf, entroconf.cli


def numeric_modules():
    return sorted(
        name for name in sys.modules
        if name in ("numpy", "scipy") or name.startswith(("numpy.", "scipy."))
    )


stages = [numeric_modules()]
for argv in json.loads(sys.argv[1]):
    entroconf.cli.main(argv)
    stages.append(numeric_modules())
print(json.dumps(stages))
"""


def probe_numeric_modules(*runs):
    """stdout lines of runs in one process, and the numpy/scipy modules
    loaded after the import and after each run.
    """
    package_root = Path(entroconf.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, json.dumps([[str(a) for a in run] for run in runs])],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert result.returncode == 0, result.stderr
    *values, report = result.stdout.splitlines()
    return values, json.loads(report)


def loop_spnml(
    path: Path, loop_weight: str, exit_weight: str = "1", labels: str = "abcd", leave: str = "e"
) -> Path:
    """A one-state loop over labels that leaves, once, by leave."""
    transitions = [(label, "p", "p", loop_weight) for label in labels]
    transitions.append((leave, "p", "done", exit_weight))
    return spnml(path, transitions)


def spnml(path: Path, transitions) -> Path:
    """A net with one token on place p and one transition per (label, src,
    dst, weight), moving a token from place src to place dst."""
    places = sorted({place for _, *ends, _ in transitions for place in ends} - {"p"})
    path.write_text(
        '<?xml version="1.0" encoding="UTF-8"?>\n<pnml><net id="loop"><page id="page0">'
        '<place id="p"><initialMarking><text>1</text></initialMarking></place>'
        + "".join(f'<place id="{place}"/>' for place in places)
        + "".join(
            f'<transition id="t{label}"><name><text>{label}</text></name>'
            '<toolspecific tool="stochastic" version="1.0">'
            f"<weight>{weight}</weight></toolspecific></transition>"
            f'<arc id="in{label}" source="{src}" target="t{label}"/>'
            f'<arc id="out{label}" source="t{label}" target="{dst}"/>'
            for label, src, dst, weight in transitions
        )
        + "</page></net></pnml>\n",
        encoding="utf-8",
    )
    return path


def test_numpy_and_scipy_load_only_in_the_numeric_kernels(fixtures, tmp_path):
    log, sdfa, net, weighted, acyclic = (
        fixtures / name for name in ("E.xes", "A.sdfa", "N.pnml", "N.spnml", "S.pnml")
    )
    loop = loop_spnml(tmp_path / "loop.spnml", "20")
    values, stages = probe_numeric_modules(
        ["--version"],
        ["-r", "-rel", log, "-ret", sdfa, "-s"],
        ["-emp", "-rel", log, "-ret", log, "-s"],
        ["-sr", "-rel", log, "-ret", log, "-s"],
        ["-sr", "-rel", log, "-ret", loop, "-s"],
        ["-sp", "-rel", log, "-ret", log, "-s"],
        ["-pmp", "-rel", log, "-ret", log, "-s"],
        ["-cpmr", "-rel", log, "-ret", log, "-srel", "1", "-sret", "2", "-s"],
        ["-b", "-rel", net, "-s"],
        ["-emp", "-rel", log, "-ret", acyclic, "-s"],
        ["-emp", "-rel", log, "-ret", net, "-s"],
    )
    assert values == [VERSION, "11.368"] + ["1.000"] * 6 + ["1", "0.841", "0.776"]
    # a log's automaton and its deletion closures are acyclic and the loop's
    # only cycles are self-loops, so neither the growth factor nor the visit
    # counts need numpy, and -b only explores the net; an acyclic net's
    # automaton is solved as a finite language, while N.pnml's has a longer
    # cycle, which takes the power iteration
    assert stages[:11] == [[]] * 11
    assert {"numpy", "scipy"} <= set(stages[11])

    # N.spnml's reachability graph has a longer cycle, so its visit counts
    # take the sparse LU
    values, stages = probe_numeric_modules(["-sr", "-rel", log, "-ret", weighted, "-s"])
    assert values == ["0.397"]
    assert stages[0] == [] and {"numpy", "scipy"} <= set(stages[1])


IMPORT_PROBE = """
import json, sys
import entroconf.cli

WATCHED = ("dataclasses", "inspect", "xml.etree.ElementTree")


def loaded():
    return {
        "entroconf": sorted(name for name in sys.modules if name.startswith("entroconf.")),
        "watched": [name for name in WATCHED if name in sys.modules],
    }


stages = [loaded()]
for argv in json.loads(sys.argv[1]):
    entroconf.cli.main(argv)
    stages.append(loaded())
print(json.dumps(stages))
"""


def test_the_command_line_imports_only_what_a_run_needs(fixtures):
    package = Path(entroconf.__file__).resolve().parent
    runs = [
        ["-emp", "-rel", fixtures / "E.xes", "-ret", fixtures / "F.xes", "-s"],
        ["-b", "-rel", fixtures / "N.pnml", "-s"],
    ]
    # -S: no site-packages hook may load a module on the package's behalf
    result = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE, json.dumps([[str(a) for a in r] for r in runs])],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package.parent)},
    )
    assert result.returncode == 0, result.stderr
    *values, report = result.stdout.splitlines()
    assert values == ["0.842", "1"]
    imported, after_xes, after_pnml = json.loads(report)
    # every module is loaded by the import, as a tracer wrapping the
    # package's functions at that point needs
    modules = sorted(f"entroconf.{p.stem}" for p in package.glob("*.py") if p.stem[0] != "_")
    assert imported["entroconf"] == modules
    # records are built without dataclasses, and XES is read by expat alone
    assert imported["watched"] == after_xes["watched"] == []
    assert after_pnml["watched"] == ["xml.etree.ElementTree"]


@pytest.mark.parametrize("flag", ["-sp", "-sr"])
def test_a_loop_exit_that_underflows_exits_4(capsys, fixtures, tmp_path, flag):
    # the loop stays with probability 1 - 1/(4e400 + 1), whose complement
    # rounds to 0 as a float
    loop = loop_spnml(tmp_path / "loop.spnml", "1" + "0" * 400)
    code, out, err = invoke(capsys, flag, "-rel", fixtures / "E.xes", "-ret", loop)
    assert (code, out) == (4, "")
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["-sp", "-sr"])
@pytest.mark.parametrize("cycle", ["c", "cd"])
def test_a_net_that_can_loop_forever_exits_3(capsys, tmp_path, flag, cycle):
    # a stops at once and b enters a marking that only c (a self-loop) or
    # c and d (a two-marking cycle) leave, so the net can loop forever
    transitions = [("a", "p", "done", "1"), ("b", "p", "q", "1")]
    transitions += [("c", "q", "r", "1"), ("d", "r", "q", "1")] if cycle == "cd" else [
        ("c", "q", "q", "1")
    ]
    net = spnml(tmp_path / "trap.spnml", transitions)
    log = tmp_path / "a.xes"
    event = '<event><string key="concept:name" value="a"/></event>'
    log.write_text(f"<log><trace>{event}</trace><trace/></log>")
    code, out, err = invoke(capsys, flag, "-rel", log, "-ret", net)
    assert (code, out) == (3, "")
    assert err == "rejected: a reachable state has no positive-probability path to termination\n"


def test_the_benchmark_loop_has_its_closed_form_entropy(tmp_path):
    # eight labels at weight 600 and an exit at weight 1: every visit of the
    # loop draws from one distribution, and the visits are geometric with
    # mean total / exit, so H = H_loc * total / exit
    weights = [600] * 8 + [1]
    total = sum(weights)
    local = -math.fsum(w / total * math.log2(w / total) for w in weights)
    expected = local * total / weights[-1]
    arcs = {(0, label): (0, Fraction(600, total)) for label in "abcdefgh"}
    arcs[0, "z"] = (1, Fraction(1, total))
    loop = stochastic.Sdfa(frozenset({0, 1}), frozenset("abcdefghz"), 0, arcs, {1: Fraction(1)})
    net = loop_spnml(tmp_path / "eight.spnml", "600", labels="abcdefgh", leave="z")
    for model in (loop, stochastic_rg_to_sdfa(load_artifact(net))):
        assert stochastic.sdfa_entropy(model).bits == pytest.approx(expected, rel=1e-9)


def test_unreadable_net_number_exits_2(fixtures, tmp_path):
    broken = tmp_path / "N.pnml"
    text = (fixtures / "N.pnml").read_text()
    broken.write_text(text.replace("<text>1</text>", "<text>x</text>", 1))
    result = run_module("-b", "-rel", broken)
    assert result.returncode == 2
    assert result.stderr.startswith("input error: ")
    assert "Traceback" not in result.stderr


FIXTURES = Path(__file__).parent / "fixtures"
SDFA_LINES = (FIXTURES / "A.sdfa").read_text().splitlines()
# "state s1" or "arc s1 s2 b" -> the probability that ends that line of A.sdfa
SDFA_NUMBERS = dict(
    line.rsplit(" ", 1) for line in SDFA_LINES if line.startswith(("state ", "arc "))
)
NUMBER_TOKENS = st.one_of(
    st.sampled_from(sorted(set(SDFA_NUMBERS.values())) + ["-1", "2"]),
    st.fractions().map(str),
    st.floats().map(repr),
    st.text(
        st.characters(exclude_categories=("Z", "C"), exclude_characters="#"),
        min_size=1,
        max_size=8,
    ),
)


@settings(max_examples=60, deadline=None)
@example({"state s1": "-1", "arc s1 s2 b": "1", "arc s1 s4 c": "1"})
@example({"state s1": "1e5000"})  # too many digits to print as a Fraction
@example({"arc s1 s2 b": "1e-5000"})
@example({"arc s1 s2 b": "1e99999999"})
@given(st.dictionaries(st.sampled_from(sorted(SDFA_NUMBERS)), NUMBER_TOKENS))
def test_mutated_sdfa_numbers_exit_with_a_documented_code(mutations):
    lines = []
    for line in SDFA_LINES:
        key = line.rsplit(" ", 1)[0]
        lines.append(f"{key} {mutations[key]}" if key in mutations else line)
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "mutated.sdfa"
        model.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            code = main(["-r", "-rel", str(FIXTURES / "E.xes"), "-ret", str(model)])
    assert code in {0, 2, 3, 4}


SPNML_TEXT = (FIXTURES / "N.spnml").read_text()
SPNML_WEIGHTED = ("t0", "t1", "t2")  # the transitions of N.spnml with a <weight>


def _with_weights(weights):
    text = SPNML_TEXT
    for ident, token in weights.items():
        start = text.index("<weight>", text.index(f'<transition id="{ident}">'))
        end = text.index("</weight>", start)
        text = text[:start] + f"<weight>{escape(token)}" + text[end:]
    return text


@settings(max_examples=30, deadline=None)
@example({"t2": "1e400"})  # the loop exits with probability ~1e-400
@given(st.dictionaries(st.sampled_from(SPNML_WEIGHTED), NUMBER_TOKENS))
def test_mutated_spnml_weights_exit_with_one_line(weights):
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "mutated.spnml"
        model.write_text(_with_weights(weights), encoding="utf-8")
        # a warning is shown to the user as extra stderr lines
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with redirect_stdout(StringIO()), redirect_stderr(StringIO()) as err:
                code = main(["-sp", "-rel", str(FIXTURES / "E.xes"), "-ret", str(model)])
    assert code in {0, 2, 3, 4}
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) + len(caught) <= 1, (
        err.getvalue(),
        [str(w.message) for w in caught],
    )


DFG_LINES = (FIXTURES / "billing.dfg").read_text().splitlines()
# "arc start na" -> the frequency that ends that line of billing.dfg
DFG_ARCS = sorted(line.rsplit(" ", 1)[0] for line in DFG_LINES if line.startswith("arc "))


@settings(max_examples=40, deadline=None)
@example({"arc ne end": "0"})  # the only way out of e
@given(st.dictionaries(st.sampled_from(DFG_ARCS), NUMBER_TOKENS))
def test_mutated_dfg_frequencies_exit_with_one_line(frequencies):
    lines = []
    for line in DFG_LINES:
        key = line.rsplit(" ", 1)[0]
        lines.append(f"{key} {frequencies[key]}" if key in frequencies else line)
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "mutated.dfg"
        model.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()) as err:
            code = main(["-r", "-rel", str(FIXTURES / "E.xes"), "-ret", str(model)])
    assert code in {0, 2, 3, 4}
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()


XES_TEXT = (FIXTURES / "E.xes").read_text()
# every attribute value of E.xes, the XML declaration's version and encoding included
XES_VALUES = [match.span(1) for match in re.finditer(r'="([^"]*)"', XES_TEXT)]
VALUE_TOKENS = st.one_of(
    st.sampled_from(
        ["", "concept:name", "bogus", "utf-7", "UTF-16", "latin-1", "2.0", "&amp;", "&x;"]
    ),
    st.text(max_size=8),
)


@st.composite
def xes_mutants(draw):
    """E.xes with some attribute values replaced, then some bytes edited."""
    replacements = draw(
        st.dictionaries(st.integers(0, len(XES_VALUES) - 1), VALUE_TOKENS, max_size=4)
    )
    text = XES_TEXT
    for index in sorted(replacements, reverse=True):
        start, end = XES_VALUES[index]
        text = text[:start] + replacements[index] + text[end:]
    data = bytearray(text.encode("utf-8"))
    edits = st.tuples(st.integers(0, len(data)), st.integers(0, 3), st.binary(max_size=3))
    for position, deleted, inserted in draw(st.lists(edits, max_size=3)):
        data[position : position + deleted] = inserted
    return bytes(data)


@settings(max_examples=60, deadline=None)
@example(XES_TEXT.replace("UTF-8", "bogus", 1).encode())  # no codec of that name
@example(XES_TEXT.replace("UTF-8", "utf-7", 1).encode())  # a multi-byte codec
@given(xes_mutants())
def test_mutated_xes_exits_with_one_line(mutant):
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "mutated.xes"
        log.write_bytes(mutant)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with redirect_stdout(StringIO()), redirect_stderr(StringIO()) as err:
                code = main(["-r", "-rel", str(log), "-ret", str(FIXTURES / "A.sdfa")])
    assert code in {0, 2, 3, 4}
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) + len(caught) <= 1, (
        err.getvalue(),
        [str(w.message) for w in caught],
    )


PNML_TEXT = (FIXTURES / "N.pnml").read_text()
# N.spnml is N.pnml with weights: the same places, transitions and arcs
NET_PLACES = re.findall(r'<place id="(\w+)"', PNML_TEXT)
NET_ARCS = re.findall(r'<arc id="(\w+)"', PNML_TEXT)
NET_IDS = NET_PLACES + re.findall(r'<transition id="(\w+)"', PNML_TEXT) + NET_ARCS
NAME_CHARACTERS = st.characters(exclude_categories=("C",))
COUNT_TOKENS = st.one_of(
    # small counts only: a large marking makes the reachability graph huge
    st.integers(0, 3).map(str),
    st.one_of(
        st.sampled_from(["-1", "+1", " 2 ", "1_0", "١", "", "1.0", "0x1", "9" * 5000]),
        st.text(NAME_CHARACTERS.filter(lambda c: not c.isdigit()), max_size=4),
    ),
)
# an encoding declaration and the codec that writes the file
ENCODINGS = [
    ("UTF-8", "utf-8"),
    ("ISO-8859-1", "latin-1"),
    ("ascii", "ascii"),
    ("UTF-16", "utf-8"),
    ("UTF-8", "latin-1"),
    ("bogus", "utf-8"),
    ("utf-7", "utf-8"),
    ("", "utf-8"),
]
NET_MUTATIONS = st.fixed_dictionaries(
    {},
    optional={
        "markings": st.dictionaries(st.sampled_from(NET_PLACES), COUNT_TOKENS, max_size=2),
        "inscriptions": st.dictionaries(st.sampled_from(NET_ARCS), COUNT_TOKENS, max_size=2),
        "finals": st.dictionaries(st.sampled_from(NET_PLACES), COUNT_TOKENS, max_size=2),
        "ids": st.dictionaries(
            st.sampled_from(NET_IDS),
            st.one_of(st.sampled_from(NET_IDS + [""]), st.text(NAME_CHARACTERS, max_size=4)),
            max_size=2,
        ),
        "encoding": st.sampled_from(ENCODINGS),
    },
)


def _mutated_net(text, mutations):
    """A PNML text with the drawn counts, ids and encoding, as bytes."""
    for place, token in mutations.get("markings", {}).items():
        marking = f"<initialMarking><text>{escape(token)}</text></initialMarking>"
        text = re.sub(
            f'<place id="{place}"(/>|>.*?</place>)',
            lambda _: f'<place id="{place}">{marking}</place>',
            text,
            count=1,
            flags=re.S,
        )
    for arc, token in mutations.get("inscriptions", {}).items():
        inscription = f"<inscription><text>{escape(token)}</text></inscription>"
        text = re.sub(
            f'(<arc id="{arc}"[^>]*)/>', lambda m: f"{m[1]}>{inscription}</arc>", text
        )
    if "finals" in mutations:
        places = "".join(
            f'<place idref="{place}"><text>{escape(token)}</text></place>'
            for place, token in mutations["finals"].items()
        )
        finals = f"<finalmarkings><marking>{places}</marking></finalmarkings>"
        text = text.replace("</net>", finals + "</net>")
    for old, new in mutations.get("ids", {}).items():
        text = text.replace(f'id="{old}"', f'id="{escape(new, {chr(34): "&quot;"})}"')
    declared, codec = mutations.get("encoding", ("UTF-8", "utf-8"))
    text = text.replace("UTF-8", declared, 1)
    # a label that UTF-8 and Latin-1 write differently
    text = text.replace("<text>a</text>", "<text>café</text>")
    return text.encode(codec, errors="xmlcharrefreplace")


@settings(max_examples=40, deadline=None)
@example({"markings": {"p0": "1_0"}})  # read as 10 by int()
@example({"encoding": ("bogus", "utf-8")})  # no codec of that name
@example({"encoding": ("utf-7", "utf-8")})  # a multi-byte codec
@example({"inscriptions": {"a05": "2"}})  # unbounded: -b reports its witness
@given(NET_MUTATIONS)
def test_mutated_pnml_exits_with_one_line(mutations):
    with tempfile.TemporaryDirectory() as tmp:
        net, twin = Path(tmp) / "mutated.pnml", Path(tmp) / "mutated.spnml"
        net.write_bytes(_mutated_net(PNML_TEXT, mutations))
        twin.write_bytes(_mutated_net(SPNML_TEXT, mutations))
        log = str(FIXTURES / "E.xes")
        for argv in (
            ["-emp", "-rel", log, "-ret", str(net)],
            ["-b", "-rel", str(net)],
            ["-sp", "-rel", log, "-ret", str(twin)],
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with redirect_stdout(StringIO()), redirect_stderr(StringIO()) as err:
                    code = main(argv)
            assert code in {0, 2, 3, 4}, argv
            assert "Traceback" not in err.getvalue()
            assert len(err.getvalue().splitlines()) + len(caught) <= 1, (
                argv,
                err.getvalue(),
                [str(w.message) for w in caught],
            )


FIXTURE_KINDS = ("E.xes", "N.pnml", "N.spnml", "A.sdfa", "billing.dfg")
LANGUAGE_FITS = ("E.xes", "N.pnml")
STOCHASTIC_FITS = ("E.xes", "N.spnml")
# README's format table: the fixtures each measure takes on -rel and on -ret
FORMAT_TABLE = {
    "-emp": (LANGUAGE_FITS, LANGUAGE_FITS),
    "-emr": (LANGUAGE_FITS, LANGUAGE_FITS),
    "-pmp": (LANGUAGE_FITS, LANGUAGE_FITS),
    "-pmr": (LANGUAGE_FITS, LANGUAGE_FITS),
    "-cpmp": (LANGUAGE_FITS, LANGUAGE_FITS),
    "-cpmr": (LANGUAGE_FITS, LANGUAGE_FITS),
    "-sp": (STOCHASTIC_FITS, STOCHASTIC_FITS),
    "-sr": (STOCHASTIC_FITS, STOCHASTIC_FITS),
    "-r": (("E.xes",), ("A.sdfa", "billing.dfg")),
    "-b": (("N.pnml", "N.spnml"), FIXTURE_KINDS),  # -ret is not used
}


@pytest.mark.parametrize("flag", FORMAT_TABLE)
def test_compatibility_matrix(capsys, fixtures, flag):
    rel_fits, ret_fits = FORMAT_TABLE[flag]
    for side, fits in (("-rel", rel_fits), ("-ret", ret_fits)):
        for kind in FIXTURE_KINDS:
            # the other side holds a fixture that fits it
            rel, ret = (kind, ret_fits[0]) if side == "-rel" else (rel_fits[0], kind)
            code, out, err = invoke(
                capsys, flag, "-rel", fixtures / rel, "-ret", fixtures / ret, "-s"
            )
            if kind in fits:
                assert (code, err) == (0, ""), (side, kind, err)
                assert len(out.splitlines()) == 1
            else:
                assert code == 3, (side, kind, code)
                assert err.startswith("rejected: ") and err.count("\n") == 1


def test_semantic_rejections_exit_3(capsys, fixtures):
    cases = [
        ("-emp", fixtures / "E.xes", fixtures / "A.sdfa"),
        ("-emp", fixtures / "E.xes", fixtures / "N.spnml"),
        ("-sp", fixtures / "E.xes", fixtures / "N.pnml"),
        ("-r", fixtures / "N.pnml", fixtures / "A.sdfa"),
    ]
    for flag, rel, ret in cases:
        code, _, err = invoke(capsys, flag, "-rel", rel, "-ret", ret)
        assert code == 3
        assert err.startswith("rejected: ")

    code, _, err = invoke(capsys, "-b", "-rel", fixtures / "E.xes")
    assert code == 3

    # E.xes is acyclic and its longest trace has 7 events, so a larger budget
    # deletes no more than 7 does, and is lowered to 7 before the closure
    outcomes = [
        invoke(
            capsys,
            "-cpmp", "-rel", fixtures / "E.xes", "-ret", fixtures / "E.xes",
            "-srel", budget, "-sret", "0", "-s",
        )
        for budget in ("100000", "7")
    ]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 0
    # N.pnml's 6 states have a cycle: each copied 200,001 times, they exceed
    # the cap before any is built
    code, _, err = invoke(
        capsys,
        "-cpmp", "-rel", fixtures / "N.pnml", "-ret", fixtures / "E.xes",
        "-srel", "200000", "-sret", "0",
    )
    assert code == 3
    assert err == (
        "rejected: a skip budget of 200000 on 6 states exceeds the cap of 1000000 states\n"
    )

    code, _, err = invoke(
        capsys, "-emp", "-rel", fixtures / "E.xes", "-ret", fixtures / "generator.pnml"
    )
    assert code == 3
    assert "bounded" in err


def test_skipping_the_boundedness_test_on_a_bounded_net(capsys, fixtures):
    code, out, _ = invoke(
        capsys,
        "-emp", "-rel", fixtures / "E.xes", "-ret", fixtures / "N.pnml", "-t", "-s",
    )
    assert (code, out) == (0, "0.776\n")


def test_module_entry_point(fixtures):
    result = run_module("--version")
    assert result.returncode == 0
    assert result.stdout == VERSION + "\n"

    result = run_module(
        "-emp", "-rel", fixtures / "E.xes", "-ret", fixtures / "N.pnml", "-s"
    )
    assert result.returncode == 0
    assert result.stdout == "0.776\n"
