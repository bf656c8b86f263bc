"""Value semantics of the public record types.

Every record is an immutable value: it equals another instance of the same
class whose fields are equal, hashes as the tuple of those fields,
shows them in its repr, and rejects assignment and deletion. The table
below names each record's fields in order, with a base value and one
different value per field; the reprs are literal.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from entroconf.automata import Dfa, EventLog, log_to_dfa
from entroconf.cli import RunConfig
from entroconf.errors import SilentTransitionUnsupported
from entroconf.formats import Dfg
from entroconf.measures import EntropyValue, PrecisionRecall, partial_precision_recall
from entroconf.petri import Marking, PetriNet, ReachabilityGraph, StochasticPetriNet
from entroconf.stochastic import (
    RelevanceValue,
    Sdfa,
    StochasticEntropy,
    log_to_sdfa,
    stochastic_precision_recall,
)

M1 = Marking((("p", 1),))
M2 = Marking((("p", 2),))
NET = dict(
    places=frozenset({"p"}),
    transitions={"t": "a"},
    arcs={("p", "t"): 1},
    initial_marking=M1,
    final_markings=None,
)
NET_ALTERNATIVES = dict(
    places=frozenset({"p", "q"}),
    transitions={"t": "b"},
    arcs={("t", "p"): 1},
    initial_marking=M2,
    final_markings=frozenset({M1}),
)

# class: (fields as {name: (base value, different value)}, whether hashable, repr)
RECORDS = {
    EventLog: (
        {"entries": ({("a", "b"): 2}, {("a",): 1})},
        False,
        "EventLog(entries={('a', 'b'): 2})",
    ),
    Dfa: (
        {
            "states": (frozenset({0, 1}), frozenset({0, 1, 2})),
            "alphabet": (frozenset({"a"}), frozenset({"b"})),
            "initial": (0, 1),
            "accepting": (frozenset({1}), frozenset({0})),
            "transitions": ({(0, "a"): 1}, {}),
        },
        False,
        "Dfa(states=frozenset({0, 1}), alphabet=frozenset({'a'}), initial=0, "
        "accepting=frozenset({1}), transitions={(0, 'a'): 1})",
    ),
    Marking: (
        {"tokens": ((("p", 1),), (("p", 1), ("q", 1)))},
        True,
        "Marking(tokens=(('p', 1),))",
    ),
    PetriNet: (
        {name: (NET[name], NET_ALTERNATIVES[name]) for name in NET},
        False,
        "PetriNet(places=frozenset({'p'}), transitions={'t': 'a'}, arcs={('p', 't'): 1}, "
        "initial_marking=Marking(tokens=(('p', 1),)), final_markings=None)",
    ),
    StochasticPetriNet: (
        {
            **{name: (NET[name], NET_ALTERNATIVES[name]) for name in NET},
            "weights": ({"t": Fraction(1)}, {"t": Fraction(2)}),
        },
        False,
        "StochasticPetriNet(places=frozenset({'p'}), transitions={'t': 'a'}, "
        "arcs={('p', 't'): 1}, initial_marking=Marking(tokens=(('p', 1),)), "
        "final_markings=None, weights={'t': Fraction(1, 1)})",
    ),
    ReachabilityGraph: (
        {
            "nodes": (frozenset({M1}), frozenset({M1, M2})),
            "initial": (M1, M2),
            "edges": (frozenset(), frozenset({(M1, "t", M1)})),
        },
        True,
        "ReachabilityGraph(nodes=frozenset({Marking(tokens=(('p', 1),))}), "
        "initial=Marking(tokens=(('p', 1),)), edges=frozenset())",
    ),
    Sdfa: (
        {
            "states": (frozenset({0, 1}), frozenset({0, 1, 2})),
            "alphabet": (frozenset({"a"}), frozenset({"a", "b"})),
            "initial": (0, 1),
            "transitions": ({(0, "a"): (1, Fraction(1))}, {(0, "a"): (0, Fraction(1))}),
            "termination": ({1: Fraction(1)}, {0: Fraction(0), 1: Fraction(1)}),
        },
        False,
        "Sdfa(states=frozenset({0, 1}), alphabet=frozenset({'a'}), initial=0, "
        "transitions={(0, 'a'): (1, Fraction(1, 1))}, termination={1: Fraction(1, 1)})",
    ),
    StochasticEntropy: (
        {"bits": (1.5, 2.5), "residual": (0.0, 1e-12)},
        True,
        "StochasticEntropy(bits=1.5, residual=0.0)",
    ),
    RelevanceValue: (
        {"bits": (3.0, 4.0), "selector_bits": (1.0, 2.0), "avg_trace_bits": (2.0, 1.0)},
        True,
        "RelevanceValue(bits=3.0, selector_bits=1.0, avg_trace_bits=2.0)",
    ),
    EntropyValue: (
        {"bits_per_symbol": (0.0, 0.5), "empty_language": (False, True)},
        True,
        "EntropyValue(bits_per_symbol=0.0, empty_language=False)",
    ),
    PrecisionRecall: (
        {"precision": (0.5, 1.0), "recall": (0.25, 0.75)},
        True,
        "PrecisionRecall(precision=0.5, recall=0.25)",
    ),
    Dfg: (
        {
            "nodes": ({"n": "a"}, {"n": "b"}),
            "arcs": ({("s", "n"): 1, ("n", "e"): 1}, {("s", "n"): 2, ("n", "e"): 1}),
            "source": ("s", "s0"),
            "sink": ("e", "e0"),
        },
        False,
        "Dfg(nodes={'n': 'a'}, arcs={('s', 'n'): 1, ('n', 'e'): 1}, source='s', sink='e')",
    ),
}
# the changes that a field's different value needs to stay valid: an SDFA's
# added state needs its termination, which only a state may have
ALONGSIDE = {(Sdfa, "states"): {"termination": {1: Fraction(1), 2: Fraction(1)}}}


def build(cls, **changes):
    fields, _, _ = RECORDS[cls]
    values = {name: base for name, (base, _) in fields.items()}
    return cls(**{**values, **changes})


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_compare_on_their_fields(cls):
    fields, _, _ = RECORDS[cls]
    record = build(cls)
    assert record == build(cls) and not record != build(cls)
    for name, (_, other) in fields.items():
        changed = build(cls, **{name: other, **ALONGSIDE.get((cls, name), {})})
        assert record != changed and not record == changed, name
    assert record != object() and record != tuple(base for base, _ in fields.values())


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_hash_as_the_tuple_of_their_compared_fields(cls):
    fields, hashable, _ = RECORDS[cls]
    record = build(cls)
    if hashable:
        assert hash(record) == hash(tuple(getattr(record, name) for name in fields))
        assert hash(record) == hash(build(cls))
    else:
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_cannot_be_changed(cls):
    fields, _, _ = RECORDS[cls]
    record = build(cls)
    for name, (base, other) in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, other)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == base
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert record == build(cls)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_survive_pickling_and_copying(cls):
    record = build(cls)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is cls and twin == record and repr(twin) == repr(record)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_show_their_fields(cls):
    assert repr(build(cls)) == RECORDS[cls][2]


@pytest.mark.parametrize(
    "cls", [c for c in RECORDS if c is not StochasticPetriNet], ids=lambda cls: cls.__name__
)
def test_records_take_their_fields_in_order(cls):
    fields, _, _ = RECORDS[cls]
    values = [base for base, _ in fields.values()]
    assert cls(*values) == build(cls)


def test_a_logs_state_is_its_entries_after_every_measure(log_e):
    # a measure builds the log's trie for itself and keeps nothing on the log
    def state():
        return dict(vars(log_e)), pickle.dumps(log_e), vars(copy.deepcopy(log_e))

    before = state()
    assert list(before[0]) == ["entries"]
    partial_precision_recall(log_e, log_e)
    stochastic_precision_recall(log_e, log_e)
    log_to_dfa(log_e)
    log_to_sdfa(log_e)
    assert state() == before


def test_record_defaults():
    assert Marking() == Marking(()) and Marking().tokens == ()
    assert PetriNet(*list(NET.values())[:4]).final_markings is None
    assert EntropyValue(0.5).empty_language is False


def test_a_stochastic_net_takes_weights_by_keyword_and_no_silent_transition():
    with pytest.raises(TypeError):
        StochasticPetriNet(*list(NET.values()), {"t": Fraction(1)})
    with pytest.raises(TypeError):
        StochasticPetriNet(*list(NET.values()))
    with pytest.raises(SilentTransitionUnsupported, match="silent transitions: t"):
        build(StochasticPetriNet, transitions={"t": None})


@pytest.mark.parametrize(
    "one, other",
    [
        (build(StochasticPetriNet), build(PetriNet)),
        (PrecisionRecall(1.0, 0.5), StochasticEntropy(1.0, 0.5)),
    ],
    ids=["stochastic net and net", "same field values"],
)
def test_records_of_different_classes_are_never_equal(one, other):
    assert one != other and other != one
    assert not one == other and not other == one


def test_private_fields_are_not_compared():
    one, two = build(Sdfa), build(Sdfa)
    assert one.out_edges(0) == [("a", 1, Fraction(1))]
    assert one == two
    assert "_weights" not in repr(one) and "_out" not in repr(one)


INVALID = {
    "trace count 0": (lambda: EventLog({("a",): 0}), "positive integer"),
    "trace not a tuple": (lambda: EventLog({"ab": 1}), "tuple of labels"),
    "empty label": (lambda: EventLog({("",): 1}), "non-empty strings"),
    "DFA initial": (lambda: Dfa(frozenset({0}), frozenset(), 1, frozenset(), {}), "initial"),
    "DFA accepting": (lambda: Dfa(frozenset({0}), frozenset(), 0, frozenset({1}), {}), "accepting"),
    "DFA transition": (
        lambda: Dfa(frozenset({0}), frozenset({"a"}), 0, frozenset(), {(0, "a"): 1}),
        "leaves the state set",
    ),
    "unsorted marking": (lambda: Marking((("q", 1), ("p", 1))), "sorted"),
    "duplicate place": (lambda: Marking((("p", 1), ("p", 2))), "duplicate"),
    "zero tokens": (lambda: Marking((("p", 0),)), "positive token counts"),
    "place and transition ids": (
        lambda: build(PetriNet, transitions={"p": "a"}, arcs={}),
        "disjoint",
    ),
    "arc weight 0": (lambda: build(PetriNet, arcs={("p", "t"): 0}), "positive"),
    "place to place": (lambda: build(PetriNet, arcs={("p", "p"): 1}), "connect"),
    "initial marking": (
        lambda: build(PetriNet, initial_marking=Marking((("q", 1),))),
        "unknown place q",
    ),
    "final marking": (
        lambda: build(PetriNet, final_markings=frozenset({Marking((("q", 1),))})),
        "unknown place q",
    ),
    "weight per transition": (lambda: build(StochasticPetriNet, weights={}), "one weight"),
    "weight 0": (lambda: build(StochasticPetriNet, weights={"t": 0}), "positive"),
    "SDFA initial": (lambda: build(Sdfa, initial=2), "initial"),
    "SDFA transition": (
        lambda: build(Sdfa, transitions={(0, "a"): (2, Fraction(1))}),
        "endpoint",
    ),
    "SDFA sum": (lambda: build(Sdfa, termination={}), "sum to 0, not 1"),
    "SDFA termination": (
        lambda: build(Sdfa, termination={1: Fraction(1), 7: Fraction(5)}),
        "termination states missing",
    ),
    "empty language entropy": (lambda: EntropyValue(0.5, True), "zero entropy"),
}


@pytest.mark.parametrize("case", INVALID)
def test_records_reject_invalid_fields(case):
    build_invalid, message = INVALID[case]
    with pytest.raises(ValueError, match=message):
        build_invalid()


def test_run_config_is_a_mutable_record_with_keyword_defaults():
    cfg = RunConfig()
    assert (cfg.measure, cfg.rel_path, cfg.ret_path, cfg.skips_rel, cfg.skips_ret) == (None,) * 5
    assert (cfg.silent, cfg.show_help, cfg.show_version) == (False, False, False)
    cfg.measure = "emp"
    assert cfg.measure == "emp"
    cfg = RunConfig(measure="sp", rel_path="a.xes", skips_ret=2, silent=True)
    assert (cfg.measure, cfg.rel_path, cfg.skips_ret, cfg.silent) == ("sp", "a.xes", 2, True)
