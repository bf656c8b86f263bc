import os
import random
import re
import tempfile
import threading
from fractions import Fraction
from io import BytesIO
from pathlib import Path
from unittest import mock
from xml.parsers import expat
from xml.sax.saxutils import escape, quoteattr

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from entroconf import formats
from entroconf.automata import EventLog
from entroconf.errors import (
    DanglingArc,
    DeadEndNode,
    DuplicateTransition,
    EntroconfError,
    InputError,
    MalformedXml,
    MissingConceptName,
    NonPositiveWeight,
    ParseError,
    SilentTransitionUnsupported,
    StochasticSumViolation,
    UnknownExtension,
    UnreachableNode,
)
from entroconf.formats import (
    _parse_number,
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
from entroconf.petri import (
    Marking,
    PetriNet,
    StochasticPetriNet,
    is_bounded,
    reachability_graph,
    rg_to_dfa,
    stochastic_rg_to_sdfa,
)
from entroconf.stochastic import Sdfa, trace_probability
from test_net_parity import parity_nets


def test_bundled_log(log_e):
    assert log_e.total_instances() == 7
    assert len(log_e.distinct_traces()) == 6
    assert log_e.entries[tuple("bce")] == 2
    assert log_e.alphabet == frozenset("abcde")


def test_bundled_net(net_n):
    assert net_n.places == frozenset({"p0", "p1", "p2", "p3", "p4", "p5"})
    assert sorted(net_n.transitions.values()) == ["a", "b", "c", "d", "e"]
    assert net_n.initial_marking == Marking.of({"p0": 1})
    assert net_n.final_markings is None
    assert net_n.arcs[("p0", "t0")] == 1


def test_bundled_sdfa(sdfa_a):
    assert sdfa_a.initial == "s0"
    assert sdfa_a.termination["s4"] == Fraction(1, 5)
    assert sdfa_a.termination["s5"] == Fraction(1)
    assert sdfa_a.transitions[("s1", "c")] == ("s4", Fraction(1, 2))


def test_bundled_weighted_net(fixtures):
    net = load_artifact(fixtures / "N.spnml")
    assert isinstance(net, StochasticPetriNet)
    # missing weight annotations default to 1
    assert net.weights == {t: Fraction(1) for t in net.transitions}


def test_xes_round_trip(fixtures, log_e):
    assert parse_xes(serialize_xes(log_e)) == log_e
    text = (fixtures / "E.xes").read_text()
    assert parse_xes(text) == log_e


def test_xes_trace_order_is_irrelevant():
    def doc(*bodies):
        traces = "".join(f"<trace>{b}</trace>" for b in bodies)
        return f"<log>{traces}</log>"

    def event(name):
        return f'<event><string key="concept:name" value="{name}"/></event>'

    forward = doc(event("a") + event("b"), event("c"))
    backward = doc(event("c"), event("a") + event("b"))
    assert parse_xes(forward) == parse_xes(backward)
    assert parse_xes(forward).entries == {("a", "b"): 1, ("c",): 1}


def test_xes_accepts_empty_traces():
    log = parse_xes("<log><trace/><trace/></log>")
    assert log.entries == {(): 2}


def test_xes_errors():
    with pytest.raises(MalformedXml):
        parse_xes("<log><trace>")
    with pytest.raises(MissingConceptName):
        parse_xes('<log><trace><event><string key="other" value="x"/></event></trace></log>')
    with pytest.raises(MissingConceptName):
        parse_xes('<log><trace><event><string key="concept:name" value=""/></event></trace></log>')


# Generated XES documents. An element is (tag, attributes, children, prefixed);
# the namespace mode of the document decides how a prefixed name is written.
XES_NAMESPACE = "http://www.xes-standard.org/"
LABELS = st.sampled_from(["a", "b", "c", "caf\u00e9", "a b", "<&>"])


@st.composite
def xes_attributes(draw):
    """An attribute element: maybe a concept:name, maybe not a <string>."""
    tag = draw(st.sampled_from(["string", "string", "date", "int", "list", "event", "trace"]))
    attributes = []
    key = draw(st.sampled_from(["concept:name", "concept:name", "org:resource", None]))
    if key is not None:
        attributes.append((draw(st.sampled_from(["key", "key", "key", "xes:key"])), key))
    value = draw(st.one_of(LABELS, st.sampled_from(["", None])))
    if value is not None:
        attributes.append(("value", value))
    if draw(st.booleans()):
        attributes.insert(draw(st.integers(0, len(attributes))), ("id", "x"))
    return (tag, tuple(attributes), (), draw(st.booleans()))


def xes_name(tag):
    return st.tuples(
        st.just(tag), LABELS.map(lambda v: (("key", "concept:name"), ("value", v))),
        st.just(()), st.booleans(),
    )


OTHER_ATTRIBUTES = xes_attributes().filter(lambda e: ("key", "concept:name") not in e[1])


def xes_events(inner):
    # mostly a named event; the name may follow other attributes and be
    # followed by further children, a nested trace among them
    name = st.one_of(*[xes_name("string")] * 6, xes_name("date"), xes_attributes())
    children = st.tuples(
        st.lists(OTHER_ATTRIBUTES, max_size=2),
        name.map(lambda e: [e]),
        st.lists(st.one_of(xes_attributes(), inner), max_size=2),
    ).map(lambda parts: tuple(parts[0] + parts[1] + parts[2]))
    return st.tuples(st.just("event"), st.just(()), children, st.booleans())


def xes_extend(inner):
    event = xes_events(inner)
    members = st.one_of(event, event, event, xes_attributes(), inner)
    trace = st.tuples(
        st.just("trace"), st.just(()),
        st.one_of(st.just(()), *[st.lists(members, min_size=1, max_size=4).map(tuple)] * 4),
        st.booleans(),
    )
    other = st.tuples(
        st.sampled_from(["list", "meta"]), st.just(()),
        st.lists(inner, max_size=3).map(tuple), st.booleans(),
    )
    return st.one_of(trace, trace, event, other)


XES_ELEMENTS = st.recursive(xes_attributes(), xes_extend, max_leaves=12)
XES_LOGS = st.tuples(
    st.just("log"), st.just((("xes.version", "1.0"),)),
    st.lists(st.one_of(*[xes_extend(XES_ELEMENTS)] * 3, xes_attributes()), min_size=1, max_size=5)
    .map(tuple),
    st.booleans(),
)
XES_ROOTS = st.one_of(XES_LOGS, XES_LOGS, XES_LOGS, xes_extend(XES_ELEMENTS))


def render_xes(element, mode, separator, root=True):
    tag, attributes, children, prefixed = element

    def name(raw, is_prefixed):
        local = raw.rpartition(":")[2] if mode == "none" else raw
        return f"xes:{local}" if is_prefixed and mode != "none" else local

    written = [(name(k, False), v) for k, v in attributes]
    if root and mode == "default":
        written += [("xmlns", XES_NAMESPACE), ("xmlns:xes", XES_NAMESPACE)]
    elif root and mode == "prefix":
        written.append(("xmlns:xes", XES_NAMESPACE))
    opening = name(tag, prefixed) + "".join(f" {k}={quoteattr(v)}" for k, v in written)
    if not children:
        return f"<{opening}/>"
    inner = separator.join(render_xes(c, mode, separator, False) for c in children)
    return f"<{opening}>{separator}{inner}{separator}</{name(tag, prefixed)}>"


@st.composite
def xes_documents(draw):
    mode = draw(st.sampled_from(["none", "none", "default", "prefix", "unbound"]))
    separator = draw(st.sampled_from(["", "\n  ", escape("text & <more>")]))
    text = render_xes(draw(XES_ROOTS), mode, separator)
    if draw(st.booleans()):
        text = '<?xml version="1.0" encoding="UTF-8"?>\n' + text
    cut = draw(st.one_of(st.none(), st.none(), st.none(), st.integers(0, len(text) - 1)))
    return text if cut is None else text[:cut]


def read_outcome(read, source):
    try:
        return dict(read(source).entries)
    except InputError as exc:
        return type(exc)


def named(label):
    return f'<string key="concept:name" value="{label}"/>'


@settings(max_examples=300, deadline=None)
@example(f"<event>{named('')}</event>")  # in no trace, so its empty name is no error
@example(f"<log><event>{named('a')}</event><trace/></log>")  # an event outside a trace
@example(f"<log><trace><event>{named('a')}<trace><event>{named('b')}</event></trace></event></trace></log>")
@example(f"<trace><trace><event>{named('a')}</event></trace><event>{named('b')}</event></trace>")
@example(f'<log><trace><event><x/><date key="concept:name" value="d"/>{named("a")}</event></trace></log>')
@example(f"<log><trace><event>{named('')}</event></trace><trace>")  # malformed wins
@example('<!DOCTYPE log [<!ATTLIST string key CDATA "concept:name">]>'
         '<log><trace><event><string value="a"/></event></trace></log>')
@example('<!DOCTYPE log SYSTEM "log.dtd"><log><trace>&undefined;</trace></log>')
@given(xes_documents())
def test_streaming_xes_reader_agrees_with_the_tree_reader(text):
    expected = read_outcome(oracles.tree_parse_xes, text)
    assert read_outcome(parse_xes, text) == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.xes"
        path.write_bytes(text.encode("utf-8"))
        assert read_outcome(load_artifact, path) == expected


# --- traces that expat is not fed ---------------------------------------------

SUBSET_LABELS = ["a", "b", "caf\u00e9", "\u65e5\u672c", "\U0001f600", "x y", "a>b"]


def subset_xes(rng, traces=5, events=4):
    """A log in the layout of the benchmark's generated logs: a root with a
    default namespace and a name, and per trace a case name and up to events
    events of three leaves each."""
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        '<log xes.version="1.0" xmlns="http://www.xes-standard.org/">\n',
        '  <string key="concept:name" value="generated"/>\n',
    ]
    for case in range(traces):
        parts.append(f'  <trace>\n    <string key="concept:name" value="case-{case}"/>\n')
        for position in range(rng.randint(1, events)):
            parts.append(
                f'    <event><string key="concept:name" value="{rng.choice(SUBSET_LABELS)}"/>'
                '<string key="lifecycle:transition" value="complete"/>'
                f'<date key="time:timestamp" value="2020-01-01T00:{position:02d}:00.000+00:00"/>'
                "</event>\n"
            )
        parts.append("  </trace>\n")
    parts.append("</log>\n")
    return "".join(parts)


def at_random(rng, text, pattern, replacement):
    """text with one randomly chosen match of pattern replaced."""
    match = rng.choice(list(re.finditer(pattern, text, re.S)))
    return text[: match.start()] + match.expand(replacement) + text[match.end() :]


class Unseekable(BytesIO):
    """A stream that cannot seek, as a pipe, so that it is read with no skips."""

    def seekable(self):
        return False


def streamed(data):
    """The log of data, as bytes, from a pass that feeds expat every byte."""
    return formats._read_xes(Unseekable(data))


def exact_outcome(read, source):
    """The entries read(source) gives, or its error class and message."""
    try:
        return dict(read(source).entries)
    except InputError as exc:
        return type(exc), str(exc)


def loaded(path):
    """exact_outcome of load_artifact(path), with the path that starts an
    error's message checked and taken off, as a stream's error has none."""
    outcome = exact_outcome(load_artifact, path)
    if isinstance(outcome, tuple):
        error, message = outcome
        prefix = f"{path}: "
        assert message.startswith(prefix), message
        outcome = error, message[len(prefix) :]
    return outcome


# an event and its name leaf, which is first in every event of subset_xes
NAME_LEAF = r'<event><string key="concept:name" value="([^"]*)"/>'
PREFIXED_ROOT = (
    r'<log xes.version="1.0" xmlns="http://www.xes-standard.org/">',
    '<log xes.version="1.0" xmlns="http://www.xes-standard.org/" '
    'xmlns:xes="http://www.xes-standard.org/">',
)
BETWEEN_TRACES = r"</trace>\s*<trace>"
TAIL = r"</log>\n$"


def encoded(declared, codec):
    return lambda rng, text: text.replace("UTF-8", declared, 1).encode(codec, "replace")


def on_root(pattern, replacement):
    def mutate(rng, text):
        return at_random(rng, text.replace(*PREFIXED_ROOT), pattern, replacement)

    return mutate


def at(pattern, replacement):
    return lambda rng, text: at_random(rng, text, pattern, replacement)


def renamed(value):
    """One event's name changed to value, in which \\1 is the old name."""
    return at(NAME_LEAF, '<event><string key="concept:name" value="' + value + '"/>')


def suffixed(raw):
    """One trace's case name with the bytes raw appended, in a UTF-8 document.

    No event name holds them, so only the check of the traces' bytes sees them.
    """
    case = rb'(<trace>\s*<string key="concept:name" value="[^"]*)"'
    return lambda rng, text: at_random(rng, text.encode("utf-8"), case, b"\\1" + raw + b'"')


def around_the_traces(before, after):
    """before put ahead of the first trace, and after ahead of the root's end tag."""

    def mutate(rng, text):
        text = text.replace("  <trace>", before + "  <trace>", 1)
        end = text.rindex("</log>")
        return text[:end] + after + text[end:]

    return mutate


# each way out of the subset of traces that expat need not read, as a change
# to a subset document
OUTSIDE_CASES = {
    "prefixed leaf": on_root(r"<event><string ", r"<event><xes:string "),
    "prefixed trace": on_root(r"<trace>(.*?)</trace>", r"<xes:trace>\1</xes:trace>"),
    "prefixed root": lambda rng, text: text.replace(*PREFIXED_ROOT)
    .replace("<log ", "<xes:log ")
    .replace("</log>", "</xes:log>"),
    "trace leaf in an event": at(r"<event>", r'<event><trace key="concept:name" value="t"/>'),
    "event leaf in a trace": at(r"<trace>", r'<trace><event key="concept:name" value="e"/>'),
    "entity in a value": renamed(r"\1&amp;b"),
    "character reference in a value": renamed(r"&#97;\1"),
    "control character in a value": renamed("\\1\x01"),
    "tab in a value": renamed("\\1\tz"),
    "line feed in a value": renamed("\\1\nz"),
    "carriage return in a value": renamed("\\1\rz"),
    "lone 0xFF byte in a value": suffixed(b"\xff"),
    "overlong UTF-8 in a value": suffixed(b"\xc0\xaf"),
    "UTF-8 surrogate in a value": suffixed(b"\xed\xa0\x80"),
    "code point above U+10FFFF in a value": suffixed(b"\xf4\x90\x80\x80"),
    "U+FFFE in a value": suffixed("\ufffe".encode()),
    "U+FFFF in a value": suffixed("\uffff".encode()),
    "single quotes": at(NAME_LEAF, r"<event><string key='concept:name' value='\1'/>"),
    "value before key": at(NAME_LEAF, r'<event><string value="\1" key="concept:name"/>'),
    "another attribute": at(NAME_LEAF, r'<event><string key="concept:name" value="\1" id="x"/>'),
    "attribute on a trace": at(r"<trace>", r'<trace id="x">'),
    "attribute on an event": at(r"<event>", r'<event id="x">'),
    "nested element in an event": at(
        r"<event>", r'<event><list key="l"><string key="concept:name" value="z"/></list>'
    ),
    "text between traces": at(BETWEEN_TRACES, r"</trace>x<trace>"),
    "leaf between traces": at(BETWEEN_TRACES, r'</trace><string key="k" value="v"/><trace>'),
    "comment in the header": at(r"<log [^>]*>", r"\g<0><!-- a comment -->"),
    "comment in a trace": at(r"<trace>", r"<trace><!-- a comment -->"),
    "CDATA in an event": at(r"<event>", r"<event><![CDATA[x]]>"),
    "processing instruction in a trace": at(r"<trace>", r"<trace><?pi x?>"),
    "processing instruction in the header": at(r"<log ", r"<?pi x?>\g<0>"),
    "DOCTYPE": at(r"<log ", r'<!DOCTYPE log [<!ATTLIST event id CDATA "x">]>\g<0>'),
    # the tail would close what the header opens, if no trace stood between
    "header ending inside an attribute value": around_the_traces('<log a="', '"></log>'),
    "header ending inside an open tag": around_the_traces('<log a="x"', "></log>"),
    "traces after the root element": lambda rng, text: text.replace(
        "  <trace>", "</log>  <trace>", 1
    ).removesuffix("</log>\n"),
    "declared Latin-1": encoded("ISO-8859-1", "latin-1"),
    "declared ASCII": encoded("US-ASCII", "ascii"),
    "UTF-16 with a byte-order mark": encoded("UTF-16", "utf-16"),
    "declared codec that does not exist": encoded("bogus", "utf-8"),
    "declared multi-byte codec": encoded("utf-7", "utf-8"),
    "no element before the first trace": lambda rng, text: re.search(
        r"<trace>.*?</trace>", text, re.S
    )[0],
    "no trace": lambda rng, text: re.sub(r"\s*<trace>.*</trace>", "", text, flags=re.S),
    "trace in the tail": at(TAIL, "<list><trace/></list>\\g<0>"),
    "event in the tail": at(TAIL, "<event/>\\g<0>"),
    "comment in the tail": at(TAIL, "<!-- a comment -->\\g<0>"),
    "processing instruction in the tail": at(TAIL, "<?pi x?>\\g<0>"),
    "entity in the tail": at(TAIL, "&amp;\\g<0>"),
    "missing name": at(NAME_LEAF, r'<event><string key="other" value="\1"/>'),
    "empty name": renamed(""),
    "truncated": lambda rng, text: text[: rng.randrange(text.index("</trace>") + 9, len(text) - 2)],
    "unbound prefix": at(r"<event><string ", r"<event><undeclared:string "),
    "undefined entity": at(r"<trace>", r"<trace>&undefined;"),
}


def pass_spy(passes):
    """_xes_pass, appending to passes whether each pass skips."""
    read = formats._xes_pass

    def spy(source, skipping):
        passes.append(skipping)
        return read(source, skipping)

    return spy


def spied_passes(monkeypatch):
    """Whether each expat pass made from now on skips."""
    passes = []
    monkeypatch.setattr(formats, "_xes_pass", pass_spy(passes))
    return passes


def assert_passes(passes, expected):
    """A document is read in one pass; an expat error after a skip in one more."""
    if isinstance(expected, tuple) and expected[0] is MalformedXml:
        assert passes in ([True], [True, False]), passes
    else:
        assert passes == [True], passes


VALID_CASES = {
    "comment in the header",
    "comment in a trace",
    "comment in the tail",
    "processing instruction in the header",
    "processing instruction in a trace",
    "processing instruction in the tail",
    "entity in a value",
    "entity in the tail",
    "prefixed root",
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", OUTSIDE_CASES)
def test_a_file_outside_the_subset_reads_as_with_no_skips(case, seed, tmp_path, monkeypatch):
    rng = random.Random(f"{case}/{seed}")
    document = OUTSIDE_CASES[case](rng, subset_xes(rng))
    data = document if isinstance(document, bytes) else document.encode("utf-8")
    path = tmp_path / "log.xes"
    path.write_bytes(data)
    expected = exact_outcome(streamed, data)
    passes = spied_passes(monkeypatch)
    assert loaded(path) == expected
    assert_passes(passes, expected)
    # these are valid, so assert_passes holds them to one pass
    assert case not in VALID_CASES or isinstance(expected, dict)

# the comment block that the OpenXES library writes after the XML declaration
OPENXES_HEADER = """
<!-- This file has been generated with the OpenXES library. It conforms -->
<!-- to the XML serialization of the XES standard for log storage and -->
<!-- management. -->
<!-- XES standard version: 1.0 -->
<!-- OpenXES library version: 1.0RC7 -->
<!-- OpenXES is available from http://www.openxes.org/ -->"""

# kinds of trace outside the subset that each change one trace
MIXED_CASES = [
    "prefixed leaf",
    "prefixed trace",
    "trace leaf in an event",
    "event leaf in a trace",
    "entity in a value",
    "character reference in a value",
    "control character in a value",
    "tab in a value",
    "carriage return in a value",
    "lone 0xFF byte in a value",
    "U+FFFF in a value",
    "single quotes",
    "value before key",
    "another attribute",
    "attribute on a trace",
    "nested element in an event",
    "text between traces",
    "leaf between traces",
    "comment in a trace",
    "CDATA in an event",
    "processing instruction in a trace",
    "missing name",
    "empty name",
    "unbound prefix",
    "undefined entity",
]


def mixed_xes(rng, case, traces=5, events=2):
    """A subset document with one or two traces changed as case changes one,
    so that subset traces come before, between or after them."""
    document = subset_xes(rng, traces, events)
    for _ in range(rng.randint(1, 2)):
        if isinstance(document, bytes):
            break
        document = OUTSIDE_CASES[case](rng, document)
    return document if isinstance(document, bytes) else document.encode("utf-8")


def test_valid_files_are_read_in_one_pass(fixtures, tmp_path, monkeypatch):
    rng = random.Random(7)
    documents = {
        "generated.xes": subset_xes(rng, traces=20).encode("utf-8"),
        "openxes.xes": subset_xes(rng, traces=20).replace("?>", "?>" + OPENXES_HEADER, 1)
        .encode("utf-8"),
        "mixed.xes": mixed_xes(rng, "entity in a value", traces=20),
    }
    for name, data in documents.items():
        (tmp_path / name).write_bytes(data)
    paths = [fixtures / "E.xes", fixtures / "F.xes"] + [tmp_path / name for name in documents]
    expected = [exact_outcome(streamed, path.read_bytes()) for path in paths]
    assert all(isinstance(entries, dict) for entries in expected)
    passes = spied_passes(monkeypatch)
    assert [loaded(path) for path in paths] == expected
    assert passes == [True] * len(paths)
    # a trace longer than the bytes held between blocks is fed to expat
    monkeypatch.setattr(formats, "_BLOCK", 64)
    monkeypatch.setattr(formats, "_CARRY_LIMIT", 100)
    passes.clear()
    assert [loaded(path) for path in paths] == expected
    assert passes == [True] * len(paths)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes are POSIX")
def test_a_log_from_a_named_pipe_is_read_once(fixtures, tmp_path, monkeypatch):
    pipe = tmp_path / "log.xes"
    os.mkfifo(pipe)
    data = (fixtures / "E.xes").read_bytes()
    writer = threading.Thread(target=pipe.write_bytes, args=(data,), daemon=True)
    writer.start()
    passes = spied_passes(monkeypatch)
    try:
        log = load_artifact(pipe)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert passes == [False]
    assert log == load_artifact(fixtures / "E.xes")


def spied_expat_input(monkeypatch):
    """The chunks that the expat parsers made from now on are fed."""
    chunks = []
    create = expat.ParserCreate

    class Spy:
        def __init__(self, *args, **kwargs):
            object.__setattr__(self, "parser", create(*args, **kwargs))

        def __getattr__(self, name):
            return getattr(self.parser, name)

        def __setattr__(self, name, value):
            setattr(self.parser, name, value)

        def Parse(self, data, final=False):
            chunks.append(data)
            return self.parser.Parse(data, final)

    monkeypatch.setattr(formats.expat, "ParserCreate", Spy)
    return chunks


@pytest.mark.parametrize("name", ["E.xes", "F.xes", "multi-byte"])
def test_expat_reads_a_subset_log_s_ends_at_every_block_size(
    name, fixtures, tmp_path, monkeypatch
):
    if name == "multi-byte":
        path = tmp_path / "log.xes"
        path.write_text(subset_xes(random.Random(3)), encoding="utf-8")
    else:
        path = fixtures / name
    data = path.read_bytes()
    expected = exact_outcome(streamed, data)
    # expat reads the header, then the first trace alone, after which it is
    # in element content, and the tail; it never reads the other traces
    first = data.index(b"<trace>")
    fed = [
        data[:first],
        data[first : data.index(b"</trace>") + len(b"</trace>")],
        data[data.rindex(b"</trace>") + len(b"</trace>") :],
    ]
    chunks = spied_expat_input(monkeypatch)
    passes = spied_passes(monkeypatch)
    # every size splits the file somewhere new: inside </trace>, inside a
    # multi-byte UTF-8 sequence, inside the XML declaration
    for size in range(1, len(data) + 1):
        monkeypatch.setattr(formats, "_BLOCK", size)
        chunks.clear()
        passes.clear()
        assert loaded(path) == expected, size
        assert chunks == fed, size
        assert passes == [True], size


def every_block_size(data):
    """The outcome of a skipping read of data at each block size, with its
    passes, where it differs from a read with no skips."""
    expected = exact_outcome(streamed, data)
    wrong = []
    for size in range(1, len(data) + 1):
        passes = []
        with mock.patch.object(formats, "_BLOCK", size), mock.patch.object(
            formats, "_xes_pass", pass_spy(passes)
        ):
            outcome = exact_outcome(formats._read_xes, BytesIO(data))
        if outcome != expected:
            wrong.append((size, outcome))
        assert_passes(passes, expected)
    return expected, wrong


@pytest.mark.parametrize("case", MIXED_CASES)
def test_mixed_documents_read_as_with_no_skips_at_every_block_size(case):
    rng = random.Random(case)
    expected, wrong = every_block_size(mixed_xes(rng, case))
    assert wrong == [], expected


# documents that put subset traces where expat reads no element, or that
# expat rejects after traces it was not fed
T = '<trace><event><string key="concept:name" value="a"/></event></trace>'
U = '<trace><event><string key="concept:name" value="b"/></event></trace>'
SPACED, ACCENTED = (T.replace('value="a"', f'value="{value}"') for value in (" a  b ", "\u00e9"))
# a trace with one leaf whose value holds value
LEAF = '<trace><x key="k" value="{}"/></trace>'.format
ADVERSARIAL = {
    "traces in a comment": f"<log>{T}<!-- {U} {U} -->{T}</log>",
    "traces in CDATA": f"<log>{T}<x><![CDATA[{U}{U}]]></x>{T}</log>",
    "traces in a processing instruction": f"<log>{T}<?pi {U}{U}?>{T}</log>",
    "traces in an attribute value": f'<log>{T}<x a="{U}{U}"/>{T}</log>',
    "-- in a commented-out trace": f"<log>{T}<!-- {U}{LEAF('a--b')} --></log>",
    "a comment closed in a value": f"<log><trace><!-- {LEAF('-->')}{U}{U}</log>",
    "a processing instruction closed in a value": f"<log><trace><?pi {LEAF('?>')}{U}{U}</log>",
    "traces after the root": f"<log>{T}{U}{U}</log>{U}{U}",
    "a trace as the root": T,
    "traces after a trace as the root": f"{T}\n{U}{U}",
    "nested traces": f"<log><trace>{T}{U}{U}</trace></log>",
    "traces in an event":
        f'<log><trace><event><x key="concept:name" value="c"/>{T}{U}</event></trace></log>',
    "an entity declared in a DOCTYPE": f'<!DOCTYPE log [<!ENTITY e "x">]><log>{T}{U}{U}</log>',
    # expat collapses the spaces of a value of a declared tokenized type
    "a value type declared in a DOCTYPE":
        f"<!DOCTYPE log [<!ATTLIST string value NMTOKENS #IMPLIED>]><log>{T}{SPACED}</log>",
    # the bytes of "\u00e9" in UTF-8 are "\u00c3\u00a9" in Latin-1
    "UTF-8 bytes in a Latin-1 document": '<?xml version="1.0" encoding="ISO-8859-1"?>'
    f"<log>{T}{ACCENTED}</log>",
    "an undefined entity after skips": f"<log>{T}{U}{U}\n<trace>&undefined;</trace></log>",
    "a bad byte after skips": f"<log>{T}{U}{U}\n<x>\udcff</x></log>",
    "truncated after skips": f"<log>{T}\n{U}\n{U}\n</lo",
    "a missing name after skips":
        f'<log>{T}{U}<trace><event><x key="k" value="v"/></event></trace></log>',
}


@pytest.mark.parametrize("case", ADVERSARIAL)
def test_adversarial_documents_read_as_with_no_skips_at_every_block_size(case):
    data = ADVERSARIAL[case].encode("utf-8", "surrogateescape")
    expected, wrong = every_block_size(data)
    assert wrong == [], expected


def test_an_error_after_a_skip_is_that_of_a_read_with_no_skips(tmp_path, monkeypatch):
    text = subset_xes(random.Random(5), traces=8)
    path = tmp_path / "log.xes"
    path.write_text(text[: text.rindex("</trace>") - 20], encoding="utf-8")
    expected = exact_outcome(streamed, path.read_bytes())
    assert expected[0] is MalformedXml and "line" in expected[1]
    passes = spied_passes(monkeypatch)
    assert loaded(path) == expected
    assert passes == [True, False]


# inserted into values in the trace region: bytes that are not UTF-8 or
# encode no XML character, and characters that expat takes
VALUE_BYTES = [
    b"\xff",
    b"\xc0\xaf",
    b"\xed\xa0\x80",
    b"\xf4\x90\x80\x80",
    "\ufffe".encode(),
    "\uffff".encode(),
    b"\x80",
    b"\xe2\x82",
    b"\x7f",
    "\x85".encode(),
    "\ufffd".encode(),
    "\U0010ffff".encode(),
]


def random_value_bytes(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice(VALUE_BYTES)
    if kind == 1:
        return bytes(rng.randrange(0x80, 0x100) for _ in range(rng.randint(1, 4)))
    return chr(rng.randrange(0x80, 0x110000)).encode("utf-8", "surrogatepass")


def test_bytes_in_the_traces_are_checked_as_expat_checks_them(monkeypatch):
    verdicts = []  # of the check of each run of traces
    check = formats._xml_characters
    monkeypatch.setattr(
        formats, "_xml_characters", lambda region: verdicts.append(check(region)) or verdicts[-1]
    )
    for seed in range(300):
        rng = random.Random(seed)
        data = subset_xes(rng).encode("utf-8")
        values = re.compile(rb'value="([^"]*)"').finditer(data, data.index(b"<trace>"))
        # anywhere in each value, even inside a multi-byte character
        cuts = [rng.randint(*m.span(1)) for m in rng.sample(list(values), rng.randint(1, 3))]
        for cut in sorted(cuts, reverse=True):
            data = data[:cut] + random_value_bytes(rng) + data[cut:]
        expected = exact_outcome(streamed, data)
        for block in (7, 64, 256):
            with mock.patch.object(formats, "_BLOCK", block):
                assert exact_outcome(formats._read_xes, BytesIO(data)) == expected, (seed, block)
    # the check is seen to accept and to reject
    assert min(verdicts.count(True), verdicts.count(False)) > 100, len(verdicts)


# Generated documents whose traces are all in the subset: any leaf tags, keys
# and values, whitespace or none between elements, and traces that may sit
# inside a further element of the root.
SUBSET_SPACES = st.sampled_from(["", " ", "\n  ", "\r\n", "\t"])
# U+FFFE and U+FFFF are no XML characters; the byte cases above take them
SUBSET_VALUES = st.one_of(
    st.sampled_from(SUBSET_LABELS + ["", "it's", "\x7f", "\x85", "\ufffd", "\U0010ffff"]),
    st.text(
        st.characters(
            min_codepoint=32, exclude_characters='"&<\ufffe\uffff', exclude_categories=("Cs",)
        ),
        max_size=3,
    ),
)


@st.composite
def subset_leaves(draw, tags=("string", "date", "x.y", "traces", "eventual")):
    tag = draw(st.sampled_from(tags))
    key = draw(st.sampled_from(["concept:name", "concept:name", "org:resource", "concept:name2"]))
    space, end = draw(st.sampled_from([" ", "\n  ", "\r\n", "\t"])), draw(SUBSET_SPACES)
    return f'<{tag}{space}key="{key}"{space}value="{draw(SUBSET_VALUES)}"{end}/>'


def subset_element(tag, members):
    return st.tuples(SUBSET_SPACES, st.lists(st.tuples(members, SUBSET_SPACES), max_size=4)).map(
        lambda parts: f"<{tag}>{parts[0]}{''.join(m + s for m, s in parts[1])}</{tag}>"
    )


SUBSET_EVENTS = subset_element("event", subset_leaves())
SUBSET_TRACES = subset_element("trace", st.one_of(subset_leaves(), *[SUBSET_EVENTS] * 3))


@st.composite
def subset_documents(draw):
    declarations = ["", "<?xml version='1.0'?>", '<?xml version="1.0" encoding="utf-8"?>']
    head = draw(st.sampled_from(declarations))
    root = draw(st.sampled_from(["<log>", f'<log xmlns="{XES_NAMESPACE}" xes.version="1.0">']))
    header = "".join(draw(st.lists(subset_leaves(), max_size=2)))
    traces = draw(st.lists(st.tuples(SUBSET_TRACES, SUBSET_SPACES), min_size=1, max_size=4))
    body = "".join(t + s for t, s in traces)
    if draw(st.booleans()):
        body = f"<list>{body}</list>"
    # the tail holds no "<trace" or "<event", even as the start of another tag
    tail = "".join(draw(st.lists(subset_leaves(("string", "x.y")), max_size=2)))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return (bom + head + root + header + body + tail + "</log>\n").encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(subset_documents(), st.sampled_from([1, 2, 3, 7, 64, formats._BLOCK]))
def test_subset_documents_read_as_with_no_skips_in_one_pass(data, block):
    expected = exact_outcome(streamed, data)
    passes = []
    with mock.patch.object(formats, "_BLOCK", block), mock.patch.object(
        formats, "_xes_pass", pass_spy(passes)
    ):
        assert exact_outcome(formats._read_xes, BytesIO(data)) == expected
    # only a missing or empty name makes a document in the subset an error
    assert isinstance(expected, dict) or expected[0] is MissingConceptName
    assert passes == [True]


# Subset traces, and byte-level mutations of them, on which the possessive
# _TRACE and _NAME are compared with the backtracking forms they replaced.
PATTERN_SPACES = [b"", b" ", b"\n  ", b"\r\n", b"\t"]
PATTERN_TAGS = [
    b"string", b"date", b"x.y", b"_a", b"a-1", b"traces", b"eventual", b"event", b"trace", b"1a",
]
PATTERN_KEYS = [b"concept:name", b"concept:name", b"concept:name2", b"org:resource", b""]
PATTERN_VALUES = [b"a", b"", b"caf\xc3\xa9", b"x y", b"a>b", b"it's", b"\x7f", b"\xff"]
# inserted anywhere: markup and value delimiters, starts of other elements,
# a comment and a processing instruction
PATTERN_ATOMS = [
    b"&", b"<", b'"', b">", b"/", b"=", b" ", b"<trace ", b"<trace>", b"</trace>", b"<event>",
    b"</event>", b"<event ", b"<!-- c -->", b"<?pi x?>", b'key="concept:name"',
]


def pattern_leaf(rng):
    space = rng.choice(PATTERN_SPACES[1:])
    return (
        b"<" + rng.choice(PATTERN_TAGS) + space + b'key="' + rng.choice(PATTERN_KEYS) + b'"'
        + space + b'value="' + rng.choice(PATTERN_VALUES) + b'"' + rng.choice(PATTERN_SPACES)
        + b"/>"
    )


def pattern_element(rng, tag, member):
    parts = [b"<" + tag + b">"]
    for _ in range(rng.randrange(4)):
        parts += [rng.choice(PATTERN_SPACES), member(rng)]
    return b"".join(parts + [rng.choice(PATTERN_SPACES), b"</" + tag + b">"])


def pattern_trace(rng):
    def member(rng):
        if rng.random() < 0.6:
            return pattern_element(rng, b"event", pattern_leaf)
        return pattern_leaf(rng)

    return pattern_element(rng, b"trace", member)


def pattern_mutated(rng, data):
    """data with up to three edits: an atom or control byte inserted, bytes
    deleted, a byte replaced, or a slice doubled."""
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        at = rng.randrange(len(data) + 1)
        edit = rng.randrange(4)
        if edit == 0:
            atom = rng.choice(PATTERN_ATOMS + [bytes([rng.randrange(0x20)])])
            data = data[:at] + atom + data[at:]
        elif edit == 1:
            data = data[:at] + data[at + rng.randint(1, 8) :]
        elif edit == 2:
            data = data[:at] + bytes([rng.randrange(0x100)]) + data[at + 1 :]
        else:
            end = rng.randint(at, len(data))
            data = data[:at] + data[at:end] * 2 + data[end:]
    return data


def test_the_possessive_patterns_match_as_the_backtracking_ones_do():
    pairs = [
        (re.compile(oracles.REFERENCE_TRACE), re.compile(formats._TRACE)),
        (re.compile(oracles.REFERENCE_NAME), re.compile(formats._NAME)),
    ]
    rng = random.Random(30)
    matched = 0
    for case in range(40_000):
        data = pattern_trace(rng) + rng.choice(PATTERN_SPACES)
        if rng.random() < 0.3:
            data += pattern_trace(rng)
        data = pattern_mutated(rng, data)
        # _xes_pass matches up to the end of a later </trace>
        endpos = rng.randint(0, len(data))
        for old, new in pairs:
            for bounds in ((0, len(data)), (0, endpos)):
                ends = [m and m.end() for m in (old.match(data, *bounds), new.match(data, *bounds))]
                assert ends[0] == ends[1], (case, data, bounds)
            assert old.findall(data) == new.findall(data), (case, data)
        matched += pairs[0][0].match(data) is not None
    # both outcomes are well represented
    assert 8_000 < matched < 32_000, matched


@pytest.mark.parametrize("block", [7, formats._BLOCK])
def test_every_byte_in_a_later_trace_s_name_reads_as_with_no_skips(block, tmp_path, monkeypatch):
    text = subset_xes(random.Random(11), traces=6).encode("utf-8")
    # the first event name of the fourth trace; expat is fed the first
    start = text.index(b'value="', text.index(b"<event>", text.index(b"case-3"))) + 7
    end = text.index(b'"', start)
    trace = re.compile(formats._TRACE)
    monkeypatch.setattr(formats, "_BLOCK", block)
    chunks = spied_expat_input(monkeypatch)
    path = tmp_path / "log.xes"
    admitted, skipped = set(), set()
    for byte in range(0x100):
        data = text[:start] + b"a" + bytes([byte]) + b"b" + text[end:]
        path.write_bytes(data)
        expected = exact_outcome(streamed, data)
        chunks.clear()
        assert loaded(path) == expected, byte
        first = data.rindex(b"<trace>", 0, start)
        if trace.fullmatch(data, first, data.index(b"</trace>", start) + 8):
            admitted.add(byte)
        if b'"case-3"' not in b"".join(chunks):
            skipped.add(byte)
    # the subset admits in a value each byte but "&< and \x00-\x1f, and of
    # those expat is not fed the ASCII ones, which pass the character check
    assert admitted == set(range(0x20, 0x100)) - set(b'"&<')
    assert skipped == set(range(0x20, 0x80)) - set(b'"&<')


def test_pnml_round_trip(fixtures, net_n):
    assert parse_pnml(serialize_pnml(net_n)) == net_n
    text = (fixtures / "N.pnml").read_text()
    assert parse_pnml(text) == net_n


def test_pnml_preserves_weights_finals_and_silence():
    net = PetriNet(
        places=frozenset({"p0", "p1"}),
        transitions={"t0": "a", "t1": None},
        arcs={("p0", "t0"): 2, ("t0", "p1"): 1, ("p1", "t1"): 1, ("t1", "p0"): 1},
        initial_marking=Marking.of({"p0": 2}),
        final_markings=frozenset({Marking.of({"p1": 1}), Marking.of({})}),
    )
    restored = parse_pnml(serialize_pnml(net))
    assert restored == net
    assert restored.transitions["t1"] is None
    assert restored.arcs[("p0", "t0")] == 2


def test_pnml_errors():
    with pytest.raises(MalformedXml):
        parse_pnml("<pnml><net>")
    with pytest.raises(DanglingArc):
        parse_pnml(
            '<pnml><net><page><place id="p"/>'
            '<arc id="a" source="p" target="ghost"/></page></net></pnml>'
        )


@pytest.mark.parametrize(
    "place, arc, final",
    [
        ("<initialMarking><text>x</text></initialMarking>", "", "1"),
        ("", "<inscription><text>x</text></inscription>", "1"),
        ("", "", "x"),
        ("", "", "-1"),
        ("<initialMarking><text>1_0</text></initialMarking>", "", "1"),
        ("", "<inscription><text>\u0661</text></inscription>", "1"),
    ],
    ids=[
        "initial-marking",
        "inscription",
        "final-marking",
        "negative-final-marking",
        "digit-separator",
        "non-ascii-digit",
    ],
)
def test_pnml_integer_fields(place, arc, final):
    text = (
        f'<pnml><net><page><place id="p">{place}</place>'
        '<transition id="t"><name><text>a</text></name></transition>'
        f'<arc id="a" source="p" target="t">{arc}</arc></page>'
        f'<finalmarkings><marking><place idref="p"><text>{final}</text></place>'
        "</marking></finalmarkings></net></pnml>"
    )
    with pytest.raises(ParseError):
        parse_pnml(text)


def test_pnml_counts_take_a_sign_and_surrounding_whitespace():
    net = parse_pnml(
        '<pnml><net><page><place id="p">'
        "<initialMarking><text> +2\n</text></initialMarking></place>"
        "</page></net></pnml>"
    )
    assert net.initial_marking == Marking.of({"p": 2})


def test_spnml_round_trip(fixtures):
    net = load_artifact(fixtures / "N.spnml")
    assert parse_spnml(serialize_spnml(net)) == net

    weighted = StochasticPetriNet(
        places=frozenset({"p0", "p1", "p2"}),
        transitions={"ta": "a", "tb": "b"},
        arcs={("p0", "ta"): 1, ("ta", "p1"): 1, ("p0", "tb"): 1, ("tb", "p2"): 1},
        initial_marking=Marking.of({"p0": 1}),
        weights={"ta": Fraction(3, 2), "tb": Fraction(1)},
    )
    restored = parse_spnml(serialize_spnml(weighted))
    assert restored == weighted
    assert restored.weights["ta"] == Fraction(3, 2)


def test_no_net_path_reads_a_marking_place_by_place(fixtures, monkeypatch):
    # Marking.count scans the marking's tokens, so a reader that asks it for
    # every place is quadratic in the marked places; each path reads a
    # marking once, as a dict, and its results stay the same without count
    builds = [is_bounded, reachability_graph, lambda n: rg_to_dfa(reachability_graph(n), n)]
    builds.append(serialize_pnml)
    nets = parity_nets(fixtures)

    def results():
        values = []
        for net in nets:
            weighted = isinstance(net, StochasticPetriNet)
            for build in builds + ([stochastic_rg_to_sdfa, serialize_spnml] if weighted else []):
                try:
                    values.append(build(net))
                except EntroconfError as error:
                    values.append((type(error), str(error), vars(error)))
        return values

    expected = results()

    def forbidden(self, place):
        raise AssertionError("a marking was read place by place")

    monkeypatch.setattr(Marking, "count", forbidden)
    assert results() == expected


def test_spnml_errors():
    with pytest.raises(NonPositiveWeight):
        parse_spnml(
            '<pnml><net><page><transition id="t"><name><text>a</text></name>'
            '<toolspecific tool="stochastic"><weight>0</weight></toolspecific>'
            "</transition></page></net></pnml>"
        )
    with pytest.raises(SilentTransitionUnsupported):
        parse_spnml(
            '<pnml><net><page><transition id="t"/></page></net></pnml>'
        )


def test_sdfa_round_trip(fixtures, sdfa_a):
    text = serialize_sdfa(sdfa_a)
    assert parse_sdfa(text) == sdfa_a
    assert "4/5" in text
    original = (fixtures / "A.sdfa").read_text()
    assert parse_sdfa(original) == sdfa_a


def test_sdfa_parser_tolerates_comments_and_tiny_sum_slack():
    text = (
        "# comment line\n"
        "initial s0\n"
        "state s0 0.4999999996   # trailing comment\n"
        "\n"
        "state s1 1\n"
        "arc s0 s1 go 1/2\n"
    )
    a = parse_sdfa(text)
    assert a.transitions[("s0", "go")] == ("s1", Fraction(1, 2))
    assert a.termination["s0"] == Fraction("0.4999999996")


def test_sdfa_errors():
    with pytest.raises(ParseError):
        parse_sdfa("state s0 1\n")  # no initial declaration
    with pytest.raises(ParseError):
        parse_sdfa("initial s0\nstate s0 1\nwhatever s0\n")
    with pytest.raises(ParseError):
        parse_sdfa("initial s0\nstate s0 1\narc s0 ghost go 0\n")
    with pytest.raises(ParseError):
        parse_sdfa("initial s0\nstate s0 1\nstate s1 0\narc s0 s1 go 3/2\n")
    with pytest.raises(ParseError):
        # the sum is 1, but only with a negative termination
        parse_sdfa("initial s0\nstate s0 -1\narc s0 s0 a 1\narc s0 s0 b 1\n")
    with pytest.raises(DuplicateTransition):
        parse_sdfa(
            "initial s0\nstate s0 0\nstate s1 1\n"
            "arc s0 s1 go 1/2\narc s0 s0 go 1/2\n"
        )
    with pytest.raises(StochasticSumViolation):
        parse_sdfa("initial s0\nstate s0 0.9\n")


@pytest.mark.parametrize(
    "token, value",
    [
        ("1e00001", Fraction(10)),
        ("5E+00001", Fraction(50)),
        ("2.5e-0002", Fraction(1, 40)),
        ("3e0000", Fraction(3)),
        ("1e9999", Fraction(10**9999)),
        ("1e99999999", None),
        ("1e+00099999999", None),
    ],
)
def test_number_exponents_count_their_significant_digits(token, value):
    # zero padding is read; five significant digits fail at once, before
    # the power of ten is built
    if value is not None:
        assert _parse_number(token, "weight") == value
    else:
        with pytest.raises(ParseError, match="exponent .* out of range"):
            _parse_number(token, "weight")


def test_dfg_fixture_normalizes_exactly(fixtures):
    text = (fixtures / "billing.dfg").read_text()
    dfg = read_dfg(text)
    assert dfg.source == "start"
    assert dfg.sink == "end"
    assert len(dfg.nodes) == 5

    a = parse_dfg(text)
    assert a.initial == "start"
    first = {(label, prob) for label, _, prob in a.out_edges("start")}
    assert first == {("a", Fraction(5, 7)), ("b", Fraction(2, 7))}
    for state in a.states:
        total = a.termination.get(state, Fraction(0)) + sum(
            p for _, _, p in a.out_edges(state)
        )
        assert total == 1
    assert trace_probability(a, ("a", "b", "c", "e")) == Fraction(18, 49)


def test_dfg_round_trip(fixtures):
    text = (fixtures / "billing.dfg").read_text()
    dfg = read_dfg(text)
    assert read_dfg(serialize_dfg(dfg)) == dfg


def test_dfg_errors():
    with pytest.raises(ParseError):
        read_dfg("source s\nnode n a\narc s n 1\narc n end 1\n")  # no sink
    with pytest.raises(ParseError):
        read_dfg("source s\nsink e\nnode n a\narc s n 0\narc n e 1\n")
    with pytest.raises(ParseError):
        read_dfg("source s\nsink e\nnode n a\narc s n 1\narc s n 2\narc n e 1\n")
    with pytest.raises(ParseError):
        read_dfg("source s\nsink e\nnode n a\narc s ghost 1\narc n e 1\n")
    with pytest.raises(DeadEndNode):
        read_dfg("source s\nsink e\nnode n a\narc s n 1\n")
    with pytest.raises(UnreachableNode):
        read_dfg(
            "source s\nsink e\nnode n a\nnode m b\n"
            "arc s n 1\narc n e 1\narc m e 1\n"
        )
    with pytest.raises(ParseError):
        # two successors of the source share a label
        parse_dfg(
            "source s\nsink e\nnode n1 a\nnode n2 a\n"
            "arc s n1 1\narc s n2 1\narc n1 e 1\narc n2 e 1\n"
        )


def pnml(page, finals=""):
    return f"<pnml><net><page>{page}</page>{finals}</net></pnml>"


def final_marking(places):
    return f"<finalmarkings><marking>{places}</marking></finalmarkings>"


MARKED = "<initialMarking><text>1</text></initialMarking>"


PARSER_REJECTIONS = {
    "repeated initial": (
        parse_sdfa, "initial s0\ninitial s0\nstate s0 1\n", "line 2: repeated initial declaration"
    ),
    "redeclared state": (
        parse_sdfa, "initial s0\nstate s0 1\nstate s0 1\n", "line 3: state s0 redeclared"
    ),
    "undeclared initial state": (
        parse_sdfa, "initial s9\nstate s0 1\n", "initial state s9 is not declared"
    ),
    "repeated source": (
        read_dfg, "source s\nsource t\n", "line 2: repeated source declaration"
    ),
    "repeated sink": (read_dfg, "sink e\nsink f\n", "line 2: repeated sink declaration"),
    "redeclared node": (
        read_dfg, "source s\nnode n a\nnode n b\n", "line 3: node n redeclared"
    ),
    "unrecognized record": (
        read_dfg, "source s\nnode n\n", "line 2: unrecognized record 'node n'"
    ),
    "source equal to the sink": (
        read_dfg, "source s\nsink s\narc s s 1\n",
        "source and sink must be distinct, undeclared endpoints",
    ),
    "source declared as a node": (
        read_dfg, "source s\nsink e\nnode s a\narc s e 1\n",
        "source and sink must be distinct, undeclared endpoints",
    ),
    "arc from an unknown node": (
        read_dfg, "source s\nsink e\nnode n a\narc s n 1\narc ghost e 1\narc n e 1\n",
        "arc leaves unknown node 'ghost'",
    ),
    "arc leaving the sink": (
        read_dfg, "source s\nsink e\nnode n a\narc s n 1\narc n e 1\narc e n 1\n",
        "arcs may not leave the sink or enter the source",
    ),
    "arc entering the source": (
        read_dfg, "source s\nsink e\nnode n a\narc s n 1\narc n e 1\narc n s 1\n",
        "arcs may not leave the sink or enter the source",
    ),
    "source with no outgoing arc": (
        read_dfg, "source s\nsink e\nnode n a\narc n e 1\n", "the source has no outgoing arc"
    ),
    "place without id": (parse_pnml, pnml("<place/>"), "place without id"),
    "transition without id": (parse_pnml, pnml("<transition/>"), "transition without id"),
    "arc without target": (
        parse_pnml, pnml('<place id="p"/><arc id="a" source="p"/>'),
        "arc without source or target",
    ),
    "arc without source": (
        parse_pnml, pnml('<place id="p"/><arc id="a" target="p"/>'),
        "arc without source or target",
    ),
    "final marking place without idref": (
        parse_pnml, pnml('<place id="p"/>', final_marking("<place/>")),
        "final marking place without idref",
    ),
    "place id equal to a transition id": (
        parse_pnml, pnml('<place id="x"/><transition id="x"/>'),
        "place and transition ids must be disjoint",
    ),
    "place declared twice": (
        parse_pnml,
        pnml(f'<place id="p">{MARKED}</place><place id="p"/>'),
        "place p declared twice",
    ),
    "transition declared twice": (
        parse_pnml,
        pnml('<transition id="t"><name><text>a</text></name></transition><transition id="t"/>'),
        "transition t declared twice",
    ),
    "id declared twice, not printable": (
        parse_pnml, pnml('<place id="p\u2028"/><place id="p\u2028"/>'),
        "place 'p\\u2028' declared twice",
    ),
}


@pytest.mark.parametrize("case", PARSER_REJECTIONS)
def test_parser_rejections_name_their_cause(case):
    parse, text, message = PARSER_REJECTIONS[case]
    with pytest.raises(InputError) as caught:
        parse(text)
    expected = DeadEndNode if case == "source with no outgoing arc" else ParseError
    assert (type(caught.value), str(caught.value)) == (expected, message)


def test_a_final_marking_place_without_text_holds_one_token():
    net = parse_pnml(pnml('<place id="p"/>', final_marking('<place idref="p"/>')))
    assert net.final_markings == frozenset({Marking.of({"p": 1})})


def test_load_artifact_dispatch(fixtures):
    assert isinstance(load_artifact(fixtures / "E.xes"), EventLog)
    assert isinstance(load_artifact(fixtures / "N.pnml"), PetriNet)
    assert isinstance(load_artifact(fixtures / "N.spnml"), StochasticPetriNet)
    assert isinstance(load_artifact(fixtures / "A.sdfa"), Sdfa)
    assert isinstance(load_artifact(fixtures / "billing.dfg"), Sdfa)
    with pytest.raises(UnknownExtension):
        load_artifact(fixtures / "E.txt")
    with pytest.raises(InputError):
        load_artifact(fixtures / "missing.xes")
