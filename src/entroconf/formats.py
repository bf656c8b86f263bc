"""Readers and writers for the five artifact formats.

XML formats: XES event logs (only the concept:name of each event is used),
PNML Petri nets (initialMarking, optional finalmarkings section, silent
transitions by empty name or an invisible marker), and sPNML stochastic
nets (PNML plus a per-transition weight annotation).

An XES file is read in fixed blocks by one expat pass, so memory stays
flat in its size. Expat is not fed runs of traces in a common subset of
XES that follow a trace it has read: patterns count their events with no
Python call per element (see _xes_pass). Their repeats are possessive and
keep no backtracking state (Python 3.11 and later); each is followed by a
byte that its body cannot start with, so they match what backtracking
repeats would.

Line formats, with '#' comments and blank lines ignored:

    SDFA                            DFG
    initial <stateId>               source <nodeId>
    state <stateId> <termination>   sink <nodeId>
    arc <from> <to> <label> <prob>  node <nodeId> <label>
                                    arc <from> <to> <frequency>

Probabilities and weights may be decimals ("0.5") or fractions ("4/5") and
are kept as exact rationals, so serializing and reparsing is lossless.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Mapping
from xml.parsers import expat

from . import petri, stochastic
from .automata import EventLog, Trace, _reachable, _Record
from .errors import (
    DanglingArc,
    DeadEndNode,
    DuplicateTransition,
    InputError,
    MalformedXml,
    MissingConceptName,
    NonPositiveWeight,
    ParseError,
    StochasticSumViolation,
    UnknownExtension,
    UnreachableNode,
    _echo,
    _parse_count,
    _shown,
)

# petri and stochastic run only when a parser builds a net or an SDFA, and
# ElementTree is imported by the functions that read or write a tree, so that
# runs reading only XES, which expat streams, load neither
if TYPE_CHECKING:
    import xml.etree.ElementTree as ET

    from .petri import Marking, PetriNet, StochasticPetriNet
    from .stochastic import Sdfa

# transitions carrying this ProM marker are silent regardless of their name
_INVISIBLE = "$invisible$"


class Dfg(_Record):
    """Directly-follows graph: labeled activity nodes between two endpoints."""

    nodes: Mapping[str, str]
    arcs: Mapping[tuple[str, str], int]
    source: str
    sink: str

    def __init__(self, nodes, arcs, source, sink) -> None:
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "sink", sink)


class _LocalNames(dict):
    """Cache of each raw tag's local name: "{uri}trace" from ElementTree and
    "uri}trace" from expat are "trace"."""

    def __missing__(self, tag: str) -> str:
        local = self[tag] = tag.rpartition("}")[2]
        return local


# the ElementTree readers' names
_local_names = _LocalNames()


def _parse_xml(text: str | bytes) -> ET.Element:
    import xml.etree.ElementTree as ET

    try:
        return ET.fromstring(text)
    except (ET.ParseError, LookupError, ValueError) as exc:
        # LookupError and ValueError: see _read_xes
        raise MalformedXml(str(exc)) from None


def _child_text(element: ET.Element, tag: str) -> str | None:
    for child in element:
        if _local_names[child.tag] == tag:
            for grandchild in child:
                if _local_names[grandchild.tag] == "text":
                    return grandchild.text or ""
            return child.text or ""
    return None


def _parse_number(token: str, context: str) -> Fraction:
    # Fraction("1e99999999") spends minutes building the power of ten;
    # leading zeros add nothing to it
    if len(token.lower().partition("e")[2].lstrip("+-").lstrip("0")) > 4:
        raise ParseError(f"{context}: exponent of {_echo(token)} out of range")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{context}: cannot read number {_echo(token)}") from None


def _parse_probability(token: str, context: str) -> Fraction:
    value = _parse_number(token, context)
    if not 0 <= value <= 1:
        raise ParseError(f"{context}: probability {_echo(token, str)} outside [0, 1]")
    return value


# --- XES ---------------------------------------------------------------


_BLOCK = 1 << 18  # bytes read and parsed at a time
# the bytes held between blocks stay under this; a longer header, trace or
# tail goes to expat as it comes
_CARRY_LIMIT = 1 << 22

# The traces that expat need not read (see _xes_pass): each holds only
# <event> elements and leaf attributes <tag key="..." value="..."/>, each
# event only leaves. A value with no entity, tab, line break or other
# control character is its own text; a tag with no prefix is its own local
# name.
#
# Every repeat is possessive (*+, ++, ?+): it keeps no state to give back
# an iteration, and a backtracking repeat would never need to, so the
# patterns match the same bytes and capture the same names as their
# backtracking forms. A single-byte repeat is followed by a byte that its
# class excludes, or ends the pattern: a value's bytes by '"', a tag's by
# a space, spaces by k, v, / or <. A group's iteration and what follows
# it skip the same spaces and then part at the byte after "<": a leaf or
# an event goes on with [A-Za-z_], an end tag with /. In _NAME the
# lookahead parts the leaves before the name from the name's own leaf.
# Each part of an iteration has one match, so no other split of the same
# bytes exists either.
_SPACE = rb"[ \t\r\n]"
# the bytes but "&< and \x00-\x1f, written as a positive class, which sre
# tests faster than the negated one
_VALUE = rb'''"[ !#-%'-;=-\xff]*+"'''
_LEAF = (
    rb"<(?!(?:trace|event)[ \t\r\n])[A-Za-z_][\w.\-]*+"
    + _SPACE + rb"++key=" + _VALUE + _SPACE + rb"++value=" + _VALUE + _SPACE + rb"*+/>"
)
_EVENT = rb"<event>(?:" + _SPACE + rb"*+" + _LEAF + rb")*+" + _SPACE + rb"*+</event>"
_TRACE = (
    rb"<trace>(?:" + _SPACE + rb"*+(?:" + _EVENT + rb"|" + _LEAF + rb"))*+"
    + _SPACE + rb"*+</trace>" + _SPACE + rb"*+"
)
# in a trace that _TRACE matched: each event, and the value of its first
# leaf keyed concept:name, or b"" when it has none
_NAME = (
    rb"<event>(?:" + _SPACE + rb'*+<[\w.\-]++' + _SPACE + rb'++key="(?!concept:name")[^"]*+"'
    + _SPACE + rb'++value="[^"]*+"' + _SPACE + rb"*+/>)*+"
    rb"(?:" + _SPACE + rb"*+<[\w.\-]++" + _SPACE + rb'++key="concept:name"'
    + _SPACE + rb'++value="([^"]*+)")?+'
)


def _xml_characters(region: bytes) -> bool:
    """Whether region is strict UTF-8 with no U+FFFE or U+FFFF, as expat
    requires of the characters of a UTF-8 document."""
    if region.isascii():
        return True
    try:
        region.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return b"\xef\xbf\xbe" not in region and b"\xef\xbf\xbf" not in region


def _read_xes(source) -> EventLog:
    """Event log from a str, or a binary stream read with skips if it can seek."""
    return _xes_pass(source, not isinstance(source, str) and source.seekable())


def _xes_pass(source, skipping: bool) -> EventLog:
    """The event log of source, in one expat pass, or in a second with no
    skips if expat rejects it after a skip.

    No tree is built. Each open element's role goes on a stack: "trace" for
    a <trace> at any depth, "event" for an <event> directly inside one, ""
    for anything else. Only the open traces' event lists and the open
    events' names are held. A missing name is reported once the whole
    document has been read, so that malformed XML takes precedence, as it
    does when the tree is built first.

    A stream is read in _BLOCKs. While skipping, expat is not fed a trace
    that _TRACE matches and that directly follows, with only whitespace
    between, a trace whose end tag expat parsed while that trace alone was
    fed, or a trace skipped so; _NAME counts its events instead.
    """
    # Why expat need not read such a trace: it is in element content there,
    # as it reported an element end at the byte index of the fed trace's
    # "</trace>", with an element still open and no byte left over. _TRACE
    # matches only elements that are well-formed in themselves, with no
    # prefixes, entities, comments, CDATA or PIs, only key and value
    # attributes, and no "&<, control character or other whitespace than
    # [ \t\r\n], so each skipped trace leaves expat in element content
    # again. What expat would still reject in it is a character that is not
    # an XML Char of a UTF-8 document, which _xml_characters rejects once
    # per run and block; a run that fails is fed with the rest of the file.
    # And nothing else changes what expat makes of it: no DOCTYPE has
    # started, so no attribute default or entity is declared, and no
    # encoding but UTF-8 is declared (in UTF-16, no end tag starts where an
    # ASCII "</trace>" does, so nothing is skipped). Expat would report the
    # trace's start, its events with the names _NAME takes out, and its end.
    parser = expat.ParserCreate(namespace_separator="}")
    local_names = _LocalNames()
    roles = [""]  # of the open elements, under a sentinel for the root's parent
    traces: list[list] = []  # event names of each open trace
    names: list = []  # concept:name of each open event; None until seen
    # per trace, in the order they end: its names from expat, or the raw
    # UTF-8 bytes of a skipped trace's names
    counts: dict[tuple, int] = {}
    missing = False
    closed = -1  # expat's byte index of the last trace end tag it parsed
    fed = 0  # bytes given to expat

    def start(tag, attrs):
        parent = roles[-1]
        if (
            parent == "event"
            and names[-1] is None
            and attrs.get("key") == "concept:name"
        ):
            names[-1] = attrs.get("value") or ""
        local = local_names[tag]
        if local == "trace":
            roles.append("trace")
            traces.append([])
        elif local == "event" and parent == "trace":
            roles.append("event")
            names.append(None)
        else:
            roles.append("")

    def end(tag):
        nonlocal missing, closed
        role = roles.pop()
        if role == "event":
            name = names.pop()
            if not name:
                missing = True
            traces[-1].append(name)
        elif role == "trace":
            trace = tuple(traces.pop())
            counts[trace] = counts.get(trace, 0) + 1
            closed = parser.CurrentByteIndex

    def skipped_entity(entity, is_parameter_entity):
        # an entity reference no declaration defines, left by expat because
        # the document has an external DTD it does not read
        if not is_parameter_entity:
            raise MalformedXml(f"undefined entity &{entity};")

    def no_skips(*_):
        nonlocal skipping
        skipping = False

    def declaration(version, encoding, standalone):
        if encoding and encoding.lower() != "utf-8":
            no_skips()

    def feed(chunk):
        nonlocal fed
        if chunk:
            parser.Parse(chunk, False)
            fed += len(chunk)

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.SkippedEntityHandler = skipped_entity
    parser.StartDoctypeDeclHandler = no_skips
    parser.XmlDeclHandler = declaration
    skipped = False
    try:
        if isinstance(source, str):
            parser.Parse(source, True)
        else:
            # compiled on first use, not on import, which every run would
            # pay for; re keeps them compiled for the next file
            trace, name = re.compile(_TRACE), re.compile(_NAME)
            spaces = re.compile(_SPACE + rb"*")
            confirmed = False  # whether a subset trace at pos may be skipped
            carry = b""
            while block := source.read(_BLOCK):
                buf = carry + block
                # bytes before pos are fed or skipped; no trace that _TRACE
                # matches starts between pos and search
                pos = search = 0
                while skipping:
                    if confirmed:
                        begin = end = spaces.match(buf, pos).end()
                        last = buf.rfind(b"</trace>", begin)
                        if last < 0:
                            break
                        run = []
                        while match := trace.match(buf, end, last + 8):
                            run.append(tuple(name.findall(buf, end, match.end())))
                            end = match.end()
                        if not run:
                            confirmed, search = False, pos
                        elif _xml_characters(buf[begin:end]):
                            skipped, pos = True, end
                            for key in run:
                                counts[key] = counts.get(key, 0) + 1
                        else:
                            no_skips()
                        continue
                    first = buf.find(b"<trace>", search)
                    last = buf.find(b"</trace>", first) if first >= 0 else -1
                    if last < 0:
                        # held: a trace not yet complete, or what no search passed
                        feed(buf[pos : max(first, search)])
                        pos = max(first, search)
                        break
                    if trace.match(buf, first, last + 8) is None:
                        search = first + 1
                        continue
                    feed(buf[pos:first])
                    target = fed + last - first
                    feed(buf[first : last + 8])
                    confirmed = closed == target and len(roles) > 1
                    pos = search = last + 8
                carry = buf[pos:]
                if not skipping or len(carry) > _CARRY_LIMIT:
                    feed(carry)
                    carry, confirmed = b"", False
            parser.Parse(carry, True)
    except (expat.ExpatError, LookupError, ValueError) as exc:
        # LookupError: a declared encoding Python has no codec for;
        # ValueError: a declared multi-byte encoding other than UTF-8/16
        if skipped:
            # expat counts lines and columns without the skipped bytes, so
            # the error is taken from a pass that skips none
            source.seek(0)
            return _xes_pass(source, False)
        raise MalformedXml(str(exc)) from None
    entries: dict[Trace, int] = {}
    for key, count in counts.items():
        if key and type(key[0]) is bytes:
            missing = missing or b"" in key
            key = tuple(raw.decode("utf-8") for raw in key)
        entries[key] = entries.get(key, 0) + count
    if missing:
        raise MissingConceptName("event without a concept:name attribute")
    return EventLog(entries)


def parse_xes(text: str) -> EventLog:
    """Event log from an XES document; one trace per <trace> element.

    A <trace> counts at any depth; its events are its direct <event>
    children, and an event's name is the value of its first direct child
    with key="concept:name".
    """
    return _read_xes(text)


def serialize_xes(log: EventLog) -> str:
    import xml.etree.ElementTree as ET

    root = ET.Element("log", {"xes.version": "1.0"})
    for trace in sorted(log.entries):
        for _ in range(log.entries[trace]):
            trace_el = ET.SubElement(root, "trace")
            for label in trace:
                event_el = ET.SubElement(trace_el, "event")
                ET.SubElement(
                    event_el, "string", {"key": "concept:name", "value": label}
                )
    ET.indent(root)
    return ET.tostring(root, encoding="unicode") + "\n"


# --- PNML / sPNML ------------------------------------------------------


def _parse_net_elements(root: ET.Element):
    places: dict[str, int] = {}
    transitions: dict[str, str | None] = {}
    weights: dict[str, Fraction | None] = {}
    arcs: dict[tuple[str, str], int] = {}
    finals: list[Marking] | None = None
    # what is under <finalmarkings>, idref references and not declarations,
    # is read by its branch below, which the walk reaches first
    nested = set()
    for el in root.iter():
        if el in nested:
            continue
        tag = _local_names[el.tag]
        if tag in ("place", "transition"):
            ident = el.get("id")
            if ident is None:
                raise ParseError(f"{tag} without id")
            if ident in (places if tag == "place" else transitions):
                raise ParseError(f"{tag} {_shown(ident)} declared twice")
        if tag == "place":
            marking_text = _child_text(el, "initialMarking")
            places[ident] = (
                _parse_count(marking_text, f"place {_shown(ident)}") if marking_text else 0
            )
        elif tag == "transition":
            name = _child_text(el, "name")
            label = name.strip() if name else ""
            weight: Fraction | None = None
            for child in el:
                if _local_names[child.tag] != "toolspecific":
                    continue
                if child.get("activity") == _INVISIBLE:
                    label = ""
                for grandchild in child:
                    if _local_names[grandchild.tag] == "weight":
                        weight = _parse_number(
                            (grandchild.text or "").strip(), f"transition {_shown(ident)}"
                        )
            transitions[ident] = label or None
            weights[ident] = weight
        elif tag == "arc":
            source = el.get("source")
            target = el.get("target")
            if source is None or target is None:
                raise ParseError("arc without source or target")
            inscription = _child_text(el, "inscription")
            multiplicity = (
                _parse_count(inscription, f"arc {_shown(source)}->{_shown(target)}")
                if inscription
                else 1
            )
            key = (source, target)
            arcs[key] = arcs.get(key, 0) + multiplicity
        elif tag == "finalmarkings":
            nested.update(el.iter())
            finals = []
            for marking_el in el:
                if _local_names[marking_el.tag] != "marking":
                    continue
                tokens: dict[str, int] = {}
                for place_el in marking_el:
                    if _local_names[place_el.tag] != "place":
                        continue
                    idref = place_el.get("idref")
                    if idref is None:
                        raise ParseError("final marking place without idref")
                    count_text = _child_text(place_el, "text")
                    if count_text is None:
                        count_text = place_el.text or "1"
                    count = _parse_count(count_text, f"final marking of {_shown(idref)}")
                    tokens[idref] = tokens.get(idref, 0) + count
                finals.append(petri.Marking.of(tokens))
    for source, target in arcs:
        for endpoint in (source, target):
            if endpoint not in places and endpoint not in transitions:
                raise DanglingArc(f"arc endpoint {endpoint!r} is not declared")
    return places, transitions, weights, arcs, finals


def _parse_net(text: str | bytes, weighted: bool) -> PetriNet:
    places, transitions, weights, arcs, finals = _parse_net_elements(_parse_xml(text))
    extra = {}
    if weighted:
        for ident, weight in weights.items():
            if weight is not None and weight <= 0:
                raise NonPositiveWeight(f"transition {_shown(ident)} has weight {weight}")
        extra["weights"] = {t: w or Fraction(1) for t, w in weights.items()}
    try:
        return (petri.StochasticPetriNet if weighted else petri.PetriNet)(
            places=frozenset(places),
            transitions=transitions,
            arcs=arcs,
            initial_marking=petri.Marking.of(places),
            final_markings=frozenset(finals) if finals is not None else None,
            **extra,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_pnml(text: str | bytes) -> PetriNet:
    """Petri net from a PNML document.

    Missing initialMarking means zero tokens; a transition with an empty
    or missing name, or an invisible toolspecific marker, is silent.
    """
    return _parse_net(text, weighted=False)


def parse_spnml(text: str | bytes) -> StochasticPetriNet:
    """Stochastic net: PNML plus a positive weight annotation per transition.

    A transition without a weight annotation gets weight 1.
    """
    return _parse_net(text, weighted=True)


def _serialize_net(net: PetriNet, weighted: bool) -> str:
    import xml.etree.ElementTree as ET

    root = ET.Element("pnml")
    net_el = ET.SubElement(root, "net", {"id": "net", "type": "http://www.pnml.org/"})
    page = ET.SubElement(net_el, "page", {"id": "page"})
    for place in sorted(net.places):
        place_el = ET.SubElement(page, "place", {"id": place})
        tokens = net.initial_marking.count(place)
        if tokens:
            marking_el = ET.SubElement(place_el, "initialMarking")
            ET.SubElement(marking_el, "text").text = str(tokens)
    for ident in sorted(net.transitions):
        label = net.transitions[ident]
        transition_el = ET.SubElement(page, "transition", {"id": ident})
        if label is not None:
            name_el = ET.SubElement(transition_el, "name")
            ET.SubElement(name_el, "text").text = label
        else:
            ET.SubElement(
                transition_el,
                "toolspecific",
                {"tool": "entroconf", "version": "1.0", "activity": _INVISIBLE},
            )
        if weighted:
            tool_el = ET.SubElement(
                transition_el, "toolspecific", {"tool": "stochastic", "version": "1.0"}
            )
            weight = net.weights[ident]  # type: ignore[attr-defined]
            ET.SubElement(tool_el, "weight").text = str(weight)
    for source, target in sorted(net.arcs):
        arc_el = ET.SubElement(
            page, "arc", {"id": f"{source}.to.{target}", "source": source, "target": target}
        )
        multiplicity = net.arcs[(source, target)]
        if multiplicity != 1:
            inscription_el = ET.SubElement(arc_el, "inscription")
            ET.SubElement(inscription_el, "text").text = str(multiplicity)
    if net.final_markings is not None:
        finals_el = ET.SubElement(net_el, "finalmarkings")
        for marking in sorted(net.final_markings, key=lambda m: m.tokens):
            marking_el = ET.SubElement(finals_el, "marking")
            for place, count in marking.tokens:
                place_el = ET.SubElement(marking_el, "place", {"idref": place})
                ET.SubElement(place_el, "text").text = str(count)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode") + "\n"


def serialize_pnml(net: PetriNet) -> str:
    return _serialize_net(net, weighted=False)


def serialize_spnml(net: StochasticPetriNet) -> str:
    return _serialize_net(net, weighted=True)


# --- SDFA ---------------------------------------------------------------


def _records(text: str):
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_number, line.split()


def parse_sdfa(text: str) -> Sdfa:
    """SDFA from the line format; per-state sums checked to 1 +- 1e-9."""
    initial: str | None = None
    termination: dict[str, Fraction] = {}
    arcs: list[tuple[str, str, str, Fraction]] = []
    for line_number, fields in _records(text):
        kind = fields[0]
        if kind == "initial" and len(fields) == 2:
            if initial is not None:
                raise ParseError(f"line {line_number}: repeated initial declaration")
            initial = fields[1]
        elif kind == "state" and len(fields) == 3:
            if fields[1] in termination:
                raise ParseError(f"line {line_number}: state {fields[1]} redeclared")
            termination[fields[1]] = _parse_probability(
                fields[2], f"line {line_number}"
            )
        elif kind == "arc" and len(fields) == 5:
            arcs.append(
                (
                    fields[1],
                    fields[2],
                    fields[3],
                    _parse_probability(fields[4], f"line {line_number}"),
                )
            )
        else:
            raise ParseError(f"line {line_number}: unrecognized record {' '.join(fields)!r}")
    if initial is None:
        raise ParseError("missing initial declaration")
    if initial not in termination:
        raise ParseError(f"initial state {initial} is not declared")
    transitions: dict[tuple[str, str], tuple[str, Fraction]] = {}
    for src, dst, label, probability in arcs:
        for endpoint in (src, dst):
            if endpoint not in termination:
                raise ParseError(f"arc endpoint {endpoint} is not declared")
        if (src, label) in transitions:
            raise DuplicateTransition(f"second arc for label {label!r} at state {src}")
        transitions[(src, label)] = (dst, probability)
    try:
        return stochastic.Sdfa(
            states=frozenset(termination),
            alphabet=frozenset(label for _, label in transitions),
            initial=initial,
            transitions=transitions,
            termination={s: p for s, p in termination.items() if p > 0},
        )
    except ValueError as exc:
        # every other check of Sdfa is made above, with a line number
        raise StochasticSumViolation(str(exc)) from None


def serialize_sdfa(a: Sdfa) -> str:
    lines = [f"initial {a.initial}"]
    for state in sorted(a.states, key=str):
        lines.append(f"state {state} {a.termination.get(state, Fraction(0))}")
    for (src, label), (dst, probability) in sorted(
        a.transitions.items(), key=lambda item: (str(item[0][0]), item[0][1])
    ):
        lines.append(f"arc {src} {dst} {label} {probability}")
    return "\n".join(lines) + "\n"


# --- DFG ----------------------------------------------------------------


def read_dfg(text: str) -> Dfg:
    """Directly-follows graph from the line format, fully validated."""
    source: str | None = None
    sink: str | None = None
    nodes: dict[str, str] = {}
    arcs: dict[tuple[str, str], int] = {}
    for line_number, fields in _records(text):
        kind = fields[0]
        if kind == "source" and len(fields) == 2:
            if source is not None:
                raise ParseError(f"line {line_number}: repeated source declaration")
            source = fields[1]
        elif kind == "sink" and len(fields) == 2:
            if sink is not None:
                raise ParseError(f"line {line_number}: repeated sink declaration")
            sink = fields[1]
        elif kind == "node" and len(fields) == 3:
            if fields[1] in nodes:
                raise ParseError(f"line {line_number}: node {fields[1]} redeclared")
            nodes[fields[1]] = fields[2]
        elif kind == "arc" and len(fields) == 4:
            frequency = _parse_count(fields[3], f"line {line_number}")
            if frequency < 1:
                raise ParseError(f"line {line_number}: frequency must be positive")
            if (fields[1], fields[2]) in arcs:
                raise ParseError(
                    f"line {line_number}: repeated arc {fields[1]} -> {fields[2]}"
                )
            arcs[(fields[1], fields[2])] = frequency
        else:
            raise ParseError(f"line {line_number}: unrecognized record {' '.join(fields)!r}")
    if source is None or sink is None:
        raise ParseError("both a source and a sink declaration are required")
    if source == sink or source in nodes or sink in nodes:
        raise ParseError("source and sink must be distinct, undeclared endpoints")
    for src, dst in arcs:
        if src == sink or dst == source:
            raise ParseError("arcs may not leave the sink or enter the source")
        if src not in nodes and src != source:
            raise ParseError(f"arc leaves unknown node {src!r}")
        if dst not in nodes and dst != sink:
            raise ParseError(f"arc enters unknown node {dst!r}")

    outgoing: dict[str, list[str]] = {}
    for src, dst in arcs:
        outgoing.setdefault(src, []).append(dst)
    for node, label in sorted(nodes.items()):
        if node not in outgoing:
            raise DeadEndNode(f"node {node} ({label}) has no outgoing arc")
    if source not in outgoing:
        raise DeadEndNode("the source has no outgoing arc")
    reached = _reachable((source,), lambda node: outgoing.get(node, ()))
    unreachable = sorted(set(nodes) - reached.keys())
    if unreachable:
        raise UnreachableNode(f"unreachable from the source: {', '.join(unreachable)}")
    return Dfg(nodes=nodes, arcs=arcs, source=source, sink=sink)


def parse_dfg(text: str) -> Sdfa:
    """DFG interpreted as an SDFA.

    An arc is a step to its target and takes the target's label; arcs into
    the sink become termination probability. Frequencies out of each state
    are normalized exactly, so the stochastic-sum invariant holds with no
    tolerance.
    """
    dfg = read_dfg(text)
    totals: dict[str, int] = {}
    for (src, _), frequency in dfg.arcs.items():
        totals[src] = totals.get(src, 0) + frequency
    transitions: dict[tuple[str, str], tuple[str, Fraction]] = {}
    termination: dict[str, Fraction] = {}
    for (src, dst), frequency in dfg.arcs.items():
        probability = Fraction(frequency, totals[src])
        if dst == dfg.sink:
            termination[src] = termination.get(src, Fraction(0)) + probability
            continue
        label = dfg.nodes[dst]
        if (src, label) in transitions:
            raise ParseError(
                f"two successors of {src} carry the label {label!r}; "
                "the stochastic interpretation would be ambiguous"
            )
        transitions[(src, label)] = (dst, probability)
    return stochastic.Sdfa(
        states=frozenset(dfg.nodes) | {dfg.source},
        alphabet=frozenset(dfg.nodes.values()),
        initial=dfg.source,
        transitions=transitions,
        termination=termination,
    )


def serialize_dfg(dfg: Dfg) -> str:
    lines = [f"source {dfg.source}", f"sink {dfg.sink}"]
    for node, label in sorted(dfg.nodes.items()):
        lines.append(f"node {node} {label}")
    for (src, dst), frequency in sorted(dfg.arcs.items()):
        lines.append(f"arc {src} {dst} {frequency}")
    return "\n".join(lines) + "\n"


# --- dispatch ------------------------------------------------------------

_PARSERS = {
    ".xes": parse_xes,
    ".pnml": parse_pnml,
    ".spnml": parse_spnml,
    ".sdfa": parse_sdfa,
    ".dfg": parse_dfg,
}


def load_artifact(path: str | Path):
    """Parse a file into its domain object, dispatching on the extension.

    An InputError keeps its class, and its message starts with the path,
    as _shown writes it, so that it names which input failed on one line.
    """
    try:
        return _load(path)
    except InputError as exc:
        raise type(exc)(f"{_shown(str(path))}: {exc}") from None


def _load(path: str | Path):
    suffix = Path(path).suffix.lower()
    parser = _PARSERS.get(suffix)
    if parser is None:
        raise UnknownExtension(f"expected one of {', '.join(sorted(_PARSERS))}")
    try:
        if suffix == ".xes":
            # streamed as bytes, so expat honours the encoding declaration
            with open(path, "rb") as stream:
                return _read_xes(stream)
        data = Path(path).read_bytes()
        # the XML parsers take bytes, so the encoding declaration is honoured
        # the line formats, as XES and PNML, may start with a byte-order mark
        content = data if suffix in (".pnml", ".spnml") else data.decode("utf-8-sig")
    except OSError as exc:
        # strerror leaves out the path, which the message starts with
        raise InputError(f"cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read: {exc}") from None
    return parser(content)
