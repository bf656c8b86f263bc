"""Readers and writers for the five artifact formats.

This module reads XES and dispatches a path to its format's reader by
extension. The other readers and the writers live in private modules,
registered with the package's layers, each compiled and run on the first
use of one of its names, so that a run compiles only the readers of the
formats it reads:

- ``_pnml``: PNML and sPNML nets, read with ElementTree;
- ``_lines``: the SDFA and DFG line formats, and ``Dfg``;
- ``_writers``: the five ``serialize_*`` functions.

Every public name resolves from here (PEP 562).

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
``fractions`` is imported by the first one read, so a run over logs and
unweighted nets does not load it.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import TYPE_CHECKING
from xml.parsers import expat

# petri, stochastic, ElementTree and fractions are loaded by the readers of
# nets (_pnml) and of the line formats (_lines), and by the writers, each run
# on first use, so that a run reading only XES, which expat streams here,
# loads none of them
from . import _lines, _pnml, _writers
from .automata import EventLog, Trace
from .errors import (
    InputError,
    MalformedXml,
    MissingConceptName,
    ParseError,
    UnknownExtension,
    _echo,
    _shown,
)

if TYPE_CHECKING:
    from fractions import Fraction

# transitions carrying this ProM marker are silent regardless of their name
_INVISIBLE = "$invisible$"

# each public name that a private module defines, by that module
_HOMES = {
    **dict.fromkeys(("parse_pnml", "parse_spnml"), _pnml),
    **dict.fromkeys(("Dfg", "parse_dfg", "parse_sdfa", "read_dfg"), _lines),
    **dict.fromkeys(
        ("serialize_dfg", "serialize_pnml", "serialize_sdfa", "serialize_spnml", "serialize_xes"),
        _writers,
    ),
}

__all__ = sorted(["load_artifact", "parse_xes", *_HOMES])


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(home, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def _public(definition):
    """A private module's public definition, which names formats, its public
    home, as its module: help() and pickle point there, and the benchmark's
    tracer, which names a function's span by its module, counts its time
    under formats."""
    definition.__module__ = __name__
    return definition


class _LocalNames(dict):
    """Cache of each raw tag's local name: "{uri}trace" from ElementTree and
    "uri}trace" from expat are "trace"."""

    def __missing__(self, tag: str) -> str:
        local = self[tag] = tag.rpartition("}")[2]
        return local


def _parse_number(token: str, context: str) -> Fraction:
    # the one place a weight or probability is read, so fractions is
    # imported here rather than by every run
    from fractions import Fraction

    # Fraction("1e99999999") spends minutes building the power of ten;
    # leading zeros add nothing to it
    if len(token.lower().partition("e")[2].lstrip("+-").lstrip("0")) > 4:
        raise ParseError(f"{context}: exponent of {_echo(token)} out of range")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{context}: cannot read number {_echo(token)}") from None


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


# --- dispatch ------------------------------------------------------------

# each extension's reader, by its public name: the module that defines it
# runs when the first file of its format is read
_PARSERS = {
    ".xes": "parse_xes",
    ".pnml": "parse_pnml",
    ".spnml": "parse_spnml",
    ".sdfa": "parse_sdfa",
    ".dfg": "parse_dfg",
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
    return (globals().get(parser) or __getattr__(parser))(content)
