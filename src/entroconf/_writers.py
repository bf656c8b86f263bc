"""The writers of the five artifact formats.

Reached through ``formats``, this module runs on the first call of a
writer, so no run of the command line loads it.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import TYPE_CHECKING

from .formats import _INVISIBLE, _public

if TYPE_CHECKING:
    from ._lines import Dfg
    from .automata import EventLog
    from .petri import PetriNet, StochasticPetriNet
    from .stochastic import Sdfa


@_public
def serialize_xes(log: EventLog) -> str:
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


def _serialize_net(net: PetriNet, weighted: bool) -> str:
    root = ET.Element("pnml")
    net_el = ET.SubElement(root, "net", {"id": "net", "type": "http://www.pnml.org/"})
    page = ET.SubElement(net_el, "page", {"id": "page"})
    initial = net.initial_marking.as_dict()
    for place in sorted(net.places):
        place_el = ET.SubElement(page, "place", {"id": place})
        if tokens := initial.get(place):
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


@_public
def serialize_pnml(net: PetriNet) -> str:
    return _serialize_net(net, weighted=False)


@_public
def serialize_spnml(net: StochasticPetriNet) -> str:
    return _serialize_net(net, weighted=True)


@_public
def serialize_sdfa(a: Sdfa) -> str:
    lines = [f"initial {a.initial}"]
    for state in sorted(a.states, key=str):
        lines.append(f"state {state} {a.termination.get(state, 0)}")
    for (src, label), (dst, probability) in sorted(
        a.transitions.items(), key=lambda item: (str(item[0][0]), item[0][1])
    ):
        lines.append(f"arc {src} {dst} {label} {probability}")
    return "\n".join(lines) + "\n"


@_public
def serialize_dfg(dfg: Dfg) -> str:
    lines = [f"source {dfg.source}", f"sink {dfg.sink}"]
    for node, label in sorted(dfg.nodes.items()):
        lines.append(f"node {node} {label}")
    for (src, dst), frequency in sorted(dfg.arcs.items()):
        lines.append(f"arc {src} {dst} {frequency}")
    return "\n".join(lines) + "\n"
