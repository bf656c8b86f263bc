"""The PNML and sPNML readers, which build a tree with ElementTree.

Reached through ``formats``, this module runs when the first net is read,
so runs over logs and automata load neither it nor ElementTree.
``fractions`` is loaded only by a net that declares a weight, and by every
sPNML net, whose unweighted transitions get weight 1.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import TYPE_CHECKING

# petri runs only when a net is built
from . import petri
from .errors import DanglingArc, MalformedXml, NonPositiveWeight, ParseError, _parse_count, _shown
from .formats import _INVISIBLE, _LocalNames, _parse_number, _public

if TYPE_CHECKING:
    from fractions import Fraction

    from .petri import Marking, PetriNet, StochasticPetriNet

_local_names = _LocalNames()


def _parse_xml(text: str | bytes) -> ET.Element:
    try:
        return ET.fromstring(text)
    except (ET.ParseError, LookupError, ValueError) as exc:
        # LookupError and ValueError: see formats._xes_pass
        raise MalformedXml(str(exc)) from None


def _child_text(element: ET.Element, tag: str) -> str | None:
    for child in element:
        if _local_names[child.tag] == tag:
            for grandchild in child:
                if _local_names[grandchild.tag] == "text":
                    return grandchild.text or ""
            return child.text or ""
    return None


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
        from fractions import Fraction

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


@_public
def parse_pnml(text: str | bytes) -> PetriNet:
    """Petri net from a PNML document.

    Missing initialMarking means zero tokens; a transition with an empty
    or missing name, or an invisible toolspecific marker, is silent.
    """
    return _parse_net(text, weighted=False)


@_public
def parse_spnml(text: str | bytes) -> StochasticPetriNet:
    """Stochastic net: PNML plus a positive weight annotation per transition.

    A transition without a weight annotation gets weight 1.
    """
    return _parse_net(text, weighted=True)
