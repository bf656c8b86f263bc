"""Command-line front end.

One measure per invocation, two artifacts, value on stdout. Timing and
size diagnostics go to stderr so that stdout is bit-identical across
repeated runs; silent mode suppresses everything except the bare value.

Exit codes: 0 success, 1 usage error, 2 unreadable input, 3 semantic
rejection (incompatible formats, unbounded model, non-terminating
automaton, a run that exhausts memory), 4 numerical failure. A
boundedness check (-b) reports its verdict on stdout and exits 3 when the
model is unbounded, naming the firing sequence that pumps it on stderr.
"""

from __future__ import annotations

import sys
import time
from decimal import ROUND_HALF_EVEN, Decimal
from typing import NamedTuple

from .automata import UNBOUNDED, EventLog, _log_rows, _prefix_tree_states
from .errors import (
    ConflictingMeasures,
    EmptyLog,
    IncompatibleFormat,
    InputError,
    MissingArgument,
    NumericalError,
    ParseError,
    SemanticError,
    SkipsWithoutCpm,
    UnboundedModel,
    UnknownOption,
    UsageError,
    _shown,
)
from .formats import _parse_count, load_artifact
from .measures import _language, _matching
from .petri import PetriNet, StochasticPetriNet, _explored
from .stochastic import Sdfa, _distribution, _precision_recall, entropic_relevance

VERSION = "1.5-reimpl"


class _Measure(NamedTuple):
    id: str  # what RunConfig.measure holds
    name: str  # printed before the value
    rel: tuple[type, ...]  # artifact types accepted as -rel, matched exactly
    ret: tuple[type, ...]  # the same for -ret; empty when -ret is not used
    side: str | None = None  # the PrecisionRecall field printed, if any


_LANGUAGE = (EventLog, PetriNet)
_STOCHASTIC = (EventLog, StochasticPetriNet)

# the one list of measures, keyed by flag; HELP_TEXT describes the same.
# A precision/recall measure names the side it prints, and solves the
# growth factors or the conjunction entropy of that side only.
_MEASURES = {
    "-emp": _Measure("emp", "exact matching precision", _LANGUAGE, _LANGUAGE, "precision"),
    "-emr": _Measure("emr", "exact matching recall", _LANGUAGE, _LANGUAGE, "recall"),
    "-pmp": _Measure("pmp", "partial matching precision", _LANGUAGE, _LANGUAGE, "precision"),
    "-pmr": _Measure("pmr", "partial matching recall", _LANGUAGE, _LANGUAGE, "recall"),
    "-cpmp": _Measure(
        "cpmp", "controlled partial matching precision", _LANGUAGE, _LANGUAGE, "precision"
    ),
    "-cpmr": _Measure(
        "cpmr", "controlled partial matching recall", _LANGUAGE, _LANGUAGE, "recall"
    ),
    "-sp": _Measure("sp", "stochastic precision", _STOCHASTIC, _STOCHASTIC, "precision"),
    "-sr": _Measure("sr", "stochastic recall", _STOCHASTIC, _STOCHASTIC, "recall"),
    "-r": _Measure("r", "entropic relevance", (EventLog,), (Sdfa,)),
    "-b": _Measure("bounded", "boundedness", (PetriNet, StochasticPetriNet), ()),
}

# how a rejection message names each artifact type
_KINDS = {
    EventLog: "an event log (.xes)",
    PetriNet: "a Petri net (.pnml)",
    StochasticPetriNet: "a stochastic net (.spnml)",
    Sdfa: "a stochastic automaton (.sdfa or .dfg)",
}

HELP_TEXT = """\
usage: entroconf <measure> -rel <path> -ret <path> [options]

measures (exactly one per run):
  -emp    exact matching precision
  -emr    exact matching recall
  -pmp    partial matching precision
  -pmr    partial matching recall
  -cpmp   controlled partial matching precision
  -cpmr   controlled partial matching recall
  -sp     stochastic precision
  -sr     stochastic recall
  -r      entropic relevance of the -ret model to the -rel log
  -b      boundedness check of the -rel model (no -ret needed)

options:
  --relevant, -rel <path>    relevant traces: event log or model
  --retrieved, -ret <path>   retrieved traces: event log or model
  -srel <n>                  allowed skips per relevant trace (-cpmp/-cpmr only)
  -sret <n>                  allowed skips per retrieved trace (-cpmp/-cpmr only)
  --silent, -s               print the bare value only
  -t                         accepted and ignored (nets are checked while explored)
  --help, -h                 show this message
  --version, -v              show the version string

inputs are recognized by extension: .xes .pnml .spnml .sdfa .dfg
  -emp/-emr/-pmp/-pmr/-cpmp/-cpmr  take .xes or .pnml on either side
  -sp/-sr                          take .xes or .spnml on either side
  -r                               takes a .xes log as -rel and .sdfa or .dfg as -ret
  -b                               takes a .pnml or .spnml model as -rel
"""


class RunConfig:
    """One invocation's options, as parse_args sets them."""

    def __init__(
        self,
        measure: str | None = None,
        rel_path: str | None = None,
        ret_path: str | None = None,
        skips_rel: int | None = None,
        skips_ret: int | None = None,
        silent: bool = False,
        show_help: bool = False,
        show_version: bool = False,
    ) -> None:
        self.measure = measure
        self.rel_path = rel_path
        self.ret_path = ret_path
        self.skips_rel = skips_rel
        self.skips_ret = skips_ret
        self.silent = silent
        self.show_help = show_help
        self.show_version = show_version


def _nonnegative_int(option: str, token: str) -> int:
    # the count rule of the input formats: ASCII digits, so no "1_0" or "١"
    try:
        return _parse_count(token, option)
    except ParseError:
        raise UsageError(f"{option} expects a nonnegative integer, got {token!r}") from None


def _selected(cfg: RunConfig) -> tuple[str, _Measure]:
    """The flag and table entry of the configured measure."""
    return next((flag, m) for flag, m in _MEASURES.items() if m.id == cfg.measure)


# each option that takes a value, with the RunConfig field it sets
_VALUE_OPTIONS = {
    "-rel": "rel_path", "--relevant": "rel_path",
    "-ret": "ret_path", "--retrieved": "ret_path",
    "-srel": "skips_rel", "-sret": "skips_ret",
}


def parse_args(argv: list[str]) -> RunConfig:
    """Translate raw arguments to a RunConfig.

    Both "-rel=path" and "-rel path" spellings work; every option has the
    exact name shown in the help text. Each path and budget is given at
    most once, in either spelling, as is the measure.
    """
    cfg = RunConfig()
    index = 0
    while index < len(argv):
        argument = argv[index]
        index += 1
        name, equals, inline = argument.partition("=")
        if name in _MEASURES:
            if equals:
                raise UnknownOption(f"{name} takes no value")
            if cfg.measure is not None:
                raise ConflictingMeasures(f"{name} conflicts with the already selected measure")
            cfg.measure = _MEASURES[name].id
            continue
        field = _VALUE_OPTIONS.get(name)
        if field is not None:
            if not equals and index < len(argv):
                inline = argv[index]
                index += 1
            # "-rel=", "-rel ''" and "-rel" at the end are equally empty
            if not inline:
                raise MissingArgument(f"{name} requires a value")
            if getattr(cfg, field) is not None:
                raise UsageError(f"{name} repeats an option already given")
            if field.startswith("skips"):
                inline = _nonnegative_int(name, inline)
            setattr(cfg, field, inline)
            continue
        if argument in ("-s", "--silent"):
            cfg.silent = True
        elif argument in ("-h", "--help"):
            cfg.show_help = True
        elif argument in ("-v", "--version"):
            cfg.show_version = True
        elif argument == "-t":
            # accepted so that existing scripts keep working; boundedness
            # is checked while a net is explored, so there is nothing to skip
            pass
        else:
            raise UnknownOption(f"unrecognized option {argument!r}")
    if cfg.show_help or cfg.show_version:
        return cfg
    if cfg.measure is None:
        raise MissingArgument("select one measure option (see --help)")
    if not cfg.measure.startswith("cpm") and (cfg.skips_rel, cfg.skips_ret) != (None, None):
        raise SkipsWithoutCpm("-srel/-sret apply only to -cpmp and -cpmr")
    if cfg.rel_path is None:
        raise MissingArgument("--relevant/-rel is required")
    if cfg.ret_path is None and _selected(cfg)[1].ret:
        raise MissingArgument("--retrieved/-ret is required for this measure")
    return cfg


def validate_inputs(cfg: RunConfig, rel, ret) -> None:
    """Enforce the measure/format compatibility matrix of the measure table.

    Nets are checked for boundedness later, while they are explored.
    """
    flag, measure = _selected(cfg)
    for side, artifact, accepted in (("-rel", rel, measure.rel), ("-ret", ret, measure.ret)):
        if accepted and type(artifact) not in accepted:
            raise IncompatibleFormat(
                f"{flag} needs {' or '.join(_KINDS[t] for t in accepted)} as {side}, "
                f"not {_KINDS.get(type(artifact), type(artifact).__name__)}"
            )


def _evaluate(cfg: RunConfig, rel, ret) -> tuple[float | bool | UnboundedModel, dict[str, int]]:
    """The value and the size diagnostics, one branch per measure family.

    Boundedness yields True, or the UnboundedModel that holds its witness.
    A precision/recall measure yields its table entry's side.
    """
    measure = cfg.measure
    if measure == "bounded":
        sizes = {"places": len(rel.places), "transitions": len(rel.transitions)}
        try:
            _explored(rel)
        except UnboundedModel as unbounded:
            return unbounded, sizes
        return True, sizes
    if measure == "r":
        relevance = entropic_relevance(rel, ret)
        sizes = {"log_instances": rel.total_instances(), "model_states": len(ret.states)}
        return relevance.bits, sizes
    side = _selected(cfg)[1].side
    # each side is taken as the public functions take it, rel first, so an
    # empty log is rejected before a net on the other side is explored
    if measure.startswith("s"):
        forms = [_distribution(a) for a in (rel, ret)]
        (value,) = _precision_recall(*forms, (side,))
    else:
        budgets = {"em": (0, 0), "pm": (UNBOUNDED, UNBOUNDED)}  # cpm: -srel, -sret
        skips = budgets.get(measure[:2], (cfg.skips_rel or 0, cfg.skips_ret or 0))
        forms = [_language(a, k) for a, k in zip((rel, ret), skips)]
        (value,) = _matching(*forms, skips, (side,))
    # a log reports its prefix tree's size: its trie's, or counted without
    # one under a budget of 0, which leaves the log its set of traces
    states = [
        len(form) if isinstance(form, list)
        else len(form.states) if hasattr(form, "states")
        else len(_log_rows(form)) if isinstance(form, EventLog)
        else _prefix_tree_states(artifact)
        for form, artifact in zip(forms, (rel, ret))
    ]
    return value, {"relevant_states": states[0], "retrieved_states": states[1]}


def _rounded(value: float) -> str:
    # repr keeps the shortest faithful decimal, so half-even acts on the
    # intended digits rather than on binary noise
    return str(Decimal(repr(value)).quantize(Decimal("0.001"), rounding=ROUND_HALF_EVEN))


def run(cfg: RunConfig, stdout=None, stderr=None) -> int:
    """Execute one configured invocation; returns the exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    if cfg.show_help:
        stdout.write(HELP_TEXT)
        return 0
    if cfg.show_version:
        stdout.write(VERSION + "\n")
        return 0
    started = time.perf_counter()
    rel = load_artifact(cfg.rel_path)
    # a -ret that the measure does not use is not read
    ret = load_artifact(cfg.ret_path) if _selected(cfg)[1].ret else None
    validate_inputs(cfg, rel, ret)
    try:
        value, sizes = _evaluate(cfg, rel, ret)
    except EmptyLog as error:
        # named by its path, as load_artifact names an input; rel is taken first
        path = cfg.rel_path if rel == EventLog({}) else cfg.ret_path
        raise EmptyLog(f"{_shown(path)}: {error}") from None
    elapsed = time.perf_counter() - started
    witness = None
    if isinstance(value, UnboundedModel):
        witness, value = value, False
    if isinstance(value, bool):
        bare, shown = str(int(value)), ("bounded" if value else "unbounded")
    else:
        bare = _rounded(value)
        shown = bare + (" bits" if cfg.measure == "r" else "")
    if cfg.silent:
        stdout.write(bare + "\n")
    else:
        stdout.write(f"{_selected(cfg)[1].name}: {shown}\n")
        counters = " ".join(f"{k}={v}" for k, v in sorted(sizes.items()))
        # one stderr line, which carries an unbounded verdict's witness
        found = "" if witness is None else f"; {witness}"
        stderr.write(f"elapsed: {elapsed:.3f}s {counters}{found}\n")
    # an unbounded verdict is a semantic rejection
    return 3 if value is False else 0


# exit code and stderr prefix of each error branch; every EntroconfError is in one
_EXITS = (
    (UsageError, 1, "usage error"),
    (InputError, 2, "input error"),
    (SemanticError, 3, "rejected"),
    (MemoryError, 3, "rejected"),
    (NumericalError, 4, "numerical failure"),
)


def main(argv: list[str] | None = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    try:
        return run(parse_args(arguments))
    except tuple(error for error, _, _ in _EXITS) as exc:
        code, prefix = next((c, p) for error, c, p in _EXITS if isinstance(exc, error))
        # a MemoryError, from an input that outgrows memory, has no message
        print(f"{prefix}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
