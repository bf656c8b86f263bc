"""Command-line front end.

One measure per invocation, two artifacts, value on stdout. Timing and
size diagnostics go to stderr so that stdout is bit-identical across
repeated runs; silent mode suppresses everything except the bare value.

Exit codes: 0 success, 1 usage error, 2 unreadable input, 3 semantic
rejection (incompatible formats, unbounded model, non-terminating
automaton), 4 numerical failure. A boundedness check (-b) reports its
verdict on stdout and exits 3 when the model is unbounded.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal

from .automata import EventLog, log_to_dfa
from .errors import (
    ConflictingMeasures,
    EntroconfError,
    IncompatibleFormat,
    InputError,
    MissingArgument,
    NumericalError,
    SemanticError,
    SkipsWithoutCpm,
    UnknownOption,
    UsageError,
)
from .formats import load_artifact
from .measures import (
    controlled_partial_precision_recall,
    exact_precision_recall,
    partial_precision_recall,
)
from .petri import (
    PetriNet,
    StochasticPetriNet,
    is_bounded,
    reachability_graph,
    rg_to_dfa,
    stochastic_rg_to_sdfa,
)
from .stochastic import (
    Sdfa,
    entropic_relevance,
    log_to_sdfa,
    stochastic_precision_recall,
)

VERSION = "1.5-reimpl"

_MEASURE_FLAGS = {
    "-emp": "emp",
    "-emr": "emr",
    "-pmp": "pmp",
    "-pmr": "pmr",
    "-cpmp": "cpmp",
    "-cpmr": "cpmr",
    "-sp": "sp",
    "-sr": "sr",
    "-r": "r",
    "-b": "bounded",
}

_MEASURE_NAMES = {
    "emp": "exact matching precision",
    "emr": "exact matching recall",
    "pmp": "partial matching precision",
    "pmr": "partial matching recall",
    "cpmp": "controlled partial matching precision",
    "cpmr": "controlled partial matching recall",
    "sp": "stochastic precision",
    "sr": "stochastic recall",
    "r": "entropic relevance",
    "bounded": "boundedness",
}

_LANGUAGE_MEASURES = {"emp", "emr", "pmp", "pmr", "cpmp", "cpmr"}
_STOCHASTIC_MEASURES = {"sp", "sr"}

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


@dataclass
class RunConfig:
    measure: str | None = None
    rel_path: str | None = None
    ret_path: str | None = None
    skips_rel: int | None = None
    skips_ret: int | None = None
    silent: bool = False
    show_help: bool = False
    show_version: bool = False


@dataclass(frozen=True)
class MeasureReport:
    measure_name: str
    value: float
    units: str
    elapsed: float
    diagnostics: dict[str, int] = field(default_factory=dict)


def _nonnegative_int(option: str, token: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise UsageError(f"{option} expects a nonnegative integer, got {token!r}") from None
    if value < 0:
        raise UsageError(f"{option} expects a nonnegative integer, got {value}")
    return value


def parse_args(argv: list[str]) -> RunConfig:
    """Translate raw arguments to a RunConfig.

    Both "-rel=path" and "-rel path" spellings work; every option has the
    exact name shown in the help text.
    """
    cfg = RunConfig()
    value_options = {"-rel", "--relevant", "-ret", "--retrieved", "-srel", "-sret"}
    index = 0
    while index < len(argv):
        argument = argv[index]
        index += 1
        name, _, inline = argument.partition("=")
        if name in _MEASURE_FLAGS:
            if inline:
                raise UnknownOption(f"{name} takes no value")
            if cfg.measure is not None:
                raise ConflictingMeasures(
                    f"{name} conflicts with the already selected measure"
                )
            cfg.measure = _MEASURE_FLAGS[name]
            continue
        if name in value_options:
            if not inline:
                if index >= len(argv):
                    raise MissingArgument(f"{name} requires a value")
                inline = argv[index]
                index += 1
            if name in ("-rel", "--relevant"):
                cfg.rel_path = inline
            elif name in ("-ret", "--retrieved"):
                cfg.ret_path = inline
            elif name == "-srel":
                cfg.skips_rel = _nonnegative_int(name, inline)
            else:
                cfg.skips_ret = _nonnegative_int(name, inline)
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
    if cfg.measure not in ("cpmp", "cpmr") and (
        cfg.skips_rel is not None or cfg.skips_ret is not None
    ):
        raise SkipsWithoutCpm("-srel/-sret apply only to -cpmp and -cpmr")
    if cfg.rel_path is None:
        raise MissingArgument("--relevant/-rel is required")
    if cfg.ret_path is None and cfg.measure != "bounded":
        raise MissingArgument("--retrieved/-ret is required for this measure")
    return cfg


def _describe(artifact) -> str:
    if isinstance(artifact, EventLog):
        return "an event log"
    if isinstance(artifact, StochasticPetriNet):
        return "a stochastic net"
    if isinstance(artifact, PetriNet):
        return "a Petri net"
    if isinstance(artifact, Sdfa):
        return "a stochastic automaton"
    return type(artifact).__name__


def validate_inputs(cfg: RunConfig, rel, ret) -> tuple:
    """Enforce the measure/format compatibility matrix.

    Returns the artifact pair unchanged when everything checks out. Nets
    are checked for boundedness later, while they are explored.
    """
    measure = cfg.measure

    def require(side: str, artifact, acceptable: bool, wanted: str) -> None:
        if not acceptable:
            raise IncompatibleFormat(
                f"-{('b' if measure == 'bounded' else measure)} needs {wanted} "
                f"as {side}, not {_describe(artifact)}"
            )

    if measure in _LANGUAGE_MEASURES:
        for side, artifact in (("-rel", rel), ("-ret", ret)):
            plain_net = isinstance(artifact, PetriNet) and not isinstance(
                artifact, StochasticPetriNet
            )
            require(
                side,
                artifact,
                isinstance(artifact, EventLog) or plain_net,
                "an event log (.xes) or Petri net (.pnml)",
            )
    elif measure in _STOCHASTIC_MEASURES:
        for side, artifact in (("-rel", rel), ("-ret", ret)):
            require(
                side,
                artifact,
                isinstance(artifact, (EventLog, StochasticPetriNet)),
                "an event log (.xes) or stochastic net (.spnml)",
            )
    elif measure == "r":
        require("-rel", rel, isinstance(rel, EventLog), "an event log (.xes)")
        require(
            "-ret",
            ret,
            isinstance(ret, Sdfa),
            "a stochastic automaton (.sdfa or .dfg)",
        )
    elif measure == "bounded":
        require("-rel", rel, isinstance(rel, PetriNet), "a Petri net model")
    return rel, ret


def _language_automaton(artifact):
    if isinstance(artifact, EventLog):
        return log_to_dfa(artifact)
    return rg_to_dfa(reachability_graph(artifact), artifact)


def _stochastic_automaton(artifact):
    if isinstance(artifact, EventLog):
        return log_to_sdfa(artifact)
    return stochastic_rg_to_sdfa(artifact)


def _evaluate(cfg: RunConfig, rel, ret) -> tuple[float, str, dict[str, int]]:
    measure = cfg.measure
    if measure in _LANGUAGE_MEASURES:
        dfa_rel = _language_automaton(rel)
        dfa_ret = _language_automaton(ret)
        if measure in ("emp", "emr"):
            pair = exact_precision_recall(dfa_rel, dfa_ret)
        elif measure in ("pmp", "pmr"):
            pair = partial_precision_recall(dfa_rel, dfa_ret)
        else:
            pair = controlled_partial_precision_recall(
                dfa_rel,
                dfa_ret,
                cfg.skips_rel if cfg.skips_rel is not None else 0,
                cfg.skips_ret if cfg.skips_ret is not None else 0,
            )
        value = pair.precision if measure.endswith("p") else pair.recall
        diagnostics = {
            "relevant_states": len(dfa_rel.states),
            "retrieved_states": len(dfa_ret.states),
        }
        return value, "dimensionless", diagnostics
    if measure in _STOCHASTIC_MEASURES:
        sdfa_rel = _stochastic_automaton(rel)
        sdfa_ret = _stochastic_automaton(ret)
        pair = stochastic_precision_recall(sdfa_rel, sdfa_ret)
        value = pair.precision if measure == "sp" else pair.recall
        diagnostics = {
            "relevant_states": len(sdfa_rel.states),
            "retrieved_states": len(sdfa_ret.states),
        }
        return value, "dimensionless", diagnostics
    # entropic relevance
    relevance = entropic_relevance(rel, ret)
    diagnostics = {
        "log_instances": rel.total_instances(),
        "model_states": len(ret.states),
    }
    return relevance.bits, "bits", diagnostics


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
    ret = load_artifact(cfg.ret_path) if cfg.ret_path is not None else None
    validate_inputs(cfg, rel, ret)

    if cfg.measure == "bounded":
        bounded = is_bounded(rel)
        elapsed = time.perf_counter() - started
        if cfg.silent:
            stdout.write(("1" if bounded else "0") + "\n")
        else:
            stdout.write(f"boundedness: {'bounded' if bounded else 'unbounded'}\n")
            stderr.write(
                f"elapsed: {elapsed:.3f}s places={len(rel.places)} "
                f"transitions={len(rel.transitions)}\n"
            )
        return 0 if bounded else 3

    value, units, diagnostics = _evaluate(cfg, rel, ret)
    elapsed = time.perf_counter() - started
    report = MeasureReport(
        measure_name=_MEASURE_NAMES[cfg.measure],
        value=value,
        units=units,
        elapsed=elapsed,
        diagnostics=diagnostics,
    )
    rendered = _rounded(report.value)
    if cfg.silent:
        stdout.write(rendered + "\n")
    else:
        suffix = " bits" if report.units == "bits" else ""
        stdout.write(f"{report.measure_name}: {rendered}{suffix}\n")
        counters = " ".join(f"{k}={v}" for k, v in sorted(report.diagnostics.items()))
        stderr.write(f"elapsed: {report.elapsed:.3f}s {counters}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    try:
        return run(parse_args(arguments))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except SemanticError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except EntroconfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
