"""The limits corpus: hostile inputs that the command line answers within a
ceiling of 1 GiB of address space and 10 s of wall time.

Each case runs as a child process under that ceiling. It must print a value,
or exit with its documented code and one stderr line. A case that misses the
ceiling fails; a slow path enters the corpus once it fits (see ROADMAP.md).
"""

import os
import random
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import entroconf

CEILING_BYTES = 1 << 30
CEILING_S = 10
FIXTURES = Path(__file__).parent / "fixtures"


def write_xes(path, traces, depth=0):
    """A log of traces, inside depth nested elements under <log>."""
    events = (
        "<trace>"
        + "".join(f'<event><string key="concept:name" value="{label}"/></event>' for label in trace)
        + "</trace>"
        for trace in traces
    )
    path.write_text(
        '<?xml version="1.0" encoding="UTF-8"?>\n<log xes.version="1.0">'
        + "<x>" * depth + "".join(events) + "</x>" * depth + "</log>\n",
        encoding="utf-8",
    )
    return path


def deep_event(tmp_path):
    # an event nested 200,000 elements deep
    log = write_xes(tmp_path / "deep.xes", [("a", "b")], depth=200_000)
    return ["-emp", "-rel", log, "-ret", log], "1.000"


def long_trace(flag):
    # one trace of 200,000 seeded events
    def case(tmp_path):
        rng = random.Random(19)
        trace = [rng.choice("abcdefgh") for _ in range(200_000)]
        log = write_xes(tmp_path / "long.xes", [trace])
        return [flag, "-rel", log, "-ret", log], "1.000"

    return case


def wide_log(tmp_path):
    # 60,000 one-event traces with distinct labels, a trie of 60,001 prefixes,
    # against a log of two traces
    wide = write_xes(tmp_path / "wide.xes", [(f"e{i}",) for i in range(60_000)])
    two = write_xes(tmp_path / "two.xes", [("a", "b", "c"), ("b", "a")])
    return ["-pmp", "-rel", wide, "-ret", two], None


def long_weight(tmp_path):
    # a denominator of 5,001 digits, past Python's 4,300-digit limit on int()
    model = tmp_path / "weight.sdfa"
    model.write_text(f"initial s0\nstate s0 0\nstate s1 1\narc s0 s1 a 1/1{'0' * 5000}\n")
    return ["-r", "-rel", FIXTURES / "E.xes", "-ret", model], 2


def write_pnml(path, elements):
    """A net of the given place, transition and arc elements, on one page."""
    path.write_text(
        '<?xml version="1.0" encoding="UTF-8"?>\n<pnml><net id="net"><page id="page">'
        + "".join(elements) + "</page></net></pnml>\n",
        encoding="utf-8",
    )
    return path


def self_loops(tmp_path):
    # 8,000 transitions, each with an arc from and to its own empty place:
    # 16,000 arcs, and no transition enabled
    net = write_pnml(
        tmp_path / "loops.pnml",
        (
            f'<place id="p{i}"/><transition id="t{i}"><name><text>a{i}</text></name>'
            f'</transition><arc id="c{i}" source="p{i}" target="t{i}"/>'
            f'<arc id="r{i}" source="t{i}" target="p{i}"/>'
            for i in range(8_000)
        ),
    )
    return ["-b", "-rel", net], "1"


def marked_places(tmp_path):
    # 30,000 places, each with one token, and no transition
    net = write_pnml(
        tmp_path / "marked.pnml",
        (
            f'<place id="p{i}"><initialMarking><text>1</text></initialMarking></place>'
            for i in range(30_000)
        ),
    )
    return ["-b", "-rel", net], "1"


# each case's argv and outcome: the value printed, None for any value, or an exit code
CASES = {
    "deep-event": deep_event,
    "long-trace-emp": long_trace("-emp"),
    "long-trace-sp": long_trace("-sp"),
    "wide-log-pmp": wide_log,
    "long-weight-sdfa": long_weight,
    "self-loops-b": self_loops,
    "marked-places-b": marked_places,
}


def within_the_ceiling():
    resource.setrlimit(resource.RLIMIT_AS, (CEILING_BYTES, CEILING_BYTES))


@pytest.mark.parametrize("case", list(CASES))
def test_a_hostile_input_is_answered_within_the_ceiling(case, tmp_path):
    argv, outcome = CASES[case](tmp_path)
    package_root = Path(entroconf.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "entroconf", *map(str, argv), "-s"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
        preexec_fn=within_the_ceiling,
        timeout=CEILING_S,
    )
    if isinstance(outcome, int):
        assert (result.returncode, result.stdout) == (outcome, "")
        assert result.stderr.startswith("input error: ") and result.stderr.count("\n") == 1
    else:
        assert (result.returncode, result.stderr) == (0, "")
        # a measure prints three decimals, -b its verdict, 1 or 0
        value = r"[01]" if argv[0] == "-b" else r"\d+\.\d{3}"
        assert re.fullmatch(value + r"\n", result.stdout), result.stdout
        assert outcome is None or result.stdout == outcome + "\n"
