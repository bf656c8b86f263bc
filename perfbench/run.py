"""Benchmark of the entroconf command line on seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lang-logs --seed 1 --seconds 20 --trace 0

A run writes the workload's input files from --seed, then drives the CLI of
this checkout (src/) in a closed loop: one client, one invocation at a time,
each in a fresh child process, as a script looping over logs would. Every
cycle runs `python -m entroconf --version` (set-up: interpreter start and
package import), a fixed reference task that does not use entroconf, and the
workload invocation, until --seconds have passed. Every printed value is
checked against a reference value that the benchmark computes without
entroconf; a mismatch, a nonzero exit, a kill or a timeout counts as a
failed invocation.

End-to-end metrics (--trace 0) are medians over the cycles: setup_s,
peak_rss_mb, and wall_per_ref and cpu_per_ref, the invocation's wall and
CPU time divided by the reference task's in the same cycle. The ratios are
there because the speed of a shared host drifts by a fifth or more over
minutes, which moves every time in seconds alike; the raw wall_s and cpu_s
are printed and recorded beside them. With --trace 1 the same loop runs,
then one more invocation runs under traced_cli.py, and the per-layer
metrics of layers.py are reported instead.

Standard output ends with one JSON line: correct, attempted, failed and
metrics. The lines before it are a readable summary, including error_rate,
and the run's facts (machine, library versions, seed, input sizes); the
full record also goes to perfbench/.work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import Invocation, invoke
from layers import largest_self_time, layer_metrics, metric_units
from workloads import WORKLOADS, Prepared

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
INVOCATION_TIMEOUT_S = 30.0
TRACED_TIMEOUT_S = 60.0
# the gated metrics; wall_s, cpu_s and reference_s are reported beside them
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_per_ref": "ratio",
    "cpu_per_ref": "ratio",
    "peak_rss_mb": "MB",
}
REPORT_UNITS = {**END_TO_END_UNITS, "wall_s": "s", "cpu_s": "s", "reference_s": "s"}
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupFailed(Exception):
    """The checkout cannot run the CLI at all; no result is printed."""


class Tally:
    """Attempted and failed invocations, with the first failure kept for the report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def record(self, ok: bool, what: str, inv: Invocation) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                reason = "timeout" if inv.timed_out else f"exit {inv.exit_code}"
                tail = (inv.stderr.strip().splitlines() or [""])[-1]
                self.first_failure = f"{what}: {reason}: {inv.stdout.strip()!r} {tail}"


def child_env() -> dict[str, str]:
    """The caller's environment with this checkout's src/ first on the path.

    Thread settings are left as the caller has them: users run with defaults.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


_PROBE = """\
import json, sys, entroconf, numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "entroconf_file": entroconf.__file__,
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
}))
"""


def machine_facts(env: dict, scratch: Path, seed: int) -> dict:
    """Versions the CLI runs with, machine size and thread settings.

    Raises SetupFailed unless entroconf is imported from this checkout.
    """
    if not (SRC / "entroconf" / "__init__.py").is_file():
        raise SetupFailed(f"no entroconf package under {SRC}")
    inv = invoke([sys.executable, "-c", _PROBE], env, ROOT, scratch, INVOCATION_TIMEOUT_S)
    if inv.exit_code != 0:
        raise SetupFailed(f"cannot import entroconf: {inv.stderr.strip()}")
    versions = json.loads(inv.stdout)
    if not Path(versions.pop("entroconf_file")).resolve().is_relative_to(SRC.resolve()):
        raise SetupFailed("entroconf is not imported from this checkout's src/")
    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        **versions,
        "threads_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "seed": seed,
    }


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "entroconf").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def printed_value(stdout: str) -> float | None:
    """The number on the CLI's one output line, e.g. 'entropic relevance: 1.5 bits'."""
    lines = stdout.strip().splitlines()
    if len(lines) != 1:
        return None
    try:
        return float(lines[0].rpartition(": ")[2].removesuffix(" bits"))
    except ValueError:
        return None


def matches(value: float | None, expected: float) -> bool:
    # the CLI prints three decimals, so the reference must lie within half a unit
    return value is not None and abs(value - expected) <= 5e-4 + 1e-9 * abs(expected)


# A fixed task that does not touch entroconf: interpreter start, the numpy
# and scipy imports, a pure-Python loop and dense mat-vecs, about the mix
# the workloads run. Its time in the same cycle tracks how fast the machine
# is at that moment, so the *_per_ref ratios cancel drift in host speed.
REFERENCE_TASK = """\
import numpy, scipy.sparse.csgraph
total = 0
for i in range(200_000):
    total += i * i
m = numpy.ones((1500, 1500))
v = numpy.ones(1500)
for _ in range(20):
    v = m @ v / 1500.0
print(total % 7, float(v[0]))
"""


def closed_loop(
    prepared: Prepared, seconds: float, env: dict, scratch: Path, tally: Tally
) -> list[dict[str, Invocation]]:
    """Run set-up, reference and workload cycles for `seconds`; returns the cycles."""
    python = sys.executable
    commands = {
        "setup": [python, "-m", "entroconf", "--version"],
        "reference": [python, "-I", "-c", REFERENCE_TASK],
        "workload": [python, "-m", "entroconf", *prepared.args],
    }
    cycles: list[dict[str, Invocation]] = []
    started = time.perf_counter()
    while not cycles or time.perf_counter() - started < seconds:
        cycle = {}
        for what, cmd in commands.items():
            inv = invoke(cmd, env, ROOT, scratch, INVOCATION_TIMEOUT_S)
            if what == "workload":
                ok = matches(printed_value(inv.stdout), prepared.expected)
            else:
                ok = bool(inv.stdout.strip())
            tally.record(inv.exit_code == 0 and ok, what, inv)
            cycle[what] = inv
        cycles.append(cycle)
        if cycle["workload"].timed_out:
            break
    return cycles


def end_to_end_metrics(cycles: list[dict[str, Invocation]]) -> dict[str, float]:
    """Medians over the cycles; the *_per_ref ratios are taken within each cycle."""

    def median(value) -> float:
        return statistics.median(value(c["setup"], c["reference"], c["workload"]) for c in cycles)

    return {
        "setup_s": median(lambda setup, ref, run: setup.wall_s),
        "wall_per_ref": median(lambda setup, ref, run: run.wall_s / ref.wall_s),
        "cpu_per_ref": median(lambda setup, ref, run: run.cpu_s / ref.cpu_s),
        "peak_rss_mb": median(lambda setup, ref, run: run.peak_rss_mb),
        "wall_s": median(lambda setup, ref, run: run.wall_s),
        "cpu_s": median(lambda setup, ref, run: run.cpu_s),
        "reference_s": median(lambda setup, ref, run: ref.wall_s),
    }


def traced_run(prepared: Prepared, env: dict, scratch: Path, tally: Tally) -> list[list] | None:
    """One invocation under traced_cli.py; its spans, or None when it failed."""
    spans_path = scratch / "spans.json"
    cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *prepared.args]
    inv = invoke(cmd, env, ROOT, scratch, TRACED_TIMEOUT_S)
    trace = json.loads(spans_path.read_text()) if inv.exit_code == 0 else None
    ok = trace is not None and matches(printed_value(trace["stdout"]), prepared.expected)
    expected_bits = prepared.traced_checks.get("model_entropy_bits")
    if ok and expected_bits is not None:
        # the model's entropy against its closed form, to 1e-9 relative
        model_bits = [
            sizes["bits"]
            for name, _, _, _, sizes in trace["spans"]
            if name == "stochastic.sdfa_entropy" and sizes["model"]
        ]
        ok = bool(model_bits) and all(
            abs(bits - expected_bits) <= 1e-9 * expected_bits for bits in model_bits
        )
    tally.record(ok, "traced", inv)
    return trace["spans"] if ok else None


def summary_lines(name: str, seed: int, record: dict) -> list[str]:
    e2e = record["end_to_end"]
    lines = [f"workload {name}, seed {seed}: {record['samples']} timed cycles"]
    for metric, unit in REPORT_UNITS.items():
        lines.append(f"  {metric:<12} {e2e[metric]:12.6f} {unit:<5} median")
    lines.append(
        f"  {'error_rate':<12} {record['error_rate']:12.6f}       "
        f"({record['failed']} failed of {record['attempted']} attempted)"
    )
    if record["first_failure"]:
        lines.append(f"  first failure: {record['first_failure']}")
    if "largest_self_time" in record:
        held = "held" if record["prediction_held"] else "FAILED"
        lines.append(
            f"  largest self time: {record['largest_self_time']} "
            f"(prediction {held}: {' or '.join(record['predicted_largest'])})"
        )
    return lines


def benchmark(name: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    workload = WORKLOADS[name]
    env = child_env()
    # the probe also writes the package's bytecode, so the timed loop starts warm
    facts = machine_facts(env, scratch, seed)
    started = time.perf_counter()
    prepared = workload.generate(seed, scratch)
    facts["inputs"] = prepared.facts
    facts["generate_s"] = time.perf_counter() - started
    tally = Tally()
    cycles = closed_loop(prepared, seconds, env, scratch, tally)
    end_to_end = end_to_end_metrics(cycles)
    record = {"workload": name, "seconds": seconds, "trace": trace, "facts": facts}
    if trace:
        spans = traced_run(prepared, env, scratch, tally)
        untraced = end_to_end["wall_s"] - end_to_end["setup_s"]
        layers = layer_metrics(spans or [], untraced)
        record["layers"] = layers
        if spans:
            largest = largest_self_time(layers)
            record["largest_self_time"] = largest
            record["predicted_largest"] = list(workload.predicted_largest)
            record["prediction_held"] = largest in workload.predicted_largest
        units = metric_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": end_to_end[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    record.update(
        samples=len(cycles),
        end_to_end=end_to_end,
        cycles=[
            {what: [i.wall_s, i.cpu_s, i.peak_rss_mb] for what, i in c.items()} for c in cycles
        ],
        attempted=tally.attempted,
        failed=tally.failed,
        error_rate=tally.failed / tally.attempted,
        first_failure=tally.first_failure,
        result={
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        },
    )
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    scratch = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    except SetupFailed as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(summary_lines(args.workload, args.seed, record)))
    print("facts: " + json.dumps(record["facts"]))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
