"""Run one command in a fresh child process and measure it from outside.

Wall time runs from just before the spawn to the reap. CPU time and peak
resident memory come from the child's own rusage, read with os.wait4. A
timeout, a kill or a nonzero exit is returned as a result, never raised.
Linux only: the timeout waits on a pidfd.
"""

from __future__ import annotations

import os
import select
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Invocation:
    exit_code: int  # negative: killed by that signal
    timed_out: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def invoke(cmd: list[str], env: dict, cwd: Path, scratch: Path, timeout_s: float) -> Invocation:
    """Run cmd to completion or until timeout_s, then reap it with os.wait4.

    stdout and stderr go to files under scratch so that a chatty child can
    never block on a full pipe.
    """
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            timed_out = not poller.poll(timeout_s * 1000.0)
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - started
    # os.wait4 reaped the child; tell Popen so it never waits on the pid again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        exit_code=proc.returncode,
        timed_out=timed_out,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )
