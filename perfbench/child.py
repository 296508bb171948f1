"""Runs one child process to completion and reports that child's own
resource usage (``os.wait4``), so that other children of the runner, such
as the set-up processes and the calibration reference, do not mix into it."""

from __future__ import annotations

import os
import subprocess
import threading

TIMEOUT_S = 120


def run_child(argv, stdin: str = "", env=None, cwd=None, pass_fds=()):
    """Returns (exit code, stdout, CPU seconds, peak RSS in KiB) of the child.
    Its standard error is discarded; a child still running after TIMEOUT_S
    is killed."""
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True, env=env, cwd=cwd,
                            pass_fds=pass_fds)
    timer = threading.Timer(TIMEOUT_S, proc.kill)
    timer.start()
    try:
        try:
            proc.stdin.write(stdin)
            proc.stdin.close()
        except BrokenPipeError:  # the child exited without reading its input
            pass
        out = proc.stdout.read()
        proc.stdout.close()
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_utime + usage.ru_stime, usage.ru_maxrss
