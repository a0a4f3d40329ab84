"""Run one CLI job as a fresh process and check its output against the record.

Each job is one ``python -m beltmatch.cli`` process with the checked-out
``src/`` first on ``PYTHONPATH``.  Wall time covers spawn to reap; CPU time
and peak RSS come from ``os.wait4``, so they include the job's own reaped
children.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class JobResult:
    argv: tuple[str, ...]
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout_bytes: int
    failure: str | None  # None when exit code and stdout match the record


def job_key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def child_env(src: Path) -> dict[str, str]:
    """The caller's environment without its PYTHON* settings, so no outside
    PYTHONPATH, user site or optimisation flag changes what the jobs run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(src)
    env["PYTHONNOUSERSITE"] = "1"
    return env


def cli_command(argv: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-m", "beltmatch.cli", *argv]


@dataclass(frozen=True)
class Finished:
    wall_s: float
    exit_code: int
    usage: object  # resource.struct_rusage from os.wait4
    stdout: bytes
    stderr: bytes
    killed: bool


def run_process(command: list[str], env: dict[str, str], cwd: Path, cap_s: float) -> Finished:
    """Spawn, drain both pipes, reap with wait4; kill the process if it overruns cap_s."""
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd)
    killed = threading.Event()

    def kill() -> None:
        killed.set()
        proc.kill()

    timer = threading.Timer(cap_s, kill)
    timer.start()
    errors: list[bytes] = []
    drain = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    drain.start()
    try:
        out = proc.stdout.read()
        drain.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Finished(wall, proc.returncode, usage, out, errors[0] if errors else b"", killed.is_set())


def run_job(
    argv: tuple[str, ...],
    command: list[str],
    env: dict[str, str],
    cwd: Path,
    cap_s: float,
    expected: dict | None,
) -> JobResult:
    """Run one job and compare it with its record from digests.json (None: not recorded)."""
    done = run_process(command, env, cwd, cap_s)
    code = done.exit_code
    digest = hashlib.sha256(done.stdout).hexdigest()
    failure = None
    if done.killed:
        failure = f"killed after the {cap_s:.0f} s cap"
    elif expected is None:
        failure = "no recorded digest for this job"
    elif code != expected["exit_code"]:
        failure = f"exit code {code}, recorded {expected['exit_code']}: {done.stderr.decode(errors='replace')[-300:]}"
    elif digest != expected["stdout_sha256"]:
        failure = f"stdout sha256 {digest[:12]}, recorded {expected['stdout_sha256'][:12]}"
    return JobResult(
        argv,
        done.wall_s,
        done.usage.ru_utime + done.usage.ru_stime,
        done.usage.ru_maxrss / 1024.0,
        len(done.stdout),
        failure,
    )
