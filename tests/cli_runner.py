"""Run the command line in process, as the tests drive it, or in a fresh
process with a deadline."""

import io
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple
from unittest import mock

from apspectra import cli
from apspectra.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


class Result(NamedTuple):
    exit_code: int
    output: str         # stdout and stderr, in the order they were written


def run_cli(args, env=None) -> Result:
    """``main(args)`` with ``env`` set in ``os.environ``; the code of its
    SystemExit is the exit code."""
    buffer = io.StringIO()
    with mock.patch.dict(os.environ, env or {}), \
            redirect_stdout(buffer), redirect_stderr(buffer):
        try:
            main(args)
        except SystemExit as exc:
            return Result(exc.code, buffer.getvalue())
    raise AssertionError("main returned instead of exiting")


def run_cli_process(args, timeout: float) -> Result:
    """``python -m apspectra.cli args`` with this tree's ``src`` first on
    the path.  A run still going after ``timeout`` seconds is killed and
    raises ``subprocess.TimeoutExpired``, so a hang fails its test where
    an in-process ``run_cli`` could not be interrupted."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-m", "apspectra.cli", *args],
                         env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, text=True, timeout=timeout)
    return Result(res.returncode, res.stdout)


def traced_peak(command: str, config, out) -> int:
    """The peak of the memory tracemalloc traces while ``command`` runs
    in process on ``config`` into ``out``, in bytes; a run that does not
    exit 0 fails."""
    tracemalloc.start()
    try:
        code = cli._run(command, str(config), str(out), None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, f"{command} exited {code}"
    return peak
