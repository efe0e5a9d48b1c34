"""Run the command line in process, as the tests drive it."""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple
from unittest import mock

from apspectra.cli import main


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
