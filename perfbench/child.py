"""Run one apspectra CLI command with layer spans recorded.

    python3 perfbench/child.py TRACE_FILE COMMAND_ID -- COMMAND --config ... --out ...

The wrappers are installed before ``apspectra.cli:main`` is called; the
spans go to TRACE_FILE as JSON lines, which the caller keeps outside
``--out``.  The exit code is the command's.
"""

import sys

from tracer import Tracer


def main() -> None:
    trace_file, command_id, separator, *cli_args = sys.argv[1:]
    if separator != "--":
        sys.exit("usage: child.py TRACE_FILE COMMAND_ID -- ARGS...")
    from apspectra import cli

    tracer = Tracer(command_id)
    tracer.install()
    code = 0
    try:
        with tracer.span("cli.main", "cli.self"):
            cli.main(args=cli_args, prog_name="apspectra")
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.uninstall()
        tracer.write(trace_file)
    sys.exit(code)


if __name__ == "__main__":
    main()
