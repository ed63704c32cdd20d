"""Usage and error text of ``dspc``, checked without pytest.

``main`` parses a line that starts with a command name with that command's
own parser, and hands a line with arguments left over to the parser with
every command; on every command line below it must exit and print exactly
as the parser with every command does. The lines reach top-level help, the
top-level usage (unknown or missing commands, stray arguments, a command
name as a stray argument, leftovers after a complete or abbreviated option
or a positional, leftovers after ``--help``) and each command's own errors
(missing arguments, an option with no value, a bad choice or type). Run
from the repository root, on any supported Python:

    PYTHONPATH=src python tests/cli_text.py
"""

from __future__ import annotations

import contextlib
import io
import sys

from dspc.cli import COMMANDS, build_parser, main

COMMAND_LINES = [
    ["--help"],
    *([name, "--help"] for name in COMMANDS),
    [],
    ["frobnicate"],
    ["solve"],
    ["solve", "-i", "x", "extra"],
    ["solve", "--algo", "bad", "-i", "x"],
    ["gen"],
    ["bench", "extra", "--suite", "mcc"],
    ["bench", "--suite", "mcc", "--count", "0"],
    ["solve", "--", "-i", "x"],
    ["oracle"],
    ["verify", "-i", "x"],
    ["solve", "gen"],
    ["solve", "-i", "x", "--mode"],
    ["gen", "psi", "--seed", "x"],
    ["-h", "solve"],
    ["solve", "-i", "x", "--bogus"],
    ["gen", "psi", "--seed", "1", "extra"],
    ["verify", "-s", "y", "-i", "x", "z"],
    ["solve", "--help", "extra"],
    ["bench", "--su", "mcc", "extra"],
    ["solve", "--instance=x", "extra"],
]


def outcome(call, argv: list[str]) -> tuple[object, str, str]:
    """The exit code, standard output and standard error of ``call(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            call(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check(argv: list[str]) -> None:
    """Raise AssertionError unless ``main`` exits on ``argv`` with text, as the full parser does."""
    got = outcome(main, argv)
    want = outcome(lambda line: build_parser().parse_args(line), argv)
    if got != want:
        raise AssertionError(f"dspc {' '.join(argv)}: main gave {got!r}, the full parser {want!r}")
    if got[0] is None or not (got[1] or got[2]):
        raise AssertionError(f"dspc {' '.join(argv)}: expected an exit with text, got {got!r}")


if __name__ == "__main__":
    for line in COMMAND_LINES:
        check(line)
    print(f"{len(COMMAND_LINES)} command lines print the same as the full parser "
          f"on Python {sys.version.split()[0]}")
