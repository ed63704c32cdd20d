"""Usage and error text of ``dspc``, checked without pytest.

``main`` builds a parser that gives arguments and ``-h`` only to the
invoked command; on every command line below it must exit and print
exactly as the parser with every command's arguments does. The lines reach
top-level help, the top-level usage (unknown or missing commands, stray
arguments) and each command's own errors. Run from the repository root, on
any supported Python:

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
    ["solve", "--", "-i", "x"],
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
