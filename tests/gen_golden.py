"""Recorded digests of ``dspc gen`` output, checked without pytest.

Each command line below must exit 0 and print, on standard output, the
bytes whose sha256 digest is recorded next to it. The lines cover both
gadget families, planted and unplanted: the grid family at 2 to 4 colours
(3 colours is the benchmark's gadgets workload) and the block family at
c = 1 to 3, plus one random DAG. Any drift in generation, between Python
versions too, changes a digest. Run from the repository root, on any
supported Python:

    PYTHONPATH=src python tests/gen_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys

from dspc.cli import main

GOLDEN = {
    "gen mcc --seed 7 --size 5 --colors 2":
        "0a24658192c1cc1868a1a8705a84e141ec594f4ca55fd7c4e91471a739f290ef",
    "gen mcc --seed 7 --size 5 --colors 2 --no-plant":
        "0e6d5887386f01f22816a67cefa5e3aa941270a83db1dc0f978b10f14dce8bf6",
    "gen mcc --seed 3 --size 6 --colors 3":
        "2c5c1055728f8a19ee51fb9a08a4e5578d3b9366e46629b40773cbacbf9baa64",
    "gen mcc --seed 4 --size 6 --colors 3 --no-plant":
        "80b397a65e2a14395414f47dc8b571f3c07bcf041d2b5510a6f12aeffad0c788",
    "gen mcc --seed 1 --size 6 --colors 4":
        "1d63bd6dff5baa1fd3137139e6017f376190307342cfc8581505806a4bf3006d",
    "gen psi --seed 3 --class-size 1 --congestion 1":
        "9d057d2d0f6f01165b02fdaabcb3b57c48dada305fc7b5fefdb0f06e5987e8bf",
    "gen psi --seed 3 --class-size 2 --congestion 2":
        "453b248766a780fe388d1db7fbb3bb16b5c29d28b6db9a1dfc390e8ebe8122ef",
    "gen psi --seed 5 --class-size 3 --congestion 3":
        "9be62264523b6d32f520141cd564628c6af56b607ed0019491f58b3ed48bd86c",
    "gen psi --seed 2 --class-size 2 --congestion 1 --no-plant":
        "4f6468d14235c61aa0420d4bb3455fec0866025089c3b098a3402e637f277466",
    "gen psi --seed 6 --class-size 3 --congestion 3 --no-plant":
        "96b475fc30a5b063b33742f58eab85516fdc8f58691dd5b6284057fdcaa5f1a0",
    "gen random --seed 7 --size 7 --demands 3":
        "bb4f3b9adb881cba08fddec7019ae49b3df9948b53dc5b83115c18a25f18f137",
}


def digest(line: str) -> str:
    """The sha256 digest of the standard output of ``dspc <line>``, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(line.split())
    if code != 0:
        raise AssertionError(f"dspc {line}: exit {code}, expected 0")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def check(line: str) -> None:
    """Raise AssertionError unless ``dspc <line>`` prints the recorded bytes."""
    got = digest(line)
    if got != GOLDEN[line]:
        raise AssertionError(f"dspc {line}: output digest {got}, recorded {GOLDEN[line]}")


if __name__ == "__main__":
    for line in GOLDEN:
        check(line)
    print(f"{len(GOLDEN)} gen command lines print the recorded bytes "
          f"on Python {sys.version.split()[0]}")
