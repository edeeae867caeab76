"""Golden reports: every CLI report on the shipped catalog, byte for byte.

Each case runs `cli.main` in process and compares its stdout with the
file of the same name under `tests/golden/`.  The files pin the output
of `check`, `invariants`, `multiplier --method both`, `bounds` and
`verify` on the shipped catalog, and of `free --even 2 --odd 1 --class 4
--hilbert` and `identity --arity-max 4`, each in human, json and csv.

`presentations.cat` is data: the seed-1 scrambled `sh(0|4..6)` and
free (p|q) class-4 targets (p+q = 3) of the benchmark's `hopf-ladder`
and `large-algebras` workloads, rendered once with `render_catalog`.
Their free presentations are large and their bases permuted and
rescaled, so `multiplier --method both` and `verify` are also pinned on
it, in json.

`ladder.cat` is data too, rendered once with `render_catalog`: the
records of high class and on dense bases.  It holds sfil8, sfil10 and
sfil12 (e0 even, f1 ... f_{n-1} odd, [e0, f_i] = f_{i+1}, class n-1),
fil8 + A(1|0) (filiform of class 7 plus an even line, three even
generators) and the seed-7 `support.gl_changed` copies of free21c3 and
sh(0|4), whose bases mix vectors of one parity.  `check`, `invariants`,
`multiplier --method both`, `bounds` and `verify` are pinned on it, in
json.

Regenerate the report files (not the catalogs) with

    PYTHONPATH=src python tests/test_golden.py

Regenerate only for a deliberate change of output, and record that
change in CHANGES.md; a refactor must pass against the files unchanged.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import sys

import pytest

from superschur.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
FORMATS = ("human", "json", "csv")
EXTENSIONS = {"human": "txt", "json": "json", "csv": "csv"}
COMMANDS = {
    "check": ["check"],
    "invariants": ["invariants"],
    "multiplier": ["multiplier", "--method", "both"],
    "bounds": ["bounds"],
    "verify": ["verify"],
    "free": ["free", "--even", "2", "--odd", "1", "--class", "4", "--hilbert"],
    "identity": ["identity", "--arity-max", "4"],
}
PRESENTATIONS = str(GOLDEN_DIR / "presentations.cat")
LADDER = str(GOLDEN_DIR / "ladder.cat")
CASES = [
    (f"{name}.{EXTENSIONS[fmt]}", ["--format", fmt] + argv)
    for name, argv in COMMANDS.items()
    for fmt in FORMATS
] + [
    (f"presentations_{name}.json", ["--format", "json"] + COMMANDS[name] + [PRESENTATIONS])
    for name in ("multiplier", "verify")
] + [
    (f"ladder_{name}.json", ["--format", "json"] + COMMANDS[name] + [LADDER])
    for name in ("check", "invariants", "multiplier", "bounds", "verify")
]


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("filename,argv", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(filename, argv):
    code, text = run(argv)
    assert code == 0
    assert text == (GOLDEN_DIR / filename).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for filename, argv in CASES:
        code, text = run(argv)
        if code != 0:
            sys.exit(f"{' '.join(argv)} exited {code}; golden files not written")
        (GOLDEN_DIR / filename).write_text(text, encoding="utf-8")
        print(f"wrote {filename}")
