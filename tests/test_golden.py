"""Golden reports: every CLI report on the shipped catalog, byte for byte.

Each case runs `cli.main` in process and compares its stdout with the
file of the same name under `tests/golden/`.  The files pin the output
of `check`, `invariants`, `multiplier --method both`, `bounds` and
`verify` on the shipped catalog, and of `free --even 2 --odd 1 --class 4
--hilbert` and `identity --arity-max 4`, each in human, json and csv.

Regenerate the files with

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
CASES = [
    (f"{name}.{EXTENSIONS[fmt]}", ["--format", fmt] + argv)
    for name, argv in COMMANDS.items()
    for fmt in FORMATS
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
