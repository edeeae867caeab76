"""Regenerate reference.json: each workload's pass once, at seed 0.

    python3 perfbench/make_reference.py

Only the basis-invariant fields (workloads.FIELDS) are stored.  Run it
when a workload changes, never to make a failing check pass.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads


def render(reference: dict) -> str:
    """JSON with one report record per line."""
    blocks = []
    for name, ops in reference.items():
        lines = []
        for op, records in ops.items():
            rows = ",\n".join("   " + json.dumps(r) for r in records)
            lines.append(f"  {json.dumps(op)}: [\n{rows}\n  ]")
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
        for w in workloads.WORKLOADS.values():
            catalog = Path(tmp) / f"{w.name}.txt"
            text = w.catalog_text(0)
            if text is not None:
                catalog.write_text(text, encoding="utf-8")
            reference[w.name] = {}
            for op, argv in w.ops:
                argv = [str(catalog) if a == workloads.CATALOG else a for a in argv]
                result = workloads.run_op(argv, cap_s=600)
                if result.error is not None or result.exit_code != 0:
                    print(f"error: {w.name} {op}: {result.error or result.exit_code}", file=sys.stderr)
                    return 1
                reference[w.name][op] = workloads.reference_report(op, result.stdout)
                print(f"{w.name} {op}: {result.seconds:.2f} s", file=sys.stderr)
    workloads.REFERENCE.write_text(render(reference), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
