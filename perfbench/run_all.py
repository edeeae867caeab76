"""Run every workload untraced and traced, and print every metric with its unit.

    python3 perfbench/run_all.py [--seed 1] [--seconds 35]

Each workload runs twice through run.py, in its own interpreter: once
with tracing off (end-to-end metrics) and once with tracing on
(per-layer metrics).  The tracing overhead is the traced pass time minus
the untraced one, both measured inside the traced run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    args = parser.parse_args(argv)
    status = 0
    for name in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=HERE.parent,
            )
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            lines = proc.stdout.strip().splitlines()
            print(f"== {name} trace={trace}")
            print("\n".join(lines[:-1]))
            status = status or int(not json.loads(lines[-1])["correct"])
    return status


if __name__ == "__main__":
    raise SystemExit(main())
