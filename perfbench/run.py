"""Run one benchmark workload against the superschur package in ../src.

    python3 perfbench/run.py --workload hopf-ladder --seed 1 --seconds 36 --trace 0

Writes the workload's seeded catalog, times a fresh interpreter loading
it (setup), then repeats the workload's subcommand sequence (a pass) for
about --seconds seconds, checking every output against reference.json.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics
of the traced ones plus the tracing overhead.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("catalog-tour", "hopf-ladder", "large-algebras")
SETUP_RUNS = 7  # set-up loads at least this many, and for at least SETUP_MIN_S
SETUP_MIN_S = 3
SETUP_BUDGET_S = 8  # no further set-up load starts after this
SETUP_TIMEOUT_S = 20
END_TO_END = {"setup_s": "s", "pass_s": "s", "multiplier_s": "s", "peak_rss_mb": "MB"}
TRACE_EXTRA = {"trace.pass_s": "s", "trace.overhead_s": "s"}

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from superschur.catalog import builtin_algebras, parse_catalog
if sys.argv[2] == "-":
    algebras = builtin_algebras()
else:
    with open(sys.argv[2], encoding="utf-8") as fh:
        algebras = parse_catalog(fh.read())
print(len(algebras))
"""


def environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit(),
    }


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(catalog: str, expected: int, speed) -> float:
    """Median time of a fresh interpreter importing superschur and loading the inputs."""
    times = []
    began = time.perf_counter()
    while (len(times) < SETUP_RUNS or time.perf_counter() - began < SETUP_MIN_S) and (
        time.perf_counter() - began < SETUP_BUDGET_S
    ):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), catalog],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        times.append(speed.scaled(start, time.perf_counter() - start))
        if proc.returncode != 0 or proc.stdout.strip() != str(expected):
            raise RuntimeError(f"set-up load failed: {proc.stderr.strip() or proc.stdout.strip()}")
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import corespeed
        import spans
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()[w.name]
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    try:
        with corespeed.CoreSpeed() as speed:
            text = w.catalog_text(args.seed)
            catalog = "-"
            if text is not None:
                catalog = str(tmp / "catalog.txt")
                Path(catalog).write_text(text, encoding="utf-8")
            if not args.trace:
                try:
                    setup_s = measure_setup(catalog, len(reference[w.ops[0][0]]), speed)
                except (RuntimeError, subprocess.TimeoutExpired) as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
            passes = workloads.run_passes(
                w, reference, catalog, args.seconds, bool(args.trace), speed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            WORK.rmdir()

    attempted = sum(len(p["ops"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in spans.PER_LAYER
        }
        traced_s = statistics.median(p["seconds"] for p in traced)
        metrics["trace.pass_s"] = traced_s
        metrics["trace.overhead_s"] = traced_s - statistics.median(p["seconds"] for p in plain)
        units = {name: unit for name, (unit, _, _) in spans.PER_LAYER.items()} | TRACE_EXTRA
    else:
        metrics = {
            "setup_s": setup_s,
            "pass_s": statistics.median(p["seconds"] for p in plain),
            "multiplier_s": statistics.median(p["ops"]["multiplier"] for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    print(f"{w.name}: {len(passes)} passes, {attempted} operations, {len(failures)} failed "
          f"(failed_share {len(failures) / max(attempted, 1):g})")
    for op, _ in w.ops:
        samples = [p["ops"][op] for p in plain]
        wall = [p["wall_ops"][op] for p in plain]
        print(f"  {op}_s = {statistics.median(samples):.4f} s (median of {len(samples)} calls; "
              f"wall time median {statistics.median(wall):.4f}, min {min(wall):.4f}, max {max(wall):.4f})")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for failure in failures[:10]:
        print(f"  FAILED {failure}", file=sys.stderr)
    print("env " + json.dumps(environment(args)))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
