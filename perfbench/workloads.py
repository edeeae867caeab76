"""Workloads of the superschur benchmark: seeded inputs, operations, output checks.

Each workload is a fixed sequence of CLI subcommands (one pass), run by a
single client, one call after another.  The seed only picks a
parity-preserving permutation and a rescaling of each generated
algebra's basis (`superalg.change_basis`), so every checked output is the
same for every seed.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import signal
import statistics
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import spans

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import superschur  # noqa: E402

if not Path(superschur.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"superschur was imported from {superschur.__file__}, not from {SRC}")

from superschur import cli  # noqa: E402
from superschur.catalog import render_catalog, special_heisenberg_odd  # noqa: E402
from superschur.freenilp import GeneratorSpec, build_free_nilpotent  # noqa: E402
from superschur.superalg import change_basis  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"
CATALOG = "{catalog}"  # placeholder for the workload's generated catalog file
SCALES = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))


def scramble(L, rng: random.Random):
    """L on a randomly permuted (within parity) and rescaled basis, same name."""
    even = list(range(L.n_even))
    odd = list(range(L.n_even, L.dim))
    rng.shuffle(even)
    rng.shuffle(odd)
    return change_basis(L, even + odd, [rng.choice(SCALES) for _ in range(L.dim)], name=L.name)


def hopf_ladder_algebras(seed: int) -> list:
    rng = random.Random(seed)
    return [scramble(special_heisenberg_odd(n), rng) for n in (4, 5, 6)]


def large_algebras(seed: int) -> list:
    rng = random.Random(seed)
    return [
        scramble(build_free_nilpotent(GeneratorSpec(p, 3 - p, 4)).algebra, rng)
        for p in (3, 2, 1, 0)
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[tuple[str, tuple[str, ...]], ...]  # (operation name, CLI argv)
    algebras: Callable[[int], list] | None = None  # seed -> algebras; None: shipped catalog

    def catalog_text(self, seed: int) -> str | None:
        return None if self.algebras is None else render_catalog(self.algebras(seed))


WORKLOADS = {
    w.name: w
    for w in (
        # the everyday path: every catalog subcommand on the shipped catalog
        Workload(
            "catalog-tour",
            (
                ("check", ("check",)),
                ("invariants", ("invariants",)),
                ("multiplier", ("multiplier", "--method", "both")),
                ("bounds", ("bounds",)),
                ("verify", ("verify",)),
            ),
        ),
        # small targets with large free presentations: the Hopf route, mostly eval_hom
        Workload(
            "hopf-ladder",
            (("multiplier", ("multiplier", "--method", "both", CATALOG)),),
            hopf_ladder_algebras,
        ),
        # large targets through the cochain route only, a free build, the identity sweep
        Workload(
            "large-algebras",
            (
                ("check", ("check", CATALOG)),
                ("invariants", ("invariants", CATALOG)),
                ("multiplier", ("multiplier", "--method", "cohomology", CATALOG)),
                ("free", ("free", "--even", "2", "--odd", "1", "--class", "7", "--hilbert")),
                ("identity", ("identity", "--arity-max", "6")),
            ),
            large_algebras,
        ),
    )
}


# -- running one operation ------------------------------------------------------


class OpTimeout(BaseException):
    """Raised inside an operation that ran past its cap."""


def _on_alarm(signum, frame):
    raise OpTimeout


@dataclass
class OpResult:
    start: float  # time.perf_counter() when the call began
    seconds: float
    exit_code: int | None
    stdout: str
    error: str | None  # exception or cap overrun, None when the call returned


def run_op(argv, cap_s: float) -> OpResult:
    """One in-process `superschur` call with JSON output, capped at cap_s seconds."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--format", "json", *argv])
    except OpTimeout:
        error = f"ran past the {cap_s:g} s cap"
    except Exception as exc:  # a crash is a failed operation, not a failed benchmark
        error = f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return OpResult(start, seconds, code, out.getvalue(), error)


# -- output checks -----------------------------------------------------------------

# basis-invariant fields compared per record; keys matching a prefix are compared too
FIELDS = {
    "check": ("algebra", "dim", "valid"),
    "invariants": ("algebra", "dim", "nilpotent", "series_dims", "class", "generator_dims", "center_dim"),
    "multiplier": ("algebra", "multiplier_hopf", "multiplier_cohomology", "methods_agree", "status"),
    "bounds": ("algebra", "multiplier", "main_bound", "nayak_bound", "rai_bound", "tight", "status"),
    "verify": (
        "algebra", "top_step_identity", "top_step_identity_ok", "telescoped_identity",
        "telescoped_identity_ok", "bracket_kernel_", "kernel_bounds_ok",
        "witness_tensors_checked", "witnesses_ok", "status",
    ),
    "free": ("generators", "class_bound", "degree_dims", "total_dims", "hilbert_ok"),
    "identity": ("arity", "parity_cases", "nonzero_residuals"),
}
# report keys accepted for a reference field, so a key rename does not read as a mismatch
ALIASES = {"witness_tensors_checked": ("witness_tensors_checked", "witness_tensores_checked")}


def _record_key(rec: dict):
    return rec.get("algebra", rec.get("arity", "-"))


def reference_record(op: str, rec: dict) -> dict:
    """The checked fields of one report record, under their reference names."""
    out = {}
    for field in FIELDS[op]:
        if field.endswith("_"):
            out.update({k: v for k, v in rec.items() if k.startswith(field)})
            continue
        for key in ALIASES.get(field, (field,)):
            if key in rec:
                out[field] = rec[key]
                break
    return out


def reference_report(op: str, stdout: str) -> list[dict]:
    return [reference_record(op, rec) for rec in json.loads(stdout)["results"]]


def check_op(op: str, expected: list[dict], result: OpResult) -> list[str]:
    """Problems with one operation's outcome; empty when it matches the reference."""
    if result.error is not None:
        return [result.error]
    if result.exit_code != 0:
        return [f"exit code {result.exit_code}"]
    try:
        payload = json.loads(result.stdout)
        records = payload["results"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc}"]
    problems = [] if payload.get("ok") is True else ["report says not ok"]
    if len(records) != len(expected):
        return problems + [f"{len(records)} records, expected {len(expected)}"]
    for rec, want in zip(records, expected):
        got = reference_record(op, rec)
        for field, value in want.items():
            if got.get(field) != value:
                problems.append(
                    f"{_record_key(want)}: {field} = {got.get(field)!r}, expected {value!r}"
                )
    return problems


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# -- passes --------------------------------------------------------------------------

OP_CAP_S = 60.0  # an operation running longer than this counts as failed
LATE_START_S = 30.0  # no operation starts later than this past the measuring window


def run_passes(w: Workload, reference: dict, catalog: str, seconds: float, trace: bool,
               speed) -> list[dict]:
    """Repeat the workload's pass until the next one would end past `seconds`.

    Traced runs alternate untraced and traced passes, starting untraced,
    and run at least one of each.
    """
    start = time.perf_counter()
    passes: list[dict] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(w, reference, catalog, traced, start + seconds + LATE_START_S, speed))
        estimate = statistics.median(p["wall"] for p in passes)
        if (not trace or len(passes) >= 2) and time.perf_counter() + estimate > start + seconds:
            return passes


def run_pass(w: Workload, reference: dict, catalog: str, traced: bool, late: float, speed) -> dict:
    """One pass: every operation once, timed and checked; traced passes record spans.

    `ops` holds each call's time rescaled by `speed` (a corespeed.CoreSpeed),
    `wall_ops` its wall time.
    """
    rec = spans.Recorder()
    ops: dict[str, float] = {}
    wall_ops: dict[str, float] = {}
    failures: list[str] = []
    began = time.perf_counter()
    for op, argv in w.ops:
        argv = [catalog if a == CATALOG else a for a in argv]
        if time.perf_counter() > late:
            failures.append(f"{op}: not started, the run is past its time limit")
            ops[op] = wall_ops[op] = OP_CAP_S  # counted as taking the whole cap
            continue
        gc.collect()
        with spans.instrument(rec) if traced else contextlib.nullcontext():
            result = run_op(argv, OP_CAP_S)
        ops[op] = speed.scaled(result.start, result.seconds)
        wall_ops[op] = result.seconds
        failures += [f"{op}: {p}" for p in check_op(op, reference[op], result)]
    return {
        "traced": traced,
        "ops": ops,
        "wall_ops": wall_ops,
        "seconds": sum(ops.values()),
        "wall": time.perf_counter() - began,
        "failures": failures,
        # layer times take the pass's overall rescaling, so they add up like `seconds`
        "layers": spans.layer_metrics(rec, sum(ops.values()) / sum(wall_ops.values()))
        if traced else None,
    }
