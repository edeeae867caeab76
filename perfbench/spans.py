"""Span recorder and the per-layer instrumentation of the superschur modules.

The recorder keeps one aggregate per span name (calls, inclusive time,
self time) plus named counters, so memory stays flat however many calls
are traced.  Self time is a span's duration minus the time its child
spans cover.  Inclusive time counts only the outermost span of a name, so
a function that re-enters itself is not counted twice.

`instrument` wraps the public functions of each layer where their
callers look them up: a function imported by name into another module
(`from .exactla import rref`) is a separate binding there, so every
binding of the original object inside the package is replaced, and every
one is restored afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time


class Recorder:
    """Aggregating span recorder; `clock` returns integer nanoseconds."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stack: list[list] = []  # [name, start, time covered by children]
        self.spans: dict[str, list[int]] = {}  # name -> [calls, inclusive, self]
        self.counters: dict[str, int] = {}

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0])

    def exit(self) -> None:
        name, start, covered = self.stack.pop()
        duration = self.clock() - start
        agg = self.spans.setdefault(name, [0, 0, 0])
        agg[0] += 1
        agg[2] += duration - covered
        if all(frame[0] != name for frame in self.stack):
            agg[1] += duration
        if self.stack:
            self.stack[-1][2] += duration

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0, 0))[0]

    def inclusive_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0, 0))[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0, 0))[2] / 1e9


def _count_rref_cells(rec, args, result):
    rec.count("exactla.rref_cells", args[0].rows * args[0].cols)


def _count_accepted(rec, args, result):
    rec.count("exactla.sparse_accepted", int(bool(result)))


def _count_free_words(rec, args, result):
    spec = result.spec
    rec.count("freenilp.free_dim", result.dim)
    rec.count("freenilp.words_tried", sum(spec.num**d for d in range(1, spec.class_bound + 1)))


# (module, attribute or Class.method, span name, hook run on the result)
TARGETS = [
    ("catalog", "builtin_algebras", "catalog.builtin", None),
    ("catalog", "parse_catalog", "catalog.parse", None),
    ("superalg", "LieSuperalgebra.validate", "superalg.validate", None),
    ("superalg", "LieSuperalgebra.lower_central_series", "superalg.lower_central_series", None),
    ("superalg", "LieSuperalgebra.center", "superalg.center", None),
    ("superalg", "LieSuperalgebra.product_space", "superalg.product_space", None),
    ("superalg", "LieSuperalgebra.quotient", "superalg.quotient", None),
    ("superalg", "LieSuperalgebra.bracket", "superalg.bracket", None),
    ("freenilp", "build_free_nilpotent", "freenilp.build", _count_free_words),
    ("freenilp", "FreeNilpotentSuperalgebra._assemble", "freenilp.assemble", None),
    ("freenilp", "eval_hom", "freenilp.eval_hom", None),
    ("freenilp", "rewrite_identity_residual", "freenilp.identity", None),
    ("multiplier", "present", "multiplier.present", None),
    ("multiplier", "schur_multiplier_hopf", "multiplier.hopf", None),
    ("multiplier", "schur_multiplier_cohomology", "multiplier.cohomology", None),
    ("multiplier", "verify_top_step_identity", "multiplier.identities", None),
    ("multiplier", "verify_telescoped_identity", "multiplier.identities", None),
    ("multiplier", "bracket_map_kernel_dim", "multiplier.bracket_kernel", None),
    ("multiplier", "witness_tuple_positions", "multiplier.witness", None),
    ("multiplier", "witness_tensor", "multiplier.witness", None),
    ("bounds", "check_bound", "bounds.check_bound", None),
    ("exactla", "rref", "exactla.rref", _count_rref_cells),
    ("exactla", "Matrix.mul_vec", "exactla.mul_vec", None),
    ("exactla", "SparseEchelon.insert", "exactla.sparse_insert", _count_accepted),
    ("exactla", "SparseEchelon.express", "exactla.sparse_express", None),
    ("cli", "Report.render", "cli.render", None),
    ("cli", "cmd_check", "cli.check", None),
    ("cli", "cmd_invariants", "cli.invariants", None),
    ("cli", "cmd_multiplier", "cli.multiplier", None),
    ("cli", "cmd_bounds", "cli.bounds", None),
    ("cli", "cmd_verify", "cli.verify", None),
    ("cli", "cmd_free", "cli.free", None),
    ("cli", "cmd_identity", "cli.identity", None),
]


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


# per-layer metric -> (unit, better, how it is read off a recorder)
PER_LAYER = {
    "catalog.builtin_s": ("s", "lower", lambda r: r.self_s("catalog.builtin")),
    "catalog.builtin_incl_s": ("s", "lower", lambda r: r.inclusive_s("catalog.builtin")),
    "catalog.parse_s": ("s", "lower", lambda r: r.self_s("catalog.parse")),
    "superalg.validate_s": ("s", "lower", lambda r: r.inclusive_s("superalg.validate")),
    "superalg.lower_central_series_s": (
        "s", "lower", lambda r: r.inclusive_s("superalg.lower_central_series")),
    "superalg.center_s": ("s", "lower", lambda r: r.inclusive_s("superalg.center")),
    "superalg.product_space_s": ("s", "lower", lambda r: r.inclusive_s("superalg.product_space")),
    "superalg.quotient_s": ("s", "lower", lambda r: r.inclusive_s("superalg.quotient")),
    "superalg.bracket_calls": ("count", "lower", lambda r: r.calls("superalg.bracket")),
    "superalg.bracket_s": ("s", "lower", lambda r: r.inclusive_s("superalg.bracket")),
    "freenilp.eval_hom_s": ("s", "lower", lambda r: r.inclusive_s("freenilp.eval_hom")),
    "freenilp.assemble_s": ("s", "lower", lambda r: r.inclusive_s("freenilp.assemble")),
    "freenilp.build_s": ("s", "lower", lambda r: r.inclusive_s("freenilp.build")),
    "freenilp.free_dim": ("count", "lower", lambda r: r.counters.get("freenilp.free_dim", 0)),
    "freenilp.word_accept_ratio": ("ratio", "higher", lambda r: _ratio(
        r.counters.get("freenilp.free_dim", 0), r.counters.get("freenilp.words_tried", 0))),
    "freenilp.identity_s": ("s", "lower", lambda r: r.inclusive_s("freenilp.identity")),
    "multiplier.present_s": ("s", "lower", lambda r: r.inclusive_s("multiplier.present")),
    "multiplier.hopf_s": ("s", "lower", lambda r: r.self_s("multiplier.hopf")),
    "multiplier.hopf_incl_s": ("s", "lower", lambda r: r.inclusive_s("multiplier.hopf")),
    "multiplier.cohomology_s": ("s", "lower", lambda r: r.inclusive_s("multiplier.cohomology")),
    "multiplier.identities_s": ("s", "lower", lambda r: r.inclusive_s("multiplier.identities")),
    "multiplier.bracket_kernel_s": (
        "s", "lower", lambda r: r.inclusive_s("multiplier.bracket_kernel")),
    "multiplier.witness_s": ("s", "lower", lambda r: r.inclusive_s("multiplier.witness")),
    "bounds.check_bound_s": ("s", "lower", lambda r: r.self_s("bounds.check_bound")),
    "exactla.rref_calls": ("count", "lower", lambda r: r.calls("exactla.rref")),
    "exactla.rref_cells": ("count", "lower", lambda r: r.counters.get("exactla.rref_cells", 0)),
    "exactla.rref_s": ("s", "lower", lambda r: r.inclusive_s("exactla.rref")),
    "exactla.mul_vec_calls": ("count", "lower", lambda r: r.calls("exactla.mul_vec")),
    "exactla.mul_vec_s": ("s", "lower", lambda r: r.inclusive_s("exactla.mul_vec")),
    "exactla.sparse_insert_calls": (
        "count", "lower", lambda r: r.calls("exactla.sparse_insert")),
    "exactla.sparse_accept_ratio": ("ratio", "higher", lambda r: _ratio(
        r.counters.get("exactla.sparse_accepted", 0), r.calls("exactla.sparse_insert"))),
    "exactla.sparse_s": ("s", "lower", lambda r: r.inclusive_s("exactla.sparse_insert")
                         + r.inclusive_s("exactla.sparse_express")),
    "cli.render_s": ("s", "lower", lambda r: r.inclusive_s("cli.render")),
    "cli.check_s": ("s", "lower", lambda r: r.inclusive_s("cli.check")),
    "cli.invariants_s": ("s", "lower", lambda r: r.inclusive_s("cli.invariants")),
    "cli.multiplier_s": ("s", "lower", lambda r: r.inclusive_s("cli.multiplier")),
    "cli.bounds_s": ("s", "lower", lambda r: r.inclusive_s("cli.bounds")),
    "cli.verify_s": ("s", "lower", lambda r: r.inclusive_s("cli.verify")),
    "cli.free_s": ("s", "lower", lambda r: r.inclusive_s("cli.free")),
    "cli.identity_s": ("s", "lower", lambda r: r.inclusive_s("cli.identity")),
}


def layer_metrics(rec: Recorder, time_scale: float = 1.0) -> dict[str, float]:
    """Every per-layer metric; times in seconds are multiplied by time_scale."""
    return {
        name: float(read(rec)) * (time_scale if unit == "s" else 1.0)
        for name, (unit, _, read) in PER_LAYER.items()
    }


def _wrap(fn, name, rec, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit()
        if hook is not None:
            hook(rec, args, result)
        return result

    return traced


@contextlib.contextmanager
def instrument(rec: Recorder):
    """Trace every TARGETS entry into `rec` while the block runs."""
    package = [m for n, m in list(sys.modules.items()) if n == "superschur" or n.startswith("superschur.")]
    undo = []
    try:
        for module, attr, name, hook in TARGETS:
            mod = sys.modules[f"superschur.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                undo.append((cls, meth, orig))
                setattr(cls, meth, _wrap(orig, name, rec, hook))
                continue
            orig = getattr(mod, attr)
            traced = _wrap(orig, name, rec, hook)
            for m in package:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        undo.append((m, key, orig))
                        setattr(m, key, traced)
        yield rec
    finally:
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)
