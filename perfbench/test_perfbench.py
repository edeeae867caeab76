"""Tests of the benchmark itself: inputs, reference checks, span arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corespeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from superschur import exactla, multiplier, superalg  # noqa: E402

REFERENCE = workloads.load_reference()


class WallClock:
    """Stands in for corespeed.CoreSpeed without rescaling."""

    @staticmethod
    def scaled(start, seconds):
        return seconds


SPEED = WallClock()


@pytest.mark.parametrize("name", ["hopf-ladder", "large-algebras"])
def test_generator_is_deterministic_per_seed(name):
    w = workloads.WORKLOADS[name]
    assert w.catalog_text(5) == w.catalog_text(5)
    assert w.catalog_text(5) != w.catalog_text(6)


def test_catalog_tour_uses_the_shipped_catalog():
    assert workloads.WORKLOADS["catalog-tour"].catalog_text(5) is None


def _run_checked(name, op, seed, tmp_path, algebra=None):
    w = workloads.WORKLOADS[name]
    catalog = tmp_path / "catalog.txt"
    catalog.write_text(w.catalog_text(seed), encoding="utf-8")
    argv = [str(catalog) if a == workloads.CATALOG else a for a in dict(w.ops)[op]]
    expected = REFERENCE[name][op]
    if algebra is not None:
        argv += ["--algebra", algebra]
        expected = [r for r in expected if r["algebra"] == algebra]
    return workloads.check_op(op, expected, workloads.run_op(argv, cap_s=120))


@pytest.mark.parametrize("seed", [1, 7])
def test_reference_values_hold_across_seeds(seed, tmp_path):
    assert _run_checked("hopf-ladder", "multiplier", seed, tmp_path, algebra="sh(0|4)") == []
    assert _run_checked("large-algebras", "check", seed, tmp_path) == []
    assert _run_checked("large-algebras", "multiplier", seed, tmp_path) == []
    assert _run_checked("large-algebras", "invariants", seed, tmp_path, algebra="free(0|3,c4)") == []


def test_corrupted_reference_value_counts_as_failure():
    reference = json.loads(json.dumps(REFERENCE["large-algebras"]))
    reference["identity"] = [r for r in reference["identity"] if r["arity"] == 3]
    w = workloads.Workload("t", (("identity", ("identity", "--arity-max", "3")),))
    assert workloads.run_pass(w, reference, "-", traced=False, late=float("inf"), speed=SPEED)["failures"] == []
    reference["identity"][0]["nonzero_residuals"] = 1
    failures = workloads.run_pass(w, reference, "-", traced=False, late=float("inf"), speed=SPEED)["failures"]
    assert failures == ["identity: 3: nonzero_residuals = 0, expected 1"]


def test_exit_code_crash_and_cap_count_as_failures():
    ok = workloads.run_op(["identity", "--arity-max", "3"], cap_s=60)
    expected = REFERENCE["large-algebras"]["identity"][:1]
    assert workloads.check_op("identity", expected, ok) == []
    assert workloads.check_op("identity", expected, workloads.run_op(["identity", "--arity-max", "2"], 60))
    assert workloads.check_op("identity", expected, workloads.run_op(["free", "--even", "2", "--odd", "1", "--class", "6"], 0.05)) == [
        "ran past the 0.05 s cap"
    ]
    crashed = workloads.OpResult(0.0, 0.1, None, "", "ZeroDivisionError: division by zero")
    assert workloads.check_op("identity", expected, crashed) == ["ZeroDivisionError: division by zero"]


def test_renamed_report_key_still_matches():
    want = {"witness_tensors_checked": 3}
    assert workloads.reference_record("verify", {"witness_tensores_checked": 3}) == want
    assert workloads.reference_record("verify", {"witness_tensors_checked": 3}) == want


def test_self_time_on_a_synthetic_span_tree():
    ticks = iter([0, 1, 2, 4, 5, 7, 8, 10])
    rec = spans.Recorder(clock=lambda: next(ticks))
    rec.enter("a")          # 0
    rec.enter("b")          # 1
    rec.enter("a")          # 2  a re-entered inside b
    rec.exit()              # 4  inner a: 2
    rec.exit()              # 5  b: 4, of which 2 in inner a
    rec.enter("c")          # 7
    rec.exit()              # 8  c: 1
    rec.exit()              # 10 outer a: 10, of which 4 in b and 1 in c
    assert rec.spans["a"] == [2, 10, 2 + 5]  # inclusive counts the outer a only
    assert rec.spans["b"] == [1, 4, 2]
    assert rec.spans["c"] == [1, 1, 1]
    assert rec.stack == []


def test_core_speed_rescales_by_the_kernel_time_during_the_interval():
    speed = corespeed.CoreSpeed()
    ref = corespeed.REFERENCE_S
    speed.samples = [(1.0, ref), (2.0, 2 * ref), (3.0, 4 * ref), (4.0, 2 * ref)]
    assert speed.scaled(1.5, 1.0) == pytest.approx(0.5)  # only the 2.0 sample
    assert speed.scaled(1.5, 2.0) == pytest.approx(2.0 / 3)  # 2.0 and 3.0
    assert speed.scaled(0.9, 0.01) == pytest.approx(0.01)  # nearest: 1.0


def test_instrument_counts_calls_and_restores_every_binding():
    originals = (exactla.rref, multiplier.rref, superalg.LieSuperalgebra.bracket)
    rec = spans.Recorder()
    with spans.instrument(rec):
        assert multiplier.rref is exactla.rref is not originals[0]
        L = workloads.hopf_ladder_algebras(0)[0]
        multiplier.schur_multiplier_hopf(L)
    assert (exactla.rref, multiplier.rref, superalg.LieSuperalgebra.bracket) == originals
    layers = spans.layer_metrics(rec)
    assert layers["exactla.rref_calls"] > 0 and layers["superalg.bracket_calls"] > 0
    assert layers["freenilp.eval_hom_s"] <= layers["multiplier.present_s"] <= layers["multiplier.hopf_incl_s"]


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(spans.PER_LAYER) + list(run.TRACE_EXTRA)
    units = {**run.END_TO_END, **run.TRACE_EXTRA, **{k: v[0] for k, v in spans.PER_LAYER.items()}}
    assert all(m["unit"] == units[m["name"]] for m in spec["end_to_end"] + spec["per_layer"])
