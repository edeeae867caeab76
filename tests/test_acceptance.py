"""Acceptance suite: every criterion is exact arithmetic, desk scale.

Each test prints one PASS/FAIL line so a plain `pytest -v -s
tests/test_acceptance.py` doubles as the acceptance report.
"""

import functools
import itertools
import json
import sys

import pytest

from superschur.bounds import (
    BoundInput,
    check_bound,
    extract_input,
    main_bound,
    main_bound_penultimate,
    nayak_bound,
    rai_bound,
)
from superschur.catalog import (
    abelian,
    builtin_algebras,
    heisenberg3,
    parse_catalog,
    relabel_canonical,
    render_catalog,
)
from superschur.cli import main
from superschur.exactla import SparseEchelon
from superschur.freenilp import (
    GeneratorSpec,
    build_free_nilpotent,
    hilbert_check,
    rewrite_identity_residual,
)
from superschur.multiplier import (
    bracket_map_kernel_dim,
    witness_tuple_positions,
    witness_tensor,
    present,
    schur_multiplier_cohomology,
    schur_multiplier_hopf,
    verify_top_step_identity,
    verify_telescoped_identity,
)
from superschur.superalg import SuperDim
from support import basis_changed, canonical_table, random_quotients


def _report(num, desc):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} FAIL: {desc}", file=sys.__stdout__)
                raise
            # sys.__stdout__ keeps the line visible under pytest capture
            print(f"ACCEPTANCE {num} PASS: {desc}", file=sys.__stdout__)

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def catalog():
    return builtin_algebras()


@pytest.fixture(scope="module")
def nilpotent_catalog(catalog):
    return [a for a in catalog if a.is_nilpotent()]


@pytest.fixture(scope="module")
def quotient_pairs():
    """The 50 random quotients, each with its seeded change_basis copy."""
    return [(L, basis_changed(L, t)) for t, L in enumerate(random_quotients(50))]


@_report(1, "abelian closed form, 25 exact cases")
def test_criterion_1_abelian_closed_form():
    for m in range(5):
        for n in range(5):
            got = schur_multiplier_hopf(abelian(m, n)).dims
            want = SuperDim((m * m + n * n + n - m) // 2, m * n)
            assert got == want, (m, n, got, want)


@_report(2, "hopf and cohomology agree on catalog + 50 random quotients and their copies")
def test_criterion_2_oracle_agreement(nilpotent_catalog, quotient_pairs):
    for L in nilpotent_catalog + [M for pair in quotient_pairs for M in pair]:
        h = schur_multiplier_hopf(L).dims
        c = schur_multiplier_cohomology(L).dims
        assert h == c, (L.name, h, c)


@_report(3, "bracket identity residuals vanish for i in {3,4,5}, all parities")
def test_criterion_3_bracket_identity():
    for i in (3, 4, 5):
        for parities in itertools.product((0, 1), repeat=i + 1):
            assert rewrite_identity_residual(i, parities) == {}, (i, parities)


@_report(4, "dimension identities and kernel lower bounds exact on catalog")
def test_criterion_4_identity_suite(nilpotent_catalog):
    covered = 0
    for L in nilpotent_catalog:
        if L.nilpotency_class() < 2:
            continue
        covered += 1
        r21 = verify_top_step_identity(L)
        assert r21.ok, (L.name, r21.parts)
        r24 = verify_telescoped_identity(L)
        assert r24.ok, (L.name, r24.parts)
        gens = L.minimal_generator_dims().total
        for i in range(2, L.nilpotency_class() + 1):
            kern = bracket_map_kernel_dim(L, i)
            assert kern >= max(gens - i, 0), (L.name, i, kern, gens)
    assert covered >= 5


@_report(5, "main bound sound on catalog; tight on heis3 and heis3+A(1|0); slack on sh(0|1)")
def test_criterion_5_main_theorem_soundness(nilpotent_catalog):
    by_name = {}
    for L in nilpotent_catalog:
        b_in = L.gamma(2).dim
        if b_in == 0:
            continue  # abelian: outside the theorem hypotheses
        rep = check_bound(L)  # raises BoundViolation if any bound is exceeded
        assert rep.actual.total <= rep.main
        by_name[L.name] = rep
    assert by_name["heis3"].actual.total == 2 == by_name["heis3"].main
    sum_rep = by_name["heis3+A(1|0)"]
    assert sum_rep.actual.total == 4 == sum_rep.main
    sh_rep = by_name["sh(0|1)"]
    assert sh_rep.actual.total == 0 and sh_rep.main == 1


@_report(6, "specialization (n=s=0, m<=8) and dominance (m,n<=6) sweeps exact")
def test_criterion_6_specialization_and_dominance():
    for m in range(2, 9):
        for r in range(1, m):
            for c in range(2, m - r + 2):
                assert main_bound(BoundInput(m, 0, r, 0, c)) == rai_bound(m, r, c)
    for m in range(7):
        for n in range(7):
            for r in range(m + 1):
                for s in range(n + 1):
                    if r + s < 1 or m + n - r - s < 2:
                        continue
                    for c in range(2, m + n + 2):
                        b = BoundInput(m, n, r, s, c)
                        assert main_bound(b) <= nayak_bound(m, n, r, s), b


@_report(7, "witness tensors in kernel; independent on heis3+A(1|0) with kernel exactly 1")
def test_criterion_7_witness_tensors(nilpotent_catalog):
    for L in nilpotent_catalog:
        if L.nilpotency_class() < 2:
            continue
        gens = len(present(L).lift_indices)
        for i in range(2, min(L.nilpotency_class(), gens) + 1):
            z_pos, y_pos = witness_tuple_positions(L, i)
            tensors = []
            for y in y_pos:
                w = witness_tensor(L, i, z_pos + (y,))
                assert w.in_kernel, (L.name, i, y)
                assert w.nonzero, (L.name, i, y)
                tensors.append(w.tensor)
            ech = SparseEchelon()
            accepted = sum(ech.insert(t) for t in tensors)
            assert accepted == len(tensors), (L.name, i)
    target = {a.name: a for a in nilpotent_catalog}["heis3+A(1|0)"]
    z_pos, y_pos = witness_tuple_positions(target, 2)
    assert len(y_pos) == 1  # m+n-r-s-i = 3-2
    assert bracket_map_kernel_dim(target, 2) == 1


@_report(8, "counting oracle sweep p+q<=3, k<=5; (0|1) and (2|0) landmark cases")
def test_criterion_8_free_algebra_cross_check():
    for p, q in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]:
        for k in range(1, 6):
            f = build_free_nilpotent(GeneratorSpec(p, q, k))
            assert hilbert_check(f) == [], (p, q, k)
    f01 = build_free_nilpotent(GeneratorSpec(0, 1, 3))
    assert f01.total_dims == SuperDim(1, 1)
    f20 = build_free_nilpotent(GeneratorSpec(2, 0, 2))
    h = heisenberg3()
    assert f20.total_dims == h.sdim
    assert f20.algebra.parities == h.parities
    assert canonical_table(f20.algebra) == canonical_table(h)


@_report(9, "verify green on 50 random quotients and a change_basis copy of each")
def test_criterion_9_verify_random_quotients(quotient_pairs, tmp_path, capsys):
    algebras = []
    for t, (L, moved) in enumerate(quotient_pairs):
        algebras.append(relabel_canonical(L, f"rq{t}"))
        algebras.append(relabel_canonical(moved, f"rq{t}cb"))
    path = tmp_path / "rq.cat"
    path.write_text(render_catalog(algebras))
    code = main(["--format", "json", "verify", str(path)])
    records = json.loads(capsys.readouterr().out)["results"]
    assert [rec["algebra"] for rec in records] == [L.name for L in algebras]
    checked = 0
    for L, rec in zip(algebras, records):
        if rec["status"] == "skipped (class < 2)":
            assert L.nilpotency_class() < 2, L.name
            continue
        checked += 1
        assert rec["top_step_identity_ok"] and rec["telescoped_identity_ok"], rec
        assert rec["kernel_bounds_ok"] and rec["witnesses_ok"], rec
        assert rec["status"] == "ok", rec
        b = extract_input(L)
        assert main_bound(b) == main_bound_penultimate(b), L.name
        check_bound(L)  # raises BoundViolation if any bound is exceeded
    assert code == 0
    assert checked == 76


def _invariants(L):
    return (
        [L.superdim(S) for S in L.lower_central_series()],
        L.superdim(L.center()),
        L.nilpotency_class(),
        L.minimal_generator_dims(),
        schur_multiplier_hopf(L).dims,
    )


@_report(10, "basis-free invariants equal on 50 random quotients and their change_basis copies")
def test_criterion_10_random_quotient_invariants_are_basis_free(quotient_pairs):
    for L, moved in quotient_pairs:
        assert _invariants(moved) == _invariants(L), L.name


@_report(11, "catalog round trip keeps labels, parities and tables of 50 random quotients and copies")
def test_criterion_11_random_quotient_catalog_round_trip(quotient_pairs):
    for t, pair in enumerate(quotient_pairs):
        for L in pair:
            named = relabel_canonical(L, f"rq{t}")
            (back,) = parse_catalog(render_catalog([named]))
            assert back.name == named.name
            assert back.basis_labels == named.basis_labels, L.name
            assert back.parities == L.parities, L.name
            assert canonical_table(back) == canonical_table(L), L.name
