import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superschur.catalog import (
    abelian,
    builtin_algebras,
    filiform4,
    heisenberg3,
    special_heisenberg_odd,
)
from superschur.exactla import Subspace, axpy
from superschur.freenilp import evaluate_word, left_normed_word, right_normed_word
from superschur.multiplier import present
from superschur.superalg import (
    EVEN,
    ODD,
    AlgebraError,
    LieSuperalgebra,
    SuperDim,
    change_basis,
    direct_sum,
    graded_sign,
)
from support import (
    basis_changed,
    canonical_table,
    dense_rank,
    reference_validation,
    relations_subspace,
    sparse,
)

F = Fraction


def unit(i: int) -> dict:
    return {i: F(1)}


def sh01():
    return special_heisenberg_odd(1)


def _block_rank(rows, keys) -> int:
    return dense_rank([[v.get(k, 0) for k in keys] for v in rows])


def _assert_graded(L, S):
    """S's rows are homogeneous with the even rows first, and `superdim`
    equals the ranks of the rows' even and odd parts, counted block by block."""
    parities = [L.parity_of(row) for row in S.rows]  # raises on a mixed row
    assert parities == sorted(parities)
    even = _block_rank(S.rows, range(L.n_even))
    odd = _block_rank(S.rows, range(L.n_even, L.dim))
    assert L.superdim(S) == SuperDim(even, odd)
    assert even + odd == S.dim


class TestGradedSign:
    @pytest.mark.parametrize("p, q, want", [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, -1)])
    def test_is_the_int_sign(self, p, q, want):
        # an int, so that the free associative layer's coefficients stay ints
        sign = graded_sign(p, q)
        assert type(sign) is int and sign == want


class TestGradedSubspace:
    @given(st.integers(0, 3), st.integers(0, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_graded_span_rows_are_homogeneous_even_first(self, m, n, data):
        coords = st.lists(st.integers(-2, 2), min_size=m + n, max_size=m + n)
        vecs = data.draw(st.lists(coords, max_size=5))
        L = abelian(m, n)
        S = L.graded_span(map(sparse, vecs))
        _assert_graded(L, S)
        parts = [dict(enumerate(v)) for v in vecs]
        assert L.superdim(S) == SuperDim(
            _block_rank(parts, range(m)), _block_rank(parts, range(m, m + n))
        )
        for v in vecs:
            assert all(S.contains(part) for part in L.split(sparse(v)))


class TestInputGuards:
    @pytest.mark.parametrize(
        "labels, parities, message",
        [
            (["e1", "e2"], [EVEN], "basis labels and parities differ in length"),
            (["e1", "e2"], [EVEN, 2], "parities must be 0 (even) or 1 (odd)"),
            (["e1", "e1"], [EVEN, ODD], "duplicate basis labels"),
        ],
    )
    def test_constructor_refuses(self, labels, parities, message):
        with pytest.raises(AlgebraError) as err:
            LieSuperalgebra("bad", labels, parities, {})
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "perm, scales, message",
        [
            ((0, 0, 2), (1, 1, 1), "not a permutation"),
            ((1, 0, 2), (1, 0, 1), "zero scale"),
            ((0, 2, 1), (1, 1, 1), "permutation must preserve parity"),
        ],
    )
    def test_change_basis_refuses(self, perm, scales, message):
        L = LieSuperalgebra("m", ["e1", "e2", "f1"], [EVEN, EVEN, ODD], {})
        with pytest.raises(AlgebraError) as err:
            change_basis(L, perm, scales)
        assert str(err.value) == message

    def test_series_index_starts_at_1(self):
        with pytest.raises(AlgebraError) as err:
            heisenberg3().gamma(0)
        assert str(err.value) == "series index starts at 1"

    def test_parity_of_a_mixed_vector(self):
        with pytest.raises(AlgebraError) as err:
            sh01().parity_of({0: F(1), 1: F(1)})
        assert str(err.value) == "vector is not homogeneous"

    def test_index_of_an_unknown_label(self):
        with pytest.raises(AlgebraError) as err:
            heisenberg3().index_of("zz")
        assert str(err.value) == "unknown basis label 'zz' in heis3"

    def test_validate_flags_a_target_out_of_range(self):
        bad = LieSuperalgebra("bad", ["e1", "e2", "e3"], [EVEN] * 3, {(0, 1): [(3, 1)]})
        report = bad.validate()
        assert report.malformed == ["bracket [e1,e2] targets index 3 out of range"]
        assert report.violations == []


class TestValidate:
    def test_heis3_is_valid(self):
        assert heisenberg3().validate().ok

    def test_redundant_inconsistent_entries_flag_skew(self):
        bad = LieSuperalgebra(
            "bad",
            ["e1", "e2", "e3"],
            [EVEN] * 3,
            {(0, 1): [(2, 1)], (1, 0): [(2, 1)]},
        )
        report = bad.validate()
        assert not report.ok
        assert any("skew" in v for v in report.violations)

    def test_sh01_valid(self):
        # hand-check: only nontrivial triple is (f,f,f); its residual is a
        # multiple of [z,f] = 0, and the even-even and mixed triples are
        # trivially zero.
        assert sh01().validate().ok

    def test_wrong_parity_target_is_malformed(self):
        bad = LieSuperalgebra(
            "bad", ["e1", "f1"], [EVEN, ODD], {(0, 0): [(1, 1)]}
        )
        report = bad.validate()
        assert report.malformed and not report.ok

    def test_index_out_of_range_is_malformed(self):
        bad = LieSuperalgebra("bad", ["e1"], [EVEN], {(0, 5): [(0, 1)]})
        report = bad.validate()
        assert any("out of range" in m for m in report.malformed)

    def test_jacobi_violation_reported_with_triple(self):
        bad = LieSuperalgebra(
            "bad",
            ["e1", "e2", "e3", "e4"],
            [EVEN] * 4,
            {(0, 1): [(2, 1)], (0, 2): [(0, 1)]},
        )
        report = bad.validate()
        assert any("Jacobi" in v for v in report.violations)
        # every failing triple is named, in order
        assert (report.malformed, report.violations) == reference_validation(bad)

    def test_even_diagonal_must_vanish(self):
        bad = LieSuperalgebra("bad", ["e1", "e2"], [EVEN] * 2, {(0, 0): [(1, 1)]})
        assert not bad.validate().ok

    def test_odd_before_even_rejected(self):
        with pytest.raises(AlgebraError):
            LieSuperalgebra("bad", ["f1", "e1"], [ODD, EVEN], {})


class TestBracket:
    def test_table_entry(self):
        h = heisenberg3()
        assert h.bracket(unit(0), unit(1)) == unit(2)

    def test_skew_completion_even(self):
        h = heisenberg3()
        assert h.bracket(unit(1), unit(0)) == {2: F(-1)}

    def test_odd_odd_symmetric(self):
        a = sh01()
        f = unit(1)
        assert a.bracket(f, f) == unit(0)
        # [f, f] = +[f, f] is consistent precisely because of the odd-odd sign
        assert a.bracket(f, f) == a.bracket(f, f)

    def test_bilinearity(self):
        h = heisenberg3()
        x = sparse([F(2), F(3), F(0)])
        y = sparse([F(1, 2), F(1), F(5)])
        lhs = h.bracket(x, y)
        assert lhs == {2: 2 * F(1) - 3 * F(1, 2)}

    @pytest.mark.parametrize("L", [heisenberg3(), special_heisenberg_odd(2)], ids=lambda L: L.name)
    def test_int_list_and_fraction_tuple_agree(self, L):
        rng = random.Random(3)
        for _ in range(10):
            x = sparse([rng.randint(-3, 3) for _ in range(L.dim)])
            y = sparse([rng.randint(-3, 3) for _ in range(L.dim)])
            z = L.bracket(x, y)
            assert z == L.bracket(
                {k: F(c) for k, c in x.items()}, {k: F(c) for k, c in y.items()}
            )
            assert all(type(c) is F and c for c in z.values())
        # random Fraction vectors, many entries zero: the sparse loop and a
        # dense sum over all basis pairs agree
        for _ in range(10):
            x, y = (
                [F(rng.choice([0, 0, 1, -2, 3]), rng.choice([1, 2, 3])) for _ in range(L.dim)]
                for _ in range(2)
            )
            expect = [F(0)] * L.dim
            for i in range(L.dim):
                for j in range(L.dim):
                    for k, c in L.bracket_basis(i, j).items():
                        expect[k] += x[i] * y[j] * c
            assert L.bracket(sparse(x), sparse(y)) == sparse(expect)


class TestSeries:
    def test_heis3(self):
        h = heisenberg3()
        chain = h.lower_central_series()
        assert [h.superdim(gs) for gs in chain] == [SuperDim(3, 0), SuperDim(1, 0), SuperDim(0, 0)]
        assert chain[1].rows == (unit(2),)
        assert h.nilpotency_class() == 2

    def test_abelian(self):
        a = abelian(2, 1)
        chain = a.lower_central_series()
        assert [a.superdim(gs) for gs in chain] == [SuperDim(2, 1), SuperDim(0, 0)]
        assert a.nilpotency_class() == 1

    def test_filiform4_closure(self):
        f = filiform4()
        chain = f.lower_central_series()
        assert [f.superdim(gs) for gs in chain] == [
            SuperDim(4, 0),
            SuperDim(2, 0),
            SuperDim(1, 0),
            SuperDim(0, 0),
        ]
        assert chain[1] == Subspace.span([unit(2), unit(3)], 4)
        assert chain[2].rows == (unit(3),)
        assert f.nilpotency_class() == 3

    def test_non_nilpotent_flagged(self):
        # [e1, e2] = e2 keeps reproducing e2: the chain stabilizes nonzero
        solvable = LieSuperalgebra(
            "aff", ["e1", "e2"], [EVEN] * 2, {(0, 1): [(1, 1)]}
        )
        assert solvable.validate().ok
        assert not solvable.is_nilpotent()
        with pytest.raises(AlgebraError, match="not nilpotent"):
            solvable.nilpotency_class()

    @pytest.mark.parametrize(
        "L",
        [L for base in builtin_algebras() for L in (base, basis_changed(base, 3))],
        ids=lambda L: L.name,
    )
    def test_series_center_relations_and_free_filtration_are_graded(self, L):
        for S in L.lower_central_series() + [L.center()]:
            _assert_graded(L, S)
        if L.dim and L.is_nilpotent():
            p = present(L)
            assert all(p.fbar.algebra.is_homogeneous(r) for r in p.relation_rows), L.name
            _assert_graded(p.fbar.algebra, relations_subspace(p))
            for d in range(1, p.fbar.spec.class_bound + 2):
                _assert_graded(p.fbar.algebra, p.fbar.gamma(d))

    def test_graded_quotient_dims_sum_to_total(self):
        for L in (heisenberg3(), filiform4(), sh01(), special_heisenberg_odd(2)):
            chain = L.lower_central_series()
            steps = [
                chain[i].dim - chain[i + 1].dim
                for i in range(len(chain) - 1)
            ]
            assert sum(steps) == L.dim


class TestCenter:
    def test_heis3(self):
        h = heisenberg3()
        z = h.center()
        assert z.rows == (unit(2),)
        assert h.superdim(z).odd == 0

    def test_abelian(self):
        a = abelian(2, 2)
        assert a.center() == Subspace.full(a.dim)

    def test_sh01(self):
        # solve [v, f] = 0 and [v, z] = 0 by hand: v = z
        L = sh01()
        z = L.center()
        assert L.superdim(z) == SuperDim(1, 0)
        assert z.rows == (unit(0),)

    @pytest.mark.parametrize(
        "L",
        [L for base in builtin_algebras() for L in (base, basis_changed(base, 11))],
        ids=lambda L: L.name,
    )
    def test_superdim_reads_pivots_without_reduced_rows(self, L):
        # `cli` reads only superdim(center): no reduced row is made for it,
        # and the pivots it reads are those of the rows made later
        z = L.center()
        got = L.superdim(z), z.dim, z.pivots, z.non_pivots
        assert "rows" not in vars(z)
        want = Subspace(L.dim, z.rows)
        assert got == (L.superdim(want), want.dim, want.pivots, want.non_pivots)
        assert z == want and hash(z) == hash(want)

    @pytest.mark.parametrize(
        "L",
        [L for base in builtin_algebras() for L in (base, basis_changed(base, 11))],
        ids=lambda L: L.name,
    )
    def test_members_commute_and_dimension_is_corank_of_ad(self, L):
        z = L.center()
        for v in z.rows:
            for j in range(L.dim):
                assert not L.bracket(v, unit(j))
        # rows (j, t), columns i: the stacked matrices of ad(b_j)
        ad = [
            [L.bracket_basis(i, j).get(t, 0) for i in range(L.dim)]
            for j in range(L.dim)
            for t in range(L.dim)
        ]
        assert z.dim == L.dim - dense_rank(ad)


class TestQuotient:
    def test_heis3_mod_center(self):
        h = heisenberg3()
        q = h.quotient(h.gamma(2))
        assert q.sdim == SuperDim(2, 0)
        assert q.basis_labels == ("e1", "e2")
        assert canonical_table(q) == {}

    def test_mod_self_is_zero(self):
        h = heisenberg3()
        q = h.quotient(Subspace.full(h.dim))
        assert q.dim == 0

    def test_filiform4_mod_gamma3_is_heis3(self):
        f = filiform4()
        q = f.quotient(f.gamma(3))
        assert q.sdim == SuperDim(3, 0)
        assert canonical_table(q) == {(0, 1): {2: F(1)}}

    def test_non_ideal_rejected_with_witness(self):
        h = heisenberg3()
        line = h.graded_span([unit(0)])  # [e1, e2] = e3 escapes
        with pytest.raises(AlgebraError, match="escapes"):
            h.quotient(line)
        with pytest.raises(AlgebraError) as err:
            h.quotient(h.graded_span([sparse([2, 0, 1])]))
        assert str(err.value) == (
            "not an ideal of heis3: [e1 + 1/2*e3, e2] escapes the subspace"
        )
        L = sh01()
        with pytest.raises(AlgebraError) as err:
            L.quotient(Subspace.span([sparse([1, 1])], L.dim))
        assert str(err.value) == "not an ideal of sh(0|1): z + f1 is not homogeneous"

    def test_projection_is_a_homomorphism(self, monkeypatch):
        # every quotient the package builds: the catalog's free (2|1)
        # quotients, and L/gamma_c and L/gamma_2 of every shipped algebra of
        # class >= 2 and of a change_basis copy of it
        built = []
        quotient = LieSuperalgebra.quotient

        def record(L, ideal, name=None):
            q = quotient(L, ideal, name)
            built.append((L, ideal, q))
            return q

        monkeypatch.setattr(LieSuperalgebra, "quotient", record)
        shipped = builtin_algebras()
        assert len(built) == 4
        deep = [L for L in shipped if L.is_nilpotent() and L.nilpotency_class() >= 2]
        for seed, L in enumerate(deep):
            for M in (L, basis_changed(L, seed)):
                M.quotient(M.gamma(M.nilpotency_class()))
                M.quotient(M.gamma(2))
        assert len(deep) == 10 and len(built) == 4 + 4 * len(deep)

        def project(cols, v):
            """The image of the sparse v under the map with these columns."""
            acc: dict = {}
            for k, c in v.items():
                axpy(acc, c, cols[k])
            return acc

        for L, ideal, q in built:
            # column s is b_s reduced by the ideal, at the complement coordinates
            pos = {s: t for t, s in enumerate(ideal.non_pivots)}
            proj = [
                {pos[k]: c for k, c in ideal.reduce(unit(s)).items()} for s in range(L.dim)
            ]
            assert all(not project(proj, v) for v in ideal.rows)
            assert q.dim == L.dim - ideal.dim
            e = [unit(i) for i in range(L.dim)]
            im = [project(proj, v) for v in e]
            for i in range(L.dim):
                assert q.parity_of(im[i]) == L.parities[i] or not im[i]
                for j in range(L.dim):
                    assert project(proj, L.bracket(e[i], e[j])) == q.bracket(im[i], im[j]), (
                        f"{L.name} -> {q.name} at ({L.label_of(i)},{L.label_of(j)})"
                    )


class TestGenerators:
    def test_heis3(self):
        assert heisenberg3().minimal_generator_dims() == SuperDim(2, 0)

    def test_sh01(self):
        assert sh01().minimal_generator_dims() == SuperDim(0, 1)

    def test_abelian(self):
        assert abelian(3, 2).minimal_generator_dims() == SuperDim(3, 2)

    def test_lifts_generate_by_closure(self):
        for L in (heisenberg3(), filiform4(), sh01(), special_heisenberg_odd(2)):
            lifts = [unit(t) for t in L.generator_lift_indices()]
            assert len(lifts) == L.minimal_generator_dims().total >= 1
            span = L.graded_span(lifts)
            while True:
                grown = L.graded_span(
                    list(span.rows)
                    + [
                        L.bracket(x, y)
                        for x in span.rows
                        for y in span.rows
                    ]
                )
                if grown == span:
                    break
                span = grown
            assert span == Subspace.full(L.dim)


class TestDirectSum:
    def test_block_table(self):
        s = direct_sum(heisenberg3(), abelian(1, 0, labels=["e4"]))
        assert s.sdim == SuperDim(4, 0)
        assert s.bracket(unit(0), unit(1)) == unit(2)
        assert s.bracket(unit(3), unit(0)) == {}

    def test_series_is_blockwise(self):
        a, b = heisenberg3(), special_heisenberg_odd(1)
        s = direct_sum(a, b)
        ca, cb, cs = (
            a.lower_central_series(),
            b.lower_central_series(),
            s.lower_central_series(),
        )
        depth = max(len(ca), len(cb))
        for i in range(depth):
            ga = a.superdim(ca[min(i, len(ca) - 1)])
            gb = b.superdim(cb[min(i, len(cb) - 1)])
            gs = s.superdim(cs[min(i, len(cs) - 1)])
            assert gs == SuperDim(ga.even + gb.even, ga.odd + gb.odd)

    def test_mixed_parities_reordered(self):
        s = direct_sum(special_heisenberg_odd(1), heisenberg3())
        assert s.parities == (EVEN, EVEN, EVEN, EVEN, ODD)
        assert s.validate().ok


class TestBasisInvariance:
    def test_permute_and_rescale_preserve_invariants(self):
        rng = random.Random(7)
        for L in (heisenberg3(), filiform4(), special_heisenberg_odd(2)):
            base = (
                [L.superdim(gs) for gs in L.lower_central_series()],
                L.superdim(L.center()),
                L.minimal_generator_dims(),
            )
            for _ in range(5):
                ev = list(range(L.n_even))
                od = list(range(L.n_even, L.dim))
                rng.shuffle(ev)
                rng.shuffle(od)
                perm = ev + od
                scales = [F(rng.choice([1, 2, 3, -1, -2])) for _ in range(L.dim)]
                moved = change_basis(L, perm, scales)
                assert moved.validate().ok
                assert [moved.superdim(gs) for gs in moved.lower_central_series()] == base[0]
                assert moved.superdim(moved.center()) == base[1]
                assert moved.minimal_generator_dims() == base[2]


class TestNormedBrackets:
    def test_left_normed_base_case(self):
        h = heisenberg3()
        e1, e2 = unit(0), unit(1)
        assert evaluate_word(h, left_normed_word([0, 1]), [e1, e2], {}) == h.bracket(e1, e2)

    def test_left_normed_three(self):
        f = filiform4()
        e1, e2, e3 = (unit(i) for i in range(3))
        assert evaluate_word(f, left_normed_word([0, 1, 2]), [e1, e2, e3], {}) == f.bracket(
            f.bracket(e1, e2), e3
        )

    def test_right_normed_three(self):
        f = filiform4()
        e1, e2, e3 = (unit(i) for i in range(3))
        assert evaluate_word(f, right_normed_word([0, 1, 2]), [e1, e2, e3], {}) == f.bracket(
            e1, f.bracket(e2, e3)
        )
