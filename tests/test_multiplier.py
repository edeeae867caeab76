import functools
import itertools
import random
from fractions import Fraction

import pytest

from superschur.catalog import (
    abelian,
    builtin_algebras,
    filiform4,
    heisenberg3,
    special_heisenberg_odd,
)
from superschur.exactla import (
    Subspace,
    axpy,
    complement_rows,
    kernel,
    quotient_dim,
    subspace_intersect,
    subspace_sum,
)
from superschur.freenilp import (
    GeneratorSpec,
    build_free_nilpotent,
    eval_hom,
    expand,
    free_superalgebra_degree_dims,
)
from superschur.multiplier import (
    bracket_quotient_dim,
    bracket_map_residual,
    bracket_map_kernel_dim,
    bracket_with_free,
    witness_tuple_positions,
    witness_tensor,
    present,
    schur_multiplier_cohomology,
    schur_multiplier_hopf,
    verify_top_step_identity,
    verify_telescoped_identity,
    witness_terms,
)
from superschur.superalg import AlgebraError, SuperDim, change_basis, direct_sum
from support import ReferenceEchelon, basis_changed, random_quotients

F = Fraction


@functools.cache
def _free33c3():
    return build_free_nilpotent(GeneratorSpec(3, 3, 3))


@pytest.fixture(scope="module")
def presented():
    """The shipped catalog's nonzero nilpotent algebras and the 50 random
    quotients, each with a seeded change_basis copy."""
    bases = [L for L in builtin_algebras() if L.dim and L.is_nilpotent()]
    bases += [L for L in random_quotients(50) if L.dim]
    return [M for t, L in enumerate(bases) for M in (L, basis_changed(L, t))]


def heis_plus_line():
    return direct_sum(heisenberg3(), abelian(1, 0, labels=["e4"]), name="heis3+A(1|0)")


class TestPresent:
    def test_heis3(self):
        p = present(heisenberg3())
        assert p.fbar.spec == GeneratorSpec(2, 0, 3)
        assert p.fbar.total_dims == SuperDim(5, 0)
        assert p.algebra.superdim(p.relations) == SuperDim(2, 0)
        # R is exactly the degree->=3 filtration step here
        assert p.relations == p.fbar.gamma(3)

    def test_abelian_line(self):
        p = present(abelian(1, 0))
        assert p.fbar.spec == GeneratorSpec(1, 0, 2)
        assert p.relations.dim == 0

    def test_sh01_presented_by_itself(self):
        p = present(special_heisenberg_odd(1))
        assert p.fbar.total_dims == SuperDim(1, 1)
        assert p.relations.dim == 0

    def test_non_nilpotent_rejected(self):
        from superschur.superalg import EVEN, LieSuperalgebra

        solvable = LieSuperalgebra(
            "aff", ["e1", "e2"], [EVEN] * 2, {(0, 1): [(1, 1)]}
        )
        with pytest.raises(AlgebraError, match="not nilpotent"):
            present(solvable)

    def test_truncation_step_inside_relations(self, presented):
        for L in presented:
            p = present(L)
            c = L.nilpotency_class()
            top = p.fbar.gamma(c + 1)
            for v in top.rows:
                assert p.relations.contains(v), L.name

    def test_lift_into_gamma_contract(self, presented):
        # for 2 <= i <= c, a row v of γ_i(L) lifts to a combination of π's
        # columns of degree >= i that sums to v; a row of γ_{i-1} outside
        # γ_i is refused
        for L in presented:
            p = present(L)
            for i in range(2, L.nilpotency_class() + 1):
                for v in L.gamma(i).rows:
                    w = p.lift_into_gamma(v, i)
                    assert all(p.fbar.basis_degree(t) >= i for t in w), L.name
                    image: dict = {}
                    for t, c in w.items():
                        axpy(image, c, p.pi[t])
                    assert image == v, L.name
                for v in L.gamma(i - 1).rows:
                    if not L.gamma(i).contains(v):
                        with pytest.raises(AlgebraError, match="does not lift"):
                            p.lift_into_gamma(v, i)

    def test_lift_is_the_greedy_selections_expression(self, presented):
        # π's columns taken by decreasing degree (a stable sort), each kept
        # when independent of those kept before it: the lift uses only kept
        # columns and is the reference engine's expression over them
        for L in presented:
            p = present(L)
            f = p.fbar
            ref, kept = ReferenceEchelon(), set()
            for idx in sorted(range(f.dim), key=f.basis_degree, reverse=True):
                if ref.insert(p.pi[idx], tag=idx):
                    kept.add(idx)
            for i in range(2, L.nilpotency_class() + 1):
                for v in L.gamma(i).rows:
                    w = p.lift_into_gamma(v, i)
                    assert set(w) <= kept and w == ref.express(v), L.name

    def test_relations_inside_the_derived_algebra(self, presented):
        for L in presented:
            p = present(L)
            assert subspace_intersect(p.relations, p.fbar.gamma(2)) == p.relations, L.name

    def test_non_minimal_generators_leave_relations_outside_the_derived_algebra(self):
        # heis3 generated by e1, e2 and also e3 = [e1, e2]: x3 - [x1, x2]
        # lies in the kernel but not in γ₂(F)
        h = heisenberg3()
        f = build_free_nilpotent(GeneratorSpec(3, 0, 3))
        pi = eval_hom(f, [{0: F(1)}, {1: F(1)}, {2: F(1)}], h)
        R = kernel(pi)
        assert any(not f.gamma(2).contains(r) for r in R.rows)
        assert subspace_intersect(R, f.gamma(2)) != R


class TestHopf:
    def test_abelian_2_1(self):
        assert schur_multiplier_hopf(abelian(2, 1)).dims == SuperDim(2, 2)

    def test_heis3(self):
        # hand computation in the class-3 free algebra on two even
        # generators: R = span of both degree-3 words, [R, F] = 0
        assert schur_multiplier_hopf(heisenberg3()).dims == SuperDim(2, 0)

    def test_sh01(self):
        assert schur_multiplier_hopf(special_heisenberg_odd(1)).dims == SuperDim(0, 0)

    def test_filiform4(self):
        assert schur_multiplier_hopf(filiform4()).dims == SuperDim(2, 0)

    def test_heis_plus_line(self):
        assert schur_multiplier_hopf(heis_plus_line()).dims.total == 4

    def test_zero_algebra(self):
        assert schur_multiplier_hopf(abelian(0, 0)).dims == SuperDim(0, 0)

    def test_witnesses_span_the_quotient(self):
        res = schur_multiplier_hopf(heisenberg3())
        assert res.witnesses is not None
        assert len(res.witnesses) == res.dims.total


class TestCohomology:
    @pytest.mark.parametrize("m", range(4))
    @pytest.mark.parametrize("n", range(4))
    def test_abelian_closed_form(self, m, n):
        got = schur_multiplier_cohomology(abelian(m, n)).dims
        assert got == SuperDim((m * m + n * n + n - m) // 2, m * n)

    def test_heis3(self):
        # 3 graded-skew 2-cochains, all cocycles, one coboundary
        assert schur_multiplier_cohomology(heisenberg3()).dims == SuperDim(2, 0)

    def test_zero_algebra(self):
        assert schur_multiplier_cohomology(abelian(0, 0)).dims == SuperDim(0, 0)


class TestMethodAgreement:
    @pytest.mark.parametrize("name", [a.name for a in builtin_algebras()])
    def test_catalog(self, name):
        L = {a.name: a for a in builtin_algebras()}[name]
        h, c = schur_multiplier_hopf(L), schur_multiplier_cohomology(L)
        assert h.dims == c.dims


class TestFreeMultiplierClosedForm:
    @pytest.mark.parametrize(
        "p,q,c",
        [(1, 0, 2), (0, 1, 3), (2, 0, 3), (1, 1, 3), (1, 1, 4), (0, 2, 3), (0, 2, 4),
         (1, 2, 2), (1, 2, 3), (0, 3, 2), (2, 1, 3), (2, 1, 4)],
    )
    def test_both_routes_give_the_next_free_degree(self, p, q, c):
        """For F = Φ/γ_{c+1}(Φ), Φ free on (p|q), M(F) ≅ γ_{c+1}(Φ)/γ_{c+2}(Φ).

        F = Φ/R with R = γ_{c+1}(Φ) ⊆ Φ², so the Hopf formula gives
        M(F) = (R ∩ Φ²)/[R, Φ] = γ_{c+1}(Φ)/γ_{c+2}(Φ), the degree-(c+1)
        component of Φ, whose graded dimension the counting oracle gives.
        """
        free = build_free_nilpotent(GeneratorSpec(p, q, c)).algebra
        want = free_superalgebra_degree_dims(p, q, c + 1)[c]
        h, co = schur_multiplier_hopf(free), schur_multiplier_cohomology(free)
        assert h.dims == co.dims == want


class TestSpecialHeisenbergClosedForm:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_both_routes(self, n):
        """M(sh(0|n)) = (n(n+1)/2 - 1 | 0), with z even and [f_i, f_j] = δ_ij z.

        Even 2-cochains live on the pairs (f_i, f_j), which are
        graded-symmetric, so there are n(n+1)/2 coordinates.  The only
        nonzero bracket is [f_i, f_i] = z, and an even cochain's c(x, z)
        needs x = z; c(z, z) is forced to 0, so every even cochain is a
        cocycle.  The even coboundaries φ([x, y]) = δ_ij φ(z) span one
        dimension.  Odd cochains live on the pairs (z, f_k).  For k ≠ i
        the cocycle condition on (f_i, f_i, f_k) has the single term
        ±c(f_k, z); for n = 1 the condition on (f_1, f_1, f_1) is
        -3c(f_1, z).  Either way c(f_k, z) = 0, so there is no odd part.
        """
        L = special_heisenberg_odd(n)
        h, co = schur_multiplier_hopf(L), schur_multiplier_cohomology(L)
        assert h.dims == co.dims == SuperDim(n * (n + 1) // 2 - 1, 0)


class TestBracketQuotient:
    def test_heis3_top(self):
        p = present(heisenberg3())
        assert bracket_quotient_dim(p, 2) == 2

    def test_range_check_on_abelian(self):
        p = present(abelian(2, 1))
        with pytest.raises(AlgebraError, match="outside"):
            bracket_quotient_dim(p, 2)

    def test_filiform4_consistent_with_top_identity(self):
        L = filiform4()
        p = present(L)
        t = bracket_quotient_dim(p, 3)
        r = verify_top_step_identity(L)
        assert r.parts["bracket_quotient"] == t
        assert r.ok


class TestLambdaKernel:
    def test_heis3(self):
        assert bracket_map_kernel_dim(heisenberg3(), 2) == 0

    def test_heis_plus_line(self):
        assert bracket_map_kernel_dim(heis_plus_line(), 2) == 1

    def test_sh01(self):
        assert bracket_map_kernel_dim(special_heisenberg_odd(1), 2) == 1

    def test_lower_bound_from_generators(self):
        for L in (heisenberg3(), filiform4(), heis_plus_line(),
                  special_heisenberg_odd(1), special_heisenberg_odd(2)):
            c = L.nilpotency_class()
            gens = L.minimal_generator_dims().total
            for i in range(2, c + 1):
                assert bracket_map_kernel_dim(L, i) >= max(gens - i, 0)

    def test_well_defined_under_lift_perturbation(self):
        # first-leg lifts may move by R, second-leg lifts by gamma_2(F) + R;
        # the image modulo the denominator subspace must not notice
        rng = random.Random(11)
        L = heis_plus_line()
        p = present(L)
        c = L.nilpotency_class()
        rows = complement_rows(L.gamma(c), L.gamma(c + 1))
        tensor = {(0, 2): F(1)}
        base = bracket_map_residual(p, c, tensor, rows)
        A = p.algebra
        den = p.bracket_ideal(c + 1)
        y_freedom = subspace_sum(p.fbar.gamma(2), p.relations)

        def perturb(v, freedom):
            out = dict(v)
            for member in freedom.rows:
                axpy(out, rng.randint(-2, 2), member)
            return out

        for _ in range(5):
            w_u = perturb(p.lift_into_gamma(rows[0], c), p.relations)
            w_y = perturb({p.fbar.generator_basis_index(2): F(1)}, y_freedom)
            moved = den.reduce(A.bracket(w_u, w_y))
            assert moved == base


class TestWitnessTensor:
    def test_heis_plus_line_proof_tuple(self):
        L = heis_plus_line()
        # generators are e1, e2, e4; witness on (e1, e2, e4)
        w = witness_tensor(L, 2, (0, 1, 2))
        assert w.tensor == {(0, 2): F(1)}  # e3 (x) class of e4
        assert w.nonzero and w.in_kernel

    def test_heis3_repeated_generator_collapses(self):
        w = witness_tensor(heisenberg3(), 2, (0, 1, 0))
        assert w.tensor == {}  # the signed terms cancel exactly
        assert w.in_kernel

    def test_abelian_has_no_valid_index(self):
        with pytest.raises(AlgebraError, match="outside"):
            witness_tensor(abelian(2, 0), 2, (0, 0, 0))

    @pytest.mark.parametrize("bad", [3, -1])
    def test_rejects_positions_out_of_range(self, bad):
        # heis3 has two generators; -1 must not silently pick the last lift
        with pytest.raises(AlgebraError, match="range"):
            witness_tensor(heisenberg3(), 2, (0, 1, bad))

    @pytest.mark.parametrize("pars", list(itertools.product((0, 1), repeat=3)))
    def test_arity_two_terms_expand_to_zero(self, pars):
        # each term bracketed with its tuple entry, expanded in the free
        # associative superalgebra on three generators of these parities
        f = _free33c3()
        A = f.algebra
        gens = {0: iter(range(3)), 1: iter(range(3, 6))}
        xs = [{f.generator_basis_index(next(gens[p])): F(1)} for p in pars]
        residual: dict = {}
        for coeff, val, pos in witness_terms(A, xs, 2):
            for idx, c in A.bracket(val, xs[pos]).items():
                axpy(residual, coeff * c, expand(f.basis_word(idx), f.spec.parities))
        assert residual == {}

    def test_all_proof_tuples_land_in_kernel(self):
        for L in (heisenberg3(), filiform4(), heis_plus_line(),
                  special_heisenberg_odd(2)):
            c = L.nilpotency_class()
            gens = len(present(L).lift_indices)
            for i in range(2, min(c, gens) + 1):
                z_pos, y_pos = witness_tuple_positions(L, i)
                for y in y_pos:
                    w = witness_tensor(L, i, z_pos + (y,))
                    assert w.in_kernel
                    assert w.nonzero


class TestIdentities:
    def test_top_step_identity_heis3(self):
        r = verify_top_step_identity(heisenberg3())
        assert (r.lhs, r.rhs) == (3, 3)
        assert r.parts["dim_gamma_c"] == 1
        assert r.parts["dim_multiplier"] == 2
        assert r.parts["dim_multiplier_of_quotient"] == 1
        assert r.parts["bracket_quotient"] == 2

    def test_top_step_identity_heis_plus_line(self):
        r = verify_top_step_identity(heis_plus_line())
        assert r.parts["dim_gamma_c"] + r.parts["dim_multiplier"] == 1 + 4
        assert r.parts["dim_multiplier_of_quotient"] == 3
        assert r.parts["bracket_quotient"] == 2
        assert r.ok

    def test_top_step_identity_filiform4(self):
        assert verify_top_step_identity(filiform4()).ok

    def test_telescoped_identity_heis3(self):
        r = verify_telescoped_identity(heisenberg3())
        assert r.lhs == 2
        assert r.parts["dim_multiplier_abelianization"] == 1
        assert r.parts["bracket_kernel_2"] == 0
        assert r.ok

    def test_telescoped_identity_heis_plus_line(self):
        r = verify_telescoped_identity(heis_plus_line())
        assert r.lhs == 4
        assert r.parts["dim_multiplier_abelianization"] == 3
        assert r.parts["bracket_kernel_2"] == 1
        assert r.ok

    def test_telescoped_identity_sh01(self):
        r = verify_telescoped_identity(special_heisenberg_odd(1))
        assert r.lhs == 0
        assert r.parts["dim_multiplier_abelianization"] == 1
        assert r.parts["bracket_kernel_2"] == 1
        assert r.ok

    def test_class_one_rejected(self):
        with pytest.raises(AlgebraError, match="class"):
            verify_top_step_identity(abelian(2, 0))


class TestBracketWithFree:
    @pytest.mark.parametrize(
        "L",
        [
            L
            for base in builtin_algebras()
            if base.dim and base.is_nilpotent()
            for L in (base, basis_changed(base, 5))
        ],
        ids=lambda L: L.name,
    )
    def test_matches_all_pairs_product_space(self, L):
        p = present(L)
        A = p.algebra
        c = L.nilpotency_class()
        ideals = [p.relations] + [
            subspace_sum(p.fbar.gamma(i), p.relations) for i in range(2, c + 1)
        ]
        for ideal in ideals:
            assert bracket_with_free(p.fbar, ideal) == A.product_space(
                ideal, Subspace.full(A.dim)
            )
        # the presentation's chain: base_i = γ_i(F)+R, and base_{c+1} = R
        for i, base in enumerate(ideals[1:] + [p.relations], start=2):
            assert p.bracket_ideal(i) == A.product_space(base, Subspace.full(A.dim))


class TestPresentationInvariance:
    def test_lift_permutations_do_not_change_dimensions(self):
        # heis3+A(1|0) has basis e1 e2 e3 e4 and generators e1 e2 e4; each
        # permutation presents the generators in another order
        base = schur_multiplier_hopf(heis_plus_line()).dims
        for perm in ((1, 0, 2, 3), (3, 0, 2, 1), (0, 3, 2, 1)):
            L = change_basis(heis_plus_line(), perm, [1] * 4)
            c = L.nilpotency_class()
            p = present(L)
            A = p.algebra
            num = subspace_intersect(p.relations, p.fbar.gamma(2))
            den = A.product_space(p.relations, Subspace.full(A.dim))
            sn, sd = A.superdim(num), A.superdim(den)
            assert quotient_dim(num, den) == sn.total - sd.total
            dims = SuperDim(sn.even - sd.even, sn.odd - sd.odd)
            assert dims == base
            assert bracket_quotient_dim(p, c) == 2
