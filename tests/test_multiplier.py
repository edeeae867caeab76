import functools
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superschur import cli, exactla, freenilp, multiplier
from superschur.catalog import (
    abelian,
    builtin_algebras,
    filiform4,
    heisenberg3,
    parse_catalog,
    special_heisenberg_odd,
)
from superschur.cli import main
from superschur.exactla import (
    Subspace,
    axpy,
    kernel,
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
from support import (
    ReferenceEchelon,
    basis_changed,
    complement_rows,
    gl_changed,
    random_quotients,
    reference_build,
    reference_generator_columns,
    reference_hopf_dims,
    reference_presentation,
    reference_witness_tensor,
    relations_subspace,
    subspace_intersect,
    subspace_sum,
)

F = Fraction
PRESENTATIONS = Path(__file__).parent / "golden" / "presentations.cat"
LADDER = Path(__file__).parent / "golden" / "ladder.cat"


@functools.cache
def _free33c3():
    return build_free_nilpotent(GeneratorSpec(3, 3, 3))


def presented_bases():
    """The shipped catalog's nonzero nilpotent algebras and the 50 random quotients."""
    bases = [L for L in builtin_algebras() if L.dim and L.is_nilpotent()]
    return bases + [L for L in random_quotients(50) if L.dim]


def presented_algebras():
    """`presented_bases`, each with a seeded change_basis copy."""
    return [M for t, L in enumerate(presented_bases()) for M in (L, basis_changed(L, t))]


@pytest.fixture(scope="module")
def presented():
    return presented_algebras()


def gl_copies():
    """A seeded dense `gl_changed` copy of each of `presented_bases`."""
    return [gl_changed(L, t) for t, L in enumerate(presented_bases())]


def rank_route_cases():
    """The shipped catalog, the 100 random quotients, the dense copies of
    `presented_bases` and scrambled sh(0|4..6), the benchmark's Hopf ladder."""
    catalog = [L for L in builtin_algebras() if L.dim and L.is_nilpotent()]
    quotients = [L for L in random_quotients(100) if L.dim]
    ladder = [basis_changed(special_heisenberg_odd(n), n) for n in (4, 5, 6)]
    return catalog + quotients + gl_copies() + ladder


def heis_plus_line():
    return direct_sum(heisenberg3(), abelian(1, 0, labels=["e4"]), name="heis3+A(1|0)")


class TestPresent:
    def test_heis3(self):
        p = present(heisenberg3())
        assert p.fbar.spec == GeneratorSpec(2, 0, 3)
        assert p.fbar.total_dims == SuperDim(5, 0)
        R = relations_subspace(p)
        assert p.fbar.algebra.superdim(R) == SuperDim(2, 0)
        # R is exactly the degree->=3 filtration step here
        assert R == p.fbar.gamma(3)

    def test_abelian_line(self):
        p = present(abelian(1, 0))
        assert p.fbar.spec == GeneratorSpec(1, 0, 2)
        assert p.relation_rows == ()

    def test_sh01_presented_by_itself(self):
        p = present(special_heisenberg_odd(1))
        assert p.fbar.total_dims == SuperDim(1, 1)
        assert p.relation_rows == ()

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
            R = relations_subspace(p)
            for v in top.rows:
                assert R.contains(v), L.name

    def test_relations_are_the_kernel_of_pi(self, presented):
        # R is read off the tagged echelon that also serves the lifts;
        # `kernel` eliminates the reference's Fraction π on its own, in
        # another order
        for L in presented:
            p = present(L)
            assert relations_subspace(p) == kernel(reference_presentation(L).pi), L.name

    def test_relations_and_lifts_equal_the_fraction_presentation(self, presented):
        # π evaluated on the integral table and rescaled gives the rows,
        # ints in order, and the lifts that π in Fractions gives; 33 of the
        # algebras have a fractional table, so D > 1 rescales their rows
        fractional = 0
        for L in presented:
            p, ref = present(L), reference_presentation(L)
            assert p.relation_rows == ref.relation_rows, L.name
            assert all(type(c) is int for row in p.relation_rows for c in row.values()), L.name
            for i in range(2, L.nilpotency_class() + 1):
                for v in L.gamma(i).rows:
                    assert p.lift_into_gamma(v, i) == ref.lift(v), L.name
            fractional += L.table_scale() > 1
        assert (len(presented), fractional) == (150, 33)

    @pytest.mark.parametrize("scaled", [False, True], ids=["heis3", "heis3-basis-changed"])
    def test_eliminated_columns_are_int(self, scaled, monkeypatch):
        # every column `present` eliminates, and every row of its rank
        # check, is a dict of ints, on an integral table and on one with D > 1
        L = basis_changed(heisenberg3(), 4) if scaled else heisenberg3()
        assert (L.table_scale() > 1) == scaled
        L.nilpotency_class()
        L.generator_lift_indices()
        L.minimal_generator_dims()
        inserted = []
        real_insert = exactla.SparseEchelon.insert

        def recording_insert(self, v):
            inserted.append((self, dict(v)))
            return real_insert(self, v)

        monkeypatch.setattr(exactla.SparseEchelon, "insert", recording_insert)
        p = present(L)
        columns = [v for ech, v in inserted if ech is p.columns]
        assert len(columns) == sum(1 for col in p.psi if col) > 0
        assert all(type(c) is int for _, v in inserted for c in v.values())

    def test_lift_into_gamma_contract(self, presented):
        # for 2 <= i <= c, a row v of γ_i(L) lifts to a combination of π's
        # columns of degree >= i that sums to v; a row of γ_{i-1} outside
        # γ_i is refused
        for L in presented:
            p, pi = present(L), reference_presentation(L).pi
            for i in range(2, L.nilpotency_class() + 1):
                for v in L.gamma(i).rows:
                    w = p.lift_into_gamma(v, i)
                    assert all(p.fbar.basis_degree(t) >= i for t in w), L.name
                    image: dict = {}
                    for t, c in w.items():
                        axpy(image, c, pi[t])
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
            p, pi = present(L), reference_presentation(L).pi
            f = p.fbar
            ref, kept = ReferenceEchelon(), set()
            for idx in sorted(range(f.dim), key=f.basis_degree, reverse=True):
                if ref.insert(pi[idx], tag=idx):
                    kept.add(idx)
            for i in range(2, L.nilpotency_class() + 1):
                for v in L.gamma(i).rows:
                    w = p.lift_into_gamma(v, i)
                    assert set(w) <= kept and w == ref.express(v), L.name

    def test_relations_inside_the_derived_algebra(self, presented):
        for L in presented:
            p = present(L)
            R = relations_subspace(p)
            assert subspace_intersect(R, p.fbar.gamma(2)) == R, L.name

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
        assert schur_multiplier_hopf(abelian(2, 1)) == SuperDim(2, 2)

    def test_heis3(self):
        # hand computation in the class-3 free algebra on two even
        # generators: R = span of both degree-3 words, [R, F] = 0
        assert schur_multiplier_hopf(heisenberg3()) == SuperDim(2, 0)

    def test_sh01(self):
        assert schur_multiplier_hopf(special_heisenberg_odd(1)) == SuperDim(0, 0)

    def test_filiform4(self):
        assert schur_multiplier_hopf(filiform4()) == SuperDim(2, 0)

    def test_heis_plus_line(self):
        assert schur_multiplier_hopf(heis_plus_line()).total == 4

    def test_zero_algebra(self):
        assert schur_multiplier_hopf(abelian(0, 0)) == SuperDim(0, 0)


class TestRankRoute:
    """The rank count against the complement it replaced, which re-proves
    [R, F] ⊆ R on every input (`support.reference_hopf_dims`)."""

    CASES = rank_route_cases()

    @pytest.mark.parametrize(
        "L", CASES, ids=[f"{t}-{L.name}" for t, L in enumerate(CASES)]
    )
    def test_rank_count_matches_the_complement(self, L):
        p = present(L)
        assert schur_multiplier_hopf(L) == reference_hopf_dims(p)
        R = relations_subspace(p)
        assert all(R.contains(row) for row in p.relation_bracket.rows())

    def test_one_back_substitution_per_presentation(self, monkeypatch):
        """With the series computed, the Hopf route calls
        `SparseEchelon.rows` once per presentation, in `present`'s dense
        `rref` check."""
        fresh = [
            L for L in builtin_algebras() + parse_catalog(PRESENTATIONS.read_text())
            if L.dim and L.is_nilpotent()
        ]
        for L in fresh:
            L.generator_lift_indices()
            L.minimal_generator_dims()

        calls = []
        real_rows = exactla.SparseEchelon.rows

        def counting_rows(self):
            calls.append(self)
            return real_rows(self)

        monkeypatch.setattr(exactla.SparseEchelon, "rows", counting_rows)
        for L in fresh:
            calls.clear()
            schur_multiplier_hopf(L)
            assert len(calls) == 1, L.name


class TestCohomology:
    @pytest.mark.parametrize("m", range(4))
    @pytest.mark.parametrize("n", range(4))
    def test_abelian_closed_form(self, m, n):
        got = schur_multiplier_cohomology(abelian(m, n))
        assert got == SuperDim((m * m + n * n + n - m) // 2, m * n)

    def test_heis3(self):
        # 3 graded-skew 2-cochains, all cocycles, one coboundary
        assert schur_multiplier_cohomology(heisenberg3()) == SuperDim(2, 0)

    def test_zero_algebra(self):
        assert schur_multiplier_cohomology(abelian(0, 0)) == SuperDim(0, 0)


# block sigma's keys are 100*sigma + 0..15; random single-entry rows take
# 0..9 and the planted chains 10..15, which random longer rows may share
_coefficient = st.integers(-6, 6).filter(bool) | st.sampled_from([10**20, -(10**20) - 7])
_block_row = st.dictionaries(st.integers(0, 15), _coefficient, min_size=2, max_size=4)
_block_unit = st.tuples(st.integers(0, 9), _coefficient)
_chain = st.lists(_coefficient, min_size=6, max_size=6)
_block = st.tuples(
    st.lists(_block_row, max_size=10),
    st.lists(_block_unit, max_size=4),
    st.lists(_chain, min_size=1, max_size=2),
    st.randoms(use_true_random=False),
)


def _planted_rows(sigma, block) -> list[dict]:
    """A parity block's rows: random rows of two to four entries, random
    single-entry rows, and planted chains (k0), (k1, k0), (k2, k1, k0) on
    keys no random single-entry row holds, listed last row first after
    the shuffled others, so k1 is single only after one peel and k2
    after two."""
    rows, units, chains, rng = block
    base = 100 * sigma
    out = [{base + k: c for k, c in row.items()} for row in rows]
    out += [{base + k: c} for k, c in units]
    rng.shuffle(out)
    for n, (a, b, c, d, e, f) in enumerate(chains):
        k0, k1, k2 = (base + 10 + 3 * n + m for m in range(3))
        out += [{k2: a, k1: b, k0: c}, {k1: d, k0: e}, {k0: f}]
    return out


@given(_block, _block, st.booleans())
@settings(max_examples=100, deadline=None)
def test_peeled_rank_is_the_rank_of_all_rows(even, odd, as_keys):
    """Peeling, then eliminating the rest, ranks each parity block as
    `ReferenceEchelon` ranks all the rows; every row it eliminates keeps
    two entries or more.  The one-entry rows go in as peeled keys, as
    the cochain route passes them, or stay among the rows."""
    blocks = [_planted_rows(0, even), _planted_rows(1, odd)]
    reference = ReferenceEchelon()
    for row in blocks[0] + blocks[1]:
        reference.insert(row, None)
    keys: list[set] = [set(), set()]
    if as_keys:
        for sigma, rows in enumerate(blocks):
            keys[sigma].update(k for row in rows if len(row) == 1 for k in row)
            blocks[sigma] = [row for row in rows if len(row) > 1]
    inserted = []
    original = exactla.SparseEchelon.insert

    def counted(self, v):
        inserted.append(len(v))
        return original(self, v)

    exactla.SparseEchelon.insert = counted
    try:
        got = sum(multiplier._peeled_rank(rows, ks) for rows, ks in zip(blocks, keys))
    finally:
        exactla.SparseEchelon.insert = original
    assert got == reference.rank
    assert all(n >= 2 for n in inserted)


class TestMethodAgreement:
    @pytest.mark.parametrize("name", [a.name for a in builtin_algebras()])
    def test_catalog(self, name):
        L = {a.name: a for a in builtin_algebras()}[name]
        h, c = schur_multiplier_hopf(L), schur_multiplier_cohomology(L)
        assert h == c


class TestFreeMultiplierClosedForm:
    @pytest.mark.parametrize(
        "p,q,c",
        [(1, 0, 2), (0, 1, 3), (2, 0, 3), (1, 1, 3), (1, 1, 4), (0, 2, 3), (0, 2, 4),
         (1, 2, 2), (1, 2, 3), (0, 3, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5), (2, 1, 6),
         (2, 1, 7), (1, 1, 8)],
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
        assert h == co == want


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
        assert h == co == SuperDim(n * (n + 1) // 2 - 1, 0)


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
        # the residual modulo the denominator must not notice, on the plain
        # basis and on a dense one
        rng = random.Random(11)

        def perturb(v, freedom):
            out = dict(v)
            for member in freedom.rows:
                axpy(out, rng.randint(-2, 2), member)
            return out

        for L in (heis_plus_line(), gl_changed(heis_plus_line(), 3)):
            p = present(L)
            c = L.nilpotency_class()
            # γ_{c+1} is zero, so a row of γ_c is its own canonical remainder
            u = L.gamma(c).rows[0]
            A = p.fbar.algebra
            R = relations_subspace(p)
            y_freedom = subspace_sum(p.fbar.gamma(2), R)
            bases = []
            for b in range(len(p.lift_indices)):
                base = bracket_map_residual(p, c, {b: u})
                bases.append(base)
                for _ in range(5):
                    w_u = perturb(p.lift_into_gamma(u, c), R)
                    w_y = perturb({p.fbar.generator_basis_index(b): F(1)}, y_freedom)
                    assert p.bracket_ideal_residual(A.bracket(w_u, w_y), c + 1) == base
            # some tensor lies outside the kernel: a nonzero residual is held fixed
            assert any(bases), L.name


class TestWitnessTensor:
    def test_heis_plus_line_proof_tuple(self):
        L = heis_plus_line()
        # generators are e1, e2, e4; witness on (e1, e2, e4)
        w = witness_tensor(L, 2, (0, 1, 2))
        assert w.tensor == {(2, 2): F(1)}  # e3 (x) class of e4
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


def witness_cases():
    """The algebras of class at least 2 that `verify` checks witnesses on,
    from the shipped catalog, presentations.cat, ladder.cat and the 100
    random quotients."""
    algebras = (
        builtin_algebras()
        + parse_catalog(PRESENTATIONS.read_text())
        + parse_catalog(LADDER.read_text())
        + random_quotients(100)
    )
    return [L for L in algebras if L.is_nilpotent() and L.nilpotency_class() >= 2]


def _echelon_rank(rows) -> int:
    ech = ReferenceEchelon()
    return sum(ech.insert(r, None) for r in rows)


@pytest.mark.parametrize("L", witness_cases(), ids=lambda L: L.name)
def test_witness_tensors_match_the_coordinate_reference(L):
    """Every witness `verify` checks, against `reference_witness_tensor`:
    its nonzero flag and kernel verdict, each step's rank, and the tensor
    itself, once each representative's row replaces its coordinate (a
    combination of the representatives is the canonical remainder of its
    class, being in γ_i and 0 at γ_{i+1}'s pivots)."""
    c = L.nilpotency_class()
    gens = L.minimal_generator_dims().total
    for i in range(2, min(c, gens) + 1):
        reps = complement_rows(L.gamma(i), L.gamma(i + 1))
        z_pos, y_pos = witness_tuple_positions(L, i)
        ours, theirs = [], []
        for y in y_pos:
            w = witness_tensor(L, i, z_pos + (y,))
            ref, in_kernel = reference_witness_tensor(L, i, z_pos + (y,))
            assert (w.nonzero, w.in_kernel) == (bool(ref), in_kernel), (i, y)
            named: dict = {}
            for (a, b), coeff in ref.items():
                axpy(named, coeff, {(m, b): x for m, x in reps[a].items()})
            assert w.tensor == named, (i, y)
            ours.append(w.tensor)
            theirs.append(ref)
        assert _echelon_rank(ours) == _echelon_rank(theirs), i


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


def _no_word_survives(monkeypatch):
    monkeypatch.setattr(multiplier, "evaluate_word", lambda *args: {})


def _domain_overflows(monkeypatch):
    monkeypatch.setattr(multiplier, "bracket_quotient_dim", lambda pres, i: 10**6)


A21, HEIS = abelian(2, 1), heisenberg3()


@pytest.mark.parametrize(
    "patch, call, prefix",
    [
        (None, lambda: bracket_quotient_dim(present(A21), 2), "A(2|1): index 2 outside [2, 1]"),
        (None, lambda: witness_tensor(A21, 2, (0, 0, 0)), "A(2|1): index 2 outside"),
        (None, lambda: present(HEIS).lift_into_gamma({0: 1}, 2), "heis3: element does not lift"),
        (None, lambda: verify_top_step_identity(A21), "A(2|1): identity needs nilpotency class"),
        (None, lambda: verify_telescoped_identity(A21), "A(2|1): identity needs nilpotency class"),
        (None, lambda: present(abelian(0, 0)), "A(0|0): the zero algebra has no generators"),
        (_domain_overflows, lambda: bracket_map_kernel_dim(HEIS, 2),
         "heis3: bracket quotient exceeds its tensor domain"),
        (None, lambda: witness_tensor(HEIS, 2, (0, 1)), "heis3: need 3 tuple entries, got 2"),
        (None, lambda: witness_tensor(HEIS, 2, (0, 1, 2)),
         "heis3: generator positions must lie in range(2)"),
        (_no_word_survives, lambda: witness_tuple_positions(HEIS, 2),
         "heis3: no left-normed generator word of length 2"),
    ],
    ids=[
        "step-range", "witness-step-range", "lift", "top-step-class", "telescoped-class",
        "zero-algebra", "tensor-domain", "tuple-length", "position-range", "no-word",
    ],
)
def test_errors_name_the_algebra(monkeypatch, patch, call, prefix):
    # each message starts with the algebra's name, so a failure inside a
    # catalog run says which record it came from
    if patch:
        patch(monkeypatch)
    with pytest.raises(AlgebraError) as err:
        call()
    assert str(err.value).startswith(prefix), str(err.value)


class TestBracketWithFree:
    @pytest.mark.parametrize(
        "L",
        [
            L
            for base in builtin_algebras()
            if base.dim and base.is_nilpotent()
            for L in (base, basis_changed(base, 5))
        ]
        # the random quotients and their copies, as `presented` has them
        + [L for L in presented_algebras() if L.name.startswith("rq")]
        # dense bases, whose R and [R, F] mix many basis words
        + gl_copies(),
        ids=lambda L: L.name,
    )
    def test_matches_all_pairs_product_space(self, L):
        """[γ_i(F)+R, F], formed all-pairs, against the chain read off [R, F]'s
        pivots: every member leaves no residual, the dimension counts the
        pivots of degree <= i, and a unit vector leaves a residual exactly
        when it lies outside."""
        p = present(L)
        f, A = p.fbar, p.fbar.algebra
        c = L.nilpotency_class()
        full = Subspace.full(A.dim)
        # base_i = γ_i(F)+R for 2 <= i <= c, and base_{c+1} = R
        R = relations_subspace(p)
        bases = {i: subspace_sum(f.gamma(i), R) for i in range(2, c + 1)}
        bases[c + 1] = R
        pivot_degrees = [f.basis_degree(q) for q in p.relation_bracket.pivots]
        ideals = {}
        for i, base in bases.items():
            ideals[i] = ideal = A.product_space(base, full)
            assert Subspace(f.dim, bracket_with_free(f, base.rows).rows()) == ideal
            assert not any(p.bracket_ideal_residual(row, i) for row in ideal.rows)
            assert ideal.dim == f.gamma(i + 1).dim + sum(d <= i for d in pivot_degrees)
            for k in range(A.dim):
                unit = {k: F(1)}
                assert (not p.bracket_ideal_residual(unit, i)) == ideal.contains(unit)
        for i in range(2, c + 1):
            assert bracket_quotient_dim(p, i) == ideals[i].dim - ideals[i + 1].dim

    def test_echelon_remainder_is_the_reduced_rows_reduce(self, presented):
        """[R, F]'s echelon remainder is `Subspace.reduce` over its reduced
        rows, key for key: on unit vectors, random sparse vectors and
        random members of [R, F], whose remainder is empty."""
        rng = random.Random(29)
        inside = 0
        for L in presented + gl_copies():
            p = present(L)
            ech, n = p.relation_bracket, p.fbar.dim
            S = Subspace(n, ech.rows())
            targets = [{k: F(1)} for k in range(n)]
            for _ in range(4):
                keys = rng.sample(range(n), min(n, 5))
                targets.append({k: F(rng.choice([-3, -1, 2, 5]), rng.randint(1, 6)) for k in keys})
            for v in targets:
                assert ech.remainder(v) == S.reduce(v), L.name
            for _ in range(2):
                member: dict = {}
                for row in S.rows:
                    axpy(member, F(rng.randint(-3, 3), rng.randint(1, 3)), row)
                inside += bool(member)
                assert ech.remainder(member) == {} == S.reduce(member), L.name
        assert inside > 100

    def test_verify_brackets_once_per_presentation(self, monkeypatch, capsys):
        """Every bracket ideal and the Hopf denominator read one product
        [R, F] per presentation."""
        fbars, calls = [], []
        real_present, real_bracket = multiplier.present, multiplier.bracket_with_free

        def recording_present(L):
            pres = real_present(L)
            fbars.append(pres.fbar)
            return pres

        def counting_bracket(f, ideal):
            calls.append(f)
            return real_bracket(f, ideal)

        monkeypatch.setattr(multiplier, "present", recording_present)
        monkeypatch.setattr(multiplier, "bracket_with_free", counting_bracket)
        assert main(["verify"]) == 0
        capsys.readouterr()
        made = {id(f): f for f in fbars}
        assert sorted(map(id, calls)) == sorted(made)

    def test_verify_presents_each_record_and_its_top_quotient_only(self, monkeypatch, capsys):
        """verify presents each record L of class c >= 2 and L/γ_c, and no
        L/γ₂ beyond that: M(L/γ₂) is the abelian closed form.  The only
        other free algebra built is the catalog's free (2|1) of class 3, so
        the shipped catalog's ten records make 21 builds."""
        want = set()
        for L in builtin_algebras():
            if L.is_nilpotent() and (c := L.nilpotency_class()) >= 2:
                want |= {L.name, f"{L.name}/g{c}"}
        presented, builds = [], []
        real_present = multiplier.present
        real_init = freenilp.FreeNilpotentSuperalgebra.__init__

        def recording_present(L):
            presented.append(L.name)
            return real_present(L)

        def counting_init(self, spec):
            builds.append(spec)
            real_init(self, spec)

        monkeypatch.setattr(multiplier, "present", recording_present)
        monkeypatch.setattr(freenilp.FreeNilpotentSuperalgebra, "__init__", counting_init)
        assert main(["verify"]) == 0
        capsys.readouterr()
        assert set(presented) == want
        assert len(want) == 20 and len(builds) == 21


class TestFreeTableNeverAssembled:
    """The Hopf route, `bounds` and `verify` read F through its generator
    columns only; `_assemble` stays for free algebras used as targets."""

    @pytest.mark.parametrize(
        "catalog", [None, str(PRESENTATIONS)], ids=["shipped", "presentations"]
    )
    @pytest.mark.parametrize(
        "argv", [["multiplier", "--method", "both"], ["bounds"], ["verify"]], ids=lambda a: a[0]
    )
    def test_reports_without_assembling_free(self, argv, catalog, monkeypatch, capsys):
        argv = ["--format", "json", *argv] + ([catalog] if catalog else [])
        assert main(argv) == 0
        want = capsys.readouterr().out
        # the shipped catalog assembles free (2|1) class 3 on purpose, for
        # its free21c* records, so it is loaded before the guard goes up
        shipped = builtin_algebras()

        def never(f):
            raise AssertionError(f"assembled the table of {f.spec}")

        monkeypatch.setattr(freenilp.FreeNilpotentSuperalgebra, "_assemble", never)
        monkeypatch.setattr(cli, "builtin_algebras", lambda: shipped)
        assert main(argv) == 0
        assert capsys.readouterr().out == want


class TestFreeBuildOnCodedWords:
    """The free build and its generator columns run on integer-coded words:
    neither forms a tuple-keyed product or commutator of expansions."""

    @pytest.mark.parametrize(
        "p,q,k", [(2, 1, 6), (1, 2, 5), (0, 3, 4), (3, 0, 4), (1, 1, 8), (0, 1, 3)]
    )
    def test_build_and_columns_form_no_tuple_words(self, p, q, k, monkeypatch):
        spec = GeneratorSpec(p, q, k)
        words = reference_build(spec)
        want = reference_generator_columns(build_free_nilpotent(spec))

        def never(*args):
            raise AssertionError("formed a tuple-keyed expansion")

        monkeypatch.setattr(freenilp, "_commutator", never)
        monkeypatch.setattr(freenilp, "_concat", never)
        f = build_free_nilpotent(spec)
        assert f.degree_words == words
        assert f.generator_columns() == want


class TestPresentationInvariance:
    def test_lift_permutations_do_not_change_dimensions(self):
        # heis3+A(1|0) has basis e1 e2 e3 e4 and generators e1 e2 e4; each
        # permutation presents the generators in another order
        base = schur_multiplier_hopf(heis_plus_line())
        for perm in ((1, 0, 2, 3), (3, 0, 2, 1), (0, 3, 2, 1)):
            L = change_basis(heis_plus_line(), perm, [1] * 4)
            c = L.nilpotency_class()
            p = present(L)
            A = p.fbar.algebra
            R = relations_subspace(p)
            num = subspace_intersect(R, p.fbar.gamma(2))
            den = A.product_space(R, Subspace.full(A.dim))
            sn, sd = A.superdim(num), A.superdim(den)
            assert len(complement_rows(num, den)) == sn.total - sd.total
            dims = SuperDim(sn.even - sd.even, sn.odd - sd.odd)
            assert dims == base
            assert bracket_quotient_dim(p, c) == 2
