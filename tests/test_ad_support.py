"""The nonzero-pair index, the integral table and the loops that use them.

`LieSuperalgebra.ad_support` lets validation, products, ideals, the
center, quotients and the cochain route skip brackets that are zero,
and `integral_table` lets the Jacobi residual, the center and the
cochain route compute in ints.  These tests hold each of them to an
all-pairs or all-triples reference from `support`, on the shipped
catalog, the 50 random quotients, a change-of-basis copy of each, and
broken tables built from them.  The cochain route, whose rows are the
touching triples that hold a generator lift, is also held to the oracle
on dense `gl_changed` copies, whose lifts differ, and on the second
battery of 50 larger quotients, where the Hopf route must agree too.
"""

import itertools
import random
from fractions import Fraction
from math import comb, lcm

import pytest

from superschur.catalog import builtin_algebras, parse_catalog, render_catalog
from superschur.exactla import Subspace
from superschur.freenilp import GeneratorSpec, build_free_nilpotent
from superschur.exactla import SparseEchelon
from superschur import multiplier
from superschur.multiplier import (
    generator_triples,
    schur_multiplier_cohomology,
    schur_multiplier_hopf,
)
from superschur.superalg import AlgebraError, LieSuperalgebra, change_basis, graded_sign
from support import (
    _jacobi_residual,
    FIRST_BATTERY,
    basis_changed,
    gl_changed,
    random_quotients,
    reference_cohomology_dims,
    reference_validation,
    touching_triples,
)

F = Fraction


def _table(L) -> dict:
    """L's table as canonical i <= j entries."""
    return {
        (i, j): tuple(sorted(L.bracket_basis(i, j).items()))
        for i in range(L.dim)
        for j in range(i, L.dim)
        if L.bracket_basis(i, j)
    }


def perturbed(L, seed) -> LieSuperalgebra:
    """L with one nonzero table coefficient c, picked by the seed, made c + 1."""
    table = _table(L)
    rng = random.Random(seed)
    key = rng.choice(sorted(table))
    terms = list(table[key])
    at = rng.randrange(len(terms))
    terms[at] = (terms[at][0], terms[at][1] + 1)
    table[key] = tuple(terms)
    return LieSuperalgebra(f"{L.name}+", L.basis_labels, L.parities, table)


def mirrored(L) -> LieSuperalgebra:
    """L with every off-diagonal bracket supplied only as its i > j mirror."""
    p = L.parities
    table = {}
    for (i, j), terms in _table(L).items():
        if i == j:
            table[(i, j)] = terms
        else:
            sign = -graded_sign(p[i], p[j])
            table[(j, i)] = tuple((k, sign * c) for k, c in terms)
    return LieSuperalgebra(f"{L.name}^", L.basis_labels, L.parities, table)


def halved(L, seed) -> LieSuperalgebra:
    """L on a basis rescaled by seeded factors of ±1 and ±1/2."""
    rng = random.Random(seed)
    scales = [rng.choice([1, -1, F(1, 2), F(-1, 2)]) for _ in range(L.dim)]
    return change_basis(L, range(L.dim), scales, name=f"{L.name}/2")


@pytest.fixture(scope="module")
def catalog():
    return builtin_algebras()


@pytest.fixture(scope="module")
def quotients():
    """The 50 random quotients and a seeded change_basis copy of each."""
    return [M for t, L in enumerate(random_quotients(50)) for M in (L, basis_changed(L, t))]


@pytest.fixture(scope="module")
def second_battery():
    """The 50 random quotients after the first 50: class 5 with p+q = 2 or
    class 4 with p+q = 3."""
    return random_quotients(FIRST_BATTERY + 50)[FIRST_BATTERY:]


@pytest.fixture(scope="module")
def perturbations(quotients):
    """One perturbed table per nonabelian random quotient."""
    return [perturbed(L, t) for t, L in enumerate(quotients[::2]) if _table(L)]


@pytest.fixture(scope="module")
def mirrors(quotients):
    """Each random quotient's mirror-only table."""
    return [mirrored(L) for L in quotients[::2]]


def _report_lists(L):
    report = L.validate()
    return report.malformed, report.violations


class TestValidationOracle:
    def test_catalog(self, catalog):
        for L in catalog:
            assert _report_lists(L) == reference_validation(L), L.name

    def test_random_quotients_and_copies(self, quotients):
        for L in quotients:
            assert _report_lists(L) == reference_validation(L), L.name
            assert L.validate().ok

    def test_broken_tables(self, perturbations, mirrors):
        for L in perturbations + mirrors:
            assert _report_lists(L) == reference_validation(L), L.name
        # 6 of the 38 perturbations break the identity (scaling a bracket
        # into the center keeps it), so the order of violations is
        # compared on nonempty lists too
        failing = [L for L in perturbations if any("Jacobi" in v for v in L.validate().violations)]
        assert len(failing) >= 5
        assert all(L.validate().ok for L in mirrors)

    def test_skipped_triples_have_zero_residual(self, catalog, quotients, perturbations, mirrors):
        # the tests above compare the reports; this holds the smaller set
        # itself to the all-triples residual
        for L in catalog + quotients + perturbations + mirrors:
            nested = set(L._nested_triples())
            for i, j, k in itertools.combinations_with_replacement(range(L.dim), 3):
                if (i, j, k) not in nested:
                    assert not _jacobi_residual(L, i, j, k), (L.name, i, j, k)


class TestCohomologyOracle:
    def test_catalog(self, catalog):
        for L in catalog:
            if L.is_nilpotent():
                assert schur_multiplier_cohomology(L) == reference_cohomology_dims(L), L.name

    def test_random_quotients_and_copies(self, quotients):
        for L in quotients:
            assert schur_multiplier_cohomology(L) == reference_cohomology_dims(L), L.name

    def test_mirror_only_tables(self, quotients, mirrors):
        for L, M in zip(quotients[::2], mirrors):
            want = reference_cohomology_dims(L)
            assert reference_cohomology_dims(M) == want
            assert schur_multiplier_cohomology(M) == want, M.name

    def test_dense_copies(self, catalog, quotients):
        # gl_changed moves the generator lifts and the touching triples,
        # which pick the route's rows
        sources = [L for L in catalog if L.dim and L.is_nilpotent()] + quotients[::2]
        for t, L in enumerate(sources):
            M = gl_changed(L, t)
            assert schur_multiplier_cohomology(M) == reference_cohomology_dims(M), M.name

    def test_second_battery_on_both_routes(self, second_battery):
        shapes = set()
        for L in second_battery:
            want = reference_cohomology_dims(L)
            assert schur_multiplier_cohomology(L) == want, L.name
            assert schur_multiplier_hopf(L) == want, L.name
            shapes.add(L.name.split("[")[1])
        # every shape of the battery is drawn, and some quotient keeps class 4 at p+q = 3
        assert len({s[:3] for s in shapes}) == 7
        assert any(L.dim >= 30 and L.nilpotency_class() == 4 for L in second_battery)

    def test_generator_triples_come_once_each(self, catalog, quotients):
        # lift by lift, the touching triples that hold a lift, each once, on
        # the sources and on dense copies, whose lifts differ
        sources = [L for L in catalog if L.is_nilpotent()] + quotients[::2]
        for t, L in enumerate(sources):
            for M in (L, gl_changed(L, t)):
                lifts = set(M.generator_lift_indices())
                want = [x for x in touching_triples(M) if lifts.intersection(x)]
                assert sorted(generator_triples(M)) == want, M.name

    @pytest.mark.parametrize("c, rows, touching", [(5, 6_535, 9_497), (6, 39_367, 67_581)])
    def test_rows_are_the_generator_triples(self, monkeypatch, c, rows, touching):
        # keys peeled and rows left for the echelons, both parities together
        peeled, inserted = {5: (3_049, 250), 6: (19_497, 778)}[c]
        L = build_free_nilpotent(GeneratorSpec(2, 1, c)).algebra
        lifts = set(L.generator_lift_indices())
        assert sum(1 for _ in touching_triples(L)) == touching
        built = list(generator_triples(L))
        assert len(built) == rows
        # lift by lift, each triple once
        assert sorted(built) == [t for t in touching_triples(L) if lifts.intersection(t)]
        calls = []
        original = SparseEchelon.insert

        def counted(self, v):
            accepted = original(self, v)
            calls.append((self, len(v), accepted))
            return accepted

        ranks = []
        peeled_rank = multiplier._peeled_rank

        def ranked(rows, peeled):
            # the one-entry rows arrive as keys, never as rows
            assert all(len(row) >= 2 for row in rows)
            assert peeled
            ranks.append(peeled_rank(rows, peeled))
            return ranks[-1]

        monkeypatch.setattr(SparseEchelon, "insert", counted)
        monkeypatch.setattr(multiplier, "_peeled_rank", ranked)
        schur_multiplier_cohomology(L)
        # the rows left after peeling go into one echelon per parity,
        # shortest first, each with two entries or more; the coboundaries
        # take none
        assert len(calls) == inserted
        assert sum(ranks) - sum(accepted for _, _, accepted in calls) == peeled
        assert min(n for _, n, _ in calls) >= 2
        lengths: dict = {}
        for ech, n, _ in calls:
            lengths.setdefault(id(ech), []).append(n)
        assert len(lengths) == 2
        assert all(ns == sorted(ns) for ns in lengths.values())

    def test_perturbed_tables_are_refused(self, perturbations):
        for L in perturbations:
            if not L.validate().ok:
                with pytest.raises(AlgebraError):
                    schur_multiplier_cohomology(L)


class TestAdSupport:
    def test_equals_the_nonzero_brackets(self, catalog, quotients, perturbations, mirrors):
        for L in catalog + quotients + perturbations + mirrors:
            support = L.ad_support()
            assert len(support) == L.dim
            for i in range(L.dim):
                want = tuple(j for j in range(L.dim) if L.bracket_basis(i, j))
                assert support[i] == want, (L.name, i)
                assert all(i in support[j] for j in support[i])

    def test_pairs_and_triples_read_off_the_support(self, quotients):
        for L in quotients[:10]:
            pairs = [(i, j) for i in range(L.dim) for j in range(i, L.dim) if L.bracket_basis(i, j)]
            assert L.nonzero_pairs() == pairs
            touched = [
                (i, j, k)
                for i in range(L.dim)
                for j in range(i, L.dim)
                for k in range(j, L.dim)
                if {(i, j), (j, k), (i, k)} & set(pairs)
            ]
            assert list(touching_triples(L)) == touched

    def test_zero_coefficients_are_ignored(self):
        L = LieSuperalgebra(
            "zeros",
            ["e1", "e2", "e3", "f1"],
            [0, 0, 0, 1],
            {(0, 1): [(2, 0)], (0, 3): [(3, F(0))], (2, 1): [(2, 0)], (3, 3): [(2, 1)]},
        )
        assert L.ad_support() == ((), (), (), (3,))
        assert L.nonzero_pairs() == [(3, 3)]
        assert _report_lists(L) == reference_validation(L)

    def test_repeated_targets_add_up(self):
        # z - z cancels and z + z doubles, as the catalog line reads
        L = LieSuperalgebra(
            "rep", ["x", "y", "z", "w"], [0] * 4, {(0, 1): [(2, 1), (2, -1)], (0, 2): [(3, 1), (3, 1)]}
        )
        assert L.ad_support() == ((2,), (), (0,), ())
        assert L.bracket_basis(0, 1) == {}
        assert L.bracket_basis(0, 2) == {3: 2}
        assert L.validate().ok and L.nilpotency_class() == 2
        text = "algebra rep\neven x y z\n[x,y] = z - z\n[x,z] = y + y\nend\n"
        assert render_catalog(parse_catalog(text)) == "algebra rep\neven x y z\n[x,z] = 2*y\nend\n"

    def test_triple_bound_covers_the_count(self, catalog, quotients):
        # each touching triple is a nonzero pair plus one more index
        for L in catalog + quotients:
            assert len(L.nonzero_pairs()) * L.dim >= len(list(touching_triples(L))), L.name

    def test_mirror_only_entries_are_indexed(self):
        L = LieSuperalgebra("m", ["e1", "e2", "e3"], [0] * 3, {(1, 0): [(2, 1)]})
        assert L.ad_support() == ((1,), (0,), ())
        assert L.bracket_basis(0, 1) == {2: -1}


class TestCompletedTable:
    def test_mirror_half_by_graded_skew_symmetry(self, catalog, quotients, mirrors):
        for L in catalog + quotients + mirrors:
            p = L.parities
            for i in range(L.dim):
                for j in range(L.dim):
                    sign = -graded_sign(p[i], p[j])
                    want = {k: sign * c for k, c in L.bracket_basis(i, j).items()}
                    assert L.bracket_basis(j, i) == want, (L.name, i, j)

    def test_repeated_calls_share_one_entry(self, catalog, quotients):
        for L in catalog + quotients:
            for i, j in L.nonzero_pairs():
                for a, b in ((i, j), (j, i)):
                    first = L.bracket_basis(a, b)
                    assert first and L.bracket_basis(a, b) is first, (L.name, a, b)
                    assert all(type(c) is F for c in first.values())

    def test_diagonal_entries_are_kept_as_supplied(self):
        # an even diagonal breaks skew-symmetry; validate reports it, and
        # the table keeps it unmirrored
        L = LieSuperalgebra(
            "diag", ["e1", "e2", "f1", "f2"], [0, 0, 1, 1],
            {(0, 0): [(1, 1)], (2, 2): [(0, 1)], (2, 3): [(1, 1)], (0, 2): [(3, 1)]},
        )
        assert L.bracket_basis(0, 0) == {1: 1} and L.bracket_basis(2, 2) == {0: 1}
        assert L.bracket_basis(3, 2) == {1: 1} and L.bracket_basis(2, 0) == {3: -1}
        assert L.validate().violations[0] == "graded skew-symmetry forces [e1,e1] = 0 for even e1"


class TestIntegralTable:
    def test_is_the_table_times_the_common_denominator(
        self, catalog, quotients, perturbations, mirrors
    ):
        for L in catalog + quotients + perturbations + mirrors:
            pairs = [(i, j) for i in range(L.dim) for j in range(L.dim) if L.bracket_basis(i, j)]
            d = lcm(*(c.denominator for i, j in pairs for c in L.bracket_basis(i, j).values()))
            table = L.integral_table()
            assert table.keys() == L._table().keys() and sorted(table) == pairs, L.name
            for i, j in pairs:
                entry = table[(i, j)]
                assert all(type(c) is int for c in entry.values()), (L.name, i, j)
                assert entry == {k: d * c for k, c in L.bracket_basis(i, j).items()}, (L.name, i, j)

    def test_cohomology_of_halved_copies(self, catalog, quotients):
        sources = [L for L in catalog if L.is_nilpotent()] + quotients[::2]
        scaled = 0
        for t, L in enumerate(sources):
            M = halved(L, t)
            if L.nonzero_pairs():
                d = lcm(*(c.denominator for e in M._table().values() for c in e.values()))
                scaled += d > 1
            assert schur_multiplier_cohomology(M) == reference_cohomology_dims(M), M.name
        # 36 of the 48 nonabelian sources get a denominator
        assert scaled >= 30


def reference_ideal_witness(L, S):
    """`is_graded_ideal` with every basis index bracketed against every row."""
    for x in S.rows:
        if not L.is_homogeneous(x):
            return False, f"{L._describe(x)} is not homogeneous"
        for j in range(L.dim):
            if not S.contains(L.bracket(x, {j: F(1)})):
                return False, f"[{L._describe(x)}, {L.label_of(j)}] escapes the subspace"
    return True, None


class TestIsGradedIdeal:
    def test_first_witness_matches_the_all_indices_loop(self, quotients):
        seen_false = 0
        for L in quotients[:16]:
            candidates = [Subspace.span([{i: F(1)}], L.dim) for i in range(L.dim)]
            candidates += [
                Subspace.span([{i: F(1), j: F(2)}], L.dim)
                for i in range(L.dim)
                for j in range(i + 1, L.dim)
                if L.parities[i] == L.parities[j]
            ]
            candidates += [L.gamma(2), L.center(), Subspace.span([{0: F(1), L.dim - 1: F(1)}], L.dim)]
            for S in candidates:
                got = L.is_graded_ideal(S)
                assert got == reference_ideal_witness(L, S), (L.name, S)
                seen_false += not got[0]
        assert seen_false > 100


def test_validate_evaluates_only_nested_triples(monkeypatch):
    """Free (2|1) class 5: 139 nonzero pairs of 3,486, and Jacobi residuals
    at the 107 triples i <= j <= k of 98,770 with a nonzero nested
    bracket; 9,497 touch a nonzero pair."""
    A = build_free_nilpotent(GeneratorSpec(2, 1, 5)).algebra
    L = LieSuperalgebra(A.name, A.basis_labels, A.parities, _table(A))
    calls = []
    original = LieSuperalgebra._jacobi_residual

    def counted(self, i, j, k):
        calls.append((i, j, k))
        return original(self, i, j, k)

    monkeypatch.setattr(LieSuperalgebra, "_jacobi_residual", counted)
    assert L.validate().ok
    assert L.dim == 83 and comb(L.dim + 2, 3) == 98_770
    assert len(L.nonzero_pairs()) == 139
    assert len(list(touching_triples(L))) == 9_497
    nested = [
        (i, j, k)
        for i, j, k in touching_triples(L)
        if any(
            L.bracket_basis(a, t)
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
            for t in L.bracket_basis(b, c)
        )
    ]
    assert len(calls) == 107
    assert calls == nested
