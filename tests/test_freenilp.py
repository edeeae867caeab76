import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superschur.catalog import heisenberg3, special_heisenberg_odd
from superschur import exactla
from superschur.exactla import SparseEchelon, axpy
from superschur.freenilp import (
    GeneratorSpec,
    _commutator,
    build_free_nilpotent,
    eval_hom,
    evaluate_word,
    expand,
    free_superalgebra_degree_dims,
    hilbert_check,
    koszul_sign,
    left_normed_word,
    rewrite_identity_terms,
    right_normed_word,
    rewrite_identity_residual,
    rewrite_tensor_terms,
    word_leaves,
)
from superschur.superalg import AlgebraError, SuperDim
from support import (
    coded,
    dense,
    dense_rank,
    reference_build,
    reference_expressions,
    reference_generator_columns,
    reference_identity_residual,
    word_parity,
)

F = Fraction


def unit(i: int) -> dict:
    return {i: F(1)}


class TestExpand:
    def test_even_commutator(self):
        # [g1, g2] with both even
        assert expand((0, 1), (0, 0)) == {(0, 1): F(1), (1, 0): F(-1)}

    def test_odd_square_doubles(self):
        # [f, f] with f odd: ff - (-1)^{1*1} ff = 2 ff
        assert expand((0, 0), (1,)) == {(0, 0): F(2)}

    def test_iterated_commutator(self):
        got = expand(((0, 1), 2), (0, 0, 0))
        assert got == {
            (0, 1, 2): F(1),
            (1, 0, 2): F(-1),
            (2, 0, 1): F(-1),
            (2, 1, 0): F(1),
        }

    def test_graded_skew_of_expansions(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(1, 3)
            parities = tuple(rng.randint(0, 1) for _ in range(n))

            def random_word(depth):
                if depth == 0 or rng.random() < 0.4:
                    return rng.randrange(n)
                return (random_word(depth - 1), random_word(depth - 1))

            x = random_word(2)
            y = random_word(2)
            sign = F((-1) ** (word_parity(x, parities) * word_parity(y, parities)))
            lhs = expand((x, y), parities)
            rhs = expand((y, x), parities)
            total = dict(lhs)
            for k, c in rhs.items():
                total[k] = total.get(k, F(0)) + sign * c
            assert not {k: c for k, c in total.items() if c}


@st.composite
def distinct_letter_words(draw):
    """A full binary bracket word on the letters 0..n-1, each used once, in
    a random shape and leaf order (n <= 7), with random parities."""
    n = draw(st.integers(1, 7))
    letters = draw(st.permutations(range(n)))

    def build(lo, hi):
        if hi - lo == 1:
            return letters[lo]
        mid = draw(st.integers(lo + 1, hi - 1))
        return (build(lo, mid), build(mid, hi))

    parities = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return build(0, n), parities


class TestKoszulRule:
    @given(distinct_letter_words())
    @settings(max_examples=200, deadline=None)
    def test_super_expansion_is_even_expansion_times_koszul_signs(self, case):
        w, parities = case
        even = expand(w, (0,) * len(parities))
        sign = koszul_sign(word_leaves(w), parities)
        want = {u: c * koszul_sign(u, parities) * sign for u, c in even.items()}
        assert expand(w, parities) == want

    def test_a_repeated_odd_letter_breaks_the_rule(self):
        # why the free build keeps `_expansion`: its words repeat letters,
        # and [f1, f1] = 2 f1 f1 has no even expansion to be signed from
        assert expand((0, 0), (1,)) == {(0, 0): 2}
        assert expand((0, 0), (0,)) == {}


class TestWordConstructors:
    def test_left_normed_shape(self):
        assert left_normed_word([0, 1, 2]) == ((0, 1), 2)

    def test_right_normed_shape(self):
        assert right_normed_word([0, 1, 2]) == (0, (1, 2))

    def test_degree_counts_leaves(self):
        assert len(word_leaves(((0, 1), (2, 3)))) == 4


class TestBuild:
    def test_single_even_generator(self):
        f = build_free_nilpotent(GeneratorSpec(1, 0, 3))
        assert f.total_dims == SuperDim(1, 0)
        assert f.algebra.nilpotency_class() == 1

    def test_single_odd_generator(self):
        # one odd generator: [f,f] survives in degree 2, degree 3 dies
        # (the expansion of [[f,f],f] cancels identically)
        f = build_free_nilpotent(GeneratorSpec(0, 1, 3))
        assert [str(d) for d in f.degree_dims()] == ["(0|1)", "(1|0)", "(0|0)"]
        assert f.total_dims == SuperDim(1, 1)

    def test_two_even_generators_class_two(self):
        f = build_free_nilpotent(GeneratorSpec(2, 0, 2))
        assert f.total_dims == SuperDim(3, 0)
        assert f.degree_dims()[1] == SuperDim(1, 0)

    def test_expansion_rank_equals_basis_size(self):
        spec = GeneratorSpec(2, 1, 3)
        f = build_free_nilpotent(spec)
        for words in f.degree_words:
            ech = SparseEchelon()
            assert all(ech.insert(expand(w, spec.parities)) for w in words)

    @pytest.mark.parametrize(
        "p,q,k", [(1, 0, 4), (0, 1, 5), (2, 0, 4), (1, 1, 4), (0, 2, 4), (2, 1, 4), (1, 2, 3)]
    )
    def test_keeps_the_words_of_the_all_tuples_selection(self, p, q, k):
        # the reference selection: the left-normed words of all index tuples
        # in lexicographic order, each kept when its expansion is independent
        spec = GeneratorSpec(p, q, k)
        reference = []
        for d in range(1, k + 1):
            ech, words = SparseEchelon(), []
            for tup in itertools.product(range(spec.num), repeat=d):
                w = left_normed_word(tup)
                e = expand(w, spec.parities)
                if e and ech.insert(e):
                    words.append(w)
            reference.append(words)
        assert build_free_nilpotent(spec).degree_words == reference

    def test_gamma_filtration_matches_degrees(self):
        f = build_free_nilpotent(GeneratorSpec(2, 0, 3))
        A = f.algebra
        for d in range(1, 4):
            built = f.gamma(d)
            computed = A.gamma(d)
            assert built == computed

    def test_degree_additivity_of_brackets(self):
        f = build_free_nilpotent(GeneratorSpec(1, 1, 4))
        A = f.algebra
        for i in range(f.dim):
            for j in range(f.dim):
                z = A.bracket(unit(i), unit(j))
                dd = f.basis_degree(i) + f.basis_degree(j)
                if dd > 4:
                    assert not z
                else:
                    for t, c in z.items():
                        assert c != 0 and f.basis_degree(t) == dd


def is_lyndon(u: tuple) -> bool:
    """u is strictly smaller than each proper suffix (a prefix sorts first)."""
    return all(u < u[i:] for i in range(1, len(u)))


def draw_word(data, d: int, num: int):
    """A bracket word of degree d on num generators, of any shape."""
    if d == 1:
        return data.draw(st.integers(0, num - 1))
    left = data.draw(st.integers(1, d - 1))
    return (draw_word(data, left, num), draw_word(data, d - left, num))


class TestPivotWords:
    """The lemma the build's restriction rests on: the smallest word of a
    nonzero Lie superpolynomial is a super Lyndon–Shirshov word, so its
    first letter is smaller than its last, or it is ff for an odd f."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_smallest_word_of_a_lie_element_can_be_a_pivot(self, data):
        num = data.draw(st.integers(1, 3))
        parities = data.draw(st.lists(st.integers(0, 1), min_size=num, max_size=num))
        d = data.draw(st.integers(2, 7))
        combo: dict = {}
        for _ in range(data.draw(st.integers(1, 4))):
            c = data.draw(st.integers(-3, 3).filter(bool))
            axpy(combo, c, expand(draw_word(data, d, num), parities))
        assume(combo)
        u = min(combo)
        half = u[: d // 2]
        assert is_lyndon(u) or (
            u == half + half and is_lyndon(half) and word_parity(left_normed_word(half), parities)
        )
        # the build's test on the coded word, with ff kept at degree 2
        squares = {f * (num + 1) for f in range(num) if parities[f]} if d == 2 else ()
        k = sum(g * num ** (d - 1 - i) for i, g in enumerate(u))
        assert k // num ** (d - 1) < k % num or k in squares


class TestValidateSweep:
    @pytest.mark.parametrize(
        "p,q",
        [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)],
    )
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_assembled_algebra_is_valid(self, p, q, k):
        f = build_free_nilpotent(GeneratorSpec(p, q, k))
        assert f.algebra.validate().ok
        assert f.algebra.nilpotency_class() <= k


class TestHilbert:
    def test_two_even_class_five(self):
        # classical word-counting values for two letters: 2, 1, 2, 3, 6
        dims = free_superalgebra_degree_dims(2, 0, 5)
        assert [d.even for d in dims] == [2, 1, 2, 3, 6]
        assert all(d.odd == 0 for d in dims)

    def test_single_even(self):
        assert free_superalgebra_degree_dims(1, 0, 4) == [
            SuperDim(1, 0),
            SuperDim(0, 0),
            SuperDim(0, 0),
            SuperDim(0, 0),
        ]

    def test_single_odd_class_four(self):
        assert free_superalgebra_degree_dims(0, 1, 4) == [
            SuperDim(0, 1),
            SuperDim(1, 0),
            SuperDim(0, 0),
            SuperDim(0, 0),
        ]

    @pytest.mark.parametrize(
        "p,q",
        [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)],
    )
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_counting_oracle_agrees_with_construction(self, p, q, k):
        f = build_free_nilpotent(GeneratorSpec(p, q, k))
        assert hilbert_check(f) == []


class TestLemma31:
    def test_all_even_arity_three(self):
        assert rewrite_identity_residual(3, (0, 0, 0, 0)) == {}

    def test_all_odd_arity_three(self):
        assert rewrite_identity_residual(3, (1, 1, 1, 1)) == {}

    def test_mixed_arity_four(self):
        assert rewrite_identity_residual(4, (0, 1, 0, 1, 0)) == {}

    @pytest.mark.parametrize("i", [2, 3, 4, 5])
    def test_full_parity_sweep(self, i):
        for parities in itertools.product((0, 1), repeat=i + 1):
            assert rewrite_identity_residual(i, parities) == {}, (i, parities)

    def test_arity_three_matches_five_term_proof_form(self):
        # independent transcription of the identity actually derived for
        # i = 3, written directly from two graded Jacobi instances
        for par in itertools.product((0, 1), repeat=4):
            p1, p2, p3, p4 = par

            def s(e):
                return F((-1) ** (e % 2))

            terms = [
                (s((p1 + p2) * p4), (((0, 1), 2), 3)),
                (s(p3 * p4), ((3, (0, 1)), 2)),
                (s((p3 + p4) * p2), (((2, 3), 0), 1)),
                (s(p2 * p1), ((1, (2, 3)), 0)),
                (
                    (s(p1 * p3) - s(p2 * p4)) * s(p1 * p4),
                    ((0, 1), (2, 3)),
                ),
            ]
            total: dict = {}
            for coeff, word in terms:
                for k, c in expand(word, par).items():
                    total[k] = total.get(k, F(0)) + coeff * c
            assert not {k: c for k, c in total.items() if c}
            # and it coincides term-by-term with the general construction
            general = rewrite_identity_terms(3, par)
            got = {w: c for c, w in general}
            want = {w: c for c, w in terms if c}
            assert got == want

    @pytest.mark.parametrize(
        "flip", [None, "rewrite_head_sign", "rewrite_term_sign", "rewrite_brace_coeff"]
    )
    @pytest.mark.parametrize("i", [2, 3, 4, 5, 6, 7])
    def test_matches_the_direct_super_expansion(self, i, flip, monkeypatch):
        # with a sign flipped every residual is nonzero, and with the brace
        # coefficient zeroed every residual whose brace term it drops, so
        # the signed entries are compared too, not only the empty dicts
        from superschur import freenilp

        brace = freenilp.rewrite_brace_coeff
        if flip == "rewrite_brace_coeff":
            monkeypatch.setattr(freenilp, flip, lambda *args: 0)
        elif flip:
            sign = getattr(freenilp, flip)
            monkeypatch.setattr(freenilp, flip, lambda *args: -sign(*args))
        for parities in itertools.product((0, 1), repeat=i + 1):
            got = rewrite_identity_residual(i, parities)
            assert got == reference_identity_residual(i, parities), parities
            broken = brace(i, parities) != 0 if flip == "rewrite_brace_coeff" else bool(flip)
            assert bool(got) == broken and _ints(got.values()), parities

    def test_a_passing_pattern_sums_no_expansion(self, monkeypatch):
        # once K_i is built, a pattern the identity holds for is one kernel
        # membership test: no expansion is added up
        from superschur import freenilp

        for i in range(2, 8):
            rewrite_identity_residual(i, (0,) * (i + 1))
        patterns = [p for i in range(2, 8) for p in itertools.product((0, 1), repeat=i + 1)]

        def forbidden(*args):
            raise AssertionError("a passing pattern summed its expansions")

        monkeypatch.setattr(freenilp, "axpy", forbidden)
        for parities in patterns:
            assert rewrite_identity_residual(len(parities) - 1, parities) == {}, parities

    def test_low_arity_rejected(self):
        with pytest.raises(AlgebraError):
            rewrite_identity_residual(1, (0, 0))


def _ints(coeffs) -> bool:
    return all(type(c) is int for c in coeffs)


class TestIntegerCoefficients:
    """The free associative layer computes in int; the engine's rows stay Fractions."""

    def test_candidate_expansions_are_int(self):
        f = build_free_nilpotent(GeneratorSpec(1, 2, 4))
        pars = f.spec.parities
        for d in range(1, 5):
            for w, _, e in f._candidates(d):
                got = expand(w, pars)
                num = f.spec.num
                want = coded(got, num)
                if d == 4:  # the top degree: only the words whose first letter < last
                    want = {u: c for u, c in want.items() if u // num**3 < u % num}
                assert want == e, w
                assert _ints(got.values()) and _ints(e.values()), w

    def test_engine_rows_and_subspaces_stay_fractions(self):
        f = build_free_nilpotent(GeneratorSpec(1, 2, 4))
        values = []
        for words in f.degree_words:
            ech = SparseEchelon()
            for w in words:
                ech.insert(expand(w, f.spec.parities))
            values += [c for row in ech.rows() for c in row.values()]
        A = f.algebra
        for S in (f.gamma(2), A.gamma(2), A.gamma(3), A.center()):
            values += [c for row in S.rows for c in row.values()]
        values += [c for i in range(A.dim) for j in range(A.dim)
                   for c in A.bracket_basis(i, j).values()]
        assert values and all(type(c) is Fraction for c in values)

    @pytest.mark.parametrize("i", [2, 3, 4, 5])
    def test_identity_terms_are_int(self, i):
        for parities in itertools.product((0, 1), repeat=i + 1):
            terms = rewrite_identity_terms(i, parities)
            assert _ints(c for c, _ in terms), parities
            assert _ints(c for c, _, _ in rewrite_tensor_terms(i, parities)), parities
            for _, word in terms:
                assert _ints(expand(word, parities).values()), (parities, word)

    @pytest.mark.parametrize("i", [2, 3, 4, 5])
    def test_flipped_head_sign_leaves_an_int_residual(self, i, monkeypatch):
        # the residual is then -2 * (head sign) * (head term), nonzero and int
        from superschur import freenilp

        sign = freenilp.rewrite_head_sign
        monkeypatch.setattr(freenilp, "rewrite_head_sign", lambda i, p: -sign(i, p))
        for parities in itertools.product((0, 1), repeat=i + 1):
            head = (left_normed_word(range(i)), i)
            want = {k: -2 * sign(i, parities) * c for k, c in expand(head, parities).items()}
            residual = rewrite_identity_residual(i, parities)
            assert residual and residual == want, parities
            assert _ints(residual.values()), parities


class TestTensorTerms:
    @pytest.mark.parametrize("i", [2, 3, 4, 5])
    def test_folded_terms_expand_to_zero(self, i):
        # every term is [u, x_k] with u of degree i, and the sum still vanishes
        for parities in itertools.product((0, 1), repeat=i + 1):
            residual: dict = {}
            for coeff, u, k in rewrite_tensor_terms(i, parities):
                assert len(word_leaves(u)) == i
                axpy(residual, coeff, expand((u, k), parities))
            assert residual == {}, (i, parities)

    def test_brace_term_folds_into_two_terms(self):
        # at (0, 1, 0, 1) the brace term of the i = 3 identity is
        # 2 [[x1, x2], [x3, x4]] = 2 [[[x1, x2], x3], x4] - 2 [[[x1, x2], x4], x3]
        par = (0, 1, 0, 1)
        assert rewrite_identity_terms(3, par)[-1] == (F(2), ((0, 1), (2, 3)))
        terms = rewrite_tensor_terms(3, par)
        assert terms[-2:] == [(F(2), ((0, 1), 2), 3), (F(-2), ((0, 1), 3), 2)]
        assert len(terms) == len(rewrite_identity_terms(3, par)) + 1


def _table_matches_the_expansions(f) -> None:
    """The associative embedding as the oracle of f's table: for i <= j
    with deg i + deg j <= k, the table's [b_i, b_j] expands to the
    commutator of the expansions of b_i and b_j; above k it is 0."""
    A, k, pars = f.algebra, f.spec.class_bound, f.spec.parities
    expansions = [expand(f.basis_word(i), pars) for i in range(f.dim)]
    for i in range(f.dim):
        for j in range(i, f.dim):
            if f.basis_degree(i) + f.basis_degree(j) > k:
                assert not A.bracket_basis(i, j), (i, j)
                continue
            got: dict = {}
            for m, c in A.bracket_basis(i, j).items():
                axpy(got, c, expansions[m])
            want = _commutator(expansions[i], A.parities[i], expansions[j], A.parities[j])
            assert got == want, (i, j)


def _columns_match_the_table(f) -> None:
    """The generator columns are the table's brackets with the generators,
    and the table matches the associative embedding."""
    _table_matches_the_expansions(f)
    A = f.algebra
    columns = f.generator_columns()
    for t in range(f.spec.num):
        g = f.generator_basis_index(t)
        for x in range(f.dim):
            assert columns[t][x] == A.bracket_basis(x, g), (x, t)


def _derived_pairs(f) -> list[tuple[int, int]]:
    """The (x, t) below the top degree whose candidate [w_x, g_t] the
    build did not keep: rejected, or with an empty expansion."""
    words = {f.basis_word(i) for i in range(f.dim)}
    return [
        (x, t)
        for x in range(f.dim)
        for t in range(f.spec.num)
        if f.basis_degree(x) < f.spec.class_bound and (f.basis_word(x), t) not in words
    ]


EMBEDDING_SPECS = [
    (p, n - p, k) for n in (1, 2, 3) for p in range(n + 1) for k in range(1, 6 if n < 3 else 5)
] + [(2, 1, 6), (2, 1, 7), (1, 1, 10)]


class TestTableFill:
    """The table filled from the generator columns, against the associative
    embedding of F, and with nothing eliminated on the way."""

    @pytest.mark.parametrize("p,q,k", EMBEDDING_SPECS)
    def test_table_matches_the_expansions(self, p, q, k):
        _table_matches_the_expansions(build_free_nilpotent(GeneratorSpec(p, q, k)))

    @pytest.mark.parametrize("p,q,k", [(2, 1, 5), (1, 2, 4)])
    def test_the_fill_reads_only_the_columns(self, p, q, k, monkeypatch):
        from superschur import freenilp

        want = build_free_nilpotent(GeneratorSpec(p, q, k)).algebra
        f = build_free_nilpotent(GeneratorSpec(p, q, k))
        f.generator_columns()

        def forbidden(*args):
            raise AssertionError("the fill expanded or eliminated")

        monkeypatch.setattr(freenilp, "_commutator", forbidden)
        monkeypatch.setattr(SparseEchelon, "insert", forbidden)
        monkeypatch.setattr(SparseEchelon, "express", forbidden)
        A = f.algebra
        assert A.validate().ok
        assert A._raw == want._raw


# the class-six specs of `test_class_six_rejected_candidates`, free (2|1) class 7
# and free (1|1) class 10
PIVOT_SPECS = [(2, 1, 6), (1, 2, 6), (2, 1, 7), (1, 1, 10)]
# high class on few generators, where the words that can be a pivot are
# the fewest share of all words
HIGH_CLASS_SPECS = [(0, 2, 8), (0, 1, 9), (0, 2, 10), (3, 0, 7), (0, 3, 7), (1, 2, 7), (2, 2, 6)]


class TestGeneratorColumns:
    """[x, g] read off the build against the table filled from them, and
    both against the associative embedding."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(1, 4))
        .filter(lambda s: s[0] + s[1] >= 1)
        .map(lambda s: GeneratorSpec(*s))
    )
    def test_columns_match_the_assembled_table(self, spec):
        _columns_match_the_table(build_free_nilpotent(spec))

    @pytest.mark.parametrize("p,q,k", PIVOT_SPECS + [(2, 1, 8), (0, 3, 5)] + HIGH_CLASS_SPECS)
    def test_the_coded_build_matches_the_tuple_keyed_build(self, p, q, k):
        f = build_free_nilpotent(GeneratorSpec(p, q, k))
        assert f.degree_words == reference_build(f.spec)
        assert f.generator_columns() == reference_generator_columns(f)

    @pytest.mark.parametrize("p,q,k", PIVOT_SPECS + HIGH_CLASS_SPECS)
    def test_the_recorded_expressions_are_those_of_the_whole_expansions(self, p, q, k):
        # the build eliminates on the words that can be a pivot, which are
        # the pivots of the whole expansions too, so each reduction runs as
        # it does on the whole expansions; only a row whose restriction has
        # a larger gcd could change the ints, and on these specs none does
        f = build_free_nilpotent(GeneratorSpec(p, q, k))
        assert f._expressed == reference_expressions(f.spec)

    @pytest.mark.parametrize("p,q,k", PIVOT_SPECS)
    def test_columns_equal_the_unrestricted_solve(self, p, q, k):
        # `==` takes the int 1 for Fraction(1), so the types are compared too:
        # int when integral, Fraction otherwise
        f = build_free_nilpotent(GeneratorSpec(p, q, k))
        got, want = f.generator_columns(), reference_generator_columns(f)
        assert got == want
        for cols, want_cols in zip(got, want, strict=True):
            for col, want_col in zip(cols, want_cols, strict=True):
                assert [type(c) for c in col.values()] == [type(c) for c in want_col.values()]

    @pytest.mark.parametrize("p,q,k", PIVOT_SPECS)
    def test_generator_columns_run_no_elimination(self, p, q, k, monkeypatch):
        # the build reduces each candidate with a nonempty expansion once,
        # and the columns are assembled from what those reductions recorded
        spec = GeneratorSpec(p, q, k)
        want = build_free_nilpotent(spec).generator_columns()
        calls = []
        for name in ("insert", "insert_or_express", "express", "remainder", "tag_rows", "rows"):
            method = getattr(SparseEchelon, name)
            monkeypatch.setattr(
                SparseEchelon, name,
                lambda e, *args, name=name, method=method: calls.append(name) or method(e, *args),
            )
        f = build_free_nilpotent(spec)
        candidates = spec.num + sum(
            1 for words in f.degree_words[:-1] for w in words for t in range(spec.num)
            if expand((w, t), spec.parities)
        )
        assert calls == ["insert_or_express"] * candidates
        monkeypatch.undo()

        def forbidden(*args, **kwargs):
            raise AssertionError("the columns eliminated")

        for name, attr in vars(SparseEchelon).items():
            if callable(attr) or isinstance(attr, property):
                monkeypatch.setattr(SparseEchelon, name, forbidden)
        monkeypatch.setattr(exactla, "_reduce", forbidden)
        assert f.generator_columns() == want

    @pytest.mark.parametrize("p,q,rejected", [(2, 1, 46), (1, 2, 48)])
    def test_class_six_rejected_candidates(self, p, q, rejected):
        # 49 and 51 candidates below the top degree are not kept; three of
        # each have an empty expansion: [x, x] for even x and [[f, f], f]
        f = build_free_nilpotent(GeneratorSpec(p, q, 6))
        derived = _derived_pairs(f)
        columns = f.generator_columns()
        nonzero = [(x, t) for x, t in derived if columns[t][x]]
        assert (len(derived), len(nonzero)) == (rejected + 3, rejected)
        _columns_match_the_table(f)


class TestEvalHom:
    @pytest.mark.parametrize("p,q,k", [(2, 1, 4), (1, 2, 4), (0, 3, 3)])
    def test_columns_are_the_words_evaluated(self, p, q, k):
        # the columns filled by basis index against each basis word
        # evaluated recursively in the target, on the identity of F; the
        # columns are evaluated on the integral table, D times the table,
        # so column b is D^{deg b - 1} times the word's value
        f = build_free_nilpotent(GeneratorSpec(p, q, k))
        A = f.algebra
        images = [unit(f.generator_basis_index(t)) for t in range(f.spec.num)]
        hom = eval_hom(f, images, A)
        for b in range(f.dim):
            s = A.table_scale() ** (f.basis_degree(b) - 1)
            value = evaluate_word(A, f.basis_word(b), images, {})
            assert hom[b] == {x: s * c for x, c in value.items()}, b
            assert value == unit(b), b

    def test_identity_map(self):
        f = build_free_nilpotent(GeneratorSpec(2, 0, 2))
        A = f.algebra
        images = [unit(f.generator_basis_index(t)) for t in range(2)]
        hom = eval_hom(f, images, A)
        for i in range(f.dim):
            assert hom[i] == unit(i)

    def test_free_class_two_onto_heis3_is_iso(self):
        f = build_free_nilpotent(GeneratorSpec(2, 0, 2))
        h = heisenberg3()
        hom = eval_hom(f, [unit(0), unit(1)], h)
        rank = dense_rank([dense(c, h.dim) for c in hom])
        assert rank == 3 == f.dim

    def test_free_odd_class_two_onto_sh01_is_iso(self):
        f = build_free_nilpotent(GeneratorSpec(0, 1, 2))
        sh = special_heisenberg_odd(1)
        hom = eval_hom(f, [unit(1)], sh)
        rank = dense_rank([dense(c, sh.dim) for c in hom])
        assert rank == 2 == f.dim

    def test_parity_mismatch_rejected(self):
        f = build_free_nilpotent(GeneratorSpec(0, 1, 2))
        h = heisenberg3()
        with pytest.raises(AlgebraError, match="parity"):
            eval_hom(f, [unit(0)], h)

    def test_image_outside_the_target_rejected(self):
        f = build_free_nilpotent(GeneratorSpec(2, 0, 2))
        h = heisenberg3()
        with pytest.raises(AlgebraError, match="outside the target"):
            eval_hom(f, [unit(0), unit(3)], h)
        with pytest.raises(AlgebraError, match="outside the target"):
            eval_hom(f, [unit(0), unit(-1)], h)

    def test_wrong_number_of_images_rejected(self):
        f = build_free_nilpotent(GeneratorSpec(2, 0, 2))
        with pytest.raises(AlgebraError) as err:
            eval_hom(f, [unit(0)], heisenberg3())
        assert str(err.value) == "need 2 images, got 1"

    def test_class_violation_rejected(self):
        # a class-3 target cannot factor through a class-2 truncation
        from superschur.catalog import filiform4

        f = build_free_nilpotent(GeneratorSpec(2, 0, 2))
        with pytest.raises(AlgebraError, match="homomorphism"):
            eval_hom(f, [unit(0), unit(1)], filiform4())

    @pytest.mark.parametrize("p,q,k", [(2, 0, 2), (2, 1, 3), (1, 2, 4)])
    def test_a_perturbed_rejected_expression_is_caught(self, p, q, k):
        # the identity map of F checks every rejected candidate's expression
        f = build_free_nilpotent(GeneratorSpec(p, q, k))
        images = [unit(f.generator_basis_index(t)) for t in range(f.spec.num)]
        eval_hom(f, images, f.algebra)
        columns = f.generator_columns()
        x, t = next((x, t) for x, t in _derived_pairs(f) if columns[t][x])
        col = columns[t][x]
        m = min(col)
        col[m] += 1
        with pytest.raises(AlgebraError, match=f"fails at basis pair {x},"):
            eval_hom(f, images, f.algebra)

    def test_failure_at_word_and_odd_generator_detected(self):
        # every generator is odd, so each pair the truncation breaks is
        # (degree-2 word, odd generator): [[f_a, f_b], f_c] is zero in the
        # class-2 source but not in the class-3 target
        import re

        f = build_free_nilpotent(GeneratorSpec(0, 2, 2))
        g = build_free_nilpotent(GeneratorSpec(0, 2, 3))
        images = [unit(g.generator_basis_index(t)) for t in range(2)]
        with pytest.raises(AlgebraError, match="homomorphism") as err:
            eval_hom(f, images, g.algebra)
        x, gen = map(int, re.search(r"basis pair (\d+),(\d+)", str(err.value)).groups())
        assert f.basis_degree(x) == 2
        assert gen in {f.generator_basis_index(t) for t in range(2)}
        assert f.algebra.parities[gen] == 1

    def test_surjection_image_of_filtration_is_filtration(self):
        f = build_free_nilpotent(GeneratorSpec(2, 0, 3))
        h = heisenberg3()
        hom = eval_hom(f, [unit(0), unit(1)], h)
        for d in (1, 2, 3):
            rows = f.gamma(d).rows
            assert all(row == unit(min(row)) for row in rows)  # images are columns
            image = h.graded_span([hom[min(row)] for row in rows])
            assert image == h.gamma(d)
