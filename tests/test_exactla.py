from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superschur.exactla import (
    Matrix,
    SparseEchelon,
    Subspace,
    axpy,
    kernel,
    rref,
)

from support import (
    SubspaceError,
    basis,
    complement_rows,
    dense,
    dense_rank,
    matrix_rank,
    sparse,
    subspace_intersect,
    subspace_sum,
)

F = Fraction


def matrix(rows) -> Matrix:
    """The Matrix with these nonempty equal-length rows of rational-like entries."""
    return Matrix(len(rows), len(rows[0]), tuple(F(x) for row in rows for x in row))


def identity(n: int) -> Matrix:
    return matrix([[int(i == j) for j in range(n)] for i in range(n)])


def columns(m: Matrix) -> list[dict]:
    """The columns of m as sparse vectors."""
    return [sparse(m.entries[j::m.cols]) for j in range(m.cols)]


def solve(m: Matrix, b) -> dict | None:
    """Some x with m x = b, as a sparse vector, or None: b expressed over
    m's columns, column j tagged m.rows + j."""
    ech = SparseEchelon()
    for j, col in enumerate(columns(m)):
        ech.insert({**col, m.rows + j: 1})
    x = ech.express(sparse(b), m.rows)
    return None if x is None else {t - m.rows: c for t, c in x.items()}


entries = st.integers(-4, 4).map(F) | st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


def _with_combinations(data) -> list[dict]:
    """Columns followed by combinations of them; a combination reads its
    indices modulo the number of columns."""
    cols, combos = data
    out = list(cols)
    for terms in combos:
        v: dict = {}
        for idx, c in terms:
            axpy(v, c, cols[idx % len(cols)])
        out.append(v)
    return out


keyed_columns = st.tuples(
    st.lists(
        st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), entries, max_size=5),
        min_size=1,
        max_size=6,
    ),
    st.lists(st.lists(st.tuples(st.integers(0, 9), entries), min_size=1, max_size=3), max_size=4),
).map(_with_combinations)


def small_matrices(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(matrix)
        )
    )


class TestRref:
    def test_identity(self):
        m = identity(3)
        red, rank = rref(m)
        assert red == m
        assert rank == 3

    def test_zero(self):
        m = matrix([[0, 0], [0, 0]])
        red, rank = rref(m)
        assert red == m
        assert rank == 0

    def test_dependent_rows(self):
        m = matrix([[1, 2], [2, 4]])
        red, rank = rref(m)
        assert rank == 1
        assert red.row(0) == (F(1), F(2))
        assert red.row(1) == (F(0), F(0))

    @given(small_matrices())
    @settings(max_examples=60, deadline=None)
    def test_output_is_reduced_row_echelon(self, m):
        red, rank = rref(m)
        assert rank == matrix_rank(m)
        rows = [red.row(i) for i in range(red.rows)]
        assert (red.rows, red.cols) == (m.rows, m.cols)
        assert not any(x for row in rows[rank:] for x in row)
        pivots = [next(j for j, x in enumerate(row) if x != 0) for row in rows[:rank]]
        assert pivots == sorted(set(pivots))
        for i, p in enumerate(pivots):
            assert [row[p] for row in rows] == [F(int(k == i)) for k in range(m.rows)]
        span = Subspace.span([sparse(m.row(i)) for i in range(m.rows)], m.cols)
        assert tuple(rows[:rank]) == basis(span)


class TestDenseRankOracle:
    def test_known_ranks(self):
        assert dense_rank([]) == 0
        assert dense_rank([[0, 0], [0, 0]]) == 0
        assert dense_rank([[1, 2], [2, 4]]) == 1
        assert dense_rank([[0, 1, 1], [1, 0, 1], [1, 1, 2]]) == 2
        assert matrix_rank(identity(3)) == 3


class TestNullspace:
    """{v : m v = 0} as the kernel of m's sparse columns."""

    def test_identity_has_trivial_kernel(self):
        assert kernel(columns(identity(2))).dim == 0

    def test_difference_functional(self):
        ns = kernel(columns(matrix([[1, -1]])))
        assert basis(ns) == ((F(1), F(1)),)

    def test_rank_one(self):
        ns = kernel(columns(matrix([[1, 2], [2, 4]])))
        assert ns.dim == 1
        assert ns == Subspace.span([sparse([-2, 1])], 2)

    @given(small_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, m):
        _, rank = rref(m)
        assert rank + kernel(columns(m)).dim == m.cols

    @given(small_matrices())
    @settings(max_examples=60, deadline=None)
    def test_kernel_vectors_annihilate(self, m):
        ns = kernel(columns(m))
        for row in basis(ns):
            assert all(x == 0 for x in m.mul_vec(row))

    @given(keyed_columns)
    @settings(max_examples=80, deadline=None)
    def test_tuple_keyed_fraction_columns(self, cols):
        # the center's column shape: keys (j, t), Fraction entries
        ns = kernel(cols)
        keys = sorted({k for col in cols for k in col})
        assert ns.dim == len(cols) - dense_rank([[col.get(k, 0) for col in cols] for k in keys])
        assert ns == Subspace.span(ns.rows, len(cols))
        for row in ns.rows:
            total: dict = {}
            for j, c in row.items():
                axpy(total, c, cols[j])
            assert total == {}

    @given(keyed_columns)
    @settings(max_examples=60, deadline=None)
    def test_dim_and_pivots_come_before_the_reduced_rows(self, cols):
        # the kernel's relation rows are kept as they are: dim, pivots and
        # non_pivots are read off them, and the reduced rows made on first
        # read are the span's canonical rows with those pivots
        ns = kernel(cols)
        early = ns.dim, ns.pivots, ns.non_pivots
        assert "rows" not in vars(ns)
        want = Subspace.span(ns.rows, len(cols))
        assert early == (want.dim, want.pivots, want.non_pivots)
        assert ns.rows == want.rows and hash(ns) == hash(want)


class TestSubspace:
    def test_sum_of_lines(self):
        u = Subspace.span([sparse([1, 0, 0])], 3)
        w = Subspace.span([sparse([0, 1, 0])], 3)
        assert subspace_sum(u, w).dim == 2

    def test_sum_idempotent(self):
        u = Subspace.span([sparse([1, 2, 3]), sparse([0, 1, 1])], 3)
        assert subspace_sum(u, u) == u

    def test_sum_reaches_full_space(self):
        u = Subspace.span([sparse([1, 0, 0]), sparse([0, 1, 0])], 3)
        w = Subspace.span([sparse([0, 1, 0]), sparse([0, 0, 1])], 3)
        assert subspace_sum(u, w) == Subspace.full(3)

    def test_intersection_of_planes(self):
        u = Subspace.span([sparse([1, 0, 0]), sparse([0, 1, 0])], 3)
        w = Subspace.span([sparse([0, 1, 0]), sparse([0, 0, 1])], 3)
        assert subspace_intersect(u, w) == Subspace.span([sparse([0, 1, 0])], 3)

    def test_intersection_with_full_and_zero(self):
        u = Subspace.span([sparse([1, 1, 0])], 3)
        assert subspace_intersect(u, Subspace.full(3)) == u
        assert subspace_intersect(u, Subspace(3, ())).dim == 0

    def test_ambient_mismatch(self):
        with pytest.raises(SubspaceError):
            complement_rows(Subspace.full(2), Subspace.full(3))

    def test_quotient_dim(self):
        # dim(u/w) is the number of complement rows
        u = Subspace.full(3)
        w = Subspace.span([sparse([0, 0, 1])], 3)
        assert len(complement_rows(u, w)) == 2
        assert complement_rows(u, u) == ()
        assert len(complement_rows(Subspace.span([{i: F(1)} for i in range(5)], 5),
                                   Subspace(5, ()))) == 5

    def test_quotient_containment_failure_carries_witness(self):
        u = Subspace.span([sparse([1, 0, 0])], 3)
        w = Subspace.span([sparse([0, 1, 0])], 3)
        with pytest.raises(SubspaceError, match="witness"):
            complement_rows(u, w)

    def test_witness_names_only_the_nonzero_entries(self):
        u = Subspace.span([sparse([1, 0, 0, 0])], 4)
        w = Subspace.span([sparse([0, 1, 0, F(-1, 2)])], 4)
        with pytest.raises(SubspaceError) as err:
            complement_rows(u, w)
        assert str(err.value) == (
            "quotient undefined: witness {1: 1, 3: -1/2} lies outside the numerator"
        )

    def test_complement_rows(self):
        u = Subspace.full(3)
        w = Subspace.span([sparse([0, 1, 0])], 3)
        comp = complement_rows(u, w)
        assert subspace_sum(Subspace.span(comp, 3), w) == u
        assert len(comp) == 2


@st.composite
def subspace_pairs(draw):
    n = draw(st.integers(1, 5))
    mk = lambda: Subspace.span(
        map(
            sparse,
            draw(
                st.lists(
                    st.lists(entries, min_size=n, max_size=n), min_size=0, max_size=n
                )
            ),
        ),
        n,
    )
    return mk(), mk()


@given(subspace_pairs())
@settings(max_examples=60, deadline=None)
def test_modular_dimension_law(pair):
    u, w = pair
    assert (
        subspace_sum(u, w).dim + subspace_intersect(u, w).dim == u.dim + w.dim
    )


def _rank_contains(u, v):
    """Membership by the rank oracle: dense rank of u's basis plus v."""
    return dense_rank(list(basis(u)) + [v]) == u.dim


@given(subspace_pairs())
@settings(max_examples=40, deadline=None)
def test_intersection_members_lie_in_both(pair):
    u, w = pair
    for row in subspace_intersect(u, w).rows:
        assert u.contains(row) and w.contains(row)
    # reduce and contains on the sparse rows against the rank oracle
    probes = list(basis(w)) + [
        tuple(a + b for a, b in zip(x, y)) for x, y in zip(basis(u), basis(w))
    ]
    for v in probes:
        inside = _rank_contains(u, v)
        sv = sparse(v)
        red = u.reduce(sv)
        assert sv == sparse(v)  # reduce works on a copy
        assert not any(p in red for p in u.pivots)
        assert _rank_contains(u, [a - b for a, b in zip(v, dense(red, u.ambient_dim))])
        assert u.contains(sv) == (not red) == inside
    # complement_rows: dim u - dim w rows when w ⊆ u, a witness otherwise
    if all(_rank_contains(u, row) for row in basis(w)):
        comp = complement_rows(u, w)
        assert len(comp) == u.dim - w.dim
        assert subspace_sum(Subspace.span(comp, u.ambient_dim), w) == u
    else:
        with pytest.raises(SubspaceError, match="witness"):
            complement_rows(u, w)


@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=n),
            st.lists(
                st.lists(st.integers(-3, 3), min_size=1, max_size=3),
                min_size=1,
                max_size=4,
            ),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_canonical_basis_is_spanning_set_independent(data):
    vecs, mixes = data
    n = len(vecs[0])
    u = Subspace.span(map(sparse, vecs), n)
    recombined = []
    for mix in mixes:
        v = [F(0)] * n
        for c, row in zip(mix, vecs):
            for t in range(n):
                v[t] += c * row[t]
        recombined.append(v)
    w = Subspace.span(map(sparse, list(vecs) + recombined), n)
    assert w == u  # bit-identical canonical bases
    assert hash(w) == hash(u)
    flipped = Subspace.span([dict(reversed(row.items())) for row in u.rows], n)
    assert flipped == u and hash(flipped) == hash(u)  # key order is not data
    assert Subspace.span(map(sparse, reversed(recombined + list(vecs))), n) == u
    # the rows are canonical: each pivot is its row's smallest key, it is
    # 1, every other row is 0 there, and pivots increase along the rows
    assert list(u.pivots) == sorted(set(u.pivots))
    for i, (row, p) in enumerate(zip(u.rows, u.pivots)):
        assert min(row) == p and row[p] == 1 and all(row.values())
        assert all(p not in other for t, other in enumerate(u.rows) if t != i)


@given(
    st.integers(2, 5).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=2, max_size=6)
    )
)
@settings(max_examples=60, deadline=None)
def test_an_echelon_snapshot_is_its_span_then_and_stays_so(vecs):
    # dim and pivots come off the stored rows before any reduced row is
    # made; the rows, made on first read, are the span's canonical rows;
    # later insertions into the echelon leave the snapshot as it was
    n = len(vecs[0])
    half = len(vecs) // 2
    ech = SparseEchelon()
    for v in vecs[:half]:
        ech.insert(sparse(v))
    snap = Subspace.of_echelon(ech, n)
    early = Subspace.span(map(sparse, vecs[:half]), n)
    for v in vecs[half:]:
        ech.insert(sparse(v))
    assert (snap.dim, snap.pivots, snap.non_pivots) == (
        early.dim, early.pivots, early.non_pivots
    )
    assert snap == early and hash(snap) == hash(early)
    assert snap.rows == early.rows and len(snap.rows) == snap.dim
    assert Subspace.of_echelon(ech, n) == Subspace.span(map(sparse, vecs), n)


def test_solve_consistent_and_inconsistent():
    """m x = b solved by expressing b over m's columns."""
    m = matrix([[1, 2], [3, 4]])
    x = solve(m, [5, 6])
    assert x is not None and m.mul_vec(dense(x, m.cols)) == (F(5), F(6))
    singular = matrix([[1, 1], [1, 1]])
    assert solve(singular, [0, 1]) is None


@given(
    small_matrices().flatmap(
        lambda m: st.tuples(
            st.just(m), st.lists(entries, min_size=m.cols, max_size=m.cols)
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_solve_finds_a_preimage(data):
    m, x = data
    b = m.mul_vec(x)
    y = solve(m, b)
    assert y is not None and m.mul_vec(dense(y, m.cols)) == b


class TestAxpy:
    def test_int_data_stays_int(self):
        y = {0: 1, 1: 2}
        axpy(y, -1, {1: 2, 2: 3})
        assert y == {0: 1, 2: -3}
        assert all(type(c) is int for c in y.values())

    def test_fraction_data_stays_fraction(self):
        y = {0: F(1, 2)}
        axpy(y, 2, {0: F(-1, 4), 1: F(1, 3)})
        assert y == {1: F(2, 3)}
        assert all(type(c) is Fraction for c in y.values())

    def test_zero_products_are_not_stored(self):
        y: dict = {}
        axpy(y, 0, {0: 1, 1: F(1)})
        assert y == {}


class TestSparseEchelon:
    def test_int_rows_become_fractions(self):
        # the free associative layer inserts int expansions; the engine's
        # rows and expressions are Fractions all the same
        ech, aug = SparseEchelon(), SparseEchelon()
        assert ech.insert({0: 2, 1: 4}) and aug.insert({0: 2, 1: 4, 4: 1})
        assert ech.insert({1: 3, 2: -3}) and aug.insert({1: 3, 2: -3, 3: 1})
        assert ech.rows() == ({0: 1, 2: 2}, {1: 1, 2: -1})
        coeffs = aug.express({0: 2, 1: 7, 2: -3}, 3)
        assert coeffs == {4: 1, 3: 1}
        values = [c for row in ech.rows() for c in row.values()] + list(coeffs.values())
        assert all(type(c) is Fraction for c in values)

    def test_rank_and_rejection(self):
        ech = SparseEchelon()
        assert ech.insert({("a",): F(1), ("b",): F(2)})
        assert not ech.insert({("a",): F(2), ("b",): F(4)})
        assert ech.insert({("b",): F(1)})
        assert ech.rank == 2

    def test_express_recovers_combination(self):
        ech = SparseEchelon()
        v0 = {("x",): F(1), ("y",): F(1)}
        v1 = {("y",): F(1), ("z",): F(3)}
        # "~" sorts after every letter, so the tags follow the real keys
        ech.insert({**v0, ("~", "first"): 1})
        ech.insert({**v1, ("~", "second"): 1})
        target = {("x",): F(2), ("y",): F(5), ("z",): F(9)}
        coeffs = ech.express(target, ("~",))
        assert coeffs == {("~", "first"): F(2), ("~", "second"): F(3)}
        assert ech.express({("w",): F(1)}, ("~",)) is None
