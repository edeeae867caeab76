from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superschur.exactla import (
    Matrix,
    SparseEchelon,
    Subspace,
    SubspaceError,
    complement_rows,
    dense,
    is_zero_vector,
    nullspace,
    quotient_dim,
    rref,
    solve,
    subspace_intersect,
    subspace_sum,
    unit_vector,
    vadd,
    vector,
)

from support import dense_rank, matrix_rank

F = Fraction

entries = st.integers(-4, 4).map(F) | st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


def small_matrices(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(lambda rows: Matrix.from_rows(rows))
        )
    )


class TestRref:
    def test_identity(self):
        m = Matrix.identity(3)
        red, rank = rref(m)
        assert red == m
        assert rank == 3

    def test_zero(self):
        m = Matrix.zero(2, 2)
        red, rank = rref(m)
        assert red == m
        assert rank == 0

    def test_dependent_rows(self):
        m = Matrix.from_rows([[1, 2], [2, 4]])
        red, rank = rref(m)
        assert rank == 1
        assert red.row(0) == vector([1, 2])
        assert red.row(1) == vector([0, 0])

    @given(small_matrices())
    @settings(max_examples=60, deadline=None)
    def test_output_is_reduced_row_echelon(self, m):
        red, rank = rref(m)
        assert rank == matrix_rank(m)
        rows = [red.row(i) for i in range(red.rows)]
        assert (red.rows, red.cols) == (m.rows, m.cols)
        assert all(is_zero_vector(row) for row in rows[rank:])
        pivots = [next(j for j, x in enumerate(row) if x != 0) for row in rows[:rank]]
        assert pivots == sorted(set(pivots))
        for i, p in enumerate(pivots):
            assert [row[p] for row in rows] == [F(int(k == i)) for k in range(m.rows)]
        span = Subspace.span([m.row(i) for i in range(m.rows)], m.cols)
        assert tuple(rows[:rank]) == span.basis


class TestDenseRankOracle:
    def test_known_ranks(self):
        assert dense_rank([]) == 0
        assert dense_rank([[0, 0], [0, 0]]) == 0
        assert dense_rank([[1, 2], [2, 4]]) == 1
        assert dense_rank([[0, 1, 1], [1, 0, 1], [1, 1, 2]]) == 2
        assert matrix_rank(Matrix.identity(3)) == 3


class TestNullspace:
    def test_identity_has_trivial_kernel(self):
        assert nullspace(Matrix.identity(2)).dim == 0

    def test_difference_functional(self):
        ns = nullspace(Matrix.from_rows([[1, -1]]))
        assert ns.basis == (vector([1, 1]),)

    def test_rank_one(self):
        ns = nullspace(Matrix.from_rows([[1, 2], [2, 4]]))
        assert ns.dim == 1
        assert ns == Subspace.span([[-2, 1]], 2)

    @given(small_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, m):
        _, rank = rref(m)
        assert rank + nullspace(m).dim == m.cols

    @given(small_matrices())
    @settings(max_examples=60, deadline=None)
    def test_kernel_vectors_annihilate(self, m):
        ns = nullspace(m)
        for row in ns.basis:
            assert all(x == 0 for x in m.mul_vec(row))


class TestSubspace:
    def test_sum_of_lines(self):
        u = Subspace.span([[1, 0, 0]], 3)
        w = Subspace.span([[0, 1, 0]], 3)
        assert subspace_sum(u, w).dim == 2

    def test_sum_idempotent(self):
        u = Subspace.span([[1, 2, 3], [0, 1, 1]], 3)
        assert subspace_sum(u, u) == u

    def test_sum_reaches_full_space(self):
        u = Subspace.span([[1, 0, 0], [0, 1, 0]], 3)
        w = Subspace.span([[0, 1, 0], [0, 0, 1]], 3)
        assert subspace_sum(u, w) == Subspace.full(3)

    def test_intersection_of_planes(self):
        u = Subspace.span([[1, 0, 0], [0, 1, 0]], 3)
        w = Subspace.span([[0, 1, 0], [0, 0, 1]], 3)
        assert subspace_intersect(u, w) == Subspace.span([[0, 1, 0]], 3)

    def test_intersection_with_full_and_zero(self):
        u = Subspace.span([[1, 1, 0]], 3)
        assert subspace_intersect(u, Subspace.full(3)) == u
        assert subspace_intersect(u, Subspace.zero(3)).dim == 0

    def test_ambient_mismatch(self):
        with pytest.raises(SubspaceError):
            subspace_sum(Subspace.full(2), Subspace.full(3))

    def test_quotient_dim(self):
        u = Subspace.full(3)
        w = Subspace.span([[0, 0, 1]], 3)
        assert quotient_dim(u, w) == 2
        assert quotient_dim(u, u) == 0
        assert quotient_dim(Subspace.span([unit_vector(5, i) for i in range(5)], 5),
                            Subspace.zero(5)) == 5

    def test_quotient_containment_failure_carries_witness(self):
        u = Subspace.span([[1, 0, 0]], 3)
        w = Subspace.span([[0, 1, 0]], 3)
        with pytest.raises(SubspaceError, match="witness"):
            quotient_dim(u, w)

    def test_complement_rows(self):
        u = Subspace.full(3)
        w = Subspace.span([[0, 1, 0]], 3)
        comp = complement_rows(u, w)
        assert subspace_sum(Subspace.span(comp, 3), w) == u
        assert len(comp) == 2


@st.composite
def subspace_pairs(draw):
    n = draw(st.integers(1, 5))
    mk = lambda: Subspace.span(
        draw(
            st.lists(
                st.lists(entries, min_size=n, max_size=n), min_size=0, max_size=n
            )
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
    return dense_rank(list(u.basis) + [v]) == u.dim


@given(subspace_pairs())
@settings(max_examples=40, deadline=None)
def test_intersection_members_lie_in_both(pair):
    u, w = pair
    for row in subspace_intersect(u, w).basis:
        assert u.contains(row) and w.contains(row)
    # reduce, contains and coords on the sparse rows against the rank oracle
    probes = list(w.basis) + [vadd(a, b) for a, b in zip(u.basis, w.basis)]
    for v in probes:
        inside = _rank_contains(u, v)
        sv = {i: c for i, c in enumerate(v) if c}
        red = u.reduce(sv)
        assert u.reduce(v) == red
        assert not any(p in red for p in u.pivots)
        assert _rank_contains(u, [a - b for a, b in zip(v, dense(red, u.ambient_dim))])
        assert u.contains(v) == u.contains(sv) == (not red) == inside
        coords = u.coords(v)
        if inside:
            combo = [F(0)] * u.ambient_dim
            for c, row in zip(coords, u.basis):
                combo = [x + c * y for x, y in zip(combo, row)]
            assert tuple(combo) == vector(v)
        else:
            assert coords is None
    # complement_rows: dim u - dim w rows when w ⊆ u, a witness otherwise
    if all(_rank_contains(u, row) for row in w.basis):
        comp = complement_rows(u, w)
        assert len(comp) == quotient_dim(u, w) == u.dim - w.dim
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
    u = Subspace.span(vecs, n)
    recombined = []
    for mix in mixes:
        v = [F(0)] * n
        for c, row in zip(mix, vecs):
            for t in range(n):
                v[t] += c * row[t]
        recombined.append(v)
    w = Subspace.span(list(vecs) + recombined, n)
    assert w == u  # bit-identical canonical bases
    assert hash(w) == hash(u)
    flipped = Subspace.span([dict(reversed(row.items())) for row in u.rows], n)
    assert flipped == u and hash(flipped) == hash(u)  # key order is not data
    assert Subspace.span(reversed(recombined + list(vecs)), n) == u
    # the rows are canonical: each pivot is its row's smallest key, it is
    # 1, every other row is 0 there, and pivots increase along the rows
    assert list(u.pivots) == sorted(set(u.pivots))
    for i, (row, p) in enumerate(zip(u.rows, u.pivots)):
        assert min(row) == p and row[p] == 1 and all(row.values())
        assert all(p not in other for t, other in enumerate(u.rows) if t != i)
    assert u.basis == tuple(tuple(row.get(t, 0) for t in range(n)) for row in u.rows)


def test_solve_consistent_and_inconsistent():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    x = solve(m, [5, 6])
    assert x is not None and m.mul_vec(x) == vector([5, 6])
    singular = Matrix.from_rows([[1, 1], [1, 1]])
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
    assert y is not None and m.mul_vec(y) == b


class TestSparseEchelon:
    def test_rank_and_rejection(self):
        ech = SparseEchelon()
        assert ech.insert({("a",): F(1), ("b",): F(2)}, tag=0)
        assert not ech.insert({("a",): F(2), ("b",): F(4)}, tag=1)
        assert ech.insert({("b",): F(1)}, tag=2)
        assert ech.rank == 2

    def test_express_recovers_combination(self):
        ech = SparseEchelon()
        v0 = {("x",): F(1), ("y",): F(1)}
        v1 = {("y",): F(1), ("z",): F(3)}
        ech.insert(v0, tag="first")
        ech.insert(v1, tag="second")
        target = {("x",): F(2), ("y",): F(5), ("z",): F(9)}
        coeffs = ech.express(target)
        assert coeffs == {"first": F(2), "second": F(3)}
        assert ech.express({("w",): F(1)}) is None
