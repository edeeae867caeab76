"""`SparseEchelon`, the integer engine, held to `ReferenceEchelon` and `dense_rank`.

Inputs have tuple keys, integers up to 10^30 and fractions whose
denominators reach 10^30, and two thirds of them are combinations or
repeats of earlier inputs, so rejections are exercised as often as
acceptances.  Exact agreement on such inputs is what rules out lost
precision or a wrong scale in the integer rows.  `express` reads
dependencies off tag coordinates appended to the inputs, and
`insert_or_express` appends them itself (it takes a fresh dict of nonzero
ints, which it consumes, so its inputs are scaled copies); the reference
keeps a ledger per row, so it is an independent check of those readings.  `remainder`
is held to `Subspace.reduce` over the reduced rows, and `tag_rows` to
the relations among the inputs.
"""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from superschur.exactla import SparseEchelon, Subspace, axpy
from support import ReferenceEchelon, dense_rank

F = Fraction
BIG = 10**30

keys = st.tuples(st.integers(0, 3), st.sampled_from("ab"))
coefficients = st.one_of(
    st.integers(-3, 3),
    st.integers(-BIG, BIG),
    st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
vectors = st.dictionaries(keys, coefficients, max_size=5)
# an operation is a fresh vector, a combination of earlier ones or a
# repeat of an earlier one
operations = st.lists(
    st.one_of(
        vectors.map(lambda v: ("vector", v)),
        st.lists(st.tuples(st.integers(0, 30), coefficients), min_size=1, max_size=3).map(
            lambda terms: ("combination", terms)
        ),
        st.integers(0, 30).map(lambda idx: ("combination", [(idx, 1)])),
    ),
    min_size=1,
    max_size=14,
)


def resolve(ops) -> list[dict]:
    """The vectors the operations describe; a combination reads its
    indices modulo the number of vectors before it."""
    out: list[dict] = []
    for kind, data in ops:
        if kind == "vector":
            out.append(data)
        elif out:
            v: dict = {}
            for idx, c in data:
                axpy(v, c, out[idx % len(out)])
            out.append(v)
    return out


def rank_of(vs) -> int:
    """dense_rank over the keys that occur."""
    cols = sorted({k for v in vs for k in v})
    return dense_rank([[v.get(k, 0) for k in cols] for v in vs]) if cols else 0


def nonzero(v: dict) -> dict:
    return {k: c for k, c in v.items() if c}


def fresh_ints(v: dict) -> dict:
    """A new dict of v's nonzero entries times the lcm of their
    denominators: the input `insert_or_express` takes and consumes."""
    d = lcm(*(F(c).denominator for c in v.values()))
    return {k: int(c * d) for k, c in v.items() if c}


# real keys start with 0..3, so these tags sort after all of them
FIRST_TAG = (4,)


def tagged(v: dict, t: int) -> dict:
    """v with the tag coordinate of input t; later inputs take smaller tags."""
    return {**v, (4, -t): 1}


def untag(coeffs: dict | None) -> dict | None:
    """Tag-coordinate coefficients keyed by input position."""
    return None if coeffs is None else {-t: c for (_, t), c in coeffs.items()}


def stored(ech: SparseEchelon) -> dict:
    """Each pivot's row object, with a copy of its contents."""
    return {p: (row, dict(row)) for p, row in ech._rows.items()}


@given(operations, vectors)
@settings(max_examples=80, deadline=None)
def test_matches_the_reference_engine_and_dense_rank(ops, stray):
    vs = resolve(ops)
    ech, ref, aug = SparseEchelon(), ReferenceEchelon(), SparseEchelon()
    unledgered = ReferenceEchelon()
    for t, v in enumerate(vs):
        assert ech.insert(v) == ref.insert(v, tag=t) == unledgered.insert(v, None)
        assert ech.rank == ref.rank == unledgered.rank == rank_of(vs[: t + 1])
        assert aug.insert(tagged(v, t))
    rows = ech.rows()
    assert rows == ref.rows() == unledgered.rows()
    assert len(rows) == rank_of(vs)
    assert all(type(c) is Fraction for row in rows for c in row.values())
    mixed: dict = {}
    for t, v in enumerate(vs):
        axpy(mixed, F(t + 1, 3), v)
    for target in vs + [mixed, stray]:
        got = untag(aug.express(target, FIRST_TAG))
        assert got == ref.express(target)
        if got is None:
            assert rank_of(vs + [target]) > rank_of(vs)
            continue
        assert all(type(c) is Fraction for c in got.values())
        back: dict = {}
        for t, c in got.items():
            axpy(back, c, vs[t])
        assert back == nonzero(target)


@given(operations)
@settings(max_examples=80, deadline=None)
def test_insert_or_express_matches_express_then_insert(ops):
    # the reference expresses each input over those it kept, and keeps it
    # when that fails; the engine does both in one reduction
    ech, ref = SparseEchelon(), ReferenceEchelon()
    kept: dict = {}
    for t, v in enumerate(map(fresh_ints, resolve(ops))):
        want = ref.express(v)
        got = ech.insert_or_express(dict(v), (4, t), (4, 0))  # the first tag itself
        if want is None:
            assert got is None and ref.insert(v, tag=(4, t))
            kept[t] = v
        else:
            assert got is not None
            a, d = got
            assert d and all(type(c) is int for c in [*a.values(), d])
            coeffs = {tag: F(c, d) for tag, c in a.items()}
            assert coeffs == want
            back: dict = {}
            for (_, u), c in coeffs.items():
                axpy(back, c, kept[u])
            assert back == nonzero(v)
        assert ech.rank == ref.rank == len(kept)
        assert set(ech.pivots) == {min(row) for row in ref.rows()}


@given(operations, vectors)
@settings(max_examples=60, deadline=None)
def test_remainder_pivots_and_tag_rows(ops, stray):
    vs = resolve(ops)
    ech, aug = SparseEchelon(), SparseEchelon()
    for t, v in enumerate(vs):
        ech.insert(v)
        aug.insert(tagged(v, t))
    reduced = Subspace(0, ech.rows())
    assert sorted(ech.pivots) == list(reduced.pivots)
    mixed: dict = {}
    for t, v in enumerate(vs):
        axpy(mixed, F(2 * t - 3, 5), v)
    for target in vs + [mixed, stray]:
        got = ech.remainder(target)
        assert got == reduced.reduce(nonzero(target))
        assert all(type(c) is Fraction for c in got.values())
        assert (not got) == (rank_of(vs + [target]) == rank_of(vs))
    # the tag-pivot rows are independent relations among the inputs, as
    # many as the inputs less their rank
    relations = list(aug.tag_rows(FIRST_TAG))
    assert len(relations) == len(vs) - rank_of(vs)
    assert rank_of(relations) == len(relations)
    for row in relations:
        combo: dict = {}
        for t, c in untag(row).items():
            axpy(combo, c, vs[t])
        assert combo == {}


@given(operations)
@settings(max_examples=60, deadline=None)
def test_insert_and_express_never_rewrite_a_stored_row(ops):
    ech, one = SparseEchelon(), SparseEchelon()
    for t, v in enumerate(resolve(ops)):
        before, one_before = stored(ech), stored(one)
        ech.insert(tagged(v, t))
        ech.express(v, FIRST_TAG)
        one.insert_or_express(fresh_ints(v), (4, t), FIRST_TAG)
        for e, was in ((ech, before), (one, one_before)):
            for p, (row, row_copy) in was.items():
                assert e._rows[p] is row and row == row_copy
    # each stored row is a primitive integer vector with a positive pivot,
    # and insert_or_express stores only rows with a real pivot
    for e in (ech, one):
        for p, row in e._rows.items():
            assert p == min(row) and row[p] > 0
            assert all(type(c) is int for c in row.values())
            assert gcd(*row.values()) == 1
    assert all(p < FIRST_TAG for p in one._rows)


def test_rows_are_recomputed_after_an_accepted_insert():
    ech = SparseEchelon()
    assert ech.insert({0: 2, 1: 4})
    first = ech.rows()
    assert first == ({0: 1, 1: 2},)
    assert ech.rows() is first
    assert not ech.insert({0: F(1, 2), 1: 1})
    assert ech.rows() is first
    assert ech.insert({1: 3})
    assert ech.rows() == ({0: 1}, {1: 1})
    assert ech.insert({2: 5, 0: 1})
    assert ech.rows() == ({0: 1}, {1: 1}, {2: 1})


def test_hilbert_rows():
    """The 8 x 8 Hilbert matrix, whose inverse has entries near 10^10."""
    n = 8
    vs = [{j: F(1, i + j + 1) for j in range(n)} for i in range(n)]
    ech, ref, aug = SparseEchelon(), ReferenceEchelon(), SparseEchelon()
    for t, v in enumerate(vs):
        assert ech.insert(v) and ref.insert(v, tag=t) and aug.insert({**v, n + t: 1})
    assert ech.rows() == ref.rows() == tuple({i: F(1)} for i in range(n))
    largest = 0
    for i in range(n):
        got = {t - n: c for t, c in aug.express({i: 1}, n).items()}
        largest = max(largest, *map(abs, got.values()))
        assert got == ref.express({i: 1})
        back: dict = {}
        for t, c in got.items():
            axpy(back, c, vs[t])
        assert back == {i: 1}
    assert largest > 10**9
