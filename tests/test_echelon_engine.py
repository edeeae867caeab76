"""`SparseEchelon`, the integer engine, held to `ReferenceEchelon` and `dense_rank`.

Inputs have tuple keys, integers up to 10^30 and fractions whose
denominators reach 10^30, and half of them are combinations of earlier
inputs, so rejections are exercised as often as acceptances.  Exact
agreement on such inputs is what rules out lost precision or a wrong
scale in the integer rows.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from superschur.exactla import SparseEchelon, axpy
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
# an operation is a fresh vector or a combination of earlier ones
operations = st.lists(
    st.one_of(
        vectors.map(lambda v: ("vector", v)),
        st.lists(st.tuples(st.integers(0, 30), coefficients), min_size=1, max_size=3).map(
            lambda terms: ("combination", terms)
        ),
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


def stored(ech: SparseEchelon) -> dict:
    """Each pivot's row and ledger objects, with copies of their contents."""
    return {p: (row, led, dict(row), dict(led)) for p, (row, led) in ech._rows.items()}


@given(operations, vectors)
@settings(max_examples=80, deadline=None)
def test_matches_the_reference_engine_and_dense_rank(ops, stray):
    vs = resolve(ops)
    ech, ref = SparseEchelon(), ReferenceEchelon()
    for t, v in enumerate(vs):
        assert ech.insert(v, tag=t) == ref.insert(v, tag=t)
        assert ech.rank == ref.rank == rank_of(vs[: t + 1])
    rows = ech.rows()
    assert rows == ref.rows()
    assert len(rows) == rank_of(vs)
    assert all(type(c) is Fraction for row in rows for c in row.values())
    mixed: dict = {}
    for t, v in enumerate(vs):
        axpy(mixed, F(t + 1, 3), v)
    for target in vs + [mixed, stray]:
        got = ech.express(target)
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
@settings(max_examples=60, deadline=None)
def test_insert_and_express_never_rewrite_a_stored_row(ops):
    ech = SparseEchelon()
    for t, v in enumerate(resolve(ops)):
        before = stored(ech)
        ech.insert(v, tag=t)
        ech.express(v)
        for p, (row, led, row_copy, led_copy) in before.items():
            now_row, now_led = ech._rows[p]
            assert now_row is row and now_led is led
            assert row == row_copy and led == led_copy
    # each stored row is a primitive integer vector with an integer
    # ledger and a positive pivot
    for p, (row, led) in ech._rows.items():
        assert p == min(row) and row[p] > 0
        assert all(type(c) is int for c in (*row.values(), *led.values()))
        assert gcd(*row.values(), *led.values()) == 1


def test_rows_are_recomputed_after_an_accepted_insert():
    ech = SparseEchelon()
    assert ech.insert({0: 2, 1: 4}, tag=0)
    first = ech.rows()
    assert first == ({0: 1, 1: 2},)
    assert ech.rows() is first
    assert not ech.insert({0: F(1, 2), 1: 1}, tag=1)
    assert ech.rows() is first
    assert ech.insert({1: 3}, tag=2)
    assert ech.rows() == ({0: 1}, {1: 1})
    assert ech.insert({2: 5, 0: 1}, tag=3)
    assert ech.rows() == ({0: 1}, {1: 1}, {2: 1})


def test_hilbert_rows():
    """The 8 x 8 Hilbert matrix, whose inverse has entries near 10^10."""
    n = 8
    vs = [{j: F(1, i + j + 1) for j in range(n)} for i in range(n)]
    ech, ref = SparseEchelon(), ReferenceEchelon()
    for t, v in enumerate(vs):
        assert ech.insert(v, tag=t) and ref.insert(v, tag=t)
    assert ech.rows() == ref.rows() == tuple({i: F(1)} for i in range(n))
    largest = 0
    for i in range(n):
        got = ech.express({i: 1})
        largest = max(largest, *map(abs, got.values()))
        assert got == ref.express({i: 1})
        back: dict = {}
        for t, c in got.items():
            axpy(back, c, vs[t])
        assert back == {i: 1}
    assert largest > 10**9
