"""The lower central series read off the generator lifts' layers.

`LieSuperalgebra.lower_central_series` brackets each layer S_k only with
the lifts X, the unit vectors off γ₂'s pivots, and reads γ_k as
S_k + S_{k+1} + ... (the proof is in `_series_from_lifts`).  The layers
are made in integers through the integral table, and each γ_k is a
snapshot of one echelon whose reduced rows are made only when read.
`support.reference_series` is the chain it replaced, each γ_k bracketed
with all of L.  The two must agree row for row, on sparse and dense
bases.  Inputs whose layers are not accepted (non-nilpotent, perfect,
failing Jacobi, zero-dimensional) must keep the reference chain and its
"series stabilizes" report.  The work on free algebras is pinned by a
count of layer products, not by a timing.
"""

import functools

import pytest

from superschur import superalg
from superschur.catalog import abelian, builtin_algebras
from superschur.exactla import combine
from superschur.freenilp import GeneratorSpec, build_free_nilpotent
from superschur.superalg import EVEN, ODD, AlgebraError, LieSuperalgebra, ValidationReport
from support import basis_changed, gl_changed, random_quotients, reference_series


@functools.cache
def free(p, q, c):
    return build_free_nilpotent(GeneratorSpec(p, q, c)).algebra


def _catalog():
    return [M for t, L in enumerate(builtin_algebras()) for M in (L, basis_changed(L, t))]


def _quotients():
    return random_quotients(100)


def _gl_copies():
    """The dense copies of `test_gl_invariance.py`, with its seeds."""
    cases = [L for L in builtin_algebras() if L.dim and L.is_nilpotent()] + random_quotients(50)
    return [gl_changed(L, seed) for seed, L in enumerate(cases)]


def _dense_free():
    return [gl_changed(free(p, q, 4), 7) for p, q in ((2, 1), (1, 2), (3, 0))]


def _free_classes():
    return [free(2, 1, c) for c in (5, 6, 7)] + [free(1, 1, 10)]


BATTERIES = {
    "catalog_and_copies": (_catalog, 52),
    "random_quotients": (_quotients, 100),
    "gl_copies": (_gl_copies, 75),
    "dense_free_class4": (_dense_free, 3),
    "free_high_class": (_free_classes, 4),
}


def _series_without_product_space(L, monkeypatch):
    """L's series computed afresh, failing on any `product_space` call."""

    def forbidden(self, u, w):
        raise AssertionError(f"product_space on {self.name}'s accepted layers")

    L._cache.pop("series", None)
    with monkeypatch.context() as m:
        m.setattr(LieSuperalgebra, "product_space", forbidden)
        return L.lower_central_series()


@pytest.mark.parametrize("battery", list(BATTERIES))
def test_series_equals_the_reference_chain(battery, monkeypatch):
    build, size = BATTERIES[battery]
    algebras = build()
    assert len(algebras) == size
    for L in algebras:
        # every input here is nilpotent, so its layers are accepted, and
        # they bracket through the integral table, not `product_space`
        chain = _series_without_product_space(L, monkeypatch)
        # each term is a snapshot of the chain's one echelon, taken before
        # the shallower layers went in: its dim, pivots and complement are
        # read off the stored pivots, and its reduced rows, made when first
        # read, agree with them and with the reference
        before = [(S.dim, S.pivots, S.non_pivots) for S in chain]
        assert chain == reference_series(L), L.name
        after = []
        for S in chain:
            pivots = tuple(min(r) for r in S.rows)
            rest = tuple(i for i in range(L.dim) if i not in pivots)
            after.append((len(S.rows), pivots, rest))
        assert before == after, L.name
        assert chain[-1].dim == 0, L.name


def aff():
    # [e1, e2] = e2 keeps reproducing e2; the layers vanish at S_2
    return LieSuperalgebra("aff", ["e1", "e2"], [EVEN] * 2, {(0, 1): [(1, 1)]})


def aff_plus_lift():
    # [x, z] = y and [x, y] = y: every layer from S_2 on is span(y)
    return LieSuperalgebra(
        "aff+z", ["x", "z", "y"], [EVEN] * 3, {(0, 1): [(2, 1)], (0, 2): [(2, 1)]}
    )


def sl2():
    # perfect: gamma_2 = L, so there are no lifts and S_1 = 0
    return LieSuperalgebra(
        "sl2", ["e", "f", "h"], [EVEN] * 3,
        {(0, 1): [(2, 1)], (0, 2): [(0, -2)], (1, 2): [(1, 2)]},
    )


def osp12():
    # perfect, with odd x, y: [x, x] = 2e, [y, y] = -2f, [x, y] = h
    return LieSuperalgebra(
        "osp(1|2)", ["h", "e", "f", "x", "y"], [EVEN] * 3 + [ODD] * 2,
        {
            (0, 1): [(1, 2)], (0, 2): [(2, -2)], (1, 2): [(0, 1)],
            (0, 3): [(3, 1)], (0, 4): [(4, -1)], (1, 4): [(3, -1)], (2, 3): [(4, -1)],
            (3, 3): [(1, 2)], (4, 4): [(2, -2)], (3, 4): [(0, 1)],
        },
    )


def not_jacobi():
    # filiform [x, y] = z1, [x, z1] = z2, [x, z2] = u, plus [z1, z2] = z2,
    # which breaks Jacobi; its layers vanish and reach all of gamma_2
    return LieSuperalgebra(
        "not-jacobi", ["x", "y", "z1", "z2", "u"], [EVEN] * 5,
        {(0, 1): [(2, 1)], (0, 2): [(3, 1)], (0, 3): [(4, 1)], (2, 3): [(3, 1)]},
    )


@pytest.mark.parametrize(
    "make,valid,message",
    [
        (aff, True, "aff is not nilpotent: series stabilizes at dimension (1|0)"),
        (aff_plus_lift, True, "aff+z is not nilpotent: series stabilizes at dimension (1|0)"),
        (sl2, True, "sl2 is not nilpotent: series stabilizes at dimension (3|0)"),
        (osp12, True, "osp(1|2) is not nilpotent: series stabilizes at dimension (3|2)"),
        (not_jacobi, False, "not-jacobi is not nilpotent: series stabilizes at dimension (2|0)"),
    ],
    ids=["aff", "aff+z", "sl2", "osp12", "not-jacobi"],
)
def test_rejected_layers_keep_the_reference_chain_and_report(make, valid, message):
    L = make()
    assert L.validate().ok == valid
    assert L.lower_central_series() == reference_series(L)
    assert not L.is_nilpotent()
    with pytest.raises(AlgebraError) as err:
        L.nilpotency_class()
    assert str(err.value) == message


def test_zero_algebra_keeps_its_one_term_chain():
    L = abelian(0, 0)
    assert L.lower_central_series() == reference_series(L)
    assert L.nilpotency_class() == 0


def test_layers_of_a_table_failing_jacobi_are_not_its_series(monkeypatch):
    # were validation skipped, the layers would report class 4
    L = not_jacobi()
    monkeypatch.setattr(LieSuperalgebra, "validate", lambda self: ValidationReport([], []))
    assert [S.dim for S in L.lower_central_series()] == [5, 3, 2, 1, 0]
    assert [S.dim for S in reference_series(not_jacobi())] == [5, 3, 2]


def test_series_never_brackets_with_the_whole_algebra(monkeypatch):
    # accepted layers make no `product_space` call at all, with L or not
    chain = _series_without_product_space(free(2, 1, 6), monkeypatch)
    assert [S.dim for S in chain] == [203, 200, 196, 188, 168, 120, 0]


@pytest.mark.parametrize("c,products", [(6, 246), (7, 606)])
def test_series_work_on_free_algebras(c, products, monkeypatch):
    # each row of a layer below the top is bracketed at most once with each
    # of the three lifts, by `combine` over ad b_j's integral columns, and
    # not where the ad-support rules the bracket out; the top layer's rows
    # bracket nothing and are skipped; `bracket` itself is never called
    L = free(2, 1, c)
    calls = []

    def counted(columns, v):
        calls.append(1)
        return combine(columns, v)

    def forbidden(self, x, y):
        raise AssertionError("bracket on accepted layers")

    L._cache.pop("series", None)
    with monkeypatch.context() as m:
        m.setattr(superalg, "combine", counted)
        m.setattr(LieSuperalgebra, "bracket", forbidden)
        chain = L.lower_central_series()
    assert len(calls) == products <= 3 * (L.dim - chain[c - 1].dim)
