"""Invariance under a dense graded change of basis.

`support.gl_changed` mixes the basis vectors of each parity by a seeded
unitriangular integer matrix and shuffles them.  Unlike `basis_changed`,
which only permutes and rescales, it changes which basis vectors are the
generator lifts, which pairs bracket to nonzero and which triples touch
a nonzero bracket.  Every reported invariant must still come out the
same: the copy is the same algebra.
"""

import pytest

from superschur.catalog import builtin_algebras
from superschur.multiplier import (
    schur_multiplier_cohomology,
    schur_multiplier_hopf,
    verify_telescoped_identity,
    verify_top_step_identity,
)
from support import gl_changed, random_quotients


def invariants(L) -> dict:
    out = {
        "series": [L.superdim(S) for S in L.lower_central_series()],
        "center": L.superdim(L.center()),
        "generators": L.minimal_generator_dims(),
        "hopf": schur_multiplier_hopf(L),
        "cohomology": schur_multiplier_cohomology(L),
    }
    if L.nilpotency_class() >= 2:
        for name, report in (
            ("top_step", verify_top_step_identity(L)),
            ("telescoped", verify_telescoped_identity(L)),
        ):
            out[name] = (report.lhs, report.rhs, report.parts)
    return out


CASES = [L for L in builtin_algebras() if L.dim and L.is_nilpotent()] + random_quotients(50)


@pytest.mark.parametrize("seed,L", list(enumerate(CASES)), ids=[L.name for L in CASES])
def test_dense_copy_has_the_same_invariants(seed, L):
    M = gl_changed(L, seed)
    assert M.validate().ok, M.validate().summary()
    assert M.is_nilpotent()
    assert invariants(M) == invariants(L)


def widest_bracket(A) -> int:
    return max(len(A.bracket_basis(i, j)) for i, j in A.nonzero_pairs())


def test_the_copy_is_dense():
    # the change mixes basis vectors: some bracket of the copy has more
    # terms than any bracket of the original
    L = next(L for L in builtin_algebras() if L.name == "free21c3")
    assert widest_bracket(gl_changed(L, 0)) > widest_bracket(L)
