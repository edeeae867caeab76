"""Shared test helpers: random algebras and a rank oracle.

`dense_rank` is a plain dense Gauss-Jordan over Fractions.  It shares no
code with the package's elimination engine (`SparseEchelon`), so tests
that use it as an oracle check that engine rather than restate it.
"""

import random
from fractions import Fraction

from superschur.exactla import Subspace, axpy, subspace_sum
from superschur.freenilp import GeneratorSpec, build_free_nilpotent
from superschur.superalg import change_basis


def dense_rank(rows) -> int:
    """Rank of a list of equal-length rows of rational-like entries."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead = m[rank][col]
        m[rank] = [x / lead for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def matrix_rank(m) -> int:
    """dense_rank of an exactla.Matrix."""
    return dense_rank([m.row(i) for i in range(m.rows)])


def basis_changed(L, seed):
    """A seeded change_basis copy of L: basis permuted within parities, rescaled."""
    rng = random.Random(seed)
    ev = list(range(L.n_even))
    od = list(range(L.n_even, L.dim))
    rng.shuffle(ev)
    rng.shuffle(od)
    scales = [Fraction(rng.choice([1, 2, -1, Fraction(1, 2)])) for _ in range(L.dim)]
    return change_basis(L, ev + od, scales)


def random_quotients(count):
    """Deterministic random quotients of free nilpotent superalgebras with
    p+q <= 3 and class <= 4 (class 4 kept to p+q <= 2 for runtime)."""
    rng = random.Random(20250810)
    shapes = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]
    out = []
    while len(out) < count:
        p, q = rng.choice(shapes)
        k = rng.randint(2, 4 if p + q <= 2 else 3)
        f = build_free_nilpotent(GeneratorSpec(p, q, k))
        A = f.algebra
        g2 = A.gamma(2)
        members = g2.rows
        picks = []
        for _ in range(rng.randint(0, 2)):
            if not members:
                break
            v: dict = {}
            base = rng.choice(members)
            parity_block = A.parity_of(base)
            for member in members:
                if A.parity_of(member) == parity_block:
                    axpy(v, rng.randint(-2, 2), member)
            picks.append(v)
        ideal = A.graded_span(picks)
        while True:
            grown = subspace_sum(ideal, A.product_space(ideal, Subspace.full(A.dim)))
            if grown == ideal:
                break
            ideal = grown
        j = rng.randint(3, k + 1)
        ideal = subspace_sum(ideal, f.gamma(j))
        quotient, _ = A.quotient(ideal, name=f"rq{len(out)}[{p}|{q},c{k}]")
        out.append(quotient)
    return out
