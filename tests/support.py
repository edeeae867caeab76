"""Shared test helpers: random algebras, rank and echelon oracles, all-triples references.

`dense_rank` is a plain dense Gauss-Jordan over Fractions.  It shares no
code with the package's elimination engine (`SparseEchelon`), so tests
that use it as an oracle check that engine rather than restate it.

`ReferenceEchelon` is the engine as it was before it moved to integers:
Fraction rows kept fully reduced against one another on every insert.
Tests hold `SparseEchelon`'s acceptances, ranks, expressions and rows to
it.

`reference_identity_residual` is the rewriting identity's residual as
the package computed it before the Koszul rule: every term expanded
directly in the free associative superalgebra with the pattern's
parities.  Tests hold `rewrite_identity_residual` to it.

`reference_validation` and `reference_cohomology_dims` visit every basis
pair and triple, without `LieSuperalgebra.ad_support`, so tests that
compare them with `validate` and `schur_multiplier_cohomology` check
that the sparse loops skip only zero work.

`gl_changed` is a dense change of basis: where `basis_changed` only
permutes and rescales, it mixes basis vectors of one parity, so the
copy's sparsity pattern, generator lifts and degree gradings differ
from the original's.

`subspace_intersect` gives the textbook numerator R ∩ F² of the Hopf
formula, against which tests check that the package may take R itself.
"""

import itertools
import random
from fractions import Fraction

from superschur.exactla import SparseEchelon, Subspace, axpy, kernel, subspace_sum
from superschur.freenilp import (
    GeneratorSpec,
    build_free_nilpotent,
    expand,
    rewrite_identity_terms,
    word_leaves,
)
from superschur.superalg import LieSuperalgebra, SuperDim, change_basis, graded_sign


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


class ReferenceEchelon:
    """Fraction echelon rows, each reduced against all the others on insert.

    The same API as `SparseEchelon`: keys are mutually comparable, a
    row's pivot is its smallest key, and every accepted row carries the
    combination of inserted originals that produced it.
    """

    def __init__(self) -> None:
        self._pivots: dict = {}
        self._rows: list[tuple] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, v: dict, ledger: dict) -> tuple[dict, dict]:
        v = {k: Fraction(c) for k, c in v.items() if c != 0}
        ledger = {k: Fraction(c) for k, c in ledger.items() if c != 0}
        # every row is 0 at the other rows' pivots: one pass clears them all
        for k in [k for k in v if k in self._pivots]:
            f = v[k]
            _, row, led = self._rows[self._pivots[k]]
            axpy(v, -f, row)
            axpy(ledger, -f, led)
        return v, ledger

    def insert(self, v: dict, tag) -> bool:
        rv, rl = self._reduce(v, {tag: Fraction(1)})
        if not rv:
            return False
        pivot = min(rv)
        inv = 1 / rv[pivot]
        rv = {k: c * inv for k, c in rv.items()}
        rl = {k: c * inv for k, c in rl.items()}
        for idx, (p, row, led) in enumerate(self._rows):
            if pivot in row:
                f = row[pivot]
                row = dict(row)
                led = dict(led)
                axpy(row, -f, rv)
                axpy(led, -f, rl)
                self._rows[idx] = (p, row, led)
        self._pivots[pivot] = len(self._rows)
        self._rows.append((pivot, rv, rl))
        return True

    def express(self, v: dict) -> dict | None:
        rv, rl = self._reduce(v, {})
        if rv:
            return None
        return {k: -c for k, c in rl.items() if c != 0}

    def rows(self) -> tuple[dict, ...]:
        return tuple(self._rows[self._pivots[p]][1] for p in sorted(self._pivots))


def sparse(v) -> dict:
    """The nonzero entries of a dense vector, keyed by position."""
    return {i: c for i, c in enumerate(v) if c}


def dense(v: dict, n: int) -> tuple:
    """The length-n tuple of a sparse vector with integer keys below n."""
    return tuple(v.get(i, Fraction(0)) for i in range(n))


def basis(S) -> tuple:
    """The rows of a Subspace as dense vectors."""
    return tuple(dense(r, S.ambient_dim) for r in S.rows)


def matrix_rank(m) -> int:
    """dense_rank of an exactla.Matrix."""
    return dense_rank([m.row(i) for i in range(m.rows)])


def subspace_intersect(u: Subspace, w: Subspace) -> Subspace:
    """Intersection from the kernel of u's rows followed by w's.

    A kernel vector (a, b) gives sum_i a_i u_i = -sum_j b_j w_j, a member
    of both.  The rows of each are independent, so that member is zero
    only when (a, b) is, and a kernel basis maps to a basis.
    """
    assert u.ambient_dim == w.ambient_dim
    shared = []
    for rel in kernel(u.rows + w.rows).rows:
        v: dict = {}
        for i, a in rel.items():
            if i < u.dim:
                axpy(v, a, u.rows[i])
        shared.append(v)
    return Subspace.span(shared, u.ambient_dim)


def reference_identity_residual(i: int, parities) -> dict:
    """The signed sum of the rewriting identity's terms, each expanded
    with the given parities."""
    parities = tuple(int(p) % 2 for p in parities)
    residual: dict = {}
    for coeff, word in rewrite_identity_terms(i, parities):
        axpy(residual, coeff, expand(word, parities))
    return residual


def word_parity(w, parities) -> int:
    return sum(parities[i] for i in word_leaves(w)) % 2


def canonical_table(L):
    """L's nonzero brackets [b_i, b_j] for i <= j, keyed by pair."""
    return {(i, j): L.bracket_basis(i, j) for i, j in L.nonzero_pairs()}


def basis_changed(L, seed):
    """A seeded change_basis copy of L: basis permuted within parities, rescaled."""
    rng = random.Random(seed)
    ev = list(range(L.n_even))
    od = list(range(L.n_even, L.dim))
    rng.shuffle(ev)
    rng.shuffle(od)
    scales = [Fraction(rng.choice([1, 2, -1, Fraction(1, 2)])) for _ in range(L.dim)]
    return change_basis(L, ev + od, scales)


def gl_changed(L, seed):
    """A seeded dense change_basis copy of L: b'_a is b_i plus small integer
    multiples of the earlier basis vectors of b_i's parity (a unitriangular
    matrix within each parity), listed in a shuffled order within each
    parity.  Catalog bases list generators first, so the copy's
    commutators carry generator components.

    The table is read off `L.bracket` of the new vectors, expressed over
    them by a `SparseEchelon` with one tag per new vector.
    """
    rng = random.Random(seed)
    n = L.dim
    new = []
    for block in (range(L.n_even), range(L.n_even, n)):
        vecs = [
            {i: 1, **{j: c for j in block if j < i if (c := rng.randint(-2, 2))}}
            for i in block
        ]
        rng.shuffle(vecs)
        new += vecs
    ech = SparseEchelon()
    for a, v in enumerate(new):
        ech.insert({**v, n + a: 1})
    table = {}
    for a in range(n):
        for b in range(a, n):
            coeffs = ech.express(L.bracket(new[a], new[b]), n)
            if coeffs:
                table[(a, b)] = sorted((t - n, c) for t, c in coeffs.items())
    labels = [f"g{a + 1}" for a in range(n)]
    return LieSuperalgebra(f"{L.name}~gl", labels, L.parities, table)


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


def _jacobi_residual(L, i, j, k) -> dict:
    """(-1)^{|i||k|}[b_i,[b_j,b_k]] + cyclic, from the table alone."""
    p = L.parities
    acc: dict = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for t, ct in L.bracket_basis(b, c).items():
            axpy(acc, graded_sign(p[a], p[c]) * ct, L.bracket_basis(a, t))
    return acc


def _summed(terms) -> dict:
    """Raw (target, coefficient) terms as a sparse vector, repeats added."""
    v: dict = {}
    for k, c in terms:
        axpy(v, 1, {k: c})
    return v


def reference_validation(L) -> tuple[list[str], list[str]]:
    """`validate`'s (malformed, violations) lists, with the graded Jacobi
    identity evaluated on every basis triple i <= j <= k."""
    n, p, lab = L.dim, L.parities, L.basis_labels
    malformed: list[str] = []
    violations: list[str] = []
    entries = sorted(L._raw.items())
    for (i, j), terms in entries:
        if not (0 <= i < n and 0 <= j < n):
            malformed.append(f"bracket entry ({i},{j}) has an index out of range")
            continue
        for k, c in terms:
            if not 0 <= k < n:
                malformed.append(f"bracket [{lab[i]},{lab[j]}] targets index {k} out of range")
            elif c != 0 and p[k] != (p[i] + p[j]) % 2:
                malformed.append(f"bracket [{lab[i]},{lab[j]}] targets {lab[k]} of the wrong parity")
    if malformed:
        return malformed, violations
    for (i, j), terms in entries:
        if i > j and (j, i) in L._raw:
            want: dict = {}
            axpy(want, -graded_sign(p[i], p[j]), _summed(L._raw[(j, i)]))
            if want != _summed(terms):
                violations.append(f"graded skew-symmetry violated at ({lab[j]},{lab[i]})")
        elif i == j and p[i] == 0 and any(c != 0 for _, c in terms):
            violations.append(
                f"graded skew-symmetry forces [{lab[i]},{lab[i]}] = 0 for even {lab[i]}"
            )
    for i, j, k in itertools.combinations_with_replacement(range(n), 3):
        if _jacobi_residual(L, i, j, k):
            violations.append(f"graded Jacobi identity fails on ({lab[i]},{lab[j]},{lab[k]})")
    return malformed, violations


def _sparse_rank(rows) -> int:
    """dense_rank of sparse rows, over the keys that occur."""
    keys = sorted({k for r in rows for k in r})
    return dense_rank([[r.get(k, 0) for k in keys] for r in rows if r])


def reference_cohomology_dims(L) -> SuperDim:
    """The cochain route's multiplier dimensions from a cocycle row for
    every basis triple and a coboundary row scanning every pair, ranked
    by `dense_rank`."""
    n, p = L.dim, L.parities
    coords: dict[int, list] = {0: [], 1: []}
    for a in range(n):
        for b in range(a, n):
            if a != b or p[a] == 1:
                coords[(p[a] + p[b]) % 2].append((a, b))

    def coord(a, b) -> dict:
        if a == b and p[a] == 0:
            return {}
        if a <= b:
            return {(a, b): 1}
        return {(b, a): -graded_sign(p[a], p[b])}

    cocycles: dict[int, list] = {0: [], 1: []}
    for i, j, k in itertools.combinations_with_replacement(range(n), 3):
        row: dict = {}
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for t, c in L.bracket_basis(y, z).items():
                axpy(row, graded_sign(p[x], p[z]) * c, coord(x, t))
        cocycles[(p[i] + p[j] + p[k]) % 2].append(row)
    coboundaries: dict[int, list] = {0: [], 1: []}
    for t in range(n):
        row = {}
        for a, b in coords[p[t]]:
            c = L.bracket_basis(a, b).get(t, 0)
            if c:
                row[(a, b)] = c
        coboundaries[p[t]].append(row)
    even, odd = (
        len(coords[s]) - _sparse_rank(cocycles[s]) - _sparse_rank(coboundaries[s])
        for s in (0, 1)
    )
    return SuperDim(even, odd)
