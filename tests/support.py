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

`reference_generator_columns` solves F's brackets with the generators
by a second elimination over the kept words' full expansions, where
`generator_columns` reads them off the build's own reductions.  Tests
hold the columns to it.

`reference_build` is the free build as it ran on tuple-keyed associative
words: each candidate expanded afresh by `expand`.  `word_code` and
`coded` translate `expand`'s tuple keys into the build's integer codes,
so tests hold the build's words and expansions to it.

`touching_triples` yields the triples i <= j <= k with a nonzero pair,
in increasing order, from the sorted ad-supports.  Tests hold the
cochain route's `generator_triples`, which enumerates its triples lift
by lift, to the ones among them that hold a generator lift.

`reference_validation` and `reference_cohomology_dims` visit every basis
pair and triple, without `LieSuperalgebra.ad_support`, so tests that
compare them with `validate` and `schur_multiplier_cohomology` check
that the sparse loops skip only zero work and that the cochain route's
generator triples suffice.  The cochain oracle ranks its rows with
`ReferenceEchelon`.

`gl_changed` is a dense change of basis: where `basis_changed` only
permutes and rescales, it mixes basis vectors of one parity, so the
copy's sparsity pattern, generator lifts and degree gradings differ
from the original's.

`reference_series` is the lower central series as the package computed
it before it read the generator lifts' layers: each term bracketed with
every basis vector.  Tests hold `lower_central_series` to it row for row.

`subspace_intersect` gives the textbook numerator R ∩ F² of the Hopf
formula, against which tests check that the package may take R itself.
`relations_subspace` is R as a `Subspace`, spanned by a presentation's
relation rows.  `reference_hopf_dims` is the Hopf route as the package
counted it before it became a rank count: R's `Subspace`, [R, F]'s
`Subspace` and `complement_rows`, which re-proves [R, F] ⊆ R.
`subspace_sum` builds the ideals γ_i(F) + R whose all-pairs products
tests hold the bracket-ideal chain to.

`complement_rows` gives the rows of one subspace off another's pivots,
a basis of a complement, and raises `SubspaceError` unless the second
lies in the first.  `reference_witness_tensor` is the witness tensor as
the package built it before it named each γ_i/γ_{i+1} class by its
canonical remainder: coordinates over those complement rows, each
lifted back onto its row.  Tests hold `witness_tensor` to it.
"""

import itertools
import random
from bisect import bisect_left
from fractions import Fraction
from heapq import merge

from superschur.exactla import (
    SparseEchelon,
    Subspace,
    axpy,
    combine,
    kernel,
)
from superschur.freenilp import (
    GeneratorSpec,
    build_free_nilpotent,
    expand,
    rewrite_identity_terms,
    word_leaves,
)
from superschur.multiplier import present, witness_terms
from superschur.superalg import (
    LieSuperalgebra,
    SuperDim,
    change_basis,
    graded_dim,
    graded_sign,
)


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
        """Add v if it enlarges the row space; a tag of None keeps no ledger."""
        rv, rl = self._reduce(v, {} if tag is None else {tag: Fraction(1)})
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


def subspace_sum(u: Subspace, w: Subspace) -> Subspace:
    """u + w, the span of both row sets."""
    assert u.ambient_dim == w.ambient_dim
    return Subspace.span(u.rows + w.rows, u.ambient_dim)


def reference_series(L) -> list:
    """γ_1 = L, γ_{k+1} = `L.product_space(γ_k, L)` until the chain repeats
    a term or reaches zero."""
    full = Subspace.full(L.dim)
    chain = [full]
    while True:
        nxt = L.product_space(chain[-1], full)
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)
        if nxt.dim == 0:
            return chain


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


def relations_subspace(p) -> Subspace:
    """The relations R of a free presentation, spanned by its relation rows."""
    return Subspace.span(p.relation_rows, p.fbar.dim)


class SubspaceError(ValueError):
    """Ambient-dimension mismatch or failed containment."""


def complement_rows(u: Subspace, w: Subspace) -> tuple[dict, ...]:
    """The rows of u off w's pivots: a basis of a complement of w in u.

    Raises with a witness row when w is not inside u.  For w ⊆ u every
    pivot of w is a pivot of u (pivots are the smallest keys of nonzero
    members), and a nonzero combination of the returned rows has its
    smallest key at one of their pivots, which no nonzero member of w has.
    """
    if u.ambient_dim != w.ambient_dim:
        raise SubspaceError(f"ambient dimensions differ: {u.ambient_dim} vs {w.ambient_dim}")
    for row in w.rows:
        if u.reduce(row):
            witness = ", ".join(f"{k}: {c}" for k, c in sorted(row.items()))
            raise SubspaceError(
                f"quotient undefined: witness {{{witness}}} lies outside the numerator"
            )
    wp = set(w.pivots)
    return tuple(row for row, p in zip(u.rows, u.pivots) if p not in wp)


def reference_witness_tensor(L, i: int, positions) -> tuple[dict, bool]:
    """`witness_tensor`'s tensor and kernel verdict as the package built
    them when it named a class of γ_i/γ_{i+1} by coordinates over the
    representatives `complement_rows(γ_i, γ_{i+1})`.

    Each term's value is expressed over the representatives and
    γ_{i+1}'s rows by a tagged `ReferenceEchelon`, never reduced by
    γ_{i+1}; the representatives' coefficients key the tensor as (a, b),
    a a representative's position and b the term's generator position.
    The λ map lifts representative a for each (a, b) and reads [w, g_b]
    off fbar's generator column b.
    """
    pres = present(L)
    reps = complement_rows(L.gamma(i), L.gamma(i + 1))
    ech = ReferenceEchelon()
    for a, row in enumerate(reps):
        ech.insert(row, (0, a))
    for j, row in enumerate(L.gamma(i + 1).rows):
        ech.insert(row, (1, j))
    pos = tuple(positions)
    xs = [{pres.lift_indices[t]: Fraction(1)} for t in pos]
    tensor: dict = {}
    for coeff, val, k in witness_terms(L, xs, i):
        coords = ech.express(val)
        axpy(tensor, coeff, {(a, pos[k]): c for (kind, a), c in coords.items() if kind == 0})
    ad = pres.fbar.generator_columns()
    image: dict = {}
    for (a, b), coeff in tensor.items():
        axpy(image, coeff, combine(ad[b], pres.lift_into_gamma(reps[a], i)))
    return tensor, not pres.bracket_ideal_residual(image, i + 1)


def reference_hopf_dims(p) -> SuperDim:
    """(R ∩ F²)/[R, F]'s (even | odd) dimensions by complement, not by rank.

    R is `kernel(p.pi)`, eliminated apart from the presentation's own
    echelon, and [R, F] the span of [r, g] over R's reduced rows and the
    generators.  `complement_rows` raises unless [R, F] ⊆ R and returns
    rows of R's reduced row-echelon form, homogeneous as R is graded, so
    their pivots give the parities.
    """
    f = p.fbar
    R = kernel(p.pi)
    ad = f.generator_columns()
    RF = Subspace.span((z for r in R.rows for col in ad if (z := combine(col, r))), f.dim)
    return graded_dim([min(row) for row in complement_rows(R, RF)], f.n_even)


def reference_identity_residual(i: int, parities) -> dict:
    """The signed sum of the rewriting identity's terms, each expanded
    with the given parities."""
    parities = tuple(int(p) % 2 for p in parities)
    residual: dict = {}
    for coeff, word in rewrite_identity_terms(i, parities):
        axpy(residual, coeff, expand(word, parities))
    return residual


def reference_generator_columns(f) -> tuple[tuple[dict, ...], ...]:
    """F's brackets with the generators, [b_x, g_t] at [t][x], by an
    unrestricted tagged solve: each candidate [w_x, g_t] that is not a
    basis word is expanded afresh and expressed over every kept word of
    its degree, all their expansions in full.  This is how the package
    solved them before it read them off the build's reductions."""
    pars, num, k = f.spec.parities, f.spec.num, f.spec.class_bound
    index = {f.basis_word(x): x for x in range(f.dim)}
    echelons: dict = {}
    columns: list[list[dict]] = [[] for _ in range(num)]
    for x in range(f.dim):
        d, w = f.basis_degree(x), f.basis_word(x)
        for t in range(num):
            if d == k:
                col = {}
            elif (w, t) in index:
                col = {index[w, t]: 1}
            elif not (z := expand((w, t), pars)):
                col = {}
            else:
                if d + 1 not in echelons:
                    echelons[d + 1] = ech = SparseEchelon()
                    for m in range(f.dim):
                        if f.basis_degree(m) == d + 1:
                            ech.insert({**expand(f.basis_word(m), pars), (num, m): 1})
                coeffs = echelons[d + 1].express(z, (num,))
                col = {
                    m: c.numerator if c.denominator == 1 else c
                    for (_, m), c in sorted(coeffs.items())
                }
            columns[t].append(col)
    return tuple(map(tuple, columns))


def word_code(u, num: int) -> int:
    """The associative word u, a tuple of generator indices below num, as
    the int of its digits in base num."""
    code = 0
    for g in u:
        code = code * num + g
    return code


def coded(e: dict, num: int) -> dict:
    """An expansion with tuple keys, keyed by `word_code` instead."""
    return {word_code(u, num): c for u, c in e.items()}


def reference_build(spec) -> list[list]:
    """The degree_words of the free build on tuple keys: the degree-d
    candidates are the generators at d = 1 and the [w, g] of the kept
    degree-(d-1) words w otherwise, each expanded by `expand` and kept when
    independent of the kept expansions."""
    words_by_degree: list[list] = []
    for d in range(1, spec.class_bound + 1):
        if d == 1:
            candidates = list(range(spec.num))
        else:
            candidates = [(w, g) for w in words_by_degree[-1] for g in range(spec.num)]
        ech, words = SparseEchelon(), []
        for w in candidates:
            e = expand(w, spec.parities)
            if e and ech.insert(e):
                words.append(w)
        words_by_degree.append(words)
    return words_by_degree


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


FIRST_BATTERY = 50
WIDE_SHAPES = [(2, 0, 5), (1, 1, 5), (0, 2, 5), (3, 0, 4), (2, 1, 4), (1, 2, 4), (0, 3, 4)]


def random_quotients(count):
    """Deterministic random quotients of free nilpotent superalgebras.

    The first FIRST_BATTERY have p+q <= 3 and class <= 4 (class 4 kept to
    p+q <= 2 for runtime).  The ones after them, the second battery, come
    from the same random stream and are of class 5 with p+q = 2 or of
    class 4 with p+q = 3 (WIDE_SHAPES), so a longer list extends a
    shorter one and leaves it unchanged."""
    rng = random.Random(20250810)
    shapes = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]
    out = []
    while len(out) < count:
        if len(out) < FIRST_BATTERY:
            p, q = rng.choice(shapes)
            k = rng.randint(2, 4 if p + q <= 2 else 3)
        else:
            p, q, k = rng.choice(WIDE_SHAPES)
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
        quotient = A.quotient(ideal, name=f"rq{len(out)}[{p}|{q},c{k}]")
        out.append(quotient)
    return out


def touching_triples(L):
    """The triples i <= j <= k with a nonzero bracket among their three
    pairs, yielded in increasing order.

    A nonzero pair (i, j) takes every k >= j; any other pair takes the
    k >= j that bracket b_i or b_j nontrivially, from their sorted
    ad-supports, merged only when both are nonempty.
    """
    support = L.ad_support()
    tails = [s[bisect_left(s, j):] for j, s in enumerate(support)]
    for i, si in enumerate(support):
        for j in range(i, L.dim):
            if L.bracket_basis(i, j):
                ks = range(j, L.dim)
            else:
                a, b = si[bisect_left(si, j):], tails[j]
                ks = merge(a, b) if a and b else a or b
            last = -1
            for k in ks:
                if k != last:  # a k in both supports comes twice
                    yield (i, j, k)
                    last = k


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
    """The rank of sparse rows by `ReferenceEchelon` without a ledger; the
    engine tests hold it to `dense_rank`, which takes 6 s on the all-triples
    rows of a 32-dimensional algebra where this takes 0.1 s."""
    ech = ReferenceEchelon()
    for r in rows:
        ech.insert(r, None)
    return ech.rank


def reference_cohomology_dims(L) -> SuperDim:
    """The cochain route's multiplier dimensions from a cocycle row for
    every basis triple and a coboundary row scanning every pair, ranked
    by `ReferenceEchelon`."""
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
