"""Schur multipliers of nilpotent Lie superalgebras, two independent ways.

The primary route realizes the multiplier as (R ∩ F²)/[R, F] over a free
presentation truncated one class above the target: writing c for the
target's class, the free algebra is cut at class c+1.  π is evaluated
on the target's integral table, in ints, and its relations and lifts
are rescaled to π's own (`present`).  The presentation
is minimal, so R ⊆ F² and the numerator is R itself (proof in
`present`); R is an ideal and π is onto, so the multiplier's dimension
is dim F - dim L - rank [R, F] per parity (`schur_multiplier_hopf`),
counted off [R, F]'s integer echelon.  The truncation loses nothing,
because γ_{c+1}(F) ⊆ R forces γ_{c+2}(F) ⊆ [R, F], so every quotient
appearing here - the multiplier itself and the bracket quotients
[γ_i(F)+R, F]/[γ_{i+1}(F)+R, F] - is untouched by dividing out
γ_{c+2}(F).  Each [γ_i(F)+R, F] is
γ_{i+1}(F) + [R, F], read off [R, F]'s pivots (see `bracket_quotient_dim`),
so one product, [R, F], serves the multiplier and every bracket quotient.

The cross-check route counts graded-skew 2-cochains that extend the
algebra by a one-dimensional center (even or odd), modulo the cochains
induced by linear functionals.  Its rows come from the basis triples
that touch a nonzero bracket and hold a generator lift, eliminated
shortest first, and the coboundaries are counted by γ₂; it reads only
the target's table and series, nothing of the presentation.  The two
routes are computed independently; the CLI's `multiplier --method both`
compares them and exits 2 when they disagree.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from functools import cached_property
from fractions import Fraction
from math import gcd

from .exactla import (
    Matrix,
    SparseEchelon,
    axpy,
    combine,
    rref,
)
from .freenilp import (
    FreeNilpotentSuperalgebra,
    GeneratorSpec,
    build_free_nilpotent,
    eval_hom,
    evaluate_word,
    left_normed_word,
    rewrite_tensor_terms,
)
from .superalg import (
    EVEN,
    ODD,
    AlgebraError,
    LieSuperalgebra,
    SuperDim,
    graded_dim,
)


_ONE = Fraction(1)


class FreePresentation:
    """A surjection π from a truncated free superalgebra onto the target.

    `fbar` is free nilpotent of class c+1 on the target's minimal
    generator counts.  `psi` is the list of int columns of `eval_hom` on
    the chosen homogeneous lifts, ψ(b) = `scale[b]` · π(b) with `scale[b]`
    = D^{deg b - 1} and D the target's `table_scale`, and `relation_rows`
    are a basis of the graded kernel R of π, which lies in γ₂(F) and
    contains γ_{c+1}(F) (see `present`): homogeneous primitive integer
    vectors over fbar's basis.  `columns` is ψ's one elimination, each
    nonzero column tagged above the target's coordinates; `column_of`
    maps a tag to its basis index of fbar, in the order the columns were
    taken.
    """

    def __init__(
        self, target: LieSuperalgebra, fbar: FreeNilpotentSuperalgebra, psi: list[dict],
        scale: tuple[int, ...], relation_rows: tuple[dict, ...], lift_indices: tuple[int, ...],
        columns: SparseEchelon, column_of: dict[int, int],
    ):
        self.target = target
        self.fbar = fbar
        self.psi = psi
        self.scale = scale
        self.relation_rows = relation_rows
        self.lift_indices = lift_indices
        self.columns = columns
        self.column_of = column_of

    def lift_into_gamma(self, v: dict, i: int) -> dict:
        """Some w in γ_i(fbar) with π(w) = v, as coefficients over fbar's
        basis; raises unless v lies in γ_i(target).

        The columns went in by decreasing degree, later ones taking smaller
        tags, so `express` uses independent columns only.  π(γ_i(F)) =
        γ_i(L), so the independent columns of degree >= i span γ_i(L): v in
        γ_i(L) has exactly one expression, and it uses only columns of
        degree >= i.  The expression is over ψ's columns; v = Σ a_b ψ(b) =
        Σ a_b scale[b] π(b), so the lift's coefficient at b is
        a_b scale[b].  Two lifts differ by some r in R ∩ γ_i(F), and
        [r, g] lies in [R, F] ⊆ [γ_{i+1}(F)+R, F], so no reduced residual
        depends on the lift.
        """
        f = self.fbar
        coeffs = self.columns.express(v, self.target.dim)
        lift = {}
        for t, c in (coeffs or {}).items():
            b = self.column_of[t]
            lift[b] = c * self.scale[b]
        if coeffs is None or any(f.basis_degree(idx) < i for idx in lift):
            raise AlgebraError(
                f"{self.target.name}: element does not lift into the requested filtration step"
            )
        return lift

    @cached_property
    def relation_bracket(self) -> SparseEchelon:
        """[R, F], the one product with F that the presentation forms, as
        the echelon of its integer rows."""
        return bracket_with_free(self.fbar, self.relation_rows)

    def bracket_ideal_residual(self, v: dict, i: int) -> dict:
        """v modulo [γ_i(F)+R, F] = γ_{i+1}(F) + [R, F]: the part of degree
        <= i of `relation_bracket.remainder(v)`, empty exactly when v lies
        in it.

        The remainder is v reduced by [R, F]'s reduced row-echelon rows
        (`SparseEchelon.remainder`).  π keeps parity, so [R, F] is graded
        and each of those rows lies in one parity block, where fbar's basis
        runs by degree: a row's pivot is its lowest degree.  r = remainder
        is v less a member of [R, F], and 0 at every pivot.  If
        r - g = Σ a_p row_p with g in γ_{i+1}(F), then at a pivot p of
        degree <= i, a_p is r's entry (g has none), 0; so only rows inside
        γ_{i+1}(F) take part, and r lies in it.  The part is linear and
        vanishes on [R, F] and on γ_{i+1}(F): a canonical remainder.
        """
        deg = self.fbar.basis_degree
        return {k: c for k, c in self.relation_bracket.remainder(v).items() if deg(k) <= i}


def bracket_with_free(f: FreeNilpotentSuperalgebra, ideal_rows) -> SparseEchelon:
    """[I, F] for a graded ideal I of F, as the echelon of [r, g] over
    vectors r spanning I and the generators g, read off F's generator
    columns: [r, g] = Σ_x r_x [x, g].

    [I, F] is the span J of [x, g] over the spanning vectors x and the
    generators g.  The y with [I, y] ⊆ J contain the generators and are
    closed under brackets, because [x, [y, z]] = [[x, y], z] ± [[x, z], y]
    and [x, y], [x, z] lie in I; so they are all of F.  A vector inside
    F's top degree is skipped: [γ_{c+1}(F), F] = 0 by truncation, and its
    columns are empty.  (R holds one such unit row per top-degree word.)
    """
    ad, top, deg = f.generator_columns(), f.spec.class_bound, f.basis_degree
    ech = SparseEchelon()
    for r in ideal_rows:
        if all(deg(x) == top for x in r):
            continue  # [F_top, F] = 0 by truncation
        for column in ad:
            if z := combine(column, r):
                ech.insert(z)
    return ech


def present(L: LieSuperalgebra) -> FreePresentation:
    """Truncated free presentation of a nonzero nilpotent superalgebra.

    Lifts are the coordinate vectors complementary to [L, L], evens
    first.  π keeps parity, so an even and an odd column share no key
    and its kernel R is graded.  Two containments hold by construction
    and are not rechecked:

    * R ⊆ γ₂(F).  Write r = r₁ + r₂ with r₁ in the generators' span and
      r₂ in γ₂(F).  Then π(r₁) = −π(r₂) lies in γ₂(L).  The lifts are
      unit vectors off γ₂(L)'s pivots, so they are independent modulo
      γ₂(L), and r₁ = 0.
    * γ_{c+1}(F) ⊆ R.  `eval_hom` has checked that π is a homomorphism,
      so π(γ_{c+1}(F)) ⊆ γ_{c+1}(L) = 0.

    Neither check below can fail on a valid nilpotent L:

    * rank π = dim L.  The lifts X span L modulo γ₂(L), so the
      subalgebra H they generate has H + γ₂(L) = L.  γ_k(L) is spanned
      by k-fold brackets of elements of H + γ₂(L), and one with an entry
      in γ₂(L) lies in γ_{k+1}(L), so γ_k(L) ⊆ H + γ_{k+1}(L) and
      L = H + γ₂(L) = H + γ₃(L) = ... = H + γ_{c+1}(L) = H.  H is
      spanned by the left-normed brackets of X of length at most c, as
      longer ones lie in γ_{c+1}(L) = 0.  F's degree-k part holds the
      left-normed words of length k in the generators, for k <= c + 1,
      and π sends them to those brackets, so π is onto.  The dense
      `rref` check of this stays while perfbench's spans wrap `rref` and
      `Matrix.mul_vec` and its tests expect `rref` in a Hopf run
      (ROADMAP item 1); it takes ψ's nonzero columns only, as zero
      columns add nothing to a rank, and ψ's rank is π's.
    * `eval_hom`'s homomorphism check.  L is valid and its class c is at
      most the truncation class c + 1, so by the universal property of
      the free nilpotent superalgebra the lifts extend to a homomorphism
      F → L, and eval_hom's columns are its values: each basis word
      [u, g] goes to [π(u), π(g)].  So every checked pair holds unless
      the free build recorded a wrong expression; on this call the check
      tests the build alone.

    ψ = `eval_hom` on the integral table, ψ(b) = D^{deg b - 1} π(b),
    is eliminated in ints.  Its columns are taken by decreasing degree
    (a stable sort), later ones taking smaller tags.  A nonzero column
    goes into one tagged `SparseEchelon`; a zero column (all of F's top
    degree, where π vanishes, among them) goes straight to R as its unit
    row {b: 1}.  That is the row the echelon would store for it, pivot
    its tag, and no other input or row ever holds that tag, so leaving
    it out changes no other row.  R's rows come in the order the columns
    were taken, which is by decreasing pivot tag (a row from column t
    has no tag below t, and t's entry survives).  Scaling column b by
    scale[b] > 0 keeps which columns are independent of the earlier
    ones, and maps the ψ-relations a onto the π-relations
    (a_b scale[b])_b, keeping each row's support.  The row of column t
    is the relation, unique up to a factor, with smallest tag t and 0 at
    the pivots stored before it; so each rescaled row, made primitive,
    is the row that eliminating π's own columns stores, pivot positive.
    """
    L.require_valid()
    c = L.nilpotency_class()
    if L.dim == 0:
        raise AlgebraError(f"{L.name}: the zero algebra has no generators to present")
    if "presentation" in L._cache:
        return L._cache["presentation"]
    gens = L.minimal_generator_dims()
    spec = GeneratorSpec(gens.even, gens.odd, c + 1)
    f = build_free_nilpotent(spec)
    lifts = L.generator_lift_indices()
    psi = eval_hom(f, [{t: 1} for t in lifts], L)
    nonzero = [col for col in psi if col]
    dense = Matrix(
        L.dim, len(nonzero), tuple(col.get(r, 0) for r in range(L.dim) for col in nonzero)
    )
    _, rank = rref(dense)
    if rank != L.dim:
        raise AlgebraError(
            f"chosen lifts fail to generate {L.name} (closure has rank {rank})"
        )
    d = L.table_scale()
    scale = tuple(d ** (f.basis_degree(b) - 1) for b in range(f.dim))
    order = sorted(range(f.dim), key=f.basis_degree, reverse=True)
    column_of = {L.dim + f.dim - s: b for s, b in enumerate(order)}
    columns = SparseEchelon()
    relations = []
    for t, b in column_of.items():
        if psi[b]:
            columns.insert({**psi[b], t: 1})
        else:
            relations.append({t: 1})
    relations += columns.tag_rows(L.dim)
    relations.sort(key=min, reverse=True)  # by pivot tag: the order the columns were taken
    relation_rows = tuple(_relation_of_pi(row, column_of, scale) for row in relations)
    pres = FreePresentation(L, f, psi, scale, relation_rows, tuple(lifts), columns, column_of)
    L._cache["presentation"] = pres
    return pres


def _relation_of_pi(row: dict, column_of: dict[int, int], scale: tuple[int, ...]) -> dict:
    """The relation of π, over fbar's basis and primitive, from a tagged
    relation of ψ: the entry at column b times scale[b]."""
    rel = {}
    for t, a in row.items():
        b = column_of[t]
        rel[b] = a * scale[b]
    g = gcd(*rel.values())
    return rel if g == 1 else {b: a // g for b, a in rel.items()}


def schur_multiplier_hopf(L: LieSuperalgebra) -> SuperDim:
    """(R ∩ F²)/[R, F] over the truncated free presentation, graded, as
    dim F - dim L - rank [R, F] per parity.

    The presentation is minimal, so R ⊆ F² (proof in `present`) and the
    numerator is R.  Two facts turn its quotient into a rank count, and
    neither is rechecked:

    * dim R = dim F - dim L per parity.  `present`'s rank check gives
      rank π = dim L, and π keeps parity, so it maps each parity block
      of F onto L's.
    * [R, F] ⊆ R.  R is the kernel of the homomorphism π, so an ideal.

    The rank's parities come off [R, F]'s pivots.  An echelon of
    homogeneous inputs has homogeneous rows, as an input is reduced only
    by rows whose pivot it holds, so, inductively, by rows of its own
    parity.  π's columns, each tagged with its column's parity, are
    homogeneous, so R's rows are, and so are their brackets [r, g] with
    the generators.  F's basis lists the even words first, so a pivot
    below `n_even` is even.
    """
    if "hopf" in L._cache:
        return L._cache["hopf"]
    L.require_valid()
    L.nilpotency_class()
    if L.dim == 0:
        return SuperDim(0, 0)
    pres = present(L)
    f = pres.fbar
    rf = graded_dim(pres.relation_bracket.pivots, f.n_even)
    L._cache["hopf"] = SuperDim(f.n_even - L.n_even - rf.even, f.n_odd - L.n_odd - rf.odd)
    return L._cache["hopf"]


def generator_triples(L: LieSuperalgebra) -> Iterator[tuple[int, int, int]]:
    """The triples i <= j <= k that touch a nonzero bracket and hold one of
    L's generator lifts, each once, lift by lift: the rows of the cochain
    route (see `schur_multiplier_cohomology`).  Raises on non-nilpotent L.

    Each such triple comes under its smallest lift g, as g and the pair
    a <= b left when one g is taken out; neither a nor b is a lift below
    g.  The triple touches a nonzero bracket exactly when a or b lies in
    g's ad-support or (a, b) is a nonzero pair.  So under g come the
    pairs that hold an index s of g's ad-support (a pair with two such
    indices under the smaller one), then the nonzero pairs with neither
    index in it, all without a lift below g.
    """
    support = L.ad_support()
    pairs = L.nonzero_pairs()
    below: set[int] = set()
    for g in L.generator_lift_indices():
        near = set(support[g])
        rest = [x for x in range(L.dim) if x not in below]
        found = itertools.chain(
            (
                (s, x) if s <= x else (x, s)
                for s in support[g] if s not in below
                for x in rest if x not in near or x >= s
            ),
            (
                (a, b) for a, b in pairs
                if a not in below and b not in below and a not in near and b not in near
            ),
        )
        for a, b in found:
            yield (g, a, b) if g <= a else (a, g, b) if g <= b else (a, b, g)
        below.add(g)


def _peeled_rank(rows: list[dict], peeled: set) -> int:
    """The rank of the space V spanned by sparse integer rows and the e_k
    for k in `peeled`: the keys peeled, `peeled` grown in place, plus the
    `SparseEchelon` rank of the rows left with those keys removed,
    shortest first.

    The rows hold nonzero entries only.  Peeling repeats: each pass takes
    out of every kept row the keys peeled so far, and a row left with one
    key k peels it; a row left with none is dropped.  By induction in the
    order the keys are peeled, every peeled e_k lies in V: a key passed
    in does by definition, and the row that peels k is c e_k (c != 0)
    plus multiples of e_z for keys z peeled before it.  So with Z the
    peeled keys and P the projection that sets their coordinates to 0, V
    holds span{e_z : z in Z} and v - P v for each v in V, and so P v; V
    is the direct sum of span{e_z} and P V, and rank V = |Z| + rank P V.
    P V is spanned by the projected rows, as P e_z = 0, and a peeled row
    projects to 0.  Passes stop when one peels nothing, so every row left
    keeps at least two keys.

    This is the first phase of structured Gaussian elimination (LaMacchia
    and Odlyzko, "Solving large sparse linear systems over finite
    fields", CRYPTO '90, LNCS 537).  Pivoting on sparse rows first keeps
    fill-in low (Markowitz, "The elimination form of the inverse and its
    application to linear programming", Management Science 3 (1957)).
    """
    grew = True
    while grew:
        grew = False
        left = []
        for row in rows:
            keys = row.keys() - peeled
            if len(keys) == 1:
                peeled.update(keys)
                grew = True
            elif keys:
                left.append(row)
        rows = left
    ech = SparseEchelon()
    for row in sorted(
        ({k: c for k, c in row.items() if k not in peeled} for row in rows), key=len
    ):
        ech.insert(row)
    return len(peeled) + ech.rank


def schur_multiplier_cohomology(L: LieSuperalgebra) -> SuperDim:
    """Multiplier dimensions via one-dimensional central extensions.

    A graded-skew 2-cochain φ of parity σ (nonzero only on pairs with
    |x| + |y| = σ) defines E = L ⊕ kz, z central of parity σ, with
    [x, y]_E = [x, y] + φ(x, y) z.  Its graded Jacobi sum on basis
    vectors has L's as its L part, zero, and as its z part the row
    J(x, y, w) = Σ_cyc (-1)^{|x||w|} φ(x, [y, w]); J changes at most by a
    sign under a permutation of its arguments, so E is a Lie superalgebra
    exactly when J vanishes on the basis triples i <= j <= k.  Cochains
    φ(x, y) = f([x, y]) for a linear functional f are split extensions;
    the quotient count per parity is reported.

    Rows come only from triples that touch a nonzero bracket (on any other
    every term evaluates φ on a zero inner bracket) and hold a generator
    lift (`generator_triples`): the lifts X, the basis vectors off γ₂'s
    pivots, span L modulo γ₂, and J vanishes everywhere once it vanishes
    on the triples that meet X.
    * X generates L.  The subalgebra H it generates has H + γ₂ = L.  So
      γ_k, spanned by k-fold brackets of elements of H + γ₂, lies in
      H + γ_{k+1}, as a bracket with an entry in γ₂ lies one step deeper;
      so L = H + γ₂ = H + γ₃ = ... = H + γ_{c+1} = H.
    * For homogeneous a, b, w of E let D(a, b, w) = [a, [b, w]]_E −
      [[a, b]_E, w]_E − (−1)^{|a||b|} [b, [a, w]_E]_E.  Graded skew-symmetry
      rewrites the last two terms as (−1)^{(|a|+|b|)|w|} [w, [a, b]_E]_E
      and (−1)^{|a||b|+|a||w|} [b, [w, a]_E]_E, so (−1)^{|a||w|} D(a, b, w)
      is the Jacobi sum, J(a, b, w) z for a, b, w in L, and 0 when one of
      them is z.  D(a, ·, ·) = 0 says that ad a is a derivation of E of
      parity |a|.
    * Let S be the span of the homogeneous a with D(a, ·, ·) = 0.  It holds
      z, as ad z = 0, and X: J is trilinear and vanishes on the basis
      triples that hold a lift.  For homogeneous a, b in S, D(a, b, ·) = 0
      reads ad [a, b]_E = ad a ad b − (−1)^{|a||b|} ad b ad a, a
      supercommutator of derivations and so a derivation: S is a
      subalgebra.  Its image in L is a subalgebra holding X, so all of L,
      and with z in S that makes S = E, so J = 0.

    In a row, φ(b_x, b_t) is the coordinate (x, t) for x < t or x = t odd,
    keyed x·n + t; zero for x = t even; and −(−1)^{|x||t|} times
    coordinate (t, x) for x > t; each term's key and sign are worked out
    as its row is built.  Most rows have one entry once their zeros are
    dropped, and such a row, a nonzero multiple of e_k, adds only its key
    k to its parity's peeled keys and is not stored.  Most of the rest are
    left with one entry after those keys are taken out, so each parity's
    rows are ranked by peeling first (`_peeled_rank` has the proof); only
    what is left goes into a `SparseEchelon`.

    The coboundary f -> f([x, y]) has the brackets' coordinates as its
    columns, so its rank per parity is the superdimension of their span,
    γ₂, which the series has already eliminated.  The rows read the
    integral table, whose common scale changes no rank.
    """
    L.require_valid()
    L.nilpotency_class()
    p = L.parities
    n, e, o = L.dim, L.n_even, L.n_odd
    # the pairs a <= b of each parity, less the even diagonals that graded
    # skew-symmetry forces to zero
    coords = {EVEN: e * (e - 1) // 2 + o * (o + 1) // 2, ODD: e * o}
    # adj[y][w] is the integral table's entry for [b_y, b_w]
    adj: list[dict] = [{} for _ in range(n)]
    for (y, w), entry in L.integral_table().items():
        adj[y][w] = entry
    # the rows of two entries or more, and the keys of the one-entry rows
    rows: dict[int, list[dict]] = {EVEN: [], ODD: []}
    peeled: dict[int, set] = {EVEN: set(), ODD: set()}
    for i, j, k in generator_triples(L):
        row: dict = {}
        for x, y, w in ((i, j, k), (j, k, i), (k, i, j)):
            if entry := adj[y].get(w):
                px = p[x]
                sign = -1 if px and p[w] else 1
                for t, c in entry.items():
                    if x < t or (x == t and px):
                        key, s = x * n + t, sign
                    elif x > t:
                        key, s = t * n + x, sign if px and p[t] else -sign
                    else:
                        continue
                    if total := row.get(key, 0) + s * c:
                        row[key] = total
                    else:
                        del row[key]
        sigma = (p[i] + p[j] + p[k]) % 2
        if len(row) == 1:
            peeled[sigma].update(row)
        elif row:
            rows[sigma].append(row)
    cob = L.superdim(L.gamma(2))
    return SuperDim(
        coords[EVEN] - _peeled_rank(rows[EVEN], peeled[EVEN]) - cob.even,
        coords[ODD] - _peeled_rank(rows[ODD], peeled[ODD]) - cob.odd,
    )


# -- bracket quotients and the lambda maps -------------------------------------


def _check_step(L: LieSuperalgebra, i: int) -> None:
    c = L.nilpotency_class()
    if not 2 <= i <= c:
        raise AlgebraError(f"{L.name}: index {i} outside [2, {c}]")


def bracket_quotient_dim(pres: FreePresentation, i: int) -> int:
    """dim [γ_i(F)+R, F] / [γ_{i+1}(F)+R, F]; at i = c the denominator is [R, F].

    [γ_j(F)+R, F] = γ_{j+1}(F) + [R, F] has dimension dim γ_{j+1}(F) plus
    the number of [R, F]'s pivots of degree <= j: a row of [R, F] has its
    pivot at its lowest degree (`FreePresentation.bracket_ideal_residual`),
    and a combination of rows is its coefficient at each pivot.  Subtract
    at j = i+1 from j = i: dim F_{i+1} less the pivots of degree i+1.
    """
    _check_step(pres.target, i)
    f = pres.fbar
    top = sum(1 for p in pres.relation_bracket.pivots if f.basis_degree(p) == i + 1)
    return f.degree_dims()[i].total - top


def bracket_map_kernel_dim(L: LieSuperalgebra, i: int) -> int:
    """dim ker of the epimorphism from the tensor domain onto the bracket quotient.

    The domain is γ_c(L) ⊗ L/γ₂(L) at the top step and
    (γ_i(L)/γ_{i+1}(L)) ⊗ L/γ₂(L) below it; its dimension is the product
    of total dimensions.
    """
    pres = present(L)
    cogen = L.dim - L.gamma(2).dim
    first = L.gamma(i).dim - L.gamma(i + 1).dim
    kernel = first * cogen - bracket_quotient_dim(pres, i)
    if kernel < 0:
        raise AlgebraError(f"{L.name}: bracket quotient exceeds its tensor domain")
    return kernel


# -- witness tensors ------------------------------------------------------------


class WitnessTensor:
    """A signed tensor built from generators, plus its kernel verdict:
    `tensor` maps (m, b) to the coefficient of b_m ⊗ y_b, over the first
    legs' canonical remainders and the second legs' generator positions."""

    __slots__ = ("tensor", "in_kernel")

    def __init__(self, tensor: dict[tuple[int, int], Fraction], in_kernel: bool):
        self.tensor = tensor
        self.in_kernel = in_kernel

    @property
    def nonzero(self) -> bool:
        return bool(self.tensor)


def witness_terms(L: LieSuperalgebra, xs, i: int) -> list[tuple[Fraction, dict, int]]:
    """Signed (coefficient, bracket value, tuple position) triples of the
    witness tensor: the rewriting identity's image at xs.

    Each term [u, x_k] of `rewrite_tensor_terms` (brace term folded) gives
    u evaluated at xs and position k; read as u ⊗ x_k, λ_i sends their
    signed sum to the identity, which vanishes.
    """
    parities = tuple(L.parity_of(x) for x in xs)
    memo: dict = {}
    return [
        (coeff, evaluate_word(L, u, xs, memo), k)
        for coeff, u, k in rewrite_tensor_terms(i, parities)
    ]


def witness_tensor(L: LieSuperalgebra, i: int, positions) -> WitnessTensor:
    """Build the signed witness tensor on the generator lifts at `positions`
    (i+1 indices into the presentation's lifts) and check that its image
    under the concrete lambda map vanishes.

    The terms are summed per second-leg position b, and each sum u_b in
    γ_i(L) is kept as its canonical remainder `γ_{i+1}.reduce(u_b)`: u_b
    less a member of γ_{i+1}(L), so still in γ_i(L), and 0 at γ_{i+1}'s
    pivots.  The remainder map is linear with kernel γ_{i+1}(L), so it is
    injective on γ_i/γ_{i+1} (the identity at the top step, where γ_{c+1}
    is zero), and a tensor's class is zero exactly when its legs are.
    """
    pres = present(L)
    _check_step(L, i)
    pos = tuple(positions)
    if len(pos) != i + 1:
        raise AlgebraError(f"{L.name}: need {i + 1} tuple entries, got {len(pos)}")
    gens = len(pres.lift_indices)
    if not all(0 <= t < gens for t in pos):
        raise AlgebraError(f"{L.name}: generator positions must lie in range({gens})")
    xs = [{pres.lift_indices[t]: _ONE} for t in pos]
    sums: dict[int, dict] = {}
    for coeff, val, k in witness_terms(L, xs, i):
        axpy(sums.setdefault(pos[k], {}), coeff, val)
    gnext = L.gamma(i + 1)
    legs = {b: leg for b, u in sums.items() if (leg := gnext.reduce(u))}
    tensor = {(m, b): c for b, leg in legs.items() for m, c in leg.items()}
    return WitnessTensor(tensor, in_kernel=not bracket_map_residual(pres, i, legs))


def bracket_map_residual(pres: FreePresentation, i: int, legs: dict[int, dict]) -> dict:
    """Image of Σ_b legs[b] ⊗ y_b (first legs in γ_i(L)) under the concrete
    lambda map modulo [γ_{i+1}(F)+R, F], as the canonical residual of
    `FreePresentation.bracket_ideal_residual`; an empty residual certifies
    kernel membership.  u ⊗ y_b goes to [w_u, g_b], w_u a lift of u into
    γ_i(F), read off fbar's generator column b; a u in γ_{i+1}(L) goes
    into γ_{i+2}(F), which the residual drops."""
    ad = pres.fbar.generator_columns()
    total: dict = {}
    for b, u in legs.items():
        axpy(total, 1, combine(ad[b], pres.lift_into_gamma(u, i)))
    return pres.bracket_ideal_residual(total, i + 1)


def witness_tuple_positions(L: LieSuperalgebra, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Generator positions (z_1..z_i) with [z_1..z_i] nonzero modulo
    γ_{i+1}(L), plus the positions of all remaining generators."""
    pres = present(L)
    _check_step(L, i)
    lifts = [{t: _ONE} for t in pres.lift_indices]
    gnext = L.gamma(i + 1)
    memo: dict = {}
    for tup in itertools.product(range(len(lifts)), repeat=i):
        z = evaluate_word(L, left_normed_word(tup), lifts, memo)
        if not gnext.contains(z):
            used = set(tup)
            rest = tuple(t for t in range(len(lifts)) if t not in used)
            return tup, rest
    raise AlgebraError(
        f"{L.name}: no left-normed generator word of length {i} survives modulo the next step"
    )


# -- the dimension identities ---------------------------------------------------


class IdentityReport:
    __slots__ = ("lhs", "rhs", "parts")

    def __init__(self, lhs: int, rhs: int, parts: dict[str, int]):
        self.lhs = lhs
        self.rhs = rhs
        self.parts = parts

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def verify_top_step_identity(L: LieSuperalgebra) -> IdentityReport:
    """dim γ_c(L) + dim M(L) = dim M(L/γ_c(L)) + dim [γ_c(F)+R, F]/[R, F]."""
    c = L.nilpotency_class()
    if c < 2:
        raise AlgebraError(f"{L.name}: identity needs nilpotency class at least 2")
    pres = present(L)
    gc = L.gamma(c).dim
    m_l = schur_multiplier_hopf(L).total
    q = L.quotient(L.gamma(c), name=f"{L.name}/g{c}")
    m_q = schur_multiplier_hopf(q).total
    bq = bracket_quotient_dim(pres, c)
    return IdentityReport(
        lhs=gc + m_l,
        rhs=m_q + bq,
        parts={
            "dim_gamma_c": gc,
            "dim_multiplier": m_l,
            "dim_multiplier_of_quotient": m_q,
            "bracket_quotient": bq,
        },
    )


def abelian_multiplier_dims(m: int, n: int) -> SuperDim:
    """Closed-form multiplier of the abelian algebra A(m|n); its even part
    (m(m-1) + n(n+1)) / 2 is exact, as each product is of consecutive integers."""
    return SuperDim((m * (m - 1) + n * (n + 1)) // 2, m * n)


def verify_telescoped_identity(L: LieSuperalgebra) -> IdentityReport:
    """dim M(L) = dim M(L/γ₂) + dim γ₂ (dim L/γ₂ - 1) - Σ_{i=2}^{c} dim ker λ_i,
    with M(L/γ₂) from the abelian closed form, not from the Hopf route."""
    c = L.nilpotency_class()
    if c < 2:
        raise AlgebraError(f"{L.name}: identity needs nilpotency class at least 2")
    m_l = schur_multiplier_hopf(L).total
    g2 = L.gamma(2).dim
    gens = L.minimal_generator_dims()
    cogen = gens.total
    m_ab = abelian_multiplier_dims(gens.even, gens.odd).total
    kernels = {i: bracket_map_kernel_dim(L, i) for i in range(2, c + 1)}
    return IdentityReport(
        lhs=m_l,
        rhs=m_ab + g2 * (cogen - 1) - sum(kernels.values()),
        parts={
            "dim_multiplier": m_l,
            "dim_multiplier_abelianization": m_ab,
            "dim_gamma_2": g2,
            "dim_cogenerators": cogen,
            **{f"bracket_kernel_{i}": v for i, v in kernels.items()},
        },
    )
