"""Schur multipliers of nilpotent Lie superalgebras, two independent ways.

The primary route realizes the multiplier as (R ∩ F²)/[R, F] over a free
presentation truncated one class above the target: writing c for the
target's class, the free algebra is cut at class c+1.  The presentation
is minimal, so R ⊆ F² and the numerator is R itself (proof in
`present`).  The truncation loses nothing, because γ_{c+1}(F) ⊆ R forces
γ_{c+2}(F) ⊆ [R, F], so every quotient appearing here - the multiplier
itself and the bracket quotients [γ_i(F)+R, F]/[γ_{i+1}(F)+R, F] - is
untouched by dividing out γ_{c+2}(F).  Each [γ_i(F)+R, F] is
γ_{i+1}(F) + [R, F] (see `FreePresentation.bracket_ideals`), so one
product, [R, F], serves the multiplier and every bracket quotient.

The cross-check route counts graded-skew 2-cochains that extend the
algebra by a one-dimensional center (even or odd), modulo the cochains
induced by linear functionals.  The two routes are computed
independently; the CLI's `multiplier --method both` compares them and
exits 2 when they disagree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .exactla import (
    Matrix,
    SparseEchelon,
    Subspace,
    axpy,
    complement_rows,
    quotient_dim,
    rref,
    subspace_sum,
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
    graded_sign,
)


_ONE = Fraction(1)


@dataclass
class FreePresentation:
    """A surjection from a truncated free superalgebra onto the target.

    `fbar` is free nilpotent of class c+1 on the target's minimal
    generator counts, `pi` is the list of columns of the evaluation on
    the chosen homogeneous lifts (`eval_hom`), and `relations` is the
    graded kernel R of `pi`, which lies in γ₂(F) and contains
    γ_{c+1}(F) (see `present`).  `columns` is π's one elimination, each
    column tagged above the target's coordinates; `column_of` maps a tag
    to its basis index of fbar, in the order the columns went in.
    """

    target: LieSuperalgebra
    fbar: FreeNilpotentSuperalgebra
    pi: list[dict]
    relations: Subspace
    lift_indices: tuple[int, ...]
    columns: SparseEchelon
    column_of: dict[int, int]

    def lift_into_gamma(self, v: dict, i: int) -> dict:
        """Some w in γ_i(fbar) with π(w) = v, as coefficients over fbar's
        basis; raises unless v lies in γ_i(target).

        The columns went in by decreasing degree, later ones taking smaller
        tags, so `express` uses independent columns only.  π(γ_i(F)) =
        γ_i(L), so the independent columns of degree >= i span γ_i(L): v in
        γ_i(L) has exactly one expression, and it uses only columns of
        degree >= i.  Two lifts differ by some r in R ∩ γ_i(F), and [r, g]
        lies in [R, F] ⊆ [γ_{i+1}(F)+R, F], so no reduced residual depends
        on the lift.
        """
        f = self.fbar
        coeffs = self.columns.express(v, self.target.dim)
        lift = {self.column_of[t]: c for t, c in (coeffs or {}).items()}
        if coeffs is None or any(f.basis_degree(idx) < i for idx in lift):
            raise AlgebraError("element does not lift into the requested filtration step")
        return lift

    @cached_property
    def relation_bracket(self) -> Subspace:
        """[R, F], the one product with F that the presentation forms."""
        return bracket_with_free(self.fbar, self.relations)

    @cached_property
    def bracket_ideals(self) -> dict[int, Subspace]:
        """[γ_i(F) + R, F] = γ_{i+1}(F) + [R, F] inside fbar, keyed by i for
        2 <= i <= c+1: the bracket is bilinear and [γ_i(F), F] = γ_{i+1}(F)
        is the degree filtration `FreeNilpotentSuperalgebra.gamma`, zero
        from c+2 on."""
        f, rf = self.fbar, self.relation_bracket
        return {i: subspace_sum(f.gamma(i + 1), rf) for i in range(2, f.spec.class_bound + 1)}


def bracket_with_free(f: FreeNilpotentSuperalgebra, ideal: Subspace) -> Subspace:
    """[I, F] for a graded ideal I of F, as the product space [I, G] with
    G the span of the generators of F.

    [I, F] is the span J of [x, g] over basis members x of I and
    generators g.  The y with [I, y] ⊆ J contain the generators and are
    closed under brackets, because [x, [y, z]] = [[x, y], z] ± [[x, z], y]
    and [x, y], [x, z] lie in I; so they are all of F.
    """
    A = f.algebra
    gens = Subspace.span(
        ({f.generator_basis_index(t): _ONE} for t in range(f.spec.num)), A.dim
    )
    return A.product_space(ideal, gens)


def present(L: LieSuperalgebra) -> FreePresentation:
    """Truncated free presentation of a nonzero nilpotent superalgebra.

    Lifts are the coordinate vectors complementary to [L, L], evens
    first.  pi keeps parity, so an even and an odd column share no key
    and its kernel R is graded.  Two containments hold by construction
    and are not rechecked:

    * R ⊆ γ₂(F).  Write r = r₁ + r₂ with r₁ in the generators' span and
      r₂ in γ₂(F).  Then π(r₁) = −π(r₂) lies in γ₂(L).  The lifts are
      unit vectors off γ₂(L)'s pivots, so they are independent modulo
      γ₂(L), and r₁ = 0.
    * γ_{c+1}(F) ⊆ R.  `eval_hom` has checked that π is a homomorphism,
      so π(γ_{c+1}(F)) ⊆ γ_{c+1}(L) = 0.
    """
    L.require_valid()
    c = L.nilpotency_class()
    if L.dim == 0:
        raise AlgebraError("the zero algebra has no generators to present")
    if "presentation" in L._cache:
        return L._cache["presentation"]
    gens = L.minimal_generator_dims()
    spec = GeneratorSpec(gens.even, gens.odd, c + 1)
    f = build_free_nilpotent(spec)
    lifts = L.generator_lift_indices()
    images = [{t: _ONE} for t in lifts]
    pi = eval_hom(f, images, L)
    # the one dense Matrix left, kept while perfbench's spans wrap `rref` and
    # `Matrix.mul_vec` and its tests expect `rref` in a Hopf run (ROADMAP item 1)
    dense = Matrix(L.dim, f.dim, tuple(c.get(r, 0) for r in range(L.dim) for c in pi))
    _, rank = rref(dense)
    if rank != L.dim:
        raise AlgebraError(
            f"chosen lifts fail to generate {L.name} (closure has rank {rank})"
        )
    # by decreasing degree (a stable sort), later columns taking smaller tags
    order = sorted(range(f.dim), key=f.basis_degree, reverse=True)
    column_of = {L.dim + f.dim - s: idx for s, idx in enumerate(order)}
    columns = SparseEchelon()
    for t, idx in column_of.items():
        columns.insert({**pi[idx], t: 1})
    relations = columns.relations(L.dim, column_of.__getitem__, f.dim)
    pres = FreePresentation(L, f, pi, relations, tuple(lifts), columns, column_of)
    L._cache["presentation"] = pres
    return pres


def schur_multiplier_hopf(L: LieSuperalgebra) -> SuperDim:
    """(R ∩ F²)/[R, F] over the truncated free presentation, graded.

    The presentation is minimal, so R ⊆ F² (proof in `present`) and the
    numerator is R.
    """
    if "hopf" in L._cache:
        return L._cache["hopf"]
    L.require_valid()
    L.nilpotency_class()
    if L.dim == 0:
        return SuperDim(0, 0)
    pres = present(L)
    A = pres.fbar.algebra
    # a subset of reduced row-echelon rows is itself in that form
    comp = Subspace(A.dim, complement_rows(pres.relations, pres.relation_bracket))
    L._cache["hopf"] = A.superdim(comp)
    return L._cache["hopf"]


def schur_multiplier_cohomology(L: LieSuperalgebra) -> SuperDim:
    """Multiplier dimensions via one-dimensional central extensions.

    A graded-skew 2-cochain c of parity sigma (nonzero only on pairs
    with |x| + |y| = sigma) extends L by a central line of parity sigma
    exactly when the graded Jacobi identity of the extension holds,
    i.e. the cyclic sum (-1)^{|x||z|} c(x, [y, z]) vanishes on all basis
    triples.  Only the triples that touch a nonzero bracket give a row:
    on any other triple every term evaluates c on a zero inner bracket.
    Cochains of the form f([x, y]) for a linear functional f are split
    extensions; the quotient count per parity is reported.  The
    coboundary f -> f([x, y]) has rank dim span{[b_a, b_b]}, since its
    matrix has the brackets' coordinates as columns; the brackets are
    homogeneous, so the (even | odd) split of that span is the rank per
    parity.  Both ranks read the integral table, whose common scale
    changes no rank.
    """
    L.require_valid()
    L.nilpotency_class()
    p = L.parities
    e, o = L.n_even, L.n_odd
    # the pairs a <= b of each parity, less the even diagonals that graded
    # skew-symmetry forces to zero
    coords = {EVEN: e * (e - 1) // 2 + o * (o + 1) // 2, ODD: e * o}
    table = L.integral_table()
    cocycle_rank = {EVEN: SparseEchelon(), ODD: SparseEchelon()}
    for i, j, k in L.touching_triples():
        sigma = (p[i] + p[j] + p[k]) % 2
        row: dict = {}
        for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
            sign = graded_sign(p[x], p[z])
            for t, c in table.get((y, z), {}).items():
                # c(b_x, b_t) is (x, t) for x <= t, zero for x = t even, and
                # -(-1)^{|x||t|}(t, x) for x > t; insert drops zero entries
                if x < t or (x == t and p[x] == ODD):
                    row[(x, t)] = row.get((x, t), 0) + sign * c
                elif x > t:
                    row[(t, x)] = row.get((t, x), 0) - sign * graded_sign(p[x], p[t]) * c
        cocycle_rank[sigma].insert(row)
    cob = L.superdim(Subspace.span((table[pair] for pair in L.nonzero_pairs()), L.dim))
    return SuperDim(
        coords[EVEN] - cocycle_rank[EVEN].rank - cob.even,
        coords[ODD] - cocycle_rank[ODD].rank - cob.odd,
    )


# -- bracket quotients and the lambda maps -------------------------------------


def _check_step(L: LieSuperalgebra, i: int) -> None:
    c = L.nilpotency_class()
    if not 2 <= i <= c:
        raise AlgebraError(f"index {i} outside [2, {c}]")


def bracket_quotient_dim(pres: FreePresentation, i: int) -> int:
    """dim [γ_i(F)+R, F] / [γ_{i+1}(F)+R, F]; at i = c the denominator is [R, F]."""
    _check_step(pres.target, i)
    return quotient_dim(pres.bracket_ideals[i], pres.bracket_ideals[i + 1])


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
        raise AlgebraError("bracket quotient exceeds its tensor domain")
    return kernel


# -- witness tensors ------------------------------------------------------------


@dataclass
class WitnessTensor:
    """A signed tensor built from generators, plus its kernel verdict."""

    tensor: dict[tuple[int, int], Fraction]
    nonzero: bool
    in_kernel: bool


def _leg1_coords(L: LieSuperalgebra, i: int, v: dict) -> dict:
    """Coordinates of v's class over the representatives of γ_i/γ_{i+1}
    that `complement_rows(γ_i, γ_{i+1})` returns (γ_{c+1} is zero), keyed
    by representative position and nonzero only.

    γ_{i+1}.reduce(v) is v modulo γ_{i+1} with γ_{i+1}'s pivot entries
    cleared, so over γ_i's rows its coordinates (its pivot entries) are
    zero except at the representatives.
    """
    gi, gnext = L.gamma(i), L.gamma(i + 1)
    coords = gi.coords(gnext.reduce(v))
    if coords is None:
        raise AlgebraError("element lies outside the filtration step")
    skip = set(gnext.pivots)
    reps = (r for r, p in enumerate(gi.pivots) if p not in skip)
    return {a: coords[r] for a, r in enumerate(reps) if r in coords}


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

    First legs live in γ_i(L) coordinates at the top step and in
    γ_i/γ_{i+1} coordinates below it; second legs live in L/γ₂(L)
    coordinates, indexed by generator position.
    """
    pres = present(L)
    _check_step(L, i)
    pos = tuple(positions)
    if len(pos) != i + 1:
        raise AlgebraError(f"need {i + 1} tuple entries, got {len(pos)}")
    gens = len(pres.lift_indices)
    if not all(0 <= t < gens for t in pos):
        raise AlgebraError(f"generator positions must lie in range({gens})")
    xs = [{pres.lift_indices[t]: _ONE} for t in pos]
    tensor: dict[tuple[int, int], Fraction] = {}
    for coeff, val, k in witness_terms(L, xs, i):
        coords = _leg1_coords(L, i, val)
        axpy(tensor, coeff, {(a, pos[k]): ca for a, ca in coords.items()})
    rows = complement_rows(L.gamma(i), L.gamma(i + 1))
    residual = bracket_map_residual(pres, i, tensor, rows)
    return WitnessTensor(tensor=tensor, nonzero=bool(tensor), in_kernel=not residual)


def bracket_map_residual(
    pres: FreePresentation, i: int, tensor, leg1_rows
) -> dict:
    """Image of a tensor under the concrete lambda map, reduced modulo
    [γ_{i+1}(F)+R, F], as a sparse vector; an empty residual certifies
    kernel membership."""
    f = pres.fbar
    A = f.algebra
    total: dict = {}
    for (a, b), coeff in tensor.items():
        w_u = pres.lift_into_gamma(leg1_rows[a], i)
        w_y = {f.generator_basis_index(b): _ONE}
        axpy(total, coeff, A.bracket(w_u, w_y))
    return pres.bracket_ideals[i + 1].reduce(total)


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
        f"no left-normed generator word of length {i} survives modulo the next step"
    )


# -- the dimension identities ---------------------------------------------------


@dataclass
class IdentityReport:
    lhs: int
    rhs: int
    parts: dict[str, int]

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def verify_top_step_identity(L: LieSuperalgebra) -> IdentityReport:
    """dim γ_c(L) + dim M(L) = dim M(L/γ_c(L)) + dim [γ_c(F)+R, F]/[R, F]."""
    c = L.nilpotency_class()
    if c < 2:
        raise AlgebraError("identity needs nilpotency class at least 2")
    pres = present(L)
    gc = L.gamma(c).dim
    m_l = schur_multiplier_hopf(L).total
    q, _ = L.quotient(L.gamma(c), name=f"{L.name}/g{c}")
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


def verify_telescoped_identity(L: LieSuperalgebra) -> IdentityReport:
    """dim M(L) = dim M(L/γ₂) + dim γ₂ (dim L/γ₂ - 1) - Σ_{i=2}^{c} dim ker λ_i."""
    c = L.nilpotency_class()
    if c < 2:
        raise AlgebraError("identity needs nilpotency class at least 2")
    m_l = schur_multiplier_hopf(L).total
    g2 = L.gamma(2).dim
    cogen = L.dim - g2
    q, _ = L.quotient(L.gamma(2), name=f"{L.name}/g2")
    m_ab = schur_multiplier_hopf(q).total
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
