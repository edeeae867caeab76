"""Finite-dimensional Lie superalgebras given by structure-constant tables.

An algebra is a Z2-graded basis (even vectors first) plus a table of
brackets [b_i, b_j] for i <= j; the other half of the table follows from
graded skew-symmetry.  Validation checks the grading of every table
entry, consistency of redundantly supplied entries, and the graded
Jacobi identity on all basis triples.  Only the triples with a nonzero
nested bracket [b_a, [b_b, b_c]] are evaluated: on any other triple
every term of the Jacobi sum is zero.  `ad_support` indexes the nonzero
brackets, so products, ideals, the center and quotients also bracket
only pairs that can be nonzero, and the cochain route reads each
generator lift's ad-support to find its rows.

The lower central series brackets only with the generator lifts, the
unit vectors off the pivots of gamma_2 = [L, L]: layers S_1 = lifts,
S_{k+1} = [S_k, lifts] give gamma_k = S_k + S_{k+1} + ... on a valid
nilpotent algebra (`_series_from_lifts` has the proof).  The layers are
made in integers, and each gamma_k is a snapshot of one echelon whose
reduced Fraction rows are made only when read.  Any other input keeps
the chain gamma_{k+1} = [gamma_k, L] and its report.

`integral_table` is the completed table times the lcm of its
denominators D (`table_scale`), in ints.  A common positive scale
changes no zero test, span, rank or kernel, so the Jacobi residual,
gamma_2 and the series' layers, the center and the cochain route read
it; `eval_hom` reads it too, its columns scaled by powers of D.
`bracket_basis` and `bracket` keep returning Fractions.

A graded subspace W = W_0 + W_1 is a plain `Subspace` of the full
coordinate space.  Even coordinates come first, so W's reduced
row-echelon rows are W_0's rows followed by W_1's: each is homogeneous,
and `graded_dim` reads the (even | odd) dimensions off the pivots, for
an algebra's subspaces (`superdim`) and for a free presentation's.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .exactla import Record, SparseEchelon, Subspace, axpy, combine, kernel

EVEN = 0
ODD = 1
Parity = int

_ONE = Fraction(1)


def graded_sign(p: int, q: int) -> int:
    """(-1)^{pq}: the sign of moving an element of parity p past one of parity q.

    An int, so that integer coefficients times signs stay ints.
    """
    return -1 if p * q % 2 else 1


class AlgebraError(ValueError):
    pass


class SuperDim(Record):
    """A pair (even count | odd count) of natural numbers."""

    __slots__ = _fields = ("even", "odd")

    def __init__(self, even: int, odd: int):
        self.even = even
        self.odd = odd

    @property
    def total(self) -> int:
        return self.even + self.odd

    def __str__(self) -> str:
        return f"({self.even}|{self.odd})"


def graded_dim(pivots, n_even: int) -> SuperDim:
    """(even | odd) dimensions of a graded subspace of a space whose first
    n_even coordinates are the even ones, from the pivots of a basis of
    homogeneous rows: a row with a pivot below n_even is even, the rest
    odd."""
    even = sum(1 for p in pivots if p < n_even)
    return SuperDim(even, len(pivots) - even)


class ValidationReport:
    """Outcome of table validation.

    `malformed` collects entry-level defects (indices out of range,
    targets of the wrong parity); `violations` collects failures of
    graded skew-symmetry and of the graded Jacobi identity.
    """

    __slots__ = ("malformed", "violations")

    def __init__(self, malformed: list[str], violations: list[str]):
        self.malformed = malformed
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.malformed and not self.violations

    def summary(self) -> str:
        return "; ".join(self.malformed + self.violations)


class LieSuperalgebra:
    """A Lie superalgebra presented by basis labels, parities and a bracket table.

    The table maps index pairs (i, j) to sequences of (target, coefficient)
    terms.  Entries with i <= j are the canonical data; entries with i > j
    are accepted and checked against their mirrors.  Instances are treated
    as immutable; derived data (series, center, validation) is cached.
    """

    def __init__(self, name, basis_labels, parities, table):
        basis_labels = tuple(str(s) for s in basis_labels)
        parities = tuple(int(p) for p in parities)
        if len(basis_labels) != len(parities):
            raise AlgebraError("basis labels and parities differ in length")
        if any(p not in (EVEN, ODD) for p in parities):
            raise AlgebraError("parities must be 0 (even) or 1 (odd)")
        if list(parities) != sorted(parities):
            raise AlgebraError("even basis vectors must be listed before odd ones")
        if len(set(basis_labels)) != len(basis_labels):
            raise AlgebraError("duplicate basis labels")
        self.name = str(name)
        self.basis_labels = basis_labels
        self.parities = parities
        self.dim = len(basis_labels)
        self.n_even = parities.count(EVEN)
        self.n_odd = parities.count(ODD)
        raw = {}
        for key, terms in table.items():
            i, j = int(key[0]), int(key[1])
            raw[(i, j)] = tuple((int(k), Fraction(c)) for k, c in terms)
        self._raw = raw
        self._cache: dict = {}

    # -- basic structure ---------------------------------------------------

    @property
    def sdim(self) -> SuperDim:
        return SuperDim(self.n_even, self.n_odd)

    def superdim(self, S: Subspace) -> SuperDim:
        """(even | odd) dimensions of a graded subspace (see `graded_dim`)."""
        return graded_dim(S.pivots, self.n_even)

    def label_of(self, i: int) -> str:
        return self.basis_labels[i]

    def index_of(self, label: str) -> int:
        try:
            return self.basis_labels.index(label)
        except ValueError:
            raise AlgebraError(f"unknown basis label {label!r} in {self.name}") from None

    def _summed(self, terms) -> dict[int, Fraction]:
        """One raw entry as a sparse dict: its in-range targets, with
        repeated targets added up and zeros dropped."""
        acc: dict = {}
        for k, c in terms:
            if 0 <= k < self.dim:
                axpy(acc, 1, {k: c})
        return acc

    def _table(self) -> dict[tuple[int, int], dict[int, Fraction]]:
        """The nonzero brackets [b_i, b_j] for all i and j, built once in
        one pass over the raw entries: each in-range entry and its mirror
        by graded skew-symmetry.  An i > j entry whose mirror is supplied
        is skipped; `validate` checks that the two agree.  Two odd indices
        have sign 1, so their mirror shares the entry."""
        if "table" not in self._cache:
            table = {}
            for (i, j), terms in self._raw.items():
                if not (0 <= i < self.dim and 0 <= j < self.dim):
                    continue
                if i > j and (j, i) in self._raw:
                    continue
                entry = self._summed(terms)
                if not entry:
                    continue
                table[(i, j)] = entry
                if i != j:
                    odd = self.parities[i] == self.parities[j] == ODD
                    table[(j, i)] = entry if odd else {k: -c for k, c in entry.items()}
            self._cache["table"] = table
        return self._cache["table"]

    def bracket_basis(self, i: int, j: int) -> dict[int, Fraction]:
        """[b_i, b_j] as a sparse coordinate dict from the completed table.

        The dict is shared, not copied: callers must not mutate it.
        """
        return self._table().get((i, j), {})

    def ad_support(self) -> tuple[tuple[int, ...], ...]:
        """For each basis index i, the sorted j with [b_i, b_j] != 0.

        Read once from the completed table, so it is symmetric.
        """
        if "ad_support" not in self._cache:
            support: list[list[int]] = [[] for _ in range(self.dim)]
            for i, j in self._table():
                support[i].append(j)
            self._cache["ad_support"] = tuple(tuple(sorted(s)) for s in support)
        return self._cache["ad_support"]

    def integral_table(self) -> dict[tuple[int, int], dict[int, int]]:
        """The completed table times D, the lcm of all its denominators,
        with int coefficients and the same keys, built once.

        Its entries are shared: callers must not mutate them.
        """
        if "integral_table" not in self._cache:
            table = self._table()
            d = lcm(*(c.denominator for terms in table.values() for c in terms.values()))
            self._cache["table_scale"] = d
            self._cache["integral_table"] = {
                key: {k: c.numerator * (d // c.denominator) for k, c in terms.items()}
                for key, terms in table.items()
            }
        return self._cache["integral_table"]

    def table_scale(self) -> int:
        """D, the lcm of the table's denominators: `integral_table` is D
        times the table."""
        self.integral_table()
        return self._cache["table_scale"]

    def nonzero_pairs(self) -> list[tuple[int, int]]:
        """The pairs i <= j with [b_i, b_j] != 0, in increasing order."""
        return [
            (i, j) for i, sup in enumerate(self.ad_support()) for j in sup if i <= j
        ]

    def _nested_triples(self) -> list[tuple[int, int, int]]:
        """The triples i <= j <= k, in increasing order, with some nonzero
        nested bracket [b_a, [b_b, b_c]] among their orderings: [b_b, b_c]
        has a target t and a lies in t's ad-support.  [b_c, b_b] is a
        multiple of [b_b, b_c], with the same targets, so only b <= c is
        read, and a is placed into the ordered pair."""
        support = self.ad_support()
        found = set()
        for (b, c), terms in self._table().items():
            if b > c:
                continue
            for t in terms:
                for a in support[t]:
                    found.add((a, b, c) if a <= b else (b, a, c) if a <= c else (b, c, a))
        return sorted(found)

    def _reach(self, v: dict) -> set[int]:
        """The basis indices j that some key of v brackets nontrivially."""
        support = self.ad_support()
        return set().union(*(support[k] for k in v))

    def bracket(self, x: dict, y: dict) -> dict:
        """Bilinear extension of the table to sparse coordinate vectors."""
        acc: dict = {}
        for i, xi in x.items():
            for j, yj in y.items():
                axpy(acc, xi * yj, self.bracket_basis(i, j))
        return acc

    # -- homogeneity helpers ----------------------------------------------

    def split(self, v: dict) -> tuple[dict, dict]:
        """The even and odd parts of a sparse coordinate vector."""
        ne = self.n_even
        return (
            {k: c for k, c in v.items() if k < ne},
            {k: c for k, c in v.items() if k >= ne},
        )

    def is_homogeneous(self, v: dict) -> bool:
        ve, vo = self.split(v)
        return not ve or not vo

    def parity_of(self, v: dict) -> Parity:
        """Parity of a homogeneous vector; zero counts as even."""
        ve, vo = self.split(v)
        if not vo:
            return EVEN
        if not ve:
            return ODD
        raise AlgebraError("vector is not homogeneous")

    # -- validation ---------------------------------------------------------

    def validate(self) -> ValidationReport:
        if "validate" in self._cache:
            return self._cache["validate"]
        malformed: list[str] = []
        violations: list[str] = []
        for (i, j), terms in sorted(self._raw.items()):
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                malformed.append(f"bracket entry ({i},{j}) has an index out of range")
                continue
            want = (self.parities[i] + self.parities[j]) % 2
            for k, c in terms:
                if not 0 <= k < self.dim:
                    malformed.append(
                        f"bracket [{self.label_of(i)},{self.label_of(j)}] targets "
                        f"index {k} out of range"
                    )
                elif c != 0 and self.parities[k] != want:
                    malformed.append(
                        f"bracket [{self.label_of(i)},{self.label_of(j)}] targets "
                        f"{self.label_of(k)} of the wrong parity"
                    )
        if not malformed:
            # skew-symmetry of redundantly supplied pairs and even diagonals;
            # the table holds the mirror of each supplied i < j entry
            for (i, j), terms in sorted(self._raw.items()):
                if i > j:
                    if (j, i) in self._raw and self._summed(terms) != self.bracket_basis(i, j):
                        violations.append(
                            f"graded skew-symmetry violated at "
                            f"({self.label_of(j)},{self.label_of(i)})"
                        )
                elif i == j and self.parities[i] == EVEN:
                    if any(c != 0 for _, c in terms):
                        violations.append(
                            f"graded skew-symmetry forces [{self.label_of(i)},"
                            f"{self.label_of(i)}] = 0 for even {self.label_of(i)}"
                        )
        if not malformed:
            # a triple with no nonzero nested bracket has a zero residual
            for i, j, k in self._nested_triples():
                if self._jacobi_residual(i, j, k):
                    violations.append(
                        f"graded Jacobi identity fails on "
                        f"({self.label_of(i)},{self.label_of(j)},{self.label_of(k)})"
                    )
        report = ValidationReport(malformed, violations)
        self._cache["validate"] = report
        return report

    def _jacobi_residual(self, i: int, j: int, k: int) -> dict:
        # (-1)^{|i||k|}[b_i,[b_j,b_k]] + cyclic, times D^2 from the integral
        # table; vanishing on i<=j<=k triples suffices because the
        # expression is graded-symmetric under the bracket's
        # skew-symmetry alone.
        p = self.parities
        table = self.integral_table()
        acc: dict = {}
        for (a, b, c_) in ((i, j, k), (j, k, i), (k, i, j)):
            sign = graded_sign(p[a], p[c_])
            for t, ct in table.get((b, c_), {}).items():
                axpy(acc, sign * ct, table.get((a, t), {}))
        return acc

    def require_valid(self) -> None:
        report = self.validate()
        if not report.ok:
            raise AlgebraError(f"{self.name} is not a Lie superalgebra: {report.summary()}")

    # -- structural invariants ----------------------------------------------

    def graded_span(self, vectors) -> Subspace:
        """Span of the even and odd parts of sparse vectors."""
        return Subspace.span(
            (part for v in vectors for part in self.split(v) if part), self.dim
        )

    def product_space(self, u: Subspace, w: Subspace) -> Subspace:
        """Span of all brackets of rows of graded u and w.

        The rows are homogeneous, so their brackets are; zero products
        are dropped before they reach the echelon, and a pair is skipped
        unbracketed when y's keys miss the ad-support of x's.
        """
        def products():
            for x in u.rows:
                reach = self._reach(x)
                for y in w.rows:
                    if not reach.isdisjoint(y) and (z := self.bracket(x, y)):
                        yield z

        return Subspace.span(products(), self.dim)

    def lower_central_series(self) -> list[Subspace]:
        """Chain gamma_1 = L, gamma_{k+1} = [gamma_k, L] until it stabilizes.

        For nilpotent algebras the returned chain ends with the zero
        subspace; otherwise it ends at the first repeated term.

        gamma_2 = [L, L] is the span of the integral table's entries.  When
        `_series_from_lifts` accepts its layers, the chain is read off
        them.  Otherwise (an invalid table, a non-nilpotent algebra) each
        term is bracketed with all of L until the chain repeats or
        reaches zero.
        """
        if "series" in self._cache:
            return self._cache["series"]
        brackets = SparseEchelon()
        for (i, j), entry in self.integral_table().items():
            if i <= j:  # [b_j, b_i] is a multiple of [b_i, b_j]
                brackets.insert(entry)
        chain = self._series_from_lifts(brackets.pivots)
        if chain is None:
            full = Subspace.full(self.dim)
            chain = [full]
            nxt = Subspace(self.dim, brackets.rows())
            while nxt != chain[-1]:
                chain.append(nxt)
                if nxt.dim == 0:
                    break
                nxt = self.product_space(nxt, full)
        self._cache["series"] = chain
        return chain

    def _series_from_lifts(self, gamma2_pivots) -> list[Subspace] | None:
        """The series gamma_k = S_k + S_{k+1} + ..., from layers bracketed
        only with the generator lifts, or None when the layers are not
        accepted.

        X is the unit vectors off gamma_2's pivots, S_1 = span X and
        S_{k+1} = [S_k, X].  The layers are accepted when L validates, some
        S_m with m <= dim L + 1 is zero, and S_2 + S_3 + ... has the
        dimension of gamma_2.  That sum lies in gamma_2, so it is then
        gamma_2, and the S_k span L; a perfect algebra of positive
        dimension fails this, as its X is empty.  Nilpotent-quotient
        algorithms build the layers this way (Havas, Newman and
        Vaughan-Lee, J. Symbolic Comput. 9, 1990).

        Proof that T_k = S_k + S_{k+1} + ... equals gamma_k.  L validates,
        so the table is homogeneous and graded Jacobi holds; X is
        homogeneous, so each S_k has homogeneous rows, and
        [T_k, X] = T_{k+1}.  By induction on i, [S_j, S_i] lies in T_{i+j}
        for every j: for i = 1 it is S_{j+1}; for i > 1, S_i is spanned by
        [u, x] with u in S_{i-1} and x in X, and for homogeneous y in S_j

            [y, [u, x]] = [[y, u], x] - (-1)^{|u||x|} [[y, x], u].

        By the induction hypothesis [y, u] lies in T_{i+j-1}, so [[y, u], x]
        lies in T_{i+j}; and [y, x] lies in S_{j+1}, so [[y, x], u] lies in
        [S_{j+1}, S_{i-1}], inside T_{i+j} by the hypothesis again.  Now
        T_1 = L = gamma_1, and if T_k = gamma_k then gamma_{k+1} = [T_k, T_1],
        the sum of the [S_j, S_i] with j >= k, lies in T_{k+1}, while
        T_{k+1} = [T_k, X] lies in [gamma_k, L] = gamma_{k+1}.  So
        T_k = gamma_k for every k.  The first zero layer is S_m, so T_m = 0
        and T_{m-1} is not: the chain is gamma_1, ..., gamma_m = 0, as
        bracketing with all of L gives it.

        Each layer is made in integers.  Proof that its echelon spans S_k.
        The integral table is D times the table, D > 0, so for a lift
        index j the sum of x_i * D[b_i, b_j] is D[x, b_j], a nonzero
        multiple of [x, b_j] with the same zero test.  A layer's echelon
        stores primitive rows, each a nonzero multiple of a combination
        of its inputs, and they have the inputs' span.  So if the rows x
        of layer k span S_k, the D[x, b_j] span [S_k, X] = S_{k+1}, and so
        do the next layer's rows; S_1's rows are the unit vectors of X.
        Spans, dimensions and zero tests are all the acceptance checks
        read, so they decide as they would in Fractions.

        The T_k are snapshots of one echelon filled with S_m, ..., S_2 in
        turn; their reduced rows are made only when read.
        """
        taken = set(gamma2_pivots)
        lifts = [j for j in range(self.dim) if j not in taken]
        table = self.integral_table()
        support = self.ad_support()
        # each lift's ad-support, and its columns D[b_i, b_j], empty off it
        columns = [
            (set(support[j]), [table.get((i, j), {}) for i in range(self.dim)]) for j in lifts
        ]
        layers = [[{j: 1} for j in lifts]]
        while layers[-1] and len(layers) <= self.dim:
            layer = SparseEchelon()
            for x in layers[-1]:
                for reach, column in columns:
                    if not reach.isdisjoint(x) and (z := combine(column, x)):
                        layer.insert(z)
            layers.append(list(layer.primitive_rows()))
        if layers[-1] or not self.validate().ok:
            return None
        ech = SparseEchelon()
        chain = []
        for layer in reversed(layers[1:]):
            for row in layer:
                ech.insert(row)
            chain.append(Subspace.of_echelon(ech, self.dim))
        if ech.rank != len(taken):
            return None
        chain.append(Subspace.full(self.dim))
        chain.reverse()
        return chain

    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1].dim == 0

    def nilpotency_class(self) -> int:
        chain = self.lower_central_series()
        if chain[-1].dim:
            raise AlgebraError(
                f"{self.name} is not nilpotent: series stabilizes at "
                f"dimension {self.superdim(chain[-1])}"
            )
        return len(chain) - 1

    def gamma(self, i: int) -> Subspace:
        """i-th term of the descending central sequence (1-based)."""
        if i < 1:
            raise AlgebraError("series index starts at 1")
        chain = self.lower_central_series()
        return chain[min(i, len(chain)) - 1]

    def center(self) -> Subspace:
        """{z : [z, x] = 0 for all x}, the kernel of the adjoint columns.

        Column i holds the coordinates t of [b_i, b_j], keyed (j, t), for
        the j in the ad-support of i, from the integral table: a common
        scale leaves the kernel unchanged.  An even column's keys have
        |t| = |j| and an odd column's |t| != |j|, so the two share no key
        and the kernel is graded.
        """
        table = self.integral_table()
        return kernel([
            {(j, t): c for j in sup for t, c in table[(i, j)].items()}
            for i, sup in enumerate(self.ad_support())
        ])

    # -- quotients and generators --------------------------------------------

    def is_graded_ideal(self, S: Subspace) -> tuple[bool, str | None]:
        """Whether S is spanned by homogeneous rows with [x, b_j] in S for
        every row x and basis index j, with the first failure described.

        Only the j in the ad-support of x's keys are bracketed: [x, b_j]
        is zero for the others, and S contains it.
        """
        for x in S.rows:
            if not self.is_homogeneous(x):
                return False, f"{self._describe(x)} is not homogeneous"
            for j in sorted(self._reach(x)):
                if not S.contains(self.bracket(x, {j: _ONE})):
                    witness = (
                        f"[{self._describe(x)}, {self.label_of(j)}] escapes the subspace"
                    )
                    return False, witness
        return True, None

    def _describe(self, v: dict) -> str:
        terms = [
            (f"{c}*" if c != 1 else "") + self.label_of(i) for i, c in sorted(v.items())
        ]
        return " + ".join(terms) if terms else "0"

    def quotient(self, ideal: Subspace, name: str | None = None):
        """Quotient algebra by a graded ideal.

        The complement basis is the set of non-pivot coordinates of the
        ideal, so the induced table is deterministic.  Column s of the
        projection is b_s reduced by the ideal, read at those coordinates,
        as a sparse vector, and the table is [b_a, b_b] projected for
        complement indices a <= b.

        The projection is then a homomorphism of even degree, with no
        check needed: b_s minus its reduction c_s lies in the ideal I, so
        [b_i, b_j] - [c_i, c_j] = [b_i - c_i, b_j] + [c_i, b_j - c_j] lies
        in I, which `is_graded_ideal` has checked; the projection of
        [c_i, c_j] is the table's bracket of the projections, by
        bilinearity, and the ideal's homogeneous rows keep reduction
        within a parity.
        """
        ok, witness = self.is_graded_ideal(ideal)
        if not ok:
            raise AlgebraError(f"not an ideal of {self.name}: {witness}")
        comp = ideal.non_pivots
        pos = {s: t for t, s in enumerate(comp)}
        labels = [self.basis_labels[i] for i in comp]
        pars = [self.parities[i] for i in comp]
        # column s is the image of b_s; reduction leaves only complement keys
        cols = [
            {pos[k]: c for k, c in ideal.reduce({s: _ONE}).items()}
            for s in range(self.dim)
        ]
        table = {}
        support = self.ad_support()
        for a, i in enumerate(comp):
            for j in support[i]:
                if j >= i and j in pos:
                    z = combine(cols, self.bracket_basis(i, j))
                    if z:
                        table[(a, pos[j])] = tuple(sorted(z.items()))
        return LieSuperalgebra(
            name if name is not None else f"{self.name}/I", labels, pars, table
        )

    def minimal_generator_dims(self) -> SuperDim:
        """Superdimension of L / [L, L] for nilpotent L."""
        self.nilpotency_class()  # raises on non-nilpotent input
        g2 = self.superdim(self.gamma(2))
        return SuperDim(self.n_even - g2.even, self.n_odd - g2.odd)

    def generator_lift_indices(self) -> list[int]:
        """Coordinates of homogeneous lifts of a basis of L / [L, L]."""
        self.nilpotency_class()
        return list(self.gamma(2).non_pivots)


def direct_sum(a: LieSuperalgebra, b: LieSuperalgebra, name: str | None = None) -> LieSuperalgebra:
    """Block-diagonal sum with even-first reordering of the joint basis."""
    b_labels = list(b.basis_labels)
    if set(a.basis_labels) & set(b.basis_labels):
        b_labels = [f"{lbl}_2" for lbl in b_labels]
    labels = (
        list(a.basis_labels[: a.n_even])
        + b_labels[: b.n_even]
        + list(a.basis_labels[a.n_even:])
        + b_labels[b.n_even:]
    )
    pars = [EVEN] * (a.n_even + b.n_even) + [ODD] * (a.n_odd + b.n_odd)

    def map_a(i: int) -> int:
        return i if i < a.n_even else i + b.n_even

    def map_b(i: int) -> int:
        return a.n_even + i if i < b.n_even else a.n_even + a.n_odd + i

    table = {}
    for alg, mapper in ((a, map_a), (b, map_b)):
        for i, j in alg.nonzero_pairs():
            table[(mapper(i), mapper(j))] = tuple(
                (mapper(k), c) for k, c in sorted(alg.bracket_basis(i, j).items())
            )
    return LieSuperalgebra(
        name if name is not None else f"{a.name}+{b.name}", labels, pars, table
    )


def change_basis(L: LieSuperalgebra, perm, scales, name: str | None = None) -> LieSuperalgebra:
    """Algebra on the rescaled, permuted basis b'_i = scales[i] * b_{perm[i]}.

    The permutation must preserve parity so the even-first convention
    survives.  Used to check that reported invariants are basis-free.
    """
    perm = tuple(perm)
    scales = tuple(Fraction(s) for s in scales)
    if sorted(perm) != list(range(L.dim)):
        raise AlgebraError("not a permutation")
    if any(s == 0 for s in scales):
        raise AlgebraError("zero scale")
    if any(L.parities[perm[i]] != L.parities[i] for i in range(L.dim)):
        raise AlgebraError("permutation must preserve parity")
    inv = {perm[i]: i for i in range(L.dim)}
    table = {}
    support = L.ad_support()
    for i in range(L.dim):
        for j in sorted(inv[m] for m in support[perm[i]]):
            if j >= i:
                raw = L.bracket_basis(perm[i], perm[j])
                table[(i, j)] = tuple(
                    (inv[k], scales[i] * scales[j] * c / scales[inv[k]])
                    for k, c in sorted(raw.items())
                )
    labels = [f"c{i+1}" for i in range(L.dim)]
    return LieSuperalgebra(name if name is not None else f"{L.name}~", labels, L.parities, table)
