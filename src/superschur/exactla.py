"""Exact linear algebra over the rationals.

The substrate for every dimension computation in this package.  One
elimination engine, `SparseEchelon`, reduces sparse keyed vectors in
integers: an input is scaled by the lcm of its denominators, and a
stored row is a primitive integer vector, reduced only against rows of
smaller pivot and never rewritten afterwards.  It only reduces: spans
and ranks are its rows, and kernels and solutions are read off tag
coordinates that the caller appends after its real keys, as in an
augmented matrix.  No floating point anywhere.  Sparse dicts
{index: nonzero Fraction} are the one vector type: a `Subspace` keeps
the engine's reduced row-echelon rows, back-substituted once into
Fractions, so two objects describe the same subspace exactly when
their rows compare equal.  Dense Fraction tuples appear only in
`Matrix` and `rref`."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Hashable, Iterable, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SubspaceError(ValueError):
    """Ambient-dimension mismatch or failed containment."""


def axpy(y: dict, a, x: dict) -> None:
    """y += a * x in place, dropping the entries that cancel.

    A new key stores a * c as it is, so int data stays int.
    """
    for k, c in x.items():
        old = y.get(k)
        nv = a * c if old is None else old + a * c
        if nv:
            y[k] = nv
        elif old is not None:
            del y[k]


def _integral(v: dict) -> tuple[dict, int]:
    """v times the lcm d of its denominators, as a dict of nonzero ints, and d.

    The entries are ints or Fractions.
    """
    d = lcm(*(c.denominator for c in v.values()))
    if d == 1:
        return {k: c.numerator for k, c in v.items() if c}, 1
    return {k: c.numerator * (d // c.denominator) for k, c in v.items() if c}, d


@dataclass(frozen=True)
class Matrix:
    """Immutable rational matrix, stored row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"matrix with {self.rows}x{self.cols} shape needs "
                f"{self.rows * self.cols} entries, got {len(self.entries)}"
            )

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def mul_vec(self, v: Sequence) -> tuple[Fraction, ...]:
        if len(v) != self.cols:
            raise ValueError(f"vector of length {len(v)} against {self.cols} columns")
        return tuple(
            sum((self.entries[i * self.cols + j] * v[j] for j in range(self.cols)), _ZERO)
            for i in range(self.rows)
        )


def _reduce(rows: dict, v: dict) -> int:
    """Clear v's entries at the pivots of `rows` (pivot -> integer row with
    that pivot as its smallest key), in place and smallest first; returns
    the positive integer s such that what is left of v is s times v, less
    a combination of the rows."""
    scale = 1
    heap = [k for k in v if k in rows]
    heapify(heap)
    while heap:
        p = heappop(heap)
        b = v.get(p)
        if b is None:
            continue  # cleared since it was pushed
        row = rows[p]
        a = row[p]
        g = gcd(a, b)
        a, b = a // g, b // g
        if a != 1:
            scale *= a
            for k in v:
                v[k] *= a
        for k, c in row.items():
            old = v.get(k)
            if old is None:
                v[k] = -b * c
                if k in rows:
                    heappush(heap, k)
            elif nv := old - b * c:
                v[k] = nv
            else:
                del v[k]
    return scale


class SparseEchelon:
    """Echelon rows of sparse keyed vectors, kept in integers.

    Keys must be mutually comparable; the pivot of a row is its smallest
    key.  An inserted vector is scaled to integers by the lcm of its
    denominators and reduced against the stored rows, smallest pivot
    first (reducing by a row adds only keys above its pivot).  What is
    left, if anything, is divided by the gcd of its entries and stored
    with a positive pivot; a stored row is never touched again.  The
    engine records no dependencies: a caller that needs them appends
    tag coordinates after its real keys, and `express` reads them back.
    `rows()` back-substitutes once into the reduced row-echelon form and
    keeps it until the next accepted insertion.
    """

    def __init__(self) -> None:
        self._rows: dict[Hashable, dict] = {}  # pivot -> primitive int row
        self._rref: tuple[dict, ...] | None = None

    @property
    def rank(self) -> int:
        return len(self._rows)

    def insert(self, v: dict) -> bool:
        """Add v if it enlarges the row space; returns acceptance."""
        v, _ = _integral(v)
        _reduce(self._rows, v)
        if not v:
            return False
        pivot = min(v)
        g = gcd(*v.values())
        if v[pivot] < 0:
            g = -g
        if g != 1:
            v = {k: c // g for k, c in v.items()}
        self._rows[pivot] = v
        self._rref = None
        return True

    def express(self, v: dict, first_tag) -> dict | None:
        """Coefficients c with v = sum c[t] * u_t, or None if v is outside
        their span; each u_t went in with the tag coordinate {t: 1}
        appended, and first_tag sorts after every real key and at or
        before every tag.

        A multiple s*v reduces to r, zero at every pivot.  Tag-only
        vectors reduce to tag-only ones, so r is tag-only exactly when
        v = sum d_t u_t, and then r = -s * sum d_t e_t.  With tags inserted
        in decreasing order, a dependent u_t leaves a row with pivot t, so
        only independent u_t appear and the expression is unique.
        """
        v, d = _integral(v)
        d *= _reduce(self._rows, v)
        if v and min(v) < first_tag:
            return None
        return {t: Fraction(-c, d) for t, c in v.items()}

    def relations(self, first_tag, position, n: int) -> "Subspace":
        """{a : sum_j a_j u_j = 0}, a canonical subspace of Q^n, where u_j went
        in with one tag t appended, position(t) = j, and first_tag sorts after
        every real key and at or before every tag.

        A row whose pivot is a tag has no real key, so its tags are a relation.
        Each insertion stores a row (its tag is new), and the rows with a real
        pivot number the rank of the u_j, so the tag-pivot rows are a basis.
        """
        rels = (row for p, row in self._rows.items() if p >= first_tag)
        return Subspace.span(({position(t): c for t, c in r.items()} for r in rels), n)

    def rows(self) -> tuple[dict, ...]:
        """The reduced row-echelon basis of the row space, in pivot order:
        each pivot is its row's smallest key, it is 1, and every other row
        is 0 there.

        Back-substitution runs from the largest pivot down, in integers:
        a finished row has a positive pivot and is 0 at every other
        finished pivot, and all of those lie above the new row's pivot, so
        `_reduce` against the finished rows clears them in one pass.
        """
        if self._rref is None:
            done: dict[Hashable, dict] = {}
            for p in sorted(self._rows, reverse=True):
                row = dict(self._rows[p])
                _reduce(done, row)
                g = gcd(*row.values())
                done[p] = {k: c // g for k, c in row.items()} if g != 1 else row
            self._rref = tuple(
                {k: Fraction(c, done[p][p]) for k, c in done[p].items()}
                for p in sorted(done)
            )
        return self._rref


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row-echelon form of m and its rank."""
    rows = Subspace.span(
        ({j: c for j, c in enumerate(m.row(i)) if c} for i in range(m.rows)), m.cols
    ).rows
    dense = tuple(row.get(j, _ZERO) for row in rows for j in range(m.cols))
    pad = (_ZERO,) * ((m.rows - len(rows)) * m.cols)
    return Matrix(m.rows, m.cols, dense + pad), len(rows)


def kernel(columns: Sequence[dict]) -> "Subspace":
    """{a : sum_j a_j columns[j] = 0}, a canonical subspace of Q^len(columns).

    Columns are sparse vectors with mutually comparable keys.  Column j
    goes in keyed (0, k), with the tag (1, j) appended, in one pass, and
    `SparseEchelon.relations` reads the kernel off the rows.
    """
    ech = SparseEchelon()
    for j, col in enumerate(columns):
        ech.insert({**{(0, k): c for k, c in col.items()}, (1, j): 1})
    return ech.relations((1,), lambda t: t[1], len(columns))


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^n stored as its reduced row-echelon rows.

    `rows` are the sparse rows of a `SparseEchelon`, in pivot order: each
    pivot is its row's smallest key, it is 1, and every other row is 0
    there.  The form is canonical, so equal subspaces have equal rows and
    compare equal and hash alike.  The rows are shared, not copied:
    callers must not mutate them.
    """

    ambient_dim: int
    rows: tuple[dict, ...]

    def __hash__(self) -> int:
        return hash((self.ambient_dim, tuple(frozenset(r.items()) for r in self.rows)))

    @staticmethod
    def span(vectors: Iterable, ambient_dim: int) -> "Subspace":
        """The span of sparse vectors with integer keys below ambient_dim."""
        ech = SparseEchelon()
        for v in vectors:
            ech.insert(v)
        return Subspace(ambient_dim, ech.rows())

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(n, tuple({i: _ONE} for i in range(n)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple(min(r) for r in self.rows)

    @cached_property
    def non_pivots(self) -> tuple[int, ...]:
        """The coordinates that are no row's pivot, in increasing order; their
        unit vectors span a complement."""
        taken = set(self.pivots)
        return tuple(i for i in range(self.ambient_dim) if i not in taken)

    def reduce(self, v: dict) -> dict:
        """v minus v[p] times the row of each pivot p, as a sparse vector.

        Every row is 0 at the other rows' pivots, so one pass clears every
        pivot coordinate; the result is empty exactly when v lies in the
        subspace.
        """
        v = dict(v)
        for row, p in zip(self.rows, self.pivots):
            f = v.get(p)
            if f:
                axpy(v, -f, row)
        return v

    def contains(self, v: dict) -> bool:
        return not self.reduce(v)

    def coords(self, v: dict) -> dict | None:
        """Coefficients of v over the rows (its pivot entries), keyed by row
        position and nonzero only, or None if v lies outside."""
        if self.reduce(v):
            return None
        return {r: Fraction(v[p]) for r, p in enumerate(self.pivots) if v.get(p)}


def _same_ambient(u: Subspace, w: Subspace) -> None:
    if u.ambient_dim != w.ambient_dim:
        raise SubspaceError(
            f"ambient dimensions differ: {u.ambient_dim} vs {w.ambient_dim}"
        )


def subspace_sum(u: Subspace, w: Subspace) -> Subspace:
    """u + w; when one operand is zero, the other itself."""
    _same_ambient(u, w)
    if not u.rows:
        return w
    if not w.rows:
        return u
    return Subspace.span(u.rows + w.rows, u.ambient_dim)


def complement_rows(u: Subspace, w: Subspace) -> tuple[dict, ...]:
    """The rows of u off w's pivots: a basis of a complement of w in u.

    Raises with a witness row when w is not inside u.  For w ⊆ u every
    pivot of w is a pivot of u (pivots are the smallest keys of nonzero
    members), and a nonzero combination of the returned rows has its
    smallest key at one of their pivots, which no nonzero member of w has.
    """
    _same_ambient(u, w)
    for row in w.rows:
        if u.reduce(row):
            witness = ", ".join(f"{k}: {c}" for k, c in sorted(row.items()))
            raise SubspaceError(
                f"quotient undefined: witness {{{witness}}} lies outside the numerator"
            )
    wp = set(w.pivots)
    return tuple(row for row, p in zip(u.rows, u.pivots) if p not in wp)


def quotient_dim(u: Subspace, w: Subspace) -> int:
    """dim(u/w); raises with a witness vector when w is not inside u."""
    return len(complement_rows(u, w))
