"""Exact linear algebra over the rationals.

The substrate for every dimension computation in this package.  One
elimination engine, `SparseEchelon`, reduces sparse keyed vectors in
integers: an input is scaled by the lcm of its denominators, and a
stored row is a primitive integer vector, reduced only against rows of
smaller pivot and never rewritten afterwards.  Its reduced row-echelon
form is back-substituted once, into Fractions, when it is read.  Spans,
reduced row-echelon forms, kernels, solutions and intersections are all
read off it.  No floating point anywhere.  Sparse dicts {index: nonzero
Fraction} are the one vector type: a `Subspace` keeps the engine's
reduced row-echelon rows as they are, so two objects describe the same
subspace exactly when their rows compare equal.  Every function takes
and returns sparse vectors; dense Fraction tuples appear only in
`Matrix` and `rref`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Hashable, Iterable, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


_TARGET = object()  # express's ledger key for the vector being expressed


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


class SparseEchelon:
    """Echelon rows of sparse keyed vectors, kept in integers.

    Keys must be mutually comparable; the pivot of a row is its smallest
    key.  An inserted vector is scaled to integers by the lcm of its
    denominators and reduced against the stored rows, smallest pivot
    first (reducing by a row adds only keys above its pivot).  What is
    left, if anything, is divided by the gcd of its entries and ledger
    and stored with a positive pivot; a stored row is never touched
    again.  Each row carries an integer ledger, the combination of
    inserted originals it equals, so `express` can rewrite any member of
    the row space over the accepted insertions.  `rows()` back-substitutes
    once into the reduced row-echelon form and keeps it until the next
    accepted insertion.
    """

    def __init__(self) -> None:
        self._rows: dict[Hashable, tuple[dict, dict]] = {}  # pivot -> (row, ledger)
        self._rref: tuple[dict, ...] | None = None

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, v: dict, ledger: dict) -> None:
        """Clear v's entries at stored pivots, in place and smallest first,
        keeping v = sum ledger[t] * (inserted original t)."""
        rows = self._rows
        heap = [k for k in v if k in rows]
        heapify(heap)
        while heap:
            p = heappop(heap)
            b = v.get(p)
            if b is None:
                continue  # cleared since it was pushed
            row, led = rows[p]
            a = row[p]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                for k in v:
                    v[k] *= a
                for k in ledger:
                    ledger[k] *= a
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
            axpy(ledger, -b, led)

    def insert(self, v: dict, tag: Hashable) -> bool:
        """Add v (tagged) if it enlarges the row space; returns acceptance."""
        v, d = _integral(v)
        ledger = {tag: d}
        self._reduce(v, ledger)
        if not v:
            return False
        pivot = min(v)
        g = gcd(*v.values(), *ledger.values())
        if v[pivot] < 0:
            g = -g
        if g != 1:
            v = {k: c // g for k, c in v.items()}
            ledger = {k: c // g for k, c in ledger.items()}
        self._rows[pivot] = (v, ledger)
        self._rref = None
        return True

    def express(self, v: dict) -> dict | None:
        """Coefficients c with v = sum c[tag] * inserted[tag], or None.

        v enters the ledger under a private key; once v is reduced to
        zero, that key's coefficient is the common denominator.
        """
        v, d = _integral(v)
        ledger = {_TARGET: d}
        self._reduce(v, ledger)
        if v:
            return None
        den = -ledger.pop(_TARGET)
        return {t: Fraction(c, den) for t, c in ledger.items()}

    def rows(self) -> tuple[dict, ...]:
        """The reduced row-echelon basis of the row space, in pivot order:
        each pivot is its row's smallest key, it is 1, and every other row
        is 0 there.

        Back-substitution runs from the largest pivot down, in integers:
        a finished row is kept as a numerator n with denominator n[pivot],
        0 at every other pivot, so one pass clears a new row's pivots.
        """
        if self._rref is None:
            done: dict[Hashable, dict] = {}
            for p in sorted(self._rows, reverse=True):
                row = dict(self._rows[p][0])
                for q in [k for k in row if k in done]:
                    num = done[q]
                    a, b = num[q], row[q]
                    g = gcd(a, b)
                    a, b = a // g, b // g
                    if a != 1:
                        for k in row:
                            row[k] *= a
                    axpy(row, -b, num)
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

    Columns are sparse vectors with mutually comparable keys.  Each one
    that the columns before it already span gives the kernel vector
    e_j - sum_k c_k e_k, where sum_k c_k columns[k] is its expression
    over them; these vectors are a basis of the kernel.
    """
    ech = SparseEchelon()
    basis = []
    for j, col in enumerate(columns):
        if not ech.insert(col, tag=j):
            v = {k: -c for k, c in ech.express(col).items()}
            v[j] = _ONE
            basis.append(v)
    return Subspace.span(basis, len(columns))


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
        for t, v in enumerate(vectors):
            ech.insert(v, tag=t)
        return Subspace(ambient_dim, ech.rows())

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(n, ())

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

    def coords(self, v: dict) -> tuple[Fraction, ...] | None:
        """Coefficients of v over the rows (its pivot entries), or None if outside."""
        if self.reduce(v):
            return None
        return tuple(Fraction(v.get(p, 0)) for p in self.pivots)


def _same_ambient(u: Subspace, w: Subspace) -> None:
    if u.ambient_dim != w.ambient_dim:
        raise SubspaceError(
            f"ambient dimensions differ: {u.ambient_dim} vs {w.ambient_dim}"
        )


def subspace_sum(u: Subspace, w: Subspace) -> Subspace:
    _same_ambient(u, w)
    return Subspace.span(u.rows + w.rows, u.ambient_dim)


def subspace_intersect(u: Subspace, w: Subspace) -> Subspace:
    """Intersection from the dependencies of w's rows on u's.

    With u's rows inserted first, each w row that is rejected satisfies
    w_j - sum_k b_k w_k = sum_i a_i u_i over the rows accepted before it,
    a member of both; there is one per dimension of the intersection.
    """
    _same_ambient(u, w)
    ech = SparseEchelon()
    for i, row in enumerate(u.rows):
        ech.insert(row, tag=i)
    shared = []
    for j, row in enumerate(w.rows):
        if not ech.insert(row, tag=u.dim + j):
            v: dict = {}
            for i, a in ech.express(row).items():
                if i < u.dim:
                    axpy(v, a, u.rows[i])
            shared.append(v)
    return Subspace.span(shared, u.ambient_dim)


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
            witness = tuple(str(row.get(k, _ZERO)) for k in range(w.ambient_dim))
            raise SubspaceError(
                f"quotient undefined: witness {witness} lies outside the numerator"
            )
    wp = set(w.pivots)
    return tuple(row for row, p in zip(u.rows, u.pivots) if p not in wp)


def quotient_dim(u: Subspace, w: Subspace) -> int:
    """dim(u/w); raises with a witness vector when w is not inside u."""
    return len(complement_rows(u, w))
