"""Exact linear algebra over the rationals.

The substrate for every dimension computation in this package.  One
elimination engine, `SparseEchelon`, reduces sparse keyed vectors with
Fraction entries; spans, reduced row-echelon forms, kernels, solutions
and intersections are all read off it.  No floating point anywhere.
Subspaces are canonicalized to reduced row-echelon bases, so two
objects describe the same subspace exactly when their stored data
compare equal.  `Matrix` only holds linear maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Hashable, Iterable, Sequence

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SubspaceError(ValueError):
    """Ambient-dimension mismatch or failed containment."""


def vector(entries: Iterable) -> Vector:
    """Coerce an iterable of rational-like entries into a Vector."""
    return tuple(Fraction(x) for x in entries)


def sparse(v: Sequence) -> dict[int, Fraction]:
    """The nonzero entries of a dense vector, keyed by position."""
    return {i: c for i, c in enumerate(v) if c}


def zero_vector(n: int) -> Vector:
    return (_ZERO,) * n


def unit_vector(n: int, i: int) -> Vector:
    if not 0 <= i < n:
        raise IndexError(f"unit vector index {i} out of range for dimension {n}")
    return tuple(_ONE if j == i else _ZERO for j in range(n))


def vadd(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vscale(c, v: Vector) -> Vector:
    c = Fraction(c)
    return tuple(c * a for a in v)


def is_zero_vector(v: Sequence) -> bool:
    return all(a == 0 for a in v)


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

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: int | None = None) -> "Matrix":
        vecs = [vector(r) for r in rows]
        if vecs:
            width = len(vecs[0])
            if any(len(r) != width for r in vecs):
                raise ValueError("ragged rows")
            if cols is not None and width != cols:
                raise ValueError(f"rows of width {width} but cols={cols} requested")
        else:
            width = 0 if cols is None else cols
        return Matrix(len(vecs), width, tuple(x for r in vecs for x in r))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.from_rows([unit_vector(n, i) for i in range(n)], cols=n)

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, (_ZERO,) * (rows * cols))

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> Vector:
        return self.entries[j::self.cols]

    def mul_vec(self, v: Sequence) -> Vector:
        v = vector(v)
        if len(v) != self.cols:
            raise ValueError(f"vector of length {len(v)} against {self.cols} columns")
        return tuple(
            sum((self.entries[i * self.cols + j] * v[j] for j in range(self.cols)), _ZERO)
            for i in range(self.rows)
        )


class SparseEchelon:
    """Incrementally reduced echelon rows over sparse keyed vectors.

    Keys must be mutually comparable; the pivot of a row is its smallest
    key.  Rows are kept fully reduced against one another.  Every
    accepted row carries the combination of inserted originals that
    produced it, so `express` can rewrite any member of the row space in
    terms of the accepted insertions.
    """

    def __init__(self) -> None:
        self._pivots: dict[Hashable, int] = {}
        self._rows: list[tuple[Hashable, dict, dict]] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    @staticmethod
    def _axpy(target: dict, f: Fraction, source: dict) -> None:
        for k, c in source.items():
            nv = target.get(k, _ZERO) - f * c
            if nv:
                target[k] = nv
            else:
                target.pop(k, None)

    def _reduce(self, v: dict, ledger: dict) -> tuple[dict, dict]:
        v = {k: Fraction(c) for k, c in v.items() if c != 0}
        ledger = {k: Fraction(c) for k, c in ledger.items() if c != 0}
        while True:
            hits = [k for k in v if k in self._pivots]
            if not hits:
                return v, ledger
            for k in hits:
                f = v.get(k, _ZERO)
                if f == 0:
                    continue
                _, row, led = self._rows[self._pivots[k]]
                self._axpy(v, f, row)
                self._axpy(ledger, f, led)

    def insert(self, v: dict, tag: Hashable) -> bool:
        """Add v (tagged) if it enlarges the row space; returns acceptance."""
        rv, rl = self._reduce(v, {tag: _ONE})
        if not rv:
            return False
        pivot = min(rv)
        inv = 1 / rv[pivot]
        rv = {k: c * inv for k, c in rv.items()}
        rl = {k: c * inv for k, c in rl.items()}
        for idx, (p, row, led) in enumerate(self._rows):
            f = row.get(pivot, _ZERO)
            if f != 0:
                row = dict(row)
                led = dict(led)
                self._axpy(row, f, rv)
                self._axpy(led, f, rl)
                self._rows[idx] = (p, row, led)
        self._pivots[pivot] = len(self._rows)
        self._rows.append((pivot, rv, rl))
        return True

    def express(self, v: dict) -> dict | None:
        """Coefficients c with v = sum c[tag] * inserted[tag], or None."""
        rv, rl = self._reduce(v, {})
        if rv:
            return None
        return {k: -c for k, c in rl.items() if c != 0}

    def dense_rows(self, n: int) -> tuple[Vector, ...]:
        """The rows as length-n vectors, in pivot order.

        For integer keys below n this is the reduced row-echelon basis of
        the row space: each pivot is its row's smallest key, it is 1, and
        every other row is 0 there.
        """
        out = []
        for p in sorted(self._pivots):
            v = [_ZERO] * n
            for k, c in self._rows[self._pivots[p]][1].items():
                v[k] = c
            out.append(tuple(v))
        return tuple(out)


def _subspace(vectors: Iterable[dict], n: int) -> "Subspace":
    """The span of sparse vectors with integer keys below n, canonicalized."""
    ech = SparseEchelon()
    for t, v in enumerate(vectors):
        ech.insert(v, tag=t)
    return Subspace(n, ech.dense_rows(n))


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row-echelon form of m and its rank."""
    rows = _subspace((sparse(m.row(i)) for i in range(m.rows)), m.cols).basis
    pad = (_ZERO,) * ((m.rows - len(rows)) * m.cols)
    return Matrix(m.rows, m.cols, tuple(x for row in rows for x in row) + pad), len(rows)


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
    return _subspace(basis, len(columns))


def nullspace(m: Matrix) -> "Subspace":
    """The solution space {v : m v = 0}, canonicalized."""
    return kernel([sparse(m.col(j)) for j in range(m.cols)])


def solve(m: Matrix, b: Sequence) -> Vector | None:
    """One solution x of m x = b, or None when the system is inconsistent.

    b is expressed over the columns of m that the columns before them do
    not span, so x is zero off the pivot columns.
    """
    if len(b) != m.rows:
        raise ValueError(f"rhs of length {len(b)} against {m.rows} rows")
    ech = SparseEchelon()
    for j in range(m.cols):
        ech.insert(sparse(m.col(j)), tag=j)
    coeffs = ech.express(sparse(b))
    if coeffs is None:
        return None
    return tuple(coeffs.get(j, _ZERO) for j in range(m.cols))


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^n stored as a reduced row-echelon basis.

    The canonical form makes structural equality coincide with equality
    of subspaces; pivot columns strictly increase along the basis.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]

    @staticmethod
    def span(vectors: Iterable[Sequence], ambient_dim: int) -> "Subspace":
        """The span of dense vectors, as the rows of a SparseEchelon in pivot order."""
        vecs = []
        for v in vectors:
            if len(v) != ambient_dim:
                raise SubspaceError(
                    f"spanning vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
            vecs.append(sparse(v))
        return _subspace(vecs, ambient_dim)

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(n, ())

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(n, tuple(unit_vector(n, i) for i in range(n)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple(next(j for j, x in enumerate(row) if x != 0) for row in self.basis)

    def reduce(self, v: Sequence) -> Vector:
        """Eliminate this subspace's pivot coordinates from v."""
        v = list(vector(v))
        if len(v) != self.ambient_dim:
            raise SubspaceError(
                f"vector of length {len(v)} in ambient dimension {self.ambient_dim}"
            )
        for row, p in zip(self.basis, self.pivots):
            f = v[p]
            if f != 0:
                v = [x - f * y for x, y in zip(v, row)]
        return tuple(v)

    def contains(self, v: Sequence) -> bool:
        return is_zero_vector(self.reduce(v))

    def coords(self, v: Sequence) -> Vector | None:
        """Coefficients of v over the stored basis rows, or None if outside."""
        v = vector(v)
        if not self.contains(v):
            return None
        return tuple(v[p] for p in self.pivots)


def subspace_sum(u: Subspace, w: Subspace) -> Subspace:
    if u.ambient_dim != w.ambient_dim:
        raise SubspaceError(
            f"ambient dimensions differ: {u.ambient_dim} vs {w.ambient_dim}"
        )
    return Subspace.span(list(u.basis) + list(w.basis), u.ambient_dim)


def subspace_intersect(u: Subspace, w: Subspace) -> Subspace:
    """Intersection from the dependencies of w's basis on u's.

    With u's basis inserted first, each w row that is rejected satisfies
    w_j - sum_k b_k w_k = sum_i a_i u_i over the rows accepted before it,
    a member of both; there is one per dimension of the intersection.
    """
    if u.ambient_dim != w.ambient_dim:
        raise SubspaceError(
            f"ambient dimensions differ: {u.ambient_dim} vs {w.ambient_dim}"
        )
    n = u.ambient_dim
    ech = SparseEchelon()
    for i, row in enumerate(u.basis):
        ech.insert(sparse(row), tag=i)
    members = []
    for j, row in enumerate(w.basis):
        col = sparse(row)
        if not ech.insert(col, tag=u.dim + j):
            v = zero_vector(n)
            for i, a in ech.express(col).items():
                if i < u.dim:
                    v = vadd(v, vscale(a, u.basis[i]))
            members.append(v)
    return Subspace.span(members, n)


def quotient_dim(u: Subspace, w: Subspace) -> int:
    """dim(u/w); raises with a witness vector when w is not inside u."""
    if u.ambient_dim != w.ambient_dim:
        raise SubspaceError(
            f"ambient dimensions differ: {u.ambient_dim} vs {w.ambient_dim}"
        )
    for row in w.basis:
        if not u.contains(row):
            raise SubspaceError(
                f"quotient undefined: witness {tuple(map(str, row))} lies outside the numerator"
            )
    return u.dim - w.dim


def complement_rows(u: Subspace, w: Subspace) -> tuple[Vector, ...]:
    """Rows of u's basis spanning a complement of w inside u (w ⊆ u checked)."""
    quotient_dim(u, w)
    wp = set(w.pivots)
    return tuple(row for row, p in zip(u.basis, u.pivots) if p not in wp)
