"""Exact linear algebra over the rationals.

The substrate for every dimension computation in this package.  One
elimination engine, `SparseEchelon`, reduces sparse keyed vectors in
integers: an input is scaled by the lcm of its denominators, and a
stored row is a primitive integer vector, reduced only against rows of
smaller pivot and never rewritten afterwards.  It only reduces: spans
and ranks are its rows, and kernels and solutions are read off tag
coordinates after the real keys, as in an augmented matrix, appended by
the caller or, in `insert_or_express`, by the engine.  Ranks, pivots
and remainders are read off the integer rows directly.  No floating
point anywhere.  Sparse dicts {index: nonzero Fraction} are the one
vector type: a `Subspace` keeps the engine's reduced row-echelon rows in
Fractions, so two objects describe the same subspace exactly when their
rows compare equal.  `Subspace.of_echelon` snapshots an echelon's
integer rows and back-substitutes them only when its rows are first
read; its dimension and pivots come off the stored pivots.  Dense
Fraction tuples appear only in `Matrix` and `rref`."""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Record:
    """Base of the package's value classes: field-wise `==` (NotImplemented
    against any other class), a hash that agrees with it, and the repr
    `Name(field=value, ...)`, over the attributes a subclass names in
    `_fields`.  Instances are treated as immutable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


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


def combine(columns, v: dict) -> dict:
    """sum_x v[x] * columns[x], as a sparse vector: the image of v under
    the matrix whose column x is the sparse vector columns[x]."""
    acc: dict = {}
    for x, c in v.items():
        axpy(acc, c, columns[x])
    return acc


def _integral(v: dict) -> tuple[dict, int]:
    """v times the lcm d of its denominators, as a dict of nonzero ints, and d.

    The entries are ints or Fractions; a v of nonzero ints is just copied.
    """
    if all(type(c) is int and c for c in v.values()):
        return dict(v), 1
    d = lcm(*(c.denominator for c in v.values()))
    if d == 1:
        return {k: c.numerator for k, c in v.items() if c}, 1
    return {k: c.numerator * (d // c.denominator) for k, c in v.items() if c}, d


class Matrix(Record):
    """Immutable rational matrix, stored row-major."""

    __slots__ = _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[Fraction, ...]):
        if len(entries) != rows * cols:
            raise ValueError(
                f"matrix with {rows}x{cols} shape needs "
                f"{rows * cols} entries, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = entries

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


def _back_substitute(stored: dict) -> tuple[dict, ...]:
    """The reduced row-echelon basis of the span of `stored` (pivot ->
    integer row with that pivot as its smallest key), in pivot order, in
    Fractions.

    Back-substitution runs from the largest pivot down, in integers: a
    finished row has a positive pivot and is 0 at every other finished
    pivot, and all of those lie above the new row's pivot, so `_reduce`
    against the finished rows clears them in one pass.
    """
    done: dict[Hashable, dict] = {}
    for p in sorted(stored, reverse=True):
        row = dict(stored[p])
        _reduce(done, row)
        g = gcd(*row.values())
        done[p] = {k: c // g for k, c in row.items()} if g != 1 else row
    return tuple(
        {k: Fraction(c, done[p][p]) for k, c in done[p].items()} for p in sorted(done)
    )


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
        if v:
            self._store(v, min(v))
        return bool(v)

    def insert_or_express(self, v: dict, tag, first_tag) -> tuple[dict, int] | None:
        """Reduce v once: if a real key (before first_tag) is left, store it
        with {tag: s} appended and return None; else store nothing and return
        ints (a, q), v = sum_t (a[t] / q) * u_t, u_t the input stored with tag t.

        Proof.  v (scaled to integers) reduces to s*v - sum_p c_p r_p, s > 0.
        Invariant: each stored row r has real(r) = sum_t r[t] * u_t.  So the
        remainder's real part is s*v + sum_t a[t] * u_t, a its tag part, and
        appending s at v's tag keeps the invariant, as does dividing by a
        gcd; with no real key left, v = sum_t (a[t] / -s) * u_t.  No tag is
        ever a pivot, so tags never steer a reduction: the real parts are
        `insert`'s rows up to positive factors, the same inputs are stored
        with the same pivots, and the stored u_t are independent, so the
        expression is unique.
        """
        v, d = _integral(v)
        d *= _reduce(self._rows, v)
        if not v or (pivot := min(v)) >= first_tag:
            return v, -d
        v[tag] = d
        self._store(v, pivot)
        return None

    def _store(self, v: dict, pivot) -> None:
        """Store the reduced v, smallest key pivot, primitive with pivot > 0."""
        g = gcd(*v.values())
        if v[pivot] < 0:
            g = -g
        if g != 1:
            v = {k: c // g for k, c in v.items()}
        self._rows[pivot] = v
        self._rref = None

    @property
    def pivots(self):
        """The pivots of the stored rows, in insertion order: the same set as
        the reduced row-echelon form's, as both bases have one row per
        smallest key of a nonzero member of the row space."""
        return self._rows.keys()

    def remainder(self, v: dict) -> dict:
        """v less the member of the row space that leaves it 0 at every pivot.

        `_reduce` leaves s*v less a combination of the rows, 0 at every
        pivot, so dividing by s gives such a remainder.  It is unique: the
        difference of two lies in the row space and is 0 at every pivot,
        so it is 0.  So it is `Subspace.reduce` over the reduced rows, and
        empty exactly when v lies in the row space.
        """
        v, d = _integral(v)
        d *= _reduce(self._rows, v)
        return {k: Fraction(c, d) for k, c in v.items()}

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

    def tag_rows(self, first_tag) -> Iterator[dict]:
        """The stored integer rows whose pivot is at or after first_tag, in
        insertion order: a basis of the relations {a : sum_t a_t u_t = 0}
        when each u_t went in with one tag t appended and first_tag sorts
        after every real key and at or before every tag.

        Such a row has no real key, so its tags are a relation.  Each
        insertion stores a row (its tag is new), and the rows with a real
        pivot number the rank of the u_t, so these rows, independent by
        their distinct pivots, are as many as the relations' dimension.
        """
        return (row for p, row in self._rows.items() if p >= first_tag)

    def primitive_rows(self):
        """The stored primitive integer rows, in insertion order: a basis of
        the row space, each row's pivot its smallest key.  The rows are
        shared, not copied: callers must not mutate them."""
        return self._rows.values()

    def rows(self) -> tuple[dict, ...]:
        """The reduced row-echelon basis of the row space, in pivot order:
        each pivot is its row's smallest key, it is 1, and every other row
        is 0 there (see `_back_substitute`)."""
        if self._rref is None:
            self._rref = _back_substitute(self._rows)
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
    the kernel is the span of `SparseEchelon.tag_rows`.
    """
    ech = SparseEchelon()
    for j, col in enumerate(columns):
        ech.insert({**{(0, k): c for k, c in col.items()}, (1, j): 1})
    rels = ({t[1]: c for t, c in row.items()} for row in ech.tag_rows((1,)))
    return Subspace.span(rels, len(columns))


class Subspace(Record):
    """Subspace of Q^n stored as its reduced row-echelon rows.

    `rows` are the sparse rows of a `SparseEchelon`, in pivot order: each
    pivot is its row's smallest key, it is 1, and every other row is 0
    there.  The form is canonical, so equal subspaces have equal rows and
    compare equal and hash alike.  The rows are shared, not copied:
    callers must not mutate them.  A subspace made by `of_echelon` holds
    a copy of the echelon's primitive integer rows instead, reads `dim`,
    `pivots` and `non_pivots` off their pivots, and back-substitutes
    `rows` on first read.
    """

    _fields = ("ambient_dim", "rows")

    def __init__(self, ambient_dim: int, rows: tuple[dict, ...]):
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.dim = len(rows)

    @staticmethod
    def of_echelon(ech: SparseEchelon, ambient_dim: int) -> "Subspace":
        """The row space of `ech` as it is now, its keys ints below
        ambient_dim and no tags.

        The pivot -> row dict is copied, and a stored row is never
        touched again, so later insertions into `ech` leave this subspace
        as it is.  The pivots are the reduced row-echelon form's (see
        `SparseEchelon.pivots`), and `rows` is `_back_substitute` of the
        same rows, so the subspace equals `Subspace(ambient_dim,
        ech.rows())` and hashes alike.
        """
        S = Subspace.__new__(Subspace)
        S.ambient_dim = ambient_dim
        S._stored = dict(ech._rows)
        S.pivots = tuple(sorted(S._stored))
        S.dim = len(S._stored)
        return S

    @cached_property
    def rows(self) -> tuple[dict, ...]:
        # reached only by `of_echelon`'s subspaces: `__init__` sets rows
        return _back_substitute(self._stored)

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
