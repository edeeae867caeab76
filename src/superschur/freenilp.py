"""Truncated free Lie superalgebras on graded generators.

Bracket words embed into the free associative superalgebra through
[a, b] = ab - (-1)^{|a||b|} ba.  Per-degree bases are picked by exact
rank computation on those expansions: the degree-d candidates are the
brackets [w, g] of the kept degree-(d-1) words w with the generators g
(left-normed words span every graded component), and an independent
word-counting oracle cross-checks the resulting dimensions.  The build
codes each associative word as the int of its letters' digits in base
num, which orders words of one length as their index tuples (see
`FreeNilpotentSuperalgebra`); `expand` keeps tuple keys, as the tests'
oracle.  Each expansion is eliminated only on the words that can be a
pivot, those whose first letter is smaller than their last, and ff for
an odd generator f: the smallest word of a Lie superpolynomial is a
super Lyndon–Shirshov word, and every such word is one of them (the
proof is in the class docstring).  The next degree's candidates are
made from the whole expansions, which are kept below the top degree
only.  The free
presentations read F only through its brackets [x, g] with the
generators (`generator_columns`): each is a kept candidate, zero, or a
rejected candidate, whose expansion is expressed over the kept words'
expansions.  The kept expansions go into the build's echelon with tag
coordinates, so the reduction that rejects a candidate also gives that
expression.  The build is the one elimination of F's brackets:
`algebra`, the full structure-constant table for free algebras used as
targets, is filled from the generator columns by the graded Jacobi
identity.

Every coefficient of an expansion is a sum of signs ±1, so expansions,
and the rewriting identity's coefficients, are Python ints.
`SparseEchelon` eliminates them in integers too, and hands the build
its expressions as ints over one denominator.  The generator columns
keep the integral coefficients as ints and make the rest Fractions, so
the presentations bracket integer relations in integers, and bases,
structure constants and subspaces stay exact rationals.

The CLI's sweep of the bracket rewriting identity does not expand in
the superalgebra: its words use each letter once, so it reads each
term off the term's all-even expansion times Koszul signs.  The words
and their expansions depend on the arity alone, so a parity pattern is
tested by membership of its signed coefficient vector in one kernel per
arity (see `rewrite_identity_residual`).  The tests still expand the
identity directly in the free associative superalgebra and compare.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from math import comb

from .exactla import Record, SparseEchelon, Subspace, axpy, combine, kernel
from .superalg import EVEN, ODD, AlgebraError, LieSuperalgebra, SuperDim, graded_sign

_ONE = Fraction(1)

# A bracket word is a full binary tree written with plain Python values:
# a leaf is the int index of a generator, an inner node is the pair
# (left subtree, right subtree).


def left_normed_word(indices) -> int | tuple:
    indices = list(indices)
    w = indices[0]
    for i in indices[1:]:
        w = (w, i)
    return w


def right_normed_word(indices) -> int | tuple:
    indices = list(indices)
    w = indices[-1]
    for i in reversed(indices[:-1]):
        w = (i, w)
    return w


def word_leaves(w) -> list[int]:
    """The leaves of w, left to right."""
    if isinstance(w, int):
        return [w]
    return word_leaves(w[0]) + word_leaves(w[1])


def word_label(w, labels) -> str:
    if isinstance(w, int):
        return labels[w]
    return f"[{word_label(w[0], labels)},{word_label(w[1], labels)}]"


def _concat(a: dict, b: dict) -> dict:
    """The product of two expansions.  Each one's words share one length
    (bracket words are homogeneous), so distinct pairs give distinct
    words and no coefficient collects or cancels."""
    return {wa + wb: ca * cb for wa, ca in a.items() for wb, cb in b.items()}


def _commutator(ea: dict, pa: int, eb: dict, pb: int) -> dict:
    """ab - (-1)^{|a||b|} ba for expansions ea, eb of parities pa, pb."""
    out = _concat(ea, eb)
    axpy(out, -graded_sign(pa, pb), _concat(eb, ea))
    return out


def _expansion(w, parities, memo: dict) -> tuple[dict, int]:
    """The expansion of w and its parity, memoised by subword in `memo`."""
    hit = memo.get(w)
    if hit is None:
        if isinstance(w, int):
            hit = ({(w,): 1}, parities[w])
        else:
            ea, pa = _expansion(w[0], parities, memo)
            eb, pb = _expansion(w[1], parities, memo)
            hit = (_commutator(ea, pa, eb, pb), (pa + pb) % 2)
        memo[w] = hit
    return hit


def _bracket_letter(e: dict, sign: int, g: int, num: int, high: int) -> dict:
    """[w, g] = wg - sign·gw from the coded expansion e of w, with sign
    (-1)^{|w||g|} and high = num^(deg w): a word u of e codes ug as
    u·num + g and gu as g·high + u.  The words ug are distinct, and so
    are the words gu; a word of both kinds collects (as g..g does)."""
    out = {u * num + g: c for u, c in e.items()}
    lead = g * high
    for u, c in e.items():
        k = lead + u
        old = out.get(k)
        if old is None:
            out[k] = -sign * c
        elif nv := old - sign * c:
            out[k] = nv
        else:
            del out[k]
    return out


def expand(w, parities) -> dict[tuple[int, ...], int]:
    """Expansion of a bracket word in the free associative superalgebra.

    Returns a sparse map from associative words (tuples of generator
    indices) to integer coefficients; [a, b] contributes
    ab - (-1)^{|a||b|} ba.
    """
    return _expansion(w, parities, {})[0]


class GeneratorSpec(Record):
    """p even and q odd generators, truncated at nilpotency class `class_bound`."""

    __slots__ = _fields = ("even", "odd", "class_bound")

    def __init__(self, even: int, odd: int, class_bound: int):
        if even < 0 or odd < 0:
            raise AlgebraError("generator counts must be nonnegative")
        if even + odd < 1:
            raise AlgebraError("need at least one generator")
        if class_bound < 1:
            raise AlgebraError("class bound must be at least 1")
        self.even = even
        self.odd = odd
        self.class_bound = class_bound

    @property
    def num(self) -> int:
        return self.even + self.odd

    @property
    def parities(self) -> tuple[int, ...]:
        return (EVEN,) * self.even + (ODD,) * self.odd

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f"x{i+1}" for i in range(self.even)) + tuple(
            f"f{i+1}" for i in range(self.odd)
        )


class FreeNilpotentSuperalgebra:
    """Free Lie superalgebra on graded generators modulo brackets of length > k.

    Built degree by degree: the degree-d candidates are the left-normed
    words [w, g] for the kept degree-(d-1) words w, in keep order, and the
    generators g, and a candidate joins the basis exactly when its
    associative expansion is independent of the expansions already kept.
    This keeps the same words as trying the left-normed words of all
    index tuples in lexicographic order: a word w left out there is a
    combination of earlier kept words, so [w, g] is a combination of
    earlier candidates [w', g].  One reduction per candidate
    (`SparseEchelon.insert_or_express`) keeps it, tagged num^d + its
    position among the kept degree-d words, or records its expression
    over those words in ints.

    Expansions are keyed by coded associative words: the degree-d word
    (g_1 .. g_d) is the int sum_i g_i num^(d-i), below num^d, so every
    tag sorts after them.  Among words of one length this order is the
    lexicographic order of the index tuples, generator 0 the smallest
    letter, so each echelon has the pivots, keeps the words and rejects
    the candidates that it would on tuple keys.

    Each candidate goes into the echelon restricted to the words that can
    be a pivot: at d >= 2 the words whose first letter is smaller than
    their last, k // num^(d-1) < k % num on the code k, and at d = 2 also
    ff for each odd generator f.  This changes nothing the build records.
    Proof.  Call a word Lyndon when it is smaller than each of its proper
    suffixes (a proper prefix sorts first).  The smallest word of a
    nonzero element of the free Lie superalgebra, expanded, is a super
    Lyndon–Shirshov word: a Lyndon word, or vv with v an odd
    Lyndon word (Reutenauer, Free Lie Algebras, 1993, ch. 5; Bokut, Kang,
    Lee and Malcolmson, J. Algebra 217 (1999), in the super case).  A
    Lyndon word a..b of length >= 2 has a < b: it is smaller than its
    suffix b, so a <= b, and a = b would make b a proper prefix, smaller
    than the word.  So vv has first letter < last unless v is a letter f,
    and then vv = ff lies at d = 2.  Now compare with the same build on
    whole expansions.  By induction, each stored row is a positive
    multiple of that build's row with the same pivot, restricted: a
    pivot is the smallest word of a nonzero real part, which expands an
    element of F_d, so restriction keeps it.  A candidate's remainder,
    divided by its scale, is the one vector that is the candidate less a
    member of the row space and is 0 at every pivot (see
    `SparseEchelon.remainder`), so it is the restriction of the other
    build's.  Its real part expands an element of F_d, which is 0 exactly
    when its restriction is, since a nonzero one keeps its smallest word.
    So each candidate is kept or rejected as before, a kept one stores a
    positive multiple of the restricted row, and a rejected one's tag
    part gives the same expression as a rational.  (Its ints could differ
    by a common positive factor, since a row is divided by the gcd of
    fewer entries; `generator_columns` reads only the rationals.)

    The routes read F only through `generator_columns`, the brackets
    [x, g] with the generators, assembled on first use from that record.
    The full structure-constant table, `algebra`, is filled from those
    columns on first use, for the callers that need a free algebra as a
    target.
    """

    def __init__(self, spec: GeneratorSpec):
        self.spec = spec
        self.degree_words: list[list] = []
        self.degree_parities: list[list[int]] = []
        self._expansions: dict = {}
        # rejected [w, g] -> (a, q): sum_j a[num^d + j] / q times the j-th kept word
        self._expressed: dict[tuple, tuple[dict, int]] = {}
        num, k = spec.num, spec.class_bound
        for d in range(1, k + 1):
            ech = SparseEchelon()
            top, high = num**d, num ** (d - 1)
            squares = {f * (num + 1) for f in range(spec.even, num)} if d == 2 else ()
            words: list = []
            wpars: list[int] = []
            for w, pw, e in self._candidates(d):
                if not e:
                    continue
                if d == 1:
                    v = dict(e)
                else:  # the words that can be a pivot: first letter < last, or ff
                    v = {u: c for u, c in e.items() if u // high < u % num or u in squares}
                if (found := ech.insert_or_express(v, top + len(words), top)) is None:
                    words.append(w)
                    wpars.append(pw)
                    if d < k:  # the next degree's candidates read it
                        self._expansions[w] = e
                else:
                    self._expressed[w] = found
            self.degree_words.append(words)
            self.degree_parities.append(wpars)
        # global basis ordering: all even words (by degree, then selection
        # order), then all odd words, matching the even-first convention.
        evens, odds = [], []
        for d0, (words, wpars) in enumerate(zip(self.degree_words, self.degree_parities)):
            for w, p in zip(words, wpars):
                (evens if p == EVEN else odds).append((d0 + 1, w))
        self._basis = evens + odds
        self._index = {w: idx for idx, (_, w) in enumerate(self._basis)}
        self.n_even = len(evens)
        self.n_odd = len(odds)
        self.dim = len(self._basis)
        self._columns: tuple[tuple[dict, ...], ...] | None = None

    def _candidates(self, d: int):
        """The degree-d candidate words with their parities and coded
        expansions, lazily; [w, g] has parity |w| + |g| and its expansion
        is `_bracket_letter` of w's stored expansion with g."""
        num, pars = self.spec.num, self.spec.parities
        if d == 1:
            for g in range(num):
                yield g, pars[g], {g: 1}
            return
        high = num ** (d - 1)
        for w, pw in zip(self.degree_words[d - 2], self.degree_parities[d - 2]):
            e = self._expansions[w]
            for g in range(num):
                pg = pars[g]
                yield (w, g), (pw + pg) % 2, _bracket_letter(e, graded_sign(pw, pg), g, num, high)

    # -- counting ------------------------------------------------------------

    def degree_dims(self) -> list[SuperDim]:
        out = []
        for wpars in self.degree_parities:
            out.append(SuperDim(wpars.count(EVEN), wpars.count(ODD)))
        return out

    @property
    def total_dims(self) -> SuperDim:
        return SuperDim(self.n_even, self.n_odd)

    # -- basis access ----------------------------------------------------------

    def basis_word(self, idx: int):
        return self._basis[idx][1]

    def basis_degree(self, idx: int) -> int:
        return self._basis[idx][0]

    def basis_labels(self) -> tuple[str, ...]:
        labels = self.spec.labels
        return tuple(word_label(w, labels) for _, w in self._basis)

    def generator_basis_index(self, t: int) -> int:
        """Global basis index of generator t, the first words of each parity."""
        return t if t < self.spec.even else self.n_even + t - self.spec.even

    def gamma(self, d: int) -> Subspace:
        """Degree filtration: span of basis elements of degree >= d."""
        # unit rows in increasing index order are already reduced row-echelon
        rows = tuple({i: _ONE} for i, (deg, _) in enumerate(self._basis) if deg >= d)
        return Subspace(self.dim, rows)

    # -- brackets with the generators -------------------------------------------

    def generator_columns(self) -> tuple[tuple[dict, ...], ...]:
        """For each generator g_t, the columns of x -> [x, g_t]: entry
        [t][x] is [b_x, g_t] as a sparse dict over F's basis, built once
        from what the build recorded, with no elimination.

        Every basis word w below the top degree gives the build's
        candidate [w, g_t], so the build decides each column:
        * a kept candidate is its own basis element, {m: 1};
        * at the top degree, and for a candidate with an empty expansion,
          the bracket is 0;
        * a rejected candidate is its expression over the kept words of
          its degree, read off their tags by its one reduction in the build.

        An integral coefficient is stored as an int and every other one as
        a Fraction, so the bracket of an integer vector with a generator
        is integer whenever the expressions it meets are.  The dicts are
        shared, not copied: callers must not mutate them.
        """
        if self._columns is None:
            num, index = self.spec.num, self._index
            columns: list[list[dict]] = [[] for _ in range(num)]
            for d, w in self._basis:
                for t in range(num):
                    if (m := index.get((w, t))) is not None:
                        col = {m: 1}
                    elif (found := self._expressed.get((w, t))) is None:
                        col = {}  # top degree, or an empty expansion
                    else:
                        a, q = found
                        top, kept = num ** (d + 1), self.degree_words[d]
                        col = dict(sorted(
                            (index[kept[tag - top]], c // q if c % q == 0 else Fraction(c, q))
                            for tag, c in a.items()
                        ))
                    columns[t].append(col)
            self._columns = tuple(map(tuple, columns))
        return self._columns

    # -- assembled algebra -------------------------------------------------------

    @cached_property
    def algebra(self) -> LieSuperalgebra:
        return self._assemble()

    def _assemble(self) -> LieSuperalgebra:
        """The full table, filled from the generator columns by graded Jacobi.

        A basis word b of degree d > 1 is a kept candidate [c, g], so

            [x, b] = [[x, c], g] - (-1)^{|c||g|} [[x, g], c].

        `ad[b][x]` is [b_x, b_b] for d <= deg x <= k - d, filled by
        increasing d: both reads, [x, c] and [y, c] for y in [x, g], have
        a left factor of degree >= d > deg c, so they are already there.
        The pairs with deg x < deg b follow by graded skew-symmetry.
        """
        k, num, pars = self.spec.class_bound, self.spec.num, self.spec.parities
        columns = self.generator_columns()
        ad = {self.generator_basis_index(t): dict(enumerate(columns[t])) for t in range(num)}
        for b in sorted(range(self.dim), key=self.basis_degree):
            d, w = self._basis[b]
            if 1 < d <= k // 2:
                wc, t = w
                c = self._index[wc]
                s = graded_sign(c >= self.n_even, pars[t])  # the basis lists the even words first
                ad[b] = col = {}
                for x, (dx, _) in enumerate(self._basis):
                    if d <= dx <= k - d:
                        col[x] = z = combine(columns[t], ad[c][x])
                        axpy(z, -s, combine(ad[c], columns[t][x]))
        table = {}
        for b, col in ad.items():
            db, pb = self._basis[b][0], b >= self.n_even
            for x, z in col.items():
                if z and (x <= b or self._basis[x][0] > db):
                    # z is [b_x, b_b]; with x > b it gives [b_b, b_x] by skew-symmetry
                    sign = 1 if x <= b else -graded_sign(x >= self.n_even, pb)
                    table[min(x, b), max(x, b)] = [(m, sign * a) for m, a in sorted(z.items())]
        name = f"free({self.spec.even}|{self.spec.odd},c{k})"
        parities = [EVEN] * self.n_even + [ODD] * self.n_odd
        return LieSuperalgebra(name, self.basis_labels(), parities, dict(sorted(table.items())))


def build_free_nilpotent(spec: GeneratorSpec) -> FreeNilpotentSuperalgebra:
    return FreeNilpotentSuperalgebra(spec)


# -- independent dimension oracle ---------------------------------------------


def _series_mul(a: dict, b: dict, k: int) -> dict:
    out: dict = {}
    for (d1, j1), c1 in a.items():
        for (d2, j2), c2 in b.items():
            if d1 + d2 > k:
                continue
            key = (d1 + d2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def free_superalgebra_degree_dims(p: int, q: int, k: int) -> list[SuperDim]:
    """Per-degree dimensions of the free Lie superalgebra on (p|q) generators.

    Ordered monomials in a homogeneous basis (odd factors with exponent
    at most one) biject with associative words, so in Z[[t, u]] with u
    marking odd letters:

        prod_{d,j} (1 + t^d u^j)^{O(d,j)} / (1 - t^d u^j)^{E(d,j)}
            = 1 / (1 - (p + q u) t)

    where E / O count basis elements of degree d with j odd letters and
    j even / odd.  Solving degree by degree determines every E and O; the
    per-degree pair (sum_j E, sum_j O) is returned.  This recursion is
    independent of the expansion-based basis selection.
    """
    prod = {(0, 0): 1}
    dims = []
    for d in range(1, k + 1):
        counts = {}
        for j in range(d + 1):
            have = prod.get((d, j), 0)
            want = comb(d, j) * p ** (d - j) * q ** j
            l_dj = want - have
            if l_dj < 0:
                raise AlgebraError("counting recursion produced a negative dimension")
            if l_dj:
                counts[j] = l_dj
        dims.append(
            SuperDim(
                sum(c for j, c in counts.items() if j % 2 == 0),
                sum(c for j, c in counts.items() if j % 2 == 1),
            )
        )
        for j, cnt in counts.items():
            factor = {(0, 0): 1}
            for i in range(1, k // d + 1):
                coef = comb(cnt, i) if j % 2 == 1 else comb(cnt + i - 1, i)
                if coef:
                    factor[(d * i, j * i)] = coef
            prod = _series_mul(prod, factor, k)
    return dims


def hilbert_check(f: FreeNilpotentSuperalgebra) -> list[str]:
    """Compare selected per-degree dimensions against the counting oracle."""
    expected = free_superalgebra_degree_dims(f.spec.even, f.spec.odd, f.spec.class_bound)
    mismatches = []
    for d, (got, want) in enumerate(zip(f.degree_dims(), expected), start=1):
        if got != want:
            mismatches.append(f"degree {d}: built {got}, counting oracle {want}")
    return mismatches


# -- the bracket rewriting identity ------------------------------------------


def _psum(parities, a: int, b: int) -> int:
    """Sum of |x_a| .. |x_b| (1-based, inclusive, empty when a > b)."""
    return sum(parities[a - 1 : b])


def rewrite_head_sign(i: int, parities) -> int:
    """Sign of the head term [[x_1..x_i]_l, x_{i+1}] of the rewriting identity."""
    return graded_sign(_psum(parities, 1, i - 1), parities[i])


def rewrite_term_sign(i: int, a: int, parities) -> int:
    """Sign of the term [[[x_a..x_{i+1}]_r, [x_1..x_{a-2}]_l], x_{a-1}].

    Valid for 2 <= a <= i+1, the range its one caller passes; the two
    terms nearest the head carry their own signs, the rest the general one.
    """
    p = lambda t: parities[t - 1]  # noqa: E731 - local shorthand
    if a == i + 1:
        return graded_sign(p(i + 1), p(i))
    if a == i:
        return graded_sign(p(i) + p(i + 1), p(i - 1))
    return graded_sign(_psum(parities, 1, a - 1), _psum(parities, a, i - 1)) * graded_sign(
        _psum(parities, i, i + 1), _psum(parities, a, i - 2)
    )


def rewrite_brace_coeff(i: int, parities) -> int:
    """Coefficient of the closing term [[x_1..x_{i-1}]_l, [x_i, x_{i+1}]]: 0 or ±2."""
    p = lambda t: parities[t - 1]  # noqa: E731 - local shorthand
    head = _psum(parities, 1, i - 2)
    return (graded_sign(head, p(i)) - graded_sign(p(i - 1), p(i + 1))) * graded_sign(
        head, p(i + 1)
    )


def _identity_parities(i: int, parities) -> tuple[int, ...]:
    """The parity pattern as a tuple of 0/1, checked against the arity."""
    if i < 2:
        raise AlgebraError("the identity needs i >= 2")
    parities = tuple(int(p) % 2 for p in parities)
    if len(parities) != i + 1:
        raise AlgebraError(f"need {i + 1} parities, got {len(parities)}")
    return parities


@cache
def _identity_words(i: int) -> tuple:
    """The i + 2 term words of the degree-(i+1) rewriting identity, which
    depend on the arity alone: the head, the terms a = i+1 .. 2, and the
    brace word.  Only their coefficients change with the parity pattern."""
    words: list = [(left_normed_word(range(0, i)), i)]
    for a in range(i + 1, 1, -1):
        right = right_normed_word(range(a - 1, i + 1))
        words.append((right if a == 2 else (right, left_normed_word(range(0, a - 2))), a - 2))
    words.append((left_normed_word(range(0, i - 1)), (i - 1, i)))
    return tuple(words)


def _identity_coeffs(i: int, parities) -> list[int]:
    """The coefficients of `_identity_words(i)` under a checked pattern; only
    the brace coefficient can be 0."""
    return [
        rewrite_head_sign(i, parities),
        *(rewrite_term_sign(i, a, parities) for a in range(i + 1, 1, -1)),
        rewrite_brace_coeff(i, parities),
    ]


def rewrite_identity_terms(i: int, parities) -> list[tuple[int, object]]:
    """Signed bracket words of the degree-(i+1) rewriting identity, i >= 2.

    The identity re-expresses nested brackets of i+1 homogeneous
    elements as a signed combination of terms [[right-normed tail,
    left-normed head], single factor], closing with a brace term on
    [x_i, x_{i+1}]; the full signed sum vanishes in any Lie superalgebra.
    Indices are 1-based; leaf t of a word stands for x_{t+1}.  At i = 2
    it is the graded Jacobi identity on x_1, x_2, x_3.  The brace term is
    left out where its coefficient is 0.
    """
    parities = _identity_parities(i, parities)
    return [(c, w) for c, w in zip(_identity_coeffs(i, parities), _identity_words(i)) if c]


def rewrite_tensor_terms(i: int, parities) -> list[tuple[int, object, int]]:
    """The rewriting identity as (coefficient, word u, leaf k) triples, each
    standing for [u, x_{k+1}]; their signed sum vanishes.

    The brace term [u, [a, b]] is folded by graded Jacobi into
    [[u, a], b] - (-1)^{|a||b|} [[u, b], a], so every u has degree i.
    """
    parities = tuple(int(p) % 2 for p in parities)
    terms: list[tuple[int, object, int]] = []
    for coeff, (u, v) in rewrite_identity_terms(i, parities):
        if isinstance(v, int):
            terms.append((coeff, u, v))
        else:
            a, b = v
            terms.append((coeff, (u, a), b))
            terms.append((-coeff * graded_sign(parities[a], parities[b]), (u, b), a))
    return terms


@cache
def _even_expansion(w) -> dict[tuple[int, ...], int]:
    """The expansion of w with every letter even, cached by word.

    It holds nothing that depends on a parity pattern.  Its callers only
    read the dict it hands out.  The rewriting identity's words depend on
    the arity alone, i + 2 of them per arity, so the cache stays as small
    as the arities swept (the CLI stops at `cli.IDENTITY_ARITY_MAX`).
    """
    return expand(w, (EVEN,) * (max(word_leaves(w)) + 1))


@cache
def _identity_kernel(i: int) -> SparseEchelon:
    """K_i = {a : sum_t a_t E_t = 0}, E_t the all-even expansion of the
    t-th of `_identity_words(i)`, cached by arity like the expansions.

    `kernel`'s rows go into an echelon of their own, so that a membership
    test (an empty `remainder`) reduces in ints, not in Fractions.  The
    echelon is shared: callers only reduce against it, and insert nothing.
    """
    ech = SparseEchelon()
    for row in kernel([_even_expansion(w) for w in _identity_words(i)]).rows:
        ech.insert(row)
    return ech


@cache
def _identity_leaves(i: int) -> tuple[tuple[int, ...], ...]:
    """The leaves of each of `_identity_words(i)`, left to right."""
    return tuple(tuple(word_leaves(w)) for w in _identity_words(i))


@cache
def _identity_inversions(i: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The out-of-order letter pairs of the leaves of each of
    `_identity_words(i)`, grouped by their first letter: (a, B) with B the
    bitmask of the letters b < a that come after a.  κ_p of the leaves is
    (-1) to the number of these pairs whose letters are both odd."""
    return tuple(
        tuple(
            (a, later)
            for k, a in enumerate(leaves)
            if (later := sum(1 << b for b in leaves[k + 1 :] if b < a))
        )
        for leaves in _identity_leaves(i)
    )


def koszul_sign(letters, parities) -> int:
    """(-1) to the number of out-of-order pairs of odd letters in `letters`."""
    odd = [t for t in letters if parities[t]]
    inversions = sum(a > b for k, a in enumerate(odd) for b in odd[k + 1 :])
    return -1 if inversions % 2 else 1


def rewrite_identity_residual(i: int, parities) -> dict:
    """Residual of the rewriting identity, expanded in the free associative
    superalgebra on i+1 generators with the given parities.  Empty dict
    means the identity holds exactly.

    Each term is read off its expansion with every letter even, by the
    Koszul rule: for a bracket word w that uses each of its letters once,
    and an associative word u,

        expand(w, p)[u] = expand(w, even)[u] · κ_p(u) · κ_p(leaves(w)),

    where κ_p(s) is `koszul_sign(s, p)`.  Proof: a monomial u of w's
    expansion picks, at every inner node [A, B], either AB or BA.  Two
    letters of w change their relative order between leaves(w) and u
    exactly when u swaps their lowest common node.  The super expansion
    differs from the even one by (-1)^{|A||B|} at each swapped node,
    that is by (-1) per pair of odd letters that changed order.  With
    distinct letters, a pair changed order exactly when it is out of
    order in one of u and leaves(w) but not in the other, so the count's
    parity is that of the out-of-order odd pairs of u plus those of
    leaves(w).  (A repeated odd letter breaks the rule: [f, f] expands to
    2ff, its even expansion to 0.)

    Every term uses each of x_1..x_{i+1} once.  So with w_t the term
    words (`_identity_words(i)`, which depend on the arity alone), E_t
    their even expansions and c_t = coeff_t · κ_p(leaves(w_t)), the
    residual at u is κ_p(u) · (sum_t c_t E_t)[u].  As κ_p(u) = ±1, the
    residual is empty exactly when c lies in the kernel K_i of the E_t
    (`_identity_kernel`).  So a pattern is one membership test of an
    integer vector with at most i + 2 entries; only a pattern that fails
    it has its residual summed, from the same cached expansions.  The
    signs κ_p(leaves(w_t)) count odd pairs among the words' out-of-order
    letter pairs, which depend on the arity alone (`_identity_inversions`).
    """
    parities = _identity_parities(i, parities)
    odd = sum(p << t for t, p in enumerate(parities))  # bitmask of the odd letters
    c = {
        t: -a if sum((odd & later).bit_count() for x, later in pairs if odd >> x & 1) % 2 else a
        for t, (a, pairs) in enumerate(zip(_identity_coeffs(i, parities), _identity_inversions(i)))
        if a
    }
    if not _identity_kernel(i).remainder(c):
        return {}
    words = _identity_words(i)
    residual: dict = {}
    for t, a in c.items():
        axpy(residual, a, _even_expansion(words[t]))
    return {u: koszul_sign(u, parities) * v for u, v in residual.items()}


# -- evaluation homomorphisms ---------------------------------------------------


def evaluate_word(L: LieSuperalgebra, w, images, memo: dict) -> dict:
    """The bracket word w evaluated in L with leaf t sent to the sparse images[t].

    `memo` caches the values of inner nodes by word, so it may be shared
    only between calls with the same images.
    """
    if isinstance(w, int):
        return images[w]
    if w not in memo:
        memo[w] = L.bracket(
            evaluate_word(L, w[0], images, memo), evaluate_word(L, w[1], images, memo)
        )
    return memo[w]


def eval_hom(
    f: FreeNilpotentSuperalgebra, images, target: LieSuperalgebra
) -> list[dict]:
    """The homomorphism extending generator -> image, checked on the pairs
    that construction does not settle, as its columns: the sparse images
    of f's basis, in basis order.

    Images are sparse vectors of the target, homogeneous with the
    generators' parities, and the target's class may not exceed the
    truncation class (a violation surfaces as a failed homomorphism
    check).  The target must be a Lie superalgebra (`require_valid` is
    called first, and cached).  Column x is φ(b_x), filled by increasing
    degree: a generator's column is its image, and the basis word
    b = [c, g] of degree > 1 has column [φ(b_c), φ(g)], the target's
    bracket of an earlier column with an image.

    φ is a homomorphism once φ[x, g] = [φx, φg] holds for every basis
    word x and generator g: by the graded Jacobi identity in source and
    target, the set of y with φ[x, y] = [φx, φy] for every x is a
    subspace, it contains the generators, and it is closed under
    brackets, so it is all of F.  f's `generator_columns` give [x, g].
    Where the build kept the candidate [b_x, g], that column is the basis
    word b = [b_x, g] itself, and its image is by definition
    [φx, φg]: those pairs hold by construction, and are told apart by
    indices, (x, g) being b's factors.  So do the pairs with [x, g] = 0
    and φx = 0, where both sides are 0 by bilinearity.  The others are
    checked:
    * rejected candidates, whose columns are the expressions that
      `generator_columns` derived;
    * candidates with an empty expansion, where [x, g] = 0;
    * x of the top degree, where [x, g] = 0 by truncation; these pairs
      enforce that the target's class stays within the truncation class.
    """
    target.require_valid()
    images = list(images)
    if len(images) != f.spec.num:
        raise AlgebraError(f"need {f.spec.num} images, got {len(images)}")
    for t, img in enumerate(images):
        if any(not 0 <= k < target.dim for k in img):
            raise AlgebraError("image has a coordinate outside the target")
        if img and target.parity_of(img) != f.spec.parities[t]:
            raise AlgebraError(
                f"generator {f.spec.labels[t]} is mapped to an element of the wrong parity"
            )
    columns: list = [None] * f.dim
    factors: list = [None] * f.dim  # b -> (index of c, t) for the basis word [c, g_t]
    for b in sorted(range(f.dim), key=f.basis_degree):
        w = f.basis_word(b)
        if isinstance(w, int):
            columns[b] = images[w]
        else:
            factors[b] = c, t = f._index[w[0]], w[1]
            columns[b] = target.bracket(columns[c], images[t])
    ad = f.generator_columns()
    for x in range(f.dim):
        for t in range(f.spec.num):
            col = ad[t][x]
            if len(col) == 1 and factors[next(iter(col))] == (x, t):
                continue  # a kept candidate
            if not col and not columns[x]:
                continue  # both sides are 0, by bilinearity
            g = f.generator_basis_index(t)
            if combine(columns, col) != target.bracket(columns[x], columns[g]):
                raise AlgebraError(
                    "generator images do not extend to a homomorphism "
                    f"(fails at basis pair {x},{g}; is the target's class within "
                    f"the truncation class {f.spec.class_bound}?)"
                )
    return columns
