"""Algebra constructors and the line-oriented catalog file format.

Grammar (UTF-8, '#' starts a comment, blank lines ignored):

    algebra <name>
    even <label> <label> ...
    odd  <label> <label> ...
    [<label>,<label>] = <coeff>*<label> (+|-) <coeff>*<label> ...
    end

Coefficients are integers or p/q; "1*" may be omitted.  Unspecified
brackets are zero.  An entry [b,a] is kept as written, and
`LieSuperalgebra` mirrors it to [a,b] by graded skew-symmetry; supplying
the same unordered pair twice is an error.  Every parsed record must
validate as a Lie superalgebra.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .exactla import axpy
from .superalg import EVEN, ODD, LieSuperalgebra, direct_sum

_LABEL = r"[A-Za-z_][A-Za-z0-9_']*"
_COEFF = r"-?\d+(?:/\d+)?"
_BRACKET_RE = re.compile(
    rf"^\[\s*({_LABEL})\s*,\s*({_LABEL})\s*\]\s*=\s*(.+)$"
)
_TERM_RE = re.compile(
    rf"^\s*(?:({_COEFF})\s*\*\s*)?({_LABEL})\s*"
)


class CatalogError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", column {column}"
            loc += ": "
        super().__init__(loc + message)
        self.line = line
        self.column = column


# -- constructors ----------------------------------------------------------------


def abelian(m: int, n: int, name: str | None = None, labels=None) -> LieSuperalgebra:
    if labels is None:
        labels = [f"e{i+1}" for i in range(m)] + [f"f{i+1}" for i in range(n)]
    return LieSuperalgebra(
        name if name is not None else f"A({m}|{n})",
        labels,
        [EVEN] * m + [ODD] * n,
        {},
    )


def heisenberg3() -> LieSuperalgebra:
    """Three even basis vectors with [e1, e2] = e3."""
    return LieSuperalgebra(
        "heis3", ["e1", "e2", "e3"], [EVEN] * 3, {(0, 1): [(2, 1)]}
    )


def filiform4() -> LieSuperalgebra:
    """Four even basis vectors with [e1, e2] = e3 and [e1, e3] = e4."""
    return LieSuperalgebra(
        "filiform4",
        ["e1", "e2", "e3", "e4"],
        [EVEN] * 4,
        {(0, 1): [(2, 1)], (0, 2): [(3, 1)]},
    )


def special_heisenberg_odd(n: int, name: str | None = None) -> LieSuperalgebra:
    """One even central z and odd f_1..f_n with [f_i, f_j] = delta_ij z."""
    labels = ["z"] + [f"f{i+1}" for i in range(n)]
    table = {(i, i): [(0, 1)] for i in range(1, n + 1)}
    return LieSuperalgebra(
        name if name is not None else f"sh(0|{n})",
        labels,
        [EVEN] + [ODD] * n,
        table,
    )


def relabel_canonical(L: LieSuperalgebra, name: str) -> LieSuperalgebra:
    """Copy of L with grammar-safe labels e1.. / f1.. and a new name."""
    labels = [f"e{i+1}" for i in range(L.n_even)] + [
        f"f{i+1}" for i in range(L.n_odd)
    ]
    table = {
        (i, j): tuple(sorted(L.bracket_basis(i, j).items())) for i, j in L.nonzero_pairs()
    }
    return LieSuperalgebra(name, labels, L.parities, table)


def _free21_quotients() -> list[LieSuperalgebra]:
    """Small-class quotients of the free nilpotent algebra on (2|1) generators."""
    # imported here, its only use, so that parsing a catalog never loads freenilp
    from .freenilp import GeneratorSpec, build_free_nilpotent

    out = []
    f3 = build_free_nilpotent(GeneratorSpec(2, 1, 3))
    a3 = f3.algebra
    out.append(relabel_canonical(a3, "free21c3"))
    q2 = a3.quotient(f3.gamma(3))
    out.append(relabel_canonical(q2, "free21c2"))
    i_x1, i_x2, i_f1 = q2.index_of("x1"), q2.index_of("x2"), q2.index_of("f1")
    # cut one even central line of the class-2 quotient: [x1,x2] - [f1,f1]
    cut: dict = {}
    axpy(cut, 1, q2.bracket_basis(i_x1, i_x2))
    axpy(cut, -1, q2.bracket_basis(i_f1, i_f1))
    q2a = q2.quotient(q2.graded_span([cut]))
    out.append(relabel_canonical(q2a, "free21c2cut"))
    # cut one odd central line of the class-2 quotient: [x1,f1]
    q2b = q2.quotient(q2.graded_span([q2.bracket_basis(i_x1, i_f1)]))
    out.append(relabel_canonical(q2b, "free21c2oddcut"))
    # class-3 quotient by one degree-3 line (degree-3 elements are central)
    g3 = f3.gamma(3)
    line = a3.graded_span([g3.rows[0]])
    q3 = a3.quotient(line)
    out.append(relabel_canonical(q3, "free21c3cut"))
    return out


def builtin_algebras() -> list[LieSuperalgebra]:
    """The shipped catalog: worked examples plus tight and slack bound cases."""
    algebras: list[LieSuperalgebra] = []
    for m in range(4):
        for n in range(4):
            algebras.append(abelian(m, n))
    algebras.append(heisenberg3())
    algebras.append(filiform4())
    algebras.append(special_heisenberg_odd(1))
    algebras.append(special_heisenberg_odd(2))
    algebras.append(
        direct_sum(heisenberg3(), abelian(1, 0, labels=["e4"]), name="heis3+A(1|0)")
    )
    algebras.extend(_free21_quotients())
    return algebras


# -- parsing ------------------------------------------------------------------------


def _parse_terms(expr: str, line_no: int):
    """Split a right-hand side into (coeff, label) pairs.

    `expr` is the bracket pattern's capture of a stripped line, so it
    ends in a non-space character: the loop reads at least one term or
    raises.
    """
    pieces = []
    rest = expr.strip()
    while rest:
        sign = -1 if rest[0] == "-" else 1
        if rest[0] in "+-":
            rest = rest[1:].lstrip()
        elif pieces:
            raise CatalogError(f"expected '+' or '-' before {rest!r}", line_no)
        m = _TERM_RE.match(rest)
        if not m:
            raise CatalogError(f"cannot read term at {rest!r}", line_no)
        try:
            coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        except ZeroDivisionError:
            raise CatalogError(
                f"coefficient {m.group(1)} has a zero denominator", line_no
            ) from None
        except ValueError:  # more digits than int() converts
            raise CatalogError(
                f"coefficient of {len(m.group(1))} characters is too long", line_no
            ) from None
        pieces.append((sign * coeff, m.group(2)))
        rest = rest[m.end():].lstrip()
    return pieces


def _parse_labels(line: str, line_no: int) -> list[str]:
    labels = line.split()[1:]
    for lbl in labels:
        if not re.fullmatch(_LABEL, lbl):
            raise CatalogError(f"{lbl!r} is not a valid basis label", line_no)
    return labels


def _build_record(record: dict) -> LieSuperalgebra:
    """The validated algebra of a record closed by its `end` line.

    `record` holds the `name` and the `line` of its `algebra` header, the
    `even` and `odd` labels (None when the header line is absent) and the
    `brackets` as (line, label, label, terms), in file order.
    """
    name, start_line = record["name"], record["line"]
    ev, od = record["even"] or [], record["odd"] or []
    labels = ev + od
    if len(set(labels)) != len(labels):
        raise CatalogError(f"duplicate basis label in {name!r}", start_line)
    index = {lbl: i for i, lbl in enumerate(labels)}
    parities = [EVEN] * len(ev) + [ODD] * len(od)
    table: dict = {}
    for line_no, la, lb, terms in record["brackets"]:
        for lbl in (la, lb):
            if lbl not in index:
                raise CatalogError(f"unknown label {lbl!r}", line_no)
        i, j = index[la], index[lb]
        if (i, j) in table or (j, i) in table:
            raise CatalogError(f"duplicate bracket entry for ({la},{lb})", line_no)
        want = (parities[i] + parities[j]) % 2
        resolved = []
        for coeff, lbl in terms:
            if lbl not in index:
                raise CatalogError(f"unknown label {lbl!r}", line_no)
            k = index[lbl]
            if parities[k] != want:
                raise CatalogError(
                    f"bracket [{la},{lb}] targets {lbl} of the wrong parity", line_no
                )
            resolved.append((k, coeff))
        table[(i, j)] = resolved
    alg = LieSuperalgebra(name, labels, parities, table)
    report = alg.validate()
    if not report.ok:
        raise CatalogError(
            f"record {name!r} is not a Lie superalgebra: {report.summary()}", start_line
        )
    return alg


def parse_catalog(text: str) -> list[LieSuperalgebra]:
    """Parse catalog text into validated algebras, in file order."""
    algebras: list[LieSuperalgebra] = []
    record: dict | None = None
    seen_names: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        head = line.split()[0]
        if head == "algebra":
            if record is not None:
                raise CatalogError(f"record {record['name']!r} is missing its 'end'", line_no)
            parts = line.split()
            if len(parts) != 2:
                raise CatalogError("expected: algebra <name>", line_no)
            if parts[1] in seen_names:
                raise CatalogError(f"duplicate algebra name {parts[1]!r}", line_no)
            seen_names.add(parts[1])
            record = {"name": parts[1], "line": line_no, "even": None, "odd": None, "brackets": []}
        elif record is None:
            raise CatalogError(f"statement outside an algebra record: {line!r}", line_no)
        elif head in ("even", "odd"):
            if record[head] is not None:
                raise CatalogError(f"repeated {head!r} line", line_no)
            record[head] = _parse_labels(line, line_no)
        elif head == "end":
            algebras.append(_build_record(record))
            record = None
        elif line.startswith("["):
            m = _BRACKET_RE.match(line)
            if not m:
                raise CatalogError(
                    f"cannot parse bracket line {line!r}", line_no,
                    column=len(code) - len(code.lstrip()) + 1,
                )
            record["brackets"].append(
                (line_no, m.group(1), m.group(2), _parse_terms(m.group(3), line_no))
            )
        else:
            raise CatalogError(f"unrecognized statement {line!r}", line_no)
    if record is not None:
        raise CatalogError(f"record {record['name']!r} is missing its 'end'", record["line"])
    return algebras


def render_catalog(algebras) -> str:
    """Serialize algebras in the catalog grammar, deterministically."""
    chunks = []
    for alg in algebras:
        lines = [f"algebra {alg.name}"]
        ev = alg.basis_labels[: alg.n_even]
        od = alg.basis_labels[alg.n_even:]
        for lbl in list(ev) + list(od):
            if not re.fullmatch(_LABEL, lbl):
                raise CatalogError(
                    f"label {lbl!r} of {alg.name} is not grammar-safe"
                )
        # '#' starts a comment and whitespace splits the header line
        if not alg.name or "#" in alg.name or any(ch.isspace() for ch in alg.name):
            raise CatalogError(f"algebra name {alg.name!r} is not grammar-safe")
        if ev:
            lines.append("even " + " ".join(ev))
        if od:
            lines.append("odd " + " ".join(od))
        for i, j in alg.nonzero_pairs():
            parts = []
            for k, c in sorted(alg.bracket_basis(i, j).items()):
                mag = f"{abs(c)}*" if abs(c) != 1 else ""
                term = f"{mag}{alg.label_of(k)}"
                if not parts:
                    parts.append(("-" if c < 0 else "") + term)
                else:
                    parts.append(("- " if c < 0 else "+ ") + term)
            lines.append(
                f"[{alg.label_of(i)},{alg.label_of(j)}] = " + " ".join(parts)
            )
        lines.append("end")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"
