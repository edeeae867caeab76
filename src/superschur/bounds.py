"""Closed-form bounds on multiplier dimensions and their comparison.

All bounds are evaluated from plain numeric data (m, n, r, s, c) so they
can be swept over parameter grids without constructing algebras; the
checker pairs them with the computed multiplier of a concrete algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .multiplier import schur_multiplier_hopf
from .superalg import LieSuperalgebra, SuperDim


class BoundError(ValueError):
    pass


class BoundViolation(RuntimeError):
    """A computed multiplier dimension exceeded a bound it must respect."""

    def __init__(self, report: "BoundCheck"):
        super().__init__(
            f"{report.algebra}: multiplier dimension {report.actual.total} "
            f"exceeds a bound ({report.as_dict()})"
        )
        self.report = report


@dataclass(frozen=True)
class BoundInput:
    """dim L = (m|n), dim [L,L] = (r|s), nilpotency class c."""

    m: int
    n: int
    r: int
    s: int
    c: int

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.r, self.s, self.c) < 0:
            raise BoundError("negative entry")
        if self.r > self.m or self.s > self.n:
            raise BoundError("derived subalgebra larger than the algebra")
        if self.r + self.s > 0 and self.r + self.s > self.m + self.n - 1:
            raise BoundError("a nilpotent algebra needs a generator outside [L, L]")

    @property
    def codim(self) -> int:
        """m + n - r - s, the number of minimal generators."""
        return self.m + self.n - self.r - self.s


def abelian_multiplier_dims(m: int, n: int) -> SuperDim:
    """Closed-form multiplier of the abelian algebra A(m|n); its even part
    (m(m-1) + n(n+1)) / 2 is exact, as each product is of consecutive integers."""
    return SuperDim((m * (m - 1) + n * (n + 1)) // 2, m * n)


def main_bound(b: BoundInput) -> int:
    """1/2[(m+n-r-s)(m+n+r+s) + (n-m-r-3s)] - sum_{i=2}^{l} (m+n-r-s-i),
    with l = min(c, m+n-r-s).  The bracketed part is even: d = m+n-r-s and
    t = m+n+r+s differ by 2(r+s), and n-m-r-3s ≡ t, so it is ≡ t(t+1) ≡ 0
    (mod 2).  `BoundInput` already makes d >= 1 once r+s >= 1."""
    if b.r + b.s < 1:
        raise BoundError("requires a nonzero derived subalgebra (r+s >= 1)")
    if b.c < 2:
        raise BoundError("requires nilpotency class at least 2")
    d = b.codim
    twice = d * (b.m + b.n + b.r + b.s) + (b.n - b.m - b.r - 3 * b.s)
    ell = min(b.c, d)
    return twice // 2 - sum(d - i for i in range(2, ell + 1))


def main_bound_penultimate(b: BoundInput) -> Fraction:
    """The same bound in the form 1/2[(m+n-r-s-1)(m+n+r+s)] + (n-s) - sum;
    must agree exactly with main_bound."""
    d = b.codim
    ell = min(b.c, d)
    return (
        Fraction((d - 1) * (b.m + b.n + b.r + b.s), 2)
        + (b.n - b.s)
        - sum(d - i for i in range(2, ell + 1))
    )


def nayak_bound(m: int, n: int, r: int, s: int) -> Fraction:
    """1/2 (m+n+r+s-2)(m+n-r-s-1) + n + 1, returned exactly (no flooring)."""
    if r + s < 1:
        raise BoundError("requires a nonzero derived subalgebra (r+s >= 1)")
    return Fraction((m + n + r + s - 2) * (m + n - r - s - 1), 2) + n + 1


def rai_bound(big_n: int, big_m: int, c: int) -> int:
    """Ungraded bound 1/2 (N+M)(N-M-1) - sum_{i=2}^{min(c, N-M)} (N-M-i)
    for dim L = N, dim [L,L] = M; the summation sits outside the 1/2, and
    (N+M)(N-M-1) ≡ (N-M)(N-M-1) ≡ 0 (mod 2)."""
    if big_m < 1:
        raise BoundError("requires dim [L,L] >= 1")
    if big_n - big_m < 1:
        raise BoundError("requires N - M >= 1")
    if c < 2:
        raise BoundError("requires nilpotency class at least 2")
    d = big_n - big_m
    twice = (big_n + big_m) * (d - 1)
    return twice // 2 - sum(d - i for i in range(2, min(c, d) + 1))


def extract_input(L: LieSuperalgebra) -> BoundInput:
    """Read (m|n), (r|s) and the class off a nilpotent algebra."""
    L.require_valid()
    c = L.nilpotency_class()
    g2 = L.superdim(L.gamma(2))
    return BoundInput(m=L.n_even, n=L.n_odd, r=g2.even, s=g2.odd, c=c)


@dataclass
class BoundCheck:
    algebra: str
    input: BoundInput
    actual: SuperDim
    main: int
    nayak: Fraction
    rai: int | None

    @property
    def tight_main(self) -> bool:
        return self.actual.total == self.main

    @property
    def slack_main(self) -> int:
        return self.main - self.actual.total

    @property
    def violation(self) -> bool:
        if self.actual.total > self.main or self.actual.total > self.nayak:
            return True
        return self.rai is not None and self.actual.total > self.rai

    def as_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "dims": f"({self.input.m}|{self.input.n})",
            "derived_dims": f"({self.input.r}|{self.input.s})",
            "class": self.input.c,
            "multiplier": str(self.actual),
            "main_bound": self.main,
            "nayak_bound": str(self.nayak),
            "rai_bound": self.rai if self.rai is not None else "-",
            "tight": self.tight_main,
        }


def check_bound(L: LieSuperalgebra) -> BoundCheck:
    """Compare the computed multiplier against every applicable bound.

    Abelian input falls outside the hypotheses and raises; an exceeded
    bound raises BoundViolation carrying the full report.
    """
    b = extract_input(L)
    if b.r + b.s < 1:
        raise BoundError(
            f"{L.name}: theorem hypotheses not met (r+s=0, the algebra is abelian)"
        )
    actual = schur_multiplier_hopf(L)
    rai = None
    if b.n == 0 and b.s == 0:
        rai = rai_bound(b.m, b.r, b.c)
    report = BoundCheck(
        algebra=L.name,
        input=b,
        actual=actual,
        main=main_bound(b),
        nayak=nayak_bound(b.m, b.n, b.r, b.s),
        rai=rai,
    )
    if report.violation:
        raise BoundViolation(report)
    return report
