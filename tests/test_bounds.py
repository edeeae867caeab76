from fractions import Fraction

import pytest

from superschur.bounds import (
    BoundError,
    BoundInput,
    BoundViolation,
    abelian_multiplier_dims,
    check_bound,
    extract_input,
    main_bound,
    main_bound_penultimate,
    nayak_bound,
    rai_bound,
)
from superschur.catalog import abelian, filiform4, heisenberg3, special_heisenberg_odd
from superschur.multiplier import schur_multiplier_hopf
from superschur.superalg import SuperDim, direct_sum

F = Fraction


def heis_plus_line():
    return direct_sum(heisenberg3(), abelian(1, 0, labels=["e4"]), name="heis3+A(1|0)")


class TestInputGuards:
    @pytest.mark.parametrize(
        "entries, message",
        [
            ((1, 0, 0, 0, -1), "negative entry"),
            ((1, 1, 2, 0, 2), "derived subalgebra larger than the algebra"),
            ((0, 1, 0, 2, 2), "derived subalgebra larger than the algebra"),
            ((2, 0, 2, 0, 2), "a nilpotent algebra needs a generator outside [L, L]"),
            ((1, 1, 1, 1, 2), "a nilpotent algebra needs a generator outside [L, L]"),
        ],
    )
    def test_bound_input_refuses(self, entries, message):
        with pytest.raises(BoundError) as err:
            BoundInput(*entries)
        assert str(err.value) == message


class TestAbelianClosedForm:
    def test_line(self):
        assert abelian_multiplier_dims(1, 0) == SuperDim(0, 0)

    def test_2_1(self):
        assert abelian_multiplier_dims(2, 1) == SuperDim(2, 2)

    def test_0_2(self):
        assert abelian_multiplier_dims(0, 2) == SuperDim(3, 0)

    @pytest.mark.parametrize("m", range(5))
    @pytest.mark.parametrize("n", range(5))
    def test_agrees_with_computed_multiplier(self, m, n):
        assert abelian_multiplier_dims(m, n) == schur_multiplier_hopf(abelian(m, n))


class TestMainBound:
    def test_heis3_input(self):
        assert main_bound(BoundInput(3, 0, 1, 0, 2)) == 2

    def test_single_odd_generator_input(self):
        # l = 1 leaves the summation empty
        assert main_bound(BoundInput(1, 1, 1, 0, 2)) == 1

    def test_2_2_1_1(self):
        assert main_bound(BoundInput(2, 2, 1, 1, 2)) == 4

    def test_heis_plus_line_input(self):
        assert main_bound(BoundInput(4, 0, 1, 0, 2)) == 4

    def test_preconditions(self):
        with pytest.raises(BoundError):
            main_bound(BoundInput(2, 0, 0, 0, 1))
        with pytest.raises(BoundError):
            main_bound(BoundInput(3, 0, 1, 0, 1))

    @pytest.mark.parametrize("m", range(7))
    @pytest.mark.parametrize("n", range(7))
    def test_form_equivalence(self, m, n):
        # the two algebraic shapes of the bound are the same exact number
        for r in range(m + 1):
            for s in range(n + 1):
                if r + s < 1 or m + n - r - s < 1:
                    continue
                for c in range(2, m + n + 2):
                    b = BoundInput(m, n, r, s, c)
                    assert main_bound(b) == main_bound_penultimate(b)


class TestNayak:
    def test_values(self):
        assert nayak_bound(3, 0, 1, 0) == 2
        assert nayak_bound(2, 2, 1, 1) == 5
        assert nayak_bound(4, 0, 2, 0) == 3

    def test_exact_rational_no_flooring(self):
        v = nayak_bound(2, 0, 1, 0)
        assert isinstance(v, F)
        assert v == F(1)

    def test_requires_nonabelian(self):
        with pytest.raises(BoundError):
            nayak_bound(2, 0, 0, 0)


class TestRai:
    def test_values(self):
        assert rai_bound(3, 1, 2) == 2
        assert rai_bound(4, 1, 2) == 4
        assert rai_bound(4, 2, 3) == 3

    def test_preconditions(self):
        with pytest.raises(BoundError):
            rai_bound(3, 0, 2)
        with pytest.raises(BoundError):
            rai_bound(3, 3, 2)
        with pytest.raises(BoundError):
            rai_bound(3, 1, 1)


class TestSpecialization:
    def test_even_case_equals_rai(self):
        for m in range(2, 9):
            for r in range(1, m):
                for c in range(2, m - r + 2):
                    assert main_bound(BoundInput(m, 0, r, 0, c)) == rai_bound(m, r, c)


class TestDominance:
    def test_main_at_most_nayak(self):
        for m in range(7):
            for n in range(7):
                for r in range(m + 1):
                    for s in range(n + 1):
                        if r + s < 1 or m + n - r - s < 2:
                            continue
                        for c in range(2, m + n + 2):
                            b = BoundInput(m, n, r, s, c)
                            assert main_bound(b) <= nayak_bound(m, n, r, s), b


class TestExtractAndCheck:
    def test_extract_heis3(self):
        assert extract_input(heisenberg3()) == BoundInput(3, 0, 1, 0, 2)

    def test_extract_sh01(self):
        assert extract_input(special_heisenberg_odd(1)) == BoundInput(1, 1, 1, 0, 2)

    def test_extract_abelian_flags_hypotheses(self):
        b = extract_input(abelian(2, 1))
        assert b.r + b.s == 0
        with pytest.raises(BoundError, match="hypotheses"):
            check_bound(abelian(2, 1))

    def test_heis3_tight(self):
        rep = check_bound(heisenberg3())
        assert rep.actual.total == 2 and rep.main == 2 and rep.nayak == 2
        assert rep.tight_main

    def test_sh01_slack(self):
        rep = check_bound(special_heisenberg_odd(1))
        assert rep.actual.total == 0 and rep.main == 1
        assert rep.slack_main == 1

    def test_heis_plus_line_tight(self):
        rep = check_bound(heis_plus_line())
        assert rep.actual.total == 4 and rep.main == 4
        assert rep.tight_main and rep.rai == 4

    def test_filiform4(self):
        rep = check_bound(filiform4())
        assert rep.actual.total == 2 and rep.rai == 3 and rep.main == 3
        assert not rep.violation

    def test_violation_raises(self):
        rep = check_bound(heisenberg3())
        forced = type(rep)(
            algebra="synthetic",
            input=rep.input,
            actual=SuperDim(99, 0),
            main=rep.main,
            nayak=rep.nayak,
            rai=rep.rai,
        )
        assert forced.violation
        with pytest.raises(BoundViolation):
            raise BoundViolation(forced)
