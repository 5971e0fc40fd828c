"""Rationals, instance containers, fixtures, and normalization helpers."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from welfareshare.model import (
    MAX_DIGITS,
    MAX_EXPONENT,
    DisagreementPoint,
    Instance,
    MatchingInstance,
    Solution,
    apply_rent_shift,
    fixture,
    format_rational,
    normalize_to_disagreement,
    parse_rational,
    zero_disagreement,
)


class TestParseRational:
    def test_fraction_string(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-7/2") == Fraction(-7, 2)

    def test_integer_forms(self):
        assert parse_rational("5") == Fraction(5)
        assert parse_rational(5) == Fraction(5)

    def test_decimal_is_exact(self):
        assert parse_rational("0.25") == Fraction(1, 4)
        assert parse_rational("-1.5") == Fraction(-3, 2)

    def test_rejects_floats(self):
        with pytest.raises((TypeError, ValueError)):
            parse_rational(0.25)

    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_bools(self, flag):
        # bool is an int subclass, so JSON true would otherwise read as 1
        with pytest.raises(TypeError, match="bool"):
            parse_rational(flag)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("one half")

    @pytest.mark.parametrize("text", ["1/0", "0/0", "-3/0"])
    def test_rejects_zero_denominator(self, text):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational(text)

    def test_exponent_cap(self):
        assert parse_rational(f"1e{MAX_EXPONENT}") == 10**MAX_EXPONENT
        assert parse_rational(f"1e-{MAX_EXPONENT}") == Fraction(1, 10**MAX_EXPONENT)
        for text in (f"1e{MAX_EXPONENT + 1}", f"2.5E-{MAX_EXPONENT + 1}"):
            with pytest.raises(ValueError, match="exponent"):
                parse_rational(text)

    def test_digit_cap(self):
        assert parse_rational("9" * MAX_DIGITS) == 10**MAX_DIGITS - 1
        with pytest.raises(ValueError, match="digits"):
            parse_rational("1/" + "9" * MAX_DIGITS)

    @given(st.fractions())
    def test_format_round_trip(self, x):
        assert parse_rational(format_rational(x)) == x


class TestContainers:
    def test_instance_rejects_ragged_matrix(self):
        with pytest.raises(ValueError):
            Instance(("A", "B"), (("1", "2"), ("3",)), ("x", "y"))

    def test_matching_requires_enough_items(self):
        with pytest.raises(ValueError):
            MatchingInstance(("i",), (("1",), ("2",)), ("x", "y"), Fraction(0))

    def test_disagreement_point_protocol(self):
        d = DisagreementPoint((Fraction(1), Fraction(2)), "explicit")
        assert len(d) == 2
        assert d[1] == 2
        assert d.total() == 3
        assert d.total([1]) == 2
        assert zero_disagreement(3).utilities == (0, 0, 0)

    def test_solution_budget_balance_enforced(self):
        with pytest.raises(ValueError):
            Solution(
                alternative="A",
                transfers=(Fraction(1), Fraction(1)),
                utilities=(Fraction(1), Fraction(1)),
                mechanism="test",
            )

    def test_solution_build_consistency(self):
        sol = Solution.build("A", (Fraction(3), Fraction(1)),
                             (Fraction(2), Fraction(2)), "test")
        assert sol.transfers == (Fraction(-1), Fraction(1))
        assert sum(sol.transfers) == 0


class TestRentShift:
    def test_zero_rent_unchanged(self):
        m = MatchingInstance(
            ("a", "b"),
            ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(2))),
            ("x", "y"),
            Fraction(0),
        )
        assert apply_rent_shift(m).values == m.values

    def test_uniform_cancellation(self):
        m = MatchingInstance(
            ("a", "b", "c"),
            tuple(tuple(Fraction(1) for _ in range(3)) for _ in range(3)),
            ("x", "y", "z"),
            Fraction(3),
        )
        shifted = apply_rent_shift(m)
        assert all(v == 0 for row in shifted.values for v in row)

    def test_direct_subtraction(self):
        m = MatchingInstance(
            ("a", "b"),
            ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(2))),
            ("x", "y"),
            Fraction(1),
        )
        shifted = apply_rent_shift(m)
        assert shifted.values == (
            (Fraction(3, 2), Fraction(-1, 2)),
            (Fraction(-1, 2), Fraction(3, 2)),
        )


class TestNormalize:
    def test_zero_disagreement_identity(self):
        inst = fixture("EX2")
        out = normalize_to_disagreement(inst, zero_disagreement(6))
        assert out.values == inst.values

    def test_row_shifts(self):
        m = fixture("EX5").restrict((0, 1, 2), (0, 1, 2))
        d = DisagreementPoint((Fraction(8), Fraction(7), Fraction(14)), "explicit")
        out = normalize_to_disagreement(m, d)
        for i, shift in enumerate((8, 7, 14)):
            for j in range(3):
                assert out.values[i][j] == m.values[i][j] - shift


class TestFixtures:
    def test_ex1_row_1(self):
        m = fixture("EX1", delta=Fraction(1, 10))
        assert m.values[0] == (Fraction(9, 10), Fraction(1, 10), Fraction(0))

    def test_ex3_row_3(self):
        inst = fixture("EX3")
        assert inst.values[2] == (Fraction(0), Fraction(0), Fraction(2), Fraction(2))

    def test_ks4_row_4(self):
        m = fixture("KS4")
        assert m.values[3] == (Fraction(0), Fraction(0), Fraction(4), Fraction(20))

    def test_string_params_accepted(self):
        m = fixture("TWO", delta="1/5")
        assert m.values[1][0] == Fraction(1, 5)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            fixture("NOPE")


    @pytest.mark.parametrize(
        "name, params, key",
        [("EX2", {"delta": 1}, "delta"), ("EX1", {"delta": "1/10", "foo": 1}, "foo"),
         ("LIP", {"n": 4, "eps": 1}, "eps")],
    )
    def test_unknown_parameter(self, name, params, key):
        with pytest.raises(ValueError, match=f"fixture {name} takes no parameter '{key}'"):
            fixture(name, **params)
