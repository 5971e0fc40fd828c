"""Rival mechanisms: Shapley, envy-free max-min, KS, Nash, nucleolus-WS."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import random_general, random_matching

from welfareshare.core import EmptyCoreError, check_anticore, check_domination, ws_core_nonempty
from welfareshare.disagreement import rp_exact
from welfareshare.model import (
    DisagreementPoint,
    Instance,
    MatchingInstance,
    apply_rent_shift,
    fixture,
    zero_disagreement,
)
from welfareshare.rivals import (
    IncompatibleOptionsError,
    compute_disagreement,
    ef_maxmin,
    ks_bargaining,
    mechanism_report,
    nash_bargaining,
    nucleolus_ws,
    run_mechanism,
    shapley,
)
from welfareshare.welfare import SetFunctionOracle, dual, is_submodular, wmax


def F(x):
    return Fraction(x)


def square(values):
    n = len(values)
    return MatchingInstance(
        tuple(f"i{j}" for j in range(len(values[0]))),
        tuple(tuple(Fraction(v) for v in row) for row in values),
        tuple(f"a{i}" for i in range(n)),
        Fraction(0),
    )


def nash_fixture():
    """Two agents with alternatives worth (24,0) and (0,4)."""
    return Instance(
        ("A", "B"),
        ((F(24), F(0)), (F(0), F(4))),
        ("x", "y"),
    )


def shapley_by_permutations(o: SetFunctionOracle):
    """Order-enumeration Shapley; cross-check path for small n."""
    n = o.n_agents
    totals = [Fraction(0)] * n
    count = 0
    for order in permutations(range(n)):
        mask = 0
        for i in order:
            before = o.wmax_mask(mask)
            mask |= 1 << i
            totals[i] += o.wmax_mask(mask) - before
        count += 1
    return tuple(t / count for t in totals)


class TestShapley:
    def test_ex3(self):
        sol = shapley(SetFunctionOracle(fixture("EX3")))
        assert sol.utilities == (F("7/6"), F("7/6"), F("5/3"))

    def test_two_sweep(self):
        for delta in (F("1/10"), F("1/2"), F(1)):
            o = SetFunctionOracle(fixture("TWO", delta=delta))
            assert shapley(o).utilities == (1 - delta, 0)

    def test_symmetric_split(self):
        m = square([(4, 0), (4, 0)])
        assert shapley(SetFunctionOracle(m)).utilities == (2, 2)

    def test_efficiency(self):
        rng = random.Random(501)
        for _ in range(10):
            m = random_matching(rng, rng.randint(2, 5))
            o = SetFunctionOracle(m)
            assert sum(shapley(o).utilities) == wmax(o, range(m.n_agents))

    def test_closed_form_matches_permutations(self):
        rng = random.Random(502)
        for _ in range(10):
            m = random_matching(rng, rng.randint(2, 5))
            o = SetFunctionOracle(m)
            assert shapley(o).utilities == tuple(shapley_by_permutations(o))

    def test_submodular_in_anticore(self):
        rng = random.Random(503)
        for _ in range(10):
            m = random_matching(rng, rng.randint(2, 5))
            o = SetFunctionOracle(m)
            assert check_anticore(o, shapley(o).utilities)


class TestEFMaxmin:
    def test_forced_transfers_one(self):
        sol = ef_maxmin(SetFunctionOracle(square([(6, 0, 0), (6, 0, 0), (0, 6, 6)])))
        assert sorted(sol.transfers) == [F(-4), F(2), F(2)]

    def test_forced_transfers_two(self):
        sol = ef_maxmin(SetFunctionOracle(square([(2, 1, 0), (2, 1, 0), (0, 1, 0)])))
        assert sorted(sol.transfers) == [F(-1), F(0), F(1)]

    def test_ex1_room3_subsidy_bound(self):
        delta = F("1/10")
        sol = ef_maxmin(SetFunctionOracle(fixture("EX1", delta=delta)))
        # student 3 keeps room 3; its transfer obeys the envy-freeness bound
        assert sol.transfers[2] >= (1 - 8 * delta) / 3

    def test_rent5_player5_profits(self):
        m = apply_rent_shift(fixture("RENT5", eps=F("1/10")))
        sol = ef_maxmin(SetFunctionOracle(m))
        assert sol.transfers[4] > 0

    def test_no_envy_and_budget_balance(self):
        rng = random.Random(504)
        for _ in range(10):
            m = random_matching(rng, rng.randint(2, 4))
            sol = ef_maxmin(SetFunctionOracle(m))
            assert sum(sol.transfers) == 0
            assignment = sol.alternative
            q = {assignment[i]: sol.transfers[i] for i in range(m.n_agents)}
            for i in range(m.n_agents):
                for j in range(m.n_items):
                    if j in q:
                        assert sol.utilities[i] >= m.values[i][j] + q[j]


class TestKS:
    def test_ks4(self):
        m = fixture("KS4")
        d = rp_exact(m)
        assert d.utilities == (6, 8, 6, 12)
        assert ks_bargaining(SetFunctionOracle(m), d).utilities == (7, 10, 7, 16)

    def test_two_formula(self):
        for delta in (F("1/10"), F("2/5"), F("7/10")):
            o = SetFunctionOracle(fixture("TWO", delta=delta))
            sol = ks_bargaining(o, zero_disagreement(2))
            assert sol.utilities == (
                (1 - delta) / (1 + delta),
                delta * (1 - delta) / (1 + delta),
            )

    def test_disagreement_on_frontier(self):
        o = SetFunctionOracle(square([(3, 0), (0, 2)]))
        d = DisagreementPoint((F(3), F(2)), "explicit")
        assert ks_bargaining(o, d).utilities == (3, 2)

    def test_reasonable_from_above(self):
        rng = random.Random(505)
        for _ in range(10):
            m = random_matching(rng, rng.randint(2, 4))
            o = SetFunctionOracle(m)
            sol = ks_bargaining(o, rp_exact(m))
            for i in range(m.n_agents):
                assert sol.utilities[i] <= wmax(o, (i,))

    def test_ks4_anticore_violation(self):
        m = fixture("KS4")
        o = SetFunctionOracle(m)
        sol = ks_bargaining(o, rp_exact(m))
        verdict = check_anticore(o, sol.utilities)
        assert not verdict
        assert verdict.violating_set == (0, 1)
        assert sol.utilities[0] + sol.utilities[1] == 17
        assert wmax(o, (0, 1)) == 16


class TestNash:
    def test_fixture(self):
        inst = nash_fixture()
        o = SetFunctionOracle(inst)
        d = compute_disagreement(inst, "uniform")
        assert d.utilities == (12, 2)
        assert nash_bargaining(o, d).utilities == (17, 7)

    def test_zero_surplus(self):
        o = SetFunctionOracle(square([(3, 0), (0, 2)]))
        d = DisagreementPoint((F(3), F(2)), "explicit")
        assert nash_bargaining(o, d).utilities == (3, 2)

    def test_ks4(self):
        m = fixture("KS4")
        o = SetFunctionOracle(m)
        assert nash_bargaining(o, rp_exact(m)).utilities == (8, 10, 8, 14)

    def test_not_reasonable_from_above(self):
        inst = nash_fixture()
        o = SetFunctionOracle(inst)
        sol = nash_bargaining(o, compute_disagreement(inst, "uniform"))
        assert sol.utilities[1] > wmax(o, (1,)) == 4


class TestNucleolus:
    def test_two_below_half(self):
        o = SetFunctionOracle(fixture("TWO", delta=F("2/5")))
        assert nucleolus_ws(o, zero_disagreement(2)).utilities == (F("2/5"), F("1/5"))

    def test_two_above_half(self):
        o = SetFunctionOracle(fixture("TWO", delta=F("3/5")))
        assert nucleolus_ws(o, zero_disagreement(2)).utilities == (F("1/5"), F("1/5"))

    def test_single_agent(self):
        m = square([(7,)])
        o = SetFunctionOracle(m)
        assert nucleolus_ws(o, zero_disagreement(1)).utilities == (7,)

    def test_in_ws_core(self):
        rng = random.Random(506)
        for _ in range(8):
            n = rng.randint(2, 4)
            m = random_matching(rng, n)
            o = SetFunctionOracle(m)
            d = rp_exact(m)
            sol = nucleolus_ws(o, d)
            u = sol.utilities
            assert sum(u) == wmax(o, range(n))
            # all excesses against g(S) = max(D(S), sum d_i) are nonnegative
            for mask in range(1, 1 << n):
                if mask == (1 << n) - 1:
                    continue
                agents = [i for i in range(n) if mask & (1 << i)]
                g = max(dual(o, agents), d.total(agents))
                assert sum(u[i] for i in agents) >= g

    def test_empty_exactly_when_the_core_lp_says(self):
        # no guard LP: the nucleolus is outside the WS-core exactly when the
        # core is empty, and `ws_core_nonempty` is the reference verdict
        rng = random.Random(507)
        verdicts, kinds = [], set()
        for _ in range(150):
            n = rng.choice([1, 2, 3, 3, 4, 4, 5])
            lo, hi = rng.choice([(-3, 3), (-10, 10)])
            if rng.random() < 0.5:
                inst = random_general(rng, n, rng.randint(1, 4), lo, hi)
                kinds.add(bool(is_submodular(SetFunctionOracle(inst))))
            else:
                inst = random_matching(rng, n, lo, hi)
            o = SetFunctionOracle(inst)
            d = DisagreementPoint(
                tuple(rng.choice([o.wmax_mask(1 << i), F(rng.randint(lo, hi))]) for i in range(n)),
                "explicit",
            )
            verdict = ws_core_nonempty(o, d)
            verdicts.append(bool(verdict))
            if verdict:
                u = nucleolus_ws(o, d).utilities
                assert check_domination(u, d) and check_anticore(o, u)
            else:
                with pytest.raises(EmptyCoreError, match="^WS-core is empty$"):
                    nucleolus_ws(o, d)
        assert kinds == {False, True}
        assert 30 <= verdicts.count(False) <= len(verdicts) - 30


class TestDispatch:
    def test_rp_requires_square_matching(self):
        with pytest.raises(IncompatibleOptionsError):
            compute_disagreement(fixture("EX2"), "rp")

    def test_unknown_mode(self):
        with pytest.raises(IncompatibleOptionsError):
            compute_disagreement(fixture("EX2"), "bogus")

    def test_unknown_mechanism(self):
        inst = fixture("EX2")
        with pytest.raises(IncompatibleOptionsError):
            run_mechanism("bogus", SetFunctionOracle(inst), zero_disagreement(6))

    def test_ef_requires_matching(self):
        with pytest.raises(IncompatibleOptionsError):
            run_mechanism("ef-maxmin", SetFunctionOracle(fixture("EX2")), zero_disagreement(6))

    @pytest.mark.parametrize("inst", [fixture("EX2"), fixture("EX5")])
    def test_ef_maxmin_checks_its_instance(self, inst):
        # a general instance, then a rectangular matching (3 agents, 4 items)
        with pytest.raises(IncompatibleOptionsError, match="square matching") as info:
            ef_maxmin(SetFunctionOracle(inst))
        assert isinstance(info.value, ValueError)

    def test_report_flags_ex3_shapley(self):
        inst = fixture("EX3")
        d = compute_disagreement(inst, "uniform")
        rep = mechanism_report(SetFunctionOracle(inst), "shapley", d)
        assert rep.flags["in_anticore"] is False

    def test_lexmax_report_all_green_on_matching(self):
        rng = random.Random(507)
        m = random_matching(rng, 3)
        d = rp_exact(m)
        rep = mechanism_report(SetFunctionOracle(m), "lexmax", d)
        assert all(rep.flags.values())
