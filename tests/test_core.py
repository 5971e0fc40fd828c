"""Exact simplex, WS-core feasibility, and constraint verdicts."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_general, random_matching, sufficient_conditions

from welfareshare.core import (
    EQ,
    GE,
    LE,
    LinearProgram,
    check_anticore,
    check_domination,
    lexicographic_maxmin,
    simplex_solve,
    ws_core_nonempty,
)
from welfareshare.disagreement import rp_exact, uniform
from welfareshare.model import (
    DisagreementPoint,
    Instance,
    MatchingInstance,
    fixture,
    zero_disagreement,
)
from welfareshare.welfare import SetFunctionOracle, dual, wmax


def F(x):
    return Fraction(x)


class TestSimplex:
    def test_single_bound(self):
        lp = LinearProgram(
            n_vars=1,
            objective=[F(1)],
            constraints=[([F(1)], LE, F(5))],
            maximize=True,
            nonneg=True,
        )
        res = simplex_solve(lp)
        assert res.status == "optimal"
        assert res.value == 5
        assert res.point == (5,)

    def test_infeasible(self):
        lp = LinearProgram(
            n_vars=2,
            objective=[F(1), F(1)],
            constraints=[
                ([F(1), F(0)], LE, F(1)),
                ([F(0), F(1)], LE, F(1)),
                ([F(1), F(1)], EQ, F(3)),
            ],
            maximize=True,
            nonneg=True,
        )
        assert simplex_solve(lp).status == "infeasible"

    def test_unbounded(self):
        lp = LinearProgram(
            n_vars=1,
            objective=[F(1)],
            constraints=[([F(1)], GE, F(0))],
            maximize=True,
            nonneg=True,
        )
        assert simplex_solve(lp).status == "unbounded"

    def test_free_variables(self):
        # max -x with x free and x >= -3
        lp = LinearProgram(
            n_vars=1,
            objective=[F(-1)],
            constraints=[([F(1)], GE, F(-3))],
            maximize=True,
            nonneg=False,
        )
        res = simplex_solve(lp)
        assert res.status == "optimal"
        assert res.point == (-3,)

    def test_core_feasibility_lp_value(self):
        # max sum x subject to x(S) <= W_max(S) - W_pi(S), x >= 0: its optimum
        # equals f(N) exactly when the WS-core is nonempty.
        o = SetFunctionOracle(fixture("TWO", delta=F("1/5")))
        d = zero_disagreement(2)
        n = 2
        rows = []
        for mask in range(1, 1 << n):
            coeffs = [F(1) if mask & (1 << i) else F(0) for i in range(n)]
            agents = [i for i in range(n) if mask & (1 << i)]
            rows.append((coeffs, LE, wmax(o, agents) - d.total(agents)))
        lp = LinearProgram(
            n_vars=n,
            objective=[F(1)] * n,
            constraints=rows,
            maximize=True,
            nonneg=True,
        )
        res = simplex_solve(lp)
        assert res.status == "optimal"
        assert res.value == F("4/5")

    def test_lexicographic_maxmin_basic(self):
        # two vars summing to 1, first capped at 1/4: lexmax is (1/4, 3/4)
        rows = [
            ([F(1), F(1)], EQ, F(1)),
            ([F(1), F(0)], LE, F("1/4")),
            ([F(1), F(0)], GE, F(0)),
            ([F(0), F(1)], GE, F(0)),
        ]
        exprs = [([F(1), F(0)], F(0)), ([F(0), F(1)], F(0))]
        levels, point = lexicographic_maxmin(2, rows, exprs)
        assert levels == [F("1/4"), F("3/4")]
        assert point == (F("1/4"), F("3/4"))


def ex1_ef_paper_utilities(delta):
    """EX1 with the minimal envy-free transfer vector (-2/3+2d, 1/3-d, 1/3-d)
    applied to the identity assignment."""
    m = fixture("EX1", delta=delta)
    p = (F(-2) / 3 + 2 * delta, F(1) / 3 - delta, F(1) / 3 - delta)
    return tuple(m.values[i][i] + p[i] for i in range(3)), p


def first_anticore_violation_reference(o, u):
    """(set, slack) of the first S with u(S) > W_max(S), smallest first and
    then lexicographic, by a sum over each listed combination; else None."""
    n = o.n_agents
    for size in range(1, n + 1):
        for S in itertools.combinations(range(n), size):
            slack = wmax(o, S) - sum((u[i] for i in S), Fraction(0))
            if slack < 0:
                return S, slack
    return None


class TestAnticore:
    def test_first_violation_equals_reference(self):
        rng = random.Random(141)
        cases = []
        # u_i = W_max({i}) less a random margin, negative now and then
        for k in range(120):
            n = rng.randint(1, 6)
            if k % 2:
                inst = random_matching(rng, n, n_items=n + k % 3)
            else:
                inst = random_general(rng, n, rng.randint(1, 5))
            o = SetFunctionOracle(inst)
            lo, width = rng.choice((-1, 0)), rng.choice((1, 4, 10))
            margins = [F(rng.randint(lo, width)) / 2 for _ in range(n)]
            cases.append((o, [o.wmax_mask(1 << i) - margins[i] for i in range(n)]))
        # W_max(S) = 1 for every S, as one agent takes the one valued item or
        # alternative: u_i just under 1/(s - 1) first violates at size s
        for k in range(40):
            size = rng.randint(1, 5)
            n = rng.randint(size, 6)
            if k % 2:
                inst = MatchingInstance(tuple(range(n)), [[1] + [0] * (n - 1)] * n)
            else:
                values = [[int(i == a) for a in range(n)] for i in range(n)]
                inst = Instance(tuple(range(n)), values)
            share = F(2) if size == 1 else F(1) / (size - 1)
            cases.append(
                (SetFunctionOracle(inst), [share - F(rng.randint(0, 1)) / 100 for _ in range(n)])
            )
        sizes = set()
        for o, u in cases:
            expected = first_anticore_violation_reference(o, u)
            verdict = check_anticore(o, u)
            if expected is None:
                assert verdict.ok and verdict.violating_set is None
            else:
                assert not verdict.ok
                assert (verdict.violating_set, verdict.slack) == expected
            sizes.add(0 if expected is None else len(expected[0]))
        assert sizes == {0, 1, 2, 3, 4, 5}, sizes

    def test_ex1_ef_violates_singleton(self):
        delta = F("1/10")
        u, _ = ex1_ef_paper_utilities(delta)
        o = SetFunctionOracle(fixture("EX1", delta=delta))
        verdict = check_anticore(o, u)
        assert not verdict
        assert verdict.violating_set == (2,)
        assert verdict.slack < 0

    def test_zeros_pass_on_nonnegative_instance(self):
        o = SetFunctionOracle(fixture("EX3"))
        assert check_anticore(o, (F(0), F(0), F(0)))

    def test_ex3_shapley_pair_violation(self):
        o = SetFunctionOracle(fixture("EX3"))
        verdict = check_anticore(o, (F("7/6"), F("7/6"), F("5/3")))
        assert not verdict
        assert verdict.violating_set == (0, 1)
        assert verdict.slack == F("-1/3")


class TestDomination:
    def test_equal_is_ok(self):
        d = DisagreementPoint((F(1), F(2)), "explicit")
        assert check_domination((F(1), F(2)), d)

    def test_two_shapley_dominates_zero(self):
        d = zero_disagreement(2)
        assert check_domination((F("4/5"), F(0)), d)

    def test_ex1_ef_fails_against_rp(self):
        delta = F("1/10")
        u, _ = ex1_ef_paper_utilities(delta)
        d = rp_exact(fixture("EX1", delta=delta))
        verdict = check_domination(u, d)
        assert not verdict
        assert verdict.agent in (0, 1)
        assert verdict.gap > 0


class TestWSCore:
    def test_empty_core_fixture(self):
        inst = fixture("EMPTY_CORE")
        o = SetFunctionOracle(inst)
        d = DisagreementPoint(tuple(r[0] for r in inst.values), "explicit")
        verdict = ws_core_nonempty(o, d)
        assert not verdict
        assert verdict.gap is not None and verdict.gap > 0

    def test_matching_with_rp_always_nonempty(self):
        rng = random.Random(301)
        for _ in range(15):
            m = random_matching(rng, rng.randint(2, 5))
            o = SetFunctionOracle(m)
            verdict = ws_core_nonempty(o, rp_exact(m))
            assert verdict

    def test_wf_fail_unique_witness(self):
        inst = fixture("WF_FAIL")
        o = SetFunctionOracle(inst)
        d = DisagreementPoint(tuple(r[0] for r in inst.values), "explicit")
        verdict = ws_core_nonempty(o, d)
        assert verdict
        assert verdict.witness == (0, 1, 1)

    def test_witness_passes_checks(self):
        rng = random.Random(302)
        for _ in range(15):
            n = rng.randint(2, 5)
            inst = random_general(rng, n, rng.randint(2, 5))
            o = SetFunctionOracle(inst)
            d = uniform(inst)
            verdict = ws_core_nonempty(o, d)
            if verdict:
                assert check_anticore(o, verdict.witness)
                assert check_domination(verdict.witness, d)
                assert sum(verdict.witness) == wmax(o, range(n))

    def test_agrees_with_float_lp(self):
        # independent feasibility oracle via scipy on the same polytope
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = random.Random(303)
        for _ in range(20):
            n = rng.randint(2, 4)
            inst = random_general(rng, n, rng.randint(2, 4))
            o = SetFunctionOracle(inst)
            d = uniform(inst)
            verdict = ws_core_nonempty(o, d)
            a_ub, b_ub = [], []
            for mask in range(1, 1 << n):
                if mask == (1 << n) - 1:
                    continue
                agents = [i for i in range(n) if mask & (1 << i)]
                a_ub.append([1.0 if i in agents else 0.0 for i in range(n)])
                b_ub.append(float(wmax(o, agents)))
            res = linprog(
                [0.0] * n,
                A_ub=a_ub,
                b_ub=b_ub,
                A_eq=[[1.0] * n],
                b_eq=[float(wmax(o, range(n)))],
                bounds=[(float(d[i]), None) for i in range(n)],
            )
            assert bool(verdict) == res.success


class TestSufficientConditions:
    def test_matching_reports_submodular(self):
        rng = random.Random(304)
        m = random_matching(rng, 3)
        assert sufficient_conditions(SetFunctionOracle(m), rp_exact(m)) == "submodular"

    def test_empty_core_neither(self):
        inst = fixture("EMPTY_CORE")
        d = DisagreementPoint(tuple(r[0] for r in inst.values), "explicit")
        assert sufficient_conditions(SetFunctionOracle(inst), d) == "neither"

    def test_nonnegative_zero_disagreement_monotone(self):
        rng = random.Random(305)
        for _ in range(10):
            n = rng.randint(2, 4)
            inst = random_general(rng, n, 3, lo=0, hi=10)
            got = sufficient_conditions(SetFunctionOracle(inst), zero_disagreement(n))
            assert got in ("submodular", "monotone_gap")


class TestDuality:
    def test_dual_vs_anticore_restriction(self):
        # D(S) lower-bounds what S must keep in any full-welfare anticore point
        rng = random.Random(306)
        for _ in range(10):
            m = random_matching(rng, 3)
            o = SetFunctionOracle(m)
            d = rp_exact(m)
            verdict = ws_core_nonempty(o, d)
            assert verdict
            u = verdict.witness
            for mask in range(1, 1 << 3):
                agents = [i for i in range(3) if mask & (1 << i)]
                assert sum(u[i] for i in agents) >= dual(o, agents)
