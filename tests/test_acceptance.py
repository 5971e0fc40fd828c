"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single PASS line on
success (run with ``pytest -v`` to see one verdict line per criterion).
All exact checks compare Fractions bit-for-bit; randomized suites are
seeded and deterministic.
"""

import dataclasses
import math
import random
from fractions import Fraction

from conftest import (
    planted_block_matching,
    random_general,
    random_matching,
    sample_ws_core_point,
    sufficient_conditions,
)
from welfareshare.core import check_anticore, check_domination, ws_core_nonempty
from welfareshare.decompose import check_weak_decomposability, find_components_matching
from welfareshare.disagreement import eating, rp_allocation, rp_exact, rp_montecarlo, uniform
from welfareshare.egalitarian import (
    lexmax_lp,
    lorenz_compare,
    sum_squares,
    water_filling,
)
from welfareshare.model import DisagreementPoint, Instance, fixture, zero_disagreement
from welfareshare.rivals import (
    check_strong_decomposability,
    ef_maxmin,
    ks_bargaining,
    nash_bargaining,
    nucleolus_ws,
    run_mechanism,
    shapley,
)
from welfareshare.welfare import SetFunctionOracle, is_submodular, wmax

F = Fraction


def gains(u, d):
    return tuple(x - y for x, y in zip(u, d.utilities))


def test_criterion_1_golden_examples_exact():
    # Three-agent general instance: closed-form Shapley value.
    assert shapley(SetFunctionOracle(fixture("EX3"))).utilities == (
        F("7/6"), F("7/6"), F("5/3"))

    # Six-agent matching: lexmax is the sum-squares minimizer at 22, beating
    # the tempting-but-infeasible more-unequal point whose sum of squares is 20.
    o2 = SetFunctionOracle(fixture("EX2"))
    sol2, trace2 = water_filling(o2, zero_disagreement(6))
    assert sol2.utilities == (1, 1, 1, 1, 3, 3)
    assert trace2.exhausted
    assert sum_squares(sol2.utilities) == 22
    assert sum_squares((F(0),) + (F(2),) * 5) == 20

    # Non-submodular instance where water filling stalls but the LP finishes.
    o_wf = SetFunctionOracle(fixture("WF_FAIL"))
    d_wf = zero_disagreement(3)
    sol_wf, trace_wf = water_filling(o_wf, d_wf)
    assert sol_wf is None
    assert not trace_wf.exhausted
    assert trace_wf.final_utilities == (F("1/2"), F("1/2"), F("1/2"))
    assert lexmax_lp(o_wf, d_wf).utilities == (0, 1, 1)

    # Instance whose welfare-sharing core is empty.
    assert not ws_core_nonempty(
        SetFunctionOracle(fixture("EMPTY_CORE")), zero_disagreement(3))

    # Submodularity counterexample with an explicit witness pair: the two
    # sets' values sum to 8, strictly below the union/intersection sum of 9.
    o4 = SetFunctionOracle(fixture("EX4"))
    verdict = is_submodular(o4)
    assert not verdict
    S, T = verdict.witness
    union = tuple(sorted(set(S) | set(T)))
    inter = tuple(sorted(set(S) & set(T)))
    assert wmax(o4, S) + wmax(o4, T) == 8
    assert wmax(o4, union) + wmax(o4, inter) == 9

    # Rectangular matching restricted to its square sub-instance:
    # random-priority disagreement, then lexmax with unequal gains base.
    ex5 = fixture("EX5").restrict((0, 1, 2), (0, 1, 2))
    d5 = rp_exact(ex5)
    assert d5.utilities == (8, 7, 14)
    sol5, trace5 = water_filling(SetFunctionOracle(ex5), d5)
    assert trace5.exhausted
    assert sol5.utilities == (F("19/2"), F("17/2"), F(18))

    # Four-agent Kalai-Smorodinsky from the random-priority disagreement.
    ks4 = fixture("KS4")
    d_ks = rp_exact(ks4)
    assert d_ks.utilities == (6, 8, 6, 12)
    assert ks_bargaining(SetFunctionOracle(ks4), d_ks).utilities == (7, 10, 7, 16)

    # Two-agent Nash bargaining splits the surplus over d = (12, 2).
    nash_inst = Instance(("A", "B"), ((F(24), F(0)), (F(0), F(4))), ("x", "y"))
    d_n = uniform(nash_inst)
    assert d_n.utilities == (12, 2)
    assert nash_bargaining(SetFunctionOracle(nash_inst), d_n).utilities == (17, 7)

    # Five-agent sensitivity pair: one row change moves the lexmax solution
    # from (2,4,4,4,16) to (3,3,3,3,18).
    d_lip = DisagreementPoint((F(1),) * 5, "explicit")
    assert lexmax_lp(
        SetFunctionOracle(fixture("LIP", n=5)), d_lip
    ).utilities == (2, 4, 4, 4, 16)
    assert lexmax_lp(
        SetFunctionOracle(fixture("LIP", n=5, variant=True)), d_lip
    ).utilities == (3, 3, 3, 3, 18)

    # Envy-free max-min transfer vectors on two small room-assignment cases.
    sol_a = ef_maxmin(SetFunctionOracle(_square([(6, 0, 0), (6, 0, 0), (0, 6, 6)])))
    assert sorted(sol_a.transfers) == [F(-4), F(2), F(2)]
    sol_b = ef_maxmin(SetFunctionOracle(_square([(2, 1, 0), (2, 1, 0), (0, 1, 0)])))
    assert sorted(sol_b.transfers) == [F(-1), F(0), F(1)]

    print("PASS criterion 1: golden example suite (exact)")


def _square(values):
    n = len(values)
    return dataclasses.replace(
        random_matching(random.Random(0), n),
        values=tuple(tuple(F(v) for v in row) for row in values),
    )


def test_criterion_2_two_agent_closed_form_sweep():
    for delta in (F("1/10"), F("1/5"), F("3/10"), F("2/5"), F("1/2"), F("7/10")):
        inst = fixture("TWO", delta=delta)
        o = SetFunctionOracle(inst)
        d = rp_exact(inst)
        assert d.utilities == (0, 0)

        assert ef_maxmin(SetFunctionOracle(inst)).utilities == ((1 - delta) / 2, (1 - delta) / 2)
        assert shapley(o).utilities == (1 - delta, 0)
        assert ks_bargaining(o, d).utilities == (
            (1 - delta) / (1 + delta), delta * (1 - delta) / (1 + delta))

        if delta <= F(1, 3):
            expected_lexmax = (1 - 2 * delta, delta)
        else:
            expected_lexmax = ((1 - delta) / 2, (1 - delta) / 2)
        assert lexmax_lp(o, d).utilities == expected_lexmax
        sol_wf, trace = water_filling(o, d)
        assert trace.exhausted and sol_wf.utilities == expected_lexmax

        if delta < F(1, 2):
            expected_nuc = (1 - 3 * delta / 2, delta / 2)
        else:
            expected_nuc = ((1 - delta) / 2, (1 - delta) / 2)
        assert nucleolus_ws(o, d).utilities == expected_nuc

    print("PASS criterion 2: two-agent closed-form sweep (exact)")


def test_criterion_3_nonemptiness_sufficient_conditions():
    rng = random.Random(30)
    checked_nonempty = 0
    for k in range(1000):
        n = rng.randint(2, 6)
        if k % 2 == 0:
            inst = random_matching(rng, n)
            d = rp_exact(inst)
        else:
            inst = random_general(rng, n, rng.randint(2, 6))
            d = uniform(inst)
        o = SetFunctionOracle(inst)

        verdict = ws_core_nonempty(o, d)
        if sufficient_conditions(o, d) != "neither":
            assert verdict
        if verdict:
            u = verdict.witness
            assert check_anticore(o, u)
            assert check_domination(u, d)
            assert sum(u) == wmax(o, range(n))
            checked_nonempty += 1
    assert checked_nonempty >= 500
    print("PASS criterion 3: nonemptiness property suite (1000 instances)")


def test_criterion_4_lexmax_properties_submodular():
    rng = random.Random(40)
    for _ in range(500):
        n = rng.choice([2, 3, 3, 4, 4, 5, 6])
        m = random_matching(rng, n, distinct=True)
        o = SetFunctionOracle(m)
        d = rp_exact(m)

        sol, trace = water_filling(o, d)
        assert trace.exhausted
        assert sol.utilities == lexmax_lp(o, d).utilities
        u = sol.utilities

        # Most egalitarian point of the core: Lorenz-dominates sampled core
        # points in gains space and minimizes the gains sum of squares.
        gu = gains(u, d)
        for _ in range(20):
            obj = tuple(F(rng.randint(-8, 8)) for _ in range(n))
            w = sample_ws_core_point(o, d, obj)
            gw = gains(w, d)
            assert lorenz_compare(gu, gw) in ("u_dominates", "equal")
            assert sum_squares(gu) <= sum_squares(gw)

        # The family of tight anticore sets forms a lattice.
        subset_sum = [F(0)] * (1 << n)
        tight = {0}
        for mask in range(1, 1 << n):
            low = mask & -mask
            subset_sum[mask] = subset_sum[mask ^ low] + u[low.bit_length() - 1]
            if subset_sum[mask] == o.wmax_mask(mask):
                tight.add(mask)
        for a in tight:
            for b in tight:
                assert (a | b) in tight and (a & b) in tight
    print("PASS criterion 4: lexmax property suite (500 instances)")


def test_criterion_5_decomposability():
    rng = random.Random(50)
    for _ in range(100):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
        while sum(sizes) > 8:
            sizes.pop()
        if len(sizes) < 2:
            sizes = [1, 1]
        inst, blocks = planted_block_matching(rng, sizes)
        part = find_components_matching(inst)
        assert set(part.blocks) == set(blocks)
        assert check_strong_decomposability("lexmax", inst, part, "rp")
        assert check_strong_decomposability("shapley", inst, part, "rp")

    ks4 = fixture("KS4")
    part4 = find_components_matching(ks4)
    assert part4.n_blocks == 2
    assert not check_strong_decomposability("ks", ks4, part4, "rp")

    ex1 = fixture("EX1", delta=F("1/10"))
    part1 = find_components_matching(ex1)
    sol_ef = ef_maxmin(SetFunctionOracle(ex1))
    assert not check_weak_decomposability(ex1, part1, sol_ef)
    assert sol_ef.transfers[2] > 0  # the singleton block is subsidized
    sol_lex = run_mechanism("lexmax", SetFunctionOracle(ex1), rp_exact(ex1))
    assert check_weak_decomposability(ex1, part1, sol_lex)
    print("PASS criterion 5: decomposability suite (100 instances)")


def test_criterion_6_lipschitz_sensitivity():
    rng = random.Random(60)
    for _ in range(200):
        n = rng.randint(2, 5)
        m = random_matching(rng, n, lo=0, hi=10)
        o = SetFunctionOracle(m)
        # Explicit disagreement consistent with a distribution over
        # alternatives (uniform over assignments = row means), held fixed.
        d = DisagreementPoint(tuple(sum(row) / F(n) for row in m.values), "explicit")
        assert ws_core_nonempty(o, d)
        sol, trace = water_filling(o, d)
        assert trace.exhausted

        # Zero-mean single-row perturbation of spread max(e) - min(e).
        row = rng.randrange(n)
        e = [F(rng.randint(-12, 12), 4) for _ in range(n)]
        mean = sum(e) / n
        e = [x - mean for x in e]
        spread = max(e) - min(e)
        values = [list(r) for r in m.values]
        values[row] = [v + x for v, x in zip(values[row], e)]
        m2 = dataclasses.replace(m, values=tuple(tuple(r) for r in values))

        o2 = SetFunctionOracle(m2)
        assert ws_core_nonempty(o2, d)
        sol2, trace2 = water_filling(o2, d)
        assert trace2.exhausted
        for a, b in zip(sol.utilities, sol2.utilities):
            assert abs(a - b) <= spread
    print("PASS criterion 6: Lipschitz sensitivity (200 instances, exact)")


def test_criterion_7_disagreement_mechanisms():
    rng = random.Random(70)
    samples = 100000
    for k in range(50):
        n = rng.randint(2, 5)
        m = random_matching(rng, n, distinct=True)
        exact = rp_exact(m)
        mc = rp_montecarlo(m, samples=samples, seed=k)
        for i in range(n):
            spread = max(m.values[i]) - min(m.values[i])
            bound = 3 * float(spread) / (2 * math.sqrt(samples))
            assert abs(float(mc.utilities[i] - exact.utilities[i])) <= bound

        sched, _ = eating(m)
        for i in range(n):
            assert sum(sched.allocation[i]) == 1
        for j in range(n):
            assert sum(sched.allocation[i][j] for i in range(n)) == 1

    disc = fixture("RPDISC", eps=F(1, 1000))
    P, _ = rp_allocation(disc)
    assert P[2][0] == F(1, 3)
    sched, _ = eating(disc)
    assert sched.allocation[2][0] == F(1, 3)
    print("PASS criterion 7: disagreement mechanisms (50 instances + exact checks)")


def test_criterion_8_no_out_of_scope_claims():
    # Every quantitative claim in scope is a small worked example covered by
    # criteria 1-7; hardness and asymptotic-complexity results are theoretical
    # and have no desk-scale reproduction, so nothing remains unverified.
    print("PASS criterion 8: no desk-scale results out of reach")
