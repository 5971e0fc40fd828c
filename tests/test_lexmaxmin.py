"""The lexicographic max-min loop against its probe-every-expression reference.

`reference_lexicographic_maxmin` is the loop as it stood before binding
rows, probe points and the span rule: each round probes every tight
expression with its own LP.  The library loop must give the same levels
and the same point, with no more LPs, for every library caller.
"""

import random
from fractions import Fraction

import pytest

from conftest import random_general, random_matching

from welfareshare import core, egalitarian, rivals
from welfareshare.core import (
    EQ,
    GE,
    LE,
    EmptyCoreError,
    InfeasibleError,
    LinearProgram,
    simplex_solve,
)
from welfareshare.disagreement import rp_exact, uniform
from welfareshare.egalitarian import lexmax_lp
from welfareshare.model import DisagreementPoint
from welfareshare.rivals import ef_maxmin, nucleolus_ws
from welfareshare.welfare import SetFunctionOracle


def F(x):
    return Fraction(x)


def reference_lexicographic_maxmin(n_vars, constraints, exprs):
    """Probe every expression tight at the round's point; then one LP for
    a point on the fixed rows."""
    constraints = [
        ([Fraction(v) for v in row], rel, Fraction(rhs)) for row, rel, rhs in constraints
    ]
    exprs = [([Fraction(c) for c in row], Fraction(const)) for row, const in exprs]
    unfixed = set(range(len(exprs)))
    fixed_rows: list = []
    levels: dict = {}

    def with_t(rows):
        return [(list(r) + [Fraction(0)], rel, rhs) for r, rel, rhs in rows]

    while unfixed:
        rows = with_t(constraints + fixed_rows)
        for k in unfixed:
            coeffs, const = exprs[k]
            rows.append((list(coeffs) + [Fraction(-1)], GE, -const))
        objective = [Fraction(0)] * n_vars + [Fraction(1)]
        res = core.simplex_solve(LinearProgram(n_vars + 1, objective, rows, maximize=True))
        if res.status == "infeasible":
            raise InfeasibleError("lexicographic program infeasible")
        if res.status == "unbounded":
            raise InfeasibleError("lexicographic program unbounded")
        t_star = res.value
        point = res.point[:n_vars]
        floor_rows = [
            (coeffs, GE, t_star - const) for coeffs, const in (exprs[k] for k in unfixed)
        ]
        newly = []
        for k in sorted(unfixed):
            if core._expr_value(exprs[k], point) != t_star:
                continue
            coeffs, const = exprs[k]
            probe = core.simplex_solve(
                LinearProgram(n_vars, coeffs, constraints + fixed_rows + floor_rows)
            )
            if probe.status == "optimal" and probe.value + const == t_star:
                newly.append(k)
        if not newly:
            raise AssertionError("lexicographic max-min made no progress")
        for k in newly:
            coeffs, const = exprs[k]
            fixed_rows.append((coeffs, EQ, t_star - const))
            levels[k] = t_star
            unfixed.discard(k)

    final = core.simplex_solve(
        LinearProgram(n_vars, [Fraction(0)] * n_vars, constraints + fixed_rows)
    )
    if final.status != "optimal":
        raise InfeasibleError("lexicographic program infeasible")
    return [levels[k] for k in range(len(exprs))], final.point


class Recorder:
    """Wraps `core.lexicographic_maxmin` (or the reference) and keeps every
    call's result and the LPs it solved."""

    def __init__(self, monkeypatch, loop):
        self.results = []
        self.lps = 0
        solve = core.simplex_solve

        def counting_solve(lp):
            self.lps += 1
            return solve(lp)

        def recorded(*args):
            out = loop(*args)
            self.results.append(out)
            return out

        monkeypatch.setattr(core, "simplex_solve", counting_solve)
        for module in (rivals, egalitarian):
            monkeypatch.setattr(module, "lexicographic_maxmin", recorded)


def run_both(monkeypatch, mechanism, *args):
    """Run a mechanism on the library loop and on the reference; return the
    two (outcome, loop results, LP count) triples.  An EmptyCoreError is an
    outcome too."""
    runs = []
    for loop in (core.lexicographic_maxmin, reference_lexicographic_maxmin):
        with monkeypatch.context() as patch:
            rec = Recorder(patch, loop)
            try:
                outcome = mechanism(*args)
            except EmptyCoreError:
                outcome = EmptyCoreError
            runs.append((outcome, rec.results, rec.lps))
    return runs


def assert_same(monkeypatch, mechanism, *args):
    (new, new_loops, new_lps), (ref, ref_loops, ref_lps) = run_both(
        monkeypatch, mechanism, *args
    )
    assert new == ref
    assert new_loops == ref_loops  # levels and point, exact
    return new_lps, ref_lps


def matching_cases(seed, count, n_max):
    """Square matchings with ties (small ranges, all-equal rows) and
    negative values, n from 2 to n_max."""
    rng = random.Random(seed)
    for c in range(count):
        n = rng.randint(2, n_max)
        if c % 3 == 0:
            yield random_matching(rng, n, lo=-2, hi=2)
        elif c % 3 == 1:
            yield random_matching(rng, n, lo=-10, hi=10)
        else:
            yield random_matching(rng, n, lo=3, hi=3)


class TestSameAsReference:
    def test_matchings(self, monkeypatch):
        for m in matching_cases(7001, 24, 5):
            o = SetFunctionOracle(m)
            d = rp_exact(m)
            for mechanism, args in (
                (nucleolus_ws, (o, d)),
                (lexmax_lp, (o, d)),
                (ef_maxmin, (o,)),
            ):
                new_lps, ref_lps = assert_same(monkeypatch, mechanism, *args)
                assert new_lps <= ref_lps

    def test_matchings_n6(self, monkeypatch):
        rng = random.Random(7002)
        for lo, hi in ((-10, 10), (-2, 2)):
            m = random_matching(rng, 6, lo=lo, hi=hi)
            o = SetFunctionOracle(m)
            d = rp_exact(m)
            assert_same(monkeypatch, nucleolus_ws, o, d)
            assert_same(monkeypatch, lexmax_lp, o, d)
            assert_same(monkeypatch, ef_maxmin, o)

    def test_general_instances(self, monkeypatch):
        rng = random.Random(7003)
        empty = 0
        for c in range(30):
            n = rng.randint(1, 5)
            inst = random_general(rng, n, rng.randint(1, 4), lo=-3 if c % 2 else -10,
                                  hi=3 if c % 2 else 10)
            o = SetFunctionOracle(inst)
            d = uniform(inst) if c % 3 else DisagreementPoint((F(0),) * n, "explicit")
            for mechanism in (nucleolus_ws, lexmax_lp):
                (new, new_loops, _), (ref, ref_loops, _) = run_both(
                    monkeypatch, mechanism, o, d
                )
                assert new == ref
                assert new_loops == ref_loops
                empty += new is EmptyCoreError
        assert empty > 0  # the draw covers empty cores on both paths

    def test_direct_call_without_expressions(self):
        rows = [([F(1), F(1)], EQ, F(2)), ([F(1), F(0)], GE, F(0)), ([F(0), F(1)], GE, F(0))]
        assert core.lexicographic_maxmin(2, rows, []) == reference_lexicographic_maxmin(
            2, rows, []
        )

    def test_no_expressions_infeasible(self):
        # with no expressions the one LP over the constraints still decides
        rows = [([F(1)], GE, F(1)), ([F(1)], LE, F(0))]
        for loop in (core.lexicographic_maxmin, reference_lexicographic_maxmin):
            with pytest.raises(InfeasibleError):
                loop(1, rows, [])

    def test_last_expression_fixed_by_span_after_round(self, monkeypatch):
        # x + y = 3, x <= 1; expressions x and x + y.  The one round fixes x
        # at 1 and leaves x + y at 3 above t* = 1, where the equality row
        # spans it, so the round's point (1, 2) is returned with no more LPs.
        rows = [([F(1), F(1)], EQ, F(3)), ([F(1), F(0)], LE, F(1))]
        exprs = [([F(1), F(0)], F(0)), ([F(1), F(1)], F(0))]
        expected = reference_lexicographic_maxmin(2, rows, exprs)
        assert expected == ([F(1), F(3)], (F(1), F(2)))
        with monkeypatch.context() as patch:
            rec = Recorder(patch, core.lexicographic_maxmin)
            assert core.lexicographic_maxmin(2, rows, exprs) == expected
        assert rec.lps == 1

    def test_tight_expression_fixed_by_span_in_round(self, monkeypatch):
        # x, y <= 1; expressions x, y and x + y - 1 all reach t* = 1 at (1, 1).
        # The floor row of x + y - 1 binds; a probe finds x stuck; then y lies
        # in the span of the two rows and is fixed in the same round without
        # a probe: one round LP and one probe.
        rows = [([F(1), F(0)], LE, F(1)), ([F(0), F(1)], LE, F(1))]
        exprs = [([F(1), F(0)], F(0)), ([F(0), F(1)], F(0)), ([F(1), F(1)], F(-1))]
        expected = reference_lexicographic_maxmin(2, rows, exprs)
        assert expected == ([F(1)] * 3, (F(1), F(1)))
        with monkeypatch.context() as patch:
            rec = Recorder(patch, core.lexicographic_maxmin)
            assert core.lexicographic_maxmin(2, rows, exprs) == expected
        assert rec.lps == 2


class TestLPCount:
    def test_nucleolus_n6(self, monkeypatch):
        # the reference took 87-127 LPs on each of these five matchings;
        # fewer than 30 is the target of Maschler, Peleg & Shapley (1979)
        rng = random.Random(7004)
        counts = []
        for _ in range(5):
            m = random_matching(rng, 6)
            o = SetFunctionOracle(m)
            d = rp_exact(m)
            with monkeypatch.context() as patch:
                rec = Recorder(patch, core.lexicographic_maxmin)
                nucleolus_ws(o, d)
            counts.append(rec.lps)
        assert max(counts) < 30

    def test_never_more_than_reference(self, monkeypatch):
        for m in matching_cases(7005, 12, 6):
            o = SetFunctionOracle(m)
            d = rp_exact(m)
            for mechanism, args in (
                (nucleolus_ws, (o, d)),
                (lexmax_lp, (o, d)),
                (ef_maxmin, (o,)),
            ):
                new_lps, ref_lps = assert_same(monkeypatch, mechanism, *args)
                assert new_lps <= ref_lps


class TestBinding:
    def test_strict_row_listed_degenerate_row_not(self):
        # max x + y over x + y <= 4 (row 0), x <= 3 (row 1), x, y >= 0.
        # Every point of the edge x + y = 4 with x <= 3 is optimal.  Bland's
        # rule stops at (3, 1), where both rows are tight, but only row 0
        # binds at every optimum: its slack has reduced cost 1, row 1's has 0.
        lp = LinearProgram(
            2,
            [F(1), F(1)],
            [([F(1), F(1)], LE, F(4)), ([F(1), F(0)], LE, F(3))],
            nonneg=True,
        )
        res = simplex_solve(lp)
        assert res.value == 4
        assert res.point == (F(3), F(1))
        assert res.binding == (0,)

    def test_surplus_row_listed_when_minimizing(self):
        # min x + y  s.t.  x >= 2 (row 0), y >= 0 (row 1), x + y <= 9 (row 2)
        lp = LinearProgram(
            2,
            [F(1), F(1)],
            [([F(1), F(0)], GE, F(2)), ([F(0), F(1)], GE, F(0)), ([F(1), F(1)], LE, F(9))],
            maximize=False,
        )
        res = simplex_solve(lp)
        assert res.point == (F(2), F(0))
        assert res.binding == (0, 1)

    def test_equality_rows_are_never_listed(self):
        lp = LinearProgram(1, [F(1)], [([F(1)], EQ, F(2)), ([F(1)], LE, F(5))])
        res = simplex_solve(lp)
        assert res.point == (F(2),)
        assert res.binding == ()
