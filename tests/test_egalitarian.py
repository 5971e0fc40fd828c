"""Water filling, lexicographic maximization, and egalitarian diagnostics."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import random_matching

import welfareshare
from welfareshare.core import EmptyCoreError, check_anticore, check_domination
from welfareshare.disagreement import rp_exact, uniform
from welfareshare.egalitarian import (
    lexmax_lp,
    lorenz_compare,
    min_square_diag,
    reconstruct_from_trace,
    sample_ws_core_point,
    solve_lexmax,
    sum_squares,
    water_filling,
)
from welfareshare.model import DisagreementPoint, fixture, zero_disagreement
from welfareshare.welfare import SetFunctionOracle, wmax


def F(x):
    return Fraction(x)


def wf_fail_setup():
    inst = fixture("WF_FAIL")
    o = SetFunctionOracle(inst)
    d = DisagreementPoint(tuple(r[0] for r in inst.values), "explicit")
    return o, d


class TestWaterFilling:
    def test_two_small_delta(self):
        o = SetFunctionOracle(fixture("TWO", delta=F("1/5")))
        sol, trace = water_filling(o, zero_disagreement(2))
        assert sol.utilities == (F("3/5"), F("1/5"))
        assert trace.exhausted

    def test_two_half_delta(self):
        o = SetFunctionOracle(fixture("TWO", delta=F("1/2")))
        sol, _ = water_filling(o, zero_disagreement(2))
        assert sol.utilities == (F("1/4"), F("1/4"))

    def test_ex2_alternative_a_no_transfers(self):
        o = SetFunctionOracle(fixture("EX2"))
        sol, trace = water_filling(o, zero_disagreement(6))
        assert sol.utilities == (1, 1, 1, 1, 3, 3)
        assert sol.alternative == 0
        assert all(t == 0 for t in sol.transfers)
        assert trace.exhausted

    def test_wf_fail_halts_early(self):
        o, d = wf_fail_setup()
        sol, trace = water_filling(o, d)
        assert sol is None
        assert not trace.exhausted
        assert trace.final_utilities == (F("1/2"), F("1/2"), F("1/2"))

    def test_disagreement_outside_anticore_raises_under_optimize(self):
        # d_A = 5 > W_max({A}) = 1; under `python -O` an assert used to let
        # the utilities fall below d and report exhausted=True
        script = (
            "import sys\n"
            "from welfareshare.core import EmptyCoreError\n"
            "from welfareshare.egalitarian import water_filling\n"
            "from welfareshare.model import DisagreementPoint, fixture\n"
            "from welfareshare.welfare import SetFunctionOracle\n"
            "if __debug__:\n"
            "    sys.exit('not optimized')\n"
            "o = SetFunctionOracle(fixture('TWO', delta='1/5'))\n"
            "try:\n"
            "    print(water_filling(o, DisagreementPoint((5, 5))))\n"
            "except EmptyCoreError as exc:\n"
            "    print(f'EmptyCoreError: {exc}')\n"
        )
        src = os.path.dirname(os.path.dirname(welfareshare.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("EmptyCoreError: "), proc.stdout

    def test_ex5_unequal_disagreement(self):
        m = fixture("EX5").restrict((0, 1, 2), (0, 1, 2))
        o = SetFunctionOracle(m)
        sol, trace = water_filling(o, rp_exact(m))
        assert sol.utilities == (F("19/2"), F("17/2"), F(18))
        assert trace.exhausted

    def test_trace_structure(self):
        rng = random.Random(401)
        for _ in range(15):
            n = rng.randint(2, 5)
            m = random_matching(rng, n)
            o = SetFunctionOracle(m)
            d = rp_exact(m)
            sol, trace = water_filling(o, d)
            assert sol is not None
            assert all(x > 0 for x, _, _ in trace.iterations)
            assert all(len(locked) >= 1 for _, locked, _ in trace.iterations)
            assert len(trace.iterations) <= n
            assert tuple(reconstruct_from_trace(trace, d)) == sol.utilities


class TestLexmaxLP:
    def test_wf_fail(self):
        o, d = wf_fail_setup()
        assert lexmax_lp(o, d).utilities == (0, 1, 1)

    def test_lip_baseline(self):
        o = SetFunctionOracle(fixture("LIP", n=5))
        d = DisagreementPoint((F(1),) * 5, "explicit")
        assert lexmax_lp(o, d).utilities == (2, 4, 4, 4, 16)

    def test_lip_variant(self):
        o = SetFunctionOracle(fixture("LIP", n=5, variant=True))
        d = DisagreementPoint((F(1),) * 5, "explicit")
        assert lexmax_lp(o, d).utilities == (3, 3, 3, 3, 18)

    def test_empty_core_raises(self):
        inst = fixture("EMPTY_CORE")
        o = SetFunctionOracle(inst)
        d = DisagreementPoint(tuple(r[0] for r in inst.values), "explicit")
        with pytest.raises(EmptyCoreError):
            lexmax_lp(o, d)

    def test_agrees_with_water_filling(self):
        rng = random.Random(402)
        for _ in range(10):
            m = random_matching(rng, rng.randint(2, 4))
            o = SetFunctionOracle(m)
            d = rp_exact(m)
            sol, trace = water_filling(o, d)
            assert trace.exhausted
            assert lexmax_lp(o, d).utilities == sol.utilities


class TestSolveLexmax:
    def test_matching_skips_submodularity_check(self, monkeypatch):
        def refuse(o):
            raise AssertionError("is_submodular called on a matching")

        monkeypatch.setattr(welfareshare.egalitarian, "is_submodular", refuse)
        rng = random.Random(403)
        for k in range(30):
            n = rng.randint(1, 5)
            m = random_matching(rng, n, lo=-2, hi=2, n_items=n + k % 2)
            o = SetFunctionOracle(m)
            d = uniform(m)
            sol, trace = solve_lexmax(o, d)
            assert trace.exhausted
            assert sol.utilities == lexmax_lp(o, d).utilities

    def test_general_instance_is_checked(self, monkeypatch):
        calls = []
        check = welfareshare.egalitarian.is_submodular

        def counting(o):
            calls.append(o)
            return check(o)

        monkeypatch.setattr(welfareshare.egalitarian, "is_submodular", counting)
        o = SetFunctionOracle(fixture("EX2"))  # not submodular: the LP decides
        d = zero_disagreement(6)
        sol, trace = solve_lexmax(o, d)
        assert trace is None and len(calls) == 1
        assert sol.utilities == lexmax_lp(o, d).utilities

    def test_lp_fallback_skips_water_filling(self, monkeypatch):
        def refuse(o, d):
            raise AssertionError("water filling ran on a non-submodular instance")

        monkeypatch.setattr(welfareshare.egalitarian, "water_filling", refuse)
        o, d = wf_fail_setup()
        sol, trace = solve_lexmax(o, d)
        assert sol.utilities == (0, 1, 1)
        assert trace is None


class TestSumSquares:
    def test_zeros(self):
        assert sum_squares((F(0), F(0))) == 0

    def test_ex2_alternative_a(self):
        assert sum_squares((F(1),) * 4 + (F(3),) * 2) == 22

    def test_ex2_alternative_b(self):
        assert sum_squares((F(0),) + (F(2),) * 5) == 20


class TestLorenz:
    def test_equal(self):
        assert lorenz_compare((F(1), F(2)), (F(2), F(1))) == "equal"

    def test_ex2_incomparable(self):
        a = (F(1),) * 4 + (F(3),) * 2
        b = (F(0),) + (F(2),) * 5
        assert lorenz_compare(a, b) == "incomparable"

    def test_equalization_dominates(self):
        assert lorenz_compare((F(1), F(1)), (F(0), F(2))) == "u_dominates"
        assert lorenz_compare((F(0), F(2)), (F(1), F(1))) == "w_dominates"


class TestSampling:
    def test_samples_lie_in_core(self):
        rng = random.Random(403)
        for _ in range(8):
            n = rng.randint(2, 4)
            m = random_matching(rng, n)
            o = SetFunctionOracle(m)
            d = rp_exact(m)
            for _ in range(4):
                obj = [F(rng.randint(-5, 5)) for _ in range(n)]
                u = sample_ws_core_point(o, d, obj)
                assert check_anticore(o, u)
                assert check_domination(u, d)
                assert sum(u) == wmax(o, range(n))


class TestMinSquareDiag:
    def test_single_agent(self):
        m = random_matching(random.Random(404), 1, lo=0, hi=9)
        o = SetFunctionOracle(m)
        u = min_square_diag(o, zero_disagreement(1), 1e-9)
        assert u[0] == pytest.approx(float(wmax(o, (0,))), abs=1e-9)

    def test_ex2_diverges_from_lexmax(self):
        # lexmax is (1,1,1,1,3,3) with square sum 22; the quadratic optimum
        # does strictly better than the 20 of (0,2,2,2,2,2)
        o = SetFunctionOracle(fixture("EX2"))
        u = min_square_diag(o, zero_disagreement(6), 1e-9)
        assert sum(x * x for x in u) < 20
        assert abs(u[0] - 1) > 0.5  # nowhere near the lexmax vector

    def test_matches_water_filling_on_matching(self):
        rng = random.Random(405)
        for _ in range(5):
            m = random_matching(rng, rng.randint(2, 4))
            o = SetFunctionOracle(m)
            d = rp_exact(m)
            sol, _ = water_filling(o, d)
            u = min_square_diag(o, d, 1e-10)
            for got, want in zip(u, sol.utilities):
                assert got == pytest.approx(float(want), abs=1e-4)
