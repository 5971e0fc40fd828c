"""W_max oracle, duals, and submodularity checks."""

import itertools
import random
from fractions import Fraction

import pytest
from conftest import random_general, random_matching

from welfareshare.model import BoundExceededError, DisagreementPoint, Instance, Solution, fixture
from welfareshare.welfare import (
    MAX_TABLE_AGENTS,
    SetFunctionOracle,
    _subset_sums,
    agents_of,
    dual,
    is_submodular,
    mask_of,
    wmax,
    wmax_argmax,
    wpi,
)


def owners(inst):
    """Map EX4-style owner-string alternative ids to agent index sets."""
    return {name: i for i, name in enumerate(inst.agent_ids)}


class TestWmax:
    def test_ex4_values(self):
        o = SetFunctionOracle(fixture("EX4"))
        # agents A,B,C,D are indices 0..3
        assert wmax(o, (0, 1, 3)) == 4
        assert wmax(o, (0, 2, 3)) == 4
        assert wmax(o, (0, 3)) == 3
        assert wmax(o, (0, 1, 2, 3)) == 6

    def test_empty_set(self):
        o = SetFunctionOracle(fixture("EX3"))
        assert wmax(o, ()) == 0

    def test_ex1_total_welfare(self):
        o = SetFunctionOracle(fixture("EX1", delta=Fraction(1, 10)))
        assert wmax(o, (0, 1, 2)) == Fraction(17, 10)

    def test_memoization_is_transparent(self):
        o = SetFunctionOracle(fixture("EX2"))
        first = wmax(o, (4, 5))
        assert wmax(o, (4, 5)) == first

    def test_matching_vs_brute_force(self):
        rng = random.Random(101)
        for _ in range(25):
            n = rng.randint(2, 5)
            m = random_matching(rng, n)
            o = SetFunctionOracle(m)
            for size in range(1, n + 1):
                for S in itertools.combinations(range(n), size):
                    best = max(
                        sum(m.values[i][j] for i, j in zip(S, items))
                        for items in itertools.permutations(range(n), size)
                    )
                    assert wmax(o, S) == best


class TestArgmax:
    def test_ex1_identity_assignment(self):
        o = SetFunctionOracle(fixture("EX1", delta=Fraction(1, 10)))
        assert wmax_argmax(o, (0, 1, 2)) == (0, 1, 2)

    def test_ex3_best_alternative(self):
        o = SetFunctionOracle(fixture("EX3"))
        assert wmax_argmax(o, (0, 1, 2)) == 3

    def test_single_agent(self):
        inst = fixture("EX3")
        o = SetFunctionOracle(inst)
        alt = wmax_argmax(o, (2,))
        assert inst.values[2][alt] == max(inst.values[2])

    def test_argmax_achieves_wmax(self):
        rng = random.Random(102)
        for _ in range(20):
            n = rng.randint(2, 5)
            m = random_matching(rng, n)
            o = SetFunctionOracle(m)
            S = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            assignment = wmax_argmax(o, S)
            assert sum(m.values[i][j] for i, j in zip(S, assignment)) == wmax(o, S)


# ---------------------------------------------------------------------------
# Reference W_max paths: one DP (or sum) per coalition, as the oracle used to
# compute them before its dense table.  The table must agree with them
# exactly, value and argmax, on every coalition.
# ---------------------------------------------------------------------------


def _matching_wmax(inst, mask):
    # DP over item subsets: best total value after placing a prefix of
    # the subset's agents, keyed by the set of items used.
    rows = [inst.values[i] for i in agents_of(mask)]
    states = {0: Fraction(0)}
    for row in rows:
        nxt = {}
        for used, tot in states.items():
            for j in range(inst.n_items):
                bit = 1 << j
                if used & bit:
                    continue
                cand = tot + row[j]
                old = nxt.get(used | bit)
                if old is None or cand > old:
                    nxt[used | bit] = cand
        states = nxt
    return max(states.values())


def _matching_argmax(inst, mask):
    rows = [inst.values[i] for i in agents_of(mask)]
    m = inst.n_items
    k = len(rows)
    memo = {}

    def best(pos, used):
        if pos == k:
            return Fraction(0)
        got = memo.get((pos, used))
        if got is not None:
            return got
        val = None
        for j in range(m):
            bit = 1 << j
            if used & bit:
                continue
            cand = rows[pos][j] + best(pos + 1, used | bit)
            if val is None or cand > val:
                val = cand
        memo[(pos, used)] = val
        return val

    assignment = []
    used = 0
    for pos in range(k):
        target = best(pos, used)
        for j in range(m):
            bit = 1 << j
            if used & bit:
                continue
            if rows[pos][j] + best(pos + 1, used | bit) == target:
                assignment.append(j)
                used |= bit
                break
    return tuple(assignment)


def _general_wmax_argmax(inst, mask):
    members = agents_of(mask)
    sums = [
        sum((inst.values[i][a] for i in members), Fraction(0))
        for a in range(inst.n_alternatives)
    ]
    best = max(sums)
    return best, sums.index(best)


def _matching_brute_force(inst, mask):
    """(W_max, lexicographically smallest optimal assignment) by enumeration."""
    S = agents_of(mask)
    best = None
    for items in itertools.permutations(range(inst.n_items), len(S)):
        total = sum((inst.values[i][j] for i, j in zip(S, items)), Fraction(0))
        if best is None or total > best[0]:  # permutations come in lex order
            best = (total, items)
    return best


def _tie_heavy_matchings(seed, max_n, count):
    """Square and rectangular matchings, with values from {-2..2}, from
    {-10..10}, from distinct quarters, or all equal."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(1, max_n)
        n_items = n + rng.choice((0, 0, 1, 2))
        style = k % 4
        if style == 0:
            yield random_matching(rng, n, lo=-2, hi=2, n_items=n_items)
        elif style == 1:
            yield random_matching(rng, n, n_items=n_items)
        elif style == 2:
            yield random_matching(rng, n, lo=-3, hi=3, distinct=True, n_items=n_items)
        else:
            yield random_matching(rng, n, lo=1, hi=1, n_items=n_items)


class TestTableDifferential:
    def test_matching_table_equals_per_coalition_dps(self):
        for m in _tie_heavy_matchings(111, 6, 60):
            o = SetFunctionOracle(m)
            for mask in range(1 << m.n_agents):
                if mask:
                    assert o.wmax_mask(mask) == _matching_wmax(m, mask)
                assert o.wmax_argmax(agents_of(mask)) == _matching_argmax(m, mask)

    def test_matching_table_equals_brute_force(self):
        for m in _tie_heavy_matchings(112, 5, 60):
            o = SetFunctionOracle(m)
            for mask in range(1, 1 << m.n_agents):
                value, items = _matching_brute_force(m, mask)
                assert o.wmax_mask(mask) == value
                assert o.wmax_argmax(agents_of(mask)) == items

    def test_general_table_equals_per_coalition_sums(self):
        rng = random.Random(113)
        for k in range(60):
            n = rng.randint(1, 6)
            lo, hi = ((-2, 2), (-10, 10), (0, 0))[k % 3]
            inst = random_general(rng, n, rng.randint(1, 6), lo=lo, hi=hi)
            o = SetFunctionOracle(inst)
            for mask in range(1, 1 << n):
                value, alt = _general_wmax_argmax(inst, mask)
                assert o.wmax_mask(mask) == value
                assert o.wmax_argmax(agents_of(mask)) == alt

    def test_table_built_once_on_first_query(self):
        o = SetFunctionOracle(fixture("EX4"))
        assert o._memo == {}
        o.wmax_argmax((0, 1))
        table = o._memo
        assert sorted(table) == list(range(1 << 4))
        assert o.wmax((0, 1, 2, 3)) == 6 and o._memo is table

    def test_table_refused_past_its_bound(self):
        n = MAX_TABLE_AGENTS + 1
        o = SetFunctionOracle(Instance(alternative_ids=("a",), values=[["1"]] * n))
        with pytest.raises(BoundExceededError, match=f"at most {MAX_TABLE_AGENTS} agents"):
            o.wmax_mask(o.full_mask)
        assert o._memo == {}


class TestSubsetSums:
    def test_equals_sum_over_members(self):
        rng = random.Random(131)
        for k in range(80):
            n = rng.randint(0, 8)
            if k % 2:
                weights = [rng.randint(-10, 10) for _ in range(n)]
            else:
                weights = [Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(n)]
            sums = _subset_sums(weights)
            assert len(sums) == 1 << n
            for mask, total in enumerate(sums):
                assert total == sum((weights[i] for i in agents_of(mask)), 0)


class TestSolution:
    def test_equals_build_at_full_set_argmax(self):
        rng = random.Random(132)
        for k in range(40):
            n = rng.randint(1, 5)
            if k % 2:
                inst = random_matching(rng, n, n_items=n + k % 3)
            else:
                inst = random_general(rng, n, rng.randint(1, 5))
            o = SetFunctionOracle(inst)
            u = [Fraction(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(n)]
            u[-1] += o.wmax_mask(o.full_mask) - sum(u)  # budget balanced
            alt = o.wmax_argmax(range(n))
            expected = Solution.build(alt, o.values_at(alt), u, "tag")
            assert o.solution(u, "tag") == expected


class TestDual:
    def test_grand_coalition(self):
        o = SetFunctionOracle(fixture("EX3"))
        assert dual(o, (0, 1, 2)) == wmax(o, (0, 1, 2))

    def test_two_agents(self):
        o = SetFunctionOracle(fixture("TWO", delta=Fraction(2, 5)))
        assert dual(o, (0,)) == Fraction(1, 5)

    def test_empty(self):
        o = SetFunctionOracle(fixture("TWO", delta=Fraction(2, 5)))
        assert dual(o, ()) == 0


class TestWpi:
    def test_zero_disagreement(self):
        d = DisagreementPoint((Fraction(0),) * 3, "explicit")
        assert wpi(d, (0, 2)) == 0

    def test_ex5_pair(self):
        d = DisagreementPoint((Fraction(8), Fraction(7), Fraction(14)), "rp")
        assert wpi(d, (0, 1)) == 15

    def test_singleton(self):
        d = DisagreementPoint((Fraction(8), Fraction(7), Fraction(14)), "rp")
        assert wpi(d, (2,)) == 14


class TestSubmodularity:
    def test_ex4_witness(self):
        o = SetFunctionOracle(fixture("EX4"))
        verdict = is_submodular(o)
        assert not verdict
        S, T = verdict.witness
        both = wmax(o, S) + wmax(o, T)
        inter = tuple(sorted(set(S) & set(T)))
        union = tuple(sorted(set(S) | set(T)))
        assert both < wmax(o, inter) + wmax(o, union)

    def test_ex3_not_submodular(self):
        assert not is_submodular(SetFunctionOracle(fixture("EX3")))

    def test_matching_always_submodular(self):
        rng = random.Random(103)
        for _ in range(25):
            m = random_matching(rng, rng.randint(2, 5))
            assert is_submodular(SetFunctionOracle(m))
        # lexmax skips the check on matchings, so cover rectangular,
        # negative and tie-heavy ones too
        for m in _tie_heavy_matchings(104, 6, 120):
            assert is_submodular(SetFunctionOracle(m))

    def test_mask_helpers(self):
        assert mask_of((0, 2)) == 5
        assert agents_of(5) == (0, 2)
