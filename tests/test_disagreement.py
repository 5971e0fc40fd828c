"""Disagreement mechanisms: uniform, random priority, and eating."""

import itertools
import math
import random
from fractions import Fraction

from conftest import random_matching

from welfareshare import disagreement
from welfareshare.disagreement import (
    _has_row_ties,
    _lex_perfect_matching,
    _rp_counts,
    _serial_assignment,
    _serial_walk,
    _value_tiers,
    eating,
    rp_allocation,
    rp_exact,
    rp_montecarlo,
    uniform,
)
from welfareshare.model import MatchingInstance, fixture


def square(values, rent=Fraction(0)):
    n = len(values)
    return MatchingInstance(
        tuple(f"i{j}" for j in range(n)),
        tuple(tuple(Fraction(v) for v in row) for row in values),
        tuple(f"a{i}" for i in range(n)),
        rent,
    )


def serial_dictatorship_brute(m):
    """Average of serial dictatorship over all n! orders (tie-free rows)."""
    n = m.n_agents
    totals = [Fraction(0)] * n
    count = 0
    for order in itertools.permutations(range(n)):
        taken = set()
        for i in order:
            best = max(
                (j for j in range(n) if j not in taken), key=lambda j: m.values[i][j]
            )
            taken.add(best)
            totals[i] += m.values[i][best]
        count += 1
    return tuple(t / count for t in totals)


def serial_assignment_reference(values, order, m):
    """One serial-dictatorship pass that rescans the Fraction values of the
    items left on every draw; the reference for `_serial_assignment`."""
    n = len(values)
    remaining = set(range(m))
    assignment = [-1] * n
    held = {}

    def desired_of(i):
        row = values[i]
        top = max(row[j] for j in remaining)
        return frozenset(j for j in remaining if row[j] == top)

    def assign(match):
        for a, j in match.items():
            assignment[a] = j
            remaining.discard(j)
            held.pop(a, None)
        for a in list(held):
            held[a] = desired_of(a)

    def release_tight():
        progress = True
        while progress and held:
            progress = False
            agents = sorted(held)
            for k in range(1, len(agents) + 1):
                hit = None
                for combo in itertools.combinations(agents, k):
                    union = frozenset().union(*(held[a] for a in combo))
                    if len(union) <= k:
                        hit = combo
                        break
                if hit is not None:
                    assign(_lex_perfect_matching(hit, held))
                    progress = True
                    break

    for i in order:
        release_tight()
        want = desired_of(i)
        if len(want) == 1:
            assign({i: next(iter(want))})
        else:
            held[i] = want
    release_tight()
    if held:
        assign(_lex_perfect_matching(sorted(held), held))
    return assignment


def rp_probabilities_reference(m):
    """x[i][j] over all n! orders of the reference pass."""
    counts = [[0] * m.n_items for _ in range(m.n_agents)]
    for order in itertools.permutations(range(m.n_agents)):
        for i, j in enumerate(serial_assignment_reference(m.values, order, m.n_items)):
            counts[i][j] += 1
    total = math.factorial(m.n_agents)
    return tuple(tuple(Fraction(c, total) for c in row) for row in counts)


def rp_montecarlo_reference(m, samples, seed):
    """Expected utilities over the same seeded orders as `rp_montecarlo`."""
    counts = [[0] * m.n_items for _ in range(m.n_agents)]
    rng = random.Random(seed)
    order = list(range(m.n_agents))
    for _ in range(samples):
        rng.shuffle(order)
        for i, j in enumerate(serial_assignment_reference(m.values, order, m.n_items)):
            counts[i][j] += 1
    return expected(m, [[Fraction(c, samples) for c in row] for row in counts])


def expected(m, x):
    return tuple(
        sum((x[i][j] * m.values[i][j] for j in range(m.n_items)), Fraction(0))
        for i in range(m.n_agents)
    )


# seeded instances with n <= 6, square and with one or two extra items, over
# value ranges from tie-heavy to nearly tie-free
def reference_instances(seed, max_n=6, extra=(0, 1, 2)):
    rng = random.Random(seed)
    for lo, hi in ((-1, 1), (-3, 3), (-10, 10)):
        for n in range(1, max_n + 1):
            for more in extra:
                yield random_matching(rng, n, lo, hi, n_items=n + more)


class TestTierTable:
    def test_value_tiers(self):
        values = ((Fraction(3), Fraction(1), Fraction(3), Fraction(2)), (Fraction(0),) * 4)
        assert _value_tiers(values, 4) == (
            (frozenset({0, 2}), frozenset({3}), frozenset({1})),
            (frozenset({0, 1, 2, 3}),),
        )

    def test_serial_assignment_matches_reference_on_every_order(self):
        for m in reference_instances(210):
            tiers = _value_tiers(m.values, m.n_items)
            for order in itertools.permutations(range(m.n_agents)):
                assert _serial_assignment(tiers, order, m.n_items) == serial_assignment_reference(
                    m.values, order, m.n_items
                ), (m.values, order)

    def test_rp_exact_matches_reference(self):
        for m in reference_instances(211):
            assert rp_exact(m).utilities == expected(m, rp_probabilities_reference(m)), m.values

    def test_rp_allocation_matches_reference(self):
        for m in reference_instances(213, extra=(0,)):
            x, d = rp_allocation(m)
            assert x == rp_probabilities_reference(m), m.values
            assert d.utilities == expected(m, x)

    def test_rp_montecarlo_matches_reference_on_both_branches(self):
        rng = random.Random(214)
        branches = set()
        for n in range(1, 7):
            for distinct in (False, True):
                m = random_matching(rng, n, -3, 3, distinct=distinct)
                branches.add(_has_row_ties(m.values))
                for seed in (0, 7):
                    got = rp_montecarlo(m, samples=300, seed=seed).utilities
                    assert got == rp_montecarlo_reference(m, 300, seed), (m.values, seed)
        assert branches == {False, True}


def tie_free_instances(seed, extra):
    """Seeded instances with distinct values in every row, n <= 7: random
    quarters, and rows that share one strict order of the items."""
    rng = random.Random(seed)
    for n in range(1, 8):
        for k in (n + more for more in extra):
            yield random_matching(rng, n, distinct=True, n_items=k)
            ranks = rng.sample(range(1, k + 1), k)
            steps = [Fraction(rng.randint(1, 3), 4) for _ in range(n)]
            yield MatchingInstance(tuple(range(k)), tuple(tuple(s * r for r in ranks) for s in steps))


class TestCountTable:
    """Without row ties `_rp_counts` walks (agents left, items left) states;
    the n! orders of the reference pass are the reference."""

    def test_tie_free_matches_reference(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a tie-free instance walked the serial orders")

        monkeypatch.setattr(disagreement, "_serial_assignment", unreachable)
        for m in tie_free_instances(215, extra=(0,)):
            assert not _has_row_ties(m.values)
            x, d = rp_allocation(m)
            assert x == rp_probabilities_reference(m), m.values
            assert rp_exact(m).utilities == d.utilities == expected(m, x)
        for m in tie_free_instances(216, extra=(1, 2)):
            assert rp_exact(m).utilities == expected(m, rp_probabilities_reference(m)), m.values

    def test_walk_with_lex_matching_matches_tied_counts(self):
        # with ties `_rp_counts` walks the n! orders; the state walk, with
        # `_lex_perfect_matching` inside each released group and the final
        # holds, gives the same table
        tied = 0
        for m in reference_instances(218, max_n=7):
            if not _has_row_ties(m.values):
                continue
            tied += 1
            k = m.n_items
            counts = [[0] * k for _ in range(m.n_agents)]
            for group, wanted, orders in _serial_walk(_value_tiers(m.values, k), k):
                desired = {a: frozenset(j for j in range(k) if w >> j & 1) for a, w in zip(group, wanted)}
                for a, j in _lex_perfect_matching(group, desired).items():
                    counts[a][j] += orders
            assert counts == _rp_counts(m), m.values
        assert tied > 40

    def test_ten_agents_doubly_stochastic(self):
        rng = random.Random(217)
        m = random_matching(rng, 10, distinct=True)
        x, d = rp_allocation(m)
        assert all(0 <= p <= 1 for row in x for p in row)
        assert all(sum(row) == 1 for row in x)
        assert all(sum(x[i][j] for i in range(10)) == 1 for j in range(10))
        assert d.utilities == expected(m, x)


class TestUniform:
    def test_constant_rows(self):
        inst = fixture("EX3")
        d = uniform(inst)
        assert d[2] == Fraction(sum(inst.values[2]), 4)

    def test_two_is_centered(self):
        assert uniform(fixture("TWO", delta=Fraction(1, 5))).utilities == (0, 0)

    def test_ex1_row_mean(self):
        d = uniform(fixture("EX1", delta=Fraction(1, 10)))
        assert d[0] == Fraction(1, 3)


class TestRPExact:
    def test_ex5_three_agents(self):
        m = fixture("EX5").restrict((0, 1, 2), (0, 1, 2))
        assert rp_exact(m).utilities == (8, 7, 14)

    def test_ex5_two_agents_three_items(self):
        m = fixture("EX5").restrict((0, 1), (0, 1, 2))
        assert rp_exact(m).utilities == (9, 9)

    def test_ex1_first_two_sum_to_one(self):
        d = rp_exact(fixture("EX1", delta=Fraction(1, 10)))
        assert d[0] + d[1] == 1

    def test_rpdisc_item_probability(self):
        eps = Fraction(1, 1000)
        d = rp_exact(fixture("RPDISC", eps=eps))
        assert d[2] == eps + Fraction(1, 3) * (1 - eps)

    def test_matches_brute_force_tiefree(self):
        rng = random.Random(201)
        for _ in range(20):
            n = rng.randint(2, 5)
            m = random_matching(rng, n, distinct=True)
            assert rp_exact(m).utilities == serial_dictatorship_brute(m)

    def test_relabeling_invariance(self):
        rng = random.Random(202)
        for _ in range(10):
            n = rng.randint(2, 4)
            m = random_matching(rng, n)
            d = rp_exact(m)
            perm = list(range(n))
            rng.shuffle(perm)
            m2 = square([m.values[perm[i]] for i in range(n)])
            d2 = rp_exact(m2)
            assert tuple(d2.utilities) == tuple(d[perm[i]] for i in range(n))

    def test_symmetric_agents_equal(self):
        m = square([(5, 3, 1), (5, 3, 1), (0, 0, 4)])
        d = rp_exact(m)
        assert d[0] == d[1]

    def test_allocation_is_doubly_stochastic(self):
        rng = random.Random(203)
        for _ in range(10):
            m = random_matching(rng, rng.randint(2, 4))
            P, d = rp_allocation(m)
            n = m.n_agents
            for i in range(n):
                assert sum(P[i]) == 1
                assert all(0 <= p <= 1 for p in P[i])
            for j in range(n):
                assert sum(P[i][j] for i in range(n)) == 1
            assert d.utilities == tuple(
                sum(P[i][j] * m.values[i][j] for j in range(n)) for i in range(n)
            )


class TestRPMonteCarlo:
    def test_single_agent_exact(self):
        m = square([(7,)])
        assert rp_montecarlo(m, samples=10, seed=0).utilities == (7,)

    def test_deterministic_under_seed(self):
        m = fixture("EX5").restrict((0, 1, 2), (0, 1, 2))
        a = rp_montecarlo(m, samples=2000, seed=42)
        b = rp_montecarlo(m, samples=2000, seed=42)
        assert a.utilities == b.utilities

    def test_different_seeds_differ(self):
        m = fixture("EX5").restrict((0, 1, 2), (0, 1, 2))
        a = rp_montecarlo(m, samples=2000, seed=1)
        b = rp_montecarlo(m, samples=2000, seed=2)
        assert a.utilities != b.utilities

    def test_converges_to_exact(self):
        m = fixture("EX5").restrict((0, 1, 2), (0, 1, 2))
        mc = rp_montecarlo(m, samples=200_000, seed=0)
        for got, want in zip(mc.utilities, (8, 7, 14)):
            assert abs(got - want) < Fraction(1, 10)


class TestEating:
    def test_distinct_favorites_no_contention(self):
        m = square([(9, 0, 0), (0, 9, 0), (0, 0, 9)])
        sched, d = eating(m)
        assert sched.allocation == (
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        )
        assert d.utilities == (9, 9, 9)

    def test_shared_order_splits_evenly(self):
        m = square([(2, 1), (2, 1)])
        sched, _ = eating(m)
        assert sched.allocation == (
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(1, 2)),
        )

    def test_rpdisc_rate(self):
        m = fixture("RPDISC", eps=Fraction(1, 1000))
        sched, _ = eating(m)
        assert sched.allocation[2][0] == Fraction(1, 3)

    def test_doubly_stochastic(self):
        rng = random.Random(204)
        for _ in range(10):
            m = random_matching(rng, rng.randint(2, 5))
            sched, d = eating(m)
            n = m.n_agents
            for i in range(n):
                assert sum(sched.allocation[i]) == 1
                assert all(0 <= p <= 1 for p in sched.allocation[i])
            for j in range(n):
                assert sum(sched.allocation[i][j] for i in range(n)) == 1
            assert d.utilities == tuple(
                sum(sched.allocation[i][j] * m.values[i][j] for j in range(n))
                for i in range(n)
            )
