"""Independent components and decomposability verdicts."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import planted_block_matching, random_matching

from welfareshare import decompose
from welfareshare.core import check_anticore
from welfareshare.decompose import (
    check_strong_decomposability,
    check_weak_decomposability,
    find_components,
    find_components_matching,
    trivial_partition,
    verify_component,
)
from welfareshare.disagreement import rp_exact
from welfareshare.model import BoundExceededError, Instance, MatchingInstance, Solution, fixture
from welfareshare.rivals import ef_maxmin, run_mechanism
from welfareshare.welfare import SetFunctionOracle, wmax, wmax_argmax


def F(x):
    return Fraction(x)


def square(values):
    n = len(values)
    return MatchingInstance(
        tuple(f"i{j}" for j in range(n)),
        tuple(tuple(Fraction(v) for v in row) for row in values),
        tuple(f"a{i}" for i in range(n)),
        Fraction(0),
    )


def pareto_front_reference(vectors):
    """Indices of Pareto-optimal vectors (duplicates all kept), by a keep-list
    rebuilt in index order; the reference for `decompose._pareto_front`."""

    def dominates(a, b):
        return all(x >= y for x, y in zip(a, b)) and a != b

    frontier = []
    for idx, v in enumerate(vectors):
        dominated = False
        keep = []
        for f in frontier:
            if dominates(vectors[f], v):
                dominated = True
                keep.append(f)
            elif not dominates(v, vectors[f]):
                keep.append(f)
        if not dominated:
            keep.append(idx)
        frontier = keep
    return frontier


def exact_blocks_reference(m, agents, items):
    """Components of one block from the full Pareto front of its Fraction
    value vectors; the reference for `decompose._exact_matching_blocks`."""
    agents, items = list(agents), list(items)
    k = len(agents)
    assigns = list(itertools.permutations(items))
    vectors = [tuple(m.values[a][perm[pos]] for pos, a in enumerate(agents)) for perm in assigns]
    uf = decompose._UnionFind(2 * k)
    for idx in pareto_front_reference(vectors):
        for pos in range(k):
            uf.union(pos, k + items.index(assigns[idx][pos]))
    groups = {}
    for pos in range(k):
        groups.setdefault(uf.find(pos), [set(), set()])[0].add(agents[pos])
        groups.setdefault(uf.find(k + pos), [set(), set()])[1].add(items[pos])
    return [(tuple(sorted(a)), tuple(sorted(it))) for a, it in groups.values()]


def assert_blocks_match_reference(monkeypatch, cases):
    """Exact components equal the Pareto-front reference on every case, with
    no assignment listed and no Pareto scan; returns the block sizes seen."""

    def unreachable(*args):
        raise AssertionError("a block listed assignments or scanned a Pareto front")

    monkeypatch.setattr(decompose, "_pareto_front", unreachable)
    monkeypatch.setattr(decompose, "permutations", unreachable)
    block_sizes = set()
    for m in cases:
        want = []
        for agents, items in decompose._sufficient_partition(m).blocks:
            want.extend(exact_blocks_reference(m, agents, items))
        assert find_components_matching(m).blocks == tuple(sorted(want)), m.values
        block_sizes.update(len(agents) for agents, _ in want)
    return block_sizes


PLANTED_SIZES = ([1], [2], [3], [4], [5], [6], [2, 3], [3, 4], [1, 2, 4], [2, 2, 2])


class TestParetoFront:
    def test_matches_reference(self):
        rng = random.Random(610)
        assert decompose._pareto_front([]) == pareto_front_reference([]) == []
        for length in range(1, 7):
            for _ in range(40):
                # a small pool makes duplicates, a small value range ties
                pool = [
                    tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(length))
                    for _ in range(rng.randint(1, 12))
                ]
                vectors = [rng.choice(pool) for _ in range(rng.randint(1, 40))]
                got = decompose._pareto_front(vectors)
                assert len(got) == len(set(got))
                assert set(got) == {vectors[idx] for idx in pareto_front_reference(vectors)}, vectors
                sums = [sum(v) for v in got]
                assert sums == sorted(sums, reverse=True)

    def test_exact_blocks_match_reference(self, monkeypatch):
        # rows with ties: the walk holds agents and releases tight groups
        rng = random.Random(611)
        cases = [
            random_matching(rng, n, lo, hi)
            for lo, hi in ((-1, 1), (-3, 3), (-10, 10))
            for n in range(1, 8)
            for _ in range(3)
        ]
        for sizes in PLANTED_SIZES:
            inst, blocks = planted_block_matching(rng, sizes)
            # one row ties two of its block's items
            values = [list(row) for row in inst.values]
            agents, items = blocks[0]
            values[agents[0]][items[-1]] = values[agents[0]][items[0]]
            cases.append(MatchingInstance(inst.item_ids, tuple(map(tuple, values))))
        assert assert_blocks_match_reference(monkeypatch, cases) == set(range(1, 8))

    def test_tie_free_blocks_match_reference(self, monkeypatch):
        # strict rows: the walk picks and never holds
        rng = random.Random(612)
        cases = [random_matching(rng, n, distinct=True) for n in range(1, 8) for _ in range(3)]
        cases += [planted_block_matching(rng, sizes)[0] for sizes in PLANTED_SIZES]
        assert assert_blocks_match_reference(monkeypatch, cases) == set(range(1, 8))

    def test_one_block_from_the_walk(self, monkeypatch):
        # identical rows: every assignment is Pareto-optimal, so a scan
        # would list all k! of them; the walk visits each state once and
        # still accounts for every agent in every order
        events = []
        walk = decompose._serial_walk

        def counted(*args):
            for event in walk(*args):
                events.append(event)
                yield event

        monkeypatch.setattr(decompose, "_serial_walk", counted)
        for row in ((7, 7, 5, 4, 3, 2, 1), (8, 7, 6, 5, 4, 3, 1, 1)):
            k = len(row)
            events.clear()
            part = find_components_matching(square([row] * k))
            assert part.blocks == ((tuple(range(k)), tuple(range(k))),)
            assert part.certificate == "exact"
            assert sum(orders * len(group) for group, _, orders in events) == k * math.factorial(k)
            assert len(events) < math.factorial(k)


class TestFindComponentsMatching:
    def test_ex1_two_blocks(self):
        part = find_components_matching(fixture("EX1", delta=F("1/10")))
        assert part.certificate == "exact"
        assert set(part.blocks) == {((0, 1), (0, 1)), ((2,), (2,))}

    def test_diagonal_dominant_singletons(self):
        m = square([(9, 0, 0), (0, 9, 0), (0, 0, 9)])
        part = find_components_matching(m)
        assert part.n_blocks == 3
        assert all(len(agents) == 1 for agents, _ in part.blocks)

    def test_identical_rows_single_block(self):
        m = square([(3, 2, 1), (3, 2, 1), (3, 2, 1)])
        part = find_components_matching(m)
        assert part.n_blocks == 1

    def test_planted_blocks_recovered(self):
        rng = random.Random(601)
        for _ in range(10):
            sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
            inst, blocks = planted_block_matching(rng, sizes)
            part = find_components_matching(inst)
            assert set(part.blocks) == set(blocks)

    def test_dispatcher_handles_general(self):
        part = find_components(fixture("EX3"))
        assert part.n_blocks >= 1


class TestVerifyComponent:
    def test_whole_set(self):
        assert verify_component(fixture("EX3"), (0, 1, 2))

    def test_ex1_student3_is_component(self):
        assert verify_component(fixture("EX1", delta=F("1/10")), (2,))

    def test_ex1_student1_alone_is_not(self):
        verdict = verify_component(fixture("EX1", delta=F("1/10")), (0,))
        assert not verdict

    def test_lattice_closure(self):
        rng = random.Random(602)
        for _ in range(6):
            n = 4
            m = random_matching(rng, n, lo=0, hi=9)
            certified = [
                S
                for size in range(1, n + 1)
                for S in itertools.combinations(range(n), size)
                if verify_component(m, S)
            ]
            family = {frozenset(S) for S in certified}
            for A in family:
                for B in family:
                    if A & B:
                        assert A & B in family, (m.values, A, B)
                    assert A | B in family, (m.values, A, B)


    def test_assignments_at_the_bound(self):
        # 2 x 201 has 40,200 assignments, within 8! = 40,320
        m = MatchingInstance(tuple(range(201)), (tuple(range(201)),) * 2)
        assert decompose._as_general(m).n_alternatives == 201 * 200

    @pytest.mark.parametrize("n_agents, n_items", [(2, 202), (8, 20)])
    def test_assignments_past_the_bound(self, monkeypatch, n_agents, n_items):
        # 40,602 and 5e9 assignments: refused before any is listed
        def unbounded(*args):
            raise AssertionError("assignments listed past the bound")

        monkeypatch.setattr(decompose, "permutations", unbounded)
        m = MatchingInstance(tuple(range(n_items)), (tuple(range(n_items)),) * n_agents)
        with pytest.raises(BoundExceededError, match="assignment enumeration bound exceeded"):
            verify_component(m, (0,))


class TestWeakDecomposability:
    def test_no_transfer_solution(self):
        inst = fixture("EX1", delta=F("1/10"))
        part = find_components_matching(inst)
        sol = Solution(
            alternative=(0, 1, 2),
            transfers=(F(0), F(0), F(0)),
            utilities=tuple(inst.values[i][i] for i in range(3)),
            mechanism="test",
        )
        assert check_weak_decomposability(inst, part, sol)

    def test_ex1_ef_violates(self):
        inst = fixture("EX1", delta=F("1/10"))
        part = find_components_matching(inst)
        sol = ef_maxmin(SetFunctionOracle(inst))
        verdict = check_weak_decomposability(inst, part, sol)
        assert not verdict
        # student 3 forms her own block yet receives a positive net subsidy
        assert sol.transfers[2] > 0

    def test_ex1_lexmax_ok(self):
        inst = fixture("EX1", delta=F("1/10"))
        part = find_components_matching(inst)
        sol = run_mechanism("lexmax", SetFunctionOracle(inst), rp_exact(inst))
        assert check_weak_decomposability(inst, part, sol)


class TestStrongDecomposability:
    def test_lexmax_rp_on_ex1(self):
        inst = fixture("EX1", delta=F("1/10"))
        part = find_components_matching(inst)
        assert check_strong_decomposability("lexmax", inst, part)

    def test_shapley_on_planted_blocks(self):
        rng = random.Random(603)
        inst, _ = planted_block_matching(rng, [2, 2])
        part = find_components_matching(inst)
        assert check_strong_decomposability("shapley", inst, part)

    def test_ks_fails_on_ks4(self):
        inst = fixture("KS4")
        part = find_components_matching(inst)
        assert part.n_blocks == 2
        verdict = check_strong_decomposability("ks", inst, part)
        assert not verdict
        assert verdict.u_whole != verdict.u_component

    def test_strong_implies_weak(self):
        rng = random.Random(604)
        for _ in range(5):
            inst, _ = planted_block_matching(rng, [2, 1])
            part = find_components_matching(inst)
            if check_strong_decomposability("lexmax", inst, part):
                sol = run_mechanism("lexmax", SetFunctionOracle(inst), rp_exact(inst))
                assert check_weak_decomposability(inst, part, sol)


class TestRestrictionProperties:
    def test_welfare_restricts_to_blocks(self):
        rng = random.Random(605)
        for _ in range(8):
            inst, blocks = planted_block_matching(rng, [2, 2])
            o = SetFunctionOracle(inst)
            assignment = wmax_argmax(o, range(inst.n_agents))
            for agents, items in blocks:
                achieved = sum(inst.values[i][assignment[i]] for i in agents)
                assert achieved == wmax(o, agents)
                assert all(assignment[i] in items for i in agents)

    def test_anticore_within_blocks_suffices(self):
        rng = random.Random(606)
        for _ in range(6):
            inst, blocks = planted_block_matching(rng, [2, 2])
            o = SetFunctionOracle(inst)
            sol = run_mechanism("lexmax", SetFunctionOracle(inst), rp_exact(inst))
            u = sol.utilities
            full = bool(check_anticore(o, u))
            within = all(
                sum(u[i] for i in S) <= wmax(o, S)
                for agents, _items in blocks
                for size in range(1, len(agents) + 1)
                for S in itertools.combinations(agents, size)
            )
            assert full == within

    def test_trivial_partition_shape(self):
        inst = fixture("EX3")
        part = trivial_partition(inst)
        assert part.n_blocks == 1
        assert part.blocks[0][0] == (0, 1, 2)
