"""Reference-point mechanisms: Uniform, Random Priority, Eating.

Random Priority averages serial dictatorship over all agent orders.  Ties in
an agent's top remaining items are handled by putting the agent on hold;
held agents are released in minimal tight groups (a group of held agents
whose desired items number exactly the group size), and leftover holds are
resolved at the end of the order by a lexicographically smallest matching.
Within any tight group each member receives an item she is indifferent
about, so utilities do not depend on which matching is used.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from operator import or_
from typing import Dict, List, Sequence, Tuple

from .model import BoundExceededError, DisagreementPoint, Instance, MatchingInstance


def uniform(inst) -> DisagreementPoint:
    """Mean utility over items (matching) or alternatives (general)."""
    if isinstance(inst, MatchingInstance):
        k = inst.n_items
    elif isinstance(inst, Instance):
        k = inst.n_alternatives
    else:
        raise TypeError("expected Instance or MatchingInstance")
    utils = tuple(sum(row, Fraction(0)) / k for row in inst.values)
    return DisagreementPoint(utilities=utils, provenance="uniform")


def _has_row_ties(values) -> bool:
    return any(len(set(row)) != len(row) for row in values)


def _lex_perfect_matching(agents: Sequence[int], desired: Dict[int, frozenset]):
    """Lexicographically smallest perfect matching: agents in ascending
    order each take their smallest desired item that keeps the rest
    matchable.  Returns {agent: item}."""

    def matchable(rest: List[int], taken: set) -> bool:
        match: Dict[int, int] = {}

        def augment(a, seen):
            for j in sorted(desired[a]):
                if j in taken or j in seen:
                    continue
                seen.add(j)
                if j not in match or augment(match[j], seen):
                    match[j] = a
                    return True
            return False

        return all(augment(a, set()) for a in rest)

    result: Dict[int, int] = {}
    taken: set = set()
    order = sorted(agents)
    for pos, a in enumerate(order):
        rest = order[pos + 1 :]
        for j in sorted(desired[a]):
            if j in taken:
                continue
            if matchable(rest, taken | {j}):
                result[a] = j
                taken.add(j)
                break
        else:
            raise AssertionError("no perfect matching for held agents")
    return result


def _value_tiers(values, m: int) -> Tuple[Tuple[frozenset, ...], ...]:
    """Per agent, her items grouped by equal value, best group first.

    Built once per Random Priority call, so no draw compares values: an
    agent's favourite remaining items are the first tier that meets the
    items left.
    """
    tiers = []
    for row in values:
        groups: Dict[Fraction, List[int]] = {}
        for j in range(m):
            groups.setdefault(row[j], []).append(j)
        tiers.append(tuple(frozenset(groups[v]) for v in sorted(groups, reverse=True)))
    return tuple(tiers)


def _preference_lists(tiers) -> List[List[int]]:
    """Each agent's items best first, ties by item index (the tiers flattened)."""
    return [[j for tier in agent_tiers for j in sorted(tier)] for agent_tiers in tiers]


def _tight_group(wants, size) -> Tuple[int, ...]:
    """First smallest combination of held agents wanting at most its size in items, else ()."""
    agents = sorted(wants)
    for k in range(1, len(agents) + 1):
        for combo in combinations(agents, k):
            if size(reduce(or_, (wants[a] for a in combo))) <= k:
                return combo
    return ()


def _serial_assignment(tiers, order: Sequence[int], m: int) -> List[int]:
    """One serial-dictatorship pass over `_value_tiers`; returns item index
    per agent."""
    remaining = set(range(m))
    assignment: List[int] = [-1] * len(tiers)
    held: Dict[int, frozenset] = {}

    def desired_of(i) -> frozenset:
        for tier in tiers[i]:
            if not remaining.isdisjoint(tier):
                return tier & remaining
        raise ValueError("fewer items than agents")

    def assign(match: Dict[int, int]):
        for a, j in match.items():
            assignment[a] = j
            remaining.discard(j)
            held.pop(a, None)
        for a in held:
            held[a] = desired_of(a)

    def release_tight():
        while held:
            group = _tight_group(held, len)
            if not group:
                break
            assign(_lex_perfect_matching(group, held))

    for i in order:
        if held:
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


def _serial_walk(tiers, m: int):
    """Serial dictatorship over every agent order with `_serial_assignment`'s
    tie rule, each (agents not yet drawn, held agents, items left) bitmask
    state visited once with the number of order prefixes that reach it.
    Yields (agents, wanted item masks, number of orders) for each pick,
    released tight group and the final holds; a group takes exactly the
    items it wants, so the matching inside it is left to the reader."""
    n = len(tiers)
    masks = [[sum(1 << j for j in tier) for tier in agent_tiers] for agent_tiers in tiers]

    def want(a, items) -> int:
        return next(tier & items for tier in masks[a] if tier & items)

    level = {((1 << n) - 1, 0, (1 << m) - 1): 1}
    for left in range(n, 0, -1):
        tail = math.factorial(left - 1)
        below: Dict[Tuple[int, int, int], int] = {}
        for (undrawn, held, items), ways in level.items():
            for i in (a for a in range(n) if undrawn >> a & 1):
                wanted = want(i, items)
                if wanted & (wanted - 1):
                    now_held, now_items = held | 1 << i, items
                else:
                    yield (i,), (wanted,), ways * tail
                    now_held, now_items = held, items & ~wanted
                while now_held:
                    wants = {a: want(a, now_items) for a in range(n) if now_held >> a & 1}
                    # after the last draw the holds left go as one group
                    group = _tight_group(wants, int.bit_count) or (tuple(wants) if left == 1 else ())
                    if not group:
                        break
                    group_wants = tuple(wants[a] for a in group)
                    yield group, group_wants, ways * tail
                    now_held &= ~sum(1 << a for a in group)
                    now_items &= ~reduce(or_, group_wants)
                state = (undrawn & ~(1 << i), now_held, now_items)
                below[state] = below.get(state, 0) + ways
        level = below


def _rp_counts(m: MatchingInstance) -> List[List[int]]:
    """counts[i][j] = number of the n! serial orders that give agent i item j:
    `_serial_walk`'s picks without row ties, `_serial_assignment` with them."""
    n, k = m.n_agents, m.n_items
    tiers = _value_tiers(m.values, k)
    counts = [[0] * k for _ in range(n)]
    if _has_row_ties(m.values):
        for order in permutations(range(n)):
            for i, j in enumerate(_serial_assignment(tiers, order, k)):
                counts[i][j] += 1
        return counts
    for (i,), (item,), orders in _serial_walk(tiers, k):
        counts[i][item.bit_length() - 1] += orders
    return counts


def _rp_probabilities(m: MatchingInstance):
    """x[i][j] = probability that Random Priority gives agent i item j."""
    total = math.factorial(m.n_agents)
    return tuple(tuple(Fraction(c, total) for c in row) for row in _rp_counts(m))


def _expected_utilities(m: MatchingInstance, x) -> Tuple[Fraction, ...]:
    """Each agent's expected value under the assignment probabilities x[i][j]."""
    return tuple(
        sum((x[i][j] * m.values[i][j] for j in range(m.n_items)), Fraction(0))
        for i in range(m.n_agents)
    )


# with a tie in some row, exact Random Priority walks all n! serial orders;
# README gives its time with and without ties
MAX_RP_EXACT_AGENTS = 10


def rp_exact(m: MatchingInstance) -> DisagreementPoint:
    """Exact Random Priority: average over all n! serial orders.

    Accepts any instance with at least as many items as agents; agents in
    turn pick their favorite remaining item, extra items go unassigned.
    """
    if m.n_agents > MAX_RP_EXACT_AGENTS:
        raise BoundExceededError("rp_exact bound exceeded; use rp_montecarlo")
    utils = _expected_utilities(m, _rp_probabilities(m))
    return DisagreementPoint(utilities=utils, provenance="rp_exact")


def rp_allocation(m: MatchingInstance):
    """(probability matrix, DisagreementPoint) under exact Random Priority;
    x[i][j] = probability agent i receives item j."""
    if not m.is_square:
        raise ValueError("rp_allocation requires a square instance")
    if m.n_agents > MAX_RP_EXACT_AGENTS:
        raise BoundExceededError("rp_allocation bound exceeded")
    x = _rp_probabilities(m)
    return x, DisagreementPoint(utilities=_expected_utilities(m, x), provenance="rp_exact")


def rp_montecarlo(m: MatchingInstance, samples: int, seed: int) -> DisagreementPoint:
    """Monte-Carlo Random Priority; deterministic for a fixed seed."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not m.is_square:
        raise ValueError("rp_montecarlo requires a square instance")
    n = m.n_agents
    tie_free = not _has_row_ties(m.values)
    tiers = _value_tiers(m.values, m.n_items)
    prefs = _preference_lists(tiers)
    counts = [[0] * m.n_items for _ in range(n)]
    rng = random.Random(seed)
    order = list(range(n))
    for _ in range(samples):
        rng.shuffle(order)
        if tie_free:
            free = [True] * m.n_items
            for i in order:
                for j in prefs[i]:
                    if free[j]:
                        free[j] = False
                        counts[i][j] += 1
                        break
        else:
            assignment = _serial_assignment(tiers, order, m.n_items)
            for i in range(n):
                counts[i][assignment[i]] += 1
    utils = _expected_utilities(m, [[Fraction(c, samples) for c in row] for row in counts])
    return DisagreementPoint(
        utilities=utils, provenance=f"rp_montecarlo(seed={seed}, samples={samples})"
    )


@dataclass(frozen=True)
class EatingSchedule:
    allocation: tuple  # n x m matrix of Fractions in [0, 1]
    phases: tuple  # ((phase length, consumed item ids), ...)


def eating(m: MatchingInstance):
    """Simultaneous eating (probabilistic serial) in exact arithmetic.

    Every agent eats probability mass of her top remaining items at total
    rate 1; with k tied tops, each is eaten at rate 1/k.  A phase ends when
    some item's capacity reaches 0.
    """
    if not m.is_square:
        raise ValueError("eating requires a square instance")
    n = m.n_agents
    items = m.n_items
    capacity = [Fraction(1)] * items
    x = [[Fraction(0)] * items for _ in range(n)]
    phases = []
    alive = set(range(items))
    while alive:
        rates = [[Fraction(0)] * items for _ in range(n)]
        for i in range(n):
            row = m.values[i]
            top = max(row[j] for j in alive)
            tops = [j for j in alive if row[j] == top]
            share = Fraction(1, len(tops))
            for j in tops:
                rates[i][j] = share
        item_rate = [sum((rates[i][j] for i in range(n)), Fraction(0)) for j in range(items)]
        length = min(capacity[j] / item_rate[j] for j in alive if item_rate[j] > 0)
        consumed = []
        for j in list(alive):
            if item_rate[j] == 0:
                continue
            capacity[j] -= item_rate[j] * length
            for i in range(n):
                x[i][j] += rates[i][j] * length
            if capacity[j] == 0:
                consumed.append(m.item_ids[j])
                alive.discard(j)
        phases.append((length, tuple(consumed)))
    schedule = EatingSchedule(
        allocation=tuple(tuple(row) for row in x), phases=tuple(phases)
    )
    return schedule, DisagreementPoint(
        utilities=_expected_utilities(m, x), provenance="eating"
    )
