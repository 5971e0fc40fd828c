"""Independent components and weak decomposability verdicts.

A block (P, M) of a matching instance is an independent component when
every Pareto-optimal assignment matches P's agents inside M.  The exact
path joins the edges of Pareto-optimal assignments; the fast path certifies
a partition through the sufficient condition that every agent strictly
prefers all of her block's items to every item outside it.  The strong
decomposability check runs mechanisms, so it lives in `rivals`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import List, Optional, Sequence, Tuple

from .disagreement import _serial_walk, _value_tiers
from .model import BoundExceededError, Instance, MatchingInstance, Solution
from .welfare import _bits, agents_of


@dataclass(frozen=True)
class ComponentPartition:
    # blocks: ((agent indices), (item indices) or None) per block
    blocks: tuple
    certificate: str  # "exact" | "sufficient" | "user_supplied_verified" | "trivial"

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def trivial_partition(inst) -> ComponentPartition:
    n = inst.n_agents
    items = tuple(range(inst.n_items)) if isinstance(inst, MatchingInstance) else None
    return ComponentPartition(blocks=((tuple(range(n)), items),), certificate="trivial")


class _UnionFind:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
            return True
        return False

    def blocks(self, n_agents):
        """(agents, items) per root, each ascending, where nodes below
        n_agents are agents and node n_agents + j is item j."""
        groups = {}
        for node in range(len(self.parent)):
            agents, items = groups.setdefault(self.find(node), ([], []))
            if node < n_agents:
                agents.append(node)
            else:
                items.append(node - n_agents)
        return [(tuple(agents), tuple(items)) for agents, items in groups.values()]


def _sufficient_partition(m: MatchingInstance) -> ComponentPartition:
    """Finest partition satisfying the strict-preference block condition.

    Grown by forced unions (an agent's top items must sit in her own block,
    and blocks need as many items as agents), then verified; any strictness
    violation merges the offending blocks.  Terminates because merges only
    coarsen.  Always sound: the returned partition is re-verified.
    """
    n = m.n_agents
    uf = _UnionFind(2 * n)  # agents 0..n-1, items n..2n-1

    def item(j):
        return n + j

    for i in range(n):
        row = m.values[i]
        top = max(row)
        for j in range(n):
            if row[j] == top:
                uf.union(i, item(j))

    # uf.blocks also lists blocks of items alone: the first phase skips
    # them, and none is left once it converges (see below)
    changed = True
    while changed:
        changed = False
        for agents, items in uf.blocks(n):
            if len(items) < len(agents):
                # each member's top-|P| items (ties included) must be in the
                # block: an excluded top-k item would beat an included item
                k = len(agents)
                for i in agents:
                    order = sorted(range(n), key=lambda j: (-m.values[i][j], j))
                    cut = m.values[i][order[k - 1]]
                    for j in range(n):
                        if m.values[i][j] >= cut and uf.union(i, item(j)):
                            changed = True
        if changed:
            continue
        # Once every group holds at least as many items as agents, a counting
        # argument leaves no orphan items, but value ties at the cut can make
        # a group item-heavy; it then needs more agents, and the outside agent
        # keenest on its items is the only principled candidate.
        for agents, items in uf.blocks(n):
            if len(items) > len(agents):
                outside = [i for i in range(n) if i not in agents]
                best = max(
                    outside, key=lambda b: max(m.values[b][j] for j in items)
                )
                if uf.union(best, next(iter(items))):
                    changed = True
        if changed:
            continue
        # global strictness verification
        for agents, items in uf.blocks(n):
            for i in agents:
                worst_in = min(m.values[i][j] for j in items)
                for j in range(n):
                    if j not in items and m.values[i][j] >= worst_in:
                        if uf.union(i, item(j)):
                            changed = True
    blocks = sorted(uf.blocks(n))
    if any(len(a) != len(it) for a, it in blocks):
        raise AssertionError("sufficient partition has an unbalanced block")
    return ComponentPartition(blocks=tuple(blocks), certificate="sufficient")


def _pareto_front(vectors: List[Tuple]) -> List[Tuple]:
    """The distinct Pareto-optimal vectors, in descending order of sum.

    A vector can only be dominated by one with a larger sum, so each is
    checked against the front found so far, which never loses a member.
    """
    front: List[Tuple] = []
    for v in sorted(set(vectors), key=sum, reverse=True):
        if not any(all(x >= y for x, y in zip(f, v)) for f in front):
            front.append(v)
    return front


def _exact_matching_blocks(m: MatchingInstance, agents, items):
    """Components of one sub-block: each agent joins every item she wants in
    a group `_serial_walk` yields, an edge of some matching of that group by
    Hall's theorem (with strict rows, Abdulkadiroglu & Sonmez 1998)."""
    k = len(agents)
    uf = _UnionFind(2 * k)
    tiers = _value_tiers(m.restrict(agents, items).values, k)
    for group, wanted, _orders in _serial_walk(tiers, k):
        for pos, mask in zip(group, wanted):
            for col in _bits(mask):
                uf.union(pos, k + col)
    return [
        (tuple(agents[p] for p in a), tuple(items[p] for p in it)) for a, it in uf.blocks(k)
    ]


# each block walks the serial-dictatorship states of its agents; a larger
# matching keeps the sufficient partition.  README gives the time at 10 agents
MAX_EXACT_COMPONENT_AGENTS = 10


def find_components_matching(m: MatchingInstance) -> ComponentPartition:
    """Minimal independent components of a square matching instance."""
    if not m.is_square:
        raise ValueError("component detection requires a square instance")
    fast = _sufficient_partition(m)
    if m.n_agents > MAX_EXACT_COMPONENT_AGENTS:
        return fast
    blocks = []
    for agents, items in fast.blocks:
        blocks.extend(_exact_matching_blocks(m, agents, items))
    return ComponentPartition(blocks=tuple(sorted(blocks)), certificate="exact")


@dataclass(frozen=True)
class ComponentVerdict:
    ok: bool
    witness: Optional[Tuple] = None  # (alternative A, alternative B)

    def __bool__(self):
        return self.ok


MAX_VERIFY_ASSIGNMENTS = math.factorial(8)


def _as_general(inst) -> Instance:
    """View a matching instance as a general one, an alternative per
    assignment of the n agents to distinct items: m!/(m-n)! of them, at
    most `MAX_VERIFY_ASSIGNMENTS` = 8!, which `verify_component` lists."""
    if isinstance(inst, Instance):
        return inst
    if math.perm(inst.n_items, inst.n_agents) > MAX_VERIFY_ASSIGNMENTS:
        raise BoundExceededError("assignment enumeration bound exceeded")
    assigns = list(permutations(range(inst.n_items), inst.n_agents))
    return Instance(
        alternative_ids=tuple(
            "-".join(str(j) for j in perm) for perm in assigns
        ),
        values=tuple(
            tuple(inst.values[i][perm[i]] for perm in assigns)
            for i in range(inst.n_agents)
        ),
        agent_ids=inst.agent_ids,
    )


def verify_component(inst, S: Sequence[int]) -> ComponentVerdict:
    """Is S an independent component?

    Enumerates alternatives Pareto-optimal for S and for its complement;
    S is a component when every cross pair (A, B) is realized valuewise by
    some single alternative C.  Matching instances are expanded into one
    alternative per assignment first.
    """
    inst = _as_general(inst)
    n = inst.n_agents
    inside = sorted(set(S))
    outside = [i for i in range(n) if i not in set(S)]
    if not outside:
        return ComponentVerdict(True)
    n_alts = inst.n_alternatives
    vec_in = [tuple(inst.values[i][a] for i in inside) for a in range(n_alts)]
    vec_out = [tuple(inst.values[i][a] for i in outside) for a in range(n_alts)]
    po_in = sorted(_pareto_front(vec_in))
    po_out = sorted(_pareto_front(vec_out))
    realized = {(vec_in[a], vec_out[a]) for a in range(n_alts)}
    for va in po_in:
        for vb in po_out:
            if (va, vb) not in realized:
                ia = vec_in.index(va)
                ib = vec_out.index(vb)
                return ComponentVerdict(False, (inst.alternative_ids[ia], inst.alternative_ids[ib]))
    return ComponentVerdict(True)


# 2^n candidate blocks, each a Pareto scan of every alternative; a larger
# instance gets the trivial partition
MAX_GENERAL_COMPONENT_AGENTS = 6


def find_components_general(inst: Instance) -> ComponentPartition:
    """Minimal certified components of a general instance (small n only)."""
    n = inst.n_agents
    if n > MAX_GENERAL_COMPONENT_AGENTS:
        return trivial_partition(inst)
    full = (1 << n) - 1
    certified = [mask for mask in range(1, full) if verify_component(inst, agents_of(mask))]
    certified.sort(key=int.bit_count)
    used = 0
    blocks = []
    for mask in certified:
        if mask & used:
            continue
        blocks.append(agents_of(mask))
        used |= mask
    rest = agents_of(full & ~used)
    if rest:
        if len(rest) < n and not verify_component(inst, rest):
            return trivial_partition(inst)
        blocks.append(rest)
    return ComponentPartition(
        blocks=tuple((b, None) for b in sorted(blocks)), certificate="exact"
    )


def find_components(inst) -> ComponentPartition:
    if isinstance(inst, MatchingInstance):
        if inst.is_square:
            return find_components_matching(inst)
        return trivial_partition(inst)
    return find_components_general(inst)


@dataclass(frozen=True)
class WeakVerdict:
    ok: bool
    block: Optional[Tuple[int, ...]] = None
    net_transfer: Optional[Fraction] = None

    def __bool__(self):
        return self.ok


def check_weak_decomposability(
    inst, partition: ComponentPartition, sol: Solution
) -> WeakVerdict:
    """Net transfer into every block must be zero."""
    for agents, _items in partition.blocks:
        net = sum((sol.transfers[i] for i in agents), Fraction(0))
        if net != 0:
            return WeakVerdict(False, tuple(agents), net)
    return WeakVerdict(True)
