"""Independent components and weak/strong decomposability verdicts.

A block (P, M) of a matching instance is an independent component when
every Pareto-optimal assignment matches P's agents inside M.  The exact
path enumerates Pareto-optimal assignments; the fast path certifies a
partition through the sufficient condition that every agent strictly
prefers all of her block's items to every item outside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import List, Optional, Sequence, Tuple

from .model import (
    BoundExceededError,
    DisagreementPoint,
    Instance,
    MatchingInstance,
    Solution,
    enumeration_bound,
)
from .welfare import SetFunctionOracle


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

    def agent_groups():
        groups = {}
        for i in range(n):
            groups.setdefault(uf.find(i), [set(), set()])[0].add(i)
        for j in range(n):
            root = uf.find(item(j))
            if root in groups:
                groups[root][1].add(j)
        return groups

    changed = True
    while changed:
        changed = False
        for agents, items in agent_groups().values():
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
        for agents, items in agent_groups().values():
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
        for agents, items in agent_groups().values():
            for i in agents:
                worst_in = min(m.values[i][j] for j in items)
                for j in range(n):
                    if j not in items and m.values[i][j] >= worst_in:
                        if uf.union(i, item(j)):
                            changed = True
    groups = {}
    for i in range(n):
        groups.setdefault(uf.find(i), [set(), set()])[0].add(i)
    for j in range(n):
        groups.setdefault(uf.find(item(j)), [set(), set()])[1].add(j)
    blocks = sorted(
        (tuple(sorted(a)), tuple(sorted(it))) for a, it in groups.values()
    )
    if any(len(a) != len(it) for a, it in blocks):
        raise AssertionError("sufficient partition has an unbalanced block")
    return ComponentPartition(blocks=tuple(blocks), certificate="sufficient")


def _pareto_front(vectors: List[Tuple]) -> List[int]:
    """Indices of Pareto-optimal vectors (duplicates all kept)."""

    def dominates(a, b):
        return all(x >= y for x, y in zip(a, b)) and a != b

    frontier: List[int] = []
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


def _exact_matching_blocks(m: MatchingInstance, agents, items):
    """Components of one sub-block by Pareto-optimal assignment enumeration."""
    agents = list(agents)
    items = list(items)
    k = len(agents)
    assigns = list(permutations(items))
    vectors = [
        tuple(m.values[a][perm[pos]] for pos, a in enumerate(agents))
        for perm in assigns
    ]
    front = _pareto_front(vectors)
    uf = _UnionFind(2 * k)
    pos_of = {j: p for p, j in enumerate(items)}
    for idx in front:
        perm = assigns[idx]
        for pos in range(k):
            uf.union(pos, k + pos_of[perm[pos]])
    groups = {}
    for pos in range(k):
        groups.setdefault(uf.find(pos), [set(), set()])[0].add(agents[pos])
    for pos in range(k):
        groups.setdefault(uf.find(k + pos), [set(), set()])[1].add(items[pos])
    return [(tuple(sorted(a)), tuple(sorted(it))) for a, it in groups.values()]


def find_components_matching(m: MatchingInstance) -> ComponentPartition:
    """Minimal independent components of a square matching instance."""
    if not m.is_square:
        raise ValueError("component detection requires a square instance")
    fast = _sufficient_partition(m)
    if m.n_agents > enumeration_bound("components_exact"):
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


def _as_general(inst) -> Instance:
    """View a matching instance as a general one, an alternative per
    assignment of the n agents to distinct items."""
    if isinstance(inst, Instance):
        return inst
    if inst.n_agents > enumeration_bound("components_exact"):
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
    po_in = sorted({vec_in[a] for a in _pareto_front(vec_in)})
    po_out = sorted({vec_out[a] for a in _pareto_front(vec_out)})
    realized = {(vec_in[a], vec_out[a]) for a in range(n_alts)}
    for va in po_in:
        for vb in po_out:
            if (va, vb) not in realized:
                ia = vec_in.index(va)
                ib = vec_out.index(vb)
                return ComponentVerdict(False, (inst.alternative_ids[ia], inst.alternative_ids[ib]))
    return ComponentVerdict(True)


def find_components_general(inst: Instance) -> ComponentPartition:
    """Minimal certified components of a general instance (small n only)."""
    n = inst.n_agents
    if n > enumeration_bound("components_general"):
        return trivial_partition(inst)
    certified = [
        mask
        for mask in range(1, (1 << n) - 1)
        if verify_component(inst, [i for i in range(n) if mask & (1 << i)])
    ]
    certified.sort(key=lambda m: bin(m).count("1"))
    used = 0
    blocks = []
    for mask in certified:
        if mask & used:
            continue
        blocks.append(tuple(i for i in range(n) if mask & (1 << i)))
        used |= mask
    rest = tuple(i for i in range(n) if not used & (1 << i))
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


@dataclass(frozen=True)
class StrongVerdict:
    ok: bool
    agent: Optional[int] = None
    u_whole: Optional[Fraction] = None
    u_component: Optional[Fraction] = None

    def __bool__(self):
        return self.ok


def check_strong_decomposability(
    mechanism: str,
    inst,
    partition: ComponentPartition,
    disagreement_mode: str = "rp",
) -> StrongVerdict:
    """Run the mechanism whole and per block; utilities must agree exactly.

    The disagreement point is recomputed on each restricted instance with
    the same mode (only deterministic modes are meaningful here).
    """
    from .rivals import compute_disagreement, run_mechanism

    d_whole = compute_disagreement(inst, disagreement_mode)
    whole = run_mechanism(mechanism, SetFunctionOracle(inst), d_whole)
    for agents, items in partition.blocks:
        if isinstance(inst, MatchingInstance):
            sub = inst.restrict(agents, items)
        else:
            sub = inst.restrict_agents(agents)
        d_sub = compute_disagreement(sub, disagreement_mode)
        part = run_mechanism(mechanism, SetFunctionOracle(sub), d_sub)
        for pos, agent in enumerate(agents):
            if whole.utilities[agent] != part.utilities[pos]:
                return StrongVerdict(
                    False,
                    agent=agent,
                    u_whole=whole.utilities[agent],
                    u_component=part.utilities[pos],
                )
    return StrongVerdict(True)
