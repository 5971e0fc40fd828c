"""Set-function layer: W_max oracles, the dual D, W_pi, submodularity check.

Agent subsets are represented as bitmasks internally; the public API accepts
any iterable of agent indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Tuple

from .model import (
    BoundExceededError,
    DisagreementPoint,
    Instance,
    MatchingInstance,
    enumeration_bound,
)


def mask_of(agents: Iterable[int]) -> int:
    m = 0
    for i in agents:
        m |= 1 << i
    return m


def agents_of(mask: int) -> Tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def iter_nonempty_masks(n: int):
    return range(1, 1 << n)


class SetFunctionOracle:
    """Evaluates W_max on agent subsets with transparent memoization.

    Backings: a general Instance (max over alternatives) or a
    MatchingInstance (max-weight matching of the subset into the item set;
    every agent in the subset must be matched, negative values allowed).
    """

    def __init__(self, backing):
        self.backing = backing
        if isinstance(backing, Instance):
            self.kind = "general"
        elif isinstance(backing, MatchingInstance):
            self.kind = "matching"
        else:
            raise TypeError(f"unsupported backing {type(backing)!r}")
        self.n_agents = backing.n_agents
        self._memo = {0: Fraction(0)}

    @property
    def full_mask(self) -> int:
        return (1 << self.n_agents) - 1

    def wmax_mask(self, mask: int) -> Fraction:
        got = self._memo.get(mask)
        if got is not None:
            return got
        if self.kind == "general":
            val = max(
                sum((self.backing.values[i][a] for i in agents_of(mask)), Fraction(0))
                for a in range(self.backing.n_alternatives)
            )
        else:
            val = self._matching_wmax(mask)
        self._memo[mask] = val
        return val

    def _matching_wmax(self, mask: int) -> Fraction:
        # DP over item subsets: best total value after placing a prefix of
        # the subset's agents, keyed by the set of items used.
        rows = [self.backing.values[i] for i in agents_of(mask)]
        m = self.backing.n_items
        states = {0: Fraction(0)}
        for row in rows:
            nxt = {}
            for used, tot in states.items():
                for j in range(m):
                    bit = 1 << j
                    if used & bit:
                        continue
                    cand = tot + row[j]
                    key = used | bit
                    old = nxt.get(key)
                    if old is None or cand > old:
                        nxt[key] = cand
            states = nxt
        return max(states.values())

    def wmax(self, agents: Iterable[int]) -> Fraction:
        return self.wmax_mask(mask_of(agents))

    def wmax_argmax(self, agents: Iterable[int]):
        """A welfare-maximizing alternative index / assignment for the subset.

        Ties: lowest alternative index; for matching, the lexicographically
        smallest item-index vector (ordered by the subset's agent order).
        """
        mask = mask_of(agents)
        if self.kind == "general":
            best = self.wmax_mask(mask)
            members = agents_of(mask)
            for a in range(self.backing.n_alternatives):
                if sum((self.backing.values[i][a] for i in members), Fraction(0)) == best:
                    return a
            raise AssertionError("argmax not found")
        return self._matching_argmax(mask)

    def _matching_argmax(self, mask: int) -> Tuple[int, ...]:
        members = agents_of(mask)
        rows = [self.backing.values[i] for i in members]
        m = self.backing.n_items
        k = len(members)
        memo = {}

        def best(pos: int, used: int) -> Fraction:
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

    def values_at(self, alternative) -> Tuple[Fraction, ...]:
        """Per-agent value of a full-set alternative id / assignment."""
        if self.kind == "general":
            return tuple(row[alternative] for row in self.backing.values)
        return tuple(
            self.backing.values[i][alternative[i]] for i in range(self.n_agents)
        )


def wmax(o: SetFunctionOracle, S: Iterable[int]) -> Fraction:
    return o.wmax(S)


def wmax_argmax(o: SetFunctionOracle, S: Iterable[int]):
    return o.wmax_argmax(S)


def dual(o: SetFunctionOracle, S: Iterable[int]) -> Fraction:
    """D(S) = W_max(N) - W_max(N minus S)."""
    mask = mask_of(S)
    return o.wmax_mask(o.full_mask) - o.wmax_mask(o.full_mask & ~mask)


def wpi(d: DisagreementPoint, S: Iterable[int]) -> Fraction:
    return sum((d[i] for i in S), Fraction(0))


@dataclass(frozen=True)
class SubmodularityVerdict:
    is_submodular: bool
    witness: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None  # (S, T)

    def __bool__(self):
        return self.is_submodular


def is_submodular(o: SetFunctionOracle) -> SubmodularityVerdict:
    """Exhaustive marginal check; witness reported as a violating (S, T) pair.

    Checks f(S+i) - f(S) >= f(S+j+i) - f(S+j) for all i != j and
    S avoiding both; a violation is returned as the set pair
    (S+i+j without j, S+i+j without i) whose sums break submodularity:
    f(S+i) + f(S+j) < f(S) + f(S+i+j).
    """
    n = o.n_agents
    if n > enumeration_bound("submodular"):
        raise BoundExceededError("submodularity check exceeds enumeration bound")
    for base in range(1 << n):
        for i in range(n):
            if base & (1 << i):
                continue
            for j in range(i + 1, n):
                if base & (1 << j):
                    continue
                si = base | (1 << i)
                sj = base | (1 << j)
                both = si | (1 << j)
                if o.wmax_mask(si) + o.wmax_mask(sj) < o.wmax_mask(base) + o.wmax_mask(both):
                    return SubmodularityVerdict(False, (agents_of(si), agents_of(sj)))
    return SubmodularityVerdict(True)
