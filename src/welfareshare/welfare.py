"""Set-function layer: W_max oracles, the dual D, W_pi, submodularity check.

Agent subsets are represented as bitmasks internally; the public API accepts
any iterable of agent indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Tuple

from .model import BoundExceededError, DisagreementPoint, Instance, MatchingInstance, Solution


def mask_of(agents: Iterable[int]) -> int:
    m = 0
    for i in agents:
        m |= 1 << i
    return m


# _bits, _subset_sums and _indicator are private so that bench/tracer.py
# gives their calls no span: they run thousands of times per CLI call.


def _bits(mask: int):
    """The indices of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def agents_of(mask: int) -> Tuple[int, ...]:
    return tuple(_bits(mask))


def _subset_sums(weights) -> list:
    """sums[mask] = the sum of `weights` over mask's agents, for every mask,
    in one low-bit pass."""
    sums = [Fraction(0)] * (1 << len(weights))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + weights[low.bit_length() - 1]
    return sums


def _indicator(mask: int, n: int) -> list:
    """The 0/1 row of mask's agents over n agents."""
    return [Fraction(mask >> i & 1) for i in range(n)]


# a table has 2^n entries; README gives a build's time and memory at 18 agents
MAX_TABLE_AGENTS = 18


class SetFunctionOracle:
    """W_max and its argmax on every agent subset, from one dense table.

    Backings: a general Instance (max over alternatives) or a
    MatchingInstance (max-weight matching of the subset into the item set;
    every agent in the subset must be matched, negative values allowed).
    The first query builds the table for all 2^n subsets, in O(A * 2^n)
    additions for A alternatives or O(m * n * 2^n) for m items, or raises
    BoundExceededError past MAX_TABLE_AGENTS agents; later queries look up.
    """

    def __init__(self, backing):
        if not isinstance(backing, (Instance, MatchingInstance)):
            raise TypeError(f"unsupported backing {type(backing)!r}")
        self.kind = "general" if isinstance(backing, Instance) else "matching"
        self.backing = backing
        self.n_agents = backing.n_agents
        # mask -> W_max; a dict, not the builder's list, only for the
        # memo-miss test in bench/tracer.py
        self._memo = {}
        self._argmax = []  # mask -> argmax

    @property
    def full_mask(self) -> int:
        return (1 << self.n_agents) - 1

    def wmax_mask(self, mask: int) -> Fraction:
        if not self._memo:
            if self.n_agents > MAX_TABLE_AGENTS:
                raise BoundExceededError(
                    f"the W_max table takes at most {MAX_TABLE_AGENTS} agents, not {self.n_agents}"
                )
            build = self._general_table if self.kind == "general" else self._matching_table
            best, self._argmax = build()
            self._memo = dict(enumerate(best))
        return self._memo[mask]

    def _general_table(self):
        # per-alternative subset sums; a tie keeps the lowest alternative
        size = 1 << self.n_agents
        best, arg = [Fraction(0)] + [None] * (size - 1), [0] * size
        for a in range(self.backing.n_alternatives):
            sums = _subset_sums([row[a] for row in self.backing.values])
            for mask in range(1, size):
                if best[mask] is None or sums[mask] > best[mask]:
                    best[mask], arg[mask] = sums[mask], a
        return best, arg

    def _matching_table(self):
        # Items enter one at a time, masks downwards so an item is placed at
        # most once per pass; best[S] and assign[S] (item per agent, -1 outside
        # S) hold S's best assignment so far.  Partial assignments of S share
        # every completion, so keeping the lex-smaller one on a tie is exact.
        n = self.n_agents
        best = [Fraction(0)] + [None] * ((1 << n) - 1)
        assign = [(-1,) * n] * (1 << n)
        for j in range(self.backing.n_items):
            for mask in range((1 << n) - 1, -1, -1):
                if best[mask] is None:
                    continue
                for i in range(n):
                    grown = mask | 1 << i
                    if grown == mask:
                        continue
                    cand, old = best[mask] + self.backing.values[i][j], best[grown]
                    if old is None or cand >= old:
                        a = assign[mask][:i] + (j,) + assign[mask][i + 1 :]
                        if old is None or cand > old or a < assign[grown]:
                            best[grown], assign[grown] = cand, a
        return best, [tuple(j for j in a if j >= 0) for a in assign]

    def wmax(self, agents: Iterable[int]) -> Fraction:
        return self.wmax_mask(mask_of(agents))

    def wmax_argmax(self, agents: Iterable[int]):
        """A welfare-maximizing alternative index / assignment for the subset.

        Ties: lowest alternative index; for matching, the lexicographically
        smallest item-index vector (ordered by the subset's agent order).
        """
        mask = mask_of(agents)
        self.wmax_mask(mask)  # builds the table on first use
        return self._argmax[mask]

    def values_at(self, alternative) -> Tuple[Fraction, ...]:
        """Per-agent value of a full-set alternative id / assignment."""
        if self.kind == "general":
            return tuple(row[alternative] for row in self.backing.values)
        return tuple(self.backing.values[i][j] for i, j in enumerate(alternative))

    def solution(self, utilities, mechanism: str) -> Solution:
        """The full set's welfare-maximizing alternative, with the transfers
        that give each agent her utility."""
        alt = self.wmax_argmax(range(self.n_agents))
        return Solution.build(alt, self.values_at(alt), utilities, mechanism)


def wmax(o: SetFunctionOracle, S: Iterable[int]) -> Fraction:
    return o.wmax(S)


def wmax_argmax(o: SetFunctionOracle, S: Iterable[int]):
    return o.wmax_argmax(S)


def dual(o: SetFunctionOracle, S: Iterable[int]) -> Fraction:
    """D(S) = W_max(N) - W_max(N minus S)."""
    mask = mask_of(S)
    return o.wmax_mask(o.full_mask) - o.wmax_mask(o.full_mask & ~mask)


def wpi(d: DisagreementPoint, S: Iterable[int]) -> Fraction:
    return d.total(S)


# the check scans n * (n - 1) / 2 * 2^(n - 2) pairs; README gives its time at 14
MAX_SUBMODULAR_AGENTS = 14


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
    if n > MAX_SUBMODULAR_AGENTS:
        raise BoundExceededError("submodularity check exceeds enumeration bound")
    for base in range(1 << n):
        for i, j in combinations(_bits(o.full_mask & ~base), 2):
            si, sj = base | 1 << i, base | 1 << j
            if o.wmax_mask(si) + o.wmax_mask(sj) < o.wmax_mask(base) + o.wmax_mask(si | sj):
                return SubmodularityVerdict(False, (agents_of(si), agents_of(sj)))
    return SubmodularityVerdict(True)
