"""Lexmax welfare sharing: water filling, LP fallback, fairness diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .core import EQ, LE, EmptyCoreError, InfeasibleError, lexicographic_maxmin
from .model import BoundExceededError, DisagreementPoint, MatchingInstance, Solution
from .welfare import SetFunctionOracle, _indicator, _subset_sums, agents_of, is_submodular


@dataclass(frozen=True)
class WaterFillingTrace:
    # each iteration: (increment, newly locked agents, newly tight sets);
    # tight sets carry their W_max value for reconstruction
    iterations: tuple
    initially_locked: tuple
    initial_tight: tuple  # (agents, W_max value) pairs tight at the start
    final_utilities: tuple
    exhausted: bool


def water_filling(
    o: SetFunctionOracle, d: DisagreementPoint
) -> Tuple[Optional[Solution], WaterFillingTrace]:
    """Raise all free agents uniformly until anticore constraints lock them.

    Starts by checking d(S) <= W_max(S) for every coalition S and raises
    EmptyCoreError otherwise.  When W_max is submodular that check is exact
    (the WS-core is nonempty iff it passes, Shapley 1971), and water filling
    then exhausts the welfare at the lexmax solution.  On other inputs it
    may halt early, in which case the trace reports exhausted=False and no
    Solution is produced (a non-exhausted utility vector cannot be budget
    balanced).
    """
    n = o.n_agents
    u = list(d.utilities)
    masks = range(1, 1 << n)
    # gap[S] = W_max(S) - u(S), the one slack table; S is tight at gap 0
    gap = [o.wmax_mask(m) - total for m, total in enumerate(_subset_sums(u))]
    if any(g < 0 for g in gap):
        raise EmptyCoreError("WS-core is empty")

    def tight_sets(found):
        return tuple(
            (agents_of(m), o.wmax_mask(m))
            for m in sorted(found, key=lambda m: (m.bit_count(), m))
        )

    tight = [m for m in masks if not gap[m]]
    init_locked = 0
    for m in tight:
        init_locked |= m
    free = o.full_mask & ~init_locked
    iterations = []
    while free:
        best = min(gap[m] / (m & free).bit_count() for m in masks if m & free)
        for i in agents_of(free):
            u[i] += best
        new_sets, locked = [], 0
        for m in masks:
            if m & free:
                gap[m] -= best * (m & free).bit_count()
                if not gap[m]:
                    new_sets.append(m)
                    locked |= m
        if not locked:
            raise AssertionError("water filling locked no agent")
        iterations.append((best, agents_of(free & locked), tight_sets(new_sets)))
        free &= ~locked

    trace = WaterFillingTrace(
        iterations=tuple(iterations),
        initially_locked=agents_of(init_locked),
        initial_tight=tight_sets(tight),
        final_utilities=tuple(u),
        exhausted=not gap[o.full_mask],
    )
    if not trace.exhausted:
        return None, trace
    return o.solution(u, "lexmax"), trace


def solve_lexmax(
    o: SetFunctionOracle, d: DisagreementPoint
) -> Tuple[Solution, Optional[WaterFillingTrace]]:
    """The lexmax solution, and the water-filling trace when it decided.

    Water filling runs only when W_max is submodular, where its start check
    decides emptiness and it exhausts the welfare; otherwise the LP fallback
    decides, its first LP infeasible exactly when the WS-core is empty, and
    the trace is None.  Either path raises EmptyCoreError on an empty core.
    """
    if _submodular(o):
        sol, trace = water_filling(o, d)
        if sol is not None:
            return sol, trace
    return lexmax_lp(o, d), None


def _submodular(o: SetFunctionOracle) -> bool:
    """Matchings are submodular by construction (Shapley & Shubik 1971;
    Murota 2003); a general instance past the check's bound counts as not."""
    if isinstance(o.backing, MatchingInstance):
        return True
    try:
        return bool(is_submodular(o))
    except BoundExceededError:
        return False


def lexmax_lp(o: SetFunctionOracle, d: DisagreementPoint) -> Solution:
    """Lexicographically maximal WS-core point via iterative max-min LPs.

    Lexicographic comparison is over the gains u_i - d_i (the solution is
    defined on the instance normalized so the disagreement point is 0);
    water filling raises gains uniformly and agrees with this whenever it
    certifies.  The rows leave out u >= d: the WS-core is empty, and this
    raises EmptyCoreError, exactly when the smallest gain level is negative.
    """
    n = o.n_agents
    rows = [
        (_indicator(mask, n), EQ if mask == o.full_mask else LE, o.wmax_mask(mask))
        for mask in range(1, 1 << n)
    ]
    exprs = [(_indicator(1 << i, n), -d[i]) for i in range(n)]
    try:
        levels, _ = lexicographic_maxmin(n, rows, exprs)
    except InfeasibleError as exc:
        raise EmptyCoreError("WS-core is empty") from exc
    if min(levels) < 0:
        raise EmptyCoreError("WS-core is empty")
    return o.solution([levels[i] + d[i] for i in range(n)], "lexmax")


def sum_squares(u: Sequence[Fraction]) -> Fraction:
    return sum((Fraction(x) * Fraction(x) for x in u), Fraction(0))


def lorenz_compare(u: Sequence[Fraction], w: Sequence[Fraction]) -> str:
    """Compare by ascending prefix sums; requires equal totals."""
    us = sorted(Fraction(x) for x in u)
    ws = sorted(Fraction(x) for x in w)
    if len(us) != len(ws):
        raise ValueError("length mismatch")
    if sum(us, Fraction(0)) != sum(ws, Fraction(0)):
        raise ValueError("Lorenz comparison requires equal totals")
    u_ge = w_ge = True
    pu = pw = Fraction(0)
    for a, b in zip(us, ws):
        pu += a
        pw += b
        if pu < pw:
            u_ge = False
        if pw < pu:
            w_ge = False
    if u_ge and w_ge:
        return "equal"
    if u_ge:
        return "u_dominates"
    if w_ge:
        return "w_dominates"
    return "incomparable"
