"""Lexmax welfare sharing: water filling, LP fallback, fairness diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .core import (
    EQ,
    GE,
    LE,
    EmptyCoreError,
    InfeasibleError,
    LinearProgram,
    lexicographic_maxmin,
    simplex_solve,
    ws_core_nonempty,
)
from .model import BoundExceededError, DisagreementPoint, MatchingInstance, Solution
from .welfare import SetFunctionOracle, _indicator, agents_of, is_submodular


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

    Guaranteed to exhaust the welfare (and equal the lexmax solution) when
    W_max is submodular; on other inputs it may halt early, in which case
    the trace reports exhausted=False and no Solution is produced (a
    non-exhausted utility vector cannot be budget balanced).  Raises
    EmptyCoreError when d lies outside the anticore.
    """
    n = o.n_agents
    full = o.full_mask
    u = list(d.utilities)
    masks = list(range(1, 1 << n))
    wvals = {m: o.wmax_mask(m) for m in masks}

    def subset_total(mask: int) -> Fraction:
        return sum((u[i] for i in agents_of(mask)), Fraction(0))

    def tight_masks():
        return {m for m in masks if subset_total(m) == wvals[m]}

    free = full
    tight_before = tight_masks()
    init_locked = 0
    for m in tight_before:
        init_locked |= m
    free &= ~init_locked
    initial_tight = tuple(
        (agents_of(m), wvals[m])
        for m in sorted(tight_before, key=lambda m: (bin(m).count("1"), m))
    )

    iterations = []
    while free:
        best = None
        for m in masks:
            overlap = bin(m & free).count("1")
            if not overlap:
                continue
            cand = (wvals[m] - subset_total(m)) / overlap
            if best is None or cand < best:
                best = cand
        if best <= 0:
            # only at the start, from u = d: some S has d(S) > W_max(S)
            raise EmptyCoreError("WS-core is empty: disagreement point outside the anticore")
        for i in agents_of(free):
            u[i] += best
        now_tight = tight_masks()
        new_sets = sorted(now_tight - tight_before, key=lambda m: (bin(m).count("1"), m))
        locked = 0
        for m in now_tight:
            locked |= m
        newly_locked = agents_of(free & locked)
        if not newly_locked:
            raise AssertionError("water filling locked no agent")
        iterations.append(
            (
                best,
                newly_locked,
                tuple((agents_of(m), wvals[m]) for m in new_sets),
            )
        )
        free &= ~locked
        tight_before = now_tight

    total = sum(u, Fraction(0))
    exhausted = total == wvals[full] if n else True
    trace = WaterFillingTrace(
        iterations=tuple(iterations),
        initially_locked=agents_of(init_locked),
        initial_tight=initial_tight,
        final_utilities=tuple(u),
        exhausted=exhausted,
    )
    if not exhausted:
        return None, trace
    alt = o.wmax_argmax(range(n))
    sol = Solution.build(alt, o.values_at(alt), u, "lexmax")
    return sol, trace


def solve_lexmax(
    o: SetFunctionOracle, d: DisagreementPoint
) -> Tuple[Solution, Optional[WaterFillingTrace]]:
    """The lexmax solution, and the water-filling trace when it decided.

    Water filling runs only when W_max is submodular, where it exhausts the
    welfare; otherwise the LP fallback decides and the trace is None.
    """
    if not ws_core_nonempty(o, d):
        raise EmptyCoreError("WS-core is empty")
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


def ws_core_constraints(o: SetFunctionOracle, d: DisagreementPoint):
    """Constraint rows over the n utility variables defining the WS-core."""
    n = o.n_agents
    rows = [
        (_indicator(mask, n), EQ if mask == o.full_mask else LE, o.wmax_mask(mask))
        for mask in range(1, 1 << n)
    ]
    return rows + [(_indicator(1 << i, n), GE, d[i]) for i in range(n)]


def lexmax_lp(o: SetFunctionOracle, d: DisagreementPoint) -> Solution:
    """Lexicographically maximal WS-core point via iterative max-min LPs.

    Lexicographic comparison is over the gains u_i - d_i (the solution is
    defined on the instance normalized so the disagreement point is 0);
    water filling raises gains uniformly and agrees with this whenever it
    certifies.
    """
    n = o.n_agents
    rows = ws_core_constraints(o, d)
    exprs = [(_indicator(1 << i, n), -d[i]) for i in range(n)]
    try:
        levels, _ = lexicographic_maxmin(n, rows, exprs)
    except InfeasibleError as exc:
        raise EmptyCoreError("WS-core is empty") from exc
    u = [levels[i] + d[i] for i in range(n)]
    alt = o.wmax_argmax(range(n))
    return Solution.build(alt, o.values_at(alt), u, "lexmax")


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


def sample_ws_core_point(
    o: SetFunctionOracle, d: DisagreementPoint, objective: Sequence[Fraction]
):
    """A WS-core point maximizing an arbitrary linear objective (exact)."""
    rows = ws_core_constraints(o, d)
    res = simplex_solve(
        LinearProgram(o.n_agents, list(objective), rows, maximize=True)
    )
    if res.status != "optimal":
        raise EmptyCoreError("WS-core is empty or unbounded")
    return res.point


def reconstruct_from_trace(trace: WaterFillingTrace, d: DisagreementPoint):
    """Rebuild the final utilities from the recorded tight sets alone.

    Tight sets are processed in discovery order; within each set the agents
    not yet pinned split the residual welfare equally above their
    disagreement utilities.  Any agents left at the end split what remains
    of the grand-coalition welfare the same way.
    """
    n = len(d.utilities)
    u: dict = {}
    ordered = list(trace.initial_tight)
    for _, _, sets in trace.iterations:
        ordered.extend(sets)
    for members, value in ordered:
        fresh = [i for i in members if i not in u]
        if not fresh:
            continue
        residual = value - sum((u[i] for i in members if i in u), Fraction(0))
        lift = (residual - sum((d[i] for i in fresh), Fraction(0))) / len(fresh)
        for i in fresh:
            u[i] = d[i] + lift
    for i in range(n):
        if i not in u:
            u[i] = trace.final_utilities[i]
    return tuple(u[i] for i in range(n))
