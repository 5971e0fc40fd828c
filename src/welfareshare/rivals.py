"""Comparison mechanisms and the per-mechanism report harness."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict

from .core import (
    EQ,
    GE,
    EmptyCoreError,
    check_anticore,
    check_domination,
    lexicographic_maxmin,
    ws_core_nonempty,
)
from .egalitarian import solve_lexmax
from .model import (
    BoundExceededError,
    DisagreementPoint,
    MatchingInstance,
    Solution,
    enumeration_bound,
)
from .welfare import SetFunctionOracle, _indicator, agents_of, dual, wpi


def _solution_from_utilities(o: SetFunctionOracle, utilities, mechanism: str) -> Solution:
    alt = o.wmax_argmax(range(o.n_agents))
    return Solution.build(alt, o.values_at(alt), utilities, mechanism)


def shapley(o: SetFunctionOracle) -> Solution:
    """Subset-weighted closed form: n * 2^n oracle evaluations."""
    n = o.n_agents
    if n > enumeration_bound("shapley"):
        raise BoundExceededError("shapley enumeration bound exceeded")
    fact = [math.factorial(k) for k in range(n + 1)]
    denom = fact[n]
    phi = [Fraction(0)] * n
    for mask in range(1 << n):
        size = bin(mask).count("1")
        base = o.wmax_mask(mask)
        weight = Fraction(fact[size] * fact[n - 1 - size], denom) if size < n else None
        if weight is None:
            continue
        for i in range(n):
            bit = 1 << i
            if mask & bit:
                continue
            phi[i] += weight * (o.wmax_mask(mask | bit) - base)
    return _solution_from_utilities(o, phi, "shapley")


def ef_maxmin(o: SetFunctionOracle) -> Solution:
    """Envy-free item transfers maximizing the minimum utility.

    The assignment is fixed to the lexicographically smallest max-weight
    matching; the transfer vector q (one entry per item, summing to zero)
    must make every agent weakly prefer her own item.  Among max-min
    optimal q a lexicographic max-min refinement pins the output.
    """
    m = o.backing
    if not m.is_square:
        raise ValueError("ef_maxmin requires a square matching instance")
    n = m.n_agents
    sigma = o.wmax_argmax(range(n))
    rows = [([Fraction(1)] * n, EQ, Fraction(0))]
    for i in range(n):
        mine = sigma[i]
        for j in range(n):
            if j == mine:
                continue
            row = [Fraction(0)] * n
            row[mine] += Fraction(1)
            row[j] -= Fraction(1)
            rows.append((row, GE, m.values[i][j] - m.values[i][mine]))
    exprs = [(_indicator(1 << sigma[i], n), m.values[i][sigma[i]]) for i in range(n)]
    levels, q = lexicographic_maxmin(n, rows, exprs)
    transfers = tuple(q[sigma[i]] for i in range(n))
    return Solution(
        alternative=sigma, transfers=transfers, utilities=tuple(levels), mechanism="ef-maxmin"
    )


def ks_bargaining(o: SetFunctionOracle, d: DisagreementPoint) -> Solution:
    """Kalai-Smorodinsky: move from d toward the best-utility point
    b_i = W_max({i}) until the frontier sum u = W_max(N) is hit."""
    n = o.n_agents
    b = [o.wmax_mask(1 << i) for i in range(n)]
    sum_b = sum(b, Fraction(0))
    sum_d = d.total()
    if sum_b == sum_d:
        u = d.utilities
    else:
        t = (o.wmax_mask(o.full_mask) - sum_d) / (sum_b - sum_d)
        u = tuple(d[i] + t * (b[i] - d[i]) for i in range(n))
    return _solution_from_utilities(o, u, "ks")


def nash_bargaining(o: SetFunctionOracle, d: DisagreementPoint) -> Solution:
    """With transferable utility the Nash solution splits the surplus equally."""
    n = o.n_agents
    surplus = o.wmax_mask(o.full_mask) - d.total()
    u = tuple(d[i] + surplus / n for i in range(n))
    return _solution_from_utilities(o, u, "nash")


def nucleolus_ws(o: SetFunctionOracle, d: DisagreementPoint) -> Solution:
    """Nucleolus against g(S) = max(D(S), sum of d over S).

    The lexicographic max-min of the excesses u(S) - g(S) over nonempty
    proper S, subject to u(N) = W_max(N).  Once every excess is fixed the
    singletons pin u.
    """
    if not ws_core_nonempty(o, d):
        raise EmptyCoreError("WS-core is empty")
    n = o.n_agents
    full = o.full_mask
    exprs = []
    for mask in range(1, full):
        members = agents_of(mask)
        g = max(dual(o, members), wpi(d, members))
        exprs.append((_indicator(mask, n), -g))
    _, u = lexicographic_maxmin(n, [([1] * n, EQ, o.wmax_mask(full))], exprs)
    return _solution_from_utilities(o, u, "nucleolus-ws")


# ---------------------------------------------------------------------------
# Mechanism dispatch and reporting
# ---------------------------------------------------------------------------

MECHANISMS = ("lexmax", "shapley", "ef-maxmin", "ks", "nash", "nucleolus-ws")


class IncompatibleOptionsError(ValueError):
    pass


def compute_disagreement(
    inst,
    mode: str,
    seed: int = 0,
    samples: int = 100_000,
    explicit=None,
) -> DisagreementPoint:
    from . import disagreement as dis

    if mode == "explicit":
        if explicit is None:
            raise IncompatibleOptionsError("explicit disagreement needs utilities")
        return DisagreementPoint(utilities=tuple(explicit), provenance="explicit")
    if mode == "uniform":
        return dis.uniform(inst)
    if not isinstance(inst, MatchingInstance) or not inst.is_square:
        raise IncompatibleOptionsError(f"--disagreement {mode} needs a square matching instance")
    if mode == "rp":
        try:
            return dis.rp_exact(inst)
        except BoundExceededError as exc:
            raise IncompatibleOptionsError(
                f"--disagreement rp enumerates at most {enumeration_bound('rp_exact')}"
                f" agents, this instance has {inst.n_agents}; use --disagreement rp-mc"
            ) from exc
    if mode == "rp-mc":
        return dis.rp_montecarlo(inst, samples=samples, seed=seed)
    if mode == "eating":
        return dis.eating(inst)[1]
    raise IncompatibleOptionsError(f"unknown disagreement mode {mode!r}")


def run_mechanism(tag: str, o: SetFunctionOracle, d: DisagreementPoint) -> Solution:
    inst = o.backing
    if tag == "lexmax":
        return solve_lexmax(o, d)[0]
    if tag == "shapley":
        return shapley(o)
    if tag == "ef-maxmin":
        if not isinstance(inst, MatchingInstance) or not inst.is_square:
            raise IncompatibleOptionsError("ef-maxmin needs a square matching instance")
        return ef_maxmin(o)
    if tag == "ks":
        return ks_bargaining(o, d)
    if tag == "nash":
        return nash_bargaining(o, d)
    if tag == "nucleolus-ws":
        return nucleolus_ws(o, d)
    raise IncompatibleOptionsError(f"unknown mechanism {tag!r}")


@dataclass(frozen=True)
class MechanismReport:
    mechanism: str
    solution: Solution
    flags: Dict[str, bool]


def mechanism_report(
    o: SetFunctionOracle, tag: str, d: DisagreementPoint, partition=None
) -> MechanismReport:
    """Run one mechanism and attach the standard property flags."""
    from . import decompose

    inst = o.backing
    sol = run_mechanism(tag, o, d)
    u = sol.utilities
    if partition is None:
        partition = decompose.find_components(inst)
    flags = {
        "in_anticore": bool(check_anticore(o, u)),
        "dominates_disagreement": bool(check_domination(u, d)),
        "reasonable_from_above": all(
            u[i] <= o.wmax_mask(1 << i) for i in range(o.n_agents)
        ),
        "weakly_decomposable": bool(
            decompose.check_weak_decomposability(inst, partition, sol)
        ),
    }
    return MechanismReport(mechanism=tag, solution=sol, flags=flags)
