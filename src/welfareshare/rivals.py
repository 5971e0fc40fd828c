"""Comparison mechanisms, the per-mechanism report harness, and the
strong-decomposability check, which runs a mechanism whole and per block."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

from . import disagreement as dis
from .core import (
    EQ,
    GE,
    EmptyCoreError,
    check_anticore,
    check_domination,
    lexicographic_maxmin,
)
from .decompose import ComponentPartition, check_weak_decomposability, find_components
from .egalitarian import solve_lexmax
from .model import BoundExceededError, DisagreementPoint, MatchingInstance, Solution
from .welfare import SetFunctionOracle, _indicator, _subset_sums, agents_of, dual


class IncompatibleOptionsError(ValueError):
    pass


# the closed form reads the 2^n-entry table n times; README gives its time at 14
MAX_SHAPLEY_AGENTS = 14


def shapley(o: SetFunctionOracle) -> Solution:
    """Subset-weighted closed form: n * 2^n oracle evaluations."""
    n = o.n_agents
    if n > MAX_SHAPLEY_AGENTS:
        raise BoundExceededError("shapley enumeration bound exceeded")
    fact = [math.factorial(k) for k in range(n + 1)]
    denom = fact[n]
    phi = [Fraction(0)] * n
    for mask in range(1 << n):
        size = mask.bit_count()
        base = o.wmax_mask(mask)
        weight = Fraction(fact[size] * fact[n - 1 - size], denom) if size < n else None
        if weight is None:
            continue
        for i in range(n):
            bit = 1 << i
            if mask & bit:
                continue
            phi[i] += weight * (o.wmax_mask(mask | bit) - base)
    return o.solution(phi, "shapley")


def ef_maxmin(o: SetFunctionOracle) -> Solution:
    """Envy-free item transfers maximizing the minimum utility.

    The assignment is fixed to the lexicographically smallest max-weight
    matching; the transfer vector q (one entry per item, summing to zero)
    must make every agent weakly prefer her own item.  Among max-min
    optimal q a lexicographic max-min refinement pins the output.
    """
    m = o.backing
    if not isinstance(m, MatchingInstance) or not m.is_square:
        raise IncompatibleOptionsError("ef-maxmin needs a square matching instance")
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
    # agent i's level is v_i(sigma_i) + q[sigma_i] at the returned point, so
    # the transfers that o.solution derives are q's entries
    levels, _ = lexicographic_maxmin(n, rows, exprs)
    return o.solution(levels, "ef-maxmin")


def ks_bargaining(o: SetFunctionOracle, d: DisagreementPoint) -> Solution:
    """Kalai-Smorodinsky: move from d toward the best-utility point
    b_i = W_max({i}) until the frontier sum u = W_max(N) is hit."""
    n = o.n_agents
    b = [o.wmax_mask(1 << i) for i in range(n)]
    sum_b = sum(b, Fraction(0))
    sum_d = d.total()
    if sum_b == sum_d:
        # sum_b >= W_max(N) always: d(N) either equals W_max(N), where u = d
        # balances, or exceeds it, and the WS-core is empty
        if sum_d != o.wmax_mask(o.full_mask):
            raise EmptyCoreError("WS-core is empty")
        u = d.utilities
    else:
        t = (o.wmax_mask(o.full_mask) - sum_d) / (sum_b - sum_d)
        u = tuple(d[i] + t * (b[i] - d[i]) for i in range(n))
    return o.solution(u, "ks")


def nash_bargaining(o: SetFunctionOracle, d: DisagreementPoint) -> Solution:
    """With transferable utility the Nash solution splits the surplus equally."""
    n = o.n_agents
    surplus = o.wmax_mask(o.full_mask) - d.total()
    u = tuple(d[i] + surplus / n for i in range(n))
    return o.solution(u, "nash")


def nucleolus_ws(o: SetFunctionOracle, d: DisagreementPoint) -> Solution:
    """Nucleolus against g(S) = max(D(S), sum of d over S).

    The lexicographic max-min of the excesses u(S) - g(S) over nonempty
    proper S, subject to u(N) = W_max(N).  Once every excess is fixed the
    singletons pin u.  Those rows with every excess >= 0 are the WS-core,
    so it is empty exactly when the point is not in it.
    """
    n = o.n_agents
    full = o.full_mask
    d_sum = _subset_sums(d.utilities)
    exprs = []
    for mask in range(1, full):
        g = max(dual(o, agents_of(mask)), d_sum[mask])
        exprs.append((_indicator(mask, n), -g))
    _, u = lexicographic_maxmin(n, [([1] * n, EQ, o.wmax_mask(full))], exprs)
    if not (check_domination(u, d) and check_anticore(o, u)):
        raise EmptyCoreError("WS-core is empty")
    return o.solution(u, "nucleolus-ws")


# ---------------------------------------------------------------------------
# Mechanism dispatch and reporting
# ---------------------------------------------------------------------------

MECHANISMS = ("lexmax", "shapley", "ef-maxmin", "ks", "nash", "nucleolus-ws")


# rp-mc's defaults, for the library and the CLI alike
DEFAULT_SEED = 0
DEFAULT_SAMPLES = 100_000


def compute_disagreement(
    inst,
    mode: str,
    seed: int = DEFAULT_SEED,
    samples: int = DEFAULT_SAMPLES,
    explicit=None,
) -> DisagreementPoint:
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
                f"--disagreement rp enumerates at most {dis.MAX_RP_EXACT_AGENTS}"
                f" agents, this instance has {inst.n_agents}; use --disagreement rp-mc"
            ) from exc
    if mode == "rp-mc":
        return dis.rp_montecarlo(inst, samples=samples, seed=seed)
    if mode == "eating":
        return dis.eating(inst)[1]
    raise IncompatibleOptionsError(f"unknown disagreement mode {mode!r}")


def run_mechanism(tag: str, o: SetFunctionOracle, d: DisagreementPoint) -> Solution:
    if tag == "lexmax":
        return solve_lexmax(o, d)[0]
    if tag == "shapley":
        return shapley(o)
    if tag == "ef-maxmin":
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
    inst = o.backing
    sol = run_mechanism(tag, o, d)
    u = sol.utilities
    if partition is None:
        partition = find_components(inst)
    flags = {
        "in_anticore": bool(check_anticore(o, u)),
        "dominates_disagreement": bool(check_domination(u, d)),
        "reasonable_from_above": all(
            u[i] <= o.wmax_mask(1 << i) for i in range(o.n_agents)
        ),
        "weakly_decomposable": bool(check_weak_decomposability(inst, partition, sol)),
    }
    return MechanismReport(mechanism=tag, solution=sol, flags=flags)


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
