"""WS-core machinery and the exact rational LP engine.

The simplex here is a dense two-phase tableau method over Fractions with
Bland's anti-cycling rule.  It is deliberately simple: instance sizes are
desk scale (tens of rows), and exactness matters more than speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .model import DisagreementPoint
from .welfare import SetFunctionOracle, agents_of, is_submodular, wpi

LE, EQ, GE = "<=", "==", ">="


@dataclass
class LinearProgram:
    n_vars: int
    objective: Sequence[Fraction]
    constraints: List[Tuple[Sequence[Fraction], str, Fraction]]
    maximize: bool = True
    nonneg: bool = False  # when True all variables are >= 0 (no splitting)


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[Fraction] = None
    point: Optional[Tuple[Fraction, ...]] = None


class InfeasibleError(ValueError):
    pass


class EmptyCoreError(ValueError):
    """Raised by solvers that require a nonempty WS-core."""


def _pivot(rows, obj, basis, r, c):
    prow = rows[r]
    inv = Fraction(1) / prow[c]
    if inv != 1:
        rows[r] = prow = [v * inv if v else v for v in prow]
    support = [j for j, v in enumerate(prow) if v]
    for other in range(len(rows)):
        if other == r:
            continue
        orow = rows[other]
        factor = orow[c]
        if factor:
            for j in support:
                orow[j] = orow[j] - factor * prow[j]
    factor = obj[c]
    if factor:
        for j in support:
            obj[j] = obj[j] - factor * prow[j]
    basis[r] = c


def _run_simplex(rows, obj, basis, banned):
    """Maximize; obj is the reduced-cost row [-cbar..., value]."""
    ncols = len(obj) - 1
    while True:
        enter = -1
        for j in range(ncols):
            if j not in banned and obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal"
        best_r = -1
        best_ratio = None
        for r, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[best_r])
                ):
                    best_ratio = ratio
                    best_r = r
        if best_r < 0:
            return "unbounded"
        _pivot(rows, obj, basis, best_r, enter)


def _objective_row(cost, rows, basis, ncols):
    obj = [-cost[j] for j in range(ncols)] + [Fraction(0)]
    for r, b in enumerate(basis):
        cb = cost[b]
        if cb:
            row = rows[r]
            for j in range(ncols + 1):
                if row[j]:
                    obj[j] += cb * row[j]
    return obj


def simplex_solve(lp: LinearProgram) -> LPResult:
    nv = lp.n_vars
    split = not lp.nonneg
    base_cols = nv if not split else 2 * nv

    def expand(row):
        if not split:
            return [Fraction(v) for v in row]
        out = []
        for v in row:
            v = Fraction(v)
            out.append(v)
            out.append(-v)
        return out

    # normalize rows so every rhs is >= 0
    normed = []
    for coeffs, rel, rhs in lp.constraints:
        coeffs = expand(coeffs)
        rhs = Fraction(rhs)
        if rhs < 0:
            coeffs = [-v for v in coeffs]
            rhs = -rhs
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
        normed.append((coeffs, rel, rhs))

    n_slack = sum(1 for _, rel, _ in normed if rel != EQ)
    n_art = sum(1 for _, rel, _ in normed if rel != LE)
    ncols = base_cols + n_slack + n_art
    rows = []
    basis = []
    slack_at = base_cols
    art_at = base_cols + n_slack
    art_cols = set(range(art_at, ncols))
    for coeffs, rel, rhs in normed:
        row = coeffs + [Fraction(0)] * (ncols - base_cols) + [rhs]
        if rel == LE:
            row[slack_at] = Fraction(1)
            basis.append(slack_at)
            slack_at += 1
        elif rel == GE:
            row[slack_at] = Fraction(-1)
            slack_at += 1
            row[art_at] = Fraction(1)
            basis.append(art_at)
            art_at += 1
        else:
            row[art_at] = Fraction(1)
            basis.append(art_at)
            art_at += 1
        rows.append(row)

    if art_cols:
        cost1 = [Fraction(0)] * ncols
        for c in art_cols:
            cost1[c] = Fraction(-1)
        obj = _objective_row(cost1, rows, basis, ncols)
        status = _run_simplex(rows, obj, basis, banned=set())
        if status != "optimal" or obj[-1] != 0:
            return LPResult(status="infeasible")
        # pivot artificials out of the basis where possible
        for r in range(len(rows)):
            if basis[r] in art_cols:
                for j in range(ncols):
                    if j not in art_cols and rows[r][j] != 0:
                        _pivot(rows, obj, basis, r, j)
                        break

    sense = 1 if lp.maximize else -1
    cost2 = [Fraction(0)] * ncols
    for j in range(base_cols):
        orig = j // 2 if split else j
        sign = -1 if (split and j % 2) else 1
        cost2[j] = sense * sign * Fraction(lp.objective[orig])
    obj = _objective_row(cost2, rows, basis, ncols)
    status = _run_simplex(rows, obj, basis, banned=art_cols)
    if status == "unbounded":
        return LPResult(status="unbounded")

    std = [Fraction(0)] * ncols
    for r, b in enumerate(basis):
        std[b] = rows[r][-1]
    if split:
        point = tuple(std[2 * i] - std[2 * i + 1] for i in range(nv))
    else:
        point = tuple(std[:nv])
    value = obj[-1] if lp.maximize else -obj[-1]
    return LPResult(status="optimal", value=value, point=point)


# ---------------------------------------------------------------------------
# Lexicographic max-min over affine expressions (lexmax, EF and the nucleolus)
# ---------------------------------------------------------------------------


def _expr_value(expr, point):
    coeffs, const = expr
    return sum((c * x for c, x in zip(coeffs, point)), Fraction(const))


def lexicographic_maxmin(n_vars, constraints, exprs):
    """Lexicographically maximize the sorted vector of affine expressions.

    constraints: (row, rel, rhs) over the n_vars variables.
    exprs: list of (coeff row, constant).
    Returns (levels per expr, a feasible variable point).
    """
    constraints = [
        ([Fraction(v) for v in row], rel, Fraction(rhs)) for row, rel, rhs in constraints
    ]
    exprs = [([Fraction(c) for c in row], Fraction(const)) for row, const in exprs]
    unfixed = set(range(len(exprs)))
    fixed_rows: list = []
    levels: dict = {}

    def with_t(rows):
        return [(list(r) + [Fraction(0)], rel, rhs) for r, rel, rhs in rows]

    while unfixed:
        rows = with_t(constraints + fixed_rows)
        for k in unfixed:
            coeffs, const = exprs[k]
            rows.append((list(coeffs) + [Fraction(-1)], GE, -const))
        objective = [Fraction(0)] * n_vars + [Fraction(1)]
        res = simplex_solve(
            LinearProgram(n_vars + 1, objective, rows, maximize=True)
        )
        if res.status == "infeasible":
            raise InfeasibleError("lexicographic program infeasible")
        if res.status == "unbounded":
            raise InfeasibleError("lexicographic program unbounded")
        t_star = res.value
        point = res.point[:n_vars]
        floor_rows = [
            (coeffs, GE, t_star - const)
            for coeffs, const in (exprs[k] for k in unfixed)
        ]
        newly = []
        for k in sorted(unfixed):
            if _expr_value(exprs[k], point) != t_star:
                continue
            coeffs, const = exprs[k]
            probe = simplex_solve(
                LinearProgram(n_vars, coeffs, constraints + fixed_rows + floor_rows)
            )
            if probe.status == "optimal" and probe.value + const == t_star:
                newly.append(k)
        if not newly:
            raise AssertionError("lexicographic max-min made no progress")
        for k in newly:
            coeffs, const = exprs[k]
            fixed_rows.append((coeffs, EQ, t_star - const))
            levels[k] = t_star
            unfixed.discard(k)

    final = simplex_solve(
        LinearProgram(n_vars, [Fraction(0)] * n_vars, constraints + fixed_rows)
    )
    if final.status != "optimal":
        raise InfeasibleError("lexicographic program infeasible")
    return [levels[k] for k in range(len(exprs))], final.point


# ---------------------------------------------------------------------------
# WS-core checks
# ---------------------------------------------------------------------------


def masks_by_size(n: int):
    return sorted(range(1, 1 << n), key=lambda m: (bin(m).count("1"), agents_of(m)))


@dataclass(frozen=True)
class AnticoreVerdict:
    ok: bool
    violating_set: Optional[Tuple[int, ...]] = None
    slack: Optional[Fraction] = None  # negative when violated

    def __bool__(self):
        return self.ok


def check_anticore(o: SetFunctionOracle, u: Sequence[Fraction]) -> AnticoreVerdict:
    """u(S) <= W_max(S) for every nonempty S; first violation wins
    (smallest cardinality, then lexicographic)."""
    n = o.n_agents
    for mask in masks_by_size(n):
        members = agents_of(mask)
        total = sum((u[i] for i in members), Fraction(0))
        cap = o.wmax_mask(mask)
        if total > cap:
            return AnticoreVerdict(False, members, cap - total)
    return AnticoreVerdict(True)


@dataclass(frozen=True)
class DominationVerdict:
    ok: bool
    agent: Optional[int] = None
    gap: Optional[Fraction] = None

    def __bool__(self):
        return self.ok


def check_domination(u: Sequence[Fraction], d: DisagreementPoint) -> DominationVerdict:
    for i, (ui, di) in enumerate(zip(u, d.utilities)):
        if ui < di:
            return DominationVerdict(False, i, di - ui)
    return DominationVerdict(True)


@dataclass(frozen=True)
class CoreVerdict:
    nonempty: bool
    witness: Optional[Tuple[Fraction, ...]] = None
    gap: Optional[Fraction] = None  # f(N) minus the LP optimum when empty

    def __bool__(self):
        return self.nonempty


def _gap_function(o: SetFunctionOracle, d: DisagreementPoint):
    """f(S) = W_max(S) - W_pi(S) on bitmasks (the normalized W_max)."""

    def f(mask: int) -> Fraction:
        return o.wmax_mask(mask) - wpi(d, agents_of(mask))

    return f


def ws_core_nonempty(o: SetFunctionOracle, d: DisagreementPoint) -> CoreVerdict:
    """Feasibility LP for the WS-core: maximize sum x subject to
    x(S) <= f(S), x >= 0, where f = W_max - W_pi.  The WS-core is nonempty
    iff the optimum reaches f(N); the witness is u = x + d."""
    n = o.n_agents
    f = _gap_function(o, d)
    rows = []
    for mask in range(1, 1 << n):
        row = [Fraction(1 if mask & (1 << i) else 0) for i in range(n)]
        rows.append((row, LE, f(mask)))
    lp = LinearProgram(n, [Fraction(1)] * n, rows, maximize=True, nonneg=True)
    res = simplex_solve(lp)
    target = f(o.full_mask)
    if res.status != "optimal":
        return CoreVerdict(False, gap=None)
    if res.value == target:
        witness = tuple(x + d[i] for i, x in enumerate(res.point))
        return CoreVerdict(True, witness=witness)
    return CoreVerdict(False, gap=target - res.value)


def sufficient_conditions(o: SetFunctionOracle, d: DisagreementPoint) -> str:
    """Which nonemptiness condition holds: "submodular" (W_max),
    "monotone_gap" (W_max - W_pi monotone), or "neither"."""
    if is_submodular(o):
        return "submodular"
    f = _gap_function(o, d)
    n = o.n_agents
    for mask in range(1 << n):
        for i in range(n):
            bit = 1 << i
            if mask & bit:
                continue
            if f(mask | bit) < f(mask):
                return "neither"
    return "monotone_gap"
