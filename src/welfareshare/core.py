"""WS-core machinery and the exact rational LP engine.

The simplex here is a dense two-phase tableau method with Bland's
anti-cycling rule over exact numbers: Python ints where a constraint
entry is integral, Fractions elsewhere, and never floats.  It is
deliberately simple: instance sizes are desk scale (tens of rows), and
exactness matters more than speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .model import DisagreementPoint
from .welfare import SetFunctionOracle, _indicator, _subset_sums, agents_of

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
    # inequality rows tight at every optimum: their slack column has a
    # strictly positive reduced cost in the final tableau
    binding: Tuple[int, ...] = ()


class InfeasibleError(ValueError):
    pass


class EmptyCoreError(ValueError):
    """Raised by solvers that require a nonempty WS-core."""


def _exact(v):
    """v as an int when it is integral, else as a Fraction."""
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def _pivot(rows, obj, basis, r, c):
    prow = rows[r]
    p = prow[c]
    if p == -1:
        rows[r] = prow = [-v for v in prow]
    elif p != 1:
        inv = Fraction(1) / p
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
    """Two-phase simplex with Bland's rule over exact ints and Fractions.

    An integral constraint entry is an int, and a pivot on a +-1 entry keeps
    it one; only a division by another pivot makes Fractions.  The
    right-hand-side column and the objective row are Fractions throughout,
    so the ratio test never divides int by int, and `value` and `point` are
    Fractions.
    """
    nv = lp.n_vars
    split = not lp.nonneg
    base_cols = nv if not split else 2 * nv

    def expand(row):
        row = [_exact(v) for v in row]
        if not split:
            return row
        out = []
        for v in row:
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
    slack_of = []  # (row index, slack column) per inequality row
    for k, (coeffs, rel, rhs) in enumerate(normed):
        row = coeffs + [0] * (ncols - base_cols) + [rhs]
        if rel != EQ:
            slack_of.append((k, slack_at))
        if rel == LE:
            row[slack_at] = 1
            basis.append(slack_at)
            slack_at += 1
        elif rel == GE:
            row[slack_at] = -1
            slack_at += 1
            row[art_at] = 1
            basis.append(art_at)
            art_at += 1
        else:
            row[art_at] = 1
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
    binding = tuple(k for k, col in slack_of if obj[col] > 0)
    return LPResult(status="optimal", value=value, point=point, binding=binding)


# ---------------------------------------------------------------------------
# Lexicographic max-min over affine expressions (lexmax, EF and the nucleolus)
# ---------------------------------------------------------------------------


def _expr_value(expr, point):
    coeffs, const = expr
    return sum((c * x for c, x in zip(coeffs, point)), Fraction(const))


def _reduce(span, row):
    """row minus its projection on the echelon rows of span (exact)."""
    for col, basis_row in span:
        factor = row[col]
        if factor:
            row = [x - factor * y for x, y in zip(row, basis_row)]
    return row


def _extend_span(span, row):
    row = _reduce(span, row)
    col = next((j for j, x in enumerate(row) if x), None)
    if col is not None:
        span.append((col, [x / row[col] for x in row]))


def lexicographic_maxmin(n_vars, constraints, exprs):
    """Lexicographically maximize the sorted vector of affine expressions.

    constraints: (row, rel, rhs) over the n_vars variables.
    exprs: list of (coeff row, constant).
    Returns (levels per expr, a feasible point attaining them).

    The levels are unique: over a convex set the leximin vector of the
    expression values is.  The point is unique only when the expressions
    pin the variables, as the singletons do in `nucleolus_ws`, the u_i in
    `lexmax_lp` and the per-item transfers in `ef_maxmin`.

    Each round maximizes the common floor t of the unfixed expressions and
    fixes expressions that cannot rise above its optimum t* on the level set
    {all unfixed >= t*}, by two exact rules:
    - binding: an expression whose floor row has a positive dual, so is
      tight at every optimum of the round's LP (`LPResult.binding`), is
      fixed at t*.  t is free, so the floor duals sum to 1 and every round
      fixes at least one expression.
    - span: an echelon span holds the equality constraints and the fixed
      rows.  After the round, an unfixed expression whose row lies in the
      span is constant on the level set, so it is fixed at its value at
      the round's point.
    A tight expression whose dual is 0 stays unfixed; a later round fixes
    it at the same level.  This is the sequential LP scheme of Maschler,
    Peleg & Shapley (1979).  The last round's point meets every fixed row
    and is returned; with no expressions, one LP over the constraints gives
    the point.
    """
    constraints = [
        ([Fraction(v) for v in row], rel, Fraction(rhs)) for row, rel, rhs in constraints
    ]
    exprs = [([Fraction(c) for c in row], Fraction(const)) for row, const in exprs]
    span: list = []
    for row, rel, _ in constraints:
        if rel == EQ:
            _extend_span(span, row)
    unfixed = list(range(len(exprs)))
    fixed_rows: list = []
    levels: dict = {}

    while unfixed:
        base = constraints + fixed_rows
        rows = [(r + [Fraction(0)], rel, rhs) for r, rel, rhs in base]
        for k in unfixed:
            coeffs, const = exprs[k]
            rows.append((coeffs + [Fraction(-1)], GE, -const))
        objective = [Fraction(0)] * n_vars + [Fraction(1)]
        res = simplex_solve(LinearProgram(n_vars + 1, objective, rows, maximize=True))
        if res.status == "infeasible":
            raise InfeasibleError("lexicographic program infeasible")
        if res.status == "unbounded":
            raise InfeasibleError("lexicographic program unbounded")
        t_star = res.value
        point = res.point[:n_vars]
        newly = [unfixed[r - len(base)] for r in res.binding if r >= len(base)]
        if not newly:
            raise AssertionError("lexicographic max-min made no progress")
        for k in newly:
            _extend_span(span, exprs[k][0])
            fixed_rows.append((exprs[k][0], EQ, t_star - exprs[k][1]))
            levels[k] = t_star
        # the round's point meets every fixed row, so it gives the value of
        # each expression that the span now holds
        for k in unfixed:
            if k not in levels and not any(_reduce(span, exprs[k][0])):
                levels[k] = _expr_value(exprs[k], point)
        unfixed = [k for k in unfixed if k not in levels]

    if not exprs:
        final = simplex_solve(LinearProgram(n_vars, [Fraction(0)] * n_vars, constraints))
        if final.status != "optimal":
            raise InfeasibleError("lexicographic program infeasible")
        point = final.point
    return [levels[k] for k in range(len(exprs))], point


# ---------------------------------------------------------------------------
# WS-core checks
# ---------------------------------------------------------------------------


def masks_by_size(n: int):
    return sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), agents_of(m)))


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
    sums = _subset_sums(u)
    for mask in masks_by_size(o.n_agents):
        cap = o.wmax_mask(mask)
        if sums[mask] > cap:
            return AnticoreVerdict(False, agents_of(mask), cap - sums[mask])
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


def ws_core_nonempty(o: SetFunctionOracle, d: DisagreementPoint) -> CoreVerdict:
    """Feasibility LP for the WS-core: maximize sum x subject to
    x(S) <= f(S), x >= 0, where f = W_max - W_pi.  The WS-core is nonempty
    iff the optimum reaches f(N); the witness is u = x + d."""
    n = o.n_agents
    d_sum = _subset_sums(d.utilities)
    f = [o.wmax_mask(mask) - d_sum[mask] for mask in range(1 << n)]
    rows = [(_indicator(mask, n), LE, f[mask]) for mask in range(1, 1 << n)]
    lp = LinearProgram(n, [Fraction(1)] * n, rows, maximize=True, nonneg=True)
    res = simplex_solve(lp)
    target = f[o.full_mask]
    if res.status != "optimal":
        return CoreVerdict(False, gap=None)
    if res.value == target:
        return CoreVerdict(True, witness=tuple(x + d[i] for i, x in enumerate(res.point)))
    return CoreVerdict(False, gap=target - res.value)
