"""The exact simplex against its all-Fraction reference.

`reference_simplex_solve` is the engine as it stood before the tableau kept
integral entries as ints: every entry, slack and artificial column is a
Fraction.  The library engine must return the same `LPResult`, field by
field, and its value and point must be Fractions, not ints or floats.
"""

import random
from fractions import Fraction

from conftest import random_general, random_matching

from welfareshare import core
from welfareshare.core import (
    EQ,
    GE,
    LE,
    EmptyCoreError,
    LinearProgram,
    LPResult,
    simplex_solve,
    ws_core_nonempty,
)
from welfareshare.disagreement import rp_exact, uniform
from welfareshare.egalitarian import lexmax_lp
from welfareshare.rivals import ef_maxmin, nucleolus_ws
from welfareshare.welfare import SetFunctionOracle


def _ref_pivot(rows, obj, basis, r, c):
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


def _ref_run_simplex(rows, obj, basis, banned):
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
        _ref_pivot(rows, obj, basis, best_r, enter)


def _ref_objective_row(cost, rows, basis, ncols):
    obj = [-cost[j] for j in range(ncols)] + [Fraction(0)]
    for r, b in enumerate(basis):
        cb = cost[b]
        if cb:
            row = rows[r]
            for j in range(ncols + 1):
                if row[j]:
                    obj[j] += cb * row[j]
    return obj


def reference_simplex_solve(lp: LinearProgram) -> LPResult:
    """The all-Fraction engine: every tableau entry is a Fraction."""
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
    slack_of = []  # (row index, slack column) per inequality row
    for k, (coeffs, rel, rhs) in enumerate(normed):
        row = coeffs + [Fraction(0)] * (ncols - base_cols) + [rhs]
        if rel != EQ:
            slack_of.append((k, slack_at))
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
        obj = _ref_objective_row(cost1, rows, basis, ncols)
        status = _ref_run_simplex(rows, obj, basis, banned=set())
        if status != "optimal" or obj[-1] != 0:
            return LPResult(status="infeasible")
        # pivot artificials out of the basis where possible
        for r in range(len(rows)):
            if basis[r] in art_cols:
                for j in range(ncols):
                    if j not in art_cols and rows[r][j] != 0:
                        _ref_pivot(rows, obj, basis, r, j)
                        break

    sense = 1 if lp.maximize else -1
    cost2 = [Fraction(0)] * ncols
    for j in range(base_cols):
        orig = j // 2 if split else j
        sign = -1 if (split and j % 2) else 1
        cost2[j] = sense * sign * Fraction(lp.objective[orig])
    obj = _ref_objective_row(cost2, rows, basis, ncols)
    status = _ref_run_simplex(rows, obj, basis, banned=art_cols)
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


def assert_same(lp):
    got = simplex_solve(lp)
    assert got == reference_simplex_solve(lp)
    if got.status == "optimal":
        # 0.5 == Fraction(1, 2), so equality alone would let a float through
        assert type(got.value) is Fraction
        assert all(type(x) is Fraction for x in got.point)
    return got


def random_lp(rng):
    """An LP with n <= 6 over small integers and some halves and thirds;
    zero right-hand sides and repeated rows make degenerate vertices."""
    n = rng.randint(1, 6)
    lo, hi = rng.choice(((-1, 1), (-2, 2), (-5, 5)))

    def number():
        v = Fraction(rng.randint(lo, hi), rng.choice((1, 1, 1, 2, 3)))
        return int(v) if v.denominator == 1 and rng.random() < 0.5 else v

    rows = []
    for _ in range(rng.randint(1, 7)):
        coeffs = [number() for _ in range(n)]
        rhs = number() if rng.random() < 0.7 else 0
        rows.append((coeffs, rng.choice((LE, LE, GE, EQ)), rhs))
        if rng.random() < 0.1:
            rows.append(rows[-1])
    objective = [number() for _ in range(n)]
    return LinearProgram(n, objective, rows, maximize=rng.random() < 0.5,
                         nonneg=rng.random() < 0.5)


def degenerate(lp, res):
    """More constraints tight at the returned vertex than variables."""
    tight = sum(
        sum(c * x for c, x in zip(coeffs, res.point)) == rhs for coeffs, _, rhs in lp.constraints
    )
    if lp.nonneg:
        tight += sum(x == 0 for x in res.point)
    return tight > lp.n_vars


class TestSameAsReference:
    def test_random_lps(self):
        rng = random.Random(15001)
        seen = {"optimal": 0, "infeasible": 0, "unbounded": 0, "degenerate": 0,
                "negative rhs": 0, "non-unit coefficient": 0}
        for _ in range(600):
            lp = random_lp(rng)
            res = assert_same(lp)
            seen[res.status] += 1
            if res.status == "optimal" and degenerate(lp, res):
                seen["degenerate"] += 1
            seen["negative rhs"] += any(rhs < 0 for _, _, rhs in lp.constraints)
            seen["non-unit coefficient"] += any(
                Fraction(c).denominator > 1 or abs(c) > 1
                for coeffs, _, _ in lp.constraints for c in coeffs
            )
        assert min(seen.values()) >= 30, seen

    def test_lps_of_the_mechanisms(self, monkeypatch):
        # every LP that the WS-core test, the nucleolus, EF max-min and the
        # lexmax LP solve on seeded games
        solved = []

        def checked_solve(lp):
            solved.append(lp)
            return assert_same(lp)

        monkeypatch.setattr(core, "simplex_solve", checked_solve)
        rng = random.Random(15002)
        for c in range(28):
            n = rng.randint(2, 5)
            lo, hi = ((-2, 2), (-10, 10), (0, 4))[c % 3]
            m = random_matching(rng, n, lo=lo, hi=hi, distinct=c % 4 == 3)
            o = SetFunctionOracle(m)
            d = rp_exact(m)
            ws_core_nonempty(o, d)
            ef_maxmin(o)
            for mechanism in (nucleolus_ws, lexmax_lp):
                try:
                    mechanism(o, d)
                except EmptyCoreError:
                    pass
        for _ in range(8):
            inst = random_general(rng, rng.randint(2, 4), rng.randint(1, 4), lo=-3, hi=3)
            o = SetFunctionOracle(inst)
            try:
                lexmax_lp(o, uniform(inst))
            except EmptyCoreError:
                pass
        assert len(solved) > 200
