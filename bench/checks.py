"""Output checks for captured CLI calls, computed without `welfareshare`.

On every seed a call must exit 0 and its JSON must satisfy invariants
recomputed here from the instance file alone:

* the alternative is feasible and maximizes total welfare (brute force),
* sum(u) equals the value of that alternative, and u_i = v_i(alt) + t_i,
* u >= d for the mechanisms whose output lies in the WS-core,
* with --explain, the trace's final utilities equal the utilities.

On the default seed each call is also pinned: its exit code and a digest of
the fields `utilities`, `transfers`, `alternative` and the disagreement
`utilities` (per mechanism for `compare`) must equal `golden.json`.  Only
those fields enter the digest, so keys added later do not count as failures.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

DEFAULT_SEED = 0
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
PINNED = ("utilities", "transfers", "alternative")
IN_CORE = ("lexmax", "nucleolus-ws")  # mechanisms whose u dominates d
COMPARE_MATCHING = ("lexmax", "shapley", "ks", "nash", "nucleolus-ws", "ef-maxmin")


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _max_welfare(doc):
    values = [[Fraction(v) for v in row] for row in doc["values"]]
    # best assignment of agents 0..k-1 to distinct items, by item subset
    best = {0: Fraction(0)}
    for row in values:
        nxt = {}
        for used, total in best.items():
            for j, v in enumerate(row):
                if not used >> j & 1:
                    key = used | 1 << j
                    if key not in nxt or total + v > nxt[key]:
                        nxt[key] = total + v
        best = nxt
    return max(best.values())


def _alt_values(doc, alt):
    values = doc["values"]
    n = len(values)
    _require(
        isinstance(alt, list)
        and len(alt) == n
        and len(set(alt)) == n
        and all(isinstance(j, int) and 0 <= j < len(doc["items"]) for j in alt),
        f"bad assignment {alt!r}",
    )
    return [Fraction(values[i][alt[i]]) for i in range(n)]


def check_solution(doc, sol, wmax):
    """Invariants of one solution entry of the CLI JSON."""
    n = len(doc["values"])
    u = [Fraction(x) for x in sol["utilities"]]
    t = [Fraction(x) for x in sol["transfers"]]
    d = [Fraction(x) for x in sol["disagreement"]["utilities"]]
    _require(len(u) == len(t) == len(d) == n, "wrong vector length")
    vals = _alt_values(doc, sol["alternative"])
    _require(sum(vals) == wmax, "alternative does not maximize welfare")
    _require(sum(u) == sum(vals), "sum of utilities differs from the alternative's value")
    _require(all(u[i] == vals[i] + t[i] for i in range(n)), "u != v(alt) + t")
    if sol["mechanism"] in IN_CORE:
        _require(all(u[i] >= d[i] for i in range(n)), "u does not dominate d")
    if "trace" in sol:
        final = [Fraction(x) for x in sol["trace"]["final_utilities"]]
        _require(final == u, "explain trace disagrees with the utilities")


def check_invariants(doc, argv, rc, stdout):
    """Raise CheckFailed unless the call's output is right for `doc`."""
    _require(rc == 0, f"exit code {rc}")
    out = json.loads(stdout)
    wmax = _max_welfare(doc)
    if argv[0] == "solve":
        _require(isinstance(out, dict), "solve output is not an object")
        _require(out["mechanism"] == argv[argv.index("--mechanism") + 1], "wrong mechanism")
        _require(("trace" in out) == ("--explain" in argv), "trace presence")
        check_solution(doc, out, wmax)
        return
    _require(isinstance(out, list), "compare output is not a list")
    _require(tuple(e["mechanism"] for e in out) == COMPARE_MATCHING, "mechanism list")
    for entry in out:
        # RP utilities lie in the anticore and matching W_max is
        # submodular, so no mechanism may report an empty core here
        _require("error" not in entry, f"{entry['mechanism']}: {entry.get('error')}")
        check_solution(doc, entry, wmax)


def _project(entry):
    keep = {k: entry[k] for k in PINNED if k in entry}
    disagreement = entry.get("disagreement")
    if isinstance(disagreement, dict) and "utilities" in disagreement:
        keep["disagreement.utilities"] = disagreement["utilities"]
    for k in ("mechanism", "error"):
        if k in entry:
            keep[k] = entry[k]
    return keep


def pin_digest(stdout):
    """Digest of the pinned fields of a call's JSON output."""
    out = json.loads(stdout)
    proj = [_project(e) for e in out] if isinstance(out, list) else _project(out)
    blob = json.dumps(proj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:20]


def load_golden():
    try:
        with open(GOLDEN_PATH) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def check_call(doc, argv, rc, stdout, golden_entry=None):
    """None when the call is correct, else a one-line reason."""
    try:
        if golden_entry is not None:
            want_rc, want_digest = golden_entry
            _require(rc == want_rc, f"exit code {rc}, pinned {want_rc}")
            if want_digest is not None:
                _require(pin_digest(stdout) == want_digest, "pinned fields changed")
        check_invariants(doc, argv, rc, stdout)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
