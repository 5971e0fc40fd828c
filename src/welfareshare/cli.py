"""Command-line front end: solve, check, compare.

Instances come from JSON files or named fixtures ("fixture:EX1(delta=1/10)").
Exit codes: 0 success, 1 failed check, 2 parse error, 3 incompatible
options, 4 empty WS-core.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import decompose as dec
from .core import EmptyCoreError, check_anticore, ws_core_nonempty
from .disagreement import eating
from .egalitarian import WaterFillingTrace, solve_lexmax, water_filling
from .model import (
    BoundExceededError,
    DisagreementPoint,
    Instance,
    MatchingInstance,
    apply_rent_shift,
    fixture,
    format_rational,
    parse_rational,
)
from .rivals import (
    MECHANISMS,
    IncompatibleOptionsError,
    compute_disagreement,
    mechanism_report,
    run_mechanism,
)
from .welfare import SetFunctionOracle, is_submodular

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_INCOMPATIBLE = 3
EXIT_EMPTY_CORE = 4


class ParseError(ValueError):
    pass


def load_instance(spec: str):
    """A path to an instance JSON file, or fixture:NAME(key=value, ...)."""
    if spec.startswith("fixture:"):
        body = spec[len("fixture:") :]
        params = {}
        if "(" in body:
            if not body.endswith(")"):
                raise ParseError(f"malformed fixture spec {spec!r}")
            body, arglist = body[:-1].split("(", 1)
            for part in filter(None, (p.strip() for p in arglist.split(","))):
                if "=" not in part:
                    raise ParseError(f"malformed fixture parameter {part!r}")
                key, val = (s.strip() for s in part.split("=", 1))
                params[key] = val
        try:
            return fixture(body, **params), None
        except (KeyError, ValueError) as exc:
            raise ParseError(str(exc)) from exc
    try:
        with open(spec) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read instance: {exc}") from exc
    return parse_instance_doc(doc)


def parse_instance_doc(doc):
    try:
        kind = doc["kind"]
        values = doc["values"]
        agents = doc.get("agents") or ()
        embedded = doc.get("disagreement")
        if kind == "matching":
            inst = MatchingInstance(
                item_ids=tuple(doc["items"]),
                values=values,
                agent_ids=tuple(agents),
                rent=parse_rational(doc["rent"]) if "rent" in doc else None,
            )
        elif kind == "general":
            inst = Instance(
                alternative_ids=tuple(doc["alternatives"]),
                values=values,
                agent_ids=tuple(agents),
            )
        else:
            raise ParseError(f"unknown kind {kind!r}")
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad instance file: {exc}") from exc
    return inst, embedded


def resolve_disagreement(inst, args, embedded):
    mode = getattr(args, "disagreement", None)
    explicit = None
    seed = getattr(args, "seed", 0)
    samples = getattr(args, "samples", 100_000)
    if mode is None and embedded:
        mode = embedded.get("mode")
        if "utilities" in embedded:
            try:
                explicit = [parse_rational(u) for u in embedded["utilities"]]
            except (TypeError, ValueError) as exc:
                raise ParseError(f"bad embedded disagreement: {exc}") from exc
        seed = embedded.get("seed", seed)
        samples = embedded.get("samples", samples)
    if mode is None:
        mode = "rp" if isinstance(inst, MatchingInstance) and inst.is_square else "uniform"
    if mode.startswith("explicit=") or mode == "explicit":
        if mode.startswith("explicit="):
            path = mode.split("=", 1)[1]
            try:
                with open(path) as fh:
                    doc = json.load(fh)
                explicit = [parse_rational(u) for u in doc["utilities"]]
            except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"bad disagreement file: {exc}") from exc
        mode = "explicit"
        if explicit is not None and len(explicit) != inst.n_agents:
            raise ParseError(
                f"disagreement has {len(explicit)} utilities for {inst.n_agents} agents"
            )
    return compute_disagreement(inst, mode, seed=seed, samples=samples, explicit=explicit)


def _approx(x: Fraction) -> str:
    return f"{float(x):.6g}"


def solution_doc(sol, d):
    alt = sol.alternative
    if isinstance(alt, tuple):
        alt = list(alt)
    return {
        "mechanism": sol.mechanism,
        "alternative": alt,
        "transfers": [format_rational(p) for p in sol.transfers],
        "utilities": [format_rational(u) for u in sol.utilities],
        "disagreement": {
            "provenance": d.provenance,
            "utilities": [format_rational(u) for u in d.utilities],
        },
    }


def trace_doc(trace: WaterFillingTrace):
    return {
        "initially_locked": list(trace.initially_locked),
        "initial_tight": [
            {"agents": list(a), "wmax": format_rational(v)} for a, v in trace.initial_tight
        ],
        "iterations": [
            {
                "increment": format_rational(x),
                "locked": list(locked),
                "tight_sets": [
                    {"agents": list(a), "wmax": format_rational(v)} for a, v in sets
                ],
            }
            for x, locked, sets in trace.iterations
        ],
        "final_utilities": [format_rational(u) for u in trace.final_utilities],
        "exhausted": trace.exhausted,
    }


def emit_solution(o, sol, d, args, trace=None):
    """Print the solution and, with --explain, the water-filling trace."""
    inst = o.backing
    explain = trace is not None and getattr(args, "explain", False)
    fmt = getattr(args, "output", "json")
    if fmt == "json":
        doc = solution_doc(sol, d)
        if explain:
            doc["trace"] = trace_doc(trace)
        print(json.dumps(doc, indent=2))
    elif fmt == "csv":
        print("agent,utility,transfer")
        for i in range(len(sol.utilities)):
            print(
                f"{inst.agent_ids[i]},{format_rational(sol.utilities[i])},"
                f"{format_rational(sol.transfers[i])}"
            )
    else:  # table
        print(f"mechanism: {sol.mechanism}")
        print(f"alternative: {sol.alternative}")
        header = f"{'agent':<10} {'utility':>14} {'approx':>12} {'transfer':>14}"
        print(header)
        for i in range(len(sol.utilities)):
            print(
                f"{inst.agent_ids[i]:<10} {format_rational(sol.utilities[i]):>14}"
                f" {'≈' + _approx(sol.utilities[i]):>12}"
                f" {format_rational(sol.transfers[i]):>14}"
            )
        if explain:
            print(f"water filling exhausted: {trace.exhausted}")
            for x, locked, _sets in trace.iterations:
                print(f"  raise by {format_rational(x)}, lock agents {list(locked)}")


def cmd_solve(args) -> int:
    inst, embedded = load_instance(args.instance)
    if isinstance(inst, MatchingInstance) and inst.rent is not None:
        inst = apply_rent_shift(inst)
    o = SetFunctionOracle(inst)
    d = resolve_disagreement(inst, args, embedded)
    if args.mechanism == "lexmax":
        sol, trace = solve_lexmax(o, d)
        if trace is None and args.explain:
            # the LP decided; --explain still shows where water filling stops
            trace = water_filling(o, d)[1]
    else:
        sol, trace = run_mechanism(args.mechanism, o, d), None
    emit_solution(o, sol, d, args, trace)
    return EXIT_OK


def cmd_check(args) -> int:
    inst, embedded = load_instance(args.instance)
    if isinstance(inst, MatchingInstance) and inst.rent is not None:
        inst = apply_rent_shift(inst)
    o = SetFunctionOracle(inst)
    ok = True
    requested = False
    if args.submodular:
        requested = True
        verdict = is_submodular(o)
        if verdict:
            print("submodular: yes")
        else:
            ok = False
            print(f"submodular: no  witness S={list(verdict.witness[0])} T={list(verdict.witness[1])}")
    if args.ws_core:
        requested = True
        d = resolve_disagreement(inst, args, embedded)
        verdict = ws_core_nonempty(o, d)
        if verdict:
            print(
                "ws-core: nonempty  witness "
                + " ".join(format_rational(u) for u in verdict.witness)
            )
        else:
            ok = False
            gap = "infeasible" if verdict.gap is None else format_rational(verdict.gap)
            print(f"ws-core: empty  gap {gap}")
    if args.anticore:
        requested = True
        try:
            with open(args.anticore) as fh:
                doc = json.load(fh)
            u = [parse_rational(x) for x in doc["utilities"]]
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad solution file: {exc}") from exc
        if len(u) != inst.n_agents:
            raise ParseError(f"solution has {len(u)} utilities for {inst.n_agents} agents")
        verdict = check_anticore(o, u)
        if verdict:
            print("anticore: ok")
        else:
            ok = False
            print(
                f"anticore: violation set {list(verdict.violating_set)}"
                f" slack {format_rational(verdict.slack)}"
            )
    if args.decompose:
        requested = True
        partition = dec.find_components(inst)
        print(f"components ({partition.certificate}): {partition.n_blocks} block(s)")
        for agents, items in partition.blocks:
            names = [inst.agent_ids[i] for i in agents]
            if items is not None:
                inames = [inst.item_ids[j] for j in items]
                print(f"  agents {names} items {inames}")
            else:
                print(f"  agents {names}")
    if not requested:
        print("no checks requested", file=sys.stderr)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_compare(args) -> int:
    inst, embedded = load_instance(args.instance)
    if isinstance(inst, MatchingInstance) and inst.rent is not None:
        inst = apply_rent_shift(inst)
    o = SetFunctionOracle(inst)
    d = resolve_disagreement(inst, args, embedded)
    partition = dec.find_components(inst)
    mechanisms = [t for t in MECHANISMS if t != "ef-maxmin"]
    if isinstance(inst, MatchingInstance) and inst.is_square:
        mechanisms.append("ef-maxmin")
    reports = []
    for tag in mechanisms:
        try:
            reports.append(mechanism_report(o, tag, d, partition=partition))
        except EmptyCoreError:
            reports.append(None)
    if getattr(args, "output", "table") == "json":
        doc = []
        for tag, rep in zip(mechanisms, reports):
            if rep is None:
                doc.append({"mechanism": tag, "error": "empty WS-core"})
            else:
                entry = solution_doc(rep.solution, d)
                entry["flags"] = rep.flags
                doc.append(entry)
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    flag_names = [
        "in_anticore",
        "dominates_disagreement",
        "reasonable_from_above",
        "weakly_decomposable",
    ]
    head = f"{'mechanism':<14} {'utilities':<40} " + " ".join(f"{f:<22}" for f in flag_names)
    print(head.rstrip())
    for tag, rep in zip(mechanisms, reports):
        if rep is None:
            print(f"{tag:<14} empty WS-core")
            continue
        utils = "(" + ", ".join(format_rational(u) for u in rep.solution.utilities) + ")"
        flags = " ".join(f"{str(rep.flags[f]):<22}" for f in flag_names)
        print(f"{tag:<14} {utils:<40} {flags}".rstrip())
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="welfareshare",
        description="Exact solvers for transferable-utility profit-sharing games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("instance", help="instance JSON path or fixture:NAME(params)")
        p.add_argument(
            "--disagreement",
            default=None,
            help="uniform | rp | rp-mc | eating | explicit=FILE",
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=100_000)

    solve = sub.add_parser("solve", help="run one mechanism")
    add_common(solve)
    solve.add_argument("--mechanism", choices=MECHANISMS, default="lexmax")
    solve.add_argument("--explain", action="store_true")
    solve.add_argument("--output", choices=("json", "csv", "table"), default="json")
    solve.set_defaults(func=cmd_solve)

    check = sub.add_parser("check", help="run property checks")
    add_common(check)
    check.add_argument("--submodular", action="store_true")
    check.add_argument("--ws-core", dest="ws_core", action="store_true")
    check.add_argument("--anticore", metavar="SOLFILE", default=None)
    check.add_argument("--decompose", action="store_true")
    check.set_defaults(func=cmd_check)

    compare = sub.add_parser("compare", help="run all applicable mechanisms")
    add_common(compare)
    compare.add_argument("--output", choices=("json", "table"), default="table")
    compare.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (IncompatibleOptionsError, BoundExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except EmptyCoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_CORE


if __name__ == "__main__":
    sys.exit(main())
