"""Closed-loop benchmark of the `welfareshare` CLI, run in process.

    python3 bench/run.py                                  # both workloads
    python3 bench/run.py --workload compare-matching --seed 3 --seconds 60 --trace 0

One single-threaded client calls `welfareshare.cli.main(argv)` on instance
files generated from `--seed` at set-up; each call starts after the previous
one returns.  Every call's wall time, exit code and stdout are recorded, and
its output is checked after the timed loop (see checks.py).

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates an
untraced and a traced call on each instance and reports per-layer metrics
from the spans (see tracer.py); the spans are written to .bench-out/.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.

The package is imported from src/ beside this directory; without it the
benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import DEFAULT_SEED, check_call, load_golden  # noqa: E402
from tracer import LAYERS, SIMPLEX, WMAX, ORACLE_INIT, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, write_pool  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench-out")
SETUP_REPEATS = 9
# throughput_ips is the median rate over windows of the timed loop at least
# this long: like latency_p50_s, it then follows the speed the machine ran
# at for most of the run, not a mean that a stretch of minutes can drag
WINDOW_S = 2.0

# per-layer metric -> the spans whose self time it sums
SELF_METRICS = {
    "welfare.wmax_s": (WMAX,),
    "welfare.argmax_s": ("welfare.SetFunctionOracle.wmax_argmax", "welfare.wmax_argmax"),
    "welfare.submodular_s": ("welfare.is_submodular",),
    "disagreement.rp_exact_s": ("disagreement.rp_exact",),
    "core.simplex_s": (SIMPLEX,),
    "core.ws_core_s": ("core.ws_core_nonempty",),
    "core.lexmaxmin_s": ("core.lexicographic_maxmin",),
    "core.anticore_s": ("core.check_anticore",),
    "egalitarian.water_filling_s": ("egalitarian.water_filling",),
    "rivals.nucleolus_s": ("rivals.nucleolus_ws",),
    "rivals.ef_maxmin_s": ("rivals.ef_maxmin",),
    "rivals.shapley_s": ("rivals.shapley",),
    "cli.load_s": ("cli.load_instance", "cli.parse_instance_doc", "cli.json.load"),
    "cli.emit_s": ("cli.emit_solution", "cli.solution_doc", "cli.trace_doc", "cli.json.dumps"),
    "decompose.components_s": (
        "decompose.find_components",
        "decompose.find_components_matching",
        "decompose.find_components_general",
        "decompose.verify_component",
        "decompose.trivial_partition",
    ),
}
# per-layer metric -> the spans it counts
COUNT_METRICS = {
    "welfare.wmax_evals": WMAX,
    "welfare.oracles_built": ORACLE_INIT,
    "core.lp_solves": SIMPLEX,
    "egalitarian.water_filling_calls": "egalitarian.water_filling",
}


def import_cli():
    """A fresh import of welfareshare.cli from src/ (the set-up cost a new
    process pays)."""
    for name in [m for m in sys.modules if m == "welfareshare" or m.startswith("welfareshare.")]:
        del sys.modules[name]
    cli = importlib.import_module("welfareshare.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"welfareshare imported from {cli.__file__}, not {SRC}")
    return cli


def set_up(workload, seed, directory):
    """Import and write the pool SETUP_REPEATS times and return the median
    time.  Later repeats rewrite the files in place: creating hundreds of
    files swings with the disk's write-back state far more than the import
    does."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli = import_cli()
        paths, docs = write_pool(workload, seed, directory)
        times.append(time.perf_counter() - start)
    return cli, paths, docs, statistics.median(times)


def call(cli, argv):
    """(wall seconds, exit code or None, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed call, not a dead run
            rc, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    return wall, rc, out.getvalue(), error or err.getvalue().strip()


def percentile(sorted_values, pct):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail(sorted_values, pct):
    """The workload's tail percentile, lowered until at least 10 samples
    lie beyond it, but not below the median.  The percentile is fixed per
    workload, not re-derived from each run's sample count, so that runs
    of two commits report the same percentile."""
    while True:
        value, beyond = percentile(sorted_values, pct)
        if beyond >= 10 or pct <= 50:
            return value, pct, beyond
        pct -= 1


def run_loop(cli, workload, paths, seconds, tracer=None):
    """Closed loop over the pool until `seconds` pass.  Returns the loop's
    wall time, records (pool index, wall, rc, stdout, error, traced) and
    the loop time at which each untraced call ended."""
    records, ends = [], []
    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while True:
        idx = k % len(paths)
        argv = [workload.argv[0], paths[idx], *workload.argv[1:]]
        records.append((idx, *call(cli, argv), False))
        ends.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.call_id = k
            tracer.install()
            try:
                records.append((idx, *call(cli, argv), True))
            finally:
                tracer.uninstall()
        k += 1
        if time.perf_counter() >= deadline:
            break
    return time.perf_counter() - start, records, ends


def check_records(workload, seed, docs, records):
    golden = load_golden().get(workload.name) if seed == DEFAULT_SEED else None
    argv = list(workload.argv)
    return [
        error if rc is None else check_call(docs[idx], argv, rc, stdout, golden[idx] if golden else None)
        for idx, _wall, rc, stdout, error, _traced in records
    ]


def input_shares(docs, records, tracer=None):
    """Input properties with their bases: row ties (from the files), and
    with a tracer the verdicts the library reached."""
    seen = [docs[i] for i in sorted({idx for idx, *_ in records})]
    matchings = [doc for doc in seen if doc["kind"] == "matching"]
    ties = sum(any(len(set(row)) != len(row) for row in doc["values"]) for doc in matchings)
    shares = {"row_tie": (ties, len(matchings), "matching instances")} if matchings else {}
    if tracer is not None:
        for key, name in (("non_submodular", "welfare.is_submodular"), ("nonempty_core", "core.ws_core_nonempty")):
            verdicts = [v for (cid, fn), vals in tracer.notes.items() if fn == name for v in vals]
            hits = sum(not v for v in verdicts) if key == "non_submodular" else sum(verdicts)
            shares[key] = (hits, len(verdicts), f"{name} calls")
    return shares


def window_rates(ends, failures):
    """Correct calls per second in consecutive windows of the timed loop,
    each closed by the first call to end WINDOW_S or more after it opened;
    a shorter remainder at the end is left out."""
    rates, opened, ok = [], 0.0, 0
    for end, reason in zip(ends, failures):
        ok += reason is None
        if end - opened >= WINDOW_S:
            rates.append(ok / (end - opened))
            opened, ok = end, 0
    return rates


def end_to_end(workload, loop_s, records, ends, failures, setup_s):
    lat = sorted(wall if reason is None else math.inf for (_, wall, *_), reason in zip(records, failures))
    ok = sum(reason is None for reason in failures)

    def finite(x):  # a failed call misses every latency limit
        return loop_s if math.isinf(x) else x

    p50, _ = percentile(lat, 50)
    tail_value, tail_pct, beyond = tail(lat, workload.tail_pct)
    rates = window_rates(ends, failures) or [ok / loop_s]
    metrics = {
        "latency_p50_s": (finite(p50), "s"),
        "latency_tail_s": (finite(tail_value), "s"),
        "throughput_ips": (statistics.median(rates), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "latency_tail_s": f"p{tail_pct} of {len(lat)} calls, {beyond} beyond",
        "throughput_ips": f"median of {len(rates)} windows; mean {ok / loop_s:.6g}",
        "setup_s": f"median of {SETUP_REPEATS}",
    }
    return metrics, notes


def per_layer(records, tracer):
    traced = [r for r in records if r[-1]]
    untraced = [r for r in records if not r[-1]]
    n = len(traced)
    wanted = {x for names in SELF_METRICS.values() for x in names} | set(COUNT_METRICS.values())
    for name in sorted(wanted - set(tracer.names)):
        # a renamed or removed library function would otherwise read as 0
        print(f"warning: no traced function {name}", file=sys.stderr)
    selfs = self_times(tracer.spans)
    self_by, count_by = {}, {}
    for (fid, *_), s in zip(tracer.spans, selfs):
        name = tracer.names[fid]
        self_by[name] = self_by.get(name, 0) + s
        count_by[name] = count_by.get(name, 0) + 1
    metrics = {}
    for metric, names in SELF_METRICS.items():
        metrics[metric] = (sum(self_by.get(x, 0) for x in names) / 1e9 / n, "s")
    for metric, name in COUNT_METRICS.items():
        metrics[metric] = (count_by.get(name, 0) / n, "count")
    rows = [v for (cid, fn), vals in tracer.notes.items() if fn == SIMPLEX for v in vals]
    metrics["core.lp_rows_mean"] = (float(statistics.mean(rows)) if rows else 0.0, "rows")
    layer_self = {layer: 0 for layer in LAYERS}
    layer_spans = {layer: 0 for layer in LAYERS}
    for name, s in self_by.items():
        layer_self[name.split(".")[0]] += s
        layer_spans[name.split(".")[0]] += count_by[name]
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = (layer_self[layer] / 1e9 / n, "s")
        metrics[f"layer.{layer}.spans"] = (layer_spans[layer] / n, "count")
    metrics["trace.overhead_ratio"] = (
        sum(r[1] for r in traced) / sum(r[1] for r in untraced),
        "ratio",
    )
    total = sum(layer_self.values())
    shares = {layer: layer_self[layer] / total for layer in LAYERS}
    return metrics, shares


def run_workload(args):
    workload = WORKLOADS[args.workload]
    if not os.path.isfile(os.path.join(SRC, "welfareshare", "__init__.py")):
        print(f"error: no welfareshare package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    directory = os.path.join(OUT, f"{workload.name}-seed{args.seed}-pid{os.getpid()}")
    try:
        cli, paths, docs, setup_s = set_up(workload, args.seed, directory)
        tracer = Tracer() if args.trace else None
        loop_s, records, ends = run_loop(cli, workload, paths, args.seconds, tracer)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    failures = check_records(workload, args.seed, docs, records)
    failed = sum(reason is not None for reason in failures)
    instances = sum(not traced for *_, traced in records)
    print(
        f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
        f"{len(records)} calls in {loop_s:.2f} s, {failed} failed, "
        f"{instances} instances of a {workload.pool}-file pool"
        + (" (pool wrapped)" if instances > workload.pool else "")
    )
    for (idx, *_), reason in zip(records, failures):
        if reason is not None:
            print(f"  FAIL instance {idx:04d}: {reason}", file=sys.stderr)
    print(f"  fail_ratio {failed / len(records):.4g} ({failed} of {len(records)})")
    for key, (hits, base, what) in input_shares(docs, records, tracer).items():
        print(f"  input {key}_share {hits / base if base else 0:.3f} ({hits} of {base} {what})")
    if tracer is None:
        metrics, notes = end_to_end(workload, loop_s, records, ends, failures, setup_s)
    else:
        metrics, shares = per_layer(records, tracer)
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{workload.name}-seed{args.seed}.csv")
        tracer.write_spans(spans_path)
        top = max(shares, key=shares.get)
        verdict = "as sized" if top == workload.expected_layer else "MISMATCH"
        print(
            "  layer shares of traced self time: "
            + ", ".join(f"{layer} {shares[layer]:.1%}" for layer in LAYERS)
        )
        print(f"  dominant layer {top} (sized: {workload.expected_layer}) {verdict}")
        print(f"  {len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}")
        notes = {}
    for name, (value, unit) in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<34} {value:.6g} {unit}{extra}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            status = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = entry
    if status:
        return status
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
