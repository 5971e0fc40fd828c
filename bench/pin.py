"""Rewrite golden.json: run every pool instance of every workload at the
default seed and pin its exit code and output digest.

    python3 bench/pin.py

Run it only on a commit whose outputs are known right; the benchmark then
counts any change in a pinned field as a failed call.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from checks import DEFAULT_SEED, GOLDEN_PATH, check_call, pin_digest
from workloads import WORKLOADS, write_pool


def main():
    if not os.path.isfile(os.path.join(run.SRC, "welfareshare", "__init__.py")):
        print(f"error: no welfareshare package under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    cli = run.import_cli()
    golden = {}
    bad = 0
    for name, workload in WORKLOADS.items():
        directory = os.path.join(run.OUT, f"pin-{name}")
        try:
            paths, docs = write_pool(workload, DEFAULT_SEED, directory)
            entries = []
            for idx, (path, doc) in enumerate(zip(paths, docs)):
                _wall, rc, stdout, error = run.call(cli, [workload.argv[0], path, *workload.argv[1:]])
                reason = error if rc is None else check_call(doc, list(workload.argv), rc, stdout)
                if reason is not None:
                    print(f"{name} {idx:04d}: {reason}", file=sys.stderr)
                    bad += 1
                entries.append([rc, pin_digest(stdout) if rc == 0 else None])
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        golden[name] = entries
        print(f"{name}: pinned {len(entries)} calls")
    if bad:
        print(f"error: {bad} calls failed their invariants; golden.json not written", file=sys.stderr)
        return 1
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
