"""The two benchmark workloads and their seeded instance generators.

Every instance is made from `random.Random(f"{workload}:{seed}:{index}")`,
so the same seed gives byte-identical files, and the instance at a given
index does not depend on how many instances the pool holds.  All values lie
in [-10, 10].
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple  # CLI arguments after the instance path
    pool: int  # instance files written at set-up; the timed loop cycles them
    tail_pct: int  # latency percentile reported as latency_tail_s
    expected_layer: str  # the layer the sizing says dominates traced time


def _matching(rng, n):
    rows = [[Fraction(rng.randint(-10, 10)) for _ in range(n)] for _ in range(n)]
    return {
        "kind": "matching",
        "items": [f"item{j}" for j in range(n)],
        "values": [[str(v) for v in row] for row in rows],
    }


def make_instance(workload: str, seed: int, index: int) -> dict:
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "solve-matching-ties":
        return _matching(rng, 7)
    if workload == "compare-matching":
        return _matching(rng, 4)
    raise KeyError(workload)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve-matching-ties",
            "n=7 integer matchings with row ties, lexmax --explain: RP's n! "
            "serial-dictatorship path dominates; the W_max oracle is most of the rest",
            ("solve", "--mechanism", "lexmax", "--explain"),
            pool=160,
            tail_pct=85,
            expected_layer="disagreement",
        ),
        Workload(
            "compare-matching",
            "n=4 integer matchings, compare --output json: many small exact LPs "
            "(nucleolus, EF, core checks) dominate",
            ("compare", "--output", "json"),
            pool=480,
            tail_pct=95,
            expected_layer="core",
        ),
    )
}


def instance_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def write_pool(workload: Workload, seed: int, directory: str):
    """Generate and write the workload's instance files; returns
    (paths, docs) in pool order."""
    os.makedirs(directory, exist_ok=True)
    paths, docs = [], []
    for index in range(workload.pool):
        doc = make_instance(workload.name, seed, index)
        path = os.path.join(directory, f"{index:04d}.json")
        with open(path, "wb") as fh:
            fh.write(instance_bytes(doc))
        paths.append(path)
        docs.append(doc)
    return paths, docs
