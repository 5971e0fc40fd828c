"""Shared generators for randomized test suites.

Everything is seeded; a failure reproduces deterministically.
"""

import random
from fractions import Fraction

from welfareshare.model import Instance, MatchingInstance


def random_matching(rng: random.Random, n: int, lo: int = -10, hi: int = 10,
                    distinct: bool = False, n_items: int = None) -> MatchingInstance:
    """Matching instance with integer values in [lo, hi]; square unless
    n_items is given."""
    m = n if n_items is None else n_items
    if distinct:
        rows = []
        for _ in range(n):
            pool = rng.sample(range(lo * 4, hi * 4 + 1), m)
            rows.append(tuple(Fraction(v, 4) for v in pool))
        values = tuple(rows)
    else:
        values = tuple(
            tuple(Fraction(rng.randint(lo, hi)) for _ in range(m)) for _ in range(n)
        )
    return MatchingInstance(
        item_ids=tuple(f"item{j}" for j in range(m)),
        values=values,
        agent_ids=tuple(f"agent{i}" for i in range(n)),
        rent=Fraction(0),
    )


def random_general(rng: random.Random, n: int, n_alts: int,
                   lo: int = -10, hi: int = 10) -> Instance:
    values = tuple(
        tuple(Fraction(rng.randint(lo, hi)) for _ in range(n_alts)) for _ in range(n)
    )
    return Instance(
        alternative_ids=tuple(f"alt{a}" for a in range(n_alts)),
        values=values,
        agent_ids=tuple(f"agent{i}" for i in range(n)),
    )


def planted_block_matching(rng: random.Random, block_sizes) -> tuple:
    """Matching instance whose minimal components are the given blocks.

    Within a block all agents share one strict preference order over the
    block's items (with distinct values per agent), and every in-block value
    strictly exceeds every out-of-block value.  Under these conditions every
    Pareto-optimal assignment keeps each block's items inside the block, and
    within a block every assignment is Pareto-optimal, so the planted blocks
    are exactly the minimal independent components.
    """
    n = sum(block_sizes)
    values = [[None] * n for _ in range(n)]
    blocks = []
    start = 0
    for size in block_sizes:
        agents = tuple(range(start, start + size))
        items = tuple(range(start, start + size))
        order = list(items)
        rng.shuffle(order)
        for i in agents:
            # strictly decreasing along the shared order, distinct entries
            top = Fraction(rng.randint(100, 120))
            step = Fraction(rng.randint(2, 5))
            for rank, j in enumerate(order):
                values[i][j] = top - step * rank + Fraction(rng.randint(0, 3), 4)
            lo_pool = [Fraction(v, 8) for v in rng.sample(range(72), n - size)]
            outside = [j for j in range(n) if j not in items]
            for j, v in zip(outside, lo_pool):
                values[i][j] = v
        blocks.append((agents, items))
        start += size
    inst = MatchingInstance(
        item_ids=tuple(f"item{j}" for j in range(n)),
        values=tuple(tuple(row) for row in values),
        agent_ids=tuple(f"agent{i}" for i in range(n)),
        rent=Fraction(0),
    )
    return inst, tuple(blocks)
