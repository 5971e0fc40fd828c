"""Domain types: exact rationals, instances, disagreement points, solutions.

All arithmetic in the solvers is exact: values are `fractions.Fraction`s,
and the LP tableau keeps integral entries as Python ints.  Floats never
enter the solvers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence, Union

class BoundExceededError(ValueError):
    """An enumeration-bounded operation was asked to exceed its bound."""


# caps on a parsed rational string: digits, and |decimal exponent|
MAX_DIGITS = 1000
MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)$")


def parse_rational(text: Union[str, int, Fraction]) -> Fraction:
    """Parse "p/q", integer, or decimal strings into an exact Fraction.

    Decimal strings are converted with a base-10 denominator, so "0.1"
    becomes exactly 1/10.  Floats are rejected: binary floats silently
    contaminate exact pipelines, and bools (JSON true) are not numbers.  A
    zero denominator, more than MAX_DIGITS digits or an exponent beyond
    MAX_EXPONENT raise ValueError.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, (bool, float)):
        raise TypeError(f"refusing {type(text).__name__} input; pass a string or int")
    if isinstance(text, int):
        return Fraction(text)
    text = str(text).strip()
    if sum(c.isdigit() for c in text) > MAX_DIGITS:
        raise ValueError(f"rational with more than {MAX_DIGITS} digits")
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent.group(1))) > MAX_EXPONENT:
        raise ValueError(f"exponent beyond {MAX_EXPONENT} in {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(x: Fraction) -> str:
    """Render as "p/q" or a bare integer; parse(format(x)) == x."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _freeze_matrix(values: Sequence[Sequence[Union[str, int, Fraction]]]):
    rows = tuple(tuple(parse_rational(v) for v in row) for row in values)
    if not rows:
        raise ValueError("empty value matrix")
    width = len(rows[0])
    if width == 0 or any(len(r) != width for r in rows):
        raise ValueError("value matrix must be rectangular and nonempty")
    return rows


@dataclass(frozen=True)
class Instance:
    """General game: n agents choose one of a list of alternatives."""

    alternative_ids: tuple
    values: tuple  # values[i][a] = v_i(alternative a)
    agent_ids: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze_matrix(self.values))
        object.__setattr__(self, "alternative_ids", tuple(self.alternative_ids))
        if len(self.alternative_ids) != len(self.values[0]):
            raise ValueError("alternative_ids length mismatch")
        if not self.agent_ids:
            object.__setattr__(
                self, "agent_ids", tuple(str(i + 1) for i in range(len(self.values)))
            )
        else:
            object.__setattr__(self, "agent_ids", tuple(self.agent_ids))
            if len(self.agent_ids) != len(self.values):
                raise ValueError("agent_ids length mismatch")

    @property
    def n_agents(self) -> int:
        return len(self.values)

    @property
    def n_alternatives(self) -> int:
        return len(self.alternative_ids)

    def restrict_agents(self, agents: Sequence[int]) -> "Instance":
        """Same alternatives, only the listed agents (order preserved)."""
        return Instance(
            alternative_ids=self.alternative_ids,
            values=tuple(self.values[i] for i in agents),
            agent_ids=tuple(self.agent_ids[i] for i in agents),
        )


@dataclass(frozen=True)
class MatchingInstance:
    """Unit-demand matching: alternatives are assignments of items to agents.

    Never materialized as an Instance except on demand; n_items >= n_agents
    and every agent must receive an item (negative values allowed).
    """

    item_ids: tuple
    values: tuple  # values[i][j] = v_i(item j)
    agent_ids: tuple = ()
    rent: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze_matrix(self.values))
        object.__setattr__(self, "item_ids", tuple(self.item_ids))
        if len(self.item_ids) != len(self.values[0]):
            raise ValueError("item_ids length mismatch")
        if len(self.item_ids) < len(self.values):
            raise ValueError("need n_items >= n_agents")
        if not self.agent_ids:
            object.__setattr__(
                self, "agent_ids", tuple(str(i + 1) for i in range(len(self.values)))
            )
        else:
            object.__setattr__(self, "agent_ids", tuple(self.agent_ids))
            if len(self.agent_ids) != len(self.values):
                raise ValueError("agent_ids length mismatch")
        if self.rent is not None:
            object.__setattr__(self, "rent", parse_rational(self.rent))

    @property
    def n_agents(self) -> int:
        return len(self.values)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def is_square(self) -> bool:
        return self.n_agents == self.n_items

    def restrict(self, agents: Sequence[int], items: Sequence[int]) -> "MatchingInstance":
        return MatchingInstance(
            item_ids=tuple(self.item_ids[j] for j in items),
            values=tuple(tuple(self.values[i][j] for j in items) for i in agents),
            agent_ids=tuple(self.agent_ids[i] for i in agents),
        )


def apply_rent_shift(m: MatchingInstance) -> MatchingInstance:
    """Shift every valuation down by rent/n and clear the rent field."""
    if m.rent is None:
        raise ValueError("instance has no rent to shift")
    if not m.is_square:
        raise ValueError("rent shift requires a square instance")
    if m.rent == 0:
        return replace(m, rent=None)
    share = m.rent / m.n_agents
    return MatchingInstance(
        item_ids=m.item_ids,
        values=tuple(tuple(v - share for v in row) for row in m.values),
        agent_ids=m.agent_ids,
        rent=None,
    )


@dataclass(frozen=True)
class DisagreementPoint:
    utilities: tuple
    provenance: str = "explicit"

    def __post_init__(self):
        object.__setattr__(
            self, "utilities", tuple(parse_rational(u) for u in self.utilities)
        )

    def __len__(self):
        return len(self.utilities)

    def __getitem__(self, i):
        return self.utilities[i]

    def total(self, agents=None) -> Fraction:
        if agents is None:
            return sum(self.utilities, Fraction(0))
        return sum((self.utilities[i] for i in agents), Fraction(0))


def zero_disagreement(n: int) -> DisagreementPoint:
    return DisagreementPoint(utilities=(Fraction(0),) * n, provenance="explicit")


def normalize_to_disagreement(inst, d: DisagreementPoint):
    """Shift each agent's valuations by -d_i, making the disagreement point 0.

    Works on general and matching instances alike (rows shift uniformly).
    """
    if len(d) != len(inst.values):
        raise ValueError("disagreement length mismatch")
    new_values = tuple(
        tuple(v - d[i] for v in row) for i, row in enumerate(inst.values)
    )
    return replace(inst, values=new_values)


@dataclass(frozen=True)
class Solution:
    """Chosen alternative plus transfers; budget balanced by construction."""

    alternative: object  # alternative id, or an agent->item assignment tuple
    transfers: tuple
    utilities: tuple
    mechanism: str

    def __post_init__(self):
        object.__setattr__(
            self, "transfers", tuple(parse_rational(p) for p in self.transfers)
        )
        object.__setattr__(
            self, "utilities", tuple(parse_rational(u) for u in self.utilities)
        )
        if len(self.transfers) != len(self.utilities):
            raise ValueError("transfer/utility length mismatch")
        if sum(self.transfers, Fraction(0)) != 0:
            raise ValueError("transfers must balance to zero exactly")

    @classmethod
    def build(cls, alternative, alt_values, utilities, mechanism: str) -> "Solution":
        """Derive transfers p_i = u_i - v_i(alternative) and validate."""
        alt_values = tuple(parse_rational(v) for v in alt_values)
        utilities = tuple(parse_rational(u) for u in utilities)
        transfers = tuple(u - v for u, v in zip(utilities, alt_values))
        return cls(
            alternative=alternative,
            transfers=transfers,
            utilities=utilities,
            mechanism=mechanism,
        )


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

F = Fraction


def _fixture_ex1(delta: Fraction) -> MatchingInstance:
    if not (0 < delta < F(1, 4)):
        raise ValueError("EX1 requires 0 < delta < 1/4")
    return MatchingInstance(
        item_ids=("room1", "room2", "room3"),
        agent_ids=("student1", "student2", "student3"),
        values=(
            (1 - delta, delta, F(0)),
            (1 - 2 * delta, 2 * delta, F(0)),
            (F(0), F(1, 2) - delta, F(1, 2) + delta),
        ),
    )


def _fixture_ex2() -> Instance:
    # six agents, four alternatives; per-alternative value columns
    cols = {
        "A": (1, 1, 1, 1, 3, 3),
        "B": (0, 2, 2, 2, 2, 2),
        "C": (-1, -1, -1, -1, 4, -9),
        "D": (0, -2, -2, -2, -9, 4),
    }
    alts = ("A", "B", "C", "D")
    values = tuple(
        tuple(F(cols[a][i]) for a in alts) for i in range(6)
    )
    return Instance(alternative_ids=alts, values=values)


def _fixture_ex3() -> Instance:
    return Instance(
        alternative_ids=("1", "2", "3", "4"),
        values=((F(2), F(0), F(0), F(1)), (F(0), F(2), F(0), F(1)), (F(0), F(0), F(2), F(2))),
    )


def _fixture_ex4() -> Instance:
    """Three items split among four agents; agent D is budget-additive.

    Alternatives enumerate all 4^3 ownership vectors; ids spell out the
    owner of each item, e.g. "BCD" = item1 to B, item2 to C, item3 to D.
    """
    agents = ("A", "B", "C", "D")
    additive = {
        "A": (F(1), F(0), F(0)),
        "B": (F(0), F(2), F(0)),
        "C": (F(0), F(0), F(2)),
    }
    d_item = (F(2), F(1), F(1))
    d_cap = F(2)
    ids = []
    values = [[] for _ in agents]
    for o1 in agents:
        for o2 in agents:
            for o3 in agents:
                owners = (o1, o2, o3)
                ids.append("".join(owners))
                for ai, a in enumerate(agents):
                    bundle = [j for j in range(3) if owners[j] == a]
                    if a == "D":
                        v = min(d_cap, sum((d_item[j] for j in bundle), F(0)))
                    else:
                        v = sum((additive[a][j] for j in bundle), F(0))
                    values[ai].append(v)
    return Instance(
        alternative_ids=tuple(ids),
        values=tuple(tuple(row) for row in values),
        agent_ids=agents,
    )


def _fixture_ex5() -> MatchingInstance:
    return MatchingInstance(
        item_ids=("A", "B", "C", "D"),
        values=(
            (F(12), F(0), F(6), F(0)),
            (F(12), F(6), F(0), F(0)),
            (F(24), F(12), F(0), F(25)),
        ),
    )


def _fixture_two(delta: Fraction) -> MatchingInstance:
    if not (-1 <= delta <= 1):
        raise ValueError("TWO requires -1 <= delta <= 1")
    return MatchingInstance(
        item_ids=("1", "2"),
        agent_ids=("A", "B"),
        values=((F(1), F(-1)), (delta, -delta)),
    )


def _fixture_wf_fail() -> Instance:
    return Instance(
        alternative_ids=("1", "2", "3"),
        values=((F(0), F(-2), F(2)), (F(0), F(2), F(-1)), (F(0), F(2), F(-1))),
    )


def _fixture_empty_core() -> Instance:
    return Instance(
        alternative_ids=("1", "2"),
        values=((F(0), F(-1)), (F(0), F(1)), (F(0), F(1))),
    )


def _fixture_ks4() -> MatchingInstance:
    return MatchingInstance(
        item_ids=("1", "2", "3", "4"),
        values=(
            (F(4), F(8), F(0), F(0)),
            (F(4), F(12), F(0), F(0)),
            (F(0), F(0), F(4), F(8)),
            (F(0), F(0), F(4), F(20)),
        ),
    )


def _fixture_lip(n: int, variant=False) -> Instance:
    if n < 3:
        raise ValueError("LIP requires n >= 3")
    if variant not in (True, False, "true", "false", "1", "0"):
        raise ValueError(f"LIP variant must be true, false, 1 or 0, not {variant!r}")
    first = (F(1), F(3) if variant in (True, "true", "1") else F(2), F(0), F(0))
    mid = (F(1), F(0), F(6), F(0))
    last = (F(1), F(0), F(0), F(6 * n))
    values = (first,) + tuple(mid for _ in range(n - 2)) + (last,)
    return Instance(alternative_ids=("A1", "A2", "A3", "A4"), values=values)


def _fixture_rent5(eps: Fraction) -> MatchingInstance:
    if not (0 < eps < F(1, 8)):
        raise ValueError("RENT5 requires 0 < eps < 1/8")
    third = (1 - eps) / 3
    row15 = (1 - eps, F(0), eps, F(0), F(0))
    row24 = (F(0), 1 - eps, F(0), eps, F(0))
    row5 = (F(0), F(0), third, third, (1 + 2 * eps) / 3)
    return MatchingInstance(
        item_ids=("1", "2", "3", "4", "5"),
        values=(row15, row24, row15, row24, row5),
        rent=F(1),
    )


def _fixture_rpdisc(eps: Fraction) -> MatchingInstance:
    if not (0 < eps < F(1, 2)):
        raise ValueError("RPDISC requires 0 < eps < 1/2")
    return MatchingInstance(
        item_ids=("1", "2", "3"),
        values=(
            (F(1), 1 - eps, eps),
            (F(1), 1 - eps, eps),
            (F(1), F(0), eps),
        ),
    )


def fixture(name: str, **params):
    """Named instances used throughout the test corpus and the CLI.

    Parameterized fixtures: EX1(delta), TWO(delta), LIP(n, variant),
    RENT5(eps), RPDISC(eps).
    """
    name = name.upper()
    # name -> (builder, parameter names it takes)
    table = {
        "EX1": (lambda: _fixture_ex1(parse_rational(params["delta"])), ("delta",)),
        "EX2": (_fixture_ex2, ()),
        "EX3": (_fixture_ex3, ()),
        "EX4": (_fixture_ex4, ()),
        "EX5": (_fixture_ex5, ()),
        "TWO": (lambda: _fixture_two(parse_rational(params["delta"])), ("delta",)),
        "WF_FAIL": (_fixture_wf_fail, ()),
        "EMPTY_CORE": (_fixture_empty_core, ()),
        "KS4": (_fixture_ks4, ()),
        "LIP": (
            lambda: _fixture_lip(int(params["n"]), params.get("variant", False)),
            ("n", "variant"),
        ),
        "RENT5": (lambda: _fixture_rent5(parse_rational(params["eps"])), ("eps",)),
        "RPDISC": (lambda: _fixture_rpdisc(parse_rational(params["eps"])), ("eps",)),
    }
    if name not in table:
        raise KeyError(f"unknown fixture {name!r}")
    build, takes = table[name]
    for key in params:
        if key not in takes:
            raise ValueError(f"fixture {name} takes no parameter {key!r}")
    return build()
