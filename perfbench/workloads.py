"""Seeded request streams for the benchmark's workloads.

A workload repeats a *round*: a fixed list of request classes, so every
seed keeps the stated shares exactly.  The seed picks what varies within a
class: the order in which the family members of the class's pool come up
(see ``_Pool``), the digits, the QMC shift seed, and the order of a round's
cheap requests.  A round's expensive requests go first.  A run stops only
between rounds, so it always holds whole rounds and the same mix whatever
the seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

SMALL_N_MAX = 20
_GOLDEN = (5 ** 0.5 - 1) / 2
WARM_DIGITS = 30

Member = Tuple[str, int]


@dataclass(frozen=True)
class Request:
    """One request: ``kind`` is ``eval`` (a CLI process), ``exact``, ``qmc`` or ``quad``."""

    cls: str
    kind: str
    family: str
    n: int
    digits: int = 0
    qmc_seed: int = 0
    round: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RequestClass:
    name: str
    kind: str
    groups: Tuple[Tuple[Member, ...], ...]
    digits: Tuple[int, int] = (0, 0)
    deadline_s: float = 30.0


def _members(family: str, ns) -> Tuple[Member, ...]:
    return tuple((family, n) for n in ns)


def _small(family: str) -> Tuple[Member, ...]:
    return _members(family, range(0 if family == "ii" else 1, SMALL_N_MAX + 1))


_EVEN_II = _members("ii", range(0, SMALL_N_MAX + 1, 2))
_WARM = (WARM_DIGITS, WARM_DIGITS)
_COLD = (10, 100)

# ``constants warm`` stores zeta up to zeta(21) and l3_ii(1), l3_ii(3) and
# l3_ii(5): enough for family ii at even n <= 18 and odd n <= 5.
_EVAL_WARM = (
    RequestClass("family-i", "eval", (_small("i"),), _WARM),
    RequestClass("family-ii-even", "eval", (_members("ii", range(0, 19, 2)),), _WARM),
    RequestClass("family-ii-odd", "eval", (_members("ii", (1, 3, 5)),), _WARM),
    RequestClass("family-iii", "eval", (_small("iii"),), _WARM),
)
# Each round of eval-cold leads with one family ii request at n = 1 and 6-8
# digits.  From 6 digits up mahlerzeta 0.1.0 sums the l3_ii series with its
# wide stride, the route every request of 30 digits takes; the request costs
# about 3 s, and its value is checked to all its digits.  Two cheaper
# requests end the round.  With the host probe after each request a round
# takes 10-18 s, so a 20 s run holds two: the median falls inside the cheap
# requests and the tail on the n = 1 requests whatever the seed.  With three
# cheap requests a round took up to 22 s on a slow host, a run then held one
# round, and its tail fell on a cheap request.
_L3_DEEP = RequestClass("family-ii-odd-wide-stride", "eval", (_members("ii", (1,)),), (6, 8), 60.0)
_COLD_OTHER = RequestClass("families-i-ii-even-iii", "eval", (_small("i"), _EVEN_II, _small("iii")), _COLD)
_EVAL_COLD = (_L3_DEEP,) + (_COLD_OTHER,) * 2

# A round of exact-sweep leads with family ii and family iii at n = 64, which
# cost about a second each; a 20 s run completes about twenty, enough for the
# tail percentile to fall among them.  Large members cost more as n grows
# (about twice as much at n = 68 as at n = 60), so they share one n: where
# the tail percentile falls among them then does not depend on how many
# rounds a run holds.  One member of family i or of family ii at odd n, cheap
# up to n = 100, follows.  Then every small member (n <= 20) once, so every
# run holds the same small mix and the median falls among them.
LARGE = RequestClass("large", "exact", (_members("ii", (64,)), _members("iii", (64,))), deadline_s=60.0)
LARGE_CHEAP = RequestClass("large-cheap", "exact", (_members("i", range(60, 101)), _members("ii", range(61, 100, 2))))
SMALL = RequestClass("small", "exact", (_small("i") + _small("ii") + _small("iii"),))
_EXACT_SWEEP = (LARGE, LARGE, LARGE_CHEAP) + (SMALL,) * len(SMALL.groups[0])

# Torus QMC needs torus dimension <= 4; the quadrature oracle takes n <= 6.
# A round of crosscheck runs family i at n = 3, the costliest QMC member,
# twice, then every QMC member once, then every quadrature member once, so
# every run holds the same mix.  A 20 s run holds four or five rounds, so the
# two extra requests put twelve or more of that member into it, and the tail
# percentile falls among them.  With each member once, the tail moved with
# the round count from one member to another, costing 0.57 s against 0.75 s.
QMC_MEMBERS = _members("i", (1, 2, 3)) + _members("ii", (0, 1)) + _members("iii", (1, 2))
QUAD_MEMBERS = _members("i", range(1, 7)) + _members("ii", range(0, 7)) + _members("iii", range(1, 7))
_QMC_HEAVY = RequestClass("torus-qmc-heaviest", "qmc", (_members("i", (3,)),))
_QMC = RequestClass("torus-qmc", "qmc", (QMC_MEMBERS,))
_QUAD = RequestClass("reduced-integral", "quad", (QUAD_MEMBERS,))
_CROSSCHECK = (_QMC_HEAVY,) * 2 + (_QMC,) * len(QMC_MEMBERS) + (_QUAD,) * len(QUAD_MEMBERS)

# Each round lists its classes; the number after them counts the expensive
# classes, which lead the round.
ROUNDS: Dict[str, Tuple[Tuple[RequestClass, ...], int]] = {
    "eval-warm": (_EVAL_WARM, 0),
    "eval-cold": (_EVAL_COLD, 1),
    "exact-sweep": (_EXACT_SWEEP, 2),
    "crosscheck": (_CROSSCHECK, 2 + len(QMC_MEMBERS)),
}
WORKLOADS = tuple(ROUNDS)


class _Pool:
    """Draws members cycling through the groups in turn.

    Each group repeats one order of its members, sorted by n and then
    visited in golden-ratio steps from a seed-chosen phase.  Any run of
    consecutive draws then spreads evenly over n, so however many rounds a
    run holds, its mix of cheap and costly members hardly changes.
    """

    def __init__(self, groups: Sequence[Sequence[Member]], rng: random.Random):
        self._groups: List[List[Member]] = []
        for group in groups:
            members = sorted(group, key=lambda member: member[1])
            phase = rng.random()
            steps = sorted(range(len(members)), key=lambda i: (phase + i * _GOLDEN) % 1.0)
            self._groups.append([members[i] for i in steps])
        self._order = list(range(len(groups)))
        rng.shuffle(self._order)
        self._drawn = [0] * len(groups)
        self._turn = 0

    def draw(self) -> Member:
        group = self._order[self._turn % len(self._order)]
        self._turn += 1
        members = self._groups[group]
        member = members[self._drawn[group] % len(members)]
        self._drawn[group] += 1
        return member


def round_classes(workload: str) -> Tuple[List[RequestClass], int]:
    """The classes of one round and how many of them lead it."""
    classes, heavy = ROUNDS[workload]
    return list(classes), heavy


def stream(workload: str, seed: int) -> Iterator[Tuple[Request, float]]:
    """Endless ``(request, deadline_s)`` pairs for one workload and seed."""
    classes, heavy = round_classes(workload)
    rng = random.Random("%s/%d" % (workload, seed))
    pools: Dict[str, _Pool] = {}
    for cls in classes:
        if cls.name not in pools:
            pools[cls.name] = _Pool(cls.groups, rng)
    for number in itertools.count():
        cheap = classes[heavy:]
        rng.shuffle(cheap)
        for cls in classes[:heavy] + cheap:
            family, n = pools[cls.name].draw()
            request = Request(
                cls=cls.name,
                kind=cls.kind,
                family=family,
                n=n,
                digits=rng.randint(*cls.digits) if cls.kind == "eval" else 0,
                qmc_seed=rng.randrange(2**31) if cls.kind == "qmc" else 0,
                round=number,
            )
            yield request, cls.deadline_s


def all_family_members() -> List[Member]:
    """Every family member any workload can request, in a stable order."""
    seen = set()
    for classes, _ in ROUNDS.values():
        for cls in classes:
            for group in cls.groups:
                seen.update(group)
    order = {"i": 0, "ii": 1, "iii": 2}
    return sorted(seen, key=lambda m: (order[m[0]], m[1]))
