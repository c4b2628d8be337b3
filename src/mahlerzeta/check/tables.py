"""Hard-coded reference rows for small transform counts.

The rows in this module are transcription fixtures: they were recorded
independently of :mod:`mahlerzeta.formulas` and are never regenerated from
it, so they can serve as ground truth for the formula evaluators.

Two rows of the source transcription are known errata.  For family ``ii``
with 3 transforms, the circulated form ``24 pi^2 L(chi_-4,4) + pi^4
L(chi_-4,2) + 16 i*scriptL_{3,3} + 4 pi i*scriptL_{3,1}`` is not even
weight-homogeneous (the last term has weight 5 while the rest have weight 6)
and disagrees with high-precision numerical integration by about 14.9; the
corrected form replaces the last two coefficients by ``8`` and ``pi^2``.  For
family ``iii`` with 3 transforms, the circulated middle coefficient ``7/3``
drops one of the two sums contributing to it; the corrected coefficient is
``49/12``, confirmed by numerical integration to 1e-12.  Both variants are
kept so tests can pin the corrections *and* the mismatches.  The ``tables``
suite of the ``verify`` registry (:mod:`mahlerzeta.check`) runs both.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

from ..combinations import ZetaCombination
from ..formulas import Family, FamilySpec, MahlerResult, mahler_measure

__all__ = ["TableRow", "table_rows", "errata_rows", "reproduce_tables"]

_Z = ZetaCombination


class TableRow(NamedTuple):
    """One reference row.

    Attributes
    ----------
    spec : FamilySpec
        The family member the row belongs to.
    printed : ZetaCombination
        The combination exactly as transcribed.
    corrected : ZetaCombination, optional
        Set only for errata rows: the corrected combination.
    """

    spec: FamilySpec
    printed: ZetaCombination
    corrected: Optional[ZetaCombination] = None

    @property
    def has_erratum(self) -> bool:
        """True when the transcribed form is a known misprint."""
        return self.corrected is not None

    @property
    def canonical(self) -> ZetaCombination:
        """The combination treated as ground truth (corrected when present)."""
        return self.printed if self.corrected is None else self.corrected


_TABLE_ROWS: Tuple[TableRow, ...] = (
    # family i, 1..8 transforms
    TableRow(FamilySpec(Family.ONE, 1), _Z.lchi4(2, 0, 2)),
    TableRow(FamilySpec(Family.ONE, 2), _Z.zeta(3, 0, 7)),
    TableRow(FamilySpec(Family.ONE, 3), _Z.lchi4(4, 0, 24) + _Z.lchi4(2, 2, 1)),
    TableRow(FamilySpec(Family.ONE, 4), _Z.zeta(5, 0, 62) + _Z.zeta(3, 2, Fraction(14, 3))),
    TableRow(
        FamilySpec(Family.ONE, 5),
        _Z.lchi4(6, 0, 160) + _Z.lchi4(4, 2, 20) + _Z.lchi4(2, 4, Fraction(3, 4)),
    ),
    TableRow(
        FamilySpec(Family.ONE, 6),
        _Z.zeta(7, 0, 381) + _Z.zeta(5, 2, 62) + _Z.zeta(3, 4, Fraction(56, 15)),
    ),
    TableRow(
        FamilySpec(Family.ONE, 7),
        _Z.lchi4(8, 0, 896)
        + _Z.lchi4(6, 2, Fraction(560, 3))
        + _Z.lchi4(4, 4, Fraction(259, 15))
        + _Z.lchi4(2, 6, Fraction(5, 8)),
    ),
    TableRow(
        FamilySpec(Family.ONE, 8),
        _Z.zeta(9, 0, 2044)
        + _Z.zeta(7, 2, 508)
        + _Z.zeta(5, 4, Fraction(868, 15))
        + _Z.zeta(3, 6, Fraction(16, 5)),
    ),
    # family ii, 0,1,2,3,4,6 transforms
    TableRow(FamilySpec(Family.TWO, 0), _Z.zeta(3, 0, Fraction(7, 2))),
    TableRow(FamilySpec(Family.TWO, 1), _Z.lchi4(2, 2, 2) + _Z.l3_ii(1, 0, 2)),
    TableRow(FamilySpec(Family.TWO, 2), _Z.zeta(5, 0, 93)),
    TableRow(
        FamilySpec(Family.TWO, 3),
        _Z.lchi4(4, 2, 24) + _Z.lchi4(2, 4, 1) + _Z.l3_ii(3, 0, 16) + _Z.l3_ii(1, 1, 4),
        corrected=_Z.lchi4(4, 2, 24) + _Z.lchi4(2, 4, 1) + _Z.l3_ii(3, 0, 8) + _Z.l3_ii(1, 2, 1),
    ),
    TableRow(FamilySpec(Family.TWO, 4), _Z.zeta(7, 0, Fraction(1905, 2)) + _Z.zeta(5, 2, 31)),
    TableRow(
        FamilySpec(Family.TWO, 6),
        _Z.zeta(9, 0, 7154) + _Z.zeta(7, 2, 635) + _Z.zeta(5, 4, Fraction(248, 15)),
    ),
    # family iii, 1..4 transforms
    TableRow(
        FamilySpec(Family.THREE, 1), _Z.zeta(3, 0, Fraction(7, 2)) + _Z.log2(2, Fraction(1, 2))
    ),
    TableRow(
        FamilySpec(Family.THREE, 2), _Z.zeta(3, 1, Fraction(21, 4)) + _Z.log2(3, Fraction(1, 2))
    ),
    TableRow(
        FamilySpec(Family.THREE, 3),
        _Z.zeta(5, 0, 31) + _Z.zeta(3, 2, Fraction(7, 3)) + _Z.log2(4, Fraction(1, 2)),
        corrected=_Z.zeta(5, 0, 31)
        + _Z.zeta(3, 2, Fraction(49, 12))
        + _Z.log2(4, Fraction(1, 2)),
    ),
    TableRow(
        FamilySpec(Family.THREE, 4),
        _Z.zeta(5, 1, Fraction(155, 4))
        + _Z.zeta(3, 3, Fraction(14, 3))
        + _Z.log2(5, Fraction(1, 2)),
    ),
)


def table_rows() -> List[TableRow]:
    """Return all 18 reference rows in table order."""
    return list(_TABLE_ROWS)


def errata_rows() -> List[TableRow]:
    """Return the rows whose transcribed form is a known misprint."""
    return [row for row in _TABLE_ROWS if row.has_erratum]


def reproduce_tables() -> List[Tuple[MahlerResult, bool]]:
    """Evaluate the closed forms for every reference row and compare exactly.

    Returns
    -------
    list of (MahlerResult, bool)
        One pair per row, in table order (the row's spec is
        ``result.spec``); the flag is True when the evaluated combination
        equals the row's canonical combination exactly (corrected form for
        the two errata rows, transcribed form otherwise).
    """
    results: List[Tuple[MahlerResult, bool]] = []
    for row in _TABLE_ROWS:
        result = mahler_measure(row.spec)
        results.append((result, result.combination == row.canonical))
    return results
