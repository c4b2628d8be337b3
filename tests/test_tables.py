"""Tests for the hard-coded reference rows and their reproduction."""

from __future__ import annotations

from fractions import Fraction

from mahlerzeta.combinations import ZetaCombination
from mahlerzeta.formulas import Family, mahler_measure
from mahlerzeta.check.tables import errata_rows, reproduce_tables, table_rows


def test_row_inventory() -> None:
    rows = table_rows()
    assert len(rows) == 18
    by_family = {family: [] for family in Family}
    for row in rows:
        by_family[row.spec.family].append(row.spec.n_transforms)
    assert by_family[Family.ONE] == [1, 2, 3, 4, 5, 6, 7, 8]
    assert by_family[Family.TWO] == [0, 1, 2, 3, 4, 6]
    assert by_family[Family.THREE] == [1, 2, 3, 4]


def test_reproduce_tables_all_match() -> None:
    results = reproduce_tables()
    assert len(results) == 18
    assert [result.spec for result, _ in results] == [row.spec for row in table_rows()]
    for result, matches in results:
        spec = result.spec
        assert matches, "row %s/%d did not reproduce" % (spec.family.value, spec.n_transforms)


def test_exactly_two_errata() -> None:
    flagged = errata_rows()
    assert [(row.spec.family, row.spec.n_transforms) for row in flagged] == [
        (Family.TWO, 3),
        (Family.THREE, 3),
    ]
    for row in flagged:
        assert row.printed != row.corrected
        assert row.canonical == row.corrected


def test_errata_rows_pin_both_directions() -> None:
    # the evaluators must match the corrected forms and *not* the misprints
    for row in errata_rows():
        result = mahler_measure(row.spec)
        assert result.combination == row.corrected
        assert result.combination != row.printed


def test_family_two_erratum_violates_weight_homogeneity() -> None:
    row = next(r for r in errata_rows() if r.spec.family is Family.TWO)
    assert row.printed.homogeneous_weight() is None
    assert row.corrected.homogeneous_weight() == row.spec.pi_normalization + 1


def test_family_three_erratum_coefficient() -> None:
    # the misprint drops one of the two sums contributing to the middle term
    row = next(r for r in errata_rows() if r.spec.family is Family.THREE)
    printed = dict(row.printed.terms())
    corrected = dict(row.corrected.terms())
    zeta3 = next(e for e in corrected if e.kind == "zeta" and e.arg == 3)
    assert printed[zeta3] == Fraction(7, 3)
    assert corrected[zeta3] == Fraction(49, 12)


def test_non_errata_rows_match_as_transcribed() -> None:
    for row in table_rows():
        if row.has_erratum:
            continue
        assert row.canonical == row.printed
        assert mahler_measure(row.spec).combination == row.printed


def test_rows_are_weight_homogeneous_except_known_misprint() -> None:
    for row in table_rows():
        expected = row.spec.pi_normalization + 1
        assert row.canonical.homogeneous_weight() == expected
        if not (row.has_erratum and row.spec.family is Family.TWO):
            assert row.printed.homogeneous_weight() == expected


def test_fixture_is_independent_of_the_evaluators() -> None:
    # rows store plain combinations, not MahlerResults built by the formulas
    for row in table_rows():
        assert isinstance(row.printed, ZetaCombination)
