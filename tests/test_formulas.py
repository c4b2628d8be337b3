"""Tests for the closed-form family evaluators and coefficient ladders."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, prod
from pathlib import Path

import pytest

from mahlerzeta.combinations import ConstantBasisElement, ZetaCombination
from mahlerzeta.exact import even_squares, symmetric_ladder
from mahlerzeta.formulas import (
    Family,
    FamilySpec,
    MahlerResult,
    _family_one_terms,
    _result,
    _zeta_sum,
    family_one,
    family_three,
    family_two,
    mahler_measure,
)
from mahlerzeta.check.identities import (
    coeff_a_row,
    coeff_b_row,
    family_three_rewritings,
    family_two_bernoulli_form,
    reduction_ab,
    reduction_ba,
    reduction_induction_ab,
    reduction_induction_ba,
)
from mahlerzeta.values import combination_value

import mpmath as mp


def test_family_labels() -> None:
    assert Family.from_label("i") is Family.ONE
    assert Family.from_label("II") is Family.TWO
    assert Family.from_label(" iii ") is Family.THREE
    with pytest.raises(ValueError):
        Family.from_label("iv")


def test_family_spec_validation() -> None:
    spec = FamilySpec(Family.ONE, 3)
    assert spec.parity == 1
    assert FamilySpec(Family.ONE, 2).parity == 0
    with pytest.raises(ValueError):
        FamilySpec(Family.ONE, 0)
    with pytest.raises(ValueError):
        FamilySpec(Family.THREE, 0)
    with pytest.raises(ValueError):
        FamilySpec(Family.TWO, -1)
    with pytest.raises(ValueError):
        FamilySpec("i", 2)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        FamilySpec(Family.ONE, 2.0)  # type: ignore[arg-type]
    # family ii admits the transform-free base case
    assert FamilySpec(Family.TWO, 0).parity == 0


def test_family_spec_derived_quantities() -> None:
    assert FamilySpec(Family.ONE, 4).pi_normalization == 4
    assert FamilySpec(Family.TWO, 3).pi_normalization == 5
    assert FamilySpec(Family.THREE, 3).pi_normalization == 4
    assert FamilySpec(Family.ONE, 1).torus_dimension == 2
    assert FamilySpec(Family.TWO, 0).torus_dimension == 3
    assert FamilySpec(Family.TWO, 1).torus_dimension == 4
    assert FamilySpec(Family.THREE, 2).torus_dimension == 4


def test_mahler_result_validates_weight() -> None:
    spec = FamilySpec(Family.ONE, 2)
    good = ZetaCombination.zeta(3, 0, 7)
    result = MahlerResult(spec, good)
    assert result.pi_normalization == spec.pi_normalization == 2
    with pytest.raises(ValueError):
        # weight-inhomogeneous right side
        MahlerResult(spec, good + ZetaCombination.zeta(5, 0, 1))
    with pytest.raises(ValueError):
        # homogeneous but of the wrong total weight
        MahlerResult(spec, ZetaCombination.zeta(5, 0, 1))


def test_evaluators_check_each_term_as_they_build_it() -> None:
    # what the constructor rejects, the evaluators' one-pass builder rejects
    spec = FamilySpec(Family.ONE, 2)
    built = _result(spec, [("zeta", 3, 0, 7, 1)])
    assert built == MahlerResult(spec, ZetaCombination.zeta(3, 0, 7))
    for terms in (
        [("zeta", 3, 0, 7, 1), ("zeta", 5, 0, 1, 1)],  # weight-inhomogeneous
        [("zeta", 5, 0, 1, 1)],  # homogeneous but of the wrong total weight
        [("zeta", 3, 0, 7, 1), ("zeta", 3, 0, -7, 1)],  # zero
        [("zeta", 4, 0, 1, 1)],  # not in normal form
    ):
        with pytest.raises(ValueError):
            _result(spec, terms)


def test_spec_and_result_behave_as_frozen_records() -> None:
    spec = FamilySpec(Family.ONE, 3)
    result = MahlerResult(FamilySpec(Family.TWO, 0), ZetaCombination.zeta(3, 0, Fraction(7, 2)))
    assert repr(spec) == "FamilySpec(family=<Family.ONE: 'i'>, n_transforms=3)"
    assert repr(result) == (
        "MahlerResult(spec=FamilySpec(family=<Family.TWO: 'ii'>, n_transforms=0), "
        "combination=ZetaCombination((7/2)*zeta(3)))"
    )
    assert result == family_two(FamilySpec(Family.TWO, 0))
    assert spec == FamilySpec(Family.ONE, 3)
    assert spec != FamilySpec(Family.ONE, 5) and spec != FamilySpec(Family.THREE, 3)
    # a frozen dataclass hashes the tuple of its fields; so do these
    assert hash(spec) == hash((Family.ONE, 3))
    assert hash(result) == hash((result.spec, result.combination))
    assert len({spec, FamilySpec(Family.ONE, 3), FamilySpec(Family.ONE, 5)}) == 2
    for record, field in ((spec, "n_transforms"), (spec, "other"), (result, "combination")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


@pytest.mark.parametrize("build", ["constructor", "_make", "_replace"])
def test_spec_and_result_validate_on_every_route(build: str) -> None:
    spec = FamilySpec(Family.ONE, 2)
    result = MahlerResult(spec, ZetaCombination.zeta(3, 0, 7))
    routes = {
        "constructor": (
            lambda: FamilySpec(Family.THREE, 0),
            lambda: MahlerResult(spec, ZetaCombination.zeta(5, 0, 1)),
        ),
        "_make": (
            lambda: FamilySpec._make([Family.THREE, 0]),
            lambda: MahlerResult._make([spec, ZetaCombination.zeta(5, 0, 1)]),
        ),
        "_replace": (
            lambda: spec._replace(family=Family.THREE, n_transforms=0),
            lambda: result._replace(combination=ZetaCombination.zeta(5, 0, 1)),
        ),
    }
    for invalid in routes[build]:
        with pytest.raises(ValueError):
            invalid()
    assert FamilySpec._make([Family.ONE, 2]) == spec
    assert spec._replace(n_transforms=4) == FamilySpec(Family.ONE, 4)
    assert result._replace(spec=spec) == result


def test_coeff_a_values() -> None:
    assert coeff_a_row(1) == (1,)
    assert coeff_a_row(2) == (Fraction(2, 3), Fraction(1, 6))
    with pytest.raises(ValueError):
        coeff_a_row(0)


def test_coeff_b_values() -> None:
    assert coeff_b_row(0) == (1,)
    assert coeff_b_row(1) == (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        coeff_b_row(-1)


def _elementary_symmetric(values, degree: int) -> int:
    return sum(prod(chosen) for chosen in combinations(values, degree))


def test_coeff_ladders_are_brute_force_symmetric_sums() -> None:
    for n in range(1, 9):
        evens = [(2 * k) ** 2 for k in range(1, n)]
        expected = tuple(
            Fraction(_elementary_symmetric(evens, n - 1 - h), factorial(2 * n - 1)) for h in range(n)
        )
        assert coeff_a_row(n) == expected, n
    for n in range(9):
        odds = [(2 * k - 1) ** 2 for k in range(1, n + 1)]
        expected = tuple(
            Fraction(_elementary_symmetric(odds, n - h), factorial(2 * n)) for h in range(n + 1)
        )
        assert coeff_b_row(n) == expected, n


def test_reduction_identity() -> None:
    assert reduction_ab(1)
    assert reduction_ba(0)
    assert reduction_ab(6)
    for n in range(1, 16):
        assert reduction_ab(n)
    for n in range(0, 16):
        assert reduction_ba(n)
    with pytest.raises(ValueError):
        reduction_ab(0)
    with pytest.raises(ValueError):
        reduction_ba(-1)


def test_reduction_induction_identity() -> None:
    for n in range(1, 16):
        assert reduction_induction_ab(n)
    for n in range(0, 16):
        assert reduction_induction_ba(n)
    with pytest.raises(ValueError):
        reduction_induction_ab(0)
    with pytest.raises(ValueError):
        reduction_induction_ba(-1)


# SHA-256 of the canonical JSON of ``to_records()``, as computed by the
# earlier O(n^3) evaluators, which called ``elementary_symmetric`` once per
# coefficient.
LARGE_N_DIGESTS = {
    ("ii", 64): "307469d62a164bc16018834ae336f30a6ae050ec983c9bd7c697b4c7c789d1c9",
    ("ii", 65): "50e0a88f1c048ffd3fcec39339b6689022f39a86aaa74ec182d165dc360e6791",
    ("iii", 64): "c34f9839311d2a8d72dd67865f082dd6743c69242309b3210eba1d669cdb0670",
    ("iii", 65): "a11d675a1a414983d1cd583fdb311d2c95a855d211e49fbd1ae72239be332f13",
    ("i", 200): "6c73628c5774e5fbda0e1b6fb5e99142074f17583e659bcd80e93455246e3b1b",
    ("ii", 200): "140ca91740a8ce2e26f1c1f496c1b85d5dd5f5c113fd09ab16d4887083f21e37",
    ("iii", 200): "23808d10139f1eef4e3dbca917f61cd554d4a4c06ee8d566aeffffe28b218b37",
}
# The same for every member with n <= 100, keyed "family-n", as computed by
# the evaluators that built each closed form through ``ZetaCombination``'s
# constructor and checked its weight afterwards.
for key, digest in json.loads((Path(__file__).parent / "records_digests.json").read_text()).items():
    label, transforms = key.split("-")
    LARGE_N_DIGESTS[label, int(transforms)] = digest


def _records_digest(result: MahlerResult) -> str:
    canonical = json.dumps(result.combination.to_records(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("label, transforms", sorted(LARGE_N_DIGESTS))
def test_large_n_results_are_pinned(label: str, transforms: int) -> None:
    spec = FamilySpec(Family.from_label(label), transforms)
    assert _records_digest(mahler_measure(spec)) == LARGE_N_DIGESTS[label, transforms]
    if spec.family is Family.THREE:
        for rewriting in family_three_rewritings(spec):
            assert _records_digest(rewriting) == LARGE_N_DIGESTS[label, transforms]


# SHA-256 over the canonical JSON of ``[family, n, to_records()]`` for every
# member of the three families at n <= 100, in family order and then in n,
# as computed by the evaluators that built each Bernoulli-weighted sum one
# rational term at a time.
MEMBERS_TO_100_DIGEST = "9ade965bbc998785825937a4dd1328e5d39c847829208b8902012f7ecb36e3b4"


def test_every_member_up_to_n_100_is_pinned() -> None:
    digest = hashlib.sha256()
    for family in Family:
        for transforms in range(0 if family is Family.TWO else 1, 101):
            records = mahler_measure(FamilySpec(family, transforms)).combination.to_records()
            member = [family.value, transforms, records]
            digest.update(json.dumps(member, sort_keys=True, separators=(",", ":")).encode())
    assert digest.hexdigest() == MEMBERS_TO_100_DIGEST


def test_family_one_small_cases() -> None:
    r2 = family_one(FamilySpec(Family.ONE, 2))
    assert r2.pi_normalization == 2
    assert r2.combination == ZetaCombination.zeta(3, 0, 7)
    r4 = family_one(FamilySpec(Family.ONE, 4))
    assert r4.combination == ZetaCombination.zeta(5, 0, 62) + ZetaCombination.zeta(
        3, 2, Fraction(14, 3)
    )
    r1 = family_one(FamilySpec(Family.ONE, 1))
    assert r1.pi_normalization == 1
    assert r1.combination == ZetaCombination.lchi4(2, 0, 2)
    with pytest.raises(ValueError):
        family_one(FamilySpec(Family.TWO, 2))


def test_family_one_even_coefficients_positive() -> None:
    # Every family and parity up to n = 200, family i at even n among them: no
    # closed form cancels, which combination_value's guard digits rely on.
    for family in Family:
        for transforms in range(0 if family is Family.TWO else 1, 201):
            result = mahler_measure(FamilySpec(family, transforms))
            assert all(coeff > 0 for _, coeff in result.combination.terms()), (family, transforms)


def test_family_two_small_cases() -> None:
    r0 = family_two(FamilySpec(Family.TWO, 0))
    assert r0.pi_normalization == 2
    assert r0.combination == ZetaCombination.zeta(3, 0, Fraction(7, 2))
    r2 = family_two(FamilySpec(Family.TWO, 2))
    assert r2.pi_normalization == 4
    assert r2.combination == ZetaCombination.zeta(5, 0, 93)
    r4 = family_two(FamilySpec(Family.TWO, 4))
    assert r4.combination == ZetaCombination.zeta(7, 0, Fraction(1905, 2)) + ZetaCombination.zeta(
        5, 2, 31
    )
    r1 = family_two(FamilySpec(Family.TWO, 1))
    assert r1.pi_normalization == 3
    assert r1.combination == ZetaCombination.lchi4(2, 2, 2) + ZetaCombination.l3_ii(1, 0, 2)
    with pytest.raises(ValueError):
        family_two(FamilySpec(Family.ONE, 2))
    for wrong in (FamilySpec(Family.TWO, 0), FamilySpec(Family.TWO, 3), FamilySpec(Family.ONE, 2)):
        with pytest.raises(ValueError):
            family_two_bernoulli_form(wrong)


def test_family_two_bernoulli_form_agrees() -> None:
    # the paper's Bernoulli-weighted form against identity A, which production uses
    for transforms in range(2, 201, 2):
        spec = FamilySpec(Family.TWO, transforms)
        assert family_two_bernoulli_form(spec) == family_two(spec), transforms


def test_family_two_three_transforms() -> None:
    result = family_two(FamilySpec(Family.TWO, 3))
    expected = (
        ZetaCombination.lchi4(4, 2, 24)
        + ZetaCombination.lchi4(2, 4, 1)
        + ZetaCombination.l3_ii(3, 0, 8)
        + ZetaCombination.l3_ii(1, 2, 1)
    )
    assert result.combination == expected


def test_family_three_small_cases() -> None:
    r1 = family_three(FamilySpec(Family.THREE, 1))
    assert r1.pi_normalization == 2
    assert r1.combination == ZetaCombination.zeta(3, 0, Fraction(7, 2)) + ZetaCombination.log2(
        2, Fraction(1, 2)
    )
    r2 = family_three(FamilySpec(Family.THREE, 2))
    assert r2.combination == ZetaCombination.zeta(3, 1, Fraction(21, 4)) + ZetaCombination.log2(
        3, Fraction(1, 2)
    )
    r3 = family_three(FamilySpec(Family.THREE, 3))
    assert r3.combination == (
        ZetaCombination.zeta(5, 0, 31)
        + ZetaCombination.zeta(3, 2, Fraction(49, 12))
        + ZetaCombination.log2(4, Fraction(1, 2))
    )
    with pytest.raises(ValueError):
        family_three(FamilySpec(Family.ONE, 2))
    with pytest.raises(ValueError):
        family_three_rewritings(FamilySpec(Family.ONE, 2))


@lru_cache(maxsize=None)
def _even_prefix_ladder(m: int) -> tuple:
    """The ladder of ``2^2, ..., (2m - 2)^2``, built on its own for every ``m``."""
    return symmetric_ladder(even_squares(m - 1))


def _combination(terms) -> ZetaCombination:
    """Integer terms through the public constructor, which checks no weight."""
    return ZetaCombination(
        (ConstantBasisElement(kind, arg, pi_power), Fraction(num, den))
        for kind, arg, pi_power, num, den in terms
    )


def _family_three_unfolded(transforms: int) -> ZetaCombination:
    """Family ``iii`` as built before its sums were folded: ``(1/2) pi^(n+1) log 2``,
    half of family ``i`` at ``n + n mod 2`` and identity B's third sum over ``4 (2M)!``,
    ``M = n // 2``, each built on its own and added as combinations."""
    parity = transforms % 2
    half_family_one = _combination(
        (kind, arg, pi_power + 1 - parity, num, 2 * den)
        for kind, arg, pi_power, num, den in _family_one_terms(transforms + parity)
    )
    half = transforms // 2
    common = factorial(2 * half)
    weights = [0] * half
    for m in range(1, half + 1):
        ladder = _even_prefix_ladder(m)
        for h in range(1, m + 1):
            weights[h - 1] += ladder[m - h] * (common // factorial(2 * m))
    third = _combination(_zeta_sum(transforms + 1, 4 * common, weights))
    log2 = ZetaCombination.log2(transforms + 1, Fraction(1, 2))
    return log2 + half_family_one + third


def test_folded_family_three_matches_its_sums_kept_apart() -> None:
    for transforms in range(1, 201):
        folded = family_three(FamilySpec(Family.THREE, transforms)).combination
        assert folded == _family_three_unfolded(transforms), transforms


def test_family_three_variants_agree() -> None:
    # the paper's two forms of the third sum against identity B, which production uses
    for transforms in range(1, 101):
        spec = FamilySpec(Family.THREE, transforms)
        base = family_three(spec)
        for form, rewriting in enumerate(family_three_rewritings(spec)):
            assert rewriting == base, (transforms, form)


@pytest.mark.parametrize("transforms", [201, 400, 401])
def test_family_three_matches_the_paper_forms_past_n_200(transforms: int) -> None:
    # past the unfolded reference's range, Horner's rule against the paper's
    # Bernoulli- and Euler-weighted forms, at both parities
    spec = FamilySpec(Family.THREE, transforms)
    base = family_three(spec)
    for form, rewriting in enumerate(family_three_rewritings(spec)):
        assert rewriting == base, (transforms, form)


def test_weight_homogeneity_all_families() -> None:
    for family, start in ((Family.ONE, 1), (Family.TWO, 0), (Family.THREE, 1)):
        for transforms in range(start, 11):
            result = mahler_measure(FamilySpec(family, transforms))
            assert result.combination.homogeneous_weight() == result.pi_normalization + 1


def test_mahler_measure_dispatch() -> None:
    assert mahler_measure(FamilySpec(Family.ONE, 2)) == family_one(FamilySpec(Family.ONE, 2))
    assert mahler_measure(FamilySpec(Family.TWO, 1)) == family_two(FamilySpec(Family.TWO, 1))
    assert mahler_measure(FamilySpec(Family.THREE, 1)) == family_three(
        FamilySpec(Family.THREE, 1)
    )


def test_family_three_numeric_positivity() -> None:
    # the measures are positive and strictly exceed the bare log-2 term
    with mp.workdps(20):
        for transforms in range(1, 5):
            result = family_three(FamilySpec(Family.THREE, transforms))
            total = combination_value(result.combination, digits=15)
            log2_part = mp.pi ** result.pi_normalization * mp.log(2) / 2
            assert total > log2_part > 0
