"""Tests for the float64 numerical oracles."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest

from mahlerzeta.formulas import Family, FamilySpec
from mahlerzeta.oracle import (
    CheckResult,
    IntegralEstimate,
    arctangent_moment_check,
    base_measure_one,
    base_measure_two,
    base_measure_three,
    closed_form_measure,
    imaginary_measure_qmc,
    kernel_integral_check,
    log1p_moment_check,
    log_square_moment_check,
    power_kernel_check,
    reduced_integral,
    torus_qmc,
    unit_log_moment_check,
)
from mahlerzeta.oracle import (
    _inverse_tangent_integral,
    _li3,
    _log_ratio_minus,
    _measure_pi_scale,
    _sobol_base2,
    _stable_log,
    _symmetrized_measure,
    _tanh_sinh_unit,
)


def test_integral_estimate_validation() -> None:
    estimate = IntegralEstimate(1.0, 1e-9, "qmc", 100)
    assert estimate.value == 1.0
    with pytest.raises(ValueError):
        IntegralEstimate(1.0, 1e-9, "guesswork", 100)
    with pytest.raises(ValueError):
        IntegralEstimate(1.0, -1e-9, "series", 100)
    with pytest.raises(ValueError):
        IntegralEstimate(1.0, 0.0, "qmc", 100)
    assert IntegralEstimate(1.0, 0.0, "adaptive_quadrature", 5).error_estimate == 0.0


def test_tanh_sinh_engine_basics() -> None:
    value, error, evaluations = _tanh_sinh_unit(lambda x, cx: x * x)
    assert abs(value - 1.0 / 3.0) < 1e-14
    assert evaluations > 0
    assert error < 1e-12
    # endpoint-singular but integrable
    value, _, _ = _tanh_sinh_unit(lambda x, cx: math.log(x) ** 2)
    assert abs(value - 2.0) < 1e-13
    # the complement argument resolves behavior near 1
    value, _, _ = _tanh_sinh_unit(lambda x, cx: _stable_log(x, cx) / (-cx * (2 - cx)))
    with mp.workdps(30):
        target = float(mp.pi**2 / 8)
    assert abs(value - target) < 1e-13


def test_tanh_sinh_engine_rejects_non_finite_samples() -> None:
    def bad(x: float, cx: float) -> float:
        return math.nan if x > 0.9 else 1.0

    with pytest.raises(ValueError):
        _tanh_sinh_unit(bad)


def test_trilogarithm_kernel_accuracy() -> None:
    with mp.workdps(30):
        for t in (0.0, 0.1, 0.25, 0.49, 0.5, 0.51, 0.75, 0.9, 0.999, 1.0):
            reference = float(mp.polylog(3, mp.mpf(t))) if t else 0.0
            assert abs(_li3(t) - reference) < 1e-15
    with pytest.raises(ValueError):
        _li3(1.5)
    with pytest.raises(ValueError):
        _li3(-0.2)


def test_inverse_tangent_integral_accuracy() -> None:
    with mp.workdps(30):
        for x in (0.0, 0.1, 0.5, 1.0, 2.5, 10.0):
            reference = float(mp.im(mp.polylog(2, 1j * mp.mpf(x)))) if x else 0.0
            assert abs(_inverse_tangent_integral(x) - reference) < 2e-15
    assert abs(_inverse_tangent_integral(1.0) - float(mp.catalan)) < 1e-15
    with pytest.raises(ValueError):
        _inverse_tangent_integral(-1.0)


def test_log_ratio_is_finite_and_accurate_near_one() -> None:
    with mp.workdps(40):
        for exponent in range(1, 13):
            complement = 10.0**-exponent
            x = 1.0 - complement
            value = _log_ratio_minus(x, complement)
            assert math.isfinite(value)
            reference = float(mp.log(mp.mpf(x)) / (mp.mpf(x) ** 2 - 1))
            assert abs(value - reference) < 5e-15
    assert abs(_log_ratio_minus(0.5, 0.5) - math.log(0.5) / (0.25 - 1.0)) < 1e-15


def test_base_measure_one_examples() -> None:
    assert base_measure_one(2.0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert base_measure_one(0.5) == 0.0
    assert base_measure_one(1.0) == 0.0
    with pytest.raises(ValueError):
        base_measure_one(-1.0)


def test_base_measure_two_examples() -> None:
    with mp.workdps(30):
        seven_halves_zeta3 = float(mp.mpf(7) / 2 * mp.zeta(3))
        beyond_one = float(
            mp.pi**2 * mp.log(2)
            + 2 * (mp.polylog(3, mp.mpf(1) / 2) - mp.polylog(3, -mp.mpf(1) / 2))
        )
    assert base_measure_two(1.0) == pytest.approx(seven_halves_zeta3, abs=1e-14)
    assert base_measure_two(0.0) == 0.0
    assert base_measure_two(2.0) == pytest.approx(beyond_one, abs=1e-13)
    # continuity across the branch point
    assert abs(base_measure_two(1.0 - 1e-9) - base_measure_two(1.0 + 1e-9)) < 1e-7
    with pytest.raises(ValueError):
        base_measure_two(-0.5)


def test_base_measure_three_examples() -> None:
    assert base_measure_three(-1.0, "real") == pytest.approx(math.log(2.0), abs=1e-15)
    assert base_measure_three(0.5, "real") == 0.0
    assert base_measure_three(3.0, "real") == pytest.approx(math.log(3.0), abs=1e-15)
    assert base_measure_three(0.0, "real") == 0.0
    assert base_measure_three(0.0, "imaginary") == 0.0
    with mp.workdps(30):
        at_one = float(mp.pi / 4 * mp.log(2) + mp.catalan)
    assert base_measure_three(1.0, "imaginary") == pytest.approx(at_one, abs=1e-14)
    # imaginary mode depends only on |alpha|
    assert base_measure_three(-2.5, "imaginary") == base_measure_three(2.5, "imaginary")
    with pytest.raises(ValueError):
        base_measure_three(1.0, "complex")


def test_kernel_integral_check_example() -> None:
    result = kernel_integral_check(2.0, 3.0, 0)
    expected = (math.log(2.0) - math.log(3.0)) / (4.0 - 9.0)
    assert result.agree
    assert result.closed_form == pytest.approx(expected, abs=1e-15)
    assert result.quadrature == pytest.approx(expected, abs=1e-12)


def test_kernel_integral_check_varied_parameters() -> None:
    for a, b, k in ((0.5, 4.0, 5), (0.11, 9.7, 6), (1.3, 0.2, 1), (7.5, 2.5, 10)):
        result = kernel_integral_check(a, b, k)
        assert result.agree, (a, b, k)
        assert abs(result.quadrature - result.closed_form) < 1e-10


def test_kernel_integral_check_preconditions() -> None:
    with pytest.raises(ValueError):
        kernel_integral_check(2.0, 2.0, 1)
    with pytest.raises(ValueError):
        kernel_integral_check(-1.0, 2.0, 1)
    with pytest.raises(ValueError):
        kernel_integral_check(1.0, 2.0, 11)


def test_power_kernel_check() -> None:
    for a, b, alpha in ((2.0, 3.0, 0.5), (0.3, 1.7, 0.95), (0.3, 1.7, 0.05)):
        result = power_kernel_check(a, b, alpha)
        assert result.agree, (a, b, alpha)
        assert abs(result.quadrature - result.closed_form) < 1e-12
    with pytest.raises(ValueError):
        power_kernel_check(2.0, 3.0, 1.0)
    with pytest.raises(ValueError):
        power_kernel_check(2.0, 3.0, 0.0)
    with pytest.raises(ValueError):
        power_kernel_check(2.0, 2.0, 0.5)


def test_unit_log_moment_check() -> None:
    for j in range(1, 9):
        assert unit_log_moment_check(j, "minus").agree, j
    for j in range(0, 9):
        assert unit_log_moment_check(j, "plus").agree, j
    with pytest.raises(ValueError):
        unit_log_moment_check(0, "minus")
    with pytest.raises(ValueError):
        unit_log_moment_check(9, "plus")


def test_defining_integral_checks() -> None:
    for h in (1, 2, 3):
        assert log1p_moment_check(h).agree, h
    for h in (0, 1, 2, 3):
        assert log_square_moment_check(h).agree, h
        assert arctangent_moment_check(h).agree, h


def test_check_result_reports_values() -> None:
    result = log_square_moment_check(0)
    assert isinstance(result, CheckResult)
    with mp.workdps(30):
        target = float(mp.pi * mp.log(2))
    assert result.quadrature == pytest.approx(target, abs=1e-12)
    assert result.closed_form == pytest.approx(target, abs=1e-12)


def test_symmetrized_measure_matches_base_measures() -> None:
    grid = (1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999)

    def direct(spec: FamilySpec, x: float) -> float:
        if spec.family is Family.ONE:
            return base_measure_one(x) + base_measure_one(1.0 / x)
        if spec.family is Family.TWO:
            return base_measure_two(x) + base_measure_two(1.0 / x)
        if spec.parity == 0:
            average_inside = 0.5 * (
                base_measure_three(x, "real") + base_measure_three(-x, "real")
            )
            average_outside = 0.5 * (
                base_measure_three(1.0 / x, "real")
                + base_measure_three(-1.0 / x, "real")
            )
            return average_inside + average_outside
        return base_measure_three(x, "imaginary") + base_measure_three(
            1.0 / x, "imaginary"
        )

    for spec in (
        FamilySpec(Family.ONE, 2),
        FamilySpec(Family.TWO, 1),
        FamilySpec(Family.THREE, 2),
        FamilySpec(Family.THREE, 3),
    ):
        symmetrized = _symmetrized_measure(spec)
        for x in grid:
            expected = direct(spec, x)
            actual = symmetrized(x, 1.0 - x, math.log(x))
            assert actual == pytest.approx(expected, rel=1e-12, abs=1e-12), (spec, x)


def test_measure_pi_scale() -> None:
    assert _measure_pi_scale(FamilySpec(Family.ONE, 3)) == 0
    assert _measure_pi_scale(FamilySpec(Family.TWO, 2)) == 2
    assert _measure_pi_scale(FamilySpec(Family.THREE, 2)) == 0
    assert _measure_pi_scale(FamilySpec(Family.THREE, 3)) == 1


def test_reduced_integral_matches_closed_forms() -> None:
    for family, smallest in ((Family.ONE, 1), (Family.TWO, 0), (Family.THREE, 1)):
        for transforms in range(smallest, 5):
            spec = FamilySpec(family, transforms)
            estimate = reduced_integral(spec)
            closed = closed_form_measure(spec)
            assert estimate.method in ("adaptive_quadrature", "series")
            assert abs(estimate.value - closed) < 1e-7, (spec, estimate.value, closed)


def test_reduced_integral_spec_examples() -> None:
    with mp.workdps(30):
        family_one_two = float(7 * mp.zeta(3) / mp.pi**2)
        family_one_one = float(2 * mp.catalan / mp.pi)
        family_three_one = float(
            (mp.mpf(7) / 2 * mp.zeta(3) + mp.pi**2 / 2 * mp.log(2)) / mp.pi**2
        )
    assert reduced_integral(FamilySpec(Family.ONE, 2)).value == pytest.approx(
        family_one_two, abs=1e-8
    )
    assert reduced_integral(FamilySpec(Family.ONE, 1)).value == pytest.approx(
        family_one_one, abs=1e-8
    )
    assert reduced_integral(FamilySpec(Family.THREE, 1)).value == pytest.approx(
        family_three_one, abs=1e-8
    )


def test_reduced_integral_refinement_invariance() -> None:
    for spec in (FamilySpec(Family.TWO, 2), FamilySpec(Family.THREE, 3)):
        coarse = reduced_integral(spec, refinement=10)
        fine = reduced_integral(spec, refinement=11)
        assert abs(coarse.value - fine.value) < 1e-10


def test_reduced_integral_preconditions() -> None:
    with pytest.raises(ValueError):
        reduced_integral(FamilySpec(Family.ONE, 7))


def test_torus_qmc_family_one() -> None:
    estimate = torus_qmc(FamilySpec(Family.ONE, 1), samples=200_000, seed=42)
    with mp.workdps(30):
        truth = float(2 * mp.catalan / mp.pi)
    assert estimate.method == "qmc"
    assert estimate.error_estimate < 5e-4
    assert abs(estimate.value - truth) <= 4 * estimate.error_estimate + 1e-5


def test_torus_qmc_family_two_base_case() -> None:
    estimate = torus_qmc(FamilySpec(Family.TWO, 0), samples=500_000, seed=7)
    with mp.workdps(30):
        truth = float(mp.mpf(7) / 2 * mp.zeta(3) / mp.pi**2)
    assert abs(estimate.value - truth) < 1e-3


def test_torus_qmc_reproducible() -> None:
    first = torus_qmc(FamilySpec(Family.ONE, 1), samples=50_000, seed=9)
    second = torus_qmc(FamilySpec(Family.ONE, 1), samples=50_000, seed=9)
    assert first.value == second.value
    assert first.error_estimate == second.error_estimate
    third = torus_qmc(FamilySpec(Family.ONE, 1), samples=50_000, seed=10)
    assert third.value != first.value


def test_torus_qmc_pseudo_error_scaling() -> None:
    spec = FamilySpec(Family.ONE, 1)
    small = torus_qmc(spec, samples=20_000, seed=11, mode="pseudo")
    large = torus_qmc(spec, samples=320_000, seed=11, mode="pseudo")
    # sixteen times the samples should shrink the error roughly fourfold
    assert large.error_estimate < 0.6 * small.error_estimate


def test_torus_qmc_preconditions() -> None:
    with pytest.raises(ValueError):
        torus_qmc(FamilySpec(Family.ONE, 4))
    with pytest.raises(ValueError):
        torus_qmc(FamilySpec(Family.ONE, 1), samples=10**9 + 1)
    with pytest.raises(ValueError):
        torus_qmc(FamilySpec(Family.ONE, 1), samples=0)
    with pytest.raises(ValueError):
        torus_qmc(FamilySpec(Family.ONE, 1), replicates=1)
    with pytest.raises(ValueError):
        torus_qmc(FamilySpec(Family.ONE, 1), mode="halton")


def test_imaginary_measure_sign_symmetry() -> None:
    positive = imaginary_measure_qmc(0.7, samples=1 << 19, seed=5)
    negative = imaginary_measure_qmc(-0.7, samples=1 << 19, seed=6)
    spread = positive.error_estimate + negative.error_estimate
    assert abs(positive.value - negative.value) <= 5 * spread + 1e-6
    formula = base_measure_three(0.7, "imaginary") / math.pi
    assert abs(positive.value - formula) <= 5 * positive.error_estimate + 1e-6
    with pytest.raises(ValueError):
        imaginary_measure_qmc(0.7, replicates=1)


def test_sobol_points_match_reference_generator() -> None:
    qmc = pytest.importorskip("scipy.stats").qmc
    for dim in range(1, 5):
        for exponent in range(1, 21):
            reference = qmc.Sobol(d=dim, scramble=False).random_base2(exponent)
            assert np.array_equal(_sobol_base2(dim, exponent), reference), (dim, exponent)


def test_sobol_points_are_a_base_two_net() -> None:
    points = _sobol_base2(4, 6)
    assert points.shape == (64, 4)
    assert not points[0].any()
    # every dimension alone is a permutation of the 64 dyadic points
    for column in points.T:
        assert sorted(column * 64) == list(range(64))
    with pytest.raises(ValueError):
        _sobol_base2(5, 3)
    with pytest.raises(ValueError):
        _sobol_base2(0, 3)


# float.hex() of oracle values computed when the Gauss-Legendre nodes were
# built at import time and numpy was imported eagerly; building them on first
# use must not change a bit.
@pytest.mark.parametrize(
    "x, expected",
    [
        (0.3, "0x1.30392372fe15cp-2"),
        (0.9, "0x1.ac06a8160f6f9p-1"),
        (1.0, "0x1.d4f9713e8135dp-1"),
        (2.5, "0x1.d5239365ed3c0p+0"),
        (7.0, "0x1.997e35576dc62p+1"),
    ],
)
def test_inverse_tangent_integral_is_pinned(x, expected) -> None:
    assert _inverse_tangent_integral(x).hex() == expected


@pytest.mark.parametrize(
    "family, n, value, error, evaluations",
    [
        (Family.ONE, 2, "0x1.b4825317a654cp-1", "0x1.9f02f6222c721p-53", 211),
        (Family.TWO, 1, "0x1.87ecede860a20p-1", "0x1.08345eb45d77fp-52", 209),
        (Family.THREE, 1, "0x1.8bb34183a4f9fp-1", "0x1.37423899a1558p-52", 209),
        (Family.THREE, 2, "0x1.f8d3d6498e8f1p-1", "0x0.0p+0", 211),
    ],
)
def test_reduced_integral_is_pinned(family, n, value, error, evaluations) -> None:
    estimate = reduced_integral(FamilySpec(family, n))
    assert estimate.value.hex() == value
    assert estimate.error_estimate.hex() == error
    assert estimate.evaluations == evaluations


@pytest.mark.parametrize(
    "run, value, error, used",
    [
        (
            lambda: torus_qmc(FamilySpec(Family.ONE, 2), samples=2**16, seed=3, replicates=8),
            "0x1.b48a56e4ee3ccp-1",
            "0x1.48211b7b4a860p-12",
            65536,
        ),
        (
            lambda: torus_qmc(FamilySpec(Family.TWO, 0), samples=2**14, seed=2, replicates=4),
            "0x1.b3d2c649dfb28p-2",
            "0x1.dfa217d8ddf53p-11",
            16384,
        ),
        (
            lambda: torus_qmc(
                FamilySpec(Family.THREE, 1), samples=2**14, seed=5, replicates=4, mode="pseudo"
            ),
            "0x1.8caa926a18ea3p-1",
            "0x1.5e9a2174c475dp-9",
            16384,
        ),
        (
            lambda: imaginary_measure_qmc(-0.7, samples=2**14, seed=1, replicates=4),
            "0x1.3f60e2a91bbf6p-2",
            "0x1.ed3311f6d06f9p-13",
            16384,
        ),
    ],
)
def test_qmc_estimates_are_pinned(run, value, error, used) -> None:
    estimate = run()
    assert estimate.value.hex() == value
    assert estimate.error_estimate.hex() == error
    assert estimate.evaluations == used
