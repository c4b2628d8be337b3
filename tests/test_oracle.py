"""Tests for the float64 numerical oracles."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from decimal import localcontext
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from mahlerzeta import oracle
from mahlerzeta.formulas import Family, FamilySpec, mahler_measure
from mahlerzeta.oracle import (
    CheckResult,
    IntegralEstimate,
    arctangent_moment_check,
    base_measure_one,
    base_measure_two,
    base_measure_three_imaginary,
    base_measure_three_real,
    closed_form_measure,
    imaginary_measure_qmc,
    kernel_integral_check,
    log1p_moment_check,
    log_square_moment_check,
    power_kernel_check,
    reduced_integral,
    lchi4_log_moment_check,
    torus_qmc,
    zeta_log_moment_check,
)
from mahlerzeta.oracle import (
    _inverse_tangent_integral,
    _li3,
    _log_ratio_minus,
    _measure_pi_scale,
    _replicated_mean_log,
    _sobol_base2,
    _stable_log,
    _symmetrized_measure,
    _tanh_sinh_unit,
    _unit_factor_product,
)
from mahlerzeta.values import _combination_decimal, _pi


@pytest.fixture(autouse=True)
def cold_reduced_moments():
    """Each test starts and ends with no moment integral or weight row of ``reduced_integral``.

    The integrals and rows last for the process, so one computed by an
    earlier test would hide the integrand, measure, log and ladder calls
    that tests count.
    """
    oracle._reduced_moment.cache_clear()
    oracle._reduced_weights.cache_clear()
    yield
    oracle._reduced_moment.cache_clear()
    oracle._reduced_weights.cache_clear()


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




def _level_by_level_tanh_sinh(f):
    """The tanh-sinh engine as it was before the levels shared their nodes.

    Every level recomputes its nodes and calls ``f`` at each of them and at
    the midpoint; the engine must return the same ``value`` and ``error``
    bit for bit.
    """
    half_pi = 0.5 * math.pi
    previous = None
    value = 0.0
    error = math.inf
    evaluations = 0
    for level in range(4, oracle._MAX_LEVEL + 1):
        step = 2.0 ** (2 - level)
        midpoint = f(0.5, 0.5)
        if not math.isfinite(midpoint):
            raise ValueError("integrand returned a non-finite value at x=0.5")
        total = 0.25 * math.pi * midpoint
        evaluations += 1
        j = 1
        tiny_run = 0
        while True:
            t = j * step
            if t > oracle._T_MAX:
                break
            u = half_pi * math.sinh(t)
            eu = math.exp(-2.0 * u)
            x = 1.0 / (1.0 + eu)
            cx = eu / (1.0 + eu)
            weight = math.pi * math.cosh(t) * x * cx
            pair = f(x, cx) + f(cx, x)
            evaluations += 2
            if not math.isfinite(pair):
                raise ValueError("integrand returned a non-finite value near x=%r" % (x,))
            contribution = weight * pair
            total += contribution
            if abs(contribution) <= 1e-280 or abs(contribution) <= abs(total) * 1e-18:
                tiny_run += 1
                if tiny_run >= 3 and t >= 3.0:
                    break
            else:
                tiny_run = 0
            j += 1
        estimate = step * total
        if previous is not None:
            error = abs(estimate - previous)
            value = estimate
            if error <= oracle._TARGET * max(1.0, abs(estimate)):
                return estimate, error, evaluations
        previous = estimate
        value = estimate
    return value, error, evaluations


def _bits(result):
    return result[0].hex(), result[1].hex()


# Integrands for the engine alone: one that converges early, one singular at
# 0, one that reads ``cx`` where ``x`` rounds to 1.0 (singular at 1), one
# with a kink that runs every level, and one whose zero stretches start and
# break runs of tiny contributions.
_ENGINE_INTEGRANDS = {
    "square": lambda x, cx: x * x,
    "log-square": lambda x, cx: math.log(x) ** 2,
    "complement-power": lambda x, cx: cx**-0.5 + math.log(cx),
    "kink": lambda x, cx: abs(x - 0.3),
    "windows": lambda x, cx: 1.0 if 0.6 < x < 0.7 or cx < 1e-6 else 0.0,
}


@pytest.mark.parametrize("integrand", list(_ENGINE_INTEGRANDS.values()), ids=list(_ENGINE_INTEGRANDS))
def test_tanh_sinh_matches_the_level_by_level_engine(integrand) -> None:
    assert _bits(_tanh_sinh_unit(integrand)) == _bits(_level_by_level_tanh_sinh(integrand))


def test_tanh_sinh_engine_rejects_non_finite_samples() -> None:
    def bad(x: float, cx: float) -> float:
        return math.nan if x > 0.9 else 1.0

    # at the node where the level-by-level engine stops
    messages = []
    for engine in (_tanh_sinh_unit, _level_by_level_tanh_sinh):
        with pytest.raises(ValueError) as refused:
            engine(bad)
        messages.append(str(refused.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("integrand", list(_ENGINE_INTEGRANDS.values()), ids=list(_ENGINE_INTEGRANDS))
def test_tanh_sinh_evaluates_each_node_once(integrand) -> None:
    def spying(calls):
        def spy(x: float, cx: float) -> float:
            calls.append((x, cx))
            return integrand(x, cx)

        return spy

    calls, reference_calls = [], []
    _, _, evaluations = _tanh_sinh_unit(spying(calls))
    _level_by_level_tanh_sinh(spying(reference_calls))
    assert evaluations == len(calls) == len(set(calls))
    # the nodes the level-by-level engine reaches, each once
    assert set(calls) == set(reference_calls)


def test_tanh_sinh_nodes_near_one_differ_only_in_the_complement() -> None:
    # why an integrand takes the complement cx as well as x: x rounds to
    # 1.0 at many nodes whose complements differ
    ts, xs, cxs, _ = oracle._tanh_sinh_nodes()
    assert len(ts) == 3072 and ts[-1] == oracle._T_MAX
    at_one = [cx for x, cx in zip(xs, cxs) if x == 1.0]
    assert len(at_one) == 1458 == len(set(at_one))


_QUAD_SPECS = [
    FamilySpec(family, n)
    for family, smallest in ((Family.ONE, 1), (Family.TWO, 0), (Family.THREE, 1))
    for n in range(smallest, 7)
]


@pytest.mark.parametrize("spec", _QUAD_SPECS, ids=lambda spec: "%s-%d" % (spec.family.value, spec.n_transforms))
def test_reduced_integral_matches_the_level_by_level_engine(monkeypatch, spec) -> None:
    estimate = reduced_integral(spec)
    monkeypatch.setattr(oracle, "_tanh_sinh_unit", _level_by_level_tanh_sinh)
    # the integrals last for the process: drop them so the reference engine runs
    oracle._reduced_moment.cache_clear()
    reference = reduced_integral(spec)
    assert _bits(estimate) == _bits(reference)
    assert estimate.evaluations <= reference.evaluations


def _full_bits(estimate):
    return _bits(estimate) + (estimate.evaluations,)


def test_reduced_integral_bits_do_not_depend_on_call_order() -> None:
    ascending = sorted(_QUAD_SPECS, key=lambda spec: (spec.n_transforms, spec.family.value))
    cold_up = {spec: _full_bits(reduced_integral(spec)) for spec in ascending}
    oracle._reduced_moment.cache_clear()
    cold_down = {spec: _full_bits(reduced_integral(spec)) for spec in reversed(ascending)}
    warm = {spec: _full_bits(reduced_integral(spec)) for spec in ascending}
    assert cold_up == cold_down == warm


def test_reduced_integral_tables_are_bounded() -> None:
    # one moment integral per family, parity and log power j that a member
    # needs: j = 1, 3, ..., n - 1 at even n and 0, 2, ..., n - 1 at odd n
    needed = {
        (spec.family, spec.parity, j)
        for spec in _QUAD_SPECS
        for j in range(1 - spec.parity, spec.n_transforms, 2)
    }
    for spec in _QUAD_SPECS:
        reduced_integral(spec)
    assert oracle._reduced_moment.cache_info().currsize == len(needed)
    # every member the reduced integral takes needs at most 57 log powers
    # per family and parity
    for family, smallest in ((Family.ONE, 1), (Family.TWO, 0), (Family.THREE, 1)):
        for n in range(smallest, oracle.REDUCED_MAX_TRANSFORMS + 1):
            reduced_integral(FamilySpec(family, n))
    assert oracle._reduced_moment.cache_info().currsize == 6 * 57
    with pytest.raises(ValueError, match="at most 114 transforms"):
        reduced_integral(FamilySpec(Family.TWO, 115))
    assert oracle._reduced_moment.cache_info().currsize == 6 * 57


_CHECKS = {
    "kernel-2-3-0": lambda: kernel_integral_check(2.0, 3.0, 0),
    "kernel-0.5-4-5": lambda: kernel_integral_check(0.5, 4.0, 5),
    "kernel-0.11-9.7-6": lambda: kernel_integral_check(0.11, 9.7, 6),
    "kernel-1.3-0.2-1": lambda: kernel_integral_check(1.3, 0.2, 1),
    "kernel-7.5-2.5-10": lambda: kernel_integral_check(7.5, 2.5, 10),
    "power-2-3-0.5": lambda: power_kernel_check(2.0, 3.0, 0.5),
    "power-0.3-1.7-0.95": lambda: power_kernel_check(0.3, 1.7, 0.95),
    "power-0.3-1.7-0.05": lambda: power_kernel_check(0.3, 1.7, 0.05),
    **{"zeta-moment-%d" % j: (lambda j=j: zeta_log_moment_check(j)) for j in range(1, 9)},
    **{"lchi4-moment-%d" % j: (lambda j=j: lchi4_log_moment_check(j)) for j in range(9)},
    **{"log1p-moment-%d" % h: (lambda h=h: log1p_moment_check(h)) for h in (1, 2, 3)},
    **{"log-square-moment-%d" % h: (lambda h=h: log_square_moment_check(h)) for h in range(4)},
    **{"arctangent-moment-%d" % h: (lambda h=h: arctangent_moment_check(h)) for h in range(4)},
}


@pytest.mark.parametrize("check", list(_CHECKS.values()), ids=list(_CHECKS))
def test_check_pieces_match_the_level_by_level_engine(monkeypatch, check) -> None:
    engine = oracle._tanh_sinh_unit
    pieces = []

    def both(f):
        result = engine(f)
        pieces.append((_bits(result), _bits(_level_by_level_tanh_sinh(f))))
        return result

    monkeypatch.setattr(oracle, "_tanh_sinh_unit", both)
    check()
    assert pieces
    for actual, expected in pieces:
        assert actual == expected


@pytest.mark.parametrize(
    "spec",
    [FamilySpec(Family.ONE, 6), FamilySpec(Family.TWO, 5), FamilySpec(Family.THREE, 5), FamilySpec(Family.THREE, 6)],
    ids=lambda spec: "%s-%d" % (spec.family.value, spec.n_transforms),
)
def test_reduced_integral_measures_each_node_once(monkeypatch, spec) -> None:
    build = oracle._symmetrized_measure
    engine = oracle._tanh_sinh_unit
    measured = []
    integrals = []

    def counted_measure(family, odd):
        measure = build(family, odd)

        def counted(x, logx):
            measured.append(x)
            return measure(x, logx)

        return counted

    def counted_engine(f):
        nodes = []
        integrals.append(nodes)

        def counted(x, cx):
            nodes.append((x, cx))
            return f(x, cx)

        return engine(counted)

    monkeypatch.setattr(oracle, "_symmetrized_measure", counted_measure)
    monkeypatch.setattr(oracle, "_tanh_sinh_unit", counted_engine)
    estimate = reduced_integral(spec)
    calls = [node for nodes in integrals for node in nodes]
    # one integral per log power, each visiting each node once, and the
    # measure runs once per integrand call
    assert len(integrals) == len(range(1 - spec.parity, spec.n_transforms, 2))
    assert all(len(set(nodes)) == len(nodes) for nodes in integrals)
    assert measured == [x for x, _ in calls]
    assert estimate.evaluations == len(calls)
    # the integrals last for the process: a repeat call and the call at
    # n - 2, whose integrals are a subset, make no integrand call and
    # return the estimate a cold process does
    smaller = FamilySpec(spec.family, spec.n_transforms - 2)
    integrals.clear()
    again = reduced_integral(spec)
    other = reduced_integral(smaller)
    assert integrals == [] and len(measured) == len(calls)
    assert _full_bits(again) == _full_bits(estimate)
    oracle._reduced_moment.cache_clear()
    assert _full_bits(other) == _full_bits(reduced_integral(smaller))


@pytest.mark.parametrize(
    "spec",
    [FamilySpec(Family.ONE, 6), FamilySpec(Family.TWO, 5), FamilySpec(Family.THREE, 5), FamilySpec(Family.THREE, 6)],
    ids=lambda spec: "%s-%d" % (spec.family.value, spec.n_transforms),
)
def test_reduced_integral_computes_each_log_once(monkeypatch, spec) -> None:
    stable_log = oracle._stable_log
    log_ratio = oracle._log_ratio_minus
    engine = oracle._tanh_sinh_unit
    logs = []
    ratios = []
    calls = []

    def counted_log(x, cx):
        logs.append((x, cx))
        return stable_log(x, cx)

    def counted_ratio(cx, logx):
        ratios.append(cx)
        return log_ratio(cx, logx)

    def counted_engine(f):
        def counted(x, cx):
            calls.append((x, cx))
            return f(x, cx)

        return engine(counted)

    monkeypatch.setattr(oracle, "_stable_log", counted_log)
    monkeypatch.setattr(oracle, "_log_ratio_minus", counted_ratio)
    monkeypatch.setattr(oracle, "_tanh_sinh_unit", counted_engine)
    reduced_integral(spec)
    # each integrand call computes its node's log x once, and the kernel of
    # x^2 - 1 (even n) once from it
    assert logs == calls
    assert ratios == ([cx for _, cx in calls] if spec.parity == 0 else [])


# quadrature.hex() of the moment checks that ``verify`` runs
_MOMENT_PINS = {
    "zeta-moment-1": (lambda: zeta_log_moment_check(1), "0x1.3bd3cc9be45e0p+0"),
    "zeta-moment-2": (lambda: zeta_log_moment_check(2), "-0x1.0d42c0452055dp+1"),
    "zeta-moment-3": (lambda: zeta_log_moment_check(3), "0x1.85a2e8c290827p+2"),
    "zeta-moment-4": (lambda: zeta_log_moment_check(4), "-0x1.81bcb437e3d5cp+4"),
    "zeta-moment-5": (lambda: zeta_log_moment_check(5), "0x1.e0b1d11856df6p+6"),
    "zeta-moment-6": (lambda: zeta_log_moment_check(6), "-0x1.682b753a7e8dfp+9"),
    "lchi4-moment-0": (lambda: lchi4_log_moment_check(0), "0x1.921fb54442d1cp-1"),
    "lchi4-moment-1": (lambda: lchi4_log_moment_check(1), "-0x1.d4f9713e8135fp-1"),
    "lchi4-moment-2": (lambda: lchi4_log_moment_check(2), "0x1.f019b59389d7bp+0"),
    "lchi4-moment-3": (lambda: lchi4_log_moment_check(3), "-0x1.7bc13488ed9a9p+2"),
    "lchi4-moment-4": (lambda: lchi4_log_moment_check(4), "0x1.7e864c93de442p+4"),
    "lchi4-moment-5": (lambda: lchi4_log_moment_check(5), "-0x1.df5e70aacccecp+6"),
    "lchi4-moment-6": (lambda: lchi4_log_moment_check(6), "0x1.67d6f185c153ap+9"),
    "log1p-moment-1": (lambda: log1p_moment_check(1), "0x1.512348e066e7ep-2"),
    "log1p-moment-2": (lambda: log1p_moment_check(2), "0x1.7a8236fd9d2bdp-2"),
    "log1p-moment-3": (lambda: log1p_moment_check(3), "0x1.d46acf7a0ab51p+0"),
    "log-square-moment-0": (lambda: log_square_moment_check(0), "0x1.16bb24190a0b6p+1"),
    "log-square-moment-1": (lambda: log_square_moment_check(1), "0x1.7f69860d1fe80p+3"),
    "log-square-moment-2": (lambda: log_square_moment_check(2), "0x1.dfb9d569598e2p+7"),
    "log-square-moment-3": (lambda: log_square_moment_check(3), "0x1.3af8f89e90654p+13"),
    "arctangent-moment-0": (lambda: arctangent_moment_check(0), "0x1.0d42c0452055bp+1"),
    "arctangent-moment-1": (lambda: arctangent_moment_check(1), "0x1.3885c9725ffcfp+3"),
    "arctangent-moment-2": (lambda: arctangent_moment_check(2), "0x1.7b6723d31ef5dp+7"),
    "arctangent-moment-3": (lambda: arctangent_moment_check(3), "0x1.ef6c89255ffadp+12"),
}


@pytest.mark.parametrize("check, quadrature", list(_MOMENT_PINS.values()), ids=list(_MOMENT_PINS))
def test_moment_check_quadrature_is_pinned(check, quadrature) -> None:
    # The level-by-level comparison runs both engines on the same integrands,
    # so only a pin sees a change in the integrands themselves.
    result = check()
    assert result.quadrature.hex() == quadrature
    assert result.agree


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
            value = _log_ratio_minus(complement, _stable_log(x, complement))
            assert math.isfinite(value)
            reference = float(mp.log(mp.mpf(x)) / (mp.mpf(x) ** 2 - 1))
            assert abs(value - reference) < 5e-15
    assert abs(_log_ratio_minus(0.5, _stable_log(0.5, 0.5)) - math.log(0.5) / (0.25 - 1.0)) < 1e-15


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
    assert base_measure_three_real(-1.0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert base_measure_three_real(0.5) == 0.0
    assert base_measure_three_real(3.0) == pytest.approx(math.log(3.0), abs=1e-15)
    assert base_measure_three_real(0.0) == 0.0
    assert base_measure_three_imaginary(0.0) == 0.0
    with mp.workdps(30):
        at_one = float(mp.pi / 4 * mp.log(2) + mp.catalan)
    assert base_measure_three_imaginary(1.0) == pytest.approx(at_one, abs=1e-14)
    # the imaginary parameter's measure depends only on |alpha|
    assert base_measure_three_imaginary(-2.5) == base_measure_three_imaginary(2.5)


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
        assert zeta_log_moment_check(j).agree, j
    for j in range(0, 9):
        assert lchi4_log_moment_check(j).agree, j
    with pytest.raises(ValueError):
        zeta_log_moment_check(0)
    with pytest.raises(ValueError):
        lchi4_log_moment_check(9)


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
                base_measure_three_real(x) + base_measure_three_real(-x)
            )
            average_outside = 0.5 * (
                base_measure_three_real(1.0 / x)
                + base_measure_three_real(-1.0 / x)
            )
            return average_inside + average_outside
        return base_measure_three_imaginary(x) + base_measure_three_imaginary(1.0 / x)

    for spec in (
        FamilySpec(Family.ONE, 2),
        FamilySpec(Family.TWO, 1),
        FamilySpec(Family.THREE, 2),
        FamilySpec(Family.THREE, 3),
    ):
        symmetrized = _symmetrized_measure(spec.family, spec.parity)
        for x in grid:
            expected = direct(spec, x)
            actual = symmetrized(x, math.log(x))
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
    # the error estimate is the difference between the last two levels
    for spec in (FamilySpec(Family.TWO, 2), FamilySpec(Family.THREE, 3)):
        assert reduced_integral(spec).error_estimate < 1e-10


def test_reduced_integral_preconditions(monkeypatch) -> None:
    assert oracle.REDUCED_MAX_TRANSFORMS == 114
    assert reduced_integral(FamilySpec(Family.ONE, 7)).value == pytest.approx(
        closed_form_measure(FamilySpec(Family.ONE, 7)), rel=1e-12
    )

    def no_quadrature(f):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(oracle, "_tanh_sinh_unit", no_quadrature)
    for family in Family:
        with pytest.raises(ValueError, match="at most 114 transforms, not 115"):
            reduced_integral(FamilySpec(family, 115))


@pytest.mark.parametrize("family", list(Family), ids=lambda family: family.value)
def test_reduced_integral_warm_scan_equals_cold_calls(family) -> None:
    specs = [FamilySpec(family, n) for n in (40, 41, 113, 114)]
    warm = [_full_bits(reduced_integral(spec)) for spec in specs]
    cold = []
    for spec in specs:
        oracle._reduced_moment.cache_clear()
        oracle._reduced_weights.cache_clear()
        cold.append(_full_bits(reduced_integral(spec)))
    assert warm == cold


@pytest.mark.parametrize("odd", [0, 1], ids=["even", "odd"])
def test_reduced_weights_are_the_coefficient_rows(odd) -> None:
    from mahlerzeta.check.identities import coeff_a_row, coeff_b_row

    for half in range(1 - odd, 58):
        row = (coeff_b_row if odd else coeff_a_row)(half)
        expected = tuple(
            (2 * h + 1 - odd, float(c) * (2 / math.pi) ** (2 * h + 2 - odd))
            for h, c in enumerate(row)
        )
        assert oracle._reduced_weights(odd, half) == expected, (odd, half)


def test_reduced_weights_are_one_table_for_the_three_families(monkeypatch) -> None:
    from mahlerzeta.check import identities

    for family, smallest in ((Family.ONE, 1), (Family.TWO, 0), (Family.THREE, 1)):
        for n in range(smallest, oracle.REDUCED_MAX_TRANSFORMS + 1):
            reduced_integral(FamilySpec(family, n))
    # one row per parity and n // 2: even n = 2 .. 114 and odd n = 1 .. 113
    assert oracle._reduced_weights.cache_info().currsize == 114
    rows = []
    for name in ("coeff_a_row", "coeff_b_row"):
        build = getattr(identities, name)
        monkeypatch.setattr(
            identities, name, lambda half, build=build: rows.append(half) or build(half)
        )
    for family in Family:
        reduced_integral(FamilySpec(family, 57))
        reduced_integral(FamilySpec(family, 114))
        with pytest.raises(ValueError, match="at most 114 transforms"):
            reduced_integral(FamilySpec(family, 115))
    assert rows == []
    assert oracle._reduced_weights.cache_info().currsize == 114


def test_closed_form_measure_equals_the_route_through_each_l3_ii_value() -> None:
    # the route before the folds were merged: each l3_ii constant summed on its own
    for n in range(1, 42, 2):
        spec = FamilySpec(Family.TWO, n)
        result = mahler_measure(spec)
        assert any(elem.kind == "l3_ii" for elem, _ in result.combination.terms())
        value = _combination_decimal(result.combination, 25, None)
        with localcontext() as context:
            context.prec = 35
            expected = float(value / _pi(35) ** result.pi_normalization)
        assert closed_form_measure(spec) == expected, n


def test_closed_form_measure_computes_each_l_value_once(monkeypatch) -> None:
    import mahlerzeta.values as values

    evaluate = values.dirichlet_l_chi4
    calls = Counter()

    def counted(s, digits):
        calls[s, digits] += 1
        return evaluate(s, digits)

    monkeypatch.setattr(values, "dirichlet_l_chi4", counted)
    for n in (5, 41, 113):
        calls.clear()
        closed_form_measure(FamilySpec(Family.TWO, n))
        assert len(calls) >= (n + 1) // 2
        assert max(calls.values()) == 1, n


@pytest.mark.parametrize("n", [20, 21, 200, 201, 1000, 1001])
def test_edgeworth_remainder_of_family_i_is_in_its_window(n) -> None:
    low, high = oracle.EDGEWORTH_WINDOW
    assert low <= oracle.edgeworth_remainder_family_i(n) <= high


def test_edgeworth_tripwire_catches_a_scaled_coefficient(monkeypatch) -> None:
    from mahlerzeta.check import registry
    from mahlerzeta.cli import build_parser
    from mahlerzeta.combinations import ConstantBasisElement, ZetaCombination
    from mahlerzeta.formulas import MahlerResult

    check = dict(registry._checks())["oracle/edgeworth-family-i"]
    args = build_parser().parse_args(["verify", "--max-n", "2"])
    assert check(args)
    build = oracle.mahler_measure

    def scaled(spec):
        result = build(spec)
        if spec.n_transforms != 200:
            return result
        # the pi^198 zeta(3) coefficient times 1 + 1e-4
        terms = dict(result.combination.terms())
        terms[ConstantBasisElement("zeta", 3, 198)] *= 1 + Fraction(1, 10**4)
        return MahlerResult(spec, ZetaCombination(terms))

    monkeypatch.setattr(oracle, "mahler_measure", scaled)
    low, high = oracle.EDGEWORTH_WINDOW
    assert not low <= oracle.edgeworth_remainder_family_i(200) <= high
    assert not check(args)


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


def test_torus_qmc_preconditions() -> None:
    with pytest.raises(ValueError):
        torus_qmc(FamilySpec(Family.ONE, 4))
    with pytest.raises(ValueError):
        torus_qmc(FamilySpec(Family.ONE, 1), samples=10**9 + 1)
    with pytest.raises(ValueError):
        torus_qmc(FamilySpec(Family.ONE, 1), samples=0)
    with pytest.raises(ValueError):
        torus_qmc(FamilySpec(Family.ONE, 1), replicates=1)


@pytest.mark.parametrize("samples", [0, -5, 10**9 + 1])
@pytest.mark.parametrize(
    "run",
    [
        lambda samples: torus_qmc(FamilySpec(Family.ONE, 1), samples=samples),
        lambda samples: imaginary_measure_qmc(0.7, samples=samples),
    ],
    ids=["torus", "imaginary"],
)
def test_qmc_rejects_samples_out_of_range_before_building_points(
    monkeypatch, run, samples
) -> None:
    def no_points(dim: int, exponent: int) -> np.ndarray:
        raise AssertionError("a point set was built")

    monkeypatch.setattr(oracle, "_sobol_base2", no_points)
    with pytest.raises(ValueError, match="samples must lie in"):
        run(samples)


@pytest.mark.parametrize("replicates", [1, 5, 10**12])
@pytest.mark.parametrize(
    "run",
    [
        lambda replicates: torus_qmc(FamilySpec(Family.ONE, 1), samples=4, replicates=replicates),
        lambda replicates: imaginary_measure_qmc(0.7, samples=4, replicates=replicates),
    ],
    ids=["torus", "imaginary"],
)
def test_qmc_rejects_replicates_out_of_range_before_building_points(
    monkeypatch, run, replicates
) -> None:
    # more replicates than samples would evaluate a point set per replicate
    # past the budget, and draw a shift block as long as ``replicates``
    def no_points(dim: int, exponent: int) -> np.ndarray:
        raise AssertionError("a point set was built")

    def no_shifts(seed: int) -> np.random.Generator:
        raise AssertionError("a shift generator was made")

    monkeypatch.setattr(oracle, "_sobol_base2", no_points)
    monkeypatch.setattr(np.random, "default_rng", no_shifts)
    with pytest.raises(ValueError, match=r"replicates must lie in \[2, samples\]"):
        run(replicates)


def test_imaginary_measure_sign_symmetry() -> None:
    positive = imaginary_measure_qmc(0.7, samples=1 << 19, seed=5)
    negative = imaginary_measure_qmc(-0.7, samples=1 << 19, seed=6)
    spread = positive.error_estimate + negative.error_estimate
    assert abs(positive.value - negative.value) <= 5 * spread + 1e-6
    formula = base_measure_three_imaginary(0.7) / math.pi
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
        (Family.ONE, 2, "0x1.b4825317a654cp-1", "0x1.9f02f6222c721p-53", 121),
        (Family.TWO, 1, "0x1.87ecede860a20p-1", "0x1.08345eb45d77fp-52", 121),
        (Family.THREE, 1, "0x1.8bb34183a4f9fp-1", "0x1.37423899a1558p-52", 121),
        (Family.THREE, 2, "0x1.f8d3d6498e8f1p-1", "0x0.0p+0", 121),
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
            lambda: imaginary_measure_qmc(-0.7, samples=2**14, seed=1, replicates=4),
            "0x1.3f60e2a91bbf6p-2",
            "0x1.ed3311f6d06f9p-13",
            16384,
        ),
    ]
    # At the shape of the benchmark's crosscheck requests (2**21 samples in
    # 128 replicates, so 16,384 points per replicate), taken with the
    # np.exp/np.prod kernel.  At this size a complex temporary reaches numpy's
    # 256 KB elision threshold, where ``named * temporary`` is computed as
    # ``temporary * named`` and can differ in the last bit, so these pins also
    # hold the operand order of the family combinations fixed.
    + [
        (
            lambda family=family, n=n, seed=seed: torus_qmc(
                FamilySpec(family, n), samples=2**21, seed=seed, replicates=128
            ),
            value,
            error,
            2**21,
        )
        for family, n, seed, value, error in (
            (Family.ONE, 1, 1, "0x1.2a8f7066118dcp-1", "0x1.a191f1585a7f1p-18"),
            (Family.ONE, 2, 2, "0x1.b47c8ae892316p-1", "0x1.c16da522b5983p-15"),
            (Family.ONE, 3, 3, "0x1.0e9c6bb021f00p+0", "0x1.39e491f47fb59p-13"),
            (Family.TWO, 0, 4, "0x1.b46d94525ea94p-2", "0x1.97d16cc14d635p-15"),
            (Family.TWO, 1, 5, "0x1.87e05c5b82c57p-1", "0x1.cfff1353a6b08p-14"),
            (Family.THREE, 1, 6, "0x1.8bbef6375f28dp-1", "0x1.566367fb71a8dp-15"),
            (Family.THREE, 2, 7, "0x1.f8beec2235408p-1", "0x1.8570cd23ebcb6p-14"),
        )
    ]
    + [
        (
            lambda: imaginary_measure_qmc(0.7, samples=2**21, seed=8, replicates=128),
            "0x1.3f966d5efb4b2p-2",
            "0x1.59de3e5e1bb7fp-18",
            2**21,
        ),
    ]
    # Taken with the whole-block, single-threaded kernel, at shapes that the
    # chunked, threaded kernel splits: the default call (64 chunks per
    # replicate) and 5 replicates, which split unevenly across threads.
    + [
        (
            lambda: torus_qmc(FamilySpec(Family.ONE, 3)),
            "0x1.0e9c47969717fp+0",
            "0x1.b6741a2d1c706p-16",
            10 * 2**20,
        ),
        (
            lambda: torus_qmc(FamilySpec(Family.THREE, 2), samples=5 * 2**15, seed=12, replicates=5),
            "0x1.f8fac6dc11be5p-1",
            "0x1.aa104e87147d0p-12",
            5 * 2**15,
        ),
    ],
)
def test_qmc_estimates_are_pinned(run, value, error, used) -> None:
    estimate = run()
    assert estimate.value.hex() == value
    assert estimate.error_estimate.hex() == error
    assert estimate.evaluations == used


# The straightforward complex kernel: roots of unity from np.exp, products
# from np.prod.  It shares no code with the oracle's kernel, which must agree
# with it bit for bit.
def _reference_polynomial_values(spec: FamilySpec, points: np.ndarray) -> np.ndarray:
    angles = (2.0 * math.pi) * points
    n = spec.n_transforms
    count = points.shape[0]
    if n:
        roots = np.exp(1j * angles[:, :n])
        plus = np.prod(1.0 + roots, axis=1)
        minus = np.prod(1.0 - roots, axis=1)
    else:
        plus = np.ones(count, dtype=complex)
        minus = np.ones(count, dtype=complex)
    if spec.family is Family.ONE:
        z = np.exp(1j * angles[:, n])
        return np.abs(plus + minus * z)
    if spec.family is Family.TWO:
        x = np.exp(1j * angles[:, n])
        y = np.exp(1j * angles[:, n + 1])
        z = np.exp(1j * angles[:, n + 2])
        return np.abs((1.0 + x) * plus + (1.0 + y) * z * minus)
    x = np.exp(1j * angles[:, n])
    y = np.exp(1j * angles[:, n + 1])
    return np.abs(plus + minus * x + (plus - minus) * y)


def _reference_imaginary_values(alpha: float, points: np.ndarray) -> np.ndarray:
    angles = (2.0 * math.pi) * points
    x = np.exp(1j * angles[:, 0])
    y = np.exp(1j * angles[:, 1])
    return np.abs(1.0 + 1j * alpha * x + (1.0 - 1j * alpha) * y)


def _pseudo_base2(dim: int, exponent: int) -> np.ndarray:
    """``2**exponent`` pseudo-random points in ``[0, 1)^dim``, shaped like a Sobol base."""
    return np.random.default_rng([dim, exponent]).random((1 << exponent, dim))


def _reference_mean_log(values, dim, samples, seed, replicates, base2=_sobol_base2):
    """Value, error bar and evaluation count, one full point set per replicate."""
    per_replicate = -(-samples // replicates)
    rng = np.random.default_rng(seed)
    base = base2(dim, max(1, (per_replicate - 1).bit_length()))
    means = []
    used = 0
    for _ in range(replicates):
        points = (base + rng.random(dim)) % 1.0
        with np.errstate(divide="ignore"):
            logs = np.log(values(points))
        finite = np.isfinite(logs)
        used += int(np.count_nonzero(finite))
        means.append(float(np.mean(logs[finite])))
    sigma = float(np.std(means, ddof=1) / math.sqrt(replicates))
    return float(np.mean(means)).hex(), max(sigma, 5e-17).hex(), used


_QMC_SPECS = [
    FamilySpec(Family.ONE, 1),
    FamilySpec(Family.ONE, 2),
    FamilySpec(Family.ONE, 3),
    FamilySpec(Family.TWO, 0),
    FamilySpec(Family.TWO, 1),
    FamilySpec(Family.THREE, 1),
    FamilySpec(Family.THREE, 2),
]


# "pseudo" swaps the Sobol base for pseudo-random points on both sides, so
# the kernel and the replicate loop are held to the reference at generic
# points as well as at dyadic ones; 40,001 points per replicate round up to
# 2**16, four chunks of 16,384.
@pytest.mark.parametrize(
    "points, mode",
    [(points, mode) for points in (8192, 16384, 32768) for mode in ("sobol", "pseudo")]
    + [(40_001, "pseudo")],
)
@pytest.mark.parametrize("spec", _QMC_SPECS, ids=lambda spec: "%s-%d" % (spec.family.value, spec.n_transforms))
def test_torus_qmc_matches_reference_kernel(monkeypatch, spec, points, mode) -> None:
    base2 = _sobol_base2 if mode == "sobol" else _pseudo_base2
    monkeypatch.setattr(oracle, "_sobol_base2", base2)
    seed = 1000 * points + spec.torus_dimension
    estimate = torus_qmc(spec, samples=3 * points, seed=seed, replicates=3)
    expected = _reference_mean_log(
        lambda p: _reference_polynomial_values(spec, p),
        spec.torus_dimension, 3 * points, seed, 3, base2,
    )
    actual = (estimate.value.hex(), estimate.error_estimate.hex(), estimate.evaluations)
    assert actual == expected


@pytest.mark.parametrize("points", [8192, 16384, 32768])
@pytest.mark.parametrize("alpha", [0.7, -2.5])
def test_imaginary_measure_matches_reference_kernel(alpha, points) -> None:
    estimate = imaginary_measure_qmc(alpha, samples=3 * points, seed=points, replicates=3)
    expected = _reference_mean_log(
        lambda p: _reference_imaginary_values(alpha, p), 2, 3 * points, points, 3
    )
    actual = (estimate.value.hex(), estimate.error_estimate.hex(), estimate.evaluations)
    assert actual == expected


def _scalar_unit_product(roots, sign):
    """``prod_k (1 + sign * roots[k])`` in Python floats, one factor at a time.

    Each factor is ``(1 + sign * re, sign * im)`` and each product rounds
    ``(a c - b d, a d + b c)`` term by term, as the docstring of
    ``_unit_factor_product`` states; the signs of zero parts are kept.
    """
    real, imag = 1.0 + sign * roots[0].real, sign * roots[0].imag
    for root in roots[1:]:
        c, d = 1.0 + sign * root.real, sign * root.imag
        real, imag = real * c - imag * d, real * d + imag * c
    return complex(real, imag)


# Roots that cosines and sines of shifted Sobol points never give: exact
# +-1 and +-i, and parts that are +0.0 or -0.0.
_EDGE_ROOTS = [
    1, -1, 1j, -1j, complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
    complex(1.0, -0.0), complex(-1.0, -0.0), complex(0.6, -0.0), complex(-0.0, 0.8), complex(0.0, -0.8),
]


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("factors", [1, 2, 3, 4])
def test_unit_factor_product_on_edge_roots(factors, sign) -> None:
    rng = np.random.default_rng(factors)
    pool = np.array(_EDGE_ROOTS + list(np.exp(2j * math.pi * rng.random(16))))
    roots = pool[rng.integers(0, len(pool), size=(factors, 1024))]
    out = np.empty(1024, dtype=complex)
    _unit_factor_product(roots, sign, out, np.empty((5, 1024)))
    expected = np.array([_scalar_unit_product(column, sign) for column in roots.T.tolist()])
    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
    # np.prod along a contiguous axis, the plain kernel's product, differs
    # from that only in the sign of a zero part: numpy widens 1.0 to 1 + 0j
    # and multiplies from the identity 1 + 0j, and adding +0.0 turns a -0.0
    # into +0.0.  |P| does not see the sign of a zero.
    points = np.ascontiguousarray(roots.T)
    plain = np.prod(1.0 + points if sign > 0 else 1.0 - points, axis=1)
    assert np.array_equal((out + 0.0).view(np.uint64), (plain + 0.0).view(np.uint64))


def _cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.mark.parametrize(
    "run, base2",
    [
        (
            lambda: torus_qmc(FamilySpec(Family.TWO, 1), samples=5 * 2**15, seed=21, replicates=5),
            _sobol_base2,
        ),
        (
            lambda: torus_qmc(FamilySpec(Family.ONE, 2), samples=5 * 40_001, seed=22, replicates=5),
            _pseudo_base2,
        ),
        (
            lambda: imaginary_measure_qmc(-1.5, samples=5 * 2**15, seed=23, replicates=5),
            _sobol_base2,
        ),
    ],
    ids=["sobol", "pseudo", "imaginary"],
)
def test_qmc_estimates_do_not_depend_on_the_thread_count(monkeypatch, run, base2) -> None:
    monkeypatch.setattr(oracle, "_sobol_base2", base2)
    results = set()
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        estimate = run()
        results.add((estimate.value.hex(), estimate.error_estimate.hex(), estimate.evaluations))
    assert len(results) == 1


def _recording_kernel(threads, caller=None):
    """A ``kernel`` for ``_replicated_mean_log`` that notes the thread of each share.

    Its values are 1 (log 0) on the ``caller`` thread and 0, a zero of the
    polynomial, on every other thread.
    """

    def kernel(width):
        threads.append(threading.get_ident())

        def values(roots):
            on_caller = caller is None or threading.get_ident() == caller
            return np.full(roots.shape[1], 1.0 if on_caller else 0.0)

        return values

    return kernel


@pytest.mark.parametrize("cpus, shares", [(1, 1), (2, 2), (3, 3), (8, 5)])
def test_qmc_runs_one_share_per_cpu(monkeypatch, cpus, shares) -> None:
    _cpus(monkeypatch, cpus)
    threads = []
    estimate = _replicated_mean_log(_recording_kernel(threads), 2, 5 * 2**15, 0, 5)
    assert (estimate.value, estimate.evaluations) == (0.0, 5 * 2**15)
    # an idle worker may take a second share, so count shares, not threads
    assert len(threads) == shares
    assert threads.count(threading.get_ident()) == 1


def test_qmc_share_error_reaches_the_caller(monkeypatch) -> None:
    _cpus(monkeypatch, 2)
    before = set(threading.enumerate())
    threads, errors = [], []

    def call() -> None:
        kernel = _recording_kernel(threads, caller=threading.get_ident())
        try:
            _replicated_mean_log(kernel, 2, 4 * 2**15, 0, 4)
        except ValueError as error:
            errors.append(str(error))

    runner = threading.Thread(target=call)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    assert errors == ["all samples fell on zeros of the polynomial"]
    assert len(set(threads)) == 2 and runner.ident in threads
    assert set(threading.enumerate()) == before


class _ShareFailure(RuntimeError):
    pass


def test_qmc_share_error_stops_the_other_shares(monkeypatch) -> None:
    _cpus(monkeypatch, 3)
    caller = threading.get_ident()
    lock = threading.Lock()
    events = []

    def kernel(width):
        def values(roots):
            thread = threading.get_ident()
            with lock:
                fail = thread != caller and not any(kind == "fail" for _, kind in events)
                events.append((thread, "fail" if fail else "start"))
            if fail:
                raise _ShareFailure("a worker's first replicate")
            time.sleep(1e-3)
            return np.ones(roots.shape[1])

        return values

    with pytest.raises(_ShareFailure):
        _replicated_mean_log(kernel, 2, 64 * 64, 0, 64)
    failures = [index for index, (_, kind) in enumerate(events) if kind == "fail"]
    assert len(failures) == 1
    # a share that took a replicate before the failure was recorded may
    # start it; none takes another
    later = Counter(thread for thread, _ in events[failures[0] + 1 :])
    assert events[failures[0]][0] not in later
    assert all(count <= 1 for count in later.values())


def test_qmc_slow_share_does_not_stall_the_call(monkeypatch) -> None:
    caller = threading.get_ident()
    runs = []

    def kernel(width):
        def values(roots):
            runs.append(threading.get_ident())
            if threading.get_ident() != caller:
                time.sleep(1e-3)
            return np.abs(2.0 + roots[0] * roots[1])

        return values

    results = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        runs.clear()
        estimate = _replicated_mean_log(kernel, 2, 64 * 64, 0, 64)
        results.append((estimate.value.hex(), estimate.error_estimate.hex(), estimate.evaluations))
    assert results[0] == results[1]
    # one chunk per replicate; fixed halves would give the caller exactly 32
    assert len(runs) == 64 and runs.count(caller) > 32


def test_default_torus_qmc_runs_in_bounded_memory() -> None:
    # The peak resident set of a fresh process, VmHWM.  Its ru_maxrss would
    # not do: a child started from a process as large as a test session
    # inherits that process's peak through exec.  The whole-block kernel
    # peaked at 284 MB here.
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/<pid>/status")
    script = (
        "from mahlerzeta.formulas import Family, FamilySpec\n"
        "from mahlerzeta.oracle import torus_qmc\n"
        "torus_qmc(FamilySpec(Family.ONE, 3))\n"
        "status = open('/proc/self/status').read()\n"
        "print(status.split('VmHWM:')[1].split()[0])\n"
    )
    source = str(Path(__file__).resolve().parent.parent / "src")
    environment = dict(os.environ, PYTHONPATH=os.pathsep.join([source, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=environment, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) / 1024 < 150
