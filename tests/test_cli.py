"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import List, Tuple

import mpmath as mp
import pytest

import mahlerzeta.cli
from mahlerzeta.cli import main
from mahlerzeta.cli import _pi_label
from mahlerzeta.combinations import ZetaCombination
from mahlerzeta.formulas import Family, FamilySpec, mahler_measure
from mahlerzeta.store import ConstantStore


ALL_CHECKS = [
    "identities/reduction-ab",
    "identities/reduction-ba",
    "identities/reduction-induction-ab",
    "identities/reduction-induction-ba",
    "identities/symmetric-transfer-first",
    "identities/symmetric-transfer-second",
    "identities/bernoulli-transfer-first",
    "identities/bernoulli-transfer-second",
    "identities/bernoulli-transfer-third",
    "identities/bernoulli-euler-transfer",
    "identities/weighted-factorial-sums",
    "identities/bernoulli-recurrence",
    "identities/bernoulli-halving",
    "identities/log-moment-poly-properties",
    "identities/log-moment-poly-bernoulli-form",
    "identities/monomial-decomposition",
    "identities/family-two-bernoulli-form",
    "identities/family-three-rewritings",
    "tables/all-rows-match-canonical",
    "tables/erratum-family-ii-3-transforms",
    "tables/erratum-family-iii-3-transforms",
    "oracle/reduced-vs-closed-family-i",
    "oracle/reduced-vs-closed-family-ii",
    "oracle/reduced-vs-closed-family-iii",
    "oracle/kernel-integral-seeded-cases",
    "oracle/unit-log-moments",
    "oracle/defining-integrals",
    "oracle/torus-qmc-family-i",
    "oracle/l3-ii-fold",
    "oracle/edgeworth-family-i",
]


def run_cli(argv: List[str], capsys) -> Tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_text_output(tmp_path, capsys) -> None:
    store = str(tmp_path / "store.txt")
    code, out, err = run_cli(
        ["eval", "--family", "i", "--n", "2", "--digits", "30", "--store", store], capsys
    )
    assert code == 0
    assert err == ""
    assert "family i with 2 transform(s)" in out
    assert "pi^2 * m = 7*zeta(3)" in out
    assert "8.4143983221171" in out
    assert "to 30 digits" in out


def test_eval_json_round_trip(tmp_path, capsys) -> None:
    store = str(tmp_path / "store.txt")
    code, out, _ = run_cli(
        [
            "eval",
            "--family",
            "iii",
            "--n",
            "1",
            "--digits",
            "30",
            "--format",
            "json",
            "--store",
            store,
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "iii"
    assert data["n_transforms"] == 1
    assert data["pi_normalization"] == 2
    assert ["zeta", 3, 0, 7, 2] in data["combination"]
    assert ["log2", 0, 2, 1, 2] in data["combination"]
    assert (data["oracle_value"], data["oracle_method"], data["agreement"]) == (None, None, None)
    rebuilt = ZetaCombination.from_records(
        {"kind": kind, "arg": arg, "pi_power": pi_power, "coeff": "%d/%d" % (num, den)}
        for kind, arg, pi_power, num, den in data["combination"]
    )
    assert rebuilt == mahler_measure(FamilySpec(Family.THREE, 1)).combination
    with mp.workdps(40):
        printed = mp.mpf(data["numeric_value"])
        truth = mp.mpf(7) / 2 * mp.zeta(3) + mp.pi**2 / 2 * mp.log(2)
        assert abs(printed - truth) < mp.mpf(10) ** -25


@pytest.mark.parametrize("transforms", [1857, 2040])
def test_eval_prints_coefficients_past_the_int_string_limit(
    transforms, tmp_path, capsys, monkeypatch
) -> None:
    # From n = 1857 (odd) and n = 2040 (even) family i has coefficients of more
    # than 4,300 digits, the most that str() converts an int by default.  The
    # build is the same at any n; it runs once here, and eval prints it.
    result = mahler_measure(FamilySpec(Family.ONE, transforms))
    monkeypatch.setattr(mahlerzeta.cli, "mahler_measure", lambda spec: result)
    argv = ["eval", "--family", "i", "--n", str(transforms), "--digits", "10"]
    argv += ["--store", str(tmp_path / "store.txt")]
    limit = sys.get_int_max_str_digits()
    text = run_cli(argv, capsys)
    data = run_cli(argv + ["--format", "json"], capsys)
    assert (text[0], text[2], data[0], data[2]) == (0, "", 0, "")
    # the limit stays in force for everyone else
    assert sys.get_int_max_str_digits() == limit > 0
    with pytest.raises(ValueError):
        str(10**limit)
    # with the limit lifted, str() and json print the same bytes
    sys.set_int_max_str_digits(0)
    try:
        terms = result.combination.terms()
        assert max(len(str(coeff.numerator)) for _, coeff in terms) > limit
        label = "pi^%d * m" % transforms
        record = json.loads(data[1])
        assert text[1].splitlines() == [
            "family i with %d transform(s)" % transforms,
            "%s = %s" % (label, result.combination.format_text()),
            "%s = %s to 10 digits" % (label, record["numeric_value"]),
        ]
        assert record["combination"] == [
            [element.kind, element.arg, element.pi_power, coeff.numerator, coeff.denominator]
            for element, coeff in terms
        ]
        assert data[1] == json.dumps(record, indent=2, sort_keys=True) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_eval_rejects_invalid_spec(tmp_path, capsys) -> None:
    store = str(tmp_path / "store.txt")
    code, out, err = run_cli(
        ["eval", "--family", "i", "--n", "0", "--store", store], capsys
    )
    assert code == 2
    assert out == ""
    assert "error" in err


def test_eval_unknown_family_is_usage_error(capsys) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(["eval", "--family", "iv", "--n", "1"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_pi_label() -> None:
    assert _pi_label(0) == "m"
    assert _pi_label(1) == "pi * m"
    assert _pi_label(3) == "pi^3 * m"


def test_verify_tables_suite_reports_errata(capsys) -> None:
    code, out, _ = run_cli(["verify", "--suite", "tables"], capsys)
    assert code == 0
    assert "pass tables/all-rows-match-canonical" in out
    assert "pass tables/erratum-family-ii-3-transforms" in out
    assert "pass tables/erratum-family-iii-3-transforms" in out


def test_verify_identities_suite(capsys) -> None:
    code, out, _ = run_cli(["verify", "--suite", "identities", "--max-n", "6"], capsys)
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert lines
    assert all(line.startswith("pass ") for line in lines)
    assert any("identities/reduction-ab" in line for line in lines)
    assert any("identities/monomial-decomposition" in line for line in lines)


def test_verify_oracle_suite(capsys) -> None:
    code, out, _ = run_cli(
        [
            "verify",
            "--suite",
            "oracle",
            "--max-n",
            "2",
            "--seed",
            "42",
        ],
        capsys,
    )
    assert code == 0
    assert "pass oracle/reduced-vs-closed-family-i" in out
    assert "pass oracle/torus-qmc-family-i" in out


def test_verify_failure_emits_machine_readable_list(monkeypatch, capsys) -> None:
    closed = mahlerzeta.oracle.closed_form_measure
    monkeypatch.setattr(
        mahlerzeta.oracle, "closed_form_measure", lambda spec: closed(spec) + 1e-6
    )
    code, out, _ = run_cli(
        ["verify", "--suite", "oracle", "--max-n", "2", "--seed", "42"], capsys
    )
    assert code == 1
    assert "FAIL oracle/reduced-vs-closed-family-i" in out
    payload = json.loads(out.splitlines()[-1])
    assert "oracle/reduced-vs-closed-family-i" in payload["failures"]


def test_verify_kernel_cases_run_the_power_kernel(monkeypatch) -> None:
    from mahlerzeta.check import registry

    check = mahlerzeta.oracle.power_kernel_check
    cases = []

    def recorded(a, b, alpha):
        cases.append((a, b, alpha))
        return check(a, b, alpha)

    monkeypatch.setattr(mahlerzeta.oracle, "power_kernel_check", recorded)
    assert registry._kernel_cases(argparse.Namespace(seed=42))
    assert len(cases) == 20
    assert all(abs(a - b) >= 0.15 and 0.05 <= alpha <= 0.95 for a, b, alpha in cases)
    monkeypatch.setattr(
        mahlerzeta.oracle,
        "power_kernel_check",
        lambda a, b, alpha: check(a, b, alpha)._replace(agree=False),
    )
    assert not registry._kernel_cases(argparse.Namespace(seed=42))


@pytest.mark.parametrize(
    "family, smallest",
    [(Family.ONE, 1), (Family.TWO, 0), (Family.THREE, 1)],
    ids=["i", "ii", "iii"],
)
def test_verify_compares_the_reduced_integral_at_every_n(monkeypatch, family, smallest) -> None:
    from mahlerzeta.check import registry

    check = registry._reduced_matches_closed(family, smallest)
    args = argparse.Namespace(max_n=20, seed=42)
    assert check(args)
    # a relative 1e-11 at the largest n alone fails the check
    closed = mahlerzeta.oracle.closed_form_measure
    monkeypatch.setattr(
        mahlerzeta.oracle,
        "closed_form_measure",
        lambda spec: closed(spec) * (1.0 + 1e-11 * (spec.n_transforms == 20)),
    )
    assert not check(args)
    # past the quadrature's bound the check stops at the bound
    compared = []

    def recorded(spec):
        compared.append(spec.n_transforms)
        return 1.0

    estimate = mahlerzeta.oracle.IntegralEstimate(1.0, 0.0, "series", 1)
    monkeypatch.setattr(mahlerzeta.oracle, "closed_form_measure", recorded)
    monkeypatch.setattr(mahlerzeta.oracle, "reduced_integral", lambda spec: estimate)
    assert check(argparse.Namespace(max_n=200, seed=42))
    assert compared == list(range(smallest, mahlerzeta.oracle.REDUCED_MAX_TRANSFORMS + 1))


@pytest.mark.parametrize("side", ["reduced_integral", "closed_form_measure"])
def test_verify_reduced_check_fails_on_a_nan(monkeypatch, side) -> None:
    from mahlerzeta.check import registry

    check = registry._reduced_matches_closed(Family.ONE, 1)
    args = argparse.Namespace(max_n=3, seed=42)
    assert check(args)
    original = getattr(mahlerzeta.oracle, side)

    def nan_at_two(spec):
        result = original(spec)
        if spec.n_transforms != 2:
            return result
        if side == "reduced_integral":
            return result._replace(value=float("nan"))
        return float("nan")

    monkeypatch.setattr(mahlerzeta.oracle, side, nan_at_two)
    assert not check(args)


def test_verify_torus_check_compares_with_the_closed_form(monkeypatch) -> None:
    from mahlerzeta.check import registry

    check = dict(registry._checks())["oracle/torus-qmc-family-i"]
    args = argparse.Namespace(max_n=3, seed=42)
    assert check(args)
    original = mahlerzeta.oracle.closed_form_measure
    monkeypatch.setattr(
        mahlerzeta.oracle, "closed_form_measure", lambda spec: original(spec) * (1 + 1e-3)
    )
    assert not check(args)


def test_verify_rejects_bad_parameters(capsys) -> None:
    for option, value in (("--max-n", "0"), ("--seed", "-1")):
        code, out, err = run_cli(["verify", option, value], capsys)
        assert (code, out) == (2, ""), (option, value)
        assert err.startswith("error: "), (option, value)


def test_verify_store_is_not_an_option(capsys) -> None:
    # verify computes no stored constant, so it takes no --store
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--store", "x"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --store" in capsys.readouterr().err


def test_verify_tolerance_is_not_an_option(capsys) -> None:
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--tolerance", "1e-7"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --tolerance" in capsys.readouterr().err


def test_verify_runs_every_check_in_registry_order(capsys) -> None:
    code, out, _ = run_cli(["verify", "--suite", "all", "--max-n", "2"], capsys)
    assert code == 0
    assert out.splitlines() == ["pass " + name for name in ALL_CHECKS]
    for suite in ("identities", "tables", "oracle"):
        code, out, _ = run_cli(["verify", "--suite", suite, "--max-n", "2"], capsys)
        assert code == 0
        names = [name for name in ALL_CHECKS if name.startswith(suite + "/")]
        assert out.splitlines() == ["pass " + name for name in names]


def test_verify_is_deterministic(capsys) -> None:
    args = ["verify", "--suite", "tables"]
    code_one, out_one, _ = run_cli(args, capsys)
    code_two, out_two, _ = run_cli(args, capsys)
    assert (code_one, out_one) == (code_two, out_two)


def test_constants_warm_and_list(tmp_path, capsys) -> None:
    store_path = str(tmp_path / "constants.txt")
    code, out, _ = run_cli(
        ["constants", "warm", "--digits", "12", "--store", store_path], capsys
    )
    assert code == 0
    assert "24 constants" in out

    code, out, _ = run_cli(["constants", "list", "--store", store_path], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 24
    assert any(line.startswith("zeta 3 12 ") for line in lines)
    assert any(line.startswith("lchi4 2 12 ") for line in lines)
    assert any(line.startswith("l3_ii 1 12 ") for line in lines)
    assert any(line.startswith("log2 0 12 ") for line in lines)

    # lower-precision warm is a no-op
    code, out, _ = run_cli(
        ["constants", "warm", "--digits", "8", "--store", store_path], capsys
    )
    assert code == 0
    assert "(0 computed" in out

    store = ConstantStore(store_path)
    assert store.get("zeta", 3, 12) is not None
    assert store.get("zeta", 3, 13) is None


def test_constants_warm_saves_the_store_once(tmp_path, capsys, monkeypatch) -> None:
    saves = []
    save = ConstantStore.save
    monkeypatch.setattr(ConstantStore, "save", lambda self: saves.append(1) or save(self))
    store = tmp_path / "store.txt"
    argv = ["constants", "warm", "--digits", "12", "--store", str(store)]
    code, out, _ = run_cli(argv, capsys)
    assert (code, saves, len(ConstantStore(store))) == (0, [1], 24)
    assert out == "store %s holds 24 constants (24 computed at 12 digits)\n" % store
    code, out, _ = run_cli(argv, capsys)
    assert (code, saves) == (0, [1])
    assert out == "store %s holds 24 constants (0 computed at 12 digits)\n" % store


def test_constants_warm_keeps_the_constants_computed_before_a_failure(
    tmp_path, capsys, monkeypatch
) -> None:
    import mahlerzeta.values as values

    # l3_ii sorts last, so every other target is computed before it fails
    monkeypatch.setattr(values, "l3_ii_value", _fail_numerically)
    saves = []
    save = ConstantStore.save
    monkeypatch.setattr(ConstantStore, "save", lambda self: saves.append(1) or save(self))
    store = tmp_path / "store.txt"
    code, out, err = run_cli(["constants", "warm", "--digits", "12", "--store", str(store)], capsys)
    assert (code, out, err) == (3, "", "error: series did not converge\n")
    assert saves == [1]
    assert sorted({line.split()[0] for line in store.read_text().splitlines()[1:]}) == [
        "lchi4",
        "log2",
        "zeta",
    ]
    assert len(ConstantStore(store)) == 21


@pytest.mark.parametrize("command", [["eval", "--family", "i", "--n", "1"], ["constants", "list"]])
def test_empty_store_path_exits_2(command, tmp_path, capsys, monkeypatch) -> None:
    # an empty path names the working directory, not the default store
    default = tmp_path / "default-store.txt"
    monkeypatch.setenv("MAHLERZETA_STORE", str(default))
    code, out, err = run_cli(command + ["--store", ""], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not default.exists()


def test_store_environment_override(tmp_path, capsys, monkeypatch) -> None:
    target = tmp_path / "env-store.txt"
    monkeypatch.setenv("MAHLERZETA_STORE", str(target))
    code, out, _ = run_cli(["eval", "--family", "i", "--n", "1", "--digits", "12"], capsys)
    assert code == 0
    assert "2*L(chi_-4,2)" in out
    assert target.exists()
    assert "lchi4 2" in target.read_text()


def _fail_numerically(*args, **kwargs):
    raise RuntimeError("series did not converge")


def test_eval_numeric_failure_exits_3(tmp_path, capsys, monkeypatch) -> None:
    import mahlerzeta.values as values

    # the first constant that eval computes on the empty store
    monkeypatch.setattr(values, "dirichlet_l_chi4", _fail_numerically)
    store = str(tmp_path / "store.txt")
    code, out, err = run_cli(
        ["eval", "--family", "ii", "--n", "1", "--digits", "60", "--store", store], capsys
    )
    assert code == 3
    assert out == ""
    assert err == "error: series did not converge\n"


def test_eval_keeps_the_constants_computed_before_a_failure(tmp_path, capsys, monkeypatch) -> None:
    import mahlerzeta.values as values

    # family ii at n = 1 is pi^2 L(chi_-4, 2) + 2 l3_ii(1): L(chi_-4, 2) is
    # computed, then l3_ii(1) fails, and the one save still keeps the first
    monkeypatch.setattr(values, "l3_ii_value", _fail_numerically)
    saves = []
    save = ConstantStore.save
    monkeypatch.setattr(ConstantStore, "save", lambda self: saves.append(1) or save(self))
    store = tmp_path / "store.txt"
    code, out, err = run_cli(
        ["eval", "--family", "ii", "--n", "1", "--digits", "20", "--store", str(store)], capsys
    )
    assert (code, out, err) == (3, "", "error: series did not converge\n")
    assert saves == [1]
    assert [line.split()[:3] for line in store.read_text().splitlines()[1:]] == [
        ["lchi4", "2", "20"]
    ]


def test_eval_saves_the_store_once(tmp_path, capsys, monkeypatch) -> None:
    saves = []
    save = ConstantStore.save
    monkeypatch.setattr(ConstantStore, "save", lambda self: saves.append(1) or save(self))
    store = tmp_path / "store.txt"
    argv = ["eval", "--family", "ii", "--n", "5", "--digits", "20", "--store", str(store)]
    code, cold, _ = run_cli(argv, capsys)
    assert code == 0
    assert saves == [1]
    assert len(ConstantStore(store)) == 6
    code, warm, _ = run_cli(argv, capsys)
    assert (code, warm) == (0, cold)
    assert saves == [1]


@pytest.mark.parametrize(
    "line, message",
    [
        ("lchi4 2 50 inf", "'lchi4 2 50 inf'"),
        ("lchi4 2 50 abc", "'lchi4 2 50 abc'"),
        ("lchi4 x 50 0.9159655941772190150546", "'lchi4 x 50 0.9159655941772190150546'"),
    ],
)
def test_eval_refuses_a_store_value_that_is_not_a_number(line, message, tmp_path, capsys) -> None:
    store = tmp_path / "store.txt"
    store.write_text("mahlerzeta-constants 1\n%s\n" % line)
    code, out, err = run_cli(
        ["eval", "--family", "i", "--n", "1", "--digits", "20", "--store", str(store)], capsys
    )
    assert (code, out) == (2, "")
    assert err == "error: malformed constant-store line: %s\n" % message


def test_warm_eval_above_python_int_string_limit(tmp_path, capsys) -> None:
    # Python refuses int(str) and str(int) beyond 4300 digits; a warm eval
    # reads and prints through decimal
    with mp.workdps(4420):
        catalan = +mp.catalan
        expected = mp.nstr(2 * catalan, 4400)
        store = ConstantStore(tmp_path / "store.txt")
        store.put("lchi4", 2, 4400, mp.nstr(catalan, 4405))
    store.save()
    code, out, err = run_cli(
        ["eval", "--family", "i", "--n", "1", "--digits", "4400", "--store", str(store.path)],
        capsys,
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[2] == "pi * m = %s to 4400 digits" % expected
    assert len(expected) == 4401


def test_eval_family_ii_odd_at_60_digits(tmp_path, capsys) -> None:
    store = str(tmp_path / "store.txt")
    code, out, err = run_cli(
        ["eval", "--family", "ii", "--n", "1", "--digits", "60", "--store", store], capsys
    )
    assert code == 0
    assert err == ""
    assert "to 60 digits" in out
    printed = out.splitlines()[2].split(" = ")[1].split(" to ")[0]
    # 2 pi^2 Catalan + 2 l3_ii(1), with l3_ii(1) from an independent Mellin
    # integral at 60 digits.
    with mp.workdps(80):
        l3_ii_1 = mp.mpf("2.82711656135535384798168130964810547987764443387222074341544")
        expected = 2 * mp.pi**2 * mp.catalan + 2 * l3_ii_1
        assert abs(mp.mpf(printed) - expected) < mp.mpf(10) ** -57


def _engine_is_off_the_path(*args, **kwargs):
    raise AssertionError("eval reached the double-polylogarithm engine")


def test_eval_family_ii_odd_does_not_reach_the_engine(tmp_path, capsys, monkeypatch) -> None:
    import mahlerzeta.values as values

    monkeypatch.setattr(values, "multiple_polylog", _engine_is_off_the_path)
    monkeypatch.setattr(values, "_values_at_half", _engine_is_off_the_path)
    store = str(tmp_path / "store.txt")
    code, out, err = run_cli(
        ["eval", "--family", "ii", "--n", "19", "--digits", "30", "--store", store], capsys
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[2] == "pi^21 * m = 76241184106.66691403719311049 to 30 digits"


def test_verify_l3_ii_fold_catches_a_perturbed_coefficient(monkeypatch) -> None:
    import mahlerzeta.check.registry
    import mahlerzeta.values as values

    check = dict(mahlerzeta.check.registry._checks())["oracle/l3-ii-fold"]
    args = mahlerzeta.cli.build_parser().parse_args(["verify", "--max-n", "7"])
    assert check(args)
    original = values._l3_ii_fold

    def perturbed(b: int) -> ZetaCombination:
        fold = original(b)
        if b == 7:
            # one part in 10^15 of the pi^6 L(chi_-4, 4) coefficient -1/2520
            fold += ZetaCombination.lchi4(4, pi_power=6, coeff=Fraction(-1, 2520 * 10**15))
        return fold

    monkeypatch.setattr(values, "_l3_ii_fold", perturbed)
    assert not check(args)


def test_eval_unwritable_store_exits_2(tmp_path, capsys) -> None:
    blocker = tmp_path / "F"
    blocker.write_text("a regular file, not a directory\n")
    store = str(blocker / "store.txt")
    code, out, err = run_cli(
        ["eval", "--family", "i", "--n", "1", "--digits", "12", "--store", store], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert blocker.read_text() == "a regular file, not a directory\n"


def test_constants_warm_numeric_failure_exits_3(tmp_path, capsys, monkeypatch) -> None:
    import mahlerzeta.values as values

    # warm computes its targets in basis order: log2, then zeta(3), which fails
    monkeypatch.setattr(values, "zeta", _fail_numerically)
    store = tmp_path / "store.txt"
    code, out, err = run_cli(["constants", "warm", "--digits", "60", "--store", str(store)], capsys)
    assert code == 3
    assert out == ""
    assert err == "error: series did not converge\n"
    assert [kind for kind, *_ in ConstantStore(store).entries()] == ["log2"]


def test_cli_import_does_not_load_scipy() -> None:
    src = str(Path(mahlerzeta.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    probe = (
        "import sys, mahlerzeta.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


# The one lazily registered check module, and the check subpackage's modules.
LAZY = ("oracle",)
CHECK_MODULES = ("check", "check.identities", "check.reduce", "check.registry", "check.tables")
# The production modules, which must never import the check layer.
PRODUCTION = ("combinations", "exact", "formulas", "store", "values")


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter with the package on its path."""
    src = str(Path(mahlerzeta.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def _run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with the package on its path; its last line."""
    result = _python("-c", code)
    result.check_returncode()
    return result.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    "probe",
    [
        "package",
        "cli",
        "eval-warm",
        "eval-cold",
        "constants-warm",
        "verify-tables",
        "torus-qmc",
        "reduced-integral",
        "closed-form",
    ],
)
def test_eval_path_does_not_load_numpy(probe, tmp_path) -> None:
    # eval and constants run only the production layer.  The oracle stays in
    # sys.modules, because tracers look it up there, but its code runs only
    # when verify or one of its names needs it; the check subpackage is
    # imported by verify alone, and the oracle imports none of it to sample;
    # its quadrature reads check.identities, which loads no registry or table.
    store = tmp_path / "store.txt"
    argv = {
        "constants-warm": ["constants", "warm", "--digits", "12", "--store", str(store)],
        "verify-tables": ["verify", "--suite", "tables", "--max-n", "2"],
    }.get(probe, ["eval", "--family", "ii", "--n", "1", "--digits", "12", "--store", str(store)])
    if probe == "eval-warm":
        assert main(argv) == 0
        warm = store.read_text()
    setup = {
        "package": "import mahlerzeta",
        "cli": "import mahlerzeta.cli",
        "torus-qmc": "import mahlerzeta; mahlerzeta.torus_qmc",
        "reduced-integral": (
            "import mahlerzeta as mz; mz.reduced_integral(mz.FamilySpec(mz.Family.ONE, 2))"
        ),
        "closed-form": (
            "import mahlerzeta as mz; mz.closed_form_measure(mz.FamilySpec(mz.Family.TWO, 3))"
        ),
    }.get(probe, "import mahlerzeta.cli; code = mahlerzeta.cli.main(%r)" % (argv,))
    # measured before the report itself imports json
    report = (
        "import sys, types\n"
        "registered = [n for n in %r if 'mahlerzeta.' + n in sys.modules]\n"
        "pending = [n for n in registered "
        "if type(sys.modules['mahlerzeta.' + n]) is not types.ModuleType]\n"
        "loaded = sorted({m.split('.')[0] for m in sys.modules} "
        "& {'dataclasses', 'inspect', 'json', 'mpmath', 'numpy', 'scipy'})\n"
        "checks = [n for n in %r if 'mahlerzeta.' + n in sys.modules]\n"
        "import json\n"
        "print(json.dumps({'code': globals().get('code', 0), 'registered': registered, "
        "'pending': pending, 'loaded': loaded, 'checks': checks}))" % (LAZY, CHECK_MODULES)
    )
    # constants are computed in integer fixed point, and the oracle sums its
    # closed forms in decimal, so it loads no mpmath; no module defines a
    # dataclass
    assert json.loads(_run_fresh(setup + "\n" + report)) == {
        "code": 0,
        "registered": ["oracle"],
        "pending": [] if probe in ("torus-qmc", "reduced-integral", "closed-form") else ["oracle"],
        "loaded": [],
        "checks": {
            "verify-tables": ["check", "check.identities", "check.registry", "check.tables"],
            "reduced-integral": ["check", "check.identities"],
        }.get(probe, []),
    }
    if probe == "eval-warm":
        assert store.read_text() == warm
    elif probe in ("eval-cold", "constants-warm"):
        assert "l3_ii 1 " in store.read_text()


def test_package_serves_every_public_name_from_its_module() -> None:
    for name in mahlerzeta.__all__:
        assert name in dir(mahlerzeta), name
        if name != "__version__":
            value = getattr(mahlerzeta, name)
            assert getattr(sys.modules[value.__module__], name) is value, name
    imported = __import__("mahlerzeta", fromlist=["oracle"])
    assert imported.oracle is sys.modules["mahlerzeta.oracle"]
    assert "oracle" in dir(mahlerzeta)
    # the check subpackage's names are served by its modules alone
    moved = {
        "identities": ("coeff_a_row", "coeff_b_row", "log_moment_poly", "monomial_from_log_moment_polys"),
        "reduce": ("double_polylog_reduce",),
        "tables": ("TableRow", "errata_rows", "reproduce_tables", "table_rows"),
    }
    for module, names in moved.items():
        assert importlib.util.find_spec("mahlerzeta." + module) is None
        served = importlib.import_module("mahlerzeta.check." + module)
        for name in names:
            assert callable(getattr(served, name))
            assert name not in mahlerzeta.__all__ and not hasattr(mahlerzeta, name)
    assert not hasattr(mahlerzeta, "no_such_name")


def test_package_binds_no_import_helpers() -> None:
    # the lazy registration imports its machinery inside the function
    helpers = {"LazyLoader", "ModuleType", "annotations", "find_spec", "module_from_spec", "sys"}
    assert helpers.isdisjoint(dir(mahlerzeta))


def test_patches_on_unloaded_check_modules_survive_the_load() -> None:
    # a patch made before the oracle's code runs stays in place after it
    # runs: a plain attribute assignment (which does not load the module) and
    # pytest's monkeypatch (which reads the old value first, and so loads it)
    probe = (
        "import sys, types, pytest, mahlerzeta\n"
        "oracle = sys.modules['mahlerzeta.oracle']\n"
        "oracle.reduced_integral = len\n"
        "lazy = type(oracle) is not types.ModuleType\n"
        "pytest.MonkeyPatch().setattr(oracle, '_sobol_base2', len)\n"
        "print([lazy, oracle._sobol_base2 is len, mahlerzeta.reduced_integral is len, "
        "type(oracle) is types.ModuleType, callable(oracle.torus_qmc)])"
    )
    assert _run_fresh(probe) == "[True, True, True, True, True]"


def _imported_submodules(path: Path, module_level_only: bool) -> List[str]:
    """The ``mahlerzeta`` submodules that the module at ``path`` imports, as dotted names."""
    tree = ast.parse(path.read_text())
    nodes = tree.body if module_level_only else list(ast.walk(tree))
    imported = []
    for node in nodes:
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("mahlerzeta." + (node.module or "")) if node.level else node.module
            imported += [base.rstrip(".")]
            imported += [base.rstrip(".") + "." + alias.name for alias in node.names]
    prefix = "mahlerzeta."
    return [name[len(prefix):] for name in imported if name.startswith(prefix)]


def test_production_modules_import_no_check_module() -> None:
    # cli imports the verify registry inside cmd_verify only
    package = Path(mahlerzeta.__file__).resolve().parent
    for name in PRODUCTION + ("cli",):
        imported = _imported_submodules(package / (name + ".py"), name == "cli")
        assert [m for m in imported if m.split(".")[0] in ("check", "oracle")] == [], name
    # the walk resolves relative imports and sees imports inside functions
    assert "exact" in _imported_submodules(package / "formulas.py", False)
    assert "check.registry" in _imported_submodules(package / "cli.py", False)


def _production_calls(store: Path) -> List[List[str]]:
    """Cold and warm evals, as text and JSON, then the constants commands, on ``store``."""
    evaluate = ["eval", "--family", "ii", "--n", "3", "--digits", "20", "--store", str(store)]
    return [
        evaluate,
        evaluate,
        evaluate + ["--format", "json"],
        ["constants", "warm", "--digits", "12", "--store", str(store)],
        ["constants", "list", "--store", str(store)],
    ]


def test_production_runs_without_site_packages(tmp_path, capsys) -> None:
    # under python -S neither mpmath nor numpy can be imported, so each eval
    # and constants process must print and store exactly what the same calls
    # print and store in this process
    probe = "from importlib.util import find_spec as f; print([f('mpmath'), f('numpy')])"
    assert _python("-S", "-c", probe).stdout == "[None, None]\n"
    isolated, here = tmp_path / "isolated.txt", tmp_path / "here.txt"
    runs = [_python("-S", "-m", "mahlerzeta.cli", *argv) for argv in _production_calls(isolated)]
    expected = [run_cli(argv, capsys) for argv in _production_calls(here)]
    assert [
        (run.returncode, run.stdout.replace(str(isolated), str(here)), run.stderr) for run in runs
    ] == expected
    assert isolated.read_bytes() == here.read_bytes()


def _mpmath_sum(combination: ZetaCombination, digits: int, store: ConstantStore) -> str:
    """The value that eval printed when it summed in mpmath, from stored constants.

    The sum runs at ``digits + 10`` digits over the stored strings, as
    ``values.combination_value`` did on a warm store before eval summed in
    ``decimal``; kept here as the reference for eval's printed digits.
    """
    with mp.workdps(digits + 10):
        total = mp.mpf(0)
        for elem, coeff in combination.terms():
            value = 1 if elem.kind == "one" else mp.mpf(store.get(elem.kind, elem.arg, digits))
            term = mp.mpf(coeff.numerator) / coeff.denominator
            if elem.pi_power:
                term *= mp.pi**elem.pi_power
            total += term * value
        return mp.nstr(+total, digits)


_REFERENCE_DIGITS = list(range(1, 13)) + [30, 60, 100]
_MEMBERS = {"i": range(1, 21), "ii": range(0, 21), "iii": range(1, 21)}


@pytest.mark.parametrize("family", sorted(_MEMBERS))
def test_eval_prints_the_mpmath_sum(family, tmp_path, capsys) -> None:
    path = str(tmp_path / "store.txt")
    for n in _MEMBERS[family]:
        combination = mahler_measure(FamilySpec(Family.from_label(family), n)).combination
        # the first eval fills the store at 100 digits, which serves all the rest
        for digits in _REFERENCE_DIGITS[::-1]:
            argv = ["eval", "--family", family, "--n", str(n), "--digits", str(digits)]
            code, text, _ = run_cli(argv + ["--store", path], capsys)
            expected = _mpmath_sum(combination, digits, ConstantStore(path))
            assert code == 0
            assert text.splitlines()[2].split(" = ")[1] == "%s to %d digits" % (expected, digits)
            code, out, _ = run_cli(argv + ["--format", "json", "--store", path], capsys)
            assert code == 0
            assert json.loads(out)["numeric_value"] == expected
