"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
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
            "--tolerance",
            "1e-7",
            "--seed",
            "42",
        ],
        capsys,
    )
    assert code == 0
    assert "pass oracle/reduced-vs-closed-family-i" in out
    assert "pass oracle/torus-qmc-family-i" in out


def test_verify_failure_emits_machine_readable_list(capsys) -> None:
    code, out, _ = run_cli(
        [
            "verify",
            "--suite",
            "oracle",
            "--max-n",
            "2",
            "--tolerance",
            "1e-18",
            "--seed",
            "42",
        ],
        capsys,
    )
    assert code == 1
    assert "FAIL oracle/reduced-vs-closed-family-i" in out
    payload = json.loads(out.splitlines()[-1])
    assert "oracle/reduced-vs-closed-family-i" in payload["failures"]


def test_verify_rejects_bad_parameters(capsys) -> None:
    # a nan tolerance would pass every reduced check, since abs(x) > nan is false
    for option, value in (
        ("--max-n", "0"),
        ("--tolerance", "-1"),
        ("--tolerance", "nan"),
        ("--tolerance", "inf"),
        ("--seed", "-1"),
    ):
        code, out, err = run_cli(["verify", option, value], capsys)
        assert (code, out) == (2, ""), (option, value)
        assert err.startswith("error: "), (option, value)


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
    monkeypatch.setattr(mahlerzeta.cli, "combination_value", _fail_numerically)
    store = str(tmp_path / "store.txt")
    code, out, err = run_cli(
        ["eval", "--family", "ii", "--n", "1", "--digits", "60", "--store", store], capsys
    )
    assert code == 3
    assert out == ""
    assert err == "error: series did not converge\n"


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
    monkeypatch.setattr(mahlerzeta.cli, "combination_value", _fail_numerically)
    store = str(tmp_path / "store.txt")
    code, out, err = run_cli(["constants", "warm", "--digits", "60", "--store", store], capsys)
    assert code == 3
    assert out == ""
    assert err == "error: series did not converge\n"


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


@pytest.mark.parametrize("probe", ["package", "cli", "eval-warm", "eval-cold"])
def test_eval_path_does_not_load_numpy(probe, tmp_path) -> None:
    # numpy serves only the numerical oracle; the oracle module itself stays
    # imported, because tracers look it up in sys.modules.
    store = tmp_path / "store.txt"
    argv = ["eval", "--family", "ii", "--n", "1", "--digits", "12", "--store", str(store)]
    if probe == "eval-warm":
        assert main(argv) == 0
        warm = store.read_text()
    setup = {"package": "import mahlerzeta", "cli": "import mahlerzeta.cli"}.get(
        probe, "import mahlerzeta.cli; code = mahlerzeta.cli.main(%r)" % (argv,)
    )
    report = (
        "import json, sys; print(json.dumps({"
        "'code': globals().get('code', 0), "
        "'oracle': 'mahlerzeta.oracle' in sys.modules, "
        "'loaded': sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))}))"
    )
    src = str(Path(mahlerzeta.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", setup + "\n" + report],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(result.stdout.splitlines()[-1]) == {
        "code": 0,
        "oracle": True,
        "loaded": [],
    }
    if probe == "eval-warm":
        assert store.read_text() == warm
    elif probe == "eval-cold":
        assert "l3_ii 1 " in store.read_text()
