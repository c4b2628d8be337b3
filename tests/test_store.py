"""Tests for the persistent constant store."""

from __future__ import annotations

import os
import stat
import threading

import pytest

from mahlerzeta.store import STORE_ENV_VAR, ConstantStore


def test_round_trip(tmp_path) -> None:
    path = tmp_path / "constants.txt"
    store = ConstantStore(path)
    assert len(store) == 0
    store.put("zeta", 3, 30, "1.202056903159594285399738161511")
    store.put("l3_ii", 1, 16, "2.827116561355353848")
    store.save()
    reloaded = ConstantStore(path)
    assert len(reloaded) == 2
    assert reloaded.get("zeta", 3, 30) == "1.202056903159594285399738161511"
    assert reloaded.get("l3_ii", 1, 10) == "2.827116561355353848"
    assert reloaded.entries() == [
        ("l3_ii", 1, 16, "2.827116561355353848"),
        ("zeta", 3, 30, "1.202056903159594285399738161511"),
    ]


def test_get_requires_enough_digits(tmp_path) -> None:
    store = ConstantStore(tmp_path / "c.txt")
    store.put("zeta", 5, 20, "1.03692775514336993")
    assert store.get("zeta", 5, 20) is not None
    assert store.get("zeta", 5, 21) is None
    assert store.get("zeta", 7, 5) is None


def test_put_keeps_higher_precision(tmp_path) -> None:
    store = ConstantStore(tmp_path / "c.txt")
    store.put("zeta", 3, 30, "high-precision")
    store.put("zeta", 3, 10, "low-precision")
    assert store.get("zeta", 3, 10) == "high-precision"
    store.put("zeta", 3, 40, "higher")
    assert store.get("zeta", 3, 40) == "higher"


def test_rejects_foreign_format(tmp_path) -> None:
    path = tmp_path / "c.txt"
    path.write_text("some-other-format 7\nzeta 3 10 1.2\n")
    with pytest.raises(ValueError):
        ConstantStore(path)
    path.write_text("mahlerzeta-constants 1\nzeta 3 10\n")
    with pytest.raises(ValueError):
        ConstantStore(path)


@pytest.mark.parametrize(
    "line",
    [
        "lchi4 2 50 inf",
        "lchi4 2 50 nan",
        "lchi4 2 50 abc",
        "lchi4 2 50 1.5e",
        "lchi4 x 50 0.9159655941772190150546",
        "lchi4 2.0 50 0.9159655941772190150546",
        "lchi4 2 0 0.9",
        "lchi4 2 -3 0.9",
        "lchi4 2 1_0 0.9",
    ],
)
def test_rejects_a_line_that_is_not_an_entry(tmp_path, line) -> None:
    path = tmp_path / "c.txt"
    path.write_text("mahlerzeta-constants 1\n%s\n" % line)
    with pytest.raises(ValueError, match="malformed constant-store line: %r" % line):
        ConstantStore(path)


def test_accepts_decimal_literals_in_every_form(tmp_path) -> None:
    path = tmp_path / "c.txt"
    path.write_text(
        "mahlerzeta-constants 1\n"
        "l3_ii 19 20 1.5258789062500000000e-5\n"
        "l3_ii 21 20 3.8146972656250000000e-6\n"
        "zeta 3 05 1.2021\n"
        "lchi4 2 7 -0.9159656\n"
        "log2 +0 3 .693\n"
        "zeta 5 3 1.04E+0\n"
    )
    assert [entry[:3] for entry in ConstantStore(path).entries()] == [
        ("l3_ii", 19, 20),
        ("l3_ii", 21, 20),
        ("lchi4", 2, 7),
        ("log2", 0, 3),
        ("zeta", 3, 5),
        ("zeta", 5, 3),
    ]


def test_env_var_overrides_default_path(tmp_path, monkeypatch) -> None:
    target = tmp_path / "via-env.txt"
    monkeypatch.setenv(STORE_ENV_VAR, str(target))
    assert ConstantStore.default_path() == target
    store = ConstantStore()
    store.put("log2", 0, 10, "0.6931471806")
    store.save()
    assert target.exists()
    monkeypatch.delenv(STORE_ENV_VAR)
    assert ConstantStore.default_path().name == "constants.txt"


def test_concurrent_saves_do_not_crash(tmp_path) -> None:
    path = tmp_path / "shared.txt"
    barrier = threading.Barrier(4)
    errors = []

    def writer(index: int) -> None:
        store = ConstantStore(path)
        barrier.wait()
        try:
            for arg in range(40):
                store.put("zeta", 100 * index + arg, 5, "1.0000")
                store.save()
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert len(ConstantStore(path)) >= 40
    assert [p.name for p in tmp_path.iterdir()] == ["shared.txt"]


def test_save_gives_the_umask_mode(tmp_path) -> None:
    store = ConstantStore(tmp_path / "c.txt")
    store.put("log2", 0, 10, "0.6931471806")
    previous = os.umask(0o027)
    try:
        store.save()
    finally:
        os.umask(previous)
    assert stat.S_IMODE((tmp_path / "c.txt").stat().st_mode) == 0o640
