"""Invariants of the pipeline: what its answer must not depend on."""

import random
import re

import pytest

from denguecast import cli

RAW = ("climate", "rain", "larval", "cases")


@pytest.fixture(scope="module")
def raw(tmp_path_factory):
    out = tmp_path_factory.mktemp("raw")
    assert cli.main(["synth", "--out", str(out), "--districts", "3", "--seed", "0"]) == 0
    return out


def _prepare(raw_dir, out):
    assert cli.main([
        "prepare", "--out", str(out),
        *(arg for name in RAW for arg in (f"--{name}", str(raw_dir / f"{name}.csv"))),
    ]) == 0
    return (out / "records.csv").read_bytes()


@pytest.mark.parametrize("order", ["shuffled", "reversed"])
def test_row_order_of_the_raw_files_leaves_records_unchanged(order, raw, tmp_path):
    # the climate means sum a month's days, and rain totals its weeks: in
    # file order, another listing of the same rows changes their last bits
    listed = tmp_path / "listed"
    listed.mkdir()
    rng = random.Random(0)
    for name in RAW:
        header, *rows = (raw / f"{name}.csv").read_text(encoding="utf-8").splitlines()
        if order == "shuffled":
            rng.shuffle(rows)
        else:
            rows.reverse()
        (listed / f"{name}.csv").write_text("\n".join([header, *rows]) + "\n",
                                            encoding="utf-8")
    assert _prepare(listed, tmp_path / "b") == _prepare(raw, tmp_path / "a")


ARTIFACTS = ("prep/records.csv", "prep/gap_report.txt", "imp/imputed.csv",
             "imp/coreg_log.txt", "model/loss.csv", "model/model.bin",
             "model/model.json", "pred/predictions.csv")


def _chain(raw_dir, out):
    """prepare, impute, train and predict on raw_dir; the bytes of each of the
    ARTIFACTS."""
    _prepare(raw_dir, out / "prep")
    records = str(out / "prep" / "records.csv")
    assert cli.main(["impute", "--out", str(out / "imp"), "--records", records,
                     "--max-iters", "20"]) == 0
    imputed = str(out / "imp" / "imputed.csv")
    assert cli.main(["train", "--out", str(out / "model"), "--records", imputed,
                     "--arch", "plain", "--num-layers", "1", "--hidden", "8",
                     "--epochs", "5"]) == 0
    assert cli.main(["predict", "--out", str(out / "pred"), "--records", imputed,
                     "--model", str(out / "model" / "model.bin")]) == 0
    return {name: (out / name).read_bytes() for name in ARTIFACTS}


def test_an_order_preserving_district_rename_changes_nothing(tmp_path):
    # D01 < D02 < D03 < D04 and X01 < X02 < X03 < X04: every sort of the
    # districts lists them as before, so only the names may differ
    raw_dir = tmp_path / "raw"
    assert cli.main(["synth", "--out", str(raw_dir), "--districts", "4",
                     "--months", "36", "--seed", "0"]) == 0
    renamed = tmp_path / "renamed"
    renamed.mkdir()
    for name in RAW:
        header, *rows = (raw_dir / f"{name}.csv").read_text(encoding="utf-8").splitlines()
        assert all(row.startswith("D0") for row in rows)
        (renamed / f"{name}.csv").write_text(
            "\n".join([header, *("X" + row[1:] for row in rows)]) + "\n", encoding="utf-8")
    expected = _chain(raw_dir, tmp_path / "a")
    got = _chain(renamed, tmp_path / "b")
    assert b"D0" in expected["imp/imputed.csv"]
    for name in ARTIFACTS:
        if not name.endswith(".bin"):  # the snapshot holds no district name
            got[name] = re.sub(rb"\bX(0[1-4])\b", rb"D\1", got[name])
        assert got[name] == expected[name], name
