"""Invariants of the pipeline: what its answer must not depend on."""

import random

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
