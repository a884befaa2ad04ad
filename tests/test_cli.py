"""Command-line front end, run in-process through cli.main."""

import hashlib

import pytest

from denguecast import cli

# sha256 of impute's artifacts after `synth --districts 8 --seed 0`, `prepare`
# and `impute --max-iters 20`, recorded with the COREG scan that re-ran every
# kNN query from scratch. The incremental scan must not change a byte.
IMPUTE_GOLDEN = {
    "imputed.csv": "9e1f0af6032b221c96bcb6bb536c9cee3f26856def498b7f54ab0d1bdd0b4070",
    "coreg_log.txt": "399f01fcc59a98d929bc1c6f6a065ec714da9579f2dc554872b3463212166d1b",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_impute_round_trip_matches_golden(tmp_path):
    raw, prep, imp = tmp_path / "raw", tmp_path / "prep", tmp_path / "imp"
    assert cli.main(["synth", "--out", str(raw), "--districts", "8",
                     "--seed", "0"]) == 0
    assert cli.main([
        "prepare", "--out", str(prep),
        "--climate", str(raw / "climate.csv"), "--rain", str(raw / "rain.csv"),
        "--larval", str(raw / "larval.csv"), "--cases", str(raw / "cases.csv"),
    ]) == 0
    assert cli.main(["impute", "--out", str(imp),
                     "--records", str(prep / "records.csv"),
                     "--max-iters", "20"]) == 0
    assert {name: _sha256(imp / name) for name in IMPUTE_GOLDEN} == IMPUTE_GOLDEN


@pytest.mark.parametrize("argv", [
    ["synth", "--out", "o", "--config", "x"],
    ["synth", "--out", "o", "--jobs", "2"],
    ["prepare", "--out", "o", "--climate", "c", "--rain", "r", "--larval", "l",
     "--cases", "k", "--seed", "1"],
    ["impute", "--out", "o", "--records", "r", "--config", "x"],
    ["predict", "--out", "o", "--model", "m", "--records", "r", "--seed", "1"],
    ["train", "--out", "o", "--records", "r", "--jobs", "2"],
])
def test_flag_the_command_does_not_read_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_train_unreadable_config_exits_2(tmp_path, capsys):
    code = cli.main(["train", "--out", str(tmp_path / "o"),
                     "--records", str(tmp_path / "records.csv"),
                     "--config", str(tmp_path / "missing.json")])
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err
