"""Command-line front end, run in-process through cli.main."""

import csv
import hashlib
import json

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


# sha256 of every file the full chain writes (see _run_chain), recorded
# before de-scaling, gap scanning, CSV writing and record reading were each
# merged into one path. Model sidecars are hashed with spec.predictors removed
# (see _digest), the one key added since.
CHAIN_GOLDEN = {
    "imp/coreg_log.txt": "2cb83b5f84dcc721279ebd910c06ab35d33f6fa99689635829a3b979d48d4b49",
    "imp/imputed.csv": "0d40be376576a1725a7383419910b4e93af107eb4ec103e96927c22393f25678",
    "model/loss.csv": "8b5a809597d2dce8444541b53b57f6836ddbd4afc8a9216b6fd7ed0873e41e35",
    "model/model.bin": "e35e64b30fda10feb813b3e062a878d829397ad051953185967570f0108ba4a5",
    "model/model.json": "16625d4812e9600f7ea60bb1f6a62d5855c3e0d228996f1a00055051f1118bd0",
    "pred/predictions.csv": "760292e26668dc95664e4b2c3db61275430ab9a940afe5188bd97ef26c2d5562",
    "prep/gap_report.txt": "5bce280eca1d8dbd203c819037a798c09901bfdd2f43ce38a7d08bc90a1cd96a",
    "prep/records.csv": "1f858d48f9d62a7a3965847224908625606ee8fb57024c18c798316d87c8f06d",
    "raw/cases.csv": "fa283e8141fcd6c61761450b3690c46ef40ac68856182289267f6d5f06f24436",
    "raw/climate.csv": "85095c19c3037ef33297106be4def9f64f7d51c081829c7cafdedad90938820c",
    "raw/larval.csv": "c3fd9e3f112454db179a6a102cd2719956db1e3f2d20e5ff0e7b77cce5bed627",
    "raw/larval_truth.csv": "8fc7467ffedf72671aa7be8a486b64aa803d868e791ff3b19c9417cb0fb90638",
    "raw/rain.csv": "0eda4e0cca9c3a4ec2edd8263e1893cdb53f9e2cea7906740ee874178e76130a",
    "sw/log.txt": "2da380f04c17175471aa3ea2e9b6df0ac1ca7cb375f23071a6ba587af43722ba",
    "sw/models/all-three-parameters_seed0.bin": "50207a29fee362b2baff5bb8248edc5a764a36168cf3cac4c9b34487699c859f",
    "sw/models/all-three-parameters_seed0.json": "accf0acedd16bb471faa51d99918c900068217083d3162db0d3bd6321aa976cf",
    "sw/models/rainfall_seed0.bin": "cbb9ebedad6633e021d10d69e63cd43fedb853496e887d00aabf212a6faec77b",
    "sw/models/rainfall_seed0.json": "876f01aca1195e4fb203c42048f6cc1530b6b8d96d4b714987de1f5ab99a2f82",
    "sw/models/relative-humidity_seed0.bin": "19df4b975af621495326bdc4f9a2c3ba3fde3a017472b115b5ffe34ab774ee0a",
    "sw/models/relative-humidity_seed0.json": "1c6bb9d06b829943935b767a051a9cd5e9bd2915017cc9796863dd4262ebde4f",
    "sw/models/temperature_seed0.bin": "53fadec0f1eca11c56533e8c9a358af2ce8bc20ce297b5a90e3563143df170f0",
    "sw/models/temperature_seed0.json": "b5c12107b0ec7383b5c54b6cfe0a3e00e6dfeb391abbae74d41d87813a6a11b0",
    "sw/reports/mse_summary.csv": "4c782bbc18ebf883c34ffa8d270b6be819e815a662c10e6f86e4d730e3b16884",
    "sw/reports/predictions_all-three-parameters_seed0.csv": "78cb5e2756cb0cb35770253c80a43712f19599e28bfc31fa0c40873c16168a88",
    "sw/reports/predictions_rainfall_seed0.csv": "951a903895faa5417aa289bfac5565bcf6b090a6866720ec43eff7f633402e46",
    "sw/reports/predictions_relative-humidity_seed0.csv": "8747aa69de8469c9342eccbfb9560b3c0bb2f9aff82a7f135334d792ce56e7c7",
    "sw/reports/predictions_temperature_seed0.csv": "716eba14f39adac75aee9dea5169299457489c82d76e87c87b9be854810385e7",
    "sw/tables/mse_summary.md": "06221b1d6c45cb7611f3af20ebaec3dce80e72cd5554fe40cc4c6f0ade60a92f",
    "sw/tables/predictions_all-three-parameters_seed0.md": "ab9745b0327cb2830044598fcbf1b1a8e6662259bb6b19ead68d33b6c5bfb2af",
    "sw/tables/predictions_rainfall_seed0.md": "ab9745b0327cb2830044598fcbf1b1a8e6662259bb6b19ead68d33b6c5bfb2af",
    "sw/tables/predictions_relative-humidity_seed0.md": "ab9745b0327cb2830044598fcbf1b1a8e6662259bb6b19ead68d33b6c5bfb2af",
    "sw/tables/predictions_temperature_seed0.md": "ab9745b0327cb2830044598fcbf1b1a8e6662259bb6b19ead68d33b6c5bfb2af",
}


def _digest(path):
    """sha256 of a file; a .json sidecar is hashed without spec.predictors."""
    if path.suffix != ".json":
        return _sha256(path)
    sidecar = json.loads(path.read_text(encoding="utf-8"))
    sidecar["spec"].pop("predictors", None)
    text = json.dumps(sidecar, indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """synth -> prepare -> impute -> train -> predict -> sweep -> report."""
    root = tmp_path_factory.mktemp("chain")
    raw, prep, imp = root / "raw", root / "prep", root / "imp"
    imputed = str(imp / "imputed.csv")
    for argv in (
        ["synth", "--out", str(raw), "--districts", "3", "--months", "24",
         "--seed", "0"],
        ["prepare", "--out", str(prep),
         "--climate", str(raw / "climate.csv"), "--rain", str(raw / "rain.csv"),
         "--larval", str(raw / "larval.csv"), "--cases", str(raw / "cases.csv")],
        ["impute", "--out", str(imp), "--records", str(prep / "records.csv"),
         "--max-iters", "5"],
        ["train", "--out", str(root / "model"), "--records", imputed,
         "--arch", "bidir_stacked", "--num-layers", "2", "--hidden", "4",
         "--epochs", "5"],
        ["predict", "--out", str(root / "pred"),
         "--model", str(root / "model" / "model.bin"), "--records", imputed],
        ["sweep", "--out", str(root / "sw"), "--records", imputed,
         "--kind", "predictor", "--seeds", "0", "--epochs", "3", "--hidden", "4"],
        ["report", "--run", str(root / "sw")],
    ):
        assert cli.main(argv) == 0, argv
    return root


def test_full_chain_matches_golden(chain):
    written = {
        path.relative_to(chain).as_posix(): _digest(path)
        for path in sorted(chain.rglob("*")) if path.is_file()
    }
    assert written == CHAIN_GOLDEN


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def test_predict_with_one_predictor_sweep_model(chain, tmp_path):
    model = chain / "sw" / "models" / "rainfall_seed0.bin"
    sidecar = json.loads(model.with_suffix(".json").read_text(encoding="utf-8"))
    assert sidecar["spec"]["predictors"] == ["rain_total"]
    assert cli.main(["predict", "--out", str(tmp_path), "--model", str(model),
                     "--records", str(chain / "imp" / "imputed.csv")]) == 0
    rows = _csv_rows(tmp_path / "predictions.csv")
    # 3 districts x (24 months - 2): one window per month with 2 months before
    assert len(rows) == 66
    # the sweep's test-split predictions came from the same model and scaler
    predicted = {(r["district"], r["year"], r["month"]): float(r["predicted"])
                 for r in rows}
    report = _csv_rows(chain / "sw" / "reports" / "predictions_rainfall_seed0.csv")
    assert report
    for r in report:
        key = (r["district"], r["year"], r["month"])
        assert predicted[key] == pytest.approx(float(r["predicted"]), rel=1e-9)


def test_impute_k1_exits_2(chain, tmp_path, capsys):
    code = cli.main(["impute", "--out", str(tmp_path),
                     "--records", str(chain / "prep" / "records.csv"), "--k", "1"])
    assert code == 2
    assert "co-training needs k >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["synth", "--out", "o", "--config", "x"],
    ["synth", "--out", "o", "--jobs", "2"],
    ["prepare", "--out", "o", "--climate", "c", "--rain", "r", "--larval", "l",
     "--cases", "k", "--seed", "1"],
    ["impute", "--out", "o", "--records", "r", "--config", "x"],
    ["predict", "--out", "o", "--model", "m", "--records", "r", "--seed", "1"],
    ["train", "--out", "o", "--records", "r", "--jobs", "2"],
    # prefixes of --seeds and --max-iters
    ["sweep", "--out", "o", "--records", "r", "--seed", "1"],
    ["impute", "--out", "o", "--records", "r", "--max", "5"],
    # read only by a timestep sweep
    ["sweep", "--out", "o", "--records", "r", "--kind", "architecture",
     "--grid", "2,3"],
    # values that sweep.json (written by the test) already sets
    ["sweep", "--out", "o", "--records", "r", "--sweep-config", "sweep.json",
     "--kind", "variant"],
    ["sweep", "--out", "o", "--records", "r", "--sweep-config", "sweep.json",
     "--seeds", "1"],
    ["sweep", "--out", "o", "--records", "r", "--sweep-config", "sweep.json",
     "--grid", "2,3"],
    ["sweep", "--out", "o", "--records", "r", "--sweep-config", "sweep.json",
     "--epochs", "5"],
])
def test_flag_the_command_does_not_read_is_rejected(argv, tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.json").write_text(json.dumps({
        "kind": "timestep", "seeds": [0], "base": {"epochs": 2},
        "grid": [{"label": "t = 2", "timesteps": 2}],
    }), encoding="utf-8")
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


@pytest.mark.parametrize("config,key", [
    ({"kind": "architecture", "base": {"hiden": 4}}, "hiden"),
    ({"kind": "predictor",
      "grid": [{"label": "Rainfall", "predictor": ["rain_total"]}]}, "predictor"),
])
def test_sweep_config_misspelt_key_exits_2(config, key, tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = cli.main(["sweep", "--out", str(tmp_path / "o"),
                     "--records", str(tmp_path / "records.csv"),
                     "--sweep-config", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown" in err and f"['{key}']" in err


def test_sweep_reads_grid_and_flags_the_config_leaves_open(chain, tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"base": {"hidden": 2}, "seeds": [0]}),
                    encoding="utf-8")
    out = tmp_path / "sw"
    assert cli.main(["sweep", "--out", str(out),
                     "--records", str(chain / "imp" / "imputed.csv"),
                     "--sweep-config", str(path), "--kind", "timestep",
                     "--grid", "2,4", "--epochs", "1"]) == 0
    labels = [r["label"] for r in _csv_rows(out / "reports" / "mse_summary.csv")]
    assert labels == ["t = 2", "t = 4"]
    sidecar = json.loads((out / "models" / "t-4_seed0.json").read_text(encoding="utf-8"))
    assert (sidecar["spec"]["hidden"], sidecar["spec"]["epochs"],
            sidecar["spec"]["timesteps"]) == (2, 1, 4)
