"""Command-line front end, run in-process through cli.main."""

import argparse
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from denguecast import cli, lstm
from denguecast.specs import CoregCfg, ModelSpec, SweepSpec, SynthSpec

# sha256 of impute's artifacts after `synth --districts 8 --seed 0`, `prepare`
# and `impute --max-iters 20`, recorded with the COREG scan that re-ran every
# kNN query from scratch. The incremental scan must not change a byte.
IMPUTE_GOLDEN = {
    "imputed.csv": "9e1f0af6032b221c96bcb6bb536c9cee3f26856def498b7f54ab0d1bdd0b4070",
    "coreg_log.txt": "399f01fcc59a98d929bc1c6f6a065ec714da9579f2dc554872b3463212166d1b",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of impute's artifacts on the same records at its default 100
# iterations, recorded while COREG still scored one candidate at a time: the
# run stops at iteration 78 on two `none` picks and fills 209 of 672 cells
IMPUTE_DEFAULT_ITERS_GOLDEN = {
    "imputed.csv": "7107b9f2a7fbd881df369d243258320e623c0618ec4bcc1b7c9d3445e578aae1",
    "coreg_log.txt": "759ee963f1174248b77207ae7347b3874e094cc9a14f8bdb1adcf0655a6dd5b4",
}


def _impute_8_districts(tmp_path, *flags):
    """impute's output directory after `synth --districts 8 --seed 0`,
    `prepare` and `impute` with flags."""
    raw, prep, imp = tmp_path / "raw", tmp_path / "prep", tmp_path / "imp"
    assert cli.main(["synth", "--out", str(raw), "--districts", "8",
                     "--seed", "0"]) == 0
    assert cli.main([
        "prepare", "--out", str(prep),
        "--climate", str(raw / "climate.csv"), "--rain", str(raw / "rain.csv"),
        "--larval", str(raw / "larval.csv"), "--cases", str(raw / "cases.csv"),
    ]) == 0
    assert cli.main(["impute", "--out", str(imp),
                     "--records", str(prep / "records.csv"), *flags]) == 0
    return imp


def test_impute_round_trip_matches_golden(tmp_path):
    imp = _impute_8_districts(tmp_path, "--max-iters", "20")
    assert {name: _sha256(imp / name) for name in IMPUTE_GOLDEN} == IMPUTE_GOLDEN


def test_impute_at_its_default_iterations_matches_golden(tmp_path):
    imp = _impute_8_districts(tmp_path)
    assert ({name: _sha256(imp / name) for name in IMPUTE_DEFAULT_ITERS_GOLDEN}
            == IMPUTE_DEFAULT_ITERS_GOLDEN)
    log = (imp / "coreg_log.txt").read_text(encoding="utf-8").splitlines()
    assert log[-1] == "iter=78 r1=none r2=none sizes=540/540"


# sha256 of the daily climate table and the records prepared from it at the
# default size (26 districts x 84 months, the benchmark's input), recorded
# while both sides still built one object per day; and of impute's artifacts
# at --max-iters 12 on those records (666 cells to fill, the benchmark's
# impute stage), recorded while every pool scan still re-read the whole
# training set for each candidate. The other four synth files were pinned
# while synth_generate still drew each random number in its own call, one
# month at a time.
DEFAULT_GOLDEN = {
    "raw/cases.csv": "20dc8a659dfbda3fda616018155fff264bad5a2c111b9406d6247683f7e80c21",
    "raw/climate.csv": "da64fe427f80a694511b289328b48954d5df600946de54e13815c82c82236705",
    "raw/larval.csv": "930b41f9f175c1a82d26211224e901ff937c370d968a5931b7d98eb9939ae676",
    "raw/larval_truth.csv": "eef2645337f6b6a29fe62d176b80bba0afbc6ad5f21098863cafa40ac634085d",
    "raw/rain.csv": "51253be7e0aa61eb29ca2120262e839895e4ae8213f919bbf121e7627ac7468f",
    "prep/records.csv": "0552590917d278686ceb6879357944113cb3000f344df663a152a354ee463277",
    "imp/imputed.csv": "3d020142c8b1d31eed06e5c8229357e6271684f444d26bbe211b51b96adf6398",
    "imp/coreg_log.txt": "438c85fa1557f59583eaf450e4367a376c9318aae67e7beaa854d12d8263967f",
}


def test_default_size_synth_prepare_matches_golden(tmp_path):
    raw, prep, imp = tmp_path / "raw", tmp_path / "prep", tmp_path / "imp"
    assert cli.main(["synth", "--out", str(raw), "--seed", "0"]) == 0
    assert cli.main([
        "prepare", "--out", str(prep),
        "--climate", str(raw / "climate.csv"), "--rain", str(raw / "rain.csv"),
        "--larval", str(raw / "larval.csv"), "--cases", str(raw / "cases.csv"),
    ]) == 0
    assert cli.main(["impute", "--out", str(imp),
                     "--records", str(prep / "records.csv"),
                     "--max-iters", "12"]) == 0
    assert {name: _sha256(tmp_path / name) for name in DEFAULT_GOLDEN} == DEFAULT_GOLDEN


# sha256 of climate.csv at other noise levels, recorded with the same code as
# DEFAULT_GOLDEN: the daily draws must scale with --noise, down to 0
@pytest.mark.parametrize("args,digest", [
    (["--noise", "0"], "e23aa58e65d8ab212cf73f03c52babd6c77178586e4ecb40413ae40d14bafe58"),
    (["--noise", "2.5", "--seed", "5"],
     "c68fee66c5bbc3c5d3a919cdc09bc448c22fb9632cdbd9c9c8c3ac00961153cc"),
])
def test_synth_climate_noise_matches_golden(args, digest, tmp_path):
    assert cli.main(["synth", "--out", str(tmp_path), "--districts", "2",
                     "--months", "3", *args]) == 0
    assert _sha256(tmp_path / "climate.csv") == digest


# sha256 of every synth file at a size, beta, missing rate and seed that no
# other golden covers, recorded with the same code as the synth files of
# DEFAULT_GOLDEN: beta 0 leaves the larval index out of the case rates, and
# missing rate 0.8 masks most larval surveys
SYNTH_GOLDEN = {
    "cases.csv": "e9cc2b5e783b7236253cde5361affed5f297d9833dc8579fb70c19784f8beda7",
    "climate.csv": "1a9a4b8703e9e20ecc9a4254cc1099a700354ac87f2829dd47c207e9d276f606",
    "larval.csv": "5e0ed3f378633e3466616b430187b7037dcd4cbda3a390ae2693610553f09c3b",
    "larval_truth.csv": "8177bc5b530a80a1e2b1e5bfc7fe1dbb7bd61c7b753f4a0055c6c6a796e98cd9",
    "rain.csv": "33e590dd24554b34aac78155be6625d781e99b2324570656c9a57a01c96b74db",
}


def test_synth_masked_without_larval_effect_matches_golden(tmp_path):
    assert cli.main(["synth", "--out", str(tmp_path), "--districts", "5",
                     "--months", "30", "--beta", "0", "--missing-rate", "0.8",
                     "--seed", "7"]) == 0
    assert {name: _sha256(tmp_path / name) for name in SYNTH_GOLDEN} == SYNTH_GOLDEN


# sha256 of every file the full chain writes (see chain), recorded before
# de-scaling, gap scanning, CSV writing and record reading were each merged
# into one path. The five .json model sidecars were re-pinned when they gained
# spec.predictors and the "train" key (TrainCfg); without those two keys each
# is byte-identical to the sidecar recorded here first. The four
# sw/reports/predictions_*.csv were re-pinned when their actual column became
# each record's count as records.csv holds it (35, where it held 35.0, the
# count sent through the scaler and back); their other columns are unchanged.
# The five sidecars were re-pinned again when they dropped input_dim and
# loss_history: each is the earlier one without those two keys. The four
# sw/models/*_loss.csv hold what those loss_history keys held, written as
# model/loss.csv is. The five sidecars were re-pinned once more when the
# "train" key (TrainCfg) folded into ModelSpec: each is the earlier one with
# its "train" object merged into "spec", after predictors.
CHAIN_GOLDEN = {
    "imp/coreg_log.txt": "2cb83b5f84dcc721279ebd910c06ab35d33f6fa99689635829a3b979d48d4b49",
    "imp/imputed.csv": "0d40be376576a1725a7383419910b4e93af107eb4ec103e96927c22393f25678",
    "model/loss.csv": "8b5a809597d2dce8444541b53b57f6836ddbd4afc8a9216b6fd7ed0873e41e35",
    "model/model.bin": "e35e64b30fda10feb813b3e062a878d829397ad051953185967570f0108ba4a5",
    "model/model.json": "7c1d629d980e8d9c6a05d70b9e06a82c2349feb32be6c1741b2855299ae69e15",
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
    "sw/models/all-three-parameters_seed0.json": "ab53410d030d7c5ca4d38127367cf29985d8d71c0295ae859239bc0306504efc",
    "sw/models/all-three-parameters_seed0_loss.csv": "b97fb2b11e4bff7b00d41cec89923f67b29363298dcf29e64bacc322051ef2ae",
    "sw/models/rainfall_seed0.bin": "cbb9ebedad6633e021d10d69e63cd43fedb853496e887d00aabf212a6faec77b",
    "sw/models/rainfall_seed0.json": "6a03414371c09ed3e94aba3dd70dfd65f546a3421c510c4cc82d9bda98bfbf4d",
    "sw/models/rainfall_seed0_loss.csv": "5baeed88271bc33a04e456418db8365d4669b5b90b2cbf0d12aa6773495d27ee",
    "sw/models/relative-humidity_seed0.bin": "19df4b975af621495326bdc4f9a2c3ba3fde3a017472b115b5ffe34ab774ee0a",
    "sw/models/relative-humidity_seed0.json": "158b629963fec1fba7bb8aa30025bb124bc03df44b5255d3a9037cb8b93f4242",
    "sw/models/relative-humidity_seed0_loss.csv": "9bbb12e50fac73b1c68f2119273d7bb5b9d8027552d9783d5d58b038ae631c92",
    "sw/models/temperature_seed0.bin": "53fadec0f1eca11c56533e8c9a358af2ce8bc20ce297b5a90e3563143df170f0",
    "sw/models/temperature_seed0.json": "32b5bd96cf885db85e418d1f44d6639d4917c32a66146acca2bc0929d8540449",
    "sw/models/temperature_seed0_loss.csv": "afad5b08fc02a44303247c67406250b6b48a2cf28331b8e2ad3582e687128583",
    "sw/reports/mse_summary.csv": "4c782bbc18ebf883c34ffa8d270b6be819e815a662c10e6f86e4d730e3b16884",
    "sw/reports/predictions_all-three-parameters_seed0.csv": "0522f116a6a5afe6a226f12b84a409b37adb5fcec8d1d8612e9eac206d66f9b8",
    "sw/reports/predictions_rainfall_seed0.csv": "821548b18cf62cb166fa2fb21fcdee1ac0020bf5276415aabf073d3fa564c374",
    "sw/reports/predictions_relative-humidity_seed0.csv": "af2a6db26f1d7b2f8b3d7f84a734c6ad30abf0c305450300ac42fe5e02552864",
    "sw/reports/predictions_temperature_seed0.csv": "6752a8048bdf4f3a479998ed90c30ee7388e61f26d215b750348ec7a81a2fc70",
    "sw/tables/mse_summary.md": "06221b1d6c45cb7611f3af20ebaec3dce80e72cd5554fe40cc4c6f0ade60a92f",
    "sw/tables/predictions_all-three-parameters_seed0.md": "ab9745b0327cb2830044598fcbf1b1a8e6662259bb6b19ead68d33b6c5bfb2af",
    "sw/tables/predictions_rainfall_seed0.md": "ab9745b0327cb2830044598fcbf1b1a8e6662259bb6b19ead68d33b6c5bfb2af",
    "sw/tables/predictions_relative-humidity_seed0.md": "ab9745b0327cb2830044598fcbf1b1a8e6662259bb6b19ead68d33b6c5bfb2af",
    "sw/tables/predictions_temperature_seed0.md": "ab9745b0327cb2830044598fcbf1b1a8e6662259bb6b19ead68d33b6c5bfb2af",
}


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
        path.relative_to(chain).as_posix(): _sha256(path)
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


@pytest.mark.parametrize("argv,named", [
    (["--districts", "0"], "districts must be >= 1, got 0"),
    (["--months", "2"], "months must be >= 3, got 2"),
    (["--beta", "-1"], "beta must be >= 0, got -1.0"),
    (["--noise", "-1"], "noise must be >= 0, got -1.0"),
    (["--missing-rate", "1"], "missing_rate must lie in [0, 1), got 1.0"),
], ids=["districts-0", "months-2", "beta-negative", "noise-negative", "missing-rate-1"])
def test_synth_spec_rule_exits_2(argv, named, tmp_path, capsys):
    assert cli.main(["synth", "--out", str(tmp_path / "o"), *argv]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
    # a value that train.json (written by the test) already sets
    ["train", "--out", "o", "--records", "r", "--config", "train.json",
     "--hidden", "4"],
])
def test_flag_the_command_does_not_read_is_rejected(argv, tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.json").write_text(json.dumps({
        "kind": "timestep", "seeds": [0], "base": {"epochs": 2},
        "grid": [{"label": "t = 2", "timesteps": 2}],
    }), encoding="utf-8")
    (tmp_path / "train.json").write_text('{"hidden": 2}', encoding="utf-8")
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


def test_sweep_writes_prediction_csvs_and_report_their_tables(chain, tmp_path):
    out = tmp_path / "sw"
    assert cli.main(["sweep", "--out", str(out),
                     "--records", str(chain / "imp" / "imputed.csv"),
                     "--kind", "timestep", "--grid", "3", "--seeds", "0",
                     "--arch", "plain", "--num-layers", "1", "--hidden", "2",
                     "--epochs", "1"]) == 0

    def written():
        return sorted(p.relative_to(out).as_posix() for p in out.rglob("*")
                      if p.is_file())

    swept = ["log.txt", "models/t-3_seed0.bin", "models/t-3_seed0.json",
             "models/t-3_seed0_loss.csv", "reports/mse_summary.csv",
             "reports/predictions_t-3_seed0.csv", "tables/mse_summary.md"]
    assert written() == swept
    assert cli.main(["report", "--run", str(out)]) == 0
    assert written() == sorted(swept + ["tables/predictions_t-3_seed0.md"])


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


@pytest.mark.parametrize("config,named", [
    ({"hidden": "4"}, "hidden must be int"),
    ({"hidden": True}, "hidden must be int"),
    ({"epochs": 1.5}, "epochs must be int"),
    # a broken rule names the file, as a wrong type does
    ({"lr": -1}, "{path}: lr must be > 0"),
    ({"hidden": 0}, "{path}: hidden width must be >= 1, got 0"),
    ({"epochs": 0}, "{path}: epochs must be >= 1, got 0"),
    ({"validation_fraction": 1.0},
     "{path}: validation_fraction must lie in [0, 1), got 1.0"),
    ([1, 2], "must hold a JSON object"),
])
def test_train_config_of_wrong_type_exits_2(config, named, tmp_path, capsys):
    path = tmp_path / "train.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = cli.main(["train", "--out", str(tmp_path / "o"),
                     "--records", str(tmp_path / "records.csv"),
                     "--config", str(path)])
    assert code == 2
    assert named.format(path=path) in capsys.readouterr().err


@pytest.mark.parametrize("config,named", [
    ({"kind": "variant", "seeds": "0,1"}, "seeds must be a list of int"),
    ({"kind": "variant", "seeds": [0.5]}, "seeds must be a list of int"),
    # a rule of the sweep itself names the file, as a base or cell rule does
    ({"kind": "variant", "seeds": [0, 0]}, "{path}: sweep seeds repeat: [0, 0]"),
    ({"kind": "variant", "seeds": []}, "{path}: sweep needs at least one seed"),
    ({"kind": "timestep", "grid": []}, "{path}: sweep grid must be non-empty"),
    ({"kind": "timestep", "grid": [{"label": "t3", "timesteps": "3"}]},
     "{path}: grid cell 't3': timesteps must be int"),
    ({"kind": "timestep", "grid": [{"label": "b", "timesteps": 1}]},
     "{path}: grid cell 'b': timesteps must be >= 2, got 1"),
    ({"kind": "timestep", "grid": [{"label": 5, "timesteps": 3}]},
     "{path}: grid cell label must be a str, got 5"),
    # both labels would write models/a_seed0.*
    ({"kind": "timestep", "grid": [{"label": "a", "timesteps": 2},
                                   {"label": "A", "timesteps": 3}]}, "'a' and 'A'"),
    # each run's seed comes from seeds, so a base or cell seed would be ignored
    ({"kind": "variant", "base": {"seed": 7}},
     "{path}: sweep base: unknown keys ['seed']"),
    ({"kind": "variant", "grid": [{"label": "a", "variant": "I", "seed": 7}]},
     "{path}: grid cell 'a': unknown keys ['seed']"),
    ({"kind": "daily"}, "{path}: sweep kind must be one of"),
    ({"kind": "daily", "grid": [{"label": "a", "timesteps": 2}]},
     "{path}: sweep kind must be one of"),
    ({"kind": "variant", "base": {"hidden": "x"}},
     "{path}: sweep base: hidden must be int"),
    # the cells' values would win over base's, so base's is read by no run
    ({"kind": "variant", "base": {"hidden": 4},
      "grid": [{"label": "a", "hidden": 2}, {"label": "b", "hidden": 8}]},
     "{path}: sweep base: every grid cell sets hidden"),
    ({"kind": "predictor", "base": {"predictors": ["temp_mean"]}},
     "{path}: sweep base: every grid cell sets predictors"),
    # its files would be named models/_seed0.*
    ({"kind": "timestep", "grid": [{"label": "???", "timesteps": 3}]},
     "grid cell label '???' has no letter or digit"),
])
def test_sweep_config_of_wrong_type_exits_2(config, named, tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = cli.main(["sweep", "--out", str(tmp_path / "o"),
                     "--records", str(tmp_path / "records.csv"),
                     "--sweep-config", str(path)])
    assert code == 2
    assert named.format(path=path) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags,field", [
    (["--kind", "variant", "--variant", "I"], "variant"),
    (["--kind", "timestep", "--timesteps", "5"], "timesteps"),
    (["--kind", "timestep", "--grid", "2,3", "--timesteps", "5"], "timesteps"),
    # checked before the base spec, which would refuse bidir with 4 layers
    (["--kind", "architecture", "--arch", "bidir"], "arch"),
], ids=["variant", "timestep", "timestep-grid", "architecture"])
def test_sweep_base_flag_every_cell_sets_exits_2(flags, field, tmp_path, capsys):
    code = cli.main(["sweep", "--out", str(tmp_path / "o"),
                     "--records", str(tmp_path / "records.csv"), *flags])
    assert code == 2
    assert (f"error: sweep base: every grid cell sets {field}, so the base value "
            "would be ignored") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_cell_without_windows_exits_2_before_training(jobs, chain, tmp_path,
                                                            capsys):
    # 24 months hold no 30-month window; the cell is named, and fails the
    # sweep before a worker trains any other cell
    out = tmp_path / "sw"
    code = cli.main(["sweep", "--out", str(out),
                     "--records", str(chain / "imp" / "imputed.csv"),
                     "--kind", "timestep", "--grid", "30,2,3,4", "--seeds", "0,1",
                     "--epochs", "300", "--jobs", jobs])
    assert code == 2
    assert ("error: grid cell 't = 30': no district has 30 consecutive months"
            in capsys.readouterr().err)
    assert not (out / "models").exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_jobs_below_1_exits_2(jobs, tmp_path, capsys):
    code = cli.main(["sweep", "--out", str(tmp_path / "o"),
                     "--records", str(tmp_path / "records.csv"),
                     "--kind", "variant", "--jobs", jobs])
    assert code == 2
    assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err


def _copy_model(chain, tmp_path, edit):
    """The chain's model.bin and its sidecar after edit(sidecar), in tmp_path."""
    src = chain / "model"
    (tmp_path / "model.bin").write_bytes((src / "model.bin").read_bytes())
    sidecar = json.loads((src / "model.json").read_text(encoding="utf-8"))
    edit(sidecar)
    (tmp_path / "model.json").write_text(json.dumps(sidecar), encoding="utf-8")
    return tmp_path / "model.bin"


@pytest.mark.parametrize("edit,named", [
    (lambda s: s["spec"].update(hidden="4"), "spec: hidden must be int"),
    (lambda s: s["spec"].update(hiden=4), "spec: unknown keys ['hiden']"),
    # save_model writes every spec field, so a missing one has no default to
    # fall back to: timesteps 3 would window the records the model was not
    # trained on
    (lambda s: s["spec"].pop("timesteps"),
     "{dir}/model.json spec: missing keys ['timesteps']"),
    (lambda s: s["spec"].update(dropout=1.5),
     "{dir}/model.json spec: dropout must lie in [0, 1), got 1.5"),
    (lambda s: s.update(scaler=None), "scaler must be dict, got None"),
    (lambda s: s["scaler"].update(temp_mean=[1]),
     "scaler temp_mean must be a [lo, hi] pair"),
    (lambda s: s["scaler"].update(temp_mean=["20", "30"]),
     "scaler temp_mean must be a [lo, hi] pair"),
    (lambda s: s["scaler"].update(temp_mean=[30.0, 20.0]),
     "scaler temp_mean must be a [lo, hi] pair of finite numbers with lo <= hi"),
    (lambda s: s["scaler"].update(cases=[0.0, float("inf")]),
     "scaler cases must be a [lo, hi] pair of finite numbers"),
    (lambda s: s["scaler"].update(rh_mean=[float("nan"), 1.0]),
     "scaler rh_mean must be a [lo, hi] pair of finite numbers"),
    # the model reads temp_mean, so raw temperatures must not reach it unscaled
    (lambda s: s["scaler"].pop("temp_mean"), "missing ['temp_mean']"),
    (lambda s: s["scaler"].update(wind=[0.0, 1.0]), "unknown ['wind']"),
    # the spec fixes the input width, so a sidecar does not store it
    (lambda s: s.update(input_dim=5), "{dir}/model.json: unknown keys ['input_dim']"),
    # a spec that no longer fits the snapshot names both files and the shapes
    (lambda s: s["spec"].update(hidden=3),
     "{dir}/model.bin: snapshot shape mismatch for layer0.fwd.W_i: the spec in "
     "{dir}/model.json implies (3, 5), the snapshot stores (4, 5)"),
    (lambda s: s["spec"].update(num_layers=3),
     "{dir}/model.bin: snapshot is missing parameter layer2.fwd.W_i"),
    # every layer-0 and head shape still fits, but layer 1 would go unused
    (lambda s: s["spec"].update(arch="bidir", num_layers=1),
     "{dir}/model.bin: the spec in {dir}/model.json does not name snapshot "
     "parameters layer1.fwd.W_i, layer1.fwd.U_i, "),
], ids=["hidden-str", "unknown-key", "spec-missing-timesteps", "dropout-1.5", "scaler-null",
        "scaler-not-pair", "scaler-strings", "scaler-lo-above-hi", "scaler-inf", "scaler-nan",
        "scaler-missing-column", "scaler-extra-column", "input-dim",
        "hidden-edited", "layers-edited", "layers-dropped"])
def test_predict_with_bad_sidecar_exits_2(edit, named, chain, tmp_path, capsys):
    model = _copy_model(chain, tmp_path, edit)
    code = cli.main(["predict", "--out", str(tmp_path / "o"), "--model", str(model),
                     "--records", str(chain / "imp" / "imputed.csv")])
    assert code == 2
    assert named.format(dir=tmp_path) in capsys.readouterr().err


@pytest.mark.parametrize("key", ["spec", "scaler", "best_epoch"])
def test_predict_with_sidecar_missing_key_exits_2(key, chain, tmp_path, capsys):
    model = _copy_model(chain, tmp_path, lambda s: s.pop(key))
    code = cli.main(["predict", "--out", str(tmp_path / "o"), "--model", str(model),
                     "--records", str(chain / "imp" / "imputed.csv")])
    assert code == 2
    assert f"model.json: missing keys ['{key}']" in capsys.readouterr().err


def test_predict_with_a_sidecar_that_keeps_a_train_key_exits_2(chain, tmp_path, capsys):
    # a sidecar written while the training settings had their own "train" key
    def split_train(sidecar):
        spec = sidecar["spec"]
        train = {k: spec.pop(k) for k in ("ratio", "validation_fraction", "lr")}
        sidecar.update(spec=spec, train=train, scaler=sidecar.pop("scaler"),
                       best_epoch=sidecar.pop("best_epoch"))

    model = _copy_model(chain, tmp_path, split_train)
    assert list(json.loads(model.with_suffix(".json").read_text(encoding="utf-8"))) == [
        "spec", "train", "scaler", "best_epoch"]
    code = cli.main(["predict", "--out", str(tmp_path / "o"), "--model", str(model),
                     "--records", str(chain / "imp" / "imputed.csv")])
    assert code == 2
    assert f"{tmp_path}/model.json: unknown keys ['train']" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-5])


def _append_byte(path):
    path.write_bytes(path.read_bytes() + b"\x00")


def _garble_first_name(path):
    # the first name follows the 8-byte magic, the u32 count and its u16 length
    data = bytearray(path.read_bytes())
    data[14] = 0xFF
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("edit,named", [
    (_truncate, "model.bin: snapshot ends early"),
    (_append_byte, "{dir}/model.bin: snapshot goes on after its last parameter"),
    (_garble_first_name, "{dir}/model.bin: a parameter name is not UTF-8"),
    (lambda m: m.unlink(), "cannot read {dir}/model.bin"),
    (lambda m: m.with_suffix(".json").unlink(),
     "cannot read model sidecar {dir}/model.json"),
    (lambda m: m.with_suffix(".json").write_text("{not json", encoding="utf-8"),
     "cannot read model sidecar {dir}/model.json"),
    (lambda m: m.with_suffix(".json").write_bytes(b"\xff\xfe"),
     "cannot read model sidecar {dir}/model.json"),
    (lambda m: m.with_suffix(".json").write_text("[1]", encoding="utf-8"),
     "model sidecar {dir}/model.json must hold a JSON object"),
], ids=["bin-truncated", "bin-trailing-byte", "bin-name-not-utf8", "bin-missing",
        "sidecar-missing", "sidecar-not-json", "sidecar-not-utf8", "sidecar-list"])
def test_predict_with_bad_model_file_exits_2(edit, named, chain, tmp_path, capsys):
    model = _copy_model(chain, tmp_path, lambda s: None)
    edit(model)
    code = cli.main(["predict", "--out", str(tmp_path / "o"), "--model", str(model),
                     "--records", str(chain / "imp" / "imputed.csv")])
    assert code == 2
    assert named.format(dir=tmp_path) in capsys.readouterr().err


def test_predict_with_reordered_sidecar_scaler(chain, tmp_path):
    # the model reads its scaler in window column order, not in file order
    model = _copy_model(chain, tmp_path,
                        lambda s: s.update(scaler=dict(reversed(s["scaler"].items()))))
    sidecar = json.loads(model.with_suffix(".json").read_text(encoding="utf-8"))
    assert list(sidecar["scaler"])[0] == "cases"
    assert cli.main(["predict", "--out", str(tmp_path / "o"), "--model", str(model),
                     "--records", str(chain / "imp" / "imputed.csv")]) == 0
    assert ((tmp_path / "o" / "predictions.csv").read_bytes()
            == (chain / "pred" / "predictions.csv").read_bytes())


@pytest.mark.parametrize("keep", [3], ids=["two-months"])
def test_predict_without_a_complete_window_exits_2(keep, chain, tmp_path, capsys):
    # the chain's model reads 3-month windows
    lines = (chain / "imp" / "imputed.csv").read_text(encoding="utf-8").splitlines(True)
    records = tmp_path / "records.csv"
    records.write_text("".join(lines[:keep]), encoding="utf-8")
    code = cli.main(["predict", "--out", str(tmp_path / "o"),
                     "--model", str(chain / "model" / "model.bin"),
                     "--records", str(records)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: no district has 3 consecutive months (the model's timesteps) "
        "to make a window from\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["impute", "train", "predict", "sweep"])
def test_a_records_file_without_records_exits_2(command, chain, tmp_path, capsys):
    # load_records_csv refuses it, before any command's own step
    header = (chain / "imp" / "imputed.csv").read_text(encoding="utf-8").splitlines(True)[0]
    records = tmp_path / "records.csv"
    records.write_text(header, encoding="utf-8")
    extra = {"predict": ["--model", str(chain / "model" / "model.bin")],
             "sweep": ["--kind", "architecture"]}.get(command, [])
    code = cli.main([command, "--out", str(tmp_path / "o"), "--records", str(records),
                     *extra])
    assert code == 2
    assert f"{records}: no records" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_config_sets_training_and_sidecar_records_it(chain, tmp_path):
    path = tmp_path / "train.json"
    path.write_text('{"lr": 0.01, "ratio": 0.8}', encoding="utf-8")
    out = tmp_path / "model"
    assert cli.main(["train", "--out", str(out), "--config", str(path),
                     "--records", str(chain / "imp" / "imputed.csv"),
                     "--hidden", "2", "--epochs", "2"]) == 0
    sidecar = json.loads((out / "model.json").read_text(encoding="utf-8"))
    assert ({k: sidecar["spec"][k] for k in ("ratio", "validation_fraction", "lr")}
            == {"ratio": 0.8, "validation_fraction": 0.15, "lr": 0.01})
    assert (sidecar["spec"]["arch"], sidecar["spec"]["num_layers"],
            sidecar["spec"]["hidden"]) == ("stacked", 4, 2)


def _set_row(line_number, cells):
    """An edit that sets the given cells of one line (1-based, header is 1)."""
    def edit(lines):
        row = lines[line_number - 1].split(",")
        for i, text in cells.items():
            row[i] = text
        lines[line_number - 1] = ",".join(row)
        return lines
    return edit


@pytest.mark.parametrize("edit,named", [
    (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:],
     ":4: wrong column count"),
    (lambda lines: lines[:3] + [lines[3].replace(",", ",x", 1)] + lines[4:],
     ":4: invalid literal for int()"),
    (_set_row(4, {2: "13"}), ":4: month 13 outside [1, 12]"),
    (lambda lines: lines[:3] + lines[1:2] + lines[3:],
     ":4: duplicate (district, month) "),
    (lambda lines: lines[:1], ": no predictions"),
    (_set_row(4, {4: "2.5"}), ":4: invalid literal for int() with base 10: '2.5'"),
    (_set_row(4, {3: "nan"}), ":4: non-finite predicted for D01 2015-12"),
    (_set_row(4, {3: "inf"}), ":4: non-finite predicted for D01 2015-12"),
    (_set_row(4, {4: "-1"}), ":4: actual -1 for D01 2015-12 is not >= 0"),
], ids=["short-row", "non-numeric", "month-13", "repeated-month", "header-only",
        "decimal-actual", "nan-predicted", "inf-predicted", "negative-actual"])
def test_report_on_a_bad_prediction_row_exits_2(edit, named, chain, tmp_path, capsys):
    src = chain / "sw" / "reports" / "predictions_rainfall_seed0.csv"
    lines = src.read_text(encoding="utf-8").splitlines()
    path = tmp_path / "reports" / src.name
    path.parent.mkdir()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    assert cli.main(["report", "--run", str(tmp_path)]) == 2
    assert f"{path}{named}" in capsys.readouterr().err


@pytest.mark.parametrize("reports", [False, True], ids=["no-reports-dir", "empty"])
def test_report_without_prediction_csvs_exits_2(reports, tmp_path, capsys):
    if reports:
        (tmp_path / "reports").mkdir()
    assert cli.main(["report", "--run", str(tmp_path)]) == 2
    assert f"no prediction reports under {tmp_path}" in capsys.readouterr().err
    assert not (tmp_path / "tables").exists()


def test_report_writes_no_table_when_a_later_file_is_bad(chain, tmp_path, capsys):
    src = chain / "sw" / "reports" / "predictions_rainfall_seed0.csv"
    reports = tmp_path / "reports"
    reports.mkdir()
    (reports / "predictions_a_seed0.csv").write_bytes(src.read_bytes())
    bad = reports / "predictions_b_seed0.csv"
    bad.write_text(src.read_text(encoding="utf-8").splitlines()[0] + "\n",
                   encoding="utf-8")
    assert cli.main(["report", "--run", str(tmp_path)]) == 2
    assert f"{bad}: no predictions" in capsys.readouterr().err
    assert not (tmp_path / "tables").exists()


def test_prepare_gap_report_lists_gaps_only(tmp_path):
    # prepare builds no windows, so its report says nothing of skipped ones
    raw, prep = tmp_path / "raw", tmp_path / "prep"
    assert cli.main(["synth", "--out", str(raw), "--districts", "2", "--months", "30",
                     "--seed", "0"]) == 0
    cases = raw / "cases.csv"
    lines = cases.read_text(encoding="utf-8").splitlines(True)
    cases.write_text("".join(l for l in lines if not l.startswith("D01,2016,5,")),
                     encoding="utf-8")
    assert cli.main([
        "prepare", "--out", str(prep),
        "--climate", str(raw / "climate.csv"), "--rain", str(raw / "rain.csv"),
        "--larval", str(raw / "larval.csv"), "--cases", str(cases),
    ]) == 0
    assert (prep / "gap_report.txt").read_text(encoding="utf-8") == (
        "D01: gap between 2016-04 and 2016-06\n")


@pytest.fixture(scope="module")
def small_raw(tmp_path_factory):
    """synth --districts 2 --months 3: 2 x 90 daily climate rows."""
    raw = tmp_path_factory.mktemp("small") / "raw"
    assert cli.main(["synth", "--out", str(raw), "--districts", "2",
                     "--months", "3", "--seed", "0"]) == 0
    return raw


def _prepare_with_edit(small_raw, tmp_path, name, edit):
    """Run prepare on small_raw with the lines of its file name passed
    through edit."""
    raw = {n: small_raw / n for n in ("climate.csv", "rain.csv", "larval.csv",
                                      "cases.csv")}
    lines = raw[name].read_text(encoding="utf-8").splitlines()
    raw[name] = tmp_path / name
    raw[name].write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    return cli.main([
        "prepare", "--out", str(tmp_path / "prep"), "--climate", str(raw["climate.csv"]),
        "--rain", str(raw["rain.csv"]), "--larval", str(raw["larval.csv"]),
        "--cases", str(raw["cases.csv"]),
    ])


@pytest.mark.parametrize("edit,message", [
    (_set_row(170, {1: "2014-02-30"}), "climate.csv:170: day is out of range"),
    (_set_row(9, {1: "2014-01-08,extra"}), "climate.csv:9: wrong column count"),
    (_set_row(40, {0: "D02", 1: "2014-02-10", 3: "140.0"}),
     "climate.csv:40: relative humidity 140.0 outside [0, 100] for D02 on 2014-02-10"),
    (_set_row(3, {2: "inf"}), "climate.csv:3: non-finite temperature for D01 on 2014-01-02"),
    (lambda lines: lines[:1], "no climate readings"),
], ids=["late-bad-date", "column-count", "humidity-140", "inf-temperature",
        "header-only"])
def test_prepare_rejects_bad_climate_row(edit, message, small_raw, tmp_path, capsys):
    assert _prepare_with_edit(small_raw, tmp_path, "climate.csv", edit) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "prep").exists()


def test_prepare_reports_first_bad_climate_row(small_raw, tmp_path, capsys):
    # a bad humidity on line 5 comes before an unparsable date on line 100
    def edit(lines):
        return _set_row(100, {1: "not-a-date"})(_set_row(5, {3: "-1.0"})(lines))
    assert _prepare_with_edit(small_raw, tmp_path, "climate.csv", edit) == 2
    assert "relative humidity -1.0 outside [0, 100] for D01 on 2014-01-04" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("name,named", [
    ("climate.csv", "duplicate climate row for D01 on 2014-01-01"),
    ("rain.csv", "duplicate rain row for D01 in 2014-W01"),
    ("cases.csv", "cases.csv:8: duplicate (district, month) D01 2014-01"),
    ("larval.csv", "larval.csv:6: duplicate (district, month) D01 2014-01"),
], ids=["climate", "rain", "cases", "larval"])
def test_prepare_rejects_a_repeated_raw_row(name, named, small_raw, tmp_path, capsys):
    # a repeated day or week would be folded into the monthly mean or total,
    # and a repeated month would leave one of its two rows unread
    code = _prepare_with_edit(small_raw, tmp_path, name, lambda lines: lines + lines[1:2])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "prep").exists()


@pytest.mark.parametrize("edit", [
    lambda lines: lines[:1],
    lambda lines: lines[:1] + ["X" + line for line in lines[1:]],
], ids=["header-only", "renamed-districts"])
def test_prepare_refuses_an_empty_join(edit, small_raw, tmp_path, capsys):
    # each file passes its own rules, but no district-month is in all of them
    assert _prepare_with_edit(small_raw, tmp_path, "cases.csv", edit) == 3
    assert "no (district, month) has climate, rain and cases together" in (
        capsys.readouterr().err)
    assert not (tmp_path / "prep").exists()


@pytest.mark.parametrize("name,line,value,named", [
    ("cases.csv", 3, "-1", "cases.csv:3: case count -1 for D01 is not >= 0"),
    ("rain.csv", 2, "nan", "rain.csv:2: rainfall nan for D01 is not a finite number >= 0"),
    ("rain.csv", 2, "inf", "rain.csv:2: rainfall inf for D01 is not a finite number >= 0"),
], ids=["cases-minus-1", "rain-nan", "rain-inf"])
def test_prepare_names_the_row_of_a_bad_raw_value(name, line, value, named, small_raw,
                                                  tmp_path, capsys):
    # the record rules catch these too, but after reading, where no line is known
    assert _prepare_with_edit(small_raw, tmp_path, name, _set_row(line, {3: value})) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "prep").exists()


@pytest.mark.parametrize("command,flag,config", [
    ("train", "--config", {"predictors": ["temp_mean", "temp_mean"], "arch": "plain",
                           "num_layers": 1, "hidden": 4, "epochs": 2}),
    ("sweep", "--sweep-config", {
        "kind": "predictor", "seeds": [0],
        "base": {"arch": "plain", "num_layers": 1, "hidden": 4, "epochs": 2},
        "grid": [{"label": "twice", "predictors": ["temp_mean", "temp_mean"]}]}),
], ids=["train", "sweep"])
def test_repeated_predictor_exits_2(command, flag, config, chain, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = cli.main([command, "--out", str(tmp_path / "o"),
                     "--records", str(chain / "imp" / "imputed.csv"),
                     flag, str(path)])
    assert code == 2
    assert "predictor 'temp_mean' repeats" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_and_predict_report_windows_skipped_at_a_gap(tmp_path, capsys):
    raw, prep = tmp_path / "raw", tmp_path / "prep"
    assert cli.main(["synth", "--out", str(raw), "--seed", "0",
                     "--missing-rate", "0"]) == 0
    cases = raw / "cases.csv"
    lines = cases.read_text(encoding="utf-8").splitlines(True)
    cases.write_text("".join(l for l in lines if not l.startswith("D01,2016,5,")),
                     encoding="utf-8")
    assert cli.main([
        "prepare", "--out", str(prep),
        "--climate", str(raw / "climate.csv"), "--rain", str(raw / "rain.csv"),
        "--larval", str(raw / "larval.csv"), "--cases", str(cases),
    ]) == 0
    records = str(prep / "records.csv")
    capsys.readouterr()
    # at t=3 the windows targeting 2016-06 and 2016-07 would span the gap
    assert cli.main(["train", "--out", str(tmp_path / "model"), "--records", records,
                     "--arch", "plain", "--num-layers", "1", "--hidden", "2",
                     "--epochs", "1"]) == 0
    assert "skipped 2 windows that span a month gap\n" in capsys.readouterr().out
    assert cli.main(["predict", "--out", str(tmp_path / "pred"), "--records", records,
                     "--model", str(tmp_path / "model" / "model.bin")]) == 0
    assert "skipped 2 windows that span a month gap\n" in capsys.readouterr().out
    # without the gapped district nothing is said
    lines = (prep / "records.csv").read_text(encoding="utf-8").splitlines(True)
    (tmp_path / "no_d01.csv").write_text(
        "".join(l for l in lines if not l.startswith("D01,")), encoding="utf-8")
    assert cli.main(["predict", "--out", str(tmp_path / "pred2"),
                     "--records", str(tmp_path / "no_d01.csv"),
                     "--model", str(tmp_path / "model" / "model.bin")]) == 0
    assert "skipped" not in capsys.readouterr().out


@pytest.fixture(scope="module")
def two_districts(tmp_path_factory):
    """synth --districts 2 --months 24, prepare, impute --max-iters 2, a copy
    of the prepared records with every larval cell empty, diverge.json, a
    one-run sweep at a learning rate that diverges, and lr.json, a train
    config that sets only the learning rate."""
    root = tmp_path_factory.mktemp("two")
    raw, prep, imp = root / "raw", root / "prep", root / "imp"
    for argv in (
        ["synth", "--out", str(raw), "--districts", "2", "--months", "24",
         "--seed", "0"],
        ["prepare", "--out", str(prep),
         "--climate", str(raw / "climate.csv"), "--rain", str(raw / "rain.csv"),
         "--larval", str(raw / "larval.csv"), "--cases", str(raw / "cases.csv")],
        ["impute", "--out", str(imp), "--records", str(prep / "records.csv"),
         "--max-iters", "2"],
    ):
        assert cli.main(argv) == 0, argv
    with open(prep / "records.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    with open(root / "no_larval.csv", "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows([rows[0]] + [r[:6] + [""] + r[7:] for r in rows[1:]])
    (root / "diverge.json").write_text(json.dumps({
        "kind": "timestep", "seeds": [0],
        "base": {"lr": 1000.0, "epochs": 50, "variant": "I"},
        "grid": [{"label": "t = 3", "timesteps": 3}],
    }), encoding="utf-8")
    (root / "lr.json").write_text(json.dumps({"lr": 0.01}), encoding="utf-8")
    return root


# The CLI's exit codes: 2 bad input, 3 data that cannot support the step,
# 4 divergence.
@pytest.mark.parametrize("argv,code,named", [
    (["train", "--records", "prep/records.csv", "--variant", "II"], 3,
     "larval index missing"),
    (["impute", "--records", "no_larval.csv"], 3, "no observed larval indices"),
    (["train", "--records", "imp/imputed.csv", "--ratio", "0.01"], 3,
     "leaves an empty training split"),
    (["train", "--records", "imp/imputed.csv", "--lr", "1e3", "--epochs", "50"], 4,
     "exceeds"),
    # the first step overflows float64: the loss check reports it, numpy does not
    (["train", "--records", "imp/imputed.csv", "--lr", "1e300"], 4,
     "non-finite loss at epoch 0"),
    (["train", "--records", "imp/imputed.csv", "--timesteps", "40"], 2,
     "no district has 40 consecutive months (the model's timesteps)"),
    (["sweep", "--records", "imp/imputed.csv", "--kind", "timestep", "--grid", "40",
      "--seeds", "0"], 2,
     "no district has 40 consecutive months (the model's timesteps)"),
    (["sweep", "--records", "prep/records.csv", "--sweep-config", "diverge.json"], 4,
     "every run diverged"),
    (["sweep", "--records", "no_larval.csv", "--kind", "variant", "--seeds", "0"], 3,
     "grid cell 'Variant II': larval index missing"),
    # numpy refuses a negative seed; the spec refuses it before any file is read
    (["impute", "--records", "missing.csv", "--seed", "-1"], 2,
     "seed must be >= 0, got -1"),
    # the default base arch is stacked; the base is named before any file is read
    (["sweep", "--records", "missing.csv", "--kind", "architecture",
      "--num-layers", "1"], 2, "error: sweep base: stacked requires num_layers>=2, got 1"),
    # a value a flag fills in next to a config file names both
    (["train", "--records", "missing.csv", "--config", "lr.json", "--hidden", "0"], 2,
     "error: lr.json --hidden: hidden width must be >= 1, got 0"),
    (["sweep", "--records", "missing.csv", "--sweep-config", "diverge.json",
      "--num-layers", "1"], 2,
     "error: diverge.json --num-layers: sweep base: stacked requires num_layers>=2"),
    # only the file can hold an unknown key or a wrong type
    (["train", "--records", "missing.csv", "--config", "diverge.json", "--hidden", "4"],
     2, "error: diverge.json: unknown keys ['base', 'grid', 'kind', 'seeds']"),
], ids=["variant-ii-unimputed", "impute-no-larval", "ratio-0.01", "lr-1e3",
        "lr-1e300", "timesteps-40", "sweep-timesteps-40", "sweep-all-diverged",
        "sweep-variant-ii-unimputed", "impute-seed-negative", "sweep-base-num-layers-1",
        "train-config-and-flag", "sweep-config-and-flag", "train-config-key-and-flag"])
def test_exit_code_contract(argv, code, named, two_districts, tmp_path,
                            monkeypatch, capsys):
    monkeypatch.chdir(two_districts)
    assert cli.main([*argv, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert named in err
    assert "RuntimeWarning" not in err


def test_sweep_in_which_every_run_diverges_writes_its_log(two_districts, tmp_path):
    out = tmp_path / "o"
    assert cli.main(["sweep", "--out", str(out),
                     "--records", str(two_districts / "prep" / "records.csv"),
                     "--sweep-config", str(two_districts / "diverge.json")]) == 4
    log = (out / "log.txt").read_text(encoding="utf-8").splitlines()
    assert log[0].startswith("t = 3 seed=0 DIVERGED: ")
    assert "| t = 3 (seed 0) | diverged | diverged |" in (
        out / "tables" / "mse_summary.md").read_text(encoding="utf-8")
    assert _csv_rows(out / "reports" / "mse_summary.csv") == []


# sha256 of train's files and predict's predictions.csv for each architecture
# on two_districts' imputed records, hidden 3, 4 epochs and the default
# dropout 0.2, recorded while a layer still held a None backward cell: each
# layer's cells must read their rows and feed the head as they did then
ARCH_GOLDEN = {
    "plain": {
        "model.bin": "19cf8180ba0174b2aeeaf228cbab82cba255e7efee22cf20289e4564690be9b2",
        "model.json": "7a5a030f81496ac5efb4ce1894d7d3e99a35b122640d55eca32fd073726bf400",
        "loss.csv": "23318bb50fb031afde8e39cd39acdb08707423bb5cf2782c3c7e73172d882369",
        "predictions.csv": "c44496ad28d6965e7bccaff89cbfb7ab8f136ec832f41522637e52ca44ad10f6",
    },
    "stacked": {
        "model.bin": "e3e794371cd0808b04ab4e0b5e950da801604772769bf97642446308fa476b22",
        "model.json": "5edd0c3a9799b901b810dc74dc8dfb1ab14436740c743183ee6db9ea69c28921",
        "loss.csv": "463c921593a896446ccea12c269897011ea82e5798afed229130bae6afbc8f4c",
        "predictions.csv": "3bad38a7ede37a63c2ac5bca9f1c6d317f55372468b86cb84dbb62c0257d1695",
    },
    "bidir": {
        "model.bin": "34441161c6d035ceb8a6362179b437bab4d90c129765b4e1e637030209565871",
        "model.json": "784c85e391ce466ed7916160d7e418d42dc12f58cb8395ff0186fbafce6493cc",
        "loss.csv": "a84a8dc0c6a6d56b3f5009dd3eb5d079a8501e31b26cc7f906a3f962ae898f32",
        "predictions.csv": "258d0d7914d62f53b8e927c433f6694806cfe2dc3589b29ee595e04806a96a77",
    },
    "bidir_stacked": {
        "model.bin": "331b90aec2faacaca8a1021451ea1d81b17959a98c83a691a6334c4445fdeae8",
        "model.json": "5bae59e77807d9b54ae77c7ec3c11753299235e23e8f7d599de5add71b2180e4",
        "loss.csv": "106aada9a63d096143d232bcb4521c79d5b6b44207ba623557a65ef89dd59377",
        "predictions.csv": "67c6bde5415eebc2072725b756d1f563a0a4839bb7f58911f2c749485302d133",
    },
}


@pytest.mark.parametrize("arch,layers", [("plain", "1"), ("stacked", "2"),
                                         ("bidir", "1"), ("bidir_stacked", "2")])
def test_train_and_predict_match_golden_for_each_architecture(arch, layers,
                                                              two_districts, tmp_path):
    records = str(two_districts / "imp" / "imputed.csv")
    model = tmp_path / "model"
    assert cli.main(["train", "--out", str(model), "--records", records,
                     "--arch", arch, "--num-layers", layers, "--hidden", "3",
                     "--epochs", "4"]) == 0
    assert cli.main(["predict", "--out", str(tmp_path / "pred"),
                     "--model", str(model / "model.bin"), "--records", records]) == 0
    written = {name: _sha256(model / name) for name in ("model.bin", "model.json", "loss.csv")}
    written["predictions.csv"] = _sha256(tmp_path / "pred" / "predictions.csv")
    assert written == ARCH_GOLDEN[arch]


@pytest.mark.parametrize("edit,named", [
    (lambda lines: lines + lines[1:2], ":50: duplicate (district, month) D01 2014-01"),
    (_set_row(5, {3: "nan"}), ":5: non-finite temp_mean for D01 2014-04"),
    (_set_row(3, {6: "7.5"}), ":3: larval index 7.5 outside [1, 3] for D01 2014-02"),
    (_set_row(3, {7: "-1"}), ":3: case count -1 for D01 2014-02 is not >= 0"),
    # a count is an int in every file, as in cases.csv
    (_set_row(3, {7: "12.5"}), ":3: invalid literal for int() with base 10: '12.5'"),
    # the raw loaders' rules on humidity and rainfall, for the monthly values
    (_set_row(3, {4: "150.0"}), ":3: rh_mean 150.0 outside [0, 100] for D01 2014-02"),
    (_set_row(3, {5: "-5.0"}), ":3: rain_total -5.0 for D01 2014-02 is not >= 0"),
], ids=["repeated-month", "nan-temperature", "larval-7.5", "negative-count",
        "decimal-count", "rh-150", "negative-rain"])
def test_records_csv_is_read_by_the_record_rules(edit, named, two_districts, tmp_path,
                                                  capsys):
    # the rules assemble_records applies in prepare, wherever records.csv came from
    text = (two_districts / "prep" / "records.csv").read_text(encoding="utf-8")
    path = tmp_path / "records.csv"
    path.write_text("\n".join(edit(text.splitlines())) + "\n", encoding="utf-8")
    assert cli.main(["impute", "--out", str(tmp_path / "o"), "--records", str(path)]) == 2
    assert f"{path}{named}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name,line", [
    ("raw/cases.csv", 13), ("raw/larval.csv", 2), ("prep/records.csv", 13),
], ids=["cases", "larval", "records"])
def test_a_month_outside_1_to_12_exits_2(name, line, two_districts, tmp_path, capsys):
    # 2014-13 would pass for 2015-01, or be dropped as a month with no climate
    for rel in ("raw", "prep"):
        shutil.copytree(two_districts / rel, tmp_path / rel)
    path = tmp_path / name
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(_set_row(line, {2: "13"})(lines)) + "\n",
                    encoding="utf-8")
    raw, out = tmp_path / "raw", tmp_path / "o"
    if name == "prep/records.csv":
        argv = ["impute", "--records", str(path)]
    else:
        argv = ["prepare", "--climate", str(raw / "climate.csv"),
                "--rain", str(raw / "rain.csv"), "--larval", str(raw / "larval.csv"),
                "--cases", str(raw / "cases.csv")]
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert f"{path}:{line}: month 13 outside [1, 12]" in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_leaves_out_the_lstm_stack():
    # prepare and impute import cli but train no model; prepare needs no numpy
    src = Path(cli.__file__).resolve().parent.parent
    probe = ("import sys, denguecast.cli; print(sorted("
             "{'denguecast.lstm', 'denguecast.experiments', 'numpy'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)},
                          timeout=60, check=True)
    assert done.stdout == "[]\n"


def test_prepare_runs_without_numpy(small_raw, tmp_path):
    # its loaders, join and writers are plain Python, and main pins BLAS only
    # for the commands that load numpy
    src = Path(cli.__file__).resolve().parent.parent
    probe = ("import sys; from denguecast import cli; raw, out = sys.argv[1:]; "
             "code = cli.main(['prepare', '--out', out] + [f'--{name}={raw}/{name}.csv' "
             "for name in ('climate', 'rain', 'larval', 'cases')]); "
             "print(code, 'numpy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe, str(small_raw), str(tmp_path)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
                          check=True)
    assert done.stdout.splitlines()[-1] == "0 False"
    assert (tmp_path / "records.csv").is_file()


@pytest.mark.parametrize("threads", [None, "2"], ids=["unset", "two"])
def test_the_blas_pin_gives_one_thread_bits_whatever_the_variable(threads):
    # OpenBLAS on more than one thread splits the batch sum of this weight-
    # gradient product at a default-size train's 1,541 windows, and the split
    # changes its bits; on a single core every child gives the same bits
    src = Path(cli.__file__).resolve().parent.parent
    probe = ("import hashlib, sys, numpy as np; from denguecast import cli; "
             "found = cli.one_blas_thread() if sys.argv[1] == 'pin' else None; "
             "rng = np.random.default_rng(0); a = rng.standard_normal((4, 32, 1541)); "
             "b = rng.standard_normal((1541, 32)); "
             "print(found, hashlib.sha256((a @ b).tobytes()).hexdigest())")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(src)

    def child(mode, **variables):
        return subprocess.run([sys.executable, "-c", probe, mode], capture_output=True,
                              text=True, env={**env, **variables}, timeout=60,
                              check=True).stdout.split()

    found, pinned = child("pin", **({} if threads is None else
                                    {"OPENBLAS_NUM_THREADS": threads}))
    assert found == "True"
    assert pinned == child("no pin", OPENBLAS_NUM_THREADS="1")[1]


def test_a_bad_sweep_spec_exits_before_the_lstm_stack_loads(tmp_path):
    src = Path(cli.__file__).resolve().parent.parent
    probe = ("import sys, denguecast.cli; code = denguecast.cli.main(["
             "'sweep', '--out', 'o', '--records', 'r', '--kind', 'daily']); "
             "print(code, sorted({'denguecast.lstm', 'denguecast.experiments'} "
             "& set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)},
                          cwd=tmp_path, timeout=60, check=True)
    assert done.stdout == "2 []\n"
    assert "sweep kind must be one of" in done.stderr


@pytest.mark.parametrize("argv,named", [
    (["train", "--arch", "lstm"], "unknown architecture 'lstm', not one of"),
    (["sweep", "--arch", "lstm", "--kind", "variant"],
     "unknown architecture 'lstm', not one of"),
    # no argparse choices either: ModelSpec is the one check of --variant
    (["train", "--variant", "III"], "variant must be I or II, got 'III'"),
    (["sweep", "--kind", "daily"], "sweep kind must be one of"),
    # the kind is checked before the rule that only a timestep sweep reads --grid
    (["sweep", "--kind", "daily", "--grid", "3"], "sweep kind must be one of"),
    (["sweep", "--sweep-config", "daily.json", "--grid", "3"],
     "sweep kind must be one of"),
    (["sweep"], "error: sweep kind must be one of"),
], ids=["train-arch", "sweep-arch", "train-variant", "sweep-kind", "sweep-kind-grid",
        "sweep-config-kind-grid", "sweep-no-kind"])
def test_an_unknown_arch_or_kind_exits_2(argv, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "daily.json").write_text('{"kind": "daily"}', encoding="utf-8")
    code = cli.main([argv[0], "--out", str(tmp_path / "o"),
                     "--records", str(tmp_path / "records.csv"), *argv[1:]])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _subparsers():
    parser = cli.build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


# each command's option strings before its flags were derived from spec fields
OPTION_STRINGS = {
    "synth": ["--beta", "--districts", "--help", "--missing-rate", "--months",
              "--noise", "--out", "--seed", "-h"],
    "prepare": ["--cases", "--climate", "--help", "--larval", "--out", "--rain", "-h"],
    "impute": ["--help", "--k", "--max-iters", "--out", "--p1", "--p2", "--pool-size",
               "--records", "--seed", "-h"],
    "train": ["--arch", "--config", "--dropout", "--epochs", "--help", "--hidden",
              "--l2-lambda", "--lr", "--num-layers", "--out", "--ratio", "--records",
              "--seed", "--timesteps", "--validation-fraction", "--variant", "-h"],
    "predict": ["--help", "--model", "--out", "--records", "-h"],
    "sweep": ["--arch", "--dropout", "--epochs", "--grid", "--help", "--hidden",
              "--jobs", "--kind", "--l2-lambda", "--lr", "--num-layers", "--out",
              "--ratio", "--records", "--seeds", "--sweep-config", "--timesteps",
              "--validation-fraction", "--variant", "-h"],
    "report": ["--help", "--run", "-h"],
}


def test_each_command_keeps_its_option_strings():
    assert {name: sorted(o for a in p._actions for o in a.option_strings)
            for name, p in _subparsers().items()} == OPTION_STRINGS


@pytest.mark.parametrize("command,spec,leave_out", [
    ("synth", SynthSpec, ()),
    ("impute", CoregCfg, ()),
    ("train", ModelSpec, ()),
    ("sweep", ModelSpec, ("seed",)),  # each run's seed comes from --seeds
    ("sweep", SweepSpec, ()),
])
def test_each_spec_field_is_one_flag_without_a_default(command, spec, leave_out):
    # the spec holds every default, so an unset flag leaves the field to the
    # config file or the spec
    actions = _subparsers()[command]._actions
    hints = typing.get_type_hints(spec)
    flagged = [name for name, tp in hints.items()
               if tp in (int, float, str) and name not in leave_out]
    assert "predictors" not in flagged
    for name in flagged:
        [action] = [a for a in actions if a.dest == name]
        assert action.option_strings == ["--" + name.replace("_", "-")]
        assert (action.type, action.default, action.choices) == (hints[name], None, None)
    for name in leave_out:
        assert not [a for a in actions if a.dest == name]


def test_sweep_grid_cell_sets_the_learning_rate(chain, tmp_path, monkeypatch):
    rates = []

    class RecordingAdam(lstm.Adam):
        def __init__(self, lr):
            rates.append(lr)
            super().__init__(lr)

    monkeypatch.setattr(lstm, "Adam", RecordingAdam)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "kind": "timestep", "seeds": [0],
        "base": {"arch": "plain", "num_layers": 1, "hidden": 2, "epochs": 1},
        "grid": [{"label": "fast", "timesteps": 3, "lr": 0.05},
                 {"label": "default", "timesteps": 3}],
    }), encoding="utf-8")
    out = tmp_path / "sw"
    assert cli.main(["sweep", "--out", str(out), "--sweep-config", str(path),
                     "--records", str(chain / "imp" / "imputed.csv")]) == 0
    assert rates == [0.05, 0.001]
    for stem, lr in (("fast", 0.05), ("default", 0.001)):
        sidecar = json.loads((out / "models" / f"{stem}_seed0.json").read_text(
            encoding="utf-8"))
        assert sidecar["spec"]["lr"] == lr


def test_cli_import_defers_the_process_pool():
    # every command imports cli; only a sweep with --jobs > 1 needs the pool
    src = Path(cli.__file__).resolve().parent.parent
    probe = "import sys, denguecast.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)},
                          timeout=60, check=True)
    assert done.stdout == "False\n"


def test_main_sets_both_malloc_thresholds(monkeypatch, tmp_path):
    # M_MMAP_THRESHOLD (-3) and M_TRIM_THRESHOLD (-1): the trim threshold alone
    # would freeze the mmap threshold at its 128 KiB start
    calls = []

    class Libc:  # ctypes.CDLL(None) with a mallopt that records its calls
        def __init__(self, name):
            self.mallopt = lambda param, value: calls.append((param, value))

    monkeypatch.setattr(cli.ctypes, "CDLL", Libc)
    assert cli.main(["synth", "--out", str(tmp_path), "--districts", "2",
                     "--months", "24"]) == 0
    assert calls == [(-3, 64 << 20), (-1, 256 << 20)]


def test_a_libc_without_mallopt_still_runs_a_command(monkeypatch, tmp_path):
    class NoMallopt:
        def __init__(self, name):
            pass

    monkeypatch.setattr(cli.ctypes, "CDLL", NoMallopt)
    assert cli.main(["synth", "--out", str(tmp_path), "--districts", "2",
                     "--months", "24"]) == 0
    assert (tmp_path / "cases.csv").is_file()
