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


# sha256 of the daily climate table and the records prepared from it at the
# default size (26 districts x 84 months, the benchmark's input), recorded
# while both sides still built one object per day.
DEFAULT_GOLDEN = {
    "raw/climate.csv": "da64fe427f80a694511b289328b48954d5df600946de54e13815c82c82236705",
    "prep/records.csv": "0552590917d278686ceb6879357944113cb3000f344df663a152a354ee463277",
}


def test_default_size_synth_prepare_matches_golden(tmp_path):
    raw, prep = tmp_path / "raw", tmp_path / "prep"
    assert cli.main(["synth", "--out", str(raw), "--seed", "0"]) == 0
    assert cli.main([
        "prepare", "--out", str(prep),
        "--climate", str(raw / "climate.csv"), "--rain", str(raw / "rain.csv"),
        "--larval", str(raw / "larval.csv"), "--cases", str(raw / "cases.csv"),
    ]) == 0
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


# sha256 of every file the full chain writes (see chain), recorded before
# de-scaling, gap scanning, CSV writing and record reading were each merged
# into one path. The five .json model sidecars were re-pinned when they gained
# spec.predictors and the "train" key (TrainCfg); without those two keys each
# is byte-identical to the sidecar recorded here first. The four
# sw/reports/predictions_*.csv were re-pinned when their actual column became
# each record's count as records.csv holds it (35, where it held 35.0, the
# count sent through the scaler and back); their other columns are unchanged.
CHAIN_GOLDEN = {
    "imp/coreg_log.txt": "2cb83b5f84dcc721279ebd910c06ab35d33f6fa99689635829a3b979d48d4b49",
    "imp/imputed.csv": "0d40be376576a1725a7383419910b4e93af107eb4ec103e96927c22393f25678",
    "model/loss.csv": "8b5a809597d2dce8444541b53b57f6836ddbd4afc8a9216b6fd7ed0873e41e35",
    "model/model.bin": "e35e64b30fda10feb813b3e062a878d829397ad051953185967570f0108ba4a5",
    "model/model.json": "9ccada5779ff162ec85944b13f138487c1d43c047c698deac44a45b36f5abde6",
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
    "sw/models/all-three-parameters_seed0.json": "47414217a0f52757e6a78259130f72a0ee10c14826412828bd806a288f50a2d9",
    "sw/models/rainfall_seed0.bin": "cbb9ebedad6633e021d10d69e63cd43fedb853496e887d00aabf212a6faec77b",
    "sw/models/rainfall_seed0.json": "f9337043d547feb9cfc6c2a42ba880749b51e9329c79227f7a6531c29b1d8f58",
    "sw/models/relative-humidity_seed0.bin": "19df4b975af621495326bdc4f9a2c3ba3fde3a017472b115b5ffe34ab774ee0a",
    "sw/models/relative-humidity_seed0.json": "ca697122f2e15abb06bc4fd3b1b099e14e08aea31448e303e4bdc4ad48c24f62",
    "sw/models/temperature_seed0.bin": "53fadec0f1eca11c56533e8c9a358af2ce8bc20ce297b5a90e3563143df170f0",
    "sw/models/temperature_seed0.json": "3c29add4831422e0c3463980534da901f000f46228daf097e0ba0eb724265320",
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
    ({"lr": -1}, "lr must be > 0"),
    ([1, 2], "must hold a JSON object"),
])
def test_train_config_of_wrong_type_exits_2(config, named, tmp_path, capsys):
    path = tmp_path / "train.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = cli.main(["train", "--out", str(tmp_path / "o"),
                     "--records", str(tmp_path / "records.csv"),
                     "--config", str(path)])
    assert code == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("config,named", [
    ({"kind": "variant", "seeds": "0,1"}, "seeds must be a list of int"),
    ({"kind": "variant", "seeds": [0.5]}, "seeds must be a list of int"),
    ({"kind": "variant", "seeds": [0, 0]}, "seeds repeat"),
    ({"kind": "timestep", "grid": [{"label": "t3", "timesteps": "3"}]},
     "timesteps must be int"),
    ({"kind": "timestep", "grid": [{"label": 5, "timesteps": 3}]},
     "label must be a str"),
    # both labels would write models/a_seed0.*
    ({"kind": "timestep", "grid": [{"label": "a", "timesteps": 2},
                                   {"label": "A", "timesteps": 3}]}, "'a' and 'A'"),
    # each run's seed comes from seeds, so a base seed would be ignored
    ({"kind": "variant", "base": {"seed": 7}}, "base: unknown keys ['seed']"),
])
def test_sweep_config_of_wrong_type_exits_2(config, named, tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = cli.main(["sweep", "--out", str(tmp_path / "o"),
                     "--records", str(tmp_path / "records.csv"),
                     "--sweep-config", str(path)])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
], ids=["hidden-str", "unknown-key", "scaler-null", "scaler-not-pair",
        "scaler-strings", "scaler-lo-above-hi", "scaler-inf", "scaler-nan",
        "scaler-missing-column", "scaler-extra-column"])
def test_predict_with_bad_sidecar_exits_2(edit, named, chain, tmp_path, capsys):
    model = _copy_model(chain, tmp_path, edit)
    code = cli.main(["predict", "--out", str(tmp_path / "o"), "--model", str(model),
                     "--records", str(chain / "imp" / "imputed.csv")])
    assert code == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("key", ["spec", "input_dim", "scaler", "best_epoch",
                                 "loss_history"])
def test_predict_with_sidecar_missing_key_exits_2(key, chain, tmp_path, capsys):
    model = _copy_model(chain, tmp_path, lambda s: s.pop(key))
    code = cli.main(["predict", "--out", str(tmp_path / "o"), "--model", str(model),
                     "--records", str(chain / "imp" / "imputed.csv")])
    assert code == 2
    assert f"model.json: missing keys ['{key}']" in capsys.readouterr().err


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-5])


@pytest.mark.parametrize("edit,named", [
    (_truncate, "model.bin: snapshot ends early"),
    (lambda m: m.unlink(), "cannot read {dir}/model.bin"),
    (lambda m: m.with_suffix(".json").unlink(),
     "cannot read model sidecar {dir}/model.json"),
    (lambda m: m.with_suffix(".json").write_text("{not json", encoding="utf-8"),
     "cannot read model sidecar {dir}/model.json"),
    (lambda m: m.with_suffix(".json").write_bytes(b"\xff\xfe"),
     "cannot read model sidecar {dir}/model.json"),
    (lambda m: m.with_suffix(".json").write_text("[1]", encoding="utf-8"),
     "model sidecar {dir}/model.json must hold a JSON object"),
], ids=["bin-truncated", "bin-missing", "sidecar-missing", "sidecar-not-json",
        "sidecar-not-utf8", "sidecar-list"])
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


def test_predict_with_sidecar_without_train_key(chain, tmp_path):
    model = _copy_model(chain, tmp_path, lambda s: s.pop("train"))
    assert cli.main(["predict", "--out", str(tmp_path / "o"), "--model", str(model),
                     "--records", str(chain / "imp" / "imputed.csv")]) == 0
    assert ((tmp_path / "o" / "predictions.csv").read_bytes()
            == (chain / "pred" / "predictions.csv").read_bytes())


@pytest.mark.parametrize("keep", [1, 3], ids=["header-only", "two-months"])
def test_predict_without_a_complete_window_exits_2(keep, chain, tmp_path, capsys):
    # the chain's model reads 3-month windows
    lines = (chain / "imp" / "imputed.csv").read_text(encoding="utf-8").splitlines(True)
    records = tmp_path / "records.csv"
    records.write_text("".join(lines[:keep]), encoding="utf-8")
    code = cli.main(["predict", "--out", str(tmp_path / "o"),
                     "--model", str(chain / "model" / "model.bin"),
                     "--records", str(records)])
    assert code == 2
    assert f"{records}: no district has 3 consecutive months" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_config_sets_training_and_sidecar_records_it(chain, tmp_path):
    path = tmp_path / "train.json"
    path.write_text('{"lr": 0.01, "ratio": 0.8}', encoding="utf-8")
    out = tmp_path / "model"
    assert cli.main(["train", "--out", str(out), "--config", str(path),
                     "--records", str(chain / "imp" / "imputed.csv"),
                     "--hidden", "2", "--epochs", "2"]) == 0
    sidecar = json.loads((out / "model.json").read_text(encoding="utf-8"))
    assert sidecar["train"] == {"ratio": 0.8, "validation_fraction": 0.15, "lr": 0.01}
    assert (sidecar["spec"]["arch"], sidecar["spec"]["num_layers"],
            sidecar["spec"]["hidden"]) == ("stacked", 4, 2)


@pytest.mark.parametrize("edit,named", [
    (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:],
     ":4: wrong column count"),
    (lambda lines: lines[:3] + [lines[3].replace(",", ",x", 1)] + lines[4:],
     ":4: invalid literal for int()"),
], ids=["short-row", "non-numeric"])
def test_report_on_a_bad_prediction_row_exits_2(edit, named, chain, tmp_path, capsys):
    src = chain / "sw" / "reports" / "predictions_rainfall_seed0.csv"
    lines = src.read_text(encoding="utf-8").splitlines()
    path = tmp_path / "reports" / src.name
    path.parent.mkdir()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    assert cli.main(["report", "--run", str(tmp_path)]) == 2
    assert f"{path}{named}" in capsys.readouterr().err


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


def _prepare_with_climate(small_raw, tmp_path, edit):
    """Run prepare on small_raw with climate.csv's lines passed through edit."""
    lines = (small_raw / "climate.csv").read_text(encoding="utf-8").splitlines()
    climate = tmp_path / "climate.csv"
    climate.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    return cli.main([
        "prepare", "--out", str(tmp_path / "prep"), "--climate", str(climate),
        "--rain", str(small_raw / "rain.csv"), "--larval", str(small_raw / "larval.csv"),
        "--cases", str(small_raw / "cases.csv"),
    ])


def _set_row(line_number, cells):
    """An edit that sets the given cells of one line (1-based, header is 1)."""
    def edit(lines):
        row = lines[line_number - 1].split(",")
        for i, text in cells.items():
            row[i] = text
        lines[line_number - 1] = ",".join(row)
        return lines
    return edit


@pytest.mark.parametrize("edit,message", [
    (_set_row(170, {1: "2014-02-30"}), "climate.csv:170: day is out of range"),
    (_set_row(9, {1: "2014-01-08,extra"}), "climate.csv:9: wrong column count"),
    (_set_row(40, {0: "D02", 1: "2014-02-10", 3: "140.0"}),
     "relative humidity 140.0 outside [0, 100] for D02 on 2014-02-10"),
    (_set_row(3, {2: "inf"}), "non-finite temperature for D01 on 2014-01-02"),
    (lambda lines: lines[:1], "no climate readings"),
], ids=["late-bad-date", "column-count", "humidity-140", "inf-temperature",
        "header-only"])
def test_prepare_rejects_bad_climate_row(edit, message, small_raw, tmp_path, capsys):
    assert _prepare_with_climate(small_raw, tmp_path, edit) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "prep").exists()


def test_prepare_reports_first_bad_climate_row(small_raw, tmp_path, capsys):
    # a bad humidity on line 5 comes before an unparsable date on line 100
    def edit(lines):
        return _set_row(100, {1: "not-a-date"})(_set_row(5, {3: "-1.0"})(lines))
    assert _prepare_with_climate(small_raw, tmp_path, edit) == 2
    assert "relative humidity -1.0 outside [0, 100] for D01 on 2014-01-04" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("name,named", [
    ("climate.csv", "duplicate climate row for D01 on 2014-01-01"),
    ("rain.csv", "duplicate rain row for D01 in 2014-W01"),
], ids=["climate", "rain"])
def test_prepare_rejects_a_repeated_raw_row(name, named, small_raw, tmp_path, capsys):
    # a repeated day or week would be folded into the monthly mean or total
    raw = tmp_path / "raw"
    raw.mkdir()
    for f in small_raw.iterdir():
        (raw / f.name).write_bytes(f.read_bytes())
    lines = (raw / name).read_text(encoding="utf-8").splitlines(True)
    (raw / name).write_text("".join(lines + lines[1:2]), encoding="utf-8")
    code = cli.main([
        "prepare", "--out", str(tmp_path / "prep"),
        "--climate", str(raw / "climate.csv"), "--rain", str(raw / "rain.csv"),
        "--larval", str(raw / "larval.csv"), "--cases", str(raw / "cases.csv"),
    ])
    assert code == 2
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
    """synth --districts 2 --months 24, prepare, impute --max-iters 2, and a
    copy of the prepared records with every larval cell empty."""
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
    (["train", "--records", "imp/imputed.csv", "--timesteps", "40"], 2,
     "no windows"),
], ids=["variant-ii-unimputed", "impute-no-larval", "ratio-0.01", "lr-1e3",
        "timesteps-40"])
def test_exit_code_contract(argv, code, named, two_districts, tmp_path,
                            monkeypatch, capsys):
    monkeypatch.chdir(two_districts)
    assert cli.main([*argv, "--out", str(tmp_path / "o")]) == code
    assert named in capsys.readouterr().err
