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
# is byte-identical to the sidecar recorded here first.
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
], ids=["hidden-str", "unknown-key"])
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


def test_predict_with_sidecar_without_train_key(chain, tmp_path):
    model = _copy_model(chain, tmp_path, lambda s: s.pop("train"))
    assert cli.main(["predict", "--out", str(tmp_path / "o"), "--model", str(model),
                     "--records", str(chain / "imp" / "imputed.csv")]) == 0
    assert ((tmp_path / "o" / "predictions.csv").read_bytes()
            == (chain / "pred" / "predictions.csv").read_bytes())


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
