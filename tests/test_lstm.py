import json
import math

import numpy as np
import pytest

from denguecast.dataprep import (
    CLIMATE_FEATURES,
    Scaler,
    SplitDataset,
    SupervisedWindow,
    window_columns,
)
from denguecast.errors import DivergenceError, ValidationError
from denguecast import lstm
from denguecast.lstm import (
    ARCHITECTURES,
    GATES,
    LstmCellParams,
    Model,
    ModelSpec,
    TrainCfg,
    carve_validation,
    cell_forward,
    count_parameters,
    load_model,
    model_backward,
    model_forward,
    predict_batch,
    save_model,
    sequence_forward,
    train,
)
from denguecast.nn_core import (
    grad_check,
    l2_penalty,
    load_params,
    make_rng,
    mse,
    sigmoid,
    zero_grads,
)

H, T, F = 4, 3, 5


def make_cell(input_dim=F, hidden=H, seed=1):
    return LstmCellParams("cell", input_dim, hidden, make_rng(seed))


def set_all(cell, value):
    for p in cell.parameters():
        p.value[...] = value


def naive_cell(x, h_prev, c_prev, cell):
    """Independently coded single-sample cell: explicit loops, no batching."""
    hdim = cell.hidden
    h = np.zeros(hdim)
    c = np.zeros(hdim)
    for j in range(hdim):
        acts = {}
        for gi, gate in enumerate(("i", "f", "g", "o")):
            a = cell.b.value[gi, j]
            for k in range(len(x)):
                a += cell.Wx.value[gi, j, k] * x[k]
            for k in range(hdim):
                a += cell.Wh.value[gi, j, k] * h_prev[k]
            acts[gate] = a
        i = 1.0 / (1.0 + math.exp(-acts["i"]))
        f = 1.0 / (1.0 + math.exp(-acts["f"]))
        g = math.tanh(acts["g"])
        o = 1.0 / (1.0 + math.exp(-acts["o"]))
        c[j] = f * c_prev[j] + i * g
        h[j] = o * math.tanh(c[j])
    return h, c


class TestModelSpec:
    def test_plain_multilayer_rejected(self):
        with pytest.raises(ValidationError, match="plain requires num_layers=1"):
            ModelSpec(arch="plain", num_layers=2)

    def test_stacked_single_layer_rejected(self):
        with pytest.raises(ValidationError, match="stacked requires num_layers>=2"):
            ModelSpec(arch="stacked", num_layers=1)

    def test_unknown_arch(self):
        with pytest.raises(ValidationError, match="unknown architecture"):
            ModelSpec(arch="transformer")

    def test_small_timesteps_rejected(self):
        with pytest.raises(ValidationError, match="timesteps must be >= 2"):
            ModelSpec(timesteps=1)

    def test_bad_variant(self):
        with pytest.raises(ValidationError, match="variant must be I or II, got 'III'"):
            ModelSpec(variant="III")

    def test_unknown_predictor(self):
        with pytest.raises(ValidationError, match="unknown predictor 'cases'"):
            ModelSpec(predictors=("cases",))

    def test_repeated_predictor(self):
        with pytest.raises(ValidationError, match="predictor 'temp_mean' repeats"):
            ModelSpec(predictors=("temp_mean", "rain_total", "temp_mean"))

    def test_bad_dropout(self):
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ValidationError, match="dropout must lie in"):
                ModelSpec(dropout=rate)

    def test_negative_l2_lambda(self):
        with pytest.raises(ValidationError, match="l2_lambda must be >= 0"):
            ModelSpec(l2_lambda=-0.1)

    def test_forget_bias_init(self):
        cell = make_cell()
        assert np.all(cell.b.value[GATES.index("f")] == 1.0)
        assert np.all(cell.b.value[GATES.index("i")] == 0.0)


class TestTrainCfg:
    def test_bad_ratio(self):
        for ratio in (0.0, 1.0):
            with pytest.raises(ValidationError, match="ratio must lie in"):
                TrainCfg(ratio=ratio)


class TestCellForward:
    def test_all_zero(self):
        cell = make_cell()
        set_all(cell, 0.0)
        h, c, _ = cell_forward(np.zeros((1, F)), np.zeros((1, H)), np.zeros((1, H)),
                               cell)
        assert np.all(h == 0.0) and np.all(c == 0.0)

    def test_saturating_gates_carry_state(self):
        cell = make_cell()
        set_all(cell, 0.0)
        cell.b.value[GATES.index("f")] = 30.0   # forget gate ~1
        cell.b.value[GATES.index("i")] = -30.0  # input gate ~0
        c_prev = make_rng(2).normal(size=(1, H)) * 0.5
        _, c, _ = cell_forward(np.zeros((1, F)), np.zeros((1, H)), c_prev, cell)
        np.testing.assert_allclose(c, c_prev, atol=1e-6)

    def test_matches_naive_cell(self):
        cell = make_cell(seed=7)
        rng = make_rng(8)
        x = rng.normal(size=F)
        h_prev = rng.normal(size=H)
        c_prev = rng.normal(size=H)
        h, c, _ = cell_forward(x[None], h_prev[None], c_prev[None], cell)
        h_ref, c_ref = naive_cell(x, h_prev, c_prev, cell)
        np.testing.assert_allclose(h[0], h_ref, atol=1e-12)
        np.testing.assert_allclose(c[0], c_ref, atol=1e-12)

    def test_shape_errors(self):
        cell = make_cell()
        with pytest.raises(ValidationError, match=f"expected input \\(B, {F}\\)"):
            cell_forward(np.zeros((1, F + 1)), np.zeros((1, H)), np.zeros((1, H)),
                         cell)
        with pytest.raises(ValidationError, match="state shapes .* inconsistent"):
            cell_forward(np.zeros((1, F)), np.zeros((2, H)), np.zeros((1, H)), cell)


class TestSequenceForward:
    def test_t1_degenerate_equals_cell(self):
        cell = make_cell(seed=3)
        x = make_rng(4).normal(size=(1, F))
        seq, _ = sequence_forward(x, cell)
        h, _, _ = cell_forward(x, np.zeros((1, H)), np.zeros((1, H)), cell)
        np.testing.assert_allclose(seq, h, atol=1e-15)

    def test_backward_equals_forward_on_reversed_input(self):
        cell = make_cell(seed=5)
        X = make_rng(6).normal(size=(T, F))
        fwd_on_reversed, _ = sequence_forward(X[::-1], cell, "forward")
        bwd, _ = sequence_forward(X, cell, "backward")
        # re-reversed backward output row i corresponds to input row i
        np.testing.assert_allclose(bwd, fwd_on_reversed[::-1], atol=1e-12)

    def test_zero_input_zero_params(self):
        cell = make_cell()
        set_all(cell, 0.0)
        seq, _ = sequence_forward(np.zeros((2, T, F)), cell)
        assert np.all(seq == 0.0)


def model_and_data(arch, num_layers, seed=11, batch=3, l2=0.01, dropout_rate=0.0):
    spec = ModelSpec(arch=arch, num_layers=num_layers, hidden=H,
                     dropout=dropout_rate, epochs=1, l2_lambda=l2,
                     timesteps=T, seed=seed)
    model = Model(spec, F)
    rng = make_rng(seed + 100)
    X = rng.normal(size=(batch, T, F))
    y = rng.normal(size=batch)
    return spec, model, X, y


ARCH_LAYERS = [("plain", 1), ("stacked", 2), ("bidir", 1), ("bidir_stacked", 2)]


class TestModelForward:
    def test_zero_params_zero_prediction(self):
        _, model, X, _ = model_and_data("plain", 1)
        for p in model.parameters():
            p.value[...] = 0.0
        pred, _ = model_forward(model, X)
        assert np.all(pred == 0.0)

    def test_bidir_palindrome_symmetry(self):
        spec, model, _, _ = model_and_data("bidir", 1)
        fwd, bwd = model.layers[0]
        for p_bwd, p_fwd in zip(bwd.parameters(), fwd.parameters()):
            p_bwd.value = p_fwd.value.copy()
        row = make_rng(12).normal(size=F)
        X = np.stack([row, make_rng(13).normal(size=F), row])  # palindromic in time
        X = np.stack([X])
        fwd_seq, _ = sequence_forward(X, fwd, "forward")
        bwd_seq, _ = sequence_forward(X, bwd, "backward")
        # with tied parameters the two directions end in the same state
        np.testing.assert_allclose(fwd_seq[:, -1, :], bwd_seq[:, 0, :], atol=1e-12)

    def test_wrong_feature_count(self):
        _, model, X, _ = model_and_data("plain", 1)
        with pytest.raises(ValidationError, match=f"window has {F - 1} features"):
            model_forward(model, X[:, :, :-1])


class TestModelBackward:
    @pytest.mark.parametrize("arch,layers", ARCH_LAYERS)
    def test_grad_check_all_architectures(self, arch, layers):
        spec, model, X, y = model_and_data(arch, layers)
        params = model.parameters()

        def loss_and_grads():
            zero_grads(params)
            pred, cache = model_forward(model, X)
            loss = mse(y, pred)
            model_backward(model, cache, (2.0 / len(y)) * (pred - y))
            return loss + l2_penalty(params, spec.l2_lambda)

        assert grad_check(loss_and_grads, params, eps=1e-5) < 1e-4

    def test_zero_upstream_gradient(self):
        spec, model, X, y = model_and_data("stacked", 2, l2=0.0)
        params = model.parameters()
        zero_grads(params)
        _, cache = model_forward(model, X)
        model_backward(model, cache, np.zeros(len(y)))
        assert all(np.all(p.grad == 0.0) for p in params)

    def test_gradient_linearity(self):
        _, model, X, y = model_and_data("bidir", 1, l2=0.0)
        params = model.parameters()

        def grads_for(scale):
            zero_grads(params)
            pred, cache = model_forward(model, X)
            model_backward(model, cache, scale * (pred - y))
            return [p.grad.copy() for p in params]

        g1 = grads_for(1.0)
        g2 = grads_for(2.0)
        for a, b in zip(g1, g2):
            np.testing.assert_allclose(2.0 * a, b, atol=1e-12)

    def test_stale_cache(self):
        _, model, X, y = model_and_data("plain", 1)
        zero_grads(model.parameters())
        _, cache = model_forward(model, X)
        with pytest.raises(ValidationError, match="does not match gradient length"):
            model_backward(model, cache, np.zeros(len(y) + 1))


# The per-gate cell of the v01 layout, copied as an oracle for the gate-major
# cell: one matmul pair per gate, gate gradients summed in GATES order, and
# every gradient computed whatever the flags. It reads and accumulates through
# per-gate views of the gate-major parameters, so both cells run on one model.


def _per_gate(arrays):
    """{"W": {gate: view}, "U": ..., "b": ...} of (Wx, Wh, b) arrays."""
    return {name: dict(zip(GATES, a)) for name, a in zip(("W", "U", "b"), arrays)}


def _ref_cell_forward(x_t, h_prev, c_prev, cell):
    p = _per_gate(q.value for q in cell.parameters())
    a = {
        g: x_t @ p["W"][g].T + h_prev @ p["U"][g].T + p["b"][g]
        for g in GATES
    }
    i = sigmoid(a["i"])
    f = sigmoid(a["f"])
    g = np.tanh(a["g"])
    o = sigmoid(a["o"])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    cache = {"x": x_t, "h_prev": h_prev, "c_prev": c_prev,
             "i": i, "f": f, "g": g, "o": o, "tc": tc}
    return h, c, cache


def _ref_cell_backward(dh, dc_carry, cache, cell, need_dx=True, first_step=False):
    p = _per_gate(q.value for q in cell.parameters())
    grad = _per_gate(q.grad for q in cell.parameters())
    i, f, g, o, tc = cache["i"], cache["f"], cache["g"], cache["o"], cache["tc"]
    do = dh * tc
    dct = dc_carry + dh * o * (1.0 - tc * tc)
    da = {
        "i": dct * g * i * (1.0 - i),
        "f": dct * cache["c_prev"] * f * (1.0 - f),
        "g": dct * i * (1.0 - g * g),
        "o": do * o * (1.0 - o),
    }
    dx = np.zeros_like(cache["x"])
    dh_prev = np.zeros_like(cache["h_prev"])
    for gate in GATES:
        grad["W"][gate] += da[gate].T @ cache["x"]
        grad["U"][gate] += da[gate].T @ cache["h_prev"]
        grad["b"][gate] += da[gate].sum(axis=0)
        dx += da[gate] @ p["W"][gate]
        dh_prev += da[gate] @ p["U"][gate]
    dc_prev = dct * f
    return dx, dh_prev, dc_prev


def use_reference_cell(monkeypatch):
    monkeypatch.setattr(lstm, "cell_forward", _ref_cell_forward)
    monkeypatch.setattr(lstm, "cell_backward", _ref_cell_backward)


class TestMatchesPerGateReference:
    @pytest.mark.parametrize("arch,layers", ARCH_LAYERS)
    def test_batch_gradients_identical(self, arch, layers, monkeypatch):
        spec = ModelSpec(arch=arch, num_layers=layers, hidden=16, dropout=0.2,
                         epochs=1, l2_lambda=0.01, timesteps=T, seed=21)
        model = Model(spec, F)
        params = model.parameters()
        rng = make_rng(22)
        X = rng.normal(size=(50, T, F))
        y = rng.normal(size=50)

        def batch_gradients():
            zero_grads(params)
            pred, cache = model_forward(model, X, training=True, rng=make_rng(23))
            model_backward(model, cache, (2.0 / len(y)) * (pred - y))
            l2_penalty(params, spec.l2_lambda)
            return [pred] + [p.grad.copy() for p in params]

        got = batch_gradients()
        use_reference_cell(monkeypatch)
        want = batch_gradients()
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.all(a == b)

    @pytest.mark.parametrize("arch,layers", ARCH_LAYERS)
    def test_loss_history_identical(self, arch, layers, monkeypatch):
        spec = ModelSpec(arch=arch, num_layers=layers, hidden=8, dropout=0.2,
                         epochs=3, timesteps=T, seed=24)
        split = as_split(linear_dynamics_windows(n=40))
        got = train(spec, split, scaler=unit_scaler(spec)).loss_history
        use_reference_cell(monkeypatch)
        assert got == train(spec, split, scaler=unit_scaler(spec)).loss_history


class TestParameterCount:
    @pytest.mark.parametrize("arch,layers", ARCH_LAYERS)
    def test_closed_form(self, arch, layers):
        spec = ModelSpec(arch=arch, num_layers=layers, hidden=H, dropout=0.0,
                         epochs=1, timesteps=T, seed=0)
        model = Model(spec, F)
        directions = 2 if spec.bidirectional else 1
        expected = 0
        dim = F
        for _ in range(layers):
            expected += directions * 4 * (H * dim + H * H + H)
            dim = directions * H
        expected += H * dim + H + H + 1  # ReLU head + linear output
        assert count_parameters(model) == expected


def linear_dynamics_windows(n=60, seed=9, noise=0.02):
    """Targets are a linear function of the window entries, lightly noised."""
    rng = make_rng(seed)
    w = rng.normal(size=(T, F))
    out = []
    for i in range(n):
        X = rng.uniform(0, 1, size=(T, F))
        y = float(np.sum(w * X) * 0.1 + 0.5 + rng.normal(0, noise))
        out.append(
            SupervisedWindow(features=X, target=y, district="D1",
                             target_month=(2014 + i // 12, i % 12 + 1))
        )
    return out


def as_split(windows, ratio=0.85):
    n_train = int(len(windows) * ratio)
    return SplitDataset(train=windows[:n_train], test=windows[n_train:])


def unit_scaler(spec, hi=1.0):
    """A complete scaler for spec's window columns, each ranging [0, hi]."""
    return Scaler({c: (0.0, hi) for c in window_columns(spec.predictors, spec.variant)})


class TestTrain:
    def test_one_epoch_history(self):
        spec = ModelSpec(arch="plain", num_layers=1, hidden=4, dropout=0.0,
                         epochs=1, timesteps=T, seed=1)
        tm = train(spec, as_split(linear_dynamics_windows()), scaler=unit_scaler(spec))
        assert len(tm.loss_history) == 1

    def test_learns_linear_dynamics(self):
        spec = ModelSpec(arch="plain", num_layers=1, hidden=8, dropout=0.0,
                         epochs=400, timesteps=T, seed=2)
        windows = linear_dynamics_windows(n=80)
        # Adam's step is about lr, so lr x epochs must cover the distance to the fit
        tm = train(spec, as_split(windows), scaler=unit_scaler(spec), lr=1e-2)
        targets = np.array([w.target for w in windows])
        final_train_mse = tm.loss_history[-1][0]
        assert final_train_mse < 0.1 * float(np.var(targets))

    def test_determinism(self):
        spec = ModelSpec(arch="stacked", num_layers=2, hidden=4, dropout=0.2,
                         epochs=30, timesteps=T, seed=3)
        split = as_split(linear_dynamics_windows(n=40))
        h1 = train(spec, split, scaler=unit_scaler(spec)).loss_history
        h2 = train(spec, split, scaler=unit_scaler(spec)).loss_history
        assert h1 == h2  # bit-identical

    def test_constant_targets_converge(self):
        rng = make_rng(4)
        windows = [
            SupervisedWindow(features=rng.uniform(0, 1, size=(T, F)), target=0.4,
                             district="D1", target_month=(2014, i + 1))
            for i in range(10)
        ]
        spec = ModelSpec(arch="plain", num_layers=1, hidden=4, dropout=0.0,
                         epochs=500, timesteps=T, seed=5)
        # Adam's step is about lr, so lr x epochs must cover the distance to 0.4
        tm = train(spec, SplitDataset(train=windows, test=windows[:1]),
                   scaler=unit_scaler(spec), lr=1e-2)
        assert tm.loss_history[-1][0] < 1e-4

    def test_divergence_raises_with_epoch(self):
        spec = ModelSpec(arch="plain", num_layers=1, hidden=4, dropout=0.0,
                         epochs=50, timesteps=T, seed=6)
        with pytest.raises(DivergenceError) as err:
            train(spec, as_split(linear_dynamics_windows(n=30)),
                  scaler=unit_scaler(spec), lr=1e12)
        assert err.value.epoch >= 0

    def test_loss_spike_that_recovers_is_not_divergence(self):
        spec = ModelSpec(arch="plain", num_layers=1, hidden=4, dropout=0.0,
                         epochs=50, timesteps=T, seed=6)
        tm = train(spec, as_split(linear_dynamics_windows(n=30)),
                   scaler=unit_scaler(spec), lr=1.0)
        loss0 = tm.loss_history[0][0]
        peak = max(max(tr, va) for tr, va in tm.loss_history)
        assert peak > 10.0 * loss0  # a real spike, far below DIVERGENCE_FACTOR
        assert tm.loss_history[-1][0] < loss0

    def test_empty_split(self):
        spec = ModelSpec(arch="plain", num_layers=1, hidden=4, epochs=1, timesteps=T)
        with pytest.raises(ValidationError, match="training split is empty"):
            train(spec, SplitDataset(train=[], test=[]), scaler=unit_scaler(spec))

    def test_best_snapshot_recorded(self):
        spec = ModelSpec(arch="plain", num_layers=1, hidden=8, dropout=0.0,
                         epochs=100, timesteps=T, seed=7)
        tm = train(spec, as_split(linear_dynamics_windows(n=50)),
                   scaler=unit_scaler(spec))
        vals = [v for _, v in tm.loss_history]
        assert tm.best_epoch == int(np.argmin(vals))

    def test_carve_validation(self):
        windows = linear_dynamics_windows(n=20)
        tr, va = carve_validation(windows, 0.25)
        assert len(tr) == 15 and len(va) == 5
        tr2, va2 = carve_validation(windows[:3], 0.15)
        assert tr2 == va2 == windows[:3]  # degenerate fallback


def window(features):
    return SupervisedWindow(features=features, target=0.0, district="D1",
                            target_month=(2014, 1))


def predict_one(trained, features):
    """The model's (scaled) prediction for one (t, F) feature matrix."""
    return float(predict_batch(trained, [window(features)])[0])


class TestPredict:
    def _trained_constant(self, c=12.0):
        rng = make_rng(8)
        windows = [
            SupervisedWindow(features=rng.uniform(0, 1, size=(T, F)), target=c,
                             district="D1", target_month=(2014, i + 1))
            for i in range(10)
        ]
        spec = ModelSpec(arch="plain", num_layers=1, hidden=4, dropout=0.0,
                         epochs=400, timesteps=T, seed=9)
        # Adam's step is about lr, so lr x epochs must cover the distance to c
        tm = train(spec, SplitDataset(train=windows, test=windows[:1]),
                   scaler=unit_scaler(spec), lr=1e-2)
        return tm, windows

    def test_constant_fit(self):
        c = 12.0
        tm, windows = self._trained_constant(c)
        for w in windows[:3]:
            assert abs(predict_one(tm, w.features) - c) < 0.05 * abs(c) + 0.01

    def test_output_not_clamped(self):
        _, model, _, _ = model_and_data("plain", 1)
        for p in model.parameters():
            p.value[...] = 0.0
        model.head_b2.value[0] = -3.0
        from denguecast.lstm import TrainedModel

        tm = TrainedModel(spec=model.spec, model=model, scaler=unit_scaler(model.spec),
                          loss_history=[(0.0, 0.0)], best_epoch=0)
        value = predict_one(tm, np.zeros((T, F)))
        assert value == -3.0  # negative predictions pass through untouched

    def test_schema_mismatch(self):
        tm, _ = self._trained_constant()
        with pytest.raises(ValidationError, match="do not match model"):
            predict_one(tm, np.zeros((T + 1, F)))
        with pytest.raises(ValidationError, match="do not match model"):
            predict_one(tm, np.zeros((T, F + 2)))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        spec = ModelSpec(arch="bidir_stacked", num_layers=2, hidden=4, dropout=0.0,
                         epochs=5, timesteps=T, seed=10)
        windows = linear_dynamics_windows(n=30)
        tm = train(spec, as_split(windows), scaler=unit_scaler(spec, hi=9.0))
        save_model(tm, tmp_path / "m.bin", tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.bin", tmp_path / "m.json")
        assert loaded.spec == tm.spec
        assert loaded.loss_history == tm.loss_history
        assert predict_batch(loaded, windows).tolist() == (
            predict_batch(tm, windows).tolist())

    def test_sidecar_without_predictors_loads_default(self, tmp_path):
        # the windows' F=5 is 3 predictors + larval index + cases (variant II)
        spec = ModelSpec(hidden=2, epochs=1, timesteps=T, seed=13,
                         predictors=["rain_total", "temp_mean", "rh_mean"])
        assert spec.predictors == ("rain_total", "temp_mean", "rh_mean")
        tm = train(spec, as_split(linear_dynamics_windows(n=30)),
                   scaler=unit_scaler(spec))
        save_model(tm, tmp_path / "m.bin", tmp_path / "m.json")
        assert load_model(tmp_path / "m.bin", tmp_path / "m.json").spec == spec
        # a sidecar written before ModelSpec recorded its predictors
        sidecar = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))
        del sidecar["spec"]["predictors"]
        (tmp_path / "m.json").write_text(json.dumps(sidecar), encoding="utf-8")
        loaded = load_model(tmp_path / "m.bin", tmp_path / "m.json")
        assert loaded.spec.predictors == CLIMATE_FEATURES

    def test_snapshot_keeps_v01_gate_names(self, tmp_path):
        spec = ModelSpec(arch="bidir", num_layers=1, hidden=4, dropout=0.0,
                         epochs=1, timesteps=T, seed=14)
        tm = train(spec, as_split(linear_dynamics_windows(n=30)),
                   scaler=unit_scaler(spec))
        save_model(tm, tmp_path / "m.bin", tmp_path / "m.json")
        stored = {p.name: p for p in load_params(tmp_path / "m.bin")}
        assert list(stored) == [
            f"layer0.{d}.{w}_{g}" for d in ("fwd", "bwd") for g in GATES
            for w in ("W", "U", "b")
        ] + ["head.W1", "head.b1", "head.w2", "head.b2"]
        bwd = tm.model.layers[0][1]
        k = GATES.index("g")
        assert np.all(stored["layer0.bwd.W_g"].value == bwd.Wx.value[k])
        assert np.all(stored["layer0.bwd.U_g"].value == bwd.Wh.value[k])
        assert np.all(stored["layer0.bwd.b_g"].value == bwd.b.value[k])
        assert stored["layer0.bwd.b_g"].is_bias
        assert not stored["layer0.bwd.U_g"].is_bias

    def test_deterministic_bytes(self, tmp_path):
        spec = ModelSpec(arch="plain", num_layers=1, hidden=4, dropout=0.2,
                         epochs=10, timesteps=T, seed=11)
        split = as_split(linear_dynamics_windows(n=30))
        for name in ("a", "b"):
            tm = train(spec, split, scaler=unit_scaler(spec))
            save_model(tm, tmp_path / f"{name}.bin", tmp_path / f"{name}.json")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()

    def test_predict_batch_matches_predict(self):
        spec = ModelSpec(arch="plain", num_layers=1, hidden=4, dropout=0.0,
                         epochs=5, timesteps=T, seed=12)
        windows = linear_dynamics_windows(n=30)
        tm = train(spec, as_split(windows), scaler=unit_scaler(spec))
        # one batch of five against five batches of one
        batch = predict_batch(tm, windows[:5])
        singles = [predict_one(tm, w.features) for w in windows[:5]]
        np.testing.assert_allclose(batch, singles, atol=1e-12)
