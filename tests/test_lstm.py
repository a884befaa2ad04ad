import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from denguecast.dataprep import (
    PreparedData,
    Scaler,
    Windows,
    month_index,
)
from denguecast.errors import DivergenceError, ValidationError
from denguecast import lstm
from denguecast.lstm import (
    GATES,
    LstmCellParams,
    Model,
    carve_validation,
    cell_forward,
    count_parameters,
    gate_sum,
    load_model,
    model_backward,
    model_forward,
    predict_batch,
    save_model,
    sequence_forward,
    train,
)
from denguecast.specs import ARCHITECTURES, ModelSpec
from denguecast.nn_core import (
    l2_penalty,
    load_params,
    make_rng,
    mse,
    relu,
    sigmoid,
    zero_grads,
)

from gradcheck import grad_check

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

    def test_bad_ratio(self):
        for ratio in (0.0, 1.0):
            with pytest.raises(ValidationError, match="ratio must lie in"):
                ModelSpec(ratio=ratio)

    def test_forget_bias_init(self):
        cell = make_cell()
        assert np.all(cell.b.value[GATES.index("f")] == 1.0)
        assert np.all(cell.b.value[GATES.index("i")] == 0.0)


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


class TestSequenceForward:
    def test_t1_degenerate_equals_cell(self):
        cell = make_cell(seed=3)
        x = make_rng(4).normal(size=(1, F))
        seq, _ = sequence_forward(x[None], cell)  # one window of one step
        h, _, _ = cell_forward(x, np.zeros((1, H)), np.zeros((1, H)), cell)
        np.testing.assert_allclose(seq[0], h, atol=1e-15)

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
        fwd_seq, _ = sequence_forward(X, fwd)
        bwd_seq, _ = sequence_forward(X[:, ::-1], bwd)
        # with tied parameters the two directions end in the same state
        np.testing.assert_allclose(fwd_seq[:, -1, :], bwd_seq[:, -1, :], atol=1e-12)

    @pytest.mark.parametrize("arch,layers", [("bidir", 1), ("bidir_stacked", 2)])
    def test_bidir_forward_is_two_cells_and_the_head(self, arch, layers):
        # stepped by hand: the forward cell reads rows 0..t-1, the backward
        # cell rows t-1..0; output row s holds both cells' states at row s,
        # and the head reads forward's state at row t-1 and backward's at row 0
        _, model, X, _ = model_and_data(arch, layers)
        seq = X
        for fwd, bwd in model.layers:
            out = np.empty((len(X), T, 2 * H))
            for cell, rows, cols in ((fwd, range(T), slice(0, H)),
                                     (bwd, range(T - 1, -1, -1), slice(H, 2 * H))):
                h = c = np.zeros((len(X), H))
                for s in rows:
                    h, c, _ = cell_forward(seq[:, s], h, c, cell)
                    out[:, s, cols] = h
            seq = out
        feature = np.concatenate([seq[:, -1, :H], seq[:, 0, H:]], axis=1)
        z1 = relu(feature @ model.head_W1.value.T + model.head_b1.value)
        want = (z1 @ model.head_w2.value.T + model.head_b2.value)[:, 0]
        pred, _ = model_forward(model, X)
        np.testing.assert_allclose(pred, want, atol=1e-12)


class TestModelBackward:
    @pytest.mark.parametrize("arch,layers", ARCH_LAYERS)
    def test_grad_check_all_architectures(self, arch, layers):
        spec, model, X, y = model_and_data(arch, layers)
        params = model.parameters()

        def loss_and_grads():
            zero_grads(params)
            pred, cache = model_forward(model, X, training=True)
            loss = mse(y, pred)
            model_backward(model, cache, (2.0 / len(y)) * (pred - y))
            l2_penalty(params, spec.l2_lambda)
            # the penalty whose gradient l2_penalty adds
            return loss + spec.l2_lambda * sum(
                float(np.sum(p.value * p.value)) for p in params if not p.is_bias)

        assert grad_check(loss_and_grads, params, eps=1e-5) < 1e-4

    def test_zero_upstream_gradient(self):
        spec, model, X, y = model_and_data("stacked", 2, l2=0.0)
        params = model.parameters()
        zero_grads(params)
        _, cache = model_forward(model, X, training=True)
        model_backward(model, cache, np.zeros(len(y)))
        assert all(np.all(p.grad == 0.0) for p in params)

    def test_gradient_linearity(self):
        _, model, X, y = model_and_data("bidir", 1, l2=0.0)
        params = model.parameters()

        def grads_for(scale):
            zero_grads(params)
            pred, cache = model_forward(model, X, training=True)
            model_backward(model, cache, scale * (pred - y))
            return [p.grad.copy() for p in params]

        g1 = grads_for(1.0)
        g2 = grads_for(2.0)
        for a, b in zip(g1, g2):
            np.testing.assert_allclose(2.0 * a, b, atol=1e-12)


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
    # the step contract: the input row and the gates, stacked in GATES order
    cache = {"x": x_t, "acts": np.stack([i, f, g, o])}
    return h, c, cache


def _ref_cell_backward(dh, dc_carry, cache, c_prev, h_prev, tc, cell, need_dx=True):
    p = _per_gate(q.value for q in cell.parameters())
    grad = _per_gate(q.grad for q in cell.parameters())
    i, f, g, o = cache["acts"]
    if h_prev is None:  # a first step, from the zero state
        h_prev = np.zeros_like(c_prev)
    do = dh * tc
    dct = dc_carry + dh * o * (1.0 - tc * tc)
    da = {
        "i": dct * g * i * (1.0 - i),
        "f": dct * c_prev * f * (1.0 - f),
        "g": dct * i * (1.0 - g * g),
        "o": do * o * (1.0 - o),
    }
    dx = np.zeros_like(cache["x"])
    dh_prev = np.zeros_like(h_prev)
    for gate in GATES:
        grad["W"][gate] += da[gate].T @ cache["x"]
        grad["U"][gate] += da[gate].T @ h_prev
        grad["b"][gate] += da[gate].sum(axis=0)
        dx += da[gate] @ p["W"][gate]
        dh_prev += da[gate] @ p["U"][gate]
    dc_prev = dct * f
    return dx, dh_prev, dc_prev


def use_reference_cell(monkeypatch):
    monkeypatch.setattr(lstm, "cell_forward", _ref_cell_forward)
    monkeypatch.setattr(lstm, "cell_backward", _ref_cell_backward)


class TestGateSum:
    @pytest.mark.parametrize("hidden", [1, 32])
    @pytest.mark.parametrize("width", [5, 8])
    def test_bits_of_the_batched_sum(self, hidden, width):
        # gate_sum replaced np.matmul(da, W).sum(axis=0) in cell_backward, for
        # dx (W is Wx, width F) and for dh_prev (W is Wh, width H)
        rng = make_rng(hidden * 100 + width)
        da = rng.normal(size=(4, 7, hidden))
        for W in (rng.normal(size=(4, hidden, width)),
                  rng.normal(size=(4, hidden, hidden))):
            want = np.matmul(da, W).sum(axis=0)
            assert gate_sum(da, W).tobytes() == want.tobytes()


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
        split = as_split(linear_dynamics_windows(n=40), unit_scaler(spec))
        got = train(spec, split)[1]
        use_reference_cell(monkeypatch)
        assert got == train(spec, split)[1]


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


def windows_of(features, targets):
    """A Windows of (t, F) feature matrices and their targets: one district's
    months, from 2014-01 on."""
    n = len(targets)
    return Windows(features=np.stack(features), target=np.asarray(targets),
                   district=np.full(n, "D1"), month=month_index((2014, 1)) + np.arange(n))


def linear_dynamics_windows(n=60, seed=9, noise=0.02):
    """Targets are a linear function of the window entries, lightly noised."""
    rng = make_rng(seed)
    w = rng.normal(size=(T, F))
    features, targets = [], []
    for _ in range(n):
        X = rng.uniform(0, 1, size=(T, F))
        features.append(X)
        targets.append(float(np.sum(w * X) * 0.1 + 0.5 + rng.normal(0, noise)))
    return windows_of(features, targets)


def as_split(windows, scaler, ratio=0.85):
    n_train = int(len(windows) * ratio)
    return PreparedData(windows[:n_train], windows[n_train:], scaler, 0)


def unit_scaler(spec, hi=1.0):
    """A complete scaler for spec's window columns, each ranging [0, hi]."""
    return Scaler({c: (0.0, hi) for c in spec.columns})


def train_peak_bytes(epochs):
    """tracemalloc's peak over one lstm.train of a stacked 2x16 model."""
    spec = ModelSpec(arch="stacked", num_layers=2, hidden=16, dropout=0.2,
                     epochs=epochs, timesteps=T, seed=25)
    split = as_split(linear_dynamics_windows(n=1000), unit_scaler(spec))
    tracemalloc.start()
    try:
        train(spec, split)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestActivationLifetime:
    # a training cache lives from model_forward until model_backward has
    # consumed it; an eval forward keeps none

    def test_training_holds_one_epoch_of_activations(self):
        # a second epoch's forward must not find the first one's cache alive
        assert train_peak_bytes(3) <= 1.05 * train_peak_bytes(1)

    @pytest.mark.parametrize("arch,layers", ARCH_LAYERS + [("stacked", 3)])
    def test_training_forward_retains_what_backward_reads(self, arch, layers):
        B, hidden = 400, 16
        spec = ModelSpec(arch=arch, num_layers=layers, hidden=hidden, dropout=0.2,
                         epochs=1, timesteps=T, seed=26)
        model = Model(spec, F)
        X = make_rng(27).normal(size=(B, T, F))
        rng = make_rng(28)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pred, cache = model_forward(model, X, training=True, rng=rng)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        cells = len(model.cells())
        width = cells // layers * hidden  # a layer's output width
        # per cell step, float64: the gates 4BH (its input row is a view);
        # per non-top layer: its dropped output, float64, and the one-byte
        # keep of its dropout; the head's dropped input and keep, a1 and z1;
        # the predictions
        payload = (cells * T * 4 * B * hidden * 8
                   + (layers - 1) * T * B * width * 9
                   + B * width * 9 + 2 * B * hidden * 8 + B * 8)
        assert payload <= retained <= 1.01 * payload  # the rest is Python objects

    @pytest.mark.parametrize("arch,layers", ARCH_LAYERS)
    def test_backward_consumes_every_step(self, arch, layers):
        _, model, X, y = model_and_data(arch, layers, dropout_rate=0.2)
        zero_grads(model.parameters())
        pred, cache = model_forward(model, X, training=True, rng=make_rng(29))
        steps = [s for lc in cache["layers"] for s in lc["steps"]]
        assert len(steps) == len(model.cells())
        assert all(len(s) == T for s in steps)
        model_backward(model, cache, pred - y)
        assert cache["layers"] == []
        assert all(s == [] for s in steps)

    def test_eval_sequence_forward_keeps_no_step(self):
        cell = make_cell(seed=32)
        X = make_rng(33).normal(size=(2, T, F))
        seq, caches = sequence_forward(X, cell)
        assert caches is None
        train_seq, train_caches = sequence_forward(X, cell, training=True)
        assert len(train_caches) == T
        assert seq.tobytes() == train_seq.tobytes()

    @pytest.mark.parametrize("arch,layers", ARCH_LAYERS)
    def test_eval_forward_keeps_no_cache(self, arch, layers):
        _, model, X, _ = model_and_data(arch, layers, batch=7)  # dropout 0
        pred, cache = model_forward(model, X)
        assert cache is None
        train_pred, train_cache = model_forward(model, X, training=True)
        assert train_cache is not None
        assert pred.tobytes() == train_pred.tobytes()


class TestStepContract:
    # a step caches its input row and its gates; sequence_backward rebuilds
    # the rest, and cell_backward writes the gates' gradients over them

    @pytest.mark.parametrize("arch,layers", ARCH_LAYERS)
    def test_backward_hands_each_step_its_forward_states(self, arch, layers,
                                                         monkeypatch):
        # per cell, in step order: (c_prev, h_prev, tanh(c)); backward hands
        # h_prev None to a first step, whose h_prev was the zero state
        seen = {"fwd": {}, "bwd": {}}
        forward, backward = lstm.cell_forward, lstm.cell_backward

        def recording_forward(x_t, h_prev, c_prev, cell):
            h, c, cache = forward(x_t, h_prev, c_prev, cell)
            seen["fwd"].setdefault(cell.prefix, []).append(
                (c_prev.copy(), h_prev.copy(), np.tanh(c)))
            return h, c, cache

        def recording_backward(dh, dc_carry, cache, c_prev, h_prev, tc, cell,
                               need_dx=True):
            seen["bwd"].setdefault(cell.prefix, []).insert(
                0, (c_prev.copy(), None if h_prev is None else h_prev.copy(),
                    tc.copy()))
            return backward(dh, dc_carry, cache, c_prev, h_prev, tc, cell,
                            need_dx=need_dx)

        monkeypatch.setattr(lstm, "cell_forward", recording_forward)
        monkeypatch.setattr(lstm, "cell_backward", recording_backward)
        _, model, X, y = model_and_data(arch, layers, dropout_rate=0.2)
        zero_grads(model.parameters())
        pred, cache = model_forward(model, X, training=True, rng=make_rng(34))
        model_backward(model, cache, pred - y)
        prefixes = [cell.prefix for cell in model.cells()]
        assert sorted(seen["fwd"]) == sorted(seen["bwd"]) == sorted(prefixes)
        for prefix in prefixes:
            fwd, bwd = seen["fwd"][prefix], seen["bwd"][prefix]
            assert len(fwd) == len(bwd) == T
            assert bwd[0][1] is None and np.all(fwd[0][1] == 0.0)
            for s, (want, got) in enumerate(zip(fwd, bwd)):
                for k, (a, b) in enumerate(zip(want, got)):
                    if s or k != 1:
                        assert a.tobytes() == b.tobytes(), (prefix, s, k)

    @pytest.mark.parametrize("first_step", [False, True])
    def test_cell_backward_writes_the_gradients_over_the_gates(self, first_step):
        cell = make_cell(seed=35)
        rng = make_rng(36)
        B = 6
        x = rng.normal(size=(B, F))
        h_prev, c_prev = (np.zeros((B, H)),) * 2 if first_step else (
            rng.normal(size=(B, H)), rng.normal(size=(B, H)))
        _, c, cache = cell_forward(x, h_prev, c_prev, cell)
        dh, dc_carry = rng.normal(size=(B, H)), rng.normal(size=(B, H))
        tc = np.tanh(c)
        # the expressions of the batched cell before it wrote into the gates
        i, f, g, o = cache["acts"].copy()
        dct = dc_carry + dh * o * (1.0 - tc * tc)
        want = np.stack([dct * g * i * (1.0 - i),
                         dct * c_prev * f * (1.0 - f),
                         dct * i * (1.0 - g * g),
                         dh * tc * o * (1.0 - o)])
        zero_grads(cell.parameters())
        dx, dh_prev, dc_prev = lstm.cell_backward(
            dh, dc_carry, cache, c_prev, None if first_step else h_prev, tc, cell)
        assert cache["acts"].tobytes() == want.tobytes()
        assert dx.tobytes() == gate_sum(want, cell.Wx.value).tobytes()
        if first_step:
            assert dh_prev is None and dc_prev is None
            assert np.all(cell.Wh.grad == 0.0)
        else:
            assert dh_prev.tobytes() == gate_sum(want, cell.Wh.value).tobytes()
            assert dc_prev.tobytes() == (dct * f).tobytes()


class TestTrain:
    def test_one_epoch_history(self):
        spec = ModelSpec(arch="plain", num_layers=1, hidden=4, dropout=0.0,
                         epochs=1, timesteps=T, seed=1)
        _, history = train(spec, as_split(linear_dynamics_windows(), unit_scaler(spec)))
        assert len(history) == 1

    def test_learns_linear_dynamics(self):
        spec = ModelSpec(arch="plain", num_layers=1, hidden=8, dropout=0.0,
                         epochs=400, timesteps=T, seed=2, lr=1e-2)
        windows = linear_dynamics_windows(n=80)
        # Adam's step is about lr, so lr x epochs must cover the distance to the fit
        _, history = train(spec, as_split(windows, unit_scaler(spec)))
        targets = windows.target
        final_train_mse = history[-1][0]
        assert final_train_mse < 0.1 * float(np.var(targets))

    def test_determinism(self):
        spec = ModelSpec(arch="stacked", num_layers=2, hidden=4, dropout=0.2,
                         epochs=30, timesteps=T, seed=3)
        split = as_split(linear_dynamics_windows(n=40), unit_scaler(spec))
        h1 = train(spec, split)[1]
        h2 = train(spec, split)[1]
        assert h1 == h2  # bit-identical

    def test_constant_targets_converge(self):
        rng = make_rng(4)
        windows = windows_of([rng.uniform(0, 1, size=(T, F)) for _ in range(10)],
                             [0.4] * 10)
        spec = ModelSpec(arch="plain", num_layers=1, hidden=4, dropout=0.0,
                         epochs=500, timesteps=T, seed=5, lr=1e-2)
        # Adam's step is about lr, so lr x epochs must cover the distance to 0.4
        _, history = train(spec, PreparedData(windows, windows[:1],
                                              unit_scaler(spec), 0))
        assert history[-1][0] < 1e-4

    def test_divergence_raises_with_epoch(self):
        spec = ModelSpec(arch="plain", num_layers=1, hidden=4, dropout=0.0,
                         epochs=50, timesteps=T, seed=6, lr=1e12)
        with pytest.raises(DivergenceError) as err:
            train(spec, as_split(linear_dynamics_windows(n=30), unit_scaler(spec)))
        assert err.value.epoch >= 0

    def test_loss_spike_that_recovers_is_not_divergence(self):
        spec = ModelSpec(arch="plain", num_layers=1, hidden=4, dropout=0.0,
                         epochs=50, timesteps=T, seed=6, lr=1.0)
        _, history = train(spec, as_split(linear_dynamics_windows(n=30),
                                          unit_scaler(spec)))
        loss0 = history[0][0]
        peak = max(max(tr, va) for tr, va in history)
        assert peak > 10.0 * loss0  # a real spike, far below DIVERGENCE_FACTOR
        assert history[-1][0] < loss0

    def test_best_snapshot_recorded(self):
        spec = ModelSpec(arch="plain", num_layers=1, hidden=8, dropout=0.0,
                         epochs=100, timesteps=T, seed=7)
        tm, history = train(spec, as_split(linear_dynamics_windows(n=50),
                                           unit_scaler(spec)))
        vals = [v for _, v in history]
        assert tm.best_epoch == int(np.argmin(vals))

    def test_carve_validation(self):
        windows = linear_dynamics_windows(n=20)
        tr, va = carve_validation(windows, 0.25)
        assert len(tr) == 15 and len(va) == 5
        assert tr.month.tolist() + va.month.tolist() == windows.month.tolist()
        three = windows[:3]
        tr2, va2 = carve_validation(three, 0.15)
        assert tr2 is va2 is three  # degenerate fallback


def predict_one(trained, features):
    """The model's (scaled) prediction for one (t, F) feature matrix."""
    pred, _ = predict_batch(trained, windows_of([features], [0.0]))
    return float(pred[0])


class TestPredict:
    def _trained_constant(self, c=12.0):
        rng = make_rng(8)
        windows = windows_of([rng.uniform(0, 1, size=(T, F)) for _ in range(10)],
                             [c] * 10)
        spec = ModelSpec(arch="plain", num_layers=1, hidden=4, dropout=0.0,
                         epochs=400, timesteps=T, seed=9, lr=1e-2)
        # Adam's step is about lr, so lr x epochs must cover the distance to c
        tm, _ = train(spec, PreparedData(windows, windows[:1], unit_scaler(spec), 0))
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

        tm = TrainedModel(model=model, scaler=unit_scaler(model.spec), best_epoch=0)
        value = predict_one(tm, np.zeros((T, F)))
        assert value == -3.0  # negative predictions pass through untouched


class TestPersistence:
    def test_round_trip(self, tmp_path):
        spec = ModelSpec(arch="bidir_stacked", num_layers=2, hidden=4, dropout=0.0,
                         epochs=5, timesteps=T, seed=10, ratio=0.8, lr=0.01)
        windows = linear_dynamics_windows(n=30)
        tm, _ = train(spec, as_split(windows, unit_scaler(spec, hi=9.0)))
        save_model(tm, tmp_path / "m.bin")
        loaded = load_model(tmp_path / "m.bin")
        assert loaded.model.spec == tm.model.spec
        assert loaded.best_epoch == tm.best_epoch
        assert loaded.scaler == tm.scaler
        assert predict_batch(loaded, windows)[0].tolist() == (
            predict_batch(tm, windows)[0].tolist())

    def test_everything_load_model_reads_it_restores(self, tmp_path):
        # save -> load -> save writes the same bytes: the files hold no fact
        # that load_model drops or recomputes differently
        spec = ModelSpec(arch="bidir_stacked", num_layers=2, hidden=3, dropout=0.1,
                         epochs=4, timesteps=T, seed=15,
                         predictors=("rh_mean", "rain_total", "temp_mean"),
                         ratio=0.7, validation_fraction=0.2, lr=0.003)
        tm, _ = train(spec, as_split(linear_dynamics_windows(n=30),
                                     unit_scaler(spec, hi=7.0)))
        save_model(tm, tmp_path / "a.bin")
        save_model(load_model(tmp_path / "a.bin"), tmp_path / "b.bin")
        for suffix in (".bin", ".json"):
            assert ((tmp_path / f"a{suffix}").read_bytes()
                    == (tmp_path / f"b{suffix}").read_bytes())

    def test_training_settings_come_back_from_train_save_and_load(self, tmp_path):
        # lstm.train's model carries the spec it trained with, rate and carve
        # included, so whoever saves it records them
        spec = ModelSpec(arch="plain", num_layers=1, hidden=2, epochs=2,
                         timesteps=T, seed=17, ratio=0.7, validation_fraction=0.3,
                         lr=0.02)
        tm, _ = train(spec, as_split(linear_dynamics_windows(n=30), unit_scaler(spec)))
        save_model(tm, tmp_path / "m.bin")
        settings = ("ratio", "validation_fraction", "lr")
        sidecar = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))
        assert [sidecar["spec"][k] for k in settings] == [0.7, 0.3, 0.02]
        loaded = load_model(tmp_path / "m.bin").model.spec
        assert [getattr(loaded, k) for k in settings] == [0.7, 0.3, 0.02]

    def test_sidecar_holds_exactly_three_keys(self, tmp_path):
        spec = ModelSpec(arch="plain", num_layers=1, hidden=2, epochs=1,
                         timesteps=T, seed=16)
        tm, _ = train(spec, as_split(linear_dynamics_windows(n=30), unit_scaler(spec)))
        save_model(tm, tmp_path / "m.bin")
        sidecar = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))
        assert list(sidecar) == ["spec", "scaler", "best_epoch"]

    def test_sidecar_without_predictors_is_refused(self, tmp_path):
        # the windows' F=5 is 3 predictors + larval index + cases (variant II)
        spec = ModelSpec(hidden=2, epochs=1, timesteps=T, seed=13,
                         predictors=["rain_total", "temp_mean", "rh_mean"])
        assert spec.predictors == ("rain_total", "temp_mean", "rh_mean")
        tm, _ = train(spec, as_split(linear_dynamics_windows(n=30), unit_scaler(spec)))
        save_model(tm, tmp_path / "m.bin")
        assert load_model(tmp_path / "m.bin").model.spec == spec
        # the default predictors would window the records in another column
        # order than the model was trained on
        sidecar = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))
        del sidecar["spec"]["predictors"]
        (tmp_path / "m.json").write_text(json.dumps(sidecar), encoding="utf-8")
        with pytest.raises(ValidationError, match=re.escape(
                f"{tmp_path / 'm.json'} spec: missing keys ['predictors']")):
            load_model(tmp_path / "m.bin")

    def test_snapshot_keeps_v01_gate_names(self, tmp_path):
        spec = ModelSpec(arch="bidir", num_layers=1, hidden=4, dropout=0.0,
                         epochs=1, timesteps=T, seed=14)
        tm, _ = train(spec, as_split(linear_dynamics_windows(n=30), unit_scaler(spec)))
        save_model(tm, tmp_path / "m.bin")
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
        split = as_split(linear_dynamics_windows(n=30), unit_scaler(spec))
        for name in ("a", "b"):
            tm, _ = train(spec, split)
            save_model(tm, tmp_path / f"{name}.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()

    def test_predict_batch_matches_predict(self):
        spec = ModelSpec(arch="plain", num_layers=1, hidden=4, dropout=0.0,
                         epochs=5, timesteps=T, seed=12)
        windows = linear_dynamics_windows(n=30)
        tm, _ = train(spec, as_split(windows, unit_scaler(spec)))
        # one batch of five against five batches of one
        batch, _ = predict_batch(tm, windows[:5])
        singles = [predict_one(tm, w.features) for w in windows[:5]]
        np.testing.assert_allclose(batch, singles, atol=1e-12)
