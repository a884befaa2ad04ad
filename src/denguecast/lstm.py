"""LSTM cell with backpropagation through time, in four architectures.

Cell equations are the standard formulation. Gate k of GATES = (i, f, g, o)
uses slice k of the gate-major weights Wx (4, H, F), Wh (4, H, H) and b (4, H),
so one batched matmul over the gate axis computes all four gates:

    i = sigmoid(Wx[0] x + Wh[0] h_prev + b[0])   input gate
    f = sigmoid(Wx[1] x + Wh[1] h_prev + b[1])   forget gate
    g = tanh   (Wx[2] x + Wh[2] h_prev + b[2])   candidate state
    o = sigmoid(Wx[3] x + Wh[3] h_prev + b[3])   output gate
    c = f * c_prev + i * g
    h = o * tanh(c)

A layer is the list of its cells: [fwd], or [fwd, bwd] when bidirectional.
Cell d reads the layer's input rows in _reading_order(rows, d), the one
place that knows the backward cell reads them reversed, and a cell's final
state is the last row it read. plain and bidir have one layer; stacked and
bidir_stacked feed each layer's output sequence to the next. The head, a
ReLU dense layer then a linear scalar output, reads the final state of each
top-layer cell. Gradients are hand-derived and exact; dropout sits between
layers and before the head during training.

Activation lifetime: backpropagation through time needs every cell step's
activations, so they set the memory of training, and a cache holds only what
the backward pass cannot rebuild exactly. A step's cache holds its input row
x (a view) and its four gate activations, 4BH floats. The rest are elementwise
functions of the gates, and sequence_backward rebuilds them with the forward's
own expressions, to the same bits: each step's c = f * c_prev + i * g walking
forward from the zero state, then, walking back, h_prev = o * tanh(c) of the
step before, whose tanh(c) is that step's tc. cell_backward writes each gate's
gradient over the gate. Below the top layer, a layer's cache adds the boolean
keep of the dropout on its output, and the next layer's steps hold views of
the dropped output. A training forward's cache lives from model_forward until
model_backward, which consumes it: it pops each layer, top first, and
sequence_backward pops each step as it reads it, so the memory falls as
backward walks down and only one epoch's activations are ever alive. An eval
forward keeps no step caches and returns None for the cache.

All tensors are batched: a batch of windows is (B, t, F). A saved model is a
PSNAPv01 snapshot <name>.bin in snapshot_slots' per-gate parameter names
(layerN.dir.W_i, .U_i, .b_i, ...) and a <name>.json sidecar of three keys:
spec (the ModelSpec, training settings included), scaler and best_epoch, all
that load_model restores.

Each model rule is checked once, where a model, a sidecar or a window set
enters: specs.ModelSpec checks its fields; dataprep.build_windows, given
the spec, builds a Windows of (timesteps, len(spec.columns)) windows; load_model
refuses a snapshot whose parameter names or shapes are not those its
sidecar's spec builds. The kernels (cell, sequence, model forward and
backward) trust their callers.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import dataprep
from .dataprep import Scaler
from .errors import DivergenceError, ValidationError
from .nn_core import (
    Adam,
    Parameter,
    derive_seed,
    dropout,
    dropout_mask,
    l2_penalty,
    load_params,
    make_rng,
    mse,
    relu,
    save_params,
    sigmoid,
    zero_grads,
)
from .specs import ModelSpec, build, read_object

# Training has diverged once a finite train or validation loss exceeds this
# multiple of the epoch-0 training loss. Adam moves each weight by about lr per
# step, so a runaway rate grows the loss without ever overflowing float64.
DIVERGENCE_FACTOR = 1e6


GATES = ("i", "f", "g", "o")


class LstmCellParams:
    """Gate-major weights of one cell: Wx (4, H, F) multiplies the input, Wh
    (4, H, H) the previous hidden state, and b (4, H) is the bias. Index k of
    each belongs to gate GATES[k]; the forget-gate bias starts at 1.
    """

    def __init__(self, prefix, input_dim, hidden, rng):
        self.prefix = prefix
        self.input_dim = input_dim
        self.hidden = hidden
        lim_w = math.sqrt(1.0 / input_dim)
        lim_u = math.sqrt(1.0 / hidden)
        # per gate, W then U: the draw order of the v01 per-gate layout
        draws = [(rng.uniform(-lim_w, lim_w, (hidden, input_dim)),
                  rng.uniform(-lim_u, lim_u, (hidden, hidden))) for _ in GATES]
        b = np.zeros((4, hidden))
        b[GATES.index("f")] = 1.0
        self.Wx = Parameter(f"{prefix}.Wx", [w for w, _ in draws])
        self.Wh = Parameter(f"{prefix}.Wh", [u for _, u in draws])
        self.b = Parameter(f"{prefix}.b", b, is_bias=True)

    def parameters(self):
        return [self.Wx, self.Wh, self.b]


def cell_forward(x_t, h_prev, c_prev, cell):
    """One LSTM step over a batch; returns (h, c, cache for the backward
    pass), the cache holding the input row x and the gates acts (4, B, H)."""
    a = np.matmul(x_t, cell.Wx.value.transpose(0, 2, 1))  # (4, B, H)
    a += np.matmul(h_prev, cell.Wh.value.transpose(0, 2, 1))
    a += cell.b.value[:, None, :]
    # the activations overwrite the pre-activations: logistic on the i, f and
    # o blocks, tanh on the g block
    sigmoid(a[:2], out=a[:2])
    np.tanh(a[2], out=a[2])
    sigmoid(a[3], out=a[3])
    i, f, g, o = a
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return h, c, {"x": x_t, "acts": a}


def cell_backward(dh, dc_carry, cache, c_prev, h_prev, tc, cell, need_dx=True):
    """Backward through one step; accumulates the weight gradients in place.
    c_prev, h_prev and tc = tanh(c) are the step's values as cell_forward
    computed them. Consumes the cache: each gate's slot of cache["acts"] is
    overwritten with that gate's pre-activation gradient. Returns (dx,
    dh_prev, dc_prev); dx is None unless need_dx. A first step started from
    the zero state and gets h_prev None: it skips Wh, whose gradient term
    there is zero, and returns None for dh_prev and dc_prev."""
    da = cache["acts"]
    i, f, g, o = da  # views: each gate turns into its gradient below
    # the products of the pre-overwrite expressions, each in its operand
    # order; a gate is overwritten once nothing else reads it
    t = np.multiply(tc, tc)
    np.subtract(1.0, t, out=t)
    dct = dh * o
    dct *= t
    dct += dc_carry  # dct = dc_carry + dh * o * (1 - tc * tc)
    _logistic_grad(o, dh, tc, t)
    dc_prev = None if h_prev is None else dct * f
    _logistic_grad(f, dct, c_prev, t)
    da_g = dct * i
    np.multiply(g, g, out=t)
    np.subtract(1.0, t, out=t)
    da_g *= t  # dct * i * (1 - g * g)
    _logistic_grad(i, dct, g, t)
    g[...] = da_g
    del t, da_g, dct  # freed before the matmuls allocate theirs
    da_t = da.transpose(0, 2, 1)
    cell.Wx.grad += np.matmul(da_t, cache["x"])
    cell.b.grad += da.sum(axis=1)
    dx = gate_sum(da, cell.Wx.value) if need_dx else None
    if h_prev is None:
        return dx, None, None
    cell.Wh.grad += np.matmul(da_t, h_prev)
    return dx, gate_sum(da, cell.Wh.value), dc_prev


def _logistic_grad(gate, a, b, t):
    """Overwrite a logistic gate's activation with a * b * gate * (1 - gate),
    multiplied in that order, through the scratch array t."""
    np.multiply(a, b, out=t)
    t *= gate
    np.subtract(1.0, gate, out=gate)
    np.multiply(t, gate, out=gate)


def gate_sum(da, W):
    """The sum over gates k of da[k] @ W[k], added in GATES order: the bits of
    np.matmul(da, W).sum(axis=0) without its (4, B, ...) temporary."""
    out = da[0] @ W[0]
    for k in range(1, len(GATES)):
        out += da[k] @ W[k]
    return out


def _reading_order(rows, d):
    """The rows (B, t, ...) in the order cell d of a layer reads them: the
    forward cell (d = 0) as given, the backward cell (d = 1) reversed. Its own
    inverse, so it also puts a cell's outputs and gradients back in row order."""
    return rows[:, ::-1] if d else rows


def _join(parts, axis):
    """The parts concatenated along axis; a single part passes on uncopied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def sequence_forward(X, cell, *, training=False):
    """Run a cell over a batch of windows X (B, t, F) from zero initial state,
    reading rows 0..t-1. Returns (hidden sequence (B, t, H), per-step caches);
    only a training forward keeps the caches, an eval forward returns None."""
    B, t, _ = X.shape
    h = c = np.zeros((B, cell.hidden))  # one zero state: cell_forward writes neither
    hs = []
    caches = [] if training else None
    for s in range(t):
        h, c, cache = cell_forward(X[:, s, :], h, c, cell)
        hs.append(h)
        if training:
            caches.append(cache)
        del cache  # an eval forward frees the step's activations before the next step
    return np.stack(hs, axis=1), caches


def sequence_backward(d_seq, caches, cell, need_dx=True):
    """Backward through a whole sequence; d_seq is indexed like the rows read,
    and so is the gradient w.r.t. them that it returns (None unless need_dx).
    Consumes caches: each step's cache is popped as it is read, and the list
    is empty on return. Each step's c_prev, h_prev and tanh(c) are rebuilt
    from the gates, as the module's "Activation lifetime" says."""
    B, t, _ = d_seq.shape
    zero = np.zeros((B, cell.hidden))  # nothing writes it
    cs = _cell_states(caches, zero)
    dh_carry = dc_carry = zero
    dX = np.empty((B, t, cell.input_dim)) if need_dx else None
    tc = np.tanh(cs.pop())
    for s in reversed(range(t)):
        c_prev, h_prev, tc_prev = zero, None, None
        if s:
            c_prev = cs.pop()
            tc_prev = np.tanh(c_prev)
            h_prev = caches[-2]["acts"][3] * tc_prev  # o * tanh(c) of step s - 1
        dx, dh_carry, dc_carry = cell_backward(
            d_seq[:, s, :] + dh_carry, dc_carry, caches.pop(), c_prev, h_prev, tc,
            cell, need_dx=need_dx,
        )
        tc = tc_prev
        if need_dx:
            dX[:, s, :] = dx
    return dX


def _cell_states(caches, c):
    """Each step's c, rebuilt from its gates with cell_forward's expression
    from the initial state c. A function of its own, so that no loop variable
    keeps the last step's gates alive once backward has consumed them."""
    cs = []
    for cache in caches:
        i, f, g, _ = cache["acts"]
        c = f * c + i * g
        cs.append(c)
    return cs


# ---------------------------------------------------------------------------
# whole models


class Model:
    """Parameters of one configured network: LSTM layers plus the dense head.

    A layer is the list of its cells: [fwd], or [fwd, bwd] when bidirectional.
    Cell d reads the layer's input rows in _reading_order(rows, d); output row
    s of the layer joins its cells' hidden states at input row s, and the head
    reads each top-layer cell's final state, the last row that cell read.
    """

    def __init__(self, spec, input_dim):
        self.spec = spec
        rng = make_rng(derive_seed(spec.seed, "init"))
        H = spec.hidden
        directions = ("fwd", "bwd") if spec.bidirectional else ("fwd",)
        self.layers = []
        dim = input_dim
        for li in range(spec.num_layers):
            self.layers.append([LstmCellParams(f"layer{li}.{d}", dim, H, rng)
                                for d in directions])
            dim = len(directions) * H
        lim1 = math.sqrt(1.0 / dim)  # dim is now the head's feature width
        lim2 = math.sqrt(1.0 / H)
        self.head_W1 = Parameter("head.W1", rng.uniform(-lim1, lim1, (H, dim)))
        self.head_b1 = Parameter("head.b1", np.zeros(H), is_bias=True)
        self.head_w2 = Parameter("head.w2", rng.uniform(-lim2, lim2, (1, H)))
        self.head_b2 = Parameter("head.b2", np.zeros(1), is_bias=True)
        self.head = [self.head_W1, self.head_b1, self.head_w2, self.head_b2]

    def cells(self):
        """LSTM cells in layer order, each forward cell before its backward one."""
        return [cell for layer in self.layers for cell in layer]

    def parameters(self):
        return [p for cell in self.cells() for p in cell.parameters()] + self.head


def count_parameters(model):
    return sum(p.value.size for p in model.parameters())


def model_forward(model, window, training=False, rng=None):
    """Scalar prediction per window of a (B, t, input_dim) float64 batch;
    returns (predictions (B,), cache).

    A training forward draws dropout masks from rng and returns the cache
    that model_backward reads: each layer's step caches and, below the top
    layer, the dropout keep of its output; then the head's dropped input,
    its keep, a1 and z1. It lives from this call until model_backward has
    consumed it. An eval forward applies no dropout, keeps
    no step caches and returns None for the cache.
    """
    spec = model.spec
    seq = window
    layer_caches = []
    last = len(model.layers) - 1
    for li, layer in enumerate(model.layers):
        outs, steps = zip(*(sequence_forward(_reading_order(seq, d), cell,
                                             training=training)
                            for d, cell in enumerate(layer)))
        seq = _join([_reading_order(out, d) for d, out in enumerate(outs)], axis=2)
        feature = _join([out[:, -1, :] for out in outs], axis=1)
        if training:
            lc = {"steps": steps, "keep": None}
            layer_caches.append(lc)
            if li < last:
                seq, lc["keep"] = dropout(seq, spec.dropout, rng)

    if training:
        feature, feat_keep = dropout(feature, spec.dropout, rng)
    a1 = feature @ model.head_W1.value.T + model.head_b1.value
    z1 = relu(a1)
    pred = (z1 @ model.head_w2.value.T + model.head_b2.value)[:, 0]
    if not training:
        return pred, None
    return pred, {"layers": layer_caches, "feat_dropped": feature,
                  "feat_keep": feat_keep, "a1": a1, "z1": z1}


def model_backward(model, cache, d_pred):
    """Accumulate exact gradients of every parameter from d loss / d prediction,
    a (B,) array for the batch that model_forward cached.

    Consumes the cache's layers: each is popped, top layer first, and its
    step caches as sequence_backward reads them, so the activations are freed
    as the pass walks down and no step is left once it returns."""
    H = model.spec.hidden
    rate = model.spec.dropout

    dp = d_pred[:, None]
    model.head_w2.grad += dp.T @ cache["z1"]
    model.head_b2.grad += dp.sum(axis=0)
    dz1 = dp @ model.head_w2.value
    da1 = dz1 * (cache["a1"] > 0.0)
    model.head_W1.grad += da1.T @ cache["feat_dropped"]
    model.head_b1.grad += da1.sum(axis=0)
    d_feature = (da1 @ model.head_W1.value) * dropout_mask(cache["feat_keep"], rate)

    d_above = None  # gradient w.r.t. the (dropped) output sequence of the layer
    last = len(model.layers) - 1
    for li in range(last, -1, -1):
        lc = cache["layers"].pop()
        d_out = d_above * dropout_mask(lc["keep"], rate) if li < last else None
        need_dx = li > 0  # nothing reads the gradient w.r.t. the input windows
        d_rows = []
        for d, (cell, steps) in enumerate(zip(model.layers[li], lc["steps"])):
            cols = slice(d * H, (d + 1) * H)
            if li == last:  # the head read the last row each cell read
                d_read = np.zeros((len(d_pred), len(steps), H))
                d_read[:, -1, :] = d_feature[:, cols]
            else:
                d_read = _reading_order(d_out[:, :, cols], d)
            d_x = sequence_backward(d_read, steps, cell, need_dx=need_dx)
            if need_dx:
                d_rows.append(_reading_order(d_x, d))
        if need_dx:  # a one-cell layer's gradient passes on uncopied
            d_above = sum(d_rows[1:], d_rows[0])


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainedModel:
    model: Model  # model.spec is the spec it was trained to
    scaler: Scaler  # scales the model's inputs; fitted on training-period records
    best_epoch: int


@dataclass(frozen=True)
class Sidecar:
    """The JSON object of a model's .json sidecar, in file order."""
    spec: dict
    scaler: dict
    best_epoch: int


def carve_validation(windows, fraction):
    """Chronological carve: (train, validation) slices of a Windows, the
    validation slice its last fraction.

    With too few windows for a non-empty carve, validation falls back to the
    training windows themselves.
    """
    n_val = int(math.floor(fraction * len(windows)))
    if n_val == 0:
        return windows, windows
    return windows[:-n_val], windows[-n_val:]


def train(spec, split):
    """Full-batch training with Adam at spec.lr; keeps the best-validation
    snapshot.

    The last spec.validation_fraction of the (chronologically ordered) train
    split is carved off for validation. Returns (TrainedModel, loss history):
    the history holds (train MSE, validation MSE) per epoch, and the model's
    parameters are the snapshot with the lowest validation MSE (no early
    stopping). Raises DivergenceError when a loss is non-finite or exceeds
    DIVERGENCE_FACTOR times a positive epoch-0 training loss.
    split is experiments.make_supervised's dataprep.PreparedData, whose
    scaler travels with its unscaled windows: in window column order, it
    scales their features and targets (dataprep.apply_scaler) and stays with
    the model, which learns and predicts in its scaled units. spec.predictors
    and spec.variant are only recorded, for predict to window new records
    the same way, and spec.ratio as the split the windows came from.
    """
    train_w, val_w = carve_validation(split.train, spec.validation_fraction)
    # through the module, so a wrapped dataprep.apply_scaler sees the calls
    X_tr, y_tr = dataprep.apply_scaler(split.scaler, train_w)
    X_val, y_val = dataprep.apply_scaler(split.scaler, val_w)

    model = Model(spec, X_tr.shape[2])
    params = model.parameters()
    opt = Adam(spec.lr)
    drop_rng = make_rng(derive_seed(spec.seed, "dropout"))

    history = []
    best_mse = math.inf
    best_values = None
    best_epoch = -1
    # a blow-up reaches the loss as inf or nan, which the finiteness check reports
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(spec.epochs):
            zero_grads(params)
            pred, cache = model_forward(model, X_tr, training=True, rng=drop_rng)
            train_mse = mse(y_tr, pred)
            model_backward(model, cache, (2.0 / y_tr.size) * (pred - y_tr))
            del cache  # freed before the validation pass and the next epoch's forward
            l2_penalty(params, spec.l2_lambda)
            opt.step(params)
            val_pred, _ = model_forward(model, X_val, training=False)
            val_mse = mse(y_val, val_pred)
            if not (math.isfinite(train_mse) and math.isfinite(val_mse)):
                raise DivergenceError(epoch)
            if epoch == 0:
                loss0 = train_mse
            for name, loss in (("training", train_mse), ("validation", val_mse)):
                if loss0 > 0.0 and loss > DIVERGENCE_FACTOR * loss0:
                    raise DivergenceError(
                        epoch,
                        f"{name} loss {loss:.3g} at epoch {epoch} exceeds "
                        f"{DIVERGENCE_FACTOR:g} x the epoch-0 training loss "
                        f"{loss0:.3g}",
                    )
            history.append((train_mse, val_mse))
            if val_mse < best_mse:
                best_mse = val_mse
                best_values = [p.value.copy() for p in params]
                best_epoch = epoch
    for p, v in zip(params, best_values):  # epoch 0 always sets them
        p.value = v
    return TrainedModel(model, split.scaler, best_epoch), history


def predict_batch(trained, windows):
    """(pred, y): the model's output per window and the windows' targets,
    both in the scaled units it was trained on; experiments.evaluate
    de-scales pred to counts.

    The Windows is unscaled, as build_windows makes it; the model's own
    scaler scales their features and targets once (dataprep.apply_scaler).
    Never clamped: a fitted model may emit small negative values.
    """
    X, y = dataprep.apply_scaler(trained.scaler, windows)
    pred, _ = model_forward(trained.model, X, training=False)
    return pred, y


# ---------------------------------------------------------------------------
# persistence: binary parameter snapshot + JSON sidecar of the three Sidecar keys


def snapshot_slots(model):
    """(name, view of the value, is_bias) in the v01 snapshot order: per cell
    and gate k, prefix.W_<gate> (Wx[k]), .U_<gate> (Wh[k]) and .b_<gate> (b[k]);
    then the head parameters whole."""
    for cell in model.cells():
        for k, gate in enumerate(GATES):
            for name, p in (("W", cell.Wx), ("U", cell.Wh), ("b", cell.b)):
                yield f"{cell.prefix}.{name}_{gate}", p.value[k], p.is_bias
    for p in model.head:
        yield p.name, p.value, p.is_bias


def sidecar_path(bin_path):
    """The .json sidecar that goes with a model's .bin snapshot."""
    return Path(bin_path).with_suffix(".json")


def save_model(trained, bin_path):
    slots = snapshot_slots(trained.model)
    save_params([Parameter(name, v, is_bias) for name, v, is_bias in slots], bin_path)
    sidecar = Sidecar(spec=asdict(trained.model.spec), scaler=trained.scaler.to_dict(),
                      best_epoch=trained.best_epoch)
    with open(sidecar_path(bin_path), "w", encoding="utf-8") as f:
        json.dump(asdict(sidecar), f, indent=2)
        f.write("\n")


def load_model(bin_path):
    """The TrainedModel save_model wrote to bin_path and its sidecar; a spec
    missing a field, a slot the snapshot leaves empty or misshapes, or a
    parameter the spec does not name, raises ValidationError naming the files."""
    json_path = sidecar_path(bin_path)
    sidecar = build(Sidecar, read_object(json_path, "model sidecar"), str(json_path))
    missing = [f.name for f in fields(ModelSpec) if f.name not in sidecar.spec]
    if missing:  # save_model writes every field: none may fall back to a default
        raise ValidationError(f"{json_path} spec: missing keys {missing}")
    spec = build(ModelSpec, sidecar.spec, f"{json_path} spec")
    model = Model(spec, len(spec.columns))
    stored = {p.name: p.value for p in load_params(bin_path)}
    for name, value, _ in snapshot_slots(model):
        if name not in stored:
            raise ValidationError(f"{bin_path}: snapshot is missing parameter {name}")
        if stored[name].shape != value.shape:
            raise ValidationError(
                f"{bin_path}: snapshot shape mismatch for {name}: the spec in "
                f"{json_path} implies {value.shape}, the snapshot stores "
                f"{stored[name].shape}")
        value[...] = stored.pop(name)
    if stored:
        raise ValidationError(
            f"{bin_path}: the spec in {json_path} does not name snapshot "
            f"parameters {', '.join(stored)}")
    scaler = Scaler.from_dict(sidecar.scaler, spec.columns, str(json_path))
    return TrainedModel(model, scaler, sidecar.best_epoch)
