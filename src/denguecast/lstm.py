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

Architectures: plain (one layer, last hidden state to the head), stacked
(each layer consumes the full hidden sequence of the one below),
bidirectional (forward and reversed passes concatenated), and the stacked
bidirectional combination. The head is a ReLU dense layer followed by a
linear scalar output. Gradients are hand-derived and exact; dropout sits
between layers and before the head during training.

All tensors are batched: a batch of windows is (B, t, F). Saved models keep
the PSNAPv01 per-gate parameter names (layerN.dir.W_i, .U_i, .b_i, ...): see
snapshot_slots.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import dataprep
from .dataprep import CLIMATE_FEATURES, VARIANTS, Scaler, window_columns
from .errors import DivergenceError, ValidationError
from .nn_core import (
    Adam,
    Parameter,
    derive_seed,
    dropout,
    l2_penalty,
    load_params,
    make_rng,
    mse,
    relu,
    save_params,
    sigmoid,
    zero_grads,
)
from .specs import from_json, read_object

ARCHITECTURES = ("plain", "stacked", "bidir", "bidir_stacked")

# Training has diverged once a finite train or validation loss exceeds this
# multiple of the epoch-0 training loss. Adam moves each weight by about lr per
# step, so a runaway rate grows the loss without ever overflowing float64.
DIVERGENCE_FACTOR = 1e6


@dataclass(frozen=True)
class ModelSpec:
    """One model configuration; its fields are checked here and nowhere else."""
    arch: str = "stacked"
    num_layers: int = 4
    hidden: int = 32
    dropout: float = 0.2
    epochs: int = 3000
    l2_lambda: float = 0.0
    timesteps: int = 3
    variant: str = "II"
    seed: int = 0
    predictors: tuple[str, ...] = CLIMATE_FEATURES  # distinct climate columns of a row

    def __post_init__(self):
        # a tuple, so a spec given a list compares equal to one given a tuple
        object.__setattr__(self, "predictors", tuple(self.predictors))
        if self.arch not in ARCHITECTURES:
            raise ValidationError(f"unknown architecture {self.arch!r}")
        if self.arch in ("plain", "bidir") and self.num_layers != 1:
            raise ValidationError(f"{self.arch} requires num_layers=1, got {self.num_layers}")
        if self.arch in ("stacked", "bidir_stacked") and self.num_layers < 2:
            raise ValidationError(f"{self.arch} requires num_layers>=2, got {self.num_layers}")
        if self.hidden < 1:
            raise ValidationError(f"hidden width must be >= 1, got {self.hidden}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.l2_lambda < 0:
            raise ValidationError(f"l2_lambda must be >= 0, got {self.l2_lambda}")
        if self.timesteps < 2:
            raise ValidationError(f"timesteps must be >= 2, got {self.timesteps}")
        if self.variant not in VARIANTS:
            raise ValidationError(
                f"variant must be {' or '.join(VARIANTS)}, got {self.variant!r}")
        for i, p in enumerate(self.predictors):
            if p not in CLIMATE_FEATURES:
                raise ValidationError(f"unknown predictor {p!r}")
            if p in self.predictors[:i]:
                raise ValidationError(f"predictor {p!r} repeats")

    @property
    def bidirectional(self):
        return self.arch in ("bidir", "bidir_stacked")


@dataclass(frozen=True)
class TrainCfg:
    """Train share of the chronological split, validation carve, Adam's rate."""
    ratio: float = 0.85
    validation_fraction: float = 0.15
    lr: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise ValidationError(f"ratio must lie in (0, 1), got {self.ratio}")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValidationError(
                f"validation_fraction must lie in [0, 1), got {self.validation_fraction}")
        if not self.lr > 0.0:
            raise ValidationError(f"lr must be > 0, got {self.lr}")


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
    """One LSTM step over a batch; returns (h, c, cache for the backward pass)."""
    if x_t.ndim != 2 or x_t.shape[1] != cell.input_dim:
        raise ValidationError(f"expected input (B, {cell.input_dim}), got {x_t.shape}")
    if h_prev.shape != (x_t.shape[0], cell.hidden) or c_prev.shape != h_prev.shape:
        raise ValidationError(
            f"state shapes {h_prev.shape}/{c_prev.shape} inconsistent with "
            f"batch {x_t.shape[0]} and hidden {cell.hidden}"
        )
    a = np.matmul(x_t, cell.Wx.value.transpose(0, 2, 1))  # (4, B, H)
    a += np.matmul(h_prev, cell.Wh.value.transpose(0, 2, 1))
    a += cell.b.value[:, None, :]
    acts = sigmoid(a)  # the g block is replaced by its tanh
    np.tanh(a[2], out=acts[2])
    i, f, g, o = acts
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    cache = {"x": x_t, "h_prev": h_prev, "c_prev": c_prev, "acts": acts, "tc": tc}
    return h, c, cache


def cell_backward(dh, dc_carry, cache, cell, need_dx=True, first_step=False):
    """Backward through one step; accumulates the weight gradients in place.
    Returns (dx, dh_prev, dc_prev); dx is None unless need_dx. A first step
    started from the zero state: it skips Wh, whose gradient term there is
    zero, and returns None for dh_prev and dc_prev."""
    acts, tc = cache["acts"], cache["tc"]
    i, f, g, o = acts
    dct = dc_carry + dh * o * (1.0 - tc * tc)
    da = np.empty_like(acts)
    da[0] = dct * g * i * (1.0 - i)
    da[1] = dct * cache["c_prev"] * f * (1.0 - f)
    da[2] = dct * i * (1.0 - g * g)
    da[3] = dh * tc * o * (1.0 - o)
    da_t = da.transpose(0, 2, 1)
    cell.Wx.grad += np.matmul(da_t, cache["x"])
    cell.b.grad += da.sum(axis=1)
    # summing over axis 0 adds the gates in GATES order
    dx = np.matmul(da, cell.Wx.value).sum(axis=0) if need_dx else None
    if first_step:
        return dx, None, None
    cell.Wh.grad += np.matmul(da_t, cache["h_prev"])
    dh_prev = np.matmul(da, cell.Wh.value).sum(axis=0)
    return dx, dh_prev, dct * f


def sequence_forward(window, cell, direction="forward"):
    """Run a cell over a window (or batch of windows) from zero initial state.

    The backward direction iterates rows t-1..0 and the output is re-reversed,
    so row s of the result always corresponds to input row s. Returns
    (hidden sequence, per-step caches in processing order).
    """
    if direction not in ("forward", "backward"):
        raise ValidationError(f"direction must be forward or backward, got {direction!r}")
    X = np.asarray(window, dtype=np.float64)
    single = X.ndim == 2
    if single:
        X = X[None]
    if X.ndim != 3:
        raise ValidationError(f"expected (B, t, F) or (t, F), got {X.shape}")
    B, t, F = X.shape
    if F != cell.input_dim:
        raise ValidationError(f"window has {F} features, cell expects {cell.input_dim}")
    Xp = X[:, ::-1, :] if direction == "backward" else X
    h = np.zeros((B, cell.hidden))
    c = np.zeros((B, cell.hidden))
    hs = []
    caches = []
    for s in range(t):
        h, c, cache = cell_forward(Xp[:, s, :], h, c, cell)
        hs.append(h)
        caches.append(cache)
    seq = np.stack(hs, axis=1)
    if direction == "backward":
        seq = seq[:, ::-1, :]
    return (seq[0] if single else seq), caches


def sequence_backward(d_seq, caches, cell, direction="forward", need_dx=True):
    """Backward through a whole sequence; d_seq is indexed like the input rows.

    Returns the gradient w.r.t. the input rows, or None unless need_dx.
    """
    B, t, H = d_seq.shape
    if len(caches) != t or caches[0]["x"].shape[0] != B:
        raise ValidationError("cache does not match the gradient being propagated")
    dp = d_seq[:, ::-1, :] if direction == "backward" else d_seq
    dh_carry = np.zeros((B, cell.hidden))
    dc_carry = np.zeros((B, cell.hidden))
    dXp = np.empty((B, t, cell.input_dim)) if need_dx else None
    for s in reversed(range(t)):
        dx, dh_carry, dc_carry = cell_backward(
            dp[:, s, :] + dh_carry, dc_carry, caches[s], cell,
            need_dx=need_dx, first_step=s == 0,
        )
        if need_dx:
            dXp[:, s, :] = dx
    if not need_dx:
        return None
    return dXp[:, ::-1, :] if direction == "backward" else dXp


# ---------------------------------------------------------------------------
# whole models


class Model:
    """Parameters of one configured network: LSTM layers plus the dense head."""

    def __init__(self, spec, input_dim):
        self.spec = spec
        self.input_dim = input_dim
        rng = make_rng(derive_seed(spec.seed, "init"))
        H = spec.hidden
        self.layers = []
        dim = input_dim
        for li in range(spec.num_layers):
            fwd = LstmCellParams(f"layer{li}.fwd", dim, H, rng)
            bwd = (LstmCellParams(f"layer{li}.bwd", dim, H, rng)
                   if spec.bidirectional else None)
            self.layers.append((fwd, bwd))
            dim = 2 * H if spec.bidirectional else H
        lim1 = math.sqrt(1.0 / dim)  # dim is now the head's feature width
        lim2 = math.sqrt(1.0 / H)
        self.head_W1 = Parameter("head.W1", rng.uniform(-lim1, lim1, (H, dim)))
        self.head_b1 = Parameter("head.b1", np.zeros(H), is_bias=True)
        self.head_w2 = Parameter("head.w2", rng.uniform(-lim2, lim2, (1, H)))
        self.head_b2 = Parameter("head.b2", np.zeros(1), is_bias=True)
        self.head = [self.head_W1, self.head_b1, self.head_w2, self.head_b2]

    def cells(self):
        """LSTM cells in layer order, each forward cell before its backward one."""
        return [cell for layer in self.layers for cell in layer if cell is not None]

    def parameters(self):
        return [p for cell in self.cells() for p in cell.parameters()] + self.head


def count_parameters(model):
    return sum(p.value.size for p in model.parameters())


def model_forward(model, window, training=False, rng=None):
    """Scalar prediction per window; returns (predictions (B,), cache)."""
    spec = model.spec
    X = np.asarray(window, dtype=np.float64)
    if X.ndim != 3:
        raise ValidationError(f"expected (B, t, F), got {X.shape}")
    if X.shape[2] != model.input_dim:
        raise ValidationError(
            f"window has {X.shape[2]} features, model expects {model.input_dim}")
    if training and spec.dropout > 0.0 and rng is None:
        raise ValidationError("training with dropout requires an rng")

    seq = X
    layer_caches = []
    feature = None
    last = len(model.layers) - 1
    for li, (fwd, bwd) in enumerate(model.layers):
        fwd_seq, fwd_caches = sequence_forward(seq, fwd, "forward")
        lc = {"fwd_caches": fwd_caches, "bwd_caches": None, "mask": None}
        if bwd is not None:
            bwd_seq, bwd_caches = sequence_forward(seq, bwd, "backward")
            lc["bwd_caches"] = bwd_caches
            out_seq = np.concatenate([fwd_seq, bwd_seq], axis=2)
            # final state of each direction: forward's last row, backward's
            # first row (the backward cell ends on input row 0)
            feature = np.concatenate([fwd_seq[:, -1, :], bwd_seq[:, 0, :]], axis=1)
        else:
            out_seq = fwd_seq
            feature = fwd_seq[:, -1, :]
        if li < last:
            out_seq, mask = dropout(out_seq, spec.dropout, rng, training)
            lc["mask"] = mask
            seq = out_seq
        layer_caches.append(lc)

    feat_dropped, feat_mask = dropout(feature, spec.dropout, rng, training)
    a1 = feat_dropped @ model.head_W1.value.T + model.head_b1.value
    z1 = relu(a1)
    pred = (z1 @ model.head_w2.value.T + model.head_b2.value)[:, 0]
    cache = {
        "batch": X.shape[0],
        "timesteps": X.shape[1],
        "layers": layer_caches,
        "feat_dropped": feat_dropped,
        "feat_mask": feat_mask,
        "a1": a1,
        "z1": z1,
    }
    return pred, cache


def model_backward(model, cache, d_pred):
    """Accumulate exact gradients of every parameter from d loss / d prediction."""
    d_pred = np.asarray(d_pred, dtype=np.float64).reshape(-1)
    if d_pred.shape[0] != cache["batch"]:
        raise ValidationError(
            f"cache batch {cache['batch']} does not match gradient length {d_pred.shape[0]}"
        )
    H = model.spec.hidden

    dp = d_pred[:, None]
    model.head_w2.grad += dp.T @ cache["z1"]
    model.head_b2.grad += dp.sum(axis=0)
    dz1 = dp @ model.head_w2.value
    da1 = dz1 * (cache["a1"] > 0.0)
    model.head_W1.grad += da1.T @ cache["feat_dropped"]
    model.head_b1.grad += da1.sum(axis=0)
    d_feature = (da1 @ model.head_W1.value) * cache["feat_mask"]

    d_above = None  # gradient w.r.t. the (dropped) output sequence of the layer
    last = len(model.layers) - 1
    for li in range(last, -1, -1):
        fwd, bwd = model.layers[li]
        lc = cache["layers"][li]
        if li == last:
            # the feature is forward's last row and backward's first row
            d_out = np.zeros((cache["batch"], cache["timesteps"], d_feature.shape[1]))
            d_out[:, -1, :H] = d_feature[:, :H]
            d_out[:, 0, H:] = d_feature[:, H:]
        else:
            d_out = d_above * lc["mask"]
        need_dx = li > 0  # nothing reads the gradient w.r.t. the input windows
        d_above = sequence_backward(d_out[:, :, :H], lc["fwd_caches"], fwd,
                                    "forward", need_dx=need_dx)
        if bwd is not None:
            d_bwd = sequence_backward(d_out[:, :, H:], lc["bwd_caches"], bwd,
                                      "backward", need_dx=need_dx)
            if need_dx:
                d_above = d_above + d_bwd


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainedModel:
    spec: ModelSpec
    model: Model
    scaler: Scaler  # scales the model's inputs; fitted on training-period records
    loss_history: list  # (train_mse, validation_mse) per epoch
    best_epoch: int
    train_cfg: TrainCfg = TrainCfg()  # experiments.run_config records its own


@dataclass(frozen=True, kw_only=True)
class Sidecar:
    """The JSON object of a model's .json sidecar, in file order."""
    spec: dict
    # a sidecar written before models recorded their TrainCfg has no "train"
    train: dict = field(default_factory=dict)
    input_dim: int
    scaler: dict
    best_epoch: int
    loss_history: tuple[tuple[float, ...], ...]  # (train_mse, validation_mse) per epoch


def carve_validation(windows, fraction):
    """Chronological carve: the last fraction of an ordered window list.

    With too few windows for a non-empty carve, validation falls back to the
    training windows themselves.
    """
    n = len(windows)
    n_val = int(math.floor(fraction * n))
    if n_val == 0:
        return list(windows), list(windows)
    return list(windows[: n - n_val]), list(windows[n - n_val :])


def train(spec, split, validation_fraction=0.15, *, scaler, lr=1e-3):
    """Full-batch training with Adam; keeps the best-validation snapshot.

    The last validation_fraction of the (chronologically ordered) train split
    is carved off for validation. Train and validation MSE are recorded every
    epoch; the returned parameters are the snapshot with the lowest
    validation MSE (no early stopping). Raises DivergenceError when a loss is
    non-finite or exceeds DIVERGENCE_FACTOR times a positive epoch-0 training loss.
    The windows are unscaled, as build_windows makes them; scaler, whose
    ranges are in window column order, scales their features and targets
    (dataprep.apply_scaler) and stays with the model, which learns and
    predicts in its scaled units. spec.predictors and spec.variant are only
    recorded, for predict to window new records the same way.
    """
    if not split.train:
        raise ValidationError("training split is empty")
    train_w, val_w = carve_validation(split.train, validation_fraction)
    # through the module, so a wrapped dataprep.apply_scaler sees the calls
    X_tr, y_tr = dataprep.apply_scaler(scaler, train_w)
    X_val, y_val = dataprep.apply_scaler(scaler, val_w)
    if X_tr.shape[1] != spec.timesteps:
        raise ValidationError(
            f"windows have {X_tr.shape[1]} timesteps, spec says {spec.timesteps}"
        )

    model = Model(spec, X_tr.shape[2])
    params = model.parameters()
    opt = Adam(lr=lr)
    drop_rng = make_rng(derive_seed(spec.seed, "dropout"))

    history = []
    best_mse = math.inf
    best_values = None
    best_epoch = -1
    for epoch in range(spec.epochs):
        zero_grads(params)
        pred, cache = model_forward(model, X_tr, training=True, rng=drop_rng)
        train_mse = mse(y_tr, pred)
        model_backward(model, cache, (2.0 / y_tr.size) * (pred - y_tr))
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
                    f"{DIVERGENCE_FACTOR:g} x the epoch-0 training loss {loss0:.3g}",
                )
        history.append((train_mse, val_mse))
        if val_mse < best_mse:
            best_mse = val_mse
            best_values = [p.value.copy() for p in params]
            best_epoch = epoch
    if best_values is not None:
        for p, v in zip(params, best_values):
            p.value = v
    return TrainedModel(
        spec=spec, model=model, scaler=scaler, loss_history=history,
        best_epoch=best_epoch,
    )


def predict_batch(trained, windows):
    """The model's output per window, in the scaled units of the targets it
    was trained on; experiments.evaluate de-scales it to counts.

    The windows are unscaled, as build_windows makes them; the model's own
    scaler scales them (dataprep.apply_scaler). Never clamped: a fitted model
    may emit small negative values.
    """
    expected = (trained.spec.timesteps, trained.model.input_dim)
    for w in windows:
        if w.features.shape != expected:
            raise ValidationError(f"windows {w.features.shape} do not match model {expected}")
    X, _ = dataprep.apply_scaler(trained.scaler, windows)
    pred, _ = model_forward(trained.model, X, training=False)
    return pred


# ---------------------------------------------------------------------------
# persistence: binary parameter snapshot + JSON sidecar


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


def save_model(trained, bin_path, sidecar_path):
    slots = snapshot_slots(trained.model)
    save_params([Parameter(name, v, is_bias) for name, v, is_bias in slots], bin_path)
    sidecar = Sidecar(
        spec=asdict(trained.spec),
        train=asdict(trained.train_cfg),
        input_dim=trained.model.input_dim,
        scaler=trained.scaler.to_dict(),
        best_epoch=trained.best_epoch,
        loss_history=tuple(trained.loss_history),
    )
    with open(sidecar_path, "w", encoding="utf-8") as f:
        json.dump(asdict(sidecar), f, indent=2)
        f.write("\n")


def load_model(bin_path, sidecar_path):
    sidecar = from_json(Sidecar, read_object(sidecar_path, "model sidecar"),
                        str(sidecar_path))
    spec = from_json(ModelSpec, sidecar.spec, f"{sidecar_path} spec")
    train_cfg = from_json(TrainCfg, sidecar.train, f"{sidecar_path} train")
    model = Model(spec, sidecar.input_dim)
    stored = {p.name: p.value for p in load_params(bin_path)}
    for name, value, _ in snapshot_slots(model):
        if name not in stored:
            raise ValidationError(f"snapshot is missing parameter {name}")
        if stored[name].shape != value.shape:
            raise ValidationError(f"snapshot shape mismatch for {name}")
        value[...] = stored[name]
    return TrainedModel(
        spec=spec,
        model=model,
        scaler=Scaler.from_dict(sidecar.scaler,
                                window_columns(spec.predictors, spec.variant),
                                str(sidecar_path)),
        loss_history=list(sidecar.loss_history),
        best_epoch=sidecar.best_epoch,
        train_cfg=train_cfg,
    )
