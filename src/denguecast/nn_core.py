"""Deterministic float64 numerical kernel.

Matrices throughout the package are C-contiguous float64 numpy arrays.
Everything here is bit-reproducible for a fixed seed: the only sanctioned
randomness source is a PCG64 generator created by make_rng, and subsystem
seeds are derived by labeled hashing so independent components never share
a stream.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .errors import ValidationError


def make_rng(seed):
    """Create a PCG64 generator; identical seed gives an identical stream."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def derive_seed(base_seed, label):
    """Stable 63-bit seed for a named subsystem, from SHA-256 of (seed, label)."""
    digest = hashlib.sha256(f"{int(base_seed)}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


# ---------------------------------------------------------------------------
# elementwise kernels


def relu(x):
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0)


def sigmoid(x):
    """Overflow-safe, branch-free logistic: with e = exp(-|x|) <= 1 it is
    where(x < 0, e, 1) / (1 + e), the numerator computed as exp(min(x, 0)).
    In place where possible: gate-sized temporaries set the peak memory."""
    x = np.asarray(x, dtype=np.float64)
    den = np.exp(-np.abs(x))
    den += 1.0
    out = np.minimum(x, 0.0)
    np.exp(out, out=out)
    out /= den
    return out


def dropout(x, rate, rng, training=True):
    """Inverted dropout: survivors are scaled by 1/(1-rate) at train time.

    Returns (output, mask). The mask already carries the 1/(1-rate) factor,
    so the backward pass is a plain multiply by it. At inference the result
    is the input unchanged and the mask is all ones.
    """
    x = np.asarray(x, dtype=np.float64)
    if not training or rate == 0.0:
        return x.copy(), np.ones_like(x)
    keep = rng.random(x.shape) >= rate
    mask = keep.astype(np.float64) / (1.0 - rate)
    return x * mask, mask


def mse(actual, predicted):
    """Mean squared error (1/N) * sum((actual_i - predicted_i)^2)."""
    a = np.asarray(actual, dtype=np.float64).reshape(-1)
    p = np.asarray(predicted, dtype=np.float64).reshape(-1)
    if a.shape != p.shape:
        raise ValidationError(f"length mismatch: {a.shape[0]} vs {p.shape[0]}")
    if a.size == 0:
        raise ValidationError("mse of empty vectors")
    d = a - p
    return float(d @ d / a.size)


# ---------------------------------------------------------------------------
# parameters, regularization, optimizer


class Parameter:
    """A named weight tensor plus its gradient accumulator."""

    __slots__ = ("name", "value", "grad", "is_bias")

    def __init__(self, name, value, is_bias=False):
        self.name = name
        self.value = np.array(value, dtype=np.float64)
        self.grad = None
        self.is_bias = bool(is_bias)

    def zero_grad(self):
        self.grad = np.zeros_like(self.value)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def zero_grads(params):
    for p in params:
        p.zero_grad()


def l2_penalty(params, lam):
    """Add lambda*sum(w^2) to the loss and 2*lambda*w to each weight gradient.

    Biases are excluded. Returns the loss term; gradient contributions are
    accumulated in place.
    """
    if lam == 0:
        return 0.0
    loss = 0.0
    for p in params:
        if p.is_bias:
            continue
        if p.grad is None:
            raise ValidationError(f"gradient of {p.name} not initialized")
        loss += lam * float(np.sum(p.value * p.value))
        p.grad += 2.0 * lam * p.value
    return loss


class Adam:
    """Adam with bias correction; moment state persists across steps."""

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {}
        self._v = {}

    def step(self, params):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p in params:
            if p.grad is None:
                raise ValidationError(f"gradient of {p.name} not populated before step")
            m = self._m.get(p.name)
            if m is None:
                m = np.zeros_like(p.value)
                self._m[p.name] = m
                self._v[p.name] = np.zeros_like(p.value)
            v = self._v[p.name]
            m *= b1
            m += (1.0 - b1) * p.grad
            v *= b2
            v += (1.0 - b2) * p.grad * p.grad
            m_hat = m / (1.0 - b1**self.t)
            v_hat = v / (1.0 - b2**self.t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(loss_and_grads, params, eps=1e-5, seed=0, max_coords=None):
    """Central-difference check of analytic gradients.

    loss_and_grads() must be pure and deterministic: it evaluates the loss at
    the parameters' current values and populates every Parameter.grad. Each
    sampled coordinate is perturbed by +/-eps and the relative error
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8) is computed;
    the maximum over all sampled coordinates is returned.
    """
    base = float(loss_and_grads())
    if not np.isfinite(base):
        raise ValidationError(f"non-finite loss {base} at evaluation point")
    analytic = {}
    for p in params:
        if p.grad is None:
            raise ValidationError(f"gradient of {p.name} not populated by loss_and_grads")
        analytic[p.name] = p.grad.copy()

    rng = make_rng(seed)
    worst = 0.0
    for p in params:
        flat = p.value.reshape(-1)
        grad_flat = analytic[p.name].reshape(-1)
        n = flat.size
        if max_coords is None or n <= max_coords:
            coords = range(n)
        else:
            coords = sorted(rng.choice(n, size=max_coords, replace=False).tolist())
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            lp = float(loss_and_grads())
            flat[i] = orig - eps
            lm = float(loss_and_grads())
            flat[i] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise ValidationError(f"non-finite loss while perturbing {p.name}[{i}]")
            numeric = (lp - lm) / (2.0 * eps)
            a = grad_flat[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
    # the perturbed evaluations overwrote grads; restore the checked ones
    for p in params:
        p.grad = analytic[p.name]
    return worst


# ---------------------------------------------------------------------------
# parameter snapshots
#
# Binary layout (all little-endian):
#   8 bytes   magic b"PSNAPv01"
#   u32       parameter count
#   per parameter:
#     u16     name length, then that many UTF-8 bytes
#     u8      bias flag (0 or 1)
#     u8      ndim
#     u32*ndim  shape
#     f64*prod(shape)  raw values, row-major

_MAGIC = b"PSNAPv01"


def save_params(params, path):
    """Write a deterministic binary snapshot of the given parameters."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(params)))
        for p in params:
            name = p.name.encode("utf-8")
            f.write(struct.pack("<H", len(name)))
            f.write(name)
            f.write(struct.pack("<B", 1 if p.is_bias else 0))
            f.write(struct.pack("<B", p.value.ndim))
            f.write(struct.pack(f"<{p.value.ndim}I", *p.value.shape))
            f.write(np.ascontiguousarray(p.value, dtype="<f8").tobytes())


def load_params(path):
    """Read a snapshot written by save_params; returns a list of Parameters.
    A file that cannot be opened or ends early raises ValidationError."""
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None

    def read(n):
        data = f.read(n)
        if len(data) < n:
            raise ValidationError(f"{path}: snapshot ends early")
        return data

    with f:
        magic = f.read(8)
        if magic != _MAGIC:
            raise ValidationError(f"{path}: bad magic {magic!r}")
        (count,) = struct.unpack("<I", read(4))
        params = []
        for _ in range(count):
            (name_len,) = struct.unpack("<H", read(2))
            name = read(name_len).decode("utf-8")
            (bias_flag,) = struct.unpack("<B", read(1))
            (ndim,) = struct.unpack("<B", read(1))
            shape = struct.unpack(f"<{ndim}I", read(4 * ndim))
            n = int(np.prod(shape)) if ndim else 1
            data = np.frombuffer(read(8 * n), dtype="<f8").reshape(shape)
            p = Parameter(name, data.astype(np.float64), is_bias=bool(bias_flag))
            params.append(p)
    return params
