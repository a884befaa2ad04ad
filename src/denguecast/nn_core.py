"""Deterministic float64 numerical kernel.

Matrices throughout the package are C-contiguous float64 numpy arrays.
Everything here is bit-reproducible for a fixed seed: the only sanctioned
randomness source is a PCG64 generator created by make_rng, and subsystem
seeds are derived by labeled hashing so independent components never share
a stream.
"""

from __future__ import annotations

import hashlib
import math
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
    return np.maximum(x, 0.0)


def sigmoid(x, out=None):
    """Overflow-safe, branch-free logistic: with e = exp(-|x|) <= 1 it is
    where(x < 0, e, 1) / (1 + e), the numerator computed as exp(min(x, 0)).
    In place where possible: gate-sized temporaries set the peak memory. The
    result goes to out if given, which may be x itself."""
    den = np.exp(-np.abs(x))
    den += 1.0
    out = np.minimum(x, 0.0, out=out)
    np.exp(out, out=out)
    out /= den
    return out


def dropout(x, rate, rng):
    """Inverted dropout for a training pass: survivors are scaled by
    1/(1-rate). Inference applies no dropout and does not call this.

    Returns (output, keep): keep is the boolean array of survivors, an eighth
    of the float mask's bytes, and the backward pass multiplies by
    dropout_mask(keep, rate), the mask the output was made with. At rate 0
    the result is the input unchanged, keep is all True and no random number
    is drawn.
    """
    if rate == 0.0:
        return x.copy(), np.ones(x.shape, dtype=bool)
    keep = rng.random(x.shape) >= rate
    return x * dropout_mask(keep, rate), keep


def dropout_mask(keep, rate):
    """The float mask of a dropout keep array: 1/(1-rate) where kept, else 0."""
    return keep.astype(np.float64) / (1.0 - rate)


def mse(actual, predicted):
    """Mean squared error (1/N) * sum((actual_i - predicted_i)^2) of two
    non-empty vectors of one length N."""
    a = np.asarray(actual, dtype=np.float64).reshape(-1)
    p = np.asarray(predicted, dtype=np.float64).reshape(-1)
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


def zero_grads(params):
    for p in params:
        p.zero_grad()


def l2_penalty(params, lam):
    """Add 2*lambda*w, the gradient of the penalty lambda*sum(w^2), to each
    weight gradient; biases are excluded. The gradients accumulate in place,
    so zero_grads must have run first."""
    if lam:
        for p in params:
            if not p.is_bias:
                p.grad += 2.0 * lam * p.value


ADAM_BETA1 = 0.9    # decay of the gradient's running mean
ADAM_BETA2 = 0.999  # decay of the squared gradient's running mean
ADAM_EPS = 1e-8     # added to the root of the second moment


class Adam:
    """Adam with bias correction; moment state persists across steps. The
    learning rate is a specs.ModelSpec's. step reads each parameter's gradient,
    so zero_grads and the backward pass must have run first."""

    def __init__(self, lr):
        self.lr = lr
        self.t = 0
        self._m = {}
        self._v = {}

    def step(self, params):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for p in params:
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
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


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
            f.write(struct.pack("<BB", p.is_bias, p.value.ndim))
            f.write(struct.pack(f"<{p.value.ndim}I", *p.value.shape))
            f.write(np.ascontiguousarray(p.value, dtype="<f8").tobytes())


def load_params(path):
    """The Parameters of a snapshot written by save_params. A file that cannot
    be read or is not exactly one snapshot (bad magic, a name that is not UTF-8
    or repeats, an early end, bytes after the end) raises ValidationError."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    if data[:8] != _MAGIC:
        raise ValidationError(f"{path}: bad magic {data[:8]!r}")
    pos = 8

    def read(n):
        nonlocal pos
        if pos + n > len(data):
            raise ValidationError(f"{path}: snapshot ends early")
        pos += n
        return data[pos - n:pos]

    (count,) = struct.unpack("<I", read(4))
    params = []
    for _ in range(count):
        (name_len,) = struct.unpack("<H", read(2))
        try:
            name = read(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise ValidationError(f"{path}: a parameter name is not UTF-8") from None
        if any(p.name == name for p in params):
            raise ValidationError(f"{path}: parameter {name} repeats")
        bias_flag, ndim = struct.unpack("<BB", read(2))
        shape = struct.unpack(f"<{ndim}I", read(4 * ndim))
        values = np.frombuffer(read(8 * math.prod(shape)), dtype="<f8")
        params.append(Parameter(name, values.reshape(shape), is_bias=bool(bias_flag)))
    if pos < len(data):
        raise ValidationError(f"{path}: snapshot goes on after its last parameter")
    return params
