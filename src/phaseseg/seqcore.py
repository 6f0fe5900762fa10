"""Differentiable layer primitives over (T, channels) arrays.

Everything here operates on dense (T, channels) float arrays where T is the
frame index. The primitives (dilated 1-D convolution, 1x1 convolution, ReLU,
row softmax) are pure functions with hand-written backward passes; they are
the building blocks the multi-stage temporal model is assembled from.

Arrays are checked where they enter the program (`synthgen.load_features`
and `mstcnpp.forward` call `as_matrix`); the primitives take them as they
are and check only their own contracts: operand shapes, and finite logits.

All primitives preserve sequence length: dilated convolutions use symmetric
zero padding of (k-1)/2 * dilation frames per side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not satisfy a layer contract."""


def as_matrix(x, name: str = "input", dtype=np.float64) -> np.ndarray:
    """Coerce to a 2-D float array; bool and integer input becomes dtype."""
    arr = np.asarray(x)
    if arr.dtype.kind not in "biuf":  # complex, dates, strings, objects
        raise ValueError(f"{name} must be real numbers, got dtype {arr.dtype}")
    if arr.dtype.kind != "f":
        arr = arr.astype(dtype)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D (T, channels), got shape {arr.shape}")
    return arr


@dataclass
class LayerGrad:
    """Gradients produced by a primitive's backward pass.

    Shapes mirror the forward operands exactly; entries are None for
    primitives without the corresponding parameter.
    """

    d_input: np.ndarray
    d_weights: np.ndarray | None = None
    d_bias: np.ndarray | None = None


# ---------------------------------------------------------------------------
# dilated 1-D convolution
# ---------------------------------------------------------------------------

def _check_dconv_args(x, weights, bias, dilation):
    if weights.ndim != 3:
        raise ShapeError(f"kernel must be (Cout, Cin, k), got shape {weights.shape}")
    cout, cin, k = weights.shape
    if k % 2 != 1:
        raise ShapeError(f"kernel size must be odd, got k={k}")
    if dilation < 1 or int(dilation) != dilation:
        raise ValueError(f"dilation must be a positive integer, got {dilation}")
    if x.shape[1] != cin:
        raise ShapeError(f"input has {x.shape[1]} channels but kernel expects {cin}")
    if bias.shape != (cout,):
        raise ShapeError(f"bias must have shape ({cout},), got {bias.shape}")
    return cout, cin, k


# OpenBLAS computes products with few rows (one row, or roughly fewer than
# 1200 output entries) in kernels that round differently from the kernel of
# a long product. A tap whose valid range is shorter than this is multiplied
# over a window of at least this many rows of x (or all of x, when T is
# shorter), so every output row is rounded as in a full-length product.
_MIN_GEMM_ROWS = 64


def dilated_conv1d(x, weights, bias, dilation: int) -> np.ndarray:
    """Same-length dilated 1-D convolution over the time axis.

    out[t, co] = bias[co] + sum_{ci,j} weights[co, ci, j] * x[t + (j - (k-1)/2) * dilation, ci]
    with zero padding outside [0, T). No padded copy is built: each tap adds
    its product into the rows where it reads inside [0, T), in the order
    bias, tap 0, tap 1, ..., so the result is bit-equal to the padded form.
    """
    x = np.ascontiguousarray(x)
    weights = np.asarray(weights, dtype=x.dtype)
    bias = np.asarray(bias, dtype=x.dtype)
    cout, _, k = _check_dconv_args(x, weights, bias, int(dilation))
    dilation = int(dilation)
    t_len = x.shape[0]
    out = np.empty((t_len, cout), dtype=x.dtype)
    out[...] = bias
    for j in range(k):
        shift = (j - (k - 1) // 2) * dilation
        lo, hi = max(0, -shift), min(t_len, t_len - shift)
        if lo >= hi:
            continue  # the tap reads only padding
        rows = min(t_len, max(hi - lo, _MIN_GEMM_ROWS))
        start = min(lo + shift, t_len - rows)
        prod = x[start:start + rows] @ weights[:, :, j].T
        out[lo:hi] += prod[lo + shift - start:hi + shift - start]
    return out


def dilated_conv1d_backward(x, weights, dilation: int, grad_out) -> LayerGrad:
    """Analytic gradients of dilated_conv1d w.r.t. input, kernel and bias."""
    weights = np.asarray(weights, dtype=x.dtype)
    grad_out = np.asarray(grad_out, dtype=x.dtype)
    cout, cin, k = weights.shape
    dilation = int(dilation)
    t_len = x.shape[0]
    if grad_out.shape != (t_len, cout):
        raise ShapeError(f"upstream gradient must be ({t_len}, {cout}), got {grad_out.shape}")
    pad = (k - 1) // 2 * dilation
    xp = np.zeros((t_len + 2 * pad, cin), dtype=x.dtype)
    xp[pad:pad + t_len] = x
    d_w = np.empty_like(weights)
    d_xp = np.zeros_like(xp)
    for j in range(k):
        window = slice(j * dilation, j * dilation + t_len)
        d_w[:, :, j] = grad_out.T @ xp[window]
        d_xp[window] += grad_out @ weights[:, :, j]
    d_x = d_xp[pad:pad + t_len] if pad else d_xp
    return LayerGrad(d_input=d_x, d_weights=d_w, d_bias=grad_out.sum(axis=0))


# ---------------------------------------------------------------------------
# 1x1 convolution (per-frame affine map)
# ---------------------------------------------------------------------------

def conv1x1(x, weights, bias) -> np.ndarray:
    """Per-frame affine map: out[t] = weights @ x[t] + bias."""
    weights = np.asarray(weights, dtype=x.dtype)
    bias = np.asarray(bias, dtype=x.dtype)
    if weights.ndim != 2:
        raise ShapeError(f"1x1 weights must be (Cout, Cin), got shape {weights.shape}")
    if x.shape[1] != weights.shape[1]:
        raise ShapeError(f"input has {x.shape[1]} channels but weights expect {weights.shape[1]}")
    if bias.shape != (weights.shape[0],):
        raise ShapeError(f"bias must have shape ({weights.shape[0]},), got {bias.shape}")
    return x @ weights.T + bias


def conv1x1_backward(x, weights, grad_out) -> LayerGrad:
    """Analytic gradients of conv1x1 w.r.t. input, weights and bias."""
    weights = np.asarray(weights, dtype=x.dtype)
    grad_out = np.asarray(grad_out, dtype=x.dtype)
    if grad_out.shape != (x.shape[0], weights.shape[0]):
        raise ShapeError(f"upstream gradient shape {grad_out.shape} does not match output")
    return LayerGrad(
        d_input=grad_out @ weights,
        d_weights=grad_out.T @ x,
        d_bias=grad_out.sum(axis=0),
    )


# ---------------------------------------------------------------------------
# ReLU
# ---------------------------------------------------------------------------

def relu(x) -> np.ndarray:
    return np.maximum(np.asarray(x), 0)


def relu_backward(x, grad_out) -> LayerGrad:
    x = np.asarray(x)
    return LayerGrad(d_input=np.asarray(grad_out) * (x > 0))


# ---------------------------------------------------------------------------
# row softmax
# ---------------------------------------------------------------------------

def softmax_rows(logits) -> np.ndarray:
    """Numerically stable per-row softmax; rows of the result sum to 1."""
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits contain non-finite entries")
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def softmax_rows_backward(probs, grad_out) -> LayerGrad:
    """Gradient w.r.t. logits given the softmax output and upstream dL/dprobs."""
    g = np.asarray(grad_out, dtype=probs.dtype)
    if g.shape != probs.shape:
        raise ShapeError(f"upstream gradient shape {g.shape} does not match probs {probs.shape}")
    inner = (g * probs).sum(axis=1, keepdims=True)
    return LayerGrad(d_input=probs * (g - inner))
