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

import ctypes
import functools
import threading
from dataclasses import dataclass
from pathlib import Path

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

    d_input: np.ndarray | None  # None when the caller asked for parameter gradients only
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


# A tap's product is computed and added in chunks of at most this many rows,
# so its workspace stays small (1 MiB at F=256, float32) whatever T is. At the
# paper shape (T=5400, F=256, float32, 2 row blocks on a 2-core x86 VM) a
# segment call peaked at 180 MiB against 184 MiB with whole-block products,
# at the same speed; 512 rows gave 179 MiB and ran 5-10% slower.
_TAP_CHUNK = 1024


def rows_round_alike(cout: int) -> bool:
    """Whether a row of a product with cout output columns gets the same bits
    in a product of any other row span (at least _MIN_GEMM_ROWS rows).

    Measured with OpenBLAS on x86-64 (AVX-512), one and two BLAS threads,
    float32 and float64, products of up to 1500 rows: it held at every
    multiple of 8 from 64 to 512 columns, and failed at 16 (with 32 inputs),
    100, 130, 250, 255 and 257. Only widths where it held are cut into row
    chunks here or row blocks in mstcnpp.forward; every other width runs the
    products it always ran.
    """
    return cout % 8 == 0 and cout >= 64


@functools.cache
def openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, through
    ctypes, or None when this numpy carries no such library."""
    root = Path(np.__file__).parent
    for path in sorted([*root.parent.glob("numpy.libs/*openblas*"),
                        *root.glob(".dylibs/*openblas*")]):
        try:  # the library numpy already loaded: CDLL returns the same handle
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


class _OneBlasThread:
    """`with one_blas_thread:` holds numpy's OpenBLAS to one thread, where
    row blocks are the parallelism (otherwise each block's product would
    start BLAS threads of its own and oversubscribe the cores) or where a
    product's bits must not depend on BLAS's thread count. The count in
    force when the first holder entered is restored when the last one
    leaves, so regions may nest and overlap across threads. Without
    openblas_threads() it does nothing."""

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._api = self._restore = None

    def __enter__(self):
        with self._lock:
            if self._holders == 0:
                self._api = openblas_threads()
                if self._api is not None:
                    self._restore = self._api[0]()
                    self._api[1](1)
            self._holders += 1

    def __exit__(self, *exc):
        with self._lock:
            self._holders -= 1
            if self._holders == 0 and self._api is not None:
                self._api[1](self._restore)


one_blas_thread = _OneBlasThread()


def _chunk_rows(t_len: int, cout: int) -> int:
    return _TAP_CHUNK if rows_round_alike(cout) else t_len


def workspace_rows(t_len: int, n_rows: int, cout: int) -> int:
    """Rows of a work array that serves a dilated_conv1d or conv1x1 call
    over n_rows of T output rows with cout output columns."""
    return min(t_len, max(min(n_rows, _chunk_rows(t_len, cout)), _MIN_GEMM_ROWS))


def _row_range(t_len: int, rows) -> tuple[int, int]:
    lo, hi = (0, t_len) if rows is None else rows
    if not 0 <= lo < hi <= t_len:
        raise ValueError(f"row range [{lo}, {hi}) is not inside [0, {t_len})")
    return lo, hi


def _window(lo: int, hi: int, t_len: int) -> tuple[int, int]:
    """(start, rows) of the rows of x a product over rows [lo, hi) multiplies:
    [lo, hi) itself, widened to _MIN_GEMM_ROWS rows (or all of x) when shorter."""
    rows = min(t_len, max(hi - lo, _MIN_GEMM_ROWS))
    return min(lo, t_len - rows), rows


def _workspace(work, rows: int, cols: int, dtype) -> np.ndarray:
    if work is None:
        return np.empty((rows, cols), dtype=dtype)
    if work.shape[0] < rows or work.shape[1] != cols or work.dtype != dtype:
        raise ShapeError(f"workspace {work.shape} {work.dtype} cannot hold ({rows}, {cols}) {dtype}")
    return work


def _destination(out, rows: int, cols: int, dtype) -> np.ndarray:
    if out is None:
        return np.empty((rows, cols), dtype=dtype)
    if out.shape != (rows, cols) or out.dtype != dtype:
        raise ShapeError(f"output {out.shape} {out.dtype} is not ({rows}, {cols}) {dtype}")
    return out


def dilated_conv1d(x, weights, bias, dilation: int, out=None, rows=None,
                   work=None) -> np.ndarray:
    """Same-length dilated 1-D convolution over the time axis.

    out[t, co] = bias[co] + sum_{ci,j} weights[co, ci, j] * x[t + (j - (k-1)/2) * dilation, ci]
    with zero padding outside [0, T). No padded copy is built: each tap adds
    its product into the rows where it reads inside [0, T), in the order
    bias, tap 0, tap 1, .... The result is bit-equal to the padded form when
    rows_round_alike(Cout) holds or T < _MIN_GEMM_ROWS (every product then
    spans all of x); at other widths, such as 250, the two can differ in the
    last bits, though each stays the same from run to run.

    rows = (lo, hi) computes only output rows [lo, hi) (default: all T) into
    out, an array of shape (hi - lo, Cout), allocated when not given. Each
    tap's product goes through work, an array of at least
    workspace_rows(T, hi - lo, Cout) rows and Cout columns, allocated when not
    given. Every row is bit-equal to that row of the full call when
    rows_round_alike(Cout).
    """
    x = np.ascontiguousarray(x)
    weights = np.asarray(weights, dtype=x.dtype)
    bias = np.asarray(bias, dtype=x.dtype)
    cout, _, k = _check_dconv_args(x, weights, bias, int(dilation))
    dilation = int(dilation)
    t_len = x.shape[0]
    lo, hi = _row_range(t_len, rows)
    out = _destination(out, hi - lo, cout, x.dtype)
    work = _workspace(work, workspace_rows(t_len, hi - lo, cout), cout, x.dtype)
    chunk = _chunk_rows(t_len, cout)
    out[...] = bias
    for j in range(k):
        shift = (j - (k - 1) // 2) * dilation
        # output rows of [lo, hi) where this tap reads inside [0, T)
        t_lo, t_hi = max(lo, -shift), min(hi, t_len - shift)
        for c_lo in range(t_lo, t_hi, chunk):  # nothing when the tap reads only padding
            c_hi = min(c_lo + chunk, t_hi)
            start, n = _window(c_lo + shift, c_hi + shift, t_len)
            np.matmul(x[start:start + n], weights[:, :, j].T, out=work[:n])
            out[c_lo - lo:c_hi - lo] += work[c_lo + shift - start:c_hi + shift - start]
    return out


def transposed_kernel(weights) -> np.ndarray:
    """The (Cin, Cout, k) kernel whose dilated_conv1d with zero bias maps
    dL/d(output) to dL/d(input): channels swapped, taps reversed.

    Tap j of weights carries output row t from input row t + shift_j, so the
    input gradient at row s gathers grad_out[s - shift_j] @ weights[:, :, j],
    which is a dilated convolution of grad_out with tap j at shift -shift_j.

    Each tap is copied into a C-contiguous (Cin, Cout) matrix, so
    dilated_conv1d hands BLAS the transposed operand it hands it in forward,
    and the rows of a product round alike wherever rows_round_alike says (a
    view of weights would be multiplied in the other layout, whose rows do
    not round alike at some widths, such as 72 in float32).
    """
    view = weights.transpose(1, 0, 2)[:, :, ::-1]
    return np.ascontiguousarray(view.transpose(2, 0, 1)).transpose(1, 2, 0)


def dilated_conv1d_backward(x, weights, dilation: int, grad_out,
                            d_input: bool = True, out_weights=None) -> LayerGrad:
    """Analytic gradients of dilated_conv1d w.r.t. input, kernel and bias.

    No padded copy is built. Tap j's kernel gradient multiplies only the rows
    where the tap reads inside [0, T), as one product whatever the caller's
    threads: grad_out[valid].T @ x[valid + shift_j]. It is written into
    out_weights, an array of the kernel's shape, when given. The input
    gradient is the convolution of grad_out with transposed_kernel(weights);
    d_input=False skips it (d_input is None) for callers that compute it in
    row blocks.
    """
    weights = np.asarray(weights, dtype=x.dtype)
    grad_out = np.asarray(grad_out, dtype=x.dtype)
    cout, cin, k = weights.shape
    dilation = int(dilation)
    t_len = x.shape[0]
    if grad_out.shape != (t_len, cout):
        raise ShapeError(f"upstream gradient must be ({t_len}, {cout}), got {grad_out.shape}")
    d_w = np.empty_like(weights) if out_weights is None else out_weights
    if d_w.shape != weights.shape or d_w.dtype != x.dtype:
        raise ShapeError(f"kernel gradient {d_w.shape} {d_w.dtype} is not "
                         f"{weights.shape} {x.dtype}")
    for j in range(k):
        shift = (j - (k - 1) // 2) * dilation
        t_lo, t_hi = max(0, -shift), min(t_len, t_len - shift)
        if t_lo < t_hi:
            np.matmul(grad_out[t_lo:t_hi].T, x[t_lo + shift:t_hi + shift], out=d_w[:, :, j])
        else:  # the tap reads only padding
            d_w[:, :, j] = 0.0
    d_x = None
    if d_input:
        d_x = dilated_conv1d(grad_out, transposed_kernel(weights),
                             np.zeros(cin, dtype=x.dtype), dilation)
    return LayerGrad(d_input=d_x, d_weights=d_w, d_bias=grad_out.sum(axis=0))


# ---------------------------------------------------------------------------
# 1x1 convolution (per-frame affine map)
# ---------------------------------------------------------------------------

def conv1x1(x, weights, bias, out=None, rows=None, work=None) -> np.ndarray:
    """Per-frame affine map: out[t] = weights @ x[t] + bias.

    rows, out and work mean what they mean for dilated_conv1d; work is used
    only when [lo, hi) is shorter than a product must be.
    """
    weights = np.asarray(weights, dtype=x.dtype)
    bias = np.asarray(bias, dtype=x.dtype)
    if weights.ndim != 2:
        raise ShapeError(f"1x1 weights must be (Cout, Cin), got shape {weights.shape}")
    if x.shape[1] != weights.shape[1]:
        raise ShapeError(f"input has {x.shape[1]} channels but weights expect {weights.shape[1]}")
    if bias.shape != (weights.shape[0],):
        raise ShapeError(f"bias must have shape ({weights.shape[0]},), got {bias.shape}")
    t_len, cout = x.shape[0], weights.shape[0]
    lo, hi = _row_range(t_len, rows)
    out = _destination(out, hi - lo, cout, x.dtype)
    start, n = _window(lo, hi, t_len)
    if n == hi - lo:
        np.matmul(x[lo:hi], weights.T, out=out)
    else:
        work = _workspace(work, n, cout, x.dtype)
        np.matmul(x[start:start + n], weights.T, out=work[:n])
        out[...] = work[lo - start:hi - start]
    out += bias
    return out


def conv1x1_backward(x, weights, grad_out, d_input: bool = True,
                     out_weights=None) -> LayerGrad:
    """Analytic gradients of conv1x1 w.r.t. input, weights and bias;
    d_input=False skips the input gradient (d_input is None), and the
    weight gradient is written into out_weights when given."""
    weights = np.asarray(weights, dtype=x.dtype)
    grad_out = np.asarray(grad_out, dtype=x.dtype)
    if grad_out.shape != (x.shape[0], weights.shape[0]):
        raise ShapeError(f"upstream gradient shape {grad_out.shape} does not match output")
    return LayerGrad(
        d_input=grad_out @ weights if d_input else None,
        d_weights=np.matmul(grad_out.T, x, out=out_weights),
        d_bias=grad_out.sum(axis=0),
    )


# ---------------------------------------------------------------------------
# ReLU
# ---------------------------------------------------------------------------

def relu(x, out=None) -> np.ndarray:
    """max(x, 0); out=x rectifies in place."""
    return np.maximum(np.asarray(x), 0, out=out)


def relu_backward(x, grad_out, out=None) -> LayerGrad:
    """grad_out where x > 0, else 0; out=grad_out masks in place."""
    x = np.asarray(x)
    return LayerGrad(d_input=np.multiply(np.asarray(grad_out), x > 0, out=out))


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
