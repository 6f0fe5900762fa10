"""Differentiable layer primitives over (T, channels) arrays.

Everything here operates on dense (T, channels) float arrays where T is the
frame index. The primitives (dilated 1-D convolution, 1x1 convolution, ReLU,
row softmax) are functions with hand-written backward passes; they are the
building blocks the multi-stage temporal model is assembled from. A backward
pass writes its parameter gradients into arrays the caller passes and
returns only the input gradient; the dilated convolution leaves its input
gradient (a dilated convolution) and bias gradient (a column sum) to the caller.

Arrays are checked where they enter the program (`synthgen.FeatureFile`
checks a feature file's header and the rows it reads, and `mstcnpp.forward`
calls `as_matrix` on an array); the primitives take them as they are and
check only their own contracts: operand shapes, and finite logits.

All primitives preserve sequence length: a dilated convolution's tap reads
zeros wherever its shift takes it outside [0, T), which for the dilation
ladder is symmetric zero padding of (k-1)/2 * dilation frames per side.

The dilated convolution's tap products accumulate inside BLAS: numpy's
matmul has no C += A @ B, so each long tap is one call of the cblas GEMM of
numpy's bundled OpenBLAS (found through ctypes, as its thread count is)
with beta = 1, into rows of the output that already hold the bias. Short
taps, layouts BLAS cannot step through, and a numpy without that library
take numpy's matmul, chunk by chunk, and an add.
"""

from __future__ import annotations

import ctypes
import functools
import threading
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


# ---------------------------------------------------------------------------
# dilated 1-D convolution
# ---------------------------------------------------------------------------

def tap_shifts(k: int, dilation) -> tuple[int, ...]:
    """The frame offset each tap of a k-tap kernel reads: output row t takes
    tap j's product from input row t + shift_j. An int dilation d is the
    ladder (j - (k-1)/2) * d of an odd k; a sequence of k ints is the shifts
    themselves, in tap order."""
    if np.ndim(dilation) == 0:
        if k % 2 != 1:
            raise ShapeError(f"kernel size must be odd, got k={k}")
        if dilation < 1 or int(dilation) != dilation:
            raise ValueError(f"dilation must be a positive integer, got {dilation}")
        return tuple((j - (k - 1) // 2) * int(dilation) for j in range(k))
    shifts = tuple(int(s) for s in dilation)
    if len(shifts) != k or shifts != tuple(dilation):
        raise ValueError(f"a {k}-tap kernel needs {k} integer shifts, got {tuple(dilation)}")
    return shifts


def _check_dconv_args(x, weights, dilation):
    if weights.ndim != 3:
        raise ShapeError(f"kernel must be (Cout, Cin, k), got shape {weights.shape}")
    cout, cin, k = weights.shape
    shifts = tap_shifts(k, dilation)
    if x.shape[1] != cin:
        raise ShapeError(f"input has {x.shape[1]} channels but kernel expects {cin}")
    return cout, shifts


# OpenBLAS computes products with few rows (one row, or roughly fewer than
# 1200 output entries) in kernels that round differently from the kernel of
# a long product. A tap whose valid range is shorter than this is multiplied
# over a window of at least this many rows of x (or all of x, when T is
# shorter), so every output row is rounded as in a full-length product.
_MIN_GEMM_ROWS = 64


# A tap that does not go through the direct GEMM (see dilated_conv1d) is
# multiplied and added in chunks of at most this many rows, so each product
# it allocates stays small (1 MiB at F=256, float32) whatever T is. Measured
# with blas_gemm forced to None, so that every tap took this path, on a
# paper-size float32 forward (T=5400, F=256, features read in row chunks, 2
# row blocks on a 2-core x86 VM): peak RSS 133.0 MiB with the chunks against
# 139-142 MiB with one product per tap.
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
def _openblas():
    """numpy's bundled scipy-openblas library, through ctypes, or None when
    this numpy carries no such library."""
    root = Path(np.__file__).parent
    for path in sorted([*root.parent.glob("numpy.libs/*openblas*"),
                        *root.glob(".dylibs/*openblas*")]):
        try:  # the library numpy already loaded: CDLL returns the same handle
            lib = ctypes.CDLL(str(path))
            lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        return lib
    return None


@functools.cache
def openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, through
    ctypes, or None when this numpy carries no such library."""
    lib = _openblas()
    if lib is None:
        return None
    get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@functools.cache
def blas_gemm(dtype):
    """cblas_sgemm or cblas_dgemm (64-bit integers) of numpy's bundled
    OpenBLAS for a float32 or float64 dtype, through ctypes, or None when
    this numpy carries no such library or the dtype is neither. A ctypes
    call releases the GIL, as numpy's own products do."""
    lib = _openblas()
    kind = {np.dtype(np.float32): ("s", ctypes.c_float),
            np.dtype(np.float64): ("d", ctypes.c_double)}.get(np.dtype(dtype))
    if lib is None or kind is None:
        return None
    prefix, scalar = kind
    try:
        gemm = getattr(lib, f"scipy_cblas_{prefix}gemm64_")
    except AttributeError:
        return None
    ptr, dim = ctypes.c_void_p, ctypes.c_int64
    gemm.argtypes = [ctypes.c_int] * 3 + [dim] * 3 + [scalar, ptr, dim, ptr, dim, scalar, ptr, dim]
    gemm.restype = None
    return gemm


def tap_products() -> str:
    """Which kernel multiplies dilated_conv1d's taps in this process:
    "openblas-gemm" (the direct call, beta = 1) or "numpy-matmul" (a
    product, then an add)."""
    found = all(blas_gemm(dtype) is not None for dtype in (np.float32, np.float64))
    return "openblas-gemm" if found else "numpy-matmul"


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


def _destination(out, rows: int, cols: int, dtype) -> np.ndarray:
    if out is None:
        return np.empty((rows, cols), dtype=dtype)
    if out.shape != (rows, cols) or out.dtype != dtype:
        raise ShapeError(f"output {out.shape} {out.dtype} is not ({rows}, {cols}) {dtype}")
    return out


# cblas enum values: row-major operands, A as it is, B transposed
_ROW_MAJOR, _NO_TRANS, _TRANS = 101, 111, 112


def _direct_taps(x, weights, out):
    """add_tap(j, x_row, out_row, rows), which adds the product of rows
    [x_row, x_row + rows) of x and tap j of the kernel into rows
    [out_row, out_row + rows) of out by one blas_gemm call with beta = 1,
    or None when there is no such call for x's dtype or a matrix is not
    aligned rows of unit-stride entries that BLAS can step through with a
    leading dimension of at least its width (numpy multiplies unaligned
    arrays without BLAS). Checked on every call: a wrong leading dimension
    would corrupt memory instead of raising. The addresses are read once
    per call, not per tap (1.5 us each)."""
    gemm = blas_gemm(x.dtype)
    item = x.itemsize
    mats = (x, weights, out)
    if gemm is None or any(not m.flags.aligned or m.strides[1] != item
                           or m.strides[0] < max(m.shape[1], 1) * item for m in mats):
        return None
    (x_at, w_at, out_at), (x_ld, w_ld, out_ld) = ([m.ctypes.data for m in mats],
                                                  [m.strides[0] // item for m in mats])
    cin, cout, tap_bytes = x.shape[1], out.shape[1], weights.strides[2]

    def add_tap(j, x_row, out_row, rows):
        gemm(_ROW_MAJOR, _NO_TRANS, _TRANS, rows, cout, cin,
             1.0, x_at + x_row * x_ld * item, x_ld, w_at + j * tap_bytes, w_ld,
             1.0, out_at + out_row * out_ld * item, out_ld)
    return add_tap


def dilated_conv1d(x, weights, bias, dilation, out=None, rows=None) -> np.ndarray:
    """Same-length dilated 1-D convolution over the time axis.

    out[t, co] = bias[co] + sum_{ci,j} weights[co, ci, j] * x[t + shift_j, ci]
    with zero padding outside [0, T), where shift_j = tap_shifts(k, dilation):
    an int dilation d gives the ladder (j - (k-1)/2) * d, and a sequence gives
    one shift per tap, so two convolutions that are summed can run as one
    over their distinct shifts. No padded copy is built: each tap adds its
    product into the rows where it reads inside [0, T), in the order bias,
    tap 0, tap 1, .... The result is bit-equal to the padded form when
    rows_round_alike(Cout) holds or T < _MIN_GEMM_ROWS (every product then
    spans all of x); at other widths, such as 250, the two can differ in the
    last bits, though each stays the same from run to run.

    A tap that reads at least _MIN_GEMM_ROWS rows is one blas_gemm call with
    beta = 1, straight into its rows of out, when the kernel's taps are
    C-contiguous (Cout, Cin) matrices, as in a tap-major array, and x, out
    and those taps step by rows of unit-stride entries. It has the bits of
    the product-then-add below where BLAS sums all Cin inputs of an entry in
    one pass: measured bit-equal at Cin up to 384, float32 and float64, and
    different in the last bits from Cin = 512 on (x86-64 OpenBLAS 0.3.31),
    where BLAS adds each block of inputs into out. Every other tap, and
    every tap without the bundled OpenBLAS, is computed by numpy's matmul
    and added to out in chunks of _TAP_CHUNK rows.

    rows = (lo, hi) computes only output rows [lo, hi) (default: all T) into
    out, an array of shape (hi - lo, Cout), allocated when not given. Every
    row is bit-equal to that row of the full call when rows_round_alike(Cout).
    """
    x = np.ascontiguousarray(x)
    weights = np.asarray(weights, dtype=x.dtype)
    bias = np.asarray(bias, dtype=x.dtype)
    cout, shifts = _check_dconv_args(x, weights, dilation)
    if bias.shape != (cout,):
        raise ShapeError(f"bias must have shape ({cout},), got {bias.shape}")
    t_len = x.shape[0]
    lo, hi = _row_range(t_len, rows)
    out = _destination(out, hi - lo, cout, x.dtype)
    chunk = _TAP_CHUNK if rows_round_alike(cout) else t_len
    add_tap = _direct_taps(x, weights, out)
    out[...] = bias
    for j, shift in enumerate(shifts):
        # output rows of [lo, hi) where this tap reads inside [0, T)
        t_lo, t_hi = max(lo, -shift), min(hi, t_len - shift)
        if add_tap is not None and t_hi - t_lo >= _MIN_GEMM_ROWS:
            add_tap(j, t_lo + shift, t_lo - lo, t_hi - t_lo)
            continue
        for c_lo in range(t_lo, t_hi, chunk):  # nothing when the tap reads only padding
            c_hi = min(c_lo + chunk, t_hi)
            start, n = _window(c_lo + shift, c_hi + shift, t_len)
            product = x[start:start + n] @ weights[:, :, j].T
            out[c_lo - lo:c_hi - lo] += product[c_lo + shift - start:c_hi + shift - start]
    return out


def dilated_conv1d_backward(x, dilation, grad_out, d_weights) -> None:
    """Analytic gradient of dilated_conv1d w.r.t. its kernel, written into
    d_weights, of the kernel's (Cout, Cin, k) shape. The bias gradient is
    grad_out's column sum, which the caller takes.

    No padded copy is built. Tap j's kernel gradient multiplies only the rows
    where the tap reads inside [0, T), as one product whatever the caller's
    threads: grad_out[valid].T @ x[valid + shift_j]. The input gradient is
    the dilated_conv1d of grad_out with zero bias and the kernel transposed
    (channels swapped, taps reversed, shifts reversed and negated), which
    the caller runs.
    """
    grad_out = np.asarray(grad_out, dtype=x.dtype)
    cout, shifts = _check_dconv_args(x, d_weights, dilation)
    t_len = x.shape[0]
    if grad_out.shape != (t_len, cout):
        raise ShapeError(f"upstream gradient must be ({t_len}, {cout}), got {grad_out.shape}")
    if d_weights.dtype != x.dtype:
        raise ShapeError(f"kernel gradient {d_weights.dtype} is not {x.dtype}")
    for j, shift in enumerate(shifts):
        t_lo, t_hi = max(0, -shift), min(t_len, t_len - shift)
        if t_lo < t_hi:
            np.matmul(grad_out[t_lo:t_hi].T, x[t_lo + shift:t_hi + shift], out=d_weights[:, :, j])
        else:  # the tap reads only padding
            d_weights[:, :, j] = 0.0


# ---------------------------------------------------------------------------
# 1x1 convolution (per-frame affine map)
# ---------------------------------------------------------------------------

def conv1x1(x, weights, bias, out=None, rows=None) -> np.ndarray:
    """Per-frame affine map: out[t] = weights @ x[t] + bias.

    rows and out mean what they mean for dilated_conv1d, but a range must
    span _MIN_GEMM_ROWS rows or all of T: its product then rounds each row
    as the full call does. mstcnpp's row blocks are never shorter.
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
    if hi - lo < min(_MIN_GEMM_ROWS, t_len):
        raise ValueError(f"row range [{lo}, {hi}) spans < {_MIN_GEMM_ROWS} rows, not all {t_len}")
    out = _destination(out, hi - lo, cout, x.dtype)
    np.matmul(x[lo:hi], weights.T, out=out)
    out += bias
    return out


def conv1x1_backward(x, weights, grad_out, d_weights, d_bias,
                     d_input: bool = True) -> np.ndarray | None:
    """Analytic gradients of conv1x1: the weight and bias gradients are
    written into d_weights (Cout, Cin) and d_bias (Cout,); returns the input
    gradient, or None when d_input=False."""
    weights = np.asarray(weights, dtype=x.dtype)
    grad_out = np.asarray(grad_out, dtype=x.dtype)
    if grad_out.shape != (x.shape[0], weights.shape[0]):
        raise ShapeError(f"upstream gradient shape {grad_out.shape} does not match output")
    np.matmul(grad_out.T, x, out=d_weights)
    np.sum(grad_out, axis=0, out=d_bias)
    return grad_out @ weights if d_input else None


# ---------------------------------------------------------------------------
# ReLU
# ---------------------------------------------------------------------------

def relu(x, out=None) -> np.ndarray:
    """max(x, 0); out=x rectifies in place."""
    return np.maximum(np.asarray(x), 0, out=out)


def relu_backward(x, grad_out, out=None) -> np.ndarray:
    """grad_out where x > 0, else 0; out=grad_out masks in place."""
    return np.multiply(np.asarray(grad_out), np.asarray(x) > 0, out=out)


# ---------------------------------------------------------------------------
# row softmax
# ---------------------------------------------------------------------------

def softmax_rows(logits) -> np.ndarray:
    """Numerically stable per-row softmax; rows of the result sum to 1."""
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits contain non-finite entries")
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def softmax_rows_backward(probs, grad_out) -> np.ndarray:
    """Gradient w.r.t. logits given the softmax output and upstream dL/dprobs."""
    g = np.asarray(grad_out, dtype=probs.dtype)
    if g.shape != probs.shape:
        raise ShapeError(f"upstream gradient shape {g.shape} does not match probs {probs.shape}")
    inner = (g * probs).sum(axis=1, keepdims=True)
    return probs * (g - inner)
