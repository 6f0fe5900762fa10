"""Multi-stage temporal convolutional model built from dual-dilated layers.

Stage 1 (prediction generation) consumes projected input features; every
later stage (refinement) consumes the previous stage's probability rows and
re-segments them. Each stage is a 1x1 input projection, a stack of residual
dual-dilated layers and a 1x1 softmax head.

A dual-dilated layer runs two parallel dilated convolutions, one with a low
dilation 2^l and one with a high dilation 2^(L-1-l), fuses them (summed
pre-ReLU by default, channel concatenation optionally) and applies a 1x1
convolution on the rectified fusion before the residual add:

    out = h + W * ReLU(conv_low(h) + conv_high(h)) + b

The whole forward/backward pair is hand-written; backward returns gradients
for every parameter and chains correctly through the probability handoff
between stages.

A model's parameters live in one contiguous array, `Model.flat`, in file
order; every weight and bias field is a writeable view into it, laid out by
`_bind` alone. Gradients come back as a Model of the same layout.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .seqcore import (
    _MIN_GEMM_ROWS,
    ShapeError,
    as_matrix,
    conv1x1,
    conv1x1_backward,
    dilated_conv1d,
    dilated_conv1d_backward,
    one_blas_thread,
    relu,
    relu_backward,
    rows_round_alike,
    softmax_rows,
    softmax_rows_backward,
    transposed_kernel,
    workspace_rows,
)

KERNEL_SIZE = 3

MAGIC = b"MTPP"
FORMAT_VERSION = 1

_FUSE_MODES = ("sum", "concat")


class ModelFormatError(ValueError):
    """Model file is malformed or not a model file at all."""


class ModelVersionError(ModelFormatError):
    """Model file uses an unsupported format version."""


@dataclass(frozen=True)
class StageConfig:
    """Architecture hyperparameters for the multi-stage network."""

    in_dim: int = 2048
    channels: int = 256
    n_classes: int = 4
    stages: int = 4
    layers_prediction: int = 11
    layers_refinement: int = 10
    fuse_mode: str = "sum"

    def __post_init__(self):
        if self.in_dim < 1 or self.channels < 1:
            raise ValueError("in_dim and channels must be >= 1")
        if self.n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.n_classes}")
        if self.stages < 1:
            raise ValueError(f"need at least 1 stage, got {self.stages}")
        if self.layers_prediction < 1 or self.layers_refinement < 1:
            raise ValueError("every stage needs at least 1 layer")
        if self.fuse_mode not in _FUSE_MODES:
            raise ValueError(f"fuse_mode must be one of {_FUSE_MODES}, got {self.fuse_mode!r}")

    def layers_for_stage(self, stage_index: int) -> int:
        return self.layers_prediction if stage_index == 0 else self.layers_refinement


@dataclass
class DualDilatedLayer:
    w_d1: np.ndarray  # (F, F, k) low-dilation kernel
    b_d1: np.ndarray
    w_d2: np.ndarray  # (F, F, k) high-dilation kernel
    b_d2: np.ndarray
    w_fuse: np.ndarray  # (F, F) for sum fusion, (F, 2F) for concat
    b_fuse: np.ndarray
    dilation_low: int
    dilation_high: int


@dataclass
class Stage:
    proj_w: np.ndarray  # (F, in_width) 1x1 projection into the stage
    proj_b: np.ndarray
    layers: list[DualDilatedLayer]
    head_w: np.ndarray  # (C, F) output head
    head_b: np.ndarray


@dataclass
class Model:
    config: StageConfig
    stages: list[Stage]
    flat: np.ndarray  # every parameter in file order; the arrays in stages are views of it
    params: list[tuple[str, np.ndarray]] = field(repr=False)  # (name, view) in file order

    @property
    def dtype(self):
        return self.flat.dtype


def _bind(cfg: StageConfig, flat: np.ndarray) -> Model:
    """The parameter layout: a model whose every parameter is a view of flat.

    This is the only code that knows the file order; flat holds exactly
    _param_count(cfg) elements.
    """
    f, k = cfg.channels, KERNEL_SIZE
    fuse_in = f if cfg.fuse_mode == "sum" else 2 * f
    params = []
    pos = 0

    def take(name, *shape):  # the next parameter in file order
        nonlocal pos
        view = flat[pos:pos + math.prod(shape)].reshape(shape)
        pos += view.size
        params.append((name, view))
        return view

    stages = []
    for s in range(cfg.stages):
        p = f"stage{s + 1}/"
        n_layers = cfg.layers_for_stage(s)
        proj_w = take(p + "proj_w", f, cfg.in_dim if s == 0 else cfg.n_classes)
        proj_b = take(p + "proj_b", f)
        layers = []
        for l in range(n_layers):
            lp = f"{p}layer{l + 1}/"
            layers.append(DualDilatedLayer(
                w_d1=take(lp + "w_d1", f, f, k), b_d1=take(lp + "b_d1", f),
                w_d2=take(lp + "w_d2", f, f, k), b_d2=take(lp + "b_d2", f),
                w_fuse=take(lp + "w_fuse", f, fuse_in), b_fuse=take(lp + "b_fuse", f),
                dilation_low=2**l, dilation_high=2 ** (n_layers - 1 - l),
            ))
        stages.append(Stage(proj_w=proj_w, proj_b=proj_b, layers=layers,
                            head_w=take(p + "head_w", cfg.n_classes, f),
                            head_b=take(p + "head_b", cfg.n_classes)))
    return Model(config=cfg, stages=stages, flat=flat, params=params)


def init(cfg: StageConfig, seed: int, dtype=np.float64) -> Model:
    """Seed-deterministic model: fan-in-scaled uniform weights, zero biases.

    The draw order (per stage: each layer's w_d1, w_d2, w_fuse, then proj_w,
    then head_w) differs from the file order and fixes every seeded model.
    """
    rng = np.random.default_rng(seed)
    model = _bind(cfg, np.zeros(_param_count(cfg), dtype=dtype))
    weights = []
    for stage in model.stages:
        for layer in stage.layers:
            weights += [layer.w_d1, layer.w_d2, layer.w_fuse]
        weights += [stage.proj_w, stage.head_w]
    for w in weights:  # fan-in is every axis but the output one
        limit = np.sqrt(1.0 / math.prod(w.shape[1:]))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return model


def named_parameters(model: Model) -> list[tuple[str, np.ndarray]]:
    """All parameters in a fixed, documented order (also the file order)."""
    return list(model.params)


def clone(model: Model) -> Model:
    return _bind(model.config, model.flat.copy())


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

@dataclass
class _LayerCache:
    h_in: np.ndarray
    pre_relu: np.ndarray  # the same array as post_relu: ReLU runs in place
    post_relu: np.ndarray


@dataclass
class _StageCache:
    stage_input: np.ndarray
    layer_caches: list[_LayerCache]
    final_h: np.ndarray
    probs: np.ndarray


@dataclass
class ForwardCache:
    stage_caches: list[_StageCache] = field(default_factory=list)


# Row blocks of a layer run on separate threads only when each block holds at
# least this much work, counted as frames x channels^2 (one tap's multiply-adds).
# Measured on a 2-core x86 VM with one BLAS thread, one sum-fused layer in
# 2 blocks against 1: float64 took 1.05x as long at T x F^2 = 2e6 and 0.77x
# at 3e6; float32 1.05-1.11x at 4e6 and 0.85x at 6e6; both 2.1x at the
# synth-bench shape (T=173, F=64, 7e5) and 0.5x at T=1350, F=256.
_MIN_BLOCK_WORK = 2_500_000


def _row_blocks(t_len: int, channels: int, threads: int) -> list[tuple[int, int]]:
    """Cut [0, T) into at most threads contiguous row blocks, each with at
    least _MIN_BLOCK_WORK of work and _MIN_GEMM_ROWS rows; one block when T
    is too short for two, or when rows of a channels-wide product do not
    round alike wherever they are computed."""
    if not rows_round_alike(channels):
        return [(0, t_len)]
    n = max(1, min(threads, t_len * channels * channels // _MIN_BLOCK_WORK,
                   t_len // _MIN_GEMM_ROWS))
    return [(t_len * i // n, t_len * (i + 1) // n) for i in range(n)]


@contextlib.contextmanager
def thread_pool(threads: int):
    """The helpers of run_jobs when up to threads threads compute at once:
    a pool of threads - 1 workers, or None for one thread. numpy's BLAS is
    held to one thread while the pool is open."""
    if threads <= 1:
        yield None
        return
    with one_blas_thread, ThreadPoolExecutor(threads - 1) as pool:
        yield pool


def run_jobs(pool, jobs) -> None:
    """Call every job (a zero-argument callable) once, on this thread and on
    pool's workers: each thread takes the next job in list order when it is
    free. Returns when all are done; a job's exception is raised here."""
    todo = collections.deque(jobs)

    def drain():
        while True:
            try:
                job = todo.popleft()  # atomic: no two threads take one job
            except IndexError:
                return
            job()

    # a drain per job beyond the first: the surplus ones find nothing left
    helpers = [] if pool is None else [pool.submit(drain) for _ in range(len(todo) - 1)]
    drain()
    for helper in helpers:
        helper.result()


def _block_jobs(blocks, workspaces, kernel, *args):
    """One job per row block: kernel(*args, rows, workspace)."""
    return [functools.partial(kernel, *args, rows, ws) for rows, ws in zip(blocks, workspaces)]


def _block_workspaces(blocks, t_len: int, f: int, dtype, n_rows: int):
    """Per block: a tap (and short-range) workspace and n_rows arrays of the
    longest block's rows, f columns each. They live for a whole forward or
    backward: allocating them per layer churns the heap of every thread."""
    longest = max(hi - lo for lo, hi in blocks)
    return [(np.empty((workspace_rows(t_len, longest, f), f), dtype=dtype),
             *(np.empty((longest, f), dtype=dtype) for _ in range(n_rows)))
            for _ in blocks]


def _project_rows(stage: Stage, x, h, rows, ws):
    lo, hi = rows
    conv1x1(x, stage.proj_w, stage.proj_b, h[lo:hi], rows, ws[0])


def _layer_rows(layer: DualDilatedLayer, h, a, out, fuse_mode: str, rows, ws):
    """Rows [lo, hi) of one layer into the layer's full-length fusion a and
    output out; reads only h and, for the fuse conv, rows [lo, hi) of a."""
    # the fusion and the residual add run in place; IEEE addition is
    # commutative, so the bits equal those of c1 + c2 and h + fuse
    lo, hi = rows
    tap, c2 = ws
    f = h.shape[1]
    if fuse_mode == "sum":
        dilated_conv1d(h, layer.w_d1, layer.b_d1, layer.dilation_low, a[lo:hi], rows, tap)
        dilated_conv1d(h, layer.w_d2, layer.b_d2, layer.dilation_high, c2[:hi - lo], rows, tap)
        a[lo:hi] += c2[:hi - lo]
    else:
        dilated_conv1d(h, layer.w_d1, layer.b_d1, layer.dilation_low, a[lo:hi, :f], rows, tap)
        dilated_conv1d(h, layer.w_d2, layer.b_d2, layer.dilation_high, a[lo:hi, f:], rows, tap)
    relu(a[lo:hi], a[lo:hi])
    conv1x1(a, layer.w_fuse, layer.b_fuse, out[lo:hi], rows, tap)
    out[lo:hi] += h[lo:hi]


def _layer_forward(layer: DualDilatedLayer, h: np.ndarray, fuse_mode: str,
                   blocks, workspaces, pool):
    t_len, f = h.shape
    a = np.empty((t_len, f if fuse_mode == "sum" else 2 * f), dtype=h.dtype)
    out = np.empty_like(h)
    run_jobs(pool, _block_jobs(blocks, workspaces, _layer_rows, layer, h, a, out, fuse_mode))
    return out, _LayerCache(h_in=h, pre_relu=a, post_relu=a)


def forward(model: Model, x, return_cache: bool = False, threads: int = 1):
    """Run all stages; returns the list of per-stage probability matrices.

    With return_cache=True also returns the activations backward() needs.
    Without it no activation outlives the layer that reads it, so memory
    holds a few (T, channels) arrays whatever the depth.

    threads bounds the threads that compute at once: the input projection
    and each layer are cut into that many row blocks when the sequence is
    long enough (see _row_blocks). The result is bit-identical for every
    thread count.
    """
    cfg = model.config
    x = as_matrix(x, "features", model.dtype)
    if x.shape[1] != cfg.in_dim:
        raise ShapeError(f"input has {x.shape[1]} channels, model expects {cfg.in_dim}")
    x = x.astype(model.dtype, copy=False)

    t_len, f = x.shape[0], cfg.channels
    blocks = _row_blocks(t_len, f, threads)
    workspaces = _block_workspaces(blocks, t_len, f, model.dtype, 1)
    cache = ForwardCache()
    stage_probs = []
    current = x
    with thread_pool(len(blocks)) as pool:
        for stage in model.stages:
            h = np.empty((t_len, f), dtype=model.dtype)
            run_jobs(pool, _block_jobs(blocks, workspaces, _project_rows, stage, current, h))
            layer_caches = []
            for layer in stage.layers:
                h, lc = _layer_forward(layer, h, cfg.fuse_mode, blocks, workspaces, pool)
                if return_cache:
                    layer_caches.append(lc)
                del lc  # otherwise this layer's activations live through the next layer
            logits = conv1x1(h, stage.head_w, stage.head_b)
            probs = softmax_rows(logits)
            if return_cache:
                cache.stage_caches.append(_StageCache(
                    stage_input=current, layer_caches=layer_caches, final_h=h, probs=probs))
            stage_probs.append(probs)
            current = probs
    if return_cache:
        return stage_probs, cache
    return stage_probs


def _fusion_grad_rows(w_fuse_t, g_out, a, g_a, rows, ws):
    """Rows [lo, hi) of the gradient at the fusion, (g_out @ w_fuse) where
    the fusion a is positive, into g_a; w_fuse_t is w_fuse.T made
    C-contiguous, so the product is laid out as forward's."""
    lo, hi = rows
    np.matmul(g_out[lo:hi], w_fuse_t.T, out=g_a[lo:hi])
    relu_backward(a[lo:hi], g_a[lo:hi], out=g_a[lo:hi])


def _input_grad_rows(layer: DualDilatedLayer, g_c1, g_c2, kernels, g_h, rows, ws):
    """Rows [lo, hi) of the layer's input gradient, g_h + (dx1 + dx2), into
    g_h in place, where g_h holds the gradient at the layer's output and dx1,
    dx2 are the input gradients of the two dilated convs (kernels: their
    transposed_kernel)."""
    lo, hi = rows
    tap, dx1, dx2 = ws[0], ws[1][:hi - lo], ws[2][:hi - lo]
    zero = np.zeros(g_h.shape[1], dtype=g_h.dtype)
    dilated_conv1d(g_c1, kernels[0], zero, layer.dilation_low, dx1, rows, tap)
    dilated_conv1d(g_c2, kernels[1], zero, layer.dilation_high, dx2, rows, tap)
    dx1 += dx2
    g_h[lo:hi] += dx1


# The parameter-gradient jobs write their products straight into the gradient
# Model. Products made as temporaries and copied in left train-paper's peak
# memory 1.3-2 MiB higher (glibc, 2 threads), at the first AdamW step after
# backward: memory freed on a helper thread stays in that thread's arena.

def _fuse_params_grad(layer: DualDilatedLayer, a, g_out, grad: DualDilatedLayer):
    fuse = conv1x1_backward(a, layer.w_fuse, g_out, d_input=False, out_weights=grad.w_fuse)
    grad.b_fuse[...] = fuse.d_bias


def _conv_params_grad(h, w, dilation, g_c, grad_w, grad_b):
    conv = dilated_conv1d_backward(h, w, dilation, g_c, d_input=False, out_weights=grad_w)
    grad_b[...] = conv.d_bias


def _layer_backward(layer: DualDilatedLayer, lc: _LayerCache, g_h, fuse_mode,
                    grad: DualDilatedLayer, g_a, blocks, workspaces, pool):
    """Gradients of one layer, given g_h, the gradient at its output, which
    becomes the gradient at its input in place.

    Two passes of jobs: the fusion gradient g_a in row blocks alongside the
    fuse conv's parameter gradients, then the input gradient in row blocks
    alongside each dilated conv's parameter gradients. A parameter gradient
    is one whole job, so no thread count changes its bits.
    """
    w_fuse_t = np.ascontiguousarray(layer.w_fuse.T)
    run_jobs(pool, [functools.partial(_fuse_params_grad, layer, lc.post_relu, g_h, grad),
                    *_block_jobs(blocks, workspaces, _fusion_grad_rows, w_fuse_t, g_h,
                                 lc.pre_relu, g_a)])
    if fuse_mode == "sum":
        g_c1 = g_c2 = g_a
    else:  # contiguous once here, not once per block in dilated_conv1d
        f = g_h.shape[1]
        g_c1, g_c2 = np.ascontiguousarray(g_a[:, :f]), np.ascontiguousarray(g_a[:, f:])
    run_jobs(pool, [
        functools.partial(_conv_params_grad, lc.h_in, layer.w_d1, layer.dilation_low, g_c1,
                          grad.w_d1, grad.b_d1),
        functools.partial(_conv_params_grad, lc.h_in, layer.w_d2, layer.dilation_high, g_c2,
                          grad.w_d2, grad.b_d2),
        *_block_jobs(blocks, workspaces, _input_grad_rows, layer, g_c1, g_c2,
                     (transposed_kernel(layer.w_d1), transposed_kernel(layer.w_d2)), g_h)])


def backward(model: Model, cache: ForwardCache, stage_logit_grads, threads: int = 1) -> Model:
    """Full-model gradients given each stage's direct dL/dlogits.

    Gradients flow backward through the probability handoff: the loss applied
    to stage s also reaches every earlier stage via the refinement inputs.
    Returns a gradient Model with the parameter layout of model.

    threads bounds the threads that compute at once, over the row blocks
    forward uses; the gradients are bit-identical for every thread count.
    numpy's BLAS runs on one thread throughout, even with threads=1, since
    a multi-threaded OpenBLAS rounds a product summed over T (every
    parameter gradient is one) differently by its own thread count.
    """
    if cache is None or not cache.stage_caches:
        raise ValueError("forward cache missing: run forward(..., return_cache=True)")
    n_stages = len(model.stages)
    if len(stage_logit_grads) != n_stages:
        raise ShapeError(f"expected {n_stages} per-stage gradients, got {len(stage_logit_grads)}")

    cfg = model.config
    grads = _bind(cfg, np.zeros_like(model.flat))
    t_len, f = cache.stage_caches[0].final_h.shape
    # the fusion gradient of the layer in hand; every layer refills it
    g_a = np.empty((t_len, f if cfg.fuse_mode == "sum" else 2 * f), dtype=model.dtype)
    g_probs_next = None  # gradient arriving at this stage's output probabilities
    with one_blas_thread:
        blocks = _row_blocks(t_len, f, threads)
        workspaces = _block_workspaces(blocks, t_len, f, model.dtype, 2)
        with thread_pool(len(blocks)) as pool:
            for s in range(n_stages - 1, -1, -1):
                stage, grad = model.stages[s], grads.stages[s]
                sc = cache.stage_caches[s]

                g_logits = np.asarray(stage_logit_grads[s], dtype=model.dtype)
                if g_logits.shape != sc.probs.shape:
                    raise ShapeError(f"stage {s + 1} gradient shape {g_logits.shape} "
                                     f"does not match logits {sc.probs.shape}")
                if g_probs_next is not None:
                    g_logits = g_logits + softmax_rows_backward(sc.probs, g_probs_next).d_input

                head = conv1x1_backward(sc.final_h, stage.head_w, g_logits)
                grad.head_w[...] = head.d_weights
                grad.head_b[...] = head.d_bias

                g_h = head.d_input  # a fresh array, so the layers may update it in place
                for l in range(len(stage.layers) - 1, -1, -1):
                    _layer_backward(stage.layers[l], sc.layer_caches[l], g_h, cfg.fuse_mode,
                                    grad.layers[l], g_a, blocks, workspaces, pool)

                # stage 1's input is the features: nothing reads their gradient
                proj = conv1x1_backward(sc.stage_input, stage.proj_w, g_h, d_input=s > 0)
                grad.proj_w[...] = proj.d_weights
                grad.proj_b[...] = proj.d_bias
                g_probs_next = proj.d_input
    return grads


# ---------------------------------------------------------------------------
# serialization: magic "MTPP", u32 version, config, then float32 LE params
# ---------------------------------------------------------------------------

_CONFIG_STRUCT = struct.Struct("<7I")  # in_dim, channels, classes, stages, L_pred, L_ref, fuse


def model_to_bytes(model: Model) -> bytes:
    cfg = model.config
    return (MAGIC + struct.pack("<I", FORMAT_VERSION)
            + _CONFIG_STRUCT.pack(cfg.in_dim, cfg.channels, cfg.n_classes, cfg.stages,
                                  cfg.layers_prediction, cfg.layers_refinement,
                                  _FUSE_MODES.index(cfg.fuse_mode))
            + model.flat.astype("<f4").tobytes())


def _param_count(cfg: StageConfig) -> int:
    """Number of parameters of the architecture, computed without building it."""
    f, c = cfg.channels, cfg.n_classes
    fuse_in = f if cfg.fuse_mode == "sum" else 2 * f
    layer = 2 * (f * f * KERNEL_SIZE + f) + f * fuse_in + f

    def stage(in_width, n_layers):
        return f * in_width + f + n_layers * layer + c * f + c

    return (stage(cfg.in_dim, cfg.layers_prediction)
            + (cfg.stages - 1) * stage(c, cfg.layers_refinement))


def model_from_bytes(buf, offset: int = 0, dtype=np.float64) -> tuple[Model, int]:
    """Parse a serialized model; returns (model, offset past the model).

    The header alone fixes the parameter byte count, so a short buffer is
    rejected before any parameter is allocated. Bytes after the model are
    left to the caller. A float32 model parsed from a writeable buffer keeps
    its parameters in that buffer.
    """
    if buf[offset:offset + 4] != MAGIC:
        raise ModelFormatError("not a model file: bad magic bytes")
    try:
        (version,) = struct.unpack_from("<I", buf, offset + 4)
        if version != FORMAT_VERSION:
            raise ModelVersionError(f"unsupported model format version {version} "
                                    f"(expected {FORMAT_VERSION})")
        fields = _CONFIG_STRUCT.unpack_from(buf, offset + 8)
    except struct.error as exc:
        raise ModelFormatError(f"truncated model header: {exc}") from None
    offset += 8 + _CONFIG_STRUCT.size
    if fields[6] >= len(_FUSE_MODES):
        raise ModelFormatError(f"unknown fusion mode id {fields[6]}")
    try:
        cfg = StageConfig(in_dim=fields[0], channels=fields[1], n_classes=fields[2],
                          stages=fields[3], layers_prediction=fields[4],
                          layers_refinement=fields[5], fuse_mode=_FUSE_MODES[fields[6]])
    except ValueError as exc:
        raise ModelFormatError(f"invalid model header: {exc}") from None
    count = _param_count(cfg)
    if offset + 4 * count > len(buf):
        raise ModelFormatError(f"model file truncated: header describes {4 * count} "
                               f"parameter bytes, {len(buf) - offset} present")
    flat = np.frombuffer(buf, dtype="<f4", count=count, offset=offset)
    flat = flat.astype(dtype, copy=not flat.flags.writeable)
    return _bind(cfg, flat), offset + 4 * count


def save_model(model: Model, path) -> None:
    with open(path, "wb") as fh:
        fh.write(model_to_bytes(model))


def load_model(path, dtype=np.float64) -> Model:
    """Read a model file; a float32 model keeps its parameters in the read buffer."""
    with open(path, "rb") as fh:  # np.empty: the buffer is not zero-filled before the read
        buf = memoryview(np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8))
        buf = buf[:fh.readinto(buf)]
    model, offset = model_from_bytes(buf, dtype=dtype)
    if offset != len(buf):
        raise ModelFormatError(f"{len(buf) - offset} unexpected trailing bytes in model file")
    return model
