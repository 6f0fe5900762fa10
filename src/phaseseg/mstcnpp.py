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

Summed, the two 3-tap convolutions are computed as one convolution over
their distinct tap shifts (-d_high, -d_low, 0, d_low, d_high): the centre
taps read the same frame, so they are one product with the summed kernel,
and where d_low == d_high all three tap pairs merge. That is five tap
products per layer, or three, instead of six, in forward and backward alike.
Concatenated, the two run as they are.

The whole forward/backward pair is hand-written; backward returns gradients
for every parameter and chains correctly through the probability handoff
between stages.

A model's parameters live in one contiguous array, `Model.flat`, in file
order; every weight and bias field is a writeable view into it, laid out
stage by stage by `_bind_stage` alone. backward writes each stage's gradient
in that stage's layout: into a gradient Model of the same layout, or into one
buffer that every stage reuses, handed to a consumer stage by stage. Model
files are read by `ModelFile` alone: it hands forward one stage at a time
from a single buffer, and load_model every parameter at once.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .annotate import replacing
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
    tap_shifts,
)

KERNEL_SIZE = 3

MAGIC = b"MTPP"
FORMAT_VERSION = 1

FUSE_MODES = ("sum", "concat")


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
        if self.fuse_mode not in FUSE_MODES:
            raise ValueError(f"fuse_mode must be one of {FUSE_MODES}, got {self.fuse_mode!r}")

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


def _stage_param_count(cfg: StageConfig, s: int) -> int:
    """Number of parameters of stage s (from 0), computed without building it."""
    f, c = cfg.channels, cfg.n_classes
    fuse_in = f if cfg.fuse_mode == "sum" else 2 * f
    layer = 2 * (f * f * KERNEL_SIZE + f) + f * fuse_in + f
    return f * (cfg.in_dim if s == 0 else c) + f + cfg.layers_for_stage(s) * layer + c * f + c


def _param_count(cfg: StageConfig) -> int:
    """Number of parameters of the architecture: every refinement stage has
    stage 2's count."""
    return _stage_param_count(cfg, 0) + (cfg.stages - 1) * _stage_param_count(cfg, 1)


def stage_slices(cfg: StageConfig) -> list[slice]:
    """The range of Model.flat (and of the file's parameters) that each stage
    holds, in stage order."""
    ends = list(itertools.accumulate(_stage_param_count(cfg, s) for s in range(cfg.stages)))
    return [slice(lo, hi) for lo, hi in zip([0, *ends], ends)]


def _bind_stage(cfg: StageConfig, s: int, flat: np.ndarray, params: list) -> Stage:
    """The parameter layout of stage s (from 0): a Stage whose every
    parameter is a view of flat, which holds exactly _stage_param_count(cfg, s)
    elements; appends each (name, view) to params in file order.

    This is the only code that knows the file order."""
    f, k = cfg.channels, KERNEL_SIZE
    fuse_in = f if cfg.fuse_mode == "sum" else 2 * f
    pos = 0

    def take(name, *shape):  # the next parameter in file order
        nonlocal pos
        view = flat[pos:pos + math.prod(shape)].reshape(shape)
        pos += view.size
        params.append((name, view))
        return view

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
    return Stage(proj_w=proj_w, proj_b=proj_b, layers=layers,
                 head_w=take(p + "head_w", cfg.n_classes, f),
                 head_b=take(p + "head_b", cfg.n_classes))


def _bind(cfg: StageConfig, flat: np.ndarray) -> Model:
    """A model whose every parameter is a view of flat, which holds exactly
    _param_count(cfg) elements: the stages' _bind_stage layouts in turn."""
    params = []
    stages = [_bind_stage(cfg, s, flat[part], params) for s, part in enumerate(stage_slices(cfg))]
    return Model(config=cfg, stages=stages, flat=flat, params=params)


# draws per float64 temporary of init (512 KiB): a whole weight block per draw,
# up to 4 MiB on each of two threads, left train-paper's peak RSS 1 MiB higher
# (glibc, 2 threads)
_INIT_DRAWS = 1 << 16


def init(cfg: StageConfig, seed: int, dtype=np.float64, threads: int = 1) -> Model:
    """Seed-deterministic model: fan-in-scaled uniform weights, zero biases.

    The draw order (per stage: each layer's w_d1, w_d2, w_fuse, then proj_w,
    then head_w) differs from the file order and fixes every seeded model.
    Each weight takes one 64-bit PCG64 output, so the stream is cut into
    threads contiguous ranges, each drawn on its own thread by a generator
    advanced to the range's start (O'Neill 2014): every thread count gives
    the same bits.
    """
    model = _bind(cfg, np.zeros(_param_count(cfg), dtype=dtype))
    weights = []
    for stage in model.stages:
        for layer in stage.layers:
            weights += [layer.w_d1, layer.w_d2, layer.w_fuse]
        weights += [stage.proj_w, stage.head_w]
    starts = [0, *itertools.accumulate(w.size for w in weights)]  # each block's first draw

    def draw(lo, hi):  # draws [lo, hi) of the stream, into the blocks they fall in
        rng = np.random.Generator(np.random.PCG64(seed))  # what default_rng(seed) builds
        rng.bit_generator.advance(lo)
        for w, start in zip(weights, starts):
            limit = np.sqrt(1.0 / math.prod(w.shape[1:]))  # fan-in: every axis but the output one
            stop = min(hi, start + w.size)
            for a in range(max(lo, start), stop, _INIT_DRAWS):
                b = min(stop, a + _INIT_DRAWS)
                w.reshape(-1)[a - start:b - start] = rng.uniform(-limit, limit, size=b - a)

    edges = [starts[-1] * i // threads for i in range(threads + 1)]
    # not thread_pool(1): it would hold BLAS to one thread, and the draws use no BLAS
    with thread_pool(threads) if threads > 1 else contextlib.nullcontext() as pool:
        run_jobs(pool, [functools.partial(draw, lo, hi) for lo, hi in zip(edges, edges[1:])])
    return model


def named_parameters(model: Model) -> list[tuple[str, np.ndarray]]:
    """All parameters in a fixed, documented order (also the file order)."""
    return list(model.params)


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
    least _MIN_BLOCK_WORK of work and _MIN_GEMM_ROWS rows (the shortest
    range conv1x1 takes); one block when T is too short for two, or
    when rows of a channels-wide product do not round alike wherever they
    are computed."""
    if not rows_round_alike(channels):
        return [(0, t_len)]
    n = max(1, min(threads, t_len * channels * channels // _MIN_BLOCK_WORK,
                   t_len // _MIN_GEMM_ROWS))
    return [(t_len * i // n, t_len * (i + 1) // n) for i in range(n)]


_open_pool = threading.local()  # .held: (pool, threads) of the thread_pool open on this thread


@contextlib.contextmanager
def thread_pool(threads: int):
    """The helpers of run_jobs when up to threads threads compute at once:
    a pool of threads - 1 workers, or None for one thread. numpy's BLAS is
    held to one thread while it is open, so no product's bits depend on
    BLAS's thread count. Opened on a thread that holds a pool of at least
    threads threads, it reuses that pool and BLAS hold and starts no
    thread: each computing CLI command holds one for the whole command, as
    trainer.fit does for its run, so init, forward, backward, evaluate and
    the AdamW steps inside start none."""
    held = getattr(_open_pool, "held", None)
    if held is not None and held[1] >= threads:
        yield held[0] if threads > 1 else None
        return
    with one_blas_thread, (ThreadPoolExecutor(threads - 1) if threads > 1
                           else contextlib.nullcontext()) as pool:
        _open_pool.held = (pool, threads)
        try:
            yield pool
        finally:
            _open_pool.held = held


def run_jobs(pool, jobs) -> None:
    """Call every job (a zero-argument callable) once, on this thread and on
    pool's workers: each thread takes the next job in list order when it is
    free. Returns when all are done, without waiting for a worker that is
    busy with other work (this thread then runs the jobs alone); a job's
    exception is raised here once no job runs any more, the jobs not yet
    taken left undone."""
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
    try:
        drain()
    finally:
        todo.clear()  # after a failed job, no thread takes another
        # one that has not started would find nothing left
        running = [helper for helper in helpers if not helper.cancel()]
        for helper in running:
            helper.exception()  # waits, and raises nothing
    for helper in running:
        helper.result()


def _block_jobs(blocks, kernel, *args):
    """One job per row block: kernel(*args, rows)."""
    return [functools.partial(kernel, *args, rows) for rows in blocks]


# Rows of a stage's input that one projection product reads: about 2 MiB at
# the compute precision (256 rows of a 2048-wide float32 input), so stage 1
# never holds more of a feature file than one such chunk per thread.
_PROJECT_CHUNK_BYTES = 1 << 21


def _row_chunks(lo: int, hi: int, size: int) -> list[tuple[int, int]]:
    """[lo, hi) cut into ranges of size rows, the last one taking in a
    remainder shorter than _MIN_GEMM_ROWS."""
    starts = list(range(lo, hi, size))
    if len(starts) > 1 and hi - starts[-1] < _MIN_GEMM_ROWS:
        del starts[-1]
    return list(zip(starts, [*starts[1:], hi]))


def _slice_rows(x, lo, hi):
    return x[lo:hi]


def _project_rows(stage: Stage, read, chunk: int, h, rows):
    """Rows [lo, hi) of the stage's input projection into h, one product per
    chunk of rows; read(a, b) gives rows [a, b) of the stage's input."""
    for a, b in _row_chunks(*rows, chunk):
        conv1x1(read(a, b), stage.proj_w, stage.proj_b, h[a:b])


@functools.cache
def _tap_plan(d_lo: int, d_hi: int, fuse_mode: str):
    """Per dilated convolution of a layer (concat's two, sum's one over their
    distinct shifts): (shift, the (weight, tap) pairs of (w_d1, w_d2) that
    read it, w_d1's first), ascending. Cached: derived once per dilations."""
    convs = ({}, {})
    for c, d in enumerate((d_lo, d_hi)):
        for j, shift in enumerate(tap_shifts(KERNEL_SIZE, d)):
            convs[c if fuse_mode == "concat" else 0].setdefault(shift, []).append((c, j))
    return tuple(tuple((shift, tuple(src)) for shift, src in sorted(conv.items()))
                 for conv in convs if conv)


def _tap_kernels(layer: DualDilatedLayer, fuse_mode: str, transposed: bool = False):
    """(convs, fills): (kernel, shifts) of each _tap_plan convolution, and
    one job per tap that fills it, a slice copy or one add. A kernel is a
    (Cout, Cin, taps) view of a tap-major array, whose C-contiguous taps
    BLAS takes transposed as they are: a strided tap of w_d1 is copied per
    product (same bits, 10% slower), and the other layout does not round
    its rows alike at some widths (72 in float32).

    transposed=True gives the input-gradient twins: channels swapped, taps
    and shifts reversed, shifts negated. The input gradient at row s gathers
    grad_out[s - shift_j] @ tap_j: a dilated_conv1d with zero bias."""
    weights = (layer.w_d1, layer.w_d2)
    convs, fills = [], []
    for taps in _tap_plan(layer.dilation_low, layer.dilation_high, fuse_mode):
        if transposed:
            taps = [(-shift, src) for shift, src in reversed(taps)]
        kernel = np.empty((len(taps), *layer.w_d1.shape[:2]), dtype=layer.w_d1.dtype)
        for tap, (_, src) in zip(kernel, taps):
            parts = [weights[c][:, :, j].T if transposed else weights[c][:, :, j] for c, j in src]
            fills.append(functools.partial(np.add, *parts, out=tap) if len(parts) == 2
                         else functools.partial(np.copyto, tap, parts[0]))
        convs.append((kernel.transpose(1, 2, 0), tuple(shift for shift, _ in taps)))
    return convs, fills


def _layer_convs(layer: DualDilatedLayer, fuse_mode: str):
    """The layer's dilated convolutions as (kernel, bias, shifts) triples,
    each filling the next F columns of the fusion; sum's one takes bias
    b_d1 + b_d2. Built per call, so they follow every parameter update."""
    convs, fills = _tap_kernels(layer, fuse_mode)
    run_jobs(None, fills)
    biases = (layer.b_d1, layer.b_d2) if fuse_mode == "concat" else (layer.b_d1 + layer.b_d2,)
    return [(kernel, bias, shifts) for (kernel, shifts), bias in zip(convs, biases)]


def _layer_rows(layer: DualDilatedLayer, convs, h, a, out, rows):
    """Rows [lo, hi) of one layer into the layer's full-length fusion a and
    output out; reads only h and, for the fuse conv, rows [lo, hi) of a.
    convs are the layer's _layer_convs."""
    # the residual add runs in place; IEEE addition is commutative, so the
    # bits equal those of h + fuse
    lo, hi = rows
    f = h.shape[1]
    for i, (kernel, bias, dilation) in enumerate(convs):
        dilated_conv1d(h, kernel, bias, dilation, a[lo:hi, i * f:(i + 1) * f], rows)
    relu(a[lo:hi], a[lo:hi])
    conv1x1(a, layer.w_fuse, layer.b_fuse, out[lo:hi], rows)
    out[lo:hi] += h[lo:hi]


def _layer_forward(layer: DualDilatedLayer, h: np.ndarray, fuse_mode: str, blocks, pool):
    t_len, f = h.shape
    a = np.empty((t_len, f if fuse_mode == "sum" else 2 * f), dtype=h.dtype)
    out = np.empty_like(h)
    # the merged kernel after the arrays that outlive the layer, so the
    # heap space it frees is not a hole below them: built first, it left
    # train-paper's peak 5 MiB higher (glibc, 2 threads)
    convs = _layer_convs(layer, fuse_mode)
    run_jobs(pool, _block_jobs(blocks, _layer_rows, layer, convs, h, a, out))
    return out, _LayerCache(h_in=h, pre_relu=a, post_relu=a)


def forward(model: Model | ModelFile, x, return_cache: bool = False, threads: int = 1):
    """Run all stages; returns the list of per-stage probability matrices.

    With return_cache=True also returns the activations backward() needs.
    Without it no activation outlives the layer that reads it, so memory
    holds a few (T, channels) arrays whatever the depth.

    threads bounds the threads that compute at once: the input projection
    and each layer are cut into that many row blocks when the sequence is
    long enough (see _row_blocks). The result is bit-identical for every
    thread count.

    x is a (T, in_dim) array or a reader of one, such as
    synthgen.FeatureFile: an object with .shape, .dtype (the model's) and
    .rows(lo, hi). Each projection reads its input in chunks of about
    _PROJECT_CHUNK_BYTES, so a reader's rows are never all in memory; it
    takes return_cache=False, since backward reads the whole input.

    model is a Model, whose parameters are one flat array, or a ModelFile,
    whose stages are read in turn into one buffer that each reuses; only
    config, dtype and stages (once, in order) are read. A ModelFile takes
    return_cache=False too, since backward reads every stage again.
    """
    if return_cache and not isinstance(model, Model):
        raise ValueError("backward needs every stage's parameters: pass a Model, "
                         "not a ModelFile, with return_cache=True")
    cfg = model.config
    if hasattr(x, "rows"):  # a reader: its rows are read, checked and dropped per chunk
        if return_cache:
            raise ValueError("backward needs the whole stage-1 input: pass an array, "
                             "not a reader, with return_cache=True")
        if x.dtype != model.dtype:
            raise ValueError(f"the reader hands out {x.dtype}, the model computes in "
                             f"{model.dtype}")
        read = x.rows
    else:
        x = as_matrix(x, "features", model.dtype).astype(model.dtype, copy=False)
        read = functools.partial(_slice_rows, x)
    if x.shape[1] != cfg.in_dim:
        raise ShapeError(f"input has {x.shape[1]} channels, model expects {cfg.in_dim}")

    t_len, f = x.shape[0], cfg.channels
    blocks = _row_blocks(t_len, f, threads)
    cache = ForwardCache()
    stage_probs = []
    current = x
    with thread_pool(len(blocks)) as pool:
        for stage in model.stages:
            h = np.empty((t_len, f), dtype=model.dtype)
            # rows round alike over other spans than the block's only at some
            # widths; elsewhere each block stays one product
            chunk = (max(_MIN_GEMM_ROWS, _PROJECT_CHUNK_BYTES
                         // (current.shape[1] * model.dtype.itemsize))
                     if rows_round_alike(f) else t_len)
            run_jobs(pool, _block_jobs(blocks, _project_rows, stage, read, chunk, h))
            layer_caches = []
            for layer in stage.layers:
                h, lc = _layer_forward(layer, h, cfg.fuse_mode, blocks, pool)
                if return_cache:
                    layer_caches.append(lc)
                del lc  # otherwise this layer's activations live through the next layer
            logits = conv1x1(h, stage.head_w, stage.head_b)
            probs = softmax_rows(logits)
            if return_cache:
                cache.stage_caches.append(_StageCache(
                    stage_input=current, layer_caches=layer_caches, final_h=h, probs=probs))
            stage_probs.append(probs)
            current, read = probs, functools.partial(_slice_rows, probs)
    if return_cache:
        return stage_probs, cache
    return stage_probs


def _fusion_grad_rows(w_fuse_t, g_out, a, g_a, rows):
    """Rows [lo, hi) of the gradient at the fusion, (g_out @ w_fuse) where
    the fusion a is positive, into g_a; w_fuse_t is w_fuse.T made
    C-contiguous, so the product is laid out as forward's."""
    lo, hi = rows
    np.matmul(g_out[lo:hi], w_fuse_t.T, out=g_a[lo:hi])
    relu_backward(a[lo:hi], g_a[lo:hi], out=g_a[lo:hi])


def _input_grad_rows(inputs, g_h, dxs, rows):
    """Rows [lo, hi) of the layer's input gradient into g_h in place, where
    g_h holds the gradient at the layer's output. Each of inputs, a
    (gradient at a dilated conv's output, _tap_kernels twin, shifts),
    gives that conv's input gradient into rows [lo, hi) of its array of
    dxs; two are summed before g_h takes them."""
    lo, hi = rows
    zero = np.zeros(g_h.shape[1], dtype=g_h.dtype)
    dxs = [dx[lo:hi] for dx in dxs]
    for (g_c, kernel, shifts), dx in zip(inputs, dxs):
        dilated_conv1d(g_c, kernel, zero, shifts, dx, rows)
    for dx in dxs[1:]:
        dxs[0] += dx
    g_h[lo:hi] += dxs[0]


# Every parameter gradient is written straight into the stage's gradient.
# Products made as temporaries and copied in left train-paper's peak
# memory 1.3-2 MiB higher (glibc, 2 threads), at the first AdamW step after
# backward: memory freed on a helper thread stays in that thread's arena.

def _layer_backward(layer: DualDilatedLayer, lc: _LayerCache, g_h, fuse_mode,
                    grad: DualDilatedLayer, g_a, dxs, blocks, pool):
    """Gradients of one layer, given g_h, the gradient at its output, which
    becomes the gradient at its input in place. Two passes of jobs: the
    fusion gradient g_a in row blocks, the fuse conv's parameter gradients,
    the taps of the _tap_kernels twins; then the input gradient in row
    blocks, one job per bias and one per shift of the kernel gradients (one
    whole product each, so no thread count changes their bits)."""
    w_fuse_t = np.ascontiguousarray(layer.w_fuse.T)
    twins, fills = _tap_kernels(layer, fuse_mode, transposed=True)
    run_jobs(pool, [functools.partial(conv1x1_backward, lc.post_relu, layer.w_fuse, g_h,
                                      grad.w_fuse, grad.b_fuse, d_input=False),
                    *_block_jobs(blocks, _fusion_grad_rows, w_fuse_t, g_h, lc.pre_relu, g_a),
                    *fills])
    f = g_h.shape[1]
    # each conv's output gradient: concat's halves made contiguous once, not per block
    g_convs = ([g_a] if fuse_mode == "sum"
               else [np.ascontiguousarray(g_a[:, i * f:(i + 1) * f]) for i in (0, 1)])
    w_grads = (grad.w_d1, grad.w_d2)
    plan = _tap_plan(layer.dilation_low, layer.dilation_high, fuse_mode)
    taps = [(g_c, shift, [w_grads[c][:, :, j:j + 1] for c, j in src])  # (Cout, Cin, 1) views
            for g_c, conv in zip(g_convs, plan) for shift, src in conv]
    params = [functools.partial(dilated_conv1d_backward, lc.h_in, (shift,), g_c, views[0])
              for g_c, shift, views in taps]
    params += [functools.partial(np.sum, g_c, axis=0, out=d_bias)  # sum: both from g_a
               for d_bias, g_c in zip((grad.b_d1, grad.b_d2), g_convs * 2)]
    inputs = [(g_c, *twin) for g_c, twin in zip(g_convs, twins)]
    run_jobs(pool, [*params, *_block_jobs(blocks, _input_grad_rows, inputs, g_h, dxs)])
    for _, _, (first, *others) in taps:
        for view in others:
            view[...] = first


@dataclass
class BackwardBuffers:
    """backward's work arrays for one T-frame sequence; every stage and layer
    refills them. Allocated before the forward whose cache backward reads,
    they lie below that cache in the heap (see backward)."""

    grad: np.ndarray  # one stage's gradient, sized for the largest stage
    g_a: np.ndarray  # the fusion gradient of the layer in hand
    dxs: list[np.ndarray]  # the input gradient of each of its dilated convs
    g_probs: np.ndarray  # the gradient arriving at a stage's probabilities


def backward_buffers(cfg: StageConfig, t_len: int, dtype) -> BackwardBuffers:
    f = cfg.channels
    width = f if cfg.fuse_mode == "sum" else 2 * f
    return BackwardBuffers(
        grad=np.empty(max(_stage_param_count(cfg, s) for s in range(cfg.stages)), dtype=dtype),
        g_a=np.empty((t_len, width), dtype=dtype),
        dxs=[np.empty((t_len, f), dtype=dtype) for _ in range(width // f)],
        g_probs=np.empty((t_len, cfg.n_classes), dtype=dtype))


def backward(model: Model, cache: ForwardCache, stage_logit_grads, threads: int = 1,
             apply=None, buffers: BackwardBuffers | None = None) -> Model | None:
    """Full-model gradients given each stage's direct dL/dlogits.

    Gradients flow backward through the probability handoff: the loss applied
    to stage s also reaches every earlier stage via the refinement inputs.
    The stages run from last to first, each writing its gradient with
    _bind_stage's layout.

    A cache serves one backward: each stage's entry of cache.stage_caches is
    dropped (set to None) as soon as the stage is done. Without apply,
    returns a gradient Model with the parameter layout of model, each
    stage's gradient written into its range of one flat array. With apply,
    returns None: each stage's gradient goes into one buffer that every
    stage reuses, and is handed over as apply(s, flat) once the gradient
    that leaves stage s for stage s - 1 exists and stage s's cache is
    dropped. Nothing reads stage s's parameters after that, so apply may
    update them; the buffer is refilled by the next stage.

    buffers are backward_buffers for the cache's T frames; without, backward
    allocates its own. A stage's cache goes back to the system when it is
    dropped only if nothing allocated after it is still live: glibc returns
    only the top of its heap. So a caller that wants this allocates the
    buffers and the logit gradients before the forward, and drops its own
    references to forward's probabilities; every array backward allocates
    for a stage dies before the stage's cache does.

    threads bounds the threads that compute at once, over the row blocks
    forward uses; the gradients are bit-identical for every thread count.
    """
    if cache is None or not cache.stage_caches or cache.stage_caches[-1] is None:
        raise ValueError("forward cache missing or used: run forward(..., return_cache=True) "
                         "for each backward")
    n_stages = len(model.stages)
    if len(stage_logit_grads) != n_stages:
        raise ShapeError(f"expected {n_stages} per-stage gradients, got {len(stage_logit_grads)}")

    cfg = model.config
    t_len, f = cache.stage_caches[0].final_h.shape
    if buffers is None:
        buffers = backward_buffers(cfg, t_len, model.dtype)
    g_a, dxs, g_probs = buffers.g_a, buffers.dxs, buffers.g_probs
    flat = buffers.grad if apply else np.empty_like(model.flat)  # backward writes every entry
    blocks = _row_blocks(t_len, f, threads)
    parts = stage_slices(cfg)
    with thread_pool(len(blocks)) as pool:
        for s in range(n_stages - 1, -1, -1):
            part = parts[s]
            g_flat = flat[:part.stop - part.start] if apply else flat[part]
            stage, grad = model.stages[s], _bind_stage(cfg, s, g_flat, [])
            sc, cache.stage_caches[s] = cache.stage_caches[s], None

            g_logits = np.asarray(stage_logit_grads[s], dtype=model.dtype)
            if g_logits.shape != sc.probs.shape:
                raise ShapeError(f"stage {s + 1} gradient shape {g_logits.shape} "
                                 f"does not match logits {sc.probs.shape}")
            if s < n_stages - 1:  # what stage s + 1 left in g_probs
                g_logits = g_logits + softmax_rows_backward(sc.probs, g_probs)

            # a fresh array, so the layers may update it in place
            g_h = conv1x1_backward(sc.final_h, stage.head_w, g_logits, grad.head_w, grad.head_b)
            for l in range(len(stage.layers) - 1, -1, -1):
                _layer_backward(stage.layers[l], sc.layer_caches[l], g_h, cfg.fuse_mode,
                                grad.layers[l], g_a, dxs, blocks, pool)

            conv1x1_backward(sc.stage_input, stage.proj_w, g_h, grad.proj_w, grad.proj_b,
                             d_input=False)
            if s > 0:  # stage 1's input is the features: nothing reads their gradient
                np.matmul(g_h, stage.proj_w, out=g_probs)
            del sc, g_h, g_logits
            if apply:
                apply(s, g_flat)
    return None if apply else _bind(cfg, flat)


# ---------------------------------------------------------------------------
# serialization: magic "MTPP", u32 version, config, then float32 LE params
# ---------------------------------------------------------------------------

_CONFIG_STRUCT = struct.Struct("<7I")  # in_dim, channels, classes, stages, L_pred, L_ref, fuse
_HEADER_SIZE = 8 + _CONFIG_STRUCT.size  # magic, version, config


def _read_header(buf, size: int) -> StageConfig:
    """The config of the model header buf, read from the start of a file of
    size bytes: raises ModelFormatError unless the header is whole and valid
    and the file holds exactly the parameter bytes it describes after the
    header. The header alone fixes that count, so nothing is allocated for a
    hostile one."""
    if buf[:4] != MAGIC:
        raise ModelFormatError("not a model file: bad magic bytes")
    try:
        (version,) = struct.unpack_from("<I", buf, 4)
        if version != FORMAT_VERSION:
            raise ModelVersionError(f"unsupported model format version {version} "
                                    f"(expected {FORMAT_VERSION})")
        fields = _CONFIG_STRUCT.unpack_from(buf, 8)
    except struct.error as exc:
        raise ModelFormatError(f"truncated model header: {exc}") from None
    if fields[6] >= len(FUSE_MODES):
        raise ModelFormatError(f"unknown fusion mode id {fields[6]}")
    try:
        cfg = StageConfig(in_dim=fields[0], channels=fields[1], n_classes=fields[2],
                          stages=fields[3], layers_prediction=fields[4],
                          layers_refinement=fields[5], fuse_mode=FUSE_MODES[fields[6]])
    except ValueError as exc:
        raise ModelFormatError(f"invalid model header: {exc}") from None
    end = _HEADER_SIZE + 4 * _param_count(cfg)
    if end > size:
        raise ModelFormatError(f"model file truncated: header describes {end - _HEADER_SIZE} "
                               f"parameter bytes, {size - _HEADER_SIZE} present")
    if end < size:
        raise ModelFormatError(f"{size - end} unexpected trailing bytes in model file")
    return cfg


def save_model(model: Model, path) -> None:
    """Write the header, then the parameters as float32 straight from
    model.flat (a float32 model's are not copied), through replacing: path
    holds the whole new file or, if the save fails, the file it held before."""
    cfg = model.config
    with replacing(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", FORMAT_VERSION)
                 + _CONFIG_STRUCT.pack(cfg.in_dim, cfg.channels, cfg.n_classes, cfg.stages,
                                       cfg.layers_prediction, cfg.layers_refinement,
                                       FUSE_MODES.index(cfg.fuse_mode)))
        fh.write(memoryview(model.flat.astype("<f4", copy=False)))


def load_model(path, dtype=np.float64) -> Model:
    """The model file at path, read through a ModelFile into one float32
    array, which a float32 model keeps and a float64 one is cast from."""
    with ModelFile(path, dtype) as reader:
        raw = np.empty(_param_count(reader.config), dtype="<f4")  # not zero-filled first
        reader._read(_HEADER_SIZE, raw, "the parameters")
    return _bind(reader.config, raw.astype(dtype, copy=False))


class ModelFile:
    """A model file opened at dtype: the only code that reads model bytes.

    Opening reads the header and checks it and the file's exact length
    (ModelFormatError). load_model then reads every parameter; forward
    (return_cache=False) takes config, dtype and stages as a Model's:
    stages yields each Stage in order, read at its file offset into one
    float32 buffer sized for the largest stage (at float64 also cast into
    one float64 buffer of that size) that every stage reuses, so a stage's
    arrays stay valid only until the next stage is taken. Bytes the file no
    longer holds, since it shrank after opening, raise ModelFormatError.
    Use it in a `with` block, or close() it.
    """

    def __init__(self, path, dtype=np.float64):
        self.path, self.dtype = path, np.dtype(dtype)
        self._fh = open(path, "rb", buffering=0)
        try:
            self.config = _read_header(self._fh.read(_HEADER_SIZE),
                                       os.fstat(self._fh.fileno()).st_size)
        except BaseException:
            self._fh.close()
            raise

    def _read(self, pos: int, raw: np.ndarray, what: str) -> None:
        """Fills the 1-D array raw with the file's bytes from offset pos; what
        names them in the error if the file ends first."""
        buf = memoryview(raw.view(np.uint8))
        got = 0
        self._fh.seek(pos)
        while got < len(buf) and (k := self._fh.readinto(buf[got:])):
            got += k
        if got < len(buf):
            raise ModelFormatError(f"model file truncated since it was opened: "
                                   f"{what} ends after {got} of {len(buf)} bytes")

    @property
    def stages(self):
        cfg = self.config
        counts = [_stage_param_count(cfg, s) for s in range(cfg.stages)]
        raw = np.empty(max(counts), dtype="<f4")
        flat = raw if raw.dtype == self.dtype else np.empty(raw.size, dtype=self.dtype)
        pos = _HEADER_SIZE
        for s, n in enumerate(counts):
            self._read(pos, raw[:n], f"stage {s + 1}")
            if flat is not raw:
                flat[:n] = raw[:n]
            pos += 4 * n
            yield _bind_stage(cfg, s, flat[:n], [])

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
