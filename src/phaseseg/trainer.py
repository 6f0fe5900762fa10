"""Optimization loop for the multi-stage model.

AdamW with decoupled weight decay, a cosine-annealed learning rate over
epochs, per-epoch sequence shuffling (uniform or class-balanced with
replacement), early stopping on rising validation loss and in-memory
checkpointing of the best epoch. Each optimizer step takes the gradient
of one sequence.

Everything is deterministic for a fixed seed: in either precision, float32
or float64, two identical runs produce bit-identical parameters, whatever
the thread count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import mstcnpp
from .losses import FocalConfig, inverse_frequency_alpha, total_loss

SAMPLING_MODES = ("uniform", "class-balanced")
ALPHA_MODES = ("uniform", "inverse-frequency")


class DivergenceError(RuntimeError):
    """Training hit a non-finite loss; carries the report collected so far,
    marked diverged."""

    def __init__(self, message, report):
        super().__init__(message)
        report.diverged = True
        self.report = report


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 1e-5
    smoothing_weight: float = 0.15
    patience: int = 3
    seed: int = 0
    weight_decay: float = 0.01
    sampling: str = "uniform"
    gamma: float = 2.0
    alpha_mode: str = "uniform"

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        # nan fails every comparison, so each check asks for the valid range
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning rate (lr) must be finite and > 0, "
                             f"got {self.learning_rate}")
        for key, value in (("weight_decay", self.weight_decay),
                           ("smoothing weight (lambda_smooth)", self.smoothing_weight),
                           ("gamma", self.gamma)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{key} must be finite and >= 0, got {value}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.sampling not in SAMPLING_MODES:
            raise ValueError(f"sampling must be one of {SAMPLING_MODES}")
        if self.alpha_mode not in ALPHA_MODES:
            raise ValueError(f"alpha_mode must be one of {ALPHA_MODES}")


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------

# bytes per AdamW slice (2^16 float32 elements): a slice of params, grads, m,
# v and two scratch arrays stays in L2, and two threads updating ranges at
# once queue less on the GIL (paper size, float32, 2-core x86 VM with 2 MiB
# L2 per core: 61-76 ms per step on two threads, against 142-188 at 2^14)
_ADAMW_SLICE_BYTES = 1 << 18

# Adam's moment decay rates and denominator guard (Kingma and Ba's defaults)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamWState:
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adamw_step(params: np.ndarray, grads: np.ndarray, state: AdamWState, lr: float,
               weight_decay: float = 0.0, threads: int = 1) -> AdamWState:
    """One decoupled-weight-decay Adam update of the flat array params, in place.

    grads is a flat array of the same size; the moments start at zero. The
    update is elementwise, so the slices are cut into up to threads ranges
    that run at once, with the same bits for every thread count.
    """
    if state.m is None:
        # zero pages from the allocator, first written by update's threads
        state.m, state.v = np.zeros(params.size, params.dtype), np.zeros(params.size, params.dtype)
    state.step += 1
    t = state.step
    bias1 = 1.0 - _BETA1**t
    bias2 = 1.0 - _BETA2**t

    chunk = _ADAMW_SLICE_BYTES // params.itemsize

    def update(start, stop):
        # two scratch slices per range take every intermediate, where each
        # ufunc would allocate its own; the bits are those of the expression
        # p -= lr * (m / bias1) / (np.sqrt(v / bias2) + _EPS)
        scratch = np.empty((2, min(chunk, stop - start)), dtype=params.dtype)
        for lo in range(start, stop, chunk):
            part = slice(lo, lo + chunk)
            p, g, m, v = params[part], grads[part], state.m[part], state.v[part]
            a, b = scratch[:, :p.size]
            if weight_decay:  # float32 rounds the factor to 1 once lr * weight_decay < 2.98e-8
                p *= 1.0 - lr * weight_decay
            m *= _BETA1
            m += np.multiply(g, 1.0 - _BETA1, out=a)
            v *= _BETA2
            v += np.multiply(np.square(g, out=a), 1.0 - _BETA2, out=a)
            np.sqrt(np.divide(v, bias2, out=a), out=a)
            a += _EPS
            p -= np.divide(np.multiply(np.divide(m, bias1, out=b), lr, out=b), a, out=b)

    slices = -(-params.size // chunk)
    parts = max(1, min(threads, slices))
    edges = [chunk * (slices * i // parts) for i in range(parts + 1)]
    with mstcnpp.thread_pool(parts) as pool:
        mstcnpp.run_jobs(pool, [functools.partial(update, lo, min(hi, params.size))
                                for lo, hi in zip(edges, edges[1:])])
    return state


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """base_lr * 0.5 * (1 + cos(pi * step / total_steps)), floored at 0."""
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")
    frac = min(max(step / total_steps, 0.0), 1.0)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * frac))


# ---------------------------------------------------------------------------
# epoch sampling
# ---------------------------------------------------------------------------

def sequence_weights(dataset, n_classes: int) -> np.ndarray:
    """Per-sequence weight = mean inverse class frequency of its frames,
    normalised to sum 1 (which cancels inverse_frequency_alpha's scale)."""
    inv = inverse_frequency_alpha([labels for _, labels in dataset], n_classes)
    weights = np.empty(len(dataset))
    for i, (_, labels) in enumerate(dataset):
        kept = labels[labels >= 0]
        weights[i] = inv[kept].mean() if kept.size else 0.0
    if weights.sum() == 0:
        weights[:] = 1.0
    return weights / weights.sum()


def sample_epoch(dataset, mode: str, seed: int, n_classes: int) -> list[int]:
    """Order of sequence indices for one epoch.

    uniform: a seeded permutation. class-balanced: len(dataset) draws with
    replacement, each sequence weighted by its mean inverse class frequency.
    """
    if len(dataset) == 0:
        raise ValueError("cannot sample from an empty dataset")
    rng = np.random.default_rng(seed)
    if mode == "uniform":
        return list(rng.permutation(len(dataset)))
    if mode != "class-balanced":
        raise ValueError(f"sampling mode must be one of {SAMPLING_MODES}, got {mode!r}")
    probs = sequence_weights(dataset, n_classes)
    return list(rng.choice(len(dataset), size=len(dataset), replace=True, p=probs))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(model, dataset, focal_cfg: FocalConfig, smoothing_weight: float,
             threads: int = 1):
    """Mean per-sequence total loss and pooled frame accuracy, over the
    sequences in dataset order, each forward on threads threads."""
    losses, correct, counted = [], 0, 0
    for features, labels in dataset:
        probs = mstcnpp.forward(model, features, threads=threads)
        breakdown, _ = total_loss(probs, labels, focal_cfg, smoothing_weight)
        pred = np.argmax(probs[-1], axis=1)
        kept = labels >= 0
        losses.append(breakdown.total)
        correct += int((pred[kept] == labels[kept]).sum())
        counted += int(kept.sum())
    return float(np.mean(losses)), (correct / counted if counted else 0.0)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

@dataclass
class EpochStats:
    epoch: int
    lr: float
    train_focal: float
    train_smooth: float
    train_total: float
    val_loss: float
    val_accuracy: float


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)
    stop_epoch: int = 0
    best_epoch: int = 0
    best_checkpoint: str = ""
    diverged: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


def check_splits(model_cfg: mstcnpp.StageConfig, train_set, val_set) -> None:
    """Raise ValueError unless both splits hold sequences and every sequence
    fits a model of model_cfg: in_dim channels, one label per frame, finite
    features, labels below n_classes and at least one counted frame."""
    if not train_set or not val_set:
        raise ValueError("train and validation sets must be non-empty")
    for split_name, split in (("train", train_set), ("val", val_set)):
        for i, (features, labels) in enumerate(split):
            if features.shape[1] != model_cfg.in_dim:
                raise ValueError(f"{split_name} sequence {i} has {features.shape[1]} "
                                 f"channels, model expects {model_cfg.in_dim}")
            if features.shape[0] != labels.shape[0]:
                raise ValueError(f"{split_name} sequence {i}: {features.shape[0]} frames "
                                 f"but {labels.shape[0]} labels")
            if not np.all(np.isfinite(features)):
                raise ValueError(f"{split_name} sequence {i} has non-finite features")
            if labels.max() >= model_cfg.n_classes:
                raise ValueError(f"{split_name} sequence {i} has labels outside "
                                 f"[0, {model_cfg.n_classes})")
            if labels.max() < 0:
                raise ValueError(f"{split_name} sequence {i} has no counted frame "
                                 f"(every label is < 0)")


def fit(model, train_set, val_set, cfg: TrainConfig, threads: int = 1):
    """Train up to cfg.epochs with early stopping on rising validation loss.

    threads bounds the threads that compute at once in forward and backward
    passes and the AdamW update; the result does not depend on it. One pool
    of them and one BLAS hold serve the whole run (mstcnpp.thread_pool).

    Returns (best_model, report) where best_model is the checkpoint with the
    lowest validation loss: model itself when that is the last epoch run,
    else a snapshot taken before the next epoch's first update. Raises
    ValueError, before any step, where check_splits does, and DivergenceError
    (report attached) on a non-finite loss or gradient.
    """
    check_splits(model.config, train_set, val_set)
    n_classes = model.config.n_classes
    alpha = None
    if cfg.alpha_mode == "inverse-frequency":
        alpha = inverse_frequency_alpha([labels for _, labels in train_set], n_classes)
    focal_cfg = FocalConfig(gamma=cfg.gamma, alpha=alpha)

    state = AdamWState()
    report = TrainReport()
    best_model = None  # the snapshot buffer, made when an epoch follows the best one
    best_val = math.inf
    rise_streak = 0
    prev_val = math.inf

    with mstcnpp.thread_pool(threads):
        for epoch in range(1, cfg.epochs + 1):
            if epoch > 1 and report.best_epoch == epoch - 1:  # its updates move the best
                if best_model is None:
                    best_model = mstcnpp.clone(model)
                else:
                    np.copyto(best_model.flat, model.flat)  # in place: no third parameter array
            lr = cosine_lr(epoch - 1, cfg.epochs, cfg.learning_rate)
            order = sample_epoch(train_set, cfg.sampling, seed=cfg.seed + epoch,
                                 n_classes=n_classes)

            focal_sum = smooth_sum = total_sum = 0.0
            for idx in order:
                features, labels = train_set[idx]
                try:
                    probs, cache = mstcnpp.forward(model, features, return_cache=True,
                                                   threads=threads)
                    breakdown, stage_grads = total_loss(probs, labels, focal_cfg,
                                                        cfg.smoothing_weight)
                except ValueError as exc:  # inputs were validated: this is numeric blowup
                    raise DivergenceError(
                        f"numeric failure at epoch {epoch}: {exc}", report) from exc
                if not math.isfinite(breakdown.total):
                    raise DivergenceError(f"non-finite training loss at epoch {epoch}", report)
                focal_sum += sum(breakdown.per_stage_focal)
                smooth_sum += sum(breakdown.per_stage_smooth)
                total_sum += breakdown.total

                grads = mstcnpp.backward(model, cache, stage_grads, threads=threads)
                # free this step's forward cache here and its gradient after the
                # update, not when the next step rebinds the names: otherwise two
                # of each are live
                del probs, cache, stage_grads
                if not np.isfinite(grads.flat).all():  # before the update, so no block moves
                    bad = next(name for name, g in mstcnpp.named_parameters(grads)
                               if not np.isfinite(g).all())
                    raise DivergenceError(f"non-finite gradient in parameter block {bad!r}",
                                          report)
                adamw_step(model.flat, grads.flat, state, lr, cfg.weight_decay, threads=threads)
                del grads

            try:
                val_loss, val_acc = evaluate(model, val_set, focal_cfg,
                                             cfg.smoothing_weight, threads=threads)
            except ValueError as exc:
                raise DivergenceError(
                    f"numeric failure in validation at epoch {epoch}: {exc}", report) from exc
            report.epochs.append(EpochStats(
                epoch=epoch, lr=lr,
                train_focal=focal_sum / len(order),
                train_smooth=smooth_sum / len(order),
                train_total=total_sum / len(order),
                val_loss=val_loss, val_accuracy=val_acc,
            ))
            report.stop_epoch = epoch
            if not math.isfinite(val_loss):
                raise DivergenceError(f"non-finite validation loss at epoch {epoch}", report)

            if val_loss < best_val:
                best_val = val_loss
                report.best_epoch = epoch
                report.best_checkpoint = f"epoch{epoch:03d}"

            rise_streak = rise_streak + 1 if val_loss > prev_val else 0
            prev_val = val_loss
            if rise_streak >= cfg.patience:
                break
    return (model if report.best_epoch == report.stop_epoch else best_model), report
