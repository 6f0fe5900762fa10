"""Training objectives: focal, contrastive (NT-Xent), temporal smoothing, total.

All sequence losses take row-stochastic probability matrices and return the
scalar loss together with the analytic gradient with respect to the
pre-softmax logits that produced those probabilities, so callers never have
to chain through the softmax themselves. The contrastive loss operates on
raw embedding rows and differentiates with respect to them.

Probabilities are floored at PROB_FLOOR before any log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .seqcore import ShapeError, softmax_rows_backward

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class FocalConfig:
    """Focusing parameter gamma and per-class weights alpha.

    alpha is None (uniform 1.0) or a length-C vector with entries in [0, 1].
    gamma = 0 with uniform alpha reduces the loss to plain cross-entropy.
    """

    gamma: float = 2.0
    alpha: np.ndarray | None = None

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.alpha is not None:
            a = np.asarray(self.alpha, dtype=float)
            if np.any(a < 0) or np.any(a > 1):
                raise ValueError("alpha entries must lie in [0, 1]")
            object.__setattr__(self, "alpha", a)

    def class_weights(self, n_classes: int) -> np.ndarray:
        if self.alpha is None:
            return np.ones(n_classes)
        if self.alpha.shape != (n_classes,):
            raise ShapeError(f"alpha must have {n_classes} entries, got shape {self.alpha.shape}")
        return self.alpha


def inverse_frequency_alpha(labels_per_sequence, n_classes: int) -> np.ndarray:
    """Class weights proportional to inverse frame frequency, scaled to max 1.

    Ignored frames (label < 0) are excluded from the counts; classes absent
    from the data receive the maximum weight.
    """
    counts = np.zeros(n_classes, dtype=np.int64)
    for labels in labels_per_sequence:
        labels = np.asarray(labels)
        kept = labels[labels >= 0]
        counts += np.bincount(kept, minlength=n_classes)
    inv = counts.sum() / np.maximum(counts, 1)
    inv[counts == 0] = inv.max() if counts.any() else 1.0
    return inv / inv.max()


def focal_loss(probs, labels, cfg: FocalConfig = FocalConfig()):
    """Mean focal loss -alpha_y (1 - p_y)^gamma log(p_y) over counted frames.

    Frames with label < 0 are skipped. Returns (loss, gradient w.r.t.
    logits); the gradient is zero on skipped frames.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (probs.shape[0],):
        raise ShapeError(f"labels must have shape ({probs.shape[0]},), got {labels.shape}")
    n_classes = probs.shape[1]
    if np.any(labels >= n_classes):
        bad = int(labels[labels >= n_classes][0])
        raise ValueError(f"label {bad} out of range for {n_classes} classes")
    mask = labels >= 0
    n_counted = int(mask.sum())
    if n_counted == 0:
        raise ValueError("no counted frames: every frame is ignored")

    alpha = cfg.class_weights(n_classes)
    rows = np.nonzero(mask)[0]
    y = labels[rows]
    p_y = probs[rows, y]
    p_f = np.maximum(p_y, PROB_FLOOR)
    one_minus = 1.0 - p_f
    a_y = alpha[y]
    log_p = np.log(p_f)
    loss = float(np.mean(-a_y * one_minus**cfg.gamma * log_p))

    # d loss / d p_y, with the floor's clamp zeroing the derivative below it
    if cfg.gamma == 0:
        dldp = -a_y / p_f
    else:
        dldp = a_y * (cfg.gamma * one_minus ** (cfg.gamma - 1) * log_p - one_minus**cfg.gamma / p_f)
    dldp = np.where(p_y > PROB_FLOOR, dldp, 0.0)

    coef = dldp * p_y / n_counted
    grad = np.zeros_like(probs)
    grad[rows] = -coef[:, None] * probs[rows]
    grad[rows, y] += coef
    return loss, grad


@dataclass(frozen=True)
class ContrastiveConfig:
    """Temperature and positive-pair assignment for the contrastive loss.

    pairing maps each row index to its positive partner and must be an
    involution without fixed points; None means adjacent rows are paired,
    (0,1), (2,3), ...
    """

    tau: float = 0.5
    pairing: np.ndarray | None = None

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.pairing is not None:
            object.__setattr__(self, "pairing", np.asarray(self.pairing, dtype=np.int64))

    def partners(self, n_rows: int) -> np.ndarray:
        if self.pairing is None:
            idx = np.arange(n_rows)
            return idx ^ 1
        pr = self.pairing
        if pr.shape != (n_rows,):
            raise ShapeError(f"pairing must have {n_rows} entries, got shape {pr.shape}")
        idx = np.arange(n_rows)
        if np.any(pr == idx) or not np.array_equal(pr[pr], idx):
            raise ValueError("pairing must be an involution without fixed points")
        return pr


def ntxent_loss(embeddings, cfg: ContrastiveConfig = ContrastiveConfig()):
    """Normalized-temperature cross-entropy over positive embedding pairs.

    For each anchor i with partner j, the loss is
    -log exp(sim(z_i, z_j)/tau) / sum_{k != i} exp(sim(z_i, z_k)/tau)
    with sim the cosine similarity, averaged over all 2N anchors. Returns
    (loss, gradient w.r.t. the embedding rows).
    """
    n = embeddings.shape[0]
    if n < 2 or n % 2 != 0:
        raise ShapeError(f"embeddings must hold 2N rows with N >= 1, got {n}")
    partners = cfg.partners(n)
    norms = np.linalg.norm(embeddings, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero-norm embedding row: cosine similarity undefined")

    u = embeddings / norms[:, None]
    sims = u @ u.T
    logits = sims / cfg.tau
    np.fill_diagonal(logits, -np.inf)
    row_max = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - row_max)
    denom = e.sum(axis=1, keepdims=True)
    idx = np.arange(n)
    log_probs = (logits - row_max) - np.log(denom)
    loss = float(np.mean(-log_probs[idx, partners]))

    w = e / denom
    g_sim = w.copy()
    g_sim[idx, partners] -= 1.0
    g_sim /= cfg.tau * n
    np.fill_diagonal(g_sim, 0.0)

    a = g_sim + g_sim.T
    grad = (a @ u - (a * sims).sum(axis=1, keepdims=True) * u) / norms[:, None]
    return loss, grad


def smoothing_loss(probs):
    """Mean absolute frame-to-frame change of log-probabilities.

    (1 / (T*C)) * sum_{t>=2, c} |log p_{t,c} - log p_{t-1,c}|, with
    probabilities floored at PROB_FLOOR. A single-frame sequence has loss 0
    by definition. Returns (loss, gradient w.r.t. logits).
    """
    t_len, n_classes = probs.shape
    if t_len < 2:
        return 0.0, np.zeros_like(probs)
    q = np.maximum(probs, PROB_FLOOR)
    diffs = np.log(q[1:]) - np.log(q[:-1])
    scale = 1.0 / (t_len * n_classes)
    loss = float(np.abs(diffs).sum() * scale)
    signs = np.sign(diffs)

    d_q = np.zeros_like(probs)
    d_q[1:] += signs / q[1:]
    d_q[:-1] -= signs / q[:-1]
    d_p = np.where(probs > PROB_FLOOR, d_q * scale, 0.0)
    return loss, softmax_rows_backward(probs, d_p)


@dataclass
class LossBreakdown:
    """Per-stage focal and smoothing terms plus the combined total."""

    per_stage_focal: list[float]
    per_stage_smooth: list[float]
    smoothing_weight: float
    total: float = field(init=False)

    def __post_init__(self):
        self.total = float(
            sum(f + self.smoothing_weight * s
                for f, s in zip(self.per_stage_focal, self.per_stage_smooth))
        )


def total_loss(stage_probs, labels, cfg: FocalConfig = FocalConfig(),
               smoothing_weight: float = 0.15, out=None):
    """Sum of focal + weighted smoothing loss over all stages.

    Returns (LossBreakdown, per-stage gradients w.r.t. each stage's logits),
    written into the rows of out, a (stages, T, C) array, when given.
    """
    if smoothing_weight < 0:
        raise ValueError(f"smoothing weight must be >= 0, got {smoothing_weight}")
    if not stage_probs:
        raise ValueError("need at least one stage")
    shape = stage_probs[0].shape
    for i, m in enumerate(stage_probs):
        if m.shape != shape:
            raise ShapeError(f"stage {i + 1} shape {m.shape} differs from stage 1 {shape}")

    focals, smooths, grads = [], [], []
    for i, m in enumerate(stage_probs):
        f_val, f_grad = focal_loss(m, labels, cfg)
        s_val, s_grad = smoothing_loss(m)
        focals.append(f_val)
        smooths.append(s_val)
        grads.append(np.add(f_grad, smoothing_weight * s_grad, out=None if out is None else out[i]))
    return LossBreakdown(focals, smooths, smoothing_weight), grads
