"""Counter-based post-processing that enforces a forward-only phase timeline.

Raw per-frame predictions flicker; surgical phases do not. The smoother walks
the prediction stream with a counter: it opens when a frame predicts the
phase directly following the current one, increments on consecutive such
frames, resets on anything else, and commits the transition once the counter
reaches the threshold. Committed output therefore never regresses
and only advances one phase at a time.
"""

from __future__ import annotations

import numpy as np


def _initial_phase(preds: np.ndarray, window: int) -> int:
    """Majority vote over the first `window` frames; ties pick the lower id."""
    head = preds[:window]
    counts = np.bincount(head)
    return int(np.argmax(counts))


def smooth(predictions, threshold: int) -> np.ndarray:
    """Convert a noisy prediction stream into a monotone phase timeline,
    committing a transition after threshold consecutive supporting frames.

    Takes a 1-D array of phase ids; returns an int64 array of the same
    length. Raises on empty input.
    """
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    preds = np.asarray(predictions, dtype=np.int64)
    if preds.ndim != 1:
        raise ValueError(f"predictions must be 1-D, got shape {preds.shape}")
    if preds.size == 0:
        raise ValueError("cannot smooth an empty prediction stream")
    if np.any(preds < 0):
        raise ValueError("predictions must be nonnegative phase ids")

    out = np.empty_like(preds)
    current = _initial_phase(preds, threshold)
    count = 0  # consecutive frames, up to t, that predict current + 1
    for t, p in enumerate(preds):
        if p == current + 1:
            count += 1
            if count >= threshold:
                current += 1
                # relabel back to the run's first frame: no boundary lag
                out[t - count + 1:t] = current
                count = 0
        else:
            count = 0
        out[t] = current
    return out


def argmax_decode(probs) -> np.ndarray:
    """Per-frame argmax of a probability matrix; ties go to the lower phase id."""
    if probs.ndim != 2:
        raise ValueError(f"probabilities must be 2-D, got shape {probs.shape}")
    return np.argmax(probs, axis=1).astype(np.int64)
