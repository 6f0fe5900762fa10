"""Frame-level evaluation: confusion matrix, P/R/F1, macro scores, ribbons.

Metrics live in percent and keep full precision internally; rounding happens
only in the presentation helpers. Classes with neither ground-truth support
nor predictions are excluded from macro averages; a zero denominator inside
precision or recall yields 0 and sets the corresponding flag.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .annotate import PHASE_NAMES

# per-phase ribbon palette (index = phase id); ignored frames draw gray
PHASE_PALETTE = ("#4C72B0", "#DD8452", "#55A868", "#C44E52",
                 "#8172B3", "#937860", "#DA8BC3", "#8C8C8C")
IGNORE_COLOR = "#D3D3D3"


def _name(phase: int) -> str:
    """The ontology's name for a phase id, or the id itself beyond it."""
    return PHASE_NAMES[phase] if phase < len(PHASE_NAMES) else str(phase)


def confusion(gt, pred, n_classes: int) -> np.ndarray:
    """(C, C) int64 counts of (ground truth, prediction) pairs; rows are ground
    truth, columns predictions. Frames with gt < 0 are skipped.
    """
    gt = np.asarray(gt, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    if gt.shape != pred.shape:
        raise ValueError(f"length mismatch: gt has {gt.shape}, pred has {pred.shape}")
    mask = gt >= 0
    g, p = gt[mask], pred[mask]
    if np.any(g >= n_classes) or np.any(p >= n_classes) or np.any(p < 0):
        raise ValueError(f"labels outside [0, {n_classes})")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (g, p), 1)
    return counts


@dataclass(frozen=True)
class MetricReport:
    """Per-class and macro precision/recall/F1 plus accuracy, all in percent."""

    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    macro_precision: float
    macro_recall: float
    macro_f1: float
    accuracy: float
    included: np.ndarray          # classes that enter the macro means
    zero_division: np.ndarray     # classes where a P or R denominator was 0

    def as_dict(self) -> dict:
        per_class = {}
        for c in range(self.precision.size):
            per_class[_name(c)] = {
                "precision": round(float(self.precision[c]), 2),
                "recall": round(float(self.recall[c]), 2),
                "f1": round(float(self.f1[c]), 2),
                "support": int(self.support[c]),
                "in_macro": bool(self.included[c]),
                "zero_division": bool(self.zero_division[c]),
            }
        return {
            "per_class": per_class,
            "macro_precision": round(self.macro_precision, 2),
            "macro_recall": round(self.macro_recall, 2),
            "macro_f1": round(self.macro_f1, 2),
            "accuracy": round(self.accuracy, 2),
        }


def report(counts: np.ndarray) -> MetricReport:
    """Precision, recall, F1 per class plus unweighted macro means and accuracy,
    from a confusion() counts array."""
    total = counts.sum()
    if total == 0:
        raise ValueError("empty confusion matrix: no evaluated frames")
    tp = np.diag(counts).astype(float)
    pred_totals = counts.sum(axis=0).astype(float)
    gt_totals = counts.sum(axis=1).astype(float)

    zero_div = (pred_totals == 0) | (gt_totals == 0)
    precision = np.divide(tp, pred_totals, out=np.zeros_like(tp), where=pred_totals > 0)
    recall = np.divide(tp, gt_totals, out=np.zeros_like(tp), where=gt_totals > 0)
    pr_sum = precision + recall
    f1 = np.divide(2 * precision * recall, pr_sum, out=np.zeros_like(tp), where=pr_sum > 0)

    included = (gt_totals > 0) | (pred_totals > 0)
    if not included.any():
        raise ValueError("no class has support or predictions")
    return MetricReport(
        precision=100 * precision,
        recall=100 * recall,
        f1=100 * f1,
        support=gt_totals.astype(np.int64),
        macro_precision=float(100 * precision[included].mean()),
        macro_recall=float(100 * recall[included].mean()),
        macro_f1=float(100 * f1[included].mean()),
        accuracy=float(100 * tp.sum() / total),
        included=included,
        zero_division=zero_div & included,
    )


def format_report(rep: MetricReport) -> str:
    """Human-readable metrics table, two decimals like the usual reports."""
    width = max([8] + [len(_name(c)) for c in range(rep.precision.size)])
    lines = [f"{'phase':<{width}}  {'prec':>7}  {'recall':>7}  {'f1':>7}  {'support':>8}"]
    for c in range(rep.precision.size):
        flag = "*" if rep.zero_division[c] else ("" if rep.included[c] else "-")
        lines.append(f"{_name(c):<{width}}  {rep.precision[c]:7.2f}  {rep.recall[c]:7.2f}  "
                     f"{rep.f1[c]:7.2f}  {int(rep.support[c]):8d}{flag}")
    lines.append(f"{'macro':<{width}}  {rep.macro_precision:7.2f}  {rep.macro_recall:7.2f}  "
                 f"{rep.macro_f1:7.2f}")
    lines.append(f"accuracy {rep.accuracy:.2f}")
    return "\n".join(lines)


def segment_count(timeline) -> int:
    """Number of maximal constant runs; the over-segmentation proxy."""
    labels = np.asarray(timeline)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("timeline must be a non-empty 1-D label array")
    return int(1 + np.count_nonzero(labels[1:] != labels[:-1]))


def _runs(labels: np.ndarray):
    starts = [0]
    for t in range(1, labels.size):
        if labels[t] != labels[t - 1]:
            starts.append(t)
    starts.append(labels.size)
    return [(starts[i], starts[i + 1], int(labels[starts[i]])) for i in range(len(starts) - 1)]


def _phase_color(phase: int) -> str:
    return IGNORE_COLOR if phase < 0 else PHASE_PALETTE[phase % len(PHASE_PALETTE)]


def export_ribbon(raw, final, path) -> tuple[Path, Path]:
    """Render segment's raw argmax and its final timeline (the labels of
    phases.csv) as a two-track SVG ribbon, tracks "argmax" and "timeline".

    Also writes a frame,gt,pred CSV next to the SVG, whose gt column holds
    raw and pred column final. Returns both paths.
    """
    raw = np.asarray(raw, dtype=np.int64)
    final = np.asarray(final, dtype=np.int64)
    if raw.shape != final.shape or raw.ndim != 1 or raw.size == 0:
        raise ValueError("raw and final must be equal-length non-empty 1-D arrays")
    svg_path = Path(path)
    csv_path = svg_path.with_suffix(".csv")

    t_len = raw.size
    width, track_h, gap, label_w = 720.0, 28, 14, 60
    height = 2 * track_h + gap + 40
    scale = width / t_len

    def track(labels, y, label):
        shapes = [f'<text x="0" y="{y + track_h / 2 + 4}" font-size="12" '
                  f'font-family="sans-serif">{label}</text>']
        for start, end, phase in _runs(labels):
            shapes.append(
                f'<rect x="{label_w + start * scale:.2f}" y="{y}" '
                f'width="{max((end - start) * scale, 0.01):.2f}" height="{track_h}" '
                f'fill="{_phase_color(phase)}"><title>{label}: '
                f'{"ignored" if phase < 0 else _name(phase)} [{start}, {end})</title></rect>')
        return shapes

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{label_w + width + 10:.0f}" '
        f'height="{height}" viewBox="0 0 {label_w + width + 10:.0f} {height}">',
    ]
    parts += track(raw, 10, "argmax")
    parts += track(final, 10 + track_h + gap, "timeline")
    legend_y = 10 + 2 * track_h + gap + 16
    x = float(label_w)
    for c, name in enumerate(PHASE_NAMES):
        parts.append(f'<rect x="{x:.1f}" y="{legend_y - 9}" width="10" height="10" '
                     f'fill="{_phase_color(c)}"/>')
        parts.append(f'<text x="{x + 14:.1f}" y="{legend_y}" font-size="11" '
                     f'font-family="sans-serif">{name}</text>')
        x += 14 + 7 * len(str(name)) + 14
    parts.append("</svg>")
    svg_path.write_text("\n".join(parts), encoding="utf-8")

    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "gt", "pred"])
        for frame in range(t_len):
            writer.writerow([frame, int(raw[frame]), int(final[frame])])
    return svg_path, csv_path
