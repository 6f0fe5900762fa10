import csv

import numpy as np
import pytest

from phaseseg.evalmetrics import (
    confusion,
    export_ribbon,
    format_report,
    report,
    segment_count,
)


def brute_force_metrics(gt, pred, n_classes):
    """Independent per-class P/R/F1 straight from raw label pairs."""
    out = {}
    for c in range(n_classes):
        tp = sum(1 for g, p in zip(gt, pred) if g == c and p == c)
        fp = sum(1 for g, p in zip(gt, pred) if g != c and p == c)
        fn = sum(1 for g, p in zip(gt, pred) if g == c and p != c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        out[c] = (100 * prec, 100 * rec, 100 * f1, tp + fn, tp + fp)
    acc = 100 * sum(1 for g, p in zip(gt, pred) if g == p) / len(gt)
    return out, acc


class TestConfusion:
    def test_perfect_prediction_is_diagonal(self, rng):
        gt = rng.integers(0, 4, size=60)
        cm = confusion(gt, gt, 4)
        assert cm.shape == (4, 4) and cm.dtype == np.int64
        assert (cm == np.diag(np.diag(cm))).all()
        assert cm.sum() == 60

    def test_all_ignored_gives_zero_matrix(self):
        gt = np.full(3, -1)
        cm = confusion(gt, np.array([0, 1, 2]), 4)
        assert cm.sum() == 0

    def test_direct_tally_example(self):
        cm = confusion(np.array([0, 0, 1]), np.array([0, 1, 1]), 2)
        np.testing.assert_array_equal(cm, [[1, 1], [0, 1]])

    def test_negative_gt_labels_skipped(self):
        cm = confusion(np.array([-1, 0, 1]), np.array([0, 0, 1]), 2)
        assert cm.sum() == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion(np.array([0, 1]), np.array([0]), 2)


class TestReport:
    def test_perfect_diagonal_all_hundred(self):
        rep = report(np.diag([5, 3, 9, 2]))
        np.testing.assert_allclose(rep.precision, 100.0)
        np.testing.assert_allclose(rep.recall, 100.0)
        np.testing.assert_allclose(rep.f1, 100.0)
        assert rep.accuracy == 100.0 and rep.macro_f1 == 100.0

    def test_hand_computed_two_class_example(self):
        rep = report(np.array([[2, 1], [0, 3]]))
        assert abs(rep.precision[0] - 100.0) < 1e-9
        assert abs(rep.recall[0] - 100 * 2 / 3) < 1e-9
        assert abs(rep.f1[0] - 80.0) < 1e-9
        assert abs(rep.precision[1] - 75.0) < 1e-9
        assert abs(rep.recall[1] - 100.0) < 1e-9
        assert abs(rep.f1[1] - 100 * 6 / 7) < 1e-9
        assert abs(rep.accuracy - 100 * 5 / 6) < 1e-9

    def test_single_class_present(self):
        cm = np.zeros((4, 4), dtype=int)
        cm[2, 2] = 11
        rep = report(cm)
        assert rep.accuracy == 100.0
        assert rep.included.tolist() == [False, False, True, False]
        assert rep.macro_f1 == 100.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            report(np.zeros((3, 3), dtype=int))

    def test_zero_division_flagged(self):
        # class 1 has support but is never predicted
        cm = np.array([[4, 0], [2, 0]])
        rep = report(cm)
        assert rep.zero_division[1]
        assert rep.precision[1] == 0.0 and rep.f1[1] == 0.0

    def test_matches_brute_force_on_random_instances(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 5))
            t_len = int(rng.integers(5, 60))
            gt = rng.integers(0, n, size=t_len)
            pred = rng.integers(0, n, size=t_len)
            rep = report(confusion(gt, pred, n))
            expected, acc = brute_force_metrics(gt.tolist(), pred.tolist(), n)
            for c in range(n):
                prec, rec, f1, support, predicted = expected[c]
                assert abs(rep.precision[c] - prec) < 1e-9
                assert abs(rep.recall[c] - rec) < 1e-9
                assert abs(rep.f1[c] - f1) < 1e-9
            assert abs(rep.accuracy - acc) < 1e-9
            macro_f1 = np.mean([expected[c][2] for c in range(n)
                                if expected[c][3] or expected[c][4]])
            assert abs(rep.macro_f1 - macro_f1) < 1e-9

    def test_class_permutation_equivariance(self, rng):
        n = 4
        gt = rng.integers(0, n, size=80)
        pred = rng.integers(0, n, size=80)
        perm = rng.permutation(n)
        base = report(confusion(gt, pred, n))
        permuted = report(confusion(perm[gt], perm[pred], n))
        assert abs(base.accuracy - permuted.accuracy) < 1e-12
        for c in range(n):
            assert abs(base.f1[c] - permuted.f1[perm[c]]) < 1e-12

    def test_format_report_renders(self):
        rep = report(np.diag([5, 3, 9, 2]))
        text = format_report(rep)
        assert "accuracy 100.00" in text


class TestSegmentCount:
    def test_constant_is_one(self):
        assert segment_count(np.zeros(50, dtype=int)) == 1

    def test_alternating_runs(self):
        assert segment_count(np.array([0, 1, 0, 1])) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            segment_count(np.array([], dtype=int))

    def test_matches_run_length_scan(self, rng):
        labels = rng.integers(0, 3, size=200)
        runs = 1 + sum(labels[i] != labels[i - 1] for i in range(1, len(labels)))
        assert segment_count(labels) == runs


class TestRibbon:
    def test_writes_svg_and_csv(self, tmp_path, rng):
        gt = rng.integers(0, 4, size=30)
        pred = rng.integers(0, 4, size=30)
        svg, csv_path = export_ribbon(gt, pred, tmp_path / "ribbon.svg")
        text = svg.read_text(encoding="utf-8")
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["frame", "gt", "pred"]
        assert len(rows) == 31

    def test_identical_tracks_use_identical_bars(self, tmp_path):
        import re

        labels = np.array([0] * 5 + [1] * 5)
        svg, _ = export_ribbon(labels, labels, tmp_path / "r.svg")
        text = svg.read_text(encoding="utf-8")
        bars = re.findall(r'<rect x="([\d.]+)" y="[\d.]+" width="([\d.]+)" '
                          r'height="28" fill="(#\w+)"', text)
        assert len(bars) == 4  # two runs per track
        assert bars[:2] == bars[2:]  # identical geometry and colors per track

    def test_palette_contract(self, tmp_path):
        gt = np.array([0, 1, 2, 3])
        svg, _ = export_ribbon(gt, gt, tmp_path / "r.svg")
        text = svg.read_text(encoding="utf-8")
        for color in ("#4C72B0", "#DD8452", "#55A868", "#C44E52"):
            assert color in text

    def test_unwritable_path_raises(self, tmp_path, rng):
        gt = rng.integers(0, 4, size=5)
        with pytest.raises(OSError):
            export_ribbon(gt, gt, tmp_path / "missing_dir" / "r.svg")
