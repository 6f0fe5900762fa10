import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseseg.accumulator import (
    argmax_decode,
    smooth,
)

streams = st.lists(st.integers(0, 3), min_size=1, max_size=60).map(np.array)


class TestConfig:
    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            smooth(np.zeros(3, dtype=int), 0)


class TestSmooth:
    def test_constant_stream_unchanged(self):
        preds = np.full(20, 2)
        np.testing.assert_array_equal(smooth(preds, 5), preds)

    def test_hand_traced_commit_and_reset(self):
        # the lone 1 at index 2 is reset by the 0 at index 3; the run at 4-6
        # commits and relabels from index 4; the two trailing 2s fall short
        preds = np.array([0, 0, 1, 0, 1, 1, 1, 2, 2])
        out = smooth(preds, 3)
        np.testing.assert_array_equal(out, [0, 0, 0, 0, 1, 1, 1, 1, 1])

    def test_hand_traced_illegal_jump_ignored(self):
        preds = np.array([0, 0, 2, 2, 2, 2])
        out = smooth(preds, 3)
        np.testing.assert_array_equal(out, [0, 0, 0, 0, 0, 0])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            smooth(np.array([], dtype=int), 30)

    def test_initial_phase_by_majority_vote(self):
        preds = np.array([3, 1, 1, 1, 1])
        out = smooth(preds, 3)
        np.testing.assert_array_equal(out, np.ones(5))

    def test_agreement_on_clean_monotone_input(self):
        preds = np.array([0] * 5 + [1] * 4 + [2] * 6 + [3] * 4)
        out = smooth(preds, 4)
        np.testing.assert_array_equal(out, preds)

    @given(streams, st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_monotone_unit_steps(self, preds, threshold):
        out = smooth(preds, threshold)
        steps = np.diff(out)
        assert np.all((steps == 0) | (steps == 1))

    @given(streams, st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, preds, threshold):
        once = smooth(preds, threshold)
        np.testing.assert_array_equal(smooth(once, threshold), once)

    @given(streams, st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_interior_segments_reach_threshold(self, preds, threshold):
        out = smooth(preds, threshold)
        changes = np.nonzero(np.diff(out))[0]
        bounds = [0] + [int(c) + 1 for c in changes] + [out.size]
        lengths = [b - a for a, b in zip(bounds, bounds[1:])]
        for seg_len in lengths[1:-1]:
            assert seg_len >= threshold


class TestArgmaxDecode:
    def test_uniform_rows_pick_phase_zero(self):
        probs = np.full((5, 4), 0.25)
        np.testing.assert_array_equal(argmax_decode(probs), np.zeros(5))

    def test_one_hot_rows(self):
        labels = np.array([2, 0, 3, 1])
        probs = np.eye(4)[labels]
        np.testing.assert_array_equal(argmax_decode(probs), labels)

    def test_matches_row_scan(self, rng):
        probs = rng.random((50, 4))
        expected = np.array([int(max(range(4), key=lambda c: (row[c], -c)))
                             for row in probs])
        np.testing.assert_array_equal(argmax_decode(probs), expected)
