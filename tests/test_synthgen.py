import tracemalloc

import numpy as np
import pytest

from phaseseg.seqcore import ShapeError
from phaseseg.synthgen import (
    SynthConfig,
    generate,
    load_dataset,
    load_features,
    phase_centers,
    save_dataset,
)


class TestConfig:
    def test_rejects_tiny_dim(self):
        with pytest.raises(ValueError):
            SynthConfig(dim=2)

    def test_rejects_bad_label_noise(self):
        with pytest.raises(ValueError):
            SynthConfig(label_noise=1.0)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            SynthConfig(noise_sigma=-0.1)


class TestGenerate:
    def test_deterministic_per_seed(self):
        cfg = SynthConfig(dim=8, seed=5)
        a = generate(cfg, 3)
        b = generate(cfg, 3)
        for (fa, ta), (fb, tb) in zip(a, b):
            np.testing.assert_array_equal(fa, fb)
            np.testing.assert_array_equal(ta, tb)

    def test_different_seed_differs(self):
        a = generate(SynthConfig(dim=8, seed=1), 1)
        b = generate(SynthConfig(dim=8, seed=2), 1)
        assert not np.array_equal(a[0][0], b[0][0])

    def test_noiseless_sequences_are_separable(self):
        cfg = SynthConfig(dim=8, noise_sigma=0.0, seed=3)
        centers = phase_centers(cfg)
        for features, labels in generate(cfg, 4):
            dists = np.linalg.norm(features[:, None, :] - centers[None], axis=2)
            nearest = dists.argmin(axis=1)
            assert (nearest == labels).all()

    def test_complete_sequences_have_four_segments(self):
        cfg = SynthConfig(dim=8, include_all_phases=True, seed=7)
        for _, labels in generate(cfg, 10):
            changes = int((np.diff(labels) != 0).sum())
            assert changes + 1 == 4
            assert labels[0] == 0 and labels[-1] == 3

    def test_timelines_are_monotone_unit_step(self):
        cfg = SynthConfig(dim=8, include_all_phases=False, label_noise=0.3, seed=11)
        for _, labels in generate(cfg, 50):
            steps = np.diff(labels)
            assert np.all((steps == 0) | (steps == 1))

    def test_mean_durations_match_configuration(self):
        cfg = SynthConfig(dim=4, seed=13)
        sums = np.zeros(4)
        counts = np.zeros(4)
        for _, labels in generate(cfg, 1000):
            for p in range(4):
                run = int((labels == p).sum())
                sums[p] += run
                counts[p] += 1
        empirical = sums / counts
        for p in range(4):
            assert abs(empirical[p] - cfg.duration_mean[p]) / cfg.duration_mean[p] < 0.05

    def test_imbalance_ratio_reproduced(self):
        cfg = SynthConfig(dim=4, seed=17)
        sellar = closure = 0
        for _, labels in generate(cfg, 500):
            sellar += int((labels == 2).sum())
            closure += int((labels == 3).sum())
        configured = cfg.duration_mean[2] / cfg.duration_mean[3]
        assert abs(sellar / closure - configured) / configured < 0.10

    def test_label_noise_moves_boundaries(self):
        clean = generate(SynthConfig(dim=4, seed=19), 20)
        noisy = generate(SynthConfig(dim=4, seed=19, label_noise=0.4), 20)
        moved = 0
        for (_, tc), (_, tn) in zip(clean, noisy):
            if tc.size == tn.size and not np.array_equal(tc, tn):
                moved += 1
        assert moved > 0

    def test_boundary_blur_mixes_centers(self):
        cfg = SynthConfig(dim=8, noise_sigma=0.0, boundary_blur=4, seed=23)
        centers = phase_centers(cfg)
        features, labels = generate(cfg, 1)[0]
        boundary = int(np.nonzero(np.diff(labels))[0][0]) + 1
        frame = features[boundary - 1]
        d_own = np.linalg.norm(frame - centers[labels[boundary - 1]])
        assert d_own > 1e-9  # blurred frames leave their own center

    def test_confusability_pulls_centers_together(self):
        base = SynthConfig(dim=8, seed=29)
        mixed = SynthConfig(dim=8, seed=29, confusability=tuple(
            tuple(0.6 if (i, j) in ((2, 3), (3, 2)) else 0.0 for j in range(4))
            for i in range(4)))
        d_base = np.linalg.norm(phase_centers(base)[2] - phase_centers(base)[3])
        d_mixed = np.linalg.norm(phase_centers(mixed)[2] - phase_centers(mixed)[3])
        assert d_mixed < d_base


class TestDatasetIO:
    def test_save_load_round_trip(self, tmp_path):
        cfg = SynthConfig(dim=8, seed=31)
        sequences = generate(cfg, 3)
        save_dataset(sequences, tmp_path / "train")
        loaded = load_dataset(tmp_path / "train")
        assert len(loaded) == 3
        for (features, labels), (x, y) in zip(sequences, loaded):
            np.testing.assert_allclose(x, features, atol=1e-6)  # float32 storage
            np.testing.assert_array_equal(y, labels)

    def test_load_missing_dir_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope")

    def test_load_missing_labels_errors(self, tmp_path):
        d = tmp_path / "train"
        d.mkdir()
        np.save(d / "seq_000.npy", np.zeros((4, 8), dtype=np.float32))
        with pytest.raises(FileNotFoundError):
            load_dataset(d)


class TestLoadFeatures:
    def _saved(self, tmp_path, arr):
        path = tmp_path / "x.npy"
        np.save(path, arr)
        return path

    def test_accepts_valid(self, tmp_path):
        arr = np.arange(6, dtype=np.float32).reshape(3, 2)
        x = load_features(self._saved(tmp_path, arr))
        assert x.shape == (3, 2) and x.dtype == np.float64
        np.testing.assert_array_equal(x, arr)

    def test_rejects_1d(self, tmp_path):
        path = self._saved(tmp_path, np.ones(4))
        with pytest.raises(ShapeError, match="x.npy"):
            load_features(path)

    def test_rejects_nonfinite(self, tmp_path):
        path = self._saved(tmp_path, np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError, match="x.npy.*non-finite"):
            load_features(path)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), ()])
    def test_rejects_empty_and_scalar(self, tmp_path, shape):
        with pytest.raises(ShapeError, match="x.npy"):
            load_features(self._saved(tmp_path, np.zeros(shape)))

    @pytest.mark.parametrize("arr", [np.ones((2, 3), complex),
                                     np.zeros((2, 3), "datetime64[D]"),
                                     np.array([["a", "b"]])])
    def test_rejects_non_real_dtypes(self, tmp_path, arr):
        with pytest.raises(ValueError, match="x.npy"):
            load_features(self._saved(tmp_path, arr))

    @pytest.mark.parametrize("keep", [0, 40, -7])
    def test_rejects_truncated_file(self, tmp_path, keep):
        path = self._saved(tmp_path, np.ones((5, 3), np.float32))
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match="x.npy"):
            load_features(path)

    def test_float64_beyond_float32_range_rejected_at_float32(self, tmp_path):
        path = self._saved(tmp_path, np.array([[1.0, 1e39]]))
        assert load_features(path).dtype == np.float64
        with pytest.raises(ValueError, match="x.npy.*non-finite"):
            load_features(path, np.float32)

    @pytest.mark.parametrize("dtype", [np.int64, np.bool_])
    def test_integer_and_bool_cast_without_float64_copy(self, tmp_path, dtype):
        # the loaded file plus its float32 cast (measured: 1.0 of the float32
        # size on top of the file); a float64 copy in between makes it 2.0 or more
        arr = np.ones((1000, 64), dtype=dtype)
        path = self._saved(tmp_path, arr)
        tracemalloc.start()
        try:
            x = load_features(path, np.float32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < arr.nbytes + 1.5 * x.nbytes

    @pytest.mark.parametrize("dtype", [np.int64, np.bool_])
    def test_integer_and_bool_become_float(self, tmp_path, dtype):
        x = load_features(self._saved(tmp_path, np.ones((2, 3), dtype=dtype)), np.float32)
        assert x.dtype == np.float32
        np.testing.assert_array_equal(x, np.ones((2, 3)))
