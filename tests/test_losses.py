import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseseg.losses import (
    ContrastiveConfig,
    FocalConfig,
    focal_loss,
    inverse_frequency_alpha,
    ntxent_loss,
    smoothing_loss,
    total_loss,
)
from phaseseg.seqcore import ShapeError, softmax_rows

from conftest import assert_grad_close, central_difference


class TestFocalConfig:
    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            FocalConfig(gamma=-0.5)

    def test_rejects_alpha_outside_unit_interval(self):
        with pytest.raises(ValueError):
            FocalConfig(alpha=np.array([0.5, 1.2]))

    def test_rejects_scalar_alpha(self):
        # alpha is None or one weight per class; there is no scalar form
        with pytest.raises(ShapeError):
            focal_loss(np.array([[0.5, 0.5]]), np.array([0]), FocalConfig(alpha=1.0))

    def test_inverse_frequency_alpha_scales_to_one(self):
        labels = [np.array([0, 0, 0, 0, 0, 0, 1, 1, 2])]
        alpha = inverse_frequency_alpha(labels, 3)
        assert alpha.max() == 1.0
        assert alpha[0] < alpha[1] < alpha[2] == 1.0


class TestFocalLoss:
    def test_gamma_zero_is_cross_entropy(self, rng):
        p = softmax_rows(rng.normal(size=(12, 4)))
        labels = rng.integers(0, 4, size=12)
        val, _ = focal_loss(p, labels, FocalConfig(gamma=0.0))
        ce = -np.mean(np.log(p[np.arange(12), labels]))
        assert abs(val - ce) < 1e-9

    def test_confident_correct_frame_is_free(self):
        p = np.array([[1.0, 0.0, 0.0]])
        val, grad = focal_loss(p, np.array([0]), FocalConfig(gamma=2.0))
        assert val == 0.0
        assert np.allclose(grad, 0.0)

    def test_half_probability_worked_value(self):
        val, _ = focal_loss(np.array([[0.5, 0.5]]), np.array([0]),
                            FocalConfig(gamma=2.0))
        assert abs(val - 0.25 * math.log(2)) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            focal_loss(np.array([[0.5, 0.5]]), np.array([2]), FocalConfig())

    def test_all_frames_ignored_errors(self):
        with pytest.raises(ValueError):
            focal_loss(np.array([[0.5, 0.5]]), np.array([-1]), FocalConfig())

    def test_ignore_mask_skips_frames(self, rng):
        p = softmax_rows(rng.normal(size=(6, 3)))
        labels = rng.integers(0, 3, size=6)
        ignore = np.array([False, True, False, True, False, False])
        val, grad = focal_loss(p, np.where(ignore, -1, labels), FocalConfig())
        val_manual, _ = focal_loss(p[~ignore], labels[~ignore], FocalConfig())
        assert abs(val - val_manual) < 1e-12
        assert not grad[ignore].any()

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0])
    def test_gradient_matches_fd(self, rng, gamma):
        z = rng.normal(size=(8, 4))
        labels = rng.integers(0, 4, size=8)
        cfg = FocalConfig(gamma=gamma, alpha=np.array([1.0, 0.4, 0.7, 0.9]))
        _, grad = focal_loss(softmax_rows(z), labels, cfg)
        fd = central_difference(
            lambda v: focal_loss(softmax_rows(v), labels, cfg)[0], z)
        assert_grad_close(grad, fd)

    def test_monotone_nonincreasing_in_true_prob(self):
        cfg = FocalConfig(gamma=2.0)
        values = []
        for p_true in np.linspace(0.05, 0.99, 20):
            p = np.array([[p_true, 1.0 - p_true]])
            values.append(focal_loss(p, np.array([0]), cfg)[0])
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_gamma_downweights_easy_frames(self):
        def ratio(gamma):
            cfg = FocalConfig(gamma=gamma)
            easy = focal_loss(np.array([[0.99, 0.01]]), np.array([0]), cfg)[0]
            hard = focal_loss(np.array([[0.6, 0.4]]), np.array([0]), cfg)[0]
            return easy / hard
        assert ratio(2.0) < ratio(0.0)


class TestNtxent:
    def test_single_pair_is_zero(self):
        z = np.array([[0.3, 0.7], [0.3, 0.7]])
        val, grad = ntxent_loss(z, ContrastiveConfig(tau=0.5))
        assert abs(val) < 1e-12
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_worked_two_pair_example(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        val, _ = ntxent_loss(z, ContrastiveConfig(tau=1.0))
        assert abs(val - math.log(1.0 + 2.0 / math.e)) < 1e-9

    def test_scale_invariance(self, rng):
        z = rng.normal(size=(6, 5))
        cfg = ContrastiveConfig(tau=0.3)
        v1, _ = ntxent_loss(z, cfg)
        v2, _ = ntxent_loss(5.0 * z, cfg)
        assert abs(v1 - v2) < 1e-12

    def test_rotation_invariance(self, rng):
        z = rng.normal(size=(8, 4))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        cfg = ContrastiveConfig(tau=0.7)
        v1, _ = ntxent_loss(z, cfg)
        v2, _ = ntxent_loss(z @ q, cfg)
        assert abs(v1 - v2) < 1e-9

    def test_zero_norm_row_rejected(self):
        z = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            ntxent_loss(z, ContrastiveConfig())

    def test_custom_pairing_must_be_involution(self):
        with pytest.raises(ValueError):
            ContrastiveConfig(pairing=np.array([1, 2, 0, 3])).partners(4)

    def test_explicit_pairing_matches_default(self, rng):
        z = rng.normal(size=(6, 3))
        v1, _ = ntxent_loss(z, ContrastiveConfig(tau=0.4))
        v2, _ = ntxent_loss(z, ContrastiveConfig(
            tau=0.4, pairing=np.array([1, 0, 3, 2, 5, 4])))
        assert v1 == v2

    def test_gradient_matches_fd(self, rng):
        z = rng.normal(size=(6, 4))
        cfg = ContrastiveConfig(tau=0.6)
        _, grad = ntxent_loss(z, cfg)
        fd = central_difference(lambda v: ntxent_loss(v, cfg)[0], z)
        assert_grad_close(grad, fd)


class TestSmoothing:
    def test_constant_sequence_is_zero(self):
        p = np.tile([0.2, 0.5, 0.3], (7, 1))
        val, grad = smoothing_loss(p)
        assert val == 0.0
        assert np.allclose(grad, 0.0)

    def test_worked_flip_example(self):
        p = np.array([[0.9, 0.1], [0.1, 0.9]])
        val, _ = smoothing_loss(p)
        assert abs(val - math.log(9.0) / 2.0) < 1e-12

    def test_time_reversal_invariance(self, rng):
        p = softmax_rows(rng.normal(size=(9, 3)))
        assert abs(smoothing_loss(p)[0] - smoothing_loss(p[::-1])[0]) < 1e-12

    def test_single_frame_defined_as_zero(self):
        val, grad = smoothing_loss(np.array([[0.4, 0.6]]))
        assert val == 0.0 and grad.shape == (1, 2)

    def test_nonnegative_and_zero_iff_constant(self, rng):
        p = softmax_rows(rng.normal(size=(6, 3)))
        assert smoothing_loss(p)[0] > 0.0

    def test_gradient_matches_fd(self, rng):
        z = rng.normal(size=(6, 3))
        _, grad = smoothing_loss(softmax_rows(z))
        fd = central_difference(lambda v: smoothing_loss(softmax_rows(v))[0], z)
        assert_grad_close(grad, fd)


class TestTotalLoss:
    def _stages(self, rng, n_stages, t_len=6, n_classes=3):
        return [softmax_rows(rng.normal(size=(t_len, n_classes)))
                for _ in range(n_stages)]

    def test_lambda_zero_is_sum_of_focal(self, rng):
        stages = self._stages(rng, 3)
        labels = rng.integers(0, 3, size=6)
        cfg = FocalConfig()
        bd, _ = total_loss(stages, labels, cfg, smoothing_weight=0.0)
        expected = sum(focal_loss(p, labels, cfg)[0] for p in stages)
        assert abs(bd.total - expected) < 1e-12

    def test_single_stage_composition(self, rng):
        stages = self._stages(rng, 1)
        labels = rng.integers(0, 3, size=6)
        cfg = FocalConfig()
        bd, _ = total_loss(stages, labels, cfg, smoothing_weight=0.15)
        expected = focal_loss(stages[0], labels, cfg)[0] + 0.15 * smoothing_loss(stages[0])[0]
        assert abs(bd.total - expected) < 1e-12

    def test_two_identical_stages_double(self, rng):
        stage = self._stages(rng, 1)[0]
        labels = rng.integers(0, 3, size=6)
        cfg = FocalConfig()
        single, _ = total_loss([stage], labels, cfg, smoothing_weight=0.15)
        double, _ = total_loss([stage, stage.copy()], labels, cfg, smoothing_weight=0.15)
        assert abs(double.total - 2 * single.total) < 1e-12

    def test_breakdown_identity(self, rng):
        stages = self._stages(rng, 4)
        labels = rng.integers(0, 3, size=6)
        bd, _ = total_loss(stages, labels, FocalConfig(), smoothing_weight=0.2)
        recomputed = sum(f + 0.2 * s
                         for f, s in zip(bd.per_stage_focal, bd.per_stage_smooth))
        assert abs(bd.total - recomputed) < 1e-9

    def test_stage_shape_mismatch_rejected(self, rng):
        stages = [softmax_rows(rng.normal(size=(6, 3))),
                  softmax_rows(rng.normal(size=(5, 3)))]
        with pytest.raises(ShapeError):
            total_loss(stages, rng.integers(0, 3, size=6), FocalConfig(), 0.1)

    def test_gradients_flow_to_every_stage(self, rng):
        zs = [rng.normal(size=(6, 3)) for _ in range(2)]
        labels = rng.integers(0, 3, size=6)
        cfg = FocalConfig(gamma=1.0)
        stages = [softmax_rows(z) for z in zs]
        _, grads = total_loss(stages, labels, cfg, smoothing_weight=0.15)
        for s, z in enumerate(zs):
            def loss_of(v, s=s):
                probs = [softmax_rows(v if i == s else zs[i]) for i in range(2)]
                return total_loss(probs, labels, cfg, smoothing_weight=0.15)[0].total
            assert_grad_close(grads[s], central_difference(loss_of, z))


@given(st.integers(0, 3), st.floats(0.01, 0.99))
@settings(max_examples=40, deadline=None)
def test_focal_le_cross_entropy_property(label_cls, p_true):
    # (1-p)^gamma <= 1, so focal never exceeds cross-entropy for alpha = 1
    p = np.full((1, 4), (1.0 - p_true) / 3.0)
    p[0, label_cls] = p_true
    focal = focal_loss(p, np.array([label_cls]), FocalConfig(gamma=2.0))[0]
    ce = focal_loss(p, np.array([label_cls]), FocalConfig(gamma=0.0))[0]
    assert focal <= ce + 1e-12
