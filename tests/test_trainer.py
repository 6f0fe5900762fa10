import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from phaseseg import mstcnpp, seqcore, synthgen, trainer
from phaseseg.losses import FocalConfig, total_loss
from phaseseg.trainer import (
    AdamWState,
    DivergenceError,
    TrainConfig,
    adamw_step,
    cosine_lr,
    evaluate,
    fit,
    sample_epoch,
    sequence_weights,
)

TINY = mstcnpp.StageConfig(in_dim=8, channels=8, n_classes=4, stages=2,
                           layers_prediction=3, layers_refinement=3)


def make_split(n, sequence_seed, dim=8, noise=0.3):
    cfg = synthgen.SynthConfig(dim=dim, noise_sigma=noise, seed=0)
    return synthgen.generate(cfg, n, sequence_seed=sequence_seed)


class TestAdamW:
    def test_zero_grad_no_decay_is_noop(self, rng):
        p = rng.normal(size=12)
        params = p.copy()
        adamw_step(params, np.zeros(12), AdamWState(), lr=0.1)
        np.testing.assert_array_equal(params, p)

    def test_first_step_moves_by_lr_sign(self, rng):
        g = rng.normal(size=(5,))
        p = rng.normal(size=(5,))
        params = p.copy()
        adamw_step(params, g, AdamWState(), lr=1e-3)
        # bias-corrected first step: delta = -lr * g / (|g| + ~eps)
        np.testing.assert_allclose(params - p, -1e-3 * np.sign(g), rtol=1e-4)

    def test_weight_decay_shrinks_params(self, rng):
        p = rng.normal(size=(4,))
        params = p.copy()
        adamw_step(params, np.zeros(4), AdamWState(), lr=0.1, weight_decay=0.5)
        np.testing.assert_allclose(params, p * (1 - 0.1 * 0.5), rtol=1e-12)

    def test_two_steps_accumulate_moments(self, rng):
        # closed-form two-step trace for a single scalar parameter
        g1, g2 = 0.4, -0.2
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        params = np.array([1.0])
        state = AdamWState()
        adamw_step(params, np.array([g1]), state, lr=lr)
        adamw_step(params, np.array([g2]), state, lr=lr)

        m = (1 - b1) * g1
        v = (1 - b2) * g1**2
        w = 1.0 - lr * (m / (1 - b1)) / (math.sqrt(v / (1 - b2)) + eps)
        m = b1 * m + (1 - b1) * g2
        v = b2 * v + (1 - b2) * g2**2
        w = w - lr * (m / (1 - b1**2)) / (math.sqrt(v / (1 - b2**2)) + eps)
        np.testing.assert_allclose(params, [w], rtol=1e-12)

    def test_chunked_update_matches_whole_array(self, rng):
        # longer than one slice and not a multiple of it; threads cut the
        # three slices into up to three ranges updated at once
        size = 2 * trainer._ADAMW_CHUNK + 123
        start, grads = rng.normal(size=size), rng.normal(size=(3, size))
        lr, wd, b1, b2, eps = 1e-3, 0.01, 0.9, 0.999, 1e-8
        for threads in (1, 2, 3, 8):
            params, state = start.copy(), AdamWState()
            ref_p, ref_m, ref_v = start.copy(), np.zeros(size), np.zeros(size)
            for t, g in enumerate(grads, start=1):
                adamw_step(params, g, state, lr=lr, weight_decay=wd, threads=threads)
                ref_p *= 1.0 - lr * wd
                ref_m *= b1
                ref_m += (1.0 - b1) * g
                ref_v *= b2
                ref_v += (1.0 - b2) * np.square(g)
                ref_p -= lr * (ref_m / (1.0 - b1**t)) / (np.sqrt(ref_v / (1.0 - b2**t)) + eps)
                assert np.array_equal(params, ref_p), threads
                assert np.array_equal(state.m, ref_m) and np.array_equal(state.v, ref_v)


class TestCosine:
    def test_start_is_base(self):
        assert cosine_lr(0, 10, 3e-4) == 3e-4

    def test_end_is_zero(self):
        assert abs(cosine_lr(10, 10, 3e-4)) < 1e-19

    def test_midpoint_is_half(self):
        assert abs(cosine_lr(5, 10, 3e-4) - 1.5e-4) < 1e-19

    def test_beyond_total_floors_at_zero(self):
        assert cosine_lr(15, 10, 3e-4) == 0.0

    def test_monotone_decreasing(self):
        values = [cosine_lr(s, 20, 1.0) for s in range(21)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestSampling:
    def test_uniform_reproducible(self):
        data = make_split(5, sequence_seed=1)
        assert (sample_epoch(data, "uniform", seed=9, n_classes=4)
                == sample_epoch(data, "uniform", seed=9, n_classes=4))
        assert sorted(sample_epoch(data, "uniform", seed=9, n_classes=4)) == list(range(5))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            sample_epoch([], "uniform", seed=0, n_classes=4)

    def test_single_sequence_repeats(self):
        data = make_split(1, sequence_seed=1)
        assert sample_epoch(data, "class-balanced", seed=3, n_classes=4) == [0]

    def test_balanced_favors_minority_heavy_sequence(self):
        # A is 90% majority class; B carries the rare class
        a_labels = np.array([0] * 90 + [1] * 10)
        b_labels = np.array([0] * 30 + [1] * 70)
        data = [(np.zeros((100, 4)), a_labels), (np.zeros((100, 4)), b_labels)]
        probs = sequence_weights(data, 2)
        assert probs[1] > probs[0]

        counts = np.zeros(2)
        for chunk in range(100):
            for idx in sample_epoch(data, "class-balanced", seed=chunk, n_classes=2):
                counts[idx] += 1
        assert counts.sum() == 10_000 // 50  # 2 draws per epoch, 100 epochs
        # Monte-Carlo against the computed weights
        for chunk in range(4900):
            for idx in sample_epoch(data, "class-balanced", seed=1000 + chunk, n_classes=2):
                counts[idx] += 1
        total = counts.sum()
        assert counts[1] > counts[0]
        assert abs(counts[1] / total - probs[1]) < 0.02


class TestFit:
    def test_rising_validation_stops_at_epoch_two(self, rng):
        # val labels contradict train labels, so val loss rises as train fits
        x = np.tile(rng.normal(size=(1, 6)), (30, 1))
        train = [(x.copy(), np.zeros(30, dtype=np.int64))]
        val = [(x.copy(), np.ones(30, dtype=np.int64))]
        mcfg = mstcnpp.StageConfig(in_dim=6, channels=6, n_classes=3, stages=1,
                                   layers_prediction=2, layers_refinement=1)
        model = mstcnpp.init(mcfg, seed=0)
        cfg = TrainConfig(epochs=10, learning_rate=5e-3, patience=1, seed=0,
                          weight_decay=0.0)
        best, report = fit(model, train, val, cfg)
        assert report.stop_epoch == 2
        assert report.epochs[1].val_loss > report.epochs[0].val_loss
        # best epoch 1 < stop epoch 2: epoch 2's update must not reach the snapshot
        assert report.best_epoch == 1
        assert not np.shares_memory(best.flat, model.flat)
        loss, _ = evaluate(best, val, FocalConfig(gamma=cfg.gamma), cfg.smoothing_weight)
        assert loss == min(e.val_loss for e in report.epochs)

    def test_reaches_high_accuracy_on_separable_data(self):
        train = make_split(6, sequence_seed=100, dim=16)
        val = make_split(2, sequence_seed=101, dim=16)
        mcfg = mstcnpp.StageConfig(in_dim=16, channels=16, n_classes=4, stages=2,
                                   layers_prediction=4, layers_refinement=4)
        model = mstcnpp.init(mcfg, seed=0)
        cfg = TrainConfig(epochs=10, learning_rate=3e-3, patience=10, seed=0)
        _, report = fit(model, train, val, cfg)
        assert max(e.val_accuracy for e in report.epochs) >= 0.95

    def test_fixed_seed_reproduces_report_and_params(self):
        train = make_split(3, sequence_seed=100)
        val = make_split(1, sequence_seed=101)
        cfg = TrainConfig(epochs=3, learning_rate=1e-3, seed=4)
        m1, r1 = fit(mstcnpp.init(TINY, seed=4), train, val, cfg)
        m2, r2 = fit(mstcnpp.init(TINY, seed=4), train, val, cfg)
        assert r1.as_dict() == r2.as_dict()
        for (_, p1), (_, p2) in zip(mstcnpp.named_parameters(m1),
                                    mstcnpp.named_parameters(m2)):
            assert np.array_equal(p1, p2)

    def test_threads_give_identical_training(self, rng):
        # forward, backward and AdamW cut into blocks and slices on 1-3 threads
        mcfg = mstcnpp.StageConfig(in_dim=8, channels=64, n_classes=4, stages=2,
                                   layers_prediction=3, layers_refinement=2)
        t_len = 1900
        assert len(mstcnpp._row_blocks(t_len, 64, 3)) == 3
        labels = np.repeat(np.arange(4), t_len // 4)
        train = [(rng.normal(size=(t_len, 8)) + labels[:, None], labels) for _ in range(2)]
        val = [(rng.normal(size=(t_len, 8)) + labels[:, None], labels)]
        cfg = TrainConfig(epochs=2, learning_rate=1e-3, seed=1)
        runs = [fit(mstcnpp.init(mcfg, seed=1), train, val, cfg, threads=threads)
                for threads in (1, 2, 3)]
        for model, report in runs[1:]:
            assert report.as_dict() == runs[0][1].as_dict()
            assert np.array_equal(model.flat, runs[0][0].flat)

    def test_best_checkpoint_has_minimum_val_loss(self):
        train = make_split(3, sequence_seed=100)
        val = make_split(1, sequence_seed=101)
        model = mstcnpp.init(TINY, seed=0)
        cfg = TrainConfig(epochs=6, learning_rate=3e-3, patience=6, seed=0)
        best, report = fit(model, train, val, cfg)
        losses = [e.val_loss for e in report.epochs]
        assert losses[report.best_epoch - 1] == min(losses)
        fc = FocalConfig(gamma=cfg.gamma)
        loss, _ = evaluate(best, val, fc, cfg.smoothing_weight)
        assert abs(loss - min(losses)) < 1e-12

    @staticmethod
    def _check_peak_memory(rng, t_len, channels, threads):
        # traced live set while training: the best snapshot, AdamW's m and v and
        # one gradient (4 P; the parameters predate the trace) plus one forward
        # cache C. The slack of 16 (T, F) arrays covers backward's temporaries;
        # holding the previous step's cache and gradient as well adds C + P.
        mcfg = mstcnpp.StageConfig(in_dim=16, channels=channels, n_classes=4, stages=2,
                                   layers_prediction=4, layers_refinement=4)
        labels = np.repeat(np.arange(4), t_len // 4)
        train = [(rng.normal(size=(t_len, 16)) + labels[:, None], labels) for _ in range(3)]
        val = [(rng.normal(size=(t_len, 16)) + labels[:, None], labels)]
        model = mstcnpp.init(mcfg, seed=0)
        _, cache = mstcnpp.forward(model, train[0][0], return_cache=True)
        arrays = {}
        for sc in cache.stage_caches:
            for arr in [sc.stage_input, sc.final_h, sc.probs,
                        *(a for lc in sc.layer_caches for a in vars(lc).values())]:
                arrays[id(arr)] = arr.nbytes
        del cache
        bound = 4 * model.flat.nbytes + sum(arrays.values()) + 16 * t_len * channels * 8
        tracemalloc.start()
        try:
            fit(model, train, val, TrainConfig(epochs=3, learning_rate=1e-3, patience=3),
                threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"traced peak {peak} B >= bound {bound} B"

    def test_peak_memory_holds_one_step(self, rng):
        self._check_peak_memory(rng, 400, 32, threads=1)

    def test_peak_memory_bound_holds_in_row_blocks(self, rng):
        # the same bound with every forward cut into two row blocks on two threads
        assert len(mstcnpp._row_blocks(1300, 64, 2)) == 2
        self._check_peak_memory(rng, 1300, 64, threads=2)

    def test_step_buffers_die_before_next_forward(self, monkeypatch):
        # a forward cache dies once backward has read it and a gradient once
        # AdamW has applied it, so no earlier step's buffers are live at a forward
        forward, backward = mstcnpp.forward, mstcnpp.backward
        caches, grads = [], []

        def watched_forward(model, x, return_cache=False, threads=1):
            assert all(ref() is None for ref in caches), "an earlier forward cache is live"
            assert all(ref() is None for ref in grads), "an earlier gradient is live"
            out = forward(model, x, return_cache, threads)
            if return_cache:
                caches.append(weakref.ref(out[1]))
            return out

        def watched_backward(model, cache, stage_grads, threads=1):
            out = backward(model, cache, stage_grads, threads)
            grads.append(weakref.ref(out))
            return out

        monkeypatch.setattr(mstcnpp, "forward", watched_forward)
        monkeypatch.setattr(mstcnpp, "backward", watched_backward)
        train = make_split(4, sequence_seed=100)
        val = make_split(1, sequence_seed=101)
        fit(mstcnpp.init(TINY, seed=0), train, val,
            TrainConfig(epochs=2, learning_rate=1e-3))
        assert len(grads) == 8

    def test_divergence_attaches_report(self):
        train = make_split(2, sequence_seed=100)
        val = make_split(1, sequence_seed=101)
        model = mstcnpp.init(TINY, seed=0)
        model.stages[0].proj_w[0, 0] = np.nan
        with pytest.raises(DivergenceError) as exc_info:
            fit(model, train, val, TrainConfig(epochs=2, learning_rate=1e-3))
        assert exc_info.value.report.diverged

    def test_nonfinite_gradient_names_block(self, monkeypatch):
        # the check runs before the update, so no parameter moves
        train = make_split(2, sequence_seed=100)
        val = make_split(1, sequence_seed=101)
        model = mstcnpp.init(TINY, seed=0)
        before = model.flat.copy()
        backward = mstcnpp.backward

        def poisoned(model, cache, stage_grads, threads=1):
            grads = backward(model, cache, stage_grads, threads)
            grads.stages[1].head_w[0, 0] = np.nan
            return grads

        monkeypatch.setattr(mstcnpp, "backward", poisoned)
        with pytest.raises(DivergenceError, match="stage2/head_w") as exc_info:
            fit(model, train, val, TrainConfig(epochs=2, learning_rate=1e-3))
        assert exc_info.value.report.diverged
        assert np.array_equal(model.flat, before)

    def test_empty_sets_rejected(self):
        model = mstcnpp.init(TINY, seed=0)
        with pytest.raises(ValueError):
            fit(model, [], make_split(1, sequence_seed=1), TrainConfig())

    def test_single_sequence_overfit_sanity(self):
        # gradients are healthy enough to crush one 50-frame sequence
        cfg = synthgen.SynthConfig(dim=8, duration_mean=(12, 13, 15, 10),
                                   duration_std=(2, 2, 2, 2), seed=1)
        (features, labels), = synthgen.generate(cfg, 1)
        x, y = features[:50], labels[:50]
        model = mstcnpp.init(TINY, seed=0)
        state = AdamWState()
        fc = FocalConfig(gamma=2.0)
        reached = False
        for _ in range(500):
            probs, cache = mstcnpp.forward(model, x, return_cache=True)
            breakdown, stage_grads = total_loss(probs, y, fc, 0.0)
            if breakdown.total < 0.01:
                reached = True
                break
            grads = mstcnpp.backward(model, cache, stage_grads)
            adamw_step(model.flat, grads.flat, state, lr=0.02)
        assert reached

    def test_validation_fanout_matches_serial(self):
        val = make_split(4, sequence_seed=101)
        model = mstcnpp.init(TINY, seed=0)
        fc = FocalConfig(gamma=2.0)
        serial = evaluate(model, val, fc, 0.15, threads=1)
        threaded = evaluate(model, val, fc, 0.15, threads=4)
        assert serial == threaded

    def test_validation_holds_blas_to_one_thread(self, monkeypatch):
        # each sequence's forward holds it, one sequence after another
        state = {"threads": 4, "set": []}

        def set_threads(n):
            state["set"].append(n)
            state["threads"] = n

        monkeypatch.setattr(seqcore, "openblas_threads",
                            lambda: (lambda: state["threads"], set_threads))
        evaluate(mstcnpp.init(TINY, seed=0), make_split(2, sequence_seed=101),
                 FocalConfig(gamma=2.0), 0.15, threads=2)
        assert state["set"] == [1, 4, 1, 4]

    @pytest.mark.parametrize("n_sequences, workers", [(1, 1), (2, 1), (3, 1)])
    def test_validation_threads_do_not_multiply(self, rng, monkeypatch, n_sequences, workers):
        # two threads: each long sequence is cut into two row blocks (one
        # worker), and validation starts no pool of its own beside them
        seen = []
        conv = mstcnpp.dilated_conv1d

        def counting(*args):
            seen.append(threading.active_count())
            return conv(*args)

        monkeypatch.setattr(mstcnpp, "dilated_conv1d", counting)
        cfg = mstcnpp.StageConfig(in_dim=8, channels=64, n_classes=4, stages=1,
                                  layers_prediction=2, layers_refinement=1)
        t_len = 1300
        assert len(mstcnpp._row_blocks(t_len, 64, 2)) == 2
        labels = np.repeat(np.arange(4), t_len // 4)
        val = [(rng.normal(size=(t_len, 8)), labels) for _ in range(n_sequences)]
        before = threading.active_count()
        evaluate(mstcnpp.init(cfg, seed=0), val, FocalConfig(gamma=2.0), 0.15, threads=2)
        assert max(seen) == before + workers
