import math
import os
import subprocess
import sys
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


# paper depth at F=128 and T=1348, float32: one (T, F) row, the forward
# cache (per stage: the projection, then each layer's fusion and output), the
# largest stage's gradient (stage 1's) and the parameters, in bytes
PAPER_DEPTH, PAPER_T = mstcnpp.StageConfig(in_dim=128, channels=128, n_classes=4), 1348
assert (PAPER_DEPTH.stages, PAPER_DEPTH.layers_prediction,
        PAPER_DEPTH.layers_refinement) == (4, 11, 10)
PAPER_ROW = PAPER_T * PAPER_DEPTH.channels * 4
PAPER_CACHE = PAPER_ROW * sum(2 * PAPER_DEPTH.layers_for_stage(s) + 1 for s in range(4))
PAPER_STAGE_GRAD = 4 * max(mstcnpp._stage_param_count(PAPER_DEPTH, s) for s in range(4))
PAPER_PARAMS = 4 * mstcnpp._param_count(PAPER_DEPTH)


def make_split(n, sequence_seed, dim=8, noise=0.3):
    cfg = synthgen.SynthConfig(dim=dim, noise_sigma=noise, seed=0)
    return synthgen.generate(cfg, n, sequence_seed=sequence_seed)


def _zero_state(size, dtype=np.float64):
    return AdamWState(m=np.zeros(size, dtype), v=np.zeros(size, dtype))


def _discard(model):  # fit's save, where a test needs no saved model
    pass


class TestAdamW:
    def test_zero_grad_no_decay_is_noop(self, rng):
        p = rng.normal(size=12)
        params = p.copy()
        adamw_step(params, np.zeros(12), _zero_state(12), lr=0.1)
        np.testing.assert_array_equal(params, p)

    def test_first_step_moves_by_lr_sign(self, rng):
        g = rng.normal(size=(5,))
        p = rng.normal(size=(5,))
        params = p.copy()
        adamw_step(params, g, _zero_state(5), lr=1e-3)
        # bias-corrected first step: delta = -lr * g / (|g| + ~eps)
        np.testing.assert_allclose(params - p, -1e-3 * np.sign(g), rtol=1e-4)

    def test_weight_decay_shrinks_params(self, rng):
        p = rng.normal(size=(4,))
        params = p.copy()
        adamw_step(params, np.zeros(4), _zero_state(4), lr=0.1, weight_decay=0.5)
        np.testing.assert_allclose(params, p * (1 - 0.1 * 0.5), rtol=1e-12)

    def test_two_steps_accumulate_moments(self, rng):
        # closed-form two-step trace for a single scalar parameter
        g1, g2 = 0.4, -0.2
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        params = np.array([1.0])
        state = _zero_state(1)
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
        # longer than two slices and not a multiple of one, in either
        # precision; threads cut the three slices into up to three ranges
        # updated at once
        lr, wd, b1, b2, eps = 1e-3, 0.01, 0.9, 0.999, 1e-8
        for dtype in (np.float64, np.float32):
            size = 2 * trainer._ADAMW_SLICE_BYTES // np.dtype(dtype).itemsize + 123
            start = rng.normal(size=size).astype(dtype)
            grads = rng.normal(size=(3, size)).astype(dtype)
            for threads in (1, 2, 3, 8):
                params, state = start.copy(), _zero_state(size, dtype)
                ref_p, ref_m, ref_v = start.copy(), np.zeros(size, dtype), np.zeros(size, dtype)
                for t, g in enumerate(grads, start=1):
                    adamw_step(params, g, state, lr=lr, weight_decay=wd, threads=threads)
                    ref_p *= 1.0 - lr * wd
                    ref_m *= b1
                    ref_m += (1.0 - b1) * g
                    ref_v *= b2
                    ref_v += (1.0 - b2) * np.square(g)
                    ref_p -= lr * (ref_m / (1.0 - b1**t)) / (np.sqrt(ref_v / (1.0 - b2**t)) + eps)
                    assert params.dtype == dtype
                    assert np.array_equal(params, ref_p), (dtype, threads)
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
        fc = FocalConfig(gamma=cfg.gamma)
        saved = []  # the validation loss of each model handed to save, when handed
        report = fit(model, train, val, cfg,
                     lambda m: saved.append(evaluate(m, val, fc, cfg.smoothing_weight)[0]))
        assert report.stop_epoch == 2
        assert report.epochs[1].val_loss > report.epochs[0].val_loss
        # best epoch 1 < stop epoch 2: saved before epoch 2's update, not after it
        assert report.best_epoch == 1
        assert saved == [min(e.val_loss for e in report.epochs)]

    def test_reaches_high_accuracy_on_separable_data(self):
        train = make_split(6, sequence_seed=100, dim=16)
        val = make_split(2, sequence_seed=101, dim=16)
        mcfg = mstcnpp.StageConfig(in_dim=16, channels=16, n_classes=4, stages=2,
                                   layers_prediction=4, layers_refinement=4)
        model = mstcnpp.init(mcfg, seed=0)
        cfg = TrainConfig(epochs=10, learning_rate=3e-3, patience=10, seed=0)
        report = fit(model, train, val, cfg, _discard)
        assert max(e.val_accuracy for e in report.epochs) >= 0.95

    def test_fixed_seed_reproduces_report_and_params(self):
        train = make_split(3, sequence_seed=100)
        val = make_split(1, sequence_seed=101)
        cfg = TrainConfig(epochs=3, learning_rate=1e-3, seed=4)
        m1, m2, kept1, kept2 = mstcnpp.init(TINY, seed=4), mstcnpp.init(TINY, seed=4), [], []
        r1 = fit(m1, train, val, cfg, lambda m: kept1.append(m.flat.copy()))
        r2 = fit(m2, train, val, cfg, lambda m: kept2.append(m.flat.copy()))
        assert r1.as_dict() == r2.as_dict()
        for (_, p1), (_, p2) in zip(mstcnpp.named_parameters(m1),
                                    mstcnpp.named_parameters(m2)):
            assert np.array_equal(p1, p2)
        assert kept1 and np.array_equal(kept1, kept2)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_threads_give_identical_training(self, rng, dtype):
        # forward, backward and AdamW cut into blocks and slices on 1-3 threads
        mcfg = mstcnpp.StageConfig(in_dim=8, channels=64, n_classes=4, stages=2,
                                   layers_prediction=3, layers_refinement=2)
        t_len = 1900
        assert len(mstcnpp._row_blocks(t_len, 64, 3)) == 3
        labels = np.repeat(np.arange(4), t_len // 4)
        train = [(rng.normal(size=(t_len, 8)) + labels[:, None], labels) for _ in range(2)]
        val = [(rng.normal(size=(t_len, 8)) + labels[:, None], labels)]
        cfg = TrainConfig(epochs=2, learning_rate=1e-3, seed=1)
        runs = []
        for threads in (1, 2, 3):
            model, kept = mstcnpp.init(mcfg, seed=1, dtype=dtype), []
            report = fit(model, train, val, cfg, lambda m: kept.append(m.flat.copy()),
                         threads=threads)
            runs.append((model, report, kept))
        assert runs[0][0].dtype == dtype
        for model, report, kept in runs[1:]:
            assert report.as_dict() == runs[0][1].as_dict()
            assert np.array_equal(model.flat, runs[0][0].flat)
            assert np.array_equal(kept, runs[0][2])

    def test_best_checkpoint_has_minimum_val_loss(self):
        train = make_split(3, sequence_seed=100)
        val = make_split(1, sequence_seed=101)
        model = mstcnpp.init(TINY, seed=0)
        cfg = TrainConfig(epochs=6, learning_rate=3e-3, patience=6, seed=0)
        fc = FocalConfig(gamma=cfg.gamma)
        saved = []
        report = fit(model, train, val, cfg,
                     lambda m: saved.append(evaluate(m, val, fc, cfg.smoothing_weight)[0]))
        losses = [e.val_loss for e in report.epochs]
        assert losses[report.best_epoch - 1] == min(losses)
        assert abs(saved[-1] - min(losses)) < 1e-12

    @pytest.mark.parametrize("epochs", [1, 4])
    def test_saves_model_at_each_new_best_before_the_next_update(self, epochs):
        # save gets model itself, once per epoch that lowers the best
        # validation loss, with the parameters that epoch validated: after
        # its validation and before the next epoch's first update
        model = mstcnpp.init(TINY, seed=0)
        val = make_split(1, sequence_seed=101)
        cfg = TrainConfig(epochs=epochs, learning_rate=3e-3, patience=4, seed=0)
        fc = FocalConfig(gamma=cfg.gamma)
        saved = []

        def save(m):
            assert m is model
            saved.append(evaluate(m, val, fc, cfg.smoothing_weight)[0])

        report = fit(model, make_split(3, sequence_seed=100), val, cfg, save)
        losses = [e.val_loss for e in report.epochs]
        assert report.stop_epoch == epochs
        assert saved == [loss for i, loss in enumerate(losses) if all(loss < x for x in losses[:i])]
        assert saved[-1] == min(losses) == losses[report.best_epoch - 1]

    @staticmethod
    def _check_peak_memory(rng, t_len, channels, threads):
        # traced live set while training: AdamW's m and v and one gradient
        # (3 P; the parameters predate the trace) plus one forward cache C.
        # The slack of 16 (T, F) arrays covers backward's temporaries;
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
        bound = 3 * model.flat.nbytes + sum(arrays.values()) + 16 * t_len * channels * 8
        tracemalloc.start()
        try:
            fit(model, train, val, TrainConfig(epochs=3, learning_rate=1e-3, patience=3),
                _discard, threads=threads)
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
        # backward drops each stage's cache before that stage's update, and
        # nothing of a step (its cache and stage caches, the loss gradients,
        # backward's buffers and the stage gradient buffer) is live at the
        # next forward, so no two of each are live at once
        forward, backward = mstcnpp.forward, mstcnpp.backward
        step_refs, updates = [], []

        def watched_forward(model, x, return_cache=False, threads=1):
            live = [ref for ref in step_refs if ref() is not None]
            assert not live, f"an earlier step's {type(live[0]()).__name__} is live"
            out = forward(model, x, return_cache, threads)
            if return_cache:
                step_refs.extend(weakref.ref(c) for c in [out[1], *out[1].stage_caches])
            return out

        def watched_backward(model, cache, stage_grads, threads=1, apply=None, buffers=None):
            stage_refs = [weakref.ref(sc) for sc in cache.stage_caches]
            grad_ref = weakref.ref(buffers.grad)
            step_refs.extend([weakref.ref(stage_grads), weakref.ref(buffers), grad_ref])

            def watched_apply(s, grad):
                assert stage_refs[s]() is None, f"stage {s + 1}'s cache is live at its update"
                assert grad.base is grad_ref()  # the one stage buffer, reused
                updates.append(s)
                apply(s, grad)

            return backward(model, cache, stage_grads, threads, watched_apply, buffers)

        monkeypatch.setattr(mstcnpp, "forward", watched_forward)
        monkeypatch.setattr(mstcnpp, "backward", watched_backward)
        train = make_split(4, sequence_seed=100)
        val = make_split(1, sequence_seed=101)
        fit(mstcnpp.init(TINY, seed=0), train, val,
            TrainConfig(epochs=2, learning_rate=1e-3), _discard)
        assert updates == [1, 0] * 8  # last stage first, in each of 8 steps
        assert all(ref() is None for ref in step_refs)

    @staticmethod
    def _fit_peak_growth(epochs, model_path):
        """How far ru_maxrss grows, in bytes, above what a fresh process held
        before fit, over a fit of epochs at PAPER_DEPTH (T=PAPER_T, float32)
        on one train and one val sequence, 2 threads, saving to model_path."""
        t_len, f = PAPER_T, PAPER_DEPTH.channels
        code = f"""
import functools, resource
import numpy as np
from phaseseg import mstcnpp
from phaseseg.trainer import TrainConfig, fit
rng = np.random.default_rng(0)
labels = np.repeat(np.arange(4), {t_len} // 4)
data = [((rng.normal(size=({t_len}, {f})) + labels[:, None]).astype(np.float32), labels)
        for _ in range(2)]
model = mstcnpp.init(mstcnpp.StageConfig(in_dim={f}, channels={f}, n_classes=4), seed=0,
                     dtype=np.float32)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
report = fit(model, data[:1], data[1:], TrainConfig(epochs={epochs}),
             functools.partial(mstcnpp.save_model, path={str(model_path)!r}), threads=2)
assert report.stop_epoch == {epochs}
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
        assert proc.returncode == 0, proc.stderr
        assert model_path.exists()
        return int(proc.stdout) * 1024

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB, glibc's heap")
    def test_peak_rss_holds_the_cache_and_one_stage_gradient(self, tmp_path):
        # one step: above what the process held before fit, its peak is the
        # forward cache, one stage's gradient and backward's buffers, with a
        # slack of 6 (T, F) arrays for backward's temporaries. A whole
        # gradient Model beside the cache (13 MiB more than one stage's), or a
        # cache whose stages stay resident after backward drops them, does
        # not fit
        bound = PAPER_CACHE + PAPER_STAGE_GRAD + 2 * PAPER_ROW + 6 * PAPER_ROW
        # 8 MiB below the same live set with a whole gradient Model in place of one stage's
        assert bound + 8 * 2**20 < PAPER_CACHE + PAPER_PARAMS + 2 * PAPER_ROW
        grown = self._fit_peak_growth(1, tmp_path / "model.bin")
        assert grown <= bound, f"peak RSS grew by {grown / 2**20:.1f} MiB in fit, " \
                               f"bound {bound / 2**20:.1f} MiB"

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB, glibc's heap")
    def test_peak_rss_of_later_epochs_holds_no_parameter_copy(self, tmp_path):
        # two epochs, each saving a new best: from the second epoch's first
        # step AdamW's m and v are mapped whole beside the step's live set,
        # with a slack of 8 (T, F) arrays for backward's temporaries and
        # validation's forward. A copy of the best epoch's parameters (18 MiB)
        # does not fit
        live = 2 * PAPER_PARAMS + PAPER_CACHE + PAPER_STAGE_GRAD + 2 * PAPER_ROW
        bound = live + 8 * PAPER_ROW
        # 8 MiB below the same live set with a parameter copy beside it
        assert bound + 8 * 2**20 < live + PAPER_PARAMS
        grown = self._fit_peak_growth(2, tmp_path / "model.bin")
        assert grown <= bound, f"peak RSS grew by {grown / 2**20:.1f} MiB in fit, " \
                               f"bound {bound / 2**20:.1f} MiB"

    @pytest.mark.parametrize("t_len", [1300, 173])
    def test_fit_starts_one_pool_and_restores_blas(self, rng, monkeypatch, t_len):
        # 1300 frames at width 64: forward and backward in two row blocks;
        # 173: the synth-bench shape, one block, so only AdamW's ranges share
        # the pool. Either way one pool serves the whole run, BLAS is held
        # once, and no worker outlives fit
        pools, seen, blas = [], [], {"threads": 4, "set": []}

        class CountedPool(mstcnpp.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(args)
                super().__init__(*args, **kwargs)

        def set_threads(n):
            blas["set"].append(n)
            blas["threads"] = n

        conv = mstcnpp.dilated_conv1d

        def counting(*args):
            seen.append(threading.active_count())
            return conv(*args)

        monkeypatch.setattr(mstcnpp, "ThreadPoolExecutor", CountedPool)
        monkeypatch.setattr(mstcnpp, "dilated_conv1d", counting)
        monkeypatch.setattr(seqcore, "openblas_threads",
                            lambda: (lambda: blas["threads"], set_threads))
        mcfg = mstcnpp.StageConfig(in_dim=8, channels=64, n_classes=4, stages=2,
                                   layers_prediction=2, layers_refinement=2)
        assert len(mstcnpp._row_blocks(t_len, 64, 2)) == (2 if t_len == 1300 else 1)
        labels = np.repeat(np.arange(4), -(-t_len // 4))[:t_len]
        data = [(rng.normal(size=(t_len, 8)) + labels[:, None], labels) for _ in range(3)]
        before = threading.active_count()
        fit(mstcnpp.init(mcfg, seed=0), data[:2], data[2:],
            TrainConfig(epochs=2, learning_rate=1e-3), _discard, threads=2)
        assert pools == [(1,)]
        assert max(seen) <= before + 1
        assert threading.active_count() == before
        assert blas == {"threads": 4, "set": [1, 4]}

    def test_divergence_attaches_report(self):
        train = make_split(2, sequence_seed=100)
        val = make_split(1, sequence_seed=101)
        model = mstcnpp.init(TINY, seed=0)
        model.stages[0].proj_w[0, 0] = np.nan
        with pytest.raises(DivergenceError) as exc_info:
            fit(model, train, val, TrainConfig(epochs=2, learning_rate=1e-3), _discard)
        assert exc_info.value.report.diverged

    @staticmethod
    def _fit_poisoned(monkeypatch, stage, block):
        """fit with the first gradient of block of stage (from 1) poisoned
        through backward's consumer; returns (parameters before, model)."""
        train = make_split(2, sequence_seed=100)
        val = make_split(1, sequence_seed=101)
        model = mstcnpp.init(TINY, seed=0)
        before = model.flat.copy()
        backward = mstcnpp.backward

        def poisoned(model, cache, stage_grads, threads=1, apply=None, buffers=None):
            def poison(s, grad):
                if s == stage - 1:
                    names = []
                    mstcnpp._bind_stage(model.config, s, grad, names)
                    dict(names)[f"stage{stage}/{block}"].flat[0] = np.nan
                apply(s, grad)

            return backward(model, cache, stage_grads, threads, poison, buffers)

        monkeypatch.setattr(mstcnpp, "backward", poisoned)
        with pytest.raises(DivergenceError, match=f"'stage{stage}/{block}'") as exc_info:
            fit(model, train, val, TrainConfig(epochs=2, learning_rate=1e-3), _discard)
        assert exc_info.value.report.diverged
        return before, model

    def test_nonfinite_gradient_names_block(self, monkeypatch):
        # each stage's gradient is checked before its update; stage 2 is
        # handed over first, so no parameter moves
        before, model = self._fit_poisoned(monkeypatch, 2, "head_w")
        assert np.array_equal(model.flat, before)

    def test_nonfinite_stage1_gradient_leaves_stage1_unmoved(self, monkeypatch):
        # stage 1 is handed over last: it does not move, while stage 2,
        # updated earlier in the same step, has moved
        before, model = self._fit_poisoned(monkeypatch, 1, "layer1/w_d2")
        stage_1, stage_2 = mstcnpp.stage_slices(TINY)
        assert np.array_equal(model.flat[stage_1], before[stage_1])
        assert not np.array_equal(model.flat[stage_2], before[stage_2])

    def test_empty_sets_rejected(self):
        model = mstcnpp.init(TINY, seed=0)
        with pytest.raises(ValueError):
            fit(model, [], make_split(1, sequence_seed=1), TrainConfig(), _discard)

    def test_single_sequence_overfit_sanity(self):
        # gradients are healthy enough to crush one 50-frame sequence
        cfg = synthgen.SynthConfig(dim=8, duration_mean=(12, 13, 15, 10),
                                   duration_std=(2, 2, 2, 2), seed=1)
        (features, labels), = synthgen.generate(cfg, 1)
        x, y = features[:50], labels[:50]
        model = mstcnpp.init(TINY, seed=0)
        state = _zero_state(model.flat.size)
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
