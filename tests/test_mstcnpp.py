import math
import struct
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseseg import mstcnpp, seqcore
from phaseseg.losses import FocalConfig, total_loss
from phaseseg.mstcnpp import (
    ModelFormatError,
    ModelVersionError,
    StageConfig,
    forward,
    init,
    load_model,
    model_from_bytes,
    named_parameters,
    save_model,
)
from phaseseg.seqcore import ShapeError

from conftest import assert_grad_close, dilated_conv1d_grads

TINY = StageConfig(in_dim=5, channels=4, n_classes=3, stages=2,
                   layers_prediction=2, layers_refinement=2)


def zero_params(model):
    for _, p in named_parameters(model):
        p[...] = 0.0
    return model


class TestConfig:
    def test_defaults_match_convention(self):
        cfg = StageConfig()
        assert cfg.channels == 256 and cfg.stages == 4
        assert cfg.layers_prediction == 11 and cfg.layers_refinement == 10

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            StageConfig(n_classes=1)
        with pytest.raises(ValueError):
            StageConfig(stages=0)
        with pytest.raises(ValueError):
            StageConfig(fuse_mode="stack")

    def test_dilation_ladder(self):
        model = init(TINY, seed=0)
        layers = model.stages[0].layers
        assert [l.dilation_low for l in layers] == [1, 2]
        assert [l.dilation_high for l in layers] == [2, 1]


class TestForward:
    def test_zero_parameters_give_uniform(self, rng):
        model = zero_params(init(TINY, seed=0))
        probs = forward(model, rng.normal(size=(7, 5)))
        for p in probs:
            np.testing.assert_allclose(p, np.full((7, 3), 1.0 / 3.0), atol=1e-12)

    def test_output_shapes(self, rng):
        model = init(TINY, seed=3)
        probs = forward(model, rng.normal(size=(9, 5)))
        assert len(probs) == TINY.stages
        for p in probs:
            assert p.shape == (9, 3)
            np.testing.assert_allclose(p.sum(axis=1), np.ones(9), atol=1e-9)

    def test_dimension_mismatch_rejected(self, rng):
        model = init(TINY, seed=0)
        with pytest.raises(ShapeError):
            forward(model, rng.normal(size=(4, 7)))

    def test_hand_traced_single_stage(self):
        # 1-channel, 1-layer, 2-class network small enough to trace by hand
        cfg = StageConfig(in_dim=1, channels=1, n_classes=2, stages=1,
                          layers_prediction=1, layers_refinement=1)
        model = init(cfg, seed=0)
        stage = model.stages[0]
        stage.proj_w[...] = [[1.0]]
        stage.proj_b[...] = 0.0
        layer = stage.layers[0]
        layer.w_d1[...] = np.array([[[0.5, 0.0, 0.0]]])   # reads h[t-1]
        layer.b_d1[...] = 0.1
        layer.w_d2[...] = np.array([[[0.0, 0.0, 0.25]]])  # reads h[t+1]
        layer.b_d2[...] = -0.05
        layer.w_fuse[...] = [[2.0]]
        layer.b_fuse[...] = -1.0
        stage.head_w[...] = [[1.0], [-1.0]]
        stage.head_b[...] = [0.5, 0.0]

        x = np.array([[1.0], [2.0], [3.0]])
        (probs,) = forward(model, x)

        # scalar arithmetic trace of the same network
        h = [1.0, 2.0, 3.0]
        c1 = [0.5 * 0.0 + 0.1, 0.5 * 1.0 + 0.1, 0.5 * 2.0 + 0.1]
        c2 = [0.25 * 2.0 - 0.05, 0.25 * 3.0 - 0.05, 0.25 * 0.0 - 0.05]
        y = [h[t] + 2.0 * max(c1[t] + c2[t], 0.0) - 1.0 for t in range(3)]
        expected = []
        for t in range(3):
            z0, z1 = y[t] + 0.5, -y[t]
            p0 = 1.0 / (1.0 + math.exp(z1 - z0))
            expected.append([p0, 1.0 - p0])
        np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_residual_identity_with_zero_weights(self, rng):
        cfg = StageConfig(in_dim=4, channels=4, n_classes=2, stages=1,
                          layers_prediction=1, layers_refinement=1)
        model = init(cfg, seed=0)
        stage = model.stages[0]
        stage.proj_w[...] = np.eye(4)
        layer = stage.layers[0]
        layer.w_d1[...] = 0.0
        layer.w_d2[...] = 0.0
        layer.w_fuse[...] = 0.0
        x = rng.normal(size=(6, 4))
        _, cache = forward(model, x, return_cache=True)
        np.testing.assert_allclose(cache.stage_caches[0].final_h, x, atol=1e-12)

    def test_stage_causality(self, rng):
        model = init(TINY, seed=5)
        x = rng.normal(size=(8, 5))
        first = forward(model, x)[0]
        model.stages[1].head_w += 10.0
        model.stages[1].layers[0].w_d1 += 1.0
        again = forward(model, x)[0]
        np.testing.assert_allclose(first, again)

    def test_receptive_field_single_branch(self, rng):
        # with the high branch zeroed, L layers reach at most 2^L - 1 frames out
        n_layers = 3
        cfg = StageConfig(in_dim=3, channels=3, n_classes=2, stages=1,
                          layers_prediction=n_layers, layers_refinement=1)
        model = init(cfg, seed=9)
        for layer in model.stages[0].layers:
            layer.w_d2[...] = 0.0
        x = rng.normal(size=(40, 3))
        base = forward(model, x)[0]
        t0 = 20
        x2 = x.copy()
        x2[t0] += 1.0
        moved = forward(model, x2)[0]
        changed = np.nonzero(np.abs(moved - base).max(axis=1) > 1e-12)[0]
        reach = 2**n_layers - 1
        assert changed.size > 0
        assert changed.min() >= t0 - reach
        assert changed.max() <= t0 + reach

    def test_shift_equivariance_in_interior(self, rng):
        n_layers = 2
        cfg = StageConfig(in_dim=3, channels=4, n_classes=3, stages=1,
                          layers_prediction=n_layers, layers_refinement=1)
        model = init(cfg, seed=11)
        t_len = 32
        x = rng.normal(size=(t_len, 3))
        shifted = np.vstack([rng.normal(size=(1, 3)), x[:-1]])
        base = forward(model, x)[0]
        out = forward(model, shifted)[0]
        reach = sum(2**l + 2 ** (n_layers - 1 - l) for l in range(n_layers))
        interior = slice(reach + 1, t_len - reach)
        np.testing.assert_allclose(out[interior],
                                   base[interior.start - 1:interior.stop - 1],
                                   atol=1e-10)


class TestInferenceMemory:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("fuse_mode", ["sum", "concat"])
    def test_cache_free_probs_bit_equal_to_cached(self, rng, fuse_mode, dtype):
        cfg = StageConfig(in_dim=6, channels=8, n_classes=3, stages=3,
                          layers_prediction=5, layers_refinement=4, fuse_mode=fuse_mode)
        model = init(cfg, seed=2, dtype=dtype)
        x = rng.normal(size=(40, 6))
        plain = forward(model, x)
        cached, _ = forward(model, x, return_cache=True)
        for a, b in zip(plain, cached):
            assert a.dtype == dtype
            assert np.array_equal(a, b)

    @staticmethod
    def _peak_bytes(n_layers, return_cache):
        cfg = StageConfig(in_dim=8, channels=16, n_classes=3, stages=2,
                          layers_prediction=n_layers, layers_refinement=n_layers)
        model = init(cfg, seed=0)
        x = np.random.default_rng(0).normal(size=(2000, 8))
        tracemalloc.start()
        try:
            result = forward(model, x, return_cache=return_cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del result
        return peak

    def test_inference_peak_independent_of_depth(self):
        activation = 2000 * 16 * 8  # one (T, F) float64 array
        shallow = self._peak_bytes(2, return_cache=False)
        deep = self._peak_bytes(12, return_cache=False)
        assert deep < shallow + activation, (shallow, deep)

    def test_cached_peak_grows_with_depth(self):
        activation = 2000 * 16 * 8
        shallow = self._peak_bytes(2, return_cache=True)
        deep = self._peak_bytes(12, return_cache=True)
        # two cached arrays per layer (h_in, and pre_relu that is post_relu),
        # 2 stages x 10 extra layers: 40 activations
        assert deep > shallow + 35 * activation, (shallow, deep)


def _gate_frames(channels: int, blocks: int = 2) -> int:
    """The fewest frames for which forward cuts its layers into this many blocks."""
    return -(-blocks * mstcnpp._MIN_BLOCK_WORK // channels**2)


def _shortest_tap_range(blocks, t_len, dilations) -> int:
    """Fewest rows a tap of these dilations reads inside [0, T) within one block."""
    lengths = [min(hi, t_len - s) - max(lo, -s)
               for lo, hi in blocks for d in dilations for s in (-d, d)]
    return min(n for n in lengths if n > 0)


class TestRowBlocks:
    """Layers cut into row blocks over threads give the bits of one block."""

    @staticmethod
    def _run(t_len, fuse_mode, dtype, threads, channels=72):
        # stage 1's dilations reach 512; the refinement stage is kept short
        cfg = StageConfig(in_dim=6, channels=channels, n_classes=4, stages=2,
                          layers_prediction=10, layers_refinement=2, fuse_mode=fuse_mode)
        model = init(cfg, seed=4, dtype=dtype)
        rng = np.random.default_rng(t_len)
        x = rng.normal(size=(t_len, 6))
        labels = np.repeat(np.arange(4), -(-t_len // 4))[:t_len]
        plain = forward(model, x, threads=threads)
        probs, cache = forward(model, x, return_cache=True, threads=threads)
        _, stage_grads = total_loss(probs, labels, FocalConfig(gamma=2.0), 0.15)
        return plain, probs, mstcnpp.backward(model, cache, stage_grads, threads=threads).flat

    def test_gate_and_block_shapes(self):
        t_gate = _gate_frames(72)
        assert len(mstcnpp._row_blocks(t_gate - 1, 72, 2)) == 1
        assert mstcnpp._row_blocks(t_gate, 72, 2) == [(0, t_gate // 2), (t_gate // 2, t_gate)]
        assert len(mstcnpp._row_blocks(1600, 72, 3)) == 3
        # the synth-bench shape stays in one block whatever the thread count
        assert len(mstcnpp._row_blocks(173, 64, 64)) == 1
        # a block never has fewer rows than a product needs
        assert len(mstcnpp._row_blocks(100, 4096, 8)) == 1
        # widths whose rows do not round alike in every product stay in one block
        for channels in (16, 100, 250, 257):
            assert not seqcore.rows_round_alike(channels)
            assert mstcnpp._row_blocks(100_000, channels, 2) == [(0, 100_000)]
        assert all(seqcore.rows_round_alike(c) for c in (64, 72, 256, 512))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("fuse_mode", ["sum", "concat"])
    @pytest.mark.parametrize("t_len", ["gate", 1600])
    def test_probs_and_grads_equal_for_threads_1_2_3(self, fuse_mode, dtype, t_len):
        # "gate": the shortest sequence with two blocks, at widths 72 and 128;
        # at T=1600 three threads cut three blocks and dilation 512 reads
        # fewer than _MIN_GEMM_ROWS rows inside the first block. Backward runs
        # on the same blocks and threads as forward.
        for channels in (72, 128) if t_len == "gate" else (72,):
            n = _gate_frames(channels) if t_len == "gate" else t_len
            blocks = mstcnpp._row_blocks(n, channels, 3)
            assert len(blocks) == (2 if t_len == "gate" else 3)
            if t_len == 1600:
                assert _shortest_tap_range(blocks, n, [512]) < seqcore._MIN_GEMM_ROWS
            serial, serial_cached, serial_grad = self._run(n, fuse_mode, dtype, 1, channels)
            for a, b in zip(serial, serial_cached):
                assert np.array_equal(a, b)
            for threads in (2, 3):
                plain, cached, grad = self._run(n, fuse_mode, dtype, threads, channels)
                for a, b, c in zip(serial, plain, cached):
                    assert a.dtype == dtype
                    assert np.array_equal(a, b) and np.array_equal(a, c), (channels, threads)
                assert np.array_equal(serial_grad, grad), (channels, threads)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("fuse_mode", ["sum", "concat"])
    def test_direct_gemm_gives_the_bits_of_product_then_add(self, monkeypatch, fuse_mode,
                                                            dtype):
        # every forward tap, and every tap of backward's input gradient, at
        # 1, 2 and 3 threads, with and without the direct BLAS call
        for threads in (1, 2, 3):
            direct = self._run(3000, fuse_mode, dtype, threads, 64)
            with monkeypatch.context() as m:
                m.setattr(seqcore, "blas_gemm", lambda dtype: None)
                loop = self._run(3000, fuse_mode, dtype, threads, 64)
            for a, b in zip([*direct[0], *direct[1], direct[2]], [*loop[0], *loop[1], loop[2]]):
                assert a.tobytes() == b.tobytes(), threads

    @given(st.sampled_from([(40, 8), (150, 64), (300, 64)]), st.sampled_from(["sum", "concat"]),
           st.sampled_from([np.float64, np.float32]), st.integers(0, 9), st.data())
    @settings(max_examples=40, deadline=None)
    def test_layer_blocks_in_any_order_equal_one_block(self, shape, fuse_mode, dtype,
                                                       layer_index, data):
        # any cut of [0, T) into blocks of at least _MIN_GEMM_ROWS rows (or
        # all of T), run in any order into shared arrays
        t_len, f = shape
        cfg = StageConfig(in_dim=3, channels=f, n_classes=3, stages=1, layers_prediction=10,
                          layers_refinement=1, fuse_mode=fuse_mode)
        layer = init(cfg, seed=layer_index, dtype=dtype).stages[0].layers[layer_index]
        h = np.random.default_rng(layer_index).normal(size=(t_len, f)).astype(dtype)
        step = min(t_len, seqcore._MIN_GEMM_ROWS)
        cuts = sorted(data.draw(st.sets(st.integers(1, t_len // step - 1), max_size=4))
                      if t_len // step > 1 else [])
        edges = [0, *(c * step for c in cuts), t_len]
        blocks = list(zip(edges[:-1], edges[1:]))
        order = data.draw(st.permutations(range(len(blocks))))

        def run(blocks):
            ws = (np.empty((t_len, f), dtype),)
            a = np.empty((t_len, f if fuse_mode == "sum" else 2 * f), dtype)
            out = np.empty_like(h)
            convs = mstcnpp._layer_convs(layer, fuse_mode)
            for rows in blocks:
                mstcnpp._layer_rows(layer, convs, h, a, out, rows, ws)
            return a, out

        want_a, want_out = run([(0, t_len)])
        got_a, got_out = run([blocks[i] for i in order])
        assert np.array_equal(got_a, want_a) and np.array_equal(got_out, want_out)

    def test_more_threads_than_cores_under_fast_switching(self):
        # four blocks on a 2-core host, with the interpreter switching threads
        # every microsecond: the blocks share only disjoint rows of a and out
        t_len = _gate_frames(72, blocks=4)
        assert len(mstcnpp._row_blocks(t_len, 72, 4)) == 4
        serial = self._run(t_len, "sum", np.float64, 1)
        result = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(
                target=lambda: result.append(self._run(t_len, "sum", np.float64, 4)))
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive() and result
        for a, b in zip(serial[1], result[0][1]):
            assert np.array_equal(a, b)
        assert np.array_equal(serial[2], result[0][2])

    def test_synth_bench_shape_starts_no_thread(self, monkeypatch, rng):
        seen = []
        conv = mstcnpp.dilated_conv1d

        def counting(*args):
            seen.append(threading.active_count())
            return conv(*args)

        monkeypatch.setattr(mstcnpp, "dilated_conv1d", counting)
        cfg = StageConfig(in_dim=64, channels=64, n_classes=4, stages=2,
                          layers_prediction=8, layers_refinement=8)
        model = init(cfg, seed=0)
        before = threading.active_count()
        for return_cache in (False, True):
            forward(model, rng.normal(size=(173, 64)), return_cache, threads=2)
        assert set(seen) == {before}
        # the same probe sees the worker above the gate
        seen.clear()
        forward(model, rng.normal(size=(_gate_frames(64), 64)), threads=2)
        assert max(seen) == before + 1
        assert threading.active_count() == before

    def test_cache_holds_relu_once(self, rng):
        _, cache = forward(init(TINY, seed=0), rng.normal(size=(6, 5)), return_cache=True)
        for sc in cache.stage_caches:
            for lc in sc.layer_caches:
                assert lc.pre_relu is lc.post_relu
                assert (lc.post_relu >= 0).all()


class TestBackward:
    def _loss_grads(self, model, x, labels, threads=1):
        probs, cache = forward(model, x, return_cache=True, threads=threads)
        bd, grads = total_loss(probs, labels, FocalConfig(gamma=2.0), 0.15)
        return bd.total, cache, grads

    def test_zero_loss_gradient_gives_zero_params(self, rng):
        model = init(TINY, seed=0)
        x = rng.normal(size=(6, 5))
        _, cache = forward(model, x, return_cache=True)
        zeros = [np.zeros((6, 3)) for _ in range(TINY.stages)]
        grads = mstcnpp.backward(model, cache, zeros)
        assert not grads.flat.any()

    def test_missing_cache_rejected(self, rng):
        model = init(TINY, seed=0)
        with pytest.raises(ValueError):
            mstcnpp.backward(model, None, [np.zeros((6, 3))] * 2)

    def test_input_validated_once(self, rng, monkeypatch):
        # forward's input is the only boundary in a training step; the
        # primitives and losses take the arrays it hands them as they are
        calls = []
        original = seqcore.as_matrix

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(seqcore, "as_matrix", counted)
        monkeypatch.setattr(mstcnpp, "as_matrix", counted)
        model = init(TINY, seed=0)
        _, cache, stage_grads = self._loss_grads(model, rng.normal(size=(6, 5)),
                                                 rng.integers(0, 3, size=6))
        mstcnpp.backward(model, cache, stage_grads)
        assert len(calls) == 1

    @pytest.mark.parametrize("fuse_mode", ["sum", "concat"])
    def test_full_model_matches_fd(self, rng, fuse_mode):
        cfg = StageConfig(in_dim=5, channels=4, n_classes=3, stages=2,
                          layers_prediction=2, layers_refinement=2,
                          fuse_mode=fuse_mode)
        model = init(cfg, seed=2)
        x = rng.normal(size=(6, 5))
        labels = rng.integers(0, 3, size=6)

        _, cache, stage_grads = self._loss_grads(model, x, labels)
        analytic = dict(named_parameters(mstcnpp.backward(model, cache, stage_grads)))

        h = 1e-5
        for name, p in named_parameters(model):
            flat = p.reshape(-1)
            picks = rng.choice(flat.size, size=min(4, flat.size), replace=False)
            for i in picks:
                orig = flat[i]
                flat[i] = orig + h
                lp = self._loss_grads(model, x, labels)[0]
                flat[i] = orig - h
                lm = self._loss_grads(model, x, labels)[0]
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                an = analytic[name].reshape(-1)[i]
                assert_grad_close(np.array([an]), np.array([fd]))


    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("stages", [1, 3])
    @pytest.mark.parametrize("fuse_mode", ["sum", "concat"])
    def test_every_gradient_entry_written(self, monkeypatch, fuse_mode, stages, dtype):
        # the gradient Model starts uninitialised: filled with NaN it must
        # come out equal to one filled with zeros. Three layers have
        # dilations (1, 4), (2, 2) and (4, 1); at T=3 the taps at shift 4
        # read only padding
        cfg = StageConfig(in_dim=5, channels=8, n_classes=3, stages=stages,
                          layers_prediction=3, layers_refinement=3, fuse_mode=fuse_mode)
        model = init(cfg, seed=1, dtype=dtype)
        rng = np.random.default_rng(stages)
        for t_len in (3, 40):
            probs, cache = forward(model, rng.normal(size=(t_len, 5)), return_cache=True)
            _, stage_grads = total_loss(probs, rng.integers(0, 3, size=t_len),
                                        FocalConfig(gamma=2.0), 0.15)
            flats = []
            for fill in (np.nan, 0.0):
                with monkeypatch.context() as m:
                    m.setattr(np, "empty_like", lambda a, fill=fill: np.full_like(a, fill))
                    flats.append(mstcnpp.backward(model, cache, stage_grads).flat)
            assert flats[0].dtype == dtype
            assert np.array_equal(flats[0], flats[1]), t_len

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_concat_equals_two_convolutions_on_model_kernels(self, rng, dtype):
        # concat fusion multiplies tap-major kernel copies: probabilities and
        # gradients are bit-equal to the primitives run on the model's own
        # (strided) kernels, with input gradients through transposed kernels
        cfg = StageConfig(in_dim=5, channels=64, n_classes=3, stages=1,
                          layers_prediction=4, layers_refinement=1, fuse_mode="concat")
        model = init(cfg, seed=5, dtype=dtype)
        for _, p in named_parameters(model):
            if p.ndim == 1:
                p[...] = rng.normal(scale=0.1, size=p.shape)
        stage = model.stages[0]
        x = rng.normal(size=(300, 5)).astype(dtype)
        h = seqcore.conv1x1(x, stage.proj_w, stage.proj_b)
        saved = []
        for layer in stage.layers:
            a = np.concatenate([seqcore.dilated_conv1d(h, w, b, d) for w, b, d in (
                (layer.w_d1, layer.b_d1, layer.dilation_low),
                (layer.w_d2, layer.b_d2, layer.dilation_high))], axis=1)
            a = seqcore.relu(a)
            saved.append((h, a))
            h = seqcore.conv1x1(a, layer.w_fuse, layer.b_fuse) + h
        probs, cache = forward(model, x, return_cache=True)
        assert np.array_equal(probs[0], seqcore.softmax_rows(
            seqcore.conv1x1(h, stage.head_w, stage.head_b)))

        g_logits = rng.normal(size=probs[0].shape).astype(dtype)
        ref = zero_params(init(cfg, seed=0, dtype=dtype))
        rs = ref.stages[0]
        g_h = seqcore.conv1x1_backward(h, stage.head_w, g_logits, rs.head_w, rs.head_b)
        for layer, rl, (h_in, a) in reversed(list(zip(stage.layers, rs.layers, saved))):
            seqcore.conv1x1_backward(a, layer.w_fuse, g_h, rl.w_fuse, rl.b_fuse, d_input=False)
            g_a = seqcore.relu_backward(a, g_h @ np.ascontiguousarray(layer.w_fuse.T).T)
            dxs = []
            for i, (w, d, d_w, d_b) in enumerate(((layer.w_d1, layer.dilation_low, rl.w_d1, rl.b_d1),
                                                  (layer.w_d2, layer.dilation_high, rl.w_d2, rl.b_d2))):
                g_c = np.ascontiguousarray(g_a[:, i * 64:(i + 1) * 64])
                dx, d_w[...], d_b[...] = dilated_conv1d_grads(h_in, w, d, g_c)
                dxs.append(dx)
            g_h = g_h + (dxs[0] + dxs[1])
        seqcore.conv1x1_backward(x, stage.proj_w, g_h, rs.proj_w, rs.proj_b, d_input=False)
        grads = mstcnpp.backward(model, cache, [g_logits])
        for (name, got), (_, want) in zip(named_parameters(grads), named_parameters(ref)):
            assert np.array_equal(got, want), name

    def test_concat_fusion_gradients_reach_convs_contiguous(self, rng, monkeypatch):
        # the two halves of a concat fusion's gradient are made contiguous once
        # per layer, so no row block's dilated_conv1d copies its input
        contiguous = []
        conv = mstcnpp.dilated_conv1d

        def recording(x, *args):
            contiguous.append(x.flags.c_contiguous)
            return conv(x, *args)

        cfg = StageConfig(in_dim=5, channels=64, n_classes=3, stages=1,
                          layers_prediction=3, layers_refinement=1, fuse_mode="concat")
        t_len = _gate_frames(64)
        model = init(cfg, seed=0)
        _, cache, stage_grads = self._loss_grads(model, rng.normal(size=(t_len, 5)),
                                                 rng.integers(0, 3, size=t_len), 2)
        monkeypatch.setattr(mstcnpp, "dilated_conv1d", recording)
        mstcnpp.backward(model, cache, stage_grads, threads=2)
        assert len(contiguous) == 3 * 2 * 2 and all(contiguous)


class TestMergedSumLayer:
    """Sum fusion runs a layer's two dilated convolutions as one convolution
    over their distinct tap shifts."""

    # layers_prediction=3: layer 2 has dilations 2 and 2, so all three tap
    # pairs of its merged convolution coincide
    CFG = StageConfig(in_dim=5, channels=64, n_classes=3, stages=1,
                      layers_prediction=3, layers_refinement=1)

    @staticmethod
    def _unmerged(layer, h):
        """The layer as two convolutions summed: the oracle of the merged form."""
        a = (seqcore.dilated_conv1d(h, layer.w_d1, layer.b_d1, layer.dilation_low)
             + seqcore.dilated_conv1d(h, layer.w_d2, layer.b_d2, layer.dilation_high))
        a = np.maximum(a, 0)
        return a, h + seqcore.conv1x1(a, layer.w_fuse, layer.b_fuse)

    @pytest.mark.parametrize("n_layers, t_len", [(3, 300), (10, 700), (10, 40)])
    def test_float64_layer_equals_two_convolutions(self, rng, n_layers, t_len):
        # at T=40 the high dilations of 10 layers read mostly or only padding
        cfg = StageConfig(in_dim=5, channels=64, n_classes=3, stages=1,
                          layers_prediction=n_layers, layers_refinement=1)
        h = rng.normal(size=(t_len, 64))
        ws = (np.empty((t_len, 64)),)
        for layer in init(cfg, seed=1).stages[0].layers:
            layer.b_d1[...] = rng.normal(size=64)  # init zeroes the biases
            layer.b_d2[...] = rng.normal(size=64)
            a, out = np.empty((t_len, 64)), np.empty((t_len, 64))
            mstcnpp._layer_rows(layer, mstcnpp._layer_convs(layer, "sum"), h, a, out,
                                (0, t_len), ws)
            for got, want in zip((a, out), self._unmerged(layer, h)):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("fuse_mode", ["sum", "concat"])
    def test_taps_per_convolution(self, rng, monkeypatch, fuse_mode):
        calls = []
        conv = mstcnpp.dilated_conv1d

        def recording(*args):
            calls.append((args[1].shape[2], args[3]))
            return conv(*args)

        monkeypatch.setattr(mstcnpp, "dilated_conv1d", recording)
        cfg = StageConfig(**{**vars(self.CFG), "fuse_mode": fuse_mode})
        probs, cache = forward(init(cfg, seed=0), rng.normal(size=(20, 5)), return_cache=True)
        forward_calls = list(calls)
        calls.clear()
        mstcnpp.backward(init(cfg, seed=0), cache, [np.ones_like(p) for p in probs])
        if fuse_mode == "sum":  # dilations (1, 4), (2, 2), (4, 1)
            want = [(5, (-4, -1, 0, 1, 4)), (3, (-2, 0, 2)), (5, (-4, -1, 0, 1, 4))]
            assert forward_calls == want
            assert calls == want[::-1]  # the input gradients: the shifts are symmetric
        else:
            assert forward_calls == [(3, (-d, 0, d))
                                     for pair in ((1, 4), (2, 2), (4, 1)) for d in pair]
            assert [k for k, _ in calls] == [3] * 6

    @pytest.mark.parametrize("threads", [1, 2])
    def test_gradients_match_fd(self, rng, threads):
        t_len = _gate_frames(64)
        assert len(mstcnpp._row_blocks(t_len, 64, threads)) == threads
        model = init(self.CFG, seed=3)
        for layer in model.stages[0].layers:
            layer.b_d1[...] = rng.normal(scale=0.1, size=64)
            layer.b_d2[...] = rng.normal(scale=0.1, size=64)
        x = rng.normal(size=(t_len, 5))
        labels = rng.integers(0, 3, size=t_len)

        def loss_grads(model):
            probs, cache = forward(model, x, return_cache=True, threads=threads)
            bd, grads = total_loss(probs, labels, FocalConfig(gamma=2.0), 0.15)
            return bd.total, cache, grads

        _, cache, stage_grads = loss_grads(model)
        analytic = dict(named_parameters(mstcnpp.backward(model, cache, stage_grads,
                                                          threads=threads)))
        h = 1e-5
        for name, p in named_parameters(model):
            if "layer" not in name:
                continue
            # two entries of every tap (every tap of layer 2 is shared), or of the vector
            picks = ([np.ravel_multi_index((co, ci, j), p.shape)
                      for j in range(p.shape[2]) for co, ci in rng.integers(0, 64, (2, 2))]
                     if p.ndim == 3 else rng.choice(p.size, size=4, replace=False))
            flat = p.reshape(-1)
            for i in picks:
                orig = flat[i]
                flat[i] = orig + h
                lp = loss_grads(model)[0]
                flat[i] = orig - h
                lm = loss_grads(model)[0]
                flat[i] = orig
                assert_grad_close(analytic[name].reshape(-1)[i:i + 1],
                                  np.array([(lp - lm) / (2 * h)]))


class TestBlasThreads:
    """numpy's BLAS runs on one thread in every forward and backward, at
    every thread count, and gets its thread count back after."""

    @staticmethod
    def _fake_blas(monkeypatch, count=4):
        state = {"threads": count, "set": []}

        def set_threads(n):
            state["set"].append(n)
            state["threads"] = n

        monkeypatch.setattr(seqcore, "openblas_threads",
                            lambda: (lambda: state["threads"], set_threads))
        return state

    def test_capped_while_blocks_run(self, rng, monkeypatch):
        state = self._fake_blas(monkeypatch)
        seen = []
        conv = mstcnpp.dilated_conv1d
        before = threading.active_count()

        def recording(*args):
            seen.append(state["threads"])
            workers.append(threading.active_count() - before)
            return conv(*args)

        monkeypatch.setattr(mstcnpp, "dilated_conv1d", recording)
        cfg = StageConfig(in_dim=5, channels=64, n_classes=3, stages=1,
                          layers_prediction=2, layers_refinement=1)
        model = init(cfg, seed=0)
        x = rng.normal(size=(_gate_frames(64), 5))
        for threads in (2, 1):
            for run in ("forward", "backward"):
                state["set"].clear()
                seen.clear()
                workers = []
                if run == "forward":
                    probs, cache = forward(model, x, return_cache=True, threads=threads)
                else:
                    mstcnpp.backward(model, cache, [np.ones_like(p) for p in probs],
                                     threads=threads)
                # held once per pass, and no more workers than threads asks for
                assert state["set"] == [1, 4] and set(seen) == {1}
                assert max(workers) == threads - 1
                assert state["threads"] == 4

    def test_fake_thread_api_leaves_the_gemm(self, monkeypatch):
        # the GEMM comes from the loader openblas_threads shares, not through
        # openblas_threads: neither this class's fake nor a missing thread
        # API turns the direct call off or swaps it
        dtypes = (np.float32, np.float64)
        real = [seqcore.blas_gemm(dtype) for dtype in dtypes]
        for fake in (self._fake_blas,
                     lambda m: m.setattr(seqcore, "openblas_threads", lambda: None)):
            fake(monkeypatch)
            seqcore.blas_gemm.cache_clear()
            assert all(seqcore.blas_gemm(d) is g for d, g in zip(dtypes, real))

    def test_nested_regions_restore_once(self, monkeypatch):
        state = self._fake_blas(monkeypatch, count=3)
        with pytest.raises(RuntimeError):
            with seqcore.one_blas_thread:
                with seqcore.one_blas_thread:
                    assert state["threads"] == 1
                assert state["threads"] == 1
                raise RuntimeError("a failing block")
        assert state["threads"] == 3 and state["set"] == [1, 3]

    def test_without_openblas_nothing_is_set(self, rng, monkeypatch):
        # no library to hold: backward still runs, on the one thread asked for
        monkeypatch.setattr(seqcore, "openblas_threads", lambda: None)
        monkeypatch.setattr(mstcnpp, "ThreadPoolExecutor", None)  # any pool would fail
        cfg = StageConfig(in_dim=5, channels=64, n_classes=3, stages=1,
                          layers_prediction=2, layers_refinement=1)
        model = init(cfg, seed=0)
        probs, cache = forward(model, rng.normal(size=(_gate_frames(64), 5)),
                               return_cache=True)
        mstcnpp.backward(model, cache, [np.ones_like(p) for p in probs])

    def test_numpys_openblas_capped_and_restored(self):
        api = seqcore.openblas_threads()
        if api is None:
            pytest.skip("this numpy carries no scipy-openblas library")
        get, _ = api
        before = get()
        with seqcore.one_blas_thread:
            assert get() == 1
        assert get() == before


class TestInit:
    def test_same_seed_bit_identical(self):
        a = init(TINY, seed=7)
        b = init(TINY, seed=7)
        for (_, pa), (_, pb) in zip(named_parameters(a), named_parameters(b)):
            assert np.array_equal(pa, pb)

    def test_different_seeds_differ(self):
        a = init(TINY, seed=7)
        b = init(TINY, seed=8)
        assert any(not np.array_equal(pa, pb)
                   for (_, pa), (_, pb) in zip(named_parameters(a), named_parameters(b)))

    def test_forward_finite_after_init(self, rng):
        model = init(TINY, seed=1)
        probs = forward(model, rng.normal(size=(10, 5)))
        assert all(np.all(np.isfinite(p)) for p in probs)

    def test_biases_start_at_zero(self):
        model = init(TINY, seed=4)
        for name, p in named_parameters(model):
            if name.endswith("_b") or "/b_" in name:
                assert not p.any()


class TestSerialization:
    def test_round_trip_preserves_forward(self, rng, tmp_path):
        model = init(TINY, seed=6)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        x = rng.normal(size=(7, 5))
        np.testing.assert_allclose(forward(loaded, x)[-1], forward(model, x)[-1],
                                   atol=1e-5)

    def test_second_round_trip_bit_exact(self, tmp_path):
        model = init(TINY, seed=6)
        path = tmp_path / "model.bin"
        save_model(model, path)
        once = load_model(path)
        save_model(once, path)
        twice = load_model(path)
        for (_, pa), (_, pb) in zip(named_parameters(once), named_parameters(twice)):
            assert np.array_equal(pa, pb)
        save_model(twice, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    def test_float32_load_keeps_parameters_in_read_buffer(self, tmp_path):
        cfg = StageConfig(in_dim=64, channels=32, n_classes=4, stages=2,
                          layers_prediction=3, layers_refinement=3)
        model = init(cfg, seed=2)
        path = tmp_path / "model.bin"
        save_model(model, path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            loaded = load_model(path, dtype=np.float32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * size  # one buffer; reading bytes and then copying takes two
        assert loaded.flat.flags.writeable and loaded.flat.flags.aligned
        np.testing.assert_array_equal(loaded.flat, model.flat.astype(np.float32))
        save_model(loaded, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_file_is_header_then_float32_parameters(self, tmp_path, dtype):
        model = init(TINY, seed=3, dtype=dtype)
        path = tmp_path / "model.bin"
        save_model(model, path)
        header = _header(in_dim=5, channels=4, n_classes=3, stages=2,
                         layers_prediction=2, layers_refinement=2)
        assert path.read_bytes() == header + model.flat.astype("<f4").tobytes()

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(init(TINY, seed=0), path)
        before = path.read_bytes()
        # the header is written, then the parameters fail to convert
        broken = types.SimpleNamespace(config=TINY, flat=np.array([object()]))
        with pytest.raises(TypeError):
            save_model(broken, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]  # no temporary file left behind

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(init(TINY, seed=0), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(init(TINY, seed=0), path)
        data = bytearray(path.read_bytes())
        data[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(ModelVersionError):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(init(TINY, seed=0), path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(init(TINY, seed=0), path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 8])
        with pytest.raises(ModelFormatError):
            load_model(path)


class TestLayout:
    """Every parameter is a view of one flat array in file order."""

    @staticmethod
    def assert_tiles_flat(model):
        count = mstcnpp._param_count(model.config)
        assert model.flat.shape == (count,) and model.flat.flags.writeable
        base = model.flat.__array_interface__["data"][0]
        pos = 0
        for name, view in named_parameters(model):
            assert np.shares_memory(view, model.flat), name
            offset = view.__array_interface__["data"][0] - base
            assert offset == pos * model.flat.itemsize and view.flags.writeable, name
            pos += view.size
        assert pos == count
        for stage in model.stages:
            fields = [stage.proj_w, stage.proj_b, stage.head_w, stage.head_b]
            for layer in stage.layers:
                fields += [layer.w_d1, layer.b_d1, layer.w_d2, layer.b_d2,
                           layer.w_fuse, layer.b_fuse]
            assert all(np.shares_memory(f, model.flat) for f in fields)

    @pytest.mark.parametrize("fuse_mode", ["sum", "concat"])
    def test_views_tile_flat(self, rng, tmp_path, fuse_mode):
        cfg = StageConfig(in_dim=5, channels=4, n_classes=3, stages=3,
                          layers_prediction=2, layers_refinement=3, fuse_mode=fuse_mode)
        model = init(cfg, seed=1)
        self.assert_tiles_flat(model)
        copy = mstcnpp.clone(model)
        self.assert_tiles_flat(copy)
        assert not np.shares_memory(copy.flat, model.flat)
        assert np.array_equal(copy.flat, model.flat)
        save_model(model, tmp_path / "model.bin")
        for dtype in (np.float64, np.float32):
            loaded = load_model(tmp_path / "model.bin", dtype=dtype)
            assert loaded.dtype == dtype
            self.assert_tiles_flat(loaded)
        probs, cache = forward(model, rng.normal(size=(6, 5)), return_cache=True)
        grads = mstcnpp.backward(model, cache, [np.ones_like(p) for p in probs])
        self.assert_tiles_flat(grads)
        assert grads.flat.any()


def _header(**overrides):
    fields = dict(in_dim=2048, channels=256, n_classes=4, stages=4,
                  layers_prediction=11, layers_refinement=10, fuse=0)
    fields.update(overrides)
    return (mstcnpp.MAGIC + struct.pack("<I", mstcnpp.FORMAT_VERSION)
            + struct.pack("<7I", *fields.values()))


class TestHostileModelBytes:
    @pytest.mark.parametrize("size", [4, 6, 8, 12, 35])
    def test_truncated_header_rejected(self, size):
        with pytest.raises(ModelFormatError, match="truncated model header"):
            model_from_bytes(_header()[:size])

    def test_huge_channels_rejected_without_allocating(self):
        for fields in (dict(channels=2**31), dict(stages=2**31),
                       dict(layers_prediction=2**31, layers_refinement=2**31)):
            buf = _header(**fields) + bytes(64)
            tracemalloc.start()
            try:
                with pytest.raises(ModelFormatError, match="truncated"):
                    model_from_bytes(buf)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, fields

    def test_invalid_header_values_rejected(self):
        with pytest.raises(ModelFormatError):
            model_from_bytes(_header(n_classes=1))
        with pytest.raises(ModelFormatError):
            model_from_bytes(_header(fuse=7))

    def test_parameter_count_matches_file_size(self, tmp_path):
        for cfg in (TINY, StageConfig(in_dim=3, channels=5, n_classes=2, stages=3,
                                      layers_prediction=3, layers_refinement=1,
                                      fuse_mode="concat")):
            model = init(cfg, seed=1)
            save_model(model, tmp_path / "model.bin")
            buf = (tmp_path / "model.bin").read_bytes()
            assert len(buf) == len(_header()) + 4 * mstcnpp._param_count(cfg)
            loaded, end = model_from_bytes(buf + b"tail")
            assert end == len(buf)
            for (na, pa), (nb, pb) in zip(named_parameters(model), named_parameters(loaded)):
                assert na == nb and pa.shape == pb.shape and pb.flags.writeable
                assert np.array_equal(pb, pa.astype(np.float32))
