import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseseg import seqcore
from phaseseg.seqcore import (
    ShapeError,
    conv1x1,
    conv1x1_backward,
    dilated_conv1d,
    dilated_conv1d_backward,
    relu,
    relu_backward,
    softmax_rows,
    softmax_rows_backward,
)

from conftest import assert_grad_close, central_difference, dilated_conv1d_grads


class TestDilatedConv:
    def test_identity_kernel(self, rng):
        x = rng.normal(size=(7, 1))
        w = np.array([[[0.0, 1.0, 0.0]]])
        out = dilated_conv1d(x, w, np.zeros(1), dilation=1)
        np.testing.assert_allclose(out, x)

    def test_shifted_tap_with_dilation(self):
        # kernel [1,0,0] with dilation 2 reads x[t-2]; zeros flow in from padding
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        w = np.array([[[1.0, 0.0, 0.0]]])
        out = dilated_conv1d(x, w, np.zeros(1), dilation=2)
        np.testing.assert_allclose(out[:, 0], [0.0, 0.0, 1.0, 2.0])

    def test_zero_kernel_gives_bias(self, rng):
        x = rng.normal(size=(5, 3))
        w = np.zeros((2, 3, 3))
        out = dilated_conv1d(x, w, np.array([1.5, -0.5]), dilation=4)
        np.testing.assert_allclose(out, np.tile([1.5, -0.5], (5, 1)))

    def test_channel_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError):
            dilated_conv1d(rng.normal(size=(5, 3)), rng.normal(size=(2, 4, 3)),
                           np.zeros(2), dilation=1)

    def test_even_kernel_rejected(self, rng):
        with pytest.raises(ShapeError):
            dilated_conv1d(rng.normal(size=(5, 2)), rng.normal(size=(2, 2, 4)),
                           np.zeros(2), dilation=1)

    def test_explicit_shifts(self, rng):
        # the ladder given as shifts is the same convolution, bit for bit
        x, w, b = rng.normal(size=(9, 2)), rng.normal(size=(3, 2, 3)), rng.normal(size=3)
        assert np.array_equal(dilated_conv1d(x, w, b, (-2, 0, 2)), dilated_conv1d(x, w, b, 2))
        assert seqcore.tap_shifts(5, 3) == (-6, -3, 0, 3, 6)
        for shifts in ((-1, 0), (-1, 0, 1.5)):
            with pytest.raises(ValueError, match="integer shifts"):
                dilated_conv1d(x, w, b, shifts)
        with pytest.raises(ValueError, match="positive integer"):
            dilated_conv1d(x, w, b, 1.5)

    def test_output_length_preserved(self, rng):
        for dil in (1, 2, 4, 8):
            x = rng.normal(size=(9, 2))
            out = dilated_conv1d(x, rng.normal(size=(3, 2, 3)), rng.normal(size=3), dil)
            assert out.shape == (9, 3)

    def test_linear_in_input(self, rng):
        x = rng.normal(size=(6, 2))
        y = rng.normal(size=(6, 2))
        w = rng.normal(size=(3, 2, 3))
        b = np.zeros(3)
        lhs = dilated_conv1d(2.5 * x - 1.5 * y, w, b, 2)
        rhs = 2.5 * dilated_conv1d(x, w, b, 2) - 1.5 * dilated_conv1d(y, w, b, 2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def padded_dilated_conv1d(x, weights, bias, dilation):
    """The zero-padded form of the dilated convolution, kept as a bit-level reference."""
    t_len, k = x.shape[0], weights.shape[2]
    pad = (k - 1) // 2 * dilation
    xp = np.zeros((t_len + 2 * pad, x.shape[1]), dtype=x.dtype)
    xp[pad:pad + t_len] = x
    out = np.tile(bias, (t_len, 1))
    for j in range(k):
        out += xp[j * dilation:j * dilation + t_len] @ weights[:, :, j].T
    return out


def padded_dilated_conv1d_backward(x, weights, dilation, grad_out):
    """(d_x, d_w, d_b) through a zero-padded copy of x, kept as a reference:
    every tap's kernel gradient sums over all T rows, padding included, and
    the taps add into d_x last to first, the order of the padless form. Each
    tap's d_x product hands BLAS a transposed C-contiguous operand, as the
    padless form does (BLAS rounds the other layout differently)."""
    t_len, k = x.shape[0], weights.shape[2]
    pad = (k - 1) // 2 * dilation
    xp = np.zeros((t_len + 2 * pad, x.shape[1]), dtype=x.dtype)
    xp[pad:pad + t_len] = x
    d_w = np.empty_like(weights)
    d_xp = np.zeros_like(xp)
    for j in reversed(range(k)):
        window = slice(j * dilation, j * dilation + t_len)
        d_w[:, :, j] = grad_out.T @ xp[window]
        d_xp[window] += grad_out @ np.ascontiguousarray(weights[:, :, j].T).T
    return d_xp[pad:pad + t_len], d_w, grad_out.sum(axis=0)


def _bit_equal_or_close(got, want, exact: bool):
    """Equal bits when exact, else equal within a relative 1e-12 (float64)
    or 1e-5 (float32) of the largest entry."""
    if exact:
        return np.array_equal(got, want)
    tol = 1e-12 if got.dtype == np.float64 else 1e-5
    return np.abs(got - want).max() <= tol * np.abs(want).max()


class TestPadlessDilatedConv:
    # (T, channels): the wider shapes put short tap ranges (dilation T-1)
    # into the sizes where BLAS switches to its small-product kernels; at
    # T=1100 a tap's product is added in two
    # chunks. Width 250 fails rows_round_alike: there the padless form is
    # only close to the padded one.
    SHAPES = [(1, 3), (2, 3), (7, 5), (40, 16), (173, 64), (300, 256), (1100, 64), (300, 250)]

    @staticmethod
    def _exact(t_len, f):
        """Whether padless and padded products round every row alike."""
        return seqcore.rows_round_alike(f) or t_len < seqcore._MIN_GEMM_ROWS

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_bit_equal_to_padded_reference(self, rng, k, dtype):
        for t_len, f in self.SHAPES:
            x = rng.normal(size=(t_len, f)).astype(dtype)
            w = rng.normal(size=(f, f, k)).astype(dtype)
            b = rng.normal(size=f).astype(dtype)
            for dilation in sorted({1, 2, max(1, t_len - 1), t_len, 2 * t_len}):
                got = dilated_conv1d(x, w, b, dilation)
                want = padded_dilated_conv1d(x, w, b, dilation)
                assert got.dtype == dtype
                assert _bit_equal_or_close(got, want, self._exact(t_len, f)), \
                    (t_len, f, k, dilation)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_backward_matches_padded_reference(self, rng, k, dtype):
        # d_x has the padded form's bits where its rows round alike; d_w sums
        # over the valid rows only, so it is close, not equal. A grad_out that
        # is a column slice of a wider array (concat fusion) gives the same.
        for t_len, f in self.SHAPES:
            x = rng.normal(size=(t_len, f)).astype(dtype)
            w = rng.normal(size=(f, f, k)).astype(dtype)
            wide = rng.normal(size=(t_len, 2 * f)).astype(dtype)
            g = np.ascontiguousarray(wide[:, :f])
            for dilation in sorted({1, 2, max(1, t_len - 1), t_len, 2 * t_len}):
                got_x, got_w, got_b = dilated_conv1d_grads(x, w, dilation, g)
                want_x, want_w, want_b = padded_dilated_conv1d_backward(x, w, dilation, g)
                assert got_x.dtype == got_w.dtype == dtype
                assert _bit_equal_or_close(got_x, want_x, self._exact(t_len, f)), \
                    (t_len, f, k, dilation)
                assert _bit_equal_or_close(got_w, want_w, False), \
                    (t_len, f, k, dilation)
                assert np.array_equal(got_b, want_b)
                sliced = dilated_conv1d_grads(x, w, dilation, wide[:, :f])
                for a, b in zip(sliced, (got_x, got_w, got_b)):
                    assert np.array_equal(a, b)
                # every entry of the destination is written, taps that read
                # only padding included
                d_w = np.full_like(w, np.nan)
                assert dilated_conv1d_backward(x, dilation, g, d_w) is None
                assert np.array_equal(d_w, got_w)
        for d_w in (np.empty((f, f + 1, k), dtype), np.empty((f + 1, f, k), dtype),
                    np.empty((f, f, k), np.float16)):
            with pytest.raises(ShapeError):
                dilated_conv1d_backward(x, 1, g, d_w)


@st.composite
def row_range_cases(draw):
    """A conv operand set and a row range [lo, hi) of its output: T below
    _MIN_GEMM_ROWS (every product spans all of x) or a width whose rows
    round alike in any product."""
    t_len, f = draw(st.sampled_from([(1, 3), (7, 5), (40, 16), (173, 64), (300, 64),
                                          (300, 256), (2100, 64)]))
    lo = draw(st.integers(0, t_len - 1))
    hi = draw(st.integers(lo + 1, t_len))
    return (t_len, f, lo, hi, draw(st.sampled_from([1, 3])), draw(st.integers(1, 2 * t_len)),
            draw(st.sampled_from([np.float64, np.float32])), draw(st.integers(0, 2**32 - 1)))


class TestRowRange:
    """A row range of a primitive is bit-equal to those rows of the full call."""

    @given(row_range_cases())
    @settings(max_examples=60, deadline=None)
    def test_dilated_conv_rows_equal_full_call(self, case):
        t_len, f, lo, hi, k, dilation, dtype, seed = case
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(t_len, f)).astype(dtype)
        w = rng.normal(size=(f, f, k)).astype(dtype)
        b = rng.normal(size=f).astype(dtype)
        out = np.full((hi - lo, f), np.nan, dtype=dtype)
        work = np.full((t_len, f), np.nan, dtype=dtype)
        got = dilated_conv1d(x, w, b, dilation, out, (lo, hi), work)
        assert got is out
        assert np.array_equal(got, dilated_conv1d(x, w, b, dilation)[lo:hi])

    @given(row_range_cases())
    @settings(max_examples=60, deadline=None)
    def test_conv1x1_rows_equal_full_call(self, case):
        t_len, f, lo, hi, _, _, dtype, seed = case
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(t_len, f)).astype(dtype)
        w = rng.normal(size=(2 * f, f)).astype(dtype)
        b = rng.normal(size=2 * f).astype(dtype)
        out = np.empty((hi - lo, 2 * f), dtype)
        if hi - lo < min(seqcore._MIN_GEMM_ROWS, t_len):  # too short to round as the full call
            with pytest.raises(ValueError, match="row range"):
                conv1x1(x, w, b, out, (lo, hi))
        else:
            assert np.array_equal(conv1x1(x, w, b, out, (lo, hi)), conv1x1(x, w, b)[lo:hi])

    def test_bad_range_or_buffers_rejected(self, rng):
        x, w, b = rng.normal(size=(10, 2)), rng.normal(size=(3, 2, 3)), np.zeros(3)
        for rows in ((5, 5), (-1, 4), (3, 11)):
            with pytest.raises(ValueError, match="row range"):
                dilated_conv1d(x, w, b, 1, None, rows)
        with pytest.raises(ShapeError, match="output"):
            dilated_conv1d(x, w, b, 1, np.empty((4, 3)), (0, 5))
        with pytest.raises(ShapeError, match="workspace"):
            dilated_conv1d(x, w, b, 1, None, (0, 5), np.empty((4, 3)))

    def test_relu_in_place(self, rng):
        x = rng.normal(size=(6, 3))
        want = relu(x)
        assert relu(x, x) is x
        assert np.array_equal(x, want)


class TestDirectGemm:
    """A tap multiplied by one BLAS call with beta = 1 into out has the bits
    of the product-then-add loop, the path without the bundled OpenBLAS."""

    @staticmethod
    def _both(monkeypatch, *args, **kwargs):
        """(direct, product-then-add) results of one dilated_conv1d call; an
        out given is filled by each in turn."""
        out = kwargs.pop("out", None)
        direct = dilated_conv1d(*args, out=out, **kwargs).copy()
        with monkeypatch.context() as m:
            m.setattr(seqcore, "blas_gemm", lambda dtype: None)
            loop = dilated_conv1d(*args, out=out, **kwargs).copy()
        return direct, loop

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("f", [64, 72, 250, 256])
    def test_same_bits_as_product_then_add(self, rng, monkeypatch, dtype, f):
        for t_len in (1, 65, 173, 1350, 3000):
            x = rng.normal(size=(t_len, f)).astype(dtype)
            # tap-major, as mstcnpp builds its kernels
            kernel = rng.normal(size=(5, f, f)).astype(dtype).transpose(1, 2, 0)
            b = rng.normal(size=f).astype(dtype)
            # valid ranges: none, 64 rows, all but one, 63 rows, T - 2 rows
            shifts = (-t_len, t_len - 64, -1, t_len - 63, 2)
            wide = np.empty((t_len, 2 * f), dtype)
            for lo, hi in {(0, t_len), (t_len // 3, t_len - t_len // 5)}:
                for out in (None, wide[lo:hi, f:]):  # or concat's column half
                    direct, loop = self._both(monkeypatch, x, kernel, b, shifts,
                                              out=out, rows=(lo, hi))
                    assert direct.tobytes() == loop.tobytes(), (t_len, lo, hi, out is None)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_frame_goes_through_the_loop(self, monkeypatch, dtype):
        # a one-row product is numpy's gemv, not a GEMM of one row: ranges
        # under _MIN_GEMM_ROWS keep the widened product
        x = np.random.default_rng(0).normal(size=(1, 64)).astype(dtype)
        w = np.random.default_rng(1).normal(size=(64, 64, 1)).astype(dtype)
        direct, loop = self._both(monkeypatch, x, w, np.zeros(64, dtype), 1)
        assert direct.tobytes() == loop.tobytes()
        assert direct.tobytes() == (x @ w[:, :, 0].T).tobytes()

    def test_found_with_numpys_openblas(self):
        if seqcore.openblas_threads() is None:
            pytest.skip("this numpy carries no scipy-openblas library")
        assert seqcore.blas_gemm(np.float32) is not None
        assert seqcore.blas_gemm(np.float64) is not None
        assert seqcore.blas_gemm(np.float16) is None
        assert seqcore.tap_products() == "openblas-gemm"

    def test_layouts_blas_cannot_step_through_take_the_loop(self, rng):
        x = rng.normal(size=(100, 8))
        out = np.empty((100, 8))
        tap_major = rng.normal(size=(1, 8, 8)).transpose(1, 2, 0)
        found = seqcore._direct_taps(x, tap_major, out)
        assert (found is None) == (seqcore.blas_gemm(np.float64) is None)
        c_order = rng.normal(size=(8, 8, 3))  # taps 24 bytes apart within a row
        reversed_rows = rng.normal(size=(3, 8, 8)).transpose(1, 2, 0)[::-1]
        unaligned = np.frombuffer(np.zeros(100 * 8 * 8 + 1, np.uint8)[1:], np.float64)
        for operands in ((x, c_order, out), (x, reversed_rows, out),
                         (x, tap_major, np.empty((8, 100)).T),  # out's columns strided
                         (unaligned.reshape(100, 8), tap_major, out)):
            assert seqcore._direct_taps(*operands) is None


class TestConv1x1:
    def test_identity(self, rng):
        x = rng.normal(size=(4, 3))
        np.testing.assert_allclose(conv1x1(x, np.eye(3), np.zeros(3)), x)

    def test_summing_weights(self):
        x = np.array([[2.0, 3.0], [5.0, -1.0]])
        out = conv1x1(x, np.array([[1.0, 1.0]]), np.zeros(1))
        np.testing.assert_allclose(out[:, 0], [5.0, 4.0])

    def test_scalar_case(self):
        out = conv1x1(np.array([[1.0, 1.0]]), np.array([[2.0, 0.0], [0.0, 3.0]]),
                      np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, [[3.0, 4.0]])

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            conv1x1(rng.normal(size=(4, 3)), rng.normal(size=(2, 5)), np.zeros(2))


class TestRelu:
    def test_negative_zeroed(self):
        np.testing.assert_allclose(relu(np.array([[-3.0, -0.1]])), [[0.0, 0.0]])

    def test_nonnegative_unchanged(self, rng):
        x = np.abs(rng.normal(size=(3, 3)))
        np.testing.assert_allclose(relu(x), x)

    def test_mixed(self):
        np.testing.assert_allclose(relu(np.array([[-1.0, 2.0]])), [[0.0, 2.0]])


class TestSoftmax:
    def test_symmetric_row(self):
        np.testing.assert_allclose(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_closed_form(self):
        out = softmax_rows(np.log(np.array([[1.0, 3.0]])))
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-12)

    def test_shift_invariance(self, rng):
        z = rng.normal(size=(5, 4))
        shifted = z + rng.normal(size=(5, 1))
        np.testing.assert_allclose(softmax_rows(z), softmax_rows(shifted), atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        out = softmax_rows(rng.normal(size=(8, 5)) * 30)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(8), atol=1e-9)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            softmax_rows(np.array([[np.inf, 0.0]]))

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_property(self, row):
        out = softmax_rows(np.array([row]))
        assert abs(out.sum() - 1.0) < 1e-9
        assert np.all(out >= 0)


class TestBackward:
    def test_zero_upstream_gives_zero(self, rng):
        x = rng.normal(size=(5, 2))
        w = rng.normal(size=(3, 2, 3))
        d_x, d_w, d_b = dilated_conv1d_grads(x, w, 2, np.zeros((5, 3)))
        assert not d_x.any() and not d_w.any() and not d_b.any()

    def test_identity_kernel_passes_upstream(self, rng):
        x = rng.normal(size=(6, 1))
        w = np.array([[[0.0, 1.0, 0.0]]])
        g = rng.normal(size=(6, 1))
        d_x, _, _ = dilated_conv1d_grads(x, w, 1, g)
        np.testing.assert_allclose(d_x, g)

    def test_conv1x1_weight_grad_is_outer_product(self, rng):
        x = rng.normal(size=(1, 3))
        w = rng.normal(size=(2, 3))
        g = rng.normal(size=(1, 2))
        d_w = np.empty((2, 3))
        conv1x1_backward(x, w, g, d_w, np.empty(2))
        np.testing.assert_allclose(d_w, np.outer(g[0], x[0]), atol=1e-12)

    # a tuple gives each tap's shift: asymmetric, and one beyond T
    @pytest.mark.parametrize("dilation", [1, 2, 3, (-4, 1, 12)])
    def test_dilated_conv_grads_match_fd(self, rng, dilation):
        t_len, cin, cout = 9, 3, 2
        x = rng.normal(size=(t_len, cin))
        w = rng.normal(size=(cout, cin, 3))
        b = rng.normal(size=cout)
        g = rng.normal(size=(t_len, cout))

        d_x, d_w, d_b = dilated_conv1d_grads(x, w, dilation, g)
        assert_grad_close(d_x, central_difference(
            lambda v: float((dilated_conv1d(v, w, b, dilation) * g).sum()), x))
        assert_grad_close(d_w, central_difference(
            lambda v: float((dilated_conv1d(x, v, b, dilation) * g).sum()), w))
        assert_grad_close(d_b, central_difference(
            lambda v: float((dilated_conv1d(x, w, v, dilation) * g).sum()), b))

    def test_conv1x1_grads_match_fd(self, rng):
        x = rng.normal(size=(7, 4))
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=3)
        g = rng.normal(size=(7, 3))
        d_w, d_b = np.full_like(w, np.nan), np.full(3, np.nan)
        d_x = conv1x1_backward(x, w, g, d_w, d_b)
        assert_grad_close(d_x, central_difference(
            lambda v: float((conv1x1(v, w, b) * g).sum()), x))
        assert_grad_close(d_w, central_difference(
            lambda v: float((conv1x1(x, v, b) * g).sum()), w))
        params_w, params_b = np.full_like(w, np.nan), np.full(3, np.nan)
        assert conv1x1_backward(x, w, g, params_w, params_b, d_input=False) is None
        assert np.array_equal(params_w, d_w) and np.array_equal(params_b, d_b)

    def test_relu_grad_matches_fd(self, rng):
        x = rng.normal(size=(6, 3)) + 0.05  # keep clear of the kink
        g = rng.normal(size=(6, 3))
        assert_grad_close(relu_backward(x, g), central_difference(
            lambda v: float((relu(v) * g).sum()), x))

    def test_softmax_grad_matches_fd(self, rng):
        z = rng.normal(size=(5, 4))
        g = rng.normal(size=(5, 4))
        assert_grad_close(softmax_rows_backward(softmax_rows(z), g), central_difference(
            lambda v: float((softmax_rows(v) * g).sum()), z))

    def test_random_small_shapes_sweep(self, rng):
        # gradient correctness across random shapes, T <= 16, channels <= 8
        for _ in range(5):
            t_len = int(rng.integers(2, 17))
            cin = int(rng.integers(1, 9))
            cout = int(rng.integers(1, 9))
            dil = int(rng.integers(1, 5))
            x = rng.normal(size=(t_len, cin))
            w = rng.normal(size=(cout, cin, 3))
            g = rng.normal(size=(t_len, cout))
            d_x, _, _ = dilated_conv1d_grads(x, w, dil, g)
            assert_grad_close(d_x, central_difference(
                lambda v: float((dilated_conv1d(v, w, np.zeros(cout), dil) * g).sum()), x))
