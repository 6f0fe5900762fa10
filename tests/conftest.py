import numpy as np
import pytest

from phaseseg.seqcore import dilated_conv1d, dilated_conv1d_backward, tap_shifts


def central_difference(fn, x, h=1e-5):
    """Central finite-difference gradient of scalar fn at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = fn(x)
        flat[i] = orig - h
        lm = fn(x)
        flat[i] = orig
        gflat[i] = (lp - lm) / (2 * h)
    return grad


def max_rel_err(analytic, numeric, floor=1e-6):
    """Worst relative error; the floor keeps near-zero pairs from dividing by ~0."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def assert_grad_close(analytic, numeric, tol=1e-4):
    err = max_rel_err(analytic, numeric)
    assert err < tol, f"gradient mismatch: max relative error {err:.3g} >= {tol}"


def dilated_conv1d_grads(x, w, dilation, g):
    """(d_x, d_w, d_b) of dilated_conv1d as mstcnpp.backward computes them:
    d_w from dilated_conv1d_backward, d_b as g's column sum, d_x as the
    convolution of g with zero bias and the transposed kernel: tap j of k is
    tap k-1-j of w with its channels swapped, made C-contiguous, at shift
    -shift_{k-1-j}."""
    d_w = np.empty(w.shape, x.dtype)
    dilated_conv1d_backward(x, dilation, g, d_w)
    d_b = g.sum(axis=0)
    kernel = np.ascontiguousarray(w.transpose(2, 1, 0)[::-1]).transpose(1, 2, 0)
    shifts = tuple(-s for s in reversed(tap_shifts(w.shape[2], dilation)))
    return dilated_conv1d(g, kernel, np.zeros(w.shape[1], x.dtype), shifts), d_w, d_b


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
