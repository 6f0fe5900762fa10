"""Acceptance suite: one test per criterion, each printing a PASS line.

The end-to-end criteria (3-5) train real models and together take a few
minutes; run with `pytest tests/test_acceptance.py -v -s` to watch progress.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from phaseseg import accumulator, evalmetrics, mstcnpp, synthgen, trainer
from phaseseg.annotate import (
    NoteParseError,
    PhaseOntology,
    build_timeline,
    extract_boundaries,
    parse_timestamp,
)
from phaseseg.cli import main
from phaseseg.losses import (
    ContrastiveConfig,
    FocalConfig,
    focal_loss,
    ntxent_loss,
    smoothing_loss,
    total_loss,
)
from phaseseg.seqcore import (
    conv1x1,
    conv1x1_backward,
    dilated_conv1d,
    relu,
    relu_backward,
    softmax_rows,
    softmax_rows_backward,
)

from conftest import central_difference, dilated_conv1d_grads, max_rel_err

BENCH_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "synth-bench.cfg"

GRAD_TOL = 1e-4


def _report(criterion: int, detail: str):
    print(f"\n[acceptance {criterion}] PASS: {detail}")


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0

    def check(analytic, fn, x):
        nonlocal worst
        worst = max(worst, max_rel_err(analytic, central_difference(fn, x)))

    # seqcore primitives
    for dilation in (1, 2, 3):
        x = rng.normal(size=(8, 3))
        w = rng.normal(size=(2, 3, 3))
        b = rng.normal(size=2)
        g = rng.normal(size=(8, 2))
        d_x, d_w, d_b = dilated_conv1d_grads(x, w, dilation, g)
        check(d_x, lambda v: float((dilated_conv1d(v, w, b, dilation) * g).sum()), x)
        check(d_w, lambda v: float((dilated_conv1d(x, v, b, dilation) * g).sum()), w)
        check(d_b, lambda v: float((dilated_conv1d(x, w, v, dilation) * g).sum()), b)

    x = rng.normal(size=(6, 4))
    w = rng.normal(size=(3, 4))
    b = rng.normal(size=3)
    g = rng.normal(size=(6, 3))
    d_w, d_b = np.empty_like(w), np.empty_like(b)
    d_x = conv1x1_backward(x, w, g, d_w, d_b)
    check(d_x, lambda v: float((conv1x1(v, w, b) * g).sum()), x)
    check(d_w, lambda v: float((conv1x1(x, v, b) * g).sum()), w)
    check(d_b, lambda v: float((conv1x1(x, w, v) * g).sum()), b)

    x = rng.normal(size=(6, 3)) + 0.05
    g = rng.normal(size=(6, 3))
    check(relu_backward(x, g), lambda v: float((relu(v) * g).sum()), x)

    z = rng.normal(size=(5, 4))
    g = rng.normal(size=(5, 4))
    check(softmax_rows_backward(softmax_rows(z), g),
          lambda v: float((softmax_rows(v) * g).sum()), z)

    # losses (gradients w.r.t. logits / embeddings)
    z = rng.normal(size=(7, 4))
    labels = rng.integers(0, 4, size=7)
    for gamma in (0.0, 2.0):
        cfg = FocalConfig(gamma=gamma, alpha=np.array([1.0, 0.5, 0.8, 0.9]))
        _, grad = focal_loss(softmax_rows(z), labels, cfg)
        check(grad, lambda v, c=cfg: focal_loss(softmax_rows(v), labels, c)[0], z)

    emb = rng.normal(size=(6, 4))
    ccfg = ContrastiveConfig(tau=0.5)
    _, grad = ntxent_loss(emb, ccfg)
    check(grad, lambda v: ntxent_loss(v, ccfg)[0], emb)

    _, grad = smoothing_loss(softmax_rows(z))
    check(grad, lambda v: smoothing_loss(softmax_rows(v))[0], z)

    # full model backward on the S=2, L=2, F=4, T=6 configuration
    cfg = mstcnpp.StageConfig(in_dim=5, channels=4, n_classes=3, stages=2,
                              layers_prediction=2, layers_refinement=2)
    model = mstcnpp.init(cfg, seed=3)
    x = rng.normal(size=(6, 5))
    labels = rng.integers(0, 3, size=6)
    fcfg = FocalConfig(gamma=2.0)

    def model_loss():
        probs = mstcnpp.forward(model, x)
        return total_loss(probs, labels, fcfg, 0.15)[0].total

    probs, cache = mstcnpp.forward(model, x, return_cache=True)
    _, stage_grads = total_loss(probs, labels, fcfg, 0.15)
    analytic = dict(mstcnpp.named_parameters(mstcnpp.backward(model, cache, stage_grads)))
    h = 1e-5
    for name, p in mstcnpp.named_parameters(model):
        flat = p.reshape(-1)
        fd = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = model_loss()
            flat[i] = orig - h
            lm = model_loss()
            flat[i] = orig
            fd[i] = (lp - lm) / (2 * h)
        worst = max(worst, max_rel_err(analytic[name].reshape(-1), fd))

    elapsed = time.perf_counter() - started
    assert worst < GRAD_TOL, f"worst relative error {worst:.3g}"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    _report(1, f"all gradients within {GRAD_TOL} of central differences "
               f"(worst {worst:.2e}) in {elapsed:.1f}s")


@pytest.mark.parametrize("threads", [1, 2])
def test_criterion_1_gradients_in_row_blocks(threads):
    # the full-model oracle at a length where forward and backward cut each
    # layer into two row blocks, on sampled entries of every parameter block. Over 1300
    # frames a step of h would move some pre-ReLU value across 0, where the
    # loss has a kink and a central difference is no oracle; biases of +-3
    # hold every pre-ReLU value far from 0 (half the channels on, half off),
    # and the test checks that no step changes a ReLU mask.
    started = time.perf_counter()
    rng = np.random.default_rng(12)
    cfg = mstcnpp.StageConfig(in_dim=3, channels=64, n_classes=3, stages=2,
                              layers_prediction=2, layers_refinement=2)
    t_len = 1300
    assert len(mstcnpp._row_blocks(t_len, cfg.channels, 2)) == 2
    model = mstcnpp.init(cfg, seed=5)
    for stage in model.stages:
        for layer in stage.layers:
            for bias in (layer.b_d1, layer.b_d2):
                bias[0::2], bias[1::2] = 3.0, -3.0
    x = rng.normal(size=(t_len, cfg.in_dim))
    labels = np.repeat(np.arange(3), -(-t_len // 3))[:t_len]
    fcfg = FocalConfig(gamma=2.0)

    def loss_and_masks():
        probs, cache = mstcnpp.forward(model, x, return_cache=True, threads=threads)
        masks = [lc.post_relu > 0 for sc in cache.stage_caches for lc in sc.layer_caches]
        return total_loss(probs, labels, fcfg, 0.15), masks

    probs, cache = mstcnpp.forward(model, x, return_cache=True, threads=threads)
    _, stage_grads = total_loss(probs, labels, fcfg, 0.15)
    analytic = dict(mstcnpp.named_parameters(
        mstcnpp.backward(model, cache, stage_grads, threads=threads)))
    del probs, cache
    masks = loss_and_masks()[1]
    assert all(0 < m.mean() < 1 for m in masks)  # the ReLUs pass some values and zero others
    h = 1e-5
    worst = 0.0
    for name, p in mstcnpp.named_parameters(model):
        flat = p.reshape(-1)
        picks = rng.choice(flat.size, size=min(3, flat.size), replace=False)
        fd = np.zeros(picks.size)
        for n, i in enumerate(picks):
            orig = flat[i]
            flat[i] = orig + h
            (lp, _), masks_p = loss_and_masks()
            flat[i] = orig - h
            (lm, _), masks_m = loss_and_masks()
            flat[i] = orig
            assert all(np.array_equal(a, b) and np.array_equal(a, c)
                       for a, b, c in zip(masks, masks_p, masks_m)), (name, i)
            fd[n] = (lp.total - lm.total) / (2 * h)
        worst = max(worst, max_rel_err(analytic[name].reshape(-1)[picks], fd))
    elapsed = time.perf_counter() - started
    assert worst < GRAD_TOL, f"worst relative error {worst:.3g}"
    _report(1, f"T={t_len} model gradients on {threads} thread(s) within {GRAD_TOL} "
               f"of central differences (worst {worst:.2e}) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. loss identities
# ---------------------------------------------------------------------------

def test_criterion_2_loss_identities():
    rng = np.random.default_rng(5)
    p = softmax_rows(rng.normal(size=(20, 4)))
    labels = rng.integers(0, 4, size=20)
    focal, _ = focal_loss(p, labels, FocalConfig(gamma=0.0))
    ce = -float(np.mean(np.log(p[np.arange(20), labels])))
    assert abs(focal - ce) < 1e-9

    constant = np.tile([0.1, 0.6, 0.3], (15, 1))
    assert smoothing_loss(constant)[0] == 0.0

    z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    val, _ = ntxent_loss(z, ContrastiveConfig(tau=1.0))
    assert abs(val - math.log(1.0 + 2.0 / math.e)) < 1e-9
    _report(2, "focal(gamma=0)=CE, constant smoothing=0, NT-Xent=ln(1+2/e)")


# ---------------------------------------------------------------------------
# 3. synthetic end-to-end through the CLI
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("precision_flags", [[], ["--precision", "float32"]],
                         ids=["float64", "float32"])
def test_criterion_3_synthetic_end_to_end(tmp_path, precision_flags):
    # the bench profile pins float64; the flag trains at train's default, float32
    started = time.perf_counter()
    data = tmp_path / "data"
    assert main(["gen-synth", "--out", str(data), "--seed", "0"]) == 0
    assert len(list((data / "train").glob("seq_*.npy"))) == 62
    assert len(list((data / "val").glob("seq_*.npy"))) == 8
    assert len(list((data / "test").glob("seq_*.npy"))) == 11

    run = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(run),
                 "--config", str(BENCH_CONFIG), "--seed", "0", *precision_flags]) == 0
    precision = json.loads((run / "manifest.json").read_text())["config"]["precision"]

    evaldir = tmp_path / "eval"
    assert main(["eval", "--model", str(run / "model.bin"),
                 "--data", str(data / "test"), "--out", str(evaldir)]) == 0
    payload = json.loads((evaldir / "report.json").read_text())
    elapsed = time.perf_counter() - started
    assert payload["accuracy"] >= 95.0, f"test accuracy {payload['accuracy']}"
    assert elapsed < 600.0, f"end-to-end run took {elapsed:.0f}s"
    _report(3, f"{precision} held-out accuracy {payload['accuracy']:.2f}% in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 4 & 5. ablation direction on imbalanced / noisy profiles
# ---------------------------------------------------------------------------

def _train_eval(scfg, seed, gamma, smoothing_weight, n_test=6):
    train = synthgen.generate(scfg, 8, sequence_seed=1000 + seed)
    val = synthgen.generate(scfg, 2, sequence_seed=2000 + seed)
    test = synthgen.generate(scfg, n_test, sequence_seed=3000 + seed)
    mcfg = mstcnpp.StageConfig(in_dim=scfg.dim, channels=32, n_classes=4, stages=2,
                               layers_prediction=6, layers_refinement=6)
    model = mstcnpp.init(mcfg, seed=seed)
    tcfg = trainer.TrainConfig(epochs=3, learning_rate=3e-3, patience=3, seed=seed,
                               gamma=gamma, smoothing_weight=smoothing_weight)
    kept = []  # the parameters of each epoch that lowered the validation loss
    trainer.fit(model, train, val, tcfg, lambda m: kept.append(m.flat.copy()))
    model.flat[:] = kept[-1]
    pooled = np.zeros((4, 4), dtype=np.int64)
    seg_counts = []
    for x, y in test:
        pred = np.argmax(mstcnpp.forward(model, x)[-1], axis=1)
        pooled += evalmetrics.confusion(y, pred, 4)
        seg_counts.append(evalmetrics.segment_count(pred))
    rep = evalmetrics.report(pooled)
    return rep, float(np.mean(seg_counts))


def test_criterion_4_focal_beats_bce_on_rare_class():
    mix = tuple(tuple(0.55 if (i, j) in ((2, 3), (3, 2)) else 0.0 for j in range(4))
                for i in range(4))
    scfg = synthgen.SynthConfig(dim=32, noise_sigma=0.9, confusability=mix, seed=0)
    imbalance = scfg.duration_mean[2] / scfg.duration_mean[3]
    assert imbalance >= 8.0

    closure = 3
    wins = 0
    margins = []
    for seed in range(10):
        rep_bce, _ = _train_eval(scfg, seed, gamma=0.0, smoothing_weight=0.15)
        rep_focal, _ = _train_eval(scfg, seed, gamma=2.0, smoothing_weight=0.15)
        margin = rep_focal.f1[closure] - rep_bce.f1[closure]
        margins.append(margin)
        wins += margin > 0
    assert wins >= 8, f"focal won only {wins}/10 seeds (margins {np.round(margins, 1)})"
    _report(4, f"focal improved closure F1 in {wins}/10 seeds "
               f"(median margin {np.median(margins):+.1f})")


def test_criterion_5_smoothing_reduces_segments():
    scfg = synthgen.SynthConfig(dim=32, noise_sigma=1.5, seed=0)
    plain, smoothed = [], []
    for seed in range(10):
        _, segs0 = _train_eval(scfg, seed, gamma=2.0, smoothing_weight=0.0, n_test=4)
        _, segs1 = _train_eval(scfg, seed, gamma=2.0, smoothing_weight=0.15, n_test=4)
        plain.append(segs0)
        smoothed.append(segs1)
    med0, med1 = float(np.median(plain)), float(np.median(smoothed))
    assert med1 < med0, f"median segments {med1} vs {med0} without smoothing"
    _report(5, f"median segment count {med0:.1f} -> {med1:.1f} with lambda=0.15")


# ---------------------------------------------------------------------------
# 6. accumulator properties
# ---------------------------------------------------------------------------

def test_criterion_6_accumulator_properties():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        t_len = int(rng.integers(1, 80))
        preds = rng.integers(0, 4, size=t_len)
        threshold = int(rng.integers(1, 9))
        out = accumulator.smooth(preds, threshold)

        steps = np.diff(out)
        assert np.all((steps == 0) | (steps == 1)), "output regressed or skipped"
        np.testing.assert_array_equal(accumulator.smooth(out, threshold), out)
        changes = np.nonzero(steps)[0]
        bounds = [0] + [int(c) + 1 for c in changes] + [t_len]
        lengths = [b - a for a, b in zip(bounds, bounds[1:])]
        for seg_len in lengths[1:-1]:
            assert seg_len >= threshold, "interior segment below threshold"

    out = accumulator.smooth(np.array([0, 0, 1, 0, 1, 1, 1, 2, 2]), 3)
    np.testing.assert_array_equal(out, [0, 0, 0, 0, 1, 1, 1, 1, 1])
    out = accumulator.smooth(np.array([0, 0, 2, 2, 2, 2]), 3)
    np.testing.assert_array_equal(out, [0, 0, 0, 0, 0, 0])
    _report(6, "1000 random streams monotone, idempotent, threshold-respecting; "
               "hand traces exact")


# ---------------------------------------------------------------------------
# 7. metrics oracle
# ---------------------------------------------------------------------------

def test_criterion_7_metrics_oracle():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        t_len = int(rng.integers(4, 80))
        gt = rng.integers(0, n, size=t_len)
        pred = rng.integers(0, n, size=t_len)
        rep = evalmetrics.report(evalmetrics.confusion(gt, pred, n))

        f1s, included = [], []
        for c in range(n):
            tp = int(np.sum((gt == c) & (pred == c)))
            fp = int(np.sum((gt != c) & (pred == c)))
            fn = int(np.sum((gt == c) & (pred != c)))
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
            assert abs(rep.precision[c] - 100 * prec) < 1e-9
            assert abs(rep.recall[c] - 100 * rec) < 1e-9
            assert abs(rep.f1[c] - 100 * f1) < 1e-9
            if tp + fn or tp + fp:
                f1s.append(100 * f1)
        assert abs(rep.macro_f1 - np.mean(f1s)) < 1e-9
        assert abs(rep.accuracy - 100 * np.mean(gt == pred)) < 1e-9

    rep = evalmetrics.report(np.array([[2, 1], [0, 3]]))
    assert abs(rep.precision[0] - 100.0) < 1e-9
    assert abs(rep.recall[0] - 200 / 3) < 1e-9
    assert abs(rep.f1[0] - 80.0) < 1e-9
    assert abs(rep.precision[1] - 75.0) < 1e-9
    assert abs(rep.recall[1] - 100.0) < 1e-9
    assert abs(rep.f1[1] - 600 / 7) < 1e-9
    assert abs(rep.accuracy - 250 / 3) < 1e-9
    _report(7, "100 random instances match brute-force recomputation to 1e-9")


# ---------------------------------------------------------------------------
# 8. annotation pipeline
# ---------------------------------------------------------------------------

def test_criterion_8_annotation_pipeline():
    assert parse_timestamp("01:02:03") == 3723

    ontology = PhaseOntology()
    notes = [("00:00:10", "start nasal stage"),
             ("00:20:00", "sphenoid drilling begins")]
    boundaries = extract_boundaries(notes, ontology)
    assert boundaries == [(10, ontology.index("nasal")),
                          (1200, ontology.index("sphenoid"))]

    timeline = build_timeline(boundaries, total_frames=1500, fps=1.0)
    assert timeline.num_frames == 1500
    assert np.array_equal(timeline.labels >= 0, ~timeline.ignore)
    assert timeline.ignore[:10].all()
    assert (timeline.labels[10:1200] == 0).all()
    assert (timeline.labels[1200:] == 1).all()

    with pytest.raises(NoteParseError):
        parse_timestamp("00:99:00")
    with pytest.raises(NoteParseError):
        parse_timestamp("12:00:00.5")
    with pytest.raises(ValueError):
        build_timeline([(2000, 0)], total_frames=1500, fps=1.0)
    _report(8, "worked notes example, 01:02:03 -> 3723 s, documented errors raised")


# ---------------------------------------------------------------------------
# 9. training determinism through the CLI
# ---------------------------------------------------------------------------

def test_criterion_9_cmd_train_determinism(tmp_path):
    data = tmp_path / "data"
    assert main(["gen-synth", "--out", str(data), "--dim", "12", "--seed", "2",
                 "--n-train", "4", "--n-val", "2", "--n-test", "2"]) == 0
    flags = ["--channels", "8", "--stages", "2", "--layers-prediction", "2",
             "--layers-refinement", "2", "--epochs", "2", "--lr", "1e-3",
             "--seed", "7", "--precision", "float64"]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["train", "--data", str(data), "--out", str(out), *flags]) == 0
        outs.append(out)
    bytes_a = (outs[0] / "model.bin").read_bytes()
    bytes_b = (outs[1] / "model.bin").read_bytes()
    assert bytes_a == bytes_b
    manifest_a = json.loads((outs[0] / "manifest.json").read_text())
    manifest_b = json.loads((outs[1] / "manifest.json").read_text())
    assert manifest_a["config"] == manifest_b["config"]
    _report(9, "two cmd_train runs with one manifest produced bit-identical models")
