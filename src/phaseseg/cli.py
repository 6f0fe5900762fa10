"""Command-line entry point.

Subcommands cover the full workflow on synthetic or pre-extracted features:

  gen-synth    write train/val/test splits of synthetic embedding sequences
  train        fit a multi-stage model on a dataset directory
  eval         score a model on a split, optionally with the accumulator
  segment      run inference on one feature file, emit CSV + ribbon
  parse-notes  turn timestamped operative notes into label files

Every command resolves its settings as CLI flag > config file > default,
writes a manifest.json recording the resolved configuration, input hashes
and artifacts, and uses stable exit codes: 0 success, 2 input/validation
error, 3 numeric failure. Every command computes on PHASESEG_THREADS threads
(default: the usable cores), with numpy's BLAS held to one thread inside
each forward, backward and AdamW step; results depend on neither count.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import accumulator, annotate, evalmetrics, mstcnpp, synthgen, trainer

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _threads() -> int:
    raw = os.environ.get("PHASESEG_THREADS")
    if raw is None:  # the usable cores
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity API on this platform
            return os.cpu_count() or 1
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"PHASESEG_THREADS must be an integer >= 1, got {raw!r}")
    return threads


def _parse_value(raw: str):
    text = raw.strip()
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def read_config_file(path) -> dict:
    """Line-oriented `key = value` settings; # starts a comment."""
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            cfg[key.strip().replace("-", "_")] = _parse_value(value)
    return cfg


def resolve_config(defaults: dict, args: argparse.Namespace) -> tuple[dict, dict]:
    """Apply precedence CLI flag > config file > default; track provenance."""
    file_cfg = {}
    if getattr(args, "config", None):
        file_cfg = read_config_file(args.config)
    resolved, sources = {}, {}
    for key, default in defaults.items():
        resolved[key] = default
        sources[key] = "default"
        if key in file_cfg:
            resolved[key] = file_cfg[key]
            sources[key] = "config-file"
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
            sources[key] = "flag"
        value = resolved[key]
        if type(default) is int and type(value) is not int:
            raise ValueError(f"{key} must be an integer, got {value!r}")
        if type(default) is float and type(value) not in (int, float):
            raise ValueError(f"{key} must be a number, got {value!r}")
        if type(default) is bool and type(value) is not bool:
            raise ValueError(f"{key} must be true or false, got {value!r}")
    unknown = set(file_cfg) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return resolved, sources


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _hash_inputs(paths) -> dict:
    hashes = {}
    for p in paths:
        p = Path(p)
        if p.is_dir():
            for f in sorted(p.rglob("*")):
                if f.is_file():
                    hashes[str(f)] = _sha256(f)
        elif p.is_file():
            hashes[str(p)] = _sha256(p)
    return hashes


class PhaseTimer:
    """Seconds spent per named phase of a command; `with timer("load"): ...`
    adds the block's duration to that phase."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    @contextlib.contextmanager
    def __call__(self, phase: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[phase] = self.seconds.get(phase, 0.0) + time.perf_counter() - start


def _blas() -> dict | None:
    """Name and version of the BLAS numpy was built with, or None where this
    numpy cannot report it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas["name"], "version": blas["version"]}
    except (TypeError, KeyError):  # an older show_config takes no mode argument
        return None


def write_manifest(out_dir: Path, command: str, config: dict, sources: dict,
                   inputs, artifacts, started: float, timer: PhaseTimer | None = None) -> Path:
    """Write manifest.json; with a timer, its phases plus "hash" (hashing the
    inputs) go under phase_s. Times are in microseconds' precision, so the
    phases never sum past wall_clock_s."""
    timer = timer or PhaseTimer()
    with timer("hash"):
        input_hashes = _hash_inputs(inputs)
    manifest = {
        "command": command,
        "argv": sys.argv[1:],
        "config": config,
        "config_sources": sources,
        "environment": {"threads": _threads(),
                        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                        "numpy": np.__version__,
                        "blas": _blas()},
        "input_hashes": input_hashes,
        "artifacts": [str(a) for a in artifacts],
        "phase_s": {phase: round(s, 6) for phase, s in timer.seconds.items()},
        "wall_clock_s": round(time.perf_counter() - started, 6),
        # the process's high-water mark so far (Linux reports ru_maxrss in KiB)
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# gen-synth
# ---------------------------------------------------------------------------

GEN_DEFAULTS = {
    "seed": 0,
    "dim": 64,
    "n_train": 62,
    "n_val": 8,
    "n_test": 11,
    "noise_sigma": 0.35,
    "label_noise": 0.0,
    "boundary_blur": 0,
    "sellar_closure_confusability": 0.0,
    "include_all_phases": True,
}


def cmd_gen_synth(args) -> int:
    started = time.perf_counter()
    cfg, sources = resolve_config(GEN_DEFAULTS, args)
    out_dir = Path(args.out)

    conf = None
    mix = float(cfg["sellar_closure_confusability"])
    if not math.isfinite(mix):
        raise ValueError(f"sellar_closure_confusability must be finite, got {mix}")
    if mix:
        conf = np.zeros((4, 4))
        conf[2, 3] = conf[3, 2] = mix
        conf = tuple(map(tuple, conf))
    scfg = synthgen.SynthConfig(
        dim=int(cfg["dim"]),
        noise_sigma=float(cfg["noise_sigma"]),
        label_noise=float(cfg["label_noise"]),
        boundary_blur=int(cfg["boundary_blur"]),
        confusability=conf,
        include_all_phases=cfg["include_all_phases"],
        seed=int(cfg["seed"]),
    )
    # every split is generated, and so checked, before any file is written
    splits = [(split, synthgen.generate(scfg, int(count),
                                        sequence_seed=int(cfg["seed"]) * 3 + 100 + offset))
              for split, count, offset in (("train", cfg["n_train"], 0),
                                           ("val", cfg["n_val"], 1),
                                           ("test", cfg["n_test"], 2))]
    out_dir.mkdir(parents=True, exist_ok=True)  # settings checked: a bad one leaves no directory
    artifacts = []
    for split, sequences in splits:
        artifacts += synthgen.save_dataset(sequences, out_dir / split)
    write_manifest(out_dir, "gen-synth", cfg, sources, [], artifacts, started)
    print(f"wrote {cfg['n_train']}/{cfg['n_val']}/{cfg['n_test']} sequences under {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

TRAIN_DEFAULTS = {
    "seed": 0,
    "epochs": 100,
    "lr": 1e-5,
    "loss": "focal",
    "gamma": 2.0,
    "alpha_mode": "uniform",
    "lambda_smooth": 0.15,
    "patience": 3,
    "weight_decay": 0.01,
    "sampling": "uniform",
    "channels": 256,
    "stages": 4,
    "layers_prediction": 11,
    "layers_refinement": 10,
    "fuse_mode": "sum",
    "n_classes": 4,
    "precision": "float64",
}


def _dtype_of(name: str):
    if name not in ("float64", "float32"):
        raise ValueError(f"precision must be float64 or float32, got {name!r}")
    return np.float64 if name == "float64" else np.float32


def cmd_train(args) -> int:
    started = time.perf_counter()
    cfg, sources = resolve_config(TRAIN_DEFAULTS, args)
    if cfg["loss"] not in ("bce", "focal"):
        raise ValueError(f"loss must be 'bce' or 'focal', got {cfg['loss']!r}")
    bce = cfg["loss"] == "bce"
    overridden = [key for key in ("gamma", "alpha_mode") if sources[key] != "default"]
    if bce and overridden:  # bce is focal with gamma 0 and uniform alpha
        raise ValueError(f"loss = bce fixes gamma = 0 and alpha_mode = uniform; "
                         f"do not also set {' or '.join(overridden)}")
    data_dir = Path(args.data)
    out_dir = Path(args.out)
    dtype = _dtype_of(cfg["precision"])
    timer = PhaseTimer()

    with timer("load"):
        train_set = synthgen.load_dataset(data_dir / "train", dtype=dtype)
        val_set = synthgen.load_dataset(data_dir / "val", dtype=dtype)

    model_cfg = mstcnpp.StageConfig(
        in_dim=train_set[0][0].shape[1],
        channels=int(cfg["channels"]),
        n_classes=int(cfg["n_classes"]),
        stages=int(cfg["stages"]),
        layers_prediction=int(cfg["layers_prediction"]),
        layers_refinement=int(cfg["layers_refinement"]),
        fuse_mode=cfg["fuse_mode"],
    )
    model = mstcnpp.init(model_cfg, seed=int(cfg["seed"]), dtype=dtype)
    train_cfg = trainer.TrainConfig(
        epochs=int(cfg["epochs"]),
        learning_rate=float(cfg["lr"]),
        smoothing_weight=float(cfg["lambda_smooth"]),
        patience=int(cfg["patience"]),
        seed=int(cfg["seed"]),
        weight_decay=float(cfg["weight_decay"]),
        sampling=cfg["sampling"],
        gamma=0.0 if bce else float(cfg["gamma"]),
        alpha_mode="uniform" if bce else cfg["alpha_mode"],
    )
    out_dir.mkdir(parents=True, exist_ok=True)  # the inputs loaded: a bad one leaves no directory
    report_path = out_dir / "train_report.json"
    try:
        with timer("fit"):
            best_model, report = trainer.fit(model, train_set, val_set, train_cfg,
                                             threads=_threads())
    except trainer.DivergenceError as exc:  # keep the finished epochs; main exits 3
        report_path.write_text(json.dumps(exc.report.as_dict(), indent=2), encoding="utf-8")
        write_manifest(out_dir, "train", cfg, sources, [data_dir], [report_path],
                       started, timer)
        raise

    with timer("save"):
        model_path = out_dir / "model.bin"
        mstcnpp.save_model(best_model, model_path)
        report_path.write_text(json.dumps(report.as_dict(), indent=2), encoding="utf-8")
    write_manifest(out_dir, "train", cfg, sources, [data_dir],
                   [model_path, report_path], started, timer)
    last = report.epochs[-1]
    print(f"stopped at epoch {report.stop_epoch} (best {report.best_epoch}); "
          f"val loss {last.val_loss:.4f}, val acc {100 * last.val_accuracy:.2f}%")
    print(f"model: {model_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

EVAL_DEFAULTS = {
    "post": "none",
    "threshold": 30,
    "precision": "float32",  # inference only; float64 on request
}


def _inference_settings(cfg: dict):
    """eval's and segment's settings, checked before any directory or model is
    touched: (dtype, accumulator config, or None when post = none)."""
    if cfg["post"] not in ("none", "accumulator"):
        raise ValueError(f"post must be 'none' or 'accumulator', got {cfg['post']!r}")
    smoother = accumulator.AccumulatorConfig(threshold=cfg["threshold"])  # threshold >= 1
    return _dtype_of(cfg["precision"]), smoother if cfg["post"] == "accumulator" else None


def predict(model, x, smoother, threads: int, timer: PhaseTimer) -> tuple[np.ndarray, np.ndarray]:
    """Final-stage argmax timeline (raw) and, after the accumulator when
    smoother is given, the final timeline; times the "forward" and "post" phases."""
    with timer("forward"):
        probs = mstcnpp.forward(model, x, threads=threads)[-1]
    with timer("post"):
        raw = accumulator.argmax_decode(probs)
        return raw, raw if smoother is None else accumulator.smooth(raw, smoother)


def cmd_eval(args) -> int:
    started = time.perf_counter()
    cfg, sources = resolve_config(EVAL_DEFAULTS, args)
    dtype, smoother = _inference_settings(cfg)
    model_path = Path(args.model)
    data_dir = Path(args.data)
    out_dir = Path(args.out)
    threads, timer = _threads(), PhaseTimer()

    with timer("load"):
        model = mstcnpp.load_model(model_path, dtype=dtype)
        dataset = synthgen.load_dataset(data_dir, dtype=dtype)
    n_classes = model.config.n_classes

    pooled = np.zeros((n_classes, n_classes), dtype=np.int64)
    segment_counts = []
    for features, labels in dataset:
        _, pred = predict(model, features, smoother, threads, timer)
        with timer("post"):
            pooled += evalmetrics.confusion(labels, pred, n_classes)
            segment_counts.append(evalmetrics.segment_count(pred))
    with timer("post"):
        rep = evalmetrics.report(pooled)

    payload = rep.as_dict()
    payload["confusion"] = pooled.tolist()
    payload["segment_counts"] = segment_counts
    payload["post"] = cfg["post"]
    table = evalmetrics.format_report(rep)
    with timer("write"):
        out_dir.mkdir(parents=True, exist_ok=True)
        json_path = out_dir / "report.json"
        json_path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
        txt_path = out_dir / "report.txt"
        txt_path.write_text(table + "\n", encoding="utf-8")
    write_manifest(out_dir, "eval", cfg, sources, [model_path, data_dir],
                   [json_path, txt_path], started, timer)
    print(table)
    return EXIT_OK


# ---------------------------------------------------------------------------
# segment
# ---------------------------------------------------------------------------

SEGMENT_DEFAULTS = {
    "post": "accumulator",
    "threshold": 30,
    "precision": "float32",  # inference only; float64 on request
}


def cmd_segment(args) -> int:
    started = time.perf_counter()
    cfg, sources = resolve_config(SEGMENT_DEFAULTS, args)
    dtype, smoother = _inference_settings(cfg)
    model_path = Path(args.model)
    feat_path = Path(args.ssl_features)
    out_dir = Path(args.out)
    timer = PhaseTimer()

    with timer("load"):
        model = mstcnpp.load_model(model_path, dtype=dtype)
        features = synthgen.load_features(feat_path, dtype)
    raw, final = predict(model, features, smoother, _threads(), timer)

    with timer("write"):
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / "phases.csv"
        annotate.write_label_csv(csv_path, final)
        svg_path, ribbon_csv = evalmetrics.export_ribbon(raw, final, out_dir / "ribbon.svg")
    write_manifest(out_dir, "segment", cfg, sources, [model_path, feat_path],
                   [csv_path, svg_path, ribbon_csv], started, timer)
    print(f"phase timeline: {csv_path} ({final.size} frames, "
          f"{evalmetrics.segment_count(final)} segments)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parse-notes
# ---------------------------------------------------------------------------

NOTES_DEFAULTS = {
    "fps": 1.0,
    "frames": 0,   # 0 = boundaries only
}


def cmd_parse_notes(args) -> int:
    started = time.perf_counter()
    cfg, sources = resolve_config(NOTES_DEFAULTS, args)
    fps = float(cfg["fps"])
    if not (math.isfinite(fps) and fps > 0):
        raise ValueError(f"fps must be finite and > 0, got {fps}")
    if cfg["frames"] < 0:
        raise ValueError(f"frames must be >= 0, got {cfg['frames']}")
    notes_path = Path(args.notes)
    out_dir = Path(args.out)

    ontology = annotate.PhaseOntology.from_file(args.lexicon) if args.lexicon \
        else annotate.PhaseOntology()
    notes = annotate.read_notes_file(notes_path)
    boundaries = annotate.extract_boundaries(notes, ontology)
    if not boundaries:
        print("no phases found in notes", file=sys.stderr)
        return EXIT_INPUT
    # every frame index and the timeline are computed before any file is written
    frames = [annotate.seconds_to_frame(seconds, fps) for seconds, _ in boundaries]
    timeline = None
    if cfg["frames"] > 0:
        timeline = annotate.build_timeline(boundaries, cfg["frames"], fps, ontology)

    out_dir.mkdir(parents=True, exist_ok=True)
    bounds_path = out_dir / "boundaries.csv"
    with open(bounds_path, "w", encoding="utf-8") as fh:
        fh.write("frame,phase_id\n")
        for frame, (_, phase) in zip(frames, boundaries):
            fh.write(f"{frame},{phase}\n")
    artifacts = [bounds_path]
    if timeline is not None:
        labels_path = out_dir / "labels.csv"
        annotate.write_label_csv(labels_path, timeline.labels)
        artifacts.append(labels_path)

    write_manifest(out_dir, "parse-notes", cfg, sources, [notes_path], artifacts, started)
    for seconds, phase in boundaries:
        print(f"{annotate.format_timestamp(seconds)}  {ontology.names[phase]}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="phaseseg",
                                     description="surgical phase segmentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value settings file")
        p.add_argument("--out", required=True, help="output directory")

    def precision(p, defaults, what):
        p.add_argument("--precision", choices=("float64", "float32"),
                       help=f"{what} precision (default {defaults['precision']})")

    p = sub.add_parser("gen-synth", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--n-train", type=int, dest="n_train")
    p.add_argument("--n-val", type=int, dest="n_val")
    p.add_argument("--n-test", type=int, dest="n_test")
    p.add_argument("--noise-sigma", type=float, dest="noise_sigma")
    p.add_argument("--label-noise", type=float, dest="label_noise")
    p.add_argument("--boundary-blur", type=int, dest="boundary_blur")
    p.add_argument("--sellar-closure-confusability", type=float,
                   dest="sellar_closure_confusability")
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--data", required=True, help="dataset dir with train/ and val/")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--loss", choices=("bce", "focal"))
    p.add_argument("--gamma", type=float)
    p.add_argument("--alpha-mode", choices=("uniform", "inverse-frequency"),
                   dest="alpha_mode")
    p.add_argument("--lambda", type=float, dest="lambda_smooth",
                   help="temporal smoothing weight")
    p.add_argument("--patience", type=int)
    p.add_argument("--weight-decay", type=float, dest="weight_decay")
    p.add_argument("--sampling", choices=("uniform", "class-balanced"))
    p.add_argument("--channels", type=int)
    p.add_argument("--stages", type=int)
    p.add_argument("--layers-prediction", type=int, dest="layers_prediction")
    p.add_argument("--layers-refinement", type=int, dest="layers_refinement")
    p.add_argument("--fuse-mode", choices=("sum", "concat"), dest="fuse_mode")
    precision(p, TRAIN_DEFAULTS, "training and validation")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a dataset split")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="split directory (seq_*.npy)")
    p.add_argument("--post", choices=("none", "accumulator"))
    p.add_argument("--threshold", type=int)
    precision(p, EVAL_DEFAULTS, "inference")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("segment", help="segment one feature file")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--ssl-features", required=True, dest="ssl_features",
                   help="pre-extracted per-frame embeddings (.npy, T x d)")
    p.add_argument("--post", choices=("none", "accumulator"))
    p.add_argument("--threshold", type=int)
    precision(p, SEGMENT_DEFAULTS, "inference")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("parse-notes", help="extract weak labels from operative notes")
    common(p)
    p.add_argument("--notes", required=True, help="JSON-lines notes file")
    p.add_argument("--lexicon", help="keyword lexicon override file")
    p.add_argument("--fps", type=float)
    p.add_argument("--frames", type=int, help="emit per-frame labels for this many frames")
    p.set_defaults(func=cmd_parse_notes)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _threads()  # a bad setting is reported whatever the command
        return args.func(args)
    except trainer.DivergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FloatingPointError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
