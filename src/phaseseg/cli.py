"""Command-line entry point.

Subcommands cover the full workflow on synthetic or pre-extracted features:

  gen-synth    write train/val/test splits of synthetic embedding sequences
  train        fit a multi-stage model on a dataset directory
  eval         score a model on a split, optionally with the accumulator
  segment      run inference on one feature file, emit CSV + ribbon
  parse-notes  turn timestamped operative notes into label files

Every command resolves its settings as CLI flag > config file > default.
A flag and a config-file line are read by one parse and checked against one
table of rules (SETTINGS), so a value acts the same either way. Every command
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

from . import accumulator, annotate, evalmetrics, mstcnpp, seqcore, synthgen, trainer

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
    """A flag's or config line's text as int, float, bool or else string;
    resolve_config checks it against the setting."""
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


_DTYPES = {"float64": np.float64, "float32": np.float32}

# Each setting's rule beyond its default's type, the same in every command
# that takes the key (a command's *_DEFAULTS give its keys and defaults): the
# allowed strings, the least integer, help text for --help.
SETTINGS = {
    "seed": {"min": 0},
    "n_train": {"min": 1},
    "n_val": {"min": 1},
    "n_test": {"min": 1},
    "boundary_blur": {"min": 0},
    "loss": {"choices": ("bce", "focal")},
    "alpha_mode": {"choices": trainer.ALPHA_MODES},
    "lambda_smooth": {"help": "temporal smoothing weight"},
    "sampling": {"choices": trainer.SAMPLING_MODES},
    "fuse_mode": {"choices": mstcnpp.FUSE_MODES},
    "precision": {"choices": tuple(_DTYPES), "help": "compute precision"},
    "post": {"choices": ("none", "accumulator")},
    "threshold": {"min": 1},
    "frames": {"min": 0, "help": "emit per-frame labels for this many frames"},
}

_KINDS = {int: "an integer", float: "a finite number", bool: "true or false"}


def _checked(key: str, default, value):
    """value as a setting of its default's type that keeps the key's rule, or
    ValueError naming the key. An integer given to a float setting becomes a
    float, so a flag and a config line record the same value."""
    rule = SETTINGS.get(key, {})
    if type(default) is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ValueError(f"{key} must be a finite number, got an integer "
                             f"beyond the float range") from None
    if "choices" in rule:
        if value not in rule["choices"]:
            raise ValueError(f"{key} must be one of {rule['choices']}, got {value!r}")
    elif type(value) is not type(default) or (type(value) is float and not math.isfinite(value)):
        raise ValueError(f"{key} must be {_KINDS[type(default)]}, got {value!r}")
    elif type(value) is int and value >= 2**63:  # past numpy's int64: name the key here
        raise ValueError(f"{key} must be an integer below 2**63")
    elif "min" in rule and value < rule["min"]:
        raise ValueError(f"{key} must be >= {rule['min']}, got {value}")
    return value


def resolve_config(defaults: dict, args: argparse.Namespace) -> tuple[dict, dict]:
    """Apply precedence CLI flag > config file > default, check each value
    against its setting; track provenance."""
    file_cfg = {}
    if getattr(args, "config", None):
        file_cfg = read_config_file(args.config)
    resolved, sources = {}, {}
    for key, default in defaults.items():
        value, sources[key] = default, "default"
        if key in file_cfg:
            value, sources[key] = file_cfg[key], "config-file"
        flag = getattr(args, key, None)
        if flag is not None:
            value, sources[key] = flag, "flag"
        resolved[key] = _checked(key, default, value)
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
                        "blas": _blas(),
                        "tap_products": seqcore.tap_products()},
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
    if cfg["sellar_closure_confusability"]:
        conf = np.zeros((4, 4))
        conf[2, 3] = conf[3, 2] = cfg["sellar_closure_confusability"]
        conf = tuple(map(tuple, conf))
    scfg = synthgen.SynthConfig(
        dim=cfg["dim"],
        noise_sigma=cfg["noise_sigma"],
        label_noise=cfg["label_noise"],
        boundary_blur=cfg["boundary_blur"],
        confusability=conf,
        include_all_phases=cfg["include_all_phases"],
        seed=cfg["seed"],
    )
    # every split is generated, and so checked, before any file is written
    splits = [(split, synthgen.generate(scfg, count,
                                        sequence_seed=cfg["seed"] * 3 + 100 + offset))
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
    "precision": "float32",  # float64, the oracle, on request
}


def cmd_train(args) -> int:
    started = time.perf_counter()
    cfg, sources = resolve_config(TRAIN_DEFAULTS, args)
    bce = cfg["loss"] == "bce"
    overridden = [key for key in ("gamma", "alpha_mode") if sources[key] != "default"]
    if bce and overridden:  # bce is focal with gamma 0 and uniform alpha
        raise ValueError(f"loss = bce fixes gamma = 0 and alpha_mode = uniform; "
                         f"do not also set {' or '.join(overridden)}")
    data_dir = Path(args.data)
    out_dir = Path(args.out)
    dtype = _DTYPES[cfg["precision"]]
    timer = PhaseTimer()

    with timer("load"):
        train_set = synthgen.load_dataset(data_dir / "train", dtype=dtype)
        val_set = synthgen.load_dataset(data_dir / "val", dtype=dtype)

    model_cfg = mstcnpp.StageConfig(
        in_dim=train_set[0][0].shape[1],
        channels=cfg["channels"],
        n_classes=cfg["n_classes"],
        stages=cfg["stages"],
        layers_prediction=cfg["layers_prediction"],
        layers_refinement=cfg["layers_refinement"],
        fuse_mode=cfg["fuse_mode"],
    )
    model = mstcnpp.init(model_cfg, seed=cfg["seed"], dtype=dtype)
    train_cfg = trainer.TrainConfig(
        epochs=cfg["epochs"],
        learning_rate=cfg["lr"],
        smoothing_weight=cfg["lambda_smooth"],
        patience=cfg["patience"],
        seed=cfg["seed"],
        weight_decay=cfg["weight_decay"],
        sampling=cfg["sampling"],
        gamma=0.0 if bce else cfg["gamma"],
        alpha_mode="uniform" if bce else cfg["alpha_mode"],
    )
    trainer.check_splits(model_cfg, train_set, val_set)
    out_dir.mkdir(parents=True, exist_ok=True)  # the inputs checked: a bad one leaves no directory
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


def predict(model, x, cfg: dict, threads: int, timer: PhaseTimer) -> tuple[np.ndarray, np.ndarray]:
    """Final-stage argmax timeline (raw) and the final timeline: raw itself
    with post = none, else after the accumulator at cfg's threshold; times the
    "forward" and "post" phases."""
    with timer("forward"):
        probs = mstcnpp.forward(model, x, threads=threads)[-1]
    with timer("post"):
        raw = accumulator.argmax_decode(probs)
        return raw, raw if cfg["post"] == "none" else accumulator.smooth(raw, cfg["threshold"])


def cmd_eval(args) -> int:
    started = time.perf_counter()
    cfg, sources = resolve_config(EVAL_DEFAULTS, args)
    dtype = _DTYPES[cfg["precision"]]
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
        _, pred = predict(model, features, cfg, threads, timer)
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
    dtype = _DTYPES[cfg["precision"]]
    model_path = Path(args.model)
    feat_path = Path(args.ssl_features)
    out_dir = Path(args.out)
    timer = PhaseTimer()

    with timer("load"):
        model = mstcnpp.load_model(model_path, dtype=dtype)
        features = synthgen.load_features(feat_path, dtype)
    raw, final = predict(model, features, cfg, _threads(), timer)

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
    frames = [annotate.seconds_to_frame(seconds, cfg["fps"]) for seconds, _ in boundaries]
    timeline = None
    if cfg["frames"] > 0:
        timeline = annotate.build_timeline(boundaries, cfg["frames"], cfg["fps"], ontology)

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
    """One --key-with-dashes flag per key of each command's defaults, read by
    _parse_value and checked in resolve_config as a config-file line is; the
    path arguments are listed by hand. No flag has a second, abbreviated
    spelling."""
    parser = argparse.ArgumentParser(prog="phaseseg", allow_abbrev=False,
                                     description="surgical phase segmentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, defaults, what):
        p = sub.add_parser(name, help=what, allow_abbrev=False)
        p.add_argument("--config", help="key = value settings file")
        p.add_argument("--out", required=True, help="output directory")
        for key, default in defaults.items():
            rule = SETTINGS.get(key, {})
            choices = rule.get("choices")
            p.add_argument("--" + key.replace("_", "-"), type=_parse_value,
                           metavar="{" + ",".join(choices) + "}" if choices else None,
                           help=f"{rule.get('help', '')} (default {default})".lstrip())
        p.set_defaults(func=func)
        return p

    command("gen-synth", cmd_gen_synth, GEN_DEFAULTS, "generate a synthetic dataset")

    p = command("train", cmd_train, TRAIN_DEFAULTS, "train a model on a dataset directory")
    p.add_argument("--data", required=True, help="dataset dir with train/ and val/")

    p = command("eval", cmd_eval, EVAL_DEFAULTS, "evaluate a model on a dataset split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="split directory (seq_*.npy)")

    p = command("segment", cmd_segment, SEGMENT_DEFAULTS, "segment one feature file")
    p.add_argument("--model", required=True)
    p.add_argument("--ssl-features", required=True,
                   help="pre-extracted per-frame embeddings (.npy, T x d)")

    p = command("parse-notes", cmd_parse_notes, NOTES_DEFAULTS,
                "extract weak labels from operative notes")
    p.add_argument("--notes", required=True, help="JSON-lines notes file")
    p.add_argument("--lexicon", help="keyword lexicon override file")
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
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: a setting too large
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
