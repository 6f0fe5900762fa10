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
computes on PHASESEG_THREADS threads (default: the usable cores), with numpy's
BLAS held to one thread inside each forward, backward and AdamW step; results
depend on neither count. Every command runs inside one _Command: train, eval
and segment open one pool of those threads and one BLAS hold for the whole
command (mstcnpp.thread_pool), which init, forward, fit and evaluate reuse,
and one worker of it hashes the inputs while the command loads them. --out is
created once the hashes are in, so they hold the inputs as they were before
the command wrote anything; a command that fails stops the hashing. Every file
is written beside its target and renamed onto it (annotate.replacing), so a
failed command leaves the previous file or none. Once --out exists, leaving
the command writes manifest.json: the resolved configuration, input hashes,
artifacts and exit code (0 success, 2 input/validation error, 3 numeric
failure). eval and segment read feature files alike, one at a time (predict):
forward's stage-1 projection reads, checks and drops the rows a chunk at a
time, so a bad value found there still exits 2 before --out is made.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import resource
import sys
import threading
import time
from concurrent import futures
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
    with annotate.open_text(path) as fh:
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


_hash_stop = threading.local()  # .event: set when the command awaiting this thread's hashes fails


def _sha256(path: Path, buf: memoryview) -> str:
    """sha256 of the file at path, read through buf; raises CancelledError
    after a read once the thread's stop event (see _hash_stopping) is set."""
    stop = getattr(_hash_stop, "event", None) or threading.Event()
    h = hashlib.sha256()
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            if stop.is_set():
                raise futures.CancelledError(f"hashing {path} stopped")
            h.update(buf[:n])
    return h.hexdigest()


def _hash_inputs(paths) -> dict:
    """sha256 of every file of paths, a directory's files in sorted order,
    all read through one 256 KiB buffer."""
    buf = memoryview(bytearray(1 << 18))
    hashes = {}
    for p in paths:
        p = Path(p)
        if p.is_dir():
            for f in sorted(p.rglob("*")):
                if f.is_file():
                    hashes[str(f)] = _sha256(f, buf)
        elif p.is_file():
            hashes[str(p)] = _sha256(p, buf)
    return hashes


def _hash_stopping(stop: threading.Event, paths) -> dict:
    """_hash_inputs(paths) on a pool worker, stopped within one 256 KiB read
    once stop is set: a failed command does not wait for the rest."""
    _hash_stop.event = stop
    try:
        return _hash_inputs(paths)
    finally:
        del _hash_stop.event


def _blas() -> dict | None:
    """Name and version of the BLAS numpy was built with, or None where this
    numpy cannot report it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas["name"], "version": blas["version"]}
    except (TypeError, KeyError):  # an older show_config takes no mode argument
        return None


def write_manifest(run: _Command, exit_code: int) -> None:
    """Write run's manifest.json with the exit code main returns. The phases
    run.timer timed go under phase_s; times are in microseconds' precision,
    so the phases never sum past wall_clock_s."""
    manifest = {
        "command": run.args.command,
        "argv": run.argv,
        "config": run.cfg,
        "config_sources": run.sources,
        "environment": {"threads": run.threads,
                        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                        "numpy": np.__version__,
                        "blas": _blas(),
                        "tap_products": seqcore.tap_products()},
        "input_hashes": run.input_hashes,
        "artifacts": list(run.artifacts),
        "exit_code": exit_code,
        "phase_s": {phase: round(s, 6) for phase, s in run.seconds.items()},
        "wall_clock_s": round(time.perf_counter() - run.started, 6),
        # the process's high-water mark so far (Linux reports ru_maxrss in KiB)
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    with annotate.replacing(run.out() / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


# main's exit code for each exception a command ends on; main lets any other through
_EXIT_CODES = {EXIT_NUMERIC: (trainer.DivergenceError, FloatingPointError, OverflowError),
               EXIT_INPUT: (ValueError, OSError, MemoryError)}  # MemoryError: a setting too large


def _exit_code(exc: BaseException) -> int | None:
    return next((code for code, kinds in _EXIT_CODES.items() if isinstance(exc, kinds)), None)


class _Command:
    """One run of the command args names: `with _Command(args, argv) as run:`.
    Entering checks PHASESEG_THREADS (run.threads), resolves the settings
    (run.cfg, run.sources) and, for a command that computes, opens its one
    mstcnpp.thread_pool, whose worker, or else out(), hashes the command's
    inputs. Leaving the block once out() has created --out writes
    manifest.json with the exit code main returns."""

    def __init__(self, args: argparse.Namespace, argv: list[str]):
        self.args, self.argv = args, argv
        self.started, self.seconds = time.perf_counter(), {}  # seconds per phase
        self.artifacts: dict[str, None] = {}  # the paths written, in order, each once
        self.input_hashes = self._out = None

    def __enter__(self) -> _Command:
        self.threads = _threads()
        self.cfg, self.sources = resolve_config(self.args.defaults, self.args)
        inputs = [p for p in (getattr(self.args, role) for role in self.args.inputs) if p]
        self._hashes, pool = functools.partial(_hash_inputs, inputs), None
        with contextlib.ExitStack() as stack:
            if self.args.computes:
                pool = stack.enter_context(mstcnpp.thread_pool(self.threads))
            if pool is not None:  # one worker hashes from now on; out() waits for it
                stop = threading.Event()
                self._hashes = pool.submit(_hash_stopping, stop, inputs).result
                stack.callback(stop.set)
            self._stack = stack.pop_all()
        return self

    @contextlib.contextmanager
    def timer(self, phase: str):
        """Adds the block's seconds to phase's, which the manifest lists."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[phase] = self.seconds.get(phase, 0.0) + time.perf_counter() - start

    def out(self) -> Path:
        """--out, created on the first call once the input hashes are in, so a
        bad input leaves no directory and no output is hashed."""
        if self._out is None:
            with self.timer("hash"):
                self.input_hashes = self._hashes()
            self._out = Path(self.args.out)
            self._out.mkdir(parents=True, exist_ok=True)
        return self._out

    def write(self, name: str, writer) -> None:
        """writer(path) makes the artifact at --out/name through
        annotate.replacing and returns the paths it wrote, or None for path
        alone; the manifest lists them."""
        path = self.out() / name
        self.artifacts.update(dict.fromkeys(map(str, writer(path) or [path])))

    def __exit__(self, kind, exc, tb) -> None:
        self._stack.close()  # stops a hash still running, then closes the pool
        code = EXIT_OK if exc is None else _exit_code(exc)
        if self._out is not None and code is not None:
            write_manifest(self, code)


def _text(text: str):
    """A writer, for _Command.write, of text to its path."""
    def write(path):
        with annotate.replacing(path, "w") as fh:
            fh.write(text)
    return write


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


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where os.sysconf cannot say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name here
        return None


def cmd_gen_synth(run: _Command) -> None:
    cfg = run.cfg
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
    # every split is held in memory before any file is written: refuse, before
    # any work, splits whose float64 features at mean durations cannot fit
    n_sequences = cfg["n_train"] + cfg["n_val"] + cfg["n_test"]
    need = n_sequences * sum(scfg.duration_mean) * cfg["dim"] * 8
    memory = _physical_memory()
    if memory is not None and need > memory:
        raise ValueError(f"n_train + n_val + n_test = {n_sequences} sequences at dim = "
                         f"{cfg['dim']} "
                         f"need about {need / 2**30:.3g} GiB of features, more than the "
                         f"{memory / 2**30:.3g} GiB of physical memory")
    # every split is generated, and so checked, before any file is written
    splits = [(split, synthgen.generate(scfg, count,
                                        sequence_seed=cfg["seed"] * 3 + 100 + offset))
              for split, count, offset in (("train", cfg["n_train"], 0),
                                           ("val", cfg["n_val"], 1),
                                           ("test", cfg["n_test"], 2))]
    for split, sequences in splits:
        run.write(split, functools.partial(synthgen.save_dataset, sequences))
    print(f"wrote {cfg['n_train']}/{cfg['n_val']}/{cfg['n_test']} sequences under {run.out()}")


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


def cmd_train(run: _Command) -> None:
    cfg, sources = run.cfg, run.sources
    bce = cfg["loss"] == "bce"
    overridden = [key for key in ("gamma", "alpha_mode") if sources[key] != "default"]
    if bce and overridden:  # bce is focal with gamma 0 and uniform alpha
        raise ValueError(f"loss = bce fixes gamma = 0 and alpha_mode = uniform; "
                         f"do not also set {' or '.join(overridden)}")
    data_dir = Path(run.args.data)
    dtype = _DTYPES[cfg["precision"]]

    with run.timer("load"):
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
    model = mstcnpp.init(model_cfg, seed=cfg["seed"], dtype=dtype, threads=run.threads)
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
    model_path = run.out() / "model.bin"  # the data hashed before --out, perhaps in it
    try:
        with run.timer("fit"):  # which writes model.bin at each new best epoch
            report = trainer.fit(
                model, train_set, val_set, train_cfg,
                lambda best: run.write("model.bin", functools.partial(mstcnpp.save_model, best)),
                threads=run.threads)
    except trainer.DivergenceError as exc:  # keep the finished epochs; main exits 3
        run.write("train_report.json", _text(json.dumps(exc.report.as_dict(), indent=2)))
        if exc.report.best_epoch:  # 0 when no epoch was validated, so none saved
            print(f"kept {model_path}: epoch {exc.report.best_epoch}, the best validated",
                  file=sys.stderr)
        raise

    with run.timer("save"):
        run.write("train_report.json", _text(json.dumps(report.as_dict(), indent=2)))
    last = report.epochs[-1]
    print(f"stopped at epoch {report.stop_epoch} (best {report.best_epoch}); "
          f"val loss {last.val_loss:.4f}, val acc {100 * last.val_accuracy:.2f}%")
    print(f"model: {model_path}")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

EVAL_DEFAULTS = {
    "post": "none",
    "threshold": 30,
    "precision": "float32",  # inference only; float64 on request
}


def predict(run: _Command, model, path) -> tuple[np.ndarray, np.ndarray]:
    """Final-stage argmax timeline (raw) of the feature file at path and the
    final timeline: raw itself with post = none, else after the accumulator
    at run's threshold. Times the phases "load" (the header), "forward" (the
    rows, a chunk at a time) and "post"; an error in the file names it."""
    with run.timer("load"):
        features = synthgen.FeatureFile(path, model.dtype)
    with features, run.timer("forward"):
        try:
            probs = mstcnpp.forward(model, features, threads=run.threads)[-1]
        except seqcore.ShapeError as exc:  # the width check, which knows no file
            raise seqcore.ShapeError(f"{path}: {exc}") from None
    with run.timer("post"):
        raw = accumulator.argmax_decode(probs)
        return raw, (raw if run.cfg["post"] == "none"
                     else accumulator.smooth(raw, run.cfg["threshold"]))


def cmd_eval(run: _Command) -> None:
    with run.timer("load"):
        model = mstcnpp.load_model(Path(run.args.model), _DTYPES[run.cfg["precision"]])
        files = synthgen.sequence_files(run.args.data)
    n_classes = model.config.n_classes

    pooled = np.zeros((n_classes, n_classes), dtype=np.int64)
    segment_counts = []
    for npy, labels_csv in files:  # one sequence at a time, each read as segment reads its one
        _, pred = predict(run, model, npy)
        with run.timer("load"):
            labels = annotate.read_label_csv(labels_csv, total_frames=pred.size)
        with run.timer("post"):
            try:
                pooled += evalmetrics.confusion(labels, pred, n_classes)
            except ValueError as exc:  # labels beyond the model's classes
                raise ValueError(f"{labels_csv}: {exc}") from None
            segment_counts.append(evalmetrics.segment_count(pred))
    with run.timer("post"):
        rep = evalmetrics.report(pooled)

    payload = rep.as_dict()
    payload["confusion"] = pooled.tolist()
    payload["segment_counts"] = segment_counts
    payload["post"] = run.cfg["post"]
    table = evalmetrics.format_report(rep)
    run.out()  # the wait for the hashes is timed apart from the writes
    with run.timer("write"):
        run.write("report.json", _text(json.dumps(payload, indent=2)))
        run.write("report.txt", _text(table + "\n"))
    print(table)


# ---------------------------------------------------------------------------
# segment
# ---------------------------------------------------------------------------

SEGMENT_DEFAULTS = {
    "post": "accumulator",
    "threshold": 30,
    "precision": "float32",  # inference only; float64 on request
}


def cmd_segment(run: _Command) -> None:
    with run.timer("load"):  # the header alone: forward reads the stages in turn
        model = mstcnpp.ModelFile(Path(run.args.model), _DTYPES[run.cfg["precision"]])
    with model:
        raw, final = predict(run, model, run.args.ssl_features)

    run.out()  # the wait for the hashes is timed apart from the writes
    with run.timer("write"):
        run.write("phases.csv", functools.partial(annotate.write_label_csv, labels=final))
        run.write("ribbon.svg", functools.partial(evalmetrics.export_ribbon, raw, final))
    print(f"phase timeline: {run.out() / 'phases.csv'} ({final.size} frames, "
          f"{evalmetrics.segment_count(final)} segments)")


# ---------------------------------------------------------------------------
# parse-notes
# ---------------------------------------------------------------------------

NOTES_DEFAULTS = {
    "fps": 1.0,
    "frames": 0,   # 0 = boundaries only
}


def cmd_parse_notes(run: _Command) -> None:
    cfg, args = run.cfg, run.args
    ontology = annotate.PhaseOntology.from_file(args.lexicon) if args.lexicon \
        else annotate.PhaseOntology()
    notes = annotate.read_notes_file(Path(args.notes))
    boundaries = annotate.extract_boundaries(notes, ontology)
    if not boundaries:
        raise ValueError("no phases found in notes")
    # every frame index and the timeline are computed before any file is written
    frames = [annotate.seconds_to_frame(seconds, cfg["fps"]) for seconds, _ in boundaries]
    timeline = None
    if cfg["frames"] > 0:
        timeline = annotate.build_timeline(boundaries, cfg["frames"], cfg["fps"], ontology)

    rows = "".join(f"{frame},{phase}\n" for frame, (_, phase) in zip(frames, boundaries))
    run.write("boundaries.csv", _text("frame,phase_id\n" + rows))
    if timeline is not None:
        run.write("labels.csv", functools.partial(annotate.write_label_csv,
                                                  labels=timeline.labels))
    for seconds, phase in boundaries:
        print(f"{annotate.format_timestamp(seconds)}  {ontology.names[phase]}")


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """One --key-with-dashes flag per key of each command's defaults, read by
    _parse_value and checked in resolve_config as a config-file line is; the
    path arguments are listed by hand. No flag has a second, abbreviated
    spelling. Each command declares, for _Command, its defaults, the
    arguments that name its input files, and whether it computes on a pool."""
    parser = argparse.ArgumentParser(prog="phaseseg", allow_abbrev=False,
                                     description="surgical phase segmentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, defaults, what, inputs=(), computes=False):
        p = sub.add_parser(name, help=what, allow_abbrev=False)
        p.add_argument("--config", help="key = value settings file")
        p.add_argument("--out", required=True, help="output directory")
        for key, default in defaults.items():
            rule = SETTINGS.get(key, {})
            choices = rule.get("choices")
            p.add_argument("--" + key.replace("_", "-"), type=_parse_value,
                           metavar="{" + ",".join(choices) + "}" if choices else None,
                           help=f"{rule.get('help', '')} (default {default})".lstrip())
        p.set_defaults(func=func, defaults=defaults, inputs=inputs, computes=computes)
        return p

    command("gen-synth", cmd_gen_synth, GEN_DEFAULTS, "generate a synthetic dataset")

    p = command("train", cmd_train, TRAIN_DEFAULTS, "train a model on a dataset directory",
                inputs=("data",), computes=True)
    p.add_argument("--data", required=True, help="dataset dir with train/ and val/")

    p = command("eval", cmd_eval, EVAL_DEFAULTS, "evaluate a model on a dataset split",
                inputs=("model", "data"), computes=True)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="split directory (seq_*.npy)")

    p = command("segment", cmd_segment, SEGMENT_DEFAULTS, "segment one feature file",
                inputs=("model", "ssl_features"), computes=True)
    p.add_argument("--model", required=True)
    p.add_argument("--ssl-features", required=True,
                   help="pre-extracted per-frame embeddings (.npy, T x d)")

    p = command("parse-notes", cmd_parse_notes, NOTES_DEFAULTS,
                "extract weak labels from operative notes", inputs=("notes", "lexicon"))
    p.add_argument("--notes", required=True, help="JSON-lines notes file")
    p.add_argument("--lexicon", help="keyword lexicon override file")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        with _Command(args, argv) as run:
            args.func(run)
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        print(f"{'numeric failure' if code == EXIT_NUMERIC else 'error'}: {exc}", file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
