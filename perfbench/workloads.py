"""The three benchmark workloads and the child processes that run them.

`run.py` drives a workload through `Loop`; every CLI call, set-up step and
check that needs phaseseg runs in a child process started from this file
with PYTHONPATH set to the checkout's `src/` and the thread variables fixed:

    python3 perfbench/workloads.py prepare WORKLOAD --seed N --work DIR
    python3 perfbench/workloads.py probe WORKLOAD --work DIR
    python3 perfbench/workloads.py op --report FILE [--spans FILE] -- CLI-ARGS...
    python3 perfbench/workloads.py reload MODEL
    python3 perfbench/workloads.py env
    python3 perfbench/workloads.py make-reference

`prepare` writes a workload's inputs, `probe` times `import phaseseg` plus
the public loaders on them, `op` is one `phaseseg` CLI call (traced when
given --spans), `reload` checks that a trained paper model loads, `env`
prints the environment facts, and `make-reference` rewrites reference.json
from the current program.

Nothing beyond the standard library is imported at module level: the parent
stays light, and `probe` times the import of phaseseg (and numpy) itself.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SYNTH_BENCH_CFG = ROOT / "configs" / "synth-bench.cfg"
REFERENCE = BENCH / "reference.json"
THREADS = {"OPENBLAS_NUM_THREADS": "1", "PHASESEG_THREADS": "2"}

PAPER_FRAMES = 5400          # one recorded procedure at 1 fps
PAPER_DIM = 2048             # per-frame embedding width
PAPER_DURATIONS = (940, 1100, 2980, 380)   # frames per phase, sums to PAPER_FRAMES
SEGMENT_VARIANTS = 8         # segment-paper inputs with a stored reference; seed % 8 picks one
TRAIN_PAPER_FRAMES = 1350    # a quarter procedure; see README.md for the sizing
ACCURACY_BAR = 95.0          # held-out accuracy of acceptance criterion 3
THRESHOLD = "30"             # accumulator threshold, the package default
# Raw-argmax frames whose top-2 probability margin is below this are not compared:
# float32 inference moves probabilities by about 1e-7, so it cannot flip the others.
CLOSE_MARGIN = 1e-5


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def spawn(args: list, log: Path, deadline: float, capture: bool = False):
    """Run `workloads.py ARGS` to completion, killing it at the deadline (time.monotonic)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREADS)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for {args[0]}")
    with open(log, "a", encoding="utf-8") as fh:
        try:
            return subprocess.run([sys.executable, str(Path(__file__)), *map(str, args)],
                                  cwd=ROOT, env=env, stdout=subprocess.PIPE if capture else fh,
                                  stderr=fh, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{args[0]} did not end within {timeout:.0f}s; see {log}") from None


class Loop:
    """Closed loop with one client: each CLI call starts when the previous returns.

    An operation is one `phaseseg` CLI call in a process of its own, as a
    user runs it. It fails on a nonzero exit code or a failed output check;
    each failed call counts once. While `trace` is set, calls run traced and
    their per-layer totals are summed into `layers` and `counts`.
    """

    def __init__(self, work: Path, log: Path, deadline: float):
        self.work, self.log, self.deadline = work, log, deadline
        self.trace = False
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.failures: list[str] = []
        self.peak_rss_mib = 0.0
        self.layers: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}

    def call(self, argv: list[str]) -> tuple[int, float]:
        op = self.attempted
        self.attempted += 1
        report = self.work / f"op{op}.json"
        args = ["op", "--report", report]
        if self.trace:
            args += ["--spans", self.work.parent / f"{self.work.name}-spans" / f"op{op}.npz"]
        start = time.perf_counter()
        proc = spawn([*args, "--", *argv], self.log, self.deadline)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            self.fail(op, f"{argv[0]} exited {proc.returncode}")
        if report.exists():
            rep = json.loads(report.read_text())
            if not self.trace:
                self.peak_rss_mib = max(self.peak_rss_mib, rep["peak_rss_mib"])
            for name, (self_s, calls) in rep.get("layers", {}).items():
                total = self.layers.setdefault(name, [0.0, 0])
                total[0] += self_s
                total[1] += calls
            for name, value in rep.get("counts", {}).items():
                merge = max if name == "mstcnpp.forward.cache_bytes" else (lambda a, b: a + b)
                self.counts[name] = merge(self.counts.get(name, 0), value)
        return op, elapsed

    def check(self, op: int, ok: bool, what: str) -> bool:
        if not ok:
            self.fail(op, f"check failed: {what}")
        return ok

    def fail(self, op: int, message: str) -> None:
        self.failed_ops.add(op)
        self.failures.append(f"op {op}: {message}")

    def ok(self, op: int) -> bool:
        return op not in self.failed_ops


def _finite_losses(run_dir: Path) -> tuple[bool, int]:
    report = json.loads((run_dir / "train_report.json").read_text())
    values = [v for e in report["epochs"] for v in (e["train_total"], e["val_loss"])]
    return bool(values) and all(math.isfinite(v) for v in values), int(report["stop_epoch"])


def _split_frames(split_dir: Path) -> tuple[int, int]:
    """(sequences, frames) of a dataset split, from its per-frame label CSVs."""
    files = sorted(split_dir.glob("seq_*.csv"))
    frames = 0
    for path in files:
        with open(path, encoding="utf-8") as fh:
            frames += sum(1 for _ in fh) - 1
    return len(files), frames


def _accuracy_pct(eval_dir: Path) -> float:
    """Pooled frame accuracy from the eval confusion matrix, with all its digits."""
    confusion = json.loads((eval_dir / "report.json").read_text())["confusion"]
    total = sum(map(sum, confusion))
    return 100.0 * sum(confusion[i][i] for i in range(len(confusion))) / total


def _read_csv_column(path: Path, column: str) -> list[int]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [int(row[column]) for row in csv.DictReader(fh)]


def _runs(labels) -> list[list[int]]:
    """[[start_frame, phase], ...] for each maximal run of equal labels."""
    return [[t, int(p)] for t, p in enumerate(labels) if t == 0 or p != labels[t - 1]]


def _expand(runs: list[list[int]]) -> list[int]:
    ends = [start for start, _ in runs[1:]] + [PAPER_FRAMES]
    return [phase for (start, phase), end in zip(runs, ends) for _ in range(end - start)]


def _training(loop: Loop, op: int, train_s: float, data: Path, run: Path) -> dict:
    """Counts and rate of one successful train call; uniform sampling visits
    every training sequence once per epoch, one optimizer step each."""
    finite, epochs = _finite_losses(run)
    loop.check(op, finite, "training losses are finite")
    sequences, frames = _split_frames(data / "train")
    return {"train_s": train_s, "train_frames": frames * epochs, "epochs": epochs,
            "steps": sequences * epochs, "frames_per_s": frames * epochs / train_s}


# ---------------------------------------------------------------------------
# train-bench: gen-synth -> train -> eval x2 at configs/synth-bench.cfg
# ---------------------------------------------------------------------------

class TrainBench:
    @staticmethod
    def prepare(work: Path, seed: int) -> None:
        from phaseseg import cli

        if cli.main(["gen-synth", "--seed", str(seed), "--out", str(work / "setup-data")]) != 0:
            raise SystemExit("gen-synth failed")

    @staticmethod
    def probe(work: Path) -> None:
        from phaseseg import synthgen

        for split in ("train", "val", "test"):
            synthgen.load_dataset(work / "setup-data" / split)

    @staticmethod
    def cycle(loop: Loop, work: Path, seed: int) -> dict:
        d = work / "cycle"
        shutil.rmtree(d, ignore_errors=True)
        data, run = d / "data", d / "run"
        start = time.perf_counter()
        op, _ = loop.call(["gen-synth", "--seed", str(seed), "--out", str(data)])
        if not loop.ok(op):
            return {}
        op, train_s = loop.call(["train", "--data", str(data), "--out", str(run),
                                 "--config", str(SYNTH_BENCH_CFG), "--seed", str(seed)])
        if not loop.ok(op):
            return {}
        out = _training(loop, op, train_s, data, run)
        for post in ("none", "accumulator"):
            eval_dir = d / f"eval-{post}"
            op, _ = loop.call(["eval", "--model", str(run / "model.bin"),
                               "--data", str(data / "test"), "--out", str(eval_dir),
                               "--post", post, "--threshold", THRESHOLD])
            if not loop.ok(op):
                return {}
            out[f"{post}_accuracy_pct"] = _accuracy_pct(eval_dir)
            if post == "none":
                loop.check(op, out["none_accuracy_pct"] >= ACCURACY_BAR,
                           f"held-out accuracy {out['none_accuracy_pct']:.2f}% >= {ACCURACY_BAR}%")
        out["cycle_s"] = time.perf_counter() - start
        return out


# ---------------------------------------------------------------------------
# segment-paper: one paper-length sequence through the paper architecture
# ---------------------------------------------------------------------------

def _write_segment_inputs(work: Path, variant: int) -> None:
    """Seed-initialised paper-architecture model and one paper-length sequence.

    Weights and features come from the benchmark's own generator, so the
    stored reference depends only on the forward pass, the accumulator and
    the CLI, not on how mstcnpp.init or synthgen draw random numbers.
    """
    import numpy as np
    from phaseseg import mstcnpp

    rng = np.random.default_rng(1000 + variant)
    model = mstcnpp.init(mstcnpp.StageConfig(in_dim=PAPER_DIM), seed=0)
    for _, param in mstcnpp.named_parameters(model):
        if param.ndim == 1:
            param[...] = 0.0
        else:
            limit = 1.0 / math.sqrt(math.prod(param.shape[1:]))
            param[...] = rng.uniform(-limit, limit, size=param.shape)
    mstcnpp.save_model(model, work / "model.bin")
    del model

    centers = np.linalg.qr(rng.normal(size=(PAPER_DIM, len(PAPER_DURATIONS))))[0].T
    labels = np.repeat(np.arange(len(PAPER_DURATIONS)), PAPER_DURATIONS)
    features = centers[labels] + rng.normal(0.0, 0.35, size=(PAPER_FRAMES, PAPER_DIM))
    np.save(work / "features.npy", features.astype(np.float32))


class SegmentPaper:
    @staticmethod
    def prepare(work: Path, seed: int) -> None:
        _write_segment_inputs(work, seed % SEGMENT_VARIANTS)

    @staticmethod
    def probe(work: Path) -> None:
        import numpy as np
        from phaseseg import mstcnpp

        mstcnpp.load_model(work / "model.bin")
        np.load(work / "features.npy")

    @staticmethod
    def segment(loop: Loop, work: Path, out_dir: Path) -> tuple[int, float]:
        return loop.call(["segment", "--model", str(work / "model.bin"),
                          "--ssl-features", str(work / "features.npy"),
                          "--out", str(out_dir), "--post", "accumulator",
                          "--threshold", THRESHOLD])

    @staticmethod
    def cycle(loop: Loop, work: Path, seed: int) -> dict:
        d = work / "seg"
        shutil.rmtree(d, ignore_errors=True)
        op, segment_s = SegmentPaper.segment(loop, work, d)
        if not loop.ok(op):
            return {}
        frames = _read_csv_column(d / "phases.csv", "frame")
        final = _read_csv_column(d / "phases.csv", "phase_id")
        raw = _read_csv_column(d / "ribbon.csv", "gt")   # the ribbon's first track is the raw argmax
        ref = json.loads(REFERENCE.read_text())["variants"][str(seed % SEGMENT_VARIANTS)]
        close = set(ref["close_frames"])
        loop.check(op, frames == list(range(PAPER_FRAMES)), "timeline covers every frame")
        loop.check(op, {b - a for a, b in zip(final, final[1:])} <= {0, 1}
                   and all(0 <= p < 4 for p in final), "timeline is monotone with unit steps")
        loop.check(op, _runs(final) == ref["final"], "timeline equals the stored reference")
        loop.check(op, len(raw) == PAPER_FRAMES and all(
            p == q for t, (p, q) in enumerate(zip(raw, _expand(ref["raw"]))) if t not in close),
            "raw argmax equals the stored reference")
        return {"cycle_s": segment_s, "frames_per_s": PAPER_FRAMES / segment_s}


def make_reference() -> None:
    """Rewrite reference.json with the current program's segment outputs."""
    import numpy as np
    from phaseseg import accumulator, mstcnpp

    variants = {}
    work = BENCH / ".work" / "reference"
    for v in range(SEGMENT_VARIANTS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        _write_segment_inputs(work, v)
        loop = Loop(work, work / "log", time.monotonic() + 600)
        op, _ = SegmentPaper.segment(loop, work, work / "seg")
        if not loop.ok(op):
            raise SystemExit(f"variant {v}: {loop.failures}")
        probs = mstcnpp.forward(mstcnpp.load_model(work / "model.bin"),
                                np.load(work / "features.npy").astype(np.float64))[-1]
        top2 = np.sort(probs, axis=1)[:, -2:]
        margin = top2[:, 1] - top2[:, 0]
        final = _read_csv_column(work / "seg" / "phases.csv", "phase_id")
        raw = _read_csv_column(work / "seg" / "ribbon.csv", "gt")
        if raw != accumulator.argmax_decode(probs).tolist():
            raise SystemExit(f"variant {v}: segment's raw argmax differs from forward()")
        variants[str(v)] = {"final": _runs(final), "raw": _runs(raw),
                            "min_top2_margin": float(margin.min()),
                            "close_frames": np.flatnonzero(margin < CLOSE_MARGIN).tolist()}
        print(f"variant {v}: {len(variants[str(v)]['raw'])} raw runs, margin {margin.min():.3g}, "
              f"{len(variants[str(v)]['close_frames'])} close frames", flush=True)
    shutil.rmtree(work)
    REFERENCE.write_text(json.dumps({"frames": PAPER_FRAMES, "threshold": int(THRESHOLD),
                                     "close_margin": CLOSE_MARGIN, "variants": variants}) + "\n")


# ---------------------------------------------------------------------------
# train-paper: one epoch at the package-default paper architecture
# ---------------------------------------------------------------------------

class TrainPaper:
    @staticmethod
    def prepare(work: Path, seed: int) -> None:
        from phaseseg import synthgen

        base = synthgen.SynthConfig()
        scale = TRAIN_PAPER_FRAMES / sum(base.duration_mean)
        cfg = synthgen.SynthConfig(dim=PAPER_DIM, seed=seed,
                                   duration_mean=tuple(m * scale for m in base.duration_mean),
                                   duration_std=(0.0,) * base.n_phases)
        for split, offset in (("train", 0), ("val", 1)):
            synthgen.save_dataset(synthgen.generate(cfg, 1, sequence_seed=3 * seed + offset),
                                  work / "data" / split)

    @staticmethod
    def probe(work: Path) -> None:
        from phaseseg import synthgen

        for split in ("train", "val"):
            synthgen.load_dataset(work / "data" / split)

    @staticmethod
    def cycle(loop: Loop, work: Path, seed: int) -> dict:
        data, run = work / "data", work / "run"
        shutil.rmtree(run, ignore_errors=True)
        op, train_s = loop.call(["train", "--data", str(data), "--out", str(run),
                                 "--epochs", "1", "--seed", str(seed)])
        if not loop.ok(op):
            return {}
        out = _training(loop, op, train_s, data, run)
        reload = spawn(["reload", run / "model.bin"], loop.log, loop.deadline)
        loop.check(op, reload.returncode == 0, "model.bin reloads with the paper architecture")
        out["cycle_s"] = train_s
        return out


WORKLOADS = {"train-bench": TrainBench, "segment-paper": SegmentPaper,
             "train-paper": TrainPaper}


# ---------------------------------------------------------------------------
# child entry points
# ---------------------------------------------------------------------------

def env_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "PHASESEG_THREADS": os.environ.get("PHASESEG_THREADS"),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
    }


def op(argv: list[str], report: Path, spans: Path | None) -> int:
    """One CLI call; writes its peak RSS and, traced, its per-layer totals."""
    from phaseseg import cli

    tracer = None
    if spans is not None:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    rc = cli.main(argv)
    out = {"rc": rc, "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        out["layers"] = tracer.self_times()
        out["counts"] = tracer.totals()
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.save(spans)
    report.write_text(json.dumps(out))
    return rc


def reload(model_path: Path) -> int:
    from phaseseg import mstcnpp

    model = mstcnpp.load_model(model_path)
    return 0 if model.config == mstcnpp.StageConfig(in_dim=PAPER_DIM) else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["op"]:
        split = argv.index("--")
        parser = argparse.ArgumentParser(prog="workloads.py op")
        parser.add_argument("--report", type=Path, required=True)
        parser.add_argument("--spans", type=Path)
        args = parser.parse_args(argv[1:split])
        return op(argv[split + 1:], args.report, args.spans)

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("action", choices=("prepare", "probe", "reload", "env", "make-reference"))
    parser.add_argument("target", nargs="?")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work", type=Path)
    args = parser.parse_args(argv)
    if args.action == "make-reference":
        make_reference()
    elif args.action == "reload":
        return reload(Path(args.target))
    elif args.action == "env":
        print(json.dumps(env_facts()))
    elif args.action == "prepare":
        args.work.mkdir(parents=True, exist_ok=True)
        WORKLOADS[args.target].prepare(args.work, args.seed)
    else:
        start = time.perf_counter()
        import phaseseg  # noqa: F401
        WORKLOADS[args.target].probe(args.work)
        print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
