#!/usr/bin/env python3
"""phaseseg benchmark: three workloads, end-to-end and traced per-layer metrics.

    python3 perfbench/run.py --workload train-bench --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --seed 0 --record perfbench/results/BENCH_baseline.json

Run it in a checkout: it uses the checkout's src/. One workload prints a table, writes a record
to perfbench/.work/ and ends with one JSON line: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. Without
--workload, every workload runs untraced and then traced, and the record
holds all of it. README.md describes the workloads and the metrics.

Each workload runs in child processes of its own (see workloads.py) with
OPENBLAS_NUM_THREADS=1 and PHASESEG_THREADS=2, and only numpy and the
standard library. The exit code is 0 when the benchmark ran, also when an
operation failed (the last line then says "correct": false), and 1 when it
could not run: no phaseseg source in this checkout, a set-up step failed,
or a child outlived its time.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

from workloads import BENCH, ROOT, WORKLOADS, BenchError, Loop, spawn

WORK = BENCH / ".work"
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0   # each workload run ends within this, set-up included


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _median(cycles: list, key: str) -> float:
    values = [c[key] for c in cycles if key in c]
    if not values:
        raise BenchError(f"no cycle produced {key}")
    return statistics.median(values)


def end_to_end(name: str, loop: Loop, cycles: list, setup: list) -> tuple[dict, dict]:
    """Metrics of BENCHMARK.json from the untraced cycles, and the per-workload report."""
    cycles = [c for c in cycles if not c["traced"]]
    metrics = {
        "cycle_s": _median(cycles, "cycle_s"),
        "frames_per_s": _median(cycles, "frames_per_s"),
        "peak_rss_mib": loop.peak_rss_mib,
        "setup_s": statistics.median(setup),
    }
    report = {"samples": (sum("cycle_s" in c for c in cycles), "count"),
              "failed_ops_ratio": (len(loop.failed_ops) / loop.attempted, "ratio"),
              "setup_s": (metrics["setup_s"], "s"), "peak_rss_mib": (metrics["peak_rss_mib"], "MiB")}
    if name == "train-bench":
        report.update(pipeline_s=(metrics["cycle_s"], "s"),
                      train_frames_per_s=(metrics["frames_per_s"], "frames/s"),
                      heldout_accuracy_pct=(_median(cycles, "none_accuracy_pct"), "%"),
                      accum_accuracy_pct=(_median(cycles, "accumulator_accuracy_pct"), "%"))
    elif name == "segment-paper":
        report.update(segment_s=(metrics["cycle_s"], "s"))
    else:
        report.update(train_frames_per_s=(metrics["frames_per_s"], "frames/s"))
    for key in ("train_frames", "epochs", "steps"):
        if any(key in c for c in cycles):
            report[f"{key}_per_cycle"] = (_median(cycles, key), "count")
    return metrics, report


def per_layer(loop: Loop, cycles: list) -> dict:
    """Per-layer metrics of BENCHMARK.json, per traced cycle."""
    traced = [c for c in cycles if c["traced"] and "cycle_s" in c]
    untraced = [c for c in cycles if not c["traced"] and "cycle_s" in c]
    if not traced or not untraced:
        raise BenchError("the traced run needs a traced and an untraced cycle")
    n = sum(c["traced"] for c in cycles)
    metrics = {f"{name}.self_s": self_s / n for name, (self_s, _) in loop.layers.items()}
    metrics["trainer.adamw_step.calls"] = loop.layers.get("trainer.adamw_step", (0, 0))[1] / n
    metrics.update({name: value if name == "mstcnpp.forward.cache_bytes" else value / n
                    for name, value in loop.counts.items()})
    for key in ("train_frames", "epochs", "steps"):
        metrics[f"trainer.fit.{key.removeprefix('train_')}"] = statistics.mean(
            c.get(key, 0) for c in traced)
    conv_s = metrics["seqcore.dilated_conv1d.self_s"]
    metrics["seqcore.dilated_conv1d.gflops_per_s"] = (
        metrics["seqcore.dilated_conv1d.gflop"] / conv_s if conv_s else 0.0)
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(c["cycle_s"] for c in traced)
        / statistics.median(c["cycle_s"] for c in untraced) - 1.0)
    return metrics


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    """Prepare, probe set-up five times, then run cycles for about `seconds`.
    Traced, cycles alternate untraced and traced."""
    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / name
    for old in (work, WORK / f"{name}-spans"):
        shutil.rmtree(old, ignore_errors=True)
    work.mkdir(parents=True)
    log = WORK / f"{name}_seed{seed}_trace{trace}.log"
    log.unlink(missing_ok=True)

    def child(args: list, capture: bool = False) -> str:
        proc = spawn(args, log, deadline, capture)
        if proc.returncode != 0:
            raise BenchError(f"{args[0]} exited {proc.returncode}; see {log}")
        return proc.stdout

    env = json.loads(child(["env"], capture=True))
    child(["prepare", name, "--seed", seed, "--work", work])
    setup = [float(child(["probe", name, "--work", work], capture=True))
             for _ in range(SETUP_PROBES)]

    spec, loop, cycles = WORKLOADS[name], Loop(work, log, deadline), []
    start = time.perf_counter()
    while True:
        loop.trace = bool(trace) and len(cycles) % 2 == 1
        t0 = time.perf_counter()
        result = spec.cycle(loop, work, seed)
        result.update(traced=loop.trace, wall_s=time.perf_counter() - t0)
        cycles.append(result)
        # a cycle starts only if it would end no more than half a cycle past `seconds`
        elapsed = time.perf_counter() - start
        if (elapsed + statistics.median(c["wall_s"] for c in cycles) / 2 > seconds
                and len(cycles) >= 1 + trace):
            break
    shutil.rmtree(work)

    metrics, report = end_to_end(name, loop, cycles, setup)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "env": env,
              "setup_probes_s": setup, "report": report, "attempted": loop.attempted,
              "failed": len(loop.failed_ops), "failures": loop.failures, "cycles": cycles}
    if trace:
        metrics = per_layer(loop, cycles)
        record["layers"] = {k: {"self_s": s, "calls": c} for k, (s, c) in loop.layers.items()}
    record["metrics"] = metrics
    return record


def _table(record: dict, units: dict) -> str:
    lines = [f"== {record['workload']} seed {record['seed']} trace {record['trace']}: "
             f"{record['attempted']} ops, {record['failed']} failed =="]
    for key, (value, unit) in record["report"].items():
        lines.append(f"  {key:<40} {value:>14.6g} {unit}")
    lines.append("  -- metrics --")
    for key, value in record["metrics"].items():
        lines.append(f"  {key:<40} {value:>14.6g} {units[key]}")
    for failure in record["failures"]:
        lines.append(f"  FAILED {failure}")
    env = record["env"]
    lines.append("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; without it every workload runs, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="also write the record here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "phaseseg" / "__init__.py").is_file():
        print(f"error: no phaseseg source under {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    spec = _spec()
    seconds = args.seconds or spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    runs = [(args.workload, args.trace)] if args.workload else \
        [(w, t) for w in WORKLOADS for t in (0, 1)]
    WORK.mkdir(exist_ok=True)
    records = []
    try:
        for name, trace in runs:
            record = run_workload(name, args.seed, seconds, trace)
            wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            if sorted(record["metrics"]) != sorted(wanted):
                raise BenchError(f"metrics differ from BENCHMARK.json: "
                                 f"{sorted(set(record['metrics']) ^ set(wanted))}")
            record["metrics"] = {k: record["metrics"][k] for k in wanted}
            records.append(record)
            print(_table(record, units), flush=True)
            path = WORK / f"BENCH_{name}_seed{args.seed}_trace{trace}.json"
            path.write_text(json.dumps(record, indent=1) + "\n")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(records, indent=1) + "\n")

    prefix = (lambda r, k: k) if args.workload else \
        (lambda r, k: f"{r['workload']}.{'traced.' if r['trace'] else ''}{k}")
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {prefix(r, k): {"value": v, "unit": units[k]}
                    for r in records for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
