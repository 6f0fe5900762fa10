"""Call spans around the public phaseseg functions, kept in memory.

`Tracer.install()` replaces each traced function with a wrapper in every
loaded phaseseg module that holds it, so names bound with `from ... import`
(mstcnpp's seqcore primitives, trainer's `total_loss`, synthgen's CSV
helpers) are traced as well as module attributes. Every call records one
span: name, start, end and parent. Spans stay in lists until `save()` writes
them once, when the traced process ends.

The self time of a span is its duration minus the part of it that its child
spans cover. Children are merged as intervals, so the forwards that
`trainer.evaluate` runs on worker threads are subtracted once, not per
thread. A span opened on a worker thread with no open span of its own takes
the innermost open span of the main thread as its parent.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

import numpy as np

# module -> functions that get a span each
TIMED = {
    "seqcore": ("dilated_conv1d", "dilated_conv1d_backward", "conv1x1",
                "conv1x1_backward", "relu", "softmax_rows", "softmax_rows_backward"),
    "mstcnpp": ("forward", "backward", "load_model", "save_model"),
    "losses": ("total_loss", "focal_loss", "smoothing_loss"),
    "trainer": ("adamw_step", "evaluate", "fit"),
    "accumulator": ("smooth", "argmax_decode"),
    "evalmetrics": ("confusion", "report", "export_ribbon"),
    "annotate": ("write_label_csv", "read_label_csv"),
    "synthgen": ("generate", "save_dataset", "load_dataset"),
    "cli": ("write_manifest", "main"),
}
# called too often for a span each (tens of thousands of times per train call): counted only
COUNTED = ("seqcore", "as_matrix")


def _cache_bytes(cache) -> int:
    """Bytes held by the distinct arrays of a returned mstcnpp.ForwardCache."""
    seen = {}
    for sc in cache.stage_caches:
        arrays = [sc.stage_input, sc.final_h, sc.probs]
        for lc in sc.layer_caches:
            arrays += [lc.h_in, lc.pre_relu, lc.post_relu]
        for arr in arrays:
            seen[id(arr)] = arr.nbytes
    return sum(seen.values())


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{func}" for mod, funcs in TIMED.items() for func in funcs]
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.as_matrix_calls = 0
        self.conv_flop = 0
        self.conv_bytes = 0
        self.cache_bytes = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _span(self, name_id: int, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = (stack or self._main_stack or [-1])[-1]
            with self._lock:
                idx = len(self.span_name)
                self.span_name.append(name_id)
                self.span_parent.append(parent)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            stack.append(idx)
            self.span_start[idx] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _counted(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with self._lock:
                self.as_matrix_calls += 1
            return fn(*args, **kwargs)

        return counted

    def _after_dilated_conv(self, args, kwargs, out):
        # computed from the operand shapes, not measured: 2*T*Cout*Cin*k flop,
        # and input, kernel, bias and output moved once
        t_len, cin = np.shape(getattr(args[0], "data", args[0]))
        cout, _, k = np.shape(args[1])
        with self._lock:
            self.conv_flop += 2 * t_len * cout * cin * k
            self.conv_bytes += (t_len * cin + cout * cin * k + cout + t_len * cout) * out.itemsize

    def _after_forward(self, args, kwargs, result):
        if kwargs.get("return_cache", args[2] if len(args) > 2 else False):
            nbytes = _cache_bytes(result[1])
            with self._lock:
                self.cache_bytes = max(self.cache_bytes, nbytes)

    def install(self) -> None:
        """Wrap every traced function wherever a loaded phaseseg module holds it."""
        import phaseseg

        hooks = {"seqcore.dilated_conv1d": self._after_dilated_conv,
                 "mstcnpp.forward": self._after_forward}
        wrappers = {}
        for name_id, name in enumerate(self.names):
            mod, func = name.split(".")
            original = getattr(getattr(phaseseg, mod), func)
            wrappers[id(original)] = (original, self._span(name_id, original, hooks.get(name)))
        original = getattr(getattr(phaseseg, COUNTED[0]), COUNTED[1])
        wrappers[id(original)] = (original, self._counted(original))

        for name, module in list(sys.modules.items()):
            if name == "phaseseg" or name.startswith("phaseseg."):
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(module, attr, hit[1])

    def self_times(self) -> dict[str, tuple[float, int]]:
        """name -> (total self seconds, calls) over every recorded span."""
        start = np.asarray(self.span_start)
        end = np.asarray(self.span_end)
        covered = np.zeros(start.size)
        children: dict[int, list[int]] = {}
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                children.setdefault(parent, []).append(idx)
        for parent, kids in children.items():
            intervals = sorted(zip(start[kids].tolist(), end[kids].tolist()))
            total, lo, hi = 0.0, *intervals[0]
            for a, b in intervals[1:]:
                if a > hi:
                    total += hi - lo
                    lo, hi = a, b
                else:
                    hi = max(hi, b)
            covered[parent] = total + hi - lo
        self_s = end - start - covered
        names = np.asarray(self.span_name, dtype=np.int64)
        return {name: (float(self_s[names == i].sum()), int((names == i).sum()))
                for i, name in enumerate(self.names)}

    def totals(self) -> dict[str, float]:
        """Counts of this process: they repeat exactly for the same inputs."""
        return {
            "seqcore.as_matrix.calls": self.as_matrix_calls,
            "seqcore.dilated_conv1d.gflop": self.conv_flop / 1e9,
            "seqcore.dilated_conv1d.gbytes": self.conv_bytes / 1e9,
            "mstcnpp.forward.cache_bytes": self.cache_bytes,
            "trace.spans": len(self.span_name),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names),
                            name=np.asarray(self.span_name, dtype=np.int32),
                            parent=np.asarray(self.span_parent, dtype=np.int64),
                            start=np.asarray(self.span_start),
                            end=np.asarray(self.span_end))
