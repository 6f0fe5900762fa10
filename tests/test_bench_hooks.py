"""The names perfbench's tracer hooks into still exist in src/.

`perfbench/spans.py` wraps functions by name and reads forward-cache fields
by name; a refactor that drops one would fail only in a traced benchmark
run. This test reads that file (without importing it) and fails first.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import phaseseg
from phaseseg import mstcnpp

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_tree():
    return ast.parse(SPANS.read_text(encoding="utf-8"))


def _assigned(tree, name):
    """The literal value of a module-level assignment in spans.py."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS.name} no longer assigns {name}")


def test_timed_and_counted_functions_exist():
    tree = _spans_tree()
    timed = _assigned(tree, "TIMED")
    module, func = _assigned(tree, "COUNTED")
    named = [(mod, fn) for mod, fns in timed.items() for fn in fns] + [(module, func)]
    assert ("seqcore", "dilated_conv1d") in named
    missing = [f"{mod}.{fn}" for mod, fn in named
               if not callable(getattr(getattr(phaseseg, mod, None), fn, None))]
    assert not missing, f"traced by perfbench but gone from src/: {missing}"


def test_hooked_arguments_keep_their_positions():
    # _after_dilated_conv reads the input and kernel as args[0] and args[1];
    # _after_forward reads return_cache as args[2]
    params = list(inspect.signature(phaseseg.seqcore.dilated_conv1d).parameters)
    assert params[:2] == ["x", "weights"]
    assert list(inspect.signature(mstcnpp.forward).parameters)[2] == "return_cache"


def test_cache_fields_read_by_cache_bytes_exist():
    fn = next(node for node in ast.walk(_spans_tree())
              if isinstance(node, ast.FunctionDef) and node.name == "_cache_bytes")
    classes = {"cache": mstcnpp.ForwardCache, "sc": mstcnpp._StageCache,
               "lc": mstcnpp._LayerCache}
    reads = {(node.value.id, node.attr) for node in ast.walk(fn)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    assert {var for var, _ in reads} <= set(classes) | {"arr", "seen"}
    missing = [f"{var}.{attr}" for var, attr in sorted(reads) if var in classes
               and attr not in {f.name for f in dataclasses.fields(classes[var])}]
    assert ("lc", "h_in") in reads and not missing, \
        f"_cache_bytes reads fields gone from mstcnpp: {missing}"
