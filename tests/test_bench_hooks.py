"""The names perfbench's tracer hooks into, and the ones its workloads call,
still exist in src/.

`perfbench/spans.py` wraps functions by name and reads forward-cache fields
by name, and `perfbench/workloads.py` calls library functions, classes and
keyword arguments by name; a refactor that drops one would fail only in a
benchmark run. These tests read those files (without importing them) and
fail first.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import phaseseg
from phaseseg import mstcnpp

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
WORKLOADS = SPANS.with_name("workloads.py")


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


def test_library_names_called_by_workloads_exist():
    # every phaseseg.<module>.<name>(...) call in workloads.py, its keyword
    # arguments, and the attributes it reads on an object such a call made
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "phaseseg"
               for alias in node.names}
    made = {}  # variable -> the phaseseg class whose instance it holds
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and isinstance(node.value.func.value, ast.Name)
                and node.value.func.value.id in modules):
            cls = getattr(getattr(phaseseg, node.value.func.value.id), node.value.func.attr, None)
            if inspect.isclass(cls):
                made.update({t.id: cls for t in node.targets if isinstance(t, ast.Name)})
    used, missing = set(), []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)):
            continue
        var, attr = node.value.id, node.attr
        if var in made:
            cls = made[var]
            used.add(f"{cls.__name__}.{attr}")
            if attr not in {f.name for f in dataclasses.fields(cls)} and not hasattr(cls, attr):
                missing.append(f"{cls.__name__}.{attr}")
        elif var in modules:
            used.add(f"{var}.{attr}")
            if not callable(getattr(getattr(phaseseg, var), attr, None)):
                missing.append(f"{var}.{attr}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in modules):
            fn = getattr(getattr(phaseseg, node.func.value.id), node.func.attr, None)
            params = inspect.signature(fn).parameters if callable(fn) else {}
            for kw in node.keywords:
                used.add(f"{node.func.value.id}.{node.func.attr}({kw.arg}=)")
                if kw.arg not in params:
                    missing.append(f"{node.func.value.id}.{node.func.attr}({kw.arg}=)")
    assert {"mstcnpp.named_parameters", "mstcnpp.init", "mstcnpp.save_model",
            "mstcnpp.load_model", "mstcnpp.forward", "mstcnpp.StageConfig(in_dim=)",
            "synthgen.SynthConfig(dim=)", "synthgen.SynthConfig(seed=)",
            "synthgen.SynthConfig(duration_mean=)", "synthgen.SynthConfig(duration_std=)",
            "SynthConfig.duration_mean", "SynthConfig.n_phases",
            "synthgen.generate(sequence_seed=)", "synthgen.save_dataset",
            "synthgen.load_dataset", "accumulator.argmax_decode", "cli.main"} <= used
    assert not missing, f"called by perfbench/workloads.py but gone from src/: {missing}"
