"""Every file src/phaseseg writes goes through annotate.replacing.

replacing writes beside the target and renames onto it, so a write that
fails leaves the previous file or none. A writer that opens its target in
place can leave half a file; this test finds one by reading the source.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "phaseseg"


def _name(func):
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _mode(call):
    """The mode an open() or Path.open() call gives, "r" when it gives none."""
    first = 1 if isinstance(call.func, ast.Name) else 0  # open(path, mode), path.open(mode)
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[first:first + 1]
    if not modes:
        return "r"
    return modes[0].value if isinstance(modes[0], ast.Constant) else None


def _writes(tree):
    """The lines of tree that write a file other than through replacing: an
    open() whose mode is not a read-only literal, write_text or write_bytes,
    or a numpy save to anything but a handle replacing yields."""
    handles = {item.optional_vars.id for node in ast.walk(tree) if isinstance(node, ast.With)
               for item in node.items if isinstance(item.context_expr, ast.Call)
               and _name(item.context_expr.func) == "replacing"
               and isinstance(item.optional_vars, ast.Name)}
    inside = {id(n) for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "replacing"
              for n in ast.walk(node)}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside:
            continue
        name = _name(node.func)
        receiver = getattr(node.func, "value", None)
        numpy_save = (isinstance(receiver, ast.Name) and receiver.id in ("np", "numpy")
                      and name in ("save", "savez", "savez_compressed", "savetxt"))
        if name == "open":
            mode = _mode(node)
            if mode is None or set(mode) - set("rbt"):
                lines.append(node.lineno)
        elif name in ("write_text", "write_bytes", "tofile"):
            lines.append(node.lineno)
        elif numpy_save and not (node.args and isinstance(node.args[0], ast.Name)
                                 and node.args[0].id in handles):
            lines.append(node.lineno)
    return lines


def test_every_write_goes_through_replacing():
    found, writers = {}, 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        writers += source.count("replacing(")
        lines = _writes(ast.parse(source))
        if lines:
            found[path.name] = lines
    assert writers > 5  # the glob found the package, and its writers
    assert not found, f"written in place, not through annotate.replacing: {found}"


def test_the_check_finds_in_place_writes():
    tree = ast.parse(
        "open(p, 'w')\n"
        "open(p, mode='wb')\n"
        "p.open('a')\n"
        "p.write_text(s)\n"
        "np.save(p, a)\n"
        "with replacing(p, 'wb') as fh:\n"
        "    np.save(fh, a)\n"
        "open(p, 'rb')\n"
        "open(p)\n")
    assert sorted(_writes(tree)) == [1, 2, 3, 4, 5]
