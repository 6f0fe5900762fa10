"""Every file src/phaseseg reads goes through one reader per input kind.

Text goes through annotate.open_text, which names a file that is not UTF-8;
feature files through synthgen.FeatureFile and model files through
mstcnpp.ModelFile, which check a header before any data is read; cli._sha256
reads inputs only to hash them. A second reader of the same bytes would need
its own copy of those checks; this test finds one by reading the source.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "phaseseg"

# module: the functions and classes inside which a file may be read
READERS = {"annotate.py": {"open_text"}, "cli.py": {"_sha256"},
           "synthgen.py": {"FeatureFile"}, "mstcnpp.py": {"ModelFile"}}


def _name(func):
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _reads(tree, readers=frozenset()):
    """The lines of tree, outside the definitions named in readers, that read
    a file: an open() or Path.open() whose mode is a read-only literal (or
    absent), read_bytes or read_text, or a numpy load, fromfile or memmap."""
    inside = {id(n) for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in readers
              for n in ast.walk(node)}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside:
            continue
        name = _name(node.func)
        receiver = getattr(node.func, "value", None)
        if name == "open":
            first = 1 if isinstance(node.func, ast.Name) else 0  # open(p, mode), p.open(mode)
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            modes += node.args[first:first + 1]
            if not modes or (isinstance(modes[0], ast.Constant)
                             and not set(modes[0].value) - set("rbt")):
                lines.append(node.lineno)
        elif name in ("read_bytes", "read_text") or (
                isinstance(receiver, ast.Name) and receiver.id in ("np", "numpy")
                and name in ("load", "fromfile", "memmap")):
            lines.append(node.lineno)
    return lines


def test_every_read_goes_through_its_reader():
    found, paths = {}, sorted(SRC.glob("*.py"))
    assert set(READERS) <= {path.name for path in paths}  # the glob found the package
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        readers = READERS.get(path.name, set())
        defined = {node.name: node for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in readers}
        # each named reader is still there and still reads
        assert set(defined) == readers and all(map(_reads, defined.values())), path.name
        lines = _reads(tree, readers)
        if lines:
            found[path.name] = lines
    assert not found, f"read outside the one reader of its kind: {found}"


def test_the_check_finds_reads():
    tree = ast.parse(
        "open(p, 'rb')\n"
        "open(p)\n"
        "p.open(mode='r')\n"
        "p.read_bytes()\n"
        "np.load(p)\n"
        "np.fromfile(p)\n"
        "open(p, 'wb')\n"
        "class ModelFile:\n"
        "    def __init__(self, p):\n"
        "        self._fh = open(p, 'rb')\n")
    assert sorted(_reads(tree)) == [1, 2, 3, 4, 5, 6, 10]
    assert sorted(_reads(tree, {"ModelFile"})) == [1, 2, 3, 4, 5, 6]
