"""Every top-level function, class and module constant in src/phaseseg has a
user in src/.

A definition that only tests reach is either given a caller or deleted; this
test keeps it that way.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "phaseseg"

# kept without a caller in src/: acceptance criteria 1 and 2 check it, and it
# stands for the paper's self-supervised contrastive pretraining
ALLOWED_UNREFERENCED = {"ntxent_loss"}


def _scan():
    """(top-level functions and classes, module constants, names src/ reads).
    A module constant is a name assigned at a module's top level, dunders
    aside. A name is read where it is loaded, as a name or an attribute, or
    imported: a constant's own assignment does not read it."""
    definitions, constants, read = set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                constants.update(name.id for target in targets for name in ast.walk(target)
                                 if isinstance(name, ast.Name) and not name.id.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):  # from .module import name
                read.add(node.name)
    return definitions, constants, read


def test_every_public_definition_is_referenced_in_src():
    definitions, _, read = _scan()
    public = {name for name in definitions if not name.startswith("_")}
    assert len(public) > 20  # the glob found the package
    assert public - read == ALLOWED_UNREFERENCED


def test_every_private_definition_and_constant_is_read_in_src():
    definitions, constants, read = _scan()
    private = {name for name in definitions if name.startswith("_")}
    assert len(private) > 20 and len(constants) > 20  # the glob found the package
    assert (private | constants) - read == set()
