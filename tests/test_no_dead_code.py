"""Every top-level public function and class in src/phaseseg has a user in src/.

A definition that only tests reach is either given a caller or deleted; this
test keeps it that way.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "phaseseg"

# kept without a caller in src/: acceptance criteria 1 and 2 check it, and it
# stands for the paper's self-supervised contrastive pretraining
ALLOWED_UNREFERENCED = {"ntxent_loss"}


def test_every_public_definition_is_referenced_in_src():
    defined, referenced = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(node.name for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and not node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):  # from .module import name
                referenced.add(node.name)
    assert len(defined) > 20  # the glob found the package
    assert defined - referenced == ALLOWED_UNREFERENCED
