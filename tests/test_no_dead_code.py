"""Dead-code guard: every top-level name in src/risae has a user in the program.

A top-level function, class or constant of ``src/risae/*.py`` counts as used
when its name is loaded, imported or spelled as a string constant anywhere
in ``src/risae/`` or ``perfbench/`` (the benchmark wraps functions by name).
Tests do not count: nothing in ``src/`` should exist only so that a test can
call it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "risae"
PROGRAM_FILES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))

# (module, name): why the name stays without a caller in the program
EXEMPT = {
    ("attack", "load_perturbation"): "reads back the file `risae attack --out` writes",
}


def top_level_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def program_uses() -> set[str]:
    used = set()
    for path in PROGRAM_FILES:
        used |= used_names(ast.parse(path.read_text(encoding="utf-8")))
    return used


def test_every_top_level_name_has_a_program_user():
    used = program_uses()
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name in top_level_names(ast.parse(path.read_text(encoding="utf-8"))):
            if name not in used and (path.stem, name) not in EXEMPT:
                dead.append(f"{path.stem}.{name}")
    assert not dead, f"top-level names with no user in src/risae or perfbench: {dead}"


def test_exemptions_are_still_needed():
    # an exempt name that gained a user, or was deleted, leaves the list
    used = program_uses()
    for module, name in EXEMPT:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        assert name in top_level_names(tree)
        assert name not in used
