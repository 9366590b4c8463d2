"""Config-check guard: every check of a config value is declared in its field.

A config field declares its type and bound once, and ``risae/config.py``
walks those declarations to raise ``ConfigInvalid``. A hand-written rule
elsewhere would be a second place to look for what a field accepts, so
``raise ConfigInvalid`` may appear outside ``config.py`` only in the
functions that read files from outside the program: a config or manifest
file, and a checkpoint whose recorded settings must match the config.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "risae"

# (module, function) that may raise ConfigInvalid, each a reader of an outside file
READERS = {
    ("harness", "_read_json_object"),
    ("harness", "rerun_from_manifest"),
    ("harness", "load_system"),
}


def config_raises() -> set[tuple[str, str]]:
    """(module, enclosing function) of every ``raise ConfigInvalid(...)``
    outside config.py; the function is "<module>" at the top level."""
    found = set()

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
            if name == "ConfigInvalid":
                found.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "config":
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "<module>")
    return found


def test_config_errors_come_from_the_declarations():
    stray = sorted(config_raises() - READERS)
    assert not stray, f"ConfigInvalid raised outside risae/config.py and the file readers: {stray}"


def test_every_reader_still_raises():
    # a reader that no longer raises ConfigInvalid leaves the list
    assert config_raises() >= READERS
