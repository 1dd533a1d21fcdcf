"""Checks on the package as a whole."""
import ast
import importlib
import pkgutil
from pathlib import Path

import defekt


def test_every_exported_name_resolves():
    modules = [info.name for info in pkgutil.iter_modules(defekt.__path__)]
    assert "universal" in modules
    for name in modules:
        module = importlib.import_module(f"defekt.{name}")
        for export in getattr(module, "__all__", ()):
            assert hasattr(module, export), f"defekt.{name}.{export}"


def test_every_private_function_is_used():
    # a module-level ``def _x`` must be referenced somewhere in the package
    # outside its own body
    private, used = [], set()
    for path in Path(defekt.__path__[0]).glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            names = ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                     | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})
            if isinstance(node, ast.FunctionDef):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    private.append(node.name)
                names.discard(node.name)
            used |= names
    assert private
    assert [name for name in private if name not in used] == []
