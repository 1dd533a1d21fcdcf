"""Checks on the package as a whole."""
import importlib
import pkgutil

import defekt


def test_every_exported_name_resolves():
    modules = [info.name for info in pkgutil.iter_modules(defekt.__path__)]
    assert "universal" in modules
    for name in modules:
        module = importlib.import_module(f"defekt.{name}")
        for export in getattr(module, "__all__", ()):
            assert hasattr(module, export), f"defekt.{name}.{export}"
