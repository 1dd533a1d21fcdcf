"""Checks on the package as a whole."""
import ast
import contextlib
import importlib
import io
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import defekt
from defekt.exactla import QQ, Matrix, PrimeField


def test_every_exported_name_resolves():
    modules = [info.name for info in pkgutil.iter_modules(defekt.__path__)]
    assert "universal" in modules
    for name in modules:
        module = importlib.import_module(f"defekt.{name}")
        for export in getattr(module, "__all__", ()):
            assert hasattr(module, export), f"defekt.{name}.{export}"


def test_every_private_function_is_used():
    # a module-level ``def _x``, or a method ``_x`` of a module-level class,
    # must be referenced somewhere in the package outside its own body
    private, used = [], set()
    for path in Path(defekt.__path__[0]).glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            owner, units = "", [node]
            if isinstance(node, ast.ClassDef):
                owner, units = f"{node.name}.", node.body + node.decorator_list + node.bases
            for unit in units:
                names = ({n.id for n in ast.walk(unit) if isinstance(n, ast.Name)}
                         | {n.attr for n in ast.walk(unit) if isinstance(n, ast.Attribute)})
                if isinstance(unit, ast.FunctionDef):
                    if unit.name.startswith("_") and not unit.name.startswith("__"):
                        private.append((owner + unit.name, unit.name))
                    names.discard(unit.name)
                used |= names
    assert any("." in full for full, _ in private)
    assert [full for full, name in private if name not in used] == []


def test_no_module_raises_the_base_error():
    # every domain failure raises a subclass of DefektError with its own code
    raised = []
    for path in Path(defekt.__path__[0]).glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
                raised.append((path.name, node.lineno, name))
    assert len(raised) > 50
    assert [r for r in raised if r[2] == "DefektError"] == []


def test_raw_guard_refuses_what_is_not_canonical(raw_guard):
    # the corpora in conftest.RAW_GUARDED build every Matrix._raw under this
    # guard; it takes canonical ints and refuses anything else
    assert Matrix._raw(QQ, (1, 2), 3, 1, 2) == Matrix(QQ, [[Fraction(1, 3), Fraction(2, 3)]])
    for num, den, rows, cols in [((2, 4), 2, 1, 2), ((1, 2), -3, 1, 2),
                                 ((1,), 1, 1, 2), ([1, 2], 3, 1, 2)]:
        with pytest.raises(AssertionError):
            Matrix._raw(QQ, num, den, rows, cols)
    with pytest.raises(AssertionError):
        Matrix._raw(PrimeField(7), (8,), 1, 1, 1)
    assert len(raw_guard) == 1


def test_slotted_classes_stay_slotted():
    # a subclass of a slotted class that declares no __slots__ of its own
    # gets a __dict__ on every instance
    seen = 0
    for info in pkgutil.iter_modules(defekt.__path__):
        module = importlib.import_module(f"defekt.{info.name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and cls.__module__ == module.__name__
                    and any("__slots__" in vars(b) for b in cls.__mro__[1:])):
                seen += 1
                assert "__slots__" in vars(cls), cls.__qualname__
    assert seen >= 3


def test_readme_quick_start_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block.split("```", 1)[0], {})
    assert out.getvalue().splitlines() == ["(2, 1, 1)", "True"]
