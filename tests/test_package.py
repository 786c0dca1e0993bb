"""The package's public names are its modules' __all__, declared once.

postlie re-exports the __all__ of each of its nine library modules (the CLI
is not re-exported), importing them on first use, so a name added to a
module's __all__ is importable from postlie with no second list to keep in
step.
"""

import ast
import importlib
import pathlib
import types

import postlie

MODULES = ("scalars", "linalg", "algebra", "forms", "construct", "bialgebra", "documents",
           "corpus", "verify")


def _owners() -> dict:
    """Each name of the nine __all__, in module order, and its one module."""
    owners = {}
    for module_name in MODULES:
        module = importlib.import_module("postlie." + module_name)
        for name in module.__all__:
            assert name not in owners, "%s is in the __all__ of %s and %s" % (
                name, owners[name].__name__, module_name)
            owners[name] = module
    return owners


def test_postlie_exports_exactly_its_modules_all():
    owners = _owners()
    assert len(owners) == 99
    assert postlie.__all__ == list(owners)
    for name, module in owners.items():
        assert getattr(postlie, name) is getattr(module, name), name
    star = {}
    exec("from postlie import *", star)
    del star["__builtins__"]
    assert set(star) == set(owners)
    assert all(star[name] is getattr(module, name) for name, module in owners.items())
    public = {name for name in dir(postlie) if not name.startswith("_")
              and not isinstance(getattr(postlie, name), types.ModuleType)}
    assert public == set(owners)


def test_postlie_names_no_public_name_by_hand():
    """No name, attribute, import or string of __init__.py is a public name."""
    init = pathlib.Path(postlie.__file__).read_text(encoding="utf-8")
    written = set()
    for node in ast.walk(ast.parse(init)):
        if isinstance(node, ast.Name):
            written.add(node.id)
        elif isinstance(node, ast.Attribute):
            written.add(node.attr)
        elif isinstance(node, ast.alias):
            written.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            written.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            written.add(node.value)
    assert "__getattr__" in written
    assert not written & set(_owners())
