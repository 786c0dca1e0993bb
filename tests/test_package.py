"""The package's public names are its modules' __all__, declared once.

postlie re-exports the __all__ of each of its nine library modules (the CLI
is not re-exported), so a name added to a module's __all__ is importable
from postlie with no second list to keep in step.
"""

import ast
import importlib
import pathlib
import types

import postlie

MODULES = ("scalars", "linalg", "algebra", "forms", "construct", "bialgebra", "documents",
           "corpus", "verify")


def test_postlie_exports_exactly_its_modules_all():
    owners = {}
    for module_name in MODULES:
        module = importlib.import_module("postlie." + module_name)
        for name in module.__all__:
            assert name not in owners, "%s is in the __all__ of %s and %s" % (
                name, owners[name], module_name)
            owners[name] = module
    assert len(owners) == 99
    public = {name for name, value in vars(postlie).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(owners)
    for name, module in owners.items():
        assert getattr(postlie, name) is getattr(module, name), name


def test_postlie_names_no_public_name_by_hand():
    init = pathlib.Path(postlie.__file__).read_text(encoding="utf-8")
    imports = [node for node in ast.parse(init).body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert [(node.module, [alias.name for alias in node.names], node.level)
            for node in imports] == [(name, ["*"], 1) for name in MODULES]
