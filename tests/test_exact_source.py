"""No floating point anywhere in the package, checked on its source.

Walks the syntax tree of every module of the package and fails on a float
or complex literal, a call of float() or complex(), or any name taken from
the math module other than gcd.  Also: the modules whose checkers are
whole-tensor equations do not sweep basis tuples.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "postlie"


def offences(source: str) -> list:
    """(line, description) of each floating-point construct in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((line, "%s literal %r" % (type(node.value).__name__, node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex")):
            found.append((line, "call of %s()" % node.func.id))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr != "gcd"):
            found.append((line, "math.%s" % node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend((line, "math.%s imported" % alias.name)
                         for alias in node.names if alias.name != "gcd")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_floating_point(path):
    assert offences(path.read_text(encoding="utf-8")) == []


def test_package_modules_found():
    assert {"scalars.py", "linalg.py", "algebra.py"} <= {p.name for p in PACKAGE.glob("*.py")}


@pytest.mark.parametrize("source", [
    "x = 0.5",
    "x = 1e3",
    "x = 2j",
    "y = float(x)",
    "y = complex(1, 2)",
    "import math\ny = math.sqrt(2)",
    "import math\ny = math.prod([2, 3])",
    "from math import pi",
    "from math import gcd, isclose",
])
def test_guard_catches(source):
    assert offences(source)


@pytest.mark.parametrize("source", [
    "from math import gcd",
    "import math\ny = math.gcd(4, 6)",
    "from fractions import Fraction\ny = Fraction(1, 2)",
    "y = 'no 0.5 in strings counts'",
])
def test_guard_allows(source):
    assert offences(source) == []


@pytest.mark.parametrize("name", ["forms.py", "construct.py", "bialgebra.py"])
def test_equation_modules_do_not_sweep_basis_tuples(name):
    source = (PACKAGE / name).read_text(encoding="utf-8")
    assert "itertools.product" not in source
    assert "basis_vec(" not in source
