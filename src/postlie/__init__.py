"""Exact structure-constant computer algebra for post-Lie algebras.

The package represents finite-dimensional algebras over Q or Q(i) by
their structure constants, verifies the defining identities of each
algebra class exactly (Lie, pre-Lie, post-Lie, two-sided and quarter
splittings, their representations, invariant forms, Rota-Baxter and
O-type operators), runs the product/double constructions (semidirect
products, matched pairs, doubles, Manin triples) and the Yang-Baxter
machinery (r-matrices, induced comultiplications, bialgebra checks),
and ships an exactly-reproducible fixture corpus with a CLI.

The public names are the __all__ of the nine library modules below.  The
package imports them on first use (PEP 562), so `import postlie.cli`
loads only the modules a command runs.
"""

import functools
import importlib

__version__ = "0.1.0"

# the library modules whose __all__ the package re-exports, in order
_MODULES = ("scalars", "linalg", "algebra", "forms", "construct", "bialgebra", "documents",
            "corpus", "verify")


@functools.cache
def _owners() -> dict:
    """Each public name and the module that declares it, importing all nine."""
    owners = {}
    for name in _MODULES:
        module = importlib.import_module("." + name, __name__)
        owners.update(dict.fromkeys(module.__all__, module))
    return owners


def __getattr__(name):
    # a submodule or a dunder other than __all__ is never looked up in the
    # nine: `from postlie import cli` probes with hasattr before it imports
    if name == "__all__":
        return list(_owners())
    if name not in (*_MODULES, "cli") and not name.startswith("__") and name in _owners():
        return getattr(_owners()[name], name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *_owners()})
