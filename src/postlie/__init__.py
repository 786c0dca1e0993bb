"""Exact structure-constant computer algebra for post-Lie algebras.

The package represents finite-dimensional algebras over Q or Q(i) by
their structure constants, verifies the defining identities of each
algebra class exactly (Lie, pre-Lie, post-Lie, two-sided and quarter
splittings, their representations, invariant forms, Rota-Baxter and
O-type operators), runs the product/double constructions (semidirect
products, matched pairs, doubles, Manin triples) and the Yang-Baxter
machinery (r-matrices, induced comultiplications, bialgebra checks),
and ships an exactly-reproducible fixture corpus with a CLI.
"""

from .scalars import *
from .linalg import *
from .algebra import *
from .forms import *
from .construct import *
from .bialgebra import *
from .documents import *
from .corpus import *
from .verify import *

__version__ = "0.1.0"
