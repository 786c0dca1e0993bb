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

from .scalars import I, ONE, ZERO, Scalar, ScalarParseError, sc
from .linalg import (
    LinAlgError,
    Matrix,
    SingularMatrixError,
    Tensor,
    einsum,
)
from .algebra import (
    Algebra,
    CheckReport,
    OPERATION_NAMES,
    PreconditionError,
    UnknownOperationError,
    check_l_dendriform,
    check_lie,
    check_post_lie,
    check_pp_post_lie,
    check_pre_lie,
    check_pre_pp_post_lie,
    horizontal_post_lie,
    opposite_post_lie,
    sub_adjacent_lie,
    sub_adjacent_pp,
    transpose_pp,
    vertical_post_lie,
)
from .forms import (
    PPRepSpec,
    RepSpec,
    adjoint_rep,
    check_dual_p_o_operator,
    check_gph,
    check_invariant_form,
    check_left_invariant,
    check_o_operator_pp,
    check_post_lie_rep,
    check_pp_rep,
    check_rota_baxter_lie,
    check_strong,
    dual_map,
    dual_pp_rep,
    induced_post_lie,
    omega_cocycle,
    pp_adjoint_rep,
    pp_coadjoint_rep,
    pp_from_dual_p_o,
    pp_split_dual_rep,
)
from .construct import (
    MatchedPairMaps,
    bowtie,
    bullet_from_gph,
    check_matched_pair,
    coadjoint_matched_pair_maps,
    compatible_pp_from_gph,
    double_construction,
    hom_embed_r,
    invertible_o_to_compatible_pre_pp,
    manin_triple_build,
    pairing_form,
    pre_pp_from_o_operator,
    quarter_split_rep,
    semidirect_post_lie,
    semidirect_pp,
)
from .bialgebra import (
    CoalgebraSpec,
    check_lie_bialgebra,
    check_lie_coalgebra,
    check_pp_bialgebra,
    check_pp_coalgebra,
    check_pppcybe,
    check_quasitriangular_conditions,
    cobrackets_from_r,
    cybe_C,
    cybe_D,
    dualize,
    dualize_alg,
    operator_form_check,
)
from .documents import Document, DocumentError, dumps, load, loads, save
from .corpus import CORPUS_NAMES, corpus_doc, corpus_text, write_corpus
from .verify import CriterionResult, run_acceptance

__version__ = "0.1.0"
