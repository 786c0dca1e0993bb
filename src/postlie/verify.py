"""The bundled-corpus acceptance pipeline.

Each criterion (A1 .. A7) re-derives part of the corpus from first
principles and compares bit-exactly, or checks an axiom system or an
equivalence of checkers.  Everything is exact; each criterion returns its
failure details, precise witness messages, and passes when it has none.
A criterion tests the conclusions of a construction on fixtures that may
fail its hypothesis (corpus verify --dir), so it builds with the body _f of
a public f, which establishes no precondition.

Criterion A3 contains one assertion that is recorded as failing by
design: the splitting derived from the Killing form is provably not the
bundled sl2_pp table.  They differ in four entries, both tables satisfy
all the splitting axioms, and every invariant bilinear form on this
simple algebra is a scalar multiple of the Killing form while the
construction is scale-invariant, so no choice of form reproduces the
bundled table.  The comparison is still performed and reported honestly.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from math import gcd

from .algebra import (
    Algebra,
    PreconditionError,
    _horizontal_post_lie,
    _sub_adjacent_pp,
    _transpose_pp,
    _vertical_post_lie,
    check_lie,
    check_post_lie,
    check_pp_post_lie,
    check_pre_pp_post_lie,
    horizontal_post_lie,
    sub_adjacent_lie,
)
from .bialgebra import (
    check_pp_bialgebra,
    check_pppcybe,
    cobrackets_from_r,
    cybe_C,
    cybe_D,
    dualize,
    dualize_alg,
    operator_form_check,
)
from .construct import (
    _compatible_pp_from_gph,
    _double_construction,
    _hom_double,
    _hom_r,
    check_matched_pair,
    coadjoint_matched_pair_maps,
    manin_triple_build,
    quarter_split_rep,
)
from .corpus import corpus_dir_doc, corpus_doc
from .forms import (
    _check_o_operator_pp,
    _check_pp_rep,
    check_gph,
    check_left_invariant,
    check_rota_baxter_lie,
    induced_post_lie,
    pp_coadjoint_rep,
)
from .linalg import Matrix, Tensor, _make, _over_lcm
from .scalars import ONE

__all__ = ["CriterionResult", "run_acceptance", "CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    """A criterion's failure details; it passes exactly when there are none."""
    name: str
    details: tuple

    def __post_init__(self):
        object.__setattr__(self, "details", tuple(self.details))

    @property
    def passed(self) -> bool:
        return not self.details

    def line(self) -> str:
        """The verdict line, then every line of each detail 4 spaces in."""
        return "\n".join(["%s: %s" % (self.name, "PASS" if self.passed else "FAIL")]
                         + ["    " + line for d in self.details for line in d.split("\n")])


class _Fixtures:
    """Fixture access for the criteria.  Each fixture is parsed once; the
    tables and matrices handed out are immutable, so no criterion can change
    what another one sees (A7 builds its perturbed r6 as a new tensor)."""

    def __init__(self, directory=None):
        self.doc = functools.cache(lambda name: corpus_doc(name) if directory is None
                                   else corpus_dir_doc(directory, name))

    def algebra(self, name) -> Algebra:
        return self.doc(name).to_algebra()

    def matrix(self, name) -> Matrix:
        return self.doc(name).to_matrix()

    def coalgebra(self, name):
        return self.doc(name).to_coalgebra()


def _crit(name):
    def wrap(fn):
        fn.criterion = name
        return fn
    return wrap


@_crit("A1")
def _a1(fx: _Fixtures) -> list:
    details = []
    lie = fx.algebra("sl2_lie")
    P = fx.matrix("sl2_P")
    rb = check_rota_baxter_lie(lie, P, ONE)
    if not rb.passed:
        details.append("weight-one Rota-Baxter identity fails: " + rb.render(3))
    induced = induced_post_lie(lie, P) if rb.passed else None
    if induced is not None:
        expected = fx.algebra("sl2_postlie")
        if induced.table("circ") != expected.table("circ"):
            details.append("induced circ table differs from sl2_postlie")
        if induced.table("bracket") != expected.table("bracket"):
            details.append("bracket not preserved")
    return details


@_crit("A2")
def _a2(fx) -> list:
    details = []
    alg = fx.algebra("sl2_postlie")
    kappa = fx.matrix("kappa")
    gph = check_gph(alg, kappa)
    if not gph.passed:
        details.append("Killing form fails the invariance conditions: " + gph.render(3))
    li = check_left_invariant(alg, kappa)
    if not li.passed:
        details.append("Killing form fails left-invariance: " + li.render(3))
    return details


@_crit("A3")
def _a3(fx) -> list:
    details = []
    alg = fx.algebra("sl2_postlie")
    kappa = fx.matrix("kappa")
    derived = _compatible_pp_from_gph(alg, kappa)
    expected = fx.algebra("sl2_pp")
    same_rt = derived.table("rtri") == expected.table("rtri")
    same_lt = derived.table("ltri") == expected.table("ltri")
    if not (same_rt and same_lt):
        diffs = _table_diff_count(derived, expected, ("rtri", "ltri"))
        details.append(
            "derived splitting differs from sl2_pp in %d entries; both tables "
            "satisfy the splitting axioms with the same horizontal and vertical "
            "products, and the form-derived one is unique up to scaling of the "
            "form, so the bundled table cannot arise from this construction" % diffs
        )
    pp = check_pp_post_lie(derived)
    if not pp.passed:
        details.append("derived splitting fails the pp axioms: " + pp.render(3))
    horiz = _horizontal_post_lie(derived)
    vert = _vertical_post_lie(derived)
    if horiz.table("circ") != alg.table("circ"):
        details.append("horizontal product of the derived splitting is not circ")
    if vert.table("circ") != alg.table("circ"):
        details.append("vertical product of the derived splitting is not circ")
    return details


def _table_diff_count(a: Algebra, b: Algebra, ops) -> int:
    """The number of cells (op, i, j) where the rows c[i, j, :] differ: the
    distinct f // n over the nonzero offsets f of the difference."""
    count = 0
    for op in ops:
        d = a.table(op) - b.table(op)
        count += len({f // a.dim for f in d.re.keys() | d.im.keys()})
    return count


@_crit("A4")
def _a4(fx) -> list:
    rep = check_gph(*_double_construction(fx.algebra("sl2_pp")))
    return [] if rep.passed else ["double fails the invariant-form conditions: " + rep.render(3)]


@_crit("A5")
def _a5(fx) -> list:
    details = []
    prepp = fx.algebra("final_prepp")
    rep = check_pre_pp_post_lie(prepp)
    if not rep.passed:
        details.append("final_prepp fails the quarter-split axioms: " + rep.render(3))
        return details
    sub = _sub_adjacent_pp(prepp)
    ahat_expected = fx.algebra("ahat_pp")
    for op in ("rtri", "ltri", "bracket"):
        block = _upper_block(ahat_expected.table(op), prepp.dim)
        if sub.table(op) != block:
            details.append("sub-adjacent %s table differs from the bundled double" % op)
    qrep = quarter_split_rep(prepp)
    # prepp is a quarter-split, so sub and qrep are a pp representation
    ahat = _hom_double(sub, qrep)
    for op in ("rtri", "ltri", "bracket"):
        if ahat.table(op) != ahat_expected.table(op):
            details.append("constructed double differs from ahat_pp in %s" % op)
    r = fx.matrix("r6")
    if not r.is_antisymmetric():
        details.append("bundled tensor is not antisymmetric")
    if not cybe_C(ahat_expected, r).is_zero():
        details.append("C(r) != 0")
    if not cybe_D(ahat_expected, r).is_zero():
        details.append("D(r) != 0")
    co = cobrackets_from_r(ahat_expected, r)
    co_expected = fx.coalgebra("final_cobrackets")
    for name in ("delta_rtri", "delta_ltri", "Delta"):
        if co.table(name) != co_expected.table(name):
            details.append("computed %s differs from final_cobrackets" % name)
    bial = check_pp_bialgebra(ahat_expected, co)
    if not bial.passed:
        details.append("bialgebra compatibility fails: " + bial.render(3))
    return details


def _upper_block(table, n):
    return Tensor((n, n, n), [table[i, j, k] for i in range(n) for j in range(n)
                              for k in range(n)])


def _draw(rng) -> tuple:
    """A6's random entry p/q + c i, with p, q and c drawn in that order, as
    its numerator triple (a, b, d) in lowest terms: (a + b i)/d."""
    p, q, c = rng.randint(-2, 2), rng.choice((1, 2)), rng.randint(-1, 1)
    g = gcd(p, q)
    return p // g, c * q // g, q // g


def _random_antisymmetric(rng, n) -> Matrix:
    """A _draw per entry above the diagonal, row by row, and its negative below."""
    upper = {i * n + j: _draw(rng) for i in range(n) for j in range(i + 1, n)}
    lower = {f % n * n + f // n: (-a, -b, d) for f, (a, b, d) in upper.items()}
    return _make((n, n), *_over_lcm({**upper, **lower}))


@_crit("A6")
def _a6(fx) -> list:
    details = []
    rng = random.Random(20250808)
    pp3 = fx.algebra("sl2_pp")
    ahat = fx.algebra("ahat_pp")
    r6 = fx.matrix("r6")

    # (i) tensor form vs operator form, bundled tensor plus random ones
    cases = [(ahat, r6), (ahat, Matrix.zero(6, 6))]
    for _ in range(35):
        cases.append((pp3, _random_antisymmetric(rng, 3)))
    for _ in range(15):
        cases.append((ahat, _random_antisymmetric(rng, 6)))
    verdicts = [(check_pppcybe(alg, r).passed, operator_form_check(alg, r).passed)
                for alg, r in cases]
    mismatches = sum(tensor != operator for tensor, operator in verdicts)
    if mismatches:
        details.append("tensor/operator verdicts disagree on %d of %d tensors"
                       % (mismatches, len(cases)))
    if not any(tensor for tensor, _ in verdicts):
        details.append("no solution among the tested tensors (expected the bundled one)")

    # (ii) Manin triple / matched pair / bialgebra agreement on the corpus double
    co = fx.coalgebra("final_cobrackets")
    dual_pp = dualize(co)
    verdicts = _triple_verdicts(ahat, dual_pp, co)
    if len(set(verdicts)) != 1 or not verdicts[0]:
        details.append("corpus instance: manin/matched-pair/bialgebra = %s" % (verdicts,))
    broken_co = _flip_comap_sign(fx.coalgebra("final_cobrackets"), "Delta")
    verdicts = _triple_verdicts(ahat, dualize(broken_co), broken_co)
    if len(set(verdicts)) != 1 or verdicts[0]:
        details.append("perturbed instance: manin/matched-pair/bialgebra = %s" % (verdicts,))

    # (iii) embedded-tensor verdict vs operator verdict, valid and mutated maps
    prepp = fx.algebra("final_prepp")
    sub = _sub_adjacent_pp(prepp)
    qrep = quarter_split_rep(prepp)
    maps = [Matrix.identity(3), fx.matrix("final_P")]
    for _ in range(10):
        # _draw + 3 at one place of the identity, drawn before the place as always
        a, b, d = _draw(rng)
        values = {0: (1, 0, 1), 4: (1, 0, 1), 8: (1, 0, 1)}
        values[3 * rng.randrange(3) + rng.randrange(3)] = a + 3 * d, b, d
        maps.append(_make((3, 3), *_over_lcm(values)))
    double = _hom_double(sub, qrep)
    verdicts = [(_check_o_operator_pp(sub, qrep, t).passed,
                 check_pppcybe(double, _hom_r(sub.dim, qrep.dim, t)).passed) for t in maps]
    if any(ok_op != ok_tensor for ok_op, ok_tensor in verdicts):
        details.append("embedded-tensor and operator verdicts disagree")
    if all(ok_op for ok_op, _ in verdicts):
        details.append("mutation set produced no failing operator (test too weak)")
    return details


def _triple_verdicts(a_pp: Algebra, astar_pp: Algebra, co):
    # a half that fails a precondition: not a Manin triple, not a matched pair
    try:
        ok_manin = manin_triple_build(a_pp, astar_pp)[2].passed
    except PreconditionError:
        ok_manin = False
    try:
        ha, hb = horizontal_post_lie(a_pp), horizontal_post_lie(astar_pp)
        maps = coadjoint_matched_pair_maps(a_pp, astar_pp)
        ok_matched = check_matched_pair(ha, hb, maps).passed
    except PreconditionError:
        ok_matched = False
    ok_bialg = check_pp_bialgebra(a_pp, co).passed
    return (ok_manin, ok_matched, ok_bialg)


def _flip_comap_sign(co, name):
    return type(co)(co.dim, co.field, co.basis, {**co.comaps, name: -co.table(name)})


@_crit("A7")
def _a7(fx) -> list:
    details = []
    postlies = {
        "sl2_postlie": fx.algebra("sl2_postlie"),
        "horizontal(sl2_pp)": _horizontal_post_lie(fx.algebra("sl2_pp")),
        "double(sl2_pp)": _double_construction(fx.algebra("sl2_pp"))[0],
    }
    for name, alg in postlies.items():
        sub = sub_adjacent_lie(alg)
        if not check_lie(sub).passed:
            details.append("sub-adjacent bracket of %s fails the Jacobi identity" % name)
    pps = {
        "sl2_pp": fx.algebra("sl2_pp"),
        "ahat_pp": fx.algebra("ahat_pp"),
        "sub_adjacent_pp(final_prepp)": _sub_adjacent_pp(fx.algebra("final_prepp")),
    }
    for name, alg in pps.items():
        horiz = _horizontal_post_lie(alg)
        vert = _vertical_post_lie(alg)
        if not check_post_lie(horiz).passed:
            details.append("horizontal of %s is not post-Lie" % name)
        if not check_post_lie(vert).passed:
            details.append("vertical of %s is not post-Lie" % name)
        tw = _transpose_pp(alg)
        if _transpose_pp(tw).ops != alg.ops:
            details.append("transpose of %s is not an involution" % name)
        if _horizontal_post_lie(tw).table("circ") != vert.table("circ"):
            details.append("transpose of %s does not swap horizontal and vertical" % name)
        if _vertical_post_lie(tw).table("circ") != horiz.table("circ"):
            details.append("transpose of %s does not swap vertical and horizontal" % name)
        co = dualize_alg(alg)
        if dualize(co).ops != alg.ops:
            details.append("dualize roundtrip fails on %s" % name)
        if not _check_pp_rep(alg, pp_coadjoint_rep(alg)).passed:
            details.append("dual of the adjoint representation of %s fails" % name)
    # mutation fixtures must fail
    broken = fx.algebra("sl2_pp_broken")
    rep = check_pp_post_lie(broken)
    if rep.passed:
        details.append("sl2_pp_broken unexpectedly passes (no witness)")
    se = fx.algebra("final_prepp").table("se")
    mutated_prepp = fx.algebra("final_prepp").with_op(
        "se", _with_entry(se, (0, 1, 1), se[0, 1, 1] + ONE))
    rep = check_pre_pp_post_lie(mutated_prepp)
    if rep.passed:
        details.append("mutated quarter-split unexpectedly passes (no witness)")
    r6 = fx.matrix("r6")
    r_bad = _with_entry(r6, (0, 3), r6[0, 3] + ONE)
    rep = check_pppcybe(fx.algebra("ahat_pp"), r_bad)
    if rep.passed:
        details.append("perturbed tensor unexpectedly solves the equation")
    return details


def _with_entry(t: Tensor, index, value) -> Tensor:
    """A mutant of t: the same entries but value at index."""
    return t + Tensor.blocks(t.shape, [(Tensor((1,) * len(index), [value - t[index]]), index)])


CRITERIA = (_a1, _a2, _a3, _a4, _a5, _a6, _a7)


def run_acceptance(corpus_dir=None, names=None):
    """Run the acceptance criteria; returns a list of CriterionResult."""
    fx = _Fixtures(corpus_dir)
    results = []
    for fn in CRITERIA:
        if names and fn.criterion not in names:
            continue
        try:
            details = fn(fx)
        except Exception as exc:  # surfaced as a failing criterion, never a crash
            details = ["raised %s: %s" % (type(exc).__name__, exc)]
        results.append(CriterionResult(fn.criterion, details))
    return results
