"""The six identity sets against a per-tuple reference.

The reference is the closure form the identity sets had before they became
einsum equations: each identity a function of vectors (tuples of Scalar)
over the Scalar-tuple helpers of vectors.py (mul, vadd, vsub and vneg, which
share no einsum with the checkers), evaluated on basis vectors one index
tuple at a time.  Each set's Identity list and its public checker must give
the same complete report -- verdict, instance count and every witness with
its lhs and rhs -- on random Gaussian-rational tables, on every bundled
algebra and on a single-entry mutant of each.  Where a checker's
precondition fails, the report it raises must be the reference report of
the precondition.
"""

import itertools
import random
from fractions import Fraction
from typing import NamedTuple

import pytest

import postlie.algebra as algebra
from postlie import (
    Algebra,
    PreconditionError,
    Scalar,
    Tensor,
    check_l_dendriform,
    check_lie,
    check_post_lie,
    check_pp_post_lie,
    check_pre_lie,
    check_pre_pp_post_lie,
    corpus_doc,
    dualize,
)
from postlie.scalars import ZERO
from vectors import Violation, basis_vec, mul, vadd, vneg, vsub, violations, zero_vec


# ---------------------------------------------------------------------------
# the reference: the six identity sets as closures
# ---------------------------------------------------------------------------

def LIE_IDENTITIES(alg: Algebra, op="bracket"):
    br = lambda x, y: mul(alg, op, x, y)
    z = zero_vec(alg.dim)

    def antisym(x, y):
        return vadd(br(x, y), br(y, x)), z

    def jacobi(x, y, zv):
        return vadd(br(br(x, y), zv), br(br(y, zv), x), br(br(zv, x), y)), z

    return [("lie.antisym", antisym, 2), ("lie.jacobi", jacobi, 3)]


def PRE_LIE_IDENTITIES(alg: Algebra, op="circ"):
    pr = lambda x, y: mul(alg, op, x, y)

    def left_sym(x, y, zv):
        lhs = vsub(pr(pr(x, y), zv), pr(x, pr(y, zv)))
        rhs = vsub(pr(pr(y, x), zv), pr(y, pr(x, zv)))
        return lhs, rhs

    return [("prelie.left-sym", left_sym, 3)]


def POST_LIE_IDENTITIES(alg: Algebra, circ="circ", bracket="bracket"):
    o = lambda x, y: mul(alg, circ, x, y)
    br = lambda x, y: mul(alg, bracket, x, y)

    def derivation(x, y, zv):
        return o(x, br(y, zv)), vadd(br(o(x, y), zv), br(y, o(x, zv)))

    def curvature(x, y, zv):
        lhs = o(vadd(o(x, y), vneg(o(y, x)), br(x, y)), zv)
        rhs = vsub(o(x, o(y, zv)), o(y, o(x, zv)))
        return lhs, rhs

    return [("postlie.1", derivation, 3), ("postlie.2", curvature, 3)]


def PP_IDENTITIES(alg: Algebra, rtri="rtri", ltri="ltri", bracket="bracket"):
    rt = lambda x, y: mul(alg, rtri, x, y)
    lt = lambda x, y: mul(alg, ltri, x, y)
    br = lambda x, y: mul(alg, bracket, x, y)
    z = zero_vec(alg.dim)

    def curly(x, y):
        return vadd(rt(x, y), lt(x, y), vneg(rt(y, x)), vneg(lt(y, x)), br(x, y))

    def pp1(x, y, zv):
        return lt(x, br(y, zv)), vadd(lt(br(x, y), zv), lt(br(zv, x), y))

    # chained "= 0": each displayed expression must vanish on its own
    def pp2a(x, y, zv):
        return br(x, vadd(lt(y, zv), lt(zv, y))), z

    def pp2b(x, y, zv):
        return vadd(lt(br(x, zv), y), lt(y, br(x, zv))), z

    def pp3(x, y, zv):
        lhs = vsub(rt(x, br(y, zv)), lt(br(y, zv), x))
        rhs = vadd(br(vadd(rt(x, y), lt(x, y)), zv), br(y, vsub(rt(x, zv), lt(zv, x))))
        return lhs, rhs

    def pp4(x, y, zv):
        lhs = rt(x, lt(y, zv))
        rhs = vadd(
            lt(vsub(rt(x, y), lt(y, x)), zv),
            lt(y, vadd(rt(x, zv), lt(x, zv))),
            vneg(br(x, lt(y, zv))),
        )
        return lhs, rhs

    def pp5(x, y, zv):
        lhs = rt(curly(x, y), zv)
        rhs = vadd(
            rt(x, rt(y, zv)),
            vneg(rt(y, rt(x, zv))),
            br(y, lt(x, zv)),
            vneg(br(x, lt(y, zv))),
            vneg(lt(br(x, y), zv)),
        )
        return lhs, rhs

    return [
        ("pp.1", pp1, 3),
        ("pp.2a", pp2a, 3),
        ("pp.2b", pp2b, 3),
        ("pp.3", pp3, 3),
        ("pp.4", pp4, 3),
        ("pp.5", pp5, 3),
    ]


def L_DENDRIFORM_IDENTITIES(alg: Algebra, rtri="rtri", ltri="ltri"):
    rt = lambda x, y: mul(alg, rtri, x, y)
    lt = lambda x, y: mul(alg, ltri, x, y)

    def ld1(x, y, zv):
        lhs = lt(vsub(rt(x, y), lt(y, x)), zv)
        rhs = vsub(rt(x, lt(y, zv)), lt(y, vadd(rt(x, zv), lt(x, zv))))
        return lhs, rhs

    def ld2(x, y, zv):
        lhs = rt(vadd(rt(x, y), lt(x, y), vneg(rt(y, x)), vneg(lt(y, x))), zv)
        rhs = vsub(rt(x, rt(y, zv)), rt(y, rt(x, zv)))
        return lhs, rhs

    return [("ldend.1", ld1, 3), ("ldend.2", ld2, 3)]


def PRE_PP_IDENTITIES(alg: Algebra):
    se = lambda x, y: mul(alg, "se", x, y)
    ne = lambda x, y: mul(alg, "ne", x, y)
    sw = lambda x, y: mul(alg, "sw", x, y)
    nw = lambda x, y: mul(alg, "nw", x, y)
    dot = lambda x, y: mul(alg, "dot", x, y)
    z = zero_vec(alg.dim)

    br = lambda x, y: vsub(dot(x, y), dot(y, x))
    rt = lambda x, y: vadd(se(x, y), ne(x, y))
    lt = lambda x, y: vadd(nw(x, y), sw(x, y))
    o = lambda x, y: vadd(se(x, y), ne(x, y), sw(x, y), nw(x, y))
    vee = lambda x, y: vadd(se(x, y), sw(x, y))
    wedge = lambda x, y: vadd(ne(x, y), nw(x, y))
    curly = lambda x, y: vadd(o(x, y), vneg(o(y, x)), br(x, y))

    def p1(x, y, zv):
        return nw(x, br(y, zv)), vsub(nw(dot(zv, x), y), nw(dot(y, x), zv))

    def p2(x, y, zv):
        return sw(x, dot(y, zv)), vsub(sw(br(x, y), zv), nw(dot(x, zv), y))

    def p3a(x, y, zv):
        return dot(x, vadd(sw(y, zv), nw(zv, y))), z

    # The displayed second member of the chain reads (y.z) nw y; the
    # representation identity it encodes pairs the nw argument with x,
    # and only that reading holds on the bundled quarter-split corpus.
    def p3b(x, y, zv):
        return vadd(sw(x, dot(y, zv)), nw(dot(y, zv), x)), z

    def p4a(x, y, zv):
        return vadd(sw(br(x, y), zv), nw(zv, br(x, y))), z

    def p4b(x, y, zv):
        return dot(vadd(lt(x, y), lt(y, x)), zv), z

    def p5(x, y, zv):
        return vee(x, dot(y, zv)), vadd(dot(o(x, y), zv), dot(y, vee(x, zv)))

    def p6(x, y, zv):
        return wedge(x, br(y, zv)), vsub(dot(y, wedge(x, zv)), dot(zv, wedge(x, y)))

    def p7(x, y, zv):
        lhs = vadd(se(x, sw(y, zv)), dot(x, sw(y, zv)))
        rhs = vadd(
            sw(y, vee(x, zv)),
            sw(vadd(se(x, y), ne(x, y), vneg(sw(y, x)), vneg(nw(y, x))), zv),
        )
        return lhs, rhs

    def p8(x, y, zv):
        lhs = vadd(se(x, nw(y, zv)), dot(x, nw(y, zv)))
        rhs = vadd(nw(y, o(x, zv)), nw(vsub(se(x, y), nw(y, x)), zv))
        return lhs, rhs

    def p9(x, y, zv):
        lhs = vsub(ne(x, lt(y, zv)), dot(lt(y, zv), x))
        rhs = vadd(sw(y, wedge(x, zv)), nw(vsub(ne(x, y), sw(y, x)), zv))
        return lhs, rhs

    # The (x.y) term enters through the full wedge, not just nw: this is
    # forced by the underlying representation identity and by the bundled
    # quarter-split corpus.
    def p10(x, y, zv):
        lhs = vsub(se(x, ne(y, zv)), ne(y, rt(x, zv)))
        rhs = vadd(
            ne(vsub(vee(x, y), wedge(y, x)), zv),
            dot(x, nw(y, zv)),
            wedge(dot(x, y), zv),
            dot(lt(x, zv), y),
        )
        return lhs, rhs

    def p11(x, y, zv):
        lhs = vadd(se(curly(x, y), zv), sw(br(x, y), zv))
        rhs = vadd(
            se(x, se(y, zv)),
            vneg(se(y, se(x, zv))),
            dot(y, sw(x, zv)),
            vneg(dot(x, sw(y, zv))),
        )
        return lhs, rhs

    return [
        ("prepp.01", p1, 3),
        ("prepp.02", p2, 3),
        ("prepp.03a", p3a, 3),
        ("prepp.03b", p3b, 3),
        ("prepp.04a", p4a, 3),
        ("prepp.04b", p4b, 3),
        ("prepp.05", p5, 3),
        ("prepp.06", p6, 3),
        ("prepp.07", p7, 3),
        ("prepp.08", p8, 3),
        ("prepp.09", p9, 3),
        ("prepp.10", p10, 3),
        ("prepp.11", p11, 3),
    ]


# name -> (operations, public checker, its Identity list, the reference
# closures, the checker's precondition as (set name, operation) or None)
SETS = {
    "lie": (("bracket",), check_lie, algebra.LIE_IDENTITIES, LIE_IDENTITIES, None),
    "pre-lie": (("circ",), check_pre_lie, algebra.PRE_LIE_IDENTITIES, PRE_LIE_IDENTITIES, None),
    "post-lie": (("circ", "bracket"), check_post_lie, algebra.POST_LIE_IDENTITIES,
                 POST_LIE_IDENTITIES, ("lie", "bracket")),
    "pp-post-lie": (("rtri", "ltri", "bracket"), check_pp_post_lie, algebra.PP_IDENTITIES,
                    PP_IDENTITIES, ("lie", "bracket")),
    "l-dendriform": (("rtri", "ltri"), check_l_dendriform, algebra.L_DENDRIFORM_IDENTITIES,
                     L_DENDRIFORM_IDENTITIES, None),
    "pre-pp-post-lie": (("se", "ne", "sw", "nw", "dot"), check_pre_pp_post_lie,
                        algebra.PRE_PP_IDENTITIES, PRE_PP_IDENTITIES, ("pre-lie", "dot")),
}
ALL_OPS = sorted({op for entry in SETS.values() for op in entry[0]})


class Report(NamedTuple):
    """A reference report as a plain record."""
    name: str
    checked: int
    passed: bool
    violations: tuple


def record(report) -> Report:
    """The fields of a CheckReport, which is not compared by value."""
    return Report(report.name, report.checked, report.passed, violations(report))


def reference(name, alg, identity_set):
    """The uncapped report of identity_set, one basis tuple at a time."""
    n = alg.dim
    e = [basis_vec(n, i) for i in range(n)]
    found, checked = [], 0
    for ident, fn, arity in identity_set:
        for idx in itertools.product(range(n), repeat=arity):
            lhs, rhs = fn(*(e[i] for i in idx))
            checked += 1
            if lhs != rhs:
                found.append(Violation(ident, idx, tuple(lhs), tuple(rhs)))
    found.sort(key=lambda v: (v.identity, v.indices))
    return Report(name, checked, not found, tuple(found))


def assert_same(alg, name, monkeypatch):
    """The uncapped reports of the set's Identity list and of its public
    checker are the reference report; where the checker's precondition
    fails, the report it raises is the precondition's reference report.
    Returns the checker's report, or None."""
    monkeypatch.setattr(algebra, "MAX_VIOLATIONS", 10 ** 9)
    ops, checker, identities, closures, precondition = SETS[name]
    want = reference(name, alg, closures(alg))
    assert record(algebra._sweep(name, identities, alg.require(*ops))) == want
    if precondition is not None:
        pre, op = precondition
        pre_want = reference(pre, alg, SETS[pre][3](alg, op))
        if not pre_want.passed:
            with pytest.raises(PreconditionError) as err:
                checker(alg)
            assert record(err.value.report) == pre_want
            return None
    got = checker(alg)
    assert record(got) == want
    return got


# ---------------------------------------------------------------------------
# random tables
# ---------------------------------------------------------------------------

def _random_scalar(rng, big):
    kind = rng.choice(("zero", "real", "imaginary", "mixed"))
    if kind == "zero":
        return ZERO
    if big:
        part = lambda: Fraction(rng.choice((-1, 1)) * rng.randint(2 ** 64, 2 ** 70),
                                rng.randint(2 ** 64, 2 ** 66))
    else:
        part = lambda: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3, 6)))
    return Scalar(part() if kind in ("real", "mixed") else 0,
                  part() if kind in ("imaginary", "mixed") else 0)


def random_algebra(rng, n, density, big=False):
    ops = {op: Tensor((n, n, n), [_random_scalar(rng, big) if rng.random() < density else ZERO
                                  for _ in range(n ** 3)])
           for op in ALL_OPS}
    return Algebra(n, ops=ops)


CASES = [(n, density, False) for n in range(5) for density in (0.25, 1.0)]
CASES += [(n, 1.0, True) for n in (1, 2, 3)]


@pytest.mark.parametrize("n, density, big", CASES)
@pytest.mark.parametrize("name", SETS)
def test_random_tables_match_reference(n, density, big, name, monkeypatch):
    rng = random.Random("%s-%d-%s-%s" % (name, n, density, big))
    assert_same(random_algebra(rng, n, density, big), name, monkeypatch)


BUNDLED = ("sl2_lie", "sl2_postlie", "sl2_pp", "sl2_pp_broken", "ahat_pp", "final_prepp",
           "final_cobrackets")


def bundled(name):
    doc = corpus_doc(name)
    return dualize(doc.to_coalgebra()) if name == "final_cobrackets" else doc.to_algebra()


def mutant(alg, rng):
    """alg with one entry of one table changed."""
    op = rng.choice(sorted(alg.ops))
    entries = list(alg.table(op).entries)
    k = rng.randrange(len(entries))
    entries[k] = entries[k] + Scalar(Fraction(1, 3), 1)
    return alg.with_op(op, Tensor(alg.table(op).shape, entries))


@pytest.mark.parametrize("doc", BUNDLED)
@pytest.mark.parametrize("mutated", (False, True), ids=("bundled", "mutant"))
def test_bundled_algebras_match_reference(doc, mutated, monkeypatch):
    alg = bundled(doc)
    if mutated:
        alg = mutant(alg, random.Random(doc))
    sets = [name for name, entry in SETS.items() if all(alg.has(op) for op in entry[0])]
    assert sets
    for name in sets:
        assert_same(alg, name, monkeypatch)


def test_bundled_verdicts_are_not_vacuous(monkeypatch):
    # the comparison above covers passing and failing reports alike
    assert assert_same(bundled("sl2_pp"), "pp-post-lie", monkeypatch).passed
    assert not assert_same(bundled("sl2_pp_broken"), "pp-post-lie", monkeypatch).passed


# ---------------------------------------------------------------------------
# one path
# ---------------------------------------------------------------------------

def test_identity_checkers_never_multiply_tuples(scalars_built):
    """The six checkers, their preconditions included, multiply no tuples of
    Scalars: each identity is evaluated as whole-tensor equations, and a
    verdict builds no Scalar."""
    cases = [(bundled(doc), check) for doc, check in (
        ("sl2_lie", check_lie), ("final_prepp", lambda a: check_pre_lie(a, "dot")),
        ("sl2_postlie", check_post_lie), ("ahat_pp", check_pp_post_lie),
        ("sl2_pp", check_l_dendriform), ("final_prepp", check_pre_pp_post_lie))]
    scalars_built.clear()
    assert [check(alg).passed for alg, check in cases] == [True, True, True, True, False, True]
    assert scalars_built == []
