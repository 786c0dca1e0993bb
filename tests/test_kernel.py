"""The identity kernel against a per-tuple reference.

The reference evaluates each identity closure on basis vectors (tuples of
Scalar), one index tuple at a time, the way the checkers did before the
kernel.  Both must give the same complete report -- verdict, instance
count and every witness with its lhs and rhs -- on random Gaussian-rational
tables, on every bundled algebra and on a single-entry mutant of each.
"""

import itertools
import random
from fractions import Fraction

import pytest

import postlie.algebra as algebra
from postlie import (
    Algebra,
    Scalar,
    Tensor,
    basis_vec,
    check_pp_post_lie,
    corpus_doc,
    dualize,
    vadd,
    vneg,
    vsub,
    zero_vec,
)
from postlie.algebra import (
    L_DENDRIFORM_IDENTITIES,
    LIE_IDENTITIES,
    POST_LIE_IDENTITIES,
    PP_IDENTITIES,
    PRE_LIE_IDENTITIES,
    PRE_PP_IDENTITIES,
    CheckReport,
    Violation,
    _identities,
)
from postlie.scalars import ZERO

# (name, operations, factory) of the six identity sets
SETS = (
    ("lie", ("bracket",), LIE_IDENTITIES),
    ("pre-lie", ("circ",), PRE_LIE_IDENTITIES),
    ("post-lie", ("circ", "bracket"), POST_LIE_IDENTITIES),
    ("pp-post-lie", ("rtri", "ltri", "bracket"), PP_IDENTITIES),
    ("l-dendriform", ("rtri", "ltri"), L_DENDRIFORM_IDENTITIES),
    ("pre-pp-post-lie", ("se", "ne", "sw", "nw", "dot"), PRE_PP_IDENTITIES),
)
ALL_OPS = sorted({op for _, ops, _ in SETS for op in ops})


def MIXED_IDENTITIES(alg):
    """Closures that are not multilinear: arguments shared by both factors
    of a product, sides of mixed degree and a side that ignores an argument."""
    o = lambda x, y: alg.mul("circ", x, y)
    br = lambda x, y: alg.mul("bracket", x, y)
    z = zero_vec(alg.dim)
    return [
        ("mixed.shared", lambda x, y, w: (o(o(x, y), y), br(o(y, w), o(x, w))), 3),
        ("mixed.shared2", lambda x, y, w: (br(o(y, w), o(w, y)), o(o(w, x), o(y, w))), 3),
        ("mixed.degree", lambda x, y, w: (vadd(o(x, y), o(o(x, y), w)), vsub(br(y, x), y)), 3),
        ("mixed.free", lambda x, y, w: (vneg(o(x, y)), z), 3),
        ("mixed.square", lambda x, y: (o(x, x), br(y, vadd(y, x))), 2),
    ]


def reference(name, alg, identity_set):
    """The uncapped report of identity_set, one basis tuple at a time."""
    n = alg.dim
    e = [basis_vec(n, i) for i in range(n)]
    violations, checked = [], 0
    for ident, fn, arity in identity_set:
        for idx in itertools.product(range(n), repeat=arity):
            lhs, rhs = fn(*(e[i] for i in idx))
            checked += 1
            if lhs != rhs:
                violations.append(Violation(ident, idx, tuple(lhs), tuple(rhs)))
    violations.sort(key=lambda v: (v.identity, v.indices))
    return CheckReport(not violations, violations, checked, name)


def assert_same(alg, name, ops, factory, monkeypatch):
    monkeypatch.setattr(algebra, "MAX_VIOLATIONS", 10 ** 9)
    want = reference(name, alg, factory(alg))
    got = _identities(name, alg, ops, factory(alg))
    assert got.checked == want.checked
    assert got.passed == want.passed
    assert got.violations == want.violations
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
@pytest.mark.parametrize("name, ops, factory", SETS, ids=[s[0] for s in SETS])
def test_random_tables_match_reference(n, density, big, name, ops, factory, monkeypatch):
    rng = random.Random("%s-%d-%s-%s" % (name, n, density, big))
    assert_same(random_algebra(rng, n, density, big), name, ops, factory, monkeypatch)


@pytest.mark.parametrize("n, density, big", CASES)
def test_non_multilinear_closures_match_reference(n, density, big, monkeypatch):
    rng = random.Random("mixed-%d-%s-%s" % (n, density, big))
    alg = random_algebra(rng, n, density, big)
    assert_same(alg, "mixed", ("circ", "bracket"), MIXED_IDENTITIES, monkeypatch)


# ---------------------------------------------------------------------------
# the bundled algebras and their mutants
# ---------------------------------------------------------------------------

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
    sets = [s for s in SETS if all(alg.has(op) for op in s[1])]
    assert sets
    for name, ops, factory in sets:
        assert_same(alg, name, ops, factory, monkeypatch)


def test_bundled_verdicts_are_not_vacuous(monkeypatch):
    # the comparison above covers passing and failing reports alike
    sl2_pp = bundled("sl2_pp")
    assert assert_same(sl2_pp, "pp-post-lie", SETS[3][1], PP_IDENTITIES, monkeypatch).passed
    broken = bundled("sl2_pp_broken")
    assert not assert_same(broken, "pp-post-lie", SETS[3][1], PP_IDENTITIES, monkeypatch).passed


# ---------------------------------------------------------------------------
# one path
# ---------------------------------------------------------------------------

def test_identity_checkers_never_multiply_tuples(monkeypatch):
    """check_pp_post_lie (its Lie precondition included) multiplies only
    batched values: the per-tuple sweep is gone, not kept as a fallback."""
    calls = {"tuple": 0, "batched": 0}
    mul = Algebra.mul

    def counted(self, op, x, y):
        calls["tuple" if isinstance(x, tuple) or isinstance(y, tuple) else "batched"] += 1
        return mul(self, op, x, y)

    monkeypatch.setattr(Algebra, "mul", counted)
    assert check_pp_post_lie(bundled("ahat_pp")).passed
    assert calls["tuple"] == 0
    assert calls["batched"] > 0
