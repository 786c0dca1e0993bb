import dataclasses
import inspect
import itertools
import random
from fractions import Fraction

import pytest

from postlie import (
    ONE,
    ZERO,
    Algebra,
    CoalgebraSpec,
    Document,
    LinAlgError,
    PreconditionError,
    Scalar,
    Tensor,
    UnknownOperationError,
    check_l_dendriform,
    check_lie,
    check_post_lie,
    check_pp_coalgebra,
    check_pp_post_lie,
    check_pre_lie,
    check_pre_pp_post_lie,
    check_pppcybe,
    corpus_doc,
    cybe_C,
    dualize,
    dumps,
    einsum,
    hom_embed_r,
    horizontal_post_lie,
    manin_triple_build,
    operator_form_check,
    opposite_post_lie,
    quarter_split_rep,
    sc,
    sub_adjacent_lie,
    sub_adjacent_pp,
    transpose_pp,
    vertical_post_lie,
)
from postlie import algebra
from postlie.algebra import (
    L_DENDRIFORM_IDENTITIES,
    LIE_IDENTITIES,
    MAX_VIOLATIONS,
    POST_LIE_IDENTITIES,
    PP_IDENTITIES,
    PRE_LIE_IDENTITIES,
    PRE_PP_IDENTITIES,
    Identity,
    Term,
    term,
)
from postlie.cli import main
from vectors import (
    Violation,
    act,
    act_apply,
    apply,
    basis_vec,
    coapply,
    mul,
    ref_kron,
    sparse,
    vadd,
    vneg,
    vscale,
    vsub,
    violations,
    zero_vec,
)

E1, E2, E3 = (basis_vec(3, i) for i in range(3))
V1, V2, V3 = (Tensor((3,), e) for e in (E1, E2, E3))
HALF = sc("1/2")
IHALF = sc("1/2i")


def _with_entries(table, values):
    """table with each 1-based entry (i, j, k) in values replaced."""
    n = table.shape[0]
    entries = list(table.entries)
    for (i, j, k), value in values.items():
        entries[((i - 1) * n + j - 1) * n + k - 1] = value
    return Tensor(table.shape, entries)


def _zero(n):
    return Tensor.zero(n, n, n)


def _swapped(table):
    """t[j, i, k] at (i, j, k), computed entry by entry."""
    n = table.shape[0]
    return Tensor(table.shape, [table[j, i, k] for i in range(n) for j in range(n)
                                for k in range(n)])


def zero_algebra(n, ops=("circ", "bracket")):
    return Algebra(n, ops={name: _zero(n) for name in ops})


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def _product(alg, op, x, y):
    """x * y under the table of op, on (n,) Tensors."""
    return einsum("i,j,ijk->k", x, y, alg.table(op))


def test_apply_bracket(sl2_lie):
    assert _product(sl2_lie, "bracket", V1, V2) == V3
    assert _product(sl2_lie, "bracket", V2, V3) == V1
    assert _product(sl2_lie, "bracket", V3, V1) == V2


def test_apply_bilinear_zero(sl2_lie):
    assert _product(sl2_lie, "bracket", Tensor.zero(3), V2) == Tensor.zero(3)
    assert _product(sl2_lie, "bracket", V1.scale(2), V2) == V3.scale(2)


def test_apply_circ(sl2_postlie):
    assert _product(sl2_postlie, "circ", V2, V2) == Tensor((3,), [sc("-1/2i"), sc(0), sc(0)])
    assert _product(sl2_postlie, "circ", V2, V1) == Tensor((3,), [sc(0), IHALF, HALF])


def _gaussian(rng, big):
    if big:
        part = lambda: Fraction(rng.choice((-1, 1)) * rng.randint(2 ** 64, 2 ** 70),
                                rng.randint(2 ** 64, 2 ** 66))
    else:
        part = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return Scalar(part(), part())


def _gaussian_tensor(rng, shape, density, big):
    """Each entry a random Gaussian rational with probability density, else 0."""
    size = 1
    for n in shape:
        size *= n
    return Tensor(shape, [_gaussian(rng, big) if rng.random() < density else ZERO
                          for _ in range(size)])


def test_vector_helpers_match_einsum(ahat_pp):
    # the Scalar-tuple helpers of the references against einsum on (n,)
    # Tensors, on sparse, dense and big (numerators above 2^64) operands
    rng = random.Random(5)
    for density, big in ((0.3, False), (1.0, False), (1.0, True)):
        rand = lambda *shape: _gaussian_tensor(rng, shape, density, big)
        n, m = 4, 3
        alg = Algebra(n, ops={"circ": rand(n, n, n), "bracket": rand(n, n, n)})
        co = CoalgebraSpec(n, comaps={"Delta": rand(n, n, n)})
        carrier, matrix, c = rand(n, m, m), rand(m, n), _gaussian(rng, big)
        vectors = [basis_vec(n, 2), zero_vec(n)] + [rand(n).entries for _ in range(3)]
        on_m = [basis_vec(m, 0), zero_vec(m), rand(m).entries]
        for x in vectors:
            X = Tensor((n,), x)
            assert vneg(x) == (-X).entries
            assert vscale(c, x) == X.scale(c).entries
            assert apply(matrix, x) == einsum("ij,j->i", matrix, X).entries
            assert act(carrier, x) == einsum("i,iab->ab", X, carrier)
            assert coapply(co, "Delta", x) == einsum("k,kij->ij", X, co.table("Delta"))
            for v in on_m:
                assert (act_apply(carrier, x, v)
                        == einsum("i,iab,b->a", X, carrier, Tensor((m,), v)).entries)
            for y in vectors:
                Y = Tensor((n,), y)
                assert vadd(x, y, x) == (X + Y + X).entries
                assert vsub(x, y) == (X - Y).entries
                for op in alg.ops:
                    assert mul(alg, op, x, y) == _product(alg, op, X, Y).entries
        a, b = rand(2, 3), rand(3, 2)
        assert ref_kron(a, b) == einsum("ij,pq->ipjq", a, b).reshape(6, 6)
    six = [basis_vec(6, 2), zero_vec(6)] + [_random_vec(rng, 6) for _ in range(4)]
    for op in ahat_pp.ops:
        for x in six:
            for y in six:
                assert mul(ahat_pp, op, x, y) == _product(
                    ahat_pp, op, Tensor((6,), x), Tensor((6,), y)).entries


def test_apply_errors(sl2_lie):
    with pytest.raises(UnknownOperationError):
        _product(sl2_lie, "circ", V1, V2)
    with pytest.raises(LinAlgError):
        _product(sl2_lie, "bracket", Tensor((1,), [sc(1)]), V2)


# ---------------------------------------------------------------------------
# Lie / pre-Lie checkers
# ---------------------------------------------------------------------------

def test_check_lie_sl2(sl2_lie):
    assert check_lie(sl2_lie).passed


def test_check_lie_abelian():
    assert check_lie(zero_algebra(3, ("bracket",))).passed


def test_check_lie_mutated_reports_witness(sl2_lie):
    # [e1,e2] = 2 e3 breaks antisymmetry
    bad = Algebra(3, ops={"bracket": _with_entries(sl2_lie.table("bracket"), {(1, 2, 3): 2})})
    rep = check_lie(bad)
    assert not rep.passed
    assert rep.witnesses
    first = violations(rep)[0]
    assert first.identity == "lie.antisym"
    assert first.indices == (0, 1)
    # witness sides are the exact evaluated values
    assert first.lhs == (sc(0), sc(0), sc(1))


def test_check_pre_lie_one_dim_idempotent():
    table = _with_entries(_zero(1), {(1, 1, 1): 1})
    assert check_pre_lie(Algebra(1, ops={"circ": table})).passed


def test_check_pre_lie_zero():
    assert check_pre_lie(zero_algebra(2, ("circ",))).passed


def test_check_pre_lie_sl2_circ_fails(sl2_postlie):
    rep = check_pre_lie(sl2_postlie)
    assert not rep.passed
    # independent oracle: evaluate both sides of the left-symmetry identity
    # on (e1, e2, e3) straight from the product table
    o = lambda x, y: mul(sl2_postlie, "circ", x, y)
    lhs = tuple(a - b for a, b in zip(o(o(E1, E2), E3), o(E1, o(E2, E3))))
    rhs = tuple(a - b for a, b in zip(o(o(E2, E1), E3), o(E2, o(E1, E3))))
    assert lhs != rhs


# ---------------------------------------------------------------------------
# post-Lie
# ---------------------------------------------------------------------------

def test_check_post_lie_sl2(sl2_postlie):
    assert check_post_lie(sl2_postlie).passed


def test_check_post_lie_zero_circ(sl2_lie):
    alg = sl2_lie.with_op("circ", _zero(3))
    assert check_post_lie(alg).passed


def test_check_post_lie_bracket_and_opposite(sl2_lie):
    # circ = [-,-] over the opposite bracket
    table = sl2_lie.table("bracket")
    opp = _swapped(table)
    alg = Algebra(3, ops={"circ": table, "bracket": opp})
    assert check_post_lie(alg).passed


def test_check_post_lie_precondition():
    bad = _with_entries(_zero(2), {(1, 1, 1): 1})  # not antisymmetric
    alg = Algebra(2, ops={"circ": _zero(2), "bracket": bad})
    with pytest.raises(PreconditionError) as err:
        check_post_lie(alg)
    assert err.value.report is not None
    assert not err.value.report.passed


# ---------------------------------------------------------------------------
# sub-adjacent and opposite
# ---------------------------------------------------------------------------

def test_sub_adjacent_zero_circ(sl2_lie):
    alg = sl2_lie.with_op("circ", _zero(3))
    sub = sub_adjacent_lie(alg)
    assert sub.table("bracket") == sl2_lie.table("bracket")


def test_sub_adjacent_sl2(sl2_postlie):
    sub = sub_adjacent_lie(sl2_postlie)
    assert check_lie(sub).passed
    # independent recomputation of {x,y} = x o y - y o x + [x,y]
    for i in range(3):
        for j in range(3):
            x, y = basis_vec(3, i), basis_vec(3, j)
            direct = tuple(
                a - b + c for a, b, c in zip(
                    mul(sl2_postlie, "circ", x, y),
                    mul(sl2_postlie, "circ", y, x),
                    mul(sl2_postlie, "bracket", x, y),
                ))
            assert mul(sub, "bracket", x, y) == direct


def test_sub_adjacent_opposite_bracket_cancellation(sl2_lie):
    table = sl2_lie.table("bracket")
    opp = _swapped(table)
    alg = Algebra(3, ops={"circ": opp, "bracket": table})
    sub = sub_adjacent_lie(alg)
    # {x,y} = [y,x] - [x,y] + [x,y] = [y,x]
    assert sub.table("bracket") == opp


def test_opposite_post_lie(sl2_postlie, sl2_lie):
    out = opposite_post_lie(sl2_postlie)
    assert check_post_lie(out).passed
    assert sub_adjacent_lie(out).table("bracket") == \
        sub_adjacent_lie(sl2_postlie).table("bracket")
    again = opposite_post_lie(out)
    assert again.table("circ") == sl2_postlie.table("circ")
    assert again.table("bracket") == sl2_postlie.table("bracket")
    # circ = 0 case: * = [-,-] over the opposite bracket
    triv = sl2_lie.with_op("circ", _zero(3))
    out = opposite_post_lie(triv)
    assert out.table("circ") == sl2_lie.table("bracket")


# ---------------------------------------------------------------------------
# pp-post-Lie
# ---------------------------------------------------------------------------

def test_check_pp_sl2(sl2_pp):
    assert check_pp_post_lie(sl2_pp).passed


def test_check_pp_post_lie_reduction(sl2_postlie):
    alg = Algebra(3, ops={
        "rtri": sl2_postlie.table("circ"),
        "ltri": _zero(3),
        "bracket": sl2_postlie.table("bracket"),
    })
    assert check_pp_post_lie(alg).passed


def test_check_pp_ldendriform_reduction():
    # pre-Lie product as rtri with ltri = bracket = 0
    t = _with_entries(_zero(1), {(1, 1, 1): 1})
    alg = Algebra(1, ops={"rtri": t, "ltri": _zero(1), "bracket": _zero(1)})
    assert check_pp_post_lie(alg).passed
    assert check_l_dendriform(alg).passed


def test_horizontal_vertical_reproduce_circ(sl2_pp, sl2_postlie):
    horiz = horizontal_post_lie(sl2_pp)
    vert = vertical_post_lie(sl2_pp)
    assert horiz.table("circ") == sl2_postlie.table("circ")
    assert vert.table("circ") == sl2_postlie.table("circ")
    assert check_post_lie(horiz).passed
    assert check_post_lie(vert).passed


def test_horizontal_with_zero_ltri(sl2_postlie):
    alg = Algebra(3, ops={
        "rtri": sl2_postlie.table("circ"),
        "ltri": _zero(3),
        "bracket": sl2_postlie.table("bracket"),
    })
    assert horizontal_post_lie(alg).table("circ") == sl2_postlie.table("circ")
    assert vertical_post_lie(alg).table("circ") == sl2_postlie.table("circ")


def test_transpose_pp(sl2_pp):
    tw = transpose_pp(sl2_pp)
    assert check_pp_post_lie(tw).passed
    again = transpose_pp(tw)
    assert again.table("rtri") == sl2_pp.table("rtri")
    assert again.table("ltri") == sl2_pp.table("ltri")
    assert horizontal_post_lie(tw).table("circ") == \
        vertical_post_lie(sl2_pp).table("circ")
    assert vertical_post_lie(tw).table("circ") == \
        horizontal_post_lie(sl2_pp).table("circ")


def test_same_sub_adjacent_for_horizontal_and_vertical(sl2_pp):
    horiz = sub_adjacent_lie(horizontal_post_lie(sl2_pp))
    vert = sub_adjacent_lie(vertical_post_lie(sl2_pp))
    assert horiz.table("bracket") == vert.table("bracket")


# ---------------------------------------------------------------------------
# L-dendriform
# ---------------------------------------------------------------------------

def test_l_dendriform_zero():
    assert check_l_dendriform(zero_algebra(2, ("rtri", "ltri"))).passed


def test_l_dendriform_sl2_pp_fails(sl2_pp):
    # the two-sided splitting needs its nonzero bracket; dropping it fails
    rep = check_l_dendriform(sl2_pp)
    assert not rep.passed
    o = lambda a, x, y: mul(sl2_pp, a, x, y)
    lhs = o("ltri", tuple(a - b for a, b in zip(o("rtri", E1, E2), o("ltri", E2, E1))), E3)
    rhs = tuple(a - b for a, b in zip(
        o("rtri", E1, o("ltri", E2, E3)),
        o("ltri", E2, tuple(a + b for a, b in zip(o("rtri", E1, E3), o("ltri", E1, E3)))),
    ))
    if lhs == rhs:
        # first identity happens to hold there; the checker still found another witness
        assert rep.witnesses
    else:
        assert any(w.identity == "ldend.1" for w in rep.witnesses)


# ---------------------------------------------------------------------------
# quarter splittings
# ---------------------------------------------------------------------------

def test_check_pre_pp_final_example(final_prepp):
    assert check_pre_pp_post_lie(final_prepp).passed


def test_check_pre_pp_zero():
    assert check_pre_pp_post_lie(
        zero_algebra(2, ("se", "ne", "sw", "nw", "dot"))).passed


def test_check_pre_pp_mutated(final_prepp):
    # e1 se e2 gains an e2 term
    table = _with_entries(final_prepp.table("se"), {(1, 2, 2): 1, (1, 2, 3): 0})
    bad = final_prepp.with_op("se", table)
    rep = check_pre_pp_post_lie(bad)
    assert not rep.passed
    assert rep.witnesses


def test_check_pre_pp_precondition():
    # x . y with (x.y).z - x.(y.z) asymmetric
    t = _with_entries(_zero(2), {(1, 2, 1): 1, (2, 1, 2): 1, (2, 2, 1): 1})
    alg = Algebra(2, ops={"se": _zero(2), "ne": _zero(2), "sw": _zero(2),
                          "nw": _zero(2), "dot": t})
    if check_pre_lie(alg, "dot").passed:
        pytest.skip("accidentally pre-Lie")
    with pytest.raises(PreconditionError):
        check_pre_pp_post_lie(alg)


def test_sub_adjacent_pp_final_example(final_prepp, ahat_pp):
    sub = sub_adjacent_pp(final_prepp)
    assert check_pp_post_lie(sub).passed
    n = 3
    for op in ("rtri", "ltri", "bracket"):
        block = [ahat_pp.table(op)[i, j, k] for i in range(n) for j in range(n)
                 for k in range(n)]
        assert sub.table(op).entries == tuple(block)


def test_sub_adjacent_pp_zero():
    sub = sub_adjacent_pp(zero_algebra(2, ("se", "ne", "sw", "nw", "dot")))
    assert sub.table("rtri") == _zero(2)
    assert sub.table("ltri") == _zero(2)
    assert sub.table("bracket") == _zero(2)


# ---------------------------------------------------------------------------
# report mechanics and multilinearity
# ---------------------------------------------------------------------------

def test_violations_capped_and_sorted():
    rng = random.Random(7)
    table = Tensor((3, 3, 3), [sc(rng.randint(1, 3)) for _ in range(27)])
    rep = check_lie(Algebra(3, ops={"bracket": table}))
    assert not rep.passed
    assert len(rep.witnesses) <= 32
    keys = [(w.identity, w.indices) for w in rep.witnesses]
    assert keys == sorted(keys)


def test_zero_dim_algebra_passes_everything():
    alg = Algebra(0, ops={name: _zero(0) for name in (
        "circ", "bracket", "rtri", "ltri", "se", "ne", "sw", "nw", "dot")})
    assert check_lie(alg).passed
    assert check_pre_lie(alg).passed
    assert check_post_lie(alg).passed
    assert check_pp_post_lie(alg).passed
    assert check_l_dendriform(alg).passed
    assert check_pre_pp_post_lie(alg).passed


def _random_vec(rng, n):
    return tuple(Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                        Fraction(rng.randint(-1, 1), 1)) for _ in range(n))


def matrix_ldend():
    """The 2x2 matrices (basis E11, E12, E21, E22) as an L-dendriform
    algebra: x <| y = xy and x |> y = 0."""
    units = [(0, 0), (0, 1), (1, 0), (1, 1)]
    entries = [ONE if q == r and units.index((p, s)) == k else ZERO
               for p, q in units for r, s in units for k in range(4)]
    return Algebra(4, ops={"ltri": Tensor((4, 4, 4), entries), "rtri": _zero(4)})


def _reading(family, *ops):
    """The identities of family over the tables ops of an algebra."""
    return lambda alg: family(*alg.require(*ops))


# (set, the base: a fixture name or a function making it, its identities)
SETS = [
    ("lie", "sl2_lie", _reading(LIE_IDENTITIES, "bracket")),
    ("pre-lie", "final_prepp", _reading(PRE_LIE_IDENTITIES, "dot")),
    ("post-lie", "sl2_postlie", _reading(POST_LIE_IDENTITIES, "circ", "bracket")),
    ("pp-post-lie", "sl2_pp", _reading(PP_IDENTITIES, "rtri", "ltri", "bracket")),
    ("l-dendriform", matrix_ldend, _reading(L_DENDRIFORM_IDENTITIES, "rtri", "ltri")),
    ("pre-pp-post-lie", "final_prepp",
     _reading(PRE_PP_IDENTITIES, "se", "ne", "sw", "nw", "dot")),
]


def _base(request, base):
    return request.getfixturevalue(base) if isinstance(base, str) else base()


def _at(identity, side, vectors):
    """One side of identity with each index label contracted with its vector."""
    n = len(vectors[0])
    total = Tensor.zero(n)
    for t in side:
        inputs, output = t.spec.split("->")
        index = identity.index
        spec = ",".join([inputs] + list(index)) + "->" + output[len(index):]
        value = einsum(spec, *t.operands, *(Tensor((n,), v) for v in vectors))
        total = total + value.scale(Scalar(t.coef))
    return total


def test_multilinearity_spot_check(request):
    # identities verified on basis tuples must hold on arbitrary vectors
    rng = random.Random(8)
    for _, base, identities in SETS:
        alg = _base(request, base)
        for identity in identities(alg):
            for _ in range(5):
                vectors = [_random_vec(rng, alg.dim) for _ in identity.index]
                assert (_at(identity, identity.lhs, vectors)
                        == _at(identity, identity.rhs, vectors)), identity.name


# ---------------------------------------------------------------------------
# mutation adequacy: every identity of the six sets catches a one-entry change
# ---------------------------------------------------------------------------

CHECKERS = {
    "lie": check_lie,
    "pre-lie": lambda a: check_pre_lie(a, "dot"),
    "post-lie": check_post_lie,
    "pp-post-lie": check_pp_post_lie,
    "l-dendriform": check_l_dendriform,
    "pre-pp-post-lie": check_pre_pp_post_lie,
}

# identity -> (set, the table changed and its 0-based entry, which gains 1)
MUTANTS = {
    "lie.antisym": ("lie", "bracket", (0, 0, 0)),
    "lie.jacobi": ("lie", "bracket", (0, 0, 0)),
    "prelie.left-sym": ("pre-lie", "dot", (0, 1, 0)),
    "postlie.1": ("post-lie", "circ", (0, 0, 0)),
    "postlie.2": ("post-lie", "circ", (0, 0, 0)),
    "pp.1": ("pp-post-lie", "ltri", (0, 0, 0)),
    "pp.2a": ("pp-post-lie", "ltri", (0, 0, 0)),
    "pp.2b": ("pp-post-lie", "ltri", (0, 0, 0)),
    "pp.3": ("pp-post-lie", "rtri", (0, 0, 0)),
    "pp.4": ("pp-post-lie", "rtri", (0, 0, 0)),
    "pp.5": ("pp-post-lie", "rtri", (0, 0, 0)),
    "ldend.1": ("l-dendriform", "rtri", (0, 0, 0)),
    "ldend.2": ("l-dendriform", "rtri", (0, 0, 0)),
    "prepp.01": ("pre-pp-post-lie", "nw", (0, 1, 0)),
    "prepp.02": ("pre-pp-post-lie", "sw", (0, 1, 0)),
    "prepp.03a": ("pre-pp-post-lie", "sw", (0, 0, 1)),
    "prepp.03b": ("pre-pp-post-lie", "sw", (0, 1, 0)),
    "prepp.04a": ("pre-pp-post-lie", "sw", (1, 0, 0)),
    "prepp.04b": ("pre-pp-post-lie", "sw", (0, 0, 0)),
    "prepp.05": ("pre-pp-post-lie", "se", (0, 0, 0)),
    "prepp.06": ("pre-pp-post-lie", "ne", (0, 1, 0)),
    "prepp.07": ("pre-pp-post-lie", "se", (0, 0, 0)),
    "prepp.08": ("pre-pp-post-lie", "se", (0, 0, 0)),
    "prepp.09": ("pre-pp-post-lie", "ne", (0, 1, 0)),
    "prepp.10": ("pre-pp-post-lie", "se", (0, 0, 0)),
    "prepp.11": ("pre-pp-post-lie", "se", (0, 1, 0)),
}


def test_every_identity_has_a_mutant(request):
    names = {i.name for _, base, identities in SETS for i in identities(_base(request, base))}
    assert set(MUTANTS) == names


@pytest.mark.parametrize("identity", sorted(MUTANTS))
def test_single_entry_mutant_breaks_identity(identity, request):
    name, op, (i, j, k) = MUTANTS[identity]
    base = next(b for s, b, _ in SETS if s == name)
    alg = _base(request, base)
    check = CHECKERS[name]
    assert check(alg).passed
    table = alg.table(op)
    mutant = alg.with_op(op, _with_entries(table, {(i + 1, j + 1, k + 1): table[i, j, k] + ONE}))
    assert identity in {w.identity for w in check(mutant).witnesses}


# ---------------------------------------------------------------------------
# Scalars only at the edges: a check runs on numerators and builds Scalars
# for nothing but the witnesses its report keeps
# ---------------------------------------------------------------------------

def _gl_bracket(m):
    """gl_m on the matrix units E_ab: [E_ab, E_cd] = d_bc E_ad - d_da E_cb."""
    n = m * m
    entries = [ZERO] * n ** 3
    for a, b, c, d in itertools.product(range(m), repeat=4):
        at = ((a * m + b) * n + c * m + d) * n
        if b == c:
            entries[at + a * m + d] += ONE
        if d == a:
            entries[at + c * m + b] -= ONE
    return Algebra(n, ops={"bracket": Tensor((n, n, n), entries)})


def test_passing_checks_build_no_scalars(sl2_pp, ahat_pp, sl2_postlie, request):
    gl3 = _gl_bracket(3)
    built = request.getfixturevalue("scalars_built")
    reports = [check_pp_post_lie(sl2_pp), check_pp_post_lie(ahat_pp),
               check_post_lie(sl2_postlie), check_lie(gl3)]
    assert [r.passed for r in reports] == [True] * 4
    assert all(r.checked for r in reports)
    assert built == []


def test_failing_check_builds_scalars_only_for_kept_witnesses(request):
    gl3 = _gl_bracket(3)
    # 46 violations, of which the report keeps the first MAX_VIOLATIONS
    mutant = gl3.with_op("bracket", _with_entries(gl3.table("bracket"),
                                                  {(1, 2, 2): HALF, (5, 6, 6): IHALF}))
    built = request.getfixturevalue("scalars_built")
    report = check_lie(mutant)
    found = violations(report)
    assert not report.passed and len(found) == MAX_VIOLATIONS < 46
    # one Scalar per nonzero witness entry; zero entries are the shared ZERO
    assert len(built) == sum(1 for v in found for s in v.lhs + v.rhs if s)


def test_reading_the_verdict_builds_no_witness(sl2_pp, request):
    gl3 = _gl_bracket(3)
    mutant = gl3.with_op("bracket", _with_entries(gl3.table("bracket"),
                                                  {(1, 2, 2): HALF, (5, 6, 6): IHALF}))
    rng = random.Random(11)
    upper = {(i, j): _random_vec(rng, 1)[0] for i in range(3) for j in range(i + 1, 3)}
    r = Tensor((3, 3), [upper[i, j] if i < j else -upper[j, i] if j < i else ZERO
                        for i in range(3) for j in range(3)])
    # a comultiplication whose dual bracket is the mutant's is not co-Lie
    zero = Tensor.zero(9, 9, 9)
    not_colie = CoalgebraSpec(9, comaps={"delta_rtri": zero, "delta_ltri": zero,
                                         "Delta": mutant.table("bracket").permute((2, 0, 1))})
    checks = [lambda: check_lie(mutant), lambda: check_pppcybe(sl2_pp, r),
              lambda: operator_form_check(sl2_pp, r), lambda: check_pp_coalgebra(not_colie)]
    # the witnesses of a report read at once, as an eager report builds them
    expected = [violations(make()) for make in checks]
    assert expected[1][0] == Violation("cybe.c", (), cybe_C(sl2_pp, r).entries, (ZERO,) * 27)
    built = request.getfixturevalue("scalars_built")
    for make, want in zip(checks, expected):
        report = make()
        assert not report.passed and not report and report.checked > 0 and report.name
        renamed = dataclasses.replace(report, name="renamed")
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.name = "renamed"
        assert built == []
        assert violations(report) == want != () and isinstance(report.witnesses, tuple)
        # one Scalar per nonzero witness entry, as before
        assert len(built) == sum(1 for v in want for s in v.lhs + v.rhs if s)
        assert violations(renamed) == want
        built.clear()


# ---------------------------------------------------------------------------
# the verdict stops at the first failing identity; the rest wait for witnesses
# ---------------------------------------------------------------------------

def _sweep(name, *identities):
    """The report of identities, as the family of a fresh function of no tensors."""
    return algebra._sweep(name, lambda: identities, ())


def _one_entry(t):
    return [Identity("memo", "i", [term("i->i", t)])]


@pytest.fixture
def evaluations(monkeypatch):
    """The names of the identities algebra._evaluate evaluates, in order."""
    names, evaluate = [], algebra._evaluate

    def recorded(identity, *rest):
        names.append(identity.name)
        return evaluate(identity, *rest)

    monkeypatch.setattr(algebra, "_evaluate", recorded)
    return names


def test_the_verdict_evaluates_up_to_the_first_failing_identity(sl2_pp, evaluations):
    ltri = sl2_pp.table("ltri")
    mutant = sl2_pp.with_op("ltri", _with_entries(ltri, {(1, 1, 1): ltri[0, 0, 0] + ONE}))
    tables = sl2_pp.require("rtri", "ltri", "bracket")
    names = [identity.name for identity in PP_IDENTITIES(*tables)]
    for alg, passed, first in ((mutant, False, names[:1]), (sl2_pp, True, names)):
        report = check_pp_post_lie(alg)     # its Lie precondition is read in the call
        evaluations.clear()
        assert report.passed is passed
        assert evaluations == first
        report.render()
        assert report.passed is passed
        assert evaluations == names         # each identity once, in order


def test_every_error_is_raised_when_the_check_is_called(evaluations):
    m, wide = Tensor.identity(3), Tensor.zero(3, 2)
    for identity, error, message in [
        (Identity("extents", "ik", [term("ij,jk->ik", m, wide.transpose())]),
         LinAlgError, "label 'j' has extents 3 and 2"),
        (Identity("order", "ij", [term("ij->ji", m)]), ValueError, "does not lead"),
        (Identity("shapes", "i", [term("ij->ij", m)], [term("ij->ij", wide)]),
         LinAlgError, "terms differ in shape"),
    ]:
        with pytest.raises(error, match=message):
            _sweep("bad", identity)
    assert evaluations == []


def test_pp_coalg_both_modes_evaluate_the_co_lie_identities_once(tmp_path, capsys, evaluations):
    gl3 = _gl_bracket(3)
    mutant = gl3.with_op("bracket", _with_entries(gl3.table("bracket"), {(1, 2, 2): HALF}))
    zero = Tensor.zero(9, 9, 9)
    not_colie = CoalgebraSpec(9, comaps={"delta_rtri": zero, "delta_ltri": zero,
                                         "Delta": mutant.table("bracket").permute((2, 0, 1))})
    path = tmp_path / "not_colie.txt"
    path.write_text(dumps(Document.from_coalgebra(not_colie)))
    assert main(["check", "pp-coalg", str(path), "--mode", "both"]) == 1
    out = capsys.readouterr().out
    assert out.count("pp-coalgebra: FAIL") == 2 and "dual.lie.antisym" in out
    assert sorted(evaluations) == ["lie.antisym", "lie.jacobi"]


def test_a_renamed_report_evaluates_no_identity_again(evaluations):
    report = check_pp_post_lie(corpus_doc("sl2_pp_broken").to_algebra())
    evaluations.clear()                 # its Lie precondition is read in the call
    text = report.render()
    assert not report.passed and len(evaluations) == len(report.parts)
    evaluations.clear()
    renamed = dataclasses.replace(report, name="renamed")
    assert renamed.render() == text.replace(report.name, "renamed", 1)
    assert not renamed.passed and renamed.checked == report.checked
    assert evaluations == []


def test_a_second_read_of_the_witnesses_evaluates_nothing(evaluations, monkeypatch):
    # a report keeps its witnesses after the first read: the second returns
    # the same tuple, evaluates no identity and reads no memo entry
    report = check_pp_post_lie(corpus_doc("sl2_pp_broken").to_algebra())
    parts = [part for _, part in report.parts]
    evaluations.clear()
    first = report.witnesses
    assert first and evaluations
    evaluations.clear()
    reads = []

    class Memo(dict):
        def get(self, key, default=None):
            reads.append(key)
            return super().get(key, default)
    monkeypatch.setattr(algebra, "_MEMO", Memo(algebra._MEMO))
    assert report.witnesses is first
    assert all(part.witnesses is part.witnesses for part in parts)
    assert evaluations == [] and reads == []


def test_a_report_repr_leaves_out_its_planned_operands(ahat_pp):
    """A failing assert on a report prints its repr: names and parts, not
    the operand tensors of every planned identity."""
    report = check_pp_post_lie(ahat_pp)
    text = repr(report)
    assert len(text) < 1000 and "pp.5" in text and "plan" not in text


# ---------------------------------------------------------------------------
# the verdict memo: each leaf is evaluated once per value
# ---------------------------------------------------------------------------

def test_the_memo_remembers_a_verdict_by_value(sl2_pp, evaluations):
    horizontal_post_lie(sl2_pp)
    assert {"lie.jacobi", "pp.5"} <= set(evaluations)
    evaluations.clear()
    # fresh tensors with the same entries, under other basis names
    copy = Algebra(3, sl2_pp.field, ("x", "y", "z"),
                   {op: Tensor(t.shape, list(t.entries)) for op, t in sl2_pp.ops.items()})
    assert horizontal_post_lie(copy).ops == horizontal_post_lie(sl2_pp).ops
    assert evaluations == []
    ltri = sl2_pp.table("ltri")
    mutant = sl2_pp.with_op("ltri", _with_entries(ltri, {(1, 2, 3): ltri[0, 1, 2] + ONE}))
    seen = []
    for _ in range(3):      # a failure is remembered as a pass is
        evaluations.clear()
        with pytest.raises(PreconditionError, match="^not a pp-post-Lie algebra$") as caught:
            horizontal_post_lie(mutant)
        report = caught.value.report
        assert report.name == "pp-post-lie" and not report.passed
        seen.append(violations(report))
        assert seen[-1] == seen[0] != ()
        assert ("pp.1" in evaluations) is (len(seen) == 1)
    assert evaluations == []


def test_the_memo_holds_at_most_its_bound(evaluations):
    def leaf(k):    # a fresh one-identity report, which passes for k = 0 only
        return algebra._sweep("memo", _one_entry, (Tensor((1,), [k]),))

    bound = algebra._MEMO_MAX
    for k in range(bound + 1):
        assert leaf(k).passed is (k == 0)
        assert len(algebra._MEMO) == min(k + 1, bound)
    assert len(evaluations) == bound + 1
    # the oldest entry was dropped first: it is evaluated again, and the
    # next oldest and the newest are not
    evaluations.clear()
    assert not leaf(bound).passed and not leaf(1).passed
    assert evaluations == []
    assert leaf(0).passed
    assert evaluations == ["memo"]


def _differing_leaves():
    """Pairs of identities equal in all but one part of the memo key."""
    m, other = Tensor((2, 2), [1, 2, 0, 3]), Tensor((2, 2), [1, 2, 0, 4])
    t, u = term("ij->ij", m), term("ij->ij", other)
    return {
        "name": (Identity("a", "ij", [t]), Identity("b", "ij", [t])),
        "index labels": (Identity("a", "ij", [t]), Identity("a", "i", [t])),
        "spec": (Identity("a", "ij", [t]), Identity("a", "ij", [term("ji->ij", m)])),
        "coefficient": (Identity("a", "ij", [t], [t]),
                        Identity("a", "ij", [t], [Term("ij->ij", (m,), 2)])),
        "side": (Identity("a", "ij", [t], [u]), Identity("a", "ij", [t, -u])),
    }


@pytest.mark.parametrize("part", list(_differing_leaves()))
def test_leaves_that_differ_in_one_part_of_the_key_miss_the_memo(part, evaluations):
    first, second = _differing_leaves()[part]
    cold = violations(_sweep("cold", second))
    algebra._MEMO.clear()
    violations(_sweep("warm", first))
    evaluations.clear()
    assert violations(_sweep("warm", second)) == cold
    assert evaluations == [second.name]


def test_a_one_entry_mutant_misses_the_memo(sl2_pp, evaluations):
    assert check_pp_post_lie(sl2_pp).passed
    ltri = sl2_pp.table("ltri")
    mutant = sl2_pp.with_op("ltri", _with_entries(ltri, {(2, 2, 2): ltri[1, 1, 1] + ONE}))
    evaluations.clear()
    report = check_pp_post_lie(mutant)
    assert not report.passed and evaluations == ["pp.1"]


def test_a_leaf_under_another_witness_limit_misses_the_memo(evaluations):
    # the quasitriangularity check keeps one witness per identity
    # and the family cache keys its plans by the limit too
    family = lambda: [Identity("limit", "ij", [term("ij->ij", Tensor.identity(3))])]
    every = algebra._sweep("limit", family, ())
    one = algebra._sweep("limit", family, (), per_identity=1)
    assert [w.indices for w in every.witnesses] == [(0, 0), (1, 1), (2, 2)]
    assert [w.indices for w in one.witnesses] == [(0, 0)]
    assert evaluations == ["limit", "limit"]


def test_a_wrapped_precondition_shares_its_evaluations(sl2_postlie, kappa, evaluations,
                                                       monkeypatch):
    # a tracer wraps a checker in another function object; the memo is keyed
    # by the identities it builds, not by the function that built them
    from postlie import forms
    check = forms.check_post_lie
    monkeypatch.setattr(forms, "check_post_lie", lambda alg: check(alg))
    sub_adjacent_lie(sl2_postlie)
    assert forms.check_invariant_form(sl2_postlie, kappa).passed
    assert [name for name in evaluations if name.startswith("postlie.")] == [
        "postlie.1", "postlie.2"]


def test_hom_embed_r_establishes_its_representation_once(final_prepp, final_P, evaluations):
    sub, qrep = sub_adjacent_pp(final_prepp), quarter_split_rep(final_prepp)
    evaluations.clear()
    for t in (Tensor.identity(3), final_P):
        hom_embed_r(sub, qrep, t)
    pprep = [name for name in evaluations if name.startswith("pprep.")]
    assert pprep and len(pprep) == len(set(pprep))


def test_manin_triple_build_evaluates_each_post_lie_identity_once(
        ahat_pp, final_cobrackets, evaluations):
    """The double's post-Lie report is the one the invariance check requires."""
    double, _, report = manin_triple_build(ahat_pp, dualize(final_cobrackets))
    assert report.passed and double.dim == 12
    report.render()
    assert [name for name in evaluations if name.startswith("postlie.")] == [
        "postlie.1", "postlie.2"]
    post_lie = dict(report.parts)["manin.post-lie"]
    assert post_lie.name == "post-lie" and post_lie.passed


def test_only_two_public_functions_can_skip_their_precondition():
    # the benchmark self-test builds expected doubles with checked=False
    import postlie
    public = {name: getattr(postlie, name) for name in postlie.__all__}
    assert len(public) == 99
    switched = {name for name, value in public.items() if inspect.isfunction(value)
                and "checked" in inspect.signature(value).parameters}
    assert switched == {"semidirect_pp", "dual_pp_rep"}


# ---------------------------------------------------------------------------
# the signed integer accumulation of lhs - rhs against a Tensor sum per term
# ---------------------------------------------------------------------------

def _random_tensor(rng, shape, den):
    """About half the entries zero, the others Gaussian rationals over den."""
    size = 1
    for n in shape:
        size *= n
    return Tensor(shape, [Scalar(Fraction(rng.randint(-3, 3), den),
                                 Fraction(rng.choice([0, rng.randint(-2, 2)]), den))
                          if rng.random() < 0.5 else ZERO for _ in range(size)])


def _reference_sides(identity):
    """Each side of identity summed term by term as Tensors (einsum, scale, +)."""
    first = (identity.lhs or identity.rhs)[0]
    shape = einsum(first.spec, *first.operands).shape
    return tuple(sum((einsum(t.spec, *t.operands).scale(Scalar(t.coef)) for t in side),
                     Tensor.zero(*shape)) for side in (identity.lhs, identity.rhs))


def _reference(identity):
    """The instance count and every violation of identity, its two
    reference sides compared entry by entry."""
    k = len(identity.index)
    lhs, rhs = _reference_sides(identity)
    shape = lhs.shape
    values = list(itertools.product(*map(range, shape[k:])))
    tuples = list(itertools.product(*map(range, shape[:k])))
    found = []
    for idx in tuples:
        at_l, at_r = (tuple(side[idx + v] for v in values) for side in (lhs, rhs))
        if at_l != at_r:
            found.append(Violation(identity.name, idx, at_l, at_r))
    return len(tuples), found


def _parity_identities(rng):
    """Identities over random operands that hold everywhere except at known
    index tuples, with (index labels, failing index tuples) for each."""
    n = 3
    a, b = _random_tensor(rng, (n, n, n), 2), _random_tensor(rng, (n, n, n), 3)
    m, p = _random_tensor(rng, (n, n), 5), _random_tensor(rng, (n, n), 7)
    third = Tensor.identity(n).scale(Scalar(Fraction(1, 3)))
    # the perturbations, nonzero only at the failing index tuples
    s = sparse((n, n), {1: Scalar(Fraction(4, 11), Fraction(1, 11)), 8: ONE})
    s3 = sparse((n, n, n), {7: Scalar(Fraction(2, 13)), 18: Scalar(0, Fraction(1, 13))})
    t3 = sparse((n, n, n), {11: Scalar(Fraction(5, 17))})
    return [
        # terms over 2 * 5, 3 and 2 * 7 against 2 * 5 * 7, 3 and 13
        (Identity("mixed", "ij", [term("ijm,mk->ijk", a, m), -term("jik->ijk", b),
                                  Term("ijm,mk->ijk", (a, p), -1)],
                  [term("ijm,mk->ijk", a, m - p), -term("jik->ijk", b), term("ijk->ijk", s3)]),
         [(0, 2), (2, 0)]),
        (Identity("no-rhs", "k", [term("kpq->kpq", a + a.permute((0, 2, 1))),
                                  -term("kqp->kpq", a), -term("kpq->kpq", a),
                                  term("kpq->kpq", t3)]),
         [(1,)]),
        (Identity("no-lhs", "i", [], [term("ij->ij", m), Term("ij->ij", (m,), -1),
                                      term("ij->ij", s)]),
         [(0,), (2,)]),
        # m / 3 over 3 * 5 and over 15
        (Identity("cancel", "ij", [term("ia,aj->ij", m, third), term("ij->ij", s)],
                  [term("ij->ij", m.scale(Scalar(Fraction(1, 3))))]),
         [(0, 1), (2, 2)]),
    ]


@pytest.mark.parametrize("seed", range(6))
def test_accumulation_matches_a_tensor_sum_per_term(seed):
    for identity, failing in _parity_identities(random.Random(seed)):
        report = _sweep(identity.name, identity)
        count, found = report.checked, report.witnesses
        want_count, want = _reference(identity)
        assert count == want_count, identity.name
        assert list(violations(report)) == want, identity.name
        # entries that cancel exactly are no violations
        assert [w.indices for w in found] == failing, identity.name
        lhs, rhs = _reference_sides(identity)
        assert algebra._side(identity.lhs, lhs.shape) == lhs, identity.name
        assert algebra._side(identity.rhs, rhs.shape) == rhs, identity.name
