import random
from fractions import Fraction

import pytest

from postlie import (
    Algebra,
    PreconditionError,
    Scalar,
    Tensor,
    UnknownOperationError,
    apply_op,
    basis_vec,
    check_l_dendriform,
    check_lie,
    check_post_lie,
    check_pp_post_lie,
    check_pre_lie,
    check_pre_pp_post_lie,
    horizontal_post_lie,
    opposite_post_lie,
    sc,
    sub_adjacent_lie,
    sub_adjacent_pp,
    transpose_pp,
    vertical_post_lie,
    zero_vec,
)
from postlie.algebra import (
    POST_LIE_IDENTITIES,
    PP_IDENTITIES,
)

E1, E2, E3 = (basis_vec(3, i) for i in range(3))
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

def test_apply_bracket(sl2_lie):
    assert apply_op(sl2_lie, "bracket", E1, E2) == E3
    assert apply_op(sl2_lie, "bracket", E2, E3) == E1
    assert apply_op(sl2_lie, "bracket", E3, E1) == E2


def test_apply_bilinear_zero(sl2_lie):
    assert apply_op(sl2_lie, "bracket", zero_vec(3), E2) == zero_vec(3)
    two_e1 = tuple(sc(2) * c for c in E1)
    assert apply_op(sl2_lie, "bracket", two_e1, E2) == tuple(sc(2) * c for c in E3)


def test_apply_circ(sl2_postlie):
    assert apply_op(sl2_postlie, "circ", E2, E2) == (sc("-1/2i"), sc(0), sc(0))
    assert apply_op(sl2_postlie, "circ", E2, E1) == (sc(0), IHALF, HALF)


def test_apply_errors(sl2_lie):
    with pytest.raises(UnknownOperationError):
        apply_op(sl2_lie, "circ", E1, E2)
    with pytest.raises(ValueError):
        apply_op(sl2_lie, "bracket", (sc(1),), E2)


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
    assert rep.violations
    first = rep.violations[0]
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
    o = lambda x, y: sl2_postlie.mul("circ", x, y)
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
                    sl2_postlie.mul("circ", x, y),
                    sl2_postlie.mul("circ", y, x),
                    sl2_postlie.mul("bracket", x, y),
                ))
            assert sub.mul("bracket", x, y) == direct


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
    o = lambda a, x, y: sl2_pp.mul(a, x, y)
    lhs = o("ltri", tuple(a - b for a, b in zip(o("rtri", E1, E2), o("ltri", E2, E1))), E3)
    rhs = tuple(a - b for a, b in zip(
        o("rtri", E1, o("ltri", E2, E3)),
        o("ltri", E2, tuple(a + b for a, b in zip(o("rtri", E1, E3), o("ltri", E1, E3)))),
    ))
    if lhs == rhs:
        # first identity happens to hold there; the checker still found another witness
        assert rep.violations
    else:
        assert any(v.identity == "ldend.1" for v in rep.violations)


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
    assert rep.violations


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
    assert len(rep.violations) <= 32
    keys = [(v.identity, v.indices) for v in rep.violations]
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


def test_multilinearity_spot_check(sl2_postlie, sl2_pp):
    # identities verified on basis triples must hold on arbitrary vectors
    rng = random.Random(8)
    for ident, fn, arity in POST_LIE_IDENTITIES(sl2_postlie):
        for _ in range(20):
            args = [_random_vec(rng, 3) for _ in range(arity)]
            lhs, rhs = fn(*args)
            assert lhs == rhs, ident
    for ident, fn, arity in PP_IDENTITIES(sl2_pp):
        for _ in range(20):
            args = [_random_vec(rng, 3) for _ in range(arity)]
            lhs, rhs = fn(*args)
            assert lhs == rhs, ident
