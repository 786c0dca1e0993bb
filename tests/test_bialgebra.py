import random
from fractions import Fraction

import pytest

from postlie import (
    Algebra,
    CoalgebraSpec,
    LinAlgError,
    Matrix,
    PreconditionError,
    Scalar,
    Tensor,
    check_lie_bialgebra,
    check_lie_coalgebra,
    check_o_operator_pp,
    check_pp_bialgebra,
    check_pp_coalgebra,
    check_pp_post_lie,
    check_pppcybe,
    check_quasitriangular_conditions,
    cobrackets_from_r,
    cybe_C,
    cybe_D,
    dualize,
    dualize_alg,
    hom_embed_r,
    operator_form_check,
    pp_adjoint_rep,
    pp_coadjoint_rep,
    pre_pp_from_o_operator,
    sc,
    semidirect_pp,
    sub_adjacent_pp,
)
from postlie.forms import PPRepSpec
from vectors import act, apply, basis_vec, from_rows, mul, ref_kron, sparse


def _zero(n):
    return Tensor.zero(n, n, n)


def _unit(n, i, j):
    """The n x n matrix with a single 1 at (i, j)."""
    return Matrix((n, n), [sc(1) if (a, b) == (i, j) else sc(0)
                           for a in range(n) for b in range(n)])


def _zero_coalgebra(n, names=("delta_rtri", "delta_ltri", "Delta")):
    return CoalgebraSpec(n, comaps={name: _zero(n) for name in names})


# ---------------------------------------------------------------------------
# dualization
# ---------------------------------------------------------------------------

def test_dualize_zero():
    co = _zero_coalgebra(2)
    alg = dualize(co)
    for op in ("rtri", "ltri", "bracket"):
        assert alg.table(op) == _zero(2)


def test_dualize_roundtrip(sl2_pp, ahat_pp):
    for alg in (sl2_pp, ahat_pp):
        co = dualize_alg(alg)
        assert dualize(co).ops == alg.ops


def test_dualize_alg_maps_only_the_tables_an_algebra_has(sl2_lie, sl2_postlie):
    for alg in (sl2_lie, sl2_postlie):
        co = dualize_alg(alg)
        assert set(co.comaps) == {"Delta"}
        assert dualize(co).ops == {"bracket": alg.table("bracket")}


def test_dualize_index_shuffle(final_cobrackets):
    # <a* . b*, x> = <a* (x) b*, delta(x)> means c[i, j, k] = d[k, i, j]
    alg = dualize(final_cobrackets)
    d = final_cobrackets.table("Delta")
    c = alg.table("bracket")
    n = final_cobrackets.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert c[i, j, k] == d[k, i, j]


# ---------------------------------------------------------------------------
# coalgebras
# ---------------------------------------------------------------------------

def test_coalgebra_refuses_a_basis_of_the_wrong_length():
    with pytest.raises(LinAlgError, match="basis names do not match dimension"):
        CoalgebraSpec(2, basis=("a",))
    assert CoalgebraSpec(2, basis=("a", "b")).basis == ("a", "b")


@pytest.mark.parametrize("record, name", [(Algebra, "circ"), (CoalgebraSpec, "Delta")])
def test_tables_with_an_entry_that_is_not_real_are_over_q_i(record, name):
    # algebras and coalgebras share one rule, so what they build over Q reads back
    real, imaginary = (sparse((2, 2, 2), {1: s}) for s in (sc(1), sc("1/2i")))
    assert record(2, "Q", (), {name: real}).field == "Q"
    assert record(2, "Q", (), {name: imaginary}).field == "Q(i)"
    assert record(2, "Q(i)", (), {name: real}).field == "Q(i)"
    with pytest.raises(LinAlgError, match="unknown field 'R'"):
        record(2, "R")


def test_lie_coalgebra_zero():
    assert check_lie_coalgebra(_zero_coalgebra(3, ("Delta",))).passed


def test_lie_coalgebra_final(final_cobrackets):
    assert check_lie_coalgebra(final_cobrackets).passed


def test_lie_coalgebra_symmetric_fails():
    d = Tensor((2, 2, 2), [sc(1) if f == 4 else sc(0) for f in range(8)])
    assert d[1, 0, 0] == sc(1)  # Delta(e2) = e1 (x) e1 is symmetric
    co = CoalgebraSpec(2, comaps={"Delta": d})
    rep = check_lie_coalgebra(co)
    assert not rep.passed
    assert any("antisym" in v.identity for v in rep.witnesses)


def test_pp_coalgebra_zero():
    co = _zero_coalgebra(2)
    assert check_pp_coalgebra(co, "dual").passed
    assert check_pp_coalgebra(co, "direct").passed


def test_pp_coalgebra_dual_of_split(sl2_pp):
    co = dualize_alg(sl2_pp)
    assert check_pp_coalgebra(co, "dual").passed
    assert check_pp_coalgebra(co, "direct").passed


def test_pp_coalgebra_corpus(final_cobrackets):
    assert check_pp_coalgebra(final_cobrackets, "dual").passed
    assert check_pp_coalgebra(final_cobrackets, "direct").passed


def test_pp_coalgebra_refuses_an_unknown_mode_before_the_co_lie_check(final_cobrackets):
    # Delta + delta_rtri is not co-Lie, so a known mode reports FAIL; an
    # unknown mode raises for it as for the co-Lie final_cobrackets
    tables = {name: final_cobrackets.table(name) for name in ("delta_rtri", "delta_ltri")}
    not_colie = CoalgebraSpec(6, comaps={
        **tables, "Delta": final_cobrackets.table("Delta") + tables["delta_rtri"]})
    assert not check_pp_coalgebra(not_colie, "dual").passed
    for co in (final_cobrackets, not_colie):
        with pytest.raises(ValueError, match=r"^mode must be 'dual' or 'direct'$"):
            check_pp_coalgebra(co, "bogus")


def _random_coalgebra(rng, n):
    def table():
        entries = [sc(0)] * n ** 3
        for _ in range(3):
            value = Scalar(Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
            i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            entries[(i * n + j) * n + k] = value
        return Tensor((n, n, n), entries)
    return CoalgebraSpec(n, comaps={"delta_rtri": table(),
                                    "delta_ltri": table(),
                                    "Delta": table()})


def test_pp_coalgebra_modes_agree_on_random():
    # the direct identity transcription must agree with the dualized checker
    rng = random.Random(11)
    agreements = 0
    for _ in range(10):
        co = _random_coalgebra(rng, 2)
        dual_rep = check_pp_coalgebra(co, "dual")
        try:
            direct_rep = check_pp_coalgebra(co, "direct")
        except PreconditionError:
            # direct mode refuses non-Lie comultiplications; the dual mode
            # must agree that the instance fails
            assert not dual_rep.passed
            continue
        assert dual_rep.passed == direct_rep.passed
        agreements += 1
    assert agreements >= 1


# ---------------------------------------------------------------------------
# bialgebras
# ---------------------------------------------------------------------------

def test_lie_bialgebra_zero_delta(sl2_lie):
    co = _zero_coalgebra(3, ("Delta",))
    assert check_lie_bialgebra(sl2_lie, co).passed


def test_lie_bialgebra_corpus(ahat_pp, final_cobrackets):
    alg = Algebra(6, ops={"bracket": ahat_pp.table("bracket")})
    co = CoalgebraSpec(6, comaps={"Delta": final_cobrackets.table("Delta")})
    assert check_lie_bialgebra(alg, co).passed


def test_lie_bialgebra_flipped_sign_fails(ahat_pp, final_cobrackets):
    alg = Algebra(6, ops={"bracket": ahat_pp.table("bracket")})
    delta = final_cobrackets.table("Delta")
    # negate Delta(e2) only: co-antisymmetry survives, the cocycle breaks
    d = Tensor(delta.shape, [-x if f // 36 == 1 else x for f, x in enumerate(delta.entries)])
    co = CoalgebraSpec(6, comaps={"Delta": d})
    rep = check_lie_bialgebra(alg, co)
    assert not rep.passed
    assert any(v.identity == "bialg.cocycle" for v in rep.witnesses)


def test_pp_bialgebra_zero_comaps(sl2_pp):
    assert check_pp_bialgebra(sl2_pp, _zero_coalgebra(3)).passed


def test_pp_bialgebra_corpus(ahat_pp, final_cobrackets):
    assert check_pp_bialgebra(ahat_pp, final_cobrackets).passed


def test_pp_bialgebra_wrong_sign_fails(ahat_pp, final_cobrackets):
    # the other sign convention for delta_ltri violates compatibility
    flipped = -final_cobrackets.table("delta_ltri")
    co = CoalgebraSpec(6, comaps={
        "delta_rtri": final_cobrackets.table("delta_rtri"),
        "delta_ltri": flipped,
        "Delta": final_cobrackets.table("Delta"),
    })
    rep = check_pp_bialgebra(ahat_pp, co)
    assert not rep.passed


# ---------------------------------------------------------------------------
# the Yang-Baxter tensors
# ---------------------------------------------------------------------------

def test_cybe_zero_tensor(sl2_pp):
    assert cybe_C(sl2_pp, Matrix.zero(3, 3)).is_zero()
    assert cybe_D(sl2_pp, Matrix.zero(3, 3)).is_zero()


def test_cybe_corpus_solution(ahat_pp, r6):
    assert cybe_C(ahat_pp, r6).is_zero()
    assert cybe_D(ahat_pp, r6).is_zero()
    assert check_pppcybe(ahat_pp, r6).passed


def test_cybe_abelian_bracket():
    alg = Algebra(2, ops={"rtri": _zero(2), "ltri": _zero(2), "bracket": _zero(2)})
    r = from_rows([[sc(1), sc(2)], [sc(3), sc(4)]])
    assert cybe_C(alg, r).is_zero()
    assert cybe_D(alg, r).is_zero()


def test_cybe_component_convention(sl2_pp):
    # D(r)'s first term places a_i <| a_j in slot 1, b_j in slot 2, b_i in
    # slot 3; pin it with a rank-one tensor r = e1 (x) e2
    r = _unit(3, 0, 1)
    d = cybe_D(sl2_pp, r)
    expected = [sc(0)] * 27

    def add(i, j, k, value):
        expected[(i * 3 + j) * 3 + k] += value
    # single (i, j) pair: a = e1, b = e2
    lt = mul(sl2_pp, "ltri", basis_vec(3, 0), basis_vec(3, 0))
    for k in range(3):
        if lt[k]:
            add(k, 1, 1, lt[k])
    bullet = tuple(x - y for x, y in zip(
        mul(sl2_pp, "rtri", basis_vec(3, 1), basis_vec(3, 0)),
        mul(sl2_pp, "ltri", basis_vec(3, 0), basis_vec(3, 1))))
    for k in range(3):
        if bullet[k]:
            add(0, k, 1, bullet[k])
    circ = tuple(x + y for x, y in zip(
        mul(sl2_pp, "rtri", basis_vec(3, 1), basis_vec(3, 1)),
        mul(sl2_pp, "ltri", basis_vec(3, 1), basis_vec(3, 1))))
    for k in range(3):
        if circ[k]:
            add(0, 0, k, circ[k])
    assert d == Tensor((3, 3, 3), expected)


def test_pppcybe_mutated_fails(ahat_pp, r6):
    r = r6 + _unit(6, 0, 3)
    rep = check_pppcybe(ahat_pp, r)
    assert not rep.passed
    assert rep.witnesses


# ---------------------------------------------------------------------------
# cobrackets from r
# ---------------------------------------------------------------------------

def test_cobrackets_zero(sl2_pp):
    co = cobrackets_from_r(sl2_pp, Matrix.zero(3, 3))
    for name in ("delta_rtri", "delta_ltri", "Delta"):
        assert co.table(name) == _zero(3)


def test_cobrackets_corpus(ahat_pp, r6, final_cobrackets):
    co = cobrackets_from_r(ahat_pp, r6)
    for name in ("delta_rtri", "delta_ltri", "Delta"):
        assert co.table(name) == final_cobrackets.table(name)


def test_cobrackets_vanish_on_central_elements(sl2_pp):
    # extend by a central, product-trivial direction and check its comaps
    z = Tensor.zero(3, 1, 1)
    rep = PPRepSpec(z, z, z, z, z)
    ext = semidirect_pp(sl2_pp, rep)
    rng = random.Random(12)
    r = from_rows([[Scalar(Fraction(rng.randint(-2, 2), 1)) for _ in range(4)]
                          for _ in range(4)])
    co = cobrackets_from_r(ext, r)
    for name in ("delta_rtri", "delta_ltri", "Delta"):
        assert all(not co.table(name)[3, i, j] for i in range(4) for j in range(4))


def test_cobrackets_antisymmetric_bookkeeping(ahat_pp, r6):
    minus_tau = -(r6.transpose())
    a = cobrackets_from_r(ahat_pp, r6)
    b = cobrackets_from_r(ahat_pp, minus_tau)
    for name in ("delta_rtri", "delta_ltri", "Delta"):
        assert a.table(name) == b.table(name)


def test_bialgebra_from_antisymmetric_solutions(sl2_pp, final_P):
    # every antisymmetric solution produced by embedding an operator gives
    # a bialgebra
    rep = pp_adjoint_rep(sl2_pp)
    ahat, r = hom_embed_r(sl2_pp, rep, final_P)
    assert check_pppcybe(ahat, r).passed
    co = cobrackets_from_r(ahat, r)
    assert check_pp_bialgebra(ahat, co).passed


# ---------------------------------------------------------------------------
# quasitriangular conditions
# ---------------------------------------------------------------------------

def test_quasi_corpus_solution(ahat_pp, r6):
    rep = check_quasitriangular_conditions(ahat_pp, r6)
    assert rep.passed


def test_quasi_zero(sl2_pp):
    assert check_quasitriangular_conditions(sl2_pp, Matrix.zero(3, 3)).passed


def test_quasi_symmetric_fails(ahat_pp):
    r = _unit(6, 0, 0)
    rep = check_quasitriangular_conditions(ahat_pp, r)
    assert not rep.passed
    idents = {v.identity for v in rep.witnesses}
    assert any(ident.startswith("quasi.inv") for ident in idents)


def test_efg_matrix_convention(sl2_pp):
    # the documented n^2 x n^2 operator matrices M (x) id + id (x) N, as
    # row-major Kronecker products, agree with the sandwich implementation
    # on vectorised tensors
    from postlie.bialgebra import _efg
    adj = pp_adjoint_rep(sl2_pp)
    rng = random.Random(13)
    n = 3
    r = from_rows([[Scalar(Fraction(rng.randint(-3, 3), 1), Fraction(rng.randint(-1, 1)))
                           for _ in range(n)] for _ in range(n)])
    E, F, G = _efg(adj, r)
    eye = Matrix.identity(n)
    for k in range(n):
        x = basis_vec(n, k)
        rt, lt, rrt, rlt, ad = (act(c, x) for c in (adj.l_rt, adj.l_lt, adj.r_rt, adj.r_lt,
                                                    adj.rho))
        diamond, circ, bullet = lt + rt - rlt - rrt, rt + lt, rt - rlt
        for m1, m2, small in ((rt, diamond, E), (circ, bullet, F), (ad, ad, G)):
            big = ref_kron(m1, eye) + ref_kron(eye, m2)
            assert apply(big, r.entries) == act(small, x).entries


# ---------------------------------------------------------------------------
# operator form of the equation
# ---------------------------------------------------------------------------

def test_operator_form_corpus(ahat_pp, r6):
    rep = operator_form_check(ahat_pp, r6)
    assert rep.passed
    assert check_pppcybe(ahat_pp, r6).passed == rep.passed


def test_operator_form_zero(sl2_pp):
    assert operator_form_check(sl2_pp, Matrix.zero(3, 3)).passed


def test_operator_form_requires_antisymmetry(sl2_pp):
    r = _unit(3, 0, 0)
    with pytest.raises(PreconditionError):
        operator_form_check(sl2_pp, r)


def _random_antisymmetric(rng, n):
    upper = {(i, j): Scalar(Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                            Fraction(rng.randint(-1, 1)))
             for i in range(n) for j in range(i + 1, n)}
    return Matrix((n, n), [upper[i, j] if i < j else -upper[j, i] if j < i else sc(0)
                           for i in range(n) for j in range(n)])


def test_operator_form_agreement_random(sl2_pp):
    rng = random.Random(14)
    for _ in range(15):
        r = _random_antisymmetric(rng, 3)
        assert operator_form_check(sl2_pp, r).passed == \
            check_pppcybe(sl2_pp, r).passed


def test_rtilde_convention(ahat_pp, r6):
    # <r~(u*), v*> = <r, u* (x) v*> makes r~ the transpose of r's table;
    # r6 sends e_i* to e_i on the double
    rep = pp_coadjoint_rep(ahat_pp)
    rtilde = r6.transpose()
    assert check_o_operator_pp(ahat_pp, rep, rtilde).passed
    assert apply(rtilde, basis_vec(6, 3)) == basis_vec(6, 0)


# ---------------------------------------------------------------------------
# an independent richer quarter-split instance
# ---------------------------------------------------------------------------

def test_quarter_split_from_rmatrix_operator(ahat_pp, r6):
    # r6 solves the equation, so r~ is an O-operator on the coadjoint
    # representation; the induced 6-dim quarter splitting must satisfy
    # all eleven identities (a stronger probe than the bundled example)
    rep = pp_coadjoint_rep(ahat_pp)
    rtilde = r6.transpose()
    prepp6 = pre_pp_from_o_operator(ahat_pp, rep, rtilde)
    from postlie import check_pre_pp_post_lie
    assert check_pre_pp_post_lie(prepp6).passed
    sub = sub_adjacent_pp(prepp6)
    assert check_pp_post_lie(sub).passed
