import dataclasses

import pytest

from postlie import (
    Algebra,
    Matrix,
    ONE,
    PreconditionError,
    adjoint_rep,
    check_dual_p_o_operator,
    check_gph,
    check_invariant_form,
    check_left_invariant,
    check_o_operator_pp,
    check_post_lie,
    check_post_lie_rep,
    check_pp_post_lie,
    check_pp_rep,
    check_rota_baxter_lie,
    check_strong,
    dual_map,
    dual_pp_rep,
    einsum,
    horizontal_post_lie,
    induced_post_lie,
    omega_cocycle,
    opposite_post_lie,
    pp_adjoint_rep,
    pp_coadjoint_rep,
    pp_from_dual_p_o,
    pp_split_dual_rep,
    sc,
)
from postlie import Tensor
from postlie.construct import quarter_split_rep
from postlie.forms import PPRepSpec, RepSpec
from vectors import act, basis_vec, from_rows, mul

E1, E2, E3 = (basis_vec(3, i) for i in range(3))


def _ad(alg):
    """The carrier of ad: ad[i, k, j] = c[i, j, k] for the bracket table c."""
    return alg.table("bracket").permute((0, 2, 1))


# ---------------------------------------------------------------------------
# invariant forms
# ---------------------------------------------------------------------------

def test_invariant_form_killing(sl2_postlie, kappa):
    assert check_invariant_form(sl2_postlie, kappa).passed


def test_invariant_form_trivial_algebra():
    alg = Algebra(2, ops={"circ": Tensor.zero(2, 2, 2), "bracket": Tensor.zero(2, 2, 2)})
    b = from_rows([[sc(1), sc(2)], [sc(2), sc(5)]])
    assert check_invariant_form(alg, b).passed


# kappa = diag(-2, -2, -2) with its last entry changed: not invariant
KAPPA_SKEWED = from_rows([[-2, 0, 0], [0, -2, 0], [0, 0, -1]])


def test_invariant_form_perturbed_fails(sl2_postlie):
    b = KAPPA_SKEWED
    rep = check_invariant_form(sl2_postlie, b)
    assert not rep.passed
    assert rep.witnesses


def test_gph(sl2_postlie, kappa):
    assert check_gph(sl2_postlie, kappa).passed
    rep = check_gph(sl2_postlie, Matrix.zero(3, 3))
    assert not rep.passed
    assert any(v.identity == "form.nondeg" for v in rep.witnesses)
    skew = from_rows([[0, ONE, 0], [-ONE, 0, 0], [0, 0, 0]])
    rep = check_gph(sl2_postlie, skew)
    assert any(v.identity == "form.sym" for v in rep.witnesses)


def test_left_invariant(sl2_postlie, kappa):
    assert check_left_invariant(sl2_postlie, kappa).passed
    rep = check_left_invariant(sl2_postlie, KAPPA_SKEWED)
    assert not rep.passed


def test_gph_passes_to_opposite(sl2_postlie, kappa):
    # invariance survives passing to the opposite post-Lie structure
    opp = opposite_post_lie(sl2_postlie)
    assert check_gph(opp, kappa).passed


def test_omega_cocycle_symmetric(sl2_postlie, kappa):
    omega, rep = omega_cocycle(sl2_postlie, kappa)
    assert omega.is_zero()
    assert rep.passed


def test_omega_cocycle_checks_post_lie_once(sl2_postlie, kappa, monkeypatch):
    # the sub-adjacent bracket's precondition evaluates the post-Lie
    # identities; the invariant form's reads them from the verdict memo
    import postlie.algebra
    names = []
    evaluate = postlie.algebra._evaluate
    monkeypatch.setattr(postlie.algebra, "_evaluate",
                        lambda identity, *rest: names.append(identity.name)
                        or evaluate(identity, *rest))
    omega, rep = omega_cocycle(sl2_postlie, kappa)
    assert rep.passed
    assert [name for name in names if name.startswith("postlie.")] == ["postlie.1", "postlie.2"]


def test_omega_cocycle_nonsymmetric_on_abelian():
    alg = Algebra(2, ops={"circ": Tensor.zero(2, 2, 2), "bracket": Tensor.zero(2, 2, 2)})
    b = from_rows([[sc(1), sc(3)], [sc(0), sc(1)]])
    omega, rep = omega_cocycle(alg, b)
    assert not omega.is_zero()
    assert rep.passed


def test_omega_cocycle_precondition(sl2_postlie):
    with pytest.raises(PreconditionError):
        omega_cocycle(sl2_postlie, KAPPA_SKEWED)


# ---------------------------------------------------------------------------
# Rota-Baxter operators
# ---------------------------------------------------------------------------

def test_rota_baxter_weight_one(sl2_lie, sl2_P):
    assert check_rota_baxter_lie(sl2_lie, sl2_P, ONE).passed
    assert check_rota_baxter_lie(sl2_lie, sl2_P, 1).passed     # an int weight


def test_rota_baxter_trivial_cases(sl2_lie):
    assert check_rota_baxter_lie(sl2_lie, Matrix.zero(3, 3), sc(7)).passed
    assert check_rota_baxter_lie(sl2_lie, Matrix.identity(3), sc(-1)).passed


def test_rota_baxter_fails(sl2_lie):
    rep = check_rota_baxter_lie(sl2_lie, Matrix.identity(3), ONE)
    assert not rep.passed


def test_induced_post_lie(sl2_lie, sl2_P, sl2_postlie):
    induced = induced_post_lie(sl2_lie, sl2_P)
    assert induced.table("circ") == sl2_postlie.table("circ")
    assert induced.table("bracket") == sl2_lie.table("bracket")
    assert check_post_lie(induced).passed


def test_induced_post_lie_zero(sl2_lie):
    induced = induced_post_lie(sl2_lie, Matrix.zero(3, 3))
    assert induced.table("circ") == Tensor.zero(3, 3, 3)


def test_induced_post_lie_precondition(sl2_lie):
    with pytest.raises(PreconditionError):
        induced_post_lie(sl2_lie, Matrix.identity(3))


# ---------------------------------------------------------------------------
# dual maps
# ---------------------------------------------------------------------------

def test_dual_map_identity():
    carrier = Tensor((1, 3, 3), Matrix.identity(3).entries)
    assert dual_map(carrier) == -carrier


def test_dual_map_involution(sl2_lie):
    ad = _ad(sl2_lie)
    assert dual_map(dual_map(ad)) == ad


def test_dual_map_entrywise(sl2_lie):
    ad = _ad(sl2_lie)
    dual = dual_map(ad)
    for k in range(3):
        for i in range(3):
            for j in range(3):
                assert dual[k, i, j] == -ad[k, j, i]
                # ad(e_k) e_j = [e_k, e_j]
                assert ad[k, i, j] == mul(sl2_lie, "bracket", basis_vec(3, k), basis_vec(3, j))[i]


# ---------------------------------------------------------------------------
# post-Lie representations
# ---------------------------------------------------------------------------

def test_adjoint_rep(sl2_postlie):
    assert check_post_lie_rep(sl2_postlie, adjoint_rep(sl2_postlie)).passed


def test_zero_rep(sl2_postlie):
    z = Tensor.zero(3, 2, 2)
    rep = RepSpec(z, z, z)
    assert rep.dim == 2 and rep.rho.shape == (3, 2, 2)
    assert check_post_lie_rep(sl2_postlie, rep).passed


def test_split_dual_rep(sl2_pp, sl2_postlie):
    rep = pp_split_dual_rep(sl2_pp)
    assert check_post_lie_rep(sl2_postlie, rep).passed


def test_broken_rep_fails(sl2_postlie):
    # [e2,e3] = e1, so shifting rho(e1) breaks the Lie representation law
    rep = adjoint_rep(sl2_postlie)
    eye = Tensor.blocks((3, 3, 3), [(Matrix.identity(3).reshape(1, 3, 3), (0, 0, 0))])
    rep = dataclasses.replace(rep, rho=rep.rho + eye)
    assert act(rep.rho, E1) == act(adjoint_rep(sl2_postlie).rho, E1) + Matrix.identity(3)
    report = check_post_lie_rep(sl2_postlie, rep)
    assert not report.passed
    assert any(v.identity == "rep.lie" for v in report.witnesses)


# ---------------------------------------------------------------------------
# pp representations
# ---------------------------------------------------------------------------

def test_pp_adjoint_rep(sl2_pp):
    assert check_pp_rep(sl2_pp, pp_adjoint_rep(sl2_pp)).passed


def test_pp_rep_zero_actions(sl2_lie):
    alg = Algebra(3, ops={"rtri": Tensor.zero(3, 3, 3), "ltri": Tensor.zero(3, 3, 3),
                          "bracket": sl2_lie.table("bracket")})
    z = Tensor.zero(3, 3, 3)
    rep = PPRepSpec(z, z, z, z, _ad(sl2_lie))
    assert check_pp_rep(alg, rep).passed


def test_pp_coadjoint_rep(sl2_pp):
    co = pp_coadjoint_rep(sl2_pp)
    assert check_pp_rep(sl2_pp, co).passed


def test_coadjoint_formula_entrywise(sl2_pp):
    # the dualized adjoint representation must match the closed form
    # (L_diamond*, R_rt*, R_bullet*, -R_circ*, ad*)
    co = pp_coadjoint_rep(sl2_pp)
    e = [basis_vec(3, i) for i in range(3)]

    def mult(op, k, left):
        """The matrix of v -> e_k * v (left) or v -> v * e_k, column by column."""
        cols = [mul(sl2_pp, op, e[k], v) if left else mul(sl2_pp, op, v, e[k]) for v in e]
        return from_rows(zip(*cols))

    for k in range(3):
        lrt, llt = mult("rtri", k, True), mult("ltri", k, True)
        rrt, rlt = mult("rtri", k, False), mult("ltri", k, False)
        diamond = llt + lrt - rlt - rrt
        bullet_right = rrt - llt
        circ_right = rrt + rlt
        assert act(co.l_rt, e[k]) == -(diamond.transpose())
        assert act(co.r_rt, e[k]) == -(rrt.transpose())
        assert act(co.l_lt, e[k]) == -(bullet_right.transpose())
        assert act(co.r_lt, e[k]) == -(-(circ_right.transpose()))
        assert act(co.rho, e[k]) == -(mult("bracket", k, True).transpose())


def test_dual_pp_rep_zero(sl2_lie):
    alg = Algebra(3, ops={"rtri": Tensor.zero(3, 3, 3), "ltri": Tensor.zero(3, 3, 3),
                          "bracket": sl2_lie.table("bracket")})
    z = Tensor.zero(3, 3, 3)
    ad = _ad(sl2_lie)
    rep = PPRepSpec(z, z, z, z, ad)
    dual = dual_pp_rep(alg, rep)
    assert dual.l_rt == z and dual.r_rt == z and dual.l_lt == z and dual.r_lt == z
    assert dual.rho == dual_map(ad)
    assert check_pp_rep(alg, dual).passed


def test_dual_pp_rep_closure(sl2_pp, final_prepp, ahat_pp):
    # dualizing a valid pp representation always gives a valid one
    from postlie import sub_adjacent_pp
    cases = [
        (sl2_pp, pp_adjoint_rep(sl2_pp)),
        (ahat_pp, pp_adjoint_rep(ahat_pp)),
        (sub_adjacent_pp(final_prepp), quarter_split_rep(final_prepp)),
    ]
    for alg, rep in cases:
        dual = dual_pp_rep(alg, rep)
        assert check_pp_rep(alg, dual).passed


# ---------------------------------------------------------------------------
# O-operators
# ---------------------------------------------------------------------------

def test_o_operator_weight_zero(sl2_pp, final_P):
    assert check_o_operator_pp(sl2_pp, pp_adjoint_rep(sl2_pp), final_P).passed


def test_o_operator_zero(sl2_pp):
    assert check_o_operator_pp(sl2_pp, pp_adjoint_rep(sl2_pp), Matrix.zero(3, 3)).passed


def test_o_operator_identity_on_quarter_rep(final_prepp):
    from postlie import sub_adjacent_pp
    sub = sub_adjacent_pp(final_prepp)
    rep = quarter_split_rep(final_prepp)
    assert check_o_operator_pp(sub, rep, Matrix.identity(3)).passed


def test_o_operator_fails(sl2_pp):
    rep = check_o_operator_pp(sl2_pp, pp_adjoint_rep(sl2_pp), Matrix.identity(3).scale(sc(3)))
    assert not rep.passed


# ---------------------------------------------------------------------------
# dual p-O-operators and strength
# ---------------------------------------------------------------------------

def _phi_inverse(kappa):
    # phi: A -> A*, phi(x) = B(x, -); as a matrix phi = B^T, so T = (B^T)^-1
    return kappa.transpose().inverse()


def test_dual_p_o_from_form(sl2_postlie, kappa):
    T = _phi_inverse(kappa)
    rep = adjoint_rep(sl2_postlie)
    assert check_dual_p_o_operator(sl2_postlie, rep, T).passed
    assert check_strong(sl2_postlie, rep, T).passed


def test_dual_p_o_zero(sl2_postlie):
    rep = adjoint_rep(sl2_postlie)
    assert check_dual_p_o_operator(sl2_postlie, rep, Matrix.zero(3, 3)).passed
    assert check_strong(sl2_postlie, rep, Matrix.zero(3, 3)).passed


def test_dual_p_o_identity_on_split_dual(sl2_pp, sl2_postlie):
    # the double dual of the split representation is witnessed by the identity
    rep = pp_split_dual_rep(sl2_pp)
    assert check_dual_p_o_operator(sl2_postlie, rep, Matrix.identity(3)).passed
    assert check_strong(sl2_postlie, rep, Matrix.identity(3)).passed


def test_dual_p_o_scaling_invariance(sl2_postlie, kappa):
    # the defining equations are homogeneous of degree two, so scalar
    # multiples of a dual p-O-operator remain dual p-O-operators
    rep = adjoint_rep(sl2_postlie)
    T = _phi_inverse(kappa).scale(sc(-10))  # = 5 * identity
    assert check_dual_p_o_operator(sl2_postlie, rep, T).passed


def test_strong_precondition(sl2_postlie):
    rep = adjoint_rep(sl2_postlie)
    bad = from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    assert not check_dual_p_o_operator(sl2_postlie, rep, bad).passed
    with pytest.raises(PreconditionError):
        check_strong(sl2_postlie, rep, bad)


def test_invertible_dual_p_o_is_strong(sl2_postlie, kappa, sl2_pp):
    # every invertible dual p-O-operator in the corpus is strong
    cases = [
        (sl2_postlie, adjoint_rep(sl2_postlie), _phi_inverse(kappa)),
        (sl2_postlie, pp_split_dual_rep(sl2_pp), Matrix.identity(3)),
    ]
    for alg, rep, T in cases:
        assert T.det()
        assert check_dual_p_o_operator(alg, rep, T).passed
        assert check_strong(alg, rep, T).passed


def test_pp_from_dual_p_o(sl2_postlie, kappa):
    T = _phi_inverse(kappa)
    out = pp_from_dual_p_o(sl2_postlie, adjoint_rep(sl2_postlie), T)
    assert check_pp_post_lie(out).passed
    assert horizontal_post_lie(out).table("circ") != Tensor.zero(3, 3, 3)


def test_pp_from_dual_p_o_zero(sl2_postlie):
    out = pp_from_dual_p_o(sl2_postlie, adjoint_rep(sl2_postlie), Matrix.zero(3, 3))
    assert out.table("rtri") == Tensor.zero(3, 3, 3)
    assert out.table("ltri") == Tensor.zero(3, 3, 3)
    assert out.table("bracket") == Tensor.zero(3, 3, 3)


def test_form_value():
    # the checkers evaluate B(x, y) as the contraction x_i B[i, j] y_j
    b = from_rows([[sc(1), sc(2)], [sc(3), sc(4)]])
    x = Tensor((2,), (sc(1), sc(1)))
    y = Tensor((2,), (sc(1), sc(-1)))
    # (1,1) B (1,-1)^T = 1 - 2 + 3 - 4
    assert einsum("i,ij,j->", x, b, y) == Tensor((), [sc(-2)])
