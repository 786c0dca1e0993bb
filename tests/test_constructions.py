import dataclasses

import pytest

from postlie import (
    Algebra,
    LinAlgError,
    MatchedPairMaps,
    Matrix,
    PreconditionError,
    adjoint_rep,
    bowtie,
    bullet_from_gph,
    check_dual_p_o_operator,
    check_gph,
    check_matched_pair,
    check_o_operator_pp,
    check_post_lie,
    check_post_lie_rep,
    check_pp_post_lie,
    check_pp_rep,
    check_pppcybe,
    check_pre_pp_post_lie,
    coadjoint_matched_pair_maps,
    compatible_pp_from_gph,
    corpus_doc,
    double_construction,
    dual_pp_rep,
    dualize,
    hom_embed_r,
    horizontal_post_lie,
    invertible_o_to_compatible_pre_pp,
    manin_triple_build,
    pairing_form,
    pp_adjoint_rep,
    pp_from_dual_p_o,
    pp_split_dual_rep,
    pre_pp_from_o_operator,
    quarter_split_rep,
    sc,
    semidirect_post_lie,
    semidirect_pp,
    sub_adjacent_pp,
    vertical_post_lie,
)
from postlie import Tensor
from postlie.construct import _compatible_pp_from_gph
from postlie.forms import PPRepSpec, RepSpec
from vectors import act, apply, basis_vec, mul, zero_vec


def _zero_rep(n, m):
    z = Tensor.zero(n, m, m)
    return RepSpec(z, z, z)


def _zero_pp_rep(n, m):
    z = Tensor.zero(n, m, m)
    return PPRepSpec(z, z, z, z, z)


def _bumped(carrier, k):
    """The carrier with the identity added to its k-th matrix."""
    m = carrier.shape[1]
    eye = Matrix.identity(m).reshape(1, m, m)
    return carrier + Tensor.blocks(carrier.shape, [(eye, (k, 0, 0))])


# ---------------------------------------------------------------------------
# semidirect products
# ---------------------------------------------------------------------------

def test_semidirect_zero_rep_direct_sum(sl2_postlie):
    out = semidirect_post_lie(sl2_postlie, _zero_rep(3, 2))
    assert out.dim == 5
    assert check_post_lie(out).passed
    # A embeds with its own products, V is an ideal with zero products
    for i in range(3):
        for j in range(3):
            prod = mul(out, "circ", basis_vec(5, i), basis_vec(5, j))
            assert prod[3:] == zero_vec(2)
    for i in range(3, 5):
        for j in range(3, 5):
            assert mul(out, "circ", basis_vec(5, i), basis_vec(5, j)) == zero_vec(5)
            assert mul(out, "bracket", basis_vec(5, i), basis_vec(5, j)) == zero_vec(5)


def test_semidirect_adjoint(sl2_postlie):
    out = semidirect_post_lie(sl2_postlie, adjoint_rep(sl2_postlie))
    assert out.dim == 6
    assert check_post_lie(out).passed
    # carrier-carrier products vanish pairwise
    for i in range(3, 6):
        for j in range(3, 6):
            assert mul(out, "circ", basis_vec(6, i), basis_vec(6, j)) == zero_vec(6)


def test_semidirect_rejects_bad_rep(sl2_postlie):
    rep = adjoint_rep(sl2_postlie)
    rep = dataclasses.replace(rep, rho=_bumped(rep.rho, 0))
    e1 = basis_vec(3, 0)
    assert act(rep.rho, e1) == act(adjoint_rep(sl2_postlie).rho, e1) + Matrix.identity(3)
    with pytest.raises(PreconditionError):
        semidirect_post_lie(sl2_postlie, rep)


def test_semidirect_pp_builds_corpus_double(final_prepp, ahat_pp):
    sub = sub_adjacent_pp(final_prepp)
    qrep = quarter_split_rep(final_prepp)
    ahat = semidirect_pp(sub, dual_pp_rep(sub, qrep))
    for op in ("rtri", "ltri", "bracket"):
        assert ahat.table(op) == ahat_pp.table(op)
    assert check_pp_post_lie(ahat).passed


def test_semidirect_pp_zero_rep(sl2_pp):
    out = semidirect_pp(sl2_pp, _zero_pp_rep(3, 2))
    assert out.dim == 5
    assert check_pp_post_lie(out).passed
    for op in ("rtri", "ltri", "bracket"):
        for i in range(3, 5):
            for j in range(3, 5):
                assert mul(out, op, basis_vec(5, i), basis_vec(5, j)) == zero_vec(5)


# ---------------------------------------------------------------------------
# matched pairs and the bowtie product
# ---------------------------------------------------------------------------

def test_matched_pair_with_point(sl2_postlie):
    empty = Tensor.zero(0, 0, 0)
    b = Algebra(0, ops={"circ": empty, "bracket": empty})
    # actions of A on the 0-dim carrier are empty matrices, and the point
    # has no basis element to act on A with
    from postlie import MatchedPairMaps
    maps = MatchedPairMaps(_zero_rep(3, 0), _zero_rep(0, 3))
    rep = check_matched_pair(sl2_postlie, b, maps)
    assert rep.passed
    # the coadjoint actions of the point act on its own 0-dim dual, not on A
    coadjoint = coadjoint_matched_pair_maps(
        Algebra(3, ops={"rtri": sl2_postlie.table("circ"),
                        "ltri": Tensor.zero(3, 3, 3),
                        "bracket": sl2_postlie.table("bracket")}),
        Algebra(0, ops={"rtri": empty, "ltri": empty, "bracket": empty}),
    )
    with pytest.raises(ValueError):
        check_matched_pair(sl2_postlie, b, dataclasses.replace(coadjoint, on_b=maps.on_b))


def test_matched_pair_corpus_instance(ahat_pp, final_cobrackets):
    dual_pp = dualize(final_cobrackets)
    ha = horizontal_post_lie(ahat_pp)
    hb = horizontal_post_lie(dual_pp)
    maps = coadjoint_matched_pair_maps(ahat_pp, dual_pp)
    assert check_matched_pair(ha, hb, maps).passed


def test_matched_pair_perturbed_fails(ahat_pp, final_cobrackets):
    dual_pp = dualize(final_cobrackets)
    ha = horizontal_post_lie(ahat_pp)
    hb = horizontal_post_lie(dual_pp)
    maps = coadjoint_matched_pair_maps(ahat_pp, dual_pp)
    bumped = dataclasses.replace(maps.on_b, l=_bumped(maps.on_b.l, 0))
    maps = dataclasses.replace(maps, on_b=bumped)
    rep = check_matched_pair(ha, hb, maps)
    assert not rep.passed
    assert rep.witnesses


def test_representation_carriers_cannot_be_changed(sl2_postlie, sl2_pp, ahat_pp,
                                                   final_cobrackets):
    maps = coadjoint_matched_pair_maps(ahat_pp, dualize(final_cobrackets))
    for rep in (adjoint_rep(sl2_postlie), pp_adjoint_rep(sl2_pp), maps.on_b, maps.on_a):
        for field in dataclasses.fields(rep):
            carrier = getattr(rep, field.name)
            with pytest.raises(TypeError):
                carrier[0, 0, 0] = sc(1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rep, field.name, carrier)
    with pytest.raises(dataclasses.FrozenInstanceError):
        maps.on_b = maps.on_a
    with pytest.raises(ValueError):
        RepSpec([Matrix.zero(2, 2)] * 3, [Matrix.zero(2, 2)] * 3, [Matrix.zero(2, 2)] * 3)
    with pytest.raises(ValueError):
        RepSpec(Tensor.zero(3, 2, 2), Tensor.zero(3, 2, 2), Tensor.zero(2, 2, 2))


def test_bowtie_zero_actions(sl2_postlie):
    from postlie import MatchedPairMaps
    maps = MatchedPairMaps(_zero_rep(3, 3), _zero_rep(3, 3))
    abelian = Algebra(3, ops={"circ": Tensor.zero(3, 3, 3), "bracket": Tensor.zero(3, 3, 3)})
    out = bowtie(sl2_postlie, abelian, maps)
    assert check_post_lie(out).passed
    # restriction of the products to A x A equals A's products
    for i in range(3):
        for j in range(3):
            prod = mul(out, "circ", basis_vec(6, i), basis_vec(6, j))
            assert prod[:3] == mul(sl2_postlie, "circ", basis_vec(3, i), basis_vec(3, j))
            assert prod[3:] == zero_vec(3)


def test_bowtie_equals_double(sl2_pp):
    # bowtie of A with the zero structure on A* along the canonical actions
    # reproduces the semidirect double
    n = sl2_pp.dim
    zero_pp = Algebra(n, ops={"rtri": Tensor.zero(n, n, n), "ltri": Tensor.zero(n, n, n),
                              "bracket": Tensor.zero(n, n, n)})
    maps = coadjoint_matched_pair_maps(sl2_pp, zero_pp)
    ha = horizontal_post_lie(sl2_pp)
    hb = horizontal_post_lie(zero_pp)
    out = bowtie(ha, hb, maps)
    double, _ = double_construction(sl2_pp)
    assert out.table("circ") == double.table("circ")
    assert out.table("bracket") == double.table("bracket")


# a representation or action of a 2-dimensional algebra on a 3-dimensional
# space, handed to functions of 3-dimensional algebras
_OF_TWO_ON_THREE = "is indexed by 2 basis vectors, %s is 3-dimensional$"


@pytest.mark.parametrize("build, message", [
    (lambda post, pp: check_post_lie_rep(post, _zero_rep(2, 3)), "the algebra"),
    (lambda post, pp: check_pp_rep(pp, _zero_pp_rep(2, 3)), "the algebra"),
    (lambda post, pp: semidirect_post_lie(post, _zero_rep(2, 3)), "the algebra"),
    (lambda post, pp: semidirect_pp(pp, _zero_pp_rep(2, 3), checked=False), "the algebra"),
    (lambda post, pp: dual_pp_rep(pp, _zero_pp_rep(2, 3), checked=False), "the algebra"),
    (lambda post, pp: check_matched_pair(
        post, post, MatchedPairMaps(_zero_rep(2, 3), _zero_rep(3, 3))), "A"),
    (lambda post, pp: check_matched_pair(
        post, post, MatchedPairMaps(_zero_rep(3, 3), _zero_rep(2, 3))), "B"),
    (lambda post, pp: bowtie(post, post, MatchedPairMaps(_zero_rep(2, 3), _zero_rep(3, 3))),
     "A"),
], ids=["post-lie-rep", "pp-rep", "semidirect", "semidirect-pp-unchecked",
        "dual-pp-rep-unchecked", "matched-pair-on-b", "matched-pair-on-a", "bowtie"])
def test_carriers_indexed_by_another_algebra_are_refused(sl2_postlie, sl2_pp, build, message):
    with pytest.raises(LinAlgError, match=_OF_TWO_ON_THREE % message):
        build(sl2_postlie, sl2_pp)


# ---------------------------------------------------------------------------
# doubles and Manin triples
# ---------------------------------------------------------------------------

def test_double_construction(sl2_pp):
    double, form = double_construction(sl2_pp)
    assert double.dim == 6
    assert form == pairing_form(3)
    assert check_gph(double, form).passed


def test_double_construction_zero():
    zero_pp = Algebra(2, ops={"rtri": Tensor.zero(2, 2, 2), "ltri": Tensor.zero(2, 2, 2),
                              "bracket": Tensor.zero(2, 2, 2)})
    double, form = double_construction(zero_pp)
    assert form.det()
    for op in ("circ", "bracket"):
        assert double.table(op) == Tensor.zero(4, 4, 4)


def test_manin_triple_trivial():
    zero_pp = Algebra(2, ops={"rtri": Tensor.zero(2, 2, 2), "ltri": Tensor.zero(2, 2, 2),
                              "bracket": Tensor.zero(2, 2, 2)})
    _, _, report = manin_triple_build(zero_pp, zero_pp)
    assert report.passed


def test_manin_triple_with_zero_dual(sl2_pp):
    n = sl2_pp.dim
    zero_pp = Algebra(n, ops={"rtri": Tensor.zero(n, n, n), "ltri": Tensor.zero(n, n, n),
                              "bracket": Tensor.zero(n, n, n)})
    double, form, report = manin_triple_build(sl2_pp, zero_pp)
    assert report.passed
    # coincides with the semidirect double in this degenerate case
    expected, _ = double_construction(sl2_pp)
    assert double.table("circ") == expected.table("circ")
    assert double.table("bracket") == expected.table("bracket")


def test_manin_triple_corpus_instance(ahat_pp, final_cobrackets):
    dual_pp = dualize(final_cobrackets)
    double, form, report = manin_triple_build(ahat_pp, dual_pp)
    assert report.passed
    assert double.dim == 12
    assert form == pairing_form(6)


def test_manin_triple_incompatible_fails(sl2_pp):
    n = sl2_pp.dim
    transposed = {}
    for op in ("rtri", "ltri", "bracket"):
        src = sl2_pp.table(op)
        transposed[op] = Tensor((n, n, n), [src[j, i, k] for i in range(n) for j in range(n)
                                            for k in range(n)])
    bad = Algebra(n, ops=transposed)
    if not check_pp_post_lie(bad).passed:
        bad_tables_ok = False
    else:
        bad_tables_ok = True
    if bad_tables_ok:
        _, _, report = manin_triple_build(sl2_pp, bad)
        assert not report.passed
        assert report.witnesses
    else:
        with pytest.raises(PreconditionError):
            manin_triple_build(sl2_pp, bad)


def test_double_and_manin_refuse_a_non_pp_algebra(sl2_pp):
    broken = corpus_doc("sl2_pp_broken").to_algebra()
    builds = [lambda: double_construction(broken),
              lambda: manin_triple_build(broken, sl2_pp),
              lambda: manin_triple_build(sl2_pp, broken)]
    for build in builds:
        with pytest.raises(PreconditionError, match="^not a pp-post-Lie algebra$") as caught:
            build()
        assert caught.value.report.name == "pp-post-lie" and not caught.value.report.passed


def test_manin_triple_dimension_mismatch(sl2_pp):
    other = Algebra(2, ops={"rtri": Tensor.zero(2, 2, 2), "ltri": Tensor.zero(2, 2, 2),
                            "bracket": Tensor.zero(2, 2, 2)})
    with pytest.raises(ValueError, match=r"^A is 3-dimensional, A\* is 2-dimensional$"):
        manin_triple_build(sl2_pp, other)


# ---------------------------------------------------------------------------
# splittings from invariant forms
# ---------------------------------------------------------------------------

def test_compatible_pp_from_gph(sl2_postlie, kappa):
    derived = compatible_pp_from_gph(sl2_postlie, kappa)
    assert check_pp_post_lie(derived).passed
    assert horizontal_post_lie(derived).table("circ") == \
        sl2_postlie.table("circ")
    assert vertical_post_lie(derived).table("circ") == \
        sl2_postlie.table("circ")


def test_compatible_pp_from_gph_pins_known_tables(sl2_postlie, kappa):
    # regression pin for the four entries where the derived splitting
    # differs from the bundled sl2_pp table (both are valid splittings)
    derived = compatible_pp_from_gph(sl2_postlie, kappa)
    e = [basis_vec(3, i) for i in range(3)]
    assert mul(derived, "rtri", e[1], e[2]) == (sc("1/2"), sc(0), sc(0))
    assert mul(derived, "rtri", e[2], e[1]) == (sc("-1/2"), sc(0), sc(0))
    assert mul(derived, "ltri", e[1], e[2]) == (sc(-1), sc(0), sc(0))
    assert mul(derived, "ltri", e[2], e[1]) == (sc(1), sc(0), sc(0))


def test_compatible_pp_scale_invariance(sl2_postlie, kappa):
    derived = compatible_pp_from_gph(sl2_postlie, kappa)
    scaled = compatible_pp_from_gph(sl2_postlie, kappa.scale(sc("-7/3")))
    assert derived.table("rtri") == scaled.table("rtri")
    assert derived.table("ltri") == scaled.table("ltri")


def test_compatible_pp_matches_dual_p_o_route(sl2_postlie, kappa):
    # the same splitting through the dual-operator construction, pulled
    # back along phi(x) = B(x, -)
    T = kappa.transpose().inverse()
    on_dual = pp_from_dual_p_o(sl2_postlie, adjoint_rep(sl2_postlie), T)
    phi = kappa.transpose()
    phi_inv = T
    derived = compatible_pp_from_gph(sl2_postlie, kappa)
    for op in ("rtri", "ltri"):
        for i in range(3):
            for j in range(3):
                x, y = basis_vec(3, i), basis_vec(3, j)
                pulled = apply(phi_inv, mul(on_dual, op, apply(phi, x), apply(phi, y)))
                assert pulled == mul(derived, op, x, y)


def test_compatible_pp_trivial():
    abelian = Algebra(2, ops={"circ": Tensor.zero(2, 2, 2), "bracket": Tensor.zero(2, 2, 2)})
    out = compatible_pp_from_gph(abelian, Matrix.identity(2))
    assert out.table("rtri") == Tensor.zero(2, 2, 2)
    assert out.table("ltri") == Tensor.zero(2, 2, 2)


def test_compatible_pp_degenerate_form(sl2_postlie):
    form = Tensor((3, 3), [1, 0, 0, 0, 1, 0, 0, 0, 0])
    for B in (Matrix.zero(3, 3), form):
        for build in (compatible_pp_from_gph, bullet_from_gph):
            with pytest.raises(PreconditionError,
                               match="^form is not generalized pseudo-Hessian$"):
                build(sl2_postlie, B)
    # without the precondition (A3 on any fixture), a symmetric degenerate
    # form still fails when solved against
    with pytest.raises(PreconditionError, match="^form is degenerate$"):
        _compatible_pp_from_gph(sl2_postlie, form)


def test_bullet_from_gph(sl2_postlie, kappa):
    out = bullet_from_gph(sl2_postlie, kappa)
    # for this algebra the second product coincides with circ
    assert out.table("circ") == sl2_postlie.table("circ")
    assert check_post_lie(out).passed
    assert check_gph(out, kappa).passed
    # agreement with the vertical product of the derived splitting
    derived = compatible_pp_from_gph(sl2_postlie, kappa)
    assert out.table("circ") == vertical_post_lie(derived).table("circ")


def test_bullet_from_gph_trivial():
    abelian = Algebra(2, ops={"circ": Tensor.zero(2, 2, 2), "bracket": Tensor.zero(2, 2, 2)})
    out = bullet_from_gph(abelian, Matrix.identity(2))
    assert out.table("circ") == Tensor.zero(2, 2, 2)


# ---------------------------------------------------------------------------
# quarter splittings from O-operators
# ---------------------------------------------------------------------------

def test_pre_pp_from_o_operator_final_example(sl2_pp, final_P, final_prepp):
    out = pre_pp_from_o_operator(sl2_pp, pp_adjoint_rep(sl2_pp), final_P)
    for op in ("se", "ne", "sw", "nw", "dot"):
        assert out.table(op) == final_prepp.table(op)
    assert check_pre_pp_post_lie(out).passed


def test_pre_pp_from_zero_operator(sl2_pp):
    out = pre_pp_from_o_operator(sl2_pp, pp_adjoint_rep(sl2_pp), Matrix.zero(3, 3))
    for op in ("se", "ne", "sw", "nw", "dot"):
        assert out.table(op) == Tensor.zero(3, 3, 3)


def test_pre_pp_from_o_operator_precondition(sl2_pp):
    with pytest.raises(PreconditionError):
        pre_pp_from_o_operator(sl2_pp, pp_adjoint_rep(sl2_pp),
                               Matrix.identity(3).scale(sc(3)))


def test_pre_pp_homomorphism_property(sl2_pp, final_P):
    # the operator carries the quarter-split sub-adjacent products to the
    # original products
    out = pre_pp_from_o_operator(sl2_pp, pp_adjoint_rep(sl2_pp), final_P)
    sub = sub_adjacent_pp(out)
    for op in ("rtri", "ltri", "bracket"):
        for i in range(3):
            for j in range(3):
                u, v = basis_vec(3, i), basis_vec(3, j)
                lhs = apply(final_P, mul(sub, op, u, v))
                rhs = mul(sl2_pp, op, apply(final_P, u), apply(final_P, v))
                assert lhs == rhs


def test_invertible_o_identity_roundtrip(final_prepp):
    sub = sub_adjacent_pp(final_prepp)
    rep = quarter_split_rep(final_prepp)
    out = invertible_o_to_compatible_pre_pp(sub, rep, Matrix.identity(3))
    for op in ("se", "ne", "sw", "nw", "dot"):
        assert out.table(op) == final_prepp.table(op)
    again = sub_adjacent_pp(out)
    for op in ("rtri", "ltri", "bracket"):
        assert again.table(op) == sub.table(op)


def test_invertible_o_singular_rejected(sl2_pp, final_P):
    with pytest.raises(PreconditionError):
        invertible_o_to_compatible_pre_pp(sl2_pp, pp_adjoint_rep(sl2_pp), final_P)
    with pytest.raises(PreconditionError, match=r"^operator is not invertible \(not square\)$"):
        invertible_o_to_compatible_pre_pp(sl2_pp, _zero_pp_rep(3, 2), Matrix.zero(3, 2))


# ---------------------------------------------------------------------------
# embedding operators as tensors
# ---------------------------------------------------------------------------

def test_hom_embed_r_final_example(final_prepp, ahat_pp, r6):
    sub = sub_adjacent_pp(final_prepp)
    qrep = quarter_split_rep(final_prepp)
    ahat, r = hom_embed_r(sub, qrep, Matrix.identity(3))
    assert r == r6
    for op in ("rtri", "ltri", "bracket"):
        assert ahat.table(op) == ahat_pp.table(op)
    assert check_pppcybe(ahat, r).passed


def test_hom_embed_zero_operator(sl2_pp):
    ahat, r = hom_embed_r(sl2_pp, pp_adjoint_rep(sl2_pp), Matrix.zero(3, 3))
    assert r.is_zero()
    assert check_pppcybe(ahat, r).passed


def test_hom_embed_equivalence_with_operator_check(sl2_pp, final_P):
    rep = pp_adjoint_rep(sl2_pp)
    good = final_P
    bad = final_P + Matrix.identity(3).scale(sc(2))
    for T in (good, bad):
        ok_op = check_o_operator_pp(sl2_pp, rep, T).passed
        ahat, r = hom_embed_r(sl2_pp, rep, T)
        assert check_pppcybe(ahat, r).passed == ok_op


def test_hom_embed_block_layout(sl2_pp, final_P):
    _, r = hom_embed_r(sl2_pp, pp_adjoint_rep(sl2_pp), final_P)
    n = 3
    for i in range(n):
        for j in range(n):
            assert r[n + j, i] == final_P[i, j]
            assert r[i, n + j] == -final_P[i, j]
    assert r.is_antisymmetric()


def test_hom_embed_rectangular_operator(sl2_pp):
    # one-dimensional trivial carrier: T(v1) = e1 is an O-operator because
    # e1 |> e1 = e1 <| e1 = [e1, e1] = 0
    rep = _zero_pp_rep(3, 1)
    T = Matrix((3, 1), [sc(1), sc(0), sc(0)])
    assert check_o_operator_pp(sl2_pp, rep, T).passed
    ahat, r = hom_embed_r(sl2_pp, rep, T)
    assert ahat.dim == 4
    assert r.rows == 4
    assert r[3, 0] == sc(1) and r[0, 3] == sc(-1)
    assert check_pppcybe(ahat, r).passed
    # a carrier image with nonzero products is not an O-operator, and the
    # embedded tensor detects it
    T_bad = Matrix((3, 1), [sc(1), sc(1), sc(0)])
    assert not check_o_operator_pp(sl2_pp, rep, T_bad).passed
    ahat_b, r_b = hom_embed_r(sl2_pp, rep, T_bad)
    assert not check_pppcybe(ahat_b, r_b).passed


# ---------------------------------------------------------------------------
# equivalence of splitting characterisations
# ---------------------------------------------------------------------------

def test_split_iff_dual_operator(sl2_pp, sl2_postlie, kappa):
    # one direction: a compatible splitting makes the identity an invertible
    # dual p-O-operator for the split-dual representation
    rep = pp_split_dual_rep(sl2_pp)
    assert check_dual_p_o_operator(sl2_postlie, rep, Matrix.identity(3)).passed
    # other direction: an invertible dual p-O-operator induces a compatible
    # splitting whose horizontal product is the original circ
    T = kappa.transpose().inverse()
    derived = compatible_pp_from_gph(sl2_postlie, kappa)
    assert horizontal_post_lie(derived).table("circ") == \
        sl2_postlie.table("circ")
