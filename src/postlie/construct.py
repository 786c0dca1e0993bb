"""Product and double constructions.

Doubled spaces always order the basis as e_1..e_n of A followed by the
dual basis e_1*..e_n* of A*, so the canonical pairing form is the
antidiagonal block matrix [[0, I], [I, 0]].  Every algebra on a sum A + B
(semidirect products, bowtie products, doubles) is one block sum of
tables: A's and B's products on the diagonal blocks and the carriers of
the mutual actions, permuted into tables, on the mixed ones.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .algebra import (
    Algebra,
    CheckReport,
    PreconditionError,
    _require,
    _require_shape,
    _sweep,
    check_post_lie,
    check_pp_post_lie,
    horizontal_post_lie,
)
from .forms import (
    FROM_RIGHT,
    LEFT,
    RIGHT,
    PPRepSpec,
    RepSpec,
    check_gph,
    check_o_operator_pp,
    check_post_lie_rep,
    check_pp_rep,
    dual_pp_rep,
    pp_split_dual_rep,
)
from .linalg import Matrix, SingularMatrixError, Tensor, basis_vec, vadd, vneg

__all__ = [
    "semidirect_post_lie",
    "semidirect_pp",
    "MatchedPairMaps",
    "coadjoint_matched_pair_maps",
    "check_matched_pair",
    "bowtie",
    "pairing_form",
    "double_construction",
    "manin_triple_build",
    "compatible_pp_from_gph",
    "bullet_from_gph",
    "pre_pp_from_o_operator",
    "invertible_o_to_compatible_pre_pp",
    "quarter_split_rep",
    "hom_embed_r",
]


# (op, left carrier, right carrier) of each product of a representation
_POST_LIE_PRODUCTS = (("circ", "l", "r"), ("bracket", "rho", "rho"))
_PP_PRODUCTS = (("rtri", "l_rt", "r_rt"), ("ltri", "l_lt", "r_lt"), ("bracket", "rho", "rho"))


def _block_sum(a: Algebra, b: Algebra, on_b, on_a, products, basis) -> Algebra:
    """The algebra on A + B whose products restrict to A's and B's and mix
    them through the actions: for x, y in A, u, v in B and the carriers
    (l, r) named by each (op, left, right) of products,
        x * v = l_b(x) v + r_a(v) x,    u * y = r_b(y) u + l_a(u) y,
    with l_b, r_b those of on_b (A acting on B: the B part) and l_a, r_a
    those of on_a (B acting on A: the A part; None for no action).  The
    bracket's right action is -rho."""
    na, nb = a.dim, b.dim
    shape = (na + nb,) * 3
    ops = {}
    for op, left, right in products:
        blocks = [(a.table(op), (0, 0, 0)), (b.table(op), (na, na, na))]
        for rep, p, q in ((on_b, 0, na), (on_a, na, 0)):
            if rep is None:
                continue
            r = -getattr(rep, right) if op == "bracket" else getattr(rep, right)
            blocks += [(getattr(rep, left).permute(LEFT), (p, q, q)),
                       (r.permute(FROM_RIGHT), (q, p, q))]
        ops[op] = Tensor.blocks(shape, blocks)
    return Algebra(na + nb, a.field, basis, ops)


def _semidirect(alg: Algebra, rep, products) -> Algebra:
    """A + V with V an abelian ideal acted on by rep."""
    m = rep.dim
    abelian = Algebra(m, ops={op: Tensor.zero(m, m, m) for op, _, _ in products})
    return _block_sum(alg, abelian, rep, None, products,
                      tuple(alg.basis) + tuple("v%d" % (i + 1) for i in range(m)))


def semidirect_post_lie(alg: Algebra, rep: RepSpec, checked=True) -> Algebra:
    """Post-Lie structure on A + V with V an abelian ideal acted on by (l, r, rho)."""
    if checked:
        _require(check_post_lie_rep(alg, rep), "not a post-Lie representation")
    return _semidirect(alg, rep, _POST_LIE_PRODUCTS)


def semidirect_pp(alg: Algebra, rep: PPRepSpec, checked=True) -> Algebra:
    """pp-post-Lie structure on A + V from a pp representation."""
    if checked:
        _require(check_pp_rep(alg, rep), "not a pp representation")
    return _semidirect(alg, rep, _PP_PRODUCTS)


# ---------------------------------------------------------------------------
# matched pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatchedPairMaps:
    """Mutual actions of a matched pair: on_b is A acting on B's space and
    on_a is B acting on A's."""

    on_b: RepSpec
    on_a: RepSpec

    def acting_on(self, a: Algebra, b: Algebra):
        """(on_b, on_a), checked to act on B's and A's spaces."""
        if self.on_b.dim != b.dim or self.on_a.dim != a.dim:
            raise ValueError("carrier matrix has wrong shape")
        return self.on_b, self.on_a


def coadjoint_matched_pair_maps(a_pp: Algebra, b_pp: Algebra) -> MatchedPairMaps:
    """The canonical dual-space actions (L_rt* - R_lt*, -R_lt*, ad*) on both
    sides, for B carrying the structure dual to A*'s pp algebra."""
    return MatchedPairMaps(pp_split_dual_rep(a_pp), pp_split_dual_rep(b_pp))


def check_matched_pair(a: Algebra, b: Algebra, maps: MatchedPairMaps,
                       checked=True) -> CheckReport:
    """Representation conditions plus the ten mixed compatibility equations."""
    if checked:
        for alg in (a, b):
            _require(check_post_lie(alg), "not a post-Lie algebra")
    na, nb = a.dim, b.dim
    ea = [basis_vec(na, i) for i in range(na)]
    eb = [basis_vec(nb, i) for i in range(nb)]
    rep_b, rep_a = maps.acting_on(a, b)
    nested = [("mp.rep-a", check_post_lie_rep(a, rep_b, checked=False)),
              ("mp.rep-b", check_post_lie_rep(b, rep_a, checked=False))]

    la = lambda x, v: rep_b.act("l", x).apply(v)
    ra = lambda x, v: rep_b.act("r", x).apply(v)
    pa = lambda x, v: rep_b.act("rho", x).apply(v)
    lb = lambda u, v: rep_a.act("l", u).apply(v)
    rb = lambda u, v: rep_a.act("r", u).apply(v)
    pb = lambda u, v: rep_a.act("rho", u).apply(v)
    bra = lambda x, y: a.mul("bracket", x, y)
    brb = lambda u, v: b.mul("bracket", u, v)
    ca = lambda x, y: a.mul("circ", x, y)
    cb = lambda u, v: b.mul("circ", u, v)
    curly_a = lambda x, y: vadd(ca(x, y), vneg(ca(y, x)), bra(x, y))
    curly_b = lambda u, v: vadd(cb(u, v), vneg(cb(v, u)), brb(u, v))

    def one_a_two_b(i, j, k):
        x, u, v = ea[i], eb[j], eb[k]
        yield ("mp.01", pa(x, brb(u, v)),
               vadd(brb(pa(x, u), v), brb(u, pa(x, v)),
                    pa(pb(v, x), u), vneg(pa(pb(u, x), v))))
        yield ("mp.02", pa(x, cb(u, v)),
               vadd(cb(u, pa(x, v)), brb(v, ra(x, u)),
                    vneg(pa(lb(u, x), v)), vneg(ra(pb(v, x), u))))
        yield ("mp.05", la(x, brb(u, v)),
               vadd(brb(la(x, u), v), brb(u, la(x, v)),
                    pa(rb(u, x), v), vneg(pa(rb(v, x), u))))
        yield ("mp.06", la(x, cb(u, v)),
               vadd(cb(la(x, u), v), cb(u, la(x, v)),
                    vneg(cb(ra(x, u), v)), cb(pa(x, u), v),
                    ra(rb(v, x), u), vneg(la(lb(u, x), v)),
                    la(rb(u, x), v), vneg(la(pb(u, x), v))))
        yield ("mp.09", ra(x, curly_b(u, v)),
               vadd(cb(u, ra(x, v)), vneg(cb(v, ra(x, u))),
                    ra(lb(v, x), u), vneg(ra(lb(u, x), v))))

    def one_b_two_a(i, j, k):
        u, x, y = eb[i], ea[j], ea[k]
        yield ("mp.03", pb(u, bra(x, y)),
               vadd(bra(pb(u, x), y), bra(x, pb(u, y)),
                    pb(pa(y, u), x), vneg(pb(pa(x, u), y))))
        yield ("mp.04", pb(u, ca(x, y)),
               vadd(ca(x, pb(u, y)), bra(y, rb(u, x)),
                    vneg(pb(la(x, u), y)), vneg(rb(pa(y, u), x))))
        yield ("mp.07", lb(u, bra(x, y)),
               vadd(bra(lb(u, x), y), bra(x, lb(u, y)),
                    pb(ra(x, u), y), vneg(pb(ra(y, u), x))))
        yield ("mp.08", lb(u, ca(x, y)),
               vadd(ca(lb(u, x), y), ca(x, lb(u, y)),
                    vneg(ca(rb(u, x), y)), ca(pb(u, x), y),
                    rb(ra(y, u), x), vneg(lb(la(x, u), y)),
                    lb(ra(x, u), y), vneg(lb(pa(x, u), y))))
        yield ("mp.10", rb(u, curly_a(x, y)),
               vadd(ca(x, rb(u, y)), vneg(ca(y, rb(u, x))),
                    rb(la(y, u), x), vneg(rb(la(x, u), y))))

    return _sweep("matched-pair", [((na, nb, nb), one_a_two_b), ((nb, na, na), one_b_two_a)],
                  nested)


def bowtie(a: Algebra, b: Algebra, maps: MatchedPairMaps, checked=True) -> Algebra:
    """Post-Lie structure on A + B defined by the mutual actions."""
    if checked:
        _require(check_matched_pair(a, b, maps), "not a matched pair")
    return _block_sum(a, b, *maps.acting_on(a, b), _POST_LIE_PRODUCTS,
                      tuple(a.basis) + tuple(b.basis))


# ---------------------------------------------------------------------------
# doubles and Manin triples
# ---------------------------------------------------------------------------

def pairing_form(n: int) -> Matrix:
    """B_d(x + a*, y + b*) = <x, b*> + <y, a*> on A + A*."""
    eye = Matrix.identity(n)
    return Tensor.blocks((2 * n, 2 * n), [(eye, (0, n)), (eye, (n, 0))])


def double_construction(alg: Algebra, checked=True):
    """Semidirect double A + A* along the dual-split representation.

    Returns the 2n-dimensional post-Lie algebra and the canonical pairing
    form, which together form a generalized pseudo-Hessian post-Lie algebra.
    """
    if checked:
        _require(check_pp_post_lie(alg), "not a pp-post-Lie algebra")
    horiz = horizontal_post_lie(alg, checked=False)
    rep = pp_split_dual_rep(alg)
    double = semidirect_post_lie(horiz, rep, checked=False)
    double = dataclasses.replace(double, basis=_doubled_basis(alg))
    return double, pairing_form(alg.dim)


def _doubled_basis(alg: Algebra) -> tuple:
    return tuple(alg.basis) + tuple(name + "*" for name in alg.basis)


def manin_triple_build(a_pp: Algebra, astar_pp: Algebra, checked=True):
    """Candidate standard Manin triple on A + A* from pp structures on both parts.

    Returns (double, pairing, report); the report validates rather than
    assumes that the double is post-Lie, the pairing is invariant, and the
    two halves embed as subalgebras.
    """
    if a_pp.dim != astar_pp.dim:
        raise ValueError("dimension mismatch between the two halves")
    if checked:
        for alg in (a_pp, astar_pp):
            _require(check_pp_post_lie(alg), "not a pp-post-Lie algebra")
    n = a_pp.dim
    ha = horizontal_post_lie(a_pp, checked=False)
    hb = horizontal_post_lie(astar_pp, checked=False)
    out = bowtie(ha, hb, coadjoint_matched_pair_maps(a_pp, astar_pp), checked=False)
    out = dataclasses.replace(out, basis=_doubled_basis(a_pp))
    form = pairing_form(n)

    try:
        post_lie = check_post_lie(out)
    except PreconditionError as exc:  # the bracket of the double is not Lie
        post_lie = exc.report
    nested = [("manin.post-lie", post_lie)]
    if post_lie.passed:
        nested.append(("manin.gph", check_gph(out, form, checked=False)))
    e = [basis_vec(2 * n, i) for i in range(2 * n)]

    # closure of the two halves (true by construction; validated anyway); a
    # product leaving its half is reported whole against an empty rhs
    def closure(i, j):
        for op in ("circ", "bracket"):
            prod = out.mul(op, e[i], e[j])
            yield "manin.closure-a", prod if any(prod[n:]) else (), ()
            prod = out.mul(op, e[n + i], e[n + j])
            yield "manin.closure-b", prod if any(prod[:n]) else (), ()
    return out, form, _sweep("manin-triple", [((n, n), closure)], nested)


# ---------------------------------------------------------------------------
# compatible splittings from an invariant form
# ---------------------------------------------------------------------------

def compatible_pp_from_gph(alg: Algebra, B: Matrix, checked=True) -> Algebra:
    """Split circ into rtri/ltri using a nondegenerate symmetric invariant form.

    rtri and ltri are the unique solutions of
        B(x |> y, z) = -B(y, x o z - z o x),
        B(x <| y, z) =  B(x, z o y),
    solved against B for all basis pairs (x, y) at once.
    """
    if checked:
        _require(check_gph(alg, B), "form is not generalized pseudo-Hessian")
    c = alg.table("circ")
    # B(e_a, x o z - z o x) at [x, z, a] and B(e_a, z o y) at [z, y, a]
    rt = _solve_products(B, -(c - c.permute((1, 0, 2))).contract(2, B).permute((0, 2, 1)))
    lt = _solve_products(B, c.contract(2, B).permute((2, 1, 0)))
    return Algebra(alg.dim, alg.field, alg.basis,
                   {"bracket": alg.table("bracket"), "rtri": rt, "ltri": lt})


def bullet_from_gph(alg: Algebra, B: Matrix, checked=True) -> Algebra:
    """The second post-Lie product: B(x . y, z) = -B(y, x o z)."""
    if checked:
        _require(check_gph(alg, B), "form is not generalized pseudo-Hessian")
    # B(e_a, x o z) at [x, z, a]
    c = _solve_products(B, -alg.table("circ").contract(2, B).permute((0, 2, 1)))
    return Algebra(alg.dim, alg.field, alg.basis,
                   {"bracket": alg.table("bracket"), "circ": c})


def _solve_products(B: Matrix, rhs: Tensor) -> Tensor:
    """The table c with B(e_i * e_j, e_k) = rhs[i, j, k] for all i, j, k:
    the columns of the one solution X of B^T X = rhs^T."""
    n = B.rows
    try:
        sol = B.transpose().solve(Matrix((n * n, n), rhs.entries).transpose())
    except SingularMatrixError:
        raise PreconditionError("form is degenerate")
    return Tensor((n, n, n), sol.transpose().entries)


# ---------------------------------------------------------------------------
# quarter splittings from O-operators
# ---------------------------------------------------------------------------

def pre_pp_from_o_operator(alg: Algebra, rep: PPRepSpec, T: Matrix, checked=True) -> Algebra:
    """Quarter-split structure on V induced by an O-operator T: V -> A."""
    if checked:
        _require(check_o_operator_pp(alg, rep, T), "T is not an O-operator")
    # the carriers at T(u), indexed by u in V
    return _quarter_split(rep.map(lambda c: c.contract(0, T.transpose())), alg.field)


def invertible_o_to_compatible_pre_pp(alg: Algebra, rep: PPRepSpec, T: Matrix,
                                      checked=True) -> Algebra:
    """Compatible quarter-splitting of the pp algebra itself from an invertible O-operator."""
    if checked:
        _require(check_o_operator_pp(alg, rep, T), "T is not an O-operator")
    if T.rows != T.cols:
        raise PreconditionError("operator is not invertible (not square)")
    try:
        Tinv = T.inverse()
    except SingularMatrixError:
        raise PreconditionError("operator is singular")
    # the carriers conjugated to act on A: x -> T c(x) T^-1
    conjugated = rep.map(lambda c: c.contract(1, T).contract(2, Tinv.transpose()))
    return _quarter_split(conjugated, alg.field, alg.basis)


def _quarter_split(rep: PPRepSpec, field: str, basis=()) -> Algebra:
    """The quarter products on V read off a pp representation indexed by V
    itself: x se y = l_rt(x) y, x ne y = r_rt(y) x, x sw y = l_lt(x) y,
    x nw y = r_lt(y) x, x . y = rho(x) y (inverse of quarter_split_rep)."""
    return Algebra(rep.dim, field, basis, {
        "se": rep.l_rt.permute(LEFT), "ne": rep.r_rt.permute(FROM_RIGHT),
        "sw": rep.l_lt.permute(LEFT), "nw": rep.r_lt.permute(FROM_RIGHT),
        "dot": rep.rho.permute(LEFT)})


def quarter_split_rep(alg: Algebra) -> PPRepSpec:
    """(A; L_se, R_ne, L_sw, R_nw, L_dot): the representation of the underlying
    pp algebra carried by a quarter-split structure."""
    t = alg.table
    return PPRepSpec(t("se").permute(LEFT), t("ne").permute(RIGHT), t("sw").permute(LEFT),
                     t("nw").permute(RIGHT), t("dot").permute(LEFT))


def hom_embed_r(alg: Algebra, rep: PPRepSpec, T: Matrix, checked=True):
    """Embed T: V -> A as an antisymmetric tensor in the double A + V*.

    Returns (Ahat, r) with Ahat = A semidirect V* along the dual
    representation, and r = T - tau(T) placed block-wise as
    r[n+j, i] = T[i, j], r[i, n+j] = -T[i, j].
    """
    if checked:
        _require(check_pp_rep(alg, rep), "not a pp representation")
    n, m = alg.dim, rep.dim
    _require_shape(T, n, m, "operator")
    ahat = semidirect_pp(alg, dual_pp_rep(alg, rep, checked=False), checked=False)
    ahat = dataclasses.replace(
        ahat, basis=tuple(alg.basis) + tuple("v%d*" % (i + 1) for i in range(m)))
    return ahat, Tensor.blocks((n + m, n + m), [(-T, (0, n)), (T.transpose(), (n, 0))])
