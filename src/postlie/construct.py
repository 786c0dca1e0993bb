"""Product and double constructions.

Doubled spaces always order the basis as e_1..e_n of A followed by the
dual basis e_1*..e_n* of A*, so the canonical pairing form is the
antidiagonal block matrix [[0, I], [I, 0]].  Every algebra on a sum A + B
(semidirect products, bowtie products, doubles) is one block sum of
tables: A's and B's products on the diagonal blocks and the carriers of
the mutual actions, permuted into tables, on the mixed ones.

The matched-pair equations and the closure of the two halves of a Manin
triple are whole-tensor equations (algebra.Identity) in the tables and
carriers, indexed by the basis tuples of their arguments.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .algebra import (
    FROM_RIGHT,
    LEFT,
    RIGHT,
    Algebra,
    CheckReport,
    Identity,
    PreconditionError,
    _curly,
    _horizontal_post_lie,
    _require,
    _require_pp,
    _require_shape,
    _swap,
    _sweep,
    check_post_lie,
    horizontal_post_lie,
    term,
)
from .forms import (
    PPRepSpec,
    RepSpec,
    check_gph,
    check_o_operator_pp,
    check_post_lie_rep,
    check_pp_rep,
    dual_pp_rep,
    pp_split_dual_rep,
)
from .linalg import LinAlgError, Matrix, SingularMatrixError, Tensor, einsum

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


def _semidirect(alg: Algebra, rep, products, star="") -> Algebra:
    """A + V with V an abelian ideal acted on by rep, its basis named v1<star> .. vm<star>."""
    rep.over(alg)
    m = rep.dim
    abelian = Algebra(m, ops={op: Tensor.zero(m, m, m) for op, _, _ in products})
    return _block_sum(alg, abelian, rep, None, products,
                      tuple(alg.basis) + tuple("v%d%s" % (i + 1, star) for i in range(m)))


def semidirect_post_lie(alg: Algebra, rep: RepSpec) -> Algebra:
    """Post-Lie structure on A + V with V an abelian ideal acted on by (l, r, rho)."""
    _require(check_post_lie_rep, alg, rep, message="not a post-Lie representation")
    return _semidirect(alg, rep, _POST_LIE_PRODUCTS)


def semidirect_pp(alg: Algebra, rep: PPRepSpec, checked=True) -> Algebra:
    """pp-post-Lie structure on A + V from a pp representation.  checked=False
    skips the pp-representation precondition: benchmarks/selftest.py builds
    its expected doubles that way."""
    if checked:
        _require(check_pp_rep, alg, rep, message="not a pp representation")
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
        """(on_b, on_a), checked to act on B's and A's spaces and to be
        indexed by A's and B's bases."""
        for name, rep, alg, by, acting in (("B", self.on_b, b, "A", a),
                                           ("A", self.on_a, a, "B", b)):
            if rep.dim != alg.dim:
                raise LinAlgError("action on %s has %dx%d carrier matrices, %s is %d-dimensional"
                                  % (name, rep.dim, rep.dim, name, alg.dim))
            rep.over(acting, "action on " + name, by)
        return self.on_b, self.on_a


def coadjoint_matched_pair_maps(a_pp: Algebra, b_pp: Algebra) -> MatchedPairMaps:
    """The canonical dual-space actions (L_rt* - R_lt*, -R_lt*, ad*) on both
    sides, for B carrying the structure dual to A*'s pp algebra."""
    return MatchedPairMaps(pp_split_dual_rep(a_pp), pp_split_dual_rep(b_pp))


def check_matched_pair(a: Algebra, b: Algebra, maps: MatchedPairMaps) -> CheckReport:
    """Representation conditions plus the ten mixed compatibility equations."""
    for alg in (a, b):
        _require(check_post_lie, alg, message="not a post-Lie algebra")
    rep_b, rep_a = maps.acting_on(a, b)
    nested = [("mp.rep-a", check_post_lie_rep(a, rep_b)),
              ("mp.rep-b", check_post_lie_rep(b, rep_a))]
    tables = [(*alg.require("circ", "bracket"), *rep.carriers())
              for alg, rep in ((a, rep_a), (b, rep_b))]
    return _sweep("matched-pair", _matched_pair, (*tables[0], *tables[1]), nested)


def _matched_pair(ca, bra, l2, r2, rho2, cb, brb, l, r, rho) -> list:
    """The ten mixed compatibility equations of A (tables ca, bra) and B
    (cb, brb) under the actions (l, r, rho) of A on B and (l2, r2, rho2) of
    B on A."""
    return (_mixed(("mp.01", "mp.02", "mp.05", "mp.06", "mp.09"), cb, brb, (l, r, rho),
                   (l2, r2, rho2))
            + _mixed(("mp.03", "mp.04", "mp.07", "mp.08", "mp.10"), ca, bra, (l2, r2, rho2),
                     (l, r, rho)))


def _mixed(names, cb, brb, on_b, on_a) -> list:
    """The five compatibility equations of the actions on_b (A on B) and
    on_a (B on A), each a carrier triple (l, r, rho), at x = e_i in A and
    u, v = e_j, e_k in B, valued in B (index p): the actions of x on
    [u, v], u o v and {u, v} = u o v - v o u + [u, v], each against the
    products of u and v with actions of x and the actions of (actions of u
    and v on x) on v and u.  The other five equations are these with A and
    B exchanged."""
    l, r, rho = on_b
    l2, r2, rho2 = on_a
    # the action of x on a product of u and v; the product of the action of
    # x on u (on v) with v (with u); the action of (an action of v (of u)
    # on x) on u (on v)
    on_product = lambda c, m: term("jks,ips->ijkp", c, m)
    first = lambda m, c: term("isj,skp->ijkp", m, c)
    second = lambda m, c: term("isk,jsp->ijkp", m, c)
    second_swapped = lambda m, c: term("isj,ksp->ijkp", m, c)
    back_v = lambda m2, m: term("ksi,spj->ijkp", m2, m)
    back_u = lambda m2, m: term("jsi,spk->ijkp", m2, m)
    return [
        Identity(names[0], "ijk", [on_product(brb, rho)],
                 [first(rho, brb), second(rho, brb), back_v(rho2, rho), -back_u(rho2, rho)]),
        Identity(names[1], "ijk", [on_product(cb, rho)],
                 [second(rho, cb), second_swapped(r, brb), -back_u(l2, rho), -back_v(rho2, r)]),
        Identity(names[2], "ijk", [on_product(brb, l)],
                 [first(l, brb), second(l, brb), back_u(r2, rho), -back_v(r2, rho)]),
        Identity(names[3], "ijk", [on_product(cb, l)],
                 [first(l - r + rho, cb), second(l, cb), back_v(r2, r),
                  back_u(r2 - l2 - rho2, l)]),
        Identity(names[4], "ijk", [on_product(_curly(cb, brb), r)],
                 [second(r, cb), -second_swapped(r, cb), back_v(l2, r), -back_u(l2, r)]),
    ]


def bowtie(a: Algebra, b: Algebra, maps: MatchedPairMaps) -> Algebra:
    """Post-Lie structure on A + B defined by the mutual actions."""
    _require(check_matched_pair, a, b, maps, message="not a matched pair")
    return _block_sum(a, b, *maps.acting_on(a, b), _POST_LIE_PRODUCTS,
                      tuple(a.basis) + tuple(b.basis))


# ---------------------------------------------------------------------------
# doubles and Manin triples
# ---------------------------------------------------------------------------

def pairing_form(n: int) -> Matrix:
    """B_d(x + a*, y + b*) = <x, b*> + <y, a*> on A + A*."""
    eye = Matrix.identity(n)
    return Tensor.blocks((2 * n, 2 * n), [(eye, (0, n)), (eye, (n, 0))])


def double_construction(alg: Algebra):
    """Semidirect double A + A* along the dual-split representation of a pp
    algebra.

    Returns the 2n-dimensional post-Lie algebra and the canonical pairing
    form, which together form a generalized pseudo-Hessian post-Lie algebra.
    """
    _require_pp(alg)
    return _double_construction(alg)


def _double_construction(alg: Algebra):
    double = _semidirect(_horizontal_post_lie(alg), pp_split_dual_rep(alg), _POST_LIE_PRODUCTS)
    return dataclasses.replace(double, basis=_doubled_basis(alg)), pairing_form(alg.dim)


def _doubled_basis(alg: Algebra) -> tuple:
    return tuple(alg.basis) + tuple(name + "*" for name in alg.basis)


def manin_triple_build(a_pp: Algebra, astar_pp: Algebra):
    """Candidate standard Manin triple on A + A* from pp structures on both parts.

    Returns (double, pairing, report); the report validates rather than
    assumes that the double is post-Lie, the pairing is invariant, and the
    two halves embed as subalgebras.
    """
    if a_pp.dim != astar_pp.dim:
        raise LinAlgError("A is %d-dimensional, A* is %d-dimensional"
                          % (a_pp.dim, astar_pp.dim))
    n = a_pp.dim
    maps = coadjoint_matched_pair_maps(a_pp, astar_pp)
    out = _block_sum(horizontal_post_lie(a_pp), horizontal_post_lie(astar_pp),
                     maps.on_b, maps.on_a, _POST_LIE_PRODUCTS, _doubled_basis(a_pp))
    form = pairing_form(n)

    try:     # check_gph requires it again and reads its leaves from the memo
        post_lie = check_post_lie(out)
    except PreconditionError as exc:  # the bracket of the double is not Lie
        post_lie = exc.report
    nested = [("manin.post-lie", post_lie)]
    if post_lie.passed:
        nested.append(("manin.gph", check_gph(out, form)))
    return out, form, _sweep("manin-triple", _closure, out.require("circ", "bracket"), nested)


def _closure(circ, br) -> list:
    """The closure of the two halves of A + A* (true by construction;
    validated anyway): a product of two basis vectors of one half has no
    part in the other, so that part, over all 2n basis vectors, must
    vanish."""
    n = circ.shape[0] // 2
    eye = Matrix.identity(n)
    # per half: its name, the embedding of its basis and the projection
    # onto the other half
    halves = [(name, Tensor.blocks((2 * n, n), [(eye, (start, 0))]),
               Tensor.blocks((2 * n, 2 * n), [(eye, (n - start, n - start))]))
              for name, start in (("manin.closure-a", 0), ("manin.closure-b", n))]
    return [Identity(name, "ij", [term("ai,bj,abc,kc->ijk", e, e, table, other)])
            for table in (circ, br) for name, e, other in halves]


# ---------------------------------------------------------------------------
# compatible splittings from an invariant form
# ---------------------------------------------------------------------------

def compatible_pp_from_gph(alg: Algebra, B: Matrix) -> Algebra:
    """Split circ into rtri/ltri using a nondegenerate symmetric invariant form.

    rtri and ltri are the unique solutions of
        B(x |> y, z) = -B(y, x o z - z o x),
        B(x <| y, z) =  B(x, z o y),
    solved against B for all basis pairs (x, y) at once.
    """
    _require(check_gph, alg, B, message="form is not generalized pseudo-Hessian")
    return _compatible_pp_from_gph(alg, B)


def _compatible_pp_from_gph(alg: Algebra, B: Matrix) -> Algebra:
    c = alg.table("circ")
    # -B(e_y, x o z - z o x) and B(e_x, z o y), each at [x, y, z]
    rt = _solve_products(B, -einsum("ya,xza->xyz", B, c - _swap(c)))
    lt = _solve_products(B, einsum("xa,zya->xyz", B, c))
    return Algebra(alg.dim, alg.field, alg.basis,
                   {"bracket": alg.table("bracket"), "rtri": rt, "ltri": lt})


def bullet_from_gph(alg: Algebra, B: Matrix) -> Algebra:
    """The second post-Lie product: B(x . y, z) = -B(y, x o z)."""
    _require(check_gph, alg, B, message="form is not generalized pseudo-Hessian")
    # -B(e_y, x o z) at [x, y, z]
    c = _solve_products(B, -einsum("ya,xza->xyz", B, alg.table("circ")))
    return Algebra(alg.dim, alg.field, alg.basis,
                   {"bracket": alg.table("bracket"), "circ": c})


def _solve_products(B: Matrix, rhs: Tensor) -> Tensor:
    """The table c with B(e_i * e_j, e_k) = rhs[i, j, k] for all i, j, k:
    the columns of the one solution X of B^T X = rhs^T."""
    n = B.rows
    try:
        sol = B.transpose().solve(rhs.reshape(n * n, n).transpose())
    except SingularMatrixError:
        raise PreconditionError("form is degenerate")
    return sol.transpose().reshape(n, n, n)


# ---------------------------------------------------------------------------
# quarter splittings from O-operators
# ---------------------------------------------------------------------------

def pre_pp_from_o_operator(alg: Algebra, rep: PPRepSpec, T: Matrix) -> Algebra:
    """Quarter-split structure on V induced by an O-operator T: V -> A."""
    _require(check_o_operator_pp, alg, rep, T, message="T is not an O-operator")
    # the carriers at T(u), indexed by u in V
    return _quarter_split(rep.map(lambda c: einsum("ia,ijk->ajk", T, c)), alg.field)


def invertible_o_to_compatible_pre_pp(alg: Algebra, rep: PPRepSpec, T: Matrix) -> Algebra:
    """Compatible quarter-splitting of the pp algebra itself from an invertible O-operator."""
    _require(check_o_operator_pp, alg, rep, T, message="T is not an O-operator")
    if T.rows != T.cols:
        raise PreconditionError("operator is not invertible (not square)")
    try:
        Tinv = T.inverse()
    except SingularMatrixError:
        raise PreconditionError("operator is singular")
    # the carriers conjugated to act on A: x -> T c(x) T^-1
    conjugated = rep.map(lambda c: einsum("aj,ijk,kb->iab", T, c, Tinv))
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


def hom_embed_r(alg: Algebra, rep: PPRepSpec, T: Matrix):
    """Embed T: V -> A as an antisymmetric tensor in the double A + V*.

    Returns (Ahat, r) with Ahat = A semidirect V* along the dual
    representation, and r = T - tau(T) placed block-wise as
    r[n+j, i] = T[i, j], r[i, n+j] = -T[i, j].
    """
    _require(check_pp_rep, alg, rep, message="not a pp representation")
    r = _hom_r(alg.dim, rep.dim, T)
    return _hom_double(alg, rep), r


def _hom_double(alg: Algebra, rep: PPRepSpec) -> Algebra:
    """Ahat of hom_embed_r: it depends on A and the representation, not on T."""
    return _semidirect(alg, dual_pp_rep(alg, rep, checked=False), _PP_PRODUCTS, "*")


def _hom_r(n: int, m: int, T: Matrix) -> Tensor:
    """r of hom_embed_r for T: V -> A, with dim A = n and dim V = m."""
    _require_shape(T, n, m, "operator")
    return Tensor.blocks((n + m, n + m), [(-T, (0, n)), (T.transpose(), (n, 0))])
