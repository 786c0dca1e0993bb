"""Product and double constructions.

Doubled spaces always order the basis as e_1..e_n of A followed by the
dual basis e_1*..e_n* of A*, so the canonical pairing form is the
antidiagonal block matrix [[0, I], [I, 0]].
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
    PPRepSpec,
    RepSpec,
    check_gph,
    check_o_operator_pp,
    check_post_lie_rep,
    check_pp_rep,
    dual_pp_rep,
    form_value,
    pp_split_dual_rep,
)
from .linalg import Matrix, SingularMatrixError, Tensor, basis_vec, vadd, vneg, vsub
from .scalars import ONE, ZERO

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


def _split(vec, n):
    return vec[:n], vec[n:]


def _join(a, v):
    return tuple(a) + tuple(v)


def _semidirect(alg: Algebra, rep, products) -> Algebra:
    """A + V with V an abelian ideal: each (op, left, right, combine) product
    is op on the A parts plus combine(left(x) v, right(y) u) on V."""
    n = alg.dim
    out = Algebra(n + rep.dim, alg.field,
                  tuple(alg.basis) + tuple("v%d" % (i + 1) for i in range(rep.dim)))
    for op, left, right, combine in products:
        def mul(xs, ys, op=op, left=left, right=right, combine=combine):
            x, u = _split(xs, n)
            y, v = _split(ys, n)
            return _join(alg.mul(op, x, y),
                         combine(rep.act(left, x).apply(v), rep.act(right, y).apply(u)))
        out = out.op_table_from(op, mul)
    return out


def semidirect_post_lie(alg: Algebra, rep: RepSpec, checked=True) -> Algebra:
    """Post-Lie structure on A + V with V an abelian ideal acted on by (l, r, rho)."""
    if checked:
        _require(check_post_lie_rep(alg, rep), "not a post-Lie representation")
    return _semidirect(alg, rep, (("circ", "l", "r", vadd), ("bracket", "rho", "rho", vsub)))


def semidirect_pp(alg: Algebra, rep: PPRepSpec, checked=True) -> Algebra:
    """pp-post-Lie structure on A + V from a pp representation."""
    if checked:
        _require(check_pp_rep(alg, rep), "not a pp representation")
    return _semidirect(alg, rep, (("rtri", "l_rt", "r_rt", vadd), ("ltri", "l_lt", "r_lt", vadd),
                                  ("bracket", "rho", "rho", vsub)))


# ---------------------------------------------------------------------------
# matched pairs
# ---------------------------------------------------------------------------

@dataclass
class MatchedPairMaps:
    """Mutual actions: *_a maps live on B's carrier indexed by A's basis, and
    vice versa."""

    l_a: list
    r_a: list
    rho_a: list
    l_b: list
    r_b: list
    rho_b: list

    def rep_on_b(self, dim_b: int) -> RepSpec:
        return RepSpec(dim_b, self.l_a, self.r_a, self.rho_a)

    def rep_on_a(self, dim_a: int) -> RepSpec:
        return RepSpec(dim_a, self.l_b, self.r_b, self.rho_b)


def coadjoint_matched_pair_maps(a_pp: Algebra, b_pp: Algebra) -> MatchedPairMaps:
    """The canonical dual-space actions (L_rt* - R_lt*, -R_lt*, ad*) on both
    sides, for B carrying the structure dual to A*'s pp algebra."""
    a, b = pp_split_dual_rep(a_pp), pp_split_dual_rep(b_pp)
    return MatchedPairMaps(a.l, a.r, a.rho, b.l, b.r, b.rho)


def check_matched_pair(a: Algebra, b: Algebra, maps: MatchedPairMaps,
                       checked=True) -> CheckReport:
    """Representation conditions plus the ten mixed compatibility equations."""
    if checked:
        for alg in (a, b):
            _require(check_post_lie(alg), "not a post-Lie algebra")
    na, nb = a.dim, b.dim
    ea = [basis_vec(na, i) for i in range(na)]
    eb = [basis_vec(nb, i) for i in range(nb)]
    rep_b = maps.rep_on_b(nb)
    rep_a = maps.rep_on_a(na)
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
    na, nb = a.dim, b.dim
    rep_b = maps.rep_on_b(nb)
    rep_a = maps.rep_on_a(na)
    out = Algebra(na + nb, a.field, tuple(a.basis) + tuple(b.basis))

    def circ(xs, ys):
        x, u = _split(xs, na)
        y, v = _split(ys, na)
        apart = vadd(a.mul("circ", x, y), rep_a.act("l", u).apply(y), rep_a.act("r", v).apply(x))
        bpart = vadd(b.mul("circ", u, v), rep_b.act("l", x).apply(v), rep_b.act("r", y).apply(u))
        return _join(apart, bpart)

    def bracket(xs, ys):
        x, u = _split(xs, na)
        y, v = _split(ys, na)
        apart = vadd(a.mul("bracket", x, y),
                     rep_a.act("rho", u).apply(y), vneg(rep_a.act("rho", v).apply(x)))
        bpart = vadd(b.mul("bracket", u, v),
                     rep_b.act("rho", x).apply(v), vneg(rep_b.act("rho", y).apply(u)))
        return _join(apart, bpart)

    out = out.op_table_from("circ", circ)
    return out.op_table_from("bracket", bracket)


# ---------------------------------------------------------------------------
# doubles and Manin triples
# ---------------------------------------------------------------------------

def pairing_form(n: int) -> Matrix:
    """B_d(x + a*, y + b*) = <x, b*> + <y, a*> on A + A*."""
    return Matrix((2 * n, 2 * n), [ONE if j == (i + n) % (2 * n) else ZERO
                                   for i in range(2 * n) for j in range(2 * n)])


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
    e = [basis_vec(alg.dim, i) for i in range(alg.dim)]
    o = lambda x, y: alg.mul("circ", x, y)
    rt = _solve_products(B, [[-form_value(B, y, vsub(o(x, z), o(z, x))) for z in e]
                             for x in e for y in e])
    lt = _solve_products(B, [[form_value(B, x, o(z, y)) for z in e] for x in e for y in e])
    return Algebra(alg.dim, alg.field, alg.basis,
                   {"bracket": alg.table("bracket"), "rtri": rt, "ltri": lt})


def bullet_from_gph(alg: Algebra, B: Matrix, checked=True) -> Algebra:
    """The second post-Lie product: B(x . y, z) = -B(y, x o z)."""
    if checked:
        _require(check_gph(alg, B), "form is not generalized pseudo-Hessian")
    e = [basis_vec(alg.dim, i) for i in range(alg.dim)]
    c = _solve_products(B, [[-form_value(B, y, alg.mul("circ", x, z)) for z in e]
                            for x in e for y in e])
    return Algebra(alg.dim, alg.field, alg.basis,
                   {"bracket": alg.table("bracket"), "circ": c})


def _solve_products(B: Matrix, rhs) -> Tensor:
    """The table c with B(e_i * e_j, e_k) = rhs[i n + j][k] for all i, j, k:
    the columns of the one solution X of B^T X = rhs^T."""
    n = B.rows
    try:
        sol = B.transpose().solve(Matrix((n * n, n), [s for row in rhs for s in row]).transpose())
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
    m = rep.dim
    out = Algebra(m, alg.field)
    out = out.op_table_from("se", lambda u, v: rep.act("l_rt", T.apply(u)).apply(v))
    out = out.op_table_from("ne", lambda u, v: rep.act("r_rt", T.apply(v)).apply(u))
    out = out.op_table_from("sw", lambda u, v: rep.act("l_lt", T.apply(u)).apply(v))
    out = out.op_table_from("nw", lambda u, v: rep.act("r_lt", T.apply(v)).apply(u))
    return out.op_table_from("dot", lambda u, v: rep.act("rho", T.apply(u)).apply(v))


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
    out = Algebra(alg.dim, alg.field, alg.basis)
    out = out.op_table_from("se", lambda x, y: T.apply(rep.act("l_rt", x).apply(Tinv.apply(y))))
    out = out.op_table_from("ne", lambda x, y: T.apply(rep.act("r_rt", y).apply(Tinv.apply(x))))
    out = out.op_table_from("sw", lambda x, y: T.apply(rep.act("l_lt", x).apply(Tinv.apply(y))))
    out = out.op_table_from("nw", lambda x, y: T.apply(rep.act("r_lt", y).apply(Tinv.apply(x))))
    return out.op_table_from("dot", lambda x, y: T.apply(rep.act("rho", x).apply(Tinv.apply(y))))


def quarter_split_rep(alg: Algebra) -> PPRepSpec:
    """(A; L_se, R_ne, L_sw, R_nw, L_dot): the representation of the underlying
    pp algebra carried by a quarter-split structure."""
    n = alg.dim
    e = [basis_vec(n, i) for i in range(n)]
    return PPRepSpec(
        n,
        [alg.left_mult("se", x) for x in e],
        [alg.right_mult("ne", x) for x in e],
        [alg.left_mult("sw", x) for x in e],
        [alg.right_mult("nw", x) for x in e],
        [alg.left_mult("dot", x) for x in e],
    )


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
    Tt = T.transpose()
    r = Matrix.from_rows([(ZERO,) * n + vneg(T.row(i)) for i in range(n)]
                         + [Tt.row(j) + (ZERO,) * m for j in range(m)])
    return ahat, r
