"""Bilinear forms, Rota-Baxter operators, representations and O-type operators.

Conventions.  A bilinear form is an n x n Matrix with B[i,j] = B(e_i, e_j).
A linear map acts on coordinate columns.  A representation of an
n-dimensional algebra on an m-dimensional space V holds one carrier
Tensor per action, of shape (n, m, m): c[i] is the matrix by which e_i
acts, and x acts by c contracted against x along the first axis.  The
carriers of left and right multiplication are axis permutations of the
structure table, L[i, k, j] = R[j, k, i] = c[i, j, k].  Dual spaces always
use the dual basis, so the pairing matrix is the identity and every
dualized action is the negated transpose, -c[i, b, a].
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .algebra import (
    Algebra,
    CheckReport,
    _require,
    _require_shape,
    _sweep,
    check_lie,
    check_post_lie,
    check_pp_post_lie,
    sub_adjacent_lie,
)
from .linalg import Matrix, Tensor, basis_vec, vadd, vneg, vscale, vsub
from .scalars import ONE, ZERO, Scalar

__all__ = [
    "form_value",
    "check_invariant_form",
    "check_gph",
    "check_left_invariant",
    "omega_cocycle",
    "check_rota_baxter_lie",
    "induced_post_lie",
    "RepSpec",
    "PPRepSpec",
    "dual_map",
    "adjoint_rep",
    "check_post_lie_rep",
    "pp_split_dual_rep",
    "pp_adjoint_rep",
    "pp_coadjoint_rep",
    "check_pp_rep",
    "dual_pp_rep",
    "check_o_operator_pp",
    "check_dual_p_o_operator",
    "check_strong",
    "pp_from_dual_p_o",
]


def form_value(B: Matrix, x, y) -> Scalar:
    """B(x, y) for coordinate vectors x, y."""
    acc = ZERO
    for i, xi in enumerate(x):
        if not xi:
            continue
        for bij, yj in zip(B.row(i), y):
            if yj and bij:
                acc = acc + xi * bij * yj
    return acc


# ---------------------------------------------------------------------------
# invariance of bilinear forms
# ---------------------------------------------------------------------------

def _invariance(alg: Algebra, B: Matrix, checked, tag, circ_identity):
    """Families for B([x,y],z) = B(x,[y,z]) plus one circ identity of B."""
    n = alg.dim
    _require_shape(B, n, n, "form")
    if checked:
        _require(check_post_lie(alg), "not a post-Lie algebra")
    e = [basis_vec(n, i) for i in range(n)]

    def body(i, j, k):
        x, y, z = e[i], e[j], e[k]
        yield (tag + ".lie", form_value(B, alg.mul("bracket", x, y), z),
               form_value(B, x, alg.mul("bracket", y, z)))
        yield circ_identity(alg, B, x, y, z)
    return [((n, n, n), body)]


def _cocycle(alg, B, x, y, z):
    o = lambda a, b: alg.mul("circ", a, b)
    return ("inv.cocycle", form_value(B, o(x, y), z) - form_value(B, x, o(y, z)),
            form_value(B, o(y, x), z) - form_value(B, y, o(x, z)))


def _left_invariance(alg, B, x, y, z):
    return ("leftinv.circ", form_value(B, alg.mul("circ", x, y), z),
            -form_value(B, y, alg.mul("circ", x, z)))


def check_invariant_form(alg: Algebra, B: Matrix, checked=True) -> CheckReport:
    """Bracket associativity of B plus the circ two-sided cocycle identity."""
    return _sweep("invariant-form", _invariance(alg, B, checked, "inv", _cocycle))


def check_gph(alg: Algebra, B: Matrix, checked=True) -> CheckReport:
    """Nondegenerate symmetric invariant form on a post-Lie algebra."""
    families = _invariance(alg, B, checked, "inv", _cocycle)

    def form():
        yield "form.sym", B, B.transpose()
        # a degenerate form shows as lhs 0 against rhs 1
        yield "form.nondeg", ONE if B.det() else ZERO, ONE
    return _sweep("gph", [((), form)] + families)


def check_left_invariant(alg: Algebra, B: Matrix, checked=True) -> CheckReport:
    """Bracket-invariant B with B(x o y, z) = -B(y, x o z)."""
    return _sweep("left-invariant", _invariance(alg, B, checked, "leftinv", _left_invariance))


def omega_cocycle(alg: Algebra, B: Matrix):
    """Antisymmetrisation of an invariant form, verified as a sub-adjacent 2-cocycle.

    Returns (omega, report): omega(x,y) = B(x,y) - B(y,x) and the report of
    the cyclic cocycle identity of omega on the sub-adjacent Lie algebra.
    """
    sub = sub_adjacent_lie(alg)  # its precondition is that alg is post-Lie
    _require(check_invariant_form(alg, B, checked=False), "form is not invariant")
    omega = B - B.transpose()
    n = alg.dim
    e = [basis_vec(n, i) for i in range(n)]
    br = lambda x, y: sub.mul("bracket", x, y)

    def body(i, j, k):
        x, y, z = e[i], e[j], e[k]
        yield ("omega.cocycle",
               form_value(omega, br(x, y), z) + form_value(omega, br(y, z), x)
               + form_value(omega, br(z, x), y),
               ZERO)
    return omega, _sweep("omega-cocycle", [((n, n, n), body)])


# ---------------------------------------------------------------------------
# Rota-Baxter operators and the induced post-Lie product
# ---------------------------------------------------------------------------

def check_rota_baxter_lie(alg: Algebra, P: Matrix, weight: Scalar) -> CheckReport:
    """[P(x),P(y)] = P([P(x),y] + [x,P(y)] + weight [x,y]) on basis pairs."""
    n = alg.dim
    _require_shape(P, n, n, "operator")
    _require(check_lie(alg), "not a Lie algebra")
    if not isinstance(weight, Scalar):
        weight = Scalar(weight)
    e = [basis_vec(n, i) for i in range(n)]
    br = lambda x, y: alg.mul("bracket", x, y)

    def body(i, j):
        x, y = e[i], e[j]
        px, py = P.apply(x), P.apply(y)
        yield "rb", br(px, py), P.apply(vadd(br(px, y), br(x, py), vscale(weight, br(x, y))))
    return _sweep("rota-baxter", [((n, n), body)])


def induced_post_lie(alg: Algebra, P: Matrix) -> Algebra:
    """x o y = [P(x), y] for a weight-one Rota-Baxter operator P."""
    _require(check_rota_baxter_lie(alg, P, ONE), "P is not a weight-one Rota-Baxter operator")
    br = alg.table("bracket")
    return Algebra(alg.dim, alg.field, alg.basis,
                   {"bracket": br, "circ": br.contract(0, P.transpose())})


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

# axis orders taking a structure table to the carrier of left multiplication,
# L[i, k, j] = c[i, j, k], and of right multiplication, R[j, k, i] = c[i, j, k];
# a carrier goes back to a table by LEFT (its own inverse) or FROM_RIGHT
LEFT, RIGHT, FROM_RIGHT = (0, 2, 1), (1, 2, 0), (2, 0, 1)


class _Carriers:
    """Immutable carrier tensors of a representation, all of one shape
    (source_dim, dim, dim)."""

    def __post_init__(self):
        shape = None
        for c in self.carriers():
            if (not isinstance(c, Tensor) or len(c.shape) != 3 or c.shape[1] != c.shape[2]
                    or shape not in (None, c.shape)):
                raise ValueError("carriers must be Tensors of one shape (n, m, m)")
            shape = c.shape

    def carriers(self) -> tuple:
        return tuple(getattr(self, f.name) for f in dataclasses.fields(self))

    def map(self, f):
        """The representation whose carriers are f of these."""
        return type(self)(*(f(c) for c in self.carriers()))

    @property
    def dim(self) -> int:
        return self.rho.shape[1]

    @property
    def source_dim(self) -> int:
        return self.rho.shape[0]

    def act(self, which: str, x) -> Matrix:
        return getattr(self, which).contract(0, x)


@dataclass(frozen=True)
class RepSpec(_Carriers):
    """Post-Lie representation (V; l, r, rho)."""

    l: Tensor
    r: Tensor
    rho: Tensor


@dataclass(frozen=True)
class PPRepSpec(_Carriers):
    """pp-post-Lie representation (V; l_rt, r_rt, l_lt, r_lt, rho)."""

    l_rt: Tensor
    r_rt: Tensor
    l_lt: Tensor
    r_lt: Tensor
    rho: Tensor


def dual_map(carrier: Tensor) -> Tensor:
    """Dual action on V* under the standard pairing: each matrix to -M^T."""
    return -carrier.permute((0, 2, 1))


def adjoint_rep(alg: Algebra) -> RepSpec:
    """(A; L_circ, R_circ, ad) on the algebra itself."""
    c = alg.table("circ")
    return RepSpec(c.permute(LEFT), c.permute(RIGHT), alg.table("bracket").permute(LEFT))


def pp_split_dual_rep(alg: Algebra) -> RepSpec:
    """(A*; L_rt* - R_lt*, -R_lt*, ad*): the dual-space representation that
    characterises a pp splitting of the horizontal post-Lie product."""
    lrt = dual_map(alg.table("rtri").permute(LEFT))
    rlt = dual_map(alg.table("ltri").permute(RIGHT))
    return RepSpec(lrt - rlt, -rlt, dual_map(alg.table("bracket").permute(LEFT)))


def check_post_lie_rep(alg: Algebra, rep: RepSpec, checked=True) -> CheckReport:
    if checked:
        _require(check_post_lie(alg), "not a post-Lie algebra")
    n = alg.dim
    e = [basis_vec(n, i) for i in range(n)]

    def body(i, j):
        x, y = e[i], e[j]
        lx, ly = rep.act("l", x), rep.act("l", y)
        rx, ry = rep.act("r", x), rep.act("r", y)
        px, py = rep.act("rho", x), rep.act("rho", y)
        br = alg.mul("bracket", x, y)
        xy = alg.mul("circ", x, y)
        curly = vadd(xy, vneg(alg.mul("circ", y, x)), br)
        yield "rep.lie", rep.act("rho", br), px * py - py * px
        yield "rep.1", rep.act("rho", xy), lx * py - py * lx
        yield "rep.2", rep.act("r", br), px * ry - py * rx
        yield "rep.3", rep.act("r", xy), lx * ry - ry * (lx - rx + px)
        yield "rep.4", rep.act("l", curly), lx * ly - ly * lx
    return _sweep("post-lie-rep", [((n, n), body)])


def pp_adjoint_rep(alg: Algebra) -> PPRepSpec:
    """(A; L_rt, R_rt, L_lt, R_lt, ad) on the pp algebra itself."""
    rt, lt = alg.table("rtri"), alg.table("ltri")
    return PPRepSpec(rt.permute(LEFT), rt.permute(RIGHT), lt.permute(LEFT), lt.permute(RIGHT),
                     alg.table("bracket").permute(LEFT))


def dual_pp_rep(alg: Algebra, rep: PPRepSpec, checked=True) -> PPRepSpec:
    """Dual-space representation of a pp representation.

    (V*; l_rt* - r_rt* + l_lt* - r_lt*, r_rt*, r_rt* - l_lt*, -(r_rt* + r_lt*), rho*).
    """
    if checked:
        _require(check_pp_rep(alg, rep), "not a pp representation")
    a, b, c, d, rho = rep.map(dual_map).carriers()
    return PPRepSpec(a - b + c - d, b, b - c, -(b + d), rho)


def pp_coadjoint_rep(alg: Algebra) -> PPRepSpec:
    """(A*; L_diamond*, R_rt*, R_bullet*, -R_circ*, ad*)."""
    return dual_pp_rep(alg, pp_adjoint_rep(alg), checked=False)


def check_pp_rep(alg: Algebra, rep: PPRepSpec, checked=True) -> CheckReport:
    if checked:
        _require(check_pp_post_lie(alg), "not a pp-post-Lie algebra")
    n = alg.dim
    e = [basis_vec(n, i) for i in range(n)]
    m = rep.dim
    zero = Matrix.zero(m, m)

    def body(i, j):
        x, y = e[i], e[j]
        br = alg.mul("bracket", x, y)
        xy_lt = alg.mul("ltri", x, y)
        yx_lt = alg.mul("ltri", y, x)
        circ = vadd(alg.mul("rtri", x, y), xy_lt)
        bullet = vsub(alg.mul("rtri", x, y), yx_lt)
        curly = vadd(circ, vneg(vadd(alg.mul("rtri", y, x), yx_lt)), br)
        lrx, lry = rep.act("l_rt", x), rep.act("l_rt", y)
        rrx, rry = rep.act("r_rt", x), rep.act("r_rt", y)
        llx, lly = rep.act("l_lt", x), rep.act("l_lt", y)
        rlx, rly = rep.act("r_lt", x), rep.act("r_lt", y)
        px, py = rep.act("rho", x), rep.act("rho", y)
        yield "pprep.lie", rep.act("rho", br), px * py - py * px
        yield "pprep.01", rep.act("r_lt", br), rlx * py - rly * px
        yield "pprep.02", llx * py, rep.act("l_lt", br) - rly * px
        # chained vanishing conditions, each member on its own
        yield "pprep.03a", px * (lly + rly), zero
        yield "pprep.03b", rep.act("l_lt", br) + rep.act("r_lt", br), zero
        yield "pprep.03c", (llx + rlx) * py, zero
        yield "pprep.03d", rep.act("rho", vadd(xy_lt, yx_lt)), zero
        yield "pprep.04", (lrx - rlx) * py, rep.act("rho", circ) + py * (lrx - rlx)
        yield ("pprep.05", rep.act("r_rt", br) - rep.act("l_lt", br),
               px * (rry - lly) - py * (rrx - llx))
        yield ("pprep.06", (lrx + px) * lly,
               rep.act("l_lt", bullet) + lly * (lrx + llx))
        yield ("pprep.07", (lrx + px) * rly,
               rep.act("r_lt", circ) + rly * (lrx - rlx))
        yield ("pprep.08", rep.act("r_rt", xy_lt),
               rly * (rrx - llx) + llx * (rry + rly) + rep.act("rho", xy_lt))
        yield ("pprep.09", rep.act("r_rt", alg.mul("rtri", x, y)),
               lrx * rry - rry * (lrx + llx - rrx - rlx + px)
               - px * rly - rly * px - rep.act("rho", xy_lt))
        yield ("pprep.10", rep.act("l_rt", curly),
               lrx * lry - lry * lrx + py * llx - px * lly - rep.act("l_lt", br))
    return _sweep("pp-rep", [((n, n), body)])


# ---------------------------------------------------------------------------
# O-operators and their dual analogues
# ---------------------------------------------------------------------------

def check_o_operator_pp(alg: Algebra, rep: PPRepSpec, T: Matrix, checked=True) -> CheckReport:
    """T: V -> A intertwining the pp products with the representation."""
    if checked:
        _require(check_pp_rep(alg, rep), "not a pp representation")
    m = rep.dim
    _require_shape(T, alg.dim, m, "operator")
    e = [basis_vec(m, i) for i in range(m)]
    t = [T.apply(u) for u in e]

    def body(i, j):
        u, v, tu, tv = e[i], e[j], t[i], t[j]
        yield ("oop.1", alg.mul("rtri", tu, tv),
               T.apply(vadd(rep.act("l_rt", tu).apply(v), rep.act("r_rt", tv).apply(u))))
        yield ("oop.2", alg.mul("ltri", tu, tv),
               T.apply(vadd(rep.act("l_lt", tu).apply(v), rep.act("r_lt", tv).apply(u))))
        yield ("oop.3", alg.mul("bracket", tu, tv),
               T.apply(vsub(rep.act("rho", tu).apply(v), rep.act("rho", tv).apply(u))))
    return _sweep("o-operator", [((m, m), body)])


def check_dual_p_o_operator(alg: Algebra, rep: RepSpec, T: Matrix, checked=True) -> CheckReport:
    """T: V* -> A compatible with circ via (l* - r*) and with the bracket via rho*."""
    if checked:
        _require(check_post_lie_rep(alg, rep), "not a post-Lie representation")
    m = rep.dim
    _require_shape(T, alg.dim, m, "operator")
    e = [basis_vec(m, i) for i in range(m)]
    t = [T.apply(u) for u in e]
    star = rep.map(dual_map)

    def body(i, j):
        u, v, tu, tv = e[i], e[j], t[i], t[j]
        yield ("dpo.1", alg.mul("circ", tu, tv),
               T.apply(vsub((star.act("l", tu) - star.act("r", tu)).apply(v),
                            star.act("r", tv).apply(u))))
        br = alg.mul("bracket", tu, tv)
        yield "dpo.2a", br, T.apply(star.act("rho", tu).apply(v))
        yield "dpo.2b", br, vneg(T.apply(star.act("rho", tv).apply(u)))
    return _sweep("dual-p-o-operator", [((m, m), body)])


def check_strong(alg: Algebra, rep: RepSpec, T: Matrix, checked=True) -> CheckReport:
    """Strength conditions making the induced dual-space products pp-post-Lie."""
    if checked:
        _require(check_dual_p_o_operator(alg, rep, T), "not a dual p-O-operator")
    m = rep.dim
    _require_shape(T, alg.dim, m, "operator")
    e = [basis_vec(m, i) for i in range(m)]
    t = [T.apply(u) for u in e]
    star = rep.map(dual_map)
    zero = (ZERO,) * m

    def pairs(i, j):
        u, v, tu, tv = e[i], e[j], t[i], t[j]
        yield ("strong.1", star.act("rho", tu).apply(v),
               vneg(star.act("rho", tv).apply(u)))

    def triples(i, j, k):
        u, v, w, tu, tv, tw = e[i], e[j], e[k], t[i], t[j], t[k]
        yield ("strong.2a", star.act("rho", tu).apply(vadd(
            star.act("r", tv).apply(w), star.act("r", tw).apply(v))), zero)
        yield ("strong.2b", vadd(
            star.act("r", alg.mul("bracket", tu, tw)).apply(v),
            star.act("r", tv).apply(star.act("rho", tu).apply(w))), zero)
        yield ("strong.3", vadd(
            star.act("rho", alg.mul("bracket", tu, tv)).apply(w),
            star.act("rho", alg.mul("bracket", tv, tw)).apply(u),
            star.act("rho", alg.mul("bracket", tw, tu)).apply(v)), zero)
    return _sweep("strong", [((m, m), pairs), ((m, m, m), triples)])


def pp_from_dual_p_o(alg: Algebra, rep: RepSpec, T: Matrix, checked=True) -> Algebra:
    """pp-post-Lie structure on V* induced by a strong dual p-O-operator."""
    if checked:
        _require(check_strong(alg, rep, T), "dual p-O-operator is not strong")
    # the dual carriers at T(u), indexed by u in V*
    l, r, rho = rep.map(lambda c: dual_map(c).contract(0, T.transpose())).carriers()
    return Algebra(rep.dim, alg.field, ops={"rtri": (l - r).permute(LEFT),
                                            "ltri": -r.permute(FROM_RIGHT),
                                            "bracket": rho.permute(LEFT)})
