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

Every checker here is a list of whole-tensor equations (algebra.Identity)
in the tables, the carriers, the form B or the operator T, indexed by the
basis tuples of its arguments: for instance B([x, y], z) = B(x, [y, z])
at (x, y, z) = (e_i, e_j, e_k) is ijc,ck->ijk of (bracket, B) against
ia,jka->ijk of (B, bracket).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache

from .algebra import (
    Algebra,
    CheckReport,
    Identity,
    Term,
    _curly,
    _require,
    _require_shape,
    _swap,
    _sweep,
    check_lie,
    check_post_lie,
    check_pp_post_lie,
    sub_adjacent_lie,
    term,
)
from .linalg import LinAlgError, Matrix, Tensor, einsum
from .scalars import ONE, ZERO, Scalar

__all__ = [
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


# ---------------------------------------------------------------------------
# invariance of bilinear forms
# ---------------------------------------------------------------------------

def _invariance(alg: Algebra, B: Matrix, tag, circ_identity) -> list:
    """B([x,y],z) = B(x,[y,z]) plus one circ identity of B, at (x, y, z) = (i, j, k),
    on a post-Lie algebra."""
    n = alg.dim
    _require_shape(B, n, n, "form")
    _require(check_post_lie, alg, message="not a post-Lie algebra")
    br = alg.table("bracket")
    return [Identity(tag + ".lie", "ijk", [term("ijc,ck->ijk", br, B)],
                     [term("ia,jka->ijk", B, br)]),
            circ_identity(alg.table("circ"), B)]


def _cocycle(c, B) -> Identity:
    """B(x o y, z) - B(x, y o z) = B(y o x, z) - B(y, x o z)."""
    return Identity("inv.cocycle", "ijk",
                    [term("ijc,ck->ijk", c, B), -term("ia,jka->ijk", B, c)],
                    [term("jic,ck->ijk", c, B), -term("ja,ika->ijk", B, c)])


def _left_invariance(c, B) -> Identity:
    """B(x o y, z) = -B(y, x o z)."""
    return Identity("leftinv.circ", "ijk", [term("ijc,ck->ijk", c, B)],
                    [-term("ja,ika->ijk", B, c)])


def check_invariant_form(alg: Algebra, B: Matrix) -> CheckReport:
    """Bracket associativity of B plus the circ two-sided cocycle identity."""
    return _sweep("invariant-form", _invariance(alg, B, "inv", _cocycle))


def check_gph(alg: Algebra, B: Matrix) -> CheckReport:
    """Nondegenerate symmetric invariant form on a post-Lie algebra."""
    identities = _invariance(alg, B, "inv", _cocycle)
    # a degenerate form shows as lhs 0 against rhs 1
    nondeg = Tensor((), [ONE if B.det() else ZERO])
    return _sweep("gph", [Identity("form.sym", "", [term("ij->ij", B)], [term("ji->ij", B)]),
                          Identity("form.nondeg", "", [term("->", nondeg)],
                                   [term("->", Tensor((), [ONE]))])] + identities)


def check_left_invariant(alg: Algebra, B: Matrix) -> CheckReport:
    """Bracket-invariant B with B(x o y, z) = -B(y, x o z)."""
    return _sweep("left-invariant", _invariance(alg, B, "leftinv", _left_invariance))


def omega_cocycle(alg: Algebra, B: Matrix):
    """Antisymmetrisation of an invariant form, verified as a sub-adjacent 2-cocycle.

    Returns (omega, report): omega(x,y) = B(x,y) - B(y,x) and the report of
    the cyclic cocycle identity of omega on the sub-adjacent Lie algebra.
    """
    sub = sub_adjacent_lie(alg)  # its precondition is that alg is post-Lie
    _require(check_invariant_form, alg, B, message="form is not invariant")
    omega = B - B.transpose()
    br = sub.table("bracket")
    # omega([x,y], z) + omega([y,z], x) + omega([z,x], y) = 0
    return omega, _sweep("omega-cocycle", [Identity("omega.cocycle", "ijk", [
        term("ijc,ck->ijk", br, omega), term("jkc,ci->ijk", br, omega),
        term("kic,cj->ijk", br, omega)])])


# ---------------------------------------------------------------------------
# Rota-Baxter operators and the induced post-Lie product
# ---------------------------------------------------------------------------

def check_rota_baxter_lie(alg: Algebra, P: Matrix, weight: Scalar) -> CheckReport:
    """[P(x),P(y)] = P([P(x),y] + [x,P(y)] + weight [x,y]) on basis pairs."""
    n = alg.dim
    _require_shape(P, n, n, "operator")
    _require(check_lie, alg, message="not a Lie algebra")
    if not isinstance(weight, Scalar):
        weight = Scalar(weight)
    br = alg.table("bracket")
    return _sweep("rota-baxter", [Identity(
        "rb", "ij", [term("ai,bj,abk->ijk", P, P, br)],
        [term("kc,ai,ajc->ijk", P, P, br), term("kc,bj,ibc->ijk", P, P, br),
         term("kc,ijc->ijk", P.scale(weight), br)])])


def induced_post_lie(alg: Algebra, P: Matrix) -> Algebra:
    """x o y = [P(x), y] for a weight-one Rota-Baxter operator P."""
    _require(check_rota_baxter_lie, alg, P, ONE,
             message="P is not a weight-one Rota-Baxter operator")
    br = alg.table("bracket")
    return Algebra(alg.dim, alg.field, alg.basis,
                   {"bracket": br, "circ": einsum("ia,ijk->ajk", P, br)})


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

# axis orders taking a structure table to the carrier of left multiplication,
# L[i, k, j] = c[i, j, k], and of right multiplication, R[j, k, i] = c[i, j, k];
# a carrier goes back to a table by LEFT (its own inverse) or FROM_RIGHT
LEFT, RIGHT, FROM_RIGHT = (0, 2, 1), (1, 2, 0), (2, 0, 1)


class _Carriers:
    """Immutable carrier tensors of a representation, all of one shape
    (n, dim, dim) for an algebra of dimension n."""

    def __post_init__(self):
        shape = None
        for c in self.carriers():
            if (not isinstance(c, Tensor) or len(c.shape) != 3 or c.shape[1] != c.shape[2]
                    or shape not in (None, c.shape)):
                raise LinAlgError("carriers must be Tensors of one shape (n, m, m)")
            shape = c.shape

    def carriers(self) -> tuple:
        return tuple(getattr(self, f.name) for f in dataclasses.fields(self))

    def map(self, f):
        """The representation whose carriers are f of these."""
        return type(self)(*(f(c) for c in self.carriers()))

    def over(self, alg: Algebra, name="representation", by="the algebra") -> tuple:
        """The carriers, refused unless their first axis runs over the basis of alg."""
        if self.rho.shape[0] != alg.dim:
            raise LinAlgError("%s is indexed by %d basis vectors, %s is %d-dimensional"
                              % (name, self.rho.shape[0], by, alg.dim))
        return self.carriers()

    @property
    def dim(self) -> int:
        return self.rho.shape[1]


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


# the terms of the representation identities at x, y = e_i, e_j, as
# matrices on V (indices p, q)

def _on(table, carrier) -> Term:
    """The action of the product x * y with the given table."""
    return term("ijk,kpq->ijpq", table, carrier)


def _xy(first, second) -> Term:
    """first(x) second(y)."""
    return term("ips,jsq->ijpq", first, second)


def _yx(first, second) -> Term:
    """first(y) second(x)."""
    return term("jps,isq->ijpq", first, second)


def check_post_lie_rep(alg: Algebra, rep: RepSpec) -> CheckReport:
    _require(check_post_lie, alg, message="not a post-Lie algebra")
    c, br = alg.table("circ"), alg.table("bracket")
    l, r, rho = rep.over(alg)
    return _sweep("post-lie-rep", [
        Identity("rep.lie", "ij", [_on(br, rho)], [_xy(rho, rho), -_yx(rho, rho)]),
        Identity("rep.1", "ij", [_on(c, rho)], [_xy(l, rho), -_yx(rho, l)]),
        Identity("rep.2", "ij", [_on(br, r)], [_xy(rho, r), -_yx(rho, r)]),
        Identity("rep.3", "ij", [_on(c, r)], [_xy(l, r), -_yx(r, l - r + rho)]),
        Identity("rep.4", "ij", [_on(_curly(c, br), l)], [_xy(l, l), -_yx(l, l)]),
    ])


def pp_adjoint_rep(alg: Algebra) -> PPRepSpec:
    """(A; L_rt, R_rt, L_lt, R_lt, ad) on the pp algebra itself."""
    rt, lt = alg.table("rtri"), alg.table("ltri")
    return PPRepSpec(rt.permute(LEFT), rt.permute(RIGHT), lt.permute(LEFT), lt.permute(RIGHT),
                     alg.table("bracket").permute(LEFT))


def dual_pp_rep(alg: Algebra, rep: PPRepSpec, checked=True) -> PPRepSpec:
    """Dual-space representation of a pp representation.

    (V*; l_rt* - r_rt* + l_lt* - r_lt*, r_rt*, r_rt* - l_lt*, -(r_rt* + r_lt*), rho*).
    checked=False skips the pp-representation precondition:
    benchmarks/selftest.py builds its expected doubles that way.
    """
    if checked:
        _require(check_pp_rep, alg, rep, message="not a pp representation")
    a, b, c, d, rho = map(dual_map, rep.over(alg))
    return PPRepSpec(a - b + c - d, b, b - c, -(b + d), rho)


def pp_coadjoint_rep(alg: Algebra) -> PPRepSpec:
    """(A*; L_diamond*, R_rt*, R_bullet*, -R_circ*, ad*), kept per tables."""
    return _coadjoint(*(alg.table(op) for op in ("rtri", "ltri", "bracket")))


@lru_cache(maxsize=8)
def _coadjoint(rtri: Tensor, ltri: Tensor, bracket: Tensor) -> PPRepSpec:
    alg = Algebra(rtri.shape[0], ops={"rtri": rtri, "ltri": ltri, "bracket": bracket})
    return dual_pp_rep(alg, pp_adjoint_rep(alg), checked=False)


def check_pp_rep(alg: Algebra, rep: PPRepSpec) -> CheckReport:
    _require(check_pp_post_lie, alg, message="not a pp-post-Lie algebra")
    return _check_pp_rep(alg, rep)


def _check_pp_rep(alg: Algebra, rep: PPRepSpec) -> CheckReport:
    rt, lt, br = alg.table("rtri"), alg.table("ltri"), alg.table("bracket")
    lr, rr, ll, rl, p = rep.over(alg)
    circ = rt + lt
    bullet = rt - _swap(lt)
    return _sweep("pp-rep", [
        Identity("pprep.lie", "ij", [_on(br, p)], [_xy(p, p), -_yx(p, p)]),
        Identity("pprep.01", "ij", [_on(br, rl)], [_xy(rl, p), -_yx(rl, p)]),
        Identity("pprep.02", "ij", [_xy(ll, p)], [_on(br, ll), -_yx(rl, p)]),
        # chained vanishing conditions, each member on its own
        Identity("pprep.03a", "ij", [_xy(p, ll + rl)]),
        Identity("pprep.03b", "ij", [_on(br, ll + rl)]),
        Identity("pprep.03c", "ij", [_xy(ll + rl, p)]),
        Identity("pprep.03d", "ij", [_on(lt + _swap(lt), p)]),
        Identity("pprep.04", "ij", [_xy(lr - rl, p)], [_on(circ, p), _yx(p, lr - rl)]),
        Identity("pprep.05", "ij", [_on(br, rr - ll)],
                 [_xy(p, rr - ll), -_yx(p, rr - ll)]),
        Identity("pprep.06", "ij", [_xy(lr + p, ll)],
                 [_on(bullet, ll), _yx(ll, lr + ll)]),
        Identity("pprep.07", "ij", [_xy(lr + p, rl)],
                 [_on(circ, rl), _yx(rl, lr - rl)]),
        Identity("pprep.08", "ij", [_on(lt, rr)],
                 [_yx(rl, rr - ll), _xy(ll, rr + rl), _on(lt, p)]),
        Identity("pprep.09", "ij", [_on(rt, rr)],
                 [_xy(lr, rr), -_yx(rr, lr + ll - rr - rl + p), -_xy(p, rl),
                  -_yx(rl, p), -_on(lt, p)]),
        Identity("pprep.10", "ij", [_on(_curly(circ, br), lr)],
                 [_xy(lr, lr), -_yx(lr, lr), _yx(p, ll), -_xy(p, ll), -_on(br, ll)]),
    ])


# ---------------------------------------------------------------------------
# O-operators and their dual analogues
# ---------------------------------------------------------------------------

# T(u), T(v) for u, v = e_i, e_j in V multiplied with a table; T applied
# to the action of T(u) on v, and to the action of T(v) on u
_PRODUCT_OF_T, _T_LEFT, _T_RIGHT = "ai,bj,abk->ijk", "ai,apj,kp->ijk", "bj,bpi,kp->ijk"


def _o_operator(name, table, left, right, T, sign=1) -> Identity:
    """T(u) * T(v) = T(left(T(u)) v + sign right(T(v)) u)."""
    return Identity(name, "ij", [term(_PRODUCT_OF_T, T, T, table)],
                    [term(_T_LEFT, T, left, T), Term(_T_RIGHT, (T, right, T), sign)])


def check_o_operator_pp(alg: Algebra, rep: PPRepSpec, T: Matrix) -> CheckReport:
    """T: V -> A intertwining the pp products with the representation."""
    _require(check_pp_rep, alg, rep, message="not a pp representation")
    return _check_o_operator_pp(alg, rep, T)


def _check_o_operator_pp(alg: Algebra, rep: PPRepSpec, T: Matrix) -> CheckReport:
    _require_shape(T, alg.dim, rep.dim, "operator")
    l_rt, r_rt, l_lt, r_lt, rho = rep.over(alg)
    return _sweep("o-operator", [
        _o_operator("oop.1", alg.table("rtri"), l_rt, r_rt, T),
        _o_operator("oop.2", alg.table("ltri"), l_lt, r_lt, T),
        _o_operator("oop.3", alg.table("bracket"), rho, rho, T, -1),
    ])


def check_dual_p_o_operator(alg: Algebra, rep: RepSpec, T: Matrix) -> CheckReport:
    """T: V* -> A compatible with circ via (l* - r*) and with the bracket via rho*."""
    _require(check_post_lie_rep, alg, rep, message="not a post-Lie representation")
    _require_shape(T, alg.dim, rep.dim, "operator")
    l, r, rho = map(dual_map, rep.over(alg))
    br = alg.table("bracket")
    return _sweep("dual-p-o-operator", [
        _o_operator("dpo.1", alg.table("circ"), l - r, r, T, -1),
        Identity("dpo.2a", "ij", [term(_PRODUCT_OF_T, T, T, br)], [term(_T_LEFT, T, rho, T)]),
        Identity("dpo.2b", "ij", [term(_PRODUCT_OF_T, T, T, br)],
                 [-term(_T_RIGHT, T, rho, T)]),
    ])


def check_strong(alg: Algebra, rep: RepSpec, T: Matrix) -> CheckReport:
    """Strength conditions making the induced dual-space products pp-post-Lie."""
    _require(check_dual_p_o_operator, alg, rep, T, message="not a dual p-O-operator")
    _require_shape(T, alg.dim, rep.dim, "operator")
    _, r, rho = map(dual_map, rep.over(alg))
    br = alg.table("bracket")
    # with u, v, w = e_i, e_j, e_k in V* and the actions of T(u), T(v), T(w)
    return _sweep("strong", [
        # rho*(T u) v = -rho*(T v) u
        Identity("strong.1", "ij", [term("ai,apj->ijp", T, rho)],
                 [-term("bj,bpi->ijp", T, rho)]),
        # rho*(T u) (r*(T v) w + r*(T w) v) = 0
        Identity("strong.2a", "ijk", [term("ai,aqs,bj,bsk->ijkq", T, rho, T, r),
                                      term("ai,aqs,ck,csj->ijkq", T, rho, T, r)]),
        # r*([T u, T w]) v + r*(T v) rho*(T u) w = 0
        Identity("strong.2b", "ijk", [term("ai,bk,abc,cqj->ijkq", T, T, br, r),
                                      term("bj,bqs,ai,ask->ijkq", T, r, T, rho)]),
        # rho*([T u, T v]) w + rho*([T v, T w]) u + rho*([T w, T u]) v = 0
        Identity("strong.3", "ijk", [term("ai,bj,abc,cqk->ijkq", T, T, br, rho),
                                     term("aj,bk,abc,cqi->ijkq", T, T, br, rho),
                                     term("ak,bi,abc,cqj->ijkq", T, T, br, rho)]),
    ])


def pp_from_dual_p_o(alg: Algebra, rep: RepSpec, T: Matrix) -> Algebra:
    """pp-post-Lie structure on V* induced by a strong dual p-O-operator."""
    _require(check_strong, alg, rep, T, message="dual p-O-operator is not strong")
    # the dual carriers at T(u), indexed by u in V*
    l, r, rho = (einsum("ia,ijk->ajk", T, dual_map(c)) for c in rep.over(alg))
    return Algebra(rep.dim, alg.field, ops={"rtri": (l - r).permute(LEFT),
                                            "ltri": -r.permute(FROM_RIGHT),
                                            "bracket": rho.permute(LEFT)})
