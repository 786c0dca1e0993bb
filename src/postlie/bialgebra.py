"""Coalgebras, bialgebras and the Yang-Baxter machinery for split post-Lie algebras.

Tensors.  Every tensor here is the one immutable Tensor of
postlie.linalg, entries flat in row-major order.  An element r of A (x) A
is an n x n Matrix with r = sum_ij r[i, j] e_i (x) e_j, an element of
A (x) A (x) A is a Tensor t[i, j, k] of shape (n, n, n), and a
comultiplication table is a Tensor d of the same shape with
delta(e_k) = sum_ij d[k, i, j] e_i (x) e_j.  So delta(x) contracts the
first axis of d against x, and the dual algebra's table is the axis
permutation c[i, j, k] = d[k, i, j].

Operators on 2-tensors of the form M (x) id + id (x) N act as the
sandwich M r + r N^T, which agrees with the row-major Kronecker matrix
acting on the vectorised tensor (cross-checked in the test suite).  The
matrices of multiplication by x are the actions of the pp adjoint
representation, whose carriers are permuted tables built once per call.

The coalgebra, bialgebra, Yang-Baxter and quasitriangularity checks are
lists of whole-tensor equations (algebra.Identity) in the tables, the
carriers, the comaps and r; C(r) and D(r) are one sum of einsum terms
each.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping

from .algebra import (
    PP_IDENTITIES,
    Algebra,
    CheckReport,
    Identity,
    PreconditionError,
    Term,
    _Tables,
    _curly,
    _require_shape,
    _side,
    _swap,
    _sweep,
    check_lie,
    check_pp_post_lie,
    term,
)
from .forms import (
    LEFT, PPRepSpec, _check_o_operator_pp, _on, _xy, _yx, pp_adjoint_rep, pp_coadjoint_rep)
from .linalg import LinAlgError, Matrix, Tensor, einsum
from .scalars import ONE

__all__ = [
    "CoalgebraSpec",
    "COMAP_NAMES",
    "dualize",
    "dualize_alg",
    "check_lie_coalgebra",
    "check_pp_coalgebra",
    "check_lie_bialgebra",
    "check_pp_bialgebra",
    "cybe_C",
    "cybe_D",
    "check_pppcybe",
    "cobrackets_from_r",
    "check_quasitriangular_conditions",
    "operator_form_check",
]

_COMAP_TO_OP = {"delta_rtri": "rtri", "delta_ltri": "ltri", "Delta": "bracket"}
COMAP_NAMES = tuple(_COMAP_TO_OP)
_OP_TO_COMAP = {v: k for k, v in _COMAP_TO_OP.items()}


@dataclass(frozen=True)
class CoalgebraSpec(_Tables):
    """Coalgebra given by comultiplication tables d[k, i, j] (Tensors)."""

    comaps: Mapping = dataclasses.field(default_factory=dict)

    _mapping, _names, _words = "comaps", COMAP_NAMES, ("coalgebra", "comap", "comap")


def dualize(co: CoalgebraSpec) -> Algebra:
    """Algebra on the dual space: c[i, j, k] = d[k, i, j]."""
    ops = {_COMAP_TO_OP[name]: d.permute((1, 2, 0)) for name, d in co.comaps.items()}
    return Algebra(co.dim, co.field, tuple(b + "*" for b in co.basis), ops)


def dualize_alg(alg: Algebra) -> CoalgebraSpec:
    """Coalgebra on the dual space, inverse of dualize: the comaps of the
    rtri, ltri and bracket tables alg has."""
    comaps = {comap: alg.table(op).permute((2, 0, 1))
              for op, comap in _OP_TO_COMAP.items() if alg.has(op)}
    basis = tuple(b[:-1] if b.endswith("*") else b + "*" for b in alg.basis)
    return CoalgebraSpec(alg.dim, alg.field, basis, comaps)


def check_lie_coalgebra(co: CoalgebraSpec) -> CheckReport:
    """Co-antisymmetry and co-Jacobi, checked on the dual algebra."""
    only_delta = CoalgebraSpec(co.dim, co.field, co.basis, {"Delta": co.table("Delta")})
    return _sweep("lie-coalgebra", nested=[("dual", check_lie(dualize(only_delta)))])


def check_pp_coalgebra(co: CoalgebraSpec, mode: str = "dual") -> CheckReport:
    """pp-post-Lie coalgebra check.

    mode="dual" dualizes the three comaps and runs the pp algebra checker;
    mode="direct" evaluates the comultiplication identities on basis
    elements.  The two must agree and the test suite cross-checks them.
    A comultiplication that is not co-Lie yields a failing report rather
    than an error.
    """
    return _pp_coalgebra_reports(co, (mode,))[0]


def _pp_coalgebra_reports(co: CoalgebraSpec, modes) -> list:
    """check_pp_coalgebra in each mode, on one co-Lie check."""
    for name in COMAP_NAMES:
        co.table(name)
    colie = dataclasses.replace(check_lie_coalgebra(co), name="pp-coalgebra")
    if not colie.passed:
        return [colie] * len(modes)
    return [_pp_coalgebra_mode(co, mode) for mode in modes]


def _pp_coalgebra_mode(co: CoalgebraSpec, mode: str) -> CheckReport:
    if mode == "dual":
        # the dual bracket is Lie: the co-Lie check just passed
        dual = dualize(co)
        pp = _sweep("pp-post-lie", PP_IDENTITIES(dual))
        return _sweep("pp-coalgebra", nested=[("dual", pp)])
    if mode != "direct":
        raise ValueError("mode must be 'dual' or 'direct'")

    rt, lt, De = (co.table(name) for name in COMAP_NAMES)
    swap23 = lambda t: t.permute((0, 2, 1))
    circ = rt + lt
    bull = rt - swap23(lt)
    lt_sym = lt + swap23(lt)
    # at x = e_k, with d1 (x) id and id (x) d2 applied to the 2-tensor d3(x):
    # first(d1, d3) = (d1 (x) id) d3(x), second(d2, d3) = (id (x) d2) d3(x),
    # and swapped, the second with its first two slots exchanged
    first = lambda d1, d3: term("ksc,sab->kabc", d3, d1)
    second = lambda d2, d3: term("kas,sbc->kabc", d3, d2)
    swapped = lambda d2, d3: term("kbs,sac->kabc", d3, d2)
    return _sweep("pp-coalgebra", [
        Identity("ppco.1", "k", [second(De, lt)], [first(De, lt), swapped(De, lt)]),
        Identity("ppco.2a", "k", [second(lt_sym, De)]),
        Identity("ppco.2b", "k", [first(De, lt_sym)]),
        Identity("ppco.3", "k", [second(De, bull)], [first(circ, De), swapped(bull, De)]),
        Identity("ppco.4", "k", [second(lt, rt)],
                 [first(bull, lt), swapped(circ, lt), -second(lt, De)]),
        # t - t with its first two slots exchanged, for each t
        Identity("ppco.5", "k", [first(circ, rt), -term("ksc,sba->kabc", rt, circ)],
                 [second(rt, rt), -swapped(rt, rt), -first(De, circ),
                  -second(lt, De), swapped(lt, De)]),
    ])


# ---------------------------------------------------------------------------
# bialgebra compatibility checks
# ---------------------------------------------------------------------------

# With x, y = e_i, e_j, a carrier M (the matrix M(x) = M[i]) and a
# comultiplication table d (the 2-tensor d(y) = d[j]):
#   _xy(M, d)    (M(x) (x) id) d(y)   = M(x) d(y)
#   _rhs(M, d)   (id (x) M(x)) d(y)   = d(y) M(x)^T
# with _yx(M, d), or _rhs with yx=True, the same with x and y exchanged;
#   _on(c, d)    d(x * y) for the product with table c.

def _rhs(m, d, yx=False) -> Term:
    return term("ips,jqs->ijpq" if yx else "jps,iqs->ijpq", d, m)


def _cocycle(name, br, ad, De) -> Identity:
    """Delta([x, y]) = ad(x).Delta(y) - ad(y).Delta(x), with
    ad(x).t = (ad(x) (x) id + id (x) ad(x)) t."""
    return Identity(name, "ij", [_on(br, De)],
                    [_xy(ad, De), _rhs(ad, De), -_yx(ad, De), -_rhs(ad, De, True)])


def _require_same_space(alg: Algebra, co: CoalgebraSpec):
    """Reject a coalgebra on a space of another dimension than the algebra's."""
    if co.dim != alg.dim:
        raise LinAlgError("coalgebra is %d-dimensional, algebra is %d-dimensional"
                          % (co.dim, alg.dim))


def check_lie_bialgebra(alg: Algebra, co: CoalgebraSpec) -> CheckReport:
    """Lie algebra + Lie coalgebra + the adjoint cocycle condition on Delta."""
    _require_same_space(alg, co)
    nested = [("bialg.alg", check_lie(alg)), ("bialg.coalg", check_lie_coalgebra(co))]
    br = alg.table("bracket")
    return _sweep("lie-bialgebra", [_cocycle("bialg.cocycle", br, br.permute(LEFT),
                                             co.table("Delta"))], nested)


def check_pp_bialgebra(alg: Algebra, co: CoalgebraSpec) -> CheckReport:
    """pp algebra + pp coalgebra + the nine mixed compatibility conditions."""
    _require_same_space(alg, co)
    nested = [("ppbialg.alg", check_pp_post_lie(alg)), ("ppbialg.coalg", check_pp_coalgebra(co))]
    transpose = lambda t: t.permute((0, 2, 1))
    rt, lt, br = alg.table("rtri"), alg.table("ltri"), alg.table("bracket")
    circ = rt + lt
    bull = rt - _swap(lt)
    # the carriers of multiplication by x, and the comultiplications
    lrt, rrt, llt, rlt, ad = pp_adjoint_rep(alg).carriers()
    lcirc, lbull, rcirc, rbull = lrt + llt, lrt - rlt, rrt + rlt, rrt - llt
    d_rt, d_lt, De = (co.table(name) for name in COMAP_NAMES)
    d_circ = d_rt + d_lt
    d_bull = d_rt - transpose(d_lt)
    return _sweep("pp-bialgebra", [
        _cocycle("ppbialg.cocycle", br, ad, De),
        Identity("ppbialg.1", "ij", [_on(circ, De)],
                 [_xy(lcirc, De), _rhs(lbull, De), _rhs(ad, d_lt, True),
                  _yx(ad, d_lt)]),
        Identity("ppbialg.2", "ij", [_on(bull, De)],
                 [_xy(lbull, De), _rhs(lbull, De), -_rhs(ad, transpose(d_lt), True),
                  _yx(ad, d_lt)]),
        Identity("ppbialg.3", "ij", [_on(br, d_bull)],
                 [_rhs(ad, d_bull), -_rhs(ad, d_bull, True), _xy(rlt, De),
                  -_yx(rlt, De)]),
        Identity("ppbialg.4", "ij", [_on(br, d_circ)],
                 [_rhs(ad, d_circ), -_rhs(ad, d_bull, True), _xy(rlt, De),
                  _yx(llt, De)]),
        Identity("ppbialg.5", "ij", [_on(circ, d_bull)],
                 [_rhs(lcirc, d_bull), _xy(lrt + ad, d_bull),
                  -_yx(rlt, transpose(d_lt)), _rhs(rcirc, d_rt + De, True)]),
        Identity("ppbialg.6", "ij", [_on(bull, d_circ)],
                 [_rhs(lbull, d_circ), _xy(lrt + ad, d_circ), -_yx(llt, d_lt),
                  _rhs(rbull, d_rt + De, True)]),
        Identity("ppbialg.7", "ij", [_on(_curly(circ, br), d_lt)],
                 [_rhs(lbull, d_lt), _xy(lcirc, d_lt), -_rhs(lbull, d_lt, True),
                  -_yx(lcirc, d_lt)]),
        Identity("ppbialg.8", "ij",
                 [_on(lt, d_circ - transpose(d_circ) + De)],
                 [_rhs(llt, d_bull), _rhs(rlt, d_circ, True), -_xy(llt, transpose(d_bull)),
                  -_yx(rlt, transpose(d_circ))]),
    ], nested)


# ---------------------------------------------------------------------------
# Yang-Baxter tensors
# ---------------------------------------------------------------------------

def _yang_baxter_terms(first, r: Matrix, c12: Tensor, c23: Tensor) -> list:
    """first + sum_ij a_i (x) c12(b_i, a_j) (x) b_j + sum_ij a_i (x) a_j (x) c23(b_i, b_j)
    for r = sum_i a_i (x) b_i and the products with structure tables c12, c23."""
    return [first, term("xa,bz,aby->xyz", r, r, c12), term("xa,yb,abz->xyz", r, r, c23)]


def _cybe_C_terms(alg: Algebra, r: Matrix) -> list:
    br = alg.table("bracket")
    return _yang_baxter_terms(term("abx,ay,bz->xyz", br, r, r), r, br, br)


def _cybe_D_terms(alg: Algebra, r: Matrix) -> list:
    rt, lt = alg.table("rtri"), alg.table("ltri")
    return _yang_baxter_terms(term("abx,by,az->xyz", lt, r, r), r, rt - _swap(lt), rt + lt)


def cybe_C(alg: Algebra, r: Matrix) -> Tensor:
    """[r12, r13] + [r12, r23] + [r13, r23] as an order-3 tensor."""
    return _side(_cybe_C_terms(alg, r))


def cybe_D(alg: Algebra, r: Matrix) -> Tensor:
    """r13 <| r12 + r12 . r23 + r13 o r23 with the displayed slot placement."""
    return _side(_cybe_D_terms(alg, r))


def check_pppcybe(alg: Algebra, r: Matrix) -> CheckReport:
    """r solves the equation iff both tensor obstructions vanish."""
    _require_shape(r, alg.dim, alg.dim, "tensor")
    return _sweep("pppcybe", [Identity("cybe.c", "", _cybe_C_terms(alg, r)),
                              Identity("cybe.d", "", _cybe_D_terms(alg, r))])


# ---------------------------------------------------------------------------
# cobrackets from a classical r-matrix
# ---------------------------------------------------------------------------

def cobrackets_from_r(alg: Algebra, r: Matrix) -> CoalgebraSpec:
    """Comultiplications induced by r on a pp-post-Lie algebra.

    delta_rtri(x) = (L_rt(x) (x) id + id (x) L_diamond(x)) r
    delta_ltri(x) = (L_circ(x) (x) id + id (x) L_bullet(x)) (-r)
    Delta(x)      = (ad(x) (x) id + id (x) ad(x)) r

    The -r in the middle map is forced by the bialgebra compatibility
    conditions; see the sign cross-checks in the test suite.
    """
    alg.require("rtri", "ltri", "bracket")
    n = alg.dim
    _require_shape(r, n, n, "tensor")
    E, F, G = _efg(pp_adjoint_rep(alg), r)
    return CoalgebraSpec(n, alg.field, alg.basis, {"delta_rtri": E, "delta_ltri": -F, "Delta": G})


def _sandwiches(left: Tensor, t2: Matrix, right: Tensor) -> Tensor:
    """The comap x -> (L(x) (x) id + id (x) R(x)) t2 for the carriers L and R
    of two actions: d[k] = L[k] t2 + t2 R[k]^T."""
    return einsum("kib,ba->kia", left, t2) + einsum("ib,kab->kia", t2, right)


# ---------------------------------------------------------------------------
# quasitriangularity: the individual sufficient conditions
# ---------------------------------------------------------------------------

def _efg(adj: PPRepSpec, t2: Matrix):
    """The comaps x -> e(x) t2, f(x) t2, g(x) t2 for the operators
    e(x) = L_rt(x) (x) id + id (x) L_diamond(x),
    f(x) = L_circ(x) (x) id + id (x) L_bullet(x),
    g(x) = ad(x) (x) id + id (x) ad(x),
    with L_circ = L_rt + L_lt, L_bullet = L_rt - R_lt and
    L_diamond = L_circ - R_lt - R_rt on the pp adjoint representation adj."""
    lrt, rrt, llt, rlt, ad = adj.carriers()
    return (_sandwiches(lrt, t2, lrt + llt - rlt - rrt),
            _sandwiches(lrt + llt, t2, lrt - rlt),
            _sandwiches(ad, t2, ad))


def check_quasitriangular_conditions(alg: Algebra, r: Matrix) -> CheckReport:
    """Per-equation verdicts for the coalgebra/bialgebra conditions on r.

    For antisymmetric solutions of the equation C(r) = D(r) = 0 every
    condition holds; the report names each failing condition otherwise.
    """
    alg.require("rtri", "ltri", "bracket")
    n = alg.dim
    _require_shape(r, n, n, "tensor")
    adj = pp_adjoint_rep(alg)
    lrt, rrt, llt, rlt, ad = adj.carriers()
    rt, lt, br = alg.table("rtri"), alg.table("ltri"), alg.table("bracket")
    swap23 = lambda t: t.permute((0, 2, 1))
    E, F, G = _efg(adj, r + r.transpose())
    C, D = cybe_C(alg, r), cybe_D(alg, r)
    # over r = sum_i a_i (x) b_i: sum_aFb = sum_i a_i (x) F(b_i), and mid
    # also subtracts sum_i F(a_i)^T (x) b_i
    sum_aFb = einsum("xb,byz->xyz", r, F)
    part1 = sum_aFb - swap23(D)
    mid = part1 - einsum("wc,wba->abc", r, F)
    inner = sum_aFb - D
    ones = Tensor((n,), [ONE] * n)
    # X contracted along axis 0, 1 or 2 with the matrix M(x) at x = e_k
    on0 = lambda m, x: term("kat,tbc->kabc", m, x)
    on1 = lambda m, x: term("kbt,atc->kabc", m, x)
    on2 = lambda m, x: term("kct,abt->kabc", m, x)
    # sum_i W(a_i) (x) b_i at x = e_k for W(a) = M(a) X(x) (left_on_a),
    # M(a) X(x)^T (left_t_on_a) or X(x) M(a)^T (right_on_a)
    left_on_a = lambda m, x: term("wc,wat,ktb->kabc", r, m, x)
    left_t_on_a = lambda m, x: term("wc,wat,kbt->kabc", r, m, x)
    right_on_a = lambda x, m: term("wc,kat,wbt->kabc", r, x, m)
    identities = [
        Identity("quasi.colie.1", "k", [term("kpq->kpq", G)]),
        Identity("quasi.colie.2", "k", [on0(ad, C), on1(ad, C), on2(ad, C)]),
        Identity("quasi.coalg.1", "k", [on0(lrt + llt, C), on1(lrt + llt, C),
                                        on2(lrt - rlt, C), left_t_on_a(ad, F)]),
        Identity("quasi.coalg.2a", "k", [on0(ad, inner), term("kat,tcb->kabc", ad, inner),
                                         term("aw,kwt,tbc->kabc", r, br, F)]),
        Identity("quasi.coalg.2b", "k", [on2(llt + rlt, C)]),
        Identity("quasi.coalg.3", "k", [on0(llt, C), on1(ad, swap23(D) - sum_aFb),
                                        -on2(ad, D), -left_on_a(rlt, G)]),
        Identity("quasi.coalg.4", "k", [on0(ad + llt, part1), on1(lrt + llt, part1),
                                        on2(lrt - rlt, mid), left_t_on_a(rlt, F),
                                        -term("wc,kwt,tba->kabc", r, rt + lt, F)]),
        Identity("quasi.coalg.5", "k", [
            on0(ad, part1), -term("kbt,tac->kabc", ad, part1),
            right_on_a(E, rrt), right_on_a(G, rrt + rlt),
            on2(llt + lrt - rlt - rrt, D), -term("kct,bat->kabc", llt + lrt - rlt - rrt, D),
            -on2(rrt - llt, C),
            on0(lrt, D - _swap(D)), -term("kbt,tac->kabc", lrt, D - _swap(D))]),
        Identity("quasi.compat.1", "ij", [_xy(ad, F)]),
        Identity("quasi.compat.2", "ij", [_on(br, F), _xy(ad, F), -_yx(ad, F)]),
        Identity("quasi.compat.3", "ij", [
            _on(rt + lt, F), _rhs(lrt + llt, F), _xy(ad + lrt, F), -_rhs(F, rlt)]),
        Identity("quasi.compat.4", "ij", [
            _on(lt, E - F), _xy(llt, E), -term("iqt,jtp->ijpq", llt, E),
            term("ipq,j->ijpq", G, ones), _rhs(rlt, F - E, True)]),
        Identity("quasi.inv.e", "k", [term("kpq->kpq", E)]),
        Identity("quasi.inv.f", "k", [term("kpq->kpq", F)]),
        Identity("quasi.inv.g", "k", [term("kpq->kpq", G)]),
    ]
    # one witness per condition, its least, so the cap cannot hide a
    # failing equation
    return _sweep("quasitriangular", identities, per_identity=1)


# ---------------------------------------------------------------------------
# operator form of the equation
# ---------------------------------------------------------------------------

def operator_form_check(alg: Algebra, r: Matrix) -> CheckReport:
    """Antisymmetric r solves the equation iff r~ is an O-operator on the
    coadjoint representation; r~(u*) pairs as <r~(u*), v*> = <r, u* (x) v*>."""
    _require_shape(r, alg.dim, alg.dim, "tensor")
    if not r.is_antisymmetric():
        raise PreconditionError("r is not antisymmetric")
    rep = pp_coadjoint_rep(alg)
    # a verdict on any algebra with the three tables, pp or not
    return dataclasses.replace(_check_o_operator_pp(alg, rep, r.transpose()),
                               name="operator-form")
