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
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .algebra import (
    PP_IDENTITIES,
    Algebra,
    CheckReport,
    PreconditionError,
    _collect,
    _identities,
    _report,
    _require_cube,
    _require_shape,
    _sweep,
    check_lie,
    check_pp_post_lie,
)
from .forms import LEFT, PPRepSpec, check_o_operator_pp, pp_adjoint_rep, pp_coadjoint_rep
from .linalg import Matrix, Tensor, basis_vec, vadd, vneg, vsub

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
    "op_matrix_2tensor",
]

COMAP_NAMES = ("delta_rtri", "delta_ltri", "Delta")

_COMAP_TO_OP = {"delta_rtri": "rtri", "delta_ltri": "ltri", "Delta": "bracket"}
_OP_TO_COMAP = {v: k for k, v in _COMAP_TO_OP.items()}


@dataclass(frozen=True)
class CoalgebraSpec:
    """Coalgebra given by comultiplication tables d[k, i, j] (Tensors)."""

    dim: int
    field: str = "Q(i)"
    basis: tuple = ()
    comaps: Mapping = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        for name, table in self.comaps.items():
            if name not in COMAP_NAMES:
                raise KeyError("unknown comap %r" % name)
            _require_cube(table, self.dim, "comap")
        object.__setattr__(self, "basis",
                           tuple(self.basis) or tuple("e%d" % (i + 1) for i in range(self.dim)))
        object.__setattr__(self, "comaps", MappingProxyType(dict(self.comaps)))

    def has(self, name: str) -> bool:
        return name in self.comaps

    def table(self, name: str) -> Tensor:
        return self.comaps[name]

    def apply(self, name: str, x) -> Matrix:
        """delta(x) as an n x n coefficient matrix, linear in x."""
        return self.comaps[name].contract(0, x)


def dualize(co: CoalgebraSpec) -> Algebra:
    """Algebra on the dual space: c[i, j, k] = d[k, i, j]."""
    ops = {_COMAP_TO_OP[name]: d.permute((1, 2, 0)) for name, d in co.comaps.items()}
    return Algebra(co.dim, co.field, tuple(b + "*" for b in co.basis), ops)


def dualize_alg(alg: Algebra, ops=("rtri", "ltri", "bracket")) -> CoalgebraSpec:
    """Coalgebra on the dual space, inverse of dualize."""
    comaps = {_OP_TO_COMAP[op]: alg.table(op).permute((2, 0, 1)) for op in ops}
    basis = tuple(b[:-1] if b.endswith("*") else b + "*" for b in alg.basis)
    return CoalgebraSpec(alg.dim, alg.field, basis, comaps)


def _stack(n: int, f) -> Tensor:
    """The tensor d[k, i, j] = f(e_k)[i, j] of a linear map f to 2-tensors."""
    return Tensor((n, n, n), [s for k in range(n) for s in f(basis_vec(n, k)).entries])


def _apply_first(d: Tensor, t2: Matrix) -> Tensor:
    """(delta (x) id) t2 = sum_ab t2[a, b] delta(e_a) (x) e_b, delta given by d."""
    return d.contract(0, t2.transpose()).permute((1, 2, 0))


def _apply_second(d: Tensor, t2: Matrix) -> Tensor:
    """(id (x) delta) t2 = sum_ab t2[a, b] e_a (x) delta(e_b), delta given by d."""
    return d.contract(0, t2)


def _minus_swap12(t: Tensor) -> Tensor:
    return t - t.permute((1, 0, 2))


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
        if not co.has(name):
            raise KeyError("coalgebra lacks comap %r" % name)
    colie = check_lie_coalgebra(co)
    if not colie.passed:
        return [dataclasses.replace(colie, name="pp-coalgebra") for _ in modes]
    return [_pp_coalgebra_mode(co, mode) for mode in modes]


def _pp_coalgebra_mode(co: CoalgebraSpec, mode: str) -> CheckReport:
    if mode == "dual":
        # the dual bracket is Lie: the co-Lie check just passed
        dual = dualize(co)
        pp = _identities("pp-post-lie", dual, ("rtri", "ltri", "bracket"), PP_IDENTITIES(dual))
        return _sweep("pp-coalgebra", nested=[("dual", pp)])
    if mode != "direct":
        raise ValueError("mode must be 'dual' or 'direct'")

    n = co.dim
    rt, lt, De = (co.table(name) for name in COMAP_NAMES)
    circ = rt + lt
    bull = rt - lt.permute((0, 2, 1))
    lt_sym = lt + lt.permute((0, 2, 1))
    zero = Tensor.zero(n, n, n)

    def body(k):
        x = basis_vec(n, k)
        rtx, ltx, Dex = rt.contract(0, x), lt.contract(0, x), De.contract(0, x)
        yield ("ppco.1", _apply_second(De, ltx),
               _apply_first(De, ltx) + _apply_second(De, ltx).permute((1, 0, 2)))
        yield "ppco.2a", _apply_second(lt_sym, Dex), zero
        yield "ppco.2b", _apply_first(De, lt_sym.contract(0, x)), zero
        yield ("ppco.3", _apply_second(De, bull.contract(0, x)),
               _apply_first(circ, Dex) + _apply_second(bull, Dex).permute((1, 0, 2)))
        yield ("ppco.4", _apply_second(lt, rtx),
               _apply_first(bull, ltx) + _apply_second(circ, ltx).permute((1, 0, 2))
               - _apply_second(lt, Dex))
        yield ("ppco.5", _minus_swap12(_apply_first(circ, rtx)),
               _minus_swap12(_apply_second(rt, rtx)) - _apply_first(De, circ.contract(0, x))
               - _minus_swap12(_apply_second(lt, Dex)))
    return _sweep("pp-coalgebra", [((n,), body)])


# ---------------------------------------------------------------------------
# bialgebra compatibility checks
# ---------------------------------------------------------------------------

def check_lie_bialgebra(alg: Algebra, co: CoalgebraSpec) -> CheckReport:
    """Lie algebra + Lie coalgebra + the adjoint cocycle condition on Delta."""
    nested = [("bialg.alg", check_lie(alg)), ("bialg.coalg", check_lie_coalgebra(co))]
    n = alg.dim
    e = [basis_vec(n, i) for i in range(n)]
    ad = alg.table("bracket").permute(LEFT)

    def body(i, j):
        x, y = e[i], e[j]
        adx = ad.contract(0, x)
        ady = ad.contract(0, y)
        yield ("bialg.cocycle", co.apply("Delta", alg.mul("bracket", x, y)),
               _sandwich(adx, co.apply("Delta", y)) - _sandwich(ady, co.apply("Delta", x)))
    return _sweep("lie-bialgebra", [((n, n), body)], nested)


def _sandwich(m: Matrix, t2: Matrix, m2: Matrix | None = None) -> Matrix:
    """(m (x) id + id (x) m2) t2, with m2 defaulting to m."""
    return _lhs_apply(m, t2) + _rhs_apply(m if m2 is None else m2, t2)


def _lhs_apply(m: Matrix, t2: Matrix) -> Matrix:
    """(m (x) id) t2."""
    return t2.contract(0, m)


def _rhs_apply(m: Matrix, t2: Matrix) -> Matrix:
    """(id (x) m) t2."""
    return t2.contract(1, m)


def check_pp_bialgebra(alg: Algebra, co: CoalgebraSpec) -> CheckReport:
    """pp algebra + pp coalgebra + the nine mixed compatibility conditions."""
    nested = [("ppbialg.alg", check_pp_post_lie(alg)), ("ppbialg.coalg", check_pp_coalgebra(co))]
    n = alg.dim
    e = [basis_vec(n, i) for i in range(n)]
    drt = lambda x: co.apply("delta_rtri", x)
    dlt = lambda x: co.apply("delta_ltri", x)
    dDe = lambda x: co.apply("Delta", x)
    dcirc = lambda x: drt(x) + dlt(x)
    dbull = lambda x: drt(x) - dlt(x).transpose()

    circ = lambda x, y: vadd(alg.mul("rtri", x, y), alg.mul("ltri", x, y))
    bull = lambda x, y: vsub(alg.mul("rtri", x, y), alg.mul("ltri", y, x))
    curly = lambda x, y: vadd(circ(x, y), vneg(circ(y, x)), alg.mul("bracket", x, y))

    # per-basis operator matrices and comap values, hoisted out of the loop
    adj = pp_adjoint_rep(alg)
    ad_, lrt, llt, rrt, rlt = ([adj.act(which, x) for x in e]
                               for which in ("rho", "l_rt", "l_lt", "r_rt", "r_lt"))
    lcirc = [lrt[k] + llt[k] for k in range(n)]
    lbull = [lrt[k] - rlt[k] for k in range(n)]
    rcirc = [rrt[k] + rlt[k] for k in range(n)]
    rbull = [rrt[k] - llt[k] for k in range(n)]
    De_ = [dDe(e[k]) for k in range(n)]
    lt_ = [dlt(e[k]) for k in range(n)]
    rt_ = [drt(e[k]) for k in range(n)]
    circ_ = [rt_[k] + lt_[k] for k in range(n)]
    bull_ = [rt_[k] - lt_[k].transpose() for k in range(n)]

    def body(i, j):
        x, y = e[i], e[j]
        adx, ady = ad_[i], ad_[j]
        yield ("ppbialg.cocycle",
               dDe(alg.mul("bracket", x, y)),
               _sandwich(adx, De_[j]) - _sandwich(ady, De_[i]))
        yield ("ppbialg.1",
               dDe(circ(x, y)),
               _sandwich(lcirc[i], De_[j], lbull[i])
               + _rhs_apply(ady, lt_[i]) + _lhs_apply(ady, lt_[i]))
        yield ("ppbialg.2",
               dDe(bull(x, y)),
               _sandwich(lbull[i], De_[j])
               - _rhs_apply(ady, lt_[i].transpose()) + _lhs_apply(ady, lt_[i]))
        yield ("ppbialg.3",
               dbull(alg.mul("bracket", x, y)),
               _rhs_apply(adx, bull_[j]) - _rhs_apply(ady, bull_[i])
               + _lhs_apply(rlt[i], De_[j]) - _lhs_apply(rlt[j], De_[i]))
        yield ("ppbialg.4",
               dcirc(alg.mul("bracket", x, y)),
               _rhs_apply(adx, circ_[j]) - _rhs_apply(ady, bull_[i])
               + _lhs_apply(rlt[i], De_[j]) + _lhs_apply(llt[j], De_[i]))
        yield ("ppbialg.5",
               dbull(circ(x, y)),
               _rhs_apply(lcirc[i], bull_[j])
               + _lhs_apply(lrt[i] + adx, bull_[j])
               - _lhs_apply(rlt[j], lt_[i].transpose())
               + _rhs_apply(rcirc[j], rt_[i] + De_[i]))
        yield ("ppbialg.6",
               dcirc(bull(x, y)),
               _rhs_apply(lbull[i], circ_[j])
               + _lhs_apply(lrt[i] + adx, circ_[j])
               - _lhs_apply(llt[j], lt_[i])
               + _rhs_apply(rbull[j], rt_[i] + De_[i]))
        yield ("ppbialg.7",
               dlt(curly(x, y)),
               _rhs_apply(lbull[i], lt_[j]) + _lhs_apply(lcirc[i], lt_[j])
               - _rhs_apply(lbull[j], lt_[i]) - _lhs_apply(lcirc[j], lt_[i]))
        xy_lt = alg.mul("ltri", x, y)
        yield ("ppbialg.8",
               dcirc(xy_lt) - dcirc(xy_lt).transpose() + dDe(xy_lt),
               _rhs_apply(llt[i], bull_[j])
               + _rhs_apply(rlt[j], circ_[i])
               - _lhs_apply(llt[i], bull_[j].transpose())
               - _lhs_apply(rlt[j], circ_[i].transpose()))
    return _sweep("pp-bialgebra", [((n, n), body)], nested)


# ---------------------------------------------------------------------------
# Yang-Baxter tensors
# ---------------------------------------------------------------------------

def cybe_C(alg: Algebra, r: Matrix) -> Tensor:
    """[r12, r13] + [r12, r23] + [r13, r23] as an order-3 tensor."""
    br = alg.table("bracket")
    return _yang_baxter(r, _products_of_a(br, r).permute((2, 0, 1)), br, br)


def cybe_D(alg: Algebra, r: Matrix) -> Tensor:
    """r13 <| r12 + r12 . r23 + r13 o r23 with the displayed slot placement."""
    rt, lt = alg.table("rtri"), alg.table("ltri")
    return _yang_baxter(r, _products_of_a(lt, r).permute((2, 1, 0)),
                        rt - lt.permute((1, 0, 2)), rt + lt)


def _products_of_a(c: Tensor, r: Matrix) -> Tensor:
    """sum_ij b_i (x) b_j (x) c(a_i, a_j) for r = sum_i a_i (x) b_i and the
    product with structure table c."""
    rt = r.transpose()
    return c.contract(0, rt).contract(1, rt)


def _yang_baxter(r: Matrix, first: Tensor, c12: Tensor, c23: Tensor) -> Tensor:
    """first + sum_ij a_i (x) c12(b_i, a_j) (x) b_j + sum_ij a_i (x) a_j (x) c23(b_i, b_j)
    for r = sum_i a_i (x) b_i and the products with structure tables c12, c23."""
    return (first + c12.permute((0, 2, 1)).contract(0, r).contract(2, r.transpose())
            + c23.contract(0, r).contract(1, r))


def check_pppcybe(alg: Algebra, r: Matrix) -> CheckReport:
    """r solves the equation iff both tensor obstructions vanish."""
    n = alg.dim
    _require_shape(r, n, n, "tensor")
    zero = Tensor.zero(n, n, n)

    def body():
        yield "cybe.c", cybe_C(alg, r), zero
        yield "cybe.d", cybe_D(alg, r), zero
    return _sweep("pppcybe", [((), body)])


# ---------------------------------------------------------------------------
# cobrackets from a classical r-matrix
# ---------------------------------------------------------------------------

def _left_ops(adj: PPRepSpec, x):
    """L_rt, L_diamond, L_circ, L_bullet and ad at x, as matrices, from the
    pp adjoint representation adj."""
    rt, lt, rrt, rlt, ad = (adj.act(which, x) for which in ("l_rt", "l_lt", "r_rt", "r_lt", "rho"))
    circ = rt + lt
    bullet = rt - rlt
    diamond = lt + rt - rlt - rrt
    return rt, diamond, circ, bullet, ad


def op_matrix_2tensor(m1: Matrix, m2: Matrix) -> Matrix:
    """(m1 (x) id + id (x) m2) as an n^2 x n^2 matrix on vectorised 2-tensors."""
    n = m1.rows
    eye = Matrix.identity(n)
    return m1.kron(eye) + eye.kron(m2)


def _e_apply(adj, x, t2: Matrix) -> Matrix:
    rt, diamond, _, _, _ = _left_ops(adj, x)
    return _sandwich(rt, t2, diamond)


def _f_apply(adj, x, t2: Matrix) -> Matrix:
    _, _, circ, bullet, _ = _left_ops(adj, x)
    return _sandwich(circ, t2, bullet)


def _g_apply(adj, x, t2: Matrix) -> Matrix:
    return _sandwich(adj.act("rho", x), t2)


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
    adj = pp_adjoint_rep(alg)
    rt, lt, rrt, rlt, ad = adj.l_rt, adj.l_lt, adj.r_rt, adj.r_lt, adj.rho
    return CoalgebraSpec(n, alg.field, alg.basis, {
        "delta_rtri": _sandwiches(rt, r, lt + rt - rlt - rrt),
        "delta_ltri": _sandwiches(rt + lt, -r, rt - rlt),
        "Delta": _sandwiches(ad, r, ad),
    })


def _sandwiches(left: Tensor, t2: Matrix, right: Tensor) -> Tensor:
    """The comap x -> (L(x) (x) id + id (x) R(x)) t2 for the carriers L and R
    of two actions: d[k] = L[k] t2 + t2 R[k]^T."""
    return left.contract(2, t2.transpose()) + right.contract(2, t2).permute((0, 2, 1))


# ---------------------------------------------------------------------------
# quasitriangularity: the individual sufficient conditions
# ---------------------------------------------------------------------------

def check_quasitriangular_conditions(alg: Algebra, r: Matrix) -> CheckReport:
    """Per-equation verdicts for the coalgebra/bialgebra conditions on r.

    For antisymmetric solutions of the equation C(r) = D(r) = 0 every
    condition holds; the report names each failing condition otherwise.
    """
    alg.require("rtri", "ltri", "bracket")
    n = alg.dim
    _require_shape(r, n, n, "tensor")
    adj = pp_adjoint_rep(alg)
    s = r + r.transpose()
    C = cybe_C(alg, r)
    D = cybe_D(alg, r)
    zero2 = Matrix.zero(n, n)
    zero3 = Tensor.zero(n, n, n)
    e = [basis_vec(n, i) for i in range(n)]
    swap12 = lambda t: t.permute((1, 0, 2))
    swap23 = lambda t: t.permute((0, 2, 1))
    # sum_i a_i (x) W(b_i) and sum_i W(a_i) (x) b_i over r = sum_i a_i (x) b_i
    # for a linear map W to 2-tensors
    on_b = lambda w: _apply_second(_stack(n, w), r)
    on_a = lambda w: _apply_first(_stack(n, w), r)
    sum_aFb = on_b(lambda b: _f_apply(adj, b, s))

    def one_variable(k):
        x = e[k]
        rt, diamond, circ, bullet, ad = _left_ops(adj, x)
        llt = adj.act("l_lt", x)
        rlt = adj.act("r_lt", x)
        yield "quasi.colie.1", _g_apply(adj, x, s), zero2
        yield "quasi.colie.2", C.contract(0, ad) + C.contract(1, ad) + C.contract(2, ad), zero3
        yield "quasi.coalg.1", (
            C.contract(0, circ) + C.contract(1, circ) + C.contract(2, bullet)
            + on_a(lambda a: _lhs_apply(adj.act("rho", a),
                                        _f_apply(adj, x, s).transpose()))), zero3
        inner = sum_aFb - D
        yield "quasi.coalg.2a", (
            (inner + swap23(inner)).contract(0, ad)
            + on_b(lambda b: _f_apply(adj, alg.mul("bracket", x, b), s))), zero3
        yield "quasi.coalg.2b", C.contract(2, llt + rlt), zero3
        yield "quasi.coalg.3", (
            C.contract(0, llt) + (swap23(D) - sum_aFb).contract(1, ad) - D.contract(2, ad)
            - on_a(lambda a: _lhs_apply(adj.act("r_lt", a), _g_apply(adj, x, s)))), zero3
        part1 = sum_aFb - swap23(D)
        mid = sum_aFb - on_a(lambda a: _f_apply(adj, a, s).transpose()) - swap23(D)
        yield "quasi.coalg.4", (
            part1.contract(0, ad + llt) + part1.contract(1, circ) + mid.contract(2, bullet)
            + on_a(lambda a: _lhs_apply(adj.act("r_lt", a),
                                        _f_apply(adj, x, s).transpose()))
            - on_a(lambda a: _f_apply(adj, vadd(alg.mul("rtri", x, a), alg.mul("ltri", x, a)),
                                      s).transpose())), zero3
        term1 = part1.contract(0, ad)
        yield "quasi.coalg.5", (
            term1 - swap12(term1)
            + on_a(lambda a: _rhs_apply(adj.act("r_rt", a), _e_apply(adj, x, s)))
            + on_a(lambda a: _rhs_apply(adj.act("r_rt", a) + adj.act("r_lt", a),
                                        _g_apply(adj, x, s)))
            + _minus_swap12(D.contract(2, diamond))
            - C.contract(2, adj.act("r_rt", x) - adj.act("l_lt", x))
            + _minus_swap12((D - swap12(D)).contract(0, rt))), zero3

    def two_variables(a, b):
        x, y = e[a], e[b]
        adx = adj.act("rho", x)
        ady = adj.act("rho", y)
        yield "quasi.compat.1", _lhs_apply(adx, _f_apply(adj, y, s)), zero2
        yield ("quasi.compat.2",
               _f_apply(adj, alg.mul("bracket", x, y), s)
               + _lhs_apply(adx, _f_apply(adj, y, s))
               - _lhs_apply(ady, _f_apply(adj, x, s)), zero2)
        circ_xy = vadd(alg.mul("rtri", x, y), alg.mul("ltri", x, y))
        rtx, _, circx, _, _ = _left_ops(adj, x)
        yield ("quasi.compat.3",
               _f_apply(adj, circ_xy, s)
               + _rhs_apply(circx, _f_apply(adj, y, s))
               + _lhs_apply(adx + rtx, _f_apply(adj, y, s))
               - _lhs_apply(adj.act("r_lt", y), _f_apply(adj, x, s).transpose()), zero2)
        lt_xy = alg.mul("ltri", x, y)
        inner4 = _lhs_apply(adj.act("l_lt", x), _e_apply(adj, y, s))
        yield ("quasi.compat.4",
               _e_apply(adj, lt_xy, s) - _f_apply(adj, lt_xy, s)
               + inner4 - inner4.transpose()
               + _g_apply(adj, x, s)
               + _rhs_apply(adj.act("r_lt", y),
                            _f_apply(adj, x, s) - _e_apply(adj, x, s)), zero2)

    def invariance(k):
        x = e[k]
        yield "quasi.inv.e", _e_apply(adj, x, s), zero2
        yield "quasi.inv.f", _f_apply(adj, x, s), zero2
        yield "quasi.inv.g", _g_apply(adj, x, s), zero2

    violations, checked = _collect([((n,), one_variable), ((n, n), two_variables),
                                    ((n,), invariance)])
    # one witness per condition, so the cap cannot hide a failing equation;
    # each condition is one family run in increasing index order, so its
    # first witness is its least
    firsts = {}
    for v in violations:
        firsts.setdefault(v.identity, v)
    return _report("quasitriangular", list(firsts.values()), checked)


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
    report = check_o_operator_pp(alg, rep, r.transpose(), checked=False)
    return dataclasses.replace(report, name="operator-form")
