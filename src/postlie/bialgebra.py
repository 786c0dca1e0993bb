"""Coalgebras, bialgebras and the Yang-Baxter machinery for split post-Lie algebras.

Tensors.  An element r of A (x) A is an n x n Matrix with
r = sum_ij r[i,j] e_i (x) e_j.  An element of A (x) A (x) A is a dense
nested list t[i][j][k].  A comultiplication table d stores
delta(e_k) = sum_ij d[k][i][j] e_i (x) e_j.

Operators on 2-tensors of the form M (x) id + id (x) N act as the
sandwich M r + r N^T, which agrees with the row-major Kronecker matrix
acting on the vectorised tensor (cross-checked in the test suite).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .algebra import (
    PP_IDENTITIES,
    Algebra,
    CheckReport,
    PreconditionError,
    _collect,
    _identity_families,
    _report,
    _require_shape,
    _sweep,
    check_lie,
    check_pp_post_lie,
    t3_zero,
)
from .forms import check_o_operator_pp, pp_coadjoint_rep
from .linalg import Matrix, basis_vec, vadd, vneg, vsub

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
    "t3_is_zero",
]

COMAP_NAMES = ("delta_rtri", "delta_ltri", "Delta")

_COMAP_TO_OP = {"delta_rtri": "rtri", "delta_ltri": "ltri", "Delta": "bracket"}
_OP_TO_COMAP = {v: k for k, v in _COMAP_TO_OP.items()}


@dataclass
class CoalgebraSpec:
    """Coalgebra given by comultiplication tables d[k][i][j]."""

    dim: int
    field: str = "Q(i)"
    basis: tuple = ()
    comaps: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        if not self.basis:
            self.basis = tuple("e%d" % (i + 1) for i in range(self.dim))
        n = self.dim
        for name, table in self.comaps.items():
            if name not in COMAP_NAMES:
                raise KeyError("unknown comap %r" % name)
            if len(table) != n or any(
                len(plane) != n or any(len(row) != n for row in plane) for plane in table
            ):
                raise ValueError("comap table is not %d^3" % n)

    def has(self, name: str) -> bool:
        return name in self.comaps

    def table(self, name: str):
        return self.comaps[name]

    def apply(self, name: str, x) -> Matrix:
        """delta(x) as an n x n coefficient matrix, linear in x."""
        n = self.dim
        d = self.comaps[name]
        out = Matrix.zero(n, n)
        for k, xk in enumerate(x):
            if not xk:
                continue
            for i in range(n):
                for j in range(n):
                    if d[k][i][j]:
                        out[i, j] = out[i, j] + xk * d[k][i][j]
        return out


def dualize(co: CoalgebraSpec) -> Algebra:
    """Algebra on the dual space: c[i][j][k] = d[k][i][j]."""
    n = co.dim
    ops = {}
    for name, d in co.comaps.items():
        c = t3_zero(n)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    c[i][j][k] = d[k][i][j]
        ops[_COMAP_TO_OP[name]] = c
    return Algebra(n, co.field, tuple(b + "*" for b in co.basis), ops)


def dualize_alg(alg: Algebra, ops=("rtri", "ltri", "bracket")) -> CoalgebraSpec:
    """Coalgebra on the dual space, inverse of dualize."""
    n = alg.dim
    comaps = {}
    for op in ops:
        c = alg.table(op)
        d = t3_zero(n)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    d[k][i][j] = c[i][j][k]
        comaps[_OP_TO_COMAP[op]] = d
    basis = tuple(b[:-1] if b.endswith("*") else b + "*" for b in alg.basis)
    return CoalgebraSpec(n, alg.field, basis, comaps)


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
    for name in COMAP_NAMES:
        if not co.has(name):
            raise KeyError("coalgebra lacks comap %r" % name)
    colie = check_lie_coalgebra(co)
    if not colie.passed:
        return dataclasses.replace(colie, name="pp-coalgebra")
    if mode == "dual":
        # the dual bracket is Lie: colie just checked it
        dual = dualize(co)
        pp = _sweep("pp-post-lie", _identity_families(dual, PP_IDENTITIES(dual)))
        return _sweep("pp-coalgebra", nested=[("dual", pp)])
    if mode != "direct":
        raise ValueError("mode must be 'dual' or 'direct'")

    n = co.dim

    drt = lambda x: co.apply("delta_rtri", x)
    dlt = lambda x: co.apply("delta_ltri", x)
    dDe = lambda x: co.apply("Delta", x)
    dcirc = lambda x: drt(x) + dlt(x)
    dbull = lambda x: drt(x) - dlt(x).transpose()
    dlt_sym = lambda x: dlt(x) + dlt(x).transpose()

    def lift(after, t2: Matrix, slot: int):
        """3-tensor with comap `after` applied to one slot of a 2-tensor."""
        out = t3_zero(n)
        for a in range(n):
            for b in range(n):
                if not t2[a, b]:
                    continue
                inner = after(basis_vec(n, b if slot == 1 else a))
                for p in range(n):
                    for q in range(n):
                        if inner[p, q]:
                            if slot == 1:   # x (x) delta(y)
                                out[a][p][q] = out[a][p][q] + t2[a, b] * inner[p, q]
                            else:           # delta(x) (x) y
                                out[p][q][b] = out[p][q][b] + t2[a, b] * inner[p, q]
        return out

    zero = t3_zero(n)

    def body(k):
        x = basis_vec(n, k)
        yield ("ppco.1", lift(dDe, dlt(x), 1),
               t3_add(lift(dDe, dlt(x), 0), t3_swap12(lift(dDe, dlt(x), 1))))
        yield "ppco.2a", lift(dlt_sym, dDe(x), 1), zero
        yield "ppco.2b", lift(dDe, dlt_sym(x), 0), zero
        yield ("ppco.3", lift(dDe, dbull(x), 1),
               t3_add(lift(dcirc, dDe(x), 0), t3_swap12(lift(dbull, dDe(x), 1))))
        yield ("ppco.4", lift(dlt, drt(x), 1),
               t3_add(lift(dbull, dlt(x), 0), t3_swap12(lift(dcirc, dlt(x), 1)),
                      t3_neg(lift(dlt, dDe(x), 1))))
        yield ("ppco.5", _minus_swap12(lift(dcirc, drt(x), 0)),
               t3_add(_minus_swap12(lift(drt, drt(x), 1)),
                      t3_neg(lift(dDe, dcirc(x), 0)),
                      t3_neg(_minus_swap12(lift(dlt, dDe(x), 1)))))
    return _sweep("pp-coalgebra", [((n,), body)])


def _minus_swap12(t):
    return t3_sub(t, t3_swap12(t))


# ---------------------------------------------------------------------------
# order-3 tensor helpers
# ---------------------------------------------------------------------------

def t3_add(*ts):
    n = len(ts[0])
    out = t3_zero(n)
    for t in ts:
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if t[i][j][k]:
                        out[i][j][k] = out[i][j][k] + t[i][j][k]
    return out


def t3_sub(a, b):
    return t3_add(a, t3_neg(b))


def t3_neg(t):
    n = len(t)
    return [[[-t[i][j][k] for k in range(n)] for j in range(n)] for i in range(n)]


def t3_is_zero(t) -> bool:
    return all(not c for plane in t for row in plane for c in row)


def t3_swap12(t):
    n = len(t)
    return [[[t[j][i][k] for k in range(n)] for j in range(n)] for i in range(n)]


def t3_swap23(t):
    n = len(t)
    return [[[t[i][k][j] for k in range(n)] for j in range(n)] for i in range(n)]


def t3_apply_slot(t, m: Matrix, slot: int):
    """Apply a matrix to one tensor slot (0, 1 or 2)."""
    n = len(t)
    out = t3_zero(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c = t[i][j][k]
                if not c:
                    continue
                src = (i, j, k)[slot]
                for p in range(n):
                    if m[p, src]:
                        idx = [i, j, k]
                        idx[slot] = p
                        out[idx[0]][idx[1]][idx[2]] = (
                            out[idx[0]][idx[1]][idx[2]] + m[p, src] * c
                        )
    return out


# ---------------------------------------------------------------------------
# bialgebra compatibility checks
# ---------------------------------------------------------------------------

def check_lie_bialgebra(alg: Algebra, co: CoalgebraSpec) -> CheckReport:
    """Lie algebra + Lie coalgebra + the adjoint cocycle condition on Delta."""
    nested = [("bialg.alg", check_lie(alg)), ("bialg.coalg", check_lie_coalgebra(co))]
    n = alg.dim
    e = [basis_vec(n, i) for i in range(n)]

    def body(i, j):
        x, y = e[i], e[j]
        adx = alg.left_mult("bracket", x)
        ady = alg.left_mult("bracket", y)
        yield ("bialg.cocycle", co.apply("Delta", alg.mul("bracket", x, y)),
               _sandwich(adx, co.apply("Delta", y)) - _sandwich(ady, co.apply("Delta", x)))
    return _sweep("lie-bialgebra", [((n, n), body)], nested)


def _sandwich(m: Matrix, t2: Matrix, m2: Matrix | None = None) -> Matrix:
    """(m (x) id + id (x) m2) t2, with m2 defaulting to m."""
    m2 = m if m2 is None else m2
    return m * t2 + t2 * m2.transpose()


def _lhs_apply(m: Matrix, t2: Matrix) -> Matrix:
    """(m (x) id) t2."""
    return m * t2


def _rhs_apply(m: Matrix, t2: Matrix) -> Matrix:
    """(id (x) m) t2."""
    return t2 * m.transpose()


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
    ad_ = [alg.basis_mult("bracket", k, True) for k in range(n)]
    lrt = [alg.basis_mult("rtri", k, True) for k in range(n)]
    llt = [alg.basis_mult("ltri", k, True) for k in range(n)]
    rlt = [alg.basis_mult("ltri", k, False) for k in range(n)]
    lcirc = [lrt[k] + llt[k] for k in range(n)]
    lbull = [lrt[k] - rlt[k] for k in range(n)]
    rcirc = [alg.basis_mult("rtri", k, False) + rlt[k] for k in range(n)]
    rbull = [alg.basis_mult("rtri", k, False) - llt[k] for k in range(n)]
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

def cybe_C(alg: Algebra, r: Matrix):
    """[r12, r13] + [r12, r23] + [r13, r23] as an order-3 tensor."""
    n = alg.dim
    out = t3_zero(n)
    entries = [(i, j, r[i, j]) for i in range(n) for j in range(n) if r[i, j]]
    for (i1, j1, c1) in entries:
        for (i2, j2, c2) in entries:
            c = c1 * c2
            br = alg.mul("bracket", basis_vec(n, i1), basis_vec(n, i2))
            for k, bk in enumerate(br):
                if bk:
                    out[k][j1][j2] = out[k][j1][j2] + c * bk
            br = alg.mul("bracket", basis_vec(n, j1), basis_vec(n, i2))
            for k, bk in enumerate(br):
                if bk:
                    out[i1][k][j2] = out[i1][k][j2] + c * bk
            br = alg.mul("bracket", basis_vec(n, j1), basis_vec(n, j2))
            for k, bk in enumerate(br):
                if bk:
                    out[i1][i2][k] = out[i1][i2][k] + c * bk
    return out


def cybe_D(alg: Algebra, r: Matrix):
    """r13 <| r12 + r12 . r23 + r13 o r23 with the displayed slot placement."""
    n = alg.dim
    out = t3_zero(n)
    entries = [(i, j, r[i, j]) for i in range(n) for j in range(n) if r[i, j]]
    for (i1, j1, c1) in entries:
        for (i2, j2, c2) in entries:
            c = c1 * c2
            # a_i <| a_j (x) b_j (x) b_i
            prod = alg.mul("ltri", basis_vec(n, i1), basis_vec(n, i2))
            for k, pk in enumerate(prod):
                if pk:
                    out[k][j2][j1] = out[k][j2][j1] + c * pk
            # a_i (x) b_i . a_j (x) b_j
            prod = vsub(alg.mul("rtri", basis_vec(n, j1), basis_vec(n, i2)),
                        alg.mul("ltri", basis_vec(n, i2), basis_vec(n, j1)))
            for k, pk in enumerate(prod):
                if pk:
                    out[i1][k][j2] = out[i1][k][j2] + c * pk
            # a_i (x) a_j (x) b_i o b_j
            prod = vadd(alg.mul("rtri", basis_vec(n, j1), basis_vec(n, j2)),
                        alg.mul("ltri", basis_vec(n, j1), basis_vec(n, j2)))
            for k, pk in enumerate(prod):
                if pk:
                    out[i1][i2][k] = out[i1][i2][k] + c * pk
    return out


def check_pppcybe(alg: Algebra, r: Matrix) -> CheckReport:
    """r solves the equation iff both tensor obstructions vanish."""
    n = alg.dim
    _require_shape(r, n, n, "tensor")
    zero = t3_zero(n)

    def body():
        yield "cybe.c", cybe_C(alg, r), zero
        yield "cybe.d", cybe_D(alg, r), zero
    return _sweep("pppcybe", [((), body)])


# ---------------------------------------------------------------------------
# cobrackets from a classical r-matrix
# ---------------------------------------------------------------------------

def _left_ops(alg: Algebra, x):
    """L_rt, L_diamond, L_circ, L_bullet and ad at x, as matrices."""
    rt = alg.left_mult("rtri", x)
    lt = alg.left_mult("ltri", x)
    rrt = alg.right_mult("rtri", x)
    rlt = alg.right_mult("ltri", x)
    ad = alg.left_mult("bracket", x)
    circ = rt + lt
    bullet = rt - rlt
    diamond = lt + rt - rlt - rrt
    return rt, diamond, circ, bullet, ad


def op_matrix_2tensor(m1: Matrix, m2: Matrix) -> Matrix:
    """(m1 (x) id + id (x) m2) as an n^2 x n^2 matrix on vectorised 2-tensors."""
    n = m1.rows
    eye = Matrix.identity(n)
    return m1.kron(eye) + eye.kron(m2)


def _e_apply(alg, x, t2: Matrix) -> Matrix:
    rt, diamond, _, _, _ = _left_ops(alg, x)
    return _sandwich(rt, t2, diamond)


def _f_apply(alg, x, t2: Matrix) -> Matrix:
    _, _, circ, bullet, _ = _left_ops(alg, x)
    return _sandwich(circ, t2, bullet)


def _g_apply(alg, x, t2: Matrix) -> Matrix:
    ad = alg.left_mult("bracket", x)
    return _sandwich(ad, t2)


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
    d_rt, d_lt, d_de = t3_zero(n), t3_zero(n), t3_zero(n)
    for k in range(n):
        x = basis_vec(n, k)
        for table, t2 in (
            (d_rt, _e_apply(alg, x, r)),
            (d_lt, _f_apply(alg, x, -r)),
            (d_de, _g_apply(alg, x, r)),
        ):
            for i in range(n):
                for j in range(n):
                    table[k][i][j] = t2[i, j]
    return CoalgebraSpec(n, alg.field, alg.basis,
                         {"delta_rtri": d_rt, "delta_ltri": d_lt, "Delta": d_de})


# ---------------------------------------------------------------------------
# quasitriangularity: the individual sufficient conditions
# ---------------------------------------------------------------------------

def _sum_first_slot(r_entries, t2_of, n):
    """sum_i a_i (x) W(b_i) for W returning a 2-tensor."""
    out = t3_zero(n)
    for (p, q, c) in r_entries:
        w = t2_of(basis_vec(n, q))
        for u in range(n):
            for v in range(n):
                if w[u, v]:
                    out[p][u][v] = out[p][u][v] + c * w[u, v]
    return out


def _sum_last_slot(r_entries, t2_of, n):
    """sum_i W(a_i) (x) b_i for W returning a 2-tensor."""
    out = t3_zero(n)
    for (p, q, c) in r_entries:
        w = t2_of(basis_vec(n, p))
        for u in range(n):
            for v in range(n):
                if w[u, v]:
                    out[u][v][q] = out[u][v][q] + c * w[u, v]
    return out


def check_quasitriangular_conditions(alg: Algebra, r: Matrix) -> CheckReport:
    """Per-equation verdicts for the coalgebra/bialgebra conditions on r.

    For antisymmetric solutions of the equation C(r) = D(r) = 0 every
    condition holds; the report names each failing condition otherwise.
    """
    alg.require("rtri", "ltri", "bracket")
    n = alg.dim
    _require_shape(r, n, n, "tensor")
    s = r + r.transpose()
    r_entries = [(i, j, r[i, j]) for i in range(n) for j in range(n) if r[i, j]]
    C = cybe_C(alg, r)
    D = cybe_D(alg, r)
    zero2 = Matrix.zero(n, n)
    zero3 = t3_zero(n)
    e = [basis_vec(n, i) for i in range(n)]
    sum_aFb = _sum_first_slot(r_entries, lambda b: _f_apply(alg, b, s), n)

    def one_variable(k):
        x = e[k]
        rt, diamond, circ, bullet, ad = _left_ops(alg, x)
        llt = alg.left_mult("ltri", x)
        rlt = alg.right_mult("ltri", x)
        yield "quasi.colie.1", _g_apply(alg, x, s), zero2
        yield "quasi.colie.2", t3_add(
            t3_apply_slot(C, ad, 0), t3_apply_slot(C, ad, 1), t3_apply_slot(C, ad, 2)), zero3
        yield "quasi.coalg.1", t3_add(
            t3_apply_slot(C, circ, 0), t3_apply_slot(C, circ, 1), t3_apply_slot(C, bullet, 2),
            _sum_last_slot(r_entries,
                           lambda a: _lhs_apply(alg.left_mult("bracket", a),
                                                _f_apply(alg, x, s).transpose()), n)), zero3
        inner = t3_sub(sum_aFb, D)
        yield "quasi.coalg.2a", t3_add(
            t3_apply_slot(t3_add(inner, t3_swap23(inner)), ad, 0),
            _sum_first_slot(r_entries,
                            lambda b: _f_apply(alg, alg.mul("bracket", x, b), s), n)), zero3
        yield "quasi.coalg.2b", t3_apply_slot(C, llt + rlt, 2), zero3
        yield "quasi.coalg.3", t3_add(
            t3_apply_slot(C, llt, 0),
            t3_apply_slot(t3_sub(t3_swap23(D), sum_aFb), ad, 1),
            t3_neg(t3_apply_slot(D, ad, 2)),
            t3_neg(_sum_last_slot(r_entries,
                                  lambda a: _lhs_apply(alg.right_mult("ltri", a),
                                                       _g_apply(alg, x, s)), n))), zero3
        part1 = t3_sub(sum_aFb, t3_swap23(D))
        mid = t3_sub(
            t3_sub(sum_aFb,
                   _sum_last_slot(r_entries,
                                  lambda a: _f_apply(alg, a, s).transpose(), n)),
            t3_swap23(D))
        yield "quasi.coalg.4", t3_add(
            t3_apply_slot(part1, ad + llt, 0),
            t3_apply_slot(part1, circ, 1),
            t3_apply_slot(mid, bullet, 2),
            _sum_last_slot(r_entries,
                           lambda a: _lhs_apply(alg.right_mult("ltri", a),
                                                _f_apply(alg, x, s).transpose()), n),
            t3_neg(_sum_last_slot(
                r_entries,
                lambda a: _f_apply(alg, vadd(alg.mul("rtri", x, a), alg.mul("ltri", x, a)),
                                   s).transpose(), n))), zero3
        term1 = t3_apply_slot(part1, ad, 0)
        yield "quasi.coalg.5", t3_add(
            t3_sub(term1, t3_swap12(term1)),
            _sum_last_slot(r_entries,
                           lambda a: _rhs_apply(alg.right_mult("rtri", a),
                                                _e_apply(alg, x, s)), n),
            _sum_last_slot(r_entries,
                           lambda a: _rhs_apply(alg.right_mult("rtri", a)
                                                + alg.right_mult("ltri", a),
                                                _g_apply(alg, x, s)), n),
            _minus_swap12(t3_apply_slot(D, diamond, 2)),
            t3_neg(t3_apply_slot(C, alg.right_mult("rtri", x)
                                 - alg.left_mult("ltri", x), 2)),
            _minus_swap12(t3_apply_slot(t3_sub(D, t3_swap12(D)), rt, 0))), zero3

    def two_variables(a, b):
        x, y = e[a], e[b]
        adx = alg.left_mult("bracket", x)
        ady = alg.left_mult("bracket", y)
        yield "quasi.compat.1", _lhs_apply(adx, _f_apply(alg, y, s)), zero2
        yield ("quasi.compat.2",
               _f_apply(alg, alg.mul("bracket", x, y), s)
               + _lhs_apply(adx, _f_apply(alg, y, s))
               - _lhs_apply(ady, _f_apply(alg, x, s)), zero2)
        circ_xy = vadd(alg.mul("rtri", x, y), alg.mul("ltri", x, y))
        rtx, _, circx, _, _ = _left_ops(alg, x)
        yield ("quasi.compat.3",
               _f_apply(alg, circ_xy, s)
               + _rhs_apply(circx, _f_apply(alg, y, s))
               + _lhs_apply(adx + rtx, _f_apply(alg, y, s))
               - _lhs_apply(alg.right_mult("ltri", y), _f_apply(alg, x, s).transpose()), zero2)
        lt_xy = alg.mul("ltri", x, y)
        inner4 = _lhs_apply(alg.left_mult("ltri", x), _e_apply(alg, y, s))
        yield ("quasi.compat.4",
               _e_apply(alg, lt_xy, s) - _f_apply(alg, lt_xy, s)
               + inner4 - inner4.transpose()
               + _g_apply(alg, x, s)
               + _rhs_apply(alg.right_mult("ltri", y),
                            _f_apply(alg, x, s) - _e_apply(alg, x, s)), zero2)

    def invariance(k):
        x = e[k]
        yield "quasi.inv.e", _e_apply(alg, x, s), zero2
        yield "quasi.inv.f", _f_apply(alg, x, s), zero2
        yield "quasi.inv.g", _g_apply(alg, x, s), zero2

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
