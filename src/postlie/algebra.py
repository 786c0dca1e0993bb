"""Structure-constant algebras and axiom checkers.

An algebra of dimension n maps operation names to structure tables: each
an immutable Tensor c of shape (n, n, n) with the convention

    e_i * e_j = sum_k c[i, j, k] e_k.

The entries are stored flat in row-major order, so the product of two
basis vectors is the slice of n entries starting at (i * n + j) * n.
Neither a table nor an algebra's mapping of names to tables can change
after construction.  Derived algebras are tensor expressions in the
tables: sums, differences and axis permutations.

Checkers evaluate each defining identity on every basis tuple, which is
sufficient by multilinearity, and report exact witnesses.  Identity
evaluation is factored so the same identity functions can be run on
arbitrary (e.g. random rational) vectors in property tests.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .linalg import Matrix, Tensor, _basis_index, basis_vec, vadd, vneg, vsub, zero_vec
from .scalars import ZERO, Scalar

__all__ = [
    "OPERATION_NAMES",
    "Algebra",
    "CheckReport",
    "Violation",
    "PreconditionError",
    "UnknownOperationError",
    "MAX_VIOLATIONS",
    "apply_op",
    "check_lie",
    "check_pre_lie",
    "check_post_lie",
    "check_pp_post_lie",
    "check_l_dendriform",
    "check_pre_pp_post_lie",
    "sub_adjacent_lie",
    "opposite_post_lie",
    "horizontal_post_lie",
    "vertical_post_lie",
    "transpose_pp",
    "sub_adjacent_pp",
    "LIE_IDENTITIES",
    "PRE_LIE_IDENTITIES",
    "POST_LIE_IDENTITIES",
    "PP_IDENTITIES",
    "L_DENDRIFORM_IDENTITIES",
    "PRE_PP_IDENTITIES",
]

# Operation-name catalog shared by all file formats and constructions.
OPERATION_NAMES = (
    "circ",     # post-Lie product
    "bracket",  # Lie bracket
    "rtri",     # triangle-right half of a split circ
    "ltri",     # triangle-left half of a split circ
    "bullet",   # vertical post-Lie product
    "star",     # opposite post-Lie product
    "se", "ne", "sw", "nw",  # quarter-splitting of rtri/ltri
    "dot",      # pre-Lie product underlying a quarter-split
)

MAX_VIOLATIONS = 32


class UnknownOperationError(KeyError):
    pass


class PreconditionError(ValueError):
    """An operation was invoked on data that fails its precondition."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------

def _require_cube(table, n: int, what: str):
    """Reject a structure or comultiplication table that is not an n x n x n Tensor."""
    if not isinstance(table, Tensor) or table.shape != (n, n, n):
        raise ValueError("%s table is not %d^3" % (what, n))


@dataclass(frozen=True)
class Algebra:
    """Finite-dimensional algebra given by structure constants."""

    dim: int
    field: str = "Q(i)"
    basis: tuple = ()
    ops: Mapping = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        basis = tuple(self.basis) or tuple("e%d" % (i + 1) for i in range(self.dim))
        if len(basis) != self.dim:
            raise ValueError("basis names do not match dimension")
        for name, table in self.ops.items():
            if name not in OPERATION_NAMES:
                raise UnknownOperationError(name)
            _require_cube(table, self.dim, "structure")
        object.__setattr__(self, "basis", basis)
        # a read-only copy of the mapping: no one can rebind a name to another table
        object.__setattr__(self, "ops", MappingProxyType(dict(self.ops)))

    # -- operations -----------------------------------------------------

    def has(self, op: str) -> bool:
        return op in self.ops

    def table(self, op: str) -> Tensor:
        try:
            return self.ops[op]
        except KeyError:
            raise UnknownOperationError(op) from None

    def require(self, *names):
        for op in names:
            if op not in self.ops:
                raise UnknownOperationError(op)

    def mul(self, op: str, x, y) -> tuple:
        """Bilinear extension of the structure constants."""
        c = self.table(op).entries
        n = self.dim
        if len(x) != n or len(y) != n:
            raise ValueError("vector length mismatch")
        i = _basis_index(x)
        j = _basis_index(y)
        if i is not None and j is not None:
            start = (i * n + j) * n
            return c[start:start + n]
        out = [ZERO] * n
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                coeff = xi * yj
                start = (i * n + j) * n
                for k, ck in enumerate(c[start:start + n]):
                    if ck:
                        out[k] = out[k] + coeff * ck
        return tuple(out)

    def with_op(self, name: str, table: Tensor) -> "Algebra":
        return Algebra(self.dim, self.field, self.basis, {**self.ops, name: table})

    def without_ops(self, *names) -> "Algebra":
        ops = {k: v for k, v in self.ops.items() if k not in names}
        return Algebra(self.dim, self.field, self.basis, ops)


def apply_op(alg: Algebra, op: str, x, y) -> tuple:
    return alg.mul(op, x, y)


# ---------------------------------------------------------------------------
# check reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    identity: str
    indices: tuple
    lhs: tuple
    rhs: tuple


@dataclass
class CheckReport:
    passed: bool
    violations: list
    checked: int = 0
    name: str = ""

    def __bool__(self):
        return self.passed

    def render(self, limit=None) -> str:
        lines = ["%s: %s (%d instances checked)" % (
            self.name or "check", "PASS" if self.passed else "FAIL", self.checked)]
        shown = self.violations if limit is None else self.violations[:limit]
        for v in shown:
            idx = ",".join(str(i + 1) for i in v.indices)
            lines.append(
                "  %s at basis (%s): lhs = (%s), rhs = (%s)"
                % (v.identity, idx,
                   ", ".join(str(s) for s in v.lhs),
                   ", ".join(str(s) for s in v.rhs))
            )
        if limit is not None and len(self.violations) > limit:
            lines.append("  ... %d more" % (len(self.violations) - limit))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the identity sweep
#
# A family is a pair (shape, body): body(*idx) yields (identity, lhs, rhs)
# for one index tuple of that shape, so work shared by the identities of a
# family is done once per tuple.  Each comparison is one checked instance.
# ---------------------------------------------------------------------------

def _flat(value) -> tuple:
    """Witness coordinates of a scalar, a vector or a Tensor (its entries)."""
    if isinstance(value, Scalar):
        return (value,)
    return getattr(value, "entries", value)


def _collect(families=(), nested=()):
    """Violations and instance count of the families and nested reports.

    nested holds (prefix, report) pairs; each witness of a nested report is
    renamed prefix.identity.
    """
    violations = []
    checked = 0
    for prefix, report in nested:
        checked += report.checked
        violations.extend(dataclasses.replace(v, identity="%s.%s" % (prefix, v.identity))
                          for v in report.violations)
    for shape, body in families:
        for idx in itertools.product(*(range(n) for n in shape)):
            for ident, lhs, rhs in body(*idx):
                checked += 1
                if lhs != rhs:
                    violations.append(Violation(ident, idx, _flat(lhs), _flat(rhs)))
    return violations, checked


def _report(name, violations, checked) -> CheckReport:
    """The one place that orders witnesses and caps them at MAX_VIOLATIONS."""
    violations.sort(key=lambda v: (v.identity, v.indices))
    return CheckReport(not violations, violations[:MAX_VIOLATIONS], checked, name)


def _sweep(name, families=(), nested=()) -> CheckReport:
    return _report(name, *_collect(families, nested))


def _identity_families(alg: Algebra, identity_set):
    """One family per (name, fn, arity) identity, run on basis vectors."""
    e = [basis_vec(alg.dim, i) for i in range(alg.dim)]
    return [((alg.dim,) * arity,
             lambda *idx, name=name, fn=fn: [(name, *fn(*(e[i] for i in idx)))])
            for name, fn, arity in identity_set]


def _require(report: CheckReport, message: str):
    """Raise PreconditionError carrying the report unless it passed."""
    if not report.passed:
        raise PreconditionError(message, report)


def _require_shape(m: Matrix, rows: int, cols: int, what: str):
    """Reject a form, operator or 2-tensor whose shape does not fit its spaces."""
    if m.rows != rows or m.cols != cols:
        raise ValueError("%s is %dx%d, expected %dx%d" % (what, m.rows, m.cols, rows, cols))


# ---------------------------------------------------------------------------
# identity definitions
#
# Each identity is a closure over the algebra's multiplication maps and
# returns (lhs, rhs) for the given vectors, so the same definitions serve
# the basis sweep and random-vector spot checks.
# ---------------------------------------------------------------------------

def LIE_IDENTITIES(alg: Algebra, op="bracket"):
    br = lambda x, y: alg.mul(op, x, y)
    z = zero_vec(alg.dim)

    def antisym(x, y):
        return vadd(br(x, y), br(y, x)), z

    def jacobi(x, y, zv):
        return vadd(br(br(x, y), zv), br(br(y, zv), x), br(br(zv, x), y)), z

    return [("lie.antisym", antisym, 2), ("lie.jacobi", jacobi, 3)]


def PRE_LIE_IDENTITIES(alg: Algebra, op="circ"):
    mul = lambda x, y: alg.mul(op, x, y)

    def left_sym(x, y, zv):
        lhs = vsub(mul(mul(x, y), zv), mul(x, mul(y, zv)))
        rhs = vsub(mul(mul(y, x), zv), mul(y, mul(x, zv)))
        return lhs, rhs

    return [("prelie.left-sym", left_sym, 3)]


def POST_LIE_IDENTITIES(alg: Algebra, circ="circ", bracket="bracket"):
    o = lambda x, y: alg.mul(circ, x, y)
    br = lambda x, y: alg.mul(bracket, x, y)

    def derivation(x, y, zv):
        return o(x, br(y, zv)), vadd(br(o(x, y), zv), br(y, o(x, zv)))

    def curvature(x, y, zv):
        lhs = o(vadd(o(x, y), vneg(o(y, x)), br(x, y)), zv)
        rhs = vsub(o(x, o(y, zv)), o(y, o(x, zv)))
        return lhs, rhs

    return [("postlie.1", derivation, 3), ("postlie.2", curvature, 3)]


def PP_IDENTITIES(alg: Algebra, rtri="rtri", ltri="ltri", bracket="bracket"):
    rt = lambda x, y: alg.mul(rtri, x, y)
    lt = lambda x, y: alg.mul(ltri, x, y)
    br = lambda x, y: alg.mul(bracket, x, y)
    z = zero_vec(alg.dim)

    def curly(x, y):
        return vadd(rt(x, y), lt(x, y), vneg(rt(y, x)), vneg(lt(y, x)), br(x, y))

    def pp1(x, y, zv):
        return lt(x, br(y, zv)), vadd(lt(br(x, y), zv), lt(br(zv, x), y))

    # chained "= 0": each displayed expression must vanish on its own
    def pp2a(x, y, zv):
        return br(x, vadd(lt(y, zv), lt(zv, y))), z

    def pp2b(x, y, zv):
        return vadd(lt(br(x, zv), y), lt(y, br(x, zv))), z

    def pp3(x, y, zv):
        lhs = vsub(rt(x, br(y, zv)), lt(br(y, zv), x))
        rhs = vadd(br(vadd(rt(x, y), lt(x, y)), zv), br(y, vsub(rt(x, zv), lt(zv, x))))
        return lhs, rhs

    def pp4(x, y, zv):
        lhs = rt(x, lt(y, zv))
        rhs = vadd(
            lt(vsub(rt(x, y), lt(y, x)), zv),
            lt(y, vadd(rt(x, zv), lt(x, zv))),
            vneg(br(x, lt(y, zv))),
        )
        return lhs, rhs

    def pp5(x, y, zv):
        lhs = rt(curly(x, y), zv)
        rhs = vadd(
            rt(x, rt(y, zv)),
            vneg(rt(y, rt(x, zv))),
            br(y, lt(x, zv)),
            vneg(br(x, lt(y, zv))),
            vneg(lt(br(x, y), zv)),
        )
        return lhs, rhs

    return [
        ("pp.1", pp1, 3),
        ("pp.2a", pp2a, 3),
        ("pp.2b", pp2b, 3),
        ("pp.3", pp3, 3),
        ("pp.4", pp4, 3),
        ("pp.5", pp5, 3),
    ]


def L_DENDRIFORM_IDENTITIES(alg: Algebra, rtri="rtri", ltri="ltri"):
    rt = lambda x, y: alg.mul(rtri, x, y)
    lt = lambda x, y: alg.mul(ltri, x, y)

    def ld1(x, y, zv):
        lhs = lt(vsub(rt(x, y), lt(y, x)), zv)
        rhs = vsub(rt(x, lt(y, zv)), lt(y, vadd(rt(x, zv), lt(x, zv))))
        return lhs, rhs

    def ld2(x, y, zv):
        lhs = rt(vadd(rt(x, y), lt(x, y), vneg(rt(y, x)), vneg(lt(y, x))), zv)
        rhs = vsub(rt(x, rt(y, zv)), rt(y, rt(x, zv)))
        return lhs, rhs

    return [("ldend.1", ld1, 3), ("ldend.2", ld2, 3)]


def PRE_PP_IDENTITIES(alg: Algebra):
    se = lambda x, y: alg.mul("se", x, y)
    ne = lambda x, y: alg.mul("ne", x, y)
    sw = lambda x, y: alg.mul("sw", x, y)
    nw = lambda x, y: alg.mul("nw", x, y)
    dot = lambda x, y: alg.mul("dot", x, y)
    z = zero_vec(alg.dim)

    br = lambda x, y: vsub(dot(x, y), dot(y, x))
    rt = lambda x, y: vadd(se(x, y), ne(x, y))
    lt = lambda x, y: vadd(nw(x, y), sw(x, y))
    o = lambda x, y: vadd(se(x, y), ne(x, y), sw(x, y), nw(x, y))
    vee = lambda x, y: vadd(se(x, y), sw(x, y))
    wedge = lambda x, y: vadd(ne(x, y), nw(x, y))
    curly = lambda x, y: vadd(o(x, y), vneg(o(y, x)), br(x, y))

    def p1(x, y, zv):
        return nw(x, br(y, zv)), vsub(nw(dot(zv, x), y), nw(dot(y, x), zv))

    def p2(x, y, zv):
        return sw(x, dot(y, zv)), vsub(sw(br(x, y), zv), nw(dot(x, zv), y))

    def p3a(x, y, zv):
        return dot(x, vadd(sw(y, zv), nw(zv, y))), z

    # The displayed second member of the chain reads (y.z) nw y; the
    # representation identity it encodes pairs the nw argument with x,
    # and only that reading holds on the bundled quarter-split corpus.
    def p3b(x, y, zv):
        return vadd(sw(x, dot(y, zv)), nw(dot(y, zv), x)), z

    def p4a(x, y, zv):
        return vadd(sw(br(x, y), zv), nw(zv, br(x, y))), z

    def p4b(x, y, zv):
        return dot(vadd(lt(x, y), lt(y, x)), zv), z

    def p5(x, y, zv):
        return vee(x, dot(y, zv)), vadd(dot(o(x, y), zv), dot(y, vee(x, zv)))

    def p6(x, y, zv):
        return wedge(x, br(y, zv)), vsub(dot(y, wedge(x, zv)), dot(zv, wedge(x, y)))

    def p7(x, y, zv):
        lhs = vadd(se(x, sw(y, zv)), dot(x, sw(y, zv)))
        rhs = vadd(
            sw(y, vee(x, zv)),
            sw(vadd(se(x, y), ne(x, y), vneg(sw(y, x)), vneg(nw(y, x))), zv),
        )
        return lhs, rhs

    def p8(x, y, zv):
        lhs = vadd(se(x, nw(y, zv)), dot(x, nw(y, zv)))
        rhs = vadd(nw(y, o(x, zv)), nw(vsub(se(x, y), nw(y, x)), zv))
        return lhs, rhs

    def p9(x, y, zv):
        lhs = vsub(ne(x, lt(y, zv)), dot(lt(y, zv), x))
        rhs = vadd(sw(y, wedge(x, zv)), nw(vsub(ne(x, y), sw(y, x)), zv))
        return lhs, rhs

    # The (x.y) term enters through the full wedge, not just nw: this is
    # forced by the underlying representation identity and by the bundled
    # quarter-split corpus.
    def p10(x, y, zv):
        lhs = vsub(se(x, ne(y, zv)), ne(y, rt(x, zv)))
        rhs = vadd(
            ne(vsub(vee(x, y), wedge(y, x)), zv),
            dot(x, nw(y, zv)),
            wedge(dot(x, y), zv),
            dot(lt(x, zv), y),
        )
        return lhs, rhs

    def p11(x, y, zv):
        lhs = vadd(se(curly(x, y), zv), sw(br(x, y), zv))
        rhs = vadd(
            se(x, se(y, zv)),
            vneg(se(y, se(x, zv))),
            dot(y, sw(x, zv)),
            vneg(dot(x, sw(y, zv))),
        )
        return lhs, rhs

    return [
        ("prepp.01", p1, 3),
        ("prepp.02", p2, 3),
        ("prepp.03a", p3a, 3),
        ("prepp.03b", p3b, 3),
        ("prepp.04a", p4a, 3),
        ("prepp.04b", p4b, 3),
        ("prepp.05", p5, 3),
        ("prepp.06", p6, 3),
        ("prepp.07", p7, 3),
        ("prepp.08", p8, 3),
        ("prepp.09", p9, 3),
        ("prepp.10", p10, 3),
        ("prepp.11", p11, 3),
    ]


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def check_lie(alg: Algebra, op="bracket") -> CheckReport:
    alg.require(op)
    return _sweep("lie", _identity_families(alg, LIE_IDENTITIES(alg, op)))


def check_pre_lie(alg: Algebra, op="circ") -> CheckReport:
    alg.require(op)
    return _sweep("pre-lie", _identity_families(alg, PRE_LIE_IDENTITIES(alg, op)))


def check_post_lie(alg: Algebra, circ="circ", bracket="bracket") -> CheckReport:
    alg.require(circ, bracket)
    _require(check_lie(alg, bracket), "operation %r is not a Lie bracket" % bracket)
    return _sweep("post-lie", _identity_families(alg, POST_LIE_IDENTITIES(alg, circ, bracket)))


def check_pp_post_lie(alg: Algebra, rtri="rtri", ltri="ltri", bracket="bracket") -> CheckReport:
    alg.require(rtri, ltri, bracket)
    _require(check_lie(alg, bracket), "operation %r is not a Lie bracket" % bracket)
    return _sweep("pp-post-lie", _identity_families(alg, PP_IDENTITIES(alg, rtri, ltri, bracket)))


def check_l_dendriform(alg: Algebra, rtri="rtri", ltri="ltri") -> CheckReport:
    alg.require(rtri, ltri)
    return _sweep("l-dendriform", _identity_families(alg, L_DENDRIFORM_IDENTITIES(alg, rtri, ltri)))


def check_pre_pp_post_lie(alg: Algebra) -> CheckReport:
    alg.require("se", "ne", "sw", "nw", "dot")
    _require(check_pre_lie(alg, "dot"), "operation 'dot' is not pre-Lie")
    return _sweep("pre-pp-post-lie", _identity_families(alg, PRE_PP_IDENTITIES(alg)))


# ---------------------------------------------------------------------------
# derived algebras
# ---------------------------------------------------------------------------

# the axis order taking the table of x * y to the table of y * x
_SWAP = (1, 0, 2)


def sub_adjacent_lie(alg: Algebra, circ="circ", bracket="bracket") -> Algebra:
    """Lie algebra with {x,y} = x o y - y o x + [x,y]."""
    _require(check_post_lie(alg, circ, bracket), "not a post-Lie algebra")
    c = alg.table(circ)
    return Algebra(alg.dim, alg.field, alg.basis,
                   {"bracket": c - c.permute(_SWAP) + alg.table(bracket)})


def opposite_post_lie(alg: Algebra, circ="circ", bracket="bracket") -> Algebra:
    """x * y = x o y + [x,y] over the opposite bracket."""
    _require(check_post_lie(alg, circ, bracket), "not a post-Lie algebra")
    b = alg.table(bracket)
    return Algebra(alg.dim, alg.field, alg.basis,
                   {"circ": alg.table(circ) + b, "bracket": b.permute(_SWAP)})


def _require_pp(alg: Algebra):
    _require(check_pp_post_lie(alg), "not a pp-post-Lie algebra")


def horizontal_post_lie(alg: Algebra, checked=True) -> Algebra:
    """Post-Lie product x o y = x |> y + x <| y over the same bracket."""
    if checked:
        _require_pp(alg)
    return Algebra(alg.dim, alg.field, alg.basis, {
        "bracket": alg.table("bracket"), "circ": alg.table("rtri") + alg.table("ltri")})


def vertical_post_lie(alg: Algebra, checked=True) -> Algebra:
    """Post-Lie product x . y = x |> y - y <| x over the same bracket."""
    if checked:
        _require_pp(alg)
    return Algebra(alg.dim, alg.field, alg.basis, {
        "bracket": alg.table("bracket"),
        "circ": alg.table("rtri") - alg.table("ltri").permute(_SWAP)})


def transpose_pp(alg: Algebra, checked=True) -> Algebra:
    """Swap to x |> y, -y <| x; exchanges horizontal and vertical."""
    if checked:
        _require_pp(alg)
    return Algebra(alg.dim, alg.field, alg.basis, {
        "bracket": alg.table("bracket"), "rtri": alg.table("rtri"),
        "ltri": -alg.table("ltri").permute(_SWAP)})


def sub_adjacent_pp(alg: Algebra, checked=True) -> Algebra:
    """pp-post-Lie algebra underlying a quarter-split (se/ne/sw/nw/dot)."""
    if checked:
        _require(check_pre_pp_post_lie(alg), "not a pre-pp-post-Lie algebra")
    t = alg.table
    return Algebra(alg.dim, alg.field, alg.basis, {
        "rtri": t("se") + t("ne"), "ltri": t("sw") + t("nw"),
        "bracket": t("dot") - t("dot").permute(_SWAP)})
