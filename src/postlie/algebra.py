"""Structure-constant algebras and axiom checkers.

An algebra of dimension n maps operation names to structure tables: each
an immutable Tensor c of shape (n, n, n) with the convention

    e_i * e_j = sum_k c[i, j, k] e_k.

The entries are stored flat in row-major order, so the product of two
basis vectors is the slice of n entries starting at (i * n + j) * n.
Neither a table nor an algebra's mapping of names to tables can change
after construction.  Derived algebras are tensor expressions in the
tables: sums, differences and axis permutations.

Each identity set (Lie, pre-Lie, post-Lie, pp-post-Lie, L-dendriform,
pre-pp-post-Lie) is a list of closures over Algebra.mul, vadd, vsub and
vneg, returning (lhs, rhs) for given vectors; on tuple vectors they serve
random-vector spot checks.  The identities are multilinear, so they hold
everywhere if they hold on every tuple of basis vectors, and the checkers
evaluate them on all n^arity basis tuples.  They do so on batched values
rather than one tuple at a time:

* Once per check, D is the least common multiple of the denominators of
  every entry of the tables the identity set uses, and each table becomes,
  per basis pair (a, b), the list of nonzero Gaussian-integer numerators
  (k, re, im) of D * c[a, b, k].
* A batched value has axes, the argument positions it depends on; a
  vector for each index tuple over those axes, stored as its nonzero
  numerators {k: (re, im)}; and a degree d: the true coordinates are the
  numerators divided by D^d.  A product joins its operands on the axes
  they share and has degree d1 + d2 + 1.  A sum broadcasts each operand
  over the axes it lacks and brings it to the highest degree by a power
  of D, so no identity need be homogeneous.  Zeros are dropped, so equal
  values of one axes and degree have equal numerators.
* The closures run once per index i of the first argument: it is e_i, and
  every other argument is the batch of all basis vectors along its own
  axis, so no value has more than about n^2 index tuples.  Algebra.mul,
  vadd, vsub and vneg hand batched values to the kernel.
* Each identity counts n^arity instances.  Only at the index tuples where
  the two sides differ are the full lhs and rhs vectors built as exact
  Scalars, numerator / D^d; the report sorts those witnesses and keeps
  the first MAX_VIOLATIONS.

The other checkers (forms, representations, operators, constructions,
coalgebras, bialgebras) are lists of whole-tensor equations, Identity:
a name, the labels of its index axes and two sides, each a sum of signed
einsum terms over tables, carriers, forms, operators, r-matrices or
comaps.  _sweep evaluates each side once over one common denominator in
integers (linalg.einsum), counts one instance per index tuple, and builds
Scalars only for the witnesses the report keeps.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from math import gcd
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .linalg import (
    Matrix,
    Tensor,
    _add_into,
    _basis_index,
    _einsum,
    _nonzero,
    _Num,
    vadd,
    vneg,
    vsub,
    zero_vec,
)
from .scalars import ZERO, _build

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
        if isinstance(x, _Batch):     # an identity closure running on the kernel
            return x.times(self, op, y)
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
# identities as tensor equations
#
# An identity is a name, the labels of its index axes and two sides, each a
# sum of signed terms; a term is one exact einsum over tables, carriers,
# forms, operators, r-matrices or comaps, whose output labels are the index
# labels followed by the value labels.  The identity holds at an index
# tuple when the two sides agree on every value entry there, and each index
# tuple is one checked instance.
# ---------------------------------------------------------------------------

class Term(NamedTuple):
    spec: str
    operands: tuple
    coef: int = 1

    def __neg__(self):
        return self._replace(coef=-self.coef)


def term(spec: str, *operands) -> Term:
    return Term(spec, operands)


class Identity(NamedTuple):
    name: str
    index: str              # labels of the index axes
    lhs: tuple
    rhs: tuple = ()         # no terms: zero
    witness: Callable = None  # index tuple -> (lhs, rhs), replacing the two slices


def _side(index: str, terms) -> _Num:
    """The sum of terms over the lcm of their denominators (shape None for
    no terms)."""
    nums = []
    for t in terms:
        if not t.spec.partition("->")[2].startswith(index):
            raise ValueError("term %r does not lead with the index labels %r" % (t.spec, index))
        nums.append((t.coef, _einsum(t.spec, t.operands)))
    if len({num.shape for _, num in nums}) > 1:
        raise ValueError("the terms of one side differ in shape")
    den = 1
    for _, num in nums:
        den = den * num.den // gcd(den, num.den)
    re, im = {}, {}
    for coef, num in nums:
        scale = coef * (den // num.den)
        _add_into(re, num.re, scale)
        _add_into(im, num.im, scale)
    return _Num(nums[0][1].shape if nums else None, den, _nonzero(re), _nonzero(im))


def _evaluate(identity: Identity, limit: int):
    """The instance count of one identity and, for the first `limit` index
    tuples where its two sides differ, in index order, (index tuple,
    function building its Violation)."""
    k = len(identity.index)
    lhs, rhs = _side(identity.index, identity.lhs), _side(identity.index, identity.rhs)
    shape = lhs.shape if lhs.shape is not None else rhs.shape
    count = 1
    for n in shape[:k]:
        count *= n
    width = 1                       # the entries of one value
    for n in shape[k:]:
        width *= n
    den = lhs.den * rhs.den // gcd(lhs.den, rhs.den)
    fl, fr = den // lhs.den, den // rhs.den
    bad = set()
    for a, b in ((lhs.re, rhs.re), (lhs.im, rhs.im)):
        for f in a.keys() | b.keys():
            if fl * a.get(f, 0) != fr * b.get(f, 0):
                bad.add(f // width)

    def build(at, idx):
        if identity.witness is not None:
            return Violation(identity.name, idx, *identity.witness(idx))
        return Violation(identity.name, idx, *(tuple(side.at(f) for f in range(
            at * width, (at + 1) * width)) for side in (lhs, rhs)))

    found = []
    for at in sorted(bad)[:limit]:
        idx, rest = [], at
        for n in reversed(shape[:k]):
            rest, i = divmod(rest, n)
            idx.append(i)
        idx = tuple(reversed(idx))
        found.append((idx, lambda at=at, idx=idx: build(at, idx)))
    return count, found


def _collect(identities=(), nested=(), per_identity=None):
    """The instance count of the identities and nested reports, and their
    first MAX_VIOLATIONS violations by (identity, indices), with at most
    per_identity from each identity.  Scalars are built only for those.

    nested holds (prefix, report) pairs; each witness of a nested report is
    renamed prefix.identity.
    """
    found = []
    checked = 0
    for prefix, report in nested:
        checked += report.checked
        for v in report.violations:
            v = dataclasses.replace(v, identity=prefix + "." + v.identity)
            found.append(((v.identity, v.indices), lambda v=v: v))
    limit = MAX_VIOLATIONS if per_identity is None else min(per_identity, MAX_VIOLATIONS)
    for identity in identities:
        count, bad = _evaluate(identity, limit)
        checked += count
        found.extend(((identity.name, idx), build) for idx, build in bad)
    found.sort(key=lambda item: item[0])
    return [build() for _, build in found[:MAX_VIOLATIONS]], checked


def _report(name, violations, checked) -> CheckReport:
    """The one place that orders witnesses and caps them at MAX_VIOLATIONS."""
    violations.sort(key=lambda v: (v.identity, v.indices))
    return CheckReport(not violations, violations[:MAX_VIOLATIONS], checked, name)


def _sweep(name, identities=(), nested=()) -> CheckReport:
    return _report(name, *_collect(identities, nested))


# ---------------------------------------------------------------------------
# the identity kernel (see the module docstring)
# ---------------------------------------------------------------------------

def _getter(positions):
    """The function taking a tuple to the tuple of its entries at positions."""
    positions = tuple(positions)
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        p, = positions
        return lambda t: (t[p],)
    return lambda t: ()


def _spread(n, axes, to):
    """The function taking a key over axes to the keys over the axes `to`
    (a superset, both sorted) that extend it, each missing axis running
    over range(n)."""
    missing = tuple(a for a in to if a not in axes)
    if not missing:
        return lambda key: (key,)
    fill = list(itertools.product(range(n), repeat=len(missing)))
    merge = _getter(axes.index(a) if a in axes else len(axes) + missing.index(a) for a in to)
    return lambda key: [merge(key + f) for f in fill]


def _vmul(x, y, rows, n) -> dict:
    """The product of two sparse numerator vectors by one integer table."""
    out = {}
    for a, (xr, xi) in x.items():
        base = a * n
        for b, (yr, yi) in y.items():
            row = rows[base + b]
            if not row:
                continue
            cr, ci = xr * yr - xi * yi, xr * yi + xi * yr
            for k, tr, ti in row:
                re, im = cr * tr - ci * ti, cr * ti + ci * tr
                c = out.get(k)
                out[k] = (re, im) if c is None else (c[0] + re, c[1] + im)
    return {k: c for k, c in out.items() if c[0] or c[1]}


class _Kernel:
    """The integer tables of one check.

    D is the least common multiple of the denominators of every entry of
    the tables used, and rows[op][a * n + b] lists the nonzero (k, re, im)
    with D * c[a, b, k] = re + im i.
    """

    def __init__(self, alg: Algebra, ops):
        tables = {op: alg.table(op).entries for op in ops}
        n = alg.dim
        D = 1
        for d in {s.d for entries in tables.values() for s in entries}:
            D = D * d // gcd(D, d)
        self.alg, self.n, self.D = alg, n, D
        self.rows = {op: [tuple((k, s.a * (D // s.d), s.b * (D // s.d))
                                for k, s in enumerate(entries[p * n:(p + 1) * n]) if s)
                          for p in range(n * n)]
                     for op, entries in tables.items()}

    def lift(self, value) -> "_Batch":
        """A batched value as itself, and a zero vector as the zero value."""
        if isinstance(value, _Batch):
            return value
        if any(value):
            raise ValueError("an identity side is a constant nonzero vector")
        return _Batch(self, (), {}, 0)


class _Batch:
    """One vector for each index tuple over some argument positions (axes).

    vectors maps an index tuple over axes to the vector's nonzero
    coordinates {k: (re, im)}, where (re + im i) / D ** deg is coordinate
    k; an absent tuple or coordinate is zero, so equal values of one axes
    and degree have equal vectors.
    """

    __slots__ = ("kernel", "axes", "vectors", "deg")

    def __init__(self, kernel, axes, vectors, deg):
        self.kernel, self.axes, self.vectors, self.deg = kernel, axes, vectors, deg

    def __iter__(self):
        """The index tuples at which the value is not zero."""
        return iter(self.vectors)

    def times(self, alg: Algebra, op: str, other) -> "_Batch":
        """alg.mul(op, self, other), joined on the axes the two share."""
        kernel = self.kernel
        if alg is not kernel.alg or op not in kernel.rows:
            raise ValueError("operation %r is not among the tables of this check" % op)
        other = kernel.lift(other)
        rows, n = kernel.rows[op], kernel.n
        ax, ay = self.axes, other.axes
        axes = tuple(sorted(set(ax) | set(ay)))
        shared = [a for a in ax if a in ay]
        key_x = _getter(ax.index(a) for a in shared)
        key_y = _getter(ay.index(a) for a in shared)
        # an output key from kx + ky: each axis read from kx if self has it
        merge = _getter(ax.index(a) if a in ax else len(ax) + ay.index(a) for a in axes)
        groups = {}
        for ky, vy in other.vectors.items():
            groups.setdefault(key_y(ky), []).append((ky, vy))
        out = {}
        for kx, vx in self.vectors.items():
            for ky, vy in groups.get(key_x(kx), ()):
                v = _vmul(vx, vy, rows, n)
                if v:
                    out[merge(kx + ky)] = v
        return _Batch(kernel, axes, out, self.deg + other.deg + 1)

    def combine(self, values, signs=None) -> "_Batch":
        """sum(sign * value), broadcast over the axes a value lacks and
        rescaled by powers of D to the highest degree."""
        kernel = self.kernel
        values = [kernel.lift(v) for v in values]
        axes = tuple(sorted(set().union(*(v.axes for v in values))))
        deg = max(v.deg for v in values)
        out = {}
        for v, sign in zip(values, signs or (1,) * len(values)):
            scale = sign * kernel.D ** (deg - v.deg)
            spread = _spread(kernel.n, v.axes, axes)
            for kv, vec in v.vectors.items():
                for key in spread(kv):
                    acc = out.setdefault(key, {})
                    for k, (re, im) in vec.items():
                        c = acc.get(k)
                        acc[k] = ((scale * re, scale * im) if c is None
                                  else (c[0] + scale * re, c[1] + scale * im))
        vectors = {}
        for key, acc in out.items():
            vec = {k: c for k, c in acc.items() if c[0] or c[1]}
            if vec:
                vectors[key] = vec
        return _Batch(kernel, axes, vectors, deg)

    def at(self, idx) -> tuple:
        """The vector at the basis tuple idx (one index per argument), as Scalars."""
        vec = self.vectors.get(tuple(idx[a] for a in self.axes), {})
        d = self.kernel.D ** self.deg
        return tuple(_build(*vec[k], d) if k in vec else ZERO for k in range(self.kernel.n))


def _identities(name, alg: Algebra, ops, identity_set) -> CheckReport:
    """The report of every (identity, fn, arity) of identity_set on every
    basis tuple, through the kernel on the tables of ops."""
    kernel = _Kernel(alg, ops)
    n = alg.dim
    violations, checked = [], 0
    for ident, fn, arity in identity_set:
        checked += n ** arity
        rest = [_Batch(kernel, (p,), {(j,): {j: (1, 0)} for j in range(n)}, 0)
                for p in range(1, arity)]
        for i in range(n):
            lhs, rhs = (kernel.lift(v) for v in fn(_Batch(kernel, (), {(): {i: (1, 0)}}, 0), *rest))
            diff = lhs.combine((lhs, rhs), (1, -1))
            spread = _spread(n, diff.axes, tuple(range(1, arity)))
            for key in diff:
                for others in spread(key):
                    idx = (i,) + others
                    violations.append(Violation(ident, idx, lhs.at(idx), rhs.at(idx)))
    return _report(name, violations, checked)


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
# the kernel's batched values and random-vector spot checks.
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

# the operations of a quarter-split
_QUARTERS = ("se", "ne", "sw", "nw", "dot")


def check_lie(alg: Algebra, op="bracket") -> CheckReport:
    alg.require(op)
    return _identities("lie", alg, (op,), LIE_IDENTITIES(alg, op))


def check_pre_lie(alg: Algebra, op="circ") -> CheckReport:
    alg.require(op)
    return _identities("pre-lie", alg, (op,), PRE_LIE_IDENTITIES(alg, op))


def check_post_lie(alg: Algebra, circ="circ", bracket="bracket") -> CheckReport:
    alg.require(circ, bracket)
    _require(check_lie(alg, bracket), "operation %r is not a Lie bracket" % bracket)
    return _identities("post-lie", alg, (circ, bracket),
                       POST_LIE_IDENTITIES(alg, circ, bracket))


def check_pp_post_lie(alg: Algebra, rtri="rtri", ltri="ltri", bracket="bracket") -> CheckReport:
    alg.require(rtri, ltri, bracket)
    _require(check_lie(alg, bracket), "operation %r is not a Lie bracket" % bracket)
    return _identities("pp-post-lie", alg, (rtri, ltri, bracket),
                       PP_IDENTITIES(alg, rtri, ltri, bracket))


def check_l_dendriform(alg: Algebra, rtri="rtri", ltri="ltri") -> CheckReport:
    alg.require(rtri, ltri)
    return _identities("l-dendriform", alg, (rtri, ltri),
                       L_DENDRIFORM_IDENTITIES(alg, rtri, ltri))


def check_pre_pp_post_lie(alg: Algebra) -> CheckReport:
    alg.require(*_QUARTERS)
    _require(check_pre_lie(alg, "dot"), "operation 'dot' is not pre-Lie")
    return _identities("pre-pp-post-lie", alg, _QUARTERS, PRE_PP_IDENTITIES(alg))


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
