"""Structure-constant algebras and axiom checkers.

An algebra of dimension n maps operation names to structure tables: each
an immutable Tensor c of shape (n, n, n) with the convention

    e_i * e_j = sum_k c[i, j, k] e_k.

A coalgebra (CoalgebraSpec) is the same record over comultiplication
tables d, with delta(e_k) = sum_ij d[k, i, j] e_i (x) e_j.  Neither a
table nor a record's mapping of names to tables can change after
construction.  Derived algebras are tensor expressions in the
tables: sums, differences and axis permutations.

Every checker is a list of whole-tensor equations, Identity: a name, the
labels of its index axes and two sides, each a sum of signed einsum terms
over tables, carriers, forms, operators, r-matrices or comaps.  The six
algebra identity sets (Lie, pre-Lie, post-Lie, pp-post-Lie, L-dendriform,
pre-pp-post-Lie) are such lists over the structure tables: the identities
are multilinear, so they hold everywhere if they hold on every tuple of
basis vectors, and a nested product such as (x * y) o z is one einsum of
two tables whose index axes run over those tuples.  Each list is a family:
a function of the tensors it reads (LIE_IDENTITIES(bracket), ...), so a
check hands _sweep the family and its tensors.  _sweep builds the list and
plans every term once per (family, tensors, witness limit), so every error
of a term is raised when a check is first called, and keeps the plans in a
bounded cache (_PLANS) by that key, the tensors compared by value: a check
repeated on equal tables builds no table and plans no term.  It returns an
immutable CheckReport whose tree has a leaf per identity.  A leaf counts
the index tuples of its planned shape and evaluates its identity
(_evaluate: lhs - rhs summed in one Gaussian-integer accumulator,
linalg._summed) when its verdict or witnesses first need it, unless an
equal leaf already did: one bounded memo (_MEMO), keyed by the identity's
value and the witness limit, is the one store of verdicts and serves every
caller, so a mutant that changes one table shares the leaves that do not
read it.  A report's count, verdict and witnesses are read from its tree:
its verdict stops at the first failing identity, and a witness evaluates
the sides and builds Scalars only when first read.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .linalg import LinAlgError, Matrix, Tensor, _combine, _make, _planned, _size, _summed

__all__ = [
    "OPERATION_NAMES",
    "COMAP_NAMES",
    "Algebra",
    "CoalgebraSpec",
    "CheckReport",
    "Witness",
    "PreconditionError",
    "UnknownOperationError",
    "MAX_VIOLATIONS",
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

# comultiplication names: the comaps dual to rtri, ltri and bracket
COMAP_NAMES = ("delta_rtri", "delta_ltri", "Delta")

MAX_VIOLATIONS = 32


class UnknownOperationError(KeyError):
    """A table is missing or its name is unknown; name is the table's name.
    A KeyError, but its str is the message rather than the quoted key."""

    def __init__(self, message: str, name: str):
        super().__init__(message)
        self.name = name

    def __str__(self):
        return self.args[0]


class PreconditionError(ValueError):
    """An operation was invoked on data that fails its precondition."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------

FIELDS = ("Q", "Q(i)")


def _field_of(field: str, tables) -> str:
    """field (Q or Q(i)), or Q(i) if an entry of the Tensors tables is not real."""
    if field not in FIELDS:
        raise LinAlgError("unknown field %r" % field)
    return "Q(i)" if any(table.im for table in tables) else field


@dataclass(frozen=True)
class _Tables:
    """A dimension, a field (_field_of), basis names and a read-only mapping of
    names to n x n x n tables.  A subclass names the mapping (_mapping), its
    tables (_names) and, for its messages, itself, a table and a table of
    the wrong shape (_words)."""

    dim: int
    field: str = "Q(i)"
    basis: tuple = ()

    def __post_init__(self):
        basis = tuple(self.basis) or tuple("e%d" % (i + 1) for i in range(self.dim))
        if len(basis) != self.dim:
            raise LinAlgError("basis names do not match dimension")
        tables, (_, noun, shaped) = getattr(self, self._mapping), self._words
        for name, table in tables.items():
            if name not in self._names:
                raise UnknownOperationError("unknown %s table %r" % (noun, name), name)
            if not isinstance(table, Tensor) or table.shape != (self.dim,) * 3:
                raise LinAlgError("%s table is not %d^3" % (shaped, self.dim))
        object.__setattr__(self, "field", _field_of(self.field, tables.values()))
        object.__setattr__(self, "basis", basis)
        # a read-only copy of the mapping: no one can rebind a name to another table
        object.__setattr__(self, self._mapping, MappingProxyType(dict(tables)))

    @property
    def tables(self) -> Mapping:
        return getattr(self, self._mapping)

    def has(self, name: str) -> bool:
        return name in self.tables

    def table(self, name: str) -> Tensor:
        return self.require(name)[0]

    def require(self, *names) -> tuple:
        """The tables of names, in order; the first missing one is refused."""
        owner, noun, _ = self._words
        tables = self.tables
        for name in names:
            if name not in tables:
                raise UnknownOperationError("%s has no %s table %r" % (owner, noun, name), name)
        return tuple(map(tables.__getitem__, names))


@dataclass(frozen=True)
class Algebra(_Tables):
    """Finite-dimensional algebra given by structure constants."""

    ops: Mapping = dataclasses.field(default_factory=dict)

    _mapping, _names, _words = "ops", OPERATION_NAMES, ("algebra", "operation", "structure")

    def with_op(self, name: str, table: Tensor) -> "Algebra":
        return Algebra(self.dim, self.field, self.basis, {**self.ops, name: table})


@dataclass(frozen=True)
class CoalgebraSpec(_Tables):
    """Coalgebra given by comultiplication tables d[k, i, j] (Tensors)."""

    comaps: Mapping = dataclasses.field(default_factory=dict)

    _mapping, _names, _words = "comaps", COMAP_NAMES, ("coalgebra", "comap", "comap")


# ---------------------------------------------------------------------------
# check reports
# ---------------------------------------------------------------------------

class Witness(NamedTuple):
    """One violation: the identity, the basis indices where its two sides
    differ, and sides(), which evaluates them and gives (lhs, rhs), each the
    tuple of Scalar entries of the value there."""
    identity: str
    indices: tuple
    sides: Callable


@dataclass(frozen=True, eq=False)
class CheckReport:
    """A verdict, its instance count and the witnesses of its first
    violations, sorted by (identity, indices), each read from a tree of
    reports.  A leaf is one identity, its plan a _Leaf (Identity, limit,
    planned terms): it counts the index tuples of the planned shape, and its
    witnesses are read from the memo (_MEMO) by the plan's value, the
    identity evaluated (_evaluate) when first read on a miss.  A plan is
    shared by every leaf a repeated check builds (_sweep), the witnesses
    never: they stay in the memo alone.  Any other report holds
    (prefix, CheckReport) parts in _sweep's order and sums their counts;
    its verdict stops at the first failing part, and its witnesses are
    theirs, renamed prefix.identity for a part with a prefix.  Copies made
    with dataclasses.replace share the evaluated leaves.  A witness's sides
    are evaluated when its sides() is called or render prints it, so
    reading passed, checked, name or witnesses builds no Scalar.  Reports
    are not compared by value: a witness holds a function."""

    name: str
    parts: tuple = ()
    plan: "_Leaf" = dataclasses.field(default=None, repr=False)

    @property
    def checked(self) -> int:
        if self.plan:
            return _size(self.plan.planned[0][:len(self.plan.identity.index)])
        return sum(report.checked for _, report in self.parts)

    @property
    def passed(self) -> bool:
        return not self.witnesses if self.plan else all(r.passed for _, r in self.parts)

    def __bool__(self):
        return self.passed

    @property
    def witnesses(self) -> tuple:
        """A leaf's witnesses, read from the memo or evaluated into it, or
        its parts', renamed, sorted and cut; kept in the instance __dict__
        from the first read on (written once, with no lock)."""
        found = self.__dict__.get("witnesses")
        if found is not None:
            return found
        leaf = self.plan
        if leaf:
            found = _MEMO.get(leaf)
            if found is None:
                found = _MEMO[leaf] = tuple(_evaluate(leaf.identity, leaf.limit, leaf.planned))
                if len(_MEMO) > _MEMO_MAX:
                    del _MEMO[next(iter(_MEMO))]
        else:
            found = [w if prefix is None else w._replace(identity=prefix + "." + w.identity)
                     for prefix, report in self.parts for w in report.witnesses]
            found.sort(key=lambda w: w[:2])
            found = tuple(found[:MAX_VIOLATIONS])
        self.__dict__["witnesses"] = found
        return found

    def render(self, limit=None) -> str:
        """The verdict line and the first `limit` witnesses (all for None);
        only the printed witnesses have their sides evaluated."""
        lines = ["%s: %s (%d instances checked)" % (
            self.name or "check", "PASS" if self.passed else "FAIL", self.checked)]
        shown = self.witnesses if limit is None else self.witnesses[:limit]
        for w in shown:
            lhs, rhs = w.sides()
            lines.append(
                "  %s at basis (%s): lhs = (%s), rhs = (%s)"
                % (w.identity, ",".join(str(i + 1) for i in w.indices),
                   ", ".join(str(s) for s in lhs),
                   ", ".join(str(s) for s in rhs))
            )
        if limit is not None and len(self.witnesses) > limit:
            lines.append("  ... %d more" % (len(self.witnesses) - limit))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# identities as tensor equations
#
# An identity is a name, the labels of its index axes and two sides, each a
# sum of signed terms; a term is one exact einsum over tables, carriers,
# forms, operators, r-matrices or comaps, whose output labels are the index
# labels followed by the value labels.  The identity holds at an index
# tuple when lhs - rhs vanishes on every value entry there, and each index
# tuple is one checked instance.
# ---------------------------------------------------------------------------

class Term(NamedTuple):
    spec: str
    operands: tuple
    coef: int = 1

    def __neg__(self):
        return Term(self.spec, self.operands, -self.coef)


def term(spec: str, *operands) -> Term:
    return Term(spec, operands)


class Identity(NamedTuple):
    name: str
    index: str              # labels of the index axes
    lhs: tuple
    rhs: tuple = ()         # no terms: zero


def _side(terms, shape=None) -> Tensor:
    """The Tensor sum of terms, or the zero Tensor of shape for none."""
    return _make(*_combine(terms)) if terms else Tensor.zero(*shape)


@dataclass(frozen=True, eq=False)
class _Leaf:
    """The plan of a leaf report: an Identity (its sides tuples), the witness
    limit and lhs - rhs as linalg._planned terms.  It is the leaf's memo
    key, equal to a leaf of equal identity and limit (the planned terms
    follow from them) and hashed once, so a plan the family cache hands out
    again finds its witnesses without walking its terms."""

    identity: Identity
    limit: int
    planned: tuple
    _hash: int = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.identity, self.limit)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return (self.identity, self.limit) == (other.identity, other.limit)


# the witnesses of every evaluated leaf, oldest first, keyed by its value
# (_Leaf): the identity (name, index labels, and each side's terms with
# their specs, operand Tensors and coefficients) and the witness limit; a
# verdict is a function of that key, so a failure is kept as a pass is
_MEMO = {}
_MEMO_MAX = 256


def _evaluate(identity: Identity, limit: int, plan) -> list:
    """The Witnesses of the first `limit` index tuples where the two sides
    of identity differ, in index order.  plan is lhs - rhs as
    linalg._planned terms, summed in one integer accumulation
    (linalg._summed); the two sides are evaluated apart only when a witness
    is first read."""
    shape, _, re, im = _summed(*plan)
    k = len(identity.index)
    width = _size(shape[k:])         # the entries of one value
    sides = []

    def at(offset):
        if not sides:
            sides.extend(_side(s, shape) for s in (identity.lhs, identity.rhs))
        return tuple(tuple(side._at(f) for f in range(offset * width, (offset + 1) * width))
                     for side in sides)

    found = []
    for offset in sorted({f // width for d in (re, im) for f in d})[:limit]:
        idx = tuple(offset // _size(shape[p + 1:k]) % shape[p] for p in range(k))
        found.append(Witness(identity.name, idx, lambda offset=offset: at(offset)))
    return found


# the planned leaves of every family call, oldest first, keyed by its value:
# the family, the tensors (compared by value) it reads and the witness
# limit; a family is a function of that key, so a repeat plans nothing
_PLANS = {}
_PLANS_MAX = 128


def _sweep(name, family, tensors: tuple, nested=(), per_identity=None) -> CheckReport:
    """The report whose parts are the nested (prefix, report) pairs, then a
    leaf per identity of family(*tensors) (prefix None), keeping at most
    per_identity witnesses of each identity.  The first call with a key
    builds the identities and plans and checks every term, so every error
    is raised by it; the plans are kept (_PLANS), so a repeat on equal
    tensors builds no table and plans no term.  An identity's entries are
    summed only when the report's verdict or witnesses need them, and its
    witnesses are kept apart (_MEMO), by the leaf's value."""
    limit = MAX_VIOLATIONS if per_identity is None else min(per_identity, MAX_VIOLATIONS)
    key = (family, tensors, limit)
    plans = _PLANS.get(key)
    if plans is None:
        plans = []
        for identity in family(*tensors):
            # sides as tuples, so that the leaf can be hashed as its memo key
            identity = identity._replace(lhs=tuple(identity.lhs), rhs=tuple(identity.rhs))
            terms = [*identity.lhs, *(-t for t in identity.rhs)]
            for t in terms:
                if not t.spec.partition("->")[2].startswith(identity.index):
                    raise ValueError("term %r does not lead with the index labels %r"
                                     % (t.spec, identity.index))
            plans.append(_Leaf(identity, limit, _planned(terms)))
        plans = _PLANS[key] = tuple(plans)
        if len(_PLANS) > _PLANS_MAX:
            del _PLANS[next(iter(_PLANS))]
    return CheckReport(name, (*nested, *((None, CheckReport(leaf.identity.name, plan=leaf))
                                         for leaf in plans)))


def _require(check, *args, message: str):
    """Establish a precondition: raise PreconditionError(message, report)
    unless the report check(*args) passes.  It keeps nothing: a repeat with
    equal tables reads its planned leaves from the family cache (_PLANS) and
    their witnesses from the memo (_MEMO), so it builds no table, plans no
    term and evaluates no identity.  A function with a hypothesis calls this, then its body; the
    body _f of a public f is for a caller that has the hypothesis already,
    or that tests f's conclusion on data that may lack it."""
    report = check(*args)
    if not report.passed:
        raise PreconditionError(message, report)


def _require_shape(m: Matrix, rows: int, cols: int, what: str):
    """Reject a form, operator or 2-tensor whose shape does not fit its spaces."""
    if m.rows != rows or m.cols != cols:
        raise LinAlgError("%s is %dx%d, expected %dx%d" % (what, m.rows, m.cols, rows, cols))


# ---------------------------------------------------------------------------
# identity definitions
#
# Each family is a function of the tables it reads.  The arguments x, y, z
# are the basis vectors e_i, e_j, e_k, l labels the value and m the
# intermediate product.  A product whose argument is a sum, such as the
# curly bracket {x, y} = x o y - y o x + [x, y], reads the table of that
# sum, built by the family from its tables with +, - and _swap.
# ---------------------------------------------------------------------------

# the operations of a quarter-split
_QUARTERS = ("se", "ne", "sw", "nw", "dot")


def _swap(t: Tensor) -> Tensor:
    """The table of y * x from the table of x * y."""
    return t.permute((1, 0, 2))


def _curly(circ: Tensor, br: Tensor) -> Tensor:
    """The table of the curly bracket {x, y} = x o y - y o x + [x, y]."""
    return circ - _swap(circ) + br


def _left(a: Tensor, b: Tensor, args: str) -> Term:
    """a(b(p, q), r) for the index labels args = pqr."""
    p, q, r = args
    return term("%s%sm,m%sl->ijkl" % (p, q, r), b, a)


def _right(a: Tensor, b: Tensor, args: str) -> Term:
    """a(p, b(q, r)) for the index labels args = pqr."""
    p, q, r = args
    return term("%s%sm,%sml->ijkl" % (q, r, p), b, a)


# axis orders taking a structure table to the carrier of left multiplication,
# L[i, k, j] = c[i, j, k], and of right multiplication, R[j, k, i] = c[i, j, k];
# a carrier goes back to a table by LEFT (its own inverse) or FROM_RIGHT
LEFT, RIGHT, FROM_RIGHT = (0, 2, 1), (1, 2, 0), (2, 0, 1)


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


def LIE_IDENTITIES(br: Tensor):
    return [
        Identity("lie.antisym", "ij", [term("ijl->ijl", br), term("jil->ijl", br)]),
        Identity("lie.jacobi", "ijk",
                 [_left(br, br, "ijk"), _left(br, br, "jki"), _left(br, br, "kij")]),
    ]


def PRE_LIE_IDENTITIES(o: Tensor):
    return [Identity("prelie.left-sym", "ijk", [_left(o, o, "ijk"), -_right(o, o, "ijk")],
                     [_left(o, o, "jik"), -_right(o, o, "jik")])]


def POST_LIE_IDENTITIES(o: Tensor, br: Tensor):
    return [
        Identity("postlie.1", "ijk", [_right(o, br, "ijk")],
                 [_left(br, o, "ijk"), _right(br, o, "jik")]),
        Identity("postlie.2", "ijk", [_left(o, _curly(o, br), "ijk")],
                 [_right(o, o, "ijk"), -_right(o, o, "jik")]),
    ]


def PP_IDENTITIES(rt: Tensor, lt: Tensor, br: Tensor):
    circ = rt + lt                  # x |> y + x <| y
    bullet = rt - _swap(lt)         # x |> y - y <| x
    lt_sym = lt + _swap(lt)         # x <| y + y <| x
    return [
        Identity("pp.1", "ijk", [_right(lt, br, "ijk")],
                 [_left(lt, br, "ijk"), _left(lt, br, "kij")]),
        # chained "= 0": each displayed expression must vanish on its own
        Identity("pp.2a", "ijk", [_right(br, lt_sym, "ijk")]),
        Identity("pp.2b", "ijk", [_left(lt_sym, br, "ikj")]),
        Identity("pp.3", "ijk", [_right(bullet, br, "ijk")],
                 [_left(br, circ, "ijk"), _right(br, bullet, "jik")]),
        Identity("pp.4", "ijk", [_right(rt, lt, "ijk")],
                 [_left(lt, bullet, "ijk"), _right(lt, circ, "jik"), -_right(br, lt, "ijk")]),
        Identity("pp.5", "ijk", [_left(rt, _curly(circ, br), "ijk")],
                 [_right(rt, rt, "ijk"), -_right(rt, rt, "jik"), _right(br, lt, "jik"),
                  -_right(br, lt, "ijk"), -_left(lt, br, "ijk")]),
    ]


def L_DENDRIFORM_IDENTITIES(rt: Tensor, lt: Tensor):
    circ = rt + lt
    return [
        Identity("ldend.1", "ijk", [_left(lt, rt - _swap(lt), "ijk")],
                 [_right(rt, lt, "ijk"), -_right(lt, circ, "jik")]),
        Identity("ldend.2", "ijk", [_left(rt, circ - _swap(circ), "ijk")],
                 [_right(rt, rt, "ijk"), -_right(rt, rt, "jik")]),
    ]


def PRE_PP_IDENTITIES(se: Tensor, ne: Tensor, sw: Tensor, nw: Tensor, dot: Tensor):
    rt, lt, br = _sub_adjacent_tables(se, ne, sw, nw, dot)
    circ = rt + lt
    vee, wedge = se + sw, ne + nw
    sw_nw = sw + _swap(nw)          # x sw y + y nw x
    return [
        Identity("prepp.01", "ijk", [_right(nw, br, "ijk")],
                 [_left(nw, dot, "kij"), -_left(nw, dot, "jik")]),
        Identity("prepp.02", "ijk", [_right(sw, dot, "ijk")],
                 [_left(sw, br, "ijk"), -_left(nw, dot, "ikj")]),
        Identity("prepp.03a", "ijk", [_right(dot, sw_nw, "ijk")]),
        # The displayed second member of the chain reads (y.z) nw y; the
        # representation identity it encodes pairs the nw argument with x,
        # and only that reading holds on the bundled quarter-split corpus.
        Identity("prepp.03b", "ijk", [_right(sw_nw, dot, "ijk")]),
        Identity("prepp.04a", "ijk", [_left(sw_nw, br, "ijk")]),
        Identity("prepp.04b", "ijk", [_left(dot, lt + _swap(lt), "ijk")]),
        Identity("prepp.05", "ijk", [_right(vee, dot, "ijk")],
                 [_left(dot, circ, "ijk"), _right(dot, vee, "jik")]),
        Identity("prepp.06", "ijk", [_right(wedge, br, "ijk")],
                 [_right(dot, wedge, "jik"), -_right(dot, wedge, "kij")]),
        Identity("prepp.07", "ijk", [_right(se + dot, sw, "ijk")],
                 [_right(sw, vee, "jik"), _left(sw, rt - _swap(lt), "ijk")]),
        Identity("prepp.08", "ijk", [_right(se + dot, nw, "ijk")],
                 [_right(nw, circ, "jik"), _left(nw, se - _swap(nw), "ijk")]),
        Identity("prepp.09", "ijk", [_right(ne - _swap(dot), lt, "ijk")],
                 [_right(sw, wedge, "jik"), _left(nw, ne - _swap(sw), "ijk")]),
        # The (x.y) term enters through the full wedge, not just nw: this is
        # forced by the underlying representation identity and by the bundled
        # quarter-split corpus.
        Identity("prepp.10", "ijk", [_right(se, ne, "ijk"), -_right(ne, rt, "jik")],
                 [_left(ne, vee - _swap(wedge), "ijk"), _right(dot, nw, "ijk"),
                  _left(wedge, dot, "ijk"), _left(dot, lt, "ikj")]),
        Identity("prepp.11", "ijk", [_left(se, _curly(circ, br), "ijk"), _left(sw, br, "ijk")],
                 [_right(se, se, "ijk"), -_right(se, se, "jik"), _right(dot, sw, "jik"),
                  -_right(dot, sw, "ijk")]),
    ]


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def check_lie(alg: Algebra) -> CheckReport:
    return _sweep("lie", LIE_IDENTITIES, alg.require("bracket"))


def check_pre_lie(alg: Algebra, op="circ") -> CheckReport:
    return _sweep("pre-lie", PRE_LIE_IDENTITIES, alg.require(op))


def check_post_lie(alg: Algebra) -> CheckReport:
    tables = alg.require("circ", "bracket")
    _require(check_lie, alg, message="operation 'bracket' is not a Lie bracket")
    return _sweep("post-lie", POST_LIE_IDENTITIES, tables)


def check_pp_post_lie(alg: Algebra) -> CheckReport:
    tables = alg.require("rtri", "ltri", "bracket")
    _require(check_lie, alg, message="operation 'bracket' is not a Lie bracket")
    return _sweep("pp-post-lie", PP_IDENTITIES, tables)


def check_l_dendriform(alg: Algebra) -> CheckReport:
    return _sweep("l-dendriform", L_DENDRIFORM_IDENTITIES, alg.require("rtri", "ltri"))


def check_pre_pp_post_lie(alg: Algebra) -> CheckReport:
    tables = alg.require(*_QUARTERS)
    _require(check_pre_lie, alg, "dot", message="operation 'dot' is not pre-Lie")
    return _sweep("pre-pp-post-lie", PRE_PP_IDENTITIES, tables)


# ---------------------------------------------------------------------------
# derived algebras
# ---------------------------------------------------------------------------


def sub_adjacent_lie(alg: Algebra) -> Algebra:
    """Lie algebra with {x,y} = x o y - y o x + [x,y]."""
    _require(check_post_lie, alg, message="not a post-Lie algebra")
    return Algebra(alg.dim, alg.field, alg.basis,
                   {"bracket": _curly(alg.table("circ"), alg.table("bracket"))})


def opposite_post_lie(alg: Algebra) -> Algebra:
    """x * y = x o y + [x,y] over the opposite bracket."""
    _require(check_post_lie, alg, message="not a post-Lie algebra")
    b = alg.table("bracket")
    return Algebra(alg.dim, alg.field, alg.basis,
                   {"circ": alg.table("circ") + b, "bracket": _swap(b)})


def _require_pp(alg: Algebra):
    _require(check_pp_post_lie, alg, message="not a pp-post-Lie algebra")


def horizontal_post_lie(alg: Algebra) -> Algebra:
    """Post-Lie product x o y = x |> y + x <| y over the same bracket."""
    _require_pp(alg)
    return _horizontal_post_lie(alg)


def vertical_post_lie(alg: Algebra) -> Algebra:
    """Post-Lie product x . y = x |> y - y <| x over the same bracket."""
    _require_pp(alg)
    return _vertical_post_lie(alg)


def transpose_pp(alg: Algebra) -> Algebra:
    """Swap to x |> y, -y <| x; exchanges horizontal and vertical."""
    _require_pp(alg)
    return _transpose_pp(alg)


def sub_adjacent_pp(alg: Algebra) -> Algebra:
    """pp-post-Lie algebra underlying a quarter-split (se/ne/sw/nw/dot)."""
    _require(check_pre_pp_post_lie, alg, message="not a pre-pp-post-Lie algebra")
    return _sub_adjacent_pp(alg)


# the bodies of the four products above (see _require)

def _horizontal_post_lie(alg: Algebra) -> Algebra:
    return Algebra(alg.dim, alg.field, alg.basis, {
        "bracket": alg.table("bracket"), "circ": alg.table("rtri") + alg.table("ltri")})


def _vertical_post_lie(alg: Algebra) -> Algebra:
    return Algebra(alg.dim, alg.field, alg.basis, {
        "bracket": alg.table("bracket"),
        "circ": alg.table("rtri") - _swap(alg.table("ltri"))})


def _transpose_pp(alg: Algebra) -> Algebra:
    return Algebra(alg.dim, alg.field, alg.basis, {
        "bracket": alg.table("bracket"), "rtri": alg.table("rtri"),
        "ltri": -_swap(alg.table("ltri"))})


def _sub_adjacent_pp(alg: Algebra) -> Algebra:
    tables = _sub_adjacent_tables(*alg.require(*_QUARTERS))
    return Algebra(alg.dim, alg.field, alg.basis, dict(zip(("rtri", "ltri", "bracket"), tables)))


def _sub_adjacent_tables(se, ne, sw, nw, dot) -> tuple:
    """The rtri, ltri and bracket tables of the pp algebra under a quarter-split."""
    return se + ne, sw + nw, dot - _swap(dot)
