"""Vectors as tuples of Scalars, for the per-tuple references of the tests.

The package has one value type: a vector is an (n,) Tensor and vector
arithmetic is einsum.  The references the tests compare the checkers and
constructions with work on basis tuples instead, one Scalar at a time.
Each helper here reads a tensor's entries once and indexes them, and none
calls einsum, so a reference built on them stays an independent oracle.
entries_of caches the entries per tensor value, since the references read
the same tables on every call.
violations reads a check report's witnesses with their sides evaluated,
and row and sparse read and build a tensor by flat row-major offset.
"""

from functools import lru_cache, reduce
from operator import add
from typing import NamedTuple

from postlie import LinAlgError, Matrix, Tensor
from postlie.scalars import ONE, ZERO


@lru_cache(maxsize=4096)
def entries_of(t: Tensor) -> tuple:
    """t.entries, built once per tensor value."""
    return t.entries


def from_rows(rows) -> Matrix:
    """The matrix whose rows are the given sequences of entries."""
    rows = [tuple(r) for r in rows]
    m = len(rows[0]) if rows else 0
    if any(len(r) != m for r in rows):
        raise LinAlgError("ragged rows")
    return Matrix((len(rows), m), [e for r in rows for e in r])


class Violation(NamedTuple):
    """A witness with its sides evaluated: the value entries of each side."""
    identity: str
    indices: tuple
    lhs: tuple
    rhs: tuple


def violations(report) -> tuple:
    """The Violation of each witness of a check report, in its order."""
    return tuple(Violation(w.identity, w.indices, *w.sides()) for w in report.witnesses)


def sparse(shape, values) -> Tensor:
    """The tensor of shape with values[f] at each flat row-major offset f
    of the mapping values, and zero elsewhere."""
    size = 1
    for n in shape:
        size *= n
    return Tensor(shape, [values.get(f, ZERO) for f in range(size)])


def row(t, *index) -> tuple:
    """The entries of t along its last axis at the leading indices."""
    offset = 0
    for i, n in zip(index, t.shape):
        offset = offset * n + i
    n = t.shape[-1]
    return entries_of(t)[offset * n:(offset + 1) * n]


def zero_vec(n: int) -> tuple:
    return (ZERO,) * n


def basis_vec(n: int, i: int) -> tuple:
    return tuple(ONE if j == i else ZERO for j in range(n))


def _check(v, n: int):
    if len(v) != n:
        raise LinAlgError("vector length %d, expected %d" % (len(v), n))


def vadd(*vs) -> tuple:
    for v in vs:
        _check(v, len(vs[0]))
    # each coordinate folds from the first vector's, never from the int 0
    return tuple(reduce(add, column) for column in zip(*vs))


def vsub(a, b) -> tuple:
    _check(b, len(a))
    return tuple(x - y for x, y in zip(a, b))


def vneg(a) -> tuple:
    return tuple(-x for x in a)


def vscale(c, a) -> tuple:
    return tuple(c * x for x in a)


def _axpy(out: list, w, entries, start: int, step: int):
    """out[k] += w * entries[start + k * step] for every k."""
    for k in range(len(out)):
        e = entries[start + k * step]
        if e:
            out[k] = out[k] + w * e


def mul(alg, op: str, x, y) -> tuple:
    """x * y under the table of op: sum_ijk x[i] y[j] c[i, j, k] e_k."""
    c, n = entries_of(alg.table(op)), alg.dim
    _check(x, n)
    _check(y, n)
    out = [ZERO] * n
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    _axpy(out, xi * yj, c, (i * n + j) * n, 1)
    return tuple(out)


def apply(m, v) -> tuple:
    """The matrix m acting on the column v."""
    rows, cols = m.shape
    _check(v, cols)
    entries, out = entries_of(m), [ZERO] * rows
    for j, vj in enumerate(v):
        if vj:
            _axpy(out, vj, entries, j, cols)
    return tuple(out)


def act(c, x) -> Matrix:
    """The matrix sum_b x[b] c[b] by which x acts, for a carrier (or a
    comultiplication table) c of shape (s, m, m)."""
    s, m, _ = c.shape
    _check(x, s)
    entries, out = entries_of(c), [ZERO] * (m * m)
    for b, xb in enumerate(x):
        if xb:
            _axpy(out, xb, entries, b * m * m, 1)
    return Matrix((m, m), out)


def act_apply(c, x, v) -> tuple:
    """act(c, x) applied to v, without building the matrix."""
    s, m, _ = c.shape
    _check(x, s)
    _check(v, m)
    entries, out = entries_of(c), [ZERO] * m
    for b, xb in enumerate(x):
        if xb:
            for j, vj in enumerate(v):
                if vj:
                    _axpy(out, xb * vj, entries, b * m * m + j, m)
    return tuple(out)


def coapply(co, name: str, x) -> Matrix:
    """delta(x) as an n x n coefficient matrix, for the comap name of co."""
    return act(co.table(name), x)


def matmul(a, b) -> Matrix:
    """The matrix product a b, entry by entry."""
    (rows, inner), (_, cols) = a.shape, b.shape
    if b.shape[0] != inner:
        raise LinAlgError("no product of a %dx%d and a %dx%d matrix" % (*a.shape, *b.shape))
    ea, eb = entries_of(a), entries_of(b)
    return Matrix((rows, cols), [sum((ea[i * inner + j] * eb[j * cols + k]
                                      for j in range(inner)), ZERO)
                                 for i in range(rows) for k in range(cols)])


def ref_kron(a, b) -> Matrix:
    """The Kronecker product, row-major: (a kron b)(u ox v) = au ox bv."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    ea, eb = entries_of(a), entries_of(b)
    return Matrix((ra * rb, ca * cb), [ea[i * ca + j] * eb[p * cb + q]
                                       for i in range(ra) for p in range(rb)
                                       for j in range(ca) for q in range(cb)])
