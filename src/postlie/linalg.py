"""Dense exact linear algebra over Q(i).

Vectors are tuples of Scalar.  Everything else -- matrices, forms,
operators, 2-tensors, structure tables and comultiplication tables -- is
one immutable Tensor: a shape and a tuple of its entries in row-major
order.  Two operations do the index work: contraction of one axis against
a matrix or a vector, and axis permutation; embed places a tensor as a
block inside a zero tensor of a larger shape.  Everything here is exact:
solving and determinants use rational Gaussian elimination and report
singularity precisely.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import add

from .scalars import ONE, ZERO, Scalar

__all__ = [
    "LinAlgError",
    "SingularMatrixError",
    "Tensor",
    "Matrix",
    "vec",
    "zero_vec",
    "basis_vec",
    "vadd",
    "vsub",
    "vneg",
    "vscale",
]


class LinAlgError(ValueError):
    """Shape mismatch or other structural misuse."""


class SingularMatrixError(LinAlgError):
    """Exact singularity detected while solving or inverting."""


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def vec(*entries) -> tuple:
    return tuple(e if isinstance(e, Scalar) else Scalar(e) for e in entries)


def zero_vec(n: int) -> tuple:
    return (ZERO,) * n


def basis_vec(n: int, i: int) -> tuple:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vadd(*vs) -> tuple:
    n = len(vs[0])
    for v in vs:
        if len(v) != n:
            raise LinAlgError("vector length mismatch")
    # each coordinate folds from the first vector's, never from the int 0
    return tuple(reduce(add, column) for column in zip(*vs))


def vsub(a, b) -> tuple:
    if len(a) != len(b):
        raise LinAlgError("vector length mismatch")
    return tuple(x - y for x, y in zip(a, b))


def vneg(a) -> tuple:
    return tuple(-x for x in a)


def vscale(c: Scalar, a) -> tuple:
    return tuple(c * x for x in a)


def _basis_index(x):
    """Index i if x is exactly the i-th standard basis vector, else None."""
    idx = None
    for i, xi in enumerate(x):
        if xi:
            if idx is not None or xi.a != 1 or xi.b != 0 or xi.d != 1:
                return None
            idx = i
    return idx


# ---------------------------------------------------------------------------
# tensors
# ---------------------------------------------------------------------------

def _size(shape) -> int:
    size = 1
    for n in shape:
        size *= n
    return size


def _tensor(shape, entries) -> "Tensor":
    """A Tensor from a shape tuple and a tuple of Scalars, unchecked."""
    t = object.__new__(Tensor)
    object.__setattr__(t, "shape", shape)
    object.__setattr__(t, "entries", entries)
    return t


class Tensor:
    """Immutable tensor of Scalars: a shape and its entries in row-major order.

    t[i, j, k] is entry (i * n1 + j) * n2 + k of a tensor of shape
    (n0, n1, n2).  A matrix is the two-axis case and is also called Matrix.
    """

    __slots__ = ("shape", "entries")

    def __init__(self, shape, entries):
        shape = tuple(shape)
        entries = tuple(e if isinstance(e, Scalar) else Scalar(e) for e in entries)
        if len(entries) != _size(shape):
            raise LinAlgError("expected %d entries for %s, got %d"
                              % (_size(shape), "x".join(map(str, shape)), len(entries)))
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(*shape) -> "Tensor":
        return _tensor(shape, (ZERO,) * _size(shape))

    @staticmethod
    def from_rows(rows) -> "Tensor":
        rows = [tuple(r) for r in rows]
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise LinAlgError("ragged rows")
        return Tensor((len(rows), m), [e for r in rows for e in r])

    @staticmethod
    def identity(n: int) -> "Tensor":
        return Tensor.diagonal([ONE] * n)

    @staticmethod
    def diagonal(values) -> "Tensor":
        values = list(values)
        n = len(values)
        return Tensor((n, n), [values[i] if i == j else ZERO
                               for i in range(n) for j in range(n)])

    # -- element access --------------------------------------------------

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    def __getitem__(self, index):
        if len(index) != len(self.shape):
            raise IndexError("index %r for a tensor of shape %r" % (index, self.shape))
        offset = 0
        for i, n in zip(index, self.shape):
            if not 0 <= i < n:
                raise IndexError("index %r out of range for shape %r" % (index, self.shape))
            offset = offset * n + i
        return self.entries[offset]

    def row(self, *index) -> tuple:
        """Entries along the last axis at the leading indices."""
        n = self.shape[-1]
        offset = 0
        for i, m in zip(index, self.shape):
            offset = offset * m + i
        return self.entries[offset * n:(offset + 1) * n]

    # -- the two index operations ----------------------------------------

    def contract(self, axis: int, other):
        """Contract one axis against a matrix or a vector, skipping zeros.

        Against a p x s matrix M the axis (of length s) becomes one of length p,
            out[.., a, ..] = sum_b M[a, b] self[.., b, ..];
        against a vector v of length s it is summed away,
            out[.., ..] = sum_b v[b] self[.., b, ..],
        which for the first axis and a standard basis vector e_b is the
        slice self[b].  A result with one axis is returned as a vector (a
        tuple).
        """
        shape = self.shape
        s = shape[axis]
        if axis == 0 and not isinstance(other, Tensor) and len(other) == s:
            b = _basis_index(other)
            if b is not None:
                inner = _size(shape[1:])
                out = self.entries[b * inner:(b + 1) * inner]
                return out if len(shape) == 2 else _tensor(shape[1:], out)
        # (b, [(a, weight)]) for each index b of the axis with a nonzero weight
        if isinstance(other, Tensor):
            p, cols = other.shape
            if cols != s:
                raise LinAlgError("cannot contract an axis of length %d against a %dx%d matrix"
                                  % (s, p, cols))
            live = []
            for b in range(s):
                w = [(a, c) for a, c in enumerate(other.entries[b::cols]) if c]
                if w:
                    live.append((b, w))
            out_shape = shape[:axis] + (p,) + shape[axis + 1:]
        else:
            if len(other) != s:
                raise LinAlgError("vector length %d != axis length %d" % (len(other), s))
            live = [(b, ((0, c),)) for b, c in enumerate(other) if c]
            p = 1
            out_shape = shape[:axis] + shape[axis + 1:]
        inner = _size(shape[axis + 1:])
        ent = self.entries
        out = [ZERO] * _size(out_shape)
        for o in range(_size(shape[:axis])):
            for b, w in live:
                src = (o * s + b) * inner
                for r in range(inner):
                    x = ent[src + r]
                    if not x:
                        continue
                    for a, c in w:
                        k = (o * p + a) * inner + r
                        acc = out[k]
                        out[k] = c * x if acc is ZERO else acc + c * x
        if len(out_shape) == 1:
            return tuple(out)
        return _tensor(out_shape, tuple(out))

    def permute(self, axes) -> "Tensor":
        """Reorder the axes: axis k of the result is axis axes[k] of self, so
        out[i_0, .., i_d] = self[j] with j[axes[k]] = i_k."""
        shape = self.shape
        if sorted(axes) != list(range(len(shape))):
            raise LinAlgError("%r is not a permutation of %d axes" % (axes, len(shape)))
        strides = [_size(shape[a + 1:]) for a in range(len(shape))]
        offsets = [0]
        for a in axes:
            step = strides[a]
            offsets = [o + i * step for o in offsets for i in range(shape[a])]
        ent = self.entries
        return _tensor(tuple(shape[a] for a in axes), tuple(ent[o] for o in offsets))

    def embed(self, shape, offset) -> "Tensor":
        """This tensor as the block at index offset of a zero tensor of the
        given shape: out[offset + idx] = self[idx], zero elsewhere."""
        shape, offset = tuple(shape), tuple(offset)
        if (len(shape) != len(self.shape) or len(offset) != len(shape)
                or any(o < 0 or o + n > m for o, n, m in zip(offset, self.shape, shape))):
            raise LinAlgError("cannot place a %s tensor at %r in a %s tensor"
                              % ("x".join(map(str, self.shape)), offset,
                                 "x".join(map(str, shape))))
        out = [ZERO] * _size(shape)
        run = self.shape[-1] if shape else 1
        src = 0
        # one run of entries along the last axis per index of the others
        for idx in itertools.product(*(range(n) for n in self.shape[:-1])):
            dst = 0
            for i, o, m in zip(idx + (0,), offset, shape):
                dst = dst * m + i + o
            out[dst:dst + run] = self.entries[src:src + run]
            src += run
        return _tensor(shape, tuple(out))

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        self._same_shape(other)
        return _tensor(self.shape, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other):
        self._same_shape(other)
        return _tensor(self.shape, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self):
        return _tensor(self.shape, tuple(-a for a in self.entries))

    def scale(self, c: Scalar) -> "Tensor":
        return _tensor(self.shape, tuple(c * a for a in self.entries))

    def __mul__(self, other):
        """Matrix product: other's first axis contracted against self."""
        if not isinstance(other, Tensor):
            raise TypeError("matrix product expects a Matrix")
        return other.contract(0, self)

    def apply(self, v) -> tuple:
        """Matrix acting on a coordinate column."""
        return self.contract(1, v)

    def transpose(self) -> "Tensor":
        return self.permute((1, 0))

    def dual(self) -> "Tensor":
        """Negated transpose: the matrix of the dual action on V*."""
        return -self.transpose()

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries

    def __hash__(self):
        return hash((self.shape, self.entries))

    def is_zero(self) -> bool:
        return not any(self.entries)

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def is_antisymmetric(self) -> bool:
        return (self + self.transpose()).is_zero()

    def _same_shape(self, other):
        if not isinstance(other, Tensor):
            raise TypeError("expected a Tensor")
        if self.shape != other.shape:
            raise LinAlgError("shape mismatch")

    def __repr__(self):
        n = self.shape[-1] if self.shape else 1
        body = "; ".join(" ".join(str(e) for e in self.entries[i:i + n])
                         for i in range(0, len(self.entries), n or 1))
        return "Tensor(%s: %s)" % ("x".join(map(str, self.shape)), body)

    # -- elimination on local row lists ------------------------------------

    def _row_lists(self) -> list:
        n = self.cols
        return [list(self.entries[i * n:(i + 1) * n]) for i in range(self.rows)]

    def _forward(self):
        """Forward Gaussian elimination on local row lists: the echelon rows,
        the pivot columns and the number of row swaps."""
        work = self._row_lists()
        pivots, swaps = [], 0
        for col in range(self.cols):
            rank = len(pivots)
            pivot = next((r for r in range(rank, self.rows) if work[r][col]), None)
            if pivot is None:
                continue
            if pivot != rank:
                work[rank], work[pivot] = work[pivot], work[rank]
                swaps += 1
            prow = work[rank]
            p = prow[col]
            for row in work[rank + 1:]:
                f = row[col] / p
                if f:
                    for j in range(col, self.cols):
                        row[j] = row[j] - f * prow[j]
            pivots.append(col)
        return work, pivots, swaps

    def det(self) -> Scalar:
        """Exact determinant by rational Gaussian elimination."""
        if self.rows != self.cols:
            raise LinAlgError("determinant of a non-square matrix")
        work, pivots, swaps = self._forward()
        if len(pivots) < self.rows:
            return ZERO
        det = -ONE if swaps % 2 else ONE
        for i, row in enumerate(work):
            det = det * row[i]
        return det

    def solve(self, rhs: "Tensor") -> "Tensor":
        """Solve self * X = rhs exactly; raises SingularMatrixError."""
        if self.rows != self.cols:
            raise LinAlgError("solve expects a square matrix")
        if rhs.rows != self.rows:
            raise LinAlgError("rhs has %d rows, expected %d" % (rhs.rows, self.rows))
        n = self.rows
        work = self._row_lists()
        out = rhs._row_lists()
        for col in range(n):
            pivot = next((r for r in range(col, n) if work[r][col]), None)
            if pivot is None:
                raise SingularMatrixError("matrix is singular (rank < %d)" % n)
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                out[col], out[pivot] = out[pivot], out[col]
            prow, orow = work[col], out[col]
            p = prow[col]
            for r in range(n):
                if r == col:
                    continue
                f = work[r][col] / p
                if not f:
                    continue
                row = work[r]
                for j in range(col, n):
                    row[j] = row[j] - f * prow[j]
                row = out[r]
                for j, x in enumerate(orow):
                    row[j] = row[j] - f * x
        return _tensor(rhs.shape, tuple(x / work[i][i] for i in range(n) for x in out[i]))

    def inverse(self) -> "Tensor":
        return self.solve(Tensor.identity(self.rows))

    def rank(self) -> int:
        return len(self._forward()[1])

    def kron(self, other: "Tensor") -> "Tensor":
        """Kronecker product, row-major convention: (A kron B)(u ox v) = Au ox Bv."""
        return _tensor((self.rows * other.rows, self.cols * other.cols),
                       tuple(a * b for i in range(self.rows) for p in range(other.rows)
                             for a in self.row(i) for b in other.row(p)))


# the name of the two-axis case: forms, operators, r-matrices, carrier matrices
Matrix = Tensor
