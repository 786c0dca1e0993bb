"""Dense exact linear algebra over Q(i).

Vectors are tuples of Scalar.  Everything else -- matrices, forms,
operators, 2-tensors, structure tables and comultiplication tables -- is
one immutable Tensor: a shape and a tuple of its entries in row-major
order.  Two operations do the index work of constructions: contraction of
one axis against a matrix or a vector, and axis permutation; Tensor.blocks
places tensors as disjoint blocks inside a zero tensor of a larger shape
(embed is the one-block case).  einsum contracts any number of tensors
exactly on their Gaussian-integer numerators; the identity checkers run on
it.  Everything here is exact: solving and determinants use rational
Gaussian elimination and report singularity precisely.
"""

from __future__ import annotations

import itertools
from functools import reduce
from math import gcd
from operator import add

from .scalars import ONE, ZERO, Scalar, _build

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
    "einsum",
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

    __slots__ = ("shape", "entries", "_num")

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

    @staticmethod
    def blocks(shape, blocks) -> "Tensor":
        """The tensor of the given shape holding each (tensor, offset) of
        blocks at its offset, out[offset + idx] = tensor[idx], and zero
        elsewhere.  The blocks must fit and must not overlap."""
        shape = tuple(shape)
        boxes = []
        out = [ZERO] * _size(shape)
        for t, offset in blocks:
            offset = tuple(offset)
            if (len(t.shape) != len(shape) or len(offset) != len(shape)
                    or any(o < 0 or o + n > m for o, n, m in zip(offset, t.shape, shape))):
                raise LinAlgError("cannot place a %s tensor at %r in a %s tensor"
                                  % ("x".join(map(str, t.shape)), offset,
                                     "x".join(map(str, shape))))
            box = tuple(zip(offset, t.shape))
            if any(all(o < p + m and p < o + n for (o, n), (p, m) in zip(box, other))
                   for other in boxes):
                raise LinAlgError("blocks at %r overlap" % (offset,))
            boxes.append(box)
            run = t.shape[-1] if shape else 1
            src = 0
            # one run of entries along the last axis per index of the others
            for idx in itertools.product(*(range(n) for n in t.shape[:-1])):
                dst = 0
                for i, o, m in zip(idx + (0,), offset, shape):
                    dst = dst * m + i + o
                out[dst:dst + run] = t.entries[src:src + run]
                src += run
        return _tensor(shape, tuple(out))

    def embed(self, shape, offset) -> "Tensor":
        """This tensor as the one block at offset of a zero tensor of shape."""
        return Tensor.blocks(shape, [(self, offset)])

    # -- algebra -----------------------------------------------------------

    # zero entries are skipped: tables and carriers are mostly zero
    def __add__(self, other):
        self._same_shape(other)
        return _tensor(self.shape, tuple(a + b if a and b else a or b
                                         for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other):
        self._same_shape(other)
        return _tensor(self.shape, tuple(a - b if b else a
                                         for a, b in zip(self.entries, other.entries)))

    def __neg__(self):
        return _tensor(self.shape, tuple(-a if a else a for a in self.entries))

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


# ---------------------------------------------------------------------------
# exact einsum
# ---------------------------------------------------------------------------

class _Num:
    """An exact tensor as sparse Gaussian-integer numerators over one
    positive denominator: the entry at flat row-major offset f is
    (re[f] + im[f] i) / den, with f missing from re (from im) for a zero
    real (imaginary) part."""

    __slots__ = ("shape", "den", "re", "im")

    def __init__(self, shape, den, re, im):
        self.shape, self.den, self.re, self.im = shape, den, re, im

    def at(self, f: int) -> Scalar:
        """The entry at flat offset f as a Scalar."""
        re, im = self.re.get(f, 0), self.im.get(f, 0)
        return _build(re, im, self.den) if re or im else ZERO

    def tensor(self) -> Tensor:
        return _tensor(self.shape, tuple(self.at(f) for f in range(_size(self.shape))))


def _numerators(t) -> _Num:
    """The numerators of a Tensor over the lcm of its entries' denominators,
    computed once per Tensor (tensors are immutable)."""
    if isinstance(t, _Num):
        return t
    num = getattr(t, "_num", None)
    if num is None:
        nonzero = [(f, s) for f, s in enumerate(t.entries) if s]
        den = 1
        for d in {s.d for _, s in nonzero}:
            den = den * d // gcd(den, d)
        re, im = {}, {}
        for f, s in nonzero:
            scale = den // s.d
            if s.a:
                re[f] = s.a * scale
            if s.b:
                im[f] = s.b * scale
        num = _Num(t.shape, den, re, im)
        object.__setattr__(t, "_num", num)
    return num


def _nonzero(d: dict) -> dict:
    return {k: v for k, v in d.items() if v}


def _add_into(acc: dict, d: dict, scale: int) -> dict:
    get = acc.get
    for k, v in d.items():
        acc[k] = get(k, 0) + scale * v
    return acc


def _flattener(labels, sizes, target, skip=()):
    """The function taking a flat offset over labels to its part of the
    flat offset over target: the sum over the labels in target (and not in
    skip) of index times stride in target."""
    weights, w = {}, 1
    for label in reversed(target):
        weights[label] = w
        w *= sizes[label]
    axes, stride = [], 1
    for label in reversed(labels):
        if label in weights and label not in skip:
            axes.append((stride, sizes[label], weights[label]))
        stride *= sizes[label]
    if not axes:
        return lambda f: 0
    if len(axes) == 1:
        (s1, n1, w1), = axes
        return lambda f: f // s1 % n1 * w1
    if len(axes) == 2:
        (s1, n1, w1), (s2, n2, w2) = axes
        return lambda f: f // s1 % n1 * w1 + f // s2 % n2 * w2
    if len(axes) == 3:
        (s1, n1, w1), (s2, n2, w2), (s3, n3, w3) = axes
        return lambda f: f // s1 % n1 * w1 + f // s2 % n2 * w2 + f // s3 % n3 * w3
    return lambda f: sum(f // s % n * w for s, n, w in axes)


def _pair(a, b, out, sizes):
    """Contract two (labels, re, im) operands over their shared labels into
    the labels out (in that order), summing every other label away."""
    la, ra, ia = a
    lb, rb, ib = b
    shared = tuple(l for l in la if l in lb)
    a_shared, a_out = _flattener(la, sizes, shared), _flattener(la, sizes, out)
    b_shared, b_out = _flattener(lb, sizes, shared), _flattener(lb, sizes, out, la)
    re, im = {}, {}
    get_re, get_im = re.get, im.get
    groups = {}
    for f in rb.keys() | ib.keys():
        groups.setdefault(b_shared(f), []).append((b_out(f), rb.get(f, 0), ib.get(f, 0)))
    for f in ra.keys() | ia.keys():
        group = groups.get(a_shared(f))
        if group:
            vr, vi = ra.get(f, 0), ia.get(f, 0)
            base = a_out(f)
            for q, wr, wi in group:
                k = base + q
                re[k] = get_re(k, 0) + vr * wr - vi * wi
                im[k] = get_im(k, 0) + vr * wi + vi * wr
    return out, _nonzero(re), _nonzero(im)


def _parse(spec: str, count: int):
    if "->" not in spec:
        raise LinAlgError("einsum spec %r has no '->'" % spec)
    inputs, output = spec.replace(" ", "").split("->")
    inputs = inputs.split(",") if count else []
    if len(inputs) != count:
        raise LinAlgError("einsum spec %r names %d operands, got %d" % (spec, len(inputs), count))
    if len(set(output)) != len(output):
        raise LinAlgError("einsum spec %r repeats an output label" % spec)
    return [tuple(labels) for labels in inputs], tuple(output)


def _rekey(d: dict, key) -> dict:
    """d with each offset f moved to key(f), entries meeting there added up."""
    out = {}
    get = out.get
    for f, v in d.items():
        k = key(f)
        out[k] = get(k, 0) + v
    return _nonzero(out)


def _einsum(spec: str, operands) -> _Num:
    """einsum on numerators: the result's denominator is the product of the
    operands' denominators."""
    inputs, output = _parse(spec, len(operands))
    if not operands:
        raise LinAlgError("einsum needs at least one operand")
    sizes = {}
    work = []
    den = 1
    for labels, operand in zip(inputs, operands):
        num = _numerators(operand)
        if len(labels) != len(num.shape):
            raise LinAlgError("einsum labels %r for a tensor of shape %r"
                              % ("".join(labels), num.shape))
        # a label repeated within one operand takes the diagonal: it gets a
        # private name per position, and entries off the diagonal are dropped
        axes = tuple(l if l not in labels[:p] else (l, p) for p, l in enumerate(labels))
        for label, n in zip(labels, num.shape):
            if sizes.setdefault(label, n) != n:
                raise LinAlgError("einsum label %r has extents %d and %d"
                                  % (label, sizes[label], n))
        den *= num.den
        re, im = num.re, num.im
        if axes != labels:
            for axis, n in zip(axes, num.shape):
                sizes[axis] = n
            unique = tuple(dict.fromkeys(labels))
            copies = [(_flattener(axes, sizes, (l,)), _flattener(axes, sizes, (a,)))
                      for a, l in zip(axes, labels) if a != l]
            on_diagonal = lambda f: all(x(f) == y(f) for x, y in copies)
            key = _flattener(axes, sizes, unique)
            re = _rekey({f: v for f, v in re.items() if on_diagonal(f)}, key)
            im = _rekey({f: v for f, v in im.items() if on_diagonal(f)}, key)
            axes = unique
        work.append((axes, re, im))
    missing = [l for l in output if l not in sizes]
    if missing:
        raise LinAlgError("einsum output label %r is on no operand" % missing[0])
    while len(work) > 1:
        # the cheapest pair, by the expected number of products; a pair
        # sharing a label always beats an outer product
        best = None
        for i, j in itertools.combinations(range(len(work)), 2):
            shared = set(work[i][0]) & set(work[j][0])
            cost = ((len(work[i][1]) + len(work[i][2])) * (len(work[j][1]) + len(work[j][2]))
                    // max(_size(sizes[l] for l in shared), 1))
            key = (not shared, cost, i, j)
            if best is None or key < best:
                best = key
        _, _, i, j = best
        rest = [w for k, w in enumerate(work) if k not in (i, j)]
        if rest:
            keep = set(output).union(*(w[0] for w in rest))
            la, lb = work[i][0], work[j][0]
            out = tuple(l for l in la if l in keep) + tuple(l for l in lb
                                                             if l in keep and l not in la)
        else:
            out = output
        work = rest + [_pair(work[i], work[j], out, sizes)]
    labels, re, im = work[0]
    if labels != output:
        key = _flattener(labels, sizes, output)
        re, im = _rekey(re, key), _rekey(im, key)
    return _Num(tuple(sizes[l] for l in output), den, re, im)


def einsum(spec: str, *operands) -> Tensor:
    """Exact Einstein summation over Tensors, e.g. einsum("ij,jk->ik", a, b).

    Each operand is read as Gaussian-integer numerators over the lcm of its
    entries' denominators, once per Tensor.  A label repeated within one
    operand takes its diagonal; a label missing from the output is summed.
    The operands are contracted two at a time, always the pair with the
    fewest expected products, so no outer product is formed while a shared
    label could avoid it; zeros are skipped throughout.
    """
    return _einsum(spec, operands).tensor()
