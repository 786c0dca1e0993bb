"""Exact sparse linear algebra over Q(i).

Every value -- vectors, matrices, forms, operators, 2-tensors, structure
tables and comultiplication tables -- is one immutable Tensor: a shape,
one positive denominator and the nonzero Gaussian-integer numerators of
its entries, keyed by flat row-major offset; a vector is an (n,) Tensor.
Tensors are kept in lowest terms, so == and hash compare values.  Sums,
negation, scaling, axis permutation and block placement (Tensor.blocks)
work on the numerators in time proportional to the nonzero entries, and
einsum contracts any number of tensors on them: every contraction -- the
identity checkers, matrix products and all vector arithmetic -- runs on
it.  Index arithmetic is fixed once per shape, not per entry: every map of
a flat offset to a part of another (onto shared labels, onto an output,
through a permutation or into a block) is an offset table (_table), a
list read at the offset, built once per (axes, size) and shared by every
plan that needs the same map.  A table is one 8-byte slot per offset of
the operand shape it reads, its values interned, so each cached map costs
at most 8 bytes per entry of that shape, whatever the operands' fill.
einsum fixes its contraction order and tables once per (spec, shapes)
from the shapes alone.  Each pair contraction (_pair) treats a Gaussian
integer as its two real numerators, as Tensor stores them: it reads the
left operand's numerator dicts in place through their offset tables, and
indexes each nonzero numerator part of the right operand by shared offset
(a row-wise sparse product: Gustavson, ACM TOMS 4(3), 1978), once per pair
of tables in a sum of terms (_summed), however many terms share it.  A
Gaussian-integer pair is then at most four real contractions of nonzero
parts by one real kernel (_real), so the product of two entries with one
nonzero part each is one real multiply-add, not a complex one; nothing is
written to the operands.  On full groups (dense tables) _packed instead
packs each right group into one big integer of 64-bit slots and adds a
whole row of products per left entry (Kronecker substitution), after
proving that no slot's value can reach 2^63; where that is not proved, the
real kernel runs, which is exact for numerators of any size.  The rows of
each numerator part leave as one block, unpacked by one struct call and
placed by one gather (_gather, cached per layout like the offset tables)
into a whole-output list, which a sum makes only when one of its pairs
packs and whose nonzeros it reads once at the end.
Determinants, rank, solving and inversion are views of one fraction-free
elimination on the numerators, which reports singularity precisely.
Scalars appear only at the edges: entries, indexing, repr and the value
of det.  Each process-wide cache is a registered lru_cache (_cached, _clear).
"""

from __future__ import annotations

import itertools
import struct
from collections import Counter
from functools import lru_cache
from math import gcd
from operator import add, itemgetter

from .scalars import ZERO, Scalar, _build, _coerce

__all__ = [
    "LinAlgError",
    "SingularMatrixError",
    "Tensor",
    "Matrix",
    "einsum",
]


class LinAlgError(ValueError):
    """Shape mismatch or other structural misuse."""


class SingularMatrixError(LinAlgError):
    """Exact singularity detected while solving or inverting."""


_CACHES = []    # every process-wide cache of the package, in the order made


def _cached(maxsize: int):
    """functools.lru_cache(maxsize), registered so that _clear empties it."""
    def register(function):
        _CACHES.append(lru_cache(maxsize=maxsize)(function))
        return _CACHES[-1]
    return register


def _clear():
    """Empty every process-wide cache of the package (_cached)."""
    for cache in _CACHES:
        cache.cache_clear()


# ---------------------------------------------------------------------------
# tensors
# ---------------------------------------------------------------------------

def _size(shape) -> int:
    size = 1
    for n in shape:
        size *= n
    return size


def _shape(shape) -> tuple:
    """shape as a tuple, checked to be extents that are integers >= 0."""
    shape = tuple(shape)
    if not all(isinstance(n, int) and n >= 0 for n in shape):
        raise LinAlgError("a shape is non-negative integer extents, not %r" % (shape,))
    return shape


def _over_lcm(values):
    """(den, re, im) of a mapping of flat offsets to entries (a + b i)/d
    given as triples (a, b, d) in lowest terms: the numerators over the lcm
    den of the d, zeros left out, canonical (the triple whose d holds the
    highest power of a prime in den is scaled by a factor prime to it)."""
    den = 1
    for d in {d for _, _, d in values.values()}:
        den = den * d // gcd(den, d)
    re = {f: a * (den // d) for f, (a, _, d) in values.items() if a}
    im = {f: b * (den // d) for f, (_, b, d) in values.items() if b}
    return den, re, im


def _tensor(shape, den, re, im) -> "Tensor":
    """The Tensor of numerators already canonical."""
    t = object.__new__(Tensor)
    for name, value in zip(Tensor.__slots__, (shape, den, re, im, None)):
        object.__setattr__(t, name, value)
    return t


def _make(shape, den, re, im) -> "Tensor":
    """The canonical Tensor of the nonzero numerators re, im over den > 0:
    all divided by the gcd of den and them."""
    g = gcd(den, *re.values(), *im.values()) if den > 1 else 1
    if g > 1:
        den //= g
        re = {f: v // g for f, v in re.items()}
        im = {f: v // g for f, v in im.items()}
    return _tensor(shape, den, re, im)


@_cached(1024)
def _table(axes, size: int) -> list:
    """The offset table of the (stride, extent, weight) axes of a row-major
    shape of the given size: the list t with t[f] = sum of f // s % n * w
    over the (s, n, w) of axes, for f in 0..size-1.  Built from the
    innermost axis out, each as n shifted copies of the table so far made
    by C-level list repetition and map, and its values interned (an equal
    value is one int object, so an entry costs one 8-byte list slot);
    cached by (axes, size), so value-equal maps of different specs share
    one list."""
    if not size:            # an extent 0: no offsets, and strides may be 0
        return []
    t, span, values = [0], 1, {}
    for s, n, w in sorted(axes):    # an extent-1 axis before a longer one of its stride
        t *= s // span
        distinct, copies = set(t), []
        for i in range(n):
            shift = {v: values.setdefault(v + i * w, v + i * w) for v in distinct}
            copies += map(shift.__getitem__, t)
        t, span = copies, s * n
    return t * (size // span)


def _strides(shape) -> list:
    return [_size(shape[a + 1:]) for a in range(len(shape))]


@_cached(1024)
def _permutation(shape: tuple, axes: tuple) -> tuple:
    """(shape, offset table) of permuting the axes of a tensor of shape:
    axis k of the result is axis axes[k]."""
    out = tuple(shape[a] for a in axes)
    strides = _strides(shape)
    return out, _table(tuple((strides[a], n, w) for a, n, w in zip(axes, out, _strides(out))),
                       _size(shape))


class Tensor:
    """Immutable exact tensor over Q(i): a shape, one positive denominator
    den and the nonzero Gaussian-integer numerators of the entries.

    t[i, j, k] is the entry at flat row-major offset f = (i * n1 + j) * n2 + k
    of a tensor of shape (n0, n1, n2); its value is (re[f] + im[f] i) / den,
    with f missing from re (im) where the real (imaginary) part is zero.
    The form is canonical: gcd(den, all numerators) = 1, and a zero tensor
    has den 1.  The dicts re and im may be shared between tensors and are
    never changed; the only slot set after construction is _hash, the cache
    of hash(self).  A matrix is the two-axis case and is also called Matrix.
    """

    __slots__ = ("shape", "den", "re", "im", "_hash")

    def __new__(cls, shape, entries):
        shape, entries = _shape(shape), list(entries)
        if len(entries) != _size(shape):
            raise LinAlgError("expected %d entries for %s, got %d"
                              % (_size(shape), "x".join(map(str, shape)), len(entries)))
        scalars = (s if isinstance(s, Scalar) else Scalar(s) for s in entries)
        return _make(shape, *_over_lcm({f: (s.a, s.b, s.d) for f, s in enumerate(scalars)}))

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(*shape) -> "Tensor":
        return _tensor(_shape(shape), 1, {}, {})

    @staticmethod
    def identity(n: int) -> "Tensor":
        return _tensor(_shape((n, n)), 1, {i * (n + 1): 1 for i in range(n)}, {})

    # -- element access --------------------------------------------------

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    def _at(self, f: int) -> Scalar:
        """The entry at flat offset f as a Scalar."""
        re, im = self.re.get(f, 0), self.im.get(f, 0)
        return _build(re, im, self.den) if re or im else ZERO

    @property
    def entries(self) -> tuple:
        """All entries as Scalars in row-major order."""
        out = [ZERO] * _size(self.shape)
        for f in self.re.keys() | self.im.keys():
            out[f] = self._at(f)
        return tuple(out)

    def __getitem__(self, index):
        """The entry at a tuple of indices, one int in range per axis (an int
        on one axis); else IndexError."""
        index = index if isinstance(index, tuple) else (index,)
        if len(index) != len(self.shape):
            raise IndexError("index %r for a tensor of shape %r" % (index, self.shape))
        offset = 0
        for i, n in zip(index, self.shape):
            if not isinstance(i, int) or not 0 <= i < n:
                raise IndexError("index %r out of range for shape %r" % (index, self.shape))
            offset = offset * n + i
        return self._at(offset)

    def reshape(self, *shape) -> "Tensor":
        """The same entries in row-major order under a shape of the same size."""
        shape = _shape(shape)
        if _size(shape) != _size(self.shape):
            raise LinAlgError("cannot reshape a %s tensor to %s"
                              % ("x".join(map(str, self.shape)), "x".join(map(str, shape))))
        return _tensor(shape, self.den, self.re, self.im)

    # -- the two index operations ----------------------------------------

    def permute(self, axes) -> "Tensor":
        """Reorder the axes: axis k of the result is axis axes[k] of self, so
        out[i_0, .., i_d] = self[j] with j[axes[k]] = i_k."""
        shape = self.shape
        if sorted(axes) != list(range(len(shape))):
            raise LinAlgError("%r is not a permutation of %d axes" % (axes, len(shape)))
        shape, key = _permutation(shape, tuple(axes))
        return _tensor(shape, self.den, {key[f]: v for f, v in self.re.items()},
                       {key[f]: v for f, v in self.im.items()})

    @staticmethod
    def blocks(shape, blocks) -> "Tensor":
        """The tensor of the given shape holding each (tensor, offset) of
        blocks at its offset, out[offset + idx] = tensor[idx], and zero
        elsewhere.  The blocks must fit and must not overlap."""
        shape, strides = _shape(shape), _strides(shape)
        boxes, placed = [], []
        den = 1
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
            key = _table(tuple(zip(_strides(t.shape), t.shape, strides)), _size(t.shape))
            placed.append((t, sum(o * w for o, w in zip(offset, strides)), key))
            den = den * t.den // gcd(den, t.den)
        re, im = {}, {}
        for t, base, key in placed:
            scale = den // t.den
            re.update((base + key[f], v * scale) for f, v in t.re.items())
            im.update((base + key[f], v * scale) for f, v in t.im.items())
        return _make(shape, den, re, im)

    # -- algebra: on the numerators, in time proportional to the nonzeros ----

    def _plus(self, other, sign: int) -> "Tensor":
        """self + sign * other."""
        self._same_shape(other)
        den = self.den * other.den // gcd(self.den, other.den)
        mine, theirs = den // self.den, sign * (den // other.den)
        re = _add_into({f: v * mine for f, v in self.re.items()}, other.re, theirs)
        im = _add_into({f: v * mine for f, v in self.im.items()}, other.im, theirs)
        return _make(self.shape, den, _nonzero(re), _nonzero(im))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return _tensor(self.shape, self.den, {f: -v for f, v in self.re.items()},
                       {f: -v for f, v in self.im.items()})

    def scale(self, c) -> "Tensor":
        """c times this tensor; an int c builds no Scalar."""
        if not isinstance(c, int):
            c = _coerce(c)
        a, b, d = (c, 0, 1) if isinstance(c, int) else (c.a, c.b, c.d)
        re, im = {}, {}
        for f in self.re.keys() | self.im.keys():
            x, y = self.re.get(f, 0), self.im.get(f, 0)
            re[f], im[f] = x * a - y * b, x * b + y * a
        return _make(self.shape, self.den * d, _nonzero(re), _nonzero(im))

    def transpose(self) -> "Tensor":
        return self.permute((1, 0))

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (self.shape == other.shape and self.den == other.den
                and self.re == other.re and self.im == other.im)

    def __hash__(self):
        if self._hash is None:
            value = (self.shape, self.den, frozenset(self.re.items()), frozenset(self.im.items()))
            object.__setattr__(self, "_hash", hash(value))
        return self._hash

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_antisymmetric(self) -> bool:
        return (self + self.transpose()).is_zero()

    def _same_shape(self, other):
        if not isinstance(other, Tensor):
            raise TypeError("expected a Tensor")
        if self.shape != other.shape:
            raise LinAlgError("shape mismatch")

    def __repr__(self):
        entries = self.entries
        n = self.shape[-1] if self.shape else 1
        body = "; ".join(" ".join(str(e) for e in entries[i:i + n])
                         for i in range(0, len(entries), n or 1))
        return "Tensor(%s: %s)" % ("x".join(map(str, self.shape)), body)

    # -- elimination: one fraction-free routine on the numerators -----------

    def _eliminate(self, rhs=None):
        """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of self's
        rows, rhs's columns appended, as Gaussian-integer rows each divided by
        its content, the gcd of its integers.  Each step sets every other row
        to (p * row - f * pivot_row) / u, u the previous pivot: exact in Z[i]
        as times conj(u) over |u|^2.  Returns (rank, d, c, rows): d is the last
        pivot (0 below full rank), c the product of the contents negated per
        row swap (self's numerators have determinant c * d); rows end d * (I | X)."""
        m, n = self.shape
        parts = [(self, n, 1)] if rhs is None else [(self, n, rhs.den), (rhs, rhs.cols, self.den)]
        rows, c = [], 1
        for i in range(m):
            row = [(t.re.get(f, 0) * s, t.im.get(f, 0) * s)
                   for t, w, s in parts for f in range(i * w, i * w + w)]
            g = gcd(*itertools.chain(*row)) or 1
            rows.append([(x // g, y // g) for x, y in row])
            c *= g
        rank, (ur, ui) = 0, (1, 0)
        for col in range(n):
            r = next((r for r in range(rank, m) if rows[r][col] != (0, 0)), None)
            if r is None:
                continue
            if r != rank:
                rows[rank], rows[r], c = rows[r], rows[rank], -c
            prow, (pr, pi), norm = rows[rank], rows[rank][col], ur * ur + ui * ui
            for i, row in enumerate(rows):
                fr, fi = row[col]
                if i == rank or not (fr or fi) and (pr, pi) == (ur, ui):
                    continue    # p * row / p is the row
                rows[i] = [
                    ((a * ur + b * ui) // norm, (b * ur - a * ui) // norm)
                    for a, b in ((pr * xr - pi * xi - fr * yr + fi * yi,
                                  pr * xi + pi * xr - fr * yi - fi * yr)
                                 for (xr, xi), (yr, yi) in zip(row, prow))]
            rank, ur, ui = rank + 1, pr, pi
        return rank, ((ur, ui) if rank == n == m else (0, 0)), c, rows

    def det(self) -> Scalar:
        """Exact determinant by fraction-free elimination."""
        if self.rows != self.cols:
            raise LinAlgError("determinant of a non-square matrix")
        _, (a, b), c, _ = self._eliminate()
        return _build(a * c, b * c, self.den ** self.rows)

    def solve(self, rhs: "Tensor") -> "Tensor":
        """Solve self * X = rhs exactly; raises SingularMatrixError."""
        if self.rows != self.cols:
            raise LinAlgError("solve expects a square matrix")
        if rhs.rows != self.rows:
            raise LinAlgError("rhs has %d rows, expected %d" % (rhs.rows, self.rows))
        rank, (dr, di), _, rows = self._eliminate(rhs)
        if rank < self.rows:
            raise SingularMatrixError("matrix is singular (rank < %d)" % self.rows)
        # X, self * X = rhs: the rhs columns over d, put over the positive |d|^2
        x = [v for row in rows for v in row[rank:]]
        return _make(rhs.shape, dr * dr + di * di,
                     _nonzero({f: a * dr + b * di for f, (a, b) in enumerate(x)}),
                     _nonzero({f: b * dr - a * di for f, (a, b) in enumerate(x)}))

    def inverse(self) -> "Tensor":
        return self.solve(Tensor.identity(self.rows))

    def rank(self) -> int:
        return self._eliminate()[0]


# the name of the two-axis case: forms, operators, r-matrices, carrier matrices
Matrix = Tensor


# ---------------------------------------------------------------------------
# exact einsum
# ---------------------------------------------------------------------------

def _nonzero(d: dict) -> dict:
    return {k: v for k, v in d.items() if v}


def _add_into(acc: dict, d: dict, scale: int = 1, key=None) -> dict:
    """acc with scale * d[f] added at key[f] (an offset table), or at f for
    no key, for each f of d."""
    get = acc.get
    for f, v in d.items():
        k = f if key is None else key[f]
        acc[k] = get(k, 0) + scale * v
    return acc


def _axes(labels, sizes, target, skip=()):
    """The (stride, extent, weight) per axis of the _table taking a flat
    offset over labels to its part of the flat offset over target: the sum
    over the labels in target (and not in skip) of index times stride in
    target."""
    weights, w = {}, 1
    for label in reversed(target):
        weights[label] = w
        w *= sizes[label]
    axes, stride = [], 1
    for label in reversed(labels):
        if label in weights and label not in skip:
            axes.append((stride, sizes[label], weights[label]))
        stride *= sizes[label]
    return tuple(axes)


def _step(la, lb, out, sizes) -> tuple:
    """One contraction of an operand labelled la with one labelled lb onto
    the labels out: per side the offset tables onto the shared labels and
    onto out (lb's labels also on la left out)."""
    shared = tuple(l for l in la if l in lb)
    sides = []
    for labels, skip in ((la, ()), (lb, la)):
        size = _size(sizes[l] for l in labels)
        sides.append((_table(_axes(labels, sizes, shared), size),
                      _table(_axes(labels, sizes, out, skip), size)))
    return tuple(sides)


def _grouped(part: dict, side) -> dict:
    """The nonzero entries of one numerator dict of an operand as
    {offset over shared: [(offset over out, value)]} for one side of a
    _step."""
    by_shared, by_out = side
    groups = {}
    for f, v in part.items():
        if v:
            groups.setdefault(by_shared[f], []).append((by_out[f], v))
    return groups


def _grouping(operand, part: int, side, groupings) -> dict:
    """_grouped(operand[part], side), built once per sum for an input
    Tensor: groupings holds those built so far, keyed by (id(tensor), part,
    id(shared table), id(out table)).  An intermediate (tensor None) is
    grouped anew."""
    t = operand[2]
    if t is None:
        return _grouped(operand[part], side)
    key = id(t), part, id(side[0]), id(side[1])
    found = groupings.get(key)
    if found is None:
        found = groupings[key] = _grouped(operand[part], side)
    return found


def _real(left: dict, side, right: dict, out: dict, scale: int):
    """Add scale times the contraction of the numerator dict left, read in
    place through the tables side of its _step, with the grouped numerator
    part right into out: the one kernel of every sparse product."""
    by_shared, by_out = side
    get = out.get
    for f, v in left.items():
        other = right.get(by_shared[f])
        if other is None:
            continue
        p, v = by_out[f], v * scale
        for q, w in other:
            k = p + q
            out[k] = get(k, 0) + v * w


# _pair packs when the left operand and the right one hold on average at
# least _LEFT_FILL and _RIGHT_FILL real entries per right key: below that
# the packing and unpacking cost more than the scalar loop saves
_LEFT_FILL, _RIGHT_FILL = 8, 16
_LANE = 64                      # bits per packed slot, read back as struct "q"
_HALF = 1 << (_LANE - 1)        # a slot's bias; |slot value| < _HALF is proved
_ZERO_LANE = bytes(_LANE // 8)  # the lane a gather reads where a block has no slot


# The packed path (Kronecker substitution).  Number the distinct output
# offsets q of the right groups 0..m-1 and pack the right group of each
# shared key into WR = sum of wr << 64 * slot(q) (WI from the imaginary
# part likewise); then one big-int multiply-add rows_re[p] += vr * WR - vi * WI
# (rows_im[p] += vr * WI + vi * WR) per left entry (p, vr, vi) adds a whole
# row of products, slot j of rows_re[p] holding the exact sum of the products
# at output offset p + qs[j].
# The slot width is proved before anything is packed.  Each slot's value is
# a sum, over the shared keys, of products v * w of a left and a right
# numerator of that key: one product per (left entry, right entry) pair for
# real operands, two (vr * wr - vi * wi, or vr * wi + vi * wr) for complex
# ones.  A key contributes to the slot (p, q) at most c_l * c_r pairs, c_l
# the most left entries with one (key, output offset) and c_r the most
# entries of one right group with one output offset, at most 1 + the group's
# length less its number of distinct offsets.  So with K right keys every
# slot value satisfies
#     |value| <= (2 if complex else 1) * K * c_l * c_r * max|v| * max|w| * |scale|,
# the maxima over the operands' numerator dicts.  Only when that bound is
# below 2^63 is anything packed: then value + 2^63 lies in [1, 2^64), so adding
# the bias 2^63 to every slot of a row makes each slot one unsigned 64-bit
# word, with no borrow or carry between slots, and every row converts exactly
# with one to_bytes.  Otherwise the caller runs the scalar loop, which is
# exact for numerators of any size.  No float is used.
# The rows of a numerator part leave as one block: their bytes joined in
# row order, unpacked by one struct call and placed by one gather (_gather)
# into a whole-output list (_place), from which the sum's nonzero
# numerators are read once at its end (_merged).
def _packed(a, side, rights, b, whole, scale) -> bool:
    """Add scale times the contraction of the (re, im, _) operand a, read in
    place through the tables side, with the (re, im) part groupings rights
    of the operand b into the whole-output lists whole (_place) by packed
    big-int rows; False, adding nothing, when the slot bound is not
    proved."""
    a_re, a_im = a[0], a[1]
    r_re, r_im = rights
    keys = r_re.keys() | r_im.keys()
    left = a_re.keys() | a_im.keys() if a_im else a_re
    if not keys or not left:
        return True
    by_shared, by_out = side
    vmax = max(max(map(abs, a_re.values()), default=0), max(map(abs, a_im.values()), default=0))
    wmax = max(max(map(abs, b[0].values()), default=0), max(map(abs, b[1].values()), default=0))
    bound = (2 if a_im or b[1] else 1) * len(keys) * vmax * wmax * abs(scale)
    # c_l and c_r are at most the operands' entry counts: count them only
    # when those do not prove the bound
    if bound * (len(a_re) + len(a_im)) * (len(b[0]) + len(b[1])) >= _HALF:
        c_l = max(Counter(zip(map(by_shared.__getitem__, left),
                              map(by_out.__getitem__, left))).values())
        c_r = 1 + max(len(g) - len({q for q, _ in g}) for r in rights for g in r.values())
        if bound * c_l * c_r >= _HALF:
            return False
    qs = sorted({q for r in rights for g in r.values() for q, _ in g})
    slot = {q: _LANE * j for j, q in enumerate(qs)}
    packs = {}
    for key in keys:
        wr = wi = 0
        for q, x in r_re.get(key, ()):
            wr += x << slot[q]
        for q, y in r_im.get(key, ()):
            wi += y << slot[q]
        packs[key] = (wr * scale, wi * scale)
    rows_re, rows_im = {}, {}
    get_re, get_im = rows_re.get, rows_im.get
    if not a_im:
        for f, vr in a_re.items():
            w = packs.get(by_shared[f])
            if w is None:
                continue
            p, (wr, wi) = by_out[f], w
            rows_re[p] = get_re(p, 0) + vr * wr
            if wi:
                rows_im[p] = get_im(p, 0) + vr * wi
    else:
        for f in left:
            w = packs.get(by_shared[f])
            if w is None:
                continue
            p, (wr, wi), vr, vi = by_out[f], w, a_re.get(f, 0), a_im.get(f, 0)
            rows_re[p] = get_re(p, 0) + vr * wr - vi * wi
            rows_im[p] = get_im(p, 0) + vr * wi + vi * wr
    if not rows_re:
        return True
    # every row has a real part; acc + bias holds value + 2^63 in each
    # slot, and xor with bias flips each slot's top bit, leaving the slot's
    # value as a signed 64-bit word
    rows = tuple(sorted(rows_re))
    lo, gather = _gather(rows, tuple(qs))
    width = _LANE // 8 * len(qs)
    bias = int.from_bytes(_HALF.to_bytes(_LANE // 8, "little") * len(qs), "little")
    layout = "<%dq" % (len(rows) * len(qs) + 1)
    blocks = []
    for part in (rows_re, rows_im):
        block = None
        if part:
            get = part.get
            chunks = [((get(p, 0) + bias) ^ bias).to_bytes(width, "little") for p in rows]
            chunks.append(_ZERO_LANE)
            block = gather(struct.unpack(layout, b"".join(chunks)))
        blocks.append(block)
    _place(whole, lo, blocks)
    return True


_LANES = []     # the lane numbers 0, 1, .., one int object each for every gather


@_cached(64)
def _gather(rows: tuple, slots: tuple) -> tuple:
    """(lo, gather) placing a packed block of rows (sorted output offsets of
    the left entries) times slots (those of the right groups): gather takes
    the block's unpacked lanes, row i slot j at i * len(slots) + j, then one
    0, to the tuple of values at the output offsets lo, lo + 1, ..,
    rows[-1] + slots[-1], reading lane (i, j) at rows[i] + slots[j] and the
    0 wherever the block has no slot.  The map is one-to-one, as a left and
    a right output offset are over disjoint labels.  One operator.itemgetter
    over that permutation, built once per layout and cached by it; its lane
    numbers are shared (_LANES), so a cached gather costs one 8-byte slot
    per output offset."""
    size = len(rows) * len(slots)
    if len(_LANES) <= size:
        _LANES.extend(range(len(_LANES), size + 1))
    lo = rows[0] + slots[0]
    perm = [_LANES[size]] * (rows[-1] + slots[-1] + 1 - lo)
    for lane, k in zip(_LANES, [p + q for p in rows for q in slots]):
        perm[k - lo] = lane
    if len(perm) == 1:
        (k,) = perm
        return lo, lambda lanes: (lanes[k],)
    return lo, itemgetter(*perm)


def _place(whole: list, lo: int, blocks) -> None:
    """Add each gathered block of blocks (re, im; None for none), its values
    at the output offsets lo, lo + 1, .., into its whole-output list of
    whole, made on the first call (whole empty) and grown to every offset
    placed."""
    if not whole:
        whole += [], []
    for acc, block in zip(whole, blocks):
        if block is None:
            continue
        if len(acc) <= lo:      # nothing placed there yet
            acc += itertools.repeat(0, lo - len(acc))
            acc += block
            continue
        hi = lo + len(block)
        if len(acc) < hi:
            acc += itertools.repeat(0, hi - len(acc))
        acc[lo:hi] = map(add, acc[lo:hi], block)


def _merged(whole: list, re: dict, im: dict) -> tuple:
    """The nonzero numerators, as (re, im) dicts, of the whole-output lists
    of whole with the dicts re and im added: each list's nonzeros read once,
    by C-level compress."""
    merged = []
    for acc, part in zip(whole, (re, im)):
        if part:
            top = max(part) + 1
            if len(acc) < top:
                acc += itertools.repeat(0, top - len(acc))
            for k, v in part.items():
                acc[k] += v
        merged.append(dict(zip(itertools.compress(range(len(acc)), acc),
                                itertools.compress(acc, acc))))
    return tuple(merged)


def _pair(a, b, step, re, im, whole, scale, groupings):
    """Add scale times the contraction of two operands by a _step into the
    dicts re and im, keyed by offset over its output labels (zero sums may
    stay in them), or into the whole-output lists whole.  An operand is
    (re, im, tensor): its numerator dicts and the input Tensor they are
    from, None for an intermediate.  The left operand is read in place;
    each nonzero numerator part of the right one is grouped, once per sum
    for an input (_grouping, groupings).  When the groups are full (on
    average at least _LEFT_FILL left and _RIGHT_FILL right real entries per
    right key, one O(1) comparison) the products go through _packed, which
    adds whole rows by packed big-int arithmetic into whole once it has
    proved the slot bound; otherwise, or when the bound is not proved, the
    Gaussian-integer product is at most four real ones (_real) of nonzero
    parts: re * re and -im * im into re, re * im and im * re into im."""
    side_a, side_b = step
    rights = [_grouping(b, part, side_b, groupings) if b[part] else {} for part in (0, 1)]
    keys = max(map(len, rights))
    if (len(a[0]) >= _LEFT_FILL * keys and len(b[0]) >= _RIGHT_FILL * keys
            and _packed(a, side_a, rights, b, whole, scale)):
        return
    r_re, r_im = rights
    for left, right, out, sign in ((a[0], r_re, re, 1), (a[1], r_im, re, -1),
                                   (a[0], r_im, im, 1), (a[1], r_re, im, 1)):
        if left and right:
            _real(left, side_a, right, out, sign * scale)


@_cached(1024)
def _plan(spec: str, shapes: tuple):
    """What einsum needs of spec and the operand shapes alone: the output
    shape, and how to contract.  For one operand that is the offset table
    onto the output (None for none needed).  For more it is the whole
    contraction order, fixed from the shapes: a list of steps (i, j, _step)
    that contract operands i and j of the work list into one appended at
    its end, then the final _step of the last two onto the output.  Each
    step takes, of the work list's pairs in combinations order, the first
    with the least (no shared label, size of one times size of the other
    // product of the shared extents), sizes being shape products, so no
    outer product is formed while a shared label could avoid it."""
    if spec.count("->") != 1:
        raise LinAlgError("einsum spec %r needs one '->'" % spec)
    if not shapes:
        raise LinAlgError("einsum needs at least one operand")
    inputs, output = spec.replace(" ", "").split("->")
    inputs, output = [tuple(labels) for labels in inputs.split(",")], tuple(output)
    if len(inputs) != len(shapes):
        raise LinAlgError("einsum spec %r names %d operands, got %d"
                          % (spec, len(inputs), len(shapes)))
    if any(len(set(labels)) != len(labels) for labels in (*inputs, output)):
        raise LinAlgError("einsum spec %r repeats a label within one operand or the output"
                          % spec)
    sizes = {}
    for labels, shape in zip(inputs, shapes):
        if len(labels) != len(shape):
            raise LinAlgError("einsum labels %r for a tensor of shape %r"
                              % ("".join(labels), shape))
        for label, n in zip(labels, shape):
            if sizes.setdefault(label, n) != n:
                raise LinAlgError("einsum label %r has extents %d and %d"
                                  % (label, sizes[label], n))
    missing = [l for l in output if l not in sizes]
    if missing:
        raise LinAlgError("einsum output label %r is on no operand" % missing[0])
    shape = tuple(sizes[l] for l in output)
    if len(inputs) == 1:
        return shape, (_table(_axes(inputs[0], sizes, output), _size(shapes[0]))
                       if inputs[0] != output else None)
    work, how = inputs, []
    size = lambda labels: _size(sizes[l] for l in labels)

    def cost(ij):
        la, lb = work[ij[0]], work[ij[1]]
        shared = [l for l in la if l in lb]
        return not shared, size(la) * size(lb) // max(size(shared), 1)

    while len(work) > 2:
        i, j = min(itertools.combinations(range(len(work)), 2), key=cost)
        la, lb = work[i], work[j]
        rest = [l for k, l in enumerate(work) if k != i and k != j]
        keep = set(output).union(*rest)
        out = (tuple(l for l in la if l in keep)
               + tuple(l for l in lb if l in keep and l not in la))
        how.append((i, j, _step(la, lb, out, sizes)))
        work = rest + [out]
    return shape, how + [_step(*work, output, sizes)]


def _accumulate(how, operands, re: dict, im: dict, whole: list, scale: int, groupings: dict):
    """Add scale times the numerators of the einsum that _plan planned as
    how, over the product of the operands' denominators, into the
    {offset: int} dicts re and im or the whole-output lists whole (see
    _pair).  The operands are contracted two at a time in the plan's order,
    the groupings of right operands kept in groupings (see _grouping); only
    nonzero entries are visited, an intermediate that packs becomes its
    dicts by _merged, and the last pair adds straight into re and im or
    whole."""
    if len(operands) == 1:
        (t,) = operands
        _add_into(re, t.re, scale, how)
        _add_into(im, t.im, scale, how)
        return
    work = [(t.re, t.im, t) for t in operands]
    *steps, last = how
    for i, j, step in steps:
        pair, packed = ({}, {}, None), []
        _pair(work[i], work[j], step, pair[0], pair[1], packed, 1, groupings)
        if packed:
            pair = (*_merged(packed, pair[0], pair[1]), None)
        work = [w for k, w in enumerate(work) if k != i and k != j] + [pair]
    _pair(*work, last, re, im, whole, scale, groupings)


def _planned(terms) -> tuple:
    """(shape, den, parts) of the sum of the (spec, operands, coef) terms
    coef * einsum(spec, *operands), each planned once (_plan): den is the
    lcm of the terms' denominators, each the product of its operands', and
    parts holds per term (plan, operands, coef * den / its denominator).
    Every error of a spec, an operand's shape or terms of different shapes
    is raised here, before any entry is read."""
    dens = [_size(t.den for t in operands) for _, operands, _ in terms]
    den = 1
    for d in dens:
        den = den * d // gcd(den, d)
    plans = [_plan(spec, tuple(t.shape for t in operands)) for spec, operands, _ in terms]
    shape = plans[0][0]
    if any(other != shape for other, _ in plans):
        raise LinAlgError("einsum terms differ in shape")
    return shape, den, [(how, operands, coef * (den // d))
                        for (_, how), (_, operands, coef), d in zip(plans, terms, dens)]


def _summed(shape, den, parts) -> tuple:
    """(shape, den, re, im) of _planned terms: every term adds its scaled
    numerators into one pair of {offset: int} dicts, or, for a last pair
    that packs, into one pair of whole-output lists, made only then; the
    numerators are returned without their zeros (not reduced).  The terms
    share one memo of groupings for this call: each numerator part of an
    input Tensor on the right of a pair is grouped once per pair of offset
    tables, keyed by ids that stay valid while parts holds the Tensors and
    their plans (intermediates, freed as the call goes, are never keyed)."""
    re, im, whole, groupings = {}, {}, [], {}
    for how, operands, scale in parts:
        _accumulate(how, operands, re, im, whole, scale, groupings)
    if whole:
        return (shape, den, *_merged(whole, re, im))
    return shape, den, _nonzero(re), _nonzero(im)


def _combine(terms) -> tuple:
    """(shape, den, re, im) of the sum of the (spec, operands, coef) terms
    coef * einsum(spec, *operands) over the lcm den of their denominators."""
    return _summed(*_planned(terms))


def einsum(spec: str, *operands) -> Tensor:
    """Exact Einstein summation over Tensors, e.g. einsum("ij,jk->ik", a, b).

    The operands' numerators are contracted in integers (see _accumulate);
    the result's denominator is the product of theirs, reduced.  A label
    missing from the output is summed; a label repeated within one operand
    is refused.
    """
    return _make(*_combine([(spec, operands, 1)]))
