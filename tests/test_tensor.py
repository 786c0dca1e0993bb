"""The one tensor type: its two index operations against slow references.

The references are the nested-list loops that contraction and permutation
replaced: applying a matrix to one slot of an order-3 table, lifting a
comultiplication into one slot of a 2-tensor, swapping two slots, the
transposition of dualization, and the matrix product and matrix-vector
product of the former Matrix class.  Inputs are random Gaussian-rational
tensors of dimensions 1 to 4 with zero, real, purely imaginary and mixed
entries.
"""

import itertools
import random
from fractions import Fraction

import pytest

from postlie import (
    ONE,
    Algebra,
    CoalgebraSpec,
    LinAlgError,
    Matrix,
    Scalar,
    Tensor,
    cybe_C,
    cybe_D,
    dualize,
    dualize_alg,
)
from postlie.bialgebra import COMAP_NAMES, _apply_first, _apply_second

ZERO = Scalar(0)
DIMS = (1, 2, 3, 4)


def _scalar(rng):
    kind = rng.randrange(4)
    frac = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if kind == 0:
        return ZERO
    if kind == 1:
        return Scalar(frac())
    if kind == 2:
        return Scalar(0, frac())
    return Scalar(frac(), frac())


def _nested(rng, shape):
    if len(shape) == 1:
        return [_scalar(rng) for _ in range(shape[0])]
    return [_nested(rng, shape[1:]) for _ in range(shape[0])]


def _tensor(nested, shape):
    flat = nested
    for _ in shape[1:]:
        flat = [x for part in flat for x in part]
    return Tensor(shape, flat)


def _zero3(n):
    return [[[ZERO] * n for _ in range(n)] for _ in range(n)]


# ---------------------------------------------------------------------------
# the slow references
# ---------------------------------------------------------------------------

def ref_apply_slot(t, m, slot):
    """Apply a matrix (nested rows) to one slot (0, 1 or 2) of a table."""
    n = len(t)
    out = _zero3(n)
    for i, j, k in itertools.product(range(n), repeat=3):
        c = t[i][j][k]
        if not c:
            continue
        src = (i, j, k)[slot]
        for p in range(n):
            if m[p][src]:
                idx = [i, j, k]
                idx[slot] = p
                out[idx[0]][idx[1]][idx[2]] = out[idx[0]][idx[1]][idx[2]] + m[p][src] * c
    return out


def ref_lift(d, t2, slot):
    """The comultiplication d[k][i][j] applied to one slot of the 2-tensor t2:
    slot 1 gives x (x) delta(y), slot 0 gives delta(x) (x) y."""
    n = len(d)
    out = _zero3(n)
    for a, b in itertools.product(range(n), repeat=2):
        if not t2[a][b]:
            continue
        inner = d[b if slot == 1 else a]
        for p, q in itertools.product(range(n), repeat=2):
            if inner[p][q]:
                if slot == 1:
                    out[a][p][q] = out[a][p][q] + t2[a][b] * inner[p][q]
                else:
                    out[p][q][b] = out[p][q][b] + t2[a][b] * inner[p][q]
    return out


def ref_swap12(t):
    n = len(t)
    return [[[t[j][i][k] for k in range(n)] for j in range(n)] for i in range(n)]


def ref_swap23(t):
    n = len(t)
    return [[[t[i][k][j] for k in range(n)] for j in range(n)] for i in range(n)]


def ref_dualize(d):
    """c[i][j][k] = d[k][i][j]."""
    n = len(d)
    c = _zero3(n)
    for k, i, j in itertools.product(range(n), repeat=3):
        c[i][j][k] = d[k][i][j]
    return c


def ref_matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[ZERO] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            if a[i][k]:
                for j in range(cols):
                    if b[k][j]:
                        out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


def ref_apply(m, v):
    out = [ZERO] * len(m)
    for j, vj in enumerate(v):
        if vj:
            for i in range(len(m)):
                if m[i][j]:
                    out[i] = out[i] + m[i][j] * vj
    return tuple(out)


def ref_cybe(alg, r, c_first, c_mid, c_last, first_slots):
    """The Yang-Baxter tensor loops over pairs of entries of r: for
    r = sum a_i (x) b_i, the products c_first(a_i, a_j) placed in slot 1
    with b_i, b_j in first_slots, a_i (x) c_mid(b_i, a_j) (x) b_j, and
    a_i (x) a_j (x) c_last(b_i, b_j)."""
    n = alg.dim
    out = _zero3(n)
    e = lambda i: tuple(ONE if j == i else ZERO for j in range(n))
    entries = [(i, j, r[i][j]) for i in range(n) for j in range(n) if r[i][j]]
    for i1, j1, c1 in entries:
        for i2, j2, c2 in entries:
            c = c1 * c2
            for k, pk in enumerate(c_first(e(i1), e(i2))):
                if pk:
                    s, t = (j1, j2) if first_slots == "ij" else (j2, j1)
                    out[k][s][t] = out[k][s][t] + c * pk
            for k, pk in enumerate(c_mid(e(j1), e(i2))):
                if pk:
                    out[i1][k][j2] = out[i1][k][j2] + c * pk
            for k, pk in enumerate(c_last(e(j1), e(j2))):
                if pk:
                    out[i1][i2][k] = out[i1][i2][k] + c * pk
    return out


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", DIMS)
def test_contract_matrix_matches_apply_slot(n):
    rng = random.Random(100 + n)
    for _ in range(4):
        t, m = _nested(rng, (n, n, n)), _nested(rng, (n, n))
        for slot in range(3):
            assert (_tensor(t, (n, n, n)).contract(slot, _tensor(m, (n, n)))
                    == _tensor(ref_apply_slot(t, m, slot), (n, n, n)))


@pytest.mark.parametrize("n", DIMS)
def test_contract_vector_sums_an_axis_away(n):
    rng = random.Random(200 + n)
    t = _nested(rng, (n, n, n))
    v = tuple(_scalar(rng) for _ in range(n))
    for axis in range(3):
        expected = [[ZERO] * n for _ in range(n)]
        for idx in itertools.product(range(n), repeat=3):
            rest = idx[:axis] + idx[axis + 1:]
            expected[rest[0]][rest[1]] += v[idx[axis]] * t[idx[0]][idx[1]][idx[2]]
        assert _tensor(t, (n, n, n)).contract(axis, v) == _tensor(expected, (n, n))


@pytest.mark.parametrize("n", DIMS)
def test_comap_slots_match_lift(n):
    rng = random.Random(300 + n)
    for _ in range(4):
        d, t2 = _nested(rng, (n, n, n)), _nested(rng, (n, n))
        dt, t2t = _tensor(d, (n, n, n)), _tensor(t2, (n, n))
        assert _apply_second(dt, t2t) == _tensor(ref_lift(d, t2, 1), (n, n, n))
        assert _apply_first(dt, t2t) == _tensor(ref_lift(d, t2, 0), (n, n, n))


@pytest.mark.parametrize("n", DIMS)
def test_permute_matches_swaps_and_dualization(n):
    rng = random.Random(400 + n)
    t = _nested(rng, (n, n, n))
    tt = _tensor(t, (n, n, n))
    assert tt.permute((1, 0, 2)) == _tensor(ref_swap12(t), (n, n, n))
    assert tt.permute((0, 2, 1)) == _tensor(ref_swap23(t), (n, n, n))
    assert tt.permute((1, 2, 0)) == _tensor(ref_dualize(t), (n, n, n))
    assert tt.permute((1, 2, 0)).permute((2, 0, 1)) == tt
    co = CoalgebraSpec(n, comaps={name: tt for name in COMAP_NAMES})
    for op in ("rtri", "ltri", "bracket"):
        assert dualize(co).table(op) == _tensor(ref_dualize(t), (n, n, n))
    assert dualize_alg(dualize(co)).comaps == co.comaps


def test_permute_every_axis_order():
    rng = random.Random(500)
    shape = (2, 3, 4)
    t = _nested(rng, shape)
    tt = _tensor(t, shape)
    for axes in itertools.permutations(range(3)):
        out = tt.permute(axes)
        assert out.shape == tuple(shape[a] for a in axes)
        for idx in itertools.product(*(range(m) for m in out.shape)):
            src = [0, 0, 0]
            for k, a in enumerate(axes):
                src[a] = idx[k]
            assert out[idx] == t[src[0]][src[1]][src[2]]


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 4), (4, 1, 3), (3, 4, 2), (4, 4, 4)])
def test_matrix_product_and_apply_non_square(shape):
    rows, inner, cols = shape
    rng = random.Random(600 + rows * 16 + inner * 4 + cols)
    for _ in range(4):
        a, b = _nested(rng, (rows, inner)), _nested(rng, (inner, cols))
        v = tuple(_scalar(rng) for _ in range(inner))
        ma, mb = _tensor(a, (rows, inner)), _tensor(b, (inner, cols))
        assert ma * mb == _tensor(ref_matmul(a, b), (rows, cols))
        assert ma.apply(v) == ref_apply(a, v)


def test_shape_errors():
    t = Tensor.zero(2, 2, 2)
    with pytest.raises(LinAlgError):
        t.contract(0, Matrix.zero(2, 3))
    with pytest.raises(LinAlgError):
        t.contract(1, (ONE,))
    with pytest.raises(LinAlgError):
        t.permute((0, 0, 1))
    with pytest.raises(LinAlgError):
        Matrix.zero(2, 3) * Matrix.zero(2, 3)
    with pytest.raises(IndexError):
        t[0, 2, 0]
    with pytest.raises(IndexError):
        t[0, 1]


@pytest.mark.parametrize("n", DIMS)
def test_yang_baxter_tensors_match_entry_loops(n):
    rng = random.Random(700 + n)
    for _ in range(3):
        alg = Algebra(n, ops={op: _tensor(_nested(rng, (n, n, n)), (n, n, n))
                              for op in ("rtri", "ltri", "bracket")})
        r = _nested(rng, (n, n))
        mul = lambda op: lambda x, y: alg.mul(op, x, y)
        bullet = lambda x, y: tuple(a - b for a, b in zip(alg.mul("rtri", x, y),
                                                          alg.mul("ltri", y, x)))
        circ = lambda x, y: tuple(a + b for a, b in zip(alg.mul("rtri", x, y),
                                                        alg.mul("ltri", x, y)))
        br = mul("bracket")
        assert cybe_C(alg, _tensor(r, (n, n))) == _tensor(
            ref_cybe(alg, r, br, br, br, "ij"), (n, n, n))
        assert cybe_D(alg, _tensor(r, (n, n))) == _tensor(
            ref_cybe(alg, r, mul("ltri"), bullet, circ, "ji"), (n, n, n))
