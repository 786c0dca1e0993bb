"""The one tensor type: its index operations against slow references.

The references are the nested-list loops that contraction and permutation
replaced: applying a matrix to one slot of an order-3 table, lifting a
comultiplication into one slot of a 2-tensor, swapping two slots, the
transposition of dualization, and the matrix product and matrix-vector
product of the former Matrix class.  Inputs are random Gaussian-rational
tensors of dimensions 1 to 4 with zero, real, purely imaginary and mixed
entries.

The derived algebras, representations and block sums built from tables
are compared in the same way with the closures they replaced: a product
evaluated on every pair of basis vectors, representations as lists of
matrices combined linearly, and products on A + B evaluated on split
vectors.  On the bundled pp algebras x <| y is antisymmetric, so an axis
swapped in ltri goes unnoticed there; these tables are random and dense.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from postlie import (
    ONE,
    Algebra,
    CoalgebraSpec,
    LinAlgError,
    MatchedPairMaps,
    Matrix,
    PPRepSpec,
    RepSpec,
    Scalar,
    Tensor,
    adjoint_rep,
    bowtie,
    bullet_from_gph,
    cobrackets_from_r,
    compatible_pp_from_gph,
    cybe_C,
    cybe_D,
    dual_pp_rep,
    dualize,
    dualize_alg,
    hom_embed_r,
    horizontal_post_lie,
    induced_post_lie,
    invertible_o_to_compatible_pre_pp,
    opposite_post_lie,
    pairing_form,
    pp_adjoint_rep,
    pp_from_dual_p_o,
    pp_split_dual_rep,
    pre_pp_from_o_operator,
    quarter_split_rep,
    semidirect_post_lie,
    semidirect_pp,
    sub_adjacent_lie,
    sub_adjacent_pp,
    transpose_pp,
    vertical_post_lie,
)
from postlie import algebra as algebra_mod
from postlie import construct as construct_mod
from postlie import forms as forms_mod
from postlie import linalg as linalg_mod
from postlie.bialgebra import COMAP_NAMES
from postlie.linalg import einsum
from vectors import basis_vec, from_rows, mul, ref_kron, row, vadd, vneg

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
    entries = [(i, j, r[i][j]) for i in range(n) for j in range(n) if r[i][j]]
    for i1, j1, c1 in entries:
        for i2, j2, c2 in entries:
            c = c1 * c2
            for k, pk in enumerate(c_first(basis_vec(n, i1), basis_vec(n, i2))):
                if pk:
                    s, t = (j1, j2) if first_slots == "ij" else (j2, j1)
                    out[k][s][t] = out[k][s][t] + c * pk
            for k, pk in enumerate(c_mid(basis_vec(n, j1), basis_vec(n, i2))):
                if pk:
                    out[i1][k][j2] = out[i1][k][j2] + c * pk
            for k, pk in enumerate(c_last(basis_vec(n, j1), basis_vec(n, j2))):
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
        for slot, spec in enumerate(("ab,bjk->ajk", "ab,ibk->iak", "ab,ijb->ija")):
            assert (einsum(spec, _tensor(m, (n, n)), _tensor(t, (n, n, n)))
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
        spec = "%s,abc->%s" % ("abc"[axis], "abc".replace("abc"[axis], ""))
        assert einsum(spec, Tensor((n,), v), _tensor(t, (n, n, n))) == _tensor(expected, (n, n))


@pytest.mark.parametrize("n", DIMS)
def test_comap_slots_match_lift(n):
    rng = random.Random(300 + n)
    for _ in range(4):
        d, t2 = _nested(rng, (n, n, n)), _nested(rng, (n, n))
        dt, t2t = _tensor(d, (n, n, n)), _tensor(t2, (n, n))
        # (id (x) delta) t2 and (delta (x) id) t2, as the pp-coalgebra
        # equations write them
        assert einsum("as,sbc->abc", t2t, dt) == _tensor(ref_lift(d, t2, 1), (n, n, n))
        assert einsum("sc,sab->abc", t2t, dt) == _tensor(ref_lift(d, t2, 0), (n, n, n))


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
        assert einsum("ij,jk->ik", ma, mb) == _tensor(ref_matmul(a, b), (rows, cols))
        assert einsum("ij,j->i", ma, Tensor((inner,), v)).entries == ref_apply(a, v)


def test_shape_errors():
    t = Tensor.zero(2, 2, 2)
    with pytest.raises(LinAlgError):
        einsum("ab,bjk->ajk", Matrix.zero(2, 3), t)
    with pytest.raises(LinAlgError):
        t.permute((0, 0, 1))
    with pytest.raises(LinAlgError):
        einsum("ij,jk->ik", Matrix.zero(2, 3), Matrix.zero(2, 3))
    with pytest.raises(IndexError):
        t[0, 2, 0]
    with pytest.raises(IndexError):
        t[0, 1]
    with pytest.raises(TypeError, match="expected a Tensor"):
        t + 1
    with pytest.raises(LinAlgError, match="shape mismatch"):
        t + Tensor.zero(2, 2)
    with pytest.raises(LinAlgError, match="cannot reshape a 2x2x2 tensor to 7"):
        t.reshape(7)
    with pytest.raises(LinAlgError, match="solve expects a square matrix"):
        Matrix.zero(2, 3).solve(Matrix.zero(2, 1))
    with pytest.raises(LinAlgError, match="einsum needs at least one operand"):
        einsum("->")


def test_an_int_index_reads_a_one_axis_tensor():
    v = Tensor((2,), [1, 2])
    assert (v[0], v[1], v[(1,)]) == (ONE, Scalar(2), Scalar(2))
    m = Matrix.identity(2)
    for t, index in ((m, 0), (m, (0, 0.5)), (m, [0, 0]), (m, None), (v, 2), (v, "a"), (v, -1)):
        with pytest.raises(IndexError):
            t[index]


def test_einsum_refuses_a_spec_with_two_arrows():
    with pytest.raises(LinAlgError, match="'ij->j->i'"):
        einsum("ij->j->i", Tensor.identity(2))


@pytest.mark.parametrize("make", [
    lambda: Tensor((-1, -1), [ONE]),
    lambda: Tensor.zero(-1),
    lambda: Tensor.identity(-2),
    lambda: Tensor.zero(2, 3).reshape(-2, -3),
    lambda: Tensor.blocks((2, -1), []),
    lambda: Tensor.zero(2, 1.5),
], ids=["init", "zero", "identity", "reshape", "blocks", "non-integer"])
def test_shapes_have_non_negative_integer_extents(make):
    with pytest.raises(LinAlgError, match="non-negative integer extents"):
        make()


def test_constructor_coerces_entries():
    assert Tensor((3,), [1, 0, Fraction(1, 2)]) == Tensor((3,), [ONE, ZERO, Scalar(Fraction(1, 2))])
    with pytest.raises(TypeError, match="cannot mix Scalar"):
        Tensor((1,), [0.5])


@pytest.mark.parametrize("n", DIMS)
def test_yang_baxter_tensors_match_entry_loops(n):
    rng = random.Random(700 + n)
    for _ in range(3):
        alg = Algebra(n, ops={op: _tensor(_nested(rng, (n, n, n)), (n, n, n))
                              for op in ("rtri", "ltri", "bracket")})
        r = _nested(rng, (n, n))
        product = lambda op: lambda x, y: mul(alg, op, x, y)
        bullet = lambda x, y: tuple(a - b for a, b in zip(mul(alg, "rtri", x, y),
                                                          mul(alg, "ltri", y, x)))
        circ = lambda x, y: tuple(a + b for a, b in zip(mul(alg, "rtri", x, y),
                                                        mul(alg, "ltri", x, y)))
        br = product("bracket")
        assert cybe_C(alg, _tensor(r, (n, n))) == _tensor(
            ref_cybe(alg, r, br, br, br, "ij"), (n, n, n))
        assert cybe_D(alg, _tensor(r, (n, n))) == _tensor(
            ref_cybe(alg, r, product("ltri"), bullet, circ, "ji"), (n, n, n))


# ---------------------------------------------------------------------------
# derived tables, representations and block sums against the closures they
# replaced
# ---------------------------------------------------------------------------

PAIRS = [(n, m) for n in DIMS for m in DIMS]


def _dense_scalar(rng):
    while True:
        s = _scalar(rng)
        if s:
            return s


def _dense(rng, shape):
    if len(shape) == 1:
        return [_dense_scalar(rng) for _ in range(shape[0])]
    return [_dense(rng, shape[1:]) for _ in range(shape[0])]


def ref_mul(t, x, y):
    """Bilinear product of nested table t on coordinate vectors."""
    out = [ZERO] * len(t[0][0])
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for k, c in enumerate(t[i][j]):
                out[k] = out[k] + xi * yj * c
    return tuple(out)


def ref_table(n, mul):
    """The deleted Algebra.op_table_from: mul evaluated on basis pairs."""
    return [[list(mul(basis_vec(n, i), basis_vec(n, j))) for j in range(n)] for i in range(n)]


def ref_left_mult(t, x):
    """Matrix of v -> x * v: its column j is x * e_j."""
    n = len(t)
    cols = [ref_mul(t, x, basis_vec(n, j)) for j in range(n)]
    return [[cols[j][k] for j in range(n)] for k in range(len(cols[0]))]


def ref_right_mult(t, x):
    n = len(t)
    cols = [ref_mul(t, basis_vec(n, j), x) for j in range(n)]
    return [[cols[j][k] for j in range(n)] for k in range(len(cols[0]))]


def ref_combine(mats, x):
    """The deleted _combine: sum_i x_i mats[i]."""
    m = len(mats[0])
    out = [[ZERO] * m for _ in range(m)]
    for xi, mat in zip(x, mats):
        for a in range(m):
            for b in range(m):
                out[a][b] = out[a][b] + xi * mat[a][b]
    return out


def ref_dual(m):
    return [[-m[j][i] for j in range(len(m))] for i in range(len(m[0]))]


def ref_lin(*terms):
    """sum of c * matrix over (c, matrix) terms."""
    m = terms[0][1]
    return [[sum((c * t[a][b] for c, t in terms[1:]), terms[0][0] * m[a][b])
             for b in range(len(m[0]))] for a in range(len(m))]


def ref_mults(t, left):
    n = len(t)
    return [(ref_left_mult if left else ref_right_mult)(t, basis_vec(n, i)) for i in range(n)]


def _alg(tables):
    n = len(next(iter(tables.values())))
    return Algebra(n, ops={op: _tensor(t, (n, n, n)) for op, t in tables.items()})


def _carriers(mats, n, m):
    return _tensor(mats, (n, m, m))


def _random_tables(rng, n, ops):
    return {op: _dense(rng, (n, n, n)) for op in ops}


@pytest.fixture
def unchecked(monkeypatch):
    """No precondition is established: the constructions run on random
    tables that fail their hypotheses."""
    for module in (algebra_mod, forms_mod, construct_mod):
        monkeypatch.setattr(module, "_require", lambda check, *args, message: None)


@pytest.mark.parametrize("n", DIMS)
def test_derived_algebras_match_basis_pair_closures(n, unchecked):
    rng = random.Random(800 + n)
    t = _random_tables(rng, n, ("circ", "bracket", "rtri", "ltri", "se", "ne", "sw", "nw", "dot"))
    alg = _alg(t)
    P = _dense(rng, (n, n))
    o = lambda x, y: ref_mul(t["circ"], x, y)
    br = lambda x, y: ref_mul(t["bracket"], x, y)
    rt = lambda x, y: ref_mul(t["rtri"], x, y)
    lt = lambda x, y: ref_mul(t["ltri"], x, y)
    q = lambda op: lambda x, y: ref_mul(t[op], x, y)
    table = lambda mul: _tensor(ref_table(n, mul), (n, n, n))
    assert sub_adjacent_lie(alg).table("bracket") == table(
        lambda x, y: vadd(o(x, y), vneg(o(y, x)), br(x, y)))
    opp = opposite_post_lie(alg)
    assert opp.table("circ") == table(lambda x, y: vadd(o(x, y), br(x, y)))
    assert opp.table("bracket") == table(lambda x, y: br(y, x))
    assert horizontal_post_lie(alg).table("circ") == table(
        lambda x, y: vadd(rt(x, y), lt(x, y)))
    assert vertical_post_lie(alg).table("circ") == table(
        lambda x, y: vadd(rt(x, y), vneg(lt(y, x))))
    tr = transpose_pp(alg)
    assert tr.table("rtri") == alg.table("rtri")
    assert tr.table("ltri") == table(lambda x, y: vneg(lt(y, x)))
    sub = sub_adjacent_pp(alg)
    assert sub.table("rtri") == table(lambda x, y: vadd(q("se")(x, y), q("ne")(x, y)))
    assert sub.table("ltri") == table(lambda x, y: vadd(q("sw")(x, y), q("nw")(x, y)))
    assert sub.table("bracket") == table(
        lambda x, y: vadd(q("dot")(x, y), vneg(q("dot")(y, x))))
    assert induced_post_lie(alg, _tensor(P, (n, n))).table("circ") == table(
        lambda x, y: br(ref_apply(P, x), y))


@pytest.mark.parametrize("n", DIMS)
def test_adjoint_carriers_match_multiplication_matrices(n):
    rng = random.Random(900 + n)
    t = _random_tables(rng, n, ("circ", "bracket", "rtri", "ltri", "se", "ne", "sw", "nw", "dot"))
    alg = _alg(t)
    L = lambda op: _carriers(ref_mults(t[op], True), n, n)
    R = lambda op: _carriers(ref_mults(t[op], False), n, n)
    assert adjoint_rep(alg) == RepSpec(L("circ"), R("circ"), L("bracket"))
    assert pp_adjoint_rep(alg) == PPRepSpec(L("rtri"), R("rtri"), L("ltri"), R("ltri"),
                                            L("bracket"))
    assert quarter_split_rep(alg) == PPRepSpec(L("se"), R("ne"), L("sw"), R("nw"), L("dot"))
    lrt, rlt, ad = (ref_mults(t[op], left) for op, left in
                    (("rtri", True), ("ltri", False), ("bracket", True)))
    split = [[ref_lin((ONE, ref_dual(a)), (-ONE, ref_dual(b))) for a, b in zip(lrt, rlt)],
             [ref_lin((-ONE, ref_dual(b))) for b in rlt], [ref_dual(a) for a in ad]]
    assert pp_split_dual_rep(alg) == RepSpec(*(_carriers(c, n, n) for c in split))
    # acting by any vector is the linear combination of the carrier matrices
    x = tuple(_scalar(rng) for _ in range(n))
    adj = pp_adjoint_rep(alg)
    by_x = lambda carrier: einsum("i,iab->ab", Tensor((n,), x), carrier)
    assert by_x(adj.l_lt) == _tensor(ref_left_mult(t["ltri"], x), (n, n))
    assert by_x(adj.r_lt) == _tensor(ref_right_mult(t["ltri"], x), (n, n))


def ref_dual_pp_rep(rep):
    """The deleted per-basis loop of dual_pp_rep on lists of matrices."""
    l_rt, r_rt, l_lt, r_lt, rho = [], [], [], [], []
    for i in range(len(rep[0])):
        a, b, c, d = (ref_dual(mats[i]) for mats in rep[:4])
        l_rt.append(ref_lin((ONE, a), (-ONE, b), (ONE, c), (-ONE, d)))
        r_rt.append(b)
        l_lt.append(ref_lin((ONE, b), (-ONE, c)))
        r_lt.append(ref_lin((-ONE, b), (-ONE, d)))
        rho.append(ref_dual(rep[4][i]))
    return [l_rt, r_rt, l_lt, r_lt, rho]


def ref_block_sum(n, m, products, a_tables, b_tables, on_b, on_a):
    """The deleted _semidirect and bowtie closures: each product on split
    vectors (x, u), (y, v) of A + B, its A part
        x * y + l_a(u) y + r_a(v) x
    and its B part
        u * v + l_b(x) v + r_b(y) u,
    with the right actions negated for the bracket."""
    tables = {}
    for op, left, right in products:
        sign = -ONE if op == "bracket" else ONE

        def mul(xs, ys, op=op, left=left, right=right, sign=sign):
            x, u, y, v = xs[:n], xs[n:], ys[:n], ys[n:]
            apart = ref_mul(a_tables[op], x, y)
            bpart = ref_mul(b_tables[op], u, v) if b_tables else (ZERO,) * m
            bpart = vadd(bpart, ref_apply(ref_combine(on_b[left], x), v),
                         ref_apply(ref_lin((sign, ref_combine(on_b[right], y))), u))
            if on_a:
                apart = vadd(apart, ref_apply(ref_combine(on_a[left], u), y),
                             ref_apply(ref_lin((sign, ref_combine(on_a[right], v))), x))
            return apart + bpart
        tables[op] = _tensor(ref_table(n + m, mul), (n + m,) * 3)
    return tables


POST_LIE = (("circ", "l", "r"), ("bracket", "rho", "rho"))
PP = (("rtri", "l_rt", "r_rt"), ("ltri", "l_lt", "r_lt"), ("bracket", "rho", "rho"))


@pytest.mark.parametrize("n, m", PAIRS)
def test_dual_pp_rep_and_semidirect_sums_match_closures(n, m, unchecked):
    rng = random.Random(1000 + 10 * n + m)
    t = _random_tables(rng, n, ("circ", "bracket", "rtri", "ltri"))
    alg = _alg(t)
    names = ("l_rt", "r_rt", "l_lt", "r_lt", "rho")
    pp_lists = [_dense(rng, (n, m, m)) for _ in names]
    pp = PPRepSpec(*(_carriers(c, n, m) for c in pp_lists))
    dual = dual_pp_rep(alg, pp)
    assert dual == PPRepSpec(*(_carriers(c, n, m) for c in ref_dual_pp_rep(pp_lists)))
    out = semidirect_pp(alg, pp)
    want = ref_block_sum(n, m, PP, t, None, dict(zip(names, pp_lists)), None)
    for op, table in want.items():
        assert out.table(op) == table, op
    post_lists = [_dense(rng, (n, m, m)) for _ in range(3)]
    out = semidirect_post_lie(alg, RepSpec(*(_carriers(c, n, m) for c in post_lists)))
    want = ref_block_sum(n, m, POST_LIE, t, None, dict(zip(("l", "r", "rho"), post_lists)), None)
    for op, table in want.items():
        assert out.table(op) == table, op
    assert out.basis == alg.basis + tuple("v%d" % (i + 1) for i in range(m))


@pytest.mark.parametrize("n, m", PAIRS)
def test_bowtie_matches_closures(n, m, unchecked):
    rng = random.Random(1100 + 10 * n + m)
    ta = _random_tables(rng, n, ("circ", "bracket"))
    tb = _random_tables(rng, m, ("circ", "bracket"))
    on_b = {name: _dense(rng, (n, m, m)) for name in ("l", "r", "rho")}
    on_a = {name: _dense(rng, (m, n, n)) for name in ("l", "r", "rho")}
    maps = MatchedPairMaps(RepSpec(*(_carriers(on_b[k], n, m) for k in ("l", "r", "rho"))),
                           RepSpec(*(_carriers(on_a[k], m, n) for k in ("l", "r", "rho"))))
    out = bowtie(_alg(ta), _alg(tb), maps)
    for op, table in ref_block_sum(n, m, POST_LIE, ta, tb, on_b, on_a).items():
        assert out.table(op) == table, op


@pytest.mark.parametrize("n, m", PAIRS)
def test_operator_constructions_match_closures(n, m, unchecked):
    rng = random.Random(1200 + 10 * n + m)
    alg = _alg(_random_tables(rng, n, ("rtri", "ltri", "bracket")))
    pp_lists = [_dense(rng, (n, m, m)) for _ in range(5)]
    pp = PPRepSpec(*(_carriers(c, n, m) for c in pp_lists))
    l_rt, r_rt, l_lt, r_lt, rho = pp_lists
    T = _dense(rng, (n, m))
    Tm = _tensor(T, (n, m))
    Tu = lambda u: ref_apply(T, u)
    act = lambda mats, x, v: ref_apply(ref_combine(mats, x), v)
    table = lambda mul: _tensor(ref_table(m, mul), (m, m, m))

    quarter = pre_pp_from_o_operator(alg, pp, Tm)
    for op, mul in (("se", lambda u, v: act(l_rt, Tu(u), v)),
                    ("ne", lambda u, v: act(r_rt, Tu(v), u)),
                    ("sw", lambda u, v: act(l_lt, Tu(u), v)),
                    ("nw", lambda u, v: act(r_lt, Tu(v), u)),
                    ("dot", lambda u, v: act(rho, Tu(u), v))):
        assert quarter.table(op) == table(mul), op

    post_lists = [_dense(rng, (n, m, m)) for _ in range(3)]
    l, r, rho3 = post_lists
    dual_act = lambda mats, x, v: ref_apply(ref_dual(ref_combine(mats, x)), v)
    split = pp_from_dual_p_o(alg, RepSpec(*(_carriers(c, n, m) for c in post_lists)), Tm)
    assert split.table("rtri") == table(
        lambda u, v: vadd(dual_act(l, Tu(u), v), vneg(dual_act(r, Tu(u), v))))
    assert split.table("ltri") == table(lambda u, v: vneg(dual_act(r, Tu(v), u)))
    assert split.table("bracket") == table(lambda u, v: dual_act(rho3, Tu(u), v))

    _, r_embedded = hom_embed_r(alg, pp, Tm)
    Tt = [[T[i][j] for i in range(n)] for j in range(m)]
    assert r_embedded == from_rows(
        [[ZERO] * n + list(vneg(T[i])) for i in range(n)]
        + [Tt[j] + [ZERO] * m for j in range(m)])


@pytest.mark.parametrize("n", DIMS)
def test_invertible_o_operator_matches_closures(n, unchecked):
    rng = random.Random(1300 + n)
    alg = _alg(_random_tables(rng, n, ("rtri", "ltri", "bracket")))
    pp_lists = [_dense(rng, (n, n, n)) for _ in range(5)]
    pp = PPRepSpec(*(_carriers(c, n, n) for c in pp_lists))
    while True:
        T = _dense(rng, (n, n))
        if _tensor(T, (n, n)).det():
            break
    Tinv = _tensor(T, (n, n)).inverse()
    Tinv = [list(row(Tinv, i)) for i in range(n)]
    conj = lambda mats, x, y: ref_apply(T, ref_apply(ref_combine(mats, x), ref_apply(Tinv, y)))
    l_rt, r_rt, l_lt, r_lt, rho = pp_lists
    out = invertible_o_to_compatible_pre_pp(alg, pp, _tensor(T, (n, n)))
    for op, mul in (("se", lambda x, y: conj(l_rt, x, y)), ("ne", lambda x, y: conj(r_rt, y, x)),
                    ("sw", lambda x, y: conj(l_lt, x, y)), ("nw", lambda x, y: conj(r_lt, y, x)),
                    ("dot", lambda x, y: conj(rho, x, y))):
        assert out.table(op) == _tensor(ref_table(n, mul), (n, n, n)), op
    assert out.basis == alg.basis


@pytest.mark.parametrize("n", (0, 1, 2, 3))
def test_pairing_form_matches_entry_formula(n):
    assert pairing_form(n) == Matrix((2 * n, 2 * n), [
        ONE if j == (i + n) % (2 * n) else ZERO for i in range(2 * n) for j in range(2 * n)])


def test_embed_places_a_block():
    rng = random.Random(1400)
    block = _nested(rng, (2, 3, 1))
    out = Tensor.blocks((3, 5, 2), [(_tensor(block, (2, 3, 1)), (1, 2, 1))])
    for idx in itertools.product(range(3), range(5), range(2)):
        inside = 1 <= idx[0] < 3 and 2 <= idx[1] < 5 and idx[2] == 1
        assert out[idx] == (block[idx[0] - 1][idx[1] - 2][0] if inside else ZERO)
    with pytest.raises(LinAlgError):
        Tensor.blocks((3, 5, 2), [(_tensor(block, (2, 3, 1)), (2, 0, 0))])
    with pytest.raises(LinAlgError):
        Tensor.blocks((3, 5), [(_tensor(block, (2, 3, 1)), (0, 0))])


def test_blocks_is_the_sum_of_its_embedded_blocks():
    rng = random.Random(1401)
    shape = (4, 5, 3)
    parts = [(_tensor(_nested(rng, (2, 3, 1)), (2, 3, 1)), (0, 0, 0)),
             (_tensor(_nested(rng, (2, 3, 2)), (2, 3, 2)), (0, 0, 1)),
             (_tensor(_nested(rng, (2, 5, 3)), (2, 5, 3)), (2, 0, 0))]
    want = Tensor.zero(*shape)
    for t, offset in parts:
        want = want + Tensor.blocks(shape, [(t, offset)])
    assert Tensor.blocks(shape, parts) == want
    with pytest.raises(LinAlgError):
        Tensor.blocks(shape, parts + [(parts[0][0], (1, 2, 0))])


@pytest.mark.parametrize("n", DIMS)
def test_contract_first_axis_at_basis_vector_is_the_slice(n):
    rng = random.Random(1500 + n)
    t = _tensor(_nested(rng, (n, n, n)), (n, n, n))
    m = _tensor(_nested(rng, (n, n)), (n, n))
    for i in range(n):
        e = Tensor((n,), basis_vec(n, i))
        slice_t = einsum("i,ijk->jk", e, t)
        assert slice_t == Tensor((n, n), [t[i, j, k] for j in range(n) for k in range(n)])
        assert einsum("i,ij->j", e, m).entries == row(m, i)
        # a multiple of e gives the same entries, scaled
        assert einsum("i,ijk->jk", e.scale(2), t) == slice_t.scale(Scalar(2))


def ref_form(B, x, y):
    return sum((x[i] * B[i][j] * y[j] for i in range(len(x)) for j in range(len(y))), ZERO)


def _invertible(rng, n):
    while True:
        m = _dense(rng, (n, n))
        if _tensor(m, (n, n)).det():
            return m


@pytest.mark.parametrize("n", DIMS)
def test_products_from_a_form_match_basis_closures(n, unchecked):
    """The right-hand sides B(x * y, z) of the gph splittings, once built by
    evaluating the form on every basis triple."""
    rng = random.Random(1600 + n)
    t = _random_tables(rng, n, ("circ", "bracket"))
    alg, B = _alg(t), _invertible(rng, n)
    Bm = _tensor(B, (n, n))
    o = lambda x, y: ref_mul(t["circ"], x, y)
    e = [basis_vec(n, i) for i in range(n)]

    def solved(rhs):
        """The table c with B(e_i * e_j, e_k) = rhs(e_i, e_j, e_k)."""
        inv = Bm.transpose().inverse()
        cols = [ref_apply([list(row(inv, a)) for a in range(n)], [rhs(x, y, z) for z in e])
                for x in e for y in e]
        return Tensor((n, n, n), [s for col in cols for s in col])

    split = compatible_pp_from_gph(alg, Bm)
    assert split.table("rtri") == solved(
        lambda x, y, z: -ref_form(B, y, vadd(o(x, z), vneg(o(z, x)))))
    assert split.table("ltri") == solved(lambda x, y, z: ref_form(B, x, o(z, y)))
    assert bullet_from_gph(alg, Bm).table("circ") == solved(
        lambda x, y, z: -ref_form(B, y, o(x, z)))


def ref_sandwich(m1, t2, m2):
    """(m1 (x) id + id (x) m2) t2 = m1 t2 + t2 m2^T on nested matrices."""
    n = len(t2)
    return [[sum((m1[i][a] * t2[a][j] + t2[i][a] * m2[j][a] for a in range(n)), ZERO)
             for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n", DIMS)
def test_cobrackets_match_per_basis_sandwiches(n):
    rng = random.Random(1700 + n)
    t = _random_tables(rng, n, ("rtri", "ltri", "bracket"))
    r = _dense(rng, (n, n))
    co = cobrackets_from_r(_alg(t), _tensor(r, (n, n)))
    minus_r = [[-a for a in row] for row in r]
    lrt, llt, ad = (ref_mults(t[op], True) for op in ("rtri", "ltri", "bracket"))
    rrt, rlt = (ref_mults(t[op], False) for op in ("rtri", "ltri"))
    comaps = {"delta_rtri": [], "delta_ltri": [], "Delta": []}
    for k in range(n):
        diamond = ref_lin((ONE, llt[k]), (ONE, lrt[k]), (-ONE, rlt[k]), (-ONE, rrt[k]))
        circ = ref_lin((ONE, lrt[k]), (ONE, llt[k]))
        bullet = ref_lin((ONE, lrt[k]), (-ONE, rlt[k]))
        comaps["delta_rtri"].append(ref_sandwich(lrt[k], r, diamond))
        comaps["delta_ltri"].append(ref_sandwich(circ, minus_r, bullet))
        comaps["Delta"].append(ref_sandwich(ad[k], r, ad[k]))
    for name, d in comaps.items():
        assert co.table(name) == _tensor(d, (n, n, n)), name


# ---------------------------------------------------------------------------
# the numerator representation against tuples of Scalars
#
# A Tensor holds one denominator and the nonzero Gaussian-integer
# numerators of its entries.  Every operation is compared here with the
# same operation on a (shape, tuple of Scalars) reference, on random
# tensors of orders 0 to 3 and extents 0 to 4 with zero, real, imaginary
# and mixed entries and parts beyond 2^64, and every result must be in
# canonical form.
# ---------------------------------------------------------------------------

BIG = 2 ** 64


def _wide_scalar(rng, density):
    if rng.random() >= density:
        return ZERO
    part = lambda: Fraction(rng.choice([rng.randint(-3, 3), rng.randint(-BIG * BIG, BIG * BIG)]),
                            rng.choice([1, 2, 3, 4, 6, BIG + 1, 3 ** 41]))
    kind = rng.randrange(3)
    return Scalar(part() if kind != 1 else 0, part() if kind != 0 else 0)


def _shape(rng, order=None):
    return tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 3) if order is None else order))


def _flat(shape, idx):
    f = 0
    for i, n in zip(idx, shape):
        f = f * n + i
    return f


def _indices(shape):
    return itertools.product(*(range(n) for n in shape))


def _ref(rng, shape, density=None):
    """A random (shape, entries) reference."""
    density = rng.choice([0.0, 0.2, 0.6, 1.0]) if density is None else density
    return shape, tuple(_wide_scalar(rng, density) for _ in range(len(list(_indices(shape)))))


def _same(t, ref):
    """t holds the reference's entries, in canonical form."""
    shape, entries = ref
    assert t.shape == shape and t.entries == entries
    size = len(entries)
    assert t.den > 0 and gcd(t.den, *t.re.values(), *t.im.values()) == 1
    assert all(v and 0 <= f < size for part in (t.re, t.im) for f, v in part.items())
    assert set(t.re) | set(t.im) == {f for f, s in enumerate(entries) if s}


def ref_permute(ref, axes):
    shape, entries = ref
    out = tuple(shape[a] for a in axes)
    values = []
    for idx in _indices(out):
        src = [0] * len(shape)
        for k, a in enumerate(axes):
            src[a] = idx[k]
        values.append(entries[_flat(shape, src)])
    return out, tuple(values)


def ref_blocks(shape, blocks):
    values = [ZERO] * len(list(_indices(shape)))
    for (inner, entries), offset in blocks:
        for idx, s in zip(_indices(inner), entries):
            values[_flat(shape, [i + o for i, o in zip(idx, offset)])] = s
    return shape, tuple(values)


def ref_contract(ref, axis, other):
    """other a (matrix shape, entries) reference or a vector."""
    shape, entries = ref
    if isinstance(other, tuple) and len(other) == 2 and isinstance(other[0], tuple):
        (p, s), m = other
        out = shape[:axis] + (p,) + shape[axis + 1:]
        weight = lambda idx: [(b, m[idx[axis] * s + b]) for b in range(s)]
    else:
        out = shape[:axis] + shape[axis + 1:]
        weight = lambda idx: list(enumerate(other))
    values = []
    for idx in _indices(out):
        total = ZERO
        for b, w in weight(idx if len(out) == len(shape) else idx[:axis] + (0,) + idx[axis:]):
            src = idx[:axis] + (b,) + idx[axis + (len(out) == len(shape)):]
            total = total + w * entries[_flat(shape, src)]
        values.append(total)
    return out, tuple(values)


@pytest.mark.parametrize("seed", range(12))
def test_tensor_ops_match_scalar_tuples(seed):
    rng = random.Random(1800 + seed)
    for _ in range(6):
        shape = _shape(rng)
        a, b = _ref(rng, shape), _ref(rng, shape)
        ta, tb = Tensor(*a), Tensor(*b)
        _same(ta, a)
        _same(ta + tb, (shape, tuple(x + y for x, y in zip(a[1], b[1]))))
        _same(ta - tb, (shape, tuple(x - y for x, y in zip(a[1], b[1]))))
        _same(ta - ta, (shape, (ZERO,) * len(a[1])))
        _same(-ta, (shape, tuple(-x for x in a[1])))
        for c in (_wide_scalar(rng, 1.0), ZERO, Scalar(3), Scalar(0, -1)):
            _same(ta.scale(c), (shape, tuple(c * x for x in a[1])))
        _same(ta.scale(-2), (shape, tuple(Scalar(-2) * x for x in a[1])))
        for axes in itertools.permutations(range(len(shape))):
            _same(ta.permute(axes), ref_permute(a, axes))
        for axis in range(len(shape)):
            p = rng.randint(0, 4)
            m = _ref(rng, (p, shape[axis]))
            v = _ref(rng, (shape[axis],))[1]
            labels = "abc"[:len(shape)]
            to_z = labels.replace(labels[axis], "z")
            _same(einsum("z%s,%s->%s" % (labels[axis], labels, to_z), Tensor(*m), ta),
                  ref_contract(a, axis, m))
            spec = "%s,%s->%s" % (labels[axis], labels, labels.replace(labels[axis], ""))
            _same(einsum(spec, Tensor((shape[axis],), v), ta), ref_contract(a, axis, v))
        assert ta.reshape(len(a[1])).entries == a[1]


@pytest.mark.parametrize("seed", range(6))
def test_blocks_embed_and_kron_match_scalar_tuples(seed):
    rng = random.Random(1900 + seed)
    for _ in range(6):
        order = rng.randint(0, 3)
        inner = _shape(rng, order)
        shape = tuple(n + rng.randint(0, 3) for n in inner)
        offset = tuple(rng.randint(0, m - n) for n, m in zip(inner, shape))
        block = _ref(rng, inner)
        _same(Tensor.blocks(shape, [(Tensor(*block), offset)]),
              ref_blocks(shape, [(block, offset)]))
        # two blocks side by side along the first axis
        if order:
            first = _ref(rng, (1,) + inner[1:])
            second = _ref(rng, (2,) + inner[1:])
            whole = (3,) + inner[1:]
            parts = [(first, (0,) * order), (second, (1,) + (0,) * (order - 1))]
            _same(Tensor.blocks(whole, [(Tensor(*r), o) for r, o in parts]),
                  ref_blocks(whole, parts))
        # the row-major Kronecker product u ox v -> au ox bv as einsum
        a, b = Tensor(*_ref(rng, _shape(rng, 2))), Tensor(*_ref(rng, _shape(rng, 2)))
        want = ref_kron(a, b)
        _same(einsum("ij,pq->ipjq", a, b).reshape(*want.shape), (want.shape, want.entries))


@pytest.mark.parametrize("seed", range(6))
def test_equal_values_are_equal_tensors_whatever_the_route(seed):
    rng = random.Random(2000 + seed)
    for _ in range(6):
        shape = _shape(rng)
        a = _ref(rng, shape)
        t = Tensor(*a)
        half = Scalar(Fraction(1, 2))
        routes = [Tensor(shape, list(a[1])), t + Tensor.zero(*shape), t.scale(2) - t,
                  t.scale(half) + t.scale(half), t.scale(Scalar(0, 1)).scale(Scalar(0, -1)),
                  -(-t), t.permute(tuple(range(len(shape))))]
        for other in routes:
            assert other == t and hash(other) == hash(t)
            _same(other, a)
        if a[1]:
            changed = list(a[1])
            changed[rng.randrange(len(changed))] += Scalar(Fraction(1, BIG + 1))
            assert Tensor(shape, changed) != t


def test_one_half_parsed_equals_two_quarters():
    half = Tensor((1, 2), [Scalar.parse("1/2"), Scalar.parse("-1/2i")])
    quarters = Tensor((1, 2), [Scalar.parse("1/4"), Scalar.parse("-1/4i")])
    assert quarters + quarters == half and hash(quarters + quarters) == hash(half)
    assert (half.den, half.re, half.im) == (2, {0: 1}, {1: -1})
    # 1/6 - 1/6 + 1/3 reduces to denominator 3, and a zero tensor to 1
    t = Tensor((2,), [Scalar(Fraction(1, 6)), Scalar(Fraction(1, 3))])
    assert (t - Tensor((2,), [Scalar(Fraction(1, 6)), 0])).den == 3
    assert (t - t).den == 1 and (t - t) == Tensor.zero(2) and (t - t).is_zero()


def test_a_tensor_hashes_its_entries_once(monkeypatch):
    # equal tensors built two ways hash equal; each builds the frozensets of
    # its entries on its first hash only
    built = []
    monkeypatch.setattr(linalg_mod, "frozenset",
                        lambda items: built.append(1) or frozenset(items), raising=False)
    a = _complex_ref((2, 3, 2))
    t, u = Tensor(*a), Tensor(*a).permute((1, 0, 2)).permute((1, 0, 2))
    assert t is not u and t == u
    assert hash(t) == hash(u) and len(built) == 4
    assert hash(t) == hash(u) and {t: 1}[u] == 1 and len(built) == 4
    assert hash(Tensor.zero(2)) == hash(Tensor((2,), [0, 0])) and len(built) == 8


# ---------------------------------------------------------------------------
# four axes, immutability and repr
# ---------------------------------------------------------------------------

def _complex_ref(shape):
    """A (shape, entries) reference with complex entries over denominators 2 and 3."""
    size = len(list(_indices(shape)))
    return shape, tuple(Scalar(Fraction(k % 5 - 2, 3), Fraction(k % 3 - 1, 2))
                        for k in range(size))


def test_four_axis_permute_and_einsum_match_entry_references():
    # four axes: offset tables over more axes than a structure table has
    a = _complex_ref((2, 3, 1, 2))
    t = Tensor(*a)
    assert t.den == 6 and t.im
    _same(t.permute((3, 1, 0, 2)), ref_permute(a, (3, 1, 0, 2)))
    _same(einsum("ijkl->ljik", t), ref_permute(a, (3, 1, 0, 2)))
    v = (Scalar(Fraction(1, 2)), Scalar(0, -1), Scalar(2, Fraction(1, 3)))
    outer = [x * y for x in a[1] for y in v]
    _same(einsum("ijkl,m->ijklm", t, Tensor((3,), v)), (a[0] + (3,), tuple(outer)))


@pytest.mark.parametrize("name, value", [("den", 2), ("shape", (4,)), ("extra", 1)])
def test_a_tensor_refuses_every_assignment(name, value):
    t = Tensor.identity(2)
    with pytest.raises(AttributeError, match="Tensor is immutable"):
        setattr(t, name, value)
    assert t == Tensor.identity(2) and not hasattr(t, "extra")


def test_repr_prints_rows_separated_by_semicolons():
    assert repr(Tensor((2, 2), [1, Scalar(Fraction(1, 2)), Scalar(0, 1), 0])) == (
        "Tensor(2x2: 1 1/2; i 0)")
    assert repr(Tensor((), [Scalar(0, Fraction(-3, 2))])) == "Tensor(: -3/2i)"
