import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

import postlie.linalg as linalg
from postlie import (
    LinAlgError,
    Matrix,
    Scalar,
    SingularMatrixError,
    Tensor,
    check_pp_post_lie,
    check_pp_rep,
    einsum,
    pp_adjoint_rep,
    sc,
)
from vectors import from_rows, matmul, row, sparse


def _cofactor_det(m: Matrix) -> Scalar:
    """Independent determinant oracle by Laplace expansion."""
    n = m.rows
    if n == 0:
        return sc(1)
    if n == 1:
        return m[0, 0]
    total = sc(0)
    sign = sc(1)
    for j in range(n):
        minor = from_rows([
            [m[i, jj] for jj in range(n) if jj != j] for i in range(1, n)
        ])
        total = total + sign * m[0, j] * _cofactor_det(minor)
        sign = -sign
    return total


def test_solve_identity():
    rhs = from_rows([[sc(1), sc(2)], [sc(3), sc("1/2")]])
    assert Matrix.identity(2).solve(rhs) == rhs


def test_solve_killing_form():
    kappa = Matrix.identity(3).scale(-2)
    sol = kappa.solve(Matrix.identity(3))
    assert sol == Matrix.identity(3).scale(sc("-1/2"))


def test_solve_singular():
    m = from_rows([[sc(1), sc(2)], [sc(2), sc(4)]])
    with pytest.raises(SingularMatrixError):
        m.solve(Matrix.identity(2))
    assert m.rank() == 1


def test_det_examples():
    assert Matrix.identity(3).det() == sc(1)
    assert Matrix.zero(3, 3).det() == sc(0)
    kappa = Matrix.identity(3).scale(-2)
    assert kappa.det() == sc(-8)
    assert kappa.det() == _cofactor_det(kappa)


def _random_matrix(rng, n):
    return from_rows([
        [Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                Fraction(rng.randint(-1, 1))) for _ in range(n)]
        for _ in range(n)
    ])


def test_det_matches_cofactor_oracle_random():
    rng = random.Random(4)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 4))
        assert m.det() == _cofactor_det(m)


def test_rank_matches_minor_oracle_random():
    # rank = the size of the largest nonzero minor; rows are made dependent
    # by repeating combinations of earlier rows
    rng = random.Random(6)
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = _random_matrix(rng, max(rows, cols))
        picked = [list(row(m, i))[:cols] for i in range(rows)]
        if rows > 1 and rng.random() < 0.5:
            picked[-1] = [a + sc(2) * b for a, b in zip(picked[0], picked[1 % (rows - 1)])]
        m = from_rows(picked)
        oracle = max([k for k in range(1, min(rows, cols) + 1)
                      for r in itertools.combinations(range(rows), k)
                      for c in itertools.combinations(range(cols), k)
                      if _cofactor_det(from_rows([[m[i, j] for j in c] for i in r]))],
                     default=0)
        assert m.rank() == oracle


def test_inverse_property_random():
    rng = random.Random(5)
    found = 0
    while found < 20:
        m = _random_matrix(rng, 3)
        if not m.det():
            continue
        found += 1
        assert matmul(m.inverse(), m) == Matrix.identity(3)
        assert matmul(m, m.inverse()) == Matrix.identity(3)


def test_shape_errors():
    with pytest.raises(LinAlgError):
        Matrix((2, 2), [sc(1)] * 3)
    with pytest.raises(LinAlgError):
        from_rows([[sc(1), sc(2)], [sc(3)]])
    with pytest.raises(LinAlgError):
        from_rows([[sc(1), sc(2)]]).det()
    with pytest.raises(LinAlgError):
        Matrix.identity(2).solve(Matrix.identity(3))
    with pytest.raises(LinAlgError):
        einsum("ij,j->i", Matrix.identity(2), Tensor((1,), [sc(1)]))


def test_apply_and_vectors():
    # a vector is an (n,) Tensor; a matrix acts on it by einsum
    m = from_rows([[sc(0), sc(1)], [sc(1), sc(0)]])
    assert einsum("ij,j->i", m, Tensor((2,), [sc(2), sc(3)])) == Tensor((2,), [sc(3), sc(2)])
    assert Tensor((1,), [sc(1)]) + Tensor((1,), [sc(2)]) == Tensor((1,), [sc(3)])
    assert Tensor((1,), [sc(1)]) - Tensor((1,), [sc(2)]) == Tensor((1,), [sc(-1)])


def test_transpose_dual():
    m = from_rows([[sc(1), sc(2)], [sc(3), sc(4)]])
    assert m.transpose()[0, 1] == sc(3)


def test_zero_dim():
    m = Matrix.zero(0, 0)
    assert m.det() == sc(1)
    assert m.solve(Matrix.zero(0, 0)) == Matrix.zero(0, 0)


# ---------------------------------------------------------------------------
# elimination against sympy's DomainMatrix over QQ_I
# ---------------------------------------------------------------------------

def _gaussian_matrix(rng, rows, cols):
    """A random Gaussian-rational matrix, a third of them with numerators
    above 2^64 and some with one row a multiple of another."""
    big = rng.random() < 1 / 3
    num = lambda: rng.randint(-2 ** 70, 2 ** 70) if big else rng.randint(-3, 3)
    den = lambda: rng.randint(1, 2 ** 66) if big and rng.random() < 0.2 else rng.randint(1, 4)

    def entry():
        if rng.random() < 0.25:
            return sc(0)
        return Scalar(Fraction(num(), den()), Fraction(num(), den()) if rng.random() < 0.5 else 0)
    picked = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rng.random() < 0.3:
        i, j = rng.sample(range(rows), 2)
        c = entry()
        picked[i] = [c * x for x in picked[j]]
    return Tensor((rows, cols), [x for row in picked for x in row])


def _to_oracle(m: Matrix) -> DomainMatrix:
    return DomainMatrix([[QQ_I(QQ(s.a, s.d), QQ(s.b, s.d)) for s in row(m, i)]
                         for i in range(m.rows)], m.shape, QQ_I)


def _scalar(q) -> Scalar:
    return Scalar(Fraction(int(q.x.numerator), int(q.x.denominator)),
                  Fraction(int(q.y.numerator), int(q.y.denominator)))


def _from_oracle(dm: DomainMatrix) -> Matrix:
    return Tensor(dm.shape, [_scalar(q) for row in dm.to_list() for q in row])


def test_det_solve_inverse_match_sympy_oracle():
    rng = random.Random(10)
    singular = large = 0
    for _ in range(150):
        n = rng.randint(0, 8)
        m = _gaussian_matrix(rng, n, n)
        rhs = _gaussian_matrix(rng, n, rng.randint(1, n + 1))
        large += any(abs(v) > 2 ** 64 for v in m.re.values())
        oracle = _to_oracle(m)
        det = _scalar(oracle.det())
        assert m.det() == det
        assert m.rank() == oracle.rank()
        if not det:
            singular += 1
            with pytest.raises(SingularMatrixError):
                m.solve(rhs)
            with pytest.raises(SingularMatrixError):
                m.inverse()
            continue
        assert m.inverse() == (_from_oracle(oracle.inv()) if n else Matrix.zero(0, 0))
        assert m.solve(rhs) == (_from_oracle(oracle.lu_solve(_to_oracle(rhs))) if n else rhs)
    assert 20 < singular < 100 and large > 20


def test_rank_of_any_shape_matches_sympy_oracle():
    rng = random.Random(12)
    deficient = 0
    for _ in range(150):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        m = _gaussian_matrix(rng, rows, cols)
        rank = _to_oracle(m).rank()
        assert m.rank() == rank
        deficient += rank < min(rows, cols)
    assert deficient > 10


def test_elimination_builds_one_scalar_for_det_only(scalars_built):
    rng = random.Random(14)
    m = _gaussian_matrix(rng, 5, 5)
    while not m.det():
        m = _gaussian_matrix(rng, 5, 5)
    singular = from_rows([row(m, i) for i in (0, 1, 0, 3, 4)])
    rhs = _gaussian_matrix(rng, 5, 3)
    wide = _gaussian_matrix(rng, 3, 7)
    scalars_built.clear()
    m.rank(), singular.rank(), wide.rank(), m.solve(rhs), m.inverse()
    with pytest.raises(SingularMatrixError):
        singular.solve(rhs)
    assert scalars_built == []
    for a in (m, singular):
        a.det()
        assert len(scalars_built) == 1
        scalars_built.clear()


# ---------------------------------------------------------------------------
# the packed contraction of linalg._pair against its scalar loop
# ---------------------------------------------------------------------------

# shared labels, three operands, labels summed within one operand (so one
# group holds several entries at one output offset), and no shared label
PACK_SPECS = [
    ("ij,jk->ik", ((4, 3), (3, 5))),
    ("ijk,kl->ijl", ((2, 3, 3), (3, 4))),
    ("ij,jk,kl->il", ((3, 4), (4, 3), (3, 4))),
    ("ai,bj,abk->ijk", ((3, 3), (3, 3), (3, 3, 3))),
    ("ij,jk->k", ((3, 4), (4, 5))),
    ("ij,jkl->i", ((4, 3), (3, 2, 3))),
    ("ij,kl->ikjl", ((2, 3), (3, 2))),
]
# numerator sizes per operand: small; about 2^31 and 2^32, whose products
# reach the 2^63 slot bound; above 2^64, whose bound is never proved
MAGNITUDES = [(1, 2, 3), (1, 2 ** 31 - 1, 2 ** 31, 2 ** 32 - 1, 2 ** 32), (2 ** 64 + 1, 2 ** 70 + 3)]


@st.composite
def _pack_operand(draw, shape):
    numerator = st.builds(int.__mul__, st.sampled_from([1, -1]),
                          st.sampled_from(draw(st.sampled_from(MAGNITUDES))))
    if draw(st.booleans()):     # sparse
        numerator = st.one_of(st.just(0), st.just(0), numerator)
    imaginary = numerator if draw(st.booleans()) else st.just(0)
    den = st.sampled_from([1, 1, 2, 6] + [2 ** 65 + 1] * draw(st.booleans()))
    return Tensor(shape, [Scalar(Fraction(draw(numerator), draw(den)),
                                 Fraction(draw(imaginary), draw(den)))
                          for _ in range(math.prod(shape))])


@st.composite
def _pack_terms(draw):
    """One or two (spec, operands, coef) terms of one spec, coef nonzero
    and possibly negative, so _pair runs with a negative scale."""
    spec, shapes = draw(st.sampled_from(PACK_SPECS))
    return [(spec, [draw(_pack_operand(shape)) for shape in shapes],
             draw(st.sampled_from([1, -1, 2, -3])))
            for _ in range(draw(st.integers(1, 2)))]


@st.composite
def _saturated_terms(draw):
    """One term of two dense real operands, each one value repeated, so
    that every slot holds exactly the slot bound: just below 2^63 (packed)
    or at or above it (the scalar loop)."""
    spec, shapes = draw(st.sampled_from([s for s in PACK_SPECS if s[0].count(",") == 1]))
    inputs, output = spec.split("->")
    extents = dict(zip(inputs.replace(",", ""), (n for shape in shapes for n in shape)))
    summed = 1
    for label, n in extents.items():
        summed *= 1 if label in output else n
    v = draw(st.sampled_from([1, 3, 2 ** 31 - 1, 2 ** 31]))
    w = (2 ** 63 - 1) // (summed * v) + draw(st.integers(0, 1))
    operands = [Tensor(shapes[0], [v] * math.prod(shapes[0])),
                Tensor(shapes[1], [w * draw(st.sampled_from([1, -1]))] * math.prod(shapes[1]))]
    return [(spec, operands, draw(st.sampled_from([1, -1])))]


def _contract(terms, mp, packed):
    """The sum of the terms with the packed path forced on (every _pair
    takes it when the slot bound is proved) or off."""
    if packed:
        mp.setattr(linalg, "_LEFT_FILL", 0)
        mp.setattr(linalg, "_RIGHT_FILL", 0)
    else:
        mp.setattr(linalg, "_packed", lambda *args: False)
    return linalg._make(*linalg._combine(terms))


def _packed_calls(mp) -> list:
    """The (operands a and b, shared key count, result) of every _packed call."""
    calls, packed = [], linalg._packed

    def spy(a, side, rights, b, *rest):
        done = packed(a, side, rights, b, *rest)
        keys = {side[0][f] for f in a[0].keys() | a[1].keys()}
        calls.append((a, b, len(keys & (rights[0].keys() | rights[1].keys())), done))
        return done
    mp.setattr(linalg, "_packed", spy)
    return calls


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(_pack_terms(), _saturated_terms()))
def test_packed_contraction_matches_the_scalar_loop(terms):
    with pytest.MonkeyPatch.context() as mp:
        want = _contract(terms, mp, packed=False)
    with pytest.MonkeyPatch.context() as mp:
        calls = _packed_calls(mp)
        assert _contract(terms, mp, packed=True) == want
    for a, b, shared, done in calls:
        # a numerator of 2^63 or more makes the bound at least 2^63
        biggest = [max(map(abs, (*x[0].values(), *x[1].values())), default=0) for x in (a, b)]
        if shared and min(biggest) and max(biggest) >= 2 ** 63:
            assert not done


# 2^63 - 1 = 153092023 * 60247241209 and 2^62 - 1 = 2147483647 * 2147483649
@pytest.mark.parametrize("v, w, imaginary, packs", [
    (153092023, 60247241209, False, True),      # bound 2^63 - 1
    (2 ** 31, 2 ** 32, False, False),           # bound 2^63
    (2147483647, 2147483649, True, True),       # bound 2 * (2^62 - 1)
    (2 ** 31, 2 ** 31, True, False),            # bound 2 * 2^62
])
def test_packing_stops_exactly_at_the_slot_bound(monkeypatch, v, w, imaginary, packs):
    # one shared key, full groups: the bound is (2 if complex) * v * w, and
    # the slot of a[0] * b[0] holds exactly that much
    left = [Scalar(v, v if imaginary else 0), -v] + list(range(1, 7))
    right = [Scalar(w, -w if imaginary else 0), -w] + list(range(1, 15))
    a, b = Tensor((8, 1), left), Tensor((1, 16), right)
    calls = _packed_calls(monkeypatch)
    got = einsum("ij,jk->ik", a, b)
    assert [done for *_, done in calls] == [packs]
    assert got[0, 0] == Scalar(2 * v * w if imaginary else v * w)
    monkeypatch.setattr(linalg, "_packed", lambda *args: False)
    assert got == einsum("ij,jk->ik", a, b)


# A packed pair's rows are placed by one gather into a whole-output list:
# the intermediate of a chain, a sum whose other term runs the scalar loop
# and blocks with empty rows or slots must land where the scalar loop puts
# them.

@st.composite
def _full_operand(draw, shape, holes=None, imaginary=None):
    """A tensor of small numerators over a drawn denominator, every real
    part positive and the imaginary parts all zero or all nonzero (drawn
    unless imaginary is given); with holes an axis, the entries at a drawn
    set of its indices are zero.  The values come from a drawn seed."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if imaginary is None:
        imaginary = draw(st.booleans())
    den = draw(st.sampled_from([1, 2, 6]))
    empty = set() if holes is None else draw(st.sets(st.integers(0, shape[holes] - 1),
                                                     max_size=shape[holes] - 1))
    return Tensor(shape, [0 if holes is not None and index[holes] in empty else
                          Scalar(Fraction(rng.randint(1, 3), den),
                                 Fraction(rng.choice((-3, -2, -1, 1, 2, 3)) if imaginary else 0,
                                          den))
                          for index in itertools.product(*map(range, shape))])


def _unpacked(terms):
    """The sum of the terms with the packed path off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_packed", lambda *args: False)
        return linalg._make(*linalg._combine(terms))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_a_packed_intermediate_matches_the_scalar_loop(data):
    # the first two operands contract first (a tie goes to the first pair)
    # to a 16 x 16 intermediate whose real parts are sums of positive
    # products, so both pairs are full at the packing fill
    a = data.draw(_full_operand((16, 2), imaginary=False))
    b, c = data.draw(_full_operand((2, 16))), data.draw(_full_operand((16, 16)))
    terms = [("ij,jk,kl->il", [a, b, c], data.draw(st.sampled_from([1, -2])))]
    with pytest.MonkeyPatch.context() as mp:
        calls = _packed_calls(mp)
        got = linalg._make(*linalg._combine(terms))
    # an operand is its (re, im) dicts: an input's are its Tensor's own
    inputs = [t.re for t in (a, b, c)]
    is_input = lambda operand: any(operand[0] is re for re in inputs)
    assert [(is_input(left), is_input(right), done) for left, right, _, done in calls] == [
        (True, True, True), (True, False, True)]
    assert got == _unpacked(terms)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_a_packed_and_a_scalar_term_sum_into_one_output(data):
    # the full term packs into the whole-output list, the one with at most
    # 7 left entries (below the fill of 8 per key) runs the scalar loop into
    # the dicts, and the two are merged once
    value = st.builds(Scalar, st.integers(-3, 3), st.integers(-3, 3))
    entries = data.draw(st.dictionaries(st.integers(0, 23), value, max_size=7))
    few = Tensor((8, 3), [entries.get(f, 0) for f in range(24)])
    terms = [("ij,jk->ki", [data.draw(_full_operand(shape)) for shape in ((8, 2), (2, 16))], 1),
             ("ij,jk->ki", [few, data.draw(_full_operand((3, 16)))],
              data.draw(st.sampled_from([1, -3])))]
    with pytest.MonkeyPatch.context() as mp:
        calls = _packed_calls(mp)
        real = linalg._real
        scalar = []
        mp.setattr(linalg, "_real", lambda *args: scalar.append(args) or real(*args))
        got = linalg._make(*linalg._combine(terms))
    assert calls[0][-1] is True and len(calls) == 1
    assert scalar or few.is_zero()
    assert got == _unpacked(terms)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_packed_blocks_with_empty_rows_or_slots_match_the_scalar_loop(data):
    # zero rows of the left operand leave rows out of the block and zero
    # columns of the right one leave slots out, so the gather reads its 0
    # there; the output axes run in either order
    spec = data.draw(st.sampled_from(["ij,jk->ik", "ij,jk->ki", "aij,jk->kai"]))
    left = (3, 4, 2) if spec.startswith("a") else (4, 2)
    terms = [(spec, [data.draw(_full_operand(left, holes=len(left) - 2)),
                     data.draw(_full_operand((2, 5), holes=1))],
              data.draw(st.sampled_from([1, -1, 2])))]
    with pytest.MonkeyPatch.context() as mp:
        calls = _packed_calls(mp)
        got = _contract(terms, mp, packed=True)
    assert [done for *_, done in calls] == [True]
    assert got == _unpacked(terms)


# matrix-product specs, each with its reference on vectors.matmul: the
# transposes read the operands through other offset tables, and the chain
# contracts an intermediate
PART_SPECS = {
    "ij,jk->ik": lambda a, b: matmul(a, b),
    "ji,jk->ik": lambda a, b: matmul(a.transpose(), b),
    "ij,kj->ik": lambda a, b: matmul(a, b.transpose()),
    "ij,jk,kl->il": lambda a, b, c: matmul(matmul(a, b), c),
}


@st.composite
def _part_operand(draw, shape):
    """A sparse tensor whose entries are all real, all imaginary, or each
    real, imaginary or both, over a drawn denominator."""
    kinds = {"real": [(1, 0)], "imaginary": [(0, 1)], "mixed": [(1, 0), (0, 1), (1, 1)]}
    kind = kinds[draw(st.sampled_from(sorted(kinds)))]
    value = st.integers(-4, 4)
    den = draw(st.sampled_from([1, 2, 3]))
    entries = []
    for _ in range(math.prod(shape)):
        if draw(st.integers(0, 2)):     # a third of the entries nonzero
            entries.append(0)
            continue
        x, y = draw(st.sampled_from(kind))
        entries.append(Scalar(Fraction(x * draw(value), den), Fraction(y * draw(value), den)))
    return Tensor(shape, entries)


@st.composite
def _part_terms(draw):
    """One to three (spec, operands, coef) terms of matrix products of one
    output shape, operands drawn by _part_operand."""
    n = [draw(st.integers(1, 4)) for _ in range(4)]
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        spec = draw(st.sampled_from(sorted(PART_SPECS)))
        shapes = {"ij,jk->ik": [(n[0], n[1]), (n[1], n[3])],
                  "ji,jk->ik": [(n[1], n[0]), (n[1], n[3])],
                  "ij,kj->ik": [(n[0], n[1]), (n[3], n[1])],
                  "ij,jk,kl->il": [(n[0], n[1]), (n[1], n[2]), (n[2], n[3])]}[spec]
        terms.append((spec, [draw(_part_operand(shape)) for shape in shapes],
                      draw(st.sampled_from([1, -1, 2, -3]))))
    return terms


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_part_terms(), st.booleans())
def test_contraction_by_parts_matches_the_entry_reference(terms, packed):
    # a Gaussian-integer product is at most four real ones of nonzero
    # parts, whichever parts the operands have, on the scalar and the
    # packed path alike
    want = None
    for spec, operands, coef in terms:
        ref = PART_SPECS[spec](*operands).scale(coef)
        want = ref if want is None else want + ref
    with pytest.MonkeyPatch.context() as mp:
        assert _contract(terms, mp, packed) == want


def test_a_dense_change_of_basis_keeps_every_verdict(ahat_pp, dense_ahat_pp, monkeypatch):
    # a fixed dense change of basis over Q(i), with denominators
    n, dense = ahat_pp.dim, dense_ahat_pp
    assert all(5 * len(t.re) > 4 * n ** 3 for t in dense.ops.values())
    calls = _packed_calls(monkeypatch)
    for check in (check_pp_post_lie, lambda alg: check_pp_rep(alg, pp_adjoint_rep(alg))):
        want, got = check(ahat_pp), check(dense)
        assert want.passed and got.passed
        assert got.checked == want.checked
    assert any(done for *_, done in calls)
    rtri = dense.table("rtri")
    broken = dense.with_op("rtri", rtri + sparse(rtri.shape, {0: 1}))
    assert not check_pp_post_lie(broken).passed
