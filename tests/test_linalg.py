import itertools
import random
from fractions import Fraction

import pytest
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from postlie import (
    LinAlgError,
    Matrix,
    Scalar,
    SingularMatrixError,
    Tensor,
    einsum,
    sc,
)


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
        minor = Matrix.from_rows([
            [m[i, jj] for jj in range(n) if jj != j] for i in range(1, n)
        ])
        total = total + sign * m[0, j] * _cofactor_det(minor)
        sign = -sign
    return total


def test_solve_identity():
    rhs = Matrix.from_rows([[sc(1), sc(2)], [sc(3), sc("1/2")]])
    assert Matrix.identity(2).solve(rhs) == rhs


def test_solve_killing_form():
    kappa = Matrix.diagonal([sc(-2)] * 3)
    sol = kappa.solve(Matrix.identity(3))
    assert sol == Matrix.diagonal([sc("-1/2")] * 3)


def test_solve_singular():
    m = Matrix.from_rows([[sc(1), sc(2)], [sc(2), sc(4)]])
    with pytest.raises(SingularMatrixError):
        m.solve(Matrix.identity(2))
    assert m.rank() == 1


def test_det_examples():
    assert Matrix.identity(3).det() == sc(1)
    assert Matrix.zero(3, 3).det() == sc(0)
    kappa = Matrix.diagonal([sc(-2)] * 3)
    assert kappa.det() == sc(-8)
    assert kappa.det() == _cofactor_det(kappa)


def _random_matrix(rng, n):
    return Matrix.from_rows([
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
        picked = [list(m.row(i))[:cols] for i in range(rows)]
        if rows > 1 and rng.random() < 0.5:
            picked[-1] = [a + sc(2) * b for a, b in zip(picked[0], picked[1 % (rows - 1)])]
        m = Matrix.from_rows(picked)
        oracle = max([k for k in range(1, min(rows, cols) + 1)
                      for r in itertools.combinations(range(rows), k)
                      for c in itertools.combinations(range(cols), k)
                      if _cofactor_det(Matrix.from_rows([[m[i, j] for j in c] for i in r]))],
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
        assert m.inverse() * m == Matrix.identity(3)
        assert m * m.inverse() == Matrix.identity(3)


def test_shape_errors():
    with pytest.raises(LinAlgError):
        Matrix((2, 2), [sc(1)] * 3)
    with pytest.raises(LinAlgError):
        Matrix.from_rows([[sc(1), sc(2)], [sc(3)]])
    with pytest.raises(LinAlgError):
        Matrix.from_rows([[sc(1), sc(2)]]).det()
    with pytest.raises(LinAlgError):
        Matrix.identity(2).solve(Matrix.identity(3))
    with pytest.raises(LinAlgError):
        einsum("ij,j->i", Matrix.identity(2), Tensor((1,), [sc(1)]))


def test_apply_and_vectors():
    # a vector is an (n,) Tensor; a matrix acts on it by einsum
    m = Matrix.from_rows([[sc(0), sc(1)], [sc(1), sc(0)]])
    assert einsum("ij,j->i", m, Tensor((2,), [sc(2), sc(3)])) == Tensor((2,), [sc(3), sc(2)])
    assert Tensor((1,), [sc(1)]) + Tensor((1,), [sc(2)]) == Tensor((1,), [sc(3)])
    assert Tensor((1,), [sc(1)]) - Tensor((1,), [sc(2)]) == Tensor((1,), [sc(-1)])
    assert Tensor.sparse((3,), {1: sc(1)}).entries == (sc(0), sc(1), sc(0))


def test_transpose_dual():
    m = Matrix.from_rows([[sc(1), sc(2)], [sc(3), sc(4)]])
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
    return DomainMatrix([[QQ_I(QQ(s.a, s.d), QQ(s.b, s.d)) for s in m.row(i)]
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
    singular = Matrix.from_rows([m.row(0), m.row(1), m.row(0), m.row(3), m.row(4)])
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
