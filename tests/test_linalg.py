import itertools
import random
from fractions import Fraction

import pytest


from postlie import (
    LinAlgError,
    Matrix,
    Scalar,
    SingularMatrixError,
    basis_vec,
    sc,
    vadd,
    vsub,
)
from postlie.linalg import vec


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


def test_vadd_folds_from_the_first_vector(monkeypatch):
    # each coordinate starts from the first vector's entry, not from the int 0
    add = Scalar.__radd__

    def radd(self, other):
        if isinstance(other, int):
            raise AssertionError("%r + %r" % (other, self))
        return add(self, other)
    monkeypatch.setattr(Scalar, "__radd__", radd)
    a, b, c = vec(1, sc(0, 2), sc("1/2")), vec(3, 4, 5), vec(sc(1, 1), 0, -1)
    assert vadd(a, b, c) == (sc(5, 1), sc(4, 2), sc("9/2"))
    assert vadd(a) == a
    assert vadd((), ()) == ()


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
        Matrix.identity(2).apply((sc(1),))


def test_apply_and_vectors():
    m = Matrix.from_rows([[sc(0), sc(1)], [sc(1), sc(0)]])
    assert m.apply((sc(2), sc(3))) == (sc(3), sc(2))
    assert vadd((sc(1),), (sc(2),)) == (sc(3),)
    assert vsub((sc(1),), (sc(2),)) == (sc(-1),)
    assert basis_vec(3, 1) == (sc(0), sc(1), sc(0))


def test_transpose_dual():
    m = Matrix.from_rows([[sc(1), sc(2)], [sc(3), sc(4)]])
    assert m.transpose()[0, 1] == sc(3)


def test_kron_row_major_convention():
    rng = random.Random(6)
    a = _random_matrix(rng, 2)
    b = _random_matrix(rng, 2)
    u = (sc(1), sc(2))
    v = (sc(3), sc("1/2"))
    uv = tuple(x * y for x in u for y in v)  # row-major u (x) v
    lhs = a.kron(b).apply(uv)
    au = a.apply(u)
    bv = b.apply(v)
    rhs = tuple(x * y for x in au for y in bv)
    assert lhs == rhs


def test_zero_dim():
    m = Matrix.zero(0, 0)
    assert m.det() == sc(1)
    assert m.solve(Matrix.zero(0, 0)) == Matrix.zero(0, 0)
