"""Dense exact linear algebra over Q(i).

Vectors are tuples of Scalar; matrices store their entries as a flat
row-major list.  Everything here is exact: solving and determinants use
rational Gaussian elimination and report singularity precisely.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, Scalar

__all__ = [
    "LinAlgError",
    "SingularMatrixError",
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
    return tuple(sum(v[k] for v in vs) for k in range(n))


def vsub(a, b) -> tuple:
    if len(a) != len(b):
        raise LinAlgError("vector length mismatch")
    return tuple(x - y for x, y in zip(a, b))


def vneg(a) -> tuple:
    return tuple(-x for x in a)


def vscale(c: Scalar, a) -> tuple:
    return tuple(c * x for x in a)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class Matrix:
    """rows x cols matrix of Scalar, entries in row-major order."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = [e if isinstance(e, Scalar) else Scalar(e) for e in entries]
        if len(entries) != rows * cols:
            raise LinAlgError(
                "expected %d entries for %dx%d, got %d"
                % (rows * cols, rows, cols, len(entries))
            )
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_rows(rows) -> "Matrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != m:
                raise LinAlgError("ragged rows")
        return Matrix(n, m, [e for r in rows for e in r])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    @staticmethod
    def zero(rows: int, cols: int | None = None) -> "Matrix":
        cols = rows if cols is None else cols
        return Matrix(rows, cols, [ZERO] * (rows * cols))

    @staticmethod
    def diagonal(values) -> "Matrix":
        values = list(values)
        n = len(values)
        m = Matrix.zero(n, n)
        for i, v in enumerate(values):
            m[i, i] = v if isinstance(v, Scalar) else Scalar(v)
        return m

    def copy(self) -> "Matrix":
        return Matrix(self.rows, self.cols, list(self.entries))

    # -- element access --------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def __setitem__(self, ij, value):
        i, j = ij
        self.entries[i * self.cols + j] = value if isinstance(value, Scalar) else Scalar(value)

    def row(self, i: int) -> tuple:
        return tuple(self.entries[i * self.cols : (i + 1) * self.cols])

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        self._same_shape(other)
        return Matrix(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix(self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return Matrix(self.rows, self.cols, [-a for a in self.entries])

    def scale(self, c: Scalar) -> "Matrix":
        return Matrix(self.rows, self.cols, [c * a for a in self.entries])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise LinAlgError("shape mismatch in product")
            out = Matrix.zero(self.rows, other.cols)
            for i in range(self.rows):
                for k in range(self.cols):
                    a = self[i, k]
                    if not a:
                        continue
                    for j in range(other.cols):
                        b = other[k, j]
                        if b:
                            out[i, j] = out[i, j] + a * b
            return out
        raise TypeError("matrix product expects a Matrix")

    def apply(self, v) -> tuple:
        """Matrix acting on a coordinate column."""
        if len(v) != self.cols:
            raise LinAlgError("vector length %d != cols %d" % (len(v), self.cols))
        out = [ZERO] * self.rows
        ent = self.entries
        cols = self.cols
        for j, vj in enumerate(v):
            if not vj:
                continue
            for i in range(self.rows):
                a = ent[i * cols + j]
                if a:
                    out[i] = out[i] + a * vj
        return tuple(out)

    def transpose(self) -> "Matrix":
        out = Matrix.zero(self.cols, self.rows)
        for i in range(self.rows):
            for j in range(self.cols):
                out[j, i] = self[i, j]
        return out

    def dual(self) -> "Matrix":
        """Negated transpose: the matrix of the dual action on V*."""
        return -self.transpose()

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.entries)))

    def is_zero(self) -> bool:
        return all(not e for e in self.entries)

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def is_antisymmetric(self) -> bool:
        return (self + self.transpose()).is_zero()

    def _same_shape(self, other):
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix")
        if self.rows != other.rows or self.cols != other.cols:
            raise LinAlgError("shape mismatch")

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return "Matrix(%dx%d: %s)" % (self.rows, self.cols, body)

    # -- elimination -----------------------------------------------------

    def det(self) -> Scalar:
        """Exact determinant by rational Gaussian elimination."""
        if self.rows != self.cols:
            raise LinAlgError("determinant of a non-square matrix")
        n = self.rows
        work = self.copy()
        det = ONE
        for col in range(n):
            pivot = None
            for r in range(col, n):
                if work[r, col]:
                    pivot = r
                    break
            if pivot is None:
                return ZERO
            if pivot != col:
                for j in range(n):
                    work[col, j], work[pivot, j] = work[pivot, j], work[col, j]
                det = -det
            p = work[col, col]
            det = det * p
            for r in range(col + 1, n):
                f = work[r, col] / p
                if not f:
                    continue
                for j in range(col, n):
                    work[r, j] = work[r, j] - f * work[col, j]
        return det

    def solve(self, rhs: "Matrix") -> "Matrix":
        """Solve self * X = rhs exactly; raises SingularMatrixError."""
        if self.rows != self.cols:
            raise LinAlgError("solve expects a square matrix")
        if rhs.rows != self.rows:
            raise LinAlgError("rhs has %d rows, expected %d" % (rhs.rows, self.rows))
        n = self.rows
        work = self.copy()
        out = rhs.copy()
        for col in range(n):
            pivot = None
            for r in range(col, n):
                if work[r, col]:
                    pivot = r
                    break
            if pivot is None:
                raise SingularMatrixError("matrix is singular (rank < %d)" % n)
            if pivot != col:
                for j in range(n):
                    work[col, j], work[pivot, j] = work[pivot, j], work[col, j]
                for j in range(out.cols):
                    out[col, j], out[pivot, j] = out[pivot, j], out[col, j]
            p = work[col, col]
            for r in range(n):
                if r == col:
                    continue
                f = work[r, col] / p
                if not f:
                    continue
                for j in range(col, n):
                    work[r, j] = work[r, j] - f * work[col, j]
                for j in range(out.cols):
                    out[r, j] = out[r, j] - f * out[col, j]
        for i in range(n):
            p = work[i, i]
            for j in range(out.cols):
                out[i, j] = out[i, j] / p
        return out

    def solve_vec(self, v) -> tuple:
        sol = self.solve(Matrix(len(v), 1, list(v)))
        return tuple(sol[i, 0] for i in range(sol.rows))

    def inverse(self) -> "Matrix":
        return self.solve(Matrix.identity(self.rows))

    def rank(self) -> int:
        work = self.copy()
        rank = 0
        for col in range(self.cols):
            pivot = None
            for r in range(rank, self.rows):
                if work[r, col]:
                    pivot = r
                    break
            if pivot is None:
                continue
            if pivot != rank:
                for j in range(self.cols):
                    work[rank, j], work[pivot, j] = work[pivot, j], work[rank, j]
            p = work[rank, col]
            for r in range(rank + 1, self.rows):
                f = work[r, col] / p
                if not f:
                    continue
                for j in range(col, self.cols):
                    work[r, j] = work[r, j] - f * work[rank, j]
            rank += 1
        return rank

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, row-major convention: (A kron B)(u ox v) = Au ox Bv."""
        out = Matrix.zero(self.rows * other.rows, self.cols * other.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                a = self[i, j]
                if not a:
                    continue
                for p in range(other.rows):
                    for q in range(other.cols):
                        b = other[p, q]
                        if b:
                            out[i * other.rows + p, j * other.cols + q] = a * b
        return out
