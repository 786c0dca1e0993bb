"""Seeded exact input generators for the benchmark.

Every generator is a pure function of its arguments and of a
``random.Random`` built from the run seed, so one seed gives byte-identical
input files.  The program under test sees only the files written from these
documents (see ``exact.py`` for the document dicts).

* ``grow`` -- one step of ``semidirect_pp(A, dual_pp_rep(A, pp_adjoint_rep(A)))``,
  computed on tables (``derived.py``): A + A* with the dual of the adjoint
  representation.  From ``ahat_pp`` (dim 6) it gives valid sparse pp algebras
  of dim 12 and 24.
* ``gl_bracket`` -- gl_m (dim m^2) on the matrix units.
* ``matrix_pp`` -- the matrix algebra as a pp algebra with x <| y = xy.
* ``mutate_split`` -- one ``ltri`` entry moved so that the pp and the
  post-Lie checks must both fail.
* ``signed_permutation`` / ``dense_change`` -- changes of basis.  A signed
  permutation keeps a table's sparsity and entry sizes (``sweep``, ``corpus``);
  a fixed L*D*U over Z[i] followed by a signed permutation makes it dense
  with denominators (the dense chain of ``corpus``).

A change of basis is applied to every object living on the space, so every
identity, verdict and witness count is preserved: the checks are basis-free.
"""

from __future__ import annotations

import random

import derived
from derived import algebra
from exact import ONE, ZERO, Q, identity, inverse, matmul, transpose, zeros3

# small Gaussian integers used for random matrix entries and mutations
_ENTRIES = (Q(1), Q(-1), Q(0, 1), Q(0, -1), Q(1, 1), Q(2))
# the units of Z[i], and the pivots of the dense change of basis (cycled)
_UNITS = (Q(1), Q(-1), Q(0, 1), Q(0, -1))
_PIVOTS = (Q(2), Q(1, 1), Q(-1), Q(3), Q(0, 1), Q(1, -2))


def matrix_doc(kind, basis, rows) -> dict:
    return {"kind": kind, "field": "Q(i)", "dim": len(rows[0]), "basis": list(basis),
            "matrix": rows}


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------

def grow(pp: dict) -> dict:
    """A + A* along the dual of the adjoint pp representation."""
    n = pp["dim"]
    return derived.semidirect_pp_coadjoint(
        pp, names=list(pp["basis"]) + ["f%d" % (n + q + 1) for q in range(n)])


def gl_bracket(m: int) -> dict:
    """gl_m on E_ab (index a*m + b): [E_ab, E_cd] = d_bc E_ad - d_da E_cb."""
    n = m * m
    c = zeros3(n)
    for a in range(m):
        for b in range(m):
            for d in range(m):
                c[a * m + b][b * m + d][a * m + d] += ONE   # [E_ab, E_bd] = E_ad + ...
                c[a * m + b][d * m + a][d * m + b] -= ONE   # [E_ab, E_da] = -E_db + ...
    basis = ["E%d_%d" % (a + 1, b + 1) for a in range(m) for b in range(m)]
    return algebra(basis, {"bracket": c})


def matrix_pp(m: int) -> dict:
    """The m x m matrices (dim m^2) as a pp algebra: x <| y = xy, x |> y = 0
    and a zero bracket.  The identities reduce to associativity of <|; as <|
    is not antisymmetric, the vertical product differs from the horizontal
    one, unlike on the bundled fixtures."""
    n = m * m
    lt = zeros3(n)
    for a in range(m):
        for b in range(m):
            for d in range(m):
                lt[a * m + b][b * m + d][a * m + d] = ONE   # E_ab E_bd = E_ad
    basis = ["E%d_%d" % (a + 1, b + 1) for a in range(m) for b in range(m)]
    return algebra(basis, {"rtri": zeros3(n), "ltri": lt, "bracket": zeros3(n)})


def mutate_split(pp: dict, rng) -> tuple:
    """Copy of a valid pp algebra with one ltri entry moved; returns (mutant, where).

    The entry moved is ltri[i][j][k] with e_k not central, so identity pp.2a,
    [x, y <| z + z <| y] = 0, fails at (x, e_i, e_j) for any x with
    [x, e_k] != 0.  Draws are repeated until the post-Lie identities of the
    horizontal product also fail at a basis triple touching i, j or k, so
    both checks of the mutant must report witnesses.
    """
    n = pp["dim"]
    br = pp["ops"]["bracket"]
    noncentral = [k for k in range(n) if any(any(br[x][k]) for x in range(n))]
    while True:
        i, j, k = rng.randrange(n), rng.randrange(n), rng.choice(noncentral)
        table = [[list(row) for row in plane] for plane in pp["ops"]["ltri"]]
        table[i][j][k] = table[i][j][k] + rng.choice(_ENTRIES)
        mutant = algebra(pp["basis"], dict(pp["ops"], ltri=table))
        if _post_lie_fails_near(derived.horizontal(mutant), {i, j, k}):
            return mutant, "ltri[%d][%d][%d]" % (i + 1, j + 1, k + 1)


def _post_lie_fails_near(alg: dict, indices) -> bool:
    """Whether a post-Lie identity fails on a basis triple using one of indices."""
    n = alg["dim"]
    circ, br = alg["ops"]["circ"], alg["ops"]["bracket"]

    def mul(c, x, y):
        out = {}
        for i, xi in x.items():
            for j, yj in y.items():
                for k, v in enumerate(c[i][j]):
                    if v:
                        out[k] = out.get(k, ZERO) + xi * yj * v
        return {k: v for k, v in out.items() if v}

    def add(*vs):
        out = {}
        for v in vs:
            for k, x in v.items():
                out[k] = out.get(k, ZERO) + x
        return {k: v for k, v in out.items() if v}

    neg = lambda v: {k: -x for k, x in v.items()}
    e = [{i: ONE} for i in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if not indices & {a, b, c}:
                    continue
                x, y, z = e[a], e[b], e[c]
                first = add(mul(circ, x, mul(br, y, z)), neg(mul(br, mul(circ, x, y), z)),
                            neg(mul(br, y, mul(circ, x, z))))
                curly = add(mul(circ, x, y), neg(mul(circ, y, x)), mul(br, x, y))
                second = add(mul(circ, curly, z), neg(mul(circ, x, mul(circ, y, z))),
                             mul(circ, y, mul(circ, x, z)))
                if first or second:
                    return True
    return False


# ---------------------------------------------------------------------------
# changes of basis
# ---------------------------------------------------------------------------

class BasisChange:
    """The new basis vectors are the columns of g; ginv is its exact inverse."""

    def __init__(self, g, ginv):
        self.g, self.ginv = g, ginv
        n = self.dim = len(g)
        self._cols = [[(i, g[i][a]) for i in range(n) if g[i][a]] for a in range(n)]
        self._inv_rows = [[(k, x) for k, x in enumerate(ginv[c]) if x] for c in range(n)]

    def then(self, other: "BasisChange") -> "BasisChange":
        """This change followed by other, expressed in the new basis."""
        return BasisChange(matmul(self.g, other.g), matmul(other.ginv, self.ginv))

    def dual(self) -> "BasisChange":
        """The change induced on the dual basis of the dual space."""
        return BasisChange(transpose(self.ginv), transpose(self.g))

    @staticmethod
    def block(first: "BasisChange", second: "BasisChange") -> "BasisChange":
        return BasisChange(_block_diag(first.g, second.g), _block_diag(first.ginv, second.ginv))

    def table(self, c):
        """c'[a][b][e] = sum g[i][a] g[j][b] ginv[e][k] c[i][j][k]."""
        n, cols = self.dim, self._cols
        first = []
        for a in range(n):
            plane = [[ZERO] * n for _ in range(n)]
            for i, gi in cols[a]:
                for j, src in enumerate(c[i]):
                    row = plane[j]
                    for k, x in enumerate(src):
                        if x:
                            row[k] = row[k] + gi * x
            first.append(plane)
        out = []
        for a in range(n):
            plane = []
            for b in range(n):
                acc = [ZERO] * n
                for j, gj in cols[b]:
                    for k, x in enumerate(first[a][j]):
                        if x:
                            acc[k] = acc[k] + gj * x
                row = []
                for terms in self._inv_rows:
                    s = ZERO
                    for k, h in terms:
                        if acc[k]:
                            s = s + h * acc[k]
                    row.append(s)
                plane.append(row)
            out.append(plane)
        return out

    def algebra(self, alg: dict) -> dict:
        return algebra(alg["basis"], {name: self.table(t) for name, t in alg["ops"].items()})

    def form(self, b):
        return matmul(matmul(transpose(self.g), b), self.g)

    def endomorphism(self, t):
        return matmul(matmul(self.ginv, t), self.g)

    def tensor2(self, r):
        return matmul(matmul(self.ginv, r), transpose(self.ginv))

    def coalgebra(self, co: dict) -> dict:
        """A comultiplication d[k][i][j] is a product table on the dual space."""
        n, dual = co["dim"], self.dual()
        comaps = {}
        for name, d in co["comaps"].items():
            t = dual.table([[[d[k][i][j] for k in range(n)] for j in range(n)] for i in range(n)])
            comaps[name] = [[[t[i][j][k] for j in range(n)] for i in range(n)] for k in range(n)]
        return dict(co, comaps=comaps)

    def document(self, doc: dict) -> dict:
        kind = doc["kind"]
        if kind == "algebra":
            return dict(doc, ops=self.algebra(doc)["ops"])
        if kind == "coalgebra":
            return self.coalgebra(doc)
        convert = {"form": self.form, "map": self.endomorphism, "tensor2": self.tensor2}[kind]
        return dict(doc, matrix=convert(doc["matrix"]))


def _block_diag(a, b):
    n, m = len(a), len(b)
    return ([list(row) + [ZERO] * m for row in a]
            + [[ZERO] * n + list(row) for row in b])


def signed_permutation(rng, n: int) -> BasisChange:
    """Random permutation of the basis with random signs (inverse = transpose)."""
    perm = list(range(n))
    rng.shuffle(perm)
    g = [[ZERO] * n for _ in range(n)]
    for a, i in enumerate(perm):
        g[i][a] = ONE if rng.random() < 0.5 else -ONE
    return BasisChange(g, transpose(g))


def random_invertible(rng, n: int) -> BasisChange:
    """g = L * D * U: L, U unit-triangular with every off-diagonal entry a
    random unit of Z[i], D a shuffled fixed list of Gaussian-integer pivots,
    so g is dense and ginv has denominators."""
    lower, upper = identity(n), identity(n)
    for i in range(n):
        for j in range(i):
            lower[i][j] = rng.choice(_UNITS)
            upper[j][i] = rng.choice(_UNITS)
    pivots = [_PIVOTS[i % len(_PIVOTS)] for i in range(n)]
    rng.shuffle(pivots)
    diag = [[pivots[i] if i == j else ZERO for j in range(n)] for i in range(n)]
    g = matmul(matmul(lower, diag), upper)
    return BasisChange(g, inverse(g))


def dense_change(rng, n: int) -> BasisChange:
    """A dense change of basis whose cost does not depend on the seed.

    One fixed ``random_invertible`` matrix per dimension, then a seeded signed
    permutation of the new basis: the transformed tables differ between
    seeds only by that relabelling, so the bytes change and the work does not
    (entry sizes after a random L*D*U vary a lot from draw to draw)."""
    fixed = random_invertible(random.Random("dense-%d" % n), n)
    return fixed.then(signed_permutation(rng, n))


# ---------------------------------------------------------------------------
# the statistics recorded for every input
# ---------------------------------------------------------------------------

def stats(doc: dict) -> dict:
    """dim, nonzero share and largest denominator of a document's entries."""
    if doc["kind"] == "algebra":
        values = [x for t in doc["ops"].values() for plane in t for row in plane for x in row]
    elif doc["kind"] == "coalgebra":
        values = [x for t in doc["comaps"].values() for plane in t for row in plane for x in row]
    else:
        values = [x for row in doc["matrix"] for x in row]
    nonzero = [x for x in values if x]
    return {"dim": doc["dim"], "nonzero_share": round(len(nonzero) / max(len(values), 1), 4),
            "max_denominator": max((x.d for x in nonzero), default=1)}
