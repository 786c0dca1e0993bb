"""Closed forms of the ``postlie derive`` constructions, on tables.

The benchmark checks every derived document against the table it computes
here from the op's input files, with its own Q(i) arithmetic (``exact.py``),
so a construction that returns a wrong table is caught even when that table
still satisfies the identities the program re-checks before writing it.

Tables and documents are the dicts of ``exact.py``.  A representation of an
n-dimensional algebra on an m-dimensional space is a dict of *actions*; an
action is a list of n m-by-m matrices, ``act[i][k][q]`` being component k
of e_i acting on v_q.
"""

from __future__ import annotations

from exact import ONE, ZERO, zeros3

# the left and right actions that enter each product of a semidirect or
# matched-pair sum; the bracket always uses rho, antisymmetrically
PP = {"rtri": ("l_rt", "r_rt"), "ltri": ("l_lt", "r_lt"), "bracket": ("rho", None)}
POST_LIE = {"circ": ("l", "r"), "bracket": ("rho", None)}

# comultiplication names of the document format and the products they dualize
COMAP_TO_OP = {"delta_rtri": "rtri", "delta_ltri": "ltri", "Delta": "bracket"}


def algebra(basis, ops) -> dict:
    return {"kind": "algebra", "field": "Q(i)", "dim": len(basis), "basis": list(basis),
            "ops": ops}


def _table(n, entry):
    return [[[entry(i, j, k) for k in range(n)] for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# products of one algebra
# ---------------------------------------------------------------------------

def horizontal(pp: dict) -> dict:
    """x o y = x |> y + x <| y over the same bracket."""
    rt, lt = pp["ops"]["rtri"], pp["ops"]["ltri"]
    circ = _table(pp["dim"], lambda i, j, k: rt[i][j][k] + lt[i][j][k])
    return algebra(pp["basis"], {"circ": circ, "bracket": pp["ops"]["bracket"]})


def vertical_table(pp: dict):
    """x . y = x |> y - y <| x."""
    rt, lt = pp["ops"]["rtri"], pp["ops"]["ltri"]
    return _table(pp["dim"], lambda i, j, k: rt[i][j][k] - lt[j][i][k])


def vertical(pp: dict) -> dict:
    return algebra(pp["basis"], {"circ": vertical_table(pp), "bracket": pp["ops"]["bracket"]})


def transpose_pp(pp: dict) -> dict:
    """x |> y and -(y <| x) over the same bracket."""
    lt = pp["ops"]["ltri"]
    return algebra(pp["basis"], dict(pp["ops"], ltri=_table(pp["dim"],
                                                            lambda i, j, k: -lt[j][i][k])))


def opposite(post_lie: dict) -> dict:
    """x * y = x o y + [x, y] over the opposite bracket."""
    circ, br = post_lie["ops"]["circ"], post_lie["ops"]["bracket"]
    n = post_lie["dim"]
    return algebra(post_lie["basis"], {
        "circ": _table(n, lambda i, j, k: circ[i][j][k] + br[i][j][k]),
        "bracket": _table(n, lambda i, j, k: br[j][i][k])})


def sub_adjacent(alg: dict) -> dict:
    """The Lie algebra {x, y} = x o y - y o x + [x, y] of a post-Lie algebra,
    or the pp algebra (se + ne, sw + nw, dot - dot^op) of a quarter splitting."""
    ops, n = alg["ops"], alg["dim"]
    if "dot" in ops:
        se, ne, sw, nw, dot = (ops[k] for k in ("se", "ne", "sw", "nw", "dot"))
        return algebra(alg["basis"], {
            "rtri": _table(n, lambda i, j, k: se[i][j][k] + ne[i][j][k]),
            "ltri": _table(n, lambda i, j, k: sw[i][j][k] + nw[i][j][k]),
            "bracket": _table(n, lambda i, j, k: dot[i][j][k] - dot[j][i][k])})
    circ, br = ops["circ"], ops["bracket"]
    return algebra(alg["basis"], {"bracket": _table(
        n, lambda i, j, k: circ[i][j][k] - circ[j][i][k] + br[i][j][k])})


def dualize(doc: dict) -> dict:
    """An algebra's products as comultiplications of the dual, d[k][i][j] =
    c[i][j][k], or the converse."""
    n = doc["dim"]
    if doc["kind"] == "algebra":
        names = {op: comap for comap, op in COMAP_TO_OP.items()}
        comaps = {names[op]: _table(n, lambda k, i, j, c=c: c[i][j][k])
                  for op, c in doc["ops"].items() if op in names}
        return {"kind": "coalgebra", "field": doc["field"], "dim": n, "basis": doc["basis"],
                "comaps": comaps}
    ops = {COMAP_TO_OP[name]: _table(n, lambda i, j, k, d=d: d[k][i][j])
           for name, d in doc["comaps"].items()}
    return algebra(doc["basis"], ops)


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

def left(c):
    """Left multiplications: act[i][k][q] = c[i][q][k]."""
    n = len(c)
    return [[[c[i][q][k] for q in range(n)] for k in range(n)] for i in range(n)]


def right(c):
    """Right multiplications: act[i][k][q] = c[q][i][k]."""
    n = len(c)
    return [[[c[q][i][k] for q in range(n)] for k in range(n)] for i in range(n)]


def dual(act):
    """The action on the dual space: every matrix M to -M^T."""
    return [[[-m[q][k] for q in range(len(m))] for k in range(len(m))] for m in act]


def combine(*terms):
    """sum of sign * act over the (sign, act) terms."""
    out = [[[ZERO] * len(row) for row in m] for m in terms[0][1]]
    for sign, act in terms:
        for o, m in zip(out, act):
            for orow, mrow in zip(o, m):
                for k, x in enumerate(mrow):
                    if x:
                        orow[k] = orow[k] + x if sign > 0 else orow[k] - x
    return out


def adjoint_rep(post_lie: dict) -> dict:
    """(A; L_o, R_o, ad)."""
    circ, br = post_lie["ops"]["circ"], post_lie["ops"]["bracket"]
    return {"l": left(circ), "r": right(circ), "rho": left(br)}


def pp_adjoint_rep(pp: dict) -> dict:
    """(A; L_rt, R_rt, L_lt, R_lt, ad)."""
    rt, lt, br = (pp["ops"][k] for k in ("rtri", "ltri", "bracket"))
    return {"l_rt": left(rt), "r_rt": right(rt), "l_lt": left(lt), "r_lt": right(lt),
            "rho": left(br)}


def dual_pp_rep(rep: dict) -> dict:
    """(V*; l_rt* - r_rt* + l_lt* - r_lt*, r_rt*, r_rt* - l_lt*, -(r_rt* + r_lt*), rho*)."""
    a, b, c, d = (dual(rep[k]) for k in ("l_rt", "r_rt", "l_lt", "r_lt"))
    return {"l_rt": combine((1, a), (-1, b), (1, c), (-1, d)), "r_rt": b,
            "l_lt": combine((1, b), (-1, c)), "r_lt": combine((-1, b), (-1, d)),
            "rho": dual(rep["rho"])}


def split_dual_rep(pp: dict) -> dict:
    """(A*; L_rt* - R_lt*, -R_lt*, ad*), a representation of the horizontal product."""
    rlt = dual(right(pp["ops"]["ltri"]))
    return {"l": combine((1, dual(left(pp["ops"]["rtri"]))), (-1, rlt)),
            "r": combine((-1, rlt)), "rho": dual(left(pp["ops"]["bracket"]))}


def quarter_rep(quarter: dict) -> dict:
    """(A; L_se, R_ne, L_sw, R_nw, L_dot) of a quarter splitting."""
    se, ne, sw, nw, dot = (quarter["ops"][k] for k in ("se", "ne", "sw", "nw", "dot"))
    return {"l_rt": left(se), "r_rt": right(ne), "l_lt": left(sw), "r_lt": right(nw),
            "rho": left(dot)}


# ---------------------------------------------------------------------------
# sums of two spaces
# ---------------------------------------------------------------------------

def matched_sum(a: dict, on_b: dict, actions, b: dict = None, on_a: dict = None,
                names=None) -> dict:
    """Products on A + B:

        (x,u) op (y,v) = (x op y + l(u) y + r(v) x,  u op v + l(x) v + r(y) u),

    with rho in place of (l, r) for the bracket, antisymmetrically.  on_b is
    the action of A on B, on_a that of B on A; without b and on_a, B is an
    abelian ideal and this is the semidirect product."""
    n, m = a["dim"], len(on_b["rho"][0])
    ops = {}
    for name, (l, r) in actions.items():
        t = zeros3(n + m)
        for i in range(n):
            for j in range(n):
                t[i][j][:n] = a["ops"][name][i][j]
        if b is not None:
            for p in range(m):
                for q in range(m):
                    t[n + p][n + q][n:] = b["ops"][name][p][q]
        _act(t, on_b, l, r, 0, n)
        if on_a is not None:
            _act(t, on_a, l, r, n, 0)
        ops[name] = t
    basis = names or list(a["basis"]) + ["v%d" % (q + 1) for q in range(m)]
    return algebra(basis, ops)


def _act(t, rep, l, r, src, dst):
    """Add e_(src+i) acting on e_(dst+q) from the left at t[src+i][dst+q] and
    from the right at t[dst+q][src+i]."""
    lact = rep[l]
    ract = rep[r] if r else combine((-1, lact))
    for i, (lm, rm) in enumerate(zip(lact, ract)):
        for k in range(len(lm)):
            for q in range(len(lm)):
                if lm[k][q]:
                    cell = t[src + i][dst + q]
                    cell[dst + k] = cell[dst + k] + lm[k][q]
                if rm[k][q]:
                    cell = t[dst + q][src + i]
                    cell[dst + k] = cell[dst + k] + rm[k][q]


def pairing_form(n: int):
    """<x, b*> + <y, a*> on A + A*."""
    return [[ONE if j == (i + n) % (2 * n) else ZERO for j in range(2 * n)]
            for i in range(2 * n)]


def semidirect_pp_coadjoint(pp: dict, names=None) -> dict:
    """A + A* along the dual of the adjoint pp representation."""
    return matched_sum(pp, dual_pp_rep(pp_adjoint_rep(pp)), PP, names=names)


def double(pp: dict) -> dict:
    """The horizontal product of A plus A* along the split-dual representation."""
    return matched_sum(horizontal(pp), split_dual_rep(pp), POST_LIE)


def bowtie(a_pp: dict, b_pp: dict) -> dict:
    """The horizontal products of A and B with each acting on the other by its
    split-dual representation (the standard Manin triple of the two)."""
    return matched_sum(horizontal(a_pp), split_dual_rep(a_pp), POST_LIE,
                       b=horizontal(b_pp), on_a=split_dual_rep(b_pp))


def embed_r(quarter: dict, t) -> tuple:
    """(Ahat, r) of `derive embed-r --rep quarter`: the pp algebra under the
    quarter splitting plus V* along the dual of the quarter representation,
    and r[n+j][i] = T[i][j] = -r[i][n+j]."""
    ahat = matched_sum(sub_adjacent(quarter), dual_pp_rep(quarter_rep(quarter)), PP)
    n, m = len(t), len(t[0])
    r = [[ZERO] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(m):
            r[n + j][i], r[i][n + j] = t[i][j], -t[i][j]
    return ahat, r


def pre_pp_from_o(pp: dict, t) -> dict:
    """Quarter splitting on V from an O-operator T: V -> A of the adjoint
    representation: u se v = l_rt(Tu) v, u ne v = r_rt(Tv) u, and likewise
    sw, nw with l_lt, r_lt, and u dot v = rho(Tu) v."""
    rep = pp_adjoint_rep(pp)
    m = len(t[0])

    def product(action, on_left):
        act = rep[action]
        out = zeros3(m)
        for i in range(m):
            for j in range(m):
                src, dst = (i, j) if on_left else (j, i)
                for a, row in enumerate(t):
                    if row[src]:
                        out[i][j] = [s + row[src] * act[a][k][dst] for k, s in enumerate(out[i][j])]
        return out

    ops = {"se": product("l_rt", True), "ne": product("r_rt", False),
           "sw": product("l_lt", True), "nw": product("r_lt", False),
           "dot": product("rho", True)}
    return algebra(["e%d" % (i + 1) for i in range(m)], ops)
