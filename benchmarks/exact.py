"""Exact Q(i) arithmetic and the document text format, independent of postlie.

The benchmark builds its inputs and checks the program's outputs with this
module only, so it keeps working while the package's internals change; the
only contract it relies on is the documented file format and the CLI.

A document is a plain dict:

    {"kind": "algebra", "field": "Q(i)", "dim": n, "basis": [...],
     "ops": {name: table}}                       # table[i][j][k]
    {"kind": "form" | "map" | "tensor2", ..., "matrix": rows}   # list of rows
    {"kind": "coalgebra", ..., "comaps": {name: table}}         # table[k][i][j]
    {"kind": "bundle", "field": ..., "sections": {name: document}}
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd


class Q:
    """(a + b i) / d with d > 0 and gcd(a, b, d) = 1."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d=1):
        if d < 0:
            a, b, d = -a, -b, -d
        g = gcd(gcd(a, b), d)
        if g > 1:
            a, b, d = a // g, b // g, d // g
        self.a, self.b, self.d = a, b, d

    def __add__(self, o):
        return Q(self.a * o.d + o.a * self.d, self.b * o.d + o.b * self.d, self.d * o.d)

    def __sub__(self, o):
        return Q(self.a * o.d - o.a * self.d, self.b * o.d - o.b * self.d, self.d * o.d)

    def __mul__(self, o):
        return Q(self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a, self.d * o.d)

    def __truediv__(self, o):
        norm = o.a * o.a + o.b * o.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return Q((self.a * o.a + self.b * o.b) * o.d,
                 (self.b * o.a - self.a * o.b) * o.d, self.d * norm)

    def __neg__(self):
        return Q(-self.a, -self.b, self.d)

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, o):
        return isinstance(o, Q) and (self.a, self.b, self.d) == (o.a, o.b, o.d)

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __str__(self):
        re_, im = Fraction(self.a, self.d), Fraction(self.b, self.d)
        if im == 0:
            return str(re_)
        imtxt = "i" if im == 1 else "-i" if im == -1 else "%si" % im
        if re_ == 0:
            return imtxt
        return "%s%s%s" % (re_, "+" if im > 0 else "", imtxt)

    __repr__ = __str__


ZERO, ONE = Q(0), Q(1)

_RAT = r"-?\d+(?:/\d+)?"
_MAG = r"((?:\d+(?:/\d+)?)?)"
_RE_REAL = re.compile(rf"^({_RAT})$")
_RE_IMAG = re.compile(rf"^(-?){_MAG}i$")
_RE_BOTH = re.compile(rf"^({_RAT})([+-]){_MAG}i$")


def _frac(text):
    return Fraction(text) if text else Fraction(1)


def _from_parts(re_: Fraction, im: Fraction) -> Q:
    d = re_.denominator * im.denominator // gcd(re_.denominator, im.denominator)
    return Q(re_.numerator * (d // re_.denominator), im.numerator * (d // im.denominator), d)


def parse_q(text: str) -> Q:
    m = _RE_REAL.match(text)
    if m:
        return _from_parts(Fraction(m.group(1)), Fraction(0))
    m = _RE_IMAG.match(text)
    if m:
        mag = _frac(m.group(2))
        return _from_parts(Fraction(0), -mag if m.group(1) else mag)
    m = _RE_BOTH.match(text)
    if m:
        mag = _frac(m.group(3))
        return _from_parts(Fraction(m.group(1)), -mag if m.group(2) == "-" else mag)
    raise ValueError("not a Q(i) scalar: %r" % text)


# ---------------------------------------------------------------------------
# tables and matrices
# ---------------------------------------------------------------------------

def zeros3(n):
    return [[[ZERO] * n for _ in range(n)] for _ in range(n)]


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)]


def matmul(x, y):
    cols = len(y[0])
    out = []
    for row in x:
        acc = [ZERO] * cols
        for k, a in enumerate(row):
            if a:
                for j, b in enumerate(y[k]):
                    if b:
                        acc[j] = acc[j] + a * b
        out.append(acc)
    return out


def inverse(m):
    """Gauss-Jordan inverse of a square matrix; raises ZeroDivisionError if singular."""
    n = len(m)
    work = [list(row) + identity(n)[i] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        work[col], work[pivot] = work[pivot], work[col]
        p = work[col][col]
        work[col] = [x / p for x in work[col]]
        for r in range(n):
            f = work[r][col]
            if r != col and f:
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


# ---------------------------------------------------------------------------
# document text format
# ---------------------------------------------------------------------------

OP_ORDER = ("circ", "bracket", "rtri", "ltri", "bullet", "star",
            "se", "ne", "sw", "nw", "dot")
COMAP_ORDER = ("delta_rtri", "delta_ltri", "Delta")


class _Reader:
    def __init__(self, text):
        self.lines = [s for s in (raw.strip() for raw in text.splitlines())
                      if s and not s.startswith("#")]
        self.pos = 0

    def peek(self):
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def next(self):
        line = self.peek()
        if line is None:
            raise ValueError("unexpected end of document")
        self.pos += 1
        return line

    def header(self, key):
        word, _, rest = self.next().partition(" ")
        if word != key:
            raise ValueError("expected %r, found %r" % (key, word))
        return rest.strip()


def loads(text: str) -> dict:
    reader = _Reader(text)
    doc = _parse(reader)
    if reader.peek() is not None:
        raise ValueError("trailing text after document")
    return doc


def _parse(rd) -> dict:
    kind = rd.header("kind")
    field = rd.header("field")
    if kind == "bundle":
        sections = {}
        while rd.peek() is not None:
            name = rd.header("section")
            sections[name] = _parse(rd)
            if rd.next() != "endsection":
                raise ValueError("section %s is not closed" % name)
        return {"kind": kind, "field": field, "sections": sections}
    dim = int(rd.header("dim"))
    basis = rd.header("basis").split()
    doc = {"kind": kind, "field": field, "dim": dim, "basis": basis}
    if kind in ("algebra", "coalgebra"):
        key, opener = ("ops", "op") if kind == "algebra" else ("comaps", "comap")
        doc[key] = {}
        while rd.peek() not in (None, "endsection"):
            table = zeros3(dim)
            doc[key][rd.header(opener)] = table
            while (row := rd.next()) != "end":
                head, _, tail = row.partition(":")
                idx = [int(t) - 1 for t in head.split()]
                vals = [parse_q(t) for t in tail.split()]
                if kind == "algebra":
                    table[idx[0]][idx[1]] = vals
                else:
                    table[idx[0]][idx[1]][idx[2]] = vals[0]
        return doc
    rows = int(rd.header("rows")) if rd.peek().startswith("rows ") else dim
    if rd.next() != "matrix":
        raise ValueError("expected 'matrix'")
    doc["matrix"] = [[parse_q(t) for t in rd.next().split()] for _ in range(rows)]
    if rd.next() != "end":
        raise ValueError("matrix block is not closed")
    return doc


def dumps(doc: dict) -> str:
    out = []
    _dump(doc, out)
    return "\n".join(out) + "\n"


def _dump(doc, out):
    out.append("kind %s" % doc["kind"])
    out.append("field %s" % doc["field"])
    if doc["kind"] == "bundle":
        for name, sub in doc["sections"].items():
            out.append("section %s" % name)
            _dump(sub, out)
            out.append("endsection")
        return
    n = doc["dim"]
    out.append("dim %d" % n)
    out.append(("basis " + " ".join(doc["basis"])).rstrip())
    if doc["kind"] == "algebra":
        for name in OP_ORDER:
            if name in doc["ops"]:
                out.append("op %s" % name)
                table = doc["ops"][name]
                for i in range(n):
                    for j in range(n):
                        if any(table[i][j]):
                            out.append("%d %d : %s" % (i + 1, j + 1,
                                                       " ".join(map(str, table[i][j]))))
                out.append("end")
    elif doc["kind"] == "coalgebra":
        for name in COMAP_ORDER:
            if name in doc["comaps"]:
                out.append("comap %s" % name)
                table = doc["comaps"][name]
                for k in range(n):
                    for i in range(n):
                        for j in range(n):
                            if table[k][i][j]:
                                out.append("%d %d %d : %s" % (k + 1, i + 1, j + 1,
                                                              table[k][i][j]))
                out.append("end")
    else:
        m = doc["matrix"]
        if len(m) != n:
            out.append("rows %d" % len(m))
        out.append("matrix")
        out.extend(" ".join(map(str, row)) for row in m)
        out.append("end")


def read(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())


def write(doc: dict, path) -> str:
    text = dumps(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
