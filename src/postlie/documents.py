"""Bit-exact text documents for algebras, forms, maps, tensors and coalgebras.

The format is line oriented.  Every document starts with

    kind <algebra|form|map|tensor2|coalgebra|bundle>
    field <Q|Q(i)>
    dim <n>
    basis <name> ... <name>

followed by kind-specific tables.  Basis indices are 1-based in files and
0-based in memory.  Scalars use the canonical text grammar of
:mod:`postlie.scalars`, so load(save(x)) == x bit-exactly.

algebra:   blocks  ``op <name>`` ... ``end`` with lines  ``i j : s1 .. sn``
           meaning e_i * e_j = sum_k s_k e_k (omitted pairs are zero).
form/map/tensor2:  a ``matrix`` ... ``end`` block of ``rows`` lines
           (maps may declare a separate ``rows`` header for non-square shapes).
coalgebra: blocks ``comap <name>`` ... ``end`` with lines ``k i j : s``
           meaning delta(e_k) contains s * e_i (x) e_j.
bundle:    named ``section <name>`` ... ``endsection`` wrappers, each holding
           a complete document.

A name heads at most one op, comap or section block of a document.  Text
holds one document: only blank and ``#`` comment lines may follow it.

In memory a document is the frozen Document(kind, field, basis, body), dim
= len(basis): a read-only mapping of tables, the matrix Tensor or a read-only
mapping of sections as body, checked when built.  A table or matrix is over
Q(i) if an entry is not real and keeps its field otherwise; a bundle is over
Q(i) if and only if a section is.

Tables and matrices are read straight into sparse Tensors over the lcm of
their denominators by the integer scalar codec of :mod:`postlie.scalars`: a
``0`` token costs nothing, and each distinct token text is read once per
document (its errors name the line of its first use), and each distinct
table line head once per document (a head that raises is never kept, so
every error keeps its message and line).  Writing prints only
the rows that hold a nonzero entry (all rows of a matrix), formatting each
distinct entry of a Tensor once.  Neither builds a Scalar or a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from .algebra import (
    COMAP_NAMES, FIELDS, OPERATION_NAMES, Algebra, CoalgebraSpec, UnknownOperationError, _field_of)
from .linalg import LinAlgError, Matrix, _over_lcm, _tensor
from .scalars import ScalarParseError, _read, _text

__all__ = ["Document", "DocumentError", "load", "save", "loads", "dumps"]

# the tables of an algebra or coalgebra, as read and written: block keyword,
# noun for errors, table names in writing order and indices per line
_LAYOUTS = {"algebra": ("op", "operation", OPERATION_NAMES, 2),
            "coalgebra": ("comap", "comap", COMAP_NAMES, 3)}
MATRIX_KINDS = ("form", "map", "tensor2")
KINDS = (*_LAYOUTS, *MATRIX_KINDS, "bundle")
_RECORDS = {"algebra": Algebra, "coalgebra": CoalgebraSpec}


class DocumentError(ValueError):
    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Document:
    """A document; its tables are checked as to_algebra and to_coalgebra check them."""

    kind: str
    field: str
    basis: tuple
    body: object

    def __post_init__(self):
        kind, basis, body = self.kind, tuple(self.basis), self.body
        for name in (*basis, *(body if kind == "bundle" else ())):
            if name.split() != [name]:
                raise DocumentError("name %r is not one word" % (name,))
        try:
            if kind in _RECORDS:
                record = _RECORDS[kind](len(basis), self.field, basis, body)
                field, body = record.field, record.tables
            elif kind == "bundle":     # its text has no basis line and nests no bundle
                if basis or not all(isinstance(s, Document) and s.kind != "bundle"
                                    for s in body.values()):
                    raise DocumentError("a bundle holds Documents but no bundle, and no basis")
                _field_of(self.field, ())       # a known field; the sections decide it
                field = "Q(i)" if any(s.field == "Q(i)" for s in body.values()) else "Q"
                body = MappingProxyType(dict(body))
            elif kind not in MATRIX_KINDS:
                raise DocumentError("unknown kind %r" % kind)
            elif body.cols != len(basis):
                raise DocumentError("%d basis names for %d columns" % (len(basis), body.cols))
            elif kind != "map" and body.rows != body.cols:
                raise DocumentError("%s must be square" % kind)
            else:
                field = _field_of(self.field, (body,))
        except (LinAlgError, UnknownOperationError) as exc:
            raise DocumentError(str(exc)) from None
        for name, value in (("field", field), ("basis", basis), ("body", body)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return len(self.basis)

    # -- conversions -----------------------------------------------------

    def to_algebra(self) -> Algebra:
        if self.kind != "algebra":
            raise DocumentError("document is %r, not an algebra" % self.kind)
        return Algebra(self.dim, self.field, self.basis, self.body)

    def to_matrix(self) -> Matrix:
        if self.kind not in MATRIX_KINDS:
            raise DocumentError("expected one of form/map/tensor2, found %s" % self.kind)
        return self.body

    def to_coalgebra(self) -> CoalgebraSpec:
        if self.kind != "coalgebra":
            raise DocumentError("document is %r, not a coalgebra" % self.kind)
        return CoalgebraSpec(self.dim, self.field, self.basis, self.body)

    @staticmethod
    def from_algebra(alg: Algebra) -> "Document":
        return Document("algebra", alg.field, alg.basis, alg.ops)

    @staticmethod
    def from_matrix(kind: str, m: Matrix, field="Q(i)", basis=()) -> "Document":
        if kind not in MATRIX_KINDS:
            raise DocumentError("matrix documents must be form, map or tensor2")
        basis = tuple(basis) or tuple("e%d" % (i + 1) for i in range(m.cols))
        return Document(kind, field, basis, m)

    @staticmethod
    def from_coalgebra(co: CoalgebraSpec) -> "Document":
        return Document("coalgebra", co.field, co.basis, co.comaps)

    @staticmethod
    def bundle(sections: dict) -> "Document":
        return Document("bundle", "Q", (), sections)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _triple(tok, lineno, fieldname, codes):
    """The scalar triple (a, b, d) of tok, kept in codes (token text -> triple)."""
    try:
        code = _read(tok)
    except ScalarParseError as exc:
        raise DocumentError(str(exc), lineno) from None
    if fieldname == "Q" and code[1]:
        raise DocumentError("imaginary scalar %r in a Q document" % tok, lineno)
    codes[tok] = code
    return code


class _Lines:
    """The numbered, stripped lines of a text but blanks and comments; pos is the next."""

    def __init__(self, text):
        self.items = [(no, line) for no, line in enumerate(map(str.strip, text.splitlines()), 1)
                      if line and line[0] != "#"]
        self.pos = 0

    def next(self):
        if self.pos == len(self.items):
            return None, None
        self.pos += 1
        return self.items[self.pos - 1]


def loads(text: str) -> Document:
    """The one document of text: any line after it but blanks and comments
    is refused."""
    lines = _Lines(text)
    doc = _parse_document(lines)
    lineno, line = lines.next()
    if line is not None:
        raise DocumentError("text after the end of the document", lineno)
    return doc


def _expect(lines, keyword):
    lineno, line = lines.next()
    if line is None:
        raise DocumentError("unexpected end of document, expected %r" % keyword)
    parts = line.split(None, 1)
    if parts[0] != keyword:
        raise DocumentError("expected %r, found %r" % (keyword, parts[0]), lineno)
    return lineno, parts[1].strip() if len(parts) > 1 else ""


def _count(text, what, lineno) -> int:
    try:
        value = int(text)
    except ValueError:
        raise DocumentError("bad %s %r" % (what, text), lineno) from None
    if value < 0:
        raise DocumentError("negative %s" % what, lineno)
    return value


def _parse_document(lines) -> Document:
    lineno, kind = _expect(lines, "kind")
    if kind not in KINDS:
        raise DocumentError("unknown kind %r" % kind, lineno)
    lineno, fieldname = _expect(lines, "field")
    if fieldname not in FIELDS:
        raise DocumentError("unknown field %r" % fieldname, lineno)
    if kind == "bundle":
        sections = {}
        while True:
            lineno, line = lines.next()
            if line is None:
                return Document("bundle", fieldname, (), sections)
            parts = line.split()
            if parts[0] != "section" or len(parts) != 2:
                raise DocumentError("expected 'section <name>'", lineno)
            if parts[1] in sections:
                raise DocumentError("duplicate section %r" % parts[1], lineno)
            sections[parts[1]] = _parse_document(lines)
            lineno, line = lines.next()
            if line != "endsection":
                raise DocumentError("expected 'endsection'", lineno)

    lineno, dimtxt = _expect(lines, "dim")
    dim = _count(dimtxt, "dimension", lineno)
    lineno, basistxt = _expect(lines, "basis")
    basis = tuple(basistxt.split())
    if len(basis) != dim:
        raise DocumentError("basis has %d names, dim is %d" % (len(basis), dim), lineno)
    if kind in _LAYOUTS:
        body = _parse_tables(lines, dim, fieldname, *_LAYOUTS[kind])
    else:
        body = _parse_matrix_body(lines, kind, dim, fieldname)
    return Document(kind, fieldname, basis, body)


def _parse_tables(lines, n, fieldname, keyword, noun, names, indices) -> dict:
    """The '<keyword> <name>' ... 'end' blocks of an algebra (op, two indices
    and a row of n scalars per line) or a coalgebra (comap, three indices
    and one scalar per line), each read into an n x n x n Tensor."""
    per = n ** (3 - indices)
    codes, tables, heads = {}, {}, {}
    usage = "%s : %s" % (" ".join("kij"[3 - indices:]),
                         "scalar" if indices == 3 else "%d scalars" % per)
    while True:
        lineno, line = lines.next()
        if line is None:
            return tables
        if line == "endsection":
            lines.pos -= 1
            return tables
        parts = line.split()
        if parts[0] != keyword or len(parts) != 2:
            raise DocumentError("expected '%s <name>'" % keyword, lineno)
        name = parts[1]
        if name not in names:
            raise DocumentError("unknown %s %r" % (noun, name), lineno)
        if name in tables:
            raise DocumentError("duplicate %s %r" % (noun, name), lineno)
        values, starts, items = {}, set(), lines.items
        for pos in range(lines.pos, len(items)):
            lineno, line = items[pos]
            if line == "end":
                break
            head, _, tail = line.partition(":")
            vals = tail.split()
            if len(vals) != per:
                raise DocumentError("expected '%s'" % usage, lineno)
            start = heads.get(head)
            if start is None:
                start = heads[head] = _row(head, n, indices, usage, lineno)
            if start in starts:     # a repeated line replaces the earlier one
                for f in range(start, start + per):
                    values.pop(f, None)
            starts.add(start)
            for f, tok in enumerate(vals, start):
                if tok != "0":
                    values[f] = codes.get(tok) or _triple(tok, lineno, fieldname, codes)
        else:
            raise DocumentError("unterminated %s block" % keyword)
        lines.pos = pos + 1
        tables[name] = _tensor((n, n, n), *_over_lcm(values))


def _row(head, n, indices, usage, lineno) -> int:
    """The first entry offset of the row a table line's head text names: its
    indices, 1-based, a row of n^(3 - indices) entries each."""
    idx = head.split()
    if len(idx) != indices:
        raise DocumentError("expected '%s'" % usage, lineno)
    try:
        idx = list(map(int, idx))
    except ValueError:
        raise DocumentError("bad basis index", lineno) from None
    start = 0
    for t in idx:
        if not 0 < t <= n:
            raise DocumentError("basis index out of range", lineno)
        start = start * n + t - 1
    return start * n ** (3 - indices)


def _parse_matrix_body(lines, kind, n, fieldname) -> Matrix:
    lineno, line = lines.next()
    rows = n
    if line is not None and line.split()[0] == "rows":
        parts = line.split()
        if len(parts) != 2:
            raise DocumentError("expected 'rows <n>'", lineno)
        rows = _count(parts[1], "row count", lineno)
        if kind != "map":
            raise DocumentError("'rows' is only valid for maps", lineno)
        lineno, line = lines.next()
    if line != "matrix":
        raise DocumentError("expected 'matrix'", lineno)
    codes, values = {}, {}
    # a row of no entries is written as a blank line, which the reader skips
    for r in range(rows if n else 0):
        lineno, line = lines.next()
        if line is None:
            raise DocumentError("unterminated matrix block")
        toks = line.split()
        if len(toks) != n:
            raise DocumentError("expected %d entries per row" % n, lineno)
        for f, tok in enumerate(toks, r * n):
            if tok != "0":
                values[f] = codes.get(tok) or _triple(tok, lineno, fieldname, codes)
    lineno, line = lines.next()
    if line != "end":
        raise DocumentError("expected 'end' after matrix", lineno)
    return _tensor((rows, n), *_over_lcm(values))


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

def dumps(doc: Document) -> str:
    out = []
    _dump_into(doc, out)
    return "\n".join(out) + "\n"


def _cells(t) -> dict:
    """The text of each nonzero entry of the tensor t by flat offset; each
    distinct numerator pair is formatted once, over t.den."""
    re, im, den = t.re, t.im, t.den
    texts, cells = {}, {}
    for f in re.keys() | im.keys():
        pair = re.get(f, 0), im.get(f, 0)
        text = texts.get(pair)
        if text is None:
            text = texts[pair] = _text(*pair, den)
        cells[f] = text
    return cells


def _dump_into(doc: Document, out):
    out.append("kind %s" % doc.kind)
    out.append("field %s" % doc.field)
    body, n = doc.body, doc.dim
    if doc.kind == "bundle":
        for name, section in body.items():
            out.append("section %s" % name)
            _dump_into(section, out)
            out.append("endsection")
        return
    out.append("dim %d" % n)
    out.append(("basis " + " ".join(doc.basis)).rstrip())
    if doc.kind in _LAYOUTS:
        keyword, _, names, indices = _LAYOUTS[doc.kind]
        per = n ** (3 - indices)        # scalars per line
        for name in names:
            if name not in body:
                continue
            out.append("%s %s" % (keyword, name))
            cells = _cells(body[name])
            for at in sorted({f // per for f in cells}):
                # the line's indices are the base-n digits of at
                idx = [str(at // n ** p % n + 1) for p in range(indices - 1, -1, -1)]
                row = [cells.get(f, "0") for f in range(at * per, at * per + per)]
                out.append("%s : %s" % (" ".join(idx), " ".join(row)))
            out.append("end")
    else:
        if doc.kind == "map" and body.rows != body.cols:
            out.append("rows %d" % body.rows)
        out.append("matrix")
        cells = _cells(body)
        for r in range(body.rows):
            out.append(" ".join([cells.get(f, "0") for f in range(r * n, r * n + n)]))
        out.append("end")


def load(path) -> Document:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def save(doc: Document, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))
