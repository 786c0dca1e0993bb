"""Property tests of the document format.

Generated algebra, coalgebra, form, map and tensor2 documents over Q and
Q(i) survive dumps then loads unchanged: values drawn from a small pool (so
tokens repeat), mostly zero (so whole rows vanish), with numerators and
denominators beyond 2^64.  The same documents, and bundles of them, written
in every spelling the format allows load as a plain reference reader (built
on Scalar.parse and Tensor) reads them.  The parser, given arbitrary
text or a damaged valid document, returns a Document or raises
DocumentError and nothing else.
"""

import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from postlie import (Document, DocumentError, Matrix, Scalar, Tensor, corpus_doc, dumps, load,
                     loads, save)
from postlie.algebra import OPERATION_NAMES
from postlie.bialgebra import COMAP_NAMES
from postlie.documents import MATRIX_KINDS
from vectors import row, sparse

ZERO = Scalar(0)
BIG = 2 ** 64

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

numerators = st.one_of(st.integers(-3, 3), st.integers(-BIG * BIG, BIG * BIG))
denominators = st.one_of(st.integers(1, 4), st.integers(BIG, BIG * BIG))


@st.composite
def scalars(draw, imaginary):
    part = lambda: Fraction(draw(numerators), draw(denominators))
    return Scalar(part(), part() if imaginary and draw(st.booleans()) else 0)


@st.composite
def documents(draw, imaginary=False):
    """A document drawn through the constructors; with imaginary, a Q
    document's entries may still have an imaginary part."""
    kind = draw(st.sampled_from(["algebra", "coalgebra", "form", "map", "tensor2"]))
    field = draw(st.sampled_from(["Q", "Q(i)"]))
    imaginary = imaginary or field == "Q(i)"
    dim = draw(st.integers(0, 3))
    basis = tuple(draw(st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,3}", fullmatch=True),
                                min_size=dim, max_size=dim, unique=True)))
    pool = draw(st.lists(scalars(imaginary), min_size=1, max_size=4))
    entry = st.one_of(st.just(ZERO), st.just(ZERO), st.sampled_from(pool))

    def tensor(*shape):
        size = 1
        for n in shape:
            size *= n
        return Tensor(shape, draw(st.lists(entry, min_size=size, max_size=size)))

    if kind in ("algebra", "coalgebra"):
        names = OPERATION_NAMES if kind == "algebra" else COMAP_NAMES
        return Document(kind, field, basis, {
            name: tensor(dim, dim, dim)
            for name in draw(st.lists(st.sampled_from(names), unique=True, max_size=3))})
    # maps may have no rows, or rows but no columns; without a basis the
    # basis is e1 ... en
    rows = draw(st.integers(0, 3)) if kind == "map" else dim
    if draw(st.booleans()):
        return Document.from_matrix(kind, tensor(rows, dim), field)
    return Document(kind, field, basis, tensor(rows, dim))


@SETTINGS
@given(documents())
def test_dumps_then_loads_is_identity(doc):
    text = dumps(doc)
    again = loads(text)
    assert again == doc
    assert dumps(again) == text


@SETTINGS
@given(documents(imaginary=True))
def test_a_q_body_with_an_imaginary_entry_is_over_q_i(doc):
    # promoted, never written as a 'field Q' text that loads refuses
    tensors = doc.body.values() if doc.kind in ("algebra", "coalgebra") else (doc.body,)
    assert doc.field == "Q(i)" or not any(t.im for t in tensors)
    assert loads(dumps(doc)) == doc


def test_equal_values_print_alike():
    halves = Tensor((2,), [Scalar.parse("1/4"), 0]) + Tensor((2,), [Scalar.parse("1/4"), 0])
    doc = Document.from_matrix("map", halves.reshape(1, 2), "Q", ("a", "b"))
    assert dumps(doc) == "kind map\nfield Q\ndim 2\nbasis a b\nrows 1\nmatrix\n1/2 0\nend\n"


def test_matrix_without_a_basis_names_it_e1_to_en():
    doc = Document.from_matrix("form", Matrix.identity(2))
    assert doc.basis == ("e1", "e2")
    assert loads(dumps(doc)) == doc


def test_wrong_length_basis_is_refused():
    # a Document that dumps could only print as text loads refuses
    with pytest.raises(DocumentError, match="1 basis names for 2 columns"):
        Document.from_matrix("form", Matrix.identity(2), basis=("a",))
    with pytest.raises(DocumentError, match="2 basis names for 3 columns"):
        Document("form", "Q", ("a", "b"), Tensor.identity(3))
    with pytest.raises(DocumentError, match="structure table is not 3\\^3"):
        Document("algebra", "Q", ("a", "b", "c"), {"circ": Tensor.zero(2, 2, 2)})
    with pytest.raises(DocumentError, match="comap table is not 1\\^3"):
        Document("coalgebra", "Q", ("a",), {"Delta": Tensor.zero(2, 2, 2)})
    with pytest.raises(DocumentError, match="line 4: basis has 1 names, dim is 2"):
        loads("kind form\nfield Q\ndim 2\nbasis a\nmatrix\n1 0\n0 1\nend\n")


def test_documents_are_checked_and_frozen():
    with pytest.raises(DocumentError, match="unknown kind 'vector'"):
        Document("vector", "Q", ("a",), Tensor.zero(1, 1))
    with pytest.raises(DocumentError, match="form must be square"):
        Document("form", "Q", ("a",), Tensor.zero(2, 1))
    with pytest.raises(DocumentError, match="unknown field 'R'"):
        Document("tensor2", "R", ("a",), Tensor.zero(1, 1))
    with pytest.raises(DocumentError, match="unknown operation table 'Delta'"):
        Document("algebra", "Q", ("a",), {"Delta": Tensor.zero(1, 1, 1)})
    doc = Document("algebra", "Q", ("a",), {"circ": Tensor.zero(1, 1, 1)})
    assert doc.dim == 1
    # a name the text format would split or lose
    with pytest.raises(DocumentError, match="name 'a b' is not one word"):
        Document("form", "Q", ("a b",), Tensor.zero(1, 1))
    with pytest.raises(DocumentError, match="name '' is not one word"):
        Document.bundle({"": doc})
    with pytest.raises(dataclasses.FrozenInstanceError):
        doc.field = "Q(i)"
    with pytest.raises(TypeError):
        doc.body["bracket"] = Tensor.zero(1, 1, 1)
    bundle = Document.bundle({"a": doc})
    with pytest.raises(TypeError):
        bundle.body["b"] = doc
    # the text of a bundle in a bundle, or of a bundle's basis, would not read back
    for section in (bundle, "kind form"):
        with pytest.raises(DocumentError, match="a bundle holds Documents but no bundle"):
            Document.bundle({"a": section})
    with pytest.raises(DocumentError, match="and no basis"):
        Document("bundle", "Q", ("a",), {})


# one complete document of each kind, with the text that may follow it
_WHOLE = {"algebra": corpus_doc("sl2_lie"), "coalgebra": corpus_doc("final_cobrackets"),
          "form": corpus_doc("kappa"), "map": corpus_doc("sl2_P"),
          "tensor2": corpus_doc("r6"),
          "bundle": Document.bundle({"r": corpus_doc("r6"), "lie": corpus_doc("sl2_lie")})}


@pytest.mark.parametrize("kind", sorted(_WHOLE))
@pytest.mark.parametrize("tail", ["garbage here\n", "endsection\ngarbage\n", "end\n",
                                  "kind form\n", dumps(corpus_doc("sl2_lie"))],
                         ids=["garbage", "endsection", "end", "kind", "second-document"])
def test_text_after_a_complete_document_is_refused(kind, tail):
    text = dumps(_WHOLE[kind])
    assert _WHOLE[kind].kind == kind
    assert loads(text + "\n  \n# a comment\n") == _WHOLE[kind]    # blanks may follow
    with pytest.raises(DocumentError) as err:
        loads(text + tail)
    assert str(err.value).startswith("line %d: " % (text.count("\n") + 1))


@pytest.mark.parametrize("kind", sorted(_WHOLE))
def test_save_writes_the_text_that_load_reads(kind, tmp_path):
    doc, path = _WHOLE[kind], tmp_path / ("%s.txt" % kind)
    save(doc, path)
    assert path.read_text(encoding="utf-8") == dumps(doc)
    assert load(path) == doc


def test_a_bundle_is_over_q_i_if_and_only_if_a_section_is():
    real = Document("form", "Q", ("a",), Tensor.identity(1))
    imaginary = Document("form", "Q", ("a",), Tensor.identity(1).scale(Scalar(0, 1)))
    assert (real.field, imaginary.field) == ("Q", "Q(i)")
    for field in ("Q", "Q(i)"):
        assert Document("bundle", field, (), {}).field == "Q"
        assert Document("bundle", field, (), {"a": real}).field == "Q"
        assert Document("bundle", field, (), {"a": real, "b": imaginary}).field == "Q(i)"
    assert loads(dumps(Document.bundle({"a": real}))).field == "Q"
    with pytest.raises(DocumentError, match="unknown field 'R'"):
        Document("bundle", "R", (), {"a": real})


@pytest.mark.parametrize("rows, cols", [(2, 0), (0, 2), (0, 0)])
def test_maps_without_rows_or_columns_round_trip(rows, cols):
    doc = Document.from_matrix("map", Tensor.zero(rows, cols), basis=("a", "b")[:cols])
    text = dumps(doc)
    assert loads(text) == doc
    assert dumps(loads(text)) == text


def _parses_or_refuses(text):
    try:
        doc = loads(text)
    except DocumentError:
        return
    assert isinstance(doc, Document)


@SETTINGS
@given(st.text())
def test_arbitrary_text_parses_or_raises_document_error(text):
    _parses_or_refuses(text)


# fragments that reach the parser's deeper branches
TOKENS = ["0", "1", "-1/2", "3+i", "i", "1/0", "2i3", "x", "-", ":", "1 1 :", "1 1 1 :",
          "kind", "field", "dim", "basis", "op", "comap", "end", "matrix", "rows",
          "section", "endsection", "bracket", "Delta", "Q", "Q(i)", "bundle", "#",
          "9" * 5000, "1/" + "9" * 5000]


@st.composite
def damaged(draw):
    lines = dumps(draw(documents())).split("\n")
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(lines)))
        how = draw(st.sampled_from(["replace", "insert", "delete", "duplicate"]))
        junk = " ".join(draw(st.lists(st.one_of(st.sampled_from(TOKENS), st.text(max_size=4)),
                                      min_size=1, max_size=5)))
        if how == "insert" or at == len(lines):
            lines.insert(at, junk)
        elif how == "replace":
            lines[at] = junk
        elif how == "delete":
            del lines[at]
        else:
            lines.insert(at, lines[at])
    return "\n".join(lines)


@SETTINGS
@given(damaged())
def test_damaged_documents_parse_or_raise_document_error(text):
    _parses_or_refuses(text)


@SETTINGS
@given(st.lists(documents(), min_size=1, max_size=3), st.data())
def test_damaged_bundles_parse_or_raise_document_error(docs, data):
    text = dumps(Document.bundle({"s%d" % i: doc for i, doc in enumerate(docs)}))
    cut = data.draw(st.integers(0, len(text)))
    _parses_or_refuses(text[:cut] + data.draw(st.sampled_from(TOKENS)) + text[cut:])


# ---------------------------------------------------------------------------
# the reader against a plain reference reader, on every spelling
# ---------------------------------------------------------------------------

def _reference_loads(text):
    """The Document of a well-formed text, read entry by entry through
    Scalar.parse and Tensor; a repeated table line replaces the
    earlier one."""
    lines = [line.strip() for line in text.splitlines()]
    return _reference([line for line in lines if line and not line.startswith("#")])


def _reference(lines):
    kind, field = lines[0].split()[1], lines[1].split()[1]
    if kind == "bundle":
        sections, at = {}, 2
        while at < len(lines):
            end = lines.index("endsection", at)
            sections[lines[at].split()[1]] = _reference(lines[at + 1:end])
            at = end + 1
        return Document.bundle(sections)
    n, basis, body = int(lines[2].split()[1]), tuple(lines[3].split()[1:]), lines[4:]
    if kind in MATRIX_KINDS:
        rows = int(body.pop(0).split()[1]) if body[0].startswith("rows") else n
        values = {r * n + c: Scalar.parse(tok)
                  for r, line in enumerate(body[1:-1]) for c, tok in enumerate(line.split())}
        return Document(kind, field, basis, sparse((rows, n), values))
    tables = {}
    for line in body:
        head, colon, tail = line.partition(":")
        if line == "end":
            tables[name] = sparse((n, n, n), values)
        elif not colon:
            name, values = head.split()[1], {}
        else:
            start, vals = 0, tail.split()
            for t in head.split():
                start = start * n + int(t) - 1
            for f, tok in enumerate(vals, start * len(vals)):
                values[f] = Scalar.parse(tok)
    return Document(kind, field, basis, tables)


ZERO_SPELLINGS = ["0", "-0", "0/3", "0i", "0+0i"]


def _spellings(s):
    """Texts the scalar grammar reads as s, its canonical text first."""
    a, b, d = s.a, s.b, s.d
    texts = [str(s), "%d/%d%s%d/%di" % (2 * a, 2 * d, "-" if b < 0 else "+", 2 * abs(b), 2 * d)]
    if not b:
        texts += ["%d/%d" % (3 * a, 3 * d), "%s+0i" % s]
    if not a:
        texts += ["%d/%di" % (3 * b, 3 * d), "0%s%s" % ("+" if b > 0 else "", s)]
    return texts + ZERO_SPELLINGS if not s else texts


@st.composite
def spelled(draw, doc):
    """The text of doc with blank and comment lines between its lines, runs
    of spaces and tabs around its tokens, each entry spelled at random,
    table rows in any order, all-zero rows written or not, and table lines
    written twice, the later one counting."""
    out = []

    def words(*tokens):
        gaps = [draw(st.sampled_from([" ", "  ", "\t", " \t "])) for _ in tokens]
        return "".join(t + gap for t, gap in zip(tokens, gaps)).strip()

    def emit(text):
        out.append(draw(st.sampled_from(["", " ", "\t"])) + text)
        out.extend(draw(st.lists(st.sampled_from(["", "  \t", "# note", "\t# 1 1 : 1"]),
                                 max_size=1)))

    def entries(values):
        return words(*(draw(st.sampled_from(_spellings(s))) for s in values))

    emit(words("kind", doc.kind))
    # a bundle's own field line is read and then decided by its sections
    emit(words("field", draw(st.sampled_from(["Q", "Q(i)"])) if doc.kind == "bundle"
               else doc.field))
    if doc.kind == "bundle":
        for name, section in doc.body.items():
            emit(words("section", name))
            out.append(draw(spelled(section)))
            emit("endsection")
        return "\n".join(out)
    n, body = doc.dim, doc.body
    emit(words("dim", str(n)))
    emit(words("basis", *doc.basis))
    if doc.kind in MATRIX_KINDS:
        if body.rows != n or doc.kind == "map" and draw(st.booleans()):
            emit(words("rows", str(body.rows)))
        emit("matrix")
        for r in range(body.rows):
            emit(entries(row(body, r)))
        emit("end")
        return "\n".join(out)
    indices = 2 if doc.kind == "algebra" else 3
    pool = [ZERO, *{s for table in body.values() for s in table.entries}]
    for name, table in body.items():
        emit(words("op" if indices == 2 else "comap", name))
        for key in draw(st.permutations(list(itertools.product(range(n), repeat=indices)))):
            line = row(table, *key) if indices == 2 else (table[key],)
            if not any(line) and draw(st.booleans()):
                continue
            head = words(*(str(k + 1) for k in key))
            colon = draw(st.sampled_from([" : ", ":", " :", ": "]))
            if draw(st.booleans()):     # an earlier line that the later one replaces
                emit(head + colon + entries(draw(st.sampled_from(pool)) for _ in line))
            emit(head + colon + entries(line))
        emit("end")
    return "\n".join(out)


@st.composite
def any_documents(draw):
    """A document of any kind: one of documents(), or a bundle of them."""
    if draw(st.booleans()):
        return draw(documents())
    sections = draw(st.lists(documents(), max_size=3))
    return Document.bundle({"s%d" % i: doc for i, doc in enumerate(sections)})


# shrinking a spelled document takes minutes, so a failure shows the example unshrunk
@settings(SETTINGS, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(st.data())
def test_every_spelling_loads_as_the_reference_reads_it(data):
    doc = data.draw(any_documents())
    text = data.draw(spelled(doc))
    assert loads(text) == _reference_loads(text) == doc


# ---------------------------------------------------------------------------
# line heads: each names its row in the dimension of its own document
# ---------------------------------------------------------------------------

def _algebra_text(n, *lines):
    """An algebra document of dimension n whose 'op circ' block holds lines."""
    basis = " ".join("e%d" % (i + 1) for i in range(n))
    return "\n".join(["kind algebra", "field Q", "dim %d" % n, "basis " + basis, "op circ",
                      *lines, "end", ""])


def test_a_head_read_in_one_dimension_is_checked_again_in_another():
    three = loads(_algebra_text(3, "3 3 : 0 0 1"))
    assert three.body["circ"] == sparse((3, 3, 3), {26: Scalar(1)})
    with pytest.raises(DocumentError, match=r"^line 7: basis index out of range$"):
        loads(_algebra_text(2, "1 1 : 0 1", "3 3 : 0 1"))


@pytest.mark.parametrize("spelling", [
    ("1  2 : 0 5",),
    ("1\t2 : 0 5",),
    ("+1 2 : 0 5",),
    ("1 +2: 0 5",),
    ("1 2 : 7 7", "1  2 : 0 5"),       # the second line replaces the first
    ("1 2 : 7 7", "1 2 : 0 5"),
])
def test_every_head_spelling_reads_the_row_it_names(spelling):
    # read in dimension 3 and then 2: the same head names another offset
    for n in (3, 2):
        zeros = ["0"] * (n - 2)
        want = sparse((n, n, n), {n + 1: Scalar(5)})      # e_1 o e_2 = 5 e_2
        canonical = _algebra_text(n, " ".join(["1 2 : 0 5"] + zeros))
        text = _algebra_text(n, *(" ".join([line] + zeros) for line in spelling))
        assert loads(canonical).body["circ"] == loads(text).body["circ"] == want
