import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from postlie import (
    CORPUS_NAMES,
    ONE,
    Document,
    DocumentError,
    Tensor,
    corpus_doc,
    corpus_text,
    dumps,
    loads,
    sc,
)
from postlie import algebra, cli
from postlie.bialgebra import COMAP_NAMES
from postlie.cli import CHECK_KINDS, DERIVE_KINDS, main
from postlie.corpus import write_corpus


# ---------------------------------------------------------------------------
# document roundtrips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_roundtrip(name):
    text = corpus_text(name)
    doc = loads(text)
    assert dumps(doc) == text
    again = loads(dumps(doc))
    assert dumps(again) == text


def test_zero_dim_roundtrip():
    doc = loads("kind algebra\nfield Q\ndim 0\nbasis\nop bracket\nend\n")
    assert doc.dim == 0
    assert dumps(loads(dumps(doc))) == dumps(doc)


def test_bundle_roundtrip():
    inner = corpus_doc("sl2_postlie")
    form = corpus_doc("kappa")
    bundle = Document.bundle({"algebra": inner, "form": form})
    text = dumps(bundle)
    again = loads(text)
    assert dumps(again) == text
    assert again.body["algebra"] == inner


def _assign_fails(value, order):
    """Item assignment raises TypeError; chained indices reach no row to
    assign into, as one int is no index of a tensor of two or more axes."""
    with pytest.raises(TypeError):
        value[(0,) * order] = ONE
    with pytest.raises(IndexError):
        value[0][0] = ONE


def test_values_handed_out_by_documents_cannot_be_changed():
    cases = (
        ("sl2_pp", 3, lambda doc: [doc.to_algebra().table(op)
                                   for op in ("rtri", "ltri", "bracket")]),
        ("kappa", 2, lambda doc: [doc.to_matrix()]),
        ("final_cobrackets", 3, lambda doc: [doc.to_coalgebra().table(name)
                                             for name in COMAP_NAMES]),
    )
    for name, order, values in cases:
        doc = corpus_doc(name)
        before = dumps(doc)
        for value in values(doc):
            _assign_fails(value, order)
        assert dumps(doc) == before
    alg = corpus_doc("sl2_pp").to_algebra()
    with pytest.raises(TypeError):
        alg.ops["rtri"] = alg.table("ltri")


def test_malformed_scalar_is_parse_error():
    text = "kind form\nfield Q\ndim 1\nbasis e1\nmatrix\n1/0\nend\n"
    with pytest.raises(DocumentError) as err:
        loads(text)
    assert "line" in str(err.value)


def test_field_q_rejects_imaginary():
    text = "kind form\nfield Q\ndim 1\nbasis e1\nmatrix\ni\nend\n"
    with pytest.raises(DocumentError):
        loads(text)
    ok = loads("kind form\nfield Q\ndim 1\nbasis e1\nmatrix\n-1/2\nend\n")
    assert ok.body[0, 0] == sc("-1/2")


@pytest.mark.parametrize("text,fragment", [
    ("kind nonsense\n", "unknown kind"),
    ("kind algebra\nfield R\ndim 1\nbasis e\n", "unknown field"),
    ("kind algebra\nfield Q\ndim 2\nbasis e\n", "basis has"),
    ("kind algebra\nfield Q\ndim 1\nbasis e\nop frobnicate\nend\n", "unknown operation"),
    ("kind algebra\nfield Q\ndim 1\nbasis e\nop circ\n1 : 0\nend\n", "expected"),
    ("kind algebra\nfield Q\ndim 1\nbasis e\nop circ\n2 1 : 0\nend\n", "out of range"),
    ("kind form\nfield Q\ndim 2\nbasis a b\nmatrix\n1 0\n", "unterminated"),
    ("kind map\nfield Q\ndim 1\nbasis e\nrows x\nmatrix\n1\nend\n",
     "line 5: bad row count 'x'"),
    ("kind map\nfield Q\ndim 1\nbasis e\nrows -1\nmatrix\nend\n", "line 5: negative row count"),
    ("kind bundle\nfield R\n", "line 2: unknown field 'R'"),
    ("kind map\nfield Q\ndim 1\nbasis e\nrows\nmatrix\n1\nend\n", "line 5: expected 'rows <n>'"),
    ("kind form\nfield Q\ndim 3\nbasis a b c\nmatrix\n1 0 0\n0 1\n0 0 1\nend\n",
     "line 7: expected 3 entries per row"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(DocumentError) as err:
        loads(text)
    assert fragment in str(err.value)


_AB = "field Q\ndim 2\nbasis a b\n"


@pytest.mark.parametrize("text,message", [
    ("kind algebra\nfield Q\ndim 1\nbasis e\nop circ\n1 : 0\nend\n",
     "line 6: expected 'i j : 1 scalars'"),
    ("kind algebra\n" + _AB + "op circ\n1 1 : 0\nend\n", "line 6: expected 'i j : 2 scalars'"),
    ("kind algebra\n" + _AB + "op circ\n1 x : 0 0\nend\n", "line 6: bad basis index"),
    ("kind algebra\n" + _AB + "op circ\n1 3 : 0 0\nend\n", "line 6: basis index out of range"),
    ("kind algebra\n" + _AB + "op circ\n1 1 : 0 0\n", "unterminated op block"),
    ("kind algebra\n" + _AB + "comap Delta\nend\n", "line 5: expected 'op <name>'"),
    ("kind algebra\n" + _AB + "op Delta\nend\n", "line 5: unknown operation 'Delta'"),
    ("kind coalgebra\n" + _AB + "comap Delta\n1 1 : 0\nend\n",
     "line 6: expected 'k i j : scalar'"),
    ("kind coalgebra\n" + _AB + "comap Delta\n1 1 1 : 0 0\nend\n",
     "line 6: expected 'k i j : scalar'"),
    ("kind coalgebra\n" + _AB + "comap Delta\n1 1 y : 0\nend\n", "line 6: bad basis index"),
    ("kind coalgebra\n" + _AB + "comap Delta\n1 1 3 : 0\nend\n",
     "line 6: basis index out of range"),
    ("kind coalgebra\n" + _AB + "comap Delta\n1 1 1 : 0\n", "unterminated comap block"),
    ("kind coalgebra\n" + _AB + "comap circ\nend\n", "line 5: unknown comap 'circ'"),
    ("kind coalgebra\n" + _AB + "op circ\nend\n", "line 5: expected 'comap <name>'"),
    ("kind coalgebra\n" + _AB + "comap Delta\n1 1 1 : 1/0\nend\n",
     "line 6: zero denominator in '1/0'"),
    ("kind algebra\n" + _AB + "op circ\n1 1 : 1 0\nend\nop bracket\nend\nop circ\nend\n",
     "line 10: duplicate operation 'circ'"),
    ("kind coalgebra\n" + _AB + "comap Delta\nend\n# again\ncomap Delta\n1 1 1 : 0\nend\n",
     "line 8: duplicate comap 'Delta'"),
    ("kind bundle\nfield Q\nsection s\nkind form\n" + _AB + "matrix\n1 0\n0 1\nend\n"
     "endsection\nsection s\n", "line 13: duplicate section 's'"),
])
def test_table_block_errors_are_exact(text, message):
    # op and comap blocks share one reader; each message keeps its wording
    with pytest.raises(DocumentError) as err:
        loads(text)
    assert str(err.value) == message


def test_table_blocks_fill_their_entries():
    alg = loads("kind algebra\n" + _AB + "op circ\n2 1 : 3 4\nend\n").to_algebra()
    assert alg.table("circ") == Tensor((2, 2, 2), [0, 0, 0, 0, 3, 4, 0, 0])
    co = loads("kind coalgebra\n" + _AB + "comap Delta\n2 1 2 : 5\nend\n").to_coalgebra()
    assert co.table("Delta") == Tensor((2, 2, 2), [0, 0, 0, 0, 0, 5, 0, 0])


def test_comments_and_blank_lines():
    text = ("# a comment\nkind form\n\nfield Q\ndim 1\nbasis e1\n"
            "# another\nmatrix\n2\nend\n")
    assert loads(text).body[0, 0] == 2


def test_non_square_map_roundtrip():
    text = ("kind map\nfield Q\ndim 2\nbasis v1 v2\nrows 3\n"
            "matrix\n1 0\n0 1\n1 1\nend\n")
    doc = loads(text)
    assert doc.body.rows == 3 and doc.body.cols == 2
    assert dumps(doc) == text
    with pytest.raises(DocumentError):
        loads(text.replace("kind map", "kind form"))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

@pytest.fixture()
def corpus_on_disk(tmp_path):
    write_corpus(str(tmp_path))
    return tmp_path


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_check_post_lie(corpus_on_disk, capsys):
    code, out, _ = _run(capsys, "check", "post-lie", str(corpus_on_disk / "sl2_postlie.txt"))
    assert code == 0
    assert "PASS" in out


def test_cli_check_pp(corpus_on_disk, capsys):
    code, out, _ = _run(capsys, "check", "pp", str(corpus_on_disk / "sl2_pp.txt"))
    assert code == 0


def test_cli_check_pp_broken(corpus_on_disk, capsys):
    code, out, _ = _run(capsys, "check", "pp", str(corpus_on_disk / "sl2_pp_broken.txt"))
    assert code == 1
    assert "FAIL" in out
    assert "at basis" in out  # a witness is printed


def test_cli_check_witness_verbosity(corpus_on_disk, capsys, monkeypatch):
    monkeypatch.setenv("POSTLIE_VERBOSE", "0")
    code, out, _ = _run(capsys, "check", "pp", str(corpus_on_disk / "sl2_pp_broken.txt"))
    assert code == 1
    assert "at basis" not in out


def test_cli_unreadable_verbosity_prints_the_default_witnesses(corpus_on_disk, capsys,
                                                              monkeypatch):
    argv = ("check", "pp", str(corpus_on_disk / "sl2_pp_broken.txt"))
    unset = _run(capsys, *argv)
    monkeypatch.setenv("POSTLIE_VERBOSE", "abc")
    assert _run(capsys, *argv) == unset
    assert unset[0] == 1 and unset[1].count(" at basis ") == 5


def test_cli_check_rb(corpus_on_disk, capsys):
    code, _, _ = _run(capsys, "check", "rb",
                      str(corpus_on_disk / "sl2_lie.txt"),
                      str(corpus_on_disk / "sl2_P.txt"))
    assert code == 0


def test_cli_check_gph(corpus_on_disk, capsys):
    code, _, _ = _run(capsys, "check", "gph",
                      str(corpus_on_disk / "sl2_postlie.txt"),
                      str(corpus_on_disk / "kappa.txt"))
    assert code == 0


def test_cli_check_cybe_and_friends(corpus_on_disk, capsys):
    for kind in ("cybe", "quasi", "op-form"):
        code, _, _ = _run(capsys, "check", kind,
                          str(corpus_on_disk / "ahat_pp.txt"),
                          str(corpus_on_disk / "r6.txt"))
        assert code == 0, kind


def test_cli_check_bialg(corpus_on_disk, capsys):
    code, _, _ = _run(capsys, "check", "pp-bialg",
                      str(corpus_on_disk / "ahat_pp.txt"),
                      str(corpus_on_disk / "final_cobrackets.txt"))
    assert code == 0
    code, _, _ = _run(capsys, "check", "pp-coalg",
                      str(corpus_on_disk / "final_cobrackets.txt"), "--mode", "both")
    assert code == 0


def test_cli_pp_coalg_both_modes_check_co_lie_once(corpus_on_disk, capsys, monkeypatch):
    # each mode checks co-Lie; the second reads its leaves from the family cache
    names = []
    evaluate = algebra._evaluate
    monkeypatch.setattr(algebra, "_evaluate",
                        lambda identity, *rest: names.append(identity.name)
                        or evaluate(identity, *rest))
    code, out, _ = _run(capsys, "check", "pp-coalg",
                        str(corpus_on_disk / "final_cobrackets.txt"), "--mode", "both")
    assert code == 0
    assert out.count("pp-coalgebra: PASS") == 2
    assert [name for name in names if name.startswith("lie.")] == ["lie.antisym", "lie.jacobi"]


def test_cli_check_pre_pp(corpus_on_disk, capsys):
    code, _, _ = _run(capsys, "check", "pre-pp", str(corpus_on_disk / "final_prepp.txt"))
    assert code == 0


def test_cli_check_o_op(corpus_on_disk, capsys):
    code, _, _ = _run(capsys, "check", "o-op",
                      str(corpus_on_disk / "sl2_pp.txt"),
                      str(corpus_on_disk / "final_P.txt"))
    assert code == 0


def test_cli_check_usage_errors(corpus_on_disk, capsys):
    code, _, err = _run(capsys, "check", "lie")
    assert code == 2
    code, _, err = _run(capsys, "check", "lie", str(corpus_on_disk / "missing.txt"))
    assert code == 2


@pytest.mark.parametrize("argv,message", [
    (("check", "cybe", "sl2_pp", "r6"), "tensor is 6x6, expected 3x3"),
    (("check", "cybe", "sl2_pp", "t2"), "tensor is 2x2, expected 3x3"),
    (("check", "quasi", "sl2_pp", "r6"), "tensor is 6x6, expected 3x3"),
    (("check", "quasi", "sl2_pp", "t2"), "tensor is 2x2, expected 3x3"),
    (("check", "op-form", "sl2_pp", "t2"), "tensor is 2x2, expected 3x3"),
    (("check", "left-invariant", "sl2_postlie", "r6"), "form is 6x6, expected 3x3"),
    (("check", "invariant-form", "sl2_postlie", "t2"), "form is 2x2, expected 3x3"),
    (("check", "gph", "sl2_postlie", "r6"), "form is 6x6, expected 3x3"),
    (("check", "rb", "sl2_lie", "r6"), "operator is 6x6, expected 3x3"),
    (("derive", "cobrackets-from-r", "sl2_pp", "t2"), "tensor is 2x2, expected 3x3"),
    (("check", "matched-pair", "sl2_pp", "ahat_pp"),
     "action on B has 3x3 carrier matrices, B is 6-dimensional"),
    (("check", "matched-pair", "ahat_pp", "sl2_pp"),
     "action on B has 6x6 carrier matrices, B is 3-dimensional"),
    (("derive", "bowtie", "sl2_pp", "ahat_pp"),
     "action on B has 3x3 carrier matrices, B is 6-dimensional"),
    (("check", "lie-bialg", "sl2_lie", "final_cobrackets"),
     "coalgebra is 6-dimensional, algebra is 3-dimensional"),
    (("check", "pp-bialg", "sl2_pp", "final_cobrackets"),
     "coalgebra is 6-dimensional, algebra is 3-dimensional"),
    (("check", "o-op", "sl2_pp", "r6"), "operator is 6x6, expected 3x3"),
    (("check", "dual-p-o", "sl2_postlie", "r6"), "operator is 6x6, expected 3x3"),
    (("check", "strong", "sl2_postlie", "t2"), "operator is 2x2, expected 3x3"),
    (("derive", "induced", "sl2_postlie", "r6"), "operator is 6x6, expected 3x3"),
    (("derive", "pp-from-gph", "sl2_postlie", "t2"), "form is 2x2, expected 3x3"),
    (("derive", "bullet-from-gph", "sl2_postlie", "r6"), "form is 6x6, expected 3x3"),
    (("derive", "pre-pp-from-o", "sl2_pp", "r6"), "operator is 6x6, expected 3x3"),
    (("derive", "invertible-o-pre-pp", "sl2_pp", "t2"), "operator is 2x2, expected 3x3"),
    (("derive", "embed-r", "final_prepp", "r6"), "operator is 6x6, expected 3x3"),
])
def test_cli_size_mismatch_exit_2(corpus_on_disk, capsys, argv, message):
    (corpus_on_disk / "t2.txt").write_text(
        "kind tensor2\nfield Q\ndim 2\nbasis a b\nmatrix\n0 1\n-1 0\nend\n")
    command, kind, *names = argv
    paths = [str(corpus_on_disk / (n + ".txt")) for n in names]
    code, out, err = _run(capsys, command, kind, *paths)
    assert code == 2
    # a matrix of the wrong shape is named by its file, always the last
    # argument; a mismatch of two algebras or an algebra and a coalgebra is not
    at = paths[-1] + ": " if ", expected " in message else ""
    assert err == "error: %s%s\n" % (at, message)


def test_cli_input_errors_exit_2(corpus_on_disk, capsys):
    # each is raised as a package error type, not as a bare KeyError or ValueError
    co = corpus_on_disk / "final_cobrackets.txt"
    text = co.read_text()
    start = text.index("comap Delta")
    no_delta = corpus_on_disk / "no_delta.txt"
    no_delta.write_text(text[:start] + text[text.index("end\n", start) + 4:])
    for argv, message in [
        (("corpus", "show", "nosuch"), "unknown corpus fixture 'nosuch'"),
        (("corpus", "show"), "corpus show needs a fixture name"),
        (("corpus", "write"), "corpus write needs a directory"),
        (("check", "pp-rep", str(corpus_on_disk / "sl2_pp.txt"), "--rep", "bogus"),
         "unknown pp representation 'bogus'"),
        (("check", "rep", str(corpus_on_disk / "sl2_postlie.txt"), "--rep", "bogus"),
         "unknown post-Lie representation 'bogus'"),
        (("check", "pp-coalg", str(co), "--mode", "bogus"), "mode must be 'dual', 'direct' or 'both'"),
        (("check", "lie-coalg", str(no_delta)),
         "%s: coalgebra has no comap table 'Delta'" % no_delta),
        (("check", "pp-coalg", str(no_delta)),
         "%s: coalgebra has no comap table 'Delta'" % no_delta),
        (("check", "manin-triple", str(corpus_on_disk / "sl2_pp.txt"),
          str(corpus_on_disk / "ahat_pp.txt")), "A is 3-dimensional, A* is 6-dimensional"),
        # an input of the wrong kind is named by its path
        (("check", "lie", str(corpus_on_disk / "kappa.txt")),
         "%s: document is 'form', not an algebra" % (corpus_on_disk / "kappa.txt")),
        (("check", "lie-coalg", str(corpus_on_disk / "sl2_lie.txt")),
         "%s: document is 'algebra', not a coalgebra" % (corpus_on_disk / "sl2_lie.txt")),
        (("check", "cybe", str(corpus_on_disk / "sl2_pp.txt"), str(co)),
         "%s: expected one of form/map/tensor2, found coalgebra" % co),
    ]:
        code, out, err = _run(capsys, *argv)
        assert (code, err) == (2, "error: %s\n" % message), argv


@pytest.mark.parametrize("command, files, option", [
    (("check", "quasi"), ("sl2_pp", "sl2_P"), ("--rep", "adjoint")),
    (("derive", "horizontal"), ("sl2_pp",), ("--rep", "coadjoint")),
    (("check", "o-op"), ("sl2_pp", "final_P"), ("--weight", "1")),
    (("check", "pp-rep"), ("sl2_pp",), ("--mode", "both")),
])
def test_cli_refuses_an_option_its_kind_does_not_read(corpus_on_disk, capsys, command, files,
                                                      option):
    paths = [str(corpus_on_disk / (name + ".txt")) for name in files]
    assert _run(capsys, *command, *paths)[0] in (0, 1)
    code, out, err = _run(capsys, *command, *paths, *option)
    assert (code, out) == (2, "")
    assert err == "error: %s %s does not take %s\n" % (*command, option[0])


@pytest.mark.parametrize("error", (KeyError, ValueError))
def test_cli_internal_errors_escape(corpus_on_disk, monkeypatch, error):
    # a bug inside the package is not reported as bad input (exit 2)
    def broken(alg):
        raise error("internal")

    monkeypatch.setattr(algebra, "check_lie", broken)
    with pytest.raises(error, match="internal"):
        main(["check", "lie", str(corpus_on_disk / "sl2_lie.txt")])


def test_cli_missing_table_names_the_table_and_the_file(corpus_on_disk, capsys):
    # a KeyError underneath, but the message says which table of which file
    path = corpus_on_disk / "sl2_lie.txt"
    code, out, err = _run(capsys, "check", "pp", str(path))
    assert (code, out) == (2, "")
    assert err == "error: %s: algebra has no operation table 'rtri'\n" % path
    with pytest.raises(KeyError):
        algebra.check_pp_post_lie(corpus_doc("sl2_lie").to_algebra())


def test_cli_quarter_rep_needs_quarter_ops_in_every_dimension(tmp_path, capsys):
    # the quarter tables are read whatever the dimension, so a 0-dimensional
    # algebra without them is refused like any other
    zero = tmp_path / "zero.txt"
    zero.write_text("kind algebra\nfield Q\ndim 0\nbasis\n")
    for argv in (("check", "pp-rep"), ("derive", "semidirect-pp")):
        code, out, err = _run(capsys, *argv, str(zero), "--rep", "quarter")
        assert code == 2
        assert err == "error: %s: algebra has no operation table 'se'\n" % zero


def test_cli_parse_error_exit_2(corpus_on_disk, capsys):
    # a scalar given as an option is a parse error too
    assert _run(capsys, "check", "rb", str(corpus_on_disk / "sl2_lie.txt"),
                str(corpus_on_disk / "sl2_P.txt"), "--weight", "abc") == (
        2, "", "parse error: cannot parse scalar 'abc'\n")
    bad = corpus_on_disk / "bad.txt"
    bad.write_text("kind form\nfield Q\ndim 1\nbasis e\nmatrix\n1/0\nend\n")
    code, _, err = _run(capsys, "check", "lie", str(bad))
    assert code == 2
    bad.write_text("kind algebra\nfield Q\ndim 1\nbasis e\nop bracket\n1 1 : %s\nend\n"
                   % ("9" * 5000))
    code, _, err = _run(capsys, "check", "lie", str(bad))
    assert code == 2 and "line 6: too many digits in '999" in err


def test_cli_empty_weight_is_a_parse_error(corpus_on_disk, capsys):
    # an empty --weight is a value that does not parse, not weight 1
    assert _run(capsys, "check", "rb", str(corpus_on_disk / "sl2_lie.txt"),
                str(corpus_on_disk / "sl2_P.txt"), "--weight", "") == (
        2, "", "parse error: cannot parse scalar ''\n")


def test_cli_table_given_twice_exit_2(corpus_on_disk, capsys):
    # the second block would replace the first: an sl2 bracket by a zero one
    twice = corpus_on_disk / "twice.txt"
    lie = (corpus_on_disk / "sl2_lie.txt").read_text()
    twice.write_text(lie.replace("end\n", "end\nop bracket\n1 1 : 0 0 0\nend\n"))
    code, out, err = _run(capsys, "check", "lie", str(twice))
    assert (code, out) == (2, "")
    assert err == "error: %s: line %d: duplicate operation 'bracket'\n" % (
        twice, lie.count("\n") + 1)


def test_cli_two_documents_in_one_file_exit_2(corpus_on_disk, capsys):
    two = corpus_on_disk / "two.txt"
    r6 = (corpus_on_disk / "r6.txt").read_text()
    two.write_text(r6 + (corpus_on_disk / "sl2_lie.txt").read_text())
    code, out, err = _run(capsys, "check", "cybe", str(corpus_on_disk / "ahat_pp.txt"), str(two))
    assert (code, out) == (2, "")
    assert err == "error: %s: line %d: text after the end of the document\n" % (
        two, r6.count("\n") + 1)


def test_cli_input_not_utf8_exit_2(tmp_path, capsys):
    bad = tmp_path / "latin1.txt"
    text = corpus_text("sl2_lie").encode()
    bad.write_bytes(text + b"# caf\xe9\n")
    code, out, err = _run(capsys, "check", "lie", str(bad))
    assert (code, out) == (2, "")
    assert err == "error: %s: not UTF-8 text at byte %d\n" % (bad, len(text) + 5)


@pytest.mark.parametrize("how", ["directory", "symlink loop"])
def test_cli_unreadable_input_exit_2(tmp_path, capsys, how):
    path = tmp_path / "input"
    if how == "directory":
        path.mkdir()
        reason = "Is a directory"
    else:
        path.symlink_to(tmp_path / "other")
        (tmp_path / "other").symlink_to(path)
        reason = "Too many levels of symbolic links"
    code, out, err = _run(capsys, "check", "lie", str(path))
    assert (code, out, err) == (2, "", "error: %s: %s\n" % (path, reason))


@pytest.mark.parametrize("argv", [("check", "lie", "a\0b"),
                                  ("derive", "horizontal", "sl2_pp", "-o", "a\0b")])
def test_cli_path_with_nul_is_a_usage_error(corpus_on_disk, capsys, argv):
    # no shell passes a NUL, but an in-process caller can
    with pytest.raises(SystemExit) as exc:
        main([str(corpus_on_disk / (w + ".txt")) if w == "sl2_pp" else w for w in argv])
    assert exc.value.code == 2
    assert "a path cannot contain a NUL character" in capsys.readouterr().err


def test_cli_derive_output_directory_exit_2(corpus_on_disk, capsys):
    code, out, err = _run(capsys, "derive", "horizontal", str(corpus_on_disk / "sl2_pp.txt"),
                          "-o", str(corpus_on_disk))
    assert (code, out, err) == (2, "", "error: %s: Is a directory\n" % corpus_on_disk)


def test_cli_derive_induced_matches_corpus(corpus_on_disk, tmp_path, capsys):
    out_path = tmp_path / "derived.txt"
    code, _, _ = _run(capsys, "derive", "induced",
                      str(corpus_on_disk / "sl2_lie.txt"),
                      str(corpus_on_disk / "sl2_P.txt"),
                      "-o", str(out_path))
    assert code == 0
    derived = loads(out_path.read_text())
    expected = corpus_doc("sl2_postlie")
    assert derived.body == expected.body


def test_cli_derive_over_q_with_imaginary_entries_writes_q_i(corpus_on_disk, tmp_path, capsys):
    # sl2_lie over Q and the Q(i) operator sl2_P induce a structure over Q(i)
    q_lie = tmp_path / "q_lie.txt"
    q_lie.write_text((corpus_on_disk / "sl2_lie.txt").read_text().replace(
        "field Q(i)\n", "field Q\n"))
    assert loads(q_lie.read_text()).field == "Q"
    out_path = tmp_path / "out.txt"
    code, _, _ = _run(capsys, "derive", "induced", str(q_lie),
                      str(corpus_on_disk / "sl2_P.txt"), "-o", str(out_path))
    assert code == 0
    derived = loads(out_path.read_text())
    assert derived.field == "Q(i)"
    assert derived.body == corpus_doc("sl2_postlie").body
    code, _, _ = _run(capsys, "check", "post-lie", str(out_path))
    assert code == 0


def test_cli_derive_pp_from_gph(corpus_on_disk, tmp_path, capsys):
    out_path = tmp_path / "derived_pp.txt"
    code, _, _ = _run(capsys, "derive", "pp-from-gph",
                      str(corpus_on_disk / "sl2_postlie.txt"),
                      str(corpus_on_disk / "kappa.txt"),
                      "-o", str(out_path))
    assert code == 0
    derived = loads(out_path.read_text()).to_algebra()
    from postlie import check_pp_post_lie, compatible_pp_from_gph
    expected = compatible_pp_from_gph(corpus_doc("sl2_postlie").to_algebra(),
                                      corpus_doc("kappa").to_matrix())
    assert derived.ops == expected.ops
    assert check_pp_post_lie(derived).passed


def test_cli_derive_cobrackets_matches_corpus(corpus_on_disk, tmp_path, capsys):
    out_path = tmp_path / "co.txt"
    code, _, _ = _run(capsys, "derive", "cobrackets-from-r",
                      str(corpus_on_disk / "ahat_pp.txt"),
                      str(corpus_on_disk / "r6.txt"),
                      "-o", str(out_path))
    assert code == 0
    derived = loads(out_path.read_text())
    assert derived == corpus_doc("final_cobrackets")


def test_cli_derive_embed_r(corpus_on_disk, tmp_path, capsys):
    out_path = tmp_path / "embedded.txt"
    code, _, _ = _run(capsys, "derive", "embed-r",
                      str(corpus_on_disk / "final_prepp.txt"),
                      "--rep", "quarter", "-o", str(out_path))
    assert code == 0
    bundle = loads(out_path.read_text())
    assert bundle.body["double"].body == corpus_doc("ahat_pp").body
    assert bundle.body["r"].body == corpus_doc("r6").to_matrix()


def test_cli_derive_sub_adjacent_quarter(corpus_on_disk, tmp_path, capsys):
    out_path = tmp_path / "sub.txt"
    code, _, _ = _run(capsys, "derive", "sub-adjacent",
                      str(corpus_on_disk / "final_prepp.txt"), "-o", str(out_path))
    assert code == 0
    derived = loads(out_path.read_text()).to_algebra()
    ahat = corpus_doc("ahat_pp").to_algebra()
    for op in ("rtri", "ltri", "bracket"):
        block = [ahat.table(op)[i, j, k] for i in range(3) for j in range(3)
                 for k in range(3)]
        assert derived.table(op).entries == tuple(block)


def test_cli_derive_double(corpus_on_disk, tmp_path, capsys):
    out_path = tmp_path / "double.txt"
    code, _, _ = _run(capsys, "derive", "double",
                      str(corpus_on_disk / "sl2_pp.txt"), "-o", str(out_path))
    assert code == 0
    bundle = loads(out_path.read_text())
    assert bundle.body["double"].dim == 6
    assert bundle.body["pairing"].kind == "form"


# a pp algebra over Q: [a, b] = b, zero |> and <|
_REAL_PP = ("kind algebra\nfield Q\ndim 2\nbasis a b\nop rtri\nend\nop ltri\nend\n"
            "op bracket\n1 2 : 0 1\n2 1 : 0 -1\nend\n")


@pytest.mark.parametrize("kind, files, options", [
    ("double", 1, ()), ("manin", 2, ()), ("embed-r", 1, ("--rep", "adjoint"))])
def test_cli_derives_of_a_real_algebra_stay_over_q(kind, files, options, tmp_path, capsys):
    pp = tmp_path / "pp.txt"
    pp.write_text(_REAL_PP)
    assert _run(capsys, "check", "pp", str(pp))[0] == 0
    code, out, _ = _run(capsys, "derive", kind, *[str(pp)] * files, *options)
    assert code == 0
    fields = [line for line in out.splitlines() if line.startswith("field")]
    assert fields == ["field Q"] * 3
    bundle = loads(out)
    assert bundle.field == "Q" and dumps(bundle) == out


def test_cli_derive_precondition_exit_1(corpus_on_disk, capsys):
    code, _, err = _run(capsys, "derive", "induced",
                        str(corpus_on_disk / "sl2_lie.txt"),
                        str(corpus_on_disk / "final_P.txt"))
    assert code == 1
    assert "precondition" in err


def test_cli_dualize_roundtrip(corpus_on_disk, tmp_path, capsys):
    co_path = tmp_path / "co.txt"
    code, _, _ = _run(capsys, "derive", "dualize",
                      str(corpus_on_disk / "sl2_pp.txt"), "-o", str(co_path))
    assert code == 0
    back_path = tmp_path / "alg.txt"
    code, _, _ = _run(capsys, "derive", "dualize", str(co_path), "-o", str(back_path))
    assert code == 0
    assert loads(back_path.read_text()).body == corpus_doc("sl2_pp").body


def test_cli_corpus_list_show_write(tmp_path, capsys):
    code, out, _ = _run(capsys, "corpus", "list")
    assert code == 0
    assert "sl2_postlie" in out
    code, out, _ = _run(capsys, "corpus", "show", "kappa")
    assert code == 0
    assert "kind form" in out
    target = tmp_path / "fixtures"
    code, out, _ = _run(capsys, "corpus", "write", str(target))
    assert code == 0
    assert (target / "sl2_lie.txt").exists()


def test_cli_corpus_write_over_a_file_exit_2(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("")
    code, out, err = _run(capsys, "corpus", "write", str(target))
    assert (code, out, err) == (2, "", "error: %s: File exists\n" % target)


# the digest of the whole output of `corpus verify`, as benchmarks/workloads.py records it
VERIFY_SHA256 = "636a42387685c71f9d830cf9de9d4830e03326c3bb7fd2abbbd5e49129bf28de"


def test_cli_corpus_verify_reports_known_state(capsys):
    # A3 carries the documented red assertion; everything else passes
    code, out, _ = _run(capsys, "corpus", "verify")
    assert code == 1
    for name in ("A1", "A2", "A4", "A5", "A6", "A7"):
        assert "%s: PASS" % name in out
    assert "A3: FAIL" in out
    assert "first failing criterion: A3" in out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256


def test_corpus_verify_mutated_P(tmp_path):
    from postlie import run_acceptance
    write_corpus(str(tmp_path))
    p_path = tmp_path / "sl2_P.txt"
    text = p_path.read_text().replace("0 -1/2 -1/2i", "0 -1/2 1/2i")
    p_path.write_text(text)
    results = {r.name: r for r in run_acceptance(corpus_dir=str(tmp_path), names=["A1"])}
    assert not results["A1"].passed


def test_corpus_verify_mutated_r(tmp_path):
    from postlie import run_acceptance
    write_corpus(str(tmp_path))
    r_path = tmp_path / "r6.txt"
    lines = r_path.read_text().splitlines()
    # flip the sign of one tensor entry (breaks the bundled-table match)
    idx = lines.index("matrix") + 1
    lines[idx] = lines[idx].replace("-1", "1", 1)
    r_path.write_text("\n".join(lines) + "\n")
    results = {r.name: r for r in run_acceptance(corpus_dir=str(tmp_path), names=["A5"])}
    assert not results["A5"].passed


def test_cli_corpus_verify_dir_must_be_a_directory(tmp_path, capsys):
    # a usage error (exit 2), not seven failing criteria (exit 1)
    missing, plain = tmp_path / "missing", tmp_path / "plain.txt"
    plain.write_text("")
    for path in (missing, plain):
        code, out, err = _run(capsys, "corpus", "verify", "--dir", str(path))
        assert (code, out, err) == (2, "", "error: %s: not a directory\n" % path)


def test_cli_no_command(capsys):
    assert main([]) == 2


def test_cli_builds_its_parser_once_per_process(corpus_on_disk, capsys, monkeypatch):
    # importing the module builds no parser; the first main() call builds
    # the tree (postlie and its three subcommands) and later calls reuse it
    code = ("import postlie.cli as cli; "
            "assert cli.build_parser.cache_info().currsize == 0")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(kw.get("prog")) or init(self, *a, **kw))
    cli.build_parser.cache_clear()
    sl2_lie = str(corpus_on_disk / "sl2_lie.txt")
    for _ in range(3):
        assert _run(capsys, "check", "lie", sl2_lie)[0] == 0
        assert _run(capsys, "derive", "horizontal", str(corpus_on_disk / "sl2_pp.txt"))[0] == 0
        assert _run(capsys, "corpus", "list")[0] == 0
        assert _run(capsys)[0] == 2
        with pytest.raises(SystemExit):
            main(["check", "nonsense"])
    assert built == ["postlie", "postlie check", "postlie derive", "postlie corpus"]


# ---------------------------------------------------------------------------
# CLI fuzzing: every argv ends in an exit code, never in a traceback
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    write_corpus(str(directory))
    (directory / "subdir").mkdir()
    return directory


FUZZ_FIXTURES = {cli._algebra: ("sl2_lie", "sl2_postlie", "sl2_pp", "sl2_pp_broken",
                                 "final_prepp", "ahat_pp"),
                 cli._matrix: ("sl2_P", "kappa", "final_P", "r6"),
                 cli._coalgebra: ("final_cobrackets",)}
FUZZ_VALUES = {"--rep": ("adjoint", "coadjoint", "quarter", "split-dual", "bogus"),
               "--weight": ("1", "-1/2", "i", "x", "1/0", ""),
               "--mode": ("dual", "direct", "both", "bogus"),
               "-o": ("out.txt", "subdir", "no/out.txt")}
FUZZ_FLAGS = {"check": ("--rep", "--weight", "--mode"), "derive": ("--rep", "-o")}


@st.composite
def argvs(draw, directory):
    """A check or derive command line: mostly a kind, fixtures of the kinds
    its loaders read and the command's own flags; sometimes a file too many
    or too few, a fixture of another kind, a missing path, a directory, a
    file of arbitrary bytes, an unknown kind or a stray word."""
    command = draw(st.sampled_from(("check", "derive")))
    registry = cli.CHECKS if command == "check" else cli.DERIVES
    kind = draw(st.sampled_from(tuple(registry) + ("nonsense",)))
    loaders = registry[kind].loaders if kind in registry else ()
    arbitrary = directory / "bytes.txt"
    arbitrary.write_bytes(draw(st.binary(max_size=300)))
    fixtures = [n for names in FUZZ_FIXTURES.values() for n in names]
    unusable = st.sampled_from([directory / "missing.txt", directory / "subdir", arbitrary])
    count = draw(st.sampled_from((len(loaders),) * 3 + (0, 1, 2, 3)))
    names = [draw(st.sampled_from(FUZZ_FIXTURES.get(loader, fixtures)))
             for loader in (loaders + (None,) * 3)[:count]]
    files = [draw(unusable) if draw(st.integers(0, 9)) == 0 else directory / (name + ".txt")
             for name in names]
    argv = [command, kind] + [str(path) for path in files]
    for flag in draw(st.lists(st.sampled_from(FUZZ_FLAGS[command]), max_size=2)):
        value = draw(st.sampled_from(FUZZ_VALUES[flag]))
        argv += [flag, str(directory / value) if flag == "-o" else value]
    if draw(st.integers(0, 4)) == 0:
        argv.append(draw(st.sampled_from(["--help", "-o", "--weight", "--bogus", "@", ""])
                         | st.text(max_size=8)))
    return argv


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.data())
def test_cli_fuzz_exits_with_a_code_and_no_traceback(fuzz_dir, data):
    argv = data.draw(argvs(fuzz_dir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
            assert code in (0, 1, 2), argv
        except SystemExit as exc:       # argparse: --help, or a usage error
            assert exc.code in (0, 2), argv
    assert "Traceback" not in err.getvalue(), argv


def test_cli_every_check_kind(corpus_on_disk, capsys):
    f = lambda name: str(corpus_on_disk / (name + ".txt"))
    invocations = [
        ("lie", f("sl2_lie")),
        ("pre-lie", f("final_prepp")),          # uses the dot table
        ("post-lie", f("sl2_postlie")),
        ("pp", f("sl2_pp")),
        ("pre-pp", f("final_prepp")),
        ("rep", f("sl2_postlie")),
        ("rep", f("sl2_pp"), "--rep", "split-dual"),
        ("pp-rep", f("sl2_pp")),
        ("pp-rep", f("sl2_pp"), "--rep", "coadjoint"),
        ("pp-rep", f("final_prepp"), "--rep", "quarter"),
        ("rb", f("sl2_lie"), f("sl2_P"), "--weight", "1"),
        ("o-op", f("sl2_pp"), f("final_P")),
        ("dual-p-o", f("sl2_pp"), f("sl2_P"), "--rep", "split-dual"),
        ("strong", f("sl2_pp"), f("sl2_P"), "--rep", "split-dual"),
        ("invariant-form", f("sl2_postlie"), f("kappa")),
        ("left-invariant", f("sl2_postlie"), f("kappa")),
        ("gph", f("sl2_postlie"), f("kappa")),
        ("lie-coalg", f("final_cobrackets")),
        ("pp-coalg", f("final_cobrackets")),
        ("lie-bialg", f("ahat_pp"), f("final_cobrackets")),
        ("pp-bialg", f("ahat_pp"), f("final_cobrackets")),
        ("cybe", f("ahat_pp"), f("r6")),
        ("quasi", f("ahat_pp"), f("r6")),
        ("op-form", f("ahat_pp"), f("r6")),
    ]
    for kind, *rest in invocations:
        code, out, err = _run(capsys, "check", kind, *rest)
        assert code in (0, 1), (kind, err)
        assert ("PASS" in out or "FAIL" in out
                or "precondition failed" in err), kind


def test_cli_check_dual_p_o_is_pass(corpus_on_disk, capsys):
    # the identity on the double dual witnesses the bundled splitting
    # (kind "dual-p-o" with the split-dual representation and T read from
    # a file; reuse the bundled operator shape via a written identity map)
    ident = ("kind map\nfield Q(i)\ndim 3\nbasis e1 e2 e3\n"
             "matrix\n1 0 0\n0 1 0\n0 0 1\nend\n")
    path = corpus_on_disk / "identity.txt"
    path.write_text(ident)
    code, out, _ = _run(capsys, "check", "dual-p-o",
                        str(corpus_on_disk / "sl2_pp.txt"), str(path),
                        "--rep", "split-dual")
    assert code == 0
    code, out, _ = _run(capsys, "check", "strong",
                        str(corpus_on_disk / "sl2_pp.txt"), str(path),
                        "--rep", "split-dual")
    assert code == 0


def test_cli_check_matched_pair_and_manin(corpus_on_disk, tmp_path, capsys):
    co_path = tmp_path / "dual_pp.txt"
    code, _, _ = _run(capsys, "derive", "dualize",
                      str(corpus_on_disk / "final_cobrackets.txt"),
                      "-o", str(co_path))
    assert code == 0
    code, _, _ = _run(capsys, "check", "matched-pair",
                      str(corpus_on_disk / "ahat_pp.txt"), str(co_path))
    assert code == 0
    code, _, _ = _run(capsys, "check", "manin-triple",
                      str(corpus_on_disk / "ahat_pp.txt"), str(co_path))
    assert code == 0


def test_cli_every_derive_kind(corpus_on_disk, tmp_path, capsys):
    f = lambda name: str(corpus_on_disk / (name + ".txt"))
    invocations = [
        ("sub-adjacent", f("sl2_postlie")),
        ("sub-adjacent", f("final_prepp")),
        ("horizontal", f("sl2_pp")),
        ("vertical", f("sl2_pp")),
        ("transpose", f("sl2_pp")),
        ("opposite", f("sl2_postlie")),
        ("induced", f("sl2_lie"), f("sl2_P")),
        ("semidirect", f("sl2_postlie")),
        ("semidirect", f("sl2_pp"), "--rep", "split-dual"),
        ("semidirect-pp", f("sl2_pp")),
        ("semidirect-pp", f("sl2_pp"), "--rep", "coadjoint"),
        ("double", f("sl2_pp")),
        ("pp-from-gph", f("sl2_postlie"), f("kappa")),
        ("bullet-from-gph", f("sl2_postlie"), f("kappa")),
        ("pre-pp-from-o", f("sl2_pp"), f("final_P")),
        ("embed-r", f("final_prepp"), "--rep", "quarter"),
        ("cobrackets-from-r", f("ahat_pp"), f("r6")),
        ("dualize", f("sl2_pp")),
        ("dualize", f("final_cobrackets")),
    ]
    for idx, (kind, *rest) in enumerate(invocations):
        out_path = tmp_path / ("out%d.txt" % idx)
        code, out, err = _run(capsys, "derive", kind, *rest, "-o", str(out_path))
        assert code == 0, (kind, err)
        reparsed = loads(out_path.read_text())
        assert reparsed.kind in ("algebra", "coalgebra", "bundle")


def test_cli_derive_bowtie_and_invertible_o(corpus_on_disk, tmp_path, capsys):
    zero_pp = ("kind algebra\nfield Q(i)\ndim 3\nbasis f1 f2 f3\n"
               "op rtri\nend\nop ltri\nend\nop bracket\nend\n")
    zero_path = tmp_path / "zero_pp.txt"
    zero_path.write_text(zero_pp)
    code, _, _ = _run(capsys, "derive", "bowtie",
                      str(corpus_on_disk / "sl2_pp.txt"), str(zero_path),
                      "-o", str(tmp_path / "bow.txt"))
    assert code == 0
    ident = ("kind map\nfield Q(i)\ndim 3\nbasis e1 e2 e3\n"
             "matrix\n1 0 0\n0 1 0\n0 0 1\nend\n")
    ident_path = tmp_path / "ident.txt"
    ident_path.write_text(ident)
    code, _, _ = _run(capsys, "derive", "invertible-o-pre-pp",
                      str(corpus_on_disk / "final_prepp.txt"), str(ident_path),
                      "--rep", "quarter",
                      "-o", str(tmp_path / "prepp.txt"))
    assert code == 0
    derived = loads((tmp_path / "prepp.txt").read_text())
    assert derived.body == corpus_doc("final_prepp").body


def test_cli_derive_manin(corpus_on_disk, tmp_path, capsys):
    co_path = tmp_path / "dual_pp.txt"
    _run(capsys, "derive", "dualize",
         str(corpus_on_disk / "final_cobrackets.txt"), "-o", str(co_path))
    code, _, _ = _run(capsys, "derive", "manin",
                      str(corpus_on_disk / "ahat_pp.txt"), str(co_path),
                      "-o", str(tmp_path / "manin.txt"))
    assert code == 0
    bundle = loads((tmp_path / "manin.txt").read_text())
    assert bundle.body["double"].dim == 12
