"""Command-line interface.

    postlie check <kind> <files...>        exit 0 pass / 1 violations / 2 usage
    postlie derive <construction> <files...> [-o OUT]
    postlie corpus verify|list|write|show

Set POSTLIE_VERBOSE to control how many witnesses a failing check prints
(0 silences them; default 5).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Callable, NamedTuple

from . import algebra as alg_mod
from . import bialgebra as bi
from . import construct as con
from . import forms
from .algebra import Algebra, CheckReport, PreconditionError, UnknownOperationError
from .corpus import CORPUS_NAMES, corpus_text, write_corpus
from .documents import Document, DocumentError, dumps, load
from .linalg import LinAlgError, Matrix
from .scalars import ONE, Scalar, ScalarParseError
from .verify import run_acceptance


class UsageError(Exception):
    pass


def _verbosity() -> int:
    raw = os.environ.get("POSTLIE_VERBOSE", "5")
    try:
        return max(0, int(raw))
    except ValueError:
        return 5


def _load(path, convert=lambda doc: doc):
    """The document at path passed through convert; a failure is a UsageError naming path."""
    try:
        return convert(load(path))
    except FileNotFoundError:
        raise UsageError("no such file: %s" % path)
    except DocumentError as exc:
        raise UsageError("%s: %s" % (path, exc))
    except UnicodeDecodeError as exc:
        raise UsageError("%s: not UTF-8 text at byte %d" % (path, exc.start))
    except OSError as exc:      # a directory, or a file we may not read
        raise UsageError("%s: %s" % (path, exc.strerror or exc))


_algebra, _matrix, _coalgebra = (functools.partial(_load, convert=convert) for convert in (
    Document.to_algebra, Document.to_matrix, Document.to_coalgebra))


def _pp_rep(alg: Algebra, which: str | None):
    if not which or which == "adjoint":
        return alg, forms.pp_adjoint_rep(alg)
    if which == "coadjoint":
        return alg, forms.pp_coadjoint_rep(alg)
    if which == "quarter":
        # the pp-rep precondition of the checker names what fails
        return alg_mod._sub_adjacent_pp(alg), con.quarter_split_rep(alg)
    raise UsageError("unknown pp representation %r" % which)


def _post_lie_rep(alg: Algebra, which: str | None):
    if not which or which == "adjoint":
        return alg, forms.adjoint_rep(alg)
    if which == "split-dual":
        return alg_mod._horizontal_post_lie(alg), forms.pp_split_dual_rep(alg)
    raise UsageError("unknown post-Lie representation %r" % which)


def _path(text: str) -> str:
    """A path argument; open() cannot take one with a NUL in it."""
    if "\0" in text:
        raise argparse.ArgumentTypeError("a path cannot contain a NUL character")
    return text


def _report_exit(report: CheckReport) -> int:
    print(report.render(_verbosity()))
    return 0 if report.passed else 1


def _horizontal_pair(a_pp: Algebra, b_pp: Algebra):
    """Horizontal post-Lie algebras of two pp algebras and their coadjoint
    actions; the matched-pair precondition, not pp, is the one reported."""
    return (alg_mod._horizontal_post_lie(a_pp), alg_mod._horizontal_post_lie(b_pp),
            con.coadjoint_matched_pair_maps(a_pp, b_pp))


def _pp_coalg(opts, co):
    mode = opts.mode or "dual"
    if mode not in ("dual", "direct", "both"):
        raise UsageError("mode must be 'dual', 'direct' or 'both'")
    if mode != "both":
        return bi.check_pp_coalgebra(co, mode)
    dual, direct = bi._pp_coalgebra_reports(co, ("dual", "direct"))
    print(dual.render(_verbosity()))
    print(direct.render(_verbosity()))
    if dual.passed != direct.passed:
        print("mode disagreement: dual=%s direct=%s" % (dual.passed, direct.passed))
        return 1
    return 0 if dual.passed else 1


def _revalidate(out: Algebra) -> CheckReport:
    """The check of the richest structure whose tables out has: pre-pp
    (dot), pp (rtri), post-Lie (circ) or Lie."""
    if out.has("dot"):
        return alg_mod.check_pre_pp_post_lie(out)
    if out.has("rtri"):
        return alg_mod.check_pp_post_lie(out)
    return (alg_mod.check_post_lie if out.has("circ") else alg_mod.check_lie)(out)


def _checked(out: Algebra):
    """A derived algebra's document and its re-validation report."""
    return Document.from_algebra(out), _revalidate(out)


def _bundle(double: Algebra, name: str, kind: str, m: Matrix) -> Document:
    return Document.bundle({
        "double": Document.from_algebra(double),
        name: Document.from_matrix(kind, m, double.field, double.basis),
    })


def _double(opts, a):
    double, form = con.double_construction(a)
    return _bundle(double, "pairing", "form", form), forms.check_gph(double, form)


def _manin(opts, a_pp, b_pp):
    double, form, report = con.manin_triple_build(a_pp, b_pp)
    return _bundle(double, "pairing", "form", form), report


def _embed_r(opts, a, t=None):
    base, rep = _pp_rep(a, opts.rep or "quarter")
    ahat, r = con.hom_embed_r(base, rep, Matrix.identity(rep.dim) if t is None else t)
    return _bundle(ahat, "r", "tensor2", r), _revalidate(ahat)


def _cobrackets(opts, a, r):
    co = bi.cobrackets_from_r(a, r)
    return Document.from_coalgebra(co), bi.check_pp_coalgebra(co)


def _dualize(opts, doc):
    if doc.kind == "algebra":
        return Document.from_coalgebra(bi.dualize_alg(doc.to_algebra())), None
    if doc.kind == "coalgebra":
        return Document.from_algebra(bi.dualize(doc.to_coalgebra())), None
    raise UsageError("dualize expects an algebra or a coalgebra")


class _Kind(NamedTuple):
    """One CLI kind: a loader per file argument (the last `optional` of them
    may be left out), run(options, *inputs) and the options (--rep,
    --weight, --mode, by their names) that run reads; any other is refused."""

    loaders: tuple
    run: Callable
    optional: int = 0
    options: tuple = ()


# loaders of one algebra, matrix or coalgebra file
A, M, C = (_algebra,), (_matrix,), (_coalgebra,)
REP = ("rep",)

# run returns a CheckReport, or an exit code when it printed its own verdict
CHECKS = {
    "lie": _Kind(A, lambda o, a: alg_mod.check_lie(a)),
    "pre-lie": _Kind(A, lambda o, a: alg_mod.check_pre_lie(
        a, "dot" if a.has("dot") and not a.has("circ") else "circ")),
    "post-lie": _Kind(A, lambda o, a: alg_mod.check_post_lie(a)),
    "pp": _Kind(A, lambda o, a: alg_mod.check_pp_post_lie(a)),
    "pre-pp": _Kind(A, lambda o, a: alg_mod.check_pre_pp_post_lie(a)),
    "l-dendriform": _Kind(A, lambda o, a: alg_mod.check_l_dendriform(a)),
    "rep": _Kind(A, lambda o, a: forms.check_post_lie_rep(*_post_lie_rep(a, o.rep)), options=REP),
    "pp-rep": _Kind(A, lambda o, a: forms.check_pp_rep(*_pp_rep(a, o.rep)), options=REP),
    "rb": _Kind(A + M, lambda o, a, p: forms.check_rota_baxter_lie(
        a, p, Scalar.parse(o.weight) if o.weight else ONE), options=("weight",)),
    "o-op": _Kind(A + M, lambda o, a, t: forms.check_o_operator_pp(*_pp_rep(a, o.rep), t),
                  options=REP),
    "dual-p-o": _Kind(A + M, lambda o, a, t: forms.check_dual_p_o_operator(
        *_post_lie_rep(a, o.rep), t), options=REP),
    "strong": _Kind(A + M, lambda o, a, t: forms.check_strong(*_post_lie_rep(a, o.rep), t),
                    options=REP),
    "invariant-form": _Kind(A + M, lambda o, a, b: forms.check_invariant_form(a, b)),
    "left-invariant": _Kind(A + M, lambda o, a, b: forms.check_left_invariant(a, b)),
    "gph": _Kind(A + M, lambda o, a, b: forms.check_gph(a, b)),
    "lie-coalg": _Kind(C, lambda o, co: bi.check_lie_coalgebra(co)),
    "pp-coalg": _Kind(C, _pp_coalg, options=("mode",)),
    "lie-bialg": _Kind(A + C, lambda o, a, co: bi.check_lie_bialgebra(a, co)),
    "pp-bialg": _Kind(A + C, lambda o, a, co: bi.check_pp_bialgebra(a, co)),
    "matched-pair": _Kind(A + A, lambda o, a, b: con.check_matched_pair(*_horizontal_pair(a, b))),
    "manin-triple": _Kind(A + A, lambda o, a, b: con.manin_triple_build(a, b)[2]),
    "cybe": _Kind(A + M, lambda o, a, r: bi.check_pppcybe(a, r)),
    "quasi": _Kind(A + M, lambda o, a, r: bi.check_quasitriangular_conditions(a, r)),
    "op-form": _Kind(A + M, lambda o, a, r: bi.operator_form_check(a, r)),
}

# run returns (document, report re-validating it, or None)
DERIVES = {
    "sub-adjacent": _Kind(A, lambda o, a: _checked(
        alg_mod.sub_adjacent_pp(a) if a.has("dot") else alg_mod.sub_adjacent_lie(a))),
    "horizontal": _Kind(A, lambda o, a: _checked(alg_mod.horizontal_post_lie(a))),
    "vertical": _Kind(A, lambda o, a: _checked(alg_mod.vertical_post_lie(a))),
    "transpose": _Kind(A, lambda o, a: _checked(alg_mod.transpose_pp(a))),
    "opposite": _Kind(A, lambda o, a: _checked(alg_mod.opposite_post_lie(a))),
    "induced": _Kind(A + M, lambda o, a, p: _checked(forms.induced_post_lie(a, p))),
    "semidirect": _Kind(A, lambda o, a: _checked(
        con.semidirect_post_lie(*_post_lie_rep(a, o.rep))), options=REP),
    "semidirect-pp": _Kind(A, lambda o, a: _checked(
        con.semidirect_pp(*_pp_rep(a, o.rep))), options=REP),
    "bowtie": _Kind(A + A, lambda o, a, b: _checked(con.bowtie(*_horizontal_pair(a, b)))),
    "double": _Kind(A, _double),
    "manin": _Kind(A + A, _manin),
    "pp-from-gph": _Kind(A + M, lambda o, a, b: _checked(con.compatible_pp_from_gph(a, b))),
    "bullet-from-gph": _Kind(A + M, lambda o, a, b: _checked(con.bullet_from_gph(a, b))),
    "pre-pp-from-o": _Kind(A + M, lambda o, a, t: _checked(
        con.pre_pp_from_o_operator(*_pp_rep(a, o.rep), t)), options=REP),
    "invertible-o-pre-pp": _Kind(A + M, lambda o, a, t: _checked(
        con.invertible_o_to_compatible_pre_pp(*_pp_rep(a, o.rep), t)), options=REP),
    "embed-r": _Kind(A + M, _embed_r, optional=1, options=REP),
    "cobrackets-from-r": _Kind(A + M, _cobrackets),
    "dualize": _Kind((_load,), _dualize),
}

CHECK_KINDS = tuple(CHECKS)
DERIVE_KINDS = tuple(DERIVES)


def _inputs(command: str, kind: _Kind, args) -> list:
    """Load each file argument with its loader after checking their number."""
    files = args.files
    most = len(kind.loaders)
    least = most - kind.optional
    if not least <= len(files) <= most:
        if kind.optional:
            raise UsageError("%s %s expects %d or %d files" % (command, args.kind, least, most))
        raise UsageError("%s %s expects %d file(s), got %d"
                         % (command, args.kind, most, len(files)))
    return [loader(path) for loader, path in zip(kind.loaders, files)]


def _run_kind(command: str, kinds: dict, args):
    """Run the kind args.kind of kinds on its loaded files; a missing table
    is a usage error naming the first file whose structure lacks it, and a
    shape error one naming the matrix file, when the kind reads one."""
    kind = kinds[args.kind]
    for option in ("rep", "weight", "mode"):
        if getattr(args, option, None) is not None and option not in kind.options:
            raise UsageError("%s %s does not take --%s" % (command, args.kind, option))
    inputs = _inputs(command, kind, args)
    try:
        return kind.run(args, *inputs)
    except UnknownOperationError as exc:
        lacking = [path for path, x in zip(args.files, inputs)
                   if isinstance(x, (Algebra, bi.CoalgebraSpec)) and not x.has(exc.name)]
        if not lacking:
            raise
        raise UsageError("%s: %s" % (lacking[0], exc)) from None
    except LinAlgError as exc:
        matrices = [path for path, x in zip(args.files, inputs) if isinstance(x, Matrix)]
        if not matrices:
            raise
        raise UsageError("%s: %s" % (matrices[0], exc)) from None


def cmd_check(args) -> int:
    result = _run_kind("check", CHECKS, args)
    return _report_exit(result) if isinstance(result, CheckReport) else result


def cmd_derive(args) -> int:
    doc, report = _run_kind("derive", DERIVES, args)
    if report is not None and not report.passed:
        print(report.render(_verbosity()))
        return 1
    text = dumps(doc)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError("%s: %s" % (args.output, exc.strerror or exc))
    else:
        sys.stdout.write(text)
    return 0


def cmd_corpus(args) -> int:
    if args.action == "list":
        for name in CORPUS_NAMES:
            print(name)
        return 0
    if args.action == "show":
        if not args.name:
            raise UsageError("corpus show needs a fixture name")
        try:
            text = corpus_text(args.name)
        except KeyError as exc:     # not a bundled fixture; str() would quote the message
            raise UsageError(exc.args[0]) from None
        sys.stdout.write(text)
        return 0
    if args.action == "write":
        if not args.name:
            raise UsageError("corpus write needs a directory")
        try:
            paths = write_corpus(args.name)
        except OSError as exc:      # a file in the way, or a directory we may not write
            raise UsageError("%s: %s" % (exc.filename or args.name, exc.strerror or exc))
        for path in paths:
            print(path)
        return 0
    # verify: the parser admits no other action
    if args.dir is not None and not os.path.isdir(args.dir):
        raise UsageError("%s: not a directory" % args.dir)
    results = run_acceptance(corpus_dir=args.dir)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(r.line())
    if failed:
        print("first failing criterion: %s" % failed[0].name)
        return 1
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every main()
    call in the process: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="postlie",
        description="Exact checks and constructions for post-Lie algebras, "
                    "their splittings, doubles and bialgebras.")
    subs = parser.add_subparsers(dest="command")

    p_check = subs.add_parser("check", help="run an axiom or compatibility checker")
    p_check.add_argument("kind", choices=CHECK_KINDS)
    p_check.add_argument("files", nargs="*", type=_path)
    p_check.add_argument("--rep", help="representation to build from the algebra "
                                       "(adjoint, coadjoint, split-dual, quarter)")
    p_check.add_argument("--weight", help="Rota-Baxter weight (default 1)")
    p_check.add_argument("--mode", help="pp-coalg mode: dual, direct or both")
    p_check.set_defaults(fn=cmd_check)

    p_derive = subs.add_parser("derive", help="run a construction and emit a document")
    p_derive.add_argument("kind", choices=DERIVE_KINDS)
    p_derive.add_argument("files", nargs="*", type=_path)
    p_derive.add_argument("-o", "--output", type=_path,
                          help="write the document here instead of stdout")
    p_derive.add_argument("--rep", help="representation to build from the algebra")
    p_derive.set_defaults(fn=cmd_derive)

    p_corpus = subs.add_parser("corpus", help="work with the bundled fixtures")
    p_corpus.add_argument("action", choices=("verify", "list", "write", "show"))
    p_corpus.add_argument("name", nargs="?", type=_path,
                          help="fixture name or output directory")
    p_corpus.add_argument("--dir", type=_path, help="verify fixtures from this directory instead")
    p_corpus.set_defaults(fn=cmd_corpus)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "fn", None):
        parser.print_help()
        return 2
    try:
        return args.fn(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (DocumentError, ScalarParseError) as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print("precondition failed: %s" % exc, file=sys.stderr)
        if exc.report is not None:
            print(exc.report.render(_verbosity()), file=sys.stderr)
        return 1
    except (UnknownOperationError, LinAlgError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
