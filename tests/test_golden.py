"""Golden CLI transcripts: exit code, stdout and stderr of every check and
derive kind on the bundled corpus and on single-entry mutants of it.

Derive cases write their document to stdout, so each golden holds the
emitted text.  The temporary fixture directory is written as ``<dir>``.
After an intended change of output, regenerate the goldens with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import random
import tempfile

import pytest

from postlie import (ONE, CheckReport, Document, Scalar, Tensor, corpus_doc, dualize, dumps,
                     einsum, loads)
from postlie import cli
from postlie.algebra import MAX_VIOLATIONS, PreconditionError, Witness
from postlie.cli import CHECK_KINDS, DERIVE_KINDS, main
from postlie.corpus import write_corpus
from vectors import violations

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli.json")

# "@name" stands for the fixture file name.txt in the fixture directory
CASES = [
    ("check", "lie", "@sl2_lie"),
    ("check", "lie"),
    ("check", "lie", "@missing"),
    ("check", "pre-lie", "@final_prepp"),
    ("check", "pre-lie", "@sl2_postlie"),
    ("check", "post-lie", "@sl2_postlie"),
    ("check", "pp", "@sl2_pp"),
    ("check", "pp", "@sl2_pp_broken"),
    ("check", "pre-pp", "@final_prepp"),
    ("check", "pre-pp", "@prepp_bumped"),
    ("check", "l-dendriform", "@sl2_pp"),
    ("check", "rep", "@sl2_postlie"),
    ("check", "rep", "@sl2_pp", "--rep", "split-dual"),
    ("check", "pp-rep", "@sl2_pp"),
    ("check", "pp-rep", "@sl2_pp", "--rep", "coadjoint"),
    ("check", "pp-rep", "@final_prepp", "--rep", "quarter"),
    ("check", "pp-rep", "@sl2_pp_broken"),
    ("check", "rb", "@sl2_lie", "@sl2_P", "--weight", "1"),
    ("check", "rb", "@sl2_lie", "@final_P"),
    ("check", "rb", "@sl2_lie"),
    ("check", "o-op", "@sl2_pp", "@final_P"),
    ("check", "o-op", "@sl2_pp", "@sl2_P"),
    ("check", "dual-p-o", "@sl2_pp", "@sl2_P", "--rep", "split-dual"),
    ("check", "dual-p-o", "@sl2_pp", "@identity3", "--rep", "split-dual"),
    ("check", "strong", "@sl2_pp", "@sl2_P", "--rep", "split-dual"),
    ("check", "strong", "@sl2_pp", "@identity3", "--rep", "split-dual"),
    ("check", "invariant-form", "@sl2_postlie", "@kappa"),
    ("check", "invariant-form", "@sl2_postlie", "@sl2_P"),
    ("check", "left-invariant", "@sl2_postlie", "@kappa"),
    ("check", "left-invariant", "@sl2_postlie", "@sl2_P"),
    ("check", "gph", "@sl2_postlie", "@kappa"),
    ("check", "gph", "@sl2_postlie", "@sl2_P"),
    ("check", "gph", "@sl2_postlie", "@final_P"),
    ("check", "lie-coalg", "@final_cobrackets"),
    ("check", "lie-coalg", "@cobrackets_bumped"),
    ("check", "pp-coalg", "@final_cobrackets"),
    ("check", "pp-coalg", "@final_cobrackets", "--mode", "both"),
    ("check", "pp-coalg", "@final_cobrackets", "--mode", "direct"),
    ("check", "pp-coalg", "@cobrackets_bumped"),
    ("check", "pp-coalg", "@cobrackets_ltri", "--mode", "both"),
    ("check", "lie-bialg", "@ahat_pp", "@final_cobrackets"),
    ("check", "lie-bialg", "@ahat_pp", "@cobrackets_bumped"),
    ("check", "pp-bialg", "@ahat_pp", "@final_cobrackets"),
    ("check", "pp-bialg", "@ahat_pp", "@cobrackets_ltri"),
    ("check", "matched-pair", "@ahat_pp", "@dual_pp"),
    ("check", "matched-pair", "@ahat_pp", "@dual_broken"),
    ("check", "matched-pair", "@sl2_pp", "@sl2_pp"),
    ("check", "manin-triple", "@ahat_pp", "@dual_pp"),
    ("check", "manin-triple", "@ahat_pp", "@dual_broken"),
    ("check", "manin-triple", "@sl2_pp", "@sl2_pp"),
    ("check", "manin-triple", "@sl2_pp", "@zero_pp"),
    ("check", "cybe", "@ahat_pp", "@r6"),
    ("check", "cybe", "@ahat_pp", "@r6_flipped"),
    ("check", "quasi", "@ahat_pp", "@r6"),
    ("check", "quasi", "@ahat_pp", "@r6_flipped"),
    ("check", "op-form", "@ahat_pp", "@r6"),
    ("check", "op-form", "@ahat_pp", "@r6_flipped"),
    ("derive", "sub-adjacent", "@sl2_postlie"),
    ("derive", "sub-adjacent", "@final_prepp"),
    ("derive", "horizontal", "@sl2_pp"),
    ("derive", "vertical", "@sl2_pp"),
    ("derive", "transpose", "@sl2_pp"),
    ("derive", "opposite", "@sl2_postlie"),
    ("derive", "induced", "@sl2_lie", "@sl2_P"),
    ("derive", "induced", "@sl2_lie", "@final_P"),
    ("derive", "semidirect", "@sl2_postlie"),
    ("derive", "semidirect", "@sl2_pp", "--rep", "split-dual"),
    ("derive", "semidirect-pp", "@sl2_pp"),
    ("derive", "semidirect-pp", "@sl2_pp", "--rep", "coadjoint"),
    ("derive", "bowtie", "@sl2_pp", "@zero_pp"),
    ("derive", "bowtie", "@sl2_pp", "@sl2_pp"),
    ("derive", "double", "@sl2_pp"),
    ("derive", "manin", "@ahat_pp", "@dual_pp"),
    ("derive", "manin", "@ahat_pp", "@dual_broken"),
    ("derive", "manin", "@sl2_pp", "@sl2_pp"),
    ("derive", "pp-from-gph", "@sl2_postlie", "@kappa"),
    ("derive", "bullet-from-gph", "@sl2_postlie", "@kappa"),
    ("derive", "pre-pp-from-o", "@sl2_pp", "@final_P"),
    ("derive", "invertible-o-pre-pp", "@final_prepp", "@identity3", "--rep", "quarter"),
    ("derive", "embed-r", "@final_prepp", "--rep", "quarter"),
    ("derive", "embed-r", "@final_prepp", "@identity3", "--rep", "quarter"),
    ("derive", "embed-r"),
    ("derive", "cobrackets-from-r", "@ahat_pp", "@r6"),
    ("derive", "cobrackets-from-r", "@ahat_pp", "@r6_flipped"),
    ("derive", "dualize", "@sl2_pp"),
    ("derive", "dualize", "@final_cobrackets"),
]

IDENTITY3 = ("kind map\nfield Q(i)\ndim 3\nbasis e1 e2 e3\n"
             "matrix\n1 0 0\n0 1 0\n0 0 1\nend\n")
ZERO_PP = ("kind algebra\nfield Q(i)\ndim 3\nbasis f1 f2 f3\n"
           "op rtri\nend\nop ltri\nend\nop bracket\nend\n")


def _bumped(table, k, i, j, delta=ONE):
    n = table.shape[0]
    entries = list(table.entries)
    entries[(k * n + i) * n + j] += delta
    return Tensor(table.shape, entries)


def _with(doc, name, table):
    """doc with the table name of its body replaced by table."""
    return dataclasses.replace(doc, body={**doc.body, name: table})


def write_inputs(directory):
    """The corpus plus the mutants and helper documents the cases name."""
    write_corpus(directory)
    prepp = corpus_doc("final_prepp")
    prepp = _with(prepp, "se", _bumped(prepp.body["se"], 0, 1, 1))
    r6 = corpus_doc("r6")
    entries = list(r6.body.entries)
    entries[3] = -entries[3]  # entry (0, 3) of the 6x6 tensor
    r6 = dataclasses.replace(r6, body=Tensor(r6.body.shape, entries))
    co = corpus_doc("final_cobrackets")
    flipped = -co.body["Delta"]
    docs = {
        "identity3": IDENTITY3,
        "zero_pp": ZERO_PP,
        "prepp_bumped": dumps(prepp),
        "r6_flipped": dumps(r6),
        "cobrackets_bumped": dumps(_with(co, "Delta", _bumped(co.body["Delta"], 0, 0, 1))),
        "cobrackets_ltri": dumps(_with(
            co, "delta_ltri", _bumped(co.body["delta_ltri"], 0, 0, 1))),
        "dual_pp": dumps(Document.from_algebra(dualize(co.to_coalgebra()))),
        "dual_broken": dumps(Document.from_algebra(dualize(
            _with(co, "Delta", flipped).to_coalgebra()))),
    }
    for name, text in docs.items():
        with open(os.path.join(directory, name + ".txt"), "w", encoding="utf-8") as fh:
            fh.write(text)


def case_id(case):
    return " ".join(case)


def _argv(case, directory):
    return [os.path.join(directory, w[1:] + ".txt") if w.startswith("@") else w
            for w in case]


def transcript(case, directory):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_argv(case, directory))
    return {
        "exit": code,
        "stdout": out.getvalue().replace(directory, "<dir>"),
        "stderr": err.getvalue().replace(directory, "<dir>"),
    }


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("golden"))
    write_inputs(directory)
    return directory


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("command,kind",
                         [("check", k) for k in CHECK_KINDS]
                         + [("derive", k) for k in DERIVE_KINDS])
def test_cli_matches_golden(command, kind, inputs, goldens):
    cases = [c for c in CASES if c[:2] == (command, kind)]
    assert cases, "no golden case for %s %s" % (command, kind)
    for case in cases:
        assert transcript(case, inputs) == goldens[case_id(case)], case_id(case)


def test_every_derived_document_reads_back(goldens):
    derived = [key for key, golden in goldens.items()
               if key.startswith("derive ") and golden["exit"] == 0]
    assert len(derived) > 20
    for key in derived:
        text = goldens[key]["stdout"]
        assert dumps(loads(text)) == text, key


# the report that re-validates each derived algebra, by the name its
# checker gives it; sub-adjacent's depends on whether the input is pre-pp
REVALIDATED = {
    ("sub-adjacent", "@sl2_postlie"): "lie",
    ("sub-adjacent", "@final_prepp"): "pp-post-lie",
    **{(kind, None): "post-lie" for kind in (
        "horizontal", "vertical", "opposite", "induced", "semidirect", "bowtie",
        "bullet-from-gph")},
    **{(kind, None): "pp-post-lie" for kind in (
        "transpose", "semidirect-pp", "pp-from-gph", "embed-r")},
    **{(kind, None): "pre-pp-post-lie" for kind in ("pre-pp-from-o", "invertible-o-pre-pp")},
}


def test_derived_algebras_are_revalidated_by_their_checker(inputs):
    """A passing derive prints only its document, so the goldens do not show
    which check re-validated it: every golden case of an algebra-producing
    kind returns the report of the checker its derived tables call for."""
    seen = set()
    for case in CASES:
        key = case[1:3] if case[1:3] in REVALIDATED else (case[1], None)
        if case[0] != "derive" or key not in REVALIDATED or len(case) < 3:
            continue
        args = cli.build_parser().parse_args(_argv(case, inputs))
        try:
            _, report = cli._run_kind("derive", cli.DERIVES, args)
        except PreconditionError:   # the input is refused before anything is derived
            continue
        assert report.name == REVALIDATED[key], case_id(case)
        seen.add(key)
    assert seen == set(REVALIDATED)


def test_checks_run_on_whole_tensors(inputs, monkeypatch):
    """Every check kind evaluates its identities as whole-tensor equations,
    and the identity module has no itertools to loop over index tuples with."""
    import postlie.algebra as algebra

    evaluated = []
    evaluate = algebra._evaluate

    def recorded(identity, *rest):
        evaluated.append(identity.name)
        return evaluate(identity, *rest)

    monkeypatch.setattr(algebra, "_evaluate", recorded)
    kinds = set()
    for case in CASES:
        if case[0] == "check":
            transcript(case, inputs)
            kinds.add(case[1])
    assert kinds == set(CHECK_KINDS)
    assert not hasattr(algebra, "itertools")
    assert {"lie.jacobi", "prelie.left-sym", "postlie.2", "pp.5", "ldend.1", "prepp.11",
            "rep.lie", "pprep.lie", "oop.1", "dpo.1", "strong.1", "inv.lie", "form.sym",
            "leftinv.circ", "rb", "mp.01", "mp.03", "manin.closure-a", "bialg.cocycle",
            "ppbialg.1", "ppco.1", "cybe.c", "quasi.colie.1"} <= set(evaluated)


def test_transcripts_replay_in_one_process_in_any_order(inputs, goldens):
    """The parser shared by every main() call keeps no state: every golden
    transcript replays in a shuffled order, between calls that make
    argparse print help or exit."""
    exiting = [("check", "nonsense"), ("--help",), ()]
    order = [(case, False) for case in CASES] + [(argv, True) for argv in exiting * 8]
    random.Random(13).shuffle(order)
    seen = {}
    for argv, exits in order:
        if not exits:
            assert transcript(argv, inputs) == goldens[case_id(argv)], case_id(argv)
            continue
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        got = (code, out.getvalue(), err.getvalue())
        assert got[0] in (0, 2) and got[1] + got[2]
        assert seen.setdefault(argv, got) == got, argv


def test_check_transcripts_repeat_on_a_warm_memo(inputs, goldens, monkeypatch):
    """Every check case prints the same bytes with the same exit code when it
    runs again in one process: the second run reads every family's planned
    identities from the family cache, plans no term (not even an einsum's)
    and evaluates no identity, reading every verdict from the verdict memo."""
    import postlie.algebra as algebra
    import postlie.linalg as linalg

    evaluated, planned = [], []
    evaluate, plan = algebra._evaluate, linalg._planned
    monkeypatch.setattr(algebra, "_evaluate",
                        lambda *args: evaluated.append(args) or evaluate(*args))
    for module in (algebra, linalg):
        monkeypatch.setattr(module, "_planned",
                            lambda terms: planned.append(terms) or plan(terms))
    for case in CASES:
        if case[0] == "check":
            assert transcript(case, inputs) == goldens[case_id(case)], case_id(case)
            evaluated.clear()
            planned.clear()
            assert transcript(case, inputs) == goldens[case_id(case)], case_id(case)
            assert evaluated == [] and planned == [], case_id(case)


def _rendered_reports(case, directory, monkeypatch):
    """Every CheckReport the CLI renders for case."""
    reports = []
    render = CheckReport.render
    with monkeypatch.context() as patch:
        patch.setattr(CheckReport, "render",
                      lambda self, limit=None: reports.append(self) or render(self, limit))
        transcript(case, directory)
    return reports


def _failing_reports(inputs, goldens, monkeypatch):
    """(case, report) for every report the failing goldens render, which
    cover every failing golden that prints a verdict."""
    failing = [case for case in CASES if goldens[case_id(case)]["exit"] == 1]
    reports = [(case, report) for case in failing
               for report in _rendered_reports(case, inputs, monkeypatch)]
    assert {case for case, _ in reports} >= {
        case for case in failing if "FAIL" in goldens[case_id(case)]["stdout"]}
    return reports


def reference_render(report, limit=None) -> str:
    """The text of a report as rendered from all of its violations."""
    lines = ["%s: %s (%d instances checked)" % (
        report.name or "check", "PASS" if report.passed else "FAIL", report.checked)]
    found = violations(report)
    for identity, indices, lhs, rhs in (found if limit is None else found[:limit]):
        idx = ",".join(str(i + 1) for i in indices)
        lines.append("  %s at basis (%s): lhs = (%s), rhs = (%s)"
                     % (identity, idx, ", ".join(str(s) for s in lhs),
                        ", ".join(str(s) for s in rhs)))
    if limit is not None and len(found) > limit:
        lines.append("  ... %d more" % (len(found) - limit))
    return "\n".join(lines)


def test_render_evaluates_only_the_witnesses_it_prints(inputs, goldens, monkeypatch):
    import postlie.algebra as algebra

    evaluated = []

    def counted(identity, indices, sides):
        return Witness(identity, indices, lambda: evaluated.append(indices) or sides())

    monkeypatch.setattr(algebra, "Witness", counted)
    reports = _failing_reports(inputs, goldens, monkeypatch)
    most = 0
    for case, report in reports:
        most = max(most, len(report.witnesses))
        for limit in (0, 1, 5, None):
            evaluated.clear()
            text = report.render(limit)
            shown = len(report.witnesses) if limit is None else limit
            assert len(evaluated) == min(shown, len(report.witnesses))
            assert text == reference_render(report, limit), case_id(case)
    assert most > 5     # some report has witnesses render(5) leaves out


def _fresh(report):
    """A copy of report and of every report in its tree, none evaluated."""
    return dataclasses.replace(report, parts=tuple(
        (prefix, _fresh(part)) for prefix, part in report.parts))


def _eager(report):
    """The instance count and violations of report by an eager sweep: a
    leaf's two sides summed at once term by term as Tensors and compared at
    every index tuple, the violations of a part with a prefix renamed
    prefix.identity, then sorted and cut to MAX_VIOLATIONS."""
    if report.plan:
        identity, limit = report.plan.identity, report.plan.limit
        k, first = len(identity.index), (identity.lhs or identity.rhs)[0]
        shape = einsum(first.spec, *first.operands).shape
        lhs, rhs = (sum((einsum(t.spec, *t.operands).scale(Scalar(t.coef)) for t in side),
                        Tensor.zero(*shape)) for side in (identity.lhs, identity.rhs))
        values = list(itertools.product(*map(range, shape[k:])))
        tuples = list(itertools.product(*map(range, shape[:k])))
        sides = [(idx, *(tuple(t[idx + v] for v in values) for t in (lhs, rhs)))
                 for idx in tuples]
        return len(tuples), [(identity.name, idx, l, r) for idx, l, r in sides if l != r][:limit]
    checked, found = 0, []
    for prefix, part in report.parts:
        count, inner = _eager(part)
        found += [v if prefix is None else (prefix + "." + v[0], *v[1:]) for v in inner]
        checked += count
    found.sort(key=lambda v: v[:2])
    return checked, found[:MAX_VIOLATIONS]


def test_reading_the_verdict_first_changes_no_report(inputs, goldens, monkeypatch):
    """Every report of a failing golden has the same instance count,
    witnesses and text whether its verdict or its witnesses are read
    first, and they are those of an eager sweep."""
    reports = _failing_reports(inputs, goldens, monkeypatch)
    assert any(prefix for _, report in reports for prefix, _ in report.parts)
    for case, report in reports:
        checked, want = _eager(report)
        verdict_first, witnesses_first = _fresh(report), _fresh(report)
        passed = verdict_first.passed
        seen = [(r.checked, violations(r), [w[:2] for w in r.witnesses], r.render(), r.passed)
                for r in (verdict_first, witnesses_first)]
        assert seen[0] == seen[1], case_id(case)
        assert seen[0][:2] == (checked, tuple(want)), case_id(case)
        assert passed is (not want) and seen[0][3] == report.render(), case_id(case)


def _tree(report):
    """Every report in report's tree, report first."""
    return [report] + [r for _, part in report.parts for r in _tree(part)]


def test_a_report_counts_what_its_leaves_count(inputs, goldens, monkeypatch):
    """On every failing golden report, a leaf counts the index tuples of
    its identity and any other report the sum of its parts' counts."""
    leaves = 0
    for case, report in _failing_reports(inputs, goldens, monkeypatch):
        for node in _tree(report):
            if node.plan:
                identity = node.plan.identity
                first = (identity.lhs or identity.rhs)[0]
                shape = einsum(first.spec, *first.operands).shape
                want = math.prod(shape[:len(identity.index)])
                assert node.parts == () and node.checked == want, case_id(case)
                leaves += 1
            else:
                assert node.checked == sum(part.checked for _, part in node.parts), case_id(case)
        assert report.checked == sum(node.checked for node in _tree(report) if node.plan), \
            case_id(case)
    assert leaves


if __name__ == "__main__":
    os.environ.pop("POSTLIE_VERBOSE", None)
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        records = {case_id(c): transcript(c, tmp) for c in CASES}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
