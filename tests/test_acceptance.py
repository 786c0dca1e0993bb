"""Acceptance suite: exact reproduction and equivalence criteria A1 - A7.

Each test prints one PASS/FAIL line for its criterion.  A3 contains an
exact-table assertion that is provably unattainable: the splitting
derived from the invariant form is a different compatible splitting
than the bundled one, and the construction's output is independent of
the (unique up to scale) choice of form.  That criterion is an expected
failure; its attainable clauses are asserted separately and must stay
green, and the argument that no form reproduces the bundled table is
checked by the three test_a3_* certificate tests below it.
"""

import dataclasses
import hashlib
import itertools
import random

import pytest
import sympy

from postlie import (
    Algebra,
    Document,
    Scalar,
    Tensor,
    check_pp_post_lie,
    compatible_pp_from_gph,
    corpus_doc,
    horizontal_post_lie,
    run_acceptance,
    save,
    sc,
    vertical_post_lie,
    write_corpus,
)
from postlie.algebra import _side
from postlie.forms import _cocycle, _invariance
from postlie.verify import (
    CRITERIA,
    CriterionResult,
    _Fixtures,
    _random_antisymmetric,
    _random_scalar,
    _table_diff_count,
)
from vectors import row, sparse


_RESULTS = None


def _results():
    global _RESULTS
    if _RESULTS is None:
        _RESULTS = {r.name: r for r in run_acceptance()}
    return _RESULTS


def _report(name):
    result = _results()[name]
    print()
    print(result.line())
    return result


def test_a1_rota_baxter_and_induced_products():
    assert _report("A1").passed


def test_a2_invariant_form():
    assert _report("A2").passed


@pytest.mark.xfail(strict=True,
                   reason="the form-derived splitting provably differs from the "
                          "bundled sl2_pp table in four entries: see "
                          "test_a3_invariant_forms_are_the_multiples_of_kappa, "
                          "test_a3_splitting_ignores_the_scale_of_the_form and "
                          "test_a3_splittings_differ_exactly_in_four_entries")
def test_a3_compatible_splitting_criterion():
    assert _report("A3").passed


# The A3 certificate: every invariant form on sl2_postlie is c * kappa, the
# construction does not see c, and its result is a valid splitting that is
# not sl2_pp, so no form reproduces the bundled table.

def _sympy(s):
    return sympy.Rational(s.a, s.d) + sympy.I * sympy.Rational(s.b, s.d)


def test_a3_invariant_forms_are_the_multiples_of_kappa(sl2_postlie, kappa):
    # check_invariant_form's identities are linear in B: lhs - rhs at the
    # nine unit forms are the columns of the system B must solve
    n = sl2_postlie.dim
    columns = []
    for a, b in itertools.product(range(n), repeat=2):
        unit = sparse((n, n), {a * n + b: sc(1)})
        identities = _invariance(sl2_postlie, unit, "inv", _cocycle)
        columns.append([_sympy(x) for identity in identities
                        for x in (_side(identity.lhs) - _side(identity.rhs)).entries])
    space = sympy.Matrix(columns).T.nullspace()
    assert len(space) == 1
    kappa_column = sympy.Matrix([_sympy(x) for x in kappa.entries])
    assert sympy.Matrix.hstack(space[0], kappa_column).rank() == 1


@pytest.mark.parametrize("c", ["2", "-1/2", "i"])
def test_a3_splitting_ignores_the_scale_of_the_form(sl2_postlie, kappa, c):
    assert (compatible_pp_from_gph(sl2_postlie, kappa.scale(sc(c)))
            == compatible_pp_from_gph(sl2_postlie, kappa))


def test_a3_splittings_differ_exactly_in_four_entries(sl2_postlie, kappa, sl2_pp):
    derived = compatible_pp_from_gph(sl2_postlie, kappa)
    assert check_pp_post_lie(derived).passed and check_pp_post_lie(sl2_pp).passed
    for product in (horizontal_post_lie, vertical_post_lie):
        assert product(derived) == product(sl2_pp)
    assert derived.table("bracket") == sl2_pp.table("bracket")
    for op in ("rtri", "ltri"):
        diff = derived.table(op) - sl2_pp.table(op)
        differ = diff.re.keys() | diff.im.keys()
        assert {(f // 9, f // 3 % 3, f % 3) for f in differ} == {(1, 2, 0), (2, 1, 0)}


def test_a3_attainable_clauses():
    # everything in the criterion except the table comparison holds, and
    # the discrepancy is exactly the documented four entries
    result = _report("A3")
    assert len(result.details) == 1
    assert "4 entries" in result.details[0]


def test_a_criterion_passes_exactly_when_it_has_no_detail():
    passing, failing = CriterionResult("A9", ()), CriterionResult("A9", ("x",))
    assert passing.passed and passing.line() == "A9: PASS"
    assert not failing.passed and failing.line() == "A9: FAIL\n    x"


def test_criterion_results_are_frozen():
    for result in _results().values():
        assert isinstance(result.details, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.passed = True


def test_table_diff_count_counts_differing_rows():
    # the cells (op, i, j) whose rows c[i, j, :] differ, against a row loop
    rng = random.Random(3)
    for n in range(4):
        for _ in range(5):
            entry = lambda: Scalar(rng.choice((0, 0, 1)), rng.choice((0, 0, 0, 1)))
            a, b = (Algebra(n, ops={op: Tensor((n, n, n), [entry() for _ in range(n ** 3)])
                                    for op in ("rtri", "ltri")}) for _ in range(2))
            rows = sum(row(a.table(op), i, j) != row(b.table(op), i, j)
                       for op in ("rtri", "ltri") for i in range(n) for j in range(n))
            assert _table_diff_count(a, b, ("rtri", "ltri")) == rows


def test_a4_double_construction():
    assert _report("A4").passed


def test_a5_final_pipeline():
    assert _report("A5").passed


def test_a6_equivalence_oracles():
    assert _report("A6").passed


def test_a7_structural_invariants():
    assert _report("A7").passed


def test_a7_evaluates_no_witness_side(monkeypatch):
    # A7 asks only whether its mutants fail, never for their witnesses or
    # sides: each failing check stops at its first failing identity
    from postlie import algebra
    sides, evaluated = [], []
    side, evaluate = algebra._side, algebra._evaluate
    monkeypatch.setattr(algebra, "_side", lambda *args: sides.append(args) or side(*args))
    monkeypatch.setattr(algebra, "_evaluate",
                        lambda *args: evaluated.append(args) or evaluate(*args))
    result, = run_acceptance(names=("A7",))
    assert result.passed
    assert sides == []
    # horizontal(sl2_pp) equals sl2_postlie, and the precondition gate runs
    # each Lie and post-Lie precondition once per value
    assert len(evaluated) == 87


def test_a6_draws_its_seeded_values_in_order():
    # A6 prints only PASS, so its random tensors and operator entries are
    # pinned here: 35 dim-3 and 15 dim-6 tensors, then 10 (value, index)
    rng = random.Random(20250808)
    draws = [_random_antisymmetric(rng, n) for n in [3] * 35 + [6] * 15]
    for _ in range(10):
        value = _random_scalar(rng) + sc(3)
        draws.append((value, (rng.randrange(3), rng.randrange(3))))
    assert (hashlib.sha256("\n".join(map(repr, draws)).encode()).hexdigest()
            == "16239e61dfdec578ab71b6202b34d5f2f69bf3206d760e286e1cf52bb7a8a064")


def test_every_criterion_ran():
    assert set(_results()) == {fn.criterion for fn in CRITERIA}


def test_criteria_independent_of_order():
    # one shared fixture set: a criterion that derives a mutant from a
    # fixture (A7 perturbs r6) must not change the verdict of another
    fx = _Fixtures()
    forward = {fn.criterion: fn(fx) for fn in CRITERIA}
    backward = {fn.criterion: fn(fx) for fn in reversed(CRITERIA)}
    assert backward == forward


def test_fixtures_parsed_once_per_run(monkeypatch):
    # A1, A2 and A3 all read sl2_postlie; one run parses it once
    import postlie.verify
    parsed = []
    load = postlie.verify.corpus_doc
    monkeypatch.setattr(postlie.verify, "corpus_doc",
                        lambda name: parsed.append(name) or load(name))
    results = run_acceptance(names=["A1", "A2", "A3"])
    assert [r.name for r in results] == ["A1", "A2", "A3"]
    assert parsed.count("sl2_postlie") == 1
    assert len(parsed) == len(set(parsed))


def test_a6_surfaces_a_crash_in_the_matched_pair_check(monkeypatch):
    # only a failed precondition counts as "not a matched pair"; any other
    # exception fails the criterion instead of passing as the expected
    # disagreement on the perturbed instance
    import postlie.verify

    def crash(*args, **kwargs):
        raise KeyError("bracket")

    monkeypatch.setattr(postlie.verify, "check_matched_pair", crash)
    result, = run_acceptance(names=["A6"])
    assert not result.passed
    assert result.details[0].startswith("raised KeyError")
    assert isinstance(result.details, tuple)


def test_a6_perturbed_matched_pair_fails_its_precondition():
    from postlie import PreconditionError, check_matched_pair, dualize, horizontal_post_lie
    from postlie.construct import coadjoint_matched_pair_maps
    from postlie.verify import _flip_comap_sign

    fx = _Fixtures()
    ahat = fx.algebra("ahat_pp")
    dual = dualize(_flip_comap_sign(fx.coalgebra("final_cobrackets"), "Delta"))
    with pytest.raises(PreconditionError):
        check_matched_pair(horizontal_post_lie(ahat), horizontal_post_lie(dual),
                           coadjoint_matched_pair_maps(ahat, dual))


def _bump(directory, name, table, index):
    """Write the corpus to directory, then add 1 to the entry at index of the
    fixture name (of its table, or of its matrix for table None)."""
    write_corpus(str(directory))
    doc = corpus_doc(name)
    t = doc.body if table is None else doc.body[table]
    t = t + Tensor.blocks(t.shape, [(Tensor((1,) * len(index), [1]), index)])
    body = t if table is None else {**doc.body, table: t}
    save(Document(doc.kind, doc.field, doc.basis, body), directory / (name + ".txt"))


@pytest.mark.parametrize("criterion, name, table, index, detail", [
    ("A1", "sl2_postlie", "circ", (0, 1, 1), "induced circ table differs from sl2_postlie"),
    ("A2", "kappa", None, (0, 1),
     "Killing form fails the invariance conditions: gph: FAIL (56 instances checked)"),
    ("A5", "final_cobrackets", "Delta", (0, 1, 1), "computed Delta differs from final_cobrackets"),
    ("A5", "final_prepp", "se", (0, 1, 1),
     "final_prepp fails the quarter-split axioms: pre-pp-post-lie: FAIL (351 instances checked)"),
    ("A6", "ahat_pp", "rtri", (0, 1, 1),
     "corpus instance: manin/matched-pair/bialgebra = (False, False, False)"),
    ("A7", "ahat_pp", "rtri", (0, 0, 0), "horizontal of ahat_pp is not post-Lie"),
    # these two mutants stop at a precondition, before the criterion's own
    # details; for A4 so does every change of one sl2_pp entry by 1 or -1
    ("A4", "sl2_pp", "rtri", (0, 1, 1), "raised PreconditionError: not a post-Lie algebra"),
    ("A7", "sl2_postlie", "circ", (0, 1, 1), "raised PreconditionError: not a post-Lie algebra"),
], ids=["A1", "A2", "A5-Delta", "A5-se", "A6", "A7-rtri", "A4-precondition", "A7-precondition"])
def test_a_mutated_fixture_fails_its_criterion_with_a_named_detail(tmp_path, criterion, name,
                                                                   table, index, detail):
    _bump(tmp_path, name, table, index)
    result, = run_acceptance(corpus_dir=str(tmp_path), names=[criterion])
    assert not result.passed
    lines = result.line().split("\n")
    assert lines[:2] == ["%s: FAIL" % criterion, "    " + detail]
    # every line of a detail nests under the criterion, and the witness
    # lines of a report embedded in it (A2, A5-se) nest under the detail
    assert all(line.startswith("    ") for line in lines[1:])
    if detail.endswith("instances checked)"):
        assert lines[2].startswith("      ")
