"""The family cache: a check repeated on equal tables builds and plans nothing.

Every checker hands _sweep a family, a function of the tensors it reads
that returns the check's identities.  _sweep keeps each family call's
planned leaves, keyed by (family, tensors, witness limit), in the
family cache (algebra._plans); the witnesses of each leaf stay in the
verdict memo (algebra._witnesses) alone.  These tests count the family
calls that build (the misses), the terms planned and the identities
evaluated.
"""

from types import SimpleNamespace

import pytest

from postlie import algebra, bialgebra, construct, corpus_doc, forms, linalg
from postlie.algebra import Identity, PreconditionError, check_pp_post_lie, term
from postlie.bialgebra import check_pp_bialgebra
from postlie.forms import PPRepSpec, check_pp_rep, pp_adjoint_rep
from postlie.linalg import LinAlgError, Tensor
from postlie.scalars import ONE
from vectors import violations


@pytest.fixture
def counts(monkeypatch):
    """From here on: the name of every family built (a family-cache miss),
    the number of terms of every linalg._planned call and the name of every
    identity evaluated.  Each family is wrapped once, so that its wrapper is
    its cache key on every call."""
    built, planned, evaluated, wrapped = [], [], [], {}
    sweep, plan, evaluate = algebra._sweep, linalg._planned, algebra._evaluate

    def spied(name, family, tensors, *args, **kwargs):
        if family not in wrapped:
            def build(*tensors, family=family):
                built.append(family.__name__)
                return family(*tensors)
            wrapped[family] = build
        return sweep(name, wrapped[family], tensors, *args, **kwargs)

    def planning(terms):
        planned.append(len(terms))
        return plan(terms)

    def evaluating(identity, *rest):
        evaluated.append(identity.name)
        return evaluate(identity, *rest)

    for module in (algebra, forms, construct, bialgebra):
        monkeypatch.setattr(module, "_sweep", spied)
    monkeypatch.setattr(algebra, "_planned", planning)
    monkeypatch.setattr(linalg, "_planned", planning)
    monkeypatch.setattr(algebra, "_evaluate", evaluating)
    return SimpleNamespace(built=built, planned=planned, evaluated=evaluated)


def _clear(counts):
    for seen in vars(counts).values():
        seen.clear()


def _copy(t: Tensor) -> Tensor:
    return Tensor(t.shape, list(t.entries))


def _renamed(structure, changed=None):
    """An equal structure of fresh Tensors under other basis names, or, for
    changed = (table, entry), with that entry of that table raised by one."""
    def table(name, t):
        if changed is None or changed[0] != name:
            return _copy(t)
        entries = list(t.entries)
        entries[changed[1]] += ONE
        return Tensor(t.shape, entries)

    if isinstance(structure, PPRepSpec):
        return PPRepSpec(*(table(name, t) for name, t in
                           zip(("l_rt", "r_rt", "l_lt", "r_lt", "rho"), structure.carriers())))
    record = type(structure)
    basis = tuple("x%d" % (i + 1) for i in range(structure.dim))
    return record(structure.dim, structure.field, basis,
                  {name: table(name, t) for name, t in structure.tables.items()})


SL2_PP = corpus_doc("sl2_pp").to_algebra()
AHAT_PP = corpus_doc("ahat_pp").to_algebra()
COBRACKETS = corpus_doc("final_cobrackets").to_coalgebra()

# check -> (the checker, its arguments, and for a one-entry mutant of each
# table of each argument the families rebuilt: the families that read the
# table, up to a precondition that the mutant fails)
CASES = {
    "pp-post-lie": (check_pp_post_lie, (SL2_PP,), {
        (0, "rtri"): {"PP_IDENTITIES"},
        (0, "ltri"): {"PP_IDENTITIES"},
        (0, "bracket"): {"LIE_IDENTITIES"},
    }),
    "pp-rep": (check_pp_rep, (SL2_PP, pp_adjoint_rep(SL2_PP)), {
        (0, "rtri"): {"PP_IDENTITIES"},
        (0, "bracket"): {"LIE_IDENTITIES"},
        **{(1, carrier): {"_pp_rep"} for carrier in ("l_rt", "r_rt", "l_lt", "r_lt", "rho")},
    }),
    "pp-bialgebra": (check_pp_bialgebra, (AHAT_PP, COBRACKETS), {
        (0, "rtri"): {"PP_IDENTITIES", "_pp_bialgebra"},
        (0, "ltri"): {"PP_IDENTITIES", "_pp_bialgebra"},
        (0, "bracket"): {"LIE_IDENTITIES"},
        (1, "delta_rtri"): {"PP_IDENTITIES", "_pp_bialgebra"},
        (1, "delta_ltri"): {"PP_IDENTITIES", "_pp_bialgebra"},
        (1, "Delta"): {"LIE_IDENTITIES", "_pp_bialgebra"},
    }),
}


@pytest.mark.parametrize("kind", list(CASES))
def test_a_repeat_on_equal_tables_builds_plans_and_evaluates_nothing(kind, counts):
    check, args, _ = CASES[kind]
    first = check(*args)
    assert first.passed and counts.built and counts.planned and counts.evaluated
    _clear(counts)
    again = check(*(_renamed(arg) for arg in args))
    assert again.passed and again.checked == first.checked
    assert counts.built == counts.planned == counts.evaluated == []


@pytest.mark.parametrize("kind, changed", [(kind, changed) for kind, (_, _, mutants)
                                           in CASES.items() for changed in mutants])
def test_a_one_entry_mutant_rebuilds_the_families_that_read_it(kind, changed, counts):
    check, args, mutants = CASES[kind]
    assert check(*args).passed
    _clear(counts)
    at, table = changed
    mutant = [_renamed(arg, (table, 0) if k == at else None) for k, arg in enumerate(args)]
    try:
        check(*mutant).passed
    except PreconditionError:
        pass
    assert set(counts.built) == mutants[changed]
    assert len(counts.built) == len(set(counts.built))


def _family(t):
    return [Identity("key", "ij", [term("ij->ij", t)])]


def _other_family(t):
    return [Identity("key", "ij", [term("ij->ij", t)])]


def test_each_part_of_the_key_misses_the_family_cache(counts):
    m = Tensor((2, 2), [1, 2, 0, 3])
    sweep = lambda family, t, per_identity=None: algebra._sweep(
        "key", family, (t,), per_identity=per_identity).passed
    sweep(_family, m)
    sweep(_family, _copy(m))
    assert counts.built == ["_family"] and counts.evaluated == ["key"]
    _clear(counts)
    # another family, another tensor, another witness limit
    sweep(_other_family, m)
    sweep(_family, Tensor((2, 2), [1, 2, 0, 4]))
    sweep(_family, m, per_identity=1)
    assert counts.built == ["_other_family", "_family", "_family"]
    # an equal leaf of another family shares its verdict all the same
    assert counts.evaluated == ["key", "key"]


def test_the_family_cache_holds_at_most_its_bound(counts):
    bound = algebra._plans.cache_info().maxsize
    sweep = lambda k: algebra._sweep("bound", _family, (Tensor((1, 1), [k]),))
    for k in range(bound):
        sweep(k)
        assert algebra._plans.cache_info().currsize == k + 1
    assert len(counts.built) == bound
    # the least recently used entry is dropped first: call 0, made again,
    # outlives call 1, the oldest entry not used since
    _clear(counts)
    sweep(0)
    sweep(bound)
    assert algebra._plans.cache_info().currsize == bound
    assert counts.built == ["_family"]
    _clear(counts)
    for k in (0, 2, bound):
        sweep(k)
    assert counts.built == []
    sweep(1)
    assert counts.built == ["_family"]


def test_an_error_is_raised_by_every_call_and_nothing_is_kept(counts):
    def extents(a, b):
        return [Identity("extents", "ik", [term("ij,jk->ik", a, b)])]

    for _ in range(2):
        with pytest.raises(LinAlgError, match="label 'j' has extents 3 and 2"):
            algebra._sweep("bad", extents, (Tensor.identity(3), Tensor.zero(2, 3)))
    assert counts.built == ["extents", "extents"]
    assert algebra._plans.cache_info().currsize == 0


def test_a_mutant_shares_the_verdicts_of_the_leaves_it_leaves_unchanged(counts):
    assert check_pp_post_lie(SL2_PP).passed
    _clear(counts)
    # rtri raised at one entry: pp.1, pp.2a and pp.2b read only ltri and the bracket
    report = check_pp_post_lie(_renamed(SL2_PP, ("rtri", 0)))
    assert violations(report) and counts.built == ["PP_IDENTITIES"]
    assert counts.evaluated and {"pp.1", "pp.2a", "pp.2b"}.isdisjoint(counts.evaluated)
