from fractions import Fraction

import pytest

from postlie import Algebra, Scalar, Tensor, algebra, corpus_doc, einsum, scalars


def pytest_addoption(parser):
    parser.addoption("--reverse", action="store_true",
                     help="run the collected tests last first, to show a test that "
                          "depends on what an earlier one left behind")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--reverse"):
        items.reverse()


@pytest.fixture(autouse=True)
def default_verbosity(monkeypatch):
    """Every test starts with POSTLIE_VERBOSE unset, so the CLI prints its
    default number of witnesses; a test that needs a value sets it."""
    monkeypatch.delenv("POSTLIE_VERBOSE", raising=False)


@pytest.fixture(autouse=True)
def empty_verdict_memo():
    """Every test starts with no evaluated identity in the verdict memo
    (algebra._MEMO) and no planned family in the family cache
    (algebra._PLANS), so the identities a test sees built, planned or
    evaluated do not depend on the tests before it."""
    algebra._MEMO.clear()
    algebra._PLANS.clear()


@pytest.fixture
def scalars_built(monkeypatch):
    """The (a, b, d) of every Scalar constructed from here on."""
    built = []
    raw = scalars._raw
    monkeypatch.setattr(scalars, "_raw", lambda a, b, d: built.append((a, b, d)) or raw(a, b, d))
    return built


@pytest.fixture(scope="session")
def sl2_lie():
    return corpus_doc("sl2_lie").to_algebra()


@pytest.fixture(scope="session")
def sl2_postlie():
    return corpus_doc("sl2_postlie").to_algebra()


@pytest.fixture(scope="session")
def sl2_pp():
    return corpus_doc("sl2_pp").to_algebra()


@pytest.fixture(scope="session")
def sl2_P():
    return corpus_doc("sl2_P").to_matrix()


@pytest.fixture(scope="session")
def kappa():
    return corpus_doc("kappa").to_matrix()


@pytest.fixture(scope="session")
def final_P():
    return corpus_doc("final_P").to_matrix()


@pytest.fixture(scope="session")
def final_prepp():
    return corpus_doc("final_prepp").to_algebra()


@pytest.fixture(scope="session")
def ahat_pp():
    return corpus_doc("ahat_pp").to_algebra()


@pytest.fixture(scope="session")
def r6():
    return corpus_doc("r6").to_matrix()


@pytest.fixture(scope="session")
def final_cobrackets():
    return corpus_doc("final_cobrackets").to_coalgebra()


@pytest.fixture(scope="session")
def dense_ahat_pp(ahat_pp):
    """ahat_pp in the basis f_a = sum_i g[a, i] e_i of a fixed dense g over
    Q(i) with denominators: every table c becomes
    c'[a, b, c] = sum g[a, i] g[b, j] c[i, j, k] g^-1[k, c]."""
    n = ahat_pp.dim
    g = Tensor((n, n), [Scalar(Fraction((a + 2 * i) % 5 - 2, 1 + (a * i) % 3),
                               Fraction((2 * a + i) % 3 - 1, 2))
                        for a in range(n) for i in range(n)])
    assert g.det()
    ginv = g.inverse()
    return Algebra(n, "Q(i)", ahat_pp.basis, {
        name: einsum("ai,bj,ijk,kc->abc", g, g, table, ginv)
        for name, table in ahat_pp.ops.items()})
