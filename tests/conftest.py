import pytest

from postlie import algebra, corpus_doc, scalars


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
def empty_precondition_gate():
    """Every test starts with no precondition remembered as passed, so the
    identities a test sees evaluated do not depend on the tests before it."""
    algebra._PASSED.clear()


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
