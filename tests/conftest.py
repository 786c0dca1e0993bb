import pytest

from postlie import Algebra, corpus_doc, scalars
from postlie.scalars import ZERO


def _scalar_mul(self, op, x, y):
    """Algebra.mul as a double loop over the Scalars of the structure table."""
    c, n = self.table(op), self.dim
    if len(x) != n or len(y) != n:
        raise ValueError("vector length mismatch")
    out = [ZERO] * n
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            coeff = xi * yj
            for k, ck in enumerate(c.row(i, j)):
                if ck:
                    out[k] = out[k] + coeff * ck
    return tuple(out)


@pytest.fixture
def naive_mul(monkeypatch):
    """Algebra.mul replaced by the Scalar double loop, so that a per-tuple
    reference shares no einsum with the checker it is compared against."""
    monkeypatch.setattr(Algebra, "mul", _scalar_mul)
    return _scalar_mul


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
