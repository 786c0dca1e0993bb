"""Caching cannot change a verdict.

Every process-wide cache of the package is an lru_cache registered by
linalg._cached, and linalg._clear empties them all.  Every golden CLI
transcript (each check and derive case of test_golden) and `corpus verify`
give the same exit code, stdout and stderr in three modes: cold (every
cache emptied before each command), warm (each command run twice in one
process, the second run compared) and uncached (each registered cache
replaced by the function it wraps).
"""

import hashlib
import json
import sys

import pytest

import postlie.verify  # noqa: F401  (every module that registers a cache)
from postlie import Tensor, einsum, linalg
from postlie.corpus import corpus_text
from postlie.documents import loads
from test_golden import CASES, GOLDEN, case_id, transcript, write_inputs
from test_io_cli import VERIFY_SHA256

VERIFY = ("corpus", "verify")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("modes"))
    write_inputs(directory)
    return directory


@pytest.fixture(scope="module")
def expected():
    """The golden transcript of every case, and that of corpus verify."""
    with open(GOLDEN, encoding="utf-8") as fh:
        goldens = json.load(fh)
    return {**{case: goldens[case_id(case)] for case in CASES}, VERIFY: None}


def _owner(cache):
    return sys.modules[cache.__module__]


def test_every_process_wide_cache_is_registered():
    assert sorted(cache.__name__ for cache in linalg._CACHES) == [
        "_coadjoint", "_gather", "_permutation", "_plan", "_plans", "_table"]
    for cache in linalg._CACHES:
        assert getattr(_owner(cache), cache.__name__) is cache
        assert 0 < cache.cache_info().maxsize <= 1024
    # each is read under its own name only, so replacing that name bypasses it
    for module in [m for name, m in sys.modules.items() if name.startswith("postlie.")]:
        for name, value in vars(module).items():
            assert value not in linalg._CACHES or _owner(value) is module, (module, name)


def test_clear_empties_every_cache(inputs):
    transcript(VERIFY, inputs)
    # full groups, so the pair packs and reads a gather (test_packed_rows)
    einsum("ij,jk->ki", Tensor((8, 3), [k % 5 + 1 for k in range(24)]),
           Tensor((3, 16), [(k * 7) % 11 - 5 or 6 for k in range(48)]))
    assert all(cache.cache_info().currsize for cache in linalg._CACHES)
    linalg._clear()
    assert not any(cache.cache_info().currsize for cache in linalg._CACHES)


def test_reading_a_document_fills_no_cache():
    texts = [corpus_text(name) for name in ("ahat_pp", "final_cobrackets")]
    before = [cache.cache_info().currsize for cache in linalg._CACHES]
    for text in texts:
        assert loads(text).kind in ("algebra", "coalgebra")
    assert [cache.cache_info().currsize for cache in linalg._CACHES] == before


@pytest.mark.parametrize("mode", ["cold", "warm", "uncached"])
def test_every_transcript_is_the_same_in_every_cache_mode(mode, inputs, expected, monkeypatch):
    if mode == "uncached":
        for cache in linalg._CACHES:
            monkeypatch.setattr(_owner(cache), cache.__name__, cache.__wrapped__)
    for case, want in expected.items():
        if mode == "cold":
            linalg._clear()
        elif mode == "warm":
            transcript(case, inputs)
        got = transcript(case, inputs)
        if want is None:        # corpus verify: A3 fails, by design
            assert (got["exit"], got["stderr"]) == (1, "")
            assert hashlib.sha256(got["stdout"].encode()).hexdigest() == VERIFY_SHA256
        else:
            assert got == want, case_id(case)
    if mode == "uncached":
        assert not any(cache.cache_info().currsize for cache in linalg._CACHES)
