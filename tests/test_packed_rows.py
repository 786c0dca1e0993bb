"""The packed path's way out: each numerator part's rows are unpacked as one
block and placed by one cached gather (linalg._gather) into a whole-output
list, which a sum makes only when one of its pairs packs.

The gathers are a process-wide cache like the offset tables, so these tests
must pass whatever an earlier test left in it (CI runs them again in
reverse order).
"""

import pytest

import postlie.linalg as linalg
from postlie import (
    Document,
    Tensor,
    algebra,
    check_post_lie,
    check_pp_post_lie,
    einsum,
    horizontal_post_lie,
    pp_coadjoint_rep,
    save,
    semidirect_pp,
)
from postlie.cli import main
from vectors import sparse


def test_a_gather_reads_each_lane_at_its_output_offset():
    # rows 0, 8, 24 times slots 1, 2, 5: lane i * 3 + j lands at
    # rows[i] + slots[j], and every offset between that no lane covers
    # reads the appended 0
    rows, slots = (0, 8, 24), (1, 2, 5)
    lo, gather = linalg._gather(rows, slots)
    lanes = tuple(100 + lane for lane in range(9)) + (0,)
    placed = gather(lanes)
    assert lo == 1 and len(placed) == 24 + 5 + 1 - lo
    want = {p + q - lo: lanes[i * 3 + j] for i, p in enumerate(rows) for j, q in enumerate(slots)}
    assert placed == tuple(want.get(k, 0) for k in range(len(placed)))
    # one output offset: still a tuple
    assert linalg._gather((4,), (3,))[0] == 7
    assert linalg._gather((4,), (3,))[1]((5, 0)) == (5,)


def test_a_packed_contraction_is_the_same_with_a_cold_or_a_warm_gather_cache():
    # full groups (8 left and 16 right entries per shared key): the pair packs
    left = Tensor((8, 3), [k % 5 + 1 for k in range(24)])
    right = Tensor((3, 16), [(k * 7) % 11 - 5 or 6 for k in range(48)])
    linalg._gather.cache_clear()
    cold = einsum("ij,jk->ki", left, right)
    assert linalg._gather.cache_info().misses == 1
    warm = einsum("ij,jk->ki", left, right)
    assert linalg._gather.cache_info().hits == 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_packed", lambda *args: False)
        assert einsum("ij,jk->ki", left, right) == cold == warm


def _grown(alg):
    """alg + alg* along the coadjoint pp representation."""
    return semidirect_pp(alg, pp_coadjoint_rep(alg))


def test_a_sum_in_which_no_pair_packs_makes_no_whole_output_list(ahat_pp, monkeypatch):
    # the grown sparse pp algebras at dims 12 and 24, valid and a failing
    # mutant: every pair either misses the packing fill or shares no key,
    # so no sum makes or merges a whole-output list
    made, shared_keys = [], []
    place, merged, pack = linalg._place, linalg._merged, linalg._packed
    monkeypatch.setattr(linalg, "_place", lambda *args: made.append("place") or place(*args))
    monkeypatch.setattr(linalg, "_merged", lambda *args: made.append("merged") or merged(*args))

    def spy(a, side, rights, b, *rest):
        done = pack(a, side, rights, b, *rest)
        shared = {side[0][f] for f in a[0].keys() | a[1].keys()}
        shared_keys.append(bool(shared & (rights[0].keys() | rights[1].keys())))
        return done
    monkeypatch.setattr(linalg, "_packed", spy)
    twelve = _grown(ahat_pp)
    for alg in (twelve, _grown(twelve)):
        horizontal = horizontal_post_lie(alg)
        circ = horizontal.table("circ")
        broken = horizontal.with_op("circ", circ + sparse(circ.shape, {1: 1}))
        assert check_pp_post_lie(alg).passed and check_post_lie(horizontal).passed
        report = check_post_lie(broken)
        assert not report.passed
        report.render()
    # some pairs reach _packed, each with no shared key
    assert shared_keys and not any(shared_keys)
    assert made == []


def _dense_documents(dense, directory) -> dict:
    """The dense algebra and its single-entry rtri mutant as files."""
    rtri = dense.table("rtri")
    broken = dense.with_op("rtri", rtri + sparse(rtri.shape, {0: 1}))
    paths = {}
    for name, alg in (("dense", dense), ("broken", broken)):
        paths[name] = str(directory / (name + ".txt"))
        save(Document.from_algebra(alg), paths[name])
    return paths


@pytest.mark.parametrize("argv", [["check", "pp"], ["check", "--rep", "adjoint", "pp-rep"]],
                         ids=["pp", "pp-rep"])
def test_a_report_is_the_same_bytes_with_the_packed_path_on_or_off(
        dense_ahat_pp, tmp_path, capsys, monkeypatch, argv):
    paths = _dense_documents(dense_ahat_pp, tmp_path)
    packed, pack = [], linalg._packed
    monkeypatch.setattr(linalg, "_packed", lambda *args: packed.append(pack(*args)) or packed[-1])
    runs = {}
    for on in (True, False):
        if not on:
            monkeypatch.setattr(linalg, "_packed", lambda *args: False)
        for name, path in paths.items():
            # nothing known from the other run: every identity is evaluated
            algebra._MEMO.clear()
            algebra._PLANS.clear()
            code = main(argv + [path])
            out = capsys.readouterr()
            runs[on, name] = code, out.out, out.err
    assert True in packed
    assert runs[True, "dense"][0] == 0 and runs[True, "broken"][0] == 1
    assert "FAIL" in runs[True, "broken"][1] + runs[True, "broken"][2]
    for name in paths:
        assert runs[True, name] == runs[False, name]
