#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of postlie).

    python3 benchmarks/selftest.py          # from the root of a checkout

* every generator yields a valid algebra at every dimension, for two seeds;
* every mutant fails, with witnesses;
* every derive oracle rejects its output with one entry changed;
* in a traced run, the self times of each op's spans sum to the op's wall
  time, and the gap over all ops stays within the tracing overhead.

The checks go through the CLI in-process, like the benchmark's ops.  The
dim-24 pp checks make this take a few minutes.
"""

import contextlib
import os
import random
import shutil
import sys
import tempfile

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import derived  # noqa: E402
import exact  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from postlie import cli  # noqa: E402

SEEDS = (1, 2)


def _cli(argv):
    code, out, err, _, crash = run._capture(cli.main, argv)
    assert crash is None, crash
    return code, out, err


def _verdict(kind, doc, directory, *extra):
    path = os.path.join(directory, "doc%d.txt" % len(os.listdir(directory)))
    exact.write(doc, path)
    return _cli(["check", kind, path, *extra])


def _passes(kind, doc, directory, *extra):
    code, out, err = _verdict(kind, doc, directory, *extra)
    assert code == 0 and ": PASS (" in out, (kind, doc["dim"], out[:200], err[:200])


def _fails_with_witness(kind, doc, directory):
    code, out, err = _verdict(kind, doc, directory)
    assert code == 1 and " at basis " in out, (kind, doc["dim"], out[:200], err[:200])


def _bundled(name):
    code, out, _ = _cli(["corpus", "show", name])
    assert code == 0
    return exact.loads(out)


def test_generators_yield_valid_algebras(directory):
    ahat = _bundled("ahat_pp")
    sparse = {3: _bundled("sl2_pp"), 6: ahat}
    sparse[12] = inputs.grow(ahat)
    sparse[24] = inputs.grow(sparse[12])
    for seed in SEEDS:
        rng = random.Random(seed)
        for n, alg in sparse.items():
            _passes("pp", inputs.signed_permutation(rng, n).algebra(alg), directory)
        for m in (2, 3, 4):
            gl = inputs.signed_permutation(rng, m * m).algebra(inputs.gl_bracket(m))
            _passes("lie", gl, directory)
        for n in (3, 6):
            _passes("pp", inputs.dense_change(rng, n).algebra(sparse[n]), directory)


def test_grow_matches_the_package_construction(directory):
    from postlie.construct import semidirect_pp
    from postlie.documents import loads
    from postlie.forms import dual_pp_rep, pp_adjoint_rep
    ours = _bundled("ahat_pp")
    theirs = loads(exact.dumps(ours)).to_algebra()
    for _ in range(2):
        ours = inputs.grow(ours)
        theirs = semidirect_pp(theirs, dual_pp_rep(theirs, pp_adjoint_rep(theirs), checked=False),
                               checked=False)
        again = loads(exact.dumps(ours)).to_algebra()
        for op in ("rtri", "ltri", "bracket"):
            assert again.table(op) == theirs.table(op), (ours["dim"], op)


def test_relabelled_corpus_verifies_identically(directory):
    for seed in SEEDS:
        where = os.path.join(directory, str(seed))
        os.makedirs(where)
        ops, _ = workloads.corpus_round(random.Random(seed), where, _cli)
        verify = ops[0]
        code, out, err = _cli(verify.argv)
        assert workloads.problem(verify, code, out, err) is None, out


def _variants(doc):
    """Copies of doc with one entry changed: the first entry of each table,
    matrix or bundle section in turn."""
    if doc["kind"] == "bundle":
        for name, section in doc["sections"].items():
            for variant in _variants(section):
                yield dict(doc, sections=dict(doc["sections"], **{name: variant}))
    elif "matrix" in doc:
        rows = [list(row) for row in doc["matrix"]]
        rows[0][0] = rows[0][0] + exact.ONE
        yield dict(doc, matrix=rows)
    else:
        key = "ops" if doc["kind"] == "algebra" else "comaps"
        for name, table in doc[key].items():
            changed = [[list(row) for row in plane] for plane in table]
            changed[0][0][0] = changed[0][0][0] + exact.ONE
            yield dict(doc, **{key: dict(doc[key], **{name: changed})})


def test_oracles_reject_wrong_documents(directory):
    """Each derive op's oracle accepts the program's output and rejects it
    with any one of its tables changed in one entry."""
    ops, _ = workloads.corpus_round(random.Random(1), directory, _cli)
    derives = 0
    for op in ops:
        if op.group == "corpus":
            continue
        code, out, err = _cli(op.argv)
        assert workloads.problem(op, code, out, err) is None, op.argv
        if op.group != "derive":
            continue
        derives += 1
        path = op.argv[op.argv.index("-o") + 1]
        with open(path, encoding="utf-8") as fh:
            good = fh.read()
        for variant in _variants(exact.read(path)):
            exact.write(variant, path)
            assert workloads.problem(op, code, out, err) is not None, op.argv
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(good)   # later ops read it
    assert derives >= 20, derives


def test_mutants_fail(directory):
    for seed in SEEDS:
        rng = random.Random(seed)
        pp = {3: _bundled("sl2_pp"), 6: _bundled("ahat_pp")}
        pp[12] = inputs.grow(pp[6])
        for n, alg in pp.items():
            mutant, _ = inputs.mutate_split(inputs.signed_permutation(rng, n).algebra(alg), rng)
            _fails_with_witness("pp", mutant, directory)
            _fails_with_witness("post-lie", derived.horizontal(mutant), directory)


def test_self_times_sum_to_op_wall_time(directory):
    def small_sweep(rng, where, cli_fn):
        ops, stats = workloads.sweep_round(rng, where, cli_fn)
        return [op for op in ops if op.dim <= 6], stats

    runner = run.Runner(small_sweep, cli, 7, directory)
    ops, _ = runner.prepare(0)
    untraced = runner.run_round(ops, workloads.problem)
    ops, _ = runner.prepare(1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = runner.run_round(ops, workloads.problem, tracer)
    finally:
        tracer.uninstall()
    assert not runner.problems, runner.problems
    overhead = traced["wall_s"] - untraced["wall_s"]
    gaps = [wall - self_sum for _, _, wall, self_sum in tracer.ops]
    assert all(gap >= 0 for gap in gaps), gaps
    assert all(self_sum > 0 for _, _, _, self_sum in tracer.ops)
    assert sum(gaps) <= max(overhead, 0.0) + 1e-3, (sum(gaps), overhead)


def main():
    failed = 0
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    for name, fn in list(globals().items()):
        if not name.startswith("test_"):
            continue
        directory = tempfile.mkdtemp(prefix="selftest-", dir=tmp_root)
        try:
            fn(directory)
            print("PASS", name, flush=True)
        except AssertionError as exc:
            failed += 1
            print("FAIL", name, exc, flush=True)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(tmp_root)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
