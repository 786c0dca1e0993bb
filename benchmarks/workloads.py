"""The benchmark's workloads: inputs, op lists and per-op oracles.

A workload builds one *round* at a time: it writes a fresh set of seeded
input files and returns the ops to run on them, in order.  Every op is a real
``postlie`` command line with the exit code it must return and, for derive
ops, a check of the document it writes, made after reloading it with the
benchmark's own reader (``exact.py``).

Why each workload exists:

* ``corpus`` -- today's real traffic: one ``corpus verify`` and every check
  and derive kind the bundled fixtures support, many small calls at dims 3
  and 6 on sparse tables.  The bialgebra, forms, construct and cli layers do
  most of the work.  Each round relabels the corpus by a seeded signed
  permutation of the basis, which keeps every verdict, every cost and the
  ``corpus verify`` output byte-identical while changing the input bytes.
  A dense chain rides along: the same kinds of work on dense tables with
  denominators (a fixed invertible change of basis over Q(i)), where each
  derived document feeds the next op and the splitting from the pairing
  form runs exact elimination.
* ``sweep`` -- the identity sweep and ``Algebra.mul`` at growing dimension on
  valid sparse pp algebras (3, 6, 12, 24) and gl_m (4, 9, 16), relabelled the
  same way, plus single-entry mutants that must fail with witnesses.  No
  elimination, no bialgebra code.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from dataclasses import dataclass
from typing import Callable, Optional

import derived
import exact
import inputs
from exact import ZERO

# sha256 of the stdout of `postlie corpus verify` on the bundled corpus at the
# commit that introduced this benchmark: A1-A7 with A3 as its documented FAIL.
VERIFY_SHA256 = "636a42387685c71f9d830cf9de9d4830e03326c3bb7fd2abbbd5e49129bf28de"


@dataclass
class Op:
    """One CLI invocation and what it must produce."""

    argv: list
    expect: int                       # exit code
    dim: int                          # dimension of the main input
    fail: str = "witness"             # for expect == 1: "witness" or "precondition"
    after: Optional[Callable] = None  # oracle on the written document(s); returns a problem
    key: bool = False                 # the workload's key op (key_op_s)

    @property
    def group(self) -> str:
        return self.argv[0]

    def input_key(self):
        """(command and options, digests of the input files); None if an
        input does not exist yet (it is written by an earlier op)."""
        words, digests = [], []
        skip = False
        for word in self.argv:
            if skip:
                skip = False
            elif word in ("-o", "--output"):
                skip = True
            elif os.sep in word:
                if not os.path.isfile(word):
                    return None
                with open(word, "rb") as fh:
                    digests.append(hashlib.sha256(fh.read()).hexdigest())
            else:
                words.append(word)
        return tuple(words), tuple(digests)


def problem(op: Op, code, out: str, err: str) -> Optional[str]:
    """Why the op's result is wrong, or None if it is right."""
    if code != op.expect:
        first = (err.strip() or out.strip()).splitlines()[:1]
        return "exit %s, expected %d: %s" % (code, op.expect, first[0] if first else "")
    if op.group == "check":
        lines = out.splitlines()
        if op.expect == 0:
            if not lines or ": PASS (" not in lines[0]:
                return "no PASS verdict"
        elif op.fail == "precondition":
            if not err.startswith("precondition failed"):
                return "no precondition failure reported"
        elif not lines or ": FAIL (" not in lines[0] or not any(
                line.startswith("  ") and " at basis " in line for line in lines[1:]):
            return "FAIL without a witness"
    elif op.group == "corpus":
        digest = hashlib.sha256(out.encode()).hexdigest()
        if digest != VERIFY_SHA256:
            return "corpus verify output differs from the recorded one (sha256 %s)" % digest
    if op.after is not None:
        try:
            return op.after()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return "output check raised %s: %s" % (type(exc).__name__, exc)
    return None


# ---------------------------------------------------------------------------
# output oracles
# ---------------------------------------------------------------------------

_ENTRIES_OF = {"algebra": "ops", "coalgebra": "comaps", "form": "matrix", "map": "matrix",
               "tensor2": "matrix"}


def _difference(got: dict, want: dict) -> Optional[str]:
    """Where a reloaded document's entries differ from the expected ones
    (basis names aside), or None."""
    if got["kind"] != want["kind"]:
        return "is a %s, expected a %s" % (got["kind"], want["kind"])
    if want["kind"] == "bundle":
        for name, section in want["sections"].items():
            if name not in got["sections"]:
                return "has no section %s" % name
            problem = _difference(got["sections"][name], section)
            if problem:
                return "section %s %s" % (name, problem)
        return None
    key = _ENTRIES_OF[want["kind"]]
    if key == "matrix":
        return None if got[key] == want[key] else "has the wrong matrix"
    if set(got[key]) != set(want[key]):
        return "has tables %s, expected %s" % (sorted(got[key]), sorted(want[key]))
    wrong = [name for name in want[key] if got[key][name] != want[key][name]]
    return "has the wrong %s table" % ", ".join(sorted(wrong)) if wrong else None


def _matches(path, want):
    """Oracle: the document written to path has the entries of want(), the
    closed form computed from the op's input files (``derived.py``)."""
    def after():
        problem = _difference(exact.read(path), want())
        return "output %s" % problem if problem else None
    return after


def _bundle(**sections):
    return {"kind": "bundle", "sections": sections}


def _form(rows):
    return inputs.matrix_doc("form", ["e%d" % (i + 1) for i in range(len(rows))], rows)


def gph_problem(alg: dict, form) -> Optional[str]:
    """Independent check that form is a nondegenerate symmetric invariant form."""
    n = alg["dim"]
    if form != exact.transpose(form):
        return "pairing is not symmetric"
    try:
        exact.inverse(form)
    except ZeroDivisionError:
        return "pairing is degenerate"
    circ, br = alg["ops"]["circ"], alg["ops"]["bracket"]

    def pair_left(c):   # B(e_i * e_j, e_k)
        return [[[sum((c[i][j][l] * form[l][k] for l in range(n) if c[i][j][l]), ZERO)
                  for k in range(n)] for j in range(n)] for i in range(n)]

    def pair_right(c):  # B(e_i, e_j * e_k)
        return [[[sum((form[i][l] * c[j][k][l] for l in range(n) if c[j][k][l]), ZERO)
                  for k in range(n)] for j in range(n)] for i in range(n)]

    bl, brr, cl, cr = pair_left(br), pair_right(br), pair_left(circ), pair_right(circ)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if bl[i][j][k] != brr[i][j][k]:
                    return "bracket invariance fails at (%d,%d,%d)" % (i + 1, j + 1, k + 1)
                if cl[i][j][k] - cr[i][j][k] != cl[j][i][k] - cr[j][i][k]:
                    return "cocycle identity fails at (%d,%d,%d)" % (i + 1, j + 1, k + 1)
    return None


def _double_matches(bundle_path, pp_path, split_to=None):
    """Oracle of `derive double`: the bundle holds the closed-form double and
    the pairing form, which is invariant (checked independently).  With
    split_to = (double path, pairing path), the two sections are written
    there for the next ops."""
    def after():
        pp = exact.read(pp_path)
        doc = exact.read(bundle_path)
        problem = _difference(doc, _bundle(double=derived.double(pp),
                                           pairing=_form(derived.pairing_form(pp["dim"]))))
        if problem:
            return "output " + problem
        double, pairing = doc["sections"]["double"], doc["sections"]["pairing"]
        if split_to:
            exact.write(double, split_to[0])
            exact.write(pairing, split_to[1])
        return gph_problem(double, pairing["matrix"])
    return after


def _bullet_holds(bullet_path, post_lie_path, form_path):
    """Oracle of `derive bullet-from-gph`: the input bracket, and
    B(x . y, z) = -B(y, x o z) for the pairing form B, which fixes x . y
    since B is nondegenerate."""
    def after():
        bullet, post_lie = exact.read(bullet_path), exact.read(post_lie_path)
        if bullet["ops"].get("bracket") != post_lie["ops"]["bracket"]:
            return "output bracket differs from the input bracket"
        dot, circ = bullet["ops"]["circ"], post_lie["ops"]["circ"]
        b = exact.read(form_path)["matrix"]
        n = len(b)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = sum((dot[i][j][l] * b[l][k] for l in range(n) if dot[i][j][l]), ZERO)
                    rhs = sum((b[j][l] * circ[i][k][l] for l in range(n) if circ[i][k][l]), ZERO)
                    if lhs != -rhs:
                        return "output fails B(x.y, z) = -B(y, x o z) at (%d,%d,%d)" % (
                            i + 1, j + 1, k + 1)
        return None
    return after


def _splitting_matches(pp_path, post_lie_path, bullet_path):
    """Oracle of `derive pp-from-gph`: its horizontal product is the input
    (circ and bracket) and its vertical product x . y is the
    `bullet-from-gph` output on the same input."""
    def after():
        pp, post_lie = exact.read(pp_path), exact.read(post_lie_path)
        if derived.horizontal(pp)["ops"] != post_lie["ops"]:
            return "horizontal product differs from the input"
        if derived.vertical_table(pp) != exact.read(bullet_path)["ops"]["circ"]:
            return "vertical product differs from the bullet-from-gph output"
        return None
    return after


# ---------------------------------------------------------------------------
# input helpers
# ---------------------------------------------------------------------------

class _Files:
    """Writes the round's documents and records their statistics."""

    def __init__(self, directory):
        self.directory = directory
        self.stats = []

    def path(self, name):
        return os.path.join(self.directory, name + ".txt")

    def put(self, name, doc):
        exact.write(doc, self.path(name))
        self.stats.append(dict(inputs.stats(doc), input=name))
        return self.path(name)


def _identity_map(n):
    return inputs.matrix_doc("map", ["e%d" % (i + 1) for i in range(n)], exact.identity(n))



# documents every round starts from, read or computed once per process
_CACHE: dict = {}


def _bundled(name, cli) -> dict:
    """A bundled fixture, from `corpus show`."""
    if name not in _CACHE:
        code, out, err = cli(["corpus", "show", name])
        if code != 0:
            raise RuntimeError("corpus show %s failed: %s" % (name, err))
        _CACHE[name] = exact.loads(out)
    return _CACHE[name]


def _sparse_pp(cli) -> dict:
    """The sparse valid pp algebras by dimension: sl2_pp, ahat_pp, then grow."""
    if "sparse_pp" not in _CACHE:
        pp = {3: _bundled("sl2_pp", cli), 6: _bundled("ahat_pp", cli)}
        pp[12] = inputs.grow(pp[6])
        pp[24] = inputs.grow(pp[12])
        _CACHE["sparse_pp"] = pp
    return _CACHE["sparse_pp"]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

CORPUS_ON_DOUBLE = ("ahat_pp", "r6", "final_cobrackets")   # live on A + A*


def corpus_round(rng, directory, cli):
    """`corpus write`, relabel every fixture, then the corpus op list and the
    dense chain."""
    base = os.path.join(directory, "bundled")
    code, out, err = cli(["corpus", "write", base])
    if code != 0:
        raise RuntimeError("corpus write failed: %s" % err)
    g3 = inputs.signed_permutation(rng, 3)
    g6 = inputs.BasisChange.block(g3, g3.dual())
    fs = _Files(directory)
    docs = {}
    for line in out.splitlines():
        name = os.path.splitext(os.path.basename(line))[0]
        docs[name] = (g6 if name in CORPUS_ON_DOUBLE else g3).document(exact.read(line))
        fs.put(name, docs[name])
    f = fs.path
    ident = fs.put("ident", _identity_map(3))
    # on every bundled pp algebra <| is antisymmetric, so vertical and
    # transpose need this one to be told from the horizontal product and the
    # identity
    mat_pp = inputs.signed_permutation(rng, 4).algebra(inputs.matrix_pp(2))
    mat = fs.put("matrix_pp4", mat_pp)
    o = lambda name: os.path.join(directory, "out_" + name + ".txt")
    serial = itertools.count()

    def check(*args, expect=0, dim=3, fail="witness"):
        return Op(["check", *args], expect, dim, fail)

    def derive(kind, *args, want, dim=3):
        """A derive op whose output must have the entries of want()."""
        path = o("%s_%d" % (kind, next(serial)))
        return Op(["derive", kind, *args, "-o", path], 0, dim, after=_matches(path, want))

    pp, post_lie, quarter = docs["sl2_pp"], docs["sl2_postlie"], docs["final_prepp"]
    p_map = docs["final_P"]["matrix"]
    ops = [
        check("lie", f("ahat_pp"), dim=6),
        check("pre-lie", f("final_prepp")),
        check("post-lie", f("sl2_postlie")),
        check("pp", f("sl2_pp")),
        check("pp", f("sl2_pp_broken"), expect=1),
        check("pre-pp", f("final_prepp")),
        check("l-dendriform", f("sl2_pp"), expect=1),
        check("rep", f("sl2_postlie")),
        check("rep", f("sl2_pp"), "--rep", "split-dual"),
        check("pp-rep", f("sl2_pp")),
        check("pp-rep", f("sl2_pp"), "--rep", "coadjoint"),
        check("pp-rep", f("final_prepp"), "--rep", "quarter"),
        check("rb", f("sl2_lie"), f("sl2_P"), "--weight", "1"),
        check("o-op", f("sl2_pp"), f("final_P")),
        check("o-op", f("final_prepp"), ident, "--rep", "quarter"),
        check("dual-p-o", f("sl2_pp"), f("sl2_P"), "--rep", "split-dual", expect=1),
        check("dual-p-o", f("sl2_pp"), ident, "--rep", "split-dual"),
        check("strong", f("sl2_pp"), f("sl2_P"), "--rep", "split-dual", expect=1,
              fail="precondition"),
        check("strong", f("sl2_pp"), ident, "--rep", "split-dual"),
        check("invariant-form", f("sl2_postlie"), f("kappa")),
        check("left-invariant", f("sl2_postlie"), f("kappa")),
        check("lie-coalg", f("final_cobrackets"), dim=6),
        check("pp-coalg", f("final_cobrackets"), "--mode", "both", dim=6),
        check("lie-bialg", f("ahat_pp"), f("final_cobrackets"), dim=6),
        check("pp-bialg", f("ahat_pp"), f("final_cobrackets"), dim=6),
        check("cybe", f("ahat_pp"), f("r6"), dim=6),
        check("quasi", f("ahat_pp"), f("r6"), dim=6),
        check("op-form", f("ahat_pp"), f("r6"), dim=6),
    ]
    # mid-round, so that reference samples on both sides time the host around it
    ops.append(Op(["corpus", "verify", "--dir", directory], 1, 3, key=True))
    ops += [
        derive("sub-adjacent", f("sl2_postlie"), want=lambda: derived.sub_adjacent(post_lie)),
        derive("sub-adjacent", f("final_prepp"), want=lambda: derived.sub_adjacent(quarter)),
        derive("horizontal", f("sl2_pp"), want=lambda: derived.horizontal(pp)),
        derive("vertical", f("sl2_pp"), want=lambda: derived.vertical(pp)),
        derive("transpose", f("sl2_pp"), want=lambda: derived.transpose_pp(pp)),
        derive("vertical", mat, dim=4, want=lambda: derived.vertical(mat_pp)),
        derive("transpose", mat, dim=4, want=lambda: derived.transpose_pp(mat_pp)),
        derive("opposite", f("sl2_postlie"), want=lambda: derived.opposite(post_lie)),
        derive("induced", f("sl2_lie"), f("sl2_P"), want=lambda: post_lie),
        derive("semidirect", f("sl2_postlie"), want=lambda: derived.matched_sum(
            post_lie, derived.adjoint_rep(post_lie), derived.POST_LIE)),
        derive("semidirect", f("sl2_pp"), "--rep", "split-dual",
               want=lambda: derived.double(pp)),
        derive("semidirect-pp", f("sl2_pp"), want=lambda: derived.matched_sum(
            pp, derived.pp_adjoint_rep(pp), derived.PP)),
        derive("semidirect-pp", f("sl2_pp"), "--rep", "coadjoint",
               want=lambda: derived.semidirect_pp_coadjoint(pp)),
        derive("pre-pp-from-o", f("sl2_pp"), f("final_P"),
               want=lambda: derived.pre_pp_from_o(pp, p_map)),
        derive("invertible-o-pre-pp", f("final_prepp"), ident, "--rep", "quarter",
               want=lambda: quarter),
        derive("embed-r", f("final_prepp"), "--rep", "quarter",
               want=lambda: _embedded(quarter, exact.identity(3))),
        derive("embed-r", f("final_prepp"), f("final_P"), "--rep", "quarter",
               want=lambda: _embedded(quarter, p_map)),
        derive("cobrackets-from-r", f("ahat_pp"), f("r6"), dim=6,
               want=lambda: docs["final_cobrackets"]),
        derive("dualize", f("sl2_pp"), want=lambda: derived.dualize(pp)),
    ]
    ops += _gph_chain(directory, "sl2_postlie", f("sl2_postlie"), f("kappa"), 3)
    ops.append(Op(["derive", "double", f("sl2_pp"), "-o", o("double")], 0, 3,
                  after=_double_matches(o("double"), f("sl2_pp"))))
    dual = o("dual_pp")
    ahat = docs["ahat_pp"]
    ops += [
        Op(["derive", "dualize", f("final_cobrackets"), "-o", dual], 0, 6,
           after=_matches(dual, lambda: derived.dualize(docs["final_cobrackets"]))),
        check("matched-pair", f("ahat_pp"), dual, dim=6),
        check("manin-triple", f("ahat_pp"), dual, dim=6),
        derive("bowtie", f("ahat_pp"), dual, dim=6,
               want=lambda: derived.bowtie(ahat, exact.read(dual))),
        derive("manin", f("ahat_pp"), dual, dim=6, want=lambda: _bundle(
            double=derived.bowtie(ahat, exact.read(dual)),
            pairing=_form(derived.pairing_form(6)))),
    ]
    ops += _dense_chain(rng, fs, cli)
    return ops, fs.stats


def _embedded(quarter, t):
    ahat, r = derived.embed_r(quarter, t)
    return _bundle(double=ahat, r=inputs.matrix_doc("tensor2", ahat["basis"], r))


def _gph_chain(directory, tag, post_lie, form, dim):
    """`check gph`, `bullet-from-gph`, `pp-from-gph` and a `check pp` of the
    splitting, on a post-Lie algebra with its form."""
    bullet = os.path.join(directory, "out_%s_bullet.txt" % tag)
    split = os.path.join(directory, "out_%s_pp.txt" % tag)
    return [
        Op(["check", "gph", post_lie, form], 0, dim),
        Op(["derive", "bullet-from-gph", post_lie, form, "-o", bullet], 0, dim,
           after=_bullet_holds(bullet, post_lie, form)),
        Op(["derive", "pp-from-gph", post_lie, form, "-o", split], 0, dim,
           after=_splitting_matches(split, post_lie, bullet)),
        Op(["check", "pp", split], 0, dim),
    ]


def _dense_chain(rng, fs, cli):
    """The same kinds of work on dense tables with denominators: `check pp` of
    sl2_pp and ahat_pp after a dense change of basis, and on the dense sl2_pp
    `derive double` followed by the gph chain on the dim-6 double, each op
    reading the document the one before it wrote (the double's exact
    elimination)."""
    sparse = _sparse_pp(cli)
    dense = {n: fs.put("dense_pp%d" % n, inputs.dense_change(rng, n).algebra(sparse[n]))
             for n in (3, 6)}
    bundle = os.path.join(fs.directory, "out_dense_double.txt")
    double, pairing = fs.path("dense_double6"), fs.path("dense_pairing6")
    ops = [
        Op(["check", "pp", dense[3]], 0, 3),
        Op(["check", "pp", dense[6]], 0, 6),
        Op(["derive", "double", dense[3], "-o", bundle], 0, 3,
           after=_double_matches(bundle, dense[3], split_to=(double, pairing))),
    ]
    return ops + _gph_chain(fs.directory, "dense_double6", double, pairing, 6)


def sweep_round(rng, directory, cli):
    fs = _Files(directory)
    pp = _sparse_pp(cli)
    ops = []
    for n in (3, 6, 12):
        alg = inputs.signed_permutation(rng, n).algebra(pp[n])
        mutant, _ = inputs.mutate_split(alg, rng)
        valid = fs.put("pp%d" % n, alg)
        broken = fs.put("pp%d_mutant" % n, mutant)
        broken_h = fs.put("pp%d_mutant_horizontal" % n, derived.horizontal(mutant))
        ops += [
            Op(["check", "lie", valid], 0, n),
            Op(["check", "pp", valid], 0, n),
            Op(["check", "post-lie", broken_h], 1, n),
        ]
        if n < 12:   # at 12 it would take a sixth of the round
            ops.append(Op(["check", "pp", broken], 1, n))
        horiz = fs.path("pp%d_horizontal" % n)
        ops += [
            Op(["derive", "horizontal", valid, "-o", horiz], 0, n,
               after=_matches(horiz, lambda alg=alg: derived.horizontal(alg))),
            Op(["check", "post-lie", horiz], 0, n),
        ]
    for m in (2, 3, 4):
        gl = inputs.signed_permutation(rng, m * m).algebra(inputs.gl_bracket(m))
        gl = fs.put("gl%d" % m, gl)
        ops.append(Op(["check", "lie", gl], 0, m * m))
    big = inputs.signed_permutation(rng, 24).algebra(pp[24])
    ops.append(Op(["check", "lie", fs.put("pp24", big)], 0, 24, key=True))
    return ops, fs.stats


WORKLOADS = {"corpus": corpus_round, "sweep": sweep_round}
