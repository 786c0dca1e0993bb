"""Per-layer tracing, done from outside the package.

``Tracer.install`` replaces functions of the ``postlie`` modules with
wrappers, in the defining module and in every module that imported them, and
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.

Each wrapped call is a span: name, start, end, parent span and op id.  A
span's self time is its duration minus the time its child spans cover (calls
are nested on one thread, so that is the sum of the children's durations).
Spans of the coarse functions (checkers, constructions, documents,
elimination, criteria, the CLI entry point) are kept in memory and written
out when the run ends; the hot leaf functions (``Algebra.mul``, matrix and
vector helpers, representation actions) are only aggregated, because one
op calls them millions of times.  Scalar ``+ - * /`` get count-only
wrappers.  Functions a later version of the package no longer has are
skipped, and their metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# category of each traced function; the public functions of these modules
# that are not listed fall into "<module>.other"
CATEGORIES = {
    "postlie.linalg": {
        "Matrix.det": "linalg.elim", "Matrix.solve": "linalg.elim",
        "Matrix.solve_vec": "linalg.elim", "Matrix.inverse": "linalg.elim",
        "Matrix.rank": "linalg.elim",
        "Matrix.__mul__": "linalg.matmul", "Matrix.apply": "linalg.matmul",
        "Matrix.kron": "linalg.matmul", "Matrix.transpose": "linalg.matmul",
        "Matrix.__add__": "linalg.matmul", "Matrix.__sub__": "linalg.matmul",
        "vec": "linalg.vector", "zero_vec": "linalg.vector", "basis_vec": "linalg.vector",
        "vadd": "linalg.vector", "vsub": "linalg.vector", "vneg": "linalg.vector",
        "vscale": "linalg.vector", "is_zero_vec": "linalg.vector",
    },
    "postlie.algebra": {
        "Algebra.mul": "algebra.mul", "Algebra.basis_mult": "algebra.mult_cache",
        "check_lie": "algebra.check", "check_pre_lie": "algebra.check",
        "check_post_lie": "algebra.check", "check_pp_post_lie": "algebra.check",
        "check_l_dendriform": "algebra.check", "check_pre_pp_post_lie": "algebra.check",
        "sub_adjacent_lie": "algebra.build", "opposite_post_lie": "algebra.build",
        "horizontal_post_lie": "algebra.build", "vertical_post_lie": "algebra.build",
        "transpose_pp": "algebra.build", "sub_adjacent_pp": "algebra.build",
    },
    "postlie.forms": {
        "check_invariant_form": "forms.check", "check_gph": "forms.check",
        "check_left_invariant": "forms.check", "omega_cocycle": "forms.check",
        "check_rota_baxter_lie": "forms.check", "check_post_lie_rep": "forms.check",
        "check_pp_rep": "forms.check", "check_o_operator_pp": "forms.check",
        "check_dual_p_o_operator": "forms.check", "check_strong": "forms.check",
        "induced_post_lie": "forms.build", "pp_from_dual_p_o": "forms.build",
        "adjoint_rep": "forms.rep", "pp_split_dual_rep": "forms.rep",
        "pp_adjoint_rep": "forms.rep", "dual_pp_rep": "forms.rep",
        "pp_coadjoint_rep": "forms.rep", "dual_map": "forms.rep",
        "RepSpec.act": "forms.rep", "PPRepSpec.act": "forms.rep",
    },
    "postlie.construct": {
        "check_matched_pair": "construct.check",
        "MatchedPairMaps.rep_on_a": "construct.build",
        "MatchedPairMaps.rep_on_b": "construct.build",
    },
    "postlie.bialgebra": {
        "cybe_C": "bialgebra.cybe", "cybe_D": "bialgebra.cybe", "check_pppcybe": "bialgebra.cybe",
        "operator_form_check": "bialgebra.opform",
        "check_lie_coalgebra": "bialgebra.check", "check_pp_coalgebra": "bialgebra.check",
        "check_lie_bialgebra": "bialgebra.check", "check_pp_bialgebra": "bialgebra.check",
        "check_quasitriangular_conditions": "bialgebra.check",
        "CoalgebraSpec.apply": "bialgebra.tensor",
    },
    "postlie.documents": {"loads": "documents.loads", "dumps": "documents.dumps",
                          "load": "documents.loads", "save": "documents.dumps"},
    "postlie.verify": {"run_acceptance": "verify.run"},
    "postlie.cli": {"main": "cli"},
}
# the rest of construct's public functions are constructions
DEFAULT_CATEGORY = {"postlie.construct": "construct.build", "postlie.bialgebra": "bialgebra.build"}
# aggregated only: called too often to keep one span each
HOT = {"algebra.mul", "algebra.mult_cache", "linalg.matmul", "linalg.vector", "algebra.other",
       "forms.rep", "forms.other", "bialgebra.tensor"}
HOT_NAMES = {"Matrix.transpose", "Matrix.__add__", "Matrix.__sub__"}
BUILDERS = {"algebra.build", "forms.build", "construct.build", "bialgebra.build"}
# checkers whose name does not start with "check"
CHECKER_NAMES = {"operator_form_check", "omega_cocycle"}
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__")

SELF_METRICS = {
    "linalg.elim.self_s": "linalg.elim", "linalg.matmul.self_s": "linalg.matmul",
    "linalg.vector.self_s": "linalg.vector",
    "algebra.mul.self_s": "algebra.mul", "algebra.check.self_s": "algebra.check",
    "forms.check.self_s": "forms.check", "forms.rep.self_s": "forms.rep",
    "construct.build.self_s": "construct.build", "construct.check.self_s": "construct.check",
    "bialgebra.cybe.self_s": "bialgebra.cybe", "bialgebra.opform.self_s": "bialgebra.opform",
    "bialgebra.check.self_s": "bialgebra.check",
    "documents.loads.self_s": "documents.loads", "documents.dumps.self_s": "documents.dumps",
    "cli.self_s": "cli",
}
UNITS = dict({name: "s" for name in SELF_METRICS},
             **{"scalars.ops": "count", "linalg.elim.calls": "count",
                "linalg.matmul.calls": "count", "linalg.vector.calls": "count",
                "algebra.mul.calls": "count",
                "algebra.mul.basis_share": "ratio", "algebra.mult_cache.hit_ratio": "ratio",
                "algebra.precondition_s": "s", "algebra.instances": "count",
                "documents.bytes_read": "bytes", "documents.bytes_written": "bytes",
                "trace.overhead_s": "s"},
             **{"verify.A%d_s" % i: "s" for i in range(1, 8)})


def _is_basis_vector(v) -> bool:
    seen = False
    for x in v:
        if x:
            if seen or x != 1:
                return False
            seen = True
    return seen


class Tracer:
    def __init__(self):
        self.active = False
        self.clock0 = time.perf_counter()
        # frames: [child time, span id, category, "checker" or "", precondition]
        self.stack = [[0.0, None, None, "", False]]
        self.spans = []
        self.calls, self.self_s = {}, {}          # per category
        self.counts = dict.fromkeys(("scalars.ops", "basis_pairs", "cache_hits",
                                     "instances", "bytes_read", "bytes_written"), 0)
        self.precondition_s = 0.0
        self.criteria = {}
        self.op_id = None
        self.ops = []                             # [op id, argv, wall s, sum of self s]
        self._restore = []
        self._next_id = 0

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op):
        self.op_id = len(self.ops)
        self.ops.append([self.op_id, op.argv, 0.0, 0.0])
        self.active = True

    def end_op(self, seconds):
        self.active = False
        self.ops[self.op_id][2] = seconds

    # -- spans ----------------------------------------------------------------

    def _call(self, name, category, keep, fn, args, kwargs):
        parent = self.stack[-1]
        self._next_id += 1
        checker = name.startswith("check") or name in CHECKER_NAMES
        precondition = (checker and (parent[2] in BUILDERS or parent[3] == "checker")
                        and not any(f[4] for f in self.stack))
        frame = [0.0, self._next_id, category, "checker" if checker else "", precondition]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - start
            parent[0] += duration
            own = duration - frame[0]
            self.calls[category] = self.calls.get(category, 0) + 1
            self.self_s[category] = self.self_s.get(category, 0.0) + own
            self.ops[self.op_id][3] += own
            if precondition:
                self.precondition_s += duration
            if name.startswith("verify.A"):
                self.criteria[name] = self.criteria.get(name, 0.0) + duration
            if keep:
                self.spans.append((frame[1], name, start - self.clock0, end - self.clock0,
                                   parent[1], self.op_id))

    def _wrap(self, name, category, fn):
        tracer = self
        keep = category not in HOT and name not in HOT_NAMES
        before = {"Algebra.mul": self._mul_args, "Algebra.basis_mult": self._cache_probe,
                  "loads": self._read}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            result = tracer._call(name, category, keep, fn, args, kwargs)
            if category == "algebra.check":
                tracer.counts["instances"] += getattr(result, "checked", 0)
            elif name == "dumps" and isinstance(result, str):
                tracer.counts["bytes_written"] += len(result.encode())
            return result
        return wrapper

    def _mul_args(self, args, kwargs):
        if len(args) >= 4 and _is_basis_vector(args[2]) and _is_basis_vector(args[3]):
            self.counts["basis_pairs"] += 1

    def _cache_probe(self, args, kwargs):
        alg, op, i = args[:3]
        left = args[3] if len(args) > 3 else kwargs.get("left", True)
        if (op, i, left) in getattr(alg, "_mult_cache", {}):
            self.counts["cache_hits"] += 1

    def _read(self, args, kwargs):
        text = args[0] if args else kwargs.get("text", "")
        if isinstance(text, str):
            self.counts["bytes_read"] += len(text.encode())

    # -- installation ---------------------------------------------------------

    def install(self):
        package = [m for name, m in sorted(sys.modules.items()) if name.startswith("postlie")]
        replaced = {}
        for module_name, table in CATEGORIES.items():
            module = importlib.import_module(module_name)
            names = dict.fromkeys(getattr(module, "__all__", ()))
            names.update(table)
            for qualname in names:
                category = table.get(qualname) or DEFAULT_CATEGORY.get(
                    module_name, module_name.split(".")[1] + ".other")
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                fn = vars(owner).get(attr) if owner is not None else None
                if not inspect.isfunction(fn) or (not owner_name and fn.__module__ != module_name):
                    continue
                wrapper = self._wrap(attr if not owner_name else qualname, category, fn)
                self._set(owner, attr, wrapper)
                if not owner_name:
                    replaced[fn] = wrapper
        for module in package:                     # names imported into other modules
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    self._set(module, attr, replaced[value])
        verify = importlib.import_module("postlie.verify")
        criteria = getattr(verify, "CRITERIA", ())
        self._set(verify, "CRITERIA", tuple(
            self._wrap("verify.%s" % getattr(fn, "criterion", fn.__name__), "verify.criterion", fn)
            for fn in criteria))
        scalar = getattr(importlib.import_module("postlie.scalars"), "Scalar", None)
        for attr in SCALAR_OPS:
            fn = vars(scalar).get(attr) if scalar is not None else None
            if fn is not None:
                self._set(scalar, attr, self._count(fn))

    def _count(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(a, b):
            if tracer.active:
                tracer.counts["scalars.ops"] += 1
            return fn(a, b)
        return counted

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        calls = lambda cat: self.calls.get(cat, 0)
        out = {name: self.self_s.get(cat, 0.0) for name, cat in SELF_METRICS.items()}
        mul = calls("algebra.mul")
        out.update({
            "scalars.ops": self.counts["scalars.ops"],
            "linalg.elim.calls": calls("linalg.elim"),
            "linalg.matmul.calls": calls("linalg.matmul"),
            "linalg.vector.calls": calls("linalg.vector"),
            "algebra.mul.calls": mul,
            "algebra.mul.basis_share": self.counts["basis_pairs"] / mul if mul else 0.0,
            "algebra.mult_cache.hit_ratio": (self.counts["cache_hits"] / calls("algebra.mult_cache")
                                             if calls("algebra.mult_cache") else 0.0),
            "algebra.precondition_s": self.precondition_s,
            "algebra.instances": self.counts["instances"],
            "documents.bytes_read": self.counts["bytes_read"],
            "documents.bytes_written": self.counts["bytes_written"],
        })
        out.update({"verify.A%d_s" % i: self.criteria.get("verify.A%d" % i, 0.0)
                    for i in range(1, 8)})
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"span_fields": ["id", "name", "start_s", "end_s", "parent", "op"],
                       "spans": self.spans,
                       "op_fields": ["op", "argv", "wall_s", "self_sum_s"],
                       "ops": self.ops,
                       "self_s": self.self_s, "calls": self.calls}, fh)
