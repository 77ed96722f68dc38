"""Spans around the calls into each hodgeorbit module, recorded from outside.

``Tracer.install`` wraps every public function listed in ``TRACED`` and
rebinds the wrapper at every place a caller looks the name up: each module
global of the ``hodgeorbit`` package that is the original object (so
``from .rootdata import build_root_system`` in ``cli`` is wrapped too) and,
for constructors, the class attribute.  A name that no longer exists raises,
so a renamed or moved function fails the traced run instead of reading 0.

Spans (name, start, end, parent, query id, work count) stay in memory and are
written out when the run ends.  A function in ``TALLIED`` is called hundreds
of thousands of times from one loop, so its calls are summed instead: one span
per (parent, query id) whose duration is the calls' total time and whose work
is their number.  ``layer_metrics`` turns them into the
per-layer metrics; a layer's self time is its spans' duration minus the part
covered by their child spans.  Methods of ``RootSystem`` and private helpers
are not wrapped: they are called millions of times from hot loops, so their
time counts toward the public function that called them.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

from workloads import TABLE_IDS

LAYERS = ("rootdata", "grading", "reps", "cayley", "chevalley", "cli")

#: module -> public names to wrap; "Class.__init__" wraps a constructor
TRACED = {
    "rootdata": ("RootSystem.__init__", "build_root_system", "coroot_pairing",
                 "reflect", "strongly_orthogonal", "conjugate_root"),
    "grading": ("grading_element_for", "parabolic", "adjoint_index_set",
                "is_fundamental_adjoint", "classify_root_compactness",
                "schubert_dim_from_grading"),
    "reps": ("inverse_cartan", "weight_from_fund", "weight_from_root",
             "fundamental_weights", "rho", "dual_weight", "weyl_dimension",
             "weights_with_E_value_one", "freudenthal_multiplicities",
             "rep_hodge_numbers", "embedding_degree_for_weight", "embedding_degree"),
    "cayley": ("sos_candidates", "canonical_sos", "validate_sos", "search_sos",
               "real_rank", "bigrading", "lmhs_type", "orbit_invariants",
               "codim_one_uniqueness_check", "weight_grading_dims", "weyl_flip",
               "gamma_subsystem", "enhanced_sl2_descriptor", "restriction_pairing",
               "boundary_census"),
    "chevalley": ("structure_constants", "adjoint_matrix", "jacobi_residual",
                  "rational_form", "theta", "cayley_standard_triple"),
    "cli": ("render_table",),
}

#: called too often for a span each; see Tracer.tally
TALLIED = {"chevalley.jacobi_residual"}

#: work counted on a span, from the call's arguments and result
WORK = {
    "rootdata.RootSystem.__init__": lambda args, result: len(args[0].positive_roots),
    "reps.freudenthal_multiplicities": lambda args, result: len(result.entries),
    "chevalley.rational_form": lambda args, result: args[0].dim ** 2,
    "cli.render_table": lambda args, result: len(result.encode()),
}

#: spans each workload must fire: where the layer is predicted to do most work
COVERAGE = {
    "paper_tables": (
        "cli.main", "cli.render_table", "rootdata.RootSystem.__init__",
        "rootdata.build_root_system", "grading.grading_element_for",
        "reps.weyl_dimension", "reps.freudenthal_multiplicities",
        "reps.embedding_degree", "cayley.boundary_census", "cayley.validate_sos",
        "cayley.real_rank",
    ),
    "chevalley_forms": (
        "rootdata.RootSystem.__init__", "chevalley.structure_constants",
        "chevalley.rational_form", "chevalley.cayley_standard_triple",
        "chevalley.jacobi_residual",
    ),
    "classical_census": (
        "cli.main", "rootdata.RootSystem.__init__", "rootdata.build_root_system",
        "grading.grading_element_for", "cayley.boundary_census",
        "cayley.validate_sos", "cayley.iter_sos",
    ),
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, query id, work)
        self.stack: list = []
        self.sums: dict = {}  # (name, parent index, query id) -> (total time, calls)
        self.qid = -1

    def span(self, name: str, fn, work=None, name_of=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                label = name_of(args) if name_of else name
                spans[idx] = (label, start, end, parent, self.qid, 0)
            if work:
                spans[idx] = (label, start, end, parent, self.qid, work(args, result))
            return result

        return functools.wraps(fn)(wrapper)

    def tally(self, name: str, fn):
        """Like ``span``, but sums the calls under one parent into one span."""
        sums, stack, clock = self.sums, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                key = (name, stack[-1] if stack else -1, self.qid)
                total, calls = sums.get(key, (0.0, 0))
                sums[key] = (total + clock() - start, calls + 1)

        return functools.wraps(fn)(wrapper)

    def finish(self) -> list:
        """The spans, with each tally appended as one span."""
        for (name, parent, qid), (total, calls) in self.sums.items():
            self.spans.append((name, 0.0, total, parent, qid, calls))
        self.sums.clear()
        return self.spans

    def counter(self, name: str, gen_fn):
        """Wrap a generator function: a zero-length span whose work is the items yielded."""
        spans = self.spans

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            n = 0
            try:
                for item in gen_fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                spans[idx] = (name, 0.0, 0.0, -1, self.qid, n)

        return functools.wraps(gen_fn)(wrapper)

    def install(self):
        """Wrap every name in TRACED across the loaded hodgeorbit modules."""
        mods = [m for k, m in sys.modules.items() if k == "hodgeorbit" or k.startswith("hodgeorbit.")]
        for layer, names in TRACED.items():
            mod = sys.modules[f"hodgeorbit.{layer}"]
            for attr in names:
                full = f"{layer}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self.span(full, getattr(cls, meth), WORK.get(full)))
                    continue
                orig = getattr(mod, attr)
                name_of = (lambda args: f"cli.table.{args[0]}") if full == "cli.render_table" else None
                if full in TALLIED:
                    wrapped = self.tally(full, orig)
                else:
                    wrapped = self.span(full, orig, WORK.get(full), name_of)
                _rebind(mods, orig, wrapped)
        iter_sos = sys.modules["hodgeorbit.cayley"].iter_sos
        if not inspect.isgeneratorfunction(iter_sos):
            raise TypeError("cayley.iter_sos is no longer a generator function")
        _rebind(mods, iter_sos, self.counter("cayley.iter_sos", iter_sos))


def _rebind(mods, orig, wrapped):
    found = False
    for mod in mods:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)
                found = True
    if not found:
        raise LookupError(f"{orig!r} is bound nowhere")


def layer_metrics(spans: list, cli_bytes: int) -> dict:
    """Per-layer metrics of one traced process, keyed by metric name."""
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    total = {}
    calls = {}
    work = {}
    for i, (name, start, end, parent, _, w) in enumerate(spans):
        dur = end - start
        layer = name.split(".", 1)[0]
        if layer in self_s:
            self_s[layer] += dur - child_time[i]
        # inclusive time; a span called directly by one of the same name is already counted
        if parent < 0 or spans[parent][0] != name:
            total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + w

    def t(name):
        return total.get(name, 0.0)

    def per(num, den):  # microseconds per unit of work
        return num * 1e6 / den if den else 0.0

    builds = calls.get("rootdata.RootSystem.__init__", 0)
    asks = calls.get("rootdata.build_root_system", 0)
    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    out.update({
        "rootdata.build_s": t("rootdata.RootSystem.__init__"),
        "rootdata.builds": builds,
        "rootdata.cache_hit_ratio": (asks - builds) / asks if asks else 0.0,
        "rootdata.us_per_positive_root": per(t("rootdata.RootSystem.__init__"),
                                             work.get("rootdata.RootSystem.__init__", 0)),
        "reps.weyl_dimension_s": t("reps.weyl_dimension"),
        "reps.weyl_dimension_calls": calls.get("reps.weyl_dimension", 0),
        "reps.freudenthal_s": t("reps.freudenthal_multiplicities"),
        "reps.weights_computed": work.get("reps.freudenthal_multiplicities", 0),
        "reps.us_per_weight": per(t("reps.freudenthal_multiplicities"),
                                  work.get("reps.freudenthal_multiplicities", 0)),
        "reps.embedding_degree_s": t("reps.embedding_degree"),
        "cayley.census_s": t("cayley.boundary_census"),
        "cayley.sos_sets": work.get("cayley.iter_sos", 0),
        "cayley.us_per_sos_set": per(t("cayley.boundary_census"), work.get("cayley.iter_sos", 0)),
        "cayley.validate_s": t("cayley.validate_sos"),
        "cayley.real_rank_s": t("cayley.real_rank"),
        "chevalley.structure_constants_s": t("chevalley.structure_constants"),
        "chevalley.rational_form_s": t("chevalley.rational_form"),
        "chevalley.brackets_verified": work.get("chevalley.rational_form", 0),
        "chevalley.us_per_bracket": per(t("chevalley.rational_form"),
                                        work.get("chevalley.rational_form", 0)),
        "chevalley.jacobi_s": t("chevalley.jacobi_residual"),
        "chevalley.jacobi_triples": work.get("chevalley.jacobi_residual", 0),
        "cli.bytes_out": cli_bytes + sum(v for k, v in work.items() if k.startswith("cli.table.")),
        "trace.spans": n,
    })
    for tid in TABLE_IDS:
        out[f"cli.table.{tid}_s"] = t(f"cli.table.{tid}")
    return out


def missing_coverage(workload: str, spans: list) -> list[str]:
    fired = {name for name, *_ in spans}
    fired |= {"cli.render_table"} if any(n.startswith("cli.table.") for n in fired) else set()
    return [name for name in COVERAGE[workload] if name not in fired]


def median_metrics(per_process: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in per_process) for k in per_process[0]}

