"""Outside-in tracing of the loopsmith layers.

``install`` wraps the public functions named in TRACED, in every
loopsmith module namespace that binds them (a from-import copies the
binding, so wrapping the defining module alone would miss callers), and
four flag methods of LoopTable.  Each call records a span (name, start,
end, parent) in memory.  Per-cell calls such as ``mul`` and ``_check``
run tens of millions of times and are not traced.

``self_times`` turns spans into self time: a span's duration minus the
part of it that its child spans cover.  ``layer_metrics`` folds spans
into the benchmark's per-layer metrics.  A traced name that no longer
exists is skipped at install time and reports zero.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import Counter

SUITE_FUNCTIONS = (
    "suite_moufang_flag_agreement",
    "suite_nuclei_coincide",
    "suite_lagrange",
    "suite_quotient_homomorphism",
    "suite_sylow_factorization",
    "suite_bruck",
    "suite_main_theorem",
    "suite_half_group",
    "suite_semi_isomorphism",
    "suite_gg_witness",
    "suite_odd_order_trivial",
    "suite_induced_quotient",
    "suite_commutator_d_set",
)

SUITE_RESULTS = (
    "moufang-flag-agreement",
    "moufang-nuclei-coincide",
    "moufang-lagrange",
    "quotient-projection",
    "sylow-nucleus-factorization",
    "bruck-commutators-in-nucleus",
    "bruck-commutator-expansion",
    "bruck-nucleus-absorption",
    "bruck-cubes-in-nucleus",
    "bruck-3gen-associator-central",
    "main-theorem",
    "half-maps-form-group",
    "semi-isomorphism",
    "proper-half-witness-triples",
    "odd-order-trivial",
    "induced-quotient-trivial",
    "commutator-d-set-central",
)

DERIVED = (
    "nucleus_left", "nucleus_middle", "nucleus_right", "nucleus",
    "center", "commutant", "commutator_subloop", "associator_subloop",
)

TRACED = {
    "table": ("validate",),
    "catalog": ("builtin", "parse_loop_file"),
    "subloops": ("generate_subloop", "quotient", "restriction", "is_normal",
                 "sylow_subloop", "hall_3prime_subgroup",
                 "commutative_nilpotency_class") + DERIVED,
    "innermaps": ("inner_map_witness", "is_automorphic", "is_left_automorphic"),
    "halfmorph": ("enumerate_half_automorphisms", "make_half_map", "classify",
                  "find_gg_triples", "is_semi_isomorphism", "d_set",
                  "induced_on_quotient", "half_maps_form_group_check",
                  "verify_main_theorem"),
    "suites": SUITE_FUNCTIONS + ("run_theorem_suites",),
    "cli": ("main", "analyze_table"),
}

FLAG_METHODS = ("is_commutative", "is_associative", "moufang_report", "is_diassociative")

# functions that walk the n*n pairs of one half-map
PER_MAP = ("make_half_map", "classify", "find_gg_triples", "is_semi_isomorphism", "d_set")
PER_MAP_LAWS = ("find_gg_triples", "is_semi_isomorphism", "d_set", "induced_on_quotient")

# per-layer metric name -> traced names whose self time it sums
SELF_GROUPS = {
    "halfmorph.enumerate": ("halfmorph.enumerate_half_automorphisms",),
    "halfmorph.make_half_map": ("halfmorph.make_half_map",),
    "halfmorph.classify": ("halfmorph.classify",),
    "halfmorph.per_map_laws": tuple("halfmorph." + f for f in PER_MAP_LAWS),
    "halfmorph.group_check": ("halfmorph.half_maps_form_group_check",),
    "halfmorph.verify_main_theorem": ("halfmorph.verify_main_theorem",),
    "subloops.generate_subloop": ("subloops.generate_subloop",),
    "subloops.derived": tuple("subloops." + f for f in DERIVED),
    "subloops.quotient": ("subloops.quotient",),
    "table.is_diassociative": ("table.is_diassociative",),
    "table.moufang_report": ("table.moufang_report",),
    "table.is_associative": ("table.is_associative",),
    "innermaps.inner_map_witness": ("innermaps.inner_map_witness",),
    "innermaps.is_left_automorphic": ("innermaps.is_left_automorphic",),
    "table.validate": ("table.validate",),
    "catalog.parse_loop_file": ("catalog.parse_loop_file",),
    "catalog.builtin": ("catalog.builtin",),
    "cli.main": ("cli.main",),
}
SELF_GROUPS.update({"suites." + f: ("suites." + f,) for f in SUITE_FUNCTIONS})

# per-layer metric name -> traced name whose calls it counts
CALL_COUNTS = {
    "halfmorph.enumerate.calls": "halfmorph.enumerate_half_automorphisms",
    "halfmorph.verify_main_theorem.calls": "halfmorph.verify_main_theorem",
    "subloops.generate_subloop.calls": "subloops.generate_subloop",
    "innermaps.inner_map_witness.calls": "innermaps.inner_map_witness",
    "innermaps.is_left_automorphic.calls": "innermaps.is_left_automorphic",
}

# whole-run figures of a traced run, added by run.py
TRACE_METRICS = (
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
)


class Recorder:
    """Spans and work counts of one traced interpreter, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.spans = []        # (name index, start, end, parent span index or -1)
        self.distinct = {}     # traced name -> set of distinct work keys
        self.items = Counter()  # traced name -> items held by results of distinct work
        self.missing = []
        self._stack = []
        self._tables = {}      # id(table) -> (table, content id); holds the table so ids stay unique
        self._contents = {}

    def table_id(self, table):
        """Small integer naming the contents of a table."""
        entry = self._tables.get(id(table))
        if entry is None:
            entry = self._tables[id(table)] = (table, self._contents.setdefault(table.rows, len(self._contents)))
        return entry[1]

    def wrap(self, name, fn, distinct=None, items=None):
        """fn wrapped to record a span per call.

        distinct(args, result) gives a key of the work done, so that
        repeated work shows as fewer distinct keys than calls; items(result)
        counts what the call produced, once per distinct key.
        """
        index = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = self.clock
        seen = self.distinct.setdefault(name, set()) if distinct else None
        item_counts = self.items

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent)
            if seen is not None:
                key = distinct(args, result)
                if key not in seen:
                    seen.add(key)
                    if items is not None:
                        item_counts[name] += items(result)
            return result

        return traced

    def dump(self):
        return {
            "names": self.names,
            "spans": self.spans,
            "distinct": {name: len(keys) for name, keys in self.distinct.items()},
            "items": dict(self.items),
            "missing": self.missing,
        }


def install(recorder):
    """Wrap every traced function in every loopsmith namespace that binds it."""
    import loopsmith
    from loopsmith.table import LoopTable

    modules = {info.name: importlib.import_module("loopsmith." + info.name)
               for info in pkgutil.iter_modules(loopsmith.__path__)}
    extras = {
        "halfmorph.enumerate_half_automorphisms": dict(
            distinct=lambda args, result: recorder.table_id(args[0]),
            items=lambda result: len(result.maps)),
        "subloops.generate_subloop": dict(
            distinct=lambda args, result: (recorder.table_id(args[0]), result.elements)),
    }
    originals = []  # kept alive so that the ids below stay unique
    wrappers = {}   # id(original) -> wrapper
    for module_name, functions in TRACED.items():
        for fname in functions:
            name = "%s.%s" % (module_name, fname)
            fn = getattr(modules.get(module_name), fname, None)
            if fn is None:
                recorder.missing.append(name)
                continue
            originals.append(fn)
            wrappers[id(fn)] = recorder.wrap(name, fn, **extras.get(name, {}))
    for module in [loopsmith] + list(modules.values()):
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])
    for method in FLAG_METHODS:
        fn = getattr(LoopTable, method, None)
        if fn is None:
            recorder.missing.append("table." + method)
            continue
        setattr(LoopTable, method, recorder.wrap("table." + method, fn))


# -- analysis ---------------------------------------------------------


def self_times(spans):
    """Self time of each span: its duration minus the union of the
    intervals its children cover, clipped to the span."""
    children = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        covered = 0.0
        reach = start
        for s, e in sorted(kids):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def layer_metrics(trace, n_inputs, suite_checks):
    """Per-layer metrics of one traced run, as name -> (value, unit).

    trace is Recorder.dump() output; suite_checks maps each suite
    result name to the check count the CLI reported.
    """
    names = trace["names"]
    spans = trace["spans"]
    self_by = Counter()
    calls = Counter()
    for (index, _, _, _), own in zip(spans, self_times(spans)):
        self_by[names[index]] += own
        calls[names[index]] += 1
    metrics = {}
    for metric, members in SELF_GROUPS.items():
        metrics[metric + ".self_s"] = (sum(self_by[m] for m in members), "s")
    for metric, traced in CALL_COUNTS.items():
        metrics[metric] = (calls[traced], "count")

    def ratio(num, den):
        return num / den if den else 0.0

    enum = "halfmorph.enumerate_half_automorphisms"
    gen = "subloops.generate_subloop"
    maps = trace["items"].get(enum, 0)
    metrics["halfmorph.maps"] = (maps, "count")
    metrics["halfmorph.enumerate.distinct_ratio"] = (ratio(trace["distinct"].get(enum, 0), calls[enum]), "ratio")
    metrics["subloops.generate_subloop.distinct_ratio"] = (ratio(trace["distinct"].get(gen, 0), calls[gen]), "ratio")
    walks = sum(calls["halfmorph." + f] for f in PER_MAP)
    metrics["halfmorph.pair_walks_per_map"] = (ratio(walks, maps), "walks/map")
    metrics["table.validate.calls_per_input"] = (ratio(calls["table.validate"], n_inputs), "calls/input")
    for result in SUITE_RESULTS:
        metrics["suites.%s.checks" % result] = (suite_checks.get(result, 0), "count")
    return metrics
