"""Per-layer tracing of psl2q, installed from outside the program.

`install` replaces the public functions and methods of each module under
src/psl2q with wrappers that record a span per call: name, start, end and
parent.  A function is rebound under every name any psl2q module holds it
by (bareiss_rank is also derangement.exact_rank and verify.bareiss_rank;
the ekr functions are imported into verify), and a method under every class
attribute that holds it (CycNum.__rmul__ is __mul__), so no caller bypasses
its wrapper.

Self time is a span's duration minus the time its child spans cover.
Calls, inclusive and self time are summed per name for every call; the
spans themselves are kept in memory for the first SPAN_CAP calls of each
name (the hot arithmetic runs a million times) and written out by
`write_spans` when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

SPAN_CAP = 1000

# (module, attribute, span name): module-level functions.
FUNCTIONS = [
    ("psl2q.intrank", "bareiss_rank", "intrank.bareiss_rank"),
    ("psl2q.chartable", "build_table", "chartable.build_table"),
    ("psl2q.ekr", "max_intersecting_families", "ekr.max_intersecting_families"),
    ("psl2q.ekr", "is_intersecting", "ekr.is_intersecting"),
    ("psl2q.ekr", "stabilizer_coset", "ekr.stabilizer_coset"),
    ("psl2q.ekr", "classify_family", "ekr.classify_family"),
    ("psl2q.fields", "field_ctx_for_q", "fields.field_ctx_for_q"),
    ("psl2q.verify", "run_table_suite", "verify.table"),
    ("psl2q.verify", "run_sums_suite", "verify.sums"),
    ("psl2q.verify", "run_rank_suite", "verify.rank"),
    ("psl2q.verify", "run_ekr_suite", "verify.ekr"),
]

# (module, class, method, span name): methods; several may share a name.
METHODS = [
    ("psl2q.cyclotomic", "CycNum", "__mul__", "cyclotomic.mul"),
    ("psl2q.cyclotomic", "CycNum", "__add__", "cyclotomic.add"),
    ("psl2q.cyclotomic", "CycNum", "__sub__", "cyclotomic.add"),
    ("psl2q.cyclotomic", "CycNum", "lift", "cyclotomic.lift"),
    ("psl2q.cyclotomic", "CycNum", "conjugate", "cyclotomic.conjugate"),
    ("psl2q.cyclotomic", "CycNum", "__eq__", "cyclotomic.eq"),
    ("psl2q.fields", "FieldCtx", "__init__", "fields.ctx_build"),
    ("psl2q.groups", "PGL2", "mul", "groups.mul"),
    ("psl2q.groups", "PGL2", "inv", "groups.inv"),
    ("psl2q.groups", "PGL2", "act", "groups.act"),
    ("psl2q.groups", "PGL2", "is_derangement", "groups.is_derangement"),
    ("psl2q.groups", "PGL2", "classify", "groups.classify"),
    ("psl2q.groups", "PGL2", "in_psl", "groups.in_psl"),
    ("psl2q.groups", "PGL2", "fixed_points", "groups.fixed_points"),
    ("psl2q.groups", "PGL2", "elements", "groups.elements"),
    ("psl2q.groups", "PGL2", "derangements", "groups.derangements"),
    ("psl2q.groups", "PGL2", "elements_with_constraints", "groups.elements_with_constraints"),
    ("psl2q.groups", "PGL2", "swap_one_infinity", "groups.swap_one_infinity"),
    ("psl2q.chartable", "CharTable", "char_value", "chartable.char_value"),
    ("psl2q.chartable", "CharTable", "value_on_class", "chartable.value_on_class"),
    ("psl2q.chartable", "CharTable", "char_index", "chartable.char_index"),
    ("psl2q.chartable", "CharTable", "inner_product", "chartable.inner_product"),
    ("psl2q.chartable", "CharTable", "decompose", "chartable.decompose"),
    ("psl2q.charsums", "CharacterSums", "legendre_sum", "charsums.legendre_sum"),
    ("psl2q.charsums", "CharacterSums", "soto_andrade_sum", "charsums.soto_andrade_sum"),
    ("psl2q.charsums", "CharacterSums", "l2_inner", "charsums.l2_inner"),
    ("psl2q.charsums", "CharacterSums", "greene_2f1", "charsums.greene_2f1"),
    ("psl2q.charsums", "CharacterSums", "greene_nfn", "charsums.greene_nfn"),
    ("psl2q.charsums", "CharacterSums", "katz_h", "charsums.katz_h"),
    ("psl2q.charsums", "CharacterSums", "orthogonal_basis", "charsums.orthogonal_basis"),
    ("psl2q.derangement", "DerangementModel", "build_m", "derangement.build_m"),
    ("psl2q.derangement", "DerangementModel", "gram_bruteforce", "derangement.gram_bruteforce"),
    ("psl2q.derangement", "DerangementModel", "gram_closed", "derangement.gram_closed"),
    ("psl2q.derangement", "DerangementModel", "kernel_vectors", "derangement.kernel_vectors"),
    ("psl2q.derangement", "DerangementModel", "character_sum_direct", "derangement.character_sums"),
    ("psl2q.derangement", "DerangementModel", "character_sum_assembled", "derangement.character_sums"),
    ("psl2q.derangement", "DerangementModel", "character_sum_closed_form", "derangement.character_sums"),
    ("psl2q.derangement", "DerangementModel", "restricted_char_sum", "derangement.restricted_char_sum"),
    ("psl2q.derangement", "DerangementModel", "rank_certificate", "derangement.rank_certificate"),
    ("psl2q.ekr", "IntersectionGraph", "__init__", "ekr.graph_build"),
]

# span name -> cache attribute, on the module for a function and on the
# instance for a method; a call that grows the cache is a miss.
CACHES = {
    "groups.classify": "_classify_cache",
    "charsums.legendre_sum": "_legendre_cache",
    "charsums.soto_andrade_sum": "_soto_cache",
    "fields.field_ctx_for_q": "_CTX_CACHE",
}

# Per-layer metrics: name -> (unit, how it is computed from the tracer).
# "calls"/"s"/"self_s" read the per-name sums; "hit" is 1 - misses / calls.
LAYER_METRICS = {
    "intrank.bareiss_rank.calls": ("count", "calls", "intrank.bareiss_rank"),
    "intrank.bareiss_rank.s": ("s", "s", "intrank.bareiss_rank"),
    "intrank.bareiss_rank.cells": ("count", "counter", "intrank.bareiss_rank.cells"),
    "intrank.bareiss_rank.unique_ratio": ("ratio", "unique", "intrank.bareiss_rank"),
    "derangement.build_m.s": ("s", "s", "derangement.build_m"),
    "derangement.gram_bruteforce.s": ("s", "s", "derangement.gram_bruteforce"),
    "derangement.gram_closed.s": ("s", "s", "derangement.gram_closed"),
    "derangement.kernel_vectors.s": ("s", "s", "derangement.kernel_vectors"),
    "derangement.character_sums.s": ("s", "s", "derangement.character_sums"),
    "derangement.restricted_char_sum.calls": ("count", "calls", "derangement.restricted_char_sum"),
    "derangement.rank_certificate.self_s": ("s", "self_s", "derangement.rank_certificate"),
    "cyclotomic.mul.calls": ("count", "calls", "cyclotomic.mul"),
    "cyclotomic.mul.s": ("s", "s", "cyclotomic.mul"),
    "cyclotomic.add.calls": ("count", "calls", "cyclotomic.add"),
    "cyclotomic.add.s": ("s", "s", "cyclotomic.add"),
    "cyclotomic.lift.calls": ("count", "calls", "cyclotomic.lift"),
    "cyclotomic.lift.s": ("s", "s", "cyclotomic.lift"),
    "cyclotomic.conjugate.calls": ("count", "calls", "cyclotomic.conjugate"),
    "cyclotomic.conjugate.s": ("s", "s", "cyclotomic.conjugate"),
    "cyclotomic.eq.calls": ("count", "calls", "cyclotomic.eq"),
    "charsums.legendre_sum.calls": ("count", "calls", "charsums.legendre_sum"),
    "charsums.legendre_sum.cache_hit_ratio": ("ratio", "hit", "charsums.legendre_sum"),
    "charsums.soto_andrade_sum.calls": ("count", "calls", "charsums.soto_andrade_sum"),
    "charsums.soto_andrade_sum.cache_hit_ratio": ("ratio", "hit", "charsums.soto_andrade_sum"),
    "charsums.l2_inner.s": ("s", "s", "charsums.l2_inner"),
    "charsums.greene_2f1.s": ("s", "s", "charsums.greene_2f1"),
    "charsums.greene_nfn.s": ("s", "s", "charsums.greene_nfn"),
    "charsums.katz_h.s": ("s", "s", "charsums.katz_h"),
    "charsums.orthogonal_basis.s": ("s", "s", "charsums.orthogonal_basis"),
    "chartable.build_table.s": ("s", "s", "chartable.build_table"),
    "chartable.char_value.calls": ("count", "calls", "chartable.char_value"),
    "chartable.value_on_class.calls": ("count", "calls", "chartable.value_on_class"),
    "chartable.char_index.calls": ("count", "calls", "chartable.char_index"),
    "chartable.inner_product.s": ("s", "s", "chartable.inner_product"),
    "chartable.decompose.s": ("s", "s", "chartable.decompose"),
    "groups.mul.calls": ("count", "calls", "groups.mul"),
    "groups.inv.calls": ("count", "calls", "groups.inv"),
    "groups.act.calls": ("count", "calls", "groups.act"),
    "groups.is_derangement.calls": ("count", "calls", "groups.is_derangement"),
    "groups.classify.calls": ("count", "calls", "groups.classify"),
    "groups.classify.cache_hit_ratio": ("ratio", "hit", "groups.classify"),
    "groups.elements.s": ("s", "s", "groups.elements"),
    "groups.elements_with_constraints.calls": ("count", "calls", "groups.elements_with_constraints"),
    "groups.elements_with_constraints.s": ("s", "s", "groups.elements_with_constraints"),
    "groups.self_s": ("s", "layer_self_s", "groups."),
    "ekr.graph_build.s": ("s", "s", "ekr.graph_build"),
    "ekr.max_intersecting_families.self_s": ("s", "self_s", "ekr.max_intersecting_families"),
    "ekr.is_intersecting.calls": ("count", "calls", "ekr.is_intersecting"),
    "ekr.is_intersecting.s": ("s", "s", "ekr.is_intersecting"),
    "ekr.stabilizer_coset.calls": ("count", "calls", "ekr.stabilizer_coset"),
    "ekr.stabilizer_coset.s": ("s", "s", "ekr.stabilizer_coset"),
    "ekr.classify_family.s": ("s", "s", "ekr.classify_family"),
    "fields.ctx_build_s": ("s", "s", "fields.ctx_build"),
    "fields.ctx_cache_hit_ratio": ("ratio", "hit", "fields.field_ctx_for_q"),
    "verify.table.self_s": ("s", "self_s", "verify.table"),
    "verify.sums.self_s": ("s", "self_s", "verify.sums"),
    "verify.rank.self_s": ("s", "self_s", "verify.rank"),
    "verify.ekr.self_s": ("s", "self_s", "verify.ekr"),
}


class Tracer:
    """Spans and per-name sums for every wrapped call in this process."""

    def __init__(self):
        # name -> [calls, inclusive s, self s, active depth]; inclusive time
        # counts outermost calls only, so recursion is not counted twice.
        self.stats: dict[str, list] = {}
        self.misses: Counter = Counter()
        self.counters: Counter = Counter()
        self.unique_inputs: dict[str, set] = {}
        self.uncached: set[str] = set()  # names whose cache the program no longer has
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0

    def wrap(self, name: str, fn, observe=None):
        """A traced stand-in for fn.  observe(args), if given, runs before the
        span starts and returns a callable run after it ends."""
        clock = time.perf_counter
        stack, spans = self._stack, self.spans
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            done = observe(args) if observe is not None else None
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            st[3] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                st[0] += 1
                st[2] += duration - frame[1]
                st[3] -= 1
                if not st[3]:
                    st[1] += duration
                if st[0] <= SPAN_CAP:
                    spans.append((frame[0], parent, name, start, end))
                if done is not None:
                    done()

        return traced

    def metrics(self) -> dict[str, float]:
        """LAYER_METRICS values.  A ratio over zero calls reads 0; a cache
        ratio is absent once the program no longer has that cache."""
        out = {}
        for metric, (_, kind, key) in LAYER_METRICS.items():
            calls, inclusive, self_s, _ = self.stats.get(key, (0, 0.0, 0.0, 0))
            if kind == "calls":
                out[metric] = calls
            elif kind == "s":
                out[metric] = inclusive
            elif kind == "self_s":
                out[metric] = self_s
            elif kind == "layer_self_s":
                out[metric] = sum(v[2] for k, v in self.stats.items() if k.startswith(key))
            elif kind == "counter":
                out[metric] = self.counters[key]
            elif kind == "unique":
                out[metric] = len(self.unique_inputs.get(key, ())) / calls if calls else 0.0
            elif key not in self.uncached:  # "hit"
                out[metric] = 1 - self.misses[key] / calls if calls else 0.0
        return out

    def write_spans(self, path: str):
        """Spans as {"id", "parent", "name", "start", "end"}; parent 0 is the root.
        A parent may lie beyond SPAN_CAP and then has no record of its own."""
        records = [
            {"id": i, "parent": p, "name": n, "start": s, "end": e} for i, p, n, s, e in self.spans
        ]
        dropped = {n: v[0] - SPAN_CAP for n, v in self.stats.items() if v[0] > SPAN_CAP}
        with open(path, "w") as fh:
            json.dump({"spans": records, "calls_beyond_cap": dropped}, fh)


def _cache_observer(tracer: Tracer, name: str, holder):
    """Counts a miss when the cache on holder(args) grows across the call."""
    attr = CACHES[name]

    def observe(args):
        cache = getattr(holder(args), attr, None)
        if cache is None:
            tracer.uncached.add(name)
            return None
        before = len(cache)

        def done():
            if len(cache) > before:
                tracer.misses[name] += 1

        return done

    return observe


def _bareiss_observer(tracer: Tracer, name: str):
    seen = tracer.unique_inputs.setdefault(name, set())

    def observe(args):
        rows = tuple(map(tuple, args[0]))
        seen.add(rows)
        tracer.counters[name + ".cells"] += len(rows) * (len(rows[0]) if rows else 0)
        return None

    return observe


def _observer(tracer: Tracer, name: str, holder):
    if name == "intrank.bareiss_rank":
        return _bareiss_observer(tracer, name)
    if name in CACHES:
        return _cache_observer(tracer, name, holder)
    return None


def install(tracer: Tracer):
    """Wrap every binding of the traced functions and methods inside psl2q."""
    import psl2q.cli  # noqa: F401  (loads every module of the package)

    modules = [m for n, m in list(sys.modules.items()) if n == "psl2q" or n.startswith("psl2q.")]

    for module_name, attr, name in FUNCTIONS:
        home = sys.modules[module_name]
        original = getattr(home, attr)
        traced = tracer.wrap(name, original, _observer(tracer, name, lambda args, home=home: home))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)

    for module_name, class_name, method, name in METHODS:
        cls = getattr(sys.modules[module_name], class_name)
        original = cls.__dict__[method]
        traced = tracer.wrap(name, original, _observer(tracer, name, lambda args: args[0]))
        for key, value in list(vars(cls).items()):
            if value is original:
                setattr(cls, key, traced)
