"""Per-layer tracing from outside the library.

The tracer wraps every public function of the seven layer modules, in
every latwist module namespace that imported it, so a call from one layer
into another passes through a wrapper.  Each wrapped call records its
duration and the time of the wrapped calls it made; self time is the
difference.  Calls into ``lattice`` are too many to keep one by one, so
they only add to counters; every other call is also kept as a span
(id, name, start, end, parent id, operation id) and written out at the end.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
from time import perf_counter

LAYERS = ("lattice", "classexpr", "reduction", "cone", "decompose", "oracle", "cli")
UNSPANNED = ("lattice.",)
SPAN_CAP = 200_000


class Tracer:
    def __init__(self, lw):
        self.lw = lw
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.spans = []
        self.dropped = 0
        self.values = {}  # name -> list of observed result sizes
        self.op = 0
        self._ids = itertools.count(1)
        self._stack = [[0.0, 0]]  # per open call: [child time, span id]
        self._undo = []

    # -- installation -------------------------------------------------

    def install(self):
        hooks = {
            "reduction.cremona_reduce": self._on_normal_form,
            "cone.enumerate_exceptional": lambda r: self._observe("cone.exceptional_scanned", len(r)),
            "oracle.enumerate_classes": lambda r: self._observe("oracle.classes_enumerated", len(r)),
        }
        for name in ("decompose_K", "decompose_K_alpha", "decompose_ruled"):
            hooks[f"decompose.{name}"] = lambda r: self._observe("decompose.word_len", len(r))
        modules = [m for k, m in sys.modules.items() if k == "latwist" or k.startswith("latwist.")]
        for layer in LAYERS:
            module = getattr(self.lw, layer)
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._wrap(name, fn, hooks.get(name))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, key, wrapped)
        word = self.lw.reduction.ReflectionWord
        self._patch(word, "__init__", self._wrap("reduction.ReflectionWord.build", word.__init__))
        matrix = inspect.getattr_static(word, "matrix")
        read = self._wrap("reduction.ReflectionWord.matrix", lambda obj: matrix.__get__(obj, word))
        self._patch(word, "matrix", property(read))

    def uninstall(self):
        for owner, key, old in reversed(self._undo):
            setattr(owner, key, old)
        self._undo.clear()

    def _patch(self, owner, key, new):
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, new)

    def _wrap(self, name, fn, on_result=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, ids = self._stack, self.spans, self._ids
        keep = not name.startswith(UNSPANNED)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, next(ids) if keep else 0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                parent[0] += took
                stats[0] += 1
                stats[1] += took
                stats[2] += took - frame[0]
                if keep:
                    if len(spans) < SPAN_CAP:
                        spans.append((frame[1], name, start, end, parent[1], self.op))
                    else:
                        self.dropped += 1
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _observe(self, key, value):
        self.values.setdefault(key, []).append(value)

    def _on_normal_form(self, nf):
        self._observe("reduction.word_len", len(nf.word))
        self._observe("reduction.irreducible", int(nf.kind == "Irreducible"))

    # -- one traced pass ---------------------------------------------

    def reset(self):
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]
        self.spans.clear()
        self.values.clear()
        self.dropped = 0

    def cache_counts(self):
        """Summed hits and misses of every cache in ``cone`` that reports them."""
        hits = misses = 0
        for value in vars(self.lw.cone).values():
            info = getattr(value, "cache_info", None)
            if callable(info):
                ci = info()
                hits, misses = hits + ci.hits, misses + ci.misses
        return hits, misses

    def layer_metrics(self, ops, cache_delta):
        """The per-layer metrics of the pass since the last reset."""
        st = self.stats

        def calls(*names):
            return sum(st.get(n, (0,))[0] for n in names)

        def total(*names):
            return sum(st.get(n, (0, 0.0))[1] for n in names)

        def self_s(*names):
            return sum(st.get(n, (0, 0.0, 0.0))[2] for n in names)

        def layer_self(layer):
            return sum(v[2] for k, v in st.items() if k.startswith(layer + "."))

        def mean(key):
            vals = self.values.get(key, [])
            return sum(vals) / len(vals) if vals else 0.0

        hits, misses = cache_delta
        bfs = ("oracle.bfs_is_exceptional", "oracle.bfs_is_knull_spherical")
        out = {
            "lattice.reflect.calls": (calls("lattice.reflect"), "count"),
            "lattice.pairing.calls": (calls("lattice.pairing"), "count"),
            "lattice.reflection_matrix.calls": (calls("lattice.reflection_matrix"), "count"),
            "lattice.self_s": (layer_self("lattice"), "s"),
            "lattice.form_pairing.calls": (calls("lattice.form_pairing"), "count"),
            "lattice.form_pairing.total_s": (total("lattice.form_pairing"), "s"),
            "classexpr.parse.calls": (calls("classexpr.parse_class", "classexpr.parse_form"), "count"),
            "classexpr.self_s": (layer_self("classexpr"), "s"),
            "reduction.cremona_reduce.calls": (calls("reduction.cremona_reduce"), "count"),
            "reduction.cremona_reduce.self_s": (self_s("reduction.cremona_reduce"), "s"),
            "reduction.reductions_per_op": (calls("reduction.cremona_reduce") / ops, "count"),
            "reduction.ReflectionWord.builds": (calls("reduction.ReflectionWord.build"), "count"),
            "reduction.ReflectionWord.build_s": (total("reduction.ReflectionWord.build"), "s"),
            "reduction.matrix_reads": (calls("reduction.ReflectionWord.matrix"), "count"),
            "reduction.word_len.mean": (mean("reduction.word_len"), "count"),
            "reduction.word_len.max": (max(self.values.get("reduction.word_len", [0])), "count"),
            "reduction.irreducible": (sum(self.values.get("reduction.irreducible", [])), "count"),
            "cone.enumerate_exceptional.calls": (calls("cone.enumerate_exceptional"), "count"),
            "cone.enumerate_exceptional.self_s": (self_s("cone.enumerate_exceptional"), "s"),
            "cone.exceptional_scanned": (sum(self.values.get("cone.exceptional_scanned", [])), "count"),
            "cone.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "cone.in_cone.self_s": (self_s("cone.in_cone"), "s"),
            "cone.is_lagrangian_spherical.self_s": (self_s("cone.is_lagrangian_spherical"), "s"),
            "decompose.validate.total_s": (total("decompose.validate"), "s"),
            "decompose.decompose_K.self_s": (self_s("decompose.decompose_K"), "s"),
            "decompose.decompose_K_alpha.self_s": (self_s("decompose.decompose_K_alpha"), "s"),
            "decompose.decompose_ruled.self_s": (self_s("decompose.decompose_ruled"), "s"),
            "decompose.word_len.mean": (mean("decompose.word_len"), "count"),
            "oracle.enumerate_classes.total_s": (total("oracle.enumerate_classes"), "s"),
            "oracle.classes_enumerated": (sum(self.values.get("oracle.classes_enumerated", [])), "count"),
            "oracle.bfs.calls": (calls(*bfs), "count"),
            "oracle.bfs.self_s": (self_s(*bfs), "s"),
            "cli.main.calls": (calls("cli.main"), "count"),
            "cli.main.self_s": (self_s("cli.main"), "s"),
        }
        return out
