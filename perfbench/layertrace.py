"""Per-layer tracing from outside the package.

Every public function of each ``qtoric`` module (a layer) is replaced by a
wrapper that records a span: name, start, end, parent span and request id.
The wrapper is bound in the defining module and in every ``qtoric`` module
that imported the function by name.  ``Scalar`` arithmetic is wrapped on the
class.  Spans stay in memory and are written when the run ends.

Scalar arithmetic and polynomial gcds run millions of times in one run, so
their spans are folded: they are timed and counted like the others and
their time is subtracted from the parent's self time, but they are not kept
one by one.

Self time of a span is its duration minus the time covered by its child
spans.  Child spans on worker threads (``--jobs 2`` batches) are merged as
intervals, since two of them can run at once.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
from time import perf_counter_ns

LAYERS = ("scalars", "linalg", "lp", "lattice_fan", "calibration",
          "morphism", "atlas", "gale_lvmb", "moduli", "io", "cli")

SCALAR_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                     "__pow__")

FOLDED_FUNCTIONS = {"scalars.poly_gcd"}


class Tracer:
    def __init__(self):
        self.names = []            # name id -> span name
        self.layer_of = []         # name id -> layer
        self.spans = []            # recorded spans, see _finish
        self.req = 0               # id of the request being served
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads = []         # per-thread [calls, inclusive, self] tables
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._cross = []           # worker-thread top spans: (start, end)
        self._root = 0             # sid of the main thread's outermost span
        self._patches = []
        self.indeterminate = {}    # layer -> Indeterminate raised there

    # -- installing ---------------------------------------------------------

    def install(self):
        mods = {layer: importlib.import_module(f"qtoric.{layer}")
                for layer in LAYERS}
        package = [m for name, m in sorted(sys.modules.items())
                   if name == "qtoric" or name.startswith("qtoric.")]
        for layer, mod in mods.items():
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(fn, name, layer,
                                     name in FOLDED_FUNCTIONS)
                for m in package:
                    for a2, obj in list(vars(m).items()):
                        if obj is fn:
                            self._patch(m, a2, wrapper)
        scalar_cls = mods["scalars"].Scalar
        for meth in SCALAR_ARITHMETIC:
            fn = scalar_cls.__dict__[meth]
            self._patch(scalar_cls, meth,
                        self._wrap(fn, f"scalars.Scalar.{meth}", "scalars",
                                   True))

    def uninstall(self):
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    # -- recording ----------------------------------------------------------

    def _thread_state(self):
        st = self._local
        st.stack = []
        st.table = [[0, 0, 0] for _ in self.names]
        with self._lock:
            self._threads.append(st.table)
        return st

    def _wrap(self, fn, name, layer, folded):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        local = self._local
        tracer = self

        def wrapper(*args, **kwargs):
            st = local if hasattr(local, "stack") else tracer._thread_state()
            stack = st.stack
            parent = stack[-1] if stack else None
            sid = parent[1] if folded else next(tracer._ids)
            if parent is None and threading.get_ident() == tracer._main:
                tracer._root = sid
            frame = [0, sid]
            stack.append(frame)
            t0 = perf_counter_ns()
            err = None
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                err = e
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                tracer._finish(st, nid, folded, frame, parent, t0, t1, err)

        wrapper.__wrapped__ = fn
        return wrapper

    def _finish(self, st, nid, folded, frame, parent, t0, t1, err):
        dur = t1 - t0
        covered = frame[0]
        if parent is not None:
            parent[0] += dur
            parent_sid = parent[1]
        elif threading.get_ident() == self._main:
            covered += _union_within(self._cross, t0, t1)
            self._cross = []
            parent_sid = 0
        else:
            with self._lock:
                self._cross.append((t0, t1))
            parent_sid = self._root
        own = dur - covered
        row = st.table[nid]
        row[0] += 1
        row[1] += dur
        row[2] += own
        if err is not None and type(err).__name__ == "Indeterminate":
            layer = self.layer_of[nid]
            seen = getattr(err, "_traced_layers", set())
            if layer not in seen:
                self.indeterminate[layer] = \
                    self.indeterminate.get(layer, 0) + 1
                try:
                    err._traced_layers = seen | {layer}
                except AttributeError:
                    pass
        if not folded:
            self.spans.append((frame[1], nid, t0, t1, parent_sid, self.req,
                               own, None if err is None
                               else type(err).__name__))

    # -- results ------------------------------------------------------------

    def totals(self):
        """name -> (calls, inclusive ns, self ns) over all threads."""
        out = {}
        for nid, name in enumerate(self.names):
            calls = incl = own = 0
            for table in self._threads:
                if nid < len(table):
                    c, i, s = table[nid]
                    calls, incl, own = calls + c, incl + i, own + s
            out[name] = (calls, incl, own)
        return out

    def layer_self_seconds(self):
        out = {layer: 0 for layer in LAYERS}
        for name, (_, _, own) in self.totals().items():
            out[name.split(".", 1)[0]] += own
        return {layer: ns / 1e9 for layer, ns in out.items()}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, nid, t0, t1, parent, req, own, err in self.spans:
                fh.write(json.dumps({"id": sid, "name": self.names[nid],
                                     "start_ns": t0, "end_ns": t1,
                                     "parent": parent, "req": req,
                                     "self_ns": own, "error": err}) + "\n")


def _union_within(intervals, lo, hi):
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
