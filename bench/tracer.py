"""Outside-in span recorder for the traced benchmark run.

The recorder wraps the public callables of every falsetheta module (each
module's ``__all__``), ``cli.main`` and the arithmetic operators of
``PuiseuxSeries``.  Modules import these names from each other, so a
wrapper is rebound in every ``falsetheta.*`` namespace that holds the
original object; calls between modules and within a module then pass
through it too.  Nothing under ``src/`` is edited.

Each thread keeps its own parent stack and its own span list, so spans
from run_suite's thread pool (jobs > 1) nest correctly.  Spans stay in
memory until ``layer_metrics`` turns them into per-layer figures at the
end of the run.  A span's self time is its duration minus the durations
of its direct children, which run on the same thread inside its interval.
On several threads a span also covers the time its thread waited for the
interpreter lock, so self times summed over threads can exceed wall time.
"""

import collections
import threading
import time

LAYERS = ("series", "bilaurent", "thetas", "families", "identities", "numeric", "cli")

# PuiseuxSeries operators wrapped, with the op name they are counted under
SERIES_OPERATORS = {
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__rsub__": "sub",
    "__neg__": "neg",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__pow__": "pow",
    "invert": "invert",
}


def _series_mul_pairs(args, result):
    a, b = args
    nb = len(b.terms) if hasattr(b, "terms") else 1
    return (len(a.terms) * nb,)


def _bl_mul_pairs(args, result):
    a, b = args
    return (len(a.terms) * len(b.terms), len(result.terms))


def _terms_out(args, result):
    terms = getattr(result, "terms", None)
    return (len(terms),) if isinstance(terms, dict) else (0,)


# size counters recorded per (layer, op); all others record nothing
_SIZERS = {
    ("series", "mul"): _series_mul_pairs,
    ("bilaurent", "bl_mul"): _bl_mul_pairs,
}


class Tracer:
    """Records (name, parent, start, end, sizes) spans per thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []  # name id -> (layer, op)
        self._ids = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []  # one span list per thread that recorded spans
        self._restore = []  # (namespace, attribute, original)

    def _name_id(self, layer, op):
        key = (layer, op)
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(key)
        return self._ids[key]

    def _thread_state(self):
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._lock:
                self._threads.append(local.spans)
            return local.spans, local.stack

    def wrap(self, layer, op, fn):
        """Return fn wrapped so that each call records one span."""
        name = self._name_id(layer, op)
        sizer = _SIZERS.get((layer, op))
        if sizer is None and layer == "families":
            sizer = _terms_out
        clock = self.clock
        state = self._thread_state

        def traced(*args, **kwargs):
            spans, stack = state()
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if sizer is not None:
                rec[4] = sizer(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", op)
        return traced

    # -- installation on the falsetheta package --------------------------------

    def install(self, modules):
        """Wrap the public callables of the given falsetheta modules.

        modules maps each module name ("falsetheta.series", ...) to the
        module object; every one of them is searched when rebinding.
        """
        wrappers = {}
        for modname, mod in modules.items():
            layer = modname.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            public = list(getattr(mod, "__all__", ()))
            if layer == "cli":
                public = ["main"]
            for attr in public:
                obj = getattr(mod, attr)
                if isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", modname) != modname:
                    continue  # re-exported; wrapped by its defining module
                wrappers[id(obj)] = (obj, self.wrap(layer, attr, obj))
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        cls = modules["falsetheta.series"].PuiseuxSeries
        for attr, op in SERIES_OPERATORS.items():
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap("series", op, original))

    def uninstall(self):
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore = []

    # -- analysis ---------------------------------------------------------------

    def thread_spans(self):
        """Per thread: list of (layer, op, parent, start, end, self_s, sizes)."""
        out = []
        for spans in self._threads:
            child = [0.0] * len(spans)
            for rec in spans:
                if rec[1] >= 0:
                    child[rec[1]] += rec[3] - rec[2]
            rows = []
            for i, (name, parent, start, end, sizes) in enumerate(spans):
                layer, op = self.names[name]
                rows.append((layer, op, parent, start, end, end - start - child[i], sizes))
            out.append(rows)
        return out


def _outermost(rows, i, pred):
    """True when no ancestor of span i satisfies pred."""
    parent = rows[i][2]
    while parent >= 0:
        if pred(rows[parent]):
            return False
        parent = rows[parent][2]
    return True


def layer_metrics(tracer, cache_funcs=()):
    """Per-layer figures from the recorded spans.

    cache_funcs are the original lru_cache objects of the thetas layer;
    their public cache_info() gives hits, misses and duplicate builds
    (a miss that added no entry: two callers built the same key).
    """
    m = collections.defaultdict(float)
    for layer in LAYERS:
        m[f"{layer}.calls"] = 0
        m[f"{layer}.self_s"] = 0.0
    for key in ("series.mul.calls", "series.mul.term_pairs", "series.add.calls",
                "series.invert.calls", "bilaurent.mul.calls", "bilaurent.mul.key_pairs",
                "bilaurent.mul.keys_out", "families.terms_out", "identities.cases",
                "numeric.checks"):
        m[key] = 0
    for key in ("series.mul.self_s", "bilaurent.mul.total_s", "families.total_s",
                "identities.queue_wait_s"):
        m[key] = 0.0
    suite_spans = []
    cases = []
    for rows in tracer.thread_spans():
        for i, (layer, op, parent, start, end, self_s, sizes) in enumerate(rows):
            m[f"{layer}.calls"] += 1
            m[f"{layer}.self_s"] += self_s
            if layer == "series":
                if op in ("mul", "add", "invert"):
                    m[f"series.{op}.calls"] += 1
                if op == "mul":
                    m["series.mul.term_pairs"] += sizes[0]
                    m["series.mul.self_s"] += self_s
            elif layer == "bilaurent" and op == "bl_mul":
                m["bilaurent.mul.calls"] += 1
                m["bilaurent.mul.key_pairs"] += sizes[0]
                m["bilaurent.mul.keys_out"] += sizes[1]
                if _outermost(rows, i, lambda r: r[1] == "bl_mul"):
                    m["bilaurent.mul.total_s"] += end - start
            elif layer == "families":
                m["families.terms_out"] += sizes[0] if sizes else 0
                if _outermost(rows, i, lambda r: r[0] == "families"):
                    m["families.total_s"] += end - start
            elif layer == "identities":
                if op == "verify_identity":
                    m["identities.cases"] += 1
                    cases.append(start)
                elif op == "run_suite":
                    suite_spans.append((start, end))
            elif layer == "numeric" and op == "check_transformation":
                m["numeric.checks"] += 1
    # a case issued by run_suite waits from the suite's start until a
    # worker (or the calling thread) begins it
    for start in cases:
        for s0, s1 in suite_spans:
            if s0 <= start <= s1:
                m["identities.queue_wait_s"] += start - s0
                break
    hits = misses = dups = 0
    for fn in cache_funcs:
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
        dups += info.misses - info.currsize
    m["thetas.cache.hits"] = hits
    m["thetas.cache.misses"] = misses
    m["thetas.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["thetas.cache.duplicate_builds"] = dups
    return dict(m)
