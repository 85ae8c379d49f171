"""Spans and call counters around the library's public names.

The tracer wraps module attributes from outside the package: every binding
of a wrapped function in a loaded ``regenum`` module is replaced (so a name
imported with ``from .exactnum import zgcd`` is covered as well as the
defining module's own global), and ``uninstall`` puts the originals back.
Nothing inside the library changes.

A span is ``(id, name, start, end, parent)``.  Spans stay in memory while
the run lasts and are written out by the caller when it ends; self times
are computed from them afterwards.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute, size function) -- the size function, when
# given, turns the wrapped call's result into a count added to the
# counter of the same name with "_size" appended.
SPANNED = (
    ("models.build_generators", "regenum.models", "build_generators", None),
    ("modgb.buchberger", "regenum.modgb", "module_buchberger", len),
    ("telescope.reduction_basis", "regenum.telescope", "reduction_basis", lambda b: len(b.stairs)),
    ("telescope.red", "regenum.telescope", "red", None),
    ("telescope.kernel", "regenum.telescope", "KernelAccumulator.add_row", None),
    ("exactnum.zgcd", "regenum.exactnum", "zgcd", None),
    ("seqtools.ode_to_rec", "regenum.seqtools", "ode_to_rec", None),
    ("seqtools.rec_counts", "regenum.seqtools", "rec_counts", None),
    ("seqtools.unroll", "regenum.seqtools", "unroll", None),
    ("oracle.scalar_series", "regenum.oracle", "scalar_series", None),
    ("oracle.graph_count_dp", "regenum.oracle", "graph_count_dp", None),
)

# (counter name, module, attribute): calls counted without a span, for
# functions too small and too frequent for a span each
COUNTED = (
    ("modgb.mul_term", "regenum.modgb", "ModuleElem.mul_term"),
    ("weyl.apply_op", "regenum.weyl", "apply_op"),
    ("exactnum.zmul", "regenum.exactnum", "zmul"),
)


def _resolve(module, attr):
    owner = sys.modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._next_id = 0
        self._stack = [-1]
        self._saved = []

    @property
    def next_id(self) -> int:
        return self._next_id

    def _span_wrapper(self, name, fn, size):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))
            if size is not None:
                counts[name + "_size"] += size(result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _OwnSpan(self, name)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = []
        for name, module, attr, size in SPANNED:
            owner, key = _resolve(module, attr)
            orig = getattr(owner, key)
            wrappers.append((owner, key, orig, self._span_wrapper(name, orig, size)))
        for name, module, attr in COUNTED:
            owner, key = _resolve(module, attr)
            orig = getattr(owner, key)
            wrappers.append((owner, key, orig, self._count_wrapper(name, orig)))
        modules = [m for n, m in sorted(sys.modules.items()) if n == "regenum" or n.startswith("regenum.")]
        for owner, key, orig, wrapper in wrappers:
            if isinstance(owner, type):
                bindings = [(owner, key)]
            else:
                bindings = [(m, attr) for m in modules for attr, val in vars(m).items() if val is orig]
            for obj, attr in bindings:
                self._saved.append((obj, attr, orig))
                setattr(obj, attr, wrapper)

    def uninstall(self):
        while self._saved:
            obj, attr, orig = self._saved.pop()
            setattr(obj, attr, orig)


class _OwnSpan:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.sid = tr._next_id
        tr._next_id += 1
        self.parent = tr._stack[-1]
        tr._stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        tr.spans.append((self.sid, self.name, self.start, end, self.parent))
        return False


def self_times(spans):
    """Per-name self time: each span's duration minus the part of it that
    its direct children cover (children never overlap in one thread)."""
    child = defaultdict(float)
    for _sid, _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for sid, name, start, end, _parent in spans:
        out[name] += (end - start) - child.get(sid, 0.0)
    return dict(out)


def span_stats(spans):
    """Per-name (call count, total duration including children)."""
    calls = Counter()
    total = defaultdict(float)
    for _sid, name, start, end, _parent in spans:
        calls[name] += 1
        total[name] += end - start
    return calls, dict(total)


def spans_between(spans, lo, hi):
    """Spans whose id lies in [lo, hi): the spans opened in that window."""
    return [s for s in spans if lo <= s[0] < hi]
