"""Spans around the benchmark's calls into the package, kept in memory.

A span is a tuple ``(name, start, end, parent, count, extra)``: ``name`` is
``module.function`` for a package call or ``request:<id>`` / ``probe:<id>``
for the roots that group them, ``parent`` is the index of the enclosing
span (None for a root), and ``count``/``extra`` are work counts recorded at
the same boundary (factors, moves, states, letters).
"""

from __future__ import annotations

from time import perf_counter


class Recorder:
    """Times package calls; with tracing on, also keeps a span per call.

    ``busy`` sums the duration of calls made under a request root; calls
    under a probe root are traced but never counted as request time.
    """

    def __init__(self, trace):
        self.trace = trace
        self.spans = []
        self.busy = 0.0
        self._root = None
        self._probing = False

    def open(self, name, probe=False):
        self._probing = probe
        if self.trace:
            self._root = len(self.spans)
            self.spans.append([name, perf_counter(), None, None, 0, 0])

    def close(self):
        if self.trace and self._root is not None:
            self.spans[self._root][2] = perf_counter()
        self._root = None
        self._probing = False

    def call(self, name, fn, *args):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            if not self._probing:
                self.busy += t1 - t0
            if self.trace:
                self.spans.append([name, t0, t1, self._root, 0, 0])

    def tag(self, count, extra=0):
        """Attach work counts to the span just recorded."""
        if self.trace:
            self.spans[-1][4] = count
            self.spans[-1][5] = extra


def root_self_times(spans):
    """Each root's duration less its package calls: the benchmark's own time
    inside a request or probe (reading files, recording spans and tags).

    Package calls are direct children of a root, recorded one after another,
    so they never overlap and their durations simply add up.
    """
    own = {}
    for i, (_, start, end, parent, *_rest) in enumerate(spans):
        if parent is None:
            own[i] = end - start
        else:
            own[parent] -= end - start
    return own


def module_busy(spans, root_prefix="request:"):
    """Package-call time summed per module over the spans whose root name
    starts with root_prefix; probe roots are left out by default."""
    busy = {}
    for name, start, end, parent, *_rest in spans:
        if parent is None or not spans[parent][0].startswith(root_prefix):
            continue
        module = name.split(".", 1)[0]
        busy[module] = busy.get(module, 0.0) + end - start
    return busy
