"""Spans around calls into the rewc modules, recorded from outside the program.

The program imports its functions by name (``from .linalg import jacobi_eigh``
in ``rotation``, ``forward``/``backward`` in ``continual``, ``fim`` and
``rotation``), so a call is wrapped by rebinding the name in the namespace of
the module that makes the call. Nothing under ``src/`` is edited; every
rebinding is undone by ``Patches.restore``.
"""

import inspect
import time
from collections import defaultdict


class Patches:
    """Rebinds module attributes and restores them in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, module, attr, make):
        original = getattr(module, attr)
        setattr(module, attr, make(original))
        self._saved.append((module, attr, original))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class Tracer:
    """In-memory span recorder: one span per wrapped call.

    A span is ``[sequence, name, parent, start, end, note]``; ``parent`` is the
    index of the enclosing span or -1. Spans stay in memory until the run ends.
    """

    def __init__(self):
        self.spans = []
        self.sequence = "setup"
        self._stack = []

    def wrap(self, patches, module, attr, name, note=None):
        """Trace calls made through ``module.attr``; ``note(bound_args)``
        returns a number stored on the span (a size or a sample count)."""

        def make(fn):
            signature = inspect.signature(fn) if note else None

            def traced(*args, **kwargs):
                value = note(signature.bind(*args, **kwargs).arguments) if note else None
                parent = self._stack[-1] if self._stack else -1
                span = [self.sequence, name, parent, time.perf_counter(), 0.0, value]
                self._stack.append(len(self.spans))
                self.spans.append(span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[4] = time.perf_counter()
                    self._stack.pop()

            return traced

        patches.replace(module, attr, make)

    def of(self, sequence):
        """Indices of the spans recorded under ``sequence``."""
        return [i for i, s in enumerate(self.spans) if s[0] == sequence]

    def nearest(self, index, names):
        """Name of the closest enclosing span whose name is in ``names``."""
        parent = self.spans[index][2]
        while parent >= 0:
            if self.spans[parent][1] in names:
                return self.spans[parent][1]
            parent = self.spans[parent][2]
        return None

    def totals(self, sequence, under=None):
        """Per span name: calls, total seconds and self seconds (total minus
        the time covered by direct children; children never overlap). With
        ``under``, only spans nested inside a span of that name count."""
        indices = self.of(sequence)
        child = defaultdict(float)
        for i in indices:
            _, _, parent, t0, t1, _ = self.spans[i]
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        total = defaultdict(float)
        selfs = defaultdict(float)
        for i in indices:
            _, name, _, t0, t1, _ = self.spans[i]
            if under is not None and self.nearest(i, (under,)) is None:
                continue
            calls[name] += 1
            total[name] += t1 - t0
            selfs[name] += (t1 - t0) - child[i]
        return calls, total, selfs

    def dump(self):
        return [
            {"sequence": s[0], "name": s[1], "parent": s[2], "start": s[3],
             "end": s[4], "note": s[5]}
            for s in self.spans
        ]
