"""Span recorder for the traced benchmark run.

Wraps public functions of the synfocus modules from outside the package:
every module attribute under ``synfocus`` that *is* a listed function is
replaced by a wrapper, so names imported with ``from .x import f`` (as
``cli`` does for the conduction and geometry functions) are traced as
well.  Spans are kept in memory; a span's self time is its duration minus
the time covered by its child spans.
"""

import functools
import sys
import time


class Tracer:
    """Records one span per call of each installed function."""

    def __init__(self):
        self.spans = []       # (label, start, end, parent index or -1)
        self.counts = {}      # (label, quantity) -> accumulated amount
        self._stack = []      # indices of the open spans
        self._patches = []    # (module, attribute, original)

    def install(self, targets):
        """Wrap each ``(module, name, label_of, count_of)`` target.

        ``label_of(args, kwargs)`` names the span; ``count_of(args,
        kwargs, result)`` returns a dict of work quantities to add up under
        that label.
        """
        for module, name, label_of, count_of in targets:
            fn = getattr(module, name)
            wrapper = self._wrap(fn, label_of, count_of)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "synfocus" or mod_name.startswith("synfocus.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, fn))

    def remove(self):
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def _wrap(self, fn, label_of, count_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = label_of(args, kwargs)
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (label, start, end, parent)
            if count_of is not None:
                for quantity, amount in count_of(args, kwargs, result).items():
                    key = (label, quantity)
                    self.counts[key] = self.counts.get(key, 0) + amount
            return result
        return wrapper

    def summary(self):
        """Per label: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for label, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (label, start, end, _) in enumerate(self.spans):
            calls, total, self_s = out.get(label, (0, 0.0, 0.0))
            out[label] = (calls + 1, total + (end - start), self_s + (end - start - child[i]))
        return out
