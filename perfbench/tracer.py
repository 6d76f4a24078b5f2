"""Per-layer tracing of ``cfk`` from outside the package.

The tracer replaces the public entry points of each layer, as the calling
module sees them, with thin wrappers that record a span (name, layer, start,
end, parent, query id), and wraps ``Echelon``/``F2Matrix`` at class level to
count linear-algebra work against the layer that is running.  Nothing under
``src/`` is edited; :meth:`Tracer.uninstall` restores every original.

A name that no longer exists in the package is skipped, so its spans and
counts read 0 rather than failing.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from functools import wraps

# (module, attribute, layer).  Each entry is a call site: the module is the
# namespace the caller resolves the name in.
WRAPPED_FUNCTIONS = (
    ("cfk.cli", "run", "cli"),
    ("cfk.cli", "canonical_expression", "complexes"),
    ("cfk.cli", "torus_knot_complex", "complexes"),
    ("cfk.cli", "tensor", "complexes"),
    ("cfk.cli", "dual", "complexes"),
    ("cfk.cli", "upsilon", "upsilon"),
    ("cfk.cli", "upsilon2_at", "upsilon2"),
    ("cfk.complexes", "parse_knot_expression", "complexes"),
    ("cfk.complexes", "torus_knot_complex", "complexes"),
    ("cfk.complexes", "tensor", "complexes"),
    ("cfk.complexes", "dual", "complexes"),
    ("cfk.complexes", "direct_sum_with_box", "complexes"),
    ("cfk.upsilon", "upsilon", "upsilon"),
    ("cfk.upsilon2", "upsilon", "upsilon"),
    ("cfk.upsilon2", "upsilon2_at", "upsilon2"),
    ("cfk.upsilon2", "gamma2_at", "upsilon2"),
)

# (module, class, method, counter name)
WRAPPED_METHODS = (
    ("cfk.f2linalg", "Echelon", "__init__", "echelons"),
    ("cfk.f2linalg", "Echelon", "add", "echelon_adds"),
    ("cfk.f2linalg", "F2Matrix", "__init__", "matrix_builds"),
)


class Tracer:
    """Spans and counts for one traced phase, kept in memory."""

    def __init__(self):
        # [name, layer, start, end, parent index or -1, query id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (layer, counter) -> n
        self.query = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._layer = "bench"

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for module_name, attr, layer in WRAPPED_FUNCTIONS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._patch(module, attr, self._span_wrapper(original, f"{layer}.{attr}", layer))
        for module_name, cls_name, method, counter in WRAPPED_METHODS:
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            if cls is None or method not in cls.__dict__:
                continue
            self._patch(cls, method, self._count_wrapper(cls.__dict__[method], counter))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span_wrapper(self, fn, name, layer):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.query]
            spans.append(span)
            stack.append(index)
            outer, self._layer = self._layer, layer
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._layer = outer
                stack.pop()
            if layer == "upsilon":
                self.counts["upsilon", "breakpoints"] += len(result.breakpoints)
            return result

        return wrapper

    def _count_wrapper(self, fn, counter):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[self._layer, counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- analysis --------------------------------------------------------

    def self_times(self) -> Counter:
        """Seconds per layer, each span minus the spans it directly contains."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                own[s[4]] -= s[3] - s[2]
        out: Counter = Counter()
        for s, t in zip(self.spans, own):
            out[s[1]] += t
        return out

    def count(self, layer: str | None, counter: str) -> int:
        if layer is None:
            return sum(n for (_, c), n in self.counts.items() if c == counter)
        return self.counts[layer, counter]

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def queries_without(self, outer: str, inner_layer: str) -> set:
        """Query ids of ``outer`` spans with no ``inner_layer`` span beneath them."""
        touched = set()
        for s in self.spans:
            if s[1] == inner_layer:
                p = s[4]
                while p >= 0:
                    touched.add(p)
                    p = self.spans[p][4]
        return {s[5] for i, s in enumerate(self.spans) if s[0] == outer and i not in touched}

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": s[0], "layer": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "query": s[5]}
                for s in self.spans
            ],
            "counts": {f"{layer}.{c}": n for (layer, c), n in sorted(self.counts.items())},
        }
