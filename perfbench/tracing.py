"""In-memory span recorder that wraps roleproj functions from outside.

Each wrapper replaces a module attribute under the name its caller looks
up (for example ``roleproj.pipeline.solve``, which ``run_pipeline`` calls,
or ``roleproj.lap.solve_lap``, which the matcher calls through its ``lap``
module).  A span is (name, start, end, parent span index, sentence id).
A name that a later refactor removes is recorded as missing instead of
failing the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.missing: set[str] = set()
        self.sentence = None
        self._stack: list[int] = []
        self._patches: list = []

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.sentence)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> bool:
        """Replace owner.attr by a spanning wrapper; False if it is gone."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False

        def wrapper(*args, **kwargs):
            result = self.span(name, original, *args, **kwargs)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        return True

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def mark(self) -> int:
        return len(self.spans)

    def self_times(self, since: int = 0) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans[since:]:
            if parent is not None and parent >= since:
                child_time[parent] += end - start
        out = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans[since:], since):
            out[name] += end - start - child_time[k]
        return dict(out)

    def total_times(self, since: int = 0) -> dict[str, float]:
        out = defaultdict(float)
        for name, start, end, _, _ in self.spans[since:]:
            out[name] += end - start
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, start, end, parent, sentence) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": k, "name": name, "start": start, "end": end,
                    "parent": parent, "sentence": sentence,
                }))
                fh.write("\n")
