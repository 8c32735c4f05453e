"""In-memory spans around the benchmark's own calls into the package.

A span records name, start, end, parent span, op id and the op's kind
(which workload cell the op belongs to). Spans are kept in a list and
written out once, at the end of the run. A disabled tracer calls through
without recording anything, so the untraced loop pays one extra Python
call per package call and nothing else.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id: int | None = None
        self.kind: str = ""
        self.counts: dict[str, int] = defaultdict(int)

    def count(self, name: str, amount: int) -> None:
        """Add to a work counter computed from input sizes."""
        if self.enabled:
            self.counts[name] += amount

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = {
            "id": len(self.spans),
            "name": name,
            "op": self.op_id,
            "kind": self.kind,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "failed": False,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span["failed"] = True
            raise
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover.

        The loop is single-threaded, so the children of a span never
        overlap and their covered time is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child)]

    def totals(self) -> dict[str, dict[str, float]]:
        """Self time, call count and failure count summed per span name."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "calls": 0, "failed": 0}
        )
        for s, self_s in zip(self.spans, self.self_times()):
            rec = out[s["name"]]
            rec["s"] += self_s
            rec["calls"] += 1
            rec["failed"] += int(s["failed"])
        return out

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "counts": self.counts, "spans": self.spans}, fh)
