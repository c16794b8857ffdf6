"""In-memory spans recorded from the benchmark's side of each layer boundary.

A span is ``[name id, parent index, start ns, end ns]``.  Spans are opened
around the benchmark's own calls into edrkit and by wrappers installed on
public names as the calling module binds them (for example
``edrkit.reduction.bezout_gcd``).  Nothing inside ``src/`` is edited.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([self._name_id(name), parent, _now(), 0])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, rename: str | None = None) -> None:
        span = self.spans[idx]
        span[3] = _now()
        if rename is not None:
            span[0] = self._name_id(rename)
        self._stack.pop()

    def install(self, module, attr: str, name: str) -> None:
        """Replace ``module.attr`` by a wrapper that records a span per call."""
        inner = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                return inner(*args, **kwargs)
            finally:
                tracer.end(idx)

        self._patched.append((module, attr, inner))
        setattr(module, attr, traced)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, inner = self._patched.pop()
            setattr(module, attr, inner)

    def aggregate(self) -> dict[str, dict]:
        """name -> {calls, busy_s, self_s} over every closed span."""
        child_ns = [0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for idx, (nid, _, start, end) in enumerate(self.spans):
            entry = out.setdefault(self.names[nid], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns[idx]) / 1e9
        return out

    def write(self, path: str, limit: int = 200_000) -> None:
        """Write the names and the first ``limit`` spans as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "format": "[name id, parent index, start ns, end ns]",
                    "names": self.names,
                    "total_spans": len(self.spans),
                    "spans": self.spans[:limit],
                },
                handle,
                separators=(",", ":"),
            )
