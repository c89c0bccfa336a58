"""In-memory spans for the traced run.

A span has a name, a start, an end and the span open around it.  Spans are
appended to flat lists while the run goes and written out once at its end;
self time (a span's duration minus the time its children cover) is derived
afterwards.  Times are `time.perf_counter()` values, which on Linux read the
system-wide monotonic clock, so a child process can report spans on the
same time line.
"""

import json
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int):
        self.ends[index] = perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    def add(self, name: str, start: float, end: float, parent: int = None) -> int:
        """A finished span timed elsewhere, by default under the innermost
        open one."""
        if parent is None:
            parent = self._stack[-1] if self._stack else -1
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span count and summed self time per name."""
        child_time = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        out: dict[str, list] = {}
        for i, name in enumerate(self.names):
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += self.ends[i] - self.starts[i] - child_time[i]
        return {name: (count, total) for name, (count, total) in out.items()}

    def durations(self, name: str) -> list[float]:
        return [self.ends[i] - self.starts[i]
                for i, n in enumerate(self.names) if n == name]

    def dump(self, path):
        """One JSON object: the name table and [name, start, end, parent] rows."""
        table = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(table)}
        rows = [[ids[n], s, e, p] for n, s, e, p
                in zip(self.names, self.starts, self.ends, self.parents)]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": table, "spans": rows}, handle, separators=(",", ":"))
