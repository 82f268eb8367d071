"""In-memory span tracer that wraps the program's public functions from outside.

The linbins modules import each other's functions by name
(`from .oracles import count_triple_collisions`), so a function is traced by
replacing it in every module that binds it, not only where it is defined.
Spans keep name, parent, start and end in flat arrays so that the hundreds
of thousands of spans of the small-call workload stay cheap; they are
written out only when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
from array import array
from time import perf_counter


class Tracer:
    def __init__(self, refusal_type=None):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._refusal_type = refusal_type
        self._wrapped: dict[str, object] = {}

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name: str, work=None):
        """Traced version of fn; work(args, kwargs, result) adds to work[name]."""
        if name in self._wrapped:
            return self._wrapped[name]
        nid = self._id(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )
        refusal = self._refusal_type or ()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except refusal as err:
                if not getattr(err, "_traced_refusal", False):
                    err._traced_refusal = True
                    self.count("refusals")
                raise
            finally:
                end[i] = perf_counter()
                stack.pop()
            if work is not None:
                self.work[name] = self.work.get(name, 0) + work(args, kwargs, result)
            return result

        self._wrapped[name] = traced
        return traced

    def patch(self, home, modules, attr: str, name: str, work=None) -> None:
        """Replace `home.attr` by its traced version in every module binding it."""
        traced = self.wrap(getattr(home, attr), name, work)
        for module in modules:
            if hasattr(module, attr):
                setattr(module, attr, traced)

    def summary(self, first: int = 0, fold: tuple = ()) -> dict[str, dict]:
        """Per-name calls, busy (inclusive) and self time of spans from index `first`.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, so the children never overlap. The
        self time of a span named in `fold` is credited to its parent.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        out: dict[str, dict] = {}
        for i in range(first, n):
            s = out.setdefault(
                self.names[self.name_id[i]], {"calls": 0, "busy": 0.0, "self": 0.0, "durs": []}
            )
            s["calls"] += 1
            s["busy"] += dur[i]
            s["durs"].append(dur[i])
            j = i
            while self.names[self.name_id[j]] in fold and self.parent[j] >= first:
                j = self.parent[j]
            owner = out.setdefault(
                self.names[self.name_id[j]], {"calls": 0, "busy": 0.0, "self": 0.0, "durs": []}
            )
            owner["self"] += dur[i] - child[i]
        return out

    def calls_under(self, name: str, parent: str) -> int:
        """Number of `name` spans whose direct parent is a `parent` span."""
        nid, pid = self._name_ids.get(name), self._name_ids.get(parent)
        return sum(
            1
            for i in range(len(self.start))
            if self.name_id[i] == nid and self.parent[i] >= 0
            and self.name_id[self.parent[i]] == pid
        )

    def roots_busy(self, first: int = 0) -> float:
        """Total duration of spans from `first` on that have no parent span."""
        return sum(
            self.end[i] - self.start[i]
            for i in range(first, len(self.start))
            if self.parent[i] < 0
        )

    def outermost(self, first: int, prefix: str) -> tuple[int, float]:
        """Count and busy time of `prefix` spans with no `prefix` ancestor."""
        calls, busy = 0, 0.0
        for i in range(first, len(self.start)):
            if not self.names[self.name_id[i]].startswith(prefix):
                continue
            j = self.parent[i]
            while j >= 0 and not self.names[self.name_id[j]].startswith(prefix):
                j = self.parent[j]
            if j < 0:
                calls += 1
                busy += self.end[i] - self.start[i]
        return calls, busy

    def write(self, path) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        data = {
            "names": self.names,
            "name": list(self.name_id),
            "parent": list(self.parent),
            "start_ns": [round((t - t0) * 1e9) for t in self.start],
            "end_ns": [round((t - t0) * 1e9) for t in self.end],
            "work": self.work,
            "counts": self.counts,
        }
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))


def quantile(values: list[float], q: float) -> float:
    """Inclusive quantile; 0 for an empty list."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
