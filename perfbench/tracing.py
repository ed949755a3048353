"""Spans around the calls into limhyper's modules, kept in memory.

``install`` replaces limhyper's public functions in the namespaces where
callers look them up: ``theorems`` holds its own references to
``build_topology``, ``build_carrier``, the hyperspace operations and
``enumerate_topologies``, ``CHECKS`` maps check ids to functions, and the
benchmark reaches entry points through the package.  Nothing under
``src/`` is edited.  Each function gets one of three wrappers:

* a kept span for coarse calls (checks, carriers, tables, parsing,
  reports, whole entry points): name, start, end and parent span, stored
  in arrays until the run ends;
* a folded span for point and set operations called millions of times
  (``seq_limits`` alone is called about 9 M times in a five-point sweep):
  its count and time go to per-name totals and its time is charged to the
  enclosing kept span as child time, because at 24 bytes a span the
  11 M operation calls of that sweep would hold about 270 MB;
* for ``enumerate_topologies`` a folded span around each ``next``.

``theorems`` also looks up ``Pool`` by name.  It is replaced by a pool
whose tasks return, with each result, the records the forked worker made
for it; they join the parent's spans as children of the ``sweep`` span.
So the sweep is traced at the same two workers as it is timed.

A span's self time is its duration minus the time of its direct children
in the same process.
"""

from __future__ import annotations

import inspect
import os
import statistics
import time
from array import array
from collections import Counter

# Public functions traced as kept spans; every other public function of
# finspace, limitsets and hyperspace is folded.
KEPT = {
    "sweep", "mine_check_failures", "verify_all", "run_check",
    "build_topology", "carrier", "validate_topology",
    "parse_space", "emit_report", "parse_report",
}
GENERATORS = {"enumerate_topologies"}
CALLER_MODULES = ("theorems", "spaceio", "cli")
STATUSES = ("pass", "fail", "trivially_true", "proxy")
COMMANDS = ("validate", "report", "verify")

# The installed tracer; a forked pool worker finds its own copy here.
_ACTIVE: Tracer | None = None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.fold_calls: list[int] = []
        self.fold_time: list[float] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = {"carrier": set(), "table": set()}
        self.pid = os.getpid()
        self.open_span("bench.workload")

    def clear(self) -> None:
        """Drop every record, in place: the wrappers hold these containers."""
        for records in (self.name_id, self.parent, self.start, self.end, self.child):
            del records[:]
        self.fold_calls[:] = [0] * len(self.names)
        self.fold_time[:] = [0.0] * len(self.names)
        self.stack.clear()
        self.counts.clear()
        for keys in self.distinct.values():
            keys.clear()
        self.open_span("pool.task")

    def drain(self) -> dict:
        """The records made since the last drain, keyed by name, then clear."""
        delta = {
            "spans": [
                (self.names[self.name_id[i]], self.parent[i], self.start[i], self.end[i], self.child[i])
                for i in range(1, len(self.start))
            ],
            "folded": {
                name: (self.fold_calls[i], self.fold_time[i])
                for i, name in enumerate(self.names) if self.fold_calls[i]
            },
            "counts": dict(self.counts),
            "distinct": {key: set(keys) for key, keys in self.distinct.items()},
        }
        self.clear()
        return delta

    def merge(self, delta: dict) -> None:
        """Add a worker's records; its top-level spans get the open span as
        cause, without charging their time to it."""
        cause = self.stack[-1]
        base = len(self.start) - 1
        for name, parent, start, end, child in delta["spans"]:
            self.name_id.append(self._id(name))
            self.parent.append(base + parent if parent > 0 else cause)
            self.start.append(start)
            self.end.append(end)
            self.child.append(child)
        for name, (calls, total) in delta["folded"].items():
            i = self._id(name)
            self.fold_calls[i] += calls
            self.fold_time[i] += total
        self.counts.update(delta["counts"])
        for key, keys in delta["distinct"].items():
            self.distinct[key] |= keys

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.fold_calls.append(0)
            self.fold_time.append(0.0)
        return self._ids[name]

    def open_span(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.child.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close_span(self, idx: int) -> None:
        t = time.perf_counter()
        self.stack.pop()
        self.end[idx] = t
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += t - self.start[idx]

    def kept(self, fn, name, name_for_call=None, on_return=None):
        def wrapper(*args, **kwargs):
            idx = self.open_span(name_for_call(*args) if name_for_call else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close_span(idx)
            if on_return is not None:
                on_return(result, *args)
            return result
        return wrapper

    def folded(self, fn, name):
        i = self._id(name)
        calls, total, child, stack, clock = self.fold_calls, self.fold_time, self.child, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                calls[i] += 1
                total[i] += dt
                child[stack[-1]] += dt
        return wrapper

    def folded_generator(self, fn, name):
        i = self._id(name)
        end = object()

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = time.perf_counter()
                item = next(it, end)
                dt = time.perf_counter() - t0
                self.fold_calls[i] += 1
                self.fold_time[i] += dt
                self.child[self.stack[-1]] += dt
                if item is end:
                    return
                self.counts["spaces_enumerated"] += 1
                yield item
        return wrapper

    # Result hooks: the counts that ratios are built from, taken where the
    # work happens.
    def _on_status(self, result, *args):
        self.counts["status." + result.status] += 1

    def _on_carrier(self, result, space, kind):
        self.distinct["carrier"].add((space.n, space.opens, kind))

    def _on_table(self, result, car, flavor):
        self.distinct["table"].add((car.space.n, car.space.opens, car.elements, flavor))
        self.counts["table_entries"] += sum(len(row) for row in result.min_nbhds)

    def _on_mine(self, result, *args):
        self.counts["mining_hits"] += len(result)

    def _on_report(self, result, *args):
        self.counts["report_bytes"] += len(result.encode())

    def install(self, limhyper) -> None:
        """Wrap every public function of limhyper where callers find it."""
        from limhyper import cli, theorems

        modules = [getattr(limhyper, m) for m in CALLER_MODULES]
        public = {
            id(obj) for obj in vars(limhyper).values()
            if inspect.isfunction(obj) and obj.__module__.startswith("limhyper.")
        }
        hooks = {
            "run_check": self._on_status,
            "carrier": self._on_carrier,
            "mine_check_failures": self._on_mine,
            "emit_report": self._on_report,
        }
        wrappers: dict[int, object] = {}

        def wrapped(fn):
            if id(fn) not in wrappers:
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                if fn.__name__ == "build_topology":
                    wrappers[id(fn)] = self.kept(
                        fn, name, lambda car, flavor: f"{name}.{car.kind}.{flavor}", self._on_table
                    )
                elif fn.__name__ in KEPT:
                    wrappers[id(fn)] = self.kept(fn, name, on_return=hooks.get(fn.__name__))
                elif fn.__name__ in GENERATORS:
                    wrappers[id(fn)] = self.folded_generator(fn, name)
                else:
                    wrappers[id(fn)] = self.folded(fn, name)
            return wrappers[id(fn)]

        for ns in [limhyper, *modules]:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in public:
                    setattr(ns, attr, wrapped(obj))
        real_pool = theorems.Pool
        theorems.Pool = lambda jobs: _TracedPool(self, real_pool(jobs))
        global _ACTIVE
        _ACTIVE = self
        for cid, fn in list(theorems.CHECKS.items()):
            theorems.CHECKS[cid] = self.kept(fn, f"theorems.check.{cid}")
        cli.run = self.kept(cli.run, "cli.run", lambda argv: f"cli.run.{argv[0]}")

    def metrics(self, check_ids) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        self_time: Counter = Counter()
        calls: Counter = Counter()
        verify_ms = []
        mine_id = self._ids.get("theorems.mine_check_failures", -2)
        run_check_id = self._ids.get("theorems.run_check", -2)
        mining_run_checks = 0
        for idx in range(1, len(self.start)):
            nid = self.name_id[idx]
            name = self.names[nid]
            duration = self.end[idx] - self.start[idx]
            self_time[name] += duration - self.child[idx]
            calls[name] += 1
            if name == "theorems.verify_all":
                verify_ms.append(duration * 1000.0)
            if nid == run_check_id and self.name_id[self.parent[idx]] == mine_id:
                mining_run_checks += 1
        fold_time = {name: self.fold_time[i] for i, name in enumerate(self.names)}
        fold_calls = {name: self.fold_calls[i] for i, name in enumerate(self.names)}

        def folded_sum(table, layer, skip=()):
            return sum(v for k, v in table.items() if k.startswith(layer + ".") and k not in skip)

        def ratio(num, den):
            return num / den if den else 0.0

        def pct(q):
            if len(verify_ms) < 2:
                return verify_ms[0] if verify_ms else 0.0
            return statistics.quantiles(verify_ms, n=100, method="inclusive")[q - 1]

        enum = "finspace.enumerate_topologies"
        m: dict[str, tuple[float, str]] = {
            "finspace.enumerate_s": (fold_time.get(enum, 0.0), "s"),
            "finspace.spaces_enumerated": (self.counts["spaces_enumerated"], "count"),
            "finspace.validate_s": (self_time["finspace.validate_topology"], "s"),
            "finspace.ops_s": (folded_sum(fold_time, "finspace", {enum}), "s"),
            "limitsets.carrier_s": (self_time["limitsets.carrier"], "s"),
            "limitsets.carrier_calls": (calls["limitsets.carrier"], "count"),
            "limitsets.carrier_distinct_ratio": (
                ratio(len(self.distinct["carrier"]), calls["limitsets.carrier"]), "ratio"),
            "limitsets.ops_s": (folded_sum(fold_time, "limitsets"), "s"),
        }
        for kind in ("F", "Fprime", "L", "Lprime", "ML"):
            for flavor in ("w", "s"):
                m[f"hyperspace.build_topology_s.{kind}.{flavor}"] = (
                    self_time[f"hyperspace.build_topology.{kind}.{flavor}"], "s")
        build_calls = sum(v for k, v in calls.items() if k.startswith("hyperspace.build_topology."))
        m.update({
            "hyperspace.build_topology_calls": (build_calls, "count"),
            "hyperspace.build_distinct_ratio": (ratio(len(self.distinct["table"]), build_calls), "ratio"),
            "hyperspace.table_entries": (self.counts["table_entries"], "count"),
            "hyperspace.ops_s": (folded_sum(fold_time, "hyperspace"), "s"),
            "hyperspace.ops_calls": (folded_sum(fold_calls, "hyperspace"), "count"),
            "hyperspace.seq_limits_calls": (fold_calls.get("hyperspace.seq_limits", 0), "count"),
        })
        for cid in check_ids:
            m[f"theorems.check_s.{cid}"] = (self_time[f"theorems.check.{cid}"], "s")
        m.update({
            "theorems.verify_samples": (len(verify_ms), "count"),
            "theorems.verify_p50_ms": (pct(50), "ms"),
            "theorems.verify_p99_ms": (pct(99), "ms"),
        })
        for status in STATUSES:
            m[f"theorems.status.{status}"] = (self.counts["status." + status], "count")
        m.update({
            "theorems.mining_run_checks": (mining_run_checks, "count"),
            "theorems.mining_hits": (self.counts["mining_hits"], "count"),
            "theorems.mining_hit_ratio": (ratio(self.counts["mining_hits"], mining_run_checks), "ratio"),
            "spaceio.parse_space_s": (self_time["spaceio.parse_space"], "s"),
            "spaceio.emit_report_s": (self_time["spaceio.emit_report"], "s"),
            "spaceio.parse_report_s": (self_time["spaceio.parse_report"], "s"),
            "spaceio.report_bytes": (self.counts["report_bytes"], "bytes"),
        })
        for command in COMMANDS:
            m[f"cli.run_s.{command}"] = (self_time[f"cli.run.{command}"], "s")
        m["trace.kept_spans"] = (len(self.start) - 1, "count")
        return m


class _Task:
    """A pool task that returns its result with the records it made."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, item):
        tracer = _ACTIVE
        if tracer is None:
            return self.fn(item), None
        if tracer.pid != os.getpid():
            tracer.pid = os.getpid()
            tracer.clear()
        result = self.fn(item)
        return result, tracer.drain()


class _TracedPool:
    def __init__(self, tracer: Tracer, pool):
        self._tracer = tracer
        self._pool = pool

    def __enter__(self):
        self._pool.__enter__()
        return self

    def __exit__(self, *exc):
        return self._pool.__exit__(*exc)

    def map(self, fn, items, chunksize=None):
        results = []
        for result, delta in self._pool.map(_Task(fn), items, chunksize):
            if delta is not None:
                self._tracer.merge(delta)
            results.append(result)
        return results
