"""Span tracing installed from outside the program.

:func:`install` replaces public functions and methods of ``repro`` with
timing wrappers and :func:`uninstall` puts the originals back; nothing
under ``src/`` changes.  A span records its name, start, end, parent and
op id.  Spans are kept in memory while the run lasts and written out
once at the end.  A call made outside an open root span (set-up, output
checks) runs unrecorded.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.  Summed over every span of a root, self
times give back the root's duration exactly (integer nanoseconds) when
spans nest properly; :func:`attribution_problems` checks that.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

# Span fields: [name, start_ns, end_ns, parent, op, value].
NAME, START, END, PARENT, OP, VALUE = range(6)


def _cells(args, kwargs, result) -> int:
    """DP table cells, computed as alternatives x (resolution + 1)."""
    from repro.core.optimize import DEFAULT_RESOLUTION

    alternatives = sum(len(windows) for windows in args[0].values())
    return alternatives * (kwargs.get("resolution", DEFAULT_RESOLUTION) + 1)


#: (module, attribute path, span name, value taken from the call).
TARGETS = (
    ("repro.sim.experiment", "generate_iteration", "generate", None),
    (
        "repro.core.search",
        "find_alternatives",
        "search",
        lambda args, kwargs, result: (len(args[0]), result.total_alternatives),
    ),
    ("repro.core.index", "SlotIndex.__init__", "index.build", lambda a, k, r: len(a[0])),
    ("repro.core.index", "SlotIndex.slot_list", "index.materialize", None),
    ("repro.core.index", "SlotIndex.find_amp_window_at", "index.amp", None),
    ("repro.core.index", "SlotIndex.find_alp_window", "index.alp", None),
    ("repro.core.index", "SlotIndex.commit", "index.commit", None),
    ("repro.core.optimize", "time_quota", "dp.quota", None),
    ("repro.core.optimize", "vo_budget", "dp.budget", _cells),
    ("repro.core.optimize", "minimize_time", "dp.minimize", _cells),
    ("repro.core.optimize", "minimize_cost", "dp.minimize", _cells),
    ("repro.core.scheduler", "BatchScheduler.schedule", "schedule", None),
    (
        "repro.grid.environment",
        "VOEnvironment.vacant_slot_list",
        "publish",
        lambda a, k, r: len(r),
    ),
    ("repro.grid.environment", "VOEnvironment.commit_window", "reserve", None),
    ("repro.grid.metascheduler", "Metascheduler.run_iteration", "meta.tick", None),
    ("repro.core.journal", "JournalWriter.append", "journal", None),
    ("repro.grid.checkpoint", "snapshot_metascheduler", "snapshot.encode", None),
    (
        "repro.grid.checkpoint",
        "save_snapshot",
        "snapshot.write",
        lambda a, k, r: os.path.getsize(r),
    ),
    ("repro.grid.checkpoint", "load_snapshot", "restore.load", None),
    ("repro.grid.checkpoint", "restore_metascheduler", "restore.decode", None),
    ("repro.core.journal", "read_journal", "restore.read", None),
)

#: Span name -> layer.  Driver and metascheduler self time is
#: ``unattributed``: no layer below owns it.
LAYERS = {
    "op": "unattributed",
    "meta.tick": "unattributed",
    "restore": "restore",
    "generate": "generate",
    "search": "search",
    "schedule": "schedule",
    "publish": "publish",
    "reserve": "reserve",
    "journal": "journal",
}
for _name in ("index.build", "index.materialize", "index.amp", "index.alp", "index.commit"):
    LAYERS[_name] = "index"
for _name in ("dp.quota", "dp.budget", "dp.minimize"):
    LAYERS[_name] = "dp"
for _name in ("snapshot.encode", "snapshot.write"):
    LAYERS[_name] = "snapshot"
for _name in ("restore.load", "restore.decode", "restore.read"):
    LAYERS[_name] = "restore"


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def root(self, name: str, op):
        """Open a root span; wrapped calls inside it are recorded."""
        if self._stack:
            raise RuntimeError(f"root span {name!r} opened inside another span")
        span = [name, 0, 0, -1, op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._op = op
        span[START] = perf_counter_ns()
        try:
            yield
        finally:
            span[END] = perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, function, measure=None):
        """A wrapper recording one span per call made inside a root."""
        spans = self.spans
        stack = self._stack

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not stack:
                return function(*args, **kwargs)
            span = [name, 0, 0, stack[-1], self._op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if measure is not None:
                span[VALUE] = measure(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every :data:`TARGETS` entry wherever it is bound."""
        for module_name, path, name, measure in TARGETS:
            owner = importlib.import_module(module_name)
            *classes, attribute = path.split(".")
            for class_name in classes:
                owner = getattr(owner, class_name)
            original = getattr(owner, attribute)
            wrapper = self.wrap(name, original, measure)
            if classes:
                self._patch(owner, attribute, wrapper)
                continue
            # A module-level function is also bound by name in every
            # module that imported it; rebind each of those.
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not namespace:
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attribute: str, wrapper) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        """Put every original back."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def write(self, path: Path) -> None:
        """Write the spans as CSV: id, parent, op, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as stream:
            stream.write("id,parent,op,name,start_ns,end_ns\n")
            for index, span in enumerate(self.spans):
                stream.write(
                    f"{index},{span[PARENT]},{span[OP]},{span[NAME]},"
                    f"{span[START]},{span[END]}\n"
                )


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part its children cover.

    Children are clipped to their parent's interval, so a child that
    strays outside its parent shows up as a root whose self times no
    longer sum to its duration.
    """
    covered = [0] * len(spans)
    reach = [span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent < 0:
            continue
        outer = spans[parent]
        begin = max(span[START], outer[START], reach[parent])
        end = min(span[END], outer[END])
        if end > begin:
            covered[parent] += end - begin
            reach[parent] = end
    return [span[END] - span[START] - covered[i] for i, span in enumerate(spans)]


def roots_of(spans: list[list]) -> list[int]:
    """Index of each span's root (parents precede their children)."""
    roots: list[int] = []
    for index, span in enumerate(spans):
        roots.append(index if span[PARENT] < 0 else roots[span[PARENT]])
    return roots


def attribution_problems(spans: list[list], selfs: list[int], roots: list[int]) -> list[str]:
    """Problems when layer self times do not sum to each root's duration."""
    totals = [0] * len(spans)
    for index, value in enumerate(selfs):
        if value < 0:
            return [f"span {index} ({spans[index][NAME]}) has negative self time"]
        totals[roots[index]] += value
    problems = []
    for index, span in enumerate(spans):
        if span[PARENT] < 0 and totals[index] != span[END] - span[START]:
            problems.append(
                f"root {index} ({span[NAME]}): self times sum to {totals[index]} ns, "
                f"wall is {span[END] - span[START]} ns"
            )
    return problems


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[list], restore_ms: float, overhead: float):
    """Per-layer metrics of a traced run, plus attribution problems.

    ``.ms`` metrics are inclusive milliseconds per op; ``.share`` metrics
    are self time over the summed wall time of the op roots, so the
    shares of all layers plus ``unattributed.share`` add up to one.
    """
    selfs = self_times(spans)
    roots = roots_of(spans)
    problems = attribution_problems(spans, selfs, roots)
    count: dict[str, int] = {}
    inclusive: dict[str, int] = {}
    amount: dict[str, int] = {}
    layer_self: dict[str, int] = {}
    ops = restores = op_wall = 0
    dp_calls = dp_ns = replay_ns = replayed = 0
    for index, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        root = spans[roots[index]][NAME]
        if root == "restore":
            if span[PARENT] < 0:
                restores += 1
            elif name == "meta.tick":
                replay_ns += duration
                replayed += 1
            continue
        if span[PARENT] < 0:
            ops += 1
            op_wall += duration
        layer = LAYERS[name]
        layer_self[layer] = layer_self.get(layer, 0) + selfs[index]
        count[name] = count.get(name, 0) + 1
        inclusive[name] = inclusive.get(name, 0) + duration
        value = span[VALUE]
        if name == "search":
            amount["search.slots"] = amount.get("search.slots", 0) + value[0]
            amount["search.windows"] = amount.get("search.windows", 0) + value[1]
        elif value is not None:
            amount[name] = amount.get(name, 0) + value
        if layer == "dp" and not spans[span[PARENT]][NAME].startswith("dp."):
            dp_calls += 1
            dp_ns += duration

    def calls(name: str) -> int:
        return count.get(name, 0)

    def ns(*names: str) -> int:
        return sum(inclusive.get(name, 0) for name in names)

    def share(layer: str) -> float:
        return _ratio(layer_self.get(layer, 0), op_wall)

    snapshots = calls("snapshot.write")
    searches = calls("index.amp") + calls("index.alp")
    metrics = {
        "generate.ms": (_ratio(ns("generate"), ops) / 1e6, "ms/op"),
        "generate.share": (share("generate"), "share"),
        "search.calls": (_ratio(calls("search"), ops), "1/op"),
        "search.ms": (_ratio(ns("search"), ops) / 1e6, "ms/op"),
        "search.share": (share("search"), "share"),
        "search.us_per_slot": (_ratio(ns("search") / 1e3, amount.get("search.slots", 0)), "us/slot"),
        "search.windows_per_call": (
            _ratio(amount.get("search.windows", 0), calls("search")),
            "windows/call",
        ),
        "index.share": (share("index"), "share"),
        "index.build_us_per_slot": (
            _ratio(ns("index.build") / 1e3, amount.get("index.build", 0)),
            "us/slot",
        ),
        "index.materialize_ms": (_ratio(ns("index.materialize"), ops) / 1e6, "ms/op"),
        "index.amp_calls": (_ratio(calls("index.amp"), ops), "1/op"),
        "index.amp_us": (_ratio(ns("index.amp") / 1e3, calls("index.amp")), "us/call"),
        "index.alp_calls": (_ratio(calls("index.alp"), ops), "1/op"),
        "index.alp_us": (_ratio(ns("index.alp") / 1e3, calls("index.alp")), "us/call"),
        "index.commit_calls": (_ratio(calls("index.commit"), ops), "1/op"),
        "index.commit_us": (_ratio(ns("index.commit") / 1e3, calls("index.commit")), "us/call"),
        "index.found_ratio": (_ratio(calls("index.commit"), searches), "ratio"),
        "dp.calls": (_ratio(dp_calls, ops), "1/op"),
        "dp.ms": (_ratio(dp_ns, ops) / 1e6, "ms/op"),
        "dp.share": (share("dp"), "share"),
        "dp.ns_per_cell": (
            _ratio(
                ns("dp.budget", "dp.minimize"),
                amount.get("dp.budget", 0) + amount.get("dp.minimize", 0),
            ),
            "ns/cell",
        ),
        "schedule.ms": (_ratio(ns("schedule"), ops) / 1e6, "ms/op"),
        "schedule.share": (share("schedule"), "share"),
        "publish.ms": (_ratio(ns("publish"), ops) / 1e6, "ms/op"),
        "publish.us_per_slot": (_ratio(ns("publish") / 1e3, amount.get("publish", 0)), "us/slot"),
        "publish.share": (share("publish"), "share"),
        "reserve.us": (_ratio(ns("reserve") / 1e3, calls("reserve")), "us/call"),
        "journal.records": (_ratio(calls("journal"), ops), "1/op"),
        "journal.us_per_record": (_ratio(ns("journal") / 1e3, calls("journal")), "us/record"),
        "journal.share": (share("journal"), "share"),
        "snapshot.count": (_ratio(snapshots, ops), "1/op"),
        "snapshot.encode_ms": (_ratio(ns("snapshot.encode"), calls("snapshot.encode")) / 1e6, "ms/call"),
        "snapshot.write_ms": (_ratio(ns("snapshot.write"), snapshots) / 1e6, "ms/call"),
        "snapshot.ms_per_mb": (
            _ratio(ns("snapshot.encode", "snapshot.write") / 1e6, amount.get("snapshot.write", 0) / 1e6),
            "ms/MB",
        ),
        "snapshot.share": (share("snapshot"), "share"),
        "restore.ms": (restore_ms, "ms"),
        "restore.replay_ms": (_ratio(replay_ns, restores) / 1e6, "ms/restore"),
        "restore.records": (_ratio(replayed, restores), "1/restore"),
        "unattributed.share": (share("unattributed"), "share"),
        "trace.overhead": (overhead, "x"),
    }
    total_share = sum(share(layer) for layer in layer_self)
    if ops and abs(total_share - 1.0) > 1e-9:
        problems.append(f"layer shares sum to {total_share!r}, not 1")
    return metrics, count, problems
