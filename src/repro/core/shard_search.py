"""Partition-parallel phase-1 slot search over disjoint node shards.

ROADMAP item 2: ``ParallelRunner`` shards *iterations* of an experiment,
but one scheduling cycle over a fleet-scale VO was still a single-process
scan.  This module scales out the cycle itself while keeping the result
bit-for-bit identical to the serial :class:`~repro.core.index.SlotIndex`
path (``tests/test_reference_oracles.py`` enforces the equality for
shard counts {1, 2, 3, 4, 7}).

**Why this is exact, not approximate.**  In the paper's forward scans
(Section 4) every *skip* condition is a pure per-row predicate — too
slow, too expensive, too short, expired against the start hint — while
only the candidate-accumulation loop (window start advance, expiry,
cheapest-subset ranking) depends on scan order.  So the search splits
cleanly:

* each worker owns the rows of one node partition
  (:func:`~repro.core.partition.partition_uids`) and applies the
  per-row predicates to its block, returning the surviving rows;
* the master merges the per-shard survivor streams back into global
  ``(start, end, uid)`` scan order — the exact order the serial index
  iterates, since row keys are globally unique — and runs the *same*
  candidate loop as :meth:`SlotIndex.find_alp_window` /
  :meth:`SlotIndex.find_amp_window_at`, float-op for float-op.

The cross-job subtract step (``commit``) stays sequential on the master:
each committed window rewrites the vacant-time state that every later
search of the *whole batch* scans, so it is a serialization point of the
paper's scheme, not an implementation artifact (see docs/model.md).
Subtraction itself is routed to the owning shard by resource uid and is
``O(log m)`` there.

**Where the speed comes from.**  Two effects stack:

1. the predicate sweep — the bulk of phase-1 wall time on large lists —
   runs on all shards concurrently;
2. each shard memoizes the *request-static* part of the predicate
   (performance, price-cap, and slot-length tests keyed by
   ``(volume, min_performance, max_price)``) and maintains the memo
   incrementally across commits, so the repeated passes of one
   alternative search only re-evaluate the cheap dynamic start-hint
   predicate over the pre-filtered survivors.

Workers exchange only primitive tuples — float/int rows, never ``Slot``
or ``Resource`` objects — so the protocol pickles cheaply and no worker
ever mints a :class:`Resource` uid.  The master keeps the only
``uid → Resource`` map and reconstructs value-equal ``Slot`` objects for
the returned windows.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import merge as heap_merge
from multiprocessing import Pipe, Process
from multiprocessing.connection import Connection
from operator import itemgetter
from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.core import errors
from repro.core.columns import ColumnStore, Row, SurvivorRow, static_survivor
from repro.core.errors import (
    InvalidRequestError,
    InvariantViolationError,
    SchedulingError,
    SlotListError,
    WorkerLostError,
)
from repro.core.job import ResourceRequest
from repro.core.partition import partition_uids, shard_owners
from repro.core.resource import Resource
from repro.core.slot import Slot, SlotList
from repro.core.window import Placement, Window
from repro.obs.telemetry import get_telemetry

if TYPE_CHECKING:
    from repro.chaos.proc import WorkerSupervisor

__all__ = ["ShardedSearchExecutor"]

NEG_INF = float("-inf")
INF = float("inf")

# The row layouts and the static-predicate kernel are shared with the
# serial SlotIndex through repro.core.columns, so the serial and sharded
# fast paths cannot drift apart: ``Row`` is ``(start, end, uid,
# performance, price)``; ``SurvivorRow`` appends the precomputed runtime
# ``volume / performance`` so master and worker use the same float.

_row_key = itemgetter(0, 1, 2)


class _ShardState:
    """One partition's sorted row columns plus per-request filter memos.

    The same object backs both execution modes: in-process shards call it
    directly, worker processes drive it from :func:`_shard_worker`.  Rows
    live in a :class:`~repro.core.columns.ColumnStore`, so a memo-miss
    sweep evaluates the static predicates as one vectorized mask over
    the shard's columns — the identical kernel (and identical floats)
    the serial :class:`~repro.core.index.SlotIndex` uses.
    """

    __slots__ = ("_columns", "_memos")

    def __init__(self, rows: Sequence[Row]) -> None:
        self._columns = ColumnStore(rows)
        # (volume, min_performance, max_price) → rows surviving the
        # static predicates, in scan order.  Maintained incrementally by
        # commit/insert; the dynamic start-hint predicate is applied per
        # scan.
        self._memos: dict[tuple[float, float, float | None], list[SurvivorRow]] = {}

    def scan(
        self,
        volume: float,
        min_performance: float,
        max_price: float | None,
        start_hint: float,
        count_skips: bool,
    ) -> tuple[list[SurvivorRow], int, int, float]:
        """Rows of this shard surviving all scan predicates.

        Returns ``(survivors, hint_skips, runtime_skips, seconds)``:
        ``hint_skips`` counts rows failing the tier-1 ``end <=
        start_hint`` fast path over the *unfiltered* shard (the serial
        :meth:`SlotIndex.hint_skippable` count restricted to this
        partition) and ``runtime_skips`` the tier-2 prune — static
        survivors that cannot fit their runtime between the hint and
        their end (``end - start_hint < runtime``).  Both are 0 unless
        ``count_skips``; together they restrict the serial
        :meth:`SlotIndex.hint_prunes` pair to this partition.
        """
        began = perf_counter()
        key = (volume, min_performance, max_price)
        memo = self._memos.get(key)
        if memo is None:
            memo, _positions = self._columns.survivors(
                volume, min_performance, max_price
            )
            self._memos[key] = memo
        if start_hint == NEG_INF:
            survivors = list(memo)
        else:
            survivors = [
                entry
                for entry in memo
                if entry[1] > start_hint and entry[1] - start_hint >= entry[5]
            ]
        skips = 0
        runtime_skips = 0
        if count_skips and start_hint != NEG_INF:
            skips = self._columns.count_end_at_or_before(start_hint)
            runtime_skips = sum(
                1
                for entry in memo
                if entry[1] > start_hint and entry[1] - start_hint < entry[5]
            )
        return survivors, skips, runtime_skips, perf_counter() - began

    def commit(
        self,
        key: tuple[float, float, int],
        span_start: float,
        span_end: float,
        price: float,
        resource_name: str,
    ) -> None:
        """Subtract ``[span_start, span_end)`` from the row at ``key``.

        Raises:
            SlotListError: If no row matches the source slot — same
                contract as :meth:`SlotIndex.commit`.
        """
        columns = self._columns
        position = columns.bisect_key(key)
        if (
            position == len(columns)
            or columns.key_at(position) != key
            or columns.prices[position] != price
        ):
            raise SlotListError(
                f"no vacant slot on {resource_name!r} contains span "
                f"[{span_start:g}, {span_end:g})"
            )
        row = columns.delete_at(position)
        remainders: list[Row] = []
        if span_start > row[0]:
            remainders.append((row[0], span_start, row[2], row[3], row[4]))
        if row[1] > span_end:
            remainders.append((span_end, row[1], row[2], row[3], row[4]))
        for remainder in remainders:
            columns.insert_row(remainder)
        for memo_key, memo in self._memos.items():
            memo_position = bisect_left(memo, key, key=_row_key)
            if memo_position < len(memo) and _row_key(memo[memo_position]) == key:
                del memo[memo_position]
            volume, min_performance, max_price = memo_key
            for remainder in remainders:
                entry = static_survivor(remainder, volume, min_performance, max_price)
                if entry is not None:
                    insort(memo, entry, key=_row_key)

    def insert(self, row: Row, resource_name: str) -> None:
        """Re-insert vacant time (mirrors :meth:`SlotIndex.insert`).

        The same-resource overlap check bisects to the insertion
        neighbourhood (:meth:`ColumnStore.find_same_uid_overlap`)
        instead of scanning the whole row prefix.

        Raises:
            SlotListError: If the row overlaps an existing row of the
                same resource.
        """
        start, end, uid = row[0], row[1], row[2]
        overlap = self._columns.find_same_uid_overlap(start, end, uid)
        if overlap is not None:
            raise SlotListError(
                f"slot [{start:g}, {end:g}) on {resource_name!r} overlaps "
                f"vacant span [{overlap[0]:g}, {overlap[1]:g})"
            )
        self._columns.insert_row(row)
        for memo_key, memo in self._memos.items():
            volume, min_performance, max_price = memo_key
            entry = static_survivor(row, volume, min_performance, max_price)
            if entry is not None:
                insort(memo, entry, key=_row_key)

    def rows(self) -> list[Row]:
        """Current rows of this shard, in scan order."""
        return self._columns.rows()


def _shard_worker(connection: Connection, rows: list[Row]) -> None:
    """Worker-process loop: apply ops to one shard until told to stop.

    Every reply is a tagged tuple: ``("ok", payload)`` or
    ``("err", error type name, message)``.  Only library errors
    (:class:`SchedulingError`) are marshalled; anything else crashes the
    worker, which the master's supervisor observes as a dead pipe and
    answers with respawn-and-replay (then
    :class:`~repro.core.errors.WorkerLostError` once its restart budget
    is spent).
    """
    state = _ShardState(rows)
    while True:
        try:
            message = connection.recv()
        except EOFError:
            return
        op = message[0]
        if op == "stop":
            connection.send(("ok", None))
            return
        payload: object = None
        try:
            if op == "scan":
                payload = state.scan(*message[1:])
            elif op == "commit":
                state.commit(*message[1:])
            elif op == "insert":
                state.insert(*message[1:])
            elif op == "rows":
                payload = state.rows()
            else:
                raise InvalidRequestError(f"unknown shard op {op!r}")
        except SchedulingError as error:
            connection.send(("err", type(error).__name__, str(error)))
        else:
            connection.send(("ok", payload))


def _error_type(name: str) -> type[SchedulingError]:
    """Resolve a marshalled error type name back to its class."""
    resolved = getattr(errors, name, None)
    if isinstance(resolved, type) and issubclass(resolved, SchedulingError):
        return resolved
    return SchedulingError


class ShardedSearchExecutor:
    """Phase-1 search over node partitions, byte-identical to serial.

    Splits a slot list into ``shards`` blocks by resource uid and runs
    the scan predicates per block — in worker processes when
    ``processes`` is true, otherwise in-process through the identical
    :class:`_ShardState` code path.  The find/commit/insert surface
    mirrors :class:`~repro.core.index.SlotIndex`, so the multi-pass
    scheme in :mod:`repro.core.search` drives either interchangeably.

    The default is in-process: a multi-pass search re-scans the same
    request predicates over and over, so after the first pass each shard
    scan is a filter over its memoized survivor set — microseconds of
    work that a pipe round-trip (~0.5 ms per find) would dwarf at any
    slot-list size (see docs/benchmarks.md, EXP-SHARD).  Worker
    processes are an explicit opt-in for workloads dominated by
    memo-*miss* sweeps (many distinct one-shot requests over a very
    large fleet), where each scan really does O(m / shards) predicate
    work that the cores can split.

    Use as a context manager or call :meth:`close`; worker processes are
    daemons, so a leak cannot outlive the interpreter, but an explicit
    shutdown keeps the fork count bounded during long runs.

    Attributes:
        shards: Number of partitions.
        last_hint_skips: Tier-1 start-hint prune count (``end <=
            start_hint``) of the most recent find with
            ``count_skips=True`` (summed over shards; matches the serial
            :meth:`SlotIndex.hint_prunes` first component).
        last_runtime_skips: Tier-2 prune count of the same find — static
            survivors with ``end - start_hint < runtime`` (matches the
            serial :meth:`SlotIndex.hint_prunes` second component).
        shard_scan_seconds: Cumulative per-shard scan seconds, as
            measured inside each shard — the per-shard ``phase1.*``
            timing the instrumented search reports.
    """

    def __init__(
        self,
        slots: Iterable[Slot],
        shards: int,
        *,
        processes: bool | None = None,
        supervisor: "WorkerSupervisor | None" = None,
    ) -> None:
        """Partition ``slots`` into ``shards`` blocks and start workers.

        Args:
            slots: The vacant-slot list (left untouched; rows are copied).
            shards: Number of partitions, >= 1.
            processes: Force worker processes on/off; ``None`` (default)
                stays in-process — see the class docstring for when
                processes pay off.
            supervisor: Restart budget/backoff for dead worker processes
                (process mode only).  Defaults to
                :data:`repro.chaos.proc.DEFAULT_SUPERVISOR`; a dead
                worker is respawned from the shard's initial rows, its
                committed mutations replayed in order, and the in-flight
                operation retried — byte-identical to an undisturbed run
                because shard state is a pure function of the mutation
                sequence.  An exhausted budget raises
                :class:`~repro.core.errors.WorkerLostError`.
        """
        materialized = list(slots)
        self._resources: dict[int, Resource] = {
            slot.resource.uid: slot.resource for slot in materialized
        }
        partitions = partition_uids(self._resources, shards)
        self._owners = shard_owners(partitions)
        self.shards = shards
        self.last_hint_skips = 0
        self.last_runtime_skips = 0
        self.shard_scan_seconds = [0.0] * shards
        self._hint_floor = float("inf")
        shard_rows: list[list[Row]] = [[] for _ in range(shards)]
        for slot in materialized:
            row: Row = (
                slot.start,
                slot.end,
                slot.resource.uid,
                slot.resource.performance,
                slot.price,
            )
            shard_rows[self._owners[row[2]]].append(row)
        if processes is None:
            processes = False
        self._states: list[_ShardState] | None = None
        self._connections: list[Connection] | None = None
        self._workers: list[Process] = []
        self._supervisor: "WorkerSupervisor | None" = supervisor
        # Respawn state (process mode): the rows each shard started from
        # plus every mutation it acknowledged, so a replacement worker
        # can be rebuilt to the exact pre-death state.
        self._initial_rows: list[list[Row]] = []
        self._op_logs: list[list[tuple[Any, ...]]] = []
        if processes:
            if self._supervisor is None:
                # Deferred import: repro.chaos depends on repro.core, so
                # the default supervisor is resolved at first use, never
                # at module import time.
                from repro.chaos.proc import DEFAULT_SUPERVISOR

                self._supervisor = DEFAULT_SUPERVISOR
            self._initial_rows = shard_rows
            self._op_logs = [[] for _ in range(shards)]
            self._connections = [self._spawn(shard) for shard in range(shards)]
        else:
            self._states = [_ShardState(rows) for rows in shard_rows]

    def _spawn(self, shard: int) -> Connection:
        """Start (or restart) the worker process backing ``shard``."""
        parent, child = Pipe()
        worker = Process(
            target=_shard_worker, args=(child, self._initial_rows[shard]), daemon=True
        )
        worker.start()
        child.close()
        if shard < len(self._workers):
            self._workers[shard] = worker
        else:
            self._workers.append(worker)
        return parent

    # ------------------------------------------------------------------ #
    # Lifecycle                                                          #
    # ------------------------------------------------------------------ #

    @property
    def uses_processes(self) -> bool:
        """Whether shard scans run in worker processes."""
        return self._connections is not None

    def close(self, timeout: float = 5.0) -> None:
        """Stop worker processes; in-process mode is a no-op.

        Each worker is asked to stop, then joined with a bounded
        ``timeout``; a worker still alive after that is *wedged* (stuck
        in a syscall, spinning, or ignoring its pipe) and is
        ``terminate()``-d so shutdown can never hang.  Pipe failures
        during the stop handshake are expected for workers that already
        died and are recorded per shard.

        Raises:
            WorkerLostError: After cleanup, when any worker had to be
                terminated — the error names the wedged shard(s).
        """
        if self._connections is None:
            return
        connections, self._connections = self._connections, None
        workers, self._workers = self._workers, []
        telemetry = get_telemetry()
        for shard, connection in enumerate(connections):
            try:
                connection.send(("stop",))
                connection.recv()
            except (OSError, EOFError):
                # The worker is already gone — which is what close() is
                # after — but record which shard's pipe failed so a
                # campaign can tell a clean stop from a dead worker.
                if telemetry.enabled:
                    telemetry.count("shard.pipe_failures", 1, shard=str(shard))
            connection.close()
        wedged: list[int] = []
        for shard, worker in enumerate(workers):
            worker.join(timeout)
            if worker.is_alive():
                worker.terminate()
                worker.join(1.0)
                wedged.append(shard)
        if wedged:
            names = ", ".join(str(shard) for shard in wedged)
            raise WorkerLostError(
                f"shard worker(s) {names} did not stop within {timeout:g}s "
                f"and were terminated",
                shard=wedged[0],
            )

    def __enter__(self) -> "ShardedSearchExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Worker protocol (supervised in process mode)                       #
    # ------------------------------------------------------------------ #

    def _respawn(self, shard: int, restarts: int) -> None:
        """Replace a dead shard worker and replay its mutation log.

        The supervisor's backoff ladder paces the restart; the new
        worker starts from the shard's initial rows and re-applies every
        *acknowledged* commit/insert in order, so its state is exactly
        the dead worker's last consistent state.  An operation the dead
        worker may have applied but never acknowledged is not replayed —
        the caller re-sends it, so it lands exactly once.
        """
        if self._supervisor is None or self._connections is None:
            raise InvariantViolationError("executor is closed")
        self._supervisor.pause(restarts)
        self._connections[shard].close()
        self._connections[shard] = self._spawn(shard)
        connection = self._connections[shard]
        for message in self._op_logs[shard]:
            try:
                connection.send(message)
                reply = connection.recv()
            except (OSError, EOFError) as error:
                raise WorkerLostError(
                    f"shard {shard} replacement worker died replaying its "
                    f"mutation log",
                    shard=shard,
                    restarts=restarts,
                ) from error
            if reply[0] != "ok":
                raise InvariantViolationError(
                    f"shard {shard} replacement worker rejected a previously "
                    f"acknowledged op: {reply[1]}: {reply[2]}"
                )
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.count("chaos.worker_restarts", 1, layer="shard")
            if telemetry.decisions.enabled:
                telemetry.decisions.emit(
                    "chaos.worker_recovered",
                    layer="shard",
                    shard=shard,
                    restarts=restarts,
                    replayed=len(self._op_logs[shard]),
                )

    def _call_worker(
        self, shard: int, message: tuple[Any, ...], *, record: bool
    ) -> Any:
        """Send one op to a shard worker under supervision.

        A dead pipe (send ``OSError`` / recv ``EOFError``) triggers the
        supervised respawn-and-replay path up to the supervisor's restart
        budget; past it, :class:`~repro.core.errors.WorkerLostError`
        names the shard.  ``record`` ops (commit/insert) are appended to
        the shard's mutation log only after the worker acknowledges
        them.
        """
        if self._connections is None or self._supervisor is None:
            raise InvariantViolationError("executor is closed")
        restarts = 0
        while True:
            try:
                self._connections[shard].send(message)
                reply = self._connections[shard].recv()
            except (OSError, EOFError) as error:
                restarts += 1
                if restarts > self._supervisor.max_restarts:
                    raise WorkerLostError(
                        f"shard {shard} worker died mid-operation and the "
                        f"supervisor's restart budget "
                        f"({self._supervisor.max_restarts}) is exhausted",
                        shard=shard,
                        restarts=restarts - 1,
                    ) from error
                self._respawn(shard, restarts)
                continue
            if reply[0] == "ok":
                if record:
                    self._op_logs[shard].append(message)
                return reply[1]
            raise _error_type(reply[1])(reply[2])

    def _call_one(self, shard: int, message: tuple[Any, ...]) -> Any:
        if self._connections is not None:
            return self._call_worker(
                shard, message, record=message[0] in ("commit", "insert")
            )
        if self._states is None:
            raise InvariantViolationError("executor is closed")
        state = self._states[shard]
        op = message[0]
        if op == "scan":
            return state.scan(*message[1:])
        if op == "commit":
            state.commit(*message[1:])
            return None
        if op == "insert":
            state.insert(*message[1:])
            return None
        if op == "rows":
            return state.rows()
        raise InvalidRequestError(f"unknown shard op {op!r}")

    def _broadcast(self, message: tuple[Any, ...]) -> list[Any]:
        """Run one op on every shard; parallel in process mode.

        Sends are pipelined so shard scans overlap; a shard whose pipe
        fails mid-round falls back to the supervised
        :meth:`_call_worker` path, which respawns the worker and
        re-issues this shard's (read-only) op.
        """
        if self._connections is not None:
            dead: set[int] = set()
            for shard, connection in enumerate(self._connections):
                try:
                    connection.send(message)
                except OSError:
                    dead.add(shard)
            replies: list[Any] = []
            for shard, connection in enumerate(self._connections):
                if shard in dead:
                    replies.append(None)
                    continue
                try:
                    replies.append(connection.recv())
                except (OSError, EOFError):
                    dead.add(shard)
                    replies.append(None)
            results: list[Any] = []
            for shard, reply in enumerate(replies):
                if shard in dead:
                    results.append(self._call_worker(shard, message, record=False))
                elif reply[0] == "ok":
                    results.append(reply[1])
                else:
                    raise _error_type(reply[1])(reply[2])
            return results
        return [self._call_one(shard, message) for shard in range(self.shards)]

    def _scan(
        self,
        volume: float,
        min_performance: float,
        max_price: float | None,
        start_hint: float,
        count_skips: bool,
    ) -> list[list[SurvivorRow]]:
        replies = self._broadcast(
            ("scan", volume, min_performance, max_price, start_hint, count_skips)
        )
        streams: list[list[SurvivorRow]] = []
        skips = 0
        runtime_skips = 0
        for shard, reply in enumerate(replies):
            survivors, shard_skips, shard_runtime_skips, seconds = reply
            streams.append(survivors)
            skips += shard_skips
            runtime_skips += shard_runtime_skips
            self.shard_scan_seconds[shard] += seconds
        self.last_hint_skips = skips
        self.last_runtime_skips = runtime_skips
        return streams

    def _owner_of(self, uid: int) -> int:
        shard = self._owners.get(uid)
        if shard is None:
            # A resource first seen via insert (hot-swap replacement
            # node): route deterministically; contiguity of the initial
            # partition is irrelevant to correctness, only disjointness.
            shard = uid % self.shards
            self._owners[uid] = shard
        return shard

    def _slot_of(self, entry: Sequence[float]) -> Slot:
        return Slot(self._resources[int(entry[2])], entry[0], entry[1], entry[4])

    def _placement(self, entry: Sequence[float], sync: float, runtime: float) -> Placement:
        """The :data:`~repro.core.window.Placement` of one survivor at ``sync``."""
        uid = int(entry[2])
        return (
            uid,
            entry[3],
            entry[0],
            entry[1],
            entry[4],
            sync,
            sync + runtime,
            self._resources[uid],
        )

    # ------------------------------------------------------------------ #
    # SlotIndex-equivalent surface                                       #
    # ------------------------------------------------------------------ #

    def find_alp_window(
        self,
        request: ResourceRequest,
        *,
        start_hint: float = NEG_INF,
        count_skips: bool = False,
    ) -> Window | None:
        """ALP forward scan over the merged survivor streams.

        Bit-for-bit equivalent to :meth:`SlotIndex.find_alp_window`: the
        workers apply the per-row predicates, the merge restores global
        ``(start, end, uid)`` order, and this loop replays the serial
        candidate accumulation unchanged.
        """
        if start_hint > self._hint_floor:
            start_hint = self._hint_floor
        streams = self._scan(
            request.volume,
            request.min_performance,
            request.max_price,
            start_hint,
            count_skips,
        )
        node_count = request.node_count
        window_start = NEG_INF
        # Candidates are the survivor tuples themselves; events below
        # ``min_bound`` (the smallest per-candidate
        # :func:`~repro.core.columns.expiry_bound`) provably expire
        # nobody, so the exact per-event expiry filter is skipped there
        # — the same loop the serial :meth:`SlotIndex.find_alp_window`
        # runs.
        candidates: list[SurvivorRow] = []
        min_bound = INF
        for entry in heap_merge(*streams, key=_row_key):
            start = entry[0]
            if start > window_start:
                window_start = start
                if start >= min_bound:
                    alive: list[SurvivorRow] = []
                    min_bound = INF
                    for c in candidates:
                        if c[1] - start >= c[5]:
                            alive.append(c)
                            if c[6] < min_bound:
                                min_bound = c[6]
                    candidates = alive
            candidates.append(entry)
            if entry[6] < min_bound:
                min_bound = entry[6]
            if len(candidates) == node_count:
                return Window.from_placements(
                    request,
                    [self._placement(c, window_start, c[5]) for c in candidates],
                )
        return None

    def find_amp_window_at(
        self,
        request: ResourceRequest,
        *,
        budget: float | None = None,
        start_hint: float = NEG_INF,
        count_skips: bool = False,
    ) -> tuple[Window, float] | None:
        """AMP forward scan; returns ``(window, accepting event time)``.

        Bit-for-bit equivalent to :meth:`SlotIndex.find_amp_window_at`,
        including the cheapest-subset ranking, the ``cheapest_total``
        re-summation caching, and the float-addition order of the budget
        test.
        """
        if budget is None:
            budget = request.budget
        if start_hint > self._hint_floor:
            start_hint = self._hint_floor
        streams = self._scan(
            request.volume, request.min_performance, None, start_hint, count_skips
        )
        node_count = request.node_count
        window_start = NEG_INF
        candidates: list[SurvivorRow] = []
        ranked: list[tuple[float, int, float, SurvivorRow]] = []
        cheapest_total: float | None = None
        min_bound = INF
        for entry in heap_merge(*streams, key=_row_key):
            runtime = entry[5]
            start = entry[0]
            if start > window_start:
                window_start = start
                # Same guarded expiry as the serial
                # :meth:`SlotIndex.find_amp_window_at`; ``c[4] * c[5]``
                # re-produces a candidate's cost bit-for-bit.
                if start >= min_bound:
                    alive: list[SurvivorRow] = []
                    min_bound = INF
                    for c in candidates:
                        if c[1] - start >= c[5]:
                            alive.append(c)
                            if c[6] < min_bound:
                                min_bound = c[6]
                        elif _remove_ranked(ranked, c[4] * c[5], c[2]) < node_count:
                            cheapest_total = None
                    candidates = alive
            uid = entry[2]
            cost = entry[4] * runtime
            candidates.append(entry)
            if entry[6] < min_bound:
                min_bound = entry[6]
            position = bisect_left(ranked, (cost, uid))
            ranked.insert(position, (cost, uid, runtime, entry))
            if position < node_count:
                cheapest_total = None
            if len(candidates) < node_count or start < start_hint:
                continue
            if cheapest_total is None:
                total = 0.0
                for k in range(node_count):
                    total += ranked[k][0]
                cheapest_total = total
            if cheapest_total <= budget:
                chosen = ranked[:node_count]
                sync = max(item[3][0] for item in chosen)
                window = Window.from_placements(
                    request,
                    [self._placement(item[3], sync, item[2]) for item in chosen],
                )
                return window, start
        return None

    def commit(self, window: Window) -> None:
        """Subtract the window's occupied spans on the owning shards.

        Commits apply sequentially per allocation in *both* execution
        modes, stopping at the first failure — so the two modes leave
        identical shard state on a failed commit, and each mutation is
        individually acknowledged before entering the shard's replay log
        (the supervised-respawn exactly-once invariant).

        Raises:
            SlotListError: If some source slot is no longer present —
                same contract as :meth:`SlotIndex.commit`.
        """
        for allocation in window.allocations:
            source = allocation.source
            self._call_one(
                self._owner_of(source.resource.uid),
                (
                    "commit",
                    (source.start, source.end, source.resource.uid),
                    allocation.start,
                    allocation.end,
                    source.price,
                    source.resource.name,
                ),
            )

    def insert(self, slot: Slot) -> None:
        """Re-insert vacant time (outage repair, hot-swap revocation).

        Clamps subsequent start hints exactly like
        :meth:`SlotIndex.insert`.

        Raises:
            SlotListError: If the slot overlaps an existing slot of the
                same resource.
        """
        uid = slot.resource.uid
        self._resources.setdefault(uid, slot.resource)
        row: Row = (slot.start, slot.end, uid, slot.resource.performance, slot.price)
        self._call_one(self._owner_of(uid), ("insert", row, slot.resource.name))
        if slot.start < self._hint_floor:
            self._hint_floor = slot.start

    def slot_list(self) -> SlotList:
        """Materialise the merged shard state as a plain :class:`SlotList`."""
        replies = self._broadcast(("rows",))
        slots: list[Slot] = []
        for reply in replies:
            for row in reply:
                slots.append(self._slot_of(row))
        return SlotList(slots)

    def hint_skippable(self, start_hint: float) -> int:
        """Serial :meth:`SlotIndex.hint_skippable`, summed over shards."""
        if start_hint > self._hint_floor:
            start_hint = self._hint_floor
        if start_hint == NEG_INF:
            return 0
        total = 0
        for reply in self._broadcast(("scan", 0.0, NEG_INF, None, start_hint, True)):
            total += int(reply[1])
        return total


def _remove_ranked(
    ranked: list[tuple[float, int, float, SurvivorRow]], cost: float, uid: int
) -> int:
    """Drop the ``(cost, uid)`` entry from the ranked list; return its position."""
    position = bisect_left(ranked, (cost, uid))
    while position < len(ranked):
        entry = ranked[position]
        if entry[0] == cost and entry[1] == uid:
            del ranked[position]
            return position
        position += 1
    raise SlotListError(f"ranked candidate (cost={cost!r}, uid={uid!r}) missing")
