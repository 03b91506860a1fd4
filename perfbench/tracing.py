"""Spans around calls into each layer's public functions.

The traced run installs wrappers from this file on the program's classes,
records one span per call while :attr:`SpanRecorder.recording` is on, and
restores the original functions afterwards.  Untraced runs never install
them.  Nothing inside the program is changed: a span covers exactly one
call across a layer boundary, timed from outside.

A span has a name, start, end, parent (the span open when it began) and
the ``(pubend, tick)`` its arguments name, if any.  Spans are kept in
memory in columnar arrays and written out at the end of the run.  A
layer's self time is the time of its spans minus the part covered by
their child spans, so the self times of all layers plus the time in no
span add up to the traced window exactly.
"""

from __future__ import annotations

import json
import os
import selectors
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Span name -> the layer (program module) its self time is charged to.
SPAN_LAYER: Dict[str, str] = {
    "sim.run_until": "sim",
    "broker.engine.on_message": "broker.engine",
    "broker.engine.publish": "broker.engine",
    "broker.engine.timer": "broker.engine",
    "core.pubend.publish": "core.pubend",
    "core.pubend.retransmission": "core.pubend",
    "core.subend.on_knowledge": "core.subend",
    "matching.match": "matching",
    "storage.append": "storage",
    "storage.fsync": "storage",
    "storage.replay": "storage",
    "aio.wire.encode": "aio.wire",
    "aio.wire.decode": "aio.wire",
    "aio.transport.send": "aio.transport",
    "aio.runtime.publish": "aio.runtime",
    "aio.runtime.on_receive": "aio.runtime",
    "aio.runtime.restart": "aio.runtime",
    "client.on_delivery": "client",
    "loop.idle": "loop.idle",
}

#: Public ``IntervalMap`` methods timed as ``core.intervals.<method>``.
INTERVAL_METHODS = (
    "get",
    "run_count",
    "span",
    "ranges_with",
    "first_with",
    "set_range",
    "set_value",
    "clear_range",
    "combine_range",
    "transform_range",
)
for _method in INTERVAL_METHODS + ("iter_runs",):
    SPAN_LAYER[f"core.intervals.{_method}"] = "core.intervals"

NO_TICK = -1


class SpanRecorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.recording = False
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.pubends: List[str] = []
        self._pubend_ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.parent = array("i")
        self.pubend = array("h")
        self.tick = array("q")
        #: Open spans: (index, child time so far).
        self._stack: List[List[float]] = []
        #: Counts taken at the same boundaries (e.g. runs scanned).
        self.counts: Counter = Counter()
        #: Wall time spent recording (the traced run's time), and the
        #: first recording instant (span times are written relative to it).
        self.recorded_s = 0.0
        self.origin: Optional[float] = None
        self._resumed = 0.0

    def resume(self) -> None:
        """Start recording; the stack of open spans must be empty."""
        if self._stack:
            raise RuntimeError("recording toggled inside a span")
        self._resumed = time.perf_counter()
        if self.origin is None:
            self.origin = self._resumed
        self.recording = True

    def pause(self) -> None:
        if self._stack:
            raise RuntimeError("recording toggled inside a span")
        self.recording = False
        self.recorded_s += time.perf_counter() - self._resumed

    def name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def _pubend_id(self, pubend: Optional[str]) -> int:
        if pubend is None:
            return -1
        index = self._pubend_ids.get(pubend)
        if index is None:
            index = self._pubend_ids[pubend] = len(self.pubends)
            self.pubends.append(pubend)
        return index

    def open(self, name_id: int, pubend: Optional[str] = None, tick: int = NO_TICK) -> int:
        index = len(self.start)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(int(stack[-1][0]) if stack else -1)
        self.pubend.append(self._pubend_id(pubend))
        self.tick.append(tick)
        self.end.append(0.0)
        self.child.append(0.0)
        stack.append([index, 0.0])
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        now = time.perf_counter()
        frame = self._stack.pop()
        if frame[0] != index:
            raise RuntimeError("spans closed out of order")
        self.end[index] = now
        self.child[index] = frame[1]
        if self._stack:
            self._stack[-1][1] += now - self.start[index]

    def top_name(self) -> Optional[str]:
        if not self._stack:
            return None
        return self.names[self.name[int(self._stack[-1][0])]]

    # -- analysis -----------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """Span name -> (count, total time, self time), in seconds."""
        count: Counter = Counter()
        total: Dict[int, float] = {}
        own: Dict[int, float] = {}
        for name, start, end, child in zip(self.name, self.start, self.end, self.child):
            count[name] += 1
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - child)
        return {
            self.names[n]: (count[n], total[n], own[n]) for n in count
        }

    def root_time(self) -> float:
        return sum(
            end - start
            for start, end, parent in zip(self.start, self.end, self.parent)
            if parent < 0
        )

    def write(self, base: str) -> None:
        """Write every span to ``<base>.bin`` as raw columns (native byte
        order) described by ``<base>.json``; times are ``perf_counter``
        seconds, ``origin_s`` is the first recording instant.  Load a
        column with ``array(type).frombytes(data[offset:offset + size])``."""
        columns = []
        offset = 0
        with open(base + ".bin", "wb") as out:
            for name, column in (
                ("name", self.name),
                ("start", self.start),
                ("end", self.end),
                ("parent", self.parent),
                ("pubend", self.pubend),
                ("tick", self.tick),
            ):
                data = column.tobytes()
                out.write(data)
                columns.append(
                    {"name": name, "type": column.typecode, "offset": offset, "size": len(data)}
                )
                offset += len(data)
        with open(base + ".json", "w", encoding="utf-8") as out:
            json.dump(
                {
                    "spans": len(self.start),
                    "names": self.names,
                    "pubends": self.pubends,
                    "origin_s": self.origin,
                    "recorded_s": self.recorded_s,
                    "byteorder": sys.byteorder,
                    "columns": columns,
                },
                out,
                indent=1,
            )


# ---------------------------------------------------------------------------
# Subjects: the (pubend, tick) a call's arguments name
# ---------------------------------------------------------------------------


def _message_at(index: int) -> Callable[[tuple], Tuple[Optional[str], int]]:
    """Subject of a call whose argument ``index`` is a wire message: its
    pubend and first data tick."""

    def subject(args: tuple) -> Tuple[Optional[str], int]:
        payload = getattr(args[index], "payload", args[index])
        data = getattr(payload, "data", None)
        return getattr(payload, "pubend", None), (data[0].tick if data else NO_TICK)

    return subject


def _subject_pubend_arg(args: tuple) -> Tuple[Optional[str], int]:
    return args[1], NO_TICK


def _subject_pubend_tick(args: tuple) -> Tuple[Optional[str], int]:
    return args[1], args[2]


def _subject_pubend_self(args: tuple) -> Tuple[Optional[str], int]:
    return args[0].pubend_id, NO_TICK


def _subject_retransmission(args: tuple) -> Tuple[Optional[str], int]:
    ranges = args[1]
    return args[0].pubend_id, (ranges[0].start if ranges else NO_TICK)


def _subject_log_entry(args: tuple) -> Tuple[Optional[str], int]:
    entry = args[1]
    return entry.pubend, entry.tick


def _subject_event(args: tuple) -> Tuple[Optional[str], int]:
    event = args[1]
    return (event.get("pub") if hasattr(event, "get") else None), NO_TICK


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


class TraceSession:
    """Installs span wrappers on the program's classes and restores them.

    Besides spans, the wrappers take the counts the per-layer metrics
    need at the same boundaries: runs yielded by ``IntervalMap.iter_runs``,
    ticks returned by ``Pubend.retransmission``, matches per event,
    candidate subscriptions per matched event, inbox waits and depths, and
    engine counters harvested before a crash discards an engine.
    """

    def __init__(self, recorder: SpanRecorder):
        self.rec = recorder
        self._saved: List[Tuple[Any, str, Any]] = []
        #: Per-broker messages handed to the runtime but not yet to the
        #: engine: broker id -> {id(message): (arrival time, message)}.
        self.pending: Dict[str, Dict[int, Tuple[float, Any]]] = {}
        self.inbox_waits: List[float] = []
        self.inbox_depth_max = 0
        #: Engine counters of engines discarded by crashes.
        self.harvested: Counter = Counter()
        #: Candidate-list size per (subend, pubend); subscriptions are
        #: static during a run, so one lookup per pair suffices.
        self._candidates: Dict[Tuple[int, str], int] = {}
        self._subend: List[Any] = []
        #: (path, size) of every log file a restart replayed.
        self.replayed: List[Tuple[str, int]] = []

    # -- install/restore ----------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "TraceSession":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    def _span(
        self,
        name: str,
        fn: Callable[..., Any],
        subject: Optional[Callable[[tuple], Tuple[Optional[str], int]]] = None,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        rec = self.rec
        name_id = rec.name_id(name)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not rec.recording:
                return fn(*args, **kwargs)
            pubend, tick = subject(args) if subject is not None else (None, NO_TICK)
            index = rec.open(name_id, pubend, tick)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(index)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _wrap(self, owner: Any, attr: str, name: str, **kwargs: Any) -> None:
        self._patch(owner, attr, self._span(name, owner.__dict__[attr], **kwargs))

    def install(self) -> None:
        from repro.aio import runtime, transport, wire
        from repro.broker import engine, simbroker
        from repro.client import SubscriberClient
        from repro.core import intervals, pubend, subend
        from repro.matching.tree import MatchingTree
        from repro.sim.scheduler import Scheduler
        from repro.storage import log

        rec = self.rec
        counts = rec.counts
        self._wrap(Scheduler, "run_until", "sim.run_until")
        self._patch(
            engine.GDBrokerEngine, "on_message",
            self._on_message(engine.GDBrokerEngine.__dict__["on_message"]),
        )
        self._wrap(
            engine.GDBrokerEngine, "publish", "broker.engine.publish",
            subject=_subject_pubend_arg,
        )
        for services in (simbroker._SimServices, runtime._AioServices):
            self._patch(services, "schedule", self._timer_schedule(services.__dict__["schedule"]))
        self._wrap(
            pubend.Pubend, "publish", "core.pubend.publish", subject=_subject_pubend_self
        )
        self._wrap(
            pubend.Pubend, "retransmission", "core.pubend.retransmission",
            subject=_subject_retransmission, after=self._count_retransmission,
        )
        self._patch(
            subend.SubendManager, "on_knowledge",
            self._on_knowledge(subend.SubendManager.__dict__["on_knowledge"]),
        )
        self._wrap(
            MatchingTree, "match", "matching.match",
            subject=_subject_event, after=self._count_match,
        )
        for cls in (log.FileLog, log.MemoryLog):
            self._wrap(cls, "append", "storage.append", subject=_subject_log_entry)
        self._wrap(log.FileLog, "__init__", "storage.replay", after=self._count_replay)
        # FileLog makes each append durable with os.fsync.
        self._patch(os, "fsync", self._span("storage.fsync", os.__dict__["fsync"]))
        self._wrap(wire.SerializeCache, "encode", "aio.wire.encode", subject=_message_at(1))
        self._patch(
            wire.FrameDecoder, "frames",
            self._timed_generator("aio.wire.decode", wire.FrameDecoder.__dict__["frames"]),
        )
        # TcpTransport calls these through names imported into its module.
        self._wrap(transport, "encode_batch_frame", "aio.wire.encode")
        self._wrap(transport, "decode_batch_body", "aio.wire.decode")
        self._wrap(
            transport, "decode_wire_message", "aio.wire.decode",
            after=lambda args, result: counts.update(("wire_decoded",)),
        )
        for cls in (transport.TcpTransport, transport.LocalTransport):
            self._wrap(
                cls, "send", "aio.transport.send",
                subject=_message_at(3), after=lambda args, result: counts.update(("sends",)),
            )
        self._wrap(runtime.AioBroker, "publish", "aio.runtime.publish", subject=_subject_pubend_arg)
        self._patch(
            runtime.AioBroker, "on_receive",
            self._on_receive(runtime.AioBroker.__dict__["on_receive"]),
        )
        self._patch(
            runtime.AioBroker, "on_receive_async",
            self._on_receive_async(runtime.AioBroker.__dict__["on_receive_async"]),
        )
        self._patch(runtime.AioBroker, "crash", self._crash(runtime.AioBroker.__dict__["crash"]))
        self._wrap(runtime.AioBroker, "restart", "aio.runtime.restart")
        self._patch(simbroker.SimBroker, "on_crash", self._crash(simbroker.SimBroker.__dict__["on_crash"]))
        self._wrap(
            SubscriberClient, "on_delivery", "client.on_delivery", subject=_subject_pubend_tick
        )
        for method in INTERVAL_METHODS:
            self._wrap(intervals.IntervalMap, method, f"core.intervals.{method}")
        self._patch(
            intervals.IntervalMap, "iter_runs",
            self._iter_runs(intervals.IntervalMap.__dict__["iter_runs"]),
        )

    # -- special wrappers ---------------------------------------------------

    def _timer_schedule(self, schedule: Callable[..., Any]) -> Callable[..., Any]:
        """Engine timers run as loop/scheduler callbacks: give each one a
        ``broker.engine.timer`` span so its work is charged to the engine."""
        rec = self.rec
        name_id = rec.name_id("broker.engine.timer")

        def wrapper(services: Any, delay: float, fn: Callable[[], None]) -> Any:
            def timed() -> None:
                if not rec.recording:
                    return fn()
                index = rec.open(name_id)
                try:
                    fn()
                finally:
                    rec.close(index)

            return schedule(services, delay, timed)

        wrapper.__wrapped__ = schedule  # type: ignore[attr-defined]
        return wrapper

    def _timed_generator(self, name: str, fn: Callable[..., Iterator[Any]]) -> Callable[..., Any]:
        """Time each ``next()`` of a generator as one span."""
        rec = self.rec
        name_id = rec.name_id(name)

        def timed(it: Iterator[Any]) -> Iterator[Any]:
            while True:
                index = rec.open(name_id) if rec.recording else -1
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    if index >= 0:
                        rec.close(index)
                yield item

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            gen = fn(*args, **kwargs)
            return timed(gen) if rec.recording else gen

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _iter_runs(self, fn: Callable[..., Iterator[Any]]) -> Callable[..., Any]:
        """Count every run ``iter_runs`` yields.  Inside another interval
        span (``ranges_with``, ``first_with``) the scan is already timed,
        so only count; a direct caller gets a span per ``next()``."""
        rec = self.rec
        timed = self._timed_generator("core.intervals.iter_runs", fn)
        layer = SPAN_LAYER

        def counting(gen: Iterator[Any]) -> Iterator[Any]:
            n = 0
            try:
                for item in gen:
                    n += 1
                    yield item
            finally:
                rec.counts["runs_scanned"] += n

        def wrapper(self_: Any, lo: int, hi: int) -> Any:
            if not rec.recording:
                return fn(self_, lo, hi)
            top = rec.top_name()
            if top is not None and layer.get(top) == "core.intervals":
                return counting(fn(self_, lo, hi))
            return counting(timed(self_, lo, hi))

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _on_knowledge(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        span = self._span("core.subend.on_knowledge", fn, subject=_subject_pubend_arg)
        stack = self._subend

        def wrapper(manager: Any, pubend: str) -> Any:
            stack.append(manager)
            try:
                return span(manager, pubend)
            finally:
                stack.pop()

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _count_match(self, args: tuple, result: Any) -> None:
        counts = self.rec.counts
        counts["match_calls"] += 1
        counts["matches"] += len(result)
        if self._subend:
            manager = self._subend[-1]
            pubend = args[1].get("pub")
            key = (id(manager), pubend)
            size = self._candidates.get(key)
            if size is None:
                size = self._candidates[key] = len(manager.subscriptions_for(pubend))
            counts["candidates"] += size
            counts["candidate_events"] += 1

    def _count_retransmission(self, args: tuple, result: Any) -> None:
        if result is not None:
            self.rec.counts["retransmitted_ticks"] += len(result.data)

    def _count_replay(self, args: tuple, result: Any) -> None:
        if self.rec.top_name() == "aio.runtime.restart":
            path = args[0].path
            self.replayed.append((path, os.path.getsize(path)))

    def records_replayed(self) -> int:
        """Records in the log files as they were when restarts replayed
        them (one record per line; files are only appended to)."""
        total = 0
        for path, size in self.replayed:
            with open(path, "rb") as log_file:
                total += log_file.read(size).count(b"\n")
        return total

    def _on_message(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Engine ingest: also closes the message's inbox wait, timed from
        when the runtime received the same message object."""
        span = self._span("broker.engine.on_message", fn, subject=_message_at(2))
        rec = self.rec
        pending = self.pending
        waits = self.inbox_waits

        def wrapper(engine: Any, src: str, message: Any) -> Any:
            if rec.recording:
                rec.counts["msgs_in"] += 1
                box = pending.get(engine.topo.broker_id)
                entry = box.pop(id(message), None) if box else None
                if entry is not None:
                    waits.append(time.perf_counter() - entry[0])
            return span(engine, src, message)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _arrived(self, broker: Any, message: Any) -> None:
        box = self.pending.setdefault(broker.broker_id, {})
        box[id(message)] = (time.perf_counter(), message)
        if len(box) > self.inbox_depth_max:
            self.inbox_depth_max = len(box)

    def _on_receive(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        span = self._span("aio.runtime.on_receive", fn, subject=_message_at(2))
        rec = self.rec

        def wrapper(broker: Any, src: str, message: Any) -> Any:
            if rec.recording and broker.alive:
                self._arrived(broker, message)
            return span(broker, src, message)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _on_receive_async(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        rec = self.rec

        async def wrapper(broker: Any, src: str, message: Any) -> Any:
            if rec.recording and broker.alive and broker.slow_consumer != "shed":
                self._arrived(broker, message)
            return await fn(broker, src, message)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _crash(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(broker: Any, *args: Any, **kwargs: Any) -> Any:
            engine = getattr(broker, "engine", None)
            if engine is not None:
                self.harvested.update(engine.counters)
            node = getattr(broker, "broker_id", None) or getattr(broker, "node_id", None)
            self.pending.pop(node, None)
            return fn(broker, *args, **kwargs)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper


class TimedSelector(selectors.DefaultSelector):  # type: ignore[misc,valid-type]
    """The event loop's selector, with each blocking ``select`` recorded
    as a ``loop.idle`` span: time the loop had nothing to run."""

    def __init__(self, recorder: SpanRecorder):
        super().__init__()
        self._rec = recorder
        self._name_id = recorder.name_id("loop.idle")

    def select(self, timeout: Optional[float] = None) -> Any:
        rec = self._rec
        if not rec.recording:
            return super().select(timeout)
        index = rec.open(self._name_id)
        try:
            return super().select(timeout)
        finally:
            rec.close(index)


def output_base(root: str, workload: str, seed: int) -> str:
    """Where a traced run writes its spans (``.json`` and ``.bin``)."""
    directory = os.path.join(root, ".perfbench")
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, f"spans-{workload}-seed{seed}")
