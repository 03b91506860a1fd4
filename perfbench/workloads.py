"""The benchmark's three workloads and the measurement of one pass.

A *pass* sets the system up several times (timing each set-up), drives the
last one with an open-loop publication schedule for the measured window,
waits until every published message has reached every subscriber it
matches (or a drain timeout), and checks exactly-once delivery against the
ground truth.  Why each workload exists is recorded in
``perfbench/README.md``.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import os
import random
import resource
import shutil
import signal
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import repro
from repro.aio.chaos import chain_topology
from repro.aio.runtime import AioSystem
from repro.aio.transport import LocalTransport, TcpTransport
from repro.client import DeliveryChecker, DuplicateDelivery, OrderViolation, SubscriberClient
from repro.core.config import PAPER_FAULT_PARAMS
from repro.core.intervals import STATS
from repro.core.subend import Subscription
from repro.faults.injector import FaultInjector
from repro.matching.ast import TrueP
from repro.matching.events import Event
from repro.metrics import recorder
from repro.storage.log import LogAppendError
from repro.topology import balanced_pubend_names, figure3_topology

from . import inputs
from .tracing import TimedSelector, TraceSession

#: How many times a pass sets the system up; ``setup_s`` is the median.
#: The set-ups are spread over the run (on asyncio half before the
#: measured window and half after it; on the simulator also one before
#: each scenario), because the host's speed changes over seconds.
SETUP_REPS = 10
#: Publishing starts this long after set-up, on the loop's clock.
LEAD_S = 0.05
#: After publishing ends, how long to wait for outstanding deliveries
#: (at least this, or half the run), and for a graceful shutdown.
DRAIN_MIN_S = 10.0
SHUTDOWN_S = 10.0
#: Past publishing and draining by this much, a run is cut short.
OVERRUN_GRACE_S = 5.0
#: Sampling period of broker soft state in the traced pass.
STATE_SAMPLE_S = 0.25
#: Mean spacing of the zero-length faults that measure ``outage_s`` on a
#: workload without faults.
PROBE_S = 0.1
#: On a workload without faults, ``latency_p99_ms`` is the lower quartile
#: over windows of this many seconds (by due time) of each window's p99.
TAIL_WINDOW_S = 1.0


# ---------------------------------------------------------------------------
# Ground truth and delivery bookkeeping
# ---------------------------------------------------------------------------


class PublisherRecord:
    """What one pubend published, in the shape ``DeliveryChecker`` reads."""

    def __init__(self, pubend: str):
        self.pubend = pubend
        #: (seq, tick, event) of every successful publish.
        self.published: List[Tuple[int, int, Event]] = []


@dataclass
class Tally:
    deliveries: int = 0
    violations: int = 0


class CheckedClient(SubscriberClient):
    """A subscriber that counts online safety violations instead of
    letting them abort the broker that delivered the message."""

    def __init__(self, subscriber_id: str, tally: Tally):
        super().__init__(subscriber_id)
        self.tally = tally

    def on_delivery(self, pubend: str, tick: int, payload: Any, time: float) -> None:
        try:
            super().on_delivery(pubend, tick, payload, time)
        except (DuplicateDelivery, OrderViolation):
            self.tally.violations += 1
            return
        self.tally.deliveries += 1


@dataclass
class PassResult:
    """Everything one pass measured."""

    attempted: int = 0
    refused: int = 0
    violations: int = 0
    missing: int = 0
    unexpected: int = 0
    deliveries: int = 0
    publishes: int = 0
    late_ms: List[float] = field(default_factory=list)
    cpu_s: float = 0.0
    #: Publish-to-deliver latency of every delivery, from the due time.
    latencies_ms: List[float] = field(default_factory=list)
    #: Set on a workload without faults: the due-time window of each
    #: entry of ``latencies_ms`` (see :data:`TAIL_WINDOW_S`).
    latency_windows: Optional[List[int]] = None
    outages_s: List[float] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Program counters read after the pass (per-layer metrics).
    counters: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    state_runs_max: int = 0

    #: Exceptions that stopped a broker, and shutdowns that did not end.
    errors: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return (
            self.refused + self.violations + self.missing + self.unexpected + len(self.errors)
        )


def check_deliveries(
    records: Sequence[PublisherRecord],
    clients: Dict[str, CheckedClient],
    subscriptions: Dict[str, Subscription],
    result: PassResult,
) -> None:
    """Exactly-once, gapless and in-order, for every subscriber.

    Order and duplicates are checked online by the clients; here
    ``DeliveryChecker`` compares each subscriber's delivery set with the
    ground truth.  A subscription that requires a symbol is compared only
    with that symbol's events, which no other event can match.
    """
    by_symbol: Dict[Optional[str], List[PublisherRecord]] = {}
    symbols = {inputs.required_symbol(s.predicate) for s in subscriptions.values()}
    for symbol in symbols:
        views = []
        for record in records:
            view = PublisherRecord(record.pubend)
            view.published = [
                entry
                for entry in record.published
                if symbol is None or entry[2].get("symbol") == symbol
            ]
            views.append(view)
        by_symbol[symbol] = views
    for sub_id, client in clients.items():
        subscription = subscriptions[sub_id]
        checker = DeliveryChecker(by_symbol[inputs.required_symbol(subscription.predicate)])
        report = checker.check(client, subscription)
        result.missing += len(report.missing)
        result.unexpected += len(report.unexpected)


def outage_clock(
    publish_time: Dict[Tuple[str, int], float], clients: Dict[str, CheckedClient]
) -> Callable[[float, float], float]:
    """``outage(start, heal)``: time from ``start`` until every message
    published before ``heal``, and the first one published after it, has
    reached every subscriber that received it.

    So a fault lasts until the backlog it caused has cleared and service
    is back for new messages; a zero-length fault (``start == heal``)
    measures how long the system takes to settle without one.  Missing
    deliveries are failures, counted by the checker, not waited for.
    """
    last: Dict[Tuple[str, int], float] = {}
    for client in clients.values():
        for pubend, tick, __, at in client.received:
            key = (pubend, tick)
            if at > last.get(key, float("-inf")):
                last[key] = at
    timeline = sorted((publish_time[key], at) for key, at in last.items())
    times = [t for t, __ in timeline]
    prefix_max: List[float] = []
    running = float("-inf")
    for __, at in timeline:
        running = max(running, at)
        prefix_max.append(running)

    def outage(start: float, heal: float) -> float:
        if not prefix_max:
            return 0.0
        index = min(bisect.bisect_left(times, heal), len(prefix_max) - 1)
        return max(0.0, prefix_max[index] - start)

    return outage


def percentile(values: Sequence[float], q: float) -> float:
    """The linearly interpolated ``q``-th percentile; 0 when empty."""
    return recorder.percentile(values, q) if values else 0.0


def tail_latency_ms(result: PassResult) -> float:
    """``latency_p99_ms``.

    With faults, the p99 over every delivery of the run: its tail is the
    faults'.  Without faults, the lower quartile over due-time windows of
    each window's p99.  The tail of that workload is a handful of events
    per second, and the shared host's fsync and scheduling stalls lift
    it in whichever seconds they hit, more in some minutes than in others;
    the quieter seconds carry the program's own tail.
    """
    if result.latency_windows is None:
        return percentile(result.latencies_ms, 99)
    by_window: Dict[int, List[float]] = defaultdict(list)
    for window, latency in zip(result.latency_windows, result.latencies_ms):
        by_window[window].append(latency)
    return percentile([percentile(values, 99) for values in by_window.values()], 25)



def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _state_runs(engine: Any) -> int:
    """Largest run count of any stream in one engine's ``stats()``."""
    best = 0
    for entry in engine.stats()["streams"].values():
        best = max(best, entry["istream_runs"], entry["curiosity_runs"])
        for ost in entry["ostreams"].values():
            best = max(best, ost["runs"])
    return best


def sample_state_runs(system: Any, result: PassResult, session: TraceSession) -> None:
    """Fold every live engine's largest run count into the result, with
    recording paused so the sampling itself is not traced."""
    session.rec.pause()
    for broker in system.brokers.values():
        if broker.alive and broker.engine is not None:
            result.state_runs_max = max(result.state_runs_max, _state_runs(broker.engine))
    session.rec.resume()


def _engine_counter(engines: Sequence[Any], name: str) -> int:
    return sum(engine.counters.get(name, 0) for engine in engines if engine is not None)


# ---------------------------------------------------------------------------
# Asyncio workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AioSpec:
    name: str
    tcp: bool
    rate_per_pubend: float
    n_subscriptions: int
    market: bool
    #: (start fraction of the window, downtime s, broker) per fault.
    faults: Tuple[Tuple[float, float, str], ...] = ()


AIO_PUBENDS = ("P0", "P1")

TCP_DURABLE_FANOUT = AioSpec(
    "tcp_durable_fanout", tcp=True, rate_per_pubend=30.0,
    n_subscriptions=2000, market=True,
)
AIO_CHAIN_CRASH = AioSpec(
    "aio_chain_crash", tcp=False, rate_per_pubend=150.0,
    n_subscriptions=1, market=False,
    faults=((0.25, 1.0, "b1"), (0.6, 1.0, "b0")),
)


def _aio_subscriptions(spec: AioSpec, seed: int) -> Dict[str, Any]:
    if not spec.market:
        return {"all": TrueP()}
    return {s.sub_id: s.predicate for s in inputs.subscriptions(seed, spec.n_subscriptions)}


async def _aio_setup(
    spec: AioSpec, seed: int, data_dir: str, predicates: Dict[str, Any], tally: Tally
) -> Tuple[AioSystem, Dict[str, CheckedClient]]:
    transport = TcpTransport(seed=seed) if spec.tcp else LocalTransport(seed=seed)
    system = AioSystem(chain_topology(), transport=transport, data_dir=data_dir)
    await system.start()
    clients: Dict[str, CheckedClient] = {}
    for sub_id, predicate in predicates.items():
        subscription = Subscription(
            subscriber=sub_id, predicate=predicate, pubends=AIO_PUBENDS
        )
        client = CheckedClient(sub_id, tally)
        system.brokers["b2"].add_subscription(subscription, client)
        system.subscribers[sub_id] = client
        system.subscriptions[sub_id] = subscription
        clients[sub_id] = client
    return system, clients


def _expected_receivers(
    schedule: Sequence[inputs.Publication], predicates: Dict[str, Any]
) -> List[int]:
    """How many subscriptions each scheduled publication matches."""
    by_symbol: Dict[Optional[str], List[Any]] = defaultdict(list)
    for predicate in predicates.values():
        by_symbol[inputs.required_symbol(predicate)].append(predicate)
    counts = []
    for pub in schedule:
        event = Event(pub.attributes)
        symbol = pub.attributes.get("symbol")
        candidates = by_symbol.get(None, []) + (by_symbol.get(symbol, []) if symbol else [])
        counts.append(sum(1 for predicate in candidates if predicate(event)))
    return counts


async def aio_pass(
    spec: AioSpec,
    seed: int,
    seconds: float,
    data_root: str,
    session: Optional[TraceSession] = None,
    setup_reps: int = SETUP_REPS,
) -> PassResult:
    loop = asyncio.get_running_loop()
    result = PassResult()
    schedule = inputs.publication_schedule(
        seed, AIO_PUBENDS, spec.rate_per_pubend, seconds, market=spec.market
    )
    predicates = _aio_subscriptions(spec, seed)
    receivers = _expected_receivers(schedule, predicates)
    body = "x" * inputs.BODY_BYTES if spec.market else None
    fault_plan = [
        (fraction * seconds + inputs.jitter(seed, index, 0.05 * seconds), down, broker)
        for index, (fraction, down, broker) in enumerate(spec.faults)
    ]

    async def set_up(rep: int, tally: Tally) -> Tuple[AioSystem, Dict[str, CheckedClient], str]:
        data_dir = os.path.join(data_root, f"setup{rep}")
        shutil.rmtree(data_dir, ignore_errors=True)
        started = time.perf_counter()
        system, clients = await _aio_setup(spec, seed, data_dir, predicates, tally)
        result.setup_s.append(time.perf_counter() - started)
        return system, clients, data_dir

    before = (setup_reps + 1) // 2
    for rep in range(before - 1):
        spare, __, ___ = await set_up(rep, Tally())
        await shut_down(spare, result)
    tally = Tally()
    system, clients, data_dir = await set_up(before - 1, tally)

    records = {pubend: PublisherRecord(pubend) for pubend in AIO_PUBENDS}
    due_of: Dict[Tuple[str, int], float] = {}
    publish_time: Dict[Tuple[str, int], float] = {}
    expected = 0
    #: (start, heal) loop times of each fault.
    fault_spans: List[Tuple[float, float]] = []
    log_paths = [os.path.join(data_dir, f"{p}.log") for p in AIO_PUBENDS]
    log_bytes0 = sum(os.path.getsize(p) for p in log_paths if os.path.exists(p))

    async def sleep_until(instant: float) -> None:
        delay = instant - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)

    async def drive() -> None:
        nonlocal expected
        for pub, wanted in zip(schedule, receivers):
            due = t0 + pub.due
            await sleep_until(due)
            now = loop.time()
            result.late_ms.append((now - due) * 1e3)
            result.attempted += 1
            event = Event(pub.attributes, body=body)
            try:
                tick = system.brokers["b0"].publish(pub.pubend, event)
            except LogAppendError:
                tick = None
            if tick is None:
                result.refused += 1
                continue
            records[pub.pubend].published.append((pub.seq, tick, event))
            due_of[(pub.pubend, tick)] = due
            publish_time[(pub.pubend, tick)] = now
            expected += wanted

    async def inject() -> None:
        for start, down, broker in fault_plan:
            await sleep_until(t0 + start)
            began = loop.time()
            await system.kill_broker(broker)
            await sleep_until(t0 + start + down)
            await system.restart_broker(broker)
            fault_spans.append((began, loop.time()))

    async def sample_state() -> None:
        while True:
            await asyncio.sleep(STATE_SAMPLE_S)
            sample_state_runs(system, result, session)

    # A full collection now, so the run's cyclic-GC pauses fall where its
    # own allocations put them rather than where set-up left the counters.
    gc.collect()
    t0 = loop.time() + LEAD_S
    await sleep_until(t0)
    splices0 = STATS.splices
    cpu0 = time.process_time()
    sampler = None
    if session is not None:
        session.rec.resume()
        sampler = loop.create_task(sample_state())
    drain_s = max(DRAIN_MIN_S, seconds / 2)
    fired: List[str] = []
    tasks = [loop.create_task(drive()), loop.create_task(inject())]
    try:
        with overrun_alarm(seconds + drain_s + OVERRUN_GRACE_S, fired):
            await asyncio.gather(*tasks)
            deadline = loop.time() + drain_s
            while tally.deliveries < expected and loop.time() < deadline:
                await asyncio.sleep(0.005)
    except RunOverrun:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
    result.errors += fired
    result.cpu_s = time.process_time() - cpu0
    if sampler is not None:
        session.rec.pause()
        sampler.cancel()
        await asyncio.gather(sampler, return_exceptions=True)

    _read_aio_counters(system, result, STATS.splices - splices0)
    log_bytes1 = sum(os.path.getsize(p) for p in log_paths if os.path.exists(p))
    result.counters["log_bytes"] = log_bytes1 - log_bytes0
    if session is not None:
        result.counters["records_replayed"] = session.records_replayed()
    result.errors += [
        f"{broker.broker_id}: {broker.failure!r}"
        for broker in system.brokers.values()
        if broker.failure is not None
    ]
    await shut_down(system, result)
    result.violations = tally.violations
    result.deliveries = tally.deliveries
    result.publishes = sum(len(r.published) for r in records.values())
    if not spec.faults:
        result.latency_windows = []
    for client in clients.values():
        for pubend, tick, __, at in client.received:
            due = due_of[(pubend, tick)]
            result.latencies_ms.append((at - due) * 1e3)
            if result.latency_windows is not None:
                result.latency_windows.append(int((due - t0) // TAIL_WINDOW_S))
    check_deliveries(list(records.values()), clients, system.subscriptions, result)
    outage = outage_clock(publish_time, clients)
    if fault_spans:
        result.outages_s.append(sum(outage(start, heal) for start, heal in fault_spans))
    else:
        # Seeded instants: a regular grid would keep one phase against the
        # fixed-rate publishers.
        draw = random.Random(seed)
        probes = [t0 + draw.uniform(0.0, seconds) for __ in range(int(seconds / PROBE_S))]
        result.outages_s.append(statistics.median(outage(p, p) for p in probes))
    for rep in range(before, setup_reps):
        spare, __, ___ = await set_up(rep, Tally())
        await shut_down(spare, result)
    result.peak_rss_mb = _peak_rss_mb()
    return result


#: Where the program under test lives (the ``repro`` package).
PROGRAM_DIR = os.path.dirname(os.path.abspath(repro.__file__))


class RunOverrun(Exception):
    """Raised into whatever runs when a pass outlives its time budget."""


@contextmanager
def overrun_alarm(seconds: float, fired: List[str]) -> Iterator[None]:
    """Cut a pass short after ``seconds``, noting it in ``fired``.

    The event loop cannot end a pass while a broker callback runs without
    end, as happens when a broker spirals into a growing backlog, so a
    timer signal raises :class:`RunOverrun` inside the program code that
    is running.  In a broker's inbox task the exception stops the task
    (``AioBroker.failure``); in a publish it ends the generator.  If the
    signal finds no program code running, it tries again shortly.
    """

    def fire(signum: int, frame: Any) -> None:
        while frame is not None:
            if frame.f_code.co_filename.startswith(PROGRAM_DIR):
                fired.append(f"pass still running after {seconds:.0f} s; cut short")
                raise RunOverrun(fired[-1])
            frame = frame.f_back
        signal.setitimer(signal.ITIMER_REAL, 0.1)

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


async def shut_down(system: AioSystem, result: PassResult) -> None:
    """Graceful shutdown, bounded by :data:`SHUTDOWN_S`.

    A broker whose inbox task died on an exception never drains its
    inbox, so the graceful path can wait forever, and it swallows the
    cancellation ``asyncio.wait_for`` would send.  Past the bound the
    brokers are crashed instead and the hang is reported as an error.
    """
    stopping = asyncio.get_running_loop().create_task(system.shutdown())
    done, __ = await asyncio.wait({stopping}, timeout=SHUTDOWN_S)
    if not done:
        result.errors.append(f"shutdown did not end within {SHUTDOWN_S} s")
        for broker in system.brokers.values():
            broker.crash()
        stopping.cancel()


def _read_aio_counters(system: AioSystem, result: PassResult, splices: int) -> None:
    """Program counters of live engines; the traced pass adds those of
    engines that crashed (``TraceSession.harvested``)."""
    counters = result.counters
    engines = [broker.engine for broker in system.brokers.values()]
    counters["knowledge_sent"] = _engine_counter(engines, "knowledge_sent")
    counters["splices"] = splices
    instruments = system.obs.instruments
    counters["subend_nacks"] = instruments.total("repro_subend_nacks_sent_total")
    counters["subend_nack_ticks"] = instruments.total("repro_subend_nack_ticks_total")
    transport = system.transport
    for name in ("frames_sent", "msgs_sent", "bytes_sent"):
        counters[name] = getattr(transport, name, 0)


def run_aio(
    spec: AioSpec,
    seed: int,
    seconds: float,
    data_root: str,
    session: Optional[TraceSession] = None,
    setup_reps: int = SETUP_REPS,
) -> PassResult:
    """One pass on a fresh event loop (with the idle-timing selector when
    traced) that is closed afterwards."""
    if session is not None:
        loop = asyncio.SelectorEventLoop(TimedSelector(session.rec))
    else:
        loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(
            aio_pass(spec, seed, seconds, data_root, session, setup_reps)
        )
    finally:
        try:
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()
            shutil.rmtree(data_root, ignore_errors=True)


# ---------------------------------------------------------------------------
# Simulator workload: the paper's Figure 3 network with its three faults
# ---------------------------------------------------------------------------

SIM_RATE_PER_PUBEND = 25.0
SIM_BODY_BYTES = 100
SIM_SHBS = ("s1", "s2", "s3", "s4", "s5")
#: Simulated seconds of publishing, then of settling, per scenario.
SIM_PUBLISH_S = 20.0
SIM_SETTLE_S = 12.0
SIM_STALL_S = 1.0
SIM_CHUNK_S = 0.5
SIM_LINK_JITTER_S = 0.0005


def _sim_faults(seed: int) -> List[Tuple[str, float, float]]:
    """(kind, start, heal) in simulated seconds, starts placed by seed."""
    link = 2.0 + inputs.jitter(seed, 1, 1.0)
    b1 = 7.0 + inputs.jitter(seed, 2, 1.0)
    p1 = 13.0 + inputs.jitter(seed, 3, 1.0)
    return [
        ("link_b1_s1", link, link + SIM_STALL_S + 2.0),
        ("crash_b1", b1, b1 + SIM_STALL_S + 3.0),
        ("crash_p1", p1, p1 + 3.0),
    ]


def _sim_build(seed: int, tally: Tally) -> Tuple[Any, List[str], Dict[str, CheckedClient]]:
    names = balanced_pubend_names(4)
    system = figure3_topology(n_pubends=4, pubend_names=names).build(
        seed=seed, params=PAPER_FAULT_PARAMS
    )
    # Seeded per-link jitter, so latencies are not a lattice of the fixed
    # link and commit delays.
    for broker_id in system.brokers:
        for link in system.network.links_of(broker_id):
            link.jitter = SIM_LINK_JITTER_S
    clients: Dict[str, CheckedClient] = {}
    for shb in SIM_SHBS:
        sub_id = f"sub_{shb}"
        subscription = Subscription(subscriber=sub_id, predicate=TrueP(), pubends=tuple(names))
        client = CheckedClient(sub_id, tally)
        system.brokers[shb].add_subscription(subscription, client)
        system.subscribers[sub_id] = client
        system.subscriptions[sub_id] = subscription
        clients[sub_id] = client
    return system, names, clients


def sim_scenario(
    seed: int, result: PassResult, session: Optional[TraceSession] = None
) -> None:
    """One run of the three faults; adds its measurements to ``result``."""
    tally = Tally()
    started = time.perf_counter()
    system, names, clients = _sim_build(seed, tally)
    result.setup_s.append(time.perf_counter() - started)
    faults = _sim_faults(seed)
    phb_down = next((start, end) for kind, start, end in faults if kind == "crash_p1")
    # The publishers share the PHB's fate: while p1 is down they are down
    # too and attempt nothing (paper section 4.2).
    schedule = [
        pub
        for pub in inputs.publication_schedule(seed, names, SIM_RATE_PER_PUBEND, SIM_PUBLISH_S)
        if not phb_down[0] <= pub.due < phb_down[1]
    ]
    body = "x" * SIM_BODY_BYTES
    records = {name: PublisherRecord(name) for name in names}
    due_of: Dict[Tuple[str, int], float] = {}
    scheduler = system.scheduler
    p1 = system.brokers["p1"]

    def publish(pub: inputs.Publication) -> None:
        result.attempted += 1
        event = Event(pub.attributes, body=body)
        tick = p1.publish(pub.pubend, event)
        if tick is None:
            result.refused += 1
            return
        records[pub.pubend].published.append((pub.seq, tick, event))
        due_of[(pub.pubend, tick)] = pub.due

    for pub in schedule:
        scheduler.call_at(pub.due, lambda pub=pub: publish(pub))
    injector = FaultInjector(system)
    for kind, start, end in faults:
        if kind == "link_b1_s1":
            injector.stall_then_fail_link(
                "b1", "s1", at=start, stall=SIM_STALL_S, outage=end - start - SIM_STALL_S
            )
        elif kind == "crash_b1":
            injector.stall_then_crash_broker(
                "b1", at=start, stall=SIM_STALL_S, downtime=end - start - SIM_STALL_S
            )
        else:
            injector.at(start, lambda: injector.crash_broker("p1"))
            injector.at(end, lambda: injector.restart_broker("p1"))

    system.start()
    gc.collect()
    splices0 = STATS.splices
    cpu0 = time.process_time()
    if session is not None:
        session.rec.resume()
    horizon = SIM_PUBLISH_S + SIM_SETTLE_S
    now = 0.0
    while now < horizon:
        now = min(now + SIM_CHUNK_S, horizon)
        system.run_until(now)
        if session is not None:
            sample_state_runs(system, result, session)
    if session is not None:
        session.rec.pause()
    result.cpu_s += time.process_time() - cpu0

    counters = result.counters
    engines = [broker.engine for broker in system.brokers.values()]
    counters["events_run"] += scheduler.events_run
    counters["knowledge_sent"] += _engine_counter(engines, "knowledge_sent")
    counters["splices"] += STATS.splices - splices0
    instruments = system.obs.instruments
    counters["subend_nacks"] += instruments.total("repro_subend_nacks_sent_total")
    counters["subend_nack_ticks"] += instruments.total("repro_subend_nack_ticks_total")

    result.violations += tally.violations
    result.deliveries += tally.deliveries
    result.publishes += sum(len(r.published) for r in records.values())
    publish_time = dict(due_of)
    for client in clients.values():
        for pubend, tick, __, at in client.received:
            result.latencies_ms.append((at - due_of[(pubend, tick)]) * 1e3)
    check_deliveries(list(records.values()), clients, system.subscriptions, result)
    outage = outage_clock(publish_time, clients)
    result.outages_s.append(sum(outage(start, heal) for __, start, heal in faults))


def run_sim(
    seed: int,
    seconds: float,
    session: Optional[TraceSession] = None,
    setup_reps: int = SETUP_REPS,
) -> PassResult:
    """Scenarios with seeds derived from ``seed`` until ``seconds`` of
    wall time have been spent (at least one)."""
    result = PassResult()
    for rep in range(setup_reps):
        started = time.perf_counter()
        _sim_build(seed, Tally())
        result.setup_s.append(time.perf_counter() - started)
    wall0 = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - wall0 < seconds:
        sim_scenario(seed * 1000 + index, result, session)
        index += 1
    result.peak_rss_mb = _peak_rss_mb()
    return result


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    data_root: str,
    session: Optional[TraceSession] = None,
    setup_reps: int = SETUP_REPS,
) -> PassResult:
    if name == "sim_figure3_faults":
        return run_sim(seed, seconds, session, setup_reps)
    spec = {s.name: s for s in (TCP_DURABLE_FANOUT, AIO_CHAIN_CRASH)}.get(name)
    if spec is None:
        raise ValueError(f"unknown workload {name!r}")
    return run_aio(spec, seed, seconds, data_root, session, setup_reps)


WORKLOAD_NAMES = ("sim_figure3_faults", "tcp_durable_fanout", "aio_chain_crash")

__all__ = [
    "PassResult",
    "WORKLOAD_NAMES",
    "percentile",
    "run_workload",
    "tail_latency_ms",
]
