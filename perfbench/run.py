"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` makes an
untraced pass and then a traced pass of the same inputs, prints the
per-layer table, writes the spans under ``.perfbench/`` and reports the
per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WATCHDOG_S = 170.0

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "cpu_us_per_delivery": "us",
    "outage_s": "s",
    "ok_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name -> unit.
PER_LAYER = {
    "sim.events_per_delivery": "count",
    "sim.self_us_per_delivery": "us",
    "broker.engine.self_us_per_delivery": "us",
    "broker.engine.on_message.self_us_per_delivery": "us",
    "broker.engine.msgs_in_per_publish": "count",
    "broker.engine.knowledge_sent_per_publish": "count",
    "broker.engine.state_runs_max": "count",
    "core.intervals.runs_scanned_per_publish": "count",
    "core.intervals.self_us_per_delivery": "us",
    "core.intervals.splices_per_publish": "count",
    "core.pubend.publish.self_us_per_publish": "us",
    "core.pubend.retransmitted_ticks": "count",
    "core.subend.on_knowledge.self_us_per_delivery": "us",
    "core.subend.candidates_per_event": "count",
    "core.subend.nacks_sent": "count",
    "core.subend.nack_ticks": "count",
    "matching.match.self_us_per_event": "us",
    "matching.matches_per_event": "count",
    "storage.append.self_us_per_publish": "us",
    "storage.fsync_us_per_publish": "us",
    "storage.bytes_per_publish": "B",
    "storage.replay_ms": "ms",
    "storage.records_replayed": "count",
    "aio.wire.encode.self_us_per_msg": "us",
    "aio.wire.decode.self_us_per_msg": "us",
    "aio.wire.bytes_per_msg": "B",
    "aio.wire.msgs_per_frame": "count",
    "aio.transport.send.self_us_per_msg": "us",
    "aio.runtime.inbox_wait_p99_us": "us",
    "aio.runtime.inbox_depth_max": "count",
    "client.on_delivery.self_us_per_delivery": "us",
    "generator.late_p99_ms": "ms",
    "loop.idle_share": "ratio",
    "trace.unattributed_share": "ratio",
    "trace.overhead": "ratio",
}


def _per(value: float, base: float) -> float:
    return value / base if base else 0.0


def end_to_end(result: Any) -> Dict[str, float]:
    from perfbench.workloads import percentile, tail_latency_ms

    return {
        "latency_p50_ms": percentile(result.latencies_ms, 50),
        "latency_p99_ms": tail_latency_ms(result),
        "cpu_us_per_delivery": _per(result.cpu_s * 1e6, result.deliveries),
        "outage_s": statistics.median(result.outages_s),
        "ok_share": 1.0 - _per(result.failed, result.attempted),
        "setup_s": statistics.median(result.setup_s),
        "peak_rss_mb": result.peak_rss_mb,
    }


def per_layer(
    traced: Any, untraced: Any, session: Any
) -> Tuple[Dict[str, float], List[Tuple[str, int, float]], float]:
    """Per-layer metrics, the layer table rows (layer, spans, self s) and
    the unattributed time of the traced pass."""
    from perfbench.tracing import SPAN_LAYER
    from perfbench.workloads import percentile

    rec = session.rec
    counts = rec.counts
    counters = traced.counters
    totals = rec.totals()
    layers: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for name, (count, __, own) in totals.items():
        layers[SPAN_LAYER[name]][0] += count
        layers[SPAN_LAYER[name]][1] += own
    unattributed = rec.recorded_s - rec.root_time()

    def own(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2] * 1e6

    def spans(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    replay_id = rec.name_id("storage.replay")
    restart_id = rec.name_id("aio.runtime.restart")
    replay_s = sum(
        rec.end[i] - rec.start[i]
        for i in range(len(rec.start))
        if rec.name[i] == replay_id and rec.parent[i] >= 0 and rec.name[rec.parent[i]] == restart_id
    )
    deliveries, publishes = traced.deliveries, traced.publishes
    untraced_cpu = _per(untraced.cpu_s, untraced.deliveries)
    metrics = {
        "sim.events_per_delivery": _per(counters["events_run"], deliveries),
        "sim.self_us_per_delivery": _per(layers["sim"][1] * 1e6, deliveries),
        "broker.engine.self_us_per_delivery": _per(layers["broker.engine"][1] * 1e6, deliveries),
        "broker.engine.on_message.self_us_per_delivery": _per(
            own("broker.engine.on_message"), deliveries
        ),
        "broker.engine.msgs_in_per_publish": _per(counts["msgs_in"], publishes),
        "broker.engine.knowledge_sent_per_publish": _per(
            counters["knowledge_sent"] + session.harvested.get("knowledge_sent", 0), publishes
        ),
        "broker.engine.state_runs_max": traced.state_runs_max,
        "core.intervals.runs_scanned_per_publish": _per(counts["runs_scanned"], publishes),
        "core.intervals.self_us_per_delivery": _per(layers["core.intervals"][1] * 1e6, deliveries),
        "core.intervals.splices_per_publish": _per(counters["splices"], publishes),
        "core.pubend.publish.self_us_per_publish": _per(own("core.pubend.publish"), publishes),
        "core.pubend.retransmitted_ticks": counts["retransmitted_ticks"],
        "core.subend.on_knowledge.self_us_per_delivery": _per(
            own("core.subend.on_knowledge"), deliveries
        ),
        "core.subend.candidates_per_event": _per(counts["candidates"], counts["candidate_events"]),
        "core.subend.nacks_sent": counters["subend_nacks"],
        "core.subend.nack_ticks": counters["subend_nack_ticks"],
        "matching.match.self_us_per_event": _per(own("matching.match"), spans("matching.match")),
        "matching.matches_per_event": _per(counts["matches"], counts["match_calls"]),
        "storage.append.self_us_per_publish": _per(own("storage.append"), publishes),
        "storage.fsync_us_per_publish": _per(own("storage.fsync"), publishes),
        "storage.bytes_per_publish": _per(counters["log_bytes"], publishes),
        "storage.replay_ms": replay_s * 1e3,
        "storage.records_replayed": counters["records_replayed"],
        "aio.wire.encode.self_us_per_msg": _per(own("aio.wire.encode"), spans("aio.wire.encode")),
        "aio.wire.decode.self_us_per_msg": _per(own("aio.wire.decode"), counts["wire_decoded"]),
        "aio.wire.bytes_per_msg": _per(counters["bytes_sent"], counters["msgs_sent"]),
        "aio.wire.msgs_per_frame": _per(counters["msgs_sent"], counters["frames_sent"]),
        "aio.transport.send.self_us_per_msg": _per(own("aio.transport.send"), counts["sends"]),
        "aio.runtime.inbox_wait_p99_us": percentile(session.inbox_waits, 99) * 1e6,
        "aio.runtime.inbox_depth_max": session.inbox_depth_max,
        "client.on_delivery.self_us_per_delivery": _per(own("client.on_delivery"), deliveries),
        "generator.late_p99_ms": percentile(untraced.late_ms, 99),
        "loop.idle_share": _per(layers["loop.idle"][1], rec.recorded_s),
        "trace.unattributed_share": _per(unattributed, rec.recorded_s),
        "trace.overhead": _per(_per(traced.cpu_s, deliveries), untraced_cpu) - 1.0,
    }
    rows = sorted(
        ((layer, int(n), own_s) for layer, (n, own_s) in layers.items()),
        key=lambda row: -row[2],
    )
    return metrics, rows, unattributed


def layer_table(rows: List[Tuple[str, int, float]], unattributed: float, recorded: float) -> str:
    lines = [f"{'layer':<16} {'spans':>9} {'self ms':>11} {'share':>7}"]
    for layer, n, own_s in rows:
        lines.append(f"{layer:<16} {n:>9} {own_s * 1e3:>11.2f} {own_s / recorded:>7.2%}")
    lines.append(f"{'(unattributed)':<16} {'':>9} {unattributed * 1e3:>11.2f} {unattributed / recorded:>7.2%}")
    total = sum(r[2] for r in rows) + unattributed
    lines.append(f"{'total':<16} {'':>9} {total * 1e3:>11.2f} {'':>7}  (traced run {recorded * 1e3:.2f} ms)")
    return "\n".join(lines)


def _result_line(correct: bool, result: Any, metrics: Dict[str, float], units: Dict[str, str]) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": int(result.attempted),
            "failed": int(result.failed),
            "metrics": {
                name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
            },
        }
    )


def _output_correct(result: Any) -> bool:
    for error in result.errors:
        print(f"perfbench: {error}", file=sys.stderr)
    return not (result.violations or result.missing or result.unexpected or result.errors)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A run must end within WATCHDOG_S: if the system under test stops
    # making progress, dump every thread's stack and exit with status 1.
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"perfbench: no program source under {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [source, ROOT]
    from perfbench.tracing import SpanRecorder, TraceSession, output_base
    from perfbench.workloads import WORKLOAD_NAMES, run_workload

    if args.workload not in WORKLOAD_NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; one of {WORKLOAD_NAMES}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    data_root = os.path.join(ROOT, ".perfbench", f"data-{args.workload}-{args.seed}-{os.getpid()}")

    if not args.trace:
        result = run_workload(args.workload, args.seed, args.seconds, data_root)
        metrics = end_to_end(result)
        for name, unit in END_TO_END.items():
            print(f"{name:<22} {metrics[name]:>14.6f} {unit}")
        print(_result_line(_output_correct(result), result, metrics, END_TO_END))
        return 0

    untraced = run_workload(args.workload, args.seed, args.seconds, data_root, setup_reps=1)
    recorder = SpanRecorder()
    with TraceSession(recorder) as session:
        traced = run_workload(args.workload, args.seed, args.seconds, data_root, session, setup_reps=1)
    metrics, rows, unattributed = per_layer(traced, untraced, session)
    print(layer_table(rows, unattributed, recorder.recorded_s))
    adds_up = abs(sum(r[2] for r in rows) + unattributed - recorder.recorded_s) <= 1e-6 * max(
        recorder.recorded_s, 1.0
    )
    for name, unit in PER_LAYER.items():
        print(f"{name:<46} {metrics[name]:>14.6f} {unit}")
    base = output_base(ROOT, args.workload, args.seed)
    recorder.write(base)
    print(f"spans: {len(recorder.start)} written to {os.path.relpath(base, ROOT)}.json/.bin")
    passes_correct = [_output_correct(untraced), _output_correct(traced)]
    correct = all(passes_correct) and adds_up
    print(_result_line(correct, traced, metrics, PER_LAYER))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
