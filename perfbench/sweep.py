"""Scaling sweep: where per-message cost stops being flat.

Usage, from the root of a checkout::

    python3 perfbench/sweep.py --seed 1 --seconds 20

Reruns ``tcp_durable_fanout`` at 500, 2000 and 8000 subscriptions and
``aio_chain_crash`` at 1x and 4x its length.  Each point makes an untraced
pass (``cpu_us_per_delivery``) and a traced pass
(``core.intervals.runs_scanned_per_publish``).  The curves are printed and
written to ``.perfbench/sweep-seed<n>.json``.  The sweep is not one of the
gated benchmark runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SUBSCRIPTIONS = (500, 2000, 8000)
LENGTHS = (1, 4)


def point(spec: Any, seed: int, seconds: float, data_root: str) -> Dict[str, float]:
    from perfbench.run import end_to_end, per_layer
    from perfbench.tracing import SpanRecorder, TraceSession
    from perfbench.workloads import run_aio

    untraced = run_aio(spec, seed, seconds, data_root, setup_reps=1)
    with TraceSession(SpanRecorder()) as session:
        traced = run_aio(spec, seed, seconds, data_root, session, setup_reps=1)
    layers, __, ___ = per_layer(traced, untraced, session)
    return {
        "cpu_us_per_delivery": end_to_end(untraced)["cpu_us_per_delivery"],
        "core.intervals.runs_scanned_per_publish": layers["core.intervals.runs_scanned_per_publish"],
        "deliveries": untraced.deliveries,
        "failed": untraced.failed,
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import AIO_CHAIN_CRASH, TCP_DURABLE_FANOUT

    data_root = os.path.join(ROOT, ".perfbench", f"sweep-data-{os.getpid()}")
    curves: Dict[str, List[Dict[str, float]]] = {"tcp_durable_fanout": [], "aio_chain_crash": []}
    for n in SUBSCRIPTIONS:
        spec = dataclasses.replace(TCP_DURABLE_FANOUT, n_subscriptions=n)
        row = {"subscriptions": n, **point(spec, args.seed, args.seconds, data_root)}
        curves["tcp_durable_fanout"].append(row)
        print("tcp_durable_fanout", json.dumps(row), flush=True)
    for factor in LENGTHS:
        seconds = args.seconds * factor
        row = {"length_s": seconds, **point(AIO_CHAIN_CRASH, args.seed, seconds, data_root)}
        curves["aio_chain_crash"].append(row)
        print("aio_chain_crash", json.dumps(row), flush=True)
    path = os.path.join(ROOT, ".perfbench", f"sweep-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as out:
        json.dump(curves, out, indent=2)
    print(f"written to {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
