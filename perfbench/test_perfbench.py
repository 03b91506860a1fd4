"""Tests of the benchmark itself: seeded inputs and the traced run.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import sys

import pytest

from perfbench import inputs, tracing, workloads
from perfbench.run import per_layer


def _schedule(seed: int):
    return [
        (p.due, p.pubend, p.seq, sorted(p.attributes.items()))
        for p in inputs.publication_schedule(seed, ("P0", "P1"), 50.0, 2.0, market=True)
    ]


def _subscriptions(seed: int):
    return [(s.sub_id, str(s.predicate)) for s in inputs.subscriptions(seed, 200)]


def test_same_seed_gives_identical_inputs():
    assert _schedule(7) == _schedule(7)
    assert _subscriptions(7) == _subscriptions(7)
    assert workloads._sim_faults(7) == workloads._sim_faults(7)


def test_different_seed_gives_different_inputs():
    assert _schedule(7) != _schedule(8)
    assert _subscriptions(7) != _subscriptions(8)
    assert workloads._sim_faults(7) != workloads._sim_faults(8)


def test_schedule_is_open_loop_at_the_fixed_rate():
    schedule = inputs.publication_schedule(3, ("P0", "P1"), 50.0, 2.0)
    dues = [p.due for p in schedule]
    assert dues == sorted(dues)
    for pubend in ("P0", "P1"):
        mine = [p for p in schedule if p.pubend == pubend]
        assert [p.seq for p in mine] == list(range(len(mine)))
        gaps = {round(b.due - a.due, 9) for a, b in zip(mine, mine[1:])}
        assert gaps == {0.02}


def test_required_symbol_reads_the_equality_conjunct():
    for spec in inputs.subscriptions(5, 50):
        symbol = inputs.required_symbol(spec.predicate)
        assert symbol in inputs.SYMBOLS
        assert f"symbol = '{symbol}'" in str(spec.predicate)


def _patched_targets():
    """(owner, attribute) of every function a trace session replaces."""
    session = tracing.TraceSession(tracing.SpanRecorder())
    session.install()
    targets = [(owner, attr) for owner, attr, __ in session._saved]
    session.restore()
    return targets


def test_session_restores_every_original():
    targets = _patched_targets()
    originals = {(id(o), a): o.__dict__[a] for o, a in targets}
    assert len(targets) > 20
    with tracing.TraceSession(tracing.SpanRecorder()):
        for owner, attr in targets:
            assert getattr(owner.__dict__[attr], "__wrapped__", None) is originals[(id(owner), attr)]
    for owner, attr in targets:
        assert owner.__dict__[attr] is originals[(id(owner), attr)]


def test_untraced_run_calls_the_unwrapped_functions(tmp_path):
    # A traced pass first, so a leaked wrapper would show up afterwards.
    with tracing.TraceSession(tracing.SpanRecorder()) as session:
        workloads.run_workload("aio_chain_crash", 1, 1.5, str(tmp_path / "a"), session, 1)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        result = workloads.run_workload("aio_chain_crash", 1, 1.5, str(tmp_path / "b"), setup_reps=1)
    finally:
        sys.setprofile(None)
    from repro.broker.engine import GDBrokerEngine
    from repro.core.pubend import Pubend

    assert result.deliveries > 0
    assert GDBrokerEngine.on_message.__code__ in called
    assert Pubend.publish.__code__ in called
    assert not any(code.co_filename == tracing.__file__ for code in called)


@pytest.mark.parametrize("name", ["aio_chain_crash", "tcp_durable_fanout"])
def test_traced_run_adds_up_and_delivers_exactly_once(tmp_path, name):
    untraced = workloads.run_workload(name, 2, 1.5, str(tmp_path / "u"), setup_reps=1)
    with tracing.TraceSession(tracing.SpanRecorder()) as session:
        traced = workloads.run_workload(name, 2, 1.5, str(tmp_path / "t"), session, 1)
    for result in (untraced, traced):
        assert result.violations == result.missing == result.unexpected == 0
        assert result.deliveries > 0
    metrics, rows, unattributed = per_layer(traced, untraced, session)
    total = sum(own for __, ___, own in rows) + unattributed
    assert total == pytest.approx(session.rec.recorded_s, rel=1e-9)
    assert 0 <= metrics["trace.unattributed_share"] < 0.5
    assert metrics["broker.engine.msgs_in_per_publish"] > 0
    assert metrics["storage.fsync_us_per_publish"] > 0


def test_tail_latency_of_a_fault_free_run_ignores_stalled_seconds():
    result = workloads.PassResult(latency_windows=[])
    for window in range(8):
        result.latencies_ms += [float(ms + window) for ms in range(1, 101)]
        result.latency_windows += [window] * 100
    # Each window's p99 is 99.01 ms plus its offset; the lower quartile of
    # the eight lies 1.75 ms up.
    quiet = workloads.tail_latency_ms(result)
    assert quiet == pytest.approx(99.01 + 1.75)
    result.latencies_ms[-1] = 5000.0  # a stall in the last second
    assert workloads.tail_latency_ms(result) == quiet
    result.latency_windows = None
    assert workloads.tail_latency_ms(result) == workloads.percentile(result.latencies_ms, 99)
