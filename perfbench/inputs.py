"""Seeded inputs: open-loop publication schedules and subscription sets.

Every workload input is a pure function of ``--seed``: the program under
test only ever receives what these functions return.  Publishers are
open-loop (independent users): each pubend publishes at a fixed rate from
a seeded phase, and a message's *due* time is fixed before the run starts,
whatever the system does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.matching.ast import And, Comparison
from repro.workloads import SubscriptionSpec, market_ticks, subscription_population

#: Symbols of the market feed.  With 2000 subscriptions from
#: ``subscription_population`` this gives about six matching
#: subscriptions per event.
SYMBOLS = tuple(f"S{i:03d}" for i in range(240))

#: The paper's message size for the overhead experiments (section 4.1).
BODY_BYTES = 250


@dataclass(frozen=True)
class Publication:
    """One message a publisher will attempt, fixed before the run."""

    #: Seconds after the start of publishing at which it is due.
    due: float
    pubend: str
    seq: int
    attributes: Dict[str, Any]


def _stream_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index * 7919


def publication_schedule(
    seed: int,
    pubends: Sequence[str],
    rate_per_pubend: float,
    seconds: float,
    market: bool = False,
) -> List[Publication]:
    """Every publication of a run, in due-time order.

    Each pubend publishes at ``rate_per_pubend``.  The pubends are evenly
    interleaved after a seeded common phase: with independent phases, how
    often two pubends publish at once changed queueing, and so latency, by
    a quarter from one seed to the next.  With ``market`` the events are
    ``market_ticks`` trades (symbol, price, volume, side) drawn from a
    per-pubend seeded walk; otherwise they carry only ``pub`` and ``seq``.
    """
    interval = 1.0 / rate_per_pubend
    common = random.Random(seed).uniform(0.0, interval)
    out: List[Publication] = []
    for index, pubend in enumerate(pubends):
        phase = common + index * interval / len(pubends)
        make = (
            market_ticks(SYMBOLS, seed=_stream_seed(seed, index))
            if market
            else None
        )
        seq = 0
        due = phase
        while due < seconds:
            attributes: Dict[str, Any] = {"pub": pubend, "seq": seq}
            if make is not None:
                attributes.update(make(seq))
            out.append(Publication(due, pubend, seq, attributes))
            seq += 1
            due = phase + seq * interval
    out.sort(key=lambda p: (p.due, p.pubend))
    return out


#: Seed of the subscriber base.  The population is one fixed sample (the
#: deployment's users); a run's seed picks the order it subscribes in.
#: With a fresh sample per seed, how many subscribers the few hot symbols
#: happen to get moves deliveries per event by about 11% between seeds,
#: which would swamp every per-delivery figure.
POPULATION_SEED = 2002


def subscriptions(seed: int, n: int) -> List[SubscriptionSpec]:
    """``n`` content subscriptions over the market feed, in the order
    this seed subscribes them."""
    population = subscription_population(n, SYMBOLS, seed=POPULATION_SEED)
    random.Random(_stream_seed(seed, 9999)).shuffle(population)
    return population


def required_symbol(predicate: Any) -> Optional[str]:
    """The symbol a predicate requires by an equality conjunct, if any.

    The correctness check uses it to compare a subscription only against
    events of that symbol: no other event can satisfy the predicate.
    """
    terms = predicate.terms if isinstance(predicate, And) else (predicate,)
    for term in terms:
        if (
            isinstance(term, Comparison)
            and term.attr == "symbol"
            and term.op == "="
            and isinstance(term.value, str)
        ):
            return term.value
    return None


def jitter(seed: int, salt: int, width: float) -> float:
    """A seeded offset in ``[0, width)``, used to place fault instants."""
    return random.Random(_stream_seed(seed, salt)).uniform(0.0, width)


__all__ = [
    "BODY_BYTES",
    "Publication",
    "SYMBOLS",
    "jitter",
    "publication_schedule",
    "required_symbol",
    "subscriptions",
]
