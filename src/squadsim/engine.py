"""Deterministic discrete-event simulation core.

One Simulation instance runs n processes over an authenticated reliable
point-to-point network with adversary-controlled delays and a GST
boundary. Everything is single-threaded and exact:

- the event queue pops in nondecreasing global time, ties broken by a
  fixed total order (time, event-class rank with delivery < timer-expiry,
  process id, sequence number), so a (config, seed) pair is a pure
  function to a trace. It is bucketed by time: a heap of the distinct
  pending times, and per time a heap of (rank, pid, seq, ...) entries, so
  exact ``Fraction`` comparisons happen only between distinct times and
  the many ties (the n copies of a broadcast share a delivery time) are
  decided by plain ints;
- timers measure durations on the owner's local clock, integrating its
  rate schedule, and carry a generation counter so a cancel or re-measure
  silently retires any queued expiration;
- message delays are chosen by a DelayPolicy at send time and validated
  there: after GST a delay must lie in (0, delta], before GST it only has
  to be finite. The verdict depends only on the send instant and the
  delivery time, so it is decided once per distinct delivery time in an
  instant: ``now >= gst`` and ``now + delta`` are computed when ``now``
  changes, before the policy is asked, and the delivery keys already
  found legal at this instant are kept in a set. Only legal results are
  kept, so every illegal send raises. Policies read the two per-instant
  values as ``sim.post_gst`` and ``sim.latest_delivery`` instead of
  recomputing them per copy; a policy that returns ``latest_delivery``
  gives all n copies of a broadcast one shared ``Fraction`` object.

Local computation takes zero simulated time: everything a handler emits
while processing one event happens at the same instant.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Protocol

from .timebase import ClockModel, SimTime
from .crypto import CryptoSystem
from .trace import Trace, TraceEvent

RANK_DELIVERY = 0
RANK_TIMER = 1

TIMER_KINDS = ("view_timer", "dissemination_timer", "baseline_timer")


class LivelockError(Exception):
    """Event queue drained before the stop predicate held."""

    def __init__(self, trace: Trace):
        super().__init__("event queue empty before stop predicate held")
        self.trace = trace


class AdversaryViolation(Exception):
    """An adversary-chosen delay or emission broke a model invariant."""


@dataclass
class Envelope:
    seq: int
    sender: int
    receiver: int
    payload: object
    sent_at: Fraction
    deliver_at: Fraction
    words: int


@dataclass
class TimerHandle:
    owner: int
    kind: str
    generation: int = 0
    pending: Optional[tuple[Fraction, int]] = None  # (expiry, generation)


class DelayPolicy(Protocol):
    def deliver_at(self, env: Envelope, sim: "Simulation") -> Fraction: ...


class MaxDelayPolicy:
    """The exact delta delay for every send, before GST too (a pre-GST send
    arrives by GST + delta anyway): ``sim.latest_delivery``, one object per
    send instant."""

    def deliver_at(self, env: Envelope, sim: "Simulation") -> Fraction:
        return sim.latest_delivery


class ProcessContext:
    """Per-process facade through which handlers act on the simulation."""

    def __init__(self, sim: "Simulation", pid: int):
        self._sim = sim
        self.pid = pid
        # (time, words) per point-to-point send: a word tally kept apart
        # from the trace, so the two accountings can check each other
        self.sent_log: list[tuple[Fraction, int]] = []

    @property
    def now(self) -> Fraction:
        return self._sim.now

    @property
    def crypto(self) -> CryptoSystem:
        return self._sim.crypto

    @property
    def n(self) -> int:
        return self._sim.n

    @property
    def f(self) -> int:
        return self._sim.f

    def send(self, receiver: int, payload, words: int = 1) -> None:
        self.sent_log.append((self._sim.now, words))
        self._sim._send(self.pid, receiver, payload, words)

    def broadcast(self, payload, words: int = 1) -> None:
        # n point-to-point sends, self included, in process-id order
        self.sent_log.extend([(self._sim.now, words)] * self._sim.n)
        for receiver in range(1, self._sim.n + 1):
            self._sim._send(self.pid, receiver, payload, words)

    def measure(self, kind: str, local_duration: Fraction) -> None:
        self._sim._timer_measure(self.pid, kind, local_duration)

    def cancel(self, kind: str) -> None:
        self._sim._timer_cancel(self.pid, kind)

    def log_advance(self, view: int, detail_extra: str = "") -> None:
        self._sim._log(TraceEvent(self._sim.now, self.pid, "advance",
                                  f"v={view}{detail_extra}", 0, payload=view))

    def log_enter_epoch(self, epoch: int) -> None:
        self._sim._log(TraceEvent(self._sim.now, self.pid, "enter_epoch",
                                  f"e={epoch}", 0, payload=epoch))

    def decide(self, value) -> None:
        self._sim._decide(self.pid, value)


class Node(Protocol):
    def on_start(self, ctx: ProcessContext) -> None: ...
    def on_deliver(self, ctx: ProcessContext, sender: int, payload) -> None: ...
    def on_timer(self, ctx: ProcessContext, kind: str) -> None: ...


class Simulation:
    def __init__(self, n: int, f: int, gst: SimTime, delta: SimTime,
                 delay_policy: DelayPolicy, seed: int = 0,
                 byzantine: frozenset[int] = frozenset(),
                 clocks: Optional[dict[int, ClockModel]] = None):
        if n != 3 * f + 1:
            raise ValueError(f"n={n} is not 3f+1")
        if len(byzantine) > f:
            raise ValueError("too many Byzantine processes")
        self.n = n
        self.f = f
        self.gst = Fraction(gst)
        self.delta = Fraction(delta)
        self.byzantine = frozenset(byzantine)
        self.rng = random.Random(seed)
        self.crypto = CryptoSystem(n, f)
        self.delay_policy = delay_policy
        self.clocks = clocks or {p: ClockModel.constant(p) for p in range(1, n + 1)}
        for p in range(1, n + 1):
            self.clocks[p].validate(self.gst)

        self.now: Fraction = Fraction(0)
        self.trace = Trace(n, f, self.gst, self.delta, self.byzantine)
        self.nodes: dict[int, Node] = {}
        self.contexts = {p: ProcessContext(self, p) for p in range(1, n + 1)}
        self.timers = {(p, k): TimerHandle(p, k)
                       for p in range(1, n + 1) for k in TIMER_KINDS}
        self.decisions: dict[int, tuple[Fraction, object]] = {}
        self._undecided = sum(1 for p in range(1, n + 1) if p not in self.byzantine)

        # heap of the distinct pending times; a time is in it exactly while
        # its (numerator, denominator) key is in _buckets
        self._times: list[Fraction] = []
        self._buckets: dict[tuple[int, int], list[tuple]] = {}  # (rank, pid, seq, tag, data)
        self._seq = 0

        # delivery legality for the instant ``_instant`` (see _send)
        self._instant: Optional[Fraction] = None
        self._post_gst = False
        self._latest: Fraction = Fraction(0)
        self._legal: set[tuple[int, int]] = set()

    # -- per-instant values, read-only for delay policies -----------------

    @property
    def post_gst(self) -> bool:
        """Whether the send being decided happens at or after GST."""
        return self._post_gst

    @property
    def latest_delivery(self) -> Fraction:
        """``now + delta`` for the send being decided: the latest legal
        post-GST delivery time, one object per send instant."""
        return self._latest

    # -- wiring ----------------------------------------------------------

    def add_node(self, pid: int, node: Node, start_at: SimTime) -> None:
        self.nodes[pid] = node
        self._push(Fraction(start_at), RANK_TIMER, pid, "start", None)

    def is_correct(self, pid: int) -> bool:
        return pid not in self.byzantine

    # -- internal effects --------------------------------------------------

    def _push(self, time: Fraction, rank: int, pid: int, tag: str, data) -> None:
        self._seq += 1
        self._enqueue(time, (time.numerator, time.denominator),
                      (rank, pid, self._seq, tag, data))

    def _enqueue(self, time: Fraction, key: tuple[int, int], entry: tuple) -> None:
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [entry]
            heapq.heappush(self._times, time)
        else:
            heapq.heappush(bucket, entry)

    def _send(self, sender: int, receiver: int, payload, words: int) -> None:
        if not (1 <= receiver <= self.n):
            raise ValueError(f"unknown receiver {receiver}")
        if words <= 0:
            raise ValueError("message words must be positive")
        self._seq += 1
        now = self.now
        if now is not self._instant:
            # identity, not equality: a new instant (or a reassigned now)
            # always starts a fresh verdict set. Refreshed before the
            # policy is asked, since it reads post_gst and latest_delivery.
            self._instant = now
            self._post_gst = now >= self.gst
            self._latest = now + self.delta
            self._legal = set()
        env = Envelope(self._seq, sender, receiver, payload, now, now, words)
        deliver_at = self.delay_policy.deliver_at(env, self)
        if type(deliver_at) is not Fraction:
            deliver_at = Fraction(deliver_at)
        key = (deliver_at.numerator, deliver_at.denominator)
        if key not in self._legal:
            if self._post_gst:
                if not (now < deliver_at <= self._latest):
                    raise AdversaryViolation(
                        f"post-GST delay {deliver_at - now} outside (0, delta]")
            elif deliver_at < now:
                raise AdversaryViolation("delivery before send")
            self._legal.add(key)
        env.deliver_at = deliver_at
        kind = "byz" if sender in self.byzantine else "send"
        # detail None: TraceEvent.line renders it from the payload
        self._log(TraceEvent(now, sender, kind, None, words,
                             payload=payload, sender=sender,
                             receiver=receiver, seq=env.seq))
        self._enqueue(deliver_at, key, (RANK_DELIVERY, receiver, env.seq, "deliver", env))

    def _timer_measure(self, pid: int, kind: str, local_duration) -> None:
        handle = self.timers[(pid, kind)]
        handle.generation += 1
        expiry = self.clocks[pid].global_expiry(self.now, Fraction(local_duration))
        handle.pending = (expiry, handle.generation)
        self._push(expiry, RANK_TIMER, pid, "timer", (kind, handle.generation))

    def _timer_cancel(self, pid: int, kind: str) -> None:
        handle = self.timers[(pid, kind)]
        handle.generation += 1
        handle.pending = None

    def _decide(self, pid: int, value) -> None:
        if pid in self.decisions:
            return
        self.decisions[pid] = (self.now, value)
        if pid not in self.byzantine:
            self._undecided -= 1
        self._log(TraceEvent(self.now, pid, "decide", f"value={value}", 0, payload=value))

    def _log(self, ev: TraceEvent) -> None:
        self.trace.append(ev)

    # -- run loop ----------------------------------------------------------

    def all_correct_decided(self) -> bool:
        return self._undecided == 0

    def _finish(self) -> Trace:
        self.trace.decided_all = self.all_correct_decided()
        return self.trace

    def run(self, stop: Optional[Callable[["Simulation"], bool]] = None,
            horizon: Optional[SimTime] = None) -> Trace:
        if stop is None:
            stop = Simulation.all_correct_decided
        horizon_t = None if horizon is None else Fraction(horizon)
        times, buckets = self._times, self._buckets
        nodes, contexts, timers = self.nodes, self.contexts, self.timers
        while True:
            if stop(self):
                return self._finish()
            if not times:
                if horizon_t is None:
                    raise LivelockError(self.trace)
                # nothing left to happen; time passes quietly to the horizon
                self.now = max(self.now, horizon_t)
                self.trace.horizon_hit = not stop(self)
                return self._finish()
            # horizon and monotonicity hold for a whole bucket, since all
            # its entries share one time
            time = times[0]
            if horizon_t is not None and time > horizon_t:
                self.trace.horizon_hit = True
                return self._finish()
            assert time >= self.now, "event queue went backwards"
            self.now = time
            key = (time.numerator, time.denominator)
            bucket = buckets[key]
            while True:
                _, pid, _, tag, data = heapq.heappop(bucket)
                if not bucket:
                    # retire the time now: a handler pushing at this same
                    # time then opens a fresh bucket for it
                    del buckets[key]
                    retired = heapq.heappop(times)
                    assert retired is time, "event queue went backwards"
                node = nodes.get(pid)
                if node is not None:
                    if tag == "deliver":
                        env: Envelope = data
                        self._log(TraceEvent(time, pid, "deliver", None, 0,
                                             payload=env.payload, sender=env.sender,
                                             receiver=pid, seq=env.seq))
                        node.on_deliver(contexts[pid], env.sender, env.payload)
                    elif tag == "timer":
                        kind, generation = data
                        handle = timers[(pid, kind)]
                        # skipped if canceled or superseded by a newer measure
                        if handle.pending is not None and handle.pending[1] == generation:
                            handle.pending = None
                            self._log(TraceEvent(time, pid, "timer",
                                                 f"{kind}:gen{generation}", 0))
                            node.on_timer(contexts[pid], kind)
                    elif tag == "start":
                        node.on_start(contexts[pid])
                if not bucket:
                    break
                if stop(self):
                    return self._finish()
