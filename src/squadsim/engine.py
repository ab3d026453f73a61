"""Deterministic discrete-event simulation core.

One Simulation instance runs n processes over an authenticated reliable
point-to-point network with adversary-controlled delays and a GST
boundary. Everything is single-threaded and exact:

- the event queue pops in nondecreasing global time, ties broken by a
  fixed total order (time, event-class rank with delivery < timer-expiry,
  process id, sequence number), so a (config, seed) pair is a pure
  function to a trace;
- timers measure durations on the owner's local clock, integrating its
  rate schedule, and carry a generation counter so a cancel or re-measure
  silently retires any queued expiration;
- message delays are chosen by a DelayPolicy at send time and validated
  there: after GST a delay must lie in (0, delta], before GST it only has
  to be finite.

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
    """Worst legal delay after GST; pre-GST sends capped at GST + delta."""

    def deliver_at(self, env: Envelope, sim: "Simulation") -> Fraction:
        if env.sent_at >= sim.gst:
            return env.sent_at + sim.delta
        return min(env.sent_at + sim.delta, sim.gst + sim.delta)


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


def _summary(payload) -> str:
    fn = getattr(payload, "summary", None)
    return fn() if fn else str(payload)


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

        self._queue: list[tuple] = []   # (time, rank, pid, seq, tag, data)
        self._seq = 0

    # -- wiring ----------------------------------------------------------

    def add_node(self, pid: int, node: Node, start_at: SimTime) -> None:
        self.nodes[pid] = node
        self._push(Fraction(start_at), RANK_TIMER, pid, "start", None)

    def is_correct(self, pid: int) -> bool:
        return pid not in self.byzantine

    # -- internal effects --------------------------------------------------

    def _push(self, time: Fraction, rank: int, pid: int, tag: str, data) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (time, rank, pid, self._seq, tag, data))

    def _send(self, sender: int, receiver: int, payload, words: int) -> None:
        if not (1 <= receiver <= self.n):
            raise ValueError(f"unknown receiver {receiver}")
        if words <= 0:
            raise ValueError("message words must be positive")
        self._seq += 1
        env = Envelope(self._seq, sender, receiver, payload, self.now, self.now, words)
        deliver_at = Fraction(self.delay_policy.deliver_at(env, self))
        if env.sent_at >= self.gst:
            if not (env.sent_at < deliver_at <= env.sent_at + self.delta):
                raise AdversaryViolation(
                    f"post-GST delay {deliver_at - env.sent_at} outside (0, delta]")
        elif deliver_at < env.sent_at:
            raise AdversaryViolation("delivery before send")
        env.deliver_at = deliver_at
        kind = "send" if self.is_correct(sender) else "byz"
        self._log(TraceEvent(self.now, sender, kind,
                             f"{_summary(payload)}->P{receiver}#{env.seq}",
                             words, payload=payload, sender=sender,
                             receiver=receiver, seq=env.seq))
        heapq.heappush(self._queue,
                       (deliver_at, RANK_DELIVERY, receiver, env.seq, "deliver", env))

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
        self._log(TraceEvent(self.now, pid, "decide", f"value={value}", 0, payload=value))

    def _log(self, ev: TraceEvent) -> None:
        self.trace.append(ev)

    # -- run loop ----------------------------------------------------------

    def all_correct_decided(self) -> bool:
        return all(p in self.decisions for p in range(1, self.n + 1)
                   if self.is_correct(p))

    def run(self, stop: Optional[Callable[["Simulation"], bool]] = None,
            horizon: Optional[SimTime] = None) -> Trace:
        if stop is None:
            stop = Simulation.all_correct_decided
        horizon_t = None if horizon is None else Fraction(horizon)
        while True:
            if stop(self):
                self.trace.decided_all = self.all_correct_decided()
                return self.trace
            if not self._queue:
                if horizon_t is None:
                    raise LivelockError(self.trace)
                # nothing left to happen; time passes quietly to the horizon
                self.now = max(self.now, horizon_t)
                self.trace.horizon_hit = not stop(self)
                self.trace.decided_all = self.all_correct_decided()
                return self.trace
            time, rank, pid, seq, tag, data = heapq.heappop(self._queue)
            if horizon_t is not None and time > horizon_t:
                self.trace.horizon_hit = True
                self.trace.decided_all = self.all_correct_decided()
                return self.trace
            assert time >= self.now, "event queue went backwards"
            self.now = time
            node = self.nodes.get(pid)
            if node is None:
                continue
            ctx = self.contexts[pid]
            if tag == "start":
                node.on_start(ctx)
            elif tag == "deliver":
                env: Envelope = data
                self._log(TraceEvent(time, pid, "deliver",
                                     f"{_summary(env.payload)}<-P{env.sender}#{env.seq}",
                                     0, payload=env.payload,
                                     sender=env.sender, receiver=pid, seq=env.seq))
                node.on_deliver(ctx, env.sender, env.payload)
            elif tag == "timer":
                kind, generation = data
                handle = self.timers[(pid, kind)]
                if handle.pending is None or handle.pending[1] != generation:
                    continue  # canceled or superseded by a newer measure
                handle.pending = None
                self._log(TraceEvent(time, pid, "timer", f"{kind}:gen{generation}", 0))
                node.on_timer(ctx, kind)
