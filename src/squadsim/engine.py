"""Deterministic discrete-event simulation core.

One Simulation instance runs n processes over an authenticated reliable
point-to-point network with adversary-controlled delays and a GST
boundary, until every correct process has decided or the horizon is
reached (``trace.horizon_hit``, also when the queue drains first). Only
``_decide`` lowers the count of undecided correct processes, and the run
loop tests it after each event, so a run ends right after the event whose
handler made the last correct decision. Everything is single-threaded and
exact:

- the event queue pops in nondecreasing global time, ties broken by a
  fixed total order (time, event-class rank with delivery < timer-expiry,
  process id, sequence number), so a (config, seed) pair is a pure
  function to a trace. It is bucketed by time: a heap of the distinct
  pending times, and per time a plain list of (rank, pid, seq, ...)
  entries in push order. When its time comes the run loop sorts a bucket
  once, descending, if it holds more than one entry, and drains it with
  ``list.pop()``, so the many ties (the n copies of a broadcast share a
  delivery time) are decided by plain ints. A push into the bucket being
  drained is inserted in order; only a zero delay reaches it, which is
  legal only before GST. The time heap holds ``(numerator / denominator,
  time, key)``: int true division is correctly rounded, hence monotone, so
  a float may order two times only when the floats differ; two distinct
  times with equal floats (``inf`` for every time beyond the float range)
  fall through to the exact ``Fraction`` compare, so the ``(numerator,
  denominator)`` key is never compared. The run loop reads a bucket's key
  from its heap entry;
- timers measure durations on the owner's local clock, integrating its
  rate schedule. A timer is its generation number, ``timers[(pid, kind)]``
  for any kind a node names: measure and cancel both bump it (from 0),
  each generation is queued at most once, and an expiration fires only if
  its generation is still the current one, so a cancel or re-measure
  silently retires any queued expiration. The node dispatches the kind;
- message delays are chosen by a DelayPolicy at send time and validated
  there: after GST a delay must lie in (0, delta], before GST it only has
  to be finite. The verdict depends only on the send instant and the
  delivery time: when ``now`` changes, before the policy is asked,
  ``now >= gst`` is decided into the plain attribute ``sim.post_gst`` and
  ``now`` and ``now + delta`` into ints, from GST's and delta's numerators
  and denominators, read once into the plain attributes ``sim.gst_ratio``
  and ``sim.delta_ratio``, which a delay policy reads for its own integer
  arithmetic and never writes. ``sim.latest_delivery``, the ``Fraction``
  ``now + delta``, is a read-only property: built on a policy's first read
  at an instant, the same object on every later read there, and never
  built where no policy reads it. Every delivery time is checked by
  integer cross-products unless it is the very object the previous copy
  got, so every illegal copy raises; a policy that returns
  ``latest_delivery`` gives all n copies of a broadcast one shared object;
- a send call is one record, its ``trace.SendCall`` log entry: the trace
  keeps it and every queued copy carries it with the copy's own seq. A
  broadcast is one engine call that checks and refreshes once, asks the
  policy once (``deliver_at(now, payload, receivers, sim)``, one time per
  receiver, in receiver order), then gives each copy its own seq and queue
  entry, in receiver order. A copy whose time is the very object the
  previous copy got is legal and goes to the same bucket, so a run of such
  copies costs one legality check and one ``_buckets`` lookup. A rejected
  copy spends its seq and raises; the copies before it stay queued and
  logged (the entry's receivers are cut before it). The run loop logs
  each instant once, as the ``Fraction`` itself, when it starts draining a
  time bucket, and each delivery as its seq, the int the queue entry
  holds: the call that owns the seq has its pid, sender and payload. So a
  delivery allocates nothing that outlives its handler, and no per-copy
  ``TraceEvent`` is built while a run goes on: ``trace.events`` builds
  them when read. This log is the trace's one form: the metrics read
  it and nothing else. Every message is one word, in its log
  entry: the trace is the only word tally.

Every exact decision on the hot path (GST, the delivery bounds, the
horizon, queue monotonicity, timer expiries) is made in plain ints, from
the public ``numerator`` and ``denominator`` (denominators are positive):
never a float, never ``Fraction`` arithmetic or comparison dispatch. Time
itself stays an exact ``Fraction`` wherever it is stored, logged,
serialized or handed to a policy.

Local computation takes zero simulated time: everything a handler emits
while processing one event happens at the same instant. An exception a
handler raises ends the run as a ``ProtocolError`` that names the process
and the event it was handling; an ``AdversaryViolation`` passes unchanged.
The simulation keeps no ``ProcessContext``: ``run`` makes its own. With
``consensus.ProtocolNode``, whose layers hold no reference to their node,
a finished run holds no reference cycle and is freed with its last
reference.
"""

from __future__ import annotations

import bisect
import heapq
import math
import random
from fractions import Fraction
from itertools import count
from typing import Optional, Protocol, Sequence

from .timebase import ClockModel, SimTime
from .crypto import CryptoSystem
from .trace import SendCall, Trace, TraceEvent

RANK_DELIVERY = 0
RANK_TIMER = 1

# an object no delay policy returns
_NO_TIME = object()


class AdversaryViolation(Exception):
    """An adversary-chosen delay or emission broke a model invariant."""


class ProtocolError(Exception):
    """A node's handler raised: the message names the process and the event
    it was handling, and the handler's exception is the ``__cause__``."""


def _event_name(tag: str, seq: int, data) -> str:
    if tag == "deliver":
        return f"the delivery of #{seq} from P{data.process}"
    if tag == "timer":
        return f"the timer {data[0]}:gen{data[1]}"
    return "its start"


class DelayPolicy(Protocol):
    # asked once per send call: one delivery time per receiver, in receiver order
    def deliver_at(self, now: Fraction, payload, receivers: Sequence[int],
                   sim: "Simulation") -> Sequence[Fraction]: ...


class MaxDelayPolicy:
    """The exact delta delay for every copy, before GST too (a pre-GST send
    arrives by GST + delta anyway): ``sim.latest_delivery``, built on the
    first read at a send instant, so a broadcast's copies share one object."""

    def deliver_at(self, now: Fraction, payload, receivers: Sequence[int],
                   sim: "Simulation") -> list[Fraction]:
        return [sim.latest_delivery] * len(receivers)


class ProcessContext:
    """Per-process facade through which handlers act on the simulation. It
    keeps no record of its own: sends go to the trace, timers to
    ``Simulation.timers``."""

    def __init__(self, sim: "Simulation", pid: int):
        self._sim = sim
        self.pid = pid
        self.crypto: CryptoSystem = sim.crypto

    @property
    def now(self) -> Fraction:
        return self._sim.now

    def send(self, receiver: int, payload) -> None:
        if not (1 <= receiver <= self._sim.n):
            raise ValueError(f"unknown receiver {receiver}")
        self._sim._send(self.pid, (receiver,), payload)

    def broadcast(self, payload) -> None:
        # n point-to-point sends, self included, in process-id order
        self._sim._send(self.pid, range(1, self._sim.n + 1), payload)

    def measure(self, kind: str, local_duration: Fraction) -> None:
        self._sim._timer_measure(self.pid, kind, local_duration)

    def cancel(self, kind: str) -> None:
        self._sim._timer_cancel(self.pid, kind)

    def log_advance(self, view: int) -> None:
        self._sim.trace.append(TraceEvent(
            self._sim.now, self.pid, "advance", f"v={view}", 0, view))

    def log_enter_epoch(self, epoch: int) -> None:
        self._sim.trace.append(TraceEvent(
            self._sim.now, self.pid, "enter_epoch", f"e={epoch}", 0, epoch))

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
        self.trace = Trace()
        self.nodes: dict[int, Node] = {}
        # (pid, kind) -> current generation, from the pair's first measure or cancel
        self.timers: dict[tuple[int, str], int] = {}
        self.decisions: dict[int, tuple[Fraction, object]] = {}
        self._undecided = sum(1 for p in range(1, n + 1) if p not in self.byzantine)

        # heap of the distinct pending times as (float, time, key); a time
        # is in it exactly while its (numerator, denominator) key is in _buckets
        self._times: list[tuple[float, Fraction, tuple[int, int]]] = []
        self._buckets: dict[tuple[int, int], list[tuple]] = {}  # (rank, pid, seq, tag, data)
        # the bucket the run loop is draining (sorted), if it has not
        # yet emptied; a retired bucket is never found in _buckets again
        self._draining: Optional[list[tuple]] = None
        self._seq = 0

        # GST and delta as (numerator, denominator), read once; like
        # post_gst, plain attributes that delay policies read and must not write
        self.gst_ratio = (self.gst.numerator, self.gst.denominator)
        self.delta_ratio = dn, dd = (self.delta.numerator, self.delta.denominator)
        # the values of the send instant ``_instant``, set by _send when
        # the instant changes; delay policies read post_gst and
        # latest_delivery and must not write them
        self._instant: Fraction = self.now
        # whether the send being decided happens at or after GST
        self.post_gst = self.gst <= 0
        # (now, now + delta) as (numerator, denominator) pairs, unreduced
        self._bounds: tuple[int, int, int, int] = (0, 1, dn, dd)
        self._latest: Optional[Fraction] = None   # latest_delivery, once built

    @property
    def latest_delivery(self) -> Fraction:
        """``now + delta`` at the send instant, built on its first read there."""
        latest = self._latest
        if latest is None:
            latest = self._latest = self._instant + self.delta
        return latest

    # -- wiring ----------------------------------------------------------

    def context(self, pid: int) -> ProcessContext:
        """A facade acting as ``pid``. The simulation keeps none: a context
        points back at it, so holding them would make every finished run a
        reference cycle that only the cycle collector frees."""
        return ProcessContext(self, pid)

    def add_node(self, pid: int, node: Node, start_at: SimTime) -> None:
        self.nodes[pid] = node
        self._push(Fraction(start_at), RANK_TIMER, pid, "start", None)

    # -- internal effects --------------------------------------------------

    def _push(self, time: Fraction, rank: int, pid: int, tag: str, data) -> None:
        self._seq += 1
        self._enqueue(time, (time.numerator, time.denominator),
                      (rank, pid, self._seq, tag, data))

    def _enqueue(self, time: Fraction, key: tuple[int, int], entry: tuple) -> list:
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = [entry]
            # int true division is correctly rounded, hence monotone: the
            # float orders two times whenever the floats differ, and equal
            # floats (inf for every time beyond the float range) fall
            # through to the exact compare of the times
            try:
                approx = key[0] / key[1]
            except OverflowError:
                approx = math.inf
            heapq.heappush(self._times, (approx, time, key))
        elif bucket is self._draining:
            # it is sorted in descending order; seqs are unique, so the
            # negated (rank, pid, seq) orders every entry
            bisect.insort(bucket, entry, key=lambda e: (-e[0], -e[1], -e[2]))
        else:
            bucket.append(entry)
        return bucket

    def _send(self, sender: int, receivers: Sequence[int], payload) -> None:
        # one log entry and one policy call per call (see the module docstring)
        now = self.now
        if now is not self._instant:
            # identity, not equality: a reassigned now is a new instant too.
            # Refreshed before the policy is asked, since it reads
            # post_gst and latest_delivery; decided in ints alone
            self._instant, self._latest = now, None
            nn, nd = now.numerator, now.denominator
            gn, gd = self.gst_ratio
            dn, dd = self.delta_ratio
            self.post_gst = nn * gd >= gn * nd
            self._bounds = (nn, nd, nn * dd + dn * nd, nd * dd)
        times = self.delay_policy.deliver_at(now, payload, receivers, self)
        if len(times) != len(receivers):
            raise AdversaryViolation(f"delay policy gave {len(times)} delivery "
                                     f"times for {len(receivers)} receivers")
        first = self._seq + 1
        call = SendCall(now, sender, "byz" if sender in self.byzantine else "send",
                        1, payload, first, receivers)
        enqueue, post_gst, draining = self._enqueue, self.post_gst, self._draining
        nn, nd, ln, ld = self._bounds
        # the policy's last result while its bucket takes plain appends: a
        # copy given the same object again is legal and goes to that bucket
        last, bucket = _NO_TIME, None
        try:
            for seq, receiver, deliver_at in zip(count(first), receivers, times):
                if deliver_at is last:
                    bucket.append((RANK_DELIVERY, receiver, seq, "deliver", call))
                    continue
                last = deliver_at
                if type(deliver_at) is not Fraction:
                    deliver_at = Fraction(deliver_at)
                key = dn, dd = deliver_at.numerator, deliver_at.denominator
                # exact comparisons as integer cross-products (denominators
                # are positive)
                if post_gst:
                    if not (nn * dd < dn * nd and dn * ld <= ln * dd):
                        raise AdversaryViolation(
                            f"post-GST delay {deliver_at - now} outside (0, delta]")
                elif dn * nd < nn * dd:
                    raise AdversaryViolation("delivery before send")
                bucket = enqueue(deliver_at, key,
                                 (RANK_DELIVERY, receiver, seq, "deliver", call))
                if bucket is draining:
                    last = _NO_TIME
        except AdversaryViolation:
            # the rejected copy spends its seq; the copies before it stay
            self._seq = seq
            if seq > first:
                call.receivers = receivers[:seq - first]
                self.trace.append(call)
            raise
        self._seq = seq
        self.trace.append(call)

    def _timer_measure(self, pid: int, kind: str, local_duration) -> None:
        generation = self.timers[(pid, kind)] = self.timers.get((pid, kind), 0) + 1
        expiry = self.clocks[pid].global_expiry(self.now, local_duration)
        self._push(expiry, RANK_TIMER, pid, "timer", (kind, generation))

    def _timer_cancel(self, pid: int, kind: str) -> None:
        self.timers[(pid, kind)] = self.timers.get((pid, kind), 0) + 1

    def _decide(self, pid: int, value) -> None:
        if pid in self.decisions:
            return
        self.decisions[pid] = (self.now, value)
        if pid not in self.byzantine:
            self._undecided -= 1
        self.trace.append(TraceEvent(self.now, pid, "decide",
                                     f"value={value}", 0, value))

    # -- run loop ----------------------------------------------------------

    def run(self, horizon: SimTime) -> Trace:
        horizon_t = Fraction(horizon)
        hn, hd = horizon_t.numerator, horizon_t.denominator
        pn, pd = self.now.numerator, self.now.denominator   # the last instant
        times, buckets = self._times, self._buckets
        nodes, timers = self.nodes, self.timers
        contexts = {p: self.context(p) for p in range(1, self.n + 1)}
        append = self.trace.log.append
        # one handler for the whole loop: it costs nothing until something
        # raises. An exception raised by a handler (not by this frame's own
        # queue checks) becomes a ProtocolError naming the pid and event.
        try:
            while True:
                # only _decide changes the count, so the run stops right
                # after the event whose handler made the last correct decision
                if not self._undecided:
                    return self.trace
                if not times:
                    # nothing left to happen; time passes quietly to the horizon
                    self.now = max(self.now, horizon_t)
                    self.trace.horizon_hit = True
                    return self.trace
                # horizon and monotonicity hold for a whole bucket, since all
                # its entries share one time; both are integer cross-products
                _, time, key = times[0]
                tn, td = key
                if tn * hd > hn * td:
                    self.trace.horizon_hit = True
                    return self.trace
                assert tn * pd >= pn * td, "event queue went backwards"
                pn, pd = key
                self.now = time
                # the instant, once: the deliveries that follow are at it
                append(time)
                bucket = buckets[key]
                if len(bucket) > 1:
                    # sorted once, in descending order, and drained from the
                    # end; a push into it while it drains keeps it sorted
                    bucket.sort(reverse=True)
                    self._draining = bucket
                while True:
                    _, pid, seq, tag, data = bucket.pop()
                    if not bucket:
                        # retire the time now: a handler pushing at this same
                        # time then opens a fresh bucket for it
                        del buckets[key]
                        retired = heapq.heappop(times)
                        assert retired[1] is time, "event queue went backwards"
                    node = nodes.get(pid)
                    if node is not None:
                        if tag == "deliver":
                            # data is the send call's log entry, which
                            # owns seq: the log needs no more than seq
                            append(seq)
                            node.on_deliver(contexts[pid], data.process, data.payload)
                        elif tag == "timer":
                            kind, generation = data
                            # skipped if canceled or superseded by a newer measure
                            if timers[(pid, kind)] == generation:
                                append(TraceEvent(time, pid, "timer",
                                                  f"{kind}:gen{generation}", 0))
                                node.on_timer(contexts[pid], kind)
                        elif tag == "start":
                            node.on_start(contexts[pid])
                    if not bucket:
                        break
                    if not self._undecided:
                        return self.trace
        except AdversaryViolation:
            raise
        except Exception as exc:
            if exc.__traceback__.tb_next is None:
                raise
            raise ProtocolError(
                f"P{pid} raised {type(exc).__name__}: {exc} while handling "
                f"{_event_name(tag, seq, data)} at t={self.now}") from exc
