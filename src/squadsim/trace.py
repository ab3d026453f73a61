"""Append-only execution traces.

Every send/deliver/timer/advance/enter_epoch/decide/byz event is recorded
with its exact global time and word cost. The line format
``time|process|kind|detail|words`` is fixed; replaying a (config, seed)
pair must reproduce the serialized trace byte for byte.

A ``Trace`` holds ``log``, a list of what the engine did, in trace order:

- a ``SendCall`` per send call: the fields its copies share (time, sender,
  kind, words, payload, first seq) once, and its receivers, the ``range``
  or tuple the call got. Copy i goes to ``receivers[i]`` with seq
  ``seq + i`` and is one ``send`` (or ``byz``) line;
- a plain ``(time, pid, seq, sender, payload)`` tuple per delivery, one
  ``deliver`` line;
- a ``TraceEvent`` for everything else (timers, advances, epoch entries,
  decisions) and for every event of a trace built by hand, which may hold
  send and deliver events too: ``Trace(events)`` and ``append`` keep them
  as they are.

``trace.events`` is a read-only sequence of one ``TraceEvent`` per line,
built from the log when read: it supports ``len``, iteration, indexing and
slicing, and keeps no list of events. Message lines carry no detail
string: it is rendered from the payload when the line is written, which is
exact because every payload is immutable (frozen dataclasses, ints,
strings). Events and log entries keep a reference to the structured
payload they describe, so post-hoc checkers inspect messages without
parsing detail strings.

A ``Trace`` holds only its log, whether the run stopped at its horizon,
and the index the metrics cache on it. It keeps no copy of the run's
configuration: readers take n, f, GST, delta and the Byzantine set from
the config they check against.

The serialized text is streamed: ``Trace.blocks`` renders the log straight
into blocks of ``BLOCK_LINES`` lines, and ``write`` (a file), ``sha256`` (a
digest) and ``serialize`` (one string) all consume those blocks, so
writing or hashing a trace never holds more than one block of its text.
Every line ends in a newline, so an empty trace serializes to "".
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Any, Iterable, Iterator, Optional, TextIO

# lines per block of streamed text: a block is built, consumed and freed
# before the next one is rendered
BLOCK_LINES = 128


def _summary(payload) -> str:
    fn = getattr(payload, "summary", None)
    return fn() if fn else str(payload)


@dataclass(slots=True)
class TraceEvent:
    time: Fraction
    process: int
    kind: str
    detail: Optional[str]      # None: rendered from the payload by line()
    words: int = 0
    payload: Any = None        # structured message/value, not serialized
    sender: Optional[int] = None
    receiver: Optional[int] = None
    seq: Optional[int] = None  # message id pairing a send with its delivery

    def line(self, summaries: Optional[dict[int, str]] = None,
             times: Optional[dict[int, str]] = None) -> str:
        """The serialized event, without its newline. ``summaries`` and
        ``times`` memoize the payload summary and the time string by the
        object's ``id``; they are only valid while those objects live."""
        times = {} if times is None else times
        stamp = times.get(id(self.time))
        if stamp is None:
            stamp = times[id(self.time)] = str(self.time)
        detail = self.detail
        if detail is None:
            summaries = {} if summaries is None else summaries
            text = summaries.get(id(self.payload))
            if text is None:
                text = summaries[id(self.payload)] = _summary(self.payload)
            if self.kind == "deliver":
                detail = f"{text}<-P{self.sender}#{self.seq}"
            else:
                detail = f"{text}->P{self.receiver}#{self.seq}"
        return f"{stamp}|{self.process}|{self.kind}|{detail}|{self.words}"


@dataclass(slots=True)
class SendCall:
    """One send call's log entry. It reads like the send event of its first
    copy (``time``, ``process``, ``kind``, ``words``, ``payload``, ``seq``),
    which is what the report's message records need."""

    time: Fraction
    process: int               # the sender
    kind: str                  # "send", or "byz" for a Byzantine sender
    words: int
    payload: Any
    seq: int                   # the first copy's; copy i has seq + i
    receivers: Sequence[int]   # one copy each, in copy (and seq) order

    def copy_event(self, i: int) -> TraceEvent:
        """The send event of copy ``i``."""
        return TraceEvent(self.time, self.process, self.kind, None, self.words,
                          self.payload, self.process, self.receivers[i], self.seq + i)


def _delivery(entry: tuple) -> TraceEvent:
    time, pid, seq, sender, payload = entry
    return TraceEvent(time, pid, "deliver", None, 0, payload, sender, pid, seq)


def _lines(entry) -> int:
    return len(entry.receivers) if type(entry) is SendCall else 1


def _events(entry) -> Iterable[TraceEvent]:
    cls = type(entry)
    if cls is SendCall:
        return map(entry.copy_event, range(len(entry.receivers)))
    return (_delivery(entry) if cls is tuple else entry,)


class Events(Sequence):
    """The read-only ``TraceEvent`` sequence of a log, one per line, each
    built when read."""

    __slots__ = ("_log",)

    def __init__(self, log: list):
        self._log = log

    def __len__(self) -> int:
        return sum(map(_lines, self._log))

    def __iter__(self) -> Iterator[TraceEvent]:
        for entry in self._log:
            yield from _events(entry)

    def __getitem__(self, i):
        if isinstance(i, slice):
            picked = range(len(self))[i]
            if not picked:
                return []
            lo, hi = sorted((picked[0], picked[-1]))
            window = list(islice(self, lo, hi + 1))
            return [window[j - lo] for j in picked]
        j = range(len(self))[i]   # negative indices, and the IndexError
        for entry in self._log:
            if j < _lines(entry):
                break
            j -= _lines(entry)
        return next(islice(_events(entry), j, None))


class Trace:
    """A run's log (see the module docstring) and whether it hit its horizon."""

    def __init__(self, events: Iterable[TraceEvent] = (), horizon_hit: bool = False):
        self.log: list = list(events)
        self.horizon_hit = horizon_hit
        # metrics.TraceIndex over ``log``, built and refreshed by metrics.index_of
        self.index: Any = None

    @property
    def events(self) -> Events:
        return Events(self.log)

    def append(self, entry: TraceEvent | SendCall) -> None:
        self.log.append(entry)

    def blocks(self) -> Iterator[str]:
        """The serialized trace in blocks of ``BLOCK_LINES`` lines, each line
        ending in a newline, rendered straight from the log. One summary per
        distinct payload and one time string per distinct time object: a
        broadcast's n sends and n deliveries share one payload, and the
        lines of one instant share one time. The log keeps both alive while
        the memos are in use."""
        summaries: dict[int, str] = {}
        times: dict[int, str] = {}

        def rendered(time, payload) -> tuple[str, str]:
            stamp = times.get(id(time))
            if stamp is None:
                stamp = times[id(time)] = str(time)
            text = summaries.get(id(payload))
            if text is None:
                text = summaries[id(payload)] = _summary(payload)
            return stamp, text

        lines: list[str] = []
        for entry in self.log:
            cls = type(entry)
            if cls is tuple:
                time, pid, seq, sender, payload = entry
                stamp, text = rendered(time, payload)
                lines.append(f"{stamp}|{pid}|deliver|{text}<-P{sender}#{seq}|0")
            elif cls is SendCall:
                stamp, text = rendered(entry.time, entry.payload)
                head = f"{stamp}|{entry.process}|{entry.kind}|{text}->P"
                tail = f"|{entry.words}"
                lines += [f"{head}{receiver}#{seq}{tail}"
                          for seq, receiver in enumerate(entry.receivers, entry.seq)]
            else:
                lines.append(entry.line(summaries, times))
            while len(lines) >= BLOCK_LINES:
                block = lines[:BLOCK_LINES]
                del lines[:BLOCK_LINES]
                block.append("")
                yield "\n".join(block)
        if lines:
            lines.append("")
            yield "\n".join(lines)

    def write(self, fp: TextIO) -> None:
        """Write the serialized trace to the text file ``fp``, block by block."""
        for block in self.blocks():
            fp.write(block)

    def sha256(self) -> str:
        """The hex SHA-256 of the serialized trace's UTF-8 bytes."""
        # imported here: loading OpenSSL's hashes adds about 3.6 MB to the
        # peak RSS of every process that imports squadsim
        import hashlib
        digest = hashlib.sha256()
        for block in self.blocks():
            digest.update(block.encode())
        return digest.hexdigest()

    def serialize(self) -> str:
        return "".join(self.blocks())
