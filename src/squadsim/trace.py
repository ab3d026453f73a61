"""Append-only execution traces.

Every send/deliver/timer/advance/enter_epoch/decide/byz event is recorded
with its exact global time and word cost. The line format
``time|process|kind|detail|words`` is fixed; replaying a (config, seed)
pair must reproduce the serialized trace byte for byte.

A ``Trace`` holds ``log``, a list of what the engine did, in trace order,
as four kinds of entry:

- a ``SendCall`` per send call: the fields its copies share (time, sender,
  kind, words, payload, first seq) once, and its receivers, the ``range``
  or tuple the call got. Copy i goes to ``receivers[i]`` with seq
  ``seq + i`` and is one ``send`` (or ``byz``) line;
- an ``int`` per delivery, the delivered copy's seq: one ``deliver`` line.
  Its pid, sender and payload are those of the ``SendCall`` that owns the
  seq (copy ``seq - call.seq``), which precedes it in the log;
- a ``Fraction`` per instant, logged when the engine starts draining a
  time bucket: the time of the deliveries that follow it. It is no line
  itself, and an instant whose events log nothing leaves it alone;
- a ``TraceEvent`` for everything else: timers, advances, epoch entries
  and decisions. A message is never one: the log is the trace's one form,
  so a trace built by hand logs its sends, deliveries and instants the
  way the engine does.

Every reader resolves the seqs to their calls in its one pass over the
log, through a list indexed by seq. ``trace.events`` is a read-only
iterable of one ``TraceEvent`` per line, built from the log when read: it
supports ``len`` and iteration, and keeps no list of events; take
``list(trace.events)`` to index it. Message lines carry no detail string:
it is rendered from the payload when the line is written, which is exact
because every payload is immutable (frozen dataclasses, ints, strings).
Events and log entries keep a reference to the structured payload they
describe, so post-hoc checkers inspect messages without parsing detail
strings.

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


def _own(owners: list, call: SendCall, owner) -> None:
    """Make ``owner`` the entry of every seq of ``call`` in ``owners``, a list
    indexed by seq (None where no call owns the seq)."""
    first = call.seq
    if first > len(owners):
        owners += [None] * (first - len(owners))
    owners[first:first + len(call.receivers)] = [owner] * len(call.receivers)


class Events:
    """The ``TraceEvent``s of a log, one per line, each built when read."""

    __slots__ = ("_log",)

    def __init__(self, log: list):
        self._log = log

    def __len__(self) -> int:
        lines = 0
        for entry in self._log:
            cls = type(entry)
            if cls is SendCall:
                lines += len(entry.receivers)
            elif cls is not Fraction:   # an instant has no line
                lines += 1
        return lines

    def __iter__(self) -> Iterator[TraceEvent]:
        # owners[seq]: (receivers, first seq, sender, payload) of the send
        # call that sent seq
        owners: list = []
        now = None   # the instant of the deliveries that follow
        event = TraceEvent
        for entry in self._log:
            cls = type(entry)
            if cls is int:
                receivers, first, sender, payload = owners[entry]
                pid = receivers[entry - first]
                yield event(now, pid, "deliver", None, 0, payload, sender, pid, entry)
            elif cls is SendCall:
                time, sender, kind = entry.time, entry.process, entry.kind
                words, payload, receivers = entry.words, entry.payload, entry.receivers
                _own(owners, entry, (receivers, entry.seq, sender, payload))
                for seq, receiver in enumerate(receivers, entry.seq):
                    yield event(time, sender, kind, None, words, payload,
                                sender, receiver, seq)
            elif cls is Fraction:
                now = entry
            else:
                yield entry


class Trace:
    """A run's log (see the module docstring) and whether it hit its horizon."""

    def __init__(self, log: Iterable[TraceEvent | SendCall | int | Fraction] = (),
                 horizon_hit: bool = False):
        self.log: list = list(log)
        self.horizon_hit = horizon_hit
        # metrics.TraceIndex over ``log``, built and refreshed by metrics.index_of
        self.index: Any = None

    @property
    def events(self) -> Events:
        return Events(self.log)

    def append(self, entry: TraceEvent | SendCall | int | Fraction) -> None:
        self.log.append(entry)

    def blocks(self) -> Iterator[str]:
        """The serialized trace in blocks of ``BLOCK_LINES`` lines, each line
        ending in a newline, rendered straight from the log. One summary per
        distinct payload and one time string per distinct time object: a
        broadcast's n sends and n deliveries share one payload, and the
        lines of one instant share one time. A delivery line is its
        instant's stamp, its receiver, the part its send call fixes
        (rendered once per call) and its seq. The log keeps the payloads and
        times alive while the memos are in use."""
        summaries: dict[int, str] = {}
        times: dict[int, str] = {}

        def stamp_of(time) -> str:
            stamp = times.get(id(time))
            if stamp is None:
                stamp = times[id(time)] = str(time)
            return stamp

        # owners[seq]: (receivers, first seq, "|deliver|<summary><-P<sender>#")
        # of the send call that sent seq
        owners: list = []
        now = ""   # the stamp of the current instant
        lines: list[str] = []
        for entry in self.log:
            cls = type(entry)
            if cls is int:
                receivers, first, middle = owners[entry]
                lines.append(f"{now}|{receivers[entry - first]}{middle}{entry}|0")
            elif cls is SendCall:
                payload = entry.payload
                text = summaries.get(id(payload))
                if text is None:
                    text = summaries[id(payload)] = _summary(payload)
                receivers, sender = entry.receivers, entry.process
                _own(owners, entry,
                     (receivers, entry.seq, f"|deliver|{text}<-P{sender}#"))
                head = f"{stamp_of(entry.time)}|{sender}|{entry.kind}|{text}->P"
                tail = f"|{entry.words}"
                lines += [f"{head}{receiver}#{seq}{tail}"
                          for seq, receiver in enumerate(receivers, entry.seq)]
            elif cls is Fraction:
                now = stamp_of(entry)
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
