"""Append-only execution traces.

Every send/deliver/timer/advance/enter_epoch/decide/byz event is recorded
with its exact global time and word cost. The line format
``time|process|kind|detail|words`` is fixed; replaying a (config, seed)
pair must reproduce the serialized trace byte for byte.

Events also keep a reference to the structured payload they describe so
post-hoc checkers can inspect messages without parsing detail strings.
Message events (send, byz, deliver) are logged without a detail string:
it is rendered from the payload when the line is written, which is exact
because every payload is immutable (frozen dataclasses, ints, strings).

A ``Trace`` holds only its events, whether the run stopped at its horizon,
and the index the metrics cache on it. It keeps no copy of the run's
configuration: readers take n, f, GST, delta and the Byzantine set from
the config they check against.

The serialized text is streamed: ``Trace.blocks`` renders the events in
blocks of ``BLOCK_LINES`` lines, and ``write`` (a file), ``sha256`` (a
digest) and ``serialize`` (one string) all consume those blocks, so
writing or hashing a trace never holds more than one block of its text.
Every line ends in a newline, so an empty trace serializes to "".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterator, Optional, TextIO

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


@dataclass
class Trace:
    events: list[TraceEvent] = field(default_factory=list)
    horizon_hit: bool = False
    # metrics.TraceIndex over ``events``, built and refreshed by metrics.index_of
    index: Any = field(default=None, compare=False, repr=False)

    def append(self, ev: TraceEvent) -> None:
        self.events.append(ev)

    def blocks(self) -> Iterator[str]:
        """The serialized trace in blocks of ``BLOCK_LINES`` lines, each line
        ending in a newline. One summary per distinct payload and one time
        string per distinct time object: a broadcast's n sends and n
        deliveries share one payload, and the events of one instant share
        one time. The events keep both alive while the memos are in use."""
        summaries: dict[int, str] = {}
        times: dict[int, str] = {}
        events = self.events
        for start in range(0, len(events), BLOCK_LINES):
            lines = [ev.line(summaries, times)
                     for ev in events[start:start + BLOCK_LINES]]
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
