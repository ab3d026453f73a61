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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional


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

    def line(self, summaries: Optional[dict[int, str]] = None) -> str:
        """The serialized event. ``summaries`` memoizes payload summaries
        by ``id(payload)``; it is only valid while those payloads live."""
        detail = self.detail
        if detail is None:
            memo = {} if summaries is None else summaries
            text = memo.get(id(self.payload))
            if text is None:
                text = memo[id(self.payload)] = _summary(self.payload)
            if self.kind == "deliver":
                detail = f"{text}<-P{self.sender}#{self.seq}"
            else:
                detail = f"{text}->P{self.receiver}#{self.seq}"
        return f"{self.time}|{self.process}|{self.kind}|{detail}|{self.words}"


@dataclass
class Trace:
    events: list[TraceEvent] = field(default_factory=list)
    horizon_hit: bool = False
    # metrics.TraceIndex over ``events``, built and refreshed by metrics.index_of
    index: Any = field(default=None, compare=False, repr=False)

    def append(self, ev: TraceEvent) -> None:
        self.events.append(ev)

    def serialize(self) -> str:
        # one summary per distinct payload: a broadcast's n sends and n
        # deliveries share one payload object, which the events keep alive
        summaries: dict[int, str] = {}
        return "\n".join(ev.line(summaries) for ev in self.events) + "\n"
