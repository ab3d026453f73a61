"""Append-only execution traces.

Every send/deliver/timer/advance/enter_epoch/decide/byz event is recorded
with its exact global time and word cost. The line format
``time|process|kind|detail|words`` is fixed; replaying a (config, seed)
pair must reproduce the serialized trace byte for byte.

Events also keep a reference to the structured payload they describe so
post-hoc checkers can inspect messages without parsing detail strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

KINDS = ("send", "deliver", "timer", "advance", "enter_epoch", "decide", "byz")


@dataclass
class TraceEvent:
    time: Fraction
    process: int
    kind: str
    detail: str
    words: int = 0
    payload: Any = None        # structured message/value, not serialized
    sender: Optional[int] = None
    receiver: Optional[int] = None
    seq: Optional[int] = None  # envelope id pairing a send with its delivery

    def line(self) -> str:
        return f"{self.time}|{self.process}|{self.kind}|{self.detail}|{self.words}"


@dataclass
class Trace:
    n: int
    f: int
    gst: Fraction
    delta: Fraction
    byzantine: frozenset[int]
    events: list[TraceEvent] = field(default_factory=list)
    decided_all: bool = False
    horizon_hit: bool = False
    # metrics.TraceIndex over ``events``, built and refreshed by metrics.index_of
    index: Any = field(default=None, compare=False, repr=False)

    def append(self, ev: TraceEvent) -> None:
        self.events.append(ev)

    def correct(self) -> list[int]:
        return [p for p in range(1, self.n + 1) if p not in self.byzantine]

    def serialize(self) -> str:
        return "\n".join(ev.line() for ev in self.events) + "\n"
