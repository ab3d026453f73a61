"""Hand-built traces in the engine's log form.

A ``LogBuilder`` appends to a trace what the engine would log: a send call
as one ``SendCall``, a delivery as its seq after the instant it happens at,
and every other event as its ``TraceEvent``. Tests build their traces with
it, so the metrics read them exactly as they read a run's. ``copy_event``
goes the other way, from a send call to the send event of one copy.
"""

from fractions import Fraction
from typing import Optional, Sequence

from squadsim.trace import SendCall, Trace, TraceEvent


def _time(time) -> Fraction:
    """``time`` itself if it is a ``Fraction``, else the equal one."""
    return time if isinstance(time, Fraction) else Fraction(time)


def copy_event(call: SendCall, i: int) -> TraceEvent:
    """The send event of copy ``i`` of ``call``."""
    return TraceEvent(call.time, call.process, call.kind, None, call.words,
                      call.payload, call.process, call.receivers[i], call.seq + i)


class LogBuilder:
    """Appends engine log entries to ``trace`` (a new one by default). Send
    calls take the next free seqs unless given one."""

    def __init__(self, trace: Optional[Trace] = None):
        self.trace = Trace() if trace is None else trace
        calls = [entry for entry in self.trace.log if type(entry) is SendCall]
        self.next_seq = max((call.seq + len(call.receivers) for call in calls),
                            default=1)
        self._instant = None   # the last instant logged
        self._last = None      # the time of the last entry appended

    def send(self, time, sender: int, payload="m", *, words: int = 1,
             receivers: Sequence[int] = (2,), kind: str = "send",
             seq: Optional[int] = None) -> None:
        """One send call: a copy of ``payload`` to each receiver."""
        seq = self.next_seq if seq is None else seq
        call = SendCall(_time(time), sender, kind, words, payload, seq, receivers)
        self.next_seq = max(self.next_seq, seq + len(receivers))
        self.trace.append(call)
        self._last = call.time

    def deliver(self, time, seq: int) -> None:
        """The delivery of ``seq`` at ``time``: the instant, if the log has
        moved off it since it was logged, then the seq."""
        if type(time) is not Fraction:   # an instant is no subclass: the
            time = Fraction(time)         # log tells entries apart by type
        if time != self._instant or time != self._last:
            self.trace.append(time)
            self._instant = time
        self.trace.append(seq)
        self._last = time

    def event(self, time, pid: int, kind: str, detail: str, payload=None) -> None:
        """A timer, advance, epoch entry or decision."""
        event = TraceEvent(_time(time), pid, kind, detail, 0, payload)
        self.trace.append(event)
        self._last = event.time
