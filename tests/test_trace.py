"""The streamed trace: ``serialize()``, ``write(fp)`` and ``sha256()`` give
the same bytes, render each time and payload once, and writing holds one
block of text at a time. The engine logs one entry per send call, one seq
per delivery and one time per instant; ``trace.events`` builds the
per-line events when read."""

import functools
import hashlib
import io
import os
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import pytest

from squadsim import adversary, run_scenario, worst_case
from squadsim.consensus import PROTOCOLS
from squadsim.engine import MaxDelayPolicy
from squadsim.trace import BLOCK_LINES, SendCall, Trace, TraceEvent
from tests.log_builder import LogBuilder

BUILDERS = {**adversary.BUILDERS,
            "custom-file": functools.partial(adversary.custom_file, {})}


def outputs(trace: Trace) -> tuple[str, str, str]:
    fp = io.StringIO()
    trace.write(fp)
    return trace.serialize(), fp.getvalue(), trace.sha256()


def assert_agree(trace: Trace, text: str) -> None:
    serialized, written, digest = outputs(trace)
    assert serialized == written == text
    assert digest == hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_three_outputs_agree_on_every_builder(builder, protocol):
    trace = run_scenario(BUILDERS[builder](4, 0, protocol)).trace
    assert_agree(trace, "".join(ev.line() + "\n" for ev in trace.events))


class CountingTime(Fraction):
    renders = 0

    def __str__(self):
        CountingTime.renders += 1
        return super().__str__()


@dataclass(frozen=True)
class Note:
    text: str
    renders: list

    def summary(self):
        self.renders.append(self.text)
        return f"NOTE({self.text})"


def test_three_outputs_agree_on_a_hand_built_trace():
    CountingTime.renders = 0
    first, equal = CountingTime(5, 2), CountingTime(10, 4)   # distinct, equal
    assert first == equal and first is not equal
    renders = []
    note = Note("x", renders)
    b = LogBuilder()
    b.event(first, 1, "advance", "v=1", 1)
    b.send(first, 1, note, words=2, receivers=(2, 3), seq=7)
    b.deliver(Fraction(5, 2), 7)   # an instant is a plain Fraction
    b.event(equal, 2, "timer", "view_timer:gen3")
    b.event(Fraction(3), 3, "decide", "value=7", 7)
    text = ("5/2|1|advance|v=1|0\n"
            "5/2|1|send|NOTE(x)->P2#7|2\n"
            "5/2|1|send|NOTE(x)->P3#8|2\n"
            "5/2|2|deliver|NOTE(x)<-P1#7|0\n"
            "5/2|2|timer|view_timer:gen3|0\n"
            "3|3|decide|value=7|0\n")
    assert_agree(b.trace, text)
    # three streams, each rendering one string per time object and payload
    assert CountingTime.renders == 3 * 2 and renders == ["x"] * 3
    assert "".join(ev.line() + "\n" for ev in b.trace.events) == text


def test_blocks_split_the_text_at_block_lines():
    trace = Trace(log=[TraceEvent(Fraction(i), 1, "advance", f"v={i}", 0, i)
                       for i in range(2 * BLOCK_LINES + 1)])
    blocks = list(trace.blocks())
    assert [block.count("\n") for block in blocks] == [BLOCK_LINES, BLOCK_LINES, 1]
    assert_agree(trace, "".join(f"{i}|1|advance|v={i}|0\n"
                                for i in range(2 * BLOCK_LINES + 1)))


def test_empty_trace_serializes_to_nothing():
    assert list(Trace().blocks()) == []
    assert_agree(Trace(), "")


def traced_peak(call) -> int:
    """Bytes allocated at the peak of ``call()`` beyond what was live before."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    call()
    return tracemalloc.get_traced_memory()[1] - base


def test_writing_holds_one_block_and_serialize_one_copy():
    trace = run_scenario(worst_case(13, 0, "squad")).trace
    length = len(trace.serialize())
    tracemalloc.start()
    try:
        serialize_peak = traced_peak(trace.serialize)
        with open(os.devnull, "w", encoding="utf-8", newline="\n") as fp:
            write_peak = traced_peak(lambda: trace.write(fp))
    finally:
        tracemalloc.stop()
    # the blocks plus the joined text; no per-line list of the whole trace
    assert serialize_peak <= 2.2 * length, (serialize_peak, length)
    assert write_peak < serialize_peak / 2, (write_peak, serialize_peak)


def test_log_keeps_one_entry_per_send_call_and_events_are_built_when_read(monkeypatch):
    asked = []   # receivers per delay-policy call
    original = MaxDelayPolicy.deliver_at

    def counting(self, now, payload, receivers, sim):
        asked.append(list(receivers))
        return original(self, now, payload, receivers, sim)

    monkeypatch.setattr(MaxDelayPolicy, "deliver_at", counting)
    trace = run_scenario(worst_case(13, 0, "alltoall")).trace
    monkeypatch.undo()
    # four kinds of entry: send calls, delivered seqs, instants, and events
    # for everything but messages; no tuple and no per-copy event
    assert {type(entry) for entry in trace.log} == {SendCall, int, Fraction, TraceEvent}
    assert not [entry for entry in trace.log if isinstance(entry, TraceEvent)
                and entry.kind in ("send", "byz", "deliver")]
    calls = [entry for entry in trace.log if type(entry) is SendCall]
    assert asked == [list(call.receivers) for call in calls] and calls
    events = trace.events
    listed = list(events)
    # one int per deliver line, in line order, each a seq its call sent
    delivered = [entry for entry in trace.log if type(entry) is int]
    assert delivered == [ev.seq for ev in listed if ev.kind == "deliver"]
    assert len(delivered) == trace.serialize().count("|deliver|")
    sent = {seq for call in calls
            for seq in range(call.seq, call.seq + len(call.receivers))}
    assert set(delivered) <= sent
    assert len(events) == len(listed) == trace.serialize().count("\n")
