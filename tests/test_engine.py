"""Event loop ordering, timer generations, delivery legality, determinism."""

import gc
import heapq
import itertools
import weakref
from dataclasses import dataclass
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from squadsim.adversary import ScheduledReleasePolicy
from squadsim.consensus import PROTOCOLS
from squadsim.engine import (AdversaryViolation, MaxDelayPolicy, ProtocolError,
                             Simulation)
from squadsim.timebase import ClockModel
from squadsim.trace import SendCall, TraceEvent
from tests.exact_times import exact_cases


@dataclass(frozen=True)
class Ping:
    tag: str

    def summary(self):
        return f"PING({self.tag})"


class Recorder:
    """Node that logs everything the engine feeds it."""

    def __init__(self):
        self.events = []

    def on_start(self, ctx):
        self.events.append(("start", ctx.now))

    def on_deliver(self, ctx, sender, payload):
        self.events.append(("deliver", ctx.now, sender, payload))

    def on_timer(self, ctx, kind):
        self.events.append(("timer", ctx.now, kind))


def make_sim(policy=None, gst=Fraction(10), clocks=None, byz=frozenset()):
    sim = Simulation(4, 1, gst, Fraction(1), policy or MaxDelayPolicy(),
                     seed=0, byzantine=byz, clocks=clocks)
    nodes = {}
    for p in range(1, 5):
        nodes[p] = Recorder()
        sim.add_node(p, nodes[p], Fraction(0))
    return sim, nodes


def drain(sim, horizon=Fraction(1000)):
    # no Recorder decides, so only the horizon ends the run
    return sim.run(horizon)


def queued_deliveries(sim):
    """(send event, delivery time) per queued copy. The event is built from
    the send call's log entry and the copy's seq, both in the queue entry;
    the time is the object the copy's bucket holds in the time heap: the
    one its deliver event will carry."""
    at = {(t.numerator, t.denominator): t for _, t in sim._times}
    return [(entry[4].copy_event(entry[2] - entry[4].seq), at[key])
            for key, bucket in sim._buckets.items()
            for entry in bucket if entry[3] == "deliver"]


def test_pop_order_is_nondecreasing_and_documented():
    sim, nodes = make_sim()
    drain(sim, horizon=Fraction(15))   # consume start events
    ctx = sim.context(1)
    # same instant: a timer and a delivery; delivery must be handled first
    sim.now = Fraction(20)
    ctx.measure("view_timer", Fraction(1))
    ctx.send(1, Ping("x"))  # post-GST, exact delta=1 delay -> arrives at 21
    trace = drain(sim)
    times = [ev.time for ev in trace.events]
    assert times == sorted(times)
    kinds = [e[0] for e in nodes[1].events if e[1] == Fraction(21)]
    assert kinds == ["deliver", "timer"]


def test_timer_generation_cancel():
    sim, nodes = make_sim()
    ctx = sim.context(2)
    ctx.measure("view_timer", Fraction(5))
    ctx.cancel("view_timer")
    drain(sim)
    assert all(e[0] != "timer" for e in nodes[2].events)


def test_cancel_idempotent_and_remeasure_replaces():
    sim, nodes = make_sim()
    ctx = sim.context(2)
    ctx.cancel("view_timer")
    ctx.cancel("view_timer")
    ctx.measure("view_timer", Fraction(10))
    ctx.measure("view_timer", Fraction(3))   # replaces the pending expiry
    drain(sim)
    fired = [e for e in nodes[2].events if e[0] == "timer"]
    assert fired == [("timer", Fraction(3), "view_timer")]


def test_cancel_then_measure_fires_once():
    sim, nodes = make_sim()
    ctx = sim.context(3)
    ctx.measure("dissemination_timer", Fraction(7))
    ctx.cancel("dissemination_timer")
    ctx.measure("dissemination_timer", Fraction(1))
    drain(sim)
    fired = [e for e in nodes[3].events if e[0] == "timer"]
    assert fired == [("timer", Fraction(1), "dissemination_timer")]


class Rearmer:
    """Node whose every timer callback takes the next action from a shared
    script and applies it to its own process."""

    def __init__(self, script):
        self.script = script

    def on_start(self, ctx): ...
    def on_deliver(self, ctx, sender, payload): ...

    def on_timer(self, ctx, kind):
        if self.script:
            op, kind2, *duration = self.script.pop(0)
            getattr(ctx, op)(kind2, *duration)


def fire_reference(ops, script):
    """Timers as plain armed expiries: (time, pid, detail) per firing.
    Among due timers the least (expiry, pid, measure order) fires first,
    as in the engine's (time, rank, pid, seq) queue order."""
    script = list(script)
    armed: dict = {}                     # (pid, kind) -> (expiry, order)
    generation = {}
    fired, now, order = [], Fraction(0), itertools.count()

    def act(op, pid, kind, duration=None):
        generation[pid, kind] = generation.get((pid, kind), 0) + 1
        armed.pop((pid, kind), None)
        if op == "measure":
            armed[pid, kind] = (now + duration, next(order))

    def advance(to):
        nonlocal now
        while armed:
            (pid, kind), (t, _) = min(armed.items(),
                                      key=lambda it: (it[1][0], it[0][0], it[1][1]))
            if t > to:
                break
            now = t
            del armed[pid, kind]
            fired.append((t, pid, f"{kind}:gen{generation[pid, kind]}"))
            if script:
                op, kind2, *duration = script.pop(0)
                act(op, pid, kind2, *duration)
        now = to

    for op, *args in ops:
        if op == "advance":
            advance(now + args[0])
        else:
            act(op, *args)
    advance(now + 100)
    return fired


_durations = st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)])
_kinds = st.sampled_from(["view_timer", "dissemination_timer"])
_timer_op = st.one_of(
    st.tuples(st.just("measure"), st.sampled_from([1, 2]), _kinds, _durations),
    st.tuples(st.just("cancel"), st.sampled_from([1, 2]), _kinds),
    st.tuples(st.just("advance"), _durations))
_callback_op = st.one_of(st.tuples(st.just("measure"), _kinds, _durations),
                         st.tuples(st.just("cancel"), _kinds))


@settings(max_examples=150, deadline=None)
@given(st.lists(_timer_op, max_size=25), st.lists(_callback_op, max_size=6))
def test_timers_fire_as_a_reference_model_of_armed_expiries(ops, script):
    sim = Simulation(4, 1, Fraction(0), Fraction(1), MaxDelayPolicy())
    shared = list(script)
    for p in range(1, 5):
        sim.add_node(p, Rearmer(shared), Fraction(0))
    drain(sim, horizon=Fraction(0))
    for op, *args in ops:
        if op == "advance":
            to = sim.now + args[0]
            drain(sim, horizon=to)
            sim.now = to
        else:
            pid, *rest = args
            getattr(sim.context(pid), op)(*rest)
    trace = drain(sim, horizon=sim.now + 100)
    fired = [(ev.time, ev.process, ev.detail) for ev in trace.events if ev.kind == "timer"]
    assert fired == fire_reference(ops, script)


def test_timer_integrates_local_clock():
    clocks = {p: ClockModel.drift_until(p, Fraction(1, 2), Fraction(100))
              for p in range(1, 5)}
    sim, nodes = make_sim(gst=Fraction(100), clocks=clocks)
    sim.context(1).measure("view_timer", Fraction(10))
    drain(sim)
    fired = [e for e in nodes[1].events if e[0] == "timer"]
    assert fired[0][1] == Fraction(20)


def test_post_gst_delay_bound_enforced():
    class BadPolicy:
        def deliver_at(self, now, payload, receivers, sim):
            return [now + 2 * sim.delta for _ in receivers]

    sim, _ = make_sim(policy=BadPolicy())
    drain(sim, horizon=Fraction(15))
    sim.now = Fraction(50)
    with pytest.raises(AdversaryViolation):
        sim.context(1).send(2, Ping("late"))


def test_pre_gst_delay_only_needs_finiteness():
    class SlowPolicy:
        def deliver_at(self, now, payload, receivers, sim):
            return [sim.gst + sim.delta] * len(receivers)  # legal for pre-GST sends

    sim, nodes = make_sim(policy=SlowPolicy())
    sim.context(1).send(2, Ping("held"))
    drain(sim)
    deliveries = [e for e in nodes[2].events if e[0] == "deliver"]
    assert deliveries[0][1] == Fraction(11)


class ScriptedPolicy:
    """Returns the planned delivery times in order, one per copy."""

    def __init__(self, *times):
        self.times = list(times)

    def deliver_at(self, now, payload, receivers, sim):
        return [self.times.pop(0) for _ in receivers]


def test_illegal_send_after_a_legal_one_in_the_same_instant_raises():
    sim, _ = make_sim(policy=ScriptedPolicy(Fraction(51), Fraction(52)))
    drain(sim, horizon=Fraction(15))
    sim.now = Fraction(50)
    sim.context(1).send(2, Ping("ok"))
    with pytest.raises(AdversaryViolation, match="outside"):
        sim.context(1).send(3, Ping("late"))


def test_same_illegal_delivery_time_raises_every_time():
    sim, _ = make_sim(policy=ScriptedPolicy(Fraction(52), Fraction(52)))
    drain(sim, horizon=Fraction(15))
    sim.now = Fraction(50)
    for receiver in (2, 3):
        with pytest.raises(AdversaryViolation):
            sim.context(1).send(receiver, Ping("late"))


def test_delivery_legal_at_one_instant_is_checked_again_at_the_next():
    # 52 is legal for a pre-GST send at 5, but 2 past delta at 50
    sim, _ = make_sim(policy=ScriptedPolicy(Fraction(52), Fraction(52)))
    sim.now = Fraction(5)
    sim.context(1).send(2, Ping("held"))
    sim.now = Fraction(50)
    with pytest.raises(AdversaryViolation):
        sim.context(1).send(2, Ping("late"))


def test_int_delivery_time_becomes_a_fraction_and_is_validated():
    sim, nodes = make_sim(policy=ScriptedPolicy(21, 23))
    drain(sim, horizon=Fraction(15))
    sim.now = Fraction(20)
    sim.context(1).send(2, Ping("int"))
    with pytest.raises(AdversaryViolation):
        sim.context(1).send(3, Ping("int-late"))
    trace = drain(sim)
    deliver = next(ev for ev in trace.events if ev.kind == "deliver")
    assert deliver.time == 21 and type(deliver.time) is Fraction
    assert [e[1] for e in nodes[2].events if e[0] == "deliver"] == [Fraction(21)]


def test_policy_reads_values_of_the_current_instant_after_reassignment():
    # a held Ping sent before GST waits for the release at 12; once now is
    # reassigned past GST the policy must see post_gst and 50 + delta, not
    # the values left over from the send at 5
    policy = ScheduledReleasePolicy({2: Fraction(12)}, (Ping,))
    sim, _ = make_sim(policy=policy)
    sim.now = Fraction(5)
    sim.context(1).send(2, Ping("held"))
    sim.now = Fraction(50)
    sim.context(1).send(2, Ping("after"))
    queued = {ev.payload.tag: at for ev, at in queued_deliveries(sim)}
    assert queued == {"held": Fraction(12), "after": Fraction(51)}


def test_broadcast_copies_share_one_delivery_time_object():
    sim, _ = make_sim(policy=ScheduledReleasePolicy({}, ()))
    drain(sim, horizon=Fraction(15))
    sim.now = Fraction(20)
    sim.context(1).broadcast(Ping("all"))
    first = sim.latest_delivery
    sim.now = Fraction(30)
    sim.context(1).broadcast(Ping("next"))
    times = [at for _, at in queued_deliveries(sim)]
    assert sorted(times) == [Fraction(21)] * 4 + [Fraction(31)] * 4
    assert len({id(t) for t in times}) == 2
    assert {id(t) for t in times} == {id(first), id(sim.latest_delivery)}
    # the deliver events carry the shared objects the report's memos key on
    sim.now = Fraction(20)   # back before the first delivery, so it can pop
    delivered = [ev.time for ev in drain(sim).events if ev.kind == "deliver"]
    assert len(delivered) == 8 and len({id(t) for t in delivered}) == 2


class RecordingPolicy:
    """Exact delta delays; records each send call it is asked about, with
    the per-instant values it reads at that call."""

    def __init__(self):
        self.seen = []

    def deliver_at(self, now, payload, receivers, sim):
        self.seen.append((now, payload, list(receivers), sim.post_gst,
                          sim.latest_delivery))
        return [sim.latest_delivery] * len(receivers)


def test_broadcast_copies_are_distinct_send_events_in_receiver_order():
    policy = RecordingPolicy()
    sim, _ = make_sim(policy=policy)
    drain(sim, horizon=Fraction(15))
    sim.now = Fraction(20)
    seq0 = sim._seq
    sim.context(2).broadcast(Ping("all"))
    sends = [ev for ev in sim.trace.events if ev.kind == "send"]
    assert [(ev.receiver, ev.seq) for ev in sends] == [(r, seq0 + r) for r in range(1, 5)]
    assert len({id(ev) for ev in sends}) == 4
    assert {(ev.time, ev.process, ev.sender, ev.words, ev.payload)
            for ev in sends} == {(Fraction(20), 2, 2, 1, Ping("all"))}
    # one policy call per send call, about every receiver in receiver order
    assert [(now, payload, receivers) for now, payload, receivers, _, _ in policy.seen] \
        == [(Fraction(20), Ping("all"), [ev.receiver for ev in sends])]
    assert sorted((ev.receiver, ev.seq) for ev, _ in queued_deliveries(sim)) == \
        [(ev.receiver, ev.seq) for ev in sends]
    # the queued copies and the trace share the call's one log entry
    calls = {id(entry[4]) for bucket in sim._buckets.values() for entry in bucket
             if entry[3] == "deliver"}
    assert len(calls) == 1 and calls <= {id(entry) for entry in sim.trace.log}
    delivers = [ev for ev in drain(sim).events if ev.kind == "deliver"]
    assert sorted((ev.process, ev.sender, ev.receiver, ev.seq) for ev in delivers) == \
        [(ev.receiver, 2, ev.receiver, ev.seq) for ev in sends]


def test_scheduled_release_sees_each_broadcast_copy_receiver():
    policy = ScheduledReleasePolicy({2: Fraction(12), 3: Fraction(14)}, (Ping,))
    sim, _ = make_sim(policy=policy)
    sim.now = Fraction(5)
    sim.context(1).broadcast(Ping("held"))
    assert {ev.receiver: at for ev, at in queued_deliveries(sim)} == \
        {1: Fraction(6), 2: Fraction(12), 3: Fraction(14), 4: Fraction(6)}


def test_each_broadcast_reads_the_instant_it_is_made_at():
    policy = RecordingPolicy()
    sim, _ = make_sim(policy=policy)
    sim.now = Fraction(5)
    sim.context(1).broadcast(Ping("before"))
    sim.now = Fraction(50)
    sim.context(1).broadcast(Ping("after"))
    sim.now = Fraction(5)   # an equal time, but a new object: a new instant
    sim.context(1).broadcast(Ping("again"))
    assert [(post_gst, latest) for *_, post_gst, latest in policy.seen] == \
        [(False, Fraction(6)), (True, Fraction(51)), (False, Fraction(6))]


@pytest.mark.parametrize("k", [1, 3, 4])
def test_violation_at_copy_k_keeps_only_the_copies_before_it(k):
    times = [Fraction(51)] * (k - 1) + [Fraction(52)] + [Fraction(51)] * (4 - k)
    sim, _ = make_sim(policy=ScriptedPolicy(*times))
    drain(sim, horizon=Fraction(15))
    sim.now = Fraction(50)
    before, seq0 = len(sim.trace.events), sim._seq
    with pytest.raises(AdversaryViolation, match="outside"):
        sim.context(1).broadcast(Ping("cut"))
    logged = list(sim.trace.events)[before:]
    assert [(ev.kind, ev.receiver) for ev in logged] == [("send", r) for r in range(1, k)]
    assert sorted(ev.receiver for ev, _ in queued_deliveries(sim)) == list(range(1, k))
    assert sim._seq == seq0 + k   # the failing copy's seq is spent


def test_policy_giving_the_wrong_number_of_times_is_refused():
    class OneTimePolicy:
        def deliver_at(self, now, payload, receivers, sim):
            return [now + sim.delta]

    # one time for a four-copy broadcast: no copy may go missing unnoticed
    sim, _ = make_sim(policy=OneTimePolicy())
    drain(sim, horizon=Fraction(15))
    sim.now = Fraction(50)
    before, seq0 = len(sim.trace.log), sim._seq
    with pytest.raises(AdversaryViolation, match="1 delivery times for 4 receivers"):
        sim.context(1).broadcast(Ping("short"))
    assert sim._seq == seq0 and len(sim.trace.log) == before
    assert not sim._buckets


def test_rejected_send_consumes_no_seq_and_logs_nothing():
    sim, _ = make_sim()
    drain(sim, horizon=Fraction(15))
    sim.now = Fraction(20)
    before, seq0 = len(sim.trace.events), sim._seq
    for call in (lambda ctx: ctx.send(5, Ping("nobody")),
                 lambda ctx: ctx.send(0, Ping("nobody"))):
        with pytest.raises(ValueError):
            call(sim.context(1))
    assert sim._seq == seq0 and len(sim.trace.events) == before
    assert not sim._buckets


class Faulty:
    """Sends itself a ping and measures a timer at start, then raises in the
    hook named ``fail_in``."""

    def __init__(self, fail_in):
        self.fail_in = fail_in

    def on_start(self, ctx):
        ctx.send(ctx.pid, Ping("self"))
        ctx.measure("view_timer", Fraction(5))
        self.hook(ctx, "start")

    def on_deliver(self, ctx, sender, payload):
        self.hook(ctx, "deliver")

    def on_timer(self, ctx, kind):
        self.hook(ctx, "timer")

    def hook(self, ctx, name):
        if name == self.fail_in:
            raise RuntimeError(f"boom in {name}")


def faulty_sim(node, policy=None):
    sim = Simulation(4, 1, Fraction(0), Fraction(1), policy or MaxDelayPolicy())
    for p in (1, 2, 4):
        sim.add_node(p, Recorder(), Fraction(0))
    sim.add_node(3, node, Fraction(2))
    return sim


@pytest.mark.parametrize("fail_in, event, at", [
    ("start", "its start", 2),
    ("deliver", "the delivery of #5 from P3", 3),
    ("timer", "the timer view_timer:gen1", 7),
])
def test_handler_exception_is_a_protocol_error(fail_in, event, at):
    with pytest.raises(ProtocolError) as info:
        faulty_sim(Faulty(fail_in)).run(Fraction(100))
    assert str(info.value) == (f"P3 raised RuntimeError: boom in {fail_in} "
                               f"while handling {event} at t={at}")
    assert type(info.value.__cause__) is RuntimeError


def test_adversary_violation_in_a_handler_is_not_wrapped():
    # the start handler's send to itself arrives 48 after it, past delta
    sim = faulty_sim(Faulty(None), FixedDelivery(Fraction(50)))
    with pytest.raises(AdversaryViolation, match="outside"):
        sim.run(Fraction(100))


def test_finished_run_is_not_kept_alive_by_its_config():
    from squadsim import run_scenario, worst_case
    cfg = worst_case(4, 0, "squad")
    result = run_scenario(cfg)
    sim = weakref.ref(result.simulation)
    del result
    gc.collect()
    assert sim() is None
    assert cfg.policy.releases   # the config itself is still in use


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_a_finished_run_makes_no_reference_cycle(protocol):
    # no layer of a node holds the node itself, so reference counting alone
    # frees a finished run, its nodes and the crypto ledger's signatures:
    # the cycle collector finds nothing left of it
    from squadsim import run_scenario, worst_case
    cfg = worst_case(7, 0, protocol)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = run_scenario(cfg)
        sim = weakref.ref(result.simulation)
        del result
        assert sim() is None
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_self_send_has_normal_bounds():
    sim, nodes = make_sim()
    drain(sim, horizon=Fraction(15))
    sim.now = Fraction(30)
    sim.context(2).send(2, Ping("self"))
    drain(sim)
    deliveries = [e for e in nodes[2].events if e[0] == "deliver"]
    assert deliveries[0][1] == Fraction(31) and deliveries[0][2] == 2


def test_byzantine_sends_logged_as_byz():
    sim, _ = make_sim(byz=frozenset({4}))
    sim.context(4).send(1, Ping("evil"))
    sim.context(1).send(2, Ping("fine"))
    kinds = {(ev.process, ev.kind) for ev in sim.trace.events
             if ev.kind in ("send", "byz")}
    assert (4, "byz") in kinds and (1, "send") in kinds


def test_drained_queue_ends_at_the_horizon():
    sim, nodes = make_sim()
    trace = sim.run(Fraction(100))   # only the four start events are queued
    assert sim.now == Fraction(100) and trace.horizon_hit
    assert all(node.events == [("start", 0)] for node in nodes.values())


def test_deterministic_traces_for_same_seed():
    def run_once():
        sim, _ = make_sim()
        ctx = sim.context(1)
        for p in range(1, 5):
            ctx.send(p, Ping(f"to{p}"))
        sim.context(2).measure("view_timer", Fraction(4))
        return drain(sim).serialize()

    assert run_once() == run_once()


def test_empty_protocol_trace_has_no_protocol_events():
    sim, _ = make_sim()
    trace = sim.run(Fraction(100))
    assert [ev for ev in trace.events if ev.kind in ("send", "deliver")] == []


def test_trace_line_format_is_fixed():
    sim, _ = make_sim()
    drain(sim, horizon=Fraction(15))
    sim.now = Fraction(20)
    sim.context(1).send(2, Ping("fmt"))
    trace = drain(sim)
    send = next(ev for ev in trace.events if ev.kind == "send")
    assert send.line() == f"20|1|send|PING(fmt)->P2#{send.seq}|1"
    deliver = next(ev for ev in trace.events if ev.kind == "deliver")
    assert deliver.line() == f"21|2|deliver|PING(fmt)<-P1#{send.seq}|0"
    # field order is time|process|kind|detail|words, pipe-separated
    assert send.line().split("|")[:3] == ["20", "1", "send"]


def test_happy_squad_trace_ends_with_unanimous_decides():
    from squadsim import happy, run_scenario
    res = run_scenario(happy(4, 0, "squad"))
    decides = [ev for ev in res.trace.events if ev.kind == "decide"]
    assert len(decides) >= 3
    assert len({ev.payload for ev in decides}) == 1


# -- bucketed event queue against a reference heap ----------------------------

# exact ties are common (small numerators), and denominators mix the ones
# drifting clocks produce; the sampled times are distinct but round to the
# same float, so only the exact compare can order them in the time heap
_times = st.one_of(
    st.builds(lambda a, d, b, e: Fraction(a, d) + Fraction(b, e),
              st.integers(0, 6), st.sampled_from([1, 2, 3]),
              st.integers(0, 2), st.sampled_from([1, 7, 1600])),
    st.sampled_from([Fraction(1), Fraction(2**53 + 1, 2**53),
                     Fraction(2**54 - 1, 2**54)]))
_entry = st.tuples(st.integers(0, 1), st.integers(1, 4))          # rank, pid
_delays = st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 3), Fraction(1)])


class QueueProbe:
    """Node that records each popped label and, while the queue drains,
    makes the pushes planned for that label (a zero delay pushes at the
    current time)."""

    def __init__(self, push, plan, popped):
        self.push, self.plan, self.popped = push, plan, popped

    def on_start(self, ctx):
        pass

    def on_deliver(self, ctx, sender, label):
        self.popped.append((ctx.now, label))
        for delay, (rank, pid) in self.plan[label] if label < len(self.plan) else ():
            self.push(ctx.now + delay, rank, pid)


def reference_pop_order(initial, plan):
    heap, popped, labels = [], [], itertools.count()
    for time, (rank, pid) in initial:
        heapq.heappush(heap, (time, rank, pid, next(labels)))
    while heap:
        time, _, _, label = heapq.heappop(heap)
        popped.append((time, label))
        for delay, (rank, pid) in plan[label] if label < len(plan) else ():
            heapq.heappush(heap, (time + delay, rank, pid, next(labels)))
    return popped


@given(st.lists(st.tuples(_times, _entry), min_size=1, max_size=40),
       st.lists(st.lists(st.tuples(_delays, _entry), max_size=3), max_size=30))
@settings(max_examples=150, deadline=None)
def test_bucketed_queue_pops_in_reference_heap_order(initial, plan):
    sim = Simulation(4, 1, Fraction(10), Fraction(1), MaxDelayPolicy())
    popped, labels = [], itertools.count()

    def push(time, rank, pid):
        label = next(labels)
        # the send call the engine would queue with the copy
        sim._push(time, rank, pid, "deliver",
                  SendCall(time, 1, "send", 1, label, label, (pid,)))

    probe = QueueProbe(push, plan, popped)
    for pid in range(1, 5):
        sim.nodes[pid] = probe
    for time, (rank, pid) in initial:
        push(time, rank, pid)
    sim.run(Fraction(100))
    assert popped == reference_pop_order(initial, plan)
    assert not sim._times and not sim._buckets



class PlannedDelivery:
    """Delay policy that hands out preset delivery times, one per copy."""

    def __init__(self):
        self.times = iter(())

    def deliver_at(self, now, payload, receivers, sim):
        return [next(self.times) for _ in receivers]


def planned_copies(now, action):
    """(receiver, delivery time) per copy of one send call. ``pool`` holds
    the call's distinct time objects (equal delays still give distinct
    objects); each copy picks one, so copies that pick the same index share
    one object, as a broadcast under a max-delay policy does."""
    target, delays, picks = action
    pool = [now + d for d in delays]
    receivers = range(1, 5) if target is None else (target,)
    return [(r, pool[pick % len(pool)]) for r, pick in zip(receivers, picks)]


class BroadcastProbe:
    """Node that records each popped copy as (time, receiver, label) and,
    for the k-th pop, makes the send calls planned for k through its
    context: a broadcast (target None) or one send."""

    def __init__(self, policy, plan, popped, labels):
        self.policy, self.plan, self.popped, self.labels = policy, plan, popped, labels

    def act(self, ctx, action):
        label = next(self.labels)
        copies = planned_copies(ctx.now, action)
        self.policy.times = iter([t for _, t in copies])
        if action[0] is None:
            ctx.broadcast(label)
        else:
            ctx.send(action[0], label)

    def on_start(self, ctx):
        pass

    def on_deliver(self, ctx, sender, label):
        k = len(self.popped)
        self.popped.append((ctx.now, ctx.pid, label))
        for action in self.plan[k] if k < len(self.plan) else ():
            self.act(ctx, action)


def reference_broadcast_order(initial, plan):
    heap, popped, labels, seqs = [], [], itertools.count(), itertools.count()

    def act(now, action):
        label = next(labels)
        for receiver, t in planned_copies(now, action):
            heapq.heappush(heap, (t, 0, receiver, next(seqs), label))

    for now, _, action in initial:
        act(now, action)
    while heap:
        time, _, pid, _, label = heapq.heappop(heap)
        k = len(popped)
        popped.append((time, pid, label))
        for action in plan[k] if k < len(plan) else ():
            act(time, action)
    return popped


_action = st.tuples(st.one_of(st.none(), st.integers(1, 4)),          # target
                    st.lists(_delays, min_size=1, max_size=2),        # pool
                    st.lists(st.integers(0, 1), min_size=4, max_size=4))


@given(st.lists(st.tuples(_times, st.integers(1, 4), _action), min_size=1, max_size=6),
       st.lists(st.lists(_action, max_size=2), max_size=40))
@settings(max_examples=150, deadline=None)
def test_broadcast_copies_pop_in_reference_heap_order(initial, plan):
    # GST beyond every time, so a zero delay is legal: such copies land in
    # the bucket being drained, the others in buckets not yet drained
    policy, popped, labels = PlannedDelivery(), [], itertools.count()
    sim = Simulation(4, 1, Fraction(1000), Fraction(1), policy)
    probe = BroadcastProbe(policy, plan, popped, labels)
    for pid in range(1, 5):
        sim.nodes[pid] = probe
    for now, sender, action in initial:
        sim.now = now
        probe.act(sim.context(sender), action)
    sim.now = Fraction(0)
    sim.run(Fraction(100))
    assert popped == reference_broadcast_order(initial, plan)
    assert not sim._times and not sim._buckets


class StartLog:
    """Node that appends its start instant to a shared list."""

    def __init__(self, log):
        self.log = log

    def on_start(self, ctx):
        self.log.append(ctx.now)

    def on_deliver(self, ctx, sender, payload): ...
    def on_timer(self, ctx, kind): ...


def test_times_beyond_the_float_range_pop_in_exact_order():
    # each of these overflows a float: only the exact compare orders them
    big = Fraction(2) ** 1100
    starts = [big + 1, Fraction(10) ** 400, big, big + Fraction(1, 3)]
    sim = Simulation(4, 1, Fraction(0), Fraction(1), MaxDelayPolicy())
    log = []
    for pid, at in enumerate(starts, start=1):
        sim.add_node(pid, StartLog(log), at)
    sim.run(Fraction(10) ** 500)
    assert log == sorted(starts)


# -- integer decisions against plain Fraction operators ----------------------

class FixedDelivery:
    """Delay policy that returns one preset delivery time."""

    def __init__(self, at):
        self.at = at

    def deliver_at(self, now, payload, receivers, sim):
        return [self.at] * len(receivers)


@given(exact_cases())
@settings(max_examples=400, deadline=None)
def test_send_legality_agrees_with_fraction_operators(case):
    gst, delta, now, deliver = case
    sim = Simulation(4, 1, gst, delta, FixedDelivery(deliver))
    sim.now = now
    if now >= gst:
        legal = now < deliver <= now + delta
    else:
        legal = deliver >= now
    if legal:
        sim.context(1).send(2, Ping("p"))
        assert (deliver.numerator, deliver.denominator) in sim._buckets
    else:
        with pytest.raises(AdversaryViolation):
            sim.context(1).send(2, Ping("p"))


@given(exact_cases())
@settings(max_examples=400, deadline=None)
def test_horizon_and_order_checks_agree_with_fraction_operators(case):
    now, _, horizon, at = case   # now and at lie at drawn offsets from horizon
    sim = Simulation(4, 1, Fraction(0), Fraction(1), MaxDelayPolicy())
    node = Recorder()
    sim.add_node(1, node, at)
    sim.now = now
    if at > horizon:
        drain(sim, horizon=horizon)
        assert node.events == [] and sim.trace.horizon_hit
    elif at < now:
        with pytest.raises(AssertionError, match="went backwards"):
            drain(sim, horizon=horizon)
    else:
        drain(sim, horizon=horizon)
        assert node.events == [("start", at)]


def _run_checking_each_decision(monkeypatch, cfg) -> set[int]:
    """Runs cfg; after every decision, Byzantine ones included, the
    undecided counter must equal a rescan of the decisions, and no
    delivery or timer may be handled after the event whose handler made
    the last correct decision. Returns the pids that decided."""
    from squadsim import build_simulation
    sim = build_simulation(cfg)
    decide = Simulation._decide
    checked = []   # (pid, all correct decided, trace length) after each decision

    def probe(s, pid, value):
        decide(s, pid, value)
        rescan = all(p in s.decisions for p in range(1, s.n + 1) if p not in s.byzantine)
        assert s.all_correct_decided() == rescan
        checked.append((pid, rescan, len(s.trace.events)))

    # contexts reach _decide through the class
    monkeypatch.setattr(Simulation, "_decide", probe)
    trace = sim.run(cfg.horizon)
    monkeypatch.undo()
    assert sim.all_correct_decided() and not trace.horizon_hit
    last = next(end for _, done, end in checked if done)
    assert [ev.kind for ev in list(trace.events)[last:]
            if ev.kind in ("deliver", "timer")] == []
    return {pid for pid, _, _ in checked}


def test_undecided_counter_matches_rescan_when_byzantine_nodes_decide(monkeypatch):
    from squadsim import equivocate
    cfg = equivocate(7, 0, "squad")
    # the equivocating leader runs the protocol and decides too
    assert _run_checking_each_decision(monkeypatch, cfg) & cfg.byzantine


def test_run_stops_mid_instant_after_the_last_correct_decision(monkeypatch):
    # the last correct decision is made while deliveries of the same instant
    # are still queued behind it; a Byzantine process decides as well
    from squadsim import randomized
    cfg = randomized(4, 15, "raresync-quad")
    assert _run_checking_each_decision(monkeypatch, cfg) & cfg.byzantine


@dataclass(frozen=True)
class Plain:
    tag: str     # no summary(): rendered with str()


@pytest.mark.parametrize("payload, text", [(Ping("a"), "PING(a)"),
                                           (Plain("b"), "Plain(tag='b')"),
                                           (7, "7")])
def test_message_detail_is_rendered_from_the_payload(payload, text):
    t = Fraction(5, 2)
    send = TraceEvent(t, 1, "send", None, 2, payload=payload, sender=1,
                      receiver=3, seq=9)
    byz = TraceEvent(t, 4, "byz", None, 1, payload=payload, sender=4,
                     receiver=2, seq=10)
    deliver = TraceEvent(t, 3, "deliver", None, 0, payload=payload, sender=1,
                         receiver=3, seq=9)
    assert send.line() == f"5/2|1|send|{text}->P3#9|2"
    assert byz.line() == f"5/2|4|byz|{text}->P2#10|1"
    assert deliver.line() == f"5/2|3|deliver|{text}<-P1#9|0"


def test_serialize_equals_per_event_lines():
    from squadsim import happy, run_scenario
    trace = run_scenario(happy(4, 0, "squad")).trace
    assert any(ev.detail is None for ev in trace.events)
    assert trace.serialize() == "".join(ev.line() + "\n" for ev in trace.events)
