from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from squadsim.crypto import ThresholdSignature
from squadsim.raresync import (EnterEpochMsg, EpochCompletedMsg, RareSync,
                               epoch_message, leader)
from tests.conftest import FakeContext

DELTA = Fraction(1)
OVERLAP = Fraction(8)
EPS = Fraction(1, 100)
VIEW = OVERLAP + 2 * DELTA + EPS


def make_sync(crypto, pid=1, advance_log=None):
    log = advance_log if advance_log is not None else []
    return RareSync(pid, crypto.f, DELTA, VIEW,
                    advance=lambda ctx, v: log.append(v)), log


def completed(crypto, epoch, senders):
    return [(p, EpochCompletedMsg(epoch, crypto.share_sign(p, epoch_message(epoch),
                                                           "quorum")))
            for p in senders]


# -- leader function ---------------------------------------------------------

def test_leader_formula():
    assert leader(1, 4) == 2
    assert leader(4, 4) == 1      # 4 mod 4 = 0


def test_leader_periodic():
    for v in range(1, 30):
        assert leader(v, 7) == leader(v + 7, 7)


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=8))
@settings(max_examples=80)
def test_leader_window_covers_everyone(v, f):
    n = 3 * f + 1
    assert {leader(v + i, n) for i in range(n)} == set(range(1, n + 1))


# -- state machine -----------------------------------------------------------

def test_init_enters_first_view(crypto4, ctx4):
    sync, log = make_sync(crypto4)
    sync.start(ctx4)
    assert log == [1]
    assert (sync.epoch, sync.view) == (1, 1)
    assert ctx4.timers == [("measure", "view_timer", OVERLAP + 2 * DELTA + EPS)]
    assert ctx4.epochs == [1]


def test_view_timer_advances_within_epoch(crypto7):
    # f=2: from epoch 1 view 2, expiry advances to view 3 = global view 3
    ctx = FakeContext(crypto7)
    sync, log = make_sync(crypto7)
    sync.start(ctx)
    sync.on_timer(ctx, "view_timer")
    assert log == [1, 2] and sync.view == 2
    sync.on_timer(ctx, "view_timer")
    assert log == [1, 2, 3] and sync.view == 3


def test_last_view_expiry_broadcasts_completion(crypto4, ctx4):
    sync, log = make_sync(crypto4)
    sync.start(ctx4)
    sync.on_timer(ctx4, "view_timer")      # view 2 = last for f=1
    ctx4.clear()
    sync.on_timer(ctx4, "view_timer")      # completes the epoch
    msgs = ctx4.sent_payloads(EpochCompletedMsg)
    assert len(msgs) == crypto4.n
    assert all(m.epoch == 1 for m in msgs)
    assert log == [1, 2]          # no advance until the next epoch opens


def test_completion_quorum_moves_to_next_epoch(crypto4, ctx4):
    sync, log = make_sync(crypto4)
    sync.start(ctx4)
    ctx4.clear()
    for sender, msg in completed(crypto4, 2, [1, 2, 3]):
        sync.on_message(ctx4, sender, msg)
    # epoch e=2 >= epoch_i consumed: epoch becomes e+1 = 3
    assert sync.epoch == 3
    assert sync.epoch_sig is not None and sync.epoch_sig.signers == frozenset({1, 2, 3})
    assert ("cancel", "view_timer") in ctx4.timers
    assert ("cancel", "dissemination_timer") in ctx4.timers
    assert ("measure", "dissemination_timer", DELTA) in ctx4.timers


def test_below_quorum_is_ignored(crypto4, ctx4):
    sync, _ = make_sync(crypto4)
    sync.start(ctx4)
    for sender, msg in completed(crypto4, 1, [1, 2]):
        sync.on_message(ctx4, sender, msg)
    assert sync.epoch == 1


def test_stale_epoch_completions_ignored(crypto4, ctx4):
    sync, _ = make_sync(crypto4)
    sync.start(ctx4)
    sync.epoch = 3
    for sender, msg in completed(crypto4, 1, [1, 2, 3]):
        sync.on_message(ctx4, sender, msg)
    assert sync.epoch == 3


def test_duplicate_senders_do_not_reach_quorum(crypto4, ctx4):
    sync, _ = make_sync(crypto4)
    sync.start(ctx4)
    (s, m), = completed(crypto4, 1, [1])
    for _ in range(3):
        sync.on_message(ctx4, s, m)
    assert sync.epoch == 1


def test_quorum_consumed_once_per_epoch(crypto4, ctx4):
    sync, _ = make_sync(crypto4)
    sync.start(ctx4)
    for sender, msg in completed(crypto4, 1, [1, 2, 3]):
        sync.on_message(ctx4, sender, msg)
    assert sync.epoch == 2
    ctx4.clear()
    # a late fourth completion for epoch 1 must not retrigger
    for sender, msg in completed(crypto4, 1, [4]):
        sync.on_message(ctx4, sender, msg)
    assert sync.epoch == 2 and ctx4.timers == []


def test_enter_epoch_adopts_and_waits(crypto4, ctx4):
    sync, _ = make_sync(crypto4)
    sync.start(ctx4)
    tsig = crypto4.combine([crypto4.share_sign(p, epoch_message(4), "quorum")
                            for p in (1, 2, 3)])
    ctx4.clear()
    sync.on_message(ctx4, 2, EnterEpochMsg(5, tsig))
    assert sync.epoch == 5 and sync.epoch_sig is tsig
    assert ("measure", "dissemination_timer", DELTA) in ctx4.timers


def test_enter_epoch_strict_inequality(crypto4, ctx4):
    sync, _ = make_sync(crypto4)
    sync.start(ctx4)
    sync.epoch = 5
    tsig = crypto4.combine([crypto4.share_sign(p, epoch_message(4), "quorum")
                            for p in (1, 2, 3)])
    sync.on_message(ctx4, 2, EnterEpochMsg(5, tsig))
    assert sync.epoch == 5 and sync.epoch_sig is not tsig


def test_forged_enter_epoch_dropped(crypto4, ctx4):
    sync, _ = make_sync(crypto4)
    sync.start(ctx4)
    forged = ThresholdSignature("(epoch,6)", frozenset({1, 2, 3}), "quorum")
    sync.on_message(ctx4, 4, EnterEpochMsg(7, forged))
    assert sync.epoch == 1


def test_dissemination_expiry_enters_and_rebroadcasts(crypto4, ctx4):
    sync, log = make_sync(crypto4)
    sync.start(ctx4)
    for sender, msg in completed(crypto4, 1, [1, 2, 3]):
        sync.on_message(ctx4, sender, msg)
    ctx4.clear()
    sync.on_timer(ctx4, "dissemination_timer")
    msgs = ctx4.sent_payloads(EnterEpochMsg)
    assert len(msgs) == crypto4.n and all(m.epoch == 2 for m in msgs)
    # f=1: first view of epoch 2 is global view 3
    assert log[-1] == 3 and sync.view == 1
    assert ctx4.epochs == [2]
    assert ("measure", "view_timer", sync.view_duration) in ctx4.timers


def test_a_timer_kind_raresync_never_arms_is_refused(crypto4, ctx4):
    sync, log = make_sync(crypto4)
    sync.start(ctx4)
    ctx4.clear()
    with pytest.raises(ValueError, match="'baseline_timer'"):
        sync.on_timer(ctx4, "baseline_timer")
    assert (sync.epoch, sync.view) == (1, 1) and log == [1]
    assert ctx4.sends == [] and ctx4.timers == []


def test_a_mistyped_timer_kind_ends_the_run_as_a_protocol_error():
    # the engine fires any kind a node arms; RareSync refuses the one it
    # never arms, so the run ends naming the process and the timer
    from squadsim import build_simulation, happy
    from squadsim.engine import ProtocolError
    cfg = happy(4, 0)
    sim = build_simulation(cfg)
    sim.context(1).measure("view_timr", Fraction(1, 2))
    with pytest.raises(ProtocolError, match="P1 raised ValueError: .*'view_timr'.*"
                                            "the timer view_timr:gen1"):
        sim.run(cfg.horizon)


def test_global_view_formula(crypto7):
    ctx = FakeContext(crypto7)
    sync, log = make_sync(crypto7)
    sync.start(ctx)
    sync.epoch = 2
    sync.epoch_sig = crypto7.combine(
        [crypto7.share_sign(p, epoch_message(1), "quorum") for p in range(1, 6)])
    sync.on_timer(ctx, "dissemination_timer")
    # f=2: first view of epoch 2 is (2-1)*3 + 1 = 4
    assert log[-1] == 4


def test_epoch_one_never_produces_enter_epoch():
    from squadsim import happy, run_scenario
    res = run_scenario(happy(4, 0))
    assert all(ev.payload.epoch >= 2 for ev in res.trace.events
               if isinstance(ev.payload, EnterEpochMsg))
