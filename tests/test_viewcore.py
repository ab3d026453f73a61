from squadsim.raresync import leader
from squadsim.viewcore import (COMMIT, COMMIT_VOTE, DECIDE, PHASE_COMMIT,
                               PHASE_PRECOMMIT, PHASE_PREPARE, PRECOMMIT,
                               PRECOMMIT_VOTE, PREPARE, PREPARE_VOTE,
                               VIEW_CHANGE, CoreMessage, QuorumCertificate,
                               ViewCore, vote_message)
from tests.conftest import FakeContext


def make_core(crypto, pid, proposal=None):
    # the core decides through its context: read FakeContext.decisions
    core = ViewCore(pid, crypto.n, crypto.f, crypto)
    core.init(proposal if proposal is not None else 100 + pid)
    return core


def make_qc(crypto, phase, value, view, signers=(1, 2, 3)):
    sig = crypto.combine([crypto.share_sign(p, vote_message(phase, value, view),
                                            "quorum") for p in signers])
    return QuorumCertificate(phase, value, view, sig)


def test_start_sends_view_change_to_leader(crypto4):
    ctx = FakeContext(crypto4, pid=1)
    core = make_core(crypto4, 1)
    core.start_executing(ctx, 1)
    (receiver, msg), = ctx.sends
    assert receiver == leader(1, 4) == 2
    assert msg.type == VIEW_CHANGE and msg.qc is None


def test_leader_proposes_own_value_on_empty_qcs(crypto4):
    ctx = FakeContext(crypto4, pid=2)
    core = make_core(crypto4, 2, proposal=42)
    core.start_executing(ctx, 1)
    ctx.clear()
    for sender in (1, 2, 3):
        core.on_message(ctx, sender, CoreMessage(VIEW_CHANGE, 1))
    prepares = ctx.sent_payloads(CoreMessage)
    assert len(prepares) == 4
    assert all(m.type == PREPARE and m.value == 42 and m.qc is None
               for m in prepares)


def test_leader_waits_for_quorum(crypto4):
    ctx = FakeContext(crypto4, pid=2)
    core = make_core(crypto4, 2)
    core.start_executing(ctx, 1)
    ctx.clear()
    for sender in (1, 3):
        core.on_message(ctx, sender, CoreMessage(VIEW_CHANGE, 1))
    assert ctx.sent_payloads(CoreMessage) == []


def test_leader_picks_highest_qc(crypto4):
    ctx = FakeContext(crypto4, pid=2)
    core = make_core(crypto4, 2, proposal=42)
    core.start_executing(ctx, 9)
    ctx.clear()
    qcs = {1: make_qc(crypto4, PHASE_PREPARE, "a", 3),
           3: make_qc(crypto4, PHASE_PREPARE, "b", 7),
           4: make_qc(crypto4, PHASE_PREPARE, "c", 5)}
    for sender, qc in qcs.items():
        core.on_message(ctx, sender, CoreMessage(VIEW_CHANGE, 9, qc=qc))
    prepare = ctx.sent_payloads(CoreMessage)[0]
    assert prepare.value == "b" and prepare.qc.view == 7


def test_replica_votes_for_well_formed_prepare(crypto4):
    ctx = FakeContext(crypto4, pid=1)
    core = make_core(crypto4, 1)
    core.start_executing(ctx, 1)
    ctx.clear()
    core.on_message(ctx, 2, CoreMessage(PREPARE, 1, value=42))
    (receiver, vote), = ctx.sends
    assert receiver == 2 and vote.type == PREPARE_VOTE and vote.value == 42
    assert crypto4.share_verify(1, vote_message(PHASE_PREPARE, 42, 1), vote.psig)


def test_prepare_from_non_leader_ignored(crypto4):
    ctx = FakeContext(crypto4, pid=1)
    core = make_core(crypto4, 1)
    core.start_executing(ctx, 1)
    ctx.clear()
    core.on_message(ctx, 3, CoreMessage(PREPARE, 1, value=42))
    assert ctx.sends == []


def test_lock_check_truth_table(crypto4):
    # locked on value A at view 5
    cases = [
        # (prepare value, qc view, expect vote)
        ("B", 6, True),    # fresher qc overrides the lock
        ("B", 4, False),   # stale conflicting proposal
        ("A", 4, True),    # same value as the lock
    ]
    for value, qc_view, expect in cases:
        ctx = FakeContext(crypto4, pid=1)
        core = make_core(crypto4, 1)
        core.locked_qc = make_qc(crypto4, PHASE_PRECOMMIT, "A", 5)
        core.start_executing(ctx, 9)
        ctx.clear()
        qc = make_qc(crypto4, PHASE_PREPARE, value, qc_view)
        core.on_message(ctx, 2, CoreMessage(PREPARE, 9, value=value, qc=qc))
        voted = any(m.type == PREPARE_VOTE for m in ctx.sent_payloads(CoreMessage))
        assert voted == expect, (value, qc_view)


def test_vacuous_lock_votes_for_anything(crypto4):
    ctx = FakeContext(crypto4, pid=1)
    core = make_core(crypto4, 1)
    core.start_executing(ctx, 1)
    ctx.clear()
    core.on_message(ctx, 2, CoreMessage(PREPARE, 1, value="whatever"))
    assert any(m.type == PREPARE_VOTE for m in ctx.sent_payloads(CoreMessage))


def test_prepare_value_must_match_qc_value(crypto4):
    ctx = FakeContext(crypto4, pid=1)
    core = make_core(crypto4, 1)
    core.start_executing(ctx, 9)
    ctx.clear()
    qc = make_qc(crypto4, PHASE_PREPARE, "A", 3)
    core.on_message(ctx, 2, CoreMessage(PREPARE, 9, value="B", qc=qc))
    assert ctx.sends == []


def test_precommit_updates_prepare_qc(crypto4):
    ctx = FakeContext(crypto4, pid=1)
    core = make_core(crypto4, 1)
    core.start_executing(ctx, 1)
    ctx.clear()
    qc = make_qc(crypto4, PHASE_PREPARE, 42, 1)
    core.on_message(ctx, 2, CoreMessage(PRECOMMIT, 1, qc=qc))
    assert core.prepare_qc is qc
    assert any(m.type == PRECOMMIT_VOTE for m in ctx.sent_payloads(CoreMessage))


def test_commit_updates_locked_qc(crypto4):
    ctx = FakeContext(crypto4, pid=1)
    core = make_core(crypto4, 1)
    core.start_executing(ctx, 1)
    ctx.clear()
    qc = make_qc(crypto4, PHASE_PRECOMMIT, 42, 1)
    core.on_message(ctx, 2, CoreMessage(COMMIT, 1, qc=qc))
    assert core.locked_qc is qc
    assert any(m.type == COMMIT_VOTE for m in ctx.sent_payloads(CoreMessage))


def test_decide_fires_once(crypto4):
    ctx = FakeContext(crypto4, pid=1)
    core = make_core(crypto4, 1)
    core.start_executing(ctx, 1)
    qc = make_qc(crypto4, PHASE_COMMIT, 42, 1)
    core.on_message(ctx, 2, CoreMessage(DECIDE, 1, qc=qc))
    core.on_message(ctx, 2, CoreMessage(DECIDE, 1, qc=qc))
    assert ctx.decisions == [42]


def test_stale_view_messages_dropped_fresh_buffered(crypto4):
    ctx = FakeContext(crypto4, pid=1)
    core = make_core(crypto4, 1)
    core.start_executing(ctx, 2)
    ctx.clear()
    core.on_message(ctx, 3, CoreMessage(PREPARE, 1, value="old"))   # stale
    future_qc = make_qc(crypto4, PHASE_COMMIT, 9, 3)
    core.on_message(ctx, 4, CoreMessage(DECIDE, 3, qc=future_qc))   # future
    assert ctx.sends == [] and core.decided is False
    core.start_executing(ctx, 3)
    assert core.decided is True and ctx.decisions == [9]


def test_forged_qc_rejected(crypto4):
    from squadsim.crypto import ThresholdSignature
    ctx = FakeContext(crypto4, pid=1)
    core = make_core(crypto4, 1)
    core.start_executing(ctx, 1)
    fake_sig = ThresholdSignature("(vote,commit,13,1)", frozenset({1, 2, 3}),
                                  "quorum")
    qc = QuorumCertificate(PHASE_COMMIT, 13, 1, fake_sig)
    core.on_message(ctx, 2, CoreMessage(DECIDE, 1, qc=qc))
    assert ctx.decisions == []


def test_leader_deduplicates_votes(crypto4):
    ctx = FakeContext(crypto4, pid=2)
    core = make_core(crypto4, 2, proposal=42)
    core.start_executing(ctx, 1)
    for sender in (1, 2, 3):
        core.on_message(ctx, sender, CoreMessage(VIEW_CHANGE, 1))
    ctx.clear()
    vote = CoreMessage(PREPARE_VOTE, 1, value=42,
                       psig=crypto4.share_sign(1, vote_message(PHASE_PREPARE, 42, 1),
                                               "quorum"))
    for _ in range(5):
        core.on_message(ctx, 1, vote)
    assert ctx.sent_payloads(CoreMessage) == []   # one sender is not a quorum


def test_full_happy_view_through_engine():
    """n=4 happy path: 8 message steps, unanimous decision, leader's value."""
    from squadsim import happy, run_scenario
    cfg = happy(4, seed=1)
    res = run_scenario(cfg)
    assert res.report.decided
    values = {v for _, v in res.simulation.decisions.values()}
    assert values == {100 + leader(1, 4)}
    assert res.report.t_d <= res.report.t_s + 8 * cfg.delta


def test_own_view_change_counts_toward_quorum():
    # the leader's self-addressed VIEW-CHANGE travels the network and counts
    from squadsim import happy, run_scenario
    cfg = happy(4, seed=2)
    res = run_scenario(cfg)
    vc_senders = {ev.sender for ev in res.trace.events
                  if ev.kind == "deliver" and isinstance(ev.payload, CoreMessage)
                  and ev.payload.type == VIEW_CHANGE and ev.receiver == 2
                  and ev.payload.view == 1}
    assert 2 in vc_senders and res.report.decided
