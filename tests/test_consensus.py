"""Certification phase and the certified consensus composition."""

import itertools
from fractions import Fraction

from squadsim.baselines import WishMsg
from squadsim.consensus import (ANY_VALUE_TAG, AllowAnyMsg, CertPhase,
                                Certificate, CertificateMsg, DiscloseMsg,
                                ProtocolNode, value_message, verify_certificate)
from squadsim.crypto import ThresholdSignature
from squadsim.viewcore import VIEW_CHANGE, CoreMessage
from tests.conftest import FakeContext


def make_phase(crypto, pid=1, proposal=7):
    exits = []
    phase = CertPhase(pid, crypto.f, proposal,
                      on_exit=lambda ctx, v, c: exits.append((v, c)))
    return phase, exits


def disclose(crypto, sender, value):
    return DiscloseMsg(value, crypto.share_sign(sender, value_message(value), "cert"))


def allow(crypto, sender):
    return AllowAnyMsg(crypto.share_sign(sender, ANY_VALUE_TAG, "cert"))


def test_start_discloses_proposal(crypto4, ctx4):
    phase, _ = make_phase(crypto4)
    phase.start(ctx4)
    msgs = ctx4.sent_payloads(DiscloseMsg)
    assert len(msgs) == 4 and all(m.value == 7 for m in msgs)


def test_matching_quorum_yields_value_certificate(crypto4, ctx4):
    # f=1: two matching DISCLOSE messages certify the value
    phase, exits = make_phase(crypto4)
    phase.start(ctx4)
    ctx4.clear()
    phase.on_message(ctx4, 1, disclose(crypto4, 1, 7))
    assert exits == []
    phase.on_message(ctx4, 2, disclose(crypto4, 2, 7))
    (value, cert), = exits
    assert value == 7 and verify_certificate(crypto4, 7, cert)
    assert not verify_certificate(crypto4, 8, cert)
    assert len(ctx4.sent_payloads(CertificateMsg)) == 4


def test_all_distinct_triggers_allow_any(crypto4, ctx4):
    phase, exits = make_phase(crypto4, proposal=1)
    phase.start(ctx4)
    ctx4.clear()
    for sender, value in [(1, 1), (2, 2), (3, 3)]:
        phase.on_message(ctx4, sender, disclose(crypto4, sender, value))
    assert exits == []
    allows = ctx4.sent_payloads(AllowAnyMsg)
    assert len(allows) == 4   # broadcast once


def test_allow_any_broadcast_at_most_once(crypto4, ctx4):
    phase, _ = make_phase(crypto4, proposal=1)
    phase.start(ctx4)
    ctx4.clear()
    for sender, value in [(1, 1), (2, 2), (3, 3), (4, 4)]:
        phase.on_message(ctx4, sender, disclose(crypto4, sender, value))
    assert len(ctx4.sent_payloads(AllowAnyMsg)) == 4


def test_pigeonhole_all_delivery_orders_n4(crypto4):
    """Three distinct correct proposals at n=4: every delivery order of the
    2f+1 correct DISCLOSE messages ends in ALLOW-ANY, never a value cert."""
    msgs = [(s, disclose(crypto4, s, s)) for s in (1, 2, 3)]
    for order in itertools.permutations(msgs):
        ctx = FakeContext(crypto4)
        phase, exits = make_phase(crypto4, proposal=1)
        phase.start(ctx)
        ctx.clear()
        for sender, msg in order:
            phase.on_message(ctx, sender, msg)
        assert exits == []
        assert len(ctx.sent_payloads(AllowAnyMsg)) == 4


def test_allow_any_quorum_yields_any_certificate(crypto4, ctx4):
    phase, exits = make_phase(crypto4, proposal=1)
    phase.start(ctx4)
    ctx4.clear()
    phase.on_message(ctx4, 1, allow(crypto4, 1))
    phase.on_message(ctx4, 4, allow(crypto4, 4))
    (value, cert), = exits
    assert value is None
    for v in (0, 1, "anything"):
        assert verify_certificate(crypto4, v, cert)


def test_received_certificate_adopted_and_rebroadcast_once(crypto4, ctx4):
    phase, exits = make_phase(crypto4, proposal=1)
    phase.start(ctx4)
    ctx4.clear()
    tsig = crypto4.combine([crypto4.share_sign(p, value_message(9), "cert")
                            for p in (2, 3)])
    cert = Certificate(9, tsig)
    phase.on_message(ctx4, 2, CertificateMsg(9, cert))
    phase.on_message(ctx4, 3, CertificateMsg(9, cert))   # after exit: dropped
    assert exits == [(9, cert)]
    assert len(ctx4.sent_payloads(CertificateMsg)) == 4


def test_exit_latch_blocks_later_rules(crypto4, ctx4):
    phase, exits = make_phase(crypto4)
    phase.start(ctx4)
    phase.on_message(ctx4, 1, disclose(crypto4, 1, 7))
    phase.on_message(ctx4, 2, disclose(crypto4, 2, 7))
    ctx4.clear()
    phase.on_message(ctx4, 3, disclose(crypto4, 3, 7))
    phase.on_message(ctx4, 1, allow(crypto4, 1))
    phase.on_message(ctx4, 4, allow(crypto4, 4))
    assert ctx4.sends == [] and len(exits) == 1


def test_forged_certificate_rejected(crypto4, ctx4):
    phase, exits = make_phase(crypto4)
    phase.start(ctx4)
    ctx4.clear()
    forged = Certificate(9, ThresholdSignature("(value,9)", frozenset({2, 3}),
                                               "cert"))
    phase.on_message(ctx4, 2, CertificateMsg(9, forged))
    assert exits == [] and ctx4.sends == []


def test_invalid_disclose_signature_dropped(crypto4, ctx4):
    phase, exits = make_phase(crypto4)
    phase.start(ctx4)
    good = disclose(crypto4, 1, 7)
    phase.on_message(ctx4, 2, good)   # signer mismatch
    phase.on_message(ctx4, 1, good)
    phase.on_message(ctx4, 3, DiscloseMsg(7, crypto4.share_sign(3, value_message(8),
                                                                "cert")))
    assert exits == []


# -- composition through the engine -----------------------------------------

def test_unanimity_decides_proposed_value():
    from squadsim import worst_case, run_scenario
    cfg = worst_case(4, 0, "squad")
    res = run_scenario(cfg)
    assert res.report.decided
    assert {v for _, v in res.simulation.decisions.values()} == {7}


def test_mixed_proposals_decide_certified_value():
    from squadsim import happy, run_scenario
    from squadsim.viewcore import CoreMessage, PREPARE
    cfg = happy(4, 3, "squad")
    res = run_scenario(cfg)
    assert res.report.decided
    (decided,) = {v for _, v in res.simulation.decisions.values()}
    crypto = res.simulation.crypto
    prepares = [ev.payload for ev in res.trace.events
                if ev.kind == "send" and isinstance(ev.payload, CoreMessage)
                and ev.payload.type == PREPARE and ev.payload.value == decided]
    assert prepares and all(verify_certificate(crypto, decided, m.cert)
                            for m in prepares)


def test_cert_attacker_cannot_forge_under_unanimity():
    from squadsim import worst_case, run_scenario
    from squadsim.metrics import check_cert_computability
    cfg = worst_case(7, 1, "squad")
    cfg.strategy = "cert_attack"
    res = run_scenario(cfg)
    assert res.report.decided
    assert {v for _, v in res.simulation.decisions.values()} == {7}
    assert check_cert_computability(res.trace, cfg, res.simulation.crypto) == []


def test_node_holds_routes_and_drops_by_payload_class(crypto4, ctx4):
    node = ProtocolNode(1, 4, 1, crypto4, 7, "alltoall", Fraction(1), Fraction(10),
                        certified=True)
    seen = []
    node.sync.on_message = lambda ctx, sender, msg: seen.append(("sync", sender, msg))
    node.core.on_message = lambda ctx, sender, msg: seen.append(("core", sender, msg))
    wish, core = WishMsg(2), CoreMessage(VIEW_CHANGE, 1)
    node.on_deliver(ctx4, 3, wish)                        # before start: held
    node.on_deliver(ctx4, 1, disclose(crypto4, 1, 7))     # held too
    node.on_start(ctx4)               # the held DISCLOSE reaches the cert phase
    node.on_deliver(ctx4, 4, "junk")  # no layer owns it: held until consensus
    node.on_deliver(ctx4, 2, core)    # consensus payload: held until cert exit
    assert seen == [] and node.cert_phase._disclose_senders == {1}
    node.on_deliver(ctx4, 2, disclose(crypto4, 2, 7))     # f+1 matching: exit
    assert node.cert_phase.exited
    # released in arrival order to their owners; the unowned one is dropped
    assert seen == [("sync", 3, wish), ("core", 2, core)]
    node.on_deliver(ctx4, 3, "junk")
    node.on_deliver(ctx4, 3, disclose(crypto4, 3, 7))     # cert phase is over
    node.on_deliver(ctx4, 4, wish)
    assert seen == [("sync", 3, wish), ("core", 2, core), ("sync", 4, wish)]
    assert node._held == []
