import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from squadsim.adversary import (STRATEGIES, CertAttackNode, EquivocatingCore,
                                JitterDelayPolicy, RandomizedPolicy,
                                ScheduledReleasePolicy, SilentNode,
                                SpamEnterEpochNode, custom_file, equivocate,
                                happy, randomized, scenario_s, worst_case)
from squadsim.consensus import ProtocolNode
from squadsim.engine import Simulation
from squadsim.raresync import leader
from squadsim.runner import build_simulation, run_scenario
from squadsim.viewcore import ViewCore


def test_worst_case_byzantine_set_size_and_rotation():
    cfg = worst_case(4, 0)
    assert len(cfg.byzantine) == 1
    byz = next(iter(cfg.byzantine))
    # round robin: consecutive views have distinct leaders, so a process
    # leads at most one view per (f+1)-view epoch and exactly one per
    # window of n consecutive views
    for epoch_start in (1, 3, 5, 7):
        led = [v for v in range(epoch_start, epoch_start + 2)
               if leader(v, 4) == byz]
        assert len(led) <= 1
    for start in (1, 5, 9):
        assert sum(1 for v in range(start, start + 4) if leader(v, 4) == byz) == 1


def test_worst_case_covers_dwell_view_and_next_epoch():
    for n in (7, 13, 25):
        cfg = worst_case(n, 0)
        f = cfg.f
        assert len(cfg.byzantine) == f
        assert leader(f + 1, n) in cfg.byzantine          # dwell view of epoch 1
        for v in range(f + 2, 2 * f + 1):                 # early views of epoch 2
            assert leader(v, n) in cfg.byzantine
        # the last view of epoch 2 must be correct-led
        assert leader(2 * f + 2, n) not in cfg.byzantine


def test_worst_case_decides_in_final_correct_view():
    cfg = worst_case(4, 0)
    res = run_scenario(cfg)
    assert res.report.decided
    decide_views = set()
    from squadsim.viewcore import CoreMessage, DECIDE
    for ev in res.trace.events:
        if ev.kind == "send" and isinstance(ev.payload, CoreMessage) \
                and ev.payload.type == DECIDE and ev.time >= cfg.gst \
                and ev.payload.view >= 3:
            decide_views.add(ev.payload.view)
    # f=1: epoch 2 is views {3,4}; its first correct-led view carries the decision
    assert decide_views and min(decide_views) in (3, 4)


def test_worst_case_no_byzantine_variant_decides_earlier():
    cfg = worst_case(4, 0)
    cfg.byzantine = frozenset()
    res = run_scenario(cfg)
    ref = run_scenario(worst_case(4, 0))
    assert res.report.decided and ref.report.decided
    assert res.report.t_d < ref.report.t_d


def test_scenario_s_group_sizes():
    cfg = scenario_s(7, 0)
    assert cfg.n == 7 and cfg.f == 2 and cfg.byzantine == frozenset()
    placements = {}
    for p in range(1, 8):
        elapsed = cfg.clocks[p].local_elapsed(Fraction(0), cfg.gst)
        placements.setdefault(int(elapsed / cfg.view_duration) + 1, []).append(p)
    assert sorted(len(v) for v in placements.values()) == [2, 2, 3]


def test_scenario_s_requires_f_at_least_1():
    with pytest.raises(ValueError):
        scenario_s(1, 0)


def test_view_duration_formula():
    cfg = happy(4, 0)
    assert cfg.view_duration == Fraction(10) + Fraction(1, 100)
    assert cfg.epoch_duration == 2 * cfg.view_duration


def test_validation_rejects_bad_n():
    with pytest.raises(ValueError):
        worst_case(5, 0)
    with pytest.raises(ValueError):
        happy(6, 0)


def test_validation_rejects_oversized_byzantine_set():
    cfg = happy(4, 0)
    cfg.byzantine = frozenset({1, 2})
    with pytest.raises(ValueError):
        cfg.validate()


@pytest.mark.parametrize("kwargs, message", [
    ({"delta": 0}, "delta must be positive"),
    ({"delta": -1}, "delta must be positive"),
    ({"protocol": "paxos"}, "unknown protocol 'paxos'"),
], ids=["zero-delta", "negative-delta", "unknown-protocol"])
def test_validation_rejects_bad_delta_and_unknown_protocol(kwargs, message):
    with pytest.raises(ValueError, match=message):
        happy(4, 0, **kwargs)


def test_validation_rejects_unknown_strategy():
    cfg = happy(4, 0)
    cfg.strategy = "evil"
    with pytest.raises(ValueError, match="unknown strategy 'evil'"):
        cfg.validate()


@pytest.mark.parametrize("builder, delta, gst, message", [
    (worst_case, 0, -1, "delta must be positive"),
    (worst_case, -2, -1, "delta must be positive"),
    (worst_case, 1, 4, "worst_case needs gst >= 5\\*delta = 5, got 4"),
    (scenario_s, 0, -1, "delta must be positive"),
    (scenario_s, 1, 31, "scenario_s needs gst >= three views plus delta"),
], ids=["worst-zero-delta", "worst-negative-delta", "worst-gst-below-minimum",
        "s-zero-delta", "s-gst-below-minimum"])
def test_a_bad_delta_is_named_before_the_gst_minimum(builder, delta, gst, message):
    with pytest.raises(ValueError, match=message):
        builder(4, 0, delta=delta, gst=gst)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_each_strategy_builds_its_node_and_correct_pids_the_protocol_node(strategy):
    cfg = custom_file({"byzantine": "2", "strategy": strategy}, 4, 0, "squad")
    nodes = build_simulation(cfg).nodes
    byz = nodes[2]
    if strategy == "equivocate":
        assert type(byz) is ProtocolNode and type(byz.core) is EquivocatingCore
    else:
        assert type(byz) is {"silent": SilentNode, "spam_enter_epoch": SpamEnterEpochNode,
                             "cert_attack": CertAttackNode}[strategy]
    for pid in (1, 3, 4):
        assert type(nodes[pid]) is ProtocolNode and type(nodes[pid].core) is ViewCore


def test_equivocating_leader_splits_but_never_double_certifies():
    from squadsim.viewcore import CoreMessage, PREPARE, PREPARE_VOTE
    cfg = equivocate(4, 5)
    res = run_scenario(cfg)
    assert res.report.decided
    assert len({v for _, v in res.simulation.decisions.values()}) == 1
    prepares = [ev.payload for ev in res.trace.events
                if ev.kind == "byz" and isinstance(ev.payload, CoreMessage)
                and ev.payload.type == PREPARE and ev.payload.view == 1]
    values = {m.value for m in prepares}
    assert len(values) == 2
    # at most one of the two values can gather a prepare quorum
    votes: dict = {}
    for ev in res.trace.events:
        if ev.kind == "send" and isinstance(ev.payload, CoreMessage) \
                and ev.payload.type == PREPARE_VOTE and ev.payload.view == 1:
            votes.setdefault(ev.payload.value, set()).add(ev.process)
    quorums = [v for v, s in votes.items() if len(s) >= 3]
    assert len(quorums) <= 1


def test_equivocation_exhaustive_delivery_orders_n4():
    """Quorum intersection at n=4: however the two halves are arranged,
    correct voters split and only one value can reach 2f+1."""
    import itertools
    correct = [1, 3, 4]
    for half in itertools.combinations(correct, 2):
        votes_a = set(half) | {2}            # byz leader votes its own too
        votes_b = (set(correct) - set(half)) | {2}
        assert not (len(votes_a) >= 3 and len(votes_b) >= 3)


def test_spam_strategy_changes_no_correct_state():
    cfg = randomized(4, 2)
    assert cfg.strategy == "spam_enter_epoch"
    cfg.byzantine = frozenset({4})
    res = run_scenario(cfg)
    assert res.report.decided
    assert res.report.violations == []
    # forged signatures never enter any correct process's epoch machinery
    from squadsim.raresync import EnterEpochMsg
    forged = [ev for ev in res.trace.events
              if ev.kind == "byz" and isinstance(ev.payload, EnterEpochMsg)]
    assert forged, "spammer should have emitted forged ENTER-EPOCH"
    crypto = res.simulation.crypto
    from squadsim.raresync import epoch_message
    assert all(not crypto.combined_verify(epoch_message(m.payload.epoch - 1),
                                          m.payload.tsig) for m in forged)


def test_randomized_runs_are_legal_and_decide():
    for seed in range(8):
        cfg = randomized(4, seed)
        res = run_scenario(cfg)
        assert res.report.decided, seed
        assert res.report.violations == [], (seed, res.report.violations)


@dataclass(frozen=True)
class Note:
    tag: str


@dataclass(frozen=True)
class HeldNote(Note):
    pass


def _jitter_formula(policy, rng, sent, payload, gst, delta):
    """The delivery time as the rational formula states it."""
    post_gst = sent >= gst
    steps = policy.RES if post_gst else policy.pre_gst_steps
    delay = delta * Fraction(rng.randrange(1, steps + 1), policy.RES)
    if post_gst:
        return sent + delay
    if isinstance(payload, policy.held_types):
        return gst + delay
    return min(sent + delay, gst + delta)


@pytest.mark.parametrize("policy", [JitterDelayPolicy(held_types=(HeldNote,)),
                                    RandomizedPolicy()],
                         ids=["jitter-held", "randomized"])
def test_reused_jitter_policy_matches_the_formula_across_deltas(policy):
    gst = Fraction(10)
    # before GST, near it, at it and after it; one large denominator
    sends = [Fraction(0), Fraction(3, 7), Fraction(2**61 - 1, 2**58),
             Fraction(29, 3), Fraction(10), Fraction(25, 2)]
    near_the_cap = [0, 0]
    for seed, delta in enumerate([Fraction(1), Fraction(1, 3), Fraction(1)]):
        sim = Simulation(4, 1, gst, delta, policy, seed=seed)
        # the reference draws: the stdlib's randrange on the same seed
        rng = random.Random(seed)
        expected = []
        for i, sent in enumerate(sends * 8):
            payload = (HeldNote if i % 2 else Note)(str(i))
            if i % 4 == 3:
                # a plain pre-GST send whose next draw lands exactly on
                # gst + delta, which is not capped, or one step above it,
                # which is; only a pre-GST step above RES can reach them
                ahead = random.Random()
                ahead.setstate(rng.getstate())
                step = ahead.randrange(1, policy.pre_gst_steps + 1)
                above = i // 4 % 2
                if step - above > policy.RES:
                    sent = gst + delta - delta * Fraction(step - above, policy.RES)
                    payload = Note(str(i))
                    near_the_cap[above] += 1
            sim.now = Fraction(sent)   # a fresh object: a new send instant
            # one receiver, or a broadcast drawn in receiver order
            if i % 3:
                sim.context(1).broadcast(payload)
                receivers = range(1, 5)
            else:
                sim.context(1).send(2, payload)
                receivers = (2,)
            expected += [_jitter_formula(policy, rng, sent, payload, gst, delta)
                         for _ in receivers]
        # each copy's delivery time is the time of the bucket holding it
        at = {key: t for _, t, key in sim._times}
        queued = sorted((entry[2], at[key]) for key, bucket in sim._buckets.items()
                        for entry in bucket if entry[3] == "deliver")
        assert [deliver_at for _, deliver_at in queued] == expected
    assert all(near_the_cap) or policy.pre_gst_steps <= policy.RES


def test_a_jitter_run_never_builds_latest_delivery(monkeypatch):
    # the jitter policy reads post_gst only, so the engine never adds
    # now + delta; a worst-case run is the probe's control
    reads = []
    latest = Simulation.latest_delivery
    monkeypatch.setattr(Simulation, "latest_delivery", property(
        lambda sim: reads.append(sim.now) or latest.fget(sim)))
    for seed in range(3):
        cfg = randomized(4, seed)
        assert isinstance(cfg.policy, JitterDelayPolicy)
        assert run_scenario(cfg).report.decided
    assert reads == []
    assert run_scenario(worst_case(4, 0)).report.decided
    assert reads


def test_scheduled_release_returns_the_release_object_unless_now_is_later():
    # max(release, now) decided by integer cross-products: the very release
    # object unless the send instant is strictly later, then the instant
    now = Fraction(10)
    before, at, after = Fraction(8), Fraction(20, 2), Fraction(12)
    assert at == now and at is not now
    policy = ScheduledReleasePolicy({1: before, 2: at, 3: after}, (HeldNote,))

    def sim_at(gst):
        # a send at now sets the engine's values of that instant
        sim = Simulation(4, 1, gst, Fraction(1), policy)
        sim.now = now
        sim.context(1).send(4, Note("instant"))
        assert sim.post_gst == (now >= gst)
        assert sim.latest_delivery == now + 1
        return sim

    sim = sim_at(Fraction(50))
    got = policy.deliver_at(now, HeldNote("x"), range(1, 5), sim)
    assert [id(t) for t in got] == [id(now), id(at), id(after), id(sim.latest_delivery)]
    # a type that is not held, or a send at or after GST, gets latest_delivery
    for payload, gst in ((Note("x"), Fraction(50)), (HeldNote("x"), Fraction(10))):
        sim = sim_at(gst)
        got = policy.deliver_at(now, payload, (3, 1), sim)
        assert [id(t) for t in got] == [id(sim.latest_delivery)] * 2
