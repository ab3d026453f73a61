from fractions import Fraction

import pytest

from squadsim.adversary import (equivocate, happy, randomized, scenario_s,
                                worst_case)
from squadsim.raresync import leader
from squadsim.runner import run_scenario


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
