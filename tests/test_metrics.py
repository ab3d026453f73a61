"""Metric extraction and invariant checkers, including one planted defect
per checker so none of them can pass vacuously."""

from fractions import Fraction

import pytest

from squadsim import happy, run_scenario, worst_case
from squadsim.metrics import (ALL_CHECKS, check_epoch_budget, check_invariants,
                              count_words, decision_time, find_sync_time,
                              handler_tally_words, sync_reference_time)
from squadsim.runner import sent_logs
from squadsim.trace import Trace, TraceEvent
from tests.planted import PLANTED


@pytest.fixture(scope="module")
def happy_run():
    return run_scenario(happy(4, 0))


@pytest.fixture()
def wc_run():
    return run_scenario(worst_case(4, 0, "squad"))


def advance(trace, time, pid, view):
    trace.append(TraceEvent(Fraction(time), pid, "advance", f"v={view}", 0,
                            payload=view))


# -- extraction ---------------------------------------------------------------

def test_count_words_window(happy_run):
    trace, cfg = happy_run.trace, happy_run.config
    t_d = decision_time(trace)
    assert count_words(trace, cfg.gst, t_d) == 32
    # everything in this run is sent at or after GST
    assert count_words(trace, cfg.gst + 100, t_d) == 0


def test_all_sends_before_gst_count_zero():
    trace = Trace(4, 1, Fraction(50), Fraction(1), frozenset())
    for t in (10, 20, 30):
        trace.append(TraceEvent(Fraction(t), 1, "send", "x", 1))
    assert count_words(trace, Fraction(50), Fraction(100)) == 0


def test_index_follows_events_appended_after_it_was_built():
    trace = Trace(4, 1, Fraction(50), Fraction(1), frozenset())
    trace.append(TraceEvent(Fraction(60), 1, "send", "x", 1))
    assert count_words(trace, Fraction(50), None) == 1
    trace.append(TraceEvent(Fraction(70), 2, "send", "x", 2))
    assert count_words(trace, Fraction(50), None) == 3


def test_count_words_matches_handler_tally(happy_run):
    trace, cfg = happy_run.trace, happy_run.config
    t_d = decision_time(trace)
    logs = sent_logs(happy_run.simulation)
    assert count_words(trace, cfg.gst, t_d) == \
        handler_tally_words(logs, trace, cfg.gst, t_d)


def test_find_sync_time_interval_intersection():
    cfg = happy(4, 0)
    cfg.gst = Fraction(0)
    trace = Trace(4, 1, Fraction(0), Fraction(1), frozenset())
    # all enter view 9 (leader P_2 correct... 9 mod 4 = 1 -> P_2) at
    # 100/101/101.5 and leave at 112+
    for pid, t in ((1, 100), (2, 101), (3, Fraction(203, 2)), (4, 100)):
        advance(trace, t, pid, 9)
    for pid in (1, 2, 3, 4):
        advance(trace, 112, pid, 10)
    t_s = find_sync_time(trace, cfg)
    assert t_s == Fraction(203, 2)


def test_find_sync_time_short_overlap_rejected():
    cfg = happy(4, 0)
    cfg.gst = Fraction(0)
    trace = Trace(4, 1, Fraction(0), Fraction(1), frozenset())
    for pid in (1, 2, 3, 4):
        advance(trace, 100, pid, 9)
        advance(trace, 104, pid, 10)   # view 9 overlap is 4 < 8
    # the view-9 window is rejected; the sync lands in view 10's open dwell
    assert find_sync_time(trace, cfg) == 104


def test_find_sync_time_skips_byzantine_leader():
    cfg = happy(4, 0)
    cfg.gst = Fraction(0)
    cfg.byzantine = frozenset({2})    # leader of view 9
    trace = Trace(4, 1, Fraction(0), Fraction(1), frozenset({2}))
    for pid in (1, 3, 4):
        advance(trace, 100, pid, 9)
    assert find_sync_time(trace, cfg) is None


def test_sync_reference_shifts_with_late_starts():
    cfg = happy(4, 0, "squad")
    res = run_scenario(cfg)
    # certification delays consensus starts past GST by up to 2*delta
    t0 = sync_reference_time(res.trace, cfg)
    assert cfg.gst < t0 <= cfg.gst + 2 * cfg.delta


# -- clean runs pass ----------------------------------------------------------

def test_clean_runs_have_no_violations(happy_run, wc_run):
    for run in (happy_run, wc_run):
        assert check_invariants(run.trace, run.config,
                                run.simulation.crypto) == []


# -- planted defects: every checker must flag its mutation --------------------

@pytest.mark.parametrize("name", sorted(PLANTED))
def test_planted_defect_is_flagged(name, wc_run):
    cfg, crypto = wc_run.config, wc_run.simulation.crypto
    trace = PLANTED[name](cfg, crypto, wc_run.trace)
    checker = ALL_CHECKS[name]
    violations = checker(trace, cfg, crypto)
    assert violations, f"{name} checker passed its planted defect"
    assert all(name in v for v in violations)


def test_planted_registry_covers_every_checker():
    assert set(PLANTED) == set(ALL_CHECKS)
