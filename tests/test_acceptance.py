"""Acceptance suite: every headline claim as an executable criterion.

Run with `pytest tests/test_acceptance.py -v -rP` to see one PASS line per
criterion. Bounds are exact rational comparisons unless a criterion is a
scaling-law fit, in which case the tolerance band is stated inline.
"""

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import pytest

from squadsim import (equivocate, happy, randomized, run_scenario, scenario_s,
                      worst_case)
from squadsim.consensus import AllowAnyMsg, CertificateMsg, DiscloseMsg
from squadsim.engine import MaxDelayPolicy
from squadsim.metrics import (ALL_CHECKS, check_agreement,
                              check_conflicting_qcs, facts_of, fit_slope)
from squadsim.raresync import EpochCompletedMsg
from tests.planted import PLANTED, checker_of

SWEEP_NS = (4, 7, 13, 25, 49)
SWEEP_SEEDS = 20


@dataclass
class RunSummary:
    n: int
    f: int
    seed: int
    decided: bool
    violations: int
    agreement_violations: int
    qc_violations: int
    words: int
    sync_words: int
    t_s: Optional[Fraction]
    t_d: Optional[Fraction]
    gst: Fraction
    overlap: Fraction
    delta: Fraction
    epoch_duration: Fraction
    t_e_final: Optional[Fraction]
    e_final_spread: Optional[Fraction]


def summarize(res) -> RunSummary:
    cfg, trace, report = res.config, res.trace, res.report
    crypto = res.simulation.crypto
    facts = facts_of(trace, cfg)
    _, e_final, t_ef = facts.stable_epochs
    spread = None
    if e_final is not None:
        firsts = [next((t for t, e in mine if e == e_final), None)
                  for mine in facts.entries.values()]
        if None not in firsts:
            spread = max(firsts) - t_ef
    return RunSummary(
        n=cfg.n, f=cfg.f, seed=cfg.seed, decided=report.decided,
        violations=len(report.violations),
        agreement_violations=len(check_agreement(trace, cfg, crypto)),
        qc_violations=len(check_conflicting_qcs(trace, cfg, crypto)),
        words=report.words_post_gst, sync_words=report.words_sync_window,
        t_s=report.t_s, t_d=report.t_d, gst=cfg.gst, overlap=cfg.overlap,
        delta=cfg.delta, epoch_duration=cfg.epoch_duration,
        t_e_final=t_ef, e_final_spread=spread)


@pytest.fixture(scope="module")
def squad_sweep():
    start = time.monotonic()
    runs: dict[int, list[RunSummary]] = {}
    for n in SWEEP_NS:
        runs[n] = [summarize(run_scenario(worst_case(n, seed, "squad")))
                   for seed in range(SWEEP_SEEDS)]
    return runs, time.monotonic() - start


@pytest.fixture(scope="module")
def alltoall_sweep():
    runs: dict[int, list[RunSummary]] = {}
    for n in SWEEP_NS:
        runs[n] = [summarize(run_scenario(worst_case(n, seed, "alltoall")))
                   for seed in range(SWEEP_SEEDS)]
    return runs


@pytest.fixture(scope="module")
def random_sweep():
    start = time.monotonic()
    summaries = []
    for seed in range(1000):
        summaries.append(summarize(run_scenario(randomized(4, seed))))
    for seed in range(200):
        summaries.append(summarize(run_scenario(randomized(13, seed))))
    return summaries, time.monotonic() - start


def test_criterion_1_quadratic_communication(squad_sweep):
    runs, elapsed = squad_sweep
    assert all(r.decided and r.violations == 0
               for per_n in runs.values() for r in per_n)
    max_words = {n: max(r.words for r in per_n) for n, per_n in runs.items()}
    slope = fit_slope(max_words)
    assert 1.6 <= slope <= 2.2, max_words
    ratios = [max_words[n] / n ** 2 for n in SWEEP_NS]
    assert max(ratios) / min(ratios) < 4
    assert elapsed < 60
    print(f"ACCEPTANCE 1 quadratic-communication: PASS "
          f"(slope={slope:.3f} in [1.6,2.2], words/n^2 spread "
          f"{max(ratios)/min(ratios):.2f}x < 4x, {elapsed:.1f}s < 60s; "
          f"max words {max_words})")


def test_criterion_2_cubic_baseline_separation(squad_sweep, alltoall_sweep):
    squad_runs, _ = squad_sweep
    # the synchronizer complexity window: synchronizer-class words over
    # [GST, t_s + overlap]
    base_words = {n: max(r.sync_words for r in per_n)
                  for n, per_n in alltoall_sweep.items()}
    rare_words = {n: max(r.sync_words for r in per_n)
                  for n, per_n in squad_runs.items()}
    assert all(r.decided for per_n in alltoall_sweep.values() for r in per_n)
    slope = fit_slope(base_words)
    assert slope >= 2.6, base_words
    ratios = [base_words[n] / rare_words[n] for n in SWEEP_NS]
    assert all(a < b for a, b in zip(ratios, ratios[1:])), ratios
    print(f"ACCEPTANCE 2 cubic-baseline-separation: PASS "
          f"(slope={slope:.3f} >= 2.6, ratios {[round(r, 2) for r in ratios]} "
          f"strictly increasing; baseline words {base_words})")


def test_criterion_3_exact_latency_bound(squad_sweep):
    runs, _ = squad_sweep
    for per_n in runs.values():
        for r in per_n:
            assert r.t_s is not None
            assert r.t_s + r.overlap - r.gst <= 2 * r.epoch_duration + 4 * r.delta, \
                (r.n, r.seed, r.t_s)
            assert r.t_d is not None and r.t_d <= r.t_s + 8 * r.delta, \
                (r.n, r.seed, r.t_d, r.t_s)
    print("ACCEPTANCE 3 exact-latency-bound: PASS "
          "(t_s + overlap - GST <= 2*epoch_duration + 4*delta and "
          "t_d <= t_s + 8*delta, exact rationals, all 100 runs)")


def test_criterion_4_entry_bound(squad_sweep):
    runs, _ = squad_sweep
    for per_n in runs.values():
        for r in per_n:
            assert r.t_e_final is not None, (r.n, r.seed)
            assert r.t_e_final <= r.gst + r.epoch_duration + 4 * r.delta, \
                (r.n, r.seed, r.t_e_final)
            assert r.e_final_spread is not None
            assert r.e_final_spread <= 2 * r.delta, (r.n, r.seed, r.e_final_spread)
    print("ACCEPTANCE 4 entry-bound: PASS (t_e_final <= GST + epoch_duration "
          "+ 4*delta and entry spread <= 2*delta, exact, all 100 runs)")


def test_criterion_5_invariant_suite(random_sweep):
    summaries, elapsed = random_sweep
    bad = [(s.n, s.seed) for s in summaries if s.violations]
    assert bad == [], bad
    assert elapsed < 120
    print(f"ACCEPTANCE 5 invariant-suite: PASS (1000 seeds at n=4 plus "
          f"200 at n=13, zero violations, {elapsed:.1f}s < 120s)")


def test_criterion_6_consensus_safety(squad_sweep, alltoall_sweep, random_sweep):
    squad_runs, _ = squad_sweep
    summaries, _ = random_sweep
    pool = [r for per_n in squad_runs.values() for r in per_n]
    pool += [r for per_n in alltoall_sweep.values() for r in per_n]
    pool += summaries
    for seed in range(10):
        pool.append(summarize(run_scenario(equivocate(4, seed))))
    assert all(r.agreement_violations == 0 for r in pool)
    assert all(r.qc_violations == 0 for r in pool)
    print(f"ACCEPTANCE 6 consensus-safety: PASS (agreement and no conflicting "
          f"QCs across {len(pool)} runs including equivocating leaders)")


def test_criterion_7_certification_phase():
    # (a) unanimity: no foreign or any-value certificate ever verifies, and
    # the decision is the common proposal, under silent and actively
    # attacking Byzantine processes
    checked = 0
    for n in (4, 7):
        for seed in range(50):
            cfg = worst_case(n, seed, "squad")
            if seed % 2:
                cfg.strategy = "cert_attack"
            res = run_scenario(cfg)
            assert res.report.decided
            assert {v for _, v in res.simulation.decisions.values()} == {7}
            assert not ALL_CHECKS["cert_computability"](
                res.trace, cfg, res.simulation.crypto)
            checked += 1
    # (b) all-distinct proposals: exit exactly at GST + 2*delta under
    # worst-case legal delays, never more than 3n certification sends
    for n in (4, 7):
        cfg = happy(n, 0, "squad")
        cfg.policy = MaxDelayPolicy()
        res = run_scenario(cfg)
        deadline = cfg.gst + 2 * cfg.delta
        for pid in facts_of(res.trace, cfg).correct:
            exit_time = min(ev.time for ev in res.trace.events
                            if ev.kind == "send" and ev.process == pid
                            and isinstance(ev.payload, CertificateMsg))
            assert exit_time == deadline, (n, pid, exit_time)
            sent = sum(1 for ev in res.trace.events
                       if ev.kind == "send" and ev.process == pid
                       and isinstance(ev.payload, (DiscloseMsg, AllowAnyMsg,
                                                   CertificateMsg)))
            assert sent <= 3 * n
        for seed in range(1, 11):   # jittered delays: exits never later
            res = run_scenario(happy(n, seed, "squad"))
            for pid in facts_of(res.trace, res.config).correct:
                exit_time = min(ev.time for ev in res.trace.events
                                if ev.kind == "send" and ev.process == pid
                                and isinstance(ev.payload, CertificateMsg))
                assert exit_time <= deadline
    print(f"ACCEPTANCE 7 certification-phase: PASS ({checked} unanimity runs "
          f"with zero foreign or any-value certificates; all-distinct runs "
          f"exit at exactly GST + 2*delta with <= 3n sends)")


def test_criterion_8_scenario_s():
    for n in (4, 7):
        for seed in range(3):
            cfg = scenario_s(n, seed)
            assert cfg.byzantine == frozenset()
            res = run_scenario(cfg)
            assert res.report.decided and not res.report.violations
            _, e_final, t_ef = facts_of(res.trace, cfg).stable_epochs
            e_max = e_final - 1
            assert e_max >= 1
            t_s = res.report.t_s
            # synchronization only in the epoch after the straddled one
            assert t_s is not None and t_ef is not None and t_s >= t_ef
            boundary_words = sum(
                ev.words for ev in res.trace.events
                if ev.kind == "send" and ev.time >= cfg.gst
                and isinstance(ev.payload, EpochCompletedMsg)
                and ev.payload.epoch == e_max)
            assert boundary_words >= cfg.n * (2 * cfg.f + 1), boundary_words
    print("ACCEPTANCE 8 scenario-S: PASS (all-correct groups cannot "
          "synchronize in the straddled epoch; the boundary exchange costs "
          ">= n*(2f+1) words and synchronization lands in the next epoch)")


def test_criterion_9_determinism():
    digests = []
    rows = []
    for _ in range(3):
        res = run_scenario(worst_case(7, 4, "squad"))
        digests.append(res.trace.sha256())
        rows.append(res.report.csv_row())
    assert digests[0] == digests[1] == digests[2]
    assert rows[0] == rows[1] == rows[2]
    print("ACCEPTANCE 9 determinism: PASS (three replays of one "
          "(config, seed) pair give byte-identical traces and CSV rows)")


def test_criterion_10_planted_defect_sensitivity():
    res = run_scenario(worst_case(4, 0, "squad"))
    cfg, crypto = res.config, res.simulation.crypto
    assert {checker_of(name) for name in PLANTED} == set(ALL_CHECKS)
    flagged = {}
    for name, plant in PLANTED.items():
        trace = plant(cfg, crypto, res.trace)
        violations = ALL_CHECKS[checker_of(name)](trace, cfg, crypto)
        assert violations, f"{name} checker passed its planted defect"
        flagged[name] = len(violations)
    print(f"ACCEPTANCE 10 planted-defect-sensitivity: PASS "
          f"({len(flagged)} hand-mutated traces over {len(ALL_CHECKS)} checkers, "
          f"each flagged by its checker)")
