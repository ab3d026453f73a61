"""Metric extraction and invariant checkers, including one planted defect
per checker so none of them can pass vacuously."""

from collections import Counter
from fractions import Fraction
from functools import cached_property
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from squadsim import (build_report, build_simulation, happy, randomized,
                      run_scenario, scenario_s, worst_case)
from squadsim.baselines import WishMsg
from squadsim.consensus import (AllowAnyMsg, Certificate, CertificateMsg,
                                DiscloseMsg, value_message)
from squadsim.crypto import CryptoSystem, ThresholdSignature, digest_of
from squadsim.metrics import (ALL_CHECKS, CERT_MESSAGE_TYPES, SYNC_MESSAGE_TYPES,
                              RunFacts, _window_words, check_cert_computability,
                              check_conflicting_qcs, check_delay_bounds,
                              check_epoch_budget, check_epoch_entry_quorum,
                              check_invariants, checks_for,
                              check_message_words, check_quiet_period,
                              check_unforgeable_sigs, count_words, facts_of,
                              index_of, sync_window_words)
from squadsim.raresync import EnterEpochMsg, EpochCompletedMsg, epoch_message, leader
from squadsim.viewcore import (PHASE_PREPARE, PRECOMMIT, CoreMessage,
                               QuorumCertificate, vote_message)
from squadsim.trace import SendCall, Trace, TraceEvent
from tests.exact_times import exact_cases
from tests.log_builder import LogBuilder
from tests.planted import PLANTED, checker_of


@pytest.fixture(scope="module")
def happy_run():
    return run_scenario(happy(4, 0))


@pytest.fixture()
def wc_run():
    return run_scenario(worst_case(4, 0, "squad"))


def advance(trace, time, pid, view):
    trace.append(TraceEvent(Fraction(time), pid, "advance", f"v={view}", 0,
                            payload=view))



def test_message_classes_are_the_layers_own():
    assert SYNC_MESSAGE_TYPES == (EpochCompletedMsg, EnterEpochMsg, WishMsg)
    assert CERT_MESSAGE_TYPES == (DiscloseMsg, AllowAnyMsg, CertificateMsg)


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 4), st.integers(1, 9)),
                max_size=30))
@settings(max_examples=200, deadline=None)
def test_epoch_entry_quorum_equals_an_all_pairs_scan(advances):
    cfg = happy(4, 0, "squad")
    cfg.byzantine = frozenset({4})
    trace = Trace()
    for time, pid, view in advances:   # any order: entries need not be sorted
        advance(trace, Fraction(time, 2), pid, view)
    entries = facts_of(trace, cfg).entries
    expected = []
    for pid, mine in entries.items():
        for t, e in mine:
            supporters = sum(1 for theirs in entries.values()
                             if any(eq == e - 1 and tq <= t for tq, eq in theirs))
            if e > 1 and supporters < cfg.f + 1:
                expected.append(f"epoch_entry_quorum: P{pid} entered epoch {e} at {t} "
                                f"with only {supporters} correct entries to {e - 1}")
    assert check_epoch_entry_quorum(trace, cfg, _CRYPTO) == expected


# -- extraction ---------------------------------------------------------------

def test_count_words_window(happy_run):
    trace, cfg = happy_run.trace, happy_run.config
    t_d = facts_of(trace, cfg).t_d
    assert count_words(trace, cfg.gst, t_d) == 32
    # everything in this run is sent at or after GST
    assert count_words(trace, cfg.gst + 100, t_d) == 0


def test_all_sends_before_gst_count_zero():
    b = LogBuilder()
    for t in (10, 20, 30):
        b.send(t, 1)
    assert count_words(b.trace, Fraction(50), Fraction(100)) == 0


def test_index_follows_events_appended_after_it_was_built():
    b = LogBuilder()
    b.send(60, 1)
    assert count_words(b.trace, Fraction(50), None) == 1
    b.send(70, 2, words=2)
    assert count_words(b.trace, Fraction(50), None) == 3


# window membership is decided per time object; equal but distinct objects,
# out-of-order times and both window edges must still count every send
_edges = [Fraction(49), Fraction(50), Fraction(101, 2), Fraction(60), Fraction(121, 2)]
_edge_index = st.integers(0, len(_edges) - 1)


@given(st.lists(st.tuples(_edge_index, st.booleans(), st.integers(1, 3),
                          st.sampled_from(["send", "byz"]), st.booleans()),
                max_size=30),
       _edge_index, st.one_of(st.none(), _edge_index))
@settings(max_examples=200, deadline=None)
def test_window_words_equal_a_per_event_sum(sends, lo_at, hi_at):
    lo = _edges[lo_at]
    hi = None if hi_at is None else _edges[hi_at]
    b = LogBuilder()
    trace = b.trace
    for at, shared, words, kind, sync in sends:
        t = _edges[at] if shared else Fraction(_edges[at].numerator,
                                               _edges[at].denominator)
        b.send(t, 1, WishMsg(2) if sync else "other", words=words, kind=kind)

    def naive(sync_only):
        return sum(ev.words for ev in trace.events
                   if ev.kind == "send" and lo <= ev.time
                   and (hi is None or ev.time <= hi)
                   and (not sync_only or isinstance(ev.payload, WishMsg)))

    cfg = SimpleNamespace(gst=lo, overlap=Fraction(8))
    assert count_words(trace, lo, hi) == naive(False)
    t_s = None if hi is None else hi - cfg.overlap
    assert sync_window_words(trace, cfg, t_s) == naive(True)


def test_find_sync_time_interval_intersection():
    cfg = happy(4, 0)
    cfg.gst = Fraction(0)
    trace = Trace()
    # all enter view 9 (leader P_2 correct... 9 mod 4 = 1 -> P_2) at
    # 100/101/101.5 and leave at 112+
    for pid, t in ((1, 100), (2, 101), (3, Fraction(203, 2)), (4, 100)):
        advance(trace, t, pid, 9)
    for pid in (1, 2, 3, 4):
        advance(trace, 112, pid, 10)
    t_s = facts_of(trace, cfg).t_s
    assert t_s == Fraction(203, 2)


def test_find_sync_time_short_overlap_rejected():
    cfg = happy(4, 0)
    cfg.gst = Fraction(0)
    trace = Trace()
    for pid in (1, 2, 3, 4):
        advance(trace, 100, pid, 9)
        advance(trace, 104, pid, 10)   # view 9 overlap is 4 < 8
    # the view-9 window is rejected; the sync lands in view 10's open dwell
    assert facts_of(trace, cfg).t_s == 104


def test_find_sync_time_skips_byzantine_leader():
    cfg = happy(4, 0)
    cfg.gst = Fraction(0)
    cfg.byzantine = frozenset({2})    # leader of view 9
    trace = Trace()
    for pid in (1, 3, 4):
        advance(trace, 100, pid, 9)
    assert facts_of(trace, cfg).t_s is None


def test_sync_reference_shifts_with_late_starts():
    cfg = happy(4, 0, "squad")
    res = run_scenario(cfg)
    # certification delays consensus starts past GST by up to 2*delta
    t0 = facts_of(res.trace, cfg).sync_reference
    assert cfg.gst < t0 <= cfg.gst + 2 * cfg.delta


# -- run facts ----------------------------------------------------------------

def _append_advance(trace, cfg):
    # P1 leaves the synchronized view long before the overlap is over
    advance(trace, facts_of(trace, cfg).t_s + 1, 1,
            trace.index.advances[1][-1][1] + 1)


def _raise_gst(trace, cfg):
    cfg.gst += 40


def _clear_byzantine(trace, cfg):
    cfg.byzantine = frozenset()


@pytest.mark.parametrize("mutate", [_append_advance, _raise_gst, _clear_byzantine])
def test_run_facts_follow_new_events_and_config_values(wc_run, mutate):
    trace, cfg = wc_run.trace, wc_run.config

    def facts(t):
        return facts_of(t, cfg).t_s, facts_of(t, cfg).stable_epochs[1]

    before = facts(trace)   # the report already derived these
    mutate(trace, cfg)
    assert facts(trace) == facts(Trace(log=list(trace.log))) != before


def test_report_derives_each_run_fact_once(monkeypatch):
    # the constructor derives the correct pids and their advances
    props = {name: prop for name, prop in vars(RunFacts).items()
             if isinstance(prop, cached_property)}
    assert set(props) == {"entries", "views", "sync_reference", "stable_epochs",
                          "t_s", "t_d", "window_entries"}
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name, prop in props.items():
        monkeypatch.setattr(prop, "func", counting(name, prop.func))
    monkeypatch.setattr(RunFacts, "__init__", counting("__init__", RunFacts.__init__))
    cfg = worst_case(7, 0, "squad")
    sim = build_simulation(cfg)
    build_report(sim.run(cfg.horizon), cfg, sim.crypto)
    assert calls == {name: 1 for name in [*props, "__init__"]}


def test_crypto_is_a_required_argument(happy_run):
    trace, cfg = happy_run.trace, happy_run.config
    for fn in (check_invariants, build_report, *ALL_CHECKS.values()):
        with pytest.raises(TypeError):
            fn(trace, cfg)


# -- clean runs pass ----------------------------------------------------------

def test_clean_runs_have_no_violations(happy_run, wc_run):
    for run in (happy_run, wc_run):
        assert check_invariants(run.trace, run.config,
                                run.simulation.crypto) == []


_ALWAYS = ["monotonic_views", "message_words", "delay_bounds",          # generic
           "agreement", "conflicting_qcs", "unforgeable_sigs", "core_word_budget"]
_RARESYNC = ["no_view_skip", "view_bounds", "epoch_entry_quorum", "quiet_period",
             "tight_entry", "view_overlap", "entry_bound", "epoch_budget",
             "entry_spacing", "epoch_succession"]
_CERT = ["cert_computability", "cert_liveness", "cert_word_budget"]


@pytest.mark.parametrize("protocol, names", [
    ("raresync-quad", _ALWAYS + _RARESYNC),
    ("squad", _ALWAYS + _RARESYNC + _CERT),
    ("alltoall", _ALWAYS),
    ("doubling", _ALWAYS),
])
def test_checkers_run_for_each_protocol(protocol, names):
    # in this order: a run's violations are listed checker by checker
    assert list(checks_for(protocol)) == names


# -- planted defects: every checker must flag its mutation --------------------

@pytest.mark.parametrize("name", sorted(PLANTED))
def test_planted_defect_is_flagged(name, wc_run):
    cfg, crypto = wc_run.config, wc_run.simulation.crypto
    trace = PLANTED[name](cfg, crypto, wc_run.trace)
    check = checker_of(name)
    violations = ALL_CHECKS[check](trace, cfg, crypto)
    assert violations, f"{check} checker passed its planted defect {name}"
    assert all(check in v for v in violations)


@pytest.mark.parametrize("name, verdict", [
    ("delay_bounds", ["delay_bounds: envelope #77 sent 51 delivered 53"]),
    ("delay_bounds.unpaired", ["delay_bounds: envelope #77 delivered but never sent"]),
])
def test_planted_delay_defects_give_their_exact_lines(name, verdict, wc_run):
    cfg, crypto = wc_run.config, wc_run.simulation.crypto
    assert check_delay_bounds(PLANTED[name](cfg, crypto, wc_run.trace), cfg,
                              crypto) == verdict


def test_delay_check_reads_deliveries_appended_to_an_engine_log(wc_run):
    # after the run's own log: a late second delivery of a seq the engine
    # sent, and a delivery of a seq nobody sent
    cfg, crypto = wc_run.config, wc_run.simulation.crypto
    b = LogBuilder(Trace(log=list(wc_run.trace.log)))
    assert check_delay_bounds(b.trace, cfg, crypto) == []
    last = [entry for entry in b.trace.log if type(entry) is SendCall][-1]
    assert last.time >= cfg.gst
    late, missing = last.time + 2 * cfg.delta, b.next_seq
    b.deliver(late, last.seq)
    b.deliver(late, missing)
    assert check_delay_bounds(b.trace, cfg, crypto) == [
        f"delay_bounds: envelope #{last.seq} sent {last.time} delivered {late}",
        f"delay_bounds: envelope #{missing} delivered but never sent"]


# -- memoized checkers still report once per event ----------------------------

def test_shared_illegal_delay_is_reported_per_delivery():
    cfg = SimpleNamespace(gst=Fraction(50), delta=Fraction(1))
    b = LogBuilder()
    sent, late, ok = Fraction(60), Fraction(62), Fraction(61)
    early_sent, early = Fraction(10), Fraction(9)
    plan = [(sent, late)] * 5 + [(sent, ok)] * 3 + [(early_sent, early)] * 2
    for seq, (t_send, t_deliver) in enumerate(plan, start=1):
        b.send(t_send, 1, seq=seq)
        b.deliver(t_deliver, seq)
    out = check_delay_bounds(b.trace, cfg, None)
    late_lines = [v for v in out if "sent 60 delivered 62" in v]
    assert {v.split("#")[1].split()[0] for v in late_lines} == {"1", "2", "3", "4", "5"}
    assert sorted(v for v in out if "before sent" in v) == [
        "delay_bounds: envelope #10 delivered before sent",
        "delay_bounds: envelope #9 delivered before sent"]
    assert len(out) == 7


@given(exact_cases())
@settings(max_examples=400, deadline=None)
def test_delay_verdict_agrees_with_fraction_operators(case):
    gst, delta, sent, delivered = case
    cfg = SimpleNamespace(gst=gst, delta=delta)
    b = LogBuilder()
    b.send(sent, 1, seq=1)
    b.deliver(delivered, 1)
    delay = delivered - sent
    if sent >= gst and not (0 < delay <= delta):
        expected = [f"delay_bounds: envelope #1 sent {sent} delivered {delivered}"]
    elif delay < 0:
        expected = ["delay_bounds: envelope #1 delivered before sent"]
    else:
        expected = []
    assert check_delay_bounds(b.trace, cfg, None) == expected


def test_fabricated_deliveries_are_reported():
    cfg = SimpleNamespace(gst=Fraction(50), delta=Fraction(1))
    b = LogBuilder()
    b.send(60, 1, receivers=(2, 3), seq=3)
    for seq in (3, 4, 5, 0, 2):
        b.deliver(61, seq)
    assert check_delay_bounds(b.trace, cfg, None) == [
        "delay_bounds: envelope #5 delivered but never sent",
        "delay_bounds: envelope #0 delivered but never sent",
        "delay_bounds: envelope #2 delivered but never sent"]


def _broadcast(builder, time, sender, payload, n=4):
    builder.send(time, sender, payload, receivers=range(1, n + 1))


def test_forged_broadcast_is_reported_per_copy():
    crypto = CryptoSystem(4, 1)
    cfg = happy(4, 0)
    forged = ThresholdSignature("(epoch,3)", frozenset({1, 2, 3}), "quorum")
    b = LogBuilder()
    _broadcast(b, 7, 1, EnterEpochMsg(3, forged))
    # an equal but distinct payload is checked on its own and reported too
    _broadcast(b, 8, 2, EnterEpochMsg(3, forged), n=1)
    out = check_unforgeable_sigs(b.trace, cfg, crypto)
    assert len(out) == 5
    assert len(set(out)) == 1 and "sig((epoch,3),{1,2,3})" in out[0]


@pytest.mark.parametrize("scheme, honest, reported", [
    ("quorum", 2, False), ("quorum", 1, True),   # k = 2f+1 needs f+1 honest
    ("cert", 1, False), ("cert", 0, True),       # k = f+1 needs one honest
    ("other", 0, False)])                        # an unknown scheme: no line
def test_unforgeable_threshold_is_the_scheme_k(scheme, honest, reported):
    crypto = CryptoSystem(4, 1)
    for p in range(1, honest + 1):
        crypto.share_sign(p, epoch_message(3), scheme)
    tsig = ThresholdSignature(epoch_message(3), frozenset({1, 2, 3}), scheme)
    b = LogBuilder()
    _broadcast(b, 7, 4, EnterEpochMsg(4, tsig), n=1)
    out = check_unforgeable_sigs(b.trace, happy(4, 0), crypto)
    assert bool(out) is reported


def test_qc_verdicts_are_kept_per_qc():
    crypto = CryptoSystem(4, 1)
    b = LogBuilder()
    # a forged QC first, then two genuine ones with different values: the
    # forged one's verdict must not stand in for the others
    forged = QuorumCertificate(PHASE_PREPARE, "x", 5, ThresholdSignature(
        digest_of(vote_message(PHASE_PREPARE, "x", 5)), frozenset({1, 2, 3}), "quorum"))
    _broadcast(b, 1, 2, CoreMessage(PRECOMMIT, 5, qc=forged))
    for time, value in ((2, "a"), (3, "b")):
        sig = crypto.combine([crypto.share_sign(p, vote_message(PHASE_PREPARE, value, 5),
                                                "quorum") for p in (1, 2, 3)])
        qc = QuorumCertificate(PHASE_PREPARE, value, 5, sig)
        _broadcast(b, time, 2, CoreMessage(PRECOMMIT, 5, qc=qc))
    out = check_conflicting_qcs(b.trace, None, crypto)
    assert out == ["conflicting_qcs: prepare QCs for view 5 carry values a and b"]


def test_verifying_certificate_is_reported_per_copy():
    crypto = CryptoSystem(4, 1)
    cfg = happy(4, 0, "squad")
    cfg.proposals = {p: 5 for p in range(1, 5)}
    tsig = crypto.combine([crypto.share_sign(p, value_message(8), "cert")
                           for p in (1, 2)])
    b = LogBuilder()
    _broadcast(b, 1, 3, CertificateMsg(8, Certificate(8, tsig)))
    out = check_cert_computability(b.trace, cfg, crypto)
    assert out == ["cert_computability: certificate for 8 appeared despite "
                   "unanimity on 5"] * 4


def test_certificate_verdicts_are_kept_per_value():
    crypto = CryptoSystem(4, 1)
    cfg = happy(4, 0, "squad")
    cfg.proposals = {p: 5 for p in range(1, 5)}
    cert = Certificate(8, crypto.combine([crypto.share_sign(p, value_message(8), "cert")
                                          for p in (1, 2)]))
    b = LogBuilder()
    # the same certificate claimed for 5 (does not verify), then carried for 8
    _broadcast(b, 1, 3, CertificateMsg(5, cert), n=1)
    _broadcast(b, 2, 3, CoreMessage(PRECOMMIT, 5, cert=cert), n=1)
    out = check_cert_computability(b.trace, cfg, crypto)
    assert out == ["cert_computability: certificate for 8 appeared despite "
                   "unanimity on 5"]


def test_cert_computability_verifies_each_certificate_once(monkeypatch):
    res = run_scenario(worst_case(7, 0, "squad"))
    certs = {id(ev.payload.cert) for ev in res.trace.events
             if ev.kind in ("send", "byz")
             and isinstance(getattr(ev.payload, "cert", None), Certificate)}
    crypto, calls = res.simulation.crypto, []
    verify = crypto.combined_verify
    monkeypatch.setattr(crypto, "combined_verify",
                        lambda *args: calls.append(args) or verify(*args))
    assert check_cert_computability(res.trace, res.config, crypto) == []
    assert 0 < len(calls) <= 2 * len(certs)


# -- message records give the per-copy answer ---------------------------------

_CRYPTO = CryptoSystem(4, 1)


def _qc(value):
    message = vote_message(PHASE_PREPARE, value, 5)
    return QuorumCertificate(PHASE_PREPARE, value, 5, _CRYPTO.combine(
        [_CRYPTO.share_sign(p, message, "quorum") for p in (1, 2, 3)]))


_EC_PSIG = _CRYPTO.share_sign(1, epoch_message(2), "quorum")
_CERT8 = Certificate(8, _CRYPTO.combine([_CRYPTO.share_sign(p, value_message(8), "cert")
                                         for p in (1, 2)]))
_FORGED_QC = QuorumCertificate(PHASE_PREPARE, "x", 5, ThresholdSignature(
    digest_of(vote_message(PHASE_PREPARE, "x", 5)), frozenset({1, 2, 3}), "quorum"))
# what each send-walking checker reads, with two equal but distinct payloads
_PAYLOADS = [
    EpochCompletedMsg(2, _EC_PSIG), EpochCompletedMsg(2, _EC_PSIG),
    EpochCompletedMsg(1, _EC_PSIG),
    EnterEpochMsg(3, ThresholdSignature("(epoch,3)", frozenset({1, 2, 3}), "quorum")),
    CoreMessage(PRECOMMIT, 5, qc=_qc("a")), CoreMessage(PRECOMMIT, 5, qc=_qc("b")),
    CoreMessage(PRECOMMIT, 5, qc=_FORGED_QC), CoreMessage("PREPARE-VOTE", 1, value=1),
    CertificateMsg(8, _CERT8), DiscloseMsg(7, _EC_PSIG), WishMsg(2), "other"]
# around GST 50 with delta 1; the entries below put t_ef at 52
_TIMES = [Fraction(40), Fraction(50), Fraction(101, 2), Fraction(51), Fraction(52),
          Fraction(60), Fraction(80)]


def _record_cfg():
    cfg = happy(4, 0, "squad")
    cfg.byzantine = frozenset({4})
    cfg.proposals = {p: 5 for p in range(1, 5)}
    return cfg


def _at(i, shared):
    """The i-th time: the shared object, or an equal but distinct one."""
    return _TIMES[i] if shared else Fraction(_TIMES[i].numerator, _TIMES[i].denominator)


_times = st.integers(0, len(_TIMES) - 1)
_message_step = st.tuples(
    st.just("message"), st.integers(0, len(_PAYLOADS) - 1), _times, st.booleans(),
    st.integers(1, 4), st.sampled_from(["send", "byz"]), st.integers(0, 2),
    st.sampled_from([1, 2, 4, 13]), st.sampled_from(["seq", "seq", "gap"]),
    st.sampled_from([None, None, "same", "words", "kind", "process"]))
_deliver_step = st.tuples(st.just("deliver"), st.integers(0, 40), _times, st.booleans())
_steps = st.lists(st.one_of(_message_step, _deliver_step, st.just(("timer",))),
                  min_size=8, max_size=40)


def _record_trace(steps):
    """Broadcasts and point-to-point send calls, with deliveries (of a seq
    some call sent, before or after it, or of one none sent) and timers
    in between."""
    b = LogBuilder()
    for pid in (1, 2, 3):
        b.event(10, pid, "advance", "v=1", 1)
        b.event(52, pid, "advance", "v=3", 3)
    # one more than P1's certification budget (3n), over two calls with a
    # seq gap between them, so its line always shows the count; in between,
    # P2 broadcasts a genuine QC, which a later one for "b" conflicts with
    b.send(_TIMES[0], 1, _PAYLOADS[9], receivers=range(1, 8))
    b.send(_TIMES[0], 2, _PAYLOADS[4], receivers=range(1, 5))
    b.send(_TIMES[0], 1, _PAYLOADS[9], receivers=range(8, 14), seq=b.next_seq + 1)
    last = None
    for step in steps:
        if step[0] == "message":
            _, payload, at, shared, pid, kind, words, copies, numbering, like = step
            call = (_at(at, shared), _PAYLOADS[payload], pid, kind, words)
            if like and last is not None:
                # the last call again on the next seqs, alike in all but at
                # most one field
                t, payload, pid, kind, words = last
                call = (t, payload, pid % 4 + 1 if like == "process" else pid,
                        {"send": "byz", "byz": "send"}[kind] if like == "kind" else kind,
                        (words + 1) % 3 if like == "words" else words)
            last = t, payload, pid, kind, words = call   # one time object per call
            b.send(t, pid, payload, words=words, kind=kind,
                   receivers=range(1, copies + 1),
                   seq=b.next_seq + (numbering == "gap"))
        elif step[0] == "deliver":
            _, target, at, shared = step
            b.deliver(_at(at, shared), target)
        else:
            b.event(_TIMES[0], 1, "timer", "view_timer:gen1")
    return b.trace


def _copies(trace) -> list[SendCall]:
    """Each copy of each send call of the log, as a one-receiver call."""
    return [SendCall(call.time, call.process, call.kind, call.words, call.payload,
                     call.seq + i, (receiver,))
            for call in trace.log if type(call) is SendCall
            for i, receiver in enumerate(call.receivers)]


def _per_copy(trace, cfg, crypto):
    """Every send-walking check and both word windows, walked copy by copy
    with Fraction operators: the answer the message records must give."""
    emitted = _copies(trace)
    sends = [copy for copy in emitted if copy.kind == "send"]
    facts = facts_of(trace, cfg)
    correct = facts.correct
    rest = [entry for entry in trace.log if type(entry) is TraceEvent]

    def alone(check):
        # a check whose lines are per copy, run on each copy by itself
        return [line for copy in emitted
                for line in check(Trace(log=rest + [copy]), cfg, crypto)]

    def window(lo, hi, types=object):
        return sum(ev.words for ev in sends if lo <= ev.time
                   and (hi is None or ev.time <= hi) and isinstance(ev.payload, types))

    core = Counter((ev.process, ev.payload.view) for ev in sends
                   if isinstance(ev.payload, CoreMessage))
    cert = Counter(ev.process for ev in sends if isinstance(ev.payload, CERT_MESSAGE_TYPES))
    exits = {}
    for ev in sends:
        if isinstance(ev.payload, CertificateMsg):
            exits.setdefault(ev.process, ev.time)
    deadline = cfg.gst + 2 * cfg.delta
    seen, conflicts = {}, []
    for ev in emitted:
        qc = getattr(ev.payload, "qc", None)
        if qc is None or not crypto.combined_verify(
                vote_message(qc.phase, qc.value, qc.view), qc.sig):
            continue
        key = (qc.phase, qc.view)
        if seen.setdefault(key, qc.value) != qc.value and not conflicts:
            conflicts.append(f"conflicting_qcs: {qc.phase} QCs for view {qc.view} "
                             f"carry values {seen[key]} and {qc.value}")
    by_seq = {copy.seq: copy for copy in emitted}   # a later call wins a seq
    delays = []
    now = None
    for entry in trace.log:
        if type(entry) is Fraction:
            now = entry
        if type(entry) is not int:
            continue
        origin = by_seq.get(entry)
        if origin is None:
            delays.append(f"delay_bounds: envelope #{entry} delivered but never sent")
        elif origin.time >= cfg.gst and not 0 < now - origin.time <= cfg.delta:
            delays.append(f"delay_bounds: envelope #{entry} sent {origin.time} "
                          f"delivered {now}")
        elif now < origin.time:
            delays.append(f"delay_bounds: envelope #{entry} delivered before sent")
    return {
        "words": (window(cfg.gst, facts.t_d), window(cfg.gst, None, SYNC_MESSAGE_TYPES),
                  window(_TIMES[2], _TIMES[5], SYNC_MESSAGE_TYPES)),
        "quiet_period": alone(check_quiet_period),
        "unforgeable_sigs": alone(check_unforgeable_sigs),
        "message_words": alone(check_message_words),
        "cert_computability": alone(check_cert_computability),
        "core_word_budget": [
            f"core_word_budget: P{pid} sent {cnt} view-core messages in view {view} "
            f"(bound {4 * cfg.n + 4 if leader(view, cfg.n) == pid else 4})"
            for (pid, view), cnt in sorted(core.items())
            if cnt > (4 * cfg.n + 4 if leader(view, cfg.n) == pid else 4)],
        "cert_word_budget": [
            f"cert_word_budget: P{pid} sent {cert[pid]} certification messages "
            f"(> {3 * cfg.n})" for pid in correct if cert[pid] > 3 * cfg.n],
        "cert_liveness": [
            f"cert_liveness: P{pid} never obtained a certificate" if pid not in exits
            else f"cert_liveness: P{pid} exited certification at {exits[pid]} > {deadline}"
            for pid in correct if pid not in exits or exits[pid] > deadline],
        "conflicting_qcs": conflicts,
        "delay_bounds": delays,
    }


@given(_steps)
@settings(max_examples=150, deadline=None)
def test_message_records_give_the_per_copy_answer(steps):
    cfg, crypto = _record_cfg(), _CRYPTO
    trace = _record_trace(steps)
    expected = _per_copy(trace, cfg, crypto)
    facts = facts_of(trace, cfg)
    assert expected.pop("words") == (
        count_words(trace, cfg.gst, facts.t_d), sync_window_words(trace, cfg, None),
        _window_words(trace, _TIMES[2], _TIMES[5], SYNC_MESSAGE_TYPES))
    assert {name: ALL_CHECKS[name](trace, cfg, crypto) for name in expected} == expected
    index = index_of(trace)
    assert sum(copies for _, copies in index.messages) == len(_copies(trace))


@pytest.mark.parametrize("cfg", [worst_case(13, 0, "squad"), worst_case(13, 0, "alltoall"),
                                 *(randomized(4, seed) for seed in range(20))],
                         ids=lambda cfg: f"{cfg.name}-{cfg.protocol}-{cfg.n}-s{cfg.seed}")
def test_records_cover_every_copy_of_a_real_run(cfg):
    trace = run_scenario(cfg).trace
    index = index_of(trace)
    emitted = [ev for ev in trace.events if ev.kind in ("send", "byz")]
    assert sum(copies for _, copies in index.messages) == len(emitted)
    # broadcasts are grouped: fewer records than copies
    assert len(index.messages) < len(emitted)


def _same_drain_deliveries(log) -> list[int]:
    """The seqs delivered while the bucket of the instant that sent them
    was still draining: no instant entry lies between the send call and
    the delivery, so the engine pushed the copy into the bucket it was
    draining (a pre-GST zero delay)."""
    out, sent_here = [], set()
    for entry in log:
        if type(entry) is Fraction:
            sent_here = set()
        elif type(entry) is SendCall:
            sent_here.update(range(entry.seq, entry.seq + len(entry.receivers)))
        elif type(entry) is int and entry in sent_here:
            out.append(entry)
    return out


# (run, the engine's rare paths it must take): worst_case squad releases
# certification messages at their send instant, and randomized seed 15
# stops at its last correct decision with copies of that instant queued
_PATH_RUNS = [(worst_case(13, 0, "squad"), {"same_drain"}),
              (worst_case(13, 0, "alltoall"), set()), (scenario_s(7, 0), set()),
              *((randomized(4, seed), {"mid_instant"} if seed == 15 else set())
                for seed in range(20))]


@pytest.mark.parametrize("cfg, paths", _PATH_RUNS,
                         ids=[f"{cfg.name}-{cfg.protocol}-{cfg.n}-s{cfg.seed}"
                              for cfg, _ in _PATH_RUNS])
def test_rare_engine_paths_log_what_their_lines_say(cfg, paths):
    # the engine's log (send calls, delivered seqs and instants) serializes
    # as its events' lines, also where a copy lands in the bucket being
    # drained or the run stops with copies of its instant still queued
    result = run_scenario(cfg)
    sim, trace = result.simulation, result.trace
    taken = set()
    if _same_drain_deliveries(trace.log):
        taken.add("same_drain")
    if not trace.horizon_hit and \
            (sim.now.numerator, sim.now.denominator) in sim._buckets:
        taken.add("mid_instant")
    assert paths <= taken
    events = list(trace.events)
    assert trace.serialize() == "".join(ev.line() + "\n" for ev in events)
    assert index_of(trace).end_time == events[-1].time


def test_end_time_is_the_time_of_the_last_line():
    # an instant has no line of its own, and a delivered seq is at the
    # instant logged before it
    call = SendCall(Fraction(1), 1, "send", 1, "m", 5, (2, 3))
    trace = Trace()
    for entry in (Fraction(1), call, Fraction(2), 5, 6):
        trace.append(entry)
    assert index_of(trace).end_time == Fraction(2) == list(trace.events)[-1].time
    trace.append(Fraction(3))   # an instant that logged nothing: a retired timer
    assert index_of(trace).end_time == Fraction(2)
    trace.append(TraceEvent(Fraction(3), 1, "advance", "v=2", 0, 2))
    assert index_of(trace).end_time == Fraction(3)
    assert index_of(Trace()).end_time == 0


@pytest.mark.parametrize("kind", ["send", "byz", "deliver"])
def test_a_message_logged_as_an_event_is_refused(kind, wc_run):
    # no checker reads a message TraceEvent, so a log holding one is refused
    # rather than checked without it
    cfg, crypto = wc_run.config, wc_run.simulation.crypto
    stray = TraceEvent(Fraction(60), 2, kind, None, 1, "m", 1, 2, 7)
    trace = Trace(log=[*wc_run.trace.log, stray])
    for read in (index_of, lambda t: build_report(t, cfg, crypto)):
        with pytest.raises(ValueError, match=f"kind='{kind}'"):
            read(trace)


def test_planted_registry_covers_every_checker():
    assert {checker_of(name) for name in PLANTED} == set(ALL_CHECKS)
