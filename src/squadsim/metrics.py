"""Word accounting, latency extraction, and the trace invariant suite.

Word counting follows the complexity definitions: only words sent by
correct processes inside [GST, t_d] count toward a run's communication,
where t_d is the first time every correct process has decided; a separate
window [GST, t_s + overlap] restricted to synchronizer-class messages
measures the synchronizer on its own terms.

The invariant checkers turn the synchronizer's correctness argument into
executable assertions over full traces: monotone views, no view skipping,
epoch-entry quorums, the post-stabilization quiet period, tight epoch
entry, per-view overlap, the epoch-entry latency bound, the constant
epoch budget, minimum spacing of epoch entries, successor structure of
the first stable epoch, plus consensus safety (agreement, no conflicting
quorum certificates), signature unforgeability, per-view word budgets,
network delay legality, and the certification phase's computability,
liveness and word budget.

Every extractor and checker reads a ``TraceIndex``: advances per
process, first decisions, sends grouped by sender, emitted messages and
deliveries, gathered in a single pass over ``trace.events`` and cached
on the trace (``index_of``). No other code here walks the event list.

Exact predicates are decided once per distinct input and the verdict is
replayed to every event sharing it: the n copies of a broadcast share one
send-time object, one delivery-time object and one payload. Delay
legality is kept per (send time, delivery time) pair, window membership
per send time, and signature or certificate verification per payload, QC
or certificate. These memos are keyed by ``id()`` and live only for one
checker call, while the trace holds every keyed object, so an id cannot
be reused under them; an equal but distinct object just misses the memo.
Every event still gets its own violation line.

Bounds are checked with exact rational arithmetic. The delay check, which
sees every delivery, decides late or early from integer cross-products of
the send time, delivery time, GST and delta (numerators and positive
denominators), with no float and no ``Fraction`` temporaries. A few
properties are promises about infinite executions; their missing-event
forms are applied only when the (finite) trace demonstrably ran long
enough to owe the event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .consensus import ANY_VALUE_TAG, Certificate, CertificateMsg, AllowAnyMsg, \
    DiscloseMsg, value_message
from .crypto import ThresholdSignature
from .raresync import EnterEpochMsg, EpochCompletedMsg, leader
from .baselines import WishMsg
from .trace import Trace, TraceEvent
from .viewcore import CoreMessage, QuorumCertificate, vote_message

SYNC_MESSAGE_TYPES = (EpochCompletedMsg, EnterEpochMsg, WishMsg)
CERT_MESSAGE_TYPES = (DiscloseMsg, AllowAnyMsg, CertificateMsg)


# --------------------------------------------------------------------------
# Trace index
# --------------------------------------------------------------------------

class TraceIndex:
    """The events every extractor and checker needs, grouped in one pass.

    ``sends`` holds correct processes' sends (kind ``send``), ``emitted``
    adds Byzantine emissions (kind ``byz``); both keep trace order.
    """

    def __init__(self, trace: Trace):
        self.size = len(trace.events)
        self.advances: dict[int, list[tuple[Fraction, int]]] = {}
        self.decisions: dict[int, tuple[Fraction, object]] = {}
        self.sends: list[TraceEvent] = []
        self.sends_by: dict[int, list[TraceEvent]] = {}
        self.emitted: list[TraceEvent] = []
        self.delivers: list[TraceEvent] = []
        for ev in trace.events:
            kind = ev.kind
            if kind == "send":
                self.sends.append(ev)
                self.sends_by.setdefault(ev.process, []).append(ev)
                self.emitted.append(ev)
            elif kind == "deliver":
                self.delivers.append(ev)
            elif kind == "byz":
                self.emitted.append(ev)
            elif kind == "advance":
                self.advances.setdefault(ev.process, []).append((ev.time, ev.payload))
            elif kind == "decide":
                self.decisions.setdefault(ev.process, (ev.time, ev.payload))
        self.end_time = trace.events[-1].time if trace.events else Fraction(0)


def index_of(trace: Trace) -> TraceIndex:
    """The trace's cached index, rebuilt when events were appended since."""
    index = trace.index
    if index is None or index.size != len(trace.events):
        index = trace.index = TraceIndex(trace)
    return index


# --------------------------------------------------------------------------
# Extraction helpers
# --------------------------------------------------------------------------

def decide_times(trace: Trace) -> dict[int, tuple[Fraction, object]]:
    return dict(index_of(trace).decisions)


def decision_time(trace: Trace) -> Optional[Fraction]:
    """First time by which all correct processes have decided."""
    decided = index_of(trace).decisions
    correct = trace.correct()
    if any(p not in decided for p in correct):
        return None
    return max(decided[p][0] for p in correct)


def advances(trace: Trace, pid: int) -> list[tuple[Fraction, int]]:
    return index_of(trace).advances.get(pid, [])


def view_intervals(trace: Trace, pid: int):
    """(view, entry, exit) triples; exit None means 'until trace end'."""
    seq = advances(trace, pid)
    out = []
    for i, (t, v) in enumerate(seq):
        end = seq[i + 1][0] if i + 1 < len(seq) else None
        out.append((v, t, end))
    return out


def epoch_of(view: int, f: int) -> int:
    return (view - 1) // (f + 1) + 1


def in_epoch_index(view: int, f: int) -> int:
    return (view - 1) % (f + 1) + 1


def epoch_entries(trace: Trace, pid: int, f: int) -> list[tuple[Fraction, int]]:
    return [(t, epoch_of(v, f)) for t, v in advances(trace, pid)
            if v >= 1 and in_epoch_index(v, f) == 1]


def sync_reference_time(trace: Trace, cfg) -> Fraction:
    """GST, pushed later if some correct process only began running its
    synchronizer after GST (the certified composition may do that); all
    entry-latency bounds are relative to the moment every correct process
    is both stabilized and running."""
    t0 = Fraction(cfg.gst)
    for pid in trace.correct():
        seq = advances(trace, pid)
        if seq:
            t0 = max(t0, seq[0][0])
    return t0


def stable_epochs(trace: Trace, cfg) -> tuple[int, Optional[int], Optional[Fraction]]:
    """(e_max, e_final, t_e_final) relative to the sync reference time."""
    t0 = sync_reference_time(trace, cfg)
    firsts: dict[int, Fraction] = {}   # epoch -> first correct entry
    e_max = 0
    for pid in trace.correct():
        for t, e in epoch_entries(trace, pid, cfg.f):
            if e not in firsts or t < firsts[e]:
                firsts[e] = t
            if t < t0 and e > e_max:
                e_max = e
    candidates = [e for e, t in firsts.items() if t >= t0]
    if not candidates:
        return e_max, None, None
    e_final = min(candidates)
    return e_max, e_final, firsts[e_final]


def find_sync_time(trace: Trace, cfg) -> Optional[Fraction]:
    """Earliest t >= GST with every correct process in one correct-led view
    throughout [t, t + overlap]."""
    correct = trace.correct()
    overlap = cfg.overlap
    per_view: dict[int, dict[int, tuple[Fraction, Optional[Fraction]]]] = {}
    for pid in correct:
        for v, start, end in view_intervals(trace, pid):
            per_view.setdefault(v, {})[pid] = (start, end)
    best = None
    for v, members in per_view.items():
        if len(members) != len(correct):
            continue
        if leader(v, cfg.n) in trace.byzantine:
            continue
        start = max(s for s, _ in members.values())
        ends = [e for _, e in members.values() if e is not None]
        end = min(ends) if ends else None
        t = max(Fraction(cfg.gst), start)
        if end is None or end - t >= overlap:
            if best is None or t < best:
                best = t
    return best


def _window_words(trace: Trace, lo: Fraction, hi: Optional[Fraction],
                  types: Optional[tuple] = None) -> int:
    """Words of correct sends in [lo, hi] (hi None: unbounded), optionally
    only of payloads of ``types``. Sends of one instant share their time
    object, so membership is decided again only when that object changes."""
    total = 0
    last = None
    inside = False
    for ev in index_of(trace).sends:
        t = ev.time
        if t is not last:
            last = t
            inside = t >= lo and (hi is None or t <= hi)
        if inside and (types is None or isinstance(ev.payload, types)):
            total += ev.words
    return total


def count_words(trace: Trace, gst: Fraction, t_d: Optional[Fraction]) -> int:
    """Words sent by correct processes during [GST, t_d]."""
    return _window_words(trace, gst, t_d)


def sync_window_words(trace: Trace, cfg, t_s: Optional[Fraction]) -> int:
    """Synchronizer-class words sent by correct processes in [GST, t_s + overlap]."""
    hi = None if t_s is None else t_s + cfg.overlap
    return _window_words(trace, cfg.gst, hi, SYNC_MESSAGE_TYPES)


def sync_window_entries(trace: Trace, cfg, t_s: Optional[Fraction]) -> dict[int, int]:
    """Epoch entries per correct process in [GST, t_s + overlap] (t_s None:
    unbounded)."""
    hi = None if t_s is None else t_s + cfg.overlap
    return {pid: sum(1 for t, _ in epoch_entries(trace, pid, cfg.f)
                     if t >= cfg.gst and (hi is None or t <= hi))
            for pid in trace.correct()}


def fit_slope(points: dict[int, int]) -> float:
    """Least-squares slope of log(words) against log(n)."""
    xs = [math.log(n) for n in sorted(points)]
    ys = [math.log(points[n]) for n in sorted(points)]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    var = sum((x - mx) ** 2 for x in xs)
    return cov / var


# --------------------------------------------------------------------------
# Invariant checkers. Each returns a list of violation descriptions.
# --------------------------------------------------------------------------

def check_monotonic_views(trace, cfg, crypto=None):
    out = []
    for pid in trace.correct():
        seq = advances(trace, pid)
        for (t1, v1), (t2, v2) in zip(seq, seq[1:]):
            if v2 <= v1:
                out.append(f"monotonic_views: P{pid} advanced {v1} then {v2}")
    return out


def check_no_view_skip(trace, cfg, crypto=None):
    out = []
    for pid in trace.correct():
        seq = [v for _, v in advances(trace, pid)]
        prev = None
        for v in seq:
            if in_epoch_index(v, cfg.f) != 1 and prev != v - 1:
                out.append(f"no_view_skip: P{pid} entered mid-epoch view {v} "
                           f"without view {v - 1}")
            prev = v
    return out


def check_view_bounds(trace, cfg, crypto=None):
    out = []
    limit = cfg.f + 1
    for pid in trace.correct():
        per_epoch: dict[int, int] = {}
        for _, v in advances(trace, pid):
            if v < 1:
                out.append(f"view_bounds: P{pid} advanced to view {v}")
                continue
            e = epoch_of(v, cfg.f)
            per_epoch[e] = per_epoch.get(e, 0) + 1
        for e, cnt in per_epoch.items():
            if cnt > limit:
                out.append(f"view_bounds: P{pid} entered {cnt} views in epoch {e}")
    return out


def check_epoch_entry_quorum(trace, cfg, crypto=None):
    out = []
    correct = trace.correct()
    entries = {pid: epoch_entries(trace, pid, cfg.f) for pid in correct}
    for pid in correct:
        for t, e in entries[pid]:
            if e <= 1:
                continue
            supporters = sum(
                1 for q in correct
                if any(eq == e - 1 and tq <= t for tq, eq in entries[q]))
            if supporters < cfg.f + 1:
                out.append(f"epoch_entry_quorum: P{pid} entered epoch {e} at {t} "
                           f"with only {supporters} correct entries to {e - 1}")
    return out


def check_quiet_period(trace, cfg, crypto=None):
    out = []
    _, e_final, t_ef = stable_epochs(trace, cfg)
    if e_final is None:
        return out
    bound = t_ef + cfg.epoch_duration
    for ev in index_of(trace).sends:
        if (isinstance(ev.payload, EpochCompletedMsg)
                and ev.payload.epoch >= e_final and ev.time < bound):
            out.append(f"quiet_period: P{ev.process} sent EPOCH-COMPLETED for "
                       f"{ev.payload.epoch} at {ev.time} < {bound}")
    return out


def check_tight_entry(trace, cfg, crypto=None):
    out = []
    _, e_final, t_ef = stable_epochs(trace, cfg)
    if e_final is None:
        return out
    end_time = index_of(trace).end_time
    for pid in trace.correct():
        mine = [t for t, e in epoch_entries(trace, pid, cfg.f) if e == e_final]
        if not mine:
            if end_time > t_ef + 2 * cfg.delta:
                out.append(f"tight_entry: P{pid} never entered epoch {e_final} "
                           f"though the run passed {t_ef + 2 * cfg.delta}")
            continue
        if mine[0] > t_ef + 2 * cfg.delta:
            out.append(f"tight_entry: P{pid} entered epoch {e_final} at {mine[0]} "
                       f"> {t_ef + 2 * cfg.delta}")
    return out


def check_view_overlap(trace, cfg, crypto=None):
    out = []
    _, e_final, _ = stable_epochs(trace, cfg)
    if e_final is None:
        return out
    correct = trace.correct()
    lo = (e_final - 1) * (cfg.f + 1) + 1
    views = range(lo, lo + cfg.f + 1)
    intervals = {pid: {v: (s, e) for v, s, e in view_intervals(trace, pid)}
                 for pid in correct}
    for v in views:
        if any(v not in intervals[pid] for pid in correct):
            continue
        start = max(intervals[pid][v][0] for pid in correct)
        ends = [intervals[pid][v][1] for pid in correct
                if intervals[pid][v][1] is not None]
        if ends and min(ends) - start < cfg.overlap:
            out.append(f"view_overlap: view {v} of epoch {e_final} overlapped only "
                       f"{min(ends) - start} < {cfg.overlap}")
    return out


def check_entry_bound(trace, cfg, crypto=None):
    out = []
    t0 = sync_reference_time(trace, cfg)
    _, e_final, t_ef = stable_epochs(trace, cfg)
    bound = t0 + cfg.epoch_duration + 4 * cfg.delta
    if e_final is None:
        if index_of(trace).end_time > bound:
            out.append(f"entry_bound: no post-stabilization epoch entered though "
                       f"the run passed {bound}")
        return out
    if t_ef > bound:
        out.append(f"entry_bound: first stable epoch entered at {t_ef} > {bound}")
    return out


def check_epoch_budget(trace, cfg, crypto=None):
    out = []
    t_s = find_sync_time(trace, cfg)
    if t_s is None:
        return out
    for pid, cnt in sync_window_entries(trace, cfg, t_s).items():
        if cnt > 4:
            out.append(f"epoch_budget: P{pid} entered {cnt} epochs in "
                       f"[{cfg.gst}, {t_s + cfg.overlap}]")
    return out


def check_entry_spacing(trace, cfg, crypto=None):
    out = []
    for pid in trace.correct():
        entries = epoch_entries(trace, pid, cfg.f)
        for (t1, e1), (t2, e2) in zip(entries, entries[1:]):
            if t1 >= cfg.gst and t2 - t1 < cfg.delta:
                out.append(f"entry_spacing: P{pid} entered epochs {e1},{e2} only "
                           f"{t2 - t1} apart")
    return out


def check_epoch_succession(trace, cfg, crypto=None):
    e_max, e_final, _ = stable_epochs(trace, cfg)
    if e_final is not None and e_final != e_max + 1:
        return [f"epoch_succession: e_final={e_final} but e_max={e_max}"]
    return []


def check_agreement(trace, cfg, crypto=None):
    values = {v for p, (_, v) in decide_times(trace).items()
              if p not in trace.byzantine}
    if len(values) > 1:
        return [f"agreement: correct processes decided {sorted(map(str, values))}"]
    return []


def check_conflicting_qcs(trace, cfg, crypto=None):
    seen: dict[tuple, object] = {}
    out = []
    reported = set()
    verified: dict[int, bool] = {}   # id(qc) -> verdict; the trace keeps each qc
    for ev in index_of(trace).emitted:
        qc = ev.payload.qc if isinstance(ev.payload, CoreMessage) else None
        if qc is None:
            continue
        if crypto is not None:
            ok = verified.get(id(qc))
            if ok is None:
                ok = verified[id(qc)] = crypto.combined_verify(
                    vote_message(qc.phase, qc.value, qc.view), qc.sig)
            if not ok:
                continue
        key = (qc.phase, qc.view)
        if key in seen and seen[key] != qc.value and key not in reported:
            reported.add(key)
            out.append(f"conflicting_qcs: {key[0]} QCs for view {key[1]} carry "
                       f"values {seen[key]} and {qc.value}")
        seen.setdefault(key, qc.value)
    return out


def check_unforgeable_sigs(trace, cfg, crypto=None):
    if crypto is None:
        return []
    out = []
    correct = set(trace.correct())

    def tsigs_in(obj):
        if isinstance(obj, ThresholdSignature):
            yield obj
        elif isinstance(obj, QuorumCertificate):
            yield obj.sig
        elif isinstance(obj, Certificate):
            yield obj.tsig
        elif isinstance(obj, EnterEpochMsg):
            yield obj.tsig
        elif isinstance(obj, CertificateMsg):
            yield obj.cert.tsig
        elif isinstance(obj, CoreMessage):
            if obj.qc is not None:
                yield obj.qc.sig
            if isinstance(obj.cert, Certificate):
                yield obj.cert.tsig

    def forged(tsig):
        scheme = crypto.schemes.get(tsig.scheme)
        if scheme is None:
            return []
        signed = crypto.signers_for_digest(tsig.scheme, tsig.digest)
        honest = [s for s in tsig.signers if s in correct and s in signed]
        if len(honest) < scheme.k - cfg.f:
            return [f"unforgeable_sigs: tsig {tsig.summary()} in a correct "
                    f"send has only {len(honest)} honest ledgered signers"]
        return []

    # each distinct payload (and tsig) is checked once, keyed by id: the
    # trace keeps them alive; every send still reports its own lines
    per_payload: dict[int, list[str]] = {}
    per_tsig: dict[int, list[str]] = {}
    for ev in index_of(trace).sends:
        lines = per_payload.get(id(ev.payload))
        if lines is None:
            lines = per_payload[id(ev.payload)] = []
            for tsig in tsigs_in(ev.payload):
                found = per_tsig.get(id(tsig))
                if found is None:
                    found = per_tsig[id(tsig)] = forged(tsig)
                lines.extend(found)
        out.extend(lines)
    return out


def check_core_word_budget(trace, cfg, crypto=None):
    out = []
    per: dict[tuple[int, int], int] = {}
    for ev in index_of(trace).sends:
        if isinstance(ev.payload, CoreMessage):
            key = (ev.process, ev.payload.view)
            per[key] = per.get(key, 0) + 1
    for (pid, view), cnt in sorted(per.items()):
        bound = 4 * cfg.n + 4 if leader(view, cfg.n) == pid else 4
        if cnt > bound:
            out.append(f"core_word_budget: P{pid} sent {cnt} view-core messages "
                       f"in view {view} (bound {bound})")
    return out


def check_message_words(trace, cfg, crypto=None):
    out = []
    for ev in index_of(trace).sends:
        if ev.words < 1:
            out.append(f"message_words: P{ev.process} send at {ev.time} "
                       f"carries {ev.words} words")
    return out


def check_delay_bounds(trace, cfg, crypto=None):
    out = []
    index = index_of(trace)
    sends = {ev.seq: ev for ev in index.emitted if ev.seq is not None}
    gn, gd = cfg.gst.numerator, cfg.gst.denominator
    dn, dd = cfg.delta.numerator, cfg.delta.denominator
    # (id(send time), id(delivery time)) -> "late", "early" or None; the
    # copies of a broadcast share both time objects, and the trace keeps
    # every one of them alive while this runs
    verdicts: dict[tuple[int, int], Optional[str]] = {}
    for ev in index.delivers:
        sent = sends.get(ev.seq)
        if sent is None:
            continue
        key = (id(sent.time), id(ev.time))
        if key in verdicts:
            verdict = verdicts[key]
        else:
            sn, sd = sent.time.numerator, sent.time.denominator
            tn, td = ev.time.numerator, ev.time.denominator
            # the delay is delay_num / (sd * td), and sd * td > 0
            delay_num = tn * sd - sn * td
            post_gst = sn * gd >= gn * sd
            if post_gst and not (0 < delay_num and delay_num * dd <= dn * sd * td):
                verdict = "late"
            elif delay_num < 0:
                verdict = "early"
            else:
                verdict = None
            verdicts[key] = verdict
        if verdict == "late":
            out.append(f"delay_bounds: envelope #{ev.seq} sent {sent.time} "
                       f"delivered {ev.time}")
        elif verdict == "early":
            out.append(f"delay_bounds: envelope #{ev.seq} delivered before sent")
    return out


def _verified_cert(payload, crypto):
    """(value, cert) if the payload carries a certificate that verifies,
    value None for an any-value one; None otherwise."""
    if isinstance(payload, CertificateMsg):
        value, cert = payload.value, payload.cert
    elif isinstance(payload, CoreMessage) and isinstance(payload.cert, Certificate):
        value, cert = payload.cert.subject, payload.cert
    else:
        return None
    if crypto.combined_verify(ANY_VALUE_TAG, cert.tsig):
        return None, cert
    if value is not None and crypto.combined_verify(value_message(value), cert.tsig):
        return value, cert
    return None


def _verifying_certs(trace, crypto):
    """(event, value, cert) per emission of a verifying certificate; each
    distinct payload is verified once, keyed by id (the trace keeps it)."""
    verdicts: dict[int, Optional[tuple]] = {}
    for ev in index_of(trace).emitted:
        key = id(ev.payload)
        if key in verdicts:
            hit = verdicts[key]
        else:
            hit = verdicts[key] = _verified_cert(ev.payload, crypto)
        if hit is not None:
            yield ev, hit[0], hit[1]


def check_cert_computability(trace, cfg, crypto=None):
    if crypto is None or cfg.protocol != "squad":
        return []
    proposals = {cfg.proposals[p] for p in trace.correct()}
    if len(proposals) != 1:
        return []
    v = proposals.pop()
    out = []
    for ev, value, cert in _verifying_certs(trace, crypto):
        if value is None:
            out.append(f"cert_computability: any-value certificate "
                       f"{cert.summary()} appeared despite unanimity on {v}")
        elif value != v:
            out.append(f"cert_computability: certificate for {value} appeared "
                       f"despite unanimity on {v}")
    return out


def check_cert_liveness(trace, cfg, crypto=None):
    if cfg.protocol != "squad":
        return []
    out = []
    deadline = cfg.gst + 2 * cfg.delta
    sends_by = index_of(trace).sends_by
    for pid in trace.correct():
        exits = [ev.time for ev in sends_by.get(pid, ())
                 if isinstance(ev.payload, CertificateMsg)]
        if not exits:
            out.append(f"cert_liveness: P{pid} never obtained a certificate")
        elif exits[0] > deadline:
            out.append(f"cert_liveness: P{pid} exited certification at {exits[0]} "
                       f"> {deadline}")
    return out


def check_cert_word_budget(trace, cfg, crypto=None):
    if cfg.protocol != "squad":
        return []
    out = []
    sends_by = index_of(trace).sends_by
    for pid in trace.correct():
        cnt = sum(1 for ev in sends_by.get(pid, ())
                  if isinstance(ev.payload, CERT_MESSAGE_TYPES))
        if cnt > 3 * cfg.n:
            out.append(f"cert_word_budget: P{pid} sent {cnt} certification "
                       f"messages (> {3 * cfg.n})")
    return out


RARESYNC_CHECKS = {
    "monotonic_views": check_monotonic_views,
    "no_view_skip": check_no_view_skip,
    "view_bounds": check_view_bounds,
    "epoch_entry_quorum": check_epoch_entry_quorum,
    "quiet_period": check_quiet_period,
    "tight_entry": check_tight_entry,
    "view_overlap": check_view_overlap,
    "entry_bound": check_entry_bound,
    "epoch_budget": check_epoch_budget,
    "entry_spacing": check_entry_spacing,
    "epoch_succession": check_epoch_succession,
}

CORE_CHECKS = {
    "agreement": check_agreement,
    "conflicting_qcs": check_conflicting_qcs,
    "unforgeable_sigs": check_unforgeable_sigs,
    "core_word_budget": check_core_word_budget,
}

GENERIC_CHECKS = {
    "monotonic_views": check_monotonic_views,
    "message_words": check_message_words,
    "delay_bounds": check_delay_bounds,
}

CERT_CHECKS = {
    "cert_computability": check_cert_computability,
    "cert_liveness": check_cert_liveness,
    "cert_word_budget": check_cert_word_budget,
}

ALL_CHECKS = {**RARESYNC_CHECKS, **CORE_CHECKS, **GENERIC_CHECKS, **CERT_CHECKS}


def checks_for(protocol: str) -> dict:
    checks = dict(GENERIC_CHECKS)
    checks.update(CORE_CHECKS)
    if protocol in ("raresync-quad", "squad"):
        checks.update(RARESYNC_CHECKS)
    if protocol == "squad":
        checks.update(CERT_CHECKS)
    return checks


def check_invariants(trace: Trace, cfg, crypto=None) -> list[str]:
    out = []
    for name, fn in checks_for(cfg.protocol).items():
        out.extend(fn(trace, cfg, crypto))
    return out


# --------------------------------------------------------------------------
# Report
# --------------------------------------------------------------------------

@dataclass
class MetricsReport:
    protocol: str
    n: int
    f: int
    seed: int
    scenario: str
    decided: bool
    words_post_gst: int = 0
    words_sync_window: int = 0
    t_s: Optional[Fraction] = None
    t_d: Optional[Fraction] = None
    latency: Optional[Fraction] = None
    epochs_entered: dict[int, int] = field(default_factory=dict)
    epochs_max: int = 0
    violations: list[str] = field(default_factory=list)

    def csv_row(self) -> str:
        def fmt(x):
            return "" if x is None else str(x)
        return ",".join([
            self.protocol, str(self.n), str(self.f), str(self.seed),
            self.scenario, str(self.words_post_gst), str(self.words_sync_window),
            fmt(self.t_s), fmt(self.t_d), fmt(self.latency),
            str(self.epochs_max), str(len(self.violations)),
        ])


CSV_HEADER = ("protocol,n,f,seed,scenario,words_post_gst,words_sync_window,"
              "t_s,t_d,latency,epochs_max,violations")


def build_report(trace: Trace, cfg, crypto=None) -> MetricsReport:
    index_of(trace)   # built here so its cost is not billed to a checker
    t_d = decision_time(trace)
    t_s = find_sync_time(trace, cfg)
    words = count_words(trace, cfg.gst, t_d)
    sync_words = sync_window_words(trace, cfg, t_s)
    violations = check_invariants(trace, cfg, crypto)
    entries = sync_window_entries(trace, cfg, t_s)
    latency = None if t_d is None else max(Fraction(0), t_d - cfg.gst)
    return MetricsReport(
        protocol=cfg.protocol, n=cfg.n, f=cfg.f, seed=cfg.seed,
        scenario=cfg.name, decided=trace.decided_all,
        words_post_gst=words, words_sync_window=sync_words,
        t_s=t_s, t_d=t_d, latency=latency,
        epochs_entered=entries,
        epochs_max=max(entries.values(), default=0),
        violations=violations)
