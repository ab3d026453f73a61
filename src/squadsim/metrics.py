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
process, first decisions, message records and deliveries, gathered in a
single pass over ``trace.log`` and cached on the trace (``index_of``).
No other code here walks the log. The run facts derived from the
index (correct pids, epoch entries, view intervals, the sync reference
time, the first stable epoch, t_s, t_d and the epoch entries of the
synchronizer window) are computed once each, on first read, by a
``RunFacts`` cached on the index (``facts_of``). It is keyed on the config
values the facts read (n, f, gst, delta, byzantine), not on the config
object, which builders and tests mutate in place.

The index reads the engine's log, the trace's one form (see ``trace``):
a message record stands for the copies of one send call, logged once as
a ``trace.SendCall`` whose fields are those of its first copy's send
event, so the index keeps it as one ``(entry, copies)`` pair. Every
checker that walks sends reads the records and weights them by
``copies``; where it reports one line per copy, it repeats the line
``copies`` times in the same place, so the violation lists are those of a
copy-by-copy walk, line for line. Only the receiver and the seq tell the
copies apart: no checker reads the receiver, and the delay check maps
each seq of a record back to it. Deliveries are kept as logged: the
engine's instants and delivered seqs (a seq is at the instant before it,
and names its sender only through the call that owns it). A log that
holds a message as a ``TraceEvent`` is refused, since no checker would
see it.

Exact predicates are decided once per shared input and the verdict is
replayed to every record or delivery sharing it. Window membership is
decided again only when the send-time object changes, and delay legality
only when the (send time, delivery time) object pair differs from the
previous delivery's: the deliveries of a broadcast come one after another.
Signature and certificate verification is kept per payload, QC or
certificate in memos keyed by ``id()``; they live only for one checker
call, while the trace holds every keyed object, so an id cannot be reused
under them; an equal but distinct object just misses the memo.

Bounds are checked with exact rational arithmetic. The delay check, which
sees every delivery, finds its send in a list indexed by seq and decides
late or early from integer cross-products of the send time, delivery
time, GST and delta (numerators and positive denominators), with no float
and no ``Fraction`` temporaries; a delivery whose seq no send call sent
is reported as fabricated. A few
properties are promises about infinite executions; their missing-event
forms are applied only when the (finite) trace demonstrably ran long
enough to owe the event.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .consensus import (ANY_VALUE_TAG, PROTOCOLS, CertPhase, Certificate,
                        CertificateMsg, value_message)
from .crypto import ThresholdSignature
from .raresync import EnterEpochMsg, EpochCompletedMsg, RareSync, leader
from .baselines import AllToAllSync
from .trace import SendCall, Trace, _own
from .viewcore import CoreMessage, QuorumCertificate, vote_message

# the payload classes each layer owns, as its node routes them
SYNC_MESSAGE_TYPES = RareSync.MESSAGES + AllToAllSync.MESSAGES
CERT_MESSAGE_TYPES = CertPhase.MESSAGES


# --------------------------------------------------------------------------
# Trace index and run facts
# --------------------------------------------------------------------------

class TraceIndex:
    """The log entries every extractor and checker needs, in one pass.

    ``messages`` holds one ``(entry, copies)`` record per send call: its
    ``SendCall`` and receiver count. ``sends`` keeps the records of correct
    processes (kind ``send``); both lists keep trace order, and their
    records are shared. ``delivers`` holds the log's deliveries in trace
    order, as logged: the instants (``Fraction``) and delivered seqs
    (``int``, each at the instant before it). ``end_time`` is the time of
    the last line. A ``TraceEvent`` of a message kind raises ``ValueError``.
    """

    def __init__(self, trace: Trace):
        log = trace.log
        self.size = len(log)
        self.advances: dict[int, list[tuple[Fraction, int]]] = {}
        self.decisions: dict[int, tuple[Fraction, object]] = {}
        self.messages: list[tuple] = []
        self.delivers: list = []
        self.facts: Optional[RunFacts] = None
        messages, delivers = self.messages, self.delivers
        for entry in log:
            cls = type(entry)
            if cls is int or cls is Fraction:
                delivers.append(entry)
            elif cls is SendCall:
                messages.append((entry, len(entry.receivers)))
            else:   # a TraceEvent
                kind = entry.kind
                if kind == "advance":
                    self.advances.setdefault(entry.process, []).append(
                        (entry.time, entry.payload))
                elif kind == "decide":
                    self.decisions.setdefault(entry.process, (entry.time, entry.payload))
                elif kind in ("send", "byz", "deliver"):
                    raise ValueError(f"a message is logged as its SendCall and "
                                     f"its delivered seqs, not as {entry!r}")
        self.sends: list[tuple] = [record for record in messages
                                   if record[0].kind == "send"]
        self.end_time = _end_time(log)


def _end_time(log: list) -> Fraction:
    """The time of the log's last line. An instant has no line, and a
    delivered seq is at the instant before it; every entry between the two
    is at that instant too."""
    delivery = False
    for entry in reversed(log):
        cls = type(entry)
        if cls is int:
            delivery = True
        elif cls is Fraction:
            if delivery:
                return entry
        else:
            return entry.time
    return Fraction(0)


def index_of(trace: Trace) -> TraceIndex:
    """The trace's cached index, rebuilt when entries were appended since."""
    index = trace.index
    if index is None or index.size != len(trace.log):
        index = trace.index = TraceIndex(trace)
    return index


def epoch_of(view: int, f: int) -> int:
    return (view - 1) // (f + 1) + 1


def in_epoch_index(view: int, f: int) -> int:
    return (view - 1) % (f + 1) + 1


class RunFacts:
    """The run facts of one index under the config values in ``key``, each
    derived on its first read; per-process facts cover correct pids only."""

    def __init__(self, index: TraceIndex, key: tuple, overlap: Fraction):
        # no reference back to the index, which holds this object
        self.key = key
        self.n, self.f, gst, _, self.byzantine = key
        self.gst = Fraction(gst)
        self.overlap = overlap
        self.correct = [p for p in range(1, self.n + 1) if p not in self.byzantine]
        # pid -> [(time, view)] of each correct process, possibly empty
        self.advances = {p: index.advances.get(p, []) for p in self.correct}
        self.decisions = index.decisions

    @cached_property
    def entries(self) -> dict[int, list[tuple[Fraction, int]]]:
        """pid -> (time, epoch) per entry to the first view of an epoch."""
        return {pid: [(t, epoch_of(v, self.f)) for t, v in seq
                      if v >= 1 and in_epoch_index(v, self.f) == 1]
                for pid, seq in self.advances.items()}

    @cached_property
    def views(self) -> dict[int, tuple[Fraction, Optional[Fraction]]]:
        """view -> (last entry, first exit) over the correct processes, for
        each view all of them entered; exit None means 'until trace end'."""
        members: dict[int, dict[int, tuple[Fraction, Optional[Fraction]]]] = {}
        for pid, seq in self.advances.items():
            exits = [t for t, _ in seq[1:]] + [None]
            for (t, v), end in zip(seq, exits):
                members.setdefault(v, {})[pid] = (t, end)
        out = {}
        for v, spans in members.items():
            if len(spans) == len(self.correct):
                ends = [e for _, e in spans.values() if e is not None]
                out[v] = (max(s for s, _ in spans.values()), min(ends, default=None))
        return out

    @cached_property
    def sync_reference(self) -> Fraction:
        """GST, pushed later if some correct process only began running its
        synchronizer after GST (the certified composition may do that); all
        entry-latency bounds are relative to the moment every correct process
        is both stabilized and running."""
        return max([self.gst] + [seq[0][0] for seq in self.advances.values() if seq])

    @cached_property
    def stable_epochs(self) -> tuple[int, Optional[int], Optional[Fraction]]:
        """(e_max, e_final, t_e_final) relative to the sync reference time."""
        t0 = self.sync_reference
        firsts: dict[int, Fraction] = {}   # epoch -> first correct entry
        e_max = 0
        for mine in self.entries.values():
            for t, e in mine:
                if e not in firsts or t < firsts[e]:
                    firsts[e] = t
                if t < t0 and e > e_max:
                    e_max = e
        e_final = min((e for e, t in firsts.items() if t >= t0), default=None)
        return e_max, e_final, firsts.get(e_final)

    @cached_property
    def t_s(self) -> Optional[Fraction]:
        """Earliest t >= GST with every correct process in one correct-led
        view throughout [t, t + overlap]."""
        best = None
        for v, (start, end) in self.views.items():
            t = max(self.gst, start)
            if (leader(v, self.n) not in self.byzantine
                    and (end is None or end - t >= self.overlap)
                    and (best is None or t < best)):
                best = t
        return best

    @cached_property
    def t_d(self) -> Optional[Fraction]:
        """First time by which all correct processes have decided."""
        decided = self.decisions
        if any(p not in decided for p in self.correct):
            return None
        return max(decided[p][0] for p in self.correct)

    @cached_property
    def window_entries(self) -> dict[int, int]:
        """Epoch entries per correct process in [GST, t_s + overlap] (t_s
        None: unbounded)."""
        hi = None if self.t_s is None else self.t_s + self.overlap
        return {pid: sum(1 for t, _ in mine
                         if t >= self.gst and (hi is None or t <= hi))
                for pid, mine in self.entries.items()}


def facts_of(trace: Trace, cfg) -> RunFacts:
    """The run facts cached on the trace's index, derived again when the
    trace grew or a config value they read changed."""
    index = index_of(trace)
    key = (cfg.n, cfg.f, cfg.gst, cfg.delta, cfg.byzantine)
    if index.facts is None or index.facts.key != key:
        index.facts = RunFacts(index, key, cfg.overlap)
    return index.facts


# --------------------------------------------------------------------------
# Extraction helpers
# --------------------------------------------------------------------------

def _window_words(trace: Trace, lo: Fraction, hi: Optional[Fraction],
                  types: Optional[tuple] = None) -> int:
    """Words of correct sends in [lo, hi] (hi None: unbounded), optionally
    only of payloads of ``types``. Sends of one instant share their time
    object, so membership is decided again only when that object changes,
    by integer cross-products (denominators are positive)."""
    total = 0
    last = None
    inside = False
    ln, ld = lo.numerator, lo.denominator
    hn, hd = (None, None) if hi is None else (hi.numerator, hi.denominator)
    for ev, copies in index_of(trace).sends:
        t = ev.time
        if t is not last:
            last = t
            tn, td = t.numerator, t.denominator
            inside = tn * ld >= ln * td and (hn is None or tn * hd <= hn * td)
        if inside and (types is None or isinstance(ev.payload, types)):
            total += ev.words * copies
    return total


def count_words(trace: Trace, gst: Fraction, t_d: Optional[Fraction]) -> int:
    """Words sent by correct processes during [GST, t_d]."""
    return _window_words(trace, gst, t_d)


def sync_window_words(trace: Trace, cfg, t_s: Optional[Fraction]) -> int:
    """Synchronizer-class words sent by correct processes in [GST, t_s + overlap]."""
    hi = None if t_s is None else t_s + cfg.overlap
    return _window_words(trace, cfg.gst, hi, SYNC_MESSAGE_TYPES)


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

def check_monotonic_views(trace, cfg, crypto):
    out = []
    for pid, seq in facts_of(trace, cfg).advances.items():
        for (t1, v1), (t2, v2) in zip(seq, seq[1:]):
            if v2 <= v1:
                out.append(f"monotonic_views: P{pid} advanced {v1} then {v2}")
    return out


def check_no_view_skip(trace, cfg, crypto):
    out = []
    for pid, seq in facts_of(trace, cfg).advances.items():
        prev = None
        for _, v in seq:
            if in_epoch_index(v, cfg.f) != 1 and prev != v - 1:
                out.append(f"no_view_skip: P{pid} entered mid-epoch view {v} "
                           f"without view {v - 1}")
            prev = v
    return out


def check_view_bounds(trace, cfg, crypto):
    out = []
    limit = cfg.f + 1
    for pid, seq in facts_of(trace, cfg).advances.items():
        per_epoch: dict[int, int] = {}
        for _, v in seq:
            if v < 1:
                out.append(f"view_bounds: P{pid} advanced to view {v}")
                continue
            e = epoch_of(v, cfg.f)
            per_epoch[e] = per_epoch.get(e, 0) + 1
        for e, cnt in per_epoch.items():
            if cnt > limit:
                out.append(f"view_bounds: P{pid} entered {cnt} views in epoch {e}")
    return out


def check_epoch_entry_quorum(trace, cfg, crypto):
    out = []
    entries = facts_of(trace, cfg).entries
    # epoch -> the earliest entry time of each correct process that entered
    # it, sorted: the supporters of an entry at t are those entered by t
    firsts: dict[int, dict[int, Fraction]] = {}
    for pid, mine in entries.items():
        for t, e in mine:
            earliest = firsts.setdefault(e, {})
            if pid not in earliest or t < earliest[pid]:
                earliest[pid] = t
    by_epoch = {e: sorted(times.values()) for e, times in firsts.items()}
    for pid, mine in entries.items():
        for t, e in mine:
            if e <= 1:
                continue
            supporters = bisect_right(by_epoch.get(e - 1, ()), t)
            if supporters < cfg.f + 1:
                out.append(f"epoch_entry_quorum: P{pid} entered epoch {e} at {t} "
                           f"with only {supporters} correct entries to {e - 1}")
    return out


def check_quiet_period(trace, cfg, crypto):
    out = []
    _, e_final, t_ef = facts_of(trace, cfg).stable_epochs
    if e_final is None:
        return out
    bound = t_ef + cfg.epoch_duration
    for ev, copies in index_of(trace).sends:
        if (isinstance(ev.payload, EpochCompletedMsg)
                and ev.payload.epoch >= e_final and ev.time < bound):
            out += [f"quiet_period: P{ev.process} sent EPOCH-COMPLETED for "
                    f"{ev.payload.epoch} at {ev.time} < {bound}"] * copies
    return out


def check_tight_entry(trace, cfg, crypto):
    out = []
    facts = facts_of(trace, cfg)
    _, e_final, t_ef = facts.stable_epochs
    if e_final is None:
        return out
    end_time = index_of(trace).end_time
    for pid, entries in facts.entries.items():
        mine = [t for t, e in entries if e == e_final]
        if not mine:
            if end_time > t_ef + 2 * cfg.delta:
                out.append(f"tight_entry: P{pid} never entered epoch {e_final} "
                           f"though the run passed {t_ef + 2 * cfg.delta}")
            continue
        if mine[0] > t_ef + 2 * cfg.delta:
            out.append(f"tight_entry: P{pid} entered epoch {e_final} at {mine[0]} "
                       f"> {t_ef + 2 * cfg.delta}")
    return out


def check_view_overlap(trace, cfg, crypto):
    out = []
    facts = facts_of(trace, cfg)
    _, e_final, _ = facts.stable_epochs
    if e_final is None:
        return out
    views = facts.views
    lo = (e_final - 1) * (cfg.f + 1) + 1
    for v in range(lo, lo + cfg.f + 1):
        start, end = views.get(v, (None, None))
        if end is not None and end - start < cfg.overlap:
            out.append(f"view_overlap: view {v} of epoch {e_final} overlapped only "
                       f"{end - start} < {cfg.overlap}")
    return out


def check_entry_bound(trace, cfg, crypto):
    out = []
    facts = facts_of(trace, cfg)
    _, e_final, t_ef = facts.stable_epochs
    bound = facts.sync_reference + cfg.epoch_duration + 4 * cfg.delta
    if e_final is None:
        if index_of(trace).end_time > bound:
            out.append(f"entry_bound: no post-stabilization epoch entered though "
                       f"the run passed {bound}")
        return out
    if t_ef > bound:
        out.append(f"entry_bound: first stable epoch entered at {t_ef} > {bound}")
    return out


def check_epoch_budget(trace, cfg, crypto):
    out = []
    facts = facts_of(trace, cfg)
    if facts.t_s is None:
        return out
    for pid, cnt in facts.window_entries.items():
        if cnt > 4:
            out.append(f"epoch_budget: P{pid} entered {cnt} epochs in "
                       f"[{cfg.gst}, {facts.t_s + cfg.overlap}]")
    return out


def check_entry_spacing(trace, cfg, crypto):
    out = []
    for pid, entries in facts_of(trace, cfg).entries.items():
        for (t1, e1), (t2, e2) in zip(entries, entries[1:]):
            if t1 >= cfg.gst and t2 - t1 < cfg.delta:
                out.append(f"entry_spacing: P{pid} entered epochs {e1},{e2} only "
                           f"{t2 - t1} apart")
    return out


def check_epoch_succession(trace, cfg, crypto):
    e_max, e_final, _ = facts_of(trace, cfg).stable_epochs
    if e_final is not None and e_final != e_max + 1:
        return [f"epoch_succession: e_final={e_final} but e_max={e_max}"]
    return []


def check_agreement(trace, cfg, crypto):
    values = {v for p, (_, v) in index_of(trace).decisions.items()
              if p not in cfg.byzantine}
    if len(values) > 1:
        return [f"agreement: correct processes decided {sorted(map(str, values))}"]
    return []


def check_conflicting_qcs(trace, cfg, crypto):
    seen: dict[tuple, object] = {}
    out = []
    reported = set()
    verified: dict[int, bool] = {}   # id(qc) -> verdict; the trace keeps each qc
    # the copies of a record carry one qc: only the first can add a line
    for ev, _ in index_of(trace).messages:
        qc = ev.payload.qc if isinstance(ev.payload, CoreMessage) else None
        if qc is None:
            continue
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


def check_unforgeable_sigs(trace, cfg, crypto):
    out = []
    correct = set(facts_of(trace, cfg).correct)

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
    # trace keeps them alive; every copy still reports its own lines
    per_payload: dict[int, list[str]] = {}
    per_tsig: dict[int, list[str]] = {}
    for ev, copies in index_of(trace).sends:
        lines = per_payload.get(id(ev.payload))
        if lines is None:
            lines = per_payload[id(ev.payload)] = []
            for tsig in tsigs_in(ev.payload):
                found = per_tsig.get(id(tsig))
                if found is None:
                    found = per_tsig[id(tsig)] = forged(tsig)
                lines.extend(found)
        if lines:
            out += lines * copies
    return out


def check_core_word_budget(trace, cfg, crypto):
    out = []
    per: dict[tuple[int, int], int] = {}
    for ev, copies in index_of(trace).sends:
        if isinstance(ev.payload, CoreMessage):
            key = (ev.process, ev.payload.view)
            per[key] = per.get(key, 0) + copies
    for (pid, view), cnt in sorted(per.items()):
        bound = 4 * cfg.n + 4 if leader(view, cfg.n) == pid else 4
        if cnt > bound:
            out.append(f"core_word_budget: P{pid} sent {cnt} view-core messages "
                       f"in view {view} (bound {bound})")
    return out


def check_message_words(trace, cfg, crypto):
    out = []
    for ev, copies in index_of(trace).sends:
        if ev.words < 1:
            out += [f"message_words: P{ev.process} send at {ev.time} "
                    f"carries {ev.words} words"] * copies
    return out


def check_delay_bounds(trace, cfg, crypto):
    out = []
    index = index_of(trace)
    # by_seq[seq] is the send call that sent seq, None where no call did;
    # filled one slice per call, so a later call wins a reused seq
    by_seq: list = []
    for call, _ in index.messages:
        _own(by_seq, call, call)
    high = len(by_seq)
    gn, gd = cfg.gst.numerator, cfg.gst.denominator
    dn, dd = cfg.delta.numerator, cfg.delta.denominator
    # verdict: "late", "early" or None (legal) for the pair (sent_time,
    # delivered); consecutive deliveries of one broadcast share both time
    # objects, so it is decided again only when one of them changes
    sent_time = delivered = verdict = None
    now = None   # the current instant: the time of the seqs after it
    for seq in index.delivers:
        if type(seq) is Fraction:
            now = seq
            continue
        sent = by_seq[seq] if 0 <= seq < high else None
        if sent is None:
            out.append(f"delay_bounds: envelope #{seq} delivered but never sent")
            continue
        st = sent.time
        if st is not sent_time or now is not delivered:
            sent_time, delivered = st, now
            sn, sd = st.numerator, st.denominator
            tn, td = now.numerator, now.denominator
            # the delay is delay_num / (sd * td), and sd * td > 0
            delay_num = tn * sd - sn * td
            post_gst = sn * gd >= gn * sd
            if post_gst and not (0 < delay_num and delay_num * dd <= dn * sd * td):
                verdict = "late"
            elif delay_num < 0:
                verdict = "early"
            else:
                verdict = None
        if verdict == "late":
            out.append(f"delay_bounds: envelope #{seq} sent {st} delivered {now}")
        elif verdict == "early":
            out.append(f"delay_bounds: envelope #{seq} delivered before sent")
    return out


def _verified_cert(payload, crypto, memo: dict):
    """(value, cert) if the payload carries a certificate that verifies,
    value None for an any-value one; None otherwise. A certificate rides in
    many payloads, so ``memo`` keeps the verdict per (id(cert), value)."""
    if isinstance(payload, CertificateMsg):
        value, cert = payload.value, payload.cert
    elif isinstance(payload, CoreMessage) and isinstance(payload.cert, Certificate):
        value, cert = payload.cert.subject, payload.cert
    else:
        return None
    key = (id(cert), value)
    if key not in memo:
        if crypto.combined_verify(ANY_VALUE_TAG, cert.tsig):
            memo[key] = None, cert
        elif value is not None and crypto.combined_verify(value_message(value), cert.tsig):
            memo[key] = value, cert
        else:
            memo[key] = None
    return memo[key]


def check_cert_computability(trace, cfg, crypto):
    proposals = {cfg.proposals[p] for p in facts_of(trace, cfg).correct}
    if len(proposals) != 1:
        return []
    v = proposals.pop()
    out = []
    # keyed by id(payload), and by (id(cert), value) in _verified_cert, so
    # each certificate is verified once; the trace keeps both alive
    verdicts: dict = {}
    for ev, copies in index_of(trace).messages:
        key = id(ev.payload)
        if key not in verdicts:
            verdicts[key] = _verified_cert(ev.payload, crypto, verdicts)
        if verdicts[key] is None:
            continue
        value, cert = verdicts[key]
        if value is None:
            out += [f"cert_computability: any-value certificate "
                    f"{cert.summary()} appeared despite unanimity on {v}"] * copies
        elif value != v:
            out += [f"cert_computability: certificate for {value} appeared "
                    f"despite unanimity on {v}"] * copies
    return out


def check_cert_liveness(trace, cfg, crypto):
    out = []
    deadline = cfg.gst + 2 * cfg.delta
    exits: dict[int, Fraction] = {}   # pid -> time of its first CERTIFICATE send
    for ev, _ in index_of(trace).sends:
        if isinstance(ev.payload, CertificateMsg):
            exits.setdefault(ev.process, ev.time)
    for pid in facts_of(trace, cfg).correct:
        if pid not in exits:
            out.append(f"cert_liveness: P{pid} never obtained a certificate")
        elif exits[pid] > deadline:
            out.append(f"cert_liveness: P{pid} exited certification at {exits[pid]} "
                       f"> {deadline}")
    return out


def check_cert_word_budget(trace, cfg, crypto):
    out = []
    sent: dict[int, int] = {}   # pid -> certification messages sent
    for ev, copies in index_of(trace).sends:
        if isinstance(ev.payload, CERT_MESSAGE_TYPES):
            sent[ev.process] = sent.get(ev.process, 0) + copies
    for pid in facts_of(trace, cfg).correct:
        cnt = sent.get(pid, 0)
        if cnt > 3 * cfg.n:
            out.append(f"cert_word_budget: P{pid} sent {cnt} certification "
                       f"messages (> {3 * cfg.n})")
    return out


RARESYNC_CHECKS = {
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
    synchronizer, certified = PROTOCOLS[protocol]
    checks = dict(GENERIC_CHECKS)
    checks.update(CORE_CHECKS)
    if synchronizer == "raresync":
        checks.update(RARESYNC_CHECKS)
    if certified:
        checks.update(CERT_CHECKS)
    return checks


def check_invariants(trace: Trace, cfg, crypto) -> list[str]:
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


def build_report(trace: Trace, cfg, crypto) -> MetricsReport:
    facts = facts_of(trace, cfg)   # the index is built here, not billed to a checker
    t_d, t_s = facts.t_d, facts.t_s
    latency = None if t_d is None else max(Fraction(0), t_d - cfg.gst)
    return MetricsReport(
        protocol=cfg.protocol, n=cfg.n, f=cfg.f, seed=cfg.seed,
        scenario=cfg.name, decided=t_d is not None,
        words_post_gst=count_words(trace, cfg.gst, t_d),
        words_sync_window=sync_window_words(trace, cfg, t_s),
        t_s=t_s, t_d=t_d, latency=latency,
        epochs_max=max(facts.window_entries.values(), default=0),
        violations=check_invariants(trace, cfg, crypto))
