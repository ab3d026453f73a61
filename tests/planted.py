"""Hand-mutated traces, one per invariant checker.

Each entry builds a trace carrying a specific defect and names the checker
that must flag it: the part of its name before the first dot
(``checker_of``), so one checker can have several planted defects. The
acceptance suite and the metrics tests both iterate this registry so no
checker can pass vacuously.
"""

from fractions import Fraction

from squadsim.consensus import Certificate, CertificateMsg, DiscloseMsg, \
    value_message
from squadsim.crypto import ThresholdSignature
from squadsim.metrics import facts_of
from squadsim.raresync import EpochCompletedMsg, epoch_message
from squadsim.trace import Trace, TraceEvent
from tests.log_builder import LogBuilder
from squadsim.viewcore import CoreMessage, PHASE_PREPARE, PRECOMMIT, \
    QuorumCertificate, vote_message


def _advance(trace, time, pid, view):
    trace.append(TraceEvent(Fraction(time), pid, "advance", f"v={view}", 0,
                            payload=view))


def plant_monotonic_views(cfg, crypto, base):
    t = Trace(log=list(base.log))
    _advance(t, 5, 1, 5)
    _advance(t, 6, 1, 3)
    return t


def plant_no_view_skip(cfg, crypto, base):
    t = Trace()
    _advance(t, 1, 1, 1)
    _advance(t, 2, 1, (cfg.f + 1) + 2)   # mid-epoch view without predecessor
    return t


def plant_view_bounds(cfg, crypto, base):
    t = Trace()
    _advance(t, 1, 2, 0)
    return t


def plant_epoch_entry_quorum(cfg, crypto, base):
    t = Trace()
    _advance(t, 1, 1, 1)
    _advance(t, 2, 1, cfg.f + 2)   # epoch 2 with nobody through epoch 1
    return t


def plant_quiet_period(cfg, crypto, base):
    _, e_final, t_ef = facts_of(base, cfg).stable_epochs
    b = LogBuilder(Trace(log=list(base.log)))
    psig = crypto.share_sign(1, epoch_message(e_final), "quorum")
    b.send(t_ef + cfg.epoch_duration / 2, 1, EpochCompletedMsg(e_final, psig))
    return b.trace


def plant_tight_entry(cfg, crypto, base):
    from squadsim.metrics import epoch_of
    _, e_final, _ = facts_of(base, cfg).stable_epochs
    return Trace(log=[entry for entry in base.log
                      if not (type(entry) is TraceEvent and entry.kind == "advance"
                              and entry.process == 1
                              and epoch_of(entry.payload, cfg.f) == e_final)])


def plant_view_overlap(cfg, crypto, base):
    t = Trace()
    for pid in range(1, cfg.n + 1):
        if pid not in cfg.byzantine:
            _advance(t, cfg.gst, pid, 1)
    _advance(t, cfg.gst + 2, next(iter(sorted(set(range(1, cfg.n + 1))
                                              - cfg.byzantine))), 2)
    return t


def plant_entry_bound(cfg, crypto, base):
    t = Trace()
    late = cfg.gst + cfg.epoch_duration + 4 * cfg.delta + 1
    correct = [p for p in range(1, cfg.n + 1) if p not in cfg.byzantine]
    for pid in correct:
        _advance(t, cfg.gst - 1, pid, 1)
    for pid in correct:
        _advance(t, late, pid, cfg.f + 2)
    return t


def plant_epoch_budget(cfg, crypto, base):
    t = Trace()
    span = cfg.f + 1
    for i in range(5):   # five epoch entries right after GST
        _advance(t, cfg.gst + i, 1, i * span + 1)
    correct = [p for p in range(1, cfg.n + 1) if p not in cfg.byzantine]
    settle = 5 * span + 1
    while (settle % cfg.n) + 1 in cfg.byzantine:
        settle += 1      # settle in a correct-led view so a sync time exists
    for pid in correct:
        _advance(t, cfg.gst + 10, pid, settle)
    return t


def plant_entry_spacing(cfg, crypto, base):
    t = Trace()
    _advance(t, cfg.gst + 1, 1, cfg.f + 2)
    _advance(t, cfg.gst + 1 + cfg.delta / 2, 1, 2 * (cfg.f + 1) + 1)
    return t


def plant_epoch_succession(cfg, crypto, base):
    t = Trace()
    _advance(t, cfg.gst - 1, 1, 1)
    _advance(t, cfg.gst + 1, 1, 2 * (cfg.f + 1) + 1)   # jumps to epoch 3
    return t


def plant_agreement(cfg, crypto, base):
    t = Trace()
    t.append(TraceEvent(Fraction(1), 1, "decide", "value=1", 0, payload=1))
    t.append(TraceEvent(Fraction(2), 2, "decide", "value=2", 0, payload=2))
    return t


def plant_conflicting_qcs(cfg, crypto, base):
    b = LogBuilder()
    quorum = 2 * cfg.f + 1
    for value, lo in (("a", 1), ("b", 2)):
        signers = list(range(lo, lo + quorum))
        signers = [(s - 1) % cfg.n + 1 for s in signers]
        sig = crypto.combine([crypto.share_sign(p, vote_message(PHASE_PREPARE,
                                                                value, 8),
                                                "quorum") for p in signers])
        qc = QuorumCertificate(PHASE_PREPARE, value, 8, sig)
        b.send(1, 2, CoreMessage(PRECOMMIT, 8, qc=qc))
    return b.trace


def plant_unforgeable_sigs(cfg, crypto, base):
    b = LogBuilder()
    forged = ThresholdSignature("(vote,prepare,66,9)",
                                frozenset(range(1, 2 * cfg.f + 2)), "quorum")
    qc = QuorumCertificate(PHASE_PREPARE, 66, 9, forged)
    b.send(1, 1, CoreMessage(PRECOMMIT, 9, qc=qc))
    return b.trace


def plant_core_word_budget(cfg, crypto, base):
    b = LogBuilder()
    for i in range(5):
        b.send(1 + i, 1, CoreMessage("PREPARE-VOTE", 1, value=1))
    return b.trace


def plant_message_words(cfg, crypto, base):
    b = LogBuilder()
    b.send(1, 1, words=0)
    return b.trace


def plant_delay_bounds(cfg, crypto, base):
    b = LogBuilder()
    b.send(cfg.gst + 1, 1, seq=77)
    b.deliver(cfg.gst + 1 + 2 * cfg.delta, 77)
    return b.trace


def plant_unpaired_delivery(cfg, crypto, base):
    b = LogBuilder()
    b.deliver(cfg.gst + 1, 77)   # no call sent #77
    return b.trace


def plant_cert_computability(cfg, crypto, base):
    b = LogBuilder()
    tsig = crypto.combine([crypto.share_sign(p, value_message(8), "cert")
                           for p in range(1, cfg.f + 2)])
    b.send(1, 1, CertificateMsg(8, Certificate(8, tsig)))
    return b.trace


def plant_cert_liveness(cfg, crypto, base):
    return Trace()   # nobody ever exits certification


def plant_cert_word_budget(cfg, crypto, base):
    b = LogBuilder()
    psig = crypto.share_sign(1, value_message(7), "cert")
    for i in range(3 * cfg.n + 1):
        b.send(i, 1, DiscloseMsg(7, psig))
    return b.trace


PLANTED = {
    "monotonic_views": plant_monotonic_views,
    "no_view_skip": plant_no_view_skip,
    "view_bounds": plant_view_bounds,
    "epoch_entry_quorum": plant_epoch_entry_quorum,
    "quiet_period": plant_quiet_period,
    "tight_entry": plant_tight_entry,
    "view_overlap": plant_view_overlap,
    "entry_bound": plant_entry_bound,
    "epoch_budget": plant_epoch_budget,
    "entry_spacing": plant_entry_spacing,
    "epoch_succession": plant_epoch_succession,
    "agreement": plant_agreement,
    "conflicting_qcs": plant_conflicting_qcs,
    "unforgeable_sigs": plant_unforgeable_sigs,
    "core_word_budget": plant_core_word_budget,
    "message_words": plant_message_words,
    "delay_bounds": plant_delay_bounds,
    "delay_bounds.unpaired": plant_unpaired_delivery,
    "cert_computability": plant_cert_computability,
    "cert_liveness": plant_cert_liveness,
    "cert_word_budget": plant_cert_word_budget,
}


def checker_of(name: str) -> str:
    """The checker a planted defect is for: its name up to the first dot."""
    return name.partition(".")[0]
