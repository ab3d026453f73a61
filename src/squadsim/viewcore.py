"""Single-decree leader-driven view core.

Each view runs four all-to-leader / leader-to-all phases. On entering
view v a process sends its prepare QC to leader(v) in a VIEW-CHANGE. The
leader picks the QC from the highest view among 2f+1 of those, proposes
its value (or its own proposal if every QC was empty) in a PREPARE, and
then drives PRECOMMIT, COMMIT and DECIDE, each broadcast after combining
2f+1 partial-signed votes into a quorum certificate. Replicas adopt the
prepare QC from PRECOMMIT, the locked QC from COMMIT, and decide on
DECIDE. A replica supports a PREPARE only if its proposal matches the
attached QC and does not conflict with the replica's lock (same value, or
a strictly fresher QC).

State is kept across views. Messages for views other than the current one
are buffered if newer and dropped if older; a decided process stays
responsive so laggards can still assemble quorums.

When a certificate validator is installed (certificate-gated mode), a
value is only as good as the certificate that rides with it: leaders skip
view-change QCs whose value lacks a verifying certificate, and replicas
refuse to vote for an uncertified PREPARE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .crypto import PartialSignature, ThresholdSignature
from .raresync import leader

VIEW_CHANGE = "VIEW-CHANGE"
PREPARE = "PREPARE"
PREPARE_VOTE = "PREPARE-VOTE"
PRECOMMIT = "PRECOMMIT"
PRECOMMIT_VOTE = "PRECOMMIT-VOTE"
COMMIT = "COMMIT"
COMMIT_VOTE = "COMMIT-VOTE"
DECIDE = "DECIDE"

# phase tag signed into votes and certificates
PHASE_PREPARE = "prepare"
PHASE_PRECOMMIT = "precommit"
PHASE_COMMIT = "commit"

VOTE_TYPE = {PHASE_PREPARE: PREPARE_VOTE,
             PHASE_PRECOMMIT: PRECOMMIT_VOTE,
             PHASE_COMMIT: COMMIT_VOTE}
NEXT_BROADCAST = {PHASE_PREPARE: PRECOMMIT,
                  PHASE_PRECOMMIT: COMMIT,
                  PHASE_COMMIT: DECIDE}
# the phase a vote message votes for
VOTE_PHASE = {vote: phase for phase, vote in VOTE_TYPE.items()}
# the phase of the QC a leader broadcast carries
QC_PHASE = {broadcast: phase for phase, broadcast in NEXT_BROADCAST.items()}
LEADER_BROADCASTS = frozenset((PREPARE, *QC_PHASE))


def vote_message(phase: str, value, view: int) -> str:
    return f"(vote,{phase},{value},{view})"


@dataclass(frozen=True)
class QuorumCertificate:
    phase: str
    value: object
    view: int
    sig: ThresholdSignature

    def summary(self) -> str:
        return f"qc({self.phase},v={self.value},view={self.view},{self.sig.summary()})"


@dataclass(frozen=True)
class CoreMessage:
    type: str
    view: int
    value: object = None
    qc: Optional[QuorumCertificate] = None
    psig: Optional[PartialSignature] = None
    cert: object = None   # value certificate riding along (gated mode)

    def summary(self) -> str:
        parts = [f"{self.type}(view={self.view}"]
        if self.value is not None:
            parts.append(f",v={self.value}")
        if self.qc is not None:
            parts.append(f",{self.qc.summary()}")
        if self.psig is not None:
            parts.append(f",{self.psig.summary()}")
        if self.cert is not None:
            parts.append(f",{self.cert.summary()}")
        parts.append(")")
        return "".join(parts)


@dataclass
class _ViewState:
    view_changes: dict = field(default_factory=dict)   # sender -> (qc, cert)
    votes: dict = field(default_factory=dict)          # phase -> {sender: psig}
    proposal_value: object = None
    broadcast_done: set = field(default_factory=set)   # message types sent
    voted: set = field(default_factory=set)            # phases voted


class ViewCore:
    MESSAGES = (CoreMessage,)

    def __init__(self, pid: int, n: int, f: int, crypto,
                 on_decide: Callable[[object, object], None],
                 cert_validator: Optional[Callable[[object, object], bool]] = None):
        self.pid = pid
        self.n = n
        self.crypto = crypto
        self.quorum = 2 * f + 1
        self.on_decide = on_decide
        self.cert_validator = cert_validator

        self.proposal = None
        self.my_cert = None
        self.prepare_qc: Optional[QuorumCertificate] = None
        self.locked_qc: Optional[QuorumCertificate] = None
        self.current_view: Optional[int] = None
        self.decided = False
        self._views: dict[int, _ViewState] = {}
        self._future: dict[int, list] = {}
        self._certs: dict = {}   # value -> verifying certificate seen for it

    def init(self, proposal, cert=None) -> None:
        self.proposal = proposal
        self.my_cert = cert
        if cert is not None:
            self._certs[proposal] = cert

    # -- view lifecycle ----------------------------------------------------

    def start_executing(self, ctx, view: int) -> None:
        if self.current_view is not None and view <= self.current_view:
            return
        self.current_view = view
        for old in [v for v in self._views if v < view]:
            del self._views[old]
        qc = self.prepare_qc
        cert = self._certs.get(qc.value) if qc is not None else None
        ctx.send(leader(view, self.n),
                 CoreMessage(VIEW_CHANGE, view, qc=qc, cert=cert))
        for sender, msg in self._future.pop(view, []):
            self._dispatch(ctx, sender, msg)
        for old in [v for v in self._future if v < view]:
            del self._future[old]

    def on_message(self, ctx, sender: int, msg: CoreMessage) -> None:
        if self.current_view is None or msg.view > self.current_view:
            self._future.setdefault(msg.view, []).append((sender, msg))
        elif msg.view == self.current_view:
            self._dispatch(ctx, sender, msg)

    # -- handlers (all for the current view) --------------------------------

    def _dispatch(self, ctx, sender: int, msg: CoreMessage) -> None:
        view = msg.view
        state = self._views.get(view)
        if state is None:
            state = self._views[view] = _ViewState()
        if msg.type == VIEW_CHANGE:
            self._on_view_change(ctx, sender, msg, state)
        elif msg.type in LEADER_BROADCASTS:
            if sender == leader(view, self.n):
                self._on_leader_broadcast(ctx, msg, state)
        elif msg.type in VOTE_PHASE:
            if self.pid == leader(view, self.n):
                self._on_vote(ctx, sender, msg, state)

    def _qc_valid(self, qc: QuorumCertificate) -> bool:
        return self.crypto.combined_verify(
            vote_message(qc.phase, qc.value, qc.view), qc.sig)

    def _certified(self, value, cert) -> bool:
        if self.cert_validator is None:
            return True
        return self.cert_validator(value, cert)

    def _on_view_change(self, ctx, sender: int, msg: CoreMessage,
                        state: _ViewState) -> None:
        if self.pid != leader(msg.view, self.n):
            return
        qc = msg.qc
        if qc is not None and not self._qc_valid(qc):
            return
        if qc is not None and not self._certified(qc.value, msg.cert):
            qc = None   # value treated as absent without a certificate
        state.view_changes.setdefault(sender, (qc, msg.cert))
        if len(state.view_changes) < self.quorum or PREPARE in state.broadcast_done:
            return
        state.broadcast_done.add(PREPARE)
        candidates = [(qc, s, cert) for s, (qc, cert) in
                      sorted(state.view_changes.items()) if qc is not None]
        if candidates:
            high_qc, _, high_cert = max(candidates,
                                        key=lambda c: (c[0].view, -c[1]))
            value, cert = high_qc.value, high_cert or self._certs.get(high_qc.value)
        else:
            high_qc, value, cert = None, self.proposal, self.my_cert
        state.proposal_value = value
        ctx.broadcast(CoreMessage(PREPARE, msg.view, value=value,
                                  qc=high_qc, cert=cert))

    def _on_leader_broadcast(self, ctx, msg: CoreMessage,
                             state: _ViewState) -> None:
        view = msg.view
        if msg.type == PREPARE:
            if PHASE_PREPARE in state.voted:
                return
            if msg.qc is not None and not self._qc_valid(msg.qc):
                return
            if msg.qc is not None and msg.qc.value != msg.value:
                return
            if not self._certified(msg.value, msg.cert):
                return
            lock = self.locked_qc
            fresher = msg.qc is not None and (lock is None or msg.qc.view > lock.view)
            if not (lock is None or lock.value == msg.value or fresher):
                return
            if msg.cert is not None:
                self._certs.setdefault(msg.value, msg.cert)
            self._vote(ctx, PHASE_PREPARE, msg.value, view, state)
            return

        # PRECOMMIT / COMMIT / DECIDE all carry the QC of the prior phase
        expected = QC_PHASE[msg.type]
        qc = msg.qc
        if qc is None or qc.phase != expected or qc.view != view:
            return
        if not self._qc_valid(qc):
            return
        if msg.type == PRECOMMIT:
            self.prepare_qc = qc
            self._vote(ctx, PHASE_PRECOMMIT, qc.value, view, state)
        elif msg.type == COMMIT:
            self.locked_qc = qc
            self._vote(ctx, PHASE_COMMIT, qc.value, view, state)
        else:
            if not self.decided:
                self.decided = True
                self.on_decide(ctx, qc.value)

    def _vote(self, ctx, phase: str, value, view: int, state: _ViewState) -> None:
        if phase in state.voted:
            return
        state.voted.add(phase)
        psig = self.crypto.share_sign(self.pid, vote_message(phase, value, view),
                                      "quorum")
        ctx.send(leader(view, self.n),
                 CoreMessage(VOTE_TYPE[phase], view, value=value, psig=psig))

    def _on_vote(self, ctx, sender: int, msg: CoreMessage,
                 state: _ViewState) -> None:
        phase = VOTE_PHASE[msg.type]
        if state.proposal_value is None or msg.value != state.proposal_value:
            return
        if not self.crypto.share_verify(
                sender, vote_message(phase, msg.value, msg.view), msg.psig):
            return
        tally = state.votes.setdefault(phase, {})
        tally.setdefault(sender, msg.psig)
        next_type = NEXT_BROADCAST[phase]
        if len(tally) < self.quorum or next_type in state.broadcast_done:
            return
        state.broadcast_done.add(next_type)
        qc = QuorumCertificate(phase, msg.value, msg.view,
                               self.crypto.combine(tally.values()))
        ctx.broadcast(CoreMessage(next_type, msg.view, qc=qc))
