"""Consensus compositions: the certified-value preprocessing phase, the
view core wired to a synchronizer, and the full protocol node.

A plain composed run ("raresync-quad", or a baseline synchronizer) starts
the view core and the synchronizer together; synchronizer advance
indications drive start_executing, and a core decision is the protocol
decision.

The certified variant ("squad") first runs a one-shot certification
phase. Every process discloses its proposal under an (f+1, n) scheme;
f+1 matching DISCLOSE messages combine into a certificate for that value,
while 2f+1 DISCLOSE messages with no f+1-common value license ALLOW-ANY,
f+1 of which combine into a certificate good for any value. Obtained
certificates are rebroadcast once and the phase exits. Only then does the
process start the view core, gated so that uncertified values are ignored
wherever a value enters the protocol. If all correct processes propose
the same value, no other value can ever be certified, which upgrades weak
validity to validity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .crypto import CryptoSystem, PartialSignature, ThresholdSignature
from .raresync import RareSync
from .baselines import AllToAllSync, DoublingSync
from .viewcore import ViewCore

ANY_VALUE_TAG = "any value"


def value_message(value) -> tuple:
    return ("value", value)


@dataclass(frozen=True)
class Certificate:
    subject: object          # a concrete value, or None meaning any value
    tsig: ThresholdSignature

    def summary(self) -> str:
        subj = "ANY" if self.subject is None else self.subject
        return f"cert({subj},{self.tsig.summary()})"


def verify_certificate(crypto: CryptoSystem, value, cert) -> bool:
    if not isinstance(cert, Certificate):
        return False
    if crypto.combined_verify(ANY_VALUE_TAG, cert.tsig):
        return True
    return crypto.combined_verify(value_message(value), cert.tsig)


@dataclass(frozen=True)
class DiscloseMsg:
    value: object
    psig: PartialSignature

    def summary(self) -> str:
        return f"DISCLOSE(v={self.value},{self.psig.summary()})"


@dataclass(frozen=True)
class AllowAnyMsg:
    psig: PartialSignature

    def summary(self) -> str:
        return f"ALLOW-ANY({self.psig.summary()})"


@dataclass(frozen=True)
class CertificateMsg:
    value: object            # None for an any-value certificate
    cert: Certificate

    def summary(self) -> str:
        v = "ANY" if self.value is None else self.value
        return f"CERTIFICATE(v={v},{self.cert.summary()})"


class CertPhase:
    """Certification phase for one process; exits with (value-or-None, cert)."""

    def __init__(self, pid: int, n: int, f: int, proposal,
                 on_exit: Callable[[object, object, Certificate], None]):
        self.pid = pid
        self.n = n
        self.f = f
        self.proposal = proposal
        self.on_exit = on_exit
        self.exited = False
        self._disclose: dict[object, dict[int, PartialSignature]] = {}
        self._disclose_senders: set[int] = set()
        self._allow: dict[int, PartialSignature] = {}
        self._allow_sent = False

    def start(self, ctx) -> None:
        psig = ctx.crypto.share_sign(self.pid, value_message(self.proposal), "cert")
        ctx.broadcast(DiscloseMsg(self.proposal, psig))

    def on_message(self, ctx, sender: int, msg) -> bool:
        if isinstance(msg, DiscloseMsg):
            if not self.exited:
                self._on_disclose(ctx, sender, msg)
            return True
        if isinstance(msg, AllowAnyMsg):
            if not self.exited:
                self._on_allow_any(ctx, sender, msg)
            return True
        if isinstance(msg, CertificateMsg):
            if not self.exited:
                self._on_certificate(ctx, msg)
            return True
        return False

    def _exit(self, ctx, value, cert: Certificate) -> None:
        self.exited = True
        self.on_exit(ctx, value, cert)

    def _on_disclose(self, ctx, sender: int, msg: DiscloseMsg) -> None:
        if not ctx.crypto.share_verify(sender, value_message(msg.value), msg.psig):
            return
        tally = self._disclose.setdefault(msg.value, {})
        tally.setdefault(sender, msg.psig)
        self._disclose_senders.add(sender)
        if len(tally) >= self.f + 1:
            cert = Certificate(msg.value, ctx.crypto.combine(tally.values()))
            ctx.broadcast(CertificateMsg(msg.value, cert))
            self._exit(ctx, msg.value, cert)
            return
        if (not self._allow_sent
                and len(self._disclose_senders) >= 2 * self.f + 1
                and all(len(t) < self.f + 1 for t in self._disclose.values())):
            self._allow_sent = True
            psig = ctx.crypto.share_sign(self.pid, ANY_VALUE_TAG, "cert")
            ctx.broadcast(AllowAnyMsg(psig))

    def _on_allow_any(self, ctx, sender: int, msg: AllowAnyMsg) -> None:
        if not ctx.crypto.share_verify(sender, ANY_VALUE_TAG, msg.psig):
            return
        self._allow.setdefault(sender, msg.psig)
        if len(self._allow) >= self.f + 1:
            cert = Certificate(None, ctx.crypto.combine(self._allow.values()))
            ctx.broadcast(CertificateMsg(None, cert))
            self._exit(ctx, None, cert)

    def _on_certificate(self, ctx, msg: CertificateMsg) -> None:
        if not verify_certificate(ctx.crypto, msg.value, msg.cert):
            return
        ctx.broadcast(CertificateMsg(msg.value, msg.cert))
        self._exit(ctx, msg.value, msg.cert)


class ProtocolNode:
    """One correct process: optional certification, synchronizer, view core."""

    def __init__(self, pid: int, n: int, f: int, crypto: CryptoSystem,
                 proposal, synchronizer: str, delta: Fraction,
                 view_duration: Fraction, certified: bool = False, beta: Fraction = Fraction(1),
                 core_factory=None):
        self.pid = pid
        self.n = n
        self.f = f
        self.proposal = proposal
        self.certified = certified

        validator = ((lambda value, cert: verify_certificate(crypto, value, cert))
                     if certified else None)
        core_factory = core_factory or ViewCore
        self.core = core_factory(pid, n, f, crypto,
                                 on_decide=lambda ctx, v: ctx.decide(v),
                                 cert_validator=validator)
        if synchronizer == "raresync":
            self.sync = RareSync(pid, n, f, delta, view_duration,
                                 advance=self._on_advance)
        elif synchronizer == "alltoall":
            self.sync = AllToAllSync(pid, n, f, view_duration,
                                     advance=self._on_advance)
        elif synchronizer == "doubling":
            self.sync = DoublingSync(pid, beta, advance=self._on_advance)
        else:
            raise ValueError(f"unknown synchronizer {synchronizer!r}")
        self.cert_phase = (CertPhase(pid, n, f, proposal, self._on_certified)
                           if certified else None)
        self._started = False
        self._inbox: list = []       # deliveries before this process started
        self._running = False
        self._pre_start: list = []   # consensus messages before cert exit

    def _on_advance(self, ctx, view: int) -> None:
        self.core.start_executing(ctx, view)

    def _on_certified(self, ctx, value, cert: Certificate) -> None:
        proposal = self.proposal if value is None else value
        self._start_consensus(ctx, proposal, cert)

    def _start_consensus(self, ctx, proposal, cert) -> None:
        self.core.init(proposal, cert)
        self._running = True
        self.sync.start(ctx)
        for sender, payload in self._pre_start:
            self._route(ctx, sender, payload)
        self._pre_start.clear()

    # -- engine hooks --------------------------------------------------------

    def on_start(self, ctx) -> None:
        self._started = True
        if self.cert_phase is not None:
            self.cert_phase.start(ctx)
        else:
            self._start_consensus(ctx, self.proposal, None)
        inbox, self._inbox = self._inbox, []
        for sender, payload in inbox:
            self._deliver(ctx, sender, payload)

    def on_deliver(self, ctx, sender: int, payload) -> None:
        if not self._started:
            self._inbox.append((sender, payload))
            return
        self._deliver(ctx, sender, payload)

    def _deliver(self, ctx, sender: int, payload) -> None:
        if self.cert_phase is not None and self.cert_phase.on_message(ctx, sender, payload):
            return
        if not self._running:
            self._pre_start.append((sender, payload))
            return
        self._route(ctx, sender, payload)

    def _route(self, ctx, sender: int, payload) -> None:
        if self.sync.on_message(ctx, sender, payload):
            return
        self.core.on_message(ctx, sender, payload)

    def on_timer(self, ctx, kind: str) -> None:
        if kind == "view_timer":
            self.sync.on_view_timer(ctx)
        elif kind == "dissemination_timer":
            self.sync.on_dissemination_timer(ctx)
        elif kind == "baseline_timer":
            self.sync.on_timer(ctx)
