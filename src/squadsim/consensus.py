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

import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .crypto import CryptoSystem, PartialSignature, ThresholdSignature
from .raresync import RareSync
from .baselines import AllToAllSync, DoublingSync
from .viewcore import ViewCore

ANY_VALUE_TAG = "any value"

# every protocol a scenario can name: (synchronizer, certified)
PROTOCOLS = {"raresync-quad": ("raresync", False), "squad": ("raresync", True),
             "alltoall": ("alltoall", False), "doubling": ("doubling", False)}


def value_message(value) -> str:
    return f"(value,{value})"


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

    MESSAGES = (DiscloseMsg, AllowAnyMsg, CertificateMsg)

    def __init__(self, pid: int, f: int, proposal,
                 on_exit: Callable[[object, object, Certificate], None]):
        self.pid = pid
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

    def on_message(self, ctx, sender: int, msg) -> None:
        if self.exited:
            return
        if type(msg) is DiscloseMsg:
            self._on_disclose(ctx, sender, msg)
        elif type(msg) is AllowAnyMsg:
            self._on_allow_any(ctx, sender, msg)
        else:
            self._on_certificate(ctx, msg)

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
    """One correct process: optional certification, synchronizer, view core.

    Each layer names the payload classes it owns in ``MESSAGES``;
    ``_handlers`` maps the classes of the current phase to their owner's
    ``on_message``: none before start, the cert phase's until it exits, then
    the synchronizer's and the view core's. The synchronizer's ``advance``
    callback logs each view entry. One hold buffer keeps, in arrival order,
    what the current phase does not handle until consensus starts; after
    that such a payload is dropped.

    No layer holds a strong reference to the node: ``advance`` closes over
    the view core and the cert phase reaches ``_start_consensus`` through a
    weak reference. So a finished run makes no reference cycle, and its
    nodes and the crypto ledger's signatures are freed with its last
    reference, without the cycle collector."""

    def __init__(self, pid: int, n: int, f: int, crypto: CryptoSystem,
                 proposal, synchronizer: str, delta: Fraction,
                 view_duration: Fraction, certified: bool = False,
                 core_factory=None):
        self.proposal = proposal
        validator = ((lambda value, cert: verify_certificate(crypto, value, cert))
                     if certified else None)
        core_factory = core_factory or ViewCore
        self.core = core_factory(pid, n, f, crypto,
                                 on_decide=lambda ctx, v: ctx.decide(v),
                                 cert_validator=validator)
        core = self.core

        def advance(ctx, view: int) -> None:
            ctx.log_advance(view)
            core.start_executing(ctx, view)

        if synchronizer == "raresync":
            self.sync = RareSync(pid, f, delta, view_duration, advance=advance)
        elif synchronizer == "alltoall":
            self.sync = AllToAllSync(f, view_duration, advance=advance)
        elif synchronizer == "doubling":
            self.sync = DoublingSync(advance=advance)
        else:
            raise ValueError(f"unknown synchronizer {synchronizer!r}")
        if certified:
            start = weakref.WeakMethod(self._start_consensus)
            self.cert_phase = CertPhase(pid, f, proposal,
                                        lambda *args: start()(*args))
        else:
            self.cert_phase = None
        self._running = False
        self._handlers: dict[type, Callable] = {}
        self._held: list = []   # (sender, payload) not yet handled

    @staticmethod
    def _handlers_of(*layers) -> dict[type, Callable]:
        return {cls: layer.on_message for layer in layers for cls in layer.MESSAGES}

    def _start_consensus(self, ctx, value, cert) -> None:
        self.core.init(self.proposal if value is None else value, cert)
        self._running = True
        self._handlers = self._handlers_of(self.sync, self.core)
        self.sync.start(ctx)
        self._release(ctx)

    def _release(self, ctx) -> None:
        held, self._held = self._held, []
        for sender, payload in held:
            self.on_deliver(ctx, sender, payload)

    # -- engine hooks --------------------------------------------------------

    def on_start(self, ctx) -> None:
        if self.cert_phase is None:
            self._start_consensus(ctx, None, None)
        else:
            self._handlers = self._handlers_of(self.cert_phase)
            self.cert_phase.start(ctx)
            self._release(ctx)

    def on_deliver(self, ctx, sender: int, payload) -> None:
        handle = self._handlers.get(type(payload))
        if handle is not None:
            handle(ctx, sender, payload)
        elif not self._running:
            self._held.append((sender, payload))

    def on_timer(self, ctx, kind: str) -> None:
        if kind == "view_timer":
            self.sync.on_view_timer(ctx)
        elif kind == "dissemination_timer":
            self.sync.on_dissemination_timer(ctx)
        elif kind == "baseline_timer":
            self.sync.on_timer(ctx)
