"""Epoch-based view synchronizer with one communication step per epoch.

Views are grouped into epochs of f+1 consecutive views. Within an epoch a
process moves from view to view purely on its local view timer. Only when
it finishes the last view of its epoch does it broadcast an
EPOCH-COMPLETED message carrying a partial signature of the epoch number;
at that point it stops entering views. A quorum of 2f+1 such messages for
some epoch e >= epoch_i proves epoch e+1 may be entered. A process holding
that proof (or told about it via ENTER-EPOCH, which carries the combined
threshold signature of e) waits delta on its dissemination timer, then
re-broadcasts ENTER-EPOCH and enters the first view of the new epoch. The
delta wait bounds how many epochs a process can enter per delta of time
after GST, which is what keeps total communication quadratic. These two
timers are the only kinds RareSync arms, and ``on_timer`` dispatches both.

Global view numbering: view j of epoch e is (e-1)*(f+1) + j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .crypto import PartialSignature, ThresholdSignature


def leader(view: int, n: int) -> int:
    """Round-robin leader: view v is led by process (v mod n) + 1."""
    if view < 1:
        raise ValueError("views start at 1")
    return (view % n) + 1


def epoch_message(epoch: int) -> str:
    return f"(epoch,{epoch})"


@dataclass(frozen=True)
class EpochCompletedMsg:
    epoch: int
    psig: PartialSignature

    def summary(self) -> str:
        return f"EPOCH-COMPLETED(e={self.epoch},{self.psig.summary()})"


@dataclass(frozen=True)
class EnterEpochMsg:
    epoch: int
    tsig: ThresholdSignature

    def summary(self) -> str:
        return f"ENTER-EPOCH(e={self.epoch},{self.tsig.summary()})"


class RareSync:
    """Synchronizer state machine for one process.

    ``advance`` is called synchronously, within the event being handled,
    whenever the process enters a view; the composing node logs the entry
    and the view core reacts inside the same simulated instant.
    """

    MESSAGES = (EpochCompletedMsg, EnterEpochMsg)

    def __init__(self, pid: int, f: int, delta: Fraction,
                 view_duration: Fraction, advance: Callable[[object, int], None]):
        self.pid = pid
        self.f = f
        self.delta = Fraction(delta)
        self.view_duration = Fraction(view_duration)
        self._advance = advance

        self.epoch: int = 1
        self.view: int = 1          # in-epoch index, always in [1, f+1]
        self.epoch_sig: Optional[ThresholdSignature] = None
        # epoch -> {sender: psig}
        self._completed: dict[int, dict[int, PartialSignature]] = {}

    # -- helpers -----------------------------------------------------------

    def global_view(self) -> int:
        return (self.epoch - 1) * (self.f + 1) + self.view

    def _enter_current_view(self, ctx, first_of_epoch: bool) -> None:
        if first_of_epoch:
            ctx.log_enter_epoch(self.epoch)
        self._advance(ctx, self.global_view())

    # -- protocol rules ----------------------------------------------------

    def start(self, ctx) -> None:
        ctx.measure("view_timer", self.view_duration)
        self._enter_current_view(ctx, first_of_epoch=True)

    def on_timer(self, ctx, kind: str) -> None:
        if kind == "dissemination_timer":
            ctx.broadcast(EnterEpochMsg(self.epoch, self.epoch_sig))
            self.view = 1
        elif kind != "view_timer":
            raise ValueError(f"RareSync arms no {kind!r} timer")
        elif self.view < self.f + 1:
            self.view += 1
        else:
            psig = ctx.crypto.share_sign(self.pid, epoch_message(self.epoch), "quorum")
            ctx.broadcast(EpochCompletedMsg(self.epoch, psig))
            # the process enters no view until a new epoch is proven
            return
        ctx.measure("view_timer", self.view_duration)
        self._enter_current_view(ctx, first_of_epoch=self.view == 1)

    def on_message(self, ctx, sender: int, msg) -> None:
        if type(msg) is EpochCompletedMsg:
            self._on_epoch_completed(ctx, sender, msg)
        else:
            self._on_enter_epoch(ctx, msg)

    def _on_epoch_completed(self, ctx, sender: int, msg: EpochCompletedMsg) -> None:
        if not ctx.crypto.share_verify(sender, epoch_message(msg.epoch), msg.psig):
            return
        tally = self._completed.setdefault(msg.epoch, {})
        tally.setdefault(sender, msg.psig)
        e = msg.epoch
        # taking e's quorum sets epoch = e + 1, never lowered: used once
        if e >= self.epoch and len(tally) >= 2 * self.f + 1:
            self._adopt(ctx, e + 1, ctx.crypto.combine(tally.values()))

    def _on_enter_epoch(self, ctx, msg: EnterEpochMsg) -> None:
        if msg.epoch <= self.epoch:
            return
        if not ctx.crypto.combined_verify(epoch_message(msg.epoch - 1), msg.tsig):
            return
        self._adopt(ctx, msg.epoch, msg.tsig)

    def _adopt(self, ctx, epoch: int, sig: ThresholdSignature) -> None:
        # a proof of epoch: stop the views and wait delta before entering it
        self.epoch_sig = sig
        self.epoch = epoch
        ctx.cancel("view_timer")
        ctx.cancel("dissemination_timer")
        ctx.measure("dissemination_timer", self.delta)
