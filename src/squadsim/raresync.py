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
after GST, which is what keeps total communication quadratic.

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


def epoch_message(epoch: int) -> tuple:
    return ("epoch", epoch)


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
    whenever the process enters a view; the composed consumer (the view
    core) reacts inside the same simulated instant.
    """

    def __init__(self, pid: int, n: int, f: int, delta: Fraction,
                 view_duration: Fraction, advance: Callable[[object, int], None]):
        self.pid = pid
        self.n = n
        self.f = f
        self.delta = Fraction(delta)
        self.view_duration = Fraction(view_duration)
        self._advance = advance

        self.epoch: int = 1
        self.view: int = 1          # in-epoch index, always in [1, f+1]
        self.epoch_sig: Optional[ThresholdSignature] = None
        # epoch -> {sender: psig}; quorum consumed at most once per epoch
        self._completed: dict[int, dict[int, PartialSignature]] = {}
        self._consumed: set[int] = set()

    # -- helpers -----------------------------------------------------------

    def global_view(self) -> int:
        return (self.epoch - 1) * (self.f + 1) + self.view

    def _enter_current_view(self, ctx, first_of_epoch: bool) -> None:
        v = self.global_view()
        if first_of_epoch:
            ctx.log_enter_epoch(self.epoch)
        ctx.log_advance(v)
        self._advance(ctx, v)

    # -- protocol rules ----------------------------------------------------

    def start(self, ctx) -> None:
        ctx.measure("view_timer", self.view_duration)
        self._enter_current_view(ctx, first_of_epoch=True)

    def on_view_timer(self, ctx) -> None:
        if self.view < self.f + 1:
            self.view += 1
            ctx.measure("view_timer", self.view_duration)
            self._enter_current_view(ctx, first_of_epoch=False)
        else:
            psig = ctx.crypto.share_sign(self.pid, epoch_message(self.epoch), "quorum")
            ctx.broadcast(EpochCompletedMsg(self.epoch, psig))
            # the process enters no view until a new epoch is proven

    def on_dissemination_timer(self, ctx) -> None:
        ctx.broadcast(EnterEpochMsg(self.epoch, self.epoch_sig))
        self.view = 1
        ctx.measure("view_timer", self.view_duration)
        self._enter_current_view(ctx, first_of_epoch=True)

    def on_message(self, ctx, sender: int, msg) -> bool:
        if isinstance(msg, EpochCompletedMsg):
            self._on_epoch_completed(ctx, sender, msg)
            return True
        if isinstance(msg, EnterEpochMsg):
            self._on_enter_epoch(ctx, msg)
            return True
        return False

    def _on_epoch_completed(self, ctx, sender: int, msg: EpochCompletedMsg) -> None:
        if not ctx.crypto.share_verify(sender, epoch_message(msg.epoch), msg.psig):
            return
        tally = self._completed.setdefault(msg.epoch, {})
        tally.setdefault(sender, msg.psig)
        e = msg.epoch
        if (e >= self.epoch and e not in self._consumed
                and len(tally) >= 2 * self.f + 1):
            self._consumed.add(e)
            self.epoch_sig = ctx.crypto.combine(tally.values())
            self.epoch = e + 1
            ctx.cancel("view_timer")
            ctx.cancel("dissemination_timer")
            ctx.measure("dissemination_timer", self.delta)

    def _on_enter_epoch(self, ctx, msg: EnterEpochMsg) -> None:
        if msg.epoch <= self.epoch:
            return
        if not ctx.crypto.combined_verify(epoch_message(msg.epoch - 1), msg.tsig):
            return
        self.epoch_sig = msg.tsig
        self.epoch = msg.epoch
        ctx.cancel("view_timer")
        ctx.cancel("dissemination_timer")
        ctx.measure("dissemination_timer", self.delta)
