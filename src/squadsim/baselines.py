"""Comparison synchronizers: per-view all-to-all, and view doubling.

The all-to-all synchronizer pays a full wish exchange in every view: when
a process's view timer fires it broadcasts WISH(v+1), and a process moves
to view w+1 as soon as 2f+1 distinct processes have wished for w+1 or
beyond (a wish for a high view implies willingness for every lower one,
and catching up cascades without further sends). Wishing still requires
the sender's own timeout, so a correct process sends n words per view it
sits through, for a cubic total over Theta(f) views. The wish support
for the next view is kept as a running count: a WISH adds one only when
it lifts its sender's highest wish across view + 1, and the count is
recounted over the stored wishes only when the view advances, so a
message costs O(1) and a view O(n) instead of O(n) and O(n^2).

The doubling synchronizer never communicates: each view simply lasts
twice as long as the previous one, starting from ``BETA`` = 1. Laggards
are only ever caught because view durations eventually dwarf any fixed
skew, which is why its synchronization latency is unbounded in the skew.
Both report a view entry only through ``advance``; the node logs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class WishMsg:
    view: int   # the view the sender wants to enter

    def summary(self) -> str:
        return f"WISH(view={self.view})"


class AllToAllSync:
    MESSAGES = (WishMsg,)

    def __init__(self, f: int, view_duration: Fraction,
                 advance: Callable[[object, int], None]):
        self.f = f
        self.view_duration = Fraction(view_duration)
        self._advance = advance
        self.view = 1
        self._wishes: dict[int, int] = {}   # sender -> highest view wished
        self._support = 0   # senders whose highest wish is >= view + 1

    def start(self, ctx) -> None:
        ctx.measure("baseline_timer", self.view_duration)
        self._advance(ctx, self.view)

    def on_timer(self, ctx) -> None:
        ctx.broadcast(WishMsg(self.view + 1))

    def on_message(self, ctx, sender: int, msg: WishMsg) -> None:
        previous = self._wishes.get(sender, 0)
        if msg.view > previous:
            self._wishes[sender] = msg.view
            if previous <= self.view < msg.view:
                self._support += 1
                # support grows only here, so only here can it reach 2f+1
                if self._support >= 2 * self.f + 1:
                    self._catch_up(ctx)

    def _catch_up(self, ctx) -> None:
        while self._support >= 2 * self.f + 1:
            self.view += 1
            self._support = sum(1 for w in self._wishes.values() if w > self.view)
            ctx.measure("baseline_timer", self.view_duration)
            self._advance(ctx, self.view)


class DoublingSync:
    MESSAGES = ()   # it never communicates
    BETA = Fraction(1)   # the first view's duration

    def __init__(self, advance: Callable[[object, int], None]):
        self._advance = advance
        self.view = 1
        self.current_duration = self.BETA

    def start(self, ctx) -> None:
        ctx.measure("baseline_timer", self.current_duration)
        self._advance(ctx, self.view)

    def on_timer(self, ctx) -> None:
        self.current_duration *= 2
        self.view += 1
        ctx.measure("baseline_timer", self.current_duration)
        self._advance(ctx, self.view)
