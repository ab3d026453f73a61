"""Exact simulated time and per-process local clocks.

All simulation time is rational (`fractions.Fraction`), never floating
point: timer expiries integrate piecewise-constant clock-rate schedules
exactly, in (numerator, denominator) ints that each clock reads from its
schedule once, when it is built, and several latency bounds are exact
inequalities, so rounding anywhere would make those checks useless. The
constructors keep the ``Fraction`` objects they are given, and every
constant clock shares one schedule tuple.

A process's local clock runs at an adversary-chosen positive rate before
the global stabilization time (GST) and at rate 1 from GST onward.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

SimTime = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
# the schedule of every constant clock, shared
_CONSTANT = ((ZERO, ONE),)


def _exact(x) -> Fraction:
    """``x`` as a ``Fraction``: the object itself if it is one, not a copy."""
    return x if type(x) is Fraction else Fraction(x)


@dataclass(frozen=True, slots=True)
class ClockModel:
    """Piecewise-constant local-clock rate schedule for one process.

    ``segments`` is a sorted tuple of (start_global_time, rate) pairs, the
    first starting at 0. Rates must be strictly positive everywhere, and 1
    on every segment at or after GST.

    ``__post_init__`` reads the schedule's numerators and denominators once
    into ``_ints``, which ``global_expiry`` loops over: a flat tuple of four
    ints per segment, its start's and its rate's numerator and denominator.
    It is derived from ``segments`` alone, so it takes no part in equality,
    hashing or ``repr``, and ``dataclasses.replace`` rebuilds it.
    """

    process: int
    segments: tuple[tuple[Fraction, Fraction], ...]
    _ints: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_ints", tuple(
            i for start, rate in self.segments
            for i in (start.numerator, start.denominator, rate.numerator, rate.denominator)))

    @staticmethod
    def constant(process: int) -> "ClockModel":
        return ClockModel(process, _CONSTANT)

    @staticmethod
    def drift_until(process: int, rate: Fraction, gst: Fraction) -> "ClockModel":
        """Rate ``rate`` on [0, gst), rate 1 afterwards."""
        rate = _exact(rate)
        if gst <= 0 or rate == 1:
            return ClockModel.constant(process)
        return ClockModel(process, ((ZERO, rate), (_exact(gst), ONE)))

    @staticmethod
    def piecewise(process: int, breakpoints: list[tuple[Fraction, Fraction]],
                  gst: Fraction) -> "ClockModel":
        """Arbitrary pre-GST schedule; clamps to rate 1 from GST onward."""
        segs = [(_exact(t), _exact(r)) for t, r in breakpoints if _exact(t) < gst]
        if not segs or segs[0][0] != 0:
            segs.insert(0, (ZERO, ONE))
        segs.append((_exact(gst), ONE))
        return ClockModel(process, tuple(segs))

    def validate(self, gst: Fraction) -> None:
        segs = self.segments
        for _, rate in segs:
            if rate <= 0:
                raise ValueError(f"P{self.process}: non-positive clock rate {rate}")
        # every segment in force at or after GST, that is every segment
        # ending after it (the last one never ends), must run at rate 1
        for (start, rate), (end, _) in zip(segs, segs[1:]):
            if end <= start:
                raise ValueError(f"P{self.process}: unsorted rate schedule")
            if end > gst and rate != 1:
                raise ValueError(f"P{self.process}: drift at/after GST")
        if segs[-1][1] != 1:
            raise ValueError(f"P{self.process}: drift at/after GST")

    def local_elapsed(self, t0: Fraction, t1: Fraction) -> Fraction:
        """Local-clock time accumulated over the global interval [t0, t1]."""
        if t1 < t0:
            raise ValueError("interval reversed")
        total = ZERO
        for i, (start, rate) in enumerate(self.segments):
            end = self.segments[i + 1][0] if i + 1 < len(self.segments) else None
            lo = max(start, t0)
            hi = t1 if end is None else min(end, t1)
            if hi > lo:
                total += rate * (hi - lo)
        return total

    def global_expiry(self, t0: Fraction, local_duration: Fraction) -> Fraction:
        """Global time at which ``local_duration`` has elapsed on the local
        clock, starting from global time ``t0``. The schedule is integrated
        in (numerator, positive denominator) ints, read from ``_ints``, so
        every comparison is an integer cross-product; the result is exact,
        one ``Fraction`` built at the end."""
        rn, rd = local_duration.numerator, local_duration.denominator  # remaining
        if rn <= 0:
            raise ValueError("duration must be positive")
        tn, td = t0.numerator, t0.denominator
        ints = self._ints
        last = len(ints) - 4
        for i in range(0, last, 4):
            # a segment's end is the next one's start
            sn, sd, an, ad, en, ed = ints[i:i + 6]
            if en * td <= tn * ed:
                continue   # the segment ended by t
            if tn * sd < sn * td:
                tn, td = sn, sd
            cn, cd = an * (en * td - tn * ed), ad * ed * td   # rate * (end - t)
            if cn * rd >= rn * cd:
                break
            rn, rd = rn * cd - cn * rd, rd * cd   # remaining - capacity
            tn, td = en, ed
        else:
            # the last segment never ends; its rate is 1 once validated
            sn, sd, an, ad = ints[last:]
            if tn * sd < sn * td:
                tn, td = sn, sd
        # t + remaining / rate
        return Fraction(tn * rd * an + rn * ad * td, td * rd * an)
