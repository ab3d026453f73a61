"""Exact simulated time and per-process local clocks.

All simulation time is rational (`fractions.Fraction`), never floating
point: timer expiries integrate piecewise-constant clock-rate schedules
exactly, in (numerator, denominator) ints, and several latency bounds are
exact inequalities, so rounding anywhere would make those checks useless.

A process's local clock runs at an adversary-chosen positive rate before
the global stabilization time (GST) and at rate 1 from GST onward.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

SimTime = Fraction

ZERO = Fraction(0)


@dataclass(frozen=True)
class ClockModel:
    """Piecewise-constant local-clock rate schedule for one process.

    ``segments`` is a sorted tuple of (start_global_time, rate) pairs, the
    first starting at 0. Rates must be strictly positive everywhere, and 1
    on every segment at or after GST.
    """

    process: int
    segments: tuple[tuple[Fraction, Fraction], ...]

    @staticmethod
    def constant(process: int) -> "ClockModel":
        return ClockModel(process, ((ZERO, Fraction(1)),))

    @staticmethod
    def drift_until(process: int, rate: Fraction, gst: Fraction) -> "ClockModel":
        """Rate ``rate`` on [0, gst), rate 1 afterwards."""
        rate = Fraction(rate)
        if gst <= 0 or rate == 1:
            return ClockModel.constant(process)
        return ClockModel(process, ((ZERO, rate), (Fraction(gst), Fraction(1))))

    @staticmethod
    def piecewise(process: int, breakpoints: list[tuple[Fraction, Fraction]],
                  gst: Fraction) -> "ClockModel":
        """Arbitrary pre-GST schedule; clamps to rate 1 from GST onward."""
        segs = [(Fraction(t), Fraction(r)) for t, r in breakpoints if Fraction(t) < gst]
        if not segs or segs[0][0] != 0:
            segs.insert(0, (ZERO, Fraction(1)))
        segs.append((Fraction(gst), Fraction(1)))
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
        in (numerator, positive denominator) ints, so every comparison is an
        integer cross-product; the result is exact, one ``Fraction`` built
        at the end."""
        rn, rd = local_duration.numerator, local_duration.denominator  # remaining
        if rn <= 0:
            raise ValueError("duration must be positive")
        tn, td = t0.numerator, t0.denominator
        segs = self.segments
        for (start, rate), (end, _) in zip(segs, segs[1:]):
            en, ed = end.numerator, end.denominator
            if en * td <= tn * ed:
                continue   # the segment ended by t
            if tn * start.denominator < start.numerator * td:
                tn, td = start.numerator, start.denominator
            an, ad = rate.numerator, rate.denominator
            cn, cd = an * (en * td - tn * ed), ad * ed * td   # rate * (end - t)
            if cn * rd >= rn * cd:
                break
            rn, rd = rn * cd - cn * rd, rd * cd   # remaining - capacity
            tn, td = en, ed
        else:
            start, rate = segs[-1]   # the last segment never ends
            if tn * start.denominator < start.numerator * td:
                tn, td = start.numerator, start.denominator
            an, ad = rate.numerator, rate.denominator   # 1 once validated
        # t + remaining / rate
        return Fraction(tn * rd * an + rn * ad * td, td * rd * an)
