"""Local-clock integration and inversion.

The oracle for expiry computation is the defining property itself:
local_elapsed (forward accumulation over rate segments) applied to the
computed expiry must give back exactly the measured duration, and
strictly less at any earlier instant.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from squadsim.timebase import ClockModel


def fractions(max_num=400, max_den=8):
    return st.builds(Fraction,
                     st.integers(min_value=0, max_value=max_num),
                     st.integers(min_value=1, max_value=max_den))


def rate_schedules(gst=Fraction(100)):
    """Piecewise pre-GST schedules with strictly positive rates."""
    rates = st.builds(Fraction, st.integers(min_value=1, max_value=8),
                      st.integers(min_value=1, max_value=4))
    breaks = st.lists(fractions(max_num=99), min_size=0, max_size=4, unique=True)
    return st.tuples(breaks, st.lists(rates, min_size=5, max_size=5)).map(
        lambda br: ClockModel.piecewise(
            1, list(zip([Fraction(0)] + sorted(br[0]), br[1])), gst))


def test_no_drift_expiry_is_plain_addition():
    clock = ClockModel.constant(1)
    assert clock.global_expiry(Fraction(5), Fraction(10)) == 15


@pytest.mark.parametrize("duration", [Fraction(0), Fraction(-1, 3)])
def test_nonpositive_duration_is_rejected(duration):
    with pytest.raises(ValueError, match="positive"):
        ClockModel.constant(1).global_expiry(Fraction(5), duration)


def test_half_rate_drift_doubles_wait():
    # rate 1/2 before GST=100: 10 local units starting at 0 take 20 global
    clock = ClockModel.drift_until(1, Fraction(1, 2), Fraction(100))
    assert clock.global_expiry(Fraction(0), Fraction(10)) == 20


def test_expiry_across_gst_boundary():
    clock = ClockModel.drift_until(1, Fraction(1, 2), Fraction(10))
    # from t=0: 5 local by t=10, remaining 3 at rate 1 -> 13
    assert clock.global_expiry(Fraction(0), Fraction(8)) == 13


def test_elapsed_integrates_segments():
    clock = ClockModel.drift_until(1, Fraction(2), Fraction(10))
    assert clock.local_elapsed(Fraction(0), Fraction(10)) == 20
    assert clock.local_elapsed(Fraction(5), Fraction(15)) == 10 + 5


def test_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        ClockModel(1, ((Fraction(0), Fraction(0)),)).validate(Fraction(10))


def test_rejects_drift_after_gst():
    clock = ClockModel(1, ((Fraction(0), Fraction(2)),))
    with pytest.raises(ValueError):
        clock.validate(Fraction(10))
    spans_gst = ClockModel(1, ((Fraction(0), Fraction(2)),
                               (Fraction(20), Fraction(1))))
    with pytest.raises(ValueError):
        spans_gst.validate(Fraction(10))


@given(rate_schedules(), fractions(max_num=120), fractions(max_num=50, max_den=4))
@settings(max_examples=200)
def test_expiry_inverts_elapsed(clock, t0, duration):
    if duration == 0:
        return
    expiry = clock.global_expiry(t0, duration)
    assert clock.local_elapsed(t0, expiry) == duration
    # strictly less local time at any earlier point
    earlier = t0 + (expiry - t0) * Fraction(1, 3)
    assert clock.local_elapsed(t0, earlier) < duration


@given(rate_schedules(), fractions(max_num=120), fractions(max_num=120))
@settings(max_examples=200)
def test_local_clock_strictly_monotone(clock, a, b):
    lo, hi = min(a, b), max(a, b)
    if lo == hi:
        return
    assert clock.local_elapsed(lo, hi) > 0
