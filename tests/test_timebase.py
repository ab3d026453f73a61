"""Local-clock integration and inversion.

The oracle for expiry computation is the defining property itself:
local_elapsed (forward accumulation over rate segments) applied to the
computed expiry must give back exactly the measured duration, and
strictly less at any earlier instant.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from squadsim.timebase import ClockModel
from tests.exact_times import exact_times, positive_times


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


def fraction_expiry(clock, t0, local_duration):
    """``global_expiry`` as it was written in ``Fraction`` arithmetic: the
    reference for the integer version."""
    remaining, t = local_duration, t0
    segs = clock.segments
    for (start, rate), (end, _) in zip(segs, segs[1:]):
        if end <= t:
            continue   # the segment ended by t
        t = max(t, start)
        capacity = rate * (end - t)
        if capacity >= remaining:
            return t + remaining / rate
        remaining -= capacity
        t = end
    start, rate = segs[-1]   # the last segment never ends
    return max(t, start) + remaining / rate


@st.composite
def exact_schedules(draw):
    """A validated pre-GST schedule whose breakpoints, rates and GST have
    numerators up to 10**20 and mixed denominators."""
    breaks = draw(st.lists(positive_times, max_size=4, unique=True))
    gst = max(breaks, default=Fraction(0)) + draw(positive_times)
    rates = draw(st.lists(positive_times, min_size=5, max_size=5))
    clock = ClockModel.piecewise(
        1, list(zip([Fraction(0)] + sorted(breaks), rates)), gst)
    clock.validate(gst)
    return clock


@given(exact_schedules(), exact_times, positive_times)
@settings(max_examples=400)
def test_expiry_equals_the_rational_formula_exactly(clock, t0, duration):
    expiry = clock.global_expiry(t0, duration)
    assert type(expiry) is Fraction
    assert expiry == fraction_expiry(clock, t0, duration)


@st.composite
def constructed_clocks(draw):
    """A validated clock from each constructor: ``constant``,
    ``drift_until`` or ``piecewise``."""
    which = draw(st.sampled_from(["constant", "drift_until", "piecewise"]))
    if which == "constant":
        return ClockModel.constant(1)
    if which == "piecewise":
        return draw(exact_schedules())
    gst = draw(st.one_of(st.just(Fraction(0)), positive_times))
    clock = ClockModel.drift_until(1, draw(positive_times), gst)
    clock.validate(gst)
    return clock


@given(constructed_clocks(), exact_times, positive_times)
@settings(max_examples=300)
def test_every_constructor_gives_the_rational_expiry(clock, t0, duration):
    assert clock.global_expiry(t0, duration) == fraction_expiry(clock, t0, duration)


def test_the_cached_ints_take_no_part_in_equality_hash_or_repr():
    # equal schedules held by distinct objects
    a = ClockModel.drift_until(3, Fraction(1, 2), Fraction(40))
    b = ClockModel(3, ((Fraction(0), Fraction(2, 4)), (Fraction(80, 2), Fraction(1))))
    assert a == b and hash(a) == hash(b)
    assert a != ClockModel.drift_until(3, Fraction(1, 3), Fraction(40))
    assert repr(a) == ("ClockModel(process=3, segments=((Fraction(0, 1), Fraction(1, 2)), "
                       "(Fraction(40, 1), Fraction(1, 1))))")
    assert ClockModel.constant(1) == ClockModel.constant(1)


def test_replace_rebuilds_the_cached_ints():
    drift = ClockModel.drift_until(1, Fraction(1, 2), Fraction(100))
    assert drift.global_expiry(Fraction(0), Fraction(10)) == 20
    plain = dataclasses.replace(drift, segments=ClockModel.constant(1).segments)
    assert plain == ClockModel.constant(1)
    assert plain.global_expiry(Fraction(0), Fraction(10)) == 10
    faster = dataclasses.replace(drift, segments=((Fraction(0), Fraction(2)),
                                                  (Fraction(100), Fraction(1))))
    assert faster.global_expiry(Fraction(0), Fraction(10)) == 5


@pytest.mark.parametrize("segments, message", [
    (((Fraction(0), Fraction(0)),), "non-positive clock rate 0"),
    (((Fraction(0), Fraction(2)), (Fraction(0), Fraction(0)), (Fraction(9), Fraction(1))),
     "non-positive clock rate 0"),
    (((Fraction(0), Fraction(2)), (Fraction(5), Fraction(1)), (Fraction(3), Fraction(1))),
     "unsorted rate schedule"),
    (((Fraction(0), Fraction(2)), (Fraction(0), Fraction(1))), "unsorted rate schedule"),
])
def test_validate_still_names_a_bad_schedule_first(segments, message):
    # building a clock reads its ints and checks nothing: validate decides
    clock = ClockModel(1, segments)
    with pytest.raises(ValueError, match=f"P1: {message}"):
        clock.validate(Fraction(10))
