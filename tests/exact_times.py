"""Hypothesis strategies for the exact-time property tests.

The engine, the delay policies and the delay checker decide time
comparisons with integer cross-products of numerators and denominators.
These strategies draw the inputs where such a rewrite can go wrong: mixed
and large denominators, equal values held by distinct objects, times a
hair above or below a bound, and negative differences.
"""

from fractions import Fraction

import hypothesis.strategies as st

# integers, thirds, the 64ths of the jitter grid, the hundredths of
# epsilon, and a large prime
DENOMINATORS = (1, 3, 64, 100, 2**61 - 1)
_TINY = Fraction(1, 2**61 - 1)

exact_times = st.builds(Fraction, st.integers(-10**20, 10**20),
                        st.sampled_from(DENOMINATORS))
positive_times = st.builds(Fraction, st.integers(1, 10**20),
                           st.sampled_from(DENOMINATORS))


def _offsets(delta):
    """Offsets at, just inside and just outside 0 and +-delta, or anywhere."""
    return st.one_of(
        st.sampled_from([0, 1, -1, Fraction(1, 2)]).map(lambda k: k * delta),
        st.sampled_from([_TINY, -_TINY]).map(lambda e: delta + e),
        st.sampled_from([_TINY, -_TINY]),
        exact_times)


@st.composite
def exact_cases(draw):
    """(gst, delta, earlier, later): ``later`` and ``gst`` lie at a drawn
    offset from ``earlier``. Every value is a distinct object, so an offset
    of 0 gives an equal value that identity cannot decide."""
    delta = draw(positive_times)
    earlier = draw(exact_times)
    gst = earlier + draw(_offsets(delta))
    later = earlier + draw(_offsets(delta))
    return gst, delta, earlier, later
