"""Host-speed calibration: fixed pure-Python lattice arithmetic as a yardstick.

On a shared host the speed of one process drifts by tens of percent over
seconds and by up to 2x over minutes, and the library slows down with it.
The benchmark therefore runs a fixed reference unit next to the timed
operations and reports every time as ``measured * REFERENCE_UNIT_S / unit``,
where ``unit`` is the reference unit's time at that moment: a time as it
would read on a host where one unit takes ``REFERENCE_UNIT_S``.  The unit
lives here, in ``ref``'s arithmetic, so no change to the library moves it;
a change to the library still moves every reported time in full.
"""

from __future__ import annotations

import random
from fractions import Fraction
from statistics import median
from time import perf_counter

import ref

# About the median time of one unit on a 2-CPU shared virtual machine
# (Linux, CPython 3.11.7), so reported times read close to wall time there.
REFERENCE_UNIT_S = 3.5e-4
REPEATS = 5  # units per sample; a sample is their median

_rng = random.Random("latwist-bench-calibration")
_WORD = tuple(_rng.choices(ref.rational_generators(8), k=3))
_FORM = tuple(Fraction(_rng.randint(1, 60), _rng.randint(1, 12)) for _ in range(9))
_CLASS = ref.unit(9, 1)  # an exceptional class, twisted up to a higher degree
for _g in _rng.choices(ref.rational_generators(8), k=40):
    _y = ref.twist(ref.RATIONAL, _g, _CLASS)
    if abs(_y[0]) > abs(_CLASS[0]):
        _CLASS = _y


def unit():
    """One reference unit: a word matrix, Fraction pairings and a reduction."""
    rows = ref.word_matrix(ref.RATIONAL, 9, _WORD)
    areas = [ref.dot(ref.RATIONAL, _FORM, row) for row in rows[:2]]
    return rows, areas, ref.reduce_rational(_CLASS), ref.format_class(ref.RATIONAL, _FORM)


def sample():
    """Seconds per reference unit now: the median of REPEATS units."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        unit()
        times.append(perf_counter() - start)
    return median(times)


def scale(before, after):
    """Factor that turns a time measured between two samples into reference time."""
    return REFERENCE_UNIT_S / ((before + after) / 2)
