"""The transposition sort of the chamber frame against the selection sort
it replaced.

The sort emits a transposition E_p - E_q for each place that does not
already hold its sorted value.  The reference below is the loop as it ran
with an O(n^2) selection sort; every frame and chamber must come out the
same.  The Cremona pass, which sorts the same way, is checked against its
own reference loop in test_reduction.py.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from latwist.cone import _chamber_frame, _cone_decide
from latwist.lattice import RULED, FormClass, LatticeModel


def R(n):
    return LatticeModel.rational(n)


# -- the reference ------------------------------------------------------------------


def _selection_chamber_frame(model, num):
    """_chamber_frame with its selection sort by min over (b_i, i)."""
    n, off = model.n, model.e_offset
    classes = model._classes
    if model.kind == RULED:
        t, f, b = num[0], num[1], [-c for c in num[off:]]
        frame = []
        while n >= 2:
            i, j = sorted(sorted(range(n), key=b.__getitem__, reverse=True)[:2])
            d = t - b[i] - b[j]
            if d >= 0:
                break
            f += d
            b[i] += d
            b[j] += d
            frame.append(classes[(1, 1), (i + off, -1), (j + off, -1)])
        head = (t, f)
    else:
        res, moves, chamber = _cone_decide(model, num, model.k0_form(), closed=False)
        if not res:
            return None
        frame = [classes[((0, 1),) + tuple((m + 1, -1) for m in sorted(t))] for t in moves]
        head, b = chamber[:1], chamber[1]
    keys = [(v, i) for i, v in enumerate(b)]
    for p in range(n):
        q = min(range(p, n), key=keys.__getitem__)
        if q != p:
            keys[p], keys[q] = keys[q], keys[p]
            frame.append(classes[(p + off, 1), (q + off, -1)])
    return frame, head + tuple(-v for v, _ in keys)


# -- the chamber frame ---------------------------------------------------------------


def assert_same_frame(model, num):
    got, want = _chamber_frame(model, num), _selection_chamber_frame(model, num)
    if want is None:
        assert got is None
        return
    (frame, reached), (want_frame, want_reached) = got, want
    assert [g.coeffs for g in frame] == [g.coeffs for g in want_frame]
    assert reached == want_reached


@st.composite
def tied_rational_forms(draw):
    m = R(draw(st.integers(0, 12)))
    values = draw(st.lists(st.integers(-4, 12), min_size=1, max_size=3))
    b = draw(st.lists(st.sampled_from(values), min_size=m.n, max_size=m.n))
    a = sum(sorted(b)[-3:]) + draw(st.integers(-3, 6))
    q = draw(st.integers(1, 12))
    return FormClass(m, [Fraction(a, q)] + [Fraction(-v, q) for v in b])


@given(tied_rational_forms())
@example(FormClass(R(6), (9, -1, -1, -1, -1, -1, -1)))
@settings(max_examples=300, deadline=None)
def test_rational_chamber_frame_matches_the_selection_sort(alpha):
    assert_same_frame(alpha.model, alpha.num)


@st.composite
def tied_ruled_forms(draw):
    m = LatticeModel.ruled(draw(st.integers(1, 3)), draw(st.integers(0, 9)))
    values = draw(st.lists(st.integers(-8, 12), min_size=1, max_size=4))
    b = draw(st.lists(st.sampled_from(values), min_size=m.n, max_size=m.n))
    return m, (draw(st.integers(-12, 20)), draw(st.integers(-12, 12))) + tuple(-v for v in b)


@given(tied_ruled_forms())
@settings(max_examples=300, deadline=None)
def test_ruled_chamber_frame_matches_the_selection_sort(case):
    assert_same_frame(*case)
