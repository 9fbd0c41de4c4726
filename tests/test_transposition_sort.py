"""The chamber walk against the code it replaced.

The reference below is the cone walk as it ran before each form kept one
walk: a separate open and closed walk, each returning (ConeResult,
moves, chamber), and the chamber frame built from the open walk's moves,
with the O(n^2) selection sort that the frame's transposition sort
replaced.  The sort emits a transposition E_p - E_q for each place that
does not already hold its sorted value.  Every verdict, witness, note,
move, chamber and frame must come out the same.  The Cremona pass, which
sorts the same way, is checked against its own reference loop in
test_reduction.py.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from latwist.cone import CONE_NO, CONE_YES, ConeResult, _walk
from latwist.lattice import RULED, FormClass, HomClass, LatticeModel, _gram_product, reflect
from latwist.reduction import _conjugate_to_k0, _k0_signs, _ruled_exceptional


def R(n):
    return LatticeModel.rational(n)


# -- the reference ------------------------------------------------------------------


def _ref_cone_decide(model, num, K, closed):
    """The open (closed=False) or closed cone walk, with its three-part
    return: (ConeResult, moves, chamber)."""
    K, signs = _k0_signs(model, K)
    moves = []
    if _gram_product(model, num, num) <= 0:
        return ConeResult(CONE_NO, None, "nonpositive square"), moves, None

    def violates(area):
        return area < 0 or (area == 0 and not closed)

    if model.kind == RULED:
        if model.n == 0 and (num[0] <= 0 or num[1] <= 0):
            return ConeResult(CONE_NO, None, "outside the forward cone"), moves, None
        for E in _ruled_exceptional(model):
            if violates(_gram_product(model, num, E.coeffs)):
                return ConeResult(CONE_NO, E, None), moves, None
        return ConeResult(CONE_YES, None, "positive square and exceptional areas only"), moves, None

    n = model.n
    a, b = num[0], [-s * c for s, c in zip(signs, num[1:])]
    if n < 2 and a <= 0:
        return ConeResult(CONE_NO, None, "outside the forward cone"), moves, None
    while True:
        order = sorted(range(n), key=b.__getitem__, reverse=True)
        if n and violates(b[order[-1]]):
            witness = model.E(order[-1] + 1)
            break
        top = sum(b[i] for i in order[:2])
        if violates(a - top):
            witness = model.unit(0) - model.E(order[0] + 1) - model.E(order[1] + 1)
            break
        if n < 3 or a >= top + b[order[2]]:
            return ConeResult(CONE_YES, None, None), moves, (a, b)
        triple = order[:3]
        d = a - sum(b[m] for m in triple)
        if not 0 < a + d < a:
            raise ArithmeticError("Cremona move failed to lower the positive H-area")
        a += d
        for m in triple:
            b[m] += d
        moves.append(triple)
    classes = model._classes
    for triple in reversed(moves):
        witness = reflect(classes[((0, 1),) + tuple((m + 1, -1) for m in sorted(triple))], witness)
    witness = _conjugate_to_k0(witness, signs)
    if not violates(_gram_product(model, num, witness.coeffs)):
        raise ArithmeticError("cone witness does not violate the cone conditions")
    return ConeResult(CONE_NO, witness, None), moves, None


def _selection_chamber_frame(model, num):
    """(frame, reached) under K_0, None when a rational form is outside
    the open cone: the chamber frame with its selection sort by min over
    (b_i, i)."""
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
        res, moves, chamber = _ref_cone_decide(model, num, model.k0_form(), closed=False)
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
    walk = _walk(model, num)
    want = _selection_chamber_frame(model, num)
    if want is None:
        assert not walk.open
        return
    (frame, reached), (want_frame, want_reached) = walk.frame, want
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


# -- the walk ------------------------------------------------------------------------


def _in_frame(res, signs):
    # a ConeResult with its witness moved by the sign change
    if res.witness is None:
        return res
    return res._replace(witness=_conjugate_to_k0(res.witness, signs))


@st.composite
def walk_cases(draw):
    """(model, num, K): rational n = 0..12 under K_0 or a K_delta variant,
    with tied areas, zero areas and a near a = b_1 + b_2 or
    a = b_1 + b_2 + b_3; ruled h = 1..3 under K_0."""
    if draw(st.booleans()):
        m, num = draw(tied_ruled_forms())
        return m, num, m.k0_form()
    m = R(draw(st.integers(0, 12)))
    values = draw(st.lists(st.integers(-3, 10), min_size=1, max_size=3)) + [0]
    b = draw(st.lists(st.sampled_from(values), min_size=m.n, max_size=m.n))
    top = sorted(b, reverse=True)
    a = sum(top[:draw(st.integers(2, 3))]) + draw(st.integers(-2, 3))
    signs = [1] * m.n
    if draw(st.booleans()):
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=m.n, max_size=m.n))
    K = FormClass(m, (-3,) + tuple(signs))
    return m, (a,) + tuple(-s * v for s, v in zip(signs, b)), K


@given(walk_cases())
# zero areas: at once, after moves (closed Yes further on), and at once
# with more moves to a closed No
@example((R(3), (2, -1, -1, 0), R(3).k0_form()))
@example((R(5), (10, -4, 4, 4, 4, -4), FormClass(R(5), (-3, 1, -1, -1, -1, 1))))
@example((R(6), (14, 0, 6, 6, -6, -6, -6), FormClass(R(6), (-3, -1, -1, -1, 1, 1, 1))))
@settings(max_examples=500, deadline=None)
def test_walk_matches_the_open_and_closed_reference_walks(case):
    m, num, K = case
    # the walk runs under K_0 on the form after the sign change, and each
    # witness is moved back to the frame of K, as in_cone does
    signs = _k0_signs(m, K)[1]
    k0_num = _conjugate_to_k0(HomClass(m, num), signs).coeffs
    walk = _walk(m, k0_num)
    opened, _, _ = _ref_cone_decide(m, num, K, closed=False)
    closed, moves, chamber = _ref_cone_decide(m, num, K, closed=True)
    # verdict, witness and note each
    assert [_in_frame(res, signs) for res in (walk.open, walk.closed)] == [opened, closed]
    if m.kind == RULED:
        assert_same_frame(m, num)
        return
    assert walk.moves == moves and walk.chamber == chamber
    if walk.open:
        assert_same_frame(m, k0_num)
    elif walk.closed:
        # a boundary form: the frame is the closed walk's, and it carries
        # the form to the chamber form with the b_i sorted
        frame, reached = walk.frame
        x = HomClass(m, k0_num)
        for f in frame:
            x = reflect(f, x)
        assert x.coeffs == reached == chamber[:1] + tuple(-v for v in sorted(chamber[1]))
    else:
        assert walk.frame is None
