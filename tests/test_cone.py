"""Exceptional enumeration, cone membership, Lagrangian criterion, inflation."""

import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latwist.classexpr import parse_class, parse_form
from latwist.cone import (
    CONE_NO,
    CONE_YES,
    enumerate_exceptional,
    in_cone,
    inflation_admissible,
    is_lagrangian_spherical,
)
from latwist.lattice import (
    FormClass,
    HomClass,
    LatticeModel,
    form_pairing,
    mat_vec,
    pairing,
    reflect,
    reflection_matrix,
)
from latwist.decompose import IsometryMatrix, decompose_K_alpha, decompose_ruled
from latwist import cone, reduction
from latwist.reduction import cremona_reduce, is_exceptional, is_K_null_spherical

DEL_PEZZO_COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}


def R(n):
    return LatticeModel.rational(n)


def test_enumerate_small_examples():
    m1 = R(1)
    s = enumerate_exceptional(m1)
    assert s.complete and s.classes == (m1.E(1),)
    m3 = R(3)
    s3 = enumerate_exceptional(m3)
    assert len(s3) == 6
    expected = {m3.E(1), m3.E(2), m3.E(3)}
    for i in range(1, 4):
        for j in range(i + 1, 4):
            expected.add(parse_class("H", m3) - m3.E(i) - m3.E(j))
    assert set(s3.classes) == expected


def test_enumerate_counts():
    for n, count in DEL_PEZZO_COUNTS.items():
        s = enumerate_exceptional(R(n))
        assert s.complete
        assert len(s) == count


def test_enumerate_members_pass_is_exceptional():
    m = R(6)
    k0 = m.k0_form()
    for xi in enumerate_exceptional(m):
        assert pairing(xi, xi) == -1
        assert form_pairing(k0, xi) == -1
        assert is_exceptional(xi, k0)


def test_enumerate_ruled_closed_form():
    m = LatticeModel.ruled(1, 2)
    s = enumerate_exceptional(m)
    assert s.complete
    F = m.unit(1)
    assert set(s.classes) == {m.E(1), m.E(2), F - m.E(1), F - m.E(2)}
    with pytest.raises(ValueError, match="conjugate to K_0"):
        enumerate_exceptional(m, FormClass(m, (-2, 0, -1, 1)))


def test_enumerate_k_delta_flips_signs():
    m = R(2)
    k_delta = FormClass(m, (-3, -1, 1))
    s = enumerate_exceptional(m, k_delta)
    assert set(s.classes) == {
        -m.E(1),
        m.E(2),
        parse_class("H+E1-E2", m),
    }
    for xi in s:
        assert is_exceptional(xi, k_delta)


def test_enumerate_large_n_needs_bound():
    m = R(9)
    with pytest.raises(ValueError, match="degree_bound"):
        enumerate_exceptional(m)
    s = enumerate_exceptional(m, degree_bound=1)
    assert not s.complete and s.degree_bound == 1
    # a=0 gives the nine E_i, a=1 the C(9,2) classes H-Ei-Ej
    assert len(s) == 9 + 36


def test_enumerate_caps_every_rational_n_and_refuses_a_ruled_cap():
    # a degree bound at n <= 8 caps the listing too, which is then not
    # complete; 2H - E1 - ... - E5 is the one class of rational(5) past 1
    m = R(5)
    full = enumerate_exceptional(m)
    assert full.complete and full.degree_bound is None and len(full) == 16
    capped = enumerate_exceptional(m, degree_bound=1)
    assert not capped.complete and capped.degree_bound == 1
    assert set(full) - set(capped) == {parse_class("2H-E1-E2-E3-E4-E5", m)}
    # a cap past the orbit lists every class and still says it was capped
    assert enumerate_exceptional(m, degree_bound=9).classes == full.classes
    for n in range(0, 9):
        for bound in (1, 2, 3):
            s = enumerate_exceptional(R(n), degree_bound=bound)
            assert s.classes == tuple(x for x in enumerate_exceptional(R(n)) if x.coeffs[0] <= bound)
    with pytest.raises(ValueError, match="rational models only"):
        enumerate_exceptional(LatticeModel.ruled(1, 2), degree_bound=1)


@pytest.mark.parametrize("bound", [2.5, True, "2", 2.0])
def test_enumerate_refuses_a_degree_bound_that_is_not_an_int(bound):
    # 2.5 and True listed classes and came back as the set's bound; "2"
    # failed inside the walk.  A ruled model refuses the type first
    for model in (R(3), R(10), LatticeModel.ruled(1, 2)):
        with pytest.raises(TypeError, match="degree_bound must be an integer"):
            enumerate_exceptional(model, degree_bound=bound)
    assert enumerate_exceptional(R(3), degree_bound=2).degree_bound == 2


def test_enumerate_n10_lists_only_exceptional_classes():
    m = R(10)
    k0 = m.k0_form()
    s = enumerate_exceptional(m, degree_bound=3)
    # K_0 has square -1 and K-pairing -1 at n=10 but is not exceptional
    pd_k0 = HomClass(m, (-3,) + (1,) * 10)
    assert pairing(pd_k0, pd_k0) == -1 and form_pairing(k0, pd_k0) == -1
    assert pd_k0 not in s
    assert not s.complete and s.degree_bound == 3
    # the listing reduces no class, so its classes keep no normal form
    assert not any(vars(xi).keys() - {"model", "coeffs"} for xi in s)
    assert all(is_exceptional(xi, k0) for xi in s)
    # the 1158 numerical solutions with |a| <= 3 include 11 that are not
    # exceptional: K_0 and the ten classes 3H + E_i - sum_{j != i} E_j
    assert len(s) == 1147


def test_enumerate_n10_degree_3_within_budget():
    # the upward walk from E_10 reaches each sorted form once and expands
    # it into its orderings; no class is reduced or tested
    m = R(10)
    start = time.monotonic()
    s = enumerate_exceptional(m, degree_bound=3)
    assert time.monotonic() - start < 2
    assert len(s) == 1147


def test_enumeration_reduces_no_class(monkeypatch):
    # the walk climbs from E_n and never runs a Cremona reduction, at
    # n <= 8 and past the del Pezzo range alike
    def refuse(xi):
        raise AssertionError(f"the listing reduced {xi.coeffs}")

    monkeypatch.setattr(reduction, "_cremona_reduce", refuse)
    assert len(enumerate_exceptional(R(8))) == 240
    assert len(enumerate_exceptional(R(10), degree_bound=3)) == 1147


def test_listing_limit_counts_the_classes_before_building_them(monkeypatch):
    # 5,163,654 classes at n = 12, degree 8: refused from the sorted forms
    # alone, before any class is built
    built = []
    monkeypatch.setattr(cone, "_orderings", lambda values: built.append(values) or [])
    with pytest.raises(ValueError, match="^bound exceeds safety limit$"):
        enumerate_exceptional(R(12), degree_bound=8)
    assert built == []
    monkeypatch.undo()
    # the limit is the exact count: 3024 classes at n = 9, degree 6
    m = R(9)
    size = len(enumerate_exceptional(m, degree_bound=6))
    assert size == 3024
    monkeypatch.setattr(cone, "_LISTING_LIMIT", size)
    assert len(enumerate_exceptional(m, degree_bound=6)) == size
    monkeypatch.setattr(cone, "_LISTING_LIMIT", size - 1)
    with pytest.raises(ValueError, match="^bound exceeds safety limit$"):
        enumerate_exceptional(m, degree_bound=6)
    assert len(enumerate_exceptional(m, degree_bound=6, allow_large=True)) == size
    # every complete listing stays under the limit
    assert len(enumerate_exceptional(R(8))) == 240


def test_in_cone_examples():
    m6 = R(6)
    res = in_cone(parse_form("3H-E1-E2-E3-E4-E5-E6", m6))
    assert res.verdict == CONE_YES and bool(res)
    m1 = R(1)
    res = in_cone(parse_form("H", m1))
    assert res.verdict == CONE_NO
    assert res.witness == m1.E(1)
    assert not bool(res)
    m0 = R(0)
    assert in_cone(parse_form("H", m0)).verdict == CONE_YES
    # boundary forms answer no: the cone is open
    m3 = R(3)
    res = in_cone(parse_form("3H-E1-E2-2E3", m3))
    assert res.verdict == CONE_NO
    assert form_pairing(parse_form("3H-E1-E2-2E3", m3), res.witness) == 0


def test_in_cone_monotone_form_has_area_one():
    for n in range(1, 9):
        m = R(n)
        tau = -m.k0_form()
        assert in_cone(tau).verdict == CONE_YES
        for E in enumerate_exceptional(m):
            assert form_pairing(tau, E) == 1


def test_in_cone_n9_reduced_form_is_exact():
    m = R(9)
    # reduced (4 >= 1+1+1) with square 16 - 9 > 0: an exact yes
    tau = parse_form("4H-E1-E2-E3-E4-E5-E6-E7-E8-E9", m)
    res = in_cone(tau)
    assert res.verdict == CONE_YES and res.witness is None
    # the verdict does not depend on how tau is scaled
    assert in_cone(FormClass(m, tuple(Fraction(7, 3) * c for c in tau.coeffs))).verdict == CONE_YES
    # 3H - sum E_i has square zero
    assert in_cone(parse_form("3H-E1-E2-E3-E4-E5-E6-E7-E8-E9", m)).note == "nonpositive square"


def test_in_cone_forward_cone_edge():
    # positive square, no exceptional class of nonpositive area, but
    # K_0.tau > 0: outside the forward cone
    m0 = R(0)
    tau = parse_form("-H", m0)
    assert form_pairing(m0.k0_form(), tau) > 0
    res = in_cone(tau)
    assert res.verdict == CONE_NO and res.witness is None
    m1 = R(1)
    tau = parse_form("-2H-E1", m1)
    assert form_pairing(m1.k0_form(), tau) > 0 and form_pairing(tau, m1.E(1)) > 0
    res = in_cone(tau)
    assert res.verdict == CONE_NO and res.witness is None
    assert res.note == "outside the forward cone"
    assert in_cone(parse_form("2H-E1", m1)).verdict == CONE_YES
    with pytest.raises(ValueError, match="cone"):
        is_lagrangian_spherical(m1.E(1), tau)


def test_in_cone_biran_form_n10():
    # ten equal balls of capacity 3/10 < 1/sqrt(10) embed (Biran), so
    # 10H - 3 sum E_i is in the cone; a scan of the exceptional set
    # cannot decide this, the reduction answers at once
    m = R(10)
    tau = parse_form("10H-" + "-".join(f"3E{i}" for i in range(1, 11)), m)
    start = time.monotonic()
    res = in_cone(tau)
    assert time.monotonic() - start < 1
    assert res.verdict == CONE_YES


def test_in_cone_ruled_note():
    m = LatticeModel.ruled(1, 2)
    tau = parse_form("2T+3F-E1-E2", m)
    res = in_cone(tau)
    assert res.verdict == CONE_YES
    assert res.note == "positive square and exceptional areas only"
    # tau(F - E1) = 0 here, a boundary form
    assert in_cone(parse_form("T+3F-E1-E2", m)).verdict == CONE_NO


@pytest.mark.parametrize("h", [1, 2])
@pytest.mark.parametrize("text, yes", [("-T-F", False), ("-2T-3F", False), ("T+F", True)])
def test_ruled_n0_cone_is_the_forward_cone(h, text, yes):
    # with no exceptional class a positive square alone admits backward forms
    m = LatticeModel.ruled(h, 0)
    res = in_cone(parse_form(text, m))
    assert bool(res) == yes
    if not yes:
        assert res.witness is None and res.note == "outside the forward cone"


def test_lagrangian_spherical_examples():
    m3 = R(3)
    res = is_lagrangian_spherical(
        parse_class("E1-E2", m3), parse_form("3H-E1-E2-2E3", m3)
    )
    assert res.yes and res.kind == "Binary"
    m2 = R(2)
    res = is_lagrangian_spherical(
        parse_class("E1-E2", m2), parse_form("3H-E1-3/2*E2", m2)
    )
    assert not res.yes
    assert res.reason == "nonzero area"
    assert res.area == Fraction(-1, 2)
    m4 = R(4)
    res = is_lagrangian_spherical(
        parse_class("H-E1-E2-E3", m4), parse_form("3H-E1-E2-E3-1/2*E4", m4)
    )
    assert res.yes and res.kind == "Ternary"
    assert not res.characteristic


def test_lagrangian_spherical_sign_symmetry():
    m = R(4)
    tau = parse_form("3H-E1-E2-E3-1/2*E4", m)
    for text in ("E1-E2", "H-E1-E2-E3", "2H-2E1-E2-E3"):
        xi = parse_class(text, m)
        assert is_lagrangian_spherical(xi, tau).yes == is_lagrangian_spherical(-xi, tau).yes


def test_lagrangian_spherical_characteristic_flag():
    m = R(3)
    tau = -m.k0_form()
    res = is_lagrangian_spherical(parse_class("H-E1-E2-E3", m), tau)
    assert res.yes and res.characteristic


def test_lagrangian_rejects_bad_form():
    m = R(1)
    with pytest.raises(ValueError, match="cone"):
        is_lagrangian_spherical(m.E(1), parse_form("H-2E1", m))
    with pytest.raises(ValueError, match="cone"):
        is_lagrangian_spherical(m.E(1), parse_form("3H+E1", m))
    m9 = R(9)
    tau = parse_form("4H-E1-E2-E3-E4-E5-E6-E7-E8-E9", m9)
    xi = m9.E(1) - m9.E(2)
    res = is_lagrangian_spherical(xi, tau)
    assert res.yes and res.kind == "Binary"
    # a form of positive square with a negative exceptional area at n=9
    with pytest.raises(ValueError, match="cone"):
        is_lagrangian_spherical(xi, parse_form("4H+E1-E2-E3-E4-E5-E6-E7-E8-E9", m9))


def test_lagrangian_spherical_ruled():
    m = LatticeModel.ruled(1, 2)
    tau = parse_form("2T+3F-E1-E2", m)
    res = is_lagrangian_spherical(parse_class("E1-E2", m), tau)
    assert res.yes
    # equal E-areas make the fiber-binary class Lagrangian too
    assert is_lagrangian_spherical(parse_class("F-E1-E2", m), tau).yes
    uneven = parse_form("2T+3F-E1-1/2*E2", m)
    res = is_lagrangian_spherical(parse_class("F-E1-E2", m), uneven)
    assert not res.yes and res.reason == "nonzero area"
    res = is_lagrangian_spherical(parse_class("F-E1", m), tau)
    assert not res.yes and res.reason.startswith("not K-null spherical")



def test_ruled_lagrangian_checks_k_once(monkeypatch):
    # the spherical clause and the kept walk reuse the K checked at entry
    from latwist import cone, reduction

    m = LatticeModel.ruled(1, 3)
    tau = parse_form("2T+3F-E1-E2-E3", m)
    signs = reduction._k0_signs
    calls = []
    for module in (cone, reduction):
        def counting(model, K, name=module.__name__):
            calls.append(name)
            return signs(model, K)

        monkeypatch.setattr(module, "_k0_signs", counting)
    assert is_lagrangian_spherical(parse_class("E1-E2", m), tau).yes
    assert calls == ["latwist.cone"]
    calls.clear()
    res = is_lagrangian_spherical(parse_class("F-E1", m), tau)
    assert not res.yes and res.reason.startswith("not K-null spherical")
    assert calls == ["latwist.cone"]

def _unsupported_canonical_classes():
    """(model, K, message) for every kind of K no routine accepts."""
    m3, mr = R(3), LatticeModel.ruled(1, 2)
    not_k_delta = "K must be K_0 or a K_delta variant; conjugate to K_0 first"
    yield m3, FormClass(m3, (-3, 1, 1, 2)), not_k_delta
    yield m3, FormClass(m3, (3, -1, -1, -1)), not_k_delta
    yield m3, FormClass(m3, (-3, 1, 1, Fraction(1, 2))), not_k_delta
    yield mr, FormClass(mr, (-2, 0, 1, -1)), "conjugate to K_0 first"
    yield mr, -mr.k0_form(), "conjugate to K_0 first"
    # same rank, other model
    yield m3, LatticeModel.ruled(1, 2).k0_form(), "incompatible lattice models"
    yield mr, LatticeModel.ruled(2, 2).k0_form(), "incompatible lattice models"
    yield mr, R(3).k0_form(), "incompatible lattice models"


def test_every_routine_rejects_an_unsupported_k():
    # K is checked once, at entry, so the verdict never depends on the
    # other argument: no "nonpositive square" No for a K that the
    # positive-square path would refuse
    forms = {
        "rational": ["3H-E1-E2-E3", "E1", "0", "2H+E1", "H-E1-E2-E3"],
        "ruled": ["2T+3F-E1-E2", "T", "0", "T+F+E1", "F-E1"],
    }
    classes = {
        "rational": ["E1", "E1-E2", "H-E1-E2-E3", "0", "2H"],
        "ruled": ["E1", "E1-E2", "F-E1-E2", "0", "T"],
    }
    for m, K, message in _unsupported_canonical_classes():
        xs = [parse_class(t, m) for t in classes[m.kind]]
        taus = [parse_form(t, m) for t in forms[m.kind]]
        assert any(form_pairing(t, t) <= 0 for t in taus)
        assert any(form_pairing(t, t) > 0 and not in_cone(t) for t in taus)
        calls = [lambda: enumerate_exceptional(m, K)]
        for x in xs:
            calls += [lambda x=x: is_exceptional(x, K), lambda x=x: is_K_null_spherical(x, K)]
        for tau in taus:
            calls.append(lambda tau=tau: in_cone(tau, K))
            for x in xs:
                calls += [
                    lambda x=x, tau=tau: is_lagrangian_spherical(x, tau, K),
                    lambda x=x, tau=tau: inflation_admissible(x, tau, K),
                ]
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message, (m, K)


def test_inflation_examples():
    m1 = R(1)
    tau = parse_form("3H-E1", m1)
    H = m1.unit(0)
    assert inflation_admissible(H, tau)
    assert not inflation_admissible(m1.E(1), tau)
    assert not inflation_admissible(parse_class("H-E1", m1), tau)


def test_class_table_holds_each_class_under_one_key():
    # a cone walk lists each move's triple by b-order, and the ruled
    # factorization takes E_3 before E_1 here; the table they share with
    # the Cremona loop keys each class by its nonzero terms in index order
    m = R(5)
    assert not in_cone(parse_form("8H-3E1-4E2-3E3-3E4-3E5", m))
    cremona_reduce(parse_class("2H-E1-E2-E3-E4-E5", m))
    mr = LatticeModel.ruled(1, 3)
    M = IsometryMatrix(mr, reflection_matrix(parse_class("E1-E3", mr)))
    assert decompose_ruled(M, FormClass(mr, (2, 5, -1, -1, -1))).matrix == M.entries
    for model in (m, mr):
        table = model._classes
        for key, x in table.items():
            assert key == tuple((i, c) for i, c in enumerate(x.coeffs) if c)
        assert len(set(table.values())) == len(table)


def test_inflation_needs_a_nonnegative_square_of_a_minus_k():
    # at n = 17, A = H has A^2 > 0 and tau(A) > 0, but A - K = 4H - E1 - ... - E17
    # has square 16 - 17 < 0
    m = R(17)
    tau = parse_form("5H" + "".join(f"-E{i}" for i in range(1, 18)), m)
    H = m.unit(0)
    B = H - m.k0()
    assert pairing(H, H) > 0 and form_pairing(tau, H) > 0
    assert pairing(B, B) == -1 and form_pairing(tau, B) > 0
    assert not inflation_admissible(H, tau)


def test_inflation_negative_e_pairing():
    m2 = R(2)
    tau = parse_form("3H-E1-E2", m2)
    # 2H-E1 meets every exceptional class nonnegatively; 2H-3E1 does not
    assert inflation_admissible(parse_class("2H-E1", m2), tau)
    assert not inflation_admissible(parse_class("2H-3E1", m2), tau)


@given(st.integers(1, 8))
@settings(max_examples=8, deadline=None)
def test_enumeration_is_reflection_closed(n):
    # the exceptional set is a single reflection-group orbit, so any
    # admissible reflection permutes it
    m = R(n)
    s = set(enumerate_exceptional(m).classes)
    gens = []
    if n >= 2:
        gens.append(m.E(1) - m.E(2))
        gens.append(m.E(n - 1) - m.E(n))
    if n >= 3:
        gens.append(parse_class("H-E1-E2-E3", m))
    from latwist.lattice import reflect

    for g in gens:
        assert {reflect(g, xi) for xi in s} == s


def _scan(tau, K, closed):
    """Reference cone test: scan the complete exceptional set.

    Valid for rational n <= 8 and for ruled models.  Rational forms with
    n <= 1 must also lie in the forward cone a > 0, and ruled forms with
    n = 0 in the forward cone t > 0, f > 0.
    """
    m = tau.model
    if form_pairing(tau, tau) <= 0:
        return False
    if m.kind == "rational" and m.n <= 1 and tau.coeffs[0] <= 0:
        return False
    if m.kind == "ruled" and m.n == 0 and min(tau.coeffs) <= 0:
        return False
    for E in enumerate_exceptional(m, K):
        area = form_pairing(tau, E)
        if area < 0 or (area == 0 and not closed):
            return False
    return True


def _assert_witness(res, tau, K, closed):
    w = res.witness
    assert pairing(w, w) == -1 and form_pairing(K, w) == -1
    assert is_exceptional(w, K)
    area = form_pairing(tau, w)
    assert area < 0 or (area == 0 and not closed)


@st.composite
def _rational_forms(draw):
    """Forms at n=2..8 over denominators up to 12, with tied areas, areas
    on the boundary a = b1+b2 or a = b1+b2+b3, and K_delta variants."""
    n = draw(st.integers(2, 8))
    m = R(n)
    q = draw(st.integers(1, 12))
    b = draw(st.lists(st.integers(-q, 4 * q), min_size=n, max_size=n))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        b[j] = b[i]
    top = sorted(b, reverse=True) + [0]
    shape = draw(st.sampled_from(("free", "two", "three")))
    if shape == "free":
        a = draw(st.integers(-q, 6 * q))
    elif shape == "two":
        a = top[0] + top[1] + draw(st.integers(-1, 1))
    else:
        a = top[0] + top[1] + top[2] + draw(st.integers(-1, 1))
    # a few sign patterns per n keep the enumeration cache small
    pattern = draw(st.sampled_from(("K0", "first", "alternating")))
    signs = [1] * n
    if pattern == "first":
        signs[0] = -1
    elif pattern == "alternating":
        signs = [(-1) ** i for i in range(n)]
    K = FormClass(m, (-3,) + tuple(signs))
    tau = FormClass(m, (Fraction(a, q),) + tuple(Fraction(-s * v, q) for s, v in zip(signs, b)))
    return tau, K


@st.composite
def _ruled_forms(draw):
    m = LatticeModel.ruled(draw(st.integers(1, 3)), draw(st.integers(0, 5)))
    q = draw(st.integers(1, 12))
    t = draw(st.integers(-q, 4 * q))
    f = draw(st.integers(-q, 4 * q))
    b = draw(st.lists(st.integers(-q, 3 * q), min_size=m.n, max_size=m.n))
    if m.n and draw(st.booleans()):
        b[-1] = t  # F - E_n on the boundary
    tau = FormClass(m, (Fraction(t, q), Fraction(f, q)) + tuple(Fraction(-v, q) for v in b))
    return tau, m.k0_form()


def _ruled_case(h, t, f, b, q=1):
    """The ruled form (t, f; b) / q under K_0, the b_i being the E-areas."""
    m = LatticeModel.ruled(h, len(b))
    return FormClass(m, (Fraction(t, q), Fraction(f, q)) + tuple(Fraction(-v, q) for v in b)), m.k0_form()


# ruled forms of positive square on the boundary (an area 0) and outside
# (an area < 0), at E_i and at F - E_i; the last two fail the open and the
# closed cone at different classes
_RULED_EDGES = [
    _ruled_case(1, 1, 1, ()),
    _ruled_case(1, 2, 5, (1, 1, 1)),
    _ruled_case(1, 2, 5, (0, 1, 1)),
    _ruled_case(1, 2, 5, (1, 2, 1)),
    _ruled_case(2, 2, 5, (-1, 1)),
    _ruled_case(1, 2, 5, (3, 1)),
    _ruled_case(1, 2, 5, (1, 0, 3, -1)),
    _ruled_case(3, 6, 9, (2, 6, 7, 3, 0), q=3),
]


def _edge_id(case):
    tau = case[0]
    return f"{tau.model.genus}:{tau.num}/{tau.den}"


@given(st.one_of(_rational_forms(), _ruled_forms()), st.booleans())
@settings(max_examples=600, deadline=None)
def test_cone_reduction_matches_exceptional_scan(case, closed):
    _check_walk_against_scan(case, closed)


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
@pytest.mark.parametrize("case", _RULED_EDGES, ids=_edge_id)
def test_ruled_cone_edges_match_exceptional_scan(case, closed):
    # the verdicts read the extreme b_i; a No names the first class of
    # area <= 0 (open) or < 0 (closed) in the listing order
    res = _check_walk_against_scan(case, closed)
    tau = case[0]
    most = -1 if closed else 0
    failing = [E for E in reduction._ruled_exceptional(tau.model) if form_pairing(tau, E) * tau.den <= most]
    assert res.witness == (failing[0] if failing else None)


def _check_walk_against_scan(case, closed):
    tau, K = case
    # the walk under K_0 of tau moved there, its witness moved back
    signs = reduction._k0_signs(tau.model, K)[1]
    walk = cone._walk(tau.model, reduction._conjugate_to_k0(tau, signs).num)
    res = walk.closed if closed else walk.open
    if res.witness is not None:
        res = res._replace(witness=reduction._conjugate_to_k0(res.witness, signs))
    assert bool(res) == _scan(tau, K, closed)
    if not closed:
        assert in_cone(tau, K) == res
    if not res and res.witness is not None:
        _assert_witness(res, tau, K, closed)
    if not res and form_pairing(tau, tau) > 0 and tau.model.n >= 2:
        assert res.witness is not None
    return res


@given(_rational_forms())
@settings(max_examples=300, deadline=None)
def test_cone_walk_hands_back_the_form_its_moves_reach(case):
    # on a closed Yes the chamber form is the form, moved to the K_0 frame
    # and reflected along each move's core in order
    tau, K = case
    m = tau.model
    x = reduction._conjugate_to_k0(HomClass(m, tau.num), K.num[1:])
    walk = cone._walk(m, x.coeffs)
    if not walk.closed:
        assert walk.chamber is None
        return
    for triple in walk.moves:
        x = reflect(m.unit(0) - sum((m.E(i + 1) for i in triple), m.zero()), x)
    a, b = walk.chamber
    assert x.coeffs == (a,) + tuple(-v for v in b)


def _gamma(m, rng):
    i, j, k = rng.sample(range(1, m.n + 1), 3)
    return m.unit(0) - m.E(i) - m.E(j) - m.E(k)


def test_cone_witnesses_sound_n9_to_12():
    # reduced forms (inside) and forms with a <= b1+b2 (outside), moved by
    # random Cremona words so that the verdict needs the reduction
    rng = random.Random(2010)
    k0s = {n: R(n).k0_form() for n in range(9, 13)}
    nos = 0
    for case in range(1000):
        n = rng.randint(9, 12)
        m = R(n)
        q = rng.randint(1, 6)
        inside = case % 2 == 0
        if inside:
            b = sorted((rng.randint(1, 4 * q) for _ in range(n)), reverse=True)
            a = sum(b[:3]) + rng.randint(0, 2 * q)
        else:
            # two large areas and small ones keep the square positive
            b = sorted([rng.randint(2 * q, 4 * q) for _ in range(2)], reverse=True)
            b += sorted((rng.randint(1, q) for _ in range(n - 2)), reverse=True)
            a = b[0] + b[1] - rng.randint(0, q)
        v = HomClass(m, (a,) + tuple(-x for x in b))
        for _ in range(rng.randint(0, 10)):
            g = _gamma(m, rng) if rng.random() < 0.6 else m.E(rng.randint(1, n)) - m.E(1)
            if g != m.zero():
                v = reflect(g, v)
        tau = FormClass(m, tuple(Fraction(c, q) for c in v.coeffs))
        res = in_cone(tau)
        if form_pairing(tau, tau) <= 0:
            assert res.verdict == CONE_NO and res.note == "nonpositive square"
            continue
        assert bool(res) == inside
        if not res:
            nos += 1
            _assert_witness(res, tau, k0s[n], closed=False)
    assert nos >= 400


@st.composite
def _inflation_cases(draw):
    n = draw(st.integers(1, 8))
    m = R(n)
    pattern = draw(st.sampled_from(("K0", "first")))
    signs = [1] * n
    if pattern == "first":
        signs[0] = -1
    K = FormClass(m, (-3,) + tuple(signs))
    # a reduced form with positive areas, moved into the K frame
    b = sorted(draw(st.lists(st.integers(1, 6), min_size=n, max_size=n)), reverse=True)
    a = sum(b[:3]) + draw(st.integers(1, 4))
    tau = FormClass(m, (a,) + tuple(-s * v for s, v in zip(signs, b)))
    A = HomClass(
        m,
        (draw(st.integers(0, 6)),) + tuple(draw(st.integers(-2, 3)) for _ in range(n)),
    )
    return A, tau, K


@given(_inflation_cases())
@settings(max_examples=300, deadline=None)
def test_inflation_matches_exceptional_scan(case):
    A, tau, K = case
    B = A - HomClass(A.model, tuple(int(c) for c in K.coeffs))
    expected = (
        pairing(A, A) > 0
        and form_pairing(tau, A) > 0
        and pairing(B, B) >= 0
        and form_pairing(tau, B) > 0
        and all(pairing(A, E) >= 0 for E in enumerate_exceptional(A.model, K))
    )
    assert inflation_admissible(A, tau, K) == expected


# -- a K_delta answer is the K_0 answer carried by the sign isometry -------------


def _sigma(x, signs):
    # the sign isometry E_i -> s_i E_i, written out from the coefficients
    moved = x.coeffs[:1] + tuple(s * c for s, c in zip(signs, x.coeffs[1:]))
    return FormClass(x.model, moved) if isinstance(x, FormClass) else HomClass(x.model, moved)


def _k0_roots(m):
    # E_i - E_j and H - E_i - E_j - E_k
    e = [m.E(i) for i in range(1, m.n + 1)]
    return [e[i] - e[j] for i in range(m.n) for j in range(m.n) if i != j] + [
        m.unit(0) - e[i] - e[j] - e[k]
        for i in range(m.n) for j in range(i + 1, m.n) for k in range(j + 1, m.n)
    ]


@st.composite
def _sign_cases(draw):
    """(x, tau, K): K a K_delta variant at n = 2..9, and x, tau the
    images under its sign isometry of a class and a K_0 form.  The form
    is a chamber form a >= b_1 + b_2 + b_3 (or a little below) with tied
    b_i, at times one zero or negative, scrambled by K_0 twists, so it
    lies inside, on the boundary of or outside the cone; the class is
    random, exceptional, or a root of zero area before the same twists."""
    n = draw(st.integers(2, 9))
    m = R(n)
    signs = tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)))
    values = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)) + draw(st.sampled_from(([], [0], [-1])))
    b = sorted(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)), reverse=True)
    rho = HomClass(m, (sum(b[:3]) + draw(st.integers(-2, 4)),) + tuple(-v for v in b))
    roots = _k0_roots(m)
    flat = [r for r in roots if pairing(r, rho) == 0]
    kind = draw(st.sampled_from(("random", "exceptional", "flat root")))
    if kind == "flat root" and flat:
        x = draw(st.sampled_from(flat))
    elif kind == "exceptional":
        x = draw(st.sampled_from([m.E(i) for i in range(1, n + 1)] + [m.unit(0) - m.E(1) - m.E(2)]))
    else:
        x = HomClass(m, (draw(st.integers(-3, 6)),) + tuple(draw(st.integers(-3, 3)) for _ in range(n)))
    for g in draw(st.lists(st.sampled_from(roots), max_size=6)):
        rho, x = reflect(g, rho), reflect(g, x)
    tau = FormClass(m, rho.coeffs) * Fraction(1, draw(st.integers(1, 4)))
    return _sigma(x, signs), _sigma(tau, signs), FormClass(m, (-3,) + signs)


def _answers(x, tau, K):
    """Every answer of the routines that take a K, an exception as its
    type and message."""

    def answer(call, *args):
        try:
            return call(*args, K)
        except ValueError as exc:
            return "ValueError", str(exc)

    return {
        "in_cone": in_cone(tau, K),
        "lagrangian": answer(is_lagrangian_spherical, x, tau),
        "exceptional": is_exceptional(x, K),
        "knull": is_K_null_spherical(x, K),
        "inflation": answer(inflation_admissible, x, tau),
    }


@given(_sign_cases())
@settings(max_examples=400, deadline=None)
def test_the_sign_isometry_carries_every_answer(case):
    # under K_delta every answer is the K_0 answer about (sigma x,
    # sigma tau); in_cone's witness comes back through sigma
    x, tau, K = case
    signs = K.num[1:]
    got = _answers(x, tau, K)
    want = _answers(_sigma(x, signs), _sigma(tau, signs), None)
    res = want["in_cone"]
    if res.witness is not None:
        want["in_cone"] = res._replace(witness=_sigma(res.witness, signs))
    assert got == want


# -- each decision runs once per query -----------------------------------------

def _count_walks(monkeypatch):
    # the numerators of each walk, from every module that holds it
    from latwist import decompose

    calls = []
    walk = cone._walk

    def counting(model, num):
        calls.append(num)
        return walk(model, num)

    for module in (cone, decompose):
        monkeypatch.setattr(module, "_walk", counting)
    return calls


def test_cone_conditions_decided_once_per_form(monkeypatch):
    m = R(4)
    tau = parse_form("3H-E1-E2-E3-1/2*E4", m)
    calls = _count_walks(monkeypatch)
    assert in_cone(tau).verdict == CONE_YES
    texts = ("E1-E2", "H-E1-E2-E3", "E3-E4", "2H-2E1-E2-E3", "E1")
    results = [is_lagrangian_spherical(parse_class(t, m), tau) for t in texts]
    assert calls == [tau.num]
    assert [r.yes for r in results] == [True, True, False, False, False]
    # an equal form built separately keeps its own verdicts
    assert is_lagrangian_spherical(m.E(1) - m.E(2), parse_form("3H-E1-E2-E3-1/2*E4", m)).yes
    assert len(calls) == 2
    # a K_delta variant is the K_0 question about the form moved by the
    # sign change: on E4 the area becomes -1/2, and the witness E4 of the
    # moved form comes back as -E4.  The moved form is a new object per
    # question, so each one walks it again
    k_delta = FormClass(m, (-3, 1, 1, 1, -1))
    res = in_cone(tau, k_delta)
    assert res.verdict == CONE_NO and res.witness == -m.E(4)
    assert in_cone(tau, k_delta) == res and in_cone(tau) == (CONE_YES, None, None)
    moved = tau.num[:4] + (-tau.num[4],)
    assert calls[2:] == [moved, moved]
    with pytest.raises(ValueError, match="cone"):
        is_lagrangian_spherical(m.E(1) - m.E(2), tau, k_delta)
    assert calls[2:] == [moved] * 3


def test_boundary_form_still_admitted_after_open_no(monkeypatch):
    m = R(3)
    # H - E1 - E2 has area zero: closed Yes, open No
    tau = parse_form("2H-E1-E2-1/2*E3", m)
    calls = _count_walks(monkeypatch)
    res = in_cone(tau)
    assert res.verdict == CONE_NO and res.witness == parse_class("H-E1-E2", m)
    for _ in range(3):
        lag = is_lagrangian_spherical(parse_class("E1-E2", m), tau)
        assert lag.yes and lag.kind == "Binary"
    # one walk answers both questions: it notes the open No and walks on
    assert calls == [tau.num]


def test_alpha_walked_once_across_cone_and_decompose(monkeypatch):
    # decompose_K_alpha reads alpha's kept walk and walks only the point
    # it carries home
    m = R(4)
    alpha = parse_form("3H-E1-E2-E3-1/2*E4", m)
    M = IsometryMatrix(m, reflection_matrix(m.E(1) - m.E(2)))
    calls = _count_walks(monkeypatch)
    assert in_cone(alpha)
    words = [decompose_K_alpha(M, alpha) for _ in range(2)]
    assert words[0] == words[1] and words[0].matrix == M.entries
    assert calls.count(alpha.num) == 1
    assert len(calls) == 3


def test_a_form_keeps_one_walk():
    # a further instance-dict entry on a form would unshare CPython's key
    # table for every form; the one K_0 walk sits in one entry, and a
    # K_delta question keeps nothing on the caller's form
    m = R(4)
    tau = parse_form("3H-E1-E2-E3-1/2*E4", m)
    assert in_cone(tau)
    assert is_lagrangian_spherical(m.E(1) - m.E(2), tau).yes
    decompose_K_alpha(IsometryMatrix(m, reflection_matrix(m.E(1) - m.E(2))), tau)
    assert in_cone(tau, FormClass(m, (-3, 1, 1, 1, -1))).verdict == CONE_NO
    assert set(vars(tau)) <= {"model", "num", "den", "coeffs", "_cone_walk"}
    assert vars(tau)["_cone_walk"] is cone._form_walk(tau)


def test_lagrangian_yes_reduces_once(monkeypatch):
    from latwist import cone, reduction

    m = R(8)
    k0, k_delta = m.k0_form(), FormClass(m, (-3, 1, -1, 1, 1, 1, 1, 1, 1))
    # minus K is in the cone of K for n <= 8, and every K-null class has
    # area zero on it
    cases = [
        (parse_class("3H-2E1-E2-E3-E4-E5-E6-E7-E8", m), -k0),
        (parse_class("2H-E1-E2-E3-E4-E5-E6", m), -k0),
        (parse_class("3H-2E1+E2-E3-E4-E5-E6-E7-E8", m), -k_delta),
        (parse_class("2H-E3-E4-E5-E6-E7-E8", m), -k_delta),
    ]
    reduce = reduction.cremona_reduce
    calls = []
    # every module that imported the function holds its own reference
    for name, module in list(sys.modules.items()):
        if name.startswith("latwist") and getattr(module, "cremona_reduce", None) is reduce:
            monkeypatch.setattr(module, "cremona_reduce", lambda x: calls.append(x) or reduce(x))
    for xi, tau in cases:
        K = -tau
        expected = reduce(reduction._conjugate_to_k0(xi, reduction._k0_signs(m, K)[1]))
        calls.clear()
        res = is_lagrangian_spherical(xi, tau, K)
        assert res.yes and len(calls) == 1
        assert res.word == expected.word and res.kind == expected.kind
        assert len(res.word) >= 1
