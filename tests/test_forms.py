"""FormClass as integer numerators over one denominator, and the guards
that keep Fraction arithmetic out of the decision paths and dense
products out of the factorizations."""

import math
import random
import sys
from decimal import Decimal
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
from latwist.decompose import (
    IsometryMatrix,
    decompose_K,
    decompose_K_alpha,
    decompose_ruled,
    validate,
)
from latwist.lattice import (
    _mat_reflect,
    FormClass,
    HomClass,
    LatticeModel,
    form_pairing,
    reflection_matrix,
)
from latwist.reduction import ReflectionWord, is_exceptional, is_K_null_spherical

from dense import mat_mul
from spies import count_form_pairing


def R(n):
    return LatticeModel.rational(n)


def models():
    return st.one_of(
        st.integers(0, 10).map(LatticeModel.rational),
        st.tuples(st.integers(1, 3), st.integers(0, 5)).map(lambda t: LatticeModel.ruled(*t)),
    )


coefficients = st.one_of(
    st.integers(-60, 60),
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
)


@st.composite
def coefficient_vectors(draw, m=None):
    if m is None:
        m = draw(models())
    return m, draw(st.lists(coefficients, min_size=m.rank, max_size=m.rank))


@given(coefficient_vectors())
@settings(max_examples=300, deadline=None)
def test_form_stores_reduced_numerators(case):
    m, coeffs = case
    tau = FormClass(m, coeffs)
    assert type(tau.den) is int and tau.den > 0
    assert all(type(a) is int for a in tau.num)
    assert math.gcd(tau.den, *tau.num) == 1
    assert tau.coeffs == tuple(Fraction(c) for c in coeffs)
    assert all(type(c) is Fraction for c in tau.coeffs)
    assert tau.coeffs is tau.coeffs


@given(coefficient_vectors(), st.data(), st.fractions(1, 9, max_denominator=12))
@settings(max_examples=100, deadline=None)
def test_equal_forms_compare_and_hash_equal(case, data, k):
    m, coeffs = case
    _, other = data.draw(coefficient_vectors(m))
    a, sigma = FormClass(m, coeffs), FormClass(m, other)
    # the same form reached by other spellings and other arithmetic
    spelled = [int(c) if Fraction(c).denominator == 1 else Fraction(c) for c in coeffs]
    for b in (FormClass(m, [Fraction(c) for c in spelled]), (a + sigma) - sigma, (1 / k) * (k * a), -(-a)):
        assert a == b and hash(a) == hash(b)
        assert (a.num, a.den) == (b.num, b.den)


def test_equal_forms_examples():
    m = R(1)
    a, b = FormClass(m, (1, 0)), FormClass(m, (Fraction(2, 2), 0))
    assert a == b and hash(a) == hash(b)
    assert (a.num, a.den) == (b.num, b.den) == ((1, 0), 1)
    c, d = FormClass(m, (Fraction(1, 2), 0)), FormClass(m, (Fraction(2, 4), 0))
    assert c == d and hash(c) == hash(d) and len({c, d}) == 1
    assert (c.num, c.den) == ((1, 0), 2)
    assert c != a and FormClass(R(2), (1, 0, 0)) != a
    assert repr(c) == "FormClass(model=LatticeModel.rational(1), coeffs=(Fraction(1, 2), Fraction(0, 1)))"


def test_form_rejects_bools():
    # True would be read as the rational 1, as a class refuses it
    for bad in ((True, 0, 0), (3, -1, False)):
        with pytest.raises(TypeError, match="not bools"):
            FormClass(R(2), bad)


def test_form_rejects_strings_and_other_non_rationals():
    # Fraction(c) would read each of these; a form takes ints and
    # Fractions only, as the parser reads integers in ASCII digits only
    for bad, name in (("٣", "strs"), ("1e-3", "strs"), (" 3 ", "strs"), ("1/2", "strs"),
                      (None, "NoneTypes"), (Decimal("0.5"), "Decimals")):
        with pytest.raises(TypeError, match=f"^form coefficients must be exact rationals, not {name}$"):
            FormClass(R(1), (3, bad))
    assert FormClass(R(1), (3, Fraction(-1, 1000))).coeffs == (3, Fraction(-1, 1000))


@given(coefficient_vectors(), st.data())
@settings(max_examples=100, deadline=None)
def test_form_rejects_floats_and_wrong_lengths(case, data):
    m, coeffs = case
    spot = data.draw(st.integers(0, m.rank - 1))
    bad = list(coeffs)
    bad[spot] = data.draw(st.floats(allow_nan=False, allow_infinity=False))
    with pytest.raises(TypeError, match="not floats"):
        FormClass(m, bad)
    with pytest.raises(ValueError, match="length"):
        FormClass(m, coeffs + [1])
    with pytest.raises(ValueError, match="length"):
        FormClass(m, coeffs[:-1])


def _explicit_pairing(m, u, v):
    """u^T gram v written out coefficient by coefficient in Fraction."""
    u, v = [Fraction(c) for c in u], [Fraction(c) for c in v]
    if m.kind == "rational":
        total = u[0] * v[0]
        tail = range(1, m.rank)
    else:
        total = u[0] * v[1] + u[1] * v[0]
        tail = range(2, m.rank)
    for i in tail:
        total -= u[i] * v[i]
    return total


@given(coefficient_vectors(), st.data())
@settings(max_examples=150, deadline=None)
def test_form_pairing_matches_explicit_sum(case, data):
    m, coeffs = case
    tau = FormClass(m, coeffs)
    x = HomClass(m, tuple(data.draw(st.lists(st.integers(-20, 20), min_size=m.rank, max_size=m.rank))))
    value = form_pairing(tau, x)
    assert type(value) is Fraction
    assert value == _explicit_pairing(m, coeffs, x.coeffs)
    _, other = data.draw(coefficient_vectors(m))
    assert form_pairing(tau, FormClass(m, other)) == _explicit_pairing(m, coeffs, other)


@given(coefficient_vectors(), st.data(), st.one_of(st.integers(-9, 9), st.fractions(-5, 5, max_denominator=12)))
@settings(max_examples=150, deadline=None)
def test_form_arithmetic_matches_coefficientwise(case, data, k):
    m, coeffs = case
    _, other = data.draw(coefficient_vectors(m))
    tau, sigma = FormClass(m, coeffs), FormClass(m, other)
    a, b = [Fraction(c) for c in coeffs], [Fraction(c) for c in other]
    expected = {
        "neg": tuple(-x for x in a),
        "add": tuple(x + y for x, y in zip(a, b)),
        "sub": tuple(x - y for x, y in zip(a, b)),
        "scale": tuple(Fraction(k) * x for x in a),
    }
    got = {"neg": -tau, "add": tau + sigma, "sub": tau - sigma, "scale": k * tau}
    for key, form in got.items():
        assert form.coeffs == expected[key], key
        assert form == FormClass(m, expected[key]), key
        assert form.den > 0 and math.gcd(form.den, *form.num) == 1, key


def test_classes_and_forms_scale_from_either_side():
    m = R(3)
    tau, x = m.k0_form(), m.E(1)
    assert tau * -1 == -1 * tau == -tau
    assert tau * Fraction(2, 3) == Fraction(2, 3) * tau == FormClass(m, (-2,) + (Fraction(2, 3),) * 3)
    assert x * 2 == 2 * x == x + x
    assert x * -1 == -1 * x == -x
    for k in (Fraction(1, 2), 1.0, True, False):
        with pytest.raises(TypeError, match="integers only"):
            x * k
        with pytest.raises(TypeError, match="integers only"):
            k * x
    # forms scale by what the constructor takes as a coefficient
    for k, name in ((0.1, "floats"), ("2", "strs"), (True, "bools")):
        with pytest.raises(TypeError, match=f"^forms scale by exact rationals only, not {name}$"):
            tau * k
        with pytest.raises(TypeError, match=f"^forms scale by exact rationals only, not {name}$"):
            k * tau
    with pytest.raises(TypeError):
        tau * x
    with pytest.raises(TypeError, match="integers only"):
        x * tau


def test_k0_form_is_integral():
    for m in (R(0), R(4), LatticeModel.ruled(2, 3)):
        k = m.k0_form()
        assert k.den == 1 and k.num == m.k0().coeffs
        assert k == FormClass(m, m.k0().coeffs)


# -- no Fraction arithmetic inside the decision paths -------------------------

_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
)


def _count_fraction_operations(monkeypatch, names):
    """Patch the named Fraction methods to log each call; returns the log."""
    calls = []
    for name in names:
        def counting(*args, _name=name, _original=getattr(Fraction, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(Fraction, name, staticmethod(counting) if name == "__new__" else counting)
    return calls


def _word_matrix(m, texts):
    gens = tuple(parse_class(t, m) for t in texts)
    return IsometryMatrix(m, ReflectionWord(m, gens).matrix)


def test_decisions_run_no_fraction_arithmetic(monkeypatch):
    # parsing is where values enter the API, so every input is built first
    m5, m2, mr = R(5), R(2), LatticeModel.ruled(1, 3)
    inside = parse_form("7/2 H - 3/2 E1 - 3/2 E2 - E3 - 1/3 E4 - 1/3 E5", m5)
    outside = parse_form("H - 1/2 E1 - 1/2 E2 - 1/3 E3 - 1/5 E4 - 1/7 E5", m5)
    k_delta = FormClass(m5, (-3, 1, -1, 1, 1, 1))
    flipped = parse_form("7/2 H - 3/2 E1 + 3/2 E2 - E3 - 1/3 E4 - 1/3 E5", m5)
    alpha = parse_form("5/3 H - 2/3 E1 - 2/3 E2 - 1/3 E3 - 1/3 E4 - 1/3 E5", m5)
    zero_area = parse_class("H - E1 - E2 - E3", m5)
    nonzero_area = parse_class("E1 - E3", m5)
    flipped_root = parse_class("E2 - E3", m5)
    M = _word_matrix(m5, ["H-E1-E2-E3", "E3-E4", "E1-E2", "H-E1-E2-E4", "E4-E5"])
    broken = IsometryMatrix(m5, tuple(
        tuple(v + (i == j == 2) for j, v in enumerate(row)) for i, row in enumerate(M.entries)
    ))
    alpha2 = parse_form("5/2 H - 1/2 E1 - 1/2 E2", m2)
    M2 = _word_matrix(m2, ["E1-E2"])
    alpha_r = parse_form("5/2 T + 1/2 F - E1 - 3/2 E2 - E3", mr)
    Mr = _word_matrix(mr, ["E1-E3", "F-E1-E2", "E1-E3"])
    for form in (inside, outside, flipped, alpha, alpha2, alpha_r):
        assert max(c.denominator for c in form.coeffs) > 1

    calls = _count_fraction_operations(monkeypatch, _ARITHMETIC)
    results = (
        in_cone(inside),
        in_cone(outside),
        in_cone(flipped, k_delta),
        is_lagrangian_spherical(zero_area, alpha),
        is_lagrangian_spherical(nonzero_area, alpha),
        is_lagrangian_spherical(flipped_root, flipped, k_delta),
        validate(M, m5.k0_form(), alpha),
        validate(broken, m5.k0_form(), alpha),
        decompose_K(M),
        decompose_K_alpha(M, alpha),
        decompose_K_alpha(M2, alpha2),
        decompose_ruled(Mr, alpha_r),
    )
    monkeypatch.undo()
    assert calls == []

    cone_in, cone_out, cone_flipped, lag_yes, lag_no, lag_flipped = results[:6]
    assert cone_in.verdict == CONE_YES and cone_flipped.verdict == CONE_YES
    assert cone_out.verdict == CONE_NO and cone_out.witness is not None
    assert lag_yes.yes and lag_yes.area == 0
    assert not lag_no.yes and lag_no.area == Fraction(1, 3)
    assert lag_flipped.area == form_pairing(flipped, flipped_root)
    ok, bad = results[6:8]
    assert ok.ok and bad.failures == ("pairing not preserved", "K not preserved", "alpha not preserved")
    for word, matrix in zip(results[8:], (M, M, M2, Mr)):
        assert word.matrix == matrix.entries


def test_parsing_builds_no_fraction(monkeypatch):
    m5, mr = R(5), LatticeModel.ruled(2, 3)
    forms = [
        (m5, "7/2 H - 3/2 E1 - 6/4 E2 - E3 - 1/3 E4 - 1/3 E5 + 0/9 E5"),
        (m5, "h - 1/2 e1 + 1/2 E1 - 1/5*E4 - 2/7 * E5"),
        (mr, "5/2 T + 1/2 F - E1 - 3/2 E2 - 22/33 E3"),
        (m5, "0"),
    ]
    classes = [(m5, "2H - E1 - E1 - 3*E4 + E5"), (mr, "T + 2F - E3"), (m5, "0")]
    calls = _count_fraction_operations(monkeypatch, ("__new__",) + _ARITHMETIC)
    parsed = [parse_form(text, m) for m, text in forms] + [parse_class(text, m) for m, text in classes]
    monkeypatch.undo()
    assert calls == []

    expected = [
        FormClass(m5, (Fraction(7, 2), Fraction(-3, 2), Fraction(-3, 2), -1, Fraction(-1, 3), Fraction(-1, 3))),
        FormClass(m5, (1, 0, 0, 0, Fraction(-1, 5), Fraction(-2, 7))),
        FormClass(mr, (Fraction(5, 2), Fraction(1, 2), -1, Fraction(-3, 2), Fraction(-2, 3))),
        FormClass(m5, (0,) * 6),
        HomClass(m5, (2, -2, 0, 0, -3, 1)),
        HomClass(mr, (1, 2, 0, 0, -1)),
        m5.zero(),
    ]
    for got, want in zip(parsed, expected, strict=True):
        assert got == want
        if isinstance(want, FormClass):
            assert (got.num, got.den) == (want.num, want.den)


# -- no dense products and no per-column classes in the factorizations --------

def test_factorizations_run_no_dense_products(monkeypatch):
    m5, mr = R(5), LatticeModel.ruled(1, 3)
    alpha = parse_form("5/3 H - 2/3 E1 - 2/3 E2 - 1/3 E3 - 1/3 E4 - 1/3 E5", m5)
    M = _word_matrix(m5, ["H-E1-E2-E3", "E3-E4", "E1-E2", "H-E1-E2-E4", "E4-E5"])
    alpha_r = parse_form("5/2 T + 1/2 F - E1 - 3/2 E2 - E3", mr)
    Mr = _word_matrix(mr, ["E1-E3", "F-E1-E2", "E1-E3"])
    m12 = R(12)
    gamma = parse_class("H - E2 - E7 - E11", m12)
    rng = random.Random(5)
    a = tuple(tuple(rng.randint(-9, 9) for _ in range(13)) for _ in range(13))

    # the dense product lives in the tests only, so no module of the
    # package can reach it
    assert [name for name, module in sys.modules.items()
            if name.startswith("latwist") and hasattr(module, "mat_mul")] == []
    words = (decompose_K(M), decompose_K_alpha(M, alpha), decompose_ruled(Mr, alpha_r))
    for word, matrix in zip(words, (M, M, Mr)):
        assert word.matrix == matrix.entries

    builds = []
    init = HomClass.__init__

    def counting_init(self, model, coeffs):
        builds.append(coeffs)
        init(self, model, coeffs)

    monkeypatch.setattr(HomClass, "__init__", counting_init)
    left = _mat_reflect(gamma, a)
    monkeypatch.undo()
    assert builds == []
    assert left == mat_mul(reflection_matrix(gamma), a)


# -- integer areas in the factorizations --------------------------------------

def test_factorizations_never_reach_form_pairing(monkeypatch):
    m5, m2, mr = R(5), R(2), LatticeModel.ruled(1, 3)
    alpha = parse_form("5/3 H - 2/3 E1 - 2/3 E2 - 1/3 E3 - 1/3 E4 - 1/3 E5", m5)
    M = _word_matrix(m5, ["H-E1-E2-E3", "E3-E4", "E1-E2", "H-E1-E2-E4", "E4-E5"])
    alpha2 = parse_form("5/2 H - 1/2 E1 - 1/2 E2", m2)
    M2 = _word_matrix(m2, ["E1-E2"])
    alpha_r = parse_form("5/2 T + 1/2 F - E1 - 3/2 E2 - E3", mr)
    Mr = _word_matrix(mr, ["E1-E3", "F-E1-E2", "E1-E3"])

    calls = count_form_pairing(monkeypatch)
    words = (decompose_K(M), decompose_K_alpha(M, alpha), decompose_K_alpha(M2, alpha2),
             decompose_ruled(Mr, alpha_r))
    assert calls == []
    # the wrapper is in place: the Lagrangian criterion still reads an area
    is_lagrangian_spherical(parse_class("H - E1 - E2 - E3", m5), alpha)
    monkeypatch.undo()
    assert calls != []
    for word, matrix in zip(words, (M, M, M2, Mr)):
        assert word.matrix == matrix.entries


def test_inflation_areas_never_reach_form_pairing(monkeypatch):
    # tau's denominator is positive, so the two area tests read the signs
    # of the integer gram product of its numerators
    m2, m3 = R(2), R(3)
    tau2 = parse_form("3H-E1-E2", m2)
    tau3 = parse_form("5/2 H - 1/2 E1 - 1/2 E2 - 1/3 E3", m3)
    cases = [
        (parse_class("2H-E1", m2), tau2, True),
        (parse_class("2H-3E1", m2), tau2, False),
        (parse_class("-H", m2), tau2, False),
        (parse_class("H", m3), tau3, True),
        (parse_class("3H-E1-E2-E3", m3), tau3, True),
        (parse_class("-2H+E1", m3), tau3, False),
        (parse_class("E1", m3), tau3, False),
    ]
    calls = count_form_pairing(monkeypatch)
    verdicts = [inflation_admissible(A, tau) for A, tau, _ in cases]
    monkeypatch.undo()
    assert calls == []
    assert verdicts == [expected for _, _, expected in cases]


def test_k_pairing_checks_never_reach_form_pairing(monkeypatch):
    # a K that passes _k0_signs has denominator 1, so the exceptional and
    # K-null checks and the listing's re-check pair on its numerators
    m9, mr = R(9), LatticeModel.ruled(2, 3)
    k_delta = parse_form("-3H + E1 - E2 + E3 + E4 - E5 + E6 + E7 + E8 - E9", m9)
    calls = count_form_pairing(monkeypatch)
    for K in (m9.k0_form(), k_delta):
        assert is_exceptional(parse_class("H - E1 - E2", m9), K) == (K == m9.k0_form())
        assert len(enumerate_exceptional(m9, K, degree_bound=2)) == 9 + 36 + 126
    k0r = mr.k0_form()
    assert is_exceptional(parse_class("F - E2", mr), k0r)
    assert is_K_null_spherical(parse_class("F - E1 - E3", mr), k0r)
    assert len(enumerate_exceptional(mr)) == 6
    assert calls == []
