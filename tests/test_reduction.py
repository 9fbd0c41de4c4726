"""Cremona reduction certificates and the class predicates."""

import random
import warnings
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latwist.classexpr import parse_class
from latwist.cone import LagrangianResult, _form_walk, is_lagrangian_spherical
from latwist.oracle import bfs_is_exceptional, bfs_is_knull_spherical
from latwist.lattice import (
    RATIONAL,
    RULED,
    FormClass,
    HomClass,
    LatticeModel,
    _gram_product,
    form_pairing,
    is_characteristic,
    mat_identity,
    mat_vec,
    pairing,
    reflect,
    reflection_matrix,
)
from latwist.reduction import (
    KIND_BINARY,
    KIND_EXC_EI,
    KIND_EXC_HEIEJ,
    KIND_IRREDUCIBLE,
    KIND_MINUS_BASIS,
    KIND_NEGATIVE,
    KIND_REDUCED,
    KIND_TERNARY,
    KIND_ZERO,
    SPHERICAL_KINDS,
    NormalForm,
    ReflectionWord,
    _conjugate_to_k0,
    _k0_signs,
    _match_terminal,
    _ruled_exceptional,
    cremona_reduce,
    is_exceptional,
    is_K_null_spherical,
)

from dense import mat_mul


def R(n):
    return LatticeModel.rational(n)


def cls(text, model):
    return parse_class(text, model)


def check_certificate(xi, nf: NormalForm):
    sign = -1 if nf.sign_flipped else 1
    image = mat_vec(nf.word.matrix, xi.coeffs)
    assert image == tuple(sign * c for c in nf.representative.coeffs)


# Reference for the reduction loop's stop decision: the b_i sorted
# descending on their own, then tested by the definition.

def _sorted_b(coeffs):
    """H-coefficient and the b_i of a = aH - sum b_i E_i, b descending."""
    return coeffs[0], sorted((-c for c in coeffs[1:]), reverse=True)


def _defect(a, b):
    # absent b_2, b_3 count as zero when n < 3
    return a - sum(b[:3])


def _is_reduced(coeffs) -> bool:
    a, b = _sorted_b(coeffs)
    if a < 0 or (b and b[-1] < 0):
        return False
    return _defect(a, b) >= 0


def _reference_stop(coeffs):
    """Reduced, NegativeCoefficient or None (go on) for a class with
    a >= 0 whose b_i are sorted, as the helpers decided it."""
    if _is_reduced(coeffs):
        return KIND_REDUCED
    a, b = _sorted_b(coeffs)
    if a > 0 and b and b[-1] < 0 and _defect(a, b) >= 0:
        return KIND_NEGATIVE
    return None


@st.composite
def sorted_rational_coeffs(draw):
    """a >= 0 and the E-coefficients ascending, so the b_i descend."""
    n = draw(st.integers(0, 10))
    a = draw(st.integers(0, 30))
    c = draw(st.lists(st.integers(-15, 15), min_size=n, max_size=n))
    return (a,) + tuple(sorted(c))


@given(sorted_rational_coeffs())
@settings(max_examples=600, deadline=None)
@example((3, -1, -1, -1, 1))
@example((2, -1, -1, 1))
@example((5,))
def test_stop_decision_matches_the_sorting_helpers(coeffs):
    # a sorted, nonterminal class with a >= 0 takes no transposition, so
    # the loop's first decision shows as an empty word
    n = len(coeffs) - 1
    assume(_match_terminal(coeffs, n) is None)
    with warnings.catch_warnings():
        # some draws sit outside the covered patterns and hit the cap
        warnings.simplefilter("ignore", RuntimeWarning)
        nf = cremona_reduce(HomClass(R(n), coeffs))
    expected = _reference_stop(coeffs)
    if expected is not None:
        assert (nf.kind, len(nf.word), nf.representative.coeffs) == (expected, 0, coeffs)
    else:
        assert nf.kind not in (KIND_REDUCED, KIND_NEGATIVE) or len(nf.word) > 0


def test_k_defaults_to_k0():
    cases = {
        R(6): ["E1", "H-E1-E2", "2H-E1-E2-E3-E4-E5", "E1-E2", "H-E1-E2-E3", "H", "-E1"],
        LatticeModel.ruled(1, 3): ["E1", "F-E1", "E1-E2", "F-E1-E2", "T", "E1-F"],
        LatticeModel.ruled(2, 2): ["E2", "F-E2", "E2-E1", "E1+E2-F", "T-E1"],
    }
    for m, texts in cases.items():
        k0 = m.k0_form()
        for t in texts:
            x = cls(t, m)
            assert is_exceptional(x) == is_exceptional(x, k0), (m, t)
            assert is_K_null_spherical(x) == is_K_null_spherical(x, k0), (m, t)
    m6, mr = R(6), LatticeModel.ruled(1, 3)
    assert is_exceptional(cls("H-E1-E2", m6)) and not is_exceptional(cls("E1-E2", m6))
    assert is_K_null_spherical(cls("2H-E1-E2-E3-E4-E5-E6", m6))
    assert is_exceptional(cls("F-E3", mr)) and not is_exceptional(cls("E1-F", mr))
    assert is_K_null_spherical(cls("F-E1-E3", mr)) and not is_K_null_spherical(cls("F-E1", mr))


def test_ruled_exceptional_membership_matches_the_closed_form():
    # E_i and F - E_i: t = 0, one nonzero E-coefficient, (f, e) = (0, 1) or (1, -1)
    m = LatticeModel.ruled(1, 2)
    k0 = m.k0_form()
    for coeffs in product(range(-1, 2), repeat=m.rank):
        x = HomClass(m, coeffs)
        nonzero = [c for c in coeffs[2:] if c]
        closed = coeffs[0] == 0 and len(nonzero) == 1 and (coeffs[1], nonzero[0]) in ((0, 1), (1, -1))
        assert is_exceptional(x, k0) == closed, coeffs


def _ruled_knull_closed_form(x):
    """The ruled K-null spherical classes +-(E_i-E_j) and +-(F-E_i-E_j)
    by their closed pattern, the reference for is_K_null_spherical's
    x.F = 0 rule."""
    if pairing(x, x) != -2 or form_pairing(x.model.k0_form(), x) != 0:
        return False
    t, f = x.coeffs[0], x.coeffs[1]
    nonzero = [c for c in x.coeffs[2:] if c]
    if t != 0 or len(nonzero) != 2:
        return False
    if f == 0:
        return sorted(nonzero) == [-1, 1]
    return abs(f) == 1 and nonzero == [-f, -f]


@pytest.mark.parametrize("h", [1, 2])
def test_ruled_classifiers_match_the_closed_forms_and_the_oracle(h):
    # every class with |coefficients| <= 2 of ruled(h, n), n <= 3
    for n in range(4):
        m = LatticeModel.ruled(h, n)
        listed = set(_ruled_exceptional(m))
        for coeffs in product(range(-2, 3), repeat=m.rank):
            x = HomClass(m, coeffs)
            assert is_exceptional(x) == (x in listed) == bfs_is_exceptional(x), coeffs
            assert is_K_null_spherical(x) == _ruled_knull_closed_form(x) == bfs_is_knull_spherical(x), coeffs


def test_reduce_one_gamma_step_to_ternary():
    m = R(6)
    xi = cls("2H-E1-E2-E3-E4-E5-E6", m)
    nf = cremona_reduce(xi)
    assert nf.kind == KIND_TERNARY
    assert nf.representative == cls("H-E4-E5-E6", m)
    assert not nf.sign_flipped
    assert len(nf.word) == 1
    check_certificate(xi, nf)


def test_reduce_exceptional_to_basis_class():
    m = R(5)
    xi = cls("2H-E1-E2-E3-E4-E5", m)
    nf = cremona_reduce(xi)
    assert nf.kind == KIND_EXC_EI
    assert tuple(sorted(nf.representative.coeffs)) == (0, 0, 0, 0, 0, 1)
    check_certificate(xi, nf)


def test_reduce_terminal_binary_is_empty_word():
    m = R(6)
    nf = cremona_reduce(cls("E2-E5", m))
    assert nf.kind == KIND_BINARY
    assert nf.representative == cls("E2-E5", m)
    assert len(nf.word) == 0
    assert not nf.sign_flipped


def test_reduce_negative_coefficient_certificate():
    m = R(11)
    xi = cls("3H+E1-E2-E3-E4-E5-E6-E7-E8-E9-E10-E11", m)
    assert pairing(xi, xi) == -2
    assert form_pairing(m.k0_form(), xi) == 0
    nf = cremona_reduce(xi)
    assert nf.kind == KIND_NEGATIVE
    check_certificate(xi, nf)
    # the sorted representative shows the offending negative entry last
    assert nf.representative.coeffs[-1] == 1


def test_reduce_zero_and_sign_handling():
    m = R(3)
    assert cremona_reduce(m.zero()).kind == KIND_ZERO
    nf = cremona_reduce(-m.E(2))
    assert nf.kind == KIND_MINUS_BASIS
    assert nf.representative == m.E(2)
    assert nf.sign_flipped
    # a negated exceptional class reduces to a negated basis class
    xi = -cls("2H-E1-E2-E3-E4-E5", R(5))
    nf = cremona_reduce(xi)
    assert nf.kind == KIND_MINUS_BASIS
    assert nf.sign_flipped
    check_certificate(xi, nf)


def test_reduction_is_refused_outside_the_rational_model():
    m = LatticeModel.ruled(1, 2)
    with pytest.raises(ValueError, match="Cremona reduction defined for rational model only"):
        cremona_reduce(cls("F-E1", m))


def test_normal_form_kind_is_checked():
    m = R(2)
    with pytest.raises(ValueError, match="unknown normal form kind 'Spherical'"):
        NormalForm("Spherical", m.E(1), ReflectionWord(m, ()), False)


def test_reduce_h_minus_ei_ej_continues_at_n3():
    # terminal only in the n = 2 model; one more step lands on a basis class
    m2 = R(2)
    nf2 = cremona_reduce(cls("H-E1-E2", m2))
    assert nf2.kind == "ExceptionalHEiEj"
    assert len(nf2.word) == 0
    m3 = R(3)
    nf3 = cremona_reduce(cls("H-E1-E2", m3))
    assert nf3.kind == KIND_EXC_EI
    assert nf3.representative == m3.E(3)
    check_certificate(cls("H-E1-E2", m3), nf3)


def test_reduce_ternary_orbit_at_n3():
    m = R(3)
    for sign in (1, -1):
        xi = sign * cls("H-E1-E2-E3", m)
        nf = cremona_reduce(xi)
        assert nf.kind == KIND_TERNARY
        assert nf.representative == cls("H-E1-E2-E3", m)
        assert nf.sign_flipped == (sign == -1)
        check_certificate(xi, nf)


def test_reduce_stuck_states_are_irreducible():
    assert cremona_reduce(cls("E1+E2", R(3))).kind == KIND_IRREDUCIBLE
    assert cremona_reduce(cls("2H-3E1", R(2))).kind == KIND_IRREDUCIBLE
    nf = cremona_reduce(cls("2E1-E2", R(2)))
    assert nf.kind == KIND_IRREDUCIBLE
    check_certificate(cls("2E1-E2", R(2)), nf)


def test_reduce_reduced_class_sorted_via_word():
    m = R(4)
    xi = cls("5H-E4-2E2-E3-E1", m)
    nf = cremona_reduce(xi)
    assert nf.kind == "Reduced"
    assert nf.representative == cls("5H-2E1-E2-E3-E4", m)
    check_certificate(xi, nf)


@pytest.mark.filterwarnings("ignore:Cremona reduction hit its iteration cap")
@given(st.integers(0, 10), st.data())
@settings(max_examples=300, deadline=None)
def test_certificate_soundness_random(n, data):
    m = R(n)
    xi = HomClass(m, tuple(data.draw(st.integers(-8, 8)) for _ in range(m.rank)))
    nf = cremona_reduce(xi)
    check_certificate(xi, nf)
    # every generator is a K_0-twist, so square and K_0-pairing persist
    k0 = m.k0_form()
    rep = nf.representative
    assert pairing(rep, rep) == pairing(xi, xi)
    assert form_pairing(k0, rep) == (-1 if nf.sign_flipped else 1) * form_pairing(k0, xi)


def test_word_generators_are_k0_twists():
    m = R(6)
    nf = cremona_reduce(cls("4H-2E1-2E2-E3-E4-E5-E6", m))
    k0 = m.k0_form()
    for g in nf.word.generators:
        assert pairing(g, g) == -2
        assert form_pairing(k0, g) == 0
    check_certificate(cls("4H-2E1-2E2-E3-E4-E5-E6", m), nf)


def test_word_composition_convention():
    m = R(3)
    g1 = m.E(1) - m.E(2)
    g2 = m.E(2) - m.E(3)
    w = ReflectionWord(m, (g1, g2))
    # the last generator acts first: E1 -> E1 under g2, then -> E2 under g1
    assert w.apply(m.E(1)) == m.E(2)
    assert ReflectionWord.from_applied(m, (g1, g2)).apply(m.E(1)) == m.E(3)


def eager_word_matrix(word):
    """The reference: the listed-order product of dense reflection matrices."""
    m = mat_identity(word.model.rank)
    for g in word.generators:
        m = mat_mul(m, reflection_matrix(g))
    return m


def simple_axes(m):
    """Admissible axes (square +-1 or +-2) in basis position."""
    if m.kind == "rational":
        H = m.unit(0)
        E = [m.E(i) for i in range(1, m.n + 1)]
        axes = [H] + E + [H - a - b - c for i, a in enumerate(E) for j, b in enumerate(E[:i])
                          for c in E[:j]]
    else:
        T, F = m.unit(0), m.unit(1)
        E = [m.E(i) for i in range(1, m.n + 1)]
        axes = [T + F, T - F] + E + [F - a for a in E]
        axes += [F - a - b for i, a in enumerate(E) for b in E[:i]]
    axes += [a - b for i, a in enumerate(E) for b in E[:i]]
    return axes


@st.composite
def words(draw):
    """Words of length 0..40 over conjugated axes, rational n=0..12 and
    ruled h=1..3, n=0..6."""
    m = draw(st.one_of(
        st.integers(0, 12).map(R),
        st.tuples(st.integers(1, 3), st.integers(0, 6)).map(lambda t: LatticeModel.ruled(*t)),
    ))
    axes = simple_axes(m)
    gens = []
    for _ in range(draw(st.integers(0, 40))):
        g = draw(st.sampled_from(axes))
        for _ in range(draw(st.integers(0, 2))):
            g = reflect(draw(st.sampled_from(axes)), g)
        gens.append(g)
    return ReflectionWord(m, tuple(gens))


@given(words())
@settings(max_examples=200, deadline=None)
def test_word_matrix_matches_eager_product(word):
    assert word.matrix == eager_word_matrix(word)
    assert word.matrix is word.matrix


@pytest.mark.parametrize("model", [R(0), R(5), R(12), LatticeModel.ruled(1, 0),
                                   LatticeModel.ruled(3, 6)])
def test_empty_word_matrix_is_identity(model):
    word = ReflectionWord(model, ())
    assert word.matrix == mat_identity(model.rank) == eager_word_matrix(word)


@given(words(), st.data())
@settings(max_examples=200, deadline=None)
def test_word_apply_replays_reflections(word, data):
    x = HomClass(word.model, tuple(data.draw(st.integers(-9, 9)) for _ in range(word.model.rank)))
    y = x
    for g in reversed(word.generators):
        y = reflect(g, y)
    assert word.apply(x) == y


def test_word_matrix_is_built_on_first_read():
    m = R(4)
    word = cremona_reduce(cls("5H-2E1-2E2-2E3-E4", m)).word
    assert "matrix" not in vars(word)
    first = word.matrix
    assert vars(word)["matrix"] is first is word.matrix


def test_word_constructor_checks_generators():
    # both checks run at construction, before any read of .matrix
    m = LatticeModel.ruled(1, 2)
    with pytest.raises(ValueError, match="reflection undefined for this square"):
        ReflectionWord(m, (m.E(1) - m.E(2), m.unit(1)))
    with pytest.raises(ValueError, match="incompatible lattice models"):
        ReflectionWord(m, (R(3).E(1),))
    with pytest.raises(ValueError, match="reflection undefined for this square"):
        ReflectionWord(R(2), (R(2).unit(0) - R(2).E(1),))
    # the checks read the square kept on the generator and compare models
    # by identity first; both still reject on a repeat, and an equal model
    # that is another instance passes
    F = m.unit(1)
    core = R(3).E(1) - R(3).E(2)
    for _ in range(2):
        with pytest.raises(ValueError, match="reflection undefined for this square"):
            ReflectionWord(m, (F,))
        with pytest.raises(ValueError, match="incompatible lattice models"):
            ReflectionWord(m, (core,))
    other = LatticeModel(RATIONAL, 3)
    assert other is not core.model
    assert ReflectionWord(other, (core,)).matrix == reflection_matrix(core)


def test_is_exceptional():
    m3 = R(3)
    k3 = m3.k0_form()
    assert is_exceptional(m3.E(1), k3)
    m5 = R(5)
    assert is_exceptional(cls("2H-E1-E2-E3-E4-E5", m5), m5.k0_form())
    m1 = R(1)
    assert not is_exceptional(cls("H-E1", m1), m1.k0_form())
    assert not is_exceptional(-m3.E(1), k3)
    m2 = R(2)
    assert is_exceptional(cls("H-E1-E2", m2), m2.k0_form())


def test_is_exceptional_k_delta_variant():
    m = R(2)
    k_delta = FormClass(m, (-3, -1, 1))
    assert is_exceptional(-m.E(1), k_delta)
    assert not is_exceptional(m.E(1), k_delta)
    assert is_exceptional(m.E(2), k_delta)
    bad = FormClass(m, (-3, 2, 1))
    with pytest.raises(ValueError, match="K_0"):
        is_exceptional(m.E(1), bad)


def test_is_exceptional_ruled():
    m = LatticeModel.ruled(2, 2)
    k0 = m.k0_form()
    F = m.unit(1)
    assert is_exceptional(m.E(1), k0)
    assert is_exceptional(F - m.E(2), k0)
    assert not is_exceptional(F - m.E(1) - m.E(2), k0)
    assert not is_exceptional(-m.E(1), k0)
    with pytest.raises(ValueError, match="conjugate to K_0"):
        is_exceptional(m.E(1), FormClass(m, (-2, 3, 1, 1)))


def _k_delta_signs_loop(model, K):
    """The sign loop that _k0_signs replaced, kept as its reference:
    the E-sign vector of a rational K_0 or K_delta variant, else None."""
    if K.model != model or model.kind != RATIONAL:
        return None
    if K.den != 1 or K.num[0] != -3:
        return None
    signs = []
    for c in K.num[1:]:
        if c == 1:
            signs.append(1)
        elif c == -1:
            signs.append(-1)
        else:
            return None
    return tuple(signs)


@st.composite
def canonical_candidates(draw):
    m = R(draw(st.integers(0, 9)))
    head = draw(st.sampled_from((-3, -2)))
    # half the draws keep every E-coefficient a sign, so the K_delta
    # family is hit as often as its complement
    e = st.sampled_from((-1, 1)) if draw(st.booleans()) else st.integers(-2, 2)
    num = [head] + draw(st.lists(e, min_size=m.n, max_size=m.n))
    q = draw(st.integers(1, 2))
    return FormClass(m, [Fraction(c, q) for c in num])


@given(canonical_candidates())
@settings(max_examples=400, deadline=None)
def test_k0_signs_matches_the_sign_loop(K):
    m = K.model
    expected = _k_delta_signs_loop(m, K)
    if expected is None:
        with pytest.raises(ValueError, match="K must be K_0 or a K_delta variant"):
            _k0_signs(m, K)
        return
    K_out, signs = _k0_signs(m, K)
    assert K_out is K
    assert signs == expected
    assert _conjugate_to_k0(HomClass(m, K.num), signs).coeffs == m.k0_form().num


def test_is_k_null_spherical():
    m2 = R(2)
    assert is_K_null_spherical(cls("E1-E2", m2), m2.k0_form())
    m6 = R(6)
    assert is_K_null_spherical(cls("2H-E1-E2-E3-E4-E5-E6", m6), m6.k0_form())
    m11 = R(11)
    xi = cls("3H+E1-E2-E3-E4-E5-E6-E7-E8-E9-E10-E11", m11)
    assert not is_K_null_spherical(xi, m11.k0_form())


def test_is_k_null_spherical_ruled():
    m = LatticeModel.ruled(1, 3)
    k0 = m.k0_form()
    F = m.unit(1)
    assert is_K_null_spherical(m.E(1) - m.E(3), k0)
    assert is_K_null_spherical(-(F - m.E(1) - m.E(2)), k0)
    assert not is_K_null_spherical(F - m.E(1), k0)
    assert not is_K_null_spherical(m.unit(0) - F, k0)


# -- the integer reduction loop against the earlier class-by-class loop --------

def _old_match_terminal(xi):
    a = xi.coeffs[0]
    nonzero = [c for c in xi.coeffs[1:] if c]
    if a == 0:
        if not nonzero:
            return KIND_ZERO
        if len(nonzero) == 1 and abs(nonzero[0]) == 1:
            return KIND_EXC_EI if nonzero[0] > 0 else KIND_MINUS_BASIS
        if len(nonzero) == 2 and sorted(nonzero) == [-1, 1]:
            return KIND_BINARY
        return None
    if abs(a) == 1:
        if len(nonzero) == 2 and nonzero == [-a, -a] and xi.model.n == 2:
            return KIND_EXC_HEIEJ
        if len(nonzero) == 3 and nonzero == [-a, -a, -a]:
            return KIND_TERNARY
    return None


def _old_cremona_reduce(xi):
    """The loop as it ran on HomClass values, building every generator
    from basis classes and applying it with reflect.  Returns kind,
    representative, generators in listed order, sign flag and whether the
    iteration cap was hit."""
    model, n = xi.model, xi.model.n
    cur, flipped, applied = xi, False, []
    gamma_cap, gamma_count = abs(xi.coeffs[0]) + n + 4, 0

    def finish(kind, capped=False):
        rep, extra = cur, False
        for c in cur.coeffs:
            if c:
                rep, extra = (cur, False) if c > 0 else (-cur, True)
                break
        return kind, rep, tuple(reversed(applied)), flipped ^ extra, capped

    while True:
        kind = _old_match_terminal(cur)
        if kind is not None:
            if flipped and kind in (KIND_EXC_EI, KIND_MINUS_BASIS):
                kind = KIND_MINUS_BASIS if kind == KIND_EXC_EI else KIND_EXC_EI
            return finish(kind)
        a = cur.coeffs[0]
        if a < 0:
            cur, flipped = -cur, not flipped
            continue
        for pos in range(n):
            best = pos
            for q in range(pos + 1, n):
                if -cur.coeffs[1 + q] > -cur.coeffs[1 + best]:
                    best = q
            if best != pos:
                g = model.E(pos + 1) - model.E(best + 1)
                applied.append(g)
                cur = reflect(g, cur)
        if _is_reduced(cur.coeffs):
            return finish(KIND_REDUCED)
        b = [-c for c in cur.coeffs[1:]]
        d = a - sum(b[:3])
        if a > 0 and b and b[-1] < 0 and d >= 0:
            return finish(KIND_NEGATIVE)
        if d < 0 and n >= 3:
            if gamma_count >= gamma_cap:
                return finish(KIND_IRREDUCIBLE, capped=True)
            gamma_count += 1
            g = HomClass(model, (1, -1, -1, -1) + (0,) * (n - 3))
            applied.append(g)
            cur = reflect(g, cur)
            continue
        return finish(KIND_IRREDUCIBLE)


def _k0_twists(m):
    n, H = m.n, m.unit(0)
    out = [m.E(i) - m.E(j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    out += [H - m.E(i) - m.E(j) - m.E(k)
            for i in range(1, n + 1) for j in range(i + 1, n + 1) for k in range(j + 1, n + 1)]
    return out


@st.composite
def reduction_inputs(draw):
    shape = draw(st.sampled_from(("wide", "stuck", "orbit", "tied")))
    m = R(draw(st.integers(0, 14 if shape == "tied" else 12)))
    if shape == "tied":
        # a few drawn values in tied blocks, both signs, so the sort of a
        # pass meets equal b_i
        values = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4))
        tail = draw(st.lists(st.sampled_from(values), min_size=m.n, max_size=m.n))
        return HomClass(m, (draw(st.integers(-30, 30)),) + tuple(tail))
    if shape == "wide":
        # any sign of the H-coefficient; many of these hit the cap
        top = draw(st.sampled_from((3, 12, 60)))
        return HomClass(m, tuple(draw(st.integers(-top, top)) for _ in range(m.rank)))
    if shape == "stuck":
        return HomClass(m, (0,) + tuple(draw(st.integers(-3, 3)) for _ in range(m.n)))
    # a terminal class moved by K_0-twists, so it reduces back to one
    seeds = [m.unit(0)] + [m.E(i) for i in range(1, m.n + 1)] + _k0_twists(m)
    if m.n >= 2:
        seeds.append(m.unit(0) - m.E(1) - m.E(2))
    xi = draw(st.sampled_from(seeds))
    twists = _k0_twists(m)
    for _ in range(draw(st.integers(0, 20)) if twists else 0):
        xi = reflect(draw(st.sampled_from(twists)), xi)
    return -xi if draw(st.booleans()) else xi


@given(reduction_inputs())
@example(HomClass(R(3), (-1, 2, 2, 2)))  # hits the cap
@example(HomClass(R(14), (7,) + (-2, 1) * 7))
@example(HomClass(R(3), (0, 2, -1, 1)))
@example(HomClass(R(2), (1, 3, -2)))
@example(HomClass(R(0), (-4,)))
@settings(max_examples=600, deadline=None)
def test_reduction_matches_class_loop(xi):
    assert_matches_class_loop(xi)


def test_reduction_matches_class_loop_on_the_small_grid():
    # every rational class with n <= 4 and |coefficients| <= 2
    for n in range(5):
        for coeffs in product(range(-2, 3), repeat=n + 1):
            assert_matches_class_loop(HomClass(R(n), coeffs))


def _walk(rng, m, start, steps, cap):
    """start moved by up to ``steps`` random K_0-twists, each kept while
    the H-coefficient stays within cap, then E_1..E_n relabeled."""
    x, twists = start, _k0_twists(m)
    for _ in range(steps):
        y = reflect(rng.choice(twists), x)
        if abs(y.coeffs[0]) <= cap:
            x = y
    perm = rng.sample(range(1, m.rank), m.n)
    return HomClass(m, (x.coeffs[0],) + tuple(x.coeffs[p] for p in perm))


def test_reduction_matches_class_loop_on_classify_walks():
    # the shape of a classify query: an exceptional class, a root or a
    # reduced class of positive square, walked to H-degree up to 127
    rng = random.Random(26)
    for n in range(3, 13):
        m = R(n)
        for k in range(40):
            if k % 3 == 0:
                start = m.E(rng.randint(1, n))
            elif k % 3 == 1:
                start = rng.choice(_k0_twists(m))
            else:
                b = sorted((rng.randint(0, 3) for _ in range(n)), reverse=True)
                a = sum(b[:3]) + rng.randint(1, 3)
                while a * a <= sum(v * v for v in b):
                    a += 1
                start = HomClass(m, (a,) + tuple(-v for v in b))
            cap = 2 ** rng.randint(0, 7) - 1
            xi = _walk(rng, m, start, 4 * cap + rng.randint(0, 6), max(cap, abs(start.coeffs[0])))
            assert_matches_class_loop(xi)
            assert_matches_class_loop(-xi)


def test_reduction_matches_class_loop_under_k_delta():
    # each K_delta itself, and classes moved by its signs, which is how a
    # K_delta decision reaches the reduction
    rng = random.Random(261)
    for n in range(3, 11):
        m = R(n)
        for _ in range(6):
            signs = tuple(rng.choice((1, -1)) for _ in range(n))
            assert_matches_class_loop(HomClass(m, (-3,) + signs))
            x = _walk(rng, m, rng.choice(_k0_twists(m) + [m.E(1)]), 30, 40)
            assert_matches_class_loop(_conjugate_to_k0(x, signs))


def assert_matches_class_loop(xi):
    kind, rep, gens, flipped, capped = _old_cremona_reduce(xi)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        nf = cremona_reduce(xi)
    assert (nf.kind, nf.representative, nf.word.generators, nf.sign_flipped) == (
        kind, rep, gens, flipped,
    )
    assert [(w.category, str(w.message)) for w in caught] == (
        [(RuntimeWarning, "Cremona reduction hit its iteration cap; reporting Irreducible")]
        if capped else []
    )
    if capped:
        # the warning points at the caller, as before
        assert caught[0].filename == __file__


# -- one reduction per class object --------------------------------------------


def count_reductions(monkeypatch):
    import latwist.reduction as reduction

    calls = []
    inner = reduction._cremona_reduce

    def counted(xi):
        calls.append(xi)
        return inner(xi)

    monkeypatch.setattr(reduction, "_cremona_reduce", counted)
    return calls


@pytest.mark.parametrize(
    "text, exceptional, knull",
    [("2H-E1-E2-E3-E4-E5", True, False), ("2H-E1-E2-E3-E4-E5-E6", False, True), ("E1-E2", False, True)],
)
def test_classification_and_reduction_share_one_reduction(monkeypatch, text, exceptional, knull):
    m = R(6)
    k0 = m.k0_form()
    calls = count_reductions(monkeypatch)
    xi = cls(text, m)
    assert is_exceptional(xi, k0) is exceptional
    assert is_K_null_spherical(xi, k0) is knull
    nf = cremona_reduce(xi)
    assert cremona_reduce(xi) is nf
    assert calls == [xi] and calls[0] is xi
    check_certificate(xi, nf)
    # under a K_delta variant the routines reduce the sign-changed class,
    # another object (only one of the two passes the gate), and nothing
    # is kept on the input
    k_delta = FormClass(m, (-3, -1) + (1,) * 5)
    y = HomClass(m, (xi.coeffs[0], -xi.coeffs[1]) + xi.coeffs[2:])
    assert is_exceptional(y, k_delta) is exceptional
    assert is_K_null_spherical(y, k_delta) is knull
    assert len(calls) == 2 and calls[1] == xi and calls[1] is not xi
    assert set(vars(y)) <= {"model", "coeffs", "_square"}


def test_a_k_delta_decision_reduces_the_moved_class(monkeypatch):
    # K_delta = -3H - E1 + E2 + ... + E6, and a class that is K_delta-null
    # spherical of zero area for -K_delta: each K_delta question moves the
    # class to K_0 and reduces the moved class, once per question
    m = R(6)
    k_delta = FormClass(m, (-3, -1) + (1,) * 5)
    tau = -k_delta
    calls = count_reductions(monkeypatch)
    x = cls("2H+E1-E2-E3-E4-E5-E6", m)
    assert is_K_null_spherical(x, k_delta)
    res = is_lagrangian_spherical(x, tau, k_delta)
    assert res.yes and res.kind == KIND_TERNARY
    assert calls == [cls("2H-E1-E2-E3-E4-E5-E6", m)] * 2
    # each K_delta variant moves the class its own way
    other = FormClass(m, (-3, 1, -1) + (1,) * 4)
    y = cls("E4-E5", m)
    for K in (k_delta, other, k_delta, other):
        assert is_K_null_spherical(y, K)
    assert calls[2:] == [y] * 4 and all(c is not y for c in calls[2:])
    assert set(vars(y)) <= {"model", "coeffs", "_square"}


def test_kept_normal_form_leaves_equality_and_hash():
    m = R(4)
    xi = cls("5H-2E1-2E2-2E3-E4", m)
    nf = cremona_reduce(xi)
    fresh = HomClass(m, xi.coeffs)
    assert xi == fresh and hash(xi) == hash(fresh)
    assert {xi: 1}[fresh] == 1
    assert cremona_reduce(fresh) == nf
    assert repr(xi) == repr(fresh)


def test_capped_reduction_is_not_kept_and_warns_on_every_call(monkeypatch):
    calls = count_reductions(monkeypatch)
    xi = HomClass(R(3), (-1, 2, 2, 2))
    for expected_calls in (1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            nf = cremona_reduce(xi)
        assert nf.kind == KIND_IRREDUCIBLE
        assert [(w.category, w.filename) for w in caught] == [(RuntimeWarning, __file__)]
        assert len(calls) == expected_calls


def test_uncapped_irreducible_is_kept(monkeypatch):
    calls = count_reductions(monkeypatch)
    xi = cls("E1+E2", R(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cremona_reduce(xi).kind == KIND_IRREDUCIBLE
        assert cremona_reduce(xi).kind == KIND_IRREDUCIBLE
    assert len(calls) == 1


# -- the one classifier against the four decisions it replaced ------------------

def _old_is_exceptional(xi, K=None):
    K, signs = _k0_signs(xi.model, K)
    if pairing(xi, xi) != -1 or _gram_product(xi.model, K.num, xi.coeffs) != -1:
        return False
    if xi.model.kind == RULED:
        return xi.coeffs[0] == 0
    nf = cremona_reduce(_conjugate_to_k0(xi, signs))
    return nf.kind in (KIND_EXC_EI, KIND_EXC_HEIEJ) and not nf.sign_flipped


def _old_ruled_k_null_spherical(xi, K):
    return (
        pairing(xi, xi) == -2
        and _gram_product(xi.model, K.num, xi.coeffs) == 0
        and xi.coeffs[0] == 0
    )


def _old_spherical_normal_form(xi, K, signs):
    if pairing(xi, xi) != -2 or _gram_product(xi.model, K.num, xi.coeffs) != 0:
        return None
    nf = cremona_reduce(_conjugate_to_k0(xi, signs))
    return nf if nf.kind in SPHERICAL_KINDS else None


def _old_is_K_null_spherical(xi, K=None):
    K, signs = _k0_signs(xi.model, K)
    if xi.model.kind == RULED:
        return _old_ruled_k_null_spherical(xi, K)
    return _old_spherical_normal_form(xi, K, signs) is not None


def _old_is_lagrangian_spherical(xi, tau, K=None):
    """is_lagrangian_spherical with its own ruled/rational branch."""
    model = xi.model
    K, signs = _k0_signs(model, K)
    if not _form_walk(_conjugate_to_k0(tau, signs)).closed:
        raise ValueError("form fails the cone conditions")
    nf = None
    if model.kind == RULED:
        spherical = _old_ruled_k_null_spherical(xi, K)
    else:
        nf = _old_spherical_normal_form(xi, K, signs)
        spherical = nf is not None
    area = form_pairing(tau, xi)
    failures = []
    if not spherical:
        failures.append("not K-null spherical")
    if area != 0:
        failures.append("nonzero area")
    word = kind = None
    if not failures and nf is not None:
        word, kind = nf.word, nf.kind
    return LagrangianResult(
        yes=not failures,
        reason="; ".join(failures) if failures else None,
        word=word,
        kind=kind,
        area=area,
        characteristic=is_characteristic(xi),
    )


def _e_vectors(n, squares, bound=2):
    """E-coefficient tuples of length n with entries in [-bound, bound]
    and sum of squares in ``squares``."""
    top = max(squares)

    def walk(prefix, total):
        if len(prefix) == n:
            if total in squares:
                yield tuple(prefix)
            return
        for c in range(-bound, bound + 1):
            if total + c * c <= top:
                yield from walk(prefix + [c], total + c * c)

    return walk([], 0)


def _rational_grid(n, K):
    """Classes of R(n) with every |coefficient| <= 2: all of them for
    n <= 4, and from n = 5 on those near both gates, of square -1 or -2
    and K-pairing -2..1.  Each farther class fails the square gate."""
    m = R(n)
    if n <= 4:
        return [HomClass(m, c) for c in product(range(-2, 3), repeat=m.rank)]
    out = []
    for a in range(-2, 3):
        for e in _e_vectors(n, {a * a + 1, a * a + 2}):
            x = HomClass(m, (a,) + e)
            if -2 <= _gram_product(m, K.num, x.coeffs) <= 1:
                out.append(x)
    return out


def _k_delta(m):
    return FormClass(m, (-3,) + tuple((-1) ** i for i in range(1, m.n + 1)))


def _closed_cone_form(m, K):
    """A form in K's closed cone with area zero on E_i - E_j, and on the
    ternary classes when n <= 8: aH - sum E_i carried by K's signs."""
    a = 3 if m.n <= 8 else 4
    return FormClass(m, (a,) + tuple(-s for s in K.num[1:]))


def _assert_same_decisions(x, K, tau):
    assert is_exceptional(x, K) is _old_is_exceptional(x, K), x.coeffs
    assert is_K_null_spherical(x, K) is _old_is_K_null_spherical(x, K), x.coeffs
    assert is_lagrangian_spherical(x, tau, K) == _old_is_lagrangian_spherical(x, tau, K), x.coeffs


# classes whose reduction in the K_0 frame flips sign
_FLIPPED = [
    (1, "-E1"),
    (4, "-E3"),
    (2, "-H+E1+E2"),
    (5, "-2H+E1+E2+E3+E4+E5"),
]


def test_flipped_examples_flip():
    for n, text in _FLIPPED:
        assert cremona_reduce(cls(text, R(n))).sign_flipped, text


@pytest.mark.parametrize("n", range(11))
def test_classifier_matches_the_replaced_decisions_rational(n):
    m = R(n)
    flipped = [cls(t, m) for k, t in _FLIPPED if k == n]
    for K in (m.k0_form(), _k_delta(m)):
        tau = _closed_cone_form(m, K)
        assert _form_walk(_conjugate_to_k0(tau, _k0_signs(m, K)[1])).closed
        answers = set()
        for x in _rational_grid(n, K) + flipped:
            _assert_same_decisions(x, K, tau)
            res = is_lagrangian_spherical(x, tau, K)
            answers.add((is_exceptional(x, K), is_K_null_spherical(x, K), res.yes, res.kind))
        # the grid reaches Yes and No of every decision the model admits
        if n >= 2:
            assert {(True, False, False, None), (False, True, True, KIND_BINARY)} <= answers
        if 3 <= n <= 8:
            assert (False, True, True, KIND_TERNARY) in answers


@pytest.mark.parametrize("h", [1, 2])
def test_classifier_matches_the_replaced_decisions_ruled(h):
    for n in range(6):
        m = LatticeModel.ruled(h, n)
        K = m.k0_form()
        tau = FormClass(m, (2, 3) + (-1,) * n)
        assert _form_walk(_conjugate_to_k0(tau, _k0_signs(m, K)[1])).closed
        for coeffs in product(range(-2, 3), repeat=m.rank):
            x = HomClass(m, coeffs)
            if n >= 4 and pairing(x, x) not in (-1, -2):
                continue
            _assert_same_decisions(x, K, tau)
