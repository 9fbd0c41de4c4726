"""Genus formulas and Cremona reduction certificates."""

import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latwist.classexpr import parse_class
from latwist.lattice import (
    RATIONAL,
    FormClass,
    HomClass,
    LatticeModel,
    form_pairing,
    mat_identity,
    mat_mul,
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
    NormalForm,
    ReflectionWord,
    _conjugate_to_k0,
    _k0_signs,
    cremona_reduce,
    eta_K,
    eta_lower_bound,
    gt_dimension,
    is_exceptional,
    is_K_null_spherical,
    is_reduced,
)


def R(n):
    return LatticeModel.rational(n)


def cls(text, model):
    return parse_class(text, model)


def check_certificate(xi, nf: NormalForm):
    sign = -1 if nf.sign_flipped else 1
    image = mat_vec(nf.word.matrix, xi.coeffs)
    assert image == tuple(sign * c for c in nf.representative.coeffs)


def test_eta_examples():
    m0 = R(0)
    k0 = m0.k0_form()
    H = m0.unit(0)
    assert eta_K(H, k0) == 0
    assert eta_K(3 * H, k0) == 1
    m2 = R(2)
    assert eta_K(cls("E1-E2", m2), m2.k0_form()) == 0


def test_gt_dimension_examples():
    m0 = R(0)
    k0 = m0.k0_form()
    H = m0.unit(0)
    assert gt_dimension(H, k0) == 2
    assert gt_dimension(3 * H, k0) == 9
    m1 = R(1)
    assert gt_dimension(m1.E(1), m1.k0_form()) == 0


@given(st.integers(1, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_dimension_genus_identity(n, data):
    m = R(n)
    e = HomClass(m, tuple(data.draw(st.integers(-6, 6)) for _ in range(m.rank)))
    num = data.draw(st.integers(-9, 9))
    K = FormClass(m, (Fraction(num, 3),) + e.coeffs[1:])
    k = form_pairing(K, e)
    assert gt_dimension(e, K) == -k + eta_K(e, K) - 1


def test_is_reduced():
    m6 = R(6)
    assert is_reduced(cls("3H-E1-E2-E3-E4-E5-E6", m6))
    assert not is_reduced(cls("H-E1-E2", R(2)))
    assert is_reduced(R(3).zero())
    # sorting is internal, the scrambled version answers the same
    assert is_reduced(cls("3H-E6-E5-E4-E3-E2-E1", m6))
    assert not is_reduced(cls("-H", R(1)))
    with pytest.raises(ValueError, match="rational model only"):
        is_reduced(LatticeModel.ruled(1, 1).zero())


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
    assert (w * w.inverse()).apply(m.E(3)) == m.E(3)


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
    signs = _k0_signs(m, K)
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


def test_eta_lower_bound():
    m6 = R(6)
    b = eta_lower_bound(cls("3H-E1-E2-E3-E4-E5-E6", m6))
    assert b.value == 1 and b.exact
    b = eta_lower_bound(R(1).unit(0))
    assert b.value == 0 and b.exact
    b = eta_lower_bound(cls("H-E1-E2", R(2)))
    assert b.value == 0 and not b.exact
    with pytest.raises(ValueError, match="K_delta family"):
        eta_lower_bound(-R(1).unit(0))
    with pytest.raises(ValueError, match="K_delta family"):
        eta_lower_bound(R(2).E(1))


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
        if is_reduced(cur):
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
    m = R(draw(st.integers(0, 12)))
    shape = draw(st.sampled_from(("wide", "stuck", "orbit")))
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
@example(HomClass(R(3), (-1, 2, 2, 2)))
@example(HomClass(R(3), (0, 2, -1, 1)))
@example(HomClass(R(2), (1, 3, -2)))
@example(HomClass(R(0), (-4,)))
@settings(max_examples=600, deadline=None)
def test_reduction_matches_class_loop(xi):
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
    # another object, so that reduction is not kept on the input
    k_delta = FormClass(m, (-3, -1) + (1,) * 5)
    y = HomClass(m, (xi.coeffs[0], -xi.coeffs[1]) + xi.coeffs[2:])
    assert is_exceptional(y, k_delta) is exceptional
    assert is_K_null_spherical(y, k_delta) is knull
    assert len(calls) == 2 and calls[1] == xi and calls[1] is not xi
    assert "_normal_form" not in vars(y)


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
