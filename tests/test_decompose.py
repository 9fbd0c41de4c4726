"""Isometry validation and twist-word factorization."""

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latwist.classexpr import parse_class, parse_form
from latwist.cone import _walk, in_cone
from latwist.decompose import (
    DecompositionError,
    IsometryMatrix,
    _finish,
    _require_valid,
    decompose_K,
    decompose_K_alpha,
    decompose_ruled,
    matrix_from_json,
    matrix_to_json,
    validate,
)
from latwist.lattice import (
    FormClass,
    HomClass,
    LatticeModel,
    _gram_product,
    form_pairing,
    mat_identity,
    mat_transpose,
    _mat_reflect,
    mat_vec,
    pairing,
    reflect,
    reflection_matrix,
)
from latwist.reduction import ReflectionWord

from dense import mat_mul


def R(n):
    return LatticeModel.rational(n)


def word_matrix(model, texts):
    gens = tuple(parse_class(t, model) for t in texts)
    return IsometryMatrix(model, ReflectionWord(model, gens).matrix)


def rational_generators(model):
    n = model.n
    gens = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            gens.append(model.E(i) - model.E(j))
    H = model.unit(0)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                gens.append(H - model.E(i) - model.E(j) - model.E(k))
    return gens


def ruled_generators(model):
    n = model.n
    F = model.unit(1)
    gens = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            gens.append(model.E(i) - model.E(j))
            gens.append(F - model.E(i) - model.E(j))
    return gens


def test_validate_examples():
    m3 = R(3)
    alpha = parse_form("3H-E1-E2-E3", m3)
    M = word_matrix(m3, ["E1-E2"])
    assert validate(M, m3.k0_form(), alpha).ok
    rep = validate(IsometryMatrix(m3, mat_identity(m3.rank)))
    assert rep.ok and bool(rep) is True
    flip = IsometryMatrix(m3, ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    rep = validate(flip)
    assert not rep.ok and bool(rep) is False
    assert rep.failures == ("K not preserved",)


def test_validate_ternary_generator():
    m4 = R(4)
    M = word_matrix(m4, ["H-E1-E2-E3"])
    assert validate(M).ok


def test_validate_alpha_clause():
    m2 = R(2)
    M = word_matrix(m2, ["E1-E2"])
    uneven = parse_form("3H-E1-2E2", m2)
    rep = validate(M, m2.k0_form(), uneven)
    assert not rep.ok and rep.failures == ("alpha not preserved",)


def test_validate_rejects_forms_of_another_model():
    M = IsometryMatrix(R(3), mat_identity(4))
    ruled = LatticeModel.ruled(1, 2)
    # same rank as M: the pullback would read the ruled coefficients
    with pytest.raises(ValueError, match="incompatible lattice models"):
        validate(M, ruled.k0_form(), parse_form("2T+3F-E1", ruled))
    with pytest.raises(ValueError, match="incompatible lattice models"):
        validate(M, R(4).k0_form())
    with pytest.raises(ValueError, match="incompatible lattice models"):
        validate(M, None, parse_form("3H-E1-E2-E3-E4", R(4)))


def test_validate_non_isometry():
    m1 = R(1)
    rep = validate(IsometryMatrix(m1, ((2, 0), (0, 1))))
    assert "pairing not preserved" in rep.failures


def test_constrained_factorizations_refuse_the_other_model_kind():
    m, mr = R(2), LatticeModel.ruled(1, 2)
    with pytest.raises(ValueError, match="decompose_K_alpha expects a rational model"):
        decompose_K_alpha(IsometryMatrix(mr, mat_identity(4)), parse_form("2T+3F-E1-E2", mr))
    with pytest.raises(ValueError, match="decompose_ruled expects a ruled model"):
        decompose_ruled(IsometryMatrix(m, mat_identity(3)), parse_form("3H-E1-E2", m))


def count_pairing_checks(monkeypatch):
    import latwist.decompose as decompose

    calls = []
    inner = decompose._pairing_preserved

    def counted(model, cols):
        calls.append(model)
        return inner(model, cols)

    monkeypatch.setattr(decompose, "_pairing_preserved", counted)
    return calls


def test_kept_pairing_verdict_reports_on_every_call(monkeypatch):
    calls = count_pairing_checks(monkeypatch)
    m3 = R(3)
    M = IsometryMatrix(m3, ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    for _ in range(3):
        assert validate(M).failures[0] == "pairing not preserved"
        with pytest.raises(ValueError, match="pairing not preserved"):
            decompose_K(M)
    assert len(calls) == 1
    # the verdict leaves equality and hash alone, and a fresh copy is
    # checked on its own
    fresh = IsometryMatrix(m3, M.entries)
    assert fresh == M and hash(fresh) == hash(M)
    assert validate(fresh).failures[0] == "pairing not preserved"
    assert len(calls) == 2


def test_validate_then_decompose_checks_the_pairing_once(monkeypatch):
    calls = count_pairing_checks(monkeypatch)
    m4 = R(4)
    M = word_matrix(m4, ["H-E1-E2-E3", "E2-E4"])
    alpha = parse_form("3H-E1-E2-E3-E4", m4)
    assert validate(M).ok
    word = decompose_K(M)
    assert word.matrix == M.entries
    assert validate(M, m4.k0_form(), alpha).ok
    assert decompose_K_alpha(M, alpha).matrix == M.entries
    assert len(calls) == 1
    # a kept failing pullback verdict still reports on every call
    uneven = parse_form("3H-E1-E2-E3-2E4", m4)
    assert validate(M, m4.k0_form(), uneven).failures == ("alpha not preserved",)
    with pytest.raises(ValueError, match="alpha not preserved"):
        decompose_K_alpha(M, uneven)
    assert len(calls) == 1


@pytest.mark.parametrize("routine", ["K", "K_alpha", "ruled"])
def test_validate_then_decompose_pulls_back_each_form_once(monkeypatch, routine):
    import latwist.decompose as decompose

    if routine == "ruled":
        m = LatticeModel.ruled(1, 3)
        alpha = parse_form("5/2 T + 1/2 F - E1 - 3/2 E2 - E3", m)
        M = word_matrix(m, ["E1-E3", "F-E1-E2", "E1-E3"])
    else:
        m = R(5)
        alpha = parse_form("5/3 H - 2/3 E1 - 2/3 E2 - 1/3 E3 - 1/3 E4 - 1/3 E5", m)
        M = word_matrix(m, ["H-E1-E2-E3", "E3-E4", "E1-E2", "H-E1-E2-E4", "E4-E5"])
    if routine == "K":
        alpha = None
    calls = []
    inner = decompose._pullback

    def counted(model, cols, num):
        calls.append(num)
        return inner(model, cols, num)

    monkeypatch.setattr(decompose, "_pullback", counted)
    # each call builds a new K_0 form, as a caller asking the model does
    assert validate(M, m.k0_form(), alpha).ok
    if routine == "K":
        word = decompose_K(M)
    elif routine == "K_alpha":
        word = decompose_K_alpha(M, alpha)
    else:
        word = decompose_ruled(M, alpha)
    assert validate(M, m.k0_form(), alpha).ok
    assert calls == [m.k0_form().num] + ([] if alpha is None else [alpha.num])
    assert word.matrix == M.entries


def _dense_validate(M, K=None, alpha=None):
    """validate as written with the dense products M^T G M and G M^T G v,
    kept to check the column-pairing version against."""
    model = M.model
    if K is None:
        K = model.k0_form()
    gram = model.gram

    def pullback(coeffs):
        return mat_vec(gram, mat_vec(mat_transpose(M.entries), mat_vec(gram, coeffs)))

    failures = []
    if mat_mul(mat_transpose(M.entries), mat_mul(gram, M.entries)) != gram:
        failures.append("pairing not preserved")
    if pullback(K.coeffs) != tuple(K.coeffs):
        failures.append("K not preserved")
    if alpha is not None and pullback(alpha.coeffs) != tuple(alpha.coeffs):
        failures.append("alpha not preserved")
    return tuple(failures)


@st.composite
def validation_cases(draw):
    """A matrix, K and alpha: twist words (some along non-twists of square
    -1 or +1), often corrupted, against forms with tied areas."""
    if draw(st.booleans()):
        m = R(draw(st.integers(0, 8)))
        gens = rational_generators(m) + [m.unit(0)]
        Ks = [None, m.k0_form()]
        if m.n:
            signs = draw(st.lists(st.sampled_from((1, -1)), min_size=m.n, max_size=m.n))
            Ks.append(FormClass(m, (-3,) + tuple(signs)))
    else:
        m = LatticeModel.ruled(draw(st.integers(1, 3)), draw(st.integers(0, 5)))
        gens = ruled_generators(m)
        Ks = [None, m.k0_form()]
    gens += [m.E(i) for i in range(1, m.n + 1)]
    q = draw(st.integers(1, 12))
    e = m.e_offset
    head = draw(st.lists(st.integers(-6, 12), min_size=e, max_size=e))
    tail = draw(st.lists(st.sampled_from((0, -1, -2)), min_size=m.n, max_size=m.n))
    alpha = FormClass(m, [Fraction(c, q) for c in head + tail])
    zero_area = [g for g in gens if form_pairing(alpha, g) == 0]
    pool = zero_area if zero_area and draw(st.booleans()) else gens
    word = draw(st.lists(st.sampled_from(pool), max_size=12)) if pool else []
    rows = [list(r) for r in ReflectionWord(m, tuple(word)).matrix]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, m.rank - 1)), draw(st.integers(0, m.rank - 1))
        if draw(st.booleans()):
            rows[i][j] += draw(st.sampled_from((-2, -1, 1, 2)))
        else:
            rows[i], rows[j] = rows[j], rows[i]
    return IsometryMatrix(m, rows), draw(st.sampled_from(Ks)), draw(st.sampled_from((None, alpha)))


@given(validation_cases())
@settings(max_examples=400, deadline=None)
def test_validate_matches_dense_formula(case):
    M, K, alpha = case
    assert validate(M, K, alpha).failures == _dense_validate(M, K, alpha)


def _rho(n):
    # the interior chamber point the factorizations walk home
    return (n * n + 3,) + tuple(-i for i in range(1, n + 1))


def _dense_conjugate(M, alpha):
    """(psi M psi^{-1}, psi, psi^{-1}) by dense products, for the frame
    isometry psi of alpha's walk and psi^{-1} = G psi^T G."""
    model = M.model
    psi = mat_identity(model.rank)
    for f in _walk(model, alpha.num).frame[0]:
        psi = mat_mul(reflection_matrix(f), psi)
    gram = model.gram
    psi_inv = mat_mul(gram, mat_mul(mat_transpose(psi), gram))
    return mat_mul(psi, mat_mul(M.entries, psi_inv)), psi, psi_inv


def _dense_conjugation_word(M, alpha):
    """decompose_K_alpha's generators by dense products: the walk of the
    dense conjugate's image of rho, each generator pulled back by
    psi^{-1}."""
    model = M.model
    conjugate, psi, psi_inv = _dense_conjugate(M, alpha)
    alpha_prime = FormClass(model, mat_vec(psi, alpha.coeffs))
    rho = _rho(model.n)
    walk = _walk(model, mat_vec(conjugate, rho)).frame
    if walk is None or walk[1] != rho:
        raise DecompositionError("residual not resolvable")
    gens = []
    for g in walk[0]:
        if form_pairing(alpha_prime, g) != 0:
            raise DecompositionError("generator with nonzero alpha-area")
        gens.append(HomClass(model, mat_vec(psi_inv, g.coeffs)))
    return tuple(gens)


@st.composite
def k_alpha_cases(draw):
    m = R(draw(st.integers(3, 8)))
    if draw(st.booleans()):
        alpha = -m.k0_form()
    else:
        # two blocks of tied areas, in shuffled positions, over 1/q
        top = draw(st.integers(0, m.n))
        b = draw(st.permutations([2] * top + [1] * (m.n - top)))
        a = sum(sorted(b, reverse=True)[:3]) + draw(st.integers(0, 2))
        q = draw(st.integers(1, 6))
        alpha = FormClass(m, [Fraction(c, q) for c in [a] + [-v for v in b]])
    null = [g for g in rational_generators(m) if form_pairing(alpha, g) == 0]
    picks = draw(st.lists(st.sampled_from(null), max_size=20)) if null else []
    return IsometryMatrix(m, ReflectionWord(m, tuple(picks)).matrix), alpha


@given(k_alpha_cases())
@settings(max_examples=150, deadline=None)
def test_k_alpha_word_matches_dense_conjugation(case):
    M, alpha = case
    assert decompose_K_alpha(M, alpha).generators == _dense_conjugation_word(M, alpha)


@st.composite
def scrambled_chamber_forms(draw, n_min=3, n_max=12):
    """A form alpha in the cone and the alpha-null twist roots.

    alpha starts in the chamber: areas b_i in {1, 2, 3} with ties,
    a >= the sum of the three largest b_i and a^2 > sum b_i^2, over a
    denominator up to 12.  Up to 12 K_0-twists then scramble it, and
    the binary and ternary roots of area zero with it.
    """
    m = R(draw(st.integers(n_min, n_max)))
    b = draw(st.lists(st.integers(1, 3), min_size=m.n, max_size=m.n))
    a = max(sum(sorted(b)[-3:]), isqrt(sum(v * v for v in b)) + 1) + draw(st.integers(0, 2))
    dual = HomClass(m, (a,) + tuple(-v for v in b))
    twists = rational_generators(m)
    null = [g for g in twists if pairing(dual, g) == 0]
    for f in draw(st.lists(st.sampled_from(twists), max_size=12)) if twists else ():
        dual = reflect(f, dual)
        null = [reflect(f, g) for g in null]
    q = draw(st.integers(1, 12))
    return FormClass(m, [Fraction(c, q) for c in dual.coeffs]), null


@st.composite
def scrambled_chamber_cases(draw):
    alpha, null = draw(scrambled_chamber_forms())
    m = alpha.model
    picks = draw(st.lists(st.sampled_from(null), max_size=20)) if null else []
    return IsometryMatrix(m, ReflectionWord(m, tuple(picks)).matrix), alpha


@given(scrambled_chamber_cases())
@settings(max_examples=150, deadline=None)
def test_k_alpha_factors_at_every_n(case):
    # n = 9..12 included, where no complete exceptional listing exists
    M, alpha = case
    m = M.model
    word = decompose_K_alpha(M, alpha)
    assert word.matrix == M.entries
    for g in word.generators:
        assert pairing(g, g) == -2
        assert form_pairing(m.k0_form(), g) == 0
        assert form_pairing(alpha, g) == 0


@st.composite
def any_rational_forms(draw):
    m = R(draw(st.integers(0, 12)))
    q = draw(st.integers(1, 12))
    coeffs = [draw(st.integers(-5, 40))] + draw(st.lists(st.integers(-12, 12), min_size=m.n, max_size=m.n))
    return FormClass(m, [Fraction(c, q) for c in coeffs])


@given(st.one_of(scrambled_chamber_forms(0, 12).map(lambda t: t[0]), any_rational_forms()))
@settings(max_examples=300, deadline=None)
def test_chamber_frame_sorts_alpha_into_the_chamber(alpha):
    m = alpha.model
    walk = _walk(m, alpha.num)
    # the open verdict is in_cone's; the frame is the closed walk's, so a
    # boundary form has one too
    assert walk.open == in_cone(alpha)
    assert (walk.frame is None) == (not walk.closed)
    if walk.frame is None:
        return
    frame, reached = walk.frame
    dual = HomClass(m, alpha.num)
    for f in frame:
        assert pairing(f, f) == -2 and form_pairing(m.k0_form(), f) == 0
        dual = reflect(f, dual)
    assert reached == dual.coeffs
    a, b = dual.coeffs[0], [-c for c in dual.coeffs[1:]]
    assert b == sorted(b)
    if m.n >= 3:
        assert a >= sum(b[-3:])


@st.composite
def any_ruled_forms(draw):
    m = LatticeModel.ruled(draw(st.integers(1, 3)), draw(st.integers(0, 9)))
    # t of either sign; tied blocks of b come from a few drawn values
    values = draw(st.lists(st.integers(-8, 12), min_size=1, max_size=4))
    b = draw(st.lists(st.sampled_from(values), min_size=m.n, max_size=m.n))
    num = (draw(st.integers(-12, 20)), draw(st.integers(-12, 12))) + tuple(-v for v in b)
    return m, num


@given(any_ruled_forms())
@settings(max_examples=300, deadline=None)
def test_ruled_chamber_frame_walks_every_form_into_the_chamber(case):
    m, num = case
    frame, reached = _walk(m, num).frame
    dual = HomClass(m, num)
    for f in frame:
        assert pairing(f, f) == -2 and form_pairing(m.k0_form(), f) == 0
        dual = reflect(f, dual)
    assert reached == dual.coeffs
    t, b = reached[0], [-c for c in reached[2:]]
    assert b == sorted(b)
    if m.n >= 2:
        assert b[-2] + b[-1] <= t


@st.composite
def small_n_cases(draw):
    m = R(draw(st.integers(0, 2)))
    q = draw(st.integers(1, 4))
    coeffs = [draw(st.integers(-6, 6)) for _ in range(m.rank)]
    if m.n == 2 and draw(st.booleans()):
        coeffs[2] = coeffs[1]  # tied areas, so E1 - E2 is null
    alpha = FormClass(m, [Fraction(c, q) for c in coeffs])
    M = IsometryMatrix(m, mat_identity(m.rank))
    if m.n == 2 and coeffs[1] == coeffs[2] and draw(st.booleans()):
        M = word_matrix(m, ["E1-E2"])
    return M, alpha


@given(small_n_cases())
@settings(max_examples=300, deadline=None)
def test_k_alpha_small_n_needs_alpha_in_the_cone(case):
    # n <= 2 takes the same path as every other n: the point walk of
    # decompose_K inside the cone, ValueError outside it
    M, alpha = case
    if in_cone(alpha):
        word = decompose_K_alpha(M, alpha)
        assert word.generators == decompose_K(M).generators
    else:
        with pytest.raises(ValueError, match="symplectic cone"):
            decompose_K_alpha(M, alpha)


def test_decompose_identity_and_generator():
    m4 = R(4)
    assert len(decompose_K(IsometryMatrix(m4, mat_identity(m4.rank)))) == 0
    g = parse_class("H-E1-E2-E3", m4)
    M = IsometryMatrix(m4, reflection_matrix(g))
    w = decompose_K(M)
    assert w.matrix == M.entries
    assert w.generators == (g,)


def test_decompose_transpositions():
    m3 = R(3)
    M = word_matrix(m3, ["E1-E3"])
    w = decompose_K(M)
    assert w.matrix == M.entries
    # three-cycle on the basis classes
    M = word_matrix(m3, ["E1-E2", "E2-E3"])
    w = decompose_K(M)
    assert w.matrix == M.entries


def test_decompose_rejects_invalid():
    m3 = R(3)
    flip = IsometryMatrix(m3, ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    with pytest.raises(ValueError, match="K not preserved"):
        decompose_K(flip)
    with pytest.raises(ValueError, match="rational"):
        decompose_K(IsometryMatrix(LatticeModel.ruled(1, 1), mat_identity(3)))


def test_decompose_round_trip_random():
    rng = random.Random(7)
    for n in (1, 2, 3, 4, 6, 8):
        m = R(n)
        gens = rational_generators(m)
        for _ in range(30):
            if not gens:
                word = ReflectionWord(m, ())
            else:
                picks = tuple(rng.choice(gens) for _ in range(rng.randint(0, 8)))
                word = ReflectionWord(m, picks)
            M = IsometryMatrix(m, word.matrix)
            out = decompose_K(M)
            assert out.matrix == M.entries
            k0 = m.k0_form()
            for g in out.generators:
                assert pairing(g, g) == -2
                assert form_pairing(k0, g) == 0


def test_point_walk_builds_no_class_per_step(monkeypatch):
    # the point is walked as integer numerators, its twists come from the
    # class table, and the identity is built once per rank; so with a
    # warm table a decompose_K call builds no class, checked or not
    import latwist.decompose as decompose

    m = R(7)
    rng = random.Random(3)
    gens = rational_generators(m)
    entries = ReflectionWord(m, tuple(rng.choice(gens) for _ in range(12))).matrix
    assert decompose_K(IsometryMatrix(m, entries)).matrix == entries
    M = IsometryMatrix(m, entries)

    def refuse(*args):
        raise AssertionError("a walk step built a class")

    # the module reflects no class, only coefficient tuples
    assert not hasattr(decompose, "reflect")
    monkeypatch.setattr(HomClass, "__init__", refuse)
    monkeypatch.setattr(HomClass, "_from_ints", classmethod(refuse))
    word = decompose_K(M)
    monkeypatch.undo()
    assert len(word) > 0 and word.matrix == M.entries
    assert mat_identity(m.rank) is mat_identity(m.rank)


def test_decompose_k_alpha_transposition():
    m3 = R(3)
    alpha = -m3.k0_form()
    M = word_matrix(m3, ["E1-E2"])
    w = decompose_K_alpha(M, alpha)
    assert w.matrix == M.entries
    for g in w.generators:
        assert form_pairing(alpha, g) == 0


def test_decompose_k_alpha_rejects_unpreserved_alpha():
    m2 = R(2)
    M = word_matrix(m2, ["E1-E2"])
    uneven = parse_form("3H-E1-2E2", m2)
    with pytest.raises(ValueError, match="alpha not preserved"):
        decompose_K_alpha(M, uneven)


def test_decompose_k_alpha_round_trip():
    rng = random.Random(11)
    for n in (3, 4, 5, 6):
        m = R(n)
        alpha = -m.k0_form()
        gens = rational_generators(m)
        for g in gens:
            assert form_pairing(alpha, g) == 0
        for _ in range(25):
            picks = tuple(rng.choice(gens) for _ in range(rng.randint(0, 8)))
            M = IsometryMatrix(m, ReflectionWord(m, picks).matrix)
            out = decompose_K_alpha(M, alpha)
            assert out.matrix == M.entries
            for g in out.generators:
                assert pairing(g, g) == -2
                assert form_pairing(m.k0_form(), g) == 0
                assert form_pairing(alpha, g) == 0


def test_decompose_k_alpha_uneven_areas():
    # areas (3, 1, 2, 2): only two generator cores are null, and the
    # frame must sort the areas ascending (E2 first, then E3 and E4)
    m = R(4)
    alpha = parse_form("7H-3E1-E2-2E3-2E4", m)
    from latwist.cone import CONE_YES, in_cone

    assert in_cone(alpha).verdict == CONE_YES
    texts = ["E3-E4", "H-E1-E3-E4"]
    for t in texts:
        assert form_pairing(alpha, parse_class(t, m)) == 0
    rng = random.Random(3)
    for _ in range(25):
        picks = tuple(parse_class(rng.choice(texts), m) for _ in range(rng.randint(1, 8)))
        M = IsometryMatrix(m, ReflectionWord(m, picks).matrix)
        out = decompose_K_alpha(M, alpha)
        assert out.matrix == M.entries
        for g in out.generators:
            assert form_pairing(alpha, g) == 0


def test_decompose_ruled_trivial_and_generator():
    m = LatticeModel.ruled(2, 1)
    alpha = parse_form("2T+5F-E1", m)
    assert len(decompose_ruled(IsometryMatrix(m, mat_identity(m.rank)), alpha)) == 0
    m2 = LatticeModel.ruled(1, 2)
    alpha2 = parse_form("2T+2F-E1-E2", m2)
    g = parse_class("F-E1-E2", m2)
    assert form_pairing(alpha2, g) == 0
    M = IsometryMatrix(m2, reflection_matrix(g))
    w = decompose_ruled(M, alpha2)
    assert w.matrix == M.entries
    for gg in w.generators:
        assert form_pairing(alpha2, gg) == 0


def test_decompose_ruled_round_trip():
    rng = random.Random(13)
    for h in (1, 2):
        for n in (2, 3, 4):
            m = LatticeModel.ruled(h, n)
            alpha = FormClass(m, (2, 5) + (-1,) * n)
            gens = ruled_generators(m)
            for g in gens:
                assert form_pairing(alpha, g) == 0
            for _ in range(20):
                picks = tuple(rng.choice(gens) for _ in range(rng.randint(0, 8)))
                M = IsometryMatrix(m, ReflectionWord(m, picks).matrix)
                out = decompose_ruled(M, alpha)
                assert out.matrix == M.entries
                k0 = m.k0_form()
                for g in out.generators:
                    assert pairing(g, g) == -2
                    assert form_pairing(k0, g) == 0
                    assert form_pairing(alpha, g) == 0


def test_decompose_ruled_builds_no_class_per_image(monkeypatch):
    # the point is walked as integer numerators and its twists come from
    # the class table, so with alpha already in its chamber (an empty
    # frame, nothing to pull back) and a warm table a factorization
    # builds no class at all
    m = LatticeModel.ruled(1, 4)
    alpha = FormClass(m, (2, 5) + (-1,) * m.n)
    rng = random.Random(5)
    gens = ruled_generators(m)
    entries = ReflectionWord(m, tuple(rng.choice(gens) for _ in range(12))).matrix
    assert decompose_ruled(IsometryMatrix(m, entries), alpha).matrix == entries
    M = IsometryMatrix(m, entries)
    builds = []
    init = HomClass.__init__

    def counting_init(self, model, coeffs):
        builds.append(coeffs)
        init(self, model, coeffs)

    monkeypatch.setattr(HomClass, "__init__", counting_init)
    word = decompose_ruled(M, alpha)
    monkeypatch.undo()
    assert builds == []
    assert len(word) > 0 and word.matrix == entries


def test_decompose_ruled_fiber_not_preserved():
    # a genuine K_0-preserving isometry moving the fiber class; no twist
    # word can reach it because every generator fixes F
    m = LatticeModel.ruled(1, 1)
    M = IsometryMatrix(m, ((2, 1, 2), (1, 2, 2), (-2, -2, -3)))
    alpha = -m.k0_form()
    assert validate(M, m.k0_form(), alpha).ok
    with pytest.raises(DecompositionError, match="fiber class not preserved"):
        decompose_ruled(M, alpha)


def test_decompose_ruled_n0():
    m = LatticeModel.ruled(1, 0)
    alpha = FormClass(m, (1, 1))
    assert len(decompose_ruled(IsometryMatrix(m, mat_identity(m.rank)), alpha)) == 0


def test_matrix_json_round_trip():
    m = R(3)
    M = word_matrix(m, ["H-E1-E2-E3", "E1-E2"])
    data = matrix_to_json(M)
    assert matrix_from_json(data) == M
    with pytest.raises(TypeError, match="integers"):
        matrix_from_json({"model": data["model"], "entries": [[1.5] * 4] * 4})


@pytest.mark.parametrize("bad", [True, False, 1.0, 1.5, "1", None], ids=repr)
def test_matrix_entries_are_exact_ints_and_rows_are_kept_as_tuples(bad):
    m = R(2)
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    M = IsometryMatrix(m, rows)
    assert M.entries == mat_identity(m.rank) and type(M.entries) is tuple
    assert all(type(row) is tuple for row in M.entries)
    for i in range(m.rank):
        spot = [list(row) for row in rows]
        spot[i][(i + 1) % m.rank] = bad
        with pytest.raises(TypeError, match="^matrix entries must be integers$"):
            IsometryMatrix(m, spot)
    # the shape is checked before the entries
    with pytest.raises(ValueError, match="matrix must be 3x3"):
        IsometryMatrix(m, [[bad] * 3] * 2)


# -- the No path: validated isometries that are not twist products -------------

CRITERION_4_CLASS = "3H+E1-E2-E3-E4-E5-E6-E7-E8-E9-E10-E11"


def minus_r_k(m):
    """-R_K: x -> -x + 2 (x.K)/K^2 K for K = K_0, integral when K^2 is +-1 or +-2."""
    K, k2 = m.k0(), pairing(m.k0(), m.k0())
    assert k2 in (1, -1, 2, -2)
    cols = [((2 * pairing(x, K)) // k2 * K - x).coeffs for x in m.basis()]
    return IsometryMatrix(m, mat_transpose(tuple(cols)))


def unfactorable_matrices():
    m11 = R(11)
    yield "R(v)", IsometryMatrix(m11, reflection_matrix(parse_class(CRITERION_4_CLASS, m11)))
    for n in (10, 11):
        yield f"-R_K at n={n}", minus_r_k(R(n))


@pytest.mark.parametrize("name, M", list(unfactorable_matrices()))
def test_decompose_k_raises_on_isometries_outside_the_twist_group(name, M):
    m = M.model
    assert validate(M).ok, name
    rng = random.Random(f"no-path:{name}")
    gens = rational_generators(m)
    products = [M.entries]
    for _ in range(4):
        left = ReflectionWord(m, tuple(rng.choice(gens) for _ in range(rng.randint(1, 10)))).matrix
        right = ReflectionWord(m, tuple(rng.choice(gens) for _ in range(rng.randint(1, 10)))).matrix
        products.append(mat_mul(mat_mul(left, M.entries), right))
    for entries in products:
        P = IsometryMatrix(m, entries)
        assert validate(P).ok, name
        with pytest.raises(DecompositionError, match="^residual not resolvable$"):
            decompose_K(P)


@pytest.mark.parametrize("n, length", [(7, 9), (8, 14)])
def test_geiser_and_bertini_involutions_factor(n, length):
    M = minus_r_k(R(n))
    assert mat_mul(M.entries, M.entries) == mat_identity(M.model.rank)
    word = decompose_K(M)
    assert len(word) == length
    assert word.matrix == M.entries


# -- the point walk against the column-by-column reduction it replaced --------

def _old_class_reduction_gens(classes, v, i):
    """Chronological twists carrying v to E_i, supported on indices >= i.

    v is the coefficient list of an exceptional class orthogonal to
    E_1, ..., E_{i-1}; a twist that pairs with it to d adds d to v_0
    and takes d from the three chosen v_j, in place.
    """
    n = classes.model.n
    gens = []
    while v[0] != 0:
        top = sorted(range(i, n + 1), key=v.__getitem__)[:3]
        d = v[0] + sum(v[j] for j in top)
        if v[0] < 0 or len(top) < 3 or d >= 0:
            raise DecompositionError("residual not resolvable")
        gens.append(classes[((0, 1),) + tuple((j, -1) for j in sorted(top))])
        v[0] += d
        for j in top:
            v[j] -= d
    target = v.index(1) if v.count(1) == 1 and v.count(0) == n else 0
    if target < i:
        raise DecompositionError("residual not resolvable")
    if target != i:
        gens.append(classes[(i, 1), (target, -1)])
    return gens


def _old_staged_reduction(model, entries):
    """Chronological generators reducing the matrix to the identity,
    one column at a time, each applied by left multiplication."""
    classes = model._classes
    cur = entries
    gens = []
    for i in range(1, model.n + 1):
        for g in _old_class_reduction_gens(classes, [row[i] for row in cur], i):
            gens.append(g)
            cur = _mat_reflect(g, cur)
    if cur != mat_identity(model.rank):
        raise DecompositionError("residual not resolvable")
    return gens


def _old_decompose_K_alpha(M, alpha):
    """The column reduction of the dense conjugate psi M psi^{-1}, each
    generator checked for alpha'-area zero and pulled back by psi^{-1}."""
    model = M.model
    conjugate, psi, psi_inv = _dense_conjugate(M, alpha)
    alpha_prime = FormClass(model, mat_vec(psi, alpha.coeffs))
    gens = []
    for g in _old_staged_reduction(model, conjugate):
        if form_pairing(alpha_prime, g) != 0:
            raise DecompositionError("generator with nonzero alpha-area")
        gens.append(HomClass(model, mat_vec(psi_inv, g.coeffs)))
    return gens


def _assert_twist_roots(word, alpha=None):
    # K_0-null roots of square -2; without alpha, twist cores outright
    m = word.model
    for g in word.generators:
        assert pairing(g, g) == -2 and form_pairing(m.k0_form(), g) == 0
        if alpha is None:
            # E_i - E_j or H - E_i - E_j - E_k
            nonzero = sorted(c for c in g.coeffs[1:] if c)
            assert (g.coeffs[0], nonzero) in ((0, [-1, 1]), (1, [-1, -1, -1])), g
        else:
            assert form_pairing(alpha, g) == 0


def test_point_walk_factors_what_the_column_reduction_factors():
    rng = random.Random(22)
    unfactorable = [M for _, M in unfactorable_matrices()]
    for n in range(15):
        m = R(n)
        gens = rational_generators(m)
        for _ in range(12):
            picks = tuple(rng.choice(gens) for _ in range(rng.randint(0, 60))) if gens else ()
            M = IsometryMatrix(m, ReflectionWord(m, picks).matrix)
            old = _old_staged_reduction(m, M.entries)
            word = decompose_K(M)
            assert word.matrix == M.entries == ReflectionWord(m, tuple(old)).matrix
            _assert_twist_roots(word)
    for M in unfactorable:
        m = M.model
        gens = rational_generators(m)
        for _ in range(3):
            left = ReflectionWord(m, tuple(rng.choice(gens) for _ in range(rng.randint(0, 10)))).matrix
            P = IsometryMatrix(m, mat_mul(left, M.entries))
            with pytest.raises(DecompositionError, match="^residual not resolvable$"):
                _old_staged_reduction(m, P.entries)
            with pytest.raises(DecompositionError, match="^residual not resolvable$"):
                decompose_K(P)


@given(scrambled_chamber_cases())
@settings(max_examples=100, deadline=None)
def test_point_walk_matches_the_column_reduction_on_tied_blocks(case):
    # alpha with tied areas at n = 3..12: both sides factor, and every
    # generator is a twist root of alpha-area zero
    M, alpha = case
    old = _old_decompose_K_alpha(M, alpha)
    assert ReflectionWord(M.model, tuple(old)).matrix == M.entries
    word = decompose_K_alpha(M, alpha)
    assert word.matrix == M.entries
    _assert_twist_roots(word, alpha)


# -- the ruled point walk against the pool algorithm it replaced ---------------

def _old_decompose_ruled(M, alpha):
    """The pool factorization: exceptional indices consumed in order of
    increasing area, each image fixed by one twist or by two through a
    spare index, on a running matrix."""
    model = M.model
    _require_valid(M, model.k0_form(), alpha)
    n = model.n
    classes = model._classes
    identity = mat_identity(model.rank)

    def core(f, *e_terms):
        terms = ((1, f),) if f else ()
        return classes[terms + tuple(sorted((j + 1, s) for j, s in e_terms))]

    if M._cols[1] != identity[1]:
        raise DecompositionError("fiber class not preserved")

    cur = M.entries
    gens = []
    remaining = list(range(1, n + 1))

    def img(j, f, s):
        return tuple(f * row[1] + s * row[j + 1] for row in cur)

    def push(g):
        nonlocal cur
        if _gram_product(model, alpha.num, g.coeffs) != 0:
            raise DecompositionError("generator with nonzero alpha-area")
        gens.append(g)
        cur = _mat_reflect(g, cur)

    pool = {core(f, (j, s)).coeffs: (j, f, s) for j in remaining for f, s in ((0, 1), (1, -1))}
    for e in sorted(pool, key=lambda x: (_gram_product(model, alpha.num, x), x)):
        j, f, s = pool[e]
        if j not in remaining:
            continue
        c = img(j, f, s)
        hit = pool.get(c)
        if hit is None or hit[0] not in remaining:
            raise DecompositionError("residual not resolvable")
        if c != e:
            k, fc, sc = hit
            if k != j:
                push(core(f - fc, (j, s), (k, -sc)))
            else:
                spare = [k for k in remaining if k != j]
                if not spare:
                    raise DecompositionError("residual not resolvable")
                k = spare[0]
                push(core(-f, (k, 1), (j, -s)))
                push(core(1 - f, (k, -1), (j, -s)))
            if img(j, f, s) != e:
                raise DecompositionError("residual not resolvable")
        remaining.remove(j)
    if cur != identity:
        raise DecompositionError("residual not resolvable")
    return _finish(model, M, gens)


def _ruled_case(rng):
    """A ruled isometry and a form: h = 1..3, n = 0..9, t = -3..12, tied
    blocks of b over a denominator 1..6, scrambled by up to 8 twists.
    The matrix is a word of up to 40 alpha-null twists, or a short
    arbitrary twist word that mostly breaks alpha."""
    m = LatticeModel.ruled(rng.randint(1, 3), rng.randint(0, 9))
    values = [rng.randint(-2, 8) for _ in range(rng.randint(1, max(1, m.n)))]
    b = [rng.choice(values) for _ in range(m.n)]
    t = rng.randint(-3, 12)
    if m.n >= 2 and rng.random() < 0.5:
        i, j = rng.sample(range(m.n), 2)
        t = b[i] + b[j]
    dual = HomClass(m, (t, rng.randint(-3, 8)) + tuple(-v for v in b))
    twists = ruled_generators(m)
    null = [g for g in twists if pairing(dual, g) == 0]
    for f in [rng.choice(twists) for _ in range(rng.randint(0, 8))] if twists else ():
        dual = reflect(f, dual)
        null = [reflect(f, g) for g in null]
    alpha = FormClass(m, [Fraction(c, rng.randint(1, 6)) for c in dual.coeffs])
    if twists and rng.random() < 0.15:
        picks = [rng.choice(twists) for _ in range(rng.randint(1, 3))]
    else:
        picks = [rng.choice(null) for _ in range(rng.randint(0, 40))] if null else []
    return IsometryMatrix(m, ReflectionWord(m, tuple(picks)).matrix), alpha


def _outcome(routine, M, alpha):
    # a word that reproduces M with alpha-area-zero twist roots, or the error
    try:
        word = routine(M, alpha)
    except (ValueError, DecompositionError) as exc:
        return type(exc), str(exc)
    assert word.matrix == M.entries
    _assert_twist_roots(word, alpha)
    return "word"


def test_ruled_walk_matches_the_pool_algorithm():
    rng = random.Random(23)
    m = LatticeModel.ruled(1, 1)
    fiber_moving = IsometryMatrix(m, ((2, 1, 2), (1, 2, 2), (-2, -2, -3)))
    cases = [(fiber_moving, -m.k0_form())] + [_ruled_case(rng) for _ in range(600)]
    seen = set()
    for M, alpha in cases:
        old = _outcome(_old_decompose_ruled, M, alpha)
        assert _outcome(decompose_ruled, M, alpha) == old
        seen.add(old if old == "word" else old[1])
    assert seen == {"word", "fiber class not preserved", "matrix fails validation: alpha not preserved"}
