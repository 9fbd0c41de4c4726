"""Isometry validation and twist-word factorization."""

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latwist.classexpr import parse_class, parse_form
from latwist.cone import in_cone
from latwist.decompose import (
    DecompositionError,
    IsometryMatrix,
    _chamber_frame,
    _staged_reduction,
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
    form_pairing,
    mat_identity,
    mat_mul,
    mat_transpose,
    mat_vec,
    pairing,
    reflect,
    reflection_matrix,
)
from latwist.reduction import ReflectionWord


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
    assert validate(IsometryMatrix.identity(m3)).ok
    flip = IsometryMatrix(m3, ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    rep = validate(flip)
    assert not rep.ok
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


def test_validate_non_isometry():
    m1 = R(1)
    rep = validate(IsometryMatrix(m1, ((2, 0), (0, 1))))
    assert "pairing not preserved" in rep.failures


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
    # the K and alpha pullbacks still run on every call
    uneven = parse_form("3H-E1-E2-E3-2E4", m4)
    assert validate(M, m4.k0_form(), uneven).failures == ("alpha not preserved",)
    with pytest.raises(ValueError, match="alpha not preserved"):
        decompose_K_alpha(M, uneven)
    assert len(calls) == 1


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


def _dense_conjugation_word(M, alpha):
    """decompose_K_alpha's generators by dense products: the frame
    isometry psi as a matrix, psi^{-1} = G psi^T G, the conjugate
    psi M psi^{-1} by matrix products, and each generator pulled back
    by psi^{-1}."""
    model = M.model
    psi = mat_identity(model.rank)
    for f in _chamber_frame(model, alpha)[0]:
        psi = mat_mul(reflection_matrix(f), psi)
    gram = model.gram
    psi_inv = mat_mul(gram, mat_mul(mat_transpose(psi), gram))
    alpha_prime = FormClass(model, mat_vec(psi, alpha.coeffs))
    gens = []
    for g in _staged_reduction(model, mat_mul(psi, mat_mul(M.entries, psi_inv))):
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
    chamber = _chamber_frame(m, alpha)
    assert (chamber is None) == (not in_cone(alpha))
    if chamber is None:
        return
    frame, alpha_prime = chamber
    dual = HomClass(m, alpha.num)
    for f in frame:
        assert pairing(f, f) == -2 and form_pairing(m.k0_form(), f) == 0
        dual = reflect(f, dual)
    assert alpha_prime == FormClass._from_num(m, dual.coeffs, alpha.den)
    a, b = dual.coeffs[0], [-c for c in dual.coeffs[1:]]
    assert b == sorted(b)
    if m.n >= 3:
        assert a >= sum(b[-3:])


@st.composite
def small_n_cases(draw):
    m = R(draw(st.integers(0, 2)))
    q = draw(st.integers(1, 4))
    coeffs = [draw(st.integers(-6, 6)) for _ in range(m.rank)]
    if m.n == 2 and draw(st.booleans()):
        coeffs[2] = coeffs[1]  # tied areas, so E1 - E2 is null
    alpha = FormClass(m, [Fraction(c, q) for c in coeffs])
    M = IsometryMatrix.identity(m)
    if m.n == 2 and coeffs[1] == coeffs[2] and draw(st.booleans()):
        M = word_matrix(m, ["E1-E2"])
    return M, alpha


@given(small_n_cases())
@settings(max_examples=300, deadline=None)
def test_k_alpha_small_n_needs_alpha_in_the_cone(case):
    # n <= 2 takes the same path as every other n: the staged reduction
    # on an unchanged frame inside the cone, ValueError outside it
    M, alpha = case
    if in_cone(alpha):
        word = decompose_K_alpha(M, alpha)
        assert word.generators == tuple(_staged_reduction(M.model, M.entries))
    else:
        with pytest.raises(ValueError, match="symplectic cone"):
            decompose_K_alpha(M, alpha)


def test_decompose_identity_and_generator():
    m4 = R(4)
    assert len(decompose_K(IsometryMatrix.identity(m4))) == 0
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
        decompose_K(IsometryMatrix.identity(LatticeModel.ruled(1, 1)))


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
    assert len(decompose_ruled(IsometryMatrix.identity(m), alpha)) == 0
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
    assert len(decompose_ruled(IsometryMatrix.identity(m), alpha)) == 0


def test_matrix_json_round_trip():
    m = R(3)
    M = word_matrix(m, ["H-E1-E2-E3", "E1-E2"])
    data = matrix_to_json(M)
    assert matrix_from_json(data) == M
    with pytest.raises(TypeError, match="integers"):
        matrix_from_json({"model": data["model"], "entries": [[1.5] * 4] * 4})
