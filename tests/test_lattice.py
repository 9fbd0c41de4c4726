"""Pairing, reflection, and characteristic tests for both lattice models."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latwist.cone import enumerate_exceptional
from latwist.lattice import (
    FormClass,
    HomClass,
    LatticeModel,
    form_pairing,
    is_characteristic,
    _gram_product,
    _mat_reflect,
    mat_vec,
    pairing,
    reflect,
    reflection_matrix,
)
from latwist.oracle import EnumQuery, bfs_is_exceptional, crosscheck

from dense import mat_mul


def R(n):
    return LatticeModel.rational(n)


def test_rational_gram():
    m = R(2)
    assert m.rank == 3
    assert m.gram == ((1, 0, 0), (0, -1, 0), (0, 0, -1))
    assert m.basis_names == ("H", "E1", "E2")


def test_ruled_gram():
    m = LatticeModel.ruled(2, 1)
    assert m.rank == 3
    assert m.gram == ((0, 1, 0), (1, 0, 0), (0, 0, -1))
    assert m.basis_names == ("T", "F", "E1")


def test_k0_coefficients():
    assert R(3).k0().coeffs == (-3, 1, 1, 1)
    assert LatticeModel.ruled(2, 2).k0().coeffs == (-2, 2, 1, 1)
    assert LatticeModel.ruled(1, 1).k0().coeffs == (-2, 0, 1)


def test_model_validation():
    with pytest.raises(ValueError):
        LatticeModel.rational(-1)
    with pytest.raises(ValueError):
        LatticeModel.ruled(0, 2)
    # the constructor checks what the factories cannot pass it
    with pytest.raises(ValueError, match="unknown model kind 'bogus'"):
        LatticeModel("bogus", 1)
    with pytest.raises(ValueError, match="rational model carries no genus"):
        LatticeModel("rational", 1, 2)


def test_exceptional_basis_index_is_checked():
    m = R(3)
    assert m.E(1).coeffs == (0, 1, 0, 0) and m.E(3).coeffs == (0, 0, 0, 1)
    for i in (0, 4):
        with pytest.raises(ValueError, match=f"index out of range: E{i} in a model with n=3"):
            m.E(i)


@pytest.mark.parametrize("call, error, message", [
    (lambda m: m.unit(-1), ValueError, "index -1 out of range for rank 4"),
    (lambda m: m.unit(4), ValueError, "index 4 out of range for rank 4"),
    (lambda m: m.unit(9), ValueError, "index 9 out of range for rank 4"),
    (lambda m: m.unit(True), TypeError, "index must be an integer"),
    (lambda m: m.E(True), TypeError, "index must be an integer"),
    (lambda m: m.unit(2.0), TypeError, "index must be an integer"),
    (lambda m: m.E(1.0), TypeError, "index must be an integer"),
], ids=["unit-negative", "unit-rank", "unit-past-rank", "unit-bool", "E-bool", "unit-float", "E-float"])
def test_unit_index_is_checked(call, error, message):
    # -1 would count from the end, True would read as 1, a float would
    # fail inside list indexing and 9 as a bare IndexError
    with pytest.raises(error, match=f"^{message}$"):
        call(R(3))
    assert R(3).unit(0).coeffs == (1, 0, 0, 0) and R(3).unit(3) == R(3).E(3)


class _Int(int):
    pass


# every integer argument of the package, by its label in the message; each
# call takes the value under test
_INTEGER_ARGUMENTS = [
    ("model n", lambda v: LatticeModel.rational(v)),
    ("model n", lambda v: LatticeModel.ruled(1, v)),
    ("model genus", lambda v: LatticeModel.ruled(v, 2)),
    ("degree_bound", lambda v: enumerate_exceptional(R(3), degree_bound=v).classes),
    ("coeff_bound", lambda v: EnumQuery(R(3), v)),
    ("square", lambda v: EnumQuery(R(3), 1, square=v)),
    ("k_pairing", lambda v: EnumQuery(R(3), 1, k_pairing=v)),
    ("depth", lambda v: bfs_is_exceptional(R(3).E(1), depth=v)),
    ("depth", lambda v: crosscheck(EnumQuery(R(3), 1, predicate="exceptional"), depth=v)),
    ("sample", lambda v: crosscheck(EnumQuery(R(3), 1, predicate="exceptional"), sample=v, seed=0)),
    ("index", lambda v: R(3).unit(v)),
    ("index", lambda v: R(3).E(v)),
]


@pytest.mark.parametrize("label, call", _INTEGER_ARGUMENTS,
                         ids=[f"{label}-{i}" for i, (label, _) in enumerate(_INTEGER_ARGUMENTS)])
def test_integer_arguments_share_one_rule(label, call):
    # lattice._check_int is the one rule: a bool, a float and a digit
    # string are refused alike, and an int subclass passes as its value
    for value in (True, 2.5, "2"):
        with pytest.raises(TypeError, match=f"^{label} must be an integer$"):
            call(value)
    assert call(_Int(2)) == call(2)


def test_pairing_examples():
    m = R(2)
    H = m.unit(0)
    E1 = m.E(1)
    assert pairing(H, H) == 1
    assert pairing(E1, E1) == -1
    assert pairing(H, E1) == 0

    mr = LatticeModel.ruled(2, 1)
    T, F = mr.unit(0), mr.unit(1)
    assert pairing(T, F) == 1
    assert pairing(T, T) == 0
    assert pairing(F, F) == 0


def test_pairing_model_mismatch():
    with pytest.raises(ValueError, match="incompatible lattice models"):
        pairing(R(2).unit(0), R(3).unit(0))


def test_form_pairing_examples():
    m = R(3)
    k0 = m.k0_form()
    assert form_pairing(k0, m.E(1)) == -1
    assert form_pairing(k0, m.unit(0)) == -3
    zero = FormClass(m, (0, 0, 0, 0))
    assert form_pairing(zero, m.k0()) == 0


def test_form_pairing_is_exact_rational():
    m = R(1)
    tau = FormClass(m, (3, Fraction(3, 2)))
    assert form_pairing(tau, m.E(1)) == Fraction(-3, 2)


def test_form_class_rejects_floats():
    with pytest.raises(TypeError):
        FormClass(R(1), (1.5, 0))


def test_form_from_numerators_needs_a_positive_denominator():
    assert FormClass._from_num(R(1), (2, 4), 6) == FormClass(R(1), (Fraction(1, 3), Fraction(2, 3)))
    for den in (0, -1):
        with pytest.raises(ValueError, match="denominator must be positive"):
            FormClass._from_num(R(1), (1, 0), den)


def test_reflect_transposition():
    m = R(2)
    g = m.E(1) - m.E(2)
    assert reflect(g, m.E(1)) == m.E(2)
    assert reflect(g, m.E(2)) == m.E(1)


def test_reflect_ternary_on_h():
    m = R(3)
    g = HomClass(m, (1, -1, -1, -1))
    assert reflect(g, m.unit(0)).coeffs == (2, -1, -1, -1)


def test_reflect_negates_its_axis():
    m = R(4)
    g = HomClass(m, (1, -1, -1, -1, 0))
    assert reflect(g, g) == -g


def test_reflect_rejects_bad_square():
    m = R(1)
    with pytest.raises(ValueError, match="reflection undefined"):
        reflect(m.zero(), m.E(1))
    h = m.unit(0) + m.E(1)  # square 0
    with pytest.raises(ValueError, match="reflection undefined"):
        reflect(h, m.E(1))


def test_reflection_matrix_matches_reflect():
    m = R(3)
    g = HomClass(m, (1, -1, -1, -1))
    mat = reflection_matrix(g)
    x = HomClass(m, (5, -2, 3, 1))
    assert mat_vec(mat, x.coeffs) == reflect(g, x).coeffs


def test_gram_is_computed_once():
    m = R(4)
    assert m.gram is m.gram
    ruled = LatticeModel.ruled(2, 3)
    assert ruled.gram is ruled.gram
    # the cached value lives outside the record's fields, so a model
    # whose gram was read still equals and hashes like a fresh one
    assert m == R(4) and hash(m) == hash(R(4))
    assert ruled == LatticeModel.ruled(2, 3) and hash(ruled) == hash(LatticeModel.ruled(2, 3))
    assert len({m, R(4), ruled, LatticeModel.ruled(2, 3)}) == 2


def test_is_characteristic_examples():
    assert is_characteristic(HomClass(R(3), (1, -1, -1, -1)))
    assert not is_characteristic(HomClass(R(2), (0, 1, -1)))
    assert not is_characteristic(R(1).zero())
    # ruled: T, F coefficients even and E coefficients odd
    mr = LatticeModel.ruled(1, 2)
    assert is_characteristic(HomClass(mr, (2, 0, 1, -1)))
    assert not is_characteristic(HomClass(mr, (1, 0, 1, 1)))


def test_is_characteristic_matches_basis_pairings():
    # every class with coefficients in [-3, 3], against the oracle's
    # test of x.u = u.u mod 2 on each basis vector u
    from itertools import product

    from latwist.oracle import _is_characteristic_direct, _unit_squares

    models = [R(n) for n in range(4)]
    models += [LatticeModel.ruled(h, n) for h in range(1, 4) for n in range(3)]
    checked = 0
    for m in models:
        units = _unit_squares(m)
        for coeffs in product(range(-3, 4), repeat=m.rank):
            x = HomClass(m, coeffs)
            assert is_characteristic(x) == _is_characteristic_direct(x, units), (m, coeffs)
            checked += 1
    assert checked == 11179


def models():
    return st.one_of(
        st.integers(0, 6).map(LatticeModel.rational),
        st.tuples(st.integers(1, 3), st.integers(0, 5)).map(lambda t: LatticeModel.ruled(*t)),
    )


def admissible_seeds(m):
    """Classes of square +-1 or +-2, enough to generate varied axes."""
    out = []
    if m.kind == "rational":
        H = m.unit(0)
        out.append(H)
        for i in range(1, m.n + 1):
            out.append(m.E(i))
        for i in range(1, m.n + 1):
            for j in range(i + 1, m.n + 1):
                out.append(m.E(i) - m.E(j))
                out.append(H - m.E(i) - m.E(j))
                for k in range(j + 1, m.n + 1):
                    out.append(H - m.E(i) - m.E(j) - m.E(k))
    else:
        T, F = m.unit(0), m.unit(1)
        out.append(T + F)
        out.append(T - F)
        for i in range(1, m.n + 1):
            out.append(m.E(i))
            out.append(F - m.E(i))
            for j in range(i + 1, m.n + 1):
                out.append(m.E(i) - m.E(j))
                out.append(F - m.E(i) - m.E(j))
    return out


@st.composite
def admissible_gamma(draw):
    """A model plus an admissible axis, diversified by conjugation."""
    m = draw(models())
    seeds = admissible_seeds(m)
    g = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(0, 3))):
        g = reflect(draw(st.sampled_from(seeds)), g)
    return m, g


@given(admissible_gamma(), st.data())
@settings(max_examples=200, deadline=None)
def test_reflection_involution(mg, data):
    m, g = mg
    beta = HomClass(m, tuple(data.draw(st.integers(-9, 9)) for _ in range(m.rank)))
    assert reflect(g, reflect(g, beta)) == beta


@given(admissible_gamma(), st.data())
@settings(max_examples=200, deadline=None)
def test_reflection_is_isometry(mg, data):
    m, g = mg
    x = HomClass(m, tuple(data.draw(st.integers(-9, 9)) for _ in range(m.rank)))
    y = HomClass(m, tuple(data.draw(st.integers(-9, 9)) for _ in range(m.rank)))
    assert pairing(reflect(g, x), reflect(g, y)) == pairing(x, y)


@lru_cache(maxsize=None)
def k0_twist_seeds(m):
    """The K_0-twists among the admissible seeds and their reflections along one another."""
    seeds = admissible_seeds(m)
    axes = set(seeds) | {reflect(s, g) for s in seeds for g in seeds}
    k0 = m.k0()
    return sorted((g for g in axes if g.square() == -2 and pairing(k0, g) == 0),
                  key=lambda g: g.coeffs)


@st.composite
def k0_twist(draw):
    """A model plus a K_0-twist axis, conjugated by K_0-twists.

    Most draws of admissible_gamma are not K_0-twists; mixing these in
    keeps enough draws past the filter of test_k0_twists_fix_k0.  The
    seeds include twists such as T + F - 2E1 in ruled(1, n), reached only
    by reflecting T - F along F - E1, which is not itself a K_0-twist.
    """
    m = draw(models().filter(k0_twist_seeds))
    seeds = k0_twist_seeds(m)
    g = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(0, 3))):
        g = reflect(draw(st.sampled_from(seeds)), g)
    return m, g


# T + F - 2E1 is T - F reflected along F - E1, a K_0-twist of ruled(1, n)
@given(st.one_of(admissible_gamma(), k0_twist()))
@example((LatticeModel.ruled(1, 2), HomClass(LatticeModel.ruled(1, 2), (1, 1, -2, 0))))
@settings(max_examples=200, deadline=None)
def test_k0_twists_fix_k0(mg):
    m, g = mg
    k0 = m.k0()
    assume(g.square() == -2 and pairing(k0, g) == 0)
    assert reflect(g, k0) == k0


@given(admissible_gamma(), st.data())
@settings(max_examples=200, deadline=None)
def test_characteristic_is_reflection_invariant(mg, data):
    m, g = mg
    xi = HomClass(m, tuple(data.draw(st.integers(-5, 5)) for _ in range(m.rank)))
    assert is_characteristic(reflect(g, xi)) == is_characteristic(xi)


def dense_reflection(g):
    """The matrix I - (2/g.g) g (G g)^T, written out entry by entry."""
    m = g.model
    s = g.square()
    gram_g = [sum(m.gram[j][k] * g.coeffs[k] for k in range(m.rank)) for j in range(m.rank)]
    return tuple(
        tuple((i == j) - 2 * gram_g[j] * g.coeffs[i] // s for j in range(m.rank))
        for i in range(m.rank)
    )


@given(admissible_gamma(), st.data())
@settings(max_examples=200, deadline=None)
def test_mat_reflect_matches_dense_product(mg, data):
    m, g = mg
    assert reflection_matrix(g) == dense_reflection(g)
    cols = data.draw(st.integers(1, m.rank + 1))
    a = tuple(
        tuple(data.draw(st.integers(-9, 9)) for _ in range(cols)) for _ in range(m.rank)
    )
    assert _mat_reflect(g, a) == mat_mul(dense_reflection(g), a)


def _table_cores(m):
    """The table keys of every twist core the library reflects along, and
    of the square -1 classes E_i and F - E_i of the ruled exceptional list."""
    off, n = m.e_offset, m.n
    e = range(off, off + n)
    keys = [((i, 1), (j, -1)) for i in e for j in e if i < j]
    if m.kind == "rational":
        keys += [((0, 1), (i, -1), (j, -1), (k, -1)) for i in e for j in e for k in e if i < j < k]
    else:
        keys += [((1, 1), (i, -1), (j, -1)) for i in e for j in e if i < j]
        keys += [key for i in e for key in (((i, 1),), ((1, 1), (i, -1)))]
    return keys


TABLE_MODELS = [R(n) for n in range(13)] + [
    LatticeModel.ruled(h, n) for h in range(1, 4) for n in range(7)
]


@pytest.mark.parametrize("m", TABLE_MODELS, ids=repr)
def test_table_cores_match_dense_references(m):
    # a table class reflects along its key; every core must give the
    # dense reflection, on the identity, on a matrix and on a class
    rng = random.Random(f"table {m!r}")
    table = m._classes
    for key in _table_cores(m):
        g = table[key]
        assert table.terms[id(g)] == key
        dense = dense_reflection(g)
        assert reflection_matrix(g) == dense
        a = tuple(tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(m.rank))
        assert _mat_reflect(g, a) == mat_mul(dense, a)
        x = HomClass(m, tuple(rng.randint(-9, 9) for _ in range(m.rank)))
        assert reflect(g, x).coeffs == mat_vec(dense, x.coeffs)
    # a table class of inadmissible square raises on every call
    if m.kind == "rational":
        bad = [((0, 2),)] + ([((0, 1), (1, -1))] if m.n else [])
    else:
        bad = [((1, 1),), ((0, 1),), ((0, 1), (1, 2))]
    for key in bad:
        g = table[key]
        assert g.square() not in (1, -1, 2, -2)
        for _ in range(3):
            with pytest.raises(ValueError, match="reflection undefined"):
                reflect(g, g)
            with pytest.raises(ValueError, match="reflection undefined"):
                reflection_matrix(g)


def _axes_of_every_square(m):
    """One admissible axis for each of the squares 1, -1, 2, -2."""
    if m.kind == "rational":
        H, E1, E2 = m.unit(0), m.E(1), m.E(2)
        return {1: H, -1: E1, 2: 2 * H - E1 - E2, -2: E1 - E2}
    T, F, E1 = m.unit(0), m.unit(1), m.E(1)
    return {1: T + F - E1, -1: E1, 2: T + F, -2: T - F}


@pytest.mark.parametrize(
    "m", [R(2), R(6), R(10), LatticeModel.ruled(1, 1), LatticeModel.ruled(2, 4)], ids=repr
)
def test_kernels_match_dense_references_beyond_64_bits(m):
    # entries past 2**63 so that no fixed-width shortcut could pass
    rng = random.Random(f"{m!r}")
    big = 2**70
    seeds = admissible_seeds(m)

    def rand_rows(rows, cols):
        return tuple(tuple(rng.randint(-big, big) for _ in range(cols)) for _ in range(rows))

    def column(v):
        return tuple((x,) for x in v)

    for square, axis in _axes_of_every_square(m).items():
        assert axis.square() == square
        for _ in range(6):
            g = axis
            for _ in range(rng.randint(0, 4)):
                g = reflect(rng.choice(seeds), g)
            a = rand_rows(m.rank, rng.randint(1, m.rank + 2))
            dense = dense_reflection(g)
            assert reflection_matrix(g) == dense
            assert _mat_reflect(g, a) == mat_mul(dense, a)
            (u, v), sq = rand_rows(2, m.rank), rand_rows(m.rank, m.rank)
            assert _gram_product(m, u, v) == mat_mul((u,), mat_mul(m.gram, column(v)))[0][0]
            assert mat_vec(sq, v) == tuple(row[0] for row in mat_mul(sq, column(v)))
