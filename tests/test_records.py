"""The record contract of the library's value types.

The records (models, classes, forms, words, normal forms, exceptional
sets, matrices, queries and crosscheck reports) compare equal only to a
record of the same class with equal fields, hash and print by their
fields, refuse assignment and deletion, and keep their cached values out
of all three.  The result tuples are named tuples with the same reprs.
"""

import inspect
from fractions import Fraction

import pytest

from latwist.cone import ConeResult, ExceptionalSet, LagrangianResult, enumerate_exceptional, in_cone
from latwist.decompose import IsometryMatrix, ValidationReport, validate
from latwist.lattice import FormClass, HomClass, LatticeModel, _kept
from latwist.oracle import CrosscheckReport, Disagreement, EnumQuery, crosscheck
from latwist.reduction import (
    NormalForm,
    ReflectionWord,
    cremona_reduce,
    is_K_null_spherical,
)

M = LatticeModel.rational(2)
SWAP = ((1, 0, 0), (0, 0, 1), (0, 1, 0))


def _warm_model(m):
    m.gram, m.basis_names, m.k0_form(), m._classes[((1, 1),)]


def _warm_class(x):
    x.square()
    cremona_reduce(x)
    is_K_null_spherical(x, FormClass(x.model, (-3, -1, 1)))


def _warm_form(tau):
    tau.coeffs
    in_cone(tau)


def _warm_matrix(matrix):
    validate(matrix)


# record class, a function building a fresh value, its repr, and a
# function that fills the value's cached attributes (None: it has none)
RECORDS = [
    (LatticeModel, lambda: LatticeModel("rational", 2), "LatticeModel.rational(2)", _warm_model),
    (LatticeModel, lambda: LatticeModel("ruled", 1, 1), "LatticeModel.ruled(1, 1)", _warm_model),
    (
        HomClass,
        lambda: HomClass(M, (1, 0, 0)),
        "HomClass(model=LatticeModel.rational(2), coeffs=(1, 0, 0))",
        _warm_class,
    ),
    (
        FormClass,
        lambda: FormClass(M, (3, -1, Fraction(1, 2))),
        "FormClass(model=LatticeModel.rational(2), "
        "coeffs=(Fraction(3, 1), Fraction(-1, 1), Fraction(1, 2)))",
        _warm_form,
    ),
    (
        ReflectionWord,
        lambda: ReflectionWord(M, (HomClass(M, (0, 1, -1)),)),
        "ReflectionWord(model=LatticeModel.rational(2), "
        "generators=(HomClass(model=LatticeModel.rational(2), coeffs=(0, 1, -1)),))",
        lambda word: word.matrix,
    ),
    (
        NormalForm,
        lambda: NormalForm("Binary", HomClass(M, (0, 1, -1)), ReflectionWord(M, ()), True),
        "NormalForm(kind='Binary', representative=HomClass(model=LatticeModel.rational(2), "
        "coeffs=(0, 1, -1)), word=ReflectionWord(model=LatticeModel.rational(2), generators=()), "
        "sign_flipped=True)",
        None,
    ),
    (
        ExceptionalSet,
        lambda: enumerate_exceptional(LatticeModel.rational(1)),
        "ExceptionalSet(model=LatticeModel.rational(1), K=FormClass(model=LatticeModel.rational(1), "
        "coeffs=(Fraction(-3, 1), Fraction(1, 1))), classes=(HomClass(model=LatticeModel.rational(1), "
        "coeffs=(0, 1)),), complete=True, degree_bound=None)",
        None,
    ),
    (
        IsometryMatrix,
        lambda: IsometryMatrix(M, [list(row) for row in SWAP]),
        "IsometryMatrix(model=LatticeModel.rational(2), entries=((1, 0, 0), (0, 0, 1), (0, 1, 0)))",
        _warm_matrix,
    ),
    (
        EnumQuery,
        lambda: EnumQuery(M, 1, predicate="knull"),
        "EnumQuery(model=LatticeModel.rational(2), coeff_bound=1, square=None, k_pairing=None, "
        "predicate='knull')",
        None,
    ),
    (
        CrosscheckReport,
        lambda: crosscheck(EnumQuery(LatticeModel.rational(1), 1, square=-1)),
        "CrosscheckReport(query=EnumQuery(model=LatticeModel.rational(1), coeff_bound=1, square=-1, "
        "k_pairing=None, predicate=None), classes=(HomClass(model=LatticeModel.rational(1), "
        "coeffs=(0, -1)), HomClass(model=LatticeModel.rational(1), coeffs=(0, 1))), disagreements=())",
        None,
    ),
]

IDS = [f"{cls.__name__}-{i}" for i, (cls, *_) in enumerate(RECORDS)]

FIELDS = {
    LatticeModel: ("kind", "n", "genus"),
    HomClass: ("model", "coeffs"),
    FormClass: ("model", "num", "den"),
    ReflectionWord: ("model", "generators"),
    NormalForm: ("kind", "representative", "word", "sign_flipped"),
    ExceptionalSet: ("model", "K", "classes", "complete", "degree_bound"),
    IsometryMatrix: ("model", "entries"),
    EnumQuery: ("model", "coeff_bound", "square", "k_pairing", "predicate"),
    CrosscheckReport: ("query", "classes", "disagreements"),
}


def test_every_record_class_is_covered():
    assert {cls for cls, *_ in RECORDS} == FIELDS.keys()


@pytest.mark.parametrize("cls, build, text, warm", RECORDS, ids=IDS)
def test_equal_values_are_equal_and_hash_alike(cls, build, text, warm):
    a, b = build(), build()
    assert type(a) is cls and a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != 1 and a != (a,)


@pytest.mark.parametrize("cls, build, text, warm", RECORDS, ids=IDS)
def test_a_record_of_another_class_is_not_equal(cls, build, text, warm):
    value = build()
    twin = object.__new__(type(cls.__name__, (cls,), {}))
    vars(twin).update({name: getattr(value, name) for name in FIELDS[cls]})
    assert twin != value and value != twin
    assert not twin == value and not value == twin


@pytest.mark.parametrize("cls, build, text, warm", RECORDS, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls, build, text, warm):
    value = build()
    for name in FIELDS[cls] + ("not_a_field",):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == build()


@pytest.mark.parametrize("cls, build, text, warm", RECORDS, ids=IDS)
def test_repr_prints_the_fields(cls, build, text, warm):
    assert repr(build()) == text


@pytest.mark.parametrize(
    "cls, build, text, warm",
    [r for r in RECORDS if r[3]],
    ids=[i for i, r in zip(IDS, RECORDS) if r[3]],
)
def test_cached_values_leave_equality_hash_and_repr(cls, build, text, warm):
    value, fresh = build(), build()
    warm(value)
    assert vars(value).keys() > set(FIELDS[cls])
    assert vars(fresh).keys() == set(FIELDS[cls])
    assert value == fresh and fresh == value and hash(value) == hash(fresh)
    assert repr(value) == repr(fresh) == text


def test_kept_values_live_in_vars_and_are_computed_once():
    # the descriptor behind every kept value: a non-data descriptor that
    # stores its value in vars() on the first read
    calls = []

    class Probe(HomClass):
        @_kept
        def _probe(self):
            calls.append(self.coeffs)
            return sum(self.coeffs)

    x, fresh = Probe(M, (1, 2, 3)), Probe(M, (1, 2, 3))
    assert isinstance(vars(Probe)["_probe"], _kept)
    assert x._probe == 6 and x._probe == 6 and vars(x)["_probe"] == 6
    assert calls == [(1, 2, 3)]
    assert x == fresh and hash(x) == hash(fresh) and repr(x) == repr(fresh)
    with pytest.raises(AttributeError, match="cannot assign"):
        x._probe = 7
    assert x._probe == 6
    # a static __get__, as a profiler wrapping the attribute calls it,
    # returns the kept value and does not compute it again
    static = inspect.getattr_static(Probe, "_probe")
    assert static.__get__(x, Probe) == 6 and calls == [(1, 2, 3)]
    assert static.__get__(None, Probe) is static
    assert static.__get__(fresh, Probe) == 6 and vars(fresh)["_probe"] == 6
    assert len(calls) == 2


def test_a_word_matrix_read_through_a_static_get_is_the_kept_one():
    word = ReflectionWord(M, (HomClass(M, (0, 1, -1)),))
    matrix = word.matrix
    static = inspect.getattr_static(ReflectionWord, "matrix")
    assert static.__get__(word, ReflectionWord) is matrix is vars(word)["matrix"]


# the result tuples: equal as tuples, immutable, and printed by field
TUPLES = [
    (ConeResult, lambda: in_cone(FormClass(M, (1, -1, -1))),
     "ConeResult(verdict='no', witness=None, note='nonpositive square')"),
    (LagrangianResult, lambda: LagrangianResult(True, None, ReflectionWord(M, ()), "Binary", 0, False),
     "LagrangianResult(yes=True, reason=None, word=ReflectionWord(model=LatticeModel.rational(2), "
     "generators=()), kind='Binary', area=0, characteristic=False)"),
    (ValidationReport, lambda: validate(IsometryMatrix(M, SWAP)), "ValidationReport(ok=True, failures=())"),
    (Disagreement, lambda: Disagreement(HomClass(M, (0, 1, -1)), "knull", True, False),
     "Disagreement(cls=HomClass(model=LatticeModel.rational(2), coeffs=(0, 1, -1)), "
     "operation='knull', library=True, oracle=False)"),
]


@pytest.mark.parametrize("cls, build, text", TUPLES, ids=[cls.__name__ for cls, *_ in TUPLES])
def test_result_tuples_keep_their_contract(cls, build, text):
    a, b = build(), build()
    assert type(a) is cls and isinstance(a, tuple)
    assert a == b and hash(a) == hash(b) and repr(a) == text
    name = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert not hasattr(a, "__dict__")
